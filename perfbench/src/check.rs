//! Correctness checks, run after the timed phase. A served answer must
//! equal an in-process cold solve of the same query on the same corpus,
//! selections and objective bits alike; an ingest ack must carry the
//! next sequence number.

use crate::mirror;
use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_with, InstanceContext, SolveOptions,
};
use comparesets_data::Dataset;
use comparesets_serve::{ItemSelection, Request, Response};
use std::collections::BTreeMap;

/// FNV-1a over an answer's selections (product, indices, review ids)
/// and its objective's bits: what the check compares, kept in 8 bytes
/// so holding every answer of a run does not inflate the peak memory
/// the benchmark reports.
pub fn digest(selections: &[ItemSelection], objective: Option<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for sel in selections {
        feed(sel.product as u64);
        feed(sel.indices.len() as u64);
        sel.indices.iter().for_each(|&i| feed(i as u64));
        sel.review_ids.iter().for_each(|&r| feed(r as u64));
    }
    feed(objective.map_or(u64::MAX, f64::to_bits));
    h
}

pub fn answer_digest(response: &Response) -> u64 {
    digest(&response.selections, response.objective)
}

/// Digest of a cold, warm-start-free solve of `request` on `dataset`
/// (`None` when the request does not resolve).
pub fn cold_digest(dataset: &Dataset, request: &Request) -> Option<u64> {
    let query = mirror::resolve(dataset, request)?;
    let ctx = InstanceContext::build(dataset, &query.instance(), query.scheme);
    let opts = SolveOptions::sequential().with_warm_start(false);
    let selections = solve_comparesets_plus_sweeps_with(&ctx, &query.params, query.sweeps, &opts);
    let objective =
        comparesets_plus_objective(&ctx, &selections, query.params.lambda, query.params.mu);
    Some(digest(
        &mirror::wire_selections(&ctx, &selections),
        Some(objective),
    ))
}

/// Count served answers that differ from the cold reference. `served`
/// pairs a request (by its key in `requests`) with an answer digest;
/// each distinct request is solved once, every answer to it compared.
pub fn mismatched_answers<K: Ord + Copy>(
    dataset: &Dataset,
    served: &[(K, u64)],
    request: impl Fn(K) -> Request,
) -> u64 {
    let mut references: BTreeMap<String, Option<u64>> = BTreeMap::new();
    let mut mismatches = 0;
    for &(key, answer) in served {
        let request = request(key);
        let text = serde_json::to_string(&request).unwrap_or_default();
        let reference = *references
            .entry(text)
            .or_insert_with(|| cold_digest(dataset, &request));
        if reference != Some(answer) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Count acks whose `last_seq` is not the sequence number the write
/// must get: the store's next after `base`, one per event. Missing acks
/// were already counted as failed when they were sent.
pub fn ack_mismatches(base: u64, writes: &[Request], acks: &[Option<u64>]) -> u64 {
    let mut expected = base;
    let mut mismatches = 0;
    for (request, ack) in writes.iter().zip(acks) {
        expected += request.events.as_ref().map_or(0, Vec::len) as u64;
        if ack.is_some_and(|seq| seq != expected) {
            mismatches += 1;
        }
    }
    mismatches
}

/// Apply one scripted write to `corpus`, stamping its events from
/// `seq + 1` on, as the daemon stamps them.
fn apply_write(corpus: &mut Dataset, seq: &mut u64, write: &Request) -> Result<(), String> {
    for wire in write.events.iter().flatten() {
        *seq += 1;
        let ev = mirror::stamp(corpus, *seq, wire).ok_or(format!("write {seq} does not stamp"))?;
        corpus
            .apply_event(&ev)
            .map_err(|e| format!("write {seq}: {e}"))?;
    }
    Ok(())
}

/// The corpus the daemon must hold once every write is acknowledged:
/// `start` with the writes stamped from `base + 1` and applied in order.
pub fn shadow(start: &Dataset, base: u64, writes: &[Request]) -> Result<Dataset, String> {
    let mut shadow = start.clone();
    let mut seq = base;
    for write in writes {
        apply_write(&mut shadow, &mut seq, write)?;
    }
    Ok(shadow)
}

/// Count `live_ingest`'s timed answers that differ from a cold solve on
/// the corpus as it stood after the write each one followed. `served`
/// pairs the position of that write with the answer's digest; write `k`
/// is followed by `reads[k % reads.len()]`.
pub fn mismatched_after_writes(
    start: &Dataset,
    base: u64,
    writes: &[Request],
    reads: &[Request],
    served: &[(usize, u64)],
) -> Result<u64, String> {
    let mut answers: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(k, answer) in served {
        answers.entry(k).or_default().push(answer);
    }
    let mut corpus = start.clone();
    let mut seq = base;
    let mut mismatches = 0;
    for (k, (write, read)) in writes.iter().zip(reads.iter().cycle()).enumerate() {
        apply_write(&mut corpus, &mut seq, write)?;
        if let Some(answers) = answers.get(&k) {
            let reference = cold_digest(&corpus, read);
            mismatches += answers.iter().filter(|&&a| reference != Some(a)).count() as u64;
        }
    }
    Ok(mismatches)
}
