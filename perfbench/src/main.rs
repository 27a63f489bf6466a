//! `perfbench`: the repository benchmark (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload popular|long_tail|live_ingest [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run generates its script from the seed, drives the in-process
//! serve daemon with it untraced, and checks every answer afterwards.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` also replays
//! the script through the layers' public functions and prints the
//! per-layer metrics, after checking that the replay did the daemon's
//! work. The last line of stdout is the result object.

mod check;
mod daemon;
mod mirror;
mod replay;
mod script;
mod sys;

use comparesets_serve::Request;
use daemon::{Plan, Prepared, Repetition, Untraced};
use replay::{Kind, Replay, Tracer};
use script::{Script, Sizes, Workload};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_qps", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_eps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 46] = [
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("cache.invalidate_us", "us"),
    ("cache.full_hit_ratio", "ratio"),
    ("cache.warm_hit_ratio", "ratio"),
    ("cache.miss_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.resident_bytes", "B"),
    ("server.unaccounted_share", "ratio"),
    ("server.degraded", "count"),
    ("context.build_us", "us"),
    ("context.builds", "count"),
    ("solve.cold_ms", "ms"),
    ("solve.warm_ms", "ms"),
    ("solve.other_ms", "ms"),
    ("solve.objective_us", "us"),
    ("solve.alternation_rounds", "count"),
    ("solve.integer_regressions", "count"),
    ("nomp.warm_start_hits", "count"),
    ("nomp.corr_incremental_updates", "count"),
    ("nomp.corr_exact_recomputes", "count"),
    ("nomp.pursuit_ms", "ms"),
    ("nomp.iterations", "count"),
    ("nomp.sparse_corr_scans", "count"),
    ("nnls.refit_ms", "ms"),
    ("nnls.refits", "count"),
    ("nnls.iterations", "count"),
    ("nnls.fallbacks", "count"),
    ("stage.clone_us", "us"),
    ("stage.apply_us", "us"),
    ("wal.append_us", "us"),
    ("wal.fsyncs", "count"),
    ("wal.bytes", "B"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.writes", "count"),
    ("snapshot.bytes", "B"),
    ("recover.read_ms", "ms"),
    ("recover.decode_ms", "ms"),
    ("recover.validate_ms", "ms"),
    ("recover.scan_ms", "ms"),
    ("recover.apply_ms", "ms"),
];

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Popular,
        seed: 14,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (popular, long_tail, live_ingest)")
                })?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What one run reports.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    environment: Environment,
}

/// The run's context, printed beside the result so a reader can tell
/// this machine's fsync and CPU from another's.
#[derive(Debug, Default, Serialize)]
struct Environment {
    workload: String,
    seed: u64,
    trace: bool,
    nproc: usize,
    /// The one CPU the daemon and the load run on (`None`: unpinned).
    pinned_cpu: Option<usize>,
    data_dir_filesystem: String,
    flush_policy: String,
    corpus_products: usize,
    corpus_reviews: usize,
    prepared_snapshot_bytes: u64,
    prepared_wal_bytes: u64,
    snapshot_bytes: u64,
    wal_bytes: u64,
    /// The end-to-end figures of each repetition on its own.
    repetitions: Vec<RepFigures>,
    solves_attempted: u64,
    solves_failed: u64,
    ingests_attempted: u64,
    ingests_failed: u64,
    answer_mismatches: u64,
    ack_mismatches: u64,
    timed_solves: usize,
    timed_ingests: usize,
    /// Traced run: solves served as full hits, warm hits and misses, by
    /// the daemon and by the replay.
    daemon_cache_paths: Vec<u64>,
    replay_cache_paths: Vec<u64>,
    replay_mismatches: Vec<String>,
}

/// One repetition's end-to-end figures, and the p90 of its solves, which
/// the environment record carries without a bound (see README.md).
#[derive(Debug, Default, Serialize)]
struct RepFigures {
    setup_s: f64,
    solve_p50_ms: f64,
    solve_p90_ms: f64,
    solve_qps: f64,
    ingest_p50_ms: f64,
    ingest_eps: f64,
}

impl RepFigures {
    fn of(r: &Repetition) -> RepFigures {
        RepFigures {
            setup_s: r.setup_s,
            solve_p50_ms: percentile_ms(&r.solve_ns, 0.5),
            solve_p90_ms: percentile_ms(&r.solve_ns, 0.9),
            solve_qps: per_second(&r.solve_ns),
            ingest_p50_ms: percentile_ms(&r.ingest_ns, 0.5),
            ingest_eps: per_second(&r.ingest_ns),
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Requests answered per second of the time the connection spent
/// waiting on them: the count over the sum of the round trips.
fn per_second(samples: &[u64]) -> f64 {
    samples.len() as f64 / (samples.iter().sum::<u64>() as f64 / 1e9)
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

/// The scratch root for data directories and span files.
fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench_run")
}

/// Run one workload end to end.
fn run(args: &Args, sizes: Sizes, root: &Path) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = sys::pin_to_one_cpu();
    let corpus = daemon::corpus(sizes.products);
    let script = Script::generate(args.workload, args.seed, &corpus, &sizes);
    std::fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
    let prepared = match args.workload {
        Workload::LiveIngest => Some(daemon::prepare(root, &corpus, &script)?),
        _ => None,
    };
    // The traced run replays one repetition, so it runs one untraced.
    let sizes = Sizes {
        repetitions: if args.trace { 1 } else { sizes.repetitions },
        ..sizes
    };
    let plan = Plan {
        workload: args.workload,
        sizes,
        script: &script,
        root,
        prepared: prepared.as_ref(),
    };
    let untraced = daemon::run(&plan)?;

    let (answer_mismatches, ack_mismatches) =
        verify(&untraced, &script, &corpus, prepared.as_ref())?;
    let solves_failed = untraced.solve.failed + answer_mismatches;
    let ingests_failed = untraced.ingest.failed + ack_mismatches;

    let mut env = Environment {
        workload: format!("{:?}", args.workload),
        seed: args.seed,
        trace: args.trace,
        nproc,
        pinned_cpu,
        data_dir_filesystem: sys::filesystem(root),
        flush_policy: match args.workload {
            Workload::LiveIngest => format!(
                "fsync-on-ack, snapshot_every {}",
                comparesets_serve::ServerConfig::default().snapshot_every
            ),
            _ => "in-memory (no data directory)".to_string(),
        },
        corpus_products: corpus.products.len(),
        corpus_reviews: corpus.reviews.len(),
        snapshot_bytes: untraced.snapshot_bytes,
        wal_bytes: untraced.wal_bytes,
        repetitions: untraced.reps.iter().map(RepFigures::of).collect(),
        solves_attempted: untraced.solve.attempted,
        solves_failed,
        ingests_attempted: untraced.ingest.attempted,
        ingests_failed,
        answer_mismatches,
        ack_mismatches,
        timed_solves: untraced.reps.iter().map(|r| r.solve_ns.len()).sum(),
        timed_ingests: untraced.reps.iter().map(|r| r.ingest_ns.len()).sum(),
        ..Environment::default()
    };
    if let Some(p) = &prepared {
        env.prepared_snapshot_bytes =
            std::fs::metadata(p.dir.join(comparesets_data::wal::SNAPSHOT_FILE))
                .map_or(0, |m| m.len());
        env.prepared_wal_bytes =
            std::fs::metadata(p.dir.join(comparesets_data::wal::WAL_FILE)).map_or(0, |m| m.len());
    }

    let metrics = if args.trace {
        let replay = traced(&plan)?;
        let spans = scratch_root().join(format!("spans-{:?}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = replay.tracer.write_tsv(&spans) {
            eprintln!("perfbench: writing spans to {}: {e}", spans.display());
        }
        let (d, t) = (&untraced.counters, &replay.total);
        env.daemon_cache_paths = vec![d.serve_full_hits, d.serve_warm_hits, d.serve_cache_misses];
        env.replay_cache_paths = vec![t.full_hits, t.warm_hits, t.misses];
        env.replay_mismatches = fidelity(args.workload, &replay, &untraced);
        per_layer(&replay, &untraced)
    } else {
        end_to_end(&untraced)
    };
    Ok(Outcome {
        correct: solves_failed == 0 && ingests_failed == 0 && env.replay_mismatches.is_empty(),
        attempted: untraced.solve.attempted + untraced.ingest.attempted,
        failed: solves_failed + ingests_failed,
        metrics,
        environment: env,
    })
}

/// Correctness, after the timed phases: wrong answers and wrong acks.
/// Answers served before any write must equal cold solves on the
/// starting corpus (`live_ingest`: the recovered one), answers among the
/// writes cold solves on the corpus as it stood then, and answers after
/// the writes cold solves on the shadow corpus.
fn verify(
    untraced: &Untraced,
    script: &Script,
    corpus: &comparesets_data::Dataset,
    prepared: Option<&Prepared>,
) -> Result<(u64, u64), String> {
    let start = prepared.map_or(corpus, |p| &p.recovered);
    let base_seq = prepared.map_or(0, |p| p.tail.len() as u64);
    let shadow = check::shadow(start, base_seq, &script.writes)?;
    let sent: Vec<&Request> = script.warmup.iter().chain(&script.reads).collect();
    let answers = check::mismatched_answers(start, &untraced.served, |i| sent[i].clone())
        + check::mismatched_after_writes(
            start,
            base_seq,
            &script.writes,
            &script.reads,
            &untraced.after_writes,
        )?
        + check::mismatched_answers(&shadow, &untraced.verified, Request::solve);
    let acks = untraced
        .reps
        .iter()
        .map(|rep| check::ack_mismatches(base_seq, &script.writes, &rep.acks))
        .sum();
    Ok((answers, acks))
}

/// The end-to-end metrics: each figure's median over the repetitions,
/// and the process's peak memory. The host's slow spells last from tens
/// of milliseconds to seconds (see README.md); a median repetition leaves
/// out the phases one of them hit, where pooled samples would take them in.
fn end_to_end(u: &Untraced) -> BTreeMap<&'static str, f64> {
    let reps: Vec<RepFigures> = u.reps.iter().map(RepFigures::of).collect();
    let med = |f: fn(&RepFigures) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    BTreeMap::from([
        ("setup_s", med(|r| r.setup_s)),
        ("solve_p50_ms", med(|r| r.solve_p50_ms)),
        ("solve_qps", med(|r| r.solve_qps)),
        ("ingest_p50_ms", med(|r| r.ingest_p50_ms)),
        ("ingest_eps", med(|r| r.ingest_eps)),
        ("peak_rss_mb", u.peak_rss_mb),
    ])
}

/// Replay the script through the layers, with spans, in the order the
/// daemon saw it.
fn traced(plan: &Plan) -> Result<Replay, String> {
    let (script, root) = (plan.script, plan.root);
    let mut replay = match plan.prepared {
        None => Replay::new(daemon::corpus(plan.sizes.products)),
        Some(p) => {
            let mut tracer = Tracer::new();
            tracer.timed = true;
            let restarted = replay::restart(&mut tracer, &p.dir)?;
            tracer.timed = false;
            replay::durable(tracer, restarted, root.join("replay").join(daemon::SHARD))?
        }
    };
    for request in &script.warmup {
        replay.solve(request);
    }
    replay.start_timed();
    if plan.workload == Workload::LiveIngest {
        for (write, read) in script.writes.iter().zip(script.reads.iter().cycle()) {
            replay.ingest(write);
            replay.solve(read);
        }
    } else {
        for request in &script.reads {
            replay.solve(request);
        }
        for write in &script.writes {
            replay.ingest(write);
        }
    }
    replay.stop_timed();
    Ok(replay)
}

/// Counters the replay must reproduce exactly, as `(name, daemon, replay)`.
fn fidelity(workload: Workload, replay: &Replay, u: &Untraced) -> Vec<String> {
    let d = &u.counters;
    let t = &replay.total;
    let all = replay.metrics.snapshot();
    let mut checks = vec![
        ("serve_full_hits", d.serve_full_hits, t.full_hits),
        ("serve_warm_hits", d.serve_warm_hits, t.warm_hits),
        ("serve_cache_misses", d.serve_cache_misses, t.misses),
        ("nomp_iterations", d.nomp_iterations, all.nomp_iterations),
        ("nnls_refits", d.nnls_refits, all.nnls_refits),
    ];
    if workload == Workload::LiveIngest {
        let (start, end) = &replay.timed_metrics;
        checks.extend([
            (
                "wal_appends",
                d.wal_appends,
                end.wal_appends - start.wal_appends,
            ),
            (
                "wal_fsyncs",
                d.wal_fsyncs,
                end.wal_fsyncs - start.wal_fsyncs,
            ),
            (
                "snapshot_writes",
                d.snapshot_writes,
                end.snapshot_writes - start.snapshot_writes,
            ),
        ]);
    }
    checks
        .into_iter()
        .filter(|&(_, daemon, replayed)| daemon != replayed)
        .map(|(name, daemon, replayed)| format!("{name}: daemon {daemon}, replay {replayed}"))
        .collect()
}

fn per_layer(replay: &Replay, u: &Untraced) -> BTreeMap<&'static str, f64> {
    let tracer = &replay.tracer;
    let self_ns = tracer.self_ns();
    // Per span name: calls and self time. Per request kind: requests and
    // layer self time (everything but the request's own glue).
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut by_kind: BTreeMap<Kind, (u64, u64)> = BTreeMap::new();
    for &(kind, timed) in &tracer.requests {
        if timed {
            by_kind.entry(kind).or_default().0 += 1;
        }
    }
    for (span, &ns) in tracer.spans.iter().zip(&self_ns) {
        let (kind, timed) = tracer.requests[span.request];
        if !timed || span.name == "request" {
            continue;
        }
        let e = by_name.entry(span.name).or_default();
        e.0 += 1;
        e.1 += ns;
        by_kind.entry(kind).or_default().1 += ns;
    }
    let per_call = |name: &str, scale: f64| {
        by_name
            .get(name)
            .filter(|(calls, _)| *calls > 0)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls as f64 / scale)
    };
    let t = &replay.timed;
    let (start, end) = &replay.timed_metrics;
    let counter = |f: fn(&comparesets_core::MetricsSnapshot) -> u64| (f(end) - f(start)) as f64;
    let solves = (t.full_hits + t.warm_hits + t.misses).max(1) as f64;
    let solver_calls = (t.warm_hits + t.misses).max(1) as f64;
    let messages = t.messages.max(1) as f64;

    // Layer time per request kind, scaled to the daemon's request counts,
    // against the daemon's summed round trips.
    let solve_ns: Vec<u64> = u
        .reps
        .iter()
        .flat_map(|r| r.solve_ns.iter().copied())
        .collect();
    let ingest_ns: Vec<u64> = u
        .reps
        .iter()
        .flat_map(|r| r.ingest_ns.iter().copied())
        .collect();
    let untraced_counts = [
        (Kind::Solve, solve_ns.len() as f64),
        (Kind::Ingest, ingest_ns.len() as f64),
    ];
    let accounted: f64 = untraced_counts
        .iter()
        .map(|(kind, n)| {
            by_kind
                .get(kind)
                .filter(|(requests, _)| *requests > 0)
                .map_or(0.0, |&(requests, ns)| ns as f64 / requests as f64 * n)
        })
        .sum();
    let e2e: f64 = solve_ns.iter().chain(&ingest_ns).map(|&ns| ns as f64).sum();

    BTreeMap::from([
        ("protocol.encode_us", per_call("protocol.encode", 1e3)),
        ("protocol.decode_us", per_call("protocol.decode", 1e3)),
        ("protocol.request_bytes", t.request_bytes as f64 / messages),
        (
            "protocol.response_bytes",
            t.response_bytes as f64 / messages,
        ),
        ("cache.lookup_us", per_call("cache.lookup", 1e3)),
        ("cache.store_us", per_call("cache.store", 1e3)),
        ("cache.invalidate_us", per_call("cache.invalidate", 1e3)),
        ("cache.full_hit_ratio", t.full_hits as f64 / solves),
        ("cache.warm_hit_ratio", t.warm_hits as f64 / solves),
        ("cache.miss_ratio", t.misses as f64 / solves),
        ("cache.evictions", t.evictions as f64),
        ("cache.invalidations", t.invalidations as f64),
        ("cache.resident_bytes", u.resident_bytes as f64),
        ("server.unaccounted_share", 1.0 - accounted / e2e),
        ("server.degraded", u.counters.serve_degraded as f64),
        ("context.build_us", per_call("context.build", 1e3)),
        ("context.builds", t.context_builds as f64),
        ("solve.cold_ms", per_call("solve.cold", 1e6)),
        ("solve.warm_ms", per_call("solve.warm", 1e6)),
        (
            "solve.other_ms",
            (t.solver_ns - t.pursuit_ns) as f64 / solver_calls / 1e6,
        ),
        ("solve.objective_us", per_call("solve.objective", 1e3)),
        (
            "solve.alternation_rounds",
            counter(|m| m.alternation_rounds),
        ),
        (
            "solve.integer_regressions",
            counter(|m| m.integer_regressions),
        ),
        ("nomp.warm_start_hits", counter(|m| m.warm_start_hits)),
        (
            "nomp.corr_incremental_updates",
            counter(|m| m.corr_incremental_updates),
        ),
        (
            "nomp.corr_exact_recomputes",
            counter(|m| m.corr_exact_recomputes),
        ),
        (
            "nomp.pursuit_ms",
            (t.pursuit_ns - t.refit_ns) as f64 / solver_calls / 1e6,
        ),
        ("nomp.iterations", counter(|m| m.nomp_iterations)),
        ("nomp.sparse_corr_scans", counter(|m| m.sparse_corr_scans)),
        ("nnls.refit_ms", t.refit_ns as f64 / solver_calls / 1e6),
        ("nnls.refits", counter(|m| m.nnls_refits)),
        ("nnls.iterations", counter(|m| m.nnls_iterations)),
        (
            "nnls.fallbacks",
            counter(|m| m.fallback_qr + m.fallback_ridge),
        ),
        ("stage.clone_us", per_call("stage.clone", 1e3)),
        ("stage.apply_us", per_call("stage.apply", 1e3)),
        ("wal.append_us", per_call("wal.append", 1e3)),
        ("wal.fsyncs", counter(|m| m.wal_fsyncs)),
        ("wal.bytes", t.wal_bytes as f64),
        ("snapshot.write_ms", per_call("snapshot.write", 1e6)),
        ("snapshot.writes", t.snapshots as f64),
        ("snapshot.bytes", t.snapshot_bytes as f64),
        ("recover.read_ms", per_call("recover.read", 1e6)),
        ("recover.decode_ms", per_call("recover.decode", 1e6)),
        ("recover.validate_ms", per_call("recover.validate", 1e6)),
        ("recover.scan_ms", per_call("recover.scan", 1e6)),
        ("recover.apply_ms", per_call("recover.apply", 1e6)),
    ])
}

/// The result object, with every metric of `table` in table order.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = outcome
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not computed"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = scratch_root().join(format!("{:?}-{}", args.workload, std::process::id()));
    let scratch = ScratchDir(root.clone());
    let sizes = Sizes::for_seconds(args.workload, args.seconds);
    let outcome = run(&args, sizes, &root);
    drop(scratch);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match outcome.and_then(|o| result_line(&o, table).map(|line| (o, line))) {
        Ok((outcome, line)) => {
            let env = serde_json::to_string(&outcome.environment).unwrap_or_default();
            println!("{{\"environment\":{env}}}");
            println!("{line}");
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// A run small enough for a test, on a 24-product corpus. The
    /// `live_ingest` tail is long enough that its one snapshot still
    /// falls inside the timed phase.
    fn tiny(workload: Workload) -> Sizes {
        let live = workload == Workload::LiveIngest;
        Sizes {
            products: 24,
            warmup: 6,
            reads: if live { 0 } else { 24 },
            writes: if live { 8 } else { 12 },
            tail: if live { 250 } else { 0 },
            repetitions: 2,
        }
    }

    const WORKLOADS: [Workload; 3] = [Workload::Popular, Workload::LongTail, Workload::LiveIngest];

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 1,
            trace,
        }
    }

    fn test_root(name: &str) -> ScratchDir {
        ScratchDir(scratch_root().join(format!("test-{name}-{}", std::process::id())))
    }

    fn number(value: Option<&Value>) -> Option<f64> {
        match value? {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::parse(&json).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for (trace, key, table) in [
            (false, "end_to_end", &END_TO_END[..]),
            (true, "per_layer", &PER_LAYER[..]),
        ] {
            let declared = declared(key);
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(ours, declared, "the {key} table must match BENCHMARK.json");
            for workload in WORKLOADS {
                let root = test_root(&format!("metrics-{workload:?}-{trace}"));
                let outcome = run(&args(workload, trace), tiny(workload), &root.0)
                    .unwrap_or_else(|e| panic!("{workload:?}: {e}"));
                assert!(outcome.correct, "{workload:?}: {:?}", outcome.environment);
                let line = result_line(&outcome, table).expect("every metric is finite");
                let result = serde_json::parse(&line).expect("result line is JSON");
                assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
                assert_eq!(number(result.get("failed")), Some(0.0));
                assert!(number(result.get("attempted")).unwrap_or(0.0) > 0.0);
                let metrics = result.get("metrics").expect("metrics object");
                assert_eq!(metrics.as_object().map(<[_]>::len), Some(declared.len()));
                for (name, unit) in &declared {
                    let metric = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload:?} lacks {name}"));
                    assert!(number(metric.get("value")).is_some(), "{name} has no value");
                    assert_eq!(
                        metric.get("unit").and_then(Value::as_str),
                        Some(unit.as_str()),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupted_answers_and_acks_count_as_failures() {
        for workload in [Workload::Popular, Workload::LiveIngest] {
            let root = test_root(&format!("corrupt-{workload:?}"));
            let sizes = tiny(workload);
            let corpus = daemon::corpus(sizes.products);
            let script = Script::generate(workload, 7, &corpus, &sizes);
            std::fs::create_dir_all(&root.0).expect("test root");
            let prepared = (workload == Workload::LiveIngest)
                .then(|| daemon::prepare(&root.0, &corpus, &script).expect("prepare"));
            let plan = Plan {
                workload,
                sizes: Sizes {
                    repetitions: 1,
                    ..sizes
                },
                script: &script,
                root: &root.0,
                prepared: prepared.as_ref(),
            };
            let mut untraced = daemon::run(&plan).expect("untraced run");
            let verdict =
                |u: &Untraced| verify(u, &script, &corpus, prepared.as_ref()).expect("verify");
            assert_eq!(
                verdict(&untraced),
                (0, 0),
                "{workload:?}: a clean run has no failures"
            );

            untraced.served[0].1 ^= 1;
            assert_eq!(
                verdict(&untraced),
                (1, 0),
                "{workload:?}: a wrong answer is a failure"
            );
            let last = untraced
                .verified
                .last_mut()
                .map_or(&mut untraced.served[1].1, |v| &mut v.1);
            *last ^= 1 << 63;
            assert_eq!(
                verdict(&untraced),
                (2, 0),
                "{workload:?}: every answer is checked"
            );
            let wrong = if workload == Workload::LiveIngest {
                untraced.after_writes[0].1 ^= 1;
                3
            } else {
                2
            };
            assert_eq!(
                verdict(&untraced),
                (wrong, 0),
                "{workload:?}: answers among the writes are checked"
            );
            untraced.reps[0].acks[1] = untraced.reps[0].acks[0];
            assert_eq!(
                verdict(&untraced),
                (wrong, 1),
                "{workload:?}: a wrong last_seq is a failure"
            );
        }
    }

    #[test]
    fn the_digest_sees_selections_and_objective_bits() {
        let selections = vec![comparesets_serve::ItemSelection {
            product: 3,
            indices: vec![0, 2],
            review_ids: vec![17, 19],
        }];
        let base = check::digest(&selections, Some(0.25));
        assert_ne!(base, check::digest(&selections, Some(0.25f64.next_up())));
        assert_ne!(base, check::digest(&selections, None));
        let mut moved = selections.clone();
        moved[0].indices[1] = 1;
        assert_ne!(base, check::digest(&moved, Some(0.25)));
        let mut renamed = selections;
        renamed[0].review_ids[0] = 18;
        assert_ne!(base, check::digest(&renamed, Some(0.25)));
    }

    #[test]
    fn same_seed_sends_identical_scripts() {
        let encode = |requests: &[comparesets_serve::Request]| -> Vec<String> {
            requests
                .iter()
                .map(|r| serde_json::to_string(r).expect("encode"))
                .collect()
        };
        let corpus = daemon::corpus(24);
        for workload in WORKLOADS {
            let sizes = tiny(workload);
            let script = |seed| Script::generate(workload, seed, &corpus, &sizes);
            let (a, b, other) = (script(7), script(7), script(8));
            for (x, y) in [
                (&a.warmup, &b.warmup),
                (&a.reads, &b.reads),
                (&a.writes, &b.writes),
            ] {
                assert_eq!(encode(x), encode(y), "{workload:?}");
            }
            assert_eq!(
                serde_json::to_string(&a.tail).expect("encode"),
                serde_json::to_string(&b.tail).expect("encode")
            );
            assert_ne!(
                (encode(&a.warmup), encode(&a.writes)),
                (encode(&other.warmup), encode(&other.writes)),
                "{workload:?}: another seed is another script"
            );
        }

        // What the benchmark actually sends: the requests of every answered
        // solve and every ingest, in order, repeat byte for byte.
        let sent = |tag: &str| {
            let root = test_root(tag);
            let sizes = tiny(Workload::Popular);
            let script = Script::generate(Workload::Popular, 7, &corpus, &sizes);
            std::fs::create_dir_all(&root.0).expect("test root");
            let plan = Plan {
                workload: Workload::Popular,
                sizes,
                script: &script,
                root: &root.0,
                prepared: None,
            };
            let untraced = daemon::run(&plan).expect("untraced run");
            let sent: Vec<&comparesets_serve::Request> =
                script.warmup.iter().chain(&script.reads).collect();
            let solves: Vec<String> = untraced
                .served
                .iter()
                .map(|&(i, _)| serde_json::to_string(sent[i]).expect("encode"))
                .collect();
            (solves, encode(&script.writes), untraced.served.len())
        };
        assert_eq!(sent("sent-a"), sent("sent-b"));
    }
}
