//! Property-based tests for WAL torn-tail recovery (ARCHITECTURE.md §11).
//!
//! The durability invariant under test: truncating or corrupting the WAL
//! at *any* byte recovers exactly the longest prefix of whole, valid
//! records — recovery never fails, never invents events, and the store
//! keeps accepting appends afterwards.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_data::wal::{scan_wal, WAL_FILE};
use comparesets_data::{
    AspectId, AspectMention, CategoryPreset, CorpusStore, Dataset, EventKind, Polarity, ProductId,
    ReviewEvent, ReviewId, TempDir,
};
use proptest::prelude::*;

fn add_event(d: &Dataset, seq: u64, product: u32) -> ReviewEvent {
    ReviewEvent {
        seq,
        kind: EventKind::Add,
        product: ProductId(product),
        review: ReviewId(d.reviews.len() as u32),
        reviewer: d.num_reviewers,
        rating: 1 + (seq % 5) as u8,
        text: format!("streamed {seq}"),
        mentions: vec![AspectMention {
            aspect: AspectId((seq % 3) as u32),
            polarity: if seq.is_multiple_of(2) {
                Polarity::Positive
            } else {
                Polarity::Negative
            },
        }],
    }
}

/// Build a store with `n` appended events; returns (dir, per-record end
/// offsets, live dataset states after each event).
fn populated_store(tag: &str, n: u64) -> (TempDir, Vec<u64>, Vec<Dataset>) {
    let dir = TempDir::new(&format!("walprop_{tag}")).unwrap();
    let seed = CategoryPreset::Toy.config(8, 3).generate();
    let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
    let mut live = rec.dataset;
    let mut offsets = vec![0u64];
    let mut states = vec![live.clone()];
    for k in 0..n {
        let ev = add_event(&live, store.next_seq(), (k % 5) as u32);
        store.append(std::slice::from_ref(&ev)).unwrap();
        live.apply_event(&ev).unwrap();
        offsets.push(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        states.push(live.clone());
    }
    (dir, offsets, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn truncation_at_any_byte_recovers_the_acknowledged_prefix(
        n in 1u64..10,
        cut_frac in 0.0f64..1.0,
    ) {
        let (dir, offsets, states) = populated_store("cut", n);
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::metadata(&wal_path).unwrap().len();
        let cut = (full as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Recovery keeps exactly the records that fit whole below the cut.
        let survivors = offsets.iter().filter(|&&end| end > 0 && end <= cut).count();
        let scan = scan_wal(&wal_path).unwrap();
        prop_assert_eq!(scan.events.len(), survivors);
        prop_assert_eq!(scan.valid_len, offsets[survivors]);

        let (mut store, rec) = CorpusStore::open(&dir, None, 0, None).unwrap();
        prop_assert_eq!(rec.replayed, survivors as u64);
        prop_assert_eq!(
            serde_json::to_string(&rec.dataset).unwrap(),
            serde_json::to_string(&states[survivors]).unwrap(),
            "recovered corpus must equal the state after the last whole record"
        );

        // The store keeps working: append lands on the truncated boundary.
        let mut live = rec.dataset;
        let ev = add_event(&live, store.next_seq(), 0);
        store.append(std::slice::from_ref(&ev)).unwrap();
        live.apply_event(&ev).unwrap();
        drop(store);
        let rec2 = CorpusStore::open(&dir, None, 0, None).unwrap().1;
        prop_assert_eq!(
            serde_json::to_string(&rec2.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn corruption_at_any_byte_never_fails_recovery(
        n in 1u64..8,
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (dir, offsets, states) = populated_store("flip", n);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= flip;
        std::fs::write(&wal_path, &bytes).unwrap();

        // The flipped byte lives in some record k (0-based): the CRC (or
        // framing) check rejects exactly that record, recovery keeps the
        // k records before it, and never errors.
        let hit = offsets[1..].iter().position(|&end| (idx as u64) < end).unwrap();
        let rec = CorpusStore::open(&dir, None, 0, None).unwrap().1;
        prop_assert_eq!(rec.replayed, hit as u64);
        prop_assert_eq!(
            serde_json::to_string(&rec.dataset).unwrap(),
            serde_json::to_string(&states[rec.replayed as usize]).unwrap()
        );
    }
}
