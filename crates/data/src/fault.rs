//! Deterministic fault injection for the durable store.
//!
//! Crash-safety claims are only as good as the failures they were tested
//! against. This module provides a [`FaultPlane`] — a seeded,
//! schedule-driven injector consulted at every durability-critical I/O
//! site in [`crate::wal`] and [`crate::io::write_atomic_with`] — so the
//! WAL + snapshot machinery can be driven through thousands of
//! *reproducible* fault schedules: short (torn) writes, failed fsyncs,
//! disk-full, bit-flips on read, and injected latency. The same seed
//! always yields the same schedule, so a violated invariant is a bug
//! report with a replay command attached.
//!
//! [`run_fault_schedule`] is the single-store chaos harness built on
//! top: one seeded episode of append/snapshot/crash/recover cycles that
//! asserts the store's standing invariant — the acknowledged prefix
//! recovers byte-identical, and anything extra recovery surfaces is a
//! clean prefix of what was submitted. `comparesets chaos` and the
//! serve-side chaos tests both drive it.

use crate::model::{AspectId, AspectMention, Dataset, Polarity, ProductId, ReviewId};
use crate::wal::{recover, CorpusStore, EventKind, ReviewEvent};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The I/O primitive a durability path is about to run; the plane picks
/// faults appropriate to each (a read cannot short-write, a rename
/// cannot bit-flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Appending framed records to the WAL.
    WalWrite,
    /// The fsync that acknowledges a WAL batch.
    WalFsync,
    /// Rolling a failed WAL append back to the pre-append length.
    WalTruncate,
    /// Reading the WAL during a scan/recovery.
    WalRead,
    /// Writing the temp file inside an atomic write (snapshots,
    /// checkpoints, compacted WALs).
    AtomicWrite,
    /// The rename that publishes an atomic write.
    Rename,
}

/// What the plane injects at one consulted I/O site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault; run the real operation.
    Pass,
    /// Sleep before the operation (fail-slow device, contended mount).
    Delay(Duration),
    /// Fail the operation outright with a generic I/O error.
    Fail,
    /// Fail with `ENOSPC` — the fatal, no-retry class (see
    /// [`crate::io::is_disk_fatal`]).
    DiskFull,
    /// Write only the given per-mille prefix of the buffer, then fail —
    /// a torn write as a crash would leave it.
    ShortWrite(u32),
    /// Flip one bit of the buffer just read, at this pseudo-random
    /// index (the site reduces it modulo the buffer length).
    BitFlip(u64),
}

/// Per-1024 probabilities for each fault class. Classes that do not
/// apply to an op (bit-flips on writes, short writes on reads) are
/// skipped without consuming probability mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Generic I/O failure.
    pub fail: u16,
    /// `ENOSPC` on writes/fsyncs.
    pub disk_full: u16,
    /// Torn write on write ops.
    pub short_write: u16,
    /// Single-bit corruption on read ops.
    pub bit_flip: u16,
    /// Injected latency (0.2–2 ms).
    pub delay: u16,
}

impl FaultProfile {
    /// The write-fault mix the chaos harness runs: every write-side
    /// failure class is live, reads stay clean so the acked-prefix
    /// invariant is exact (a bit-flip inside acked data is unrecoverable
    /// by design — CRCs detect it, only replicas could repair it).
    pub fn chaos() -> Self {
        FaultProfile {
            fail: 48,
            disk_full: 16,
            short_write: 48,
            bit_flip: 0,
            delay: 24,
        }
    }

    /// A silent profile: the plane is wired through but never fires
    /// (baseline runs, latency-overhead measurements).
    pub fn quiet() -> Self {
        FaultProfile {
            fail: 0,
            disk_full: 0,
            short_write: 0,
            bit_flip: 0,
            delay: 0,
        }
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::chaos()
    }
}

/// xorshift64* — the same tiny seeded generator the retry jitter uses.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A seeded fault injector. Thread it into a [`CorpusStore`] (via
/// [`CorpusStore::set_fault_plane`]) or [`crate::io::write_atomic_with`]
/// and every consulted I/O site draws its fate from one deterministic
/// stream: same seed, same profile, same consultation order → the same
/// faults, every run.
#[derive(Debug)]
pub struct FaultPlane {
    profile: FaultProfile,
    state: Mutex<u64>,
    injected: AtomicU64,
}

impl FaultPlane {
    /// A plane with the default [`FaultProfile::chaos`] mix.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlane::with_profile(seed, FaultProfile::chaos())
    }

    /// A plane with an explicit fault mix.
    pub fn with_profile(seed: u64, profile: FaultProfile) -> Self {
        FaultPlane {
            profile,
            state: Mutex::new(seed | 1), // xorshift state must be nonzero
            injected: AtomicU64::new(0),
        }
    }

    /// Draw the fate of the next `op`. Deterministic given the plane's
    /// seed and the sequence of consultations so far.
    pub fn next(&self, op: IoOp) -> FaultAction {
        let (roll, param) = {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (xorshift(&mut state), xorshift(&mut state))
        };
        let p = &self.profile;
        let classes: &[(u16, FaultAction)] = match op {
            IoOp::WalWrite | IoOp::AtomicWrite => &[
                (p.fail, FaultAction::Fail),
                (p.disk_full, FaultAction::DiskFull),
                (
                    p.short_write,
                    FaultAction::ShortWrite((param % 1000) as u32),
                ),
                (p.delay, FaultAction::Delay(delay_of(param))),
            ],
            IoOp::WalFsync => &[
                (p.fail, FaultAction::Fail),
                (p.disk_full, FaultAction::DiskFull),
                (p.delay, FaultAction::Delay(delay_of(param))),
            ],
            IoOp::WalTruncate | IoOp::Rename => &[
                (p.fail, FaultAction::Fail),
                (p.delay, FaultAction::Delay(delay_of(param))),
            ],
            IoOp::WalRead => &[
                (p.fail, FaultAction::Fail),
                (p.bit_flip, FaultAction::BitFlip(param)),
                (p.delay, FaultAction::Delay(delay_of(param))),
            ],
        };
        let roll = (roll % 1024) as u16;
        let mut cumulative = 0u16;
        for &(weight, action) in classes {
            cumulative = cumulative.saturating_add(weight);
            if roll < cumulative {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return action;
            }
        }
        FaultAction::Pass
    }

    /// Faults injected so far (every non-`Pass` draw).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

fn delay_of(param: u64) -> Duration {
    Duration::from_micros(200 + param % 1800)
}

/// The error an injected [`FaultAction::Fail`] surfaces as.
pub fn injected_error() -> io::Error {
    io::Error::other("injected i/o fault")
}

/// The error an injected [`FaultAction::DiskFull`] surfaces as: a real
/// `ENOSPC`, so classification ([`crate::io::is_disk_fatal`]) sees
/// exactly what a full disk would produce.
pub fn disk_full_error() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

// ---------------------------------------------------------------------
// Chaos schedule harness
// ---------------------------------------------------------------------

/// What one chaos schedule did (for aggregate reporting).
#[derive(Debug, Default, Clone, Copy)]
pub struct ScheduleOutcome {
    /// Events acknowledged (append returned `Ok`).
    pub acked: u64,
    /// Append batches that failed under injection.
    pub failed_appends: u64,
    /// Simulated crash + recover + reopen cycles.
    pub crashes: u64,
    /// Snapshot attempts (successful or injected-failed).
    pub snapshots: u64,
    /// Faults the plane injected over the schedule.
    pub faults_injected: u64,
}

/// Build one synthetic mutation event against `d` (mostly adds, with
/// occasional edits and deletes of listed reviews).
fn chaos_event(d: &Dataset, seq: u64, rng: &mut u64) -> ReviewEvent {
    let product = (xorshift(rng) % d.products.len().max(1) as u64) as u32;
    let listed = &d.products[product as usize].reviews;
    let kind_roll = xorshift(rng) % 10;
    let (kind, review) = if kind_roll >= 8 && !listed.is_empty() {
        let r = listed[(xorshift(rng) % listed.len() as u64) as usize];
        if kind_roll == 9 && listed.len() > 1 {
            (EventKind::Delete, r)
        } else {
            (EventKind::Edit, r)
        }
    } else {
        (EventKind::Add, ReviewId(d.reviews.len() as u32))
    };
    let aspect = (xorshift(rng) % d.aspects.len().max(1) as u64) as u32;
    ReviewEvent {
        seq,
        kind,
        product: ProductId(product),
        review,
        reviewer: d.num_reviewers,
        rating: 1 + (xorshift(rng) % 5) as u8,
        text: format!("chaos {seq}"),
        mentions: match kind {
            EventKind::Delete => vec![],
            _ => vec![AspectMention {
                aspect: AspectId(aspect),
                polarity: Polarity::Positive,
            }],
        },
    }
}

/// Recover `dir` fault-free and check the standing invariant against
/// the harness's own bookkeeping: everything acknowledged is present,
/// anything extra is a clean prefix of what was submitted, and the
/// recovered dataset is byte-identical to replaying that prefix.
fn verify_recovery(
    dir: &Path,
    seed_dataset: &Dataset,
    history: &[ReviewEvent],
    acked_last_seq: u64,
) -> Result<(Dataset, u64), String> {
    let rec = recover(dir, None).map_err(|e| format!("recovery failed: {e}"))?;
    if rec.last_seq < acked_last_seq {
        return Err(format!(
            "acked prefix lost: recovered last seq {} < acked last seq {acked_last_seq}",
            rec.last_seq
        ));
    }
    let submitted_last = history.last().map_or(0, |ev| ev.seq);
    if rec.last_seq > submitted_last {
        return Err(format!(
            "recovery invented records: last seq {} > submitted last seq {submitted_last}",
            rec.last_seq
        ));
    }
    let mut reference = seed_dataset.clone();
    for ev in history.iter().take_while(|ev| ev.seq <= rec.last_seq) {
        reference
            .apply_event(ev)
            .map_err(|e| format!("reference replay of seq {}: {e}", ev.seq))?;
    }
    let got = serde_json::to_string(&rec.dataset).map_err(|e| e.to_string())?;
    let want = serde_json::to_string(&reference).map_err(|e| e.to_string())?;
    if got != want {
        return Err(format!(
            "recovered dataset diverges from the acked prefix at seq {} \
             ({} vs {} bytes)",
            rec.last_seq,
            got.len(),
            want.len()
        ));
    }
    Ok((rec.dataset, rec.last_seq))
}

/// Run one seeded chaos schedule in `dir` (wiped first): a clean store
/// seeded from `seed_dataset`, then a deterministic mix of append
/// batches, snapshots, and simulated crashes (drop the store, optionally
/// smear a torn tail, recover fault-free, verify, reopen) — all under a
/// [`FaultPlane`] with the given profile.
///
/// # Errors
/// A human-readable invariant violation: the acknowledged prefix did not
/// recover byte-identical, or recovery surfaced records that were never
/// submitted. Setup failures (the initial fault-free open) also error.
pub fn run_fault_schedule(
    dir: &Path,
    seed_dataset: &Dataset,
    seed: u64,
    profile: &FaultProfile,
) -> Result<ScheduleOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    let plane = Arc::new(FaultPlane::with_profile(seed, *profile));
    let (store, rec) = CorpusStore::open(dir, Some(seed_dataset), 0, None)
        .map_err(|e| format!("clean open: {e}"))?;
    let mut store = Some(store);
    if let Some(s) = store.as_mut() {
        s.set_fault_plane(Some(Arc::clone(&plane)));
    }

    let seed_dataset = rec.dataset.clone();
    let mut live = rec.dataset;
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = ScheduleOutcome::default();
    // Every event that may be durable, in seq order (history[i].seq == i+1):
    // acked batches, plus failed batches whose rollback could not run.
    let mut history: Vec<ReviewEvent> = Vec::new();
    let mut acked_last_seq = 0u64;

    let steps = 10 + xorshift(&mut rng) % 6;
    for _ in 0..steps {
        let s = store.as_mut().ok_or_else(|| "store lost".to_string())?;
        let roll = xorshift(&mut rng) % 100;
        let mut crash = false;
        if roll < 65 {
            // Append a small batch.
            let n = 1 + xorshift(&mut rng) % 3;
            let mut staged = live.clone();
            let mut batch = Vec::new();
            for k in 0..n {
                let ev = chaos_event(&staged, s.next_seq() + k, &mut rng);
                staged
                    .apply_event(&ev)
                    .map_err(|e| format!("staging seq {}: {e}", ev.seq))?;
                batch.push(ev);
            }
            match s.append(&batch) {
                Ok(()) => {
                    acked_last_seq = batch.last().map_or(acked_last_seq, |ev| ev.seq);
                    out.acked += n;
                    history.extend(batch);
                    live = staged;
                }
                Err(_) => {
                    out.failed_appends += 1;
                    if s.poisoned().is_some() {
                        // Rollback could not run: the failed batch may be
                        // partially durable. Treat it as submitted and crash.
                        history.extend(batch);
                        crash = true;
                    }
                }
            }
        } else if roll < 80 {
            out.snapshots += 1;
            if s.snapshot(&live).is_err() && s.poisoned().is_some() {
                crash = true;
            }
        } else {
            crash = true;
        }

        if crash {
            drop(store.take());
            out.crashes += 1;
            if xorshift(&mut rng).is_multiple_of(2) {
                // A crash mid-write leaves a torn tail; recovery must
                // truncate it without touching the acked prefix.
                let garbage_len = 1 + (xorshift(&mut rng) % 7) as usize;
                let mut garbage = vec![0u8; garbage_len];
                for b in &mut garbage {
                    *b = (xorshift(&mut rng) % 256) as u8;
                }
                use std::io::Write as _;
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .append(true)
                    .open(dir.join(crate::wal::WAL_FILE))
                {
                    let _ = f.write_all(&garbage);
                }
            }
            let (_, recovered_seq) = verify_recovery(dir, &seed_dataset, &history, acked_last_seq)?;
            // Seqs past the recovered tip are gone from disk and will be
            // reused; forget their maybe-durable entries. History seqs
            // are contiguous from 1, so the surviving prefix length is
            // the recovered seq itself.
            history.truncate(recovered_seq as usize);
            acked_last_seq = recovered_seq;
            let (mut reopened, rec) = CorpusStore::open(dir, None, 0, None)
                .map_err(|e| format!("reopen after crash: {e}"))?;
            live = rec.dataset;
            reopened.set_fault_plane(Some(Arc::clone(&plane)));
            store = Some(reopened);
        }
    }

    drop(store.take());
    verify_recovery(dir, &seed_dataset, &history, acked_last_seq)?;
    out.faults_injected = plane.injected();
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::synth::CategoryPreset;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlane::from_seed(7);
        let b = FaultPlane::from_seed(7);
        let ops = [
            IoOp::WalWrite,
            IoOp::WalFsync,
            IoOp::AtomicWrite,
            IoOp::Rename,
            IoOp::WalRead,
        ];
        for i in 0..200 {
            let op = ops[i % ops.len()];
            assert_eq!(a.next(op), b.next(op), "draw {i}");
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn quiet_profile_never_fires() {
        let plane = FaultPlane::with_profile(3, FaultProfile::quiet());
        for _ in 0..500 {
            assert_eq!(plane.next(IoOp::WalWrite), FaultAction::Pass);
        }
        assert_eq!(plane.injected(), 0);
    }

    #[test]
    fn chaos_profile_injects_every_write_class() {
        let plane = FaultPlane::from_seed(0xC4A05);
        let mut seen_fail = false;
        let mut seen_full = false;
        let mut seen_short = false;
        for _ in 0..4000 {
            match plane.next(IoOp::WalWrite) {
                FaultAction::Fail => seen_fail = true,
                FaultAction::DiskFull => seen_full = true,
                FaultAction::ShortWrite(_) => seen_short = true,
                _ => {}
            }
        }
        assert!(seen_fail && seen_full && seen_short);
        assert!(plane.injected() > 0);
    }

    #[test]
    fn disk_full_error_classifies_as_fatal() {
        assert!(crate::io::is_disk_fatal(&disk_full_error()));
        assert!(!crate::io::is_disk_fatal(&injected_error()));
    }

    #[test]
    fn fault_schedules_hold_the_invariant() {
        let seed_ds = CategoryPreset::Toy.config(6, 5).generate();
        let tmp = crate::io::TempDir::new("fault_sched").unwrap();
        let dir = tmp.join("store");
        for seed in 0..25u64 {
            let out = run_fault_schedule(&dir, &seed_ds, seed, &FaultProfile::chaos())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(out.acked > 0 || out.failed_appends > 0, "seed {seed} idle");
        }
    }

    #[test]
    fn quiet_schedules_never_fail_appends() {
        let seed_ds = CategoryPreset::Toy.config(6, 5).generate();
        let tmp = crate::io::TempDir::new("fault_quiet").unwrap();
        let dir = tmp.join("store");
        for seed in 0..5u64 {
            let out = run_fault_schedule(&dir, &seed_ds, seed, &FaultProfile::quiet())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(out.failed_appends, 0, "seed {seed}");
            assert_eq!(out.faults_injected, 0, "seed {seed}");
        }
    }
}
