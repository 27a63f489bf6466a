//! Durable streaming corpus store: write-ahead log + snapshots.
//!
//! A corpus that mutates under a serving daemon needs two guarantees
//! (ARCHITECTURE.md §11): an acknowledged review event survives a crash,
//! and recovery reconstructs *exactly* the acknowledged prefix — no
//! more, no less. This module provides both with the classic WAL +
//! snapshot pair:
//!
//! * **WAL** (`wal.log`) — an append-only log of [`ReviewEvent`]s. Each
//!   record is length-prefixed and carries a CRC32 of its payload:
//!
//!   ```text
//!   +--------------+---------------+------------------------+
//!   | len: u32 LE  | crc32: u32 LE | payload: len JSON bytes|
//!   +--------------+---------------+------------------------+
//!   ```
//!
//!   Appends are batched: one `fsync` per acknowledged batch, however
//!   many records it carries (*fsync-on-ack*). Recovery scans from the
//!   front and stops at the first record that is short, oversized, fails
//!   its CRC, or does not decode — a *torn tail* from a crash mid-write —
//!   and truncates the file there instead of failing. Everything before
//!   the tear was acknowledged and is kept; everything after was never
//!   acknowledged (the fsync that would have acked it never returned).
//!
//! * **Snapshots** (`snapshot.json`) — the full dataset under a
//!   `corpus-snapshot/v1` header (the style of the eval suite's
//!   `suite-checkpoint/v1`), written atomically via
//!   [`write_atomic`](crate::io::write_atomic). Snapshots are retained
//!   two generations deep (`snapshot.json` + `snapshot.prev.json`): a
//!   torn primary falls back one generation. Once a snapshot lands the
//!   WAL is *compacted* down to the records the fallback generation
//!   still needs. A crash between snapshot write and compaction is
//!   benign — replay skips records with `seq <= snapshot.seq`.
//!
//! [`CorpusStore`] ties the two together for the serving daemon;
//! [`recover`] is the read-only flavour behind `comparesets recover`.

use crate::fault::{disk_full_error, injected_error, FaultAction, FaultPlane, IoOp};
use crate::io::{is_disk_fatal, write_atomic_with};
use crate::model::{AspectMention, Dataset, ProductId, Review, ReviewId};
use comparesets_obs::SolverMetrics;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema tag embedded in every corpus snapshot.
pub const SNAPSHOT_SCHEMA: &str = "corpus-snapshot/v1";

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Previous-generation snapshot kept as a recovery fallback: when
/// [`SNAPSHOT_FILE`] is corrupt or truncated (a fault the chaos plane
/// injects and real disks deliver), recovery falls back to this file and
/// replays the longer WAL suffix it still covers.
pub const SNAPSHOT_PREV_FILE: &str = "snapshot.prev.json";

/// Hard cap on one WAL record's payload, in bytes (4 MiB — matches the
/// serve protocol's frame cap). A corrupt length prefix can therefore
/// never demand an unbounded allocation; recovery treats an oversized
/// length as a torn tail.
pub const MAX_RECORD_LEN: u32 = 4 * 1024 * 1024;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected — the ubiquitous zlib/ethernet polynomial)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum of `bytes` (IEEE polynomial, as in zlib/PNG/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// What a [`ReviewEvent`] does to its corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Append a brand-new review to a product.
    Add,
    /// Replace an existing review's rating, text, and mentions.
    Edit,
    /// Unlist a review from its product (the `Review` record stays in
    /// the dataset's review table as a tombstone, so review ids remain
    /// stable and replay stays deterministic).
    Delete,
}

/// One corpus mutation, as logged and replayed. Flat by design — the
/// vendored `serde` derives named-field structs and fieldless enums
/// only — so `Edit`/`Delete` simply leave the fields they do not use at
/// their defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReviewEvent {
    /// Strictly increasing per-store sequence number (1-based); the
    /// snapshot/compaction handshake keys on it.
    pub seq: u64,
    /// What to do.
    pub kind: EventKind,
    /// The product the event targets.
    pub product: ProductId,
    /// The review the event targets. For `Add` this is assigned at
    /// append time as `dataset.reviews.len()`, making replay reproduce
    /// identical ids.
    pub review: ReviewId,
    /// Reviewer index (`Add` only; assigned at append time).
    #[serde(default)]
    pub reviewer: u32,
    /// Star rating 1–5 (`Add`/`Edit`).
    #[serde(default)]
    pub rating: u8,
    /// Review body (`Add`/`Edit`).
    #[serde(default)]
    pub text: String,
    /// Aspect-opinion annotations (`Add`/`Edit`).
    #[serde(default)]
    pub mentions: Vec<AspectMention>,
}

impl Dataset {
    /// Check that `ev` can apply to this dataset *right now*. The serve
    /// path validates before the WAL append, so the log only ever holds
    /// applicable events and replay is infallible in practice.
    ///
    /// # Errors
    /// A human-readable reason the event does not apply.
    pub fn check_event(&self, ev: &ReviewEvent) -> Result<(), String> {
        let np = self.products.len() as u32;
        if ev.product.0 >= np {
            return Err(format!(
                "product {:?} out of range ({} products)",
                ev.product, np
            ));
        }
        match ev.kind {
            EventKind::Add => {
                if ev.review.0 as usize != self.reviews.len() {
                    return Err(format!(
                        "add must assign the next review id {} (got {:?})",
                        self.reviews.len(),
                        ev.review
                    ));
                }
                self.check_annotations(ev)
            }
            EventKind::Edit => {
                self.check_listed(ev)?;
                self.check_annotations(ev)
            }
            EventKind::Delete => self.check_listed(ev),
        }
    }

    fn check_annotations(&self, ev: &ReviewEvent) -> Result<(), String> {
        if !(1..=5).contains(&ev.rating) {
            return Err(format!("rating {} outside 1..=5", ev.rating));
        }
        let z = self.aspects.len() as u32;
        for m in &ev.mentions {
            if m.aspect.0 >= z {
                return Err(format!("aspect {:?} out of range ({z} aspects)", m.aspect));
            }
        }
        Ok(())
    }

    fn check_listed(&self, ev: &ReviewEvent) -> Result<(), String> {
        if ev.review.0 as usize >= self.reviews.len() {
            return Err(format!(
                "review {:?} out of range ({} reviews)",
                ev.review,
                self.reviews.len()
            ));
        }
        if self.reviews[ev.review.0 as usize].product != ev.product {
            return Err(format!(
                "review {:?} belongs to {:?}, not {:?}",
                ev.review, self.reviews[ev.review.0 as usize].product, ev.product
            ));
        }
        if !self.products[ev.product.0 as usize]
            .reviews
            .contains(&ev.review)
        {
            return Err(format!(
                "review {:?} already deleted from product {:?}",
                ev.review, ev.product
            ));
        }
        Ok(())
    }

    /// Apply one event ([`check_event`](Dataset::check_event) first).
    /// Deletes are tombstones: the review id disappears from the
    /// product's listing but the `Review` record stays in the table, so
    /// every other id — and therefore replay — is unaffected.
    ///
    /// # Errors
    /// As for [`check_event`](Dataset::check_event); on error the
    /// dataset is unchanged.
    pub fn apply_event(&mut self, ev: &ReviewEvent) -> Result<(), String> {
        self.check_event(ev)?;
        match ev.kind {
            EventKind::Add => {
                self.reviews.push(Review {
                    id: ev.review,
                    product: ev.product,
                    reviewer: ev.reviewer,
                    rating: ev.rating,
                    text: ev.text.clone(),
                    mentions: ev.mentions.clone(),
                });
                self.products[ev.product.0 as usize].reviews.push(ev.review);
                self.num_reviewers = self.num_reviewers.max(ev.reviewer + 1);
            }
            EventKind::Edit => {
                let r = &mut self.reviews[ev.review.0 as usize];
                r.rating = ev.rating;
                r.text = ev.text.clone();
                r.mentions = ev.mentions.clone();
            }
            EventKind::Delete => {
                self.products[ev.product.0 as usize]
                    .reviews
                    .retain(|r| *r != ev.review);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Failures from the durable store. WAL *corruption* is deliberately
/// absent: a torn or corrupt tail truncates during recovery instead of
/// erroring (losing only never-acknowledged records).
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Fatal disk condition (`ENOSPC`/`EROFS`): retrying cannot help,
    /// the CLI surfaces it as its own exit code, and the serve protocol
    /// answers it with the `disk` error code.
    Disk(std::io::Error),
    /// The snapshot file exists but is unusable (bad schema tag,
    /// malformed JSON, or an inconsistent dataset).
    Corrupt(String),
    /// A replayed event did not apply — the log and snapshot disagree
    /// (e.g. hand-edited files).
    Apply(String),
    /// Recovery was asked of a directory with no snapshot and no seed
    /// corpus to start from.
    NothingToRecover(PathBuf),
    /// A failed append could not be rolled back to a clean record
    /// boundary, so the store refuses further writes: continuing could
    /// log duplicate sequence numbers. Reopen (and recover) to resume.
    Poisoned(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "store io error: {e}"),
            WalError::Disk(e) => write!(f, "disk fatal: {e} (not retried)"),
            WalError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            WalError::Apply(why) => write!(f, "replayed event does not apply: {why}"),
            WalError::NothingToRecover(dir) => {
                write!(f, "no snapshot in {} and no seed corpus", dir.display())
            }
            WalError::Poisoned(why) => {
                write!(f, "store poisoned (reopen to recover): {why}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        if is_disk_fatal(&e) {
            WalError::Disk(e)
        } else {
            WalError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------

/// Frame one event as a WAL record.
fn encode_record(ev: &ReviewEvent) -> Result<Vec<u8>, WalError> {
    let payload =
        serde_json::to_string(ev).map_err(|e| WalError::Corrupt(format!("encoding event: {e}")))?;
    let payload = payload.as_bytes();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_RECORD_LEN)
        .ok_or_else(|| WalError::Corrupt(format!("event of {} bytes", payload.len())))?;
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    Ok(rec)
}

/// What scanning a WAL file yields.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every decodable record, in log order.
    pub events: Vec<ReviewEvent>,
    /// Byte length of the valid prefix (`events` live in `[0, valid_len)`).
    pub valid_len: u64,
    /// Bytes past the valid prefix — the torn tail a crash left behind.
    pub truncated_bytes: u64,
}

/// Scan a WAL file, stopping at the first record that is short,
/// oversized, CRC-mismatched, or undecodable. Never fails on content: a
/// torn tail is reported, not an error. A missing file scans as empty.
///
/// # Errors
/// Filesystem errors only.
pub fn scan_wal(path: &Path) -> Result<WalScan, WalError> {
    scan_wal_with(path, None)
}

/// [`scan_wal`] under an optional [`FaultPlane`]: the read itself can be
/// failed, delayed, or handed back with one bit flipped
/// ([`IoOp::WalRead`]). A flipped bit lands wherever the schedule says,
/// fails that record's CRC, and truncates the scan there — exactly what
/// a real media-corrupted read would do.
///
/// # Errors
/// Filesystem errors and injected read failures.
pub fn scan_wal_with(path: &Path, plane: Option<&FaultPlane>) -> Result<WalScan, WalError> {
    let mut buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(WalError::Io(e)),
    };
    if let Some(p) = plane {
        match p.next(IoOp::WalRead) {
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Fail => return Err(injected_error().into()),
            FaultAction::BitFlip(at) if !buf.is_empty() => {
                let idx = (at % buf.len() as u64) as usize;
                buf[idx] ^= 1 << (at % 8);
            }
            _ => {}
        }
    }
    let mut events = Vec::new();
    let mut off = 0usize;
    while buf.len() - off >= 8 {
        let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
        if len > MAX_RECORD_LEN {
            break;
        }
        let crc = u32::from_le_bytes([buf[off + 4], buf[off + 5], buf[off + 6], buf[off + 7]]);
        let Some(end) = (off + 8)
            .checked_add(len as usize)
            .filter(|e| *e <= buf.len())
        else {
            break;
        };
        let payload = &buf[off + 8..end];
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(ev) = serde_json::from_str::<ReviewEvent>(text) else {
            break;
        };
        events.push(ev);
        off = end;
    }
    Ok(WalScan {
        events,
        valid_len: off as u64,
        truncated_bytes: (buf.len() - off) as u64,
    })
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A corpus snapshot on disk: the full dataset plus the sequence number
/// it covers, under the [`SNAPSHOT_SCHEMA`] tag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusSnapshot {
    /// Always [`SNAPSHOT_SCHEMA`]; checked on load.
    pub schema: String,
    /// Every event with `seq <=` this is folded into `dataset`.
    pub seq: u64,
    /// The folded corpus.
    pub dataset: Dataset,
}

fn load_snapshot(path: &Path) -> Result<CorpusSnapshot, WalError> {
    check_snapshot(path, &std::fs::read(path)?)
}

/// Decode and validate the snapshot `bytes` read from `path` (which only
/// names the file in errors). Bytes that are not UTF-8, do not decode,
/// carry another schema tag, or hold an invalid dataset are
/// [`WalError::Corrupt`].
fn check_snapshot(path: &Path, bytes: &[u8]) -> Result<CorpusSnapshot, WalError> {
    let json = std::str::from_utf8(bytes)
        .map_err(|e| WalError::Corrupt(format!("{}: {e}", path.display())))?;
    let snap: CorpusSnapshot = serde_json::from_str(json)
        .map_err(|e| WalError::Corrupt(format!("{}: {e}", path.display())))?;
    if snap.schema != SNAPSHOT_SCHEMA {
        return Err(WalError::Corrupt(format!(
            "{}: schema {:?}, expected {SNAPSHOT_SCHEMA:?}",
            path.display(),
            snap.schema
        )));
    }
    let problems = snap.dataset.validate();
    if let Some(first) = problems.first() {
        return Err(WalError::Corrupt(format!(
            "{}: invalid dataset ({} problems, first: {first})",
            path.display(),
            problems.len()
        )));
    }
    Ok(snap)
}

// ---------------------------------------------------------------------
// Recovery + store
// ---------------------------------------------------------------------

/// What recovery reconstructed and how.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The corpus after snapshot + WAL tail.
    pub dataset: Dataset,
    /// Sequence number the snapshot covered (0 = seeded fresh).
    pub snapshot_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Torn-tail bytes dropped from the end of the WAL.
    pub truncated_bytes: u64,
    /// Highest sequence number in the recovered state.
    pub last_seq: u64,
    /// Byte length of the WAL's valid prefix at scan time (what a
    /// reopening store truncates the file to).
    pub wal_valid_len: u64,
    /// Human-readable descriptions of every fault recovery absorbed —
    /// a torn WAL tail, an unusable primary snapshot — so `comparesets
    /// recover` can name each one instead of silently healing.
    pub faults: Vec<String>,
    /// Recovery could not use [`SNAPSHOT_FILE`] and fell back to
    /// [`SNAPSHOT_PREV_FILE`]; the reopening store re-seals a fresh
    /// primary immediately.
    pub snapshot_fallback: bool,
}

/// Read-only recovery: fold the snapshot and the WAL tail into a
/// dataset without touching either file. Behind `comparesets recover`.
///
/// When the primary snapshot is corrupt or truncated, recovery falls
/// back to the previous-generation snapshot ([`SNAPSHOT_PREV_FILE`]) —
/// compaction keeps every WAL record the fallback still needs — and
/// records both faults in [`Recovery::faults`].
///
/// # Errors
/// [`WalError::NothingToRecover`] when the directory has no snapshot;
/// [`WalError::Corrupt`] when every snapshot generation is unusable;
/// filesystem failures as usual.
pub fn recover(dir: &Path, metrics: Option<&SolverMetrics>) -> Result<Recovery, WalError> {
    recover_with(dir, metrics, None)
}

/// [`recover`] under an optional [`FaultPlane`] (read faults on the WAL
/// scan).
///
/// # Errors
/// As for [`recover`], plus injected read failures.
pub fn recover_with(
    dir: &Path,
    metrics: Option<&SolverMetrics>,
    plane: Option<&FaultPlane>,
) -> Result<Recovery, WalError> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let prev_path = dir.join(SNAPSHOT_PREV_FILE);
    let mut faults: Vec<String> = Vec::new();
    let primary = if snap_path.exists() {
        match load_snapshot(&snap_path) {
            Ok(snap) => Some(snap),
            Err(WalError::Corrupt(why)) => {
                faults.push(format!("primary snapshot unusable: {why}"));
                None
            }
            Err(e) => return Err(e),
        }
    } else if prev_path.exists() {
        faults.push(format!(
            "primary snapshot missing: {} does not exist",
            snap_path.display()
        ));
        None
    } else {
        return Err(WalError::NothingToRecover(dir.to_path_buf()));
    };
    let snapshot_fallback = primary.is_none();
    let snap = match primary {
        Some(snap) => snap,
        None => match load_snapshot(&prev_path) {
            Ok(snap) => {
                faults.push(format!(
                    "fell back to previous snapshot {} (seq {})",
                    prev_path.display(),
                    snap.seq
                ));
                snap
            }
            Err(WalError::Corrupt(why)) => {
                return Err(WalError::Corrupt(format!(
                    "{}; previous snapshot also unusable: {why}",
                    faults.join("; ")
                )))
            }
            Err(e) if !prev_path.exists() => {
                let _ = e;
                return Err(WalError::Corrupt(format!(
                    "{}; and no previous snapshot to fall back to",
                    faults.join("; ")
                )));
            }
            Err(e) => return Err(e),
        },
    };
    let scan = scan_wal_with(&dir.join(WAL_FILE), plane)?;
    if scan.truncated_bytes > 0 {
        faults.push(format!(
            "wal tail torn: dropped {} byte(s) past the last whole record",
            scan.truncated_bytes
        ));
    }
    let mut dataset = snap.dataset;
    let mut last_seq = snap.seq;
    let mut replayed = 0u64;
    for ev in &scan.events {
        if ev.seq <= snap.seq {
            continue; // already folded into the snapshot
        }
        dataset.apply_event(ev).map_err(WalError::Apply)?;
        last_seq = ev.seq;
        replayed += 1;
    }
    if let Some(m) = metrics {
        SolverMetrics::add(&m.recovery_replayed_records, replayed);
    }
    Ok(Recovery {
        dataset,
        snapshot_seq: snap.seq,
        replayed,
        truncated_bytes: scan.truncated_bytes,
        last_seq,
        wal_valid_len: scan.valid_len,
        faults,
        snapshot_fallback,
    })
}

/// The durable side of one corpus shard: an open WAL append handle plus
/// the snapshot/compaction bookkeeping. The in-memory dataset lives with
/// the caller (the serving shard); the store only guarantees that what
/// was acknowledged can be rebuilt.
pub struct CorpusStore {
    dir: PathBuf,
    wal: File,
    next_seq: u64,
    records_since_snapshot: u64,
    /// Seq the current primary snapshot covers. At the next snapshot
    /// the primary is demoted to the previous generation, so this value
    /// becomes the compaction bound: every record past it is kept.
    last_snapshot_seq: u64,
    snapshot_every: u64,
    metrics: Option<Arc<SolverMetrics>>,
    plane: Option<Arc<FaultPlane>>,
    poisoned: Option<String>,
}

impl CorpusStore {
    /// Open (or create) the store in `dir` and recover its corpus.
    ///
    /// Existing durable state wins: when `dir` holds a snapshot, `seed`
    /// is ignored and the corpus is snapshot + WAL tail (with any torn
    /// tail truncated so new appends start at a clean record boundary).
    /// Otherwise `seed` becomes the initial corpus and is written as the
    /// first snapshot immediately — from then on the directory is
    /// self-contained.
    ///
    /// `snapshot_every` auto-snapshots (and compacts) after that many
    /// appended records; 0 disables automatic snapshots.
    ///
    /// # Errors
    /// [`WalError::NothingToRecover`] when `dir` has no snapshot and no
    /// `seed` was given; snapshot corruption and filesystem failures.
    pub fn open(
        dir: &Path,
        seed: Option<&Dataset>,
        snapshot_every: u64,
        metrics: Option<Arc<SolverMetrics>>,
    ) -> Result<(CorpusStore, Recovery), WalError> {
        CorpusStore::open_with_plane(dir, seed, snapshot_every, metrics, None)
    }

    /// [`open`](CorpusStore::open) with a [`FaultPlane`] threaded
    /// through every subsequent durability-critical I/O (appends,
    /// fsyncs, snapshot writes, compaction) *and* through the recovery
    /// scan itself. Production paths pass `None` and pay nothing.
    ///
    /// # Errors
    /// As for [`open`](CorpusStore::open), plus injected faults.
    pub fn open_with_plane(
        dir: &Path,
        seed: Option<&Dataset>,
        snapshot_every: u64,
        metrics: Option<Arc<SolverMetrics>>,
        plane: Option<Arc<FaultPlane>>,
    ) -> Result<(CorpusStore, Recovery), WalError> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        let fresh = !snap_path.exists() && !dir.join(SNAPSHOT_PREV_FILE).exists();
        let recovery = if fresh {
            let seed = seed.ok_or_else(|| WalError::NothingToRecover(dir.to_path_buf()))?;
            Recovery {
                dataset: seed.clone(),
                snapshot_seq: 0,
                replayed: 0,
                truncated_bytes: 0,
                last_seq: 0,
                wal_valid_len: 0,
                faults: Vec::new(),
                snapshot_fallback: false,
            }
        } else {
            recover_with(dir, metrics.as_deref(), plane.as_deref())?
        };
        if recovery.truncated_bytes > 0 {
            // Drop the torn tail so the next append starts a clean record.
            let f = OpenOptions::new().write(true).open(&wal_path)?;
            f.set_len(recovery.wal_valid_len)?;
            f.sync_all()?;
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        let mut store = CorpusStore {
            dir: dir.to_path_buf(),
            wal,
            next_seq: recovery.last_seq + 1,
            records_since_snapshot: recovery.replayed,
            last_snapshot_seq: recovery.snapshot_seq,
            snapshot_every,
            metrics,
            plane,
            poisoned: None,
        };
        if fresh || recovery.snapshot_fallback {
            // Seal the seed so recovery never needs it again — or, after
            // a fallback, re-seal a healthy primary snapshot immediately.
            store.snapshot(&recovery.dataset)?;
        }
        Ok((store, recovery))
    }

    /// The sequence number the next appended event must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Install (or remove) a fault-injection plane on a live store.
    /// The chaos harness opens cleanly, then arms the plane, so setup
    /// I/O never consumes schedule draws.
    pub fn set_fault_plane(&mut self, plane: Option<Arc<FaultPlane>>) {
        self.plane = plane;
    }

    /// Why the store refuses writes, if a failed append could not be
    /// rolled back (see [`WalError::Poisoned`]).
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Records appended since the last snapshot — the WAL lag the serve
    /// `health` op reports (how much replay a crash right now would cost).
    pub fn wal_lag(&self) -> u64 {
        self.records_since_snapshot
    }

    /// Force an fsync of the WAL file (drain calls this before the
    /// final snapshot; appends already fsync per acknowledged batch, so
    /// this is belt-and-braces for the shutdown path).
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync_data()?;
        Ok(())
    }

    /// Append a batch of events durably: every record is written, then
    /// **one** `fsync` covers the batch (fsync-on-ack). Only after this
    /// returns `Ok` may the caller acknowledge the batch.
    ///
    /// Events must carry consecutive sequence numbers starting at
    /// [`next_seq`](CorpusStore::next_seq) — the caller stamps them while
    /// holding its shard lock, which is what makes the log total-ordered.
    ///
    /// # Errors
    /// Encoding and filesystem failures; on error nothing was
    /// acknowledged and the next recovery truncates any partial write.
    pub fn append(&mut self, events: &[ReviewEvent]) -> Result<(), WalError> {
        if let Some(why) = &self.poisoned {
            return Err(WalError::Poisoned(why.clone()));
        }
        let mut buf = Vec::new();
        for (k, ev) in events.iter().enumerate() {
            debug_assert_eq!(ev.seq, self.next_seq + k as u64, "non-sequential WAL batch");
            buf.extend_from_slice(&encode_record(ev)?);
        }
        let start = self.wal.metadata()?.len();
        if let Err(e) = self.write_and_sync(&buf) {
            // Roll the log back to the pre-append boundary so the failed
            // batch's sequence numbers can be reused without ever leaving
            // two records with the same seq on disk. If even that fails,
            // poison the store: only a reopen (which truncates the torn
            // region through recovery) can make writes safe again.
            if let Err(rb) = self.rollback_to(start) {
                self.poisoned = Some(format!("append failed ({e}); rollback failed ({rb})"));
            }
            return Err(e);
        }
        self.next_seq += events.len() as u64;
        self.records_since_snapshot += events.len() as u64;
        if let Some(m) = &self.metrics {
            SolverMetrics::add(&m.wal_appends, events.len() as u64);
            SolverMetrics::incr(&m.wal_fsyncs);
        }
        Ok(())
    }

    /// Draw the plane's verdict for `op` (Pass when no plane is armed),
    /// counting injections into the metrics collector.
    fn consult(&self, op: IoOp) -> FaultAction {
        let Some(p) = &self.plane else {
            return FaultAction::Pass;
        };
        let action = p.next(op);
        if action != FaultAction::Pass {
            if let Some(m) = &self.metrics {
                SolverMetrics::incr(&m.faults_injected);
            }
        }
        action
    }

    /// The faultable write+fsync at the heart of `append`.
    fn write_and_sync(&mut self, buf: &[u8]) -> Result<(), WalError> {
        let mut keep = buf.len();
        let mut verdict: Result<(), WalError> = Ok(());
        match self.consult(IoOp::WalWrite) {
            FaultAction::Pass | FaultAction::BitFlip(_) => {}
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Fail => return Err(injected_error().into()),
            FaultAction::DiskFull => return Err(disk_full_error().into()),
            FaultAction::ShortWrite(per_mille) => {
                // A torn write: a prefix lands on disk, then the device
                // gives out mid-record.
                keep = buf.len() * per_mille as usize / 1000;
                verdict = Err(injected_error().into());
            }
        }
        self.wal.write_all(&buf[..keep])?;
        verdict?;
        match self.consult(IoOp::WalFsync) {
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Fail => return Err(injected_error().into()),
            FaultAction::DiskFull => return Err(disk_full_error().into()),
            _ => {}
        }
        self.wal.sync_data()?;
        Ok(())
    }

    /// Truncate the WAL back to `len` and fsync, consulting the plane
    /// (a rollback can itself fail on a dying disk).
    fn rollback_to(&mut self, len: u64) -> Result<(), WalError> {
        match self.consult(IoOp::WalTruncate) {
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Fail => return Err(injected_error().into()),
            FaultAction::DiskFull => return Err(disk_full_error().into()),
            _ => {}
        }
        self.wal.set_len(len)?;
        self.wal.sync_data()?;
        Ok(())
    }

    /// Write a snapshot of `dataset` (which must reflect every appended
    /// event) and compact the WAL it covers. Called automatically every
    /// `snapshot_every` records via
    /// [`maybe_snapshot`](CorpusStore::maybe_snapshot).
    ///
    /// Snapshots are kept two generations deep: the outgoing primary is
    /// demoted to [`SNAPSHOT_PREV_FILE`] first, and compaction keeps
    /// every WAL record past the demoted generation's sequence number —
    /// so if the *new* primary is later found torn, recovery falls back
    /// one generation and replays the suffix it still needs.
    ///
    /// # Errors
    /// Encoding and filesystem failures. A crash (or injected fault)
    /// between any two steps is safe: each file moves atomically, replay
    /// skips covered records, and a failed compaction merely leaves
    /// redundant records for the next snapshot to collect.
    pub fn snapshot(&mut self, dataset: &Dataset) -> Result<(), WalError> {
        if let Some(why) = &self.poisoned {
            return Err(WalError::Poisoned(why.clone()));
        }
        let plane = self.plane.clone();
        let plane = plane.as_deref();
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        // Demote a *valid* primary to the previous generation: the very
        // bytes just checked, read once. When the primary does not load
        // (we are re-sealing after a fallback) the existing prev file is
        // the only good generation — keep it.
        if let Ok(bytes) = std::fs::read(&snap_path) {
            if check_snapshot(&snap_path, &bytes).is_ok() {
                write_atomic_with(&self.dir.join(SNAPSHOT_PREV_FILE), &bytes, plane)?;
            }
        }
        let snap = CorpusSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            seq: self.next_seq - 1,
            dataset: dataset.clone(),
        };
        let json = serde_json::to_string(&snap)
            .map_err(|e| WalError::Corrupt(format!("encoding snapshot: {e}")))?;
        write_atomic_with(&snap_path, json.as_bytes(), plane)?;
        if let Some(m) = &self.metrics {
            SolverMetrics::incr(&m.snapshot_writes);
        }
        // The previous generation now covers what the primary covered
        // before this call; compaction must keep every record past it.
        let keep_after = self.last_snapshot_seq;
        self.last_snapshot_seq = snap.seq;
        // Compact: rewrite the WAL with only the records the fallback
        // generation still needs (atomically, via rename). The scan runs
        // fault-free on purpose — compaction rewrites *acknowledged*
        // data, and injecting a read fault here would turn a simulated
        // glitch into real record loss; the plane governs the writes.
        let scan = scan_wal(&self.dir.join(WAL_FILE))?;
        let mut buf = Vec::new();
        for ev in scan.events.iter().filter(|ev| ev.seq > keep_after) {
            buf.extend_from_slice(&encode_record(ev)?);
        }
        write_atomic_with(&self.dir.join(WAL_FILE), &buf, plane)?;
        // The append handle still points at the renamed-over inode;
        // reopen it on the new file. If that fails the store must refuse
        // writes — appending to the unlinked file would lose them.
        match OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(WAL_FILE))
        {
            Ok(f) => self.wal = f,
            Err(e) => {
                self.poisoned = Some(format!("wal reopen after compaction failed: {e}"));
                return Err(e.into());
            }
        }
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Snapshot + compact if `snapshot_every` records accumulated since
    /// the last snapshot. Returns whether a snapshot was written.
    ///
    /// # Errors
    /// As for [`snapshot`](CorpusStore::snapshot).
    pub fn maybe_snapshot(&mut self, dataset: &Dataset) -> Result<bool, WalError> {
        if self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every {
            self.snapshot(dataset)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::io::TempDir;
    use crate::model::AspectId;
    use crate::synth::CategoryPreset;
    use crate::Polarity;

    fn base() -> Dataset {
        CategoryPreset::Toy.config(12, 5).generate()
    }

    fn add_event(d: &Dataset, seq: u64, product: u32, aspect: u32) -> ReviewEvent {
        ReviewEvent {
            seq,
            kind: EventKind::Add,
            product: ProductId(product),
            review: ReviewId(d.reviews.len() as u32),
            reviewer: d.num_reviewers,
            rating: 4,
            text: format!("streamed review {seq}"),
            mentions: vec![AspectMention {
                aspect: AspectId(aspect),
                polarity: Polarity::Positive,
            }],
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        TempDir::new(&format!("wal_{tag}")).unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn events_apply_and_validate() {
        let mut d = base();
        let ev = add_event(&d, 1, 0, 1);
        let before = d.reviews.len();
        d.apply_event(&ev).unwrap();
        assert_eq!(d.reviews.len(), before + 1);
        assert!(d.validate().is_empty());

        // Edit in place.
        let edit = ReviewEvent {
            kind: EventKind::Edit,
            rating: 2,
            text: "revised".into(),
            mentions: vec![],
            ..ev.clone()
        };
        d.apply_event(&edit).unwrap();
        assert_eq!(d.review(ev.review).rating, 2);
        assert!(d.validate().is_empty());

        // Delete tombstones: unlisted from the product, id table intact.
        let del = ReviewEvent {
            kind: EventKind::Delete,
            ..ev.clone()
        };
        d.apply_event(&del).unwrap();
        assert!(!d.reviews_of(ev.product).contains(&ev.review));
        assert_eq!(d.reviews.len(), before + 1);
        assert!(d.validate().is_empty());

        // Double delete is rejected; the dataset is unchanged.
        assert!(d.apply_event(&del).is_err());
        // Wrong add id is rejected.
        let mut bad = add_event(&d, 9, 0, 0);
        bad.review = ReviewId(0);
        assert!(d.check_event(&bad).is_err());
    }

    #[test]
    fn store_round_trips_through_reopen() {
        let dir = temp_dir("roundtrip");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        assert_eq!(rec.last_seq, 0);
        let mut live = rec.dataset;
        for k in 0..5 {
            let ev = add_event(&live, store.next_seq(), k % 3, k % 2);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
        }
        drop(store);

        // Reopen without the seed: durable state is self-contained.
        let (_store2, rec2) = CorpusStore::open(&dir, None, 0, None).unwrap();
        assert_eq!(rec2.replayed, 5);
        assert_eq!(rec2.last_seq, 5);
        assert_eq!(
            serde_json::to_string(&rec2.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn snapshot_compacts_the_wal_and_recovery_skips_covered_records() {
        let dir = temp_dir("compact");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 3, None).unwrap();
        let mut live = rec.dataset;
        for k in 0..7 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
            store.maybe_snapshot(&live).unwrap();
        }
        // 7 appends with snapshot_every=3: snapshots at 3 and 6. The
        // previous generation covers seq 3, so compaction keeps 4..=6
        // for its fallback; record 7 is the uncompacted tail.
        let scan = scan_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan.events.len(), 4);
        assert_eq!(scan.events[0].seq, 4);
        assert!(dir.join(SNAPSHOT_PREV_FILE).exists());
        let rec2 = recover(&dir, None).unwrap();
        assert_eq!(rec2.snapshot_seq, 6);
        assert_eq!(rec2.replayed, 1, "only record 7 is past the primary");
        assert_eq!(
            serde_json::to_string(&rec2.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn torn_tail_truncates_instead_of_failing() {
        let dir = temp_dir("torn");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        let mut live = rec.dataset;
        for k in 0..4 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
        }
        drop(store);
        // Simulate a crash mid-write: garbage bytes after the last record.
        let wal_path = dir.join(WAL_FILE);
        let clean_len = std::fs::metadata(&wal_path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(&[0x13, 0x37, 0xFF]).unwrap();
        drop(f);

        let (_store2, rec2) = CorpusStore::open(&dir, None, 0, None).unwrap();
        assert_eq!(rec2.replayed, 4);
        assert_eq!(rec2.truncated_bytes, 3);
        // The reopened store truncated the tail to a clean boundary.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), clean_len);
    }

    #[test]
    fn corrupted_record_truncates_it_and_everything_after() {
        let dir = temp_dir("midflip");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        let mut live = rec.dataset;
        let mut offsets = vec![0u64];
        for k in 0..4 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
            offsets.push(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        }
        drop(store);
        // Flip one payload byte inside record 3 (index 2).
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let idx = offsets[2] as usize + 8; // first payload byte of record 3
        bytes[idx] ^= 0x5A;
        std::fs::write(&wal_path, &bytes).unwrap();

        let scan = scan_wal(&wal_path).unwrap();
        assert_eq!(scan.events.len(), 2, "records 1–2 survive, 3–4 drop");
        assert_eq!(scan.valid_len, offsets[2]);
        let rec2 = recover(&dir, None).unwrap();
        assert_eq!(rec2.replayed, 2);
    }

    #[test]
    fn recovery_counts_into_metrics() {
        let dir = temp_dir("metrics");
        let seed = base();
        let metrics = Arc::new(SolverMetrics::new());
        let (mut store, rec) =
            CorpusStore::open(&dir, Some(&seed), 0, Some(Arc::clone(&metrics))).unwrap();
        let mut live = rec.dataset;
        for k in 0..3 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_appends, 3);
        assert_eq!(snap.wal_fsyncs, 3);
        assert_eq!(snap.snapshot_writes, 1, "the seed seal");
        drop(store);
        let fresh = Arc::new(SolverMetrics::new());
        let _ = CorpusStore::open(&dir, None, 0, Some(Arc::clone(&fresh))).unwrap();
        assert_eq!(fresh.snapshot().recovery_replayed_records, 3);
    }

    #[test]
    fn missing_snapshot_without_seed_is_nothing_to_recover() {
        let dir = temp_dir("nothing");
        assert!(matches!(
            CorpusStore::open(&dir, None, 0, None),
            Err(WalError::NothingToRecover(_))
        ));
        assert!(matches!(
            recover(&dir, None),
            Err(WalError::NothingToRecover(_))
        ));
    }

    /// Build a store with two snapshot generations on disk: primary at
    /// seq 6, previous at seq 3, WAL holding records 4..=7.
    fn two_generation_store(tag: &str) -> (TempDir, Dataset) {
        let dir = temp_dir(tag);
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 3, None).unwrap();
        let mut live = rec.dataset;
        for k in 0..7 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
            store.maybe_snapshot(&live).unwrap();
        }
        drop(store);
        (dir, live)
    }

    #[test]
    fn truncated_primary_snapshot_falls_back_one_generation() {
        let (dir, live) = two_generation_store("fallback");
        // Truncate the primary mid-JSON, as a torn write would.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let len = std::fs::metadata(&snap_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&snap_path).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);

        let rec = recover(&dir, None).unwrap();
        assert!(rec.snapshot_fallback);
        assert_eq!(rec.snapshot_seq, 3, "previous generation covers seq 3");
        assert_eq!(rec.replayed, 4, "records 4..=7 replay from the WAL");
        assert_eq!(rec.last_seq, 7);
        assert!(rec.faults.iter().any(|f| f.contains("primary snapshot")));
        assert!(rec.faults.iter().any(|f| f.contains("fell back")));
        assert_eq!(
            serde_json::to_string(&rec.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );

        // Reopening re-seals a healthy primary immediately.
        let (_store, rec2) = CorpusStore::open(&dir, None, 0, None).unwrap();
        assert_eq!(rec2.last_seq, 7);
        let rec3 = recover(&dir, None).unwrap();
        assert_eq!(rec3.snapshot_seq, 7);
        assert_eq!(rec3.replayed, 0);
        assert!(rec3.faults.is_empty());
    }

    #[test]
    fn double_fault_recovery_names_both_faults() {
        let (dir, live) = two_generation_store("double");
        // Fault 1: truncated primary snapshot.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let len = std::fs::metadata(&snap_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&snap_path).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);
        // Fault 2: WAL tail corrupted mid-record.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[9, 0, 0, 0, 0xAA, 0xBB]).unwrap();
        drop(f);

        let rec = recover(&dir, None).unwrap();
        assert!(rec.faults.iter().any(|f| f.contains("primary snapshot")));
        assert!(rec.faults.iter().any(|f| f.contains("wal tail torn")));
        assert_eq!(rec.truncated_bytes, 6);
        assert_eq!(rec.last_seq, 7, "both faults healed, acked prefix intact");
        assert_eq!(
            serde_json::to_string(&rec.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn both_generations_unusable_is_corrupt() {
        let (dir, _) = two_generation_store("bothdead");
        for name in [SNAPSHOT_FILE, SNAPSHOT_PREV_FILE] {
            std::fs::write(dir.join(name), b"{ not json").unwrap();
        }
        match recover(&dir, None) {
            Err(WalError::Corrupt(why)) => {
                assert!(why.contains("previous snapshot also unusable"), "{why}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_demotes_exactly_the_primary_it_validated() {
        let dir = temp_dir("demote");
        let (mut store, rec) = CorpusStore::open(&dir, Some(&base()), 0, None).unwrap();
        let mut live = rec.dataset;
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        for k in 0..2 {
            let ev = add_event(&live, store.next_seq(), k, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
            let primary = read(SNAPSHOT_FILE);
            store.snapshot(&live).unwrap();
            assert_eq!(read(SNAPSHOT_PREV_FILE), primary, "snapshot {k}");
            assert_ne!(read(SNAPSHOT_FILE), primary, "snapshot {k}");
        }

        // A corrupt primary (torn, or not even UTF-8) is never demoted
        // over the good previous generation.
        let good_prev = read(SNAPSHOT_PREV_FILE);
        let primary = read(SNAPSHOT_FILE);
        for corrupt in [&primary[..primary.len() / 2], b"\xff{\"schema\":"] {
            std::fs::write(dir.join(SNAPSHOT_FILE), corrupt).unwrap();
            store.snapshot(&live).unwrap();
            assert_eq!(read(SNAPSHOT_PREV_FILE), good_prev);
            assert_eq!(read(SNAPSHOT_FILE), primary, "re-sealed the same state");
        }
    }

    #[test]
    fn non_utf8_primary_snapshot_falls_back_one_generation() {
        let (dir, live) = two_generation_store("notutf8");
        std::fs::write(dir.join(SNAPSHOT_FILE), b"{\"schema\":\"\xff\"}").unwrap();
        let rec = recover(&dir, None).unwrap();
        assert!(rec.snapshot_fallback);
        assert_eq!(rec.snapshot_seq, 3);
        assert_eq!(rec.last_seq, 7);
        assert!(rec.faults.iter().any(|f| f.contains("primary snapshot")));
        assert_eq!(
            serde_json::to_string(&rec.dataset).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
    }

    #[test]
    fn failed_append_rolls_back_to_a_clean_boundary() {
        use crate::fault::FaultProfile;
        let dir = temp_dir("rollback");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        let live = rec.dataset;
        // Every write tears; truncate (the rollback) stays clean.
        let torn = FaultProfile {
            fail: 0,
            disk_full: 0,
            short_write: 1024,
            bit_flip: 0,
            delay: 0,
        };
        store.set_fault_plane(Some(Arc::new(FaultPlane::with_profile(1, torn))));
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let ev = add_event(&live, store.next_seq(), 0, 0);
        assert!(store.append(std::slice::from_ref(&ev)).is_err());
        assert!(store.poisoned().is_none(), "rollback succeeded");
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            wal_len,
            "the torn prefix was rolled back"
        );
        // The failed batch's seq is reusable without duplicates on disk.
        store.set_fault_plane(None);
        assert_eq!(store.next_seq(), ev.seq);
        store.append(std::slice::from_ref(&ev)).unwrap();
        let scan = scan_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan.events.len(), 1);
        assert_eq!(scan.events[0].seq, ev.seq);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn poisoned_store_refuses_writes_until_reopen() {
        use crate::fault::FaultProfile;
        let dir = temp_dir("poison");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        let live = rec.dataset;
        // Every op fails — including the rollback truncate.
        let hostile = FaultProfile {
            fail: 1024,
            disk_full: 0,
            short_write: 0,
            bit_flip: 0,
            delay: 0,
        };
        store.set_fault_plane(Some(Arc::new(FaultPlane::with_profile(2, hostile))));
        let ev = add_event(&live, store.next_seq(), 0, 0);
        assert!(store.append(std::slice::from_ref(&ev)).is_err());
        assert!(store.poisoned().is_some());
        // Disarming the plane does not heal it: only a reopen recovers.
        store.set_fault_plane(None);
        assert!(matches!(
            store.append(std::slice::from_ref(&ev)),
            Err(WalError::Poisoned(_))
        ));
        assert!(matches!(store.snapshot(&live), Err(WalError::Poisoned(_))));
        drop(store);
        let (mut store2, rec2) = CorpusStore::open(&dir, None, 0, None).unwrap();
        assert_eq!(rec2.last_seq, 0);
        let ev = add_event(&rec2.dataset, store2.next_seq(), 0, 0);
        store2.append(std::slice::from_ref(&ev)).unwrap();
    }

    #[test]
    fn bit_flip_on_read_truncates_at_the_flipped_record() {
        use crate::fault::FaultProfile;
        let dir = temp_dir("bitflip");
        let seed = base();
        let (mut store, rec) = CorpusStore::open(&dir, Some(&seed), 0, None).unwrap();
        let mut live = rec.dataset;
        for k in 0..4 {
            let ev = add_event(&live, store.next_seq(), k % 3, 0);
            store.append(std::slice::from_ref(&ev)).unwrap();
            live.apply_event(&ev).unwrap();
        }
        drop(store);
        let clean = scan_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(clean.events.len(), 4);
        let flip = FaultProfile {
            fail: 0,
            disk_full: 0,
            short_write: 0,
            bit_flip: 1024,
            delay: 0,
        };
        let plane = FaultPlane::with_profile(5, flip);
        let scan = scan_wal_with(&dir.join(WAL_FILE), Some(&plane)).unwrap();
        assert!(scan.events.len() < 4, "the flipped record fails its CRC");
        // The surviving prefix is untouched.
        assert_eq!(scan.events[..], clean.events[..scan.events.len()]);
        assert_eq!(plane.injected(), 1);
    }

    #[test]
    fn batched_append_is_one_fsync() {
        let dir = temp_dir("batch");
        let seed = base();
        let metrics = Arc::new(SolverMetrics::new());
        let (mut store, rec) =
            CorpusStore::open(&dir, Some(&seed), 0, Some(Arc::clone(&metrics))).unwrap();
        let mut live = rec.dataset;
        let mut batch = Vec::new();
        for k in 0..4u64 {
            let ev = add_event(&live, store.next_seq() + k, (k % 3) as u32, 0);
            live.apply_event(&ev).unwrap();
            batch.push(ev);
        }
        store.append(&batch).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_appends, 4);
        assert_eq!(snap.wal_fsyncs, 1, "one fsync acknowledges the batch");
    }
}
