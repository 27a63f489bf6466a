//! Crash-safe suite checkpointing.
//!
//! A full reproduction pass can run for minutes to hours; a crash, OOM
//! kill, or operator interrupt near the end used to cost the entire pass.
//! Given a [`CheckpointStore`], [`run_suite`](crate::harness::run_suite)
//! persists a [`SuiteCheckpoint`] after every completed experiment, and a
//! `--resume` run restores those outcomes instead of recomputing them —
//! the resumed report is identical to the uninterrupted one because the
//! experiments themselves are deterministic and the checkpoint stores
//! their exact rendered text and solver counters.
//!
//! Three properties make the checkpoint trustworthy:
//!
//! * **Atomicity** — every write goes through [`write_atomic`]: full
//!   contents to a temp file in the destination directory, `fsync`,
//!   `rename` over the target, directory `fsync`. A crash at any point
//!   leaves either the previous checkpoint or the new one, never a torn
//!   file.
//! * **Validation** — a checkpoint records the configuration fingerprint
//!   and the code fingerprint that produced it. A resume under a
//!   different config or build discards the checkpoint (with a warning)
//!   rather than stitching incompatible results together.
//! * **No degraded entries** — an experiment that observed a fired
//!   cancellation token is *not* checkpointed: its output is a
//!   best-so-far artifact of the deadline, and resuming from it would
//!   freeze the degradation into future runs. The resumed run recomputes
//!   it from scratch.

use std::fs;
use std::io;
use std::path::PathBuf;

use comparesets_core::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use crate::EvalConfig;

/// Schema tag embedded in every checkpoint file. Bump on layout changes;
/// a reader seeing an unknown tag discards the checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "suite-checkpoint/v1";

/// File name of the checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "suite-checkpoint.json";

/// One persisted experiment outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment name (matches [`crate::harness::Experiment::name`]).
    pub name: String,
    /// `true` when the experiment completed; `false` when it panicked
    /// (the failure is persisted too — a deterministic panic would just
    /// repeat on resume).
    pub completed: bool,
    /// Rendered output (completed) or panic message (failed).
    pub text: String,
    /// End-to-end wall nanoseconds of the original run.
    pub wall_nanos: u64,
    /// Frozen solver counters of the original run.
    pub metrics: MetricsSnapshot,
}

/// The persisted state of a partially-run suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteCheckpoint {
    /// Layout tag; must equal [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// Canonical description of the [`EvalConfig`] that produced the
    /// checkpoint (see [`config_fingerprint`]).
    pub config: String,
    /// Build that produced the checkpoint (see [`code_fingerprint`]).
    pub code: String,
    /// Experiments persisted so far, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl SuiteCheckpoint {
    /// A fresh, empty checkpoint for the given fingerprints.
    pub fn empty(config: String, code: String) -> Self {
        SuiteCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            config,
            code,
            experiments: Vec::new(),
        }
    }
}

/// Canonical fingerprint of every [`EvalConfig`] knob that affects
/// experiment *results*. Execution options (warm starts, metrics
/// collectors, cancellation tokens) are deliberately excluded: results
/// are identical across them, so a checkpoint taken with warm starts on
/// resumes fine with them off and vice versa.
pub fn config_fingerprint(cfg: &EvalConfig) -> String {
    format!(
        "cfg/v1;ppc={};maxc={};maxi={};seed={};ms={:?};lambda={};mu={};scheme={:?};exact_ms={}",
        cfg.products_per_category,
        cfg.max_comparatives,
        cfg.max_instances,
        cfg.seed,
        cfg.ms,
        cfg.lambda,
        cfg.mu,
        cfg.scheme,
        cfg.exact_time_limit_ms,
    )
}

/// Fingerprint of the build: a checkpoint written by a different crate
/// version may reflect different solver behaviour and is discarded.
pub fn code_fingerprint() -> String {
    format!("comparesets-eval/{}", env!("CARGO_PKG_VERSION"))
}

pub use comparesets_data::io::write_atomic;

/// What a resume attempt found on disk.
#[derive(Debug, Clone, PartialEq)]
pub enum Resume {
    /// No checkpoint exists: start from scratch.
    Fresh,
    /// A checkpoint exists but is unusable (wrong schema, different
    /// config or build, or unparsable): start from scratch.
    Stale {
        /// Why the checkpoint was discarded.
        reason: String,
    },
    /// A valid checkpoint: skip its completed experiments.
    Valid(SuiteCheckpoint),
}

/// A directory holding the suite checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into() }
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    /// Load the checkpoint and validate it against the expected
    /// fingerprints. Missing → [`Resume::Fresh`]; present but mismatched
    /// or corrupt → [`Resume::Stale`] (restarting is always safe);
    /// matching → [`Resume::Valid`].
    ///
    /// # Errors
    /// Propagates filesystem errors other than "file not found".
    pub fn load(&self, expected_config: &str, expected_code: &str) -> io::Result<Resume> {
        let bytes = match fs::read(self.path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Resume::Fresh),
            Err(e) => return Err(e),
        };
        let text = String::from_utf8_lossy(&bytes);
        let ckpt: SuiteCheckpoint = match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => {
                return Ok(Resume::Stale {
                    reason: format!("unparsable checkpoint: {e}"),
                })
            }
        };
        if ckpt.schema != CHECKPOINT_SCHEMA {
            return Ok(Resume::Stale {
                reason: format!(
                    "schema {:?} != expected {:?}",
                    ckpt.schema, CHECKPOINT_SCHEMA
                ),
            });
        }
        if ckpt.config != expected_config {
            return Ok(Resume::Stale {
                reason: "checkpoint was taken under a different configuration".to_string(),
            });
        }
        if ckpt.code != expected_code {
            return Ok(Resume::Stale {
                reason: format!(
                    "checkpoint was written by {:?}, this build is {:?}",
                    ckpt.code, expected_code
                ),
            });
        }
        Ok(Resume::Valid(ckpt))
    }

    /// Atomically persist `ckpt`, creating the directory if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors from directory creation or the
    /// atomic write.
    pub fn save(&self, ckpt: &SuiteCheckpoint) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let json = serde_json::to_string(ckpt).map_err(io::Error::other)?;
        write_atomic(&self.path(), json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use comparesets_data::TempDir;

    fn tmpdir(tag: &str) -> TempDir {
        TempDir::new(&format!("ckpt_{tag}")).unwrap()
    }

    fn record(name: &str) -> ExperimentRecord {
        ExperimentRecord {
            name: name.to_string(),
            completed: true,
            text: format!("{name} output"),
            wall_nanos: 42,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn write_atomic_replaces_contents_and_leaves_no_temp_files() {
        let dir = tmpdir("atomic");
        let path = dir.join("out.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
    }

    #[test]
    fn load_is_fresh_without_a_checkpoint() {
        let dir = tmpdir("fresh");
        let store = CheckpointStore::new(dir.path());
        assert_eq!(store.load("cfg", "code").unwrap(), Resume::Fresh);
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::new(dir.path());
        let mut ckpt = SuiteCheckpoint::empty("cfg".into(), "code".into());
        ckpt.experiments.push(record("table2"));
        store.save(&ckpt).unwrap();
        match store.load("cfg", "code").unwrap() {
            Resume::Valid(loaded) => assert_eq!(loaded, ckpt),
            other => panic!("expected Valid, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_fingerprints_are_stale_not_fatal() {
        let dir = tmpdir("stale");
        let store = CheckpointStore::new(dir.path());
        let ckpt = SuiteCheckpoint::empty("cfg-a".into(), "code-a".into());
        store.save(&ckpt).unwrap();
        assert!(matches!(
            store.load("cfg-b", "code-a").unwrap(),
            Resume::Stale { .. }
        ));
        assert!(matches!(
            store.load("cfg-a", "code-b").unwrap(),
            Resume::Stale { .. }
        ));
        // Corrupt JSON is also stale, never a crash.
        fs::write(store.path(), b"{not json").unwrap();
        assert!(matches!(
            store.load("cfg-a", "code-a").unwrap(),
            Resume::Stale { .. }
        ));
    }

    #[test]
    fn config_fingerprint_tracks_result_affecting_knobs_only() {
        let a = config_fingerprint(&EvalConfig::tiny());
        let mut cfg = EvalConfig::tiny();
        cfg.solve_options = comparesets_core::SolveOptions::default().with_warm_start(false);
        assert_eq!(a, config_fingerprint(&cfg), "execution options excluded");
        cfg.seed += 1;
        assert_ne!(a, config_fingerprint(&cfg), "seed included");
    }
}
