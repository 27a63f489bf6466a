//! Observability layer shared by the solver stack.
//!
//! Two independent channels (ARCHITECTURE.md §7):
//!
//! * **Tracing** — human-readable, levelled text on stderr. Enabled with
//!   [`init_stderr_tracing`]; spans and events come from the `tracing`
//!   macros sprinkled through `crates/linalg`, `crates/core`,
//!   `crates/eval`, and `crates/cli`. Off by default; a disabled callsite
//!   costs one relaxed atomic load.
//! * **Metrics** — machine-readable counters in [`SolverMetrics`],
//!   threaded through `SolveOptions` as an `Option<Arc<SolverMetrics>>`.
//!   `None` (the default) skips every counter update and clock read; the
//!   solver hot paths never touch an atomic or an `Instant` unless a
//!   collector was installed. [`SolverMetrics::snapshot`] freezes the
//!   counters into a serialisable [`MetricsSnapshot`]; [`MetricsReport`]
//!   wraps a snapshot with run identity for `--metrics-json`.
//!
//! Counters are relaxed atomics, so concurrent workers (the serving
//! daemon's, the parallel branch-and-bound's) can share one collector;
//! increments interleave freely and only the totals are meaningful.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

mod cancel;

pub use cancel::{CancelToken, SolveCtl};

/// Schema tag embedded in every [`MetricsReport`]; bump on breaking
/// layout changes so downstream tooling can detect drift.
///
/// v2 added the preemption/ingestion counters `cancellation_checks`,
/// `deadline_expirations`, and `io_retries`. v3 added the warm-start and
/// incremental-correlation counters `warm_start_hits`,
/// `warm_start_truncations`, `corr_incremental_updates`, and
/// `corr_exact_recomputes`. v4 added the serving counters
/// `serve_requests`, `serve_full_hits`, `serve_warm_hits`,
/// `serve_cache_misses`, `serve_cache_evictions`, and `serve_degraded`.
/// v5 added the durability counters `wal_appends`, `wal_fsyncs`,
/// `snapshot_writes`, `recovery_replayed_records`, and
/// `cache_invalidations`. v6 added the branch-and-bound counters
/// `bnb_nodes`, `bnb_prunes`, `bnb_incumbent_updates`, and `bnb_steals`.
/// v7 added the chaos/drain counters `faults_injected`,
/// `drain_initiated`, `connections_timed_out`, and `health_checks`.
/// v8 added the sparse-kernel counters `sparse_corr_scans`,
/// `dense_corr_scans`, `sparse_gram_builds`, and `simd_blocks`. Since
/// v8, `warm_start_truncations`, `corr_incremental_updates`, and
/// `corr_exact_recomputes` are retired: their mechanisms were replaced by
/// the per-item answer memo, so they always read 0, and they stay in the
/// layout so stored reports keep parsing.
pub const METRICS_SCHEMA: &str = "comparesets-metrics/v8";

/// Shared counter block for one logical run (a CLI command, an eval
/// experiment, a test solve). Cheap to share via `Arc`; all updates are
/// relaxed atomic adds.
#[derive(Debug, Default)]
pub struct SolverMetrics {
    /// NOMP pursuits started (one per `nomp_path` call, plus one per
    /// regression answered from a per-item answer memo).
    pub nomp_pursuits: AtomicU64,
    /// Greedy atom-selection iterations across all pursuits.
    pub nomp_iterations: AtomicU64,
    /// Budget snapshots recorded by path-mode pursuits (one per ℓ).
    pub path_snapshots: AtomicU64,
    /// Refits served from the incrementally maintained Gram cache
    /// (every refit after the first within a pursuit).
    pub gram_cache_hits: AtomicU64,
    /// NNLS refits performed (one per accepted atom).
    pub nnls_refits: AtomicU64,
    /// Outer Lawson–Hanson iterations summed over all refits.
    pub nnls_iterations: AtomicU64,
    /// Refits that hit the 3n+10 outer-iteration cap without converging.
    pub nnls_cap_hits: AtomicU64,
    /// Gram solves that fell back from Cholesky to Householder QR.
    pub fallback_qr: AtomicU64,
    /// Gram solves that fell through QR to the ridge-regularised retry.
    pub fallback_ridge: AtomicU64,
    /// Per-item integer regressions solved (Algorithm 1 inner problem).
    pub integer_regressions: AtomicU64,
    /// Per-item Gauss–Seidel steps in the CompaReSetS+ alternation.
    pub alternation_rounds: AtomicU64,
    /// Alternation steps whose candidate improved the coupled cost.
    pub alternation_accepts: AtomicU64,
    /// Wall nanoseconds inside NOMP pursuits (greedy loop + refits).
    pub pursuit_nanos: AtomicU64,
    /// Wall nanoseconds inside NNLS refits (subset of `pursuit_nanos`).
    pub refit_nanos: AtomicU64,
    /// Cancellation-token polls performed (counted only when a token is
    /// installed; token-less solves never touch this).
    pub cancellation_checks: AtomicU64,
    /// Solves that observed a fired token/deadline and stopped early
    /// with their best-so-far iterate.
    pub deadline_expirations: AtomicU64,
    /// Transient ingestion I/O errors absorbed by the retrying reader.
    pub io_retries: AtomicU64,
    /// Pursuit iterations answered from a per-item answer memo instead of
    /// run: a regression whose inputs repeat bit for bit counts the
    /// iterations of the pursuit it replaces here (and in
    /// `nomp_iterations`), with no NNLS refit.
    pub warm_start_hits: AtomicU64,
    /// Retired (always 0): counted the truncations of the validated
    /// trajectory replay the answer memo replaced. Kept so stored v8
    /// reports and their readers keep parsing.
    pub warm_start_truncations: AtomicU64,
    /// Retired (always 0): counted Gram-downdate updates of the
    /// incremental correlation vector the answer memo replaced. Kept so
    /// stored v8 reports and their readers keep parsing.
    pub corr_incremental_updates: AtomicU64,
    /// Retired (always 0): counted the exact `Aᵀr` recomputes that
    /// bounded the incremental correlations' drift. Kept so stored v8
    /// reports and their readers keep parsing.
    pub corr_exact_recomputes: AtomicU64,
    /// Solve requests admitted by the serving daemon (every request that
    /// reached the session cache, whatever its outcome).
    pub serve_requests: AtomicU64,
    /// Requests answered verbatim from the session cache's result layer —
    /// an exact repeat of a completed query; no solver work at all.
    pub serve_full_hits: AtomicU64,
    /// Requests that found per-item warm states in the session cache and
    /// re-solved through validated reuse instead of from scratch.
    pub serve_warm_hits: AtomicU64,
    /// Requests that found nothing reusable and solved cold.
    pub serve_cache_misses: AtomicU64,
    /// Session-cache entries evicted by the LRU capacity bound (result,
    /// context, and warm-state entries all count here).
    pub serve_cache_evictions: AtomicU64,
    /// Requests answered with a degraded best-so-far selection because
    /// their admission deadline expired mid-solve.
    pub serve_degraded: AtomicU64,
    /// Review events appended to a write-ahead log (one per record, even
    /// when a batch shares a single fsync).
    pub wal_appends: AtomicU64,
    /// `fsync` calls issued for WAL durability (one per acknowledged
    /// batch — the fsync-on-ack contract).
    pub wal_fsyncs: AtomicU64,
    /// Corpus snapshots written atomically (each one also compacts the
    /// WAL it covers).
    pub snapshot_writes: AtomicU64,
    /// WAL records replayed on top of a snapshot during crash recovery.
    pub recovery_replayed_records: AtomicU64,
    /// Session-cache entries dropped because an ingested event mutated
    /// an item they were keyed on.
    pub cache_invalidations: AtomicU64,
    /// TargetHkS branch-and-bound nodes expanded (sequential and parallel
    /// workers both count here; the aggregate equals `ExactResult.nodes`).
    pub bnb_nodes: AtomicU64,
    /// Subtrees discarded because their admissible upper bound could not
    /// beat the shared incumbent.
    pub bnb_prunes: AtomicU64,
    /// Strict improvements published to the shared best-incumbent (the
    /// greedy warm start does not count; it seeds the incumbent).
    pub bnb_incumbent_updates: AtomicU64,
    /// Frontier subproblems a worker pulled that a *different* worker
    /// produced (cross-worker work transfer; always zero sequentially).
    pub bnb_steals: AtomicU64,
    /// Faults a chaos-plane schedule injected into durability I/O
    /// (always zero in production runs — no plane is armed).
    pub faults_injected: AtomicU64,
    /// Graceful drains begun (SIGTERM or in-band shutdown while serving).
    pub drain_initiated: AtomicU64,
    /// Connections closed for blowing a read/write or per-frame deadline
    /// (slowloris peers, stalled sockets).
    pub connections_timed_out: AtomicU64,
    /// `health` ops answered by the serving daemon.
    pub health_checks: AtomicU64,
    /// Full correlation scans (`c = Aᵀr`) executed against a sparse (CSC)
    /// design matrix — stored-entry iteration, no dense column walks.
    pub sparse_corr_scans: AtomicU64,
    /// Full correlation scans executed against a dense design matrix
    /// (the chunked-SIMD fallback path).
    pub dense_corr_scans: AtomicU64,
    /// Gram columns/rows built from sparse column-column intersections
    /// (merge-joins over stored entries) instead of dense column dots.
    pub sparse_gram_builds: AtomicU64,
    /// Full 4-lane SIMD blocks executed by the dense chunked kernels on
    /// metered hot paths (correlation scans and blocked NNLS dual
    /// refreshes); scalar tails are not counted. Zero for pure-sparse
    /// solves — the complement of `sparse_corr_scans` coverage.
    pub simd_blocks: AtomicU64,
}

impl SolverMetrics {
    /// A fresh collector with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter (relaxed; aggregate order does not matter).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to a counter.
    #[inline]
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add a wall-time duration to a nanosecond counter (saturating).
    #[inline]
    pub fn add_time(counter: &AtomicU64, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        counter.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Freeze the counters into a plain-data snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            nomp_pursuits: self.nomp_pursuits.load(Ordering::Relaxed),
            nomp_iterations: self.nomp_iterations.load(Ordering::Relaxed),
            path_snapshots: self.path_snapshots.load(Ordering::Relaxed),
            gram_cache_hits: self.gram_cache_hits.load(Ordering::Relaxed),
            nnls_refits: self.nnls_refits.load(Ordering::Relaxed),
            nnls_iterations: self.nnls_iterations.load(Ordering::Relaxed),
            nnls_cap_hits: self.nnls_cap_hits.load(Ordering::Relaxed),
            fallback_qr: self.fallback_qr.load(Ordering::Relaxed),
            fallback_ridge: self.fallback_ridge.load(Ordering::Relaxed),
            integer_regressions: self.integer_regressions.load(Ordering::Relaxed),
            alternation_rounds: self.alternation_rounds.load(Ordering::Relaxed),
            alternation_accepts: self.alternation_accepts.load(Ordering::Relaxed),
            pursuit_nanos: self.pursuit_nanos.load(Ordering::Relaxed),
            refit_nanos: self.refit_nanos.load(Ordering::Relaxed),
            cancellation_checks: self.cancellation_checks.load(Ordering::Relaxed),
            deadline_expirations: self.deadline_expirations.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            warm_start_hits: self.warm_start_hits.load(Ordering::Relaxed),
            warm_start_truncations: self.warm_start_truncations.load(Ordering::Relaxed),
            corr_incremental_updates: self.corr_incremental_updates.load(Ordering::Relaxed),
            corr_exact_recomputes: self.corr_exact_recomputes.load(Ordering::Relaxed),
            serve_requests: self.serve_requests.load(Ordering::Relaxed),
            serve_full_hits: self.serve_full_hits.load(Ordering::Relaxed),
            serve_warm_hits: self.serve_warm_hits.load(Ordering::Relaxed),
            serve_cache_misses: self.serve_cache_misses.load(Ordering::Relaxed),
            serve_cache_evictions: self.serve_cache_evictions.load(Ordering::Relaxed),
            serve_degraded: self.serve_degraded.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            recovery_replayed_records: self.recovery_replayed_records.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            bnb_nodes: self.bnb_nodes.load(Ordering::Relaxed),
            bnb_prunes: self.bnb_prunes.load(Ordering::Relaxed),
            bnb_incumbent_updates: self.bnb_incumbent_updates.load(Ordering::Relaxed),
            bnb_steals: self.bnb_steals.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            drain_initiated: self.drain_initiated.load(Ordering::Relaxed),
            connections_timed_out: self.connections_timed_out.load(Ordering::Relaxed),
            health_checks: self.health_checks.load(Ordering::Relaxed),
            sparse_corr_scans: self.sparse_corr_scans.load(Ordering::Relaxed),
            dense_corr_scans: self.dense_corr_scans.load(Ordering::Relaxed),
            sparse_gram_builds: self.sparse_gram_builds.load(Ordering::Relaxed),
            simd_blocks: self.simd_blocks.load(Ordering::Relaxed),
        }
    }
}

/// Frozen [`SolverMetrics`] counters — plain data, serialisable, and
/// comparable (the parallel-equals-sequential metrics test relies on
/// `PartialEq`). Field meanings match the `SolverMetrics` docs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub nomp_pursuits: u64,
    pub nomp_iterations: u64,
    pub path_snapshots: u64,
    pub gram_cache_hits: u64,
    pub nnls_refits: u64,
    pub nnls_iterations: u64,
    pub nnls_cap_hits: u64,
    pub fallback_qr: u64,
    pub fallback_ridge: u64,
    pub integer_regressions: u64,
    pub alternation_rounds: u64,
    pub alternation_accepts: u64,
    pub pursuit_nanos: u64,
    pub refit_nanos: u64,
    #[serde(default)]
    pub cancellation_checks: u64,
    #[serde(default)]
    pub deadline_expirations: u64,
    #[serde(default)]
    pub io_retries: u64,
    #[serde(default)]
    pub warm_start_hits: u64,
    #[serde(default)]
    pub warm_start_truncations: u64,
    #[serde(default)]
    pub corr_incremental_updates: u64,
    #[serde(default)]
    pub corr_exact_recomputes: u64,
    #[serde(default)]
    pub serve_requests: u64,
    #[serde(default)]
    pub serve_full_hits: u64,
    #[serde(default)]
    pub serve_warm_hits: u64,
    #[serde(default)]
    pub serve_cache_misses: u64,
    #[serde(default)]
    pub serve_cache_evictions: u64,
    #[serde(default)]
    pub serve_degraded: u64,
    #[serde(default)]
    pub wal_appends: u64,
    #[serde(default)]
    pub wal_fsyncs: u64,
    #[serde(default)]
    pub snapshot_writes: u64,
    #[serde(default)]
    pub recovery_replayed_records: u64,
    #[serde(default)]
    pub cache_invalidations: u64,
    #[serde(default)]
    pub bnb_nodes: u64,
    #[serde(default)]
    pub bnb_prunes: u64,
    #[serde(default)]
    pub bnb_incumbent_updates: u64,
    #[serde(default)]
    pub bnb_steals: u64,
    #[serde(default)]
    pub faults_injected: u64,
    #[serde(default)]
    pub drain_initiated: u64,
    #[serde(default)]
    pub connections_timed_out: u64,
    #[serde(default)]
    pub health_checks: u64,
    #[serde(default)]
    pub sparse_corr_scans: u64,
    #[serde(default)]
    pub dense_corr_scans: u64,
    #[serde(default)]
    pub sparse_gram_builds: u64,
    #[serde(default)]
    pub simd_blocks: u64,
}

impl MetricsSnapshot {
    /// True when no counter ever fired (e.g. a non-solving CLI command).
    pub fn is_empty(&self) -> bool {
        *self == MetricsSnapshot::default()
    }
}

/// Machine-readable per-run report written by `--metrics-json` and
/// embedded per experiment in the eval suite report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Always [`METRICS_SCHEMA`]; validated by the schema tests.
    pub schema: String,
    /// What ran: a CLI command name or an eval experiment name.
    pub command: String,
    /// End-to-end wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// The frozen solver counters for the run.
    pub metrics: MetricsSnapshot,
}

impl MetricsReport {
    /// Assemble a report for `command` from a live collector.
    pub fn new(command: &str, wall: Duration, metrics: &SolverMetrics) -> Self {
        Self::from_snapshot(command, wall, metrics.snapshot())
    }

    /// Assemble a report from an already-frozen snapshot.
    pub fn from_snapshot(command: &str, wall: Duration, metrics: MetricsSnapshot) -> Self {
        MetricsReport {
            schema: METRICS_SCHEMA.to_string(),
            command: command.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            metrics,
        }
    }

    /// Check the embedded schema tag.
    pub fn schema_matches(&self) -> bool {
        self.schema == METRICS_SCHEMA
    }
}

/// Stderr subscriber behind [`init_stderr_tracing`]: one line per event,
/// one line per closed span (with busy time in microseconds).
struct StderrSubscriber;

impl tracing::Subscriber for StderrSubscriber {
    fn event(&self, level: tracing::Level, target: &str, message: &str) {
        eprintln!("{level:>5} {target}: {message}");
    }

    fn span_close(
        &self,
        level: tracing::Level,
        target: &str,
        name: &str,
        fields: &str,
        busy: Duration,
    ) {
        eprintln!(
            "{level:>5} {target}: close {name}{fields} busy={:.1}us",
            busy.as_secs_f64() * 1e6
        );
    }
}

/// Enable human-readable tracing on stderr at `level` and above.
///
/// Idempotent: installing the subscriber twice is harmless (the first
/// install wins), and the max level is always updated — so the CLI and
/// tests may call this freely.
pub fn init_stderr_tracing(level: tracing::Level) {
    let _ = tracing::subscriber::set_global_default(StderrSubscriber);
    tracing::set_max_level(Some(level));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = SolverMetrics::new();
        SolverMetrics::incr(&m.nomp_pursuits);
        SolverMetrics::add(&m.nomp_iterations, 7);
        SolverMetrics::add_time(&m.pursuit_nanos, Duration::from_micros(3));
        let snap = m.snapshot();
        assert_eq!(snap.nomp_pursuits, 1);
        assert_eq!(snap.nomp_iterations, 7);
        assert_eq!(snap.pursuit_nanos, 3_000);
        assert!(!snap.is_empty());
        assert!(SolverMetrics::new().snapshot().is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = SolverMetrics::new();
        SolverMetrics::add(&m.integer_regressions, 12);
        let report = MetricsReport::new("select", Duration::from_millis(8), &m);
        assert!(report.schema_matches());
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.metrics.integer_regressions, 12);
        assert!((back.wall_ms - 8.0).abs() < 1e-9);
    }
}
