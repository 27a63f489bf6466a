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
//!   wraps a snapshot with run identity for `--metrics-json`. Each
//!   counter is declared once, with its meaning, in one list that also
//!   yields the [`COUNTERS`] table.
//!
//! Counters are relaxed atomics, so concurrent workers (the serving
//! daemon's, the parallel branch-and-bound's) can share one collector;
//! increments interleave freely and only the totals are meaningful.

#![warn(missing_docs)]

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

mod cancel;

pub use cancel::{CancelToken, SolveCtl};

/// Schema tag embedded in every [`MetricsReport`]. Adding or retiring a
/// counter needs no bump: a reader ignores keys it does not know and
/// reads a missing counter as 0. Only a change in what a counter means
/// needs a new tag.
pub const METRICS_SCHEMA: &str = "comparesets-metrics/v8";

/// Generates, from one list of `name: "meaning"` entries, the live
/// [`SolverMetrics`] block, its frozen [`MetricsSnapshot`],
/// [`SolverMetrics::snapshot`], [`SolverMetrics::add_snapshot`], and the
/// [`COUNTERS`] table. All of them keep declaration order, which is also
/// the order of a report's keys.
macro_rules! counters {
    ($($name:ident: $doc:literal,)+) => {
        /// Shared counter block for one logical run (a CLI command, an
        /// eval experiment, a test solve). Cheap to share via `Arc`; all
        /// updates are relaxed atomic adds.
        #[derive(Debug, Default)]
        pub struct SolverMetrics {
            $(#[doc = $doc] pub $name: AtomicU64,)+
        }

        /// Frozen [`SolverMetrics`] counters: plain data, serialisable,
        /// and comparable (the parallel-equals-sequential metrics test
        /// relies on `PartialEq`). A counter missing from a stored report
        /// reads as 0, and a key this build does not know is ignored.
        #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $(#[doc = $doc] #[serde(default)] pub $name: u64,)+
        }

        impl SolverMetrics {
            /// Freeze the counters into a plain-data snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }

            /// Add every counter of `snapshot` into this block (an eval
            /// experiment's totals into the whole run's collector).
            pub fn add_snapshot(&self, snapshot: &MetricsSnapshot) {
                $(Self::add(&self.$name, snapshot.$name);)+
            }
        }

        /// Every counter's name and meaning, in declaration order; the
        /// counter table of ARCHITECTURE.md §7 is checked against it.
        pub const COUNTERS: &[(&str, &str)] = &[$((stringify!($name), $doc),)+];
    };
}

counters! {
    nomp_pursuits: "NOMP pursuits started: one per `nomp_path` call, plus one per regression \
        answered from a per-item answer memo.",
    nomp_iterations: "Greedy atom-selection iterations across all pursuits.",
    path_snapshots: "Budget snapshots recorded by path-mode pursuits (one per ℓ).",
    gram_cache_hits: "Refits served from the incrementally maintained Gram cache (every refit \
        after the first within a pursuit).",
    nnls_refits: "NNLS refits performed (one per accepted atom).",
    nnls_iterations: "Outer Lawson–Hanson iterations summed over all refits.",
    nnls_cap_hits: "Refits that hit the 3n+10 outer-iteration cap without converging.",
    fallback_qr: "Gram solves that fell back from Cholesky to Householder QR.",
    fallback_ridge: "Gram solves that fell through QR to the ridge-regularised retry.",
    integer_regressions: "Per-item integer regressions solved (the inner problem of Algorithm 1).",
    alternation_rounds: "Per-item Gauss–Seidel steps in the CompaReSetS+ alternation.",
    alternation_accepts: "Alternation steps whose candidate improved the coupled cost.",
    pursuit_nanos: "Wall nanoseconds inside NOMP pursuits (greedy loop plus refits).",
    refit_nanos: "Wall nanoseconds inside NNLS refits (a subset of the pursuit time).",
    cancellation_checks: "Cancellation-token polls (counted only when a token is installed).",
    deadline_expirations: "Solves that saw a fired token or deadline and stopped early with \
        their best-so-far iterate.",
    io_retries: "Transient ingestion I/O errors absorbed by the retrying reader.",
    warm_start_hits: "Pursuit iterations answered from a per-item answer memo instead of run: a \
        regression whose inputs repeat bit for bit counts the iterations of the pursuit it \
        replaces, here and among the pursuit iterations, with no NNLS refit.",
    corr_incremental_updates: "Retired, always 0: counted the Gram-downdate updates of the \
        incremental correlation vector that the answer memo replaced.",
    corr_exact_recomputes: "Retired, always 0: counted the exact `Aᵀr` recomputes that bounded \
        the incremental correlations' drift.",
    serve_requests: "Requests the serving daemon dispatched, of every op.",
    serve_full_hits: "Solve requests answered verbatim from the session cache's result layer: \
        an exact repeat of a completed query, with no solver work.",
    serve_warm_hits: "Solve requests that found per-item warm states in the session cache and \
        solved through them instead of from scratch.",
    serve_cache_misses: "Solve requests that found nothing reusable and solved cold.",
    serve_cache_evictions: "Session-cache entries evicted by the LRU capacity bound (result, \
        context and warm-state entries all count).",
    serve_degraded: "Requests answered with a degraded best-so-far selection because their \
        admission deadline expired mid-solve.",
    wal_appends: "Review events appended to a write-ahead log (one per record, even when a \
        batch shares one fsync).",
    wal_fsyncs: "`fsync` calls issued for WAL durability (one per acknowledged batch: the \
        fsync-on-ack contract).",
    snapshot_writes: "Corpus snapshots written atomically (each also compacts the WAL it \
        covers).",
    recovery_replayed_records: "WAL records replayed on top of a snapshot during crash \
        recovery.",
    cache_invalidations: "Session-cache entries dropped because an ingested event mutated an \
        item they were keyed on.",
    bnb_nodes: "TargetHkS branch-and-bound nodes expanded by all workers (equals \
        `ExactResult.nodes`).",
    bnb_prunes: "Subtrees discarded because their admissible upper bound could not beat the \
        shared incumbent.",
    bnb_incumbent_updates: "Strict improvements published to the shared incumbent (the greedy \
        warm start seeds it and does not count).",
    bnb_steals: "Frontier subproblems a worker pulled that a different worker produced (always \
        0 with one worker).",
    faults_injected: "Faults a chaos-plane schedule injected into durability I/O (always 0 in \
        production, where no plane is armed).",
    drain_initiated: "Graceful drains begun (SIGTERM or in-band shutdown while serving).",
    connections_timed_out: "Connections closed for blowing a read, write or per-frame deadline \
        (slowloris peers, stalled sockets).",
    health_checks: "`health` ops answered by the serving daemon.",
    sparse_corr_scans: "Full correlation scans (`c = Aᵀr`) run by NOMP pursuits on any backend \
        (the solvers build CSC, whose scan walks stored entries only).",
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

/// Line subscriber behind [`init_stderr_tracing`]: one line per event,
/// one line per closed span (with busy time in microseconds), each
/// written to the handle the wrapped function returns
/// (`std::io::stderr`). A failed write, such as to a closed stderr,
/// drops the line, as the CLI's own output does.
struct LineSubscriber<F>(F);

impl<F, W> tracing::Subscriber for LineSubscriber<F>
where
    F: Fn() -> W + Send + Sync,
    W: Write,
{
    fn event(&self, level: tracing::Level, target: &str, message: &str) {
        let _ = writeln!((self.0)(), "{level:>5} {target}: {message}");
    }

    fn span_close(
        &self,
        level: tracing::Level,
        target: &str,
        name: &str,
        fields: &str,
        busy: Duration,
    ) {
        let _ = writeln!(
            (self.0)(),
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
    let _ = tracing::subscriber::set_global_default(LineSubscriber(std::io::stderr));
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

    /// A pipe whose reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn trace_lines_to_a_closed_stderr_are_dropped() {
        use tracing::Subscriber as _;
        let closed = LineSubscriber(|| ClosedPipe);
        closed.event(tracing::Level::INFO, "cli", "select done");
        closed.span_close(tracing::Level::INFO, "cli", "solve", " m=3", Duration::ZERO);

        let lines = std::sync::Mutex::new(Vec::new());
        let open = LineSubscriber(|| LockedVec(&lines));
        open.event(tracing::Level::INFO, "cli", "select done");
        open.span_close(
            tracing::Level::DEBUG,
            "core",
            "solve",
            " m=3",
            Duration::from_micros(12),
        );
        assert_eq!(
            String::from_utf8(lines.into_inner().unwrap()).unwrap(),
            " INFO cli: select done\nDEBUG core: close solve m=3 busy=12.0us\n"
        );
    }

    /// A writer appending to a shared buffer.
    struct LockedVec<'a>(&'a std::sync::Mutex<Vec<u8>>);

    impl Write for LockedVec<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
