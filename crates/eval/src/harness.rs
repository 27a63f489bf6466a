//! Fault-tolerant experiment runner.
//!
//! A full reproduction pass runs eleven independent experiments; one
//! degenerate experiment (a panic deep in a solver, a poisoned dataset)
//! must not take the other ten down with it. [`run_suite`] executes each
//! experiment behind a panic boundary, records the outcome, and returns a
//! [`SuiteReport`] that renders every successful table/figure plus a
//! failure summary — the pipeline always completes.
//!
//! See the "Error handling & degradation policy" section of
//! ARCHITECTURE.md for where this layer sits in the overall ladder.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use comparesets_core::{CancelToken, MetricsReport, MetricsSnapshot, SolverMetrics};

use crate::checkpoint::{
    code_fingerprint, config_fingerprint, CheckpointStore, ExperimentRecord, Resume,
    SuiteCheckpoint,
};
use crate::EvalConfig;

/// One experiment of the reproduction pass: a display name plus a runner
/// producing the rendered table/figure text.
pub struct Experiment {
    /// Name as shown in the report (e.g. `"table3"`).
    pub name: &'static str,
    /// What the experiment reproduces (e.g. `"Table 3 — review alignment"`).
    pub title: &'static str,
    runner: Box<dyn Fn(&EvalConfig) -> String + Send>,
}

impl Experiment {
    /// Wrap a rendering closure as a named experiment.
    pub fn new(
        name: &'static str,
        title: &'static str,
        runner: impl Fn(&EvalConfig) -> String + Send + 'static,
    ) -> Self {
        Experiment {
            name,
            title,
            runner: Box::new(runner),
        }
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

/// What happened when one experiment ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentOutcome {
    /// The experiment completed; the rendered output is attached.
    Completed(String),
    /// The experiment panicked; the payload (downcast to text when
    /// possible) is attached.
    Failed(String),
}

impl ExperimentOutcome {
    /// True for [`ExperimentOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ExperimentOutcome::Completed(_))
    }
}

/// Wall time and solver counters recorded for one experiment run, whether
/// it completed or failed. `run_suite` installs a fresh collector into the
/// experiment's `EvalConfig::solve_options` so the counters cover exactly
/// that experiment's solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentTiming {
    /// Experiment name (matches the corresponding outcome entry).
    pub name: &'static str,
    /// End-to-end wall nanoseconds for the experiment.
    pub wall_nanos: u64,
    /// Frozen solver counters for the experiment's solves.
    pub metrics: MetricsSnapshot,
}

impl ExperimentTiming {
    /// Wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_nanos as f64 / 1e6
    }

    /// This timing as a standalone machine-readable report (same shape as
    /// the CLI's `--metrics-json` output).
    pub fn report(&self) -> MetricsReport {
        MetricsReport::from_snapshot(
            self.name,
            Duration::from_nanos(self.wall_nanos),
            self.metrics.clone(),
        )
    }
}

/// The result of a full suite run: per-experiment outcomes in run order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteReport {
    /// `(experiment name, outcome)` pairs, one per experiment, in order.
    pub outcomes: Vec<(&'static str, ExperimentOutcome)>,
    /// Per-experiment wall time and solver counters, parallel to
    /// `outcomes` — the suite's performance trail.
    pub timings: Vec<ExperimentTiming>,
}

impl SuiteReport {
    /// Number of experiments that completed.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.is_completed())
            .count()
    }

    /// Names and messages of the experiments that failed, in run order.
    pub fn failures(&self) -> Vec<(&'static str, &str)> {
        self.outcomes
            .iter()
            .filter_map(|(name, o)| match o {
                ExperimentOutcome::Failed(msg) => Some((*name, msg.as_str())),
                ExperimentOutcome::Completed(_) => None,
            })
            .collect()
    }

    /// True when every experiment completed.
    pub fn all_completed(&self) -> bool {
        self.completed() == self.outcomes.len()
    }

    /// Render the full report: each successful experiment's output in run
    /// order, then a summary block listing any failures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (_, outcome) in &self.outcomes {
            if let ExperimentOutcome::Completed(text) = outcome {
                out.push_str(text);
                out.push_str("\n\n");
            }
        }
        out.push_str(&self.render_summary());
        out
    }

    /// Render only the summary block: completion counts, failures, then
    /// the per-experiment performance trail.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "== suite summary: {}/{} experiments completed ==\n",
            self.completed(),
            self.outcomes.len()
        );
        for (name, msg) in self.failures() {
            out.push_str(&format!("FAILED {name}: {msg}\n"));
        }
        for t in &self.timings {
            out.push_str(&format!(
                "{:<10} {:>9.1} ms | pursuits {:>6} | regressions {:>5} | fallbacks {} | cap hits {}\n",
                t.name,
                t.wall_ms(),
                t.metrics.nomp_pursuits,
                t.metrics.integer_regressions,
                t.metrics.fallback_qr + t.metrics.fallback_ridge,
                t.metrics.nnls_cap_hits,
            ));
        }
        out
    }

    /// Render the deterministic portion of the report: every experiment's
    /// output plus a summary whose performance trail carries solver
    /// counters but **no wall-clock columns**. Two runs over the same
    /// configuration produce byte-identical output from this renderer
    /// (provided the selected experiments do not themselves measure wall
    /// time, as `fig7` does) — it is the artifact the kill-and-resume
    /// end-to-end test compares.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        for (_, outcome) in &self.outcomes {
            if let ExperimentOutcome::Completed(text) = outcome {
                out.push_str(text);
                out.push_str("\n\n");
            }
        }
        out.push_str(&format!(
            "== suite summary: {}/{} experiments completed ==\n",
            self.completed(),
            self.outcomes.len()
        ));
        for (name, msg) in self.failures() {
            out.push_str(&format!("FAILED {name}: {msg}\n"));
        }
        for t in &self.timings {
            out.push_str(&format!(
                "{:<10} pursuits {:>6} | regressions {:>5} | fallbacks {} | cap hits {}\n",
                t.name,
                t.metrics.nomp_pursuits,
                t.metrics.integer_regressions,
                t.metrics.fallback_qr + t.metrics.fallback_ridge,
                t.metrics.nnls_cap_hits,
            ));
        }
        out
    }
}

/// Turn a panic payload into readable text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one experiment behind the panic boundary with a fresh metrics
/// collector, returning its outcome and timing.
fn run_one(exp: &Experiment, cfg: &EvalConfig) -> (ExperimentOutcome, ExperimentTiming) {
    let collector = Arc::new(SolverMetrics::new());
    let mut exp_cfg = cfg.clone();
    exp_cfg.solve_options.metrics = Some(Arc::clone(&collector));
    let span = tracing::info_span!("experiment", name = exp.name);
    let span_guard = span.enter();
    let started = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(|| (exp.runner)(&exp_cfg))) {
        Ok(text) => ExperimentOutcome::Completed(text),
        Err(payload) => {
            let msg = panic_message(payload);
            tracing::error!("experiment {} failed: {msg}", exp.name);
            ExperimentOutcome::Failed(msg)
        }
    };
    let wall = started.elapsed();
    drop(span_guard);
    let timing = ExperimentTiming {
        name: exp.name,
        wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        metrics: collector.snapshot(),
    };
    (outcome, timing)
}

/// True when the configuration carries a cancellation token that has
/// fired — any experiment finishing under it may hold best-so-far
/// (deadline-degraded) output.
fn deadline_fired(cfg: &EvalConfig) -> bool {
    cfg.solve_options
        .cancel
        .as_deref()
        .is_some_and(CancelToken::fired)
}

/// Run every experiment, isolating panics per experiment. The returned
/// report always covers all experiments; a failure in one never aborts the
/// suite.
///
/// Each experiment runs against a copy of `cfg` with a fresh
/// [`SolverMetrics`] collector installed, so [`SuiteReport::timings`]
/// attributes wall time and solver counters per experiment (a collector
/// the caller pre-installed in `cfg.solve_options` is shadowed).
pub fn run_suite(experiments: &[Experiment], cfg: &EvalConfig) -> SuiteReport {
    let mut outcomes = Vec::with_capacity(experiments.len());
    let mut timings = Vec::with_capacity(experiments.len());
    for exp in experiments {
        let (outcome, timing) = run_one(exp, cfg);
        timings.push(timing);
        outcomes.push((exp.name, outcome));
    }
    SuiteReport { outcomes, timings }
}

/// [`run_suite`] with crash-safe checkpointing: after every experiment the
/// suite state is atomically persisted to `store`, and with `resume = true`
/// a matching checkpoint's experiments are restored (exact text, counters,
/// and original wall time) instead of recomputed. A killed run resumed
/// this way produces a report whose [`SuiteReport::render_stable`] output
/// is byte-identical to an uninterrupted run's.
///
/// Two safety rules:
///
/// * A checkpoint taken under a different configuration or build is
///   discarded with a warning — never stitched into the new run.
/// * An experiment that finished while the configuration's cancellation
///   token was fired is **not** persisted: its output is
///   deadline-degraded, and a resume must recompute it at full quality.
///
/// # Errors
/// Propagates filesystem errors from loading or saving the checkpoint.
/// Experiment panics are still isolated per experiment, exactly as in
/// [`run_suite`].
pub fn run_suite_checkpointed(
    experiments: &[Experiment],
    cfg: &EvalConfig,
    store: &CheckpointStore,
    resume: bool,
) -> io::Result<SuiteReport> {
    let config_fp = config_fingerprint(cfg);
    let code_fp = code_fingerprint();
    let restored: SuiteCheckpoint = if resume {
        match store.load(&config_fp, &code_fp)? {
            Resume::Valid(ckpt) => {
                tracing::info!(
                    "resuming from checkpoint: {} experiment(s) already complete",
                    ckpt.experiments.len()
                );
                ckpt
            }
            Resume::Stale { reason } => {
                tracing::warn!("discarding stale checkpoint ({reason}); starting fresh");
                SuiteCheckpoint::empty(config_fp.clone(), code_fp.clone())
            }
            Resume::Fresh => SuiteCheckpoint::empty(config_fp.clone(), code_fp.clone()),
        }
    } else {
        SuiteCheckpoint::empty(config_fp.clone(), code_fp.clone())
    };

    let mut ckpt = SuiteCheckpoint::empty(config_fp, code_fp);
    let by_name = restored.by_name();
    let mut outcomes = Vec::with_capacity(experiments.len());
    let mut timings = Vec::with_capacity(experiments.len());
    for exp in experiments {
        if let Some(rec) = by_name.get(exp.name) {
            tracing::info!("experiment {} restored from checkpoint", exp.name);
            let outcome = if rec.completed {
                ExperimentOutcome::Completed(rec.text.clone())
            } else {
                ExperimentOutcome::Failed(rec.text.clone())
            };
            timings.push(ExperimentTiming {
                name: exp.name,
                wall_nanos: rec.wall_nanos,
                metrics: rec.metrics.clone(),
            });
            outcomes.push((exp.name, outcome));
            ckpt.experiments.push((*rec).clone());
            continue;
        }
        let (outcome, timing) = run_one(exp, cfg);
        if deadline_fired(cfg) {
            tracing::warn!(
                "experiment {} ran under a fired deadline; not checkpointing its output",
                exp.name
            );
        } else {
            let (completed, text) = match &outcome {
                ExperimentOutcome::Completed(t) => (true, t.clone()),
                ExperimentOutcome::Failed(t) => (false, t.clone()),
            };
            ckpt.experiments.push(ExperimentRecord {
                name: exp.name.to_string(),
                completed,
                text,
                wall_nanos: timing.wall_nanos,
                metrics: timing.metrics.clone(),
            });
            store.save(&ckpt)?;
        }
        timings.push(timing);
        outcomes.push((exp.name, outcome));
    }
    Ok(SuiteReport { outcomes, timings })
}

/// The paper's full reproduction pass: every table and figure of §4, in
/// the order the paper presents them.
pub fn standard_suite() -> Vec<Experiment> {
    vec![
        Experiment::new("table2", "Table 2 — data statistics", |cfg| {
            crate::table2::run(cfg).render()
        }),
        Experiment::new("table3", "Table 3 — review alignment", |cfg| {
            crate::table3::run(cfg).render()
        }),
        Experiment::new("table4", "Table 4 — opinion definitions", |cfg| {
            crate::table4::run(cfg).render()
        }),
        Experiment::new("table5", "Table 5 — TargetHkS optimality", |cfg| {
            crate::table5::run(cfg).render()
        }),
        Experiment::new("table6", "Table 6 — core-list narrowing", |cfg| {
            crate::table6::run(cfg).render()
        }),
        Experiment::new("table7", "Table 7 — simulated user study", |cfg| {
            crate::table7::run(cfg).render()
        }),
        Experiment::new("fig5", "Figure 5 — λ and μ sweeps", |cfg| {
            crate::fig5::run(cfg).render()
        }),
        Experiment::new("fig6", "Figure 6 — gap vs. review count", |cfg| {
            crate::fig6::run(cfg).render()
        }),
        Experiment::new("fig7", "Figure 7 — runtime scaling", |cfg| {
            crate::fig7::run(cfg).render()
        }),
        Experiment::new("fig11", "Figure 11 — information loss", |cfg| {
            crate::fig11::run(cfg).render()
        }),
        Experiment::new("casestudy", "Figures 8–10 — case study", |cfg| {
            let cases = crate::casestudy::run(cfg);
            crate::casestudy::render(&cases)
        }),
    ]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn suite_records_panics_without_aborting() {
        let experiments = vec![
            Experiment::new("ok", "fine", |_| "output".to_string()),
            Experiment::new("boom", "panics", |_| panic!("injected failure")),
            Experiment::new("after", "still runs", |_| "later".to_string()),
        ];
        let report = run_suite(&experiments, &EvalConfig::tiny());
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.completed(), 2);
        assert!(!report.all_completed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "boom");
        assert!(failures[0].1.contains("injected failure"));
        let rendered = report.render();
        assert!(rendered.contains("output"));
        assert!(rendered.contains("later"));
        assert!(rendered.contains("2/3 experiments completed"));
        assert!(rendered.contains("FAILED boom: injected failure"));
    }

    #[test]
    fn suite_records_per_experiment_timings_and_metrics() {
        let experiments = vec![
            Experiment::new("solve", "runs real regressions", |cfg| {
                let ds = crate::pipeline::dataset_for(comparesets_data::CategoryPreset::Toy, cfg);
                let instances = crate::pipeline::prepare_instances(&ds, cfg);
                let sols = crate::pipeline::run_algorithm_cfg(
                    &instances[..1],
                    comparesets_core::Algorithm::CompareSets,
                    &comparesets_core::SelectParams::default(),
                    cfg,
                );
                format!("{} instances", sols.len())
            }),
            Experiment::new("idle", "no solver work", |_| "idle".to_string()),
        ];
        let report = run_suite(&experiments, &EvalConfig::tiny());
        assert!(report.all_completed());
        assert_eq!(report.timings.len(), 2);
        assert_eq!(report.timings[0].name, "solve");
        // The solving experiment exercised the instrumented hot path...
        assert!(report.timings[0].metrics.nomp_pursuits > 0);
        assert!(report.timings[0].metrics.integer_regressions > 0);
        assert!(report.timings[0].wall_nanos > 0);
        // ...while the idle one recorded wall time but no solver work.
        assert!(report.timings[1].metrics.is_empty());
        // Each timing converts into a valid standalone report.
        let standalone = report.timings[0].report();
        assert!(standalone.schema_matches());
        assert_eq!(standalone.command, "solve");
        // The rendered summary carries the performance trail.
        let summary = report.render_summary();
        assert!(summary.contains("pursuits"), "{summary}");
    }

    #[test]
    fn checkpointed_resume_skips_completed_experiments_and_matches_stable_render() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let dir = comparesets_data::TempDir::new("harness_ckpt").unwrap();
        let store = CheckpointStore::new(dir.path());
        let cfg = EvalConfig::tiny();

        static RUNS_A: AtomicUsize = AtomicUsize::new(0);
        static RUNS_B: AtomicUsize = AtomicUsize::new(0);
        let experiments = || {
            vec![
                Experiment::new("first", "counts runs", |_| {
                    RUNS_A.fetch_add(1, Ordering::SeqCst);
                    "first output".to_string()
                }),
                Experiment::new("second", "counts runs", |_| {
                    RUNS_B.fetch_add(1, Ordering::SeqCst);
                    "second output".to_string()
                }),
            ]
        };

        // Uninterrupted run: both experiments execute, checkpoint persists.
        let full = run_suite_checkpointed(&experiments(), &cfg, &store, false).unwrap();
        assert!(full.all_completed());
        assert_eq!(RUNS_A.load(Ordering::SeqCst), 1);
        assert_eq!(RUNS_B.load(Ordering::SeqCst), 1);

        // Resume against the complete checkpoint: nothing re-runs, and the
        // deterministic render is byte-identical.
        let resumed = run_suite_checkpointed(&experiments(), &cfg, &store, true).unwrap();
        assert_eq!(RUNS_A.load(Ordering::SeqCst), 1, "first re-ran");
        assert_eq!(RUNS_B.load(Ordering::SeqCst), 1, "second re-ran");
        assert_eq!(full.render_stable(), resumed.render_stable());
        // Restored timings carry the original wall time, so even the full
        // render matches here.
        assert_eq!(full.render(), resumed.render());

        // Without --resume the checkpoint is ignored and overwritten.
        let fresh = run_suite_checkpointed(&experiments(), &cfg, &store, false).unwrap();
        assert_eq!(RUNS_A.load(Ordering::SeqCst), 2);
        assert_eq!(RUNS_B.load(Ordering::SeqCst), 2);
        assert_eq!(full.render_stable(), fresh.render_stable());
    }

    #[test]
    fn checkpointed_run_skips_persisting_under_a_fired_deadline() {
        let dir = comparesets_data::TempDir::new("harness_deadline").unwrap();
        let store = CheckpointStore::new(dir.path());
        let mut cfg = EvalConfig::tiny();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        cfg.solve_options.cancel = Some(Arc::clone(&token));

        let experiments = vec![Experiment::new("degraded", "deadline", |_| {
            "out".to_string()
        })];
        let report = run_suite_checkpointed(&experiments, &cfg, &store, false).unwrap();
        // The run itself still reports the (degraded) outcome...
        assert!(report.all_completed());
        // ...but nothing was persisted: a resume must recompute it.
        assert!(
            !store.path().exists(),
            "deadline-degraded output must not be checkpointed"
        );
    }

    #[test]
    fn stable_render_drops_wall_clock_but_keeps_counters() {
        let experiments = vec![Experiment::new("ok", "fine", |_| "output".to_string())];
        let report = run_suite(&experiments, &EvalConfig::tiny());
        let stable = report.render_stable();
        assert!(stable.contains("output"));
        assert!(stable.contains("pursuits"));
        assert!(!stable.contains(" ms |"), "wall clock leaked: {stable}");
    }

    #[test]
    fn standard_suite_lists_every_experiment_once() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 11);
        let mut names: Vec<_> = suite.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate experiment names");
    }
}
