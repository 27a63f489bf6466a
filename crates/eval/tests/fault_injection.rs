//! Fault injection at the pipeline level: the reproduction suite must
//! complete — producing output for every healthy experiment — even when an
//! injected experiment panics mid-run.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_eval::{run_suite, select_experiments, EvalConfig, Experiment, ExperimentOutcome};

/// A real experiment on either side of an injected failure: the suite
/// records the failure and still renders both healthy outputs.
#[test]
fn pipeline_completes_with_an_injected_failing_experiment() {
    let cfg = EvalConfig::tiny();
    let experiments = vec![
        Experiment::new("table2", "Table 2 — data statistics", |cfg| {
            comparesets_eval::table2::run(cfg).render()
        }),
        Experiment::new("poisoned", "injected numerical fault", |_| {
            // Simulate a solver blow-up deep inside an experiment.
            panic!("injected: non-finite value (NaN or Inf) in nomp rhs")
        }),
        Experiment::new("fig5", "Figure 5 — λ and μ sweeps", |cfg| {
            comparesets_eval::fig5::run(cfg).render()
        }),
    ];
    let report = run_suite(&experiments, &cfg, None, false).unwrap();

    assert_eq!(report.outcomes.len(), 3, "all experiments attempted");
    assert_eq!(report.completed(), 2, "healthy experiments completed");

    // The failure is recorded by name with the panic text preserved.
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, "poisoned");
    assert!(failures[0].1.contains("non-finite"), "{}", failures[0].1);

    // The experiment *after* the failure still produced output.
    assert!(matches!(
        &report.outcomes[2].1,
        ExperimentOutcome::Completed(text) if !text.is_empty()
    ));

    // The rendered report carries both outputs and the failure summary.
    let rendered = report.render();
    assert!(rendered.contains("2/3 experiments completed"), "{rendered}");
    assert!(rendered.contains("FAILED poisoned"), "{rendered}");
}

/// The default run stays aligned with the paper's eleven tables and
/// figures, so `comparesets eval` with no `--experiments` runs them all.
#[test]
fn default_run_covers_the_full_reproduction_pass() {
    let suite = select_experiments(None).unwrap();
    let names: Vec<_> = suite.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        vec![
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "fig5",
            "fig6",
            "fig7",
            "fig11",
            "casestudy",
        ]
    );
}
