//! Metrics-correctness tests at the solver level: attaching a collector
//! never changes a selection, and the counters obey the structural
//! identities of the solve path.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use comparesets_core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
    SolverMetrics,
};
use comparesets_data::CategoryPreset;

fn contexts() -> Vec<InstanceContext> {
    let dataset = CategoryPreset::Cellphone.config(120, 11).generate();
    dataset
        .instances()
        .into_iter()
        .take(4)
        .map(|inst| InstanceContext::build(&dataset, &inst.truncated(5), OpinionScheme::Binary))
        .collect()
}

fn run_all(
    ctxs: &[InstanceContext],
    algorithm: Algorithm,
    opts: &SolveOptions,
) -> Vec<Vec<comparesets_core::Selection>> {
    let params = SelectParams::default();
    ctxs.iter()
        .map(|ctx| solve_with(ctx, algorithm, &params, 42, opts))
        .collect()
}

#[test]
fn attaching_a_collector_does_not_change_selections() {
    let ctxs = contexts();
    for algorithm in [
        Algorithm::Crs,
        Algorithm::CompareSets,
        Algorithm::CompareSetsPlus,
    ] {
        let plain = run_all(&ctxs, algorithm, &SolveOptions::default());
        let metrics = Arc::new(SolverMetrics::new());
        let metered_opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
        let metered = run_all(&ctxs, algorithm, &metered_opts);
        assert_eq!(plain, metered, "{algorithm:?} selections drifted");
        assert!(
            metrics.snapshot().nomp_pursuits > 0,
            "{algorithm:?} did not report any pursuit"
        );
    }
}

#[test]
fn counters_obey_solve_path_identities() {
    let ctxs = contexts();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
    run_all(&ctxs, Algorithm::CompareSetsPlus, &opts);
    let snap = metrics.snapshot();

    // Every integer regression runs exactly one budget-path pursuit (an
    // answer-memo hit still counts as the pursuit it replaces).
    assert_eq!(snap.nomp_pursuits, snap.integer_regressions);
    // One NNLS refit per accepted atom, except the iterations a memo hit
    // replays, which refit nothing.
    assert_eq!(
        snap.nnls_refits,
        snap.nomp_iterations - snap.warm_start_hits
    );
    // The Gram cache serves every executed refit whose support was
    // already non-empty; the first refit of each pursuit never hits it.
    assert!(snap.gram_cache_hits <= snap.nnls_refits);
    assert!(snap.gram_cache_hits + snap.nomp_pursuits >= snap.nnls_refits);
    // Path mode snapshots one result per budget ℓ = 1..=l_max per
    // pursuit, where l_max ≤ m (items with fewer reviews cap it lower).
    assert!(snap.path_snapshots >= snap.nomp_pursuits);
    assert!(snap.path_snapshots <= snap.nomp_pursuits * 3);
    // CompaReSetS+ alternation: accepts are a subset of rounds, and every
    // alternation round solved one regression beyond the warm start.
    assert!(snap.alternation_rounds > 0);
    assert!(snap.alternation_accepts <= snap.alternation_rounds);
    assert!(snap.integer_regressions >= snap.alternation_rounds);
    // The refit clock is contained in the pursuit clock.
    assert!(snap.pursuit_nanos >= snap.refit_nanos);
}

#[test]
fn random_and_greedy_baselines_report_no_solver_work() {
    let ctxs = contexts();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
    run_all(&ctxs, Algorithm::Random, &opts);
    run_all(&ctxs, Algorithm::CompareSetsGreedy, &opts);
    assert!(
        metrics.snapshot().is_empty(),
        "non-regression baselines must not touch the solver counters"
    );
}
