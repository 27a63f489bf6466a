//! Warm-start pinning tests: carrying per-item answer memos across
//! alternating sweeps, and across calls, must never change a selection.
//! Every solver that threads [`RegressionWarm`] state is compared
//! byte-for-byte against its cold-start twin, sequentially and in
//! parallel, and the `warm_start_hits` counter is checked to actually
//! fire on multi-sweep workloads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use comparesets_core::{
    solve_comparesets_plus_checked, solve_comparesets_plus_sweeps_warm_with,
    solve_comparesets_plus_sweeps_with, solve_comparesets_with, solve_crs_with, IncrementalSession,
    InstanceContext, Item, OpinionScheme, RegressionWarm, ReviewFeature, SelectParams, Selection,
    SolveOptions, SolverMetrics,
};
use comparesets_data::{CategoryPreset, Polarity, ProductId, ReviewId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn contexts() -> Vec<InstanceContext> {
    let dataset = CategoryPreset::Cellphone.config(120, 29).generate();
    dataset
        .instances()
        .into_iter()
        .take(3)
        .map(|inst| InstanceContext::build(&dataset, &inst.truncated(5), OpinionScheme::Binary))
        .collect()
}

fn cold() -> SolveOptions {
    SolveOptions::default().with_warm_start(false)
}

#[test]
fn warm_start_defaults_on_and_the_builder_flips_it() {
    assert!(SolveOptions::default().warm_start);
    assert!(SolveOptions::parallel().warm_start);
    assert!(!cold().warm_start);
}

#[test]
fn warm_sweeps_select_identically_to_cold_sweeps() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        for sweeps in 1..=4 {
            for opts in [SolveOptions::sequential(), SolveOptions::with_threads(2)] {
                let warm = solve_comparesets_plus_sweeps_with(ctx, &params, sweeps, &opts);
                let coldsel = solve_comparesets_plus_sweeps_with(
                    ctx,
                    &params,
                    sweeps,
                    &opts.clone().with_warm_start(false),
                );
                assert_eq!(warm, coldsel, "sweeps={sweeps} drifted under warm starts");
            }
        }
    }
}

#[test]
fn warm_equals_cold_on_every_backend() {
    // The warm==cold identity must hold whether the design matrices are
    // dense, CSC, or auto-selected — memo hits may change nothing but
    // wall-clock (crates/core/tests/backend_equivalence.rs pins
    // cross-backend identity; this pins warm==cold per backend).
    use comparesets_core::MatrixBackend;
    let params = SelectParams::default();
    for ctx in &contexts() {
        for backend in [MatrixBackend::Dense, MatrixBackend::Sparse] {
            for sweeps in [1, 3] {
                let opts = SolveOptions::default().with_backend(backend);
                let warm = solve_comparesets_plus_sweeps_with(ctx, &params, sweeps, &opts);
                let coldsel = solve_comparesets_plus_sweeps_with(
                    ctx,
                    &params,
                    sweeps,
                    &opts.clone().with_warm_start(false),
                );
                assert_eq!(
                    warm, coldsel,
                    "warm drifted from cold on {backend:?} at sweeps={sweeps}"
                );
            }
        }
    }
}

#[test]
fn checked_warm_sweeps_select_identically_to_cold_sweeps() {
    let params = SelectParams::default();
    for ctx in &contexts() {
        for sweeps in [1, 3] {
            let warm: Vec<Selection> =
                solve_comparesets_plus_checked(ctx, &params, sweeps, &SolveOptions::default())
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
            let coldsel: Vec<Selection> =
                solve_comparesets_plus_checked(ctx, &params, sweeps, &cold())
                    .unwrap()
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
            assert_eq!(warm, coldsel, "checked sweeps={sweeps} drifted");
        }
    }
}

#[test]
fn pooled_parallel_fanout_matches_sequential_exactly() {
    // The rayon fan-outs now borrow thread-local pooled workspaces; the
    // pooling must be invisible in the results of every batch solver.
    let params = SelectParams::default();
    for ctx in &contexts() {
        let seq = SolveOptions::sequential();
        let par = SolveOptions::with_threads(2);
        assert_eq!(
            solve_comparesets_with(ctx, &params, &seq),
            solve_comparesets_with(ctx, &params, &par),
        );
        assert_eq!(solve_crs_with(ctx, 3, &seq), solve_crs_with(ctx, 3, &par));
    }
}

#[test]
fn incremental_session_with_warm_starts_matches_cold_session() {
    let ctx = contexts().into_iter().next().unwrap();
    let params = SelectParams::default();
    let mut warm = IncrementalSession::with_options(ctx.clone(), params, SolveOptions::default());
    let mut coldsess = IncrementalSession::with_options(ctx, params, cold());
    assert_eq!(warm.selections(), coldsess.selections());

    for k in 0..6u32 {
        let item = (k % 3) as usize;
        let id = ReviewId(800_000 + k);
        let pol = if k % 2 == 0 {
            Polarity::Positive
        } else {
            Polarity::Negative
        };
        let feature = ReviewFeature::new(vec![((k % 4) as usize, pol)]);
        warm.add_review(item, id, feature.clone());
        coldsess.add_review(item, id, feature);
        assert_eq!(
            warm.selections(),
            coldsess.selections(),
            "selections drifted after ingest #{k}"
        );
    }

    warm.refresh();
    coldsess.refresh();
    assert_eq!(warm.selections(), coldsess.selections());
}

#[test]
fn warm_counters_fire_on_multi_sweep_solves_and_identities_hold() {
    let params = SelectParams::default();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::default().with_metrics(Arc::clone(&metrics));
    for ctx in &contexts() {
        solve_comparesets_plus_sweeps_with(ctx, &params, 4, &opts);
    }
    let snap = metrics.snapshot();
    assert!(
        snap.warm_start_hits > 0,
        "multi-sweep alternation never reused a warm trajectory"
    );
    assert_eq!(
        snap.nnls_refits,
        snap.nomp_iterations - snap.warm_start_hits
    );
    assert_eq!(snap.nomp_pursuits, snap.integer_regressions);
    assert!(snap.gram_cache_hits <= snap.nnls_refits);
}

#[test]
fn cold_solves_never_touch_the_warm_counters() {
    let params = SelectParams::default();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = cold().with_metrics(Arc::clone(&metrics));
    for ctx in &contexts() {
        solve_comparesets_plus_sweeps_with(ctx, &params, 3, &opts);
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.warm_start_hits, 0);
    assert_eq!(snap.warm_start_truncations, 0);
    assert_eq!(snap.corr_incremental_updates, 0);
    assert_eq!(snap.corr_exact_recomputes, 0);
    assert_eq!(snap.nnls_refits, snap.nomp_iterations);
}

/// Two items; item 1's reviews mention no aspect, so φ(S₁) is zero under
/// every selection and item 0's stacked target `[τ₀; λΓ; μφ(S₁)]` is the
/// same for every μ, while its design matrix and objective are not.
fn zero_coupling_context(seed: u64) -> InstanceContext {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let z = 4;
    let reviews = (0..rng.random_range(3..9u32))
        .map(|r| {
            let mentions = (0..rng.random_range(1..4))
                .map(|_| {
                    let polarity = if rng.random_bool(0.5) {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    };
                    (rng.random_range(0..z), polarity)
                })
                .collect();
            (ReviewId(r), mentions)
        })
        .collect();
    let silent = (0..3).map(|r| (ReviewId(100 + r), Vec::new())).collect();
    let items = vec![
        Item::from_mentions(ProductId(0), reviews),
        Item::from_mentions(ProductId(1), silent),
    ];
    InstanceContext::from_items(z, items, OpinionScheme::Binary)
}

#[test]
fn memos_from_another_mu_never_answer() {
    // A memo keyed on the stacked target alone would serve item 0 the
    // answer computed under the first μ: the target repeats bit for bit,
    // the weights do not.
    for seed in 0..200 {
        let ctx = zero_coupling_context(seed);
        for (mu_before, mu_after) in [(0.1, 2.0), (2.0, 0.1), (0.1, 5.0)] {
            for lambda in [1.0, 0.5] {
                let params = |mu| SelectParams { m: 3, lambda, mu };
                let mut warm = vec![RegressionWarm::new(); 2];
                let opts = SolveOptions::default();
                solve_comparesets_plus_sweeps_warm_with(
                    &ctx,
                    &params(mu_before),
                    1,
                    &opts,
                    &mut warm,
                );
                let reused = solve_comparesets_plus_sweeps_warm_with(
                    &ctx,
                    &params(mu_after),
                    1,
                    &opts,
                    &mut warm,
                );
                let coldsel =
                    solve_comparesets_plus_sweeps_with(&ctx, &params(mu_after), 1, &cold());
                assert_eq!(
                    reused, coldsel,
                    "seed {seed}: μ {mu_before} -> {mu_after}, λ {lambda}"
                );
            }
        }
    }
}
