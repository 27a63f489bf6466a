//! Anytime semantics of cancellation at the core level.
//!
//! Three contracts (ARCHITECTURE.md §8):
//!
//! 1. **No-op tokens are free**: an installed token that never fires
//!    leaves every solver's selections bit-identical to running without
//!    one.
//! 2. **Feasibility**: whenever a checked solver reports
//!    `DeadlineExceeded`, `best_so_far` has one selection per item, each
//!    non-empty, within budget, and indexing real reviews — no matter
//!    where the token fired.
//! 3. **More deadline never hurts** (after the seed): letting the solve
//!    run longer before firing yields a synchronized objective that is
//!    monotone non-increasing, because every completed alternation round
//!    accepts a candidate only when it lowers the coupled cost.
//!
//! Wall-clock deadlines interrupt the solver after some prefix of its
//! deterministic poll sequence; `CancelToken::cancel_after(n)` pins that
//! prefix length exactly, so these tests replay kill points
//! deterministically instead of racing a timer.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_checked, solve_comparesets_plus_with,
    solve_crs_checked, solve_crs_with, CancelToken, CoreError, InstanceContext, OpinionScheme,
    SelectParams, Selection, SolveOptions, SolverMetrics,
};
use comparesets_data::CategoryPreset;

fn context() -> InstanceContext {
    let d = CategoryPreset::Cellphone.config(60, 11).generate();
    let inst = d.instances().into_iter().next().unwrap().truncated(5);
    InstanceContext::build(&d, &inst, OpinionScheme::Binary)
}

fn params() -> SelectParams {
    SelectParams::default()
}

/// Total polls a never-firing run of `solve` consumes (the deterministic
/// length of its poll sequence).
fn count_checks(solve: impl FnOnce(&SolveOptions)) -> u64 {
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::sequential()
        .with_metrics(Arc::clone(&metrics))
        .with_cancel(Arc::new(CancelToken::new()));
    solve(&opts);
    metrics.snapshot().cancellation_checks
}

fn plus_opts(kill_after: u64) -> SolveOptions {
    SolveOptions::sequential().with_cancel(Arc::new(CancelToken::cancel_after(kill_after)))
}

/// Unwrap a checked-plus result into plain selections: `Ok` slots of a
/// completed batch, or `best_so_far` of an expired one.
fn selections_of(
    result: Result<Vec<Result<Selection, CoreError>>, CoreError>,
) -> (Vec<Selection>, bool) {
    match result {
        Ok(slots) => (
            slots.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            false,
        ),
        Err(CoreError::DeadlineExceeded { best_so_far }) => (best_so_far, true),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

#[test]
fn never_firing_token_is_bit_identical_everywhere() {
    let ctx = context();
    let p = params();
    let plain = solve_comparesets_plus_with(&ctx, &p, &SolveOptions::sequential());
    let plain_crs = solve_crs_with(&ctx, p.m, &SolveOptions::sequential());
    let opts = SolveOptions::sequential().with_cancel(Arc::new(CancelToken::new()));
    assert_eq!(plain, solve_comparesets_plus_with(&ctx, &p, &opts));
    assert_eq!(plain_crs, solve_crs_with(&ctx, p.m, &opts));
    // Checked path: completes as Ok, no deadline classification.
    let (sels, expired) = selections_of(solve_comparesets_plus_checked(&ctx, &p, 1, &opts));
    assert!(!expired);
    assert_eq!(plain, sels);
}

#[test]
fn best_so_far_is_feasible_at_every_kill_point() {
    let ctx = context();
    let p = params();
    let total = count_checks(|opts| {
        let _ = solve_comparesets_plus_checked(&ctx, &p, 1, opts);
    });
    assert!(total > 10, "expected a non-trivial poll sequence");

    // Every kill point would be O(total) solves; stride the sweep but
    // always include the boundaries (kill at entry, kill on last poll).
    let stride = (total / 40).max(1);
    let mut kills: Vec<u64> = (0..total).step_by(stride as usize).collect();
    kills.push(total - 1);
    for k in kills {
        let (sels, expired) =
            selections_of(solve_comparesets_plus_checked(&ctx, &p, 1, &plus_opts(k)));
        assert!(expired, "token with budget {k} < {total} must classify");
        assert_eq!(sels.len(), ctx.num_items(), "kill at {k}");
        for (i, s) in sels.iter().enumerate() {
            assert!(!s.is_empty(), "kill at {k}: item {i} empty");
            assert!(s.len() <= p.m, "kill at {k}: item {i} over budget");
            assert!(
                s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()),
                "kill at {k}: item {i} has out-of-range indices"
            );
        }
    }

    // A budget covering every poll never fires: the solve completes.
    let (sels, expired) = selections_of(solve_comparesets_plus_checked(
        &ctx,
        &p,
        1,
        &plus_opts(total),
    ));
    assert!(!expired);
    assert_eq!(
        sels,
        solve_comparesets_plus_with(&ctx, &p, &SolveOptions::sequential())
    );
}

#[test]
fn objective_is_monotone_non_increasing_in_the_deadline_after_the_seed() {
    let ctx = context();
    let p = params();
    // Poll count of the seed phase alone (the CompaReSetS solve that
    // Algorithm 1 starts from). Before this point the solver has not yet
    // produced its first coupled iterate, so monotonicity is only claimed
    // for kill points at or beyond the seed: from there on, every
    // completed alternation round accepts candidates only when they lower
    // the synchronized objective.
    let t_seed = count_checks(|opts| {
        let _ = comparesets_core::solve_comparesets_checked(&ctx, &p, opts);
    });
    let total = count_checks(|opts| {
        let _ = solve_comparesets_plus_checked(&ctx, &p, 1, opts);
    });
    assert!(total > t_seed, "alternation phase must poll");

    let stride = ((total - t_seed) / 40).max(1);
    let mut prev: Option<(u64, f64)> = None;
    let mut kills: Vec<u64> = (t_seed..total).step_by(stride as usize).collect();
    kills.push(total);
    for k in kills {
        let (sels, _) = selections_of(solve_comparesets_plus_checked(&ctx, &p, 1, &plus_opts(k)));
        let obj = comparesets_plus_objective(&ctx, &sels, p.lambda, p.mu);
        if let Some((pk, pobj)) = prev {
            assert!(
                obj <= pobj + 1e-9,
                "objective rose from {pobj} (kill {pk}) to {obj} (kill {k})"
            );
        }
        prev = Some((k, obj));
    }
}

#[test]
fn expiry_is_classified_and_counted() {
    let ctx = context();
    let p = params();
    let metrics = Arc::new(SolverMetrics::new());
    let opts = SolveOptions::sequential()
        .with_metrics(Arc::clone(&metrics))
        .with_cancel(Arc::new(CancelToken::cancel_after(0)));
    let r = solve_comparesets_plus_checked(&ctx, &p, 1, &opts);
    assert!(matches!(r, Err(CoreError::DeadlineExceeded { .. })));
    let snap = metrics.snapshot();
    assert_eq!(snap.deadline_expirations, 1);
    assert!(snap.cancellation_checks > 0);

    // CRS classifies the same way.
    let opts = SolveOptions::sequential().with_cancel(Arc::new(CancelToken::cancel_after(0)));
    match solve_crs_checked(&ctx, p.m, &opts) {
        Err(CoreError::DeadlineExceeded { best_so_far }) => {
            assert_eq!(best_so_far.len(), ctx.num_items());
            assert!(best_so_far.iter().all(|s| !s.is_empty()));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // An explicit wall-clock deadline in the past behaves identically.
    let opts = SolveOptions::sequential().with_timeout(std::time::Duration::ZERO);
    assert!(matches!(
        solve_comparesets_plus_checked(&ctx, &p, 1, &opts),
        Err(CoreError::DeadlineExceeded { .. })
    ));
}
