//! Fault injection at the batch-solver level: a degenerate item must land
//! as a per-item `Err` in its slot — with the failing item's index and a
//! typed linalg cause — while every other item still solves.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::{
    solve_checked, solve_comparesets_checked, solve_comparesets_plus_checked, solve_crs_checked,
    Algorithm, CoreError, InstanceContext, Item, OpinionScheme, SelectParams, Selection,
    SolveOptions,
};
use comparesets_data::{Polarity, ProductId, ReviewId};
use comparesets_linalg::LinalgError;

fn simple_item(product: u32) -> Item {
    Item::from_mentions(
        ProductId(product),
        vec![
            (ReviewId(10 * product), vec![(0, Polarity::Positive)]),
            (ReviewId(10 * product + 1), vec![(1, Polarity::Negative)]),
            (
                ReviewId(10 * product + 2),
                vec![(0, Polarity::Positive), (1, Polarity::Negative)],
            ),
        ],
    )
}

/// Three items where item 1's opinion target τ₁ is poisoned with NaN.
fn contaminated_context() -> InstanceContext {
    let items = vec![simple_item(0), simple_item(1), simple_item(2)];
    let z = 2;
    let space_probe = InstanceContext::from_items(z, items.clone(), OpinionScheme::Binary);
    let mut taus: Vec<Vec<f64>> = (0..3).map(|i| space_probe.tau(i).to_vec()).collect();
    taus[1][0] = f64::NAN;
    let gamma = space_probe.gamma().to_vec();
    InstanceContext::with_targets(z, items, OpinionScheme::Binary, taus, gamma)
}

fn assert_slot_pattern(slots: &[Result<Selection, CoreError>], what: &str) {
    assert_eq!(slots.len(), 3, "{what}: slot count");
    assert!(slots[0].is_ok(), "{what}: item 0 should solve: {slots:?}");
    assert!(slots[2].is_ok(), "{what}: item 2 should solve: {slots:?}");
    match &slots[1] {
        Err(CoreError::Solver { item, source }) => {
            assert_eq!(*item, 1, "{what}: failing item index");
            assert!(
                matches!(source, LinalgError::NonFinite { .. }),
                "{what}: expected NonFinite cause, got {source:?}"
            );
        }
        other => panic!("{what}: expected Solver error in slot 1, got {other:?}"),
    }
    // Healthy items still produce non-empty, in-budget selections.
    for i in [0, 2] {
        let sel = slots[i].as_ref().unwrap();
        assert!(!sel.is_empty(), "{what}: item {i} selection empty");
        assert!(sel.len() <= 3, "{what}: item {i} over budget");
    }
}

#[test]
fn nan_target_poisons_only_its_own_slot() {
    let ctx = contaminated_context();
    let params = SelectParams::default();
    let seq = solve_comparesets_checked(&ctx, &params, &SolveOptions::sequential()).unwrap();
    assert_slot_pattern(&seq, "comparesets seq");
}

#[test]
fn crs_isolates_the_degenerate_item() {
    let ctx = contaminated_context();
    let slots = solve_crs_checked(&ctx, 3, &SolveOptions::sequential()).unwrap();
    assert_slot_pattern(&slots, "crs seq");
}

#[test]
fn plus_sweeps_complete_despite_a_poisoned_item() {
    let ctx = contaminated_context();
    let params = SelectParams::default();
    let slots =
        solve_comparesets_plus_checked(&ctx, &params, 2, &SolveOptions::sequential()).unwrap();
    assert_slot_pattern(&slots, "comparesets+ seq");
}

#[test]
fn solve_checked_covers_every_algorithm_under_faults() {
    let ctx = contaminated_context();
    let params = SelectParams::default();
    let opts = SolveOptions::sequential();
    for alg in Algorithm::ALL {
        let slots = solve_checked(&ctx, alg, &params, 7, &opts).unwrap();
        assert_eq!(slots.len(), 3, "{alg:?}");
        match alg {
            // The regression-based solvers see τ₁ and must classify it.
            Algorithm::Crs | Algorithm::CompareSets | Algorithm::CompareSetsPlus => {
                assert_slot_pattern(&slots, alg.name());
            }
            // Random never touches τ; greedy scans cost values that go NaN
            // but its scan is total, so both complete without erroring.
            Algorithm::Random | Algorithm::CompareSetsGreedy => {
                assert!(
                    slots.iter().all(Result::is_ok),
                    "{alg:?} should not fail: {slots:?}"
                );
            }
        }
    }
}

#[test]
fn invalid_params_reject_before_any_item_solves() {
    let ctx = contaminated_context();
    let opts = SolveOptions::sequential();
    for bad in [
        SelectParams {
            m: 0,
            ..SelectParams::default()
        },
        SelectParams {
            lambda: f64::NAN,
            ..SelectParams::default()
        },
        SelectParams {
            mu: f64::INFINITY,
            ..SelectParams::default()
        },
    ] {
        for alg in Algorithm::ALL {
            assert!(
                matches!(
                    solve_checked(&ctx, alg, &bad, 7, &opts),
                    Err(CoreError::InvalidParams(_))
                ),
                "{alg:?} with {bad:?}"
            );
        }
    }
}

#[test]
fn error_chain_is_readable_end_to_end() {
    let ctx = contaminated_context();
    let params = SelectParams::default();
    let slots = solve_comparesets_checked(&ctx, &params, &SolveOptions::sequential()).unwrap();
    let err = slots[1].as_ref().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("item 1"), "{msg}");
    use std::error::Error;
    let source = err.source().expect("solver errors chain to linalg");
    assert!(
        source.to_string().contains("non-finite"),
        "source: {source}"
    );
}
