//! The fault-tolerant (`_checked`) solve path must be a pure
//! error-handling decision: on well-posed inputs every solver's checked
//! selections are bit-identical to its unchecked run. These tests pin
//! that guarantee on generated instances of all three categories.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::{
    solve_checked, solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, Selection,
    SolveOptions,
};
use comparesets_data::CategoryPreset;

fn contexts() -> Vec<InstanceContext> {
    [
        (CategoryPreset::Cellphone, 11u64),
        (CategoryPreset::Toy, 22),
        (CategoryPreset::Clothing, 33),
    ]
    .into_iter()
    .flat_map(|(preset, seed)| {
        let d = preset.config(60, seed).generate();
        d.instances()
            .into_iter()
            .take(2)
            .map(|inst| InstanceContext::build(&d, &inst.truncated(5), OpinionScheme::Binary))
            .collect::<Vec<_>>()
    })
    .collect()
}

/// Selections compare exactly: same review indices per item.
fn assert_identical(expected: &[Selection], actual: &[Selection], what: &str) {
    assert_eq!(expected.len(), actual.len(), "{what}: item count");
    for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(e.indices, a.indices, "{what}: item {i} indices");
    }
}

/// The fault-tolerant (`_checked`) solve path must not perturb well-posed
/// solves: for every algorithm, every slot is `Ok` and the selections are
/// bit-identical to the legacy entry point.
#[test]
fn checked_path_is_bit_identical_to_legacy_on_well_posed_inputs() {
    let params = SelectParams::default();
    for (c, ctx) in contexts().iter().enumerate() {
        for alg in Algorithm::ALL {
            let legacy = solve_with(ctx, alg, &params, 7, &SolveOptions::sequential());
            let checked: Vec<Selection> =
                solve_checked(ctx, alg, &params, 7, &SolveOptions::sequential())
                    .expect("valid params")
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| r.unwrap_or_else(|e| panic!("ctx {c} {alg:?} item {i}: {e}")))
                    .collect();
            assert_identical(&legacy, &checked, &format!("checked ctx {c} {alg:?}"));
        }
    }
}
