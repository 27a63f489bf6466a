//! CRS — Characteristic Review Selection (Lappas, Crovella & Terzi,
//! KDD'12), the paper's single-item baseline (§4.1.2).
//!
//! CRS selects, for each item independently, up to `m` reviews whose
//! opinion distribution `π(Sᵢ)` is as close as possible to the item's
//! overall distribution `τᵢ = π(ℛᵢ)` — the special case of CompaReSetS
//! with a single item and λ = 0. It shares the Integer-Regression
//! machinery but regresses on the opinion block only.

use crate::comparesets::{classify_deadline, or_single_review, regress_item};
use crate::error::CoreError;
use crate::instance::{InstanceContext, Selection};
use crate::{per_item, SolveOptions};
use comparesets_linalg::vector::sq_distance;

/// Run CRS on every item of the instance independently.
pub fn solve_crs(ctx: &InstanceContext, m: usize) -> Vec<Selection> {
    solve_crs_with(ctx, m, &SolveOptions::default())
}

/// [`solve_crs`] with execution options: the per-item regressions are
/// independent and fan out over rayon when [`SolveOptions::parallel`] is
/// set, collected in item order (identical results either way).
pub fn solve_crs_with(ctx: &InstanceContext, m: usize, opts: &SolveOptions) -> Vec<Selection> {
    per_item(ctx.num_items(), opts, |i, ws| {
        let cost =
            |sel: &Selection| sq_distance(ctx.tau(i), &ctx.space().pi(ctx.item(i), &sel.indices));
        let solved = regress_item(ctx, i, &[], m, &cost, opts, ws, None);
        or_single_review(solved, ctx.item(i), m, &cost)
    })
}

/// Checked variant of [`solve_crs_with`]: per-item failure isolation with
/// the same slot contract as
/// [`crate::comparesets::solve_comparesets_checked`].
///
/// # Errors
/// [`CoreError::InvalidParams`] when `m == 0` (outer); per-item
/// [`CoreError::Solver`] in the slots (inner);
/// [`CoreError::DeadlineExceeded`] with the feasible best-so-far
/// selections when the options' cancellation token fired mid-solve.
pub fn solve_crs_checked(
    ctx: &InstanceContext,
    m: usize,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    if m == 0 {
        return Err(CoreError::InvalidParams("m must be at least 1"));
    }
    let slots = per_item(ctx.num_items(), opts, |i, ws| {
        let cost =
            |sel: &Selection| sq_distance(ctx.tau(i), &ctx.space().pi(ctx.item(i), &sel.indices));
        regress_item(ctx, i, &[], m, &cost, opts, ws, None)
    });
    classify_deadline(slots, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceContext, Item};
    use crate::space::OpinionScheme;
    use comparesets_data::{CategoryPreset, Polarity, ProductId, ReviewId};

    #[test]
    fn crs_matches_opinion_distribution_on_working_example() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        let sels = solve_crs(&ctx, 3);
        assert_eq!(sels.len(), 1);
        let pi = ctx.space().pi(ctx.item(0), &sels[0].indices);
        assert!(sq_distance(ctx.tau(0), &pi) < 1e-12, "pi {pi:?}");
    }

    #[test]
    fn crs_selects_within_budget_for_every_item() {
        let d = CategoryPreset::Cellphone.config(60, 17).generate();
        let inst = d.instances().into_iter().next().unwrap().truncated(4);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        for m in [1, 3, 5] {
            let sels = solve_crs(&ctx, m);
            assert_eq!(sels.len(), ctx.num_items());
            for (i, s) in sels.iter().enumerate() {
                assert!(!s.is_empty(), "item {i} empty at m={m}");
                assert!(s.len() <= m);
                assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
            }
        }
    }

    #[test]
    fn crs_beats_worst_single_review() {
        // CRS's selection cost must be no worse than the best single review
        // (it explicitly falls back to that).
        let item = Item::from_mentions(
            ProductId(0),
            vec![
                (ReviewId(0), vec![(0, Polarity::Positive)]),
                (ReviewId(1), vec![(1, Polarity::Negative)]),
                (
                    ReviewId(2),
                    vec![(0, Polarity::Positive), (1, Polarity::Negative)],
                ),
            ],
        );
        let ctx = InstanceContext::from_items(2, vec![item], OpinionScheme::Binary);
        let sel = &solve_crs(&ctx, 2)[0];
        let cost = sq_distance(ctx.tau(0), &ctx.space().pi(ctx.item(0), &sel.indices));
        for r in 0..3 {
            let single = sq_distance(ctx.tau(0), &ctx.space().pi(ctx.item(0), &[r]));
            assert!(cost <= single + 1e-12);
        }
    }

    #[test]
    fn checked_crs_matches_unchecked_and_validates_m() {
        let item = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![item], OpinionScheme::Binary);
        let opts = SolveOptions::default();
        let legacy = solve_crs(&ctx, 3);
        let checked: Vec<_> = solve_crs_checked(&ctx, 3, &opts)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(legacy, checked);
        assert!(matches!(
            solve_crs_checked(&ctx, 0, &opts),
            Err(CoreError::InvalidParams(_))
        ));
    }
}
