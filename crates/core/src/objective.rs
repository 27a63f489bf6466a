//! Objective functions (Equations 1, 3, 5) and the item distance of §3.1.

use comparesets_linalg::vector::sq_distance;

use crate::instance::{InstanceContext, Selection};

/// Per-item CompaReSetS cost (Equation 3):
/// `Δ(τᵢ, π(Sᵢ)) + λ² Δ(Γ, φ(Sᵢ))`.
pub fn item_objective(ctx: &InstanceContext, i: usize, selection: &Selection, lambda: f64) -> f64 {
    item_objective_and_phi(ctx, i, selection, lambda).0
}

/// [`item_objective`] together with the φ(Sᵢ) it was computed from, for
/// callers that need φ(Sᵢ) again (the CompaReSetS+ coupling term).
pub(crate) fn item_objective_and_phi(
    ctx: &InstanceContext,
    i: usize,
    selection: &Selection,
    lambda: f64,
) -> (f64, Vec<f64>) {
    let item = ctx.item(i);
    let pi = ctx.space().pi(item, &selection.indices);
    let phi = ctx.space().phi(item, &selection.indices);
    let cost = sq_distance(ctx.tau(i), &pi) + lambda * lambda * sq_distance(ctx.gamma(), &phi);
    (cost, phi)
}

/// Full CompaReSetS objective (Equation 1): the sum of per-item costs.
pub fn comparesets_objective(ctx: &InstanceContext, selections: &[Selection], lambda: f64) -> f64 {
    assert_eq!(selections.len(), ctx.num_items());
    (0..ctx.num_items())
        .map(|i| item_objective(ctx, i, &selections[i], lambda))
        .sum()
}

/// Full CompaReSetS+ objective (Equation 5): Equation 1 plus the pairwise
/// aspect coupling `μ² Σᵢ<ⱼ Δ(φ(Sᵢ), φ(Sⱼ))`.
pub fn comparesets_plus_objective(
    ctx: &InstanceContext,
    selections: &[Selection],
    lambda: f64,
    mu: f64,
) -> f64 {
    let base = comparesets_objective(ctx, selections, lambda);
    let phis: Vec<Vec<f64>> = (0..ctx.num_items())
        .map(|i| ctx.space().phi(ctx.item(i), &selections[i].indices))
        .collect();
    let mut coupling = 0.0;
    for i in 0..phis.len() {
        for j in (i + 1)..phis.len() {
            coupling += sq_distance(&phis[i], &phis[j]);
        }
    }
    base + mu * mu * coupling
}

/// Pairwise item distance `d_ij` of §3.1, computed after a CompaReSetS+
/// solve: `Δ(τᵢ,π(Sᵢ)) + Δ(τⱼ,π(Sⱼ)) + λ²Δ(Γ,φ(Sᵢ)) + λ²Δ(Γ,φ(Sⱼ)) +
/// μ²Δ(φ(Sᵢ),φ(Sⱼ))`.
pub fn pair_distance(
    ctx: &InstanceContext,
    selections: &[Selection],
    i: usize,
    j: usize,
    lambda: f64,
    mu: f64,
) -> f64 {
    let cost_i = item_objective(ctx, i, &selections[i], lambda);
    let cost_j = item_objective(ctx, j, &selections[j], lambda);
    let phi_i = ctx.space().phi(ctx.item(i), &selections[i].indices);
    let phi_j = ctx.space().phi(ctx.item(j), &selections[j].indices);
    cost_i + cost_j + mu * mu * sq_distance(&phi_i, &phi_j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceContext, Item, Selection};
    use crate::space::OpinionScheme;
    use comparesets_data::{Polarity, ProductId, ReviewId};

    fn two_item_ctx() -> InstanceContext {
        use Polarity::{Negative, Positive};
        let item0 = Item::from_mentions(
            ProductId(0),
            vec![
                (ReviewId(0), vec![(0, Positive)]),
                (ReviewId(1), vec![(0, Negative), (1, Positive)]),
            ],
        );
        let item1 = Item::from_mentions(
            ProductId(1),
            vec![
                (ReviewId(2), vec![(0, Positive)]),
                (ReviewId(3), vec![(1, Negative)]),
            ],
        );
        InstanceContext::from_items(2, vec![item0, item1], OpinionScheme::Binary)
    }

    #[test]
    fn full_selection_of_target_item_has_zero_item_cost() {
        let ctx = two_item_ctx();
        // Selecting all reviews of the target reproduces τ₀ and Γ exactly.
        let s = Selection::new(vec![0, 1]);
        let cost = item_objective(&ctx, 0, &s, 1.0);
        assert!(cost.abs() < 1e-12, "cost {cost}");
    }

    #[test]
    fn empty_selection_costs_the_squared_targets() {
        let ctx = two_item_ctx();
        let s = Selection::default();
        let tau_sq: f64 = ctx.tau(0).iter().map(|v| v * v).sum();
        let gamma_sq: f64 = ctx.gamma().iter().map(|v| v * v).sum();
        let cost = item_objective(&ctx, 0, &s, 2.0);
        assert!((cost - (tau_sq + 4.0 * gamma_sq)).abs() < 1e-12);
    }

    #[test]
    fn lambda_zero_ignores_aspects() {
        let ctx = two_item_ctx();
        let s = Selection::new(vec![0]);
        let c0 = item_objective(&ctx, 0, &s, 0.0);
        let item = ctx.item(0);
        let pi = ctx.space().pi(item, &s.indices);
        assert!((c0 - sq_distance(ctx.tau(0), &pi)).abs() < 1e-12);
    }

    #[test]
    fn objective_sums_items() {
        let ctx = two_item_ctx();
        let sels = vec![Selection::new(vec![0]), Selection::new(vec![1])];
        let total = comparesets_objective(&ctx, &sels, 1.0);
        let sum = item_objective(&ctx, 0, &sels[0], 1.0) + item_objective(&ctx, 1, &sels[1], 1.0);
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    fn plus_objective_adds_nonnegative_coupling() {
        let ctx = two_item_ctx();
        let sels = vec![Selection::new(vec![0]), Selection::new(vec![1])];
        let base = comparesets_objective(&ctx, &sels, 1.0);
        let plus = comparesets_plus_objective(&ctx, &sels, 1.0, 0.5);
        assert!(plus >= base);
        // μ = 0 collapses to Equation 1.
        let plus0 = comparesets_plus_objective(&ctx, &sels, 1.0, 0.0);
        assert!((plus0 - base).abs() < 1e-12);
    }

    #[test]
    fn coupling_is_zero_for_identical_aspect_sets() {
        let ctx = two_item_ctx();
        // Review 0 of both items discusses exactly aspect 0 → φ identical.
        let sels = vec![Selection::new(vec![0]), Selection::new(vec![0])];
        let base = comparesets_objective(&ctx, &sels, 1.0);
        let plus = comparesets_plus_objective(&ctx, &sels, 1.0, 10.0);
        assert!((plus - base).abs() < 1e-12);
    }

    #[test]
    fn pair_distance_is_symmetric() {
        let ctx = two_item_ctx();
        let sels = vec![Selection::new(vec![0]), Selection::new(vec![1])];
        let dij = pair_distance(&ctx, &sels, 0, 1, 1.0, 0.1);
        let dji = pair_distance(&ctx, &sels, 1, 0, 1.0, 0.1);
        assert!((dij - dji).abs() < 1e-12);
        assert!(dij >= 0.0);
    }

    #[test]
    #[should_panic]
    fn objective_requires_matching_selection_count() {
        let ctx = two_item_ctx();
        let _ = comparesets_objective(&ctx, &[Selection::default()], 1.0);
    }
}
