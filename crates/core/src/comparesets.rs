//! CompaReSetS (Problem 1) and CompaReSetS+ (Problem 2, Algorithm 1).
//!
//! * [`solve_comparesets`] solves Equation 1: per item, Integer-Regression
//!   against the concatenated target `[τᵢ; λ·Γ]` (Equation 4).
//! * [`solve_comparesets_plus`] runs Algorithm 1: start from the
//!   CompaReSetS solutions, then for each item rebuild the regression
//!   with the extended target `Υ = [τᵢ; λΓ; μφ(S₁); …; μφ(Sₙ)]` (other
//!   items' current selections) and accept the re-selection only when it
//!   lowers the per-item synchronized objective (lines 10–12).
//!
//! Every per-item regression — of CRS, of CompaReSetS, of a CompaReSetS+
//! step — goes through one function, `regress_item`: memo lookup, task
//! build, Integer-Regression, memo store.
//!
//! ## Execution
//!
//! Every solver runs its items in one sequential loop through one
//! pursuit workspace. The alternating sweeps of CompaReSetS+ are
//! Gauss–Seidel — item `i` reads the other items' *current* selections —
//! so they are sequential by construction; the independent per-item
//! regressions of CRS and CompaReSetS run in the same loop, and
//! independent problem instances are what the evaluation harness fans
//! out instead (§4.1.1).

use comparesets_linalg::vector::sq_distance;
use comparesets_linalg::NompWorkspace;

use crate::error::{validate_params, CoreError};
use crate::instance::{InstanceContext, Selection};
use crate::integer_regression::{
    best_single_review, integer_regression, DedupColumns, RegressionTask, RegressionWarm,
};
use crate::objective::item_objective_and_phi;
use crate::{SelectParams, SolveOptions, SolverMetrics};

/// Each item's column grouping, in item order. The items are immutable
/// for the whole solve, so one grouping serves every regression of an
/// item: its seed, each alternation step, and each memo lookup.
pub(crate) fn group_items(ctx: &InstanceContext) -> Vec<DedupColumns> {
    ctx.items().iter().map(DedupColumns::build).collect()
}

/// Run `solve` for every item in item order, with the item's column
/// grouping from `dedups`, through one pursuit workspace.
pub(crate) fn per_item<T>(
    dedups: &[DedupColumns],
    mut solve: impl FnMut(usize, &DedupColumns, &mut NompWorkspace) -> T,
) -> Vec<T> {
    let mut ws = NompWorkspace::new();
    dedups
        .iter()
        .enumerate()
        .map(|(i, dedup)| solve(i, dedup, &mut ws))
        .collect()
}

/// Post-batch deadline classification shared by the checked solvers: when
/// the options' token fired during the solve, the per-item results are
/// suspect (items may have degraded to their fallback), so the batch is
/// reported as [`CoreError::DeadlineExceeded`] carrying the feasible
/// best-so-far selections (failed slots contribute an empty selection).
pub(crate) fn classify_deadline(
    slots: Vec<Result<Selection, CoreError>>,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    if !opts.cancel_fired() {
        return Ok(slots);
    }
    if let Some(mm) = opts.metrics_ref() {
        SolverMetrics::incr(&mm.deadline_expirations);
    }
    tracing::warn!("solve observed a fired cancellation token; returning best-so-far selections");
    Err(CoreError::DeadlineExceeded {
        best_so_far: slots.into_iter().map(|r| r.unwrap_or_default()).collect(),
    })
}

/// Integer-Regression for item `i`, whose reviews `dedup` groups,
/// against `Υ = [τᵢ; w₁t₁; …]`, the `aspect_targets` blocks `(tₖ, wₖ)`
/// (Algorithm 1 lines 6–12): the per-item problem of CRS (no blocks),
/// CompaReSetS (`[(Γ, λ)]`) and a CompaReSetS+ step
/// (`[(Γ, λ), (φ(Sⱼ), μ), …]`), scored by `cost`.
///
/// Υ is stacked once. With a `memo` (the item's [`RegressionWarm`]) a
/// regression whose inputs repeat the memo's is answered from it before
/// any matrix is built, and every other completed regression is
/// remembered. A regression cut by the options' token is never
/// remembered: its answer is an anytime iterate, not the completed
/// answer a memo hit stands for.
///
/// # Errors
/// [`CoreError::DimensionMismatch`] on malformed target blocks;
/// [`CoreError::Solver`] (tagged with `i`) when the relaxation fails.
#[allow(clippy::too_many_arguments)] // the item, blocks, budget and objective of one regression
pub(crate) fn regress_item<F: Fn(&Selection) -> f64>(
    ctx: &InstanceContext,
    i: usize,
    dedup: &DedupColumns,
    aspect_targets: &[(&[f64], f64)],
    m: usize,
    cost: &F,
    opts: &SolveOptions,
    ws: &mut NompWorkspace,
    memo: Option<&mut RegressionWarm>,
) -> Result<Selection, CoreError> {
    let (space, item) = (ctx.space(), ctx.item(i));
    let target = RegressionTask::try_stack_target(space, ctx.tau(i), aspect_targets)?;
    if let Some(warm) = &memo {
        if let Some(selection) = warm.recall(&target, aspect_targets, m, dedup, opts.metrics_ref())
        {
            return Ok(selection);
        }
    }
    let task = RegressionTask::with_target(space, item, dedup, target, aspect_targets)?;
    let selection = integer_regression(&task, m, cost, ws, opts.ctl())
        .map_err(|source| CoreError::Solver { item: i, source })?;
    if let Some(warm) = memo {
        if !opts.cancel_fired() {
            warm.remember(task, aspect_targets, m, &selection, ws.iterations());
        }
    }
    Ok(selection)
}

/// The unchecked solvers' answer for an item whose reviews `dedup`
/// groups: the regression's selection, or the single review minimising
/// `cost` when the regression failed — they degrade instead of failing.
pub(crate) fn or_single_review<F: Fn(&Selection) -> f64>(
    solved: Result<Selection, CoreError>,
    dedup: &DedupColumns,
    m: usize,
    cost: &F,
) -> Selection {
    solved.unwrap_or_else(|_| best_single_review(dedup, m, cost))
}

/// One CompaReSetS+ step for item `i` (Algorithm 1 lines 6–12) against
/// `other_phis`, the other items' φ(Sⱼ) under their current selections:
/// the re-selection candidate, and the per-item synchronized objective it
/// minimises and the accept test compares (line 10: Equation 3 plus
/// `μ² Σⱼ Δ(φ(Sᵢ), φ(Sⱼ))`). The objective builds φ(Sᵢ) once per
/// candidate and shares it between both terms.
#[allow(clippy::too_many_arguments)] // one regression step plus its memo
fn plus_step<'a>(
    ctx: &'a InstanceContext,
    i: usize,
    dedup: &DedupColumns,
    other_phis: &'a [&'a [f64]],
    params: &SelectParams,
    opts: &SolveOptions,
    ws: &mut NompWorkspace,
    memo: Option<&mut RegressionWarm>,
) -> (
    Result<Selection, CoreError>,
    impl Fn(&Selection) -> f64 + 'a,
) {
    let (lambda, mu) = (params.lambda, params.mu);
    let cost = move |sel: &Selection| {
        let (base, phi) = item_objective_and_phi(ctx, i, sel, lambda);
        let coupling: f64 = other_phis.iter().map(|p| sq_distance(&phi, p)).sum();
        base + mu * mu * coupling
    };
    // Υ blocks: Γ with weight λ, then each φ(Sⱼ) with weight μ.
    let mut blocks: Vec<(&[f64], f64)> = Vec::with_capacity(1 + other_phis.len());
    blocks.push((ctx.gamma(), lambda));
    blocks.extend(other_phis.iter().map(|&p| (p, mu)));
    let solved = regress_item(ctx, i, dedup, &blocks, params.m, &cost, opts, ws, memo);
    (solved, cost)
}

/// Solve CompaReSetS (Problem 1): independent Integer-Regression per item
/// with target `[τᵢ; λΓ]`.
pub fn solve_comparesets(ctx: &InstanceContext, params: &SelectParams) -> Vec<Selection> {
    solve_comparesets_with(ctx, params, &SolveOptions::default())
}

/// [`solve_comparesets`] with execution options (metrics, cancellation).
pub fn solve_comparesets_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    opts: &SolveOptions,
) -> Vec<Selection> {
    seed(ctx, params, opts, &group_items(ctx), false)
        .into_iter()
        .map(Result::unwrap_or_default)
        .collect()
}

/// The CompaReSetS regression of every item against `[τᵢ; λΓ]`, in item
/// order, with the groupings `dedups`: the answer of Problem 1 and the
/// seed of Algorithm 1. A failed regression keeps its error when `strict`
/// (the checked contract) and otherwise degrades to the best single
/// review (the unchecked solvers' fallback), so every slot is `Ok`.
fn seed(
    ctx: &InstanceContext,
    params: &SelectParams,
    opts: &SolveOptions,
    dedups: &[DedupColumns],
    strict: bool,
) -> Vec<Result<Selection, CoreError>> {
    per_item(dedups, |i, dedup, ws| {
        let cost = |sel: &Selection| crate::objective::item_objective(ctx, i, sel, params.lambda);
        let blocks = [(ctx.gamma(), params.lambda)];
        let solved = regress_item(ctx, i, dedup, &blocks, params.m, &cost, opts, ws, None);
        if strict {
            solved
        } else {
            Ok(or_single_review(solved, dedup, params.m, &cost))
        }
    })
}

/// Checked variant of [`solve_comparesets_with`]: validates the parameters
/// up front and isolates numerical failures per item.
///
/// The outer `Err` reports structurally invalid parameters (m = 0,
/// non-finite λ/μ) before any item is touched. The inner vector has one
/// slot per item, in item order: a degenerate item (e.g. NaN-contaminated
/// features) yields `Err(CoreError::Solver { item, .. })` in its slot
/// while every other item still solves — one bad item never poisons the
/// batch. On well-posed inputs every slot is `Ok` and bit-identical to
/// the unchecked solver.
///
/// # Errors
/// [`CoreError::InvalidParams`] on bad parameters (outer); per-item
/// [`CoreError::Solver`] in the slots (inner);
/// [`CoreError::DeadlineExceeded`] with the feasible best-so-far
/// selections when the options' cancellation token fired mid-solve.
pub fn solve_comparesets_checked(
    ctx: &InstanceContext,
    params: &SelectParams,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    validate_params(params)?;
    let slots = seed(ctx, params, opts, &group_items(ctx), true);
    classify_deadline(slots, opts)
}

/// Solve CompaReSetS+ (Problem 2) with one alternating sweep (Algorithm 1).
pub fn solve_comparesets_plus(ctx: &InstanceContext, params: &SelectParams) -> Vec<Selection> {
    solve_comparesets_plus_sweeps(ctx, params, 1)
}

/// [`solve_comparesets_plus`] with execution options (see
/// [`solve_comparesets_plus_sweeps_with`]).
pub fn solve_comparesets_plus_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    opts: &SolveOptions,
) -> Vec<Selection> {
    solve_comparesets_plus_sweeps_with(ctx, params, 1, opts)
}

/// Solve CompaReSetS+ with a configurable number of alternating sweeps.
/// Algorithm 1 performs a single sweep `i = 1…n`; additional sweeps keep
/// refining while each per-item step can only decrease the objective.
pub fn solve_comparesets_plus_sweeps(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
) -> Vec<Selection> {
    solve_comparesets_plus_sweeps_with(ctx, params, sweeps, &SolveOptions::default())
}

/// [`solve_comparesets_plus_sweeps`] with execution options (warm
/// starts, metrics, cancellation).
pub fn solve_comparesets_plus_sweeps_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
) -> Vec<Selection> {
    let mut warm = vec![RegressionWarm::new(); ctx.num_items()];
    solve_comparesets_plus_sweeps_warm_with(ctx, params, sweeps, opts, &mut warm)
}

/// [`solve_comparesets_plus_sweeps_with`] with caller-held answer memos —
/// the extraction/re-injection point for cross-call reuse (the serving
/// session cache, ARCHITECTURE.md §10).
///
/// `warm` must hold one [`RegressionWarm`] per item, in item order. The
/// memos are read *and updated in place*: on return each slot holds its
/// item's last completed regression, so a caller holding them across
/// calls lets a repeat of that regression skip the solve. A memo answers
/// only a regression whose target, block weights, budget and caps repeat
/// bit for bit (ARCHITECTURE.md §9), so selections are byte-identical to
/// a cold solve whatever memos are passed in, provided each slot belongs
/// to the same item. With [`SolveOptions::warm_start`] off the memos are
/// neither read nor written.
///
/// # Panics
/// Panics when `warm.len() != ctx.num_items()`.
pub fn solve_comparesets_plus_sweeps_warm_with(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
    warm: &mut [RegressionWarm],
) -> Vec<Selection> {
    assert_eq!(
        warm.len(),
        ctx.num_items(),
        "one RegressionWarm per item required"
    );
    // The unchecked seed and sweeps never fail a slot.
    algorithm_1(ctx, params, sweeps, opts, warm, false)
        .into_iter()
        .map(Result::unwrap_or_default)
        .collect()
}

/// Checked variant of [`solve_comparesets_plus_sweeps_with`].
///
/// The CompaReSetS seed is checked as in [`solve_comparesets_checked`],
/// so a degenerate item lands as `Err` in its slot and is **excluded from
/// the coupling**: healthy items synchronise among themselves as if the
/// failed item were absent, and the failed slots keep their per-item
/// error. A sweep-step failure on an otherwise-seeded item degrades
/// gracefully — the item keeps its current (valid) selection rather than
/// erroring, matching the accept-only-if-better contract of Algorithm 1.
///
/// On well-posed inputs every slot is `Ok` and bit-identical to the
/// unchecked solver: same seed, same sweeps, same accept decisions.
///
/// # Errors
/// [`CoreError::InvalidParams`] on bad parameters (outer); per-item
/// [`CoreError::Solver`] in the slots (inner);
/// [`CoreError::DeadlineExceeded`] with the feasible best-so-far
/// selections when the options' cancellation token fired mid-solve.
pub fn solve_comparesets_plus_checked(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    validate_params(params)?;
    let mut warm = vec![RegressionWarm::new(); ctx.num_items()];
    let slots = algorithm_1(ctx, params, sweeps, opts, &mut warm, true);
    classify_deadline(slots, opts)
}

/// Algorithm 1, shared by the unchecked and checked CompaReSetS+ solvers:
/// the CompaReSetS seed, then the alternating sweeps, one slot per item
/// in item order. Both phases use one grouping per item.
///
/// Gauss–Seidel: item `i` regresses against the other items' *current*
/// selections and takes the candidate only when it strictly lowers its
/// synchronized objective. A failed slot (a checked seed error) is
/// skipped and contributes no coupling. A failed seed or step keeps its
/// error or current selection when `strict` (the checked contract) and
/// otherwise degrades to the best single review (the unchecked solvers'
/// fallback). With warm starts on, `warm[i]` memoizes item `i`'s
/// regressions.
fn algorithm_1(
    ctx: &InstanceContext,
    params: &SelectParams,
    sweeps: usize,
    opts: &SolveOptions,
    warm: &mut [RegressionWarm],
    strict: bool,
) -> Vec<Result<Selection, CoreError>> {
    let dedups = group_items(ctx);
    let mut slots = seed(ctx, params, opts, &dedups, strict);
    let n = ctx.num_items();
    if n <= 1 || params.mu == 0.0 {
        // Coupling vanishes; CompaReSetS is already optimal for Eq. 5.
        return slots;
    }
    let metrics = opts.metrics_ref();
    let ctl = opts.ctl();
    let span = tracing::debug_span!("comparesets_plus_alternation", items = n, sweeps = sweeps);
    let _span_guard = span.enter();
    // One pursuit workspace serves every per-item step of every sweep.
    let mut ws = NompWorkspace::new();
    // φ(Sⱼ) per healthy slot (None for failed items), refreshed only when
    // an accept changes the selection — φ is a pure function of the
    // selection, so the cache is bit-identical to recomputing per round.
    let mut phis: Vec<Option<Vec<f64>>> = slots
        .iter()
        .enumerate()
        .map(|(j, slot)| {
            slot.as_ref()
                .ok()
                .map(|sel| ctx.space().phi(ctx.item(j), &sel.indices))
        })
        .collect();
    'sweeps: for _ in 0..sweeps {
        for i in 0..n {
            // Cancellation granularity: one poll per alternation round.
            // Stopping here keeps the current selections — each completed
            // round only ever improved them (accept-only-if-better), so
            // the early exit is the anytime iterate.
            if ctl.is_cancelled() {
                break 'sweeps;
            }
            let Ok(current) = &slots[i] else {
                continue;
            };
            if let Some(mm) = metrics {
                SolverMetrics::incr(&mm.alternation_rounds);
            }
            let other_phis: Vec<&[f64]> = (0..n)
                .filter(|&j| j != i)
                .filter_map(|j| phis[j].as_deref())
                .collect();
            let memo = opts.warm_start.then_some(&mut warm[i]);
            let (solved, cost) =
                plus_step(ctx, i, &dedups[i], &other_phis, params, opts, &mut ws, memo);
            let candidate = match solved {
                Err(_) if strict => continue,
                solved => or_single_review(solved, &dedups[i], params.m, &cost),
            };
            // A candidate equal to the current selection can never win the
            // strict `<` accept test (the objective is a pure function of
            // the selection), so the two cost evaluations are skipped —
            // the accept decision is unchanged.
            let accept = candidate != *current && cost(&candidate) < cost(current);
            drop(cost); // releases its borrow of `phis`
            if accept {
                if let Some(mm) = metrics {
                    SolverMetrics::incr(&mm.alternation_accepts);
                }
                tracing::trace!("alternation step accepted a better selection for item {i}");
                phis[i] = Some(ctx.space().phi(ctx.item(i), &candidate.indices));
                slots[i] = Ok(candidate);
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceContext, Item};
    use crate::objective::{comparesets_objective, comparesets_plus_objective};
    use crate::space::OpinionScheme;
    use comparesets_data::{CategoryPreset, Polarity, ProductId, ReviewId};

    fn params(m: usize, lambda: f64, mu: f64) -> SelectParams {
        SelectParams { m, lambda, mu }
    }

    /// The three-item example of Figure 2: p₁ as in Working Example 1;
    /// p₂/p₃ built so that CompaReSetS+ must pull the selections toward
    /// the shared aspect *quality* (aspect 2).
    fn figure2_ctx() -> InstanceContext {
        use Polarity::{Negative, Positive};
        let p1 = crate::space::fixtures::working_example_item();
        // p2: reviews r8..r17 — two sub-populations: one matching p1's
        // battery/lens profile, one adding quality.
        let p2 = Item::from_mentions(
            ProductId(1),
            vec![
                (ReviewId(8), vec![(0, Positive), (1, Positive)]),
                (ReviewId(9), vec![(0, Negative), (1, Negative)]),
                (ReviewId(10), vec![(0, Negative)]),
                (ReviewId(15), vec![(0, Positive), (2, Positive)]),
                (ReviewId(16), vec![(0, Negative), (2, Negative)]),
                (
                    ReviewId(17),
                    vec![(0, Negative), (1, Positive), (2, Positive)],
                ),
            ],
        );
        // p3: r20, r21 discuss quality (+ price).
        let p3 = Item::from_mentions(
            ProductId(2),
            vec![
                (ReviewId(20), vec![(0, Positive), (2, Positive)]),
                (
                    ReviewId(21),
                    vec![(0, Negative), (2, Negative), (3, Negative)],
                ),
            ],
        );
        InstanceContext::from_items(5, vec![p1, p2, p3], OpinionScheme::Binary)
    }

    #[test]
    fn comparesets_selects_one_set_per_item_within_budget() {
        let ctx = figure2_ctx();
        let sels = solve_comparesets(&ctx, &params(3, 1.0, 0.0));
        assert_eq!(sels.len(), 3);
        for s in &sels {
            assert!(!s.is_empty());
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn comparesets_achieves_zero_cost_on_target_item() {
        let ctx = figure2_ctx();
        let sels = solve_comparesets(&ctx, &params(3, 1.0, 0.0));
        let cost0 = crate::objective::item_objective(&ctx, 0, &sels[0], 1.0);
        assert!(cost0 < 1e-12, "target item cost {cost0}");
    }

    #[test]
    fn plus_improves_or_matches_the_synchronized_objective() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 1.0);
        let base = solve_comparesets(&ctx, &p);
        let plus = solve_comparesets_plus(&ctx, &p);
        let obj_base = comparesets_plus_objective(&ctx, &base, p.lambda, p.mu);
        let obj_plus = comparesets_plus_objective(&ctx, &plus, p.lambda, p.mu);
        assert!(
            obj_plus <= obj_base + 1e-9,
            "plus {obj_plus} vs base {obj_base}"
        );
    }

    #[test]
    fn plus_with_mu_zero_equals_comparesets() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.0);
        assert_eq!(
            solve_comparesets_plus(&ctx, &p),
            solve_comparesets(&ctx, &p)
        );
    }

    #[test]
    fn plus_synchronizes_shared_aspects() {
        // With a strong μ, the selections of p2 and p3 must overlap on the
        // aspects they can share with p1's selection profile. We check the
        // coupling term strictly decreases vs. the unsynchronized solution.
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 2.0);
        let base = solve_comparesets(&ctx, &p);
        let plus = solve_comparesets_plus_sweeps(&ctx, &p, 2);
        let coupling = |sels: &[Selection]| {
            comparesets_plus_objective(&ctx, sels, p.lambda, p.mu)
                - comparesets_objective(&ctx, sels, p.lambda)
        };
        assert!(
            coupling(&plus) <= coupling(&base) + 1e-9,
            "coupling {} vs {}",
            coupling(&plus),
            coupling(&base)
        );
    }

    #[test]
    fn extra_sweeps_never_hurt() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.5);
        let one = solve_comparesets_plus_sweeps(&ctx, &p, 1);
        let three = solve_comparesets_plus_sweeps(&ctx, &p, 3);
        let o1 = comparesets_plus_objective(&ctx, &one, p.lambda, p.mu);
        let o3 = comparesets_plus_objective(&ctx, &three, p.lambda, p.mu);
        assert!(o3 <= o1 + 1e-9);
    }

    #[test]
    fn works_on_generated_instances() {
        let d = CategoryPreset::Toy.config(60, 23).generate();
        let inst = d.instances().into_iter().nth(1).unwrap().truncated(4);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        let p = params(5, 1.0, 0.1);
        let sels = solve_comparesets_plus(&ctx, &p);
        assert_eq!(sels.len(), ctx.num_items());
        for (i, s) in sels.iter().enumerate() {
            assert!(!s.is_empty());
            assert!(s.len() <= 5);
            assert!(s.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
        }
    }

    #[test]
    fn single_item_instance_reduces_to_comparesets() {
        let p1 = crate::space::fixtures::working_example_item();
        let ctx = InstanceContext::from_items(5, vec![p1], OpinionScheme::Binary);
        let p = params(3, 1.0, 0.7);
        assert_eq!(
            solve_comparesets_plus(&ctx, &p),
            solve_comparesets(&ctx, &p)
        );
    }

    #[test]
    fn checked_solver_matches_unchecked_on_well_posed_input() {
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 0.5);
        let opts = SolveOptions::default();
        let legacy = solve_comparesets(&ctx, &p);
        let checked: Vec<Selection> = solve_comparesets_checked(&ctx, &p, &opts)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(legacy, checked);

        let legacy_plus = solve_comparesets_plus_sweeps(&ctx, &p, 2);
        let checked_plus: Vec<Selection> = solve_comparesets_plus_checked(&ctx, &p, 2, &opts)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(legacy_plus, checked_plus);
    }

    #[test]
    fn cancelled_pursuit_never_populates_the_memo() {
        use crate::CancelToken;
        use std::sync::Arc;
        let ctx = figure2_ctx();
        let p = params(3, 1.0, 1.0);
        let seed = solve_comparesets(&ctx, &p);
        let others: Vec<Vec<f64>> = (1..3)
            .map(|j| ctx.space().phi(ctx.item(j), &seed[j].indices))
            .collect();
        let other_phis: Vec<&[f64]> = others.iter().map(Vec::as_slice).collect();
        let dedup = DedupColumns::build(ctx.item(0));
        let mut ws = NompWorkspace::new();
        let mut memo = RegressionWarm::new();
        // Fire after one poll: the pursuit stops with a truncated path.
        let cut = SolveOptions::default().with_cancel(Arc::new(CancelToken::cancel_after(1)));
        let (truncated, _) = plus_step(
            &ctx,
            0,
            &dedup,
            &other_phis,
            &p,
            &cut,
            &mut ws,
            Some(&mut memo),
        );
        assert!(truncated.is_ok());
        assert_eq!(memo.memo_bytes(), 0, "a cancelled step was memoized");
        // The next (uncancelled) step must compute the real answer, not
        // echo the truncated one, and memoize it.
        let opts = SolveOptions::default();
        let (full, _) = plus_step(
            &ctx,
            0,
            &dedup,
            &other_phis,
            &p,
            &opts,
            &mut ws,
            Some(&mut memo),
        );
        let (cold, _) = plus_step(&ctx, 0, &dedup, &other_phis, &p, &opts, &mut ws, None);
        assert_eq!(full.unwrap(), cold.unwrap());
        assert!(memo.memo_bytes() > 0);
    }

    #[test]
    fn checked_solver_rejects_invalid_params_up_front() {
        let ctx = figure2_ctx();
        let opts = SolveOptions::default();
        for bad in [
            params(0, 1.0, 0.1),
            params(3, f64::NAN, 0.1),
            params(3, 1.0, f64::INFINITY),
        ] {
            assert!(matches!(
                solve_comparesets_checked(&ctx, &bad, &opts),
                Err(CoreError::InvalidParams(_))
            ));
            assert!(solve_comparesets_plus_checked(&ctx, &bad, 1, &opts).is_err());
        }
    }
}
