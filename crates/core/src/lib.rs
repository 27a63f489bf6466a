//! CompaReSetS core: comparative review-set selection across multiple items.
//!
//! This crate implements the paper's primary contribution:
//!
//! * **Problem 1 — CompaReSetS** (§2.1.1): for a target item p₁ and
//!   comparative items p₂…pₙ, select at most `m` reviews per item
//!   minimising `Σᵢ Δ(τᵢ, π(Sᵢ)) + λ² Σᵢ Δ(Γ, φ(Sᵢ))` (Equation 1).
//! * **Problem 2 — CompaReSetS+** (§2.1.2): additionally penalise the
//!   pairwise aspect distance between the selected sets,
//!   `μ² Σᵢ<ⱼ Δ(φ(Sᵢ), φ(Sⱼ))` (Equation 5), solved by alternating
//!   Integer-Regression (Algorithm 1).
//! * The **CRS** single-item baseline (Lappas, Crovella & Terzi, KDD'12),
//!   of which CompaReSetS is a strict generalisation (n = 1, λ = 0).
//! * The **greedy** and **random** selection baselines of §4.1.2.
//! * The three **opinion definitions** of §4.2.3 (binary, 3-polarity,
//!   unary-scale).
//!
//! Every solver runs its items in one sequential loop through one pursuit
//! workspace, and every per-item regression builds one compressed sparse
//! column design matrix (paper-scale tasks are 1–2% dense).
//! [`SolveOptions`] carries only what does not change a selection: warm
//! starts, a metrics collector, and a cancellation token that returns
//! the best-so-far selections once it fires.
//!
//! ## Walkthrough
//!
//! ```
//! use comparesets_data::CategoryPreset;
//! use comparesets_core::{InstanceContext, OpinionScheme, SelectParams};
//!
//! let dataset = CategoryPreset::Cellphone.config(60, 7).generate();
//! let instance = dataset.instances().into_iter().next().unwrap();
//! let ctx = InstanceContext::build(&dataset, &instance.truncated(5), OpinionScheme::Binary);
//!
//! let params = SelectParams { m: 3, lambda: 1.0, mu: 0.1 };
//! let selections = comparesets_core::solve_comparesets_plus(&ctx, &params);
//! assert_eq!(selections.len(), ctx.num_items());
//! for s in &selections {
//!     assert!(s.indices.len() <= 3);
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod comparesets;
pub mod comparison_table;
pub mod crs;
pub mod error;
pub mod exhaustive;
pub mod instance;
pub mod integer_regression;
pub mod objective;
pub mod space;

pub use baselines::{solve_greedy, solve_random};
pub use comparesets::{
    solve_comparesets, solve_comparesets_checked, solve_comparesets_plus,
    solve_comparesets_plus_checked, solve_comparesets_plus_sweeps,
    solve_comparesets_plus_sweeps_warm_with, solve_comparesets_plus_sweeps_with,
    solve_comparesets_plus_with, solve_comparesets_with,
};
pub use comparison_table::{AspectRow, CellCounts, ComparisonTable};
pub use crs::{solve_crs, solve_crs_checked, solve_crs_with};
pub use error::CoreError;
pub use exhaustive::{solve_exhaustive, solve_exhaustive_item};
pub use instance::{InstanceContext, Item, ReviewFeature, Selection};
pub use integer_regression::{integer_regression, DedupColumns, RegressionTask, RegressionWarm};
pub use objective::{
    comparesets_objective, comparesets_plus_objective, item_objective, pair_distance,
};
pub use space::{OpinionScheme, VectorSpace};

pub use comparesets_obs::{
    CancelToken, MetricsReport, MetricsSnapshot, SolveCtl, SolverMetrics, COUNTERS, METRICS_SCHEMA,
};
use std::sync::Arc;
use std::time::Duration;

/// Shared knobs for the selection solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectParams {
    /// Maximum number of reviews selected per item (m).
    pub m: usize,
    /// Trade-off between opinion and aspect distance (λ, Equation 1).
    pub lambda: f64,
    /// Weight of the cross-item aspect coupling (μ, Equation 5).
    pub mu: f64,
}

impl Default for SelectParams {
    /// The paper's tuned setting: m = 3, λ = 1, μ = 0.1 (§4.1.4).
    fn default() -> Self {
        SelectParams {
            m: 3,
            lambda: 1.0,
            mu: 0.1,
        }
    }
}

impl SelectParams {
    /// Check the rule every solve path applies to the model parameters:
    /// `m ≥ 1`, and λ and μ finite and non-negative. The checked solvers,
    /// the serving daemon and the CLI all run it before any solve.
    ///
    /// # Errors
    /// [`CoreError::InvalidParams`] naming the first parameter that breaks
    /// the rule.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.m == 0 {
            return Err(CoreError::InvalidParams("m must be at least 1"));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(CoreError::InvalidParams("lambda must be finite and >= 0"));
        }
        if !(self.mu.is_finite() && self.mu >= 0.0) {
            return Err(CoreError::InvalidParams("mu must be finite and >= 0"));
        }
        Ok(())
    }
}

/// Execution knobs orthogonal to the model parameters: how to run a
/// solver, never what it computes.
///
/// Every solver runs its items in one sequential loop through one
/// pursuit workspace, and every regression builds one CSC design matrix
/// (ARCHITECTURE.md §5, §13); none of the knobs below changes that.
///
/// The optional `metrics` collector is observation-only: solvers count
/// pursuit iterations, refits, and fallback activations into it (see
/// ARCHITECTURE.md §7) without ever reading it back, and with the
/// default `None` no counter or clock is touched at all.
///
/// The optional `cancel` token is the one knob that *can* change results —
/// by design: once the token fires (explicit cancel or deadline expiry)
/// the solvers stop refining and return their best feasible iterate so
/// far (anytime semantics, ARCHITECTURE.md §8). A token that never fires
/// leaves every result bit-identical to running without one.
///
/// `warm_start` (on by default) lets the alternating solvers carry a
/// per-item [`RegressionWarm`] answer memo across Gauss–Seidel sweeps: a
/// step whose regression inputs (target, block weights, budget, caps)
/// repeat bit for bit is answered from the memo, every other step solves
/// cold (ARCHITECTURE.md §9). Selections are pinned equal to the cold
/// path by `crates/core/tests/warm_start.rs`; set `warm_start` to `false`
/// to force every sweep to solve from scratch (the cold baseline the
/// `alternation/*` benches compare against).
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Carry per-item answer memos across alternating sweeps (on by
    /// default).
    pub warm_start: bool,
    /// Optional solver-metrics collector shared by every regression the
    /// solve performs; `None` (the default) disables all counting.
    pub metrics: Option<Arc<SolverMetrics>>,
    /// Optional cancellation/deadline token polled by every iterative
    /// kernel the solve enters; `None` (the default) costs one pointer
    /// check per poll site and changes nothing.
    pub cancel: Option<Arc<CancelToken>>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            warm_start: true,
            metrics: None,
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// The default options: warm starts on, no metrics, no token.
    pub fn sequential() -> Self {
        SolveOptions::default()
    }

    /// This options value with a metrics collector attached.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// This options value with a cancellation token attached.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// This options value with a fresh deadline token firing `timeout`
    /// from now. The clock starts here, not at the solve call.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_cancel(Arc::new(CancelToken::with_timeout(timeout)))
    }

    /// This options value with warm starts switched on or off.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Borrow the collector in the form the linalg layer consumes.
    pub(crate) fn metrics_ref(&self) -> Option<&SolverMetrics> {
        self.metrics.as_deref()
    }

    /// The control handle (metrics + token) the kernels consume.
    pub(crate) fn ctl(&self) -> SolveCtl<'_> {
        SolveCtl::new(self.metrics.as_deref(), self.cancel.as_deref())
    }

    /// Non-consuming peek: has this options value's token fired? Always
    /// false without a token. Checked solvers call this after the batch
    /// to decide whether to classify the result as deadline-expired.
    pub(crate) fn cancel_fired(&self) -> bool {
        self.cancel.as_deref().is_some_and(CancelToken::fired)
    }
}

/// Which selection algorithm to run; used by the evaluation harness to
/// sweep the baselines of §4.1.2 uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Uniform random selection of m reviews (seeded).
    Random,
    /// Characteristic Review Selection, single item at a time (Lappas'12).
    Crs,
    /// Greedy one-by-one selection minimising Equation 3.
    CompareSetsGreedy,
    /// Problem 1 solved by Integer-Regression.
    CompareSets,
    /// Problem 2 solved by alternating Integer-Regression (Algorithm 1).
    CompareSetsPlus,
}

impl Algorithm {
    /// All algorithms in the order the paper's tables list them.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Random,
        Algorithm::Crs,
        Algorithm::CompareSetsGreedy,
        Algorithm::CompareSets,
        Algorithm::CompareSetsPlus,
    ];

    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Random => "Random",
            Algorithm::Crs => "Crs",
            Algorithm::CompareSetsGreedy => "CompaReSetS_Greedy",
            Algorithm::CompareSets => "CompaReSetS",
            Algorithm::CompareSetsPlus => "CompaReSetS+",
        }
    }
}

/// Run the chosen algorithm on a prepared instance context.
///
/// `seed` only affects [`Algorithm::Random`].
pub fn solve(
    ctx: &InstanceContext,
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
) -> Vec<Selection> {
    solve_with(ctx, algorithm, params, seed, &SolveOptions::default())
}

/// [`solve`] with execution options. The regression-based solvers (CRS,
/// CompaReSetS, CompaReSetS+) honour every [`SolveOptions`] knob; the
/// random and greedy baselines run no regression and ignore them.
pub fn solve_with(
    ctx: &InstanceContext,
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
    opts: &SolveOptions,
) -> Vec<Selection> {
    match algorithm {
        Algorithm::Random => solve_random(ctx, params.m, seed),
        Algorithm::Crs => solve_crs_with(ctx, params.m, opts),
        Algorithm::CompareSetsGreedy => solve_greedy(ctx, params),
        Algorithm::CompareSets => solve_comparesets_with(ctx, params, opts),
        Algorithm::CompareSetsPlus => solve_comparesets_plus_with(ctx, params, opts),
    }
}

/// Checked variant of [`solve_with`]: validates parameters up front and
/// isolates per-item solver failures instead of panicking or silently
/// degrading.
///
/// The regression-based algorithms (CRS, CompaReSetS, CompaReSetS+) route
/// through their `_checked` solvers, so a degenerate item lands as
/// `Err(CoreError::Solver { item, .. })` in its slot while the rest of the
/// batch completes. The random and greedy baselines cannot fail
/// numerically; their selections are wrapped in `Ok` unconditionally. On
/// well-posed inputs every slot is `Ok` and bit-identical to
/// [`solve_with`].
///
/// # Errors
/// [`CoreError::InvalidParams`] on structurally invalid parameters.
pub fn solve_checked(
    ctx: &InstanceContext,
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
    opts: &SolveOptions,
) -> Result<Vec<Result<Selection, CoreError>>, CoreError> {
    params.validate()?;
    match algorithm {
        Algorithm::Random => Ok(solve_random(ctx, params.m, seed)
            .into_iter()
            .map(Ok)
            .collect()),
        Algorithm::Crs => solve_crs_checked(ctx, params.m, opts),
        Algorithm::CompareSetsGreedy => Ok(solve_greedy(ctx, params).into_iter().map(Ok).collect()),
        Algorithm::CompareSets => solve_comparesets_checked(ctx, params, opts),
        Algorithm::CompareSetsPlus => solve_comparesets_plus_checked(ctx, params, 1, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper_tuning() {
        let p = SelectParams::default();
        assert_eq!(p.m, 3);
        assert_eq!(p.lambda, 1.0);
        assert_eq!(p.mu, 0.1);
    }

    #[test]
    fn algorithm_names_match_tables() {
        assert_eq!(Algorithm::Crs.name(), "Crs");
        assert_eq!(Algorithm::CompareSetsPlus.name(), "CompaReSetS+");
        assert_eq!(Algorithm::ALL.len(), 5);
    }
}
