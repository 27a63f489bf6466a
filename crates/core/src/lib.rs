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
pub mod incremental;
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
pub use incremental::{IncrementalSession, SessionEvent};
pub use instance::{InstanceContext, Item, ReviewFeature, Selection};
pub use integer_regression::{
    integer_regression, MatrixBackend, RegressionTask, RegressionWarm, TaskMatrix,
    DENSITY_CROSSOVER,
};
pub use objective::{
    comparesets_objective, comparesets_plus_objective, item_objective, pair_distance,
};
pub use space::{OpinionScheme, VectorSpace};

use comparesets_linalg::{with_pooled_workspace, NompWorkspace};
pub use comparesets_obs::{
    CancelToken, MetricsReport, MetricsSnapshot, SolveCtl, SolverMetrics, METRICS_SCHEMA,
};
use rayon::prelude::*;
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

/// Execution knobs orthogonal to the model parameters: how to run a
/// solver, never what it computes.
///
/// **Determinism guarantee:** for any fixed inputs, every solver returns
/// the same selections and objectives under every `SolveOptions` value.
/// Parallel runs fan independent per-item regressions over rayon and
/// collect the results in item order (never completion order), so turning
/// parallelism on is purely a wall-clock decision.
///
/// The optional `metrics` collector is likewise observation-only: solvers
/// count pursuit iterations, refits, and fallback activations into it
/// (see ARCHITECTURE.md §7) without ever reading it back, and with the
/// default `None` no counter or clock is touched at all. Because the
/// per-item work is identical under parallel and sequential execution,
/// the aggregate counters are too.
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
///
/// `backend` picks the design-matrix storage ([`MatrixBackend`]): CSC,
/// dense, or per-task automatic selection by stored density against
/// [`DENSITY_CROSSOVER`] (the default). The NOMP kernels are bit-exact
/// across representations, so this too is purely a wall-clock/memory
/// decision — selections never change with the backend (pinned by
/// `crates/core/tests/backend_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Fan independent per-item regression tasks out over rayon's pool.
    pub parallel: bool,
    /// Worker count for parallel runs; `None` uses rayon's global default
    /// (all cores). Ignored when `parallel` is false.
    pub threads: Option<usize>,
    /// Carry per-item answer memos across alternating sweeps (on by
    /// default).
    pub warm_start: bool,
    /// Design-matrix storage backend for every regression the solve
    /// builds ([`MatrixBackend::Auto`] by default: CSC below the
    /// [`DENSITY_CROSSOVER`] density, dense at or above it).
    pub backend: MatrixBackend,
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
            parallel: false,
            threads: None,
            warm_start: true,
            backend: MatrixBackend::Auto,
            metrics: None,
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// Sequential execution (the default).
    pub fn sequential() -> Self {
        SolveOptions::default()
    }

    /// Parallel execution on rayon's global pool.
    pub fn parallel() -> Self {
        SolveOptions {
            parallel: true,
            ..SolveOptions::default()
        }
    }

    /// Parallel execution on a dedicated pool of `n` workers.
    pub fn with_threads(n: usize) -> Self {
        SolveOptions {
            parallel: true,
            threads: Some(n),
            ..SolveOptions::default()
        }
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

    /// This options value with an explicit design-matrix backend.
    #[must_use]
    pub fn with_backend(mut self, backend: MatrixBackend) -> Self {
        self.backend = backend;
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

/// Run `solve` for every item `0..n` and collect the results in item
/// order (never completion order). With [`SolveOptions::parallel`] the
/// items fan out over rayon — a dedicated pool when a thread count is
/// pinned (the calling thread if that pool cannot be built), the global
/// pool otherwise — each worker drawing a pooled workspace; otherwise
/// they run sequentially through one workspace. Either way the results
/// are identical.
pub(crate) fn per_item<T: Send>(
    n: usize,
    opts: &SolveOptions,
    solve: impl Fn(usize, &mut NompWorkspace) -> T + Sync,
) -> Vec<T> {
    if !opts.parallel {
        let mut ws = NompWorkspace::new();
        return (0..n).map(|i| solve(i, &mut ws)).collect();
    }
    let fan_out = || {
        (0..n)
            .into_par_iter()
            .map(|i| with_pooled_workspace(|ws| solve(i, ws)))
            .collect()
    };
    match opts.threads {
        Some(threads) => match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => pool.install(fan_out),
            Err(_) => fan_out(),
        },
        None => fan_out(),
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
/// CompaReSetS, CompaReSetS+) honour [`SolveOptions::parallel`]; the
/// random and greedy baselines are cheap enough that they always run
/// sequentially. Selections are identical for every options value.
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
    error::validate_params(params)?;
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
