//! The Integer-Regression machinery (§2.2, Algorithm 1).
//!
//! Strategy, following Lappas et al. (KDD'12) as generalised by the paper.
//! Each numbered step names the Algorithm 1 lines it implements and the
//! knob that controls it:
//!
//! 1. Build a design matrix `V` with one column per candidate review —
//!    an opinion-indicator block stacked on weighted aspect-indicator
//!    blocks (λ for the Γ block, μ for every other item's φ(Sⱼ) block).
//!    [`RegressionTask::build`] takes the blocks as `(vector, weight)`
//!    pairs, so the same builder serves CRS (no aspect blocks),
//!    CompaReSetS (`[(Γ, λ)]`, Equation 4) and CompaReSetS+
//!    (`[(Γ, λ), (φ(Sⱼ), μ), …]`).
//! 2. Deduplicate identical columns (line 5, [`DedupColumns`]); `cᵢ` caps
//!    how many copies of a deduplicated column may be selected. The
//!    grouping is a function of the item alone, so a task borrows it and
//!    a solve groups each item once.
//! 3. For every sparsity budget ℓ = 1…m (line 7, the `m` argument of
//!    [`integer_regression`]), solve the continuous relaxation with NOMP —
//!    realised as **one** shared pursuit whose per-ℓ snapshots are
//!    bit-identical to standalone runs (`comparesets_linalg::nomp_path`) —
//!    then round the normalised solution to the closest integer selection
//!    `ν` with `νᵢ ≤ cᵢ`, `‖ν‖₁ ≤ m` (line 8) using largest-remainder
//!    rounding over every total mass `s ≤ m`.
//! 4. Keep the candidate minimising the *true* objective (lines 10–12),
//!    evaluated by a caller-supplied closure so CRS, CompaReSetS, and
//!    CompaReSetS+ can share this machinery with their own objectives.
//!
//! Every regression builds its design matrix as compressed sparse
//! columns and runs its pursuit from scratch, and the matrix is dropped
//! when the call returns. The only
//! state kept across calls is [`RegressionWarm`], a per-item memo of the
//! last completed answer: the alternating sweeps of CompaReSetS+ repeat a
//! regression verbatim once the other items' selections stop moving, and
//! the memo answers such a repeat without building or solving anything
//! (ARCHITECTURE.md §9).
//!
//! ```
//! use comparesets_core::{integer_regression, DedupColumns, RegressionTask, SolveCtl};
//! use comparesets_core::instance::Item;
//! use comparesets_core::space::{OpinionScheme, VectorSpace};
//! use comparesets_data::{Polarity, ProductId, ReviewId};
//! use comparesets_linalg::vector::sq_distance;
//! use comparesets_linalg::NompWorkspace;
//!
//! // Three reviews over two aspects; τ/Γ are the full-set profiles.
//! let item = Item::from_mentions(
//!     ProductId(0),
//!     vec![
//!         (ReviewId(0), vec![(0, Polarity::Positive)]),
//!         (ReviewId(1), vec![(1, Polarity::Negative)]),
//!         (ReviewId(2), vec![(0, Polarity::Positive), (1, Polarity::Negative)]),
//!     ],
//! );
//! let space = VectorSpace::new(2, OpinionScheme::Binary);
//! let all: Vec<usize> = (0..3).collect();
//! let (tau, gamma) = (space.pi(&item, &all), space.phi(&item, &all));
//!
//! let dedup = DedupColumns::build(&item);
//! let task = RegressionTask::build(&space, &item, &dedup, &tau, &[(&gamma, 1.0)]);
//! let evaluate = |s: &comparesets_core::Selection| {
//!     sq_distance(&tau, &space.pi(&item, &s.indices))
//!         + sq_distance(&gamma, &space.phi(&item, &s.indices))
//! };
//! let sel = integer_regression(&task, 2, evaluate, &mut NompWorkspace::new(), SolveCtl::default())
//!     .unwrap();
//! assert!(!sel.is_empty() && sel.len() <= 2);
//! ```

use comparesets_linalg::{nomp_path, CscMatrix, NompWorkspace, SolveError};
use comparesets_obs::{SolveCtl, SolverMetrics};

use crate::error::CoreError;
use crate::instance::{Item, ReviewFeature, Selection};
use crate::space::VectorSpace;

/// Deduplicated design-matrix columns for one item.
#[derive(Debug, Clone)]
pub struct DedupColumns {
    /// For each group: the indices of the item's reviews sharing one
    /// column signature.
    pub groups: Vec<Vec<usize>>,
}

impl DedupColumns {
    /// Group the reviews of an item by identical annotation signatures.
    /// (Columns are functions of the `ReviewFeature` alone, so equal
    /// features ⇔ equal design columns for any block weights.)
    pub fn build(item: &Item) -> Self {
        let mut index: std::collections::HashMap<&crate::instance::ReviewFeature, usize> =
            std::collections::HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (ri, f) in item.features.iter().enumerate() {
            match index.get(f) {
                Some(&g) => groups[g].push(ri),
                None => {
                    index.insert(f, groups.len());
                    groups.push(vec![ri]);
                }
            }
        }
        DedupColumns { groups }
    }

    /// Number of deduplicated columns q.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the item has no reviews.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Multiplicity cap cᵢ of each group.
    pub fn caps(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }

    /// Expand an integer group-count vector ν̃ into concrete review
    /// indices (Algorithm 1 line 9): the first `ν̃_g` members of group g.
    pub fn expand(&self, nu: &[usize]) -> Selection {
        debug_assert_eq!(nu.len(), self.groups.len());
        let mut indices = Vec::new();
        for (g, &count) in nu.iter().enumerate() {
            let take = count.min(self.groups[g].len());
            indices.extend_from_slice(&self.groups[g][..take]);
        }
        Selection::new(indices)
    }
}

/// A prepared regression task: deduplicated design matrix plus target.
///
/// The matrix is always compressed sparse columns: with z = 500 aspects
/// the CompaReSetS+ design matrix has `2z + n·z` ≈ 15 000+ rows per item
/// while each review column touches only a handful (1–2% density), and
/// sparsity is what keeps Integer-Regression fast at real-corpus scale
/// (ARCHITECTURE.md §13). The column grouping is borrowed: it is a
/// function of the item alone, so a caller regressing one item many times
/// (the alternating sweeps) groups its reviews once.
#[derive(Debug, Clone)]
pub struct RegressionTask<'a> {
    /// Deduplicated design matrix Ṽ (rows = blocks, cols = groups).
    pub matrix: CscMatrix,
    /// Target vector Υ, pre-weighted to match the matrix blocks.
    pub target: Vec<f64>,
    /// Column groups / caps.
    pub dedup: &'a DedupColumns,
}

impl<'a> RegressionTask<'a> {
    /// Build the task for one item, whose reviews `dedup` groups
    /// ([`DedupColumns::build`]).
    ///
    /// `target_blocks` are `(vector, weight)` pairs: the first must be the
    /// opinion target τᵢ with weight 1; every following block is an
    /// aspect-space target (Γ or some φ(Sⱼ)) with its coefficient (λ or
    /// μ). The matrix mirrors the blocks: the opinion-column block then
    /// one `weight × aspect-indicator` block per aspect target.
    ///
    /// # Panics
    /// Panics when blocks have wrong dimensions. Use
    /// [`RegressionTask::try_build`] for a fallible variant.
    pub fn build(
        space: &VectorSpace,
        item: &Item,
        dedup: &'a DedupColumns,
        opinion_target: &[f64],
        aspect_targets: &[(&[f64], f64)],
    ) -> Self {
        match Self::try_build(space, item, dedup, opinion_target, aspect_targets) {
            Ok(task) => task,
            Err(e) => panic!("RegressionTask::build: {e}"),
        }
    }

    /// Fallible variant of [`RegressionTask::build`].
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] when the opinion target does not
    /// have the space's opinion dimension or an aspect target does not
    /// have the aspect dimension.
    pub fn try_build(
        space: &VectorSpace,
        item: &Item,
        dedup: &'a DedupColumns,
        opinion_target: &[f64],
        aspect_targets: &[(&[f64], f64)],
    ) -> Result<Self, CoreError> {
        let target = Self::try_stack_target(space, opinion_target, aspect_targets)?;
        Self::with_target(space, item, dedup, target, aspect_targets)
    }

    /// Build the task around an already stacked target (the output of
    /// [`RegressionTask::try_stack_target`] for the same blocks), so a
    /// caller that stacked Υ for a memo lookup does not stack it twice.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] when a design entry falls outside
    /// the target's rows.
    pub(crate) fn with_target(
        space: &VectorSpace,
        item: &Item,
        dedup: &'a DedupColumns,
        target: Vec<f64>,
        aspect_targets: &[(&[f64], f64)],
    ) -> Result<Self, CoreError> {
        // Build columns sparsely: only the mentioned opinion slots and the
        // mentioned aspects of each review are non-zero.
        let columns: Vec<Vec<(usize, f64)>> = dedup
            .groups
            .iter()
            .map(|group| column_entries(space, &item.features[group[0]], aspect_targets))
            .collect();
        let matrix =
            CscMatrix::try_from_columns(target.len(), columns).map_err(classify_build_error)?;
        Ok(RegressionTask {
            matrix,
            target,
            dedup,
        })
    }

    /// Stack the pre-weighted target vector Υ without building the design
    /// matrix — the cheap half of [`RegressionTask::try_build`] (the
    /// matrix costs `O(q·(od + z·blocks))`, the target only
    /// `O(od + z·blocks)`). The per-item answer memo ([`RegressionWarm`])
    /// keys on this vector before any matrix is built; it is bit-identical
    /// to the `target` field `try_build` produces.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] exactly as
    /// [`RegressionTask::try_build`] reports it for the target blocks.
    pub fn try_stack_target(
        space: &VectorSpace,
        opinion_target: &[f64],
        aspect_targets: &[(&[f64], f64)],
    ) -> Result<Vec<f64>, CoreError> {
        let z = space.num_aspects();
        let od = space.opinion_dim();
        if opinion_target.len() != od {
            return Err(CoreError::DimensionMismatch {
                context: "RegressionTask opinion target",
                expected: od,
                actual: opinion_target.len(),
            });
        }
        for (t, _) in aspect_targets {
            if t.len() != z {
                return Err(CoreError::DimensionMismatch {
                    context: "RegressionTask aspect target",
                    expected: z,
                    actual: t.len(),
                });
            }
        }
        let mut target = Vec::with_capacity(od + z * aspect_targets.len());
        target.extend_from_slice(opinion_target);
        for &(t, w) in aspect_targets {
            target.extend(t.iter().map(|v| w * v));
        }
        Ok(target)
    }
}

/// The sparse `(row, value)` entries of one design-matrix column: the
/// review's non-zero opinion slots, then its mentioned aspects weighted
/// per target block.
fn column_entries(
    space: &VectorSpace,
    f: &ReviewFeature,
    aspect_targets: &[(&[f64], f64)],
) -> Vec<(usize, f64)> {
    let z = space.num_aspects();
    let od = space.opinion_dim();
    let mut entries: Vec<(usize, f64)> = Vec::new();
    for (r, v) in space.opinion_column(f).into_iter().enumerate() {
        if v != 0.0 {
            entries.push((r, v));
        }
    }
    let asp = space.aspect_column(f);
    for (b, &(_, w)) in aspect_targets.iter().enumerate() {
        for (a, v) in asp.iter().enumerate() {
            if *v != 0.0 && w != 0.0 {
                entries.push((od + b * z + a, w * v));
            }
        }
    }
    entries
}

/// Map a CSC construction failure onto the core error taxonomy.
fn classify_build_error(e: SolveError) -> CoreError {
    match e {
        SolveError::DimensionMismatch {
            expected, actual, ..
        } => CoreError::DimensionMismatch {
            context: "RegressionTask design matrix rows",
            expected,
            actual,
        },
        other => CoreError::Solver {
            item: 0,
            source: other,
        },
    }
}

/// Largest-remainder rounding of `s · x̂` to integers under per-entry caps.
/// Returns `None` when `x̂` has no mass.
fn round_with_caps(x_hat: &[f64], s: usize, caps: &[usize]) -> Option<Vec<usize>> {
    let mass: f64 = x_hat.iter().sum();
    if mass <= 0.0 || s == 0 {
        return None;
    }
    let scaled: Vec<f64> = x_hat.iter().map(|v| v * s as f64 / mass).collect();
    let mut nu: Vec<usize> = scaled
        .iter()
        .zip(caps.iter())
        .map(|(&t, &c)| (t.floor() as usize).min(c))
        .collect();
    let mut assigned: usize = nu.iter().sum();
    if assigned < s {
        // Distribute the remainder by descending fractional part among
        // entries with spare cap.
        let mut order: Vec<usize> = (0..x_hat.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = scaled[a] - scaled[a].floor();
            let fb = scaled[b] - scaled[b].floor();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        // Possibly several rounds if caps bind.
        'outer: loop {
            let mut progressed = false;
            for &i in &order {
                if assigned >= s {
                    break 'outer;
                }
                if nu[i] < caps[i] {
                    nu[i] += 1;
                    assigned += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break; // All caps saturated; ‖ν‖₁ < s is acceptable (≤ m).
            }
        }
    }
    if nu.iter().all(|&v| v == 0) {
        None
    } else {
        Some(nu)
    }
}

/// Keep `sel` in `best` when it fits the budget `m` and strictly beats the
/// incumbent under `evaluate`.
fn consider<F>(best: &mut Option<(f64, Selection)>, sel: Selection, m: usize, evaluate: &mut F)
where
    F: FnMut(&Selection) -> f64,
{
    if sel.len() > m {
        return;
    }
    let cost = evaluate(&sel);
    if best.as_ref().is_none_or(|(c, _)| cost < *c) {
        *best = Some((cost, sel));
    }
}

/// The single review (one per dedup group) minimising `evaluate`; empty
/// when the item has no reviews or `m == 0`.
///
/// Integer-Regression falls back to it when the relaxation yields no
/// candidate (e.g. the item's reviews are entirely uncorrelated with the
/// target), and the unchecked solvers select it for an item whose
/// regression failed, so they degrade instead of failing.
pub(crate) fn best_single_review<F>(dedup: &DedupColumns, m: usize, mut evaluate: F) -> Selection
where
    F: FnMut(&Selection) -> f64,
{
    let q = dedup.len();
    let mut best = None;
    for g in 0..q {
        let mut nu = vec![0usize; q];
        nu[g] = 1;
        consider(&mut best, dedup.expand(&nu), m, &mut evaluate);
    }
    best.map(|(_, s)| s).unwrap_or_default()
}

/// Run Integer-Regression for one item (Algorithm 1 lines 6–12).
///
/// `evaluate` must return the true objective of a candidate selection
/// (lower is better); the best candidate over all ℓ and rounding masses is
/// returned. When no non-trivial candidate emerges (e.g. the item's
/// reviews are entirely uncorrelated with the target), falls back to
/// selecting the single review minimising `evaluate`.
///
/// The ℓ-sweep of Algorithm 1 line 7 runs as **one** shared NOMP pursuit
/// ([`comparesets_linalg::nomp_path`]): the pursuit's state evolution is
/// independent of the budget, so the per-ℓ relaxations are snapshots of a
/// single run instead of `m` runs — identical solutions, ~`m×` less solver
/// work. `workspace` is the pursuit's scratch, reused across calls;
/// `ctl` carries the optional metrics collector (the regression and
/// everything its relaxation does are counted) and the optional
/// cancellation token, polled inside the relaxation. A fired token
/// collapses the relaxation to its best-so-far state, so the answer is
/// still feasible and non-empty, just less refined.
///
/// # Errors
/// The [`SolveError`] the NOMP relaxation reported (non-finite targets or
/// design entries). The unchecked solvers answer such an item with
/// the best single review instead.
pub fn integer_regression<F>(
    task: &RegressionTask<'_>,
    m: usize,
    mut evaluate: F,
    workspace: &mut NompWorkspace,
    ctl: SolveCtl<'_>,
) -> Result<Selection, SolveError>
where
    F: FnMut(&Selection) -> f64,
{
    let caps = task.dedup.caps();
    let q = task.dedup.len();
    if let Some(mm) = ctl.metrics {
        SolverMetrics::incr(&mm.integer_regressions);
    }
    let span = tracing::debug_span!("integer_regression", m = m, q = q);
    let _span_guard = span.enter();
    let mut best: Option<(f64, Selection)> = None;
    if q > 0 && m > 0 {
        // Budgets ℓ > q stop exactly where ℓ = q does (the support can
        // never exceed the q distinct columns), so the path only needs the
        // distinct budgets 1..=min(m, q); duplicates would re-evaluate the
        // same candidates and lose every strict-< comparison anyway.
        let path = nomp_path(&task.matrix, &task.target, m.min(q), workspace, ctl)?;
        for res in &path {
            if res.support.is_empty() {
                continue;
            }
            for s in 1..=m {
                if let Some(nu) = round_with_caps(&res.x, s, &caps) {
                    consider(&mut best, task.dedup.expand(&nu), m, &mut evaluate);
                }
            }
        }
    }
    // Every rounded candidate is non-empty, so `None` is exactly "no
    // candidate emerged".
    Ok(match best {
        Some((_, selection)) => selection,
        None => best_single_review(task.dedup, m, evaluate),
    })
}

/// The memoized answer of one completed regression, with every input it
/// is a function of besides the item itself.
#[derive(Debug, Clone)]
struct Memo {
    /// The stacked target Υ ([`RegressionTask::try_stack_target`]).
    target: Vec<f64>,
    /// The aspect-block weights (λ, μ, …) in block order, as bits: they
    /// scale the design matrix and the objective without necessarily
    /// showing in the target (a zero φ(Sⱼ) block stacks to zeros under
    /// any μ).
    weight_bits: Vec<u64>,
    /// The budget m.
    m: usize,
    /// The dedup caps cᵢ, one per column group.
    caps: Vec<usize>,
    /// The selection the regression returned.
    selection: Selection,
    /// Greedy iterations of the pursuit that produced `selection`.
    iterations: u64,
    /// Budget snapshots that pursuit took (`min(m, q)`).
    snapshots: u64,
}

/// Per-item answer memo for repeated integer regressions.
///
/// Holds the last completed selection of one item's regression, keyed on
/// the stacked target, the bits of the block weights, the budget `m`, and
/// the dedup caps. A regression whose inputs repeat all of these bit for
/// bit is deterministic, so the memo's answer *is* what a cold solve
/// returns, and it is served without building the design matrix, running
/// the pursuit, or rounding anything. The item itself is not in the key:
/// a memo belongs to one item, and a changed item is a new item (the
/// serving daemon keys its memos on item versions).
///
/// Alternating solvers hold one per item across sweeps, where a
/// stabilised round repeats its regression verbatim; the serving daemon
/// carries them across near-repeat queries. A memo hit counts into the
/// metrics as the pursuit it replaces: one regression, one pursuit, its
/// iterations (each a `warm_start_hits` iteration, with no refit) and its
/// budget snapshots.
#[derive(Debug, Clone, Default)]
pub struct RegressionWarm {
    memo: Option<Memo>,
}

impl RegressionWarm {
    /// An empty memo; fills on the first regression it is threaded into.
    pub fn new() -> Self {
        RegressionWarm::default()
    }

    /// Heap bytes the memo holds (vector capacities); 0 when empty. The
    /// serving daemon sums this over its session cache and reports it as
    /// `resident_bytes` in `health`.
    pub fn memo_bytes(&self) -> u64 {
        self.memo.as_ref().map_or(0, |memo| {
            let words = memo.target.capacity()
                + memo.weight_bits.capacity()
                + memo.caps.capacity()
                + memo.selection.indices.capacity();
            (words * std::mem::size_of::<u64>()) as u64
        })
    }

    /// The memoized selection when `target`, the weights of
    /// `aspect_targets`, `m`, and the caps of `dedup` all repeat the
    /// memo's inputs bit for bit; the reuse is counted into `metrics`.
    pub(crate) fn recall(
        &self,
        target: &[f64],
        aspect_targets: &[(&[f64], f64)],
        m: usize,
        dedup: &DedupColumns,
        metrics: Option<&SolverMetrics>,
    ) -> Option<Selection> {
        let memo = self.memo.as_ref()?;
        let same = memo.m == m
            && memo.caps.len() == dedup.len()
            && memo
                .caps
                .iter()
                .zip(&dedup.groups)
                .all(|(&c, g)| c == g.len())
            && memo.weight_bits.len() == aspect_targets.len()
            && memo
                .weight_bits
                .iter()
                .zip(aspect_targets)
                .all(|(&bits, &(_, w))| bits == w.to_bits())
            && memo.target.len() == target.len()
            && memo
                .target
                .iter()
                .zip(target)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return None;
        }
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.integer_regressions);
            SolverMetrics::incr(&mm.nomp_pursuits);
            SolverMetrics::add(&mm.nomp_iterations, memo.iterations);
            SolverMetrics::add(&mm.warm_start_hits, memo.iterations);
            SolverMetrics::add(&mm.path_snapshots, memo.snapshots);
        }
        Some(memo.selection.clone())
    }

    /// Memoize a completed regression of `task` under `aspect_targets`
    /// and `m`; `iterations` are its pursuit's greedy iterations
    /// ([`NompWorkspace::iterations`]). A regression that ran no pursuit
    /// (`m == 0` or no reviews) leaves the memo as it was.
    pub(crate) fn remember(
        &mut self,
        task: RegressionTask<'_>,
        aspect_targets: &[(&[f64], f64)],
        m: usize,
        selection: &Selection,
        iterations: u64,
    ) {
        let q = task.dedup.len();
        if m == 0 || q == 0 {
            return;
        }
        self.memo = Some(Memo {
            target: task.target,
            weight_bits: aspect_targets.iter().map(|&(_, w)| w.to_bits()).collect(),
            m,
            caps: task.dedup.caps(),
            selection: selection.clone(),
            iterations,
            snapshots: m.min(q) as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;
    use crate::space::{OpinionScheme, VectorSpace};
    use comparesets_data::{Polarity, ProductId, ReviewId};
    use comparesets_linalg::vector::sq_distance;

    fn item_with(reviews: Vec<Vec<(usize, Polarity)>>) -> Item {
        Item::from_mentions(
            ProductId(0),
            reviews
                .into_iter()
                .enumerate()
                .map(|(i, ms)| (ReviewId(i as u32), ms))
                .collect(),
        )
    }

    fn regress(
        task: &RegressionTask<'_>,
        m: usize,
        evaluate: impl Fn(&Selection) -> f64,
    ) -> Selection {
        integer_regression(
            task,
            m,
            evaluate,
            &mut NompWorkspace::new(),
            SolveCtl::default(),
        )
        .unwrap()
    }

    #[test]
    fn dedup_groups_identical_reviews() {
        use Polarity::Positive;
        let item = item_with(vec![
            vec![(0, Positive)],
            vec![(1, Positive)],
            vec![(0, Positive)],
            vec![(0, Positive)],
        ]);
        let d = DedupColumns::build(&item);
        assert_eq!(d.len(), 2);
        assert_eq!(d.caps(), vec![3, 1]);
        let sel = d.expand(&[2, 1]);
        assert_eq!(sel.indices, vec![0, 1, 2]);
        assert!(!d.is_empty());
    }

    #[test]
    fn round_with_caps_basic() {
        // x̂ = (0.5, 0.5), s = 3, caps (2, 2) → (2,1) or (1,2); largest
        // remainder with equal fractions keeps order stability.
        let nu = round_with_caps(&[0.5, 0.5], 3, &[2, 2]).unwrap();
        assert_eq!(nu.iter().sum::<usize>(), 3);
        assert!(nu.iter().all(|&v| v <= 2));
    }

    #[test]
    fn round_with_caps_respects_caps() {
        let nu = round_with_caps(&[1.0, 0.0], 5, &[2, 3]).unwrap();
        assert_eq!(nu[0], 2);
        // Cap binds; remainder flows to the other entry up to its cap.
        assert!(nu.iter().sum::<usize>() <= 5);
    }

    #[test]
    fn round_with_caps_zero_mass_is_none() {
        assert!(round_with_caps(&[0.0, 0.0], 3, &[1, 1]).is_none());
        assert!(round_with_caps(&[0.5], 0, &[1]).is_none());
    }

    #[test]
    fn task_builder_shapes() {
        use Polarity::{Negative, Positive};
        let item = item_with(vec![vec![(0, Positive)], vec![(1, Negative)]]);
        let space = VectorSpace::new(2, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let tau = vec![0.5, 0.0, 0.0, 0.5];
        let gamma = vec![1.0, 1.0];
        let phi_other = vec![1.0, 0.0];
        let task = RegressionTask::build(
            &space,
            &item,
            &dedup,
            &tau,
            &[(&gamma, 2.0), (&phi_other, 0.5)],
        );
        // rows = 4 (opinion) + 2 + 2.
        assert_eq!(task.matrix.rows(), 8);
        assert_eq!(task.matrix.cols(), 2);
        // Aspect block of review 0 is weighted by 2.0 then 0.5.
        assert_eq!(task.matrix.get(4, 0), 2.0);
        assert_eq!(task.matrix.get(6, 0), 0.5);
        // Target is [τ; 2Γ; 0.5φ].
        assert_eq!(task.target.len(), 8);
        assert_eq!(task.target[4], 2.0);
        assert_eq!(task.target[6], 0.5);
    }

    /// Working Example 2: Integer-Regression on ℛ₁ with m = 3 and λ = 1
    /// must recover a selection whose π and φ equal τ₁ and Γ exactly.
    #[test]
    fn working_example_2_recovers_optimal_selection() {
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let all: Vec<usize> = (0..7).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = RegressionTask::build(&space, &item, &dedup, &tau, &[(&gamma, 1.0)]);
        let sel = regress(&task, 3, |s| {
            let pi = space.pi(&item, &s.indices);
            let phi = space.phi(&item, &s.indices);
            sq_distance(&tau, &pi) + sq_distance(&gamma, &phi)
        });
        assert!(sel.len() <= 3);
        let pi = space.pi(&item, &sel.indices);
        let phi = space.phi(&item, &sel.indices);
        assert!(
            sq_distance(&tau, &pi) < 1e-12,
            "pi {pi:?} tau {tau:?} sel {sel:?}"
        );
        assert!(sq_distance(&gamma, &phi) < 1e-12, "phi {phi:?}");
    }

    /// With m ≥ 4 the paper notes {r1,r2,r3,r4} is another optimum; the
    /// solver must still achieve zero objective.
    #[test]
    fn working_example_2_with_larger_budget() {
        let item = crate::space::fixtures::working_example_item();
        let space = VectorSpace::new(5, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let all: Vec<usize> = (0..7).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        let task = RegressionTask::build(&space, &item, &dedup, &tau, &[(&gamma, 1.0)]);
        let sel = regress(&task, 4, |s| {
            let pi = space.pi(&item, &s.indices);
            let phi = space.phi(&item, &s.indices);
            sq_distance(&tau, &pi) + sq_distance(&gamma, &phi)
        });
        let pi = space.pi(&item, &sel.indices);
        let phi = space.phi(&item, &sel.indices);
        assert!(sq_distance(&tau, &pi) + sq_distance(&gamma, &phi) < 1e-12);
    }

    #[test]
    fn never_exceeds_budget_and_never_empty() {
        use Polarity::{Negative, Positive};
        let item = item_with(vec![
            vec![(0, Positive)],
            vec![(0, Negative)],
            vec![(1, Positive)],
            vec![(2, Negative)],
            vec![(0, Positive), (1, Negative)],
        ]);
        let space = VectorSpace::new(3, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let all: Vec<usize> = (0..5).collect();
        let tau = space.pi(&item, &all);
        let gamma = space.phi(&item, &all);
        for m in 1..=5 {
            let task = RegressionTask::build(&space, &item, &dedup, &tau, &[(&gamma, 1.0)]);
            let sel = regress(&task, m, |s| {
                let pi = space.pi(&item, &s.indices);
                sq_distance(&tau, &pi)
            });
            assert!(!sel.is_empty(), "m={m}");
            assert!(sel.len() <= m, "m={m} sel={sel:?}");
        }
    }

    #[test]
    fn single_review_item() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(1, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let tau = vec![1.0, 0.0];
        let gamma = vec![1.0];
        let task = RegressionTask::build(&space, &item, &dedup, &tau, &[(&gamma, 1.0)]);
        let sel = regress(&task, 3, |s| {
            sq_distance(&tau, &space.pi(&item, &s.indices))
        });
        assert_eq!(sel.indices, vec![0]);
    }

    #[test]
    fn try_build_classifies_dimension_mismatches() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(2, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let short_tau = vec![1.0]; // opinion_dim is 4 for Binary over 2 aspects
        let r = RegressionTask::try_build(&space, &item, &dedup, &short_tau, &[]);
        assert!(matches!(
            r,
            Err(crate::error::CoreError::DimensionMismatch { .. })
        ));
        let tau = vec![0.0; space.opinion_dim()];
        let short_gamma = vec![1.0];
        let r = RegressionTask::try_build(&space, &item, &dedup, &tau, &[(&short_gamma, 1.0)]);
        assert!(matches!(
            r,
            Err(crate::error::CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn strict_variant_propagates_non_finite_targets() {
        let item = item_with(vec![vec![(0, Polarity::Positive)]]);
        let space = VectorSpace::new(1, OpinionScheme::Binary);
        let dedup = DedupColumns::build(&item);
        let tau = vec![1.0, 0.0];
        let mut task = RegressionTask::build(&space, &item, &dedup, &tau, &[]);
        task.target[0] = f64::NAN;
        let r = integer_regression(
            &task,
            2,
            |_| 0.0,
            &mut NompWorkspace::new(),
            SolveCtl::default(),
        );
        assert!(matches!(r, Err(SolveError::NonFinite { .. })));
        // The unchecked solvers degrade to the single-review fallback
        // instead of failing.
        let sel = best_single_review(task.dedup, 2, |_| 0.0);
        assert_eq!(sel.indices, vec![0]);
    }
}
