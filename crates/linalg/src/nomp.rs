//! Non-negative Orthogonal Matching Pursuit (NOMP) with budget-path
//! sharing and Gram caching.
//!
//! Algorithm 1 of the paper calls `NOMP(Ṽ, Υ)` to find a sparse,
//! non-negative `x` with `‖x‖₀ ≤ ℓ` that makes `‖Ṽ x − Υ‖₂` small — the
//! continuous relaxation of review selection, following the
//! Integer-Regression strategy of Lappas, Crovella & Terzi (KDD'12).
//!
//! The pursuit is the classic greedy loop: repeatedly add the column with
//! the largest positive correlation to the current residual, refit on the
//! active set with non-negative least squares, prune any atom the refit
//! zeroed out, and stop once `ℓ` atoms are active, no column correlates
//! positively, or the residual stops improving. Two structural
//! optimisations make it fast without changing a single selected atom:
//!
//! * **Budget-path sharing** ([`nomp_path`]). Integer-Regression sweeps
//!   ℓ = 1…m (Algorithm 1 line 7), but the pursuit's loop body never reads
//!   the budget — only the loop *condition* does. One pursuit to the
//!   largest budget therefore passes through the exact state every smaller
//!   budget would have stopped at; [`nomp_path`] snapshots those states and
//!   returns all m results for the cost of one run.
//! * **Gram caching**. Each refit needs the active-set normal equations
//!   `G = AₛᵀAₛ`, `Aₛᵀb`. Instead of re-materialising the active submatrix
//!   and re-multiplying it every iteration (`O(rows·s²)` per refit), the
//!   engine maintains `G` and `Aₛᵀb` incrementally — an entering atom costs
//!   `s` column dot products ([`DesignMatrix::column_dot`]), a pruned atom
//!   deletes its row/column — and refits entirely in `s × s` space with
//!   [`crate::nnls::nnls_gram`].
//!
//! Scratch buffers (residual, correlations, the cached Gram) live in a
//! reusable [`NompWorkspace`] so solvers that run many pursuits (one per
//! item per sweep in CompaReSetS+) allocate once per solve.
//!
//! Every pursuit starts cold: re-solves with a repeated input are answered
//! above this crate, by the per-item answer memo of
//! `comparesets_core::RegressionWarm` (ARCHITECTURE.md §9).
//!
//! ```
//! use comparesets_linalg::{nomp_path, Matrix, NompWorkspace};
//! use comparesets_obs::SolveCtl;
//!
//! let a = Matrix::from_rows(&[
//!     vec![1.0, 0.0, 0.6],
//!     vec![0.0, 1.0, 0.8],
//! ])
//! .unwrap();
//! let b = vec![1.0, 2.0];
//! let mut ws = NompWorkspace::new();
//!
//! // One pursuit, every budget ℓ = 1..=2: path[l-1] is the budget-ℓ result.
//! let path = nomp_path(&a, &b, 2, &mut ws, SolveCtl::default()).unwrap();
//! assert_eq!(path.len(), 2);
//! assert!(path[1].sq_residual <= path[0].sq_residual + 1e-12);
//!
//! // Identical to a pursuit that stops at budget 1.
//! let single = nomp_path(&a, &b, 1, &mut ws, SolveCtl::default()).unwrap();
//! assert_eq!(single[0].support, path[0].support);
//! assert_eq!(single[0].x, path[0].x);
//! ```

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::nnls::{nnls, nnls_gram};
use crate::sparse::DesignMatrix;
use crate::vector;
use comparesets_obs::{SolveCtl, SolverMetrics};

/// Stop when the squared residual improves by less than this factor of
/// the previous squared residual.
const MIN_RELATIVE_IMPROVEMENT: f64 = 1e-12;

/// Absolute squared-residual floor at which a pursuit stops early.
const RESIDUAL_TOLERANCE: f64 = 1e-18;

/// Outcome of a NOMP run.
#[derive(Debug, Clone)]
pub struct NompResult {
    /// Dense solution vector (length = number of columns); entries off the
    /// support are exactly zero.
    pub x: Vec<f64>,
    /// Active column indices in the order they were selected.
    pub support: Vec<usize>,
    /// Final squared residual ‖A x − b‖₂².
    pub sq_residual: f64,
}

/// Reusable scratch for the pursuit engine: residual and correlation
/// buffers sized to the design matrix, plus the incrementally maintained
/// active-set Gram matrix and `Aᵀb` restriction.
///
/// A workspace carries no results between runs — every pursuit resets it —
/// but reusing one across the many pursuits of an alternating solve
/// (CompaReSetS+ re-solves each item every sweep) avoids re-allocating the
/// `O(rows + cols)` buffers each time.
#[derive(Debug, Clone, Default)]
pub struct NompWorkspace {
    col_norms: Vec<f64>,
    col_buf: Vec<f64>,
    residual: Vec<f64>,
    x: Vec<f64>,
    in_support: Vec<bool>,
    support: Vec<usize>,
    /// Active-set Gram matrix `AₛᵀAₛ`, row per support atom (in support
    /// order), maintained incrementally as atoms enter and leave.
    gram_rows: Vec<Vec<f64>>,
    /// `Aₛᵀb` restricted to the support, same order as `gram_rows`.
    atb: Vec<f64>,
    /// Greedy iterations (accepted atoms) of the last pursuit.
    iterations: u64,
}

impl NompWorkspace {
    /// An empty workspace; buffers grow to fit on first use.
    pub fn new() -> Self {
        NompWorkspace::default()
    }

    /// Greedy iterations — atoms that entered the support — of the last
    /// pursuit run on this workspace: what that pursuit added to the
    /// `nomp_iterations` counter.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    fn reset(&mut self, rows: usize, cols: usize) {
        self.col_norms.clear();
        self.col_norms.resize(cols, 0.0);
        self.col_buf.clear();
        self.col_buf.resize(rows, 0.0);
        self.residual.clear();
        self.residual.resize(rows, 0.0);
        self.x.clear();
        self.x.resize(cols, 0.0);
        self.in_support.clear();
        self.in_support.resize(cols, false);
        self.support.clear();
        self.gram_rows.clear();
        self.atb.clear();
        self.iterations = 0;
    }

    fn snapshot(&self, sq_residual: f64) -> NompResult {
        NompResult {
            x: self.x.clone(),
            support: self.support.clone(),
            sq_residual,
        }
    }
}

/// Run one shared pursuit and return the results for **every** budget
/// `ℓ = 1..=max_atoms` (`path[l-1]` is the budget-`l` result).
///
/// Each entry is identical — same support, same coefficients, same
/// residual — to the last entry of a pursuit run with `max_atoms = l`,
/// because the pursuit's state evolution does not depend on the budget;
/// only the stopping point does. Integer-Regression's ℓ-sweep thus costs
/// one pursuit instead of m.
///
/// A snapshot for budget `l` is taken at the first loop-condition check
/// where that budget's stopping condition holds — `support.len() ≥
/// min(l, cols)` or the residual floor is reached. This is exactly where a
/// pursuit to budget `l` exits its loop. Pruning may later shrink the
/// support below `l` again; the snapshot stays. When the pursuit breaks
/// out of the loop body (no positive correlation, the entering atom was
/// pruned straight back out, or the residual stopped improving), every
/// still-pending budget receives the current state — a pursuit to any
/// such budget would have executed the identical step and broken
/// identically.
///
/// `ctl` carries the optional metrics collector — the pursuit counts its
/// iterations, refits, Gram-cache hits, budget snapshots, and wall time;
/// with `None` no atomic is touched and no clock is read — and the
/// optional cancellation token, polled once per pursuit iteration and
/// inside every NNLS refit. A fired token takes the same exit as the "no
/// progress" break — every still-pending budget receives the current
/// (always feasible) state — so a cancelled pursuit returns `Ok` with its
/// best-so-far path rather than an error; the caller decides whether that
/// counts as a deadline failure. Without a token the path is exactly the
/// token-less one.
///
/// # Errors
/// [`LinalgError::DimensionMismatch`] when `b.len() != a.rows()`;
/// [`LinalgError::InvalidArgument`] when `max_atoms == 0`;
/// [`LinalgError::NonFinite`] when `b` or the design matrix holds a NaN or
/// an infinity.
pub fn nomp_path<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    max_atoms: usize,
    ws: &mut NompWorkspace,
    ctl: SolveCtl<'_>,
) -> Result<Vec<NompResult>, LinalgError> {
    let metrics = ctl.metrics;
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            context: "nomp",
            expected: m,
            actual: b.len(),
        });
    }
    if max_atoms == 0 {
        return Err(LinalgError::InvalidArgument("nomp: max_atoms must be > 0"));
    }

    if !vector::all_finite(b) {
        return Err(LinalgError::NonFinite {
            context: "nomp rhs",
        });
    }

    // Observability seam: with `metrics` absent (the default) neither an
    // atomic nor a clock is ever touched on this path, and the disabled
    // span below costs one relaxed load.
    if let Some(mm) = metrics {
        SolverMetrics::incr(&mm.nomp_pursuits);
    }
    let pursuit_start = metrics.map(|_| std::time::Instant::now());
    let span = tracing::trace_span!("nomp_pursuit", rows = m, cols = n, l_max = max_atoms);
    let _span_guard = span.enter();

    ws.reset(m, n);

    // Column norms for correlation normalisation; zero columns are never
    // selected. A NaN/Inf anywhere in a column makes its norm non-finite,
    // so this pass doubles as the up-front finiteness scan of the design
    // matrix (which may be sparse — scanning norms avoids densifying it).
    for j in 0..n {
        a.column_into(j, &mut ws.col_buf);
        ws.col_norms[j] = vector::norm2(&ws.col_buf);
    }
    if !vector::all_finite(&ws.col_norms) {
        return Err(LinalgError::NonFinite {
            context: "nomp design matrix",
        });
    }

    ws.residual.copy_from_slice(b);
    let mut sq_res = vector::dot(&ws.residual, &ws.residual);

    let mut results: Vec<NompResult> = Vec::with_capacity(max_atoms);

    loop {
        // Budget checkpoints: every budget whose stopping condition first
        // holds here gets the current state.
        while results.len() < max_atoms {
            let l = results.len() + 1;
            if ws.support.len() >= l.min(n) || sq_res <= RESIDUAL_TOLERANCE {
                if let Some(mm) = metrics {
                    SolverMetrics::incr(&mm.path_snapshots);
                }
                results.push(ws.snapshot(sq_res));
            } else {
                break;
            }
        }
        if results.len() == max_atoms {
            break;
        }

        // Cooperative cancellation: polled once per pursuit iteration.
        // A fired token takes the same exit as "no progress" below, so the
        // post-loop fill hands every pending budget the current feasible
        // state (anytime semantics).
        if ctl.is_cancelled() {
            break;
        }

        // Correlations of all columns with the residual.
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.sparse_corr_scans);
        }
        let corr = a.tr_matvec(&ws.residual)?;
        let mut best_j = None;
        let mut best_c = 0.0_f64;
        for (j, &cj) in corr.iter().enumerate() {
            if ws.in_support[j] || ws.col_norms[j] == 0.0 {
                continue;
            }
            let c = cj / ws.col_norms[j];
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            break; // No positively correlated column remains.
        };
        ws.iterations += 1;
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.nomp_iterations);
            // Every refit after the first reuses the incrementally
            // maintained Gram instead of rebuilding it from the design
            // matrix — that reuse is what the cache counter measures.
            if !ws.support.is_empty() {
                SolverMetrics::incr(&mm.gram_cache_hits);
            }
        }

        // Enter j_star: extend the cached Gram and Aᵀb by one atom.
        let entering_dots: Vec<f64> = ws
            .support
            .iter()
            .map(|&k| a.column_dot(k, j_star))
            .collect();
        for (row, &g) in ws.gram_rows.iter_mut().zip(entering_dots.iter()) {
            row.push(g);
        }
        let mut new_row = entering_dots;
        new_row.push(a.column_dot(j_star, j_star));
        ws.gram_rows.push(new_row);
        ws.atb.push(a.column_dot_vec(j_star, b));
        ws.support.push(j_star);
        ws.in_support[j_star] = true;

        // Refit on the active set entirely in Gram space. The NNLS refit
        // never fails on iteration exhaustion: a slow-to-converge refit
        // degrades this step's fit (best feasible iterate) instead of
        // aborting the item — the improvement check below then decides
        // whether pursuit can continue.
        let g = Matrix::from_rows(&ws.gram_rows)?;
        let refit_start = metrics.map(|_| std::time::Instant::now());
        let (x_sub, refit_diag) = nnls_gram(&g, &ws.atb, ctl)?;
        if let Some(mm) = metrics {
            if let Some(t) = refit_start {
                SolverMetrics::add_time(&mm.refit_nanos, t.elapsed());
            }
            SolverMetrics::incr(&mm.nnls_refits);
            SolverMetrics::add(&mm.nnls_iterations, refit_diag.iterations as u64);
            if !refit_diag.converged {
                SolverMetrics::incr(&mm.nnls_cap_hits);
                tracing::warn!(
                    "nnls refit hit its iteration cap after {} outer iterations",
                    refit_diag.iterations
                );
            }
        }

        // Prune zeroed atoms (keeps the support meaningful) and compact the
        // cached normal equations accordingly.
        let entering_pos = ws.support.len() - 1;
        let pruned_entering = x_sub[entering_pos] <= 0.0;
        let mut kept_pos: Vec<usize> = Vec::with_capacity(ws.support.len());
        for (pos, v) in x_sub.iter().enumerate() {
            if *v > 0.0 {
                kept_pos.push(pos);
            } else {
                ws.in_support[ws.support[pos]] = false;
            }
        }
        // Write the dense solution.
        ws.x.iter_mut().for_each(|v| *v = 0.0);
        for (v, &j) in x_sub.iter().zip(ws.support.iter()) {
            if *v > 0.0 {
                ws.x[j] = *v;
            }
        }
        if kept_pos.len() < ws.support.len() {
            ws.support = kept_pos.iter().map(|&p| ws.support[p]).collect();
            ws.atb = kept_pos.iter().map(|&p| ws.atb[p]).collect();
            ws.gram_rows = kept_pos
                .iter()
                .map(|&p| kept_pos.iter().map(|&q| ws.gram_rows[p][q]).collect())
                .collect();
        }

        // Update residual.
        ws.residual.copy_from_slice(b);
        let ax = a.matvec(&ws.x)?;
        for (r, v) in ws.residual.iter_mut().zip(ax.iter()) {
            *r -= v;
        }
        let new_sq = vector::dot(&ws.residual, &ws.residual);
        let improved = sq_res - new_sq > MIN_RELATIVE_IMPROVEMENT * sq_res.max(1e-30);
        sq_res = new_sq;
        if pruned_entering || !improved {
            break; // No progress possible.
        }
    }

    // A break above ends every budget not yet recorded at the current
    // state.
    while results.len() < max_atoms {
        if let Some(mm) = metrics {
            SolverMetrics::incr(&mm.path_snapshots);
        }
        results.push(ws.snapshot(sq_res));
    }
    if let (Some(mm), Some(t)) = (metrics, pursuit_start) {
        SolverMetrics::add_time(&mm.pursuit_nanos, t.elapsed());
    }
    Ok(results)
}

/// The straightforward NOMP implementation this crate shipped before the
/// Gram-cached engine: one pursuit to budget `max_atoms` that, per
/// iteration, re-materialises the active submatrix and refits with
/// design-space [`crate::nnls::nnls`].
///
/// Kept as the oracle for equivalence tests (the optimised engine must
/// match it to tight tolerance on random instances) and as readable
/// reference code for the pursuit itself.
///
/// # Errors
/// As [`nomp_path`].
pub fn nomp_reference<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    max_atoms: usize,
) -> Result<NompResult, LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            context: "nomp",
            expected: m,
            actual: b.len(),
        });
    }
    if max_atoms == 0 {
        return Err(LinalgError::InvalidArgument("nomp: max_atoms must be > 0"));
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFinite {
            context: "nomp rhs",
        });
    }

    let mut support: Vec<usize> = Vec::with_capacity(max_atoms.min(n));
    let mut in_support = vec![false; n];
    let mut x = vec![0.0_f64; n];
    let mut residual = b.to_vec();
    let mut sq_res = vector::dot(&residual, &residual);

    let mut col_norms = vec![0.0_f64; n];
    let mut col = vec![0.0_f64; m];
    for (j, cn) in col_norms.iter_mut().enumerate() {
        a.column_into(j, &mut col);
        *cn = vector::norm2(&col);
    }
    if !vector::all_finite(&col_norms) {
        return Err(LinalgError::NonFinite {
            context: "nomp design matrix",
        });
    }

    while support.len() < max_atoms.min(n) && sq_res > RESIDUAL_TOLERANCE {
        let corr = a.tr_matvec(&residual)?;
        let mut best_j = None;
        let mut best_c = 0.0_f64;
        for j in 0..n {
            if in_support[j] || col_norms[j] == 0.0 {
                continue;
            }
            let c = corr[j] / col_norms[j];
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            break;
        };
        support.push(j_star);
        in_support[j_star] = true;

        let sub = a.dense_columns(&support);
        let (x_sub, _refit_diag) = nnls(&sub, b)?;

        let mut kept: Vec<usize> = Vec::with_capacity(support.len());
        for (v, &j) in x_sub.iter().zip(support.iter()) {
            if *v > 0.0 {
                kept.push(j);
            } else {
                in_support[j] = false;
            }
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        for (v, &j) in x_sub.iter().zip(support.iter()) {
            if *v > 0.0 {
                x[j] = *v;
            }
        }
        let pruned_entering = !kept.contains(&j_star);
        support = kept;

        residual.copy_from_slice(b);
        let ax = a.matvec(&x)?;
        for (r, v) in residual.iter_mut().zip(ax.iter()) {
            *r -= v;
        }
        let new_sq = vector::dot(&residual, &residual);
        let improved = sq_res - new_sq > MIN_RELATIVE_IMPROVEMENT * sq_res.max(1e-30);
        sq_res = new_sq;
        if pruned_entering || !improved {
            break;
        }
    }

    Ok(NompResult {
        x,
        support,
        sq_residual: sq_res,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse::CscMatrix;

    /// The budget path of a fresh, unmetered pursuit.
    fn path<M: DesignMatrix>(
        a: &M,
        b: &[f64],
        max_atoms: usize,
    ) -> Result<Vec<NompResult>, LinalgError> {
        nomp_path(
            a,
            b,
            max_atoms,
            &mut NompWorkspace::new(),
            SolveCtl::default(),
        )
    }

    /// The result at budget `max_atoms`: the last entry of its path.
    fn nomp<M: DesignMatrix>(
        a: &M,
        b: &[f64],
        max_atoms: usize,
    ) -> Result<NompResult, LinalgError> {
        let mut p = path(a, b, max_atoms)?;
        Ok(p.pop().expect("a path has max_atoms > 0 entries"))
    }

    #[test]
    fn recovers_single_atom() {
        // b is exactly 2 × column 1.
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]).unwrap();
        let b = vec![0.0, 2.0];
        let r = nomp(&a, &b, 1).unwrap();
        assert_eq!(r.support, vec![1]);
        assert!((r.x[1] - 2.0).abs() < 1e-10);
        assert!(r.sq_residual < 1e-16);
    }

    #[test]
    fn recovers_two_atoms() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.5],
            vec![0.0, 0.0, 0.5],
        ])
        .unwrap();
        // b = 1*c0 + 3*c1
        let b = vec![1.0, 3.0, 0.0];
        let r = nomp(&a, &b, 2).unwrap();
        let mut s = r.support.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
        assert!((r.x[0] - 1.0).abs() < 1e-8);
        assert!((r.x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn respects_atom_budget() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        let b = vec![1.0, 1.0, 1.0];
        let r = nomp(&a, &b, 2).unwrap();
        assert!(r.support.len() <= 2);
        assert!(r.sq_residual > 0.9); // one coordinate must remain unexplained
    }

    #[test]
    fn solution_is_nonnegative() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![2.0, 0.0];
        let r = nomp(&a, &b, 2).unwrap();
        assert!(r.x.iter().all(|&v| v >= 0.0), "x = {:?}", r.x);
    }

    #[test]
    fn zero_budget_is_an_error() {
        let a = Matrix::identity(2);
        assert!(matches!(
            path(&a, &[1.0, 1.0], 0),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(path(&a, &[1.0], 1).is_err());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        for r in [
            nomp(&a, &[1.0, 1.0], 1).map(|r| r.x),
            nomp_reference(&a, &[1.0, 1.0], 1).map(|r| r.x),
        ] {
            assert!(matches!(r, Err(LinalgError::NonFinite { .. })));
        }
        let a = Matrix::identity(2);
        for r in [
            nomp(&a, &[1.0, f64::NAN], 1).map(|r| r.x),
            nomp_reference(&a, &[f64::INFINITY, 1.0], 1).map(|r| r.x),
        ] {
            assert!(matches!(r, Err(LinalgError::NonFinite { .. })));
        }
        // Sparse design matrices are scanned through the same norm pass.
        let bad = CscMatrix::from_columns(2, vec![vec![(0, f64::INFINITY)], vec![(1, 1.0)]]);
        assert!(matches!(
            nomp(&bad, &[1.0, 1.0], 1),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn anticorrelated_target_selects_nothing() {
        // Every column is the negative of b's direction: no positive
        // correlation, so the support stays empty and x = 0.
        let a = Matrix::from_rows(&[vec![-1.0, -2.0], vec![-1.0, -2.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let r = nomp(&a, &b, 2).unwrap();
        assert!(r.support.is_empty());
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert!((r.sq_residual - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_columns_are_skipped() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let r = nomp(&a, &b, 2).unwrap();
        assert_eq!(r.support, vec![1]);
    }

    #[test]
    fn duplicate_columns_pick_one() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![3.0, 3.0];
        let r = nomp(&a, &b, 2).unwrap();
        // Either column alone explains b.
        assert!(r.sq_residual < 1e-10);
    }

    #[test]
    fn residual_decreases_with_budget() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.3],
            vec![0.0, 1.0, 0.0, 0.3],
            vec![0.0, 0.0, 1.0, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, 0.8, 0.6];
        let r1 = nomp(&a, &b, 1).unwrap();
        let r2 = nomp(&a, &b, 2).unwrap();
        let r3 = nomp(&a, &b, 3).unwrap();
        assert!(r2.sq_residual <= r1.sq_residual + 1e-12);
        assert!(r3.sq_residual <= r2.sq_residual + 1e-12);
    }

    /// A deterministic pseudo-random dense instance (xorshift-mixed).
    fn random_instance(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-1, 1).
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                // Sparse-ish, mixed-sign entries.
                let v = next();
                m[(i, j)] = if v.abs() < 0.4 { 0.0 } else { v };
            }
        }
        let b: Vec<f64> = (0..rows).map(|_| next()).collect();
        (m, b)
    }

    fn assert_paths_bit_equal(lhs: &[NompResult], rhs: &[NompResult], what: &str) {
        assert_eq!(lhs.len(), rhs.len(), "{what}: path lengths");
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            assert_eq!(l.support, r.support, "{what}: support");
            assert_eq!(l.x, r.x, "{what}: coefficients");
            assert_eq!(
                l.sq_residual.to_bits(),
                r.sq_residual.to_bits(),
                "{what}: residual"
            );
        }
    }

    #[test]
    fn path_entries_match_standalone_runs_exactly() {
        // The core shared-path guarantee: path[l-1] is bit-identical to
        // the end of a pursuit that stops at budget l.
        for seed in 1..=8u64 {
            let (a, b) = random_instance(12, 9, seed);
            let lmax = 6;
            let path = path(&a, &b, lmax).unwrap();
            assert_eq!(path.len(), lmax);
            for l in 1..=lmax {
                let single = nomp(&a, &b, l).unwrap();
                assert_eq!(single.support, path[l - 1].support, "seed {seed} l {l}");
                assert_eq!(single.x, path[l - 1].x, "seed {seed} l {l}");
                assert_eq!(
                    single.sq_residual.to_bits(),
                    path[l - 1].sq_residual.to_bits(),
                    "seed {seed} l {l}"
                );
            }
        }
    }

    #[test]
    fn path_is_identical_on_sparse_and_dense() {
        for seed in 1..=4u64 {
            let (a, b) = random_instance(15, 10, seed);
            let sp = CscMatrix::from_dense(&a, 0.0);
            let dense_path = path(&a, &b, 5).unwrap();
            let sparse_path = path(&sp, &b, 5).unwrap();
            for (d, s) in dense_path.iter().zip(sparse_path.iter()) {
                assert_eq!(d.support, s.support);
                assert_eq!(d.x, s.x);
            }
        }
    }

    #[test]
    fn engine_matches_reference_implementation() {
        // Same supports, and coefficients within numerical reassociation
        // noise of the design-space reference.
        for seed in 1..=10u64 {
            let (a, b) = random_instance(14, 11, seed);
            for l in [1, 3, 5] {
                let fast = nomp(&a, &b, l).unwrap();
                let slow = nomp_reference(&a, &b, l).unwrap();
                assert_eq!(fast.support, slow.support, "seed {seed} l {l}");
                for (xf, xs) in fast.x.iter().zip(slow.x.iter()) {
                    assert!((xf - xs).abs() < 1e-10, "seed {seed} l {l}: {xf} vs {xs}");
                }
                assert!((fast.sq_residual - slow.sq_residual).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn workspace_reuse_is_stateless() {
        let mut ws = NompWorkspace::new();
        let (a1, b1) = random_instance(10, 8, 3);
        let (a2, b2) = random_instance(6, 12, 4);
        let fresh1 = path(&a1, &b1, 4).unwrap();
        let fresh2 = path(&a2, &b2, 4).unwrap();
        // Interleave differently shaped problems through one workspace.
        let ctl = SolveCtl::default();
        let reused1 = nomp_path(&a1, &b1, 4, &mut ws, ctl).unwrap();
        let reused2 = nomp_path(&a2, &b2, 4, &mut ws, ctl).unwrap();
        let reused1_again = nomp_path(&a1, &b1, 4, &mut ws, ctl).unwrap();
        assert_paths_bit_equal(&fresh1, &reused1, "first reuse");
        assert_paths_bit_equal(&fresh2, &reused2, "shape switch");
        assert_paths_bit_equal(&fresh1, &reused1_again, "back again");
    }

    #[test]
    fn workspace_counts_the_last_pursuits_iterations() {
        let metrics = SolverMetrics::new();
        let mut ws = NompWorkspace::new();
        let mut counted = 0;
        for seed in 1..=4u64 {
            let (a, b) = random_instance(12, 9, seed);
            nomp_path(&a, &b, 5, &mut ws, SolveCtl::metered(Some(&metrics))).unwrap();
            counted += ws.iterations();
            assert_eq!(counted, metrics.snapshot().nomp_iterations, "seed {seed}");
        }
    }

    #[test]
    fn path_budgets_beyond_column_count_saturate() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let b = vec![1.0, 1.0];
        let path = path(&a, &b, 5).unwrap();
        assert_eq!(path.len(), 5);
        // Budgets 2..=5 all saturate at the full 2-column support.
        for l in 2..=5 {
            assert_eq!(path[l - 1].support, path[1].support);
            assert_eq!(path[l - 1].x, path[1].x);
        }
    }
}
