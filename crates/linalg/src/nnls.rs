//! Lawson–Hanson non-negative least squares.
//!
//! Integer-Regression's continuous relaxation constrains the selection
//! indicator to be non-negative (a review cannot be "negatively selected").
//! NOMP refits on its active set with this solver so intermediate solutions
//! stay feasible.
//!
//! Two entry points share the active-set logic:
//!
//! * [`nnls`] works in design space: `min ‖A x − b‖₂, x ≥ 0`, solving each
//!   passive-set refit through the normal equations of the sub-matrix. The
//!   reference pursuit (`nomp_reference`) refits with it.
//! * [`nnls_gram`] works in normal-equation space: it takes the Gram
//!   matrix `G = AᵀA` and `Aᵀb` directly, which is what the Gram-caching
//!   NOMP engine maintains incrementally — the refit never has to touch
//!   the (tall) design matrix again.
//!
//! Neither fails on iteration exhaustion: at the cap each returns its
//! current (always feasible) iterate with `converged: false` in its
//! [`NnlsDiagnostics`]. Both return the same minimiser up to
//! floating-point reassociation:
//!
//! ```
//! use comparesets_linalg::nnls::{nnls, nnls_gram};
//! use comparesets_linalg::{DesignMatrix, Matrix};
//! use comparesets_obs::SolveCtl;
//!
//! let a = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
//! let b = [2.0, 1.0, 1.5];
//!
//! let (x_design, diag) = nnls(&a, &b).unwrap();
//! assert!(diag.converged);
//!
//! // Hand nnls_gram the same system in normal-equation form.
//! let g = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap(); // AᵀA
//! let atb = DesignMatrix::tr_matvec(&a, &b).unwrap(); // Aᵀb
//! let (x_gram, _) = nnls_gram(&g, &atb, SolveCtl::default()).unwrap();
//!
//! for (d, g) in x_design.iter().zip(x_gram.iter()) {
//!     assert!((d - g).abs() < 1e-10);
//! }
//! ```

use crate::cholesky::{solve_gram_system, solve_normal_equations};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use comparesets_obs::SolveCtl;

/// Convergence diagnostic returned by both NNLS entry points.
///
/// The active-set loop has a hard iteration budget (`3 × cols + 10` outer
/// iterations). Neither entry point fails on exhaustion — each returns the
/// best feasible iterate reached so far together with this record, so
/// callers on the solve path (the NOMP refit in particular) can degrade
/// gracefully instead of aborting an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnlsDiagnostics {
    /// Whether the KKT conditions were met within the iteration budget.
    pub converged: bool,
    /// Outer iterations performed.
    pub iterations: usize,
}

/// Solve `min ‖A x − b‖₂  s.t.  x ≥ 0` with the Lawson–Hanson active-set
/// method.
///
/// Returns the solution vector (length `a.cols()`) and its
/// [`NnlsDiagnostics`]. When the iteration budget is exhausted the current
/// (always feasible, `x ≥ 0`) iterate is returned with `converged: false`.
///
/// # Errors
/// Shape errors propagate; [`LinalgError::NonFinite`] on NaN/Inf input.
pub fn nnls(a: &Matrix, b: &[f64]) -> Result<(Vec<f64>, NnlsDiagnostics), LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls",
            expected: m,
            actual: b.len(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite {
            context: "nnls design matrix",
        });
    }
    if !vector::all_finite(b) {
        return Err(LinalgError::NonFinite {
            context: "nnls rhs",
        });
    }
    if n == 0 {
        return Ok((
            Vec::new(),
            NnlsDiagnostics {
                converged: true,
                iterations: 0,
            },
        ));
    }

    let mut x = vec![0.0_f64; n];
    let mut passive: Vec<bool> = vec![false; n];
    // w = A^T (b - A x); with x = 0 initially, w = A^T b.
    let mut residual = b.to_vec();
    let mut w = a.tr_matvec(&residual)?;

    let atb_norm = vector::norm2(&w).max(1.0);
    let tol = 1e-10 * atb_norm;

    let max_outer = 3 * n + 10;
    let mut outer = 0;
    loop {
        outer += 1;
        if outer > max_outer {
            // Iteration budget exhausted: x is feasible (every accepted
            // step kept x ≥ 0), so hand it back with the diagnostic.
            return Ok((
                x,
                NnlsDiagnostics {
                    converged: false,
                    iterations: outer,
                },
            ));
        }
        // Pick the most violated dual coordinate among the active (zero) set.
        let mut best_j = None;
        let mut best_w = tol;
        for j in 0..n {
            if !passive[j] && w[j] > best_w {
                best_w = w[j];
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            // KKT satisfied: all duals ≤ tol.
            return Ok((
                x,
                NnlsDiagnostics {
                    converged: true,
                    iterations: outer,
                },
            ));
        };
        passive[j_star] = true;

        // Inner loop: solve unconstrained LS on the passive set, clip.
        loop {
            let passive_idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let sub = a.select_columns(&passive_idx);
            let z_sub = solve_normal_equations(&sub, b)?;

            if z_sub.iter().all(|&v| v > 0.0) {
                // Accept.
                x.iter_mut().for_each(|v| *v = 0.0);
                for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                    x[j] = *zi;
                }
                break;
            }
            // Step toward z as far as feasibility allows; move blockers out.
            let mut alpha = f64::INFINITY;
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                if *zi <= 0.0 {
                    let denom = x[j] - zi;
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                x[j] += alpha * (zi - x[j]);
                if x[j] <= 1e-14 {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
            // Guarantee progress: if the entering column got clipped right
            // back out, treat it as converged at the current x.
            if !passive[j_star] && x[j_star] == 0.0 && alpha == 0.0 {
                return Ok((
                    x,
                    NnlsDiagnostics {
                        converged: true,
                        iterations: outer,
                    },
                ));
            }
        }

        // Refresh the dual.
        residual.copy_from_slice(b);
        let ax = a.matvec(&x)?;
        for (r, v) in residual.iter_mut().zip(ax.iter()) {
            *r -= v;
        }
        w = a.tr_matvec(&residual)?;
    }
}

/// Solve `min ‖A x − b‖₂  s.t.  x ≥ 0` given only the Gram matrix
/// `g = AᵀA` and the correlation vector `atb = Aᵀb`.
///
/// This is [`nnls`] transported into normal-equation space: the dual is
/// `w = Aᵀ(b − A x) = atb − G x`, and the passive-set refits solve
/// principal subsystems of `G` directly, so no operation ever touches the
/// (potentially very tall) design matrix. NOMP maintains `G` and `atb`
/// incrementally across pursuit iterations and calls this for every refit;
/// see [`mod@crate::nomp`].
///
/// The returned minimiser is the same as `nnls(A, b)` up to floating-point
/// reassociation (the normal equations are formed once here instead of per
/// inner iteration). When the iteration budget is exhausted the current
/// (always feasible) iterate is returned with `converged: false`, so a
/// slow-to-converge active set degrades the fit of one pursuit step
/// instead of aborting the whole item.
///
/// `ctl` carries the optional metrics collector, to which the passive-set
/// refits attribute degradation-ladder activations
/// ([`solve_gram_system`]), and the optional cancellation token, polled
/// once per outer Lawson–Hanson iteration. A fired token takes the same
/// exit as the iteration cap, so cancellation degrades one refit instead
/// of erroring.
///
/// # Errors
/// [`LinalgError::DimensionMismatch`] when `g` is not square or `atb` has
/// the wrong length; [`LinalgError::NonFinite`] on NaN/Inf input.
pub fn nnls_gram(
    g: &Matrix,
    atb: &[f64],
    ctl: SolveCtl<'_>,
) -> Result<(Vec<f64>, NnlsDiagnostics), LinalgError> {
    let metrics = ctl.metrics;
    let n = g.rows();
    if g.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls_gram (square)",
            expected: n,
            actual: g.cols(),
        });
    }
    if atb.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "nnls_gram",
            expected: n,
            actual: atb.len(),
        });
    }
    if !g.is_finite() {
        return Err(LinalgError::NonFinite {
            context: "nnls_gram matrix",
        });
    }
    if !vector::all_finite(atb) {
        return Err(LinalgError::NonFinite {
            context: "nnls_gram rhs",
        });
    }
    if n == 0 {
        return Ok((
            Vec::new(),
            NnlsDiagnostics {
                converged: true,
                iterations: 0,
            },
        ));
    }

    let mut x = vec![0.0_f64; n];
    let mut passive: Vec<bool> = vec![false; n];
    // w = Aᵀ(b − A x); with x = 0 initially, w = Aᵀb.
    let mut w = atb.to_vec();

    let atb_norm = vector::norm2(&w).max(1.0);
    let tol = 1e-10 * atb_norm;

    let max_outer = 3 * n + 10;
    let mut outer = 0;
    loop {
        if ctl.is_cancelled() {
            // Cooperative stop: same contract as the iteration cap — the
            // current x is feasible, hand it back unconverged.
            return Ok((
                x,
                NnlsDiagnostics {
                    converged: false,
                    iterations: outer,
                },
            ));
        }
        outer += 1;
        if outer > max_outer {
            // Iteration budget exhausted: x is feasible (every accepted
            // step kept x ≥ 0), so hand it back with the diagnostic.
            return Ok((
                x,
                NnlsDiagnostics {
                    converged: false,
                    iterations: outer,
                },
            ));
        }
        // Pick the most violated dual coordinate among the active (zero) set.
        let mut best_j = None;
        let mut best_w = tol;
        for j in 0..n {
            if !passive[j] && w[j] > best_w {
                best_w = w[j];
                best_j = Some(j);
            }
        }
        let Some(j_star) = best_j else {
            // KKT satisfied: all duals ≤ tol.
            return Ok((
                x,
                NnlsDiagnostics {
                    converged: true,
                    iterations: outer,
                },
            ));
        };
        passive[j_star] = true;

        // Inner loop: solve the principal subsystem on the passive set, clip.
        loop {
            let passive_idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let p = passive_idx.len();
            let mut g_sub = Matrix::zeros(p, p);
            for (ri, &i) in passive_idx.iter().enumerate() {
                for (ci, &j) in passive_idx.iter().enumerate() {
                    g_sub[(ri, ci)] = g[(i, j)];
                }
            }
            let rhs: Vec<f64> = passive_idx.iter().map(|&j| atb[j]).collect();
            let z_sub = solve_gram_system(&g_sub, &rhs, metrics)?;

            if z_sub.iter().all(|&v| v > 0.0) {
                // Accept.
                x.iter_mut().for_each(|v| *v = 0.0);
                for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                    x[j] = *zi;
                }
                break;
            }
            // Step toward z as far as feasibility allows; move blockers out.
            let mut alpha = f64::INFINITY;
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                if *zi <= 0.0 {
                    let denom = x[j] - zi;
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (zi, &j) in z_sub.iter().zip(passive_idx.iter()) {
                x[j] += alpha * (zi - x[j]);
                if x[j] <= 1e-14 {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
            // Guarantee progress: if the entering column got clipped right
            // back out, treat it as converged at the current x.
            if !passive[j_star] && x[j_star] == 0.0 && alpha == 0.0 {
                return Ok((
                    x,
                    NnlsDiagnostics {
                        converged: true,
                        iterations: outer,
                    },
                ));
            }
        }

        // Refresh the dual: w = atb − G x. `x` is non-zero only on the
        // passive set, and `G = AᵀA` is symmetric by this function's
        // contract, so column `j` of `G` is row `j` — a contiguous slice the
        // chunked axpy kernel can stream. Bit-exactness versus the naive
        // per-row dot: for each element `i` the products arrive in the same
        // `j`-ascending order (`g[j][i]·x[j] == g[i][j]·x[j]` bitwise by
        // symmetry and commutativity), and the skipped `x[j] == 0` terms
        // are exact no-ops — a +0-seeded f64 accumulator never becomes
        // −0.0, so dropping ±0 additions changes nothing.
        let mut gx = vec![0.0_f64; n];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                vector::axpy(xj, g.row(j), &mut gx);
            }
        }
        for (wi, (&ai, &gi)) in w.iter_mut().zip(atb.iter().zip(gx.iter())) {
            *wi = ai - gi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The minimiser alone, from a fresh unmetered Gram-space solve.
    fn gram_x(g: &Matrix, atb: &[f64]) -> Result<Vec<f64>, LinalgError> {
        nnls_gram(g, atb, SolveCtl::default()).map(|(x, _)| x)
    }

    /// The minimiser alone, from a design-space solve.
    fn design_x(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        nnls(a, b).map(|(x, _)| x)
    }

    fn gram_of(a: &Matrix, b: &[f64]) -> (Matrix, Vec<f64>) {
        (a.gram(), a.tr_matvec(b).unwrap())
    }

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = a.matvec(&[2.0, 3.0]).unwrap();
        let x = design_x(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn clips_negative_component() {
        // Unconstrained LS solution of this system has a negative entry;
        // NNLS must zero it and re-optimise the rest.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let b = vec![1.0, 0.0]; // unconstrained x = (2, -1)
        let x = design_x(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0), "x = {x:?}");
        // With x2 forced to 0, best x1 minimises (x1-1)^2 + (x1-0)^2 → 0.5... actually
        // columns are (1,1) and (1,2); with only col0 active: min ||c0*x - b||,
        // x = c0·b/||c0||² = 1/2.
        assert!((x[0] - 0.5).abs() < 1e-8);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = design_x(&a, &[0.0, 0.0]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_matrix_gives_empty_solution() {
        let a = Matrix::zeros(2, 0);
        let x = design_x(&a, &[1.0, 2.0]).unwrap();
        assert!(x.is_empty());
    }

    #[test]
    fn rejects_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(design_x(&a, &[1.0]).is_err());
    }

    #[test]
    fn kkt_conditions_hold() {
        // Random-ish fixed instance: verify x >= 0 and A^T(b - Ax) <= tol
        // on the zero set, ≈ 0 on the positive set.
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let x = design_x(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, yi)| bi - yi).collect();
        let w = a.tr_matvec(&r).unwrap();
        for (j, (&xj, &wj)) in x.iter().zip(w.iter()).enumerate() {
            if xj > 0.0 {
                assert!(wj.abs() < 1e-6, "dual not zero at positive coord {j}: {wj}");
            } else {
                assert!(wj < 1e-6, "dual positive at zero coord {j}: {wj}");
            }
        }
    }

    #[test]
    fn handles_duplicate_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![2.0, 2.0];
        let x = design_x(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        assert!((x[0] + x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn gram_variant_matches_design_variant() {
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let x_design = design_x(&a, &b).unwrap();
        let (g, atb) = gram_of(&a, &b);
        let x_gram = gram_x(&g, &atb).unwrap();
        for (d, g) in x_design.iter().zip(x_gram.iter()) {
            assert!(
                (d - g).abs() < 1e-8,
                "design {x_design:?} vs gram {x_gram:?}"
            );
        }
    }

    #[test]
    fn gram_variant_clips_negative_component() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let b = vec![1.0, 0.0];
        let (g, atb) = gram_of(&a, &b);
        let x = gram_x(&g, &atb).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-8);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn gram_variant_satisfies_kkt() {
        let a = Matrix::from_rows(&[
            vec![0.5, 1.0, 0.0, 0.3],
            vec![1.0, 0.0, 0.7, 0.3],
            vec![0.0, 0.2, 1.0, 0.3],
            vec![0.9, 0.9, 0.1, 0.3],
        ])
        .unwrap();
        let b = vec![1.0, -0.5, 0.8, 0.2];
        let (g, atb) = gram_of(&a, &b);
        let x = gram_x(&g, &atb).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        let gx = g.matvec(&x).unwrap();
        for (j, ((&xj, &aj), &gj)) in x.iter().zip(atb.iter()).zip(gx.iter()).enumerate() {
            let wj = aj - gj;
            if xj > 0.0 {
                assert!(wj.abs() < 1e-6, "dual not zero at positive coord {j}: {wj}");
            } else {
                assert!(wj < 1e-6, "dual positive at zero coord {j}: {wj}");
            }
        }
    }

    #[test]
    fn gram_variant_rejects_bad_shapes() {
        let g = Matrix::identity(2);
        assert!(gram_x(&g, &[1.0]).is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(gram_x(&rect, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn gram_variant_empty_system() {
        let g = Matrix::zeros(0, 0);
        assert!(gram_x(&g, &[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            design_x(&a, &[1.0, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
        let a = Matrix::identity(2);
        assert!(matches!(
            design_x(&a, &[1.0, f64::INFINITY]),
            Err(LinalgError::NonFinite { .. })
        ));
        let mut g = Matrix::identity(2);
        g[(1, 1)] = f64::NEG_INFINITY;
        assert!(matches!(
            gram_x(&g, &[1.0, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
        let g = Matrix::identity(2);
        assert!(matches!(
            gram_x(&g, &[f64::NAN, 1.0]),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn capped_variant_reports_convergence_on_easy_instance() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = a.matvec(&[2.0, 3.0]).unwrap();
        let (x, diag) = nnls(&a, &b).unwrap();
        assert!(diag.converged);
        assert!(diag.iterations >= 1);
        assert!((x[0] - 2.0).abs() < 1e-8 && (x[1] - 3.0).abs() < 1e-8);

        let (g, atb) = gram_of(&a, &b);
        let (xg, diag_g) = nnls_gram(&g, &atb, SolveCtl::default()).unwrap();
        assert!(diag_g.converged);
        assert!((xg[0] - 2.0).abs() < 1e-8 && (xg[1] - 3.0).abs() < 1e-8);
    }
}
