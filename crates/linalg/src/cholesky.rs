//! Cholesky factorisation and normal-equation least squares.
//!
//! NOMP refits on its active set every iteration; for the small active sets
//! that Integer-Regression produces (≤ m ≤ 10 columns) solving the normal
//! equations `AᵀA x = Aᵀb` with a Cholesky factorisation is both fast and
//! adequately stable, since the design matrices are 0/λ/μ-valued and far
//! from pathological conditioning. [`solve_gram_system`] is the refit's
//! solve: Cholesky first, then the QR and ridge rungs of its fallback
//! ladder.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use comparesets_obs::SolverMetrics;

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix `A = L Lᵀ`.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is ≤ `eps`-scaled
    /// tolerance, [`LinalgError::DimensionMismatch`] for non-square input,
    /// [`LinalgError::NonFinite`] when the matrix contains NaN or ±Inf.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::factor (square)",
                expected: n,
                actual: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "Cholesky::factor matrix",
            });
        }
        // Scale-aware tolerance: relative to the largest diagonal entry.
        let mut max_diag = 0.0_f64;
        for i in 0..n {
            max_diag = max_diag.max(a[(i, i)].abs());
        }
        let tol = (max_diag.max(1.0)) * 1e-12;

        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` given the factorisation.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b` has the wrong length;
    /// [`LinalgError::NonFinite`] when `b` contains NaN or ±Inf.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::solve",
                expected: n,
                actual: b.len(),
            });
        }
        if !crate::vector::all_finite(b) {
            return Err(LinalgError::NonFinite {
                context: "Cholesky::solve rhs",
            });
        }
        // Forward substitution L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Back substitution Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        Ok(x)
    }
}

/// Solve the least-squares problem `min ‖A x − b‖₂` via the normal
/// equations with a tiny ridge fallback for rank-deficient systems.
///
/// Rank deficiency arises naturally in Integer-Regression when two distinct
/// (already deduplicated) reviews still produce linearly dependent columns;
/// a `1e-10`-scaled ridge keeps the solve well-posed without visibly
/// perturbing the solution that the rounding step consumes.
///
/// # Errors
/// Propagates shape errors; never fails on rank deficiency.
pub fn solve_normal_equations(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_normal_equations",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    let g = a.gram();
    let atb = a.tr_matvec(b)?;
    solve_gram_system(&g, &atb, None)
}

/// Solve `G x = rhs` for a Gram matrix `G = AᵀA` already in hand, with a
/// two-stage numerical-degradation fallback.
///
/// This is the normal-equation back end shared by [`solve_normal_equations`]
/// and the Gram-cached NNLS refit ([`crate::nnls::nnls_gram`]): callers that
/// maintain `G` incrementally skip the `O(rows · cols²)` Gram rebuild
/// entirely and solve in `O(cols³)` on the (small) active set.
///
/// Degradation ladder (see ARCHITECTURE.md "Error handling & degradation
/// policy"):
///
/// 1. **Cholesky** — the fast path; succeeds on every well-posed Gram, so
///    well-posed solves are bit-identical to the pre-fallback engine.
/// 2. **Householder QR** — engaged only when Cholesky reports
///    [`LinalgError::NotPositiveDefinite`]: the Gram is square, so QR
///    solves near-singular systems Cholesky's pivot tolerance rejects.
/// 3. **Ridge** (`G + eps·I`, `eps = max_diag·1e-10`) — the last resort
///    when QR finds the system exactly singular; it keeps rank-deficient
///    refits well-posed without visibly perturbing the rounded solution.
///
/// With a `metrics` collector each rung that engages increments its
/// fallback counter (`fallback_qr`, `fallback_ridge`); with `None` no
/// atomic is touched.
///
/// # Errors
/// Propagates shape and [`LinalgError::NonFinite`] errors; never fails on
/// rank deficiency.
pub fn solve_gram_system(
    g: &Matrix,
    rhs: &[f64],
    metrics: Option<&SolverMetrics>,
) -> Result<Vec<f64>, LinalgError> {
    match Cholesky::factor(g) {
        Ok(ch) => ch.solve(rhs),
        Err(LinalgError::NotPositiveDefinite { pivot }) => {
            if let Some(m) = metrics {
                SolverMetrics::incr(&m.fallback_qr);
            }
            tracing::debug!("gram solve: cholesky pivot {pivot} failed, falling back to QR");
            match crate::qr::Qr::factor(g).and_then(|qr| qr.solve(rhs)) {
                Ok(x) => Ok(x),
                Err(
                    LinalgError::Singular { .. }
                    | LinalgError::NotPositiveDefinite { .. }
                    | LinalgError::InvalidArgument(_),
                ) => {
                    if let Some(m) = metrics {
                        SolverMetrics::incr(&m.fallback_ridge);
                    }
                    tracing::debug!("gram solve: QR singular, falling back to ridge");
                    // Ridge fallback: G + eps I.
                    let n = g.rows();
                    let mut ridged = g.clone();
                    let mut max_diag = 0.0_f64;
                    for i in 0..n {
                        max_diag = max_diag.max(ridged[(i, i)]);
                    }
                    let eps = (max_diag.max(1.0)) * 1e-10;
                    for i in 0..n {
                        ridged[(i, i)] += eps;
                    }
                    Cholesky::factor(&ridged)?.solve(rhs)
                }
                Err(e) => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_solve_spd() {
        // A = [[4,2],[2,3]] is SPD.
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[10.0, 8.0]).unwrap();
        // Check A x = b.
        let b = a.matvec(&x).unwrap();
        assert!((b[0] - 10.0).abs() < 1e-10);
        assert!((b[1] - 8.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_rejects_bad_rhs() {
        let a = Matrix::identity(2);
        let ch = Cholesky::factor(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn normal_equations_recover_exact_solution() {
        // Overdetermined consistent system.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = solve_normal_equations(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_equations_handle_rank_deficiency() {
        // Two identical columns: rank deficient, ridge fallback must engage.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let b = vec![2.0, 2.0, 0.0];
        let x = solve_normal_equations(&a, &b).unwrap();
        // Any split with x0 + x1 ≈ 2 is acceptable; ridge gives the symmetric one.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn gram_system_matches_normal_equations() {
        let a = Matrix::from_rows(&[vec![1.0, 0.5], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let via_a = solve_normal_equations(&a, &b).unwrap();
        let g = a.gram();
        let atb = a.tr_matvec(&b).unwrap();
        let via_g = solve_gram_system(&g, &atb, None).unwrap();
        assert_eq!(via_a, via_g);
    }

    #[test]
    fn gram_system_rank_deficient_uses_ridge() {
        // Singular Gram (duplicate columns): ridge must keep it solvable.
        let g = Matrix::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]).unwrap();
        let x = solve_gram_system(&g, &[4.0, 4.0], None).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn normal_equations_reject_bad_rhs() {
        let a = Matrix::identity(2);
        assert!(solve_normal_equations(&a, &[1.0, 2.0, 3.0]).is_err());
    }
}
