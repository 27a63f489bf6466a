//! Householder QR factorisation and least squares.
//!
//! QR is the numerically robust path for least squares; NOMP uses the
//! cheaper normal-equation solve on its tiny active sets, and QR is the
//! second rung of that solve's fallback ladder
//! ([`crate::cholesky::solve_gram_system`]) and a cross-check in tests.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Compact Householder QR factorisation of an `m × n` matrix with `m ≥ n`.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factor: R in the upper triangle, Householder vectors below.
    packed: Matrix,
    /// Scalar β for each reflector.
    betas: Vec<f64>,
}

impl Qr {
    /// Factor `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    /// [`LinalgError::InvalidArgument`] for underdetermined or empty input;
    /// [`LinalgError::NonFinite`] when the matrix contains NaN or ±Inf.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let m = a.rows();
        let n = a.cols();
        if n == 0 || m == 0 {
            return Err(LinalgError::InvalidArgument("Qr::factor: empty matrix"));
        }
        if m < n {
            return Err(LinalgError::InvalidArgument(
                "Qr::factor requires rows >= cols",
            ));
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "Qr::factor matrix",
            });
        }
        let mut r = a.clone();
        let mut betas = vec![0.0; n];
        let mut v = vec![0.0; m];

        for k in 0..n {
            // Build the Householder vector from column k, rows k..m.
            let mut norm_x = 0.0;
            for i in k..m {
                let x = r[(i, k)];
                norm_x += x * x;
            }
            norm_x = norm_x.sqrt();
            if norm_x == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let x0 = r[(k, k)];
            let alpha = if x0 >= 0.0 { -norm_x } else { norm_x };
            // v = x - alpha e1, normalised so v[k] = 1.
            let v0 = x0 - alpha;
            v[k] = 1.0;
            for i in (k + 1)..m {
                v[i] = r[(i, k)] / v0;
            }
            let beta = -v0 / alpha;
            betas[k] = beta;

            // Apply reflector to remaining columns: A = (I - beta v v^T) A.
            for j in k..n {
                let mut s = r[(k, j)];
                for i in (k + 1)..m {
                    s += v[i] * r[(i, j)];
                }
                s *= beta;
                r[(k, j)] -= s;
                for i in (k + 1)..m {
                    r[(i, j)] -= s * v[i];
                }
            }
            // Store the reflector below the diagonal.
            r[(k, k)] = alpha;
            for i in (k + 1)..m {
                r[(i, k)] = v[i];
            }
        }
        Ok(Qr { packed: r, betas })
    }

    /// Apply `Qᵀ` to a vector in place.
    #[allow(clippy::needless_range_loop)] // index loops read clearest in numerical kernels
    fn apply_qt(&self, b: &mut [f64]) {
        let m = self.packed.rows();
        let n = self.packed.cols();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.packed[(i, k)] * b[i];
            }
            s *= beta;
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.packed[(i, k)];
            }
        }
    }

    /// Solve the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on a bad right-hand side;
    /// [`LinalgError::NonFinite`] when `b` contains NaN or ±Inf;
    /// [`LinalgError::Singular`] when `R` has a (near-)zero diagonal.
    #[allow(clippy::needless_range_loop)] // index loops read clearest here
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = self.packed.rows();
        let n = self.packed.cols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                context: "Qr::solve",
                expected: m,
                actual: b.len(),
            });
        }
        if !crate::vector::all_finite(b) {
            return Err(LinalgError::NonFinite {
                context: "Qr::solve rhs",
            });
        }
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);

        // Back substitution on R.
        let mut x = vec![0.0; n];
        let mut max_diag = 0.0_f64;
        for k in 0..n {
            max_diag = max_diag.max(self.packed[(k, k)].abs());
        }
        let tol = max_diag.max(1.0) * 1e-13;
        for i in (0..n).rev() {
            let mut s = qtb[i];
            for j in (i + 1)..n {
                s -= self.packed[(i, j)] * x[j];
            }
            let d = self.packed[(i, i)];
            if d.abs() <= tol {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / d;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::sq_distance;

    /// One-shot least squares through the factorisation.
    fn qr_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Qr::factor(a)?.solve(b)
    }

    #[test]
    fn solves_square_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x_true = [1.0, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = qr_solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn solves_overdetermined_consistent() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, -1.0],
        ])
        .unwrap();
        let x_true = [0.5, 2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = qr_solve(&a, &b).unwrap();
        assert!(sq_distance(&x, &x_true) < 1e-18);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_range() {
        // Inconsistent system: residual must satisfy A^T r = 0.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]]).unwrap();
        let b = vec![1.0, 0.0, 2.0];
        let x = qr_solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, yi)| bi - yi).collect();
        let atr = a.tr_matvec(&r).unwrap();
        assert!(atr.iter().all(|v| v.abs() < 1e-10), "A^T r = {atr:?}");
    }

    #[test]
    fn rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let r = qr_solve(&a, &[1.0, 1.0, 1.0]);
        assert!(matches!(r, Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn solve_rejects_bad_rhs_length() {
        let a = Matrix::identity(2);
        let qr = Qr::factor(&a).unwrap();
        assert!(qr.solve(&[1.0]).is_err());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(1, 0)] = f64::NAN;
        assert!(matches!(Qr::factor(&a), Err(LinalgError::NonFinite { .. })));
        let qr = Qr::factor(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            qr.solve(&[1.0, f64::INFINITY]),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn agrees_with_normal_equations_on_well_conditioned_problem() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.0],
            vec![0.0, 1.0, 0.5],
            vec![0.5, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ])
        .unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x_qr = qr_solve(&a, &b).unwrap();
        let x_ne = crate::cholesky::solve_normal_equations(&a, &b).unwrap();
        assert!(sq_distance(&x_qr, &x_ne) < 1e-16);
    }
}
