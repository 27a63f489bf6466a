//! Row-major dense matrix.
//!
//! The selection algorithms build tall-skinny design matrices (`W` and `V`
//! in the paper: one row per opinion/aspect dimension, one column per
//! review). Column extraction, mat-vec, and transpose-vec cover everything
//! NOMP and the integer-rounding step need.

use crate::error::LinalgError;

/// A dense, row-major, `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows. All rows must share a length.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    expected: ncols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into `out` (which must have `rows` elements).
    pub fn column_into(&self, j: usize, out: &mut [f64]) {
        debug_assert!(j < self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.cols + j];
        }
    }

    /// Column `j` as a freshly allocated vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.column_into(j, &mut out);
        out
    }

    /// `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    #[allow(clippy::needless_range_loop)] // index loops read clearest here
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            y[i] = crate::vector::dot(self.row(i), x);
        }
        Ok(y)
    }

    /// `y = Aᵀ x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    #[allow(clippy::needless_range_loop)] // index loops read clearest in numerical kernels
    pub fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::tr_matvec",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            // Chunked axpy over the contiguous row: `a * xi == xi * a`
            // bitwise, so this is exactly the scalar accumulation.
            crate::vector::axpy(xi, self.row(i), &mut y);
        }
        Ok(y)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// A new matrix keeping only the listed columns, in order.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, indices.len());
        for (jj, &j) in indices.iter().enumerate() {
            debug_assert!(j < self.cols);
            for i in 0..self.rows {
                m[(i, jj)] = self[(i, j)];
            }
        }
        m
    }

    /// Gram matrix `AᵀA` (symmetric, `cols × cols`).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for j in 0..self.cols {
                let rj = row[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..self.cols {
                    g[(j, k)] += rj * row[k];
                }
            }
        }
        // Mirror the upper triangle.
        for j in 0..self.cols {
            for k in (j + 1)..self.cols {
                g[(k, j)] = g[(j, k)];
            }
        }
        g
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::dot(&self.data, &self.data).sqrt()
    }

    /// Whether every entry is finite (no NaN, no ±Inf). Solver entry
    /// points use this to reject non-finite operands up front.
    #[inline]
    pub fn is_finite(&self) -> bool {
        crate::vector::all_finite(&self.data)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let y = m.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let m = sample();
        let x = vec![2.0, -1.0];
        let a = m.tr_matvec(&x).unwrap();
        let b = m.transpose().matvec(&x).unwrap();
        assert_eq!(a, b);
        assert!(m.tr_matvec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn column_extraction() {
        let m = sample();
        assert_eq!(m.column(0), vec![1.0, 4.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
    }

    #[test]
    fn select_columns_reorders() {
        let m = sample();
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s.column(0), vec![3.0, 6.0]);
        assert_eq!(s.column(1), vec![1.0, 4.0]);
    }

    #[test]
    fn gram_is_ata() {
        let m = sample();
        let g = m.gram();
        let at = m.transpose();
        for j in 0..3 {
            for k in 0..3 {
                let expect = crate::vector::dot(at.row(j), at.row(k));
                assert!((g[(j, k)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Matrix::identity(3);
        let x = vec![7.0, -2.0, 0.5];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn is_finite_flags_bad_entries() {
        let mut m = sample();
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
        m[(0, 1)] = f64::INFINITY;
        assert!(!m.is_finite());
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
