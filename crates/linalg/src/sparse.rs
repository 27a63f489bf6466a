//! Compressed sparse column (CSC) matrices and the [`DesignMatrix`]
//! abstraction.
//!
//! The paper's corpora use z = 500 aspects, so the CompaReSetS+ design
//! matrix `V` has `2z + n·z` ≈ 15 000+ rows per item while every column
//! (one review) touches only a handful of them. NOMP only needs mat-vec,
//! transposed mat-vec, and column extraction, so it is generic over
//! [`DesignMatrix`] and runs on either the dense [`Matrix`] or this CSC
//! representation — identical results, orders-of-magnitude less work on
//! sparse inputs (see `benches/nomp_sparse.rs`).

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// The operations a design matrix must provide for matching pursuit.
pub trait DesignMatrix {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Copy column `j` into `out` (length `rows`).
    fn column_into(&self, j: usize, out: &mut [f64]);
    /// `y = A x`.
    ///
    /// # Errors
    /// Shape mismatch.
    fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError>;
    /// `y = Aᵀ x`.
    ///
    /// # Errors
    /// Shape mismatch.
    fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError>;
    /// Materialise the listed columns as a dense matrix (for the NNLS
    /// refit on the small active set).
    fn dense_columns(&self, indices: &[usize]) -> Matrix;
    /// Inner product of columns `i` and `j`, `⟨aᵢ, aⱼ⟩`.
    ///
    /// This is the primitive behind the incremental Gram cache in
    /// [`mod@crate::nomp`]: when an atom enters the active set only its dot
    /// products against the current support are computed, instead of
    /// re-materialising and re-multiplying the whole active submatrix.
    fn column_dot(&self, i: usize, j: usize) -> f64 {
        let mut ci = vec![0.0; self.rows()];
        let mut cj = vec![0.0; self.rows()];
        self.column_into(i, &mut ci);
        self.column_into(j, &mut cj);
        // Explicit +0.0-seeded fold, NOT `Iterator::sum` (which seeds
        // -0.0): a +0.0-seeded accumulator can never become -0.0, which
        // makes skipped ±0.0 terms exact no-ops — the invariant behind
        // dense/CSC bit-identity (ARCHITECTURE.md §13).
        let mut acc = 0.0;
        for (x, y) in ci.iter().zip(cj.iter()) {
            acc += x * y;
        }
        acc
    }
    /// Inner product of column `j` with an arbitrary vector, `⟨aⱼ, v⟩`
    /// (`v.len()` must equal `rows`). Used to extend the cached `Aᵀb`
    /// restriction when an atom enters the support.
    fn column_dot_vec(&self, j: usize, v: &[f64]) -> f64 {
        debug_assert_eq!(v.len(), self.rows());
        let mut cj = vec![0.0; self.rows()];
        self.column_into(j, &mut cj);
        // +0.0-seeded fold; see `column_dot` for why `sum()` won't do.
        let mut acc = 0.0;
        for (x, y) in cj.iter().zip(v.iter()) {
            acc += x * y;
        }
        acc
    }
    /// Whether this backend stores only non-zero entries. Metered solvers
    /// use this to classify correlation scans and Gram-column builds as
    /// sparse vs dense in the solver metrics counters.
    fn is_sparse(&self) -> bool {
        false
    }
    /// Number of 4-lane SIMD blocks one `tr_matvec(x)` against this matrix
    /// executes. Dense backends report their chunked-kernel block count;
    /// sparse backends report 0 (they walk stored entries, not lanes).
    /// Purely observability — never consulted on a numeric path.
    fn tr_scan_simd_blocks(&self, x: &[f64]) -> u64 {
        let _ = x;
        0
    }
}

impl DesignMatrix for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn column_into(&self, j: usize, out: &mut [f64]) {
        Matrix::column_into(self, j, out);
    }
    fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Matrix::matvec(self, x)
    }
    fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Matrix::tr_matvec(self, x)
    }
    fn dense_columns(&self, indices: &[usize]) -> Matrix {
        self.select_columns(indices)
    }
    fn column_dot(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < Matrix::cols(self) && j < Matrix::cols(self));
        // +0.0-seeded folds (not `sum()`, which seeds -0.0) so the
        // zero-row terms the CSC merge-join skips are exact no-ops here
        // too — dense and sparse Gram entries match bit for bit.
        let mut acc = 0.0;
        for r in 0..Matrix::rows(self) {
            acc += self[(r, i)] * self[(r, j)];
        }
        acc
    }
    fn column_dot_vec(&self, j: usize, v: &[f64]) -> f64 {
        debug_assert!(j < Matrix::cols(self));
        debug_assert_eq!(v.len(), Matrix::rows(self));
        let mut acc = 0.0;
        for (r, &vr) in v.iter().enumerate() {
            acc += self[(r, j)] * vr;
        }
        acc
    }
    fn tr_scan_simd_blocks(&self, x: &[f64]) -> u64 {
        // `Matrix::tr_matvec` runs one chunked axpy over the columns for
        // every non-zero entry of `x`.
        let nz = x.iter().filter(|v| **v != 0.0).count() as u64;
        nz * crate::vector::simd_block_count(Matrix::cols(self))
    }
}

/// A compressed-sparse-column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from per-column `(row, value)` entry lists. Entries within a
    /// column may be unordered; duplicate rows are summed in list order.
    /// Each list is sorted in place, so a list already in row order costs
    /// one linear pass.
    ///
    /// # Panics
    /// Panics on out-of-range row indices. Use [`CscMatrix::try_from_columns`]
    /// for a fallible variant.
    pub fn from_columns(rows: usize, columns: Vec<Vec<(usize, f64)>>) -> Self {
        match Self::try_from_columns(rows, columns) {
            Ok(m) => m,
            Err(e) => panic!("CscMatrix::from_columns: row index out of range: {e}"),
        }
    }

    /// Fallible variant of [`CscMatrix::from_columns`].
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when an entry's row index is out
    /// of range for the declared row count.
    pub fn try_from_columns(
        rows: usize,
        columns: Vec<Vec<(usize, f64)>>,
    ) -> Result<Self, LinalgError> {
        let cols = columns.len();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        col_ptr.push(0);
        for mut entries in columns {
            // Stable, so duplicate rows keep their list order for the sum.
            entries.sort_by_key(|&(r, _)| r);
            let mut last_row = usize::MAX;
            for &(r, v) in &entries {
                if r >= rows {
                    return Err(LinalgError::DimensionMismatch {
                        context: "CscMatrix::try_from_columns (row index out of range)",
                        expected: rows,
                        actual: r,
                    });
                }
                if v == 0.0 {
                    continue;
                }
                if r == last_row {
                    if let Some(last) = values.last_mut() {
                        *last += v;
                    }
                } else {
                    row_idx.push(r);
                    values.push(v);
                    last_row = r;
                }
            }
            col_ptr.push(row_idx.len());
        }
        Ok(CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Convert a dense matrix, dropping entries with `|v| <= zero_eps`.
    ///
    /// Pass `0.0` to drop exactly the (signed) zeros — the conversion is
    /// then value-preserving and round-trips bit-exactly through
    /// [`CscMatrix::to_dense`]. A positive epsilon additionally squashes
    /// near-zero noise (useful when densifying measured data), at the cost
    /// of no longer being an exact representation.
    pub fn from_dense(dense: &Matrix, zero_eps: f64) -> Self {
        debug_assert!(zero_eps >= 0.0, "from_dense: negative zero_eps");
        let columns: Vec<Vec<(usize, f64)>> = (0..dense.cols())
            .map(|j| {
                (0..dense.rows())
                    .filter_map(|i| {
                        let v = dense[(i, j)];
                        (v.abs() > zero_eps).then_some((i, v))
                    })
                    .collect()
            })
            .collect();
        CscMatrix::from_columns(dense.rows(), columns)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored fraction: `nnz / (rows · cols)`; 0 for degenerate shapes.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.values.len() as f64 / cells as f64
        }
    }

    /// Resident heap + inline bytes of this matrix (capacities, not
    /// lengths — this is what the allocator actually holds).
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + self.col_ptr.capacity() * std::mem::size_of::<usize>()
            + self.row_idx.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<f64>()) as u64
    }

    /// Whether every stored value is finite (no NaN, no ±Inf). Solver
    /// entry points use this to reject non-finite operands up front.
    #[inline]
    pub fn is_finite(&self) -> bool {
        crate::vector::all_finite(&self.values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor (O(log nnz(col))).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        match self.row_idx[range.clone()].binary_search(&i) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Densify (for tests and interop).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[k], j)] = self.values[k];
            }
        }
        m
    }
}

impl DesignMatrix for CscMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn column_into(&self, j: usize, out: &mut [f64]) {
        debug_assert!(j < self.cols);
        debug_assert_eq!(out.len(), self.rows);
        out.fill(0.0);
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            out[self.row_idx[k]] = self.values[k];
        }
    }
    fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "CscMatrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.values[k] * xj;
            }
        }
        Ok(y)
    }
    fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "CscMatrix::tr_matvec",
                expected: self.rows,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (j, yj) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                acc += self.values[k] * x[self.row_idx[k]];
            }
            *yj = acc;
        }
        Ok(y)
    }
    fn dense_columns(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, indices.len());
        for (jj, &j) in indices.iter().enumerate() {
            debug_assert!(j < self.cols);
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[k], jj)] = self.values[k];
            }
        }
        m
    }
    fn column_dot(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.cols && j < self.cols);
        // Merge-join over the two sorted row-index runs: O(nnz(i) + nnz(j)).
        let mut ki = self.col_ptr[i];
        let mut kj = self.col_ptr[j];
        let (end_i, end_j) = (self.col_ptr[i + 1], self.col_ptr[j + 1]);
        let mut acc = 0.0;
        while ki < end_i && kj < end_j {
            match self.row_idx[ki].cmp(&self.row_idx[kj]) {
                std::cmp::Ordering::Less => ki += 1,
                std::cmp::Ordering::Greater => kj += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[ki] * self.values[kj];
                    ki += 1;
                    kj += 1;
                }
            }
        }
        acc
    }
    fn column_dot_vec(&self, j: usize, v: &[f64]) -> f64 {
        debug_assert!(j < self.cols);
        debug_assert_eq!(v.len(), self.rows);
        // +0.0 seed: an empty or all-cancelling column must report +0.0
        // exactly like the dense all-rows loop (`sum()` would seed -0.0).
        let mut acc = 0.0;
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            acc += self.values[k] * v[self.row_idx[k]];
        }
        acc
    }
    fn is_sparse(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 3.0],
            vec![4.0, 5.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn dense_round_trip() {
        let d = sample_dense();
        let s = CscMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.get(2, 1), 5.0);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let d = sample_dense();
        let s = CscMatrix::from_dense(&d, 0.0);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(
            DesignMatrix::matvec(&s, &x).unwrap(),
            DesignMatrix::matvec(&d, &x).unwrap()
        );
        let y = vec![0.5, 1.0, -1.0];
        assert_eq!(
            DesignMatrix::tr_matvec(&s, &y).unwrap(),
            DesignMatrix::tr_matvec(&d, &y).unwrap()
        );
    }

    #[test]
    fn column_extraction() {
        let s = CscMatrix::from_dense(&sample_dense(), 0.0);
        let mut out = vec![9.0; 3];
        DesignMatrix::column_into(&s, 2, &mut out);
        assert_eq!(out, vec![2.0, 3.0, 0.0]);
        let sub = s.dense_columns(&[2, 0]);
        assert_eq!(sub.column(0), vec![2.0, 3.0, 0.0]);
        assert_eq!(sub.column(1), vec![1.0, 0.0, 4.0]);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let s = CscMatrix::from_columns(2, vec![vec![(0, 1.0), (0, 2.0), (1, 3.0)]]);
        assert_eq!(s.get(0, 0), 3.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn unordered_entries_are_sorted_into_rows() {
        let s = CscMatrix::from_columns(3, vec![vec![(2, 1.0), (0, 2.0), (2, 4.0), (1, 3.0)]]);
        assert_eq!(s.nnz(), 3);
        assert_eq!((s.get(0, 0), s.get(1, 0), s.get(2, 0)), (2.0, 3.0, 5.0));
        assert_eq!(
            s,
            CscMatrix::from_columns(3, vec![vec![(0, 2.0), (1, 3.0), (2, 5.0)]])
        );
    }

    #[test]
    fn zero_values_are_dropped() {
        let s = CscMatrix::from_columns(2, vec![vec![(0, 0.0), (1, 1.0)]]);
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn shape_errors() {
        let s = CscMatrix::from_dense(&sample_dense(), 0.0);
        assert!(DesignMatrix::matvec(&s, &[1.0]).is_err());
        assert!(DesignMatrix::tr_matvec(&s, &[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let _ = CscMatrix::from_columns(2, vec![vec![(5, 1.0)]]);
    }

    #[test]
    fn try_from_columns_classifies_out_of_range() {
        let r = CscMatrix::try_from_columns(2, vec![vec![(5, 1.0)]]);
        assert!(matches!(r, Err(LinalgError::DimensionMismatch { .. })));
        let ok = CscMatrix::try_from_columns(2, vec![vec![(1, 1.0)]]).unwrap();
        assert_eq!(ok.nnz(), 1);
    }

    #[test]
    fn is_finite_flags_stored_values() {
        let s = CscMatrix::from_columns(2, vec![vec![(0, 1.0)]]);
        assert!(s.is_finite());
        let bad = CscMatrix::from_columns(2, vec![vec![(0, f64::NAN)]]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn column_dots_agree_across_representations() {
        let d = sample_dense();
        let s = CscMatrix::from_dense(&d, 0.0);
        let v = vec![0.5, -1.0, 2.0];
        for i in 0..3 {
            for j in 0..3 {
                let expect: f64 = (0..3).map(|r| d[(r, i)] * d[(r, j)]).sum();
                assert_eq!(DesignMatrix::column_dot(&d, i, j), expect);
                assert_eq!(DesignMatrix::column_dot(&s, i, j), expect);
            }
            let expect: f64 = (0..3).map(|r| d[(r, i)] * v[r]).sum();
            assert_eq!(DesignMatrix::column_dot_vec(&d, i, &v), expect);
            assert_eq!(DesignMatrix::column_dot_vec(&s, i, &v), expect);
        }
    }

    #[test]
    fn empty_matrix() {
        let s = CscMatrix::from_columns(3, vec![]);
        assert_eq!(s.cols(), 0);
        assert_eq!(s.nnz(), 0);
        let y = DesignMatrix::matvec(&s, &[]).unwrap();
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn from_dense_epsilon_squashes_near_zeros() {
        let d = Matrix::from_rows(&[vec![1.0, 1e-13], vec![-1e-13, 2.0]]).unwrap();
        let exact = CscMatrix::from_dense(&d, 0.0);
        assert_eq!(exact.nnz(), 4);
        let squashed = CscMatrix::from_dense(&d, 1e-12);
        assert_eq!(squashed.nnz(), 2);
        assert_eq!(squashed.get(0, 0), 1.0);
        assert_eq!(squashed.get(0, 1), 0.0);
    }

    #[test]
    fn density_and_memory_bytes() {
        let s = CscMatrix::from_dense(&sample_dense(), 0.0);
        assert!((s.density() - 5.0 / 9.0).abs() < 1e-15);
        assert_eq!(CscMatrix::from_columns(3, vec![]).density(), 0.0);
        // 5 stored values + 5 row indices + 4 col_ptr entries at least.
        assert!(s.memory_bytes() >= (5 * 8 + 5 * 8 + 4 * 8) as u64);
        // Denser storage costs more bytes.
        let dense64 = Matrix::from_rows(&vec![vec![1.0; 64]; 64]).unwrap();
        let bigger = CscMatrix::from_dense(&dense64, 0.0);
        assert!(bigger.memory_bytes() > s.memory_bytes());
    }

    #[test]
    fn sparsity_flags() {
        let d = sample_dense();
        let s = CscMatrix::from_dense(&d, 0.0);
        assert!(DesignMatrix::is_sparse(&s));
        assert!(!DesignMatrix::is_sparse(&d));
        // Dense tr_matvec over x with 2 non-zeros and 3 columns: 3/4 = 0
        // full blocks per pass.
        assert_eq!(DesignMatrix::tr_scan_simd_blocks(&d, &[1.0, 0.0, 2.0]), 0);
        assert_eq!(DesignMatrix::tr_scan_simd_blocks(&s, &[1.0, 0.0, 2.0]), 0);
        let wide = Matrix::from_rows(&vec![vec![1.0; 10]; 3]).unwrap();
        assert_eq!(
            DesignMatrix::tr_scan_simd_blocks(&wide, &[1.0, 0.0, 2.0]),
            2 * 2
        );
    }
}
