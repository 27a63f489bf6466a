//! Free functions on `&[f64]` slices.
//!
//! The paper's distance Δ(x, y) (Equation 2) is the *squared* Euclidean
//! distance; [`sq_distance`] implements it verbatim. Cosine similarity
//! (Equation 9, used for the Figure 11b information-loss measurement) is
//! [`cosine_similarity`].

/// Lane width of the portable SIMD blocks used by [`dot`] and [`axpy`].
///
/// The kernels process fixed 4-lane `f64` blocks with a scalar tail; the
/// block bodies are written so the compiler can keep the element-wise
/// multiplies in vector registers while every addition into an accumulator
/// happens in the original left-to-right order. Summation order is the
/// bitwise contract of the whole solver stack (selections must stay
/// byte-identical), so the blocking must never introduce partial sums.
const SIMD_LANES: usize = 4;

/// Dot product of two equal-length slices.
///
/// Processes 4-lane blocks with a scalar tail. The four products of a
/// block are independent (vectorisable) but are folded into the
/// accumulator strictly left-to-right, so the result is bit-identical to
/// the naive sequential loop for every input.
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length is used (standard zip semantics), so callers should
/// validate shapes at API boundaries.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = 0.0;
    let mut xc = x.chunks_exact(SIMD_LANES);
    let mut yc = y.chunks_exact(SIMD_LANES);
    for (xb, yb) in xc.by_ref().zip(yc.by_ref()) {
        let p0 = xb[0] * yb[0];
        let p1 = xb[1] * yb[1];
        let p2 = xb[2] * yb[2];
        let p3 = xb[3] * yb[3];
        // Sequential folds: identical rounding to the scalar loop.
        acc += p0;
        acc += p1;
        acc += p2;
        acc += p3;
    }
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        acc += a * b;
    }
    acc
}

/// Squared Euclidean distance Δ(x, y) = Σ (xᵢ − yᵢ)² (Equation 2).
#[inline]
pub fn sq_distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "sq_distance: length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Cosine similarity (Equation 9). Returns 0 when either vector is zero,
/// matching the convention used for empty review selections.
#[inline]
pub fn cosine_similarity(x: &[f64], y: &[f64]) -> f64 {
    let nx = norm2(x);
    let ny = norm2(y);
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    (dot(x, y) / (nx * ny)).clamp(-1.0, 1.0)
}

/// `y += alpha * x` (BLAS axpy).
///
/// Processes 4-lane blocks with a scalar tail. Each element update is
/// independent, so the blocked form is trivially bit-identical to the
/// scalar loop while giving the compiler straight-line vectorisable
/// bodies.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    let mut yc = y.chunks_exact_mut(SIMD_LANES);
    let mut xc = x.chunks_exact(SIMD_LANES);
    for (yb, xb) in yc.by_ref().zip(xc.by_ref()) {
        yb[0] += alpha * xb[0];
        yb[1] += alpha * xb[1];
        yb[2] += alpha * xb[2];
        yb[3] += alpha * xb[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// Whether every entry of the slice is finite (no NaN, no ±Inf).
///
/// Solver entry points use this to reject non-finite input up front with a
/// classified [`crate::LinalgError::NonFinite`] instead of letting NaN
/// propagate through the factorisations.
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sq_distance_matches_paper_definition() {
        // Δ((1,2),(4,6)) = 9 + 16 = 25
        assert_eq!(sq_distance(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
        assert_eq!(sq_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_identical_is_one() {
        let x = [0.2, 0.4, 0.0, 0.1];
        assert!((cosine_similarity(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_is_clamped() {
        // Numerically parallel vectors must not exceed 1.
        let x = [1e-8, 2e-8];
        let y = [3e8, 6e8];
        let c = cosine_similarity(&x, &y);
        assert!(c <= 1.0 && c > 0.999);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn all_finite_flags_nan_and_inf() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[0.0, -1.5, 1e300]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
        assert!(!all_finite(&[f64::NEG_INFINITY, 1.0]));
    }

    /// The blocked kernels must match the naive sequential loops bitwise
    /// for every length (full blocks, scalar tails, empty).
    #[test]
    fn chunked_dot_is_bitwise_sequential() {
        for n in 0..19usize {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37 - 1.1).sin() * 1e3)
                .collect();
            let y: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.73 + 0.2).cos() / 7.0)
                .collect();
            let mut naive = 0.0;
            for i in 0..n {
                naive += x[i] * y[i];
            }
            assert_eq!(dot(&x, &y).to_bits(), naive.to_bits(), "len {n}");
        }
    }

    #[test]
    fn chunked_axpy_is_bitwise_sequential() {
        for n in 0..19usize {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).tan()).collect();
            let mut y: Vec<f64> = (0..n).map(|i| i as f64 / 3.0 - 2.0).collect();
            let mut naive = y.clone();
            for i in 0..n {
                naive[i] += 0.123456789 * x[i];
            }
            axpy(0.123456789, &x, &mut y);
            for i in 0..n {
                assert_eq!(y[i].to_bits(), naive[i].to_bits(), "len {n} idx {i}");
            }
        }
    }
}
