//! Property-based tests for the linear-algebra substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_linalg::{
    nnls, nnls_gram, nomp_reference, qr::Qr, CscMatrix, DesignMatrix, LinalgError, Matrix,
    NompResult, NompWorkspace,
};
use comparesets_obs::SolveCtl;
use proptest::prelude::*;

/// One-shot least squares through Householder QR.
fn qr_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Qr::factor(a)?.solve(b)
}

/// A fresh, unmetered budget path.
fn nomp_path<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    max_atoms: usize,
) -> Result<Vec<NompResult>, LinalgError> {
    comparesets_linalg::nomp_path(
        a,
        b,
        max_atoms,
        &mut NompWorkspace::new(),
        SolveCtl::default(),
    )
}

/// The result at budget `max_atoms`: the last entry of its path.
fn nomp<M: DesignMatrix>(a: &M, b: &[f64], max_atoms: usize) -> Result<NompResult, LinalgError> {
    let mut path = nomp_path(a, b, max_atoms)?;
    Ok(path.pop().expect("a path has max_atoms > 0 entries"))
}

fn small_f64() -> impl Strategy<Value = f64> {
    (-100i32..=100).prop_map(|v| v as f64 / 10.0)
}

/// A value that is either an ordinary small float or one of the non-finite
/// specials the fault-injection suite cares about.
fn maybe_non_finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        small_f64().boxed(),
        small_f64().boxed(),
        small_f64().boxed(),
        small_f64().boxed(),
        Just(f64::NAN).boxed(),
        Just(f64::INFINITY).boxed(),
        Just(f64::NEG_INFINITY).boxed(),
    ]
}

/// A matrix/rhs pair whose entries may contain NaN or ±Inf anywhere.
fn possibly_non_finite_instance() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..=6, 1usize..=5).prop_flat_map(|(m, n)| {
        let n = n.min(m);
        (
            proptest::collection::vec(maybe_non_finite_f64(), m * n),
            proptest::collection::vec(maybe_non_finite_f64(), m),
        )
            .prop_map(move |(data, b)| (Matrix::from_vec(m, n, data).unwrap(), b))
    })
}

/// A rank-deficient matrix: every column is a non-negative multiple of one
/// shared base column, so the Gram matrix is (numerically) singular for
/// any column count above one.
fn rank_deficient_instance() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..=6, 2usize..=4).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec(small_f64(), m),
            proptest::collection::vec(0i32..=5, n),
            proptest::collection::vec(small_f64(), m),
        )
            .prop_map(move |(base, scales, b)| {
                let mut a = Matrix::zeros(m, n);
                for (j, &s) in scales.iter().enumerate() {
                    for i in 0..m {
                        a[(i, j)] = base[i] * s as f64;
                    }
                }
                (a, b)
            })
    })
}

fn matrix_and_rhs() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..=6, 1usize..=5).prop_flat_map(|(m, n)| {
        let n = n.min(m); // keep rows >= cols for QR
        (
            proptest::collection::vec(small_f64(), m * n),
            proptest::collection::vec(small_f64(), m),
        )
            .prop_map(move |(data, b)| (Matrix::from_vec(m, n, data).unwrap(), b))
    })
}

/// Like [`matrix_and_rhs`] but with entries biased three-to-one towards
/// exact zero, so the CSC backend actually drops storage and the
/// bit-identity proptests cover genuinely sparse structure.
fn sparse_matrix_and_rhs() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    let entry = || {
        prop_oneof![
            Just(0.0).boxed(),
            Just(0.0).boxed(),
            Just(0.0).boxed(),
            small_f64().boxed(),
        ]
    };
    (2usize..=8, 1usize..=6).prop_flat_map(move |(m, n)| {
        let n = n.min(m);
        (
            proptest::collection::vec(entry(), m * n),
            proptest::collection::vec(entry(), m),
        )
            .prop_map(move |(data, b)| (Matrix::from_vec(m, n, data).unwrap(), b))
    })
}

proptest! {
    #[test]
    fn sq_distance_is_symmetric_nonnegative(
        x in proptest::collection::vec(small_f64(), 1..10),
        y in proptest::collection::vec(small_f64(), 1..10),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let d1 = comparesets_linalg::vector::sq_distance(x, y);
        let d2 = comparesets_linalg::vector::sq_distance(y, x);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn cosine_similarity_bounded(
        x in proptest::collection::vec(small_f64(), 1..10),
        y in proptest::collection::vec(small_f64(), 1..10),
    ) {
        let n = x.len().min(y.len());
        let c = comparesets_linalg::vector::cosine_similarity(&x[..n], &y[..n]);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn nnls_solution_is_nonnegative_and_feasible((a, b) in matrix_and_rhs()) {
        let (x, _) = nnls(&a, &b).unwrap();
        prop_assert_eq!(x.len(), a.cols());
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        // NNLS residual can never beat the unconstrained optimum but must
        // never exceed the zero-solution residual.
        let ax = a.matvec(&x).unwrap();
        let res: f64 = b.iter().zip(ax.iter()).map(|(bi, yi)| (bi - yi).powi(2)).sum();
        let zero_res: f64 = b.iter().map(|v| v * v).sum();
        prop_assert!(res <= zero_res + 1e-8, "res {} > zero_res {}", res, zero_res);
    }

    #[test]
    fn nomp_respects_budget_and_nonnegativity(
        (a, b) in matrix_and_rhs(),
        budget in 1usize..=4,
    ) {
        let r = nomp(&a, &b, budget).unwrap();
        prop_assert!(r.support.len() <= budget);
        prop_assert!(r.x.iter().all(|&v| v >= 0.0));
        let nnz = r.x.iter().filter(|&&v| v > 0.0).count();
        prop_assert!(nnz <= budget);
        // Reported residual matches the recomputed one.
        let ax = a.matvec(&r.x).unwrap();
        let res: f64 = b.iter().zip(ax.iter()).map(|(bi, yi)| (bi - yi).powi(2)).sum();
        prop_assert!((res - r.sq_residual).abs() < 1e-6);
    }

    #[test]
    fn qr_residual_orthogonality((a, b) in matrix_and_rhs()) {
        // Skip (numerically) rank-deficient draws: QR signals Singular.
        if let Ok(x) = qr_solve(&a, &b) {
            let ax = a.matvec(&x).unwrap();
            let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, yi)| bi - yi).collect();
            let atr = a.tr_matvec(&r).unwrap();
            let scale = a.frobenius_norm().max(1.0) * comparesets_linalg::vector::norm2(&b).max(1.0);
            for v in atr {
                prop_assert!(v.abs() <= 1e-6 * scale, "A^T r component {} too large", v);
            }
        }
    }

    #[test]
    fn sparse_and_dense_nomp_agree((a, b) in matrix_and_rhs(), budget in 1usize..=4) {
        let sparse = CscMatrix::from_dense(&a, 0.0);
        let rd = nomp(&a, &b, budget).unwrap();
        let rs = nomp(&sparse, &b, budget).unwrap();
        prop_assert_eq!(&rd.support, &rs.support);
        for (x, y) in rd.x.iter().zip(rs.x.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        prop_assert!((rd.sq_residual - rs.sq_residual).abs() < 1e-9);
    }

    #[test]
    fn sparse_ops_match_dense((a, b) in matrix_and_rhs()) {
        let s = CscMatrix::from_dense(&a, 0.0);
        prop_assert_eq!(s.to_dense(), a.clone());
        let x: Vec<f64> = (0..a.cols()).map(|j| j as f64 - 1.0).collect();
        let dm = DesignMatrix::matvec(&a, &x).unwrap();
        let sm = DesignMatrix::matvec(&s, &x).unwrap();
        for (p, q) in dm.iter().zip(sm.iter()) {
            prop_assert!((p - q).abs() < 1e-12);
        }
        let dt = DesignMatrix::tr_matvec(&a, &b).unwrap();
        let st = DesignMatrix::tr_matvec(&s, &b).unwrap();
        for (p, q) in dt.iter().zip(st.iter()) {
            prop_assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn csc_and_dense_design_ops_are_bit_identical(
        (a, b) in sparse_matrix_and_rhs(),
        budget in 1usize..=4,
    ) {
        // The backend-invariance contract (ARCHITECTURE.md §13): every
        // DesignMatrix primitive — and therefore the whole pursuit — is
        // *bit-identical* between the dense and CSC backends, not merely
        // close. Both walk surviving terms in the same order; the terms
        // one backend has and the other skips are ±0.0 no-ops.
        let s = CscMatrix::from_dense(&a, 0.0);
        let (m, n) = (a.rows(), a.cols());
        let mut cd = vec![0.0; m];
        let mut cs = vec![0.0; m];
        for j in 0..n {
            DesignMatrix::column_into(&a, j, &mut cd);
            DesignMatrix::column_into(&s, j, &mut cs);
            for (x, y) in cd.iter().zip(cs.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "column {}", j);
            }
            prop_assert_eq!(
                DesignMatrix::column_dot_vec(&a, j, &b).to_bits(),
                DesignMatrix::column_dot_vec(&s, j, &b).to_bits(),
            );
            for i in 0..n {
                prop_assert_eq!(
                    DesignMatrix::column_dot(&a, i, j).to_bits(),
                    DesignMatrix::column_dot(&s, i, j).to_bits(),
                    "gram entry ({}, {})", i, j
                );
            }
        }
        let x: Vec<f64> = (0..n).map(|j| (j % 3) as f64 - 1.0).collect();
        let dm = DesignMatrix::matvec(&a, &x).unwrap();
        let sm = DesignMatrix::matvec(&s, &x).unwrap();
        for (p, q) in dm.iter().zip(sm.iter()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
        let dt = DesignMatrix::tr_matvec(&a, &b).unwrap();
        let st = DesignMatrix::tr_matvec(&s, &b).unwrap();
        for (p, q) in dt.iter().zip(st.iter()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
        // And the full shared pursuit on top of those primitives.
        let pd = nomp_path(&a, &b, budget).unwrap();
        let ps = nomp_path(&s, &b, budget).unwrap();
        prop_assert_eq!(pd.len(), ps.len());
        for (d, sp) in pd.iter().zip(ps.iter()) {
            prop_assert_eq!(&d.support, &sp.support);
            for (x, y) in d.x.iter().zip(sp.x.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(d.sq_residual.to_bits(), sp.sq_residual.to_bits());
        }
    }

    #[test]
    fn gram_cached_nomp_matches_reference((a, b) in matrix_and_rhs(), budget in 1usize..=4) {
        // The Gram-cached engine must track the naive recompute-everything
        // reference implementation to within numerical noise: identical
        // support sets, coefficients and residuals within 1e-10.
        let fast = nomp(&a, &b, budget).unwrap();
        let slow = nomp_reference(&a, &b, budget).unwrap();
        prop_assert_eq!(&fast.support, &slow.support);
        for (x, y) in fast.x.iter().zip(slow.x.iter()) {
            prop_assert!((x - y).abs() < 1e-10, "coef {} vs {}", x, y);
        }
        prop_assert!(
            (fast.sq_residual - slow.sq_residual).abs() < 1e-10,
            "residual {} vs {}", fast.sq_residual, slow.sq_residual
        );
    }

    #[test]
    fn shared_path_matches_standalone_pursuits((a, b) in matrix_and_rhs(), l_max in 1usize..=4) {
        // One shared pursuit to l_max must reproduce every standalone
        // budget-l run bit for bit (the tentpole's path-sharing claim).
        let path = nomp_path(&a, &b, l_max).unwrap();
        prop_assert_eq!(path.len(), l_max);
        for (l, shared) in path.iter().enumerate() {
            let solo = nomp(&a, &b, l + 1).unwrap();
            prop_assert_eq!(&shared.support, &solo.support);
            prop_assert_eq!(&shared.x, &solo.x);
            prop_assert_eq!(shared.sq_residual.to_bits(), solo.sq_residual.to_bits());
        }
    }

    #[test]
    fn non_finite_input_errors_instead_of_panicking(
        (a, b) in possibly_non_finite_instance(),
        budget in 1usize..=3,
    ) {
        // Whatever the entries are, no public entry point may panic; and
        // when the instance actually contains NaN/Inf every solver must
        // classify it as NonFinite.
        let has_bad = !a.is_finite() || b.iter().any(|v| !v.is_finite());
        let max_atoms = budget;
        let results = [
            nnls(&a, &b).map(|_| ()),
            nnls_gram(
                &a.gram(),
                &a.tr_matvec(&b).unwrap_or_else(|_| vec![0.0; a.cols()]),
                SolveCtl::default(),
            )
            .map(|_| ()),
            nomp(&a, &b, max_atoms).map(|_| ()),
            nomp_path(&a, &b, max_atoms).map(|_| ()),
            nomp_reference(&a, &b, max_atoms).map(|_| ()),
            qr_solve(&a, &b).map(|_| ()),
        ];
        if has_bad {
            // Gram products of non-finite data stay non-finite (NaN is
            // absorbing; Inf·0 = NaN), so every path must reject.
            for r in results {
                prop_assert!(
                    matches!(r, Err(LinalgError::NonFinite { .. })),
                    "expected NonFinite, got {:?}", r
                );
            }
        } else {
            for r in results {
                prop_assert!(!matches!(r, Err(LinalgError::NonFinite { .. })));
            }
        }
    }

    #[test]
    fn rank_deficient_instances_never_panic(
        (a, b) in rank_deficient_instance(),
        budget in 1usize..=3,
    ) {
        // Exactly-collinear columns drive the Cholesky → QR → ridge ladder;
        // the solvers must come back with a feasible answer, never a panic.
        let (x, diag) = nnls(&a, &b).unwrap();
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        prop_assert!(diag.iterations >= 1);
        let r = nomp(&a, &b, budget).unwrap();
        prop_assert!(r.x.iter().all(|&v| v >= 0.0));
        prop_assert!(r.sq_residual.is_finite());
    }

    #[test]
    fn matvec_linearity((a, b) in matrix_and_rhs(), alpha in small_f64()) {
        let x: Vec<f64> = (0..a.cols()).map(|j| (j as f64 + 1.0) / 3.0).collect();
        let ax = a.matvec(&x).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let a_scaled = a.matvec(&scaled).unwrap();
        for (l, r) in a_scaled.iter().zip(ax.iter()) {
            prop_assert!((l - alpha * r).abs() < 1e-7);
        }
        let _ = b;
    }
}
