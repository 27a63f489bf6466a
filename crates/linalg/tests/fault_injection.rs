//! Fault-injection harness for the linear-algebra substrate.
//!
//! Feeds deliberately broken instances — NaN/Inf contamination,
//! rank-deficient and all-zero designs, extreme conditioning — through
//! every public entry point of the crate and asserts two things:
//!
//! 1. **No panics.** Every failure mode surfaces as a classified
//!    [`SolveError`], never an abort.
//! 2. **Correct classification.** Non-finite data reports `NonFinite`,
//!    bad shapes report `DimensionMismatch`, and degenerate-but-finite
//!    systems succeed through the degradation ladder
//!    (Cholesky → QR → ridge; capped NNLS).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_linalg::{
    cholesky::{solve_normal_equations, Cholesky},
    lstsq, nnls, nnls_capped, nnls_gram, nnls_gram_capped, nomp_reference,
    qr::Qr,
    solve_gram_system, CscMatrix, DesignMatrix, LinalgError, Matrix, NompResult, NompWorkspace,
    SolveError,
};
use comparesets_obs::SolveCtl;

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

/// Plant `value` at (row, col) of an otherwise well-behaved matrix.
fn contaminated(rows: usize, cols: usize, row: usize, col: usize, value: f64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = 1.0 + (i * cols + j) as f64 * 0.25;
        }
    }
    m[(row, col)] = value;
    m
}

fn specials() -> [f64; 3] {
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
}

#[test]
fn every_entry_point_classifies_non_finite_matrices() {
    for bad in specials() {
        let a = contaminated(4, 3, 2, 1, bad);
        let b = vec![1.0; 4];
        let max_atoms = 2;

        assert!(matches!(nnls(&a, &b), Err(SolveError::NonFinite { .. })));
        assert!(matches!(
            nnls_capped(&a, &b),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nomp(&a, &b, max_atoms),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nomp_path(&a, &b, max_atoms),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nomp_reference(&a, &b, max_atoms),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(lstsq(&a, &b), Err(SolveError::NonFinite { .. })));

        let sq = contaminated(3, 3, 0, 0, bad);
        assert!(matches!(
            Cholesky::factor(&sq),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(Qr::factor(&sq), Err(SolveError::NonFinite { .. })));
        assert!(matches!(
            solve_gram_system(&sq, &[1.0; 3]),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nnls_gram(&sq, &[1.0; 3]),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nnls_gram_capped(&sq, &[1.0; 3]),
            Err(SolveError::NonFinite { .. })
        ));
    }
}

#[test]
fn every_entry_point_classifies_non_finite_rhs() {
    for bad in specials() {
        let a = contaminated(4, 3, 0, 0, 2.0); // fully finite
        let mut b = vec![1.0; 4];
        b[3] = bad;
        let max_atoms = 2;

        assert!(matches!(nnls(&a, &b), Err(SolveError::NonFinite { .. })));
        assert!(matches!(
            nomp(&a, &b, max_atoms),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            nomp_reference(&a, &b, max_atoms),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(lstsq(&a, &b), Err(SolveError::NonFinite { .. })));

        let g = Matrix::identity(3);
        let mut rhs = vec![1.0; 3];
        rhs[0] = bad;
        assert!(matches!(
            nnls_gram(&g, &rhs),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            Cholesky::factor(&g).unwrap().solve(&rhs),
            Err(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            Qr::factor(&g).unwrap().solve(&rhs),
            Err(SolveError::NonFinite { .. })
        ));
    }
}

#[test]
fn sparse_design_matrices_are_scanned_too() {
    for bad in specials() {
        let s = CscMatrix::from_columns(3, vec![vec![(0, 1.0)], vec![(1, bad)], vec![(2, 2.0)]]);
        assert!(!s.is_finite());
        let r = nomp(&s, &[1.0, 1.0, 1.0], 2);
        assert!(matches!(r, Err(SolveError::NonFinite { .. })));
    }
}

#[test]
fn all_zero_design_succeeds_with_empty_selection() {
    let a = Matrix::zeros(5, 4);
    let b = vec![1.0, -2.0, 0.5, 0.0, 3.0];
    let r = nomp(&a, &b, 3).unwrap();
    assert!(r.support.is_empty());
    assert!(r.x.iter().all(|&v| v == 0.0));
    let x = nnls(&a, &b).unwrap();
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn rank_deficient_designs_survive_the_degradation_ladder() {
    // Three pairwise-collinear columns plus one all-zero column: the
    // active-set Gram is singular the moment two columns are in play.
    let a = Matrix::from_rows(&[
        vec![1.0, 2.0, 3.0, 0.0],
        vec![2.0, 4.0, 6.0, 0.0],
        vec![0.5, 1.0, 1.5, 0.0],
    ])
    .unwrap();
    let b = vec![4.0, 8.0, 2.0];

    let x = solve_normal_equations(&a, &b).unwrap();
    assert!(x.iter().all(|v| v.is_finite()));

    let (x, diag) = nnls_capped(&a, &b).unwrap();
    assert!(x.iter().all(|&v| v >= 0.0));
    assert!(diag.iterations >= 1);

    for budget in 1..=4 {
        let r = nomp(&a, &b, budget).unwrap();
        assert!(r.x.iter().all(|&v| v >= 0.0));
        assert!(r.sq_residual.is_finite());
    }
}

#[test]
fn exactly_singular_gram_engages_qr_then_ridge() {
    // Duplicate-column Gram: Cholesky rejects, QR detects singularity,
    // ridge resolves. The call must succeed end to end.
    let g = Matrix::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]).unwrap();
    assert!(matches!(
        Cholesky::factor(&g),
        Err(SolveError::NotPositiveDefinite { .. })
    ));
    let x = solve_gram_system(&g, &[4.0, 4.0]).unwrap();
    assert!((x[0] + x[1] - 2.0).abs() < 1e-4);
}

#[test]
fn near_singular_gram_takes_qr_without_ridge_perturbation() {
    // Slightly-off-singular Gram: Cholesky's pivot tolerance trips but QR
    // still solves it exactly, so no ridge bias enters the solution.
    let d = 1e-13;
    let g = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0 + d]]).unwrap();
    let x = solve_gram_system(&g, &[2.0, 2.0]).unwrap();
    assert!(x.iter().all(|v| v.is_finite()));
    // Residual check: G x ≈ rhs.
    let gx = g.matvec(&x).unwrap();
    assert!((gx[0] - 2.0).abs() < 1e-6 && (gx[1] - 2.0).abs() < 1e-6);
}

#[test]
fn ill_conditioned_design_still_selects() {
    // Columns spanning 12 orders of magnitude.
    let a = Matrix::from_rows(&[
        vec![1e-6, 1e6, 1.0],
        vec![2e-6, 0.0, 1.0],
        vec![0.0, 1e6, 2.0],
    ])
    .unwrap();
    let b = vec![1.0, 1.0, 1.0];
    let r = nomp(&a, &b, 3).unwrap();
    assert!(r.sq_residual.is_finite());
    assert!(r.x.iter().all(|v| v.is_finite() && *v >= 0.0));
}

#[test]
fn shape_faults_classify_as_dimension_mismatch() {
    let a = Matrix::identity(3);
    assert!(matches!(
        nnls(&a, &[1.0]),
        Err(SolveError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        nomp(&a, &[1.0], 1),
        Err(SolveError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        nnls_gram(&Matrix::zeros(2, 3), &[1.0, 1.0]),
        Err(SolveError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        CscMatrix::try_from_columns(2, vec![vec![(7, 1.0)]]),
        Err(SolveError::DimensionMismatch { .. })
    ));
}

#[test]
fn fallback_paths_match_happy_path_on_well_posed_inputs() {
    // On a well-posed instance the ladder's first rung (Cholesky) handles
    // everything, and explicit QR agrees with it to numerical noise —
    // i.e. the fallback machinery does not perturb healthy solves.
    let a = Matrix::from_rows(&[
        vec![1.0, 0.2, 0.0],
        vec![0.0, 1.0, 0.3],
        vec![0.4, 0.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ])
    .unwrap();
    let b = vec![1.0, 2.0, 3.0, 4.0];
    let via_chol = solve_normal_equations(&a, &b).unwrap();
    let via_qr = lstsq(&a, &b).unwrap();
    for (c, q) in via_chol.iter().zip(via_qr.iter()) {
        assert!((c - q).abs() < 1e-9);
    }
    // And capped NNLS reports convergence with the same minimiser as the
    // strict variant.
    let strict = nnls(&a, &b).unwrap();
    let (capped, diag) = nnls_capped(&a, &b).unwrap();
    assert!(diag.converged);
    assert_eq!(strict, capped);
}
