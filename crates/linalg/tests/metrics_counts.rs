//! Exact-count tests for the solver metrics instrumentation: on a system
//! whose pursuit trajectory is fully determined, every counter value is
//! known in advance. A drift here means the instrumentation moved off the
//! hot path it is supposed to describe.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_linalg::{
    nomp_path, solve_gram_system, CscMatrix, DesignMatrix, Matrix, NompResult, NompWorkspace,
};
use comparesets_obs::{SolveCtl, SolverMetrics};

/// A budget-2 pursuit counted into `metrics`.
fn metered_path<M: DesignMatrix>(
    a: &M,
    b: &[f64],
    ws: &mut NompWorkspace,
    metrics: &SolverMetrics,
) -> Vec<NompResult> {
    let ctl = SolveCtl::metered(Some(metrics));
    nomp_path(a, b, 2, ws, ctl).unwrap()
}

/// Orthogonal 2×2 design with both target components positive: the
/// pursuit must accept both atoms, one per iteration.
fn orthogonal_system() -> (Matrix, Vec<f64>) {
    let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
    (a, vec![1.0, 2.0])
}

#[test]
fn pursuit_counters_match_known_trajectory() {
    let (a, b) = orthogonal_system();
    let metrics = SolverMetrics::new();
    let mut ws = NompWorkspace::new();
    let path = metered_path(&a, &b, &mut ws, &metrics);
    assert_eq!(path.len(), 2);
    assert_eq!(path[1].support.len(), 2);

    let snap = metrics.snapshot();
    // One pursuit; two accepted atoms = two greedy iterations; one NNLS
    // refit per accepted atom; the second refit extends the cached Gram
    // (support non-empty when entering); one budget snapshot per ℓ.
    assert_eq!(snap.nomp_pursuits, 1);
    assert_eq!(snap.nomp_iterations, 2);
    assert_eq!(snap.nnls_refits, 2);
    assert_eq!(snap.gram_cache_hits, 1);
    assert_eq!(snap.path_snapshots, 2);
    // The orthogonal system is exactly solvable: no cap hits, and both
    // Gram systems are positive definite, so the fallback ladder sleeps.
    assert_eq!(snap.nnls_cap_hits, 0);
    assert_eq!(snap.fallback_qr, 0);
    assert_eq!(snap.fallback_ridge, 0);
    // Each outer Lawson–Hanson loop runs at least once per refit.
    assert!(snap.nnls_iterations >= snap.nnls_refits);
    // Wall time was recorded for the pursuit and its refits.
    assert!(snap.pursuit_nanos > 0);
    assert!(snap.pursuit_nanos >= snap.refit_nanos);
}

#[test]
fn metered_pursuit_returns_the_unmetered_result() {
    let (a, b) = orthogonal_system();
    let metrics = SolverMetrics::new();
    let mut ws = NompWorkspace::new();
    let metered = metered_path(&a, &b, &mut ws, &metrics);
    let plain = nomp_path(&a, &b, 2, &mut NompWorkspace::new(), SolveCtl::default()).unwrap();
    assert_eq!(metered.len(), plain.len());
    for (m, p) in metered.iter().zip(plain.iter()) {
        assert_eq!(m.support, p.support);
        assert_eq!(m.x, p.x);
        assert_eq!(m.sq_residual, p.sq_residual);
    }
}

#[test]
fn counters_accumulate_across_pursuits() {
    let (a, b) = orthogonal_system();
    let metrics = SolverMetrics::new();
    let mut ws = NompWorkspace::new();
    for _ in 0..3 {
        metered_path(&a, &b, &mut ws, &metrics);
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.nomp_pursuits, 3);
    assert_eq!(snap.nomp_iterations, 6);
    assert_eq!(snap.nnls_refits, 6);
    assert_eq!(snap.gram_cache_hits, 3);
    assert_eq!(snap.path_snapshots, 6);
}

/// 8×8 identity design with strictly increasing positive targets: the
/// pursuit accepts atoms in descending target order, one per scan.
fn identity8() -> (Matrix, Vec<f64>) {
    let mut a = Matrix::zeros(8, 8);
    for i in 0..8 {
        a[(i, i)] = 1.0;
    }
    (a, (1..=8).map(f64::from).collect())
}

#[test]
fn scan_counters_match_known_trajectory() {
    // Two accepted atoms = two full Aᵀr scans, whichever backend holds
    // the design matrix.
    let (a, b) = identity8();
    let csc = CscMatrix::from_dense(&a, 0.0);
    let dense_metrics = SolverMetrics::new();
    metered_path(&a, &b, &mut NompWorkspace::new(), &dense_metrics);
    let sparse_metrics = SolverMetrics::new();
    metered_path(&csc, &b, &mut NompWorkspace::new(), &sparse_metrics);
    assert_eq!(dense_metrics.snapshot().sparse_corr_scans, 2);
    assert_eq!(sparse_metrics.snapshot().sparse_corr_scans, 2);
}

#[test]
fn fallback_ladder_rungs_are_counted() {
    // A singular Gram matrix fails the Cholesky pivot, then the QR rank
    // check, landing on the ridge rung: both fallback counters fire once.
    let g = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
    let metrics = SolverMetrics::new();
    let x = solve_gram_system(&g, &[1.0, 1.0], Some(&metrics)).unwrap();
    assert_eq!(x.len(), 2);
    let snap = metrics.snapshot();
    assert_eq!(snap.fallback_qr, 1);
    assert_eq!(snap.fallback_ridge, 1);

    // A well-conditioned Gram never leaves the Cholesky rung.
    let g = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
    let metrics = SolverMetrics::new();
    solve_gram_system(&g, &[1.0, 1.0], Some(&metrics)).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.fallback_qr, 0);
    assert_eq!(snap.fallback_ridge, 0);
}
