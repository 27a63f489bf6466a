//! Backend-equality pinning: the CSC sparse path must reproduce the
//! dense path *bit for bit* across the whole density range, on fresh and
//! on reused workspaces. The solvers treat the backend as a pure wall-clock/memory
//! decision — these tests are what licenses that claim (summation-order
//! preservation, ±0.0 no-op skipping; ARCHITECTURE.md §13).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_linalg::{nomp_path, CscMatrix, Matrix, NompResult, NompWorkspace};
use comparesets_obs::SolveCtl;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DENSITIES: [f64; 7] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];

/// A deterministic rows×cols design with roughly `density` non-zero
/// entries, plus a dense target. Entries are quantised to quarters so
/// exact zeros actually occur and products stay well-scaled.
fn instance(rows: usize, cols: usize, density: f64, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.random_bool(density) {
                a[(r, c)] = (rng.random_range(-8i32..=8) as f64) / 4.0;
            }
        }
    }
    let b: Vec<f64> = (0..rows)
        .map(|_| (rng.random_range(-8i32..=8) as f64) / 4.0)
        .collect();
    (a, b)
}

/// The budget path of a fresh, unmetered pursuit.
fn path<M: comparesets_linalg::DesignMatrix>(
    a: &M,
    b: &[f64],
    max_atoms: usize,
) -> Vec<NompResult> {
    nomp_path(
        a,
        b,
        max_atoms,
        &mut NompWorkspace::new(),
        SolveCtl::default(),
    )
    .unwrap()
}

fn assert_paths_bit_identical(dense: &[NompResult], sparse: &[NompResult], what: &str) {
    assert_eq!(dense.len(), sparse.len(), "{what}: path length");
    for (l, (d, s)) in dense.iter().zip(sparse.iter()).enumerate() {
        assert_eq!(d.support, s.support, "{what}: support at budget {}", l + 1);
        assert_eq!(d.x.len(), s.x.len(), "{what}: coef count at {}", l + 1);
        for (x, y) in d.x.iter().zip(s.x.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: coef bits at {}", l + 1);
        }
        assert_eq!(
            d.sq_residual.to_bits(),
            s.sq_residual.to_bits(),
            "{what}: residual bits at {}",
            l + 1
        );
    }
}

#[test]
fn cold_paths_agree_bitwise_across_densities() {
    for (i, &density) in DENSITIES.iter().enumerate() {
        let (a, b) = instance(48, 24, density, 0xC0FFEE + i as u64);
        let csc = CscMatrix::from_dense(&a, 0.0);
        let max_atoms = 5;
        let dense = path(&a, &b, max_atoms);
        let sparse = path(&csc, &b, max_atoms);
        assert_paths_bit_identical(&dense, &sparse, &format!("density {density}"));
    }
}

#[test]
fn reused_workspace_paths_agree_bitwise_across_densities_and_reruns() {
    // Re-solves through one workspace per backend (the alternating
    // sweeps' pattern) must stay bit-identical to a fresh dense run of
    // the same target, whatever the previous pursuit left behind.
    for (i, &density) in DENSITIES.iter().enumerate() {
        let (a, b) = instance(48, 24, density, 0xBEEF + i as u64);
        let csc = CscMatrix::from_dense(&a, 0.0);
        let max_atoms = 5;
        let (mut ws_d, mut ws_s) = (NompWorkspace::new(), NompWorkspace::new());

        // Re-solve thrice: a target, a nudged target, then the first again.
        let nudged: Vec<f64> = b.iter().map(|v| v + 0.25).collect();
        for target in [&b, &nudged, &b] {
            let fresh = path(&a, target, max_atoms);
            let d = nomp_path(&a, target, max_atoms, &mut ws_d, SolveCtl::default()).unwrap();
            let s = nomp_path(&csc, target, max_atoms, &mut ws_s, SolveCtl::default()).unwrap();
            assert_paths_bit_identical(&fresh, &d, &format!("density {density} reused-dense"));
            assert_paths_bit_identical(&d, &s, &format!("density {density} reused-sparse"));
        }
    }
}
