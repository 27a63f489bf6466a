//! Cooperative cancellation at the linalg layer.
//!
//! The contract under test (ARCHITECTURE.md §8): a fired token makes the
//! pursuit and the NNLS refit take their existing early-exit paths — the
//! returned state is always feasible and `Ok` — and an installed but
//! never-firing token leaves the results bit-identical to the token-less
//! path.

#![allow(clippy::unwrap_used)]

use comparesets_linalg::{nnls_gram, nomp_path, Matrix, NompWorkspace};
use comparesets_obs::{CancelToken, SolveCtl, SolverMetrics};

fn instance() -> (Matrix, Vec<f64>) {
    // Deterministic, well-conditioned 12×8 system with a dense pursuit
    // trajectory (several atoms enter before convergence).
    let rows = 12;
    let cols = 8;
    let mut vals = Vec::with_capacity(rows * cols);
    let mut s = 0x9e3779b97f4a7c15_u64;
    for _ in 0..rows * cols {
        // xorshift64* — fixed seed, no external RNG needed here.
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let u = (s.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1u64 << 53) as f64;
        vals.push(u);
    }
    let a = Matrix::from_vec(rows, cols, vals).unwrap();
    let b: Vec<f64> = (0..rows).map(|i| 1.0 + 0.25 * i as f64).collect();
    (a, b)
}

#[test]
fn cancelled_at_entry_returns_feasible_empty_path() {
    let (a, b) = instance();
    let token = CancelToken::new();
    token.cancel();
    let mut ws = NompWorkspace::new();
    let path = nomp_path(&a, &b, 4, &mut ws, SolveCtl::new(None, Some(&token))).unwrap();
    // Every budget gets the entry state: empty support, zero coefficients,
    // residual = ‖b‖².
    assert_eq!(path.len(), 4);
    let sq_b: f64 = b.iter().map(|v| v * v).sum();
    for r in &path {
        assert!(r.support.is_empty());
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert!((r.sq_residual - sq_b).abs() < 1e-12);
    }
}

#[test]
fn never_firing_token_is_bit_identical_to_tokenless_path() {
    let (a, b) = instance();
    let max_atoms = 6;
    let mut ws = NompWorkspace::new();
    let plain = nomp_path(&a, &b, max_atoms, &mut ws, SolveCtl::default()).unwrap();

    let token = CancelToken::new();
    let metrics = SolverMetrics::new();
    let mut ws2 = NompWorkspace::new();
    let ctl = SolveCtl::new(Some(&metrics), Some(&token));
    let with_token = nomp_path(&a, &b, max_atoms, &mut ws2, ctl).unwrap();

    assert_eq!(plain.len(), with_token.len());
    for (p, t) in plain.iter().zip(with_token.iter()) {
        assert_eq!(p.support, t.support);
        assert_eq!(p.x, t.x);
        assert_eq!(p.sq_residual.to_bits(), t.sq_residual.to_bits());
    }
    // The token was polled (per pursuit iteration + per NNLS outer
    // iteration) even though it never fired.
    assert!(metrics.snapshot().cancellation_checks > 0);
}

#[test]
fn mid_pursuit_cancellation_is_a_prefix_of_the_full_trajectory() {
    let (a, b) = instance();
    let max_atoms = 6;
    let mut ws = NompWorkspace::new();
    let full = nomp_path(&a, &b, max_atoms, &mut ws, SolveCtl::default()).unwrap();

    // Count the total polls of an uncancelled run, then replay every
    // possible kill point. cancel_after(k) pins the poll budget exactly.
    let metrics = SolverMetrics::new();
    let probe = CancelToken::new();
    let mut ws_probe = NompWorkspace::new();
    nomp_path(
        &a,
        &b,
        max_atoms,
        &mut ws_probe,
        SolveCtl::new(Some(&metrics), Some(&probe)),
    )
    .unwrap();
    let total_checks = metrics.snapshot().cancellation_checks;
    assert!(total_checks > 2, "expected a multi-iteration trajectory");

    for k in 0..=total_checks {
        let token = CancelToken::cancel_after(k);
        let mut ws_k = NompWorkspace::new();
        let path = nomp_path(
            &a,
            &b,
            max_atoms,
            &mut ws_k,
            SolveCtl::new(None, Some(&token)),
        )
        .unwrap();
        assert_eq!(path.len(), full.len());
        for (l, r) in path.iter().enumerate() {
            // Feasibility: non-negative coefficients within the budget.
            assert!(r.support.len() <= l + 1, "budget violated at l={}", l + 1);
            assert!(r.x.iter().all(|&v| v >= 0.0));
            assert!(r.sq_residual.is_finite());
            // Anytime: never worse than the empty selection.
            let sq_b: f64 = b.iter().map(|v| v * v).sum();
            assert!(r.sq_residual <= sq_b + 1e-12);
        }
        // With the full budget of polls the run is identical to the
        // uncancelled trajectory.
        if k == total_checks {
            for (p, t) in full.iter().zip(path.iter()) {
                assert_eq!(p.support, t.support);
                assert_eq!(p.x, t.x);
            }
        }
    }
}

#[test]
fn nnls_ctl_cancelled_at_entry_returns_feasible_zero() {
    let (a, b) = instance();
    let g = a.gram();
    let atb = comparesets_linalg::DesignMatrix::tr_matvec(&a, &b).unwrap();

    let token = CancelToken::new();
    token.cancel();
    let (x, diag) = nnls_gram(&g, &atb, SolveCtl::new(None, Some(&token))).unwrap();
    assert!(!diag.converged);
    assert_eq!(diag.iterations, 0);
    assert!(x.iter().all(|&v| v == 0.0));

    // Never-firing token: identical to the tokenless solve.
    let idle = CancelToken::new();
    let (x_tok, diag_tok) = nnls_gram(&g, &atb, SolveCtl::new(None, Some(&idle))).unwrap();
    let (x_plain, diag_plain) = nnls_gram(&g, &atb, SolveCtl::default()).unwrap();
    assert_eq!(x_tok, x_plain);
    assert_eq!(diag_tok, diag_plain);
}
