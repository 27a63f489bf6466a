//! Oracle-equivalence suite for the anytime branch-and-bound at every
//! worker count.
//!
//! Two layers of evidence that the solver is *exact*:
//!
//! 1. On every instance small enough to enumerate (n ≤ 14) the solver —
//!    with one worker and with several — must agree with a brute-force
//!    oracle that scores every completion.
//! 2. On larger seeded instances (no oracle) every worker count must
//!    prove the same optimal weight as one worker, because all of them
//!    exhaust the same search space.

use comparesets_graph::{solve_exact, ExactOptions, SimilarityGraph, SolveStatus};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Random symmetric non-negative weight matrix (seeded, deterministic).
fn random_graph(rng: &mut ChaCha8Rng, n: usize, max_w: f64) -> SimilarityGraph {
    let mut w = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v: f64 = rng.random_range(0.0..max_w);
            w[i * n + j] = v;
            w[j * n + i] = v;
        }
    }
    SimilarityGraph::from_weights(n, w)
}

/// Brute-force TargetHkS oracle: score every completion of `target` with
/// `k - 1` candidates and return the maximum subgraph weight.
fn brute_force(graph: &SimilarityGraph, target: usize, k: usize) -> f64 {
    let cands: Vec<usize> = (0..graph.len()).filter(|&v| v != target).collect();
    let mut best = f64::NEG_INFINITY;
    let mut subset = vec![target];
    fn recurse(
        graph: &SimilarityGraph,
        cands: &[usize],
        from: usize,
        left: usize,
        subset: &mut Vec<usize>,
        best: &mut f64,
    ) {
        if left == 0 {
            *best = best.max(graph.subgraph_weight(subset));
            return;
        }
        // Prune positions that cannot supply `left` more vertices.
        for pos in from..=cands.len().saturating_sub(left) {
            subset.push(cands[pos]);
            recurse(graph, cands, pos + 1, left - 1, subset, best);
            subset.pop();
        }
    }
    recurse(graph, &cands, 0, k - 1, &mut subset, &mut best);
    best
}

#[test]
fn sequential_agrees_with_bruteforce_oracle_up_to_n14() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0ddba11);
    for trial in 0..40 {
        let n = rng.random_range(4..=14);
        let g = random_graph(&mut rng, n, 10.0);
        let k = rng.random_range(2..=n.min(6));
        let target = rng.random_range(0..n);
        let oracle = brute_force(&g, target, k);
        let r = solve_exact(&g, target, k, &ExactOptions::default());
        assert_eq!(r.status, SolveStatus::Optimal, "trial {trial}");
        assert_eq!(r.gap, 0.0, "trial {trial}");
        assert!(
            (r.weight - oracle).abs() < 1e-9,
            "trial {trial} (n={n}, k={k}, target={target}): \
             solver {} vs oracle {oracle}",
            r.weight
        );
    }
}

#[test]
fn parallel_agrees_with_bruteforce_oracle_up_to_n14() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xbead);
    for trial in 0..20 {
        let n = rng.random_range(6..=14);
        let g = random_graph(&mut rng, n, 10.0);
        let k = rng.random_range(3..=n.min(6));
        let target = rng.random_range(0..n);
        let oracle = brute_force(&g, target, k);
        for threads in [2, 4] {
            let r = solve_exact(
                &g,
                target,
                k,
                &ExactOptions::default().with_threads(threads),
            );
            assert_eq!(r.status, SolveStatus::Optimal, "trial {trial}");
            assert!(
                (r.weight - oracle).abs() < 1e-9,
                "trial {trial} threads {threads} (n={n}, k={k}): \
                 solver {} vs oracle {oracle}",
                r.weight
            );
            // The solution reported must actually have the weight claimed.
            assert!((g.subgraph_weight(&r.vertices) - r.weight).abs() < 1e-9);
            assert!(r.vertices.contains(&target));
            assert_eq!(r.vertices.len(), k);
        }
    }
}

#[test]
fn parallel_weight_matches_sequential_on_larger_instances() {
    // Beyond oracle reach: every worker count exhausts the same space, so
    // the proven optimum must be identical for every thread count.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1ab1e);
    for trial in 0..6 {
        let n = rng.random_range(18..=24);
        let g = random_graph(&mut rng, n, 5.0);
        let k = rng.random_range(4..=6);
        let target = rng.random_range(0..n);
        let seq = solve_exact(&g, target, k, &ExactOptions::default());
        assert_eq!(seq.status, SolveStatus::Optimal);
        for threads in [1, 2, 4] {
            let par = solve_exact(
                &g,
                target,
                k,
                &ExactOptions::default().with_threads(threads),
            );
            assert_eq!(par.status, SolveStatus::Optimal, "trial {trial}");
            assert!(
                (par.weight - seq.weight).abs() < 1e-9,
                "trial {trial} threads {threads} (n={n}, k={k}): \
                 parallel {} vs sequential {}",
                par.weight,
                seq.weight
            );
        }
    }
}
