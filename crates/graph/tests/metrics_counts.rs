//! Exact-count tests for the branch-and-bound metrics instrumentation
//! (pattern from `crates/linalg/tests/metrics_counts.rs`): on instances
//! whose search trajectory is fully determined, every counter value is
//! known in advance. A drift here means the instrumentation moved off
//! the search path it is supposed to describe.

use comparesets_graph::{solve_exact, ExactOptions, SimilarityGraph, SolveStatus};
use comparesets_obs::{CancelToken, SolverMetrics};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn zero_graph(n: usize) -> SimilarityGraph {
    SimilarityGraph::from_weights(n, vec![0.0; n * n])
}

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

#[test]
fn zero_weight_graph_has_exact_counts_for_one_and_four_workers() {
    // All weights zero: greedy already achieves the optimum (0.0), so the
    // root's upper bound (also 0.0) cannot beat the incumbent and the
    // whole tree collapses into a single root prune: one node and one
    // prune for every worker count. The calling thread expands the root
    // before any helper exists, so nothing is ever stolen, and the
    // incumbent never improves.
    let g = zero_graph(6);
    for threads in [1, 4] {
        let metrics = Arc::new(SolverMetrics::new());
        let r = solve_exact(
            &g,
            0,
            3,
            &ExactOptions::default()
                .with_threads(threads)
                .with_metrics(Arc::clone(&metrics)),
        );
        assert_eq!(r.status, SolveStatus::Optimal, "threads {threads}");
        assert_eq!(r.weight, 0.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.bnb_nodes, 1, "threads {threads}");
        assert_eq!(snap.bnb_prunes, 1, "threads {threads}");
        assert_eq!(snap.bnb_incumbent_updates, 0, "threads {threads}");
        assert_eq!(snap.bnb_steals, 0, "threads {threads}");
        assert_eq!(r.nodes, snap.bnb_nodes);
    }
}

#[test]
fn sequential_counters_are_reproducible() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0ffee);
    let g = random_graph(&mut rng, 12, 10.0);
    let run = || {
        let metrics = Arc::new(SolverMetrics::new());
        let r = solve_exact(
            &g,
            0,
            4,
            &ExactOptions::default().with_metrics(Arc::clone(&metrics)),
        );
        (r, metrics.snapshot())
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1.nodes, r2.nodes);
    assert_eq!(s1.bnb_nodes, s2.bnb_nodes);
    assert_eq!(s1.bnb_prunes, s2.bnb_prunes);
    assert_eq!(s1.bnb_incumbent_updates, s2.bnb_incumbent_updates);
    assert_eq!(s1.bnb_steals, 0);
    assert_eq!(s2.bnb_steals, 0);
    // The result's node count is the metric's node count.
    assert_eq!(r1.nodes, s1.bnb_nodes);
}

#[test]
fn parallel_aggregate_equals_result_nodes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xfab);
    let g = random_graph(&mut rng, 14, 10.0);
    for threads in [2, 4] {
        let metrics = Arc::new(SolverMetrics::new());
        let r = solve_exact(
            &g,
            0,
            5,
            &ExactOptions::default()
                .with_threads(threads)
                .with_cancel(Arc::new(CancelToken::new()))
                .with_metrics(Arc::clone(&metrics)),
        );
        assert_eq!(r.status, SolveStatus::Optimal);
        let snap = metrics.snapshot();
        // Every node any worker expanded is in both the result and the
        // collector, and each one polled the token exactly once.
        assert_eq!(r.nodes, snap.bnb_nodes, "threads {threads}");
        assert_eq!(
            snap.cancellation_checks, snap.bnb_nodes,
            "threads {threads}"
        );
        // A solved-to-optimality run found the optimum or confirmed the
        // warm start: updates are bounded by leaf visits.
        assert!(snap.bnb_incumbent_updates <= snap.bnb_nodes);
    }
}

#[test]
fn cancellation_counters_fire_on_preemption() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd00d);
    let g = random_graph(&mut rng, 12, 10.0);
    let kill_after_three_polls = |threads: usize| {
        let metrics = Arc::new(SolverMetrics::new());
        let token = Arc::new(CancelToken::cancel_after(3));
        let r = solve_exact(
            &g,
            0,
            5,
            &ExactOptions::default()
                .with_threads(threads)
                .with_cancel(token)
                .with_metrics(Arc::clone(&metrics)),
        );
        assert_eq!(r.status, SolveStatus::TimeLimit, "threads {threads}");
        let snap = metrics.snapshot();
        // One counted poll per expanded node, whichever worker expanded
        // it, and exactly one deadline expiration for the preempted solve.
        assert_eq!(
            snap.cancellation_checks, snap.bnb_nodes,
            "threads {threads}"
        );
        assert_eq!(snap.deadline_expirations, 1, "threads {threads}");
        assert_eq!(r.nodes, snap.bnb_nodes, "threads {threads}");
        snap
    };
    // With one worker the kill point is the budget: three polls pass, the
    // fourth fires, so exactly four nodes were entered.
    let snap = kill_after_three_polls(1);
    assert_eq!(snap.cancellation_checks, 4);
    assert_eq!(snap.bnb_nodes, 4);
    for threads in [2, 4] {
        kill_after_three_polls(threads);
    }
}
