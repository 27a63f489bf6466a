//! Kill-point behavior of the exact solver under the workspace-standard
//! [`CancelToken`] (mirrors `crates/core/tests/cancellation.rs` for the
//! regression path): a cancelled solve must return the warm-start
//! incumbent (or better), report [`SolveStatus::TimeLimit`], and certify
//! a gap that really bounds the optimum — at *every* kill point, which
//! `CancelToken::cancel_after` check budgets make deterministic.
//!
//! The file also pins the no-token one-worker solve to the
//! previous-generation depth-first implementation (embedded below as
//! [`reference_solve`]). The best-first order and the stronger
//! `min(B1, B2)` bound change the search path but not the optimum, and on
//! these instances the optimum is unique, so the vertex set and the
//! weight's bits must match.

use comparesets_core::{solve_comparesets_plus, InstanceContext, OpinionScheme, SelectParams};
use comparesets_data::CategoryPreset;
use comparesets_graph::{solve_exact, solve_greedy, ExactOptions, SimilarityGraph, SolveStatus};
use comparesets_obs::CancelToken;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

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

/// Brute-force TargetHkS optimum (oracle for gap validity).
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
        for pos in from..=cands.len().saturating_sub(left) {
            subset.push(cands[pos]);
            recurse(graph, cands, pos + 1, left - 1, subset, best);
            subset.pop();
        }
    }
    recurse(graph, &cands, 0, k - 1, &mut subset, &mut best);
    best
}

/// The 6-vertex Figure 4 graph (reproduced from the crate's test fixture):
/// greedy from p₁ finds the true TargetHkS optimum {0,3,5} = 25.4, and the
/// root upper bound is strictly looser, so a pre-expired token must report
/// `TimeLimit` with a positive gap.
fn figure4_graph() -> SimilarityGraph {
    let n = 6;
    let mut w = vec![0.0; n * n];
    let mut set = |i: usize, j: usize, v: f64| {
        w[i * n + j] = v;
        w[j * n + i] = v;
    };
    set(1, 4, 9.0);
    set(1, 5, 8.5);
    set(4, 5, 9.0);
    set(0, 3, 9.0);
    set(0, 5, 8.4);
    set(3, 5, 8.0);
    set(0, 1, 1.0);
    set(0, 2, 2.0);
    set(0, 4, 1.5);
    set(1, 2, 2.0);
    set(1, 3, 1.0);
    set(2, 3, 2.5);
    set(2, 4, 1.0);
    set(3, 4, 1.0);
    SimilarityGraph::from_weights(n, w)
}

#[test]
fn pre_expired_token_returns_greedy_incumbent_with_timelimit() {
    let g = figure4_graph();
    let greedy = solve_greedy(&g, 0, 3);
    let greedy_weight = g.subgraph_weight(&greedy);
    let token = Arc::new(CancelToken::new());
    token.cancel();
    for threads in [1, 2, 4] {
        let r = solve_exact(
            &g,
            0,
            3,
            &ExactOptions::default()
                .with_threads(threads)
                .with_cancel(Arc::clone(&token)),
        );
        assert_eq!(r.status, SolveStatus::TimeLimit, "threads {threads}");
        assert!(
            (r.weight - greedy_weight).abs() < 1e-12,
            "threads {threads}: incumbent {} should be the greedy warm start {greedy_weight}",
            r.weight
        );
        // The certificate still covers the optimum.
        let oracle = brute_force(&g, 0, 3);
        assert!(r.weight + r.gap >= oracle - 1e-9, "threads {threads}");
        assert!(r.gap > 0.0, "threads {threads}: root bound is loose here");
    }
}

#[test]
fn gap_is_a_valid_optimality_bound_at_every_kill_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xdead);
    for trial in 0..5 {
        let n = 12;
        let g = random_graph(&mut rng, n, 10.0);
        let k = 5;
        let oracle = brute_force(&g, 0, k);
        let greedy_weight = g.subgraph_weight(&solve_greedy(&g, 0, k));
        for budget in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 200] {
            for threads in [1, 4] {
                let token = Arc::new(CancelToken::cancel_after(budget));
                let r = solve_exact(
                    &g,
                    0,
                    k,
                    &ExactOptions::default()
                        .with_threads(threads)
                        .with_cancel(Arc::clone(&token)),
                );
                // Anytime contract, wherever the axe fell: never below the
                // warm start, never above the optimum, and the gap bounds
                // what was left unexplored.
                assert!(
                    r.weight >= greedy_weight - 1e-9,
                    "trial {trial} budget {budget} threads {threads}"
                );
                assert!(
                    r.weight <= oracle + 1e-9,
                    "trial {trial} budget {budget} threads {threads}"
                );
                assert!(
                    r.weight + r.gap >= oracle - 1e-9,
                    "trial {trial} budget {budget} threads {threads}: \
                     weight {} + gap {} < oracle {oracle}",
                    r.weight,
                    r.gap
                );
                if r.status == SolveStatus::Optimal {
                    assert!((r.weight - oracle).abs() < 1e-9);
                    assert_eq!(r.gap, 0.0);
                }
            }
        }
    }
}

#[test]
fn sequential_kill_points_are_deterministic() {
    // The check-budget hook fires after exactly `budget` polls and one
    // worker polls once per node, so two runs with the same budget must
    // agree bit for bit (this is what de-flaked the old
    // Instant-polling zero-time-limit test).
    let mut rng = ChaCha8Rng::seed_from_u64(0xfeed);
    let g = random_graph(&mut rng, 13, 10.0);
    for budget in [1u64, 7, 50, 500] {
        let solve = |budget: u64| {
            let token = Arc::new(CancelToken::cancel_after(budget));
            solve_exact(&g, 0, 5, &ExactOptions::default().with_cancel(token))
        };
        let a = solve(budget);
        let b = solve(budget);
        assert_eq!(a.vertices, b.vertices, "budget {budget}");
        assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "budget {budget}");
        assert_eq!(a.nodes, b.nodes, "budget {budget}");
        assert_eq!(a.status, b.status, "budget {budget}");
        assert_eq!(a.gap.to_bits(), b.gap.to_bits(), "budget {budget}");
    }
}

// ---------------------------------------------------------------------
// Reference oracle: the previous-generation sequential solver (per-vertex
// contribution bound only, no preemption), embedded verbatim in spirit so
// the no-token path can be pinned bit-identically against it.
// ---------------------------------------------------------------------

struct RefSearch<'g> {
    graph: &'g SimilarityGraph,
    k: usize,
    best_weight: f64,
    best_set: Vec<usize>,
}

impl RefSearch<'_> {
    fn upper_bound(&self, chosen: &[usize], current: f64, cands: &[usize], r: usize) -> f64 {
        if r == 0 || cands.is_empty() {
            return current;
        }
        let r = r.min(cands.len());
        let mut contributions: Vec<f64> = Vec::with_capacity(cands.len());
        let mut peer_weights: Vec<f64> = Vec::with_capacity(cands.len());
        for &v in cands {
            let to_chosen = self.graph.weight_to_set(v, chosen);
            peer_weights.clear();
            for &u in cands {
                if u != v {
                    peer_weights.push(self.graph.weight(v, u));
                }
            }
            peer_weights.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
            let peers: f64 = peer_weights.iter().take(r - 1).sum();
            contributions.push(to_chosen + 0.5 * peers);
        }
        contributions.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        current + contributions.iter().take(r).sum::<f64>()
    }

    fn dfs(&mut self, chosen: &mut Vec<usize>, current: f64, cands: &[usize]) {
        if chosen.len() == self.k {
            if current > self.best_weight {
                self.best_weight = current;
                self.best_set = chosen.clone();
            }
            return;
        }
        let r = self.k - chosen.len();
        if cands.len() < r {
            return;
        }
        if self.upper_bound(chosen, current, cands, r) <= self.best_weight + 1e-12 {
            return;
        }
        let mut order: Vec<usize> = cands.to_vec();
        order.sort_by(|&a, &b| {
            let ga = self.graph.weight_to_set(a, chosen);
            let gb = self.graph.weight_to_set(b, chosen);
            gb.partial_cmp(&ga).unwrap_or(std::cmp::Ordering::Equal)
        });
        for (pos, &v) in order.iter().enumerate() {
            let gain = self.graph.weight_to_set(v, chosen);
            chosen.push(v);
            self.dfs(chosen, current + gain, &order[pos + 1..]);
            chosen.pop();
        }
    }
}

fn reference_solve(graph: &SimilarityGraph, target: usize, k: usize) -> (Vec<usize>, f64) {
    let warm = solve_greedy(graph, target, k);
    let mut search = RefSearch {
        graph,
        k,
        best_weight: graph.subgraph_weight(&warm),
        best_set: warm,
    };
    let mut chosen = vec![target];
    let cands: Vec<usize> = (0..graph.len()).filter(|&v| v != target).collect();
    search.dfs(&mut chosen, 0.0, &cands);
    let mut vertices = search.best_set;
    vertices.sort_unstable();
    let weight = graph.subgraph_weight(&vertices);
    (vertices, weight)
}

#[test]
fn no_token_run_is_bit_identical_to_the_reference_solver() {
    // Table-5-shaped instances: synthesize a category corpus, solve
    // CompaReSetS+ for the review selections, and build the §3.1
    // similarity graph exactly as the Table 5 harness does.
    for (preset, seed) in [
        (CategoryPreset::Cellphone, 77u64),
        (CategoryPreset::Toy, 13),
        (CategoryPreset::Clothing, 5),
    ] {
        let ds = preset.config(40, seed).generate();
        let params = SelectParams::default();
        let mut checked = 0;
        for inst in ds.instances().into_iter().take(3) {
            let inst = inst.truncated(9);
            let ctx = InstanceContext::build(&ds, &inst, OpinionScheme::Binary);
            if ctx.num_items() < 5 {
                continue;
            }
            let sels = solve_comparesets_plus(&ctx, &params);
            let g = SimilarityGraph::from_selections(&ctx, &sels, params.lambda, params.mu);
            for k in [3, 4] {
                let (ref_vertices, ref_weight) = reference_solve(&g, 0, k);
                let r = solve_exact(&g, 0, k, &ExactOptions::default());
                assert_eq!(r.status, SolveStatus::Optimal);
                assert_eq!(
                    r.vertices,
                    ref_vertices,
                    "{} k={k}: vertex sets diverged",
                    preset.name()
                );
                assert_eq!(
                    r.weight.to_bits(),
                    ref_weight.to_bits(),
                    "{} k={k}: weights diverged",
                    preset.name()
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "{}: no eligible instances", preset.name());
    }

    // And on pure random graphs, where ties and near-ties are common.
    let mut rng = ChaCha8Rng::seed_from_u64(0xabcdef);
    for _ in 0..15 {
        let n = rng.random_range(6..=13);
        let g = random_graph(&mut rng, n, 10.0);
        let k = rng.random_range(2..=n.min(6));
        let target = rng.random_range(0..n);
        let (ref_vertices, ref_weight) = reference_solve(&g, target, k);
        let r = solve_exact(&g, target, k, &ExactOptions::default());
        assert_eq!(r.vertices, ref_vertices);
        assert_eq!(r.weight.to_bits(), ref_weight.to_bits());
    }
}
