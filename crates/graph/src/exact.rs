//! Exact TargetHkS via anytime branch and bound (the Gurobi substitute).
//!
//! The paper solves TargetHkS_ILP with Gurobi under a 60-second limit
//! (§4.3.1, Table 5). We replace the proprietary solver with a
//! branch-and-bound that is exact whenever it finishes within the
//! deadline and an *anytime* solver when it does not:
//!
//! * **Incumbent** — warm-started from [`crate::greedy::solve_greedy`], so
//!   a timed-out run is never worse than the greedy heuristic (mirroring
//!   how a MIP solver returns its best incumbent on timeout — the Table 5
//!   phenomenon where greedy occasionally *beats* the timed-out ILP arises
//!   from Gurobi's incumbent lagging greedy; with our warm start the exact
//!   solver instead matches greedy in that case).
//! * **Admissible bound** — [`upper_bound`]: the minimum of the per-vertex
//!   contribution bound (each candidate contributes at most
//!   `w(v, chosen) + ½·top_{r−1}(v)`) and the degree-sorted residual bound
//!   (the `r` heaviest anchors into the chosen set plus the `C(r,2)`
//!   heaviest candidate–candidate edges). Both dominate every completion;
//!   their minimum prunes strictly earlier than either alone.
//! * **Best-first frontier** — subproblems above depth `SPAWN_DEPTH` = 2
//!   (vertices chosen beyond the target) are tasks in one frontier ordered
//!   by their bound, so the most promising open subtree is always searched
//!   next; a deeper subtree runs as a depth-first search inside its task.
//!   Both branch over candidates in order of marginal gain into the chosen
//!   set. On timeout the largest bound left in the frontier (or abandoned
//!   mid-task) certifies the anytime gap.
//! * **Workers** — the calling thread is worker 0, and
//!   [`ExactOptions::threads`] − 1 scoped `std::thread` helpers (the
//!   discipline `comparesets-serve` uses for connections) pull from the
//!   same frontier and share the incumbent through an atomic weight. Every
//!   worker count explores the same space and proves the same optimum.
//! * **Preemption** — the workspace-standard [`CancelToken`] machinery:
//!   an internal deadline token armed from [`ExactOptions::time_limit`]
//!   plus an optional external token on [`ExactOptions::cancel`], polled
//!   once per expanded node. On expiry the incumbent is returned with
//!   [`SolveStatus::TimeLimit`] and a valid optimality [`ExactResult::gap`]
//!   (anytime semantics matching `DeadlineExceeded { best_so_far }` on the
//!   solve path, ARCHITECTURE.md §8).

use crate::greedy::solve_greedy;
use crate::similarity::SimilarityGraph;
use comparesets_obs::{CancelToken, SolverMetrics};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Pruning slack: a subtree is discarded when its bound cannot beat the
/// incumbent by more than this (guards against FP noise in weight sums).
const EPS: f64 = 1e-12;

/// Tree depth (vertices chosen beyond the target) above which the search
/// publishes subtrees to the shared frontier as tasks; below it a task
/// runs as plain DFS, which bounds the frontier's size and locking. At
/// least 1: the root must expand for a second worker to find work.
const SPAWN_DEPTH: usize = 2;

/// Termination status of the exact solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The search space was exhausted: the solution is optimal.
    Optimal,
    /// The deadline expired (or the cancel token fired): the solution is
    /// the best incumbent found and [`ExactResult::gap`] bounds how far
    /// from the optimum it can be.
    TimeLimit,
}

/// Options for [`solve_exact`].
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Wall-clock budget (the paper uses 60 s). Always armed, even
    /// without an external token, via an internal deadline
    /// [`CancelToken`].
    pub time_limit: Duration,
    /// Workers over the shared best-first frontier: the calling thread
    /// plus `threads − 1` scoped helper threads, so `0` and `1` both
    /// search on the calling thread alone. Every count proves the same
    /// optimal weight.
    pub threads: usize,
    /// Optional external cancellation latch, polled once per expanded
    /// node alongside the internal deadline. A pre-fired token returns the
    /// greedy warm-start incumbent immediately with
    /// [`SolveStatus::TimeLimit`]; `CancelToken::cancel_after` budgets
    /// give tests deterministic kill points with one worker (more workers
    /// race for the budget).
    pub cancel: Option<Arc<CancelToken>>,
    /// Optional solver-metrics collector: `bnb_nodes`, `bnb_prunes`,
    /// `bnb_incumbent_updates`, and `bnb_steals` (plus
    /// `cancellation_checks` / `deadline_expirations`) are recorded here.
    pub metrics: Option<Arc<SolverMetrics>>,
}

impl Default for ExactOptions {
    /// The paper's protocol: 60-second limit, one worker.
    fn default() -> Self {
        ExactOptions {
            time_limit: Duration::from_secs(60),
            threads: 1,
            cancel: None,
            metrics: None,
        }
    }
}

impl ExactOptions {
    /// This options value with a different wall-clock budget.
    #[must_use]
    pub fn with_time_limit(mut self, time_limit: Duration) -> Self {
        self.time_limit = time_limit;
        self
    }

    /// This options value searching with `n` workers.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// This options value with an external cancellation token attached.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// This options value with a metrics collector attached.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<SolverMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactResult {
    /// Selected vertices (sorted ascending; contains the target).
    pub vertices: Vec<usize>,
    /// Total subgraph weight (Equation 6).
    pub weight: f64,
    /// Whether optimality was proven.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes expanded (all workers).
    pub nodes: u64,
    /// Absolute optimality gap: the true optimum is at most
    /// `weight + gap`. Exactly `0.0` when `status` is
    /// [`SolveStatus::Optimal`]; on timeout it is the tightest surviving
    /// admissible bound over the unexplored frontier minus the incumbent.
    pub gap: f64,
}

/// Admissible upper bound on the weight achievable by completing `chosen`
/// (current weight `current`) with `r` vertices drawn from `cands`.
///
/// Two bounds are computed and the minimum returned (each alone dominates
/// every completion `T ⊆ cands`, `|T| = r`, because all weights are
/// non-negative):
///
/// 1. **Per-vertex contribution** (the original bound): candidate `v`
///    contributes at most `w(v, chosen) + ½·top_{r−1}(v)` where
///    `top_k(v)` sums v's `k` heaviest edges into `cands \ {v}`; the sum
///    of the `r` largest such contributions bounds any completion.
/// 2. **Degree-sorted residual**: a completion's weight decomposes into
///    anchor edges (`Σ_{v∈T} w(v, chosen)`, at most the `r` largest
///    anchors over `cands`) plus internal edges (`C(r,2)` of them, each at
///    most one of the `C(r,2)` heaviest candidate–candidate edges).
///
/// Exposed publicly so the admissibility property test can pin it against
/// brute-force completions.
pub fn upper_bound(
    graph: &SimilarityGraph,
    chosen: &[usize],
    current: f64,
    cands: &[usize],
    r: usize,
) -> f64 {
    if r == 0 || cands.is_empty() {
        return current;
    }
    let r = r.min(cands.len());
    let desc = |a: &f64, b: &f64| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);

    // Bound 1: r largest per-vertex contributions.
    let mut anchors: Vec<f64> = Vec::with_capacity(cands.len());
    let mut contributions: Vec<f64> = Vec::with_capacity(cands.len());
    let mut peer_weights: Vec<f64> = Vec::with_capacity(cands.len());
    let mut pair_weights: Vec<f64> = Vec::with_capacity(cands.len() * cands.len() / 2);
    for (i, &v) in cands.iter().enumerate() {
        let to_chosen = graph.weight_to_set(v, chosen);
        anchors.push(to_chosen);
        peer_weights.clear();
        for (j, &u) in cands.iter().enumerate() {
            if u != v {
                let w = graph.weight(v, u);
                peer_weights.push(w);
                if j > i {
                    pair_weights.push(w);
                }
            }
        }
        peer_weights.sort_unstable_by(desc);
        let peers: f64 = peer_weights.iter().take(r - 1).sum();
        contributions.push(to_chosen + 0.5 * peers);
    }
    contributions.sort_unstable_by(desc);
    let bound_contrib = current + contributions.iter().take(r).sum::<f64>();

    // Bound 2: r largest anchors + C(r,2) largest internal edges.
    anchors.sort_unstable_by(desc);
    pair_weights.sort_unstable_by(desc);
    let bound_degree = current
        + anchors.iter().take(r).sum::<f64>()
        + pair_weights.iter().take(r * (r - 1) / 2).sum::<f64>();

    bound_contrib.min(bound_degree)
}

/// Node-expansion counters accumulated thread-locally and merged once at
/// the end of the solve (workers never contend on metrics atomics).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    nodes: u64,
    prunes: u64,
    incumbent_updates: u64,
    steals: u64,
}

impl Counters {
    fn merge(&mut self, other: Counters) {
        self.nodes += other.nodes;
        self.prunes += other.prunes;
        self.incumbent_updates += other.incumbent_updates;
        self.steals += other.steals;
    }
}

/// Per-solve preemption handle: the internal deadline token plus the
/// optional external token. Shared by reference across workers (both
/// tokens are atomics inside).
struct Preempt<'a> {
    deadline: CancelToken,
    external: Option<&'a CancelToken>,
    metrics: Option<&'a SolverMetrics>,
}

impl Preempt<'_> {
    /// The once-per-node cancellation poll. External polls are counted
    /// into `cancellation_checks` (matching `SolveCtl`: polls are only
    /// counted when a caller-installed token exists); the internal
    /// deadline is part of the solver itself and stays uncounted.
    fn poll(&self) -> bool {
        if let Some(token) = self.external {
            if let Some(m) = self.metrics {
                SolverMetrics::incr(&m.cancellation_checks);
            }
            if token.is_cancelled() {
                return true;
            }
        }
        self.deadline.is_cancelled()
    }

    /// Whether either token has already fired. Not a poll: it counts no
    /// check and spends no `cancel_after` budget.
    fn fired(&self) -> bool {
        self.external.is_some_and(CancelToken::fired) || self.deadline.fired()
    }
}

/// Candidates ordered by marginal gain into `chosen`, descending, ties
/// keeping input order (stable sort). The branching discipline then only
/// considers candidates *after* a branch vertex in this order, so no
/// vertex set is visited twice.
fn gain_order(graph: &SimilarityGraph, chosen: &[usize], cands: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = cands.to_vec();
    order.sort_by(|&a, &b| {
        let ga = graph.weight_to_set(a, chosen);
        let gb = graph.weight_to_set(b, chosen);
        gb.partial_cmp(&ga).unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// A frontier subproblem: complete `chosen` (weight `current`) using
/// vertices from `cands` only. Heap-ordered by `ub` so workers always
/// pull the most promising open subtree (best-first), which is also what
/// keeps the anytime gap tight: the frontier maximum *is* the bound on
/// everything unexplored.
struct Task {
    ub: f64,
    chosen: Vec<usize>,
    current: f64,
    cands: Vec<usize>,
    /// The worker that published the task (the root: worker 0).
    producer: usize,
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.ub == other.ub
    }
}
impl Eq for Task {}
impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Task {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Bounds are finite (sums of finite non-negative weights).
        self.ub
            .partial_cmp(&other.ub)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// The shared best incumbent: a mutex-held source of truth plus an atomic
/// mirror of the weight bits so the hot pruning path never locks.
struct Incumbent {
    weight_bits: AtomicU64,
    slot: Mutex<(f64, Vec<usize>)>,
}

impl Incumbent {
    fn new(weight: f64, set: Vec<usize>) -> Self {
        Incumbent {
            weight_bits: AtomicU64::new(weight.to_bits()),
            slot: Mutex::new((weight, set)),
        }
    }

    /// Lock-free read of the current best weight (advisory: may lag a
    /// concurrent improve by one update, which only delays a prune).
    fn weight(&self) -> f64 {
        f64::from_bits(self.weight_bits.load(Ordering::Relaxed))
    }

    /// CAS-improve: publish `(weight, set)` iff strictly better. Returns
    /// whether this call improved the incumbent.
    fn try_improve(&self, weight: f64, set: &[usize]) -> bool {
        if weight <= self.weight() {
            return false;
        }
        let Ok(mut slot) = self.slot.lock() else {
            return false; // A worker panicked; solve is already doomed.
        };
        if weight > slot.0 {
            slot.0 = weight;
            slot.1 = set.to_vec();
            self.weight_bits.store(weight.to_bits(), Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn into_inner(self) -> (f64, Vec<usize>) {
        self.slot
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

struct Frontier {
    heap: Mutex<BinaryHeap<Task>>,
    /// Tasks queued plus tasks currently being processed; workers may
    /// only terminate on an empty frontier once this reaches zero.
    open: AtomicUsize,
}

impl Frontier {
    fn push(&self, task: Task) {
        self.open.fetch_add(1, Ordering::SeqCst);
        if let Ok(mut heap) = self.heap.lock() {
            heap.push(task);
        }
    }

    fn pop(&self) -> Option<Task> {
        self.heap.lock().ok().and_then(|mut heap| heap.pop())
    }

    /// One task fully processed (or dropped on cancellation).
    fn done(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The state every worker of one solve shares.
struct Search<'a> {
    graph: &'a SimilarityGraph,
    k: usize,
    preempt: Preempt<'a>,
    incumbent: Incumbent,
    frontier: Frontier,
    /// Max admissible bound over subproblems abandoned mid-flight by a
    /// cancelled worker (f64 bits under a max-CAS); combined with the
    /// frontier leftovers this certifies the reported gap.
    abandoned_bits: AtomicU64,
}

impl<'a> Search<'a> {
    /// A search seeded with the warm-start incumbent and an empty
    /// frontier.
    fn new(
        graph: &'a SimilarityGraph,
        k: usize,
        options: &'a ExactOptions,
        warm: Vec<usize>,
    ) -> Self {
        Search {
            graph,
            k,
            preempt: Preempt {
                deadline: CancelToken::with_timeout(options.time_limit),
                external: options.cancel.as_deref(),
                metrics: options.metrics.as_deref(),
            },
            incumbent: Incumbent::new(graph.subgraph_weight(&warm), warm),
            frontier: Frontier {
                heap: Mutex::new(BinaryHeap::new()),
                open: AtomicUsize::new(0),
            },
            abandoned_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn record_abandoned(&self, ub: f64) {
        let mut cur = self.abandoned_bits.load(Ordering::Relaxed);
        while ub > f64::from_bits(cur) {
            match self.abandoned_bits.compare_exchange_weak(
                cur,
                ub.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Sequential DFS below the spawn depth, pruning against the shared
    /// incumbent. Returns false when cancellation interrupted the subtree
    /// (its remaining work is then covered by the task's recorded bound).
    fn dfs(
        &self,
        chosen: &mut Vec<usize>,
        current: f64,
        cands: &[usize],
        counters: &mut Counters,
    ) -> bool {
        counters.nodes += 1;
        if self.preempt.poll() {
            return false;
        }
        if chosen.len() == self.k {
            if self.incumbent.try_improve(current, chosen) {
                counters.incumbent_updates += 1;
            }
            return true;
        }
        let r = self.k - chosen.len();
        if cands.len() < r {
            return true;
        }
        if upper_bound(self.graph, chosen, current, cands, r) <= self.incumbent.weight() + EPS {
            counters.prunes += 1;
            return true;
        }
        let order = gain_order(self.graph, chosen, cands);
        for (pos, &v) in order.iter().enumerate() {
            let gain = self.graph.weight_to_set(v, chosen);
            chosen.push(v);
            let completed = self.dfs(chosen, current + gain, &order[pos + 1..], counters);
            chosen.pop();
            if !completed {
                return false;
            }
        }
        true
    }

    /// Process one frontier task: prune, expand one level into child
    /// tasks (above the spawn depth), or solve the subtree by DFS.
    fn process(&self, task: Task, worker: usize, counters: &mut Counters) {
        counters.nodes += 1;
        if self.preempt.poll() {
            self.record_abandoned(task.ub);
            return;
        }
        if task.ub <= self.incumbent.weight() + EPS {
            counters.prunes += 1;
            return;
        }
        let r = self.k - task.chosen.len();
        debug_assert!(r >= 1);
        let depth = task.chosen.len() - 1;
        let order = gain_order(self.graph, &task.chosen, &task.cands);
        if depth < SPAWN_DEPTH && r > 1 {
            // Publish each child subtree as a frontier task.
            let mut chosen = task.chosen.clone();
            for (pos, &v) in order.iter().enumerate() {
                let rest = &order[pos + 1..];
                if rest.len() < r - 1 {
                    break; // Even shorter suffixes cannot complete either.
                }
                let gain = self.graph.weight_to_set(v, &chosen);
                chosen.push(v);
                let current = task.current + gain;
                let ub = upper_bound(self.graph, &chosen, current, rest, r - 1);
                if ub <= self.incumbent.weight() + EPS {
                    counters.prunes += 1;
                } else {
                    self.frontier.push(Task {
                        ub,
                        chosen: chosen.clone(),
                        current,
                        cands: rest.to_vec(),
                        producer: worker,
                    });
                }
                chosen.pop();
            }
        } else {
            let mut chosen = task.chosen.clone();
            // The task node itself was counted above; descend directly
            // into its branches so it is not double-counted by dfs().
            for (pos, &v) in order.iter().enumerate() {
                let gain = self.graph.weight_to_set(v, &chosen);
                chosen.push(v);
                let completed = self.dfs(
                    &mut chosen,
                    task.current + gain,
                    &order[pos + 1..],
                    counters,
                );
                chosen.pop();
                if !completed {
                    self.record_abandoned(task.ub);
                    return;
                }
            }
        }
    }

    /// One worker: pull the best open task until the frontier is
    /// exhausted or a token has fired. The counted poll is the one per
    /// node inside `process`; the check here only stops a worker from
    /// pulling more work after the kill.
    fn worker(&self, id: usize) -> Counters {
        let mut counters = Counters::default();
        while !self.preempt.fired() {
            match self.frontier.pop() {
                Some(task) => {
                    if task.producer != id {
                        counters.steals += 1;
                    }
                    self.process(task, id, &mut counters);
                    self.frontier.done();
                }
                None if self.frontier.open.load(Ordering::SeqCst) == 0 => break,
                None => std::thread::yield_now(),
            }
        }
        counters
    }
}

/// Solve TargetHkS exactly (within the time limit).
///
/// # Panics
/// Panics when `target >= graph.len()` or `k == 0`.
pub fn solve_exact(
    graph: &SimilarityGraph,
    target: usize,
    k: usize,
    options: &ExactOptions,
) -> ExactResult {
    assert!(target < graph.len(), "target out of bounds");
    assert!(k > 0, "k must be positive");
    let n = graph.len();
    let k = k.min(n);

    // Warm start with greedy.
    let warm = solve_greedy(graph, target, k);

    // Trivial cases (§3.2: k ∈ {1, 2, n} are easy).
    if k == 1 || k == n {
        let mut vertices: Vec<usize> = if k == 1 {
            vec![target]
        } else {
            (0..n).collect()
        };
        vertices.sort_unstable();
        let weight = graph.subgraph_weight(&vertices);
        return ExactResult {
            vertices,
            weight,
            status: SolveStatus::Optimal,
            nodes: 0,
            gap: 0.0,
        };
    }

    let search = Search::new(graph, k, options, warm);
    let cands: Vec<usize> = (0..n).filter(|&v| v != target).collect();
    let root = Task {
        ub: upper_bound(graph, &[target], 0.0, &cands, k - 1),
        chosen: vec![target],
        current: 0.0,
        cands,
        producer: 0,
    };
    // The calling thread is worker 0. It expands the root before any
    // helper exists, so the root is no one's steal; then it and the
    // `threads − 1` helpers drain the frontier.
    let mut counters = Counters::default();
    search.process(root, 0, &mut counters);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..options.threads)
            .map(|id| {
                let search = &search;
                scope.spawn(move || search.worker(id))
            })
            .collect();
        counters.merge(search.worker(0));
        for helper in helpers {
            match helper.join() {
                Ok(helper_counters) => counters.merge(helper_counters),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    // Certificate over everything left unexplored: frontier leftovers
    // plus subproblems workers abandoned mid-DFS.
    let mut open_ub = f64::from_bits(search.abandoned_bits.load(Ordering::Relaxed));
    if let Some(top) = search.frontier.pop() {
        open_ub = open_ub.max(top.ub);
    }
    // TimeLimit only when preempted *and* something unexplored could
    // still beat the incumbent — if every surviving bound is dominated,
    // the incumbent is proven optimal even though the clock ran out.
    let fired = search.preempt.fired();
    let (best_weight, best_set) = search.incumbent.into_inner();
    let timed_out = fired && open_ub > best_weight + EPS;

    if let Some(metrics) = options.metrics.as_deref() {
        SolverMetrics::add(&metrics.bnb_nodes, counters.nodes);
        SolverMetrics::add(&metrics.bnb_prunes, counters.prunes);
        SolverMetrics::add(&metrics.bnb_incumbent_updates, counters.incumbent_updates);
        SolverMetrics::add(&metrics.bnb_steals, counters.steals);
        if timed_out {
            SolverMetrics::incr(&metrics.deadline_expirations);
        }
    }

    let (status, gap) = if timed_out {
        (SolveStatus::TimeLimit, open_ub - best_weight)
    } else {
        (SolveStatus::Optimal, 0.0)
    };
    let mut vertices = best_set;
    vertices.sort_unstable();
    let weight = graph.subgraph_weight(&vertices);
    ExactResult {
        weight,
        vertices,
        status,
        nodes: counters.nodes,
        gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::fixtures::figure4_graph;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn opts() -> ExactOptions {
        ExactOptions::default().with_time_limit(Duration::from_secs(60))
    }

    #[test]
    fn figure4_targethks_vs_hks() {
        let g = figure4_graph();
        // TargetHkS with target p1 (vertex 0), k = 3 → {p1,p4,p6} = 25.4.
        let r = solve_exact(&g, 0, 3, &opts());
        assert_eq!(r.vertices, vec![0, 3, 5]);
        assert!((r.weight - 25.4).abs() < 1e-12);
        assert_eq!(r.status, SolveStatus::Optimal);
        assert_eq!(r.gap, 0.0);
        // With target p2 (vertex 1) the optimum is the global HkS
        // {p2,p5,p6} = 26.5.
        let r2 = solve_exact(&g, 1, 3, &opts());
        assert_eq!(r2.vertices, vec![1, 4, 5]);
        assert!((r2.weight - 26.5).abs() < 1e-12);
    }

    #[test]
    fn exact_contains_target_always() {
        let g = figure4_graph();
        for target in 0..6 {
            for k in 1..=6 {
                let r = solve_exact(&g, target, k, &opts());
                assert!(r.vertices.contains(&target), "target {target} k {k}");
                assert_eq!(r.vertices.len(), k);
            }
        }
    }

    #[test]
    fn trivial_k_values() {
        let g = figure4_graph();
        let r1 = solve_exact(&g, 2, 1, &opts());
        assert_eq!(r1.vertices, vec![2]);
        assert_eq!(r1.weight, 0.0);
        let rn = solve_exact(&g, 2, 6, &opts());
        assert_eq!(rn.vertices, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn exact_never_below_greedy() {
        // Brute-force cross-check on random graphs.
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        for trial in 0..25 {
            let n = rng.random_range(4..10);
            let mut w = vec![0.0; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v: f64 = rng.random_range(0.0..10.0);
                    w[i * n + j] = v;
                    w[j * n + i] = v;
                }
            }
            let g = crate::similarity::SimilarityGraph::from_weights(n, w);
            let k = rng.random_range(2..=n.min(5));
            let target = rng.random_range(0..n);
            let exact = solve_exact(&g, target, k, &opts());
            let greedy = crate::greedy::solve_greedy(&g, target, k);
            let gw = g.subgraph_weight(&greedy);
            assert!(
                exact.weight >= gw - 1e-9,
                "trial {trial}: exact {} < greedy {gw}",
                exact.weight
            );
            assert_eq!(exact.status, SolveStatus::Optimal);
        }
    }

    #[test]
    fn exact_matches_bruteforce_enumeration() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..10 {
            let n = 8;
            let mut w = vec![0.0; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v: f64 = rng.random_range(0.0..5.0);
                    w[i * n + j] = v;
                    w[j * n + i] = v;
                }
            }
            let g = crate::similarity::SimilarityGraph::from_weights(n, w);
            let target = 0;
            let k = 4;
            // Brute force over all C(7,3) completions.
            let mut best = f64::NEG_INFINITY;
            for a in 1..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        best = best.max(g.subgraph_weight(&[target, a, b, c]));
                    }
                }
            }
            let r = solve_exact(&g, target, k, &opts());
            assert!(
                (r.weight - best).abs() < 1e-9,
                "exact {} vs brute {best}",
                r.weight
            );
        }
    }

    #[test]
    fn zero_time_limit_returns_incumbent_as_timelimit() {
        // The token-based deadline is polled at the very first node, so a
        // zero budget expires deterministically (the old Instant-polling
        // implementation only noticed expiry when its 1024-node check
        // fired, making this assertion flaky by construction).
        let g = figure4_graph();
        let r = solve_exact(
            &g,
            0,
            3,
            &ExactOptions::default().with_time_limit(Duration::from_nanos(0)),
        );
        assert_eq!(r.status, SolveStatus::TimeLimit);
        let greedy = crate::greedy::solve_greedy(&g, 0, 3);
        assert!((r.weight - g.subgraph_weight(&greedy)).abs() < 1e-12);
        // The gap certificate covers the (here: optimal) incumbent.
        assert!(r.gap >= 0.0);
        assert!(r.weight + r.gap >= 25.4 - 1e-12);
    }

    #[test]
    fn pre_cancelled_token_is_deterministic_for_one_and_four_workers() {
        let g = figure4_graph();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        for threads in [1, 4] {
            let r = solve_exact(
                &g,
                0,
                3,
                &opts().with_threads(threads).with_cancel(Arc::clone(&token)),
            );
            assert_eq!(r.status, SolveStatus::TimeLimit, "threads {threads}");
            let greedy = crate::greedy::solve_greedy(&g, 0, 3);
            assert!((r.weight - g.subgraph_weight(&greedy)).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_figure4() {
        let g = figure4_graph();
        for target in 0..6 {
            let seq = solve_exact(&g, target, 3, &opts());
            for threads in [2, 4] {
                let par = solve_exact(&g, target, 3, &opts().with_threads(threads));
                assert_eq!(par.status, SolveStatus::Optimal);
                assert!(
                    (par.weight - seq.weight).abs() < 1e-9,
                    "target {target} threads {threads}: {} vs {}",
                    par.weight,
                    seq.weight
                );
            }
        }
    }

    #[test]
    fn only_a_task_another_worker_published_counts_as_a_steal() {
        // Worker 1 pulls the root that worker 0 published (one steal),
        // then only subtrees it published itself (no further steals).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 12;
        let mut w = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v: f64 = rng.random_range(0.0..10.0);
                w[i * n + j] = v;
                w[j * n + i] = v;
            }
        }
        let g = crate::similarity::SimilarityGraph::from_weights(n, w);
        let options = opts();
        let search = Search::new(&g, 5, &options, crate::greedy::solve_greedy(&g, 0, 5));
        search.frontier.push(Task {
            ub: f64::INFINITY,
            chosen: vec![0],
            current: 0.0,
            cands: (1..n).collect(),
            producer: 0,
        });
        let counters = search.worker(1);
        assert_eq!(counters.steals, 1);
        assert!(counters.nodes > 1, "worker 1 also expanded its own tasks");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let g = figure4_graph();
        let _ = solve_exact(&g, 0, 0, &opts());
    }
}
