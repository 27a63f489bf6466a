//! TargetHkS scaling grid: one worker against two under a fixed
//! 1-second deadline.
//!
//! Every (vertices, k) cell's seeded instance is solved five times by one
//! worker and five times by two, alternating. The report records whether
//! every solve closed the cell (proved optimality inside the deadline),
//! and the median incumbent, gap certificate, node count and wall seconds
//! of each worker count. The grid is written to `BENCH_targethks.json` at
//! the workspace root; `crates/bench/tests/schema.rs` re-validates the
//! committed baseline and enforces
//! `TargetHksBenchReport::two_core_acceptance`: the same optima, more
//! nodes before the deadline, and sooner proofs on the larger closed
//! cells. That check needs two cores, so take the baseline on at least
//! two.
//!
//! Setting `COMPARESETS_BENCH_SMOKE=1` solves the n16/k4 cell once per
//! worker count and writes nothing.

use comparesets_bench::{TargetHksBenchReport, TargetHksCell};
use comparesets_graph::{solve_exact, ExactOptions, SimilarityGraph, SolveStatus};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Heavy-tailed random complete graph. High weight variance is what makes
/// branch-and-bound hard: the admissible bounds assemble the heaviest
/// edges anywhere in the candidate set, so a fat upper tail keeps them
/// far above what any single completion achieves and pruning stays weak.
fn random_graph(n: usize, seed: u64) -> SimilarityGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let u: f64 = rng.random_range(0.0..1.0);
            let v = 10.0 * u * u * u;
            w[i * n + j] = v;
            w[j * n + i] = v;
        }
    }
    SimilarityGraph::from_weights(n, w)
}

/// The median of `values` (the upper one for an even count).
fn median<T: Copy + PartialOrd>(mut values: Vec<T>) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values[values.len() / 2]
}

/// What the solves of one cell by one worker count returned.
#[derive(Default)]
struct Solves {
    open: usize,
    weights: Vec<f64>,
    gaps: Vec<f64>,
    nodes: Vec<u64>,
    seconds: Vec<f64>,
}

impl Solves {
    fn solve(&mut self, graph: &SimilarityGraph, k: usize, workers: usize) {
        let opts = ExactOptions::default()
            .with_time_limit(DEADLINE)
            .with_threads(workers);
        let start = Instant::now();
        let r = solve_exact(graph, 0, k, &opts);
        self.seconds.push(start.elapsed().as_secs_f64().max(1e-9));
        self.open += usize::from(r.status != SolveStatus::Optimal);
        self.weights.push(r.weight);
        self.gaps.push(r.gap);
        self.nodes.push(r.nodes.max(1));
    }
}

/// Solve one grid cell `solves` times with one worker and with two,
/// alternating, so that both worker counts see the same machine.
fn run_cell(n: usize, k: usize, solves: usize) -> TargetHksCell {
    let graph = random_graph(n, 42 + n as u64);
    let (mut one, mut two) = (Solves::default(), Solves::default());
    for _ in 0..solves {
        one.solve(&graph, k, 1);
        two.solve(&graph, k, 2);
    }
    TargetHksCell {
        name: format!("targethks/n{n}/k{k}"),
        vertices: n,
        k,
        deadline_ms: u64::try_from(DEADLINE.as_millis()).unwrap_or(u64::MAX),
        one_closed: one.open == 0,
        two_closed: two.open == 0,
        one_weight: median(one.weights),
        two_weight: median(two.weights),
        one_gap: median(one.gaps),
        two_gap: median(two.gaps),
        one_nodes: median(one.nodes),
        two_nodes: median(two.nodes),
        one_seconds: median(one.seconds),
        two_seconds: median(two.seconds),
    }
}

/// The committed grid: small cells close for both worker counts (pinning
/// equal optima), n40/k10 and n48/k10 keep one worker busy long enough to
/// time a second, and the two largest cells overrun the deadline
/// (pinning the node throughput).
const GRID: &[(usize, usize)] = &[
    (16, 4),
    (16, 6),
    (24, 6),
    (24, 8),
    (32, 8),
    (40, 10),
    (48, 10),
    (56, 12),
    (64, 12),
];
const DEADLINE: Duration = Duration::from_secs(1);

fn main() {
    // Smoke mode: the first cell, once per worker count.
    let (grid, solves) = if comparesets_bench::smoke() {
        (&GRID[..1], 1)
    } else {
        (GRID, 5)
    };
    let cells: Vec<TargetHksCell> = grid
        .iter()
        .map(|&(n, k)| {
            let cell = run_cell(n, k, solves);
            let state = |closed| if closed { "closed" } else { "open" };
            println!(
                "{}: one worker {} gap {:.3} ({} nodes, {:.3}s) | two workers {} gap {:.3} \
                 ({} nodes, {:.3}s)",
                cell.name,
                state(cell.one_closed),
                cell.one_gap,
                cell.one_nodes,
                cell.one_seconds,
                state(cell.two_closed),
                cell.two_gap,
                cell.two_nodes,
                cell.two_seconds,
            );
            cell
        })
        .collect();

    let report = TargetHksBenchReport {
        bench: "targethks_scaling".to_string(),
        threads_available: comparesets_bench::threads_available(),
        solves,
        cells,
    };
    report.validate().expect("emitted report is well-formed");
    if !comparesets_bench::smoke() {
        report
            .two_core_acceptance()
            .expect("grid shows what a second core buys");
    }
    comparesets_bench::write_report("BENCH_targethks.json", &report);
}
