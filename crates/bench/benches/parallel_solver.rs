//! The PR's headline workloads: the shared-path Gram-cached regression
//! engine against the naive per-budget reference, and the parallel solver
//! entry points against their sequential twins.
//!
//! Besides the criterion console output, this bench writes
//! `BENCH_parallel_solver.json` at the workspace root with the measured
//! times (minimum over samples, seconds) so PERFORMANCE.md numbers are
//! reproducible from a single `cargo bench --bench parallel_solver`.
//!
//! The `alternation/*` group pits multi-sweep alternation with the
//! per-item answer memos (`SolveOptions::warm_start`, the default)
//! against solving every sweep from scratch (`warm_start = false`) at
//! sweeps = 1..=4; the two are pinned to identical selections by
//! `crates/core/tests/warm_start.rs`, so the delta is pure solver time.
//!
//! Setting `COMPARESETS_BENCH_SMOKE=1` (see `just bench-smoke`) runs one
//! sample of one iteration per workload and skips the JSON report, so CI
//! can exercise every bench body without touching the committed baseline.

use comparesets_bench::{BenchReport, Measurement};
use comparesets_core::{
    solve_comparesets_plus_sweeps_with, solve_comparesets_plus_with, solve_crs_with, SelectParams,
    SolveCtl, SolveOptions,
};
use comparesets_linalg::{
    nomp_path, nomp_reference, CscMatrix, Matrix, NompOptions, NompWorkspace,
};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// A tall sparse 0/1 design matrix shaped like a CompaReSetS+ task at
/// paper scale: `rows` rows, `cols` review columns, ~`nnz` ones each.
fn design(rows: usize, cols: usize, nnz: usize, seed: u64) -> (Matrix, CscMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(cols);
    for _ in 0..cols {
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            entries.push((rng.random_range(0..rows), 1.0));
        }
        columns.push(entries);
    }
    let sparse = CscMatrix::from_columns(rows, &columns);
    let dense = sparse.to_dense();
    let mut b = vec![0.0; rows];
    for column in columns.iter().take(3) {
        for (r, v) in column {
            b[*r] += v;
        }
    }
    for v in &mut b {
        *v += rng.random_range(0.0..0.05);
    }
    (dense, sparse, b)
}

/// The old engine's work for budgets 1..=l_max: one full pursuit per
/// budget, rebuilding the dense Gram at every refit.
fn naive_budget_sweep(a: &CscMatrix, b: &[f64], l_max: usize) {
    for l in 1..=l_max {
        black_box(nomp_reference(a, b, NompOptions::with_max_atoms(l)).unwrap());
    }
}

/// The new engine: one shared Gram-cached pursuit snapshotting every
/// budget along the way.
fn shared_path_sweep(a: &CscMatrix, b: &[f64], l_max: usize) {
    let opts = NompOptions::with_max_atoms(l_max);
    let mut ws = NompWorkspace::new();
    black_box(nomp_path(a, b, opts, &mut ws, SolveCtl::default()).unwrap());
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("regression_engine");
    g.sample_size(10);
    for &(rows, cols) in &[(2_000usize, 40usize), (8_000, 60), (16_000, 80)] {
        let (_, sparse, b) = design(rows, cols, 8, 13);
        let l_max = 7;
        g.bench_with_input(
            BenchmarkId::new("naive_per_budget", format!("{rows}x{cols}")),
            &sparse,
            |bch, m| bch.iter(|| naive_budget_sweep(m, &b, l_max)),
        );
        g.bench_with_input(
            BenchmarkId::new("shared_path", format!("{rows}x{cols}")),
            &sparse,
            |bch, m| bch.iter(|| shared_path_sweep(m, &b, l_max)),
        );
    }
    g.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 8);
    let params = SelectParams::default();
    let mut g = c.benchmark_group("solver_parallel");
    g.sample_size(10);
    for (label, opts) in [
        ("sequential", SolveOptions::sequential()),
        ("parallel", SolveOptions::parallel()),
    ] {
        g.bench_function(format!("crs/{label}"), |bch| {
            bch.iter(|| black_box(solve_crs_with(&ctx, params.m, &opts)))
        });
        g.bench_function(format!("comparesets_plus/{label}"), |bch| {
            bch.iter(|| black_box(solve_comparesets_plus_with(&ctx, &params, &opts)))
        });
    }
    g.finish();
}

/// Memoized alternation against solving from scratch: the same
/// multi-sweep CompaReSetS+ solve with the per-item answer memos on (the
/// default) and off. Sweep 1 measures the memos' bookkeeping overhead;
/// sweeps >= 2 measure the payoff once regressions start repeating.
fn bench_alternation(c: &mut Criterion) {
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 8);
    let params = SelectParams::default();
    let mut g = c.benchmark_group("alternation");
    g.sample_size(10);
    for sweeps in 1..=4usize {
        for (label, warm) in [("cold", false), ("warm", true)] {
            let opts = SolveOptions::sequential().with_warm_start(warm);
            g.bench_function(format!("{label}/sweeps{sweeps}"), |bch| {
                bch.iter(|| {
                    black_box(solve_comparesets_plus_sweeps_with(
                        &ctx, &params, sweeps, &opts,
                    ))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_engine, bench_solvers, bench_alternation);

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

/// Minimum wall-clock of `samples` runs of `f`.
fn time_min(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn emit_json() {
    const SAMPLES: usize = 5;
    let mut measurements = Vec::new();

    for &(rows, cols) in &[(2_000usize, 40usize), (8_000, 60), (16_000, 80)] {
        let (_, sparse, b) = design(rows, cols, 8, 13);
        let l_max = 7;
        measurements.push(Measurement {
            name: format!("regression_engine/naive_per_budget/{rows}x{cols}"),
            seconds_min: time_min(SAMPLES, || naive_budget_sweep(&sparse, &b, l_max)),
            samples: SAMPLES,
        });
        measurements.push(Measurement {
            name: format!("regression_engine/shared_path/{rows}x{cols}"),
            seconds_min: time_min(SAMPLES, || shared_path_sweep(&sparse, &b, l_max)),
            samples: SAMPLES,
        });
    }

    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 8);
    let params = SelectParams::default();
    for (label, opts) in [
        ("sequential", SolveOptions::sequential()),
        ("parallel", SolveOptions::parallel()),
    ] {
        measurements.push(Measurement {
            name: format!("solver_parallel/crs/{label}"),
            seconds_min: time_min(SAMPLES, || {
                black_box(solve_crs_with(&ctx, params.m, &opts));
            }),
            samples: SAMPLES,
        });
        measurements.push(Measurement {
            name: format!("solver_parallel/comparesets_plus/{label}"),
            seconds_min: time_min(SAMPLES, || {
                black_box(solve_comparesets_plus_with(&ctx, &params, &opts));
            }),
            samples: SAMPLES,
        });
    }

    for sweeps in 1..=4usize {
        for (label, warm) in [("cold", false), ("warm", true)] {
            let opts = SolveOptions::sequential().with_warm_start(warm);
            measurements.push(Measurement {
                name: format!("alternation/{label}/sweeps{sweeps}"),
                seconds_min: time_min(SAMPLES, || {
                    black_box(solve_comparesets_plus_sweeps_with(
                        &ctx, &params, sweeps, &opts,
                    ));
                }),
                samples: SAMPLES,
            });
        }
    }

    let report = BenchReport {
        bench: "parallel_solver".to_string(),
        threads_available: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        measurements,
    };
    report.validate().expect("emitted report is well-formed");
    // CARGO_MANIFEST_DIR = crates/bench; the report lives at the workspace
    // root next to PERFORMANCE.md.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel_solver.json");
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("report written");
    println!("wrote {}", out.display());
}

fn main() {
    benches();
    // Smoke mode (CI) exercises every bench body once but must never
    // rewrite the committed baseline with throwaway numbers.
    if std::env::var_os("COMPARESETS_BENCH_SMOKE").is_none() {
        emit_json();
    }
}
