//! Dense vs. sparse NOMP on paper-scale design matrices.
//!
//! At the paper's z = 500, a CompaReSetS+ design matrix has thousands of
//! rows but only a handful of non-zeros per review column; this bench
//! quantifies the CSC speedup that keeps Integer-Regression fast there,
//! and sweeps a density grid to locate the dense/CSC crossover that
//! [`comparesets_core::DENSITY_CROSSOVER`] encodes for the `Auto`
//! backend rule.
//!
//! Besides the criterion console output, this bench writes
//! `BENCH_sparse.json` at the workspace root (the
//! `regression_engine/sparse/*` measurement family) so the sparse
//! speedup quoted in PERFORMANCE.md is reproducible from a single
//! `cargo bench --bench nomp_sparse`. The committed baseline is guarded
//! by `crates/bench/tests/schema.rs`, including the >=2x acceptance on
//! the 16 000x80 headline workload.
//!
//! Setting `COMPARESETS_BENCH_SMOKE=1` (see `just sparse-smoke`) runs
//! one sample of one iteration per workload and skips the JSON report,
//! so CI can exercise every bench body without touching the baseline.

use comparesets_bench::{BenchReport, Measurement};
use comparesets_core::SolveCtl;
use comparesets_linalg::{nomp_path, CscMatrix, DesignMatrix, Matrix, NompOptions, NompWorkspace};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// A tall sparse 0/1 design matrix: `rows` rows, `cols` columns, ~`nnz`
/// non-zeros per column.
#[allow(clippy::needless_range_loop)] // index loops read clearest here
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
    // Target: a blend of a few columns plus noise.
    let mut b = vec![0.0; rows];
    for j in 0..cols.min(3) {
        for (r, v) in columns[j].iter() {
            b[*r] += v;
        }
    }
    for v in &mut b {
        *v += rng.random_range(0.0..0.05);
    }
    (dense, sparse, b)
}

/// A 0/1 design with each entry present independently with probability
/// `density`: the generator behind the crossover sweep.
fn design_at_density(
    rows: usize,
    cols: usize,
    density: f64,
    seed: u64,
) -> (Matrix, CscMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(cols);
    for _ in 0..cols {
        let mut entries = Vec::new();
        for r in 0..rows {
            if rng.random_bool(density) {
                entries.push((r, 1.0));
            }
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

/// One unmetered budget-path pursuit on a fresh workspace.
fn pursue<M: DesignMatrix>(a: &M, b: &[f64], opts: NompOptions) {
    black_box(nomp_path(a, b, opts, &mut NompWorkspace::new(), SolveCtl::default()).unwrap());
}

fn bench_nomp(c: &mut Criterion) {
    let mut g = c.benchmark_group("nomp_dense_vs_sparse");
    g.sample_size(10);
    for &(rows, cols) in &[(1_000usize, 30usize), (8_000, 30), (16_000, 60)] {
        let (dense, sparse, b) = design(rows, cols, 8, 7);
        let opts = NompOptions::with_max_atoms(5);
        g.bench_with_input(
            BenchmarkId::new("dense", format!("{rows}x{cols}")),
            &dense,
            |bch, m| bch.iter(|| pursue(m, &b, opts)),
        );
        g.bench_with_input(
            BenchmarkId::new("sparse", format!("{rows}x{cols}")),
            &sparse,
            |bch, m| bch.iter(|| pursue(m, &b, opts)),
        );
    }
    g.finish();
}

/// Budget-path pursuit to the headline budget used across the bench
/// suite (`l_max = 7`, matching `parallel_solver`'s engine workloads).
const L_MAX: usize = 7;

fn path_sweep<M: DesignMatrix>(a: &M, b: &[f64]) {
    pursue(a, b, NompOptions::with_max_atoms(L_MAX));
}

/// The densities the crossover sweep visits: paper-sparse through fully
/// dense, bracketing the Auto rule's break-even.
const CROSSOVER_DENSITIES: [(u32, f64); 11] = [
    (5, 0.05),
    (10, 0.10),
    (15, 0.15),
    (20, 0.20),
    (25, 0.25),
    (30, 0.30),
    (40, 0.40),
    (50, 0.50),
    (65, 0.65),
    (80, 0.80),
    (100, 1.00),
];

/// Crossover sweep shape: tall enough that the correlation scans (the
/// kernels the backend choice swaps) dominate the pursuit.
const SWEEP_ROWS: usize = 4_000;
const SWEEP_COLS: usize = 64;

fn bench_sparse_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("regression_engine/sparse");
    g.sample_size(10);
    // Headline: the paper-shaped 16 000x80 task, ~8 non-zeros per column
    // (0.05% nnz, far under the 10% the acceptance quotes).
    let (dense, sparse, b) = design(16_000, 80, 8, 13);
    g.bench_with_input(BenchmarkId::new("dense", "16000x80"), &dense, |bch, m| {
        bch.iter(|| path_sweep(m, &b))
    });
    g.bench_with_input(BenchmarkId::new("csc", "16000x80"), &sparse, |bch, m| {
        bch.iter(|| path_sweep(m, &b))
    });
    // Crossover grid: both backends at each density.
    for &(pct, density) in &CROSSOVER_DENSITIES {
        let (dense, sparse, b) = design_at_density(SWEEP_ROWS, SWEEP_COLS, density, 29);
        g.bench_with_input(
            BenchmarkId::new("crossover/dense", format!("d{pct:02}")),
            &dense,
            |bch, m| bch.iter(|| path_sweep(m, &b)),
        );
        g.bench_with_input(
            BenchmarkId::new("crossover/csc", format!("d{pct:02}")),
            &sparse,
            |bch, m| bch.iter(|| path_sweep(m, &b)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_nomp, bench_sparse_engine);

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

    let (dense, sparse, b) = design(16_000, 80, 8, 13);
    measurements.push(Measurement {
        name: "regression_engine/sparse/dense/16000x80".to_string(),
        seconds_min: time_min(SAMPLES, || path_sweep(&dense, &b)),
        samples: SAMPLES,
    });
    measurements.push(Measurement {
        name: "regression_engine/sparse/csc/16000x80".to_string(),
        seconds_min: time_min(SAMPLES, || path_sweep(&sparse, &b)),
        samples: SAMPLES,
    });

    for &(pct, density) in &CROSSOVER_DENSITIES {
        let (dense, sparse, b) = design_at_density(SWEEP_ROWS, SWEEP_COLS, density, 29);
        measurements.push(Measurement {
            name: format!("regression_engine/sparse/crossover/dense/d{pct:02}"),
            seconds_min: time_min(SAMPLES, || path_sweep(&dense, &b)),
            samples: SAMPLES,
        });
        measurements.push(Measurement {
            name: format!("regression_engine/sparse/crossover/csc/d{pct:02}"),
            seconds_min: time_min(SAMPLES, || path_sweep(&sparse, &b)),
            samples: SAMPLES,
        });
    }

    let report = BenchReport {
        bench: "nomp_sparse".to_string(),
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
        .join("BENCH_sparse.json");
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
