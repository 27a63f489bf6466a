//! Dense vs. sparse NOMP on paper-scale design matrices.
//!
//! At the paper's z = 500, a CompaReSetS+ design matrix has thousands of
//! rows but only a handful of non-zeros per review column. This bench
//! prices the CSC kernels that every regression in `comparesets-core`
//! builds against the dense `Matrix` oracle on two designs: the
//! paper-shaped 16 000×80 headline (~8 non-zeros per column) and a
//! 4 000×64 design at 5% density, the density closest to a real task's.
//!
//! `cargo bench --bench nomp_sparse` writes `BENCH_sparse.json` at the
//! workspace root (minimum over five samples per row);
//! `crates/bench/tests/schema.rs` checks that CSC is at least 2× faster
//! than dense on both rows. `COMPARESETS_BENCH_SMOKE=1` takes one sample
//! per row and writes nothing.

use comparesets_bench::{BenchReport, Measurement};
use comparesets_core::SolveCtl;
use comparesets_linalg::{nomp_path, CscMatrix, DesignMatrix, Matrix, NompWorkspace};
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
    let sparse = CscMatrix::from_columns(rows, columns);
    (sparse.to_dense(), sparse, b)
}

/// A 0/1 design with each entry present independently with probability
/// `density`.
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
    let mut b = vec![0.0; rows];
    for column in columns.iter().take(3) {
        for (r, v) in column {
            b[*r] += v;
        }
    }
    for v in &mut b {
        *v += rng.random_range(0.0..0.05);
    }
    let sparse = CscMatrix::from_columns(rows, columns);
    (sparse.to_dense(), sparse, b)
}

/// One unmetered budget-path pursuit to `l_max = 7` on a fresh workspace.
fn path_sweep<M: DesignMatrix>(a: &M, b: &[f64]) {
    black_box(nomp_path(a, b, 7, &mut NompWorkspace::new(), SolveCtl::default()).unwrap());
}

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

fn main() {
    let samples = if comparesets_bench::smoke() { 1 } else { 5 };
    // The 5% row keeps its name from the retired density grid.
    let rows = [
        (
            "regression_engine/sparse",
            "16000x80",
            design(16_000, 80, 8, 13),
        ),
        (
            "regression_engine/sparse/crossover",
            "d05",
            design_at_density(4_000, 64, 0.05, 29),
        ),
    ];
    let mut measurements = Vec::new();
    for (family, shape, (dense, sparse, b)) in &rows {
        for (backend, seconds_min) in [
            ("dense", time_min(samples, || path_sweep(dense, b))),
            ("csc", time_min(samples, || path_sweep(sparse, b))),
        ] {
            let m = Measurement {
                name: format!("{family}/{backend}/{shape}"),
                seconds_min,
                samples,
            };
            println!("{}: {:.6}s", m.name, m.seconds_min);
            measurements.push(m);
        }
    }

    let report = BenchReport {
        bench: "nomp_sparse".to_string(),
        threads_available: comparesets_bench::threads_available(),
        measurements,
    };
    report.validate().expect("emitted report is well-formed");
    comparesets_bench::write_report("BENCH_sparse.json", &report);
}
