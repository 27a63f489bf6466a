//! Fixtures and the report writer shared by the bench targets under
//! `benches/`. Each target writes one committed `BENCH_*.json` at the
//! workspace root, and `tests/schema.rs` checks that file's acceptance
//! claim. Setting `COMPARESETS_BENCH_SMOKE=1` runs every bench body small
//! and writes nothing, so CI can exercise them without touching a
//! baseline.

pub mod schema;

pub use schema::{
    BenchReport, Measurement, ServeBenchReport, ServeMeasurement, StreamBenchReport,
    StreamMeasurement, TargetHksBenchReport, TargetHksCell,
};

use comparesets_core::{InstanceContext, OpinionScheme};
use comparesets_data::{CategoryPreset, Dataset};
use comparesets_serve::Request;
use serde::Serialize;
use std::path::Path;

/// A small deterministic Cellphone corpus.
pub fn corpus() -> Dataset {
    CategoryPreset::Cellphone.config(120, 99).generate()
}

/// A prepared instance with `n_comp` comparative items from the corpus.
///
/// # Panics
/// Panics when the corpus has no instance with that many comparatives.
pub fn instance(dataset: &Dataset, n_comp: usize) -> InstanceContext {
    let inst = dataset
        .instances()
        .into_iter()
        .find(|i| i.comparatives().len() >= n_comp)
        .expect("corpus contains a large enough instance")
        .truncated(n_comp);
    InstanceContext::build(dataset, &inst, OpinionScheme::Binary)
}

/// The serve and stream benches' query mix: distinct item-set × budget
/// solve shapes, cycled by every client. Small enough that a warm
/// server's cache holds them all; varied enough that a cold server does
/// real work per shape.
///
/// # Panics
/// Panics when the corpus yields fewer than four shapes.
pub fn query_pool(dataset: &Dataset) -> Vec<Request> {
    let mut pool = Vec::new();
    for inst in dataset.instances().into_iter().take(3) {
        let items: Vec<u32> = inst.truncated(4).items.iter().map(|p| p.0).collect();
        for m in [2usize, 3] {
            pool.push(Request {
                m: Some(m),
                ..Request::solve_items(items.clone())
            });
        }
    }
    assert!(pool.len() >= 4, "corpus yielded too few query shapes");
    pool
}

/// True when `COMPARESETS_BENCH_SMOKE` is set: run small, write nothing.
pub fn smoke() -> bool {
    std::env::var_os("COMPARESETS_BENCH_SMOKE").is_some()
}

/// `std::thread::available_parallelism()`, or 1 when it is unknown.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write `report` as one line of JSON to `file` at the workspace root,
/// next to PERFORMANCE.md. In smoke mode it writes nothing.
///
/// # Panics
/// Panics when the report does not serialize or the file cannot be
/// written.
pub fn write_report(file: &str, report: &impl Serialize) {
    if smoke() {
        println!("smoke mode: skipping {file}");
        return;
    }
    // CARGO_MANIFEST_DIR = crates/bench, two levels under the root.
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let json = serde_json::to_string(report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("report written");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let d = corpus();
        let ctx = instance(&d, 4);
        assert_eq!(ctx.num_items(), 5);
        assert!(query_pool(&d).len() >= 4);
    }
}
