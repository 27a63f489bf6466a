//! Shared fixtures for the criterion benches. DESIGN.md's per-experiment
//! index maps each bench target under `benches/` to the table or figure
//! of the paper whose workload it times.

pub mod schema;

pub use schema::{
    BenchReport, Measurement, ServeBenchReport, ServeMeasurement, StreamBenchReport,
    StreamMeasurement, TargetHksBenchReport, TargetHksCell,
};

use comparesets_core::{InstanceContext, OpinionScheme};
use comparesets_data::{CategoryPreset, Dataset};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let d = corpus();
        let ctx = instance(&d, 4);
        assert_eq!(ctx.num_items(), 5);
    }
}
