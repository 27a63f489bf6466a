//! Figure 7 — average runtime with different numbers of comparative
//! items (§4.2.4), Cellphone data, m ∈ {3, 5, 10}.
//!
//! For each comparative-item count n we take instances with at least n
//! comparatives (truncated to exactly n) and time each algorithm. The
//! paper's shape: CRS and CompaReSetS stay near-flat; CompaReSetS+ grows
//! roughly linearly in n.

use comparesets_core::{solve_with, Algorithm, InstanceContext, SelectParams};
use comparesets_data::CategoryPreset;
use std::time::Instant;

use crate::config::EvalConfig;
use crate::report::Table;

/// Comparative-item counts swept on the x-axis.
pub const ITEM_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];

/// Algorithms timed in the figure.
pub const TIMED_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Random,
    Algorithm::Crs,
    Algorithm::CompareSetsGreedy,
    Algorithm::CompareSets,
    Algorithm::CompareSetsPlus,
];

/// Mean runtime (milliseconds) per algorithm per item count for one m.
#[derive(Debug, Clone)]
pub struct RuntimeSeries {
    /// Review budget.
    pub m: usize,
    /// `millis[a][c]` — mean runtime of algorithm `a` at item count
    /// `ITEM_COUNTS[c]` (`None` when no instance was large enough).
    pub millis: Vec<Vec<Option<f64>>>,
}

/// Results for all m values.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One series per m in `cfg.ms` order.
    pub series: Vec<RuntimeSeries>,
}

/// Run the experiment.
pub fn run(cfg: &EvalConfig) -> Fig7 {
    let dataset = dataset_for_runtime(cfg);
    let raw_instances = dataset.instances();
    let series = cfg
        .ms
        .iter()
        .map(|&m| {
            let params = SelectParams {
                m,
                lambda: cfg.lambda,
                mu: cfg.mu,
            };
            let millis = TIMED_ALGORITHMS
                .iter()
                .map(|&alg| {
                    ITEM_COUNTS
                        .iter()
                        .map(|&n_comp| {
                            let mut total = 0.0;
                            let mut count = 0usize;
                            for inst in raw_instances
                                .iter()
                                .filter(|i| i.comparatives().len() >= n_comp)
                                .take(cfg.max_instances.min(12))
                            {
                                let truncated = inst.truncated(n_comp);
                                let ctx = InstanceContext::build(&dataset, &truncated, cfg.scheme);
                                let start = Instant::now();
                                let _ =
                                    solve_with(&ctx, alg, &params, cfg.seed, &cfg.solve_options);
                                total += start.elapsed().as_secs_f64() * 1000.0;
                                count += 1;
                            }
                            if count == 0 {
                                None
                            } else {
                                Some(total / count as f64)
                            }
                        })
                        .collect()
                })
                .collect();
            RuntimeSeries { m, millis }
        })
        .collect();
    Fig7 { series }
}

fn dataset_for_runtime(cfg: &EvalConfig) -> comparesets_data::Dataset {
    crate::pipeline::dataset_for(CategoryPreset::Cellphone, cfg)
}

impl Fig7 {
    /// Render one table per m.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7: Average runtime (ms) vs #comparative items (Cellphone)\n");
        for s in &self.series {
            let mut header = vec!["Algorithm".to_string()];
            header.extend(ITEM_COUNTS.iter().map(|c| format!("n={c}")));
            let mut t = Table::new(header);
            for (ai, alg) in TIMED_ALGORITHMS.iter().enumerate() {
                let mut row = vec![alg.name().to_string()];
                for c in 0..ITEM_COUNTS.len() {
                    row.push(
                        s.millis[ai][c]
                            .map(|v| format!("{v:.2}"))
                            .unwrap_or_else(|| "-".to_string()),
                    );
                }
                t.row(row);
            }
            out.push_str(&format!("\nm = {}\n{}", s.m, t.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_runtime_grid() {
        let mut cfg = EvalConfig::tiny();
        cfg.max_comparatives = 10; // allow larger truncations
        let metrics = std::sync::Arc::new(comparesets_core::SolverMetrics::new());
        cfg.solve_options.metrics = Some(std::sync::Arc::clone(&metrics));
        let f7 = run(&cfg);
        // The timed solves run under the suite's options, so `--timeout`
        // and `--metrics-json` reach them.
        assert!(metrics.snapshot().integer_regressions > 0);
        assert_eq!(f7.series.len(), cfg.ms.len());
        for s in &f7.series {
            assert_eq!(s.millis.len(), TIMED_ALGORITHMS.len());
            for per_alg in &s.millis {
                assert_eq!(per_alg.len(), ITEM_COUNTS.len());
                for v in per_alg.iter().flatten() {
                    assert!(*v >= 0.0);
                }
            }
        }
        assert!(f7.render().contains("m = 3"));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index loops read clearest here
    fn comparesets_plus_slower_than_random() {
        // Shape: CompaReSetS+ costs at least as much as Random wherever
        // both were measured (Random is pure sampling).
        let f7 = run(&EvalConfig::tiny());
        let s = &f7.series[0];
        for c in 0..ITEM_COUNTS.len() {
            if let (Some(rand), Some(plus)) = (s.millis[0][c], s.millis[4][c]) {
                assert!(
                    plus >= rand * 0.5,
                    "n={}: plus {plus} vs random {rand}",
                    ITEM_COUNTS[c]
                );
            }
        }
    }
}
