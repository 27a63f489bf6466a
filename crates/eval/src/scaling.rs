//! Scalability experiment (§4.1.1's independence claim).
//!
//! "Solving multiple target items can be done in parallel. A larger
//! dataset … does not necessarily mean that the problem is more difficult
//! to solve, as we apply our solution to every problem instance, not the
//! whole dataset at once." This experiment measures the second half:
//! the mean per-instance cost of the full CompaReSetS+ pipeline at growing
//! corpus sizes, which must stay flat.
//!
//! It measures no parallel speedup: the suite solves its instances one
//! after another, so there is no parallel pass to time.

use comparesets_core::{solve_comparesets_plus_with, SelectParams};
use comparesets_data::CategoryPreset;
use std::time::Instant;

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances};
use crate::report::Table;

/// Corpus sizes swept (products per category).
pub const CORPUS_SIZES: [usize; 3] = [120, 240, 480];

/// One measurement row.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Products in the corpus.
    pub products: usize,
    /// Instances solved.
    pub instances: usize,
    /// Mean per-instance solve time (ms).
    pub ms_per_instance: f64,
}

/// Results of the sweep.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// The review budget every instance was solved with (the config's
    /// first `ms` entry).
    pub m: usize,
    /// One row per corpus size.
    pub rows: Vec<ScalingRow>,
}

/// Run the sweep on Cellphone-style corpora.
pub fn run(cfg: &EvalConfig) -> Scaling {
    let params = SelectParams {
        m: cfg.ms.first().copied().unwrap_or(3),
        lambda: cfg.lambda,
        mu: cfg.mu,
    };
    let rows = CORPUS_SIZES
        .iter()
        .map(|&products| {
            let size_cfg = EvalConfig {
                products_per_category: products,
                max_instances: cfg.max_instances,
                ..cfg.clone()
            };
            let dataset = dataset_for(CategoryPreset::Cellphone, &size_cfg);
            let instances = prepare_instances(&dataset, &size_cfg);
            let start = Instant::now();
            for inst in &instances {
                let _ = solve_comparesets_plus_with(&inst.ctx, &params, &cfg.solve_options);
            }
            ScalingRow {
                products,
                instances: instances.len(),
                ms_per_instance: start.elapsed().as_secs_f64() * 1000.0
                    / instances.len().max(1) as f64,
            }
        })
        .collect();
    Scaling { m: params.m, rows }
}

impl Scaling {
    /// Render the sweep table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["#Products", "#Instances", "ms/instance"]);
        for r in &self.rows {
            t.row([
                r.products.to_string(),
                r.instances.to_string(),
                format!("{:.2}", r.ms_per_instance),
            ]);
        }
        format!(
            "Scalability: per-instance cost vs corpus size (Cellphone, m = {})\n\n{}",
            self.m,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn per_instance_cost_stays_flat() {
        let mut cfg = EvalConfig::tiny();
        cfg.max_instances = 12;
        let metrics = std::sync::Arc::new(comparesets_core::SolverMetrics::new());
        cfg.solve_options.metrics = Some(std::sync::Arc::clone(&metrics));
        let s = run(&cfg);
        // The solves run under the suite's options.
        assert!(metrics.snapshot().integer_regressions > 0);
        assert_eq!(s.rows.len(), CORPUS_SIZES.len());
        for r in &s.rows {
            assert!(r.instances > 0);
            assert!(r.ms_per_instance >= 0.0);
        }
        // §4.1.1's claim: per-instance cost does not grow with corpus size
        // (instances are independent). Allow generous noise.
        let first = s.rows[0].ms_per_instance.max(0.01);
        let last = s.rows.last().unwrap().ms_per_instance;
        assert!(
            last < first * 6.0,
            "per-instance cost grew {first} -> {last}"
        );
        assert!(s.render().contains("Scalability"));
    }

    #[test]
    fn header_names_the_configured_budget() {
        let mut cfg = EvalConfig::tiny();
        cfg.ms = vec![5];
        cfg.max_instances = 2;
        let rendered = run(&cfg).render();
        let header = rendered.lines().next().unwrap();
        assert!(header.ends_with("(Cellphone, m = 5)"), "{header}");
    }
}
