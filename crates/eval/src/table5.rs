//! Table 5 — TargetHkS: exact-solver optimality rate and objective-value
//! ratios of the approximations (§4.3.1).
//!
//! Per dataset and k ∈ cfg.ms (the paper sets k = m): solve CompaReSetS+,
//! build the §3.1 similarity graph, then compare TargetHkS_Greedy and
//! Random against the exact solver under the time limit.
//! `Objective Value Ratio = (Ω_approx − Ω_exact) / Ω_exact` (Equation 8),
//! reported ×100 like the paper.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;
use comparesets_graph::{solve_exact, solve_greedy, solve_random_k, SimilarityGraph, SolveStatus};

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::Table;

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Dataset name.
    pub dataset: String,
    /// Subgraph size k.
    pub k: usize,
    /// Number of eligible instances (n > k).
    pub instances: usize,
    /// Percentage of instances the exact solver proved optimal within the
    /// time limit.
    pub pct_optimal: f64,
    /// (Ω_greedy − Ω_exact)/Ω_exact × 100.
    pub ratio_greedy: f64,
    /// (Ω_random − Ω_exact)/Ω_exact × 100.
    pub ratio_random: f64,
}

/// Full Table 5 results.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Rows in dataset-major, k-minor order.
    pub rows: Vec<Table5Row>,
}

/// Run the experiment.
pub fn run(cfg: &EvalConfig) -> Table5 {
    let mut rows = Vec::new();
    for &preset in &CategoryPreset::ALL {
        let dataset = dataset_for(preset, cfg);
        let instances = prepare_instances(&dataset, cfg);
        for &k in &cfg.ms {
            let params = SelectParams {
                m: k,
                lambda: cfg.lambda,
                mu: cfg.mu,
            };
            let sols = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
            // Only instances with more than k items pose a real choice.
            let work: Vec<(usize, SimilarityGraph)> = instances
                .iter()
                .zip(sols.iter())
                .enumerate()
                .filter(|(_, (inst, _))| inst.ctx.num_items() > k)
                .map(|(idx, (inst, sels))| {
                    (
                        idx,
                        SimilarityGraph::from_selections(&inst.ctx, sels, cfg.lambda, cfg.mu),
                    )
                })
                .collect();
            if work.is_empty() {
                continue;
            }
            let options = cfg.exact_options();
            let results: Vec<(f64, f64, f64, bool)> = work
                .iter()
                .map(|(idx, graph)| {
                    let exact = solve_exact(graph, 0, k, &options);
                    let greedy = solve_greedy(graph, 0, k);
                    let random = solve_random_k(graph, 0, k, cfg.seed.wrapping_add(*idx as u64));
                    (
                        exact.weight,
                        graph.subgraph_weight(&greedy),
                        graph.subgraph_weight(&random),
                        exact.status == SolveStatus::Optimal,
                    )
                })
                .collect();
            let n = results.len();
            let omega_exact: f64 = results.iter().map(|r| r.0).sum();
            let omega_greedy: f64 = results.iter().map(|r| r.1).sum();
            let omega_random: f64 = results.iter().map(|r| r.2).sum();
            let optimal = results.iter().filter(|r| r.3).count();
            let ratio = |omega: f64| {
                if omega_exact == 0.0 {
                    0.0
                } else {
                    (omega - omega_exact) / omega_exact * 100.0
                }
            };
            rows.push(Table5Row {
                dataset: preset.name().to_string(),
                k,
                instances: n,
                pct_optimal: optimal as f64 / n as f64 * 100.0,
                ratio_greedy: ratio(omega_greedy),
                ratio_random: ratio(omega_random),
            });
        }
    }
    Table5 { rows }
}

impl Table5 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Dataset",
            "k",
            "#Instances",
            "#Optimal Solution (%)",
            "Greedy ratio (%)",
            "Random ratio (%)",
        ]);
        for r in &self.rows {
            t.row([
                r.dataset.clone(),
                r.k.to_string(),
                r.instances.to_string(),
                format!("{:.2}", r.pct_optimal),
                format!("{:.5}", r.ratio_greedy),
                format!("{:.2}", r.ratio_random),
            ]);
        }
        format!(
            "Table 5: Performance ratios over exact TargetHkS (%)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Table5 {
        static RUN: std::sync::OnceLock<Table5> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn ratios_have_the_papers_shape() {
        let t5 = tiny_run();
        assert!(!t5.rows.is_empty());
        for r in &t5.rows {
            // At tiny scale the exact solver always finishes.
            assert_eq!(r.pct_optimal, 100.0, "{r:?}");
            // Greedy is near-optimal (|ratio| well under 1%); Random is
            // clearly worse (negative ratio).
            assert!(r.ratio_greedy <= 1e-9, "greedy ratio {r:?}");
            assert!(r.ratio_greedy > -5.0, "greedy ratio too bad {r:?}");
            assert!(
                r.ratio_random <= r.ratio_greedy + 1e-9,
                "random should not beat greedy on average {r:?}"
            );
        }
        assert!(t5.render().contains("Table 5"));
    }

    #[test]
    fn greedy_gap_is_much_smaller_than_random_gap() {
        let t5 = tiny_run();
        let mean_greedy: f64 =
            t5.rows.iter().map(|r| r.ratio_greedy.abs()).sum::<f64>() / t5.rows.len() as f64;
        let mean_random: f64 =
            t5.rows.iter().map(|r| r.ratio_random.abs()).sum::<f64>() / t5.rows.len() as f64;
        assert!(
            mean_random > mean_greedy,
            "random |{mean_random}| should exceed greedy |{mean_greedy}|"
        );
    }
}
