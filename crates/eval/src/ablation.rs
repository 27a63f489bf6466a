//! Ablation studies beyond the paper's tables (announced in DESIGN.md §4):
//!
//! 1. **Integer-Regression optimality gap** — how far the NOMP+rounding
//!    heuristic lands from the exhaustive per-item optimum of Equation 3
//!    (feasible only on small items; this is precisely the intractability
//!    the paper's heuristic exists to avoid).
//! 2. **Algorithm 1 sweep count** — Equation 5 objective after 1, 2, and
//!    3 alternating sweeps (the paper runs one).
//! 3. **Selection coherence** — aspect-set Jaccard across items per
//!    algorithm: the mechanism-level evidence that the μ coupling
//!    synchronizes selections (discussed in EXPERIMENTS.md).
//! 4. **Peeling heuristic** — the Asahiro-style vertex-peeling (+ swap
//!    local search) from related work §5.3, measured against the exact
//!    TargetHkS solver like Table 5 does for Algorithm 2.

use comparesets_core::{
    comparesets_plus_objective, item_objective, solve, solve_comparesets_plus_sweeps,
    solve_exhaustive_item, Algorithm, SelectParams,
};
use comparesets_data::CategoryPreset;
use comparesets_graph::{improve_by_swaps, solve_exact, solve_peeling, SimilarityGraph};
use comparesets_stats::bootstrap_mean_ci;

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::Table;
use crate::userstudy::selection_coherence;

/// Results of all four ablations (Cellphone, m = 3 unless noted).
#[derive(Debug, Clone)]
pub struct Ablation {
    /// (items checked, mean objective gap IR − oracle, share of items where
    /// IR attains the oracle optimum exactly).
    pub optimality: OptimalityGap,
    /// Equation-5 objective after 1, 2, 3 sweeps (mean over instances).
    pub sweep_objectives: [f64; 3],
    /// Mean aspect-set coherence per algorithm, [`Algorithm::ALL`] order,
    /// with a 95 % bootstrap CI half-width.
    pub coherence: Vec<(Algorithm, f64, f64)>,
    /// (peeling+swaps objective ratio vs exact %, greedy ratio vs exact %).
    pub peeling_ratio: f64,
    /// Greedy's ratio for reference (Table 5 reports it too).
    pub greedy_ratio: f64,
}

/// Optimality-gap measurement of ablation 1.
#[derive(Debug, Clone, Copy)]
pub struct OptimalityGap {
    /// Items small enough for exhaustive enumeration.
    pub items_checked: usize,
    /// Mean of (IR cost − oracle cost); ≥ 0 by optimality of the oracle.
    pub mean_gap: f64,
    /// Fraction of items where IR matched the oracle cost (±1e-9).
    pub exact_share: f64,
}

/// Run all ablations.
#[allow(clippy::needless_range_loop)] // index loops read clearest here
pub fn run(cfg: &EvalConfig) -> Ablation {
    let dataset = dataset_for(CategoryPreset::Cellphone, cfg);
    let instances = prepare_instances(&dataset, cfg);
    let params = SelectParams {
        m: cfg.ms.first().copied().unwrap_or(3),
        lambda: cfg.lambda,
        mu: cfg.mu,
    };

    // --- 1. optimality gap ------------------------------------------------
    let mut gaps = Vec::new();
    let mut exact_hits = 0usize;
    for inst in &instances {
        let approx = run_once(inst, Algorithm::CompareSets, &params, cfg.seed);
        for i in 0..inst.ctx.num_items() {
            // Keep enumeration cheap: skip items with too many reviews.
            if inst.ctx.item(i).num_reviews() > 18 {
                continue;
            }
            let Some(oracle) = solve_exhaustive_item(&inst.ctx, i, &params) else {
                continue;
            };
            let oc = item_objective(&inst.ctx, i, &oracle, params.lambda);
            let ac = item_objective(&inst.ctx, i, &approx[i], params.lambda);
            let gap = (ac - oc).max(0.0);
            if gap < 1e-9 {
                exact_hits += 1;
            }
            gaps.push(gap);
        }
    }
    let optimality = OptimalityGap {
        items_checked: gaps.len(),
        mean_gap: if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        },
        exact_share: if gaps.is_empty() {
            0.0
        } else {
            exact_hits as f64 / gaps.len() as f64
        },
    };

    // --- 2. sweep count -----------------------------------------------------
    let sweep_params = SelectParams { mu: 1.0, ..params };
    let mut sweep_objectives = [0.0f64; 3];
    for inst in &instances {
        for (si, sweeps) in [1usize, 2, 3].into_iter().enumerate() {
            let sels = solve_comparesets_plus_sweeps(&inst.ctx, &sweep_params, sweeps);
            sweep_objectives[si] +=
                comparesets_plus_objective(&inst.ctx, &sels, sweep_params.lambda, sweep_params.mu);
        }
    }
    for v in &mut sweep_objectives {
        *v /= instances.len().max(1) as f64;
    }

    // --- 3. coherence --------------------------------------------------------
    let coherence = Algorithm::ALL
        .iter()
        .map(|&alg| {
            let sols = run_algorithm_cfg(&instances, alg, &params, cfg);
            let values: Vec<f64> = instances
                .iter()
                .zip(sols.iter())
                .map(|(inst, sels)| {
                    let items: Vec<usize> = (0..inst.ctx.num_items()).collect();
                    selection_coherence(inst, sels, &items)
                })
                .collect();
            let ci = bootstrap_mean_ci(&values, 0.95, 1000, cfg.seed).unwrap_or(
                comparesets_stats::ConfidenceInterval {
                    low: 0.0,
                    estimate: 0.0,
                    high: 0.0,
                },
            );
            (alg, ci.estimate, (ci.high - ci.low) / 2.0)
        })
        .collect();

    // --- 4. peeling vs exact --------------------------------------------------
    let k = 3usize;
    let options = cfg.exact_options();
    let plus = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
    let mut omega_exact = 0.0;
    let mut omega_peel = 0.0;
    let mut omega_greedy = 0.0;
    for (inst, sels) in instances.iter().zip(plus.iter()) {
        if inst.ctx.num_items() <= k {
            continue;
        }
        let graph = SimilarityGraph::from_selections(&inst.ctx, sels, cfg.lambda, cfg.mu);
        omega_exact += solve_exact(&graph, 0, k, &options).weight;
        let peel = improve_by_swaps(&graph, &solve_peeling(&graph, Some(0), k), &[0]);
        omega_peel += graph.subgraph_weight(&peel);
        omega_greedy += graph.subgraph_weight(&comparesets_graph::solve_greedy(&graph, 0, k));
    }
    let ratio = |omega: f64| {
        if omega_exact == 0.0 {
            0.0
        } else {
            (omega - omega_exact) / omega_exact * 100.0
        }
    };

    Ablation {
        optimality,
        sweep_objectives,
        coherence,
        peeling_ratio: ratio(omega_peel),
        greedy_ratio: ratio(omega_greedy),
    }
}

fn run_once(
    inst: &crate::pipeline::PreparedInstance,
    alg: Algorithm,
    params: &SelectParams,
    seed: u64,
) -> Vec<comparesets_core::Selection> {
    solve(&inst.ctx, alg, params, seed)
}

impl Ablation {
    /// Render all four panels.
    pub fn render(&self) -> String {
        let mut out = String::from("Ablation studies (Cellphone, m = 3)\n");

        out.push_str(&format!(
            "\n1. Integer-Regression vs exhaustive optimum (Eq. 3, {} items):\n\
             \x20  mean objective gap {:.6}; exact optimum attained on {:.1}% of items\n",
            self.optimality.items_checked,
            self.optimality.mean_gap,
            self.optimality.exact_share * 100.0
        ));

        out.push_str(&format!(
            "\n2. Algorithm 1 sweeps (Eq. 5 objective, mu = 1): \
             1 sweep {:.4} | 2 sweeps {:.4} | 3 sweeps {:.4}\n",
            self.sweep_objectives[0], self.sweep_objectives[1], self.sweep_objectives[2]
        ));

        out.push_str("\n3. Selection coherence (aspect-set Jaccard across items):\n");
        let mut t = Table::new(["Algorithm", "coherence", "95% CI half-width"]);
        for (alg, mean, hw) in &self.coherence {
            t.row([
                alg.name().to_string(),
                format!("{mean:.3}"),
                format!("±{hw:.3}"),
            ]);
        }
        out.push_str(&t.render());

        out.push_str(&format!(
            "\n4. Core-list heuristics vs exact TargetHkS (objective ratio %):\n\
             \x20  Algorithm 2 greedy {:.5} | peeling+swaps {:.5}\n",
            self.greedy_ratio, self.peeling_ratio
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_has_expected_shapes() {
        let a = run(&EvalConfig::tiny());
        // 1. IR is near-optimal per item.
        assert!(a.optimality.items_checked > 0);
        assert!(
            a.optimality.mean_gap < 0.25,
            "gap {}",
            a.optimality.mean_gap
        );
        assert!(
            a.optimality.exact_share > 0.4,
            "share {}",
            a.optimality.exact_share
        );
        // 2. More sweeps never hurt the Eq. 5 objective.
        assert!(a.sweep_objectives[1] <= a.sweep_objectives[0] + 1e-9);
        assert!(a.sweep_objectives[2] <= a.sweep_objectives[1] + 1e-9);
        // 3. CompaReSetS+ is the most coherent method; Random the least.
        let coh: std::collections::HashMap<_, _> =
            a.coherence.iter().map(|(alg, m, _)| (*alg, *m)).collect();
        assert!(coh[&Algorithm::CompareSetsPlus] > coh[&Algorithm::Random]);
        assert!(coh[&Algorithm::CompareSetsPlus] >= coh[&Algorithm::Crs] - 0.02);
        // 4. Both heuristics are within a few percent of exact.
        assert!(a.greedy_ratio <= 1e-9 && a.greedy_ratio > -10.0);
        assert!(a.peeling_ratio <= 1e-9 && a.peeling_ratio > -25.0);
        assert!(a.render().contains("Ablation"));
    }
}
