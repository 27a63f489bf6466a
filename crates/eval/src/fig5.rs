//! Figure 5 — hyper-parameter sweeps (§4.1.4):
//! (a) ROUGE-L of CompaReSetS with λ ∈ {0.01, 0.1, 1, 10, 100};
//! (b) ROUGE-L of CompaReSetS+ (λ = 1) with μ in the same grid.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::{f2, Table};

/// The sweep grid the paper tunes over.
pub const GRID: [f64; 5] = [0.01, 0.1, 1.0, 10.0, 100.0];

/// One sweep series per dataset.
#[derive(Debug, Clone)]
pub struct SweepSeries {
    /// Dataset name.
    pub dataset: String,
    /// ROUGE-L (×100) per grid value, target-vs-comparatives alignment.
    pub rouge_l: Vec<f64>,
}

/// Results of both panels.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Panel (a): CompaReSetS λ sweep.
    pub lambda_sweep: Vec<SweepSeries>,
    /// Panel (b): CompaReSetS+ μ sweep at λ = 1.
    pub mu_sweep: Vec<SweepSeries>,
}

fn sweep(cfg: &EvalConfig, algorithm: Algorithm, vary_mu: bool) -> Vec<SweepSeries> {
    CategoryPreset::ALL
        .iter()
        .map(|&preset| {
            let dataset = dataset_for(preset, cfg);
            let instances = prepare_instances(&dataset, cfg);
            let m = cfg.ms.first().copied().unwrap_or(3);
            let rouge_l = GRID
                .iter()
                .map(|&v| {
                    let params = if vary_mu {
                        SelectParams {
                            m,
                            lambda: 1.0,
                            mu: v,
                        }
                    } else {
                        SelectParams {
                            m,
                            lambda: v,
                            mu: 0.0,
                        }
                    };
                    let sols = run_algorithm_cfg(&instances, algorithm, &params, cfg);
                    let scores: Vec<f64> = instances
                        .iter()
                        .zip(sols.iter())
                        .filter_map(|(inst, sels)| {
                            crate::metrics::alignment_target_vs_comparatives(inst, sels, None)
                        })
                        .map(|t| t.rl)
                        .collect();
                    if scores.is_empty() {
                        0.0
                    } else {
                        scores.iter().sum::<f64>() / scores.len() as f64
                    }
                })
                .collect();
            SweepSeries {
                dataset: preset.name().to_string(),
                rouge_l,
            }
        })
        .collect()
}

/// Run both sweeps.
pub fn run(cfg: &EvalConfig) -> Fig5 {
    Fig5 {
        lambda_sweep: sweep(cfg, Algorithm::CompareSets, false),
        mu_sweep: sweep(cfg, Algorithm::CompareSetsPlus, true),
    }
}

impl Fig5 {
    /// Render both panels as value tables (one row per dataset).
    pub fn render(&self) -> String {
        let render_panel = |title: &str, series: &[SweepSeries], param: &str| {
            let mut header = vec!["Dataset".to_string()];
            header.extend(GRID.iter().map(|g| format!("{param}={g}")));
            let mut t = Table::new(header);
            for s in series {
                let mut row = vec![s.dataset.clone()];
                row.extend(s.rouge_l.iter().map(|&v| f2(v)));
                t.row(row);
            }
            format!("{title}\n\n{}", t.render())
        };
        format!(
            "{}\n{}",
            render_panel(
                "Figure 5a: ROUGE-L of CompaReSetS with varying lambda",
                &self.lambda_sweep,
                "lambda"
            ),
            render_panel(
                "Figure 5b: ROUGE-L of CompaReSetS+ with varying mu (lambda=1)",
                &self.mu_sweep,
                "mu"
            )
        )
    }

    /// The λ value with the best mean ROUGE-L across datasets (the paper
    /// finds λ = 1).
    pub fn best_lambda(&self) -> f64 {
        best_of(&self.lambda_sweep)
    }

    /// The μ value with the best mean ROUGE-L across datasets (the paper
    /// finds μ = 0.1).
    pub fn best_mu(&self) -> f64 {
        best_of(&self.mu_sweep)
    }
}

fn best_of(series: &[SweepSeries]) -> f64 {
    let mut best = (f64::NEG_INFINITY, GRID[0]);
    for (gi, &g) in GRID.iter().enumerate() {
        let mean: f64 =
            series.iter().map(|s| s.rouge_l[gi]).sum::<f64>() / series.len().max(1) as f64;
        if mean > best.0 {
            best = (mean, g);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Fig5 {
        static RUN: std::sync::OnceLock<Fig5> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn sweeps_cover_grid_for_every_dataset() {
        let f5 = tiny_run();
        assert_eq!(f5.lambda_sweep.len(), 3);
        assert_eq!(f5.mu_sweep.len(), 3);
        for s in f5.lambda_sweep.iter().chain(&f5.mu_sweep) {
            assert_eq!(s.rouge_l.len(), GRID.len());
            for &v in &s.rouge_l {
                assert!((0.0..=100.0).contains(&v));
            }
        }
        let text = f5.render();
        assert!(text.contains("Figure 5a"));
        assert!(text.contains("Figure 5b"));
    }

    #[test]
    fn best_values_come_from_grid() {
        let f5 = tiny_run();
        assert!(GRID.contains(&f5.best_lambda()));
        assert!(GRID.contains(&f5.best_mu()));
    }
}
