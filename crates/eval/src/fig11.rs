//! Figure 11 — information loss when selecting review subsets (§4.6.1),
//! CompaReSetS+ on Cellphone data:
//! (a) `Δ(τᵢ, π(Sᵢ))` and (b) `cos(τᵢ, π(Sᵢ))` as m grows, measured for
//! the target item alone and for all items.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;

use crate::config::EvalConfig;
use crate::metrics::{information_cosine, information_loss};
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::Table;

/// Review budgets swept on the x-axis.
pub const M_VALUES: [usize; 6] = [1, 2, 3, 5, 7, 10];

/// One measurement series.
#[derive(Debug, Clone)]
pub struct LossSeries {
    /// Mean Δ(τ, π(S)) per m — target item only.
    pub loss_target: Vec<f64>,
    /// Mean Δ(τ, π(S)) per m — all items.
    pub loss_all: Vec<f64>,
    /// Mean cosine per m — target item only.
    pub cos_target: Vec<f64>,
    /// Mean cosine per m — all items.
    pub cos_all: Vec<f64>,
}

/// Results of the experiment.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The measured series (Cellphone, CompaReSetS+).
    pub series: LossSeries,
}

/// Run the experiment.
#[allow(clippy::needless_range_loop)] // index loops read clearest here
pub fn run(cfg: &EvalConfig) -> Fig11 {
    let dataset = dataset_for(CategoryPreset::Cellphone, cfg);
    let instances = prepare_instances(&dataset, cfg);
    let mut series = LossSeries {
        loss_target: Vec::new(),
        loss_all: Vec::new(),
        cos_target: Vec::new(),
        cos_all: Vec::new(),
    };
    for &m in &M_VALUES {
        let params = SelectParams {
            m,
            lambda: cfg.lambda,
            mu: cfg.mu,
        };
        let sols = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
        let mut lt = Vec::new();
        let mut la = Vec::new();
        let mut ct = Vec::new();
        let mut ca = Vec::new();
        for (inst, sels) in instances.iter().zip(sols.iter()) {
            lt.push(information_loss(inst, 0, &sels[0]));
            ct.push(information_cosine(inst, 0, &sels[0]));
            for i in 0..inst.ctx.num_items() {
                la.push(information_loss(inst, i, &sels[i]));
                ca.push(information_cosine(inst, i, &sels[i]));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        series.loss_target.push(mean(&lt));
        series.loss_all.push(mean(&la));
        series.cos_target.push(mean(&ct));
        series.cos_all.push(mean(&ca));
    }
    Fig11 { series }
}

impl Fig11 {
    /// Render both panels.
    pub fn render(&self) -> String {
        let mut header = vec!["Measure".to_string()];
        header.extend(M_VALUES.iter().map(|m| format!("m={m}")));
        let mut t = Table::new(header);
        let mut push = |label: &str, vals: &[f64]| {
            let mut row = vec![label.to_string()];
            row.extend(vals.iter().map(|v| format!("{v:.4}")));
            t.row(row);
        };
        push("Delta(tau, pi(S)) target", &self.series.loss_target);
        push("Delta(tau, pi(S)) all items", &self.series.loss_all);
        push("cos(tau, pi(S)) target", &self.series.cos_target);
        push("cos(tau, pi(S)) all items", &self.series.cos_all);
        format!(
            "Figure 11: Information loss of CompaReSetS+ on Cellphone\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Fig11 {
        static RUN: std::sync::OnceLock<Fig11> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn loss_shrinks_and_cosine_grows_with_m() {
        let f11 = tiny_run();
        let s = &f11.series;
        assert_eq!(s.loss_target.len(), M_VALUES.len());
        // Shape fidelity (Figure 11's "clear trend"): loss at the largest m
        // is below loss at m = 1; cosine the reverse.
        assert!(
            s.loss_target.last().unwrap() <= &s.loss_target[0],
            "target loss {:?}",
            s.loss_target
        );
        assert!(
            s.loss_all.last().unwrap() <= &s.loss_all[0],
            "all-items loss {:?}",
            s.loss_all
        );
        assert!(s.cos_target.last().unwrap() >= &s.cos_target[0]);
    }

    #[test]
    fn all_items_lose_more_than_target() {
        // §4.6.1: comparative items' selections are skewed toward the
        // target item, so the all-items loss exceeds the target-only loss.
        let f11 = tiny_run();
        let s = &f11.series;
        let mean_t: f64 = s.loss_target.iter().sum::<f64>() / s.loss_target.len() as f64;
        let mean_a: f64 = s.loss_all.iter().sum::<f64>() / s.loss_all.len() as f64;
        assert!(mean_a >= mean_t * 0.5, "all {mean_a} vs target {mean_t}");
    }

    #[test]
    fn values_are_in_range() {
        let f11 = tiny_run();
        for v in f11.series.cos_target.iter().chain(&f11.series.cos_all) {
            assert!((0.0..=1.0 + 1e-9).contains(v));
        }
        for v in f11.series.loss_target.iter().chain(&f11.series.loss_all) {
            assert!(*v >= 0.0);
        }
        assert!(f11.render().contains("Figure 11"));
    }
}
