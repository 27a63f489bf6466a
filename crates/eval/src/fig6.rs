//! Figure 6 — performance gap vs. number of reviews (§4.2.1–4.2.2).
//!
//! Instances are bucketed by the average number of candidate reviews per
//! item; within each bucket we plot the ROUGE-L gap of CompaReSetS+ over
//! Random and of CRS over Random, for (a) target-vs-comparatives and (b)
//! among-items alignment. The paper's expectation: the gap grows with the
//! number of reviews (more reviews → harder selection → more headroom).

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;

use crate::config::EvalConfig;
use crate::metrics::{alignment_among_items, alignment_target_vs_comparatives};
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg, PreparedInstance};
use crate::report::{f2, Table};

/// Review-count buckets (by average reviews per item in the instance).
pub const BUCKETS: [(usize, usize); 4] = [(1, 5), (6, 10), (11, 20), (21, usize::MAX)];

/// Gap series for one measure.
#[derive(Debug, Clone)]
pub struct GapSeries {
    /// Mean ROUGE-L gap of CompaReSetS+ over Random per bucket
    /// (`None` when a bucket is empty).
    pub plus_minus_random: Vec<Option<f64>>,
    /// Mean ROUGE-L gap of CRS over Random per bucket.
    pub crs_minus_random: Vec<Option<f64>>,
    /// Number of instances per bucket.
    pub bucket_counts: Vec<usize>,
}

/// Results of both panels, pooled over all categories.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Panel (a): target vs comparative items.
    pub target_vs_comp: GapSeries,
    /// Panel (b): among items.
    pub among_items: GapSeries,
}

fn avg_reviews(inst: &PreparedInstance) -> f64 {
    let n = inst.ctx.num_items();
    (0..n)
        .map(|i| inst.ctx.item(i).num_reviews() as f64)
        .sum::<f64>()
        / n as f64
}

fn bucket_of(avg: f64) -> usize {
    // Buckets are defined by their upper bounds; fractional averages fall
    // into the first bucket whose upper bound covers them.
    for (bi, &(_, hi)) in BUCKETS.iter().enumerate() {
        if avg <= hi as f64 {
            return bi;
        }
    }
    BUCKETS.len() - 1
}

/// Run the experiment.
pub fn run(cfg: &EvalConfig) -> Fig6 {
    let m = cfg.ms.first().copied().unwrap_or(3);
    let params = SelectParams {
        m,
        lambda: cfg.lambda,
        mu: cfg.mu,
    };
    // Per bucket: vectors of (plus-random, crs-random) gaps for each measure.
    let nb = BUCKETS.len();
    let mut gaps_a = vec![Vec::new(); nb];
    let mut gaps_a_crs = vec![Vec::new(); nb];
    let mut gaps_b = vec![Vec::new(); nb];
    let mut gaps_b_crs = vec![Vec::new(); nb];
    let mut counts = vec![0usize; nb];

    for &preset in &CategoryPreset::ALL {
        let dataset = dataset_for(preset, cfg);
        let instances = prepare_instances(&dataset, cfg);
        let plus = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
        let crs = run_algorithm_cfg(&instances, Algorithm::Crs, &params, cfg);
        let random = run_algorithm_cfg(&instances, Algorithm::Random, &params, cfg);
        for (idx, inst) in instances.iter().enumerate() {
            let b = bucket_of(avg_reviews(inst));
            counts[b] += 1;
            let rl = |sels: &[comparesets_core::Selection], among: bool| -> f64 {
                let t = if among {
                    alignment_among_items(inst, sels, None)
                } else {
                    alignment_target_vs_comparatives(inst, sels, None)
                };
                t.map(|x| x.rl).unwrap_or(0.0)
            };
            gaps_a[b].push(rl(&plus[idx], false) - rl(&random[idx], false));
            gaps_a_crs[b].push(rl(&crs[idx], false) - rl(&random[idx], false));
            gaps_b[b].push(rl(&plus[idx], true) - rl(&random[idx], true));
            gaps_b_crs[b].push(rl(&crs[idx], true) - rl(&random[idx], true));
        }
    }

    let mean = |v: &Vec<f64>| -> Option<f64> {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    Fig6 {
        target_vs_comp: GapSeries {
            plus_minus_random: gaps_a.iter().map(mean).collect(),
            crs_minus_random: gaps_a_crs.iter().map(mean).collect(),
            bucket_counts: counts.clone(),
        },
        among_items: GapSeries {
            plus_minus_random: gaps_b.iter().map(mean).collect(),
            crs_minus_random: gaps_b_crs.iter().map(mean).collect(),
            bucket_counts: counts,
        },
    }
}

impl Fig6 {
    /// Render both panels.
    pub fn render(&self) -> String {
        let render_panel = |title: &str, s: &GapSeries| {
            let mut t = Table::new([
                "#Reviews bucket",
                "#Instances",
                "CompaReSetS+ - Random",
                "Crs - Random",
            ]);
            for (bi, &(lo, hi)) in BUCKETS.iter().enumerate() {
                let label = if hi == usize::MAX {
                    format!("{lo}+")
                } else {
                    format!("{lo}-{hi}")
                };
                let fmt = |v: Option<f64>| v.map(f2).unwrap_or_else(|| "-".to_string());
                t.row([
                    label,
                    s.bucket_counts[bi].to_string(),
                    fmt(s.plus_minus_random[bi]),
                    fmt(s.crs_minus_random[bi]),
                ]);
            }
            format!("{title}\n\n{}", t.render())
        };
        format!(
            "{}\n{}",
            render_panel(
                "Figure 6a: ROUGE-L gap vs Random (target vs comparative items)",
                &self.target_vs_comp
            ),
            render_panel(
                "Figure 6b: ROUGE-L gap vs Random (among items)",
                &self.among_items
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Fig6 {
        static RUN: std::sync::OnceLock<Fig6> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn buckets_are_exhaustive() {
        assert_eq!(bucket_of(1.0), 0);
        assert_eq!(bucket_of(5.0), 0);
        assert_eq!(bucket_of(7.5), 1);
        assert_eq!(bucket_of(15.0), 2);
        assert_eq!(bucket_of(1000.0), 3);
        // Fractional averages between integer bounds join the next bucket.
        assert_eq!(bucket_of(5.5), 1);
    }

    #[test]
    fn produces_gap_series() {
        let f6 = tiny_run();
        assert_eq!(f6.target_vs_comp.plus_minus_random.len(), BUCKETS.len());
        let total: usize = f6.target_vs_comp.bucket_counts.iter().sum();
        assert!(total > 0);
        let text = f6.render();
        assert!(text.contains("Figure 6a"));
        assert!(text.contains("Figure 6b"));
    }

    #[test]
    fn pooled_gap_favours_comparesets_plus() {
        // Across all instances (pooling buckets), CompaReSetS+ − Random
        // should be positive on the target measure.
        let f6 = tiny_run();
        let s = &f6.target_vs_comp;
        let mut weighted = 0.0;
        let mut n = 0usize;
        for (bi, gap) in s.plus_minus_random.iter().enumerate() {
            if let Some(g) = gap {
                weighted += g * s.bucket_counts[bi] as f64;
                n += s.bucket_counts[bi];
            }
        }
        assert!(n > 0);
        assert!(
            weighted / n as f64 > -0.5,
            "pooled gap {}",
            weighted / n as f64
        );
    }
}
