//! Table 7 — user-study analysis (§4.5): per-algorithm mean Likert scores
//! for Q1–Q3 and Krippendorff's α over the simulated annotator panel.
//!
//! Protocol (mirroring the paper): 3 examples per category (9 total);
//! each example's core list comes from exact TargetHkS (k = 3) over
//! CompaReSetS+ selections; Random, CRS, and CompaReSetS+ selections are
//! then presented blindly; 5 annotators rate each example.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;
use comparesets_graph::{solve_exact, SimilarityGraph};
use comparesets_stats::{krippendorff_alpha, Metric};

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::{f2, Table};
use crate::userstudy::{latent_utility, rate_example, NUM_ANNOTATORS};

/// Algorithms compared in the study, in Table 7 row order.
pub const STUDY_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Random,
    Algorithm::Crs,
    Algorithm::CompareSetsPlus,
];

/// One algorithm's study outcome.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Mean ratings for Q1, Q2, Q3.
    pub means: [f64; 3],
    /// Krippendorff's α (interval metric) over the algorithm's ratings;
    /// `None` when degenerate.
    pub alpha: Option<f64>,
}

/// Full Table 7 results.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// Rows in [`STUDY_ALGORITHMS`] order.
    pub rows: Vec<StudyRow>,
    /// Number of examples actually presented.
    pub num_examples: usize,
}

/// Run the simulated study.
pub fn run(cfg: &EvalConfig) -> Table7 {
    let k = 3usize;
    let params = SelectParams {
        m: k,
        lambda: cfg.lambda,
        mu: cfg.mu,
    };
    let options = cfg.exact_options();

    // Collect (example, per-algorithm latent utilities).
    let mut example_utilities = Vec::new();
    for &preset in &CategoryPreset::ALL {
        let dataset = dataset_for(preset, cfg);
        let instances = prepare_instances(&dataset, cfg);
        let plus = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
        let crs = run_algorithm_cfg(&instances, Algorithm::Crs, &params, cfg);
        let random = run_algorithm_cfg(&instances, Algorithm::Random, &params, cfg);
        let mut taken = 0;
        for (idx, inst) in instances.iter().enumerate() {
            if taken >= 3 {
                break;
            }
            if inst.ctx.num_items() <= k {
                continue;
            }
            // Core list from the exact solver over CompaReSetS+ selections.
            let graph = SimilarityGraph::from_selections(&inst.ctx, &plus[idx], cfg.lambda, cfg.mu);
            let core = solve_exact(&graph, 0, k, &options).vertices;
            let utilities = [
                latent_utility(inst, &random[idx], &core),
                latent_utility(inst, &crs[idx], &core),
                latent_utility(inst, &plus[idx], &core),
            ];
            example_utilities.push(utilities);
            taken += 1;
        }
    }

    // A 9-example, 5-raters-per-example study yields a very noisy α (the
    // paper itself notes the sample "is small and is insufficient for
    // performing statistical test"). Simulation lets us do what a human
    // study cannot: replicate the panel. We report Q-means and α averaged
    // over independent panel draws.
    const PANEL_REPLICATIONS: u64 = 20;
    let num_examples = example_utilities.len();
    let rows = STUDY_ALGORITHMS
        .iter()
        .enumerate()
        .map(|(ai, &algorithm)| {
            let mut sums = [0.0f64; 3];
            let mut counts = [0usize; 3];
            let mut alphas = Vec::new();
            for rep in 0..PANEL_REPLICATIONS {
                // Units for α: example × question, one panel per rep.
                let mut units: Vec<Vec<Option<f64>>> = Vec::new();
                for (ex, utilities) in example_utilities.iter().enumerate() {
                    let ratings = rate_example(
                        utilities[ai],
                        ex,
                        cfg.seed.wrapping_add(1000 + ai as u64 + 31 * rep),
                    );
                    for (qi, q) in ratings.ratings.iter().enumerate() {
                        debug_assert_eq!(q.len(), NUM_ANNOTATORS);
                        units.push(q.clone());
                        for v in q.iter().flatten() {
                            sums[qi] += v;
                            counts[qi] += 1;
                        }
                    }
                }
                if let Some(a) = krippendorff_alpha(&units, Metric::Interval) {
                    alphas.push(a);
                }
            }
            let means = std::array::from_fn(|qi| {
                if counts[qi] == 0 {
                    0.0
                } else {
                    sums[qi] / counts[qi] as f64
                }
            });
            let alpha = if alphas.is_empty() {
                None
            } else {
                Some(alphas.iter().sum::<f64>() / alphas.len() as f64)
            };
            StudyRow {
                algorithm,
                means,
                alpha,
            }
        })
        .collect();
    Table7 { rows, num_examples }
}

impl Table7 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Algorithm", "Q1", "Q2", "Q3", "Krippendorff's alpha"]);
        for r in &self.rows {
            t.row([
                r.algorithm.name().to_string(),
                f2(r.means[0]),
                f2(r.means[1]),
                f2(r.means[2]),
                r.alpha
                    .map(|a| format!("{a:.3}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        format!(
            "Table 7: Result analysis of user study ({} examples, {} simulated annotators)\n\n{}",
            self.num_examples,
            NUM_ANNOTATORS,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Table7 {
        static RUN: std::sync::OnceLock<Table7> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn study_produces_examples_and_rows() {
        let t7 = tiny_run();
        assert!(t7.num_examples > 0);
        assert_eq!(t7.rows.len(), 3);
        for r in &t7.rows {
            for m in r.means {
                assert!((1.0..=5.0).contains(&m), "{r:?}");
            }
        }
        assert!(t7.render().contains("Krippendorff"));
    }

    #[test]
    fn comparesets_plus_scores_at_least_random() {
        // Table 7 shape: CompaReSetS+ ≥ Random on every question.
        let t7 = tiny_run();
        let random = &t7.rows[0];
        let plus = &t7.rows[2];
        for qi in 0..3 {
            assert!(
                plus.means[qi] >= random.means[qi] - 0.15,
                "Q{}: plus {} vs random {}",
                qi + 1,
                plus.means[qi],
                random.means[qi]
            );
        }
    }
}
