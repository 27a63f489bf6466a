//! Table 3 — review-alignment comparison of all five selection
//! algorithms, m ∈ {3, 5, 10}, on every category.
//!
//! (a) alignment between the target item and the comparative items;
//! (b) alignment among all items. Stars mark the best method when a
//! paired t-test against the runner-up gives p < 0.05.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;
use comparesets_stats::paired_t_test;

use crate::config::EvalConfig;
use crate::metrics::{alignment_among_items, alignment_target_vs_comparatives, RougeTriple};
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::{f2_star, Table};

/// Per-instance alignment scores of one algorithm at one m.
#[derive(Debug, Clone)]
pub struct AlgoScores {
    /// Which algorithm produced these scores.
    pub algorithm: Algorithm,
    /// Per-instance Table 3a scores.
    pub target_vs_comp: Vec<RougeTriple>,
    /// Per-instance Table 3b scores.
    pub among: Vec<RougeTriple>,
}

impl AlgoScores {
    /// Mean Table 3a triple.
    pub fn mean_target(&self) -> RougeTriple {
        RougeTriple::mean(&self.target_vs_comp)
    }
    /// Mean Table 3b triple.
    pub fn mean_among(&self) -> RougeTriple {
        RougeTriple::mean(&self.among)
    }
}

/// All algorithms at one review budget m.
#[derive(Debug, Clone)]
pub struct MBlock {
    /// The review budget.
    pub m: usize,
    /// Scores in [`Algorithm::ALL`] order.
    pub algos: Vec<AlgoScores>,
}

/// One dataset's results.
#[derive(Debug, Clone)]
pub struct DatasetBlock {
    /// Category name.
    pub dataset: String,
    /// One block per m in `cfg.ms` order.
    pub ms: Vec<MBlock>,
}

/// Full Table 3 results.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One block per category.
    pub blocks: Vec<DatasetBlock>,
}

/// Which of the two table halves to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Table 3a.
    TargetVsComparatives,
    /// Table 3b.
    AmongItems,
}

/// Run the full experiment.
pub fn run(cfg: &EvalConfig) -> Table3 {
    let blocks = CategoryPreset::ALL
        .iter()
        .map(|&preset| {
            let dataset = dataset_for(preset, cfg);
            let instances = prepare_instances(&dataset, cfg);
            let ms = cfg
                .ms
                .iter()
                .map(|&m| {
                    let params = SelectParams {
                        m,
                        lambda: cfg.lambda,
                        mu: cfg.mu,
                    };
                    let algos = Algorithm::ALL
                        .iter()
                        .map(|&alg| {
                            let sols = run_algorithm_cfg(&instances, alg, &params, cfg);
                            let mut target_vs_comp = Vec::with_capacity(instances.len());
                            let mut among = Vec::with_capacity(instances.len());
                            for (inst, sels) in instances.iter().zip(sols.iter()) {
                                target_vs_comp.push(
                                    alignment_target_vs_comparatives(inst, sels, None)
                                        .unwrap_or_default(),
                                );
                                among.push(
                                    alignment_among_items(inst, sels, None).unwrap_or_default(),
                                );
                            }
                            AlgoScores {
                                algorithm: alg,
                                target_vs_comp,
                                among,
                            }
                        })
                        .collect();
                    MBlock { m, algos }
                })
                .collect();
            DatasetBlock {
                dataset: preset.name().to_string(),
                ms,
            }
        })
        .collect();
    Table3 { blocks }
}

/// Extract the per-instance series of one metric.
fn series(scores: &AlgoScores, measure: Measure, metric: usize) -> Vec<f64> {
    let src = match measure {
        Measure::TargetVsComparatives => &scores.target_vs_comp,
        Measure::AmongItems => &scores.among,
    };
    src.iter()
        .map(|t| match metric {
            0 => t.r1,
            1 => t.r2,
            _ => t.rl,
        })
        .collect()
}

/// For one (m, measure, metric) column: index of the best algorithm and
/// whether its lead over the runner-up is significant (p < 0.05).
pub fn best_and_star(block: &MBlock, measure: Measure, metric: usize) -> (usize, bool) {
    let means: Vec<f64> = block
        .algos
        .iter()
        .map(|a| {
            let s = series(a, measure, metric);
            if s.is_empty() {
                0.0
            } else {
                s.iter().sum::<f64>() / s.len() as f64
            }
        })
        .collect();
    let best = means
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let second = means
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i);
    let star = second
        .and_then(|s| {
            paired_t_test(
                &series(&block.algos[best], measure, metric),
                &series(&block.algos[s], measure, metric),
            )
        })
        .is_some_and(|r| r.significant_improvement(0.05));
    (best, star)
}

impl Table3 {
    /// Render one half of the table (a or b) in paper layout.
    pub fn render_measure(&self, measure: Measure) -> String {
        let title = match measure {
            Measure::TargetVsComparatives => "(a) Target Item vs Comparative Items",
            Measure::AmongItems => "(b) Among Items",
        };
        let mut header = vec!["Dataset".to_string(), "Algorithm".to_string()];
        if let Some(first) = self.blocks.first() {
            for mb in &first.ms {
                for metric in ["R-1", "R-2", "R-L"] {
                    header.push(format!("m={} {metric}", mb.m));
                }
            }
        }
        let mut t = Table::new(header);
        for block in &self.blocks {
            for (ai, &alg) in Algorithm::ALL.iter().enumerate() {
                let mut row = vec![block.dataset.clone(), alg.name().to_string()];
                for mb in &block.ms {
                    let mean = match measure {
                        Measure::TargetVsComparatives => mb.algos[ai].mean_target(),
                        Measure::AmongItems => mb.algos[ai].mean_among(),
                    };
                    for (metric, v) in [mean.r1, mean.r2, mean.rl].into_iter().enumerate() {
                        let (best, star) = best_and_star(mb, measure, metric);
                        row.push(f2_star(v, star && best == ai));
                    }
                }
                t.row(row);
            }
        }
        format!("Table 3{title}\n\n{}", t.render())
    }

    /// Render both halves.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}",
            self.render_measure(Measure::TargetVsComparatives),
            self.render_measure(Measure::AmongItems)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Table3 {
        static RUN: std::sync::OnceLock<Table3> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn produces_all_blocks() {
        let t3 = tiny_run();
        assert_eq!(t3.blocks.len(), 3);
        for b in &t3.blocks {
            assert_eq!(b.ms.len(), 1); // tiny config has ms = [3]
            assert_eq!(b.ms[0].algos.len(), 5);
            for a in &b.ms[0].algos {
                assert!(!a.target_vs_comp.is_empty());
                assert_eq!(a.target_vs_comp.len(), a.among.len());
            }
        }
    }

    #[test]
    fn comparesets_plus_wins_target_alignment() {
        // Shape fidelity: CompaReSetS+ must beat Random on ROUGE-L in the
        // target-vs-comparatives measure on every dataset.
        let t3 = tiny_run();
        for b in &t3.blocks {
            let mb = &b.ms[0];
            let plus = mb.algos[4].mean_target().rl; // CompaReSetS+
            let random = mb.algos[0].mean_target().rl;
            assert!(
                plus >= random,
                "{}: CompaReSetS+ {plus} < Random {random}",
                b.dataset
            );
        }
    }

    #[test]
    fn renders_both_halves() {
        let t3 = tiny_run();
        let text = t3.render();
        assert!(text.contains("(a) Target Item vs Comparative Items"));
        assert!(text.contains("(b) Among Items"));
        assert!(text.contains("CompaReSetS+"));
        assert!(text.contains("Random"));
    }

    #[test]
    fn best_and_star_is_well_formed() {
        let t3 = tiny_run();
        let mb = &t3.blocks[0].ms[0];
        let (best, _) = best_and_star(mb, Measure::TargetVsComparatives, 2);
        assert!(best < 5);
    }
}
