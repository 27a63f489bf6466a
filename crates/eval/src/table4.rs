//! Table 4 — generalisation beyond positive/negative opinions (§4.2.3):
//! ROUGE-L alignment between target and comparative items on Cellphone,
//! m = 3, for the binary, 3-polarity, and unary-scale opinion
//! definitions.

use comparesets_core::{Algorithm, OpinionScheme, SelectParams};
use comparesets_data::CategoryPreset;

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::{f2, Table};

/// Algorithms shown in Table 4 (Random is the reference mentioned in the
/// prose, included for context).
pub const TABLE4_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Random,
    Algorithm::Crs,
    Algorithm::CompareSetsGreedy,
    Algorithm::CompareSets,
    Algorithm::CompareSetsPlus,
];

/// Results: `rouge_l[scheme][algorithm]`.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Opinion schemes in Table 4 column order.
    pub schemes: Vec<OpinionScheme>,
    /// ROUGE-L (×100) per scheme per algorithm.
    pub rouge_l: Vec<Vec<f64>>,
}

/// Run the experiment (Cellphone, m = 3 as in the paper's narrative).
pub fn run(cfg: &EvalConfig) -> Table4 {
    let dataset = dataset_for(CategoryPreset::Cellphone, cfg);
    let m = cfg.ms.first().copied().unwrap_or(3);
    let params = SelectParams {
        m,
        lambda: cfg.lambda,
        mu: cfg.mu,
    };
    let schemes: Vec<OpinionScheme> = OpinionScheme::ALL.to_vec();
    let rouge_l = schemes
        .iter()
        .map(|&scheme| {
            let scheme_cfg = EvalConfig {
                scheme,
                ..cfg.clone()
            };
            let instances = prepare_instances(&dataset, &scheme_cfg);
            TABLE4_ALGORITHMS
                .iter()
                .map(|&alg| {
                    let sols = run_algorithm_cfg(&instances, alg, &params, cfg);
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
                .collect()
        })
        .collect();
    Table4 { schemes, rouge_l }
}

impl Table4 {
    /// Render in the paper's layout (rows = algorithms, columns = opinion
    /// definitions).
    pub fn render(&self) -> String {
        let mut header = vec!["Algorithm".to_string()];
        header.extend(self.schemes.iter().map(|s| s.name().to_string()));
        let mut t = Table::new(header);
        for (ai, alg) in TABLE4_ALGORITHMS.iter().enumerate() {
            let mut row = vec![alg.name().to_string()];
            for (si, _) in self.schemes.iter().enumerate() {
                row.push(f2(self.rouge_l[si][ai]));
            }
            t.row(row);
        }
        format!(
            "Table 4: Review alignment (ROUGE-L) across opinion definitions (Cellphone)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Table4 {
        static RUN: std::sync::OnceLock<Table4> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn covers_all_schemes_and_algorithms() {
        let t4 = tiny_run();
        assert_eq!(t4.schemes.len(), 3);
        assert_eq!(t4.rouge_l.len(), 3);
        for row in &t4.rouge_l {
            assert_eq!(row.len(), TABLE4_ALGORITHMS.len());
            for &v in row {
                assert!((0.0..=100.0).contains(&v));
            }
        }
        let text = t4.render();
        assert!(text.contains("binary"));
        assert!(text.contains("3-polarity"));
        assert!(text.contains("unary-scale"));
    }

    #[test]
    fn binary_comparesets_beats_random() {
        // Shape: under the default binary scheme the proposed methods beat
        // Random (Table 4's first column).
        let t4 = tiny_run();
        let binary = &t4.rouge_l[0];
        let random = binary[0];
        let plus = binary[4];
        assert!(plus >= random, "CompaReSetS+ {plus} < Random {random}");
    }
}
