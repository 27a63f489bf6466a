//! Table 6 — review alignment after narrowing to the core list (§4.3.2).
//!
//! For parity, all core-list methods score the same CompaReSetS+ review
//! selections; they differ only in which k items survive. Methods:
//! Random, Top-k similarity, TargetHkS_Greedy, exact TargetHkS.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::CategoryPreset;
use comparesets_graph::{
    solve_exact, solve_greedy, solve_random_k, solve_top_k_similarity, SimilarityGraph,
};

use crate::config::EvalConfig;
use crate::metrics::{alignment_among_items, alignment_target_vs_comparatives, RougeTriple};
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};
use crate::report::{f2, Table};

/// The four core-list methods, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreListMethod {
    /// Target + k−1 random items.
    Random,
    /// k−1 items most similar to the target.
    TopKSimilarity,
    /// Algorithm 2.
    Greedy,
    /// Exact branch-and-bound (the ILP stand-in).
    Exact,
}

impl CoreListMethod {
    /// All methods, in Table 6 row order.
    pub const ALL: [CoreListMethod; 4] = [
        CoreListMethod::Random,
        CoreListMethod::TopKSimilarity,
        CoreListMethod::Greedy,
        CoreListMethod::Exact,
    ];

    /// Name as printed in Table 6.
    pub fn name(self) -> &'static str {
        match self {
            CoreListMethod::Random => "Random",
            CoreListMethod::TopKSimilarity => "Top-k similarity",
            CoreListMethod::Greedy => "TargetHkS_Greedy",
            CoreListMethod::Exact => "TargetHkS_ILP",
        }
    }
}

/// Mean alignment of one method at one (dataset, k).
#[derive(Debug, Clone)]
pub struct MethodAlignment {
    /// The core-list method.
    pub method: CoreListMethod,
    /// Mean Table 6a triple (target vs comparative items in ρ).
    pub target_vs_comp: RougeTriple,
    /// Mean Table 6b triple (among items of ρ).
    pub among: RougeTriple,
}

/// One (dataset, k) block.
#[derive(Debug, Clone)]
pub struct Table6Block {
    /// Dataset name.
    pub dataset: String,
    /// k = m.
    pub k: usize,
    /// Per-method means.
    pub methods: Vec<MethodAlignment>,
}

/// Full Table 6 results.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Blocks in dataset-major, k-minor order.
    pub blocks: Vec<Table6Block>,
}

/// Run the experiment.
pub fn run(cfg: &EvalConfig) -> Table6 {
    let mut blocks = Vec::new();
    let options = cfg.exact_options();
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
            let mut per_method: Vec<(Vec<RougeTriple>, Vec<RougeTriple>)> =
                vec![(Vec::new(), Vec::new()); CoreListMethod::ALL.len()];
            for (idx, (inst, sels)) in instances.iter().zip(sols.iter()).enumerate() {
                // Need more items than k for narrowing to be meaningful;
                // with n ≤ k every method returns everything.
                if inst.ctx.num_items() <= k {
                    continue;
                }
                let graph = SimilarityGraph::from_selections(&inst.ctx, sels, cfg.lambda, cfg.mu);
                for (mi, &method) in CoreListMethod::ALL.iter().enumerate() {
                    let subset: Vec<usize> = match method {
                        CoreListMethod::Random => {
                            solve_random_k(&graph, 0, k, cfg.seed.wrapping_add(idx as u64))
                        }
                        CoreListMethod::TopKSimilarity => solve_top_k_similarity(&graph, 0, k),
                        CoreListMethod::Greedy => solve_greedy(&graph, 0, k),
                        CoreListMethod::Exact => solve_exact(&graph, 0, k, &options).vertices,
                    };
                    if let Some(t) = alignment_target_vs_comparatives(inst, sels, Some(&subset)) {
                        per_method[mi].0.push(t);
                    }
                    if let Some(t) = alignment_among_items(inst, sels, Some(&subset)) {
                        per_method[mi].1.push(t);
                    }
                }
            }
            // Skip (dataset, k) combinations with no eligible instance —
            // e.g. k = 10 when the comparative-item cap keeps n ≤ k.
            if per_method.iter().all(|(tv, _)| tv.is_empty()) {
                continue;
            }
            let methods = CoreListMethod::ALL
                .iter()
                .zip(per_method)
                .map(|(&method, (tv, am))| MethodAlignment {
                    method,
                    target_vs_comp: RougeTriple::mean(&tv),
                    among: RougeTriple::mean(&am),
                })
                .collect();
            blocks.push(Table6Block {
                dataset: preset.name().to_string(),
                k,
                methods,
            });
        }
    }
    Table6 { blocks }
}

impl Table6 {
    /// Render both halves in paper layout.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 6: Review alignment measurement for core list of comparative items\n",
        );
        for (half, title) in [
            (0, "(a) Target Item vs Comparative Items"),
            (1, "(b) Among Items"),
        ] {
            let mut t = Table::new(["Dataset", "k=m", "Method", "R-1", "R-2", "R-L"]);
            for b in &self.blocks {
                for ma in &b.methods {
                    let triple = if half == 0 {
                        ma.target_vs_comp
                    } else {
                        ma.among
                    };
                    t.row([
                        b.dataset.clone(),
                        b.k.to_string(),
                        ma.method.name().to_string(),
                        f2(triple.r1),
                        f2(triple.r2),
                        f2(triple.rl),
                    ]);
                }
            }
            out.push_str(&format!("\n{title}\n{}", t.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Table6 {
        static RUN: std::sync::OnceLock<Table6> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn exact_and_greedy_beat_random_selection() {
        // Shape fidelity: averaged over all (dataset, k) blocks, the
        // similarity-optimising methods should not lose to random item
        // picks on among-items alignment. Per-block comparisons are too
        // noisy at the tiny test scale (≤ 8 instances per block).
        let t6 = tiny_run();
        assert!(!t6.blocks.is_empty());
        let mean_of = |mi: usize| -> f64 {
            t6.blocks
                .iter()
                .map(|b| b.methods[mi].among.rl)
                .sum::<f64>()
                / t6.blocks.len() as f64
        };
        let random = mean_of(0);
        let greedy = mean_of(2);
        let exact = mean_of(3);
        assert!(exact >= random - 1.0, "exact {exact} vs random {random}");
        assert!(greedy >= random - 1.0, "greedy {greedy} vs random {random}");
        for b in &t6.blocks {
            assert_eq!(b.methods.len(), 4);
        }
    }

    #[test]
    fn greedy_tracks_exact() {
        let t6 = tiny_run();
        for b in &t6.blocks {
            let greedy = &b.methods[2];
            let exact = &b.methods[3];
            assert!(
                (greedy.among.rl - exact.among.rl).abs() < 2.0,
                "{}/{}: greedy {} vs exact {}",
                b.dataset,
                b.k,
                greedy.among.rl,
                exact.among.rl
            );
        }
    }

    #[test]
    fn renders_paper_layout() {
        let t6 = tiny_run();
        let text = t6.render();
        assert!(text.contains("Top-k similarity"));
        assert!(text.contains("TargetHkS_ILP"));
        assert!(text.contains("(b) Among Items"));
    }
}
