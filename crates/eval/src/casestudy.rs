//! Case studies (Figures 8–10): for one instance per category, show the
//! top-3 most similar items (exact TargetHkS over CompaReSetS+
//! selections) together with their selected reviews — the qualitative
//! view of §4.4.

use comparesets_core::{Algorithm, SelectParams};
use comparesets_data::{CategoryPreset, Dataset};
use comparesets_graph::{solve_exact, SimilarityGraph};

use crate::config::EvalConfig;
use crate::pipeline::{dataset_for, prepare_instances, run_algorithm_cfg};

/// One product's display block.
#[derive(Debug, Clone)]
pub struct ProductCase {
    /// Product title.
    pub title: String,
    /// Selected review texts with star ratings.
    pub reviews: Vec<(u8, String)>,
}

/// One category's case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Category name.
    pub dataset: String,
    /// Size of the original candidate list.
    pub candidates: usize,
    /// The core products (target first).
    pub products: Vec<ProductCase>,
}

/// Run the case studies (one per category).
pub fn run(cfg: &EvalConfig) -> Vec<CaseStudy> {
    CategoryPreset::ALL
        .iter()
        .filter_map(|&preset| {
            let dataset = dataset_for(preset, cfg);
            case_for(&dataset, preset.name(), cfg)
        })
        .collect()
}

fn case_for(dataset: &Dataset, name: &str, cfg: &EvalConfig) -> Option<CaseStudy> {
    let k = 3usize;
    let params = SelectParams {
        m: 3,
        lambda: cfg.lambda,
        mu: cfg.mu,
    };
    let instances = prepare_instances(dataset, cfg);
    let sols = run_algorithm_cfg(&instances, Algorithm::CompareSetsPlus, &params, cfg);
    let options = cfg.exact_options();
    // Pick the first instance with more than k items.
    let (inst, sels) = instances
        .iter()
        .zip(sols.iter())
        .find(|(inst, _)| inst.ctx.num_items() > k)?;
    let graph = SimilarityGraph::from_selections(&inst.ctx, sels, cfg.lambda, cfg.mu);
    let exact = solve_exact(&graph, 0, k, &options);
    // Target first, then the rest of the core list.
    let mut order = exact.vertices.clone();
    order.sort_unstable();
    order.retain(|&v| v != 0);
    order.insert(0, 0);
    let products = order
        .iter()
        .map(|&i| {
            let item = inst.ctx.item(i);
            let product = dataset.product(item.product);
            let reviews = sels[i]
                .indices
                .iter()
                .map(|&r| {
                    let review = dataset.review(item.review_ids[r]);
                    (review.rating, review.text.clone())
                })
                .collect();
            ProductCase {
                title: product.title.clone(),
                reviews,
            }
        })
        .collect();
    Some(CaseStudy {
        dataset: name.to_string(),
        candidates: inst.ctx.num_items() - 1,
        products,
    })
}

/// Render all case studies as readable text.
pub fn render(cases: &[CaseStudy]) -> String {
    let mut out =
        String::from("Case studies (Figures 8-10): top-3 core items and their selected reviews\n");
    for c in cases {
        out.push_str(&format!(
            "\n=== {} (core 3 of {} candidate comparisons) ===\n",
            c.dataset, c.candidates
        ));
        for (pi, p) in c.products.iter().enumerate() {
            let role = if pi == 0 { "TARGET" } else { "COMPARATIVE" };
            out.push_str(&format!("\n[{role}] {}\n", p.title));
            for (stars, text) in &p.reviews {
                out.push_str(&format!("  {} {}\n", "*".repeat(*stars as usize), text));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-config run, shared by every test of this module: one run
    /// per test binary instead of one per test.
    fn tiny_run() -> &'static Vec<CaseStudy> {
        static RUN: std::sync::OnceLock<Vec<CaseStudy>> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(&EvalConfig::tiny()))
    }

    #[test]
    fn builds_three_cases_with_three_products_each() {
        let cases = tiny_run();
        assert_eq!(cases.len(), 3);
        for c in cases {
            assert_eq!(c.products.len(), 3);
            assert!(c.candidates >= 3);
            for p in &c.products {
                assert!(!p.reviews.is_empty());
                assert!(p.reviews.len() <= 3);
                for (stars, text) in &p.reviews {
                    assert!((1..=5).contains(stars));
                    assert!(!text.is_empty());
                }
            }
        }
    }

    #[test]
    fn render_shows_roles() {
        let cases = tiny_run();
        let text = render(cases);
        assert!(text.contains("[TARGET]"));
        assert!(text.contains("[COMPARATIVE]"));
    }
}
