//! Experiment configuration.
//!
//! The paper's corpora hold 10k–23k products; every target product is an
//! independent instance (§4.1.1), which the harness solves one after
//! another. The harness defaults to a laptop-scale slice — a few hundred
//! products per category and a bounded sample of instances — which
//! preserves every comparison the paper draws. Scale up with
//! [`EvalConfig::scaled`] or the `COMPARESETS_SCALE` environment variable
//! (1 = default, 10 ≈ paper-scale instance counts).

use comparesets_core::{OpinionScheme, SolveOptions};

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Products generated per category.
    pub products_per_category: usize,
    /// Cap on comparative items per instance (keeps CompaReSetS+ runtime
    /// proportional between scales; the paper uses the full also-bought
    /// list).
    pub max_comparatives: usize,
    /// Maximum number of instances evaluated per dataset.
    pub max_instances: usize,
    /// Master seed (datasets derive per-category seeds from it).
    pub seed: u64,
    /// Review budgets m to sweep (paper: {3, 5, 10}).
    pub ms: Vec<usize>,
    /// λ (paper's tuned value: 1).
    pub lambda: f64,
    /// μ (paper's tuned value: 0.1).
    pub mu: f64,
    /// Opinion scheme (paper default: binary).
    pub scheme: OpinionScheme,
    /// Exact-solver time limit in milliseconds (paper: 60 000).
    pub exact_time_limit_ms: u64,
    /// Solver execution options shared by every experiment solve: warm
    /// starts, the optional metrics collector (`run_suite` installs a
    /// fresh collector per experiment) and the optional cancellation
    /// token. Results are identical for every value of the first two —
    /// see `SolveOptions`.
    pub solve_options: SolveOptions,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            products_per_category: 240,
            max_comparatives: 12,
            max_instances: 60,
            seed: 42,
            ms: vec![3, 5, 10],
            lambda: 1.0,
            mu: 0.1,
            scheme: OpinionScheme::Binary,
            exact_time_limit_ms: 60_000,
            solve_options: SolveOptions::default(),
        }
    }
}

impl EvalConfig {
    /// A configuration scaled by an integer factor: `scaled(1)` is the
    /// default; larger factors grow corpora and instance samples linearly.
    pub fn scaled(factor: usize) -> Self {
        let factor = factor.max(1);
        let base = EvalConfig::default();
        EvalConfig {
            products_per_category: base.products_per_category * factor,
            max_instances: base.max_instances * factor,
            ..base
        }
    }

    /// Read the scale factor from `COMPARESETS_SCALE` (default 1).
    pub fn from_env() -> Self {
        let factor = std::env::var("COMPARESETS_SCALE")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1);
        Self::scaled(factor)
    }

    /// A small configuration for tests (fast but non-trivial). Instance
    /// counts are chosen so the paper's coarse orderings are stable
    /// despite the reduced sample.
    pub fn tiny() -> Self {
        EvalConfig {
            products_per_category: 120,
            max_comparatives: 5,
            max_instances: 20,
            seed: 7,
            ms: vec![3],
            exact_time_limit_ms: 10_000,
            ..EvalConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_tuning() {
        let c = EvalConfig::default();
        assert_eq!(c.ms, vec![3, 5, 10]);
        assert_eq!(c.lambda, 1.0);
        assert_eq!(c.mu, 0.1);
        assert_eq!(c.exact_time_limit_ms, 60_000);
    }

    #[test]
    fn scaling_multiplies_sizes() {
        let c = EvalConfig::scaled(3);
        let d = EvalConfig::default();
        assert_eq!(c.products_per_category, 3 * d.products_per_category);
        assert_eq!(c.max_instances, 3 * d.max_instances);
        // Factor 0 clamps to 1.
        assert_eq!(
            EvalConfig::scaled(0).products_per_category,
            d.products_per_category
        );
    }

    #[test]
    fn tiny_is_smaller() {
        let t = EvalConfig::tiny();
        let d = EvalConfig::default();
        assert!(t.products_per_category < d.products_per_category);
        assert!(t.max_instances < d.max_instances);
    }
}
