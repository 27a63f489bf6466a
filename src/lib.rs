//! # comparesets
//!
//! A from-scratch Rust reproduction of *"Selecting Comparative Sets of
//! Reviews Across Multiple Items"* (Le & Lauw, EDBT 2025): given a target
//! product and its comparison candidates, select at most `m` reviews per
//! product that are simultaneously **representative** of each product and
//! **aligned across products** for easy comparison, then narrow the
//! candidate list to the `k` most mutually similar items.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `comparesets-core` | CompaReSetS / CompaReSetS+ solvers, CRS, baselines, opinion schemes |
//! | [`graph`] | `comparesets-graph` | TargetHkS: exact branch-and-bound, greedy, baselines, HkS |
//! | [`data`] | `comparesets-data` | corpus model, synthetic Amazon-like generator, JSON IO |
//! | [`text`] | `comparesets-text` | tokenizer, ROUGE-1/2/L, sentiment lexicon, aspect extraction |
//! | [`linalg`] | `comparesets-linalg` | dense matrices, least squares, NNLS, NOMP |
//! | [`stats`] | `comparesets-stats` | paired t-test, Krippendorff's α |
//! | [`eval`] | `comparesets-eval` | harness regenerating every table and figure of the paper |
//! | [`efm`] | `comparesets-efm` | EFM-lite learned aspect preference vectors |
//!
//! ## Quickstart
//!
//! ```
//! use comparesets::data::CategoryPreset;
//! use comparesets::core::{InstanceContext, OpinionScheme, SelectParams};
//! use comparesets::graph::{solve_greedy, SimilarityGraph};
//!
//! // 1. A corpus (here: synthetic camera-accessory-style data).
//! let dataset = CategoryPreset::Cellphone.config(120, 7).generate();
//!
//! // 2. Pick a comparison instance: target product + also-bought items.
//! let instance = dataset.instances().into_iter().next().unwrap().truncated(6);
//! let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
//!
//! // 3. Select m = 3 comparative reviews per item (CompaReSetS+).
//! let params = SelectParams::default();
//! let selections = comparesets::core::solve_comparesets_plus(&ctx, &params);
//!
//! // 4. Narrow to the 3 most mutually similar items (TargetHkS).
//! let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
//! let core_list = solve_greedy(&graph, 0, 3);
//! assert_eq!(core_list[0], 0); // the target item always stays
//! ```

#![warn(missing_docs)]

/// The paper's core algorithms (re-export of `comparesets-core`).
pub use comparesets_core as core;
/// Corpus model and synthetic generator (re-export of `comparesets-data`).
pub use comparesets_data as data;
/// EFM-lite learned aspect preferences (re-export of `comparesets-efm`).
pub use comparesets_efm as efm;
/// Experiment harness (re-export of `comparesets-eval`).
pub use comparesets_eval as eval;
/// TargetHkS graph algorithms (re-export of `comparesets-graph`).
pub use comparesets_graph as graph;
/// Linear-algebra substrate (re-export of `comparesets-linalg`).
pub use comparesets_linalg as linalg;
/// Statistics substrate (re-export of `comparesets-stats`).
pub use comparesets_stats as stats;
/// Text metrics and aspect extraction (re-export of `comparesets-text`).
pub use comparesets_text as text;
