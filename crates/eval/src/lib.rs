//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each experiment lives in its own module returning structured results
//! and renders the paper-style table; [`harness`] registers every one of
//! them, and `comparesets eval` runs the paper's eleven by default or any
//! named subset (`--experiments table3,ablation`). The harness runs on
//! synthetic corpora from `comparesets-data` (see DESIGN.md for the
//! substitution rationale) and asserts *shape* fidelity, not absolute
//! numbers:
//!
//! | Module       | Reproduces |
//! |--------------|------------|
//! | [`table2`]   | Table 2 — data statistics |
//! | [`table3`]   | Table 3 — review alignment, 5 algorithms × m ∈ {3,5,10} |
//! | [`table4`]   | Table 4 — opinion definitions (binary / 3-polarity / unary-scale) |
//! | [`table5`]   | Table 5 — TargetHkS optimality and objective-value ratios |
//! | [`table6`]   | Table 6 — review alignment after core-list narrowing |
//! | [`table7`]   | Table 7 — simulated user study + Krippendorff's α |
//! | [`fig5`]     | Figure 5 — λ and μ sweeps |
//! | [`fig6`]     | Figure 6 — performance gap vs. review count |
//! | [`fig7`]     | Figure 7 — runtime vs. number of comparative items |
//! | [`fig11`]    | Figure 11 — information loss vs. m |
//! | [`casestudy`]| Figures 8–10 — selected review sets for one instance |
//! | [`ablation`] | Beyond the paper — optimality gap, sweep count, coherence, peeling (run when named) |
//! | [`scaling`]  | Beyond the paper — per-instance cost vs. corpus size (run when named) |

#![warn(missing_docs)]

pub mod ablation;
pub mod casestudy;
pub mod checkpoint;
pub mod config;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod harness;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod userstudy;

pub use checkpoint::{CheckpointStore, Resume, SuiteCheckpoint};
pub use config::EvalConfig;
pub use harness::{
    run_suite, select_experiments, Experiment, ExperimentOutcome, ExperimentTiming, SuiteReport,
};
pub use metrics::RougeTriple;
pub use pipeline::PreparedInstance;
