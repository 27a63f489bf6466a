//! Statistics substrate for the CompaReSetS reproduction.
//!
//! The evaluation uses four statistical tools:
//!
//! * [`ttest`] — the paired t-test behind the significance stars of
//!   Table 3 ("*denotes statistically significant improvements over the
//!   second best approach (p-value < 0.05)").
//! * [`krippendorff`] — Krippendorff's α inter-annotator reliability for
//!   the user study (Table 7).
//! * [`bootstrap`] — percentile-bootstrap confidence intervals, behind
//!   the ablation's selection-coherence CIs.
//! * [`descriptive`] — means, standard deviations, standard errors.
//!
//! The t distribution CDF is computed via the regularised incomplete beta
//! function ([`special`]), implemented from scratch with a Lentz
//! continued-fraction evaluation.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod descriptive;
pub mod krippendorff;
pub mod special;
pub mod ttest;

pub use bootstrap::{bootstrap_ci, bootstrap_mean_ci, ConfidenceInterval};
pub use descriptive::{mean, sample_std, sem};
pub use krippendorff::{krippendorff_alpha, Metric};
pub use ttest::{paired_t_test, TTestResult};
