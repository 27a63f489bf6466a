//! Typed errors for the core solve path.
//!
//! The checked solver entry points (`solve_checked`, `solve_crs_checked`,
//! `solve_comparesets_checked`, `solve_comparesets_plus_checked`) report
//! failures through [`CoreError`] instead of panicking. Batch solvers
//! isolate failures per item: a degenerate item yields an `Err` in its
//! slot of the result vector while every other item still solves — one
//! bad item never poisons the batch. See ARCHITECTURE.md ("Error handling
//! & degradation policy").

use std::fmt;

use comparesets_linalg::LinalgError;

use crate::instance::Selection;

/// Errors produced by the core selection solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A solver parameter was structurally invalid (m = 0, NaN weights, …).
    InvalidParams(&'static str),
    /// Operand shapes are incompatible (target/block dimension mismatch).
    DimensionMismatch {
        /// Human-readable description of the check that failed.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// The numerical solver failed on one item's regression.
    Solver {
        /// Index of the item whose regression failed.
        item: usize,
        /// The underlying classified linear-algebra error.
        source: LinalgError,
    },
    /// The solve's cancellation token fired (explicit cancel or deadline
    /// expiry) before the solver finished refining.
    ///
    /// This is a *soft* failure with anytime semantics: `best_so_far`
    /// carries one feasible selection per item — the state the solve had
    /// reached when it observed the fired token (items whose own
    /// regression failed hard contribute an empty selection). The work is
    /// never discarded; the caller decides whether a partially refined
    /// answer is acceptable.
    DeadlineExceeded {
        /// Best feasible per-item selections at the moment of expiry.
        best_so_far: Vec<Selection>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParams(msg) => write!(f, "invalid solver parameters: {msg}"),
            CoreError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            CoreError::Solver { item, source } => {
                write!(f, "solver failed on item {item}: {source}")
            }
            CoreError::DeadlineExceeded { best_so_far } => {
                write!(
                    f,
                    "deadline exceeded; best-so-far selections for {} items available",
                    best_so_far.len()
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Solver { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_item_and_cause() {
        let e = CoreError::Solver {
            item: 7,
            source: LinalgError::NonFinite {
                context: "nomp rhs",
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("item 7"));
        assert!(msg.contains("nomp rhs"));
    }

    #[test]
    fn source_chains_to_linalg() {
        use std::error::Error;
        let e = CoreError::Solver {
            item: 0,
            source: LinalgError::Singular { pivot: 1 },
        };
        assert!(e.source().is_some());
        assert!(CoreError::InvalidParams("m").source().is_none());
    }

    #[test]
    fn validate_params_classifies_bad_values() {
        let ok = crate::SelectParams::default();
        assert!(ok.validate().is_ok());
        let mut bad = ok;
        bad.m = 0;
        assert!(matches!(bad.validate(), Err(CoreError::InvalidParams(_))));
        let mut bad = ok;
        bad.lambda = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.lambda = -1.0;
        assert!(matches!(bad.validate(), Err(CoreError::InvalidParams(_))));
        let mut bad = ok;
        bad.mu = f64::INFINITY;
        assert!(bad.validate().is_err());
    }
}
