//! Error type shared by the linear-algebra routines.
//!
//! Every fallible entry point of this crate returns a classified
//! [`LinalgError`] instead of panicking, so callers on the solve path
//! (Integer-Regression, the evaluation harness, the CLI) can isolate a
//! degenerate item rather than abort the whole batch. The taxonomy covers
//! the failure modes the fault-injection suite exercises: non-finite
//! input, dimension mismatch, rank deficiency (`Singular`), loss of
//! positive definiteness, and structurally invalid arguments. Iteration-cap
//! exhaustion is not an error: the NNLS solvers report it in their
//! diagnostics and return their best feasible iterate.

use std::fmt;

/// Errors produced by factorisations and solvers in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The input contained NaN or ±Inf. All entry points reject
    /// non-finite data up front so downstream code never has to reason
    /// about NaN propagation.
    NonFinite {
        /// Human-readable description of the operand that failed the scan.
        context: &'static str,
    },
    /// Operand shapes are incompatible (e.g. mat-vec with wrong length).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Shape or length that was expected.
        expected: usize,
        /// Shape or length that was provided.
        actual: usize,
    },
    /// The matrix is singular (or numerically indistinguishable from
    /// singular) at the given pivot.
    Singular {
        /// Index of the offending pivot/column.
        pivot: usize,
    },
    /// A matrix that must be positive definite is not.
    NotPositiveDefinite {
        /// Index of the pivot where positive definiteness failed.
        pivot: usize,
    },
    /// An argument was structurally invalid (empty matrix, zero budget, ...).
    InvalidArgument(&'static str),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NonFinite { context } => {
                write!(f, "non-finite value (NaN or Inf) in {context}")
            }
            LinalgError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite at pivot {pivot}")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch {
            context: "matvec",
            expected: 3,
            actual: 4,
        };
        assert!(e.to_string().contains("matvec"));
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('4'));

        assert!(LinalgError::Singular { pivot: 2 }.to_string().contains('2'));
        assert!(LinalgError::NotPositiveDefinite { pivot: 1 }
            .to_string()
            .contains("positive definite"));
        assert!(LinalgError::InvalidArgument("empty")
            .to_string()
            .contains("empty"));
        assert!(LinalgError::NonFinite {
            context: "nnls rhs"
        }
        .to_string()
        .contains("nnls rhs"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::Singular { pivot: 0 });
    }
}
