//! Dense linear-algebra substrate for the CompaReSetS reproduction.
//!
//! The Integer-Regression algorithm at the heart of CompaReSetS (Lappas et
//! al.'s CRS generalised to multiple items) repeatedly solves small dense
//! least-squares problems under a non-negativity constraint and a sparsity
//! budget. This crate provides everything those solvers need, implemented
//! from scratch so the reproduction has no opaque numerical dependencies:
//!
//! * [`Matrix`] — a row-major dense matrix with the handful of operations
//!   the selection algorithms use (mat-vec, transpose-vec, column access).
//! * [`qr`] — Householder QR factorisation and least-squares solve.
//! * [`cholesky`] — Cholesky factorisation for normal-equation solves,
//!   including [`cholesky::solve_gram_system`] for callers that maintain
//!   the Gram matrix themselves.
//! * [`mod@nnls`] — Lawson–Hanson non-negative least squares, in design space
//!   ([`nnls::nnls`]) and in normal-equation space ([`nnls::nnls_gram`]).
//! * [`mod@nomp`] — non-negative orthogonal matching pursuit, the continuous
//!   relaxation solver referenced as `NOMP` in Algorithm 1 of the paper.
//!   The engine caches the active-set Gram matrix incrementally and can
//!   return the whole budget path ℓ = 1…m from a single pursuit
//!   ([`nomp::nomp_path`]).
//! * [`vector`] — free functions on `&[f64]` slices (dot products, norms,
//!   the squared-Euclidean distance Δ of Equation 2, cosine similarity).
//!
//! All routines are deterministic and allocation-conscious: solvers accept
//! externally owned scratch where it matters ([`NompWorkspace`]), and the
//! matrix type exposes column views without copying.
//!
//! Every fallible entry point returns a classified [`SolveError`] (an alias
//! of [`LinalgError`]) instead of panicking; see `error` for the taxonomy
//! and ARCHITECTURE.md ("Error handling & degradation policy") for the
//! degradation ladder the solvers apply before reporting failure.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cholesky;
pub mod error;
pub mod matrix;
pub mod nnls;
pub mod nomp;
pub mod qr;
pub mod sparse;
pub mod vector;

pub use cholesky::{solve_gram_system, solve_gram_system_with};
pub use error::{LinalgError, SolveError};
pub use matrix::Matrix;
pub use nnls::{
    nnls, nnls_capped, nnls_gram, nnls_gram_capped, nnls_gram_capped_ctl, nnls_gram_capped_with,
    NnlsDiagnostics,
};
pub use nomp::{nomp_path, nomp_reference, NompResult, NompWorkspace};
pub use qr::lstsq;
pub use sparse::{CscMatrix, DesignMatrix};
