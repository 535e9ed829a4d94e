//! Sparse and dense linear-algebra substrate for Markov-chain ranking.
//!
//! This crate provides the numerical kernels that every ranking algorithm in
//! the workspace is built on:
//!
//! * [`DenseMatrix`] — small row-major dense matrices (used for the paper's
//!   worked example and for reference implementations in tests);
//! * [`CooMatrix`] / [`CsrMatrix`] — sparse matrices in triplet and
//!   compressed-sparse-row form, sized for web-scale link matrices;
//! * [`StochasticMatrix`] — a validated row-stochastic transition matrix with
//!   explicit bookkeeping of dangling (all-zero) rows;
//! * [`power_method_pool`] — a power-iteration engine over the
//!   [`LinearOperator`] abstraction, so both explicit CSR matrices and
//!   implicit factored operators (such as the Layered Markov Model's global
//!   transition) share one convergence loop, with all `O(n)` vector passes
//!   on an `lmm-par` thread pool;
//! * [`StationaryOperator`] — the pull-mode `y = Mᵀx` kernel: `Mᵀ` is
//!   materialized once and each step is a parallel row-wise gather with
//!   bit-identical results at any thread count;
//! * [`structure`] — reachability analysis: strongly connected components,
//!   periodicity, irreducibility and primitivity of transition matrices.
//!
//! # Example
//!
//! Computing the stationary distribution of a small primitive chain:
//!
//! ```
//! use lmm_linalg::{DenseMatrix, power::stationary_distribution, power::PowerOptions};
//!
//! # fn main() -> Result<(), lmm_linalg::LinalgError> {
//! let y = DenseMatrix::from_rows(&[
//!     vec![0.1, 0.3, 0.6],
//!     vec![0.2, 0.4, 0.4],
//!     vec![0.3, 0.5, 0.2],
//! ])?;
//! let csr = y.to_csr();
//! let (pi, report) = stationary_distribution(&csr, &PowerOptions::default())?;
//! assert!(report.converged);
//! assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod operator;
pub mod power;
pub mod stochastic;
pub mod structure;
pub mod vec_ops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{LinalgError, Result};
pub use operator::StationaryOperator;
pub use power::{power_method_pool, ConvergenceReport, LinearOperator, PowerOptions};
pub use stochastic::{DanglingPolicy, StochasticMatrix};
pub use structure::{is_primitive, period, StructureReport};
