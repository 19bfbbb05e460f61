//! Discrete-time Markov-chain analysis for the `stochcdr` workspace.
//!
//! This crate supplies the "standard Markov chain analysis" machinery the
//! paper (Demir & Feldmann, DATE 2000) relies on:
//!
//! * [`StochasticMatrix`] — a validated transition probability matrix (TPM),
//!   and [`StochasticOp`], the validated-chain interface the multigrid
//!   solver consumes (materialized, matrix-free, or a coarse level kept
//!   in factor form, [`FactoredChain`]),
//! * [`stationary`] — solvers for the stationary distribution `η P = η`:
//!   power iteration, (damped) Jacobi, Gauss–Seidel, and the direct GTH
//!   algorithm used at the coarsest multigrid level,
//! * [`passage`] — mean first-passage / absorption analysis (the paper's
//!   "mean time between cycle slips ... involves solving a linear system
//!   with the (modified) TPM"),
//! * [`classify`] — communicating classes, irreducibility and periodicity,
//! * [`lumping`] — weighted (weak) lumping of chains, the building
//!   block of aggregation/disaggregation multigrid,
//! * [`functional`] — expectations, marginals and autocorrelations of
//!   functions defined on the chain's state space.
//!
//! # Example
//!
//! ```
//! use stochcdr_linalg::CooMatrix;
//! use stochcdr_markov::{StochasticMatrix, stationary::{PowerIteration, StationarySolver}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 0.9);
//! coo.push(0, 1, 0.1);
//! coo.push(1, 0, 0.2);
//! coo.push(1, 1, 0.8);
//! let p = StochasticMatrix::new(coo.to_csr())?;
//! let eta = PowerIteration::default().solve(&p, None)?;
//! assert!((eta.distribution[0] - 2.0 / 3.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
mod error;
mod factored;
pub mod functional;
pub mod implicit;
pub mod lumping;
pub mod passage;
pub mod poisson;
pub mod simulate;
pub mod stationary;
mod stochastic;

pub use error::{MarkovError, Result};
pub use factored::FactoredChain;
pub use implicit::ImplicitStochastic;
pub use stochastic::{StochasticMatrix, StochasticOp};
