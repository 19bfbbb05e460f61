//! # stochcdr — stochastic performance evaluation of digital CDR circuits
//!
//! A from-scratch Rust reproduction of **Demir & Feldmann, “Stochastic
//! Modeling and Performance Evaluation for Digital Clock and Data Recovery
//! Circuits” (DATE 2000)**.
//!
//! Clock-and-data-recovery (CDR) circuits must meet bit-error-rate specs on
//! the order of 1e-10 — far beyond what transient simulation can verify.
//! The paper's method, implemented here:
//!
//! 1. model the digital phase-selection loop as a network of **finite state
//!    machines with stochastic inputs** (incoming data, eye-opening jitter
//!    `n_w`, drift jitter `n_r`),
//! 2. discretize phase error and noise onto a grid, producing one large
//!    **Markov chain** whose transition matrix is composed from the
//!    component FSMs,
//! 3. compute the **stationary distribution** with a dedicated
//!    **multigrid (aggregation/disaggregation) solver**, and
//! 4. read off performance: **BER** by integrating the tails of the
//!    stationary density of `Φ + n_w`, and the **mean time between cycle
//!    slips** by a first-passage computation.
//!
//! # Quickstart
//!
//! ```
//! use stochcdr::{CdrConfig, CdrModel, SolverChoice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CdrConfig::builder()
//!     .phases(16)
//!     .grid_refinement(4)
//!     .counter_len(8)
//!     .white_sigma_ui(0.02)
//!     .drift(5e-4, 8e-3)
//!     .build()?;
//! let model = CdrModel::new(config);
//! let chain = model.build_chain()?;
//! let analysis = chain.analyze(SolverChoice::Multigrid)?;
//! println!("states = {}, BER = {:.3e}", chain.state_count(), analysis.ber);
//! # Ok(())
//! # }
//! ```
//!
//! The crate layers:
//!
//! * [`CdrConfig`] — the design parameters (VCO phases, counter length,
//!   phase-detector dead zone, data statistics, jitter specs),
//! * [`CdrModel`] — builds the Markov chain, either through the generic
//!   [`stochcdr_fsm::CascadeNetwork`] (readable, mirrors the paper's
//!   Figure 2) or through an optimized direct assembler that marginalizes
//!   `n_w` analytically (identical output, asymptotically faster),
//! * [`CdrChain`] — the built chain with state-labeling accessors,
//! * [`analysis`] — stationary solve + BER + densities + cycle slips,
//! * [`monte_carlo`] — the brute-force simulator the paper argues cannot
//!   reach 1e-10, used here to cross-validate at high-BER points,
//! * [`report`] — paper-style figure annotations and ASCII density plots.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod acquisition;
pub mod analysis;
pub mod ber;
mod chain;
pub mod clock_jitter;
mod config;
pub mod cycle_slip;
pub mod data_model;
pub mod density;
mod error;
pub mod factors;
mod model;
pub mod monte_carlo;
pub mod product;
pub mod report;
mod stages;
pub mod theory;

pub use analysis::{CdrAnalysis, SolverChoice};
pub use chain::CdrChain;
pub use config::{CdrConfig, CdrConfigBuilder};
pub use data_model::DataModel;
pub use error::{CdrError, Result};
pub use factors::AssemblyFactors;
pub use model::CdrModel;
pub use product::{ProductChain, ProductSolve};
pub use stages::{DataSource, FilterKind, LoopCounter, PhaseAccumulator, PhaseDetector};
pub use stochcdr_markov::stationary::StationarySolver;
pub use stochcdr_multigrid::{CycleKind, MgPhases};
