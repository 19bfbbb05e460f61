//! Noise and jitter modeling for stochastic CDR analysis.
//!
//! The paper drives its CDR Markov model with two random processes:
//!
//! * `n_w` — zero-mean white noise modeling the *eye opening* of the
//!   incoming data (per-symbol uncorrelated timing jitter, usually
//!   Gaussian),
//! * `n_r` — a *nonzero-mean* white noise whose deterministic part models
//!   frequency drift and whose random part accumulates into a random walk;
//!   its probability density is "chosen to reflect SONET system
//!   specifications".
//!
//! This crate provides the continuous distributions, the moment-aware grid
//! [`discretize`](discretize::discretize) step that turns them into finite
//! probability mass functions on the phase-error grid (the paper:
//! "the discretization grid needs to be fine enough to accurately capture
//! the small jumps in phase error due to `n_r`"), the jitter specs
//! (dual-Dirac `n_w` with its Q-factor total jitter, frequency-offset
//! `n_r`), and the sampler for the Monte-Carlo baseline.
//!
//! # Example
//!
//! ```
//! use stochcdr_noise::dist::Gaussian;
//! use stochcdr_noise::discretize::discretize;
//!
//! // Discretize a N(0, 0.02 UI) jitter onto a 1/64-UI grid, ±6σ.
//! let g = Gaussian::new(0.0, 0.02);
//! let d = discretize(&g, 1.0 / 64.0, -0.12, 0.12);
//! assert!((d.total_mass() - 1.0).abs() < 1e-12);
//! assert!(d.mean_offset().abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod discretize;
pub mod dist;
mod error;
pub mod jitter;
pub mod sampling;
pub mod sonet;
pub mod special;

pub use discretize::DiscreteDist;
pub use error::{NoiseError, Result};
