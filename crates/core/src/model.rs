//! Model assembly: from a [`CdrConfig`] to the joint Markov chain.

use std::time::Instant;

use stochcdr_obs as obs;

use stochcdr_fsm::{build_rows, CascadeNetwork};
use stochcdr_linalg::CsrMatrix;
use stochcdr_markov::StochasticMatrix;

use crate::factors::{AssemblyFactors, SkeletonEntry};
use crate::stages::{offset_of_bin, DataSource, LoopCounter, PhaseAccumulator, PhaseDetector};
use crate::{CdrChain, CdrConfig, Result};

/// Builds the joint Markov chain of a CDR configuration.
///
/// Two construction paths produce **bit-identical** transition matrices
/// (asserted by tests):
///
/// * [`network`](Self::network) — the generic
///   [`CascadeNetwork`] mirroring the paper's Figure 2; it enumerates every
///   joint noise outcome and is the readable reference,
/// * [`build_chain`](Self::build_chain) — a direct assembler that
///   marginalizes `n_w` analytically: the white jitter influences the next
///   state only through the ternary phase-detector decision, so its
///   (possibly hundreds of) support points collapse into three tail sums
///   per `(phase, transition)` pair. Row fan-out drops from
///   `O(|n_w| · |n_r|)` to `O(3 · |n_r|)`, which is what makes
///   million-state models buildable.
#[derive(Debug, Clone)]
pub struct CdrModel {
    config: CdrConfig,
}

impl CdrModel {
    /// Creates a model for the given configuration.
    pub fn new(config: CdrConfig) -> Self {
        CdrModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CdrConfig {
        &self.config
    }

    /// The Figure-2 cascade network (reference construction path).
    pub fn network(&self) -> CascadeNetwork {
        CascadeNetwork::new(vec![
            Box::new(DataSource::new(&self.config)),
            Box::new(PhaseDetector::new(&self.config)),
            Box::new(LoopCounter::new(&self.config)),
            Box::new(PhaseAccumulator::new(&self.config)),
        ])
    }

    /// Builds the chain through the generic network path.
    ///
    /// Cost is `O(states · |supp(n_w)| · |supp(n_r)|)`; use
    /// [`build_chain`](Self::build_chain) for anything large.
    ///
    /// # Errors
    ///
    /// Propagates TPM-validation errors (row mass drift).
    pub fn build_chain_via_network(&self) -> Result<CdrChain> {
        let _span = obs::span("core.build_chain");
        let start = Instant::now();
        let net = self.network();
        let tpm = net.build_tpm()?;
        self.finish_chain(tpm, &AssemblyFactors::compute(&self.config), start)
    }

    /// Builds the chain with analytic `n_w` marginalization (the fast
    /// path).
    ///
    /// The decision tails, data branches, filter table, and the
    /// drift-independent row skeleton are computed as [`AssemblyFactors`];
    /// sweeps reuse them across points via
    /// [`build_chain_with`](Self::build_chain_with).
    ///
    /// # Errors
    ///
    /// Propagates TPM-validation errors.
    pub fn build_chain(&self) -> Result<CdrChain> {
        self.build_chain_with(&AssemblyFactors::compute(&self.config))
    }

    /// Builds the chain from precomputed (possibly cached)
    /// [`AssemblyFactors`].
    ///
    /// The assembly emits transitions in exactly the order and with
    /// exactly the arithmetic of the monolithic fast path, so the TPM is
    /// bit-identical whether the factors came fresh or from a sweep
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates TPM-validation errors.
    ///
    /// # Panics
    ///
    /// Panics if `factors` were computed for a different configuration
    /// (skeleton row count mismatch).
    pub fn build_chain_with(&self, factors: &AssemblyFactors) -> Result<CdrChain> {
        let _span = obs::span("core.build_chain");
        let start = Instant::now();
        let cfg = &self.config;
        let m = cfg.m_bins();
        let n = cfg.state_count();
        assert_eq!(
            factors.skeleton.rows(),
            n,
            "factors built for another configuration"
        );
        let acc = PhaseAccumulator::new(cfg);
        let skeleton = &*factors.skeleton;
        let nr = &*factors.nr;

        // Each row is a pure function of its state index, so the rows are
        // assembled in parallel; `build_rows` guarantees the result is
        // byte-identical to a serial pass for any thread count.
        let tpm = build_rows(n, 1e-9, |state, em| {
            let bin = state % m;
            for &SkeletonEntry { next_base, dir, p } in skeleton.row(state) {
                for &(nr_val, p_nr) in nr {
                    let bin2 = acc.advance(bin, dir, nr_val);
                    em.emit(next_base + bin2, p * p_nr);
                }
            }
        })?;
        self.finish_chain(tpm, factors, start)
    }

    /// Restricts the assembled full-product TPM to its recurrent reachable
    /// class, as the paper prescribes ("the state set is the reachable
    /// state space of the MC, which is a subset of the Cartesian product"),
    /// and wraps everything into a [`CdrChain`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CdrError::Config`] when the model has several
    /// disjoint recurrent classes (the stationary behavior would depend on
    /// the initial state — a sign of a degenerate configuration), and
    /// propagates TPM validation errors.
    fn finish_chain(
        &self,
        full: CsrMatrix,
        factors: &AssemblyFactors,
        start: Instant,
    ) -> Result<CdrChain> {
        let cls = stochcdr_markov::classify::classify_graph(&full);
        let wrap_full = self.wrap_probabilities(factors);
        if cls.is_irreducible() {
            let tpm = StochasticMatrix::new(full)?;
            obs::event(
                "core.chain_built",
                &[
                    ("states", tpm.n().into()),
                    ("nnz", tpm.matrix().nnz().into()),
                    ("restricted", false.into()),
                ],
            );
            return Ok(CdrChain::new(
                self.config.clone(),
                tpm,
                wrap_full,
                start.elapsed(),
            ));
        }
        let recurrent = cls.recurrent_classes();
        if recurrent.len() != 1 {
            return Err(crate::CdrError::Config(format!(
                "model has {} disjoint recurrent classes; the stationary distribution is                  ambiguous (check for degenerate noise/filter parameters)",
                recurrent.len()
            )));
        }
        let keep = cls.classes[recurrent[0]].clone(); // ascending by construction
        let restricted = full.submatrix(&keep);
        let tpm = StochasticMatrix::new(restricted)?;
        obs::event(
            "core.chain_built",
            &[
                ("states", tpm.n().into()),
                ("nnz", tpm.matrix().nnz().into()),
                ("restricted", true.into()),
            ],
        );
        let wrap = keep.iter().map(|&s| wrap_full[s]).collect();
        Ok(CdrChain::new_restricted(
            self.config.clone(),
            tpm,
            wrap,
            start.elapsed(),
            keep,
        ))
    }

    /// Per-state probability that the phase accumulator wraps across
    /// ±UI/2 in one step — the exact per-state cycle-slip rate used by
    /// [`crate::cycle_slip`].
    ///
    /// The `(dir, p_decision)` pairs come from the cached
    /// [`WrapSkeleton`](crate::factors::WrapSkeleton) in exactly the
    /// accumulation order of the pre-factoring monolithic loop, keeping
    /// the sums bit-identical.
    fn wrap_probabilities(&self, factors: &AssemblyFactors) -> Vec<f64> {
        let cfg = &self.config;
        let m = cfg.m_bins();
        let half = (m / 2) as i64;
        let step = cfg.step_bins() as i64;
        let nr = &*factors.nr;

        let mut wrap = vec![0.0f64; cfg.state_count()];
        for (state, w) in wrap.iter_mut().enumerate() {
            let o = offset_of_bin(state % m, m);
            let mut acc_p = 0.0;
            for &(dir, p_dec) in factors.wrap.row(state) {
                for &(nr_val, p_nr) in nr {
                    let unwrapped = o - dir * step + nr_val;
                    if unwrapped < -half || unwrapped >= half {
                        acc_p += p_dec * p_nr;
                    }
                }
            }
            *w = acc_p;
        }
        wrap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CdrConfig {
        CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap()
    }

    #[test]
    fn fast_and_network_paths_agree_exactly() {
        let model = CdrModel::new(small_config());
        let fast = model.build_chain().unwrap();
        let reference = model.build_chain_via_network().unwrap();
        assert_eq!(fast.state_count(), reference.state_count());
        let (a, b) = (fast.tpm().matrix(), reference.tpm().matrix());
        assert_eq!(a.nnz(), b.nnz(), "different sparsity patterns");
        for (r, c, v) in a.iter() {
            let w = b.get(r, c);
            assert!(
                (v - w).abs() < 1e-12,
                "mismatch at ({r}, {c}): fast {v} vs network {w}"
            );
        }
    }

    #[test]
    fn fast_path_has_smaller_fanout_budget() {
        // The fast path's worst-case emissions per row: branches(2) x
        // decisions(3) x |nr|; the network path: branches x |nw| x |nr|.
        let model = CdrModel::new(small_config());
        let pd = PhaseDetector::new(model.config());
        assert!(
            pd.nw().support_len() > 3,
            "n_w support should exceed decision count"
        );
    }

    #[test]
    fn two_state_data_model_paths_agree() {
        // The paper's Figure-2 data source (stay probabilities 0.7 / 0.8):
        // both construction paths must still match exactly.
        let config = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .data_model(crate::data_model::DataModel::two_state(0.7, 0.8).unwrap())
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        let model = CdrModel::new(config);
        let fast = model.build_chain().unwrap();
        let reference = model.build_chain_via_network().unwrap();
        assert_eq!(fast.state_count(), 2 * 4 * 8);
        assert_eq!(fast.tpm().nnz(), reference.tpm().nnz());
        for (r, c, v) in fast.tpm().matrix().iter() {
            assert!((v - reference.tpm().matrix().get(r, c)).abs() < 1e-12);
        }
        let cls = stochcdr_markov::classify::classify(fast.tpm());
        assert!(cls.is_irreducible());
    }

    #[test]
    fn consecutive_filter_paths_agree_and_chain_is_sound() {
        let config = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(3)
            .filter_kind(crate::stages::FilterKind::ConsecutiveDetector)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        let model = CdrModel::new(config);
        let fast = model.build_chain().unwrap();
        let reference = model.build_chain_via_network().unwrap();
        assert_eq!(fast.state_count(), 4 * 5 * 8); // 2*3-1 filter states
        assert_eq!(fast.tpm().nnz(), reference.tpm().nnz());
        for (r, c, v) in fast.tpm().matrix().iter() {
            assert!((v - reference.tpm().matrix().get(r, c)).abs() < 1e-12);
        }
        let cls = stochcdr_markov::classify::classify(fast.tpm());
        assert!(cls.is_irreducible());
    }

    #[test]
    fn chain_is_irreducible_and_aperiodic() {
        let model = CdrModel::new(small_config());
        let chain = model.build_chain().unwrap();
        let cls = stochcdr_markov::classify::classify(chain.tpm());
        assert!(
            cls.is_irreducible(),
            "CDR chain should be irreducible: {} classes",
            cls.class_count()
        );
        assert_eq!(stochcdr_markov::classify::period(chain.tpm()), 1);
    }

    #[test]
    fn row_sums_are_one() {
        let model = CdrModel::new(small_config());
        let chain = model.build_chain().unwrap();
        for s in chain.tpm().matrix().row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn drift_biases_the_phase() {
        // With a positive-mean n_r, the one-step expected phase motion from
        // the locked state is positive (before corrections kick in).
        let model = CdrModel::new(small_config());
        let chain = model.build_chain().unwrap();
        let locked = chain.locked_state();
        let mut drift = 0.0;
        for (next, p) in chain.tpm().matrix().row(locked) {
            drift += p * (chain.phase_offset_of(next) - chain.phase_offset_of(locked)) as f64;
        }
        assert!(drift > 0.0, "expected positive drift, got {drift}");
    }

    #[test]
    fn correction_pushes_toward_zero() {
        // From a state with large positive phase error and counter about to
        // overflow, the expected next phase should be pulled down.
        let model = CdrModel::new(small_config());
        let chain = model.build_chain().unwrap();
        let cfg = model.config();
        let high_phase = cfg.m_bins() - 2; // offset +2 of max +3 on m=8 grid
        let about_to_overflow = cfg.counter_len - 1;
        let s = chain.pack(0, about_to_overflow, high_phase);
        let mut movement = 0.0;
        for (next, p) in chain.tpm().matrix().row(s) {
            movement += p * (chain.phase_offset_of(next) - chain.phase_offset_of(s)) as f64;
        }
        assert!(movement < 0.0, "expected corrective pull, got {movement}");
    }

    #[test]
    fn form_time_recorded() {
        let model = CdrModel::new(small_config());
        let chain = model.build_chain().unwrap();
        assert!(chain.form_time().as_nanos() > 0);
    }
}
