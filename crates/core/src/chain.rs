//! The assembled CDR Markov chain with state labeling.

use stochcdr_markov::StochasticMatrix;

use crate::stages::offset_of_bin;
use crate::CdrConfig;

/// The Markov chain of a CDR configuration, together with the state
/// labeling needed to read physical quantities back out of chain states.
///
/// Joint states are packed row-major over `(data_run, counter, phase_bin)`
/// with the phase bin fastest-varying — the layout both the paper's
/// Figure 3 block structure and the multigrid phase-pairing coarsening
/// rely on.
///
/// The chain covers the **recurrent reachable subset** of the Cartesian
/// product — the paper: "the state set is the reachable state space of the
/// MC, which is a subset of the Cartesian product". Some configurations
/// (e.g. one-sided `n_r`) make extreme-phase states transient; those are
/// pruned at build time so the chain is always irreducible. When pruning
/// occurred, chain state indices are *dense* indices; the labeling
/// accessors translate through the stored mapping.
#[derive(Debug, Clone)]
pub struct CdrChain {
    config: CdrConfig,
    tpm: StochasticMatrix,
    /// Per-state probability that the next transition wraps the phase
    /// accumulator across ±UI/2 (a cycle slip).
    wrap_prob: Vec<f64>,
    /// Wall-clock time spent assembling the TPM (the paper's "matrix form
    /// time").
    form_time: std::time::Duration,
    /// `original[dense] = full-product index`; `None` when nothing was
    /// pruned (identity mapping).
    original: Option<Vec<u32>>,
    /// `dense_of[full] = dense index` (`u32::MAX` = pruned); `None` when
    /// nothing was pruned.
    dense_of: Option<Vec<u32>>,
}

impl CdrChain {
    pub(crate) fn new(
        config: CdrConfig,
        tpm: StochasticMatrix,
        wrap_prob: Vec<f64>,
        form_time: std::time::Duration,
    ) -> Self {
        debug_assert_eq!(tpm.n(), config.state_count());
        debug_assert_eq!(wrap_prob.len(), tpm.n());
        CdrChain {
            config,
            tpm,
            wrap_prob,
            form_time,
            original: None,
            dense_of: None,
        }
    }

    /// Constructs a chain restricted to `keep` (ascending full-product
    /// indices).
    pub(crate) fn new_restricted(
        config: CdrConfig,
        tpm: StochasticMatrix,
        wrap_prob: Vec<f64>,
        form_time: std::time::Duration,
        keep: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(tpm.n(), keep.len());
        debug_assert_eq!(wrap_prob.len(), keep.len());
        let mut dense_of = vec![u32::MAX; config.state_count()];
        for (dense, &full) in keep.iter().enumerate() {
            dense_of[full] = dense as u32;
        }
        let original = keep.into_iter().map(|f| f as u32).collect();
        CdrChain {
            config,
            tpm,
            wrap_prob,
            form_time,
            original: Some(original),
            dense_of: Some(dense_of),
        }
    }

    /// The configuration this chain was built from.
    pub fn config(&self) -> &CdrConfig {
        &self.config
    }

    /// The validated transition probability matrix (over the reachable
    /// recurrent states).
    pub fn tpm(&self) -> &StochasticMatrix {
        &self.tpm
    }

    /// Number of chain states (after pruning, if any).
    pub fn state_count(&self) -> usize {
        self.tpm.n()
    }

    /// Number of Cartesian-product states pruned as transient/unreachable.
    pub fn pruned_states(&self) -> usize {
        self.config.state_count() - self.state_count()
    }

    /// Stored transitions in the TPM.
    pub fn nnz(&self) -> usize {
        self.tpm.nnz()
    }

    /// Wall-clock time spent assembling the TPM.
    pub fn form_time(&self) -> std::time::Duration {
        self.form_time
    }

    /// Per-state cycle-slip (phase-wrap) probability.
    pub fn wrap_prob(&self) -> &[f64] {
        &self.wrap_prob
    }

    /// The full-Cartesian-product index of a chain state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn full_index_of(&self, state: usize) -> usize {
        assert!(state < self.state_count(), "state out of range");
        match &self.original {
            None => state,
            Some(map) => map[state] as usize,
        }
    }

    /// The phase bin (`0 .. m_bins`) of a chain state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn phase_bin_of(&self, state: usize) -> usize {
        self.full_index_of(state) % self.config.m_bins()
    }

    /// The signed phase offset in grid bins of a chain state.
    pub fn phase_offset_of(&self, state: usize) -> i64 {
        offset_of_bin(self.phase_bin_of(state), self.config.m_bins())
    }

    /// The phase error in UI of a chain state.
    pub fn phase_ui_of(&self, state: usize) -> f64 {
        self.phase_offset_of(state) as f64 * self.config.delta_ui()
    }

    /// The loop-filter state of a chain state.
    pub fn counter_of(&self, state: usize) -> usize {
        (self.full_index_of(state) / self.config.m_bins()) % self.config.filter_states()
    }

    /// The data-source state of a chain state.
    pub fn data_of(&self, state: usize) -> usize {
        self.full_index_of(state) / (self.config.m_bins() * self.config.filter_states())
    }

    /// Packs `(data, counter, phase_bin)` into a chain state index, if that
    /// joint state survived reachability pruning.
    pub fn try_pack(&self, data: usize, counter: usize, phase_bin: usize) -> Option<usize> {
        if data >= self.config.data_model.state_count()
            || counter >= self.config.filter_states()
            || phase_bin >= self.config.m_bins()
        {
            return None;
        }
        let full =
            (data * self.config.filter_states() + counter) * self.config.m_bins() + phase_bin;
        match &self.dense_of {
            None => Some(full),
            Some(map) => match map[full] {
                u32::MAX => None,
                dense => Some(dense as usize),
            },
        }
    }

    /// Packs `(data, counter, phase_bin)` into a chain state index.
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range or the joint state was
    /// pruned as unreachable; use [`try_pack`](Self::try_pack) to probe.
    pub fn pack(&self, data: usize, counter: usize, phase_bin: usize) -> usize {
        self.try_pack(data, counter, phase_bin).unwrap_or_else(|| {
            panic!(
                "joint state (data {data}, counter {counter}, phase {phase_bin}) is out of \
                 range or was pruned as unreachable"
            )
        })
    }

    /// The "locked" reference state: zero phase error, neutral filter,
    /// fresh data run — or, if that exact state was pruned, the chain
    /// state with the smallest phase-error magnitude. Used as the start
    /// state for transient analyses and the Monte-Carlo simulator.
    pub fn locked_state(&self) -> usize {
        let center = crate::stages::LoopCounter::new(&self.config).center();
        if let Some(s) = self.try_pack(0, center, self.config.m_bins() / 2) {
            return s;
        }
        (0..self.state_count())
            .min_by_key(|&s| {
                (
                    self.phase_offset_of(s).abs(),
                    self.counter_of(s).abs_diff(center),
                )
            })
            .expect("chain is non-empty")
    }

    /// `n`-lane Kronecker replication of this chain — the entry point to
    /// the matrix-free product-form solve
    /// ([`ProductChain::solve_implicit`](crate::ProductChain::solve_implicit)).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CdrError::Config`] when `n == 0` or the joint
    /// dimension overflows `usize`.
    pub fn replicate(&self, n: usize) -> crate::Result<crate::ProductChain> {
        crate::ProductChain::replicated(self, n)
    }
}

#[cfg(test)]
mod tests {
    use crate::{CdrConfig, CdrModel};

    fn small_chain() -> crate::CdrChain {
        let config = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        CdrModel::new(config).build_chain().unwrap()
    }

    #[test]
    fn labeling_round_trips() {
        let chain = small_chain();
        let (l, c, m) = (4, 4, 8);
        assert!(chain.state_count() <= l * c * m);
        for s in 0..chain.state_count() {
            let (d, k, p) = (chain.data_of(s), chain.counter_of(s), chain.phase_bin_of(s));
            assert_eq!(chain.pack(d, k, p), s);
        }
    }

    #[test]
    fn phase_units() {
        let chain = small_chain();
        let locked = chain.locked_state();
        assert_eq!(chain.phase_offset_of(locked), 0);
        // Whatever the most negative reachable offset is, its UI value is
        // consistent with the grid step.
        let s = (0..chain.state_count())
            .min_by_key(|&s| chain.phase_offset_of(s))
            .unwrap();
        let o = chain.phase_offset_of(s);
        assert!((chain.phase_ui_of(s) - o as f64 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_probabilities_are_probabilities() {
        let chain = small_chain();
        assert_eq!(chain.wrap_prob().len(), chain.state_count());
        for &p in chain.wrap_prob() {
            assert!((0.0..=1.0).contains(&p));
        }
        // Some state near the boundary must have positive wrap probability.
        assert!(chain.wrap_prob().iter().any(|&p| p > 0.0));
        // The locked state should not slip in one step with these params.
        assert_eq!(chain.wrap_prob()[chain.locked_state()], 0.0);
    }

    #[test]
    fn try_pack_probes_without_panicking() {
        let chain = small_chain();
        assert!(chain.try_pack(99, 0, 0).is_none());
        let locked = chain.locked_state();
        assert_eq!(
            chain.try_pack(
                chain.data_of(locked),
                chain.counter_of(locked),
                chain.phase_bin_of(locked)
            ),
            Some(locked)
        );
    }

    #[test]
    fn one_sided_drift_prunes_transient_states() {
        // One-sided n_r (all mass >= 0): extreme negative phases beyond
        // corrective reach are transient and must be pruned, leaving an
        // irreducible chain.
        let config = CdrConfig::builder()
            .phases(8)
            .grid_refinement(4)
            .counter_len(2)
            .white_sigma_ui(0.02)
            .drift(6.1e-3, 1.65e-2)
            .build()
            .unwrap();
        let chain = CdrModel::new(config).build_chain().unwrap();
        assert!(chain.pruned_states() > 0, "expected pruning");
        let cls = stochcdr_markov::classify::classify(chain.tpm());
        assert!(cls.is_irreducible());
        // Labels still round-trip through the mapping.
        for s in (0..chain.state_count()).step_by(7) {
            let (d, k, p) = (chain.data_of(s), chain.counter_of(s), chain.phase_bin_of(s));
            assert_eq!(chain.pack(d, k, p), s);
        }
    }
}
