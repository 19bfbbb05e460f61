//! Feed-forward FSM networks with stochastic inputs and state feedback.
//!
//! This is the paper's Figure-2 topology as a reusable abstraction: a
//! cascade of FSM stages where each stage sees (a) its own state, (b) a
//! private stochastic input, (c) the output of the upstream stage, and
//! (d) the *previous* joint state of the whole network (for feedback loops
//! such as the phase error feeding the phase detector).

use stochcdr_linalg::CsrMatrix;

use crate::{build_rows, ProductSpace, Result};

/// The result of advancing one stage for one symbol interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOutput {
    /// The stage's next state.
    pub next_state: usize,
    /// The value presented to the next stage downstream.
    pub output: i64,
}

/// One FSM stage of a [`CascadeNetwork`].
///
/// Stages advance synchronously, once per symbol interval. A stage's
/// transition may depend on the previous joint state of every stage (via
/// `joint`), which is how feedback loops are expressed without breaking the
/// forward evaluation order. Stages are shared across the row-assembly
/// workers of [`CascadeNetwork::build_tpm`], hence the `Sync` bound.
pub trait Stage: Sync {
    /// Number of states of this stage's FSM.
    fn state_count(&self) -> usize;

    /// Probability mass function of this stage's private stochastic input.
    ///
    /// Return `vec![(0, 1.0)]` for a deterministic stage. Probabilities
    /// must be positive and sum to one.
    fn noise(&self) -> Vec<(i64, f64)>;

    /// Advances the stage: current own `state`, drawn `noise` value, the
    /// upstream stage's `upstream` output (0 for the first stage), and the
    /// previous joint state of all stages.
    fn step(&self, state: usize, noise: i64, upstream: i64, joint: &[usize]) -> StageOutput;

    /// Human-readable stage name for diagnostics.
    fn name(&self) -> &str {
        "stage"
    }
}

/// A synchronous cascade of FSM [`Stage`]s, convertible into the transition
/// probability matrix of the joint Markov chain.
///
/// Per symbol interval the network draws every stage's private noise
/// independently, then evaluates stages in order, feeding each stage's
/// output downstream. The joint state is the tuple of stage states, packed
/// by [`ProductSpace`] (first stage varies slowest).
pub struct CascadeNetwork {
    stages: Vec<Box<dyn Stage>>,
    space: ProductSpace,
}

impl std::fmt::Debug for CascadeNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeNetwork")
            .field(
                "stages",
                &self
                    .stages
                    .iter()
                    .map(|s| s.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .field("joint_states", &self.space.len())
            .finish()
    }
}

impl CascadeNetwork {
    /// Builds a network from its stages, in upstream-to-downstream order.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, any stage has zero states, or a stage's
    /// noise pmf is invalid (empty, negative mass, or sum ≠ 1 within 1e-9).
    pub fn new(stages: Vec<Box<dyn Stage>>) -> Self {
        assert!(!stages.is_empty(), "network needs at least one stage");
        for s in &stages {
            assert!(s.state_count() > 0, "stage '{}' has no states", s.name());
            let pmf = s.noise();
            assert!(!pmf.is_empty(), "stage '{}' has empty noise pmf", s.name());
            let total: f64 = pmf.iter().map(|&(_, p)| p).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "stage '{}' noise pmf sums to {total}",
                s.name()
            );
            assert!(
                pmf.iter().all(|&(_, p)| p > 0.0 && p.is_finite()),
                "stage '{}' noise pmf has non-positive mass",
                s.name()
            );
        }
        let space = ProductSpace::new(stages.iter().map(|s| s.state_count()).collect());
        CascadeNetwork { stages, space }
    }

    /// Enumerates the joint successors of `joint` (per-stage states) with
    /// their probabilities, invoking `emit(next_parts, prob)` once per
    /// noise combination. Duplicate successors are *not* merged here —
    /// that is [`build_rows`]'s job.
    pub fn successors(&self, joint: &[usize], mut emit: impl FnMut(&[usize], f64)) {
        let pmfs: Vec<Vec<(i64, f64)>> = self.stages.iter().map(|s| s.noise()).collect();
        let k = self.stages.len();
        let mut choice = vec![0usize; k];
        let mut next = vec![0usize; k];
        loop {
            // Evaluate the cascade for this noise combination.
            let mut prob = 1.0;
            let mut upstream = 0i64;
            for (i, stage) in self.stages.iter().enumerate() {
                let (nval, nprob) = pmfs[i][choice[i]];
                prob *= nprob;
                let out = stage.step(joint[i], nval, upstream, joint);
                debug_assert!(
                    out.next_state < stage.state_count(),
                    "stage '{}' returned state {} of {}",
                    stage.name(),
                    out.next_state,
                    stage.state_count()
                );
                next[i] = out.next_state;
                upstream = out.output;
            }
            emit(&next, prob);
            // Advance the mixed-radix noise choice.
            let mut i = k;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                choice[i] += 1;
                if choice[i] < pmfs[i].len() {
                    break;
                }
                choice[i] = 0;
            }
        }
    }

    /// Builds the full joint transition probability matrix over the entire
    /// Cartesian product space, one [`build_rows`] row per joint state.
    ///
    /// Restricting the result to its reachable recurrent class is the
    /// caller's job (the CDR model does it with `classify_graph` and
    /// `CsrMatrix::submatrix`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::FsmError::InvalidProbability`] if a row's mass
    /// drifts beyond `1e-9` of one (network construction validates the
    /// stage pmfs, so this needs badly conditioned pmfs).
    pub fn build_tpm(&self) -> Result<CsrMatrix> {
        let space = &self.space;
        build_rows(space.len(), 1e-9, |flat, em| {
            self.successors(&space.unpack(flat), |next, prob| {
                em.emit(space.pack(next), prob);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random bit source: output = noise bit, no state.
    struct Bit(f64);
    impl Stage for Bit {
        fn state_count(&self) -> usize {
            1
        }
        fn noise(&self) -> Vec<(i64, f64)> {
            vec![(0, 1.0 - self.0), (1, self.0)]
        }
        fn step(&self, _s: usize, n: i64, _u: i64, _j: &[usize]) -> StageOutput {
            StageOutput {
                next_state: 0,
                output: n,
            }
        }
        fn name(&self) -> &str {
            "bit"
        }
    }

    /// Saturating counter of upstream ones.
    struct Counter(usize);
    impl Stage for Counter {
        fn state_count(&self) -> usize {
            self.0
        }
        fn noise(&self) -> Vec<(i64, f64)> {
            vec![(0, 1.0)]
        }
        fn step(&self, s: usize, _n: i64, up: i64, _j: &[usize]) -> StageOutput {
            let next = if up > 0 { (s + 1).min(self.0 - 1) } else { 0 };
            StageOutput {
                next_state: next,
                output: (next == self.0 - 1) as i64,
            }
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    /// Stage that reads another stage's state through the joint vector
    /// (feedback test): toggles only when stage 1 (the counter) saturated.
    struct Follower;
    impl Stage for Follower {
        fn state_count(&self) -> usize {
            2
        }
        fn noise(&self) -> Vec<(i64, f64)> {
            vec![(0, 1.0)]
        }
        fn step(&self, s: usize, _n: i64, _up: i64, j: &[usize]) -> StageOutput {
            let toggle = j[1] == 2; // counter state (previous cycle) saturated
            StageOutput {
                next_state: if toggle { 1 - s } else { s },
                output: 0,
            }
        }
    }

    fn network() -> CascadeNetwork {
        CascadeNetwork::new(vec![
            Box::new(Bit(0.5)),
            Box::new(Counter(3)),
            Box::new(Follower),
        ])
    }

    /// The joint state space of [`network`]: (bit, counter, follower).
    fn space() -> ProductSpace {
        ProductSpace::new(vec![1, 3, 2])
    }

    #[test]
    fn dimensions() {
        let tpm = network().build_tpm().unwrap();
        assert_eq!((tpm.rows(), tpm.cols()), (3 * 2, 3 * 2));
    }

    #[test]
    fn tpm_is_stochastic() {
        let tpm = network().build_tpm().unwrap();
        for s in tpm.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn counter_dynamics_encoded() {
        let net = network();
        let tpm = net.build_tpm().unwrap();
        // From (bit=_, counter=0, follower=0): with p=.5 counter goes to 1,
        // with p=.5 stays 0 (upstream zero resets).
        let from = space().pack(&[0, 0, 0]);
        let to_inc = space().pack(&[0, 1, 0]);
        let to_rst = space().pack(&[0, 0, 0]);
        assert!((tpm.get(from, to_inc) - 0.5).abs() < 1e-12);
        assert!((tpm.get(from, to_rst) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feedback_sees_previous_joint_state() {
        let net = network();
        let tpm = net.build_tpm().unwrap();
        // From counter saturated (state 2), the follower must toggle
        // regardless of the new counter value.
        let from = space().pack(&[0, 2, 0]);
        for (col, _) in tpm.row(from) {
            let parts = space().unpack(col);
            assert_eq!(parts[2], 1, "follower should have toggled");
        }
    }

    #[test]
    fn successor_probabilities_sum_to_one() {
        let net = network();
        let mut total = 0.0;
        net.successors(&[0, 1, 1], |_, p| total += p);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "noise pmf sums")]
    fn invalid_noise_pmf_rejected() {
        struct Bad;
        impl Stage for Bad {
            fn state_count(&self) -> usize {
                1
            }
            fn noise(&self) -> Vec<(i64, f64)> {
                vec![(0, 0.7)]
            }
            fn step(&self, _: usize, _: i64, _: i64, _: &[usize]) -> StageOutput {
                StageOutput {
                    next_state: 0,
                    output: 0,
                }
            }
        }
        let _ = CascadeNetwork::new(vec![Box::new(Bad)]);
    }

    #[test]
    fn doc_example_parity() {
        struct Coin;
        impl Stage for Coin {
            fn state_count(&self) -> usize {
                1
            }
            fn noise(&self) -> Vec<(i64, f64)> {
                vec![(0, 0.5), (1, 0.5)]
            }
            fn step(&self, _s: usize, noise: i64, _up: i64, _j: &[usize]) -> StageOutput {
                StageOutput {
                    next_state: 0,
                    output: noise,
                }
            }
        }
        struct Parity;
        impl Stage for Parity {
            fn state_count(&self) -> usize {
                2
            }
            fn noise(&self) -> Vec<(i64, f64)> {
                vec![(0, 1.0)]
            }
            fn step(&self, s: usize, _n: i64, up: i64, _j: &[usize]) -> StageOutput {
                StageOutput {
                    next_state: (s + up as usize) % 2,
                    output: 0,
                }
            }
        }
        let net = CascadeNetwork::new(vec![Box::new(Coin), Box::new(Parity)]);
        let tpm = net.build_tpm().unwrap();
        assert_eq!(tpm.get(0, 0), 0.5);
        assert_eq!(tpm.get(0, 1), 0.5);
        assert_eq!(tpm.get(1, 0), 0.5);
        assert_eq!(tpm.get(1, 1), 0.5);
    }
}
