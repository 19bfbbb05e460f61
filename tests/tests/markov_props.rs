//! Property-based cross-validation of the Markov-chain machinery on
//! randomized chains: direct vs iterative stationary solves, aggregation
//! fixed points, and simulation agreement.

use proptest::prelude::*;
use stochcdr_linalg::{vecops, CooMatrix};
use stochcdr_markov::lumping::{aggregate, lump_weighted, Partition};
use stochcdr_markov::simulate::{occupancy_tv, ChainSampler};
use stochcdr_markov::stationary::{GaussSeidelSolver, GthSolver, PowerIteration, StationarySolver};
use stochcdr_markov::StochasticMatrix;

/// Random irreducible chain: a weak ring backbone guarantees strong
/// connectivity; random extra edges provide structure.
fn chain_strategy(n: usize) -> impl Strategy<Value = StochasticMatrix> {
    prop::collection::vec((0..n, 0..n, 0.05f64..1.0), n..4 * n).prop_map(move |extra| {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.05);
            coo.push(i, i, 0.05);
        }
        for (r, c, v) in extra {
            coo.push(r, c, v);
        }
        let m = coo.to_csr();
        let sums = m.row_sums();
        let factors: Vec<f64> = sums.iter().map(|s| 1.0 / s).collect();
        StochasticMatrix::new(m.scale_rows(&factors)).expect("normalized chain is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All stationary solvers agree on random irreducible chains.
    #[test]
    fn solvers_agree_on_random_chains(p in chain_strategy(18)) {
        let direct = GthSolver::new().solve(&p, None).unwrap().distribution;
        let power = PowerIteration::new(1e-13, 1_000_000).solve(&p, None).unwrap().distribution;
        let gs = GaussSeidelSolver::new(1e-13, 1_000_000).solve(&p, None).unwrap().distribution;
        prop_assert!(vecops::dist1(&direct, &power) < 1e-8);
        prop_assert!(vecops::dist1(&direct, &gs) < 1e-8);
        prop_assert!(p.stationary_residual(&direct) < 1e-10);
    }

    /// Aggregation fixed point: lumping with the exact stationary weights
    /// makes the aggregated stationary the coarse stationary, for ANY
    /// partition.
    #[test]
    fn aggregation_fixed_point_random(
        p in chain_strategy(12),
        labels in prop::collection::vec(0usize..4, 12),
    ) {
        // Make labels contiguous.
        let mut uniq = labels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let relabeled: Vec<usize> =
            labels.iter().map(|l| uniq.binary_search(l).unwrap()).collect();
        let part = Partition::from_labels(relabeled).unwrap();
        let eta = GthSolver::new().solve(&p, None).unwrap().distribution;
        let coarse = lump_weighted(&p, &part, &eta).unwrap();
        let eta_c = if coarse.n() == 1 {
            vec![1.0]
        } else {
            GthSolver::new().solve(&coarse, None).unwrap().distribution
        };
        let agg = aggregate(&part, &eta);
        prop_assert!(vecops::dist1(&agg, &eta_c) < 1e-8);
    }

    /// Simulated occupancy converges toward the stationary distribution.
    #[test]
    fn simulation_matches_stationary(p in chain_strategy(10), seed in 0u64..1_000) {
        use rand::SeedableRng;
        let eta = GthSolver::new().solve(&p, None).unwrap().distribution;
        let sampler = ChainSampler::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts = sampler.occupancy(0, 60_000, &mut rng).unwrap();
        prop_assert!(occupancy_tv(&counts, &eta) < 0.05);
    }
}
