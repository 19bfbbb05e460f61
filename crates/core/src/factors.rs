//! Sweep-invariant assembly factors of the joint chain, with caching.
//!
//! [`CdrModel::build_chain`](crate::CdrModel::build_chain) composes a
//! handful of intermediate tables — data-source branches, the discretized
//! `n_w` pmf and its per-bin decision tails, the loop-filter transition
//! table, the discretized `n_r` pmf, and (the expensive one) the
//! drift-independent *row skeleton* of the TPM. Each table depends on only
//! a subset of the configuration, so a parameter sweep that perturbs one
//! knob can reuse every factor the knob does not touch.
//!
//! [`AssemblyFactors`] bundles the tables; [`AssemblyFactors::cached`]
//! fetches each one through a [`FactorCache`] under a key derived from
//! exactly the parameters it depends on. The factored assembly path
//! ([`crate::CdrModel::build_chain_with`]) emits transitions in **exactly
//! the same order with exactly the same arithmetic** as the monolithic
//! fast path, so the resulting TPM is bit-identical — asserted by tests
//! here and by the network-equivalence tests in `model.rs`.

use std::sync::Arc;

use stochcdr_fsm::{FactorCache, KeyHasher};
use stochcdr_noise::DiscreteDist;

use crate::data_model::{DataBranch, DataModel};
use crate::stages::{offset_of_bin, LoopCounter, PhaseDetector};
use crate::CdrConfig;

/// One pre-resolved `(branch, decision)` emission of a TPM row, missing
/// only the drift draw: the final successor is `next_base + bin2` where
/// `bin2` follows from the row's phase bin, `dir`, and `n_r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkeletonEntry {
    /// `(d2 · c_len + c2) · m` — the successor index before the phase bin.
    pub next_base: usize,
    /// Phase-select command of this decision (`+1`, `0`, `-1`).
    pub dir: i64,
    /// `p_branch · p_decision` — the transition mass before the `n_r` pmf.
    pub p: f64,
}

/// The drift-independent skeleton of every TPM row, in the exact emission
/// order of the monolithic assembler (branch-major, then decision).
#[derive(Debug, Clone, PartialEq)]
pub struct RowSkeleton {
    offsets: Vec<usize>,
    entries: Vec<SkeletonEntry>,
}

impl RowSkeleton {
    /// The skeleton entries of row `state`.
    #[inline]
    pub fn row(&self, state: usize) -> &[SkeletonEntry] {
        &self.entries[self.offsets[state]..self.offsets[state + 1]]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    fn build(
        cfg: &CdrConfig,
        branches: &[Vec<DataBranch>],
        decision_probs: &[[f64; 3]],
        filter: &FilterTable,
    ) -> Self {
        let (c_len, m) = (cfg.filter_states(), cfg.m_bins());
        let n = cfg.state_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        for state in 0..n {
            let bin = state % m;
            let c = (state / m) % c_len;
            let d = state / (m * c_len);
            for &DataBranch {
                transition,
                next_state: d2,
                prob: p_branch,
            } in &branches[d]
            {
                if p_branch == 0.0 {
                    continue;
                }
                let decisions: [(i64, f64); 3] = if transition {
                    let dp = &decision_probs[bin];
                    [(1, dp[0]), (0, dp[1]), (-1, dp[2])]
                } else {
                    [(0, 1.0), (1, 0.0), (-1, 0.0)]
                };
                for (decision, p_dec) in decisions {
                    if p_dec == 0.0 {
                        continue;
                    }
                    let (c2, dir) = filter.advance(c, decision);
                    entries.push(SkeletonEntry {
                        next_base: (d2 * c_len + c2) * m,
                        dir,
                        p: p_branch * p_dec,
                    });
                }
            }
            offsets.push(entries.len());
        }
        RowSkeleton { offsets, entries }
    }
}

/// Per-state `(dir, p_decision)` pairs for the wrap-probability sum, in
/// the exact accumulation order of the monolithic
/// `wrap_probabilities` loop (`+1`, `−1`, `0`, zero-mass entries
/// skipped).
#[derive(Debug, Clone, PartialEq)]
pub struct WrapSkeleton {
    offsets: Vec<usize>,
    entries: Vec<(i64, f64)>,
}

impl WrapSkeleton {
    /// The `(dir, p_decision)` pairs of `state`.
    #[inline]
    pub fn row(&self, state: usize) -> &[(i64, f64)] {
        &self.entries[self.offsets[state]..self.offsets[state + 1]]
    }

    fn build(
        cfg: &CdrConfig,
        branches: &[Vec<DataBranch>],
        decision_probs: &[[f64; 3]],
        filter: &FilterTable,
    ) -> Self {
        let (l, c_len, m) = (
            cfg.data_model.state_count(),
            cfg.filter_states(),
            cfg.m_bins(),
        );
        let mut offsets = Vec::with_capacity(cfg.state_count() + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        for data_branches in branches.iter().take(l) {
            let p_trans: f64 = data_branches
                .iter()
                .filter(|b| b.transition)
                .map(|b| b.prob)
                .sum();
            for c in 0..c_len {
                for probs in decision_probs.iter().take(m) {
                    let p_plus = probs[0];
                    let p_minus = probs[2];
                    let decisions = [
                        (1i64, p_trans * p_plus),
                        (-1, p_trans * p_minus),
                        (0, 1.0 - p_trans * (p_plus + p_minus)),
                    ];
                    for (decision, p_dec) in decisions {
                        if p_dec <= 0.0 {
                            continue;
                        }
                        let (_, dir) = filter.advance(c, decision);
                        entries.push((dir, p_dec));
                    }
                    offsets.push(entries.len());
                }
            }
        }
        WrapSkeleton { offsets, entries }
    }
}

/// Precomputed loop-filter transitions: `(next, up_down)` for every
/// `(state, decision)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterTable {
    /// `[c][k]` for decisions `k = 0,1,2` ↔ `+1, 0, −1`.
    table: Vec<[(usize, i64); 3]>,
}

impl FilterTable {
    fn build(cfg: &CdrConfig) -> Self {
        let counter = LoopCounter::new(cfg);
        let table = (0..cfg.filter_states())
            .map(|c| {
                [
                    counter.advance(c, 1),
                    counter.advance(c, 0),
                    counter.advance(c, -1),
                ]
            })
            .collect();
        FilterTable { table }
    }

    /// `(next state, up_down)` for a ternary decision.
    #[inline]
    pub fn advance(&self, state: usize, decision: i64) -> (usize, i64) {
        // Decisions are +1 / 0 / −1; map to the table column.
        self.table[state][(1 - decision) as usize]
    }
}

/// The complete set of assembly factors for one configuration.
///
/// All members are `Arc`-shared so cached instances cost one pointer copy
/// per sweep point.
#[derive(Debug, Clone)]
pub struct AssemblyFactors {
    /// Data-source branches per data state.
    pub branches: Arc<Vec<Vec<DataBranch>>>,
    /// Discretized `n_w` pmf (grid-bin offsets).
    pub nw: Arc<DiscreteDist>,
    /// Per-phase-bin decision tails `[P(+1), P(0), P(−1)]`.
    pub decision_probs: Arc<Vec<[f64; 3]>>,
    /// Loop-filter transition table.
    pub filter: Arc<FilterTable>,
    /// Discretized `n_r` pmf as `(offset, mass)` pairs.
    pub nr: Arc<Vec<(i64, f64)>>,
    /// Drift-independent TPM row skeleton.
    pub skeleton: Arc<RowSkeleton>,
    /// Drift-independent wrap-probability skeleton.
    pub wrap: Arc<WrapSkeleton>,
}

fn hash_data(h: &mut KeyHasher, model: &DataModel) {
    match model {
        DataModel::RunLength(spec) => {
            h.str("run-length")
                .f64(spec.transition_density)
                .usize(spec.max_run_length);
        }
        DataModel::TwoState { p_stay0, p_stay1 } => {
            h.str("two-state").f64(*p_stay0).f64(*p_stay1);
        }
    }
}

fn hash_white(h: &mut KeyHasher, cfg: &CdrConfig) {
    h.f64(cfg.white.sigma_ui)
        .f64(cfg.white.dj_ui)
        .f64(cfg.white.n_sigma)
        .f64(cfg.delta_ui());
}

fn hash_drift(h: &mut KeyHasher, cfg: &CdrConfig) {
    let shape = match cfg.drift.shape {
        stochcdr_noise::jitter::DriftShape::Uniform => 0u64,
        stochcdr_noise::jitter::DriftShape::Triangular => 1,
        stochcdr_noise::jitter::DriftShape::Sinusoidal => 2,
    };
    h.f64(cfg.drift.mean_ui)
        .f64(cfg.drift.max_dev_ui)
        .u64(shape)
        .f64(cfg.delta_ui());
}

fn hash_filter(h: &mut KeyHasher, cfg: &CdrConfig) {
    let kind = match cfg.filter_kind {
        crate::stages::FilterKind::OverflowCounter => 0u64,
        crate::stages::FilterKind::ConsecutiveDetector => 1,
    };
    h.u64(kind).usize(cfg.counter_len);
}

/// Geometry shared by the skeletons: everything except the drift spec.
fn hash_skeleton(h: &mut KeyHasher, cfg: &CdrConfig) {
    h.usize(cfg.phases)
        .usize(cfg.grid_refinement)
        .usize(cfg.dead_zone_bins);
    hash_filter(h, cfg);
    hash_data(h, &cfg.data_model);
    hash_white(h, cfg);
}

fn key(f: impl FnOnce(&mut KeyHasher)) -> u64 {
    let mut h = KeyHasher::new();
    f(&mut h);
    h.finish()
}

impl AssemblyFactors {
    /// Computes every factor from scratch (no cache).
    pub fn compute(cfg: &CdrConfig) -> Self {
        let cache = FactorCache::new();
        Self::cached(cfg, &cache)
    }

    /// Computes the factors, fetching each through `cache` under a key
    /// derived from the parameters it depends on. A sweep axis that only
    /// perturbs (say) the drift spec misses only on `acc.nr`; the
    /// skeletons and every other table are shared.
    pub fn cached(cfg: &CdrConfig, cache: &FactorCache) -> Self {
        let branches = cache.get_or_build(
            "data.branches",
            key(|h| hash_data(h, &cfg.data_model)),
            || {
                (0..cfg.data_model.state_count())
                    .map(|d| cfg.data_model.branches(d))
                    .collect::<Vec<_>>()
            },
        );
        let nw = cache.get_or_build("pd.nw", key(|h| hash_white(h, cfg)), || {
            PhaseDetector::new(cfg).nw().clone()
        });
        let decision_probs = cache.get_or_build(
            "pd.decisions",
            key(|h| {
                hash_white(h, cfg);
                h.usize(cfg.m_bins()).usize(cfg.dead_zone_bins);
            }),
            || {
                let m = cfg.m_bins();
                let dead = cfg.dead_zone_bins as i64;
                (0..m)
                    .map(|bin| {
                        let o = offset_of_bin(bin, m);
                        let p_plus = nw.prob_gt((dead - o) as i32);
                        let p_minus = nw.prob_lt((-dead - o) as i32);
                        [p_plus, (1.0 - p_plus - p_minus).max(0.0), p_minus]
                    })
                    .collect::<Vec<_>>()
            },
        );
        let filter = cache.get_or_build("filter.table", key(|h| hash_filter(h, cfg)), || {
            FilterTable::build(cfg)
        });
        let nr = cache.get_or_build("acc.nr", key(|h| hash_drift(h, cfg)), || {
            cfg.drift
                .discretize(cfg.delta_ui())
                .iter()
                .map(|(k, p)| (k as i64, p))
                .collect::<Vec<_>>()
        });
        let skeleton = cache.get_or_build("row.skeleton", key(|h| hash_skeleton(h, cfg)), || {
            RowSkeleton::build(cfg, &branches, &decision_probs, &filter)
        });
        let wrap = cache.get_or_build("wrap.skeleton", key(|h| hash_skeleton(h, cfg)), || {
            WrapSkeleton::build(cfg, &branches, &decision_probs, &filter)
        });
        AssemblyFactors {
            branches,
            nw,
            decision_probs,
            filter,
            nr,
            skeleton,
            wrap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(drift_mean: f64) -> CdrConfig {
        CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.08)
            .drift(drift_mean, 8e-2)
            .build()
            .unwrap()
    }

    #[test]
    fn cached_factors_match_fresh_compute() {
        let cfg = config(2e-2);
        let cache = FactorCache::new();
        let fresh = AssemblyFactors::compute(&cfg);
        let cached = AssemblyFactors::cached(&cfg, &cache);
        assert_eq!(*fresh.skeleton, *cached.skeleton);
        assert_eq!(*fresh.wrap, *cached.wrap);
        assert_eq!(*fresh.nr, *cached.nr);
        assert_eq!(*fresh.decision_probs, *cached.decision_probs);
    }

    #[test]
    fn drift_change_misses_only_nr() {
        let cache = FactorCache::new();
        let _ = AssemblyFactors::cached(&config(2e-2), &cache);
        let cold = cache.stats();
        assert_eq!(cold.misses, 7, "seven factor kinds built cold");
        let _ = AssemblyFactors::cached(&config(3e-2), &cache);
        let warm = cache.stats();
        assert_eq!(warm.misses - cold.misses, 1, "only acc.nr rebuilt");
        assert_eq!(warm.by_kind["acc.nr"].misses, 2);
        assert_eq!(warm.by_kind["row.skeleton"].misses, 1);
        assert_eq!(warm.by_kind["row.skeleton"].hits, 1);
    }

    #[test]
    fn sigma_change_keeps_data_filter_and_nr() {
        let cache = FactorCache::new();
        let _ = AssemblyFactors::cached(&config(2e-2), &cache);
        let other = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(4)
            .white_sigma_ui(0.1)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        let _ = AssemblyFactors::cached(&other, &cache);
        let stats = cache.stats();
        for kind in ["data.branches", "filter.table", "acc.nr"] {
            assert_eq!(stats.by_kind[kind].hits, 1, "{kind} should be shared");
        }
        for kind in ["pd.nw", "pd.decisions", "row.skeleton", "wrap.skeleton"] {
            assert_eq!(stats.by_kind[kind].misses, 2, "{kind} should rebuild");
        }
    }

    #[test]
    fn filter_table_matches_loop_counter() {
        let cfg = config(2e-2);
        let table = FilterTable::build(&cfg);
        let counter = LoopCounter::new(&cfg);
        for c in 0..cfg.filter_states() {
            for decision in [-1i64, 0, 1] {
                assert_eq!(table.advance(c, decision), counter.advance(c, decision));
            }
        }
    }
}
