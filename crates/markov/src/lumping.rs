//! Weighted (weak) lumping of Markov chains.
//!
//! The paper builds its multigrid solver on lumpability: "we partition these
//! N states into n disjoint sets ... and form a new stochastic process by
//! defining new states corresponding to the n sets". The lumped process is
//! Markov for *any* initial distribution only if the partition is *exactly
//! (strongly) lumpable*; otherwise one obtains a useful approximation by
//! lumping with respect to a particular distribution — *weak lumping* — which
//! is precisely the aggregation step of aggregation/disaggregation methods.
//!
//! * [`Partition`] — a validated partition of the state space,
//! * [`lump_weighted`] — the aggregated TPM with respect to a weight vector
//!   (rows of each block averaged with the block-conditional weights).
//!
//! # Symbolic/numeric split
//!
//! The sparsity pattern of the weighted-lumped matrix depends only on the
//! fine pattern and the partition — the weights touch the *values* alone.
//! Solvers that re-aggregate every iteration (aggregation/disaggregation
//! multigrid rebuilds the coarse chain from the current iterate each
//! cycle) therefore split the work:
//!
//! * [`LumpPlan`] — one-time **symbolic** setup: the coarse CSR pattern,
//!   the transpose permutation, and how the numeric refresh reads the
//!   fine chain,
//! * [`LumpWorkspace`] — preallocated per-level numeric buffers,
//! * [`lump_weighted_into`] and [`lump_factored_into`] — the **numeric**
//!   refresh: recomputes values into an existing materialized or
//!   factored coarse chain with zero heap allocations.
//!
//! # Refresh arms
//!
//! [`LumpPlan::new`] picks one of three refreshes from the fine chain's
//! storage and structure:
//!
//! * **gather** — a materialized chain: a fine-entry → coarse-slot gather
//!   map replaying the from-scratch assembly order exactly, so the result
//!   is bit-identical to [`lump_weighted`] for strictly positive weights;
//! * **factored** — a Kronecker-structured chain: a matrix-free Kronecker
//!   fine grid `P = diag(scale)·(A_out ⊗ A_in)` or a coarse level kept in
//!   factor form, [`FactoredChain`], `P[(o, i), (o', j)] =
//!   A_out(o, o')·R_o(i, j)`. The plan keeps the outer lanes the
//!   partition leaves alone and folds the others into the inner block;
//!   with `S_in` the inner aggregation, coarse block `R'_o` is
//!   `Σ_{i∈B} wscale·[scale]·(G ⊗ R_o) S_in` row by row — sum
//!   factorization in the line of Buchholz ("Multilevel solutions for
//!   structured Markov chains", SIMAX 2000). The coarse level is again a
//!   [`FactoredChain`] over the kept lanes, refreshed by one gather plan
//!   on the shared inner pattern that each pass applies to 16 outer
//!   states at once, and nothing is stored per fine entry; once no outer
//!   lane is left it is materialized;
//! * **traversal** — every other matrix-free chain: each refresh re-walks
//!   the member rows of every coarse row and replays the from-scratch
//!   assembly order (the same bits again, provided the chain serves the
//!   entries its materialized twin stores). It is also the oracle the
//!   factored arm is tested against, to rounding.
//!
//! Every arm writes each coarse row wholly on one worker in a fixed
//! order, so each gives the same bits at any thread count.

use std::sync::Mutex;

use stochcdr_linalg::{par, CooMatrix, CsrMatrix};

use crate::factored::kron_row;
use crate::{FactoredChain, MarkovError, Result, StochasticMatrix, StochasticOp};

/// Fixed row-chunk size for the parallel aggregation kernels. A pure
/// constant (never derived from the thread count) so the order in which
/// per-chunk results are concatenated/combined — and hence every
/// floating-point sum — is identical for every thread count.
const LUMP_CHUNK: usize = 4096;

/// A partition of `0..n` into disjoint, exhaustive blocks.
///
/// # Example
///
/// ```
/// use stochcdr_markov::lumping::Partition;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let part = Partition::from_labels(vec![0, 0, 1, 1])?;
/// assert_eq!(part.block_count(), 2);
/// assert_eq!(part.members()[1], vec![2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of[state]` — the block index of each state.
    block_of: Vec<usize>,
    /// Number of blocks.
    blocks: usize,
    /// CSR-style member index: block `b`'s members (ascending) are
    /// `member_idx[member_ptr[b]..member_ptr[b + 1]]`. Precomputed so the
    /// aggregation kernels can *gather* per block — each block summed by
    /// one worker in ascending member order, which reproduces the serial
    /// scatter bit for bit at any thread count.
    member_ptr: Vec<usize>,
    /// Members of all blocks, grouped by block, ascending within a block.
    member_idx: Vec<usize>,
}

impl Partition {
    /// Builds a partition from per-state block labels.
    ///
    /// Labels must form a contiguous range `0..blocks` (every block
    /// non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if labels are empty or some
    /// block in the range is unused.
    pub fn from_labels(block_of: Vec<usize>) -> Result<Self> {
        if block_of.is_empty() {
            return Err(MarkovError::InvalidArgument("empty partition".into()));
        }
        let blocks = block_of.iter().copied().max().unwrap() + 1;
        let mut seen = vec![false; blocks];
        for &b in &block_of {
            seen[b] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(MarkovError::InvalidArgument(format!(
                "block {missing} has no members"
            )));
        }
        Ok(Partition::build(block_of, blocks))
    }

    /// Assembles the CSR-style member index (counting sort by block).
    fn build(block_of: Vec<usize>, blocks: usize) -> Self {
        let mut member_ptr = vec![0usize; blocks + 1];
        for &b in &block_of {
            member_ptr[b + 1] += 1;
        }
        for b in 0..blocks {
            member_ptr[b + 1] += member_ptr[b];
        }
        let mut member_idx = vec![0usize; block_of.len()];
        let mut next = member_ptr.clone();
        for (s, &b) in block_of.iter().enumerate() {
            member_idx[next[b]] = s;
            next[b] += 1;
        }
        Partition {
            block_of,
            blocks,
            member_ptr,
            member_idx,
        }
    }

    /// Number of states partitioned.
    pub fn n(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Block index of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state >= n()`.
    pub fn block_of(&self, state: usize) -> usize {
        self.block_of[state]
    }

    /// Per-state labels.
    pub fn labels(&self) -> &[usize] {
        &self.block_of
    }

    /// Collects the members of each block.
    pub fn members(&self) -> Vec<Vec<usize>> {
        (0..self.blocks)
            .map(|b| self.block_members(b).to_vec())
            .collect()
    }

    /// The members of one block, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_members(&self, block: usize) -> &[usize] {
        &self.member_idx[self.member_ptr[block]..self.member_ptr[block + 1]]
    }
}

/// Per-block weight totals and sizes, gathered in ascending member order
/// (bit-identical to the serial state-order scatter, parallelizable).
fn block_weights(partition: &Partition, w: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let nb = partition.block_count();
    let mut weight = vec![0.0f64; nb];
    par::for_each_chunk_mut(&mut weight, |b0, chunk| {
        for (k, acc) in chunk.iter_mut().enumerate() {
            *acc = 0.0;
            for &i in partition.block_members(b0 + k) {
                *acc += w[i];
            }
        }
    });
    let size = (0..nb).map(|b| partition.block_members(b).len()).collect();
    (weight, size)
}

/// Aggregates the chain with respect to non-negative weights `w` (typically
/// the current iterate of the stationary vector):
///
/// ```text
/// P_c(A, B) = Σ_{i∈A} (w_i / W_A) Σ_{j∈B} P(i, j),   W_A = Σ_{i∈A} w_i.
/// ```
///
/// Blocks with zero total weight fall back to uniform weights within the
/// block, so the aggregated matrix is always a valid TPM.
///
/// This is the restriction operator of aggregation/disaggregation multigrid
/// and the TPM of the weakly lumped chain when `w` is the initial
/// distribution.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] if `w` has negative entries or
/// wrong length.
pub fn lump_weighted(
    p: &StochasticMatrix,
    partition: &Partition,
    w: &[f64],
) -> Result<StochasticMatrix> {
    let n = p.n();
    if partition.n() != n {
        return Err(MarkovError::InvalidArgument(
            "partition size does not match state count".into(),
        ));
    }
    validate_weights(n, w)?;
    let nb = partition.block_count();
    let (block_weight, block_size) = block_weights(partition, w);
    // Triplet generation parallelizes over fixed-size row chunks; the
    // chunks are then pushed in ascending order, so the duplicate-summing
    // in `to_csr` sees exactly the serial (state-ascending) sequence.
    let chunks = par::map_chunks(n, LUMP_CHUNK, |range| {
        let mut tri: Vec<(usize, usize, f64)> = Vec::new();
        for i in range {
            let bi = partition.block_of(i);
            let wi = if block_weight[bi] > 0.0 {
                w[i] / block_weight[bi]
            } else {
                1.0 / block_size[bi] as f64
            };
            if wi == 0.0 {
                continue;
            }
            for (j, v) in p.matrix().row(i) {
                tri.push((bi, partition.block_of(j), wi * v));
            }
        }
        tri
    });
    let mut coo = CooMatrix::with_capacity(nb, nb, p.nnz().min(nb * nb));
    for tri in chunks {
        for (r, c, v) in tri {
            coo.push(r, c, v);
        }
    }
    let csr = fix_row_sums(coo.to_csr());
    StochasticMatrix::with_tolerance(csr, 1e-6)
}

/// Clamps accumulated round-off so row sums are exactly one before the
/// stochastic-matrix validation (aggregation of ~1e6 entries can drift a
/// few ulps beyond the default tolerance).
fn fix_row_sums(m: CsrMatrix) -> CsrMatrix {
    let sums = m.row_sums();
    let factors: Vec<f64> = sums
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 1.0 })
        .collect();
    m.scale_rows(&factors)
}

/// One-time symbolic setup for repeated weighted lumping over a fixed
/// fine pattern and partition.
///
/// The plan precomputes everything [`lump_weighted`] derives from the
/// sparsity structure alone:
///
/// * the coarse pattern (`indptr`/`indices`): the coarse CSR of a
///   materialized coarse level, the shared inner pattern of one kept in
///   factor form,
/// * the transpose permutation feeding a materialized level's cached
///   `P^T`,
/// * how the numeric refresh reads the fine chain, chosen once by
///   [`new`](Self::new) (see the module's refresh arms):
///   - a **materialized** chain gets a gather map — per coarse slot, the
///     list of fine entries that sum into it, in **exactly** the order
///     the from-scratch COO assembly visits them (fine rows ascending,
///     entries in column order, then the same unstable sort by coarse
///     column the COO→CSR merge performs), so refreshed values are
///     bit-identical to a fresh [`lump_weighted`];
///   - a **Kronecker-structured** chain — a matrix-free Kronecker fine
///     grid or a [`FactoredChain`] level — gets a factored plan: the
///     outer lanes the partition leaves alone, the lanes it folds into
///     the inner block, and per coarse inner slot the gather terms of
///     one outer state — nothing per fine entry;
///   - any other **matrix-free** chain has no fine entry indices to
///     record, so each refresh re-traverses its rows and replays the
///     from-scratch assembly order — the same bits again, provided the
///     chain serves the entries (column set and values) its materialized
///     twin stores.
///
/// # Invalidation
///
/// A plan is valid for exactly one (fine pattern, partition) pair: any
/// change to the fine matrix's `indptr`/`indices` or to the partition
/// labels requires a rebuild. Value-only changes never invalidate it.
/// [`matches`](Self::matches) is the compatibility check.
///
/// # Precision
///
/// For strictly positive weights the gather refresh reproduces the
/// from-scratch result bit for bit. When a state has weight exactly `0.0`
/// (while its block has positive total weight), the from-scratch path
/// *drops* that state's entries before the unstable duplicate-merge sort,
/// which may permute equal-column entries differently; the refresh
/// instead keeps the full gather order, so results can differ by the
/// usual summation round-off. Both are valid aggregations.
#[derive(Debug, Clone, PartialEq)]
pub struct LumpPlan {
    fine_n: usize,
    fine_nnz: usize,
    nb: usize,
    /// Coarse CSR pattern, or the shared inner pattern of a coarse level
    /// kept in factor form.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// Transpose permutation of a materialized coarse level:
    /// `pt.data[m] = data[t_from[m]]` (empty for a factored one).
    t_from: Vec<u32>,
    refresh: Refresh,
}

/// How a plan's numeric refresh reads the fine chain.
#[derive(Debug, Clone, PartialEq)]
enum Refresh {
    /// Gather over a materialized chain's stored values.
    Gather {
        /// Per-slot extents into `src`/`row` (length `nnz() + 1`).
        ptr: Vec<usize>,
        /// Fine entry index of each gather term, in from-scratch
        /// summation order.
        src: Vec<u32>,
        /// Fine row of each gather term (the weight-share lookup).
        row: Vec<u32>,
        /// nnz-balanced blocking over the gather-list lengths, built once
        /// so every refresh dispatches over fixed, L2-sized blocks with
        /// no per-call binary searches. Cached with the plan — the sweep
        /// engine's `FactorCache` keeps plan stacks behind `Arc`s, so the
        /// blocking is shared across sweep points.
        part: par::RowPartition,
    },
    /// Row traversal of a matrix-free chain.
    Traverse {
        /// Cumulative fine entries per coarse row (length `nb + 1`) — the
        /// work prefix the group-aligned parallel refresh balances on.
        row_cost: Vec<usize>,
        /// Largest fine-entry count of any coarse row; sizes the
        /// per-worker sort scratch.
        max_row_entries: usize,
    },
    /// Block-by-block aggregation of a Kronecker-structured chain (boxed,
    /// so a materialized chain's plan keeps its size).
    Factored(Box<Factored>),
}

/// The symbolic side of the factored refresh. The fine chain is
/// `P[(o, i), (o', j)] = A_out(o, o') · R_o(i, j)` — for a Kronecker fine
/// grid `R_o(i, j) = scale(o, i) · A_in(i, j)` with `A_in` its innermost
/// lane, for a [`FactoredChain`] its stored blocks. The partition keeps
/// the first `keep` outer lanes and folds the rest, `G`, into the inner
/// block: `block((o, l, i)) = o·nb_in + f(l, i)`. Coarse inner slot
/// `(B, C)` of outer state `o` is then
/// `Σ wscale·[scale]·G(l, l')·R_(o,l)(i, j)` over its terms — members
/// `(l, i) ∈ B` ascending, then `G(l, ·)` entries, then `R(i, ·)`
/// entries — and each coarse row is scaled to a distribution, with the
/// kept lanes' row sum `rs_out(o)` folded in.
#[derive(Debug, Clone, PartialEq)]
struct Factored {
    /// The fine chain's structure, checked against it by `matches`.
    source: Source,
    /// Outer lanes kept outer: their patterns, for planning the next
    /// level and allocating its chain (values follow the chain).
    outer: Vec<CsrMatrix>,
    /// Coarse outer states, the product of the kept lanes' dimensions.
    n_out: usize,
    /// Fine states per coarse outer state: folded lanes × fine inner.
    n_in: usize,
    /// Coarse inner blocks.
    nb_in: usize,
    /// Stored entries of the folded lanes' product `G` (the unit `[1]`
    /// when nothing is folded).
    g_nnz: usize,
    /// Per coarse inner slot, extents into the term arrays (length
    /// `nnz() + 1` of the inner pattern).
    ptr: Vec<usize>,
    /// Per term, the member: a fine inner index `l·n_in_fine + i`.
    mem: Vec<u32>,
    /// Per term, the `G` entry.
    fac: Vec<u32>,
    /// Per term, the `R` value: an `A_in` entry, or `l·nnz(R) + t` into
    /// the fine level's blocks of outer states `(o, ·)`.
    src: Vec<u32>,
}

impl Factored {
    /// How far apart consecutive coarse outer states' fine blocks lie:
    /// `d_g · nnz_in` values on a factored level, 0 on a Kronecker fine
    /// grid, whose one inner lane every outer state shares.
    fn stride(&self) -> usize {
        match &self.source {
            Source::Kron(_) => 0,
            Source::Factored { n_in, nnz_in, .. } => self.n_in / n_in * nnz_in,
        }
    }

    /// Rows of a [`Batch`]'s buffers: one coefficient row per fine inner
    /// member, one transposed row per fine block value and one per slot
    /// of the longest coarse inner row.
    fn batch_lens(&self, plan: &LumpPlan) -> [usize; 3] {
        let row = plan.indptr.windows(2).map(|w| w[1] - w[0]).max();
        [self.n_in, self.stride(), row.unwrap_or(0)]
    }
}

/// The structure of a factored plan's fine chain.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Source {
    /// A matrix-free Kronecker chain: `(dimension, stored entries)` of
    /// every lane, outermost first.
    Kron(Vec<(usize, usize)>),
    /// A [`FactoredChain`]: its outer lanes' `(dimension, stored
    /// entries)`, inner dimension and inner pattern size.
    Factored {
        outer: Vec<(usize, usize)>,
        n_in: usize,
        nnz_in: usize,
    },
}

/// `(dimension, stored entries)` of each lane.
fn shape(lanes: &[CsrMatrix]) -> Vec<(usize, usize)> {
    lanes.iter().map(|f| (f.rows(), f.nnz())).collect()
}

/// Whether square lanes have the recorded shape.
fn has_shape(lanes: &[CsrMatrix], want: &[(usize, usize)]) -> bool {
    lanes.len() == want.len()
        && lanes
            .iter()
            .zip(want)
            .all(|(a, &(n, nnz))| a.rows() == n && a.cols() == n && a.nnz() == nnz)
}

/// The fine side of a factored plan: outer lanes over one inner pattern.
struct Side<'a> {
    outer: &'a [CsrMatrix],
    in_ptr: &'a [usize],
    in_idx: &'a [u32],
    /// The innermost lane's values, whose stored zeros are skipped;
    /// `None` for a factored level, whose blocks vary per outer state and
    /// whose pattern entries are all structural.
    in_vals: Option<&'a [f64]>,
    source: Source,
}

impl LumpPlan {
    /// Builds the symbolic plan for lumping `fine` with `partition`:
    /// from the stored pattern of a materialized chain, from the lanes of
    /// a matrix-free Kronecker chain or a [`FactoredChain`] level, or by
    /// traversing the rows of any other matrix-free chain.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if the partition does not
    /// cover `fine`'s state space.
    pub fn new(fine: &dyn StochasticOp, partition: &Partition) -> Result<LumpPlan> {
        if let Some(m) = fine.csr() {
            return LumpPlan::gather(m.rows(), m.indptr(), m.indices(), partition);
        }
        if let (Some(lanes), Some(_)) = (fine.kron_factors(), fine.row_scale()) {
            if let Some((a_in, outer)) = lanes.split_last() {
                return LumpPlan::factored(
                    Side {
                        outer,
                        in_ptr: a_in.indptr(),
                        in_idx: a_in.indices(),
                        in_vals: Some(a_in.data()),
                        source: Source::Kron(shape(lanes)),
                    },
                    partition,
                );
            }
        }
        match fine.factored() {
            Some(fc) => LumpPlan::factored(
                Side {
                    outer: &fc.outer,
                    in_ptr: &fc.indptr,
                    in_idx: &fc.indices,
                    in_vals: None,
                    source: Source::Factored {
                        outer: shape(&fc.outer),
                        n_in: fc.n_in,
                        nnz_in: fc.indices.len(),
                    },
                },
                partition,
            ),
            None => LumpPlan::traverse(fine, partition),
        }
    }

    /// The plan for lumping this plan's coarse level with `partition`,
    /// from the pattern alone — which is what lets a whole plan *stack*
    /// be built without intermediate numeric matrices.
    fn next(&self, partition: &Partition) -> Result<LumpPlan> {
        match &self.refresh {
            Refresh::Factored(f) if !f.outer.is_empty() => LumpPlan::factored(
                Side {
                    outer: &f.outer,
                    in_ptr: &self.indptr,
                    in_idx: &self.indices,
                    in_vals: None,
                    source: Source::Factored {
                        outer: shape(&f.outer),
                        n_in: f.nb_in,
                        nnz_in: self.indices.len(),
                    },
                },
                partition,
            ),
            _ => LumpPlan::gather(self.nb, &self.indptr, &self.indices, partition),
        }
    }

    /// The gather plan for a raw fine CSR pattern.
    fn gather(
        n: usize,
        indptr: &[usize],
        indices: &[u32],
        partition: &Partition,
    ) -> Result<LumpPlan> {
        if partition.n() != n || indptr.len() != n + 1 {
            return Err(MarkovError::InvalidArgument(
                "partition size does not match state count".into(),
            ));
        }
        let nnz = indptr[n];
        let nb = partition.block_count();
        // Replay of the from-scratch assembly, applied to entry *indices*
        // instead of values. Step 1: counting sort of the (coarse row,
        // coarse col, fine entry) triplets by coarse row — stable by fine
        // insertion order, exactly like `CooMatrix::to_csr`.
        let mut row_counts = vec![0usize; nb + 1];
        for i in 0..n {
            row_counts[partition.block_of(i) + 1] += indptr[i + 1] - indptr[i];
        }
        for b in 0..nb {
            row_counts[b + 1] += row_counts[b];
        }
        let mut next = row_counts.clone();
        let mut cols_buf = vec![0u32; nnz];
        let mut ent_buf = vec![0u32; nnz];
        for i in 0..n {
            let bi = partition.block_of(i);
            for (k, &j) in indices
                .iter()
                .enumerate()
                .take(indptr[i + 1])
                .skip(indptr[i])
            {
                let slot = next[bi];
                cols_buf[slot] = partition.block_of(j as usize) as u32;
                ent_buf[slot] = k as u32;
                next[bi] += 1;
            }
        }
        // Step 2: per coarse row, the same `sort_unstable_by_key` the
        // COO→CSR merge runs. The scratch element type is deliberately
        // `(u32, f64)` — identical to the value path — because the
        // unstable sort's permutation of equal keys can depend on the
        // element type; the fine entry index rides in the f64 payload
        // (entry counts are far below 2^53, so the round trip is exact).
        let mut c_indptr = Vec::with_capacity(nb + 1);
        c_indptr.push(0usize);
        let mut c_indices: Vec<u32> = Vec::new();
        let mut ptr = vec![0usize];
        let mut src: Vec<u32> = Vec::new();
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for b in 0..nb {
            let (lo, hi) = (row_counts[b], row_counts[b + 1]);
            scratch.clear();
            scratch.extend(
                cols_buf[lo..hi]
                    .iter()
                    .copied()
                    .zip(ent_buf[lo..hi].iter().map(|&k| k as f64)),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                while i < scratch.len() && scratch[i].0 == c {
                    src.push(scratch[i].1 as u32);
                    i += 1;
                }
                c_indices.push(c);
                ptr.push(src.len());
            }
            c_indptr.push(c_indices.len());
        }
        // Step 3: the fine row of each gather term, read from a
        // row-of-entry table filled in one pass over `indptr`; it reuses
        // the column buffer, which step 2 has consumed.
        let mut row_of = cols_buf;
        for i in 0..n {
            row_of[indptr[i]..indptr[i + 1]].fill(i as u32);
        }
        let row: Vec<u32> = src.iter().map(|&k| row_of[k as usize]).collect();
        let part = par::RowPartition::from_weight_prefix(&ptr);
        Ok(LumpPlan::with_pattern(
            n,
            nnz,
            c_indptr,
            c_indices,
            Refresh::Gather {
                ptr,
                src,
                row,
                part,
            },
        ))
    }

    /// The factored plan. It keeps the most outer lanes `keep` for which
    /// the partition lumps only states of one outer state,
    /// `block((o, i)) = o·nb_in + f(i)` (checked in O(n); keeping none
    /// always qualifies), folds the other outer lanes into the inner
    /// block, and records per coarse inner slot its gather terms in
    /// summation order. With no lane kept the coarse level is
    /// materialized.
    fn factored(side: Side<'_>, partition: &Partition) -> Result<LumpPlan> {
        let n_fine_in = side.in_ptr.len() - 1;
        let dims: Vec<usize> = side.outer.iter().map(CsrMatrix::rows).collect();
        let n = dims.iter().product::<usize>() * n_fine_in;
        if partition.n() != n {
            return Err(MarkovError::InvalidArgument(
                "partition size does not match state count".into(),
            ));
        }
        let labels = partition.labels();
        let (keep, n_in, nb_in) = (0..=dims.len())
            .rev()
            .find_map(|keep| {
                let n_in = dims[keep..].iter().product::<usize>() * n_fine_in;
                let inner = &labels[..n_in];
                let nb_in = inner.iter().max()? + 1;
                let lumps_inner = partition.block_count() == (n / n_in) * nb_in
                    && labels
                        .chunks(n_in)
                        .enumerate()
                        .all(|(o, ls)| ls.iter().zip(inner).all(|(&l, &f)| l == o * nb_in + f));
                lumps_inner.then_some((keep, n_in, nb_in))
            })
            .expect("keeping no outer lane always qualifies");
        // The folded lanes' product G, entry by entry in CSR order — the
        // order the refresh recomputes its values in.
        let fold = &side.outer[keep..];
        let mut g_ptr = vec![0usize];
        let mut g_col: Vec<u32> = Vec::new();
        let mut g_nonzero: Vec<bool> = Vec::new();
        for l in 0..n_in / n_fine_in {
            kron_row(fold, l, 0, 1.0, &mut |c, v| {
                g_col.push(c as u32);
                g_nonzero.push(v != 0.0);
            });
            g_ptr.push(g_col.len());
        }
        // Per coarse inner row, its terms keyed by coarse column; the
        // stable sort keeps members ascending, then G entries, then R
        // entries within each column.
        let nnz_r = side.in_idx.len();
        let mut c_indptr = vec![0usize];
        let mut c_indices: Vec<u32> = Vec::new();
        let mut ptr = vec![0usize];
        let (mut mem, mut fac, mut src) = (Vec::new(), Vec::new(), Vec::new());
        let mut terms: Vec<(u32, u32, u32, u32)> = Vec::new();
        for b in 0..nb_in {
            terms.clear();
            for &m in partition.block_members(b) {
                let (l, i) = (m / n_fine_in, m % n_fine_in);
                for g in (g_ptr[l]..g_ptr[l + 1]).filter(|&g| g_nonzero[g]) {
                    let base = g_col[g] as usize * n_fine_in;
                    for t in side.in_ptr[i]..side.in_ptr[i + 1] {
                        let s = match side.in_vals {
                            Some(v) if v[t] == 0.0 => continue,
                            Some(_) => t,
                            None => l * nnz_r + t,
                        };
                        let c = labels[base + side.in_idx[t] as usize] as u32;
                        terms.push((c, m as u32, g as u32, s as u32));
                    }
                }
            }
            terms.sort_by_key(|e| e.0);
            let mut k = 0;
            while k < terms.len() {
                let c = terms[k].0;
                while k < terms.len() && terms[k].0 == c {
                    mem.push(terms[k].1);
                    fac.push(terms[k].2);
                    src.push(terms[k].3);
                    k += 1;
                }
                c_indices.push(c);
                ptr.push(mem.len());
            }
            c_indptr.push(c_indices.len());
        }
        let n_out = n / n_in;
        let f = Factored {
            source: side.source,
            outer: side.outer[..keep].to_vec(),
            n_out,
            n_in,
            nb_in,
            g_nnz: g_col.len(),
            ptr,
            mem,
            fac,
            src,
        };
        let fine_nnz = n_out * f.mem.len();
        Ok(if keep == 0 {
            LumpPlan::with_pattern(
                n,
                fine_nnz,
                c_indptr,
                c_indices,
                Refresh::Factored(Box::new(f)),
            )
        } else {
            LumpPlan {
                fine_n: n,
                fine_nnz,
                nb: partition.block_count(),
                indptr: c_indptr,
                indices: c_indices,
                t_from: Vec::new(),
                refresh: Refresh::Factored(Box::new(f)),
            }
        })
    }

    /// The traversal plan for a matrix-free chain: the coarse pattern
    /// from one pass over its rows, block by block.
    fn traverse(fine: &dyn StochasticOp, partition: &Partition) -> Result<LumpPlan> {
        let n = fine.rows();
        if partition.n() != n {
            return Err(MarkovError::InvalidArgument(
                "partition size does not match state count".into(),
            ));
        }
        let nb = partition.block_count();
        let mut c_indptr = vec![0usize];
        let mut c_indices: Vec<u32> = Vec::new();
        let mut row_cost = vec![0usize; nb + 1];
        let mut max_row_entries = 0usize;
        let mut scratch: Vec<u32> = Vec::new();
        for b in 0..nb {
            scratch.clear();
            for &i in partition.block_members(b) {
                fine.for_each_in_row(i, &mut |j, _| {
                    scratch.push(partition.block_of(j) as u32);
                });
            }
            row_cost[b + 1] = row_cost[b] + scratch.len();
            max_row_entries = max_row_entries.max(scratch.len());
            scratch.sort_unstable();
            scratch.dedup();
            c_indices.extend_from_slice(&scratch);
            c_indptr.push(c_indices.len());
        }
        Ok(LumpPlan::with_pattern(
            n,
            row_cost[nb],
            c_indptr,
            c_indices,
            Refresh::Traverse {
                row_cost,
                max_row_entries,
            },
        ))
    }

    /// Completes a plan whose coarse level is materialized, from its
    /// coarse pattern, with the transpose placement — a counting sort by
    /// coarse column, rows ascending, mirroring `CsrMatrix::transpose`.
    fn with_pattern(
        fine_n: usize,
        fine_nnz: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        refresh: Refresh,
    ) -> LumpPlan {
        let nb = indptr.len() - 1;
        let mut t_counts = vec![0usize; nb + 1];
        for &c in &indices {
            t_counts[c as usize + 1] += 1;
        }
        for b in 0..nb {
            t_counts[b + 1] += t_counts[b];
        }
        let mut t_from = vec![0u32; indices.len()];
        let mut t_next = t_counts;
        for (k, &c) in indices.iter().enumerate() {
            let slot = t_next[c as usize];
            t_from[slot] = k as u32;
            t_next[c as usize] += 1;
        }
        LumpPlan {
            fine_n,
            fine_nnz,
            nb,
            indptr,
            indices,
            t_from,
            refresh,
        }
    }

    /// Builds the plan stack for a whole coarsening hierarchy: plan `0`
    /// lumps `fine` with `partitions[0]` ([`new`](Self::new)), and each
    /// level `k + 1` plans from plan `k`'s coarse pattern — a gather plan
    /// under a materialized level, a factored plan under one kept in
    /// factor form — so no numeric matrices are needed.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidArgument`] if any partition does not
    /// chain (`partitions[k].n()` must equal the previous block count).
    pub fn build_stack(fine: &dyn StochasticOp, partitions: &[Partition]) -> Result<Vec<LumpPlan>> {
        let mut plans: Vec<LumpPlan> = Vec::with_capacity(partitions.len());
        for part in partitions {
            let plan = match plans.last() {
                None => LumpPlan::new(fine, part)?,
                Some(prev) => prev.next(part)?,
            };
            plans.push(plan);
        }
        Ok(plans)
    }

    /// Whether this plan can refresh from `fine`: the same state count,
    /// and a refresh that fits the chain's storage — a gather plan needs
    /// a materialized chain with the planned entry count, a factored plan
    /// a chain of the planned structure (a matrix-free Kronecker chain
    /// with lanes of the planned dimensions and entry counts, or a
    /// [`FactoredChain`] with the planned outer lanes and inner pattern
    /// size), a traversal plan any matrix-free chain. Values never
    /// matter; a matrix-free chain's pattern cannot be cross-checked
    /// cheaply, so callers keep it fixed across reuse.
    pub fn matches(&self, fine: &dyn StochasticOp) -> bool {
        self.fine_n == fine.rows()
            && match (&self.refresh, fine.csr()) {
                (Refresh::Gather { .. }, Some(m)) => m.nnz() == self.fine_nnz,
                (Refresh::Factored(f), None) => match &f.source {
                    Source::Kron(lanes) => {
                        fine.row_scale().is_some()
                            && fine.kron_factors().is_some_and(|fs| has_shape(fs, lanes))
                    }
                    Source::Factored {
                        outer,
                        n_in,
                        nnz_in,
                    } => fine.factored().is_some_and(|fc| {
                        has_shape(&fc.outer, outer)
                            && fc.n_in == *n_in
                            && fc.indices.len() == *nnz_in
                    }),
                },
                (Refresh::Traverse { .. }, None) => true,
                _ => false,
            }
    }

    /// Fine state count the plan was built for.
    pub fn fine_n(&self) -> usize {
        self.fine_n
    }

    /// Fine entries the plan folds: the stored count of a materialized
    /// chain, the traversed count of a matrix-free one, the gather terms
    /// of every outer state of a factored one.
    pub fn fine_nnz(&self) -> usize {
        self.fine_nnz
    }

    /// Number of coarse blocks.
    pub fn block_count(&self) -> usize {
        self.nb
    }

    /// Stored values of the coarse level: its CSR entries, or for one
    /// kept in factor form its inner blocks, `n_out · nnz(inner pattern)`.
    pub fn nnz(&self) -> usize {
        match &self.refresh {
            Refresh::Factored(f) if !f.outer.is_empty() => f.n_out * self.indices.len(),
            _ => self.indices.len(),
        }
    }

    /// The coarse CSR pattern `(indptr, indices)`, or the shared inner
    /// pattern of a coarse level kept in factor form.
    pub fn pattern(&self) -> (&[usize], &[u32]) {
        (&self.indptr, &self.indices)
    }

    /// For a plan whose coarse level stays in factor form, its outer
    /// lanes (patterns; the chain's values follow the fine chain) and
    /// inner dimension; `None` when the coarse level is materialized.
    pub fn factored_output(&self) -> Option<(&[CsrMatrix], usize)> {
        match &self.refresh {
            Refresh::Factored(f) if !f.outer.is_empty() => Some((&f.outer, f.nb_in)),
            _ => None,
        }
    }
}

/// Preallocated numeric buffers for [`lump_weighted_into`] and
/// [`lump_factored_into`].
///
/// After a refresh with weights `w`, the buffers double as the
/// aggregation/disaggregation operators for the *same* `w`:
/// [`block_weight`](Self::block_weight) holds the per-block weight totals
/// (`aggregate(partition, w)` unnormalized) and
/// [`wscale`](Self::wscale) the per-state shares
/// (`w[i] / W_block`, uniform for zero-weight blocks) — exactly the
/// factors [`disaggregate`] recomputes from scratch.
#[derive(Debug)]
pub struct LumpWorkspace {
    block_weight: Vec<f64>,
    wscale: Vec<f64>,
    scratch: RowScratch,
}

/// The buffers a plan's refresh arm needs, each preallocated so the
/// refresh never grows them.
#[derive(Debug)]
enum RowScratch {
    /// A gather refresh needs none.
    None,
    /// Per-worker sort buffers for the traversal refresh.
    Traverse(Vec<Vec<(u32, f64)>>),
    /// The factored refresh's buffers (boxed, so a gather workspace
    /// keeps its size).
    Factored(Box<FactoredScratch>),
}

/// The factored refresh's buffers: the folded lanes' product values, the
/// kept lanes' joint row sums and one set of batch buffers per worker.
#[derive(Debug)]
struct FactoredScratch {
    g: Vec<f64>,
    rs: Vec<f64>,
    batches: Vec<Mutex<Batch>>,
}

/// Outer states the factored refresh gathers in one pass over the shared
/// term list. The outer state is the innermost, contiguous index of the
/// batch buffers, so each term's multiply-add runs over `BATCH` values,
/// which the compiler vectorizes.
const BATCH: usize = 16;

/// One worker's buffers for a batch of outer states, `BATCH` values per
/// row with the outer state innermost.
#[derive(Debug, Default)]
struct Batch {
    /// Per fine inner member `m`, each outer state's coefficient:
    /// `wscale·scale` from a Kronecker fine grid, `wscale` from a
    /// factored level (`n_in` rows).
    coef: Vec<f64>,
    /// A factored fine level's blocks of the batch, transposed (`d_g ·
    /// nnz_in` rows); empty for a Kronecker fine grid, whose inner lane
    /// every outer state shares.
    r: Vec<f64>,
    /// One coarse inner row's slot values (longest row's length in rows).
    row: Vec<f64>,
}

impl Batch {
    /// Buffers for `lens = [coef, r, row]` rows of `BATCH` values each.
    fn new(lens: [usize; 3]) -> Self {
        Batch {
            coef: vec![0.0; lens[0] * BATCH],
            r: vec![0.0; lens[1] * BATCH],
            row: vec![0.0; lens[2] * BATCH],
        }
    }

    fn fits(&self, lens: [usize; 3]) -> bool {
        [&self.coef, &self.r, &self.row]
            .iter()
            .zip(lens)
            .all(|(b, len)| b.len() == len * BATCH)
    }
}

impl LumpWorkspace {
    /// Allocates buffers sized for `plan`, including one sort buffer (or
    /// set of batch buffers) per worker thread when the plan refreshes by
    /// traversal (or in factor form).
    pub fn for_plan(plan: &LumpPlan) -> Self {
        let workers = par::threads().max(1);
        let scratch = match &plan.refresh {
            Refresh::Gather { .. } => RowScratch::None,
            Refresh::Traverse {
                max_row_entries, ..
            } => RowScratch::Traverse(
                (0..workers)
                    .map(|_| Vec::with_capacity(*max_row_entries))
                    .collect(),
            ),
            Refresh::Factored(f) => RowScratch::Factored(Box::new(FactoredScratch {
                g: Vec::with_capacity(f.g_nnz),
                rs: vec![0.0; f.n_out],
                batches: (0..workers)
                    .map(|_| Mutex::new(Batch::new(f.batch_lens(plan))))
                    .collect(),
            })),
        };
        LumpWorkspace {
            block_weight: vec![0.0; plan.nb],
            wscale: vec![0.0; plan.fine_n],
            scratch,
        }
    }

    /// Per-block weight totals from the last refresh.
    pub fn block_weight(&self) -> &[f64] {
        &self.block_weight
    }

    /// Per-state weight shares from the last refresh.
    pub fn wscale(&self) -> &[f64] {
        &self.wscale
    }
}

/// Weight validation shared by the from-scratch lumping and the refresh.
fn validate_weights(n: usize, w: &[f64]) -> Result<()> {
    if w.len() != n {
        return Err(MarkovError::InvalidArgument(
            "weight vector length mismatch".into(),
        ));
    }
    if w.iter().any(|&x| x < 0.0 || !x.is_finite()) {
        return Err(MarkovError::InvalidArgument(
            "weights must be non-negative".into(),
        ));
    }
    Ok(())
}

/// Phases 1–2 of the numeric refresh: per-block weight totals (gathered
/// in ascending member order, same as [`block_weights`]) and per-state
/// shares (zero-weight blocks fall back to uniform).
fn refresh_shares(partition: &Partition, w: &[f64], block_weight: &mut [f64], wscale: &mut [f64]) {
    par::for_each_chunk_mut(block_weight, |b0, chunk| {
        for (k, acc) in chunk.iter_mut().enumerate() {
            let mut s = 0.0;
            for &i in partition.block_members(b0 + k) {
                s += w[i];
            }
            *acc = s;
        }
    });
    let bw = &*block_weight;
    par::for_each_chunk_mut(wscale, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            let b = partition.block_of(i);
            *o = if bw[b] > 0.0 {
                w[i] / bw[b]
            } else {
                1.0 / partition.block_members(b).len() as f64
            };
        }
    });
}

/// The checks every refresh runs before touching a value: the plan fits
/// the chain and partition, the weights are valid, and the workspace was
/// built for the plan's refresh arm.
fn check_refresh(
    fine: &dyn StochasticOp,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &LumpWorkspace,
) -> Result<()> {
    let n = fine.rows();
    if partition.n() != n || !plan.matches(fine) {
        return Err(MarkovError::InvalidArgument(
            "lump plan does not match the fine chain/partition".into(),
        ));
    }
    validate_weights(n, w)?;
    let fits = match (&plan.refresh, &ws.scratch) {
        (Refresh::Gather { .. }, _) => true,
        (Refresh::Traverse { .. }, RowScratch::Traverse(bufs)) => !bufs.is_empty(),
        (Refresh::Factored(f), RowScratch::Factored(fs)) => fs.rs.len() == f.n_out,
        _ => false,
    };
    if !fits || ws.block_weight.len() != plan.nb || ws.wscale.len() != n {
        return Err(MarkovError::InvalidArgument(
            "workspace does not fit this plan; build it with LumpWorkspace::for_plan".into(),
        ));
    }
    Ok(())
}

/// Numeric-only refresh of a weighted lumping into a materialized coarse
/// level: recomputes the values of `out` (pattern fixed by `plan`) from
/// the fine chain and weights `w`, with **zero heap allocations**.
///
/// A materialized fine chain refreshes by the plan's slot gather over its
/// stored values, nnz-balanced across workers. A Kronecker-structured
/// fine chain whose partition leaves no outer lane (see
/// [`lump_factored_into`] for the arm) gathers its coarse rows term by
/// term. Any other matrix-free chain rebuilds each coarse row by
/// re-traversing its member rows (ascending members, entries in column
/// order), pushing `(coarse column, wscale_i · value)` pairs into a
/// preallocated per-worker buffer, sorting with the same unstable key
/// sort the from-scratch COO assembly runs, and summing runs in place.
/// The gather and traversal arms sum in the from-scratch order, so they
/// are bit-identical to [`lump_weighted`] for strictly positive weights
/// (see [`LumpPlan`] for the zero-weight caveat); the factored arm sums
/// in factored order and agrees with them to rounding. Every arm writes
/// each coarse row on one worker, so each gives the same bits at any
/// thread count. The cached transpose is refreshed last.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidArgument`] for the same malformed-weight
/// conditions as [`lump_weighted`], if the plan does not
/// [match](LumpPlan::matches) `fine` or the partition, if `out` does not
/// have the plan's coarse pattern (or the plan keeps its coarse level in
/// factor form), or if the workspace was not built for the plan.
pub fn lump_weighted_into(
    fine: &dyn StochasticOp,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &mut LumpWorkspace,
    out: &mut StochasticMatrix,
) -> Result<()> {
    check_refresh(fine, partition, w, plan, ws)?;
    if out.n() != plan.nb || out.nnz() != plan.nnz() || plan.factored_output().is_some() {
        return Err(MarkovError::InvalidArgument(
            "output matrix does not match the plan's coarse pattern".into(),
        ));
    }
    let LumpWorkspace {
        block_weight,
        wscale,
        scratch,
    } = ws;
    refresh_shares(partition, w, block_weight, wscale);
    let wscale = &*wscale;
    // Phase 3: every coarse value is computed wholly by one worker in a
    // fixed order.
    let (pm, ptm) = out.parts_mut();
    let data = pm.data_mut();
    match (&plan.refresh, fine.csr(), scratch) {
        (
            Refresh::Gather {
                ptr,
                src,
                row,
                part,
            },
            Some(m),
            _,
        ) => {
            let vals = m.data();
            par::for_each_partition_mut(data, part, |start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let s = start + k;
                    let mut sum = 0.0;
                    for t in ptr[s]..ptr[s + 1] {
                        sum += wscale[row[t] as usize] * vals[src[t] as usize];
                    }
                    *slot = sum;
                }
            });
            renormalize(plan, data);
        }
        (Refresh::Factored(f), None, RowScratch::Factored(fs)) => {
            refresh_factored(fine, plan, f, wscale, fs, &mut [], data);
        }
        (Refresh::Traverse { row_cost, .. }, None, RowScratch::Traverse(bufs)) => {
            par::for_each_grouped_chunk_mut(
                data,
                &plan.indptr,
                row_cost,
                bufs,
                |rows, chunk, scratch| {
                    let base = plan.indptr[rows.start];
                    for b in rows {
                        scratch.clear();
                        for &i in partition.block_members(b) {
                            let wi = wscale[i];
                            fine.for_each_in_row(i, &mut |j, v| {
                                scratch.push((partition.block_of(j) as u32, wi * v));
                            });
                        }
                        scratch.sort_unstable_by_key(|&(c, _)| c);
                        let row_out = &mut chunk[plan.indptr[b] - base..plan.indptr[b + 1] - base];
                        let mut s = 0usize;
                        for slot in row_out.iter_mut() {
                            let c = scratch[s].0;
                            let mut sum = 0.0;
                            while s < scratch.len() && scratch[s].0 == c {
                                sum += scratch[s].1;
                                s += 1;
                            }
                            *slot = sum;
                        }
                        debug_assert_eq!(s, scratch.len(), "coarse row {b} out of sync");
                    }
                },
            );
            renormalize(plan, data);
        }
        _ => unreachable!("LumpPlan::matches and the scratch check pair each refresh arm"),
    }
    // Phase 5: refresh the cached transpose through the precomputed
    // permutation.
    let data = pm.data();
    let t_data = ptm.data_mut();
    par::for_each_chunk_mut(t_data, |start, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = data[plan.t_from[start + k] as usize];
        }
    });
    Ok(())
}

/// Numeric-only refresh of a coarse level kept in factor form, with
/// **zero heap allocations**: the outer lanes take the fine chain's
/// current values, and every block `R_o` is gathered term by term from
/// the fine chain's blocks (for a Kronecker fine grid, its innermost
/// lane scaled by the row scale), folding any lanes the partition
/// aggregates, with each row's renormalization folded in. Each outer
/// state's block is written by one worker in a fixed order, so the
/// refresh gives the same bits at any thread count, and agrees with the
/// gather and traversal arms over the same chain to rounding.
///
/// # Errors
///
/// Same conditions as [`lump_weighted_into`], with `out` checked against
/// the plan's outer lanes and inner pattern.
pub fn lump_factored_into(
    fine: &dyn StochasticOp,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &mut LumpWorkspace,
    out: &mut FactoredChain,
) -> Result<()> {
    check_refresh(fine, partition, w, plan, ws)?;
    let fits = plan.factored_output().is_some_and(|(outer, n_in)| {
        out.n_in == n_in
            && out.indices.len() == plan.indices.len()
            && out.outer.len() == outer.len()
            && (out.outer.iter().zip(outer))
                .all(|(a, b)| a.rows() == b.rows() && a.nnz() == b.nnz())
    });
    let LumpWorkspace {
        block_weight,
        wscale,
        scratch,
    } = ws;
    let (Refresh::Factored(f), RowScratch::Factored(fs), true) = (&plan.refresh, scratch, fits)
    else {
        return Err(MarkovError::InvalidArgument(
            "factored chain does not match the plan's coarse level".into(),
        ));
    };
    refresh_shares(partition, w, block_weight, wscale);
    refresh_factored(fine, plan, f, wscale, fs, &mut out.outer, &mut out.values);
    Ok(())
}

/// The factored refresh arm (see [`Factored`]): writes every coarse
/// block of `values` — outer-major, `n_out · nnz(inner pattern)` — and
/// copies the kept outer lanes' values into `outer` (empty when the
/// coarse level is materialized).
///
/// Each worker refreshes its chunk of outer states [`BATCH`] at a time in
/// one pass over the shared term list, and a chunk's last `n mod BATCH`
/// outer states one at a time through the same kernel. Every value takes
/// the same products in the same order whatever its batch, so the bits
/// do not depend on the chunk boundaries, hence not on the thread count.
fn refresh_factored(
    fine: &dyn StochasticOp,
    plan: &LumpPlan,
    f: &Factored,
    wscale: &[f64],
    fs: &mut FactoredScratch,
    outer: &mut [CsrMatrix],
    values: &mut [f64],
) {
    let (lanes, blocks) = fine_blocks(fine, f);
    let (kept, fold) = lanes.split_at(f.outer.len());
    for (dst, src) in outer.iter_mut().zip(kept) {
        dst.data_mut().copy_from_slice(src.data());
    }
    let FactoredScratch { g, rs, batches } = fs;
    let d_g: usize = fold.iter().map(CsrMatrix::rows).product();
    g.clear();
    for l in 0..d_g {
        kron_row(fold, l, 0, 1.0, &mut |_, v| g.push(v));
    }
    // Joint row sums of the kept lanes, Π_l rs_l(o_l), expanded in place
    // outermost first (each write lands at or after the entry it reads).
    rs[0] = 1.0;
    let mut len = 1usize;
    for lane in kept {
        let m = lane.rows();
        for i in (0..len).rev() {
            let a = rs[i];
            for j in (0..m).rev() {
                rs[i * m + j] = a * lane.row(j).map(|(_, v)| v).sum::<f64>();
            }
        }
        len *= m;
    }
    let gather = Gather {
        f,
        indptr: &plan.indptr,
        blocks,
        wscale,
        g,
        rs,
    };
    let lens = f.batch_lens(plan);
    let nnz_c = plan.indices.len().max(1);
    par::for_each_chunk_aligned_mut(values, nnz_c, |start, chunk| {
        // A free slot when the workspace was sized for this worker count;
        // fresh buffers otherwise (more workers than when it was built).
        let mut slot = batches
            .iter()
            .find_map(|b| b.try_lock().ok())
            .filter(|b| b.fits(lens));
        let mut spare;
        let buf = match slot.as_deref_mut() {
            Some(b) => b,
            None => {
                spare = Batch::new(lens);
                &mut spare
            }
        };
        let o0 = start / nnz_c;
        let full = chunk.len() / nnz_c / BATCH * BATCH;
        let (head, tail) = chunk.split_at_mut(full * nnz_c);
        for (k, out) in head.chunks_exact_mut(BATCH * nnz_c).enumerate() {
            gather.outer::<BATCH>(o0 + k * BATCH, buf, out);
        }
        for (k, out) in tail.chunks_exact_mut(nnz_c).enumerate() {
            gather.outer::<1>(o0 + full + k, buf, out);
        }
    });
}

/// The fine chain's outer lanes and block values, as a factored plan
/// reads them.
fn fine_blocks<'a>(fine: &'a dyn StochasticOp, f: &Factored) -> (&'a [CsrMatrix], Blocks<'a>) {
    match &f.source {
        Source::Kron(_) => {
            let (Some(lanes), Some(scale)) = (fine.kron_factors(), fine.row_scale()) else {
                unreachable!("LumpPlan::matches checked the lanes and the row scale")
            };
            let (a_in, outer) = lanes.split_last().expect("matched lanes are non-empty");
            let a_in = a_in.data();
            (outer, Blocks::Kron { a_in, scale })
        }
        Source::Factored { .. } => {
            let fc = fine
                .factored()
                .expect("LumpPlan::matches checked the level");
            let stride = f.stride();
            let values = &fc.values[..];
            (&fc.outer[..], Blocks::Factored { values, stride })
        }
    }
}

/// The `R` values of a factored plan's fine chain.
#[derive(Clone, Copy)]
enum Blocks<'a> {
    /// A Kronecker fine grid: its innermost lane, which every outer state
    /// shares, and its row scale.
    Kron { a_in: &'a [f64], scale: &'a [f64] },
    /// A factored level: its blocks, coarse outer state `o`'s from
    /// `o · stride`.
    Factored { values: &'a [f64], stride: usize },
}

/// What one factored refresh reads, shared by its workers.
struct Gather<'a> {
    f: &'a Factored,
    /// The coarse inner pattern's row extents.
    indptr: &'a [usize],
    blocks: Blocks<'a>,
    wscale: &'a [f64],
    /// The folded lanes' product values.
    g: &'a [f64],
    /// The kept lanes' joint row sums.
    rs: &'a [f64],
}

impl Gather<'_> {
    /// The coarse blocks of the `W` outer states from `o0` into `out`
    /// (outer-major, `W · nnz(inner pattern)` values). Each slot sums its
    /// terms `(coef · G) · R` in plan order from `+0.0`, and each row is
    /// scaled by the guarded `1 / (rs_out · Σ row)` so the joint row sums
    /// to one. The outer state is the innermost index of the batch
    /// buffers, so a term's multiply-adds run over `W` contiguous values,
    /// and each value takes the products and order of a one-state pass.
    fn outer<const W: usize>(&self, o0: usize, buf: &mut Batch, out: &mut [f64]) {
        let (f, n_in) = (self.f, self.f.n_in);
        let (coef, _) = buf.coef.as_chunks_mut::<W>();
        let (r, _) = buf.r.as_chunks_mut::<W>();
        let (row, _) = buf.row.as_chunks_mut::<W>();
        for q in 0..W {
            let m0 = (o0 + q) * n_in;
            let w = &self.wscale[m0..m0 + n_in];
            match self.blocks {
                Blocks::Kron { scale, .. } => {
                    for (c, (&w, &s)) in coef.iter_mut().zip(w.iter().zip(&scale[m0..])) {
                        c[q] = w * s;
                    }
                }
                Blocks::Factored { .. } => {
                    for (c, &w) in coef.iter_mut().zip(w) {
                        c[q] = w;
                    }
                }
            }
        }
        // A factored level's blocks of the batch, transposed value by
        // value, so the writes run along the contiguous outer-state index.
        if let Blocks::Factored { values, stride } = self.blocks {
            let rows: [&[f64]; W] =
                std::array::from_fn(|q| &values[(o0 + q) * stride..(o0 + q + 1) * stride]);
            for (t, r) in r.iter_mut().take(stride).enumerate() {
                for q in 0..W {
                    r[q] = rows[q][t];
                }
            }
        }
        let (coef, r) = (&*coef, &*r);
        let nnz_c = out.len() / W;
        for b in 0..f.nb_in {
            let (lo, hi) = (self.indptr[b], self.indptr[b + 1]);
            let mut sum = [0.0; W];
            for (s, slot) in (lo..hi).zip(row.iter_mut()) {
                let mut v = [0.0; W];
                let t = f.ptr[s]..f.ptr[s + 1];
                let terms = (f.mem[t.clone()].iter())
                    .zip(&f.fac[t.clone()])
                    .zip(&f.src[t]);
                match self.blocks {
                    Blocks::Kron { a_in, .. } => {
                        for ((&m, &fac), &src) in terms {
                            let (c, g, a) =
                                (&coef[m as usize], self.g[fac as usize], a_in[src as usize]);
                            for q in 0..W {
                                v[q] += (c[q] * g) * a;
                            }
                        }
                    }
                    Blocks::Factored { .. } => {
                        for ((&m, &fac), &src) in terms {
                            let (c, g, r) =
                                (&coef[m as usize], self.g[fac as usize], &r[src as usize]);
                            for q in 0..W {
                                v[q] += (c[q] * g) * r[q];
                            }
                        }
                    }
                }
                for q in 0..W {
                    sum[q] += v[q];
                }
                *slot = v;
            }
            for (q, block) in out.chunks_exact_mut(nnz_c).enumerate() {
                let dst = &mut block[lo..hi];
                let total = self.rs[o0 + q] * sum[q];
                if total > 0.0 {
                    let inv = 1.0 / total;
                    for (d, v) in dst.iter_mut().zip(&*row) {
                        *d = v[q] * inv;
                    }
                } else {
                    for (d, v) in dst.iter_mut().zip(&*row) {
                        *d = v[q];
                    }
                }
            }
        }
    }
}

/// One outer state's coarse block, term by term: each slot sums its terms
/// `coef(member) · G · R` in plan order, then each row is scaled so the
/// joint row, `rs_out` times the block row, sums to one. The scalar
/// oracle the batched refresh ([`Gather::outer`]) is pinned against.
#[cfg(test)]
fn gather_block(
    f: &Factored,
    plan: &LumpPlan,
    rs_out: f64,
    block: &mut [f64],
    g: &[f64],
    src: &[f64],
    coef: impl Fn(usize) -> f64,
) {
    for b in 0..f.nb_in {
        let slots = plan.indptr[b]..plan.indptr[b + 1];
        let mut sum = 0.0;
        for s in slots.clone() {
            let mut v = 0.0;
            for k in f.ptr[s]..f.ptr[s + 1] {
                v += coef(f.mem[k] as usize) * g[f.fac[k] as usize] * src[f.src[k] as usize];
            }
            block[s] = v;
            sum += v;
        }
        let total = rs_out * sum;
        if total > 0.0 {
            let inv = 1.0 / total;
            for v in &mut block[slots] {
                *v *= inv;
            }
        }
    }
}

/// Phase 4 of the gather and traversal refreshes: the two row-scaling
/// passes of the from-scratch path, in order — `fix_row_sums` (guarded
/// inverse) then the unconditional renormalization
/// `StochasticMatrix::with_tolerance` performs; serial, O(coarse nnz).
fn renormalize(plan: &LumpPlan, data: &mut [f64]) {
    for b in 0..plan.nb {
        let row = &mut data[plan.indptr[b]..plan.indptr[b + 1]];
        let s: f64 = row.iter().sum();
        let f = if s > 0.0 { 1.0 / s } else { 1.0 };
        for v in row.iter_mut() {
            *v *= f;
        }
        let row = &mut data[plan.indptr[b]..plan.indptr[b + 1]];
        let s2: f64 = row.iter().sum();
        let f2 = 1.0 / s2;
        for v in row.iter_mut() {
            *v *= f2;
        }
    }
}

/// Allocates a materialized coarse matrix from the plan's pattern and
/// refreshes it via [`lump_weighted_into`] — the allocating entry point
/// for callers that hold a plan but no matrix yet (hierarchy setup). A
/// plan that keeps its coarse level in factor form allocates it with
/// [`FactoredChain::for_plan`] instead.
///
/// # Errors
///
/// Same as [`lump_weighted_into`].
pub fn lump_with_plan(
    fine: &dyn StochasticOp,
    partition: &Partition,
    w: &[f64],
    plan: &LumpPlan,
    ws: &mut LumpWorkspace,
) -> Result<StochasticMatrix> {
    let csr = CsrMatrix::from_sorted_parts(
        plan.nb,
        plan.nb,
        plan.indptr.clone(),
        plan.indices.clone(),
        vec![0.0; plan.nnz()],
    )
    .map_err(|e| MarkovError::InvalidArgument(format!("corrupt lump plan: {e}")))?;
    let pt = csr.transpose();
    let mut out = StochasticMatrix::from_parts_unchecked(csr, pt);
    lump_weighted_into(fine, partition, w, plan, ws, &mut out)?;
    Ok(out)
}

/// In-place disaggregation with precomputed shares:
/// `out[i] = coarse[block(i)] * share[i]`.
///
/// With `share` = [`LumpWorkspace::wscale`] from a refresh over weights
/// `w`, this equals [`disaggregate`]`(partition, coarse, w)` bit for bit
/// — without recomputing the block weights or allocating.
///
/// # Panics
///
/// Panics if the lengths are inconsistent.
pub fn disaggregate_scaled(partition: &Partition, coarse: &[f64], share: &[f64], out: &mut [f64]) {
    assert_eq!(
        coarse.len(),
        partition.block_count(),
        "coarse vector per block"
    );
    assert_eq!(share.len(), partition.n(), "share per fine state");
    assert_eq!(out.len(), partition.n(), "output per fine state");
    par::for_each_chunk_mut(out, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            *o = coarse[partition.block_of(i)] * share[i];
        }
    });
}

/// Prolongs a coarse (block) vector back to the fine state space,
/// distributing each block's value according to the fine weights `w`
/// (the disaggregation step of aggregation/disaggregation):
///
/// ```text
/// x_i = X_{block(i)} · w_i / W_{block(i)}
/// ```
///
/// Zero-weight blocks distribute uniformly over their members.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn disaggregate(partition: &Partition, coarse: &[f64], w: &[f64]) -> Vec<f64> {
    assert_eq!(
        coarse.len(),
        partition.block_count(),
        "coarse vector per block"
    );
    assert_eq!(w.len(), partition.n(), "weights per fine state");
    let (block_weight, block_size) = block_weights(partition, w);
    let mut out = vec![0.0; partition.n()];
    // Pure per-state map: parallel over disjoint output chunks.
    par::for_each_chunk_mut(&mut out, |i0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let i = i0 + k;
            let b = partition.block_of(i);
            let share = if block_weight[b] > 0.0 {
                w[i] / block_weight[b]
            } else {
                1.0 / block_size[b] as f64
            };
            *o = coarse[b] * share;
        }
    });
    out
}

/// Aggregates a fine vector to blocks: `X_A = Σ_{i∈A} x_i`.
///
/// # Panics
///
/// Panics if `x.len() != partition.n()`.
pub fn aggregate(partition: &Partition, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), partition.n(), "vector length must match partition");
    let mut out = vec![0.0; partition.block_count()];
    // Gather per block: each block is summed by one worker over its
    // members in ascending order — the same additions, in the same order,
    // as the serial state-order scatter, at any thread count.
    par::for_each_chunk_mut(&mut out, |b0, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &i in partition.block_members(b0 + k) {
                acc += x[i];
            }
            *o = acc;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implicit::{max_rel_gap, KronTestOp};
    use crate::stationary::{GthSolver, StationarySolver};
    use crate::ImplicitStochastic;
    use stochcdr_linalg::vecops;

    fn chain(n: usize, edges: &[(usize, usize, f64)]) -> StochasticMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in edges {
            coo.push(r, c, v);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    /// A 4-state chain exactly lumpable to {0,1} vs {2,3}.
    fn lumpable_chain() -> StochasticMatrix {
        chain(
            4,
            &[
                (0, 1, 0.6),
                (0, 2, 0.2),
                (0, 3, 0.2),
                (1, 0, 0.6),
                (1, 2, 0.3),
                (1, 3, 0.1),
                (2, 3, 0.5),
                (2, 0, 0.25),
                (2, 1, 0.25),
                (3, 2, 0.5),
                (3, 0, 0.1),
                (3, 1, 0.4),
            ],
        )
    }

    #[test]
    fn partition_validation() {
        assert!(Partition::from_labels(vec![]).is_err());
        assert!(Partition::from_labels(vec![0, 2]).is_err()); // block 1 missing
        let p = Partition::from_labels(vec![0, 0, 1]).unwrap();
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.members(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn lumped_stationary_matches_aggregated_fine_stationary() {
        // For an exactly lumpable partition, aggregate(η_fine) = η_lumped:
        // any member row represents its block, so uniform weights lump it.
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let l = lump_weighted(&p, &part, &[1.0; 4]).unwrap();
        let ef = GthSolver::new().solve(&p, None).unwrap().distribution;
        let el = GthSolver::new().solve(&l, None).unwrap().distribution;
        let agg = aggregate(&part, &ef);
        assert!(vecops::dist1(&agg, &el) < 1e-10);
    }

    #[test]
    fn weighted_lumping_with_exact_stationary_is_consistent() {
        // Aggregation with the exact stationary weights reproduces the
        // aggregated stationary as the coarse stationary, for ANY partition
        // (this is the fixed-point property of aggregation/disaggregation).
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 1, 1, 0]).unwrap(); // arbitrary
        let ef = GthSolver::new().solve(&p, None).unwrap().distribution;
        let lc = lump_weighted(&p, &part, &ef).unwrap();
        let el = GthSolver::new().solve(&lc, None).unwrap().distribution;
        let agg = aggregate(&part, &ef);
        assert!(
            vecops::dist1(&agg, &el) < 1e-9,
            "agg {agg:?} vs coarse {el:?}"
        );
    }

    #[test]
    fn aggregate_disaggregate_round_trip() {
        let part = Partition::from_labels(vec![0, 0, 1]).unwrap();
        let w = [0.2, 0.6, 0.7];
        let x = [0.1, 0.3, 0.6];
        let coarse = aggregate(&part, &x);
        assert_eq!(coarse, vec![0.4, 0.6]);
        // Disaggregating with weights proportional to x reproduces x.
        let back = disaggregate(&part, &coarse, &x);
        assert!(vecops::dist1(&back, &x) < 1e-15);
        // Mass is preserved regardless of weights.
        let back2 = disaggregate(&part, &coarse, &w);
        assert!((vecops::sum(&back2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_block_falls_back_to_uniform() {
        let part = Partition::from_labels(vec![0, 0, 1]).unwrap();
        let w = [0.0, 0.0, 1.0];
        let back = disaggregate(&part, &[0.5, 0.5], &w);
        assert_eq!(back, vec![0.25, 0.25, 0.5]);
        // lump_weighted also survives zero-weight blocks.
        let p = lumpable_chain();
        let part4 = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let l = lump_weighted(&p, &part4, &[0.0, 0.0, 0.5, 0.5]).unwrap();
        assert_eq!(l.n(), 2);
    }

    /// Deterministic pseudo-random chain for plan tests.
    fn random_chain(n: usize, seed: u64) -> StochasticMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let deg = 2 + (i % 5);
            let mut row: Vec<f64> = (0..deg).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                *v /= s;
            }
            for (k, v) in row.into_iter().enumerate() {
                coo.push(i, (i * 7 + k * 13 + 1) % n, v);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn plan_refresh_is_bit_identical_to_from_scratch() {
        for seed in [1u64, 7, 42] {
            let n = 60;
            let p = random_chain(n, seed);
            let part =
                Partition::from_labels((0..n).map(|i| (i * 11 + seed as usize) % 9).collect())
                    .unwrap();
            let plan = LumpPlan::new(&p, &part).unwrap();
            let mut ws = LumpWorkspace::for_plan(&plan);
            // Strictly positive weights: the bit-identity regime.
            let w: Vec<f64> = (0..n).map(|i| 0.01 + (i as f64 * 0.37).fract()).collect();
            let fresh = lump_weighted(&p, &part, &w).unwrap();
            let planned = lump_with_plan(&p, &part, &w, &plan, &mut ws).unwrap();
            assert_eq!(planned.matrix().indptr(), fresh.matrix().indptr());
            assert_eq!(planned.matrix().indices(), fresh.matrix().indices());
            assert!(
                planned
                    .matrix()
                    .data()
                    .iter()
                    .zip(fresh.matrix().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "values diverge for seed {seed}"
            );
            assert!(
                planned
                    .transposed()
                    .data()
                    .iter()
                    .zip(fresh.transposed().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "transpose values diverge for seed {seed}"
            );
        }
    }

    /// The gather plan's fine row of each term equals the one a binary
    /// search over `indptr` finds, on a pattern with empty rows at the
    /// start, in the middle (two in a row) and at the end.
    #[test]
    fn gather_rows_match_the_binary_search() {
        let indptr = [0, 0, 3, 3, 3, 5, 9, 9];
        let indices = [1, 4, 6, 0, 2, 1, 3, 5, 6];
        let part = Partition::from_labels(vec![0, 1, 0, 2, 1, 2, 0]).unwrap();
        let plan = LumpPlan::gather(7, &indptr, &indices, &part).unwrap();
        let mut searched = plan.clone();
        let Refresh::Gather { src, row, .. } = &mut searched.refresh else {
            panic!("a CSR pattern gets a gather plan");
        };
        *row = src
            .iter()
            .map(|&k| (indptr.partition_point(|&p| p <= k as usize) - 1) as u32)
            .collect();
        assert_eq!(row.len(), indices.len());
        assert_eq!(plan, searched);
    }

    #[test]
    fn plan_refresh_tracks_changing_weights() {
        let n = 40;
        let p = random_chain(n, 5);
        let part = Partition::from_labels((0..n).map(|i| i / 8).collect()).unwrap();
        let plan = LumpPlan::new(&p, &part).unwrap();
        let mut ws = LumpWorkspace::for_plan(&plan);
        let w1: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut out = lump_with_plan(&p, &part, &w1, &plan, &mut ws).unwrap();
        // Refresh the same matrix with different weights: must equal a
        // fresh lump with those weights.
        let w2: Vec<f64> = (0..n).map(|i| 2.0 + ((i * 31) % 7) as f64).collect();
        lump_weighted_into(&p, &part, &w2, &plan, &mut ws, &mut out).unwrap();
        let fresh = lump_weighted(&p, &part, &w2).unwrap();
        assert!(out
            .matrix()
            .data()
            .iter()
            .zip(fresh.matrix().data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // The workspace doubles as the aggregation operators for w2.
        let bw = aggregate(&part, &w2);
        assert!(ws
            .block_weight()
            .iter()
            .zip(&bw)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let coarse: Vec<f64> = (0..part.block_count()).map(|b| (b + 1) as f64).collect();
        let mut dis = vec![0.0; n];
        disaggregate_scaled(&part, &coarse, ws.wscale(), &mut dis);
        let fresh_dis = disaggregate(&part, &coarse, &w2);
        assert!(dis
            .iter()
            .zip(&fresh_dis)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn plan_stack_chains_through_coarse_patterns() {
        let n = 64;
        let p = random_chain(n, 9);
        let part0 = Partition::from_labels((0..n).map(|i| i / 2).collect()).unwrap();
        let part1 = Partition::from_labels((0..n / 2).map(|i| i / 4).collect()).unwrap();
        let plans = LumpPlan::build_stack(&p, &[part0.clone(), part1.clone()]).unwrap();
        assert_eq!(plans.len(), 2);
        let mut ws0 = LumpWorkspace::for_plan(&plans[0]);
        let w = vec![1.0; n];
        let c0 = lump_with_plan(&p, &part0, &w, &plans[0], &mut ws0).unwrap();
        // Plan 1 was built from plan 0's pattern; it must match the
        // numeric coarse matrix's pattern.
        assert_eq!(plans[1].fine_n(), c0.n());
        assert_eq!(plans[1].fine_nnz(), c0.nnz());
        let mut ws1 = LumpWorkspace::for_plan(&plans[1]);
        let w1 = vec![1.0; c0.n()];
        let c1 = lump_with_plan(&c0, &part1, &w1, &plans[1], &mut ws1).unwrap();
        let fresh = lump_weighted(&c0, &part1, &w1).unwrap();
        assert!(c1
            .matrix()
            .data()
            .iter()
            .zip(fresh.matrix().data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn plan_rejects_mismatched_inputs() {
        let p = lumpable_chain();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let plan = LumpPlan::new(&p, &part).unwrap();
        let mut ws = LumpWorkspace::for_plan(&plan);
        // Wrong weight length.
        let mut out = lump_with_plan(&p, &part, &[1.0; 4], &plan, &mut ws).unwrap();
        assert!(lump_weighted_into(&p, &part, &[1.0; 3], &plan, &mut ws, &mut out).is_err());
        // Negative weights.
        assert!(
            lump_weighted_into(&p, &part, &[1.0, -1.0, 1.0, 1.0], &plan, &mut ws, &mut out)
                .is_err()
        );
        // Plan built for a different partition size.
        let small = Partition::from_labels(vec![0, 1]).unwrap();
        assert!(LumpPlan::new(&p, &small).is_err());
    }

    /// Serializes tests that override the global worker-thread count.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn operator_plan_matches_gather_plan_bitwise() {
        let _g = THREADS_LOCK.lock().unwrap();
        let n = 60;
        // A matrix-free chain and its materialized twin over one raw CSR:
        // the implicit wrapper serves exactly the values the matrix stores.
        let raw = random_chain(n, 11).matrix().clone();
        let rawt = raw.transpose();
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let part = Partition::from_labels((0..n).map(|i| (i * 13 + 4) % 7).collect()).unwrap();
        let gplan = LumpPlan::new(&mat, &part).unwrap();
        let oplan = LumpPlan::new(&imp, &part).unwrap();
        assert_ne!(gplan, oplan, "storage picks the refresh kind");
        assert_eq!(gplan.pattern(), oplan.pattern());
        assert_eq!(gplan.fine_nnz(), oplan.fine_nnz());
        let mut gws = LumpWorkspace::for_plan(&gplan);
        let mut ows = LumpWorkspace::for_plan(&oplan);
        let w: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64 * 0.61).fract()).collect();
        let reference = lump_with_plan(&mat, &part, &w, &gplan, &mut gws).unwrap();
        for t in [1usize, 4] {
            par::set_threads(Some(t));
            let got = lump_with_plan(&imp, &part, &w, &oplan, &mut ows).unwrap();
            par::set_threads(None);
            assert!(
                got.matrix()
                    .data()
                    .iter()
                    .zip(reference.matrix().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "values diverge at {t} threads"
            );
            assert!(
                got.transposed()
                    .data()
                    .iter()
                    .zip(reference.transposed().data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "transpose values diverge at {t} threads"
            );
        }
    }

    /// Pairwise aggregation of the innermost of the lanes `dims`: an odd
    /// inner dimension leaves a singleton block.
    fn inner_pairs(dims: &[usize]) -> Partition {
        let n_in = *dims.last().unwrap();
        let nb_in = n_in.div_ceil(2);
        let n: usize = dims.iter().product();
        Partition::from_labels(
            (0..n)
                .map(|s| (s / n_in) * nb_in + (s % n_in) / 2)
                .collect(),
        )
        .unwrap()
    }

    /// Lumps through `plan` into whichever coarse chain it refreshes.
    fn lump_any(
        fine: &dyn StochasticOp,
        part: &Partition,
        w: &[f64],
        plan: &LumpPlan,
    ) -> Box<dyn StochasticOp> {
        let mut ws = LumpWorkspace::for_plan(plan);
        match FactoredChain::for_plan(plan) {
            Some(mut f) => {
                lump_factored_into(fine, part, w, plan, &mut ws, &mut f).unwrap();
                Box::new(f)
            }
            None => Box::new(lump_with_plan(fine, part, w, plan, &mut ws).unwrap()),
        }
    }

    /// Every row of `op`, entries in column order.
    fn rows(op: &dyn StochasticOp) -> Vec<Vec<(usize, f64)>> {
        (0..op.rows())
            .map(|r| {
                let mut row = Vec::new();
                op.for_each_in_row(r, &mut |c, v| row.push((c, v)));
                row
            })
            .collect()
    }

    /// Largest relative gap between two chains with the same row
    /// patterns (panics on a pattern mismatch).
    fn row_gap(a: &dyn StochasticOp, b: &dyn StochasticOp) -> f64 {
        let (ra, rb) = (rows(a), rows(b));
        assert_eq!(ra.len(), rb.len(), "state counts differ");
        let mut worst = 0.0f64;
        for (r, (x, y)) in ra.iter().zip(&rb).enumerate() {
            let (cx, vx): (Vec<usize>, Vec<f64>) = x.iter().copied().unzip();
            let (cy, vy): (Vec<usize>, Vec<f64>) = y.iter().copied().unzip();
            assert_eq!(cx, cy, "row {r} pattern differs");
            worst = worst.max(max_rel_gap(&vx, &vy));
        }
        worst
    }

    #[test]
    fn factored_refresh_matches_the_traversal_refresh() {
        let _g = THREADS_LOCK.lock().unwrap();
        // Two lanes with odd and even inner dimensions, three lanes (two
        // outer lanes) and one lane (no outer lane: a materialized coarse
        // level).
        for (k, dims) in [vec![5usize, 7], vec![6, 8], vec![3, 4, 5], vec![9]]
            .into_iter()
            .enumerate()
        {
            let factors = dims
                .iter()
                .enumerate()
                .map(|(l, &d)| random_chain(d, 10 * k as u64 + l as u64).matrix().clone())
                .collect();
            let op = KronTestOp::new(factors);
            let imp = ImplicitStochastic::with_tolerance(&op, &op, 1e-6).unwrap();
            let part = inner_pairs(&dims);
            let n = part.n();
            let fplan = LumpPlan::new(&imp, &part).unwrap();
            assert!(matches!(fplan.refresh, Refresh::Factored(_)), "{dims:?}");
            assert_eq!(fplan.factored_output().is_some(), dims.len() > 1);
            let tplan = LumpPlan::traverse(&imp, &part).unwrap();
            assert_eq!(fplan.block_count(), tplan.block_count(), "{dims:?}");
            let positive: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64 * 0.61).fract()).collect();
            // No weight on block 1: its shares fall back to uniform.
            let mut zero_block = positive.clone();
            for &s in part.block_members(1) {
                zero_block[s] = 0.0;
            }
            for w in [&positive, &zero_block] {
                let want = lump_any(&imp, &part, w, &tplan);
                let mut runs = Vec::new();
                for t in [1usize, 4] {
                    par::set_threads(Some(t));
                    runs.push(lump_any(&imp, &part, w, &fplan));
                    par::set_threads(None);
                }
                for got in &runs {
                    assert!(row_gap(got.as_ref(), want.as_ref()) <= 1e-13, "{dims:?}");
                }
                assert_eq!(rows(runs[0].as_ref()), rows(runs[1].as_ref()), "{dims:?}");
            }
        }
    }

    /// The coarse blocks one outer state at a time through
    /// [`gather_block`], from the shares, `G` and row sums a refresh left
    /// in `ws`: the loop the batched refresh replaced.
    fn blocks_by_state(fine: &dyn StochasticOp, plan: &LumpPlan, ws: &LumpWorkspace) -> Vec<f64> {
        let Refresh::Factored(f) = &plan.refresh else {
            panic!("a factored plan")
        };
        let RowScratch::Factored(fs) = &ws.scratch else {
            panic!("a factored workspace")
        };
        let nnz_c = plan.indices.len();
        let mut out = vec![0.0; f.n_out * nnz_c];
        for (o, block) in out.chunks_mut(nnz_c).enumerate() {
            let (m0, rs, g) = (o * f.n_in, fs.rs[o], &fs.g[..]);
            match fine_blocks(fine, f).1 {
                Blocks::Kron { a_in, scale } => gather_block(f, plan, rs, block, g, a_in, |m| {
                    ws.wscale[m0 + m] * scale[m0 + m]
                }),
                Blocks::Factored { values, stride } => {
                    let src = &values[o * stride..];
                    gather_block(f, plan, rs, block, g, src, |m| ws.wscale[m0 + m])
                }
            }
        }
        out
    }

    #[test]
    fn batched_factored_refresh_is_bitwise_the_per_state_loop() {
        let _g = THREADS_LOCK.lock().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Checks one factored refresh of `fine` against the per-state
        // loop at 1, 2, 4 and 8 workers, with a workspace sized for each
        // count and one sized for a single worker; returns the coarse
        // chain.
        let check = |fine: &dyn StochasticOp, part: &Partition, name: &str| {
            let plan = LumpPlan::new(fine, part).unwrap();
            let n = part.n();
            // Positive weights with some subnormals, and none on block 1,
            // whose shares fall back to uniform.
            let mut w: Vec<f64> = (0..n).map(|i| 0.05 + (i as f64 * 0.61).fract()).collect();
            for i in (0..n).step_by(7) {
                w[i] = 5e-324 * (i % 5 + 1) as f64;
            }
            for &s in part.block_members(1) {
                w[s] = 0.0;
            }
            let mut one_slot = LumpWorkspace::for_plan(&plan);
            let mut out = FactoredChain::for_plan(&plan).unwrap();
            for t in [1usize, 2, 4, 8] {
                par::set_threads(Some(t));
                let mut ws = LumpWorkspace::for_plan(&plan);
                lump_factored_into(fine, part, &w, &plan, &mut ws, &mut out).unwrap();
                let sized = out.values.clone();
                lump_factored_into(fine, part, &w, &plan, &mut one_slot, &mut out).unwrap();
                par::set_threads(None);
                let want = blocks_by_state(fine, &plan, &ws);
                assert_eq!(bits(&sized), bits(&want), "{name}, {t} workers");
                assert_eq!(
                    bits(&out.values),
                    bits(&want),
                    "{name}, {t} workers, one slot"
                );
            }
            out
        };
        let lanes = |dims: &[usize]| {
            let factors = dims
                .iter()
                .enumerate()
                .map(|(l, &d)| random_chain(d, 30 + l as u64).matrix().clone())
                .collect();
            KronTestOp::new(factors)
        };
        // Two lanes, 37 outer states (two batches and five single states at
        // one worker): a Kronecker fine grid, then its factored level. The
        // first refresh is large enough to split across workers.
        let op = lanes(&[37, 229]);
        let imp = ImplicitStochastic::with_tolerance(&op, &op, 1e-6).unwrap();
        let l1 = check(&imp, &inner_pairs(&[37, 229]), "37x229 Kronecker");
        assert!(l1.values.len() >= par::PARALLEL_CUTOFF);
        check(&l1, &inner_pairs(&[37, l1.n_in]), "37x229 factored");
        // Three lanes: pairs along lanes 1 and 2 straddle lane-1 digits,
        // so lane 1 folds into the inner block and G is its 5-state lane.
        let op = lanes(&[18, 5, 3]);
        let imp = ImplicitStochastic::with_tolerance(&op, &op, 1e-6).unwrap();
        let fold = |n_out: usize, n_in: usize, size: usize| {
            let nb_in = n_in.div_ceil(size);
            let labels = (0..n_out * n_in).map(|s| (s / n_in) * nb_in + (s % n_in) / size);
            Partition::from_labels(labels.collect()).unwrap()
        };
        let folded = check(&imp, &fold(18, 15, 2), "18x5x3 Kronecker, folded");
        assert_eq!(folded.outer.len(), 1);
        // The same lanes through a factored level that keeps lanes 0 and
        // 1 outer; triples then fold lane 1.
        let kept = check(&imp, &inner_pairs(&[18, 5, 3]), "18x5x3 Kronecker");
        assert_eq!((kept.outer.len(), kept.n_in), (2, 2));
        let folded = check(&kept, &fold(18, 10, 3), "18x5x3 factored, folded");
        assert_eq!(folded.outer.len(), 1);
    }

    #[test]
    fn partitions_touching_an_outer_lane_fold_it_into_the_inner_block() {
        let _g = THREADS_LOCK.lock().unwrap();
        let op = KronTestOp::new(vec![
            random_chain(3, 1).matrix().clone(),
            random_chain(4, 2).matrix().clone(),
            random_chain(6, 3).matrix().clone(),
        ]);
        let imp = ImplicitStochastic::with_tolerance(&op, &op, 1e-6).unwrap();
        let w: Vec<f64> = (0..72).map(|i| 0.1 + (i as f64 * 0.37).fract()).collect();
        // Quads along the flat index straddle lane-1 digits (4 does not
        // divide 6), so lanes 1 and 2 fold into one inner block and lane 0
        // stays outer; sextets straddle nothing; 36-state blocks straddle
        // lane-0 digits, leave no outer lane, and the coarse level is
        // materialized.
        for (size, kept) in [(4usize, 1usize), (6, 2), (36, 0)] {
            let part = Partition::from_labels((0..72).map(|s| s / size).collect()).unwrap();
            let plan = LumpPlan::new(&imp, &part).unwrap();
            let Refresh::Factored(f) = &plan.refresh else {
                panic!("a Kronecker chain plans a factored refresh")
            };
            assert_eq!(f.outer.len(), kept, "blocks of {size}");
            let tplan = LumpPlan::traverse(&imp, &part).unwrap();
            let got = lump_any(&imp, &part, &w, &plan);
            let want = lump_any(&imp, &part, &w, &tplan);
            assert!(
                row_gap(got.as_ref(), want.as_ref()) <= 1e-13,
                "blocks of {size}"
            );
            // The next level plans from the coarse level alone; pairs fold
            // lane 1 under the sextets and stay inner under the quads.
            if kept > 0 {
                let nb = part.block_count();
                let next = Partition::from_labels((0..nb).map(|s| s / 2).collect()).unwrap();
                let stacked = LumpPlan::build_stack(&imp, &[part.clone(), next.clone()]).unwrap();
                assert!(stacked[1].matches(got.as_ref()));
                let w1: Vec<f64> = (0..nb).map(|i| 0.2 + (i as f64 * 0.53).fract()).collect();
                let gt = LumpPlan::new(want.as_ref(), &next).unwrap();
                let a = lump_any(got.as_ref(), &next, &w1, &stacked[1]);
                let b = lump_any(want.as_ref(), &next, &w1, &gt);
                assert!(
                    row_gap(a.as_ref(), b.as_ref()) <= 1e-13,
                    "second level, {size}"
                );
            }
        }
        // A materialized chain gathers whatever its storage, and a
        // factored plan refuses a chain of other lane shapes.
        let pairs = Partition::from_labels((0..72).map(|s| s / 2).collect()).unwrap();
        let mat = StochasticMatrix::with_tolerance(op.product().clone(), 1e-6).unwrap();
        assert!(matches!(
            LumpPlan::new(&mat, &pairs).unwrap().refresh,
            Refresh::Gather { .. }
        ));
        let plan = LumpPlan::new(&imp, &pairs).unwrap();
        let other = KronTestOp::new(vec![
            random_chain(6, 3).matrix().clone(),
            random_chain(4, 4).matrix().clone(),
            random_chain(3, 5).matrix().clone(),
        ]);
        let other = ImplicitStochastic::with_tolerance(&other, &other, 1e-6).unwrap();
        assert!(plan.matches(&imp) && !plan.matches(&other) && !plan.matches(&mat));
    }

    #[test]
    fn plan_kinds_reject_the_wrong_refresh() {
        let raw = lumpable_chain().matrix().clone();
        let rawt = raw.transpose();
        let mat = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let part = Partition::from_labels(vec![0, 0, 1, 1]).unwrap();
        let gplan = LumpPlan::new(&mat, &part).unwrap();
        let oplan = LumpPlan::new(&imp, &part).unwrap();
        assert!(gplan.matches(&mat) && !gplan.matches(&imp));
        assert!(oplan.matches(&imp) && !oplan.matches(&mat));
        let mut gws = LumpWorkspace::for_plan(&gplan);
        let mut ows = LumpWorkspace::for_plan(&oplan);
        let w = [1.0; 4];
        let mut out = lump_with_plan(&mat, &part, &w, &gplan, &mut gws).unwrap();
        // Each plan against the other storage kind.
        assert!(lump_weighted_into(&imp, &part, &w, &gplan, &mut ows, &mut out).is_err());
        assert!(lump_weighted_into(&mat, &part, &w, &oplan, &mut gws, &mut out).is_err());
        // Workspace built for the gather plan lacks traversal scratch.
        assert!(lump_weighted_into(&imp, &part, &w, &oplan, &mut gws, &mut out).is_err());
        // The proper pairing works.
        assert!(lump_weighted_into(&imp, &part, &w, &oplan, &mut ows, &mut out).is_ok());
    }

    #[test]
    fn discrete_partition_lumps_to_self() {
        let p = lumpable_chain();
        let part = Partition::from_labels((0..4).collect()).unwrap();
        let l = lump_weighted(&p, &part, &[1.0; 4]).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((l.prob(i, j) - p.prob(i, j)).abs() < 1e-12);
            }
        }
    }
}
