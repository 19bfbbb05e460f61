//! Coarse chains kept in factor form.
//!
//! Aggregating a Kronecker chain `diag(scale)·(A_out ⊗ A_in)` over a
//! partition that lumps only inner states gives a coarse chain with the
//! same outer structure:
//!
//! ```text
//! P_c[(o, B), (o', C)] = A_out(o, o') · R_o(B, C)
//! ```
//!
//! one inner block `R_o` per outer state, all on one shared inner
//! pattern. [`FactoredChain`] stores exactly that — the outer lanes and
//! the blocks — instead of the joint CSR, which would hold
//! `nnz(A_out) · nnz(R)` entries where the blocks hold
//! `n_out · nnz(R)`. This is the structured multilevel aggregation of
//! Buchholz ("Multilevel solutions for structured Markov chains", SIMAX
//! 2000). Each row's renormalization is folded into its block, so the
//! outer lanes stay the fine chain's own (raw) factors.
//!
//! The chain is `P_c = blockdiag(R_o) · (A_out ⊗ I)`, so a left product is
//! one block-diagonal product followed by the outer mode products
//! ([`stochcdr_linalg::kron::mul_left_modes`], the kernel the Kronecker
//! operator runs), and a right product the same two steps reversed. Each
//! output block is written by one worker in a fixed order, so products
//! are bit-identical at any thread count.

use std::sync::Mutex;

use stochcdr_linalg::kron::{self, ModeScratch};
use stochcdr_linalg::{par, CsrMatrix, TransitionOp};

use crate::lumping::LumpPlan;
use crate::StochasticOp;

/// A coarse chain `P[(o, b), (o', c)] = A_out(o, o') · R_o(b, c)`: outer
/// lanes `A_out = F_0 ⊗ … ⊗ F_{k−1}` applied by mode products, and one
/// inner block `R_o` per outer state on a shared inner pattern.
///
/// Built and refreshed only by the lumping refresh
/// ([`FactoredChain::for_plan`],
/// [`lump_factored_into`](crate::lumping::lump_factored_into)), which
/// keeps every row a probability distribution.
pub struct FactoredChain {
    /// The outer lanes, outermost first; their values follow the fine
    /// chain's at every refresh.
    pub(crate) outer: Vec<CsrMatrix>,
    pub(crate) n_out: usize,
    pub(crate) n_in: usize,
    /// The inner pattern shared by every outer state.
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    /// Per inner row, the position of its diagonal entry in the pattern
    /// (`u32::MAX` when absent).
    diag: Vec<u32>,
    /// `R_o` for every outer state, outer-major: `values[o·nnz_in + t]`.
    pub(crate) values: Vec<f64>,
    /// Product scratch, reused so warm products allocate nothing.
    /// `try_lock` keeps concurrent callers correct: a contended call
    /// works in fresh temporaries.
    scratch: Mutex<ProductScratch>,
}

/// The block product's output and the mode products' buffers. The
/// latter start empty and grow on first use: only a level with two or
/// more outer lanes ping-pongs between modes.
struct ProductScratch {
    z: Vec<f64>,
    modes: ModeScratch,
}

impl ProductScratch {
    fn new(n: usize) -> Self {
        ProductScratch {
            z: vec![0.0; n],
            modes: ModeScratch::default(),
        }
    }
}

impl std::fmt::Debug for FactoredChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactoredChain")
            .field(
                "outer",
                &self.outer.iter().map(CsrMatrix::rows).collect::<Vec<_>>(),
            )
            .field("n_in", &self.n_in)
            .field("inner_nnz", &self.indices.len())
            .finish_non_exhaustive()
    }
}

/// Visits the stored entries of row `row` of `factors[0] ⊗ factors[1] ⊗ …`
/// in ascending column order, with the values multiplied outermost first
/// onto `val` (the empty product is the 1×1 identity).
pub(crate) fn kron_row<F: FnMut(usize, f64)>(
    factors: &[CsrMatrix],
    row: usize,
    col: usize,
    val: f64,
    f: &mut F,
) {
    match factors.split_first() {
        None => f(col, val),
        Some((a, rest)) => {
            let inner: usize = rest.iter().map(CsrMatrix::rows).product();
            for (j, v) in a.row(row / inner) {
                kron_row(rest, row % inner, col * a.cols() + j, val * v, f);
            }
        }
    }
}

impl FactoredChain {
    /// Allocates the coarse chain a plan refreshes in factor form (values
    /// zero until the first refresh), or `None` when the plan's coarse
    /// level is materialized — which is the case once no outer lane is
    /// left.
    pub fn for_plan(plan: &LumpPlan) -> Option<FactoredChain> {
        let (outer, n_in) = plan.factored_output()?;
        let (indptr, indices) = plan.pattern();
        let n_out: usize = outer.iter().map(CsrMatrix::rows).product();
        let diag = (0..n_in)
            .map(|b| {
                let row = &indices[indptr[b]..indptr[b + 1]];
                row.binary_search(&(b as u32))
                    .map_or(u32::MAX, |k| (indptr[b] + k) as u32)
            })
            .collect();
        let n = n_out * n_in;
        Some(FactoredChain {
            outer: outer.to_vec(),
            n_out,
            n_in,
            indptr: indptr.to_vec(),
            indices: indices.to_vec(),
            diag,
            values: vec![0.0; n_out * indices.len()],
            scratch: Mutex::new(ProductScratch::new(n)),
        })
    }

    /// Number of states, `n_out · n_in`.
    pub fn n(&self) -> usize {
        self.n_out * self.n_in
    }

    fn with_scratch(&self, f: impl FnOnce(&mut ProductScratch)) {
        match self.scratch.try_lock() {
            Ok(mut s) => f(&mut s),
            Err(_) => f(&mut ProductScratch::new(self.n())),
        }
    }
}

impl TransitionOp for FactoredChain {
    fn rows(&self) -> usize {
        self.n()
    }

    fn cols(&self) -> usize {
        self.n()
    }

    /// The compact size: block values plus outer-lane entries.
    fn nnz(&self) -> usize {
        self.values.len() + self.outer.iter().map(CsrMatrix::nnz).sum::<usize>()
    }

    /// One block product (`n_out · nnz(R)`) plus the outer mode products,
    /// `Σ_l (n / n_l) · nnz_l`.
    fn apply_cost(&self) -> usize {
        let n = self.n();
        self.values.len()
            + self
                .outer
                .iter()
                .map(|f| (n / f.rows()) * f.nnz())
                .sum::<usize>()
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        let (n, n_in) = (self.n(), self.n_in);
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(y.len(), n, "output length must match state count");
        let nnz_in = self.indices.len();
        self.with_scratch(|s| {
            // z = x · blockdiag(R_o), one outer block per worker task.
            par::for_each_chunk_aligned_mut(&mut s.z, n_in, |start, chunk| {
                for (k, zo) in chunk.chunks_mut(n_in).enumerate() {
                    let o = start / n_in + k;
                    let xo = &x[o * n_in..(o + 1) * n_in];
                    let r = &self.values[o * nnz_in..(o + 1) * nnz_in];
                    zo.fill(0.0);
                    for (b, &xb) in xo.iter().enumerate() {
                        if xb == 0.0 {
                            continue;
                        }
                        for t in self.indptr[b]..self.indptr[b + 1] {
                            zo[self.indices[t] as usize] += xb * r[t];
                        }
                    }
                }
            });
            kron::mul_left_modes(&self.outer, n_in, &s.z, y, &mut s.modes);
        });
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        let (n, n_in) = (self.n(), self.n_in);
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(y.len(), n, "output length must match state count");
        let nnz_in = self.indices.len();
        self.with_scratch(|s| {
            kron::mul_right_modes(&self.outer, n_in, x, &mut s.z, &mut s.modes);
            let z = &s.z;
            par::for_each_chunk_aligned_mut(y, n_in, |start, chunk| {
                for (k, yo) in chunk.chunks_mut(n_in).enumerate() {
                    let o = start / n_in + k;
                    let zo = &z[o * n_in..(o + 1) * n_in];
                    let r = &self.values[o * nnz_in..(o + 1) * nnz_in];
                    for (b, out) in yo.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for t in self.indptr[b]..self.indptr[b + 1] {
                            acc += r[t] * zo[self.indices[t] as usize];
                        }
                        *out = acc;
                    }
                }
            });
        });
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        assert!(row < self.n(), "row {row} out of range");
        let (o, b) = (row / self.n_in, row % self.n_in);
        let nnz_in = self.indices.len();
        let r = &self.values[o * nnz_in..(o + 1) * nnz_in];
        let inner = self.indptr[b]..self.indptr[b + 1];
        kron_row(&self.outer, o, 0, 1.0, &mut |oc, a| {
            if a != 0.0 {
                for t in inner.clone() {
                    f(oc * self.n_in + self.indices[t] as usize, a * r[t]);
                }
            }
        });
    }

    fn diagonal_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.n(), "diagonal buffer length must match");
        let nnz_in = self.indices.len();
        for (o, block) in out.chunks_mut(self.n_in).enumerate() {
            let mut a = 1.0;
            let mut tail = self.n_out;
            for f in &self.outer {
                tail /= f.rows();
                let d = (o / tail) % f.rows();
                a *= f.get(d, d);
            }
            let r = &self.values[o * nnz_in..(o + 1) * nnz_in];
            for (v, &p) in block.iter_mut().zip(&self.diag) {
                *v = if p == u32::MAX {
                    0.0
                } else {
                    a * r[p as usize]
                };
            }
        }
    }
}

impl StochasticOp for FactoredChain {
    fn csr(&self) -> Option<&CsrMatrix> {
        None
    }

    fn factored(&self) -> Option<&FactoredChain> {
        Some(self)
    }
}
