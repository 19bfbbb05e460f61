//! Implicit (matrix-free) validated transition operators.
//!
//! [`StochasticMatrix`](crate::StochasticMatrix) validates a materialized
//! CSR and renormalizes every row once at construction. For product-form
//! chains whose joint TPM never fits in memory (the Kronecker operator
//! path), [`ImplicitStochastic`] provides the same contract without
//! materializing anything: it wraps a forward operator and its transposed
//! twin, validates rows by traversal, and stores only the per-row
//! renormalization factors.
//!
//! # Bit-parity with the materialized chain
//!
//! Every product the wrapper serves multiplies exactly the same scalars
//! in exactly the same order as the materialized
//! `StochasticMatrix` built from the same operator would:
//!
//! * the materialized path computes each stored value once as
//!   `raw · (1/rowsum)` (`scale_rows`) and then accumulates
//!   `value · x[j]` in ascending stored order; the implicit path computes
//!   `(raw · scale[row]) · x[j]` over the same traversal — identical
//!   operand bits, identical order, identical results;
//! * row sums are accumulated in ascending entry order starting from
//!   zero, matching `CsrMatrix::row_sums`;
//! * the transposed product gathers over the transposed operator's rows
//!   in ascending source order, matching the cached-`P^T` kernel.
//!
//! Combined with the workspace determinism contract (every output
//! element produced wholly by one worker in serial order), the implicit
//! solve path is bit-identical to the materialized one at any thread
//! count.

use stochcdr_linalg::{par, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result, StochasticOp};

/// A validated stochastic operator that never materializes its matrix.
///
/// Wraps a forward [`TransitionOp`] (rows = source states) and its
/// transposed twin (e.g. [`TransitionOp::transpose_op`] of a Kronecker
/// operator), plus the per-row renormalization factors computed at
/// validation time. All products serve `raw · scale[row]` values — the
/// exact bits a materialized [`StochasticMatrix`](crate::StochasticMatrix)
/// of the same operator stores.
pub struct ImplicitStochastic<'a> {
    fwd: &'a dyn TransitionOp,
    tr: &'a dyn TransitionOp,
    /// `scale[r] = 1 / Σ_j raw(r, j)` — the row-renormalization factor
    /// `StochasticMatrix::with_tolerance` bakes into the stored values.
    scale: Vec<f64>,
    /// Evenly-cut row blocking for the gather kernels, built once at
    /// validation. Product-form rows cost the same regardless of the
    /// compact factor nnz (which for a Kronecker operator says nothing
    /// about per-product-row work — it is thousands of entries for a
    /// million-state product), so the blocking is uniform over states
    /// and the parallel gate rides on the state count.
    part: par::RowPartition,
}

impl std::fmt::Debug for ImplicitStochastic<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImplicitStochastic")
            .field("n", &self.scale.len())
            .field("nnz", &self.fwd.nnz())
            .finish_non_exhaustive()
    }
}

impl<'a> ImplicitStochastic<'a> {
    /// Validates the operator as a transition matrix and computes the
    /// row-renormalization factors, mirroring
    /// [`StochasticMatrix::with_tolerance`](crate::StochasticMatrix::with_tolerance):
    /// entries must be finite probabilities in `[0, 1 + tol]` and every
    /// row sum must be within `tol` of one.
    ///
    /// `tr` must be the exact transpose of `fwd` (same stored values,
    /// permuted); callers obtain it from
    /// [`TransitionOp::transpose_op`] or construct it structurally (a
    /// Kronecker operator over transposed factors). This is not
    /// re-verified — an inconsistent pair produces wrong products.
    ///
    /// # Errors
    ///
    /// Same conditions as `StochasticMatrix::with_tolerance`:
    /// [`MarkovError::NotSquare`], [`MarkovError::InvalidProbability`],
    /// [`MarkovError::RowSumNotOne`]. Also rejects a `tr` whose shape
    /// disagrees with `fwd`.
    pub fn with_tolerance(
        fwd: &'a dyn TransitionOp,
        tr: &'a dyn TransitionOp,
        tol: f64,
    ) -> Result<ImplicitStochastic<'a>> {
        let n = fwd.rows();
        if fwd.cols() != n {
            return Err(MarkovError::NotSquare {
                rows: fwd.rows(),
                cols: fwd.cols(),
            });
        }
        if tr.rows() != n || tr.cols() != n {
            return Err(MarkovError::InvalidArgument(
                "transposed operator shape disagrees with the forward operator".into(),
            ));
        }
        // Row sums, accumulated per row in ascending entry order (the
        // same fold `CsrMatrix::row_sums` runs); a NaN marks a row with
        // an invalid entry for the serial pass below.
        let mut scale = vec![0.0f64; n];
        par::for_each_chunk_mut(&mut scale, |r0, chunk| {
            for (k, out) in chunk.iter_mut().enumerate() {
                let mut s = 0.0f64;
                let mut ok = true;
                fwd.for_each_in_row(r0 + k, &mut |_, v| {
                    if !v.is_finite() || v < 0.0 || v > 1.0 + tol {
                        ok = false;
                    }
                    s += v;
                });
                *out = if ok { s } else { f64::NAN };
            }
        });
        for (r, s) in scale.iter_mut().enumerate() {
            if s.is_nan() {
                // Re-scan serially to recover the offending entry.
                let mut bad = None;
                fwd.for_each_in_row(r, &mut |c, v| {
                    if bad.is_none() && (!v.is_finite() || v < 0.0 || v > 1.0 + tol) {
                        bad = Some((c, v));
                    }
                });
                let (col, value) = bad.expect("NaN row sum implies an invalid entry");
                return Err(MarkovError::InvalidProbability { row: r, col, value });
            }
            if (*s - 1.0).abs() > tol {
                return Err(MarkovError::RowSumNotOne { row: r, sum: *s });
            }
            *s = 1.0 / *s;
        }
        let part = par::RowPartition::uniform(n, n.max(fwd.nnz()));
        Ok(ImplicitStochastic {
            fwd,
            tr,
            scale,
            part,
        })
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.scale.len()
    }

    /// Stored entries of the forward operator (compact size for
    /// product-form backends).
    pub fn nnz(&self) -> usize {
        self.fwd.nnz()
    }

    /// The wrapped forward operator (raw, unscaled values).
    pub fn forward_op(&self) -> &'a dyn TransitionOp {
        self.fwd
    }

    /// The per-row renormalization factors.
    pub fn scale(&self) -> &[f64] {
        &self.scale
    }

    /// One step of the chain: writes `x P` into `out`.
    ///
    /// Computed as the row-parallel gather `P^T x` over the transposed
    /// operator — per output element, contributions accumulate in the
    /// same ascending source order as the materialized cached-transpose
    /// kernel, so the result is bit-identical to
    /// [`StochasticMatrix::step_into`](crate::StochasticMatrix::step_into)
    /// on the materialized chain, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n()`.
    pub fn step_into(&self, x: &[f64], out: &mut [f64]) {
        if obs::enabled() && x.len() >= 512 {
            let t0 = std::time::Instant::now();
            self.gather_transposed(x, out);
            obs::histogram("markov.spmv.ns", t0.elapsed().as_nanos() as f64);
        } else {
            self.gather_transposed(x, out);
        }
    }

    fn gather_transposed(&self, x: &[f64], out: &mut [f64]) {
        // This gather *is* the implicit path's operator application (the
        // wrapped operator is a Kronecker product in every product-form
        // solve), so it carries the `kron.apply` span — the per-row
        // factor traversals underneath are far too hot to instrument.
        let _span = obs::enabled().then(|| obs::span("kron.apply"));
        let n = self.n();
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(out.len(), n, "output length must match state count");
        let scale = &self.scale;
        let tr = self.tr;
        par::for_each_partition_mut(out, &self.part, |j0, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let mut acc = 0.0;
                tr.for_each_in_row(j0 + k, &mut |i, v| {
                    acc += (v * scale[i]) * x[i];
                });
                *o = acc;
            }
        });
    }
}

impl TransitionOp for ImplicitStochastic<'_> {
    fn rows(&self) -> usize {
        self.n()
    }

    fn cols(&self) -> usize {
        self.n()
    }

    fn nnz(&self) -> usize {
        ImplicitStochastic::nnz(self)
    }

    fn apply_cost(&self) -> usize {
        // The wrapped operator's real apply work plus the per-row
        // renormalization scaling.
        self.fwd.apply_cost() + self.n()
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        self.step_into(x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        let _span = obs::enabled().then(|| obs::span("kron.apply"));
        let n = self.n();
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(y.len(), n, "output length must match state count");
        let scale = &self.scale;
        let fwd = self.fwd;
        par::for_each_partition_mut(y, &self.part, |i0, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let i = i0 + k;
                let si = scale[i];
                let mut acc = 0.0;
                fwd.for_each_in_row(i, &mut |j, v| {
                    acc += (v * si) * x[j];
                });
                *o = acc;
            }
        });
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        let si = self.scale[row];
        self.fwd.for_each_in_row(row, &mut |j, v| f(j, v * si));
    }

    fn diagonal_into(&self, out: &mut [f64]) {
        self.fwd.diagonal_into(out);
        let scale = &self.scale;
        par::for_each_chunk_mut(out, |i0, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o *= scale[i0 + k];
            }
        });
    }
}

impl StochasticOp for ImplicitStochastic<'_> {
    fn csr(&self) -> Option<&CsrMatrix> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StochasticMatrix;
    use stochcdr_linalg::CooMatrix;

    /// Deterministic pseudo-random raw (CSR) transition matrix whose rows
    /// sum to one only approximately — exercising the renormalization.
    fn raw_chain(n: usize, seed: u64) -> CsrMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let deg = 2 + (i % 4);
            let mut row: Vec<f64> = (0..deg).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                // Leave a small deliberate row-sum error inside the 1e-6
                // tolerance used below.
                *v *= (1.0 + 3e-7) / s;
            }
            for (k, v) in row.into_iter().enumerate() {
                coo.push(i, (i * 5 + k * 11 + 1) % n, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn products_are_bitwise_the_materialized_chain() {
        let raw = raw_chain(48, 3);
        let chain = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let x: Vec<f64> = (0..48).map(|i| ((i * 29 + 3) % 31) as f64 / 31.0).collect();
        let mut a = vec![0.0; 48];
        let mut b = vec![0.0; 48];
        chain.step_into(&x, &mut a);
        imp.step_into(&x, &mut b);
        assert_eq!(a, b, "step diverges");
        TransitionOp::mul_right_into(&chain, &x, &mut a);
        imp.mul_right_into(&x, &mut b);
        assert_eq!(a, b, "right product diverges");
        chain.diagonal_into(&mut a);
        imp.diagonal_into(&mut b);
        assert_eq!(a, b, "diagonal diverges");
        // Row traversal serves the renormalized values.
        for r in 0..48 {
            let mut got: Vec<(usize, f64)> = Vec::new();
            imp.for_each_in_row(r, &mut |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = chain.matrix().row(r).collect();
            assert_eq!(got, want, "row {r}");
        }
        // Residual matches too.
        let mut s1 = vec![0.0; 48];
        let mut s2 = vec![0.0; 48];
        let r1 = chain.stationary_residual_with(&x, &mut s1);
        let r2 = imp.stationary_residual_with(&x, &mut s2);
        assert_eq!(r1.to_bits(), r2.to_bits());
    }

    #[test]
    fn validation_mirrors_the_materialized_errors() {
        // Row sum far from one.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.4);
        coo.push(1, 1, 1.0);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::RowSumNotOne { row: 0, .. })
        ));
        // Negative entry.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.5);
        coo.push(0, 1, -0.5);
        coo.push(1, 1, 1.0);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::InvalidProbability { row: 0, .. })
        ));
        // Non-square.
        let coo = CooMatrix::new(2, 3);
        let m = coo.to_csr();
        let t = m.transpose();
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&m, &t, 1e-9),
            Err(MarkovError::NotSquare { .. })
        ));
    }
}
