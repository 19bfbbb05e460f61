//! Implicit (matrix-free) validated transition operators.
//!
//! [`StochasticMatrix`](crate::StochasticMatrix) validates a materialized
//! CSR and renormalizes every row once at construction. For product-form
//! chains whose joint TPM never fits in memory (the Kronecker operator
//! path), [`ImplicitStochastic`] provides the same contract without
//! materializing anything: it wraps a raw forward operator, validates it,
//! and stores only the per-row renormalization factors, so the chain it
//! serves is `P = diag(scale) · raw`.
//!
//! # Products through the wrapped operator
//!
//! Every product is the wrapped operator's own: `x·P = (x∘scale)·raw`
//! scales the input into a preallocated buffer and hands it to `raw`'s
//! `mul_left_into`, and `P·x = scale∘(raw·x)` scales the output of its
//! `mul_right_into`. For a Kronecker operator those are its mode-by-mode
//! products, which visit each factor entry once per fiber instead of
//! each entry of the dense product.
//!
//! # Validation
//!
//! An operator with [`kron_factors`](TransitionOp::kron_factors) is
//! validated lane by lane in `O(Σ nnz + n)`: every factor entry must be
//! finite and non-negative, and every joint row sum — the product of the
//! lanes' row sums — must be within `tol` of one. Non-negative entries of
//! a row that sums to at most `1 + tol` are each at most `1 + tol`, so for
//! non-negative factors this admits what the entry-by-entry check admits;
//! a factor with a negative entry is rejected outright. Any other
//! operator is validated by walking its rows, as
//! `StochasticMatrix::with_tolerance` walks its stored values.
//!
//! # Agreement with the materialized chain
//!
//! The materialized chain multiplies pre-scaled stored values in
//! ascending source order; the implicit chain scales the vector instead,
//! a Kronecker operator associates each product mode by mode, and its
//! row sums are products of lane sums. The two therefore agree to
//! rounding, not bit for bit (the product-path tests pin the gap and
//! check the implicit answer entrywise against `π_lane ⊗ π_lane`). The
//! row traversal and diagonal still serve the materialized twin's exact
//! values for a row-walk-validated operator. Across thread counts the
//! implicit chain is bit-identical: scaling is elementwise and the
//! wrapped products keep the workspace determinism contract.

use std::sync::Mutex;

use stochcdr_linalg::{par, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result, StochasticOp};

/// A validated stochastic operator that never materializes its matrix.
///
/// Wraps a raw forward [`TransitionOp`] (rows = source states) plus the
/// per-row renormalization factors computed at validation time, and
/// serves `P = diag(scale) · raw` through the wrapped operator's own
/// products.
pub struct ImplicitStochastic<'a> {
    fwd: &'a dyn TransitionOp,
    /// `scale[r] = 1 / Σ_j raw(r, j)` — the row-renormalization factor
    /// `StochasticMatrix::with_tolerance` bakes into the stored values.
    scale: Vec<f64>,
    /// Preallocated `x∘scale` buffer for the left product, so warm
    /// multigrid cycles allocate nothing. `try_lock` keeps concurrent
    /// callers correct: a contended call scales into a fresh temporary.
    scaled: Mutex<Vec<f64>>,
}

impl std::fmt::Debug for ImplicitStochastic<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImplicitStochastic")
            .field("n", &self.scale.len())
            .field("nnz", &self.fwd.nnz())
            .finish_non_exhaustive()
    }
}

/// Whether a raw transition entry is admissible before renormalization.
fn valid_entry(v: f64, tol: f64) -> bool {
    v.is_finite() && v >= 0.0 && v <= 1.0 + tol
}

impl<'a> ImplicitStochastic<'a> {
    /// Validates the operator as a transition matrix and computes the
    /// row-renormalization factors, mirroring
    /// [`StochasticMatrix::with_tolerance`](crate::StochasticMatrix::with_tolerance):
    /// entries must be finite probabilities in `[0, 1 + tol]` and every
    /// row sum must be within `tol` of one. A Kronecker operator is
    /// checked through its factors (see the module docs), every other
    /// operator row by row.
    ///
    /// `tr` is `fwd`'s transpose (e.g. [`TransitionOp::transpose_op`] or
    /// a Kronecker operator over transposed factors). Every product runs
    /// through `fwd`, so `tr` is only checked for shape; callers that
    /// hold both pass both.
    ///
    /// # Errors
    ///
    /// Same conditions as `StochasticMatrix::with_tolerance`:
    /// [`MarkovError::NotSquare`], [`MarkovError::InvalidProbability`],
    /// [`MarkovError::RowSumNotOne`], all with joint `(row, col)` indices.
    /// A bad factor entry is reported at the joint position whose other
    /// lane digits are all zero. Also rejects a `tr` whose shape
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
        let mut scale = match fwd.kron_factors() {
            Some(factors) => lane_row_sums(factors, n)?,
            None => walked_row_sums(fwd, tol)?,
        };
        for (r, s) in scale.iter_mut().enumerate() {
            if (*s - 1.0).abs() > tol {
                return Err(MarkovError::RowSumNotOne { row: r, sum: *s });
            }
            *s = 1.0 / *s;
        }
        Ok(ImplicitStochastic {
            fwd,
            scale,
            scaled: Mutex::new(vec![0.0; n]),
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

    /// One step of the chain: writes `x P` into `out`, computed as
    /// `(x∘scale)·raw` by the wrapped operator's left product —
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n()`.
    pub fn step_into(&self, x: &[f64], out: &mut [f64]) {
        if obs::enabled() && x.len() >= 512 {
            let t0 = std::time::Instant::now();
            self.scaled_left(x, out);
            obs::histogram("markov.spmv.ns", t0.elapsed().as_nanos() as f64);
        } else {
            self.scaled_left(x, out);
        }
    }

    fn scaled_left(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(out.len(), n, "output length must match state count");
        let scale = &self.scale;
        let mut run = |buf: &mut [f64]| {
            par::for_each_chunk_mut(buf, |i0, chunk| {
                for (k, b) in chunk.iter_mut().enumerate() {
                    *b = x[i0 + k] * scale[i0 + k];
                }
            });
            self.fwd.mul_left_into(buf, out);
        };
        match self.scaled.try_lock() {
            Ok(mut buf) => run(&mut buf),
            Err(_) => run(&mut vec![0.0; n]),
        }
    }
}

/// Row sums of a row-walked operator, accumulated per row in ascending
/// entry order (the fold `CsrMatrix::row_sums` runs), after checking
/// every entry.
fn walked_row_sums(fwd: &dyn TransitionOp, tol: f64) -> Result<Vec<f64>> {
    // A NaN marks a row with an invalid entry for the serial pass below.
    let mut sums = vec![0.0f64; fwd.rows()];
    par::for_each_chunk_mut(&mut sums, |r0, chunk| {
        for (k, out) in chunk.iter_mut().enumerate() {
            let mut s = 0.0f64;
            let mut ok = true;
            fwd.for_each_in_row(r0 + k, &mut |_, v| {
                ok &= valid_entry(v, tol);
                s += v;
            });
            *out = if ok { s } else { f64::NAN };
        }
    });
    if let Some(row) = sums.iter().position(|s| s.is_nan()) {
        // Re-scan serially to recover the offending entry.
        let mut bad = None;
        fwd.for_each_in_row(row, &mut |c, v| {
            if bad.is_none() && !valid_entry(v, tol) {
                bad = Some((c, v));
            }
        });
        let (col, value) = bad.expect("NaN row sum implies an invalid entry");
        return Err(MarkovError::InvalidProbability { row, col, value });
    }
    Ok(sums)
}

/// Joint row sums of a Kronecker operator from its factors: each lane's
/// entries are checked and its row sums folded in ascending entry order,
/// then the joint sums `Π_l rs_l(i_l)` are expanded row-major, outermost
/// lane first — `O(Σ nnz + n)` instead of a walk over the product.
fn lane_row_sums(factors: &[CsrMatrix], n: usize) -> Result<Vec<f64>> {
    let dim = factors.iter().try_fold(1usize, |acc, f| {
        (f.rows() == f.cols()).then(|| acc.checked_mul(f.rows()))?
    });
    if dim != Some(n) {
        return Err(MarkovError::InvalidArgument(
            "Kronecker factors must be square and multiply to the state count".into(),
        ));
    }
    let mut tail = n;
    for f in factors {
        tail /= f.rows();
        for r in 0..f.rows() {
            if let Some((c, v)) = f.row(r).find(|&(_, v)| !(v.is_finite() && v >= 0.0)) {
                return Err(MarkovError::InvalidProbability {
                    row: r * tail,
                    col: c * tail,
                    value: v,
                });
            }
        }
    }
    let mut sums = vec![1.0f64];
    for f in factors {
        let rs = f.row_sums();
        sums = sums
            .iter()
            .flat_map(|&a| rs.iter().map(move |&b| a * b))
            .collect();
    }
    Ok(sums)
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
        let n = self.n();
        assert_eq!(x.len(), n, "vector length must match state count");
        assert_eq!(y.len(), n, "output length must match state count");
        self.fwd.mul_right_into(x, y);
        let scale = &self.scale;
        par::for_each_chunk_mut(y, |i0, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o *= scale[i0 + k];
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

    /// The wrapped operator's factors: the chain's rows are theirs up to
    /// [`row_scale`](StochasticOp::row_scale).
    fn kron_factors(&self) -> Option<&[CsrMatrix]> {
        self.fwd.kron_factors()
    }
}

impl StochasticOp for ImplicitStochastic<'_> {
    fn csr(&self) -> Option<&CsrMatrix> {
        None
    }

    fn row_scale(&self) -> Option<&[f64]> {
        Some(&self.scale)
    }
}

/// A Kronecker operator for this crate's tests (the mode-product one
/// lives downstream, in `stochcdr-fsm`): rows and products come from the
/// materialized product, zero products skipped as a Kronecker row walk
/// skips them, and it reports its factors.
#[cfg(test)]
pub(crate) struct KronTestOp {
    factors: Vec<CsrMatrix>,
    product: CsrMatrix,
}

#[cfg(test)]
impl KronTestOp {
    pub(crate) fn new(factors: Vec<CsrMatrix>) -> Self {
        let product = stochcdr_linalg::kron::kron_all(&factors);
        KronTestOp { factors, product }
    }

    /// The materialized product.
    pub(crate) fn product(&self) -> &CsrMatrix {
        &self.product
    }
}

/// Largest entrywise relative gap, `|a − b| / max(|a|, |b|)`, for this
/// crate's tolerance pins.
#[cfg(test)]
pub(crate) fn max_rel_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| match x.abs().max(y.abs()) {
            0.0 => 0.0,
            m => (x - y).abs() / m,
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
impl TransitionOp for KronTestOp {
    fn rows(&self) -> usize {
        self.product.rows()
    }

    fn cols(&self) -> usize {
        self.product.cols()
    }

    fn nnz(&self) -> usize {
        self.factors.iter().map(CsrMatrix::nnz).sum()
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        self.product.mul_left_into(x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        self.product.mul_right_into(x, y);
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        for (c, v) in self.product.row(row) {
            if v != 0.0 {
                f(c, v);
            }
        }
    }

    fn kron_factors(&self) -> Option<&[CsrMatrix]> {
        Some(&self.factors)
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
    fn products_match_the_materialized_chain() {
        // The implicit chain scales the vector where the materialized one
        // stores pre-scaled values, so products agree to rounding: each
        // output sums at most 5 positive terms, each rounded at most twice
        // either way, which bounds the entrywise gap by 16 ε.
        let raw = raw_chain(48, 3);
        let chain = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let x: Vec<f64> = (0..48).map(|i| ((i * 29 + 3) % 31) as f64 / 31.0).collect();
        let mut a = vec![0.0; 48];
        let mut b = vec![0.0; 48];
        let bound = 16.0 * f64::EPSILON;
        chain.step_into(&x, &mut a);
        imp.step_into(&x, &mut b);
        assert!(max_rel_gap(&a, &b) <= bound, "step diverges");
        TransitionOp::mul_right_into(&chain, &x, &mut a);
        imp.mul_right_into(&x, &mut b);
        assert!(max_rel_gap(&a, &b) <= bound, "right product diverges");
        // The diagonal and the row traversal serve the materialized
        // values exactly: the walked row sums fold in the stored order.
        chain.diagonal_into(&mut a);
        imp.diagonal_into(&mut b);
        assert_eq!(a, b, "diagonal diverges");
        for r in 0..48 {
            let mut got: Vec<(usize, f64)> = Vec::new();
            imp.for_each_in_row(r, &mut |c, v| got.push((c, v)));
            let want: Vec<(usize, f64)> = chain.matrix().row(r).collect();
            assert_eq!(got, want, "row {r}");
        }
        let mut s1 = vec![0.0; 48];
        let mut s2 = vec![0.0; 48];
        let r1 = chain.stationary_residual_with(&x, &mut s1);
        let r2 = imp.stationary_residual_with(&x, &mut s2);
        assert!((r1 - r2).abs() <= 1e-14 * r1, "residuals {r1} vs {r2}");
    }

    /// A random square factor with `deg` entries per row summing to
    /// `1 + drift`.
    fn factor(n: usize, seed: u64, drift: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let raw = raw_chain(n, seed);
        for r in 0..n {
            let s: f64 = raw.row(r).map(|(_, v)| v).sum();
            for (c, v) in raw.row(r) {
                coo.push(r, c, v / s * (1.0 + drift));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn kronecker_chains_are_validated_lane_by_lane() {
        // Lane row sums of 1 ± 2e-7 multiply to joint sums within 1e-6.
        let op = KronTestOp::new(vec![factor(5, 1, 2e-7), factor(7, 2, -2e-7)]);
        let imp = ImplicitStochastic::with_tolerance(&op, &op, 1e-6).unwrap();
        let walked = StochasticMatrix::with_tolerance(op.product().clone(), 1e-6).unwrap();
        assert!(imp.kron_factors().is_some(), "the factors are forwarded");
        // The lane scale is the product of lane sums, the walked one the
        // sum of product entries: equal to a few ulps.
        let mut a = vec![0.0; 35];
        let mut b = vec![0.0; 35];
        let x: Vec<f64> = (0..35).map(|i| ((i * 17 + 5) % 23) as f64 / 23.0).collect();
        walked.step_into(&x, &mut a);
        imp.step_into(&x, &mut b);
        assert!(max_rel_gap(&a, &b) <= 16.0 * f64::EPSILON);
        // Lanes need not sum to one on their own: only the joint sums do.
        let op = KronTestOp::new(vec![factor(3, 3, 1.0), factor(4, 4, -0.5)]);
        assert!(ImplicitStochastic::with_tolerance(&op, &op, 1e-9).is_ok());
        // A bad lane entry is reported at the joint position whose other
        // lane digits are zero: lane 1's (1, 1) is joint (1, 1), lane 0's
        // (1, 0) is joint (4, 0).
        let neg = mat(2, &[(0, 0, 1.0), (1, 0, 1.25), (1, 1, -0.25)]);
        let op = KronTestOp::new(vec![factor(3, 6, 0.0), neg]);
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&op, &op, 1e-6),
            Err(MarkovError::InvalidProbability { row: 1, col: 1, value }) if value == -0.25
        ));
        let neg = mat(2, &[(0, 0, 1.0), (1, 0, -0.5), (1, 1, 1.5)]);
        let op = KronTestOp::new(vec![neg, factor(4, 8, 0.0)]);
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&op, &op, 1e-6),
            Err(MarkovError::InvalidProbability { row: 4, col: 0, .. })
        ));
        // Joint row (o, i) = (1, 0) is the first to sum to 1.5.
        let heavy = mat(2, &[(0, 0, 1.0), (1, 1, 1.5)]);
        let op = KronTestOp::new(vec![heavy, factor(4, 10, 0.0)]);
        assert!(matches!(
            ImplicitStochastic::with_tolerance(&op, &op, 1e-6),
            Err(MarkovError::RowSumNotOne { row: 4, sum }) if (sum - 1.5).abs() < 1e-12
        ));
    }

    fn mat(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
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
