//! Kronecker (tensor) products of sparse matrices.
//!
//! The paper builds the transition probability matrix of the whole CDR loop
//! "using hierarchical Kronecker algebra-like techniques as a composition of
//! smaller components". These are the corresponding primitive operations:
//! for independent components with transition matrices `A` and `B`, the
//! joint chain has matrix `A ⊗ B`.
//!
//! State `(i, j)` of the product maps to flat index `i * B.rows() + j`
//! (row-major, left factor varies slowest), matching
//! [`stochcdr_fsm`](https://docs.rs)’ state indexing convention.
//!
//! Besides materializing a product ([`kron`], [`kron_all`]), the module
//! applies one without forming it: [`mul_left_modes`] and
//! [`mul_right_modes`] multiply by `F_0 ⊗ … ⊗ F_{k−1} ⊗ I_tail` one factor
//! (mode) at a time. This is the one mode-product kernel of the
//! workspace: the matrix-free Kronecker operator runs it with `tail = 1`,
//! and a coarse chain kept in factor form runs it over its outer lanes
//! with its inner dimension as the tail.

use std::sync::Mutex;

use crate::{par, CsrMatrix};

/// Computes the Kronecker product `A ⊗ B`.
///
/// The result has shape `(A.rows * B.rows) x (A.cols * B.cols)` and
/// `A.nnz * B.nnz` stored entries (fewer only if a product underflows to
/// zero, which is not stored). Rows are emitted directly in CSR order —
/// a Kronecker row is already sorted by column — so the only storage is
/// the result itself.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::{CooMatrix, kron};
///
/// // A = [[0,1],[1,0]] (deterministic toggle), B = I2.
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 1, 1.0);
/// a.push(1, 0, 1.0);
/// let a = a.to_csr();
/// let b = stochcdr_linalg::CsrMatrix::identity(2);
/// let k = kron::kron(&a, &b);
/// assert_eq!(k.rows(), 4);
/// assert_eq!(k.get(0, 2), 1.0); // (0,0) -> (1,0)
/// ```
pub fn kron(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let rows = a.rows() * b.rows();
    let cols = a.cols() * b.cols();
    let nnz = a.nnz().saturating_mul(b.nnz());
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(nnz);
    let mut data: Vec<f64> = Vec::with_capacity(nnz);
    indptr.push(0);
    for ar in 0..a.rows() {
        for br in 0..b.rows() {
            for (ac, av) in a.row(ar) {
                for (bc, bv) in b.row(br) {
                    let v = av * bv;
                    if v != 0.0 {
                        indices.push((ac * b.cols() + bc) as u32);
                        data.push(v);
                    }
                }
            }
            indptr.push(indices.len());
        }
    }
    CsrMatrix::from_raw_parts(rows, cols, indptr, indices, data)
}

/// Computes the Kronecker product of a sequence of factors, left to right.
///
/// An empty sequence yields the `1 x 1` identity (the unit of `⊗`).
pub fn kron_all<'a, I>(factors: I) -> CsrMatrix
where
    I: IntoIterator<Item = &'a CsrMatrix>,
{
    let mut acc = CsrMatrix::identity(1);
    for f in factors {
        acc = kron(&acc, f);
    }
    acc
}

/// Outer blocks the innermost mode (`inner == 1`) multiplies together.
/// Each batch is transposed so that the factor's multiply-adds run over
/// contiguous rows of `BATCH` values, which the compiler vectorizes,
/// instead of one scattered value per factor entry. A 256-state lane's
/// two batch buffers then take 64 KiB.
const BATCH: usize = 16;

/// Reusable buffers for [`mul_left_modes`] and [`mul_right_modes`],
/// grown on first use and reused thereafter, so warm callers allocate
/// nothing.
#[derive(Debug, Default)]
pub struct ModeScratch {
    /// Ping-pong buffers between modes: products of two factors use
    /// `cur`, longer ones both.
    cur: Vec<f64>,
    next: Vec<f64>,
    /// One pair of transposed batch buffers per worker, for the
    /// innermost mode.
    batches: Vec<Mutex<Batch>>,
}

/// A batch of outer blocks transposed to `n × width` (`src`) and its
/// mode product (`dst`).
#[derive(Debug, Default)]
struct Batch {
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Batch {
    fn grow(&mut self, len: usize) {
        if self.src.len() < len {
            self.src.resize(len, 0.0);
            self.dst.resize(len, 0.0);
        }
    }
}

impl ModeScratch {
    /// Makes one batch slot per worker, each holding at least `len`
    /// values per buffer.
    fn grow_batches(&mut self, len: usize) {
        let slots = self.batches.len().max(par::threads());
        self.batches.resize_with(slots, Default::default);
        for slot in &mut self.batches {
            if let Ok(b) = slot.get_mut() {
                b.grow(len);
            }
        }
    }
}

/// Computes `y = x·(F_0 ⊗ … ⊗ F_{k−1} ⊗ I_tail)` mode by mode, without
/// forming the product.
///
/// Viewing `x` as a tensor, each factor is applied along its own mode;
/// each mode application parallelizes over outer tensor blocks aligned to
/// the factor's block, so every output element is accumulated by exactly
/// one worker in serial order — bit-identical for any thread count.
///
/// # Panics
///
/// Panics if a factor is not square or if `x` and `y` are not both of
/// length `Π n_l · tail`.
pub fn mul_left_modes(
    factors: &[CsrMatrix],
    tail: usize,
    x: &[f64],
    y: &mut [f64],
    ws: &mut ModeScratch,
) {
    apply_modes(slab_left, factors, tail, x, y, ws);
}

/// Computes `y = (F_0 ⊗ … ⊗ F_{k−1} ⊗ I_tail)·x` mode by mode; the
/// column-vector twin of [`mul_left_modes`], with the same determinism.
///
/// # Panics
///
/// Same conditions as [`mul_left_modes`].
pub fn mul_right_modes(
    factors: &[CsrMatrix],
    tail: usize,
    x: &[f64],
    y: &mut [f64],
    ws: &mut ModeScratch,
) {
    apply_modes(slab_right, factors, tail, x, y, ws);
}

/// One factor applied to a slab of `n` rows of `width` values each
/// (`src[i·width + r]`): [`slab_left`] or [`slab_right`].
type Slab = fn(&CsrMatrix, usize, &[f64], &mut [f64]);

/// The mode-by-mode loop behind both product directions: the first mode
/// reads `x`, the last writes `y`, and the modes between ping-pong
/// through the scratch. The arithmetic is identical whichever buffers
/// arrive, so scratch reuse never changes a bit of the output.
fn apply_modes(
    slab: Slab,
    factors: &[CsrMatrix],
    tail: usize,
    x: &[f64],
    y: &mut [f64],
    ws: &mut ModeScratch,
) {
    let dim = factors.iter().fold(tail, |acc, f| {
        assert_eq!(f.rows(), f.cols(), "factors must be square");
        acc * f.rows()
    });
    assert_eq!(x.len(), dim, "vector length must match the product");
    assert_eq!(y.len(), dim, "output length must match the product");
    let k = factors.len();
    if k == 0 {
        y.copy_from_slice(x);
        return;
    }
    if k > 1 {
        ws.cur.resize(dim, 0.0);
    }
    if k > 2 {
        ws.next.resize(dim, 0.0);
    }
    let mut inner = dim;
    for (l, f) in factors.iter().enumerate() {
        inner /= f.rows();
        if inner == 1 {
            ws.grow_batches(f.rows() * BATCH);
        }
        let ModeScratch { cur, next, batches } = ws;
        match (l == 0, l + 1 == k) {
            (true, true) => apply_mode(slab, f, inner, x, y, batches),
            (true, false) => apply_mode(slab, f, inner, x, cur, batches),
            (false, true) => apply_mode(slab, f, inner, cur, y, batches),
            (false, false) => {
                apply_mode(slab, f, inner, cur, next, batches);
                std::mem::swap(cur, next);
            }
        }
    }
}

/// One mode application: factor `f` along the mode whose trailing block
/// is `inner` values long, from `cur` into `next`.
///
/// Parallel over blocks of `n · inner` elements (one block per outer
/// index); a factor row's products land inside its own block, so the
/// block partition makes every output element single-writer while
/// preserving the serial accumulation order exactly. Every block performs
/// the identical factor traversal, so the even, block-aligned split is
/// already balanced. Dispatches go to the persistent [`par`] pool, so a
/// mode product costs a park/unpark hand-off, not a thread spawn.
///
/// A block with `inner ≥ 2` is itself a slab of `n` rows of `inner`
/// values. The innermost mode (`inner == 1`) has one value per row, so
/// up to [`BATCH`] blocks of one worker's chunk are transposed into a
/// slab of `n` rows of one value per block, multiplied, and transposed
/// back; every output element still takes the same products in the same
/// order.
fn apply_mode(
    slab: Slab,
    f: &CsrMatrix,
    inner: usize,
    cur: &[f64],
    next: &mut [f64],
    batches: &[Mutex<Batch>],
) {
    let n = f.rows();
    let block = n * inner;
    if inner > 1 {
        par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
            let src = &cur[start..start + chunk.len()];
            for (s, out) in src.chunks_exact(block).zip(chunk.chunks_exact_mut(block)) {
                slab(f, inner, s, out);
            }
        });
        return;
    }
    let len = n * BATCH;
    par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
        // A free slot when the scratch was sized for this worker count;
        // fresh buffers otherwise (a concurrent thread-count change).
        let mut slot = batches.iter().find_map(|b| b.try_lock().ok());
        let mut spare = Batch::default();
        let buf = match slot.as_deref_mut() {
            Some(b) => b,
            None => {
                spare.grow(len);
                &mut spare
            }
        };
        let src = &cur[start..start + chunk.len()];
        for (s, out) in src.chunks(len).zip(chunk.chunks_mut(len)) {
            let width = out.len() / n;
            let (t, u) = (&mut buf.src[..out.len()], &mut buf.dst[..out.len()]);
            transpose_into(s, width, n, t);
            slab(f, width, t, u);
            transpose_into(u, n, width, out);
        }
    });
}

/// Writes the `rows × cols` row-major `src` transposed into `dst`.
fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// `dst = src · f` on a slab, every column at once: row `j` of `dst` is
/// `Σ_i f_ij · src_i` over the slab's rows `src_i`, accumulated over `i`
/// in ascending order from `+0.0`. Branch-free: a zero source adds
/// `±0.0`, which leaves a partial sum unchanged for finite factors (a sum
/// started at `+0.0` is never `−0.0`).
fn slab_left(f: &CsrMatrix, width: usize, src: &[f64], dst: &mut [f64]) {
    dst.fill(0.0);
    for (i, s) in src.chunks_exact(width).enumerate() {
        for (j, a) in f.row(i) {
            let d = &mut dst[j * width..(j + 1) * width];
            for (d, &v) in d.iter_mut().zip(s) {
                *d += v * a;
            }
        }
    }
}

/// `dst_i = Σ_j f_ij · src_j` over the slab's rows, accumulated over `j`
/// in row order from `+0.0`; the right product `f · src`, branch-free as
/// [`slab_left`].
fn slab_right(f: &CsrMatrix, width: usize, src: &[f64], dst: &mut [f64]) {
    for (i, d) in dst.chunks_exact_mut(width).enumerate() {
        d.fill(0.0);
        for (j, a) in f.row(i) {
            let s = &src[j * width..(j + 1) * width];
            for (d, &v) in d.iter_mut().zip(s) {
                *d += a * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn mat(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn kron_matches_definition() {
        let a = mat(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        let b = mat(2, 2, &[(0, 1, 5.0), (1, 1, 7.0)]);
        let k = kron(&a, &b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k.cols(), 4);
        assert_eq!(k.nnz(), a.nnz() * b.nnz());
        for (ar, ac, av) in a.iter() {
            for (br, bc, bv) in b.iter() {
                assert_eq!(k.get(2 * ar + br, 2 * ac + bc), av * bv);
            }
        }
    }

    #[test]
    fn kron_rows_match_the_triplet_assembly() {
        // Rows emitted in CSR order give the triplet route's pattern and
        // bits, including the product that underflows to zero and is not
        // stored.
        let a = mat(
            3,
            3,
            &[
                (0, 0, 0.25),
                (0, 2, 0.75),
                (1, 1, 1e-300),
                (2, 0, 0.5),
                (2, 1, 0.5),
            ],
        );
        let b = mat(2, 2, &[(0, 1, 1e-300), (1, 0, 0.3), (1, 1, 0.7)]);
        let mut coo = CooMatrix::new(6, 6);
        for (ar, ac, av) in a.iter() {
            for (br, bc, bv) in b.iter() {
                coo.push(ar * 2 + br, ac * 2 + bc, av * bv);
            }
        }
        let k = kron(&a, &b);
        assert_eq!(k.nnz(), a.nnz() * b.nnz() - 1);
        assert_eq!(k, coo.to_csr());
    }

    #[test]
    fn mode_products_match_the_materialized_product() {
        let a = mat(2, 2, &[(0, 0, 0.4), (0, 1, 0.6), (1, 0, 1.0)]);
        let b = mat(3, 3, &[(0, 1, 1.0), (1, 2, 0.5), (1, 0, 0.5), (2, 2, 1.0)]);
        // (A ⊗ B ⊗ I_2): the trailing identity is the tail.
        let full = kron_all([&a, &b, &CsrMatrix::identity(2)]);
        let x: Vec<f64> = (0..12).map(|i| ((i * 7 + 3) % 11) as f64 / 11.0).collect();
        let mut ws = ModeScratch::default();
        let mut y = vec![0.0; 12];
        mul_left_modes(&[a.clone(), b.clone()], 2, &x, &mut y, &mut ws);
        for (u, v) in y.iter().zip(full.mul_left(&x)) {
            assert!((u - v).abs() < 1e-15);
        }
        mul_right_modes(&[a, b], 2, &x, &mut y, &mut ws);
        for (u, v) in y.iter().zip(full.mul_right(&x)) {
            assert!((u - v).abs() < 1e-15);
        }
    }

    /// The entry-by-entry left mode product the slab kernels replaced,
    /// kept as their oracle: `next[(o,·,r)] = cur[(o,·,r)] · f`, skipping
    /// zero sources.
    fn apply_mode_left_scalar(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
        let block = f.rows() * inner;
        for (b, out) in next.chunks_mut(block).enumerate() {
            let base = b * block;
            out.fill(0.0);
            for i in 0..f.rows() {
                let row_base = base + i * inner;
                for (j, a) in f.row(i) {
                    let dst = j * inner;
                    for r in 0..inner {
                        let v = cur[row_base + r];
                        if v != 0.0 {
                            out[dst + r] += v * a;
                        }
                    }
                }
            }
        }
    }

    /// The right-product twin of [`apply_mode_left_scalar`]:
    /// `next[(o,i,r)] = Σ_j f_ij cur[(o,j,r)]`.
    fn apply_mode_right_scalar(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
        let block = f.rows() * inner;
        for (b, out) in next.chunks_mut(block).enumerate() {
            let base = b * block;
            out.fill(0.0);
            for i in 0..f.rows() {
                let dst = i * inner;
                for (j, a) in f.row(i) {
                    let src = base + j * inner;
                    for r in 0..inner {
                        let v = cur[src + r];
                        if v != 0.0 {
                            out[dst + r] += a * v;
                        }
                    }
                }
            }
        }
    }

    /// Applies a scalar `mode` for every factor through a copy of `x`, as
    /// `apply_modes` did before the first mode read `x` directly.
    fn modes_scalar(
        mode: fn(&CsrMatrix, usize, &[f64], &mut [f64]),
        factors: &[CsrMatrix],
        x: &[f64],
    ) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = vec![0.0; x.len()];
        let mut inner = x.len();
        for f in factors {
            inner /= f.rows();
            mode(f, inner, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// A sparse `n × n` factor with two to four entries per row,
    /// including a subnormal one.
    fn sparse_factor(n: usize, seed: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for t in 0..2 + (i + seed) % 3 {
                let j = (i * 7 + t * 11 + seed) % n;
                coo.push(i, j, ((i + 3 * t + seed) % 13 + 1) as f64 / 17.0);
            }
        }
        coo.push(n / 2, 0, 3.0 * f64::from_bits(1));
        coo.to_csr()
    }

    #[test]
    fn mode_products_are_bitwise_the_scalar_loops() {
        let _threads = crate::par::TEST_THREADS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Exact zeros of both signs, subnormals, negatives, ordinary
        // values: the zero tests the kernels dropped must not matter.
        let awkward = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| match i % 11 {
                    0 => 0.0,
                    3 => -0.0,
                    5 => f64::from_bits((i % 7 + 1) as u64),
                    7 => -((i % 13) as f64) / 13.0,
                    _ => ((i * 37 + 11) % 101) as f64 / 101.0,
                })
                .collect()
        };
        // Lane sizes that are no multiple of BATCH; the second shape
        // crosses the parallel cutoff, so each worker's chunk ends in a
        // short batch of its own.
        for dims in [[7, 5, 3], [37, 23, 41]] {
            let factors: Vec<CsrMatrix> = dims
                .iter()
                .enumerate()
                .map(|(k, &n)| sparse_factor(n, k))
                .collect();
            for k in 1..=factors.len() {
                let lanes = &factors[..k];
                for tail in [1, 4] {
                    let dim = dims[..k].iter().product::<usize>() * tail;
                    let x = awkward(dim);
                    let left = modes_scalar(apply_mode_left_scalar, lanes, &x);
                    let right = modes_scalar(apply_mode_right_scalar, lanes, &x);
                    for threads in [1, 2, 4, 8] {
                        par::set_threads(Some(threads));
                        let mut ws = ModeScratch::default();
                        let mut y = vec![f64::NAN; dim];
                        let same = |y: &[f64], want: &[f64]| {
                            y.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
                        };
                        mul_left_modes(lanes, tail, &x, &mut y, &mut ws);
                        assert!(
                            same(&y, &left),
                            "left, {dims:?}[..{k}], tail {tail}, {threads} workers"
                        );
                        mul_right_modes(lanes, tail, &x, &mut y, &mut ws);
                        assert!(
                            same(&y, &right),
                            "right, {dims:?}[..{k}], tail {tail}, {threads} workers"
                        );
                    }
                    par::set_threads(None);
                }
            }
        }
    }

    #[test]
    fn kron_with_identity_is_block_diagonal() {
        let a = CsrMatrix::identity(3);
        let b = mat(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 0, 1.0)]);
        let k = kron(&a, &b);
        // Block diagonal: entries only where row block == col block.
        for (r, c, _) in k.iter() {
            assert_eq!(r / 2, c / 2);
        }
    }

    #[test]
    fn kron_of_stochastic_is_stochastic() {
        let a = mat(2, 2, &[(0, 0, 0.3), (0, 1, 0.7), (1, 0, 1.0)]);
        let b = mat(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]);
        let k = kron(&a, &b);
        for s in k.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kron_all_unit_and_chain() {
        let e: Vec<&CsrMatrix> = vec![];
        let u = kron_all(e);
        assert_eq!(u.rows(), 1);
        assert_eq!(u.get(0, 0), 1.0);

        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(3);
        let c = CsrMatrix::identity(5);
        let k = kron_all([&a, &b, &c]);
        assert_eq!(k.rows(), 30);
        assert_eq!(k.nnz(), 30);
    }

    #[test]
    fn kron_associativity() {
        let a = mat(2, 2, &[(0, 1, 1.0), (1, 0, 0.5)]);
        let b = mat(2, 2, &[(0, 0, 2.0)]);
        let c = mat(2, 2, &[(1, 1, 3.0)]);
        let left = kron(&kron(&a, &b), &c);
        let right = kron(&a, &kron(&b, &c));
        assert_eq!(left, right);
    }
}
