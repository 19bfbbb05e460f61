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

/// Reusable ping-pong buffers for [`mul_left_modes`] and
/// [`mul_right_modes`], grown on first use and reused thereafter, so warm
/// callers allocate nothing.
#[derive(Debug, Default)]
pub struct ModeScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl ModeScratch {
    /// Buffers preallocated for products of length `n`, so even the
    /// first product allocates nothing.
    pub fn with_capacity(n: usize) -> Self {
        ModeScratch {
            cur: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
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
    apply_modes(apply_mode_left, factors, tail, x, y, ws);
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
    apply_modes(apply_mode_right, factors, tail, x, y, ws);
}

/// The mode-by-mode loop behind both product directions. The arithmetic
/// is identical whichever buffers arrive, so scratch reuse never changes
/// a bit of the output.
fn apply_modes(
    mode: fn(&CsrMatrix, usize, &[f64], &mut [f64]),
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
    ws.cur.clear();
    ws.cur.extend_from_slice(x);
    ws.next.clear();
    ws.next.resize(dim, 0.0);
    let mut inner = dim;
    for f in factors {
        inner /= f.rows();
        mode(f, inner, &ws.cur, &mut ws.next);
        std::mem::swap(&mut ws.cur, &mut ws.next);
    }
    y.copy_from_slice(&ws.cur);
}

/// One left-product mode application: `next[(o,·,r)] = cur[(o,·,r)] · f`
/// for every outer index `o` and trailing index `r < inner`.
///
/// Parallel over blocks of `n · inner` elements (one block per outer
/// index); the scatter of each factor row lands inside its own block, so
/// the block partition makes every output element single-writer while
/// preserving the serial accumulation order exactly. Every block performs
/// the identical factor traversal, so the even, block-aligned split is
/// already balanced. Dispatches go to the persistent [`par`] pool, so a
/// mode product costs a park/unpark hand-off, not a thread spawn.
fn apply_mode_left(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
    let n = f.rows();
    let block = n * inner;
    par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
        for (b, out) in chunk.chunks_mut(block).enumerate() {
            let base = start + b * block;
            out.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
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
    });
}

/// One right-product mode application: `next[(o,i,r)] = Σ_j f_ij cur[(o,j,r)]`.
///
/// Pure gather per output block — same block-aligned parallel partition as
/// [`apply_mode_left`].
fn apply_mode_right(f: &CsrMatrix, inner: usize, cur: &[f64], next: &mut [f64]) {
    let n = f.rows();
    let block = n * inner;
    par::for_each_chunk_aligned_mut(next, block, |start, chunk| {
        for (b, out) in chunk.chunks_mut(block).enumerate() {
            let base = start + b * block;
            out.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..n {
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
    });
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
