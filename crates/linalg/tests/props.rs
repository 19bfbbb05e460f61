//! Property-based tests for the sparse kernels.

use proptest::prelude::*;
use stochcdr_linalg::{kron, vecops, CooMatrix, CsrMatrix, DenseMatrix};

/// Strategy generating a random sparse matrix as triplets.
fn sparse(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec((0..rows, 0..cols, -10.0f64..10.0), 0..rows * cols.min(40)).prop_map(
        move |trips| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v) in trips {
                coo.push(r, c, v);
            }
            coo.to_csr()
        },
    )
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `x (A B) == (x A) B` — associativity of the product kernels.
    #[test]
    fn matmul_associates_with_mul_left(
        a in sparse(6, 5),
        b in sparse(5, 7),
        x in vector(6),
    ) {
        let ab = a.matmul(&b).unwrap();
        let lhs = ab.mul_left(&x);
        let rhs = b.mul_left(&a.mul_left(&x));
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-9, "{lhs:?} vs {rhs:?}");
        }
    }

    /// Transposition swaps the two product kernels.
    #[test]
    fn transpose_swaps_products(a in sparse(6, 4), x in vector(6)) {
        let lhs = a.mul_left(&x);
        let rhs = a.transpose().mul_right(&x);
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-10);
        }
    }

    /// Transposition is an involution.
    #[test]
    fn transpose_involution(a in sparse(5, 8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// CSR -> COO -> CSR round trip is the identity.
    #[test]
    fn coo_round_trip(a in sparse(7, 7)) {
        prop_assert_eq!(a.to_coo().to_csr(), a);
    }

    /// Dense and sparse products agree.
    #[test]
    fn dense_agrees_with_sparse(a in sparse(5, 6), x in vector(6)) {
        let d = a.to_dense();
        let ys = a.mul_right(&x);
        let yd = d.mul_right(&x);
        for (s, dd) in ys.iter().zip(&yd) {
            prop_assert!((s - dd).abs() < 1e-10);
        }
    }

    /// Mixed-product property: (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD).
    #[test]
    fn kron_mixed_product(
        a in sparse(3, 3),
        b in sparse(2, 2),
        c in sparse(3, 3),
        d in sparse(2, 2),
    ) {
        let lhs = kron::kron(&a, &b).matmul(&kron::kron(&c, &d)).unwrap();
        let rhs = kron::kron(&a.matmul(&c).unwrap(), &b.matmul(&d).unwrap());
        // Compare entrywise (patterns can differ by explicit zeros).
        for i in 0..lhs.rows() {
            for j in 0..lhs.cols() {
                prop_assert!((lhs.get(i, j) - rhs.get(i, j)).abs() < 1e-9);
            }
        }
    }

    /// LU solves reproduce the right-hand side.
    #[test]
    fn lu_solves(values in prop::collection::vec(-3.0f64..3.0, 16), b in vector(4)) {
        let mut m = DenseMatrix::from_rows(4, 4, &values);
        // Diagonal dominance guarantees solvability.
        for i in 0..4 {
            let row_sum: f64 = (0..4).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        let x = m.solve(&b).unwrap();
        let back = m.mul_right(&x);
        for (bb, e) in back.iter().zip(&b) {
            prop_assert!((bb - e).abs() < 1e-8);
        }
    }

    /// GMRES agrees with LU on diagonally dominant systems.
    #[test]
    fn gmres_agrees_with_lu(values in prop::collection::vec(-2.0f64..2.0, 25), b in vector(5)) {
        let mut dense = DenseMatrix::from_rows(5, 5, &values);
        for i in 0..5 {
            let row_sum: f64 = (0..5).map(|j| dense[(i, j)].abs()).sum();
            dense[(i, i)] = row_sum + 1.0;
        }
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            for j in 0..5 {
                coo.push(i, j, dense[(i, j)]);
            }
        }
        let sparse_m = coo.to_csr();
        let xg = stochcdr_linalg::gmres(
            &sparse_m, &b, None, &stochcdr_linalg::GmresOptions::default()).unwrap();
        let xl = dense.solve(&b).unwrap();
        for (g, l) in xg.x.iter().zip(&xl) {
            prop_assert!((g - l).abs() < 1e-6, "{:?} vs {:?}", xg.x, xl);
        }
    }

    /// Row sums survive row scaling consistently.
    #[test]
    fn scale_rows_scales_sums(a in sparse(5, 5), factors in prop::collection::vec(0.1f64..3.0, 5)) {
        let scaled = a.scale_rows(&factors);
        let before = a.row_sums();
        let after = scaled.row_sums();
        for i in 0..5 {
            prop_assert!((after[i] - before[i] * factors[i]).abs() < 1e-9);
        }
    }

    /// normalize_l1 produces a unit-mass vector whenever mass is positive.
    #[test]
    fn normalize_l1_unit_mass(mut x in prop::collection::vec(0.0f64..10.0, 1..20)) {
        let had_mass = x.iter().sum::<f64>() > 0.0;
        let ok = vecops::normalize_l1(&mut x);
        prop_assert_eq!(ok, had_mass);
        if ok {
            prop_assert!((vecops::sum(&x) - 1.0).abs() < 1e-12);
        }
    }
}
