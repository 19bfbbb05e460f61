//! Special functions: `erfc`, its inverse, and Q-factors.
//!
//! BER analysis lives in the far tails of the Gaussian: a `1e-10` error
//! probability corresponds to ~6.4σ. The complementary error function must
//! therefore be accurate in a *relative* sense out to large arguments —
//! `1 − erf(x)` computed naively loses all digits past ~5σ. The
//! implementation below keeps relative error below ~1.2e-7 uniformly, which
//! is ample for reproducing the paper's BER figures.

/// Complementary error function with uniform relative accuracy ~1.2e-7.
///
/// Uses the Chebyshev-fitted expression from Numerical Recipes (the
/// "erfcc" rational-in-exponent form), symmetrized for negative arguments.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `P(Z > x)`, accurate in the far tail.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of [`erfc`] on `(0, 2)`, computed by bisection + Newton polish.
///
/// # Panics
///
/// Panics if `y` is outside `(0, 2)`.
pub fn erfc_inv(y: f64) -> f64 {
    assert!(y > 0.0 && y < 2.0, "erfc_inv domain is (0, 2), got {y}");
    if (y - 1.0).abs() < 1e-300 {
        return 0.0;
    }
    // erfc is strictly decreasing; bracket the root.
    let (mut lo, mut hi) = (-30.0f64, 30.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if erfc(mid) > y {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Inverse standard normal survival function: the `x` with `P(Z > x) = p`.
///
/// This is the "Q-factor" of link budgets: `q_factor(1e-12) ≈ 7.03`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn q_factor(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "q_factor domain is (0, 1), got {p}");
    std::f64::consts::SQRT_2 * erfc_inv(2.0 * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        // erfc(x) = 1 − erf(x), with erf(1) = 0.8427007929497149 and
        // erf(3) = 0.9999779095030014.
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - (1.0 - 0.8427007929497149)).abs() < 2e-7);
        assert!((erfc(-1.0) - (1.0 + 0.8427007929497149)).abs() < 2e-7);
        assert!((erfc(3.0) - (1.0 - 0.9999779095030014)).abs() < 2e-7);
    }

    #[test]
    fn erfc_far_tail_relative_accuracy() {
        // Reference values (Mathematica/scipy): erfc(5) = 1.5374597944280347e-12,
        // erfc(7) = 4.183825607779414e-23.
        let cases = [(5.0, 1.5374597944280347e-12), (7.0, 4.183825607779414e-23)];
        for (x, reference) in cases {
            let rel = (erfc(x) - reference).abs() / reference;
            assert!(rel < 1e-6, "erfc({x}) relative error {rel}");
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 2.0, 4.0] {
            assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_and_sf_are_complementary() {
        for &x in &[-3.0, -0.5, 0.0, 1.5, 4.0] {
            assert!((normal_cdf(x) + normal_sf(x) - 1.0).abs() < 1e-6);
        }
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tail_probability_known_sigmas() {
        // P(Z > 6.361) ~ 1e-10 (standard BER table value 6.3613).
        assert!((normal_sf(6.3613) / 1e-10 - 1.0).abs() < 1e-2);
    }

    #[test]
    fn inverse_round_trips() {
        for &y in &[1.9, 1.0 + 1e-6, 0.5, 1e-3, 1e-9, 1e-15] {
            let x = erfc_inv(y);
            assert!((erfc(x) / y - 1.0).abs() < 1e-6, "round trip failed at {y}");
        }
    }

    #[test]
    fn q_factor_table() {
        // Classic optical-link Q values.
        assert!((q_factor(1e-9) - 5.9978).abs() < 1e-3);
        assert!((q_factor(1e-12) - 7.0345).abs() < 1e-3);
        assert!((q_factor(0.5)).abs() < 1e-10);
    }
}
