//! BLAS-1 style vector kernels used by the iterative solvers.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot requires equal lengths");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Sum of all entries.
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// L2 (Euclidean) norm.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Max (infinity) norm.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// L1 distance between two vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dist1(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist1 requires equal lengths");
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum()
}

/// Max-norm distance between two vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dist_inf(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist_inf requires equal lengths");
    x.iter().zip(y).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
}

/// Scales `x` in place so its entries sum to one.
///
/// Probability vectors are maintained in L1; this is the renormalization
/// applied after every power/multigrid step. Does nothing (and returns
/// `false`) when the current sum is zero or non-finite, so callers can
/// detect collapse.
pub fn normalize_l1(x: &mut [f64]) -> bool {
    let s = sum(x);
    if s == 0.0 || !s.is_finite() {
        return false;
    }
    let inv = 1.0 / s;
    for v in x.iter_mut() {
        *v *= inv;
    }
    true
}

/// Scales all entries by `alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Returns the uniform probability vector of length `n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn uniform(n: usize) -> Vec<f64> {
    assert!(n > 0, "uniform vector needs positive length");
    vec![1.0 / n as f64; n]
}

/// Returns `true` if every entry is finite and non-negative.
pub fn is_nonnegative(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite() && *v >= 0.0)
}

/// Clamps tiny negative round-off (` >= -tol`) to zero in place.
///
/// # Panics
///
/// Panics (in debug builds) if an entry is more negative than `-tol`,
/// which indicates an actual algorithmic error rather than round-off.
pub fn clamp_roundoff(x: &mut [f64], tol: f64) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            debug_assert!(*v >= -tol, "entry {v} more negative than -{tol}");
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn distances() {
        let x = [1.0, 2.0];
        let y = [4.0, 0.0];
        assert_eq!(dist1(&x, &y), 5.0);
        assert_eq!(dist_inf(&x, &y), 3.0);
    }

    #[test]
    fn normalize_handles_zero() {
        let mut x = [0.0, 0.0];
        assert!(!normalize_l1(&mut x));
        let mut y = [1.0, 3.0];
        assert!(normalize_l1(&mut y));
        assert!((sum(&y) - 1.0).abs() < 1e-15);
        assert_eq!(y[1], 0.75);
    }

    #[test]
    fn uniform_sums_to_one() {
        let u = uniform(7);
        assert!((sum(&u) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonnegativity_check() {
        assert!(is_nonnegative(&[0.0, 1.0]));
        assert!(!is_nonnegative(&[-1e-30]));
        assert!(!is_nonnegative(&[f64::NAN]));
    }

    #[test]
    fn clamp_roundoff_zeros_tiny_negatives() {
        let mut x = [1.0, -1e-18, 0.5];
        clamp_roundoff(&mut x, 1e-12);
        assert_eq!(x[1], 0.0);
        assert_eq!(x[0], 1.0);
    }
}
