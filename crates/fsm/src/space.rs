//! Mixed-radix indexing of joint component state spaces.

/// A mixed-radix product space: joint states of `k` components with
/// dimensions `dims[0] .. dims[k-1]` are packed into a flat index with the
/// **first component varying slowest** (row-major), matching the Kronecker
/// product convention of `stochcdr_linalg::kron`.
///
/// # Example
///
/// ```
/// use stochcdr_fsm::ProductSpace;
///
/// let space = ProductSpace::new(vec![3, 4]);
/// assert_eq!(space.len(), 12);
/// let flat = space.pack(&[2, 1]);
/// assert_eq!(flat, 2 * 4 + 1);
/// assert_eq!(space.unpack(flat), vec![2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductSpace {
    dims: Vec<usize>,
    /// Stride of each component in the flat index.
    strides: Vec<usize>,
    len: usize,
}

impl ProductSpace {
    /// Creates a product space from per-component dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is zero, or the product
    /// overflows `usize`.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(
            !dims.is_empty(),
            "product space needs at least one component"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be positive"
        );
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            strides[i] = strides[i + 1]
                .checked_mul(dims[i + 1])
                .expect("state space size overflows usize");
        }
        let len = strides[0]
            .checked_mul(dims[0])
            .expect("state space size overflows usize");
        ProductSpace { dims, strides, len }
    }

    /// Total number of joint states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` only for the degenerate one-state space.
    pub fn is_empty(&self) -> bool {
        false // by construction len >= 1
    }

    /// Packs per-component states into a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `parts.len()` differs from the component count or any part
    /// exceeds its dimension.
    pub fn pack(&self, parts: &[usize]) -> usize {
        assert_eq!(
            parts.len(),
            self.dims.len(),
            "one part per component required"
        );
        let mut flat = 0;
        for ((&p, &d), &s) in parts.iter().zip(&self.dims).zip(&self.strides) {
            assert!(p < d, "component state {p} out of range 0..{d}");
            flat += p * s;
        }
        flat
    }

    /// Unpacks a flat index into per-component states.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= len()`.
    pub fn unpack(&self, flat: usize) -> Vec<usize> {
        assert!(
            flat < self.len,
            "flat index {flat} out of range 0..{}",
            self.len
        );
        let mut rem = flat;
        self.strides
            .iter()
            .map(|&s| {
                let part = rem / s;
                rem %= s;
                part
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let s = ProductSpace::new(vec![2, 3, 5]);
        assert_eq!(s.len(), 30);
        for flat in 0..s.len() {
            let parts = s.unpack(flat);
            assert_eq!(s.pack(&parts), flat);
        }
    }

    #[test]
    fn row_major_ordering() {
        let s = ProductSpace::new(vec![2, 3]);
        assert_eq!(s.pack(&[0, 0]), 0);
        assert_eq!(s.pack(&[0, 2]), 2);
        assert_eq!(s.pack(&[1, 0]), 3);
    }

    #[test]
    fn singleton_space() {
        let s = ProductSpace::new(vec![1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pack(&[0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pack_rejects_overflowing_part() {
        let s = ProductSpace::new(vec![2, 2]);
        s.pack(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = ProductSpace::new(vec![2, 0]);
    }
}
