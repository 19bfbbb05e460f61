//! Coordinate-format (triplet) sparse matrix builder.

use crate::CsrMatrix;

/// A sparse matrix under construction, stored as `(row, col, value)` triplets.
///
/// `CooMatrix` is the mutable staging area used while assembling a transition
/// probability matrix; duplicates are allowed and are summed when converting
/// to [`CsrMatrix`]. This mirrors how probability mass accumulates when
/// several noise outcomes lead to the same successor state.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 0.25);
/// coo.push(0, 1, 0.75); // duplicate: summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 1), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty builder for a `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` exceeds `u32::MAX` (the index type used for
    /// compact triplet storage).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "matrix dimensions exceed u32 index range"
        );
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with capacity for `nnz` triplets.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut m = Self::new(rows, cols);
        m.entries.reserve(nnz);
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no triplet has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a triplet.
    ///
    /// Entries with `value == 0.0` are silently dropped so that callers can
    /// push probability masses without filtering.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is out of bounds or `value` is not finite; both
    /// indicate a logic error in the model builder that must not be masked.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        assert!(
            value.is_finite(),
            "non-finite value {value} at ({row}, {col})"
        );
        if value != 0.0 {
            self.entries.push((row as u32, col as u32, value));
        }
    }

    /// Iterates over stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Converts to CSR, summing duplicate entries and dropping entries whose
    /// sum cancels to exactly zero.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row: O(nnz + rows), stable within a row by
        // insertion order; duplicates are merged after a per-row sort by col.
        let mut row_counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_counts[i + 1] += row_counts[i];
        }
        let mut next = row_counts.clone();
        let mut cols_buf = vec![0u32; self.entries.len()];
        let mut vals_buf = vec![0.0f64; self.entries.len()];
        for &(r, c, v) in &self.entries {
            let slot = next[r as usize];
            cols_buf[slot] = c;
            vals_buf[slot] = v;
            next[r as usize] += 1;
        }

        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut data: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.rows {
            let (lo, hi) = (row_counts[r], row_counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols_buf[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals_buf[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(c);
                    data.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, indptr, indices, data)
    }

    /// Clears all triplets, keeping the allocation and dimensions.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<T: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 4);
        let csr = coo.to_csr();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 0.3);
        coo.push(1, 0, 0.2);
        coo.push(1, 1, 0.5);
        let csr = coo.to_csr();
        assert!((csr.get(1, 0) - 0.5).abs() < 1e-15);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, -1.0);
        coo.push(0, 1, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    fn zero_values_are_ignored() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.0);
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(1, 0, 1.0);
    }

    #[test]
    fn rows_are_sorted_in_csr() {
        let mut coo = CooMatrix::new(1, 5);
        coo.push(0, 4, 4.0);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        let csr = coo.to_csr();
        let row: Vec<_> = csr.row(0).collect();
        assert_eq!(row, vec![(0, 1.0), (2, 2.0), (4, 4.0)]);
    }

    #[test]
    fn extend_works() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }
}
