//! Coarsening strategies: sequences of partitions from fine to coarse.

use stochcdr_markov::lumping::Partition;

/// Structure-blind pairwise coarsening: states `(2i, 2i+1)` are lumped at
/// every level until the chain has at most `stop_at` states.
///
/// Effective when the state ordering is such that adjacent indices are
/// "similar" (e.g. a 1-D chain); for product-space models prefer
/// [`GeometricCoarsening`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseCoarsening {
    stop_at: usize,
}

impl PairwiseCoarsening {
    /// Coarsens until the level size is `<= stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if `stop_at == 0`.
    pub fn until(stop_at: usize) -> Self {
        assert!(stop_at > 0, "stop size must be positive");
        PairwiseCoarsening { stop_at }
    }

    /// Generates the partition sequence for a fine chain of `n` states.
    ///
    /// Each partition maps a level's states onto the next-coarser level;
    /// the sequence is empty when `n <= stop_at` already.
    pub fn levels(&self, n: usize) -> Vec<Partition> {
        let mut parts = Vec::new();
        let mut size = n;
        while size > self.stop_at {
            let labels: Vec<usize> = (0..size).map(|i| i / 2).collect();
            parts.push(Partition::from_labels(labels).expect("pairing labels are contiguous"));
            size = size.div_ceil(2);
        }
        parts
    }
}

/// Structure-aware coarsening for product-space chains: halves the grid of
/// **one designated component** at each level, leaving the other components
/// intact.
///
/// This is the paper's strategy: "we employed a coarsening strategy which
/// lumps the two states corresponding to consecutive discretized phase
/// error values. In this way, the lumped problems resemble the original
/// problem but with coarser phase error discretization."
///
/// State packing must be row-major over `dims` (first component slowest),
/// matching `stochcdr_fsm::ProductSpace`.
///
/// # Example
///
/// ```
/// use stochcdr_multigrid::GeometricCoarsening;
///
/// // (data=2, counter=4, phase=16): halve the phase grid down to 4 bins.
/// let levels = GeometricCoarsening::new(vec![2, 4, 16], 2, 4).levels();
/// assert_eq!(levels.len(), 2); // 16 -> 8 -> 4
/// assert_eq!(levels[0].n(), 2 * 4 * 16);
/// assert_eq!(levels[1].block_count(), 2 * 4 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometricCoarsening {
    dims: Vec<usize>,
    /// `(component, stop_at)` entries processed in order.
    schedule: Vec<(usize, usize)>,
}

impl GeometricCoarsening {
    /// Creates a coarsening over the given product dimensions, halving
    /// `component` until that component's dimension is `<= stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is zero, `component` is out
    /// of range, or `stop_at == 0`.
    pub fn new(dims: Vec<usize>, component: usize, stop_at: usize) -> Self {
        assert!(!dims.is_empty(), "need at least one component");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        assert!(component < dims.len(), "component index out of range");
        assert!(stop_at > 0, "stop size must be positive");
        GeometricCoarsening {
            dims,
            schedule: vec![(component, stop_at)],
        }
    }

    /// Creates a coarsening that halves several components in sequence:
    /// each `(component, stop_at)` entry is exhausted before the next
    /// begins.
    ///
    /// The coarsest level of a multi-component product space is otherwise
    /// bounded below by the *unhalved* components' dimensions, which makes
    /// the direct coarsest solve (and therefore every W-cycle, which
    /// visits it `2^levels` times) expensive. Continuing through the other
    /// components shrinks the coarsest chain to a few dozen states.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new), for every schedule entry.
    pub fn with_schedule(dims: Vec<usize>, schedule: Vec<(usize, usize)>) -> Self {
        assert!(!dims.is_empty(), "need at least one component");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        assert!(!schedule.is_empty(), "schedule must be non-empty");
        for &(component, stop_at) in &schedule {
            assert!(component < dims.len(), "component index out of range");
            assert!(stop_at > 0, "stop size must be positive");
        }
        GeometricCoarsening { dims, schedule }
    }

    /// Generates the partition sequence.
    ///
    /// At each level, the active component's value `v` maps to `v / 2`;
    /// all other components are preserved. Odd dimensions leave the last
    /// value in a singleton block.
    pub fn levels(&self) -> Vec<Partition> {
        let mut parts = Vec::new();
        let mut dims = self.dims.clone();
        for &(component, stop_at) in &self.schedule {
            while dims[component] > stop_at {
                let fine_total: usize = dims.iter().product();
                let mut coarse_dims = dims.clone();
                coarse_dims[component] = dims[component].div_ceil(2);

                // Strides for fine and coarse packings.
                let strides = row_major_strides(&dims);
                let coarse_strides = row_major_strides(&coarse_dims);

                let mut labels = vec![0usize; fine_total];
                let mut parts_buf = vec![0usize; dims.len()];
                for (flat, label) in labels.iter_mut().enumerate() {
                    unpack(flat, &strides, &dims, &mut parts_buf);
                    parts_buf[component] /= 2;
                    *label = pack(&parts_buf, &coarse_strides);
                }
                parts.push(Partition::from_labels(labels).expect("halving labels are contiguous"));
                dims = coarse_dims;
            }
        }
        parts
    }
}

fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len() - 1).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

fn unpack(flat: usize, strides: &[usize], dims: &[usize], out: &mut [usize]) {
    let mut rem = flat;
    for i in 0..dims.len() {
        out[i] = rem / strides[i];
        rem %= strides[i];
    }
}

fn pack(parts: &[usize], strides: &[usize]) -> usize {
    parts.iter().zip(strides).map(|(&p, &s)| p * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_levels_halve() {
        let parts = PairwiseCoarsening::until(4).levels(32);
        assert_eq!(parts.len(), 3); // 32 -> 16 -> 8 -> 4
        assert_eq!(parts[0].n(), 32);
        assert_eq!(parts[0].block_count(), 16);
        assert_eq!(parts[2].block_count(), 4);
    }

    #[test]
    fn pairwise_odd_sizes() {
        let parts = PairwiseCoarsening::until(2).levels(7);
        // 7 -> 4 -> 2
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].block_count(), 4);
        assert_eq!(parts[1].block_count(), 2);
    }

    #[test]
    fn pairwise_no_levels_needed() {
        assert!(PairwiseCoarsening::until(8).levels(8).is_empty());
        assert!(PairwiseCoarsening::until(8).levels(5).is_empty());
    }

    #[test]
    fn geometric_halves_only_chosen_component() {
        // dims (data=2, counter=3, phase=8); halve phase until <= 2.
        let g = GeometricCoarsening::new(vec![2, 3, 8], 2, 2);
        let parts = g.levels();
        assert_eq!(parts.len(), 2); // 8 -> 4 -> 2
        assert_eq!(parts[0].n(), 48);
        assert_eq!(parts[0].block_count(), 24);
        assert_eq!(parts[1].block_count(), 12);
    }

    #[test]
    fn geometric_pairs_adjacent_phase_values() {
        let g = GeometricCoarsening::new(vec![2, 4], 1, 2);
        let parts = g.levels();
        let p = &parts[0];
        // Fine states (d, phi) with phi in 0..4: (0,0) and (0,1) same block.
        assert_eq!(p.block_of(0), p.block_of(1));
        assert_ne!(p.block_of(1), p.block_of(2));
        assert_eq!(p.block_of(2), p.block_of(3));
        // Different data states never share a block.
        assert_ne!(p.block_of(0), p.block_of(4));
    }

    #[test]
    fn geometric_odd_dimension() {
        let g = GeometricCoarsening::new(vec![5], 0, 2);
        let parts = g.levels();
        // 5 -> 3 -> 2
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].block_count(), 3);
        // Last fine value 4 sits alone in block 2.
        assert_eq!(parts[0].block_of(4), 2);
    }

    #[test]
    fn schedule_continues_through_components() {
        // dims (data=4, counter=8, phase=16): phase to 4, then counter to
        // 2, then data to 1.
        let g = GeometricCoarsening::with_schedule(vec![4, 8, 16], vec![(2, 4), (1, 2), (0, 1)]);
        // phase: 16->8->4 (2 levels), counter: 8->4->2 (2), data: 4->2->1 (2).
        let parts = g.levels();
        assert_eq!(parts.len(), 6);
        assert_eq!(parts[0].n(), 4 * 8 * 16);
        for w in parts.windows(2) {
            assert_eq!(w[0].block_count(), w[1].n());
        }
        assert_eq!(parts.last().unwrap().block_count(), 8);
    }

    #[test]
    fn partitions_chain_consistently() {
        // Each partition's block count equals the next partition's n.
        let g = GeometricCoarsening::new(vec![3, 16], 1, 2);
        let parts = g.levels();
        for w in parts.windows(2) {
            assert_eq!(w[0].block_count(), w[1].n());
        }
    }
}
