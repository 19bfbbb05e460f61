//! Structural classification of Markov chains.
//!
//! Stationary analysis (and the multigrid solver) presuppose an irreducible
//! chain; first-passage analysis needs to know which states are transient.
//! This module computes the communicating classes (strongly connected
//! components of the transition graph), identifies recurrent (closed)
//! classes, and measures the chain's period.

use stochcdr_linalg::CsrMatrix;

use crate::StochasticMatrix;

/// The communicating-class decomposition of a chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// `class_of[state]` — index of the communicating class of each state.
    pub class_of: Vec<usize>,
    /// States of each class, indexed by class id.
    pub classes: Vec<Vec<usize>>,
    /// `true` for each class that is closed (recurrent): no transition
    /// leaves it.
    pub closed: Vec<bool>,
}

impl Classification {
    /// Number of communicating classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// `true` if the chain has a single communicating class.
    pub fn is_irreducible(&self) -> bool {
        self.classes.len() == 1
    }

    /// Indices of the recurrent (closed) classes.
    pub fn recurrent_classes(&self) -> Vec<usize> {
        (0..self.classes.len())
            .filter(|&c| self.closed[c])
            .collect()
    }
}

/// Computes the communicating classes of a chain.
///
/// Runs an iterative (explicit-stack) Tarjan SCC over the transition graph,
/// so chains with millions of states do not overflow the call stack.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::CooMatrix;
/// use stochcdr_markov::{classify::classify, StochasticMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 0 <-> 1 communicate; 2 is absorbing.
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 0.5);
/// coo.push(1, 2, 0.5);
/// coo.push(2, 2, 1.0);
/// let cls = classify(&StochasticMatrix::new(coo.to_csr())?);
/// assert_eq!(cls.class_count(), 2);
/// let rec = cls.recurrent_classes();
/// assert_eq!(rec.len(), 1);
/// assert_eq!(cls.classes[rec[0]], vec![2]);
/// # Ok(())
/// # }
/// ```
pub fn classify(p: &StochasticMatrix) -> Classification {
    classify_graph(p.matrix())
}

/// [`classify`] on a raw sparse adjacency/weight matrix.
///
/// Edges are the structurally nonzero entries; weights are ignored.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn classify_graph(a: &CsrMatrix) -> Classification {
    assert_eq!(
        a.rows(),
        a.cols(),
        "classification requires a square matrix"
    );
    let n = a.rows();
    // Iterative Tarjan.
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut class_of = vec![UNSET; n];
    let mut classes: Vec<Vec<usize>> = Vec::new();

    // Work stack entries: (node, edge cursor into the node's row).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        work.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            let (lo, hi) = (a.indptr()[v], a.indptr()[v + 1]);
            if *cursor < hi - lo {
                let w = a.indices()[lo + *cursor] as usize;
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // v is the root of an SCC.
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        class_of[w] = classes.len();
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members.sort_unstable();
                    classes.push(members);
                }
            }
        }
    }

    // A class is closed iff no edge leaves it.
    let mut closed = vec![true; classes.len()];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if class_of[r] != class_of[c] {
                closed[class_of[r]] = false;
            }
        }
    }
    Classification {
        class_of,
        classes,
        closed,
    }
}

/// Computes the period of an irreducible chain: the gcd of all cycle
/// lengths through state 0.
///
/// A period of 1 means the chain is aperiodic and power iteration converges.
/// Uses the BFS-level gcd algorithm: for every edge `(u, v)`,
/// `gcd(level(u) + 1 − level(v))` over all edges divides the period.
///
/// # Panics
///
/// Panics if the chain is empty.
pub fn period(p: &StochasticMatrix) -> usize {
    let a = p.matrix();
    let n = a.rows();
    assert!(n > 0, "period of an empty chain is undefined");
    let mut level = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    level[0] = 0;
    queue.push_back(0usize);
    let mut g: usize = 0;
    while let Some(u) = queue.pop_front() {
        for (v, _) in a.row(u) {
            if level[v] == usize::MAX {
                level[v] = level[u] + 1;
                queue.push_back(v);
            } else {
                // The period divides level(u) + 1 − level(v) for every edge;
                // tree-consistent edges (difference 0) contribute nothing.
                let diff = (level[u] + 1).abs_diff(level[v]);
                if diff > 0 {
                    g = gcd(g, diff);
                }
            }
            if g == 1 {
                return 1;
            }
        }
    }
    if g == 0 {
        // No cycles found from state 0 (cannot happen in a stochastic,
        // irreducible chain, but keep a defined answer).
        1
    } else {
        g
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::CooMatrix;

    fn chain(n: usize, edges: &[(usize, usize, f64)]) -> StochasticMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in edges {
            coo.push(r, c, v);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn irreducible_cycle() {
        let p = chain(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let cls = classify(&p);
        assert!(cls.is_irreducible());
        assert_eq!(cls.classes[0], vec![0, 1, 2]);
        assert!(cls.closed[0]);
        assert_eq!(period(&p), 3);
    }

    #[test]
    fn absorbing_structure() {
        // 0 -> {0,1}; 1 absorbing.
        let p = chain(2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]);
        let cls = classify(&p);
        assert_eq!(cls.class_count(), 2);
        assert!(!cls.is_irreducible());
        let rec = cls.recurrent_classes();
        assert_eq!(rec.len(), 1);
        assert_eq!(cls.classes[rec[0]], vec![1]);
    }

    #[test]
    fn two_closed_classes() {
        let p = chain(4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
        let cls = classify(&p);
        assert_eq!(cls.class_count(), 2);
        assert_eq!(cls.recurrent_classes().len(), 2);
    }

    #[test]
    fn aperiodic_when_self_loop_exists() {
        let p = chain(3, &[(0, 1, 0.5), (0, 0, 0.5), (1, 2, 1.0), (2, 0, 1.0)]);
        assert_eq!(period(&p), 1);
    }

    #[test]
    fn period_two_walk() {
        // Bipartite 4-cycle.
        let p = chain(
            4,
            &[
                (0, 1, 0.5),
                (0, 3, 0.5),
                (1, 0, 0.5),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (2, 3, 0.5),
                (3, 2, 0.5),
                (3, 0, 0.5),
            ],
        );
        assert_eq!(period(&p), 2);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // A long path with a closing edge: one big SCC of 100k states.
        let n = 100_000;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
        }
        coo.push(n - 1, 0, 1.0);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let cls = classify(&p);
        assert!(cls.is_irreducible());
    }

    #[test]
    fn class_of_is_consistent_with_classes() {
        let p = chain(2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]);
        let cls = classify(&p);
        for (cid, members) in cls.classes.iter().enumerate() {
            for &s in members {
                assert_eq!(cls.class_of[s], cid);
            }
        }
    }
}
