//! Row-oriented transition-probability-matrix builder.

use stochcdr_linalg::{par, CsrMatrix};
use stochcdr_obs as obs;

use crate::{FsmError, Result};

/// Rows per parallel assembly chunk in [`build_rows`]. A pure constant —
/// never derived from the thread count — so the chunk decomposition, and
/// with it the assembled matrix, is identical for any `STOCHCDR_THREADS`.
const ROW_CHUNK: usize = 256;

/// Per-row emission scratch handed to the closure of [`build_rows`].
///
/// Duplicate merging is the workhorse of the paper's model construction:
/// many different noise outcomes map to the *same* successor state (e.g.
/// every `n_w` value that leaves the phase-detector decision unchanged), so
/// accumulating `(successor, probability)` pairs and summing duplicates
/// keeps the stored fan-out equal to the number of *distinct* successors.
/// Zero-probability emissions are dropped.
#[derive(Debug)]
pub struct RowEmitter {
    n: usize,
    row: Vec<(usize, f64)>,
}

impl RowEmitter {
    /// Emits one transition of the current row.
    ///
    /// # Panics
    ///
    /// Panics if `next` is out of range or `prob` is negative/non-finite.
    pub fn emit(&mut self, next: usize, prob: f64) {
        assert!(next < self.n, "successor {next} out of range");
        assert!(
            prob.is_finite() && prob >= 0.0,
            "invalid probability {prob}"
        );
        if prob > 0.0 {
            self.row.push((next, prob));
        }
    }
}

/// Assembles an `n`-state TPM by calling `row_fn(state, emitter)` for every
/// row, in parallel.
///
/// The row closure must be a pure function of the state index: rows are
/// assembled in fixed chunks of `ROW_CHUNK` (256) states distributed over the
/// worker pool, then concatenated in state order, so the resulting matrix
/// is byte-identical for any thread count. Within a row, duplicate
/// successors are merged and the row sum is validated against `tol`.
///
/// # Example
///
/// ```
/// use stochcdr_fsm::build_rows;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tpm = build_rows(2, 1e-9, |state, em| {
///     if state == 0 {
///         em.emit(1, 0.25);
///         em.emit(1, 0.25); // merged with the previous emit
///         em.emit(0, 0.5);
///     } else {
///         em.emit(0, 1.0);
///     }
/// })?;
/// assert_eq!(tpm.get(0, 1), 0.5);
/// assert_eq!(tpm.nnz(), 3);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`FsmError::InvalidProbability`] for the lowest-indexed row
/// whose accumulated mass is not within `tol` of one.
///
/// # Panics
///
/// Panics if `n == 0`, `tol <= 0`, or the closure emits an invalid
/// transition.
pub fn build_rows<F>(n: usize, tol: f64, row_fn: F) -> Result<CsrMatrix>
where
    F: Fn(usize, &mut RowEmitter) + Sync,
{
    assert!(n > 0, "chain must have at least one state");
    assert!(tol > 0.0, "tolerance must be positive");
    let _span = obs::span("fsm.tpm_build_rows");
    let chunks = par::map_chunks(n, ROW_CHUNK, |range| {
        let chunk_t0 = obs::enabled().then(std::time::Instant::now);
        let mut indices: Vec<u32> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        let mut lens: Vec<usize> = Vec::with_capacity(range.len());
        let mut em = RowEmitter { n, row: Vec::new() };
        for state in range {
            em.row.clear();
            row_fn(state, &mut em);
            em.row.sort_unstable_by_key(|&(next, _)| next);
            let before = indices.len();
            let mut total = 0.0;
            let mut i = 0;
            while i < em.row.len() {
                let next = em.row[i].0;
                let mut p = 0.0;
                while i < em.row.len() && em.row[i].0 == next {
                    p += em.row[i].1;
                    i += 1;
                }
                total += p;
                indices.push(next as u32);
                data.push(p);
            }
            if (total - 1.0).abs() > tol {
                return Err(FsmError::InvalidProbability(format!(
                    "row {state} sums to {total}, expected 1"
                )));
            }
            lens.push(indices.len() - before);
        }
        if let Some(t0) = chunk_t0 {
            obs::histogram("fsm.tpm_row_chunk.ns", t0.elapsed().as_nanos() as f64);
        }
        Ok((indices, data, lens))
    });

    // Chunks arrive in ascending state order, so the first error seen is
    // the lowest-indexed failing row; concatenation preserves row order.
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut data: Vec<f64> = Vec::new();
    for chunk in chunks {
        let (ci, cd, lens) = chunk?;
        for len in lens {
            indptr.push(indptr.last().expect("non-empty") + len);
        }
        indices.extend_from_slice(&ci);
        data.extend_from_slice(&cd);
    }
    let csr = CsrMatrix::from_sorted_parts(n, n, indptr, indices, data)
        .map_err(|e| FsmError::InvalidProbability(format!("assembled TPM malformed: {e}")))?;
    obs::event(
        "fsm.tpm_assembled",
        &[("rows", csr.rows().into()), ("nnz", csr.nnz().into())],
    );
    Ok(csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::CooMatrix;

    #[test]
    fn build_rows_matches_coo_oracle_at_any_thread_count() {
        // A ring chain with duplicate emissions, crossing the chunk size so
        // several chunks participate. The oracle sums the same emissions
        // through `CooMatrix::to_csr`, an independent serial merge.
        let n = 600;
        let row = |state: usize, em: &mut RowEmitter| {
            em.emit((state + 1) % n, 0.3);
            em.emit((state + 1) % n, 0.3); // merged
            em.emit(state, 0.15);
            em.emit((state + n - 1) % n, 0.25);
        };
        let mut coo = CooMatrix::new(n, n);
        for s in 0..n {
            let mut em = RowEmitter { n, row: Vec::new() };
            row(s, &mut em);
            for &(next, p) in &em.row {
                coo.push(s, next, p);
            }
        }
        let oracle = coo.to_csr();
        for threads in [1, 2, 4] {
            par::set_threads(Some(threads));
            let built = build_rows(n, 1e-9, row);
            par::set_threads(None);
            assert_eq!(built.unwrap(), oracle, "{threads} threads");
        }
    }

    #[test]
    fn build_rows_reports_lowest_bad_row() {
        let err = build_rows(500, 1e-9, |state, em| {
            // Rows 123 and 321 are short of probability mass.
            let p = if state == 123 || state == 321 {
                0.5
            } else {
                1.0
            };
            em.emit(state, p);
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 123"), "{msg}");
    }

    #[test]
    fn build_rows_merges_duplicates() {
        let m = build_rows(3, 1e-9, |s, em| {
            em.emit((s + 1) % 3, 0.25);
            em.emit((s + 1) % 3, 0.25);
            em.emit(s, 0.5);
            em.emit((s + 2) % 3, 0.0); // zero mass is not stored
        })
        .unwrap();
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.get(0, 1), 0.5);
        assert!(m.row(0).all(|(col, _)| col != 2));
    }
}
