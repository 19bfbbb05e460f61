//! Row-oriented transition-probability-matrix builder.

use stochcdr_linalg::{par, CooMatrix, CsrMatrix};
use stochcdr_obs as obs;

use crate::{FsmError, Result};

/// Rows per parallel assembly chunk in [`build_rows`]. A pure constant —
/// never derived from the thread count — so the chunk decomposition, and
/// with it the assembled matrix, is identical for any `STOCHCDR_THREADS`.
const ROW_CHUNK: usize = 256;

/// Accumulates the transition probability matrix of a stochastic FSM one
/// state (row) at a time, merging duplicate successor states.
///
/// Duplicate merging is the workhorse of the paper's model construction:
/// many different noise outcomes map to the *same* successor state (e.g.
/// every `n_w` value that leaves the phase-detector decision unchanged), so
/// accumulating `(successor, probability)` pairs and summing duplicates
/// keeps the stored fan-out equal to the number of *distinct* successors.
///
/// # Example
///
/// ```
/// use stochcdr_fsm::TpmBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TpmBuilder::new(2);
/// b.begin_row(0);
/// b.emit(1, 0.25);
/// b.emit(1, 0.25); // merged with the previous emit
/// b.emit(0, 0.5);
/// b.end_row()?;
/// b.begin_row(1);
/// b.emit(0, 1.0);
/// b.end_row()?;
/// let tpm = b.finish()?;
/// assert_eq!(tpm.get(0, 1), 0.5);
/// assert_eq!(tpm.nnz(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TpmBuilder {
    n: usize,
    coo: CooMatrix,
    /// Scratch for the current row: (successor, probability).
    row: Vec<(usize, f64)>,
    current_row: Option<usize>,
    rows_done: Vec<bool>,
    /// Row-sum tolerance.
    tol: f64,
}

impl TpmBuilder {
    /// Creates a builder for an `n`-state chain.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "chain must have at least one state");
        TpmBuilder {
            n,
            coo: CooMatrix::new(n, n),
            row: Vec::new(),
            current_row: None,
            rows_done: vec![false; n],
            tol: 1e-9,
        }
    }

    /// Overrides the row-sum tolerance (default `1e-9`).
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tol = tol;
        self
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Starts accumulating transitions out of `state`.
    ///
    /// # Panics
    ///
    /// Panics if another row is open or the row was already finished.
    pub fn begin_row(&mut self, state: usize) {
        assert!(self.current_row.is_none(), "previous row not ended");
        assert!(state < self.n, "state {state} out of range");
        assert!(!self.rows_done[state], "row {state} already built");
        self.current_row = Some(state);
        self.row.clear();
    }

    /// Emits one transition of the open row.
    ///
    /// Zero-probability emissions are ignored.
    ///
    /// # Panics
    ///
    /// Panics if no row is open, `next` is out of range, or `prob` is
    /// negative/non-finite.
    pub fn emit(&mut self, next: usize, prob: f64) {
        assert!(self.current_row.is_some(), "no open row");
        assert!(next < self.n, "successor {next} out of range");
        assert!(
            prob.is_finite() && prob >= 0.0,
            "invalid probability {prob}"
        );
        if prob > 0.0 {
            self.row.push((next, prob));
        }
    }

    /// Ends the open row, merging duplicates and validating the row sum.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::InvalidProbability`] if the accumulated mass is
    /// not within tolerance of one.
    pub fn end_row(&mut self) -> Result<()> {
        let state = self.current_row.take().expect("no open row");
        self.row.sort_unstable_by_key(|&(next, _)| next);
        let mut total = 0.0;
        let mut i = 0;
        while i < self.row.len() {
            let next = self.row[i].0;
            let mut p = 0.0;
            while i < self.row.len() && self.row[i].0 == next {
                p += self.row[i].1;
                i += 1;
            }
            total += p;
            self.coo.push(state, next, p);
        }
        if (total - 1.0).abs() > self.tol {
            return Err(FsmError::InvalidProbability(format!(
                "row {state} sums to {total}, expected 1"
            )));
        }
        self.rows_done[state] = true;
        Ok(())
    }

    /// Finishes the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::InvalidProbability`] if any row was never built
    /// (its sum would be zero).
    pub fn finish(self) -> Result<CsrMatrix> {
        assert!(self.current_row.is_none(), "row still open");
        if let Some(missing) = self.rows_done.iter().position(|&d| !d) {
            return Err(FsmError::InvalidProbability(format!(
                "row {missing} was never built"
            )));
        }
        let _span = obs::span("fsm.tpm_finish");
        let csr = self.coo.to_csr();
        obs::event(
            "fsm.tpm_assembled",
            &[("rows", csr.rows().into()), ("nnz", csr.nnz().into())],
        );
        Ok(csr)
    }
}

/// Per-row emission scratch handed to the closure of [`build_rows`].
///
/// Mirrors [`TpmBuilder::emit`]: duplicate successors are merged and
/// zero-probability emissions dropped when the row is finalized.
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
/// is byte-identical to a serial [`TpmBuilder`] pass for any thread count.
/// Duplicate successors are merged and row sums validated against `tol`,
/// exactly as [`TpmBuilder::end_row`] does.
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

    #[test]
    fn builds_and_merges() {
        let mut b = TpmBuilder::new(2);
        b.begin_row(0);
        b.emit(0, 0.1);
        b.emit(1, 0.4);
        b.emit(1, 0.5);
        b.end_row().unwrap();
        b.begin_row(1);
        b.emit(0, 1.0);
        b.end_row().unwrap();
        let m = b.finish().unwrap();
        assert_eq!(m.nnz(), 3);
        assert!((m.get(0, 1) - 0.9).abs() < 1e-15);
    }

    #[test]
    fn bad_row_sum_rejected() {
        let mut b = TpmBuilder::new(1);
        b.begin_row(0);
        b.emit(0, 0.5);
        assert!(matches!(b.end_row(), Err(FsmError::InvalidProbability(_))));
    }

    #[test]
    fn missing_row_rejected() {
        let mut b = TpmBuilder::new(2);
        b.begin_row(0);
        b.emit(0, 1.0);
        b.end_row().unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn zero_probability_ignored() {
        let mut b = TpmBuilder::new(1);
        b.begin_row(0);
        b.emit(0, 0.0);
        b.emit(0, 1.0);
        b.end_row().unwrap();
        let m = b.finish().unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "already built")]
    fn duplicate_row_panics() {
        let mut b = TpmBuilder::new(1);
        b.begin_row(0);
        b.emit(0, 1.0);
        b.end_row().unwrap();
        b.begin_row(0);
    }

    #[test]
    #[should_panic(expected = "not ended")]
    fn nested_rows_panic() {
        let mut b = TpmBuilder::new(2);
        b.begin_row(0);
        b.begin_row(1);
    }

    #[test]
    fn build_rows_matches_serial_builder() {
        // A ring chain with duplicate emissions, crossing the chunk size so
        // several parallel chunks participate.
        let n = 600;
        let row = |state: usize, em: &mut RowEmitter| {
            em.emit((state + 1) % n, 0.3);
            em.emit((state + 1) % n, 0.3); // merged
            em.emit(state, 0.15);
            em.emit((state + n - 1) % n, 0.25);
        };
        let par = build_rows(n, 1e-9, row).unwrap();
        let mut b = TpmBuilder::new(n);
        for s in 0..n {
            b.begin_row(s);
            let mut em = RowEmitter { n, row: Vec::new() };
            row(s, &mut em);
            for &(next, p) in &em.row {
                b.emit(next, p);
            }
            b.end_row().unwrap();
        }
        let serial = b.finish().unwrap();
        assert_eq!(par, serial);
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
        let m = build_rows(2, 1e-9, |s, em| {
            em.emit(1 - s, 0.25);
            em.emit(1 - s, 0.25);
            em.emit(s, 0.5);
        })
        .unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 0.5);
    }

    #[test]
    fn rows_in_any_order() {
        let mut b = TpmBuilder::new(2);
        b.begin_row(1);
        b.emit(0, 1.0);
        b.end_row().unwrap();
        b.begin_row(0);
        b.emit(1, 1.0);
        b.end_row().unwrap();
        let m = b.finish().unwrap();
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 1), 1.0);
    }
}
