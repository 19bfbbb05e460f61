//! Live **solve progress** — interval-throttled `solve.progress`
//! heartbeats from long-running iteration loops.
//!
//! Multi-minute solves (million-state stationary distributions, wide
//! sweeps, long Monte-Carlo runs) are black boxes while they run: span
//! timers only report after the fact. A [`Heartbeat`] closes that gap.
//! Iteration loops call [`Heartbeat::tick_solve`] (iterative solvers:
//! residual + EWMA reduction factor) or [`Heartbeat::tick_unit`]
//! (work-unit loops: sweep points, MC shards) every iteration; the
//! heartbeat rate-limits emission to the configured interval and, when
//! due, publishes a `solve.progress` event into the installed sink and
//! an optional one-line status to stderr — current progress, projected
//! iterations-to-tolerance, ETA, and live heap bytes.
//!
//! **Default off.** [`configure`] (the CLI's `--progress` flag) arms it
//! process-wide; an unarmed heartbeat's tick is one atomic load and a
//! branch, performs no allocation, and emits nothing, so instrumented
//! loops stay bit-identical and allocation-free — the same contract as
//! the rest of the facade. Emission is cross-thread safe: all state is
//! atomic and a compare-exchange on the last-emit timestamp elects a
//! single emitting thread per interval, so parallel sweep workers share
//! one heartbeat without duplicate lines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::artifact::fmt_bytes;

/// Process-wide heartbeat interval in nanoseconds; 0 = disarmed.
static INTERVAL_NANOS: AtomicU64 = AtomicU64::new(0);
/// Whether due heartbeats also print a one-liner to stderr.
static STDERR: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms, with `None`) heartbeats process-wide. `stderr`
/// selects whether due heartbeats also print a status line; the
/// `solve.progress` event is always emitted into the installed sink
/// when one is active. Intervals are clamped to ≥1 ms when armed.
pub fn configure(interval: Option<Duration>, stderr: bool) {
    let nanos = interval.map_or(0, |d| d.max(Duration::from_millis(1)).as_nanos() as u64);
    INTERVAL_NANOS.store(nanos, Ordering::Relaxed);
    STDERR.store(stderr, Ordering::Relaxed);
}

/// The currently configured heartbeat interval, `None` when disarmed.
pub fn interval() -> Option<Duration> {
    match INTERVAL_NANOS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(Duration::from_nanos(n)),
    }
}

/// A per-phase progress emitter; see the [module docs](self).
///
/// Construct one per solve/sweep/run with [`Heartbeat::new`] and call a
/// `tick_*` method each iteration. All state is atomic, so parallel
/// workers can tick one shared heartbeat through `&self`.
#[derive(Debug)]
pub struct Heartbeat {
    /// Phase label carried in every emission (e.g. `"multigrid"`).
    phase: &'static str,
    /// Snapshot of [`INTERVAL_NANOS`] at construction; 0 = inert.
    interval_nanos: u64,
    stderr: bool,
    epoch: Instant,
    /// Nanos-since-epoch of the last emission (0 = none yet).
    last_emit: AtomicU64,
    /// Work units completed, maintained by [`Heartbeat::tick_unit`].
    units_done: AtomicU64,
    emitted: AtomicU64,
}

impl Heartbeat {
    /// Creates a heartbeat for `phase`, snapshotting the process-wide
    /// configuration. When heartbeats are disarmed (the default) the
    /// returned value is inert: ticks reduce to one branch.
    pub fn new(phase: &'static str) -> Heartbeat {
        Heartbeat {
            phase,
            interval_nanos: INTERVAL_NANOS.load(Ordering::Relaxed),
            stderr: STDERR.load(Ordering::Relaxed),
            epoch: Instant::now(),
            last_emit: AtomicU64::new(0),
            units_done: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
        }
    }

    /// Whether this heartbeat was armed at construction.
    #[inline]
    pub fn active(&self) -> bool {
        self.interval_nanos != 0
    }

    /// Emissions so far (for tests and callers that want a summary).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Elects this thread to emit iff the interval elapsed since the
    /// last emission. Returns the elapsed nanos on success.
    fn due(&self) -> Option<u64> {
        let elapsed = self.epoch.elapsed().as_nanos() as u64;
        let last = self.last_emit.load(Ordering::Relaxed);
        if elapsed.saturating_sub(last) < self.interval_nanos {
            return None;
        }
        // One winner per interval: losers see the freshly stored value.
        self.last_emit
            .compare_exchange(last, elapsed, Ordering::Relaxed, Ordering::Relaxed)
            .ok()
            .map(|_| elapsed)
    }

    /// Iterative-solver tick: call once per cycle/iteration with the
    /// current residual-style metric, the EWMA reduction factor from a
    /// `ConvergenceTrace` (when it has one yet), and the target
    /// tolerance. When due, emits a `solve.progress` event projecting
    /// iterations-to-tolerance and ETA from the EWMA factor.
    pub fn tick_solve(&self, iteration: u64, residual: f64, ewma: Option<f64>, tol: f64) {
        if !self.active() {
            return;
        }
        let Some(elapsed) = self.due() else { return };
        // Geometric projection: residual · ewma^k ≤ tol ⇒ k ≥
        // log(tol/residual)/log(ewma), valid only while converging.
        let remaining = match ewma {
            Some(r) if r > 0.0 && r < 1.0 && residual > tol && tol > 0.0 => {
                Some(((tol / residual).ln() / r.ln()).ceil().max(0.0))
            }
            _ => None,
        };
        let secs_per_iter = elapsed as f64 / 1e9 / iteration.max(1) as f64;
        let eta_secs = remaining.map(|r| r * secs_per_iter);
        let live = crate::mem::live_bytes();
        self.emitted.fetch_add(1, Ordering::Relaxed);
        crate::event(
            "solve.progress",
            &[
                ("phase", self.phase.into()),
                ("iteration", iteration.into()),
                ("residual", residual.into()),
                ("reduction_ewma", ewma.unwrap_or(f64::NAN).into()),
                ("remaining_iters", remaining.unwrap_or(f64::NAN).into()),
                ("eta_secs", eta_secs.unwrap_or(f64::NAN).into()),
                ("live_bytes", live.into()),
            ],
        );
        if self.stderr {
            let eta = eta_secs.map_or("?".to_string(), fmt_secs);
            eprintln!(
                "[stochcdr] {}: iter {iteration}  residual {residual:.3e}  \
                 ewma {}  eta {eta}  live {}",
                self.phase,
                ewma.map_or("?".to_string(), |r| format!("{r:.3}")),
                fmt_bytes(live),
            );
        }
    }

    /// Work-unit tick: call once per completed unit (sweep point, MC
    /// shard). The heartbeat counts units internally; when due, it
    /// emits a `solve.progress` event with done/total and a rate-based
    /// ETA. Safe to call from parallel workers through a shared `&self`.
    pub fn tick_unit(&self, total: u64) {
        if !self.active() {
            return;
        }
        let done = self.units_done.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(elapsed) = self.due() else { return };
        let secs = elapsed as f64 / 1e9;
        let rate = done as f64 / secs.max(1e-9);
        let eta_secs = (total.saturating_sub(done)) as f64 / rate.max(1e-9);
        let live = crate::mem::live_bytes();
        self.emitted.fetch_add(1, Ordering::Relaxed);
        crate::event(
            "solve.progress",
            &[
                ("phase", self.phase.into()),
                ("done", done.into()),
                ("total", total.into()),
                ("units_per_sec", rate.into()),
                ("eta_secs", eta_secs.into()),
                ("live_bytes", live.into()),
            ],
        );
        if self.stderr {
            eprintln!(
                "[stochcdr] {}: {done}/{total}  ({rate:.1}/s)  eta {}  live {}",
                self.phase,
                fmt_secs(eta_secs),
                fmt_bytes(live),
            );
        }
    }
}

fn fmt_secs(secs: f64) -> String {
    if secs >= 90.0 {
        format!("{:.1}m", secs / 60.0)
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_heartbeat_is_inert() {
        configure(None, false);
        let hb = Heartbeat::new("test");
        assert!(!hb.active());
        hb.tick_solve(1, 1.0, Some(0.5), 1e-10);
        hb.tick_unit(10);
        assert_eq!(hb.emitted(), 0);
    }

    #[test]
    fn armed_heartbeat_rate_limits() {
        configure(Some(Duration::from_millis(1)), false);
        let hb = Heartbeat::new("test");
        configure(None, false); // restore the global default immediately
        assert!(hb.active());
        // The first tick lands before the interval elapsed: no emission.
        hb.tick_solve(1, 1.0, Some(0.5), 1e-10);
        assert_eq!(hb.emitted(), 0);
        std::thread::sleep(Duration::from_millis(2));
        hb.tick_solve(2, 0.5, Some(0.5), 1e-10);
        assert_eq!(hb.emitted(), 1);
        // Immediately after emitting, the next tick is throttled.
        hb.tick_solve(3, 0.25, Some(0.5), 1e-10);
        assert_eq!(hb.emitted(), 1);
    }
}
