//! Sweep acceptance tests: thread-count determinism, cache-invalidation
//! accounting (cross-checked against the obs counter stream), and the
//! warm-start policy.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use stochcdr::{CdrConfig, SolverChoice};
use stochcdr_linalg::par;
use stochcdr_obs as obs;
use stochcdr_obs::{Record, Sink};
use stochcdr_sweep::{render, run, run_with, FactorCache, SweepAxis, SweepSpec};

/// Serializes every test here: they touch the process-wide thread
/// override or the process-wide obs sink, and any sweep's cache hits land
/// in whatever counter sink is installed. A panicking test poisons the
/// lock; the next one recovers it, so one failure does not cascade.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn base() -> CdrConfig {
    CdrConfig::builder()
        .phases(4)
        .grid_refinement(2)
        .counter_len(4)
        .white_sigma_ui(0.08)
        .drift(2e-2, 8e-2)
        .build()
        .unwrap()
}

/// 12 points: crosses a WARM_CHUNK (8) boundary so both the warm-chain
/// and the chunk-parallel paths are exercised.
fn drift_spec() -> SweepSpec {
    let ppm: Vec<f64> = (0..12).map(|i| 2.0e4 + 250.0 * i as f64).collect();
    SweepSpec::new(base())
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-11)
}

#[test]
fn sweep_json_is_bitwise_identical_across_thread_counts() {
    let _g = global_lock();
    let spec = drift_spec();
    let render_at = |t: usize| {
        par::set_threads(Some(t));
        let out = run(&spec).map(|s| render(&spec, &s.points));
        par::set_threads(None);
        out.unwrap()
    };
    let one = render_at(1);
    let four = render_at(4);
    assert_eq!(one, four, "sweep JSON differs between 1 and 4 threads");
    // And the cache (shared, scheduling-dependent hit attribution) must
    // not leak into the deterministic output either.
    assert!(!one.contains("cache"), "cache telemetry leaked into JSON");
}

/// Aggregates obs counters by name.
#[derive(Default)]
struct CounterSink {
    totals: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl Sink for CounterSink {
    fn record(&mut self, _at_nanos: u64, record: &Record<'_>) {
        if let Record::Counter { name, delta } = record {
            *self
                .totals
                .lock()
                .unwrap()
                .entry((*name).to_string())
                .or_insert(0) += delta;
        }
    }
}

#[test]
fn cache_counters_cross_check_with_obs_stream() {
    let _g = global_lock();
    let totals = Arc::new(Mutex::new(BTreeMap::new()));
    obs::install(Box::new(CounterSink {
        totals: Arc::clone(&totals),
    }));

    let spec = drift_spec();
    let cache = FactorCache::new();
    let points = run_with(&spec, &cache).unwrap();
    let stats = cache.stats();
    obs::uninstall();

    let totals = totals.lock().unwrap();
    let get = |k: &str| totals.get(k).copied().unwrap_or(0);

    // The programmatic stats and the counter stream are two views of the
    // same accesses; they must agree exactly.
    assert_eq!(get("fsm.factor_cache.hit"), stats.hits);
    assert_eq!(get("fsm.factor_cache.miss"), stats.misses);
    assert_eq!(get("sweep.points"), points.len() as u64);
    assert_eq!(get("sweep.runs"), 1);

    // Per-kind counters decompose the totals.
    let hit_by_kind: u64 = stats.by_kind.values().map(|k| k.hits).sum();
    let miss_by_kind: u64 = stats.by_kind.values().map(|k| k.misses).sum();
    assert_eq!(hit_by_kind, stats.hits);
    assert_eq!(miss_by_kind, stats.misses);
    for (kind, ks) in &stats.by_kind {
        assert_eq!(
            get(&format!("fsm.factor_cache.hit.{kind}")),
            ks.hits,
            "kind {kind}"
        );
        assert_eq!(
            get(&format!("fsm.factor_cache.miss.{kind}")),
            ks.misses,
            "kind {kind}"
        );
    }

    // Invalidation: the drift axis must rebuild only the drift pmf.
    assert_eq!(stats.by_kind["acc.nr"].misses, spec.points() as u64);
    assert_eq!(stats.by_kind["row.skeleton"].misses, 1);
}

#[test]
fn drift_sweep_factor_hit_rate_exceeds_90_percent() {
    let _g = global_lock();
    // The PR's acceptance shape at test scale: a 64-point drift-ppm sweep
    // (refinement 8 instead of 32 to stay fast in debug builds) where the
    // drift axis invalidates only the n_r factor, so the factor cache—
    // including the per-level multigrid hierarchy—absorbs ≥ 90% of
    // accesses.
    let base = CdrConfig::builder()
        .phases(16)
        .grid_refinement(8)
        .counter_len(8)
        .white_sigma_ui(0.05)
        .drift(2e-3, 9e-3)
        .build()
        .unwrap();
    let ppm: Vec<f64> = (0..64).map(|i| 2000.0 + 10.0 * i as f64).collect();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::DriftPpm(ppm))
        .solver(SolverChoice::Multigrid)
        .tol(1e-10);
    let sweep = run(&spec).unwrap();
    let stats = &sweep.cache;
    assert_eq!(sweep.points.len(), 64);
    assert!(
        stats.hit_rate() >= 0.90,
        "hit rate {:.3} below 0.90 ({} hits / {} accesses)\nby kind: {:#?}",
        stats.hit_rate(),
        stats.hits,
        stats.accesses(),
        stats.by_kind
    );
    // The hierarchy is part of the cached state: only one cold build.
    let mg = &stats.by_kind["mg.level"];
    assert!(mg.hits > 0, "hierarchy never reused");
    assert!(mg.misses <= 16, "hierarchy rebuilt per point: {mg:?}");
}

#[test]
fn warm_start_matches_cold_results_within_tolerance() {
    let _g = global_lock();
    let tol = 1e-12;
    let mk = |warm: bool| {
        let spec = drift_spec().tol(tol).warm_start(warm);
        run(&spec).unwrap().points
    };
    let cold = mk(false);
    let warm = mk(true);
    assert_eq!(cold.len(), warm.len());
    let mut warm_used = 0;
    for (c, w) in cold.iter().zip(&warm) {
        assert!(c.residual <= tol && w.residual <= tol);
        let scale = c.ber.abs().max(w.ber.abs()).max(1e-300);
        assert!(
            (c.ber - w.ber).abs() / scale <= 1e-4 || (c.ber - w.ber).abs() <= 1e3 * tol,
            "point {}: cold BER {} vs warm {}",
            c.flat,
            c.ber,
            w.ber
        );
        warm_used += usize::from(w.warm_started);
    }
    // 12 points in chunks of 8: points 1..8 and 9..12 warm-start.
    assert_eq!(warm_used, 10);
    assert!(cold.iter().all(|p| !p.warm_started));
}
