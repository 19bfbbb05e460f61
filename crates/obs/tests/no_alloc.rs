//! Proof of the zero-overhead claim: with no sink installed, the
//! instrumentation entry points perform **no heap allocation** — plus
//! integration coverage for the tracking allocator itself ([`obs::mem`]),
//! which this binary installs as its `#[global_allocator]`.
//!
//! The workspace-wide allocation-assertion mechanism is
//! [`obs::mem::TrackingAlloc`] + [`obs::mem::min_alloc_delta`]; the old
//! per-test counting allocators were folded into it.

use stochcdr_obs as obs;
use stochcdr_obs::mem;

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

/// Shared-mechanism shorthand; see [`mem::min_alloc_delta`].
fn min_delta<F: FnMut()>(f: F, attempts: usize) -> u64 {
    mem::min_alloc_delta(f, attempts)
}

/// The recorder is process-wide: tests that install or uninstall a sink
/// take this lock so one test's sink never sees another's spans.
fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_instrumentation_does_not_allocate() {
    let _recorder = recorder_lock();
    let _ = obs::uninstall();
    assert!(!obs::enabled());
    assert!(mem::tracking_active(), "tracking allocator not installed");

    // Warm up any lazily-initialized runtime state outside the window.
    let _g = obs::span("warmup");
    obs::counter("warmup", 1);
    obs::gauge("warmup", 0.0);
    obs::histogram("warmup", 1.0);
    obs::event("warmup", &[("k", 1u64.into())]);

    let residual = 3.5e-13_f64;
    let allocated = min_delta(
        || {
            for i in 0..10_000u64 {
                let _span = obs::span("multigrid.solve");
                let _inner = obs::span("cycle");
                obs::counter("multigrid.smooth_sweeps", 3);
                obs::gauge("residual", residual);
                obs::histogram("multigrid.residual_reduction", residual);
                obs::event(
                    "multigrid.cycle",
                    &[("cycle", i.into()), ("residual", residual.into())],
                );
            }
        },
        5,
    );
    assert_eq!(
        allocated, 0,
        "disabled obs calls allocated {allocated} times"
    );
}

/// The multigrid hot loop allocates exactly as much with disabled
/// instrumentation compiled in as the instrumentation-free arithmetic it
/// wraps: the obs calls add zero allocations per cycle.
#[test]
fn disabled_obs_adds_no_allocations_to_a_hot_loop() {
    let _recorder = recorder_lock();
    let _ = obs::uninstall();

    // A stand-in for the smoothing/residual kernel: pure arithmetic over
    // preallocated buffers, exactly like the solver's inner loop.
    fn sweep(x: &mut [f64], y: &mut [f64]) -> f64 {
        let n = x.len();
        for i in 0..n {
            y[i] = 0.5 * x[i] + 0.25 * x[(i + 1) % n] + 0.25 * x[(i + n - 1) % n];
        }
        let mut res = 0.0;
        for i in 0..n {
            res += (y[i] - x[i]).abs();
            x[i] = y[i];
        }
        res
    }

    let mut x = vec![1.0 / 64.0; 64];
    let mut y = vec![0.0; 64];

    let mut acc = 0.0;

    // Baseline: the bare kernel.
    let bare = min_delta(
        || {
            for _ in 0..1_000 {
                acc += sweep(&mut x, &mut y);
            }
        },
        5,
    );

    // Same kernel with the full instrumentation pattern around it.
    let instrumented = min_delta(
        || {
            for cycle in 0..1_000u64 {
                let _span = obs::span("cycle");
                let res = sweep(&mut x, &mut y);
                acc += res;
                obs::counter("sweeps", 1);
                obs::histogram("sweep.residual", res);
                obs::event(
                    "cycle",
                    &[("cycle", cycle.into()), ("residual", res.into())],
                );
            }
        },
        5,
    );

    assert!(acc.is_finite());
    assert_eq!(
        instrumented, bare,
        "instrumented loop allocated {instrumented} vs bare {bare}"
    );
}

/// With a sink installed, warm spans allocate nothing either: a span's
/// path is built once per (parent path, name) and later opens and closes
/// only look it up. The nesting includes a span attached to its parent
/// by id, as pool workers attach theirs. The JSONL sink, which reuses
/// its line buffer, adds no allocation of its own once every histogram
/// name has been seen.
#[test]
fn traced_spans_do_not_allocate_once_warm() {
    let _recorder = recorder_lock();
    let nest = || {
        let _solve = obs::span("multigrid.solve");
        for _ in 0..4 {
            let _cycle = obs::span("cycle");
            let _level = obs::span("mg.level0");
            let _worker = obs::span_child_of("par.worker", obs::current_span_id());
            obs::histogram("multigrid.smooth.ns.level0", 1.0e3);
        }
    };
    let sinks: [(&str, Box<dyn obs::Sink>); 2] = [
        ("NullSink", Box::new(obs::NullSink)),
        (
            "JsonLinesSink",
            Box::new(obs::JsonLinesSink::new(Box::new(std::io::sink()))),
        ),
    ];
    for (label, sink) in sinks {
        let _ = obs::uninstall();
        obs::install(sink);
        nest();
        let allocated = min_delta(
            || {
                for _ in 0..1_000 {
                    nest();
                }
            },
            5,
        );
        let _ = obs::uninstall();
        assert_eq!(
            allocated, 0,
            "warm traced spans allocated {allocated} times under {label}"
        );
    }
}

/// The tracking allocator's process totals move with real allocations,
/// and a span charged with a known allocation reports it in its record.
#[test]
fn tracking_allocator_attributes_bytes_to_spans() {
    use std::sync::{Arc, Mutex};
    use stochcdr_obs::{Record, Sink};

    let _recorder = recorder_lock();
    let _ = obs::uninstall();

    // Process totals move with a real allocation.
    let count0 = mem::alloc_count();
    let bytes0 = mem::total_bytes();
    let buf = vec![7u8; 1 << 16];
    assert!(mem::alloc_count() > count0, "alloc count did not move");
    assert!(
        mem::total_bytes() >= bytes0 + (1 << 16),
        "total bytes did not cover the allocation"
    );
    assert!(mem::live_bytes() > 0);
    assert!(mem::peak_bytes() >= mem::live_bytes());
    drop(buf);

    // Span attribution: a span that allocates 64 KiB on its own thread
    // reports at least that much in its completed record.
    #[derive(Default)]
    struct Captured {
        spans: Vec<(String, u64, u64)>,
    }
    struct CaptureSink(Arc<Mutex<Captured>>);
    impl Sink for CaptureSink {
        fn record(&mut self, _at: u64, record: &Record<'_>) {
            if let Record::Span {
                path,
                alloc_bytes,
                allocs,
                ..
            } = record
            {
                self.0
                    .lock()
                    .unwrap()
                    .spans
                    .push(((*path).to_string(), *alloc_bytes, *allocs));
            }
        }
    }

    let shared = Arc::new(Mutex::new(Captured::default()));
    obs::install(Box::new(CaptureSink(Arc::clone(&shared))));
    {
        let _span = obs::span("mem.victim");
        let big = vec![1u8; 1 << 16];
        std::hint::black_box(&big);
    }
    {
        let _span = obs::span("mem.idle");
    }
    obs::uninstall();

    let cap = shared.lock().unwrap();
    let victim = cap
        .spans
        .iter()
        .find(|(p, _, _)| p == "mem.victim")
        .expect("victim span recorded");
    assert!(
        victim.1 >= 1 << 16,
        "span charged {} bytes, expected >= 64 KiB",
        victim.1
    );
    assert!(victim.2 >= 1, "span charged no allocations");

    // The idle span may still be charged the sink's own bookkeeping,
    // but nothing near the victim's 64 KiB.
    let idle = cap
        .spans
        .iter()
        .find(|(p, _, _)| p == "mem.idle")
        .expect("idle span recorded");
    assert!(
        idle.1 < 1 << 14,
        "idle span charged {} bytes — attribution leaked across spans",
        idle.1
    );
}
