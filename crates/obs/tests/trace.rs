//! Integration tests for the hierarchical tracing layer: parent/child
//! id linkage, cross-thread attribution, Chrome trace structure, and
//! the JSONL round-trip through [`artifact`].
//!
//! The recorder is a process-wide singleton, so everything runs inside
//! one `#[test]` function, sequenced.

use std::sync::{Arc, Mutex};

use stochcdr_obs as obs;
use stochcdr_obs::artifact::{self, Artifact};
use stochcdr_obs::{Record, Sink};

#[derive(Debug, Default)]
struct Captured {
    /// (name, id, parent, tid) per opened span.
    begins: Vec<(String, u64, u64, u64)>,
    /// (path, id, parent, tid) per closed span.
    spans: Vec<(String, u64, u64, u64)>,
}

struct CaptureSink(Arc<Mutex<Captured>>);

impl CaptureSink {
    fn new() -> (Self, Arc<Mutex<Captured>>) {
        let shared = Arc::new(Mutex::new(Captured::default()));
        (CaptureSink(Arc::clone(&shared)), shared)
    }
}

impl Sink for CaptureSink {
    fn record(&mut self, _at_nanos: u64, record: &Record<'_>) {
        let mut cap = self.0.lock().unwrap();
        match record {
            Record::SpanBegin {
                name,
                id,
                parent,
                tid,
                ..
            } => cap.begins.push(((*name).to_string(), *id, *parent, *tid)),
            Record::Span {
                path,
                id,
                parent,
                tid,
                ..
            } => cap.spans.push(((*path).to_string(), *id, *parent, *tid)),
            _ => {}
        }
    }
}

#[test]
fn tracing_layer_end_to_end() {
    nested_spans_link_parent_ids();
    cross_thread_spans_attribute_to_caller();
    chrome_trace_is_balanced_and_multi_lane();
    schema_two_round_trips_through_artifact();
}

fn nested_spans_link_parent_ids() {
    let _ = obs::uninstall();
    let (sink, cap) = CaptureSink::new();
    obs::install(Box::new(sink));
    {
        let _a = obs::span("outer");
        let _b = obs::span("middle");
        let _c = obs::span("inner");
    }
    obs::uninstall();
    let cap = cap.lock().unwrap();

    assert_eq!(cap.begins.len(), 3);
    let (outer, middle, inner) = (&cap.begins[0], &cap.begins[1], &cap.begins[2]);
    assert_eq!(outer.0, "outer");
    assert_eq!(outer.2, 0, "outer span must be a root");
    assert_eq!(middle.2, outer.1, "middle's parent is outer's id");
    assert_eq!(inner.2, middle.1, "inner's parent is middle's id");
    // Ids are unique and all three spans share the opening thread's lane.
    assert_ne!(outer.1, middle.1);
    assert_ne!(middle.1, inner.1);
    assert_eq!(outer.3, middle.3);
    assert_eq!(middle.3, inner.3);
    // Close records carry the same identity as the begin edges.
    let closed_inner = cap.spans.iter().find(|s| s.0.ends_with("inner")).unwrap();
    assert_eq!(closed_inner.1, inner.1);
    assert_eq!(closed_inner.2, middle.1);
}

fn cross_thread_spans_attribute_to_caller() {
    let _ = obs::uninstall();
    let (sink, cap) = CaptureSink::new();
    obs::install(Box::new(sink));
    {
        let _scope = obs::span("scope");
        let parent = obs::current_span_id();
        assert_ne!(parent, 0);
        std::thread::scope(|s| {
            for lane in 1..=2u64 {
                s.spawn(move || {
                    let _lane = obs::lane(lane);
                    let _w = obs::span_child_of("worker", parent);
                });
            }
        });
    }
    obs::uninstall();
    let cap = cap.lock().unwrap();

    let scope = cap.begins.iter().find(|b| b.0 == "scope").unwrap().clone();
    let workers: Vec<_> = cap.begins.iter().filter(|b| b.0 == "worker").collect();
    assert_eq!(workers.len(), 2);
    for w in &workers {
        assert_eq!(w.2, scope.1, "worker parents onto the caller's span");
        assert_ne!(w.3, scope.3, "worker records on its own lane");
    }
    let lanes: std::collections::BTreeSet<u64> = workers.iter().map(|w| w.3).collect();
    assert_eq!(lanes, [1u64, 2].into_iter().collect());
    // Worker spans open on their own thread's stack, but the explicit
    // parent id threads the caller's path through, so the closed record
    // nests under the dispatching span instead of orphaning at the root.
    let closed: Vec<_> = cap.spans.iter().filter(|s| s.0 == "scope/worker").collect();
    assert_eq!(closed.len(), 2);
}

fn chrome_trace_is_balanced_and_multi_lane() {
    let _ = obs::uninstall();
    let buf = Arc::new(Mutex::new(Vec::new()));
    struct SharedBuffer(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuffer {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    obs::install(Box::new(obs::ChromeTraceSink::new(Box::new(SharedBuffer(
        Arc::clone(&buf),
    )))));
    {
        let _root = obs::span("solve");
        let parent = obs::current_span_id();
        obs::counter("cycles", 3);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _lane = obs::lane(1);
                let _w = obs::span_child_of("par.worker", parent);
            });
        });
        obs::gauge("residual", 1e-10);
        obs::event("done", &[("ok", true.into())]);
    }
    obs::uninstall();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let check = artifact::check_trace(&text).expect("trace parses");
    assert_eq!(check.begins, 2);
    assert_eq!(check.ends, 2);
    assert!(check.unbalanced.is_empty(), "{:?}", check.unbalanced);
    assert!(
        check.threads >= 2,
        "expected main + worker lanes, got {}",
        check.threads
    );
    assert_eq!(check.span_counts["par.worker"], 1);
}

fn schema_two_round_trips_through_artifact() {
    let _ = obs::uninstall();
    let (sink, buf) = obs::JsonLinesSink::to_shared_buffer();
    obs::install(Box::new(sink));
    {
        let _s = obs::span("solve");
        let _c = obs::span("cycle");
        obs::counter("iters", 7);
        obs::counter("iters", 3);
        obs::gauge("residual", 1.5e-11);
        obs::event("cycle.done", &[("cycle", 1u64.into())]);
        for v in [0.25, 0.24, 0.26, 0.0] {
            obs::histogram("reduction", v);
        }
    }
    obs::uninstall();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert!(!artifact::looks_like_trace(&text));
    let art = Artifact::load_jsonl(&text).expect("artifact loads");
    assert_eq!(art.schema, obs::SCHEMA_VERSION);
    assert_eq!(art.counters["iters"], 10);
    assert_eq!(art.events["cycle.done"], 1);
    assert_eq!(art.spans["solve/cycle"].count, 1);
    assert_eq!(art.spans["solve"].count, 1);
    assert!((art.gauges["residual"] - 1.5e-11).abs() < 1e-20);
    let h = &art.hists["reduction"];
    assert_eq!(h.count(), 4);
    assert_eq!(h.other(), 1);
    assert!((h.quantile(0.5) - 0.25).abs() < 0.05, "{}", h.quantile(0.5));
}
