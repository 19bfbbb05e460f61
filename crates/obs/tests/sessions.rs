//! A summary sink reinstalled for several recorder sessions counts every
//! session's time in its `… s observed` header.
//!
//! The recorder is a process-wide singleton, so this binary holds a
//! single test.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use stochcdr_obs::{self as obs, MultiSink, Record, Sink, SummarySink};

/// Sums the durations of closed top-level spans.
struct TopLevelNanos(Arc<Mutex<u64>>);

impl Sink for TopLevelNanos {
    fn record(&mut self, _at_nanos: u64, record: &Record<'_>) {
        if let Record::Span {
            nanos, depth: 1, ..
        } = record
        {
            *self.0.lock().unwrap() += nanos;
        }
    }
}

#[test]
fn observed_time_counts_every_session() {
    let top = Arc::new(Mutex::new(0u64));
    let mut sink: Box<dyn Sink> = Box::new(MultiSink::new(vec![
        Box::new(SummarySink::new()),
        Box::new(TopLevelNanos(Arc::clone(&top))),
    ]));
    let _ = obs::uninstall();
    for _ in 0..2 {
        obs::install(sink);
        {
            let _span = obs::span("test.session");
            std::thread::sleep(Duration::from_millis(30));
        }
        sink = obs::uninstall().expect("the sink comes back");
    }
    let table = sink.finish().expect("the summary sink renders a table");

    let header = table.lines().next().unwrap();
    let observed_s: f64 = header
        .rsplit("; ")
        .next()
        .and_then(|tail| tail.strip_suffix(" s observed)"))
        .and_then(|secs| secs.parse().ok())
        .unwrap_or_else(|| panic!("no observed time in {header:?}"));
    let top_s = *top.lock().unwrap() as f64 * 1e-9;
    assert!(top_s >= 0.06, "two 30 ms sessions, spans total {top_s} s");
    // The header prints milliseconds, rounded to the nearest.
    assert!(
        observed_s + 5e-4 >= top_s,
        "observed {observed_s} s < top-level span total {top_s} s:\n{table}"
    );
}
