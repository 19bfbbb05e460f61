//! The traced pass's span bookkeeping: an `obs` sink that keeps exact
//! per-path totals the per-layer metrics are computed from, installed
//! beside the stock `SummarySink` whose table goes to stderr.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use stochcdr_obs::{self as obs, MultiSink, Record, Sink, SummarySink};

/// Exact totals of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSum {
    pub nanos: u64,
    pub alloc_bytes: u64,
}

/// Per-path span totals, shared with the installed sink so they can be
/// read after it is uninstalled.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals(Arc<Mutex<BTreeMap<String, SpanSum>>>);

impl SpanTotals {
    /// Sum over every path `keep` accepts.
    pub fn sum(&self, keep: impl Fn(&str) -> bool) -> SpanSum {
        let map = self.0.lock().expect("span totals lock");
        map.iter()
            .filter(|(path, _)| keep(path))
            .fold(SpanSum::default(), |acc, (_, s)| SpanSum {
                nanos: acc.nanos + s.nanos,
                alloc_bytes: acc.alloc_bytes + s.alloc_bytes,
            })
    }

    /// Sum over every path whose leaf span is `name`.
    pub fn leaf(&self, name: &str) -> SpanSum {
        self.sum(|path| path.rsplit('/').next() == Some(name))
    }
}

impl Sink for SpanTotals {
    fn record(&mut self, _at_nanos: u64, record: &Record<'_>) {
        if let Record::Span {
            path,
            nanos,
            alloc_bytes,
            ..
        } = record
        {
            let mut map = self.0.lock().expect("span totals lock");
            if !map.contains_key(*path) {
                map.insert((*path).to_string(), SpanSum::default());
            }
            let s = map.get_mut(*path).expect("inserted above");
            s.nanos += nanos;
            s.alloc_bytes += alloc_bytes;
        }
    }
}

/// A summary table plus exact span totals, switched on only around the
/// traced units so the untraced ones in between stay untraced.
pub struct Tracer {
    sink: Option<Box<dyn Sink>>,
    pub totals: SpanTotals,
}

impl Tracer {
    pub fn new() -> Tracer {
        let totals = SpanTotals::default();
        let sink = MultiSink::new(vec![Box::new(SummarySink::new()), Box::new(totals.clone())]);
        Tracer {
            sink: Some(Box::new(sink)),
            totals,
        }
    }

    /// Runs `f` with the sink installed.
    pub fn traced<T>(&mut self, f: impl FnOnce() -> T) -> T {
        obs::install(self.sink.take().expect("tracer sink present"));
        let out = f();
        self.sink = obs::uninstall();
        out
    }

    /// The rendered summary table.
    pub fn summary(mut self) -> String {
        self.sink
            .as_mut()
            .and_then(|s| s.finish())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_by_leaf_and_path() {
        let mut totals = SpanTotals::default();
        let span = |path: &'static str, nanos: u64| Record::Span {
            path,
            name: path.rsplit('/').next().unwrap(),
            id: 1,
            parent: 0,
            tid: 0,
            nanos,
            depth: 1,
            alloc_bytes: 10,
            allocs: 1,
        };
        totals.record(0, &span("a/mg.level0/aggregate/mg.refresh", 5));
        totals.record(0, &span("a/mg.level0/mg.level1/aggregate/mg.refresh", 7));
        totals.record(0, &span("a/mg.level0/aggregate/mg.refresh", 1));
        totals.record(0, &span("b/mg.setup", 3));
        assert_eq!(totals.leaf("mg.refresh").nanos, 13);
        let l0 = totals.sum(|p| p.ends_with("mg.level0/aggregate/mg.refresh"));
        assert_eq!((l0.nanos, l0.alloc_bytes), (6, 20));
        assert_eq!(totals.leaf("absent"), SpanSum::default());
    }
}
