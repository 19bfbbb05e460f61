//! Record consumers: the [`Sink`] trait and the built-ins —
//! [`NullSink`] (discard), [`SummarySink`] (aggregated human-readable
//! table), [`JsonLinesSink`] (one JSON object per record), and
//! [`MultiSink`] (fan-out to several sinks, e.g. metrics + trace).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::hist::LogHist;
use crate::json;
use crate::record::{Record, Value};

/// Version tag written to the first line of every JSONL stream and
/// recorded in docs; bump on breaking schema changes.
///
/// `/2` extends `/1` with span identity (`name`/`id`/`parent`/`tid` on
/// span lines) and aggregated `hist` lines flushed at finish. `/3`
/// extends `/2` with memory attribution on span lines (`alloc_bytes`,
/// `allocs` — zero without a [`crate::mem::TrackingAlloc`]) and the
/// `mem.*` gauges published by [`crate::mem::publish`]. `/4` extends
/// `/3` with `profile` lines (folded sampling-profiler stacks flushed
/// by [`crate::profile::Profile::publish`]) and the throttled
/// `solve.progress` heartbeat events from [`crate::heartbeat`]; both
/// are nondeterministic by nature, so the artifact diff treats them as
/// advisory.
pub const SCHEMA_VERSION: &str = "stochcdr-obs/4";

/// A consumer of instrumentation records.
///
/// Implementations receive every record emitted while they are
/// installed. `at_nanos` is the monotonic time since the sink was
/// installed.
pub trait Sink: Send {
    /// Consumes one record.
    fn record(&mut self, at_nanos: u64, record: &Record<'_>);

    /// Called once when the sink is uninstalled. Streaming sinks flush
    /// here; aggregating sinks may return a rendered report. Must be
    /// idempotent — the facade and callers may both invoke it.
    fn finish(&mut self) -> Option<String> {
        None
    }
}

/// Discards every record. Installing this is equivalent to leaving
/// instrumentation disabled, but exercises the full record path —
/// useful for overhead measurements.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _at_nanos: u64, _record: &Record<'_>) {}
}

/// Fans every record out to each inner sink in order. `finish` returns
/// the first rendered report any inner sink produces.
pub struct MultiSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl MultiSink {
    /// Wraps `sinks`; records are delivered in the given order.
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        for s in &mut self.sinks {
            s.record(at_nanos, record);
        }
    }

    fn finish(&mut self) -> Option<String> {
        let mut report = None;
        for s in &mut self.sinks {
            let r = s.finish();
            if report.is_none() {
                report = r;
            }
        }
        report
    }
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    alloc_bytes: u64,
    allocs: u64,
}

#[derive(Debug, Default, Clone)]
struct GaugeAgg {
    count: u64,
    last: f64,
    min: f64,
    max: f64,
}

/// Aggregates records in memory and renders a hierarchical summary
/// table from [`Sink::finish`].
#[derive(Debug, Default)]
pub struct SummarySink {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeAgg>,
    events: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHist>,
    profile: BTreeMap<String, u64>,
    last_event_fields: BTreeMap<String, String>,
    end_ns: u64,
}

impl SummarySink {
    /// Creates an empty summary sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the aggregated table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stochcdr-obs summary ({}; {:.3} s observed)",
            SCHEMA_VERSION,
            self.end_ns as f64 * 1e-9
        );
        if !self.spans.is_empty() {
            out.push_str("\nspans (path, count, total, mean, min..max):\n");
            for (path, agg) in &self.spans {
                // Indent by nesting depth so the hierarchy reads as a tree.
                let depth = path.matches('/').count();
                let leaf = path.rsplit('/').next().unwrap_or(path);
                let mean = agg.total_ns as f64 / agg.count.max(1) as f64;
                let _ = writeln!(
                    out,
                    "  {:indent$}{:<32} {:>8}  {:>10}  {:>10}  {}..{}",
                    "",
                    leaf,
                    agg.count,
                    fmt_ns(agg.total_ns as f64),
                    fmt_ns(mean),
                    fmt_ns(agg.min_ns as f64),
                    fmt_ns(agg.max_ns as f64),
                    indent = depth * 2,
                );
            }
        }
        // Memory attribution only renders when a tracking allocator
        // charged something — summaries from untracked processes (and
        // pre-/3 replays) keep their old shape.
        if self.spans.values().any(|a| a.allocs > 0) {
            out.push_str("\nspan memory (path, bytes, allocs):\n");
            for (path, agg) in &self.spans {
                if agg.allocs == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<48} {:>12}  {:>8}",
                    path,
                    fmt_bytes(agg.alloc_bytes),
                    agg.allocs,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {total}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges (last, min..max, n):\n");
            for (name, agg) in &self.gauges {
                let _ = writeln!(
                    out,
                    "  {:<40} {:.6e}  {:.3e}..{:.3e}  n={}",
                    name, agg.last, agg.min, agg.max, agg.count
                );
            }
        }
        if !self.hists.is_empty() {
            out.push_str("\nhistograms (name, count, p50, p95, max):\n");
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>8}  {:>10}  {:>10}  {}",
                    name,
                    h.count(),
                    fmt_hist_value(name, h.quantile(0.5)),
                    fmt_hist_value(name, h.quantile(0.95)),
                    fmt_hist_value(name, h.max()),
                );
            }
        }
        // Profile stacks only render when a sampler ran — summaries
        // from unprofiled runs keep their old shape.
        if !self.profile.is_empty() {
            out.push_str("\nprofile (folded stack, samples):\n");
            for (stack, count) in &self.profile {
                let _ = writeln!(out, "  {stack:<64} {count:>8}");
            }
        }
        if !self.events.is_empty() {
            out.push_str("\nevents (count, last fields):\n");
            for (name, count) in &self.events {
                let fields = self
                    .last_event_fields
                    .get(name)
                    .map(String::as_str)
                    .unwrap_or("");
                let _ = writeln!(out, "  {name:<40} {count:>6}  {fields}");
            }
        }
        out
    }
}

fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b < 1024.0 {
        format!("{b:.0}B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Histogram cells: names marked with a `_ns` / `.ns` component hold
/// nanoseconds (e.g. `multigrid.smooth.ns.level0`) and render with time
/// units; everything else renders in scientific form.
fn fmt_hist_value(name: &str, v: f64) -> String {
    if name.ends_with("_ns") || name.ends_with(".ns") || name.contains(".ns.") {
        fmt_ns(v)
    } else {
        format!("{v:.3e}")
    }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => format!("{x:.6e}"),
        Value::Bool(x) => x.to_string(),
        Value::Str(x) => x.clone(),
    }
}

impl Sink for SummarySink {
    fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        self.end_ns = self.end_ns.max(at_nanos);
        match record {
            // Aggregation keys on completed spans; the begin edge only
            // matters to streaming trace sinks.
            Record::SpanBegin { .. } => {}
            Record::Span {
                path,
                nanos,
                alloc_bytes,
                allocs,
                ..
            } => {
                let agg = self.spans.entry((*path).to_string()).or_default();
                if agg.count == 0 {
                    agg.min_ns = *nanos;
                    agg.max_ns = *nanos;
                } else {
                    agg.min_ns = agg.min_ns.min(*nanos);
                    agg.max_ns = agg.max_ns.max(*nanos);
                }
                agg.count += 1;
                agg.total_ns += nanos;
                agg.alloc_bytes += alloc_bytes;
                agg.allocs += allocs;
            }
            Record::Counter { name, delta } => {
                *self.counters.entry((*name).to_string()).or_default() += delta;
            }
            Record::Gauge { name, value } => {
                let agg = self.gauges.entry((*name).to_string()).or_default();
                if agg.count == 0 {
                    agg.min = *value;
                    agg.max = *value;
                } else {
                    agg.min = agg.min.min(*value);
                    agg.max = agg.max.max(*value);
                }
                agg.count += 1;
                agg.last = *value;
            }
            Record::Histogram { name, value } => {
                self.hists
                    .entry((*name).to_string())
                    .or_default()
                    .observe(*value);
            }
            Record::Event { name, fields } => {
                *self.events.entry((*name).to_string()).or_default() += 1;
                let mut rendered = String::new();
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        rendered.push(' ');
                    }
                    let _ = write!(rendered, "{k}={}", fmt_value(v));
                }
                self.last_event_fields.insert((*name).to_string(), rendered);
            }
            Record::ProfileSample { stack, count } => {
                *self.profile.entry((*stack).to_string()).or_default() += count;
            }
        }
    }

    fn finish(&mut self) -> Option<String> {
        Some(self.render())
    }
}

/// Streams each record as one JSON object per line.
///
/// The first line is a meta record carrying [`SCHEMA_VERSION`]:
/// `{"kind":"meta","schema":"stochcdr-obs/4"}`. Subsequent lines have
/// `kind` of `span`, `counter`, `gauge`, or `event`, a `t` field
/// (nanoseconds since install), and kind-specific fields. Histogram
/// observations are aggregated in memory and flushed as `hist` lines
/// (count/other/sum/min/max/p50/p95 plus sparse `bins`) when the sink
/// finishes. `SpanBegin` edges are not streamed — the completed `span`
/// line carries the full identity (`name`, `id`, `parent`, `tid`).
pub struct JsonLinesSink {
    w: Box<dyn Write + Send>,
    line: String,
    hists: BTreeMap<String, LogHist>,
    end_ns: u64,
    flushed: bool,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wraps an arbitrary writer.
    pub fn new(mut w: Box<dyn Write + Send>) -> Self {
        let _ = writeln!(w, "{{\"kind\":\"meta\",\"schema\":\"{SCHEMA_VERSION}\"}}");
        JsonLinesSink {
            w,
            line: String::with_capacity(256),
            hists: BTreeMap::new(),
            end_ns: 0,
            flushed: false,
        }
    }

    /// Opens `path` for writing (truncating) and streams records to it.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(BufWriter::new(file))))
    }

    /// Streams into a shared in-memory buffer; the returned handle can
    /// be read after the sink is uninstalled. Used by tests.
    pub fn to_shared_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = Self::new(Box::new(SharedBuffer(Arc::clone(&buf))));
        (sink, buf)
    }

    fn push_value(line: &mut String, v: &Value) {
        match v {
            Value::U64(x) => {
                let _ = write!(line, "{x}");
            }
            Value::I64(x) => {
                let _ = write!(line, "{x}");
            }
            Value::F64(x) => json::write_f64(line, *x),
            Value::Bool(x) => {
                let _ = write!(line, "{x}");
            }
            Value::Str(x) => json::escape_into(line, x),
        }
    }
}

struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Sink for JsonLinesSink {
    fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        self.end_ns = self.end_ns.max(at_nanos);
        let line = &mut self.line;
        line.clear();
        match record {
            Record::SpanBegin { .. } => return,
            Record::Histogram { name, value } => {
                self.hists
                    .entry((*name).to_string())
                    .or_default()
                    .observe(*value);
                return;
            }
            Record::Span {
                path,
                name,
                id,
                parent,
                tid,
                nanos,
                depth,
                alloc_bytes,
                allocs,
            } => {
                line.push_str("{\"kind\":\"span\",\"path\":");
                json::escape_into(line, path);
                line.push_str(",\"name\":");
                json::escape_into(line, name);
                let _ = write!(
                    line,
                    ",\"id\":{id},\"parent\":{parent},\"tid\":{tid},\
                     \"nanos\":{nanos},\"depth\":{depth},\
                     \"alloc_bytes\":{alloc_bytes},\"allocs\":{allocs}"
                );
            }
            Record::Counter { name, delta } => {
                line.push_str("{\"kind\":\"counter\",\"name\":");
                json::escape_into(line, name);
                let _ = write!(line, ",\"delta\":{delta}");
            }
            Record::Gauge { name, value } => {
                line.push_str("{\"kind\":\"gauge\",\"name\":");
                json::escape_into(line, name);
                line.push_str(",\"value\":");
                json::write_f64(line, *value);
            }
            Record::Event { name, fields } => {
                line.push_str("{\"kind\":\"event\",\"name\":");
                json::escape_into(line, name);
                line.push_str(",\"fields\":{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    json::escape_into(line, k);
                    line.push(':');
                    Self::push_value(line, v);
                }
                line.push('}');
            }
            Record::ProfileSample { stack, count } => {
                line.push_str("{\"kind\":\"profile\",\"stack\":");
                json::escape_into(line, stack);
                let _ = write!(line, ",\"count\":{count}");
            }
        }
        let _ = write!(line, ",\"t\":{at_nanos}}}");
        let _ = writeln!(self.w, "{}", line);
    }

    fn finish(&mut self) -> Option<String> {
        if !self.flushed {
            self.flushed = true;
            for (name, h) in &self.hists {
                let mut line = String::with_capacity(256);
                line.push_str("{\"kind\":\"hist\",\"name\":");
                json::escape_into(&mut line, name);
                let _ = write!(line, ",\"count\":{},\"other\":{}", h.count(), h.other());
                line.push_str(",\"sum\":");
                json::write_f64(&mut line, h.sum());
                line.push_str(",\"min\":");
                json::write_f64(&mut line, h.min());
                line.push_str(",\"max\":");
                json::write_f64(&mut line, h.max());
                line.push_str(",\"p50\":");
                json::write_f64(&mut line, h.quantile(0.5));
                line.push_str(",\"p95\":");
                json::write_f64(&mut line, h.quantile(0.95));
                line.push_str(",\"bins\":[");
                for (i, (k, c)) in h.bins().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "[{k},{c}]");
                }
                let _ = write!(line, "],\"t\":{}}}", self.end_ns);
                let _ = writeln!(self.w, "{}", line);
            }
        }
        let _ = self.w.flush();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span<'a>(path: &'a str, name: &'a str, nanos: u64, depth: usize) -> Record<'a> {
        Record::Span {
            path,
            name,
            id: depth as u64,
            parent: 0,
            tid: 0,
            nanos,
            depth,
            alloc_bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn summary_aggregates_and_renders() {
        let mut s = SummarySink::new();
        s.record(10, &span("solve", "solve", 100, 1));
        s.record(20, &span("solve/cycle", "cycle", 40, 2));
        s.record(30, &span("solve/cycle", "cycle", 60, 2));
        s.record(
            40,
            &Record::Counter {
                name: "sweeps",
                delta: 3,
            },
        );
        s.record(
            50,
            &Record::Counter {
                name: "sweeps",
                delta: 2,
            },
        );
        s.record(
            60,
            &Record::Gauge {
                name: "residual",
                value: 1e-9,
            },
        );
        for v in [100.0, 200.0, 400.0] {
            s.record(
                65,
                &Record::Histogram {
                    name: "smooth_ns",
                    value: v,
                },
            );
        }
        s.record(
            70,
            &Record::Event {
                name: "cycle.done",
                fields: &[("residual", Value::F64(1e-9))],
            },
        );
        let text = s.render();
        assert!(text.contains("cycle"), "{text}");
        assert!(text.contains("sweeps"), "{text}");
        assert!(text.contains('5'), "{text}");
        assert!(text.contains("cycle.done"), "{text}");
        assert!(text.contains("histograms"), "{text}");
        assert!(text.contains("smooth_ns"), "{text}");
        assert_eq!(s.spans["solve/cycle"].count, 2);
        assert_eq!(s.spans["solve/cycle"].total_ns, 100);
        assert_eq!(s.counters["sweeps"], 5);
        assert_eq!(s.hists["smooth_ns"].count(), 3);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let (mut sink, buf) = JsonLinesSink::to_shared_buffer();
        sink.record(5, &span("a/b", "b", 17, 2));
        sink.record(
            6,
            &Record::Gauge {
                name: "g",
                value: f64::NAN,
            },
        );
        sink.record(
            7,
            &Record::Event {
                name: "e\"scaped",
                fields: &[("k", Value::Str("v\n".into())), ("n", Value::I64(-3))],
            },
        );
        sink.record(
            8,
            &Record::Histogram {
                name: "h",
                value: 2.0,
            },
        );
        sink.record(
            9,
            &Record::ProfileSample {
                stack: "a;b",
                count: 12,
            },
        );
        sink.finish();
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(
            meta.get("schema").and_then(Json::as_str),
            Some(SCHEMA_VERSION)
        );
        let span = Json::parse(lines[1]).unwrap();
        assert_eq!(span.get("nanos").and_then(Json::as_f64), Some(17.0));
        assert_eq!(span.get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(span.get("tid").and_then(Json::as_f64), Some(0.0));
        let gauge = Json::parse(lines[2]).unwrap();
        assert_eq!(gauge.get("value"), Some(&Json::Null));
        let event = Json::parse(lines[3]).unwrap();
        assert_eq!(event.get("name").and_then(Json::as_str), Some("e\"scaped"));
        let fields = event.get("fields").unwrap();
        assert_eq!(fields.get("k").and_then(Json::as_str), Some("v\n"));
        assert_eq!(fields.get("n").and_then(Json::as_f64), Some(-3.0));
        let profile = Json::parse(lines[4]).unwrap();
        assert_eq!(profile.get("kind").and_then(Json::as_str), Some("profile"));
        assert_eq!(profile.get("stack").and_then(Json::as_str), Some("a;b"));
        assert_eq!(profile.get("count").and_then(Json::as_f64), Some(12.0));
        // Histograms flush at finish, after every streamed record.
        let hist = Json::parse(lines[5]).unwrap();
        assert_eq!(hist.get("kind").and_then(Json::as_str), Some("hist"));
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(hist.get("max").and_then(Json::as_f64), Some(2.0));
    }
}
