//! Record consumers: the [`Sink`] trait and the built-ins —
//! [`NullSink`] (discard), [`SummarySink`] (the [`Artifact`] table,
//! aggregated live), [`JsonLinesSink`] (one JSON object per record), and
//! [`MultiSink`] (fan-out to several sinks, e.g. metrics + trace).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::artifact::{slot, Artifact};
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
/// `mem.*` gauges published by [`crate::mem::publish`]. `/4` extended
/// `/3` with sampling-profiler `profile` lines and the throttled
/// `solve.progress` heartbeat events from [`crate::heartbeat`]
/// (wall-clock paced, so the artifact diff treats their count as
/// advisory). `/5` drops the `profile` lines again: the span lines
/// already carry each path's exact time, so the sampler was removed,
/// and the loader refuses `/4` streams rather than skip lines it no
/// longer reads.
pub const SCHEMA_VERSION: &str = "stochcdr-obs/5";

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

    /// Takes the first I/O error the sink met while writing or flushing.
    /// `None` when every write succeeded, or for sinks that write
    /// nothing. Check it after [`crate::uninstall`], which finishes —
    /// and so flushes — the sink.
    fn take_error(&mut self) -> Option<io::Error> {
        None
    }
}

/// The first write or flush error of a streaming sink, phrased with the
/// sink's destination so a caller can report it as is.
#[derive(Debug)]
pub(crate) struct FirstError {
    dest: String,
    error: Option<io::Error>,
}

impl FirstError {
    pub(crate) fn new(dest: String) -> Self {
        FirstError { dest, error: None }
    }

    /// Keeps `r`'s error unless an earlier one is already kept.
    pub(crate) fn check(&mut self, r: io::Result<()>) {
        if let (Err(e), None) = (r, &self.error) {
            let msg = format!("cannot write {}: {e}", self.dest);
            self.error = Some(io::Error::new(e.kind(), msg));
        }
    }

    pub(crate) fn take(&mut self) -> Option<io::Error> {
        self.error.take()
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

    /// The first inner sink's error, in delivery order.
    fn take_error(&mut self) -> Option<io::Error> {
        self.sinks.iter_mut().find_map(|s| s.take_error())
    }
}

/// Aggregates records in memory and renders the run's table from
/// [`Sink::finish`].
///
/// Records fold into an [`Artifact`] with the JSONL loader's per-kind
/// code, so the table is byte-for-byte what [`Artifact::render`] prints
/// for the same run's [`JsonLinesSink`] stream (and what
/// `stochcdr report --in` shows).
///
/// A sink reinstalled for several recorder sessions reports their summed
/// observed time: every install restarts the record clock, so each
/// session's stamps are shifted past the end of the sessions before it.
#[derive(Debug)]
pub struct SummarySink {
    artifact: Artifact,
    /// Observed time of the finished sessions, in nanoseconds.
    offset_ns: u64,
}

impl Default for SummarySink {
    fn default() -> Self {
        Self::new()
    }
}

impl SummarySink {
    /// Creates an empty summary sink.
    pub fn new() -> Self {
        SummarySink {
            artifact: Artifact {
                schema: SCHEMA_VERSION.to_string(),
                ..Artifact::default()
            },
            offset_ns: 0,
        }
    }

    /// Renders the aggregated table.
    pub fn render(&self) -> String {
        self.artifact.render()
    }
}

impl Sink for SummarySink {
    fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        self.artifact.record(self.offset_ns + at_nanos, record);
    }

    /// Ends the current session (uninstall calls this) and renders the
    /// table; a repeated call starts no new session time.
    fn finish(&mut self) -> Option<String> {
        self.offset_ns = self.artifact.end_ns;
        Some(self.render())
    }
}

/// Streams each record as one JSON object per line.
///
/// The first line is a meta record carrying [`SCHEMA_VERSION`]:
/// `{"kind":"meta","schema":"stochcdr-obs/5"}`. Subsequent lines have
/// `kind` of `span`, `counter`, `gauge`, or `event`, a `t` field
/// (nanoseconds since install), and kind-specific fields. Histogram
/// observations are aggregated in memory and flushed as `hist` lines
/// (count/other/sum/min/max/p50/p95 plus sparse `bins`) when the sink
/// finishes, stamped with the latest record time. `SpanBegin` edges are
/// not streamed (nor timed) — the completed `span` line carries the full
/// identity (`name`, `id`, `parent`, `tid`). The first write or flush
/// error is kept for [`Sink::take_error`].
pub struct JsonLinesSink {
    w: Box<dyn Write + Send>,
    line: String,
    hists: BTreeMap<String, LogHist>,
    end_ns: u64,
    flushed: bool,
    error: FirstError,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wraps an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        Self::with_dest(w, "metrics stream".to_string())
    }

    /// Opens `path` for writing (truncating) and streams records to it.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let file = File::create(path)?;
        let dest = format!("metrics file '{}'", path.display());
        Ok(Self::with_dest(Box::new(BufWriter::new(file)), dest))
    }

    fn with_dest(mut w: Box<dyn Write + Send>, dest: String) -> Self {
        let mut error = FirstError::new(dest);
        error.check(writeln!(
            w,
            "{{\"kind\":\"meta\",\"schema\":\"{SCHEMA_VERSION}\"}}"
        ));
        JsonLinesSink {
            w,
            line: String::with_capacity(256),
            hists: BTreeMap::new(),
            end_ns: 0,
            flushed: false,
            error,
        }
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
        let line = &mut self.line;
        line.clear();
        match record {
            Record::SpanBegin { .. } => return,
            Record::Histogram { name, value } => {
                self.end_ns = self.end_ns.max(at_nanos);
                slot(&mut self.hists, name).observe(*value);
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
        }
        self.end_ns = self.end_ns.max(at_nanos);
        let _ = write!(line, ",\"t\":{at_nanos}}}");
        self.error.check(writeln!(self.w, "{}", line));
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
                self.error.check(writeln!(self.w, "{}", line));
            }
        }
        self.error.check(self.w.flush());
        None
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
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
        let art = &s.artifact;
        assert_eq!(art.spans["solve/cycle"].count, 2);
        assert_eq!(art.spans["solve/cycle"].total_ns, 100);
        assert_eq!(art.counters["sweeps"], 5);
        assert_eq!(art.hists["smooth_ns"].count(), 3);
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
        sink.finish();
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
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
        // Histograms flush at finish, after every streamed record.
        let hist = Json::parse(lines[4]).unwrap();
        assert_eq!(hist.get("kind").and_then(Json::as_str), Some("hist"));
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(hist.get("max").and_then(Json::as_f64), Some(2.0));
    }

    /// A writer whose every write and flush fails.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("device full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("device full"))
        }
    }

    #[test]
    fn write_errors_are_kept_until_taken() {
        let counter = Record::Counter {
            name: "c",
            delta: 1,
        };
        let mut multi = MultiSink::new(vec![
            Box::new(SummarySink::new()),
            Box::new(crate::ChromeTraceSink::new(Box::new(FailingWriter))),
            Box::new(JsonLinesSink::new(Box::new(FailingWriter))),
        ]);
        multi.record(1, &counter);
        multi.finish();
        // The fan-out reports its first failing sink, then the next.
        let first = multi.take_error().expect("trace write error kept");
        assert_eq!(first.to_string(), "cannot write trace stream: device full");
        let second = multi.take_error().expect("metrics write error kept");
        assert_eq!(
            second.to_string(),
            "cannot write metrics stream: device full"
        );
        assert!(multi.take_error().is_none());

        let (mut ok, _buf) = JsonLinesSink::to_shared_buffer();
        ok.record(1, &counter);
        ok.finish();
        assert!(ok.take_error().is_none());
    }
}
