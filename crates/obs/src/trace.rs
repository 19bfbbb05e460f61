//! Chrome Trace Event Format exporter.
//!
//! [`ChromeTraceSink`] streams span begin/end edges, counters, gauges,
//! and events as a JSON array of trace events that Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` open directly.
//! Spans become `B`/`E` duration events on per-thread lanes; counters
//! and gauges become `C` counter tracks; events become instants.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json;
use crate::record::{Record, Value};
use crate::sink::{FirstError, Sink};

/// Streams records as Chrome Trace Event Format JSON (an array of
/// event objects). The output is valid JSON once [`Sink::finish`] has
/// closed the array; finish is idempotent. The first write or flush
/// error is kept for [`Sink::take_error`].
pub struct ChromeTraceSink {
    w: Box<dyn Write + Send>,
    error: FirstError,
    line: String,
    wrote_any: bool,
    closed: bool,
    named_tids: BTreeSet<u64>,
    /// Cumulative counter values — Chrome counter tracks plot absolute
    /// values, while [`Record::Counter`] carries deltas.
    counters: BTreeMap<String, u64>,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink").finish_non_exhaustive()
    }
}

impl ChromeTraceSink {
    /// Wraps an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        Self::with_dest(w, "trace stream".to_string())
    }

    /// Opens `path` for writing (truncating) and streams the trace there.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let file = File::create(path)?;
        let dest = format!("trace file '{}'", path.display());
        Ok(Self::with_dest(Box::new(BufWriter::new(file)), dest))
    }

    fn with_dest(mut w: Box<dyn Write + Send>, dest: String) -> Self {
        let mut error = FirstError::new(dest);
        error.check(w.write_all(b"[\n"));
        ChromeTraceSink {
            w,
            error,
            line: String::with_capacity(256),
            wrote_any: false,
            closed: false,
            named_tids: BTreeSet::new(),
            counters: BTreeMap::new(),
        }
    }

    fn emit(&mut self) {
        if self.wrote_any {
            self.error.check(self.w.write_all(b",\n"));
        }
        self.wrote_any = true;
        self.error.check(self.w.write_all(self.line.as_bytes()));
    }

    /// Emits a one-time thread-name metadata event so trace viewers
    /// label the lane (lane 0 is the installing/main thread; workers
    /// get stable `worker-k` lanes from `linalg::par`).
    fn name_tid(&mut self, tid: u64) {
        if !self.named_tids.insert(tid) {
            return;
        }
        let label = if tid == 0 {
            "main".to_string()
        } else {
            format!("worker-{tid}")
        };
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        );
        self.emit();
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

/// Trace timestamps are microseconds; keep nanosecond precision as a
/// fraction.
fn push_ts(line: &mut String, at_nanos: u64) {
    let _ = write!(line, "{}.{:03}", at_nanos / 1_000, at_nanos % 1_000);
}

impl Sink for ChromeTraceSink {
    fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        if self.closed {
            return;
        }
        match record {
            Record::SpanBegin {
                name,
                id,
                parent,
                tid,
                ..
            } => {
                self.name_tid(*tid);
                let (id, parent, tid) = (*id, *parent, *tid);
                self.line.clear();
                self.line.push_str("{\"name\":");
                json::escape_into(&mut self.line, name);
                let _ = write!(
                    self.line,
                    ",\"cat\":\"span\",\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":"
                );
                push_ts(&mut self.line, at_nanos);
                let _ = write!(self.line, ",\"args\":{{\"id\":{id},\"parent\":{parent}}}}}");
                self.emit();
            }
            Record::Span { name, tid, .. } => {
                let tid = *tid;
                self.line.clear();
                self.line.push_str("{\"name\":");
                json::escape_into(&mut self.line, name);
                let _ = write!(
                    self.line,
                    ",\"cat\":\"span\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":"
                );
                push_ts(&mut self.line, at_nanos);
                self.line.push('}');
                self.emit();
            }
            Record::Counter { name, delta } => {
                let total = {
                    let slot = self.counters.entry((*name).to_string()).or_insert(0);
                    *slot += delta;
                    *slot
                };
                self.line.clear();
                self.line.push_str("{\"name\":");
                json::escape_into(&mut self.line, name);
                self.line
                    .push_str(",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":");
                push_ts(&mut self.line, at_nanos);
                let _ = write!(self.line, ",\"args\":{{\"value\":{total}}}}}");
                self.emit();
            }
            Record::Gauge { name, value } => {
                self.line.clear();
                self.line.push_str("{\"name\":");
                json::escape_into(&mut self.line, name);
                self.line
                    .push_str(",\"cat\":\"gauge\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":");
                push_ts(&mut self.line, at_nanos);
                self.line.push_str(",\"args\":{\"value\":");
                json::write_f64(&mut self.line, *value);
                self.line.push_str("}}");
                self.emit();
            }
            Record::Event { name, fields } => {
                self.line.clear();
                self.line.push_str("{\"name\":");
                json::escape_into(&mut self.line, name);
                self.line.push_str(
                    ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":",
                );
                push_ts(&mut self.line, at_nanos);
                self.line.push_str(",\"args\":{");
                let mut line = std::mem::take(&mut self.line);
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    json::escape_into(&mut line, k);
                    line.push(':');
                    Self::push_value(&mut line, v);
                }
                line.push_str("}}");
                self.line = line;
                self.emit();
            }
            // Histogram observations have no trace representation; the
            // metrics sinks handle them.
            Record::Histogram { .. } => {}
        }
    }

    fn finish(&mut self) -> Option<String> {
        if !self.closed {
            self.closed = true;
            self.error.check(self.w.write_all(b"\n]\n"));
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
    use std::sync::{Arc, Mutex};

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

    #[test]
    fn trace_is_valid_json_with_balanced_edges() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = ChromeTraceSink::new(Box::new(SharedBuffer(Arc::clone(&buf))));
        sink.record(
            1_500,
            &Record::SpanBegin {
                name: "solve",
                id: 1,
                parent: 0,
                tid: 0,
                depth: 1,
            },
        );
        sink.record(
            2_000,
            &Record::Counter {
                name: "sweeps",
                delta: 2,
            },
        );
        sink.record(
            2_500,
            &Record::Counter {
                name: "sweeps",
                delta: 3,
            },
        );
        sink.record(
            3_000,
            &Record::Span {
                path: "solve",
                name: "solve",
                id: 1,
                parent: 0,
                tid: 0,
                nanos: 1_500,
                depth: 1,
                alloc_bytes: 0,
                allocs: 0,
            },
        );
        sink.finish();
        sink.finish(); // idempotent
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let Json::Arr(events) = parsed else {
            panic!("trace must be a JSON array");
        };
        // thread_name metadata + B + 2×C + E
        assert_eq!(events.len(), 5);
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        // Counter track carries cumulative values.
        let last_counter = events
            .iter()
            .rev()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .unwrap();
        assert_eq!(
            last_counter
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        // Timestamps are microseconds with sub-µs precision.
        assert!(text.contains("\"ts\":1.500"), "{text}");
    }
}
