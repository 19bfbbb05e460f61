//! The record types flowing from instrumented code into sinks.

/// A single metric value.
///
/// Numeric variants are plain copies — building a `&[("k", v.into())]`
/// field slice on the stack performs no heap allocation, which is what
/// keeps disabled-path instrumentation allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (allocates; prefer numeric values on hot paths).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One instrumentation record, borrowed from the emitting site.
#[derive(Debug, Clone, PartialEq)]
pub enum Record<'a> {
    /// A span just opened. Streaming sinks that need both edges (the
    /// Chrome trace exporter) consume this; aggregating sinks ignore it
    /// and wait for the matching [`Record::Span`].
    SpanBegin {
        /// Span name (the leaf, not the full path).
        name: &'a str,
        /// Process-unique span id.
        id: u64,
        /// Id of the enclosing span (0 = root). May live on another
        /// thread when the span was opened with an explicit parent.
        parent: u64,
        /// Lane/thread id of the opening thread.
        tid: u64,
        /// Nesting depth on the opening thread (1 = top level).
        depth: usize,
    },
    /// A completed span: `path` is the `/`-joined name stack
    /// (e.g. `multigrid.solve/multigrid.cycle`).
    Span {
        /// Full span path on the owning thread, outermost first.
        path: &'a str,
        /// Span name (the leaf of `path`).
        name: &'a str,
        /// Process-unique span id (matches the [`Record::SpanBegin`]).
        id: u64,
        /// Id of the enclosing span (0 = root).
        parent: u64,
        /// Lane/thread id of the owning thread.
        tid: u64,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
        /// Nesting depth (1 = top level).
        depth: usize,
        /// Heap bytes allocated on the owning thread while the span was
        /// open (0 without a [`crate::mem::TrackingAlloc`]). New in
        /// schema `stochcdr-obs/3`.
        alloc_bytes: u64,
        /// Allocation count charged to the span on its own thread (0
        /// without a tracking allocator). New in `stochcdr-obs/3`.
        allocs: u64,
    },
    /// A monotone counter increment.
    Counter {
        /// Counter name.
        name: &'a str,
        /// Increment (counters only go up).
        delta: u64,
    },
    /// A point-in-time measurement.
    Gauge {
        /// Gauge name.
        name: &'a str,
        /// Measured value.
        value: f64,
    },
    /// A structured event with named fields.
    Event {
        /// Event name.
        name: &'a str,
        /// Field key/value pairs.
        fields: &'a [(&'a str, Value)],
    },
    /// One observation for a log-binned histogram (see
    /// [`crate::hist::LogHist`]). Sinks aggregate; the emitting site
    /// ships only the raw value, so hot loops stay allocation-free.
    Histogram {
        /// Histogram name.
        name: &'a str,
        /// Observed value.
        value: f64,
    },
}

impl Record<'_> {
    /// The record's name (span path, counter/gauge/event/histogram name).
    pub fn name(&self) -> &str {
        match self {
            Record::Span { path, .. } => path,
            Record::SpanBegin { name, .. }
            | Record::Counter { name, .. }
            | Record::Gauge { name, .. }
            | Record::Event { name, .. }
            | Record::Histogram { name, .. } => name,
        }
    }
}
