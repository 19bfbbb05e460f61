//! `stochcdr-obs` — zero-dependency instrumentation facade for the
//! stochcdr workspace.
//!
//! Library crates call the free functions in this module — [`span`],
//! [`counter`], [`gauge`], [`event`], [`histogram`] — unconditionally.
//! When no sink is installed (the default) every call reduces to a
//! single relaxed atomic load and performs **no heap allocation**, so
//! instrumented hot loops pay effectively nothing. When a [`Sink`] is
//! installed via [`install`], records flow to it tagged with nanoseconds
//! since installation.
//!
//! ```
//! let _ = stochcdr_obs::uninstall();
//! stochcdr_obs::install(Box::new(stochcdr_obs::SummarySink::new()));
//! {
//!     let _outer = stochcdr_obs::span("solve");
//!     for i in 0..3u64 {
//!         let _inner = stochcdr_obs::span("cycle");
//!         stochcdr_obs::counter("sweeps", 2);
//!         stochcdr_obs::histogram("residual_reduction", 0.25);
//!         stochcdr_obs::event("cycle.done", &[("cycle", i.into())]);
//!     }
//! }
//! let report = stochcdr_obs::uninstall().unwrap().finish().unwrap();
//! assert!(report.contains("sweeps"));
//! assert!(report.contains("residual_reduction"));
//! ```
//!
//! Call sites that would need to build owned data (e.g. `format!`ed
//! names) must gate that work behind [`enabled`]. Numeric-field events
//! built with `&[("k", v.into())]` are allocation-free and need no
//! gate.
//!
//! # Hierarchical, thread-aware spans
//!
//! Every thread keeps its own span stack, so concurrent spans from
//! parallel workers never interleave their paths. Each span carries a
//! process-unique id, its parent's id, and the emitting thread's lane
//! id (a stable per-thread id, or the [`lane`] override); worker code
//! can attribute its spans to a span on *another* thread with
//! [`span_child_of`] + [`current_span_id`], which is how `linalg::par`
//! links pool-worker lanes to the caller's scope.
//! The [`ChromeTraceSink`] turns the begin/end stream into a Chrome
//! Trace Event file viewable in Perfetto or `chrome://tracing`.

#![warn(missing_docs)]

pub mod artifact;
pub mod heartbeat;
pub mod hist;
pub mod json;
pub mod mem;
mod record;
mod sink;
mod trace;

pub use heartbeat::Heartbeat;
pub use hist::LogHist;
pub use record::{Record, Value};
pub use sink::{JsonLinesSink, MultiSink, NullSink, Sink, SummarySink, SCHEMA_VERSION};
pub use trace::ChromeTraceSink;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fast-path flag: true iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<Option<Recorder>> = Mutex::new(None);

/// Monotone install counter; also readable without the state lock so
/// thread-local stacks can detect entries from torn-down sessions.
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(1);
static CURRENT_SESSION: AtomicU64 = AtomicU64::new(0);

/// Process-unique span ids (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Lane ids handed to threads on first use (0 is usually the main
/// thread — whichever thread touches the recorder first).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

struct Recorder {
    sink: Box<dyn Sink>,
    epoch: Instant,
    session: u64,
    /// Every currently *open* span's path, by span id, as an index into
    /// `paths`. Because a child's path is looked up through its parent
    /// **id** (not the opening thread's stack), a span opened on a pool
    /// worker with [`span_child_of`] inherits the dispatching span's path
    /// and lands under it in path-grouped reports, instead of orphaned at
    /// top level. Entries are removed when their span closes; the maps
    /// die with the recorder at session end.
    open: HashMap<u64, usize>,
    /// Every `/`-joined span path seen this session, built once.
    paths: Vec<SpanPath>,
    /// Index into `paths` by (parent path, name); a top-level span has
    /// no parent path. Opening a span whose path exists only looks it up,
    /// so warm spans allocate nothing.
    path_ids: HashMap<(Option<usize>, &'static str), usize>,
}

struct SpanPath {
    path: String,
    /// Number of `/`-separated names in `path`.
    depth: usize,
}

impl Recorder {
    /// The interned path of a span named `name` under the open span
    /// `parent` (top level when `parent` is not open).
    fn intern(&mut self, parent: u64, name: &'static str) -> usize {
        let up = self.open.get(&parent).copied();
        if let Some(&ix) = self.path_ids.get(&(up, name)) {
            return ix;
        }
        let path = match up {
            Some(p) => format!("{}/{name}", self.paths[p].path),
            None => name.to_string(),
        };
        let depth = path.split('/').count();
        self.paths.push(SpanPath { path, depth });
        self.path_ids.insert((up, name), self.paths.len() - 1);
        self.paths.len() - 1
    }
}

#[derive(Clone, Copy)]
struct StackEntry {
    name: &'static str,
    id: u64,
    session: u64,
}

#[derive(Default)]
struct ThreadState {
    /// Lane id assigned from [`NEXT_THREAD_ID`] on first use.
    tid: Option<u64>,
    /// Explicit lane override (worker pools pin stable lane numbers).
    lane: Option<u64>,
    /// Open spans on this thread, outermost first.
    stack: Vec<StackEntry>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Installs `sink` as the global record consumer, enabling
/// instrumentation. Replaces (and finishes) any previously installed
/// sink, returning it.
pub fn install(sink: Box<dyn Sink>) -> Option<Box<dyn Sink>> {
    let mut guard = STATE.lock().unwrap();
    let prev = guard.take().map(|mut r| {
        r.sink.finish();
        r.sink
    });
    let session = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
    CURRENT_SESSION.store(session, Ordering::Relaxed);
    *guard = Some(Recorder {
        sink,
        epoch: Instant::now(),
        session,
        open: HashMap::new(),
        paths: Vec::new(),
        path_ids: HashMap::new(),
    });
    ENABLED.store(true, Ordering::Release);
    prev
}

/// Uninstalls the current sink (calling its [`Sink::finish`]) and
/// disables instrumentation. Returns the sink for inspection.
pub fn uninstall() -> Option<Box<dyn Sink>> {
    let mut guard = STATE.lock().unwrap();
    ENABLED.store(false, Ordering::Release);
    CURRENT_SESSION.store(0, Ordering::Relaxed);
    guard.take().map(|mut r| {
        r.sink.finish();
        r.sink
    })
}

/// Whether a sink is currently installed. Call sites gate any
/// allocating record-preparation work behind this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Restores the previous lane override when dropped.
#[derive(Debug)]
pub struct LaneGuard {
    prev: Option<u64>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        THREAD.with(|t| t.borrow_mut().lane = self.prev);
    }
}

/// Pins this thread's lane id for the guard's lifetime.
///
/// Worker pools use this to give scoped threads *stable* trace lanes
/// (worker k → lane k+1) instead of a fresh id per spawn, which would
/// scatter a long run over thousands of one-shot lanes.
pub fn lane(lane: u64) -> LaneGuard {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let prev = t.lane.replace(lane);
        LaneGuard { prev }
    })
}

/// Whether an explicit lane override is active on this thread.
pub fn has_lane() -> bool {
    THREAD.with(|t| t.borrow().lane.is_some())
}

/// Id of this thread's innermost open span (0 when none). Capture this
/// before handing work to another thread, then open the worker's spans
/// with [`span_child_of`] to keep the cross-thread parent linkage.
pub fn current_span_id() -> u64 {
    let session = CURRENT_SESSION.load(Ordering::Relaxed);
    if session == 0 {
        return 0;
    }
    THREAD.with(|t| {
        t.borrow()
            .stack
            .last()
            .filter(|e| e.session == session)
            .map_or(0, |e| e.id)
    })
}

/// An open span; records its wall-clock duration when dropped.
///
/// Created by [`span`] / [`span_child_of`]. Inactive guards
/// (instrumentation disabled at entry) are inert.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    /// 0 marks an inactive guard.
    id: u64,
    parent: u64,
    tid: u64,
    session: u64,
    start: Instant,
    /// This thread's allocation counters at open; the drop delta is the
    /// span's charged memory (zero without a tracking allocator).
    mem: mem::ThreadAllocMark,
}

/// Opens a named span nested under this thread's innermost open span.
///
/// The returned guard records a [`Record::Span`] with the `/`-joined
/// path of this thread's open span names when it is dropped, plus the
/// span's id, parent id, and lane id for trace reconstruction.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    open_span(name, None)
}

/// Opens a named span whose parent is an explicit span id — usually one
/// captured on *another* thread with [`current_span_id`].
///
/// The span's recorded path extends the parent span's path (a
/// `par.worker` span opened on a pool thread lands under the kernel
/// scope that dispatched it, not at top level), while its lane still
/// reflects the opening thread.
#[inline]
pub fn span_child_of(name: &'static str, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    open_span(name, Some(parent))
}

fn open_span(name: &'static str, parent: Option<u64>) -> SpanGuard {
    let mut guard = STATE.lock().unwrap();
    let Some(rec) = guard.as_mut() else {
        return SpanGuard::inert();
    };
    let session = rec.session;
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, tid) = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        // Entries from torn-down sessions are dead weight: their guards
        // will unwind by id (or never), so drop them before nesting.
        t.stack.retain(|e| e.session == session);
        let parent = parent.or_else(|| t.stack.last().map(|e| e.id)).unwrap_or(0);
        t.stack.push(StackEntry { name, id, session });
        let tid = if let Some(lane) = t.lane {
            lane
        } else {
            *t.tid
                .get_or_insert_with(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
        };
        (parent, tid)
    });
    // Resolve the path through the parent *id*: for same-thread nesting
    // this reproduces the thread stack's joined names, and for an
    // explicit cross-thread parent it attributes the span to the scope
    // that dispatched the work.
    let ix = rec.intern(parent, name);
    let depth = rec.paths[ix].depth;
    let at = rec.epoch.elapsed().as_nanos() as u64;
    rec.sink.record(
        at,
        &Record::SpanBegin {
            name,
            id,
            parent,
            tid,
            depth,
        },
    );
    rec.open.insert(id, ix);
    SpanGuard {
        id,
        parent,
        tid,
        session,
        start: Instant::now(),
        mem: mem::thread_mark(),
    }
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        // The clock read is a cheap vDSO call and the guard performs no
        // work on drop. No allocation either way.
        SpanGuard {
            id: 0,
            parent: 0,
            tid: 0,
            session: 0,
            start: Instant::now(),
            mem: mem::thread_mark(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let nanos = self.start.elapsed().as_nanos() as u64;
        let (alloc_bytes, allocs) = self.mem.delta();
        // Unwind this thread's stack to (and including) our entry even if
        // the session already ended — a leaked entry would corrupt later
        // paths. Spans opened after us that leaked (mem::forget) unwind
        // with us, unrecorded.
        let popped = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let idx = t.stack.iter().rposition(|e| e.id == self.id)?;
            let name = t.stack[idx].name;
            t.stack.truncate(idx);
            Some(name)
        });
        let Some(name) = popped else { return };
        if !enabled() {
            return;
        }
        let mut guard = STATE.lock().unwrap();
        let Some(rec) = guard.as_mut() else { return };
        if rec.session != self.session {
            // The sink changed under us; nothing sensible to record.
            return;
        }
        // The path registered at open, which resolves cross-thread
        // parent linkage.
        let Some(ix) = rec.open.remove(&self.id) else {
            return;
        };
        let SpanPath { path, depth } = &rec.paths[ix];
        let at = rec.epoch.elapsed().as_nanos() as u64;
        rec.sink.record(
            at,
            &Record::Span {
                path,
                name,
                id: self.id,
                parent: self.parent,
                tid: self.tid,
                nanos,
                depth: *depth,
                alloc_bytes,
                allocs,
            },
        );
    }
}

/// Increments a named counter by `delta`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec, at| rec.sink.record(at, &Record::Counter { name, delta }));
}

/// Records a point-in-time gauge measurement.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec, at| rec.sink.record(at, &Record::Gauge { name, value }));
}

/// Records one observation into a log-binned histogram.
///
/// Use this instead of [`gauge`] for hot repeated measurements (per-cycle
/// residual-reduction factors, SpMV latency, shard throughput): sinks
/// aggregate the observations into a [`LogHist`] and report
/// count/p50/p95/max instead of a lossy last-write-wins value.
#[inline]
pub fn histogram(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|rec, at| rec.sink.record(at, &Record::Histogram { name, value }));
}

/// Records a structured event. Build numeric fields on the stack:
/// `obs::event("cycle.done", &[("residual", res.into())])` — this
/// allocates nothing when instrumentation is disabled.
#[inline]
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    with_recorder(|rec, at| rec.sink.record(at, &Record::Event { name, fields }));
}

fn with_recorder(f: impl FnOnce(&mut Recorder, u64)) {
    let mut guard = STATE.lock().unwrap();
    if let Some(rec) = guard.as_mut() {
        let at = rec.epoch.elapsed().as_nanos() as u64;
        f(rec, at);
    }
}
