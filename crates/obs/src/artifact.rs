//! Loading, aggregating and rendering recorded observability artifacts.
//!
//! Two artifact shapes exist: the JSONL metrics stream written by
//! [`crate::JsonLinesSink`] ([`crate::SCHEMA_VERSION`]) and the
//! Chrome Trace Event array written by [`crate::ChromeTraceSink`]. This
//! module parses both — [`Artifact`] aggregates a metrics stream and
//! renders it as the run's one human-readable table
//! ([`Artifact::render`]), and [`check_trace`] validates a trace file's
//! structure (balanced begin/end edges per span name). [`diff`] compares
//! two aggregated artifacts into a regression report: deterministic
//! facts (counters, event counts, span counts, non-timing histogram
//! bins) are exact, while timings and memory sizes carry a relative
//! tolerance and only ever produce advisories.
//!
//! [`crate::SummarySink`] folds live records into an [`Artifact`] with
//! the same per-kind code the JSONL loader runs, so a run's summary and
//! `stochcdr report --in` on its JSONL stream print the same table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::LogHist;
use crate::json::Json;
use crate::record::Record;

/// Aggregated view of one run's records: loaded from a JSONL metrics
/// artifact, or folded live by [`crate::SummarySink`].
#[derive(Debug, Default, Clone)]
pub struct Artifact {
    /// Schema tag from the meta line ([`crate::SCHEMA_VERSION`]).
    pub schema: String,
    /// Latest record time seen, in nanoseconds since the sink was
    /// installed (the largest `t` of the stream).
    pub end_ns: u64,
    /// Counter name → summed deltas.
    pub counters: BTreeMap<String, u64>,
    /// Event name → occurrence count.
    pub events: BTreeMap<String, u64>,
    /// Gauge name → last recorded finite value.
    pub gauges: BTreeMap<String, f64>,
    /// Span path → aggregated stats.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histogram name → reconstructed histogram.
    pub hists: BTreeMap<String, LogHist>,
}

/// Aggregated timing stats for one span path.
#[derive(Debug, Default, Clone)]
pub struct SpanStat {
    /// Completed span count.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Fastest instance (ns).
    pub min_ns: u64,
    /// Slowest instance (ns).
    pub max_ns: u64,
    /// Summed heap bytes charged to the span on its own thread (0 for
    /// untracked processes).
    pub alloc_bytes: u64,
    /// Summed allocation count (0 for untracked processes).
    pub allocs: u64,
}

impl SpanStat {
    fn fold(&mut self, nanos: u64, alloc_bytes: u64, allocs: u64) {
        if self.count == 0 {
            self.min_ns = nanos;
            self.max_ns = nanos;
        } else {
            self.min_ns = self.min_ns.min(nanos);
            self.max_ns = self.max_ns.max(nanos);
        }
        self.count += 1;
        self.total_ns += nanos;
        self.alloc_bytes += alloc_bytes;
        self.allocs += allocs;
    }
}

/// The entry for `key`, created empty on first use. Only that first use
/// allocates, which keeps live folding cheap on repeated names.
pub(crate) fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

fn need_u64(v: &Json, key: &str, line_no: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("line {line_no}: missing numeric \"{key}\""))
}

fn need_str<'a>(v: &'a Json, key: &str, line_no: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line_no}: missing string \"{key}\""))
}

impl Artifact {
    /// Parses a JSONL metrics stream produced by [`crate::JsonLinesSink`].
    ///
    /// Accepts only [`crate::SCHEMA_VERSION`]. Span lines without the
    /// memory fields read them as zero. Other schemas and unknown record
    /// kinds are an error so schema drift is caught loudly.
    pub fn load_jsonl(text: &str) -> Result<Artifact, String> {
        let mut art = Artifact::default();
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, meta_line) = lines.next().ok_or("empty artifact")?;
        let meta = Json::parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
        if meta.get("kind").and_then(Json::as_str) != Some("meta") {
            return Err("first line is not a meta record".into());
        }
        let schema = need_str(&meta, "schema", 1)?;
        if schema != crate::SCHEMA_VERSION {
            return Err(format!("unsupported schema \"{schema}\""));
        }
        art.schema = schema.to_string();
        for (idx, line) in lines {
            let line_no = idx + 1;
            let v = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
            // Optional numeric fields read zero when absent: span memory
            // without a tracking allocator, or `t` on hand-written lines.
            let opt = |key: &str| v.get(key).and_then(Json::as_f64).map_or(0, |f| f as u64);
            match need_str(&v, "kind", line_no)? {
                "span" => art.fold_span(
                    need_str(&v, "path", line_no)?,
                    need_u64(&v, "nanos", line_no)?,
                    opt("alloc_bytes"),
                    opt("allocs"),
                ),
                "counter" => art.fold_counter(
                    need_str(&v, "name", line_no)?,
                    need_u64(&v, "delta", line_no)?,
                ),
                // Non-finite gauges serialize as null.
                "gauge" => art.fold_gauge(
                    need_str(&v, "name", line_no)?,
                    v.get("value").and_then(Json::as_f64),
                ),
                "event" => art.fold_event(need_str(&v, "name", line_no)?),
                "hist" => {
                    let name = need_str(&v, "name", line_no)?;
                    let count = need_u64(&v, "count", line_no)?;
                    let other = need_u64(&v, "other", line_no)?;
                    let sum = v.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                    let min = v.get("min").and_then(Json::as_f64).unwrap_or(0.0);
                    let max = v.get("max").and_then(Json::as_f64).unwrap_or(0.0);
                    let mut bins = BTreeMap::new();
                    if let Some(Json::Arr(pairs)) = v.get("bins") {
                        for pair in pairs {
                            let Json::Arr(kv) = pair else {
                                return Err(format!("line {line_no}: bad bins entry"));
                            };
                            let (Some(k), Some(c)) = (
                                kv.first().and_then(Json::as_f64),
                                kv.get(1).and_then(Json::as_f64),
                            ) else {
                                return Err(format!("line {line_no}: bad bins entry"));
                            };
                            bins.insert(k as i32, c as u64);
                        }
                    }
                    art.hists.insert(
                        name.to_string(),
                        LogHist::from_parts(count, other, sum, min, max, bins),
                    );
                }
                "meta" => return Err(format!("line {line_no}: duplicate meta record")),
                other => return Err(format!("line {line_no}: unknown kind \"{other}\"")),
            }
            art.end_ns = art.end_ns.max(opt("t"));
        }
        Ok(art)
    }

    /// Folds one live record exactly as its JSONL line would load.
    /// Histogram observations are binned here; the JSONL sink bins them
    /// the same way and streams the result as one `hist` line.
    pub(crate) fn record(&mut self, at_nanos: u64, record: &Record<'_>) {
        match *record {
            // Begin edges are not streamed either: the completed span
            // carries everything the table needs.
            Record::SpanBegin { .. } => return,
            Record::Span {
                path,
                nanos,
                alloc_bytes,
                allocs,
                ..
            } => self.fold_span(path, nanos, alloc_bytes, allocs),
            Record::Counter { name, delta } => self.fold_counter(name, delta),
            Record::Gauge { name, value } => {
                self.fold_gauge(name, Some(value).filter(|v| v.is_finite()));
            }
            Record::Event { name, .. } => self.fold_event(name),
            Record::Histogram { name, value } => slot(&mut self.hists, name).observe(value),
        }
        self.end_ns = self.end_ns.max(at_nanos);
    }

    fn fold_span(&mut self, path: &str, nanos: u64, alloc_bytes: u64, allocs: u64) {
        slot(&mut self.spans, path).fold(nanos, alloc_bytes, allocs);
    }

    fn fold_counter(&mut self, name: &str, delta: u64) {
        *slot(&mut self.counters, name) += delta;
    }

    /// `None` is a non-finite value, which the JSONL stream writes as
    /// null; it leaves the last finite value in place.
    fn fold_gauge(&mut self, name: &str, value: Option<f64>) {
        if let Some(value) = value {
            *slot(&mut self.gauges, name) = value;
        }
    }

    fn fold_event(&mut self, name: &str) {
        *slot(&mut self.events, name) += 1;
    }

    /// Renders the run's human-readable table: the span tree indented by
    /// nesting depth (count, total, mean, min..max), span memory when a
    /// tracking allocator charged any, counters, last gauge values,
    /// histograms (count, p50, p95, max) and event counts. The JSONL
    /// stream keeps every gauge and event record verbatim.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metrics artifact ({}; {:.3} s observed)",
            self.schema,
            self.end_ns as f64 * 1e-9
        );
        if !self.spans.is_empty() {
            out.push_str("\nspans (path, count, total, mean, min..max):\n");
            for (path, s) in &self.spans {
                let depth = path.matches('/').count();
                let leaf = path.rsplit('/').next().unwrap_or(path);
                let mean = s.total_ns as f64 / s.count.max(1) as f64;
                let _ = writeln!(
                    out,
                    "  {:indent$}{:<32} {:>8}  {:>10}  {:>10}  {}..{}",
                    "",
                    leaf,
                    s.count,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(mean),
                    fmt_ns(s.min_ns as f64),
                    fmt_ns(s.max_ns as f64),
                    indent = depth * 2,
                );
            }
        }
        if self.spans.values().any(|s| s.allocs > 0) {
            out.push_str("\nspan memory (path, bytes, allocs):\n");
            for (path, s) in self.spans.iter().filter(|(_, s)| s.allocs > 0) {
                let _ = writeln!(
                    out,
                    "  {:<48} {:>12}  {:>8}",
                    path,
                    fmt_bytes(s.alloc_bytes),
                    s.allocs,
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
            out.push_str("\ngauges (last):\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:.6e}");
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
        if !self.events.is_empty() {
            out.push_str("\nevents (count):\n");
            for (name, count) in &self.events {
                let _ = writeln!(out, "  {name:<40} {count:>6}");
            }
        }
        out
    }
}

/// Formats a byte count with binary units (`512B`, `64.0KiB`, `1.5MiB`,
/// `2.00GiB`).
pub fn fmt_bytes(b: u64) -> String {
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

/// Histogram cells: timing histograms render with time units,
/// everything else in scientific form.
fn fmt_hist_value(name: &str, v: f64) -> String {
    if timing_name(name) {
        fmt_ns(v)
    } else {
        format!("{v:.3e}")
    }
}

/// Options for [`diff`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance for advisory quantities (timings, byte
    /// sizes): a fresh/baseline ratio outside `[1/(1+tol), 1+tol]` is
    /// flagged. Advisories never make the diff fail.
    pub rel_tol: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        // Wall-clock noise on shared runners easily reaches tens of
        // percent; the default only flags drifts worth a second look.
        DiffOptions { rel_tol: 0.5 }
    }
}

/// Outcome of [`diff`]: deterministic mismatches (failures), tolerance
/// advisories, and the rendered regression report.
#[derive(Debug, Default, Clone)]
pub struct DiffReport {
    /// Deterministic mismatches — a gate should fail on any of these.
    pub failures: Vec<String>,
    /// Quantities outside the relative tolerance — informational only.
    pub advisories: Vec<String>,
    /// Human-readable regression report (always rendered).
    pub text: String,
}

impl DiffReport {
    /// True when no deterministic mismatch was found.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Histogram/span names holding nanosecond timings (`*.ns`, `*_ns`,
/// `*.ns.*`) — compared with tolerance instead of exactly.
fn timing_name(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with(".ns") || name.contains(".ns.")
}

fn ratio_line(what: &str, base: f64, fresh: f64) -> String {
    let ratio = if base > 0.0 { fresh / base } else { f64::NAN };
    format!("{what}: baseline {base:.4e} fresh {fresh:.4e} ratio {ratio:.3}")
}

fn check_ratio(report: &mut DiffReport, opts: &DiffOptions, what: &str, base: f64, fresh: f64) {
    let line = ratio_line(what, base, fresh);
    let within = if base == 0.0 && fresh == 0.0 {
        true
    } else if base <= 0.0 || fresh <= 0.0 {
        false
    } else {
        let ratio = fresh / base;
        ratio <= 1.0 + opts.rel_tol && ratio >= 1.0 / (1.0 + opts.rel_tol)
    };
    if within {
        let _ = writeln!(report.text, "    ok    {line}");
    } else {
        let _ = writeln!(report.text, "    WARN  {line}");
        report.advisories.push(line);
    }
}

fn diff_exact_u64<'a>(
    report: &mut DiffReport,
    section: &str,
    baseline: impl Iterator<Item = (&'a str, u64)>,
    fresh: impl Iterator<Item = (&'a str, u64)>,
) {
    let base: BTreeMap<&str, u64> = baseline.collect();
    let new: BTreeMap<&str, u64> = fresh.collect();
    let keys: std::collections::BTreeSet<&str> = base.keys().chain(new.keys()).copied().collect();
    for key in keys {
        match (base.get(key), new.get(key)) {
            (Some(b), Some(f)) if b == f => {}
            (b, f) => {
                let line = format!(
                    "{section}.{key}: baseline {} fresh {}",
                    b.map_or("<missing>".to_string(), u64::to_string),
                    f.map_or("<missing>".to_string(), u64::to_string),
                );
                let _ = writeln!(report.text, "    FAIL  {line}");
                report.failures.push(line);
            }
        }
    }
}

/// Compares two aggregated metrics artifacts and renders a regression
/// report.
///
/// Exact (any mismatch is a failure): counter totals, event counts,
/// span counts, and — for non-timing histograms, whose observed values
/// are deterministic model quantities — the full per-bin distribution
/// plus the overflow count. With tolerance (advisory only): span
/// timings, span memory attribution, timing-histogram medians, and
/// every gauge (gauges include wall-clock-derived rates).
pub fn diff(baseline: &Artifact, fresh: &Artifact, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    let _ = writeln!(
        report.text,
        "obs diff (baseline {}, fresh {}, rel_tol {})",
        baseline.schema, fresh.schema, opts.rel_tol
    );

    let _ = writeln!(report.text, "  counters (exact):");
    diff_exact_u64(
        &mut report,
        "counter",
        baseline.counters.iter().map(|(k, v)| (k.as_str(), *v)),
        fresh.counters.iter().map(|(k, v)| (k.as_str(), *v)),
    );
    // Heartbeat progress events are emitted on a wall-clock interval,
    // so their count depends on machine speed — excluded from the exact
    // section and compared with tolerance instead (advisory only).
    let heartbeat = |name: &str| name == "solve.progress";
    let _ = writeln!(report.text, "  events (exact):");
    diff_exact_u64(
        &mut report,
        "event",
        baseline
            .events
            .iter()
            .filter(|(k, _)| !heartbeat(k))
            .map(|(k, v)| (k.as_str(), *v)),
        fresh
            .events
            .iter()
            .filter(|(k, _)| !heartbeat(k))
            .map(|(k, v)| (k.as_str(), *v)),
    );
    let hb_base = baseline.events.get("solve.progress").copied().unwrap_or(0);
    let hb_fresh = fresh.events.get("solve.progress").copied().unwrap_or(0);
    if hb_base > 0 || hb_fresh > 0 {
        let _ = writeln!(report.text, "  heartbeat events (advisory):");
        check_ratio(
            &mut report,
            opts,
            "event.solve.progress",
            hb_base as f64,
            hb_fresh as f64,
        );
    }
    let _ = writeln!(report.text, "  span counts (exact):");
    diff_exact_u64(
        &mut report,
        "span",
        baseline.spans.iter().map(|(k, s)| (k.as_str(), s.count)),
        fresh.spans.iter().map(|(k, s)| (k.as_str(), s.count)),
    );

    let _ = writeln!(report.text, "  histograms:");
    let hist_keys: std::collections::BTreeSet<&str> = baseline
        .hists
        .keys()
        .chain(fresh.hists.keys())
        .map(String::as_str)
        .collect();
    for name in hist_keys {
        match (baseline.hists.get(name), fresh.hists.get(name)) {
            (Some(b), Some(f)) if timing_name(name) => {
                // Timing payloads drift with machine load; gate only the
                // observation count, report the median with tolerance.
                if b.count() != f.count() {
                    let line = format!(
                        "hist.{name}.count: baseline {} fresh {}",
                        b.count(),
                        f.count()
                    );
                    let _ = writeln!(report.text, "    FAIL  {line}");
                    report.failures.push(line);
                }
                check_ratio(
                    &mut report,
                    opts,
                    &format!("hist.{name}.p50"),
                    b.quantile(0.5),
                    f.quantile(0.5),
                );
            }
            (Some(b), Some(f)) => {
                // Deterministic values: the whole binned distribution
                // must match, bin by bin.
                let bins_equal =
                    b.count() == f.count() && b.other() == f.other() && b.bins().eq(f.bins());
                if bins_equal {
                    let _ = writeln!(
                        report.text,
                        "    ok    hist.{name}: {} obs, bins identical",
                        b.count()
                    );
                } else {
                    let line = format!(
                        "hist.{name}: bins differ (baseline {} obs/{} bins, \
                         fresh {} obs/{} bins)",
                        b.count(),
                        b.bins().count(),
                        f.count(),
                        f.bins().count(),
                    );
                    let _ = writeln!(report.text, "    FAIL  {line}");
                    report.failures.push(line);
                }
            }
            (b, _) => {
                let line = format!(
                    "hist.{name}: present only in {}",
                    if b.is_some() { "baseline" } else { "fresh" }
                );
                let _ = writeln!(report.text, "    FAIL  {line}");
                report.failures.push(line);
            }
        }
    }

    let _ = writeln!(report.text, "  span timings (advisory):");
    for (path, b) in &baseline.spans {
        if let Some(f) = fresh.spans.get(path) {
            check_ratio(
                &mut report,
                opts,
                &format!("span.{path}.total_ns"),
                b.total_ns as f64,
                f.total_ns as f64,
            );
        }
    }

    // Memory attribution only exists on artifacts from tracked
    // processes; the section is omitted rather than erroring on
    // untracked inputs.
    let mem_spans: Vec<&String> = baseline
        .spans
        .iter()
        .filter(|(path, b)| b.allocs > 0 || fresh.spans.get(*path).is_some_and(|f| f.allocs > 0))
        .map(|(path, _)| path)
        .collect();
    if !mem_spans.is_empty() {
        let _ = writeln!(report.text, "  span memory (advisory):");
        for path in mem_spans {
            let b = &baseline.spans[path];
            if let Some(f) = fresh.spans.get(path) {
                check_ratio(
                    &mut report,
                    opts,
                    &format!("span.{path}.alloc_bytes"),
                    b.alloc_bytes as f64,
                    f.alloc_bytes as f64,
                );
            }
        }
    }

    let gauge_keys: std::collections::BTreeSet<&str> = baseline
        .gauges
        .keys()
        .chain(fresh.gauges.keys())
        .map(String::as_str)
        .collect();
    if !gauge_keys.is_empty() {
        let _ = writeln!(report.text, "  gauges (advisory):");
        for name in gauge_keys {
            match (baseline.gauges.get(name), fresh.gauges.get(name)) {
                (Some(b), Some(f)) => {
                    check_ratio(&mut report, opts, &format!("gauge.{name}"), *b, *f);
                }
                (b, _) => {
                    let line = format!(
                        "gauge.{name}: present only in {}",
                        if b.is_some() { "baseline" } else { "fresh" }
                    );
                    let _ = writeln!(report.text, "    WARN  {line}");
                    report.advisories.push(line);
                }
            }
        }
    }

    let _ = writeln!(
        report.text,
        "result: {} failure(s), {} advisory(ies)",
        report.failures.len(),
        report.advisories.len()
    );
    report
}

/// Heuristic: Chrome trace artifacts are a JSON array, JSONL metrics
/// streams start with an object line.
pub fn looks_like_trace(text: &str) -> bool {
    text.trim_start().starts_with('[')
}

/// Structural summary of a Chrome trace file from [`check_trace`].
#[derive(Debug, Default, Clone)]
pub struct TraceCheck {
    /// Total trace events (all phases).
    pub events: usize,
    /// `ph:"B"` count.
    pub begins: usize,
    /// `ph:"E"` count.
    pub ends: usize,
    /// Distinct `tid` lanes seen.
    pub threads: usize,
    /// Span names whose begin/end counts differ (empty = balanced).
    pub unbalanced: Vec<String>,
    /// Per-span-name begin counts, for reporting.
    pub span_counts: BTreeMap<String, usize>,
}

/// Parses a Chrome Trace Event array and checks that every span name
/// has matching begin/end edge counts.
///
/// Per-*name* balance (rather than per-thread stack nesting) is the
/// right invariant here: a worker span can begin on one lane while an
/// overlapping same-name span runs on another, but a name with more
/// `B` than `E` edges means a guard never closed.
pub fn check_trace(text: &str) -> Result<TraceCheck, String> {
    let parsed = Json::parse(text)?;
    let Json::Arr(events) = parsed else {
        return Err("trace is not a JSON array".into());
    };
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut balance: BTreeMap<String, i64> = BTreeMap::new();
    let mut tids = std::collections::BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        if let Some(tid) = e.get("tid").and_then(Json::as_f64) {
            tids.insert(tid as u64);
        }
        match ph {
            "B" => {
                check.begins += 1;
                *balance.entry(name.to_string()).or_default() += 1;
                *check.span_counts.entry(name.to_string()).or_default() += 1;
            }
            "E" => {
                check.ends += 1;
                *balance.entry(name.to_string()).or_default() -= 1;
            }
            _ => {}
        }
    }
    check.threads = tids.len();
    check.unbalanced = balance
        .into_iter()
        .filter(|(_, bal)| *bal != 0)
        .map(|(name, _)| name)
        .collect();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(Artifact::load_jsonl("").is_err());
        assert!(Artifact::load_jsonl("{\"kind\":\"meta\",\"schema\":\"other/9\"}\n").is_err());
        // Earlier schemas are refused: a /4 stream may carry `profile`
        // lines this loader no longer reads.
        for old in ["stochcdr-obs/3", "stochcdr-obs/4"] {
            let meta = format!("{{\"kind\":\"meta\",\"schema\":\"{old}\"}}\n");
            assert!(Artifact::load_jsonl(&meta).is_err(), "{old}");
        }
        assert!(Artifact::load_jsonl("not json\n").is_err());
        for kind in ["mystery", "profile"] {
            let text = format!(
                "{{\"kind\":\"meta\",\"schema\":\"{}\"}}\n{{\"kind\":\"{kind}\"}}\n",
                crate::SCHEMA_VERSION
            );
            assert!(Artifact::load_jsonl(&text).is_err(), "{kind}");
        }
    }

    #[test]
    fn trace_check_flags_unbalanced_names() {
        let text = r#"[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":1},
            {"name":"a","ph":"E","pid":0,"tid":0,"ts":2},
            {"name":"b","ph":"B","pid":0,"tid":1,"ts":3}
        ]"#;
        let check = check_trace(text).unwrap();
        assert_eq!(check.events, 3);
        assert_eq!(check.begins, 2);
        assert_eq!(check.ends, 1);
        assert_eq!(check.threads, 2);
        assert_eq!(check.unbalanced, vec!["b".to_string()]);
    }

    #[test]
    fn diff_is_exact_on_facts_and_tolerant_on_timings() {
        let make = |count: u64, nanos: u64, reduction: f64| {
            let text = format!(
                concat!(
                    "{{\"kind\":\"meta\",\"schema\":\"stochcdr-obs/5\"}}\n",
                    "{{\"kind\":\"span\",\"path\":\"solve\",\"name\":\"solve\",",
                    "\"id\":1,\"parent\":0,\"tid\":0,\"nanos\":{nanos},\"depth\":1,",
                    "\"alloc_bytes\":1024,\"allocs\":4,\"t\":1}}\n",
                    "{{\"kind\":\"counter\",\"name\":\"sweeps\",\"delta\":{count},\"t\":2}}\n",
                    "{{\"kind\":\"hist\",\"name\":\"reduction\",\"count\":1,\"other\":0,",
                    "\"sum\":{red:e},\"min\":{red:e},\"max\":{red:e},\"p50\":{red:e},",
                    "\"p95\":{red:e},\"bins\":[[{bin},1]],\"t\":3}}\n",
                ),
                nanos = nanos,
                count = count,
                red = reduction,
                bin = (reduction.log2() * 4.0).floor() as i32,
            );
            Artifact::load_jsonl(&text).unwrap()
        };
        let base = make(5, 1000, 0.25);

        // Identical facts, 10% slower timing: green with default tol.
        let close = make(5, 1100, 0.25);
        let report = diff(&base, &close, &DiffOptions::default());
        assert!(report.ok(), "{}", report.text);
        assert!(report.advisories.is_empty(), "{}", report.text);

        // 10x slower timing: still green, but flagged.
        let slow = make(5, 10_000, 0.25);
        let report = diff(&base, &slow, &DiffOptions::default());
        assert!(report.ok(), "{}", report.text);
        assert!(!report.advisories.is_empty(), "{}", report.text);

        // Different counter total: deterministic failure.
        let drifted = make(6, 1000, 0.25);
        let report = diff(&base, &drifted, &DiffOptions::default());
        assert!(!report.ok());
        assert!(
            report.failures[0].contains("counter.sweeps"),
            "{:?}",
            report.failures
        );

        // Different deterministic histogram bin: failure.
        let moved = make(5, 1000, 0.5);
        let report = diff(&base, &moved, &DiffOptions::default());
        assert!(
            report.failures.iter().any(|f| f.contains("hist.reduction")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn diff_tolerates_pre_schema3_artifacts() {
        // Spans without memory fields (no tracking allocator) read zero
        // allocations, and the diff then omits its span-memory section.
        let old = Artifact::load_jsonl(concat!(
            "{\"kind\":\"meta\",\"schema\":\"stochcdr-obs/5\"}\n",
            "{\"kind\":\"span\",\"path\":\"solve\",\"name\":\"solve\",\"id\":1,",
            "\"parent\":0,\"tid\":0,\"nanos\":500,\"depth\":1,\"t\":1}\n",
        ))
        .unwrap();
        assert_eq!(old.spans["solve"].allocs, 0);
        let report = diff(&old, &old, &DiffOptions::default());
        assert!(report.ok(), "{}", report.text);
        assert!(!report.text.contains("span memory"), "{}", report.text);
    }

    #[test]
    fn diff_treats_heartbeat_events_as_advisory() {
        // Two runs of the same solve on differently loaded machines
        // emit different numbers of interval-throttled solve.progress
        // events; that must never be a deterministic failure, while a
        // drifted count of any *other* event still is.
        let make = |progress: u64, converged: u64| {
            let mut text = String::from("{\"kind\":\"meta\",\"schema\":\"stochcdr-obs/5\"}\n");
            for _ in 0..progress {
                text.push_str(
                    "{\"kind\":\"event\",\"name\":\"solve.progress\",\"fields\":{},\"t\":1}\n",
                );
            }
            for _ in 0..converged {
                text.push_str(
                    "{\"kind\":\"event\",\"name\":\"multigrid.converged\",\"fields\":{},\"t\":2}\n",
                );
            }
            Artifact::load_jsonl(&text).unwrap()
        };
        let base = make(12, 1);
        let fresh = make(3, 1);
        let report = diff(&base, &fresh, &DiffOptions::default());
        assert!(report.ok(), "{}", report.text);
        assert!(
            report
                .advisories
                .iter()
                .any(|a| a.contains("solve.progress")),
            "{:?}",
            report.advisories
        );

        // Same heartbeat drift plus a real event mismatch: still fails.
        let drifted = make(3, 2);
        let report = diff(&base, &drifted, &DiffOptions::default());
        assert!(!report.ok());
        assert!(
            report
                .failures
                .iter()
                .all(|f| !f.contains("solve.progress")),
            "heartbeat counts must never be failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn detects_artifact_shape() {
        assert!(looks_like_trace("  [\n{}\n]"));
        assert!(!looks_like_trace("{\"kind\":\"meta\"}"));
    }
}
