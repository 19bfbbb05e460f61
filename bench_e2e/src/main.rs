//! **bench_e2e** — time to an answer on the paper's questions (BER, the
//! densities of `Φ` and `Φ + n_w`, mean time between cycle slips), per
//! workload, with a traced per-layer breakdown and kernel probes.
//!
//! ```text
//! bench_e2e [--seed N] [--seconds S] [--out RUN.json]
//!     full run: every workload untraced, then one traced pass each,
//!     then the kernel probes; prints every metric, writes RUN.json
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one workload: end-to-end metrics (--trace 0) or per-layer
//!     metrics (--trace 1); the last stdout line is the JSON result
//! bench_e2e --compare A.json B.json
//!     per workload and end-to-end metric: both medians, the delta and
//!     the bound from BENCHMARK.json
//! ```
//!
//! Everything runs in this one process at one worker thread; the
//! `linalg.par_speedup` probe alone switches to two. Any failed check
//! makes the exit code non-zero.

mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stochcdr_linalg::par;
use stochcdr_obs::{self as obs, json::Json};

use crate::report::{Definition, Metric};
use crate::trace::Tracer;
use crate::workload::{Inputs, Session, Unit, Workload};

/// Route allocations through the accounting wrapper: `peak_heap_bytes`
/// and the `mg.setup` span memory come from it.
#[global_allocator]
static GLOBAL: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc::new();

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out RUN.json] | --compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            "--compare" => {
                let a = value()?.clone();
                args.compare = Some((a, value()?.clone()));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One pass over one workload: its units (every one checked), failures
/// of checks outside them, and the metrics it yields.
struct Pass {
    units: Vec<Unit>,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Pass {
    fn tally(&self) -> (usize, usize) {
        let (attempted, failed) = report::tally(&self.units);
        (attempted, failed + self.failures.len())
    }

    fn report_failures(&self, name: &str) {
        for a in self.units.iter().flat_map(|u| &u.answers) {
            if let Some(e) = &a.error {
                eprintln!("{name}: FAILED answer: {e}");
            }
        }
        for e in &self.failures {
            eprintln!("{name}: FAILED check: {e}");
        }
    }
}

fn warm_up(session: &mut Session) -> Vec<String> {
    let warm = session.unit();
    let mut failures: Vec<String> = warm
        .answers
        .iter()
        .filter_map(|a| a.error.clone())
        .map(|e| format!("warm-up: {e}"))
        .collect();
    if session.workload == Workload::Sweep64 {
        failures.extend(session.cold_check(&warm));
    }
    failures
}

/// The end-to-end pass: one untimed warm-up unit, then timed units until
/// `seconds` have passed and the workload's minimum count is reached.
fn timed_pass(w: Workload, inputs: &Inputs, seconds: f64) -> Pass {
    let mut session = Session::new(w, inputs);
    let failures = warm_up(&mut session);
    let mut units = Vec::new();
    let t0 = Instant::now();
    while units.len() < w.min_units() || t0.elapsed() < Duration::from_secs_f64(seconds) {
        units.push(session.unit());
    }
    let metrics = report::end_to_end(&units);
    Pass {
        units,
        failures,
        metrics,
    }
}

/// A traced pass awaiting the probe results its per-layer metrics need.
struct Traced {
    traced: Vec<Unit>,
    untraced: Vec<Unit>,
    spans: trace::SpanTotals,
    failures: Vec<String>,
}

/// The traced pass: untraced and traced units alternate (so the overhead
/// ratio sees the same machine state on both sides) until `seconds` have
/// passed. The summary table goes to stderr.
fn traced_pass(w: Workload, inputs: &Inputs, seconds: f64) -> Traced {
    let mut session = Session::new(w, inputs);
    let failures = warm_up(&mut session);
    let mut tracer = Tracer::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed() < Duration::from_secs_f64(seconds) {
        untraced.push(session.unit());
        traced.push(tracer.traced(|| session.unit()));
    }
    let spans = tracer.totals.clone();
    eprintln!("--- {} traced summary ---\n{}", w.name(), tracer.summary());
    Traced {
        traced,
        untraced,
        spans,
        failures,
    }
}

impl Traced {
    fn into_pass(self, probes: &probes::Probes) -> Pass {
        let metrics = report::per_layer(&self.traced, &self.untraced, &self.spans, probes);
        let mut units = self.traced;
        units.extend(self.untraced);
        let mut failures = self.failures;
        failures.extend(probes.error.clone());
        Pass {
            units,
            failures,
            metrics,
        }
    }
}

/// `--workload`: one workload, end-to-end (`--trace 0`) or per-layer
/// (`--trace 1`) metrics, and the result line.
fn run_one(w: Workload, inputs: &Inputs, args: &Args, def: &Definition) -> bool {
    let (pass, names) = if args.trace {
        // The probes run once the workload's memory is freed.
        let traced = traced_pass(w, inputs, args.seconds);
        (
            traced.into_pass(&probes::run(inputs)),
            def.per_layer.clone(),
        )
    } else {
        let names = def.end_to_end.iter().map(|b| b.name.clone()).collect();
        (timed_pass(w, inputs, args.seconds), names)
    };
    report::print_metrics(&format!("{} ", w.name()), &pass.metrics);
    pass.report_failures(w.name());
    let (attempted, failed) = pass.tally();
    let metrics = report::select(&pass.metrics, &names);
    println!(
        "{}",
        report::result_line(attempted, failed, failed == 0, &metrics)
    );
    failed == 0
}

/// The code revision for the run fingerprint.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The full run: every benchmarked workload untraced, one traced pass
/// each, the kernel probes; prints every metric and writes `--out`.
fn run_all(inputs: &Inputs, args: &Args, def: &Definition) -> bool {
    let t0 = Instant::now();
    let mut timed = Vec::new();
    for w in Workload::BENCHMARKED {
        let t = Instant::now();
        let pass = timed_pass(w, inputs, args.seconds);
        eprintln!("{}: timed pass {:.1}s", w.name(), t.elapsed().as_secs_f64());
        timed.push(pass);
    }
    let mut traced = Vec::new();
    for w in Workload::BENCHMARKED {
        let t = Instant::now();
        traced.push(traced_pass(w, inputs, args.seconds));
        eprintln!(
            "{}: traced pass {:.1}s",
            w.name(),
            t.elapsed().as_secs_f64()
        );
    }
    let probes = probes::run(inputs);
    let layers: Vec<Pass> = traced.into_iter().map(|t| t.into_pass(&probes)).collect();

    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut line_metrics = Vec::new();
    let mut workloads = std::collections::BTreeMap::new();
    let mut fingerprints = std::collections::BTreeMap::new();
    let names: Vec<String> = def.end_to_end.iter().map(|b| b.name.clone()).collect();
    for ((w, e2e), layer) in Workload::BENCHMARKED.into_iter().zip(&timed).zip(&layers) {
        println!("== {} ==", w.name());
        report::print_metrics("  ", &e2e.metrics);
        report::print_metrics("  ", &report::select(&layer.metrics, &def.per_layer));
        e2e.report_failures(w.name());
        layer.report_failures(w.name());
        let (a, f) = e2e.tally();
        let (la, lf) = layer.tally();
        ok &= f == 0 && lf == 0;
        attempted += a + la;
        failed += f + lf;
        for m in report::select(&e2e.metrics, &names) {
            line_metrics.push(Metric {
                name: format!("{}.{}", w.name(), m.name),
                ..m
            });
        }
        workloads.insert(
            w.name().to_string(),
            report::workload_json(a + la, f + lf, &e2e.metrics, &layer.metrics),
        );
        fingerprints.insert(
            w.name().to_string(),
            report::workload_fingerprint(w, &e2e.units),
        );
    }
    println!(
        "probes: triad arrays {} MiB each (LLC {} MiB), spmv at {} threads",
        probes.triad_array_bytes >> 20,
        probes.llc_bytes >> 20,
        probes.spmv_threads
    );
    println!("total wall {:.1}s", t0.elapsed().as_secs_f64());

    if let Some(path) = &args.out {
        let doc = report::obj([
            ("schema", Json::Str("stochcdr-bench-e2e/1".into())),
            (
                "fingerprint",
                report::obj([
                    ("seed", Json::Num(inputs.seed as f64)),
                    ("threads", Json::Num(par::threads() as f64)),
                    ("hw_threads", Json::Num(par::available() as f64)),
                    ("cpu", Json::Str(probes::cpu_model())),
                    ("llc_bytes", Json::Num(probes.llc_bytes as f64)),
                    ("git_rev", Json::Str(git_rev())),
                    ("workloads", Json::Obj(fingerprints)),
                ]),
            ),
            ("seconds", Json::Num(args.seconds)),
            (
                "probes",
                report::obj([
                    (
                        "triad_array_bytes",
                        Json::Num(probes.triad_array_bytes as f64),
                    ),
                    ("spmv_threads", Json::Num(probes.spmv_threads as f64)),
                ]),
            ),
            ("workloads", Json::Obj(workloads)),
        ]);
        let text = report::render_pretty(&doc);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench_e2e: cannot write {path}: {e}");
            ok = false;
        } else {
            println!("wrote {path}");
        }
    }
    println!(
        "{}",
        report::result_line(attempted, failed, ok, &line_metrics)
    );
    ok
}

fn compare_files(a: &str, b: &str, def: &Definition) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let docs = load(a).and_then(|da| load(b).map(|db| (da, db)));
    match docs.and_then(|(da, db)| report::compare(&da, &db, def)) {
        Ok((text, regressed)) => {
            print!("{text}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let def = report::definition();
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b, &def);
    }
    par::set_threads(Some(1));
    let inputs = Inputs::from_seed(args.seed);
    let ok = match args.workload {
        Some(w) => run_one(w, &inputs, &args, &def),
        None => run_all(&inputs, &args, &def),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
