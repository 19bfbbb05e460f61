//! Metrics from the timed and traced passes, the run document, and the
//! `--compare` verdicts.

use std::fmt::Write as _;

use stochcdr_obs::json::{escape_into, write_f64, Json};

use crate::probes::Probes;
use crate::stats::{median, spread, tail_percentile};
use crate::trace::SpanTotals;
use crate::workload::{Answer, Unit, Workload};

/// The benchmark definition: workloads, metric names, units, directions
/// and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile range over median of the samples behind `value`.
    pub spread: Option<f64>,
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        spread: None,
        samples: 1,
    }
}

fn sampled(name: &str, unit: &'static str, xs: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        value: median(xs),
        unit,
        spread: Some(spread(xs)),
        samples: xs.len(),
    }
}

fn answers(units: &[Unit]) -> impl Iterator<Item = &Answer> {
    units.iter().flat_map(|u| u.answers.iter())
}

fn collect(units: &[Unit], f: impl Fn(&Answer) -> f64) -> Vec<f64> {
    answers(units).map(f).collect()
}

/// Attempted and failed answers of a pass.
pub fn tally(units: &[Unit]) -> (usize, usize) {
    let attempted = answers(units).count();
    let failed = answers(units).filter(|a| a.error.is_some()).count();
    (attempted, failed)
}

/// The end-to-end metrics of the timed (untraced) pass. The first four
/// are the bounded ones `BENCHMARK.json` lists; the tail percentile and
/// failure rate follow for the run document.
pub fn end_to_end(units: &[Unit]) -> Vec<Metric> {
    let walls = collect(units, |a| a.wall_s);
    let (attempted, failed) = tally(units);
    let timed_wall: f64 = units.iter().map(|u| u.wall_s).sum();
    let peaks: Vec<f64> = units.iter().map(|u| u.peak_heap_bytes as f64).collect();
    let mut out = vec![
        sampled("answer_s", "s", &walls),
        Metric {
            spread: Some(spread(&walls)),
            samples: attempted,
            ..metric(
                "answers_per_s",
                (attempted - failed) as f64 / timed_wall,
                "1/s",
            )
        },
        sampled("setup_s", "s", &collect(units, Answer::setup_s)),
        sampled("peak_heap_bytes", "B", &peaks),
    ];
    if let Some((p, v)) = tail_percentile(&walls) {
        out.push(Metric {
            samples: walls.len(),
            ..metric(&format!("answer_s.p{p}"), v, "s")
        });
    }
    out.push(Metric {
        samples: attempted,
        ..metric("fail_rate", failed as f64 / attempted as f64, "ratio")
    });
    out
}

/// The per-layer metrics of a traced pass: `traced` ran with the sink
/// installed, `untraced` alternated with them (for the tracing
/// overhead).
pub fn per_layer(
    traced: &[Unit],
    untraced: &[Unit],
    spans: &SpanTotals,
    probes: &Probes,
) -> Vec<Metric> {
    let n = answers(traced).count() as f64;
    let first = answers(traced).next().cloned().unwrap_or_default();
    let med = |f: &dyn Fn(&Answer) -> f64| median(&collect(traced, f));
    let total = |f: &dyn Fn(&Answer) -> f64| collect(traced, f).iter().sum::<f64>();

    let refresh_l0 = spans.sum(|p| p.ends_with("mg.level0/aggregate/mg.refresh"));
    let setup = spans.leaf("mg.setup");
    // The solve loop outside its cycles: Krylov extrapolation with its
    // safeguard residual, and convergence bookkeeping.
    let loop_ns = spans.leaf("multigrid.solve").nanos as f64
        - spans.sum(|p| p.ends_with("multigrid.solve/cycle")).nanos as f64;
    let loop_s = loop_ns * 1e-9 / n;
    let cycle_total = total(&|a| a.phases.cycle_total_secs());
    let equivalents = total(&|a| a.cycle_equivalents);
    let attributed =
        total(&|a| a.form_s + a.measures_s + a.phases.setup_secs) + cycle_total + loop_s * n;
    let wall = total(&|a| a.wall_s);
    let (hits, accesses) = traced
        .iter()
        .filter_map(|u| u.cache)
        .fold((0, 0), |(h, a), (uh, ua)| (h + uh, a + ua));

    vec![
        metric("core.form_s", med(&|a| a.form_s), "s"),
        metric("core.measures_s", med(&|a| a.measures_s), "s"),
        metric("core.states", first.states as f64, "count"),
        metric("core.nnz", first.nnz as f64, "count"),
        metric("mg.setup_s", med(&|a| a.phases.setup_secs), "s"),
        metric("mg.smooth_s", med(&|a| a.phases.smooth_secs), "s"),
        metric("mg.aggregate_s", med(&|a| a.phases.aggregate_secs), "s"),
        metric("mg.coarse_s", med(&|a| a.phases.coarse_solve_secs), "s"),
        metric(
            "mg.disaggregate_s",
            med(&|a| a.phases.disaggregate_secs),
            "s",
        ),
        metric("mg.residual_s", med(&|a| a.phases.residual_secs), "s"),
        metric("mg.loop_s", loop_s, "s"),
        metric("mg.cycles", total(&|a| a.cycles as f64) / n, "count"),
        metric("mg.cycle_equivalents", equivalents / n, "count"),
        metric("mg.s_per_cycle_equiv", cycle_total / equivalents, "s"),
        metric("mg.setup_alloc_bytes", setup.alloc_bytes as f64 / n, "B"),
        metric(
            "markov.refresh_l0_s",
            refresh_l0.nanos as f64 * 1e-9 / n,
            "s",
        ),
        metric("linalg.spmv_s", probes.spmv_s, "s"),
        metric("linalg.spmv_gbps", probes.spmv_gbps(), "GB/s"),
        metric(
            "linalg.spmv_bw_frac",
            probes.spmv_gbps() / probes.triad_gbps,
            "ratio",
        ),
        metric("linalg.par_speedup", probes.spmv_speedup, "ratio"),
        metric("fsm.kron_apply_s", probes.kron_apply_s, "s"),
        metric(
            "fsm.kron_apply_cost",
            probes.kron_apply_cost as f64,
            "count",
        ),
        metric("fsm.kron_gbps", probes.kron_gbps(), "GB/s"),
        metric(
            "fsm.kron_bw_frac",
            probes.kron_gbps() / probes.triad_gbps,
            "ratio",
        ),
        metric(
            "sweep.cache_hit_ratio",
            if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            },
            "ratio",
        ),
        metric(
            "sweep.warm_ratio",
            answers(traced).filter(|a| a.warm).count() as f64 / n,
            "ratio",
        ),
        metric("mem.triad_gbps", probes.triad_gbps, "GB/s"),
        metric(
            "obs.trace_overhead",
            median(&collect(traced, |a| a.wall_s)) / median(&collect(untraced, |a| a.wall_s)) - 1.0,
            "ratio",
        ),
        metric("trace.unattributed_frac", 1.0 - attributed / wall, "ratio"),
    ]
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn value_and_unit(m: &Metric) -> Json {
    obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ])
}

/// Metrics for the run document: value, unit, and the spread and sample
/// count where the value is a median.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = value_and_unit(m);
                if let (Json::Obj(f), Some(s)) = (&mut fields, m.spread) {
                    f.insert("spread".into(), Json::Num(s));
                    f.insert("samples".into(), Json::Num(m.samples as f64));
                }
                (m.name.clone(), fields)
            })
            .collect(),
    )
}

/// Renders a JSON value on one line (object keys sorted).
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(&mut out, v);
    out
}

/// Renders a run document: one line per metric, nested objects indented.
pub fn render_pretty(v: &Json) -> String {
    fn go(out: &mut String, v: &Json, depth: usize) {
        match v {
            Json::Obj(map) if map.values().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str("{\n");
                for (i, (k, item)) in map.iter().enumerate() {
                    out.push_str(&"  ".repeat(depth + 1));
                    escape_into(out, k);
                    out.push_str(": ");
                    go(out, item, depth + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            _ => render_into(out, v),
        }
    }
    let mut out = String::new();
    go(&mut out, v, 0);
    out.push('\n');
    out
}

fn render_into(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
            let _ = write!(out, "{}", *x as i64);
        }
        Json::Num(x) => write_f64(out, *x),
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_into(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                escape_into(out, k);
                out.push_str(": ");
                render_into(out, item);
            }
            out.push('}');
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
pub fn result_line(attempted: usize, failed: usize, correct: bool, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| (m.name.clone(), value_and_unit(m)))
        .collect();
    render(&obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Prints each metric as `name value unit`.
pub fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        let extra = match m.spread {
            Some(s) => format!("  (n={}, spread {:.1}%)", m.samples, 100.0 * s),
            None => String::new(),
        };
        println!(
            "{prefix}{:<26} {:>14.6e} {}{extra}",
            m.name, m.value, m.unit
        );
    }
}

/// One end-to-end metric's definition from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Names and bounds `BENCHMARK.json` declares.
pub struct Definition {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
    pub per_layer: Vec<String>,
}

pub fn definition() -> Definition {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("BENCHMARK.json lacks {key}"),
    };
    let name = |item: &Json| item.get("name").and_then(Json::as_str).unwrap().to_string();
    Definition {
        workloads: list("workloads").iter().map(name).collect(),
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| Bound {
                name: name(m),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).unwrap(),
            })
            .collect(),
        per_layer: list("per_layer").iter().map(name).collect(),
    }
}

/// Keeps the metrics whose names `names` lists, in that order.
pub fn select(metrics: &[Metric], names: &[String]) -> Vec<Metric> {
    names
        .iter()
        .filter_map(|n| metrics.iter().find(|m| &m.name == n).cloned())
        .collect()
}

/// The run fingerprint minus the code revision: two runs compare only
/// when these agree.
fn comparable(doc: &Json) -> Option<Json> {
    match doc.get("fingerprint")? {
        Json::Obj(f) => {
            let mut f = f.clone();
            f.remove("git_rev");
            Some(Json::Obj(f))
        }
        _ => None,
    }
}

/// Verdict of one metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs' own spread exceeds the bound: no conclusion.
    Unresolved,
}

pub fn verdict(bound: &Bound, a: f64, b: f64, spread: f64) -> Verdict {
    let delta = (b - a) / a;
    let worse = if bound.lower_is_better { delta } else { -delta };
    if spread > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `--compare`: the report text and whether it found a regression.
/// Refuses (`Err`) runs whose fingerprints differ.
pub fn compare(a: &Json, b: &Json, def: &Definition) -> Result<(String, bool), String> {
    let (fa, fb) = (comparable(a), comparable(b));
    if fa.is_none() || fa != fb {
        return Err(format!(
            "fingerprints differ; refusing to compare\n  A: {}\n  B: {}",
            fa.as_ref().map_or("(none)".into(), render),
            fb.as_ref().map_or("(none)".into(), render)
        ));
    }
    let rev = |d: &Json| {
        d.get("fingerprint")
            .and_then(|f| f.get("git_rev"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(out, "A: rev {}  B: rev {}", rev(a), rev(b));
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta", "bound", "spread"
    );
    for w in &def.workloads {
        let (wa, wb) = match (
            a.get("workloads").and_then(|x| x.get(w)),
            b.get("workloads").and_then(|x| x.get(w)),
        ) {
            (Some(wa), Some(wb)) => (wa, wb),
            _ => return Err(format!("workload {w} missing from a run")),
        };
        for bound in &def.end_to_end {
            let field = |doc: &Json, key: &str| {
                doc.get("end_to_end")
                    .and_then(|m| m.get(&bound.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (field(wa, "value"), field(wb, "value")) else {
                return Err(format!("{w}/{} missing from a run", bound.name));
            };
            let spread = field(wa, "spread")
                .unwrap_or(0.0)
                .max(field(wb, "spread").unwrap_or(0.0));
            let v = verdict(bound, va, vb, spread);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{w:<12} {:<16} {va:>12.4e} {vb:>12.4e} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                bound.name,
                100.0 * (vb - va) / va,
                100.0 * bound.bound,
                100.0 * spread,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |doc: &Json| doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wa) > 0.0 || failed(wb) > 0.0 {
            regressed = true;
            let _ = writeln!(
                out,
                "{w:<12} {:<16} {:>12} {:>12}  FAILED (must stay 0)",
                "failed",
                failed(wa),
                failed(wb)
            );
        }
    }
    Ok((out, regressed))
}

/// Everything a full run records about one workload.
pub fn workload_json(attempted: usize, failed: usize, e2e: &[Metric], layers: &[Metric]) -> Json {
    obj([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("end_to_end", metrics_json(e2e)),
        ("per_layer", metrics_json(layers)),
    ])
}

/// The fingerprint entry of one workload.
pub fn workload_fingerprint(w: Workload, units: &[Unit]) -> Json {
    let first = answers(units).next().cloned().unwrap_or_default();
    let (solver, path) = w.path();
    obj([
        ("states", Json::Num(first.states as f64)),
        ("nnz", Json::Num(first.nnz as f64)),
        ("tol", Json::Num(w.tol())),
        ("solver", Json::Str(solver.into())),
        ("path", Json::Str(path.into())),
    ])
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "answer_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let b = lower(0.10);
        assert_eq!(verdict(&b, 1.0, 1.05, 0.02), Verdict::Ok);
        assert_eq!(verdict(&b, 1.0, 1.20, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&b, 1.0, 0.50, 0.02), Verdict::Ok);
        assert_eq!(verdict(&b, 1.0, 1.20, 0.30), Verdict::Unresolved);
        let higher = Bound {
            lower_is_better: false,
            ..b
        };
        assert_eq!(verdict(&higher, 100.0, 80.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&higher, 100.0, 120.0, 0.0), Verdict::Ok);
    }

    fn run_doc(seed: f64, answer_s: f64, spread: f64, failed: f64) -> Json {
        let mut e2e = BTreeMap::new();
        for m in definition().end_to_end {
            let v = if m.name == "answer_s" { answer_s } else { 1.0 };
            e2e.insert(
                m.name,
                obj([("value", Json::Num(v)), ("spread", Json::Num(spread))]),
            );
        }
        let workloads = definition()
            .workloads
            .into_iter()
            .map(|w| {
                let entry = obj([
                    ("end_to_end", Json::Obj(e2e.clone())),
                    ("failed", Json::Num(failed)),
                ]);
                (w, entry)
            })
            .collect();
        obj([
            (
                "fingerprint",
                obj([
                    ("seed", Json::Num(seed)),
                    ("git_rev", Json::Str(format!("rev{answer_s}"))),
                ]),
            ),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    #[test]
    fn compare_verdicts_including_unresolved_and_refusal() {
        let def = definition();
        let base = run_doc(1.0, 1.0, 0.01, 0.0);
        let (report, regressed) = compare(&base, &run_doc(1.0, 1.02, 0.01, 0.0), &def).unwrap();
        assert!(!regressed, "{report}");
        assert!(!report.contains("REGRESSED"));
        let (report, regressed) = compare(&base, &run_doc(1.0, 1.5, 0.01, 0.0), &def).unwrap();
        assert!(regressed);
        assert!(report.contains("REGRESSED"));
        // Too noisy to tell: unresolved, not a regression.
        let noisy = run_doc(1.0, 1.5, 0.9, 0.0);
        let (report, regressed) = compare(&base, &noisy, &def).unwrap();
        assert!(!regressed);
        assert!(report.contains("unresolved"));
        // A failed answer is a regression whatever the timings say.
        let (_, regressed) = compare(&base, &run_doc(1.0, 1.0, 0.01, 1.0), &def).unwrap();
        assert!(regressed);
        // Different seeds are different workloads: refused. Different
        // revisions are what comparing is for.
        assert!(compare(&base, &run_doc(2.0, 1.0, 0.01, 0.0), &def).is_err());
    }

    #[test]
    fn benchmark_json_matches_what_the_program_reports() {
        let def = definition();
        let names: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
        assert_eq!(def.workloads, names);
        let unit = Unit {
            answers: vec![Answer {
                wall_s: 1.0,
                ..Answer::default()
            }],
            wall_s: 1.0,
            ..Unit::default()
        };
        let e2e = end_to_end(std::slice::from_ref(&unit));
        let layers = per_layer(
            std::slice::from_ref(&unit),
            std::slice::from_ref(&unit),
            &SpanTotals::default(),
            &Probes::default(),
        );
        for b in &def.end_to_end {
            assert!(
                e2e.iter().any(|m| m.name == b.name),
                "{} not reported",
                b.name
            );
            assert!(b.bound > 0.0 && b.bound <= 0.25);
        }
        for name in &def.per_layer {
            assert!(
                layers.iter().any(|m| &m.name == name),
                "{name} not reported"
            );
        }
        assert_eq!(select(&layers, &def.per_layer).len(), def.per_layer.len());
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let m = vec![metric("answer_s", 0.07, "s")];
        let line = result_line(10, 0, true, &m);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let v = doc.get("metrics").and_then(|m| m.get("answer_s")).unwrap();
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(0.07));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some("s"));
    }
}
