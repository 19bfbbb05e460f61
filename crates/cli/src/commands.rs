//! Subcommand implementations for the `stochcdr` CLI.

use std::fmt::Write as _;

use stochcdr::acquisition::{lock_probability_curve, mean_lock_time, worst_case_start};
use stochcdr::ber::{bathtub, eye_opening_at_ber};
use stochcdr::clock_jitter::analyze_clock_jitter;
use stochcdr::cycle_slip::{mean_time_between_slips, mean_time_to_first_slip};
use stochcdr::{report, CdrAnalysis, CdrChain, CdrError, CdrModel};
use stochcdr_linalg::pattern;
use stochcdr_obs as obs;
use stochcdr_obs::artifact::fmt_bytes;
use stochcdr_sweep::{render as sweep_render, run as sweep_run, SweepAxis, SweepSpec};

use crate::args::{usage, CliError, Options, ParsedArgs};

/// Runs the subcommand and renders its output.
///
/// # Errors
///
/// Returns [`CliError`] for malformed subcommand flags or analysis
/// failures.
pub fn dispatch(parsed: &ParsedArgs) -> Result<String, CliError> {
    match parsed.command.as_str() {
        "help" => Ok(usage()),
        "analyze" => analyze(&parsed.options),
        "sweep" => sweep(&parsed.options),
        "bathtub" => bathtub_cmd(&parsed.options),
        "slip" => slip(&parsed.options),
        "acquire" => acquire(&parsed.options),
        "jitter" => jitter(&parsed.options),
        "spy" => spy(&parsed.options),
        "scale" => scale(&parsed.options),
        "report" => report_cmd(&parsed.options),
        "diff" => diff_cmd(&parsed.options),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// `stochcdr diff --baseline A --fresh B`: compares two metrics
/// artifacts with [`obs::artifact::diff`] — counters, events, span
/// counts, and value-histogram bins exactly; timings, memory, and gauges
/// within `--rel-tol` (advisory). A deterministic mismatch is an error
/// carrying the full regression report; `--out FILE` saves the report
/// either way.
fn diff_cmd(opts: &Options) -> Result<String, CliError> {
    let load = |flag: &str| -> Result<obs::artifact::Artifact, CliError> {
        let path = opts
            .extra
            .get(flag)
            .ok_or_else(|| CliError::MissingValue(format!("--{flag}")))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Analysis(format!("cannot read artifact '{path}': {e}")))?;
        obs::artifact::Artifact::load_jsonl(&text)
            .map_err(|e| CliError::Analysis(format!("invalid metrics artifact '{path}': {e}")))
    };
    let baseline = load("baseline")?;
    let fresh = load("fresh")?;
    let rel_tol = extra_f64(
        opts,
        "rel-tol",
        obs::artifact::DiffOptions::default().rel_tol,
    )?;
    if !(rel_tol.is_finite() && rel_tol > 0.0) {
        return Err(CliError::BadValue {
            flag: "--rel-tol".into(),
            value: rel_tol.to_string(),
            expected: "a positive number",
        });
    }
    let report = obs::artifact::diff(&baseline, &fresh, &obs::artifact::DiffOptions { rel_tol });
    if let Some(path) = opts.extra.get("out") {
        std::fs::write(path, &report.text)
            .map_err(|e| CliError::Analysis(format!("cannot write diff report '{path}': {e}")))?;
    }
    if report.ok() {
        Ok(report.text)
    } else {
        Err(CliError::Analysis(format!(
            "{} deterministic record(s) drifted\n{}",
            report.failures.len(),
            report.text
        )))
    }
}

/// `stochcdr report --in FILE`: renders a recorded artifact, validating
/// its structure. A `--metrics` JSONL stream renders as the run's table
/// ([`obs::artifact::Artifact::render`], the same table
/// [`obs::SummarySink`] produces live); a `--trace` Chrome trace renders
/// its per-name span counts and fails on unbalanced begin/end events.
fn report_cmd(opts: &Options) -> Result<String, CliError> {
    let path = opts
        .extra
        .get("in")
        .ok_or_else(|| CliError::MissingValue("--in".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Analysis(format!("cannot read artifact '{path}': {e}")))?;
    if !obs::artifact::looks_like_trace(&text) {
        let art = obs::artifact::Artifact::load_jsonl(&text)
            .map_err(|e| CliError::Analysis(format!("invalid metrics artifact '{path}': {e}")))?;
        return Ok(art.render());
    }
    let check = obs::artifact::check_trace(&text)
        .map_err(|e| CliError::Analysis(format!("invalid trace '{path}': {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chrome trace: {} events ({} begin / {} end) on {} thread lanes",
        check.events, check.begins, check.ends, check.threads
    );
    if !check.span_counts.is_empty() {
        let _ = writeln!(out, "\nspans (name, count):");
        for (name, count) in &check.span_counts {
            let _ = writeln!(out, "  {name:<40} {count}");
        }
    }
    if !check.unbalanced.is_empty() {
        return Err(CliError::Analysis(format!(
            "trace '{path}' has unbalanced begin/end events for: {}",
            check.unbalanced.join(", ")
        )));
    }
    let _ = writeln!(out, "\nbegin/end events balanced for every span name");
    Ok(out)
}

fn build_and_solve(opts: &Options) -> Result<(CdrChain, CdrAnalysis), CliError> {
    let chain = CdrModel::new(opts.config.clone()).build_chain()?;
    let analysis = chain.analyze_with_tol(opts.solver, opts.tol)?;
    Ok((chain, analysis))
}

fn extra_usize(opts: &Options, name: &str, default: usize) -> Result<usize, CliError> {
    match opts.extra.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadValue {
            flag: format!("--{name}"),
            value: v.clone(),
            expected: "a non-negative integer",
        }),
    }
}

fn extra_f64(opts: &Options, name: &str, default: f64) -> Result<f64, CliError> {
    match opts.extra.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadValue {
            flag: format!("--{name}"),
            value: v.clone(),
            expected: "a number",
        }),
    }
}

/// Mean time between slips as report text. A zero stationary slip rate
/// is an answer (the loop never slips), not a failure.
fn mtbs_text(chain: &CdrChain, eta: &[f64]) -> Result<String, CliError> {
    match mean_time_between_slips(chain, eta) {
        Ok(mtbs) => Ok(format!("{mtbs:.3e} symbols")),
        Err(CdrError::ZeroSlipRate) => Ok("inf (stationary slip rate is zero)".into()),
        Err(e) => Err(e.into()),
    }
}

fn analyze(opts: &Options) -> Result<String, CliError> {
    let (chain, a) = build_and_solve(opts)?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", report::figure_panel(&chain, &a));
    let mtbs = mtbs_text(&chain, &a.stationary)?;
    let _ = writeln!(out, "mean time between cycle slips: {mtbs}");
    if chain.pruned_states() > 0 {
        let _ = writeln!(
            out,
            "(note: {} unreachable Cartesian-product states pruned)",
            chain.pruned_states()
        );
    }
    Ok(out)
}

/// Parses one `--axes` entry's comma-separated value list into a typed
/// sweep axis.
fn parse_axis(name: &str, values: &str) -> Result<SweepAxis, CliError> {
    let toks: Vec<&str> = values
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let bad = |value: &str, expected: &'static str| CliError::BadValue {
        flag: "--axes".into(),
        value: value.to_string(),
        expected,
    };
    let usizes = |expected| -> Result<Vec<usize>, CliError> {
        toks.iter()
            .map(|v| v.parse().map_err(|_| bad(v, expected)))
            .collect()
    };
    let f64s = |expected| -> Result<Vec<f64>, CliError> {
        toks.iter()
            .map(|v| v.parse().map_err(|_| bad(v, expected)))
            .collect()
    };
    match name {
        "counter" => Ok(SweepAxis::CounterLen(usizes("integers")?)),
        "dead-zone" => Ok(SweepAxis::DeadZone(usizes("integers")?)),
        "refinement" => Ok(SweepAxis::Refinement(usizes("integers")?)),
        "sigma-nw" => Ok(SweepAxis::SigmaNw(f64s("numbers")?)),
        "drift-ppm" => Ok(SweepAxis::DriftPpm(f64s("numbers")?)),
        "filter" => toks
            .iter()
            .map(|v| match *v {
                "counter" | "overflow" => Ok(stochcdr::FilterKind::OverflowCounter),
                "consecutive" => Ok(stochcdr::FilterKind::ConsecutiveDetector),
                other => Err(bad(other, "counter | consecutive")),
            })
            .collect::<Result<_, _>>()
            .map(SweepAxis::Filter),
        "solver" => toks
            .iter()
            .map(|v| {
                stochcdr::SolverChoice::parse(v)
                    .ok_or_else(|| bad(v, "power|gs|jacobi|direct|mg|mgw|mgk|gmres"))
            })
            .collect::<Result<_, _>>()
            .map(SweepAxis::Solver),
        other => Err(CliError::BadValue {
            flag: "--axes".into(),
            value: other.into(),
            expected: "counter | dead-zone | sigma-nw | drift-ppm | refinement | filter | solver",
        }),
    }
}

fn sweep(opts: &Options) -> Result<String, CliError> {
    // Axes come from `--axes "name=v1,v2;name2=..."`, or default to a
    // counter sweep.
    let mut axes: Vec<SweepAxis> = Vec::new();
    let text = opts.extra.get("axes").map_or("", String::as_str);
    for part in text.split(';').filter(|p| !p.trim().is_empty()) {
        let (name, values) = part.split_once('=').ok_or_else(|| CliError::BadValue {
            flag: "--axes".into(),
            value: part.into(),
            expected: "name=v1,v2[;name=...]",
        })?;
        axes.push(parse_axis(name.trim(), values)?);
    }
    if axes.is_empty() {
        axes.push(SweepAxis::CounterLen(vec![4, 8, 16]));
    }
    let warm = match opts.extra.get("warm-start").map(String::as_str) {
        None | Some("on") | Some("true") => true,
        Some("off") | Some("false") => false,
        Some(v) => {
            return Err(CliError::BadValue {
                flag: "--warm-start".into(),
                value: v.into(),
                expected: "on | off",
            })
        }
    };

    let mut spec = SweepSpec::new(opts.config.clone())
        .solver(opts.solver)
        .tol(opts.tol)
        .warm_start(warm);
    for axis in axes {
        spec = spec.axis(axis);
    }
    let sweep = sweep_run(&spec)?;

    if let Some(path) = opts.extra.get("out") {
        std::fs::write(path, sweep_render(&spec, &sweep.points))
            .map_err(|e| CliError::Analysis(format!("cannot write sweep output '{path}': {e}")))?;
    }

    // The point label column: axis names for the header, value labels per
    // row (comma-joined when sweeping several axes at once).
    let header = spec
        .axes
        .iter()
        .map(SweepAxis::name)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>14} {:>8}",
        header, "BER", "MTBS (sym)", "iters"
    );
    for p in &sweep.points {
        let label = p
            .params
            .iter()
            .map(|(_, l)| l.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "{:<12} {:>12.3e} {:>14.3e} {:>8}",
            label, p.ber, p.mtbs, p.iterations
        );
    }
    // Cache effectiveness goes to the observability layer (visible with
    // --metrics), keeping stdout shape stable.
    obs::gauge("sweep.cache_hit_rate", sweep.cache.hit_rate());
    Ok(out)
}

fn bathtub_cmd(opts: &Options) -> Result<String, CliError> {
    let points = extra_usize(opts, "points", 21)?.max(2);
    let target = extra_f64(opts, "target", 1e-12)?;
    let (_, a) = build_and_solve(opts)?;
    let sigma = opts.config.white.sigma_ui;
    let mut out = String::new();
    let _ = writeln!(out, "{:>10} {:>12}", "offset UI", "BER");
    for p in bathtub(&a.phi_density, sigma, points) {
        let _ = writeln!(out, "{:>10.3} {:>12.3e}", p.offset_ui, p.ber);
    }
    let _ = writeln!(
        out,
        "horizontal eye opening at BER {target:.0e}: {:.3} UI",
        eye_opening_at_ber(&a.phi_density, sigma, target)
    );
    Ok(out)
}

fn slip(opts: &Options) -> Result<String, CliError> {
    let (chain, a) = build_and_solve(opts)?;
    let mtbs = mtbs_text(&chain, &a.stationary)?;
    let mut out = String::new();
    let _ = writeln!(out, "BER                         : {:.3e}", a.ber);
    let _ = writeln!(out, "mean time between slips     : {mtbs}");
    match mean_time_to_first_slip(&chain, 1) {
        Ok(first) => {
            let _ = writeln!(out, "first slip from lock        : {first:.3e} symbols");
        }
        Err(e) => {
            let _ = writeln!(out, "first slip from lock        : unavailable ({e})");
        }
    }
    Ok(out)
}

fn acquire(opts: &Options) -> Result<String, CliError> {
    let horizon = extra_usize(opts, "horizon", 1000)?;
    let chain = CdrModel::new(opts.config.clone()).build_chain()?;
    let radius = opts.config.step_bins();
    let mean = mean_lock_time(&chain, radius)?;
    let curve = lock_probability_curve(&chain, worst_case_start(&chain), radius, horizon)?;
    let mut out = String::new();
    let _ = writeln!(out, "mean lock time from half-UI start: {mean:.1} symbols");
    let _ = writeln!(out, "{:>8} {:>12}", "symbols", "P(locked)");
    let step = (horizon / 10).max(1);
    for k in (0..=horizon).step_by(step) {
        let _ = writeln!(out, "{:>8} {:>12.4}", k, curve[k]);
    }
    Ok(out)
}

fn jitter(opts: &Options) -> Result<String, CliError> {
    let max_lag = extra_usize(opts, "max-lag", 200)?.max(1);
    let (chain, a) = build_and_solve(opts)?;
    let r = analyze_clock_jitter(&chain, &a.stationary, max_lag, 16)?;
    let mut out = String::new();
    let _ = writeln!(out, "rms phase jitter   : {:.4e} UI", r.rms_ui);
    let _ = writeln!(out, "lag-1 correlation  : {:.4}", r.lag1_correlation());
    let _ = writeln!(
        out,
        "correlation length : {} symbols",
        r.correlation_length()
    );
    let _ = writeln!(out, "{:>8} {:>14}", "lag", "J(lag) UI");
    for &k in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        if k <= max_lag {
            let _ = writeln!(out, "{:>8} {:>14.4e}", k, r.accumulated_ui[k]);
        }
    }
    Ok(out)
}

fn spy(opts: &Options) -> Result<String, CliError> {
    let size = extra_usize(opts, "size", 64)?.max(1);
    let chain = CdrModel::new(opts.config.clone()).build_chain()?;
    let tpm = chain.tpm().matrix();
    let stats = pattern::stats(tpm);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} states, {} nonzeros (density {:.3e}, rows {}..{} nnz)",
        stats.rows, stats.nnz, stats.density, stats.min_row_nnz, stats.max_row_nnz
    );
    let _ = writeln!(out, "{}", pattern::spy_ascii(tpm, size));
    Ok(out)
}

/// `stochcdr scale --lanes N`: replicates the configured chain into an
/// `N`-lane Kronecker product and solves for the joint stationary
/// distribution without materializing the joint TPM. This is the
/// paper-scale entry point: the joint state space multiplies with every
/// lane while the stored representation only adds one factor CSR.
fn scale(opts: &Options) -> Result<String, CliError> {
    let lanes = extra_usize(opts, "lanes", 2)?.max(1);
    let chain = CdrModel::new(opts.config.clone()).build_chain()?;
    let product = chain.replicate(lanes)?;

    let start = std::time::Instant::now();
    let solve = product.solve_implicit(opts.tol)?;
    let solve_secs = start.elapsed().as_secs_f64();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "lanes               : {lanes} x {} states",
        chain.state_count()
    );
    let _ = writeln!(out, "joint states        : {}", product.state_count());
    let _ = writeln!(
        out,
        "stored transitions  : {} (factored; materialized would be {:.3e})",
        product.compact_nnz(),
        product.materialized_nnz() as f64,
    );
    let _ = writeln!(out, "solver              : {}", solve.solver_name);
    let _ = writeln!(out, "cycles              : {}", solve.result.iterations());
    let _ = writeln!(
        out,
        "cycle equivalents   : {:.2}",
        solve.stats.cycle_equivalents
    );
    if solve.stats.krylov_windows > 0 {
        let _ = writeln!(
            out,
            "krylov windows      : {} ({} accepted)",
            solve.stats.krylov_windows, solve.stats.krylov_accepts
        );
    }
    let _ = writeln!(out, "residual            : {:.3e}", solve.result.residual());
    // FNV-1a over the stationary vector's f64 bit patterns: two runs
    // print the same checksum iff they produced the same distribution
    // bits, which is how the determinism contract is checked across
    // `--threads` settings at scales where diffing vectors is unwieldy.
    let checksum = solve
        .result
        .distribution
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
        });
    let _ = writeln!(out, "distribution fnv1a  : {checksum:016x}");
    let _ = writeln!(out, "solve time          : {solve_secs:.2}s");
    let _ = writeln!(
        out,
        "peak RSS            : {}",
        fmt_bytes(obs::mem::peak_rss_bytes())
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A small, fast model for CLI smoke tests.
    const SMALL: &str = "--phases 4 --refinement 2 --counter 4 --sigma-nw 0.08 \
                         --drift-mean 2e-2 --drift-dev 8e-2";

    #[test]
    fn analyze_smoke() {
        let out = run(&argv(&format!("analyze {SMALL}"))).unwrap();
        assert!(out.contains("COUNTER: 4"));
        assert!(out.contains("BER:"));
        assert!(out.contains("cycle slips"));
    }

    #[test]
    fn sweep_smoke() {
        let out = run(&argv(&format!("sweep {SMALL} --axes counter=2,4"))).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("MTBS"));
    }

    #[test]
    fn sweep_axes_grid_and_json_out() {
        let path = std::env::temp_dir().join("stochcdr_sweep_out_test.json");
        let out = run(&argv(&format!(
            "sweep {SMALL} --axes drift-ppm=20000,21000;counter=2,4 --out {}",
            path.display()
        )))
        .unwrap();
        // Header plus the 2×2 grid.
        assert_eq!(out.lines().count(), 5);
        assert!(out.starts_with("drift-ppm,counter"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("stochcdr-sweep/1"));
        assert!(run(&argv(&format!("sweep {SMALL} --axes nonsense"))).is_err());
        assert!(run(&argv(&format!("sweep {SMALL} --warm-start maybe"))).is_err());
    }

    #[test]
    fn bathtub_smoke() {
        let out = run(&argv(&format!("bathtub {SMALL} --points 5"))).unwrap();
        assert!(out.contains("offset UI"));
        assert!(out.contains("eye opening"));
        assert_eq!(out.lines().count(), 7);
    }

    #[test]
    fn slip_and_acquire_and_jitter_smoke() {
        assert!(run(&argv(&format!("slip {SMALL}")))
            .unwrap()
            .contains("between slips"));
        let out = run(&argv(&format!("acquire {SMALL} --horizon 100"))).unwrap();
        assert!(out.contains("mean lock time"));
        let out = run(&argv(&format!("jitter {SMALL} --max-lag 32"))).unwrap();
        assert!(out.contains("rms phase jitter"));
    }

    #[test]
    fn spy_smoke() {
        let out = run(&argv(&format!("spy {SMALL} --size 16"))).unwrap();
        assert!(out.contains('+'));
        assert!(out.contains("nonzeros"));
    }

    #[test]
    fn scale_solves_and_rejects_path_flags() {
        // Tiny lanes (--counter 2 shrinks SMALL further) keep the solve
        // fast.
        let tiny = format!("{SMALL} --counter 2 --lanes 2 --tol 1e-8");
        let out = run(&argv(&format!("scale {tiny}"))).unwrap();
        assert!(out.contains("joint states"), "{out}");
        assert!(out.contains("cycles"), "{out}");
        assert!(out.contains("distribution fnv1a"), "{out}");
        assert!(out.contains("peak RSS"), "{out}");
        // The product solve has one path, so nothing selects or budgets
        // it.
        for flags in ["--path implicit", "--mem-budget 2G"] {
            let e = run(&argv(&format!("scale {tiny} {flags}"))).unwrap_err();
            assert!(
                matches!(e, crate::CliError::UnknownFlag(_)),
                "{flags}: {e:?}"
            );
        }
        assert!(crate::args::usage().contains("scale"));
    }

    #[test]
    fn report_renders_memory_only_when_artifact_has_it() {
        let dir = std::env::temp_dir();
        // An artifact with span memory attribution...
        let schema = stochcdr_obs::SCHEMA_VERSION;
        let tracked = dir.join("stochcdr_cli_report_tracked.jsonl");
        std::fs::write(
            &tracked,
            format!(
                "{{\"kind\":\"meta\",\"schema\":\"{schema}\"}}\n\
                 {{\"kind\":\"span\",\"path\":\"solve\",\"name\":\"solve\",\"nanos\":1200,\
                  \"alloc_bytes\":65536,\"allocs\":3}}\n"
            ),
        )
        .unwrap();
        let out = run(&argv(&format!("report --in {}", tracked.display()))).unwrap();
        assert!(out.contains(schema), "{out}");
        assert!(out.contains("span memory"), "{out}");
        assert!(out.contains("64.0KiB"), "{out}");

        // ...and one without (no tracking allocator): no memory section,
        // no error.
        let untracked = dir.join("stochcdr_cli_report_untracked.jsonl");
        std::fs::write(
            &untracked,
            format!(
                "{{\"kind\":\"meta\",\"schema\":\"{schema}\"}}\n\
                 {{\"kind\":\"span\",\"path\":\"solve\",\"name\":\"solve\",\"nanos\":1200}}\n\
                 {{\"kind\":\"counter\",\"name\":\"sweeps\",\"delta\":3}}\n"
            ),
        )
        .unwrap();
        let out = run(&argv(&format!("report --in {}", untracked.display()))).unwrap();
        assert!(out.contains(schema), "{out}");
        assert!(!out.contains("span memory"), "{out}");
        assert!(out.contains("sweeps"), "{out}");

        std::fs::remove_file(&tracked).ok();
        std::fs::remove_file(&untracked).ok();
    }

    #[test]
    fn progress_flag_is_accepted_sink_less() {
        // `--progress` alone must work without any sink: status goes to
        // stderr, events fall on the disabled facade.
        let out = run(&argv(&format!("analyze {SMALL} --progress 0.5"))).unwrap();
        assert!(out.contains("BER:"), "{out}");
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&argv("help")).unwrap().contains("usage"));
        assert!(run(&argv("nope")).is_err());
        assert!(run(&argv("sweep --axes nope=1")).is_err());
        // Swept values are re-validated through the config builder.
        assert!(run(&argv(&format!("sweep {SMALL} --axes counter=0"))).is_err());
    }
}
