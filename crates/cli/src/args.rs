//! Flag parsing for the `stochcdr` CLI.

use std::collections::BTreeMap;
use std::fmt;

use stochcdr::{CdrConfig, CdrError, FilterKind, SolverChoice};
use stochcdr_noise::jitter::WhiteJitterSpec;
use stochcdr_noise::sonet::DataSpec;

/// Errors surfaced to the terminal user.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A flag was not recognized by the subcommand.
    UnknownFlag(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A flag was given without a value.
    MissingValue(String),
    /// Configuration or analysis failure from the library.
    Analysis(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command '{c}'\n\n{}", usage())
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "bad value '{value}' for '{flag}': expected {expected}")
            }
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' needs a value"),
            CliError::Analysis(msg) => write!(f, "analysis failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CdrError> for CliError {
    fn from(e: CdrError) -> Self {
        CliError::Analysis(e.to_string())
    }
}

/// Heartbeat interval, in seconds, that `--progress on` selects.
pub const DEFAULT_PROGRESS_SECS: f64 = 1.0;

/// The usage text shown for `--help` and errors.
pub fn usage() -> String {
    "usage: stochcdr <command> [--flag value]...\n\
     \n\
     commands:\n\
     \x20 analyze    stationary analysis: BER, densities, slip rate\n\
     \x20 sweep      parameter-grid sweep on the cached parallel engine:\n\
     \x20            --axes \"drift-ppm=50,100;counter=4,8\" over counter|dead-zone|\n\
     \x20            sigma-nw|drift-ppm|refinement|filter|solver (default counter=4,8,16)\n\
     \x20            --warm-start on|off (default on), --out FILE (stochcdr-sweep/1 JSON)\n\
     \x20 bathtub    BER vs static sampling offset (--points N, --target BER)\n\
     \x20 slip       mean time between cycle slips + first-passage time\n\
     \x20 acquire    lock-acquisition curve and mean pull-in time (--horizon N)\n\
     \x20 jitter     recovered-clock jitter report (--max-lag N)\n\
     \x20 spy        ASCII nonzero pattern of the transition matrix (--size N)\n\
     \x20 scale      multi-lane product-form solve on the implicit Kronecker\n\
     \x20            path, never materializing the joint TPM (--lanes N,\n\
     \x20            default 2)\n\
     \x20 report     render a recorded artifact (--in FILE): the run table\n\
     \x20            of a --metrics stream (stochcdr-obs/5 JSONL), or the\n\
     \x20            structure check of a --trace Chrome trace\n\
     \x20 diff       compare two metrics artifacts (--baseline A --fresh B):\n\
     \x20            counts exact, timings/memory advisory (--rel-tol X,\n\
     \x20            default 0.5); --out FILE saves the regression report\n\
     \n\
     model flags (every command but report and diff):\n\
     \x20 --phases N           VCO phases (default 8)\n\
     \x20 --refinement N       grid bins per phase step (default 16)\n\
     \x20 --counter N          loop-filter length (default 8)\n\
     \x20 --filter KIND        counter | consecutive (default counter)\n\
     \x20 --dead-zone N        PD dead zone in grid bins (default 0)\n\
     \x20 --sigma-nw UI        white jitter sigma (default 0.05)\n\
     \x20 --dj UI              dual-Dirac deterministic jitter (default 0)\n\
     \x20 --drift-mean UI      n_r mean per symbol (default 2e-3)\n\
     \x20 --drift-dev UI       n_r max deviation (default 8e-3)\n\
     \x20 --density P          data transition density (default 0.5)\n\
     \x20 --run-length N       max identical-bit run (default 4)\n\
     \x20 --solver NAME        power|gs|jacobi|direct|mg|mgw|mgk|gmres\n\
     \x20                      (default mg; mgk = V-cycles with Krylov\n\
     \x20                      window acceleration, gmres = restarted\n\
     \x20                      GMRES on the shifted stationarity system)\n\
     \x20 --tol X              stationary residual tolerance (default 1e-12)\n\
     \x20 --threads N          worker threads for parallel kernels; 0 = auto\n\
     \x20                      (flag > STOCHCDR_THREADS env > available cores)\n\
     \n\
     observability flags (all commands):\n\
     \x20 --metrics PATH       stream instrumentation records to PATH as\n\
     \x20                      stochcdr-obs/5 JSONL; `stochcdr report --in\n\
     \x20                      PATH` renders them as a table\n\
     \x20 --trace PATH         write a Chrome Trace Event JSON file (open in\n\
     \x20                      ui.perfetto.dev or chrome://tracing)\n\
     \x20 --progress V         live heartbeat: on | off | SECONDS between\n\
     \x20                      updates (on = 1); throttled solve.progress\n\
     \x20                      events plus one-line stderr status\n"
        .to_string()
}

/// Parsed options shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Model configuration (the defaults for `report` and `diff`, which
    /// read no model flags).
    pub config: CdrConfig,
    /// Stationary solver.
    pub solver: SolverChoice,
    /// Residual tolerance.
    pub tol: f64,
    /// Worker-thread count for parallel kernels (`--threads`); 0 means
    /// auto (`STOCHCDR_THREADS` env, else available parallelism).
    pub threads: usize,
    /// Where to stream the JSONL metrics artifact (`--metrics`), if
    /// anywhere.
    pub metrics: Option<String>,
    /// Where to write a Chrome Trace Event file (`--trace`), if anywhere.
    pub trace: Option<String>,
    /// Heartbeat interval in seconds (`--progress`); `None` = off.
    pub progress: Option<f64>,
    /// The subcommand's own flags (each command's list is in `COMMANDS`).
    pub extra: BTreeMap<String, String>,
}

/// Every subcommand with the flags it reads beyond the model and
/// observability flags; [`parse`] rejects any other.
const COMMANDS: [(&str, &[&str]); 10] = [
    ("analyze", &[]),
    ("sweep", &["axes", "warm-start", "out"]),
    ("bathtub", &["points", "target"]),
    ("slip", &[]),
    ("acquire", &["horizon"]),
    ("jitter", &["max-lag"]),
    ("spy", &["size"]),
    ("scale", &["lanes"]),
    ("report", &["in"]),
    ("diff", &["baseline", "fresh", "rel-tol", "out"]),
];

/// The subcommands that read recorded artifacts rather than a model.
/// They leave the model, solver, `--tol` and `--threads` flags unread,
/// so [`parse`] rejects each of those as an unknown flag.
const ARTIFACT_COMMANDS: [&str; 2] = ["report", "diff"];

/// The model configuration, solver, tolerance and thread count.
type Model = (CdrConfig, SolverChoice, f64, usize);

/// A parsed invocation: the subcommand plus its options.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand name.
    pub command: String,
    /// Parsed options.
    pub options: Options,
}

/// Parses `argv` (without the program name).
///
/// A `--config FILE` flag may appear anywhere after the subcommand: the
/// file holds whitespace-separated `--flag value` tokens (comments start
/// with `#`) that are spliced in *before* the command-line flags, so the
/// command line overrides the file.
///
/// # Errors
///
/// See [`CliError`].
pub fn parse(argv: &[String]) -> Result<ParsedArgs, CliError> {
    let argv = expand_config_files(argv)?;
    let argv = &argv[..];
    let command = match argv.first() {
        None => return Err(CliError::UnknownCommand("(none)".into())),
        Some(c) if c == "--help" || c == "-h" || c == "help" => {
            let (config, solver, tol, threads) = default_model()?;
            return Ok(ParsedArgs {
                command: "help".into(),
                options: Options {
                    config,
                    solver,
                    tol,
                    threads,
                    metrics: None,
                    trace: None,
                    progress: None,
                    extra: BTreeMap::new(),
                },
            });
        }
        Some(c) => c.clone(),
    };
    let Some(&(_, own_flags)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        return Err(CliError::UnknownCommand(command));
    };

    // Collect --flag value pairs.
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError::UnknownFlag(flag.clone()));
        };
        let value = it
            .next()
            .ok_or_else(|| CliError::MissingValue(flag.clone()))?;
        flags.insert(name.to_string(), value.clone());
    }

    let (config, solver, tol, threads) = if ARTIFACT_COMMANDS.contains(&command.as_str()) {
        default_model()?
    } else {
        take_model(&mut flags)?
    };
    let metrics = flags.remove("metrics");
    let trace = flags.remove("trace");
    let progress = match flags.remove("progress") {
        None => None,
        Some(v) => match v.as_str() {
            "off" => None,
            "on" => Some(DEFAULT_PROGRESS_SECS),
            s => match s.parse::<f64>() {
                Ok(secs) if secs > 0.0 && secs.is_finite() => Some(secs),
                _ => {
                    return Err(CliError::BadValue {
                        flag: "--progress".into(),
                        value: v,
                        expected: "on | off | a positive interval in seconds",
                    })
                }
            },
        },
    };
    // Whatever flags remain must be the subcommand's own.
    let unread = flags.keys().find(|k| !own_flags.contains(&k.as_str()));
    if let Some(name) = unread {
        return Err(CliError::UnknownFlag(format!("--{name}")));
    }

    Ok(ParsedArgs {
        command,
        options: Options {
            config,
            solver,
            tol,
            threads,
            metrics,
            trace,
            progress,
            extra: flags,
        },
    })
}

/// Reads (and removes) the model, solver, `--tol` and `--threads` flags,
/// validating the configuration they describe.
fn take_model(flags: &mut BTreeMap<String, String>) -> Result<Model, CliError> {
    let phases = take_usize(flags, "phases", 8)?;
    let refinement = take_usize(flags, "refinement", 16)?;
    let counter = take_usize(flags, "counter", 8)?;
    let dead_zone = take_usize(flags, "dead-zone", 0)?;
    let run_length = take_usize(flags, "run-length", 4)?;
    let sigma = take_f64(flags, "sigma-nw", 0.05)?;
    let dj = take_f64(flags, "dj", 0.0)?;
    let drift_mean = take_f64(flags, "drift-mean", 2e-3)?;
    let drift_dev = take_f64(flags, "drift-dev", 8e-3)?;
    let density = take_f64(flags, "density", 0.5)?;
    let tol = take_f64(flags, "tol", 1e-12)?;
    let threads = take_usize(flags, "threads", 0)?;

    let filter = match flags.remove("filter").as_deref() {
        None | Some("counter") => FilterKind::OverflowCounter,
        Some("consecutive") => FilterKind::ConsecutiveDetector,
        Some(v) => {
            return Err(CliError::BadValue {
                flag: "--filter".into(),
                value: v.into(),
                expected: "counter | consecutive",
            })
        }
    };
    let solver = match flags.remove("solver") {
        None => SolverChoice::Multigrid,
        Some(v) => match SolverChoice::parse(&v) {
            Some(s) => s,
            None => {
                return Err(CliError::BadValue {
                    flag: "--solver".into(),
                    value: v,
                    expected: "power|gs|jacobi|direct|mg|mgw|mgk|gmres",
                })
            }
        },
    };

    let white = if dj > 0.0 {
        WhiteJitterSpec::from_dual_dirac(dj, sigma)
    } else {
        WhiteJitterSpec::from_sigma(sigma)
    };
    let data = DataSpec::new(density, run_length).map_err(|e| CliError::Analysis(e.to_string()))?;
    let config = CdrConfig::builder()
        .phases(phases)
        .grid_refinement(refinement)
        .counter_len(counter)
        .filter_kind(filter)
        .dead_zone_bins(dead_zone)
        .data(data)
        .white(white)
        .drift(drift_mean, drift_dev)
        .build()?;
    Ok((config, solver, tol, threads))
}

/// Splices `--config FILE` contents into the argument list.
fn expand_config_files(argv: &[String]) -> Result<Vec<String>, CliError> {
    let mut out = Vec::with_capacity(argv.len());
    let mut file_tokens: Vec<String> = Vec::new();
    let mut it = argv.iter();
    if let Some(cmd) = it.next() {
        out.push(cmd.clone());
    }
    let mut rest = Vec::new();
    while let Some(a) = it.next() {
        if a == "--config" {
            let path = it
                .next()
                .ok_or_else(|| CliError::MissingValue("--config".into()))?;
            let text = std::fs::read_to_string(path).map_err(|e| CliError::BadValue {
                flag: "--config".into(),
                value: format!("{path}: {e}"),
                expected: "a readable file",
            })?;
            for line in text.lines() {
                let line = line.split('#').next().unwrap_or("");
                file_tokens.extend(line.split_whitespace().map(String::from));
            }
        } else {
            rest.push(a.clone());
        }
    }
    // File tokens first so explicit command-line flags win (BTreeMap insert
    // order: later wins).
    out.extend(file_tokens);
    out.extend(rest);
    Ok(out)
}

fn take_f64(
    flags: &mut BTreeMap<String, String>,
    name: &str,
    default: f64,
) -> Result<f64, CliError> {
    match flags.remove(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadValue {
            flag: format!("--{name}"),
            value: v,
            expected: "a number",
        }),
    }
}

fn take_usize(
    flags: &mut BTreeMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.remove(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadValue {
            flag: format!("--{name}"),
            value: v,
            expected: "a non-negative integer",
        }),
    }
}

/// The model every flag default describes, for commands that read none.
fn default_model() -> Result<Model, CdrError> {
    let config = CdrConfig::builder()
        .phases(8)
        .grid_refinement(16)
        .counter_len(8)
        .white_sigma_ui(0.05)
        .drift(2e-3, 8e-3)
        .build()?;
    Ok((config, SolverChoice::Multigrid, 1e-12, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let p = parse(&argv("analyze")).unwrap();
        assert_eq!(p.command, "analyze");
        assert_eq!(p.options.config.phases, 8);
        assert_eq!(p.options.config.counter_len, 8);
        assert_eq!(p.options.solver, SolverChoice::Multigrid);
    }

    #[test]
    fn flags_override_defaults() {
        let p = parse(&argv(
            "analyze --phases 4 --refinement 8 --counter 16 --sigma-nw 0.1 \
             --drift-mean 1e-3 --drift-dev 2e-2 --solver power --tol 1e-9",
        ))
        .unwrap();
        assert_eq!(p.options.config.phases, 4);
        assert_eq!(p.options.config.counter_len, 16);
        assert_eq!(p.options.config.white.sigma_ui, 0.1);
        assert_eq!(p.options.solver, SolverChoice::Power);
        assert_eq!(p.options.tol, 1e-9);
    }

    #[test]
    fn threads_flag_parses_and_defaults_to_auto() {
        assert_eq!(parse(&argv("analyze")).unwrap().options.threads, 0);
        assert_eq!(
            parse(&argv("analyze --threads 4")).unwrap().options.threads,
            4
        );
        assert!(matches!(
            parse(&argv("analyze --threads many")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn solver_parse_goes_through_registry() {
        for choice in SolverChoice::ALL {
            let p = parse(&argv(&format!("analyze --solver {}", choice.cli_name()))).unwrap();
            assert_eq!(p.options.solver, choice);
        }
    }

    #[test]
    fn filter_and_dj_flags() {
        let p = parse(&argv("analyze --filter consecutive --dj 0.1 --counter 3")).unwrap();
        assert_eq!(
            p.options.config.filter_kind,
            FilterKind::ConsecutiveDetector
        );
        assert_eq!(p.options.config.white.dj_ui, 0.1);
    }

    #[test]
    fn subcommand_specific_flags_pass_through() {
        let p = parse(&argv("bathtub --points 31")).unwrap();
        assert_eq!(
            p.options.extra.get("points").map(String::as_str),
            Some("31")
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&argv("analyze --phases")),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&argv("analyze --phases abc")),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&argv("analyze --solver warp")),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&argv("analyze stray")),
            Err(CliError::UnknownFlag(_))
        ));
        // A subcommand rejects any flag it does not read: `--lanes`
        // belongs to `scale`, and the artifact commands read no model,
        // solver, `--tol` or `--threads` flags.
        for bad in [
            "analyze --cycle v",
            "sweep --accel gmres",
            "sweep --knob counter --values 4",
            "analyze --points 3",
            "analyze --lanes 2",
            "report --in m.jsonl --refinement 0",
            "diff --baseline m.jsonl --fresh m.jsonl --solver gmres --tol 5",
            "diff --baseline m.jsonl --fresh m.jsonl --threads 2",
        ] {
            let e = parse(&argv(bad)).unwrap_err();
            assert!(matches!(e, CliError::UnknownFlag(_)), "{bad}: {e:?}");
            assert!(e.to_string().contains("unknown flag"), "{bad}: {e}");
        }
    }

    #[test]
    fn invalid_model_rejected_via_library_validation() {
        // Drift too small for the grid: surfaced as an analysis error.
        let e = parse(&argv(
            "analyze --refinement 1 --drift-mean 1e-6 --drift-dev 1e-5",
        ))
        .unwrap_err();
        assert!(matches!(e, CliError::Analysis(_)));
    }

    #[test]
    fn config_file_is_spliced_and_overridable() {
        let dir = std::env::temp_dir();
        let path = dir.join("stochcdr_cli_test.cfg");
        std::fs::write(
            &path,
            "# a comment\n--phases 4 --counter 16\n--sigma-nw 0.1\n",
        )
        .unwrap();
        let p = parse(&argv(&format!(
            "analyze --config {} --counter 6",
            path.display()
        )))
        .unwrap();
        assert_eq!(p.options.config.phases, 4); // from file
        assert_eq!(p.options.config.counter_len, 6); // CLI overrides file
        assert_eq!(p.options.config.white.sigma_ui, 0.1);
        std::fs::remove_file(&path).ok();
        // Missing file is a clean error.
        assert!(matches!(
            parse(&argv("analyze --config /no/such/file")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn metrics_format_requires_a_destination() {
        // JSONL is the one metrics format: naming a destination with
        // `--metrics PATH` selects it, and no flag picks a format.
        assert_eq!(parse(&argv("analyze")).unwrap().options.metrics, None);
        let p = parse(&argv("analyze --metrics m.jsonl")).unwrap();
        assert_eq!(p.options.metrics.as_deref(), Some("m.jsonl"));
        assert!(matches!(
            parse(&argv("analyze --metrics")),
            Err(CliError::MissingValue(_))
        ));
        for bad in [
            "analyze --metrics-format jsonl",
            "analyze --metrics m.jsonl --metrics-format jsonl",
        ] {
            let e = parse(&argv(bad)).unwrap_err();
            assert!(matches!(e, CliError::UnknownFlag(_)), "{bad}: {e:?}");
        }
        assert!(usage().contains("--metrics PATH"));
        assert!(!usage().contains("--metrics-format"));
    }

    #[test]
    fn trace_flag_and_report_command_parse() {
        let p = parse(&argv("analyze --trace out.json")).unwrap();
        assert_eq!(p.options.trace.as_deref(), Some("out.json"));
        assert_eq!(parse(&argv("analyze")).unwrap().options.trace, None);
        let p = parse(&argv("report --in m.jsonl")).unwrap();
        assert_eq!(p.command, "report");
        assert_eq!(
            p.options.extra.get("in").map(String::as_str),
            Some("m.jsonl")
        );
        assert!(usage().contains("--trace"));
        assert!(usage().contains("report"));
    }

    #[test]
    fn diff_command_parses_with_artifact_flags() {
        let p = parse(&argv(
            "diff --baseline a.jsonl --fresh b.jsonl --rel-tol 0.2",
        ))
        .unwrap();
        assert_eq!(p.command, "diff");
        assert_eq!(
            p.options.extra.get("baseline").map(String::as_str),
            Some("a.jsonl")
        );
        assert_eq!(
            p.options.extra.get("fresh").map(String::as_str),
            Some("b.jsonl")
        );
        assert!(usage().contains("diff"));
    }

    #[test]
    fn progress_flag_parses_on_off_and_seconds() {
        assert_eq!(parse(&argv("analyze")).unwrap().options.progress, None);
        assert_eq!(
            parse(&argv("analyze --progress off"))
                .unwrap()
                .options
                .progress,
            None
        );
        assert_eq!(
            parse(&argv("analyze --progress on"))
                .unwrap()
                .options
                .progress,
            Some(DEFAULT_PROGRESS_SECS)
        );
        assert_eq!(
            parse(&argv("analyze --progress 0.25"))
                .unwrap()
                .options
                .progress,
            Some(0.25)
        );
        for bad in ["0", "-1", "soon", "inf"] {
            assert!(
                matches!(
                    parse(&argv(&format!("analyze --progress {bad}"))),
                    Err(CliError::BadValue { .. })
                ),
                "--progress {bad} should be rejected"
            );
        }
        assert!(usage().contains("--progress"));
    }

    #[test]
    fn help_is_supported() {
        let p = parse(&argv("--help")).unwrap();
        assert_eq!(p.command, "help");
        assert!(usage().contains("bathtub"));
    }
}
