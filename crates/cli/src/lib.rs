//! Library backing the `stochcdr` command-line tool.
//!
//! The CLI wraps the workspace's analyses behind flag-driven subcommands so
//! a designer can evaluate a CDR configuration without writing Rust:
//!
//! ```text
//! stochcdr analyze  --sigma-nw 0.05 --drift-mean 2e-3 --counter 8
//! stochcdr sweep    --axes "counter=4,8,16"
//! stochcdr bathtub  --points 21
//! stochcdr slip
//! stochcdr acquire  --horizon 1000
//! stochcdr jitter   --max-lag 200
//! stochcdr spy      --size 64
//! stochcdr report   --in metrics.jsonl
//! stochcdr diff     --baseline a.jsonl --fresh b.jsonl
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy keeps
//! external crates to `rand`/`proptest`); the grammar is plain
//! `--flag value` pairs after a subcommand.

pub mod args;
pub mod commands;

pub use args::{CliError, Options, ParsedArgs};

use stochcdr_obs as obs;

/// Entry point shared by `main` and the tests: parses, dispatches, and
/// returns the text that should be printed.
///
/// With `--metrics PATH` the instrumentation layer is enabled for the
/// duration of the command and streams the JSONL metrics artifact to
/// `PATH` as records happen; `stochcdr report --in PATH` renders it as
/// a table. `--trace PATH` additionally (or independently) streams a
/// Chrome Trace Event file — both can be active at once through a
/// fan-out sink. `--progress` arms live heartbeat updates. All three
/// default off, and none of them changes a bit of the solve.
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands/flags, malformed values,
/// or analysis failures (each rendered with a usage hint).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = args::parse(argv)?;
    // `--threads N` overrides the STOCHCDR_THREADS env var; 0 keeps auto.
    if parsed.options.threads > 0 {
        stochcdr_linalg::par::set_threads(Some(parsed.options.threads));
    }
    // `--progress` (re)arms the heartbeat every run, including the
    // disarmed default, so a previous invocation's interval never leaks.
    obs::heartbeat::configure(
        parsed
            .options
            .progress
            .map(std::time::Duration::from_secs_f64),
        parsed.options.progress.is_some(),
    );
    let result = run_with_obs(&parsed);
    obs::heartbeat::configure(None, false);
    result
}

/// The body of [`run`] after the process-wide knobs are set: decides
/// whether the observability facade is needed, installs the sinks around
/// the dispatch, and tears them down again.
fn run_with_obs(parsed: &ParsedArgs) -> Result<String, CliError> {
    let opts = &parsed.options;
    if opts.metrics.is_none() && opts.trace.is_none() {
        // `--progress` alone needs no sink: the one-line status goes to
        // stderr directly and the events land on the disabled facade.
        return commands::dispatch(parsed);
    }

    let mut sinks: Vec<Box<dyn obs::Sink>> = Vec::new();
    if let Some(path) = &opts.trace {
        let sink = obs::ChromeTraceSink::to_file(path)
            .map_err(|e| CliError::Analysis(format!("cannot open trace file '{path}': {e}")))?;
        sinks.push(Box::new(sink));
    }
    if let Some(path) = &opts.metrics {
        let sink = obs::JsonLinesSink::to_file(path)
            .map_err(|e| CliError::Analysis(format!("cannot open metrics file '{path}': {e}")))?;
        sinks.push(Box::new(sink));
    }
    obs::install(Box::new(obs::MultiSink::new(sinks)));

    obs::gauge("cli.threads", stochcdr_linalg::par::threads() as f64);
    let result = commands::dispatch(parsed);
    // Memory gauges (live/peak heap, allocation count, peak RSS) describe
    // the whole command; publish them right before the sink detaches.
    obs::mem::publish();
    // Uninstall (which flushes the sinks) even on dispatch failure so the
    // global recorder never outlives the command that enabled it. A write
    // or flush error means the artifact is incomplete: report it unless
    // the command already failed.
    let write_error = obs::uninstall().and_then(|mut sink| sink.take_error());
    match (result, write_error) {
        (Ok(_), Some(e)) => Err(CliError::Analysis(e.to_string())),
        (result, _) => result,
    }
}
