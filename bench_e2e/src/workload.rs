//! The benchmark workloads: inputs generated from the seed, one "answer"
//! per workload (configuration → BER, the densities of `Φ` and `Φ + n_w`,
//! and the mean time between cycle slips), and the checks that decide
//! whether an answer counts.
//!
//! Every call into the library goes through its public entry points
//! (`CdrModel::build_chain`, `CdrChain::analyze_with_tol`,
//! `ProductChain::solve_implicit`, `stochcdr_sweep::run_map`), timed from
//! outside and wrapped in `bench.*` spans for the traced pass.

use std::sync::Mutex;
use std::time::Instant;

use stochcdr::cycle_slip::mean_time_between_slips;
use stochcdr::{CdrAnalysis, CdrChain, CdrConfig, CdrModel, MgPhases, SolverChoice};
use stochcdr_linalg::TransitionOp;
use stochcdr_obs as obs;
use stochcdr_sweep::{run_map, FactorCache, PointCtx, SweepAxis, SweepSpec};

use crate::stats::{checksum, SplitMix64};

/// A benchmark workload. The first four are the benchmark; `Accept1m6`
/// (the 1.6M-state two-lane acceptance run, ~7 min) runs only on request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ref8k,
    Stiff128,
    Sweep64,
    Implicit65k,
    Accept1m6,
}

impl Workload {
    /// The workloads a full run (and `BENCHMARK.json`) covers.
    pub const BENCHMARKED: [Workload; 4] = [
        Workload::Ref8k,
        Workload::Stiff128,
        Workload::Sweep64,
        Workload::Implicit65k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ref8k => "ref8k",
            Workload::Stiff128 => "stiff128",
            Workload::Sweep64 => "sweep64",
            Workload::Implicit65k => "implicit65k",
            Workload::Accept1m6 => "accept1m6",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::BENCHMARKED
            .into_iter()
            .chain([Workload::Accept1m6])
            .find(|w| w.name() == name)
    }

    /// Residual tolerance of every solve in the workload.
    pub fn tol(self) -> f64 {
        match self {
            Workload::Ref8k | Workload::Stiff128 => 1e-12,
            _ => 1e-10,
        }
    }

    /// Solver and solve path, for the run fingerprint.
    pub fn path(self) -> (&'static str, &'static str) {
        match self {
            Workload::Ref8k | Workload::Stiff128 => ("mg", "materialized"),
            Workload::Sweep64 => ("mg", "sweep-warm"),
            Workload::Implicit65k | Workload::Accept1m6 => ("product-v-krylov12", "implicit"),
        }
    }

    /// Timed units a run needs at least, whatever `--seconds` says: two
    /// implicit answers, so `setup_s` is a median of more than one sample.
    pub fn min_units(self) -> usize {
        match self {
            Workload::Implicit65k => 2,
            _ => 1,
        }
    }
}

/// Relative size of the seeded perturbation of `σ(n_w)` and the drift
/// mean. At ±2% the implicit lane's noise support grows for some seeds
/// (4,028 → 4,324 stored entries, +15% dense work); ±1% keeps every
/// workload's sparsity within 0.5% of the unperturbed chain.
const PERTURB: f64 = 0.01;

/// Every workload's configuration, generated from one seed. Grid sizes,
/// counter lengths, dead zone and lane count are fixed so each workload
/// keeps its layer mix; the seed moves only noise levels and the sweep's
/// ppm grid.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub seed: u64,
    /// The Fig-5 operating point at refinement 32.
    pub reference: CdrConfig,
    /// The dead-zone chain: dead zone UI/4, refinement 128.
    pub stiff: CdrConfig,
    /// Base point of the 64-point drift-ppm sweep.
    pub sweep_base: CdrConfig,
    pub sweep_ppm: Vec<f64>,
    /// One lane of the 65,536-state two-lane product.
    pub lane: CdrConfig,
    /// One lane of the 1,612,900-state two-lane product.
    pub lane_1m6: CdrConfig,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        // Fixed draw order: each workload's inputs depend on the seed
        // alone, never on which workloads a run includes.
        let mut rng = SplitMix64::new(seed);
        let u: [f64; 8] = std::array::from_fn(|_| rng.symmetric());
        let jitter = |x: f64, u: f64| x * (1.0 + PERTURB * u);
        let fig5 = |refinement: usize, counter: usize, sigma: f64, drift: f64, dev: f64| {
            CdrConfig::builder()
                .phases(8)
                .grid_refinement(refinement)
                .counter_len(counter)
                .white_sigma_ui(sigma)
                .drift(drift, dev)
        };
        let reference = fig5(32, 8, jitter(0.05, u[0]), jitter(2e-3, u[1]), 8e-3)
            .build()
            .expect("reference config");
        let stiff = fig5(128, 8, jitter(0.01, u[2]), jitter(2e-4, u[3]), 2e-3)
            .dead_zone_bins(2 * 128)
            .build()
            .expect("stiff config");
        let sweep_base = fig5(32, 8, jitter(0.05, u[4]), 2e-3, 9e-3)
            .build()
            .expect("sweep config");
        let shift = 10.0 * u[5];
        let sweep_ppm = (0..64).map(|i| 2000.0 + shift + 10.0 * i as f64).collect();
        // The refinement-2 lane needs a coarse-grid drift to stay
        // resolvable; the refinement-8 lane takes the Fig-5 drift.
        let lane = fig5(2, 4, jitter(0.05, u[6]), jitter(2e-2, u[7]), 8e-2)
            .build()
            .expect("lane config");
        let lane_1m6 = fig5(8, 5, jitter(0.05, u[6]), jitter(2e-3, u[7]), 8e-3)
            .build()
            .expect("1.6M lane config");
        Inputs {
            seed,
            reference,
            stiff,
            sweep_base,
            sweep_ppm,
            lane,
            lane_1m6,
        }
    }

    pub fn sweep_spec(&self) -> SweepSpec {
        SweepSpec::new(self.sweep_base.clone())
            .axis(SweepAxis::DriftPpm(self.sweep_ppm.clone()))
            .solver(SolverChoice::Multigrid)
            .tol(Workload::Sweep64.tol())
    }
}

/// One answer: wall time split by layer, solver counts and what the
/// checks need to know.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub wall_s: f64,
    /// Chain formation (lane build + `replicate` on the product).
    pub form_s: f64,
    /// BER, densities and MTBS (on sweep64, the rest of the point's wall
    /// time: the engine assembles the measures internally).
    pub measures_s: f64,
    pub phases: MgPhases,
    pub cycles: usize,
    pub cycle_equivalents: f64,
    pub warm: bool,
    pub states: usize,
    pub nnz: usize,
    pub ber: f64,
    pub checksum: u64,
    /// Why the answer does not count, if it does not.
    pub error: Option<String>,
}

impl Answer {
    /// Time before the first cycle: formation plus multigrid setup.
    pub fn setup_s(&self) -> f64 {
        self.form_s + self.phases.setup_secs
    }

    fn failed(error: String, wall_s: f64) -> Answer {
        Answer {
            wall_s,
            error: Some(error),
            ..Answer::default()
        }
    }
}

/// One timed unit: a single answer, or on sweep64 one whole sweep.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub answers: Vec<Answer>,
    pub wall_s: f64,
    /// Net heap high-water of the unit: `peak_bytes()` after
    /// `reset_peak()`, minus the live bytes at the reset.
    pub peak_heap_bytes: u64,
    /// Factor-cache `(hits, accesses)` of a sweep.
    pub cache: Option<(u64, u64)>,
}

/// Mean time between slips; a chain whose stationary slip rate is
/// exactly zero never slips, which is an answer (`inf`), not a failure.
fn slip_time(chain: &CdrChain, pi: &[f64]) -> Result<f64, String> {
    match mean_time_between_slips(chain, pi) {
        Ok(t) if t.is_finite() && t > 0.0 => Ok(t),
        Ok(t) => Err(format!("MTBS {t} is not a positive time")),
        Err(e) => {
            let rate: f64 = pi.iter().zip(chain.wrap_prob()).map(|(p, w)| p * w).sum();
            if rate == 0.0 {
                Ok(f64::INFINITY)
            } else {
                Err(format!("MTBS: {e}"))
            }
        }
    }
}

/// The per-answer checks. `residual` is recomputed by the caller from
/// the returned distribution, never taken from the solver's report.
pub fn check_answer(
    pi: &[f64],
    residual: f64,
    tol: f64,
    ber: f64,
    masses: [f64; 2],
) -> Result<(), String> {
    if residual.is_nan() || residual > tol * 1.01 {
        return Err(format!("residual {residual:e} above tol {tol:e}"));
    }
    if let Some(i) = pi.iter().position(|p| !p.is_finite() || *p < 0.0) {
        return Err(format!("pi[{i}] = {} is not a probability", pi[i]));
    }
    let total: f64 = pi.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(format!("pi sums to {total}"));
    }
    if !(0.0..=0.5).contains(&ber) {
        return Err(format!("BER {ber} outside [0, 1/2]"));
    }
    for mass in masses {
        if (mass - 1.0).abs() > 1e-9 {
            return Err(format!("density mass {mass} != 1"));
        }
    }
    Ok(())
}

fn analysis_checks(pi: &[f64], residual: f64, tol: f64, a: &CdrAnalysis) -> Result<(), String> {
    check_answer(
        pi,
        residual,
        tol,
        a.ber,
        [a.phi_density.total_mass(), a.pd_input_density.total_mass()],
    )
}

/// `‖x·P − x‖₁` through the operator itself.
pub fn op_residual(op: &dyn TransitionOp, x: &[f64]) -> f64 {
    let mut y = vec![0.0; x.len()];
    op.mul_left_into(x, &mut y);
    y.iter().zip(x).map(|(a, b)| (a - b).abs()).sum()
}

/// `‖π − π_lane ⊗ π_lane‖₁` for a two-lane product (lane 0 outermost).
pub fn product_distance(pi: &[f64], lane: &[f64]) -> f64 {
    let n = lane.len();
    pi.iter()
        .enumerate()
        .map(|(k, p)| (p - lane[k / n] * lane[k % n]).abs())
        .sum()
}

/// Lane-0 marginal of a two-lane product distribution.
fn lane_marginal(pi: &[f64], n: usize) -> Vec<f64> {
    pi.chunks(n).map(|row| row.iter().sum()).collect()
}

/// Runs one workload's units and checks each against the first
/// repetition of the same configuration.
pub struct Session<'a> {
    pub workload: Workload,
    inputs: &'a Inputs,
    /// Checksum of each answer slot's first repetition.
    checksums: Vec<Option<u64>>,
    /// The GTH lane distribution the product answers are checked against.
    lane_reference: Option<Vec<f64>>,
}

impl<'a> Session<'a> {
    pub fn new(workload: Workload, inputs: &'a Inputs) -> Session<'a> {
        let lane_reference = match workload {
            Workload::Implicit65k | Workload::Accept1m6 => {
                let chain = CdrModel::new(lane_config(workload, inputs).clone())
                    .build_chain()
                    .expect("lane chain");
                let a = chain
                    .analyze(SolverChoice::Direct)
                    .expect("GTH lane reference");
                Some(a.stationary)
            }
            _ => None,
        };
        Session {
            workload,
            inputs,
            checksums: Vec::new(),
            lane_reference,
        }
    }

    /// Runs one unit and checks every answer in it.
    pub fn unit(&mut self) -> Unit {
        obs::mem::reset_peak();
        let base = obs::mem::live_bytes();
        let tol = self.workload.tol();
        let mut unit = match self.workload {
            Workload::Ref8k => self.chain_unit(&self.inputs.reference, tol),
            Workload::Stiff128 => self.chain_unit(&self.inputs.stiff, tol),
            Workload::Sweep64 => self.sweep_unit(tol),
            Workload::Implicit65k | Workload::Accept1m6 => {
                self.product_unit(lane_config(self.workload, self.inputs), tol)
            }
        };
        unit.peak_heap_bytes = unit.peak_heap_bytes.saturating_sub(base);
        check_repetitions(&mut self.checksums, &mut unit.answers);
        unit
    }

    fn chain_unit(&self, config: &CdrConfig, tol: f64) -> Unit {
        let t0 = Instant::now();
        let span = obs::span("bench.answer");
        let chain = {
            let _s = obs::span("bench.build_chain");
            CdrModel::new(config.clone()).build_chain()
        };
        let form_s = t0.elapsed().as_secs_f64();
        let chain = match chain {
            Ok(c) => c,
            Err(e) => return single(Answer::failed(format!("build_chain: {e}"), form_s)),
        };
        let t1 = Instant::now();
        let analysis = {
            let _s = obs::span("bench.analyze");
            chain.analyze_with_tol(SolverChoice::Multigrid, tol)
        };
        let analyze_s = t1.elapsed().as_secs_f64();
        let a = match analysis {
            Ok(a) => a,
            Err(e) => {
                return single(Answer::failed(
                    format!("analyze: {e}"),
                    t0.elapsed().as_secs_f64(),
                ))
            }
        };
        let t2 = Instant::now();
        let mtbs = {
            let _s = obs::span("bench.mtbs");
            slip_time(&chain, &a.stationary)
        };
        let mtbs_s = t2.elapsed().as_secs_f64();
        drop(span);
        let wall_s = t0.elapsed().as_secs_f64();
        let peak = obs::mem::peak_bytes();

        let residual = chain.tpm().stationary_residual(&a.stationary);
        let error = mtbs
            .and_then(|_| analysis_checks(&a.stationary, residual, tol, &a))
            .err();
        let answer = Answer {
            wall_s,
            form_s,
            measures_s: analyze_s - a.solve_time.as_secs_f64() + mtbs_s,
            phases: a.mg_phases.unwrap_or_default(),
            cycles: a.iterations,
            cycle_equivalents: a.mg_cycle_equivalents.unwrap_or(a.iterations as f64),
            warm: false,
            states: chain.state_count(),
            nnz: chain.nnz(),
            ber: a.ber,
            checksum: checksum(&a.stationary),
            error,
        };
        Unit {
            peak_heap_bytes: peak,
            ..single(answer)
        }
    }

    fn product_unit(&self, lane_config: &CdrConfig, tol: f64) -> Unit {
        let t0 = Instant::now();
        let span = obs::span("bench.answer");
        let formed = {
            let _s = obs::span("bench.build_chain");
            CdrModel::new(lane_config.clone())
                .build_chain()
                .and_then(|lane| lane.replicate(2).map(|p| (lane, p)))
        };
        let form_s = t0.elapsed().as_secs_f64();
        let (lane, product) = match formed {
            Ok(f) => f,
            Err(e) => return single(Answer::failed(format!("form: {e}"), form_s)),
        };
        let t1 = Instant::now();
        let solved = {
            let _s = obs::span("bench.solve_implicit");
            product.solve_implicit(tol)
        };
        let solve = match solved {
            Ok(s) => s,
            Err(e) => {
                return single(Answer::failed(
                    format!("solve_implicit: {e}"),
                    t0.elapsed().as_secs_f64(),
                ))
            }
        };
        let t2 = Instant::now();
        let (a, mtbs) = {
            let _s = obs::span("bench.measures");
            let pi = &solve.result.distribution;
            let a = lane.analysis_from_stationary(
                lane_marginal(pi, lane.state_count()),
                solve.result.iterations(),
                solve.result.residual(),
                t1.elapsed(),
                "multigrid",
            );
            let mtbs = slip_time(&lane, &a.stationary);
            (a, mtbs)
        };
        let measures_s = t2.elapsed().as_secs_f64();
        drop(span);
        let wall_s = t0.elapsed().as_secs_f64();
        let peak = obs::mem::peak_bytes();

        let pi = &solve.result.distribution;
        let residual = op_residual(product.operator(), pi);
        let reference = self.lane_reference.as_deref().expect("lane reference");
        let error = mtbs
            .and_then(|_| analysis_checks(pi, residual, tol, &a))
            .and_then(|()| match product_distance(pi, reference) {
                d if d <= 1e-6 => Ok(()),
                d => Err(format!("|pi - pi_lane x pi_lane|_1 = {d:e}")),
            })
            .err();
        let answer = Answer {
            wall_s,
            form_s,
            measures_s,
            phases: solve.stats.phases,
            cycles: solve.result.iterations(),
            cycle_equivalents: solve.stats.cycle_equivalents,
            warm: false,
            states: product.state_count(),
            nnz: product.compact_nnz(),
            ber: a.ber,
            checksum: checksum(pi),
            error,
        };
        Unit {
            peak_heap_bytes: peak,
            ..single(answer)
        }
    }

    fn sweep_unit(&self, tol: f64) -> Unit {
        let spec = self.inputs.sweep_spec();
        let cache = FactorCache::new();
        let t0 = Instant::now();
        // The engine runs the points one after another at one thread, so
        // a point's wall time runs from the previous point's hand-back to
        // the end of its own MTBS; the checks in between are excluded.
        let handed_back = Mutex::new(t0);
        let extract = |ctx: &PointCtx, chain: &CdrChain, a: &CdrAnalysis| {
            let mtbs = slip_time(chain, &a.stationary);
            let done = Instant::now();
            let start = *handed_back.lock().expect("stamp lock");
            let wall_s = (done - start).as_secs_f64();
            let residual = chain.tpm().stationary_residual(&a.stationary);
            let answer = Answer {
                wall_s,
                form_s: ctx.form_secs,
                measures_s: wall_s - ctx.form_secs - ctx.solve_secs,
                phases: a.mg_phases.unwrap_or_default(),
                cycles: a.iterations,
                cycle_equivalents: a.mg_cycle_equivalents.unwrap_or(a.iterations as f64),
                warm: ctx.warm_started,
                states: chain.state_count(),
                nnz: chain.nnz(),
                ber: a.ber,
                checksum: checksum(&a.stationary),
                error: mtbs
                    .and_then(|_| analysis_checks(&a.stationary, residual, tol, a))
                    .err(),
            };
            *handed_back.lock().expect("stamp lock") = Instant::now();
            Ok(answer)
        };
        let result = {
            let _s = obs::span("bench.sweep");
            run_map(&spec, &cache, &extract)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let peak = obs::mem::peak_bytes();
        let answers = result.unwrap_or_else(|e| {
            (0..spec.points())
                .map(|_| Answer::failed(format!("sweep: {e}"), wall_s / spec.points() as f64))
                .collect()
        });
        let stats = cache.stats();
        Unit {
            answers,
            wall_s,
            peak_heap_bytes: peak,
            cache: Some((stats.hits, stats.accesses())),
        }
    }

    /// Sweep64 only: the first and last points must match a cold
    /// `analyze_with_tol` BER to a relative 1e-6. Returns the failures.
    pub fn cold_check(&self, unit: &Unit) -> Vec<String> {
        let spec = self.inputs.sweep_spec();
        let mut failures = Vec::new();
        for flat in [0, spec.points() - 1] {
            let cold = spec
                .resolve(&spec.index_of(flat))
                .map_err(|e| e.to_string())
                .and_then(|(config, choice)| {
                    let chain = CdrModel::new(config)
                        .build_chain()
                        .map_err(|e| e.to_string())?;
                    chain
                        .analyze_with_tol(choice, spec.tol)
                        .map_err(|e| e.to_string())
                });
            let swept = unit.answers[flat].ber;
            match cold {
                Ok(a) if (a.ber - swept).abs() <= 1e-6 * a.ber.abs().max(swept.abs()) => {}
                Ok(a) => failures.push(format!(
                    "point {flat}: swept BER {swept:e} vs cold {:e}",
                    a.ber
                )),
                Err(e) => failures.push(format!("point {flat}: cold analyze: {e}")),
            }
        }
        failures
    }
}

/// Repetitions of a configuration must reproduce its first answer bit
/// for bit: the first passing answer in each slot sets the checksum,
/// later ones that differ fail.
fn check_repetitions(checksums: &mut Vec<Option<u64>>, answers: &mut [Answer]) {
    checksums.resize(checksums.len().max(answers.len()), None);
    for (slot, a) in checksums.iter_mut().zip(answers) {
        if a.error.is_some() {
            continue;
        }
        match slot {
            None => *slot = Some(a.checksum),
            Some(c) if *c != a.checksum => {
                a.error = Some(format!(
                    "pi checksum {:016x} differs from the first repetition's {c:016x}",
                    a.checksum
                ));
            }
            Some(_) => {}
        }
    }
}

fn lane_config(workload: Workload, inputs: &Inputs) -> &CdrConfig {
    match workload {
        Workload::Accept1m6 => &inputs.lane_1m6,
        _ => &inputs.lane,
    }
}

fn single(answer: Answer) -> Unit {
    Unit {
        wall_s: answer.wall_s,
        answers: vec![answer],
        ..Unit::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let (a, b) = (Inputs::from_seed(7), Inputs::from_seed(7));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Inputs::from_seed(8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        for inputs in [&a, &c] {
            let sigma = inputs.reference.white.sigma_ui;
            assert!((sigma / 0.05 - 1.0).abs() <= PERTURB, "sigma {sigma}");
            let shift = inputs.sweep_ppm[0] - 2000.0;
            assert!(shift.abs() <= 10.0, "ppm shift {shift}");
            assert_eq!(inputs.sweep_ppm.len(), 64);
        }
    }

    #[test]
    fn seed_one_pins_each_workloads_size() {
        let inputs = Inputs::from_seed(1);
        let size = |config: &CdrConfig| {
            let chain = CdrModel::new(config.clone()).build_chain().unwrap();
            (chain.state_count(), chain.nnz())
        };
        let lane = CdrModel::new(inputs.lane.clone()).build_chain().unwrap();
        let product = lane.replicate(2).unwrap();
        let sizes = [
            size(&inputs.reference),
            size(&inputs.stiff),
            size(&inputs.sweep_base),
            (product.state_count(), product.compact_nnz()),
            (product.materialized_nnz(), 0),
        ];
        assert_eq!(
            sizes,
            [
                (8116, 191_583),
                (24_368, 319_248),
                (8108, 190_589),
                (65_536, 8056),
                (16_224_784, 0),
            ]
        );
    }

    /// A tiny chain and its exact GTH answer, for corrupting.
    fn tiny() -> (CdrChain, CdrAnalysis) {
        let config = CdrConfig::builder()
            .phases(4)
            .grid_refinement(2)
            .counter_len(2)
            .white_sigma_ui(0.08)
            .drift(2e-2, 8e-2)
            .build()
            .unwrap();
        let chain = CdrModel::new(config).build_chain().unwrap();
        let a = chain.analyze(SolverChoice::Direct).unwrap();
        (chain, a)
    }

    fn verdict(chain: &CdrChain, pi: &[f64], a: &CdrAnalysis) -> Result<(), String> {
        let residual = chain.tpm().stationary_residual(pi);
        analysis_checks(pi, residual, 1e-10, a)
    }

    #[test]
    fn each_check_fails_on_a_corrupted_pi() {
        let (chain, a) = tiny();
        assert_eq!(verdict(&chain, &a.stationary, &a), Ok(()));

        // Mass moved between states: still a distribution, but no longer
        // stationary — only the recomputed residual catches it.
        let mut moved = a.stationary.clone();
        moved[0] += 1e-6;
        moved[1] -= 1e-6;
        assert!(verdict(&chain, &moved, &a)
            .unwrap_err()
            .contains("residual"));

        let mut negative = a.stationary.clone();
        negative[0] = -negative[0];
        assert!(analysis_checks(&negative, 0.0, 1e-10, &a)
            .unwrap_err()
            .contains("not a probability"));
        let mut nan = a.stationary.clone();
        nan[3] = f64::NAN;
        assert!(analysis_checks(&nan, 0.0, 1e-10, &a)
            .unwrap_err()
            .contains("not a probability"));
        let scaled: Vec<f64> = a.stationary.iter().map(|p| p * 1.5).collect();
        assert!(analysis_checks(&scaled, 0.0, 1e-10, &a)
            .unwrap_err()
            .contains("sums to"));

        let pi = &a.stationary;
        assert!(check_answer(pi, 0.0, 1e-10, 0.7, [1.0, 1.0])
            .unwrap_err()
            .contains("BER"));
        assert!(check_answer(pi, 0.0, 1e-10, f64::NAN, [1.0, 1.0]).is_err());
        assert!(check_answer(pi, 0.0, 1e-10, 0.1, [1.0, 0.9])
            .unwrap_err()
            .contains("mass"));
        assert!(check_answer(pi, f64::NAN, 1e-10, 0.1, [1.0, 1.0]).is_err());
    }

    #[test]
    fn product_checks_fail_on_a_corrupted_pi() {
        let (chain, a) = tiny();
        let lane = &a.stationary;
        let product = chain.replicate(2).unwrap();
        let pi: Vec<f64> = (0..lane.len() * lane.len())
            .map(|k| lane[k / lane.len()] * lane[k % lane.len()])
            .collect();
        assert!(product_distance(&pi, lane) < 1e-15);
        assert!(op_residual(product.operator(), &pi) < 1e-12);
        assert_eq!(lane_marginal(&pi, lane.len()).len(), lane.len());
        let mut moved = pi.clone();
        moved[0] += 1e-5;
        moved[1] -= 1e-5;
        assert!(product_distance(&moved, lane) > 1e-6);
        assert!(op_residual(product.operator(), &moved) > 1e-10);
    }

    #[test]
    fn zero_slip_rate_is_an_infinite_mtbs_not_a_failure() {
        let (chain, a) = tiny();
        assert!(slip_time(&chain, &a.stationary).unwrap().is_finite());
        // Put all mass on states that cannot wrap in one step.
        let mut pi = vec![0.0; chain.state_count()];
        let safe: Vec<usize> = (0..pi.len())
            .filter(|&s| chain.wrap_prob()[s] == 0.0)
            .collect();
        for &s in &safe {
            pi[s] = 1.0 / safe.len() as f64;
        }
        assert_eq!(slip_time(&chain, &pi), Ok(f64::INFINITY));
        assert!(
            slip_time(&chain, &pi[1..]).is_err(),
            "wrong length still fails"
        );
    }

    #[test]
    fn repetitions_must_reproduce_the_first_checksum() {
        let (chain, a) = tiny();
        let first = checksum(&a.stationary);
        let answer = |pi: &[f64]| Answer {
            checksum: checksum(pi),
            ..Answer::default()
        };
        let mut slots = Vec::new();
        let mut units = [vec![answer(&a.stationary)], vec![answer(&a.stationary)]];
        for answers in &mut units {
            check_repetitions(&mut slots, answers);
            assert_eq!(answers[0].error, None);
        }
        assert_eq!(slots, vec![Some(first)]);
        // One ulp in one entry is a different answer.
        let mut pi = a.stationary.clone();
        pi[chain.locked_state()] = f64::from_bits(pi[chain.locked_state()].to_bits() + 1);
        let mut corrupted = vec![answer(&pi)];
        check_repetitions(&mut slots, &mut corrupted);
        assert!(corrupted[0].error.as_deref().unwrap().contains("checksum"));
    }
}
