//! **Monte-Carlo cross-check table** — validating the analysis and
//! demonstrating the paper's infeasibility argument.
//!
//! "Such specifications are practically impossible to verify through
//! straightforward simulation because of the extremely long sequence that
//! would need to be simulated."
//!
//! Part 1 runs the brute-force simulator at *high-BER* operating points,
//! where it can collect statistics, and checks the Markov-chain analysis
//! against its confidence interval (the two share one probability space).
//! Part 2 tabulates how many symbols Monte-Carlo would need at the
//! low-BER operating points the analysis resolves instantly.
//!
//! The simulator's seeds are fixed, so the whole table is deterministic.
//! With `--check`, the output is diffed against
//! `results/tab_mc_crosscheck.txt` instead of printed.

use std::fmt::Write as _;

use stochcdr::monte_carlo::{McResult, MonteCarlo};
use stochcdr::{CdrConfig, CdrModel, PhaseDetector, SolverChoice};
use stochcdr_bench::golden;
use stochcdr_markov::poisson::asymptotic_variance;

fn main() {
    golden::print_or_check("tab_mc_crosscheck", &render());
}

fn render() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Part 1: MC vs analysis at measurable BER ===\n");
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>22} {:>10} {:>8} {:>10}",
        "sigma_nw", "analysis BER", "MC BER (95% CI)", "TV(phase)", "agree?", "corr x"
    );
    let symbols = 2_000_000u64;
    for sigma in [0.12, 0.16, 0.20] {
        let config = CdrConfig::builder()
            .phases(8)
            .grid_refinement(8)
            .counter_len(8)
            .white_sigma_ui(sigma)
            .drift(4e-3, 1.2e-2)
            .build()
            .expect("config");
        let chain = CdrModel::new(config.clone()).build_chain().expect("chain");
        let a = chain.analyze(SolverChoice::Multigrid).expect("analysis");
        let mc = MonteCarlo::new(config);
        let r = mc.run(symbols, 2026);
        let tv = mc.validate_against(&chain, &a.stationary, 500_000, 7);
        let agree = (r.ber - a.ber_discrete).abs() <= 3.0 * r.ber_ci95 + 0.02 * a.ber_discrete;
        // Correlation inflation of the MC estimator: the per-symbol error
        // indicator has conditional mean f(state); its time-average variance
        // is the chain variance of f (Poisson equation) plus the Bernoulli
        // part. The ratio to the iid binomial variance is the factor by
        // which naive confidence intervals are too optimistic.
        let cfg2 = chain.config();
        let nw = PhaseDetector::new(cfg2).nw().clone();
        let half = (cfg2.m_bins() / 2) as i32;
        let f: Vec<f64> = (0..chain.state_count())
            .map(|s| {
                let o = chain.phase_offset_of(s) as i32;
                nw.prob_gt(half - o) + nw.prob_lt(-half - o)
            })
            .collect();
        let chain_var = asymptotic_variance(chain.tpm(), &a.stationary, &f).expect("variance");
        let bernoulli: f64 = a
            .stationary
            .iter()
            .zip(&f)
            .map(|(&e, &fi)| e * fi * (1.0 - fi))
            .sum();
        let iid = a.ber_discrete * (1.0 - a.ber_discrete);
        let inflation = (chain_var + bernoulli) / iid.max(1e-300);
        let _ = writeln!(
            out,
            "{:<10.2} {:>14.3e} {:>12.3e} ±{:>8.1e} {:>10.4} {:>8} {:>10.2}",
            sigma,
            a.ber_discrete,
            r.ber,
            r.ber_ci95,
            tv,
            if agree { "yes" } else { "NO" },
            inflation
        );
    }

    let _ = writeln!(
        out,
        "\n(corr x = variance inflation of MC time-averages from symbol-to-symbol\n\
         correlation, via the chain's Poisson equation — naive binomial CIs are\n\
         optimistic by this factor)"
    );

    let _ = writeln!(
        out,
        "\n=== Part 2: symbols required by MC (95% conf, 10% precision) ===\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>18} {:>24}",
        "target BER", "required symbols", "at 2.5 Gb/s"
    );
    for ber in [1e-4, 1e-7, 1e-10, 1e-14] {
        let n = McResult::required_symbols(ber, 0.1);
        let seconds = n / 2.5e9;
        let human = if seconds < 60.0 {
            format!("{seconds:.1} s")
        } else if seconds < 86_400.0 {
            format!("{:.1} hours", seconds / 3600.0)
        } else {
            format!("{:.1} years", seconds / (365.25 * 86_400.0))
        };
        let _ = writeln!(out, "{ber:<12.0e} {n:>18.2e} {human:>24}");
    }
    let _ = writeln!(
        out,
        "\nthe analysis method resolves every row above in seconds of CPU time, \
         independent of the BER magnitude — the paper's core argument."
    );
    out
}
