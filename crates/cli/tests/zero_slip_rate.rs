//! A loop whose stationary slip rate is exactly zero never slips: the
//! `analyze` and `slip` reports must say so (an infinite mean time
//! between slips) and still print everything else, instead of failing
//! after a successful solve.

use stochcdr_cli::run;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// A dead zone of UI/4 that the drift alone never carries the phase
/// across: every state that can wrap holds exactly zero stationary mass.
const NEVER_SLIPS: &str = "--refinement 16 --counter 2 --dead-zone 32 --sigma-nw 0.01 \
                           --drift-mean 0 --drift-dev 8e-3";

const INF_MTBS: &str = "inf (stationary slip rate is zero)";

#[test]
fn zero_slip_rate_reports_infinite_mtbs() {
    let analyze = run(&argv(&format!("analyze {NEVER_SLIPS}"))).unwrap();
    assert!(analyze.contains("BER: "), "{analyze}");
    assert!(
        analyze.contains(&format!("mean time between cycle slips: {INF_MTBS}")),
        "{analyze}"
    );

    let slip = run(&argv(&format!("slip {NEVER_SLIPS}"))).unwrap();
    assert!(slip.contains("BER "), "{slip}");
    assert!(
        slip.contains(&format!("mean time between slips     : {INF_MTBS}")),
        "{slip}"
    );
    assert!(slip.contains("first slip from lock"), "{slip}");
}
