//! Integration test for the heartbeat: throttled `solve.progress`
//! events round-trip through the JSONL artifact, and a disarmed
//! heartbeat leaves no trace.
//!
//! The recorder and the heartbeat configuration are process-wide
//! singletons, so this binary holds a single `#[test]`.

use std::time::Duration;

use stochcdr_obs as obs;
use stochcdr_obs::artifact::Artifact;

#[test]
fn heartbeat_round_trips_through_the_artifact() {
    let _ = obs::uninstall();
    let (sink, buf) = obs::JsonLinesSink::to_shared_buffer();
    obs::install(Box::new(sink));
    obs::heartbeat::configure(Some(Duration::from_millis(1)), false);
    let hb = obs::Heartbeat::new("test-solve");
    obs::heartbeat::configure(None, false);
    assert!(hb.active());
    for it in 1..=200u64 {
        hb.tick_solve(it, 1.0 / it as f64, Some(0.5), 1e-12);
        if hb.emitted() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(hb.emitted() >= 1, "heartbeat never became due");
    obs::uninstall();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let art = Artifact::load_jsonl(&text).expect("valid artifact");
    assert_eq!(
        art.events.get("solve.progress").copied(),
        Some(hb.emitted()),
        "every emission lands as one solve.progress event"
    );

    // A disarmed heartbeat (the default) must leave no trace at all.
    let (sink, buf) = obs::JsonLinesSink::to_shared_buffer();
    obs::install(Box::new(sink));
    let quiet = obs::Heartbeat::new("quiet");
    for it in 1..=100u64 {
        quiet.tick_solve(it, 1.0, Some(0.5), 1e-12);
        quiet.tick_unit(100);
    }
    obs::uninstall();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let art = Artifact::load_jsonl(&text).expect("valid artifact");
    assert!(art.events.is_empty(), "{:?}", art.events);
}
