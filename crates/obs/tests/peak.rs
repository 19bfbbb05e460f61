//! The tracking allocator's high-water mark ([`mem::peak_bytes`]).
//!
//! The peak is process-wide: a thread that frees memory between the
//! reset and the test's 1 MiB allocation hides part of the ratchet. In a
//! binary shared with other tests that happens whenever another test's
//! thread exits in that window, so this binary holds a single test.

use stochcdr_obs::mem;

#[global_allocator]
static GLOBAL: mem::TrackingAlloc = mem::TrackingAlloc::new();

/// Peak-tracking and reset: the high-water mark ratchets over a large
/// transient allocation and resets back down to the live size.
#[test]
fn peak_tracking_ratchets_and_resets() {
    mem::reset_peak();
    let before = mem::peak_bytes();
    {
        let big = vec![0u8; 1 << 20];
        std::hint::black_box(&big);
        assert!(
            mem::peak_bytes() >= before + (1 << 20),
            "peak did not ratchet over a 1 MiB transient"
        );
    }
    mem::reset_peak();
    assert!(
        mem::peak_bytes() < before + (1 << 20),
        "reset_peak left the old high-water mark"
    );
}
