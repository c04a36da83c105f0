//! Pins `counters::policy_scans_forced()` to the trigger: it counts one
//! scan each time a scheme's trigger fires, and nothing else.
//!
//! The counter is process-global, so this test lives alone in its own
//! test binary: no sibling test can move it between the two reads.

use smr_common::counters;

#[test]
fn hp_counts_one_scan_per_trigger_threshold() {
    // A fresh domain with no hazard slots acquired: every scan frees the
    // whole bag, so each run of `threshold` retires fires exactly once.
    let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
    let mut thread = domain.register();
    let threshold = hp::trigger().threshold(domain.slot_capacity());
    let before = counters::policy_scans_forced();
    for i in 0..3 * threshold {
        unsafe { thread.retire(Box::into_raw(Box::new(i as u64))) };
    }
    assert_eq!(counters::policy_scans_forced() - before, 3);
    assert_eq!(thread.retired_count(), 0, "every scan freed its bag");
}
