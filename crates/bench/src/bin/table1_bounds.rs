//! Table 1 (measured column): unreclaimed-object bounds under a stalled
//! thread — the robustness experiment.
//!
//! One thread enters a critical section (or parks on validated hazard
//! pointers) and stalls; the remaining threads churn insert/remove. Robust
//! schemes (HP, HP++, PEBR-after-ejection) keep garbage bounded; EBR and NR
//! grow without bound.
//!
//! A [`GarbageWatchdog`] samples each run every 25 ms — progress token =
//! [`counters::total_freed`] (moves iff reclamation moves, for every
//! scheme) — and the final verdict column classifies the run as `healthy`,
//! `degraded-bounded`, or `growing-unbounded`.
//!
//! With `--quick` the churn window shrinks to 300 ms and the binary turns
//! into a CI gate: it exits non-zero if the HP or HP++ peak exceeds the
//! bound *derived from the schemes' published formulas* (Michael's
//! `k·H + threshold` per participant; HP++ adds its deferred-invalidation
//! batches). The EBR/PEBR rows stay informational — their failure modes are
//! asserted by `tests/robustness.rs`.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;

use smr_common::counters;
use smr_common::watchdog::{GarbageWatchdog, WatchdogStatus};
use smr_common::{ConcurrentMap, GuardedScheme};

/// Threads churning against the one staller.
const CHURNERS: usize = 3;

fn churn<M: ConcurrentMap<u64, u64> + Send + Sync>(map: &M, stop: &AtomicBool) {
    let mut h = map.handle();
    let mut k = 0u64;
    while !stop.load(Relaxed) {
        map.insert(&mut h, k % 64, k);
        map.remove(&mut h, &(k % 64));
        k += 1;
    }
}

struct Measured {
    garbage: usize,
    peak: usize,
    bound: usize,
    verdict: &'static str,
}

fn measure<M, F>(name: &str, window: Duration, bound: usize, stall: F) -> Measured
where
    M: ConcurrentMap<u64, u64> + Send + Sync,
    F: FnOnce(&M, &AtomicBool) + Send,
{
    let map = M::new();
    let stop = AtomicBool::new(false);
    let base = counters::garbage_now();
    // The stall window is a fraction of the run so a wedged scheme is
    // flagged within the window, not only at the final sample.
    let mut dog = GarbageWatchdog::new(bound, window / 4);
    let mut last = WatchdogStatus::Healthy;
    std::thread::scope(|s| {
        s.spawn(|| stall(&map, &stop));
        for _ in 0..CHURNERS {
            s.spawn(|| churn(&map, &stop));
        }
        let deadline = std::time::Instant::now() + window;
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
            let garbage = counters::garbage_now().saturating_sub(base) as usize;
            last = dog.observe(counters::total_freed(), garbage);
        }
        stop.store(true, Relaxed);
    });
    let garbage = counters::garbage_now().saturating_sub(base) as usize;
    let verdict = match last {
        WatchdogStatus::Healthy => "healthy",
        WatchdogStatus::DegradedBounded { .. } => "degraded-bounded",
        WatchdogStatus::GrowingUnbounded { .. } => "growing-unbounded",
    };
    let m = Measured {
        garbage,
        peak: dog.peak(),
        bound,
        verdict,
    };
    println!("{name},{},{},{},{}", m.garbage, m.peak, m.bound, m.verdict);
    m
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    let participants = CHURNERS + 1;

    println!(
        "# Table 1: unreclaimed blocks after {:?} of churn with one stalled thread",
        window
    );
    println!("scheme,unreclaimed_blocks,peak_unreclaimed,bound,watchdog");

    // Bounds derived from the published formulas, never hard-coded:
    // each participant's bag stays below max(threshold, k·H); 2x margin.
    let hp_slots = hp::default_domain().slot_capacity();
    let hp_bound = 2 * participants * (hp::reclaim_k() * hp_slots + hp::RECLAIM_THRESHOLD);
    let hpp_slots = hp_plus::default_domain().hp_domain().slot_capacity();
    let hpp_bound = 2
        * participants
        * (hp::reclaim_k() * hpp_slots + hp::RECLAIM_THRESHOLD + 2 * hp_plus::RECLAIM_PERIOD);
    // EBR has no bound; give the watchdog its collection trigger so a
    // stalled pin is classified as growth, not noise.
    let ebr_bound = 4 * ebr::default_collector().collect_threshold();
    let pebr_bound = 2 * participants * (pebr::EJECT_THRESHOLD + 2 * pebr::COLLECT_THRESHOLD);
    // Hyaline with a *cooperative* staller (crosses a critical-section
    // boundary each poll): bounded by batches-in-flight x handover
    // threshold, derived in `hyaline::garbage_bound`. Its non-cooperative
    // row grows like EBR's (CS-granularity protection — DESIGN.md §1.11)
    // and keeps the EBR-style watchdog trigger.
    let hyaline_coop_bound = hyaline::garbage_bound(participants);
    let hyaline_stall_bound = 4 * hyaline::trigger().threshold(participants);

    // EBR: the stalled thread holds a pin forever — unbounded growth.
    measure::<ds::guarded::HMList<u64, u64, ebr::Ebr>, _>(
        "ebr-stalled-pin",
        window,
        ebr_bound,
        |map, stop| {
            let mut h = map.handle();
            let _g = ebr::Ebr::pin(&mut h);
            while !stop.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        },
    );

    // PEBR, non-cooperative staller: our behavioral model only neutralizes
    // threads at their validate() points, so this matches EBR (documented
    // deviation from real PEBR — see DESIGN.md).
    measure::<ds::guarded::HMList<u64, u64, pebr::Pebr>, _>(
        "pebr-stalled-pin-noncooperative",
        window,
        pebr_bound,
        |map, stop| {
            let mut h = map.handle();
            let _g = pebr::Pebr::pin(&mut h);
            while !stop.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        },
    );

    // PEBR, cooperative staller: checks validate() like a slow reader
    // would; ejection lands and garbage stays bounded.
    measure::<ds::guarded::HMList<u64, u64, pebr::Pebr>, _>(
        "pebr-stalled-pin-cooperative",
        window,
        pebr_bound,
        |map, stop| {
            use smr_common::SchemeGuard;
            let mut h = map.handle();
            let mut g = pebr::Pebr::pin(&mut h);
            while !stop.load(Relaxed) {
                if !g.validate() {
                    g.refresh();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    );

    // Hyaline, non-cooperative staller: a validated critical section that
    // never leaves keeps a reference on every batch handed over while it is
    // active, so garbage grows like EBR's stalled pin (informational row;
    // the *mid-enter* staller is ejected and bounded — proven
    // deterministically by tests/fault_matrix.rs).
    measure::<ds::guarded::HMList<u64, u64, hyaline::Hyaline>, _>(
        "hyaline-stalled-pin-noncooperative",
        window,
        hyaline_stall_bound,
        |map, stop| {
            let mut h = map.handle();
            let _g = hyaline::Hyaline::pin(&mut h);
            while !stop.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        },
    );

    // Hyaline, cooperative staller: re-crosses its critical-section
    // boundary on every poll (hyaline's unit of cooperation is the CS
    // boundary, as validate() is PEBR's), so each handed-over batch waits
    // at most one poll plus the scheduler's whims; garbage stays near the
    // derived in-flight bound.
    let hyaline_run = measure::<ds::guarded::HMList<u64, u64, hyaline::Hyaline>, _>(
        "hyaline-stalled-pin-cooperative",
        window,
        hyaline_coop_bound,
        |map, stop| {
            use smr_common::SchemeGuard;
            let mut h = map.handle();
            let mut g = hyaline::Hyaline::pin(&mut h);
            while !stop.load(Relaxed) {
                g.refresh();
                std::thread::yield_now();
            }
        },
    );

    // HP: the stalled thread parks on a validated hazard pointer —
    // only the announced nodes stay unreclaimed.
    let hp_run = measure::<ds::hp::HMList<u64, u64>, _>(
        "hp-stalled-hazard",
        window,
        hp_bound,
        |map, stop| {
            let mut h = ConcurrentMap::handle(map);
            let _ = map.get(&mut h, &0);
            // Handle keeps its hazard slots; just stall without resetting them.
            while !stop.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(h);
        },
    );

    // HP++: same, plus frontier protections — still bounded.
    let hpp_run = measure::<ds::hpp::HHSList<u64, u64>, _>(
        "hp++-stalled-hazard",
        window,
        hpp_bound,
        |map, stop| {
            let mut h = ConcurrentMap::handle(map);
            let _ = map.get(&mut h, &0);
            while !stop.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(h);
        },
    );

    println!();
    println!("# Expectation (paper Table 1): EBR unbounded (grows with run time);");
    println!("# HP/HP++ O(hazards + thresholds); PEBR bounded after ejection;");
    println!("# hyaline bounded for any staller that keeps crossing CS boundaries");
    println!("# (non-cooperative validated stalls grow EBR-like — DESIGN.md §1.11).");

    if quick {
        let mut failed = false;
        for (name, m) in [("hp", &hp_run), ("hp++", &hpp_run)] {
            if m.peak > m.bound {
                eprintln!(
                    "BOUND VIOLATION: {name} peak unreclaimed {} exceeds derived bound {}",
                    m.peak, m.bound
                );
                failed = true;
            }
        }
        // Hyaline's formula bounds the *settled* state: hazard bounds hold
        // at every instant, but a handed-over batch legitimately floats
        // until the slots active at its handover leave, so the in-flight
        // peak scales with retire-rate x scheduler quantum — a host
        // property no scheme constant derives. The robustness claim is
        // that a cooperative staller never wedges reclamation: garbage
        // must settle back under the derived bound and the watchdog must
        // not classify the run as unbounded growth (EBR's verdict above).
        if hyaline_run.garbage > hyaline_run.bound {
            eprintln!(
                "BOUND VIOLATION: hyaline-cooperative settled at {} unreclaimed, derived bound {}",
                hyaline_run.garbage, hyaline_run.bound
            );
            failed = true;
        }
        if hyaline_run.verdict == "growing-unbounded" {
            eprintln!("BOUND VIOLATION: hyaline-cooperative classified as growing-unbounded");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("# --quick gate: HP/HP++ peaks and the hyaline cooperative settled");
        println!("# count within their derived bounds.");
    }
}
