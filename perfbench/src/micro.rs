//! The scheme rungs of the ladder: tight loops over the public protect, pin
//! and retire calls, the same calls the repository's `micro_protect` and
//! `micro_reclaim` benches time. Each figure is the median of `REPS` runs.

use std::sync::atomic::Ordering::Acquire;
use std::time::Instant;

use smr_common::{Atomic, Shared};

use crate::Out;

const REPS: usize = 7;
const PROTECT_ITERS: u64 = 400_000;
const RETIRE_ITERS: u64 = 150_000;

fn per_op_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::median(&mut runs)
}

pub fn run(out: &mut Out) {
    {
        let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let atomic = Atomic::new(42u64);
        out.put(
            "hp.protect_ns",
            per_op_ns(PROTECT_ITERS, || {
                let p = atomic.load(Acquire);
                std::hint::black_box(slot.try_protect(p, &atomic).is_ok());
            }),
        );
        // SAFETY: the allocation was never shared with another thread and
        // the protecting slot is no longer read.
        unsafe { atomic.into_owned() };
    }
    {
        let domain: &'static hp_plus::Domain = Box::leak(Box::new(hp_plus::Domain::new()));
        let mut thread = domain.register();
        let slot = thread.hazard_pointer();
        let atomic = Atomic::new(42u64);
        out.put(
            "hp-plus.protect_ns",
            per_op_ns(PROTECT_ITERS, || {
                let mut p = atomic.load(Acquire).with_tag(0);
                std::hint::black_box(hp_plus::try_protect(&slot, &mut p, &atomic, || false));
            }),
        );
        // SAFETY: as above.
        unsafe { atomic.into_owned() };
    }
    {
        let collector: &'static ebr::Collector = Box::leak(Box::new(ebr::Collector::new()));
        let mut handle = collector.register();
        out.put(
            "ebr.pin_ns",
            per_op_ns(PROTECT_ITERS, || {
                std::hint::black_box(&handle.pin());
            }),
        );
        out.put(
            "ebr.defer_ns",
            per_op_ns(RETIRE_ITERS, || {
                let guard = handle.pin();
                // SAFETY: the node is fresh and never published.
                unsafe { guard.defer_destroy(Shared::from_owned(0u64)) };
            }),
        );
    }
    {
        let domain: &'static hyaline::Domain = Box::leak(Box::new(hyaline::Domain::new()));
        let mut handle = domain.register();
        out.put(
            "hyaline.pin_ns",
            per_op_ns(PROTECT_ITERS, || {
                std::hint::black_box(&handle.pin());
            }),
        );
        out.put(
            "hyaline.defer_ns",
            per_op_ns(RETIRE_ITERS, || {
                let guard = handle.pin();
                // SAFETY: the node is fresh and never published.
                unsafe { guard.defer_destroy(Shared::from_owned(0u64)) };
            }),
        );
    }
    {
        let domain: &'static hp::Domain = Box::leak(Box::new(hp::Domain::new()));
        let mut thread = domain.register();
        let _slot = thread.hazard_pointer();
        out.put(
            "hp.retire_ns",
            per_op_ns(RETIRE_ITERS, || {
                let p = Box::into_raw(Box::new(0u64));
                // SAFETY: the node is fresh and never published.
                unsafe { thread.retire(p) };
            }),
        );
    }
}
