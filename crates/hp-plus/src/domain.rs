//! An HP++ domain: an HP domain plus the global fence epoch of Algorithm 5.

use std::sync::atomic::{AtomicU64, Ordering};

use smr_common::fence;

use crate::thread::Thread;

/// The global side of an HP++ instance.
pub struct Domain {
    pub(crate) hp: hp::Domain,
    /// Algorithm 5's `fence_epoch`: numbers the periods delimited by heavy
    /// fences so threads can piggyback hazard revocation on each other's
    /// fences.
    pub(crate) fence_epoch: AtomicU64,
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an independent domain.
    pub const fn new() -> Self {
        Self {
            hp: hp::Domain::new(),
            fence_epoch: AtomicU64::new(0),
        }
    }

    /// Registers the current thread.
    pub fn register(&'static self) -> Thread {
        Thread::new(self)
    }

    /// The underlying HP domain (hybrid use, diagnostics).
    pub fn hp_domain(&'static self) -> &'static hp::Domain {
        &self.hp
    }

    /// Algorithm 5's `FenceEpoch`: issue a heavy fence and advance the
    /// global fence epoch past it.
    pub(crate) fn fence_epoch_step(&self) {
        let e = self.fence_epoch.load(Ordering::Acquire);
        fence::heavy();
        let _ = self
            .fence_epoch
            .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Algorithm 5's `ReadEpoch`: a light fence bracketed by two equal reads
    /// of the fence epoch, guaranteeing the returned epoch's period covers
    /// the fence.
    pub(crate) fn read_epoch(&self) -> u64 {
        let mut e = self.fence_epoch.load(Ordering::Acquire);
        loop {
            fence::light();
            let e2 = self.fence_epoch.load(Ordering::Acquire);
            if e == e2 {
                return e;
            }
            e = e2;
        }
    }

    /// Current fence epoch (tests/diagnostics).
    pub fn fence_epoch_now(&self) -> u64 {
        self.fence_epoch.load(Ordering::Relaxed)
    }
}

/// The process-wide default HP++ domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_epoch_advances() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let e0 = d.fence_epoch_now();
        d.fence_epoch_step();
        assert_eq!(d.fence_epoch_now(), e0 + 1);
        d.fence_epoch_step();
        assert_eq!(d.fence_epoch_now(), e0 + 2);
    }

    #[test]
    fn read_epoch_is_coherent() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        let e = d.read_epoch();
        assert_eq!(e, d.fence_epoch_now());
        d.fence_epoch_step();
        assert_eq!(d.read_epoch(), e + 1);
    }

    #[test]
    fn concurrent_fence_epoch_steps_make_progress() {
        let d: &'static Domain = Box::leak(Box::new(Domain::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        d.fence_epoch_step();
                    }
                });
            }
        });
        // CAS losers don't retry, so the epoch advances between 100 and 400.
        let e = d.fence_epoch_now();
        assert!((100..=400).contains(&e), "epoch = {e}");
    }
}
