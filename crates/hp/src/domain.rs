//! A reclamation domain: the global hazard-slot list plus orphaned garbage.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use smr_common::Retired;

use crate::hazard::{HazardList, HazardPointer};
use crate::thread::Thread;

/// The global side of an HP instance.
///
/// Data structures sharing a domain share hazard slots and scans; the
/// process-wide [`default_domain`] is what applications normally use.
pub struct Domain {
    pub(crate) hazards: HazardList,
    /// Retired nodes abandoned by exited threads; adopted by reclaimers.
    orphans: Mutex<Vec<Retired>>,
    /// Number of entries in `orphans`, maintained under the lock. Lets the
    /// reclaim hot path skip the mutex entirely in the common no-orphans
    /// case: exited threads are rare, reclaims are not.
    orphan_count: AtomicUsize,
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an independent domain (tests; benchmarks isolating schemes).
    pub const fn new() -> Self {
        Self {
            hazards: HazardList::new(),
            orphans: Mutex::new(Vec::new()),
            orphan_count: AtomicUsize::new(0),
        }
    }

    /// Registers the current thread.
    pub fn register(&'static self) -> Thread {
        Thread::new(self)
    }

    /// Acquires a hazard slot directly from the domain.
    ///
    /// Prefer [`Thread::hazard_pointer`], which caches released slots.
    pub fn hazard_pointer(&'static self) -> HazardPointer {
        HazardPointer::from_slot(self.hazards.acquire())
    }

    /// Snapshot of every currently announced pointer (unsorted).
    pub fn protected_words(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.hazards.collect_protected(&mut v);
        v
    }

    /// Number of hazard slots allocated so far (O(1)).
    pub fn slot_capacity(&self) -> usize {
        self.hazards.capacity()
    }

    /// Number of orphaned retired nodes awaiting adoption (diagnostics).
    pub fn orphan_count(&self) -> usize {
        self.orphan_count.load(Ordering::Relaxed)
    }

    /// Donates a dying thread's leftover garbage to the orphan list.
    pub(crate) fn donate_orphans(&self, leftovers: &mut Vec<Retired>) {
        if leftovers.is_empty() {
            return;
        }
        let mut orphans = self.orphans.lock();
        orphans.append(leftovers);
        self.orphan_count.store(orphans.len(), Ordering::Release);
    }

    /// Moves any orphaned garbage into `into`.
    ///
    /// Fast path: a single relaxed load when the orphan list is empty — no
    /// lock, no allocation. Contention on the lock is tolerated by giving
    /// up (`try_lock`); another reclaimer is already adopting.
    pub(crate) fn adopt_orphans(&self, into: &mut Vec<Retired>) {
        if self.orphan_count.load(Ordering::Acquire) == 0 {
            return;
        }
        if let Some(mut orphans) = self.orphans.try_lock() {
            into.append(&mut orphans);
            self.orphan_count.store(0, Ordering::Release);
        }
    }
}

/// The process-wide default domain.
pub fn default_domain() -> &'static Domain {
    static DEFAULT: Domain = Domain::new();
    &DEFAULT
}
