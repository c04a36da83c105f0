//! The global epoch state and per-thread registration.
//!
//! # Hot-path engineering (code-inspection notes)
//!
//! * **Pin/unpin executes no `SeqCst` fence and no atomic RMW.** `pin` is a
//!   relaxed store of the packed `(epoch << 1) | 1` state, a
//!   [`fence::light`] (a compiler fence when `membarrier(2)` is available),
//!   and a relaxed validating re-load of the global epoch; `unpin` is one
//!   release store. The matching [`fence::heavy`] sits in [`try_advance`],
//!   on the rare collection path — see the announce/observe protocol in
//!   `smr_common::fence`.
//! * **`try_advance` acquires no locks.** The participant registry is a
//!   lock-free intrusive list ([`smr_common::registry::Registry`]):
//!   registration CASes a node onto the head, unregistration marks the node
//!   dead with one `fetch_or`, and the advance check traverses the list
//!   lock-free, unlinking dead nodes as it passes. Unlinked registry nodes
//!   are retired *through EBR itself* — stamped with the current epoch and
//!   freed two epochs later, exactly like data-structure nodes, which is
//!   safe because every traverser is pinned.
//! * **Garbage lives in sealed generation bags** (`bags.rs`): a collection
//!   compares three stamps and frees whole expired bags without
//!   re-examining ineligible items.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use smr_common::registry::{Node, Registry};
use smr_common::{counters, fence as smr_fence, CachePadded, Retired};

use crate::bags::GenBags;
use crate::guard::Guard;

/// Default retire count that triggers a collection attempt
/// (`EBR_COLLECT_THRESHOLD` overrides).
const DEFAULT_COLLECT_THRESHOLD: usize = 128;

/// Per-participant retires per collection attempt scale with the number of
/// registered threads: each attempt traverses the whole registry, so the
/// trigger grows as `k · participants` to keep the traversal cost per
/// retire O(k⁻¹) — the epoch analogue of HP's `R = k·H` rule.
const COLLECT_K: usize = 8;

/// The collection trigger's fixed floor: `max(floor, k · participants)`.
fn collect_threshold_floor() -> usize {
    static FLOOR: OnceLock<usize> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        smr_common::env::parse_usize("EBR_COLLECT_THRESHOLD")
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_COLLECT_THRESHOLD)
    })
}

/// EBR's collection trigger:
/// `bags.len() ≥ max(EBR_COLLECT_THRESHOLD, 8 · participants)`, evaluated
/// on every deferred destroy.
#[inline]
pub fn trigger() -> smr_common::policy::Capped {
    smr_common::policy::Capped {
        floor: collect_threshold_floor(),
        k: COLLECT_K,
        period: 0,
    }
}

/// Per-participant epoch state. `state` packs `(epoch << 1) | pinned`.
///
/// Cache padding comes from the registry node (`#[repr(align(128))]`), so
/// two participants' states never share a line.
pub(crate) struct Participant {
    pub(crate) state: AtomicU64,
}

impl Participant {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn pinned_epoch(state: u64) -> Option<u64> {
        if state & 1 == 1 {
            Some(state >> 1)
        } else {
            None
        }
    }
}

/// The global side of an EBR instance.
pub struct Collector {
    pub(crate) epoch: CachePadded<AtomicU64>,
    /// Lock-free participant registry; one node per registered thread.
    pub(crate) registry: Registry<Participant>,
    /// Garbage abandoned by exited threads, adopted by later collections.
    orphans: Mutex<Vec<(u64, Retired)>>,
    /// Entry count of `orphans`, maintained under the lock. Lets collections
    /// skip the mutex entirely in the common no-orphans case.
    orphan_count: AtomicUsize,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates an independent collector (tests use private instances; real
    /// users normally share [`crate::default_collector`]).
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            registry: Registry::new(),
            orphans: Mutex::new(Vec::new()),
            orphan_count: AtomicUsize::new(0),
        }
    }

    /// Registers the current thread, returning its local handle.
    ///
    /// Requires a `'static` collector (the process-wide default, or a
    /// leaked test instance): participant records are linked into the
    /// collector's registry and reclaimed through the collector's own
    /// epochs, so a handle must be unable to outlive it.
    pub fn register(&'static self) -> LocalHandle {
        LocalHandle {
            global: self,
            record: self.registry.insert(Participant::new()),
            bags: GenBags::new(),
            guard_live: false,
        }
    }

    /// Current global epoch (for diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Number of currently registered participants (approximate).
    pub fn participants(&self) -> usize {
        self.registry.live()
    }

    /// Retire count at which a thread attempts a collection:
    /// `max(EBR_COLLECT_THRESHOLD, 8 · participants)`.
    ///
    /// Public so tests can derive garbage bounds from the same formula the
    /// scheme enforces instead of hard-coding magic constants.
    #[inline]
    pub fn collect_threshold(&self) -> usize {
        trigger().threshold(self.registry.live())
    }

    /// Tries to advance the global epoch; returns the epoch afterwards.
    ///
    /// Advance succeeds only if every live pinned participant has observed
    /// the current epoch. Lock-free: one heavy fence, one registry
    /// traversal, one CAS. Dead participants encountered on the way are
    /// unlinked and retired into `bags` (the caller's — the caller is
    /// pinned, so the registry node outlives every concurrent traverser).
    pub(crate) fn try_advance(&self, bags: &mut GenBags) -> u64 {
        let e = self.epoch.load(Ordering::Relaxed);
        // Observer side of the announce/observe protocol: after this fence,
        // every participant state store made before the announcer's light
        // fence is visible below.
        smr_fence::heavy();
        smr_common::fault_point!("ebr::advance::before_traverse");
        let all_observed = self.registry.traverse(
            |p| match Participant::pinned_epoch(p.state.load(Ordering::Relaxed)) {
                Some(pinned) => pinned == e,
                None => true,
            },
            |node| {
                counters::incr_garbage(1);
                // Safety: the node came from `Box::into_raw` in
                // `Registry::insert`, and `traverse` hands each unlinked
                // node out exactly once.
                bags.push(e, unsafe { Retired::new(node) });
            },
        );
        if !all_observed {
            return e; // a straggler blocks the advance
        }
        // Order the participant reads above before publishing the new epoch.
        fence(Ordering::Acquire);
        // A collector stalled here has verified every participant but not
        // yet published — no other thread advances for it, epochs wedge.
        smr_common::fault_point!("ebr::advance::before_publish");
        let _ = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed);
        self.epoch.load(Ordering::Relaxed)
    }

    /// Donates a dying thread's garbage to the orphan list.
    fn donate_orphans(&self, donated: &mut Vec<(u64, Retired)>) {
        if donated.is_empty() {
            return;
        }
        let mut orphans = self.orphans.lock();
        orphans.append(donated);
        self.orphan_count.store(orphans.len(), Ordering::Release);
    }

    /// Number of orphaned retired blocks awaiting adoption (diagnostics;
    /// the kv-service quarantine path records this as the settled garbage
    /// leaked with a dead shard's collector).
    pub fn orphan_count(&self) -> usize {
        self.orphan_count.load(Ordering::Acquire)
    }

    /// Takes the orphan list if any and uncontended.
    ///
    /// Fast path: a single load when there are no orphans — no lock. Lock
    /// contention is tolerated by giving up; another collector is already
    /// adopting.
    fn take_orphans(&self) -> Option<Vec<(u64, Retired)>> {
        if self.orphan_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut orphans = self.orphans.try_lock()?;
        self.orphan_count.store(0, Ordering::Release);
        Some(std::mem::take(&mut *orphans))
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Exclusive access, and `register` requires `'static`, so no handle
        // can be live: free whatever garbage was donated. (The registry
        // frees its own nodes.)
        for (_, retired) in self.orphans.get_mut().drain(..) {
            unsafe { retired.free() };
        }
    }
}

/// A thread's registration with a [`Collector`].
///
/// Not `Sync`: one handle per thread. Dropping the handle unregisters the
/// thread and donates any unreclaimed garbage to the collector's orphan list.
pub struct LocalHandle {
    pub(crate) global: &'static Collector,
    /// This thread's registry node; owned by the registry, valid for the
    /// handle's lifetime (only `Drop` marks it dead).
    record: *const Node<Participant>,
    /// Epoch-stamped local garbage in sealed generation bags.
    pub(crate) bags: GenBags,
    pub(crate) guard_live: bool,
}

// The handle is only a registration token plus thread-local garbage; the
// registry node it points to is Sync.
unsafe impl Send for LocalHandle {}

impl LocalHandle {
    #[inline]
    fn participant(&self) -> &Participant {
        // Valid: the node is unlinked only after `Drop` marks it dead, and
        // freed at least two epochs later.
        unsafe { (*self.record).data() }
    }

    /// Pins the thread, entering a critical section.
    pub fn pin(&mut self) -> Guard<'_> {
        assert!(!self.guard_live, "EBR guards must not be nested");
        self.pin_slow();
        self.guard_live = true;
        Guard::new(self)
    }

    /// The pin hot path: announce the observed epoch, light fence, validate
    /// that the epoch did not move. No `SeqCst` fence, no RMW.
    #[inline]
    pub(crate) fn pin_slow(&self) {
        let mut e = self.global.epoch.load(Ordering::Relaxed);
        loop {
            let state = &self.participant().state;
            let e2 = smr_fence::announce_then_validate(
                || {
                    state.store((e << 1) | 1, Ordering::Relaxed);
                    // The announce-to-validate window: a thread stalled here
                    // has announced an epoch every advancer must honor — the
                    // interleaving that wedges the global epoch (Table 1).
                    smr_common::fault_point!("ebr::pin::before_validate");
                },
                || self.global.epoch.load(Ordering::Relaxed),
            );
            if e == e2 {
                break;
            }
            e = e2;
        }
    }

    #[inline]
    pub(crate) fn unpin_slow(&self) {
        self.participant().state.store(0, Ordering::Release);
    }

    /// Number of blocks this thread has retired but not yet freed.
    pub fn local_garbage(&self) -> usize {
        self.bags.len()
    }

    /// Whether a deferred destroy should attempt a collection now
    /// ([`trigger`] fires).
    #[inline]
    pub(crate) fn should_collect(&self) -> bool {
        let fire = trigger().fires(self.bags.len(), self.global.registry.live(), 0);
        if fire {
            counters::incr_policy_scan_forced();
        }
        fire
    }

    /// Attempts an epoch advance and frees everything eligible.
    ///
    /// Must be called pinned (all callers hold a [`Guard`]): the registry
    /// traversal inside [`Collector::try_advance`] relies on it.
    pub(crate) fn collect(&mut self) {
        // Adopt orphans first so exited threads' garbage is not stranded.
        if let Some(orphans) = self.global.take_orphans() {
            let epoch = self.global.epoch.load(Ordering::Relaxed);
            for (stamp, retired) in orphans {
                if stamp + 2 <= epoch {
                    // Already expired; free without touching the bags.
                    unsafe { retired.free() };
                } else {
                    self.bags.push(stamp, retired);
                }
            }
        }
        smr_common::fault_point!("ebr::collect::after_adopt");
        let global_epoch = self.global.try_advance(&mut self.bags);
        self.bags.collect_expired(global_epoch);
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // Unregistration and donation must run even if teardown itself
        // panics (a dying worker must neither wedge the epoch nor strand
        // garbage), so both live in a guard that runs during unwinding too.
        struct Teardown<'a>(&'a mut LocalHandle);
        impl Drop for Teardown<'_> {
            fn drop(&mut self) {
                let h = &mut *self.0;
                // Mark the registry node dead first so a concurrent advance
                // is not blocked on a participant that no longer runs.
                unsafe { h.global.registry.delete(h.record) };
                if h.bags.len() > 0 {
                    let mut donated = Vec::new();
                    h.bags.drain_into(&mut donated);
                    h.global.donate_orphans(&mut donated);
                }
            }
        }
        let _g = Teardown(self);
        smr_common::fault_point!("ebr::teardown::before_donate");
    }
}
