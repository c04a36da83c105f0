//! Per-thread HP++ state: unlink batches, epoched hazard pointers,
//! deferred invalidation, reclamation (Algorithms 3 and 5).

use hp::HazardPointer;
use smr_common::{counters, Retired, Shared};

use crate::domain::Domain;
use crate::{periods, Invalidate};

/// How many pooled spill vectors a thread keeps per pool. Beyond this,
/// returned vectors are dropped: `try_unlink` bursts briefly needing many
/// in-flight batches must not turn into a permanent per-thread hoard.
const SPARE_POOL_CAP: usize = 8;

/// Spill vectors whose capacity ballooned past this are dropped instead of
/// pooled, so one pathological chain can't pin a large allocation forever.
const SPARE_VEC_MAX_CAPACITY: usize = 1024;

fn pool_take<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    pool.pop().unwrap_or_default()
}

fn pool_give<T>(pool: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    v.clear();
    if v.capacity() > 0 && v.capacity() <= SPARE_VEC_MAX_CAPACITY && pool.len() < SPARE_POOL_CAP {
        pool.push(v);
    }
}

/// Batch storage with two inline slots, spilling to a pooled `Vec` only for
/// longer chains. The common unlink frontier and detached chain are 1–2
/// nodes (every remove in the list structures; chain-node + pendant-leaf in
/// NMTree), so the steady-state `try_unlink` path never touches the
/// allocator.
struct InlineBuf<T> {
    inline: [Option<T>; 2],
    spill: Vec<T>,
}

impl<T> InlineBuf<T> {
    fn new() -> Self {
        Self {
            inline: [None, None],
            spill: Vec::new(),
        }
    }

    fn push(&mut self, value: T, pool: &mut Vec<Vec<T>>) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some(value);
                return;
            }
        }
        if self.spill.capacity() == 0 {
            self.spill = pool_take(pool);
        }
        self.spill.push(value);
    }

    fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.spill.len()
    }

    fn for_each_ref(&self, mut f: impl FnMut(&T)) {
        for slot in self.inline.iter().flatten() {
            f(slot);
        }
        for v in &self.spill {
            f(v);
        }
    }

    /// Empties the buffer through `f`, returning any spill vector to `pool`.
    fn drain_into(&mut self, pool: &mut Vec<Vec<T>>, mut f: impl FnMut(T)) {
        for slot in &mut self.inline {
            if let Some(v) = slot.take() {
                f(v);
            }
        }
        if self.spill.capacity() > 0 {
            for v in self.spill.drain(..) {
                f(v);
            }
            pool_give(pool, std::mem::take(&mut self.spill));
        }
    }
}

/// A batch of nodes unlinked together by one `try_unlink`, awaiting
/// invalidation, together with the frontier protections taken for them.
struct UnlinkBatch {
    nodes: InlineBuf<Retired>,
    invalidate: unsafe fn(*mut u8),
    frontier_hps: InlineBuf<HazardPointer>,
}

/// The nodes detached by a successful unlink operation.
///
/// Returned by the `do_unlink` closure of [`Thread::try_unlink`]. The
/// [`Single`](Unlinked::Single) and [`Pair`](Unlinked::Pair) cases — every
/// remove in HMList-style structures, and chain-node + pendant-leaf in
/// NMTree — are allocation-free; only longer chains need a `Vec`.
pub enum Unlinked<T> {
    /// One detached node.
    Single(Shared<T>),
    /// Two nodes detached by the same CAS.
    Pair(Shared<T>, Shared<T>),
    /// A detached chain.
    Chain(Vec<Shared<T>>),
}

impl<T> Unlinked<T> {
    /// Wraps the chain of nodes the unlink CAS detached.
    pub fn new(nodes: Vec<Shared<T>>) -> Self {
        Self::Chain(nodes)
    }

    /// A single detached node.
    pub fn single(node: Shared<T>) -> Self {
        Self::Single(node)
    }

    /// Two nodes detached together (allocation-free).
    pub fn pair(first: Shared<T>, second: Shared<T>) -> Self {
        Self::Pair(first, second)
    }

    fn len(&self) -> usize {
        match self {
            Self::Single(_) => 1,
            Self::Pair(..) => 2,
            Self::Chain(v) => v.len(),
        }
    }

    fn for_each(&self, mut f: impl FnMut(Shared<T>)) {
        match self {
            Self::Single(s) => f(*s),
            Self::Pair(a, b) => {
                f(*a);
                f(*b);
            }
            Self::Chain(v) => v.iter().copied().for_each(f),
        }
    }
}

unsafe fn invalidate_erased<T: Invalidate>(ptr: *mut u8) {
    unsafe { T::invalidate(ptr.cast::<T>()) }
}

/// A thread's registration with an HP++ [`Domain`].
pub struct Thread {
    inner: hp::Thread,
    domain: &'static Domain,
    /// Algorithm 3's thread-local `unlinkeds`. Drained in place, so its
    /// capacity is reused across invalidation flushes.
    unlinkeds: Vec<UnlinkBatch>,
    /// Algorithm 5's `epoched_hps`: frontier protections awaiting a safe
    /// (fence-separated) revocation. Compacted in place via swap-remove.
    epoched_hps: Vec<(u64, HazardPointer)>,
    /// Staging scratch for `do_invalidation`: protections collected from
    /// flushed batches before they are stamped with the post-invalidation
    /// epoch. Persistent so flushes allocate nothing in steady state.
    pending_hps: Vec<HazardPointer>,
    unlink_count: usize,
    /// Bounded spill pools: `try_unlink` runs on every physical deletion,
    /// so long-chain batches recycle their spill vectors instead of
    /// reallocating (capped — see [`SPARE_POOL_CAP`]).
    spare_retired_vecs: Vec<Vec<Retired>>,
    spare_hp_vecs: Vec<Vec<HazardPointer>>,
}

impl Thread {
    pub(crate) fn new(domain: &'static Domain) -> Self {
        Self {
            inner: domain.hp_domain().register(),
            domain,
            unlinkeds: Vec::new(),
            epoched_hps: Vec::new(),
            pending_hps: Vec::new(),
            unlink_count: 0,
            spare_retired_vecs: Vec::new(),
            spare_hp_vecs: Vec::new(),
        }
    }

    /// The domain this thread belongs to.
    pub fn domain(&self) -> &'static Domain {
        self.domain
    }

    /// Acquires a hazard pointer (cached slot if available).
    pub fn hazard_pointer(&mut self) -> HazardPointer {
        self.inner.hazard_pointer()
    }

    /// Returns a hazard pointer's slot to this thread's cache.
    pub fn recycle(&mut self, hp: HazardPointer) {
        self.inner.recycle(hp);
    }

    /// Plain HP retirement (hybrid use, §4.2): for nodes protected with the
    /// original over-approximating validation, no invalidation is needed.
    ///
    /// # Safety
    /// Same contract as [`hp::Thread::retire`].
    pub unsafe fn retire<T>(&mut self, ptr: *mut T) {
        self.inner.retire(ptr);
    }

    /// Sizes of the spill-vector pools `(retired, hazard)` — diagnostics
    /// for the pool-bounding guarantee.
    pub fn spare_pool_sizes(&self) -> (usize, usize) {
        (self.spare_retired_vecs.len(), self.spare_hp_vecs.len())
    }

    /// Algorithm 3's `TryUnlink`.
    ///
    /// 1. Protects every pointer in `frontier` (no validation needed — the
    ///    caller guarantees the frontier was decided before the unlink and
    ///    cannot change, Assumption 1).
    /// 2. Runs `do_unlink` (typically one CAS detaching a chain).
    /// 3. On success, schedules the detached nodes for deferred invalidation
    ///    and eventual reclamation; on failure, revokes the frontier
    ///    protections immediately.
    ///
    /// Returns whether the unlink succeeded.
    ///
    /// # Safety
    /// * `frontier` must contain every node reachable by one link from the
    ///   nodes `do_unlink` detaches that is not itself detached.
    /// * The detached nodes must be `Box`-allocated, detached exactly once,
    ///   with immutable links from before the unlink (Assumption 1).
    pub unsafe fn try_unlink<T: Invalidate>(
        &mut self,
        frontier: &[Shared<T>],
        do_unlink: impl FnOnce() -> Option<Unlinked<T>>,
    ) -> bool {
        let mut hps = InlineBuf::new();
        for f in frontier {
            let hp = self.hazard_pointer();
            hp.protect_raw(f.as_raw());
            hps.push(hp, &mut self.spare_hp_vecs);
        }
        // Frontier protections are up but the unlink CAS has not run: a
        // thread preempted here holds hazards for still-reachable nodes.
        smr_common::fault_point!("hpp::try_unlink::after_frontier");

        match do_unlink() {
            Some(unlinked) => {
                counters::incr_garbage(unlinked.len() as u64);
                let mut nodes = InlineBuf::new();
                unlinked.for_each(|s| {
                    nodes.push(unsafe { Retired::new(s.as_raw()) }, &mut self.spare_retired_vecs)
                });
                self.unlinkeds.push(UnlinkBatch {
                    nodes,
                    invalidate: invalidate_erased::<T>,
                    frontier_hps: hps,
                });
                // Nodes are detached but not yet invalidated — the window
                // HP++'s deferred invalidation (Algorithm 3) leaves open.
                smr_common::fault_point!("hpp::try_unlink::after_detach");
                self.unlink_count += 1;
                // Reclaim every `reclaim_period` unlinks; the invalidation
                // cadence is only consulted when the reclaim trigger does
                // not fire.
                if crate::unlink_trigger().fires(
                    self.unlinkeds.len() + self.inner.retired_count(),
                    self.domain.hp.slot_capacity(),
                    self.unlink_count as u64,
                ) {
                    counters::incr_policy_scan_forced();
                    self.reclaim();
                } else if self.unlink_count.is_multiple_of(periods().0) {
                    self.do_invalidation();
                }
                true
            }
            None => {
                let Self {
                    inner,
                    spare_hp_vecs,
                    ..
                } = self;
                hps.drain_into(spare_hp_vecs, |hp| inner.recycle(hp));
                false
            }
        }
    }

    /// Algorithm 5's `DoInvalidation`: flushes pending unlink batches by
    /// invalidating their nodes, then parks the batches' frontier
    /// protections in `epoched_hps`, stamped with the current fence epoch.
    /// Protections two epochs old are revoked for free — a heavy fence has
    /// provably passed between (Lemma A.2).
    ///
    /// Allocation-free in steady state: batches drain in place and their
    /// storage returns to the bounded spill pools.
    pub fn do_invalidation(&mut self) {
        let Self {
            inner,
            unlinkeds,
            pending_hps,
            spare_retired_vecs,
            spare_hp_vecs,
            ..
        } = self;
        // `pending_hps` may hold leftovers from a flush aborted by an
        // injected panic; the tail `extend` re-parks them conservatively
        // with the new epoch, so no emptiness assertion here.
        for mut batch in unlinkeds.drain(..) {
            batch.nodes.for_each_ref(|node| {
                unsafe { (batch.invalidate)(node.ptr()) };
            });
            // A batch's nodes are invalidated but its frontier protections
            // are still announced and its nodes not yet in the retired bag.
            smr_common::fault_point!("hpp::try_unlink::mid_invalidation");
            batch
                .frontier_hps
                .drain_into(spare_hp_vecs, |hp| pending_hps.push(hp));
            batch
                .nodes
                .drain_into(spare_retired_vecs, |node| inner.push_retired(node));
        }

        // The epoch is read *after* the invalidations above, so a parked
        // protection is only revoked once a heavy fence has separated it
        // from every invalidation it guards.
        let epoch = self.domain.read_epoch();
        let mut i = 0;
        while i < self.epoched_hps.len() {
            if self.epoched_hps[i].0 + 2 <= epoch {
                let (_, hp) = self.epoched_hps.swap_remove(i);
                self.inner.recycle(hp);
            } else {
                i += 1;
            }
        }
        let pending = &mut self.pending_hps;
        self.epoched_hps
            .extend(pending.drain(..).map(|hp| (epoch, hp)));
    }

    /// Algorithm 5's `Reclaim`: flush invalidations, take the retired set,
    /// issue the epoched heavy fence, revoke all parked frontier
    /// protections, then scan hazards and free the unprotected nodes.
    pub fn reclaim(&mut self) {
        self.do_invalidation();
        let Self {
            inner,
            domain,
            epoched_hps,
            ..
        } = self;
        let parked: &[(u64, HazardPointer)] = epoched_hps;
        inner.reclaim_with_prefence(|| {
            smr_common::fault_point!("hpp::reclaim::before_revoke");
            domain.fence_epoch_step();
            for (_, hp) in parked {
                hp.reset();
            }
        });
        for (_, hp) in self.epoched_hps.drain(..) {
            self.inner.recycle(hp);
        }
    }

    /// Number of nodes unlinked/retired by this thread and not yet freed.
    pub fn garbage_count(&self) -> usize {
        self.unlinkeds.iter().map(|b| b.nodes.len()).sum::<usize>() + self.inner.retired_count()
    }
}

impl Drop for Thread {
    fn drop(&mut self) {
        // If the final reclaim panics (a worker dying mid-flush), the guard
        // below still invalidates every pending batch and retires its nodes
        // before the inner `hp::Thread` teardown donates them — donating an
        // un-invalidated node would let a reader follow links into freed
        // memory (the HP++ safety argument requires invalidate-then-retire).
        struct Salvage<'a>(&'a mut Thread);
        impl Drop for Salvage<'_> {
            fn drop(&mut self) {
                let Thread {
                    inner,
                    unlinkeds,
                    epoched_hps,
                    pending_hps,
                    spare_retired_vecs,
                    spare_hp_vecs,
                    ..
                } = &mut *self.0;
                for mut batch in unlinkeds.drain(..) {
                    batch.nodes.for_each_ref(|node| {
                        unsafe { (batch.invalidate)(node.ptr()) };
                    });
                    // Dropping the frontier protections releases their slots
                    // back to the domain.
                    batch.frontier_hps.drain_into(spare_hp_vecs, drop);
                    batch
                        .nodes
                        .drain_into(spare_retired_vecs, |node| inner.push_retired(node));
                }
                // A heavy fence separates the invalidations above from the
                // donation scan in the inner teardown, standing in for the
                // epoched fence the aborted reclaim never issued.
                smr_common::fence::heavy();
                for (_, hp) in epoched_hps.drain(..) {
                    drop(hp);
                }
                for hp in pending_hps.drain(..) {
                    drop(hp);
                }
            }
        }
        let g = Salvage(self);
        g.0.reclaim();
        // Anything still protected by other threads is donated to the
        // domain's orphan list by the inner thread's Drop.
    }
}
