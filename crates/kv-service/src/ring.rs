//! Bounded MPSC command ring: the shard's front door.
//!
//! Vyukov-style sequence-stamped slots: each slot carries a `seq` counter
//! that encodes whether it is free for the producer at position `pos`
//! (`seq == pos`), holds a published entry (`seq == pos + 1`), or still
//! belongs to a previous lap. Producers claim positions with a CAS on
//! `tail`; the single consumer (the shard worker) pops in position order,
//! so per-producer FIFO is preserved end to end — the batch-drain ordering
//! guarantee the tests pin down.
//!
//! Backpressure: a full ring makes producers wait in
//! [`smr_common::Backoff`]'s spin → yield → park escalator — bounded
//! memory, no busy-spin, no hidden unbounded queue. Once a producer
//! escalates to parking it parks on the `space` doorbell, which the
//! consumer rings when it frees a slot and `close()` broadcasts — so no
//! producer can stay parked on a retired ring.
//!
//! Deadlines: pushes and reply waits carry the op's [`Deadline`], a
//! timeout whose clock starts at the op's *first miss* — a push that finds
//! the ring full, or a reply poll that finds the slot pending. A push into
//! a ring with room and a reply that is already there never read the
//! clock. Retries of one op share its started deadline, so a wedged
//! (alive but stalled) worker still cannot block a client past its budget;
//! the budget merely starts after the op's non-blocking prefix (tens of
//! ns) instead of at call entry.
//!
//! Sleep/wake: an empty ring does not put the worker to sleep at once. It
//! first spends an idle phase of [`IDLE_YIELDS`] `yield_now` calls,
//! re-checking the ring between them, so a pipelining client's next
//! window lands on a worker that is still awake and is taken entry by
//! entry, with no doorbell. Only then does it park on a condvar: the
//! `sleeping` flag plus re-check under the doorbell mutex closes the lost
//! wakeup race, and a coarse wait timeout is belt and braces only. The
//! idle phase yields instead of spinning on `spin_loop`: `yield_now`
//! returns at once when a core is free, but hands the core over when a
//! client or a sibling shard's worker is runnable on it. A pause-only spin
//! of the same length doubled one-shard throughput on two cores yet lost
//! 38% with everything on one core and 37% with two shards on two cores,
//! because it burnt the CPU the other side needed. The idle phase is
//! deliberately not a [`Backoff`]: its counters measure contention only.
//!
//! Crash story: when the worker dies (panic or shutdown), it *retires* the
//! ring — closed + `worker_gone` — after which any client waiting on a
//! response rescues the queue itself: it drains every published entry under
//! `rescue` and fails it with [`ShardDown`]. Nothing ever blocks on a dead
//! shard.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use smr_common::{Backoff, CachePadded};

use crate::ShardDown;

/// One key-value command. `u64 → u64` mirrors the workload engine's key
/// space; the store layer is generic underneath if that ever widens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Read `key`.
    Get { key: u64 },
    /// Insert `key → value`; fails (None reply) if the key exists.
    Put { key: u64, value: u64 },
    /// Remove `key`, replying with the removed value.
    Del { key: u64 },
    /// Chaos vector: the worker panics while "executing" this command (its
    /// reply resolves to the shard-down error through the reply guard).
    /// Used by the supervision tests, the chaos campaigns and the recovery
    /// benchmark to kill a *specific* shard deterministically — never part
    /// of a production workload. `key` only routes it.
    Crash { key: u64 },
}

impl Command {
    /// The key this command routes on.
    pub fn key(&self) -> u64 {
        match *self {
            Command::Get { key }
            | Command::Put { key, .. }
            | Command::Del { key }
            | Command::Crash { key } => key,
        }
    }
}

/// Why a push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The ring is closed (shutdown or dead worker); the command was never
    /// queued.
    Closed,
    /// The push deadline elapsed while the ring stayed full; the command
    /// was never queued.
    TimedOut,
}

/// One op's time budget. The clock starts at the op's first miss (see
/// the module docs), so a push or reply wait that succeeds at once costs
/// no clock read; every later wait of the same op, retries included,
/// measures against the same started deadline.
#[derive(Debug)]
pub(crate) struct Deadline {
    timeout: Duration,
    started: Option<Instant>,
}

impl Deadline {
    pub(crate) fn new(timeout: Duration) -> Self {
        Self {
            timeout,
            started: None,
        }
    }

    /// Starts the clock if this is the op's first miss; whether the budget
    /// has run out.
    pub(crate) fn expired(&mut self) -> bool {
        let now = Instant::now();
        now.duration_since(*self.started.get_or_insert(now)) >= self.timeout
    }
}

const PENDING: u32 = 0;
const DONE_NONE: u32 = 1;
const DONE_SOME: u32 = 2;
const DROPPED: u32 = 3;

/// A one-shot reply cell shared by the submitting client and the worker.
/// Clients pool and reuse slots across commands ([`reset`](Self::reset)),
/// so the steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    state: AtomicU32,
    value: AtomicU64,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            state: AtomicU32::new(PENDING),
            value: AtomicU64::new(0),
        }
    }

    /// Rearms a pooled slot for the next command. Caller must be the only
    /// side still interested in it (the previous command completed).
    pub(crate) fn reset(&self) {
        self.state.store(PENDING, Relaxed);
    }

    /// Worker side: publish the result.
    pub(crate) fn complete(&self, result: Option<u64>) {
        match result {
            Some(v) => {
                self.value.store(v, Relaxed);
                self.state.store(DONE_SOME, Release);
            }
            None => self.state.store(DONE_NONE, Release),
        }
    }

    /// Marks the command failed if no result was published — the dead
    /// worker / rescue path. Idempotent; never overwrites a real result.
    pub(crate) fn drop_if_pending(&self) {
        let _ = self
            .state
            .compare_exchange(PENDING, DROPPED, AcqRel, Relaxed);
    }

    /// Client side: non-blocking result check.
    pub(crate) fn poll(&self) -> Option<Result<Option<u64>, ShardDown>> {
        match self.state.load(Acquire) {
            PENDING => None,
            DONE_NONE => Some(Ok(None)),
            DONE_SOME => Some(Ok(Some(self.value.load(Relaxed)))),
            _ => Some(Err(ShardDown)),
        }
    }
}

/// Why a response wait ended without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitError {
    /// The worker died before (or while) executing the command; the slot
    /// is resolved and safe to pool again.
    Down,
    /// The deadline elapsed with the command still pending. The worker may
    /// complete the slot *later*, so the caller must abandon it — never
    /// return it to a reuse pool.
    TimedOut,
}

pub(crate) type Entry = (Command, Arc<ResponseSlot>);

/// `yield_now` calls an idle worker makes, re-checking the ring between
/// them, before it parks on the doorbell. 64 is about 11 µs of idling on
/// a 2-core x86 host with a free core: longer than the gap between a
/// pipelining client's windows, far shorter than a scheduler quantum.
/// Why yield and not spin: see the module docs.
const IDLE_YIELDS: u32 = 64;

struct Slot {
    seq: AtomicUsize,
    entry: UnsafeCell<MaybeUninit<Entry>>,
}

/// The worker's pillow: where it sleeps when the ring is empty.
struct Doorbell {
    sleeping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// The producers' pillow: where pushes park once their backoff escalates
/// and the ring stays full. The consumer rings it when it frees a slot
/// (only when `waiters != 0`, so the hot pop path pays one relaxed load)
/// and `close()` broadcasts so nobody stays parked on a dead shard. The
/// bounded wait below is a backstop against the register/park race, not
/// the wake protocol.
struct SpaceBell {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

pub(crate) struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    /// Producer cursor.
    tail: CachePadded<AtomicUsize>,
    /// Consumer cursor. Atomic only so the rescue path can take over after
    /// the worker dies; a live worker is the sole writer.
    head: CachePadded<AtomicUsize>,
    closed: AtomicBool,
    /// Set (after `closed`) once the worker has exited; enables rescue.
    worker_gone: AtomicBool,
    /// Serializes post-mortem drains between rescuing clients.
    rescue: Mutex<()>,
    doorbell: Doorbell,
    space: SpaceBell,
}

// Entries are moved across threads through the slots; Command and
// Arc<ResponseSlot> are both Send.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                entry: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: cap - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            worker_gone: AtomicBool::new(false),
            rescue: Mutex::new(()),
            doorbell: Doorbell {
                sleeping: AtomicBool::new(false),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
            space: SpaceBell {
                waiters: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
        }
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Acquire)
    }

    pub(crate) fn is_worker_gone(&self) -> bool {
        self.worker_gone.load(Acquire)
    }

    /// Enqueues a command. Blocks (via backoff, escalating to parking on
    /// the space doorbell) while the ring is full; fails only when the
    /// ring is closed.
    #[cfg(test)]
    pub(crate) fn push(&self, cmd: Command, resp: Arc<ResponseSlot>) -> Result<(), PushError> {
        self.push_deadline(cmd, resp, &mut Deadline::new(Duration::MAX))
    }

    /// [`push`](Self::push) under the op's deadline: a ring that stays full
    /// past it (wedged worker) fails the push with [`PushError::TimedOut`]
    /// instead of blocking forever. The command was never queued, so the
    /// response slot stays safe to reuse. The clock is read only once the
    /// ring has been found full.
    pub(crate) fn push_deadline(
        &self,
        cmd: Command,
        resp: Arc<ResponseSlot>,
        deadline: &mut Deadline,
    ) -> Result<(), PushError> {
        let mut backoff = Backoff::new();
        loop {
            if self.closed.load(Acquire) {
                return Err(PushError::Closed);
            }
            let pos = self.tail.load(Relaxed);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let lag = seq.wrapping_sub(pos) as isize;
            if lag == 0 {
                if self
                    .tail
                    .compare_exchange_weak(pos, pos.wrapping_add(1), Relaxed, Relaxed)
                    .is_ok()
                {
                    unsafe { (*slot.entry.get()).write((cmd, resp)) };
                    slot.seq.store(pos.wrapping_add(1), Release);
                    self.ring_doorbell();
                    return Ok(());
                }
                backoff.cas_failed();
            } else if lag < 0 {
                // Full: a whole lap behind. Wait for the consumer.
                smr_common::fault_point!("kv::ring::full");
                if deadline.expired() {
                    return Err(PushError::TimedOut);
                }
                if backoff.is_parking() {
                    self.wait_for_space();
                } else {
                    backoff.snooze();
                }
            } else {
                // A producer ahead of us claimed the slot but has not
                // published yet; its publish is imminent.
                std::hint::spin_loop();
            }
        }
    }

    /// Whether the producer-side next slot is still a lap behind (full).
    fn is_full(&self) -> bool {
        let pos = self.tail.load(Relaxed);
        let seq = self.slots[pos & self.mask].seq.load(Acquire);
        (seq.wrapping_sub(pos) as isize) < 0
    }

    /// Producer: park until the consumer frees a slot or the ring closes.
    /// The re-check after registering closes the lost-wakeup race against
    /// `pop`/`close`; the 1 ms timeout is a backstop only.
    fn wait_for_space(&self) {
        // This *is* the park phase of the producer's escalator; account for
        // it like `Backoff::snooze` would so the contention counters (and
        // the backpressure tests reading them) keep seeing parks.
        smr_common::counters::incr_backoff_park();
        self.space.waiters.fetch_add(1, SeqCst);
        {
            let guard = self.space.lock.lock().unwrap();
            if self.is_full() && !self.closed.load(SeqCst) {
                let _ = self
                    .space
                    .cv
                    .wait_timeout(guard, Duration::from_millis(1));
            }
        }
        self.space.waiters.fetch_sub(1, SeqCst);
    }

    /// Consumer side: wake parked producers after freeing a slot. Cheap
    /// when nobody is parked (one relaxed load).
    fn ring_space_bell(&self) {
        if self.space.waiters.load(Relaxed) != 0 {
            let _guard = self.space.lock.lock().unwrap();
            self.space.cv.notify_all();
        }
    }

    /// Dequeues the next published entry. Single consumer: only the shard
    /// worker while it lives, then rescuers serialized by `rescue`.
    pub(crate) fn pop(&self) -> Option<Entry> {
        let pos = self.head.load(Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let entry = unsafe { (*slot.entry.get()).assume_init_read() };
        // Free the slot for the producer one lap ahead.
        slot.seq
            .store(pos.wrapping_add(self.mask).wrapping_add(1), Release);
        self.head.store(pos.wrapping_add(1), Release);
        self.ring_space_bell();
        Some(entry)
    }

    /// Whether the worker has spent its idle phase and parked (or is about
    /// to park) on the doorbell.
    #[cfg(test)]
    pub(crate) fn is_sleeping(&self) -> bool {
        self.doorbell.sleeping.load(SeqCst)
    }

    /// Whether the consumer-side next entry is published.
    fn has_next(&self) -> bool {
        let pos = self.head.load(Relaxed);
        self.slots[pos & self.mask].seq.load(Acquire) == pos.wrapping_add(1)
    }

    /// Worker: wait until a producer publishes an entry or the ring closes
    /// — first awake through the idle phase, then asleep on the doorbell.
    /// Returns immediately if either is already true.
    pub(crate) fn wait_for_work(&self) {
        for _ in 0..IDLE_YIELDS {
            if self.has_next() || self.closed.load(Acquire) {
                return;
            }
            std::thread::yield_now();
        }
        self.doorbell.sleeping.store(true, SeqCst);
        if self.has_next() || self.closed.load(SeqCst) {
            self.doorbell.sleeping.store(false, SeqCst);
            return;
        }
        let guard = self.doorbell.lock.lock().unwrap();
        if self.doorbell.sleeping.load(SeqCst) && !self.has_next() && !self.closed.load(SeqCst) {
            // The timeout is a backstop, not the protocol: the sleeping
            // flag + re-check above already closes the lost-wakeup race.
            let _ = self.doorbell.cv.wait_timeout(guard, Duration::from_millis(50));
        }
        self.doorbell.sleeping.store(false, SeqCst);
    }

    fn ring_doorbell(&self) {
        if self.doorbell.sleeping.load(Relaxed) && self.doorbell.sleeping.swap(false, SeqCst) {
            // The doorbell has one waiter: the shard's worker.
            let _guard = self.doorbell.lock.lock().unwrap();
            self.doorbell.cv.notify_one();
        }
    }

    /// Stops accepting new commands, wakes the worker to drain what is
    /// already queued, and broadcasts to producers parked on a full ring so
    /// none of them stays parked on a dead shard.
    pub(crate) fn close(&self) {
        self.closed.store(true, SeqCst);
        {
            let _guard = self.doorbell.lock.lock().unwrap();
            self.doorbell.sleeping.store(false, SeqCst);
            self.doorbell.cv.notify_all();
        }
        let _guard = self.space.lock.lock().unwrap();
        self.space.cv.notify_all();
    }

    /// Worker's last act (normal exit *and* unwind): close, hand the
    /// consumer role to rescuers, and fail whatever is still queued.
    pub(crate) fn retire(&self) {
        self.close();
        self.worker_gone.store(true, SeqCst);
        self.rescue_drain();
    }

    /// Post-mortem drain: pops every published entry and fails it. Only
    /// meaningful once `worker_gone`; callers race benignly via `rescue`.
    pub(crate) fn rescue_drain(&self) {
        let _guard = self.rescue.lock().unwrap();
        while let Some((_, resp)) = self.pop() {
            resp.drop_if_pending();
        }
    }

    /// Client-side wait for a response on `slot`, rescuing the ring if the
    /// worker died underneath us.
    #[cfg(test)]
    pub(crate) fn wait_response(&self, slot: &ResponseSlot) -> Result<Option<u64>, ShardDown> {
        self.wait_response_deadline(slot, &mut Deadline::new(Duration::MAX))
            .map_err(|_| ShardDown)
    }

    /// [`wait_response`](Self::wait_response) under the op's deadline. The
    /// clock is read only once the slot has been found pending. A
    /// [`WaitError::TimedOut`] slot may still be completed by the worker
    /// later — the caller must abandon it, not pool it.
    pub(crate) fn wait_response_deadline(
        &self,
        slot: &ResponseSlot,
        deadline: &mut Deadline,
    ) -> Result<Option<u64>, WaitError> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(result) = slot.poll() {
                return result.map_err(|ShardDown| WaitError::Down);
            }
            if self.is_worker_gone() {
                // Our entry is published (push returned Ok), so a rescue
                // pass must resolve it — unless the worker died while
                // executing it, in which case its reply guard already
                // marked it dropped.
                self.rescue_drain();
                if let Some(result) = slot.poll() {
                    return result.map_err(|ShardDown| WaitError::Down);
                }
            }
            if deadline.expired() {
                return Err(WaitError::TimedOut);
            }
            backoff.snooze();
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Entries may remain if the service was dropped without shutdown.
        while let Some((_, resp)) = self.pop() {
            resp.drop_if_pending();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: u64) -> (Command, Arc<ResponseSlot>) {
        (Command::Get { key }, Arc::new(ResponseSlot::new()))
    }

    #[test]
    fn fifo_within_capacity_and_across_wraparound() {
        let ring = Ring::with_capacity(8);
        // Three laps through an 8-slot ring.
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..3 {
            for _ in 0..8 {
                let (c, r) = entry(next_push);
                ring.push(c, r).unwrap();
                next_push += 1;
            }
            while let Some((c, _)) = ring.pop() {
                assert_eq!(c.key(), next_pop);
                next_pop += 1;
            }
        }
        assert_eq!(next_pop, 24);
        assert!(!ring.has_next());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::with_capacity(1000).capacity(), 1024);
        assert_eq!(Ring::with_capacity(1).capacity(), 2);
    }

    #[test]
    fn push_after_close_is_rejected() {
        let ring = Ring::with_capacity(4);
        ring.close();
        let (c, r) = entry(1);
        assert_eq!(ring.push(c, r), Err(PushError::Closed));
    }

    #[test]
    fn retire_fails_queued_commands() {
        let ring = Ring::with_capacity(8);
        let slots: Vec<_> = (0..4)
            .map(|k| {
                let (c, r) = entry(k);
                ring.push(c, r.clone()).unwrap();
                r
            })
            .collect();
        ring.retire();
        for s in &slots {
            assert_eq!(s.poll(), Some(Err(ShardDown)));
        }
        assert_eq!(ring.wait_response(&slots[0]), Err(ShardDown));
    }

    #[test]
    fn push_deadline_times_out_on_full_ring() {
        let ring = Ring::with_capacity(2);
        for k in 0..2 {
            let (c, r) = entry(k);
            ring.push(c, r).unwrap();
        }
        let (c, r) = entry(9);
        let start = Instant::now();
        assert_eq!(
            ring.push_deadline(c, r, &mut Deadline::new(Duration::from_millis(20))),
            Err(PushError::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_producer_parked_on_full_ring() {
        let ring = Arc::new(Ring::with_capacity(2));
        for k in 0..2 {
            let (c, r) = entry(k);
            ring.push(c, r).unwrap();
        }
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let (c, r) = entry(9);
                ring.push(c, r)
            })
        };
        // Let the producer reach the full branch and escalate to parking.
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn wait_response_deadline_times_out_while_pending() {
        let ring = Ring::with_capacity(4);
        let (c, r) = entry(1);
        ring.push(c, Arc::clone(&r)).unwrap();
        // No consumer: the wait must end at the deadline, not hang.
        let start = Instant::now();
        assert_eq!(
            ring.wait_response_deadline(&r, &mut Deadline::new(Duration::from_millis(20))),
            Err(WaitError::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn deadline_starts_at_the_first_miss_and_is_shared_by_retries() {
        let ring = Ring::with_capacity(4);
        let mut deadline = Deadline::new(Duration::from_millis(20));
        // A push into a ring with room and a reply that is already there
        // never start the clock.
        let (c, r) = entry(1);
        ring.push_deadline(c, Arc::clone(&r), &mut deadline).unwrap();
        let (_, slot) = ring.pop().unwrap();
        slot.complete(Some(5));
        assert_eq!(ring.wait_response_deadline(&r, &mut deadline), Ok(Some(5)));
        assert!(deadline.started.is_none());
        // The first miss starts it; a later wait of the same op (a retry)
        // measures against the same start.
        assert!(!deadline.expired());
        let started = deadline.started.expect("first miss starts the clock");
        std::thread::sleep(Duration::from_millis(25));
        assert!(deadline.expired());
        assert_eq!(deadline.started, Some(started));
    }

    #[test]
    fn response_slot_roundtrip_and_reuse() {
        let s = ResponseSlot::new();
        assert_eq!(s.poll(), None);
        s.complete(Some(7));
        assert_eq!(s.poll(), Some(Ok(Some(7))));
        // drop_if_pending never clobbers a real result.
        s.drop_if_pending();
        assert_eq!(s.poll(), Some(Ok(Some(7))));
        s.reset();
        assert_eq!(s.poll(), None);
        s.complete(None);
        assert_eq!(s.poll(), Some(Ok(None)));
    }
}
