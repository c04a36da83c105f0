//! One shard: a command ring, a store with its private domain, and the
//! worker loop that drains the ring in batches.
//!
//! Two perf levers. The first is staying awake: an empty ring sends the
//! worker through a short idle phase before it parks (see `ring`'s
//! sleep/wake docs), so a pipelining client's windows reach a running
//! worker and never pay the doorbell's mutex + futex wake. An awake worker
//! takes entries as they land, so its batches are short — a few ops, not
//! a full window. The second is batching what remains per wake-up: the
//! stats block and the garbage sample are touched **once per batch**, not
//! once per command, and the scheme handle (hazard slots, local bags) is
//! registered once for the shard's lifetime. Commands execute
//! back-to-back on a warm cache.
//!
//! Crash story: `WorkerGuard` retires the ring on *any* exit — normal
//! shutdown or unwind — so queued commands fail fast instead of hanging
//! clients, and `ReplyGuard` fails the command that was mid-execution when
//! a store op panicked. Scheme-level state is then reclaimed by the
//! handle's own panic-safe teardown (donate orphans, release slots), which
//! `KvService::shutdown` drains back via `ShardStore::drain_orphans`.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::Arc;
use std::time::Duration;

use smr_common::watchdog::{GarbageWatchdog, Verdict};

use crate::ring::{Command, Entry, ResponseSlot, Ring};
use crate::store::ShardStore;
use crate::supervisor::SupervisorCtl;

/// How long the per-shard watchdog lets the garbage level sit still before
/// calling the shard's collector stalled.
const WATCHDOG_STALL_WINDOW: Duration = Duration::from_millis(50);
/// Watchdog garbage ceiling for stores without a derived bound (EBR).
const WATCHDOG_DEFAULT_BOUND: usize = 4096;
/// Batches between watchdog samples. Sampling is clock + verdict-store
/// traffic on the drain loop; at per-batch cadence it cost ~40% of
/// single-shard throughput on a 1-core host, and anything far below the
/// 50 ms stall window detects a stall just as fast.
const WATCHDOG_SAMPLE_BATCHES: u32 = 32;

/// Point-in-time view of one shard's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Commands executed.
    pub ops: u64,
    /// Worker wakeup-drain cycles.
    pub batches: u64,
    /// Garbage at the last per-batch sample.
    pub garbage: u64,
    /// High-water garbage across all samples.
    pub peak_garbage: u64,
    /// Largest single batch drained.
    pub max_batch: u64,
}

/// Shard counters, written by the single worker, read by anyone.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    ops: AtomicU64,
    batches: AtomicU64,
    garbage: AtomicU64,
    peak_garbage: AtomicU64,
    max_batch: AtomicU64,
}

impl ShardStats {
    fn record_batch(&self, len: u64, garbage: u64) {
        self.ops.fetch_add(len, Relaxed);
        self.batches.fetch_add(1, Relaxed);
        self.garbage.store(garbage, Relaxed);
        self.peak_garbage.fetch_max(garbage, Relaxed);
        self.max_batch.fetch_max(len, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            ops: self.ops.load(Relaxed),
            batches: self.batches.load(Relaxed),
            garbage: self.garbage.load(Relaxed),
            peak_garbage: self.peak_garbage.load(Relaxed),
            max_batch: self.max_batch.load(Relaxed),
        }
    }
}

pub(crate) struct Shard<S> {
    pub(crate) ring: Ring,
    pub(crate) store: S,
    pub(crate) stats: ShardStats,
    /// Latest watchdog verdict ([`Verdict::encode`]), written by the
    /// worker's sampling, read by [`KvService::health`](crate::KvService).
    verdict: AtomicU8,
}

impl<S: ShardStore> Shard<S> {
    pub(crate) fn new(store: S, ring_depth: usize) -> Self {
        Self {
            ring: Ring::with_capacity(ring_depth),
            store,
            stats: ShardStats::default(),
            verdict: AtomicU8::new(Verdict::Unknown.encode()),
        }
    }

    /// The worker's latest watchdog verdict for this shard incarnation.
    pub(crate) fn verdict(&self) -> Verdict {
        Verdict::decode(self.verdict.load(Relaxed))
    }
}

/// Fails the in-flight command if the store op below panics.
struct ReplyGuard<'a>(&'a ResponseSlot);

impl ReplyGuard<'_> {
    /// Disarms the guard, then publishes `result`. The order is the point:
    /// once the result is out, the client may drain, pool and `reset` the
    /// slot for its next command, so a guard still armed afterwards would
    /// read that command as pending and fail it. A panic before this call
    /// still fails the command.
    fn complete(self, result: Option<u64>) {
        let slot = self.0;
        std::mem::forget(self);
        slot.complete(result);
        smr_common::fault_point!("kv::worker::reply");
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        self.0.drop_if_pending();
    }
}

fn execute<S: ShardStore>(store: &S, handle: &mut S::Handle, (cmd, resp): Entry) {
    let reply = ReplyGuard(&resp);
    let result = match cmd {
        Command::Get { key } => store.get(handle, key),
        Command::Put { key, value } => {
            if store.insert(handle, key, value) {
                Some(value)
            } else {
                None
            }
        }
        Command::Del { key } => store.remove(handle, key),
        Command::Crash { .. } => panic!("kv worker: injected crash command"),
    };
    reply.complete(result);
}

/// The shard worker: park-drain-execute until the ring closes, then flush
/// reclamation and exit. `batch_max` commands per wakeup, tops. `ctl`, when
/// present, is nudged as the worker exits so the supervisor reacts to a
/// death immediately instead of at its next poll tick.
pub(crate) fn run_worker<S: ShardStore>(
    shard: Arc<Shard<S>>,
    batch_max: usize,
    ctl: Option<Arc<SupervisorCtl>>,
) {
    /// Retires the ring on any exit, unwind included, then wakes the
    /// supervisor (after retirement, so the death is already observable).
    struct WorkerGuard<'a>(&'a Ring, Option<&'a SupervisorCtl>);
    impl Drop for WorkerGuard<'_> {
        fn drop(&mut self) {
            self.0.retire();
            if let Some(ctl) = self.1 {
                ctl.nudge();
            }
        }
    }

    let mut handle = shard.store.handle();
    let _guard = WorkerGuard(&shard.ring, ctl.as_deref());
    // Per-shard watchdog, fed every `WATCHDOG_SAMPLE_BATCHES` batches. The
    // progress token advances whenever the shard's garbage level drops (or
    // is zero) — with one worker per shard, local garbage shrinks iff this
    // shard's collector reclaimed something. The verdict is published in
    // the shard's health word.
    let bound = shard
        .store
        .garbage_bound()
        .map(|b| b as usize)
        .unwrap_or(WATCHDOG_DEFAULT_BOUND);
    let mut watchdog = GarbageWatchdog::new(bound, WATCHDOG_STALL_WINDOW);
    let mut progress_token = 0u64;
    let mut prev_garbage = 0u64;
    let mut batches_since_sample = 0u32;
    loop {
        let Some(first) = shard.ring.pop() else {
            if shard.ring.is_closed() {
                break;
            }
            shard.ring.wait_for_work();
            continue;
        };
        execute(&shard.store, &mut handle, first);
        let mut drained = 1u64;
        while drained < batch_max as u64 {
            let Some(entry) = shard.ring.pop() else { break };
            execute(&shard.store, &mut handle, entry);
            drained += 1;
        }
        smr_common::fault_point!("kv::worker::batch");
        let garbage = S::garbage(&handle);
        batches_since_sample += 1;
        if batches_since_sample >= WATCHDOG_SAMPLE_BATCHES {
            batches_since_sample = 0;
            if garbage == 0 || garbage < prev_garbage {
                progress_token += 1;
            }
            prev_garbage = garbage;
            let status = watchdog.observe(progress_token, garbage as usize);
            let verdict = Verdict::from(&status);
            shard.verdict.store(verdict.encode(), Relaxed);
        }
        shard.stats.record_batch(drained, garbage);
    }
    // Closed and drained: flush what the scheme lets us flush, then let the
    // handle's teardown donate the rest (protected stragglers) as orphans.
    shard.store.quiesce(&mut handle);
    shard.stats.record_batch(0, S::garbage(&handle));
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::store::NrStore;

    #[test]
    fn parked_worker_serves_a_push_well_inside_the_backstop() {
        let store = NrStore::new_shard(16, smr_common::policy::PolicyKind::Capped);
        let shard = Arc::new(Shard::new(store, 16));
        let worker = {
            let shard = Arc::clone(&shard);
            std::thread::spawn(move || run_worker(shard, 8, None))
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !shard.ring.is_sleeping() {
            assert!(Instant::now() < deadline, "idle worker never parked");
            std::thread::yield_now();
        }
        // Let it settle into the condvar wait (the backstop is 50 ms).
        std::thread::sleep(Duration::from_millis(5));
        let resp = Arc::new(ResponseSlot::new());
        let pushed_at = Instant::now();
        shard
            .ring
            .push(Command::Put { key: 1, value: 10 }, Arc::clone(&resp))
            .unwrap();
        assert_eq!(shard.ring.wait_response(&resp), Ok(Some(10)));
        let latency = pushed_at.elapsed();
        assert!(
            latency < Duration::from_millis(10),
            "parked worker took {latency:?} to serve a push"
        );
        shard.ring.close();
        worker.join().unwrap();
        assert_eq!(shard.stats.snapshot().ops, 1);
    }
}
