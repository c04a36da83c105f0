//! Service lifecycle and the client API.
//!
//! Since the supervision layer, clients and the service never hold a
//! `Shard` directly: they hold [`ShardSlot`]s, the stable per-shard
//! identities whose *current* incarnation the supervisor swaps out on
//! respawn. Clients cache the current incarnation per slot and revalidate
//! with one relaxed generation load per command, so the supervised fast
//! path costs nothing measurable over the PR-7 layout.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smr_common::watchdog::Verdict;
use smr_common::Backoff;

use crate::ring::{Command, Deadline, PushError, ResponseSlot, WaitError};
use crate::shard::{run_worker, Shard, ShardStatsSnapshot};
use crate::store::{HppStore, ShardStore};
use crate::supervisor::{
    run_supervisor, QuarantineRecord, RespawnConfig, ShardSlot, SupervisorCtl,
};
use crate::{shard_of_key, Generation, KvConfig, KvError};

/// One shard's row in a [`HealthSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Current incarnation (bumps on every supervised respawn).
    pub generation: Generation,
    /// Whether the current incarnation's worker is running.
    pub worker_alive: bool,
    /// The worker's latest [`GarbageWatchdog`](smr_common::watchdog)
    /// verdict for the current incarnation ([`Verdict::Unknown`] until the
    /// first sample).
    pub verdict: Verdict,
    /// Supervised respawns so far.
    pub respawns: u64,
    /// Reclamation domains quarantined (leaked) by those respawns.
    pub quarantined_domains: u64,
    /// Total settled garbage recorded inside those quarantined domains.
    pub quarantined_garbage: u64,
}

/// Point-in-time service health: what an operator (or the chaos harness)
/// reads to decide whether recovery is keeping up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// One row per shard.
    pub shards: Vec<ShardHealth>,
}

impl HealthSnapshot {
    /// Total quarantined domains across shards.
    pub fn quarantined_domains(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_domains).sum()
    }

    /// Total settled garbage leaked in quarantine across shards.
    pub fn quarantined_garbage(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_garbage).sum()
    }

    /// Whether every shard has a live worker and no watchdog pressure.
    pub fn all_serving(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.worker_alive && !s.verdict.is_pressure())
    }
}

/// The running service: one worker thread per shard plus one supervisor.
///
/// ```
/// let svc = kv_service::KvService::<kv_service::HppStore>::start(
///     kv_service::KvConfig::new().with_shards(2),
/// );
/// let mut client = svc.client();
/// assert_eq!(client.insert(7, 70), Ok(true));
/// assert_eq!(client.get(7), Ok(Some(70)));
/// svc.shutdown();
/// ```
pub struct KvService<S: ShardStore = HppStore> {
    slots: Arc<Vec<Arc<ShardSlot<S>>>>,
    ctl: Arc<SupervisorCtl>,
    supervisor: Option<JoinHandle<()>>,
    cfg: KvConfig,
}

impl<S: ShardStore> KvService<S> {
    /// Builds the shards (each with its private reclamation domain),
    /// spawns one worker per shard and the supervisor thread. The
    /// supervisor runs even with [`KvConfig::supervise`] off — it owns the
    /// worker joins — but then never respawns.
    pub fn start(cfg: KvConfig) -> Self {
        let shard_count = cfg.shards.max(1);
        let ctl = Arc::new(SupervisorCtl::new());
        let slots: Arc<Vec<Arc<ShardSlot<S>>>> = Arc::new(
            (0..shard_count)
                .map(|_| {
                    Arc::new(ShardSlot::new(Arc::new(Shard::new(
                        S::new_shard(cfg.buckets, cfg.policy),
                        cfg.ring_depth,
                    ))))
                })
                .collect(),
        );
        let workers: Vec<Option<JoinHandle<()>>> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let shard = slot.current();
                let batch = cfg.batch.max(1);
                let ctl = Arc::clone(&ctl);
                Some(
                    std::thread::Builder::new()
                        .name(format!("kv-shard-{i}-g0"))
                        .spawn(move || run_worker(shard, batch, Some(ctl)))
                        .expect("spawn shard worker"),
                )
            })
            .collect();
        let supervisor = {
            let slots = Arc::clone(&slots);
            let ctl = Arc::clone(&ctl);
            let respawn = RespawnConfig {
                batch: cfg.batch.max(1),
                ring_depth: cfg.ring_depth,
                buckets: cfg.buckets,
                policy: cfg.policy,
                supervise: cfg.supervise,
            };
            std::thread::Builder::new()
                .name("kv-supervisor".into())
                .spawn(move || run_supervisor(slots, ctl, workers, respawn))
                .expect("spawn kv supervisor")
        };
        Self {
            slots,
            ctl,
            supervisor: Some(supervisor),
            cfg,
        }
    }

    /// A new client handle. Cheap: Arc clones plus an empty slot pool.
    pub fn client(&self) -> Client<S> {
        Client {
            cached: self
                .slots
                .iter()
                .map(|s| (s.generation(), s.current()))
                .collect(),
            slots: Arc::clone(&self.slots),
            supervised: self.cfg.supervise,
            op_timeout: self.cfg.op_timeout,
            retries: self.cfg.retries,
            free: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Which shard serves `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.slots.len())
    }

    /// Current counters for shard `i`'s live incarnation. Reset on
    /// respawn, like everything else about the incarnation.
    pub fn shard_stats(&self, i: usize) -> ShardStatsSnapshot {
        self.slots[i].current().stats.snapshot()
    }

    /// Counters for every shard.
    pub fn stats(&self) -> Vec<ShardStatsSnapshot> {
        self.slots.iter().map(|s| s.current().stats.snapshot()).collect()
    }

    /// Shard `i`'s derived worst-case garbage bound, if its scheme has one.
    pub fn garbage_bound(&self, i: usize) -> Option<u64> {
        self.slots[i].current().store.garbage_bound()
    }

    /// Whether shard `i`'s *current* worker has exited (normally or by
    /// panic). Flips back to false once the supervisor respawns it.
    pub fn worker_gone(&self, i: usize) -> bool {
        self.slots[i].current().ring.is_worker_gone()
    }

    /// Shard `i`'s current generation (0 until its first respawn).
    pub fn generation(&self, i: usize) -> Generation {
        Generation(self.slots[i].generation())
    }

    /// The quarantine audit trail for shard `i`: one record per respawn.
    pub fn quarantine_records(&self, i: usize) -> Vec<QuarantineRecord> {
        self.slots[i].records()
    }

    /// Per-shard health, one scan.
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            shards: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    let current = slot.current();
                    ShardHealth {
                        shard: i,
                        generation: Generation(slot.generation()),
                        worker_alive: !current.ring.is_worker_gone(),
                        verdict: current.verdict(),
                        respawns: slot.respawns(),
                        quarantined_domains: slot.records().len() as u64,
                        quarantined_garbage: slot.quarantined_garbage(),
                    }
                })
                .collect(),
        }
    }

    /// Read-only access to shard `i`'s *current* store — fault tests
    /// derive bounds (collect thresholds, slot capacities) from the live
    /// instance.
    pub fn with_store<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        let shard = self.slots[i].current();
        f(&shard.store)
    }

    /// Deterministically kills shard `i`'s current worker by queueing a
    /// [`Command::Crash`] straight onto its ring (bypassing key routing) —
    /// the test / chaos-campaign crash vector. Returns `false` if the ring
    /// was already closed (or stayed full past a 5 s safety deadline).
    pub fn inject_crash(&self, i: usize) -> bool {
        let shard = self.slots[i].current();
        let resp = Arc::new(ResponseSlot::new());
        shard
            .ring
            .push_deadline(
                Command::Crash { key: 0 },
                resp,
                &mut Deadline::new(Duration::from_secs(5)),
            )
            .is_ok()
    }

    /// Graceful stop: mark every slot closed (so clients fail with
    /// [`KvError::Stopped`], not `RetryAfter`), stop the supervisor, close
    /// the rings, join everything, then adopt-and-free what the workers'
    /// teardowns donated. Returns the final per-shard counters.
    pub fn shutdown(mut self) -> Vec<ShardStatsSnapshot> {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Order matters: closed flags first (a worker death observed after
        // this is shutdown, not a fault), then stop the supervisor, then
        // close the rings so workers drain out and exit.
        for slot in self.slots.iter() {
            slot.close();
        }
        self.ctl.stop();
        for slot in self.slots.iter() {
            slot.current().ring.close();
        }
        if let Some(supervisor) = self.supervisor.take() {
            // The supervisor joins every worker on its way out.
            let _ = supervisor.join();
        }
        for slot in self.slots.iter() {
            slot.current().store.drain_orphans();
        }
    }
}

impl<S: ShardStore> Drop for KvService<S> {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.stop();
        }
    }
}

/// A client handle: routes commands to shards and waits for replies.
///
/// Two modes:
/// * one-shot ([`get`](Self::get) / [`insert`](Self::insert) /
///   [`remove`](Self::remove)) — submit and wait, with the full failure
///   API: per-op deadline ([`KvConfig::op_timeout`]), bounded retries with
///   backoff-jittered spacing across shard respawns;
/// * pipelined ([`submit`](Self::submit) then [`drain`](Self::drain)) —
///   keep many commands in flight and collect replies in submission
///   order. Pipelined replies carry typed errors but are *not* retried:
///   the caller owns the pipeline and decides what to re-issue.
///
/// Reply slots are pooled and reused, so a steady-state client allocates
/// nothing per command. A slot whose command timed out is abandoned, never
/// pooled — the worker may still complete it later.
pub struct Client<S: ShardStore> {
    slots: Arc<Vec<Arc<ShardSlot<S>>>>,
    /// Per-shard cached incarnation, revalidated by one generation load.
    cached: Vec<(u64, Arc<Shard<S>>)>,
    supervised: bool,
    op_timeout: Duration,
    retries: u32,
    free: Vec<Arc<ResponseSlot>>,
    pending: Vec<(usize, Arc<Shard<S>>, Arc<ResponseSlot>)>,
}

impl<S: ShardStore> Client<S> {
    /// Which shard serves `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of_key(key, self.slots.len())
    }

    /// Commands submitted and not yet drained.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Shard `i`'s current generation, as this client can observe it.
    pub fn generation(&self, i: usize) -> Generation {
        Generation(self.slots[i].generation())
    }

    /// Per-op deadline override for this client (defaults to the service
    /// config's [`KvConfig::op_timeout`]).
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Retry-budget override for this client (defaults to the service
    /// config's [`KvConfig::retries`]).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    fn take_slot(&mut self) -> Arc<ResponseSlot> {
        let slot = self.free.pop().unwrap_or_else(|| Arc::new(ResponseSlot::new()));
        slot.reset();
        slot
    }

    /// The cached incarnation of shard `idx`, revalidated against the
    /// slot's generation (one relaxed load on the fast path).
    fn current(&mut self, idx: usize) -> Arc<Shard<S>> {
        if self.slots[idx].generation() != self.cached[idx].0 {
            self.refresh(idx);
        }
        Arc::clone(&self.cached[idx].1)
    }

    fn refresh(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        self.cached[idx] = (slot.generation(), slot.current());
    }

    /// The error a down shard maps to for this client.
    fn down_error(&self, idx: usize) -> KvError {
        if !self.supervised || self.slots[idx].is_closed() {
            KvError::Stopped
        } else {
            KvError::RetryAfter(Generation(self.slots[idx].generation()))
        }
    }

    /// Waits (jittered backoff) for shard `idx` to come back up after a
    /// death: either a respawned incarnation accepts commands, the service
    /// closes, or the deadline passes. Returns whether retrying is useful.
    fn await_respawn(&mut self, idx: usize, deadline: &mut Deadline) -> bool {
        let mut backoff = Backoff::new();
        loop {
            if self.slots[idx].is_closed() {
                return false;
            }
            self.refresh(idx);
            if !self.cached[idx].1.ring.is_closed() {
                return true;
            }
            if deadline.expired() {
                return false;
            }
            backoff.snooze();
        }
    }

    /// Enqueues `cmd` without waiting. Blocks (backoff, bounded by the
    /// per-op deadline) while the target ring is full; rides out shard
    /// respawns within the retry budget. The reply is collected by
    /// [`drain`](Self::drain), in submission order. The op-timeout budget
    /// starts at the first wait (full ring or dead shard), not at entry.
    pub fn submit(&mut self, cmd: Command) -> Result<(), KvError> {
        let idx = self.shard_of(cmd.key());
        let mut deadline = Deadline::new(self.op_timeout);
        let slot = self.take_slot();
        let mut attempts = 0u32;
        loop {
            let shard = self.current(idx);
            match shard.ring.push_deadline(cmd, Arc::clone(&slot), &mut deadline) {
                Ok(()) => {
                    self.pending.push((idx, shard, slot));
                    return Ok(());
                }
                Err(PushError::TimedOut) => {
                    // Never entered the ring; the slot stays pool-safe.
                    self.free.push(slot);
                    return Err(KvError::DeadlineExceeded);
                }
                Err(PushError::Closed) => {
                    let err = self.down_error(idx);
                    let retryable = matches!(err, KvError::RetryAfter(_));
                    if !retryable || attempts >= self.retries {
                        self.free.push(slot);
                        return Err(err);
                    }
                    attempts += 1;
                    if !self.await_respawn(idx, &mut deadline) {
                        self.free.push(slot);
                        return Err(if self.slots[idx].is_closed() {
                            KvError::Stopped
                        } else {
                            KvError::DeadlineExceeded
                        });
                    }
                }
            }
        }
    }

    /// Waits for every in-flight command, invoking `sink(index, reply)` in
    /// submission order (`index` counts from 0 within this drain). Each
    /// reply waits at most one op-timeout, counted from the first poll that
    /// finds it pending; a timed-out command reports
    /// [`KvError::DeadlineExceeded`] and its slot is abandoned (the worker
    /// may still complete it later). Pipelined errors are *not* retried.
    pub fn drain(&mut self, mut sink: impl FnMut(usize, Result<Option<u64>, KvError>)) {
        let pending = std::mem::take(&mut self.pending);
        for (i, (idx, shard, slot)) in pending.into_iter().enumerate() {
            let mut deadline = Deadline::new(self.op_timeout);
            match shard.ring.wait_response_deadline(&slot, &mut deadline) {
                Ok(reply) => {
                    sink(i, Ok(reply));
                    self.free.push(slot);
                }
                Err(WaitError::Down) => {
                    sink(i, Err(self.down_error(idx)));
                    self.free.push(slot);
                }
                Err(WaitError::TimedOut) => {
                    sink(i, Err(KvError::DeadlineExceeded));
                    // Abandoned: completing it later must not corrupt a
                    // pooled reuse.
                }
            }
        }
    }

    /// One-shot submit-and-wait. One deadline covers the whole op — push,
    /// reply wait and every retry — and starts at its first wait.
    fn call(&mut self, cmd: Command) -> Result<Option<u64>, KvError> {
        let idx = self.shard_of(cmd.key());
        let mut deadline = Deadline::new(self.op_timeout);
        let mut attempts = 0u32;
        loop {
            let shard = self.current(idx);
            let slot = self.take_slot();
            match shard.ring.push_deadline(cmd, Arc::clone(&slot), &mut deadline) {
                Ok(()) => match shard.ring.wait_response_deadline(&slot, &mut deadline) {
                    Ok(reply) => {
                        self.free.push(slot);
                        return Ok(reply);
                    }
                    Err(WaitError::TimedOut) => {
                        // Abandon the slot; see drain.
                        return Err(KvError::DeadlineExceeded);
                    }
                    Err(WaitError::Down) => self.free.push(slot),
                },
                Err(PushError::TimedOut) => {
                    self.free.push(slot);
                    return Err(KvError::DeadlineExceeded);
                }
                Err(PushError::Closed) => self.free.push(slot),
            }
            // The shard died under the command. Retry across the respawn
            // if the budget and deadline allow; otherwise surface it.
            let err = self.down_error(idx);
            let retryable = matches!(err, KvError::RetryAfter(_));
            if !retryable || attempts >= self.retries {
                return Err(err);
            }
            attempts += 1;
            if !self.await_respawn(idx, &mut deadline) {
                return Err(if self.slots[idx].is_closed() {
                    KvError::Stopped
                } else {
                    KvError::DeadlineExceeded
                });
            }
        }
    }

    /// Reads `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, KvError> {
        self.call(Command::Get { key })
    }

    /// Inserts `key → value`; `Ok(false)` if the key already exists.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<bool, KvError> {
        self.call(Command::Put { key, value }).map(|r| r.is_some())
    }

    /// Removes `key`, returning the removed value.
    pub fn remove(&mut self, key: u64) -> Result<Option<u64>, KvError> {
        self.call(Command::Del { key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{EbrStore, NrStore};

    fn test_cfg() -> KvConfig {
        KvConfig {
            shards: 2,
            batch: 8,
            ring_depth: 64,
            buckets: 64,
            ..KvConfig::new()
        }
    }

    fn smoke<S: ShardStore>() {
        let svc = KvService::<S>::start(test_cfg());
        let mut client = svc.client();
        for k in 0..200u64 {
            assert_eq!(client.insert(k, k * 10), Ok(true));
        }
        for k in 0..200u64 {
            assert_eq!(client.get(k), Ok(Some(k * 10)));
        }
        for k in 0..100u64 {
            assert_eq!(client.remove(k), Ok(Some(k * 10)));
        }
        assert_eq!(client.get(0), Ok(None));
        assert_eq!(client.get(150), Ok(Some(1500)));
        svc.shutdown();
    }

    #[test]
    fn end_to_end_over_each_store() {
        smoke::<HppStore>();
        smoke::<EbrStore>();
        smoke::<NrStore>();
    }

    #[test]
    fn pipelined_replies_arrive_in_submission_order() {
        let svc = KvService::<HppStore>::start(test_cfg());
        let mut client = svc.client();
        for k in 0..100u64 {
            client.submit(Command::Put { key: k, value: k + 1 }).unwrap();
        }
        assert_eq!(client.in_flight(), 100);
        let mut replies = Vec::new();
        client.drain(|i, r| replies.push((i, r)));
        assert_eq!(client.in_flight(), 0);
        assert_eq!(replies.len(), 100);
        for (i, r) in replies {
            assert_eq!(r, Ok(Some(i as u64 + 1)), "reply {i} out of order");
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_returns_final_stats() {
        let svc = KvService::<HppStore>::start(KvConfig {
            shards: 2,
            batch: 4,
            ring_depth: 16,
            buckets: 16,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        for k in 0..64u64 {
            client.insert(k, k).unwrap();
        }
        let stats = svc.shutdown();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.ops).sum::<u64>(), 64);
        assert!(stats.iter().all(|s| s.batches > 0));
    }

    #[test]
    fn commands_after_shutdown_fail_with_stopped() {
        let svc = KvService::<NrStore>::start(KvConfig {
            shards: 1,
            batch: 4,
            ring_depth: 16,
            buckets: 16,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        client.insert(1, 1).unwrap();
        svc.shutdown();
        assert_eq!(client.get(1), Err(KvError::Stopped));
        assert_eq!(client.submit(Command::Get { key: 1 }), Err(KvError::Stopped));
    }

    #[test]
    fn injected_crash_respawns_shard_on_bumped_generation() {
        let svc = KvService::<HppStore>::start(KvConfig {
            shards: 1,
            batch: 4,
            ring_depth: 32,
            buckets: 32,
            ..KvConfig::new()
        });
        let mut client = svc.client();
        assert_eq!(client.insert(1, 11), Ok(true));
        assert_eq!(svc.generation(0), Generation(0));
        assert!(svc.inject_crash(0));
        // The one-shot call retries across the respawn on its own. The
        // respawned store is empty by contract — the previous insert is
        // gone.
        assert_eq!(client.get(1), Ok(None));
        assert_eq!(svc.generation(0), Generation(1));
        let health = svc.health();
        assert!(health.shards[0].worker_alive);
        assert_eq!(health.shards[0].respawns, 1);
        assert_eq!(health.quarantined_domains(), 1);
        let records = svc.quarantine_records(0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].generation, 0);
        if let Some(bound) = records[0].bound {
            assert!(
                records[0].settled_garbage <= bound,
                "quarantined settled garbage {} over published bound {bound}",
                records[0].settled_garbage
            );
        }
        // The new incarnation serves traffic.
        assert_eq!(client.insert(2, 22), Ok(true));
        assert_eq!(client.get(2), Ok(Some(22)));
        svc.shutdown();
    }

    #[test]
    fn unsupervised_crash_stays_dead_and_reports_stopped() {
        let svc = KvService::<HppStore>::start(
            KvConfig {
                shards: 1,
                batch: 4,
                ring_depth: 32,
                buckets: 32,
                ..KvConfig::new()
            }
            .with_supervision(false),
        );
        let mut client = svc.client();
        assert_eq!(client.insert(1, 11), Ok(true));
        assert!(svc.inject_crash(0));
        // Dead stays dead: PR-7 containment semantics.
        assert_eq!(client.get(1), Err(KvError::Stopped));
        assert!(svc.worker_gone(0));
        assert_eq!(svc.generation(0), Generation(0));
        assert!(svc.quarantine_records(0).is_empty());
        svc.shutdown();
    }
}
