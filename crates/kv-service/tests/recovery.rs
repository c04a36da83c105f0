//! Property test for supervised recovery: randomized crash schedules
//! (N seeded worker deaths spread over M shards) must leave
//!
//! * an **exact orphan balance** — after shutdown, the global garbage
//!   counter sits at exactly `before + Σ settled_garbage` over every
//!   quarantine record: each quarantined domain leaks precisely what its
//!   record says, nothing more, nothing leaks unrecorded;
//! * **monotone generations** — shard `i`'s generation equals the number
//!   of crashes aimed at it, and its records carry generations `0..n` in
//!   order;
//! * **undisturbed siblings** — while a shard is down and respawning, every
//!   other shard stays `worker_alive` with a verdict in
//!   {Unknown, Healthy}.
//!
//! Runs in tier-1 (no fault-injection feature needed): crashes are the
//! deterministic [`KvService::inject_crash`] vector. Cases serialize on a
//! local lock because the balance assertion reads the process-global
//! garbage counter.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use kv_service::{HppStore, KvConfig, KvService, ShardStore};
use proptest::prelude::*;
use smr_common::counters;
use smr_common::watchdog::Verdict;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// First `n` keys routed to `shard` under the service's key mixer.
fn keys_for<S: ShardStore>(svc: &KvService<S>, shard: usize, n: usize) -> Vec<u64> {
    (0u64..).filter(|&k| svc.shard_of(k) == shard).take(n).collect()
}

fn run_campaign(shards: usize, crashes: &[usize]) {
    let _serial = serial();
    let before = counters::garbage_now();
    let cfg = KvConfig {
        shards,
        batch: 8,
        ring_depth: 64,
        buckets: 32,
        ..KvConfig::new()
    }
    .with_op_timeout(Duration::from_secs(10))
    .with_retries(4);
    let svc = KvService::<HppStore>::start(cfg);
    let mut client = svc.client();

    let mut expected_gen = vec![0u64; shards];
    for (step, &target) in crashes.iter().enumerate() {
        // Churn on every shard so the domains hold real garbage when the
        // crash lands. Keys are unique per step: recovery is lossy by
        // contract, so nothing from an earlier step is relied upon.
        let base = 1_000 * step as u64;
        for k in 0..64u64 {
            client.insert(base + k, k).unwrap();
            client.remove(base + k).unwrap();
        }

        assert!(svc.inject_crash(target), "crash command not accepted");
        let prev = expected_gen[target];
        wait_for("crashed shard to respawn", || {
            // Siblings must stay serving and unpressured for the whole
            // recovery window, not just at the end of it.
            for (i, h) in svc.health().shards.iter().enumerate() {
                if i != target {
                    assert!(h.worker_alive, "sibling shard {i} died during recovery");
                    assert!(
                        matches!(h.verdict, Verdict::Unknown | Verdict::Healthy),
                        "sibling shard {i} under pressure during recovery: {:?}",
                        h.verdict
                    );
                }
            }
            svc.generation(target).0 > prev
        });
        expected_gen[target] = prev + 1;
        assert_eq!(svc.generation(target).0, prev + 1, "generation must bump by exactly one");

        // The respawned incarnation serves traffic again.
        let probe = keys_for(&svc, target, 1)[0];
        assert_eq!(client.insert(probe, step as u64), Ok(true));
        assert_eq!(client.get(probe), Ok(Some(step as u64)));
        assert_eq!(client.remove(probe), Ok(Some(step as u64)));
    }

    // Audit trail: one record per crash, generations in order, settled
    // garbage within the scheme's published bound.
    let mut total_settled = 0u64;
    for i in 0..shards {
        let records = svc.quarantine_records(i);
        let hits = crashes.iter().filter(|&&t| t == i).count();
        assert_eq!(records.len(), hits, "shard {i}: one quarantine record per crash");
        assert_eq!(svc.generation(i).0, hits as u64);
        for (k, r) in records.iter().enumerate() {
            assert_eq!(r.generation, k as u64, "shard {i}: record generations must be monotone");
            if let Some(bound) = r.bound {
                assert!(
                    r.settled_garbage <= bound,
                    "shard {i} gen {k}: settled {} over published bound {bound}",
                    r.settled_garbage
                );
            }
            total_settled += r.settled_garbage;
        }
    }
    let health = svc.health();
    assert_eq!(health.quarantined_domains() as usize, crashes.len());
    assert_eq!(health.quarantined_garbage(), total_settled);

    drop(client);
    svc.shutdown();
    assert_eq!(
        counters::garbage_now(),
        before + total_settled,
        "orphan balance: quarantined domains leak exactly what their records say"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn seeded_crashes_balance_orphans_and_bump_generations(
        shards in 1usize..4,
        targets in proptest::collection::vec(0usize..4, 1..5),
    ) {
        let crashes: Vec<usize> = targets.into_iter().map(|t| t % shards).collect();
        run_campaign(shards, &crashes);
    }
}
