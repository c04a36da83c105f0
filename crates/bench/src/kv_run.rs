//! Shared runner for the sharded KV service benchmark.
//!
//! Drives [`kv_service::KvService`] with the PR-2 workload engine: client
//! threads sample keys from a Zipfian distribution, pick operations from an
//! [`OpMix`], and keep a pipeline of commands in flight per window so the
//! shard workers actually batch. Latency is measured client-side
//! (submit → reply, through the ring and doorbell) into log₂ histograms;
//! throughput is measured worker-side from per-shard op counters sampled at
//! the phase edges, so the reported Mops/s covers exactly the measure
//! window. Both `kv_bench` (CSV sweeps) and `bench_snapshot` (headline
//! metrics for the trajectory gate) call into this module.

use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use kv_service::{Command, KvConfig, KvError, KvService, ShardStore};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use smr_common::time::mono_ns;

use crate::metrics::LatencyHistogram;
use crate::workload::{Op, OpMix, ZipfSampler};

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// One KV benchmark scenario.
#[derive(Debug, Clone)]
pub struct KvRun {
    /// Shard (and worker-thread) count.
    pub shards: usize,
    /// Client threads generating load.
    pub clients: usize,
    /// Commands each client keeps in flight per submit/drain window.
    pub pipeline: usize,
    /// Worker batch limit per wakeup (`KV_BATCH` equivalent).
    pub batch: usize,
    /// Per-shard command ring depth.
    pub ring_depth: usize,
    /// Key range; prefilled to 50% before the run.
    pub keys: u64,
    /// Zipfian skew (0.0 = uniform).
    pub theta: f64,
    /// Operation mix percentages; must sum to 100.
    pub read_pct: u32,
    /// Insert percentage.
    pub insert_pct: u32,
    /// Remove percentage.
    pub remove_pct: u32,
    /// Unmeasured warmup window.
    pub warmup: Duration,
    /// Measured window.
    pub duration: Duration,
}

impl KvRun {
    /// The paper-style read-mostly skewed scenario (90/5/5, θ = 0.99)
    /// over `shards` shards — the headline configuration.
    pub fn read_mostly(shards: usize) -> Self {
        Self {
            shards,
            clients: 4,
            pipeline: 16,
            batch: 32,
            ring_depth: 1024,
            keys: 65_536,
            theta: 0.99,
            read_pct: 90,
            insert_pct: 5,
            remove_pct: 5,
            warmup: Duration::from_millis(300),
            duration: Duration::from_millis(1_500),
        }
    }

    /// Shrinks the scenario for smoke tests and snapshot quick runs.
    pub fn quick(mut self) -> Self {
        self.clients = self.clients.min(2);
        self.keys = self.keys.min(8_192);
        self.warmup = Duration::from_millis(50);
        self.duration = Duration::from_millis(300);
        self
    }
}

/// Aggregated result of one [`run_kv`] call.
#[derive(Debug, Clone, Copy)]
pub struct KvResult {
    /// Total throughput across shards over the measure window (Mops/s).
    pub total_mops: f64,
    /// Slowest shard's throughput (Mops/s) — imbalance floor.
    pub min_shard_mops: f64,
    /// Fastest shard's throughput (Mops/s) — imbalance ceiling.
    pub max_shard_mops: f64,
    /// Median submit→reply latency (ns, log₂-bucketed).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th percentile latency (ns).
    pub p999_ns: u64,
    /// Highest per-shard peak of unreclaimed nodes over the whole run.
    pub peak_shard_garbage: u64,
    /// Client-side completed (and latency-sampled) ops in the window.
    pub measured_ops: u64,
    /// Ops that blew their per-op deadline (`KvError::DeadlineExceeded`)
    /// instead of completing — a wedged shard turns into timeout rows in
    /// the CSV, not a hung benchmark.
    pub timeouts: u64,
}

/// Runs one scenario against a fresh service and tears it down.
pub fn run_kv<S: ShardStore>(rc: &KvRun) -> KvResult {
    let svc = KvService::<S>::start(KvConfig {
        shards: rc.shards,
        batch: rc.batch,
        ring_depth: rc.ring_depth,
        // ~4 keys per bucket at 50% occupancy, floor of 64.
        buckets: ((rc.keys / 8).max(64) as usize).next_power_of_two(),
        ..KvConfig::new()
    });

    // Prefill to 50% occupancy (even keys) so reads split hit/miss the way
    // the fig8 scenarios do. Pipelined: replies don't occupy ring slots, so
    // submitting everything before one drain cannot deadlock.
    {
        let mut c = svc.client();
        for k in (0..rc.keys).step_by(2) {
            c.submit(Command::Put { key: k, value: k }).expect("prefill");
        }
        c.drain(|_, r| {
            r.expect("prefill reply");
        });
    }

    let zipf = Arc::new(ZipfSampler::new(rc.keys, rc.theta));
    let phase = Arc::new(AtomicU8::new(WARMUP));

    let mut hist = LatencyHistogram::new();
    let mut timeouts = 0u64;
    let mut shard_mops: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for tid in 0..rc.clients {
            let mut client = svc.client();
            let zipf = Arc::clone(&zipf);
            let phase = Arc::clone(&phase);
            joins.push(s.spawn(move || {
                let mix = OpMix::new(rc.read_pct, rc.insert_pct, rc.remove_pct);
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ tid as u64);
                let mut hist = LatencyHistogram::new();
                let mut timeouts = 0u64;
                let mut t0 = vec![0u64; rc.pipeline];
                let mut lat = vec![0u64; rc.pipeline];
                loop {
                    let ph = phase.load(SeqCst);
                    if ph == STOP {
                        break;
                    }
                    let mut n = 0;
                    while n < rc.pipeline {
                        let key = zipf.sample(&mut rng);
                        let cmd = match mix.pick(rng.next_u64()) {
                            Op::Get => Command::Get { key },
                            Op::Insert => Command::Put { key, value: key.wrapping_add(1) },
                            Op::Remove => Command::Del { key },
                        };
                        t0[n] = mono_ns();
                        match client.submit(cmd) {
                            Ok(()) => n += 1,
                            Err(KvError::DeadlineExceeded) => {
                                timeouts += 1;
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    client.drain(|i, r| {
                        if matches!(r, Err(KvError::DeadlineExceeded)) {
                            timeouts += 1;
                        }
                        lat[i] = mono_ns().saturating_sub(t0[i]);
                    });
                    if ph == MEASURE {
                        for &l in &lat[..n] {
                            hist.record(l);
                        }
                    }
                    if n == 0 {
                        break; // shard down: nothing more to do
                    }
                }
                (hist, timeouts)
            }));
        }

        std::thread::sleep(rc.warmup);
        let start = svc.stats();
        let t_start = mono_ns();
        phase.store(MEASURE, SeqCst);
        std::thread::sleep(rc.duration);
        phase.store(STOP, SeqCst);
        let end = svc.stats();
        let elapsed_s = (mono_ns() - t_start) as f64 / 1e9;

        // saturating: a respawn between the phase edges resets that shard's
        // counters, so the end sample can sit below the start sample.
        shard_mops = start
            .iter()
            .zip(&end)
            .map(|(a, b)| b.ops.saturating_sub(a.ops) as f64 / elapsed_s / 1e6)
            .collect();
        for j in joins {
            let (h, t) = j.join().expect("kv client thread");
            hist.merge(&h);
            timeouts += t;
        }
    });

    let final_stats = svc.shutdown();
    let peak_shard_garbage = final_stats.iter().map(|s| s.peak_garbage).max().unwrap_or(0);

    KvResult {
        total_mops: shard_mops.iter().sum(),
        min_shard_mops: shard_mops.iter().copied().fold(f64::INFINITY, f64::min),
        max_shard_mops: shard_mops.iter().copied().fold(0.0, f64::max),
        p50_ns: hist.percentile_ns(0.50),
        p99_ns: hist.percentile_ns(0.99),
        p999_ns: hist.percentile_ns(0.999),
        peak_shard_garbage,
        measured_ops: hist.count(),
        timeouts,
    }
}

/// Result of one [`run_kv_recovery`] campaign.
#[derive(Debug, Clone, Copy)]
pub struct KvRecoveryResult {
    /// Crash/respawn cycles driven (and observed) by the run.
    pub respawns: u64,
    /// Mean time from the crash injection to the first successful op on
    /// the respawned incarnation (ns).
    pub mean_respawn_ns: u64,
    /// Client op throughput over the whole campaign, crash windows
    /// included (Mops/s) — what a caller actually gets from a service that
    /// keeps dying and recovering.
    pub recovery_mops: f64,
}

/// Drives `cycles` crash → quarantine → respawn rounds against a
/// supervised single-shard service, measuring recovery latency
/// (inject → first success on the bumped generation) and the throughput
/// of a synchronous churn loop threaded through the crashes.
pub fn run_kv_recovery<S: ShardStore>(cycles: u32, churn_per_cycle: u64) -> KvRecoveryResult {
    let svc = KvService::<S>::start(
        KvConfig {
            shards: 1,
            batch: 16,
            ring_depth: 256,
            buckets: 256,
            ..KvConfig::new()
        }
        .with_op_timeout(Duration::from_secs(5))
        .with_retries(8),
    );
    let mut client = svc.client();
    let mut ops = 0u64;
    let mut respawn_ns_total = 0u64;
    let t_campaign = mono_ns();
    for cycle in 0..cycles as u64 {
        // Churn so the domain holds real garbage when the crash lands.
        for k in 0..churn_per_cycle {
            let key = cycle * 100_000 + k;
            let _ = client.insert(key, key);
            let _ = client.remove(key);
            ops += 2;
        }
        let gen_before = svc.generation(0).0;
        let t0 = mono_ns();
        assert!(svc.inject_crash(0), "crash command not accepted");
        // The probe is queued behind the crash command, so its first
        // success is necessarily served by the respawned incarnation.
        while client.get(cycle).is_err() {
            ops += 1;
        }
        ops += 1;
        respawn_ns_total += mono_ns().saturating_sub(t0);
        debug_assert!(svc.generation(0).0 > gen_before);
    }
    let elapsed_s = (mono_ns() - t_campaign) as f64 / 1e9;
    let health = svc.health();
    let respawns: u64 = health.shards.iter().map(|h| h.respawns).sum();
    svc.shutdown();
    KvRecoveryResult {
        respawns,
        mean_respawn_ns: respawn_ns_total / u64::from(cycles.max(1)),
        recovery_mops: ops as f64 / elapsed_s / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_service::HppStore;

    #[test]
    fn quick_run_produces_sane_numbers() {
        let mut rc = KvRun::read_mostly(2).quick();
        rc.warmup = Duration::from_millis(20);
        rc.duration = Duration::from_millis(100);
        rc.keys = 1_024;
        let r = run_kv::<HppStore>(&rc);
        assert!(r.total_mops > 0.0, "no throughput measured: {r:?}");
        assert!(r.measured_ops > 0, "no latencies sampled");
        assert!(r.p50_ns > 0 && r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(r.min_shard_mops <= r.max_shard_mops);
        assert_eq!(r.timeouts, 0, "healthy quick run must not time out");
    }

    #[test]
    fn recovery_run_measures_respawn_latency() {
        let r = run_kv_recovery::<HppStore>(2, 64);
        assert_eq!(r.respawns, 2, "every injected crash must respawn: {r:?}");
        assert!(r.mean_respawn_ns > 0, "respawn latency not measured: {r:?}");
        assert!(r.recovery_mops > 0.0, "no throughput through the crashes: {r:?}");
    }
}
