//! Sharded key-value service over SMR-protected maps.
//!
//! The system-level payoff of the paper's robustness story: N shards, each
//! wrapping an SMR-protected hash map with its **own reclamation domain**
//! (a private [`hp_plus::Domain`] or [`ebr::Collector`] per shard), so
//! garbage pressure and collector stalls never cross shard boundaries. One
//! wedged shard degrades that shard alone — the scheme-level guarantee the
//! fault matrix proves (Table 1) lifted to service scope.
//!
//! Architecture:
//!
//! * **Routing** — keys hash to shards via a SplitMix64 finalizer and a
//!   widening multiply ([`shard_of_key`]); the shard's own map then hashes
//!   into its buckets independently.
//! * **Command rings** — each shard owns one bounded MPSC ring
//!   ([`ring::Ring`], Vyukov-style sequence slots). Producers back off via
//!   [`smr_common::Backoff`] (spin → yield → park) when the ring is full;
//!   there is no unbounded queue anywhere, so the service runs on a fixed
//!   thread pool (one worker per shard) instead of thread-per-client.
//! * **Batched workers** — each shard's worker drains up to
//!   [`KvConfig::batch`] commands per wakeup, and an emptied ring keeps it
//!   awake for a short yielding idle phase before it parks, so pipelined
//!   windows rarely pay the doorbell round-trip at all. Map-level guard
//!   state is acquired once per worker (the handle lives for the shard's
//!   lifetime) and per-batch bookkeeping — stats, garbage sampling —
//!   amortizes across the batch.
//! * **Stores** — [`store::ShardStore`] plugs schemes through the existing
//!   `GuardedScheme`/`ConcurrentMap` plumbing: HP++ by default
//!   ([`store::HppStore`]), per-shard EBR ([`store::EbrStore`]),
//!   shared-collector EBR ([`store::EbrSharedStore`], deliberately
//!   *without* isolation, as the A/B baseline) and leaking NR
//!   ([`store::NrStore`]).
//!
//! Crash story: a worker that panics closes and drains its ring on the way
//! out (every queued command resolves to a typed error), donates its
//! reclamation state through the scheme's own panic-safe teardown, and
//! sibling shards never notice. See `tests/shard_isolation.rs`.
//!
//! Recovery story (on by default, [`KvConfig::supervise`]): a
//! [`supervisor`] thread notices the death, **quarantines** the poisoned
//! reclamation domain — leaks it, records its settled garbage against the
//! scheme's published bound — and respawns the worker on a fresh ring +
//! fresh store under a bumped [`Generation`]. Nothing is replayed; clients
//! see [`KvError::RetryAfter`] and drive their own bounded retries under a
//! per-op deadline. See `tests/recovery.rs` and the root `tests/chaos.rs`
//! campaign harness.

mod ring;
mod service;
mod shard;
mod supervisor;
pub mod store;

pub use ring::{Command, PushError};
pub use service::{Client, HealthSnapshot, KvService, ShardHealth};
pub use shard::ShardStatsSnapshot;
pub use store::{EbrSharedStore, EbrStore, HppStore, HyalineStore, NrStore, ShardStore};
pub use supervisor::QuarantineRecord;

/// Fault points owned by this crate (see `smr_common::fault`).
pub const FAULT_POINTS: &[&str] = &[
    "kv::ring::full",
    "kv::worker::batch",
    "kv::worker::reply",
    "kv::quarantine::leak",
    "kv::supervisor::respawn",
];

/// A command could not be completed because its shard's worker is gone
/// (panicked or shut down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDown;

impl std::fmt::Display for ShardDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("shard worker is down")
    }
}

impl std::error::Error for ShardDown {}

/// The incarnation number of one shard's worker + store. Starts at 0 and
/// bumps once per supervised respawn. Recovery is lossy by contract — the
/// respawned store is empty and nothing queued on the dead ring is
/// replayed — so the generation is the client's signal that state it wrote
/// before the bump may be gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Generation(pub u64);

impl std::fmt::Display for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gen{}", self.0)
    }
}

/// Why a client operation failed. The three variants split the old
/// catch-all [`ShardDown`] by what the caller should *do*:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The shard's worker died but the service supervises it: a fresh
    /// worker is (being) respawned on the carried generation. Retry the
    /// command; state from before the bump may be lost.
    RetryAfter(Generation),
    /// The service is shutting down (or runs unsupervised and the shard is
    /// permanently dead). Stop sending.
    Stopped,
    /// The per-op deadline ([`KvConfig::op_timeout`]) elapsed before the
    /// command resolved — the shard may be wedged rather than dead.
    DeadlineExceeded,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::RetryAfter(g) => write!(f, "shard restarting ({g}); retry"),
            KvError::Stopped => f.write_str("service stopped"),
            KvError::DeadlineExceeded => f.write_str("operation deadline exceeded"),
        }
    }
}

impl std::error::Error for KvError {}

/// Service configuration. Defaults come from the host shape; every field
/// has an env override so deployments tune without recompiling.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Number of shards (workers). Default: available cores, `KV_SHARDS`.
    pub shards: usize,
    /// Max commands a worker drains per wakeup. Default 32, `KV_BATCH`.
    pub batch: usize,
    /// Per-shard command ring capacity, rounded up to a power of two.
    /// Default 1024, `KV_RING`.
    pub ring_depth: usize,
    /// Hash buckets per shard's map. Default `ds::hash_map::DEFAULT_BUCKETS`,
    /// `KV_BUCKETS`.
    pub buckets: usize,
    /// Reclamation trigger of every shard's private domain. Only
    /// [`PolicyKind::Capped`](smr_common::policy::PolicyKind::Capped)
    /// exists: each scheme's own inline trigger.
    pub policy: smr_common::policy::PolicyKind,
    /// Whether the supervisor respawns dead workers (quarantining their
    /// domain) instead of leaving the shard permanently down. Default true;
    /// only tests turn it off, through [`KvConfig::with_supervision`].
    pub supervise: bool,
    /// Per-operation client deadline: the worst case one `get`/`insert`/
    /// `remove` call may block across pushes, waits and retries before
    /// resolving to [`KvError::DeadlineExceeded`]. The clock starts at the
    /// op's first wait (a full ring, a pending reply or a dead shard), so
    /// an op that never waits never reads it. Default 5 s,
    /// `KV_OP_TIMEOUT_MS`.
    pub op_timeout: std::time::Duration,
    /// Bounded retry budget for one-shot client calls that hit
    /// [`KvError::RetryAfter`] (shard respawning): how many times the call
    /// re-pushes, with `smr_common::Backoff`-jittered spacing, before
    /// surfacing the error. Default 3, `KV_OP_RETRIES` (0 allowed).
    pub retries: u32,
}

impl KvConfig {
    /// Built-in defaults for the current host (no env consulted).
    pub fn new() -> Self {
        Self {
            shards: available_cores(),
            batch: 32,
            ring_depth: 1024,
            buckets: ds::hash_map::DEFAULT_BUCKETS,
            policy: smr_common::policy::PolicyKind::Capped,
            supervise: true,
            op_timeout: std::time::Duration::from_millis(5_000),
            retries: 3,
        }
    }

    /// Defaults with `KV_SHARDS` / `KV_BATCH` / `KV_RING` / `KV_BUCKETS` /
    /// `KV_OP_TIMEOUT_MS` / `KV_OP_RETRIES` applied. Unparseable or zero
    /// values fall back to the default.
    pub fn from_env() -> Self {
        let mut cfg = Self::new();
        cfg.shards = env_usize("KV_SHARDS").unwrap_or(cfg.shards);
        cfg.batch = env_usize("KV_BATCH").unwrap_or(cfg.batch);
        cfg.ring_depth = env_usize("KV_RING").unwrap_or(cfg.ring_depth);
        cfg.buckets = env_usize("KV_BUCKETS").unwrap_or(cfg.buckets);
        cfg.op_timeout = smr_common::env::parse_u64("KV_OP_TIMEOUT_MS")
            .filter(|&ms| ms > 0)
            .map(std::time::Duration::from_millis)
            .unwrap_or(cfg.op_timeout);
        cfg.retries = smr_common::env::parse_u32("KV_OP_RETRIES").unwrap_or(cfg.retries);
        cfg
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style supervision toggle (off = PR-7 containment-only
    /// semantics: a dead shard stays dead and fails fast).
    pub fn with_supervision(mut self, supervise: bool) -> Self {
        self.supervise = supervise;
        self
    }

    /// Builder-style per-op deadline override.
    pub fn with_op_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Builder-style retry-budget override.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Available cores, the default shard count.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn env_usize(name: &str) -> Option<usize> {
    smr_common::env::parse_usize(name).filter(|&n| n > 0)
}

/// SplitMix64 finalizer: decorrelates the shard index from the maps' own
/// bucket hash and from adversarially sequential keys.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a key onto `[0, shards)` — widening multiply on the mixed key, so
/// every shard gets an equal slice of the hash space with no division.
#[inline]
pub fn shard_of_key(key: u64, shards: usize) -> usize {
    ((mix64(key) as u128 * shards as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_in_range_and_balanced() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let mut counts = vec![0u64; shards];
            for key in 0..32_000u64 {
                let s = shard_of_key(key, shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            let expect = 32_000.0 / shards as f64;
            for (i, &c) in counts.iter().enumerate() {
                let skew = (c as f64 - expect).abs() / expect;
                assert!(skew < 0.10, "shard {i}/{shards} skew {skew:.3} ({c} keys)");
            }
        }
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = KvConfig::new();
        assert!(cfg.shards >= 1);
        assert!(cfg.batch >= 1);
        assert!(cfg.ring_depth >= 2);
    }
}
