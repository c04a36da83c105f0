//! The reclamation trigger every scheme shares.
//!
//! Every scheme in the workspace amortizes its retire→scan→free cost the
//! same way: retirement is O(1), and one fixed count or cadence decides
//! when a retire pays for a scan. [`Capped`] is that decision as one
//! parameterization. Each scheme builds its own value and evaluates
//! [`Capped::fires`] inline at its retire point:
//!
//! | scheme | trigger function | `Capped {floor, k, period}` | `slots` |
//! |---|---|---|---|
//! | hp | `hp::trigger()` | `{128, HP_RECLAIM_K, 0}` | hazard-slot capacity |
//! | hp-plus | `hp_plus::unlink_trigger()` | `{0, 0, HPP_RECLAIM_PERIOD}` | (cadence on `ops`) |
//! | ebr | `ebr::trigger()` | `{EBR_COLLECT_THRESHOLD, 8, 0}` | live participants |
//! | pebr | `pebr::trigger()` | `{128, 0, 0}` | 0 |
//! | hyaline | `hyaline::trigger()` | `{HYALINE_BATCH_THRESHOLD, 8, 0}` | live handles |
//!
//! A scheme bumps [`counters::policy_scans_forced`](crate::counters::policy_scans_forced)
//! each time its trigger fires, so benches can report scans per retire.

/// One scheme's scan trigger.
///
/// Fires when **either** enabled branch says so:
///
/// * count branch (enabled when `floor > 0 || k > 0`):
///   `retired ≥ max(floor, k·slots)`;
/// * cadence branch (enabled when `period > 0`):
///   `ops > 0 && ops % period == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capped {
    /// Minimum retired count before the count branch can fire.
    pub floor: usize,
    /// Slot multiplier of the count branch.
    pub k: usize,
    /// Operation cadence of the cadence branch (0 disables it).
    pub period: u64,
}

impl Capped {
    /// Count-branch trigger threshold at `slots` protection slots.
    #[inline]
    pub fn threshold(&self, slots: usize) -> usize {
        self.floor.max(self.k.saturating_mul(slots))
    }

    /// The derived worst-case cap `k·slots + floor` that the Table-1
    /// robustness tests check garbage against.
    pub fn bound(&self, slots: usize) -> usize {
        self.k.saturating_mul(slots).saturating_add(self.floor)
    }

    /// Whether a thread holding `retired` unreclaimed blocks, in a domain
    /// with `slots` protection slots, at its `ops`-th cadence operation,
    /// should scan now. Schemes without a cadence counter pass `ops = 0`.
    #[inline]
    pub fn fires(&self, retired: usize, slots: usize, ops: u64) -> bool {
        let by_count = (self.floor > 0 || self.k > 0) && retired >= self.threshold(slots);
        let by_cadence = self.period > 0 && ops > 0 && ops.is_multiple_of(self.period);
        by_count || by_cadence
    }
}

/// The reclamation trigger a KV shard is built with.
///
/// Only [`PolicyKind::Capped`] exists: every scheme decides a scan with
/// its one inline [`Capped`] trigger. The type stays because
/// `kv_service::ShardStore::new_shard`, `kv_service::KvConfig::policy` and
/// the repository benchmark (`perfbench/`) name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The scheme's own [`Capped`] trigger.
    #[default]
    Capped,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same xorshift the fault plans use — deterministic, no deps.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn capped_reproduces_legacy_hp_trigger_exactly() {
        // hp's pre-policy predicate: retired.len() >= max(128, k * slot_capacity).
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for k in [1usize, 2, 5] {
            let policy = Capped {
                floor: 128,
                k,
                period: 0,
            };
            for _ in 0..4096 {
                let retired = (rng.next() % 4096) as usize;
                let slots = (rng.next() % 512) as usize;
                let legacy = retired >= 128usize.max(k * slots);
                let got = policy.fires(retired, slots, 0);
                assert_eq!(got, legacy, "hp mismatch at retired={retired} slots={slots} k={k}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_ebr_trigger_exactly() {
        // ebr's pre-policy predicate: bags.len() >= max(floor, 8 * participants).
        let mut rng = XorShift(0x2545f4914f6cdd1d);
        for floor in [1usize, 128, 400] {
            let policy = Capped {
                floor,
                k: 8,
                period: 0,
            };
            for _ in 0..4096 {
                let bags = (rng.next() % 4096) as usize;
                let live = (rng.next() % 64) as usize;
                let legacy = bags >= floor.max(8 * live);
                let got = policy.fires(bags, live, 0);
                assert_eq!(got, legacy, "ebr mismatch at bags={bags} live={live} floor={floor}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_hpp_cadence_exactly() {
        // hp-plus's pre-policy predicate: unlink_count.is_multiple_of(period)
        // evaluated after the increment (so ops >= 1 always).
        let mut rng = XorShift(0xdeadbeefcafef00d);
        for period in [32u64, 128, 1] {
            let policy = Capped {
                floor: 0,
                k: 0,
                period,
            };
            for _ in 0..4096 {
                let ops = 1 + rng.next() % 1024;
                let legacy = ops.is_multiple_of(period);
                // Must be ignored: the count branch is unarmed.
                let retired = (rng.next() % 64) as usize;
                let got = policy.fires(retired, 0, ops);
                assert_eq!(got, legacy, "hpp mismatch at ops={ops} period={period}");
            }
        }
    }

    #[test]
    fn capped_reproduces_legacy_pebr_trigger_exactly() {
        // pebr's pre-policy predicate: garbage.len() >= 128, no multiplier.
        let policy = Capped {
            floor: 128,
            k: 0,
            period: 0,
        };
        for retired in 0..512 {
            let legacy = retired >= 128;
            let got = policy.fires(retired, 7, 0);
            assert_eq!(got, legacy, "pebr mismatch at retired={retired}");
        }
    }

    #[test]
    fn capped_reproduces_legacy_hyaline_trigger_exactly() {
        // hyaline's handover predicate:
        // batch_len >= max(HYALINE_BATCH_THRESHOLD, 8 * live handles).
        let mut rng = XorShift(0x853c49e6748fea9b);
        for floor in [1usize, 16, 128, 1000] {
            let policy = Capped {
                floor,
                k: 8,
                period: 0,
            };
            for _ in 0..4096 {
                let batch = (rng.next() % 2048) as usize;
                let live = (rng.next() % 256) as usize;
                let legacy = batch >= floor.max(8 * live);
                let got = policy.fires(batch, live, 0);
                assert_eq!(got, legacy, "hyaline mismatch at batch={batch} live={live} floor={floor}");
            }
        }
    }
}
