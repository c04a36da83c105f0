//! HP — the original hazard pointers (Michael 2002/2004) with the
//! asymmetric-fence optimization of the HP++ paper (§3.4).
//!
//! A thread that wants to access a node first **announces** the pointer in a
//! hazard slot, then **validates** that the node is still reachable (an
//! over-approximation of "not retired"). A thread that retires a node defers
//! it to a local bag; reclamation scans all hazard slots and frees only the
//! unannounced retired nodes.
//!
//! The announce/validate fast path issues only a *light* fence (a compiler
//! fence when `membarrier(2)` is available); reclamation issues the matching
//! process-wide *heavy* fence before scanning.
//!
//! The [`hp-plus`](../hp_plus/index.html) crate extends — not modifies —
//! this crate, exactly as HP++ extends HP in the paper (§4.2).
//!
//! # Example: the Treiber-stack protection pattern (paper Fig. 2)
//!
//! ```
//! use smr_common::{Atomic, Shared};
//! use std::sync::atomic::Ordering::AcqRel;
//!
//! let mut thread = hp::default_domain().register();
//! let hp_slot = thread.hazard_pointer();
//!
//! let head = Atomic::new("top");
//!
//! // Announce + validate in a loop: `protect` retries until the load from
//! // `head` is covered by the announcement.
//! let h = hp_slot.protect(&head);
//! assert_eq!(unsafe { *h.deref() }, "top");
//!
//! // Another thread swaps out the node and retires it...
//! let old = head.swap(Shared::from_owned("new-top"), AcqRel);
//! unsafe { thread.retire(old.as_raw()) };
//!
//! // ...but the announcement keeps it alive through a reclamation pass.
//! thread.reclaim();
//! assert_eq!(unsafe { *h.deref() }, "top");
//!
//! hp_slot.reset();
//! thread.reclaim(); // now it is freed
//! # unsafe { head.into_owned(); }
//! ```

#![warn(missing_docs)]

mod domain;
mod hazard;
mod thread;

pub use domain::{default_domain, Domain};
pub use hazard::HazardPointer;
pub use thread::Thread;

/// Minimum number of retires between reclamation attempts (paper §5: 128).
///
/// The effective trigger is adaptive: a thread scans once its retired bag
/// reaches `max(RECLAIM_THRESHOLD, k · H)` where `H` is the number of live
/// hazard slots in the domain and `k` is [`reclaim_k`]. The floor keeps
/// scans amortized at low thread counts; the `k · H` term is Michael's
/// `R = H(1 + ε)` rule, which keeps the *per-free* scan cost O(k/(k-1))
/// instead of degrading as hazard arrays grow with thread count.
pub const RECLAIM_THRESHOLD: usize = 128;

/// Default `k` of the adaptive reclaim trigger (`R = k · H`): every scan of
/// `H` hazard slots frees at least `(k-1) · H` nodes, so scan cost per
/// freed node is bounded by `k/(k-1)` comparisons. 2 balances memory bound
/// (at most `2H + RECLAIM_THRESHOLD` unreclaimed per thread) against scan
/// amortization.
pub const RECLAIM_K: usize = 2;

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "hp::protect::after_announce",
    "hp::retire::after_push",
    "hp::reclaim::before_fence",
    "hp::reclaim::after_snapshot",
    "hp::teardown::before_reclaim",
];

/// The effective adaptive-threshold multiplier, overridable for ablations
/// via the `HP_RECLAIM_K` environment variable (read once, at first use).
pub fn reclaim_k() -> usize {
    use std::sync::OnceLock;
    static K: OnceLock<usize> = OnceLock::new();
    *K.get_or_init(|| {
        smr_common::env::parse_usize("HP_RECLAIM_K")
            .filter(|&k| k > 0)
            .unwrap_or(RECLAIM_K)
    })
}

/// HP's scan trigger: `retired ≥ max(RECLAIM_THRESHOLD, reclaim_k() · H)`
/// with `H` the domain's hazard-slot capacity, evaluated on every retire.
#[inline]
pub fn trigger() -> smr_common::policy::Capped {
    smr_common::policy::Capped {
        floor: RECLAIM_THRESHOLD,
        k: reclaim_k(),
        period: 0,
    }
}
