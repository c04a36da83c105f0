//! Epoch-based reclamation (EBR), built from scratch.
//!
//! This is the workspace's implementation of the classic Fraser/Harris
//! epoch-based scheme (the paper used `crossbeam-epoch`; we implement the
//! same algorithm in-tree so the entire substrate is auditable):
//!
//! * A global epoch counter advances when every *pinned* participant has
//!   observed the current epoch.
//! * Threads **pin** before touching shared nodes and **unpin** when done;
//!   a pinned thread protects every block that was not retired before its
//!   pin.
//! * Retired blocks are stamped with the epoch at retirement and freed once
//!   the global epoch is two ahead — by then no pinned thread can still hold
//!   a reference.
//!
//! EBR is fast and universally applicable but **not robust**: one stalled
//! pinned thread stops the epoch and garbage grows without bound (paper
//! §2.4). The benchmark harness measures exactly this.
//!
//! The implementation is engineered to be competitive with
//! `crossbeam-epoch` (the EBR the paper benchmarked against): pin/unpin
//! uses the asymmetric light/heavy fence pair instead of a per-pin `SeqCst`
//! fence, the participant registry is a lock-free intrusive list instead of
//! a mutex-guarded vector, and garbage lives in sealed per-epoch generation
//! bags that free whole expired generations in O(bag). See
//! `collector.rs`'s module docs for the code-inspection notes and
//! `EBR_COLLECT_THRESHOLD` in EXPERIMENTS.md for the collection knob.
//!
//! # Example
//!
//! ```
//! use smr_common::{Atomic, Shared};
//! use std::sync::atomic::Ordering::{AcqRel, Acquire};
//!
//! let mut handle = ebr::default_collector().register();
//!
//! let slot = Atomic::new(41u64);
//! {
//!     let guard = handle.pin(); // critical section
//!     let old = slot.load(Acquire);
//!     assert_eq!(unsafe { *old.deref() }, 41);
//!
//!     // Swap in a new value and retire the old block.
//!     let fresh = Shared::from_owned(42u64);
//!     let prev = slot.swap(fresh, AcqRel);
//!     unsafe { guard.defer_destroy(prev) };
//!     // `old`/`prev` stay dereferenceable until the guard drops and two
//!     // epochs pass.
//!     assert_eq!(unsafe { *prev.deref() }, 41);
//! }
//! # unsafe { slot.into_owned(); }
//! ```

#![warn(missing_docs)]

mod bags;
mod collector;
mod guard;

pub use collector::{trigger, Collector, LocalHandle};
pub use guard::Guard;

use smr_common::{GuardedScheme, SchemeGuard, Shared};

/// Returns the process-wide default collector.
pub fn default_collector() -> &'static Collector {
    static DEFAULT: Collector = Collector::new();
    &DEFAULT
}

/// Named fault-injection points compiled into this crate (each a
/// `smr_common::fault_point!` site; no-ops without the `fault-injection`
/// feature). DESIGN.md §1.7 documents the invariant each one attacks.
pub const FAULT_POINTS: &[&str] = &[
    "ebr::pin::before_validate",
    "ebr::defer::after_push",
    "ebr::advance::before_traverse",
    "ebr::advance::before_publish",
    "ebr::collect::after_adopt",
    "ebr::teardown::before_donate",
];

/// Marker type wiring EBR into the [`GuardedScheme`] interface.
pub struct Ebr;

impl GuardedScheme for Ebr {
    type Handle = LocalHandle;
    type Guard<'a> = Guard<'a>;

    fn handle() -> LocalHandle {
        default_collector().register()
    }

    fn pin(handle: &mut LocalHandle) -> Guard<'_> {
        handle.pin()
    }
}

impl SchemeGuard for Guard<'_> {
    unsafe fn defer_destroy<T>(&self, ptr: Shared<T>) {
        Guard::defer_destroy(self, ptr)
    }

    fn refresh(&mut self) {
        Guard::repin(self)
    }
}
