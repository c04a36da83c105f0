//! Shared infrastructure for safe memory reclamation (SMR) schemes.
//!
//! This crate hosts the pieces that every reclamation scheme and every
//! concurrent data structure in the workspace builds on:
//!
//! * [`tagged`] — bit-twiddling helpers for pointer tagging (logical deletion
//!   marks, HP++ invalidation marks).
//! * [`atomic`] — [`Atomic<T>`](atomic::Atomic) / [`Shared<T>`](atomic::Shared),
//!   tagged atomic pointers used by all schemes and data structures.
//! * [`fence`] — the asymmetric light/heavy fence pair from HP++ §3.4,
//!   implemented with Linux `membarrier(2)` when available and falling back to
//!   plain `SeqCst` fences elsewhere.
//! * [`counters`] — global garbage + contention accounting used by the
//!   benchmark harness to reproduce the paper's "unreclaimed blocks"
//!   figures and to report CAS retry/backoff rates.
//! * [`backoff`] — the tunable spin/yield/park exponential
//!   [`Backoff`](backoff::Backoff) threaded through every CAS retry loop
//!   in `crates/ds` (knobs: `SMR_BACKOFF_SPIN_LIMIT`, `SMR_BACKOFF_MAX_EXP`,
//!   `SMR_NO_BACKOFF`).
//! * [`map`] — the [`ConcurrentMap`] trait every
//!   benchmarked structure implements, plus the [`GuardedScheme`]
//!   abstraction shared by the guard-based schemes (NR, EBR, PEBR).
//! * [`registry`] — a lock-free intrusive list of per-thread records
//!   (Harris-style mark-then-unlink deletion) backing EBR's participant
//!   registry.
//! * [`time`] — a minimal monotonic-nanosecond clock used by the benchmark
//!   harness's per-operation latency recording.
//! * [`fault`] — named fault-injection points (compile-time no-ops unless
//!   the `fault-injection` feature is on) driving the adversarial
//!   robustness matrix in `tests/fault_matrix.rs`.
//! * [`watchdog`] — [`GarbageWatchdog`](watchdog::GarbageWatchdog), which
//!   classifies a run as healthy / degraded-bounded / growing-unbounded
//!   from sampled progress + garbage counters (the Table 1 failure modes),
//!   and its payload-free [`Verdict`](watchdog::Verdict).
//! * [`policy`] — [`Capped`](policy::Capped), the count-or-cadence scan
//!   trigger each scheme evaluates inline on its retire path
//!   (`hp::trigger()`, `ebr::trigger()`, …).
//! * [`env`] — shared env-var parsing with malformed-value accounting
//!   (one warning + one [`counters::env_malformed`] bump per bad value).

#![warn(missing_docs)]

pub mod atomic;
pub mod backoff;
pub mod counters;
pub mod env;
pub mod fault;
pub mod fence;
pub mod map;
pub mod policy;
pub mod registry;
pub mod retired;
pub mod tagged;
pub mod time;
pub mod util;
pub mod watchdog;

pub use atomic::{Atomic, Shared};
pub use backoff::Backoff;
pub use map::{ConcurrentMap, GuardedScheme, SchemeGuard};
pub use retired::Retired;
pub use util::CachePadded;

/// Named fault-injection points compiled into this crate (each a
/// [`fault_point!`] site; no-ops without the `fault-injection` feature).
pub const FAULT_POINTS: &[&str] = backoff::FAULT_POINTS;
