//! Graceful-degradation detection for stalled reclamation.
//!
//! The paper's Table 1 claim is about *failure modes*: when a thread stalls
//! or dies, HP/HP++/PEBR keep unreclaimed garbage bounded while EBR's grows
//! without limit. [`GarbageWatchdog`] turns that claim into an observable:
//! a harness samples a scheme-appropriate *progress token* (the global
//! epoch for EBR/PEBR, [`counters::total_freed`](crate::counters::total_freed)
//! for the hazard-based schemes) together with the current garbage count,
//! and the watchdog classifies the run as healthy, degraded-but-bounded, or
//! growing without bound.

use std::time::{Duration, Instant};

/// Health classification produced by [`GarbageWatchdog::observe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogStatus {
    /// Reclamation is making progress (the progress token advanced
    /// recently) and garbage is within the configured bound.
    Healthy,
    /// Progress has stalled but garbage stayed within the bound — the
    /// graceful degradation hazard-based schemes promise under Table 1.
    DegradedBounded {
        /// Highest garbage count seen so far.
        peak: usize,
    },
    /// Progress has stalled for at least the configured window *and*
    /// garbage kept growing past the bound — EBR's failure mode.
    GrowingUnbounded {
        /// Garbage count at the offending observation.
        garbage: usize,
        /// How long the progress token has been stuck.
        stalled_for: Duration,
    },
}

/// A payload-free mirror of [`WatchdogStatus`], cheap enough to store in an
/// atomic (the kv-service per-shard health word).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Verdict {
    /// No watchdog has reported yet.
    #[default]
    Unknown,
    /// Garbage within bound, collector making progress.
    Healthy,
    /// Stalled but within the derived bound.
    DegradedBounded,
    /// Stalled and past the bound — the Table-1 failure mode.
    GrowingUnbounded,
}

impl Verdict {
    /// Encodes the verdict for storage in an atomic.
    pub fn encode(self) -> u8 {
        match self {
            Verdict::Unknown => 0,
            Verdict::Healthy => 1,
            Verdict::DegradedBounded => 2,
            Verdict::GrowingUnbounded => 3,
        }
    }

    /// Inverse of [`encode`](Self::encode); unknown raw values decode to
    /// [`Verdict::Unknown`].
    pub fn decode(raw: u8) -> Self {
        match raw {
            1 => Verdict::Healthy,
            2 => Verdict::DegradedBounded,
            3 => Verdict::GrowingUnbounded,
            _ => Verdict::Unknown,
        }
    }

    /// Whether this verdict signals memory pressure rather than health.
    pub fn is_pressure(self) -> bool {
        matches!(self, Verdict::DegradedBounded | Verdict::GrowingUnbounded)
    }
}

impl From<&WatchdogStatus> for Verdict {
    fn from(status: &WatchdogStatus) -> Self {
        match status {
            WatchdogStatus::Healthy => Verdict::Healthy,
            WatchdogStatus::DegradedBounded { .. } => Verdict::DegradedBounded,
            WatchdogStatus::GrowingUnbounded { .. } => Verdict::GrowingUnbounded,
        }
    }
}

/// Classifies sampled (progress token, garbage count) pairs; see the
/// module docs for what to feed it per scheme.
pub struct GarbageWatchdog {
    bound: usize,
    stall_window: Duration,
    last_progress: Option<(u64, Instant)>,
    peak: usize,
}

impl GarbageWatchdog {
    /// `bound` is the garbage ceiling the scheme is expected to respect
    /// (e.g. HP's `k·H + threshold` formula); `stall_window` is how long
    /// the progress token may sit still before the watchdog calls the run
    /// stalled.
    pub fn new(bound: usize, stall_window: Duration) -> Self {
        Self {
            bound,
            stall_window,
            last_progress: None,
            peak: 0,
        }
    }

    /// Feeds one sample. `progress_token` is any monotonically increasing
    /// counter that moves iff reclamation moves; `garbage` is the current
    /// unreclaimed count.
    pub fn observe(&mut self, progress_token: u64, garbage: usize) -> WatchdogStatus {
        self.observe_at(progress_token, garbage, Instant::now())
    }

    fn observe_at(&mut self, token: u64, garbage: usize, now: Instant) -> WatchdogStatus {
        self.peak = self.peak.max(garbage);
        let stalled_for = match &mut self.last_progress {
            Some((last, since)) if *last == token => now.saturating_duration_since(*since),
            slot => {
                *slot = Some((token, now));
                Duration::ZERO
            }
        };
        if stalled_for < self.stall_window {
            if garbage <= self.bound {
                WatchdogStatus::Healthy
            } else {
                // Over bound but the scheme is still reclaiming: give it the
                // benefit of the stall window before declaring unbounded.
                WatchdogStatus::DegradedBounded { peak: self.peak }
            }
        } else if garbage <= self.bound {
            WatchdogStatus::DegradedBounded { peak: self.peak }
        } else {
            WatchdogStatus::GrowingUnbounded {
                garbage,
                stalled_for,
            }
        }
    }

    /// Highest garbage count observed so far.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The configured garbage ceiling.
    pub fn bound(&self) -> usize {
        self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: Duration = Duration::from_millis(100);

    #[test]
    fn advancing_token_within_bound_is_healthy() {
        let mut w = GarbageWatchdog::new(100, WINDOW);
        let t0 = Instant::now();
        for i in 0..10 {
            let s = w.observe_at(i, 50, t0 + Duration::from_millis(50 * i as u32 as u64));
            assert_eq!(s, WatchdogStatus::Healthy);
        }
        assert_eq!(w.peak(), 50);
    }

    #[test]
    fn stalled_token_within_bound_is_degraded_bounded() {
        let mut w = GarbageWatchdog::new(100, WINDOW);
        let t0 = Instant::now();
        assert_eq!(w.observe_at(7, 90, t0), WatchdogStatus::Healthy);
        let s = w.observe_at(7, 99, t0 + Duration::from_millis(250));
        assert_eq!(s, WatchdogStatus::DegradedBounded { peak: 99 });
    }

    #[test]
    fn stalled_token_over_bound_is_growing() {
        let mut w = GarbageWatchdog::new(100, WINDOW);
        let t0 = Instant::now();
        w.observe_at(7, 50, t0);
        let s = w.observe_at(7, 5000, t0 + Duration::from_millis(300));
        match s {
            WatchdogStatus::GrowingUnbounded {
                garbage,
                stalled_for,
            } => {
                assert_eq!(garbage, 5000);
                assert!(stalled_for >= WINDOW);
            }
            other => panic!("expected GrowingUnbounded, got {other:?}"),
        }
    }

    #[test]
    fn progress_resets_the_stall_clock() {
        let mut w = GarbageWatchdog::new(100, WINDOW);
        let t0 = Instant::now();
        w.observe_at(1, 5000, t0);
        // Token advanced: even over-bound garbage is not "unbounded growth".
        let s = w.observe_at(2, 5000, t0 + Duration::from_millis(300));
        assert_eq!(s, WatchdogStatus::DegradedBounded { peak: 5000 });
        // And a long stretch after the advance counts from the advance.
        let s = w.observe_at(2, 6000, t0 + Duration::from_millis(301));
        assert_eq!(s, WatchdogStatus::DegradedBounded { peak: 6000 });
        let s = w.observe_at(2, 6001, t0 + Duration::from_millis(600));
        assert!(matches!(s, WatchdogStatus::GrowingUnbounded { .. }));
    }
}
