//! Latency recorder with log-linear buckets: exact below 64 ns, then 64
//! buckets per power of two, so no bucket is wider than 1/64 (1.6%) of its
//! lower edge. Failed operations go to an overflow count that sits beyond
//! every percentile.

const SUB: u64 = 64;
const BUCKETS: usize = 59 * SUB as usize;

pub struct Hist {
    counts: Vec<u64>,
    failed: u64,
}

fn index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as u64; // >= 6
    let shift = exp - 6;
    ((exp - 5) * SUB + ((ns >> shift) & (SUB - 1))) as usize
}

/// Midpoint of bucket `i`, in ns.
fn value(i: usize) -> f64 {
    let i = i as u64;
    if i < 2 * SUB {
        return i as f64;
    }
    let exp = i / SUB + 5;
    let width = 1u64 << (exp - 6);
    ((SUB + i % SUB) * width) as f64 + (width as f64 - 1.0) / 2.0
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            failed: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
    }

    pub fn record_failed(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.failed += other.failed;
    }

    /// Samples recorded, failures included.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.failed
    }

    /// The `pct` percentile in ns, or `None` when it falls among the failed
    /// operations (or nothing was recorded).
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((pct / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(value(i));
            }
        }
        None
    }

    /// The highest of the usual reporting percentiles that still has at
    /// least ten samples beyond it.
    pub fn top_percentile(&self) -> f64 {
        let n = self.count() as f64;
        [99.999, 99.99, 99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0;
        for ns in 1..1_000_000u64 {
            let i = index(ns);
            assert!(i == last || i == last + 1, "gap at {ns}");
            last = i;
            let mid = value(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 64.0 + 0.5,
                "{ns} -> {mid}"
            );
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn failures_sit_beyond_every_percentile() {
        let mut h = Hist::default();
        for ns in 1..=99 {
            h.record(ns);
        }
        h.record_failed();
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(99.0), Some(99.0));
        assert_eq!(h.percentile(100.0), None);
    }
}
