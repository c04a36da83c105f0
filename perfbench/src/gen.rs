//! Seeded input generation. Every input a run uses comes from here, so the
//! same `--seed` always yields the same key sets and op streams. Key skew
//! and op mixes come from the repository's benchmark library
//! (`bench::workload`); this module only supplies the seeded stream.

use bench::workload::{Op, OpMix};

/// SplitMix64: small, fast and good enough for key streams.
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed` (one per thread).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// A stored value: never one of the checker's sentinels.
    pub fn value(&mut self) -> u64 {
        (self.next() >> 2) | 1
    }
}

impl rand::RngCore for Rng {
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// Exactly `count` distinct keys of `[0, range)`, chosen by the seed.
pub fn prefill_keys(rng: &mut Rng, range: u64, count: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..range).collect();
    for i in 0..count {
        let j = i + rng.below((keys.len() - i) as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(count);
    keys
}

/// `len` map ops with uniform keys of `[0, range)`, drawn from `mix`.
pub fn map_ops(rng: &mut Rng, len: usize, range: u64, mix: &OpMix) -> Vec<(Op, u64)> {
    (0..len)
        .map(|_| {
            let op = mix.pick(rng.next());
            (op, rng.below(range))
        })
        .collect()
}

/// The value a map workload stores under `key`, so any read can be checked.
pub fn map_value(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}
