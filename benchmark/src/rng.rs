//! The harness's one random source: a private splitmix64.
//!
//! Everything the product sees — graph seed, delta stream, query mix,
//! arrival schedule — is drawn from streams forked off `--seed` here, so a
//! run is a pure function of its seed and the product receives only
//! generated inputs. It is deliberately not imported from the product: the
//! product's own generators may change without moving the benchmark's
//! inputs.

/// Deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose (`label` names it), so adding
    /// draws to one stream never shifts another.
    pub fn fork(&self, label: u64) -> Self {
        let mut parent = Self(self.0 ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential inter-arrival gap, in nanoseconds, for a Poisson
    /// stream of `rate_hz` arrivals per second.
    pub fn exp_gap_ns(&mut self, rate_hz: f64) -> u64 {
        (-(1.0 - self.next_f64()).ln() / rate_hz * 1e9) as u64
    }
}

/// FNV-1a over a stream of words: the op-schedule hash the seed tests and
/// the result envelope use to show that two runs drew the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleHash(u64);

impl Default for ScheduleHash {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl ScheduleHash {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        let root = SplitMix::new(7);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
        assert_ne!(SplitMix::new(7).next_u64(), SplitMix::new(8).next_u64());
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix::new(1);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        let mean: f64 = (0..20_000)
            .map(|_| r.exp_gap_ns(20_000.0) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 50_000.0).abs() < 2_500.0, "mean gap {mean}");
    }
}
