//! A tiny seeded generator for the link adversary's decision stream
//! and the engines' link jitter: splitmix64 instead of an RNG
//! dependency, because both only need to be deterministic per seed and
//! well-spread, not of statistical quality.

/// splitmix64 (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        let xs: Vec<u64> = (0..16).map(|_| a.below(100)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.below(100)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 100));
        assert!(xs.iter().collect::<std::collections::BTreeSet<_>>().len() > 8);
    }

    #[test]
    fn zero_bound_is_zero() {
        assert_eq!(SplitMix64::new(1).below(0), 0);
    }
}
