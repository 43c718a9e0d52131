//! [`SeenSeqs`]: the sequence numbers one reliable-layer channel has
//! carried, in space bounded by how far out of order they arrive
//! rather than by how many there were.
//!
//! Both the metrics observer and `RunStats` count a `Data` frame as a
//! retransmission (or a duplicate delivery) when its `(from, to, seq)`
//! was already seen. A stubborn sender's first transmissions do not
//! leave in seq order — `ReliableLink` sends `queue[tx_pos % window]`
//! from a window of up to `SEND_WINDOW` (8) frames, and the wire may
//! reorder and duplicate — so a high-water mark would miscount. A
//! cumulative floor plus a 64-seq window above it answers exactly
//! while holding O(1) state for any stream whose gaps close within 64
//! of the floor; seqs further out go to an exact overflow set, so the
//! answers stay those of a `BTreeSet` for arbitrary streams.

use std::collections::BTreeSet;

/// Width of the bitmap window above the floor.
const WINDOW: u64 = u64::BITS as u64;

/// A set of `u32` sequence numbers: every seq below the floor `lo` is a
/// member, bit `k` of `window` records `lo + k`, and members at or
/// beyond `lo + 64` sit in `far`. The floor advances past the window's
/// low run of ones, pulling `far` members into the window as it
/// reaches them.
#[derive(Debug, Clone, Default)]
pub struct SeenSeqs {
    lo: u64,
    window: u64,
    far: BTreeSet<u32>,
}

impl SeenSeqs {
    /// Add `seq`; true iff it was not already a member (the answer of
    /// `BTreeSet::insert`).
    pub fn insert(&mut self, seq: u32) -> bool {
        let Some(off) = u64::from(seq).checked_sub(self.lo) else {
            return false;
        };
        if off >= WINDOW {
            return self.far.insert(seq);
        }
        if self.window & (1 << off) != 0 {
            return false;
        }
        self.window |= 1 << off;
        loop {
            let run = self.window.trailing_ones();
            if run == 0 {
                return true;
            }
            self.lo += u64::from(run);
            self.window = self.window.checked_shr(run).unwrap_or(0);
            // `far` holds only seqs ≥ the old `lo + 64`, so ≥ the new `lo`.
            while let Some(&s) = self.far.first() {
                let off = u64::from(s) - self.lo;
                if off >= WINDOW {
                    break;
                }
                self.far.pop_first();
                self.window |= 1 << off;
            }
        }
    }

    /// Members stored individually above the floor (window bits plus
    /// overflow) — at most 64 while the stream's gaps stay within the
    /// window.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.window.count_ones() as usize + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn floor_advances_over_out_of_order_first_sends() {
        let mut s = SeenSeqs::default();
        // A growing send window: seq 2 leaves before seq 1.
        for seq in [0, 2, 1, 3] {
            assert!(s.insert(seq));
        }
        assert_eq!((s.lo, s.retained()), (4, 0));
        for seq in [0, 1, 2, 3] {
            assert!(!s.insert(seq), "retransmission of {seq}");
        }
        assert!(s.insert(100), "far beyond the window");
        assert_eq!(s.far.len(), 1);
        for seq in 4..100 {
            assert!(s.insert(seq));
        }
        assert_eq!((s.lo, s.retained()), (101, 0), "overflow pulled in");
        assert!(!s.insert(100));
    }

    #[test]
    fn floor_reaches_past_u32_max() {
        let mut s = SeenSeqs {
            lo: u64::from(u32::MAX) - 1,
            ..SeenSeqs::default()
        };
        assert!(s.insert(u32::MAX));
        assert!(s.insert(u32::MAX - 1));
        assert_eq!((s.lo, s.retained()), (1 << 32, 0));
        assert!(!s.insert(u32::MAX));
        assert!(!s.insert(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random `(from, to, seq)` streams — duplicates, reordering
        /// within a window, seqs far beyond it and near `u32::MAX` —
        /// one `SeenSeqs` per channel answers every insert exactly as
        /// one `BTreeSet` over the triples does.
        #[test]
        fn insert_answers_match_a_btreeset(
            seed in 0u64..u64::MAX,
            len in 1usize..3_000,
            reorder in 1u32..80,
            far_pct in 0u32..=20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sets: BTreeMap<(u8, u8), SeenSeqs> = BTreeMap::new();
            let mut model: BTreeSet<(u8, u8, u32)> = BTreeSet::new();
            // Per channel, the next seq a stubborn sender would add.
            let mut next: BTreeMap<(u8, u8), u32> = BTreeMap::new();
            for _ in 0..len {
                let ch = (rng.gen_range(0u8..3), rng.gen_range(0u8..3));
                let base = *next.entry(ch).or_insert_with(|| {
                    if rng.gen_range(0u32..4) == 0 { u32::MAX - 200 } else { 0 }
                });
                let seq = if rng.gen_range(0u32..100) < far_pct {
                    rng.gen_range(0u32..=u32::MAX)
                } else {
                    base.saturating_sub(reorder).saturating_add(rng.gen_range(0..2 * reorder))
                };
                if rng.gen_range(0u32..3) == 0 {
                    next.insert(ch, base.saturating_add(1));
                }
                let got = sets.entry(ch).or_default().insert(seq);
                prop_assert_eq!(got, model.insert((ch.0, ch.1, seq)), "seq {}", seq);
            }
        }
    }
}
