//! Locations and location sets.
//!
//! The paper fixes a finite set Π of `n` *location IDs* (§3.1). We
//! represent a location as a dense index [`Loc`] and sets of locations
//! as a 128-bit bitset [`LocSet`], so Π may contain up to 128
//! locations — enough for the n = 128 throughput grid, and far beyond
//! anything the execution-tree analysis can explore anyway.
//!
//! A `LocSet` is a `u128` held at 4-byte alignment
//! (`#[repr(C, packed(4))]`). A bare `u128` is 16-aligned, which pads
//! every type holding one: the action alphabet moves by value through
//! every engine, and the 4-byte layout shrinks
//! [`Action`](crate::action::Action) from 96 to 56 bytes. Values,
//! ordering, hashes, `Debug` output and the 16-byte wire encoding are
//! the `u128`'s own, unchanged.

use std::fmt;

/// A location ID (an element of Π).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u8);

impl Loc {
    /// Index as usize (for vector addressing).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u8> for Loc {
    fn from(v: u8) -> Self {
        Loc(v)
    }
}

/// The universe Π = {p0, …, p(n−1)} of location IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pi {
    n: u8,
}

impl Pi {
    /// A universe of `n` locations.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > 128`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=128).contains(&n),
            "Pi supports 1..=128 locations, got {n}"
        );
        Pi { n: n as u8 }
    }

    /// Number of locations.
    #[must_use]
    pub fn len(self) -> usize {
        self.n as usize
    }

    /// Always false: Π is nonempty by construction.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Iterate over all locations in order.
    pub fn iter(self) -> impl Iterator<Item = Loc> {
        (0..self.n).map(Loc)
    }

    /// True iff `l` is a member of Π.
    #[must_use]
    pub fn contains(self, l: Loc) -> bool {
        l.0 < self.n
    }

    /// The full set Π as a [`LocSet`].
    #[must_use]
    pub fn all(self) -> LocSet {
        if self.n == 128 {
            LocSet(u128::MAX)
        } else {
            LocSet((1u128 << self.n) - 1)
        }
    }
}

/// A set of locations, represented as a bitset.
///
/// Packed to 4-byte alignment (see the module docs). The derives copy
/// the field out, so they behave exactly as on a bare `u128`; taking
/// `&set.0` does not compile (E0793) — copy the value instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(C, packed(4))]
pub struct LocSet(pub u128);

impl LocSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        LocSet(0)
    }

    /// A singleton set.
    #[must_use]
    pub fn singleton(l: Loc) -> Self {
        LocSet(1u128 << l.0)
    }

    /// Build from an iterator of locations.
    #[must_use]
    pub fn from_iter_locs<I: IntoIterator<Item = Loc>>(locs: I) -> Self {
        let mut s = LocSet::empty();
        for l in locs {
            s.insert(l);
        }
        s
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, l: Loc) -> bool {
        self.0 & (1u128 << l.0) != 0
    }

    /// Insert `l`.
    pub fn insert(&mut self, l: Loc) {
        self.0 |= 1u128 << l.0;
    }

    /// Remove `l`.
    pub fn remove(&mut self, l: Loc) {
        self.0 &= !(1u128 << l.0);
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: LocSet) -> LocSet {
        LocSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: LocSet) -> LocSet {
        LocSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: LocSet) -> LocSet {
        LocSet(self.0 & !other.0)
    }

    /// True iff the two sets intersect.
    #[must_use]
    pub fn intersects(self, other: LocSet) -> bool {
        self.0 & other.0 != 0
    }

    /// True iff `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: LocSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate members in increasing order.
    pub fn iter(self) -> LocSetIter {
        LocSetIter(self.0)
    }

    /// The minimum member, if any. (`min(Π \ crashset)` drives the
    /// canonical Ω automaton, Algorithm 1.)
    #[must_use]
    pub fn min(self) -> Option<Loc> {
        if self.0 == 0 {
            None
        } else {
            Some(Loc(self.0.trailing_zeros() as u8))
        }
    }

    /// The maximum member, if any. (`max(Π \ crashset)` drives the
    /// canonical anti-Ω automaton.)
    #[must_use]
    pub fn max(self) -> Option<Loc> {
        if self.0 == 0 {
            None
        } else {
            Some(Loc(127 - self.0.leading_zeros() as u8))
        }
    }

    /// The `k` smallest members (all members if fewer than `k`).
    #[must_use]
    pub fn take_min(self, k: usize) -> LocSet {
        self.iter().take(k).collect()
    }
}

impl fmt::Display for LocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, l) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Loc> for LocSet {
    fn from_iter<I: IntoIterator<Item = Loc>>(iter: I) -> Self {
        LocSet::from_iter_locs(iter)
    }
}

/// Iterator over the members of a [`LocSet`].
#[derive(Debug, Clone)]
pub struct LocSetIter(u128);

impl Iterator for LocSetIter {
    type Item = Loc;

    fn next(&mut self) -> Option<Loc> {
        if self.0 == 0 {
            None
        } else {
            let l = Loc(self.0.trailing_zeros() as u8);
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_iterates_all_locations() {
        let pi = Pi::new(3);
        assert_eq!(pi.len(), 3);
        assert_eq!(pi.iter().collect::<Vec<_>>(), vec![Loc(0), Loc(1), Loc(2)]);
        assert!(pi.contains(Loc(2)));
        assert!(!pi.contains(Loc(3)));
        assert_eq!(pi.all(), LocSet(0b111));
        assert!(!pi.is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=128")]
    fn pi_rejects_zero() {
        let _ = Pi::new(0);
    }

    #[test]
    #[should_panic(expected = "1..=128")]
    fn pi_rejects_129() {
        let _ = Pi::new(129);
    }

    #[test]
    fn pi_supports_128_locations() {
        let pi = Pi::new(128);
        assert_eq!(pi.all().len(), 128);
        assert_eq!(pi.all().max(), Some(Loc(127)));
        assert!(pi.all().contains(Loc(127)));
    }

    #[test]
    fn locset_basic_ops() {
        let mut s = LocSet::empty();
        assert!(s.is_empty());
        s.insert(Loc(1));
        s.insert(Loc(5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Loc(5)));
        assert!(!s.contains(Loc(0)));
        s.remove(Loc(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Loc(1)]);
    }

    #[test]
    fn locset_algebra() {
        let a: LocSet = [Loc(0), Loc(1)].into_iter().collect();
        let b: LocSet = [Loc(1), Loc(2)].into_iter().collect();
        assert_eq!(a.union(b), [Loc(0), Loc(1), Loc(2)].into_iter().collect());
        assert_eq!(a.intersection(b), LocSet::singleton(Loc(1)));
        assert_eq!(a.difference(b), LocSet::singleton(Loc(0)));
        assert!(a.intersects(b));
        assert!(a.intersection(b).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn locset_min_matches_algorithm_one() {
        let pi = Pi::new(4);
        let crashed = LocSet::singleton(Loc(0));
        assert_eq!(pi.all().difference(crashed).min(), Some(Loc(1)));
        assert_eq!(LocSet::empty().min(), None);
    }

    #[test]
    fn display_formats() {
        let s: LocSet = [Loc(0), Loc(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{p0,p2}");
        assert_eq!(Loc(7).to_string(), "p7");
        assert_eq!(LocSet::empty().to_string(), "{}");
    }

    #[test]
    fn from_u8_conversion() {
        assert_eq!(Loc::from(3u8), Loc(3));
        assert_eq!(Loc(3).index(), 3);
    }

    fn hash_of<T: std::hash::Hash>(x: T) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Everything observable about `LocSet(a)` is what the bare `u128`
    /// `a` gives: the packed layout changes storage, not behaviour.
    fn assert_same_as_u128(a: u128, b: u128) {
        let (sa, sb) = (LocSet(a), LocSet(b));
        assert_eq!(sa.cmp(&sb), a.cmp(&b), "{a} vs {b}");
        assert_eq!(sa == sb, a == b);
        assert_eq!(hash_of(sa), hash_of(a), "hash of {a}");
        assert_eq!(format!("{sa:?}"), format!("LocSet({a})"));
        let members: Vec<Loc> = (0..128u8).filter(|&i| a >> i & 1 == 1).map(Loc).collect();
        assert_eq!(sa.iter().collect::<Vec<_>>(), members);
        assert_eq!(sa.len(), a.count_ones() as usize);
        assert_eq!(sa.min(), members.first().copied());
        assert_eq!(sa.max(), members.last().copied());
        let shown: Vec<String> = members.iter().map(ToString::to_string).collect();
        assert_eq!(sa.to_string(), format!("{{{}}}", shown.join(",")));
    }

    #[test]
    fn packed_layout_is_unobservable() {
        assert_eq!(std::mem::size_of::<LocSet>(), 16);
        assert_eq!(std::mem::align_of::<LocSet>(), 4);
        let edges = [
            0,
            1,
            1 << 63,
            1 << 64,
            1 << 127,
            (1 << 64) - 1,
            u128::MAX << 64,
            u128::MAX - 1,
            u128::MAX,
        ];
        for a in edges {
            for b in edges {
                assert_same_as_u128(a, b);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random pairs, with the high word (bits 64..128) drawn as
        /// often as the low one and one case in four forced to
        /// `u128::MAX` or to equality.
        #[test]
        fn packed_layout_is_unobservable_on_random_sets(
            a_hi in 0u64..=u64::MAX,
            a_lo in 0u64..=u64::MAX,
            b_hi in 0u64..=u64::MAX,
            b_lo in 0u64..=u64::MAX,
            shape in 0u8..8,
        ) {
            let a = u128::from(a_hi) << 64 | u128::from(a_lo);
            let b = match shape {
                0 => a,
                1 => u128::MAX,
                2 => u128::from(b_hi) << 64,
                _ => u128::from(b_hi) << 64 | u128::from(b_lo),
            };
            assert_same_as_u128(a, b);
            assert_same_as_u128(b, a);
        }
    }
}
