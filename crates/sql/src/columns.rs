//! Sets of a table's columns, by position: what a write changed and what a
//! read referenced, in one word.

/// A set of column positions. Position `i` is bit `i`; the last bit stands
/// for every position from [`ColumnSet::BITS`]` - 1` on, so a table wider
/// than that shares one bit among its last columns — coarser, never wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ColumnSet(u64);

impl ColumnSet {
    /// Positions a set tells apart.
    pub const BITS: usize = 64;
    /// No column.
    pub const NONE: ColumnSet = ColumnSet(0);
    /// Every column.
    pub const ALL: ColumnSet = ColumnSet(u64::MAX);

    /// The set holding position `i`.
    #[must_use]
    pub fn of(i: usize) -> ColumnSet {
        ColumnSet(1 << i.min(Self::BITS - 1))
    }

    /// The first `n` positions: every column of an `n`-column table.
    #[must_use]
    pub fn first(n: usize) -> ColumnSet {
        match n {
            0 => ColumnSet::NONE,
            n if n >= Self::BITS => ColumnSet::ALL,
            n => ColumnSet((1 << n) - 1),
        }
    }

    /// `self` with position `i` added.
    #[must_use]
    pub fn with(self, i: usize) -> ColumnSet {
        self.union(ColumnSet::of(i))
    }

    /// Positions in either set.
    #[must_use]
    pub fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Whether every position of `other` is in `self`.
    #[must_use]
    pub fn covers(self, other: ColumnSet) -> bool {
        other.0 & !self.0 == 0
    }

    /// Whether the set holds no position.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set's bits, ascending.
    pub fn bits(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_past_the_last_bit_share_it() {
        assert_eq!(ColumnSet::of(63), ColumnSet::of(200));
        assert!(ColumnSet::first(64).covers(ColumnSet::of(500)));
        assert_eq!(ColumnSet::first(70), ColumnSet::ALL);
        let s = ColumnSet::NONE.with(1).with(4);
        assert_eq!(s.bits().collect::<Vec<_>>(), vec![1, 4]);
        assert!(s.covers(ColumnSet::of(4)) && !s.covers(ColumnSet::of(2)));
        assert!(s.covers(ColumnSet::NONE) && ColumnSet::NONE.is_empty());
        assert_eq!(ColumnSet::first(3), ColumnSet::NONE.with(0).with(1).with(2));
    }
}
