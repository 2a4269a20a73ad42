//! Actor identifiers, operation identifiers, and vector clocks.

use std::collections::BTreeMap;
use std::fmt;

/// Identity of a replica (the cloud master or one edge node).
///
/// Actor ids totally order concurrent operations (ties on the Lamport
/// counter are broken by actor), so they must be unique per replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActorId(pub u64);

impl ActorId {
    /// Construct an actor id from a raw integer.
    pub fn new(id: u64) -> Self {
        ActorId(id)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor-{:x}", self.0)
    }
}

/// Identifier of a single CRDT operation: a Lamport counter paired with the
/// actor that generated it. The derived lexicographic order (counter first,
/// then actor) is the total order used for last-writer-wins resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    pub counter: u64,
    pub actor: ActorId,
}

impl OpId {
    /// Construct an op id.
    pub fn new(counter: u64, actor: ActorId) -> Self {
        OpId { counter, actor }
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.counter, self.actor)
    }
}

/// A vector clock mapping each actor to the highest *change sequence
/// number* observed from it. Used both as change dependencies and as the
/// "since" cursor of `get_changes` (§III-G.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VClock(pub BTreeMap<ActorId, u64>);

impl VClock {
    /// The empty clock (nothing observed).
    pub fn new() -> Self {
        VClock::default()
    }

    /// Sequence number observed for `actor` (0 when never seen).
    pub fn get(&self, actor: ActorId) -> u64 {
        self.0.get(&actor).copied().unwrap_or(0)
    }

    /// Record that `seq` changes from `actor` have been observed.
    /// Keeps the maximum.
    pub fn observe(&mut self, actor: ActorId, seq: u64) {
        let e = self.0.entry(actor).or_insert(0);
        if seq > *e {
            *e = seq;
        }
    }

    /// Whether every entry of `other` is ≤ the corresponding entry here
    /// (i.e. `other`'s dependencies are satisfied by this clock).
    pub fn dominates(&self, other: &VClock) -> bool {
        other.0.iter().all(|(a, s)| self.get(*a) >= *s)
    }

    /// Pointwise maximum with `other`.
    pub fn merge(&mut self, other: &VClock) {
        for (a, s) in &other.0 {
            self.observe(*a, *s);
        }
    }

    /// Pointwise minimum with `other` — the greatest clock dominated by
    /// both. An actor absent from either side has implicit 0, so only
    /// actors present in both with a nonzero minimum survive. This is the
    /// safe compaction frontier across a set of peer ack clocks.
    pub fn meet(&self, other: &VClock) -> VClock {
        let mut out = BTreeMap::new();
        for (a, s) in &self.0 {
            let m = (*s).min(other.get(*a));
            if m > 0 {
                out.insert(*a, m);
            }
        }
        VClock(out)
    }

    /// Total number of changes summarized by this clock.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Number of actors with a nonzero entry.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no actor has been observed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, s)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}:{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opid_total_order_breaks_ties_by_actor() {
        let a = OpId::new(5, ActorId(1));
        let b = OpId::new(5, ActorId(2));
        let c = OpId::new(6, ActorId(1));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn vclock_observe_keeps_max() {
        let mut c = VClock::new();
        c.observe(ActorId(1), 3);
        c.observe(ActorId(1), 2);
        assert_eq!(c.get(ActorId(1)), 3);
    }

    #[test]
    fn vclock_dominates() {
        let mut a = VClock::new();
        a.observe(ActorId(1), 2);
        a.observe(ActorId(2), 1);
        let mut deps = VClock::new();
        deps.observe(ActorId(1), 2);
        assert!(a.dominates(&deps));
        deps.observe(ActorId(3), 1);
        assert!(!a.dominates(&deps));
    }

    #[test]
    fn vclock_merge_pointwise_max() {
        let mut a = VClock::new();
        a.observe(ActorId(1), 2);
        let mut b = VClock::new();
        b.observe(ActorId(1), 1);
        b.observe(ActorId(2), 4);
        a.merge(&b);
        assert_eq!(a.get(ActorId(1)), 2);
        assert_eq!(a.get(ActorId(2)), 4);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn vclock_meet_pointwise_min() {
        let mut a = VClock::new();
        a.observe(ActorId(1), 5);
        a.observe(ActorId(2), 2);
        let mut b = VClock::new();
        b.observe(ActorId(1), 3);
        b.observe(ActorId(3), 7);
        let m = a.meet(&b);
        assert_eq!(m.get(ActorId(1)), 3);
        // actor 2 absent from b (implicit 0) and actor 3 absent from a
        assert_eq!(m.get(ActorId(2)), 0);
        assert_eq!(m.get(ActorId(3)), 0);
        assert!(a.dominates(&m));
        assert!(b.dominates(&m));
        assert_eq!(a.meet(&a), a);
    }
}
