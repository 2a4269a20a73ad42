//! The replicated unit: a map of key → register.
//!
//! A [`Doc`] is a state-based CRDT holding, per key, the values not yet
//! superseded; a read takes the one with the greatest op id. Every write
//! puts a whole value, which is what the paper's generated wiring
//! (§III-G.1) hands the CRDT. Replicas exchange the slots of the keys a
//! peer has not seen via [`Doc::get_changes`] / [`Doc::apply_changes`] (the
//! paper's `getChanges` / `applyChanges`), and replicas that have seen the
//! same writes read the same values.
//!
//! # Namespaces
//!
//! A key's first char names its namespace, and each namespace keeps its
//! own Lamport counter. Units that share one document as namespaces (the
//! runtime tags every key with its table, or as a file or a global) so
//! give a write the op id it would get, and resolve concurrent writes as
//! they would, in a document holding that unit alone.
//! [`Doc::entries_under`] reads one namespace.
//!
//! # Sync from stamped state
//!
//! Every value a key holds, and every delete not yet compacted, is a
//! [`Stamp`]: beside its op id it carries the *dot* `(actor, seq)` of the
//! write that made it. The clock covers every dot the document holds, and
//! a per-actor index from seq to slot covers every dot but the shared
//! snapshot's. A delta is read from the state: [`Doc::get_changes`] walks
//! each actor's index above the peer's clock and ships each key it meets
//! once, its whole slot. [`Doc::apply_changes`] merges a slot under the
//! sender's clock — a held value the sender has seen but no longer holds
//! was superseded there — and joins the clocks. That is sound only when
//! the message holds everything the sender has above what the receiver
//! holds, so a message whose base the receiver's clock does not cover is
//! refused whole (Almeida, Shoker and Baquero, "Delta State Replicated
//! Data Types", 2018).
//!
//! A delete is kept as a tombstone until every peer has seen it: without
//! its dot no walk of the index would meet the key, and a peer that holds
//! the deleted value would keep it. [`Doc::compact`] drops the tombstones
//! a frontier covers.

use crate::change::{read_image_slot, write_stamps, Slot, Stamp, Value};
use crate::ids::{ActorId, OpId, VClock};
use crate::table::{KeyTable, KeysRead};
use crate::wire::{ascending, corrupt, put_str, put_varint, Reader, Sink};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Error raised by replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrdtError {
    /// Bytes that are not a slot or an image: truncated, malformed or not
    /// in the one canonical form.
    CorruptChange(String),
}

impl fmt::Display for CrdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrdtError::CorruptChange(m) => write!(f, "corrupt change: {m}"),
        }
    }
}

impl std::error::Error for CrdtError {}

// ---- save image -----------------------------------------------------------
//
// The registers must round-trip exactly, op ids and dots included: future
// writes resolve against op ids and merges against dots, so an image cannot
// be rebuilt from plain state. DESIGN.md "Sync wire format" has the layout;
// the primitives are `crate::wire`'s.

/// What an image starts with: three magic bytes and the layout's version.
const IMAGE_MAGIC: [u8; 4] = *b"EDG\x07";

/// The namespace of `key`: its first char (`'\0'` for the empty key).
fn namespace(key: &str) -> char {
    key.chars().next().unwrap_or('\0')
}

/// The actor id used for deterministic snapshot initialization.
pub const GENESIS_ACTOR: ActorId = ActorId(0);

/// A replicated map of key → register.
///
/// # Examples
///
/// ```
/// use edgstr_crdt::{ActorId, Doc, Value};
/// use serde_json::json;
///
/// let mut cloud = Doc::new(ActorId(1));
/// let mut edge = Doc::new(ActorId(2));
/// cloud.put("sensors", Value::Json(json!({"count": 0})));
/// let changes = cloud.get_changes(edge.clock());
/// let base = edge.clock().clone();
/// edge.apply_changes(&base, cloud.clock(), changes);
/// assert!(edge.entries().eq(cloud.entries()));
/// ```
#[derive(Debug, Clone)]
pub struct Doc {
    actor: ActorId,
    /// The Lamport counter of each namespace: the greatest op counter
    /// written or merged there.
    counters: BTreeMap<char, u64>,
    /// Covers every dot the document holds, and every write it has seen.
    clock: VClock,
    /// key → its slot. A key whose slot holds only tombstones reads as
    /// absent and stays until compaction drops them.
    registers: BTreeMap<Arc<str>, Slot>,
    /// Keys whose slot holds a value.
    live: usize,
    /// actor → seq → the slot holding that dot, for every dot held but
    /// the shared snapshot's.
    dots: BTreeMap<ActorId, BTreeMap<u64, Slot>>,
    /// The dots of the tombstones held, for compaction.
    tombstones: BTreeSet<(ActorId, u64)>,
}

impl Doc {
    /// Create an empty document owned by `actor`.
    pub fn new(actor: ActorId) -> Self {
        Doc {
            actor,
            counters: BTreeMap::new(),
            clock: VClock::new(),
            registers: BTreeMap::new(),
            live: 0,
            dots: BTreeMap::new(),
            tombstones: BTreeSet::new(),
        }
    }

    /// Create a document holding `entries` (a key given twice holds its
    /// last value).
    ///
    /// The entries are written by the reserved [`GENESIS_ACTOR`] as one
    /// write, seq 1, one op id per key in key order, so the cloud master
    /// and every edge replica initialized from the same entries hold
    /// byte-identical registers — the paper's "initialize both the master
    /// and the replicas with the same snapshot" step (§III-G.1).
    ///
    /// Because every replica already holds them, the genesis dots are never
    /// indexed: [`Doc::get_changes`] never ships them, whatever cursor a
    /// peer presents.
    pub fn from_snapshot(
        actor: ActorId,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> Self {
        let entries: BTreeMap<String, Value> = entries.into_iter().collect();
        let mut doc = Doc::new(GENESIS_ACTOR);
        for (key, value) in entries {
            let id = doc.next_op(&key);
            let stamp = Stamp {
                id,
                seq: 1,
                value: Some(value),
            };
            let key: Arc<str> = key.into();
            doc.registers
                .insert(Arc::clone(&key), Slot::one(key, stamp));
            doc.live += 1;
            doc.clock.observe(GENESIS_ACTOR, 1);
        }
        doc.actor = actor;
        doc
    }

    /// The replica that owns this document.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The clock of every write this replica has seen.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Number of tombstones resident in this replica — the deletes a peer
    /// may not have seen yet, which [`Doc::compact`] drops once it has.
    pub fn history_len(&self) -> usize {
        self.tombstones.len()
    }

    // ---- local mutation API ------------------------------------------------

    /// Write `value` at `key`, superseding every value the key holds.
    pub fn put(&mut self, key: &str, value: Value) {
        self.write(key, Some(value));
    }

    /// Delete `key` (no change when it holds nothing).
    pub fn delete(&mut self, key: &str) {
        if self.get(key).is_some() {
            self.write(key, None);
        }
    }

    // ---- read API ----------------------------------------------------------

    /// The value at `key`: of the values not superseded, the one with the
    /// greatest op id.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.registers.get(key)?.value()
    }

    /// Every key and the value [`Doc::get`] reads there, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.registers
            .iter()
            .filter_map(|(key, slot)| Some((&**key, slot.value()?)))
    }

    /// The slots of the keys that start with `prefix`, in key order,
    /// tombstones and all.
    pub fn slots_under<'a, 'p>(
        &'a self,
        prefix: &'p str,
    ) -> impl Iterator<Item = &'a Slot> + use<'a, 'p> {
        let from = (Bound::Included(prefix), Bound::Unbounded);
        self.registers
            .range::<str, _>(from)
            .map_while(move |(key, slot)| key.starts_with(prefix).then_some(slot))
    }

    /// The keys that start with `prefix`, each with the prefix cut off, and
    /// the value [`Doc::get`] reads there, in key order.
    pub fn entries_under<'a, 'p>(
        &'a self,
        prefix: &'p str,
    ) -> impl Iterator<Item = (&'a str, &'a Value)> + use<'a, 'p> {
        self.slots_under(prefix)
            .filter_map(move |slot| Some((&slot.key()[prefix.len()..], slot.value()?)))
    }

    /// Number of keys holding a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no key holds a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    // ---- replication API (the paper's initialize/getChanges/applyChanges) --

    /// The slot of every key holding a dot that `since` does not cover,
    /// each once, ordered by that key's smallest such dot.
    ///
    /// Cost is O(actors · log n + delta): per actor the index is walked
    /// from the seq `since` covers, and each slot returned is another handle on the
    /// register's record (a reference count, no copy). A receiver merges
    /// them under this document's clock ([`Doc::apply_changes`]).
    pub fn get_changes(&self, since: &VClock) -> Vec<Slot> {
        let mut out = Vec::new();
        for (actor, index) in &self.dots {
            let above = (Bound::Excluded(since.get(*actor)), Bound::Unbounded);
            for (seq, slot) in index.range(above) {
                if slot.first_dot_above(since) == Some((*actor, *seq)) {
                    out.push(slot.clone());
                }
            }
        }
        out
    }

    /// Merge the slots a peer sent under `clock`, the peer's clock, and
    /// join the clocks. `base` is what the peer read them above
    /// ([`Doc::get_changes`]' `since`): unless this document's clock covers
    /// it, the slots may miss a write this document has not seen, and the
    /// message is refused whole (`None`, nothing changes).
    ///
    /// Per key, a held write survives unless the peer has seen it and no
    /// longer holds it (it was superseded there); a tombstone survives
    /// until compaction. The peer's writes this document has not seen are
    /// added. Takes the slots over: where the merged slot is the peer's,
    /// the register holds the record the message carried. Returns the keys
    /// whose slot changed — the invalidation signal for per-unit version
    /// counters.
    pub fn apply_changes(
        &mut self,
        base: &VClock,
        clock: &VClock,
        changes: Vec<Slot>,
    ) -> Option<BTreeSet<Arc<str>>> {
        if !self.clock.dominates(base) {
            return None;
        }
        let mut touched = BTreeSet::new();
        for theirs in changes {
            let mine = self.registers.get(&**theirs.key()).cloned();
            let held = mine.as_ref().map_or(&[][..], Slot::stamps);
            let holds = |stamps: &[Stamp], id: OpId| stamps.iter().any(|s| s.id == id);
            let keep = |s: &&Stamp| {
                s.value.is_none() || !s.covered_by(clock) || holds(theirs.stamps(), s.id)
            };
            let add = |s: &&Stamp| !s.covered_by(&self.clock) && !holds(held, s.id);
            let kept = held.iter().filter(keep).count();
            let added = theirs.stamps().iter().filter(add).count();
            if kept == held.len() && added == 0 {
                continue;
            }
            let key = Arc::clone(mine.as_ref().map_or(theirs.key(), Slot::key));
            for stamp in theirs.stamps().iter().filter(add) {
                let counter = self.counters.entry(namespace(&key)).or_default();
                *counter = (*counter).max(stamp.id.counter);
            }
            let merged = match (kept, added) {
                (0, 0) => None,
                (0, n) if n == theirs.stamps().len() => Some(theirs.clone()),
                _ => {
                    let kept = held.iter().filter(keep);
                    let stamps = kept.chain(theirs.stamps().iter().filter(add));
                    Some(Slot::new(Arc::clone(&key), stamps.cloned().collect()))
                }
            };
            self.replace(&key, merged);
            touched.insert(key);
        }
        self.clock.merge(clock);
        Some(touched)
    }

    /// Drop every tombstone whose dot `frontier` covers. Returns the number
    /// dropped.
    ///
    /// Safety contract: `frontier` must be at or below the clock of every
    /// live peer — a tombstone dropped before a peer has seen it leaves the
    /// deleted value there for good. The runtime computes this frontier as
    /// the pointwise-min (`VClock::meet`) of peer ack clocks.
    pub fn compact(&mut self, frontier: &VClock) -> usize {
        let mut acked = Vec::new();
        for (actor, upto) in &frontier.0 {
            let range = (*actor, 0)..=(*actor, *upto);
            acked.extend(self.tombstones.range(range).copied());
        }
        for (actor, seq) in &acked {
            let slot = self.dots[actor][seq].clone();
            let key = Arc::clone(slot.key());
            let rest: Vec<Stamp> = slot
                .stamps()
                .iter()
                .filter(|s| (s.id.actor, s.seq) != (*actor, *seq))
                .cloned()
                .collect();
            let rest = (!rest.is_empty()).then(|| Slot::new(Arc::clone(&key), rest));
            self.replace(&key, rest);
        }
        acked.len()
    }

    /// Serialize this replica in the [`crate::wire`] codec: magic and
    /// version, the clock, the namespace counters, the key table of the
    /// rows the registers hold, then the registers in key order, each its
    /// key and its stamps (op id, seq, value or tombstone).
    ///
    /// A document restored by [`Doc::load`] is a faithful replica: it reads
    /// the same state and can exchange slots with the original — the image
    /// a fresh edge node is provisioned from. The image holds the values
    /// not superseded and the tombstones not compacted, nothing else: an
    /// overwritten row leaves its register when it is overwritten.
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put(&IMAGE_MAGIC);
        self.clock.write(&mut out);
        put_varint(&mut out, self.counters.len() as u64);
        for (namespace, counter) in &self.counters {
            put_varint(&mut out, u64::from(*namespace));
            put_varint(&mut out, *counter);
        }
        // one walk of the registers: the key table they name comes out
        // of it, and is written ahead of them
        let mut keys = KeyTable::default();
        let mut registers = Vec::new();
        put_varint(&mut registers, self.registers.len() as u64);
        for (key, slot) in &self.registers {
            put_str(&mut registers, key);
            write_stamps(&mut registers, slot.stamps(), &mut keys);
        }
        keys.write(&mut out);
        out.extend_from_slice(&registers);
        out
    }

    /// Reconstruct a document from [`Doc::save`] output, owned by `actor`,
    /// rebuilding its dot index.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] unless `bytes` is exactly what `save`
    /// writes for some document: on garbage, truncation or trailing bytes,
    /// another layout version, entries out of their canonical order, a key
    /// holding no write, a dot the clock does not cover or one held twice.
    /// Never panics; what it allocates is linear in `bytes.len()`.
    pub fn load(actor: ActorId, bytes: &[u8]) -> Result<Doc, CrdtError> {
        let mut r = Reader::new(bytes);
        if r.take(IMAGE_MAGIC.len())? != IMAGE_MAGIC {
            return Err(corrupt("not a save image"));
        }
        let mut doc = Doc::new(actor);
        doc.clock = VClock::read(&mut r)?;
        let mut last = None;
        // a namespace and a counter are two varints
        for _ in 0..r.count(2)? {
            let namespace = u32::try_from(r.varint()?).ok().and_then(char::from_u32);
            let namespace = namespace.ok_or_else(|| corrupt("a namespace is not a char"))?;
            ascending(&mut last, namespace)?;
            doc.counters.insert(namespace, r.varint()?);
        }
        let mut keys = KeysRead::read(&mut r)?;
        let mut dots: BTreeMap<ActorId, Vec<(u64, Slot)>> = BTreeMap::new();
        let mut last = None;
        // a key length and a stamp count at the least
        for _ in 0..r.count(2)? {
            let key = r.str()?;
            ascending(&mut last, key)?;
            let key: Arc<str> = key.into();
            let slot = read_image_slot(&mut r, Arc::clone(&key), &mut keys)?;
            for stamp in slot.stamps() {
                if !stamp.covered_by(&doc.clock) {
                    return Err(corrupt("a write the clock does not cover"));
                }
                if stamp.is_genesis() {
                    continue;
                }
                let (actor, seq) = (stamp.id.actor, stamp.seq);
                dots.entry(actor).or_default().push((seq, slot.clone()));
                if stamp.value.is_none() {
                    doc.tombstones.insert((actor, seq));
                }
            }
            doc.live += usize::from(slot.value().is_some());
            doc.registers.insert(key, slot);
        }
        keys.end()?;
        r.end()?;
        for (actor, mut index) in dots {
            index.sort_unstable_by_key(|(seq, _)| *seq);
            if index.windows(2).any(|w| w[0].0 == w[1].0) {
                return Err(corrupt("a write held twice"));
            }
            doc.dots.insert(actor, index.into_iter().collect());
        }
        Ok(doc)
    }

    // ---- internals ----------------------------------------------------------

    /// The id of the next op this replica writes at `key`.
    fn next_op(&mut self, key: &str) -> OpId {
        let counter = self.counters.entry(namespace(key)).or_default();
        *counter += 1;
        OpId::new(*counter, self.actor)
    }

    /// Write `value` (a delete when `None`) at `key` as this replica's
    /// next write: it supersedes everything the key holds, tombstones
    /// included, since every peer that sees it has seen what it replaced.
    fn write(&mut self, key: &str, value: Option<Value>) {
        let id = self.next_op(key);
        let seq = self.clock.get(self.actor) + 1;
        let key = match self.registers.get_key_value(key) {
            Some((key, _)) => Arc::clone(key),
            None => key.into(),
        };
        let slot = Slot::one(Arc::clone(&key), Stamp { id, seq, value });
        self.replace(&key, Some(slot));
        self.clock.observe(self.actor, seq);
    }

    /// Make `slot` what `key` holds (nothing, when `None`), keeping the
    /// dot index, the tombstones and the count of live keys in step.
    fn replace(&mut self, key: &Arc<str>, slot: Option<Slot>) {
        let old = match &slot {
            Some(slot) => self.registers.insert(Arc::clone(key), slot.clone()),
            None => self.registers.remove(key),
        };
        if let Some(old) = &old {
            self.live -= usize::from(old.value().is_some());
            for stamp in old.stamps().iter().filter(|s| !s.is_genesis()) {
                let dot = (stamp.id.actor, stamp.seq);
                if let Some(index) = self.dots.get_mut(&dot.0) {
                    index.remove(&dot.1);
                }
                if stamp.value.is_none() {
                    self.tombstones.remove(&dot);
                }
            }
        }
        if let Some(new) = &slot {
            self.live += usize::from(new.value().is_some());
            for stamp in new.stamps().iter().filter(|s| !s.is_genesis()) {
                let dot = (stamp.id.actor, stamp.seq);
                let index = self.dots.entry(dot.0).or_default();
                index.insert(dot.1, new.clone());
                if stamp.value.is_none() {
                    self.tombstones.insert(dot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value as Json};

    pub(super) fn j(v: Json) -> Value {
        Value::Json(v)
    }

    /// Merge everything `src` has that `dst` has not.
    pub(super) fn pull(dst: &mut Doc, src: &Doc) {
        let base = dst.clock().clone();
        let changes = src.get_changes(&base);
        dst.apply_changes(&base, src.clock(), changes)
            .expect("a peer's own clock is a base it covers");
    }

    pub(super) fn state(d: &Doc) -> Vec<(String, Value)> {
        d.entries()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn put_and_get_scalar() {
        let mut d = Doc::new(ActorId(1));
        d.put("a", j(json!(5)));
        assert_eq!(d.get("a"), Some(&j(json!(5))));
    }

    /// A JSON object is one register: it replicates whole, and a put of
    /// another object replaces it whole.
    #[test]
    fn structural_put_replicates_subtrees() {
        let mut d = Doc::new(ActorId(1));
        d.put("cfg", j(json!({"x": 1, "ys": [1, 2]})));
        let mut e = Doc::new(ActorId(2));
        pull(&mut e, &d);
        assert_eq!(e.get("cfg"), Some(&j(json!({"x": 1, "ys": [1, 2]}))));
        d.put("cfg", j(json!({"ys": []})));
        pull(&mut e, &d);
        assert_eq!(e.get("cfg"), Some(&j(json!({"ys": []}))));
    }

    /// An array is one value: put in one write, replaced whole.
    #[test]
    fn arrays_are_atomic_leaves() {
        let mut d = Doc::new(ActorId(1));
        d.put("l", j(json!([1, {"x": 2}, 3])));
        let changes = d.get_changes(&VClock::new());
        assert!(
            matches!(changes[0].stamps(), [Stamp { value: Some(Value::Json(v)), .. }] if *v == json!([1, {"x": 2}, 3]))
        );
        d.put("l", j(json!([1, 99, 3])));
        assert_eq!(d.get("l"), Some(&j(json!([1, 99, 3]))));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn delete_map_key() {
        let mut d = Doc::new(ActorId(1));
        d.put("a", j(json!(1)));
        d.delete("a");
        assert_eq!(d.get("a"), None);
        assert!(d.is_empty());
        assert_eq!(d.history_len(), 1, "the delete is held as a tombstone");
    }

    /// `len` and `get(..).is_some()` answer what `entries` holds, through
    /// deletes, a re-added key and an overwritten one.
    #[test]
    fn contains_and_map_len_agree_with_the_reads_that_build_values() {
        let mut d = Doc::new(ActorId(1));
        let agree = |d: &Doc| {
            assert_eq!(d.len(), d.entries().count());
            for k in ["a", "b", "n", "gone"] {
                assert_eq!(d.get(k).is_some(), d.entries().any(|(e, _)| e == k), "{k}");
            }
        };
        agree(&d);
        d.put("a", j(json!({"x": 1})));
        d.put("b", j(json!(2)));
        d.put("gone", j(json!(3)));
        agree(&d);
        assert_eq!(d.len(), 3);
        d.delete("gone");
        d.put("n", j(json!([2])));
        d.put("b", j(json!(1)));
        agree(&d);
        assert_eq!(d.len(), 3);
        d.put("gone", j(json!(4)));
        agree(&d);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn sync_two_replicas_converge() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("x", j(json!(1)));
        b.put("y", j(json!(2)));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
        assert_eq!(
            state(&a),
            [("x".into(), j(json!(1))), ("y".into(), j(json!(2)))]
        );
    }

    #[test]
    fn concurrent_writes_resolve_lww_by_opid() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("k", j(json!("from-a")));
        b.put("k", j(json!("from-b")));
        let (ca, cb) = (a.clone(), b.clone());
        pull(&mut a, &cb);
        pull(&mut b, &ca);
        assert_eq!(state(&a), state(&b));
        // actor 2 wins the counter tie, and both values are held
        assert_eq!(a.get("k"), Some(&j(json!("from-b"))));
        assert_eq!(a.get_changes(&VClock::new())[0].stamps().len(), 2);
    }

    /// Writes in one namespace do not count in another: concurrent writes
    /// to a key resolve as they would in a document holding its namespace
    /// alone, however busy the others were.
    #[test]
    fn each_namespace_counts_its_own_writes() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        for n in 0..5 {
            a.put(&format!("g{n}"), j(json!(n)));
        }
        a.put("tk", j(json!("from-a")));
        b.put("tk", j(json!("from-b")));
        let ids = |d: &Doc, since: &VClock| {
            d.get_changes(since)
                .iter()
                .map(|c| c.stamps()[0].id)
                .collect::<Vec<_>>()
        };
        let all = ids(&a, &VClock::new());
        assert_eq!(
            all.last(),
            Some(&OpId::new(1, ActorId(1))),
            "tk is the first write in t"
        );
        assert_eq!(all[4], OpId::new(5, ActorId(1)));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
        // both wrote tk at counter 1 in `t`: actor 2 wins the tie
        assert_eq!(a.get("tk"), Some(&j(json!("from-b"))));
        // and the image keeps each namespace's counter
        let back = Doc::load(ActorId(1), &a.save()).unwrap();
        assert_eq!(back.save(), a.save());
        let mut back = back;
        let since = back.clock().clone();
        back.put("tz", j(json!(0)));
        back.put("g9", j(json!(0)));
        let new = ids(&back, &since);
        assert_eq!(new, [OpId::new(2, ActorId(1)), OpId::new(6, ActorId(1))]);
    }

    #[test]
    fn concurrent_add_survives_delete() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("k", j(json!("v1")));
        pull(&mut b, &a);
        // a deletes, b rewrites concurrently
        a.delete("k");
        b.put("k", j(json!("v2")));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
        assert_eq!(a.get("k"), Some(&j(json!("v2"))));
    }

    /// Out-of-order delivery: a delta read above a base the receiver does
    /// not cover may lack a write the receiver has not seen, so it is
    /// refused whole and changes nothing; the delta read above what the
    /// receiver holds lands, and the stale one arriving after it is
    /// harmless.
    #[test]
    fn causal_buffering_handles_out_of_order_delivery() {
        let mut a = Doc::new(ActorId(1));
        a.put("k", j(json!(1)));
        let first = (a.clock().clone(), a.get_changes(&VClock::new()));
        a.put("j", j(json!(2)));
        let second = a.get_changes(&first.0);
        let mut b = Doc::new(ActorId(2));
        assert_eq!(b.apply_changes(&first.0, a.clock(), second), None);
        assert!(b.is_empty() && b.clock().is_empty());
        pull(&mut b, &a);
        assert_eq!(state(&b), state(&a));
        let stale = b.apply_changes(&VClock::new(), &first.0, first.1).unwrap();
        assert!(stale.is_empty(), "an older delta changes nothing");
        assert_eq!(state(&b), state(&a));
    }

    #[test]
    fn apply_is_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put("k", j(json!(1)));
        let ch = a.get_changes(&VClock::new());
        let mut b = Doc::new(ActorId(2));
        let none = VClock::new();
        assert_eq!(
            b.apply_changes(&none, a.clock(), ch.clone()).unwrap().len(),
            1
        );
        assert!(b.apply_changes(&none, a.clock(), ch).unwrap().is_empty());
        assert_eq!(state(&b), state(&a));
    }

    /// The last writer of a key holds the record that travelled: a merge
    /// that ends where the sender's slot is keeps the sender's record, so
    /// its remembered length comes along.
    #[test]
    fn a_merged_register_is_the_record_that_travelled() {
        let mut a = Doc::new(ActorId(1));
        a.put("k", j(json!(1)));
        let mut b = Doc::new(ActorId(2));
        pull(&mut b, &a);
        let (sent, held) = (
            &a.get_changes(&VClock::new())[0],
            &b.get_changes(&VClock::new())[0],
        );
        // one record: the stamps are read from the same allocation
        assert!(std::ptr::eq(sent.stamps(), held.stamps()));
    }

    fn snapshot() -> Vec<(String, Value)> {
        vec![
            ("tables".into(), j(json!({"users": [{"id": 1}]}))),
            ("n".into(), j(json!(5))),
        ]
    }

    #[test]
    fn snapshot_initialization_is_deterministic() {
        let master = Doc::from_snapshot(ActorId(1), snapshot());
        let mut replica = Doc::from_snapshot(ActorId(2), snapshot());
        assert_eq!(master.save(), replica.save());
        // a post-snapshot write from the master merges cleanly at the replica
        let mut master = master;
        master.put("n", j(json!(6)));
        pull(&mut replica, &master);
        assert_eq!(replica.get("n"), Some(&j(json!(6))));
        assert_eq!(
            replica.len(),
            2,
            "the write superseded the snapshot's value"
        );
    }

    /// Replicas share the snapshot by construction, so its dots are never
    /// indexed and no cursor can ask for it back.
    #[test]
    fn snapshot_genesis_is_folded_at_birth() {
        let mut a = Doc::from_snapshot(ActorId(1), snapshot());
        assert_eq!(state(&a), {
            let mut s = snapshot();
            s.sort_by(|x, y| x.0.cmp(&y.0));
            s
        });
        assert_eq!(a.history_len(), 0);
        assert_eq!(a.clock().get(GENESIS_ACTOR), 1);
        assert!(a.get_changes(&VClock::new()).is_empty());
        // an empty snapshot has no genesis at all
        assert!(Doc::from_snapshot(ActorId(1), []).clock().is_empty());
        // the image loads back to the same replica
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(state(&b), state(&a));
        assert_eq!(b.clock(), a.clock());
        assert!(b.get_changes(&VClock::new()).is_empty());
        // and only what is written afterwards travels, in either direction
        a.put("n", j(json!(7)));
        b.delete("tables");
        let (to_b, to_a) = (a.get_changes(&VClock::new()), b.get_changes(&VClock::new()));
        assert_eq!((to_b.len(), to_a.len()), (1, 1));
        pull(&mut b, &a);
        pull(&mut a, &b);
        assert_eq!(state(&a), [("n".into(), j(json!(7)))]);
        assert_eq!(state(&a), state(&b));
    }

    #[test]
    fn three_replicas_converge_any_sync_order() {
        let mut docs = [
            Doc::new(ActorId(1)),
            Doc::new(ActorId(2)),
            Doc::new(ActorId(3)),
        ];
        docs[0].put("a", j(json!(1)));
        docs[1].put("b", j(json!(2)));
        docs[2].put("a", j(json!(3)));
        // pairwise gossip until fixpoint
        for _ in 0..3 {
            for i in 0..3 {
                for k in 0..3 {
                    if i != k {
                        let src = docs[k].clone();
                        pull(&mut docs[i], &src);
                    }
                }
            }
        }
        assert_eq!(state(&docs[0]), state(&docs[1]));
        assert_eq!(state(&docs[1]), state(&docs[2]));
    }

    /// A delete that lands beside a concurrent value keeps its dot: a peer
    /// that holds both the deleted value and the survivor still learns of
    /// the delete, though the survivor's dot alone it has already seen.
    #[test]
    fn a_delete_beside_a_concurrent_value_still_travels() {
        let (mut m, mut e1, mut e2, mut e3) = (
            Doc::new(ActorId(1)),
            Doc::new(ActorId(2)),
            Doc::new(ActorId(3)),
            Doc::new(ActorId(4)),
        );
        e3.put("k", j(json!("x")));
        pull(&mut m, &e3);
        pull(&mut e2, &m); // e2 holds x
        e1.put("k", j(json!("v"))); // concurrent with x
        pull(&mut m, &e1);
        pull(&mut e1, &m); // e1 holds v and x
        e2.delete("k"); // deletes x, never saw v
        pull(&mut m, &e2); // m holds v
        assert_eq!(m.get("k"), Some(&j(json!("v"))));
        pull(&mut e1, &m);
        assert_eq!(state(&e1), state(&m));
    }

    /// Two replicas write one array concurrently: both read one writer's
    /// array, whole — the one with the greater op id — never a mix.
    #[test]
    fn concurrent_array_puts_resolve_lww() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("l", j(json!(["base"])));
        pull(&mut b, &a);
        a.put("l", j(json!(["a1", "a2", "base"])));
        b.put("l", j(json!(["b1", "base"])));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
        // equal counters: actor 2 wins the tie
        assert_eq!(a.get("l"), Some(&j(json!(["b1", "base"]))));
    }

    /// A delete of a key that holds nothing is no write at all.
    #[test]
    fn deleting_an_absent_key_commits_nothing() {
        let mut d = Doc::new(ActorId(1));
        d.put("s", j(json!(1)));
        d.delete("nope");
        assert_eq!(d.clock().get(ActorId(1)), 1);
        assert_eq!(state(&d), [("s".into(), j(json!(1)))]);
    }
}

#[cfg(test)]
mod save_load_tests {
    use super::tests::{j, pull, state};
    use super::*;
    use serde_json::json;

    #[test]
    fn save_load_round_trips_state() {
        let mut a = Doc::from_snapshot(ActorId(1), [("list".to_string(), j(json!([1, 2])))]);
        a.put("k", j(json!("v")));
        a.put("n", j(json!({"deep": [5]})));
        a.put("f", Value::File(vec![0, 255].into()));
        a.delete("list");
        let bytes = a.save();
        let b = Doc::load(ActorId(2), &bytes).unwrap();
        assert_eq!(state(&a), state(&b));
        assert_eq!(b.history_len(), 1, "the tombstone is in the image");
    }

    #[test]
    fn loaded_replica_can_exchange_changes() {
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        // both continue writing after the handoff
        a.put("from_a", j(json!(true)));
        b.put("from_b", j(json!(true)));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
        assert_eq!(a.get("from_b"), Some(&j(json!(true))));
    }

    #[test]
    fn load_same_actor_continues_sequence() {
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
        let mut a2 = Doc::load(ActorId(1), &a.save()).unwrap();
        // the restored doc may keep writing as the same actor
        a2.put("y", j(json!(2)));
        assert_eq!(a2.get("y"), Some(&j(json!(2))));
        assert!(a2.clock().get(ActorId(1)) > a.clock().get(ActorId(1)));
    }

    /// An image whose clock does not cover a write it holds, or that holds
    /// one write under two keys, is no document's image.
    #[test]
    fn load_rejects_an_uncovered_or_doubled_dot() {
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
        a.put("y", j(json!(2)));
        let bytes = a.save();
        // magic, then the clock [1: 1 -> 2]; claim seq 1 instead
        assert_eq!(bytes[4..8], [1, 1, 2, 2]);
        let mut behind = bytes.clone();
        behind[6] = 1;
        // "y" (1@1, seq 2, the JSON 2) also claims seq 1, the seq of "x"
        let at = bytes.len() - 4;
        assert_eq!(bytes[at..], [2, 2, 3, 2]);
        let mut doubled = bytes.clone();
        doubled[at] = 1;
        for bad in [behind, doubled] {
            assert!(matches!(
                Doc::load(ActorId(2), &bad),
                Err(CrdtError::CorruptChange(_))
            ));
        }
    }

    #[test]
    fn load_rejects_garbage_and_gaps() {
        for garbage in [&b"not an image"[..], b"", b"EDG", b"EDG\x02", b"[]"] {
            assert!(matches!(
                Doc::load(ActorId(1), garbage),
                Err(CrdtError::CorruptChange(_))
            ));
        }
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
        a.put("x", j(json!(2)));
        let bytes = a.save();
        // a byte after the image, or one fewer
        let mut long = bytes.clone();
        long.push(0);
        for bad in [long, bytes[..bytes.len() - 1].to_vec()] {
            assert!(matches!(
                Doc::load(ActorId(2), &bad),
                Err(CrdtError::CorruptChange(_))
            ));
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::tests::{j, pull, state};
    use super::*;
    use serde_json::json;

    /// Two replicas exchanging everything, deletes among it, then
    /// compacting at the shared clock: reads, future writes and convergence
    /// are unaffected, and no tombstone is left.
    #[test]
    fn compact_folds_acked_prefix_and_preserves_behaviour() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        for i in 0..20 {
            a.put(&format!("a{i}"), j(json!(i)));
            b.put(&format!("b{i}"), j(json!(i)));
        }
        for i in 0..5 {
            a.delete(&format!("a{i}"));
            b.delete(&format!("b{i}"));
        }
        pull(&mut a, &b);
        pull(&mut b, &a);
        let before = state(&a);
        assert_eq!(a.history_len(), 10);
        let frontier = a.clock().clone();
        let dropped = a.compact(&frontier);
        assert_eq!(dropped, 10);
        assert_eq!(a.history_len(), 0);
        assert_eq!(state(&a), before);
        assert_eq!(a.clock(), &frontier);
        // post-compaction writes still replicate
        a.put("post", j(json!(true)));
        a.delete("a7");
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
    }

    #[test]
    fn compact_is_clamped_by_own_clock_and_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
        a.delete("x");
        let mut beyond = VClock::new();
        beyond.observe(ActorId(1), 99);
        beyond.observe(ActorId(7), 5); // actor we have never seen
        assert_eq!(a.compact(&beyond), 1);
        assert_eq!(a.history_len(), 0);
        assert_eq!(a.compact(&beyond), 0);
        assert_eq!(a.clock().get(ActorId(1)), 2);
    }

    /// Partial compaction: a tombstone above the frontier stays, and every
    /// delta above the frontier is served as before.
    #[test]
    fn get_changes_above_frontier_survives_compaction() {
        let mut a = Doc::new(ActorId(1));
        for i in 0..10 {
            a.put(&format!("k{i}"), j(json!(i)));
            a.delete(&format!("k{i}"));
        }
        let mut frontier = VClock::new();
        frontier.observe(ActorId(1), 12);
        let expect = a.get_changes(&frontier);
        assert_eq!(a.compact(&frontier), 6);
        assert_eq!(a.history_len(), 4);
        assert_eq!(a.get_changes(&frontier), expect);
        // a fully caught-up peer gets nothing
        assert!(a.get_changes(a.clock()).is_empty());
    }

    #[test]
    fn compacted_save_restores_state_clock_and_tail() {
        let mut a = Doc::from_snapshot(ActorId(1), [("rows".to_string(), j(json!([1, 2, 3])))]);
        for i in 0..8 {
            a.put(&format!("v{i}"), j(json!(i)));
            a.put("n", j(json!([i, 2 * i])));
            a.delete(&format!("v{i}"));
        }
        let own = a.clock().get(ActorId(1));
        let mut partial = VClock::new();
        partial.observe(ActorId(1), own - 6);
        partial.observe(GENESIS_ACTOR, a.clock().get(GENESIS_ACTOR));
        a.compact(&partial);
        assert_eq!(a.history_len(), 2);
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(state(&b), state(&a));
        assert_eq!(b.clock(), a.clock());
        assert_eq!(b.history_len(), a.history_len());
        // the restored replica serves the same deltas
        assert_eq!(b.get_changes(&partial), a.get_changes(&partial));
        // and can keep writing + syncing with the original
        a.put("after", j(json!("a")));
        b.put("after_b", j(json!("b")));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
    }

    /// Compaction bounds the save size: once its tombstones are dropped, a
    /// document's save no longer grows with the keys it deleted.
    #[test]
    fn compacted_save_is_smaller_than_full_log() {
        let mut a = Doc::new(ActorId(1));
        for i in 0..200 {
            a.put(&format!("k{i}"), j(json!(i)));
            a.delete(&format!("k{i}"));
        }
        a.put("k", j(json!(199)));
        let full = a.save().len();
        let frontier = a.clock().clone();
        a.compact(&frontier);
        let compacted = a.save().len();
        assert!(
            compacted * 5 < full,
            "compacted save {compacted}B not ≪ save with tombstones {full}B"
        );
        // restored doc still reads the final value
        let b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(b.get("k"), Some(&j(json!(199))));
    }
}
