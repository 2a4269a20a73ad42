//! The replicated JSON document (`CRDT-JSON` in the paper).
//!
//! A [`Doc`] is an operation-based CRDT holding a tree of maps, lists and
//! atomic JSON leaves. Replicas exchange [`Change`] batches via
//! [`Doc::get_changes`] / [`Doc::apply_changes`] — the exact API triple the
//! paper generates wiring code for (`initialize`, `getChanges`,
//! `applyChanges`, §III-G.1). Concurrent map writes resolve
//! last-writer-wins by op id; deletes are add-wins; lists use RGA ordering
//! with tombstones. The result is strong eventual consistency: replicas
//! that have applied the same set of changes read the same JSON.
//!
//! # Log structure
//!
//! History is kept as a per-actor indexed log: each actor maps to a
//! seq-contiguous run of its changes, so [`Doc::get_changes`] costs
//! O(actors + delta) — an index computation and a slice copy per actor —
//! instead of a scan over the full lifetime history. Acked prefixes of the
//! log can be folded into the materialized state with [`Doc::compact`],
//! after which [`Doc::save`] emits a snapshot plus the retained tail.

use crate::change::{Change, ElemRef, ObjId, Op, OpValue};
use crate::ids::{ActorId, OpId, VClock};
use crate::wire::{ascending, corrupt, put_op_id, put_str, put_varint, put_zigzag, Reader, Sink};
use serde_json::Value as Json;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One segment of a path into the document tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathSeg {
    /// A map key.
    Key(String),
    /// A list index (over visible, i.e. non-deleted, elements).
    Index(usize),
}

impl From<&str> for PathSeg {
    fn from(s: &str) -> Self {
        PathSeg::Key(s.to_string())
    }
}

impl From<String> for PathSeg {
    fn from(s: String) -> Self {
        PathSeg::Key(s)
    }
}

impl From<usize> for PathSeg {
    fn from(i: usize) -> Self {
        PathSeg::Index(i)
    }
}

/// Build a document path from string keys and numeric indices.
///
/// # Examples
///
/// ```
/// use edgstr_crdt::path;
/// let p = path!["rows", 0, "name"];
/// assert_eq!(p.len(), 3);
/// ```
#[macro_export]
macro_rules! path {
    ($($seg:expr),* $(,)?) => {
        [$($crate::doc::PathSeg::from($seg)),*]
    };
}

/// Error raised by document operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrdtError {
    /// The path does not resolve to a container of the required kind.
    BadPath(String),
    /// A list index was out of bounds.
    IndexOutOfBounds { index: usize, len: usize },
    /// An operation referenced an object this replica has never seen.
    MissingObject(String),
    /// A change arrived with an impossible sequence number (gap going
    /// backwards), indicating replica-id reuse.
    CorruptChange(String),
}

impl fmt::Display for CrdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrdtError::BadPath(p) => write!(f, "invalid document path: {p}"),
            CrdtError::IndexOutOfBounds { index, len } => {
                write!(f, "list index {index} out of bounds (len {len})")
            }
            CrdtError::MissingObject(o) => write!(f, "unknown object {o}"),
            CrdtError::CorruptChange(m) => write!(f, "corrupt change: {m}"),
        }
    }
}

impl std::error::Error for CrdtError {}

/// Which state units a tracked apply touched, expressed as the first two
/// map-key segments of each applied op's location in the tree. Consumers
/// project this onto their own layout: a table reads `("rows", Some(pk))`,
/// the files store `("files", Some(path))`, a globals document reads the
/// root key alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedKeys {
    /// `(root key, second-level key)` pairs; a `None` second component
    /// means the op addressed the root-level entry itself. The keys are the
    /// document's own, shared.
    pub keys: BTreeSet<(Arc<str>, Option<Arc<str>>)>,
    /// Set when some op's location could not be resolved — the caller must
    /// assume any unit may have changed.
    pub unresolved: bool,
}

/// [`TouchedKeys`] collapsed onto a single container's second-level keys
/// (row primary keys under `"rows"`, file paths under `"files"`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyTouch {
    /// The second-level keys that changed.
    pub keys: BTreeSet<Arc<str>>,
    /// Some op could not be attributed to a single key — treat the whole
    /// structure as changed.
    pub whole: bool,
}

impl TouchedKeys {
    /// Collapse to the second-level keys under `container`; ops anywhere
    /// else (or unresolvable ones) set `whole`.
    #[must_use]
    pub fn project(self, container: &str) -> KeyTouch {
        let mut out = KeyTouch {
            keys: BTreeSet::new(),
            whole: self.unresolved,
        };
        for (first, second) in self.keys {
            match second {
                Some(k) if *first == *container => {
                    out.keys.insert(k);
                }
                _ => out.whole = true,
            }
        }
        out
    }
}

/// The live `(opid, value)` pairs of one map key, ascending by opid; the
/// visible value is the last one. A key holds one value at a time unless
/// writes to it were concurrent, so one value is kept inline.
#[derive(Debug, Clone)]
enum Slot {
    One((OpId, OpValue)),
    /// None, or several.
    Many(Vec<(OpId, OpValue)>),
}

impl std::ops::Deref for Slot {
    type Target = [(OpId, OpValue)];

    fn deref(&self) -> &[(OpId, OpValue)] {
        match self {
            Slot::One(value) => std::slice::from_ref(value),
            Slot::Many(values) => values,
        }
    }
}

impl From<Vec<(OpId, OpValue)>> for Slot {
    fn from(mut values: Vec<(OpId, OpValue)>) -> Slot {
        if values.len() == 1 {
            Slot::One(values.remove(0))
        } else {
            Slot::Many(values)
        }
    }
}

impl Slot {
    /// Drop the values `pred` supersedes.
    fn supersede(&mut self, pred: &[OpId]) {
        match self {
            Slot::One((id, _)) if pred.contains(id) => *self = Slot::Many(Vec::new()),
            Slot::One(_) => {}
            Slot::Many(values) => values.retain(|(id, _)| !pred.contains(id)),
        }
    }

    /// Hold `value` as written by `id`, in op-id order; a replay of an op
    /// already held changes nothing.
    fn add(&mut self, id: OpId, value: &OpValue) {
        if self.iter().any(|(held, _)| *held == id) {
            return;
        }
        let new = (id, value.clone());
        let mut values = match std::mem::replace(self, Slot::Many(Vec::new())) {
            Slot::Many(values) if values.is_empty() => {
                *self = Slot::One(new);
                return;
            }
            Slot::One(held) => vec![held, new],
            Slot::Many(mut values) => {
                values.push(new);
                values
            }
        };
        values.sort_by_key(|(id, _)| *id);
        *self = Slot::Many(values);
    }
}

#[derive(Debug, Clone, Default)]
struct MapObj {
    /// key → live values.
    entries: BTreeMap<Arc<str>, Slot>,
    /// key → observed counter increments (PN-counter cells). Each
    /// increment is tracked by op id so deletion can remove exactly the
    /// observed increments (concurrent increments survive: add-wins).
    counters: BTreeMap<Arc<str>, Vec<(OpId, i64)>>,
}

impl MapObj {
    fn has_entry(&self, key: &str) -> bool {
        self.entries.get(key).is_some_and(|slot| !slot.is_empty())
    }

    /// Whether `key` reads as a value: a visible entry or a counter cell.
    fn is_live(&self, key: &str) -> bool {
        self.visible(key).is_some()
    }

    /// What a read of `key` sees: a counter cell before an entry.
    fn visible(&self, key: &str) -> Option<At<'_>> {
        if let Some(incs) = self.counters.get(key).filter(|incs| !incs.is_empty()) {
            return Some(At::Counter(counter_value(incs)));
        }
        Some(match &self.entries.get(key)?.last()?.1 {
            OpValue::Scalar(j) => At::Scalar(j),
            OpValue::Obj(o) => At::Obj(*o),
        })
    }
}

/// What a counter cell reads: its increments added up, wrapping — deltas
/// come from peers, and their sum must not be able to stop a read.
fn counter_value(incs: &[(OpId, i64)]) -> i64 {
    incs.iter().fold(0, |sum, (_, d)| sum.wrapping_add(*d))
}

/// A value of a [`Doc`] read where it is stored ([`Doc::get_ref`]): what
/// [`Doc::get`] returns, before anything is built.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'a> {
    doc: &'a Doc,
    at: At<'a>,
}

#[derive(Debug, Clone, Copy)]
enum At<'a> {
    Scalar(&'a Json),
    Counter(i64),
    /// A map, looked up once so its keys are read without another lookup.
    Map(&'a MapObj),
    /// Any other container (a list, or one this replica does not hold).
    Obj(ObjId),
}

impl<'a> ValueRef<'a> {
    fn new(doc: &'a Doc, at: At<'a>) -> ValueRef<'a> {
        let at = match at {
            At::Obj(o) => doc.maps.get(&o).map_or(at, At::Map),
            at => at,
        };
        ValueRef { doc, at }
    }

    /// The value as JSON: a stored scalar lent, anything else built.
    pub fn to_json(&self) -> Cow<'a, Json> {
        match self.at {
            At::Scalar(j) => Cow::Borrowed(j),
            At::Counter(n) => Cow::Owned(Json::from(n)),
            At::Map(map) => Cow::Owned(self.doc.map_json(map)),
            At::Obj(o) => Cow::Owned(self.doc.obj_json(o)),
        }
    }

    /// The entry at `key` when this value is a map — what `to_json()`
    /// holds at `key` — and `None` otherwise.
    pub fn get(&self, key: &str) -> Option<ValueRef<'a>> {
        let At::Map(map) = self.at else {
            return None;
        };
        Some(ValueRef::new(self.doc, map.visible(key)?))
    }

    /// The keys `to_json()` holds when this value is a map, in order.
    pub(crate) fn keys(&self) -> Vec<&'a str> {
        let At::Map(map) = self.at else {
            return Vec::new();
        };
        let mut keys: Vec<&str> = map
            .entries
            .iter()
            .filter(|(_, slot)| !slot.is_empty())
            .map(|(k, _)| &**k)
            .collect();
        for (k, incs) in &map.counters {
            if !incs.is_empty() && !map.has_entry(k) {
                keys.push(k);
            }
        }
        keys.sort_unstable();
        keys
    }
}

#[derive(Debug, Clone)]
struct ListElem {
    id: OpId,
    values: Vec<(OpId, OpValue)>,
    deleted: bool,
}

#[derive(Debug, Clone, Default)]
struct ListObj {
    elems: Vec<ListElem>,
}

impl ListObj {
    fn visible(&self) -> impl Iterator<Item = &ListElem> {
        self.elems
            .iter()
            .filter(|e| !e.deleted && !e.values.is_empty())
    }

    fn visible_id(&self, index: usize) -> Option<OpId> {
        self.visible().nth(index).map(|e| e.id)
    }

    fn visible_len(&self) -> usize {
        self.visible().count()
    }
}

// ---- save image -----------------------------------------------------------
//
// The internal object tables must round-trip exactly (op ids included):
// future changes reference existing values by op id (`pred` lists), so an
// image cannot be rebuilt from plain JSON state. DESIGN.md "Sync wire
// format" has the layout; the primitives are `crate::wire`'s.

/// What an image starts with: three magic bytes and the layout's version.
const IMAGE_MAGIC: [u8; 4] = *b"EDG\x03";

fn write_slots<S: Sink>(out: &mut S, slots: &[(OpId, OpValue)]) {
    put_varint(out, slots.len() as u64);
    for (id, value) in slots {
        put_op_id(out, *id);
        value.write(out);
    }
}

/// Ascending by op id, as apply keeps them: the last one is the value read.
fn read_slots(r: &mut Reader<'_>) -> Result<Vec<(OpId, OpValue)>, CrdtError> {
    // an op id is two varints, a value two tags at the least
    let n = r.count(4)?;
    let mut slots = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let id = r.op_id()?;
        ascending(&mut last, id)?;
        slots.push((id, OpValue::read(r)?));
    }
    Ok(slots)
}

impl MapObj {
    /// Entries then counters, each a count and `(key, slots)` in key order.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.entries.len() as u64);
        for (key, slots) in &self.entries {
            put_str(out, key);
            write_slots(out, slots);
        }
        put_varint(out, self.counters.len() as u64);
        for (key, incs) in &self.counters {
            put_str(out, key);
            put_varint(out, incs.len() as u64);
            for (id, delta) in incs {
                put_op_id(out, *id);
                put_zigzag(out, *delta);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<MapObj, CrdtError> {
        let mut map = MapObj::default();
        let mut last = None;
        // a key length and a count at the least
        for _ in 0..r.count(2)? {
            let key = r.str()?;
            ascending(&mut last, key)?;
            map.entries.insert(key.into(), read_slots(r)?.into());
        }
        let mut last = None;
        for _ in 0..r.count(2)? {
            let key = r.str()?;
            ascending(&mut last, key)?;
            // increments stay in arrival order: an op id and a delta each
            let n = r.count(3)?;
            let mut incs = Vec::with_capacity(n);
            for _ in 0..n {
                incs.push((r.op_id()?, r.zigzag()?));
            }
            map.counters.insert(key.into(), incs);
        }
        Ok(map)
    }
}

impl ListObj {
    /// A count, then per element its id, its slots and a tombstone byte.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.elems.len() as u64);
        for e in &self.elems {
            put_op_id(out, e.id);
            write_slots(out, &e.values);
            out.put(&[u8::from(e.deleted)]);
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<ListObj, CrdtError> {
        // an id, a slot count and the tombstone byte at the least
        let n = r.count(4)?;
        let mut elems = Vec::with_capacity(n);
        for _ in 0..n {
            elems.push(ListElem {
                id: r.op_id()?,
                values: read_slots(r)?,
                deleted: match r.byte()? {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("tombstone is neither 0 nor 1")),
                },
            });
        }
        Ok(ListObj { elems })
    }
}

/// Child container → (the container holding it, the map key it sits
/// under; `None` for a list element).
type Parents = HashMap<ObjId, (ObjId, Option<Arc<str>>)>;

/// The containment index of an image's containers: every slot and list
/// element, superseded values included (concurrent ops may still address
/// containers that are no longer visible), names the container it holds.
///
/// The links must form a forest — reads recurse along them, so a container
/// held twice is read twice and one held by its own descendant is read
/// without end. Containers nothing holds (superseded ones) are legal.
fn containment(
    maps: &HashMap<ObjId, MapObj>,
    lists: &HashMap<ObjId, ListObj>,
) -> Result<Parents, CrdtError> {
    let mut parent = HashMap::new();
    let mut hold = |value: &OpValue, holder: ObjId, key: Option<&Arc<str>>| {
        if let OpValue::Obj(child) = value {
            let held = parent.insert(*child, (holder, key.cloned()));
            if *child == ObjId::Root || held.is_some() {
                return Err(corrupt("a container is held twice, or is the root"));
            }
        }
        Ok(())
    };
    for (id, map) in maps {
        for (key, slot) in &map.entries {
            for (_, value) in slot.iter() {
                hold(value, *id, Some(key))?;
            }
        }
    }
    for (id, list) in lists {
        for (_, value) in list.elems.iter().flat_map(|e| &e.values) {
            hold(value, *id, None)?;
        }
    }
    // One holder each, so a walk rootward either ends or runs in a circle;
    // `ends` remembers what is known to end, which keeps the pass linear.
    let mut ends: HashSet<ObjId> = HashSet::new();
    let mut walked = Vec::new();
    for start in parent.keys() {
        let mut at = *start;
        while let Some((holder, _)) = parent.get(&at).filter(|_| !ends.contains(&at)) {
            if walked.len() == parent.len() {
                return Err(corrupt("a container holds itself"));
            }
            walked.push(at);
            at = *holder;
        }
        ends.extend(walked.drain(..));
    }
    Ok(parent)
}

/// The actor id used for deterministic snapshot initialization.
pub const GENESIS_ACTOR: ActorId = ActorId(0);

/// One actor's seq-contiguous run of retained changes.
///
/// `changes[i].seq == base + 1 + i`: everything at or below `base` has been
/// folded into the snapshot by [`Doc::compact`]. Because sequence numbers
/// are gapless, locating the suffix a peer is missing is a direct offset
/// computation (the degenerate case of a binary search over sorted seqs).
#[derive(Debug, Clone, Default)]
struct ActorLog {
    /// Highest seq folded into the snapshot (0 when never compacted).
    base: u64,
    /// Retained changes, ascending and contiguous in seq.
    changes: Vec<Change>,
}

/// A replicated JSON document.
///
/// # Examples
///
/// ```
/// use edgstr_crdt::{Doc, ActorId, path};
/// use serde_json::json;
///
/// let mut cloud = Doc::new(ActorId(1));
/// let mut edge = Doc::new(ActorId(2));
/// cloud.put(&path!["sensors"], json!({"count": 0})).unwrap();
/// let changes = cloud.get_changes(edge.clock());
/// edge.apply_changes(&changes).unwrap();
/// assert_eq!(edge.to_json(), cloud.to_json());
/// ```
#[derive(Debug, Clone)]
pub struct Doc {
    actor: ActorId,
    counter: u64,
    seq: u64,
    clock: VClock,
    /// Everything at or below this clock has been folded into the
    /// materialized state and is no longer individually replayable.
    snapshot_clock: VClock,
    /// Per-actor indexed change log (the tail above `snapshot_clock`).
    history: BTreeMap<ActorId, ActorLog>,
    /// Changes buffered awaiting causal dependencies, keyed by
    /// `(actor, seq)` so each retry pass probes exactly the next
    /// applicable seq per actor instead of re-scanning a queue.
    pending: BTreeMap<(ActorId, u64), Change>,
    maps: HashMap<ObjId, MapObj>,
    lists: HashMap<ObjId, ListObj>,
    /// Containment index: child object → (parent object, map key under the
    /// parent when the child sits in a map slot; `None` for list elements,
    /// which share their list's key path). Lets tracked applies attribute
    /// each op to the state unit it mutates without materializing paths.
    parent: Parents,
    /// Lifetime count of [`Doc::compact`] calls that folded anything.
    compaction_rounds: u64,
    /// Lifetime count of changes folded out of the log by compaction.
    compacted_changes: u64,
}

impl Doc {
    /// Create an empty document owned by `actor`.
    pub fn new(actor: ActorId) -> Self {
        let mut maps = HashMap::new();
        maps.insert(ObjId::Root, MapObj::default());
        Doc {
            actor,
            counter: 0,
            seq: 0,
            clock: VClock::new(),
            snapshot_clock: VClock::new(),
            history: BTreeMap::new(),
            pending: BTreeMap::new(),
            maps,
            lists: HashMap::new(),
            parent: HashMap::new(),
            compaction_rounds: 0,
            compacted_changes: 0,
        }
    }

    /// Create a document pre-populated from a JSON `snapshot`.
    ///
    /// The snapshot is loaded as a deterministic *genesis change* by the
    /// reserved [`GENESIS_ACTOR`], so the cloud master and every edge
    /// replica initialized from the same snapshot build byte-identical
    /// object identities — the paper's "initialize both the master and the
    /// replicas with the same snapshot" step (§III-G.1).
    ///
    /// Because every replica already holds it, the genesis change is folded
    /// into the snapshot at birth: it is below [`Doc::snapshot_clock`],
    /// never retained in the log and never shipped by
    /// [`Doc::get_changes`], whatever cursor a peer presents.
    pub fn from_snapshot(actor: ActorId, snapshot: &Json) -> Self {
        let mut doc = Doc::new(GENESIS_ACTOR);
        if let Json::Object(map) = snapshot {
            let mut ops = Vec::new();
            for (k, v) in map {
                let value = doc.value_ops(Cow::Borrowed(v), &mut ops);
                let id = doc.next_op();
                ops.push(Op::Set {
                    id,
                    obj: ObjId::Root,
                    key: k.as_str().into(),
                    value,
                    pred: vec![],
                });
            }
            doc.commit(ops);
        } else if !snapshot.is_null() {
            let mut ops = Vec::new();
            let value = doc.value_ops(Cow::Borrowed(snapshot), &mut ops);
            let id = doc.next_op();
            ops.push(Op::Set {
                id,
                obj: ObjId::Root,
                key: "value".into(),
                value,
                pred: vec![],
            });
            doc.commit(ops);
        }
        doc.history.clear();
        doc.snapshot_clock = doc.clock.clone();
        doc.actor = actor;
        doc.seq = doc.clock.get(actor);
        doc
    }

    /// The replica that owns this document.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The clock of changes this replica has applied.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Number of changes resident in this replica's history (the retained
    /// tail — changes folded away by [`Doc::compact`] no longer count).
    pub fn history_len(&self) -> usize {
        self.history.values().map(|log| log.changes.len()).sum()
    }

    /// The compaction frontier: everything at or below this clock has been
    /// folded into the snapshot and cannot be re-served by
    /// [`Doc::get_changes`].
    pub fn snapshot_clock(&self) -> &VClock {
        &self.snapshot_clock
    }

    /// Number of changes buffered awaiting causal dependencies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // ---- local mutation API ------------------------------------------------

    /// Set the value at `path` to an atomic JSON payload, creating
    /// intermediate maps as needed.
    ///
    /// # Errors
    ///
    /// Fails if an intermediate path segment resolves to a list index that
    /// does not exist.
    pub fn put(&mut self, path: &[PathSeg], value: Json) -> Result<(), CrdtError> {
        let mut ops = Vec::new();
        let value = self.value_ops(Cow::Owned(value), &mut ops);
        self.write(path, value, &mut ops)?;
        self.commit(ops);
        Ok(())
    }

    /// Set `key` of the map at `parents` to a fresh map holding `entries`,
    /// in the order given: with the entries in key order, the ops, op ids
    /// and values [`Doc::put`] emits for `parents ++ [key]` and the same
    /// entries as a JSON object — built from the entries as they are, and
    /// with every key shared rather than copied.
    ///
    /// # Errors
    ///
    /// As for [`Doc::put`].
    pub(crate) fn put_map(
        &mut self,
        parents: &[PathSeg],
        key: Arc<str>,
        entries: impl ExactSizeIterator<Item = (Arc<str>, Json)>,
    ) -> Result<(), CrdtError> {
        // the map, one op per entry, the link
        let mut ops = Vec::with_capacity(entries.len() + 2);
        let value = self.map_ops(entries.map(|(k, v)| (k, Cow::Owned(v))), &mut ops);
        let obj = self.walk(parents, &mut ops)?;
        self.set_key(obj, key, value, &mut ops);
        self.commit(ops);
        Ok(())
    }

    /// Ensure `path` resolves to a (possibly empty) list.
    ///
    /// # Errors
    ///
    /// Fails on invalid paths.
    pub fn put_list(&mut self, path: &[PathSeg]) -> Result<(), CrdtError> {
        if matches!(self.get_obj(path), Some(o) if self.lists.contains_key(&o)) {
            return Ok(());
        }
        let mut ops = Vec::new();
        let id = self.next_op();
        ops.push(Op::MakeList { id });
        self.write(path, OpValue::Obj(ObjId::Made(id)), &mut ops)?;
        self.commit(ops);
        Ok(())
    }

    /// Insert `value` at `index` of the list at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is not a list or `index > len`.
    pub fn list_insert(
        &mut self,
        path: &[PathSeg],
        index: usize,
        value: Json,
    ) -> Result<(), CrdtError> {
        let obj = self
            .get_obj(path)
            .filter(|o| self.lists.contains_key(o))
            .ok_or_else(|| CrdtError::BadPath(format!("{path:?} is not a list")))?;
        let list = &self.lists[&obj];
        let len = list.visible_len();
        if index > len {
            return Err(CrdtError::IndexOutOfBounds { index, len });
        }
        let after = if index == 0 {
            ElemRef::Head
        } else {
            ElemRef::After(list.visible_id(index - 1).expect("index checked"))
        };
        let mut ops = Vec::new();
        let value = self.value_ops(Cow::Owned(value), &mut ops);
        let id = self.next_op();
        ops.push(Op::Insert {
            id,
            obj,
            after,
            value,
        });
        self.commit(ops);
        Ok(())
    }

    /// Append `value` to the list at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is not a list.
    pub fn list_push(&mut self, path: &[PathSeg], value: Json) -> Result<(), CrdtError> {
        let len = self
            .get_obj(path)
            .and_then(|o| self.lists.get(&o))
            .map(ListObj::visible_len)
            .ok_or_else(|| CrdtError::BadPath(format!("{path:?} is not a list")))?;
        self.list_insert(path, len, value)
    }

    /// Delete the map key or list element at `path`.
    ///
    /// # Errors
    ///
    /// Fails on invalid paths.
    pub fn delete(&mut self, path: &[PathSeg]) -> Result<(), CrdtError> {
        let (last, parent_path) = path
            .split_last()
            .ok_or_else(|| CrdtError::BadPath("cannot delete the root".into()))?;
        let obj = self
            .get_obj(parent_path)
            .ok_or_else(|| CrdtError::BadPath(format!("{parent_path:?} not found")))?;
        let mut ops = Vec::new();
        match last {
            PathSeg::Key(k) => {
                let pred = self.key_pred(obj, k);
                let id = self.next_op();
                ops.push(Op::DelKey {
                    id,
                    obj,
                    key: k.as_str().into(),
                    pred,
                });
            }
            PathSeg::Index(i) => {
                let elem = self.lists.get(&obj).and_then(|l| l.visible_id(*i)).ok_or(
                    CrdtError::IndexOutOfBounds {
                        index: *i,
                        len: self.lists.get(&obj).map(ListObj::visible_len).unwrap_or(0),
                    },
                )?;
                let id = self.next_op();
                ops.push(Op::DelElem { id, obj, elem });
            }
        }
        self.commit(ops);
        Ok(())
    }

    /// Add `delta` to the PN-counter cell at `path` (last segment must be a
    /// map key).
    ///
    /// # Errors
    ///
    /// Fails on invalid paths.
    pub fn increment(&mut self, path: &[PathSeg], delta: i64) -> Result<(), CrdtError> {
        let (last, parent_path) = path
            .split_last()
            .ok_or_else(|| CrdtError::BadPath("cannot increment the root".into()))?;
        let key = match last {
            PathSeg::Key(k) => k.as_str().into(),
            PathSeg::Index(_) => {
                return Err(CrdtError::BadPath("counters live at map keys".into()))
            }
        };
        let obj = self
            .get_obj(parent_path)
            .ok_or_else(|| CrdtError::BadPath(format!("{parent_path:?} not found")))?;
        let id = self.next_op();
        self.commit(vec![Op::Inc {
            id,
            obj,
            key,
            delta,
        }]);
        Ok(())
    }

    // ---- read API ----------------------------------------------------------

    /// Read the JSON value at `path` (`None` when absent).
    pub fn get(&self, path: &[PathSeg]) -> Option<Json> {
        if path.is_empty() {
            return Some(self.to_json());
        }
        let (last, parent) = path.split_last()?;
        let obj = self.get_obj(parent)?;
        match last {
            PathSeg::Key(k) => Some(self.at(obj).get(k)?.to_json().into_owned()),
            PathSeg::Index(i) => {
                let list = self.lists.get(&obj)?;
                let elem = list.visible().nth(*i)?;
                let (_, v) = elem.values.last()?;
                Some(self.resolve(v))
            }
        }
    }

    /// Materialize the full document as JSON.
    pub fn to_json(&self) -> Json {
        self.obj_json(ObjId::Root)
    }

    /// [`Doc::get`] of a path of map keys, read where the value is stored
    /// instead of built: a scalar is lent, and a map is read key by key.
    pub fn get_ref(&self, path: &[&str]) -> Option<ValueRef<'_>> {
        match path.split_last() {
            Some((last, parents)) => self.map_ref(parents)?.get(last),
            None => Some(self.at(ObjId::Root)),
        }
    }

    /// The container at `path`, reached as [`Doc::get`] reaches the
    /// container of its last key.
    pub(crate) fn map_ref(&self, path: &[&str]) -> Option<ValueRef<'_>> {
        let mut obj = ObjId::Root;
        for key in path {
            obj = match self.maps.get(&obj)?.entries.get(*key)?.last()? {
                (_, OpValue::Obj(o)) => *o,
                (_, OpValue::Scalar(_)) => return None,
            };
        }
        Some(self.at(obj))
    }

    fn at(&self, obj: ObjId) -> ValueRef<'_> {
        ValueRef::new(self, At::Obj(obj))
    }

    /// Number of visible elements of the list at `path` (`None` when the
    /// path is not a list).
    pub fn list_len(&self, path: &[PathSeg]) -> Option<usize> {
        let obj = self.get_obj(path)?;
        self.lists.get(&obj).map(ListObj::visible_len)
    }

    /// Whether a value is visible at `path` — [`Doc::get`]`.is_some()`
    /// without building the value.
    pub fn contains(&self, path: &[PathSeg]) -> bool {
        let Some((last, parent)) = path.split_last() else {
            return true; // the root always exists
        };
        let Some(obj) = self.get_obj(parent) else {
            return false;
        };
        match last {
            PathSeg::Key(k) => self.maps.get(&obj).is_some_and(|map| map.is_live(k)),
            PathSeg::Index(i) => self
                .lists
                .get(&obj)
                .is_some_and(|list| list.visible().nth(*i).is_some()),
        }
    }

    /// Number of keys of the map at `path` (0 when it is not a map) —
    /// [`Doc::map_keys`]`.len()` without copying a key.
    pub fn map_len(&self, path: &[PathSeg]) -> usize {
        let Some(map) = self.get_obj(path).and_then(|obj| self.maps.get(&obj)) else {
            return 0;
        };
        let in_entries = map.entries.values().filter(|slot| !slot.is_empty()).count();
        let counters_only = map
            .counters
            .iter()
            .filter(|(k, incs)| !incs.is_empty() && !map.has_entry(k))
            .count();
        in_entries + counters_only
    }

    /// Keys of the map at `path`.
    pub fn map_keys(&self, path: &[PathSeg]) -> Vec<String> {
        let Some(obj) = self.get_obj(path) else {
            return Vec::new();
        };
        self.at(obj)
            .keys()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    // ---- replication API (the paper's initialize/getChanges/applyChanges) --

    /// All retained changes this replica knows that `since` has not yet
    /// observed, grouped by actor in ascending seq order.
    ///
    /// Cost is O(actors + delta): per actor the missing suffix is located
    /// by offset into its seq-contiguous run, and each returned change is
    /// another handle on the retained record (a reference count, no copy).
    /// Changes below the compaction frontier ([`Doc::snapshot_clock`]) are
    /// gone; callers must only compact up to the minimum acked clock of
    /// their peers (see [`Doc::compact`]) or provision stragglers via
    /// [`Doc::save`]/[`Doc::load`].
    pub fn get_changes(&self, since: &VClock) -> Vec<Change> {
        // size the output exactly so large deltas copy into one allocation
        // instead of growth-doubling through extend
        let suffix = |actor: ActorId, log: &ActorLog| {
            let have = since.get(actor);
            have.saturating_sub(log.base).min(log.changes.len() as u64) as usize
        };
        let total: usize = self
            .history
            .iter()
            .map(|(actor, log)| log.changes.len() - suffix(*actor, log))
            .sum();
        let mut out = Vec::with_capacity(total);
        for (actor, log) in &self.history {
            out.extend_from_slice(&log.changes[suffix(*actor, log)..]);
        }
        out
    }

    /// Apply remote changes. Changes already applied are skipped; changes
    /// whose causal dependencies are not yet satisfied are buffered and
    /// retried automatically as their dependencies arrive. Returns the
    /// number of changes applied (now or from the pending buffer).
    ///
    /// # Errors
    ///
    /// Returns [`CrdtError::CorruptChange`] on malformed input (e.g. an op
    /// referencing an object that its own dependencies cannot provide).
    pub fn apply_changes(&mut self, changes: &[Change]) -> Result<usize, CrdtError> {
        self.apply_changes_owned(changes.to_vec())
    }

    /// Consuming variant of [`Doc::apply_changes`]: takes ownership of the
    /// batch so the hot sync path avoids cloning every delta.
    ///
    /// The incoming batch and the pending buffer are indexed by
    /// `(actor, seq)`; each pass probes only the next applicable seq per
    /// actor, so a pass costs O(actors·log pending) rather than a scan of
    /// everything buffered.
    ///
    /// # Errors
    ///
    /// Returns [`CrdtError::CorruptChange`] on malformed input (e.g. an op
    /// referencing an object that its own dependencies cannot provide).
    pub fn apply_changes_owned(&mut self, changes: Vec<Change>) -> Result<usize, CrdtError> {
        self.apply_changes_inner(changes, None)
    }

    /// Like [`Doc::apply_changes_owned`], additionally reporting *where*
    /// the applied ops landed as [`TouchedKeys`] — the invalidation signal
    /// for per-unit version counters. Ops still buffered awaiting causal
    /// dependencies are reported when they actually apply, i.e. by the
    /// tracked call that releases them.
    ///
    /// # Errors
    ///
    /// As for [`Doc::apply_changes_owned`].
    pub fn apply_changes_owned_tracked(
        &mut self,
        changes: Vec<Change>,
    ) -> Result<(usize, TouchedKeys), CrdtError> {
        let mut touched = TouchedKeys::default();
        let applied = self.apply_changes_inner(changes, Some(&mut touched))?;
        Ok((applied, touched))
    }

    fn apply_changes_inner(
        &mut self,
        changes: Vec<Change>,
        mut touched: Option<&mut TouchedKeys>,
    ) -> Result<usize, CrdtError> {
        let key = |c: &Change| (c.actor(), c.seq());
        // A batch sorted by (actor, seq) that arrives with nothing buffered
        // — what `get_changes` produces, the steady state of a sync round
        // — is applied as it is read: the queue would visit it in exactly
        // this order. The first change that has to wait ends the shortcut;
        // it and everything after it go through the queue.
        let in_order =
            self.pending.is_empty() && changes.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
        let mut queue = std::mem::take(&mut self.pending);
        let mut incoming = changes.into_iter();
        let mut applied = 0;
        if in_order {
            for change in incoming.by_ref() {
                let have = self.clock.get(change.actor());
                if change.seq() <= have {
                    continue; // duplicate
                }
                if change.seq() == have + 1 && self.clock.dominates(change.deps()) {
                    self.apply_one(change, touched.as_deref_mut())?;
                    applied += 1;
                } else {
                    queue.insert(key(&change), change);
                    break;
                }
            }
        }
        for change in incoming {
            if change.seq() <= self.clock.get(change.actor()) {
                continue; // duplicate
            }
            queue.entry(key(&change)).or_insert(change);
        }
        loop {
            let mut progress = false;
            let mut actors: Vec<ActorId> = queue.keys().map(|(actor, _)| *actor).collect();
            actors.dedup();
            for actor in actors {
                loop {
                    let next = self.clock.get(actor) + 1;
                    let Some(change) = queue.remove(&(actor, next)) else {
                        break;
                    };
                    if self.clock.dominates(change.deps()) {
                        self.apply_one(change, touched.as_deref_mut())?;
                        applied += 1;
                        progress = true;
                    } else {
                        queue.insert((actor, next), change);
                        break;
                    }
                }
            }
            if !progress {
                break;
            }
        }
        // What's left awaits causal dependencies we have not seen; entries
        // the clock overtook during this batch are stale duplicates.
        queue.retain(|(actor, seq), _| *seq > self.clock.get(*actor));
        self.pending = queue;
        Ok(applied)
    }

    /// Convenience: pull everything missing from `other` into `self`.
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] from [`Doc::apply_changes`].
    pub fn merge(&mut self, other: &Doc) -> Result<usize, CrdtError> {
        let changes = other.get_changes(self.clock());
        self.apply_changes(&changes)
    }

    /// Fold every retained change at or below `frontier` into the
    /// materialized snapshot, freeing its memory. Returns the number of
    /// changes dropped from the log.
    ///
    /// Safety contract: `frontier` must be at or below the minimum acked
    /// clock across all live peers — a compacted change can never be
    /// re-served by [`Doc::get_changes`], so a peer that had not acked it
    /// would stall forever (it can only recover via [`Doc::save`]/
    /// [`Doc::load`] provisioning). The runtime computes this frontier as
    /// the pointwise-min (`VClock::meet`) of peer ack clocks.
    ///
    /// Entries of `frontier` above this replica's own clock are clamped:
    /// only applied changes can be folded into state.
    pub fn compact(&mut self, frontier: &VClock) -> usize {
        let mut dropped = 0;
        for (actor, log) in self.history.iter_mut() {
            let target = frontier.get(*actor).min(self.clock.get(*actor));
            if target <= log.base {
                continue;
            }
            let n = (target - log.base) as usize;
            log.changes.drain(..n);
            log.base = target;
            self.snapshot_clock.observe(*actor, target);
            dropped += n;
        }
        if dropped > 0 {
            self.compaction_rounds += 1;
            self.compacted_changes += dropped as u64;
        }
        dropped
    }

    /// Lifetime compaction accounting for this replica:
    /// `(rounds_that_folded, changes_folded)`. Transient — not part of
    /// the [`Doc::save`] image, so a restored replica starts from zero.
    pub fn compaction_stats(&self) -> (u64, u64) {
        (self.compaction_rounds, self.compacted_changes)
    }

    /// Serialize this replica as a state snapshot plus the retained change
    /// tail, in the [`crate::wire`] codec: magic and version, `clock`,
    /// `snapshot_clock`, the op counter, maps then lists in container-id
    /// order, and the tail as one change batch in `(actor, seq)` order.
    ///
    /// A document restored by [`Doc::load`] is a faithful replica: it reads
    /// the same state and can exchange changes with the original — the
    /// image a fresh edge node is provisioned from. The image does not grow
    /// with the folded change log, but it is not bounded by visible state
    /// either: every container ever created is in it, including row maps
    /// that a later upsert of the same row superseded (ROADMAP item 5(a)).
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put(&IMAGE_MAGIC);
        self.clock.write(&mut out);
        self.snapshot_clock.write(&mut out);
        put_varint(&mut out, self.counter);
        let mut maps: Vec<_> = self.maps.iter().collect();
        maps.sort_unstable_by_key(|(id, _)| **id);
        put_varint(&mut out, maps.len() as u64);
        for (id, map) in maps {
            id.write(&mut out);
            map.write(&mut out);
        }
        let mut lists: Vec<_> = self.lists.iter().collect();
        lists.sort_unstable_by_key(|(id, _)| **id);
        put_varint(&mut out, lists.len() as u64);
        for (id, list) in lists {
            id.write(&mut out);
            list.write(&mut out);
        }
        // `put_changes` over the per-actor runs laid end to end
        put_varint(&mut out, self.history_len() as u64);
        for change in self.history.values().flat_map(|log| &log.changes) {
            out.put_change(change);
        }
        out
    }

    /// Reconstruct a document from [`Doc::save`] output, owned by `actor`.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] unless `bytes` is exactly what `save`
    /// writes for some document: on garbage, truncation or trailing bytes,
    /// anything [`Change::decode`] rejects, entries out of their canonical
    /// order, a tail that is not contiguous with the snapshot or does not
    /// reach `clock`, and containers that do not form a forest. Never
    /// panics; what it allocates is linear in `bytes.len()`.
    pub fn load(actor: ActorId, bytes: &[u8]) -> Result<Doc, CrdtError> {
        let mut r = Reader::new(bytes);
        if r.take(IMAGE_MAGIC.len())? != IMAGE_MAGIC {
            return Err(corrupt("not a save image"));
        }
        let clock = VClock::read(&mut r)?;
        let snapshot_clock = VClock::read(&mut r)?;
        let counter = r.varint()?;
        let mut maps = HashMap::new();
        let mut last = None;
        // a container id and two counts at the least
        for _ in 0..r.count(3)? {
            let id = ObjId::read(&mut r)?;
            ascending(&mut last, id)?;
            maps.insert(id, MapObj::read(&mut r)?);
        }
        if !maps.contains_key(&ObjId::Root) {
            return Err(corrupt("image has no root map"));
        }
        let mut lists = HashMap::new();
        let mut last = None;
        for _ in 0..r.count(2)? {
            let id = ObjId::read(&mut r)?;
            ascending(&mut last, id)?;
            if maps.contains_key(&id) {
                return Err(corrupt("a container is both a map and a list"));
            }
            lists.insert(id, ListObj::read(&mut r)?);
        }
        // every applied change must be accounted for: each actor's tail
        // continues its snapshot prefix, and together they reach `clock`
        let mut history: BTreeMap<ActorId, ActorLog> = BTreeMap::new();
        let mut covered = snapshot_clock.clone();
        let mut last = None;
        for change in r.changes()? {
            let (actor, seq) = (change.actor(), change.seq());
            ascending(&mut last, (actor, seq))?;
            if seq.checked_sub(1) != Some(covered.get(actor)) {
                return Err(corrupt("tail is not contiguous with the snapshot"));
            }
            covered.observe(actor, seq);
            let log = history.entry(actor).or_insert_with(|| ActorLog {
                base: snapshot_clock.get(actor),
                changes: Vec::new(),
            });
            log.changes.push(change);
        }
        if covered != clock {
            return Err(corrupt("saved history is causally incomplete"));
        }
        r.end()?;
        Ok(Doc {
            actor,
            counter,
            seq: clock.get(actor),
            clock,
            snapshot_clock,
            history,
            pending: BTreeMap::new(),
            parent: containment(&maps, &lists)?,
            maps,
            lists,
            compaction_rounds: 0,
            compacted_changes: 0,
        })
    }

    // ---- internals ----------------------------------------------------------

    fn next_op(&mut self) -> OpId {
        self.counter += 1;
        OpId::new(self.counter, self.actor)
    }

    /// Turn a JSON value into an [`OpValue`], emitting Make/Set/Insert ops
    /// for nested containers so that structural snapshots replicate as real
    /// CRDT objects rather than opaque blobs. A value handed over owned
    /// moves its scalars into their ops; a lent one is copied leaf by leaf.
    fn value_ops(&mut self, value: Cow<'_, Json>, ops: &mut Vec<Op>) -> OpValue {
        match value {
            Cow::Borrowed(Json::Object(map)) => self.map_ops(
                map.iter()
                    .map(|(k, v)| (k.as_str().into(), Cow::Borrowed(v))),
                ops,
            ),
            Cow::Owned(Json::Object(map)) => {
                self.map_ops(map.into_iter().map(|(k, v)| (k.into(), Cow::Owned(v))), ops)
            }
            Cow::Borrowed(Json::Array(items)) => {
                self.list_ops(items.iter().map(Cow::Borrowed), ops)
            }
            Cow::Owned(Json::Array(items)) => self.list_ops(items.into_iter().map(Cow::Owned), ops),
            scalar => OpValue::Scalar(scalar.into_owned()),
        }
    }

    /// The one map builder: a `MakeMap`, then per entry its value's ops and
    /// a `Set`, in the order the entries come.
    fn map_ops<'v>(
        &mut self,
        entries: impl Iterator<Item = (Arc<str>, Cow<'v, Json>)>,
        ops: &mut Vec<Op>,
    ) -> OpValue {
        let id = self.next_op();
        ops.push(Op::MakeMap { id });
        let obj = ObjId::Made(id);
        for (key, v) in entries {
            let value = self.value_ops(v, ops);
            let id = self.next_op();
            ops.push(Op::Set {
                id,
                obj,
                key,
                value,
                pred: vec![],
            });
        }
        OpValue::Obj(obj)
    }

    /// A `MakeList`, then per item its value's ops and an `Insert` after
    /// the one before.
    fn list_ops<'v>(
        &mut self,
        items: impl Iterator<Item = Cow<'v, Json>>,
        ops: &mut Vec<Op>,
    ) -> OpValue {
        let id = self.next_op();
        ops.push(Op::MakeList { id });
        let obj = ObjId::Made(id);
        let mut after = ElemRef::Head;
        for v in items {
            let value = self.value_ops(v, ops);
            let id = self.next_op();
            ops.push(Op::Insert {
                id,
                obj,
                after,
                value,
            });
            after = ElemRef::After(id);
        }
        OpValue::Obj(obj)
    }

    /// Emit the op writing `value` at `path`, creating intermediate maps.
    fn write(
        &mut self,
        path: &[PathSeg],
        value: OpValue,
        ops: &mut Vec<Op>,
    ) -> Result<(), CrdtError> {
        let (last, parents) = path
            .split_last()
            .ok_or_else(|| CrdtError::BadPath("empty path".into()))?;
        let obj = self.walk(parents, ops)?;
        match last {
            PathSeg::Key(k) => self.set_key(obj, k.as_str().into(), value, ops),
            PathSeg::Index(i) => {
                let list = self
                    .lists
                    .get(&obj)
                    .ok_or_else(|| CrdtError::BadPath(format!("{obj} is not a list")))?;
                let elem = list.visible_id(*i).ok_or(CrdtError::IndexOutOfBounds {
                    index: *i,
                    len: list.visible_len(),
                })?;
                let pred = list
                    .elems
                    .iter()
                    .find(|e| e.id == elem)
                    .map(|e| e.values.iter().map(|(id, _)| *id).collect())
                    .unwrap_or_default();
                let id = self.next_op();
                ops.push(Op::SetElem {
                    id,
                    obj,
                    elem,
                    value,
                    pred,
                });
            }
        }
        Ok(())
    }

    /// The container at `path`, creating (and applying at once, so later
    /// segments resolve) maps for missing keys.
    fn walk(&mut self, path: &[PathSeg], ops: &mut Vec<Op>) -> Result<ObjId, CrdtError> {
        let mut obj = ObjId::Root;
        for seg in path {
            obj = match seg {
                PathSeg::Key(k) => {
                    let existing = self
                        .maps
                        .get(&obj)
                        .and_then(|m| m.entries.get(k.as_str()))
                        .and_then(|v| v.last())
                        .and_then(|(_, v)| match v {
                            OpValue::Obj(o) => Some(*o),
                            OpValue::Scalar(_) => None,
                        });
                    match existing {
                        Some(o) => o,
                        None => {
                            let mid = self.next_op();
                            ops.push(Op::MakeMap { id: mid });
                            self.set_key(
                                obj,
                                k.as_str().into(),
                                OpValue::Obj(ObjId::Made(mid)),
                                ops,
                            );
                            self.apply_op(&ops[ops.len() - 2])?;
                            self.apply_op(&ops[ops.len() - 1])?;
                            ObjId::Made(mid)
                        }
                    }
                }
                PathSeg::Index(i) => {
                    let o = self
                        .lists
                        .get(&obj)
                        .and_then(|l| l.visible().nth(*i))
                        .and_then(|e| e.values.last())
                        .and_then(|(_, v)| match v {
                            OpValue::Obj(o) => Some(*o),
                            OpValue::Scalar(_) => None,
                        });
                    o.ok_or_else(|| CrdtError::BadPath(format!("no container at index {i}")))?
                }
            };
        }
        Ok(obj)
    }

    /// Emit the `Set` of `key` in map `obj`, superseding what it holds.
    fn set_key(&mut self, obj: ObjId, key: Arc<str>, value: OpValue, ops: &mut Vec<Op>) {
        let pred = self.key_pred(obj, &key);
        let id = self.next_op();
        ops.push(Op::Set {
            id,
            obj,
            key,
            value,
            pred,
        });
    }

    fn key_pred(&self, obj: ObjId, key: &str) -> Vec<OpId> {
        let Some(m) = self.maps.get(&obj) else {
            return Vec::new();
        };
        let mut pred: Vec<OpId> = m
            .entries
            .get(key)
            .map(|v| v.iter().map(|(id, _)| *id).collect())
            .unwrap_or_default();
        if let Some(incs) = m.counters.get(key) {
            pred.extend(incs.iter().map(|(id, _)| *id));
        }
        pred
    }

    /// Package `ops` as a change, apply locally, and record in history.
    fn commit(&mut self, ops: Vec<Op>) {
        if ops.is_empty() {
            return;
        }
        let deps = self.clock.clone();
        self.seq += 1;
        let change = Change::new(self.actor, self.seq, deps, ops);
        // ops produced by local mutation helpers may already be applied
        // (intermediate containers); apply_op is idempotent for Make and
        // Set-with-same-id, so replay is safe.
        for op in change.ops() {
            self.apply_op(op).expect("local ops are well-formed");
        }
        self.clock.observe(self.actor, self.seq);
        self.push_history(change);
    }

    fn apply_one(
        &mut self,
        change: Change,
        touched: Option<&mut TouchedKeys>,
    ) -> Result<(), CrdtError> {
        if let Some(touched) = touched {
            // Index containment for the whole change first: the ops filling
            // a fresh container precede the op that links it to its parent.
            for op in change.ops() {
                self.index_parent_op(op);
            }
            let mut settled = Vec::new();
            for op in change.ops() {
                self.track_op(op, &mut settled, touched);
                self.apply_indexed_op(op)?;
            }
        } else {
            for op in change.ops() {
                self.apply_op(op)?;
            }
        }
        let max = change.max_counter();
        if max > self.counter {
            self.counter = max;
        }
        self.clock.observe(change.actor(), change.seq());
        self.push_history(change);
        Ok(())
    }

    /// Append an applied change to its actor's contiguous run.
    fn push_history(&mut self, change: Change) {
        let base = self.snapshot_clock.get(change.actor());
        let log = self
            .history
            .entry(change.actor())
            .or_insert_with(|| ActorLog {
                base,
                changes: Vec::new(),
            });
        debug_assert_eq!(change.seq(), log.base + log.changes.len() as u64 + 1);
        log.changes.push(change);
    }

    /// Record in `touched` the state unit `op` lands in: the first two map
    /// keys of its location (`"rows"`/pk, `"files"`/path, or a root-level
    /// global alone). The change's containment links are already indexed.
    ///
    /// `settled` is the change's memo: containers at least two keys deep,
    /// whose unit no op key can alter and which is already recorded. The
    /// handful of ops in a row upsert write one such container and then
    /// link it, so the change costs one walk and one insert.
    fn track_op(&self, op: &Op, settled: &mut Vec<ObjId>, touched: &mut TouchedKeys) {
        let (obj, key) = match op {
            // Make ops have no location until something references them.
            Op::MakeMap { .. } | Op::MakeList { .. } => return,
            Op::Set { obj, key, .. } | Op::DelKey { obj, key, .. } | Op::Inc { obj, key, .. } => {
                (*obj, Some(key))
            }
            Op::Insert { obj, .. } | Op::SetElem { obj, .. } | Op::DelElem { obj, .. } => {
                (*obj, None)
            }
        };
        if settled.contains(&obj) {
            return;
        }
        // hanging a settled container under `key` of `obj` names the unit
        // the container's own path already named — when this op is the link
        // that path runs through (the index keeps one link per container; a
        // change linking it a second time writes another unit)
        if let Op::Set {
            value: OpValue::Obj(child),
            ..
        } = op
        {
            if settled.contains(child)
                && matches!(
                    self.parent.get(child),
                    Some((p, Some(k))) if *p == obj && Some(k) == key
                )
            {
                return;
            }
        }
        let unit = match self.container_keys(obj) {
            Some([Some(first), Some(second)]) => {
                settled.push(obj);
                Some((first, Some(second)))
            }
            Some([Some(first), None]) => Some((first, key)),
            Some([None, _]) => key.map(|k| (k, None)),
            None => None,
        };
        match unit {
            Some((first, second)) => {
                touched.keys.insert((first.clone(), second.cloned()));
            }
            None => touched.unresolved = true,
        }
    }

    /// The first two map keys on the path from the root to container
    /// `obj` (list hops contribute none); `None` when the containment
    /// chain does not reach the root.
    fn container_keys(&self, obj: ObjId) -> Option<[Option<&Arc<str>>; 2]> {
        let (mut first, mut second) = (None, None);
        let mut cur = obj;
        let mut hops = 0usize;
        while cur != ObjId::Root {
            let (p, k) = self.parent.get(&cur)?;
            if let Some(k) = k {
                // walking rootward: the newest key is the outermost so far
                second = first;
                first = Some(k);
            }
            cur = *p;
            hops += 1;
            if hops > 64 {
                return None; // defensive: malformed containment chain
            }
        }
        Some([first, second])
    }

    /// Maintain the containment index: ops that store a container reference
    /// establish where that container lives.
    fn index_parent_op(&mut self, op: &Op) {
        match op {
            Op::Set {
                obj,
                key,
                value: OpValue::Obj(child),
                ..
            } => {
                self.parent.insert(*child, (*obj, Some(key.clone())));
            }
            Op::Insert {
                obj,
                value: OpValue::Obj(child),
                ..
            }
            | Op::SetElem {
                obj,
                value: OpValue::Obj(child),
                ..
            } => {
                self.parent.insert(*child, (*obj, None));
            }
            _ => {}
        }
    }

    fn apply_op(&mut self, op: &Op) -> Result<(), CrdtError> {
        self.index_parent_op(op);
        self.apply_indexed_op(op)
    }

    /// [`Doc::apply_op`] for an op whose containment link is indexed.
    fn apply_indexed_op(&mut self, op: &Op) -> Result<(), CrdtError> {
        match op {
            Op::MakeMap { id } => {
                self.maps.entry(ObjId::Made(*id)).or_default();
            }
            Op::MakeList { id } => {
                self.lists.entry(ObjId::Made(*id)).or_default();
            }
            Op::Set {
                id,
                obj,
                key,
                value,
                pred,
            } => {
                let map = self
                    .maps
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                match map.entries.entry(Arc::clone(key)) {
                    Entry::Occupied(mut slot) => {
                        slot.get_mut().supersede(pred);
                        slot.get_mut().add(*id, value);
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Slot::One((*id, value.clone())));
                    }
                }
            }
            Op::DelKey { obj, key, pred, .. } => {
                let map = self
                    .maps
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                if let Some(slot) = map.entries.get_mut(key) {
                    slot.supersede(pred);
                }
                if let Some(incs) = map.counters.get_mut(key) {
                    incs.retain(|(oid, _)| !pred.contains(oid));
                    if incs.is_empty() {
                        map.counters.remove(key);
                    }
                }
            }
            Op::Insert {
                id,
                obj,
                after,
                value,
            } => {
                let list = self
                    .lists
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                if list.elems.iter().any(|e| e.id == *id) {
                    return Ok(()); // idempotent replay
                }
                let mut pos = match after {
                    ElemRef::Head => 0,
                    ElemRef::After(a) => {
                        list.elems
                            .iter()
                            .position(|e| e.id == *a)
                            .ok_or_else(|| CrdtError::MissingObject(format!("elem {a}")))?
                            + 1
                    }
                };
                // RGA ordering: concurrent inserts at the same anchor are
                // placed newest-first (descending op id).
                while pos < list.elems.len() && list.elems[pos].id > *id {
                    pos += 1;
                }
                list.elems.insert(
                    pos,
                    ListElem {
                        id: *id,
                        values: vec![(*id, value.clone())],
                        deleted: false,
                    },
                );
            }
            Op::SetElem {
                id,
                obj,
                elem,
                value,
                pred,
            } => {
                let list = self
                    .lists
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                let e = list
                    .elems
                    .iter_mut()
                    .find(|e| e.id == *elem)
                    .ok_or_else(|| CrdtError::MissingObject(format!("elem {elem}")))?;
                e.values.retain(|(oid, _)| !pred.contains(oid));
                if !e.values.iter().any(|(oid, _)| oid == id) {
                    e.values.push((*id, value.clone()));
                    e.values.sort_by_key(|(oid, _)| *oid);
                }
            }
            Op::DelElem { obj, elem, .. } => {
                let list = self
                    .lists
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                if let Some(e) = list.elems.iter_mut().find(|e| e.id == *elem) {
                    e.deleted = true;
                }
            }
            Op::Inc {
                id,
                obj,
                key,
                delta,
            } => {
                let map = self
                    .maps
                    .get_mut(obj)
                    .ok_or_else(|| CrdtError::MissingObject(obj.to_string()))?;
                let incs = map.counters.entry(key.clone()).or_default();
                if !incs.iter().any(|(oid, _)| oid == id) {
                    incs.push((*id, *delta));
                }
            }
        }
        Ok(())
    }

    fn get_obj(&self, path: &[PathSeg]) -> Option<ObjId> {
        let mut obj = ObjId::Root;
        for seg in path {
            let v = match seg {
                PathSeg::Key(k) => self
                    .maps
                    .get(&obj)?
                    .entries
                    .get(k.as_str())?
                    .last()
                    .map(|(_, v)| v.clone())?,
                PathSeg::Index(i) => self
                    .lists
                    .get(&obj)?
                    .visible()
                    .nth(*i)?
                    .values
                    .last()
                    .map(|(_, v)| v.clone())?,
            };
            match v {
                OpValue::Obj(o) => obj = o,
                OpValue::Scalar(_) => return None,
            }
        }
        Some(obj)
    }

    fn resolve(&self, v: &OpValue) -> Json {
        match v {
            OpValue::Scalar(j) => j.clone(),
            OpValue::Obj(o) => self.obj_json(*o),
        }
    }

    fn map_json(&self, map: &MapObj) -> Json {
        let mut out = serde_json::Map::new();
        for (k, slot) in &map.entries {
            if let Some((_, v)) = slot.last() {
                out.insert(k.to_string(), self.resolve(v));
            }
        }
        for (k, incs) in &map.counters {
            if !incs.is_empty() {
                out.insert(k.to_string(), Json::from(counter_value(incs)));
            }
        }
        Json::Object(out)
    }

    fn obj_json(&self, obj: ObjId) -> Json {
        if let Some(map) = self.maps.get(&obj) {
            self.map_json(map)
        } else if let Some(list) = self.lists.get(&obj) {
            Json::Array(
                list.visible()
                    .filter_map(|e| e.values.last().map(|(_, v)| self.resolve(v)))
                    .collect(),
            )
        } else {
            Json::Null
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn put_and_get_scalar() {
        let mut d = Doc::new(ActorId(1));
        d.put(&path!["a"], json!(5)).unwrap();
        assert_eq!(d.get(&path!["a"]), Some(json!(5)));
    }

    #[test]
    fn nested_put_creates_intermediate_maps() {
        let mut d = Doc::new(ActorId(1));
        d.put(&path!["a", "b", "c"], json!("deep")).unwrap();
        assert_eq!(d.get(&path!["a", "b", "c"]), Some(json!("deep")));
        assert_eq!(d.to_json(), json!({"a": {"b": {"c": "deep"}}}));
    }

    #[test]
    fn structural_put_replicates_subtrees() {
        let mut d = Doc::new(ActorId(1));
        d.put(&path!["cfg"], json!({"x": 1, "ys": [1, 2]})).unwrap();
        assert_eq!(d.get(&path!["cfg", "x"]), Some(json!(1)));
        assert_eq!(d.get(&path!["cfg", "ys", 1]), Some(json!(2)));
    }

    #[test]
    fn list_insert_push_delete() {
        let mut d = Doc::new(ActorId(1));
        d.put_list(&path!["l"]).unwrap();
        d.list_push(&path!["l"], json!("a")).unwrap();
        d.list_push(&path!["l"], json!("c")).unwrap();
        d.list_insert(&path!["l"], 1, json!("b")).unwrap();
        assert_eq!(d.get(&path!["l"]), Some(json!(["a", "b", "c"])));
        d.delete(&path!["l", 1]).unwrap();
        assert_eq!(d.get(&path!["l"]), Some(json!(["a", "c"])));
        assert_eq!(d.list_len(&path!["l"]), Some(2));
    }

    #[test]
    fn delete_map_key() {
        let mut d = Doc::new(ActorId(1));
        d.put(&path!["a"], json!(1)).unwrap();
        d.delete(&path!["a"]).unwrap();
        assert_eq!(d.get(&path!["a"]), None);
    }

    /// `contains` and `map_len` answer what `get(..).is_some()` and
    /// `map_keys(..).len()` answer, through deletes, a re-added key, a
    /// counter beside an entry and a counter on its own.
    #[test]
    fn contains_and_map_len_agree_with_the_reads_that_build_values() {
        let mut d = Doc::new(ActorId(1));
        let agree = |d: &Doc| {
            assert_eq!(d.map_len(&path!["m"]), d.map_keys(&path!["m"]).len());
            for k in ["a", "b", "n", "gone"] {
                let p = path!["m", k];
                assert_eq!(d.contains(&p), d.get(&p).is_some(), "{k}");
            }
        };
        agree(&d); // no map at all
        d.put(&path!["m", "a"], json!({"x": 1})).unwrap();
        d.put(&path!["m", "b"], json!(2)).unwrap();
        d.put(&path!["m", "gone"], json!(3)).unwrap();
        agree(&d);
        assert_eq!(d.map_len(&path!["m"]), 3);
        d.delete(&path!["m", "gone"]).unwrap();
        d.increment(&path!["m", "n"], 2).unwrap();
        d.increment(&path!["m", "b"], 1).unwrap();
        agree(&d);
        assert_eq!(d.map_len(&path!["m"]), 3);
        assert!(d.contains(&path!["m", "a", "x"]) && !d.contains(&path!["m", "a", "y"]));
        assert!(!d.contains(&path!["m", "b", "deeper"]), "b is a scalar");
        d.put(&path!["m", "gone"], json!(4)).unwrap();
        agree(&d);
        assert_eq!(d.map_len(&path!["m"]), 4);
    }

    #[test]
    fn sync_two_replicas_converge() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put(&path!["x"], json!(1)).unwrap();
        b.put(&path!["y"], json!(2)).unwrap();
        let ca = a.get_changes(b.clock());
        let cb = b.get_changes(a.clock());
        a.apply_changes(&cb).unwrap();
        b.apply_changes(&ca).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_json(), json!({"x": 1, "y": 2}));
    }

    #[test]
    fn concurrent_writes_resolve_lww_by_opid() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put(&path!["k"], json!("from-a")).unwrap();
        b.put(&path!["k"], json!("from-b")).unwrap();
        let ca = a.get_changes(&VClock::new());
        let cb = b.get_changes(&VClock::new());
        a.apply_changes(&cb).unwrap();
        b.apply_changes(&ca).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // actor 2 wins the counter tie
        assert_eq!(a.get(&path!["k"]), Some(json!("from-b")));
    }

    #[test]
    fn concurrent_add_survives_delete() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put(&path!["k"], json!("v1")).unwrap();
        b.merge(&a).unwrap();
        // a deletes, b rewrites concurrently
        a.delete(&path!["k"]).unwrap();
        b.put(&path!["k"], json!("v2")).unwrap();
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.get(&path!["k"]), Some(json!("v2")));
    }

    #[test]
    fn causal_buffering_handles_out_of_order_delivery() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["k"], json!(1)).unwrap();
        a.put(&path!["k"], json!(2)).unwrap();
        let all = a.get_changes(&VClock::new());
        let mut b = Doc::new(ActorId(2));
        // deliver second change first
        b.apply_changes(&[all[1].clone()]).unwrap();
        assert_eq!(b.pending_len(), 1);
        assert_eq!(b.get(&path!["k"]), None);
        b.apply_changes(&[all[0].clone()]).unwrap();
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.get(&path!["k"]), Some(json!(2)));
    }

    #[test]
    fn apply_is_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["k"], json!(1)).unwrap();
        let ch = a.get_changes(&VClock::new());
        let mut b = Doc::new(ActorId(2));
        assert_eq!(b.apply_changes(&ch).unwrap(), 1);
        assert_eq!(b.apply_changes(&ch).unwrap(), 0);
        assert_eq!(b.to_json(), a.to_json());
    }

    #[test]
    fn counters_merge_additively() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.increment(&path!["hits"], 3).unwrap();
        b.increment(&path!["hits"], 4).unwrap();
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        assert_eq!(a.get(&path!["hits"]), Some(json!(7)));
        assert_eq!(b.get(&path!["hits"]), Some(json!(7)));
    }

    #[test]
    fn snapshot_initialization_is_deterministic() {
        let snap = json!({"tables": {"users": [{"id": 1}]}, "n": 5});
        let master = Doc::from_snapshot(ActorId(1), &snap);
        let mut replica = Doc::from_snapshot(ActorId(2), &snap);
        assert_eq!(master.to_json(), replica.to_json());
        // a post-snapshot change from the master applies cleanly at the replica
        let mut master = master;
        master.put(&path!["n"], json!(6)).unwrap();
        let ch = master.get_changes(replica.clock());
        replica.apply_changes(&ch).unwrap();
        assert_eq!(replica.get(&path!["n"]), Some(json!(6)));
    }

    /// Replicas share the snapshot by construction, so it is below the
    /// compaction frontier from birth and no cursor can ask for it back.
    #[test]
    fn snapshot_genesis_is_folded_at_birth() {
        let snap = json!({"rows": {"1": {"t": "Dune"}, "2": {"t": "Emma"}}});
        let mut a = Doc::from_snapshot(ActorId(1), &snap);
        assert_eq!(a.to_json(), snap);
        assert_eq!(a.history_len(), 0);
        assert_eq!(a.clock().get(GENESIS_ACTOR), 1);
        assert_eq!(a.snapshot_clock(), a.clock());
        assert!(a.get_changes(&VClock::new()).is_empty());
        assert_eq!(a.compaction_stats(), (0, 0), "nothing was compacted");
        // an empty snapshot has no genesis at all
        assert!(Doc::from_snapshot(ActorId(1), &json!({}))
            .clock()
            .is_empty());
        // the image of a folded document loads back to the same replica
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(b.to_json(), snap);
        assert_eq!(
            (b.clock(), b.snapshot_clock()),
            (a.clock(), a.snapshot_clock())
        );
        assert_eq!(b.history_len(), 0);
        // and only what is written afterwards travels, in either direction
        a.put(&path!["rows", "1", "t"], json!("Dune II")).unwrap();
        b.delete(&path!["rows", "2"]).unwrap();
        let (to_b, to_a) = (a.get_changes(&VClock::new()), b.get_changes(&VClock::new()));
        assert_eq!((to_b.len(), to_a.len()), (1, 1));
        b.apply_changes(&to_b).unwrap();
        a.apply_changes(&to_a).unwrap();
        assert_eq!(a.to_json(), json!({"rows": {"1": {"t": "Dune II"}}}));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn three_replicas_converge_any_sync_order() {
        let mut docs = [
            Doc::new(ActorId(1)),
            Doc::new(ActorId(2)),
            Doc::new(ActorId(3)),
        ];
        docs[0].put(&path!["a"], json!(1)).unwrap();
        docs[1].put(&path!["b"], json!(2)).unwrap();
        docs[2].put(&path!["a"], json!(3)).unwrap();
        // pairwise gossip until fixpoint
        for _ in 0..3 {
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        let ch = docs[j].get_changes(docs[i].clock());
                        docs[i].apply_changes(&ch).unwrap();
                    }
                }
            }
        }
        assert_eq!(docs[0].to_json(), docs[1].to_json());
        assert_eq!(docs[1].to_json(), docs[2].to_json());
    }

    #[test]
    fn concurrent_list_inserts_converge() {
        let mut a = Doc::new(ActorId(1));
        a.put_list(&path!["l"]).unwrap();
        a.list_push(&path!["l"], json!("base")).unwrap();
        let mut b = Doc::new(ActorId(2));
        b.merge(&a).unwrap();
        a.list_insert(&path!["l"], 0, json!("a1")).unwrap();
        a.list_insert(&path!["l"], 1, json!("a2")).unwrap();
        b.list_insert(&path!["l"], 0, json!("b1")).unwrap();
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.list_len(&path!["l"]), Some(4));
    }

    #[test]
    fn set_list_element_in_place() {
        let mut d = Doc::new(ActorId(1));
        d.put(&path!["l"], json!([1, 2, 3])).unwrap();
        d.put(&path!["l", 1], json!(99)).unwrap();
        assert_eq!(d.get(&path!["l"]), Some(json!([1, 99, 3])));
    }

    #[test]
    fn errors_on_bad_paths() {
        let mut d = Doc::new(ActorId(1));
        assert!(matches!(
            d.list_insert(&path!["nope"], 0, json!(1)),
            Err(CrdtError::BadPath(_))
        ));
        d.put_list(&path!["l"]).unwrap();
        assert!(matches!(
            d.list_insert(&path!["l"], 5, json!(1)),
            Err(CrdtError::IndexOutOfBounds { .. })
        ));
        assert!(d.delete(&path![]).is_err());
    }
}

#[cfg(test)]
mod save_load_tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn save_load_round_trips_state() {
        let mut a = Doc::from_snapshot(ActorId(1), &json!({"list": [1, 2]}));
        a.put(&path!["k"], json!("v")).unwrap();
        a.increment(&path!["n"], 5).unwrap();
        let bytes = a.save();
        let b = Doc::load(ActorId(2), &bytes).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn loaded_replica_can_exchange_changes() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["x"], json!(1)).unwrap();
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        // both continue writing after the handoff
        a.put(&path!["from_a"], json!(true)).unwrap();
        b.put(&path!["from_b"], json!(true)).unwrap();
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.get(&path!["from_b"]), Some(json!(true)));
    }

    #[test]
    fn load_same_actor_continues_sequence() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["x"], json!(1)).unwrap();
        let mut a2 = Doc::load(ActorId(1), &a.save()).unwrap();
        // the restored doc may keep writing as the same actor
        a2.put(&path!["y"], json!(2)).unwrap();
        assert_eq!(a2.get(&path!["y"]), Some(json!(2)));
        assert!(a2.clock().get(ActorId(1)) > a.clock().get(ActorId(1)));
    }

    /// An image ends with its tail: a count, then the changes.
    fn with_tail(image: &[u8], old: &[Change], new: &[Change]) -> Vec<u8> {
        let old_len = 1 + old.iter().map(Change::wire_size).sum::<usize>();
        let mut out = image[..image.len() - old_len].to_vec();
        crate::wire::put_changes(&mut out, new);
        out
    }

    #[test]
    fn load_v2_rejects_tampered_tail() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["x"], json!(1)).unwrap();
        a.put(&path!["x"], json!(2)).unwrap();
        let bytes = a.save();
        let tail = a.get_changes(&VClock::new());
        assert_eq!(with_tail(&bytes, &tail, &tail), bytes);
        // drop the first tail change: the snapshot no longer connects
        assert!(matches!(
            Doc::load(ActorId(2), &with_tail(&bytes, &tail, &tail[1..])),
            Err(CrdtError::CorruptChange(_))
        ));
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
        a.put(&path!["x"], json!(1)).unwrap();
        a.put(&path!["x"], json!(2)).unwrap();
        let bytes = a.save();
        let tail = a.get_changes(&VClock::new());
        // drop the last change: the tail stops short of the clock
        let short = with_tail(&bytes, &tail, &tail[..1]);
        // the changes swapped: each seq is one the clock covers, out of turn
        let swapped = with_tail(&bytes, &tail, &[tail[1].clone(), tail[0].clone()]);
        // a byte after the image
        let mut long = bytes.clone();
        long.push(0);
        for bad in [short, swapped, long] {
            assert!(matches!(
                Doc::load(ActorId(2), &bad),
                Err(CrdtError::CorruptChange(_))
            ));
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use serde_json::json;

    /// Two replicas exchanging everything, then compacting at the shared
    /// clock: reads, future changes, and convergence are unaffected.
    #[test]
    fn compact_folds_acked_prefix_and_preserves_behaviour() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        for i in 0..20 {
            a.put(&path!["k", format!("a{i}")], json!(i)).unwrap();
            b.put(&path!["k", format!("b{i}")], json!(i)).unwrap();
        }
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        let before = a.to_json();
        let frontier = a.clock().clone();
        let dropped = a.compact(&frontier);
        assert_eq!(dropped, 40);
        assert_eq!(a.history_len(), 0);
        assert_eq!(a.to_json(), before);
        assert_eq!(a.snapshot_clock(), &frontier);
        // post-compaction writes still replicate
        a.put(&path!["post"], json!(true)).unwrap();
        b.apply_changes(&a.get_changes(b.clock())).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn compact_is_clamped_by_own_clock_and_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put(&path!["x"], json!(1)).unwrap();
        let mut beyond = VClock::new();
        beyond.observe(ActorId(1), 99);
        beyond.observe(ActorId(7), 5); // actor we have never seen
        assert_eq!(a.compact(&beyond), 1);
        assert_eq!(a.snapshot_clock().get(ActorId(1)), 1);
        assert_eq!(a.snapshot_clock().get(ActorId(7)), 0);
        assert_eq!(a.compact(&beyond), 0);
    }

    /// Partial compaction: the retained suffix is still served exactly.
    #[test]
    fn get_changes_above_frontier_survives_compaction() {
        let mut a = Doc::new(ActorId(1));
        for i in 0..10 {
            a.put(&path!["k"], json!(i)).unwrap();
        }
        let mut frontier = VClock::new();
        frontier.observe(ActorId(1), 6);
        let mut cursor = VClock::new();
        cursor.observe(ActorId(1), 6);
        let expect = a.get_changes(&cursor);
        a.compact(&frontier);
        assert_eq!(a.history_len(), 4);
        assert_eq!(a.get_changes(&cursor), expect);
        // a fully caught-up peer gets nothing
        assert!(a.get_changes(a.clock()).is_empty());
    }

    #[test]
    fn compacted_save_restores_state_clock_and_tail() {
        let mut a = Doc::from_snapshot(ActorId(1), &json!({"rows": [1, 2, 3]}));
        for i in 0..8 {
            a.put(&path!["k", format!("v{i}")], json!(i)).unwrap();
            a.increment(&path!["n"], 2).unwrap();
        }
        let mut frontier = a.clock().clone();
        // keep the last few changes as tail
        frontier.observe(ActorId(1), 0);
        let own = a.clock().get(ActorId(1));
        let mut partial = VClock::new();
        partial.observe(ActorId(1), own - 3);
        partial.observe(GENESIS_ACTOR, a.clock().get(GENESIS_ACTOR));
        a.compact(&partial);
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(b.to_json(), a.to_json());
        assert_eq!(b.clock(), a.clock());
        assert_eq!(b.snapshot_clock(), a.snapshot_clock());
        assert_eq!(b.history_len(), a.history_len());
        // the restored replica serves the same tail
        assert_eq!(b.get_changes(&partial), a.get_changes(&partial));
        // and can keep writing + syncing with the original
        a.put(&path!["after"], json!("a")).unwrap();
        b.put(&path!["after_b"], json!("b")).unwrap();
        a.merge(&b).unwrap();
        b.merge(&a).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    /// Compaction bounds the save size: a fully-compacted doc's save no
    /// longer grows with the number of historical overwrites.
    #[test]
    fn compacted_save_is_smaller_than_full_log() {
        let mut a = Doc::new(ActorId(1));
        for i in 0..200 {
            a.put(&path!["k"], json!(i)).unwrap();
        }
        let full = a.save().len();
        let frontier = a.clock().clone();
        a.compact(&frontier);
        let compacted = a.save().len();
        assert!(
            compacted * 5 < full,
            "compacted save {compacted}B not ≪ full log save {full}B"
        );
        // restored doc still reads the final value
        let b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(b.get(&path!["k"]), Some(json!(199)));
    }
}
