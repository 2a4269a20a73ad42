//! The replicated unit: a map of key → register.
//!
//! A [`Doc`] is an operation-based CRDT holding, per key, the values not
//! yet superseded; a read takes the one with the greatest op id. Every
//! write puts a whole value as one [`Op::Put`], which is what the paper's
//! generated wiring (§III-G.1) hands the CRDT. Replicas exchange
//! [`Change`] batches via [`Doc::get_changes`] / [`Doc::apply_changes`]
//! (the paper's `getChanges` / `applyChanges`), and replicas that have
//! applied the same set of changes read the same values.
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
//! # Log structure
//!
//! History is kept as a per-actor indexed log: each actor maps to a
//! seq-contiguous run of its changes, so [`Doc::get_changes`] costs
//! O(actors + delta) — an index computation and a slice copy per actor —
//! instead of a scan over the full lifetime history. Acked prefixes of the
//! log can be folded into the materialized state with [`Doc::compact`],
//! after which [`Doc::save`] emits a snapshot plus the retained tail.

use crate::change::{Change, Op, Value};
use crate::ids::{ActorId, OpId, VClock};
use crate::table::{KeyTable, KeysRead};
use crate::wire::{ascending, corrupt, put_op_id, put_str, put_varint, Reader, Sink};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Error raised by replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrdtError {
    /// Bytes that are not a change or an image: truncated, malformed or
    /// not in the one canonical form.
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

/// The live `(opid, value)` pairs of one key, ascending by opid; the
/// visible value is the last one. A key holds one value at a time unless
/// writes to it were concurrent, so one value is kept inline.
#[derive(Debug, Clone)]
enum Slot {
    One((OpId, Value)),
    /// None, or several.
    Many(Vec<(OpId, Value)>),
}

impl std::ops::Deref for Slot {
    type Target = [(OpId, Value)];

    fn deref(&self) -> &[(OpId, Value)] {
        match self {
            Slot::One(value) => std::slice::from_ref(value),
            Slot::Many(values) => values,
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
    fn add(&mut self, id: OpId, value: &Value) {
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

// ---- save image -----------------------------------------------------------
//
// The registers must round-trip exactly (op ids included): future changes
// name the values they supersede by op id (`pred` lists), so an image
// cannot be rebuilt from plain state. DESIGN.md "Sync wire format" has the
// layout; the primitives are `crate::wire`'s.

/// What an image starts with: three magic bytes and the layout's version.
const IMAGE_MAGIC: [u8; 4] = *b"EDG\x06";

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
/// edge.apply_changes(changes);
/// assert!(edge.entries().eq(cloud.entries()));
/// ```
#[derive(Debug, Clone)]
pub struct Doc {
    actor: ActorId,
    /// The Lamport counter of each namespace: the greatest op counter
    /// written or applied there.
    counters: BTreeMap<char, u64>,
    seq: u64,
    clock: VClock,
    /// Everything at or below this clock has been folded into the
    /// materialized state and is no longer individually replayable.
    snapshot_clock: VClock,
    /// Per-actor indexed change log: each actor's retained changes,
    /// ascending and contiguous in seq right above its `snapshot_clock`
    /// entry (`history[a][i].seq == snapshot_clock.get(a) + 1 + i`).
    /// Because sequence numbers are gapless, locating the suffix a peer is
    /// missing is a direct offset computation.
    history: BTreeMap<ActorId, Vec<Change>>,
    /// Changes buffered awaiting causal dependencies, keyed by
    /// `(actor, seq)` so each retry pass probes exactly the next
    /// applicable seq per actor instead of re-scanning a queue.
    pending: BTreeMap<(ActorId, u64), Change>,
    /// key → the values not superseded; a key with none is not held.
    registers: BTreeMap<Arc<str>, Slot>,
}

impl Doc {
    /// Create an empty document owned by `actor`.
    pub fn new(actor: ActorId) -> Self {
        Doc {
            actor,
            counters: BTreeMap::new(),
            seq: 0,
            clock: VClock::new(),
            snapshot_clock: VClock::new(),
            history: BTreeMap::new(),
            pending: BTreeMap::new(),
            registers: BTreeMap::new(),
        }
    }

    /// Create a document holding `entries` (a key given twice holds its
    /// last value).
    ///
    /// The entries are put as a deterministic *genesis change* by the
    /// reserved [`GENESIS_ACTOR`], one op per key in key order, so the
    /// cloud master and every edge replica initialized from the same
    /// entries hold byte-identical registers — the paper's "initialize
    /// both the master and the replicas with the same snapshot" step
    /// (§III-G.1).
    ///
    /// Because every replica already holds it, the genesis change is folded
    /// into the snapshot at birth: it is below [`Doc::snapshot_clock`],
    /// never retained in the log and never shipped by
    /// [`Doc::get_changes`], whatever cursor a peer presents.
    pub fn from_snapshot(
        actor: ActorId,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> Self {
        let entries: BTreeMap<String, Value> = entries.into_iter().collect();
        let mut doc = Doc::new(GENESIS_ACTOR);
        let ops = entries
            .into_iter()
            .map(|(key, value)| Op::Put {
                id: doc.next_op(&key),
                key: key.into(),
                value,
                pred: vec![],
            })
            .collect();
        doc.commit(ops);
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
        self.history.values().map(Vec::len).sum()
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

    /// Write `value` at `key`, superseding every value the key holds.
    pub fn put(&mut self, key: &str, value: Value) {
        let (key, pred) = self.held(key);
        let id = self.next_op(&key);
        self.commit(vec![Op::Put {
            id,
            key,
            value,
            pred,
        }]);
    }

    /// Delete `key` (no change when it holds nothing).
    pub fn delete(&mut self, key: &str) {
        if !self.registers.contains_key(key) {
            return;
        }
        let (key, pred) = self.held(key);
        let id = self.next_op(&key);
        self.commit(vec![Op::Del { id, key, pred }]);
    }

    // ---- read API ----------------------------------------------------------

    /// The value at `key`: of the values not superseded, the one with the
    /// greatest op id.
    pub fn get(&self, key: &str) -> Option<&Value> {
        Some(&self.registers.get(key)?.last()?.1)
    }

    /// Every key and the value [`Doc::get`] reads there, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.registers
            .iter()
            .filter_map(|(key, slot)| Some((&**key, &slot.last()?.1)))
    }

    /// The keys that start with `prefix`, each with the prefix cut off, and
    /// the value [`Doc::get`] reads there, in key order.
    pub fn entries_under<'a, 'p>(
        &'a self,
        prefix: &'p str,
    ) -> impl Iterator<Item = (&'a str, &'a Value)> + use<'a, 'p> {
        let from = (Bound::Included(prefix), Bound::Unbounded);
        self.registers
            .range::<str, _>(from)
            .map_while(move |(key, slot)| Some((key.strip_prefix(prefix)?, slot)))
            .filter_map(|(key, slot)| Some((key, &slot.last()?.1)))
    }

    /// Number of keys holding a value.
    pub fn len(&self) -> usize {
        self.registers.len()
    }

    /// Whether no key holds a value.
    pub fn is_empty(&self) -> bool {
        self.registers.is_empty()
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
        let suffix = |actor: ActorId, log: &[Change]| {
            let have = since.get(actor);
            let base = self.snapshot_clock.get(actor);
            have.saturating_sub(base).min(log.len() as u64) as usize
        };
        let total: usize = self
            .history
            .iter()
            .map(|(actor, log)| log.len() - suffix(*actor, log))
            .sum();
        let mut out = Vec::with_capacity(total);
        for (actor, log) in &self.history {
            out.extend_from_slice(&log[suffix(*actor, log)..]);
        }
        out
    }

    /// Apply remote changes, taking the batch over (no delta is cloned).
    /// Changes already applied are skipped; changes whose causal
    /// dependencies are not yet satisfied are buffered and retried
    /// automatically as their dependencies arrive. Returns the number of
    /// changes applied (now or from the pending buffer) and the keys their
    /// ops wrote — the invalidation signal for per-unit version counters.
    /// Buffered ops are reported by the call that releases them.
    ///
    /// The incoming batch and the pending buffer are indexed by
    /// `(actor, seq)`; each pass probes only the next applicable seq per
    /// actor, so a pass costs O(actors·log pending) rather than a scan of
    /// everything buffered.
    pub fn apply_changes(&mut self, changes: Vec<Change>) -> (usize, BTreeSet<Arc<str>>) {
        let mut touched = BTreeSet::new();
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
                    self.apply_one(change, &mut touched);
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
                        self.apply_one(change, &mut touched);
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
        (applied, touched)
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
            let base = self.snapshot_clock.get(*actor);
            let target = frontier.get(*actor).min(self.clock.get(*actor));
            if target <= base {
                continue;
            }
            let n = (target - base) as usize;
            log.drain(..n);
            self.snapshot_clock.observe(*actor, target);
            dropped += n;
        }
        dropped
    }

    /// Serialize this replica as a state snapshot plus the retained change
    /// tail, in the [`crate::wire`] codec: magic and version, `clock`,
    /// `snapshot_clock`, the namespace counters, the key table of the rows
    /// the registers hold, the registers in key order, and the tail as one
    /// change batch in `(actor, seq)` order.
    ///
    /// A document restored by [`Doc::load`] is a faithful replica: it reads
    /// the same state and can exchange changes with the original — the
    /// image a fresh edge node is provisioned from. The image holds the
    /// values not superseded and the retained tail, nothing else: an
    /// overwritten row leaves its register when it is overwritten.
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put(&IMAGE_MAGIC);
        self.clock.write(&mut out);
        self.snapshot_clock.write(&mut out);
        put_varint(&mut out, self.counters.len() as u64);
        for (namespace, counter) in &self.counters {
            put_varint(&mut out, u64::from(*namespace));
            put_varint(&mut out, *counter);
        }
        let values = self.registers.values().flat_map(|slot| slot.iter());
        let keys = KeyTable::of(values.filter_map(|(_, value)| value.as_row()));
        keys.write(&mut out);
        put_varint(&mut out, self.registers.len() as u64);
        for (key, slot) in &self.registers {
            put_str(&mut out, key);
            put_varint(&mut out, slot.len() as u64);
            for (id, value) in slot.iter() {
                put_op_id(&mut out, *id);
                value.write(&mut out, &keys);
            }
        }
        // `put_changes` over the per-actor runs laid end to end
        put_varint(&mut out, self.history_len() as u64);
        for change in self.history.values().flatten() {
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
    /// another layout version, anything [`Change::decode`] rejects, entries
    /// out of their canonical order, a key holding no value, and a tail
    /// that is not contiguous with the snapshot or does not reach `clock`.
    /// Never panics; what it allocates is linear in `bytes.len()`.
    pub fn load(actor: ActorId, bytes: &[u8]) -> Result<Doc, CrdtError> {
        let mut r = Reader::new(bytes);
        if r.take(IMAGE_MAGIC.len())? != IMAGE_MAGIC {
            return Err(corrupt("not a save image"));
        }
        let clock = VClock::read(&mut r)?;
        let snapshot_clock = VClock::read(&mut r)?;
        let mut counters = BTreeMap::new();
        let mut last = None;
        // a namespace and a counter are two varints
        for _ in 0..r.count(2)? {
            let namespace = u32::try_from(r.varint()?).ok().and_then(char::from_u32);
            let namespace = namespace.ok_or_else(|| corrupt("a namespace is not a char"))?;
            ascending(&mut last, namespace)?;
            counters.insert(namespace, r.varint()?);
        }
        let mut keys = KeysRead::read(&mut r)?;
        let mut registers = BTreeMap::new();
        let mut last = None;
        // a key length and a count at the least
        for _ in 0..r.count(2)? {
            let key = r.str()?;
            ascending(&mut last, key)?;
            // an op id is two varints, a value a tag and a byte at the least
            let n = r.count(4)?;
            if n == 0 {
                return Err(corrupt("a key holds no value"));
            }
            let mut values = Vec::with_capacity(n);
            let mut last = None;
            for _ in 0..n {
                let id = r.op_id()?;
                ascending(&mut last, id)?;
                values.push((id, Value::read(&mut r, &mut keys)?));
            }
            let slot = match values.len() {
                1 => Slot::One(values.remove(0)),
                _ => Slot::Many(values),
            };
            registers.insert(Arc::from(key), slot);
        }
        keys.end()?;
        // every applied change must be accounted for: each actor's tail
        // continues its snapshot prefix, and together they reach `clock`
        let mut history: BTreeMap<ActorId, Vec<Change>> = BTreeMap::new();
        let mut covered = snapshot_clock.clone();
        let mut last = None;
        for change in r.changes()? {
            let (actor, seq) = (change.actor(), change.seq());
            ascending(&mut last, (actor, seq))?;
            if seq.checked_sub(1) != Some(covered.get(actor)) {
                return Err(corrupt("tail is not contiguous with the snapshot"));
            }
            covered.observe(actor, seq);
            history.entry(actor).or_default().push(change);
        }
        if covered != clock {
            return Err(corrupt("saved history is causally incomplete"));
        }
        r.end()?;
        Ok(Doc {
            actor,
            counters,
            seq: clock.get(actor),
            clock,
            snapshot_clock,
            history,
            pending: BTreeMap::new(),
            registers,
        })
    }

    // ---- internals ----------------------------------------------------------

    /// The id of the next op this replica writes at `key`.
    fn next_op(&mut self, key: &str) -> OpId {
        let counter = self.counters.entry(namespace(key)).or_default();
        *counter += 1;
        OpId::new(*counter, self.actor)
    }

    /// `key` as this document holds it (shared, when it is held), and the
    /// ids of the values it holds: what a write there supersedes.
    fn held(&self, key: &str) -> (Arc<str>, Vec<OpId>) {
        match self.registers.get_key_value(key) {
            Some((key, slot)) => (Arc::clone(key), slot.iter().map(|(id, _)| *id).collect()),
            None => (key.into(), Vec::new()),
        }
    }

    /// Package `ops` as a change, apply locally, and record in history.
    ///
    /// The change depends on everything this replica has applied, less two
    /// entries no receiver needs: the genesis change, which every replica
    /// holds from the shared snapshot, and the author's own earlier
    /// changes, which the gapless `seq == have + 1` check at each apply
    /// site already requires.
    fn commit(&mut self, ops: Vec<Op>) {
        if ops.is_empty() {
            return;
        }
        let mut deps = self.clock.clone();
        deps.0.remove(&GENESIS_ACTOR);
        deps.0.remove(&self.actor);
        self.seq += 1;
        let change = Change::new(self.actor, self.seq, deps, ops);
        for op in change.ops() {
            self.apply_op(op);
        }
        self.clock.observe(self.actor, self.seq);
        self.push_history(change);
    }

    /// Apply a remote change whose causal dependencies are met, recording
    /// in `touched` the keys its ops write.
    fn apply_one(&mut self, change: Change, touched: &mut BTreeSet<Arc<str>>) {
        for op in change.ops() {
            if !touched.contains(op.key()) {
                touched.insert(Arc::clone(op.key()));
            }
            let counter = self.counters.entry(namespace(op.key())).or_default();
            *counter = (*counter).max(op.id().counter);
            self.apply_op(op);
        }
        self.clock.observe(change.actor(), change.seq());
        self.push_history(change);
    }

    /// Append an applied change to its actor's contiguous run.
    fn push_history(&mut self, change: Change) {
        let base = self.snapshot_clock.get(change.actor());
        let log = self.history.entry(change.actor()).or_default();
        debug_assert_eq!(change.seq(), base + log.len() as u64 + 1);
        log.push(change);
    }

    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::Put {
                id,
                key,
                value,
                pred,
            } => match self.registers.entry(Arc::clone(key)) {
                Entry::Occupied(mut slot) => {
                    slot.get_mut().supersede(pred);
                    slot.get_mut().add(*id, value);
                }
                Entry::Vacant(slot) => {
                    slot.insert(Slot::One((*id, value.clone())));
                }
            },
            Op::Del { key, pred, .. } => {
                if let Some(slot) = self.registers.get_mut(key) {
                    slot.supersede(pred);
                    if slot.is_empty() {
                        self.registers.remove(key);
                    }
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

    /// Apply everything `src` has that `dst` has not.
    pub(super) fn pull(dst: &mut Doc, src: &Doc) {
        dst.apply_changes(src.get_changes(dst.clock()));
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

    /// An array is one value: put in one op, replaced whole.
    #[test]
    fn arrays_are_atomic_leaves() {
        let mut d = Doc::new(ActorId(1));
        d.put("l", j(json!([1, {"x": 2}, 3])));
        let ops = d.get_changes(&VClock::new())[0].ops().to_vec();
        assert!(
            matches!(&ops[..], [Op::Put { value: Value::Json(v), .. }] if *v == json!([1, {"x": 2}, 3]))
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
        let ca = a.get_changes(&VClock::new());
        let cb = b.get_changes(&VClock::new());
        a.apply_changes(cb);
        b.apply_changes(ca);
        assert_eq!(state(&a), state(&b));
        // actor 2 wins the counter tie
        assert_eq!(a.get("k"), Some(&j(json!("from-b"))));
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
        let ids = |d: &Doc| {
            d.get_changes(&VClock::new())
                .iter()
                .map(|c| c.ops()[0].id())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ids(&a).last(),
            Some(&OpId::new(1, ActorId(1))),
            "tk is the first write in t"
        );
        assert_eq!(ids(&a)[4], OpId::new(5, ActorId(1)));
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
        let new: Vec<_> = back
            .get_changes(&since)
            .iter()
            .map(|c| c.ops()[0].id())
            .collect();
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

    #[test]
    fn causal_buffering_handles_out_of_order_delivery() {
        let mut a = Doc::new(ActorId(1));
        a.put("k", j(json!(1)));
        a.put("k", j(json!(2)));
        let all = a.get_changes(&VClock::new());
        let mut b = Doc::new(ActorId(2));
        // deliver second change first
        b.apply_changes(vec![all[1].clone()]);
        assert_eq!(b.pending_len(), 1);
        assert_eq!(b.get("k"), None);
        b.apply_changes(vec![all[0].clone()]);
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.get("k"), Some(&j(json!(2))));
    }

    #[test]
    fn apply_is_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put("k", j(json!(1)));
        let ch = a.get_changes(&VClock::new());
        let mut b = Doc::new(ActorId(2));
        assert_eq!(b.apply_changes(ch.clone()).0, 1);
        assert_eq!(b.apply_changes(ch).0, 0);
        assert_eq!(state(&b), state(&a));
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
        // a post-snapshot change from the master applies cleanly at the replica
        let mut master = master;
        master.put("n", j(json!(6)));
        let ch = master.get_changes(replica.clock());
        replica.apply_changes(ch);
        assert_eq!(replica.get("n"), Some(&j(json!(6))));
        assert_eq!(
            replica.len(),
            2,
            "the write superseded the snapshot's value"
        );
    }

    /// Replicas share the snapshot by construction, so it is below the
    /// compaction frontier from birth and no cursor can ask for it back.
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
        assert_eq!(a.snapshot_clock(), a.clock());
        assert!(a.get_changes(&VClock::new()).is_empty());
        // an empty snapshot has no genesis at all
        assert!(Doc::from_snapshot(ActorId(1), []).clock().is_empty());
        // the image of a folded document loads back to the same replica
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(state(&b), state(&a));
        assert_eq!(
            (b.clock(), b.snapshot_clock()),
            (a.clock(), a.snapshot_clock())
        );
        assert_eq!(b.history_len(), 0);
        // and only what is written afterwards travels, in either direction
        a.put("n", j(json!(7)));
        b.delete("tables");
        let (to_b, to_a) = (a.get_changes(&VClock::new()), b.get_changes(&VClock::new()));
        assert_eq!((to_b.len(), to_a.len()), (1, 1));
        b.apply_changes(to_b);
        a.apply_changes(to_a);
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
                        let ch = docs[k].get_changes(docs[i].clock());
                        docs[i].apply_changes(ch);
                    }
                }
            }
        }
        assert_eq!(state(&docs[0]), state(&docs[1]));
        assert_eq!(state(&docs[1]), state(&docs[2]));
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

    /// A delete of a key that holds nothing is no change at all.
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
        a.put("x", j(json!(1)));
        a.put("x", j(json!(2)));
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
        a.put("x", j(json!(1)));
        a.put("x", j(json!(2)));
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
    use super::tests::{j, pull, state};
    use super::*;
    use serde_json::json;

    /// Two replicas exchanging everything, then compacting at the shared
    /// clock: reads, future changes, and convergence are unaffected.
    #[test]
    fn compact_folds_acked_prefix_and_preserves_behaviour() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        for i in 0..20 {
            a.put(&format!("a{i}"), j(json!(i)));
            b.put(&format!("b{i}"), j(json!(i)));
        }
        pull(&mut a, &b);
        pull(&mut b, &a);
        let before = state(&a);
        let frontier = a.clock().clone();
        let dropped = a.compact(&frontier);
        assert_eq!(dropped, 40);
        assert_eq!(a.history_len(), 0);
        assert_eq!(state(&a), before);
        assert_eq!(a.snapshot_clock(), &frontier);
        // post-compaction writes still replicate
        a.put("post", j(json!(true)));
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
    }

    #[test]
    fn compact_is_clamped_by_own_clock_and_idempotent() {
        let mut a = Doc::new(ActorId(1));
        a.put("x", j(json!(1)));
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
            a.put("k", j(json!(i)));
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
        let mut a = Doc::from_snapshot(ActorId(1), [("rows".to_string(), j(json!([1, 2, 3])))]);
        for i in 0..8 {
            a.put(&format!("v{i}"), j(json!(i)));
            a.put("n", j(json!([i, 2 * i])));
        }
        let own = a.clock().get(ActorId(1));
        let mut partial = VClock::new();
        partial.observe(ActorId(1), own - 3);
        partial.observe(GENESIS_ACTOR, a.clock().get(GENESIS_ACTOR));
        a.compact(&partial);
        let mut b = Doc::load(ActorId(2), &a.save()).unwrap();
        assert_eq!(state(&b), state(&a));
        assert_eq!(b.clock(), a.clock());
        assert_eq!(b.snapshot_clock(), a.snapshot_clock());
        assert_eq!(b.history_len(), a.history_len());
        // the restored replica serves the same tail
        assert_eq!(b.get_changes(&partial), a.get_changes(&partial));
        // and can keep writing + syncing with the original
        a.put("after", j(json!("a")));
        b.put("after_b", j(json!("b")));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(state(&a), state(&b));
    }

    /// Compaction bounds the save size: a fully-compacted doc's save no
    /// longer grows with the number of historical overwrites.
    #[test]
    fn compacted_save_is_smaller_than_full_log() {
        let mut a = Doc::new(ActorId(1));
        for i in 0..200 {
            a.put("k", j(json!(i)));
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
        assert_eq!(b.get("k"), Some(&j(json!(199))));
    }
}
