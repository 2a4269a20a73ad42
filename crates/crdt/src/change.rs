//! Operations and changes — the replication units exchanged between the
//! cloud master and edge replicas.

use crate::doc::CrdtError;
use crate::ids::{ActorId, OpId, VClock};
use crate::wire::{corrupt, put_op_id, put_scalar, put_str, put_varint, Count, Reader, Sink};
use serde_json::Value as Json;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Reference to a container object inside a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjId {
    /// The document root (a map).
    Root,
    /// A map created by a `MakeMap` operation.
    Made(OpId),
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjId::Root => write!(f, "root"),
            ObjId::Made(id) => write!(f, "obj({id})"),
        }
    }
}

/// The value carried by a `Set` operation: either an atomic JSON
/// scalar/array, or a reference to a map created in the same or an earlier
/// change.
#[derive(Debug, Clone, PartialEq)]
pub enum OpValue {
    /// An atomic JSON payload (merged as a unit).
    Scalar(Json),
    /// A nested map.
    Obj(ObjId),
}

/// A single CRDT operation.
///
/// Map keys are shared: the change that carries a key, the map slot it
/// lands in and the containment index all hold one `Arc<str>`, so applying
/// an op copies a reference count, not the key.
///
/// `pred` lists the op ids this operation supersedes (the values visible to
/// the writer at generation time); apply removes exactly those, so
/// concurrent writes survive as multi-values resolved by op-id order, and
/// concurrent adds survive deletes (add-wins).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Create an empty map object with identity `id`.
    MakeMap { id: OpId },
    /// Set `key` of map `obj` to `value`.
    Set {
        id: OpId,
        obj: ObjId,
        key: Arc<str>,
        value: OpValue,
        pred: Vec<OpId>,
    },
    /// Delete `key` of map `obj`.
    DelKey {
        id: OpId,
        obj: ObjId,
        key: Arc<str>,
        pred: Vec<OpId>,
    },
}

impl Op {
    /// The id of this operation.
    pub fn id(&self) -> OpId {
        match self {
            Op::MakeMap { id } | Op::Set { id, .. } | Op::DelKey { id, .. } => *id,
        }
    }
}

// ---- binary layout -------------------------------------------------------
//
// One tag byte per variant; see `crate::wire` for the primitives and
// DESIGN.md "Sync wire format" for the table. Op tags 1 and 4-7 are
// retired (an earlier layout's list and counter ops): they read as unknown
// and are not to be reused.

const OBJ_ROOT: u8 = 0;
const OBJ_MADE: u8 = 1;
const VALUE_SCALAR: u8 = 0;
const VALUE_OBJ: u8 = 1;
const OP_MAKE_MAP: u8 = 0;
const OP_SET: u8 = 2;
const OP_DEL_KEY: u8 = 3;

impl ObjId {
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        match self {
            ObjId::Root => out.put(&[OBJ_ROOT]),
            ObjId::Made(id) => {
                out.put(&[OBJ_MADE]);
                put_op_id(out, *id);
            }
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<ObjId, CrdtError> {
        match r.byte()? {
            OBJ_ROOT => Ok(ObjId::Root),
            OBJ_MADE => Ok(ObjId::Made(r.op_id()?)),
            _ => Err(corrupt("unknown object tag")),
        }
    }
}

impl OpValue {
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        match self {
            OpValue::Scalar(j) => {
                out.put(&[VALUE_SCALAR]);
                put_scalar(out, j);
            }
            OpValue::Obj(o) => {
                out.put(&[VALUE_OBJ]);
                o.write(out);
            }
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<OpValue, CrdtError> {
        match r.byte()? {
            VALUE_SCALAR => Ok(OpValue::Scalar(r.scalar()?)),
            VALUE_OBJ => Ok(OpValue::Obj(ObjId::read(r)?)),
            _ => Err(corrupt("unknown value tag")),
        }
    }
}

fn write_pred<S: Sink>(out: &mut S, pred: &[OpId]) {
    put_varint(out, pred.len() as u64);
    for id in pred {
        put_op_id(out, *id);
    }
}

fn read_pred(r: &mut Reader<'_>) -> Result<Vec<OpId>, CrdtError> {
    let n = r.count(2)?; // an op id is two varints
    let mut pred = Vec::with_capacity(n);
    for _ in 0..n {
        pred.push(r.op_id()?);
    }
    Ok(pred)
}

impl Op {
    /// Tag byte, the op's id, then the variant's fields in declaration
    /// order.
    fn write<S: Sink>(&self, out: &mut S) {
        let tag = match self {
            Op::MakeMap { .. } => OP_MAKE_MAP,
            Op::Set { .. } => OP_SET,
            Op::DelKey { .. } => OP_DEL_KEY,
        };
        out.put(&[tag]);
        put_op_id(out, self.id());
        match self {
            Op::MakeMap { .. } => {}
            Op::Set {
                obj,
                key,
                value,
                pred,
                ..
            } => {
                obj.write(out);
                put_str(out, key);
                value.write(out);
                write_pred(out, pred);
            }
            Op::DelKey { obj, key, pred, .. } => {
                obj.write(out);
                put_str(out, key);
                write_pred(out, pred);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Op, CrdtError> {
        let tag = r.byte()?;
        let id = r.op_id()?;
        Ok(match tag {
            OP_MAKE_MAP => Op::MakeMap { id },
            OP_SET => Op::Set {
                id,
                obj: ObjId::read(r)?,
                key: r.str()?.into(),
                value: OpValue::read(r)?,
                pred: read_pred(r)?,
            },
            OP_DEL_KEY => Op::DelKey {
                id,
                obj: ObjId::read(r)?,
                key: r.str()?.into(),
                pred: read_pred(r)?,
            },
            _ => return Err(corrupt("unknown op tag")),
        })
    }
}

/// A batch of operations from one actor: the unit returned by
/// `get_changes` and consumed by `apply_changes` (§III-G.1).
///
/// A `Change` is a handle on one shared, immutable record: the log that
/// retains it, every message that carries it, the relay to the other
/// edges and the standby link all hold the same allocation, and `clone`
/// is a reference count. The record remembers its encoded length
/// ([`Change::wire_size`]), so a change is sized once however many hops
/// account for it.
#[derive(Debug, Clone)]
pub struct Change(Arc<Record>);

#[derive(Debug)]
struct Record {
    actor: ActorId,
    seq: u64,
    deps: VClock,
    ops: Vec<Op>,
    /// Encoded length, filled by the first `wire_size` call or by
    /// `decode`. Derived from the four fields above, so equality ignores
    /// it.
    size: OnceLock<usize>,
}

impl PartialEq for Change {
    fn eq(&self, other: &Change) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.actor == b.actor && a.seq == b.seq && a.deps == b.deps && a.ops == b.ops)
    }
}

impl Change {
    /// A change by `actor` with per-actor sequence number `seq` (starting
    /// at 1, gapless), causal dependencies `deps` (the generating replica's
    /// clock *before* this change) and `ops` in generation order.
    pub fn new(actor: ActorId, seq: u64, deps: VClock, ops: Vec<Op>) -> Change {
        Change(Arc::new(Record {
            actor,
            seq,
            deps,
            ops,
            size: OnceLock::new(),
        }))
    }

    /// The replica that generated this change.
    pub fn actor(&self) -> ActorId {
        self.0.actor
    }

    /// Per-actor sequence number, starting at 1, gapless.
    pub fn seq(&self) -> u64 {
        self.0.seq
    }

    /// Causal dependencies: the generating replica's clock before this
    /// change (not counting the change itself).
    pub fn deps(&self) -> &VClock {
        &self.0.deps
    }

    /// The operations, in generation order.
    pub fn ops(&self) -> &[Op] {
        &self.0.ops
    }

    /// Highest op counter used inside this change (0 when empty).
    pub fn max_counter(&self) -> u64 {
        self.ops().iter().map(|o| o.id().counter).max().unwrap_or(0)
    }

    /// `actor`, `seq`, `deps`, an op count, then the ops: a record that
    /// names everything it refers to, so it reads the same in any batch.
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.actor().0);
        put_varint(out, self.seq());
        self.deps().write(out);
        put_varint(out, self.ops().len() as u64);
        for op in self.ops() {
            op.write(out);
        }
    }

    /// Append this change's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// Read one change from the front of `bytes`; returns it with the
    /// bytes that follow. The change remembers the length it was read
    /// from, so relaying it costs no second walk.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on truncated, over-long, non-canonical
    /// or otherwise malformed input. Never panics, and never reserves
    /// room for more ops, ids or values than `bytes` could encode: what
    /// decoding allocates is linear in `bytes.len()`.
    pub fn decode(bytes: &[u8]) -> Result<(Change, &[u8]), CrdtError> {
        let mut r = Reader::new(bytes);
        let change = Change::read(&mut r)?;
        Ok((change, r.rest()))
    }

    /// [`Change::decode`] at a reader's position.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Change, CrdtError> {
        let before = r.rest().len();
        let actor = ActorId(r.varint()?);
        let seq = r.varint()?;
        let deps = VClock::read(r)?;
        let n = r.count(3)?; // an op is a tag and an id at the least
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(Op::read(r)?);
        }
        Ok(Change(Arc::new(Record {
            actor,
            seq,
            deps,
            ops,
            size: OnceLock::from(before - r.rest().len()),
        })))
    }

    /// Encoded size in bytes — the WAN traffic cost of shipping this
    /// change, used for the synchronization-overhead experiments (Fig. 10a).
    /// Exactly `encode`'s length; worked out on first use and remembered
    /// by the shared record, so sender, receiver and every relay size a
    /// change once between them.
    pub fn wire_size(&self) -> usize {
        *self.0.size.get_or_init(|| Count::of(|n| self.write(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> Op {
        Op::Set {
            id: OpId::new(1, ActorId(1)),
            obj: ObjId::Root,
            key: "k".into(),
            value: OpValue::Scalar(Json::from(42)),
            pred: vec![],
        }
    }

    #[test]
    fn change_wire_round_trip_remembers_its_length() {
        let c = Change::new(ActorId(1), 1, VClock::new(), vec![op(); 3]);
        let mut bytes = vec![];
        c.encode(&mut bytes);
        bytes.push(0xAA); // whatever follows is handed back untouched
        let (back, rest) = Change::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(rest, [0xAA]);
        assert_eq!(back.0.size.get(), Some(&(bytes.len() - 1)));
        assert_eq!(c.wire_size(), bytes.len() - 1);
    }

    #[test]
    fn wire_size_is_computed_once_and_shared_by_clones() {
        let c = Change::new(ActorId(1), 1, VClock::new(), vec![op()]);
        let early = c.clone();
        assert_eq!(c.0.size.get(), None, "not sized until asked");
        let size = c.wire_size();
        assert!(size > 0);
        // one record: a handle taken before sizing sees the number too
        assert!(Arc::ptr_eq(&c.0, &early.0));
        assert_eq!(early.0.size.get(), Some(&size));
        // sized and unsized values are the same change
        assert_eq!(c, Change::new(ActorId(1), 1, VClock::new(), vec![op()]));
    }

    #[test]
    fn max_counter_over_ops() {
        let c = Change::new(
            ActorId(1),
            1,
            VClock::new(),
            vec![
                Op::MakeMap {
                    id: OpId::new(3, ActorId(1)),
                },
                Op::MakeMap {
                    id: OpId::new(7, ActorId(1)),
                },
            ],
        );
        assert_eq!(c.max_counter(), 7);
    }
}
