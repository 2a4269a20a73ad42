//! Operations and changes — the replication units exchanged between the
//! cloud master and edge replicas.

use crate::doc::CrdtError;
use crate::ids::{ActorId, OpId, VClock};
use crate::wire::{
    corrupt, put_op_id, put_scalar, put_str, put_varint, put_zigzag, Count, Reader, Sink,
};
use serde::{Deserialize, Serialize};
use serde_json::{Error as JsonError, Value as Json};
use std::fmt;
use std::sync::{Arc, OnceLock};

// ---- manual (de)serialization helpers -----------------------------------
//
// JSON forms, for the save image and debugging — the sync wire is the
// binary layout further down. The offline serde stand-in has no derive
// macros, so these are hand-rolled: enums use the externally-tagged shape
// derives would produce ({"Variant": payload} / "Variant" for unit
// variants), structs use plain objects.

fn tag(name: &str, payload: Json) -> Json {
    let mut m = serde_json::Map::new();
    m.insert(name.to_string(), payload);
    Json::Object(m)
}

/// Split `{"Variant": payload}` into its single tag/payload pair.
fn untag(v: &Json) -> Result<(&str, &Json), JsonError> {
    let obj = v
        .as_object()
        .ok_or_else(|| JsonError::custom("expected externally tagged enum"))?;
    let mut it = obj.iter();
    match (it.next(), it.next()) {
        (Some((k, payload)), None) => Ok((k.as_str(), payload)),
        _ => Err(JsonError::custom("expected single-key tag object")),
    }
}

fn field<'v>(obj: &'v serde_json::Map, name: &str) -> Result<&'v Json, JsonError> {
    obj.get(name)
        .ok_or_else(|| JsonError::custom(format!("missing field '{name}'")))
}

fn as_struct(v: &Json) -> Result<&serde_json::Map, JsonError> {
    v.as_object()
        .ok_or_else(|| JsonError::custom("expected struct object"))
}

fn vec_to_json<T: Serialize>(items: &[T]) -> Json {
    Json::Array(items.iter().map(Serialize::to_json_value).collect())
}

pub(crate) fn vec_from_json<T: Deserialize>(v: &Json) -> Result<Vec<T>, JsonError> {
    v.as_array()
        .ok_or_else(|| JsonError::custom("expected array"))?
        .iter()
        .map(T::from_json_value)
        .collect()
}

/// Reference to a container object inside a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjId {
    /// The document root (a map).
    Root,
    /// A map or list created by a `MakeMap`/`MakeList` operation.
    Made(OpId),
}

impl Serialize for ObjId {
    fn to_json_value(&self) -> Json {
        match self {
            ObjId::Root => Json::from("Root"),
            ObjId::Made(id) => tag("Made", id.to_json_value()),
        }
    }
}

impl Deserialize for ObjId {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        if v.as_str() == Some("Root") {
            return Ok(ObjId::Root);
        }
        match untag(v)? {
            ("Made", payload) => Ok(ObjId::Made(OpId::from_json_value(payload)?)),
            (other, _) => Err(JsonError::custom(format!(
                "ObjId: unknown variant '{other}'"
            ))),
        }
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjId::Root => write!(f, "root"),
            ObjId::Made(id) => write!(f, "obj({id})"),
        }
    }
}

/// The value carried by a `Set`/`Insert` operation: either an atomic JSON
/// scalar/subtree, or a reference to a container created in the same or an
/// earlier change.
#[derive(Debug, Clone, PartialEq)]
pub enum OpValue {
    /// An atomic JSON payload (merged as a unit).
    Scalar(Json),
    /// A nested container.
    Obj(ObjId),
}

impl Serialize for OpValue {
    fn to_json_value(&self) -> Json {
        match self {
            OpValue::Scalar(j) => tag("Scalar", j.clone()),
            OpValue::Obj(o) => tag("Obj", o.to_json_value()),
        }
    }
}

impl Deserialize for OpValue {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        match untag(v)? {
            ("Scalar", payload) => Ok(OpValue::Scalar(payload.clone())),
            ("Obj", payload) => Ok(OpValue::Obj(ObjId::from_json_value(payload)?)),
            (other, _) => Err(JsonError::custom(format!(
                "OpValue: unknown variant '{other}'"
            ))),
        }
    }
}

/// Position reference for list insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemRef {
    /// Insert at the head of the list.
    Head,
    /// Insert after the element created by this op.
    After(OpId),
}

impl Serialize for ElemRef {
    fn to_json_value(&self) -> Json {
        match self {
            ElemRef::Head => Json::from("Head"),
            ElemRef::After(id) => tag("After", id.to_json_value()),
        }
    }
}

impl Deserialize for ElemRef {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        if v.as_str() == Some("Head") {
            return Ok(ElemRef::Head);
        }
        match untag(v)? {
            ("After", payload) => Ok(ElemRef::After(OpId::from_json_value(payload)?)),
            (other, _) => Err(JsonError::custom(format!(
                "ElemRef: unknown variant '{other}'"
            ))),
        }
    }
}

/// A single CRDT operation.
///
/// `pred` lists the op ids this operation supersedes (the values visible to
/// the writer at generation time); apply removes exactly those, so
/// concurrent writes survive as multi-values resolved by op-id order, and
/// concurrent adds survive deletes (add-wins).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Create an empty map object with identity `id`.
    MakeMap { id: OpId },
    /// Create an empty list object with identity `id`.
    MakeList { id: OpId },
    /// Set `key` of map `obj` to `value`.
    Set {
        id: OpId,
        obj: ObjId,
        key: String,
        value: OpValue,
        pred: Vec<OpId>,
    },
    /// Delete `key` of map `obj`.
    DelKey {
        id: OpId,
        obj: ObjId,
        key: String,
        pred: Vec<OpId>,
    },
    /// Insert a new element into list `obj` after `after`.
    Insert {
        id: OpId,
        obj: ObjId,
        after: ElemRef,
        value: OpValue,
    },
    /// Overwrite the value of an existing list element.
    SetElem {
        id: OpId,
        obj: ObjId,
        elem: OpId,
        value: OpValue,
        pred: Vec<OpId>,
    },
    /// Tombstone a list element.
    DelElem { id: OpId, obj: ObjId, elem: OpId },
    /// Add `delta` to the counter at `key` of map `obj` (PN-counter cell).
    Inc {
        id: OpId,
        obj: ObjId,
        key: String,
        delta: i64,
    },
}

impl Serialize for Op {
    fn to_json_value(&self) -> Json {
        let mut m = serde_json::Map::new();
        let variant = match self {
            Op::MakeMap { id } => {
                m.insert("id".into(), id.to_json_value());
                "MakeMap"
            }
            Op::MakeList { id } => {
                m.insert("id".into(), id.to_json_value());
                "MakeList"
            }
            Op::Set {
                id,
                obj,
                key,
                value,
                pred,
            } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("key".into(), Json::from(key.as_str()));
                m.insert("value".into(), value.to_json_value());
                m.insert("pred".into(), vec_to_json(pred));
                "Set"
            }
            Op::DelKey { id, obj, key, pred } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("key".into(), Json::from(key.as_str()));
                m.insert("pred".into(), vec_to_json(pred));
                "DelKey"
            }
            Op::Insert {
                id,
                obj,
                after,
                value,
            } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("after".into(), after.to_json_value());
                m.insert("value".into(), value.to_json_value());
                "Insert"
            }
            Op::SetElem {
                id,
                obj,
                elem,
                value,
                pred,
            } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("elem".into(), elem.to_json_value());
                m.insert("value".into(), value.to_json_value());
                m.insert("pred".into(), vec_to_json(pred));
                "SetElem"
            }
            Op::DelElem { id, obj, elem } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("elem".into(), elem.to_json_value());
                "DelElem"
            }
            Op::Inc {
                id,
                obj,
                key,
                delta,
            } => {
                m.insert("id".into(), id.to_json_value());
                m.insert("obj".into(), obj.to_json_value());
                m.insert("key".into(), Json::from(key.as_str()));
                m.insert("delta".into(), Json::from(*delta));
                "Inc"
            }
        };
        tag(variant, Json::Object(m))
    }
}

impl Deserialize for Op {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let (variant, payload) = untag(v)?;
        let obj = as_struct(payload)?;
        let id = OpId::from_json_value(field(obj, "id")?)?;
        let key_of = |name: &str| -> Result<String, JsonError> {
            field(obj, name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| JsonError::custom(format!("Op: '{name}' must be a string")))
        };
        match variant {
            "MakeMap" => Ok(Op::MakeMap { id }),
            "MakeList" => Ok(Op::MakeList { id }),
            "Set" => Ok(Op::Set {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                key: key_of("key")?,
                value: OpValue::from_json_value(field(obj, "value")?)?,
                pred: vec_from_json(field(obj, "pred")?)?,
            }),
            "DelKey" => Ok(Op::DelKey {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                key: key_of("key")?,
                pred: vec_from_json(field(obj, "pred")?)?,
            }),
            "Insert" => Ok(Op::Insert {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                after: ElemRef::from_json_value(field(obj, "after")?)?,
                value: OpValue::from_json_value(field(obj, "value")?)?,
            }),
            "SetElem" => Ok(Op::SetElem {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                elem: OpId::from_json_value(field(obj, "elem")?)?,
                value: OpValue::from_json_value(field(obj, "value")?)?,
                pred: vec_from_json(field(obj, "pred")?)?,
            }),
            "DelElem" => Ok(Op::DelElem {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                elem: OpId::from_json_value(field(obj, "elem")?)?,
            }),
            "Inc" => Ok(Op::Inc {
                id,
                obj: ObjId::from_json_value(field(obj, "obj")?)?,
                key: key_of("key")?,
                delta: field(obj, "delta")?
                    .as_i64()
                    .ok_or_else(|| JsonError::custom("Op::Inc: delta must be i64"))?,
            }),
            other => Err(JsonError::custom(format!("Op: unknown variant '{other}'"))),
        }
    }
}

impl Op {
    /// The id of this operation.
    pub fn id(&self) -> OpId {
        match self {
            Op::MakeMap { id }
            | Op::MakeList { id }
            | Op::Set { id, .. }
            | Op::DelKey { id, .. }
            | Op::Insert { id, .. }
            | Op::SetElem { id, .. }
            | Op::DelElem { id, .. }
            | Op::Inc { id, .. } => *id,
        }
    }
}

// ---- binary wire layout --------------------------------------------------
//
// One tag byte per variant; see `crate::wire` for the primitives and
// DESIGN.md "Sync wire format" for the table.

const OBJ_ROOT: u8 = 0;
const OBJ_MADE: u8 = 1;
const ELEM_HEAD: u8 = 0;
const ELEM_AFTER: u8 = 1;
const VALUE_SCALAR: u8 = 0;
const VALUE_OBJ: u8 = 1;
const OP_MAKE_MAP: u8 = 0;
const OP_MAKE_LIST: u8 = 1;
const OP_SET: u8 = 2;
const OP_DEL_KEY: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_SET_ELEM: u8 = 5;
const OP_DEL_ELEM: u8 = 6;
const OP_INC: u8 = 7;

impl ObjId {
    fn write<S: Sink>(&self, out: &mut S) {
        match self {
            ObjId::Root => out.put(&[OBJ_ROOT]),
            ObjId::Made(id) => {
                out.put(&[OBJ_MADE]);
                put_op_id(out, *id);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<ObjId, CrdtError> {
        match r.byte()? {
            OBJ_ROOT => Ok(ObjId::Root),
            OBJ_MADE => Ok(ObjId::Made(r.op_id()?)),
            _ => Err(corrupt("unknown object tag")),
        }
    }
}

impl ElemRef {
    fn write<S: Sink>(&self, out: &mut S) {
        match self {
            ElemRef::Head => out.put(&[ELEM_HEAD]),
            ElemRef::After(id) => {
                out.put(&[ELEM_AFTER]);
                put_op_id(out, *id);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<ElemRef, CrdtError> {
        match r.byte()? {
            ELEM_HEAD => Ok(ElemRef::Head),
            ELEM_AFTER => Ok(ElemRef::After(r.op_id()?)),
            _ => Err(corrupt("unknown element tag")),
        }
    }
}

impl OpValue {
    fn write<S: Sink>(&self, out: &mut S) {
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

    fn read(r: &mut Reader<'_>) -> Result<OpValue, CrdtError> {
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
            Op::MakeList { .. } => OP_MAKE_LIST,
            Op::Set { .. } => OP_SET,
            Op::DelKey { .. } => OP_DEL_KEY,
            Op::Insert { .. } => OP_INSERT,
            Op::SetElem { .. } => OP_SET_ELEM,
            Op::DelElem { .. } => OP_DEL_ELEM,
            Op::Inc { .. } => OP_INC,
        };
        out.put(&[tag]);
        put_op_id(out, self.id());
        match self {
            Op::MakeMap { .. } | Op::MakeList { .. } => {}
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
            Op::Insert {
                obj, after, value, ..
            } => {
                obj.write(out);
                after.write(out);
                value.write(out);
            }
            Op::SetElem {
                obj,
                elem,
                value,
                pred,
                ..
            } => {
                obj.write(out);
                put_op_id(out, *elem);
                value.write(out);
                write_pred(out, pred);
            }
            Op::DelElem { obj, elem, .. } => {
                obj.write(out);
                put_op_id(out, *elem);
            }
            Op::Inc {
                obj, key, delta, ..
            } => {
                obj.write(out);
                put_str(out, key);
                put_zigzag(out, *delta);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Op, CrdtError> {
        let tag = r.byte()?;
        let id = r.op_id()?;
        Ok(match tag {
            OP_MAKE_MAP => Op::MakeMap { id },
            OP_MAKE_LIST => Op::MakeList { id },
            OP_SET => Op::Set {
                id,
                obj: ObjId::read(r)?,
                key: r.str()?.to_string(),
                value: OpValue::read(r)?,
                pred: read_pred(r)?,
            },
            OP_DEL_KEY => Op::DelKey {
                id,
                obj: ObjId::read(r)?,
                key: r.str()?.to_string(),
                pred: read_pred(r)?,
            },
            OP_INSERT => Op::Insert {
                id,
                obj: ObjId::read(r)?,
                after: ElemRef::read(r)?,
                value: OpValue::read(r)?,
            },
            OP_SET_ELEM => Op::SetElem {
                id,
                obj: ObjId::read(r)?,
                elem: r.op_id()?,
                value: OpValue::read(r)?,
                pred: read_pred(r)?,
            },
            OP_DEL_ELEM => Op::DelElem {
                id,
                obj: ObjId::read(r)?,
                elem: r.op_id()?,
            },
            OP_INC => Op::Inc {
                id,
                obj: ObjId::read(r)?,
                key: r.str()?.to_string(),
                delta: r.zigzag()?,
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

/// JSON rendering: the tail of a [`crate::Doc::save`] image, and a
/// readable dump for debugging. Not the wire.
impl Serialize for Change {
    fn to_json_value(&self) -> Json {
        let mut m = serde_json::Map::new();
        m.insert("actor".into(), self.actor().to_json_value());
        m.insert("seq".into(), Json::from(self.seq()));
        m.insert("deps".into(), self.deps().to_json_value());
        m.insert("ops".into(), vec_to_json(self.ops()));
        Json::Object(m)
    }
}

impl Deserialize for Change {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let obj = as_struct(v)?;
        Ok(Change::new(
            ActorId::from_json_value(field(obj, "actor")?)?,
            field(obj, "seq")?
                .as_u64()
                .ok_or_else(|| JsonError::custom("Change: seq must be u64"))?,
            VClock::from_json_value(field(obj, "deps")?)?,
            vec_from_json(field(obj, "ops")?)?,
        ))
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
        let actor = ActorId(r.varint()?);
        let seq = r.varint()?;
        let deps = VClock::read(&mut r)?;
        let n = r.count(3)?; // an op is a tag and an id at the least
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(Op::read(&mut r)?);
        }
        let rest = r.rest();
        let record = Record {
            actor,
            seq,
            deps,
            ops,
            size: OnceLock::from(bytes.len() - rest.len()),
        };
        Ok((Change(Arc::new(record)), rest))
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
    fn change_serde_round_trip() {
        let c = Change::new(ActorId(1), 1, VClock::new(), vec![op()]);
        let bytes = serde_json::to_vec(&c).unwrap();
        let back: Change = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(c, back);
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
                Op::MakeList {
                    id: OpId::new(7, ActorId(1)),
                },
            ],
        );
        assert_eq!(c.max_counter(), 7);
    }
}
