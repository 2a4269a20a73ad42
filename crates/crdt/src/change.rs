//! Operations and changes — the replication units exchanged between the
//! cloud master and edge replicas.

use crate::ids::{ActorId, OpId, VClock};
use serde::{Deserialize, Serialize};
use serde_json::{Error as JsonError, Value as Json};
use std::fmt;
use std::sync::OnceLock;

// ---- manual (de)serialization helpers -----------------------------------
//
// The offline serde stand-in has no derive macros, so the wire formats
// below are hand-rolled: enums use the externally-tagged shape derives
// would produce ({"Variant": payload} / "Variant" for unit variants),
// structs use plain objects.

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

/// A batch of operations from one actor: the unit returned by
/// `get_changes` and consumed by `apply_changes` (§III-G.1).
///
/// Immutable once built ([`Change::new`]), which is what lets it remember
/// its own encoded size: [`Change::wire_size`] serializes at most once per
/// value, clones carry the result, and nothing can edit the content out
/// from under it.
#[derive(Debug, Clone)]
pub struct Change {
    pub(crate) actor: ActorId,
    pub(crate) seq: u64,
    pub(crate) deps: VClock,
    pub(crate) ops: Vec<Op>,
    /// JSON length of this change, filled by the first `wire_size` call.
    /// Derived from the four fields above, so equality ignores it.
    size: OnceLock<usize>,
}

impl PartialEq for Change {
    fn eq(&self, other: &Change) -> bool {
        self.actor == other.actor
            && self.seq == other.seq
            && self.deps == other.deps
            && self.ops == other.ops
    }
}

impl Serialize for Change {
    fn to_json_value(&self) -> Json {
        let mut m = serde_json::Map::new();
        m.insert("actor".into(), self.actor.to_json_value());
        m.insert("seq".into(), Json::from(self.seq));
        m.insert("deps".into(), self.deps.to_json_value());
        m.insert("ops".into(), vec_to_json(&self.ops));
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
        Change {
            actor,
            seq,
            deps,
            ops,
            size: OnceLock::new(),
        }
    }

    /// The replica that generated this change.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// Per-actor sequence number, starting at 1, gapless.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Causal dependencies: the generating replica's clock before this
    /// change (not counting the change itself).
    pub fn deps(&self) -> &VClock {
        &self.deps
    }

    /// The operations, in generation order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Highest op counter used inside this change (0 when empty).
    pub fn max_counter(&self) -> u64 {
        self.ops.iter().map(|o| o.id().counter).max().unwrap_or(0)
    }

    /// Serialized size in bytes — the WAN traffic cost of shipping this
    /// change, used for the synchronization-overhead experiments (Fig. 10a).
    /// Computed on first use and remembered: a change is sized by its
    /// sender, its receiver and every relay, and serializing it each time
    /// made accounting cost more than applying.
    ///
    /// A change that cannot be serialized is a protocol-level bug; silently
    /// reporting 0 bytes would corrupt every traffic experiment, so this
    /// panics instead.
    pub fn wire_size(&self) -> usize {
        *self.size.get_or_init(|| {
            serde_json::to_vec(self)
                .expect("Change must serialize for traffic accounting")
                .len()
        })
    }
}

/// Total wire size of a batch of changes.
pub fn batch_wire_size(changes: &[Change]) -> usize {
    changes.iter().map(Change::wire_size).sum()
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
    fn wire_size_positive_and_monotone() {
        let small = Change::new(ActorId(1), 1, VClock::new(), vec![op()]);
        let big = Change::new(ActorId(1), 1, VClock::new(), vec![op(); 50]);
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size() * 10);
        assert_eq!(
            batch_wire_size(&[small.clone(), big.clone()]),
            small.wire_size() + big.wire_size()
        );
    }

    #[test]
    fn wire_size_is_computed_once_and_travels_with_clones() {
        let c = Change::new(ActorId(1), 1, VClock::new(), vec![op()]);
        assert_eq!(c.size.get(), None, "not sized until asked");
        assert_eq!(c.clone().size.get(), None);
        let size = c.wire_size();
        assert_eq!(c.size.get(), Some(&size));
        assert_eq!(
            c.clone().size.get(),
            Some(&size),
            "a clone does not re-encode"
        );
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
