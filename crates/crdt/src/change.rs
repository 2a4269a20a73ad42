//! Operations and changes — the replication units exchanged between the
//! cloud master and edge replicas.

use crate::doc::CrdtError;
use crate::ids::{ActorId, OpId, VClock};
use crate::table::{KeyTable, KeysRead, Row};
use crate::wire::{
    corrupt, put_bytes, put_op_id, put_scalar, put_str, put_varint, Count, Reader, Sink,
};
use serde_json::Value as Json;
use std::sync::{Arc, OnceLock};

/// What a register holds: a whole value, written and replaced whole.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A table row (`CRDT-Table`).
    Row(Row),
    /// A file's bytes (`CRDT-Files`); its size and hash follow from them.
    File(Arc<[u8]>),
    /// A global variable's JSON (`CRDT-JSON`).
    Json(Json),
}

impl Value {
    /// The row, when this is one.
    pub fn as_row(&self) -> Option<&Row> {
        match self {
            Value::Row(row) => Some(row),
            _ => None,
        }
    }

    /// The file's bytes, when this is a file.
    pub fn as_file(&self) -> Option<&[u8]> {
        match self {
            Value::File(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// The JSON, when this is a global's value.
    pub fn as_json(&self) -> Option<&Json> {
        match self {
            Value::Json(json) => Some(json),
            _ => None,
        }
    }
}

/// A single CRDT operation on one key of a [`crate::Doc`].
///
/// Keys are shared: the change that carries a key and the register it
/// lands in hold one `Arc<str>`, so applying an op copies a reference
/// count, not the key.
///
/// `pred` lists the op ids this operation supersedes (the values visible to
/// the writer at generation time); apply removes exactly those, so
/// concurrent puts survive as multi-values resolved by op-id order, and
/// concurrent puts survive deletes (add-wins).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write `value` at `key`.
    Put {
        id: OpId,
        key: Arc<str>,
        value: Value,
        pred: Vec<OpId>,
    },
    /// Delete what `key` held as of `pred`.
    Del {
        id: OpId,
        key: Arc<str>,
        pred: Vec<OpId>,
    },
}

impl Op {
    /// The id of this operation.
    pub fn id(&self) -> OpId {
        match self {
            Op::Put { id, .. } | Op::Del { id, .. } => *id,
        }
    }

    /// The key this operation writes.
    pub fn key(&self) -> &Arc<str> {
        match self {
            Op::Put { key, .. } | Op::Del { key, .. } => key,
        }
    }
}

// ---- binary layout -------------------------------------------------------
//
// One tag byte per variant; see `crate::wire` for the primitives and
// DESIGN.md "Sync wire format" for the table. Op tags 0, 1 and 4-7 are
// retired (an earlier layout's map, list and counter ops): they read as
// unknown and are not to be reused.

const VALUE_ROW: u8 = 0;
const VALUE_FILE: u8 = 1;
const VALUE_JSON: u8 = 2;
const OP_PUT: u8 = 2;
const OP_DEL: u8 = 3;

impl Value {
    /// A tag, then a row (by `keys`), a file's bytes or a JSON scalar.
    pub(crate) fn write<S: Sink>(&self, out: &mut S, keys: &KeyTable<'_>) {
        match self {
            Value::Row(row) => {
                out.put(&[VALUE_ROW]);
                keys.write_row(out, row);
            }
            Value::File(bytes) => {
                out.put(&[VALUE_FILE]);
                put_bytes(out, bytes);
            }
            Value::Json(json) => {
                out.put(&[VALUE_JSON]);
                put_scalar(out, json);
            }
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>, keys: &mut KeysRead) -> Result<Value, CrdtError> {
        match r.byte()? {
            VALUE_ROW => Ok(Value::Row(keys.read_row(r)?)),
            VALUE_FILE => Ok(Value::File(r.bytes()?.into())),
            VALUE_JSON => Ok(Value::Json(r.scalar()?)),
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
    /// Tag byte, the op's id and key, a put's value, then `pred`.
    fn write<S: Sink>(&self, out: &mut S, keys: &KeyTable<'_>) {
        match self {
            Op::Put {
                id,
                key,
                value,
                pred,
            } => {
                out.put(&[OP_PUT]);
                put_op_id(out, *id);
                put_str(out, key);
                value.write(out, keys);
                write_pred(out, pred);
            }
            Op::Del { id, key, pred } => {
                out.put(&[OP_DEL]);
                put_op_id(out, *id);
                put_str(out, key);
                write_pred(out, pred);
            }
        }
    }

    fn read(r: &mut Reader<'_>, keys: &mut KeysRead) -> Result<Op, CrdtError> {
        let tag = r.byte()?;
        if tag != OP_PUT && tag != OP_DEL {
            return Err(corrupt("unknown op tag"));
        }
        let id = r.op_id()?;
        let key = r.str()?.into();
        Ok(match tag {
            OP_PUT => Op::Put {
                id,
                key,
                value: Value::read(r, keys)?,
                pred: read_pred(r)?,
            },
            _ => Op::Del {
                id,
                key,
                pred: read_pred(r)?,
            },
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

    /// `actor`, `seq`, `deps`, the key table of the rows the ops put, an
    /// op count, then the ops: a record that names everything it refers
    /// to, so it reads the same in any batch.
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.actor().0);
        put_varint(out, self.seq());
        self.deps().write(out);
        let rows = self.ops().iter().filter_map(|op| match op {
            Op::Put { value, .. } => value.as_row(),
            Op::Del { .. } => None,
        });
        let keys = KeyTable::of(rows);
        keys.write(out);
        put_varint(out, self.ops().len() as u64);
        for op in self.ops() {
            op.write(out, &keys);
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
        let mut keys = KeysRead::read(r)?;
        let n = r.count(5)?; // a tag, an id, a key and a pred count at the least
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(Op::read(r, &mut keys)?);
        }
        keys.end()?;
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
        Op::Put {
            id: OpId::new(1, ActorId(1)),
            key: "k".into(),
            value: Value::Json(Json::from(42)),
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
}
