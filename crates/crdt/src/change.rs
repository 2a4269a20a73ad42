//! Changes as they travel: what one key holds — the replication unit
//! `get_changes` returns and `apply_changes` merges — exchanged between the
//! cloud master and edge replicas.

use crate::doc::{CrdtError, GENESIS_ACTOR};
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

/// One write a slot still holds: its op id, which orders concurrent
/// values (last-writer-wins), the seq of the write among its actor's, and
/// what it put — `None` for a delete (a tombstone). The write's *dot* is
/// `(id.actor, seq)`: a clock that covers the dot has seen the write.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub id: OpId,
    pub seq: u64,
    pub value: Option<Value>,
}

impl Stamp {
    /// Whether `clock` has seen the write.
    pub(crate) fn covered_by(&self, clock: &VClock) -> bool {
        clock.get(self.id.actor) >= self.seq
    }

    /// Whether every replica holds the write from the shared snapshot: a
    /// genesis dot is never indexed, so it never travels.
    pub(crate) fn is_genesis(&self) -> bool {
        self.id.actor == GENESIS_ACTOR
    }
}

/// A key's slot: the values not superseded and the deletes not yet
/// compacted, ascending by op id.
///
/// A `Slot` is a handle on one shared, immutable record: the register that
/// holds it, every message that carries it and every relay hold the same
/// allocation, and `clone` is a reference count. The record remembers its
/// encoded length ([`Slot::wire_size`]), so a slot is sized once however
/// many hops account for it.
#[derive(Debug, Clone)]
pub struct Slot(Arc<Record>);

#[derive(Debug)]
struct Record {
    key: Arc<str>,
    stamps: Stamps,
    /// Encoded length, filled by the first `wire_size` call or by
    /// `decode`. Derived from the fields above, so equality ignores it.
    size: OnceLock<usize>,
}

/// A key holds one write at a time unless writes to it were concurrent,
/// so one is kept inline.
#[derive(Debug)]
enum Stamps {
    One(Stamp),
    Many(Vec<Stamp>),
}

impl PartialEq for Slot {
    fn eq(&self, other: &Slot) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.key == other.0.key && self.stamps() == other.stamps())
    }
}

impl Slot {
    /// The slot of `key` holding `stamps`, which it orders by op id.
    ///
    /// # Panics
    ///
    /// When `stamps` is empty: a key that holds nothing has no slot.
    pub fn new(key: Arc<str>, mut stamps: Vec<Stamp>) -> Slot {
        assert!(!stamps.is_empty(), "a slot holds a write");
        stamps.sort_by_key(|s| s.id);
        let stamps = match stamps.len() {
            1 => Stamps::One(stamps.remove(0)),
            _ => Stamps::Many(stamps),
        };
        Slot::of(key, stamps, OnceLock::new())
    }

    /// The slot of `key` holding one write: what a local write leaves.
    pub(crate) fn one(key: Arc<str>, stamp: Stamp) -> Slot {
        Slot::of(key, Stamps::One(stamp), OnceLock::new())
    }

    fn of(key: Arc<str>, stamps: Stamps, size: OnceLock<usize>) -> Slot {
        Slot(Arc::new(Record { key, stamps, size }))
    }

    /// The key this slot belongs to.
    pub fn key(&self) -> &Arc<str> {
        &self.0.key
    }

    /// The writes held, ascending by op id.
    pub fn stamps(&self) -> &[Stamp] {
        match &self.0.stamps {
            Stamps::One(stamp) => std::slice::from_ref(stamp),
            Stamps::Many(stamps) => stamps,
        }
    }

    /// The value a read sees: of the values held, the one with the
    /// greatest op id.
    pub(crate) fn value(&self) -> Option<&Value> {
        self.stamps().iter().rev().find_map(|s| s.value.as_ref())
    }

    /// The smallest indexed dot, in `(actor, seq)` order, that `since` does
    /// not cover: where a walk of the dot index above `since` meets this
    /// slot first.
    pub(crate) fn first_dot_above(&self, since: &VClock) -> Option<(ActorId, u64)> {
        let stamps = self.stamps().iter();
        let above = stamps.filter(|s| !s.is_genesis() && !s.covered_by(since));
        above.map(|s| (s.id.actor, s.seq)).min()
    }

    /// The key, the key table of the rows the slot holds, a stamp count,
    /// then the stamps: a record that names everything it refers to, so it
    /// reads the same in any message.
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        put_str(out, &self.0.key);
        let rows = self
            .stamps()
            .iter()
            .filter_map(|s| s.value.as_ref()?.as_row());
        let mut keys = KeyTable::of(rows);
        keys.write(out);
        write_stamps(out, self.stamps(), &mut keys);
    }

    /// Append this slot's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// Read one slot from the front of `bytes`; returns it with the bytes
    /// that follow. The slot remembers the length it was read from, so
    /// relaying it costs no second walk.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on truncated, over-long, non-canonical
    /// or otherwise malformed input. Never panics, and never reserves
    /// room for more stamps or values than `bytes` could encode: what
    /// decoding allocates is linear in `bytes.len()`.
    pub fn decode(bytes: &[u8]) -> Result<(Slot, &[u8]), CrdtError> {
        let mut r = Reader::new(bytes);
        let slot = Slot::read(&mut r)?;
        Ok((slot, r.rest()))
    }

    /// [`Slot::decode`] at a reader's position.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Slot, CrdtError> {
        let before = r.rest().len();
        let key = Arc::from(r.str()?);
        let mut keys = KeysRead::read(r)?;
        let stamps = read_stamps(r, &mut keys)?;
        keys.end()?;
        Ok(Slot::of(
            key,
            stamps,
            OnceLock::from(before - r.rest().len()),
        ))
    }

    /// Encoded size in bytes — the WAN traffic cost of shipping this
    /// slot, used for the synchronization-overhead experiments (Fig. 10a),
    /// and the state footprint of the key it holds. Exactly `encode`'s
    /// length; worked out on first use and remembered by the shared
    /// record, so sender, receiver and every relay size a slot once
    /// between them.
    pub fn wire_size(&self) -> usize {
        *self.0.size.get_or_init(|| Count::of(|n| self.write(n)))
    }
}

// ---- binary layout -------------------------------------------------------
//
// One tag byte per variant; see `crate::wire` for the primitives and
// DESIGN.md "Sync wire format" for the table.

const VALUE_ROW: u8 = 0;
const VALUE_FILE: u8 = 1;
const VALUE_JSON: u8 = 2;
/// A delete: a stamp that holds no value.
const TOMBSTONE: u8 = 3;

impl Value {
    /// A tag, then a row (by `keys`), a file's bytes or a JSON scalar.
    pub(crate) fn write<'a, S: Sink>(&'a self, out: &mut S, keys: &mut KeyTable<'a>) {
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
}

/// A stamp count, then per stamp its op id, its seq and its value (or the
/// tombstone tag), the rows under `keys`.
pub(crate) fn write_stamps<'a, S: Sink>(out: &mut S, stamps: &'a [Stamp], keys: &mut KeyTable<'a>) {
    put_varint(out, stamps.len() as u64);
    for stamp in stamps {
        put_op_id(out, stamp.id);
        put_varint(out, stamp.seq);
        match &stamp.value {
            Some(value) => value.write(out, keys),
            None => out.put(&[TOMBSTONE]),
        }
    }
}

/// What [`write_stamps`] wrote: at least one stamp, op ids strictly
/// ascending, every seq at least 1.
fn read_stamps(r: &mut Reader<'_>, keys: &mut KeysRead) -> Result<Stamps, CrdtError> {
    // an op id, a seq and a tag at the least
    let n = r.count(4)?;
    if n == 0 {
        return Err(corrupt("a key holds no write"));
    }
    let mut stamps = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let id = r.op_id()?;
        crate::wire::ascending(&mut last, id)?;
        let seq = r.varint()?;
        if seq == 0 {
            return Err(corrupt("a write has no seq"));
        }
        let value = match r.byte()? {
            VALUE_ROW => Some(Value::Row(keys.read_row(r)?)),
            VALUE_FILE => Some(Value::File(r.bytes()?.into())),
            VALUE_JSON => Some(Value::Json(r.scalar()?)),
            TOMBSTONE => None,
            _ => return Err(corrupt("unknown value tag")),
        };
        stamps.push(Stamp { id, seq, value });
    }
    Ok(match stamps.len() {
        1 => Stamps::One(stamps.remove(0)),
        _ => Stamps::Many(stamps),
    })
}

/// A key and its stamps as an image holds them: the rows under the
/// image's key table, so the slot is sized afresh when it is first sent.
pub(crate) fn read_image_slot(
    r: &mut Reader<'_>,
    key: Arc<str>,
    keys: &mut KeysRead,
) -> Result<Slot, CrdtError> {
    Ok(Slot::of(key, read_stamps(r, keys)?, OnceLock::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> Slot {
        let stamp = |counter, value: Option<Value>| Stamp {
            id: OpId::new(counter, ActorId(1)),
            seq: counter,
            value,
        };
        Slot::new(
            "k".into(),
            vec![stamp(2, None), stamp(1, Some(Value::Json(Json::from(42))))],
        )
    }

    #[test]
    fn change_wire_round_trip_remembers_its_length() {
        let s = slot();
        let mut bytes = vec![];
        s.encode(&mut bytes);
        bytes.push(0xAA); // whatever follows is handed back untouched
        let (back, rest) = Slot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(rest, [0xAA]);
        assert_eq!(back.0.size.get(), Some(&(bytes.len() - 1)));
        assert_eq!(s.wire_size(), bytes.len() - 1);
        // stamps are held by op id, and a delete is no value
        assert_eq!(s.stamps()[0].id.counter, 1);
        assert_eq!(s.value(), Some(&Value::Json(Json::from(42))));
    }

    #[test]
    fn wire_size_is_computed_once_and_shared_by_clones() {
        let s = slot();
        let early = s.clone();
        assert_eq!(s.0.size.get(), None, "not sized until asked");
        let size = s.wire_size();
        assert!(size > 0);
        // one record: a handle taken before sizing sees the number too
        assert!(Arc::ptr_eq(&s.0, &early.0));
        assert_eq!(early.0.size.get(), Some(&size));
        // sized and unsized values are the same slot
        assert_eq!(s, slot());
    }
}
