//! The one codec for a replica's bytes: the sync wire a replica ships to
//! a peer, and the save image ([`crate::Doc::save`]) a replica is
//! provisioned or restarted from.
//!
//! Every replicated type describes its layout once, as a `write` into a
//! [`Sink`]. Written into a `Vec<u8>` that is the encoding; written into a
//! [`Count`] it is the encoding's length, so a `wire_size` can never drift
//! from the bytes it accounts for. A [`Change`] is the one exception to
//! "walk it again": it remembers its own encoded length, and a `Count`
//! adds that number instead of re-walking the change.
//!
//! Layout primitives (DESIGN.md "Sync wire format" has the full table):
//! unsigned integers are LEB128 varints in their shortest form, signed
//! integers are zig-zag varints, strings are a varint byte length plus
//! UTF-8, sequences are a varint count plus the elements, and a JSON
//! scalar is one tag byte plus its payload.
//!
//! The reading side ([`Reader`], under [`Change::decode`] and
//! [`crate::Doc::load`]) treats its input as hostile: every length and
//! count is checked against the bytes that remain before anything is sized
//! by it (so what decoding allocates is linear in the input's length), a
//! varint longer than ten bytes or with a padded tail is rejected, and
//! nesting is bounded. Only canonical encodings decode, so
//! `encode(decode(bytes)) == bytes` and a decoded change may remember the
//! number of bytes it was read from as its size.

use crate::change::Change;
use crate::doc::CrdtError;
use crate::ids::{ActorId, OpId, VClock};
use serde_json::{Map, Number, Value as Json};

/// Where a layout is written: bytes into a buffer, or their count.
pub trait Sink {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);
    /// Append one encoded change.
    fn put_change(&mut self, change: &Change);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_change(&mut self, change: &Change) {
        change.write(self);
    }
}

/// A [`Sink`] that keeps only the length of what is written to it.
#[derive(Debug, Default)]
pub struct Count(pub usize);

impl Count {
    /// The number of bytes `write` produces.
    pub fn of(write: impl FnOnce(&mut Count)) -> usize {
        let mut n = Count(0);
        write(&mut n);
        n.0
    }
}

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_change(&mut self, change: &Change) {
        self.0 += change.wire_size();
    }
}

/// LEB128: seven bits per byte, low group first, high bit set on every
/// byte but the last.
pub fn put_varint<S: Sink>(out: &mut S, mut v: u64) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = (v as u8) | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.put(&buf[..=n]);
}

/// A varint byte length, then the UTF-8 bytes.
pub fn put_str<S: Sink>(out: &mut S, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A varint byte length, then the bytes: an encoding nested in another.
pub fn put_bytes<S: Sink>(out: &mut S, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.put(bytes);
}

/// A varint count, then each change.
pub fn put_changes<S: Sink>(out: &mut S, changes: &[Change]) {
    put_varint(out, changes.len() as u64);
    for c in changes {
        out.put_change(c);
    }
}

pub(crate) fn put_op_id<S: Sink>(out: &mut S, id: OpId) {
    put_varint(out, id.counter);
    put_varint(out, id.actor.0);
}

/// Zig-zag: small magnitudes of either sign become small unsigned numbers.
pub(crate) fn put_zigzag<S: Sink>(out: &mut S, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

const SCALAR_NULL: u8 = 0;
const SCALAR_FALSE: u8 = 1;
const SCALAR_TRUE: u8 = 2;
const SCALAR_UINT: u8 = 3;
const SCALAR_INT: u8 = 4;
const SCALAR_F64: u8 = 5;
const SCALAR_STR: u8 = 6;
const SCALAR_ARRAY: u8 = 7;
const SCALAR_OBJECT: u8 = 8;

/// How deep a decoded scalar may nest; deeper input is rejected rather
/// than recursed into.
const MAX_DEPTH: usize = 128;

pub(crate) fn put_scalar<S: Sink>(out: &mut S, v: &Json) {
    match v {
        Json::Null => out.put(&[SCALAR_NULL]),
        Json::Bool(b) => out.put(&[if *b { SCALAR_TRUE } else { SCALAR_FALSE }]),
        Json::Number(n) => {
            if let Some(u) = n.as_u64() {
                out.put(&[SCALAR_UINT]);
                put_varint(out, u);
            } else if let Some(i) = n.as_i64() {
                out.put(&[SCALAR_INT]);
                put_zigzag(out, i);
            } else {
                let f = n.as_f64().expect("a number is an integer or a float");
                out.put(&[SCALAR_F64]);
                out.put(&f.to_bits().to_le_bytes());
            }
        }
        Json::String(s) => {
            out.put(&[SCALAR_STR]);
            put_str(out, s);
        }
        Json::Array(items) => {
            out.put(&[SCALAR_ARRAY]);
            put_varint(out, items.len() as u64);
            for item in items {
                put_scalar(out, item);
            }
        }
        Json::Object(map) => {
            out.put(&[SCALAR_OBJECT]);
            put_varint(out, map.len() as u64);
            for (k, item) in map {
                put_str(out, k);
                put_scalar(out, item);
            }
        }
    }
}

impl VClock {
    /// The clock's wire layout: a pair count, then `(actor, seq)` varint
    /// pairs in ascending actor order.
    pub fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.0.len() as u64);
        for (a, s) in &self.0 {
            put_varint(out, a.0);
            put_varint(out, *s);
        }
    }

    /// Read a clock written by [`VClock::write`].
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on truncated input or actors that are
    /// not strictly ascending.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<VClock, CrdtError> {
        let mut clock = VClock::new();
        let mut last = None;
        // a pair is two varints
        for _ in 0..r.count(2)? {
            let actor = ActorId(r.varint()?);
            ascending(&mut last, actor)?;
            clock.0.insert(actor, r.varint()?);
        }
        Ok(clock)
    }
}

pub(crate) fn corrupt(what: &str) -> CrdtError {
    CrdtError::CorruptChange(what.to_string())
}

/// Encodings are canonical: `next` must sort after what was read before it.
pub(crate) fn ascending<T: Ord>(last: &mut Option<T>, next: T) -> Result<(), CrdtError> {
    if last.as_ref().is_some_and(|last| *last >= next) {
        return Err(corrupt("entries are not ascending"));
    }
    *last = Some(next);
    Ok(())
}

/// A cursor over received bytes. Every method either consumes exactly what
/// it returns or fails with [`CrdtError::CorruptChange`]; none panics, and
/// none reserves room for more elements than the input that remains could
/// encode, so memory is linear in the input's length.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Nothing may follow what was read.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] when bytes remain.
    pub fn end(&self) -> Result<(), CrdtError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(corrupt("bytes follow the encoding"))
        }
    }

    /// The bytes not yet consumed.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    pub(crate) fn byte(&mut self) -> Result<u8, CrdtError> {
        let (&b, rest) = self
            .rest
            .split_first()
            .ok_or_else(|| corrupt("truncated"))?;
        self.rest = rest;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CrdtError> {
        if n > self.rest.len() {
            return Err(corrupt("length runs past the input"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// An unsigned LEB128 varint in its shortest form.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on truncation, a value past `u64`, or a
    /// padded encoding (a final zero group).
    pub fn varint(&mut self) -> Result<u64, CrdtError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(corrupt("varint overflows 64 bits"));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(corrupt("varint is not in its shortest form"));
                }
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than ten bytes"))
    }

    /// A count of elements that each encode to at least `min_bytes`
    /// (which is not zero). More of them than the bytes that remain could
    /// hold is corrupt — checked here, before a caller sizes a collection
    /// by the count.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] as for [`Reader::varint`], or when the
    /// elements could not fit in the remaining input.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CrdtError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.rest.len() / min_bytes => Ok(n),
            _ => Err(corrupt("count runs past the input")),
        }
    }

    /// Length-prefixed bytes ([`put_bytes`]), borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on a length past the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], CrdtError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`CrdtError::CorruptChange`] on a length past the input or bytes
    /// that are not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CrdtError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| corrupt("string is not UTF-8"))
    }

    /// A batch written by [`put_changes`].
    ///
    /// # Errors
    ///
    /// As for [`Change::decode`].
    pub(crate) fn changes(&mut self) -> Result<Vec<Change>, CrdtError> {
        // a change is an actor, a seq and two counts at the least
        let n = self.count(4)?;
        let mut changes = Vec::with_capacity(n);
        for _ in 0..n {
            changes.push(Change::read(self)?);
        }
        Ok(changes)
    }

    pub(crate) fn op_id(&mut self) -> Result<OpId, CrdtError> {
        let counter = self.varint()?;
        Ok(OpId::new(counter, ActorId(self.varint()?)))
    }

    pub(crate) fn zigzag(&mut self) -> Result<i64, CrdtError> {
        let z = self.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    pub(crate) fn scalar(&mut self) -> Result<Json, CrdtError> {
        self.scalar_at(0)
    }

    fn scalar_at(&mut self, depth: usize) -> Result<Json, CrdtError> {
        if depth > MAX_DEPTH {
            return Err(corrupt("scalar nests too deeply"));
        }
        Ok(match self.byte()? {
            SCALAR_NULL => Json::Null,
            SCALAR_FALSE => Json::Bool(false),
            SCALAR_TRUE => Json::Bool(true),
            SCALAR_UINT => Json::from(self.varint()?),
            SCALAR_INT => match self.zigzag()? {
                i if i < 0 => Json::from(i),
                _ => return Err(corrupt("non-negative integer under the signed tag")),
            },
            SCALAR_F64 => {
                let bits = self.take(8)?.try_into().expect("took eight bytes");
                Number::from_f64(f64::from_bits(u64::from_le_bytes(bits)))
                    .map(Json::Number)
                    .ok_or_else(|| corrupt("float is not finite"))?
            }
            SCALAR_STR => Json::String(self.str()?.to_string()),
            SCALAR_ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.scalar_at(depth + 1)?);
                }
                Json::Array(items)
            }
            SCALAR_OBJECT => {
                let mut map: Map<String, Json> = Map::new();
                // an entry is a key length and a tag at the least
                for _ in 0..self.count(2)? {
                    let key = self.str()?;
                    if map
                        .last_key_value()
                        .is_some_and(|(last, _)| last.as_str() >= key)
                    {
                        return Err(corrupt("object keys are not ascending"));
                    }
                    map.insert(key.to_string(), self.scalar_at(depth + 1)?);
                }
                Json::Object(map)
            }
            _ => return Err(corrupt("unknown scalar tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varint_round_trips_at_every_length() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = varint_bytes(v);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.rest().is_empty());
            let mut n = Count::default();
            put_varint(&mut n, v);
            assert_eq!(n.0, bytes.len());
        }
        assert_eq!(varint_bytes(u64::MAX).len(), 10);
    }

    #[test]
    fn varint_rejects_padding_overflow_and_truncation() {
        let bad: [&[u8]; 5] = [
            &[0x80, 0x00],                                                 // 0 padded to two bytes
            &[0xff; 11],                                                   // never ends
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02], // bit 64
            &[0x80],                                                       // truncated
            &[],
        ];
        for bytes in bad {
            assert!(matches!(
                Reader::new(bytes).varint(),
                Err(CrdtError::CorruptChange(_))
            ));
        }
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for v in [0, -1, 1, i64::MIN, i64::MAX, -64, 63] {
            let mut bytes = Vec::new();
            put_zigzag(&mut bytes, v);
            assert_eq!(Reader::new(&bytes).zigzag().unwrap(), v);
        }
    }

    #[test]
    fn a_count_past_the_input_is_rejected_before_allocating() {
        // 2^40 elements claimed by three bytes of input
        let mut bytes = varint_bytes(1 << 40);
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(Reader::new(&bytes).count(1).is_err());
        assert!(Reader::new(&bytes).str().is_err());
        // six bytes hold six one-byte elements, but only two of three
        let six = [6, 0, 0, 0, 0, 0, 0];
        assert_eq!(Reader::new(&six).count(1).unwrap(), 6);
        assert!(Reader::new(&six).count(3).is_err());
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0, 0, 0]).count(3).unwrap(), 2);
    }
}
