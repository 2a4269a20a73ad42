//! `CRDT-Table`: a replicated database table (§III-G.1).
//!
//! A table is a [`crate::Doc`] keyed by primary key whose registers hold
//! [`Row`]s: the SQL engine hands over a written row's cells, and the row
//! is put whole, as one op. Rows are the unit of merge — row-level
//! add-wins: concurrent upserts of one key resolve by op id, the later
//! writer's row winning whole, and a delete removes only the row versions
//! it observed, so a concurrent upsert survives it. A materialised row is
//! read back cell by cell, each cell the SQL value it was written as.

use crate::doc::CrdtError;
use crate::wire::{corrupt, put_bytes, put_str, put_varint, put_zigzag, Reader, Sink};
use std::collections::HashSet;
use std::sync::Arc;

/// One SQL cell, as the engine holds it: the kinds `edgstr-sql` has,
/// with no dependency on it.
#[derive(Debug, Clone)]
pub enum Cell {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

/// Cells are equal when they are the same kind and the same value, a
/// `Real` compared by its bits: what is replicated is the bits.
impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Real(a), Cell::Real(b)) => a.to_bits() == b.to_bits(),
            (Cell::Text(a), Cell::Text(b)) => a == b,
            (Cell::Blob(a), Cell::Blob(b)) => a == b,
            _ => false,
        }
    }
}

/// A table row: its cells in column order, under the table's column
/// names, one cell per name. Both halves are shared, so a row held by a
/// change, a register and a peer's copy is one allocation each.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    columns: Arc<[String]>,
    cells: Arc<[Cell]>,
}

impl Row {
    /// The row of `cells` under `columns`. Panics unless there is one cell
    /// per column: the wire reads back as many cells as the columns name.
    pub fn new(columns: Arc<[String]>, cells: Arc<[Cell]>) -> Row {
        assert_eq!(columns.len(), cells.len(), "a row has one cell per column");
        Row { columns, cells }
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

// ---- binary layout -------------------------------------------------------

const CELL_NULL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_REAL: u8 = 2;
const CELL_TEXT: u8 = 3;
const CELL_BLOB: u8 = 4;

impl Cell {
    /// One tag byte, then the payload: a zig-zag varint, eight
    /// little-endian bytes of the float's bits, or length-prefixed bytes.
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        match self {
            Cell::Null => out.put(&[CELL_NULL]),
            Cell::Int(i) => {
                out.put(&[CELL_INT]);
                put_zigzag(out, *i);
            }
            Cell::Real(r) => {
                out.put(&[CELL_REAL]);
                out.put(&r.to_bits().to_le_bytes());
            }
            Cell::Text(s) => {
                out.put(&[CELL_TEXT]);
                put_str(out, s);
            }
            Cell::Blob(b) => {
                out.put(&[CELL_BLOB]);
                put_bytes(out, b);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Cell, CrdtError> {
        Ok(match r.byte()? {
            CELL_NULL => Cell::Null,
            CELL_INT => Cell::Int(r.zigzag()?),
            CELL_REAL => {
                let bits = r.take(8)?.try_into().expect("took eight bytes");
                Cell::Real(f64::from_bits(u64::from_le_bytes(bits)))
            }
            CELL_TEXT => Cell::Text(r.str()?.to_string()),
            CELL_BLOB => Cell::Blob(r.bytes()?.to_vec()),
            _ => return Err(corrupt("unknown cell tag")),
        })
    }
}

/// The column lists the rows of one slot or one image are written under,
/// each once, in the order the rows first name them. A row refers to its
/// list by position, so column names travel once per slot.
#[derive(Debug, Default)]
pub(crate) struct KeyTable<'a>(Vec<&'a Arc<[String]>>);

impl<'a> KeyTable<'a> {
    /// The table of `rows`, in order.
    pub(crate) fn of(rows: impl Iterator<Item = &'a Row>) -> KeyTable<'a> {
        let mut table = KeyTable::default();
        for row in rows {
            table.position(&row.columns);
        }
        table
    }

    /// Where `columns` is in the table, added at the end when it is not.
    fn position(&mut self, columns: &'a Arc<[String]>) -> usize {
        let same = |c: &&Arc<[String]>| Arc::ptr_eq(c, columns) || ***c == **columns;
        let at = self.0.iter().position(same);
        at.unwrap_or_else(|| {
            self.0.push(columns);
            self.0.len() - 1
        })
    }

    /// A count of lists; per list a count of names, then the names.
    pub(crate) fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.0.len() as u64);
        for columns in &self.0 {
            put_varint(out, columns.len() as u64);
            for name in columns.iter() {
                put_str(out, name);
            }
        }
    }

    /// The row's list position, then its cells, as many as the list names.
    /// A list the table does not hold yet is added to it: written in one
    /// walk, a table comes out as [`KeyTable::of`] builds it.
    pub(crate) fn write_row<S: Sink>(&mut self, out: &mut S, row: &'a Row) {
        let at = self.position(&row.columns);
        put_varint(out, at as u64);
        for cell in row.cells.iter() {
            cell.write(out);
        }
    }
}

/// A [`KeyTable`] being read: the lists, and how many of them the rows
/// read so far have named. Only the table `KeyTable::of` builds is
/// accepted — distinct lists, each named, in order of first use — so a
/// decoded change or image encodes back to its bytes.
#[derive(Debug)]
pub(crate) struct KeysRead {
    lists: Vec<Arc<[String]>>,
    named: usize,
}

impl KeysRead {
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<KeysRead, CrdtError> {
        // a list is its count at the least
        let n = r.count(1)?;
        let mut lists: Vec<Arc<[String]>> = Vec::with_capacity(n);
        for _ in 0..n {
            // a name is its length at the least
            let names = r.count(1)?;
            let mut list = Vec::with_capacity(names);
            for _ in 0..names {
                list.push(r.str()?.to_string());
            }
            lists.push(list.into());
        }
        let mut seen = HashSet::with_capacity(lists.len());
        if !lists.iter().all(|list| seen.insert(&**list)) {
            return Err(corrupt("a column list is written twice"));
        }
        Ok(KeysRead { lists, named: 0 })
    }

    pub(crate) fn read_row(&mut self, r: &mut Reader<'_>) -> Result<Row, CrdtError> {
        let at = r.varint()?;
        let columns = match usize::try_from(at) {
            Ok(at) if at < self.named => &self.lists[at],
            Ok(at) if at == self.named && at < self.lists.len() => {
                self.named += 1;
                &self.lists[at]
            }
            _ => return Err(corrupt("a row names a column list out of order")),
        };
        // a cell is a tag at the least
        if columns.len() > r.rest().len() {
            return Err(corrupt("cells run past the input"));
        }
        let mut cells = Vec::with_capacity(columns.len());
        for _ in 0..columns.len() {
            cells.push(Cell::read(r)?);
        }
        Ok(Row {
            columns: Arc::clone(columns),
            cells: cells.into(),
        })
    }

    /// Every list was named by some row.
    pub(crate) fn end(&self) -> Result<(), CrdtError> {
        if self.named == self.lists.len() {
            Ok(())
        } else {
            Err(corrupt("a column list no row names"))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ActorId, Doc, Value};

    fn row(cells: &[(&str, i64)]) -> Value {
        Value::Row(crate::Row::new(
            cells.iter().map(|(c, _)| c.to_string()).collect(),
            cells.iter().map(|(_, v)| super::Cell::Int(*v)).collect(),
        ))
    }

    fn pull(dst: &mut Doc, src: &Doc) {
        let base = dst.clock().clone();
        let changes = src.get_changes(&base);
        dst.apply_changes(&base, src.clock(), changes).unwrap();
    }

    #[test]
    fn upsert_get_delete() {
        let mut t = Doc::new(ActorId(1));
        t.put("1", row(&[("id", 1), ("stock", 3)]));
        assert_eq!(t.get("1"), Some(&row(&[("id", 1), ("stock", 3)])));
        assert_eq!(t.len(), 1);
        t.delete("1");
        assert!(t.get("1").is_none());
        assert!(t.is_empty());
    }

    /// Rows are written whole: of two concurrent upserts of one row, the
    /// one with the greater op id wins on every replica, every cell of it.
    #[test]
    fn concurrent_upserts_of_one_row_resolve_whole_rows() {
        let snap = [("1".to_string(), row(&[("title", 1), ("stock", 3)]))];
        let mut cloud = Doc::from_snapshot(ActorId(1), snap.clone());
        let mut edge = Doc::from_snapshot(ActorId(2), snap);
        cloud.put("1", row(&[("title", 2), ("stock", 3)]));
        edge.put("1", row(&[("title", 1), ("stock", 2)]));
        pull(&mut cloud, &edge);
        pull(&mut edge, &cloud);
        assert_eq!(cloud.get("1"), edge.get("1"));
        // equal counters: actor 2 wins the tie, its whole row
        assert_eq!(cloud.get("1"), Some(&row(&[("title", 1), ("stock", 2)])));
    }

    #[test]
    fn concurrent_inserts_of_different_rows_union() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("a1", row(&[("v", 1)]));
        b.put("b1", row(&[("v", 2)]));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(a.len(), 2);
        assert!(a.entries().eq(b.entries()));
    }

    /// A delete removes only the row versions it observed: a concurrent
    /// upsert survives it (add-wins at the row).
    #[test]
    fn delete_vs_concurrent_row_upsert_add_wins() {
        let snap = [("1".to_string(), row(&[("v", 1)]))];
        let mut a = Doc::from_snapshot(ActorId(1), snap.clone());
        let mut b = Doc::from_snapshot(ActorId(2), snap);
        a.delete("1");
        b.put("1", row(&[("v", 2)]));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert!(a.entries().eq(b.entries()));
        assert_eq!(a.get("1"), Some(&row(&[("v", 2)])));
    }

    #[test]
    #[should_panic(expected = "a row has one cell per column")]
    fn a_row_with_a_cell_missing_is_refused() {
        let columns = ["k".to_string(), "v".to_string()];
        crate::Row::new(columns.into(), [super::Cell::Int(1)].into());
    }

    #[test]
    fn rows_ordered_by_pk() {
        let mut t = Doc::new(ActorId(1));
        t.put("b", row(&[]));
        t.put("a", row(&[]));
        let pks: Vec<&str> = t.entries().map(|(pk, _)| pk).collect();
        assert_eq!(pks, ["a", "b"]);
    }
}
