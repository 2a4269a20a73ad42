//! `CRDT-Table`: a replicated database table (§III-G.1).
//!
//! EdgStr wraps each replicated SQL table into a CRDT whose rows are keyed
//! by primary key; concurrent cell updates resolve last-writer-wins, row
//! inserts/deletes follow add-wins semantics. The runtime connects the SQL
//! engine's write statements to [`CrdtTable::upsert_cells`] /
//! [`CrdtTable::delete_row`], and reads what a remote change wrote back out
//! cell by cell through [`CrdtTable::row`].
//!
//! A row is never built as a JSON object on the way in or out: the SQL
//! engine hands over its cells and column names, the row change is built
//! from them directly, and a materialised row is read from the row's map
//! key by key. The change is still exactly the one `Doc::put` of the row as
//! a JSON object would make.

use crate::change::Change;
use crate::doc::{CrdtError, Doc, KeyTouch, PathSeg, ValueRef};
use crate::ids::{ActorId, VClock};
use crate::path;
use serde_json::Value as Json;
use std::sync::{Arc, LazyLock};

/// Where a table keeps its rows.
static ROWS: LazyLock<[PathSeg; 1]> = LazyLock::new(|| [PathSeg::from("rows")]);

/// A replicated table: rows keyed by primary key, cells merged LWW.
#[derive(Debug, Clone)]
pub struct CrdtTable {
    doc: Doc,
    name: String,
    layout: RowLayout,
}

/// The order a row's cells are written in, worked out once per SQL schema:
/// the order a JSON object of the row keeps its columns in — by name, a
/// name that repeats standing for its last column. Each name is interned,
/// so every row map of the table shares one allocation per column.
#[derive(Debug, Clone, Default)]
struct RowLayout {
    /// The column names the order was worked out for.
    columns: Option<Arc<[String]>>,
    /// Per key in order: the interned name and the column it takes.
    order: Vec<(Arc<str>, usize)>,
}

impl RowLayout {
    fn fit(&mut self, columns: &Arc<[String]>) {
        if self
            .columns
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(c, columns) || c == columns)
        {
            return;
        }
        let mut order: Vec<(Arc<str>, usize)> = Vec::with_capacity(columns.len());
        for (i, name) in columns.iter().enumerate() {
            match order.iter_mut().find(|(key, _)| **key == **name) {
                Some(taken) => taken.1 = i,
                None => {
                    let key = match self.order.iter().find(|(key, _)| **key == **name) {
                        Some((key, _)) => Arc::clone(key),
                        None => name.as_str().into(),
                    };
                    order.push((key, i));
                }
            }
        }
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        *self = RowLayout {
            columns: Some(Arc::clone(columns)),
            order,
        };
    }
}

impl CrdtTable {
    /// Create an empty replicated table.
    ///
    /// The `rows` container is created by the deterministic genesis actor,
    /// so two replicas that each call `new` share the container identity
    /// and concurrent row inserts union (rather than one replica's rows
    /// being shadowed by a concurrently-created container).
    pub fn new(actor: ActorId, name: impl Into<String>) -> Self {
        Self::from_snapshot(actor, name, &[])
    }

    /// Initialize from a snapshot of rows: `pk → row object`.
    ///
    /// Master and replicas initialized from the same snapshot share object
    /// identities, so subsequent changes interleave cleanly.
    pub fn from_snapshot(actor: ActorId, name: impl Into<String>, rows: &[(String, Json)]) -> Self {
        let mut map = serde_json::Map::new();
        for (pk, row) in rows {
            map.insert(pk.clone(), row.clone());
        }
        let snapshot = serde_json::json!({ "rows": Json::Object(map) });
        CrdtTable {
            doc: Doc::from_snapshot(actor, &snapshot),
            name: name.into(),
            layout: RowLayout::default(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning actor.
    pub fn actor(&self) -> ActorId {
        self.doc.actor()
    }

    /// This replica's change clock.
    pub fn clock(&self) -> &VClock {
        self.doc.clock()
    }

    /// Insert or overwrite the row at `pk` with a JSON object of its cells
    /// (a row of one SQL table is written by [`CrdtTable::upsert_cells`]).
    ///
    /// # Errors
    ///
    /// Propagates document errors (should not occur for well-formed rows).
    pub fn upsert_row(&mut self, pk: &str, row: &Json) -> Result<(), CrdtError> {
        self.doc.put(&path!["rows", pk.to_string()], row.clone())
    }

    /// Insert or overwrite the row at `pk` from its SQL cells: `cells[i]`
    /// is the cell of column `columns[i]`, and `mirror` the JSON scalar it
    /// is kept as. The change is [`CrdtTable::upsert_row`]'s for the row as
    /// a JSON object of `columns` and mirrored cells, op for op.
    ///
    /// # Errors
    ///
    /// Propagates document errors (should not occur for well-formed rows).
    ///
    /// # Panics
    ///
    /// If a column has no cell.
    pub fn upsert_cells<C>(
        &mut self,
        pk: &str,
        columns: &Arc<[String]>,
        cells: &[C],
        mirror: impl Fn(&C) -> Json,
    ) -> Result<(), CrdtError> {
        self.layout.fit(columns);
        let entries = self
            .layout
            .order
            .iter()
            .map(|(key, i)| (Arc::clone(key), mirror(&cells[*i])));
        self.doc.put_map(&*ROWS, pk.into(), entries)
    }

    /// Update a single cell of the row at `pk` (fine-grained merge unit).
    ///
    /// # Errors
    ///
    /// Propagates document errors.
    pub fn update_cell(&mut self, pk: &str, column: &str, value: &Json) -> Result<(), CrdtError> {
        self.doc.put(
            &path!["rows", pk.to_string(), column.to_string()],
            value.clone(),
        )
    }

    /// Delete the row at `pk` (no-op when absent).
    ///
    /// # Errors
    ///
    /// Propagates document errors.
    pub fn delete_row(&mut self, pk: &str) -> Result<(), CrdtError> {
        let path = path!["rows", pk.to_string()];
        if self.doc.contains(&path) {
            self.doc.delete(&path)
        } else {
            Ok(())
        }
    }

    /// Read the row at `pk`.
    pub fn get_row(&self, pk: &str) -> Option<Json> {
        self.row(pk).map(|row| row.to_json().into_owned())
    }

    /// The row at `pk` where it is stored: [`CrdtTable::get_row`] without
    /// building it, each cell read by [`ValueRef::get`].
    pub fn row(&self, pk: &str) -> Option<ValueRef<'_>> {
        self.doc.get_ref(&["rows", pk])
    }

    /// Every `(pk, row)` pair in primary-key order, where it is stored.
    pub fn row_refs(&self) -> Vec<(&str, ValueRef<'_>)> {
        let Some(rows) = self.doc.map_ref(&["rows"]) else {
            return Vec::new();
        };
        let pks = rows.keys();
        pks.into_iter()
            .filter_map(|pk| Some((pk, rows.get(pk)?)))
            .collect()
    }

    /// All `(pk, row)` pairs, ordered by primary key.
    pub fn rows(&self) -> Vec<(String, Json)> {
        self.row_refs()
            .into_iter()
            .map(|(pk, row)| (pk.to_string(), row.to_json().into_owned()))
            .collect()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.doc.map_len(&path!["rows"])
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Changes this replica knows that `since` has not observed.
    pub fn get_changes(&self, since: &VClock) -> Vec<Change> {
        self.doc.get_changes(since)
    }

    /// Apply remote changes; returns how many were applied.
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] on malformed changes.
    pub fn apply_changes(&mut self, changes: &[Change]) -> Result<usize, CrdtError> {
        self.doc.apply_changes(changes)
    }

    /// Consuming variant of [`CrdtTable::apply_changes`] for the hot sync
    /// path (no per-delta clone).
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] on malformed changes.
    pub fn apply_changes_owned(&mut self, changes: Vec<Change>) -> Result<usize, CrdtError> {
        self.doc.apply_changes_owned(changes)
    }

    /// Like [`CrdtTable::apply_changes_owned`], additionally reporting which
    /// primary keys the applied ops touched (projected onto the `rows`
    /// container; `whole` is set for anything that could not be pinned to a
    /// single row).
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] on malformed changes.
    pub fn apply_changes_owned_tracked(
        &mut self,
        changes: Vec<Change>,
    ) -> Result<(usize, KeyTouch), CrdtError> {
        let (applied, touched) = self.doc.apply_changes_owned_tracked(changes)?;
        Ok((applied, touched.project("rows")))
    }

    /// Retained change-log length (see [`Doc::history_len`]).
    pub fn history_len(&self) -> usize {
        self.doc.history_len()
    }

    /// Fold acked history at or below `frontier` into the snapshot; returns
    /// the number of changes dropped (see [`Doc::compact`]).
    pub fn compact(&mut self, frontier: &VClock) -> usize {
        self.doc.compact(frontier)
    }

    /// Serialize as snapshot + retained tail (see [`Doc::save`]).
    pub fn save(&self) -> Vec<u8> {
        self.doc.save()
    }

    /// Restore from [`CrdtTable::save`] bytes, owned by `actor`.
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] from [`Doc::load`].
    pub fn load(actor: ActorId, name: impl Into<String>, bytes: &[u8]) -> Result<Self, CrdtError> {
        Ok(CrdtTable {
            doc: Doc::load(actor, bytes)?,
            name: name.into(),
            layout: RowLayout::default(),
        })
    }

    /// Full table contents as JSON (`pk → row`).
    pub fn to_json(&self) -> Json {
        self.doc
            .get(&path!["rows"])
            .unwrap_or(Json::Object(Default::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn upsert_get_delete() {
        let mut t = CrdtTable::new(ActorId(1), "books");
        t.upsert_row("1", &json!({"title": "Dune", "stock": 3}))
            .unwrap();
        assert_eq!(t.get_row("1").unwrap()["title"], json!("Dune"));
        assert_eq!(t.len(), 1);
        t.delete_row("1").unwrap();
        assert!(t.get_row("1").is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_cell_updates_merge_per_column() {
        let snap = vec![("1".to_string(), json!({"title": "Dune", "stock": 3}))];
        let mut cloud = CrdtTable::from_snapshot(ActorId(1), "books", &snap);
        let mut edge = CrdtTable::from_snapshot(ActorId(2), "books", &snap);
        cloud
            .update_cell("1", "title", &json!("Dune (2nd ed)"))
            .unwrap();
        edge.update_cell("1", "stock", &json!(2)).unwrap();
        let cc = cloud.get_changes(edge.clock());
        let ec = edge.get_changes(cloud.clock());
        cloud.apply_changes(&ec).unwrap();
        edge.apply_changes(&cc).unwrap();
        assert_eq!(cloud.to_json(), edge.to_json());
        let row = cloud.get_row("1").unwrap();
        assert_eq!(row["title"], json!("Dune (2nd ed)"));
        assert_eq!(row["stock"], json!(2));
    }

    #[test]
    fn concurrent_inserts_of_different_rows_union() {
        let mut a = CrdtTable::new(ActorId(1), "t");
        let mut b = CrdtTable::new(ActorId(2), "t");
        a.upsert_row("a1", &json!({"v": 1})).unwrap();
        b.upsert_row("b1", &json!({"v": 2})).unwrap();
        let ca = a.get_changes(b.clock());
        let cb = b.get_changes(a.clock());
        a.apply_changes(&cb).unwrap();
        b.apply_changes(&ca).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn delete_vs_concurrent_nested_update_delete_wins() {
        // Automerge semantics: deleting a row tombstones the subtree; a
        // concurrent update *inside* the subtree does not resurrect it.
        let snap = vec![("1".to_string(), json!({"v": 1}))];
        let mut a = CrdtTable::from_snapshot(ActorId(1), "t", &snap);
        let mut b = CrdtTable::from_snapshot(ActorId(2), "t", &snap);
        a.delete_row("1").unwrap();
        b.update_cell("1", "v", &json!(2)).unwrap();
        a.apply_changes(&b.get_changes(a.clock())).unwrap();
        b.apply_changes(&a.get_changes(b.clock())).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.get_row("1").is_none());
    }

    #[test]
    fn delete_vs_concurrent_row_upsert_add_wins() {
        // ...but a concurrent *key-level* re-assignment (row upsert)
        // survives the delete: add-wins at the key level.
        let snap = vec![("1".to_string(), json!({"v": 1}))];
        let mut a = CrdtTable::from_snapshot(ActorId(1), "t", &snap);
        let mut b = CrdtTable::from_snapshot(ActorId(2), "t", &snap);
        a.delete_row("1").unwrap();
        b.upsert_row("1", &json!({"v": 2})).unwrap();
        a.apply_changes(&b.get_changes(a.clock())).unwrap();
        b.apply_changes(&a.get_changes(b.clock())).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.get_row("1"), Some(json!({"v": 2})));
    }

    #[test]
    fn rows_ordered_by_pk() {
        let mut t = CrdtTable::new(ActorId(1), "t");
        t.upsert_row("b", &json!({})).unwrap();
        t.upsert_row("a", &json!({})).unwrap();
        let pks: Vec<String> = t.rows().into_iter().map(|(pk, _)| pk).collect();
        assert_eq!(pks, vec!["a", "b"]);
    }
}
