//! The in-memory SQL execution engine.
//!
//! Provides the three capabilities EdgStr's state machinery needs
//! (§III-C): normal execution, whole-database snapshot/restore (the
//! `save "init"` / `restore "init"` operations), and
//! `START TRANSACTION`/`ROLLBACK` shadow execution that keeps tables
//! unchanged while a service is being profiled. Every write reports
//! [`RowEffect`]s so the runtime can mirror changes into `CRDT-Table`s.
//!
//! A table with a primary key keeps [`Table::rows`] sorted by
//! [`SqlValue::pk_cmp`], and that order is its only index: `INSERT` finds
//! its slot and its duplicate by binary search, and a `WHERE` that pins
//! the key to a literal narrows the scan to the rows equal to it. A table
//! without one keeps insertion order and is always scanned.
//!
//! A statement's `WHERE` clause is bound to its table once per execution
//! (`Table::bind`): column names become indices, `LIKE` patterns are
//! split, the primary-key pin is found — so the test (`Pred::eval`) looks
//! nothing up and allocates nothing. It tests [`BATCH`] rows at a time and
//! answers with one bit per row; `SELECT`, `UPDATE` and `DELETE` all scan
//! through it. A long `LIKE` scan searches a contiguous copy of its
//! column's text (`TextColumn`), which the table keeps until a write to
//! that column, or one that moves rows, makes it stale (`Table::wrote`).
//!
//! `ORDER BY` sorts by [`SqlValue::pk_cmp`] — `NULL`, then numbers, then
//! text, then blobs — and breaks ties by scan position, so the order is
//! total and a `LIMIT k` need only select and sort the first `k` rows.

use crate::columns::ColumnSet;
use crate::parser::{parse_sql, CmpOp, SelectItem, SqlParseError, Statement, WhereExpr};
use crate::value::{SqlType, SqlValue};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Error raised by SQL execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    Parse(SqlParseError),
    NoSuchTable(String),
    NoSuchColumn { table: String, column: String },
    DuplicateTable(String),
    ArityMismatch { expected: usize, found: usize },
    DuplicatePrimaryKey(String),
    NoActiveTransaction,
    NestedTransaction,
    NoPrimaryKey(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::NoSuchColumn { table, column } => {
                write!(f, "no such column {column} in table {table}")
            }
            SqlError::DuplicateTable(t) => write!(f, "table {t} already exists"),
            SqlError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} values, found {found}")
            }
            SqlError::DuplicatePrimaryKey(k) => write!(f, "duplicate primary key {k}"),
            SqlError::NoActiveTransaction => write!(f, "no active transaction"),
            SqlError::NestedTransaction => write!(f, "transaction already active"),
            SqlError::NoPrimaryKey(t) => write!(f, "table {t} has no primary key"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlParseError> for SqlError {
    fn from(e: SqlParseError) -> Self {
        SqlError::Parse(e)
    }
}

/// One table.
#[derive(Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<ColumnMeta>,
    /// The rows: ascending by [`SqlValue::pk_cmp`] of the primary-key
    /// column when the table has one, in insertion order otherwise. Every
    /// write to them reports itself to [`Table::wrote`].
    pub rows: Vec<Vec<SqlValue>>,
    next_rowid: i64,
    /// The columns' names, in order, shared by every [`RowEffect`] the
    /// table reports.
    names: Arc<[String]>,
    /// A contiguous copy of each column a long scan has tested with
    /// `LIKE`: derived from `rows`, so equality and `Debug` ignore it.
    texts: Vec<TextColumn>,
}

/// Tables are equal when their data is: the text copies are not compared.
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.rows == other.rows
            && self.next_rowid == other.next_rowid
            && self.names == other.names
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .field("next_rowid", &self.next_rowid)
            .field("names", &self.names)
            .finish()
    }
}

/// Column metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    pub name: String,
    pub ty: SqlType,
    pub primary_key: bool,
}

impl Table {
    /// How many rows the table holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Account for a write to `rows` that changed the cells at `changed`
    /// (`None`: rows moved — one went in or out, or the order changed).
    /// Every write to `rows` ends here: a text copy stays valid through
    /// writes to other columns and is dropped on any other.
    fn wrote(&mut self, changed: Option<ColumnSet>) {
        match changed {
            Some(cells) => self.texts.retain(|t| !cells.covers(ColumnSet::of(t.col))),
            None => self.texts.clear(),
        }
    }

    /// Copy out the text of each column `scan` tests with `LIKE` that has
    /// no copy yet, when the scan is longer than one batch: a shorter one
    /// reads its few cells in place.
    fn copy_texts(&mut self, scan: &Scan) {
        if scan.range.len() <= BATCH {
            return;
        }
        for &col in &scan.likes {
            if !self.texts.iter().any(|t| t.col == col) {
                let cells = self.rows.iter().map(|row| match &row[col] {
                    SqlValue::Text(s) => Some(s.as_bytes()),
                    _ => None,
                });
                self.texts.extend(TextColumn::new(col, cells));
            }
        }
    }

    /// The columns `stmt`, a `SELECT` of this table, references
    /// ([`Statement::referenced_columns`]) as positions: [`ColumnSet::ALL`]
    /// when they are all of this table's, for `*`, for a name this table
    /// does not have and for any other statement.
    #[must_use]
    pub fn read_columns(&self, stmt: &Statement) -> ColumnSet {
        let Some(names) = stmt.referenced_columns() else {
            return ColumnSet::ALL;
        };
        let mut set = ColumnSet::NONE;
        for name in names {
            match self.col_index(name) {
                Some(i) => set = set.with(i),
                None => return ColumnSet::ALL,
            }
        }
        if set.covers(ColumnSet::first(self.columns.len())) {
            ColumnSet::ALL
        } else {
            set
        }
    }

    /// Where the primary-key column is (`None`: the table has none).
    pub fn pk_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }

    /// The rows whose key (column `pki`) equals `key` — found by binary
    /// search, which is what keeping `rows` in key order buys.
    fn pk_range(&self, pki: usize, key: &SqlValue) -> Range<usize> {
        let lo = self
            .rows
            .partition_point(|r| r[pki].pk_cmp(key) == Ordering::Less);
        // rarely more than one row: walk them rather than search again
        let len = self.rows[lo..]
            .iter()
            .take_while(|r| r[pki].pk_cmp(key) == Ordering::Equal)
            .count();
        lo..lo + len
    }

    /// Bind a `WHERE` clause to this table: the predicate with every
    /// column resolved, and the rows it can select — those equal to the
    /// literal it pins the primary key to (a `pk = literal` at the root or
    /// under `AND`s), or all of them. The pin only ever skips rows that
    /// comparison alone rules out. An expression naming an unknown column
    /// keeps the full scan, so the error is reported by exactly the rows
    /// that reach it.
    fn bind<'s>(&self, table: &'s str, e: Option<&'s WhereExpr>) -> Scan<'s> {
        let all = 0..self.len();
        let Some(e) = e else {
            return Scan {
                pred: Pred::Const(true),
                range: all,
                likes: Vec::new(),
            };
        };
        let (pred, pin, likes) = self.bind_pred(table, e);
        let range = match (self.pk_index(), pin) {
            (Some(pki), Some(key)) => self.pk_range(pki, key),
            _ => all,
        };
        Scan { pred, range, likes }
    }

    /// `e` with every column resolved, the literal a `pk = literal` at its
    /// root or under `AND`s pins the primary key to — `None` when `e` names
    /// a column this table does not have — and the columns it tests with
    /// `LIKE`, each once.
    fn bind_pred<'s>(
        &self,
        table: &'s str,
        e: &'s WhereExpr,
    ) -> (Pred<'s>, Option<&'s SqlValue>, Vec<usize>) {
        let mut binder = Binder {
            t: self,
            table,
            pk: self.pk_index(),
            pin: None,
            unknown: false,
            likes: Vec::new(),
        };
        let pred = binder.node(e, true);
        let pin = binder.pin.filter(|_| !binder.unknown);
        (pred, pin, binder.likes)
    }

    /// The columns' names, in order.
    pub fn column_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// The effect of writing `row`, which changed the cells at `changed`
    /// (`None`: the row is new to its key).
    fn upsert(&self, row: &[SqlValue], changed: Option<ColumnSet>) -> RowEffect {
        RowEffect::Upsert {
            table: self.name.clone(),
            pk: self.key_of(row),
            columns: Arc::clone(&self.names),
            cells: row.to_vec(),
            changed,
        }
    }

    /// `row`'s primary-key cell (`None`: the table has no primary key).
    fn key_of(&self, row: &[SqlValue]) -> Option<SqlValue> {
        self.pk_index().map(|i| row[i].clone())
    }

    /// Total byte size of the table contents.
    pub fn byte_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(SqlValue::size).sum::<usize>())
            .sum()
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlResult {
    /// `SELECT` output: column labels plus rows.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<SqlValue>>,
    },
    /// Number of rows affected by a write.
    Affected(usize),
    /// Statement executed with nothing to report (DDL, transactions).
    Ok,
}

/// What [`SqlDb::exec_lent`] produced: a plain `SELECT`'s rows still in
/// their table, anything else (an aggregate's one computed row, a write's
/// count) owned.
#[derive(Debug)]
pub enum Output<'a> {
    Selected(Selected<'a>),
    Done(SqlResult),
}

impl Output<'_> {
    /// The owned form, copying lent rows.
    pub fn into_result(self) -> SqlResult {
        match self {
            Output::Selected(s) => SqlResult::Rows {
                columns: s.columns.iter().map(|c| c.to_string()).collect(),
                rows: s
                    .rows
                    .iter()
                    .map(|r| s.proj.iter().map(|&i| r[i].clone()).collect())
                    .collect(),
            },
            Output::Done(result) => result,
        }
    }
}

/// The rows a `SELECT` chose, lent from their table: output row `r`,
/// column `c` is `rows[r][proj[c]]`, labelled `columns[c]`.
#[derive(Debug)]
pub struct Selected<'a> {
    pub columns: Vec<&'a str>,
    /// The chosen rows, whole, in output order.
    pub rows: Vec<&'a [SqlValue]>,
    /// For each output column, where its cell is in a row.
    pub proj: Vec<usize>,
}

/// A change to one row, reported so the runtime can mirror writes into the
/// corresponding `CRDT-Table` (§III-G.1) and bump exactly the cache
/// validity counters the change moved.
#[derive(Debug, Clone)]
pub enum RowEffect {
    /// The row as written: its cells in column order, beside the table's
    /// column names.
    Upsert {
        table: String,
        /// The row's primary-key cell; `None` for a row of a table without
        /// one, which no replica keeps by row.
        pk: Option<SqlValue>,
        columns: Arc<[String]>,
        cells: Vec<SqlValue>,
        /// The columns whose cell the write changed
        /// ([`SqlValue::identical`] tells); empty when it wrote every cell
        /// as it was. `None` when the row is new to its key: an `INSERT`,
        /// or an `UPDATE` that re-keyed it — a change to the row set.
        changed: Option<ColumnSet>,
    },
    /// The row left its key (a `DELETE`, or the old key of a re-keyed
    /// row): a change to the row set.
    Delete { table: String, pk: Option<SqlValue> },
}

/// Whether two keys are the same cell ([`SqlValue::identical`]), or both
/// absent.
fn same_key(a: &Option<SqlValue>, b: &Option<SqlValue>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.identical(b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Two effects are equal when their keys and cells are the same cells
/// ([`SqlValue::identical`]).
impl PartialEq for RowEffect {
    fn eq(&self, other: &RowEffect) -> bool {
        match (self, other) {
            (
                RowEffect::Upsert {
                    table,
                    pk,
                    columns,
                    cells,
                    changed,
                },
                RowEffect::Upsert {
                    table: table2,
                    pk: pk2,
                    columns: columns2,
                    cells: cells2,
                    changed: changed2,
                },
            ) => {
                (table, columns, changed) == (table2, columns2, changed2)
                    && same_key(pk, pk2)
                    && cells.len() == cells2.len()
                    && cells.iter().zip(cells2).all(|(a, b)| a.identical(b))
            }
            (
                RowEffect::Delete { table, pk },
                RowEffect::Delete {
                    table: table2,
                    pk: pk2,
                },
            ) => table == table2 && same_key(pk, pk2),
            _ => false,
        }
    }
}

/// What one `SELECT` read, as [`SqlDb::read_of`] reports it: a response
/// cache entry filled from the execution is sound only if its validity
/// stamp covers every such read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlRead {
    pub table: String,
    /// [`SqlValue::pk_string`] of the literal the scan was pinned to: every
    /// row the statement could see has this key.
    pub key: Option<String>,
    /// The columns the statement references.
    pub columns: ColumnSet,
}

/// A full-database snapshot (the paper's `save "init"` checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    tables: BTreeMap<String, Table>,
}

impl Snapshot {
    /// The captured table `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Total bytes of data held in the snapshot.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(Table::byte_size).sum()
    }
}

/// The in-memory SQL database.
#[derive(Debug, Clone, Default)]
pub struct SqlDb {
    tables: BTreeMap<String, Table>,
    txn_backup: Option<BTreeMap<String, Table>>,
    /// Parse results keyed by query text: serving workloads repeat the
    /// same statements, so the recursive-descent parse is paid once.
    /// Bounded — dynamically built one-shot statements (unique literals
    /// interpolated into INSERTs) cannot grow it without limit.
    parse_cache: HashMap<String, Rc<Statement>>,
}

/// Entries kept in the statement parse cache before it is reset.
const PARSE_CACHE_CAP: usize = 512;

impl SqlDb {
    /// An empty database.
    pub fn new() -> Self {
        SqlDb::default()
    }

    /// Execute one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on parse or execution failure.
    pub fn exec(&mut self, sql: &str) -> Result<SqlResult, SqlError> {
        self.exec_with_effects(sql).map(|(r, _)| r)
    }

    /// Execute one SQL statement, additionally reporting per-row effects
    /// for CRDT mirroring.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on parse or execution failure.
    pub fn exec_with_effects(
        &mut self,
        sql: &str,
    ) -> Result<(SqlResult, Vec<RowEffect>), SqlError> {
        let stmt = self.prepare(sql)?;
        self.exec_stmt(&stmt)
    }

    /// The parsed form of `sql`, from the statement cache when the same
    /// text was seen before.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::Parse`] when `sql` is not a statement.
    pub fn prepare(&mut self, sql: &str) -> Result<Rc<Statement>, SqlError> {
        if let Some(stmt) = self.parse_cache.get(sql) {
            return Ok(Rc::clone(stmt));
        }
        let stmt = Rc::new(parse_sql(sql)?);
        if self.parse_cache.len() >= PARSE_CACHE_CAP {
            self.parse_cache.clear();
        }
        self.parse_cache.insert(sql.to_string(), Rc::clone(&stmt));
        Ok(stmt)
    }

    /// Execute an already-parsed statement.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on execution failure.
    pub fn exec_stmt(&mut self, stmt: &Statement) -> Result<(SqlResult, Vec<RowEffect>), SqlError> {
        self.exec_lent(stmt)
            .map(|(output, effects)| (output.into_result(), effects))
    }

    /// [`SqlDb::exec_stmt`] without copying a `SELECT`'s rows out of their
    /// table: they are lent for as long as the database stays borrowed.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on execution failure.
    pub fn exec_lent(
        &mut self,
        stmt: &Statement,
    ) -> Result<(Output<'_>, Vec<RowEffect>), SqlError> {
        let done = |result: SqlResult, effects| Ok((Output::Done(result), effects));
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if self.tables.contains_key(name) {
                    if *if_not_exists {
                        return done(SqlResult::Ok, Vec::new());
                    }
                    return Err(SqlError::DuplicateTable(name.clone()));
                }
                self.tables.insert(
                    name.clone(),
                    Table {
                        name: name.clone(),
                        columns: columns
                            .iter()
                            .map(|c| ColumnMeta {
                                name: c.name.clone(),
                                ty: c.ty,
                                primary_key: c.primary_key,
                            })
                            .collect(),
                        rows: Vec::new(),
                        next_rowid: 1,
                        names: columns.iter().map(|c| c.name.clone()).collect(),
                        texts: Vec::new(),
                    },
                );
                done(SqlResult::Ok, Vec::new())
            }
            Statement::DropTable { name } => {
                self.tables
                    .remove(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.clone()))?;
                done(SqlResult::Ok, Vec::new())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                let mut new_rows = Vec::with_capacity(rows.len());
                for values in rows {
                    let full_row = if columns.is_empty() {
                        if values.len() != t.columns.len() {
                            return Err(SqlError::ArityMismatch {
                                expected: t.columns.len(),
                                found: values.len(),
                            });
                        }
                        values.clone()
                    } else {
                        if values.len() != columns.len() {
                            return Err(SqlError::ArityMismatch {
                                expected: columns.len(),
                                found: values.len(),
                            });
                        }
                        let mut row = vec![SqlValue::Null; t.columns.len()];
                        for (c, v) in columns.iter().zip(values.iter()) {
                            let idx = t.col_index(c).ok_or_else(|| SqlError::NoSuchColumn {
                                table: table.clone(),
                                column: c.clone(),
                            })?;
                            row[idx] = v.clone();
                        }
                        row
                    };
                    new_rows.push(full_row);
                }
                let pk_index = t.pk_index();
                // every key is checked before any row goes in, so a
                // rejected statement leaves the table as it found it
                if let Some(pki) = pk_index {
                    for (i, row) in new_rows.iter().enumerate() {
                        let taken = !t.pk_range(pki, &row[pki]).is_empty()
                            || new_rows[..i]
                                .iter()
                                .any(|r| r[pki].pk_cmp(&row[pki]) == Ordering::Equal);
                        if taken {
                            return Err(SqlError::DuplicatePrimaryKey(row[pki].to_string()));
                        }
                    }
                }
                let mut effects = Vec::with_capacity(new_rows.len());
                for full_row in new_rows {
                    let idx = match pk_index {
                        Some(pki) => t.pk_range(pki, &full_row[pki]).start,
                        None => t.len(),
                    };
                    effects.push(t.upsert(&full_row, None));
                    t.rows.insert(idx, full_row);
                    t.next_rowid += 1;
                }
                if !effects.is_empty() {
                    t.wrote(None);
                }
                done(SqlResult::Affected(rows.len()), effects)
            }
            Statement::Select {
                items,
                table,
                where_expr,
                order_by,
                limit,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                let scan = t.bind(table, where_expr.as_ref());
                t.copy_texts(&scan);
                let t: &Table = t;
                let (hits, error) = scan.run(t);
                if let Some(error) = error {
                    return Err(error);
                }
                let mut rows: Vec<&[SqlValue]> = hits.into_iter().map(|i| &t.rows[i][..]).collect();
                let order = match order_by {
                    Some((col, desc)) => {
                        let idx = t.col_index(col).ok_or_else(|| SqlError::NoSuchColumn {
                            table: table.clone(),
                            column: col.clone(),
                        })?;
                        Some((idx, *desc))
                    }
                    None => None,
                };
                let limit = limit.unwrap_or(usize::MAX);
                // aggregate query?
                let has_agg = items.iter().any(|i| {
                    matches!(
                        i,
                        SelectItem::Count
                            | SelectItem::Sum(_)
                            | SelectItem::Avg(_)
                            | SelectItem::Min(_)
                            | SelectItem::Max(_)
                    )
                });
                // an aggregate reads every match, in scan order: the order
                // and the limit apply to its one result row
                if has_agg {
                    let mut columns = Vec::new();
                    let mut row = Vec::new();
                    for item in items {
                        let (label, v) = Self::aggregate(t, &rows, item, table)?;
                        columns.push(label);
                        row.push(v);
                    }
                    let mut rows = vec![row];
                    rows.truncate(limit);
                    return done(SqlResult::Rows { columns, rows }, Vec::new());
                }
                if let Some((col, desc)) = order {
                    rows = order_rows(rows, col, desc, limit);
                }
                rows.truncate(limit);
                // projection
                let mut proj: Vec<usize> = Vec::new();
                for item in items {
                    match item {
                        SelectItem::Star => proj.extend(0..t.columns.len()),
                        SelectItem::Column(c) => {
                            proj.push(t.col_index(c).ok_or_else(|| SqlError::NoSuchColumn {
                                table: table.clone(),
                                column: c.clone(),
                            })?);
                        }
                        _ => unreachable!("aggregates handled above"),
                    }
                }
                let columns = proj.iter().map(|&i| t.columns[i].name.as_str()).collect();
                let selected = Selected {
                    columns,
                    rows,
                    proj,
                };
                Ok((Output::Selected(selected), Vec::new()))
            }
            Statement::Update {
                table,
                sets,
                where_expr,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                let mut set_idx = Vec::new();
                for (c, v) in sets {
                    let idx = t.col_index(c).ok_or_else(|| SqlError::NoSuchColumn {
                        table: table.clone(),
                        column: c.clone(),
                    })?;
                    set_idx.push((idx, v.clone()));
                }
                let mut affected = 0;
                let mut effects = Vec::new();
                let pk_index = t.pk_index();
                // the key column, when this statement assigns it
                let rekeyed = pk_index.filter(|pi| set_idx.iter().any(|(idx, _)| idx == pi));
                let scan = t.bind(table, where_expr.as_ref());
                t.copy_texts(&scan);
                // rows before the first that raises an error stay written
                let (hits, error) = scan.run(t);
                let mut written = ColumnSet::NONE;
                for i in hits {
                    let row = &mut t.rows[i];
                    let old_pk = rekeyed.map(|pi| row[pi].clone());
                    let mut cells = ColumnSet::NONE;
                    for (idx, v) in &set_idx {
                        if !row[*idx].identical(v) {
                            cells = cells.with(*idx);
                        }
                        row[*idx] = v.clone();
                    }
                    written = written.union(cells);
                    affected += 1;
                    let mut upsert = t.upsert(&t.rows[i], Some(cells));
                    // a re-keyed row leaves its old key: without the
                    // delete the mirror would keep both
                    if let RowEffect::Upsert {
                        pk: Some(pk),
                        changed,
                        ..
                    } = &mut upsert
                    {
                        if let Some(old_pk) = old_pk.filter(|old| old.pk_cmp(pk).is_ne()) {
                            effects.push(RowEffect::Delete {
                                table: table.clone(),
                                pk: Some(old_pk),
                            });
                            *changed = None;
                        }
                    }
                    effects.push(upsert);
                }
                t.wrote(Some(written));
                if let Some(error) = error {
                    return Err(error);
                }
                if let Some(pi) = rekeyed.filter(|_| affected > 0) {
                    t.rows.sort_by(|a, b| a[pi].pk_cmp(&b[pi]));
                    t.wrote(None);
                }
                done(SqlResult::Affected(affected), effects)
            }
            Statement::Delete { table, where_expr } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                // decide first, remove after: an error while matching must
                // not leave the table half-emptied
                let scan = t.bind(table, where_expr.as_ref());
                t.copy_texts(&scan);
                let (doomed, error) = scan.run(t);
                if let Some(error) = error {
                    return Err(error);
                }
                let effects = doomed
                    .iter()
                    .map(|&i| RowEffect::Delete {
                        table: table.clone(),
                        pk: t.key_of(&t.rows[i]),
                    })
                    .collect();
                let mut at = 0;
                let mut next = doomed.iter().peekable();
                t.rows.retain(|_| {
                    let hit = next.next_if_eq(&&at).is_some();
                    at += 1;
                    !hit
                });
                if !doomed.is_empty() {
                    t.wrote(None);
                }
                done(SqlResult::Affected(doomed.len()), effects)
            }
            Statement::Begin => {
                if self.txn_backup.is_some() {
                    return Err(SqlError::NestedTransaction);
                }
                self.txn_backup = Some(self.tables.clone());
                done(SqlResult::Ok, Vec::new())
            }
            Statement::Commit => {
                self.txn_backup
                    .take()
                    .ok_or(SqlError::NoActiveTransaction)?;
                done(SqlResult::Ok, Vec::new())
            }
            Statement::Rollback => {
                let backup = self
                    .txn_backup
                    .take()
                    .ok_or(SqlError::NoActiveTransaction)?;
                self.tables = backup;
                done(SqlResult::Ok, Vec::new())
            }
        }
    }

    fn aggregate(
        t: &Table,
        rows: &[&[SqlValue]],
        item: &SelectItem,
        table: &str,
    ) -> Result<(String, SqlValue), SqlError> {
        let col_idx = |c: &String| -> Result<usize, SqlError> {
            t.col_index(c).ok_or_else(|| SqlError::NoSuchColumn {
                table: table.to_string(),
                column: c.clone(),
            })
        };
        let nums = |idx: usize| -> Vec<f64> {
            rows.iter()
                .filter_map(|r| match &r[idx] {
                    SqlValue::Int(i) => Some(*i as f64),
                    SqlValue::Real(f) => Some(*f),
                    _ => None,
                })
                .collect()
        };
        Ok(match item {
            SelectItem::Count => ("count".to_string(), SqlValue::Int(rows.len() as i64)),
            SelectItem::Sum(c) => {
                let idx = col_idx(c)?;
                let s: f64 = nums(idx).iter().sum();
                (format!("sum({c})"), SqlValue::Real(s))
            }
            SelectItem::Avg(c) => {
                let idx = col_idx(c)?;
                let v = nums(idx);
                let avg = if v.is_empty() {
                    SqlValue::Null
                } else {
                    SqlValue::Real(v.iter().sum::<f64>() / v.len() as f64)
                };
                (format!("avg({c})"), avg)
            }
            SelectItem::Min(c) => {
                let idx = col_idx(c)?;
                let m = rows
                    .iter()
                    .map(|r| &r[idx])
                    .filter(|v| !matches!(v, SqlValue::Null))
                    .min_by(|a, b| a.compare(b).unwrap_or(Ordering::Equal));
                (format!("min({c})"), m.cloned().unwrap_or(SqlValue::Null))
            }
            SelectItem::Max(c) => {
                let idx = col_idx(c)?;
                let m = rows
                    .iter()
                    .map(|r| &r[idx])
                    .filter(|v| !matches!(v, SqlValue::Null))
                    .max_by(|a, b| a.compare(b).unwrap_or(Ordering::Equal));
                (format!("max({c})"), m.cloned().unwrap_or(SqlValue::Null))
            }
            _ => unreachable!(),
        })
    }

    /// Snapshot the entire database (the paper's `save "init"`).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            tables: self.tables.clone(),
        }
    }

    /// Restore a previously taken snapshot (the paper's `restore "init"`).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.tables = snapshot.tables.clone();
        self.txn_backup = None;
    }

    /// Whether a transaction is active.
    pub fn in_transaction(&self) -> bool {
        self.txn_backup.is_some()
    }

    /// Access a table's metadata and rows.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Total bytes of data across all tables.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(Table::byte_size).sum()
    }

    /// Replace the full contents of `name` with `rows`, each a row's cells
    /// in column order. Used to materialize a replicated `CRDT-Table` back
    /// into the local database after applying remote changes.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::NoSuchTable`] when the table does not exist and
    /// [`SqlError::ArityMismatch`] for a row of the wrong width (the table
    /// is then left as it was).
    pub fn replace_table_rows(
        &mut self,
        name: &str,
        mut rows: Vec<Vec<SqlValue>>,
    ) -> Result<(), SqlError> {
        let t = self
            .tables
            .get_mut(name)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))?;
        if let Some(row) = rows.iter().find(|r| r.len() != t.columns.len()) {
            return Err(SqlError::ArityMismatch {
                expected: t.columns.len(),
                found: row.len(),
            });
        }
        if let Some(pki) = t.pk_index() {
            rows.sort_by(|a, b| a[pki].pk_cmp(&b[pki]));
        }
        t.rows = rows;
        t.wrote(None);
        Ok(())
    }

    /// Write one row, its cells in column order, over the row with the
    /// same primary key, or insert it at its place — the row-sized
    /// counterpart of [`SqlDb::replace_table_rows`]. Reports the change as
    /// a [`RowEffect::Upsert`] does: the columns whose cell differs from
    /// the row it overwrote, `None` when there was none to overwrite.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::NoSuchTable`] when the table does not exist,
    /// [`SqlError::NoPrimaryKey`] when it has no key to find the row by and
    /// [`SqlError::ArityMismatch`] for a row of the wrong width.
    pub fn upsert_row(
        &mut self,
        name: &str,
        row: Vec<SqlValue>,
    ) -> Result<Option<ColumnSet>, SqlError> {
        let (t, pki) = self.keyed_table_mut(name)?;
        if row.len() != t.columns.len() {
            return Err(SqlError::ArityMismatch {
                expected: t.columns.len(),
                found: row.len(),
            });
        }
        let at = t.pk_range(pki, &row[pki]);
        if at.is_empty() {
            t.rows.insert(at.start, row);
            t.wrote(None);
            return Ok(None);
        }
        let old = &mut t.rows[at.start];
        let changed = old
            .iter()
            .zip(&row)
            .enumerate()
            .filter(|(_, (a, b))| !a.identical(b))
            .fold(ColumnSet::NONE, |set, (i, _)| set.with(i));
        *old = row;
        t.wrote(Some(changed));
        Ok(Some(changed))
    }

    /// Remove the row whose primary key [`SqlValue::pk_cmp`] calls equal
    /// to `pk`; no-op when there is none. Reports whether a row went.
    ///
    /// # Errors
    ///
    /// As for [`SqlDb::upsert_row`].
    pub fn delete_row_by_pk(&mut self, name: &str, pk: &SqlValue) -> Result<bool, SqlError> {
        let (t, pki) = self.keyed_table_mut(name)?;
        let at = t.pk_range(pki, pk);
        let gone = !at.is_empty();
        if gone {
            t.rows.drain(at);
            t.wrote(None);
        }
        Ok(gone)
    }

    /// What executing `stmt` reads, when it is a `SELECT` of a table that
    /// exists: the table, the key a `pk = literal` conjunct pins it to and
    /// the columns it references ([`Table::read_columns`]).
    #[must_use]
    pub fn read_of(&self, stmt: &Statement) -> Option<SqlRead> {
        let Statement::Select {
            table, where_expr, ..
        } = stmt
        else {
            return None;
        };
        let t = self.tables.get(table)?;
        Some(SqlRead {
            table: table.clone(),
            key: where_expr
                .as_ref()
                .and_then(|e| t.bind_pred(table, e).1)
                .map(SqlValue::pk_string),
            columns: t.read_columns(stmt),
        })
    }

    fn keyed_table_mut(&mut self, name: &str) -> Result<(&mut Table, usize), SqlError> {
        let t = self
            .tables
            .get_mut(name)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))?;
        let pki = t
            .pk_index()
            .ok_or_else(|| SqlError::NoPrimaryKey(name.to_string()))?;
        Ok((t, pki))
    }
}

/// A `WHERE` clause bound to one table for one execution.
struct Scan<'s> {
    pred: Pred<'s>,
    /// The rows worth testing; every other row fails `pred`.
    range: Range<usize>,
    /// The columns `pred` tests with `LIKE`, each once.
    likes: Vec<usize>,
}

/// How many rows [`Pred::eval`] tests at a time: one bit of a `u64` each.
const BATCH: usize = 64;

impl Scan<'_> {
    /// The rows of `t` in the scan's range that pass, in scan order, and
    /// the error of the first row that reaches a column the table does not
    /// have: no row after that one is returned.
    fn run(&self, t: &Table) -> (Vec<usize>, Option<SqlError>) {
        let mut hits = Vec::new();
        let mut start = self.range.start;
        while start < self.range.end {
            let end = (start + BATCH).min(self.range.end);
            let batch = Batch {
                rows: &t.rows[start..end],
                at: start,
                texts: &t.texts,
            };
            let active = u64::MAX >> (BATCH - (end - start));
            let mut unknown = None;
            let mut mask = self.pred.eval(&batch, active, &mut unknown);
            let error = unknown.map(|u| {
                mask &= (1 << u.row) - 1;
                SqlError::NoSuchColumn {
                    table: u.table.to_string(),
                    column: u.column.to_string(),
                }
            });
            while mask != 0 {
                hits.push(start + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
            if error.is_some() {
                return (hits, error);
            }
            start = end;
        }
        (hits, None)
    }
}

/// At most [`BATCH`] consecutive rows of a table, the first of them row
/// `at`, beside the table's text copies.
struct Batch<'t> {
    rows: &'t [Vec<SqlValue>],
    at: usize,
    texts: &'t [TextColumn],
}

/// The first row of a batch, in scan order, that reached a column the
/// table does not have, and the first such column it reached.
struct Unknown<'s> {
    row: usize,
    table: &'s str,
    column: &'s str,
}

/// The first `limit` of `rows` in `ORDER BY col [DESC]` order. Rows are
/// ordered by [`SqlValue::pk_cmp`] of the column, reversed for `DESC`, and
/// equal keys by their position in `rows`, ascending either way: a total
/// order, so an unstable selection and sort of the first `limit` give what
/// a stable sort of every row, truncated, would.
fn order_rows(rows: Vec<&[SqlValue]>, col: usize, desc: bool, limit: usize) -> Vec<&[SqlValue]> {
    let mut ranked: Vec<(usize, &[SqlValue])> = rows.into_iter().enumerate().collect();
    let by = |(i, a): &(usize, &[SqlValue]), (j, b): &(usize, &[SqlValue])| {
        let ord = a[col].pk_cmp(&b[col]);
        let ord = if desc { ord.reverse() } else { ord };
        ord.then(i.cmp(j))
    };
    if let Some(last) = limit.checked_sub(1).filter(|&last| last < ranked.len()) {
        ranked.select_nth_unstable_by(last, by);
        ranked.truncate(limit);
    }
    ranked.sort_unstable_by(by);
    ranked.into_iter().map(|(_, row)| row).collect()
}

/// A `WHERE` expression with its columns resolved to indices. It borrows
/// the statement's literals and holds nothing of the table, so it stays
/// usable while rows are written.
enum Pred<'s> {
    And(Box<Pred<'s>>, Box<Pred<'s>>),
    Or(Box<Pred<'s>>, Box<Pred<'s>>),
    IsNull {
        col: usize,
        negated: bool,
    },
    /// Any operator but `LIKE`.
    Cmp {
        col: usize,
        op: CmpOp,
        value: &'s SqlValue,
    },
    Like {
        col: usize,
        pattern: LikePattern<'s>,
    },
    /// No `WHERE` at all (true), or `LIKE` against a literal that is not
    /// text (false).
    Const(bool),
    /// A column the table does not have. Not an error until a row gets
    /// here: `a AND nosuch` fails only if some row passes `a`.
    NoSuchColumn {
        table: &'s str,
        column: &'s str,
    },
}

impl<'s> Pred<'s> {
    /// The rows of `batch` among `active` (bit `i` is row `i`) that pass.
    /// An `AND` tests its right side only on the rows its left side
    /// passed, an `OR` only on those it failed, so each leaf sees exactly
    /// the rows a row-at-a-time walk would bring to it. The leaves are
    /// visited in tree order, and a column the table does not have records
    /// the first row it sees in `unknown` unless an earlier leaf recorded
    /// that row or an earlier one: what is recorded is the first row, in
    /// scan order, to reach an unknown column and the first one it reached.
    fn eval(&self, batch: &Batch, active: u64, unknown: &mut Option<Unknown<'s>>) -> u64 {
        if active == 0 {
            return 0;
        }
        let rows = batch.rows;
        match self {
            Pred::And(a, b) => {
                let passed = a.eval(batch, active, unknown);
                b.eval(batch, passed, unknown)
            }
            Pred::Or(a, b) => {
                let passed = a.eval(batch, active, unknown);
                passed | b.eval(batch, active & !passed, unknown)
            }
            Pred::IsNull { col, negated } => each_cell(rows, *col, active, |c| {
                matches!(c, SqlValue::Null) != *negated
            }),
            Pred::Cmp { col, op, value } => match op {
                CmpOp::Eq => compare_cells(rows, *col, active, value, Ordering::is_eq),
                CmpOp::NotEq => compare_cells(rows, *col, active, value, Ordering::is_ne),
                CmpOp::Lt => compare_cells(rows, *col, active, value, Ordering::is_lt),
                CmpOp::Le => compare_cells(rows, *col, active, value, Ordering::is_le),
                CmpOp::Gt => compare_cells(rows, *col, active, value, Ordering::is_gt),
                CmpOp::Ge => compare_cells(rows, *col, active, value, Ordering::is_ge),
                CmpOp::Like => unreachable!("bound as Pred::Like"),
            },
            Pred::Like { col, pattern } => match batch.texts.iter().find(|t| t.col == *col) {
                Some(text) => text.like(pattern, batch.at, active),
                None => each_cell(
                    rows,
                    *col,
                    active,
                    |c| matches!(c, SqlValue::Text(s) if pattern.matches(s.as_bytes())),
                ),
            },
            Pred::Const(pass) => {
                if *pass {
                    active
                } else {
                    0
                }
            }
            Pred::NoSuchColumn { table, column } => {
                let row = active.trailing_zeros() as usize;
                if unknown.as_ref().is_none_or(|u| row < u.row) {
                    *unknown = Some(Unknown { row, table, column });
                }
                0
            }
        }
    }
}

/// The rows `i` among `active` that pass `test(i)`, in one loop that sets
/// one bit per row. Generic over `test`, so each leaf gets a loop of its
/// own with the test inlined: through a function pointer the indirect call
/// costs more than the test.
#[inline(always)]
fn each_row(active: u64, test: impl Fn(usize) -> bool) -> u64 {
    let (mut passed, mut rest) = (0, active);
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        passed |= u64::from(test(i)) << i;
    }
    passed
}

/// The rows among `active` whose cell `col` passes `test`.
#[inline(always)]
fn each_cell(
    rows: &[Vec<SqlValue>],
    col: usize,
    active: u64,
    test: impl Fn(&SqlValue) -> bool,
) -> u64 {
    each_row(active, |i| test(&rows[i][col]))
}

/// The rows among `active` whose cell `col` compares to `value` in an
/// order `pass` accepts; `NULL` and a cell of another kind pass nothing.
/// The literal's kind picks the loop: an `INT` of magnitude at most 2^53
/// meets `INT` cells as integers and `REAL` cells as doubles (exact in
/// that range), a `REAL` meets `REAL` cells as doubles, and every other
/// pairing goes through [`SqlValue::compare`].
#[inline(always)]
fn compare_cells(
    rows: &[Vec<SqlValue>],
    col: usize,
    active: u64,
    value: &SqlValue,
    pass: impl Fn(Ordering) -> bool + Copy,
) -> u64 {
    let other = |c: &SqlValue| c.compare(value).is_some_and(pass);
    match *value {
        SqlValue::Int(v) if v.unsigned_abs() <= 1 << 53 => {
            let real = v as f64;
            each_cell(rows, col, active, |c| match c {
                SqlValue::Int(i) => pass(i.cmp(&v)),
                SqlValue::Real(r) => r.partial_cmp(&real).is_some_and(pass),
                c => other(c),
            })
        }
        SqlValue::Real(v) => each_cell(rows, col, active, |c| match c {
            SqlValue::Real(r) => r.partial_cmp(&v).is_some_and(pass),
            c => other(c),
        }),
        _ => each_cell(rows, col, active, other),
    }
}

/// The text of one column, back to back: row `i`'s bytes are
/// `bytes[starts[i]..starts[i + 1]]`, empty for a cell that is not text,
/// which bit `i` of `is_text` tells apart from empty text. `bytes` ends in
/// [`WORD`]` - 1` zero bytes, so a word read at any byte of the text stays
/// inside it.
#[derive(Clone)]
struct TextColumn {
    col: usize,
    bytes: Vec<u8>,
    starts: Vec<u32>,
    is_text: Vec<u64>,
}

/// The bytes [`find_in`] compares at once.
const WORD: usize = 8;

impl TextColumn {
    /// The copy of column `col` whose cells, in row order, are `cells`
    /// (`None`: not text); `None` when their text does not fit `u32`
    /// offsets.
    fn new<'c>(col: usize, cells: impl Iterator<Item = Option<&'c [u8]>> + Clone) -> Option<Self> {
        let len: usize = cells.clone().map(|c| c.map_or(0, <[u8]>::len)).sum();
        u32::try_from(len).ok()?;
        let mut bytes = Vec::with_capacity(len + WORD - 1);
        let mut starts = vec![0];
        let mut is_text = Vec::new();
        for (i, cell) in cells.enumerate() {
            if i % 64 == 0 {
                is_text.push(0);
            }
            if let Some(text) = cell {
                bytes.extend_from_slice(text);
                is_text[i / 64] |= 1 << (i % 64);
            }
            starts.push(bytes.len() as u32);
        }
        bytes.resize(len + WORD - 1, 0);
        Some(TextColumn {
            col,
            bytes,
            starts,
            is_text,
        })
    }

    /// Where row `i`'s text starts (or, for `i` one past the last row,
    /// where the text ends).
    fn start(&self, i: usize) -> usize {
        self.starts[i] as usize
    }

    /// Row `i`'s text.
    fn text(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.start(i + 1)]
    }

    /// Bits `at..at + 64` of `is_text`, as bits `0..64`.
    fn text_bits(&self, at: usize) -> u64 {
        let (word, bit) = (at / 64, at % 64);
        let low = self.is_text[word] >> bit;
        match self.is_text.get(word + 1) {
            Some(high) if bit > 0 => low | high << (64 - bit),
            _ => low,
        }
    }

    /// The rows among `active` (bit `i` is row `at + i`) whose cell is
    /// text `pattern` matches. With a piece to look for, the text from the
    /// first active row to the end of the last is searched for it; an
    /// occurrence inside one active row makes that row a candidate, which
    /// `pattern` then tests, and the search goes on at the next active
    /// row. An occurrence that runs into the next row is no candidate, and
    /// neither is any later one starting in its row.
    fn like(&self, pattern: &LikePattern, at: usize, active: u64) -> u64 {
        let active = active & self.text_bits(at);
        let Some(piece) = pattern.piece() else {
            return each_row(active, |i| pattern.matches(self.text(at + i)));
        };
        let end = self.start(at + BATCH - active.leading_zeros() as usize);
        let mut passed = 0;
        let mut rest = active;
        while rest != 0 {
            let mut row = rest.trailing_zeros() as usize;
            let Some(found) = find_in(&self.bytes, piece, self.start(at + row), end) else {
                break;
            };
            while self.start(at + row + 1) <= found {
                row += 1;
            }
            if active >> row & 1 == 1
                && found + piece.len() <= self.start(at + row + 1)
                && pattern.matches(self.text(at + row))
            {
                passed |= 1 << row;
            }
            rest &= u64::MAX << row << 1;
        }
        passed
    }
}

/// The first position in `from..=end - needle.len()` at which `needle`,
/// not empty, occurs in `hay`, which holds at least [`WORD`]` - 1` bytes
/// past `end`. [`WORD`] positions are tried at once: the word at `p` and
/// the word at `p + needle.len() - 1` are compared bytewise with the
/// needle's first and last bytes, and only positions where both agree are
/// compared in full.
fn find_in(hay: &[u8], needle: &[u8], from: usize, end: usize) -> Option<usize> {
    const ONES: u64 = u64::MAX / 255;
    let final_start = end.checked_sub(needle.len())?;
    let words = (final_start + 1).checked_sub(from)?.div_ceil(WORD);
    let tail = needle.len() - 1;
    let (first, last) = (ONES * u64::from(needle[0]), ONES * u64::from(needle[tail]));
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("a WORD-byte chunk"));
    let heads = hay[from..].chunks_exact(WORD);
    let tails = hay[from + tail..].chunks_exact(WORD);
    for (k, (head, tail)) in heads.zip(tails).take(words).enumerate() {
        // a byte of `both` is zero where both ends agree; the high bit of
        // each zero byte is set in `hits`, and perhaps that of a byte
        // above one, which the full comparison rules out
        let both = (word(head) ^ first) | (word(tail) ^ last);
        let mut hits = both.wrapping_sub(ONES) & !both & (ONES << 7);
        while hits != 0 {
            let at = from + k * WORD + hits.trailing_zeros() as usize / 8;
            if at > final_start {
                return None;
            }
            if hay[at..at + needle.len()] == *needle {
                return Some(at);
            }
            hits &= hits - 1;
        }
    }
    None
}

/// State of one [`Table::bind`] walk.
struct Binder<'t, 's> {
    t: &'t Table,
    table: &'s str,
    pk: Option<usize>,
    /// The first literal the expression pins the primary key to.
    pin: Option<&'s SqlValue>,
    /// Whether any node names a column the table does not have.
    unknown: bool,
    /// The columns a `LIKE` tests, each once.
    likes: Vec<usize>,
}

impl<'s> Binder<'_, 's> {
    /// Bind `e`. `conjunct` says every node above it is an `AND`, so a
    /// row that fails `e` fails the whole expression.
    fn node(&mut self, e: &'s WhereExpr, conjunct: bool) -> Pred<'s> {
        match e {
            WhereExpr::And(a, b) => {
                let a = self.node(a, conjunct);
                Pred::And(Box::new(a), Box::new(self.node(b, conjunct)))
            }
            WhereExpr::Or(a, b) => {
                let a = self.node(a, false);
                Pred::Or(Box::new(a), Box::new(self.node(b, false)))
            }
            WhereExpr::IsNull { column, negated } => match self.col(column) {
                Ok(col) => Pred::IsNull {
                    col,
                    negated: *negated,
                },
                Err(unknown) => unknown,
            },
            WhereExpr::Cmp { column, op, value } => {
                let col = match self.col(column) {
                    Ok(col) => col,
                    Err(unknown) => return unknown,
                };
                match (op, value) {
                    (CmpOp::Like, SqlValue::Text(pattern)) => {
                        if !self.likes.contains(&col) {
                            self.likes.push(col);
                        }
                        Pred::Like {
                            col,
                            pattern: LikePattern::new(pattern.as_bytes()),
                        }
                    }
                    (CmpOp::Like, _) => Pred::Const(false),
                    _ => {
                        if conjunct && *op == CmpOp::Eq && self.pk == Some(col) {
                            self.pin.get_or_insert(value);
                        }
                        Pred::Cmp {
                            col,
                            op: *op,
                            value,
                        }
                    }
                }
            }
        }
    }

    fn col(&mut self, column: &'s str) -> Result<usize, Pred<'s>> {
        self.t.col_index(column).ok_or_else(|| {
            self.unknown = true;
            Pred::NoSuchColumn {
                table: self.table,
                column,
            }
        })
    }
}

/// A `LIKE` pattern split at its `%` wildcards (there is no `_`), once.
/// Matching works on bytes: UTF-8 is self-synchronising, so a valid
/// needle is only ever found on a character boundary of valid text.
struct LikePattern<'s> {
    /// What the text starts with: the pattern up to its first `%`.
    head: &'s [u8],
    /// The non-empty pieces between two `%`, found in order, leftmost
    /// first, without overlap.
    inner: Vec<&'s [u8]>,
    /// What the rest of the text ends with: the pattern after its last
    /// `%`. `None` for a pattern without `%`, which is equality with `head`.
    tail: Option<&'s [u8]>,
}

impl<'s> LikePattern<'s> {
    fn new(pattern: &'s [u8]) -> Self {
        let mut parts = pattern.split(|&b| b == b'%');
        let head = parts.next().unwrap_or_default();
        let tail = parts.next_back();
        LikePattern {
            head,
            inner: parts.filter(|p| !p.is_empty()).collect(),
            tail,
        }
    }

    /// The first piece of the pattern that is not empty: every text it
    /// matches holds it. `None` for `''`, `%`, `%%` and the like.
    fn piece(&self) -> Option<&'s [u8]> {
        let pieces = std::iter::once(self.head).chain(self.inner.iter().copied());
        pieces.chain(self.tail).find(|p| !p.is_empty())
    }

    fn matches(&self, text: &[u8]) -> bool {
        let Some(tail) = self.tail else {
            return text.len() == self.head.len() && starts_with(text, self.head);
        };
        if !starts_with(text, self.head) {
            return false;
        }
        let mut rest = &text[self.head.len()..];
        for part in &self.inner {
            match find_bytes(rest, part) {
                Some(at) => rest = &rest[at + part.len()..],
                None => return false,
            }
        }
        match rest.len().checked_sub(tail.len()) {
            Some(from) => starts_with(&rest[from..], tail),
            None => false,
        }
    }
}

/// Whether `hay` starts with `needle`, byte by byte: the pieces of a
/// pattern are a few bytes long, too short to pay for a `memcmp` call, and
/// an empty one — the head or tail of `%q%` — costs one length check.
#[inline]
fn starts_with(hay: &[u8], needle: &[u8]) -> bool {
    hay.len() >= needle.len() && hay.iter().zip(needle).all(|(a, b)| a == b)
}

/// Position of the first occurrence of `needle` in `hay`.
fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((first, after)) = needle.split_first() else {
        return Some(0);
    };
    // where an occurrence can still start
    let starts = hay.len().checked_sub(needle.len())? + 1;
    let mut from = 0;
    while let Some(skip) = hay[from..starts].iter().position(|b| b == first) {
        let at = from + skip;
        if starts_with(&hay[at + 1..], after) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn db_with_books() -> SqlDb {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, price REAL, stock INT)")
            .unwrap();
        db.exec("INSERT INTO books VALUES (1, 'Dune', 9.99, 3), (2, 'Neuromancer', 7.5, 0), (3, 'Accelerando', 12.0, 5)")
            .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = db_with_books();
        let mut db = db;
        let r = db
            .exec("SELECT title FROM books WHERE price > 8 ORDER BY price DESC")
            .unwrap();
        match r {
            SqlResult::Rows { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], SqlValue::Text("Accelerando".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_reports_effects() {
        let mut db = db_with_books();
        let (r, effects) = db
            .exec_with_effects("UPDATE books SET stock = 10 WHERE id = 2")
            .unwrap();
        assert_eq!(r, SqlResult::Affected(1));
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            RowEffect::Upsert {
                table,
                pk,
                columns,
                cells,
                changed,
            } => {
                assert_eq!(table, "books");
                assert_eq!(pk, &Some(SqlValue::Int(2)));
                assert_eq!(columns[..], ["id", "title", "price", "stock"]);
                assert_eq!(cells[3], SqlValue::Int(10));
                assert_eq!(*changed, Some(ColumnSet::of(3)));
            }
            other => panic!("{other:?}"),
        }
        // the same write again changes no cell; a new row changes the set
        let (_, effects) = db
            .exec_with_effects("UPDATE books SET stock = 10, title = 'x' WHERE id = 2")
            .unwrap();
        assert!(matches!(
            &effects[..],
            [RowEffect::Upsert { changed: Some(c), .. }] if *c == ColumnSet::of(1)
        ));
        let (_, effects) = db
            .exec_with_effects("UPDATE books SET stock = 10 WHERE id = 2")
            .unwrap();
        assert!(matches!(
            &effects[..],
            [RowEffect::Upsert { changed: Some(c), .. }] if c.is_empty()
        ));
        let (_, effects) = db
            .exec_with_effects("INSERT INTO books VALUES (9, 'y', 1.0, 1)")
            .unwrap();
        assert!(matches!(
            &effects[..],
            [RowEffect::Upsert { changed: None, .. }]
        ));
    }

    #[test]
    fn a_select_reports_its_table_pin_and_columns() {
        let db = db_with_books();
        let read = |sql: &str| db.read_of(&parse_sql(sql).unwrap());
        let cols = |ixs: &[usize]| ixs.iter().fold(ColumnSet::NONE, |s, &i| s.with(i));
        let r = read("SELECT title FROM books WHERE stock > 0 AND id = 2").unwrap();
        assert_eq!((r.table.as_str(), r.key.as_deref()), ("books", Some("2")));
        assert_eq!(r.columns, cols(&[0, 1, 3]));
        let r = read("SELECT id, title FROM books WHERE title LIKE '%a%'").unwrap();
        assert_eq!((r.key, r.columns), (None, cols(&[0, 1])));
        // no pin under OR, none with an unknown column anywhere
        assert_eq!(
            read("SELECT id FROM books WHERE id = 1 OR id = 2")
                .unwrap()
                .key,
            None
        );
        let r = read("SELECT id FROM books WHERE id = 1 AND nope = 2").unwrap();
        assert_eq!((r.key, r.columns), (None, ColumnSet::ALL));
        // `*`, every column by name, and COUNT(*)
        assert_eq!(read("SELECT * FROM books").unwrap().columns, ColumnSet::ALL);
        let every = "SELECT id, title, price FROM books ORDER BY stock";
        assert_eq!(read(every).unwrap().columns, ColumnSet::ALL);
        assert_eq!(
            read("SELECT COUNT(*) FROM books").unwrap().columns,
            ColumnSet::NONE
        );
        assert_eq!(
            read("SELECT MAX(price) FROM books").unwrap().columns,
            cols(&[2])
        );
        // writes and unknown tables read nothing here
        assert_eq!(read("UPDATE books SET stock = 1"), None);
        assert_eq!(read("SELECT * FROM nope"), None);
    }

    #[test]
    fn delete_reports_effects() {
        let mut db = db_with_books();
        let (r, effects) = db
            .exec_with_effects("DELETE FROM books WHERE stock = 0")
            .unwrap();
        assert_eq!(r, SqlResult::Affected(1));
        assert_eq!(
            effects,
            vec![RowEffect::Delete {
                table: "books".into(),
                pk: Some(SqlValue::Int(2))
            }]
        );
    }

    #[test]
    fn transaction_rollback_restores() {
        let mut db = db_with_books();
        db.exec("START TRANSACTION").unwrap();
        db.exec("DELETE FROM books").unwrap();
        assert_eq!(db.table("books").unwrap().len(), 0);
        db.exec("ROLLBACK").unwrap();
        assert_eq!(db.table("books").unwrap().len(), 3);
        assert!(!db.in_transaction());
    }

    #[test]
    fn transaction_commit_keeps() {
        let mut db = db_with_books();
        db.exec("BEGIN").unwrap();
        db.exec("DELETE FROM books WHERE id = 1").unwrap();
        db.exec("COMMIT").unwrap();
        assert_eq!(db.table("books").unwrap().len(), 2);
    }

    #[test]
    fn nested_transactions_rejected() {
        let mut db = db_with_books();
        db.exec("BEGIN").unwrap();
        assert_eq!(db.exec("BEGIN"), Err(SqlError::NestedTransaction));
        assert_eq!(db.exec("ROLLBACK").unwrap(), SqlResult::Ok);
        assert_eq!(db.exec("COMMIT"), Err(SqlError::NoActiveTransaction));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut db = db_with_books();
        let snap = db.snapshot();
        db.exec("UPDATE books SET price = 0").unwrap();
        db.exec("INSERT INTO books VALUES (9, 'X', 1.0, 1)")
            .unwrap();
        db.restore(&snap);
        let r = db.exec("SELECT COUNT(*) FROM books").unwrap();
        match r {
            SqlResult::Rows { rows, .. } => assert_eq!(rows[0][0], SqlValue::Int(3)),
            other => panic!("{other:?}"),
        }
        let r = db.exec("SELECT price FROM books WHERE id = 1").unwrap();
        match r {
            SqlResult::Rows { rows, .. } => assert_eq!(rows[0][0], SqlValue::Real(9.99)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let mut db = db_with_books();
        let r = db
            .exec("SELECT COUNT(*), SUM(stock), AVG(price), MIN(price), MAX(price) FROM books")
            .unwrap();
        match r {
            SqlResult::Rows { rows, columns } => {
                assert_eq!(columns[0], "count");
                assert_eq!(rows[0][0], SqlValue::Int(3));
                assert_eq!(rows[0][1], SqlValue::Real(8.0));
                assert_eq!(rows[0][3], SqlValue::Real(7.5));
                assert_eq!(rows[0][4], SqlValue::Real(12.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut db = db_with_books();
        assert!(matches!(
            db.exec("INSERT INTO books VALUES (1, 'Dup', 1.0, 1)"),
            Err(SqlError::DuplicatePrimaryKey(_))
        ));
    }

    fn like_match(text: &str, pattern: &str) -> bool {
        LikePattern::new(pattern.as_bytes()).matches(text.as_bytes())
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Dune", "Du%"));
        assert!(like_match("Dune", "%ne"));
        assert!(like_match("Dune", "%un%"));
        assert!(like_match("Dune", "Dune"));
        assert!(!like_match("Dune", "Du"));
        assert!(!like_match("Dune", "%x%"));
        assert!(!like_match("Dune", "%nx"));
        assert!(!like_match("Dune", "D%x"));
    }

    #[test]
    fn like_edge_cases() {
        // the head and the tail may not share text
        assert!(!like_match("a", "a%a"));
        assert!(like_match("aa", "a%a"));
        assert!(!like_match("ab", "%ab%b"));
        assert!(like_match("abb", "%ab%b"));
        // nothing but wildcards, and nothing at all
        assert!(like_match("", "%%"));
        assert!(like_match("", "%"));
        assert!(like_match("x", "%%"));
        assert!(like_match("", ""));
        assert!(!like_match("x", ""));
        // a needle longer than the cell
        assert!(!like_match("ab", "%abc%"));
        assert!(!like_match("ab", "abc%"));
        assert!(!like_match("ab", "%abc"));
        // a pattern without `%` is equality
        assert!(like_match("a_c", "a_c"));
        assert!(!like_match("abc", "a_c"));
        assert!(!like_match("Dune", "dune"));
        // pieces are found in order, leftmost first, without overlap
        assert!(like_match("xabyabz", "x%ab%ab%z"));
        assert!(!like_match("xabz", "x%ab%ab%z"));
        assert!(!like_match("aba", "%ab%ba%"));
        assert!(like_match("abba", "%ab%ba%"));
    }

    #[test]
    fn like_never_matches_inside_a_character() {
        // é is C3 A9, © is C2 A9, 𝄞 is F0 9D 84 9E, Ğ is C4 9E
        assert!(!like_match("é", "%©%"));
        assert!(like_match("caf\u{e9}", "%\u{e9}"));
        assert!(like_match("caf\u{e9}s", "%\u{e9}%"));
        assert!(!like_match("\u{1d11e}", "%\u{11e}%"));
        assert!(like_match("a\u{1d11e}b", "a%\u{1d11e}%b"));
        // a byte-wise match always starts and ends on a character
        // boundary: whatever `%` consumed is text
        for (text, pattern) in [("ÃƒÂ©é©", "%©"), ("日本語", "%本%"), ("ǞĞ𝄞", "%Ğ%")]
        {
            assert!(like_match(text, pattern), "{text} LIKE {pattern}");
        }
    }

    #[test]
    fn find_bytes_finds_the_leftmost_occurrence() {
        assert_eq!(find_bytes(b"abcabc", b"bc"), Some(1));
        assert_eq!(find_bytes(b"aab", b"ab"), Some(1));
        assert_eq!(find_bytes(b"abc", b"abc"), Some(0));
        assert_eq!(find_bytes(b"abc", b"abcd"), None);
        assert_eq!(find_bytes(b"abc", b"c"), Some(2));
        assert_eq!(find_bytes(b"abc", b"ca"), None);
        assert_eq!(find_bytes(b"", b"a"), None);
        assert_eq!(find_bytes(b"", b""), Some(0));
    }

    /// What `column.like` answers for rows `at..at + n` among `active`,
    /// checked against `LikePattern::matches` on each row's own text.
    fn check_like(cells: &[Option<Vec<u8>>], pattern: &[u8], at: usize, active: u64) {
        let column = TextColumn::new(0, cells.iter().map(|c| c.as_deref())).unwrap();
        let pattern = LikePattern::new(pattern);
        let n = (cells.len() - at).min(BATCH);
        let active = active & (u64::MAX >> (BATCH - n));
        let want = (0..n)
            .filter(|&i| active >> i & 1 == 1)
            .filter(|&i| cells[at + i].as_deref().is_some_and(|t| pattern.matches(t)))
            .fold(0, |mask, i| mask | 1 << i);
        assert_eq!(column.like(&pattern, at, active), want, "{cells:?} at {at}");
    }

    fn texts(cells: &[&str]) -> Vec<Option<Vec<u8>>> {
        cells.iter().map(|c| Some(c.as_bytes().to_vec())).collect()
    }

    #[test]
    fn a_text_copy_search_finds_pieces_only_inside_one_row() {
        // "ab" + "ba" holds "bb" only across the two rows
        check_like(&texts(&["ab", "ba", "bb"]), b"%bb%", 0, u64::MAX);
        // a piece longer than every row, and one ending on the last byte
        check_like(&texts(&["a", "b", "ab"]), b"%abab%", 0, u64::MAX);
        check_like(&texts(&["xa", "b", "xab"]), b"%ab", 0, u64::MAX);
        // a piece across the edge between two batches: row 63 ends with
        // "a", row 64 starts with "b"
        let mut cells = texts(&["a"; 130]);
        cells[64] = Some(b"ba".to_vec());
        cells[129] = Some(b"xab".to_vec());
        for at in [0, 64, 1, 66, 100] {
            check_like(&cells, b"%ab%", at, u64::MAX);
            check_like(&cells, b"a%", at, 0x5555_5555_5555_5555);
        }
        // no piece at all: `%` matches any text, `''` only the empty one,
        // and neither a cell that is not text
        let cells = vec![Some(Vec::new()), None, Some(b"a".to_vec()), None];
        for pattern in [&b"%"[..], b"%%", b""] {
            check_like(&cells, pattern, 0, u64::MAX);
        }
    }

    /// Bytes that make pieces recur and straddle rows: two letters, `%`
    /// (a wildcard in a pattern, a byte like any other in a text), a zero
    /// byte like the padding, and both bytes of `é`.
    const BYTES: [u8; 6] = [b'a', b'b', b'%', 0, 0xc3, 0xa9];

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0..BYTES.len()).prop_map(|i| BYTES[i]), 0..max + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over any bytes, rows of up to four bytes or none (a cell that
        /// is not text), patterns of up to five bytes and any rows to
        /// test: the search of the copy answers for each row what
        /// `LikePattern::matches` answers on that row's text alone, batch
        /// by batch, and from a batch start that is not a multiple of 64.
        #[test]
        fn a_text_copy_search_equals_matching_each_row(
            cells in prop::collection::vec(prop::option::of(bytes(4)), 1..200),
            pattern in bytes(5),
            active in any::<u64>(),
            at in 0usize..200,
        ) {
            for start in (0..cells.len()).step_by(BATCH) {
                check_like(&cells, &pattern, start, u64::MAX);
                check_like(&cells, &pattern, start, active);
            }
            check_like(&cells, &pattern, at % cells.len(), active);
        }
    }

    #[test]
    fn a_long_scan_keeps_a_text_copy_until_its_column_or_the_row_set_changes() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, s TEXT, n INT)")
            .unwrap();
        for i in 0..100 {
            db.exec(&format!("INSERT INTO t VALUES ({i}, 'r{i}', 0)"))
                .unwrap();
        }
        let copies = |db: &SqlDb| db.table("t").unwrap().texts.len();
        let hits = |db: &mut SqlDb| select_rows(db, "SELECT id FROM t WHERE s LIKE '%9%'").len();
        assert_eq!((hits(&mut db), copies(&db)), (19, 1));
        // another column, a pinned scan, a rolled-back write: kept
        db.exec("UPDATE t SET n = 5 WHERE id = 3").unwrap();
        db.upsert_row(
            "t",
            vec![SqlValue::Int(4), SqlValue::from("r4"), SqlValue::Int(1)],
        )
        .unwrap();
        select_rows(&mut db, "SELECT id FROM t WHERE id = 9 AND s LIKE '%9%'");
        db.exec("BEGIN").unwrap();
        db.exec("DELETE FROM t WHERE id = 9").unwrap();
        assert_eq!(copies(&db), 0);
        db.exec("ROLLBACK").unwrap();
        assert_eq!((hits(&mut db), copies(&db)), (19, 1));
        // its column: dropped
        db.exec("UPDATE t SET s = 'x' WHERE id = 9").unwrap();
        assert_eq!((copies(&db), hits(&mut db)), (0, 18));
        // rows moving: dropped
        db.exec("INSERT INTO t VALUES (200, 'r9', 0)").unwrap();
        assert_eq!((copies(&db), hits(&mut db)), (0, 19));
        assert!(db.delete_row_by_pk("t", &SqlValue::Int(200)).unwrap());
        assert_eq!(
            (copies(&db), hits(&mut db), db.table("t").unwrap().len()),
            (0, 18, 100)
        );
    }

    #[test]
    fn unknown_column_is_an_error_only_for_a_row_that_reaches_it() {
        let mut db = db_with_books();
        let no_such = |r: Result<SqlResult, SqlError>| {
            assert_eq!(
                r,
                Err(SqlError::NoSuchColumn {
                    table: "books".into(),
                    column: "nope".into()
                })
            );
        };
        no_such(db.exec("SELECT id FROM books WHERE nope = 1"));
        no_such(db.exec("SELECT id FROM books WHERE stock >= 0 AND nope = 1"));
        no_such(db.exec("SELECT id FROM books WHERE nope = 1 AND id = 9"));
        no_such(db.exec("SELECT id FROM books WHERE stock > 4 OR nope LIKE 7"));
        // no row gets as far as the unknown column
        for sql in [
            "SELECT id FROM books WHERE stock > 99 AND nope = 1",
            "SELECT id FROM books WHERE stock >= 0 OR nope IS NULL",
            "UPDATE books SET stock = 1 WHERE id = 9 AND nope = 1",
            "DELETE FROM books WHERE title LIKE 5 AND nope = 1",
        ] {
            assert!(db.exec(sql).is_ok(), "{sql}");
        }
        db.exec("DELETE FROM books").unwrap();
        assert!(db.exec("SELECT id FROM books WHERE nope = 1").is_ok());
    }

    #[test]
    fn lent_rows_are_the_owned_result() {
        let mut db = db_with_books();
        let stmt = db
            .prepare("SELECT title, id FROM books WHERE stock > 0 ORDER BY price DESC")
            .unwrap();
        let owned = db.exec_stmt(&stmt).unwrap().0;
        let (Output::Selected(lent), effects) = db.exec_lent(&stmt).unwrap() else {
            panic!("a plain SELECT lends its rows");
        };
        assert!(effects.is_empty());
        assert_eq!(lent.columns, ["title", "id"]);
        assert_eq!(lent.proj, [1, 0]);
        assert_eq!(lent.rows[0][1], SqlValue::Text("Accelerando".into()));
        assert_eq!(Output::Selected(lent).into_result(), owned);
    }

    #[test]
    fn insert_with_column_subset() {
        let mut db = db_with_books();
        db.exec("INSERT INTO books (id, title) VALUES (4, 'Partial')")
            .unwrap();
        let r = db.exec("SELECT price FROM books WHERE id = 4").unwrap();
        match r {
            SqlResult::Rows { rows, .. } => assert_eq!(rows[0][0], SqlValue::Null),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_on_missing_table_and_column() {
        let mut db = SqlDb::new();
        assert!(matches!(
            db.exec("SELECT * FROM nope"),
            Err(SqlError::NoSuchTable(_))
        ));
        let mut db = db_with_books();
        assert!(matches!(
            db.exec("SELECT nope FROM books"),
            Err(SqlError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn limit_and_is_null() {
        let mut db = db_with_books();
        db.exec("INSERT INTO books (id, title) VALUES (5, 'NoPrice')")
            .unwrap();
        let r = db
            .exec("SELECT title FROM books WHERE price IS NULL")
            .unwrap();
        match r {
            SqlResult::Rows { rows, .. } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][0], SqlValue::Text("NoPrice".into()));
            }
            other => panic!("{other:?}"),
        }
        let r = db.exec("SELECT * FROM books LIMIT 2").unwrap();
        match r {
            SqlResult::Rows { rows, .. } => assert_eq!(rows.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    fn select_rows(db: &mut SqlDb, sql: &str) -> Vec<Vec<SqlValue>> {
        match db.exec(sql).unwrap() {
            SqlResult::Rows { rows, .. } => rows,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_is_total_null_first_then_numbers_then_text_then_blobs() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, p REAL)")
            .unwrap();
        db.exec(
            "INSERT INTO t VALUES (1, 'b'), (2, 3), (3, NULL), (4, X'00'), (5, 2.5), \
             (6, 'a'), (7, NULL), (8, 3.0), (9, -1)",
        )
        .unwrap();
        let ids = |db: &mut SqlDb, sql: &str| -> Vec<SqlValue> {
            select_rows(db, sql)
                .into_iter()
                .map(|r| r[0].clone())
                .collect()
        };
        // equal keys (the two NULLs, 3 and 3.0) keep scan order both ways
        let asc = ids(&mut db, "SELECT id FROM t ORDER BY p");
        assert_eq!(asc, [3, 7, 9, 5, 2, 8, 6, 1, 4].map(SqlValue::Int));
        let desc = ids(&mut db, "SELECT id FROM t ORDER BY p DESC");
        assert_eq!(desc, [4, 1, 6, 2, 8, 5, 9, 3, 7].map(SqlValue::Int));
        let top = ids(&mut db, "SELECT id FROM t ORDER BY p DESC LIMIT 4");
        assert_eq!(top, desc[..4]);
        let bottom = ids(&mut db, "SELECT id FROM t ORDER BY p LIMIT 3");
        assert_eq!(bottom, asc[..3]);
        assert!(ids(&mut db, "SELECT id FROM t ORDER BY p LIMIT 0").is_empty());
        assert_eq!(ids(&mut db, "SELECT id FROM t ORDER BY p LIMIT 99"), asc);
    }

    #[test]
    fn limit_caps_an_aggregate_row_not_its_input() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 1..=10 {
            db.exec(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        let count = select_rows(&mut db, "SELECT COUNT(*) FROM t LIMIT 1");
        assert_eq!(count, [[SqlValue::Int(10)]]);
        let sum = select_rows(&mut db, "SELECT SUM(v) FROM t ORDER BY v LIMIT 2");
        assert_eq!(sum, [[SqlValue::Real(55.0)]]);
        let min = select_rows(&mut db, "SELECT MIN(v) FROM t ORDER BY v DESC LIMIT 1");
        assert_eq!(min, [[SqlValue::Int(1)]]);
        match db.exec("SELECT MAX(v) FROM t LIMIT 0").unwrap() {
            SqlResult::Rows { columns, rows } => {
                assert_eq!(columns, ["max(v)"]);
                assert!(rows.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // the ORDER BY column is still resolved
        assert!(matches!(
            db.exec("SELECT COUNT(*) FROM t ORDER BY nope"),
            Err(SqlError::NoSuchColumn { .. })
        ));
    }
}

#[cfg(test)]
mod replace_tests {
    use super::*;

    fn row(id: i64, name: &str) -> Vec<SqlValue> {
        vec![SqlValue::Int(id), SqlValue::from(name)]
    }

    #[test]
    fn replace_table_rows_replaces_every_row() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.exec("INSERT INTO t VALUES (1, 'old')").unwrap();
        db.replace_table_rows(
            "t",
            vec![row(2, "new"), vec![SqlValue::Int(3), SqlValue::Null]],
        )
        .unwrap();
        let r = db.exec("SELECT * FROM t ORDER BY id").unwrap();
        match r {
            SqlResult::Rows { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], SqlValue::Int(2));
                assert_eq!(rows[1][1], SqlValue::Null);
            }
            other => panic!("{other:?}"),
        }
        assert!(db.replace_table_rows("missing", vec![]).is_err());
        // a row of the wrong width changes nothing
        assert_eq!(
            db.replace_table_rows("t", vec![row(4, "x"), vec![SqlValue::Int(5)]]),
            Err(SqlError::ArityMismatch {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(db.table("t").unwrap().len(), 2);
    }

    fn keyed() -> SqlDb {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db
    }

    fn ids(db: &SqlDb) -> Vec<String> {
        let t = db.table("t").unwrap();
        t.rows.iter().map(|r| r[0].pk_string()).collect()
    }

    #[test]
    fn replace_table_rows_sorts_by_key() {
        let mut db = keyed();
        // the order a CRDT hands rows over in: by key *string*
        let rows = [10, 11, 9].iter().map(|&i| row(i, "")).collect();
        db.replace_table_rows("t", rows).unwrap();
        assert_eq!(ids(&db), ["9", "10", "11"]);
    }

    #[test]
    fn row_primitives_write_and_remove_one_row() {
        let mut db = keyed();
        db.exec("INSERT INTO t VALUES (1, 'a'), (3, 'c')").unwrap();
        assert_eq!(db.upsert_row("t", row(2, "b")), Ok(None), "a new row");
        assert_eq!(db.upsert_row("t", row(3, "C")), Ok(Some(ColumnSet::of(1))));
        assert_eq!(db.upsert_row("t", row(3, "C")), Ok(Some(ColumnSet::NONE)));
        assert_eq!(ids(&db), ["1", "2", "3"]);
        assert_eq!(
            db.table("t").unwrap().rows[2][1],
            SqlValue::Text("C".into())
        );
        assert_eq!(db.delete_row_by_pk("t", &SqlValue::Int(1)), Ok(true));
        let absent = SqlValue::Int(7);
        assert_eq!(
            db.delete_row_by_pk("t", &absent),
            Ok(false),
            "absent: no-op"
        );
        // the text '2' is not the integer 2
        let text = SqlValue::from("2");
        assert_eq!(db.delete_row_by_pk("t", &text), Ok(false));
        // the real 3.0 is the integer 3
        assert_eq!(db.delete_row_by_pk("t", &SqlValue::Real(3.0)), Ok(true));
        assert_eq!(ids(&db), ["2"]);
        assert!(db.upsert_row("missing", row(1, "")).is_err());
        assert!(db.upsert_row("t", vec![SqlValue::Int(1)]).is_err());
    }

    #[test]
    fn delete_by_pk_finds_every_kind_of_key() {
        let mut db = keyed();
        // the text 'q' with its quotes beside the text q, the text '5'
        // beside the integer 5: each key removes its own row and no other
        db.exec(
            "INSERT INTO t VALUES ('k', 1), (2.5, 2), (NULL, 3), ('it''s', 4), ('''q''', 5), \
             ('q', 6), ('5', 7), (5, 8), (X'0aff', 9)",
        )
        .unwrap();
        for key in [
            "'k'", "2.5", "NULL", "'it's'", "''q''", "'q'", "'5'", "5", "X'0aff'",
        ] {
            let before = db.table("t").unwrap().len();
            let pk = SqlValue::from_key(key).unwrap();
            assert_eq!(pk.key(), key);
            assert_eq!(db.delete_row_by_pk("t", &pk), Ok(true), "{key}");
            assert_eq!(db.table("t").unwrap().len(), before - 1, "{key}");
        }
    }

    #[test]
    fn row_primitives_need_a_key() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT, name TEXT)").unwrap();
        assert_eq!(
            db.upsert_row("t", row(1, "")),
            Err(SqlError::NoPrimaryKey("t".into()))
        );
        assert_eq!(
            db.delete_row_by_pk("t", &SqlValue::Int(1)),
            Err(SqlError::NoPrimaryKey("t".into()))
        );
    }

    #[test]
    fn rekeying_update_moves_the_row_and_reports_the_old_key() {
        let mut db = keyed();
        db.exec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        let (_, effects) = db
            .exec_with_effects("UPDATE t SET id = 9 WHERE id = 1")
            .unwrap();
        assert_eq!(ids(&db), ["2", "3", "9"]);
        assert!(matches!(
            &effects[..],
            [RowEffect::Delete { pk: Some(old), .. }, RowEffect::Upsert { pk: Some(new), changed: None, .. }]
                if old.key() == "1" && new.key() == "9"
        ));
    }

    #[test]
    fn rejected_multi_row_insert_inserts_nothing() {
        let mut db = keyed();
        db.exec("INSERT INTO t VALUES (2, 'b')").unwrap();
        assert!(db
            .exec("INSERT INTO t VALUES (1, 'a'), (2, 'dup')")
            .is_err());
        assert!(db
            .exec("INSERT INTO t VALUES (5, 'a'), (5, 'dup')")
            .is_err());
        assert_eq!(ids(&db), ["2"]);
    }
}
