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
//! split, the primary-key pin is found — so the per-row test (`Pred::test`)
//! looks nothing up and allocates nothing. `SELECT`, `UPDATE` and `DELETE`
//! all scan through it.

use crate::parser::{parse_sql, CmpOp, SelectItem, SqlParseError, Statement, WhereExpr};
use crate::value::{SqlType, SqlValue};
use serde_json::Value as Json;
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
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    pub columns: Vec<ColumnMeta>,
    /// The rows: ascending by [`SqlValue::pk_cmp`] of the primary-key
    /// column when the table has one, in insertion order otherwise.
    pub rows: Vec<Vec<SqlValue>>,
    next_rowid: i64,
    /// The columns' names, in order, shared by every [`RowEffect`] the
    /// table reports.
    names: Arc<[String]>,
}

/// Column metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    pub name: String,
    pub ty: SqlType,
    pub primary_key: bool,
}

impl Table {
    fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    fn pk_index(&self) -> Option<usize> {
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
        let all = 0..self.rows.len();
        let Some(e) = e else {
            return Scan {
                pred: Pred::Const(true),
                range: all,
            };
        };
        let mut binder = Binder {
            t: self,
            table,
            pk: self.pk_index(),
            pin: None,
            unknown: false,
        };
        let pred = binder.node(e, true);
        let range = match (binder.pk, binder.pin) {
            (Some(pki), Some(key)) if !binder.unknown => self.pk_range(pki, key),
            _ => all,
        };
        Scan { pred, range }
    }

    /// The columns' names, in order.
    pub fn column_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// The effect of writing `row`, the row at index `at`.
    fn upsert(&self, row: &[SqlValue], at: usize) -> RowEffect {
        RowEffect::Upsert {
            table: self.name.clone(),
            pk: self.row_pk(row, at),
            columns: Arc::clone(&self.names),
            cells: row.to_vec(),
        }
    }

    /// Primary key of a row as a string (for a table without one, the
    /// row's position — such a table keeps insertion order).
    fn row_pk(&self, row: &[SqlValue], fallback: usize) -> String {
        match self.pk_index() {
            Some(i) => row[i].pk_string(),
            None => format!("row{fallback}"),
        }
    }

    /// Row as a JSON object keyed by column name.
    pub fn row_json(&self, row: &[SqlValue]) -> Json {
        let mut m = serde_json::Map::new();
        for (c, v) in self.columns.iter().zip(row.iter()) {
            m.insert(c.name.clone(), v.to_json());
        }
        Json::Object(m)
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

impl SqlResult {
    /// `SELECT` rows converted to JSON objects.
    pub fn rows_json(&self) -> Vec<Json> {
        match self {
            SqlResult::Rows { columns, rows } => rows
                .iter()
                .map(|r| {
                    let mut m = serde_json::Map::new();
                    for (c, v) in columns.iter().zip(r.iter()) {
                        m.insert(c.clone(), v.to_json());
                    }
                    Json::Object(m)
                })
                .collect(),
            _ => Vec::new(),
        }
    }
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
/// corresponding `CRDT-Table` (§III-G.1). A row is keyed by its primary
/// key's [`SqlValue::pk_string`].
#[derive(Debug, Clone)]
pub enum RowEffect {
    /// The row as written: its cells in column order, beside the table's
    /// column names.
    Upsert {
        table: String,
        pk: String,
        columns: Arc<[String]>,
        cells: Vec<SqlValue>,
    },
    Delete {
        table: String,
        pk: String,
    },
}

/// Two effects are equal when they mirror the same: a cell compares as the
/// JSON scalar it is kept as, so a NaN cell equals the `null` it mirrors.
impl PartialEq for RowEffect {
    fn eq(&self, other: &RowEffect) -> bool {
        match (self, other) {
            (
                RowEffect::Upsert {
                    table,
                    pk,
                    columns,
                    cells,
                },
                RowEffect::Upsert {
                    table: table2,
                    pk: pk2,
                    columns: columns2,
                    cells: cells2,
                },
            ) => {
                (table, pk, columns) == (table2, pk2, columns2)
                    && cells.len() == cells2.len()
                    && cells
                        .iter()
                        .zip(cells2)
                        .all(|(a, b)| a.to_json() == b.to_json())
            }
            (
                RowEffect::Delete { table, pk },
                RowEffect::Delete {
                    table: table2,
                    pk: pk2,
                },
            ) => (table, pk) == (table2, pk2),
            _ => false,
        }
    }
}

/// A full-database snapshot (the paper's `save "init"` checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    tables: BTreeMap<String, Table>,
}

impl Snapshot {
    /// Tables and their contents as JSON: `table → pk → row`.
    pub fn to_json(&self) -> Json {
        let mut out = serde_json::Map::new();
        for (name, t) in &self.tables {
            let mut rows = serde_json::Map::new();
            for (i, r) in t.rows.iter().enumerate() {
                rows.insert(t.row_pk(r, i), t.row_json(r));
            }
            out.insert(name.clone(), Json::Object(rows));
        }
        Json::Object(out)
    }

    /// Total bytes of data held in the snapshot.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(Table::byte_size).sum()
    }

    /// Names of the tables captured.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
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
                        None => t.rows.len(),
                    };
                    effects.push(t.upsert(&full_row, idx));
                    t.rows.insert(idx, full_row);
                    t.next_rowid += 1;
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
                    .get(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                let scan = t.bind(table, where_expr.as_ref());
                let mut rows: Vec<&[SqlValue]> = Vec::new();
                for row in &t.rows[scan.range] {
                    if scan.pred.test(row)? {
                        rows.push(row);
                    }
                }
                if let Some((col, desc)) = order_by {
                    let idx = t.col_index(col).ok_or_else(|| SqlError::NoSuchColumn {
                        table: table.clone(),
                        column: col.clone(),
                    })?;
                    rows.sort_by(|a, b| {
                        let ord = a[idx].compare(&b[idx]).unwrap_or(Ordering::Equal);
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
                if let Some(n) = limit {
                    rows.truncate(*n);
                }
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
                if has_agg {
                    let mut columns = Vec::new();
                    let mut row = Vec::new();
                    for item in items {
                        let (label, v) = Self::aggregate(t, &rows, item, table)?;
                        columns.push(label);
                        row.push(v);
                    }
                    let result = SqlResult::Rows {
                        columns,
                        rows: vec![row],
                    };
                    return done(result, Vec::new());
                }
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
                for i in scan.range {
                    if !scan.pred.test(&t.rows[i])? {
                        continue;
                    }
                    let row = &mut t.rows[i];
                    let old_pk = rekeyed.map(|pi| row[pi].pk_string());
                    for (idx, v) in &set_idx {
                        row[*idx] = v.clone();
                    }
                    affected += 1;
                    let upsert = t.upsert(&t.rows[i], i);
                    // a re-keyed row leaves its old key: without the
                    // delete the mirror would keep both
                    if let RowEffect::Upsert { pk, .. } = &upsert {
                        if let Some(old_pk) = old_pk.filter(|old| old != pk) {
                            effects.push(RowEffect::Delete {
                                table: table.clone(),
                                pk: old_pk,
                            });
                        }
                    }
                    effects.push(upsert);
                }
                if let Some(pi) = rekeyed.filter(|_| affected > 0) {
                    t.rows.sort_by(|a, b| a[pi].pk_cmp(&b[pi]));
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
                let mut doomed = Vec::new();
                for i in scan.range {
                    if scan.pred.test(&t.rows[i])? {
                        doomed.push(i);
                    }
                }
                let effects = doomed
                    .iter()
                    .map(|&i| RowEffect::Delete {
                        table: table.clone(),
                        pk: t.row_pk(&t.rows[i], i),
                    })
                    .collect();
                let mut at = 0;
                let mut next = doomed.iter().peekable();
                t.rows.retain(|_| {
                    let hit = next.next_if_eq(&&at).is_some();
                    at += 1;
                    !hit
                });
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

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
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
        Ok(())
    }

    /// Write one row, its cells in column order, over the row with the
    /// same primary key, or insert it at its place — the row-sized
    /// counterpart of [`SqlDb::replace_table_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::NoSuchTable`] when the table does not exist,
    /// [`SqlError::NoPrimaryKey`] when it has no key to find the row by and
    /// [`SqlError::ArityMismatch`] for a row of the wrong width.
    pub fn upsert_row(&mut self, name: &str, row: Vec<SqlValue>) -> Result<(), SqlError> {
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
        } else {
            t.rows[at.start] = row;
        }
        Ok(())
    }

    /// Remove the row whose primary key has the canonical string `pk`
    /// ([`SqlValue::pk_string`]); no-op when there is none.
    ///
    /// # Errors
    ///
    /// As for [`SqlDb::upsert_row`].
    pub fn delete_row_by_pk(&mut self, name: &str, pk: &str) -> Result<(), SqlError> {
        let (t, pki) = self.keyed_table_mut(name)?;
        let before = t.rows.len();
        for key in SqlValue::pk_candidates(pk) {
            let at = t.pk_range(pki, &key);
            if t.rows[at.clone()].iter().all(|r| r[pki].pk_string() == pk) {
                t.rows.drain(at);
            }
        }
        if t.rows.len() == before {
            // `pk_candidates` cannot list every preimage; a key it missed
            // is still found the slow way
            t.rows.retain(|r| r[pki].pk_string() != pk);
        }
        Ok(())
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

impl Pred<'_> {
    fn test(&self, row: &[SqlValue]) -> Result<bool, SqlError> {
        Ok(match self {
            Pred::And(a, b) => a.test(row)? && b.test(row)?,
            Pred::Or(a, b) => a.test(row)? || b.test(row)?,
            Pred::IsNull { col, negated } => matches!(row[*col], SqlValue::Null) != *negated,
            Pred::Cmp { col, op, value } => match row[*col].compare(value) {
                None => false, // NULL comparisons are false
                Some(ord) => match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::NotEq => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Like => unreachable!("bound as Pred::Like"),
                },
            },
            Pred::Like { col, pattern } => match &row[*col] {
                SqlValue::Text(s) => pattern.matches(s),
                _ => false,
            },
            Pred::Const(b) => *b,
            Pred::NoSuchColumn { table, column } => {
                return Err(SqlError::NoSuchColumn {
                    table: table.to_string(),
                    column: column.to_string(),
                })
            }
        })
    }
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
                    (CmpOp::Like, SqlValue::Text(pattern)) => Pred::Like {
                        col,
                        pattern: LikePattern::new(pattern),
                    },
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
    fn new(pattern: &'s str) -> Self {
        let mut parts = pattern.split('%').map(str::as_bytes);
        let head = parts.next().unwrap_or_default();
        let tail = parts.next_back();
        LikePattern {
            head,
            inner: parts.filter(|p| !p.is_empty()).collect(),
            tail,
        }
    }

    fn matches(&self, text: &str) -> bool {
        let text = text.as_bytes();
        let Some(tail) = self.tail else {
            return text == self.head;
        };
        let Some(mut rest) = text.strip_prefix(self.head) else {
            return false;
        };
        for part in &self.inner {
            match find_bytes(rest, part) {
                Some(at) => rest = &rest[at + part.len()..],
                None => return false,
            }
        }
        rest.ends_with(tail)
    }
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
        if hay[at + 1..].starts_with(after) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

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
            } => {
                assert_eq!(table, "books");
                assert_eq!(pk, "2");
                assert_eq!(columns[..], ["id", "title", "price", "stock"]);
                assert_eq!(cells[3], SqlValue::Int(10));
            }
            other => panic!("{other:?}"),
        }
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
                pk: "2".into()
            }]
        );
    }

    #[test]
    fn transaction_rollback_restores() {
        let mut db = db_with_books();
        db.exec("START TRANSACTION").unwrap();
        db.exec("DELETE FROM books").unwrap();
        assert_eq!(db.table("books").unwrap().rows.len(), 0);
        db.exec("ROLLBACK").unwrap();
        assert_eq!(db.table("books").unwrap().rows.len(), 3);
        assert!(!db.in_transaction());
    }

    #[test]
    fn transaction_commit_keeps() {
        let mut db = db_with_books();
        db.exec("BEGIN").unwrap();
        db.exec("DELETE FROM books WHERE id = 1").unwrap();
        db.exec("COMMIT").unwrap();
        assert_eq!(db.table("books").unwrap().rows.len(), 2);
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
        LikePattern::new(pattern).matches(text)
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Dune", "Du%"));
        assert!(like_match("Dune", "%ne"));
        assert!(like_match("Dune", "%un%"));
        assert!(like_match("Dune", "Dune"));
        assert!(!like_match("Dune", "Du"));
        assert!(!like_match("Dune", "%x%"));
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

    #[test]
    fn snapshot_json_shape() {
        let db = db_with_books();
        let j = db.snapshot().to_json();
        assert_eq!(j["books"]["1"]["title"], serde_json::json!("Dune"));
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
        assert_eq!(db.table("t").unwrap().rows.len(), 2);
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
        db.upsert_row("t", row(2, "b")).unwrap();
        db.upsert_row("t", row(3, "C")).unwrap();
        assert_eq!(ids(&db), ["1", "2", "3"]);
        assert_eq!(
            db.table("t").unwrap().rows[2][1],
            SqlValue::Text("C".into())
        );
        db.delete_row_by_pk("t", "1").unwrap();
        db.delete_row_by_pk("t", "7").unwrap(); // absent: no-op
        db.delete_row_by_pk("t", "02").unwrap(); // not the canonical form of 2
        assert_eq!(ids(&db), ["2", "3"]);
        assert!(db.upsert_row("missing", row(1, "")).is_err());
        assert!(db.upsert_row("t", vec![SqlValue::Int(1)]).is_err());
    }

    #[test]
    fn delete_by_pk_finds_every_kind_of_key() {
        let mut db = keyed();
        // the last key is the text 'q' with its quotes; its canonical
        // string q has lost them — the one lookup that has to scan
        db.exec("INSERT INTO t VALUES ('k', 1), (2.5, 2), (NULL, 3), ('it''s', 4), ('''q''', 5)")
            .unwrap();
        for pk in ["k", "2.5", "NULL", "it's", "q"] {
            let before = db.table("t").unwrap().rows.len();
            db.delete_row_by_pk("t", pk).unwrap();
            assert_eq!(db.table("t").unwrap().rows.len(), before - 1, "{pk}");
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
            db.delete_row_by_pk("t", "1"),
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
            [RowEffect::Delete { pk: old, .. }, RowEffect::Upsert { pk: new, .. }]
                if old == "1" && new == "9"
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
