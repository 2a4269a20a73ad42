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

use crate::parser::{parse_sql, CmpOp, SelectItem, SqlParseError, Statement, WhereExpr};
use crate::value::{SqlType, SqlValue};
use serde_json::Value as Json;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

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
        let len = self.rows[lo..].partition_point(|r| r[pki].pk_cmp(key) == Ordering::Equal);
        lo..lo + len
    }

    /// The rows a `WHERE` can select: those equal to the literal it pins
    /// the primary key to, or all of them. The caller still evaluates the
    /// whole expression on each, so this only ever skips rows the pin
    /// alone rules out. An expression naming an unknown column keeps the
    /// full scan, which reports it the way it always has.
    fn candidates(&self, e: Option<&WhereExpr>) -> Range<usize> {
        fn pin<'e>(e: &'e WhereExpr, pk: &str) -> Option<&'e SqlValue> {
            match e {
                WhereExpr::Cmp {
                    column,
                    op: CmpOp::Eq,
                    value,
                } if column == pk => Some(value),
                WhereExpr::And(a, b) => pin(a, pk).or_else(|| pin(b, pk)),
                _ => None,
            }
        }
        fn columns_known(e: &WhereExpr, t: &Table) -> bool {
            match e {
                WhereExpr::And(a, b) | WhereExpr::Or(a, b) => {
                    columns_known(a, t) && columns_known(b, t)
                }
                WhereExpr::IsNull { column, .. } | WhereExpr::Cmp { column, .. } => {
                    t.col_index(column).is_some()
                }
            }
        }
        let pinned = e.zip(self.pk_index()).and_then(|(e, pki)| {
            let key = pin(e, &self.columns[pki].name)?;
            columns_known(e, self).then(|| self.pk_range(pki, key))
        });
        pinned.unwrap_or(0..self.rows.len())
    }

    /// A row of this table from a JSON object keyed by column name
    /// (unknown keys ignored, missing columns `NULL`).
    fn row_from_json(&self, row: &Json) -> Vec<SqlValue> {
        let mut values = vec![SqlValue::Null; self.columns.len()];
        if let Json::Object(m) = row {
            for (i, c) in self.columns.iter().enumerate() {
                if let Some(v) = m.get(&c.name) {
                    values[i] = SqlValue::from_json(v);
                }
            }
        }
        values
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

/// A change to one row, reported so the runtime can mirror writes into the
/// corresponding `CRDT-Table` (§III-G.1).
#[derive(Debug, Clone, PartialEq)]
pub enum RowEffect {
    Upsert {
        table: String,
        pk: String,
        row: Json,
    },
    Delete {
        table: String,
        pk: String,
    },
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
    parse_cache: std::collections::HashMap<String, std::rc::Rc<Statement>>,
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
        if let Some(stmt) = self.parse_cache.get(sql) {
            let stmt = std::rc::Rc::clone(stmt);
            return self.exec_stmt(&stmt);
        }
        let stmt = std::rc::Rc::new(parse_sql(sql)?);
        if self.parse_cache.len() >= PARSE_CACHE_CAP {
            self.parse_cache.clear();
        }
        self.parse_cache
            .insert(sql.to_string(), std::rc::Rc::clone(&stmt));
        self.exec_stmt(&stmt)
    }

    /// Execute an already-parsed statement.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] on execution failure.
    pub fn exec_stmt(&mut self, stmt: &Statement) -> Result<(SqlResult, Vec<RowEffect>), SqlError> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if self.tables.contains_key(name) {
                    if *if_not_exists {
                        return Ok((SqlResult::Ok, Vec::new()));
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
                    },
                );
                Ok((SqlResult::Ok, Vec::new()))
            }
            Statement::DropTable { name } => {
                self.tables
                    .remove(name)
                    .ok_or_else(|| SqlError::NoSuchTable(name.clone()))?;
                Ok((SqlResult::Ok, Vec::new()))
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
                    effects.push(RowEffect::Upsert {
                        table: table.clone(),
                        pk: t.row_pk(&full_row, idx),
                        row: t.row_json(&full_row),
                    });
                    t.rows.insert(idx, full_row);
                    t.next_rowid += 1;
                }
                Ok((SqlResult::Affected(rows.len()), effects))
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
                let mut selected: Vec<&Vec<SqlValue>> = Vec::new();
                for row in &t.rows[t.candidates(where_expr.as_ref())] {
                    if Self::matches(t, row, where_expr.as_ref())? {
                        selected.push(row);
                    }
                }
                if let Some((col, desc)) = order_by {
                    let idx = t.col_index(col).ok_or_else(|| SqlError::NoSuchColumn {
                        table: table.clone(),
                        column: col.clone(),
                    })?;
                    selected.sort_by(|a, b| {
                        let ord = a[idx].compare(&b[idx]).unwrap_or(std::cmp::Ordering::Equal);
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
                if let Some(n) = limit {
                    selected.truncate(*n);
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
                        let (label, v) = Self::aggregate(t, &selected, item, table)?;
                        columns.push(label);
                        row.push(v);
                    }
                    return Ok((
                        SqlResult::Rows {
                            columns,
                            rows: vec![row],
                        },
                        Vec::new(),
                    ));
                }
                // projection
                let mut columns = Vec::new();
                let mut proj_idx: Vec<usize> = Vec::new();
                for item in items {
                    match item {
                        SelectItem::Star => {
                            for (i, c) in t.columns.iter().enumerate() {
                                columns.push(c.name.clone());
                                proj_idx.push(i);
                            }
                        }
                        SelectItem::Column(c) => {
                            let idx = t.col_index(c).ok_or_else(|| SqlError::NoSuchColumn {
                                table: table.clone(),
                                column: c.clone(),
                            })?;
                            columns.push(c.clone());
                            proj_idx.push(idx);
                        }
                        _ => unreachable!("aggregates handled above"),
                    }
                }
                let rows = selected
                    .into_iter()
                    .map(|r| proj_idx.iter().map(|&i| r[i].clone()).collect())
                    .collect();
                Ok((SqlResult::Rows { columns, rows }, Vec::new()))
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
                let columns_snapshot = t.columns.clone();
                let pk_index = t.pk_index();
                // the key column, when this statement assigns it
                let rekeyed = pk_index.filter(|pi| set_idx.iter().any(|(idx, _)| idx == pi));
                let range = t.candidates(where_expr.as_ref());
                let first = range.start;
                for (i, row) in t.rows[range].iter_mut().enumerate() {
                    if Self::matches_row(&columns_snapshot, row, where_expr.as_ref(), table)? {
                        let old_pk = rekeyed.map(|pi| row[pi].pk_string());
                        for (idx, v) in &set_idx {
                            row[*idx] = v.clone();
                        }
                        affected += 1;
                        let pk = match pk_index {
                            Some(pi) => row[pi].pk_string(),
                            None => format!("row{}", first + i),
                        };
                        // a re-keyed row leaves its old key: without the
                        // delete the mirror would keep both
                        if let Some(old_pk) = old_pk.filter(|old| *old != pk) {
                            effects.push(RowEffect::Delete {
                                table: table.clone(),
                                pk: old_pk,
                            });
                        }
                        let mut m = serde_json::Map::new();
                        for (c, v) in columns_snapshot.iter().zip(row.iter()) {
                            m.insert(c.name.clone(), v.to_json());
                        }
                        effects.push(RowEffect::Upsert {
                            table: table.clone(),
                            pk,
                            row: Json::Object(m),
                        });
                    }
                }
                if let Some(pi) = rekeyed.filter(|_| affected > 0) {
                    t.rows.sort_by(|a, b| a[pi].pk_cmp(&b[pi]));
                }
                Ok((SqlResult::Affected(affected), effects))
            }
            Statement::Delete { table, where_expr } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                // decide first, remove after: an error while matching must
                // not leave the table half-emptied
                let mut doomed = Vec::new();
                for i in t.candidates(where_expr.as_ref()) {
                    if Self::matches(t, &t.rows[i], where_expr.as_ref())? {
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
                Ok((SqlResult::Affected(doomed.len()), effects))
            }
            Statement::Begin => {
                if self.txn_backup.is_some() {
                    return Err(SqlError::NestedTransaction);
                }
                self.txn_backup = Some(self.tables.clone());
                Ok((SqlResult::Ok, Vec::new()))
            }
            Statement::Commit => {
                self.txn_backup
                    .take()
                    .ok_or(SqlError::NoActiveTransaction)?;
                Ok((SqlResult::Ok, Vec::new()))
            }
            Statement::Rollback => {
                let backup = self
                    .txn_backup
                    .take()
                    .ok_or(SqlError::NoActiveTransaction)?;
                self.tables = backup;
                Ok((SqlResult::Ok, Vec::new()))
            }
        }
    }

    fn aggregate(
        t: &Table,
        rows: &[&Vec<SqlValue>],
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
                    .min_by(|a, b| a.compare(b).unwrap_or(std::cmp::Ordering::Equal));
                (format!("min({c})"), m.cloned().unwrap_or(SqlValue::Null))
            }
            SelectItem::Max(c) => {
                let idx = col_idx(c)?;
                let m = rows
                    .iter()
                    .map(|r| &r[idx])
                    .filter(|v| !matches!(v, SqlValue::Null))
                    .max_by(|a, b| a.compare(b).unwrap_or(std::cmp::Ordering::Equal));
                (format!("max({c})"), m.cloned().unwrap_or(SqlValue::Null))
            }
            _ => unreachable!(),
        })
    }

    fn matches(t: &Table, row: &[SqlValue], e: Option<&WhereExpr>) -> Result<bool, SqlError> {
        Self::matches_row(&t.columns, row, e, &t.name)
    }

    fn matches_row(
        columns: &[ColumnMeta],
        row: &[SqlValue],
        e: Option<&WhereExpr>,
        table: &str,
    ) -> Result<bool, SqlError> {
        let Some(e) = e else { return Ok(true) };
        match e {
            WhereExpr::And(a, b) => Ok(Self::matches_row(columns, row, Some(a), table)?
                && Self::matches_row(columns, row, Some(b), table)?),
            WhereExpr::Or(a, b) => Ok(Self::matches_row(columns, row, Some(a), table)?
                || Self::matches_row(columns, row, Some(b), table)?),
            WhereExpr::IsNull { column, negated } => {
                let idx = columns
                    .iter()
                    .position(|c| &c.name == column)
                    .ok_or_else(|| SqlError::NoSuchColumn {
                        table: table.to_string(),
                        column: column.clone(),
                    })?;
                let is_null = matches!(row[idx], SqlValue::Null);
                Ok(is_null != *negated)
            }
            WhereExpr::Cmp { column, op, value } => {
                let idx = columns
                    .iter()
                    .position(|c| &c.name == column)
                    .ok_or_else(|| SqlError::NoSuchColumn {
                        table: table.to_string(),
                        column: column.clone(),
                    })?;
                let cell = &row[idx];
                if matches!(op, CmpOp::Like) {
                    let (SqlValue::Text(s), SqlValue::Text(pat)) = (cell, value) else {
                        return Ok(false);
                    };
                    return Ok(like_match(s, pat));
                }
                let Some(ord) = cell.compare(value) else {
                    return Ok(false); // NULL comparisons are false
                };
                Ok(match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::NotEq => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    CmpOp::Like => unreachable!(),
                })
            }
        }
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

    /// Replace the full contents of `name` with rows given as JSON objects
    /// keyed by column name (unknown keys ignored, missing columns become
    /// NULL). Used to materialize a replicated `CRDT-Table` back into the
    /// local database after applying remote changes.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::NoSuchTable`] when the table does not exist.
    pub fn replace_table_rows(&mut self, name: &str, rows: &[Json]) -> Result<(), SqlError> {
        let t = self
            .tables
            .get_mut(name)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))?;
        t.rows = rows.iter().map(|row| t.row_from_json(row)).collect();
        if let Some(pki) = t.pk_index() {
            t.rows.sort_by(|a, b| a[pki].pk_cmp(&b[pki]));
        }
        Ok(())
    }

    /// Write one row, given as a JSON object keyed by column name, over the
    /// row with the same primary key, or insert it at its place — the
    /// row-sized counterpart of [`SqlDb::replace_table_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::NoSuchTable`] when the table does not exist and
    /// [`SqlError::NoPrimaryKey`] when it has no key to find the row by.
    pub fn upsert_row_json(&mut self, name: &str, row: &Json) -> Result<(), SqlError> {
        let (t, pki) = self.keyed_table_mut(name)?;
        let values = t.row_from_json(row);
        let at = t.pk_range(pki, &values[pki]);
        if at.is_empty() {
            t.rows.insert(at.start, values);
        } else {
            t.rows[at.start] = values;
        }
        Ok(())
    }

    /// Remove the row whose primary key has the canonical string `pk`
    /// ([`SqlValue::pk_string`]); no-op when there is none.
    ///
    /// # Errors
    ///
    /// As for [`SqlDb::upsert_row_json`].
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

/// SQL `LIKE` with `%` wildcards (prefix/suffix/both/infix).
fn like_match(s: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    match parts.as_slice() {
        [exact] => s == *exact,
        [prefix, suffix] => {
            s.len() >= prefix.len() + suffix.len() && s.starts_with(prefix) && s.ends_with(suffix)
        }
        _ => {
            // general case: all parts must appear in order
            let mut rest = s;
            for (i, part) in parts.iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                if i == 0 {
                    if !rest.starts_with(part) {
                        return false;
                    }
                    rest = &rest[part.len()..];
                } else if i == parts.len() - 1 {
                    if !rest.ends_with(part) {
                        return false;
                    }
                } else {
                    match rest.find(part) {
                        Some(pos) => rest = &rest[pos + part.len()..],
                        None => return false,
                    }
                }
            }
            true
        }
    }
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
            RowEffect::Upsert { table, pk, row } => {
                assert_eq!(table, "books");
                assert_eq!(pk, "2");
                assert_eq!(row["stock"], serde_json::json!(10));
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
    use serde_json::json;

    #[test]
    fn replace_table_rows_materializes_json() {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.exec("INSERT INTO t VALUES (1, 'old')").unwrap();
        db.replace_table_rows("t", &[json!({"id": 2, "name": "new"}), json!({"id": 3})])
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
        assert!(db.replace_table_rows("missing", &[]).is_err());
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
        let rows: Vec<Json> = [10, 11, 9].iter().map(|i| json!({"id": i})).collect();
        db.replace_table_rows("t", &rows).unwrap();
        assert_eq!(ids(&db), ["9", "10", "11"]);
    }

    #[test]
    fn row_primitives_write_and_remove_one_row() {
        let mut db = keyed();
        db.exec("INSERT INTO t VALUES (1, 'a'), (3, 'c')").unwrap();
        db.upsert_row_json("t", &json!({"id": 2, "name": "b"}))
            .unwrap();
        db.upsert_row_json("t", &json!({"id": 3, "name": "C"}))
            .unwrap();
        assert_eq!(ids(&db), ["1", "2", "3"]);
        assert_eq!(
            db.table("t").unwrap().rows[2][1],
            SqlValue::Text("C".into())
        );
        db.delete_row_by_pk("t", "1").unwrap();
        db.delete_row_by_pk("t", "7").unwrap(); // absent: no-op
        db.delete_row_by_pk("t", "02").unwrap(); // not the canonical form of 2
        assert_eq!(ids(&db), ["2", "3"]);
        assert!(db.upsert_row_json("missing", &json!({})).is_err());
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
            db.upsert_row_json("t", &json!({"id": 1})),
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
