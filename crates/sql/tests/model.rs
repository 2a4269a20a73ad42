//! Model-based property tests: the SQL engine agrees with a naive
//! in-memory model over random insert/update/delete/select sequences,
//! snapshot/rollback restore exact state, a keyed table stays in
//! primary-key order through every statement, a `WHERE` that pins the
//! key selects exactly what a full scan selects, the engine's bound
//! `WHERE` evaluator agrees with the by-name reference kept here,
//! `ORDER BY … LIMIT` agrees with a stable sort of every match, truncated,
//! what a write reports it changed is the cell diff of the table before
//! and after it, and long scans interleaved with writes of every kind
//! select what the reference selects.

use edgstr_sql::columns::ColumnSet;
use edgstr_sql::{
    CmpOp, SelectItem, SqlDb, SqlError, SqlResult, SqlValue, Statement, Table, WhereExpr,
};
use proptest::prelude::*;
use serde_json::{json, Value as Json};
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, v: i64 },
    Update { id: i64, v: i64 },
    Delete { id: i64 },
    SelectGe { v: i64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..40, -100i64..100).prop_map(|(id, v)| Op::Insert { id, v }),
        (0i64..40, -100i64..100).prop_map(|(id, v)| Op::Update { id, v }),
        (0i64..40).prop_map(|id| Op::Delete { id }),
        (-100i64..100).prop_map(|v| Op::SelectGe { v }),
    ]
}

fn fresh() -> SqlDb {
    let mut db = SqlDb::new();
    db.exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine matches a BTreeMap model on every read.
    #[test]
    fn engine_matches_model(ops in prop::collection::vec(op(), 1..60)) {
        let mut db = fresh();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for o in &ops {
            match o {
                Op::Insert { id, v } => {
                    let r = db.exec(&format!("INSERT INTO t VALUES ({id}, {v})"));
                    if model.contains_key(id) {
                        prop_assert!(r.is_err(), "duplicate pk must be rejected");
                    } else {
                        prop_assert!(r.is_ok());
                        model.insert(*id, *v);
                    }
                }
                Op::Update { id, v } => {
                    let r = db
                        .exec(&format!("UPDATE t SET v = {v} WHERE id = {id}"))
                        .unwrap();
                    let expected = usize::from(model.contains_key(id));
                    prop_assert_eq!(r, SqlResult::Affected(expected));
                    if let Some(slot) = model.get_mut(id) {
                        *slot = *v;
                    }
                }
                Op::Delete { id } => {
                    let r = db
                        .exec(&format!("DELETE FROM t WHERE id = {id}"))
                        .unwrap();
                    let expected = usize::from(model.remove(id).is_some());
                    prop_assert_eq!(r, SqlResult::Affected(expected));
                }
                Op::SelectGe { v } => {
                    let r = db
                        .exec(&format!("SELECT id FROM t WHERE v >= {v} ORDER BY id"))
                        .unwrap();
                    let got: Vec<i64> = match r {
                        SqlResult::Rows { rows, .. } => rows
                            .into_iter()
                            .map(|r| match &r[0] {
                                SqlValue::Int(i) => *i,
                                other => panic!("unexpected {other:?}"),
                            })
                            .collect(),
                        other => panic!("unexpected {other:?}"),
                    };
                    let want: Vec<i64> = model
                        .iter()
                        .filter(|(_, mv)| **mv >= *v)
                        .map(|(id, _)| *id)
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // final full-content check
        let r = db.exec("SELECT id, v FROM t ORDER BY id").unwrap();
        if let SqlResult::Rows { rows, .. } = r {
            prop_assert_eq!(rows.len(), model.len());
        }
    }

    /// `BEGIN … ROLLBACK` restores the exact pre-transaction contents, no
    /// matter what ran inside.
    #[test]
    fn rollback_is_exact(setup in prop::collection::vec(op(), 0..20),
                         inside in prop::collection::vec(op(), 1..20)) {
        let mut db = fresh();
        for o in &setup {
            apply_lossy(&mut db, o);
        }
        let before = db.snapshot();
        db.exec("BEGIN").unwrap();
        for o in &inside {
            apply_lossy(&mut db, o);
        }
        db.exec("ROLLBACK").unwrap();
        prop_assert_eq!(format!("{:?}", db.snapshot()), format!("{:?}", before));
    }

    /// `snapshot`/`restore` is an exact checkpoint (the paper's
    /// save/restore "init").
    #[test]
    fn snapshot_restore_is_exact(setup in prop::collection::vec(op(), 0..20),
                                 after in prop::collection::vec(op(), 1..20)) {
        let mut db = fresh();
        for o in &setup {
            apply_lossy(&mut db, o);
        }
        let checkpoint = db.snapshot();
        for o in &after {
            apply_lossy(&mut db, o);
        }
        db.restore(&checkpoint);
        prop_assert_eq!(format!("{:?}", db.snapshot()), format!("{:?}", checkpoint));
    }
}

/// Apply an op, ignoring expected errors (duplicate keys).
fn apply_lossy(db: &mut SqlDb, o: &Op) {
    let sql = match o {
        Op::Insert { id, v } => format!("INSERT INTO t VALUES ({id}, {v})"),
        Op::Update { id, v } => format!("UPDATE t SET v = {v} WHERE id = {id}"),
        Op::Delete { id } => format!("DELETE FROM t WHERE id = {id}"),
        Op::SelectGe { v } => format!("SELECT id FROM t WHERE v >= {v}"),
    };
    let _ = db.exec(&sql);
}

// ---- primary-key order and the pinned-key fast path ----------------------

/// A key of any kind the engine stores; the declared column type does not
/// coerce, so an `INT PRIMARY KEY` column can hold all of them.
#[derive(Debug, Clone)]
enum Key {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
}

impl Key {
    fn sql(&self) -> String {
        match self {
            Key::Null => "NULL".to_string(),
            Key::Int(i) => i.to_string(),
            Key::Real(r) => format!("{r:?}"),
            Key::Text(t) => format!("'{t}'"),
        }
    }

    fn value(&self) -> SqlValue {
        match self {
            Key::Null => SqlValue::Null,
            Key::Int(i) => SqlValue::Int(*i),
            Key::Real(r) => SqlValue::Real(*r),
            Key::Text(t) => SqlValue::Text(t.clone()),
        }
    }
}

/// Few enough values that statements collide: `5`, `5.0` and `'5'` all
/// occur, as do `NULL` and halves between the integers.
fn key() -> impl Strategy<Value = Key> {
    prop_oneof![
        Just(Key::Null),
        (3i64..8).prop_map(Key::Int),
        (6i64..16).prop_map(|halves| Key::Real(halves as f64 / 2.0)),
        (3u8..7).prop_map(|d| Key::Text(d.to_string())),
        (0u8..3).prop_map(|c| Key::Text(char::from(b'a' + c).to_string())),
    ]
}

#[derive(Debug, Clone)]
enum KeyedOp {
    Insert { id: Key, v: i64 },
    SetV { id: Key, v: i64 },
    SetVAbove { id: Key, v: i64, floor: i64 },
    Rekey { from: Key, to: Key },
    Delete { id: Key },
    DeleteAbove { floor: i64 },
    Select { id: Key },
    SelectAbove { id: Key, floor: i64 },
    Replace { rows: Vec<(Key, i64)> },
    Begin,
    Rollback,
}

fn keyed_op() -> impl Strategy<Value = KeyedOp> {
    let v = || -20i64..20;
    prop_oneof![
        (key(), v()).prop_map(|(id, v)| KeyedOp::Insert { id, v }),
        (key(), v()).prop_map(|(id, v)| KeyedOp::Insert { id, v }),
        (key(), v()).prop_map(|(id, v)| KeyedOp::SetV { id, v }),
        (key(), v(), v()).prop_map(|(id, v, floor)| KeyedOp::SetVAbove { id, v, floor }),
        (key(), key()).prop_map(|(from, to)| KeyedOp::Rekey { from, to }),
        key().prop_map(|id| KeyedOp::Delete { id }),
        v().prop_map(|floor| KeyedOp::DeleteAbove { floor }),
        key().prop_map(|id| KeyedOp::Select { id }),
        (key(), v()).prop_map(|(id, floor)| KeyedOp::SelectAbove { id, floor }),
        prop::collection::vec((key(), v()), 0..6).prop_map(|rows| KeyedOp::Replace { rows }),
        Just(KeyedOp::Begin),
        Just(KeyedOp::Rollback),
    ]
}

/// `op` as the statement that pins the key (`pinned`) or as an equivalent
/// one the engine cannot narrow: an `OR` of the pin with itself.
fn keyed_sql(op: &KeyedOp, pinned: bool) -> Option<String> {
    let on = |id: &Key| {
        let k = id.sql();
        if pinned {
            format!("id = {k}")
        } else {
            format!("(id = {k} OR id = {k})")
        }
    };
    Some(match op {
        KeyedOp::Insert { id, v } => format!("INSERT INTO t VALUES ({}, {v})", id.sql()),
        KeyedOp::SetV { id, v } => format!("UPDATE t SET v = {v} WHERE {}", on(id)),
        KeyedOp::SetVAbove { id, v, floor } => {
            format!("UPDATE t SET v = {v} WHERE v >= {floor} AND {}", on(id))
        }
        KeyedOp::Rekey { from, to } => {
            format!("UPDATE t SET id = {} WHERE {}", to.sql(), on(from))
        }
        KeyedOp::Delete { id } => format!("DELETE FROM t WHERE {}", on(id)),
        KeyedOp::DeleteAbove { floor } => format!("DELETE FROM t WHERE v >= {floor}"),
        KeyedOp::Select { id } => format!("SELECT id, v FROM t WHERE {}", on(id)),
        KeyedOp::SelectAbove { id, floor } => {
            format!("SELECT v FROM t WHERE {} AND v >= {floor}", on(id))
        }
        KeyedOp::Begin => "BEGIN".to_string(),
        KeyedOp::Rollback => "ROLLBACK".to_string(),
        KeyedOp::Replace { .. } => return None,
    })
}

fn keyed_db() -> SqlDb {
    let mut db = SqlDb::new();
    db.exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    db
}

fn in_key_order(db: &SqlDb) -> bool {
    let rows = &db.table("t").unwrap().rows;
    rows.windows(2)
        .all(|w| w[0][0].pk_cmp(&w[1][0]) != Ordering::Greater)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Two copies of one table take the same statements, one with the key
    /// pinned and one forced to scan. After every statement they returned
    /// the same result and the same row effects, hold the same rows in the
    /// same order, and that order is the key order.
    #[test]
    fn pinned_key_equals_scan_and_rows_stay_in_key_order(
        ops in prop::collection::vec(keyed_op(), 1..50),
    ) {
        let mut fast = keyed_db();
        let mut scan = keyed_db();
        for op in &ops {
            match op {
                KeyedOp::Replace { rows } => {
                    let rows: Vec<Vec<SqlValue>> = rows
                        .iter()
                        .map(|(id, v)| vec![id.value(), SqlValue::Int(*v)])
                        .collect();
                    fast.replace_table_rows("t", rows.clone()).unwrap();
                    scan.replace_table_rows("t", rows).unwrap();
                }
                _ => {
                    let pinned = fast.exec_with_effects(&keyed_sql(op, true).unwrap());
                    let scanned = scan.exec_with_effects(&keyed_sql(op, false).unwrap());
                    prop_assert_eq!(pinned, scanned, "{:?}", op);
                }
            }
            prop_assert_eq!(&fast.table("t").unwrap().rows, &scan.table("t").unwrap().rows);
            prop_assert!(in_key_order(&fast), "out of key order after {:?}", op);
        }
    }

    /// A table without a primary key has no order to keep but the one rows
    /// arrived in.
    #[test]
    fn unkeyed_table_keeps_insertion_order(ops in prop::collection::vec(op(), 1..60)) {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (id INT, v INT)").unwrap();
        let mut model: Vec<(i64, i64)> = Vec::new();
        for o in &ops {
            apply_lossy(&mut db, o);
            match o {
                Op::Insert { id, v } => model.push((*id, *v)),
                Op::Update { id, v } => {
                    for row in model.iter_mut().filter(|(i, _)| i == id) {
                        row.1 = *v;
                    }
                }
                Op::Delete { id } => model.retain(|(i, _)| i != id),
                Op::SelectGe { .. } => {}
            }
            let want: Vec<Vec<SqlValue>> = model
                .iter()
                .map(|(i, v)| vec![SqlValue::Int(*i), SqlValue::Int(*v)])
                .collect();
            prop_assert_eq!(&db.table("t").unwrap().rows, &want);
        }
    }
}

/// The literal kinds one by one: numbers match across `INT`/`REAL`, a
/// literal of another kind matches only a key of that kind, and `NULL`
/// equals nothing — not even the row whose key is `NULL`.
#[test]
fn pinned_literal_kinds() {
    let mut db = keyed_db();
    db.exec("INSERT INTO t VALUES (7, 1), (5, 2), ('5', 3), (NULL, 4), (6.5, 5), (10, 6), (9, 7)")
        .unwrap();
    let ids: Vec<String> = db
        .table("t")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    assert_eq!(
        ids,
        ["NULL", "5", "6.5", "7", "9", "10", "'5'"],
        "9 sorts before 10"
    );
    let mut v_where = |cond: &str| -> Vec<Json> {
        match db.exec(&format!("SELECT v FROM t WHERE {cond}")).unwrap() {
            SqlResult::Rows { rows, .. } => {
                rows.iter().map(|r| json!({"v": r[0].to_json()})).collect()
            }
            other => panic!("{other:?}"),
        }
    };
    assert_eq!(v_where("id = 5"), [json!({"v": 2})]);
    assert_eq!(v_where("id = 5.0"), [json!({"v": 2})]);
    assert_eq!(v_where("id = '5'"), [json!({"v": 3})]);
    assert_eq!(v_where("id = 6.5"), [json!({"v": 5})]);
    assert_eq!(v_where("id = 6"), Vec::<Json>::new());
    assert_eq!(v_where("id = 'x'"), Vec::<Json>::new());
    assert_eq!(v_where("id = NULL"), Vec::<Json>::new());
    assert_eq!(v_where("v >= 2 AND id = 5"), [json!({"v": 2})]);
    assert_eq!(v_where("v >= 3 AND id = 5"), Vec::<Json>::new());
    // numerically equal keys are one key
    assert!(db.exec("INSERT INTO t VALUES (5.0, 9)").is_err());
}

// ---- the bound `WHERE` evaluator against the by-name reference -----------

/// The evaluator the engine had before it bound a `WHERE` clause to its
/// table, kept here as the oracle: every node looks its column up by name
/// for every row, `LIKE` re-splits its pattern for every row, nothing
/// narrows the scan, and numbers compare through `i128` rather than
/// through the engine's own comparison.
mod reference {
    use edgstr_sql::columns::ColumnSet;
    use edgstr_sql::{CmpOp, ColumnMeta, RowEffect, SqlError, SqlValue, Table, WhereExpr};
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// SQL three-valued comparison: `NULL` and a pair of different kinds
    /// (numbers are one kind) are incomparable.
    pub fn compare(a: &SqlValue, b: &SqlValue) -> Option<Ordering> {
        use SqlValue::{Blob, Int, Real, Text};
        match (a, b) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Real(a), Real(b)) => a.partial_cmp(b),
            (Int(i), Real(r)) => int_vs_real(*i, *r),
            (Real(r), Int(i)) => int_vs_real(*i, *r).map(Ordering::reverse),
            (Text(a), Text(b)) => Some(a.as_bytes().cmp(b.as_bytes())),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// An integer against a float, exactly: a finite float of magnitude
    /// below 2^100 has a floor `i128` holds, and the integer is below the
    /// float when it is at most that floor and the float is not integral.
    fn int_vs_real(i: i64, r: f64) -> Option<Ordering> {
        let bound = 2f64.powi(100);
        if r.is_nan() {
            None
        } else if r >= bound {
            Some(Ordering::Less)
        } else if r <= -bound {
            Some(Ordering::Greater)
        } else {
            let floor = r.floor();
            let below = if r > floor {
                Ordering::Less
            } else {
                Ordering::Equal
            };
            Some(i128::from(i).cmp(&(floor as i128)).then(below))
        }
    }

    /// The order `ORDER BY` sorts by: `NULL`, then numbers by value, then
    /// text, then blobs (SQLite's); two values it calls equal tie.
    pub fn sort_order(a: &SqlValue, b: &SqlValue) -> Ordering {
        fn rank(v: &SqlValue) -> u8 {
            match v {
                SqlValue::Null => 0,
                SqlValue::Int(_) | SqlValue::Real(_) => 1,
                SqlValue::Text(_) => 2,
                SqlValue::Blob(_) => 3,
            }
        }
        rank(a)
            .cmp(&rank(b))
            .then_with(|| compare(a, b).unwrap_or(Ordering::Equal))
    }

    /// `SELECT * … ORDER BY col [DESC] LIMIT n` the way the engine did it
    /// before it kept only the first `n`: every match, stably sorted, then
    /// truncated.
    pub fn order_limit(
        mut rows: Vec<Vec<SqlValue>>,
        col: usize,
        desc: bool,
        limit: Option<usize>,
    ) -> Vec<Vec<SqlValue>> {
        rows.sort_by(|a, b| {
            let ord = sort_order(&a[col], &b[col]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        rows.truncate(limit.unwrap_or(usize::MAX));
        rows
    }

    pub fn matches_row(
        columns: &[ColumnMeta],
        row: &[SqlValue],
        e: Option<&WhereExpr>,
        table: &str,
    ) -> Result<bool, SqlError> {
        let Some(e) = e else { return Ok(true) };
        match e {
            WhereExpr::And(a, b) => Ok(matches_row(columns, row, Some(a), table)?
                && matches_row(columns, row, Some(b), table)?),
            WhereExpr::Or(a, b) => Ok(matches_row(columns, row, Some(a), table)?
                || matches_row(columns, row, Some(b), table)?),
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
                let Some(ord) = compare(cell, value) else {
                    return Ok(false); // NULL comparisons are false
                };
                Ok(match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::NotEq => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                    CmpOp::Like => unreachable!(),
                })
            }
        }
    }

    /// SQL `LIKE` with `%` wildcards (prefix/suffix/both/infix).
    pub fn like_match(s: &str, pattern: &str) -> bool {
        let parts: Vec<&str> = pattern.split('%').collect();
        match parts.as_slice() {
            [exact] => s == *exact,
            [prefix, suffix] => {
                s.len() >= prefix.len() + suffix.len()
                    && s.starts_with(prefix)
                    && s.ends_with(suffix)
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

    /// Whether writing `b` over `a` leaves the cell as it was: the same
    /// kind, and the same value — a `REAL` bit for bit.
    pub fn same_cell(a: &SqlValue, b: &SqlValue) -> bool {
        match (a, b) {
            (SqlValue::Null, SqlValue::Null) => true,
            (SqlValue::Int(x), SqlValue::Int(y)) => x == y,
            (SqlValue::Real(x), SqlValue::Real(y)) => x.to_bits() == y.to_bits(),
            (SqlValue::Text(x), SqlValue::Text(y)) => x == y,
            (SqlValue::Blob(x), SqlValue::Blob(y)) => x == y,
            _ => false,
        }
    }

    /// The change from `before` to `after`, a table's rows, per canonical
    /// key: `None` where the key gained or lost rows (the row set
    /// changed), the positions of the cells that differ where it kept as
    /// many rows as it had. Keys whose rows are all as they were are
    /// absent.
    pub fn cell_diff(
        pki: usize,
        before: &[Vec<SqlValue>],
        after: &[Vec<SqlValue>],
    ) -> BTreeMap<String, Option<ColumnSet>> {
        let by_key = |rows: &[Vec<SqlValue>]| {
            let mut m: BTreeMap<String, Vec<Vec<SqlValue>>> = BTreeMap::new();
            for r in rows {
                m.entry(r[pki].key()).or_default().push(r.clone());
            }
            m
        };
        let (b, a) = (by_key(before), by_key(after));
        let mut diff = BTreeMap::new();
        for key in b.keys().chain(a.keys()) {
            let none = Vec::new();
            let (was, is) = (b.get(key).unwrap_or(&none), a.get(key).unwrap_or(&none));
            if was.len() != is.len() {
                diff.insert(key.clone(), None);
                continue;
            }
            let mut cells = ColumnSet::NONE;
            for (x, y) in was.iter().zip(is) {
                for (i, (u, v)) in x.iter().zip(y).enumerate() {
                    if !same_cell(u, v) {
                        cells = cells.with(i);
                    }
                }
            }
            if !cells.is_empty() {
                diff.insert(key.clone(), Some(cells));
            }
        }
        diff
    }

    /// What `effects` report, per key, in [`cell_diff`]'s terms: a delete
    /// or an upsert new to its key changes the row set; otherwise the
    /// changed cells add up. A key only ever written as it was is absent.
    pub fn reported(effects: &[RowEffect]) -> BTreeMap<String, Option<ColumnSet>> {
        let mut report: BTreeMap<String, Option<ColumnSet>> = BTreeMap::new();
        for e in effects {
            let (pk, changed) = match e {
                RowEffect::Upsert { pk, changed, .. } => (pk, *changed),
                RowEffect::Delete { pk, .. } => (pk, None),
            };
            let slot = report
                .entry(pk.as_ref().expect("a keyed table").key())
                .or_insert(Some(ColumnSet::NONE));
            *slot = match (*slot, changed) {
                (Some(a), Some(b)) => Some(a.union(b)),
                _ => None,
            };
        }
        report.retain(|_, c| c.is_none_or(|c| !c.is_empty()));
        report
    }

    fn row_pk(t: &Table, i: usize) -> Option<SqlValue> {
        let pki = t.columns.iter().position(|c| c.primary_key)?;
        Some(t.rows[i][pki].clone())
    }

    /// `SELECT * FROM t WHERE e`: every row, in table order.
    pub fn select(t: &Table, e: Option<&WhereExpr>) -> Result<Vec<Vec<SqlValue>>, SqlError> {
        let mut out = Vec::new();
        for row in &t.rows {
            if matches_row(&t.columns, row, e, &t.name)? {
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// `UPDATE t SET <col> = <value> WHERE e`, row by row: rows before the
    /// one that raises an error stay written.
    pub fn update(
        t: &mut Table,
        col: usize,
        value: &SqlValue,
        e: Option<&WhereExpr>,
    ) -> Result<(usize, Vec<RowEffect>), SqlError> {
        let rekeyed = t.columns[col].primary_key;
        let mut effects = Vec::new();
        let mut affected = 0;
        for i in 0..t.rows.len() {
            if !matches_row(&t.columns, &t.rows[i], e, &t.name)? {
                continue;
            }
            let old_pk = row_pk(t, i);
            let cells = if same_cell(&t.rows[i][col], value) {
                ColumnSet::NONE
            } else {
                ColumnSet::of(col)
            };
            t.rows[i][col] = value.clone();
            affected += 1;
            let pk = row_pk(t, i);
            let rekeyed = old_pk.as_ref().map(SqlValue::key) != pk.as_ref().map(SqlValue::key);
            if rekeyed {
                effects.push(RowEffect::Delete {
                    table: t.name.clone(),
                    pk: old_pk,
                });
            }
            effects.push(RowEffect::Upsert {
                table: t.name.clone(),
                pk,
                columns: t.column_names().clone(),
                cells: t.rows[i].clone(),
                changed: (!rekeyed).then_some(cells),
            });
        }
        if rekeyed && affected > 0 {
            t.rows.sort_by(|a, b| a[col].pk_cmp(&b[col]));
        }
        Ok((affected, effects))
    }

    /// `DELETE FROM t WHERE e`: all or, on an error, nothing.
    pub fn delete(
        t: &mut Table,
        e: Option<&WhereExpr>,
    ) -> Result<(usize, Vec<RowEffect>), SqlError> {
        let mut doomed = Vec::new();
        for (i, row) in t.rows.iter().enumerate() {
            if matches_row(&t.columns, row, e, &t.name)? {
                doomed.push(i);
            }
        }
        let effects = doomed
            .iter()
            .map(|&i| RowEffect::Delete {
                table: t.name.clone(),
                pk: row_pk(t, i),
            })
            .collect();
        for &i in doomed.iter().rev() {
            t.rows.remove(i);
        }
        Ok((doomed.len(), effects))
    }
}

/// Few letters, so that texts repeat and overlap; `é` is C3 A9 and `©` is
/// C2 A9, `𝄞` (F0 9D 84 9E) is outside the BMP.
const ALPHABET: [char; 5] = ['a', 'b', 'é', '©', '𝄞'];

fn text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..max_len + 1)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Few enough values that a literal often equals a cell: `NULL`, small
/// numbers equal across `INT` and `REAL`, both sides of ±2^53 (the last
/// integer every `f64` holds, and the first `INT` one rounds), ±2^63 (one
/// past `i64::MAX`, and `i64::MIN`), and short texts that share bytes.
fn pool() -> Vec<SqlValue> {
    const TWO_53: i64 = 1 << 53;
    let ints = [
        0,
        1,
        TWO_53,
        TWO_53 + 1,
        -TWO_53,
        -TWO_53 - 1,
        i64::MAX,
        i64::MIN,
    ];
    let reals = [
        0.5,
        1.0,
        9_007_199_254_740_992.0,  // 2^53, which 2^53 + 1 rounds to
        9_007_199_254_740_994.0,  // the next double up
        -9_007_199_254_740_992.0, // -2^53
        -9_007_199_254_740_994.0,
        9_223_372_036_854_775_808.0,  // 2^63
        -9_223_372_036_854_775_808.0, // -2^63, i64::MIN exactly
    ];
    let texts = ["", "a", "ab", "é", "a©", "1"];
    [SqlValue::Null]
        .into_iter()
        .chain(ints.map(SqlValue::Int))
        .chain(reals.map(SqlValue::Real))
        .chain(texts.map(|t| SqlValue::Text(t.to_string())))
        .collect()
}

/// A cell of any kind: the engine does not coerce to the declared type.
fn cell() -> impl Strategy<Value = SqlValue> {
    let pooled = || {
        let values = pool();
        (0..values.len()).prop_map(move |i| values[i].clone())
    };
    prop_oneof![
        pooled(),
        pooled(),
        pooled(),
        text(4).prop_map(SqlValue::Text)
    ]
}

/// 1–4 short pieces joined by `%`: 0–3 wildcards, leading, trailing and
/// doubled ones included; one empty piece is the empty pattern. Every
/// third pattern is one of the shapes a matcher special-cases, named.
fn like_pattern() -> impl Strategy<Value = String> {
    let pieces = || prop::collection::vec(text(2), 1..5).prop_map(|pieces| pieces.join("%"));
    prop_oneof![pieces(), pieces(), like_shape()]
}

/// No `%`; `%` at the start, the end or both; `%%` alone, leading,
/// trailing and between two pieces; and a needle of five or more
/// characters, longer than any table cell.
fn like_shape() -> impl Strategy<Value = String> {
    (0..9usize, text(2), text(2), text(4)).prop_map(|(shape, a, b, long)| match shape {
        0 => a,
        1 => format!("%{a}"),
        2 => format!("{a}%"),
        3 => format!("%{a}%"),
        4 => "%%".to_string(),
        5 => format!("%%{a}"),
        6 => format!("{a}%%"),
        7 => format!("{a}%%{b}"),
        _ => format!("%{long}ababa%"),
    })
}

/// Column names a statement may use: the table has a prefix of the first
/// four, never the last.
const NAMES: [&str; 5] = ["c0", "c1", "c2", "c3", "nope"];

/// A name for a `WHERE` leaf: the (possible) key column as often as the
/// rest together.
fn where_column() -> impl Strategy<Value = String> {
    (0..2 * NAMES.len() - 2).prop_map(|i| NAMES[i.saturating_sub(NAMES.len() - 2)].to_string())
}

const OPS: [CmpOp; 11] = [
    CmpOp::Eq,
    CmpOp::Eq,
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Like,
    CmpOp::Like,
    CmpOp::Like,
];

fn where_leaf() -> impl Strategy<Value = WhereExpr> {
    let column = where_column;
    let literal = prop_oneof![
        cell(),
        cell(),
        like_pattern().prop_map(SqlValue::Text),
        like_pattern().prop_map(SqlValue::Text),
    ];
    prop_oneof![
        (column(), any::<bool>())
            .prop_map(|(column, negated)| WhereExpr::IsNull { column, negated }),
        (column(), 0..OPS.len(), literal).prop_map(|(column, op, value)| WhereExpr::Cmp {
            column,
            op: OPS[op],
            value,
        }),
        (column(), 0..OPS.len(), cell()).prop_map(|(column, op, value)| WhereExpr::Cmp {
            column,
            op: OPS[op],
            value,
        }),
    ]
}

/// A `WHERE` clause before it has seen its table: up to eight leaves under
/// `AND`/`OR` nodes, halving, so depth at most 3; no leaves is no `WHERE`.
#[derive(Debug, Clone)]
struct WhereSpec {
    /// Each leaf, and whether (for a comparison) the literal is replaced
    /// by the cell of row `row` — so that a literal equal to a cell, and a
    /// row that passes several leaves at once, are not left to luck.
    leaves: Vec<(WhereExpr, bool)>,
    row: usize,
    /// Whether each inner node, in the order built, is an `AND`.
    ands: Vec<bool>,
}

impl WhereSpec {
    fn resolve(&self, t: &Table) -> Option<WhereExpr> {
        fn build(leaves: &[WhereExpr], ands: &mut impl Iterator<Item = bool>) -> WhereExpr {
            if let [leaf] = leaves {
                return leaf.clone();
            }
            let (l, r) = leaves.split_at(leaves.len() / 2);
            let (l, r) = (Box::new(build(l, ands)), Box::new(build(r, ands)));
            if ands.next().unwrap_or(true) {
                WhereExpr::And(l, r)
            } else {
                WhereExpr::Or(l, r)
            }
        }
        let leaves: Vec<WhereExpr> = self
            .leaves
            .iter()
            .map(|(leaf, from_row)| match leaf {
                WhereExpr::Cmp { column, op, .. } if *from_row && !t.rows.is_empty() => {
                    match t.columns.iter().position(|c| &c.name == column) {
                        Some(col) => WhereExpr::Cmp {
                            column: column.clone(),
                            op: *op,
                            value: t.rows[self.row % t.rows.len()][col].clone(),
                        },
                        None => leaf.clone(),
                    }
                }
                _ => leaf.clone(),
            })
            .collect();
        (!leaves.is_empty()).then(|| build(&leaves, &mut self.ands.iter().copied()))
    }
}

fn where_spec() -> impl Strategy<Value = WhereSpec> {
    (
        prop::collection::vec((where_leaf(), (0u8..4).prop_map(|n| n > 0)), 0..9),
        0usize..40,
        // two nodes in three are `AND`s, under which a key can be pinned
        prop::collection::vec((0u8..3).prop_map(|n| n > 0), 7..8),
    )
        .prop_map(|(leaves, row, ands)| WhereSpec { leaves, row, ands })
}

/// A table `t` of 1–4 columns (`c0 INT`, `c1 REAL`, `c2 TEXT`, `c3 INT`;
/// `c0` the primary key or not) holding up to 40 rows.
fn table() -> impl Strategy<Value = SqlDb> {
    let row = (cell(), cell(), cell(), cell()).prop_map(|(a, b, c, d)| vec![a, b, c, d]);
    (1usize..5, any::<bool>(), prop::collection::vec(row, 0..41)).prop_map(
        |(ncols, keyed, rows)| {
            let types = ["INT", "REAL", "TEXT", "INT"];
            let columns: Vec<String> = (0..ncols)
                .map(|i| {
                    let key = if keyed && i == 0 { " PRIMARY KEY" } else { "" };
                    format!("{} {}{key}", NAMES[i], types[i])
                })
                .collect();
            let mut db = SqlDb::new();
            db.exec(&format!("CREATE TABLE t ({})", columns.join(", ")))
                .unwrap();
            for mut row in rows {
                row.truncate(ncols);
                // a key already taken: the row is not inserted
                let _ = db.exec_stmt(&Statement::Insert {
                    table: "t".to_string(),
                    columns: Vec::new(),
                    rows: vec![row],
                });
            }
            db
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The engine, which binds a `WHERE` clause to its table once, and the
    /// reference, which resolves every name for every row, select the same
    /// rows in the same order or fail with the same error; and an `UPDATE`
    /// and a `DELETE` through each leave the same table and report the
    /// same count and row effects.
    #[test]
    fn bound_where_equals_the_by_name_reference(
        db in table(),
        spec in where_spec(),
        set_col in 0usize..4,
        set_value in cell(),
    ) {
        let before = db.table("t").unwrap().clone();
        let where_expr = spec.resolve(&before);
        let e = where_expr.as_ref();
        let table = "t".to_string();

        // SELECT
        let mut selecting = db.clone();
        let got = selecting.exec_stmt(&Statement::Select {
            items: vec![SelectItem::Star],
            table: table.clone(),
            where_expr: where_expr.clone(),
            order_by: None,
            limit: None,
        });
        let want = reference::select(&before, e).map(|rows| {
            let columns = before.columns.iter().map(|c| c.name.clone()).collect();
            (SqlResult::Rows { columns, rows }, Vec::new())
        });
        prop_assert_eq!(got, want, "SELECT WHERE {:?}", e);
        prop_assert_eq!(selecting.table("t").unwrap(), &before);

        // UPDATE (of the key column too: the table re-sorts)
        let set_col = set_col % before.columns.len();
        let mut updating = db.clone();
        let got = updating.exec_stmt(&Statement::Update {
            table: table.clone(),
            sets: vec![(NAMES[set_col].to_string(), set_value.clone())],
            where_expr: where_expr.clone(),
        });
        let mut model = before.clone();
        let want = reference::update(&mut model, set_col, &set_value, e)
            .map(|(n, effects)| (SqlResult::Affected(n), effects));
        prop_assert_eq!(got, want, "UPDATE WHERE {:?}", e);
        prop_assert_eq!(&updating.table("t").unwrap().rows, &model.rows, "after UPDATE WHERE {:?}", e);

        // DELETE
        let mut deleting = db.clone();
        let got = deleting.exec_stmt(&Statement::Delete {
            table,
            where_expr: where_expr.clone(),
        });
        let mut model = before.clone();
        let want = reference::delete(&mut model, e)
            .map(|(n, effects)| (SqlResult::Affected(n), effects));
        prop_assert_eq!(got, want, "DELETE WHERE {:?}", e);
        prop_assert_eq!(&deleting.table("t").unwrap().rows, &model.rows, "after DELETE WHERE {:?}", e);
    }

    /// `LIKE` alone, on more text than a table row holds: the split-once
    /// byte-wise matcher and the reference agree on every pattern.
    #[test]
    fn like_equals_the_reference(cells in prop::collection::vec(text(6), 1..12), pattern in like_pattern()) {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (s TEXT)").unwrap();
        db.exec_stmt(&Statement::Insert {
            table: "t".to_string(),
            columns: Vec::new(),
            rows: cells.iter().map(|s| vec![SqlValue::Text(s.clone())]).collect(),
        })
        .unwrap();
        let got = db.exec_stmt(&Statement::Select {
            items: vec![SelectItem::Star],
            table: "t".to_string(),
            where_expr: Some(WhereExpr::Cmp {
                column: "s".to_string(),
                op: CmpOp::Like,
                value: SqlValue::Text(pattern.clone()),
            }),
            order_by: None,
            limit: None,
        });
        let want: Vec<Vec<SqlValue>> = cells
            .iter()
            .filter(|s| reference::like_match(s, &pattern))
            .map(|s| vec![SqlValue::Text(s.clone())])
            .collect();
        let columns = vec!["s".to_string()];
        prop_assert_eq!(got, Ok((SqlResult::Rows { columns, rows: want }, Vec::new())), "LIKE {:?}", pattern);
    }
}

// ---- `ORDER BY … LIMIT` against a stable sort, truncated ------------------

/// A sort key drawn so that keys tie often: `NULL`, small `INT`s, `REAL`s
/// some of which equal them (`2` and `2.0`), texts and a blob.
fn sort_cell() -> impl Strategy<Value = SqlValue> {
    const REALS: [f64; 5] = [0.5, 1.0, 2.0, 2.5, -1.0];
    const TEXTS: [&str; 4] = ["", "a", "b", "ab"];
    prop_oneof![
        Just(SqlValue::Null),
        (0i64..5).prop_map(SqlValue::Int),
        (0i64..5).prop_map(SqlValue::Int),
        (0..REALS.len()).prop_map(|i| SqlValue::Real(REALS[i])),
        (0..TEXTS.len()).prop_map(|i| SqlValue::from(TEXTS[i])),
        Just(SqlValue::Blob(vec![7])),
    ]
}

/// `LIMIT`: none, 0, 1, a k inside the matches, or at least all of them.
#[derive(Debug, Clone)]
enum Limit {
    None,
    Zero,
    One,
    Inside(usize),
    Beyond(usize),
}

fn limit() -> impl Strategy<Value = Limit> {
    prop_oneof![
        Just(Limit::None),
        Just(Limit::Zero),
        Just(Limit::One),
        (0usize..1_000).prop_map(Limit::Inside),
        (0usize..5).prop_map(Limit::Beyond),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SELECT * FROM t [WHERE v >= floor] ORDER BY p [DESC] [LIMIT n]`
    /// returns what a stable sort of every match by the total order,
    /// truncated to `n`, returns: equal keys keep scan order in both
    /// directions, and `NULL` comes first ascending, last descending.
    /// Up to 200 rows, so that the engine's unstable selection and sort
    /// leave their small-slice paths.
    #[test]
    fn order_by_limit_equals_a_stable_sort_truncated(
        keyed in any::<bool>(),
        rows in prop::collection::vec((sort_cell(), 0i64..4), 0..201),
        filter in prop::option::of(0i64..4),
        desc in any::<bool>(),
        limit in limit(),
    ) {
        let mut db = SqlDb::new();
        let key = if keyed { " PRIMARY KEY" } else { "" };
        db.exec(&format!("CREATE TABLE t (id INT{key}, p REAL, v INT)")).unwrap();
        // ids descend, so a keyed table scans in the reverse of arrival
        let n = rows.len() as i64;
        db.exec_stmt(&Statement::Insert {
            table: "t".to_string(),
            columns: Vec::new(),
            rows: rows
                .iter()
                .enumerate()
                .map(|(i, (p, v))| vec![SqlValue::Int(n - i as i64), p.clone(), SqlValue::Int(*v)])
                .collect(),
        })
        .unwrap();
        let where_expr = filter.map(|floor| WhereExpr::Cmp {
            column: "v".to_string(),
            op: CmpOp::Ge,
            value: SqlValue::Int(floor),
        });
        let t = db.table("t").unwrap().clone();
        let matches = reference::select(&t, where_expr.as_ref()).unwrap();
        let limit = match limit {
            Limit::None => None,
            Limit::Zero => Some(0),
            Limit::One => Some(1),
            Limit::Inside(k) => Some(k % matches.len().max(1)),
            Limit::Beyond(extra) => Some(matches.len() + extra),
        };
        let got = db.exec_stmt(&Statement::Select {
            items: vec![SelectItem::Star],
            table: "t".to_string(),
            where_expr,
            order_by: Some(("p".to_string(), desc)),
            limit,
        });
        let want = reference::order_limit(matches, 1, desc, limit);
        let columns = ["id", "p", "v"].map(String::from).to_vec();
        prop_assert_eq!(got, Ok((SqlResult::Rows { columns, rows: want }, Vec::new())));
    }
}

// ---- what a write reports it changed ----------------------------------------

/// A cell of `v` or `w`: few enough that a write often puts back what was
/// there, with `0`, `0.0` and `-0.0` three different cells.
fn small_cell() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        (0i64..3).prop_map(SqlValue::Int),
        Just(SqlValue::Real(0.0)),
        Just(SqlValue::Real(-0.0)),
        Just(SqlValue::Real(1.0)),
        Just(SqlValue::Text("a".to_string())),
    ]
}

fn sql_cell(v: &SqlValue) -> String {
    match v {
        SqlValue::Real(r) => format!("{r:?}"),
        other => other.to_string(),
    }
}

#[derive(Debug, Clone)]
enum WriteOp {
    Insert {
        id: Key,
        v: SqlValue,
        w: SqlValue,
    },
    /// `UPDATE t SET <col> = <cell>[, w = <cell>] WHERE id = <id>`, or of
    /// every row at or above a floor of `v`.
    Set {
        on: Option<Key>,
        v: Option<SqlValue>,
        w: Option<SqlValue>,
    },
    Rekey {
        from: Key,
        to: Key,
    },
    Delete {
        on: Option<Key>,
    },
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    let cell = || prop::option::of(small_cell());
    prop_oneof![
        (key(), small_cell(), small_cell()).prop_map(|(id, v, w)| WriteOp::Insert { id, v, w }),
        (key(), small_cell(), small_cell()).prop_map(|(id, v, w)| WriteOp::Insert { id, v, w }),
        (prop::option::of(key()), cell(), cell()).prop_map(|(on, v, w)| WriteOp::Set { on, v, w }),
        (prop::option::of(key()), cell(), cell()).prop_map(|(on, v, w)| WriteOp::Set { on, v, w }),
        (key(), key()).prop_map(|(from, to)| WriteOp::Rekey { from, to }),
        prop::option::of(key()).prop_map(|on| WriteOp::Delete { on }),
    ]
}

impl WriteOp {
    fn sql(&self) -> String {
        let on = |k: &Option<Key>| match k {
            Some(k) => format!("id = {}", k.sql()),
            None => "v >= 1".to_string(),
        };
        match self {
            WriteOp::Insert { id, v, w } => {
                format!(
                    "INSERT INTO t VALUES ({}, {}, {})",
                    id.sql(),
                    sql_cell(v),
                    sql_cell(w)
                )
            }
            WriteOp::Set { on: k, v, w } => {
                let mut sets: Vec<String> = Vec::new();
                if let Some(v) = v {
                    sets.push(format!("v = {}", sql_cell(v)));
                }
                if let Some(w) = w {
                    sets.push(format!("w = {}", sql_cell(w)));
                }
                if sets.is_empty() {
                    sets.push("v = v".to_string());
                }
                format!("UPDATE t SET {} WHERE {}", sets.join(", "), on(k))
            }
            WriteOp::Rekey { from, to } => {
                format!("UPDATE t SET id = {} WHERE id = {}", to.sql(), from.sql())
            }
            WriteOp::Delete { on: k } => format!("DELETE FROM t WHERE {}", on(k)),
        }
    }
}

fn change_db() -> SqlDb {
    let mut db = SqlDb::new();
    db.exec("CREATE TABLE t (id INT PRIMARY KEY, v REAL, w TEXT)")
        .unwrap();
    db
}

#[derive(Debug, Clone)]
enum RowOp {
    Upsert { id: Key, v: SqlValue, w: SqlValue },
    Delete { id: Key },
}

fn row_op() -> impl Strategy<Value = RowOp> {
    prop_oneof![
        (key(), small_cell(), small_cell()).prop_map(|(id, v, w)| RowOp::Upsert { id, v, w }),
        (key(), small_cell(), small_cell()).prop_map(|(id, v, w)| RowOp::Upsert { id, v, w }),
        key().prop_map(|id| RowOp::Delete { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Generated `INSERT`s, `UPDATE`s of one or more cells (of one row or
    /// of many, often writing back what was there), re-keying `UPDATE`s and
    /// `DELETE`s: what each statement's effects report changed, per key, is
    /// exactly the cell diff of the table before and after it — no changed
    /// cell unreported, no unchanged one reported.
    #[test]
    fn a_write_reports_exactly_the_cell_diff(ops in prop::collection::vec(write_op(), 1..40)) {
        let mut db = change_db();
        for op in &ops {
            let before = db.table("t").unwrap().rows.clone();
            let effects = match db.exec_with_effects(&op.sql()) {
                Ok((_, effects)) => effects,
                // a rejected statement leaves the table as it found it
                Err(_) => Vec::new(),
            };
            let after = &db.table("t").unwrap().rows;
            prop_assert_eq!(
                reference::reported(&effects),
                reference::cell_diff(0, &before, after),
                "{}", op.sql()
            );
        }
    }

    /// The same for the row primitives a remote change is materialised
    /// with: `upsert_row` reports the cells it changed, `None` for a row
    /// new to its key, and `delete_row_by_pk` whether a row went.
    #[test]
    fn a_materialised_row_reports_exactly_the_cell_diff(
        ops in prop::collection::vec(row_op(), 1..40),
    ) {
        let mut db = change_db();
        for op in &ops {
            let before = db.table("t").unwrap().rows.clone();
            let (pk, report) = match op {
                RowOp::Upsert { id, v, w } => {
                    let row = vec![id.value(), v.clone(), w.clone()];
                    (id.value().key(), db.upsert_row("t", row).unwrap())
                }
                RowOp::Delete { id } => {
                    let gone = db.delete_row_by_pk("t", &id.value()).unwrap();
                    let pk = id.value().key();
                    // nothing went: nothing changed
                    let report = if gone { None } else { Some(ColumnSet::NONE) };
                    (pk, report)
                }
            };
            let after = &db.table("t").unwrap().rows;
            let mut diff = reference::cell_diff(0, &before, after);
            let want = diff.remove(&pk);
            prop_assert!(diff.is_empty(), "{:?} changed other keys: {:?}", op, diff);
            prop_assert_eq!(as_diff_entry(report), want, "{:?}", op);
        }
    }
}

/// A row primitive's report as the [`reference::cell_diff`] entry of its
/// key: absent when it changed no cell.
fn as_diff_entry(report: Option<ColumnSet>) -> Option<Option<ColumnSet>> {
    match report {
        Some(cells) if cells.is_empty() => None,
        other => Some(other),
    }
}

// ---- writes interleaved with long scans, against the reference ------------

/// A cell of the text column `c2`: `NULL`, an `INT`, or text of up to six
/// characters, multi-byte ones included, three times in five.
fn text_cell() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        (0i64..3).prop_map(SqlValue::Int),
        text(6).prop_map(SqlValue::Text),
        text(6).prop_map(SqlValue::Text),
        text(6).prop_map(SqlValue::Text),
    ]
}

/// A row of the scanned table with key `id`: a cell of any kind, a text
/// cell, and a small `c3` that writes select rows by.
fn scan_row(id: impl Strategy<Value = i64> + 'static) -> impl Strategy<Value = Vec<SqlValue>> {
    (id, cell(), text_cell(), 0i64..6)
        .prop_map(|(id, c1, c2, c3)| vec![SqlValue::Int(id), c1, c2, SqlValue::Int(c3)])
}

#[derive(Debug, Clone)]
enum ScanWrite {
    Insert {
        row: Vec<SqlValue>,
    },
    /// `UPDATE t SET c2 = <text> WHERE c3 = <on>`: the searched column.
    SetText {
        text: SqlValue,
        on: i64,
    },
    /// `UPDATE t SET c3 = <to> WHERE c3 = <on>`: another column.
    SetOther {
        to: i64,
        on: i64,
    },
    /// `UPDATE t SET c0 = <to> WHERE c0 = <from>`: the row moves.
    Rekey {
        from: i64,
        to: i64,
    },
    /// `UPDATE t SET c3 = <to> WHERE <spec>`, held to the reference: a
    /// column the table does not have stops it part-way.
    SetWhere {
        spec: WhereSpec,
        to: i64,
    },
    Delete {
        on: i64,
    },
    Upsert {
        row: Vec<SqlValue>,
    },
    DeleteByPk {
        id: i64,
    },
    /// `replace_table_rows` with the table's rows, every third left out.
    Replace {
        skip: usize,
    },
    Begin,
    Commit,
    Rollback,
    Snapshot,
    Restore,
}

fn scan_write() -> impl Strategy<Value = ScanWrite> {
    let id = || 0i64..400;
    prop_oneof![
        scan_row(id()).prop_map(|row| ScanWrite::Insert { row }),
        (text_cell(), 0i64..6).prop_map(|(text, on)| ScanWrite::SetText { text, on }),
        (text_cell(), 0i64..6).prop_map(|(text, on)| ScanWrite::SetText { text, on }),
        (0i64..6, 0i64..6).prop_map(|(to, on)| ScanWrite::SetOther { to, on }),
        (id(), id()).prop_map(|(from, to)| ScanWrite::Rekey { from, to }),
        (where_spec(), 0i64..6).prop_map(|(spec, to)| ScanWrite::SetWhere { spec, to }),
        (0i64..6).prop_map(|on| ScanWrite::Delete { on }),
        scan_row(id()).prop_map(|row| ScanWrite::Upsert { row }),
        scan_row(id()).prop_map(|row| ScanWrite::Upsert { row }),
        id().prop_map(|id| ScanWrite::DeleteByPk { id }),
        (0usize..3).prop_map(|skip| ScanWrite::Replace { skip }),
        Just(ScanWrite::Begin),
        Just(ScanWrite::Commit),
        Just(ScanWrite::Rollback),
        Just(ScanWrite::Snapshot),
        Just(ScanWrite::Restore),
    ]
}

/// `c<column> = <value>`.
fn equals(column: usize, value: SqlValue) -> Option<WhereExpr> {
    Some(WhereExpr::Cmp {
        column: NAMES[column].to_string(),
        op: CmpOp::Eq,
        value,
    })
}

/// `UPDATE t SET c<column> = <value> WHERE <where_expr>`.
fn set(column: usize, value: SqlValue, where_expr: Option<WhereExpr>) -> Statement {
    Statement::Update {
        table: "t".to_string(),
        sets: vec![(NAMES[column].to_string(), value)],
        where_expr,
    }
}

/// `SELECT * FROM t WHERE <where_expr>`, the engine's answer and the
/// reference's over the same rows.
fn select_both(
    db: &mut SqlDb,
    where_expr: Option<WhereExpr>,
) -> (Result<SqlResult, SqlError>, Result<SqlResult, SqlError>) {
    let t = db.table("t").unwrap().clone();
    let want = reference::select(&t, where_expr.as_ref()).map(|rows| {
        let columns = t.columns.iter().map(|c| c.name.clone()).collect();
        SqlResult::Rows { columns, rows }
    });
    let got = db.exec_stmt(&Statement::Select {
        items: vec![SelectItem::Star],
        table: "t".to_string(),
        where_expr,
        order_by: None,
        limit: None,
    });
    (got.map(|(result, _)| result), want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A keyed table of 65–300 rows, its text column holding `NULL`, `INT`
    /// and multi-byte text, takes generated writes of every kind — `INSERT`,
    /// `UPDATE` of the text column, of another and of the key, `DELETE`,
    /// `upsert_row`, `delete_row_by_pk`, `replace_table_rows`, `BEGIN` …
    /// `ROLLBACK`/`COMMIT` and `snapshot`/`restore`. After each, a `LIKE`
    /// scan and a scan under a generated `WHERE` return what the reference
    /// selects from the same rows: whatever a long `LIKE` scan copied out
    /// of the table is never read after a write made it stale.
    #[test]
    fn writes_interleaved_with_scans_equal_the_reference(
        rows in prop::collection::vec(scan_row(Just(0)), 65..301),
        steps in prop::collection::vec((scan_write(), like_pattern(), where_spec()), 1..24),
    ) {
        let mut db = SqlDb::new();
        db.exec("CREATE TABLE t (c0 INT PRIMARY KEY, c1 REAL, c2 TEXT, c3 INT)").unwrap();
        let keyed = rows.iter().zip(0..).map(|(row, id)| {
            let mut row = row.clone();
            row[0] = SqlValue::Int(id);
            row
        });
        db.replace_table_rows("t", keyed.collect()).unwrap();
        let mut saved = None;
        for (write, pattern, spec) in &steps {
            match write {
                ScanWrite::Insert { row } => {
                    let _ = db.exec_stmt(&Statement::Insert {
                        table: "t".to_string(),
                        columns: Vec::new(),
                        rows: vec![row.clone()],
                    });
                }
                ScanWrite::SetText { text, on } => {
                    db.exec_stmt(&set(2, text.clone(), equals(3, SqlValue::Int(*on)))).unwrap();
                }
                ScanWrite::SetOther { to, on } => {
                    db.exec_stmt(&set(3, SqlValue::Int(*to), equals(3, SqlValue::Int(*on)))).unwrap();
                }
                ScanWrite::Rekey { from, to } => {
                    db.exec_stmt(&set(0, SqlValue::Int(*to), equals(0, SqlValue::Int(*from)))).unwrap();
                }
                ScanWrite::SetWhere { spec, to } => {
                    let mut model = db.table("t").unwrap().clone();
                    let where_expr = spec.resolve(&model);
                    let value = SqlValue::Int(*to);
                    let want = reference::update(&mut model, 3, &value, where_expr.as_ref())
                        .map(|(n, effects)| (SqlResult::Affected(n), effects));
                    let got = db.exec_stmt(&set(3, value, where_expr.clone()));
                    prop_assert_eq!(got, want, "UPDATE WHERE {:?}", where_expr);
                    prop_assert_eq!(&db.table("t").unwrap().rows, &model.rows);
                }
                ScanWrite::Delete { on } => {
                    db.exec_stmt(&Statement::Delete {
                        table: "t".to_string(),
                        where_expr: equals(3, SqlValue::Int(*on)),
                    })
                    .unwrap();
                }
                ScanWrite::Upsert { row } => {
                    db.upsert_row("t", row.clone()).unwrap();
                }
                ScanWrite::DeleteByPk { id } => {
                    db.delete_row_by_pk("t", &SqlValue::Int(*id)).unwrap();
                }
                ScanWrite::Replace { skip } => {
                    let rows = db.table("t").unwrap().rows.iter().enumerate();
                    let kept = rows.filter(|(i, _)| i % 3 != *skip).map(|(_, r)| r.clone()).collect();
                    db.replace_table_rows("t", kept).unwrap();
                }
                ScanWrite::Begin => {
                    let _ = db.exec("BEGIN");
                }
                ScanWrite::Commit => {
                    let _ = db.exec("COMMIT");
                }
                ScanWrite::Rollback => {
                    let _ = db.exec("ROLLBACK");
                }
                ScanWrite::Snapshot => saved = Some(db.snapshot()),
                ScanWrite::Restore => {
                    if let Some(saved) = &saved {
                        db.restore(saved);
                    }
                }
            }
            let like = Some(WhereExpr::Cmp {
                column: "c2".to_string(),
                op: CmpOp::Like,
                value: SqlValue::Text(pattern.clone()),
            });
            let (got, want) = select_both(&mut db, like);
            prop_assert_eq!(got, want, "c2 LIKE {:?} after {:?}", pattern, write);
            let where_expr = spec.resolve(db.table("t").unwrap());
            let (got, want) = select_both(&mut db, where_expr.clone());
            prop_assert_eq!(got, want, "WHERE {:?} after {:?}", where_expr, write);
        }
    }
}
