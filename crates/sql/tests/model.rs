//! Model-based property tests: the SQL engine agrees with a naive
//! in-memory model over random insert/update/delete/select sequences,
//! snapshot/rollback restore exact state, a keyed table stays in
//! primary-key order through every statement, a `WHERE` that pins the
//! key selects exactly what a full scan selects, and the engine's bound
//! `WHERE` evaluator agrees with the by-name reference kept here.

use edgstr_sql::{CmpOp, SelectItem, SqlDb, SqlResult, SqlValue, Statement, Table, WhereExpr};
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
        prop_assert_eq!(db.snapshot().to_json(), before.to_json());
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
        prop_assert_eq!(db.snapshot().to_json(), checkpoint.to_json());
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
        db.exec(&format!("SELECT v FROM t WHERE {cond}"))
            .unwrap()
            .rows_json()
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
/// for every row, `LIKE` re-splits its pattern for every row, and nothing
/// narrows the scan.
mod reference {
    use edgstr_sql::{CmpOp, ColumnMeta, RowEffect, SqlError, SqlValue, Table, WhereExpr};
    use std::cmp::Ordering;

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
                let Some(ord) = cell.compare(value) else {
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

    fn row_pk(t: &Table, i: usize) -> String {
        match t.columns.iter().position(|c| c.primary_key) {
            Some(pki) => t.rows[i][pki].pk_string(),
            None => format!("row{i}"),
        }
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
            t.rows[i][col] = value.clone();
            affected += 1;
            let pk = row_pk(t, i);
            if old_pk != pk {
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
/// numbers equal across `INT` and `REAL`, integers `f64` cannot hold next
/// to the reals nearest them, and short texts that share bytes.
fn pool() -> Vec<SqlValue> {
    let ints = [0, 1, (1 << 53) + 1, i64::MAX];
    let reals = [
        0.5,
        1.0,
        9_007_199_254_740_992.0,
        9_223_372_036_854_775_808.0, // 2^63, one past i64::MAX
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
/// doubled ones included; one empty piece is the empty pattern.
fn like_pattern() -> impl Strategy<Value = String> {
    prop::collection::vec(text(2), 1..5).prop_map(|pieces| pieces.join("%"))
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
