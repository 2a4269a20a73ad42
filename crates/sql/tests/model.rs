//! Model-based property tests: the SQL engine agrees with a naive
//! in-memory model over random insert/update/delete/select sequences,
//! snapshot/rollback restore exact state, a keyed table stays in
//! primary-key order through every statement, and a `WHERE` that pins the
//! key selects exactly what a full scan selects.

use edgstr_sql::{SqlDb, SqlResult, SqlValue};
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

    fn json(&self) -> Json {
        match self {
            Key::Null => Json::Null,
            Key::Int(i) => json!(i),
            Key::Real(r) => json!(r),
            Key::Text(t) => json!(t),
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
                    let rows: Vec<Json> = rows
                        .iter()
                        .map(|(id, v)| json!({"id": id.json(), "v": v}))
                        .collect();
                    fast.replace_table_rows("t", &rows).unwrap();
                    scan.replace_table_rows("t", &rows).unwrap();
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
