//! What a script sees of a `db.query` result. A result set waits as cells
//! until the script touches it ([`Value::result_rows`]); the eager builder
//! it replaced, kept below as the oracle, made every row object up front.
//!
//! - Generated results: over generated cells, column names and `SELECT`s,
//!   the waiting value encodes to the oracle's text and size, and after
//!   any touch it is the oracle's value.
//! - Pinned handlers: every way a handler can use a result — read its
//!   length, send it whole, nested, inside an array or twice, index it,
//!   mutate a row, push and pop, iterate, compare, stringify, concatenate,
//!   keep it in a global across requests, and mutate a kept one in a
//!   request that fails and is rolled back. Each route's response text,
//!   size, digest and VM cycles are constants captured from the eager
//!   builder, and both engines must give them.

use edgstr_analysis::server::rows_value;
use edgstr_analysis::{ExecMode, ServerProcess};
use edgstr_lang::ops::{index_get, index_set, member_get, simple_method};
use edgstr_lang::{Props, Value};
use edgstr_net::HttpRequest;
use edgstr_sql::{Output, SqlResult, SqlValue};
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;
use std::rc::Rc;

/// The builder `db.query` used before rows waited as cells: columns in key
/// order once (a name given twice keeps its last column), then every row
/// an object, each cell converted through its JSON form.
fn eager_rows_value(output: &Output<'_>) -> (Value, u64) {
    fn key_order<'a>(columns: impl Iterator<Item = (&'a str, usize)>) -> Vec<(Rc<str>, usize)> {
        let mut order: Vec<(&str, usize, usize)> = columns
            .enumerate()
            .map(|(at, (name, cell))| (name, at, cell))
            .collect();
        order.sort_by(|a, b| a.0.cmp(b.0).then(b.1.cmp(&a.1)));
        order.dedup_by(|later, kept| later.0 == kept.0);
        order
            .into_iter()
            .map(|(name, _, cell)| (Rc::from(name), cell))
            .collect()
    }
    fn row_object(keys: &[(Rc<str>, usize)], row: &[SqlValue]) -> Value {
        Value::from(
            keys.iter()
                .map(|(k, cell)| (Rc::clone(k), Value::from_json(&row[*cell].to_json())))
                .collect::<Props>(),
        )
    }
    let rows: Vec<Value> = match output {
        Output::Selected(s) => {
            let keys = key_order(s.columns.iter().copied().zip(s.proj.iter().copied()));
            s.rows.iter().map(|r| row_object(&keys, r)).collect()
        }
        Output::Done(SqlResult::Rows { columns, rows }) => {
            let keys = key_order(columns.iter().map(String::as_str).zip(0..));
            rows.iter().map(|r| row_object(&keys, r)).collect()
        }
        Output::Done(_) => Vec::new(),
    };
    let returned = rows.len() as u64;
    (Value::array(rows), returned)
}

/// Every cell class the conversion and the encoder tell apart: `NULL`,
/// integers at ±2^53±1 and ±2^63, reals at -0, NaN and ±infinity, blobs,
/// and text with quotes, backslashes, control characters and non-ASCII.
fn cell() -> impl Strategy<Value = SqlValue> {
    const INTS: [i64; 12] = [
        0,
        1,
        -1,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        -(1 << 53) - 1,
        -(1 << 53),
        -(1 << 53) + 1,
        i64::MAX,
        i64::MIN,
        i64::MIN + 1,
    ];
    const REALS: [f64; 8] = [
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        9.99,
        -0.25,
        12.0,
        1e300,
    ];
    prop_oneof![
        Just(SqlValue::Null),
        (0usize..INTS.len()).prop_map(|i| SqlValue::Int(INTS[i])),
        (-1000i64..1000).prop_map(SqlValue::Int),
        (0usize..REALS.len()).prop_map(|i| SqlValue::Real(REALS[i])),
        text().prop_map(SqlValue::Text),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(SqlValue::Blob),
    ]
}

/// Text (cells and column names) assembled from fragments so escapes land
/// next to each other; `$bytes` is a column name that announces a size.
fn text() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 11] = [
        "",
        "id",
        "title",
        "'",
        "\"",
        "\\",
        "\n\t\u{1}\u{1f}",
        "naïve ✓",
        "日本\u{1F600}",
        "$bytes",
        "$hash",
    ];
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..3)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// One way a script touches a result, applied to the waiting value and
/// to the oracle alike; each builds the rows.
fn touch(v: &Value, how: usize) {
    let Value::Array(items) = v else {
        panic!("a result set is an array");
    };
    match how {
        0 => drop(index_get(v, &Value::Num(0.0)).unwrap()),
        1 => index_set(v, &Value::Num(1.0), Value::str("set")).unwrap(),
        2 => drop(simple_method(v, "push", &[Value::Null]).unwrap().unwrap()),
        3 => drop(simple_method(v, "pop", &[]).unwrap().unwrap()),
        4 => drop(
            simple_method(v, "indexOf", &[Value::Null])
                .unwrap()
                .unwrap(),
        ),
        5 => drop(v.structural_eq(&Value::array(vec![]))),
        6 => drop(v.deep_clone()),
        7 => drop(v.to_json()),
        8 => v.atoms(&mut Vec::new()),
        _ => drop(items.borrow()),
    }
}

/// The waiting value against the oracle's, untouched and then touched.
fn check(output: &Output<'_>, how: usize) -> Result<(), TestCaseFailure> {
    let (lazy, returned) = rows_value(output);
    let (oracle, oracle_returned) = eager_rows_value(output);
    prop_assert_eq!(returned, oracle_returned);
    let Value::Array(items) = &lazy else {
        panic!("a result set is an array");
    };
    prop_assert!(items.is_waiting() || returned == 0);
    let expected = oracle.encode().unwrap();
    prop_assert_eq!(lazy.encode().unwrap(), expected.clone());
    prop_assert_eq!(lazy.to_string(), expected.0.clone());
    prop_assert_eq!(
        member_get(&lazy, "length").unwrap(),
        member_get(&oracle, "length").unwrap()
    );
    prop_assert!(lazy.is_truthy());
    prop_assert!(
        items.is_waiting() || returned == 0,
        "encoding or length built the rows"
    );
    touch(&lazy, how);
    touch(&oracle, how);
    prop_assert!(!items.is_waiting());
    prop_assert!(lazy.structural_eq(&oracle));
    prop_assert_eq!(lazy.encode().unwrap(), oracle.encode().unwrap());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any column names — repeated, escaped, `$bytes` — over any cells.
    #[test]
    fn a_waiting_result_is_the_eager_one(
        columns in prop::collection::vec(text(), 0..5),
        rows in prop::collection::vec(prop::collection::vec(cell(), 0..6), 0..5),
        how in 0usize..10,
    ) {
        let width = columns.len();
        let rows = rows
            .into_iter()
            .map(|mut row| {
                row.resize(width, SqlValue::Null);
                row
            })
            .collect();
        check(&Output::Done(SqlResult::Rows { columns, rows }), how)?;
    }

    /// Rows lent by a table scan, through `SELECT *`, a projection that
    /// names a column twice, a filter, an order, a limit and no rows at
    /// all; and what `res.send` serves of them on both engines.
    #[test]
    fn a_selected_result_is_the_eager_one(
        rows in prop::collection::vec(prop::collection::vec(cell(), 4..5), 0..6),
        select in 0usize..SELECTS.len(),
        how in 0usize..10,
    ) {
        for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
            let mut server = ServerProcess::from_source_with_mode(TABLE, mode).unwrap();
            server.init().unwrap();
            for (id, cells) in rows.iter().enumerate() {
                let mut row = vec![SqlValue::Int(id as i64)];
                row.extend(cells.iter().cloned());
                server.db.upsert_row("t", row).unwrap();
            }
            let sql = SELECTS[select];
            let response = server
                .handle(&HttpRequest::get("/q", json!({ "sql": sql })))
                .unwrap()
                .response;
            let stmt = server.db.prepare(sql).unwrap();
            let (output, _) = server.db.exec_lent(&stmt).unwrap();
            let (text, size) = eager_rows_value(&output).0.encode().unwrap();
            prop_assert_eq!(response.body.text(), text.as_str());
            prop_assert_eq!(response.size(), 64 + size);
            check(&output, how)?;
        }
    }
}

const TABLE: &str = r#"
    db.query("CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b REAL, c INT, d BLOB)");
    app.get("/q", function (req, res) { res.send(db.query(req.params.sql)); });
"#;

const SELECTS: [&str; 7] = [
    "SELECT * FROM t",
    "SELECT d, id, d FROM t ORDER BY id",
    "SELECT b, a FROM t WHERE id < 3",
    "SELECT c, a FROM t ORDER BY a",
    "SELECT * FROM t WHERE id > 99",
    "SELECT a, id FROM t ORDER BY b LIMIT 2",
    "SELECT id FROM t",
];

/// Four rows whose cells cover what the encoder tells apart: integers and
/// reals, a `NULL`, blobs, and text with a quote, a backslash and
/// non-ASCII.
const SHELF: &str = r#"
    db.query("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, price REAL, stock INT, cover BLOB)");
    db.query("INSERT INTO books VALUES (1, 'Dune', 9.99, 12, X'0aff')");
    db.query("INSERT INTO books VALUES (2, 'It''s \\ done', 7.5, 3, NULL)");
    db.query("INSERT INTO books VALUES (3, 'naïve ✓', 12.0, 0, X'')");
    db.query("INSERT INTO books VALUES (4, NULL, -0.25, 5, X'00')");
    var kept = db.query("SELECT id, title FROM books WHERE id < 3 ORDER BY id");
    var seen = 0;

    app.get("/length", function (req, res) {
        var rows = db.query("SELECT * FROM books");
        res.send({ n: rows.length, some: !rows, also: rows && 1 });
    });
    app.get("/send", function (req, res) {
        res.send(db.query("SELECT * FROM books ORDER BY id"));
    });
    app.get("/nested", function (req, res) {
        var rows = db.query("SELECT id, price, stock FROM books");
        res.send({ version: 7, books: rows });
    });
    app.get("/in_array", function (req, res) {
        var rows = db.query("SELECT title, id FROM books WHERE stock > 2");
        res.send([rows, 1, [rows]]);
    });
    app.get("/twice", function (req, res) {
        var rows = db.query("SELECT cover, id FROM books");
        res.send({ a: rows, b: rows });
        res.send([rows, rows]);
    });
    app.get("/none", function (req, res) {
        var rows = db.query("SELECT * FROM books WHERE id > 99");
        res.send({ rows: rows, n: rows.length });
    });
    app.get("/index", function (req, res) {
        var rows = db.query("SELECT * FROM books ORDER BY id");
        res.send({ second: rows[1], title: rows[2].title, past: rows[9], rows: rows });
    });
    app.get("/mutate", function (req, res) {
        var rows = db.query("SELECT id, title, stock FROM books ORDER BY id");
        rows[0].title = "changed";
        rows[1].extra = [1, 2];
        rows[3] = "gone";
        rows[6] = 6;
        res.send(rows);
    });
    app.get("/push_pop", function (req, res) {
        var rows = db.query("SELECT id, stock FROM books ORDER BY id");
        var n = rows.push({ id: 9 }, "x");
        var last = rows.pop();
        var row = rows.pop();
        rows.pop();
        res.send({ n: n, last: last, row: row, rows: rows, len: rows.length });
    });
    app.get("/iterate", function (req, res) {
        var rows = db.query("SELECT id, title, stock FROM books ORDER BY id");
        var total = 0;
        rows.forEach(function (row, i) { total = total + row.stock + i; });
        var ids = rows.map(function (row) { return row.id * 10; });
        var low = rows.filter(function (row) { return row.stock < 5; });
        res.send({ total: total, ids: ids, low: low, joined: ids.join("-"), part: rows.slice(1, 3) });
    });
    app.get("/index_of", function (req, res) {
        var rows = db.query("SELECT id, title FROM books ORDER BY id");
        var again = db.query("SELECT id, title FROM books ORDER BY id");
        var other = db.query("SELECT id FROM books ORDER BY id");
        res.send({
            at: rows.indexOf(again[2]),
            missing: rows.indexOf(other[0]),
            whole: [other, again].indexOf(rows),
            same: rows == again,
            differ: rows != other
        });
    });
    app.get("/stringify", function (req, res) {
        var rows = db.query("SELECT * FROM books ORDER BY id");
        res.send({ json: JSON.stringify(rows), n: rows.length });
    });
    app.get("/concat", function (req, res) {
        var rows = db.query("SELECT id, title, cover FROM books ORDER BY id");
        res.send({ text: "rows: " + rows, back: rows + "!" });
    });
    app.get("/keep", function (req, res) {
        kept = db.query("SELECT id, stock FROM books ORDER BY id");
        res.send({ kept: kept.length });
    });
    app.get("/restock", function (req, res) {
        db.query("UPDATE books SET stock = 40 WHERE id = 1");
        res.send({ ok: 1 });
    });
    app.get("/kept", function (req, res) {
        seen = seen + 1;
        res.send({ seen: seen, kept: kept });
    });
    app.get("/spoil", function (req, res) {
        kept[0].stock = -1;
        kept.push("junk");
        kept[1] = null;
        seen = 100;
        var boom = kept.missing.field;
        res.send(kept);
    });
"#;

/// `(route, text, size, digest, cycles)`: a size is what `HttpResponse::size`
/// reports, LAN framing included.
type Pin = (&'static str, &'static str, usize, u64, u64);

/// The requests in order, with what each served. `/spoil` fails, and the
/// checkpoint armed before it is rolled back, so the `/kept` after it
/// serves what the one before it did.
const PINS: &[Pin] = &[
    (
        "/length",
        r#"{"also":1,"n":4,"some":false}"#,
        105,
        0x448ef4b00c05482,
        73750,
    ),
    (
        "/send",
        r#"[{"cover":"0x0aff","id":1,"price":9.99,"stock":12,"title":"Dune"},{"cover":null,"id":2,"price":7.5,"stock":3,"title":"It's \\ done"},{"cover":"0x","id":3,"price":12,"stock":0,"title":"naïve ✓"},{"cover":"0x00","id":4,"price":-0.25,"stock":5,"title":null}]"#,
        379,
        0xd1efa79a951aac9,
        72850,
    ),
    (
        "/nested",
        r#"{"books":[{"id":1,"price":9.99,"stock":12},{"id":2,"price":7.5,"stock":3},{"id":3,"price":12,"stock":0},{"id":4,"price":-0.25,"stock":5}],"version":7}"#,
        286,
        0x9a2dc7aec9a080f5,
        73500,
    ),
    (
        "/in_array",
        r#"[[{"id":1,"title":"Dune"},{"id":2,"title":"It's \\ done"},{"id":4,"title":null}],1,[[{"id":1,"title":"Dune"},{"id":2,"title":"It's \\ done"},{"id":4,"title":null}]]]"#,
        274,
        0xe8e3fd21218490a2,
        70600,
    ),
    (
        "/twice",
        r#"[[{"cover":"0x0aff","id":1},{"cover":null,"id":2},{"cover":"0x","id":3},{"cover":"0x00","id":4}],[{"cover":"0x0aff","id":1},{"cover":null,"id":2},{"cover":"0x","id":3},{"cover":"0x00","id":4}]]"#,
        308,
        0x11eff514d782bd49,
        74350,
    ),
    (
        "/none",
        r#"{"n":0,"rows":[]}"#,
        87,
        0xa3f17b31944ba220,
        64550,
    ),
    (
        "/index",
        r#"{"past":null,"rows":[{"cover":"0x0aff","id":1,"price":9.99,"stock":12,"title":"Dune"},{"cover":null,"id":2,"price":7.5,"stock":3,"title":"It's \\ done"},{"cover":"0x","id":3,"price":12,"stock":0,"title":"naïve ✓"},{"cover":"0x00","id":4,"price":-0.25,"stock":5,"title":null}],"second":{"cover":null,"id":2,"price":7.5,"stock":3,"title":"It's \\ done"},"title":"naïve ✓"}"#,
        508,
        0x8282cd1c1a323dde,
        73950,
    ),
    (
        "/mutate",
        r#"[{"id":1,"stock":12,"title":"changed"},{"extra":[1,2],"id":2,"stock":3,"title":"It's \\ done"},{"id":3,"stock":0,"title":"naïve ✓"},"gone",null,null,6]"#,
        274,
        0x111820df0bfa0ffc,
        76200,
    ),
    (
        "/push_pop",
        r#"{"last":"x","len":3,"n":6,"row":{"id":9},"rows":[{"id":1,"stock":12},{"id":2,"stock":3},{"id":3,"stock":0}]}"#,
        228,
        0x6cee978364d63b39,
        76250,
    ),
    (
        "/iterate",
        r#"{"ids":[10,20,30,40],"joined":"10-20-30-40","low":[{"id":2,"stock":3,"title":"It's \\ done"},{"id":3,"stock":0,"title":"naïve ✓"}],"part":[{"id":2,"stock":3,"title":"It's \\ done"},{"id":3,"stock":0,"title":"naïve ✓"}],"total":26}"#,
        375,
        0x3a3811f38c3d340c,
        85200,
    ),
    (
        "/index_of",
        r#"{"at":2,"differ":true,"missing":-1,"same":true,"whole":1}"#,
        139,
        0x88b16eb9fe439934,
        219750,
    ),
    (
        "/stringify",
        r#"{"json":"[{\"cover\":\"0x0aff\",\"id\":1,\"price\":9.99,\"stock\":12,\"title\":\"Dune\"},{\"cover\":null,\"id\":2,\"price\":7.5,\"stock\":3,\"title\":\"It's \\\\ done\"},{\"cover\":\"0x\",\"id\":3,\"price\":12,\"stock\":0,\"title\":\"naïve ✓\"},{\"cover\":\"0x00\",\"id\":4,\"price\":-0.25,\"stock\":5,\"title\":null}]","n":4}"#,
        345,
        0x94803ffce7f09a1f,
        73750,
    ),
    (
        "/concat",
        r#"{"back":"[{\"cover\":\"0x0aff\",\"id\":1,\"title\":\"Dune\"},{\"cover\":null,\"id\":2,\"title\":\"It's \\\\ done\"},{\"cover\":\"0x\",\"id\":3,\"title\":\"naïve ✓\"},{\"cover\":\"0x00\",\"id\":4,\"title\":null}]!","text":"rows: [{\"cover\":\"0x0aff\",\"id\":1,\"title\":\"Dune\"},{\"cover\":null,\"id\":2,\"title\":\"It's \\\\ done\"},{\"cover\":\"0x\",\"id\":3,\"title\":\"naïve ✓\"},{\"cover\":\"0x00\",\"id\":4,\"title\":null}]"}"#,
        425,
        0x3dd386f62f0ca0fd,
        73700,
    ),
    (
        "/kept",
        r#"{"kept":[{"id":1,"title":"Dune"},{"id":2,"title":"It's \\ done"}],"seen":1}"#,
        157,
        0x3fd1f34a5964ca5d,
        1500,
    ),
    ("/keep", r#"{"kept":4}"#, 81, 0x84f4b80b2226f2df, 73500),
    ("/restock", r#"{"ok":1}"#, 79, 0xe722c17024d01c68, 64450),
    (
        "/kept",
        r#"{"kept":[{"id":1,"stock":12},{"id":2,"stock":3},{"id":3,"stock":0},{"id":4,"stock":5}],"seen":2}"#,
        218,
        0x603e24f1278bc4d9,
        1500,
    ),
    (
        "/spoil",
        r#"error: runtime error: runtime error at s76: cannot read field 'field' of null"#,
        0,
        0x0,
        0,
    ),
    (
        "/kept",
        r#"{"kept":[{"id":1,"stock":12},{"id":2,"stock":3},{"id":3,"stock":0},{"id":4,"stock":5}],"seen":3}"#,
        218,
        0x604120f1278df3e4,
        1500,
    ),
];

fn serve(mode: ExecMode) -> Vec<(String, String, usize, u64, u64)> {
    let mut server = ServerProcess::from_source_with_mode(SHELF, mode).unwrap();
    server.init().unwrap();
    let mut served = Vec::new();
    for route in [
        "/length",
        "/send",
        "/nested",
        "/in_array",
        "/twice",
        "/none",
        "/index",
        "/mutate",
        "/push_pop",
        "/iterate",
        "/index_of",
        "/stringify",
        "/concat",
        "/kept",
        "/keep",
        "/restock",
        "/kept",
        "/spoil",
        "/kept",
    ] {
        if route == "/spoil" {
            server.begin_checkpoint();
        }
        match server.handle(&HttpRequest::get(route, json!({}))) {
            Ok(out) => served.push((
                route.to_string(),
                out.response.body.text().to_string(),
                out.response.size(),
                out.response.digest(),
                out.cycles,
            )),
            Err(e) => {
                served.push((route.to_string(), format!("error: {e}"), 0, 0, 0));
                server.rollback_checkpoint();
                server.end_checkpoint();
            }
        }
    }
    served
}

#[test]
fn every_use_of_a_result_serves_its_pinned_response_on_both_engines() {
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let served = serve(mode);
        assert_eq!(served.len(), PINS.len());
        for (got, pin) in served.iter().zip(PINS) {
            let (route, text, size, digest, cycles) = *pin;
            assert_eq!(got.0, route);
            assert_eq!(got.1, text, "{route} on {mode:?}");
            assert_eq!(got.2, size, "{route} on {mode:?}");
            assert_eq!(got.3, digest, "{route} on {mode:?}");
            assert_eq!(got.4, cycles, "{route} on {mode:?}");
        }
    }
}
