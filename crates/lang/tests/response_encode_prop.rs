//! A response is encoded straight from the script value: its text and its
//! size from one walk (`Value::encode`; `serde_json::to_string(&v)` is the
//! same walk's text) and the `Body` built from the two. The path this
//! replaced — build the JSON tree with `Value::to_json`, then print and
//! size the tree — is the oracle: same bytes, same size, and the body's
//! lazily parsed tree is the tree the old path would have held.

use edgstr_analysis::{ExecMode, ServerProcess};
use edgstr_lang::{Closure, Value};
use edgstr_net::{json_size, Body, HttpRequest};
use proptest::prelude::*;
use std::rc::Rc;

/// Text (and keys) with quotes, backslashes, control characters and
/// non-ASCII, assembled from fragments so escapes land next to each other.
fn text() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 12] = [
        "",
        "title",
        "\"",
        "\\",
        "\n\r\t",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "\u{7f}",
        "naïve ✓",
        "日本語\u{1F600}",
        " ",
        "$bytes",
        "$hash",
    ];
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// Every number class the encoder distinguishes: the integer/float split
/// at 9e15 from both sides, negative zero, non-integral, huge, tiny and
/// non-finite values, and decimals of up to six places on both sides of
/// the scaled-integer float writer's range.
fn number() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 20] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.25,
        0.1,
        8_999_999_999_999_999.0,
        -8_999_999_999_999_999.0,
        9e15,
        -9e15,
        9_000_000_000_000_002.0,
        1e16,
        1e300,
        -1e300,
        1e-300,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    prop_oneof![
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64 / 64.0),
        (-1_000_000_000_000_000i64..1_000_000_000_000_000, 0i32..7)
            .prop_map(|(n, k)| n as f64 / 10f64.powi(k)),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        number().prop_map(Value::Num),
        text().prop_map(Value::from),
        prop::collection::vec(any::<u8>(), 0..40).prop_map(Value::bytes),
        Just(Value::Native("db".into())),
        Just(Value::Function(Rc::new(Closure {
            name: None,
            params: vec![],
            body: vec![],
            compiled: None,
        }))),
    ]
}

/// One level of containers over `inner`. Objects sometimes carry a
/// `$bytes` key of their own — numeric (the size rule fires on a
/// non-negative integer only) or not.
fn container(inner: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    let fields = || prop::collection::vec((text(), inner.clone()), 0..4);
    prop_oneof![
        inner.clone(),
        prop::collection::vec(inner.clone(), 0..4).prop_map(Value::array),
        fields().prop_map(Value::object),
        (fields(), number()).prop_map(|(mut fields, n)| {
            fields.push(("$bytes".to_string(), Value::Num(n)));
            Value::object(fields)
        }),
        (fields(), inner.clone()).prop_map(|(mut fields, v)| {
            fields.push(("$bytes".to_string(), v));
            Value::object(fields)
        }),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    let mut s = leaf().boxed();
    for _ in 0..3 {
        s = container(s);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_encoding_equals_the_tree_path(v in value()) {
        let tree = v.to_json();
        let (text, size) = v.encode();
        prop_assert_eq!(&text, &serde_json::to_string(&tree).unwrap());
        prop_assert_eq!(size, json_size(&tree));
        prop_assert_eq!(&serde_json::to_string(&v).unwrap(), &text);
        // what a script sees of a container is the same text
        if matches!(v, Value::Array(_) | Value::Object(_)) {
            prop_assert_eq!(&v.to_string(), &text);
        }
        // the body built from the encoding is the body built from the tree
        let body = Body::encoded(text.clone(), size);
        prop_assert!(!body.is_parsed());
        prop_assert_eq!(body.text(), text.as_str());
        prop_assert_eq!(body.json_size(), json_size(&tree));
        prop_assert_eq!(&body, &Body::from(tree.clone()));
        prop_assert!(!body.is_parsed(), "sizing, text and equality parsed the body");
        // and the lazy parse gives the tree back
        prop_assert_eq!(&*body, &tree);
        prop_assert!(body.is_parsed());
        prop_assert_eq!(body.into_json(), tree);
    }
}

/// The property above moves with `Value::to_json`; these vectors do not.
/// Each is `(value, text, size)` as the wire has carried it since the
/// JSON-tree path defined it.
#[test]
fn golden_vectors() {
    let hash = edgstr_lang::fnv1a(&[1, 2, 3]);
    let cases: Vec<(Value, String, usize)> = vec![
        (Value::Null, "null".into(), 4),
        (Value::Bool(false), "false".into(), 5),
        (Value::Num(-0.0), "0".into(), 8),
        (Value::Num(-12.0), "-12".into(), 8),
        (Value::Num(2.5), "2.5".into(), 8),
        // the integer form stops short of 9e15, on both sides of zero
        (
            Value::Num(8_999_999_999_999_999.0),
            "8999999999999999".into(),
            8,
        ),
        (Value::Num(9e15), "9000000000000000.0".into(), 8),
        (Value::Num(-9e15), "-9000000000000000.0".into(), 8),
        (Value::Num(1e300), "1e300".into(), 8),
        (Value::Num(f64::NAN), "null".into(), 4),
        (Value::Num(f64::NEG_INFINITY), "null".into(), 4),
        (Value::Native("db".into()), "null".into(), 4),
        (
            Value::str("a\"b\\c\n\u{1}\u{e9}"),
            "\"a\\\"b\\\\c\\n\\u0001\u{e9}\"".into(),
            // bytes, not characters: 9 + the two quotes
            11,
        ),
        (
            Value::bytes(vec![1, 2, 3]),
            format!(r#"{{"$bytes":3,"$hash":{hash}}}"#),
            3,
        ),
        (
            Value::object([("$bytes", Value::Num(7.0)), ("x", Value::str("y"))]),
            r#"{"$bytes":7,"x":"y"}"#.into(),
            7,
        ),
        (
            Value::object([("$bytes", Value::Num(-7.0))]),
            r#"{"$bytes":-7}"#.into(),
            2 + 6 + 3 + 8,
        ),
        (
            Value::array(vec![
                Value::object([("k\"", Value::array(vec![]))]),
                Value::Null,
            ]),
            r#"[{"k\"":[]},null]"#.into(),
            2 + (2 + 2 + 3 + 2 + 1) + (4 + 1),
        ),
        // a repeated key keeps its last value, whatever the order given
        (
            Value::object([
                ("b", Value::Num(1.0)),
                ("a", Value::Null),
                ("b", Value::Num(3.0)),
            ]),
            r#"{"a":null,"b":3}"#.into(),
            2 + (1 + 3 + 4) + (1 + 3 + 8),
        ),
        // both sides of every edge of the scaled-integer float writer
        (Value::Num(0.0001), "0.0001".into(), 8),
        (Value::Num(1e-5), "1e-5".into(), 8),
        (Value::Num(99_999_999_999.5), "99999999999.5".into(), 8),
        (Value::Num(1e11 + 0.5), "100000000000.5".into(), 8),
        (Value::Num(-0.25), "-0.25".into(), 8),
        (Value::Num(9.99), "9.99".into(), 8),
        (Value::Num(0.12345), "0.12345".into(), 8),
        (Value::Num(1.0 / 3.0), "0.3333333333333333".into(), 8),
        (Value::Num(1e21), "1e21".into(), 8),
    ];
    for (v, text, size) in cases {
        assert_eq!(v.encode(), (text.clone(), size), "{text}");
        assert_eq!(serde_json::to_string(&v).unwrap(), text);
    }
    // what `res.send` serves, on both engines: `(route, text, size, digest)`
    let served = [
        ("/literal", r#"{"a":2,"b":3}"#, 26, 0xe44f_0c38_325f_0d6d),
        (
            "/twice",
            r#"[{"id":1,"price":9.99},{"id":2,"price":0.25}]"#,
            66,
            0x9952_fdd9_2d8b_bd38,
        ),
        (
            "/star",
            r#"[{"id":1,"name":"ink","price":9.99},{"id":2,"name":"pen","price":0.25}]"#,
            90,
            0x328a_b870_01ac_c33f,
        ),
        (
            "/reordered",
            r#"[{"id":1,"name":"ink","price":9.99},{"id":2,"name":"pen","price":0.25}]"#,
            90,
            0x328a_b870_01ac_c33f,
        ),
    ];
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut server = ServerProcess::from_source_with_mode(SHOP, mode).unwrap();
        server.init().unwrap();
        for (route, text, size, digest) in served {
            let response = server
                .handle(&HttpRequest::get(route, serde_json::json!({})))
                .unwrap()
                .response;
            assert_eq!(response.body.text(), text, "{route} on {mode:?}");
            assert_eq!(response.size(), 64 + size, "{route} on {mode:?}");
            assert_eq!(response.digest(), digest, "{route} on {mode:?}");
        }
    }
}

/// A repeated literal key keeps its last value; a column named twice
/// appears once; `SELECT *` and the same columns in another order print
/// alike — keys in byte order every time.
const SHOP: &str = r#"
    db.query("CREATE TABLE items (id INT PRIMARY KEY, name TEXT, price REAL)");
    db.query("INSERT INTO items VALUES (2, 'pen', 0.25)");
    db.query("INSERT INTO items VALUES (1, 'ink', 9.99)");
    app.get("/literal", function (req, res) { res.send({ b: 1, a: 2, b: 3 }); });
    app.get("/twice", function (req, res) {
        res.send(db.query("SELECT price, id, price FROM items ORDER BY id"));
    });
    app.get("/star", function (req, res) { res.send(db.query("SELECT * FROM items")); });
    app.get("/reordered", function (req, res) {
        res.send(db.query("SELECT price, name, id FROM items"));
    });
"#;
