//! The wire and image codec: every change survives `encode` → `decode`
//! bit for bit, `wire_size` is the encoded length (and travels with
//! clones without entering equality), and `decode` treats its input as
//! hostile — arbitrary bytes and truncated encodings are a
//! `CrdtError::CorruptChange`, never a panic and never a collection sized
//! for more elements than the input could encode. Op tags no op has any
//! more (0, 1 and 4-7, once map, list and counter ops) and images of an
//! earlier layout version are hostile input too. A save image is held to
//! the same: `load(save(d))` is `d`, `save(load(b))` is `b`, and every
//! other `b` is a typed error.

use edgstr_crdt::wire::MAX_DEPTH;
use edgstr_crdt::{ActorId, Cell, Change, CrdtError, Doc, Op, OpId, Row, VClock, Value};
use edgstr_runtime::SetSyncMessage;
use proptest::prelude::*;
use serde_json::{json, Value as Json};

/// Counters and actors from one varint byte up to ten.
fn wide() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..130,
        16_000u64..17_000,
        any::<u64>(),
        Just(u64::MAX),
        Just(1u64 << 63),
    ]
}

fn op_id() -> impl Strategy<Value = OpId> {
    (wide(), wide()).prop_map(|(counter, actor)| OpId::new(counter, ActorId(actor)))
}

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE / 4.0), // subnormal
        Just(-5e-324),                 // the smallest subnormal
        Just(f64::MAX),
        Just(f64::EPSILON),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64 / 64.0),
        // any finite bit pattern
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                1.5
            }
        }),
    ]
}

fn text() -> impl Strategy<Value = String> {
    (0usize..8, 0u32..5000).prop_map(|(i, n)| {
        let stem = [
            "",
            "k",
            "rows",
            "päth/",
            "\"",
            "naïve ✓",
            "𝄞 clef 🦀",
            "\u{0}\n\\",
        ][i];
        if n % 3 == 0 {
            stem.to_string()
        } else {
            format!("{stem}{n}")
        }
    })
}

fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::from),
        any::<u64>().prop_map(Json::from),
        any::<i64>().prop_map(Json::from),
        Just(json!(i64::MIN)),
        Just(json!(u64::MAX)),
        float().prop_map(Json::from),
        text().prop_map(Json::from),
        (any::<i64>(), text(), float())
            .prop_map(|(n, s, f)| json!({"id": n, "🦀": [s, f], "": {}})),
    ]
}

/// A leaf wrapped `depth` times, arrays and objects alternating.
fn nested(depth: usize, leaf: Json) -> Json {
    (0..depth).fold(leaf, |inner, level| {
        if level % 2 == 0 {
            json!([inner, level])
        } else {
            json!({ "in": inner, "𝄞": level })
        }
    })
}

fn scalar() -> impl Strategy<Value = Json> {
    (leaf(), 0usize..6, any::<bool>()).prop_map(|(leaf, depth, deep)| {
        // one case in two goes to the full depth the issue names
        nested(if deep { 32 } else { depth }, leaf)
    })
}

fn preds() -> impl Strategy<Value = Vec<OpId>> {
    prop::collection::vec(op_id(), 0..4)
}

/// Column lists: a few shared ones, so a change's rows share key-table
/// entries, and arbitrary ones.
fn columns() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        Just(vec!["id".to_string(), "title".to_string()]),
        Just(vec![]),
        Just(vec!["a".to_string(), "a".to_string(), "ü".to_string()]),
        prop::collection::vec(text(), 0..4),
    ]
}

fn cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        wide().prop_map(|n| Cell::Int(n as i64)),
        // every bit pattern, NaNs and infinities included
        any::<u64>().prop_map(|bits| Cell::Real(f64::from_bits(bits))),
        float().prop_map(Cell::Real),
        text().prop_map(Cell::Text),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(Cell::Blob),
    ]
}

/// A row under one of the column lists, as many cells as it has columns.
fn row() -> impl Strategy<Value = Row> {
    (columns(), prop::collection::vec(cell(), 3..4)).prop_map(|(columns, cells)| {
        let cells = cells[..columns.len()].into();
        Row::new(columns.into(), cells)
    })
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        row().prop_map(Value::Row),
        row().prop_map(Value::Row),
        prop::collection::vec(any::<u8>(), 0..12).prop_map(|b| Value::File(b.into())),
        scalar().prop_map(Value::Json),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (op_id(), text(), value(), preds()).prop_map(|(id, key, value, pred)| Op::Put {
            id,
            key: key.into(),
            value,
            pred,
        }),
        (op_id(), text(), preds()).prop_map(|(id, key, pred)| Op::Del {
            id,
            key: key.into(),
            pred
        }),
    ]
}

fn clock() -> impl Strategy<Value = VClock> {
    prop::collection::vec((wide(), wide()), 0..5).prop_map(|pairs| {
        let mut clock = VClock::new();
        for (a, s) in pairs {
            clock.observe(ActorId(a), s);
        }
        clock
    })
}

fn change() -> impl Strategy<Value = Change> {
    (wide(), wide(), clock(), prop::collection::vec(op(), 0..8))
        .prop_map(|(actor, seq, deps, ops)| Change::new(ActorId(actor), seq, deps, ops))
}

fn encoded(c: &Change) -> Vec<u8> {
    let mut out = Vec::new();
    c.encode(&mut out);
    out
}

fn is_corrupt<T>(r: &Result<T, CrdtError>) -> bool {
    matches!(r, Err(CrdtError::CorruptChange(_)))
}

fn put(n: u64, key: &str, value: Value, pred: Vec<OpId>) -> Op {
    Op::Put {
        id: OpId::new(n, ActorId(7)),
        key: key.into(),
        value,
        pred,
    }
}

fn row_of(columns: &[&str], cells: Vec<Cell>) -> Value {
    Value::Row(Row::new(
        columns.iter().map(|c| c.to_string()).collect(),
        cells.into(),
    ))
}

/// One change of every `Op` variant, every `Value` and every `Cell`, and
/// rows that share a column list and rows that do not.
fn one_of_each() -> Change {
    let id = |n| OpId::new(n, ActorId(7));
    let mut deps = VClock::new();
    deps.observe(ActorId(1), 3);
    deps.observe(ActorId(7), 41);
    deps.observe(ActorId(u64::MAX), u64::MAX);
    let cells = vec![
        Cell::Null,
        Cell::Int(i64::MIN),
        Cell::Real(-0.0),
        Cell::Real(f64::NAN),
        Cell::Text("naïve".into()),
        Cell::Blob(vec![0x0a, 0xff]),
    ];
    let columns = ["n", "i", "z", "nan", "t", "b"];
    Change::new(
        ActorId(7),
        42,
        deps,
        vec![
            put(
                1,
                "𝄞",
                row_of(&columns, cells.clone()),
                vec![id(900), OpId::new(u64::MAX, ActorId(u64::MAX))],
            ),
            put(2, "", Value::File(vec![0, 1, 255].into()), vec![]),
            put(3, "deep", Value::Json(nested(32, json!(-0.0))), vec![id(2)]),
            put(4, "again", row_of(&columns, cells), vec![]),
            put(5, "empty", row_of(&[], vec![]), vec![]),
            put(6, "f", Value::File(Vec::new().into()), vec![]),
            Op::Del {
                id: id(8),
                key: "deep".into(),
                pred: vec![id(3), OpId::new(0, ActorId(0))],
            },
        ],
    )
}

#[test]
fn every_variant_round_trips_and_every_prefix_is_corrupt() {
    let c = one_of_each();
    let bytes = encoded(&c);
    assert_eq!(bytes.len(), c.wire_size());
    let (back, rest) = Change::decode(&bytes).unwrap();
    assert!(rest.is_empty());
    assert_eq!(back, c);
    // the NaN's bits, −0.0's sign and every other bit survived
    assert_eq!(encoded(&back), bytes);
    assert_eq!(back.wire_size(), bytes.len());
    for cut in 0..bytes.len() {
        assert!(is_corrupt(&Change::decode(&bytes[..cut])), "prefix {cut}");
    }
}

/// The layout table of DESIGN.md "Sync wire format", byte for byte: every
/// op, value, cell and scalar tag once, a key table of two column lists
/// and a row that reuses one, with small operands so each field is
/// legible. A format change has to change this vector.
#[test]
fn the_layout_is_the_documented_one() {
    let id = |n| OpId::new(n, ActorId(2));
    let mut deps = VClock::new();
    deps.observe(ActorId(1), 300);
    let c = Change::new(
        ActorId(2),
        5,
        deps,
        vec![
            Op::Put {
                id: id(3),
                key: "ü".into(),
                value: row_of(&["id", "t"], vec![Cell::Int(-3), Cell::Text("a".into())]),
                pred: vec![id(9)],
            },
            Op::Put {
                id: id(4),
                key: "f".into(),
                value: Value::File(vec![0x0a, 0xff].into()),
                pred: vec![],
            },
            Op::Put {
                id: id(5),
                key: "g".into(),
                value: Value::Json(json!([null, false, true, 200, -3, 1.5, "a", {"b": []}])),
                pred: vec![id(4), id(2)],
            },
            Op::Put {
                id: id(6),
                key: "r".into(),
                value: row_of(&["id", "t"], vec![Cell::Real(1.5), Cell::Blob(vec![])]),
                pred: vec![],
            },
            Op::Put {
                id: id(7),
                key: "n".into(),
                value: row_of(&["v"], vec![Cell::Null]),
                pred: vec![],
            },
            Op::Del {
                id: id(8),
                key: "k".into(),
                pred: vec![id(3)],
            },
        ],
    );
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        2, 5,                         // actor, seq
        1, 1, 0xac, 0x02,             // deps: one pair, actor 1 -> seq 300
        2,                            // key table: two column lists
            2, 2, b'i', b'd', 1, b't', //   ["id", "t"]
            1, 1, b'v',               //   ["v"]
        6,                            // six ops
        2, 3, 2, 2, 0xc3, 0xbc,       // Put 3@2, key "ü" ...
            0, 0,                     //   value: row, column list 0
            1, 5,                     //     int -3, zig-zag 5
            3, 1, b'a',               //     text "a"
            1, 9, 2,                  //   pred: [9@2]
        2, 4, 2, 1, b'f',             // Put 4@2, key "f" ...
            1, 2, 0x0a, 0xff,         //   value: file, two bytes
            0,                        //   no pred
        2, 5, 2, 1, b'g',             // Put 5@2, key "g" ...
            2, 7, 8,                  //   value: JSON, array of eight
            0, 1, 2,                  //     null, false, true
            3, 0xc8, 0x01,            //     uint 200
            4, 5,                     //     int -3, zig-zag 5
            5, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // f64 1.5, little-endian bits
            6, 1, b'a',               //     string "a"
            8, 1, 1, b'b', 7, 0,      //     object {"b": []}
            2, 4, 2, 2, 2,            //   pred: [4@2, 2@2]
        2, 6, 2, 1, b'r',             // Put 6@2, key "r" ...
            0, 0,                     //   value: row, column list 0 again
            2, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // real 1.5
            4, 0,                     //     blob, no bytes
            0,                        //   no pred
        2, 7, 2, 1, b'n',             // Put 7@2, key "n" ...
            0, 1, 0,                  //   value: row, column list 1, null
            0,                        //   no pred
        3, 8, 2, 1, b'k', 1, 3, 2,    // Del 8@2, key "k", pred [3@2]
    ];
    assert_eq!(encoded(&c), want);
    assert_eq!(Change::decode(&want).unwrap().0, c);
}

/// Tags 0, 1 and 4-7 were the map, list and counter ops: make a map, make
/// a list, insert an element, overwrite one, delete one, and add to a
/// counter. No replica writes them; a change carrying one, in the layout
/// it had, is refused like any unknown tag — and so are images of layout
/// versions 3 and 4, which held containers, and 5, which kept one op
/// counter for all keys.
#[test]
fn retired_tags_and_images_are_corrupt() {
    // actor 2, seq 5, no deps, no key table, one op
    let change = |op: &[u8]| [&[2, 5, 0, 0, 1][..], op].concat();
    assert!(
        Change::decode(&change(&[3, 1, 2, 1, b'k', 0])).is_ok(),
        "Del 1@2 k"
    );
    #[rustfmt::skip]
    let retired: [&[u8]; 6] = [
        &[0, 1, 2],                                   // make map 1@2
        &[1, 2, 2],                                   // make list 2@2
        &[4, 5, 2, 1, 2, 2, 0, 0, 0],                 // insert 5@2 into 2@2 at the head, null
        &[5, 6, 2, 1, 2, 2, 5, 2, 0, 3, 0, 1, 5, 2],  // overwrite 6@2 in 2@2, element 5@2, 0, pred [5@2]
        &[6, 8, 2, 1, 2, 2, 7, 2],                    // delete 8@2 in 2@2, element 7@2
        &[7, 10, 2, 0, 1, b'n', 3],                   // add 10@2 root "n" -2
    ];
    for op in retired {
        assert!(is_corrupt(&Change::decode(&change(op))), "{op:?}");
        // after an op that decodes, too
        let two = [&[2, 5, 0, 0, 2, 3, 1, 2, 1, b'k', 0][..], op].concat();
        assert!(is_corrupt(&Change::decode(&two)), "{op:?} second");
    }
    // the smallest images of layouts 3 and 4: clocks and counter empty, a
    // root map with no entries, no tail
    let v3 = b"EDG\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00";
    let v4 = b"EDG\x04\x00\x00\x00\x01\x00\x00\x00";
    let v5 = b"EDG\x05\x00\x00\x00\x00\x00\x00";
    for retired in [&v3[..], v4, v5] {
        assert!(is_corrupt(&Doc::load(ActorId(1), retired)), "{retired:?}");
    }
    let v6 = b"EDG\x06\x00\x00\x00\x00\x00\x00";
    assert_eq!(Doc::load(ActorId(1), v6).unwrap().save(), v6);
}

#[test]
fn unknown_tags_are_corrupt() {
    let c = Change::new(
        ActorId(1),
        1,
        VClock::new(),
        vec![Op::Put {
            id: OpId::new(1, ActorId(1)),
            key: "k".into(),
            value: Value::Json(json!(7)),
            pred: vec![],
        }],
    );
    let bytes = encoded(&c);
    // actor seq deps keys n | op-tag id id len 'k' value-tag scalar-tag
    assert_eq!(bytes[..12], [1, 1, 0, 0, 1, 2, 1, 1, 1, b'k', 2, 3]);
    for (at, bad) in [(5, 8), (5, 0), (10, 3), (11, 9)] {
        let mut mutated = bytes.clone();
        mutated[at] = bad;
        assert!(is_corrupt(&Change::decode(&mutated)), "byte {at} = {bad}");
    }
    // a row whose one cell has tag 5
    let row = [1, 1, 0, 1, 1, 1, b'c', 1, 2, 1, 1, 1, b'k', 0, 0, 5, 0];
    assert!(is_corrupt(&Change::decode(&row)));
    let mut null = row;
    null[15] = 0;
    assert!(Change::decode(&null).is_ok(), "the same row holding null");
}

#[test]
fn lengths_are_checked_before_anything_is_sized_by_them() {
    // a change claiming 2^62 ops, a clock claiming 2^62 pairs, a key
    // table claiming 2^62 lists or names, a key claiming 2^62 bytes: each
    // fails on the count, long before a `Vec` could be asked for that much
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    for prefix in [
        &[1, 1, 0, 0][..],         // ops
        &[1, 1],                   // deps
        &[1, 1, 0],                // key table
        &[1, 1, 0, 1],             // names of a column list
        &[1, 1, 0, 0, 1, 2, 1, 1], // a key
    ] {
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&huge);
        bytes.extend_from_slice(b"k");
        assert!(is_corrupt(&Change::decode(&bytes)), "{prefix:?}");
    }
    // a row of three columns with one byte left for its cells
    assert!(is_corrupt(&Change::decode(&[
        1, 1, 0, 1, 3, 1, b'a', 1, b'b', 1, b'c', 1, 2, 1, 1, 1, b'k', 0, 0, 0
    ])));
    // an actor id padded to eleven bytes, and one padded with a zero group
    assert!(is_corrupt(&Change::decode(&[0xff; 16])));
    assert!(is_corrupt(&Change::decode(&[0x81, 0x00, 1, 0, 0, 0])));
    // pairs out of order would not re-encode to the same bytes
    assert!(is_corrupt(&Change::decode(&[1, 1, 2, 5, 1, 4, 1, 0, 0])));
    // a scalar nested past the decoder's bound
    assert!(is_corrupt(&Change::decode(&nested_arrays(MAX_DEPTH + 1))));
}

/// A change putting a `null` inside `depth` one-element arrays.
fn nested_arrays(depth: usize) -> Vec<u8> {
    let mut deep = vec![1, 1, 0, 0, 1, 2, 1, 1, 1, b'k', 2];
    for _ in 0..depth {
        deep.extend_from_slice(&[7, 1]);
    }
    deep.extend_from_slice(&[0, 0]);
    deep
}

/// A value nests on the wire as deep as its bound, in a change and in an
/// image, without the reader outgrowing a thread's stack.
#[test]
fn a_value_nests_as_deep_as_the_bound() {
    let bytes = nested_arrays(MAX_DEPTH);
    let (change, rest) = Change::decode(&bytes).expect("nested to the bound");
    assert!(rest.is_empty());
    assert_eq!(encoded(&change), bytes);
    let mut doc = Doc::new(ActorId(2));
    doc.apply_changes(vec![change]);
    let image = doc.save();
    assert_eq!(Doc::load(ActorId(3), &image).unwrap().save(), image);
}

/// Inputs that describe a value but not in the one way `encode` writes
/// it — they would re-encode to different bytes, so a remembered length
/// would lie.
#[test]
fn only_canonical_encodings_decode() {
    // `Put "k" = <JSON scalar>` with no pred, around a scalar under test
    let set = |scalar: &[u8]| {
        let mut bytes = vec![1, 1, 0, 0, 1, 2, 1, 1, 1, b'k', 2];
        bytes.extend_from_slice(scalar);
        bytes.push(0);
        bytes
    };
    assert!(Change::decode(&set(&[8, 2, 1, b'a', 0, 1, b'b', 0])).is_ok());
    let rejected: [&[u8]; 7] = [
        &[8, 2, 1, b'b', 0, 1, b'a', 0],    // object keys descending
        &[8, 2, 1, b'a', 0, 1, b'a', 0],    // the same key twice
        &[4, 0],                            // 0 under the signed tag
        &[4, 6],                            // +3 under the signed tag
        &[5, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f], // +inf
        &[5, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f], // a NaN
        &[6, 2, 0xc3, 0x28],                // not UTF-8
    ];
    for scalar in rejected {
        assert!(is_corrupt(&Change::decode(&set(scalar))), "{scalar:?}");
    }
    // rows over a key table: `lists`, then one `Put` of a one-null row per
    // list position in `rows`
    let rows = |lists: &[&[u8]], rows: &[u8]| {
        let mut bytes = vec![1, 1, 0, lists.len() as u8];
        for list in lists {
            bytes.extend_from_slice(list);
        }
        bytes.push(rows.len() as u8);
        for (i, at) in rows.iter().enumerate() {
            bytes.extend_from_slice(&[2, 1 + i as u8, 1, 1, b'k', 0, *at, 0, 0]);
        }
        bytes
    };
    let (a, b): (&[u8], &[u8]) = (&[1, 1, b'a'], &[1, 1, b'b']);
    assert!(Change::decode(&rows(&[a, b], &[0, 1, 0])).is_ok());
    for (lists, named) in [
        (&[a, b][..], &[1, 0][..]), // lists out of order of first use
        (&[a, b], &[0]),            // a list no row names
        (&[a, a], &[0, 1]),         // a list twice
        (&[a], &[1]),               // a list the table does not have
    ] {
        assert!(
            is_corrupt(&Change::decode(&rows(lists, named))),
            "{named:?}"
        );
    }
}

/// What one bookworm row upsert costs on the WAN and in an image's tail.
#[test]
fn a_row_upsert_is_83_bytes() {
    let mut t = Doc::new(ActorId(2));
    let before = t.clock().clone();
    let row = row_of(
        &["id", "title", "author", "price", "stock"],
        vec![
            Cell::Int(1017),
            Cell::Text("Permutation City".into()),
            Cell::Text("Egan".into()),
            Cell::Real(7.25),
            Cell::Int(12),
        ],
    );
    t.put("1017", row);
    let changes = t.get_changes(&before);
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].wire_size(), 83);
    assert_eq!(encoded(&changes[0]).len(), 83);
}

// ---- the save image --------------------------------------------------------

/// One thing a replica does between syncs.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, Json),
    PutRow(u8, i64),
    PutFile(u8, Vec<u8>),
    Delete(u8),
    /// Pull everything another replica has.
    Merge(usize),
    /// Fold what every replica has applied.
    Compact,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, scalar()).prop_map(|(k, v)| Step::Put(k, v)),
        (0u8..4, any::<i64>()).prop_map(|(k, v)| Step::PutRow(k, v)),
        (0u8..4, prop::collection::vec(any::<u8>(), 0..4)).prop_map(|(k, v)| Step::PutFile(k, v)),
        (0u8..4).prop_map(Step::Delete),
        (0usize..3).prop_map(Step::Merge),
        (0usize..3).prop_map(Step::Merge),
        Just(Step::Compact),
    ]
}

fn book(v: i64) -> Value {
    row_of(&["v", "t"], vec![Cell::Int(v), Cell::Text("x".into())])
}

/// Three replicas of one snapshot after `steps`, each step taken by the
/// replica it names: JSON, row and file registers, concurrent values of
/// one key, deleted keys, partly folded logs.
fn replicas(steps: &[(usize, Step)]) -> Vec<Doc> {
    let snapshot = || {
        [
            ("k0".to_string(), book(0)),
            ("k1".to_string(), Value::Json(json!(["a", "b"]))),
            ("k2".to_string(), Value::File(b"init".to_vec().into())),
        ]
    };
    let mut docs: Vec<Doc> = (1..=3)
        .map(|a| Doc::from_snapshot(ActorId(a), snapshot()))
        .collect();
    for (who, step) in steps {
        let doc = &mut docs[*who];
        match step {
            Step::Put(k, v) => doc.put(&format!("k{k}"), Value::Json(v.clone())),
            Step::PutRow(k, v) => doc.put(&format!("k{k}"), book(*v)),
            Step::PutFile(k, v) => doc.put(&format!("k{k}"), Value::File(v.clone().into())),
            Step::Delete(k) => doc.delete(&format!("k{k}")),
            Step::Merge(from) => {
                let changes = docs[*from].get_changes(docs[*who].clock());
                docs[*who].apply_changes(changes);
            }
            Step::Compact => {
                let all = docs[0].clock().meet(docs[1].clock()).meet(docs[2].clock());
                docs[*who].compact(&all);
            }
        }
    }
    docs
}

fn steps() -> impl Strategy<Value = Vec<(usize, Step)>> {
    prop::collection::vec((0usize..3, step()), 0..40)
}

/// A document holding one of everything the image describes.
fn one_of_each_doc() -> Doc {
    let script = [
        (0, Step::PutRow(1, 5)),
        (0, Step::Put(0, json!([-7]))),
        (1, Step::Put(1, json!("from-2"))),
        (2, Step::Put(1, nested(3, json!(1.5)))),
        (1, Step::PutFile(0, vec![9, 0])),
        (0, Step::Put(2, json!([{"deep": [1]}]))),
        (1, Step::Merge(0)),
        (1, Step::Merge(2)),
        (0, Step::Merge(1)),
        (2, Step::Merge(0)),
        (0, Step::Compact),
        (0, Step::Delete(0)),
        (0, Step::Put(2, json!("B"))),
        (0, Step::PutRow(0, 6)),
        (0, Step::Delete(1)),
    ];
    replicas(&script).swap_remove(0)
}

/// Everything a peer or a reader can observe of a document.
fn observed(d: &Doc) -> (Vec<(String, Value)>, VClock, VClock, usize, Vec<Change>) {
    (
        d.entries()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        d.clock().clone(),
        d.snapshot_clock().clone(),
        d.history_len(),
        d.get_changes(&VClock::new()),
    )
}

#[test]
fn an_image_round_trips_and_every_prefix_is_corrupt() {
    let d = one_of_each_doc();
    assert!(d.history_len() > 0 && !d.snapshot_clock().is_empty());
    let image = d.save();
    let back = Doc::load(ActorId(9), &image).unwrap();
    assert_eq!(observed(&back), observed(&d));
    assert_eq!(back.actor(), ActorId(9));
    assert_eq!(back.save(), image);
    for cut in 0..image.len() {
        assert!(
            is_corrupt(&Doc::load(ActorId(9), &image[..cut])),
            "prefix {cut}"
        );
    }
    let mut long = image.clone();
    long.push(0);
    assert!(is_corrupt(&Doc::load(ActorId(9), &long)));
    // the tail's changes came back knowing the length they were read from
    let tail = back.get_changes(&VClock::new());
    let bytes: usize = tail.iter().map(|c| encoded(c).len()).sum();
    assert_eq!(tail.iter().map(Change::wire_size).sum::<usize>(), bytes);
}

/// The image rows of DESIGN.md "Sync wire format", byte for byte.
#[test]
fn the_image_layout_is_the_documented_one() {
    let mut d = Doc::new(ActorId(2));
    d.put("k", Value::Json(json!(7)));
    d.put("r", row_of(&["a"], vec![Cell::Text("b".into())]));
    let mut first_two = VClock::new();
    first_two.observe(ActorId(2), 2);
    d.compact(&first_two);
    d.delete("k");
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        b'E', b'D', b'G', 6,          // magic, layout version
        1, 2, 3,                      // clock: actor 2 -> seq 3
        1, 2, 2,                      // snapshot_clock: actor 2 -> seq 2
        2, b'k', 2, b'r', 1,          // counters: namespace 'k' -> 2, 'r' -> 1
        1, 1, 1, b'a',                // key table: one column list, ["a"]
        1,                            // one key, keys ascending
            1, b'r', 1,               //   "r": one value
                1, 2, 0, 0, 3, 1, b'b', // 1@2 = row, column list 0, text "b"
        1,                            // tail: one change, as on the wire
        2, 3, 0, 0, 1,                //   actor 2, seq 3, no deps, no key table, one op
            3, 2, 2, 1, b'k', 1, 1, 2, // Del 2@2 "k", pred [1@2]
    ];
    assert_eq!(d.save(), want);
    assert_eq!(
        observed(&Doc::load(ActorId(2), &want).unwrap()),
        observed(&d)
    );
}

/// Counts in an image are checked like counts in a change: against the
/// bytes that remain, before anything is sized by them.
#[test]
fn an_image_count_is_checked_before_anything_is_sized_by_it() {
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    // magic, two empty clocks, no counters — then 2^62 column lists
    let head = b"EDG\x06\x00\x00\x00".to_vec();
    let with = |body: &[u8]| [&head[..], body, &huge[..]].concat();
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[]))));
    // no column lists, then 2^62 keys
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[0]))));
    // one key holding 2^62 values
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[0, 1, 1, b'k']))));
    // no keys and a tail of 2^62 changes
    assert!(Doc::load(ActorId(1), &[&head[..], &[0, 0, 0]].concat()).is_ok());
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[0, 0]))));
    // 2^62 namespace counters
    let counters = [&b"EDG\x06\x00\x00"[..], &huge[..]].concat();
    assert!(is_corrupt(&Doc::load(ActorId(1), &counters)));
    // other versions of the layout are not images
    assert!(is_corrupt(&Doc::load(
        ActorId(1),
        b"EDG\x07\x00\x00\x00\x00\x00\x00"
    )));
}

/// An image says each thing in one way: namespaces, keys and slot op ids
/// strictly ascending, no key without a value, and a key table as a change
/// has it. Anything else would save back to different bytes.
#[test]
fn only_canonical_images_load() {
    // magic, two empty clocks, no counters, then `body` and an empty tail
    let image = |body: &[u8]| [&b"EDG\x06\x00\x00\x00"[..], body, &[0]].concat();
    let null_at = |n: u8| [n, 1, 2, 0]; // slot n@1 = JSON null
    let row_at = |n: u8, list: u8| [n, 1, 0, list, 0]; // slot n@1 = a row of one null
    let ok: [&[u8]; 3] = [
        // keys "a" and "b", one value each
        &[
            &[0, 2, 1, b'a', 1][..],
            &null_at(1),
            &[1, b'b', 1],
            &null_at(2),
        ]
        .concat(),
        // "a" holding two concurrent values
        &[&[0, 1, 1, b'a', 2][..], &null_at(1), &null_at(2)].concat(),
        // a row under the one column list ["c"]
        &[&[1, 1, 1, b'c', 1, 1, b'a', 1][..], &row_at(1, 0)].concat(),
    ];
    for body in ok {
        let loaded = Doc::load(ActorId(1), &image(body));
        assert!(loaded.is_ok(), "{body:?}: {:?}", loaded.err());
        assert_eq!(loaded.unwrap().save(), image(body));
    }
    let c: &[u8] = &[1, 1, b'c'];
    let rejected: [&[u8]; 8] = [
        &[
            &[0, 2, 1, b'b', 1][..],
            &null_at(1),
            &[1, b'a', 1],
            &null_at(2),
        ]
        .concat(), // keys descending
        &[
            &[0, 2, 1, b'a', 1][..],
            &null_at(1),
            &[1, b'a', 1],
            &null_at(2),
        ]
        .concat(), // a key twice
        &[&[0, 1, 1, b'a', 2][..], &null_at(2), &null_at(1)].concat(), // slots descending
        &[&[0, 1, 1, b'a', 2][..], &null_at(1), &null_at(1)].concat(), // a slot twice
        &[0, 1, 1, b'a', 0],                                           // a key holding nothing
        &[&[1][..], c, &[1, 1, b'a', 1], &null_at(1)].concat(),        // a list no row names
        &[
            &[2][..],
            c,
            c,
            &[1, 1, b'a', 2],
            &row_at(1, 0),
            &row_at(2, 1),
        ]
        .concat(), // a list twice
        &[&[1][..], c, &[1, 1, b'a', 1], &row_at(1, 1)].concat(), // a list the table does not have
    ];
    for body in rejected {
        assert!(is_corrupt(&Doc::load(ActorId(1), &image(body))), "{body:?}");
    }
    // magic, two empty clocks, `counters`, no key table, no keys, no tail
    let with = |counters: &[u8]| [&b"EDG\x06\x00\x00"[..], counters, &[0, 0, 0]].concat();
    let two = with(&[2, b'a', 1, b'b', 5]);
    assert_eq!(Doc::load(ActorId(1), &two).unwrap().save(), two);
    let rejected: [&[u8]; 3] = [
        &[2, b'b', 1, b'a', 5],    // namespaces descending
        &[2, b'a', 1, b'a', 5],    // a namespace twice
        &[1, 0x80, 0xb0, 0x03, 1], // U+D800, which is no char
    ];
    for counters in rejected {
        assert!(
            is_corrupt(&Doc::load(ActorId(1), &with(counters))),
            "{counters:?}"
        );
    }
}

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn a_change_crosses_threads() {
    assert_send_sync::<Change>();
    assert_send_sync::<SetSyncMessage>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_inverts_encode(c in change(), tail in prop::collection::vec(any::<u8>(), 0..4)) {
        let unsized_twin = c.clone();
        let mut bytes = encoded(&c);
        let len = bytes.len();
        prop_assert_eq!(c.wire_size(), len);
        prop_assert_eq!(c.wire_size(), len, "the second call repeats the first");
        prop_assert_eq!(unsized_twin.wire_size(), len, "handles share what is remembered");
        // whatever follows a change is handed back untouched
        bytes.extend_from_slice(&tail);
        let decoded = Change::decode(&bytes);
        prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
        let (back, rest) = decoded.unwrap();
        prop_assert_eq!(rest, &tail[..]);
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(back.wire_size(), len, "a decoded change knows the length it came from");
        // floats and integer kinds are bit-exact, not merely `==`
        prop_assert_eq!(&encoded(&back)[..], &bytes[..len]);
        // equality never looks at what is remembered
        prop_assert_eq!(&Change::new(c.actor(), c.seq(), c.deps().clone(), c.ops().to_vec()), &c);
    }

    #[test]
    fn truncation_is_always_corrupt(c in change(), cut in any::<u32>()) {
        let bytes = encoded(&c);
        let cut = cut as usize % bytes.len();
        prop_assert!(is_corrupt(&Change::decode(&bytes[..cut])), "prefix {} of {}", cut, bytes.len());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        match Change::decode(&bytes) {
            // the few inputs that happen to parse are canonical: they
            // re-encode to exactly the bytes consumed
            Ok((c, rest)) => {
                let used = bytes.len() - rest.len();
                prop_assert_eq!(&encoded(&c)[..], &bytes[..used]);
                prop_assert_eq!(c.wire_size(), used);
            }
            Err(e) => prop_assert!(matches!(e, CrdtError::CorruptChange(_))),
        }
    }

    /// One flipped byte in a valid encoding: decodes to something else or
    /// is rejected, and whatever decodes is canonical.
    #[test]
    fn a_flipped_byte_never_panics(c in change(), at in any::<u32>(), flip in 1u8..255) {
        let mut bytes = encoded(&c);
        let at = at as usize % bytes.len();
        bytes[at] ^= flip;
        if let Ok((m, rest)) = Change::decode(&bytes) {
            let used = bytes.len() - rest.len();
            prop_assert_eq!(&encoded(&m)[..], &bytes[..used]);
        }
    }

    /// Whatever three replicas did, each one's image loads back as the
    /// replica it was, and saves again to the same bytes.
    #[test]
    fn load_inverts_save(steps in steps()) {
        for d in replicas(&steps) {
            let image = d.save();
            let back = Doc::load(ActorId(9), &image);
            prop_assert!(back.is_ok(), "{:?}", back.err());
            let back = back.unwrap();
            prop_assert_eq!(observed(&back), observed(&d));
            prop_assert_eq!(back.save(), image);
        }
    }

    #[test]
    fn a_truncated_image_is_always_corrupt(steps in steps(), who in 0usize..3, cut in any::<u32>()) {
        let image = replicas(&steps).swap_remove(who).save();
        let cut = cut as usize % image.len();
        prop_assert!(is_corrupt(&Doc::load(ActorId(9), &image[..cut])), "prefix {} of {}", cut, image.len());
    }

    /// One flipped byte in an image: rejected, or another document whose
    /// image is exactly those bytes and which can be read to the end.
    #[test]
    fn a_flipped_image_byte_never_panics(
        steps in steps(),
        who in 0usize..3,
        at in any::<u32>(),
        flip in 1u8..255,
    ) {
        let mut image = replicas(&steps).swap_remove(who).save();
        let at = at as usize % image.len();
        image[at] ^= flip;
        match Doc::load(ActorId(9), &image) {
            Ok(m) => {
                prop_assert_eq!(m.save(), image);
                let _ = m.entries().count();
            }
            Err(e) => prop_assert!(matches!(e, CrdtError::CorruptChange(_))),
        }
    }

    #[test]
    fn arbitrary_bytes_are_never_an_image(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut image = b"EDG\x06".to_vec();
        image.extend_from_slice(&bytes);
        for candidate in [&bytes, &image] {
            if let Ok(m) = Doc::load(ActorId(9), candidate) {
                prop_assert_eq!(&m.save(), candidate);
                let _ = m.entries().count();
            }
        }
    }

    #[test]
    fn a_message_is_as_long_as_its_encoding(
        ack in clock(),
        changes in prop::collection::vec(change(), 0..6),
        sender in wide(),
    ) {
        let msg = SetSyncMessage { sender: ActorId(sender), ack, changes };
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        prop_assert_eq!(msg.wire_size(), bytes.len());
        // sized before or after its changes were: the same number
        prop_assert_eq!(msg.clone().wire_size(), bytes.len());
        // the batch is the changes' own encodings back to back
        let tail: Vec<u8> = msg.changes.iter().flat_map(encoded).collect();
        prop_assert!(bytes.ends_with(&tail));
    }
}
