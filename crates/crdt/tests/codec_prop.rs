//! The wire and image codec: every slot survives `encode` → `decode` bit
//! for bit, `wire_size` is the encoded length (and travels with clones
//! without entering equality), and `decode` treats its input as hostile —
//! arbitrary bytes and truncated encodings are a
//! `CrdtError::CorruptChange`, never a panic and never a collection sized
//! for more elements than the input could encode. Images of an earlier
//! layout version are hostile input too. A save image is held to the same:
//! `load(save(d))` is `d`, `save(load(b))` is `b`, and every other `b` is a
//! typed error.

use edgstr_crdt::wire::MAX_DEPTH;
use edgstr_crdt::{ActorId, Cell, CrdtError, Doc, OpId, Row, Slot, Stamp, VClock, Value};
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

/// Column lists: a few shared ones, so a slot's rows share key-table
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

fn stamp() -> impl Strategy<Value = Stamp> {
    let value = prop_oneof![value().prop_map(Some), value().prop_map(Some), Just(None)];
    (op_id(), wide(), value).prop_map(|(id, seq, value)| Stamp {
        id,
        seq: seq.max(1),
        value,
    })
}

/// A slot of up to four writes with distinct op ids.
fn slot() -> impl Strategy<Value = Slot> {
    (text(), prop::collection::vec(stamp(), 1..5)).prop_map(|(key, mut stamps)| {
        stamps.sort_by_key(|s| s.id);
        stamps.dedup_by_key(|s| s.id);
        Slot::new(key.into(), stamps)
    })
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

fn encoded(c: &Slot) -> Vec<u8> {
    let mut out = Vec::new();
    c.encode(&mut out);
    out
}

fn is_corrupt<T>(r: &Result<T, CrdtError>) -> bool {
    matches!(r, Err(CrdtError::CorruptChange(_)))
}

/// A write by actor 7: op id `n@7`, seq `n`.
fn put(n: u64, value: Option<Value>) -> Stamp {
    Stamp {
        id: OpId::new(n, ActorId(7)),
        seq: n,
        value,
    }
}

fn row_of(columns: &[&str], cells: Vec<Cell>) -> Value {
    Value::Row(Row::new(
        columns.iter().map(|c| c.to_string()).collect(),
        cells.into(),
    ))
}

/// One slot of every `Value` and every `Cell`, a tombstone, and rows that
/// share a column list and rows that do not.
fn one_of_each() -> Slot {
    let cells = vec![
        Cell::Null,
        Cell::Int(i64::MIN),
        Cell::Real(-0.0),
        Cell::Real(f64::NAN),
        Cell::Text("naïve".into()),
        Cell::Blob(vec![0x0a, 0xff]),
    ];
    let columns = ["n", "i", "z", "nan", "t", "b"];
    let edge = Stamp {
        id: OpId::new(u64::MAX, ActorId(u64::MAX)),
        seq: u64::MAX,
        value: Some(row_of(&columns, cells.clone())),
    };
    Slot::new(
        "𝄞".into(),
        vec![
            put(1, Some(row_of(&columns, cells.clone()))),
            put(2, Some(Value::File(vec![0, 1, 255].into()))),
            put(3, Some(Value::Json(nested(32, json!(-0.0))))),
            put(4, Some(row_of(&columns, cells))),
            put(5, Some(row_of(&[], vec![]))),
            put(6, Some(Value::File(Vec::new().into()))),
            put(8, None),
            edge,
        ],
    )
}

#[test]
fn every_variant_round_trips_and_every_prefix_is_corrupt() {
    let c = one_of_each();
    let bytes = encoded(&c);
    assert_eq!(bytes.len(), c.wire_size());
    let (back, rest) = Slot::decode(&bytes).unwrap();
    assert!(rest.is_empty());
    assert_eq!(back, c);
    // the NaN's bits, −0.0's sign and every other bit survived
    assert_eq!(encoded(&back), bytes);
    assert_eq!(back.wire_size(), bytes.len());
    for cut in 0..bytes.len() {
        assert!(is_corrupt(&Slot::decode(&bytes[..cut])), "prefix {cut}");
    }
}

/// The layout table of DESIGN.md "Sync wire format", byte for byte: every
/// value, cell and scalar tag once, a tombstone, a key table of two column
/// lists and a row that reuses one, with small operands so each field is
/// legible. A format change has to change this vector.
#[test]
fn the_layout_is_the_documented_one() {
    let write = |n: u64, value| Stamp {
        id: OpId::new(n, ActorId(2)),
        seq: n + 2,
        value,
    };
    let c = Slot::new(
        "ü".into(),
        vec![
            write(
                3,
                Some(row_of(
                    &["id", "t"],
                    vec![Cell::Int(-3), Cell::Text("a".into())],
                )),
            ),
            write(4, Some(Value::File(vec![0x0a, 0xff].into()))),
            write(
                5,
                Some(Value::Json(
                    json!([null, false, true, 200, -3, 1.5, "a", {"b": []}]),
                )),
            ),
            write(
                6,
                Some(row_of(
                    &["id", "t"],
                    vec![Cell::Real(1.5), Cell::Blob(vec![])],
                )),
            ),
            write(7, Some(row_of(&["v"], vec![Cell::Null]))),
            write(8, None),
        ],
    );
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        2, 0xc3, 0xbc,                // key "ü"
        2,                            // key table: two column lists
            2, 2, b'i', b'd', 1, b't', //   ["id", "t"]
            1, 1, b'v',               //   ["v"]
        6,                            // six writes, ascending op ids
        3, 2, 5,                      // 3@2, seq 5 ...
            0, 0,                     //   row, column list 0
            1, 5,                     //     int -3, zig-zag 5
            3, 1, b'a',               //     text "a"
        4, 2, 6,                      // 4@2, seq 6 ...
            1, 2, 0x0a, 0xff,         //   file, two bytes
        5, 2, 7,                      // 5@2, seq 7 ...
            2, 7, 8,                  //   JSON, array of eight
            0, 1, 2,                  //     null, false, true
            3, 0xc8, 0x01,            //     uint 200
            4, 5,                     //     int -3, zig-zag 5
            5, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // f64 1.5, little-endian bits
            6, 1, b'a',               //     string "a"
            8, 1, 1, b'b', 7, 0,      //     object {"b": []}
        6, 2, 8,                      // 6@2, seq 8 ...
            0, 0,                     //   row, column list 0 again
            2, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // real 1.5
            4, 0,                     //     blob, no bytes
        7, 2, 9,                      // 7@2, seq 9 ...
            0, 1, 0,                  //   row, column list 1, null
        8, 2, 10, 3,                  // 8@2, seq 10, a tombstone
    ];
    assert_eq!(encoded(&c), want);
    assert_eq!(Slot::decode(&want).unwrap().0, c);
}

/// Images of layout versions 3 and 4, which held containers, 5, which
/// kept one op counter for all keys, and 6, which kept a change log, are
/// refused; the ops those layouts carried went with them.
#[test]
fn retired_tags_and_images_are_corrupt() {
    // the smallest images of layouts 3-6: clocks and counters empty, a
    // root map or no keys, no tail
    let v3 = b"EDG\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00";
    let v4 = b"EDG\x04\x00\x00\x00\x01\x00\x00\x00";
    let v5 = b"EDG\x05\x00\x00\x00\x00\x00\x00";
    let v6 = b"EDG\x06\x00\x00\x00\x00\x00\x00";
    for retired in [&v3[..], v4, v5, v6] {
        assert!(is_corrupt(&Doc::load(ActorId(1), retired)), "{retired:?}");
    }
    let v7 = b"EDG\x07\x00\x00\x00\x00";
    assert_eq!(Doc::load(ActorId(1), v7).unwrap().save(), v7);
}

#[test]
fn unknown_tags_are_corrupt() {
    let c = Slot::new(
        "k".into(),
        vec![Stamp {
            id: OpId::new(1, ActorId(1)),
            seq: 1,
            value: Some(Value::Json(json!(7))),
        }],
    );
    let bytes = encoded(&c);
    // key | no key table | one write: id id seq | value-tag scalar-tag 7
    assert_eq!(bytes, [1, b'k', 0, 1, 1, 1, 1, 2, 3, 7]);
    for (at, bad) in [(7, 4), (7, 9), (8, 9)] {
        let mut mutated = bytes.clone();
        mutated[at] = bad;
        assert!(is_corrupt(&Slot::decode(&mutated)), "byte {at} = {bad}");
    }
    // a row whose one cell has tag 5
    let row = [1, b'k', 1, 1, 1, b'c', 1, 1, 1, 1, 0, 0, 5];
    assert!(is_corrupt(&Slot::decode(&row)));
    let mut null = row;
    null[12] = 0;
    assert!(Slot::decode(&null).is_ok(), "the same row holding null");
}

#[test]
fn lengths_are_checked_before_anything_is_sized_by_them() {
    // a slot claiming 2^62 writes, a key table claiming 2^62 lists or
    // names, a key claiming 2^62 bytes: each fails on the count, long
    // before a `Vec` could be asked for that much
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    for prefix in [
        &[1, b'k', 0][..], // writes
        &[1, b'k'],        // key table
        &[1, b'k', 1],     // names of a column list
        &[],               // a key
    ] {
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&huge);
        bytes.extend_from_slice(b"k");
        assert!(is_corrupt(&Slot::decode(&bytes)), "{prefix:?}");
    }
    // a row of three columns with one byte left for its cells
    assert!(is_corrupt(&Slot::decode(&[
        1, b'k', 1, 3, 1, b'a', 1, b'b', 1, b'c', 1, 1, 1, 1, 0, 0, 0
    ])));
    // a counter padded to eleven bytes, and a key length padded with a
    // zero group
    assert!(is_corrupt(&Slot::decode(
        &[[1, b'k', 0, 1].as_slice(), &[0xff; 16]].concat()
    )));
    assert!(is_corrupt(&Slot::decode(&[
        0x81, 0x00, b'k', 0, 1, 1, 1, 1, 3
    ])));
    // a scalar nested past the decoder's bound
    assert!(is_corrupt(&Slot::decode(&nested_arrays(MAX_DEPTH + 1))));
}

/// A slot putting a `null` inside `depth` one-element arrays, as 1@1.
fn nested_arrays(depth: usize) -> Vec<u8> {
    let mut deep = vec![1, b'k', 0, 1, 1, 1, 1, 2];
    for _ in 0..depth {
        deep.extend_from_slice(&[7, 1]);
    }
    deep.push(0);
    deep
}

/// A value nests on the wire as deep as its bound, in a slot and in an
/// image, without the reader outgrowing a thread's stack.
#[test]
fn a_value_nests_as_deep_as_the_bound() {
    let bytes = nested_arrays(MAX_DEPTH);
    let (slot, rest) = Slot::decode(&bytes).expect("nested to the bound");
    assert!(rest.is_empty());
    assert_eq!(encoded(&slot), bytes);
    let mut doc = Doc::new(ActorId(2));
    let mut clock = VClock::new();
    clock.observe(ActorId(1), 1);
    doc.apply_changes(&VClock::new(), &clock, vec![slot])
        .unwrap();
    let image = doc.save();
    assert_eq!(Doc::load(ActorId(3), &image).unwrap().save(), image);
}

/// Inputs that describe a value but not in the one way `encode` writes
/// it — they would re-encode to different bytes, so a remembered length
/// would lie.
#[test]
fn only_canonical_encodings_decode() {
    // `"k" = <JSON scalar>` written as 1@1, around a scalar under test
    let set = |scalar: &[u8]| [&[1, b'k', 0, 1, 1, 1, 1, 2][..], scalar].concat();
    assert!(Slot::decode(&set(&[8, 2, 1, b'a', 0, 1, b'b', 0])).is_ok());
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
        assert!(is_corrupt(&Slot::decode(&set(scalar))), "{scalar:?}");
    }
    // writes in the one order: op ids strictly ascending, a seq each
    let writes = |ids: &[(u8, u8)]| {
        let mut bytes = vec![1, b'k', 0, ids.len() as u8];
        for (counter, seq) in ids {
            bytes.extend_from_slice(&[*counter, 1, *seq, 3]);
        }
        bytes
    };
    assert!(Slot::decode(&writes(&[(1, 1), (2, 2)])).is_ok());
    for ids in [&[(2, 2), (1, 1)][..], &[(1, 1), (1, 2)], &[(1, 0)], &[]] {
        assert!(is_corrupt(&Slot::decode(&writes(ids))), "{ids:?}");
    }
    // rows over a key table: `lists`, then one write of a one-null row
    // per list position in `rows`
    let rows = |lists: &[&[u8]], rows: &[u8]| {
        let mut bytes = vec![1, b'k', lists.len() as u8];
        for list in lists {
            bytes.extend_from_slice(list);
        }
        bytes.push(rows.len() as u8);
        for (i, at) in rows.iter().enumerate() {
            bytes.extend_from_slice(&[1 + i as u8, 1, 1 + i as u8, 0, *at, 0]);
        }
        bytes
    };
    let (a, b): (&[u8], &[u8]) = (&[1, 1, b'a'], &[1, 1, b'b']);
    assert!(Slot::decode(&rows(&[a, b], &[0, 1, 0])).is_ok());
    for (lists, named) in [
        (&[a, b][..], &[1, 0][..]), // lists out of order of first use
        (&[a, b], &[0]),            // a list no row names
        (&[a, a], &[0, 1]),         // a list twice
        (&[a], &[1]),               // a list the table does not have
    ] {
        assert!(is_corrupt(&Slot::decode(&rows(lists, named))), "{named:?}");
    }
}

/// What one bookworm row upsert costs on the WAN: its slot.
#[test]
fn a_row_upsert_is_79_bytes() {
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
    assert_eq!(changes[0].wire_size(), 79);
    assert_eq!(encoded(&changes[0]).len(), 79);
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
    /// Drop the tombstones every replica has.
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
/// one key, deleted keys, tombstones partly dropped.
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
                let base = docs[*who].clock().clone();
                let changes = docs[*from].get_changes(&base);
                let clock = docs[*from].clock().clone();
                docs[*who].apply_changes(&base, &clock, changes).unwrap();
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
        (0, Step::Delete(3)),
    ];
    replicas(&script).swap_remove(0)
}

/// Everything a peer or a reader can observe of a document.
fn observed(d: &Doc) -> (Vec<(String, Value)>, VClock, usize, Vec<Slot>) {
    (
        d.entries()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        d.clock().clone(),
        d.history_len(),
        d.get_changes(&VClock::new()),
    )
}

#[test]
fn an_image_round_trips_and_every_prefix_is_corrupt() {
    let d = one_of_each_doc();
    assert!(d.history_len() > 0, "a tombstone is resident");
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
}

/// The image rows of DESIGN.md "Sync wire format", byte for byte.
#[test]
fn the_image_layout_is_the_documented_one() {
    let mut d = Doc::new(ActorId(2));
    d.put("k", Value::Json(json!(7)));
    d.put("r", row_of(&["a"], vec![Cell::Text("b".into())]));
    d.delete("k");
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        b'E', b'D', b'G', 7,          // magic, layout version
        1, 2, 3,                      // clock: actor 2 -> seq 3
        2, b'k', 2, b'r', 1,          // counters: namespace 'k' -> 2, 'r' -> 1
        1, 1, 1, b'a',                // key table: one column list, ["a"]
        2,                            // two keys, keys ascending
            1, b'k', 1,               //   "k": one write
                2, 2, 3, 3,           //     2@2, seq 3, a tombstone
            1, b'r', 1,               //   "r": one write
                1, 2, 2, 0, 0, 3, 1, b'b', // 1@2, seq 2 = row, column list 0, text "b"
    ];
    assert_eq!(d.save(), want);
    assert_eq!(
        observed(&Doc::load(ActorId(2), &want).unwrap()),
        observed(&d)
    );
}

/// Counts in an image are checked like counts in a slot: against the
/// bytes that remain, before anything is sized by them.
#[test]
fn an_image_count_is_checked_before_anything_is_sized_by_it() {
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    // magic, an empty clock, no counters — then 2^62 column lists
    let head = b"EDG\x07\x00\x00".to_vec();
    let with = |body: &[u8]| [&head[..], body, &huge[..]].concat();
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[]))));
    // no column lists, then 2^62 keys
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[0]))));
    // one key holding 2^62 writes
    assert!(is_corrupt(&Doc::load(ActorId(1), &with(&[0, 1, 1, b'k']))));
    // no keys at all
    assert!(Doc::load(ActorId(1), &[&head[..], &[0, 0]].concat()).is_ok());
    // 2^62 namespace counters, and 2^62 clock entries
    let counters = [&b"EDG\x07\x00"[..], &huge[..]].concat();
    assert!(is_corrupt(&Doc::load(ActorId(1), &counters)));
    let clock = [&b"EDG\x07"[..], &huge[..]].concat();
    assert!(is_corrupt(&Doc::load(ActorId(1), &clock)));
    // other versions of the layout are not images
    assert!(is_corrupt(&Doc::load(
        ActorId(1),
        b"EDG\x08\x00\x00\x00\x00"
    )));
}

/// An image says each thing in one way: namespaces, keys and op ids
/// strictly ascending, no key without a write, no write twice or beyond
/// the clock, and a key table as a slot has it. Anything else would save
/// back to different bytes or describe no document.
#[test]
fn only_canonical_images_load() {
    // magic, the clock [actor 1 -> seq 9], no counters, then `body`
    let image = |body: &[u8]| [&b"EDG\x07\x01\x01\x09\x00"[..], body].concat();
    let null_at = |n: u8| [n, 1, n, 2, 0]; // n@1, seq n = JSON null
    let row_at = |n: u8, list: u8| [n, 1, n, 0, list, 0]; // n@1, seq n = a row of one null
    let ok: [&[u8]; 4] = [
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
        // a tombstone alone
        &[0, 1, 1, b'a', 1, 4, 1, 4, 3],
    ];
    for body in ok {
        let loaded = Doc::load(ActorId(1), &image(body));
        assert!(loaded.is_ok(), "{body:?}: {:?}", loaded.err());
        assert_eq!(loaded.unwrap().save(), image(body));
    }
    let c: &[u8] = &[1, 1, b'c'];
    let rejected: [&[u8]; 11] = [
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
        &[
            &[0, 2, 1, b'a', 1][..],
            &null_at(1),
            &[1, b'b', 1],
            &[2, 1, 1, 2, 0],
        ]
        .concat(), // one write (seq 1) held by two keys
        &[&[0, 1, 1, b'a', 1][..], &null_at(10)].concat(), // a write beyond the clock
        &[&[0, 1, 1, b'a', 2][..], &null_at(2), &null_at(1)].concat(), // writes descending
        &[&[0, 1, 1, b'a', 2][..], &null_at(1), &null_at(1)].concat(), // a write twice
        &[0, 1, 1, b'a', 0],                               // a key holding nothing
        &[&[1][..], c, &[1, 1, b'a', 1], &null_at(1)].concat(), // a list no row names
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
        &[0, 1, 1, b'a', 1, 4, 1, 0, 3],                   // a write with no seq
    ];
    for body in rejected {
        assert!(is_corrupt(&Doc::load(ActorId(1), &image(body))), "{body:?}");
    }
    // magic, an empty clock, `counters`, no key table, no keys
    let with = |counters: &[u8]| [&b"EDG\x07\x00"[..], counters, &[0, 0]].concat();
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
    assert_send_sync::<Slot>();
    assert_send_sync::<SetSyncMessage>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_inverts_encode(c in slot(), tail in prop::collection::vec(any::<u8>(), 0..4)) {
        let unsized_twin = c.clone();
        let mut bytes = encoded(&c);
        let len = bytes.len();
        prop_assert_eq!(c.wire_size(), len);
        prop_assert_eq!(c.wire_size(), len, "the second call repeats the first");
        prop_assert_eq!(unsized_twin.wire_size(), len, "handles share what is remembered");
        // whatever follows a slot is handed back untouched
        bytes.extend_from_slice(&tail);
        let decoded = Slot::decode(&bytes);
        prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
        let (back, rest) = decoded.unwrap();
        prop_assert_eq!(rest, &tail[..]);
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(back.wire_size(), len, "a decoded slot knows the length it came from");
        // floats and integer kinds are bit-exact, not merely `==`
        prop_assert_eq!(&encoded(&back)[..], &bytes[..len]);
        // equality never looks at what is remembered
        prop_assert_eq!(&Slot::new(c.key().clone(), c.stamps().to_vec()), &c);
    }

    #[test]
    fn truncation_is_always_corrupt(c in slot(), cut in any::<u32>()) {
        let bytes = encoded(&c);
        let cut = cut as usize % bytes.len();
        prop_assert!(is_corrupt(&Slot::decode(&bytes[..cut])), "prefix {} of {}", cut, bytes.len());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        match Slot::decode(&bytes) {
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
    fn a_flipped_byte_never_panics(c in slot(), at in any::<u32>(), flip in 1u8..255) {
        let mut bytes = encoded(&c);
        let at = at as usize % bytes.len();
        bytes[at] ^= flip;
        if let Ok((m, rest)) = Slot::decode(&bytes) {
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
                let _ = m.get_changes(&VClock::new());
            }
            Err(e) => prop_assert!(matches!(e, CrdtError::CorruptChange(_))),
        }
    }

    #[test]
    fn arbitrary_bytes_are_never_an_image(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut image = b"EDG\x07".to_vec();
        image.extend_from_slice(&bytes);
        for candidate in [&bytes, &image] {
            if let Ok(m) = Doc::load(ActorId(9), candidate) {
                prop_assert_eq!(&m.save(), candidate);
                let _ = m.entries().count();
                let _ = m.get_changes(&VClock::new());
            }
        }
    }

    #[test]
    fn a_message_is_as_long_as_its_encoding(
        base in clock(),
        clock in clock(),
        capped in clock(),
        changes in prop::collection::vec(slot(), 0..6),
        sender in wide(),
    ) {
        let ack = (!capped.is_empty()).then(|| clock.meet(&capped));
        let msg = SetSyncMessage { sender: ActorId(sender), base, clock, ack, changes };
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        prop_assert_eq!(msg.wire_size(), bytes.len());
        // sized before or after its slots were: the same number
        prop_assert_eq!(msg.clone().wire_size(), bytes.len());
        // the batch is the slots' own encodings back to back
        let tail: Vec<u8> = msg.changes.iter().flat_map(encoded).collect();
        prop_assert!(bytes.ends_with(&tail));
    }
}
