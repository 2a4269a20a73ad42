//! The wire and image codec: every change survives `encode` → `decode`
//! bit for bit, `wire_size` is the encoded length (and travels with
//! clones without entering equality), and `decode` treats its input as
//! hostile — arbitrary bytes and truncated encodings are a
//! `CrdtError::CorruptChange`, never a panic and never a collection sized
//! for more elements than the input could encode. A save image is held
//! to the same: `load(save(d))` is `d`, `save(load(b))` is `b`, and every
//! other `b` is a typed error.

use edgstr_crdt::{
    path, ActorId, Change, CrdtError, CrdtTable, Doc, ElemRef, ObjId, Op, OpId, OpValue, PeerSync,
    SyncMessage, VClock,
};
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

fn obj_id() -> impl Strategy<Value = ObjId> {
    prop_oneof![Just(ObjId::Root), op_id().prop_map(ObjId::Made)]
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

fn op_value() -> impl Strategy<Value = OpValue> {
    prop_oneof![
        scalar().prop_map(OpValue::Scalar),
        obj_id().prop_map(OpValue::Obj)
    ]
}

fn preds() -> impl Strategy<Value = Vec<OpId>> {
    prop::collection::vec(op_id(), 0..4)
}

fn delta() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -70i64..70]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_id().prop_map(|id| Op::MakeMap { id }),
        op_id().prop_map(|id| Op::MakeList { id }),
        (op_id(), obj_id(), text(), op_value(), preds()).prop_map(|(id, obj, key, value, pred)| {
            Op::Set {
                id,
                obj,
                key: key.into(),
                value,
                pred,
            }
        }),
        (op_id(), obj_id(), text(), preds()).prop_map(|(id, obj, key, pred)| Op::DelKey {
            id,
            obj,
            key: key.into(),
            pred
        }),
        (op_id(), obj_id(), op_id(), op_value(), any::<bool>()).prop_map(
            |(id, obj, after, value, head)| Op::Insert {
                id,
                obj,
                after: if head {
                    ElemRef::Head
                } else {
                    ElemRef::After(after)
                },
                value,
            }
        ),
        (op_id(), obj_id(), op_id(), op_value(), preds()).prop_map(
            |(id, obj, elem, value, pred)| Op::SetElem {
                id,
                obj,
                elem,
                value,
                pred,
            }
        ),
        (op_id(), obj_id(), op_id()).prop_map(|(id, obj, elem)| Op::DelElem { id, obj, elem }),
        (op_id(), obj_id(), text(), delta()).prop_map(|(id, obj, key, delta)| Op::Inc {
            id,
            obj,
            key: key.into(),
            delta,
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

/// One change of every `Op` variant, both `ObjId`s, both `ElemRef`s.
fn one_of_each() -> Change {
    let id = |n| OpId::new(n, ActorId(7));
    let mut deps = VClock::new();
    deps.observe(ActorId(1), 3);
    deps.observe(ActorId(7), 41);
    deps.observe(ActorId(u64::MAX), u64::MAX);
    Change::new(
        ActorId(7),
        42,
        deps,
        vec![
            Op::MakeMap { id: id(1) },
            Op::MakeList { id: id(2) },
            Op::Set {
                id: id(3),
                obj: ObjId::Root,
                key: "𝄞".into(),
                value: OpValue::Obj(ObjId::Made(id(1))),
                pred: vec![id(900), OpId::new(u64::MAX, ActorId(u64::MAX))],
            },
            Op::DelKey {
                id: id(4),
                obj: ObjId::Made(id(1)),
                key: "".into(),
                pred: vec![],
            },
            Op::Insert {
                id: id(5),
                obj: ObjId::Made(id(2)),
                after: ElemRef::Head,
                value: OpValue::Scalar(nested(32, json!(-0.0))),
            },
            Op::Insert {
                id: id(6),
                obj: ObjId::Made(id(2)),
                after: ElemRef::After(id(5)),
                value: OpValue::Scalar(json!([null, true, false, u64::MAX, i64::MIN, 5e-324, "ü"])),
            },
            Op::SetElem {
                id: id(7),
                obj: ObjId::Made(id(2)),
                elem: id(5),
                value: OpValue::Scalar(json!({"a": {"b": []}})),
                pred: vec![id(5)],
            },
            Op::DelElem {
                id: id(8),
                obj: ObjId::Made(id(2)),
                elem: id(6),
            },
            Op::Inc {
                id: id(9),
                obj: ObjId::Root,
                key: "n".into(),
                delta: i64::MIN,
            },
            Op::Inc {
                id: id(10),
                obj: ObjId::Root,
                key: "n".into(),
                delta: i64::MAX,
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
    // −0.0 == 0.0 under `==`; the bytes say the sign and every other bit
    // survived
    assert_eq!(encoded(&back), bytes);
    assert_eq!(back.wire_size(), bytes.len());
    for cut in 0..bytes.len() {
        assert!(is_corrupt(&Change::decode(&bytes[..cut])), "prefix {cut}");
    }
}

/// The layout table of DESIGN.md "Sync wire format", byte for byte: every
/// op, object, element, value and scalar tag once, with small operands so
/// each field is legible. A format change has to change this vector.
#[test]
fn the_layout_is_the_documented_one() {
    let id = |n| OpId::new(n, ActorId(2));
    let mut deps = VClock::new();
    deps.observe(ActorId(1), 300);
    let value = |j: Json| OpValue::Scalar(j);
    let c = Change::new(
        ActorId(2),
        5,
        deps,
        vec![
            Op::MakeMap { id: id(1) },
            Op::MakeList { id: id(2) },
            Op::Set {
                id: id(3),
                obj: ObjId::Root,
                key: "ü".into(),
                value: OpValue::Obj(ObjId::Made(id(1))),
                pred: vec![id(9)],
            },
            Op::DelKey {
                id: id(4),
                obj: ObjId::Made(id(1)),
                key: "k".into(),
                pred: vec![],
            },
            Op::Insert {
                id: id(5),
                obj: ObjId::Made(id(2)),
                after: ElemRef::Head,
                value: value(json!([null, false, true, 200, -3, 1.5, "a", {"b": []}])),
            },
            Op::SetElem {
                id: id(6),
                obj: ObjId::Made(id(2)),
                elem: id(5),
                value: value(json!(0)),
                pred: vec![id(5)],
            },
            Op::Insert {
                id: id(7),
                obj: ObjId::Made(id(2)),
                after: ElemRef::After(id(5)),
                value: value(Json::Null),
            },
            Op::DelElem {
                id: id(8),
                obj: ObjId::Made(id(2)),
                elem: id(7),
            },
            Op::Inc {
                id: id(10),
                obj: ObjId::Root,
                key: "n".into(),
                delta: -2,
            },
        ],
    );
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        2, 5,                         // actor, seq
        1, 1, 0xac, 0x02,             // deps: one pair, actor 1 -> seq 300
        9,                            // nine ops
        0, 1, 2,                      // MakeMap   id 1@2
        1, 2, 2,                      // MakeList  id 2@2
        2, 3, 2, 0, 2, 0xc3, 0xbc,    // Set       id 3@2, root, key "ü" ...
            1, 1, 1, 2,               //   value: object, made 1@2
            1, 9, 2,                  //   pred: [9@2]
        3, 4, 2, 1, 1, 2, 1, b'k', 0, // DelKey    id 4@2, made 1@2, "k", no pred
        4, 5, 2, 1, 2, 2, 0,          // Insert    id 5@2, made 2@2, at the head ...
            0, 7, 8,                  //   value: scalar, array of eight
            0, 1, 2,                  //     null, false, true
            3, 0xc8, 0x01,            //     uint 200
            4, 5,                     //     int -3, zig-zag 5
            5, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // f64 1.5, little-endian bits
            6, 1, b'a',               //     string "a"
            8, 1, 1, b'b', 7, 0,      //     object {"b": []}
        5, 6, 2, 1, 2, 2, 5, 2,       // SetElem   id 6@2, made 2@2, elem 5@2 ...
            0, 3, 0,                  //   value: scalar uint 0
            1, 5, 2,                  //   pred: [5@2]
        4, 7, 2, 1, 2, 2, 1, 5, 2,    // Insert    id 7@2, made 2@2, after 5@2 ...
            0, 0,                     //   value: scalar null
        6, 8, 2, 1, 2, 2, 7, 2,       // DelElem   id 8@2, made 2@2, elem 7@2
        7, 10, 2, 0, 1, b'n', 3,      // Inc       id 10@2, root, "n", -2 -> zig-zag 3
    ];
    assert_eq!(encoded(&c), want);
    assert_eq!(Change::decode(&want).unwrap().0, c);
}

#[test]
fn unknown_tags_are_corrupt() {
    let c = Change::new(
        ActorId(1),
        1,
        VClock::new(),
        vec![Op::Set {
            id: OpId::new(1, ActorId(1)),
            obj: ObjId::Root,
            key: "k".into(),
            value: OpValue::Scalar(json!(7)),
            pred: vec![],
        }],
    );
    let bytes = encoded(&c);
    // actor seq deps n | op-tag id id obj-tag len 'k' value-tag scalar-tag
    assert_eq!(bytes[..12], [1, 1, 0, 1, 2, 1, 1, 0, 1, b'k', 0, 3]);
    for (at, bad) in [(4, 8), (7, 2), (10, 2), (11, 9)] {
        let mut mutated = bytes.clone();
        mutated[at] = bad;
        assert!(is_corrupt(&Change::decode(&mutated)), "byte {at} = {bad}");
    }
}

#[test]
fn lengths_are_checked_before_anything_is_sized_by_them() {
    // a change claiming 2^62 ops, a clock claiming 2^62 pairs, a key
    // claiming 2^62 bytes: each fails on the count, long before a `Vec`
    // could be asked for that much
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];
    let mut ops = vec![1, 1, 0];
    ops.extend_from_slice(&huge);
    assert!(is_corrupt(&Change::decode(&ops)));
    let mut deps = vec![1, 1];
    deps.extend_from_slice(&huge);
    assert!(is_corrupt(&Change::decode(&deps)));
    let mut key = vec![1, 1, 0, 1, 2, 1, 1, 0];
    key.extend_from_slice(&huge);
    key.extend_from_slice(b"k");
    assert!(is_corrupt(&Change::decode(&key)));
    // an actor id padded to eleven bytes, and one padded with a zero group
    assert!(is_corrupt(&Change::decode(&[0xff; 16])));
    assert!(is_corrupt(&Change::decode(&[0x81, 0x00, 1, 0, 0])));
    // pairs out of order would not re-encode to the same bytes
    assert!(is_corrupt(&Change::decode(&[1, 1, 2, 5, 1, 4, 1, 0])));
    // a scalar nested past the decoder's bound: 200 one-element arrays
    let mut deep = vec![1, 1, 0, 1, 2, 1, 1, 0, 1, b'k', 0];
    for _ in 0..200 {
        deep.extend_from_slice(&[7, 1]);
    }
    deep.extend_from_slice(&[0, 0]);
    assert!(is_corrupt(&Change::decode(&deep)));
}

/// Inputs that describe a value but not in the one way `encode` writes
/// it — they would re-encode to different bytes, so a remembered length
/// would lie.
#[test]
fn only_canonical_encodings_decode() {
    // `Set root "k" = <scalar>` with no pred, around a scalar under test
    let set = |scalar: &[u8]| {
        let mut bytes = vec![1, 1, 0, 1, 2, 1, 1, 0, 1, b'k', 0];
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
}

/// What one bookworm row upsert costs on the WAN and in an image's tail.
#[test]
fn a_row_upsert_is_131_bytes() {
    let mut t = CrdtTable::new(ActorId(2), "books");
    let before = t.clock().clone();
    t.upsert_row(
        "1017",
        &json!({"id": 1017, "title": "Permutation City", "author": "Egan", "price": 7.25, "stock": 12}),
    )
    .unwrap();
    let changes = t.get_changes(&before);
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].wire_size(), 131);
    assert_eq!(encoded(&changes[0]).len(), 131);
}

// ---- the save image --------------------------------------------------------

/// One thing a replica does between syncs.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, Json),
    PutRow(u8, i64),
    SetCell(u8, i64),
    Delete(u8),
    Increment(u8, i64),
    Push(Json),
    SetElem(usize, Json),
    DeleteElem(usize),
    /// Pull everything another replica has.
    Merge(usize),
    /// Fold what every replica has applied.
    Compact,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, scalar()).prop_map(|(k, v)| Step::Put(k, v)),
        (0u8..4, any::<i64>()).prop_map(|(k, v)| Step::PutRow(k, v)),
        (0u8..4, any::<i64>()).prop_map(|(k, v)| Step::SetCell(k, v)),
        (0u8..4).prop_map(Step::Delete),
        (0u8..3, delta()).prop_map(|(k, d)| Step::Increment(k, d)),
        leaf().prop_map(Step::Push),
        (0usize..4, leaf()).prop_map(|(i, v)| Step::SetElem(i, v)),
        (0usize..4).prop_map(Step::DeleteElem),
        (0usize..3).prop_map(Step::Merge),
        (0usize..3).prop_map(Step::Merge),
        Just(Step::Compact),
    ]
}

/// Three replicas of one snapshot after `steps`, each step taken by the
/// replica it names: maps, rows replaced and patched, a list with
/// tombstones and overwritten elements, counters, concurrent values of one
/// key, partly folded logs.
fn replicas(steps: &[(usize, Step)]) -> Vec<Doc> {
    let snapshot = json!({"rows": {"r0": {"v": 0, "t": "Dune"}}, "l": ["a", "b"], "k1": 1});
    let mut docs: Vec<Doc> = (1..=3)
        .map(|a| Doc::from_snapshot(ActorId(a), &snapshot))
        .collect();
    for (who, step) in steps {
        let doc = &mut docs[*who];
        // a step the replica's state does not allow is skipped
        let _ = match step {
            Step::Put(k, v) => doc.put(&path![format!("k{k}")], v.clone()),
            Step::PutRow(k, v) => {
                doc.put(&path!["rows", format!("r{k}")], json!({"v": v, "t": "x"}))
            }
            Step::SetCell(k, v) => match doc.contains(&path!["rows", format!("r{k}")]) {
                true => doc.put(&path!["rows", format!("r{k}"), "v"], json!(v)),
                false => Ok(()),
            },
            Step::Delete(k) => doc.delete(&path![format!("k{k}")]),
            Step::Increment(k, d) => doc.increment(&path![format!("n{k}")], *d),
            Step::Push(v) => doc.list_push(&path!["l"], v.clone()),
            Step::SetElem(i, v) => doc.put(&path!["l", *i], v.clone()),
            Step::DeleteElem(i) => doc.delete(&path!["l", *i]),
            Step::Merge(from) => {
                let from = docs[*from].clone();
                docs[*who].merge(&from).map(|_| ())
            }
            Step::Compact => {
                let all = docs[0].clock().meet(docs[1].clock()).meet(docs[2].clock());
                docs[*who].compact(&all);
                Ok(())
            }
        };
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
        (0, Step::Increment(0, -7)),
        (1, Step::Put(1, json!("from-2"))),
        (2, Step::Put(1, nested(3, json!(1.5)))),
        (1, Step::Increment(0, 9)),
        (0, Step::Push(json!({"deep": [1]}))),
        (1, Step::Merge(0)),
        (1, Step::Merge(2)),
        (0, Step::Merge(1)),
        (2, Step::Merge(0)),
        (0, Step::Compact),
        (0, Step::DeleteElem(0)),
        (0, Step::SetElem(0, json!("B"))),
        (0, Step::PutRow(0, 6)),
        (0, Step::SetCell(1, 8)),
        (0, Step::Delete(1)),
    ];
    replicas(&script).swap_remove(0)
}

/// Everything a peer or a reader can observe of a document.
fn observed(d: &Doc) -> (Json, VClock, VClock, usize, Vec<Change>) {
    (
        d.to_json(),
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
    d.put(&path!["k"], json!(7)).unwrap();
    d.increment(&path!["n"], -2).unwrap();
    d.put(&path!["l"], json!(["a"])).unwrap();
    let mut first_two = VClock::new();
    first_two.observe(ActorId(2), 2);
    d.compact(&first_two);
    d.delete(&path!["l", 0]).unwrap();
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        b'E', b'D', b'G', 3,          // magic, layout version
        1, 2, 4,                      // clock: actor 2 -> seq 4
        1, 2, 2,                      // snapshot_clock: actor 2 -> seq 2
        6,                            // op counter
        1,                            // one map
        0,                            //   the root ...
            2,                        //   two entries, keys ascending
            1, b'k', 1,               //     "k": one slot
                1, 2, 0, 3, 7,        //       1@2 = scalar uint 7
            1, b'l', 1,               //     "l": one slot
                5, 2, 1, 1, 3, 2,     //       5@2 = object, made 3@2
            1,                        //   one counter
            1, b'n', 1,               //     "n": one increment
                2, 2, 3,              //       2@2, -2 -> zig-zag 3
        1,                            // one list
        1, 3, 2,                      //   made 3@2 ...
            1,                        //   one element
            4, 2, 1,                  //     id 4@2, one slot
                4, 2, 0, 6, 1, b'a',  //       4@2 = scalar string "a"
            1,                        //     tombstone: deleted
        2,                            // tail: two changes, as on the wire
        2, 3, 1, 2, 2, 3,             //   actor 2, seq 3, deps {2: 2}, three ops
            1, 3, 2,                  //     MakeList 3@2
            4, 4, 2, 1, 3, 2, 0, 0, 6, 1, b'a', // Insert 4@2 into 3@2 at head, "a"
            2, 5, 2, 0, 1, b'l', 1, 1, 3, 2, 0, // Set 5@2 root "l" = made 3@2, no pred
        2, 4, 1, 2, 3, 1,             //   actor 2, seq 4, deps {2: 3}, one op
            6, 6, 2, 1, 3, 2, 4, 2,   //     DelElem 6@2 in 3@2, elem 4@2
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
    // magic, two empty clocks, counter 0 — then 2^62 maps
    let mut maps = b"EDG\x03\x00\x00\x00".to_vec();
    maps.extend_from_slice(&huge);
    assert!(is_corrupt(&Doc::load(ActorId(1), &maps)));
    // one map, the root, with 2^62 entries
    let mut entries = b"EDG\x03\x00\x00\x00\x01\x00".to_vec();
    entries.extend_from_slice(&huge);
    assert!(is_corrupt(&Doc::load(ActorId(1), &entries)));
    // an empty root, no lists, and a tail of 2^62 changes
    let mut tail = b"EDG\x03\x00\x00\x00\x01\x00\x00\x00\x00".to_vec();
    assert!(Doc::load(ActorId(1), &[&tail[..], &[0]].concat()).is_ok());
    tail.extend_from_slice(&huge);
    assert!(is_corrupt(&Doc::load(ActorId(1), &tail)));
    // other versions of the layout, and no root map, are not images
    assert!(is_corrupt(&Doc::load(
        ActorId(1),
        b"EDG\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00"
    )));
    assert!(is_corrupt(&Doc::load(
        ActorId(1),
        b"EDG\x03\x00\x00\x00\x00\x00\x00"
    )));
}

/// An image says each thing in one way: keys, container ids and slot op
/// ids strictly ascending, a container under one kind. Anything else would
/// save back to different bytes.
#[test]
fn only_canonical_images_load() {
    // magic, two empty clocks, counter 0, then `body`
    let image = |body: &[u8]| [&b"EDG\x03\x00\x00\x00"[..], body].concat();
    let null_at = |n: u8| [n, 1, 0, 0]; // slot n@1 = scalar null
    let ok: [&[u8]; 3] = [
        // the root with keys "a" and "b", no slots under either
        &[1, 0, 2, 1, b'a', 0, 1, b'b', 0, 0, 0, 0],
        // "a" holding two concurrent values
        &[
            &[1, 0, 1, 1, b'a', 2][..],
            &null_at(1),
            &null_at(2),
            &[0, 0, 0],
        ]
        .concat(),
        // the root, a map 1@1 and a list 2@1
        &[2, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 2, 1, 0, 0],
    ];
    for body in ok {
        let loaded = Doc::load(ActorId(1), &image(body));
        assert!(loaded.is_ok(), "{body:?}: {:?}", loaded.err());
        assert_eq!(loaded.unwrap().save(), image(body));
    }
    let rejected: [&[u8]; 8] = [
        &[1, 0, 2, 1, b'b', 0, 1, b'a', 0, 0, 0, 0], // keys descending
        &[1, 0, 2, 1, b'a', 0, 1, b'a', 0, 0, 0, 0], // a key twice
        &[1, 0, 0, 2, 1, b'n', 0, 1, b'n', 0, 0, 0], // a counter key twice
        &[
            &[1, 0, 1, 1, b'a', 2][..],
            &null_at(2),
            &null_at(1),
            &[0, 0, 0],
        ]
        .concat(), // slots descending
        &[
            &[1, 0, 1, 1, b'a', 2][..],
            &null_at(1),
            &null_at(1),
            &[0, 0, 0],
        ]
        .concat(), // a slot twice
        &[2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],          // a made map before the root
        &[2, 0, 0, 0, 0, 0, 0, 0, 0],                // the root twice
        &[2, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0], // 1@1 a map and a list
    ];
    for body in rejected {
        assert!(is_corrupt(&Doc::load(ActorId(1), &image(body))), "{body:?}");
    }
}

/// A document that took `ops` from a peer as one change, saved.
fn image_after(ops: Vec<Op>) -> Vec<u8> {
    let mut d = Doc::new(ActorId(1));
    d.put(&path!["rows", "a"], json!({"v": 1})).unwrap();
    d.apply_changes(&[Change::new(ActorId(7), 1, VClock::new(), ops)])
        .unwrap();
    d.save()
}

fn set(n: u64, obj: ObjId, key: &str, child: ObjId) -> Op {
    Op::Set {
        id: OpId::new(n, ActorId(7)),
        obj,
        key: key.into(),
        value: OpValue::Obj(child),
        pred: vec![],
    }
}

fn made(n: u64) -> ObjId {
    ObjId::Made(OpId::new(n, ActorId(7)))
}

fn make_map(n: u64) -> Op {
    Op::MakeMap {
        id: OpId::new(n, ActorId(7)),
    }
}

fn make_list(n: u64) -> Op {
    Op::MakeList {
        id: OpId::new(n, ActorId(7)),
    }
}

fn insert(n: u64, list: ObjId, child: ObjId) -> Op {
    Op::Insert {
        id: OpId::new(n, ActorId(7)),
        obj: list,
        after: ElemRef::Head,
        value: OpValue::Obj(child),
    }
}

/// Reads follow container references, so an image in which they are not a
/// forest would be read without end. A container nothing refers to — what
/// every replaced row leaves behind — is not that.
#[test]
fn an_image_with_the_root_as_a_child_is_corrupt() {
    let image = image_after(vec![set(1, ObjId::Root, "self", ObjId::Root)]);
    assert!(is_corrupt(&Doc::load(ActorId(2), &image)));
    // held by a container no read reaches: no loop, still not a forest
    let aside = vec![make_map(1), set(2, made(1), "up", ObjId::Root)];
    assert!(is_corrupt(&Doc::load(ActorId(2), &image_after(aside))));
}

#[test]
fn an_image_with_a_container_held_twice_is_corrupt() {
    let twice = vec![
        make_map(1),
        set(2, ObjId::Root, "one", made(1)),
        set(3, ObjId::Root, "two", made(1)),
    ];
    assert!(is_corrupt(&Doc::load(ActorId(2), &image_after(twice))));
    let twice_in_a_list = vec![
        make_map(1),
        make_list(2),
        insert(3, made(2), made(1)),
        insert(4, made(2), made(1)),
    ];
    assert!(is_corrupt(&Doc::load(
        ActorId(2),
        &image_after(twice_in_a_list)
    )));
    // held once, and a second container held by nothing: a forest
    let once = vec![
        make_map(1),
        make_map(4),
        set(2, ObjId::Root, "one", made(1)),
    ];
    let loaded = Doc::load(ActorId(2), &image_after(once)).unwrap();
    assert_eq!(
        loaded.to_json(),
        json!({"rows": {"a": {"v": 1}}, "one": {}})
    );
}

#[test]
fn an_image_with_a_container_as_its_own_ancestor_is_corrupt() {
    let itself = vec![make_map(1), set(2, made(1), "me", made(1))];
    assert!(is_corrupt(&Doc::load(ActorId(2), &image_after(itself))));
    let ring = vec![
        make_map(1),
        make_map(2),
        make_map(3),
        set(4, made(1), "next", made(2)),
        set(5, made(2), "next", made(3)),
        set(6, made(3), "next", made(1)),
    ];
    assert!(is_corrupt(&Doc::load(ActorId(2), &image_after(ring))));
    let through_a_list = vec![
        make_map(1),
        make_list(2),
        insert(3, made(2), made(1)),
        set(4, made(1), "back", made(2)),
    ];
    assert!(is_corrupt(&Doc::load(
        ActorId(2),
        &image_after(through_a_list)
    )));
    // the same three as a chain hanging off the root
    let chain = vec![
        make_map(1),
        make_map(2),
        make_map(3),
        set(4, made(1), "next", made(2)),
        set(5, made(2), "next", made(3)),
        set(6, ObjId::Root, "head", made(1)),
    ];
    let loaded = Doc::load(ActorId(2), &image_after(chain)).unwrap();
    assert_eq!(
        loaded.get(&path!["head"]),
        Some(json!({"next": {"next": {}}}))
    );
}

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn a_change_crosses_threads() {
    assert_send_sync::<Change>();
    assert_send_sync::<SyncMessage>();
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
                let _ = m.to_json();
            }
            Err(e) => prop_assert!(matches!(e, CrdtError::CorruptChange(_))),
        }
    }

    #[test]
    fn arbitrary_bytes_are_never_an_image(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut image = b"EDG\x03".to_vec();
        image.extend_from_slice(&bytes);
        for candidate in [&bytes, &image] {
            if let Ok(m) = Doc::load(ActorId(9), candidate) {
                prop_assert_eq!(&m.save(), candidate);
                let _ = m.to_json();
            }
        }
    }

    #[test]
    fn a_message_is_as_long_as_its_encoding(
        cs in prop::collection::vec(change(), 0..5),
        sender in wide(),
        clock in clock(),
        ack in clock(),
    ) {
        let msg = SyncMessage { sender: ActorId(sender), clock, ack, changes: cs };
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        prop_assert_eq!(msg.wire_size(), bytes.len());
        // sized before or after its changes were: the same number
        prop_assert_eq!(msg.clone().wire_size(), bytes.len());
        // the batch is the changes' own encodings back to back
        let tail: Vec<u8> = msg.changes.iter().flat_map(encoded).collect();
        prop_assert!(bytes.ends_with(&tail));
        // and a view that generated it accounts exactly these bytes
        let mut view = PeerSync::new();
        let sent = view.generate(msg.sender, msg.clock.clone(), |_| msg.changes.clone());
        prop_assert_eq!(view.bytes_sent, sent.wire_size());
    }
}
