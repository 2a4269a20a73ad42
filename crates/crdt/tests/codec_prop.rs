//! The sync wire codec: every change survives `encode` → `decode`
//! bit for bit, `wire_size` is the encoded length (and travels with
//! clones without entering equality), and `decode` treats its input as
//! hostile — arbitrary bytes and truncated encodings are a
//! `CrdtError::CorruptChange`, never a panic and never a collection sized
//! for more elements than the input could encode.

use edgstr_crdt::{
    ActorId, Change, CrdtError, CrdtTable, ElemRef, ObjId, Op, OpId, OpValue, PeerSync,
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
                key,
                value,
                pred,
            }
        }),
        (op_id(), obj_id(), text(), preds()).prop_map(|(id, obj, key, pred)| Op::DelKey {
            id,
            obj,
            key,
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
            key,
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
                key: String::new(),
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

/// The format exists to be smaller than the JSON it replaces: a bookworm
/// row upsert must take at most a third of its JSON rendering (which
/// survives as the save image's tail, and here as the yardstick).
#[test]
fn a_row_upsert_is_a_third_of_its_json() {
    let mut t = CrdtTable::new(ActorId(2), "books");
    let before = t.clock().clone();
    t.upsert_row(
        "1017",
        &json!({"id": 1017, "title": "Permutation City", "author": "Egan", "price": 7.25, "stock": 12}),
    )
    .unwrap();
    let changes = t.get_changes(&before);
    assert_eq!(changes.len(), 1);
    let json_len = serde_json::to_vec(&changes[0]).unwrap().len();
    let wire_len = changes[0].wire_size();
    assert!(
        wire_len * 3 <= json_len,
        "binary {wire_len} B vs JSON {json_len} B"
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

    /// The save image's tail is still `Serialize for Change`: the JSON form
    /// of every `Op` variant, `ObjId`, `ElemRef` and `OpValue` reads back
    /// equal, and re-encodes to the same wire bytes.
    #[test]
    fn the_json_form_round_trips(c in change()) {
        let json = serde_json::to_vec(&c).unwrap();
        let back = serde_json::from_slice::<Change>(&json);
        prop_assert!(back.is_ok(), "{:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(encoded(&back), encoded(&c));
        prop_assert_eq!(back.wire_size(), c.wire_size());
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
