//! A change remembers its encoded size: the remembered number must be the
//! length of a fresh serialization, travel with clones and JSON round
//! trips, and stay out of equality.

use edgstr_crdt::{batch_wire_size, ActorId, Change, ElemRef, ObjId, Op, OpId, OpValue, VClock};
use proptest::prelude::*;
use serde_json::{json, Value as Json};

fn op_id() -> impl Strategy<Value = OpId> {
    (1u64..2_000_000, 1u64..40).prop_map(|(counter, actor)| OpId::new(counter, ActorId(actor)))
}

fn obj_id() -> impl Strategy<Value = ObjId> {
    prop_oneof![Just(ObjId::Root), op_id().prop_map(ObjId::Made)]
}

/// Payloads whose encodings differ in length: escapes, multi-byte text,
/// floats, nesting.
fn scalar() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::from),
        any::<i64>().prop_map(Json::from),
        (-1_000_000i64..1_000_000).prop_map(|n| json!(n as f64 / 64.0)),
        (0usize..5).prop_map(|i| json!(["", "dune", "it's \"quoted\"\n", "naïve ✓", "\\"][i])),
        (any::<i64>(), 0usize..3).prop_map(|(n, i)| {
            let tags = ["a", "b", "c"][..i].to_vec();
            json!({"id": n, "tags": tags})
        }),
    ]
}

fn op_value() -> impl Strategy<Value = OpValue> {
    prop_oneof![
        scalar().prop_map(OpValue::Scalar),
        obj_id().prop_map(OpValue::Obj)
    ]
}

fn key() -> impl Strategy<Value = String> {
    (0usize..4, 0u32..5000).prop_map(|(i, n)| format!("{}{n}", ["k", "rows", "päth/", "\""][i]))
}

fn preds() -> impl Strategy<Value = Vec<OpId>> {
    prop::collection::vec(op_id(), 0..3)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_id().prop_map(|id| Op::MakeMap { id }),
        op_id().prop_map(|id| Op::MakeList { id }),
        (op_id(), obj_id(), key(), op_value(), preds()).prop_map(|(id, obj, key, value, pred)| {
            Op::Set {
                id,
                obj,
                key,
                value,
                pred,
            }
        }),
        (op_id(), obj_id(), key(), preds()).prop_map(|(id, obj, key, pred)| Op::DelKey {
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
        (op_id(), obj_id(), key(), any::<i64>()).prop_map(|(id, obj, key, delta)| Op::Inc {
            id,
            obj,
            key,
            delta,
        }),
    ]
}

fn change() -> impl Strategy<Value = Change> {
    (
        1u64..40,
        1u64..1_000_000,
        prop::collection::vec((1u64..40, 1u64..1_000_000), 0..4),
        prop::collection::vec(op(), 0..8),
    )
        .prop_map(|(actor, seq, deps, ops)| {
            let mut clock = VClock::new();
            for (a, s) in deps {
                clock.observe(ActorId(a), s);
            }
            Change::new(ActorId(actor), seq, clock, ops)
        })
}

fn fresh_len(c: &Change) -> usize {
    serde_json::to_vec(c).unwrap().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn remembered_size_is_the_encoded_length(c in change()) {
        let unsized_twin = c.clone();
        let size = c.wire_size();
        prop_assert_eq!(size, fresh_len(&c));
        prop_assert_eq!(c.wire_size(), size, "the second call repeats the first");
        // a clone taken after sizing carries the number; one taken before
        // works it out for itself; neither differs from the original
        prop_assert_eq!(c.clone().wire_size(), size);
        prop_assert_eq!(&unsized_twin, &c, "equality ignores what is remembered");
        prop_assert_eq!(unsized_twin.wire_size(), size);
        // across the wire: the rebuilt change is equal and sizes the same
        let back: Change = serde_json::from_slice(&serde_json::to_vec(&c).unwrap()).unwrap();
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(back.wire_size(), size);
    }

    #[test]
    fn batch_size_is_the_sum(cs in prop::collection::vec(change(), 0..6)) {
        let want: usize = cs.iter().map(fresh_len).sum();
        prop_assert_eq!(batch_wire_size(&cs), want);
        prop_assert_eq!(batch_wire_size(&cs), want);
    }
}
