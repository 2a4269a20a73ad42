//! Property tests for strong eventual consistency: replicas that apply the
//! same changes — in any delivery order, with duplicates — read the same
//! state. This is the guarantee EdgStr's transformation relies on (§III-F).

use edgstr_crdt::{ActorId, Change, CrdtTable, Doc, PathSeg, VClock};
use proptest::prelude::*;
use serde_json::json;

/// A randomly generated document operation.
#[derive(Debug, Clone)]
enum DocOp {
    Put {
        key: u8,
        value: i64,
    },
    Delete {
        key: u8,
    },
    /// `cfg/<key>` = scalar, inside the shared map.
    PutNested {
        key: u8,
        value: i64,
    },
    DeleteNested {
        key: u8,
    },
    /// `k<key>` = an array, or an object holding one.
    PutArray {
        key: u8,
        values: Vec<i64>,
        wrap: bool,
    },
}

fn doc_op() -> impl Strategy<Value = DocOp> {
    prop_oneof![
        (0u8..6, any::<i64>()).prop_map(|(key, value)| DocOp::Put { key, value }),
        (0u8..6).prop_map(|key| DocOp::Delete { key }),
        (0u8..3, any::<i64>()).prop_map(|(key, value)| DocOp::PutNested { key, value }),
        (0u8..3).prop_map(|key| DocOp::DeleteNested { key }),
        (
            0u8..6,
            prop::collection::vec(any::<i64>(), 0..4),
            any::<bool>()
        )
            .prop_map(|(key, values, wrap)| DocOp::PutArray { key, values, wrap }),
    ]
}

fn apply_doc_op(doc: &mut Doc, op: &DocOp) {
    let key = |k: u8| vec![PathSeg::Key(format!("k{k}"))];
    let nested = |k: u8| vec![PathSeg::Key("cfg".into()), PathSeg::Key(format!("n{k}"))];
    match op {
        DocOp::Put { key: k, value } => doc.put(&key(*k), json!(value)).unwrap(),
        DocOp::Delete { key: k } => {
            let _ = doc.delete(&key(*k));
        }
        DocOp::PutNested { key: k, value } => doc.put(&nested(*k), json!(value)).unwrap(),
        DocOp::DeleteNested { key: k } => {
            let _ = doc.delete(&nested(*k));
        }
        DocOp::PutArray {
            key: k,
            values,
            wrap,
        } => {
            let value = if *wrap {
                json!({ "items": values })
            } else {
                json!(values)
            };
            doc.put(&key(*k), value).unwrap();
        }
    }
}

/// Gossip all replicas pairwise until no replica learns anything new.
fn gossip_to_fixpoint(docs: &mut [Doc]) {
    loop {
        let mut progress = false;
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                if i == j {
                    continue;
                }
                let changes = docs[j].get_changes(docs[i].clock());
                if !changes.is_empty() && docs[i].apply_changes(changes).unwrap().0 > 0 {
                    progress = true;
                }
            }
        }
        if !progress {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two replicas applying arbitrary concurrent op sequences converge.
    #[test]
    fn two_replicas_converge(
        ops_a in prop::collection::vec(doc_op(), 0..25),
        ops_b in prop::collection::vec(doc_op(), 0..25),
    ) {
        // snapshot initialization shares the `cfg` container identity
        let snap = json!({"cfg": {}});
        let mut a = Doc::from_snapshot(ActorId(1), &snap);
        let mut b = Doc::from_snapshot(ActorId(2), &snap);
        for op in &ops_a { apply_doc_op(&mut a, op); }
        for op in &ops_b { apply_doc_op(&mut b, op); }
        let mut docs = [a, b];
        gossip_to_fixpoint(&mut docs);
        prop_assert_eq!(docs[0].to_json(), docs[1].to_json());
    }

    /// Three replicas with interleaved sync rounds converge.
    #[test]
    fn three_replicas_with_mid_syncs_converge(
        rounds in prop::collection::vec(
            (0usize..3, prop::collection::vec(doc_op(), 1..6), any::<bool>()),
            1..8
        ),
    ) {
        let snap = json!({"cfg": {}});
        let mut docs = vec![
            Doc::from_snapshot(ActorId(1), &snap),
            Doc::from_snapshot(ActorId(2), &snap),
            Doc::from_snapshot(ActorId(3), &snap),
        ];
        for (who, ops, sync_after) in &rounds {
            for op in ops {
                apply_doc_op(&mut docs[*who], op);
            }
            if *sync_after {
                // one-directional partial sync: replica (who+1) pulls
                let src = *who;
                let dst = (*who + 1) % 3;
                let changes = docs[src].get_changes(docs[dst].clock());
                docs[dst].apply_changes(changes).unwrap();
            }
        }
        gossip_to_fixpoint(&mut docs);
        prop_assert_eq!(docs[0].to_json(), docs[1].to_json());
        prop_assert_eq!(docs[1].to_json(), docs[2].to_json());
    }

    /// Delivery order does not matter: applying a shuffled, duplicated
    /// change stream yields the same state as in-order application.
    #[test]
    fn shuffled_duplicated_delivery_converges(
        ops in prop::collection::vec(doc_op(), 1..20),
        seed in any::<u64>(),
    ) {
        let snap = json!({"cfg": {}});
        let mut source = Doc::from_snapshot(ActorId(1), &snap);
        for op in &ops { apply_doc_op(&mut source, op); }
        let changes: Vec<Change> = source.get_changes(&VClock::new());

        // pseudo-shuffle deterministically from the seed, with duplicates
        let mut order: Vec<usize> = (0..changes.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut replica = Doc::from_snapshot(ActorId(2), &snap);
        for &i in &order {
            replica.apply_changes(vec![changes[i].clone()]).unwrap();
            // duplicate delivery
            replica.apply_changes(vec![changes[i].clone()]).unwrap();
        }
        prop_assert_eq!(replica.pending_len(), 0);
        prop_assert_eq!(replica.to_json(), source.to_json());
    }

    /// Table replicas converge under concurrent row/cell mutations.
    #[test]
    fn tables_converge(
        muts in prop::collection::vec(
            (0usize..2, 0u8..5, 0u8..3, any::<i32>(), any::<bool>()),
            0..30
        ),
    ) {
        let mut tables = [
            CrdtTable::new(ActorId(1), "t"),
            CrdtTable::new(ActorId(2), "t"),
        ];
        for (who, pk, col, value, delete) in &muts {
            let pk = format!("r{pk}");
            let col = format!("c{col}");
            if *delete {
                tables[*who].delete_row(&pk).unwrap();
            } else if tables[*who].get_row(&pk).is_some() {
                tables[*who].update_cell(&pk, &col, &json!(value)).unwrap();
            } else {
                tables[*who].upsert_row(&pk, &json!({ col: value })).unwrap();
            }
        }
        // bidirectional sync to fixpoint
        loop {
            let c01 = tables[0].get_changes(tables[1].clock());
            let c10 = tables[1].get_changes(tables[0].clock());
            let (a, _) = tables[1].apply_changes(c01).unwrap();
            let (b, _) = tables[0].apply_changes(c10).unwrap();
            if a == 0 && b == 0 { break; }
        }
        prop_assert_eq!(tables[0].to_json(), tables[1].to_json());
    }
}
