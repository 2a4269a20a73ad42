//! Property tests for strong eventual consistency, on row puts: replicas
//! that have seen the same writes — in any delivery order, with duplicates —
//! read the same rows. This is the guarantee EdgStr's transformation
//! relies on (§III-F). A replica that only hears its own writes reads
//! what a plain map would, and a row written over and over keeps one
//! value in its image, not its history.

use edgstr_crdt::{ActorId, Cell, Doc, Row, Slot, VClock, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A randomly generated table operation.
#[derive(Debug, Clone)]
enum RowOp {
    /// Upsert row `r<key>` whole.
    Put {
        key: u8,
        value: i64,
    },
    Delete {
        key: u8,
    },
}

fn row_op() -> impl Strategy<Value = RowOp> {
    prop_oneof![
        (0u8..6, any::<i64>()).prop_map(|(key, value)| RowOp::Put { key, value }),
        (0u8..6, any::<i64>()).prop_map(|(key, value)| RowOp::Put { key, value }),
        (0u8..6).prop_map(|key| RowOp::Delete { key }),
    ]
}

fn row(key: &str, value: i64) -> Value {
    Value::Row(Row::new(
        ["id".to_string(), "v".to_string(), "note".to_string()].into(),
        [
            Cell::Text(key.to_string()),
            Cell::Int(value),
            Cell::Real(value as f64 / 8.0),
        ]
        .into(),
    ))
}

fn apply_row_op(doc: &mut Doc, op: &RowOp) {
    match op {
        RowOp::Put { key, value } => {
            let key = format!("r{key}");
            doc.put(&key, row(&key, *value));
        }
        RowOp::Delete { key } => doc.delete(&format!("r{key}")),
    }
}

fn state(doc: &Doc) -> Vec<(String, Value)> {
    doc.entries()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
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
                let base = docs[i].clock().clone();
                let changes = docs[j].get_changes(&base);
                let clock = docs[j].clock().clone();
                let touched = docs[i].apply_changes(&base, &clock, changes).unwrap();
                if !touched.is_empty() || *docs[i].clock() != base {
                    progress = true;
                }
            }
        }
        if !progress {
            break;
        }
    }
}

fn snapshot() -> Vec<(String, Value)> {
    vec![("r0".to_string(), row("r0", 0))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two replicas applying arbitrary concurrent op sequences converge.
    #[test]
    fn two_replicas_converge(
        ops_a in prop::collection::vec(row_op(), 0..25),
        ops_b in prop::collection::vec(row_op(), 0..25),
    ) {
        let mut a = Doc::from_snapshot(ActorId(1), snapshot());
        let mut b = Doc::from_snapshot(ActorId(2), snapshot());
        for op in &ops_a { apply_row_op(&mut a, op); }
        for op in &ops_b { apply_row_op(&mut b, op); }
        let mut docs = [a, b];
        gossip_to_fixpoint(&mut docs);
        prop_assert_eq!(state(&docs[0]), state(&docs[1]));
    }

    /// Three replicas with interleaved sync rounds converge.
    #[test]
    fn three_replicas_with_mid_syncs_converge(
        rounds in prop::collection::vec(
            (0usize..3, prop::collection::vec(row_op(), 1..6), any::<bool>()),
            1..8
        ),
    ) {
        let mut docs = vec![
            Doc::from_snapshot(ActorId(1), snapshot()),
            Doc::from_snapshot(ActorId(2), snapshot()),
            Doc::from_snapshot(ActorId(3), snapshot()),
        ];
        for (who, ops, sync_after) in &rounds {
            for op in ops {
                apply_row_op(&mut docs[*who], op);
            }
            if *sync_after {
                // one-directional partial sync: replica (who+1) pulls
                let src = *who;
                let dst = (*who + 1) % 3;
                let base = docs[dst].clock().clone();
                let changes = docs[src].get_changes(&base);
                let clock = docs[src].clock().clone();
                docs[dst].apply_changes(&base, &clock, changes).unwrap();
            }
        }
        gossip_to_fixpoint(&mut docs);
        prop_assert_eq!(state(&docs[0]), state(&docs[1]));
        prop_assert_eq!(state(&docs[1]), state(&docs[2]));
    }

    /// Delivery order does not matter: merging a shuffled, duplicated
    /// stream of the writer's deltas — after each write, everything it
    /// holds — yields the writer's state, and that is the state a plain
    /// map holds after the same writes.
    #[test]
    fn shuffled_duplicated_delivery_converges(
        ops in prop::collection::vec(row_op(), 1..20),
        seed in any::<u64>(),
    ) {
        let mut source = Doc::from_snapshot(ActorId(1), snapshot());
        let mut model: BTreeMap<String, Value> = snapshot().into_iter().collect();
        let mut deltas: Vec<(VClock, Vec<Slot>)> = Vec::new();
        for op in &ops {
            apply_row_op(&mut source, op);
            deltas.push((source.clock().clone(), source.get_changes(&VClock::new())));
            match op {
                RowOp::Put { key, value } => {
                    let key = format!("r{key}");
                    model.insert(key.clone(), row(&key, *value));
                }
                RowOp::Delete { key } => {
                    model.remove(&format!("r{key}"));
                }
            }
        }
        prop_assert_eq!(state(&source), model.into_iter().collect::<Vec<_>>());

        // pseudo-shuffle deterministically from the seed, with duplicates
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut replica = Doc::from_snapshot(ActorId(2), snapshot());
        let none = VClock::new();
        for &i in &order {
            let (clock, changes) = &deltas[i];
            replica.apply_changes(&none, clock, changes.clone()).unwrap();
            // duplicate delivery
            replica.apply_changes(&none, clock, changes.clone()).unwrap();
        }
        prop_assert_eq!(state(&replica), state(&source));
        prop_assert_eq!(replica.clock(), source.clock());
    }

    /// Table replicas converge when every write is a delete racing an
    /// upsert of the same row: a delete removes only the row versions it
    /// observed, so the concurrent upsert survives on both sides.
    #[test]
    fn tables_converge(
        muts in prop::collection::vec((0usize..2, 0u8..3, any::<i32>(), any::<bool>()), 0..30),
        syncs in prop::collection::vec(any::<bool>(), 30..31),
    ) {
        let mut tables = [Doc::new(ActorId(1)), Doc::new(ActorId(2))];
        for (i, (who, key, value, delete)) in muts.iter().enumerate() {
            let op = if *delete {
                RowOp::Delete { key: *key }
            } else {
                RowOp::Put { key: *key, value: i64::from(*value) }
            };
            apply_row_op(&mut tables[*who], &op);
            if syncs[i] {
                gossip_to_fixpoint(&mut tables);
            }
        }
        gossip_to_fixpoint(&mut tables);
        prop_assert_eq!(state(&tables[0]), state(&tables[1]));
    }
}

/// A register keeps the values not superseded, nothing else: 100 rows
/// upserted 101 times, merged at a second replica, save an image within
/// 2× of the same rows written once.
#[test]
fn an_upserted_row_costs_its_image_one_value() {
    let image = |rounds: i64| {
        let mut writer = Doc::new(ActorId(1));
        for round in 0..rounds {
            for id in 0..100 {
                let key = format!("r{id}");
                writer.put(&key, row(&key, round));
            }
        }
        let mut replica = Doc::new(ActorId(2));
        let changes = writer.get_changes(replica.clock());
        let none = VClock::new();
        replica
            .apply_changes(&none, writer.clock(), changes)
            .unwrap();
        replica.save().len()
    };
    let (once, often) = (image(1), image(101));
    assert!(often <= 2 * once, "{often} B against {once} B");
}
