//! Property tests for acked-prefix compaction: a compacted replica is
//! observably equivalent to an uncompacted one (same reads, same
//! `get_changes` above the frontier, same convergence), a peer that
//! crashes and rejoins from a compacted `save` catches up cleanly, and
//! the min-ack frontier never folds away a change a live peer has not
//! acknowledged — even when the network drops messages.

use edgstr_crdt::{ActorId, Cell, Doc, Row, VClock, Value};
use proptest::prelude::*;
use serde_json::json;

/// A randomly generated document operation.
#[derive(Debug, Clone)]
enum Op {
    Put {
        key: u8,
        value: i64,
    },
    Delete {
        key: u8,
    },
    /// `m<key>` = a row of an integer and a blob.
    PutRow {
        key: u8,
        value: i64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, -1000i64..1000).prop_map(|(key, value)| Op::Put { key, value }),
        (0u8..5).prop_map(|key| Op::Delete { key }),
        (0u8..3, -50i64..50).prop_map(|(key, value)| Op::PutRow { key, value }),
    ]
}

fn json(v: serde_json::Value) -> Value {
    Value::Json(v)
}

fn apply_op(doc: &mut Doc, op: &Op) {
    match op {
        Op::Put { key, value } => doc.put(&format!("k{key}"), json(json!(value))),
        Op::Delete { key } => doc.delete(&format!("k{key}")),
        Op::PutRow { key, value } => {
            let row = Row::new(
                ["v".to_string(), "vs".to_string()].into(),
                [Cell::Int(*value), Cell::Blob(value.to_le_bytes().to_vec())].into(),
            );
            doc.put(&format!("m{key}"), Value::Row(row));
        }
    }
}

fn state(doc: &Doc) -> Vec<(String, Value)> {
    doc.entries()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// `from` ships what `to` has not acknowledged. `acked` is `from`'s record
/// of those acknowledgments: it advances to `to`'s clock once the delta is
/// applied, and never on a message that was lost.
fn ship(from: &Doc, acked: &mut VClock, to: &mut Doc) {
    to.apply_changes(from.get_changes(acked));
    acked.merge(to.clock());
}

/// One reliable bidirectional round between two replicas.
fn reliable_round(a: &mut Doc, av: &mut VClock, b: &mut Doc, bv: &mut VClock) {
    ship(a, av, b);
    ship(b, bv, a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compacting at the peer-ack frontier changes nothing observable:
    /// reads, clock, and the deltas served above the frontier are
    /// identical to the uncompacted replica's, and an identical
    /// continuation of writes and syncs converges to the same state.
    #[test]
    fn compacted_replica_is_observably_equivalent(
        warm_a in prop::collection::vec(op(), 1..12),
        warm_b in prop::collection::vec(op(), 0..12),
        unacked in prop::collection::vec(op(), 0..6),
        tail_a in prop::collection::vec(op(), 0..6),
        tail_b in prop::collection::vec(op(), 0..6),
    ) {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        let mut av = VClock::new();
        let mut bv = VClock::new();
        for o in &warm_a {
            apply_op(&mut a, o);
        }
        for o in &warm_b {
            apply_op(&mut b, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut av, &mut b, &mut bv);
        }
        // writes b has not acked yet: the frontier sits strictly below
        // a's clock, so compaction must retain a tail
        for o in &unacked {
            apply_op(&mut a, o);
        }

        let shadow = a.clone();
        let frontier = av.clone();
        a.compact(&frontier);

        prop_assert_eq!(state(&a), state(&shadow));
        prop_assert_eq!(a.clock(), shadow.clock());
        prop_assert_eq!(a.get_changes(&frontier), shadow.get_changes(&frontier));
        prop_assert_eq!(a.get_changes(b.clock()), shadow.get_changes(b.clock()));

        // parallel universes: compacted a vs uncompacted shadow run the
        // identical continuation against identical peers
        let mut b2 = b.clone();
        let mut av2 = av.clone();
        let mut bv2 = bv.clone();
        let mut shadow = shadow;
        for o in &tail_a {
            apply_op(&mut a, o);
            apply_op(&mut shadow, o);
        }
        for o in &tail_b {
            apply_op(&mut b, o);
            apply_op(&mut b2, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut av, &mut b, &mut bv);
            reliable_round(&mut shadow, &mut av2, &mut b2, &mut bv2);
        }
        prop_assert_eq!(state(&a), state(&b));
        prop_assert_eq!(state(&a), state(&shadow));
        prop_assert_eq!(state(&b), state(&b2));
        prop_assert_eq!(a.clock(), shadow.clock());
    }

    /// A replica provisioned from a compacted save (snapshot + retained
    /// tail) is the same replica as its source — state, clocks, retained
    /// log, the delta it serves at any cursor, and what a concurrent
    /// write from a peer that has not seen the tail does to it — and it
    /// syncs forward cleanly under a fresh actor id: the crash/rejoin
    /// flow.
    #[test]
    fn rejoin_from_compacted_save_converges(
        warm in prop::collection::vec(op(), 1..12),
        unacked in prop::collection::vec(op(), 0..6),
        cursor in prop::collection::vec(0u64..16, 3..4),
        tail_src in prop::collection::vec(op(), 0..6),
        tail_new in prop::collection::vec(op(), 0..6),
    ) {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        let mut av = VClock::new();
        let mut bv = VClock::new();
        // three more keys and a lone value beside the generated keys
        for (k, v) in [("l0", "x"), ("l1", "y"), ("l2", "z")] {
            a.put(k, json(json!(v)));
        }
        a.put("n0", json(json!([3])));
        for o in &warm {
            apply_op(&mut a, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut av, &mut b, &mut bv);
        }
        // some writes past the ack frontier end up in the save's tail,
        // a delete and an overwrite among them
        for o in &unacked {
            apply_op(&mut a, o);
        }
        a.delete("l1");
        a.put("n0", json(json!([5])));
        a.compact(&av);

        let image = a.save();
        let mut c = Doc::load(ActorId(3), &image).unwrap();
        prop_assert_eq!(state(&c), state(&a));
        prop_assert_eq!(c.clock(), a.clock());
        prop_assert_eq!(c.snapshot_clock(), a.snapshot_clock());
        prop_assert_eq!(c.history_len(), a.history_len());
        let mut since = VClock::new();
        for (actor, seq) in cursor.iter().enumerate() {
            since.observe(ActorId(actor as u64), *seq);
        }
        prop_assert_eq!(c.get_changes(&since), a.get_changes(&since));
        prop_assert_eq!(c.get_changes(b.clock()), a.get_changes(b.clock()));

        // b has seen none of the tail. Its writes name what it observed:
        // a `pred` into state `a` has folded, the key `a` has since
        // deleted (overwritten, then deleted), and exactly the value of
        // `n0` it saw (the later overwrite survives the delete: add-wins).
        // The original and the loaded copy must take them identically.
        let before = b.clock().clone();
        b.put("k0", json(json!("from-b")));
        b.put("l1", json(json!("Y")));
        b.delete("l1");
        b.delete("n0");
        let concurrent = b.get_changes(&before);
        prop_assert_eq!(concurrent.len(), 4);
        let on_a = a.apply_changes(concurrent.clone());
        let on_c = c.apply_changes(concurrent);
        prop_assert_eq!(on_a.0, 4);
        prop_assert_eq!(on_c, on_a);
        prop_assert_eq!(state(&c), state(&a));
        prop_assert_eq!(c.clock(), a.clock());
        prop_assert_eq!(a.get("l1"), None);
        prop_assert_eq!(a.get("l2"), Some(&json(json!("z"))));
        prop_assert_eq!(a.get("n0"), Some(&json(json!([5]))));
        prop_assert_eq!(c.get_changes(&since), a.get_changes(&since));

        // both endpoints start acknowledged up to the provisioning clock
        let mut a_sees_c = c.clock().clone();
        let mut c_sees_a = a.clock().clone();

        for o in &tail_src {
            apply_op(&mut a, o);
        }
        for o in &tail_new {
            apply_op(&mut c, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut a_sees_c, &mut c, &mut c_sees_a);
        }
        prop_assert_eq!(state(&a), state(&c));
        prop_assert_eq!(a.clock(), c.clock());
        // quiescent: provisioning left nothing below the image to re-send
        prop_assert!(a.get_changes(&a_sees_c).is_empty());
        prop_assert!(c.get_changes(&c_sees_a).is_empty());
    }

    /// Frontier safety under loss, in a hub-and-spokes topology: the hub
    /// compacts at the *meet* of both spokes' ack clocks every round
    /// while the network drops arbitrary messages. Because un-acked
    /// changes are never folded, healing the links always converges.
    #[test]
    fn min_ack_frontier_never_discards_needed_changes(
        rounds in prop::collection::vec(
            (
                (
                    prop::collection::vec(op(), 0..3),
                    prop::collection::vec(op(), 0..3),
                    prop::collection::vec(op(), 0..3),
                ),
                (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            ),
            1..10,
        ),
    ) {
        let mut hub = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        let mut c = Doc::new(ActorId(3));
        let mut hub_b = VClock::new(); // what b has acknowledged to the hub
        let mut hub_c = VClock::new(); // what c has acknowledged to the hub
        let mut b_hub = VClock::new();
        let mut c_hub = VClock::new();

        for ((ops_h, ops_b, ops_c), (drop_hb, drop_bh, drop_hc, drop_ch)) in &rounds {
            for o in ops_h {
                apply_op(&mut hub, o);
            }
            for o in ops_b {
                apply_op(&mut b, o);
            }
            for o in ops_c {
                apply_op(&mut c, o);
            }
            // a lost message delivers nothing and acknowledges nothing
            if !drop_hb {
                ship(&hub, &mut hub_b, &mut b);
            }
            if !drop_bh {
                ship(&b, &mut b_hub, &mut hub);
            }
            if !drop_hc {
                ship(&hub, &mut hub_c, &mut c);
            }
            if !drop_ch {
                ship(&c, &mut c_hub, &mut hub);
            }
            // aggressive steady-state compaction at the safe frontier
            hub.compact(&hub_b.meet(&hub_c));
            b.compact(&b_hub);
            c.compact(&c_hub);
        }

        // the links heal: reliable rounds must fully converge the star
        // (the hub relays each spoke's changes to the other)
        for _ in 0..3 {
            reliable_round(&mut hub, &mut hub_b, &mut b, &mut b_hub);
            reliable_round(&mut hub, &mut hub_c, &mut c, &mut c_hub);
        }
        prop_assert_eq!(state(&hub), state(&b));
        prop_assert_eq!(state(&hub), state(&c));
        prop_assert_eq!(hub.clock(), b.clock());
        prop_assert_eq!(hub.clock(), c.clock());
        prop_assert_eq!(hub.pending_len(), 0);
        prop_assert_eq!(b.pending_len(), 0);
        prop_assert_eq!(c.pending_len(), 0);
        // quiescent in every direction
        prop_assert!(hub.get_changes(&hub_b).is_empty());
        prop_assert!(b.get_changes(&b_hub).is_empty());
        prop_assert!(hub.get_changes(&hub_c).is_empty());
        prop_assert!(c.get_changes(&c_hub).is_empty());
    }
}
