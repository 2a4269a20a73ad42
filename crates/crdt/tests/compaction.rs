//! Property tests for tombstone compaction: a compacted replica is
//! observably equivalent to an uncompacted one (same reads, same clock,
//! the same state at a peer that merges its delta, same convergence), a
//! peer that crashes and rejoins from a compacted `save` catches up
//! cleanly, and the min-ack frontier never drops a tombstone a live peer
//! has not acknowledged — even when the network drops messages.

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
/// of those acknowledgments — the base the delta is read above: it
/// advances to `to`'s clock once the delta is merged, and never on a
/// message that was lost.
fn ship(from: &Doc, acked: &mut VClock, to: &mut Doc) {
    let changes = from.get_changes(acked);
    let merged = to.apply_changes(acked, from.clock(), changes);
    assert!(
        merged.is_some(),
        "a delta read above an ack is never refused"
    );
    acked.merge(to.clock());
}

/// What `peer` holds after merging `from`'s delta above its clock.
fn merged_at(peer: &Doc, from: &Doc) -> Vec<(String, Value)> {
    let mut peer = peer.clone();
    let base = peer.clock().clone();
    let changes = from.get_changes(&base);
    peer.apply_changes(&base, from.clock(), changes).unwrap();
    state(&peer)
}

/// One reliable bidirectional round between two replicas.
fn reliable_round(a: &mut Doc, av: &mut VClock, b: &mut Doc, bv: &mut VClock) {
    ship(a, av, b);
    ship(b, bv, a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compacting at the peer-ack frontier changes nothing observable:
    /// reads, clock, and what the peer holds after merging its delta are
    /// the uncompacted replica's, and an identical continuation of writes
    /// and syncs converges to the same state.
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
        // a's clock, so compaction must keep their tombstones
        for o in &unacked {
            apply_op(&mut a, o);
        }

        let shadow = a.clone();
        let frontier = av.clone();
        a.compact(&frontier);

        prop_assert_eq!(state(&a), state(&shadow));
        prop_assert_eq!(a.clock(), shadow.clock());
        prop_assert_eq!(merged_at(&b, &a), merged_at(&b, &shadow));

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

    /// A replica provisioned from a compacted save (registers and
    /// resident tombstones) is the same replica as its source — state,
    /// clock, tombstones, the delta it serves at any cursor, and what a
    /// concurrent write from a peer that has not seen the latest writes
    /// does to it — and it syncs forward cleanly under a fresh actor id:
    /// the crash/rejoin flow.
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
        // some writes past the ack frontier, a delete and an overwrite
        // among them: the delete's tombstone stays in the save
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
        prop_assert!(a.history_len() > 0, "the delete of l1 is above the frontier");
        prop_assert_eq!(c.history_len(), a.history_len());
        let mut since = VClock::new();
        for (actor, seq) in cursor.iter().enumerate() {
            since.observe(ActorId(actor as u64), *seq);
        }
        prop_assert_eq!(c.get_changes(&since), a.get_changes(&since));
        prop_assert_eq!(c.get_changes(b.clock()), a.get_changes(b.clock()));

        // b has seen none of the latest writes. Its own overwrite a key
        // `a` has since deleted (overwritten, then deleted) and delete
        // exactly the value of `n0` it saw (the later overwrite survives
        // the delete: add-wins). The original and the loaded copy must
        // take them identically.
        let before = b.clock().clone();
        b.put("k0", json(json!("from-b")));
        b.put("l1", json(json!("Y")));
        b.delete("l1");
        b.delete("n0");
        let concurrent = b.get_changes(&before);
        prop_assert_eq!(concurrent.len(), 3);
        let on_a = a.apply_changes(&before, b.clock(), concurrent.clone());
        let on_c = c.apply_changes(&before, b.clock(), concurrent);
        prop_assert_eq!(on_a.as_ref().map(|t| t.len()), Some(3));
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
    /// while the network drops arbitrary messages. Because a tombstone is
    /// dropped only once every spoke has acked it, healing the links
    /// always converges.
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
        // quiescent in every direction
        prop_assert!(hub.get_changes(&hub_b).is_empty());
        prop_assert!(b.get_changes(&b_hub).is_empty());
        prop_assert!(hub.get_changes(&hub_c).is_empty());
        prop_assert!(c.get_changes(&c_hub).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The rejoin flow under HA: a hub feeds a standby before it answers
    /// its spokes and compacts no further than the standby holds (the
    /// durability frontier); a spoke that crashes restarts, under a fresh
    /// actor, from the standby's image, and both ends of its link start at
    /// the image's clock. A tombstone above that clock is never dropped,
    /// so the restarted spoke — which may hold the deleted value from the
    /// image — still learns of the delete, and healing converges the star.
    #[test]
    fn a_spoke_restarted_from_the_standby_image_converges(
        before in prop::collection::vec((0usize..3, op()), 0..20),
        rounds in 1usize..4,
        after in prop::collection::vec((0usize..3, op()), 0..20),
    ) {
        let mut hub = Doc::new(ActorId(1));
        let mut standby = Doc::new(ActorId(9));
        let mut spokes = [Doc::new(ActorId(2)), Doc::new(ActorId(3))];
        // per spoke: what the hub knows it holds, what it knows the hub holds
        let mut acks = [(VClock::new(), VClock::new()), (VClock::new(), VClock::new())];
        let mut durable = VClock::new(); // what the standby has acknowledged
        let round = |hub: &mut Doc, standby: &mut Doc, spokes: &mut [Doc; 2], acks: &mut [(VClock, VClock); 2], durable: &mut VClock| {
            ship(hub, durable, standby);
            for (spoke, (hub_sees, spoke_sees)) in spokes.iter_mut().zip(acks.iter_mut()) {
                ship(spoke, spoke_sees, hub);
                // the hub's answer: its delta, and an ack capped at what
                // the standby holds
                let changes = hub.get_changes(hub_sees);
                prop_assert!(spoke.apply_changes(hub_sees, hub.clock(), changes).is_some());
                spoke_sees.merge(&hub.clock().meet(durable));
                hub_sees.merge(spoke.clock());
            }
            let frontier = acks[0].0.meet(&acks[1].0).meet(durable);
            hub.compact(&frontier);
            for (spoke, (_, spoke_sees)) in spokes.iter_mut().zip(acks.iter()) {
                spoke.compact(spoke_sees);
            }
            Ok(())
        };
        let write = |hub: &mut Doc, spokes: &mut [Doc; 2], (who, o): &(usize, Op)| match who {
            0 => apply_op(hub, o),
            n => apply_op(&mut spokes[n - 1], o),
        };
        for (i, w) in before.iter().enumerate() {
            write(&mut hub, &mut spokes, w);
            if i % 4 == 3 {
                round(&mut hub, &mut standby, &mut spokes, &mut acks, &mut durable)?;
            }
        }
        for _ in 0..rounds {
            round(&mut hub, &mut standby, &mut spokes, &mut acks, &mut durable)?;
        }
        // more writes reach the hub, but not yet the standby
        for w in &after {
            write(&mut hub, &mut spokes, w);
        }
        ship(&spokes[1], &mut acks[1].1, &mut hub);
        // spoke 0 crashes and comes back from the standby's image
        let image = standby.save();
        spokes[0] = Doc::load(ActorId(4), &image).unwrap();
        let at = spokes[0].clock().clone();
        // every key the image holds and the hub has deleted since is still
        // in the hub's delta above the image's clock: its tombstone was
        // not dropped
        let above = hub.get_changes(&at);
        for (key, _) in spokes[0].entries().filter(|(k, _)| hub.get(k).is_none()) {
            prop_assert!(above.iter().any(|s| &**s.key() == key), "{} was deleted", key);
        }
        acks[0] = (at.clone(), at);
        for _ in 0..3 {
            round(&mut hub, &mut standby, &mut spokes, &mut acks, &mut durable)?;
        }
        prop_assert_eq!(state(&spokes[0]), state(&hub));
        prop_assert_eq!(state(&spokes[1]), state(&hub));
        prop_assert_eq!(state(&standby), state(&hub));
        prop_assert_eq!(spokes[0].clock(), hub.clock());
    }
}
