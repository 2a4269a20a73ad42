//! Property tests for acked-prefix compaction: a compacted replica is
//! observably equivalent to an uncompacted one (same reads, same
//! `get_changes` above the frontier, same convergence), a peer that
//! crashes and rejoins from a compacted `save` catches up cleanly, and
//! the min-ack frontier never folds away a change a live peer has not
//! acknowledged — even when the network drops messages.

use edgstr_crdt::{ActorId, Doc, PathSeg, PeerSync, SyncMessage, VClock};
use proptest::prelude::*;
use serde_json::json;

/// A randomly generated document operation.
#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, value: i64 },
    Delete { key: u8 },
    Increment { key: u8, delta: i64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, -1000i64..1000).prop_map(|(key, value)| Op::Put { key, value }),
        (0u8..5).prop_map(|key| Op::Delete { key }),
        (0u8..3, -50i64..50).prop_map(|(key, delta)| Op::Increment { key, delta }),
    ]
}

fn apply_op(doc: &mut Doc, op: &Op) {
    let path = |k: u8| vec![PathSeg::Key(format!("k{k}"))];
    match op {
        Op::Put { key, value } => doc.put(&path(*key), json!(value)).unwrap(),
        Op::Delete { key } => {
            let _ = doc.delete(&path(*key));
        }
        Op::Increment { key, delta } => {
            // counters and plain puts on the same key conflict by design;
            // keep increments on their own key range
            doc.increment(&[PathSeg::Key(format!("n{key}"))], *delta)
                .unwrap();
        }
    }
}

fn send(doc: &Doc, view: &mut PeerSync) -> SyncMessage {
    view.generate(doc.actor(), doc.clock().clone(), |since| {
        doc.get_changes(since)
    })
}

fn deliver(doc: &mut Doc, view: &mut PeerSync, msg: &SyncMessage) {
    let changes = view.receive(msg).to_vec();
    doc.apply_changes(&changes).unwrap();
}

/// One reliable bidirectional round between two replicas.
fn reliable_round(a: &mut Doc, av: &mut PeerSync, b: &mut Doc, bv: &mut PeerSync) {
    let m = send(a, av);
    deliver(b, bv, &m);
    let m = send(b, bv);
    deliver(a, av, &m);
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
        let mut a = Doc::from_snapshot(ActorId(1), &json!({}));
        let mut b = Doc::from_snapshot(ActorId(2), &json!({}));
        let mut av = PeerSync::new();
        let mut bv = PeerSync::new();
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
        let frontier = av.peer_clock.clone();
        a.compact(&frontier);

        prop_assert_eq!(a.to_json(), shadow.to_json());
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
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.to_json(), shadow.to_json());
        prop_assert_eq!(b.to_json(), b2.to_json());
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
        let key = |k: &str| vec![PathSeg::Key(k.to_string())];
        let elem = |i: usize| vec![PathSeg::Key("l".to_string()), PathSeg::Index(i)];
        let mut a = Doc::from_snapshot(ActorId(1), &json!({}));
        let mut b = Doc::from_snapshot(ActorId(2), &json!({}));
        let mut av = PeerSync::new();
        let mut bv = PeerSync::new();
        // a list and a counter beside the generated keys
        a.put(&key("l"), json!(["x", "y", "z"])).unwrap();
        a.increment(&key("n0"), 3).unwrap();
        for o in &warm {
            apply_op(&mut a, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut av, &mut b, &mut bv);
        }
        // some writes past the ack frontier end up in the save's tail,
        // a tombstone and a further increment among them
        for o in &unacked {
            apply_op(&mut a, o);
        }
        a.delete(&elem(1)).unwrap();
        a.increment(&key("n0"), 5).unwrap();
        a.compact(&av.peer_clock.clone());

        let image = a.save();
        let mut c = Doc::load(ActorId(3), &image).unwrap();
        prop_assert_eq!(c.to_json(), a.to_json());
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
        // a `pred` into state `a` has folded, the element `a` has since
        // tombstoned (overwritten, then deleted), and exactly the
        // increments it saw (the later one survives the delete). The
        // original and the loaded copy must take them identically.
        let before = b.clock().clone();
        b.put(&key("k0"), json!("from-b")).unwrap();
        b.put(&elem(1), json!("Y")).unwrap();
        b.delete(&elem(1)).unwrap();
        b.delete(&key("n0")).unwrap();
        let concurrent = b.get_changes(&before);
        prop_assert_eq!(concurrent.len(), 4);
        prop_assert_eq!(a.apply_changes(&concurrent).unwrap(), 4);
        prop_assert_eq!(c.apply_changes(&concurrent).unwrap(), 4);
        prop_assert_eq!(c.to_json(), a.to_json());
        prop_assert_eq!(c.clock(), a.clock());
        prop_assert_eq!(a.get(&key("l")), Some(json!(["x", "z"])));
        let unseen: i64 = unacked
            .iter()
            .map(|o| match o {
                Op::Increment { key: 0, delta } => *delta,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(a.get(&key("n0")), Some(json!(5 + unseen)));
        prop_assert_eq!(c.get_changes(&since), a.get_changes(&since));

        // both endpoints start acknowledged up to the provisioning clock
        let mut a_sees_c = PeerSync::new();
        a_sees_c.peer_clock = c.clock().clone();
        let mut c_sees_a = PeerSync::new();
        c_sees_a.peer_clock = a.clock().clone();

        for o in &tail_src {
            apply_op(&mut a, o);
        }
        for o in &tail_new {
            apply_op(&mut c, o);
        }
        for _ in 0..2 {
            reliable_round(&mut a, &mut a_sees_c, &mut c, &mut c_sees_a);
        }
        prop_assert_eq!(a.to_json(), c.to_json());
        prop_assert_eq!(a.clock(), c.clock());
        // quiescent: provisioning left nothing below the image to re-send
        prop_assert!(send(&a, &mut a_sees_c).is_empty());
        prop_assert!(send(&c, &mut c_sees_a).is_empty());
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
        let mut hub = Doc::from_snapshot(ActorId(1), &json!({}));
        let mut b = Doc::from_snapshot(ActorId(2), &json!({}));
        let mut c = Doc::from_snapshot(ActorId(3), &json!({}));
        let mut hub_b = PeerSync::new(); // hub's view of b
        let mut hub_c = PeerSync::new(); // hub's view of c
        let mut b_hub = PeerSync::new();
        let mut c_hub = PeerSync::new();

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
            let m = send(&hub, &mut hub_b);
            if !drop_hb {
                deliver(&mut b, &mut b_hub, &m);
            }
            let m = send(&b, &mut b_hub);
            if !drop_bh {
                deliver(&mut hub, &mut hub_b, &m);
            }
            let m = send(&hub, &mut hub_c);
            if !drop_hc {
                deliver(&mut c, &mut c_hub, &m);
            }
            let m = send(&c, &mut c_hub);
            if !drop_ch {
                deliver(&mut hub, &mut hub_c, &m);
            }
            // aggressive steady-state compaction at the safe frontier
            let frontier = hub_b.peer_clock.meet(&hub_c.peer_clock);
            hub.compact(&frontier);
            b.compact(&b_hub.peer_clock.clone());
            c.compact(&c_hub.peer_clock.clone());
        }

        // the links heal: reliable rounds must fully converge the star
        // (the hub relays each spoke's changes to the other)
        for _ in 0..3 {
            reliable_round(&mut hub, &mut hub_b, &mut b, &mut b_hub);
            reliable_round(&mut hub, &mut hub_c, &mut c, &mut c_hub);
        }
        prop_assert_eq!(hub.to_json(), b.to_json());
        prop_assert_eq!(hub.to_json(), c.to_json());
        prop_assert_eq!(hub.clock(), b.clock());
        prop_assert_eq!(hub.clock(), c.clock());
        prop_assert_eq!(hub.pending_len(), 0);
        prop_assert_eq!(b.pending_len(), 0);
        prop_assert_eq!(c.pending_len(), 0);
        // quiescent in every direction
        prop_assert!(send(&hub, &mut hub_b).is_empty());
        prop_assert!(send(&b, &mut b_hub).is_empty());
        prop_assert!(send(&hub, &mut hub_c).is_empty());
        prop_assert!(send(&c, &mut c_hub).is_empty());
    }
}
