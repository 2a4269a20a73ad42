//! Tracked-merge tests: `apply_changes` must report every key whose slot
//! it changed — a row's primary key, a file's path, a global's name — and
//! nothing else. The property below holds it to a diff of every slot the
//! receiver holds, before and after each merge.

use edgstr_crdt::{ActorId, Cell, Doc, Row, VClock, Value};
use serde_json::json;
use std::collections::BTreeSet;
use std::sync::Arc;

const A: ActorId = ActorId(1);
const B: ActorId = ActorId(2);

fn row(age: i64) -> Value {
    Value::Row(Row::new(
        ["age".to_string()].into(),
        [Cell::Int(age)].into(),
    ))
}

fn keys(touched: &BTreeSet<Arc<str>>) -> Vec<&str> {
    touched.iter().map(|k| &**k).collect()
}

/// Merge into `dst` what `src` holds above `since`, which `dst` covers.
fn merge(dst: &mut Doc, src: &Doc, since: &VClock) -> BTreeSet<Arc<str>> {
    let changes = src.get_changes(since);
    dst.apply_changes(since, src.clock(), changes).unwrap()
}

#[test]
fn upsert_tracks_primary_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("seed", row(1));
    merge(&mut dst, &src, &VClock::new());

    let before = dst.clock().clone();
    src.put("alice", row(30));
    let touched = merge(&mut dst, &src, &before);
    assert_eq!(keys(&touched), ["alice"]);
}

#[test]
fn delete_row_tracks_primary_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    merge(&mut dst, &src, &VClock::new());

    let before = dst.clock().clone();
    src.delete("alice");
    let touched = merge(&mut dst, &src, &before);
    assert_eq!(keys(&touched), ["alice"]);
}

#[test]
fn files_track_path() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("seed.txt", Value::File(b"s".to_vec().into()));
    merge(&mut dst, &src, &VClock::new());

    let before = dst.clock().clone();
    src.put("notes.txt", Value::File(b"hello".to_vec().into()));
    let touched = merge(&mut dst, &src, &before);
    assert_eq!(keys(&touched), ["notes.txt"]);
}

#[test]
fn globals_track_root_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("counter", Value::Json(json!(7)));
    src.put("mode", Value::Json(json!({"speed": ["fast"]})));
    let touched = merge(&mut dst, &src, &VClock::new());
    assert_eq!(keys(&touched), ["counter", "mode"]);
}

/// A table restored from its image is the replica it was saved from: it
/// reads the same rows, holds the same tombstones and serves the same
/// deltas, and a peer's concurrent writes land on it exactly as they land
/// on the source — the same rows reported, the same table afterwards.
#[test]
fn tracking_survives_save_load_v2() {
    const C: ActorId = ActorId(3);
    let mut src = Doc::new(A);
    let mut peer = Doc::new(C);
    src.put("alice", row(30));
    src.put("bob", row(41));
    src.put("carol", row(50));
    src.delete("carol");
    merge(&mut peer, &src, &VClock::new());
    // drop the tombstone the peer has; keep one it has not
    let acked = peer.clock().clone();
    src.put("bob", row(42));
    src.put("erin", row(60));
    src.delete("erin");
    assert_eq!(src.compact(&acked), 1);
    let mut dst = Doc::load(B, &src.save()).unwrap();
    assert!(dst.entries().eq(src.entries()));
    assert_eq!(dst.clock(), src.clock());
    assert_eq!((dst.history_len(), src.history_len()), (1, 1));
    for cursor in [&VClock::new(), &acked, src.clock()] {
        assert_eq!(dst.get_changes(cursor), src.get_changes(cursor));
    }

    // the peer writes concurrently: an upsert of what both hold, and a
    // delete concurrent with the source's later upsert
    peer.put("alice", row(31));
    peer.delete("bob");
    let on_src = merge(&mut src, &peer, &acked);
    let on_dst = merge(&mut dst, &peer, &acked);
    assert_eq!(on_dst, on_src);
    assert_eq!(keys(&on_dst), ["alice", "bob"]);
    assert!(dst.entries().eq(src.entries()));
    // the delete did not observe the source's upsert of bob: add-wins
    let held: Vec<_> = dst.entries().collect();
    assert_eq!(held, [("alice", &row(31)), ("bob", &row(42))]);
}

#[test]
fn tracking_after_compaction_still_resolves() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    src.put("gone", row(1));
    src.delete("gone");
    merge(&mut dst, &src, &VClock::new());
    let frontier = dst.clock().clone();
    assert_eq!(dst.compact(&frontier), 1);

    src.put("alice", row(31));
    let touched = merge(&mut dst, &src, &frontier);
    assert_eq!(keys(&touched), ["alice"]);
}

/// A delta read above a base the receiver does not cover is refused and
/// reports nothing; the delta read above what it holds reports both keys.
#[test]
fn a_refused_delta_tracks_nothing() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    let mid = src.clock().clone();
    src.put("bob", row(41));
    let second = src.get_changes(&mid);

    assert_eq!(dst.apply_changes(&mid, src.clock(), second), None);
    assert!(dst.is_empty());

    let touched = merge(&mut dst, &src, &VClock::new());
    assert_eq!(keys(&touched), ["alice", "bob"]);
}

mod memo_prop {
    use super::row;
    use edgstr_crdt::{ActorId, Doc, Slot, VClock, Value};
    use proptest::prelude::*;
    use serde_json::json;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// A write to a key chosen by a small index, so generated writes
    /// collide.
    #[derive(Debug, Clone)]
    enum Write {
        Row { pk: u8, n: i64 },
        Global { key: u8, n: i64 },
        Delete { key: u8 },
    }

    fn write() -> impl Strategy<Value = Write> {
        let n = || -50i64..50;
        prop_oneof![
            (0u8..4, n()).prop_map(|(pk, n)| Write::Row { pk, n }),
            (0u8..3, n()).prop_map(|(key, n)| Write::Global { key, n }),
            (0u8..4).prop_map(|key| Write::Delete { key }),
        ]
    }

    fn apply(doc: &mut Doc, w: &Write) {
        match w {
            Write::Row { pk, n } => doc.put(&format!("k{pk}"), row(*n)),
            Write::Global { key, n } => doc.put(&format!("k{key}"), Value::Json(json!([n]))),
            Write::Delete { key } => doc.delete(&format!("k{key}")),
        }
    }

    /// Every slot `doc` holds, by key.
    fn slots(doc: &Doc) -> BTreeMap<Arc<str>, Slot> {
        let slots = doc.slots_under("");
        slots.map(|s| (Arc::clone(s.key()), s.clone())).collect()
    }

    /// The keys whose slot differs between `before` and `after`.
    fn diff(
        before: &BTreeMap<Arc<str>, Slot>,
        after: &BTreeMap<Arc<str>, Slot>,
    ) -> BTreeSet<Arc<str>> {
        let keys = before.keys().chain(after.keys());
        keys.filter(|k| before.get(*k) != after.get(*k))
            .cloned()
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Three writers put and delete concurrently, merging now and
        /// then; a fourth replica merges their deltas in a shuffled order,
        /// each read above a clock it held at some earlier point. Every
        /// call must report exactly the keys whose slot it changed, and
        /// the receiver ends with the writers' merged state.
        #[test]
        fn tracked_apply_reports_what_the_per_op_walk_reports(
            steps in prop::collection::vec((0usize..3, write(), 0u8..6), 1..40),
            order in prop::collection::vec((0usize..3, any::<u32>()), 0..60),
        ) {
            let mut writers = [Doc::new(ActorId(1)), Doc::new(ActorId(2)), Doc::new(ActorId(3))];
            for (who, w, sync) in &steps {
                apply(&mut writers[*who], w);
                if *sync == 0 {
                    // the next writer pulls from this one
                    let (src, dst) = (*who, (*who + 1) % 3);
                    let base = writers[dst].clock().clone();
                    let changes = writers[src].get_changes(&base);
                    let clock = writers[src].clock().clone();
                    writers[dst].apply_changes(&base, &clock, changes).unwrap();
                }
            }
            let mut dst = Doc::new(ActorId(9));
            let mut seen = vec![VClock::new()];
            for (from, pick) in order.iter().chain([(0, 0), (1, 0), (2, 0)].iter()) {
                let base = &seen[*pick as usize % seen.len()];
                let changes = writers[*from].get_changes(base);
                let before = slots(&dst);
                let touched = dst.apply_changes(base, writers[*from].clock(), changes).unwrap();
                prop_assert_eq!(touched, diff(&before, &slots(&dst)));
                seen.push(dst.clock().clone());
            }
            let mut reference = Doc::new(ActorId(10));
            for w in &writers {
                let changes = w.get_changes(&VClock::new());
                reference.apply_changes(&VClock::new(), w.clock(), changes).unwrap();
            }
            prop_assert!(dst.entries().eq(reference.entries()));
        }
    }
}
