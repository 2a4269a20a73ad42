//! Tracked-apply tests: `apply_changes` must report every key its applied
//! ops write — a row's primary key, a file's path, a global's name — and
//! nothing else. Every op names its key, so the per-op walk below (the
//! keys of the ops of every change a call newly applied) is the oracle.

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

#[test]
fn upsert_tracks_primary_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("seed", row(1));
    dst.apply_changes(src.get_changes(&VClock::new()));

    let before = dst.clock().clone();
    src.put("alice", row(30));
    let (applied, touched) = dst.apply_changes(src.get_changes(&before));
    assert_eq!(applied, 1);
    assert_eq!(keys(&touched), ["alice"]);
}

#[test]
fn delete_row_tracks_primary_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    dst.apply_changes(src.get_changes(&VClock::new()));

    let before = dst.clock().clone();
    src.delete("alice");
    let (_, touched) = dst.apply_changes(src.get_changes(&before));
    assert_eq!(keys(&touched), ["alice"]);
}

#[test]
fn files_track_path() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("seed.txt", Value::File(b"s".to_vec().into()));
    dst.apply_changes(src.get_changes(&VClock::new()));

    let before = dst.clock().clone();
    src.put("notes.txt", Value::File(b"hello".to_vec().into()));
    let (_, touched) = dst.apply_changes(src.get_changes(&before));
    assert_eq!(keys(&touched), ["notes.txt"]);
}

#[test]
fn globals_track_root_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("counter", Value::Json(json!(7)));
    src.put("mode", Value::Json(json!({"speed": ["fast"]})));
    let (_, touched) = dst.apply_changes(src.get_changes(&VClock::new()));
    assert_eq!(keys(&touched), ["counter", "mode"]);
}

/// A table restored from its image is the replica it was saved from: it
/// reads and serves the same log, and a peer's concurrent writes against
/// state the source had already folded land on it exactly as they land on
/// the source — the same rows reported, the same table afterwards.
#[test]
fn tracking_survives_save_load_v2() {
    const C: ActorId = ActorId(3);
    let mut src = Doc::new(A);
    let mut peer = Doc::new(C);
    src.put("alice", row(30));
    src.put("bob", row(41));
    peer.apply_changes(src.get_changes(&VClock::new()));
    // fold what the peer has, keep one change it has not in the tail
    let acked = peer.clock().clone();
    src.put("bob", row(42));
    assert_eq!(src.compact(&acked), 2);
    let mut dst = Doc::load(B, &src.save()).unwrap();
    assert!(dst.entries().eq(src.entries()));
    assert_eq!(dst.clock(), src.clock());
    assert_eq!((dst.history_len(), src.history_len()), (1, 1));
    for cursor in [&VClock::new(), &acked, src.clock()] {
        assert_eq!(dst.get_changes(cursor), src.get_changes(cursor));
    }

    // the peer writes against the folded rows: an upsert whose `pred` is
    // in the snapshot, and a delete concurrent with the tail's upsert
    peer.put("alice", row(31));
    peer.delete("bob");
    let concurrent = peer.get_changes(&acked);
    let on_src = src.apply_changes(concurrent.clone());
    let on_dst = dst.apply_changes(concurrent);
    assert_eq!(on_dst, on_src);
    let (applied, touched) = on_dst;
    assert_eq!(applied, 2);
    assert_eq!(keys(&touched), ["alice", "bob"]);
    assert!(dst.entries().eq(src.entries()));
    // the delete did not observe the tail's upsert of bob: add-wins
    let held: Vec<_> = dst.entries().collect();
    assert_eq!(held, [("alice", &row(31)), ("bob", &row(42))]);
}

#[test]
fn tracking_after_compaction_still_resolves() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    dst.apply_changes(src.get_changes(&VClock::new()));
    let frontier = dst.clock().clone();
    dst.compact(&frontier);

    src.put("alice", row(31));
    let (_, touched) = dst.apply_changes(src.get_changes(&frontier));
    assert_eq!(keys(&touched), ["alice"]);
}

#[test]
fn pending_ops_attributed_when_released() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put("alice", row(30));
    let first = src.get_changes(&VClock::new());
    let mid = src.clock().clone();
    src.put("bob", row(41));
    let second = src.get_changes(&mid);

    // Deliver the later change alone: nothing applies, nothing tracked.
    let (applied, touched) = dst.apply_changes(second);
    assert_eq!(applied, 0);
    assert!(touched.is_empty());

    // Delivering the earlier change releases both; both pks reported.
    let (applied, touched) = dst.apply_changes(first);
    assert_eq!(applied, 2);
    assert_eq!(keys(&touched), ["alice", "bob"]);
}

mod memo_prop {
    use super::row;
    use edgstr_crdt::{ActorId, Change, Doc, VClock, Value};
    use proptest::prelude::*;
    use serde_json::json;
    use std::collections::BTreeSet;
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

    /// The changes `doc` generated itself.
    fn own_changes(doc: &Doc) -> Vec<Change> {
        doc.get_changes(&VClock::new())
            .into_iter()
            .filter(|c| c.actor() == doc.actor())
            .collect()
    }

    /// The per-op walk: the keys of every op of the changes in `all` that
    /// `now` covers and `before` did not.
    fn walk(all: &[Change], before: &VClock, now: &VClock) -> BTreeSet<Arc<str>> {
        all.iter()
            .filter(|c| c.seq() > before.get(c.actor()) && c.seq() <= now.get(c.actor()))
            .flat_map(|c| c.ops().iter().map(|op| Arc::clone(op.key())))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Three writers put and delete concurrently, merging now and
        /// then; a fourth replica receives their changes in shuffled
        /// batches through the tracked apply. Every call must report
        /// exactly the keys the per-op walk reports for the changes that
        /// call applied.
        #[test]
        fn tracked_apply_reports_what_the_per_op_walk_reports(
            steps in prop::collection::vec((0usize..3, write(), 0u8..6), 1..40),
            order in prop::collection::vec(any::<u32>(), 0..60),
            cuts in prop::collection::vec(1usize..6, 1..30),
        ) {
            let mut writers = [Doc::new(ActorId(1)), Doc::new(ActorId(2)), Doc::new(ActorId(3))];
            for (who, w, sync) in &steps {
                apply(&mut writers[*who], w);
                if *sync == 0 {
                    // the next writer pulls from this one
                    let changes = writers[*who].get_changes(writers[(*who + 1) % 3].clock());
                    writers[(*who + 1) % 3].apply_changes(changes);
                }
            }
            let mut all: Vec<Change> = writers.iter().flat_map(own_changes).collect();
            let in_order = all.clone();
            // out-of-order delivery: a seeded shuffle, then uneven batches
            let n = all.len();
            for (i, r) in order.iter().enumerate().filter(|_| n > 0) {
                all.swap(i % n, *r as usize % n);
            }
            let mut dst = Doc::new(ActorId(9));
            let mut queue = all.into_iter();
            for cut in cuts.iter().cycle() {
                let batch: Vec<Change> = queue.by_ref().take(*cut).collect();
                if batch.is_empty() {
                    break;
                }
                let before = dst.clock().clone();
                let (_, touched) = dst.apply_changes(batch);
                prop_assert_eq!(touched, walk(&in_order, &before, dst.clock()));
            }
            prop_assert_eq!(dst.pending_len(), 0);
            let mut reference = Doc::new(ActorId(10));
            reference.apply_changes(in_order);
            prop_assert!(dst.entries().eq(reference.entries()));
        }
    }
}
