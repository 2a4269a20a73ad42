//! Tracked-apply tests: `apply_changes_owned_tracked` must attribute every
//! applied op to the state unit (row / file / root global) it lands in, and
//! fall back to a conservative `whole`/`unresolved` marker when it cannot.

use edgstr_crdt::{path, ActorId, CrdtFiles, CrdtTable, Doc, VClock};
use serde_json::json;

const A: ActorId = ActorId(1);
const B: ActorId = ActorId(2);

#[test]
fn container_replacement_is_conservative() {
    // Replacing the `rows` container itself (a root-level Set) cannot be
    // pinned to one pk and must project as `whole`.
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put(&path!["rows"], json!({"a": {"age": 1}})).unwrap();
    let (applied, touched) = dst
        .apply_changes_owned_tracked(src.get_changes(&VClock::new()))
        .unwrap();
    assert!(applied > 0);
    let touch = touched.project("rows");
    assert!(touch.whole, "container replacement must be conservative");
}

#[test]
fn upsert_tracks_primary_key() {
    let mut src = CrdtTable::new(A, "users");
    let mut dst = CrdtTable::new(B, "users");
    // Bootstrap so the `rows` container already exists on both sides.
    src.upsert_row("seed", &json!({"age": 1})).unwrap();
    dst.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();

    let before = dst.clock().clone();
    src.upsert_row("alice", &json!({"name": "Alice", "age": 30}))
        .unwrap();
    let (applied, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(&before))
        .unwrap();
    assert!(applied > 0);
    assert!(!touch.whole, "row upsert must resolve to a single pk");
    assert_eq!(
        touch.keys.iter().map(|k| &**k).collect::<Vec<_>>(),
        ["alice"]
    );
}

#[test]
fn update_cell_tracks_only_touched_row() {
    let mut src = CrdtTable::new(A, "users");
    let mut dst = CrdtTable::new(B, "users");
    src.upsert_row("alice", &json!({"age": 30})).unwrap();
    src.upsert_row("bob", &json!({"age": 41})).unwrap();
    dst.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();

    let before = dst.clock().clone();
    src.update_cell("bob", "age", &json!(42)).unwrap();
    let (_, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(&before))
        .unwrap();
    assert!(!touch.whole);
    assert_eq!(touch.keys.iter().map(|k| &**k).collect::<Vec<_>>(), ["bob"]);
}

#[test]
fn delete_row_tracks_primary_key() {
    let mut src = CrdtTable::new(A, "users");
    let mut dst = CrdtTable::new(B, "users");
    src.upsert_row("alice", &json!({"age": 30})).unwrap();
    dst.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();

    let before = dst.clock().clone();
    src.delete_row("alice").unwrap();
    let (_, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(&before))
        .unwrap();
    assert!(!touch.whole);
    assert!(touch.keys.contains("alice"));
}

#[test]
fn files_track_path() {
    let mut src = CrdtFiles::new(A);
    let mut dst = CrdtFiles::new(B);
    src.put_file("seed.txt", b"s").unwrap();
    dst.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();

    let before = dst.clock().clone();
    src.put_file("notes.txt", b"hello").unwrap();
    let (_, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(&before))
        .unwrap();
    assert!(!touch.whole);
    assert!(touch.keys.contains("notes.txt"));
}

#[test]
fn globals_track_root_key() {
    let mut src = Doc::new(A);
    let mut dst = Doc::new(B);
    src.put(&path!["counter"], json!(7)).unwrap();
    src.put(&path!["mode"], json!("fast")).unwrap();
    let (_, touched) = dst
        .apply_changes_owned_tracked(src.get_changes(&VClock::new()))
        .unwrap();
    assert!(!touched.unresolved);
    let roots: Vec<String> = touched.keys.iter().map(|(k, _)| k.to_string()).collect();
    assert!(roots.contains(&"counter".to_string()));
    assert!(roots.contains(&"mode".to_string()));
}

/// A table restored from its image is the replica it was saved from: it
/// reads and serves the same log, and a peer's concurrent writes against
/// state the source had already folded land on it exactly as they land on
/// the source — the same rows reported, the same table afterwards.
#[test]
fn tracking_survives_save_load_v2() {
    const C: ActorId = ActorId(3);
    let mut src = CrdtTable::new(A, "users");
    let mut peer = CrdtTable::new(C, "users");
    src.upsert_row("alice", &json!({"age": 30})).unwrap();
    src.upsert_row("bob", &json!({"age": 41})).unwrap();
    peer.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();
    // fold what the peer has, keep one change it has not in the tail
    let acked = peer.clock().clone();
    src.update_cell("bob", "age", &json!(42)).unwrap();
    assert_eq!(src.compact(&acked), 2);
    let bytes = src.save();
    // Reload: the containment index must be rebuilt so later tracked
    // applies still resolve cell-level ops to their row.
    let mut dst = CrdtTable::load(B, "users", &bytes).unwrap();
    assert_eq!(dst.to_json(), src.to_json());
    assert_eq!(dst.clock(), src.clock());
    assert_eq!((dst.history_len(), src.history_len()), (1, 1));
    for cursor in [&VClock::new(), &acked, src.clock()] {
        assert_eq!(dst.get_changes(cursor), src.get_changes(cursor));
    }

    // the peer writes against the folded rows: a cell whose `pred` is in
    // the snapshot, and a delete concurrent with the tail's cell update
    peer.update_cell("alice", "age", &json!(31)).unwrap();
    peer.delete_row("bob").unwrap();
    let concurrent = peer.get_changes(&acked);
    let on_src = src.apply_changes_owned_tracked(concurrent.clone()).unwrap();
    let on_dst = dst.apply_changes_owned_tracked(concurrent).unwrap();
    assert_eq!(on_dst, on_src);
    let (applied, touch) = on_dst;
    assert_eq!(applied, 2);
    assert!(!touch.whole, "parent index must survive v2 save/load");
    assert_eq!(
        touch.keys.iter().map(|k| &**k).collect::<Vec<_>>(),
        ["alice", "bob"]
    );
    assert_eq!(dst.to_json(), src.to_json());
    assert_eq!(dst.to_json(), json!({"alice": {"age": 31}}));

    src.update_cell("alice", "age", &json!(32)).unwrap();
    let (_, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(dst.clock()))
        .unwrap();
    assert!(!touch.whole);
    assert!(touch.keys.contains("alice"));
}

#[test]
fn tracking_after_compaction_still_resolves() {
    let mut src = CrdtTable::new(A, "users");
    let mut dst = CrdtTable::new(B, "users");
    src.upsert_row("alice", &json!({"age": 30})).unwrap();
    dst.apply_changes_owned(src.get_changes(&VClock::new()))
        .unwrap();
    let frontier = dst.clock().clone();
    dst.compact(&frontier);

    src.update_cell("alice", "age", &json!(31)).unwrap();
    let (_, touch) = dst
        .apply_changes_owned_tracked(src.get_changes(&frontier))
        .unwrap();
    assert!(!touch.whole);
    assert!(touch.keys.contains("alice"));
}

#[test]
fn pending_ops_attributed_when_released() {
    // Deliver seq 2 before seq 1: the tracked call that releases the
    // buffered change reports both (causal release happens inside one
    // tracked batch here since both changes arrive together reordered).
    let mut src = CrdtTable::new(A, "users");
    let mut dst = CrdtTable::new(B, "users");
    src.upsert_row("alice", &json!({"age": 30})).unwrap();
    let first = src.get_changes(&VClock::new());
    let mid = src.clock().clone();
    src.upsert_row("bob", &json!({"age": 41})).unwrap();
    let second = src.get_changes(&mid);

    // Deliver the later change alone: nothing applies, nothing tracked.
    let (applied, touch) = dst.apply_changes_owned_tracked(second).unwrap();
    assert_eq!(applied, 0);
    assert!(touch.keys.is_empty() && !touch.whole);

    // Delivering the earlier change releases both; both pks reported.
    let (applied, touch) = dst.apply_changes_owned_tracked(first).unwrap();
    assert!(applied >= 2);
    assert!(touch.keys.contains("alice") && touch.keys.contains("bob"));
}

// ---- the change-local memo against the per-op walk -----------------------

mod oracle {
    //! What `Doc::track_op` did before it kept a memo per change: walk the
    //! containment chain of every op, root-ward, and keep the first two map
    //! keys. Kept here, over a containment index rebuilt from the changes
    //! themselves, as the reference the memo must agree with.

    use edgstr_crdt::{Change, ObjId, Op, OpValue, TouchedKeys, VClock};
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct Oracle {
        parent: HashMap<ObjId, (ObjId, Option<String>)>,
        clock: VClock,
    }

    impl Oracle {
        fn index(&mut self, op: &Op) {
            match op {
                Op::Set {
                    obj,
                    key,
                    value: OpValue::Obj(child),
                    ..
                } => {
                    self.parent.insert(*child, (*obj, Some(key.to_string())));
                }
                Op::Insert {
                    obj,
                    value: OpValue::Obj(child),
                    ..
                }
                | Op::SetElem {
                    obj,
                    value: OpValue::Obj(child),
                    ..
                } => {
                    self.parent.insert(*child, (*obj, None));
                }
                _ => {}
            }
        }

        fn unit_path(&self, obj: ObjId, key: Option<&str>) -> Option<(String, Option<String>)> {
            let mut segs: Vec<&str> = Vec::new();
            let mut cur = obj;
            while cur != ObjId::Root {
                let (p, k) = self.parent.get(&cur)?;
                if let Some(k) = k {
                    segs.push(k.as_str());
                }
                cur = *p;
            }
            segs.reverse();
            let mut it = segs
                .into_iter()
                .map(str::to_string)
                .chain(key.map(str::to_string));
            let first = it.next()?;
            Some((first, it.next()))
        }

        fn track(&mut self, change: &Change, touched: &mut TouchedKeys) {
            for op in change.ops() {
                self.index(op);
            }
            for op in change.ops() {
                let loc = match op {
                    Op::MakeMap { .. } | Op::MakeList { .. } => continue,
                    Op::Set { obj, key, .. }
                    | Op::DelKey { obj, key, .. }
                    | Op::Inc { obj, key, .. } => self.unit_path(*obj, Some(key)),
                    Op::Insert { obj, .. } | Op::SetElem { obj, .. } | Op::DelElem { obj, .. } => {
                        self.unit_path(*obj, None)
                    }
                };
                match loc {
                    Some((first, second)) => {
                        touched.keys.insert((first.into(), second.map(Into::into)));
                    }
                    None => touched.unresolved = true,
                }
            }
            self.clock.observe(change.actor(), change.seq());
        }

        /// Track, in some causal order, every change of `all` that `now`
        /// covers and this oracle has not seen.
        pub fn catch_up(&mut self, all: &[Change], now: &VClock) -> TouchedKeys {
            let mut touched = TouchedKeys::default();
            loop {
                let next = all.iter().find(|c| {
                    c.seq() == self.clock.get(c.actor()) + 1
                        && c.seq() <= now.get(c.actor())
                        && self.clock.dominates(c.deps())
                });
                match next {
                    Some(c) => self.track(c, &mut touched),
                    None => return touched,
                }
            }
        }
    }
}

mod memo_prop {
    use super::oracle::Oracle;
    use edgstr_crdt::{ActorId, Change, Doc, ObjId, Op, OpId, OpValue, PathSeg, VClock};
    use proptest::prelude::*;
    use serde_json::{json, Value as Json};
    use std::sync::Arc;

    /// A mutation at a location chosen by small indices, so generated
    /// writes collide on the same rows, cells and list slots.
    #[derive(Debug, Clone)]
    enum Write {
        /// `rows/<pk>` = a whole row object: the table upsert shape.
        Row {
            pk: u8,
            n: i64,
        },
        /// `rows/<pk>/<col>` = scalar.
        Cell {
            pk: u8,
            col: u8,
            n: i64,
        },
        DeleteRow {
            pk: u8,
        },
        DeleteCell {
            pk: u8,
            col: u8,
        },
        /// `cfg/a/b/<leaf>`: four keys deep, created on demand.
        Deep {
            leaf: u8,
            n: i64,
        },
        /// A root-level scalar or object.
        Global {
            key: u8,
            nested: bool,
            n: i64,
        },
        DeleteGlobal {
            key: u8,
        },
        /// A counter at the root, or inside a row.
        Count {
            pk: Option<u8>,
            by: i64,
        },
        /// Push a scalar or an object onto `list`.
        Push {
            nested: bool,
            n: i64,
        },
        /// `list/<i>/x` = scalar, when element `i` is an object.
        InElem {
            i: u8,
            n: i64,
        },
        /// Overwrite or delete the list element at `i`.
        SetElem {
            i: u8,
            n: i64,
        },
        DeleteElem {
            i: u8,
        },
    }

    fn write() -> impl Strategy<Value = Write> {
        let n = || -50i64..50;
        prop_oneof![
            (0u8..4, n()).prop_map(|(pk, n)| Write::Row { pk, n }),
            (0u8..4, 0u8..3, n()).prop_map(|(pk, col, n)| Write::Cell { pk, col, n }),
            (0u8..4).prop_map(|pk| Write::DeleteRow { pk }),
            (0u8..4, 0u8..3).prop_map(|(pk, col)| Write::DeleteCell { pk, col }),
            (0u8..2, n()).prop_map(|(leaf, n)| Write::Deep { leaf, n }),
            (0u8..3, any::<bool>(), n()).prop_map(|(key, nested, n)| Write::Global {
                key,
                nested,
                n
            }),
            (0u8..3).prop_map(|key| Write::DeleteGlobal { key }),
            (prop::option::of(0u8..4), n()).prop_map(|(pk, by)| Write::Count { pk, by }),
            (any::<bool>(), n()).prop_map(|(nested, n)| Write::Push { nested, n }),
            (0u8..4, n()).prop_map(|(i, n)| Write::InElem { i, n }),
            (0u8..4, n()).prop_map(|(i, n)| Write::SetElem { i, n }),
            (0u8..4).prop_map(|i| Write::DeleteElem { i }),
        ]
    }

    fn k(s: impl Into<String>) -> PathSeg {
        PathSeg::Key(s.into())
    }

    /// Apply `w`; a write whose target does not exist on this replica is
    /// skipped (the generator does not know what concurrent deletes left).
    fn apply(doc: &mut Doc, w: &Write) {
        let row = |pk: u8| vec![k("rows"), k(format!("r{pk}"))];
        let cell = |pk: u8, col: u8| vec![k("rows"), k(format!("r{pk}")), k(format!("c{col}"))];
        let elem = |i: u8| vec![k("list"), PathSeg::Index(i as usize)];
        let len = doc.list_len(&[k("list")]).unwrap_or(0);
        let _ = match w {
            Write::Row { pk, n } => doc.put(&row(*pk), json!({"c0": n, "c1": "x", "c2": [n]})),
            Write::Cell { pk, col, n } => doc.put(&cell(*pk, *col), json!(n)),
            Write::DeleteRow { pk } => doc.delete(&row(*pk)),
            Write::DeleteCell { pk, col } => doc.delete(&cell(*pk, *col)),
            Write::Deep { leaf, n } => {
                doc.put(&[k("cfg"), k("a"), k("b"), k(format!("l{leaf}"))], json!(n))
            }
            Write::Global { key, nested, n } => {
                let v = if *nested { json!({"v": n}) } else { json!(n) };
                doc.put(&[k(format!("g{key}"))], v)
            }
            Write::DeleteGlobal { key } => doc.delete(&[k(format!("g{key}"))]),
            Write::Count { pk: None, by } => doc.increment(&[k("hits")], *by),
            Write::Count { pk: Some(pk), by } => {
                let mut p = row(*pk);
                p.push(k("n"));
                doc.increment(&p, *by)
            }
            Write::Push { nested, n } => {
                let v: Json = if *nested { json!({"x": n}) } else { json!(n) };
                doc.list_push(&[k("list")], v)
            }
            Write::InElem { i, n } if (*i as usize) < len => {
                let mut p = elem(*i);
                p.push(k("x"));
                doc.put(&p, json!(n))
            }
            Write::SetElem { i, n } if (*i as usize) < len => doc.put(&elem(*i), json!(n)),
            Write::DeleteElem { i } if (*i as usize) < len => doc.delete(&elem(*i)),
            Write::InElem { .. } | Write::SetElem { .. } | Write::DeleteElem { .. } => Ok(()),
        };
    }

    fn own_changes(doc: &Doc) -> Vec<Change> {
        doc.get_changes(&VClock::new())
            .into_iter()
            .filter(|c| c.actor() == doc.actor())
            .collect()
    }

    /// `Doc` links a container once; a decoded change need not. One row
    /// map hung under two primary keys writes both slots, so both rows are
    /// reported although the containment index keeps only the later link.
    #[test]
    fn a_container_linked_twice_reports_both_links() {
        let id = |n| OpId::new(n, ActorId(1));
        let set = |n, obj, key: &str, value| Op::Set {
            id: id(n),
            obj,
            key: key.into(),
            value,
            pred: vec![],
        };
        let (rows, m) = (ObjId::Made(id(1)), ObjId::Made(id(3)));
        let table = Change::new(
            ActorId(1),
            1,
            VClock::new(),
            vec![
                Op::MakeMap { id: id(1) },
                set(2, ObjId::Root, "rows", OpValue::Obj(rows)),
            ],
        );
        let mut after_table = VClock::new();
        after_table.observe(ActorId(1), 1);
        let twice = Change::new(
            ActorId(1),
            2,
            after_table,
            vec![
                Op::MakeMap { id: id(3) },
                set(4, m, "c0", OpValue::Scalar(json!(5))),
                set(5, rows, "pk1", OpValue::Obj(m)),
                set(6, rows, "pk2", OpValue::Obj(m)),
            ],
        );
        let all = [table.clone(), twice.clone()];
        let mut dst = Doc::new(ActorId(9));
        let mut oracle = Oracle::default();
        let (_, touched) = dst.apply_changes_owned_tracked(vec![table]).unwrap();
        assert_eq!(touched, oracle.catch_up(&all, dst.clock()));
        let (_, touched) = dst.apply_changes_owned_tracked(vec![twice]).unwrap();
        assert_eq!(touched, oracle.catch_up(&all, dst.clock()));
        let row = |pk: &str| -> (Arc<str>, Option<Arc<str>>) { ("rows".into(), Some(pk.into())) };
        assert_eq!(
            touched.keys.into_iter().collect::<Vec<_>>(),
            [row("pk1"), row("pk2")]
        );
        assert!(!touched.unresolved);
        assert_eq!(
            dst.to_json(),
            json!({"rows": {"pk1": {"c0": 5}, "pk2": {"c0": 5}}})
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Three writers mutate nested maps, lists, counters and delete
        /// concurrently, merging now and then; a fourth replica receives
        /// their changes in shuffled batches through the tracked apply.
        /// Every call must report exactly the units the per-op walk
        /// reports for the changes that call applied.
        #[test]
        fn tracked_apply_reports_what_the_per_op_walk_reports(
            steps in prop::collection::vec((0usize..3, write(), 0u8..6), 1..40),
            order in prop::collection::vec(any::<u32>(), 0..60),
            cuts in prop::collection::vec(1usize..6, 1..30),
        ) {
            let mut writers = [Doc::new(ActorId(1)), Doc::new(ActorId(2)), Doc::new(ActorId(3))];
            writers[0].put(&[k("rows")], json!({"r0": {"c0": 0}, "r1": {"c0": 1}})).unwrap();
            writers[0].put(&[k("list")], json!([1, {"x": 2}, 3])).unwrap();
            for i in 1..3 {
                let (head, tail) = writers.split_at_mut(i);
                tail[0].merge(&head[0]).unwrap();
            }
            for (who, w, sync) in &steps {
                apply(&mut writers[*who], w);
                if *sync == 0 {
                    // the next writer pulls from this one
                    let changes = writers[*who].get_changes(writers[(*who + 1) % 3].clock());
                    writers[(*who + 1) % 3].apply_changes(&changes).unwrap();
                }
            }
            let mut all: Vec<Change> = writers.iter().flat_map(own_changes).collect();
            let in_order = all.clone();
            // out-of-order delivery: a seeded shuffle, then uneven batches
            for (i, r) in order.iter().enumerate() {
                let (a, b) = (i % all.len(), *r as usize % all.len());
                all.swap(a, b);
            }
            let mut dst = Doc::new(ActorId(9));
            let mut oracle = Oracle::default();
            let mut queue = all.into_iter();
            for cut in cuts.iter().cycle() {
                let batch: Vec<Change> = queue.by_ref().take(*cut).collect();
                if batch.is_empty() {
                    break;
                }
                let (_, touched) = dst.apply_changes_owned_tracked(batch).unwrap();
                prop_assert_eq!(touched, oracle.catch_up(&in_order, dst.clock()));
            }
            prop_assert_eq!(dst.pending_len(), 0);
            let mut reference = Doc::new(ActorId(10));
            reference.apply_changes(&in_order).unwrap();
            prop_assert_eq!(dst.to_json(), reference.to_json());
        }
    }
}
