//! The op-log document this crate replaced, kept here as the oracle for
//! sync from stamped state.
//!
//! `LogDoc` is the earlier `Doc`: a per-actor log of changes, each a batch
//! of ops naming the op ids they supersede (`pred`), a causal buffer for
//! changes whose dependencies have not arrived, and compaction that folds
//! an acked prefix of the log away. The property drives a master and two
//! edges of each kind through the same generated puts and deletes, with
//! ack-driven sync over links that drop, duplicate and reorder messages
//! and compaction at the min-ack frontier, and requires every replica to
//! read what its oracle reads after every step — and, once the links
//! heal, every replica to read the same.

use edgstr_crdt::{ActorId, Cell, Doc, OpId, Row, Slot, VClock, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use std::collections::BTreeMap;

// ---- the oracle ------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put {
        id: OpId,
        key: String,
        value: Value,
        pred: Vec<OpId>,
    },
    Del {
        id: OpId,
        key: String,
        pred: Vec<OpId>,
    },
}

#[derive(Debug, Clone)]
struct Change {
    actor: ActorId,
    seq: u64,
    deps: VClock,
    ops: Vec<Op>,
}

/// The op-log document: registers of `(op id, value)` pairs, a log per
/// actor above its folded prefix, and the changes waiting on a dependency.
#[derive(Debug, Clone)]
struct LogDoc {
    actor: ActorId,
    counters: BTreeMap<char, u64>,
    clock: VClock,
    snapshot_clock: VClock,
    history: BTreeMap<ActorId, Vec<Change>>,
    pending: BTreeMap<(ActorId, u64), Change>,
    registers: BTreeMap<String, Vec<(OpId, Value)>>,
}

fn namespace(key: &str) -> char {
    key.chars().next().unwrap_or('\0')
}

impl LogDoc {
    fn new(actor: ActorId) -> LogDoc {
        LogDoc {
            actor,
            counters: BTreeMap::new(),
            clock: VClock::new(),
            snapshot_clock: VClock::new(),
            history: BTreeMap::new(),
            pending: BTreeMap::new(),
            registers: BTreeMap::new(),
        }
    }

    fn next_op(&mut self, key: &str) -> OpId {
        let counter = self.counters.entry(namespace(key)).or_default();
        *counter += 1;
        OpId::new(*counter, self.actor)
    }

    fn held(&self, key: &str) -> Vec<OpId> {
        let values = self.registers.get(key).into_iter().flatten();
        values.map(|(id, _)| *id).collect()
    }

    fn put(&mut self, key: &str, value: Value) {
        let pred = self.held(key);
        let id = self.next_op(key);
        let key = key.to_string();
        self.commit(Op::Put {
            id,
            key,
            value,
            pred,
        });
    }

    fn delete(&mut self, key: &str) {
        if !self.registers.contains_key(key) {
            return;
        }
        let pred = self.held(key);
        let id = self.next_op(key);
        let key = key.to_string();
        self.commit(Op::Del { id, key, pred });
    }

    fn commit(&mut self, op: Op) {
        let mut deps = self.clock.clone();
        deps.0.remove(&self.actor);
        let seq = self.clock.get(self.actor) + 1;
        let change = Change {
            actor: self.actor,
            seq,
            deps,
            ops: vec![op],
        };
        self.apply_one(change);
    }

    fn entries(&self) -> Vec<(String, Value)> {
        let values = self.registers.iter();
        let last = values.filter_map(|(k, v)| Some((k.clone(), v.last()?.1.clone())));
        last.collect()
    }

    fn get_changes(&self, since: &VClock) -> Vec<Change> {
        let mut out = Vec::new();
        for (actor, log) in &self.history {
            let have = since.get(*actor);
            let base = self.snapshot_clock.get(*actor);
            let skip = have.saturating_sub(base).min(log.len() as u64) as usize;
            out.extend_from_slice(&log[skip..]);
        }
        out
    }

    fn apply_changes(&mut self, changes: Vec<Change>) {
        for change in changes {
            if change.seq > self.clock.get(change.actor) {
                self.pending.insert((change.actor, change.seq), change);
            }
        }
        loop {
            let ready = self.pending.iter().find(|((actor, seq), change)| {
                *seq == self.clock.get(*actor) + 1 && self.clock.dominates(&change.deps)
            });
            let Some(key) = ready.map(|(key, _)| *key) else {
                break;
            };
            let change = self.pending.remove(&key).expect("found above");
            self.apply_one(change);
        }
        let clock = &self.clock;
        self.pending
            .retain(|(actor, seq), _| *seq > clock.get(*actor));
    }

    fn apply_one(&mut self, change: Change) {
        for op in &change.ops {
            let (Op::Put { id, key, pred, .. } | Op::Del { id, key, pred }) = op;
            let counter = self.counters.entry(namespace(key)).or_default();
            *counter = (*counter).max(id.counter);
            let slot = self.registers.entry(key.clone()).or_default();
            slot.retain(|(held, _)| !pred.contains(held));
            if let Op::Put { id, value, .. } = op {
                if !slot.iter().any(|(held, _)| held == id) {
                    slot.push((*id, value.clone()));
                    slot.sort_by_key(|(id, _)| *id);
                }
            }
            if slot.is_empty() {
                self.registers.remove(key);
            }
        }
        self.clock.observe(change.actor, change.seq);
        self.history.entry(change.actor).or_default().push(change);
    }

    fn compact(&mut self, frontier: &VClock) {
        for (actor, log) in self.history.iter_mut() {
            let base = self.snapshot_clock.get(*actor);
            let target = frontier.get(*actor).min(self.clock.get(*actor));
            if target > base {
                log.drain(..(target - base) as usize);
                self.snapshot_clock.observe(*actor, target);
            }
        }
    }
}

// ---- the property ----------------------------------------------------------

/// One replica of each kind, written and synced alike.
#[derive(Debug, Clone)]
struct Pair {
    doc: Doc,
    oracle: LogDoc,
}

impl Pair {
    fn new(actor: u64) -> Pair {
        Pair {
            doc: Doc::new(ActorId(actor)),
            oracle: LogDoc::new(ActorId(actor)),
        }
    }

    fn write(&mut self, w: &Write) {
        match w {
            Write::Put(key, n) => {
                let (key, value) = (format!("k{key}"), row(*n));
                self.doc.put(&key, value.clone());
                self.oracle.put(&key, value);
            }
            Write::Json(key, n) => {
                let (key, value) = (format!("g{key}"), Value::Json((*n).into()));
                self.doc.put(&key, value.clone());
                self.oracle.put(&key, value);
            }
            Write::Delete(key) => {
                let key = format!("k{key}");
                self.doc.delete(&key);
                self.oracle.delete(&key);
            }
        }
    }

    fn entries(&self) -> Vec<(String, Value)> {
        let entries = self.doc.entries();
        entries.map(|(k, v)| (k.to_string(), v.clone())).collect()
    }
}

/// One message of each kind, read above the same acknowledged clock.
#[derive(Debug, Clone)]
struct Message {
    base: VClock,
    clock: VClock,
    slots: Vec<Slot>,
    changes: Vec<Change>,
}

/// One direction of a link: what the sender was told the receiver holds,
/// and the messages in flight.
#[derive(Debug, Default, Clone)]
struct Direction {
    acked: VClock,
    queue: Vec<Message>,
}

#[derive(Debug, Clone)]
enum Write {
    Put(u8, i64),
    Json(u8, i64),
    Delete(u8),
}

fn row(n: i64) -> Value {
    Value::Row(Row::new(
        ["id".to_string(), "n".to_string()].into(),
        [Cell::Int(n), Cell::Text(format!("n{n}"))].into(),
    ))
}

#[derive(Debug, Clone, Copy)]
enum Net {
    /// Delivered in order.
    Deliver,
    /// Lost.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Held back; the newest queued message goes first.
    NewestFirst,
}

#[derive(Debug, Clone)]
enum Step {
    Write(usize, Write),
    /// Edge `0` or `1` sends to the master (`true`) or hears from it.
    Send(usize, bool, Net),
    Compact,
}

fn step() -> impl Strategy<Value = Step> {
    let write = prop_oneof![
        (0u8..5, -9i64..9).prop_map(|(k, n)| Write::Put(k, n)),
        (0u8..2, -9i64..9).prop_map(|(k, n)| Write::Json(k, n)),
        (0u8..5).prop_map(Write::Delete),
        (0u8..5).prop_map(Write::Delete),
    ];
    let net = prop_oneof![
        Just(Net::Deliver),
        Just(Net::Drop),
        Just(Net::Duplicate),
        Just(Net::NewestFirst),
    ];
    prop_oneof![
        (0usize..3, write).prop_map(|(at, w)| Step::Write(at, w)),
        (0usize..2, any::<bool>(), net).prop_map(|(e, up, net)| Step::Send(e, up, net)),
        (0usize..2, any::<bool>()).prop_map(|(e, up)| Step::Send(e, up, Net::Deliver)),
        Just(Step::Compact),
    ]
}

/// Merge `m` at `to`, both kinds. The message acknowledges what its
/// sender holds, so `to`'s end of the link back learns it.
fn deliver(m: Message, to: &mut Pair, back: &mut Direction) -> Result<(), TestCaseFailure> {
    back.acked.merge(&m.clock);
    let merged = to.doc.apply_changes(&m.base, &m.clock, m.slots);
    prop_assert!(
        merged.is_some(),
        "a message read above an ack is never refused"
    );
    to.oracle.apply_changes(m.changes);
    prop_assert!(to.oracle.pending.is_empty(), "the oracle buffered a change");
    prop_assert_eq!(to.doc.clock(), &to.oracle.clock);
    Ok(())
}

/// Send from `from` over `dir` and let the network act on the queue.
fn send(
    from: &Pair,
    dir: &mut Direction,
    to: &mut Pair,
    back: &mut Direction,
    net: Net,
) -> Result<(), TestCaseFailure> {
    dir.queue.push(Message {
        base: dir.acked.clone(),
        clock: from.doc.clock().clone(),
        slots: from.doc.get_changes(&dir.acked),
        changes: from.oracle.get_changes(&dir.acked),
    });
    match net {
        Net::Deliver => deliver(dir.queue.remove(0), to, back)?,
        Net::Drop => _ = dir.queue.remove(0),
        Net::Duplicate => {
            let m = dir.queue.remove(0);
            deliver(m.clone(), to, back)?;
            deliver(m, to, back)?;
        }
        Net::NewestFirst => {
            if dir.queue.len() > 1 {
                let m = dir.queue.pop().expect("two queued");
                deliver(m, to, back)?;
            }
        }
    }
    Ok(())
}

/// The master, two edges, and per edge both directions of its link:
/// `(edge → master, master → edge)`.
struct Star {
    nodes: [Pair; 3],
    links: [(Direction, Direction); 2],
}

impl Star {
    fn exchange(&mut self, edge: usize, up: bool, net: Net) -> Result<(), TestCaseFailure> {
        let (master, edges) = self.nodes.split_first_mut().expect("three nodes");
        let node = &mut edges[edge];
        let (to_master, to_edge) = &mut self.links[edge];
        if up {
            send(node, to_master, master, to_edge, net)
        } else {
            send(master, to_edge, node, to_master, net)
        }
    }

    /// Every node drops what every peer it syncs with has acknowledged:
    /// the master at the meet of both edges' acks, an edge at the master's.
    fn compact(&mut self) {
        let frontier = self.links[0].1.acked.meet(&self.links[1].1.acked);
        self.nodes[0].doc.compact(&frontier);
        self.nodes[0].oracle.compact(&frontier);
        for (edge, (to_master, _)) in self.links.iter().enumerate() {
            let node = &mut self.nodes[edge + 1];
            node.doc.compact(&to_master.acked);
            node.oracle.compact(&to_master.acked);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_replica_reads_what_the_op_log_oracle_reads(
        steps in prop::collection::vec(step(), 1..80),
    ) {
        let mut star = Star {
            nodes: [Pair::new(1), Pair::new(2), Pair::new(3)],
            links: Default::default(),
        };
        for step in &steps {
            match step {
                Step::Write(at, w) => star.nodes[*at].write(w),
                Step::Send(edge, up, net) => star.exchange(*edge, *up, *net)?,
                Step::Compact => star.compact(),
            }
            for node in &star.nodes {
                prop_assert_eq!(node.entries(), node.oracle.entries(), "after {:?}", step);
            }
        }
        // the links heal: up, then down, on each link, three times over
        for _ in 0..3 {
            for edge in 0..2 {
                star.links[edge].0.queue.clear();
                star.links[edge].1.queue.clear();
                star.exchange(edge, true, Net::Deliver)?;
                star.exchange(edge, false, Net::Deliver)?;
            }
            star.compact();
        }
        let master = star.nodes[0].entries();
        for node in &star.nodes {
            prop_assert_eq!(&node.entries(), &master);
            prop_assert_eq!(node.entries(), node.oracle.entries());
            prop_assert_eq!(node.doc.clock(), star.nodes[0].doc.clock());
            prop_assert_eq!(node.doc.history_len(), 0, "every tombstone was acked");
        }
    }
}
