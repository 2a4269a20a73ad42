//! Property test for row-granular materialisation: after a remote apply
//! the runtime writes only the rows the delta touched into `server.db`.
//! That is sound only while every untouched row already reads the same in
//! the database as in the CRDT, so the property pins the strongest form of
//! it: under generated interleavings of local inserts, updates, deletes and
//! failing handlers on a cloud master and two edges, sync deliveries that
//! are dropped, duplicated and reordered, and compaction, every node's
//! table is — after every step, row for row and in order — what a
//! whole-table `materialize_all` rebuild from its CRDT produces.
//!
//! The same runs prove the sync protocol's loss tolerance on the
//! `SyncEndpoint` the runtime ships: once the network heals, every clock
//! equals the master's and no endpoint has anything left to send; two
//! peers under the same adversary converge within two reliable rounds;
//! and a writer's stream of deltas, duplicated and reordered, lands
//! exactly where in-order delivery does.

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, SetSyncMessage, SyncEndpoint};
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;

/// Integer keys on both sides of a digit boundary (the CRDT orders `10`
/// before `9`, the table must not), a text column, and a handler that
/// fails after its write.
const APP: &str = r#"
    db.query("CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)");
    db.query("INSERT INTO items VALUES (9, 'seed', 1)");
    app.post("/add", function (req, res) {
        db.query("INSERT INTO items VALUES (" + req.body.id + ", 'n" + req.body.id + "', " + req.body.qty + ")");
        res.send({ ok: true });
    });
    app.post("/set", function (req, res) {
        db.query("UPDATE items SET qty = " + req.body.qty + " WHERE id = " + req.body.id);
        res.send({ ok: true });
    });
    app.post("/del", function (req, res) {
        db.query("DELETE FROM items WHERE id = " + req.body.id);
        res.send({ ok: true });
    });
    app.post("/half", function (req, res) {
        db.query("DELETE FROM items WHERE id = " + req.body.id);
        db.query("INSERT INTO items VALUES (" + req.body.id + ", 'half', " + req.body.qty + ")");
        fs.readFile("/no/such/file");
        res.send({ ok: true });
    });
"#;

const EDGES: usize = 2;

struct Node {
    server: ServerProcess,
    set: CrdtSet,
    /// A second server that only ever receives whole rebuilds of `set`.
    rebuilt: ServerProcess,
}

impl Node {
    fn new(actor: u64, init: &InitState) -> Node {
        let server = |init: &InitState| {
            let mut s = ServerProcess::from_source(APP).unwrap();
            s.init().unwrap();
            init.restore(&mut s);
            s
        };
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("items".into())]);
        Node {
            server: server(init),
            set: CrdtSet::initialize(ActorId(actor), &bindings, init),
            rebuilt: server(init),
        }
    }

    /// Serve one request the way both executors do: absorb a success,
    /// put back what a failure wrote.
    fn serve(&mut self, path: &str, id: u8, qty: i8) {
        let req = HttpRequest::post(path, json!({"id": id, "qty": qty}), vec![]);
        match self.server.handle(&req) {
            Ok(out) => self.set.absorb_outcome(&out, &self.server),
            Err(_) => self.set.revert_failed_writes(&mut self.server),
        }
    }

    fn check(&mut self, who: &str, after: &Op) -> Result<(), TestCaseFailure> {
        self.set.materialize_all(&mut self.rebuilt);
        let live = &self.server.db.table("items").unwrap().rows;
        let want = &self.rebuilt.db.table("items").unwrap().rows;
        prop_assert_eq!(live, want, "{} after {:?}", who, after);
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Write {
    Add,
    Set,
    Del,
    Half,
}

impl Write {
    fn path(self) -> &'static str {
        match self {
            Write::Add => "/add",
            Write::Set => "/set",
            Write::Del => "/del",
            Write::Half => "/half",
        }
    }
}

fn write() -> impl Strategy<Value = Write> {
    prop_oneof![
        Just(Write::Add),
        Just(Write::Add),
        Just(Write::Set),
        Just(Write::Del),
        Just(Write::Half),
    ]
}

/// The state every node starts from: the app's init run.
fn init_state() -> InitState {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    InitState::capture(&s)
}

/// What the adversary does with the oldest message in flight.
#[derive(Debug, Clone, Copy)]
enum Net {
    Deliver,
    Drop,
    Duplicate,
    NewestFirst,
}

fn net() -> impl Strategy<Value = Net> {
    prop_oneof![
        Just(Net::Deliver),
        Just(Net::Deliver),
        Just(Net::Drop),
        Just(Net::Duplicate),
        Just(Net::NewestFirst),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A request at node `at` (0 = cloud, 1.. = edges).
    Local {
        at: usize,
        write: Write,
        id: u8,
        qty: i8,
    },
    /// Edge `edge` sends its delta up; the adversary acts on that queue.
    Up { edge: usize, net: Net },
    /// The cloud sends edge `edge` its delta; likewise.
    Down { edge: usize, net: Net },
    /// Everyone folds what their peers have acknowledged.
    Compact,
}

fn op() -> impl Strategy<Value = Op> {
    let local = || {
        (0..EDGES + 1, write(), 6u8..14, -9i8..9).prop_map(|(at, write, id, qty)| Op::Local {
            at,
            write,
            id,
            qty,
        })
    };
    prop_oneof![
        local(),
        local(),
        (0..EDGES, net()).prop_map(|(edge, net)| Op::Up { edge, net }),
        (0..EDGES, net()).prop_map(|(edge, net)| Op::Down { edge, net }),
        Just(Op::Compact),
    ]
}

fn perturb(queue: &mut Vec<SetSyncMessage>, net: Net, ep: &mut SyncEndpoint, dst: &mut Node) {
    if queue.is_empty() {
        return;
    }
    match net {
        Net::Deliver => {
            ep.receive_owned(&mut dst.set, &mut dst.server, queue.remove(0));
        }
        Net::Drop => {
            queue.remove(0);
        }
        Net::Duplicate => {
            let m = queue.remove(0);
            ep.receive_owned(&mut dst.set, &mut dst.server, m.clone());
            ep.receive_owned(&mut dst.set, &mut dst.server, m);
        }
        Net::NewestFirst => {
            let m = queue.pop().expect("non-empty");
            ep.receive_owned(&mut dst.set, &mut dst.server, m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn touched_rows_alone_keep_the_table_equal_to_a_full_rebuild(
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let init = init_state();
        let mut cloud = Node::new(1, &init);
        let mut edges: Vec<Node> = (0..EDGES).map(|i| Node::new(2 + i as u64, &init)).collect();
        // per edge: its endpoint, the cloud's endpoint for it, both queues
        let mut to_cloud: Vec<SyncEndpoint> = (0..EDGES).map(|_| SyncEndpoint::new()).collect();
        let mut to_edge: Vec<SyncEndpoint> = (0..EDGES).map(|_| SyncEndpoint::new()).collect();
        let mut up: Vec<Vec<SetSyncMessage>> = vec![Vec::new(); EDGES];
        let mut down: Vec<Vec<SetSyncMessage>> = vec![Vec::new(); EDGES];

        for o in &ops {
            match *o {
                Op::Local { at, write, id, qty } => {
                    let node = if at == 0 { &mut cloud } else { &mut edges[at - 1] };
                    node.serve(write.path(), id, qty);
                }
                Op::Up { edge, net } => {
                    up[edge].push(to_cloud[edge].generate(&edges[edge].set));
                    perturb(&mut up[edge], net, &mut to_edge[edge], &mut cloud);
                }
                Op::Down { edge, net } => {
                    down[edge].push(to_edge[edge].generate(&cloud.set));
                    perturb(&mut down[edge], net, &mut to_cloud[edge], &mut edges[edge]);
                }
                Op::Compact => {
                    let acked = to_edge
                        .iter()
                        .fold(cloud.set.clock().clone(), |acc, ep| acc.meet(&ep.peer_clock));
                    cloud.set.compact(&acked);
                    for (node, ep) in edges.iter_mut().zip(&to_cloud) {
                        let acked = node.set.clock().meet(&ep.peer_clock);
                        node.set.compact(&acked);
                    }
                }
            }
            cloud.check("cloud", o)?;
            for (i, e) in edges.iter_mut().enumerate() {
                e.check(&format!("edge {i}"), o)?;
            }
        }

        // a quiet network: deltas out, acks back, relayed deltas out
        for _ in 0..3 {
            for i in 0..EDGES {
                let m = to_cloud[i].generate(&edges[i].set);
                to_edge[i].receive_owned(&mut cloud.set, &mut cloud.server, m);
            }
            for i in 0..EDGES {
                let m = to_edge[i].generate(&cloud.set);
                let edge = &mut edges[i];
                to_cloud[i].receive_owned(&mut edge.set, &mut edge.server, m);
            }
        }
        let settled = Op::Compact;
        cloud.check("cloud", &settled)?;
        let want = &cloud.server.db.table("items").unwrap().rows;
        for (i, e) in edges.iter_mut().enumerate() {
            e.check(&format!("edge {i}"), &settled)?;
            prop_assert_eq!(&e.server.db.table("items").unwrap().rows, want, "edge {} converged", i);
        }
        // healed: every clock is the master's, and no endpoint has a
        // change left to send in either direction
        for i in 0..EDGES {
            prop_assert_eq!(edges[i].set.clock(), cloud.set.clock(), "edge {} clock", i);
            let up = to_cloud[i].generate(&edges[i].set);
            prop_assert!(up.changes.is_empty(), "edge {} still sends {:?}", i, up.changes);
            let down = to_edge[i].generate(&cloud.set);
            prop_assert!(down.changes.is_empty(), "cloud still sends edge {} {:?}", i, down.changes);
        }
    }

    /// Two peers that write between rounds over a link that drops,
    /// duplicates and reorders, with the stragglers optionally arriving
    /// very late and back to front, converge within two reliable rounds
    /// once the link heals: the same rows and clock on both ends, nothing
    /// left to send either way, and each table still what a full rebuild
    /// from its CRDT gives.
    #[test]
    fn chaotic_delivery_always_converges(
        rounds in prop::collection::vec(
            (
                prop::collection::vec((write(), 6u8..14, -9i8..9), 0..4),
                prop::collection::vec((write(), 6u8..14, -9i8..9), 0..4),
                net(),
                net(),
            ),
            1..12,
        ),
        flush_stragglers in any::<bool>(),
    ) {
        let init = init_state();
        let mut a = Node::new(1, &init);
        let mut b = Node::new(2, &init);
        let mut a_ep = SyncEndpoint::new();
        let mut b_ep = SyncEndpoint::new();
        let mut a2b: Vec<SetSyncMessage> = Vec::new();
        let mut b2a: Vec<SetSyncMessage> = Vec::new();

        for (writes_a, writes_b, net_a2b, net_b2a) in &rounds {
            for (write, id, qty) in writes_a {
                a.serve(write.path(), *id, *qty);
            }
            for (write, id, qty) in writes_b {
                b.serve(write.path(), *id, *qty);
            }
            a2b.push(a_ep.generate(&a.set));
            b2a.push(b_ep.generate(&b.set));
            perturb(&mut a2b, *net_a2b, &mut b_ep, &mut b);
            perturb(&mut b2a, *net_b2a, &mut a_ep, &mut a);
        }
        if flush_stragglers {
            for m in a2b.drain(..).rev() {
                b_ep.receive_owned(&mut b.set, &mut b.server, m);
            }
            for m in b2a.drain(..).rev() {
                a_ep.receive_owned(&mut a.set, &mut a.server, m);
            }
        }

        // the link heals: round 1 ships a's changes to b and b's changes
        // plus its ack back; round 2 carries the last ack
        for _ in 0..2 {
            let m = a_ep.generate(&a.set);
            b_ep.receive_owned(&mut b.set, &mut b.server, m);
            let m = b_ep.generate(&b.set);
            a_ep.receive_owned(&mut a.set, &mut a.server, m);
        }
        let settled = Op::Compact;
        a.check("a", &settled)?;
        b.check("b", &settled)?;
        prop_assert_eq!(
            &a.server.db.table("items").unwrap().rows,
            &b.server.db.table("items").unwrap().rows
        );
        prop_assert_eq!(a.set.clock(), b.set.clock());
        let left = a_ep.generate(&a.set);
        prop_assert!(left.changes.is_empty(), "a still sends {:?}", left.changes);
        let left = b_ep.generate(&b.set);
        prop_assert!(left.changes.is_empty(), "b still sends {:?}", left.changes);
    }

    /// The stream of messages a writer sends while it writes — after each
    /// write, the delta of everything it holds — each delivered twice, in
    /// an order that takes from either end of the stream, leaves the
    /// receiver where in-order delivery of the last one does: the same
    /// clock and the same rows (merging a slot is idempotent, and an older
    /// delta changes nothing a newer one has already merged).
    #[test]
    fn duplicated_reordered_stream_matches_in_order(
        writes in prop::collection::vec((write(), 6u8..14, -9i8..9), 1..15),
        pick in prop::collection::vec(any::<bool>(), 1..15),
    ) {
        let init = init_state();
        let mut src = Node::new(1, &init);
        let mut singles: Vec<SetSyncMessage> = Vec::new();
        for (write, id, qty) in &writes {
            src.serve(write.path(), *id, *qty);
            singles.push(SyncEndpoint::new().generate(&src.set));
        }
        let full = singles.last().expect("one write at least").clone();

        let mut ordered = Node::new(2, &init);
        SyncEndpoint::new().receive_owned(&mut ordered.set, &mut ordered.server, full);

        let mut chaotic = Node::new(3, &init);
        let mut ep = SyncEndpoint::new();
        let mut from_front = pick.iter().cycle();
        while !singles.is_empty() {
            let m = match from_front.next() {
                Some(true) => singles.remove(0),
                _ => singles.pop().expect("non-empty"),
            };
            ep.receive_owned(&mut chaotic.set, &mut chaotic.server, m.clone());
            ep.receive_owned(&mut chaotic.set, &mut chaotic.server, m);
        }
        prop_assert_eq!(chaotic.set.clock(), ordered.set.clock());
        prop_assert_eq!(
            &chaotic.server.db.table("items").unwrap().rows,
            &ordered.server.db.table("items").unwrap().rows
        );
        chaotic.check("chaotic", &Op::Compact)?;
    }
}
