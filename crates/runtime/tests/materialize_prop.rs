//! Property test for row-granular materialisation: after a remote apply
//! the runtime writes only the rows the delta touched into `server.db`.
//! That is sound only while every untouched row already reads the same in
//! the database as in the CRDT, so the property pins the strongest form of
//! it: under generated interleavings of local inserts, updates, deletes and
//! failing handlers on a cloud master and two edges, sync deliveries that
//! are dropped, duplicated and reordered, and compaction, every node's
//! table is — after every step, row for row and in order — what a
//! whole-table `materialize_all` rebuild from its CRDT produces.

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

/// What the adversary does with the oldest message in flight.
#[derive(Debug, Clone, Copy)]
enum Net {
    Deliver,
    Drop,
    Duplicate,
    NewestFirst,
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
        let write = prop_oneof![
            Just(Write::Add),
            Just(Write::Add),
            Just(Write::Set),
            Just(Write::Del),
            Just(Write::Half),
        ];
        (0..EDGES + 1, write, 6u8..14, -9i8..9).prop_map(|(at, write, id, qty)| Op::Local {
            at,
            write,
            id,
            qty,
        })
    };
    let net = || {
        prop_oneof![
            Just(Net::Deliver),
            Just(Net::Deliver),
            Just(Net::Drop),
            Just(Net::Duplicate),
            Just(Net::NewestFirst),
        ]
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
            ep.receive(&mut dst.set, &mut dst.server, &m);
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
        let init = {
            let mut s = ServerProcess::from_source(APP).unwrap();
            s.init().unwrap();
            InitState::capture(&s)
        };
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
                    let path = match write {
                        Write::Add => "/add",
                        Write::Set => "/set",
                        Write::Del => "/del",
                        Write::Half => "/half",
                    };
                    node.serve(path, id, qty);
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
                        .fold(cloud.set.clock(), |acc, ep| acc.meet(&ep.peer_clock));
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
    }
}
