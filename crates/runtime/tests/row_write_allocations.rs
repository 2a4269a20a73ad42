//! The allocation budget of a replicated row write. One bookworm
//! `POST /books` and one `PUT /stock` are each handled and absorbed on edge
//! A, shipped to the cloud master, relayed to edge B and materialised on
//! both; a counting global allocator counts what each step allocates on the
//! thread that runs it. The budget covers the CRDT side of the write —
//! absorb, then generate and receive on each of the two hops — which is
//! what every client write costs once plus once per receiving replica: at
//! most half of what it was while a row crossed into the CRDT and back out
//! as a JSON object. A key copied on apply again, or a row rebuilt as JSON,
//! breaks it.

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::{HttpRequest, Verb};
use edgstr_runtime::{CrdtSet, SyncEndpoint};
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (fresh and grown) on threads that asked it to.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, COUNT.with(Cell::get))
}

struct Node {
    server: ServerProcess,
    set: CrdtSet,
}

fn node(actor: u64, init: &InitState) -> Node {
    let mut server = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
    server.init().unwrap();
    init.restore(&mut server);
    let bindings = CrdtBindings::from_units([
        StateUnit::DbTable("books".into()),
        StateUnit::Global("catalog_version".into()),
    ]);
    Node {
        set: CrdtSet::initialize(ActorId(actor), &bindings, init),
        server,
    }
}

/// One link: the two ends, the sender's first.
struct Link(SyncEndpoint, SyncEndpoint);

impl Link {
    /// The sender's delta, generated and received.
    fn ship(&mut self, from: &Node, to: &mut Node) {
        let msg = self.0.generate(&from.set);
        self.1.receive_owned(&mut to.set, &mut to.server, msg);
    }

    /// The receiver's acknowledgment back (nothing else travels).
    fn ack(&mut self, from: &mut Node, to: &Node) {
        let msg = self.1.generate(&to.set);
        self.0.receive_owned(&mut from.set, &mut from.server, msg);
    }
}

/// Allocations of one write, step by step.
struct Steps {
    handle: u64,
    absorb: u64,
    /// Edge A → cloud: generate and receive.
    up: u64,
    /// Cloud → edge B: generate and receive.
    down: u64,
}

impl Steps {
    fn crdt_side(&self) -> u64 {
        self.absorb + self.up + self.down
    }

    fn print(&self, what: &str) {
        println!(
            "{what}: handle {}, CRDT side {} (absorb {}, up {}, down {})",
            self.handle,
            self.crdt_side(),
            self.absorb,
            self.up,
            self.down
        );
    }
}

struct Cluster {
    a: Node,
    cloud: Node,
    b: Node,
    a_cloud: Link,
    cloud_b: Link,
}

impl Cluster {
    fn write(&mut self, req: &HttpRequest) -> Steps {
        let Cluster {
            a,
            cloud,
            b,
            a_cloud,
            cloud_b,
        } = self;
        let (out, handle) = counted(|| a.server.handle(req).unwrap());
        let ((), absorb) = counted(|| a.set.absorb_outcome(&out, &a.server));
        let ((), up) = counted(|| a_cloud.ship(a, cloud));
        let ((), down) = counted(|| cloud_b.ship(cloud, b));
        a_cloud.ack(a, cloud);
        cloud_b.ack(cloud, b);
        Steps {
            handle,
            absorb,
            up,
            down,
        }
    }
}

fn add_book(id: i64) -> HttpRequest {
    HttpRequest::post(
        "/books",
        json!({"id": id, "title": format!("amber basin {id}"), "author": "Egan", "price": 9.5}),
        vec![],
    )
}

fn set_stock(id: i64, qty: i64) -> HttpRequest {
    HttpRequest {
        verb: Verb::Put,
        path: "/stock".to_string(),
        params: json!({"id": id, "qty": qty}),
        body: vec![],
    }
}

/// The CRDT side of one `POST /books` plus one `PUT /stock`, measured
/// when this suite was added, before a row stopped becoming JSON on its way
/// from the SQL engine to the CRDT and back.
const BEFORE: u64 = 308;

#[test]
fn a_replicated_row_write_stays_within_its_allocation_budget() {
    let init = {
        let mut s = ServerProcess::from_source(edgstr_apps::bookworm::SOURCE).unwrap();
        s.init().unwrap();
        InitState::capture(&s)
    };
    let mut cluster = Cluster {
        a: node(2, &init),
        cloud: node(1, &init),
        b: node(3, &init),
        a_cloud: Link(SyncEndpoint::new(), SyncEndpoint::new()),
        cloud_b: Link(SyncEndpoint::new(), SyncEndpoint::new()),
    };
    // warm up: first writes grow logs and indexes that later writes reuse
    for id in 100..104 {
        cluster.write(&add_book(id));
        cluster.write(&set_stock(id, 1));
    }
    let post = cluster.write(&add_book(200));
    let put = cluster.write(&set_stock(200, 7));
    for (what, node) in [("cloud", &cluster.cloud), ("edge B", &cluster.b)] {
        assert_eq!(
            node.server.db.table("books").unwrap().rows,
            cluster.a.server.db.table("books").unwrap().rows,
            "{what} materialised edge A's rows"
        );
    }
    let total = post.crdt_side() + put.crdt_side();
    post.print("POST /books");
    put.print("PUT /stock");
    println!("CRDT side of both: {total} (before: {BEFORE})");
    assert!(
        total <= BEFORE / 2,
        "{total} allocations, budget {}",
        BEFORE / 2
    );
}
