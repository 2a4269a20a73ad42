//! A replicated row write, end to end. Generated SQL write streams over two
//! keyed tables are served by `ServerProcess::handle` on one node, mirrored
//! into its `CRDT-Table`s by `CrdtSet::absorb_outcome`, shipped by
//! `SyncEndpoint::generate` and applied and materialised by `receive_owned`
//! on a second node.
//!
//! The properties: after every stream the receiver's typed SQL rows, CRDT
//! tables and replicated-state digest are the writer's, BLOB cells
//! included, and both nodes' images load back to themselves. The pins: one
//! FNV-1a over every encoded sync message, one over both nodes' images
//! and one over the receiver's SQL rows and
//! `replicated_state_digest`, across a fixed set of generated streams
//! drawn without BLOB cells. The receiver pin was captured while a row
//! still travelled from the SQL engine to the CRDT as a JSON object; a
//! constant that moves is a change of behaviour, not of speed. The wire and
//! image pins were re-taken when a replicated unit became one map of key
//! → register (ROADMAP item 13): a row write became one op of typed cells,
//! and the image went to layout 5. They were re-taken again when a
//! replica's units became one `Doc`: a message carries one clock and one
//! batch (42,099 → 26,694 B over the 48 streams), and a node's image is
//! the set's one image, where the pin took one per table (68,862 →
//! 69,470 B). And again when a change's dependencies left out the genesis
//! actor's entry and the author's own, which every receiver checks
//! without them (wire 26,694 → 24,940 B, images 69,470 → 65,962 B).

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, ReplicaCore, ResponseCache, SetSyncMessage, SyncEndpoint};
use edgstr_telemetry::Telemetry;
use proptest::prelude::*;
use proptest::rng::TestRng;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;

/// Two keyed tables whose column order is not their columns' name order,
/// seeded at three of the five keys a stream writes, and one route that
/// runs whatever statements it is sent, in order.
const APP: &str = r#"
    db.query("CREATE TABLE books (id INT PRIMARY KEY, title TEXT, price REAL, stock INT)");
    db.query("CREATE TABLE tags (tag TEXT PRIMARY KEY, note TEXT, weight REAL)");
    db.query("INSERT INTO books VALUES (1, 'Dune', 9.99, 12), (2, 'Emma', 7.5, 0), (3, 'Kim', 8.0, 3)");
    db.query("INSERT INTO tags VALUES ('sf', 'science fiction', 1.0), ('naïve', '', 0.5), ('𝄞', 'music', 2.0)");
    app.post("/sql", function (req, res) {
        var qs = req.body.qs;
        var i = 0;
        while (i < qs.length) {
            db.query(qs[i]);
            i = i + 1;
        }
        res.send({ ran: i });
    });
"#;

const TABLES: [&str; 2] = ["books", "tags"];

/// Per table: the key column and the other columns.
const COLUMNS: [(&str, &[&str]); 2] = [
    ("id", &["title", "price", "stock"]),
    ("tag", &["note", "weight"]),
];

/// Integer keys: negative, and one past what an `f64` holds exactly.
const BOOK_KEYS: [i64; 5] = [1, 2, 3, -4, 9_007_199_254_740_993];

/// Text keys: unicode, empty, and a quote inside. A quote at either end,
/// and a key column written as both `INT` and `TEXT`, stay out until
/// ROADMAP item 10(b): `SqlValue::pk_string` maps such keys onto the key
/// of another row.
const TAG_KEYS: [&str; 5] = ["sf", "naïve", "𝄞", "", "it's"];

const INTS: [i64; 8] = [
    0,
    1,
    -7,
    42,
    9_007_199_254_740_993,
    -9_007_199_254_740_993,
    i64::MAX,
    i64::MIN,
];

/// `REAL` literals as the SQL text spells them: integral, fractional,
/// negative zero.
const REALS: [&str; 8] = [
    "3.0",
    "-12.0",
    "2.5",
    "-0.125",
    "0.1",
    "-0.0",
    "123456789.75",
    "0.0",
];

const TEXTS: [&str; 8] = [
    "",
    "plain",
    "it's",
    "'quoted'",
    "naïve ✓",
    "𝄞 clef 🦀",
    "100%",
    "a\\b",
];

/// `BLOB` literals: bytes that are not UTF-8, and none at all.
const BLOBS: [&str; 2] = ["X'0aff'", "X''"];

/// One cell of any kind: the engine does not coerce to the declared type.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Int(usize),
    Real(usize),
    Null,
    Text(usize),
    Blob(usize),
}

impl Cell {
    fn sql(self) -> String {
        match self {
            Cell::Int(i) => INTS[i].to_string(),
            Cell::Real(i) => REALS[i].to_string(),
            Cell::Null => "NULL".to_string(),
            Cell::Text(i) => quote(TEXTS[i]),
            Cell::Blob(i) => BLOBS[i].to_string(),
        }
    }
}

fn quote(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

#[derive(Debug, Clone)]
enum Write {
    /// A new row, or a duplicate key: a failed statement.
    Insert {
        table: usize,
        key: usize,
        cells: Vec<Cell>,
    },
    /// One or several cells of the row at `key` (`(column, cell)`, the
    /// column an index into the non-key columns).
    Update {
        table: usize,
        key: usize,
        sets: Vec<(usize, Cell)>,
    },
    /// The row at `key` moves to a key no other statement uses.
    Rekey {
        table: usize,
        key: usize,
    },
    Delete {
        table: usize,
        key: usize,
    },
}

impl Write {
    /// The statement, for a request at position `at` of its stream.
    fn sql(&self, at: usize) -> String {
        let key = |table: usize, key: usize| match table {
            0 => BOOK_KEYS[key].to_string(),
            _ => quote(TAG_KEYS[key]),
        };
        match self {
            Write::Insert {
                table,
                key: k,
                cells,
            } => {
                let values: Vec<String> = cells.iter().map(|c| c.sql()).collect();
                format!(
                    "INSERT INTO {} VALUES ({}, {})",
                    TABLES[*table],
                    key(*table, *k),
                    values.join(", ")
                )
            }
            Write::Update {
                table,
                key: k,
                sets,
            } => {
                let (pk, others) = COLUMNS[*table];
                let sets: Vec<String> = sets
                    .iter()
                    .map(|(col, cell)| format!("{} = {}", others[col % others.len()], cell.sql()))
                    .collect();
                format!(
                    "UPDATE {} SET {} WHERE {pk} = {}",
                    TABLES[*table],
                    sets.join(", "),
                    key(*table, *k)
                )
            }
            Write::Rekey { table, key: k } => {
                let (pk, _) = COLUMNS[*table];
                let fresh = match table {
                    0 => (1000 + at).to_string(),
                    _ => quote(&format!("r{at}")),
                };
                format!(
                    "UPDATE {} SET {pk} = {fresh} WHERE {pk} = {}",
                    TABLES[*table],
                    key(*table, *k)
                )
            }
            Write::Delete { table, key: k } => {
                let (pk, _) = COLUMNS[*table];
                format!(
                    "DELETE FROM {} WHERE {pk} = {}",
                    TABLES[*table],
                    key(*table, *k)
                )
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Request {
    write: Write,
    /// A statement after the write fails, so the handler fails with the
    /// row already written to the database.
    fail_after: bool,
    /// Sync both ways after this request.
    sync: bool,
}

/// Cells of every kind; `BLOB`s only when `blobs` is set, so that the
/// pinned streams are the ones drawn before `BLOB` cells replicated.
fn cell(blobs: bool) -> BoxedStrategy<Cell> {
    let int = || (0..INTS.len()).prop_map(Cell::Int);
    let real = || (0..REALS.len()).prop_map(Cell::Real);
    let text = || (0..TEXTS.len()).prop_map(Cell::Text);
    if blobs {
        let blob = (0..BLOBS.len()).prop_map(Cell::Blob);
        prop_oneof![int(), real(), Just(Cell::Null), text(), text(), blob].boxed()
    } else {
        prop_oneof![int(), real(), Just(Cell::Null), text(), text()].boxed()
    }
}

fn write(blobs: bool) -> impl Strategy<Value = Write> {
    let table = || 0usize..TABLES.len();
    let key = || 0..BOOK_KEYS.len().min(TAG_KEYS.len());
    let cell = move || cell(blobs);
    let insert = move || {
        (table(), key(), prop::collection::vec(cell(), 3..4)).prop_map(|(table, key, cells)| {
            Write::Insert {
                table,
                key,
                cells: cells[..COLUMNS[table].1.len()].to_vec(),
            }
        })
    };
    prop_oneof![
        insert(),
        insert(),
        (table(), key(), (0usize..3, cell())).prop_map(|(table, key, set)| Write::Update {
            table,
            key,
            sets: vec![set],
        }),
        (
            table(),
            key(),
            prop::collection::vec((0usize..3, cell()), 2..4)
        )
            .prop_map(|(table, key, sets)| Write::Update { table, key, sets }),
        (table(), key()).prop_map(|(table, key)| Write::Rekey { table, key }),
        (table(), key()).prop_map(|(table, key)| Write::Delete { table, key }),
    ]
}

fn request(blobs: bool) -> impl Strategy<Value = Request> {
    (write(blobs), 0u8..8, 0u8..3).prop_map(|(write, fail, sync)| Request {
        write,
        fail_after: fail == 0,
        sync: sync == 0,
    })
}

fn stream(blobs: bool) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(request(blobs), 1..40)
}

fn bindings() -> CrdtBindings {
    CrdtBindings::from_units(TABLES.map(|t| StateUnit::DbTable(t.into())))
}

fn node(actor: u64, init: &InitState) -> ReplicaCore {
    let mut server = ServerProcess::from_source(APP).unwrap();
    server.init().unwrap();
    init.restore(&mut server);
    ReplicaCore {
        server,
        crdts: CrdtSet::initialize(ActorId(actor), &bindings(), init),
        cache: ResponseCache::new(0, &Telemetry::disabled()),
        corruptor: None,
    }
}

/// Serve one request as the serve path does: absorb a success, put back
/// what a failure wrote.
fn serve(node: &mut ReplicaCore, statements: Vec<String>) {
    let req = HttpRequest::post("/sql", json!({ "qs": statements }), vec![]);
    match node.server.handle(&req) {
        Ok(out) => node.crdts.absorb_outcome(&out, &node.server),
        Err(_) => node.crdts.revert_failed_writes(&mut node.server),
    }
}

/// What one stream leaves behind, as bytes the pins hash.
#[derive(Default)]
struct Trace {
    /// Every sync message, encoded, in the order sent.
    wire: Vec<u8>,
    /// Each node's table images, writer first.
    images: Vec<u8>,
    /// The receiver's SQL rows, then its replicated-state digest.
    receiver: Vec<u8>,
}

/// One message from `from` to `to` over `to_end`, recorded on the way.
fn ship(
    from_end: &mut SyncEndpoint,
    from: &ReplicaCore,
    to_end: &mut SyncEndpoint,
    to: &mut ReplicaCore,
    wire: &mut Vec<u8>,
) {
    let msg: SetSyncMessage = from_end.generate(&from.crdts);
    msg.encode(wire);
    to_end.receive_owned(&mut to.crdts, &mut to.server, msg);
}

fn rows(node: &ReplicaCore, table: &str) -> String {
    format!("{:?}", node.server.db.table(table).unwrap().rows)
}

/// Run `stream` on a writer and a receiver; check the property and return
/// what the pins hash.
fn run(stream: &[Request]) -> Result<Trace, TestCaseFailure> {
    let init = {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        InitState::capture(&s)
    };
    let mut writer = node(2, &init);
    let mut receiver = node(1, &init);
    // the writer's end of the link and the receiver's
    let (mut up, mut down) = (SyncEndpoint::new(), SyncEndpoint::new());
    let mut trace = Trace::default();
    let mut exchange =
        |writer: &mut ReplicaCore, receiver: &mut ReplicaCore, wire: &mut Vec<u8>| {
            ship(&mut up, writer, &mut down, receiver, wire);
            ship(&mut down, receiver, &mut up, writer, wire);
        };
    for (at, req) in stream.iter().enumerate() {
        let mut statements = vec![req.write.sql(at)];
        if req.fail_after {
            statements.push("UPDATE nosuch SET x = 1".to_string());
        }
        serve(&mut writer, statements);
        if req.sync {
            exchange(&mut writer, &mut receiver, &mut trace.wire);
        }
    }
    exchange(&mut writer, &mut receiver, &mut trace.wire);

    for t in TABLES {
        prop_assert_eq!(rows(&receiver, t), rows(&writer, t), "SQL rows of {}", t);
        let rows = |node: &ReplicaCore| {
            let rows = node.crdts.rows(t).into_iter();
            rows.map(|(k, v)| (k.to_string(), v.clone()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(rows(&receiver), rows(&writer), "CRDT rows of {}", t);
    }
    let digest = receiver.replicated_state_digest();
    prop_assert_eq!(digest, writer.replicated_state_digest());
    for node in [&writer, &receiver] {
        let image = node.crdts.save();
        let loaded = CrdtSet::load(ActorId(9), &bindings(), &image).unwrap();
        prop_assert!(loaded.save() == image, "an image loads back to itself");
        trace.images.extend(image);
    }
    for t in TABLES {
        trace.receiver.extend(rows(&receiver, t).bytes());
    }
    trace.receiver.extend(digest.to_le_bytes());
    Ok(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_receiver_reads_what_the_writer_wrote(stream in stream(true)) {
        run(&stream)?;
    }
}

/// The three FNV-1a pins over 48 streams drawn from fixed seeds.
#[test]
fn pinned_row_writes() {
    let strategy = stream(false);
    let mut all = Trace::default();
    for seed in 0..48 {
        let stream = strategy.new_tree(&mut TestRng::new(seed)).current();
        let trace = run(&stream).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        all.wire.extend(trace.wire);
        all.images.extend(trace.images);
        all.receiver.extend(trace.receiver);
    }
    let fnv = |bytes: &[u8]| edgstr_net::fnv1a(edgstr_net::FNV_OFFSET, bytes);
    assert_eq!(
        (fnv(&all.wire), fnv(&all.images), fnv(&all.receiver)),
        (
            0x13c1_ee1c_04c7_7cab,
            0x06eb_9daf_3217_bc93,
            0xb107_ec28_1e2c_2e0a
        ),
        "wire {} B, images {} B",
        all.wire.len(),
        all.images.len()
    );
}
