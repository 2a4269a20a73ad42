//! A replicated row write, end to end. Generated SQL write streams over two
//! keyed tables are served by `ServerProcess::handle` on one node, mirrored
//! into its `CRDT-Table`s by `CrdtSet::absorb_outcome`, shipped by
//! `SyncEndpoint::generate` and applied and materialised by `receive_owned`
//! on a second node.
//!
//! The properties: after every stream the receiver's typed SQL rows, CRDT
//! tables and replicated-state digest are the writer's, BLOB cells
//! included, and both nodes' images load back to themselves; keys that
//! differ only in kind (`INT 5`, `TEXT '5'`) or in a quote at an edge stay
//! apart. And replicas whose typed rows differ have different digests.
//! The pins: one FNV-1a over every encoded sync message, one over both
//! nodes' images, one over the receiver's SQL rows and one over its
//! `replicated_state_digest`, across a fixed set of generated streams
//! drawn without BLOB cells or the keys added with them. The rows pin was captured while a row
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
//! without them (wire 26,694 → 24,940 B, images 69,470 → 65,962 B). The
//! digest pin was re-taken when the digest went from a table's JSON text
//! to its typed cells, with the rows pin holding. The wire and image pins
//! were re-taken when a row's key became its key cell's SQL literal: a
//! text key keeps its quotes (wire 24,940 → 25,392 B, images 65,962 →
//! 67,514 B), and the rows pin held.

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, ReplicaCore, ResponseCache, SetSyncMessage, SyncEndpoint};
use edgstr_sql::SqlValue;
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

/// `books` keys as the SQL spells them: integers, negative, and one past
/// what an `f64` holds exactly; then the integer 5 and the text '5', and a
/// `REAL` equal to the integer key 2.
const BOOK_KEYS: [&str; KEYS] = ["1", "2", "3", "-4", "9007199254740993", "5", "'5'", "2.0"];

/// `tags` keys: unicode, empty, and a quote inside; then a quote at
/// either end, and quotes only.
const TAG_KEYS: [&str; KEYS] = ["sf", "naïve", "𝄞", "", "it's", "'a", "a'", "''"];

/// Keys a stream writes; the pinned streams write the first
/// [`PINNED_KEYS`] of each table's.
const KEYS: usize = 8;
const PINNED_KEYS: usize = 5;

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

/// Cells of every kind; `BLOB`s only when `wide` is set, so that the
/// pinned streams are the ones drawn before `BLOB` cells replicated.
fn cell(wide: bool) -> BoxedStrategy<Cell> {
    let int = || (0..INTS.len()).prop_map(Cell::Int);
    let real = || (0..REALS.len()).prop_map(Cell::Real);
    let text = || (0..TEXTS.len()).prop_map(Cell::Text);
    if wide {
        let blob = (0..BLOBS.len()).prop_map(Cell::Blob);
        prop_oneof![int(), real(), Just(Cell::Null), text(), text(), blob].boxed()
    } else {
        prop_oneof![int(), real(), Just(Cell::Null), text(), text()].boxed()
    }
}

/// Writes to every key when `wide` is set, and to the pinned streams'
/// keys otherwise.
fn write(wide: bool) -> impl Strategy<Value = Write> {
    let table = || 0usize..TABLES.len();
    let key = move || 0..if wide { KEYS } else { PINNED_KEYS };
    let cell = move || cell(wide);
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

fn request(wide: bool) -> impl Strategy<Value = Request> {
    (write(wide), 0u8..8, 0u8..3).prop_map(|(write, fail, sync)| Request {
        write,
        fail_after: fail == 0,
        sync: sync == 0,
    })
}

fn stream(wide: bool) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(request(wide), 1..40)
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
    /// The receiver's SQL rows.
    receiver: Vec<u8>,
    /// The receiver's replicated-state digest.
    digest: Vec<u8>,
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
    trace.digest.extend(digest.to_le_bytes());
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
        all.digest.extend(trace.digest);
    }
    let fnv = |bytes: &[u8]| edgstr_net::fnv1a(edgstr_net::FNV_OFFSET, bytes);
    assert_eq!(
        (
            fnv(&all.wire),
            fnv(&all.images),
            fnv(&all.receiver),
            fnv(&all.digest)
        ),
        (
            0x9308_c3ef_7fb9_0a97,
            0x5eec_85a8_5e64_74a6,
            0xace2_f16b_207f_1f23,
            0x041a_8bc4_d90c_168f
        ),
        "wire {} B, images {} B",
        all.wire.len(),
        all.images.len()
    );
}

/// The writer serves six `INSERT`s whose keys differ only in kind or in a
/// quote at an edge, and syncs once: the receiver holds all six rows.
#[test]
fn keys_that_print_alike_stay_apart() {
    let init = {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        InitState::capture(&s)
    };
    let (mut writer, mut receiver) = (node(2, &init), node(1, &init));
    serve(&mut writer, repro_inserts());
    let (mut up, mut down) = (SyncEndpoint::new(), SyncEndpoint::new());
    ship(&mut up, &writer, &mut down, &mut receiver, &mut Vec::new());
    assert_eq!(writer.server.db.table("tags").unwrap().rows.len(), 3 + 6);
    assert_eq!(rows(&receiver, "tags"), rows(&writer, "tags"));
    assert_eq!(
        receiver.replicated_state_digest(),
        writer.replicated_state_digest()
    );
}

/// Six rows of `tags` keyed `INT 5`, `'5'`, `'a'`, `'''a'`, `'a'''` and
/// `'b'`.
fn repro_inserts() -> Vec<String> {
    ["5", "'5'", "'a'", "'''a'", "'a'''", "'b'"]
        .iter()
        .enumerate()
        .map(|(i, key)| format!("INSERT INTO tags VALUES ({key}, 'row {i}', {i}.5)"))
        .collect()
}

/// Cells a digest must tell apart unless they are the same cell: every
/// kind, both zeros, NaN, an `INT` beside the `REAL` of its value and the
/// `REAL` of its bits, text beside the blob of its bytes and beside the
/// text a blob's JSON was.
fn edge_cells() -> Vec<SqlValue> {
    use SqlValue::{Blob, Int, Null, Real, Text};
    vec![
        Null,
        Int(0),
        Int(5),
        Int(5.0_f64.to_bits() as i64),
        Real(0.0),
        Real(-0.0),
        Real(5.0),
        Real(f64::NAN),
        Text(String::new()),
        Text("5".into()),
        Text("ab".into()),
        Text("0x0aff".into()),
        Blob(Vec::new()),
        Blob(b"5".to_vec()),
        Blob(b"ab".to_vec()),
        Blob(vec![0x0a, 0xff]),
    ]
}

/// Two replicas whose typed rows differ have different
/// `replicated_state_digest`s, and two whose rows are the same cells have
/// one. The first cases are pairs a digest of JSON text confused: the
/// writer and receiver of [`keys_that_print_alike_stay_apart`] as they
/// were when `'5'` took the row of `INT 5` and `'a'''` the rows of `'a'`
/// and `'''a'`, a `BLOB` beside the text its JSON was, `REAL 5.0` beside
/// `INT 5`, `NaN` beside `NULL`; then text beside the blob of its bytes
/// and `INT 0` beside `REAL 0.0`, which agree but for their kind. Then
/// every cell of every seeded row, replaced by each of [`edge_cells`].
#[test]
fn typed_rows_that_differ_have_different_digests() {
    use SqlValue::{Blob, Int, Null, Real, Text};
    let init = {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        InitState::capture(&s)
    };
    let (mut a, mut b) = (node(1, &init), node(2, &init));
    let mut differ = |table: &str, x: Vec<Vec<SqlValue>>, y: Vec<Vec<SqlValue>>, same: bool| {
        let label = format!("{table}: {x:?} against {y:?}");
        a.server.db.replace_table_rows(table, x).unwrap();
        b.server.db.replace_table_rows(table, y).unwrap();
        let (da, db) = (a.replicated_state_digest(), b.replicated_state_digest());
        assert_eq!(da == db, same, "{label}");
        let seeded = init.db.table(table).unwrap().rows.clone();
        a.server
            .db
            .replace_table_rows(table, seeded.clone())
            .unwrap();
        b.server.db.replace_table_rows(table, seeded).unwrap();
    };

    let mut writer = node(3, &init);
    serve(&mut writer, repro_inserts());
    let six = writer.server.db.table("tags").unwrap().rows.clone();
    let text = |s: &str| Text(s.into());
    // the rows whose key another row's took
    let lost = [Int(5), text("a"), text("'a")];
    let three = six
        .iter()
        .filter(|r| !lost.iter().any(|k| k.identical(&r[0])));
    let three = three.cloned().collect();
    differ("tags", six, three, false);
    let tag = |note: SqlValue, weight: SqlValue| vec![vec![text("k"), note, weight]];
    for (x, y) in [
        (tag(Blob(vec![0x0a, 0xff]), Null), tag(text("0x0aff"), Null)),
        (tag(Null, Real(5.0)), tag(Null, Int(5))),
        (tag(Null, Real(f64::NAN)), tag(Null, Null)),
        (tag(text("ab"), Null), tag(Blob(b"ab".to_vec()), Null)),
        (tag(Null, Int(0)), tag(Null, Real(0.0))),
    ] {
        differ("tags", x, y, false);
    }

    for table in TABLES {
        let seeded = &init.db.table(table).unwrap().rows;
        for (r, row) in seeded.iter().enumerate() {
            for c in 0..row.len() {
                for cell in edge_cells() {
                    let mut changed = seeded.clone();
                    let same = changed[r][c].identical(&cell);
                    changed[r][c] = cell;
                    differ(table, seeded.clone(), changed, same);
                }
            }
        }
    }
}
