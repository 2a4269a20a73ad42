//! E12 — sync throughput at scale: the O(delta) replication hot path.
//!
//! The paper's sync daemon ships deltas every interval for the lifetime of
//! a deployment, so the cost of *computing* a delta must not grow with the
//! lifetime or the state. This experiment quantifies the two halves of
//! that guarantee:
//!
//! 1. **Delta-fetch scaling** (part A): `get_changes` against a document
//!    holding 1k/10k/100k live keys, 100 of them written above the peer's
//!    clock — the walk of the per-actor dot index above that clock.
//! 2. **Steady-state cluster** (part B): one cloud master + 4 edge
//!    replicas pushing 100k+ mutations (upserts and deletes) through the
//!    runtime sync path. Per-round sync CPU time, wire bytes, and the
//!    resident tombstones are reported, and every replica must end with
//!    the master's table and file.
//!
//! Results land in `BENCH_sync_scale.json`.

use edgstr_analysis::{HandleOutcome, InitState, ServerProcess, StateUnit};
use edgstr_bench::{print_table, smoke_flag, BenchReport};
use edgstr_core::CrdtBindings;
use edgstr_crdt::{ActorId, Doc, VClock, Value};
use edgstr_net::HttpResponse;
use edgstr_runtime::{CrdtSet, SyncEndpoint};
use edgstr_sql::{RowEffect, SqlValue};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

const EDGES: usize = 4;
/// Distinct primary keys: steady-state overwrites, so the table stays
/// small while the change history (absent compaction) grows unbounded.
const KEYSPACE: usize = 512;
const DELTA: u64 = 100;

/// Best-of-batches timing: one warmup batch is discarded and the fastest
/// batch average is reported — a noise floor rather than a load-sensitive
/// mean.
fn time_ns<A, F: FnMut() -> A>(batches: u32, reps: u32, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for batch in 0..=batches {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        if batch > 0 {
            let ns = t.elapsed().as_nanos() / u128::from(reps.max(1));
            best = best.min(ns as u64);
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Part A: delta-fetch scaling
// ---------------------------------------------------------------------------

/// A doc holding `n` live keys, the last [`DELTA`] of them written above
/// `since`.
fn delta_fixture(n: u64) -> (Doc, VClock) {
    let mut doc = Doc::new(ActorId(1));
    for i in 0..n - DELTA {
        doc.put(&format!("k{i}"), Value::Json(json!(i)));
    }
    let since = doc.clock().clone();
    for i in 0..DELTA {
        doc.put(&format!("d{i}"), Value::Json(json!(i)));
    }
    (doc, since)
}

fn part_a(smoke: bool) -> Vec<serde_json::Value> {
    let sizes: &[u64] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let (batches, reps) = if smoke { (5, 10) } else { (8, 40) };
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &n in sizes {
        let (doc, since) = delta_fixture(n);
        assert_eq!(doc.len() as u64, n);
        assert_eq!(doc.get_changes(&since).len() as u64, DELTA);
        let fetch_ns = time_ns(batches, reps, || doc.get_changes(&since));
        rows.push(vec![
            format!("{n}"),
            format!("{DELTA}"),
            format!("{fetch_ns}"),
        ]);
        out.push(json!({
            "live_keys": n,
            "delta": DELTA,
            "fetch_ns": fetch_ns,
        }));
    }
    print_table(
        "E12a: get_changes over N live keys, 100-key delta",
        &["live keys", "delta", "fetch ns"],
        &rows,
    );
    out
}

// ---------------------------------------------------------------------------
// Part B: steady-state cluster
// ---------------------------------------------------------------------------

const APP: &str = r#"
    db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)");
    app.get("/noop", function (req, res) { res.send({}); });
"#;

fn bindings() -> CrdtBindings {
    CrdtBindings::from_units([
        StateUnit::DbTable("kv".into()),
        StateUnit::File("/status.txt".into()),
    ])
}

fn make_node(actor: u64, init: &InitState) -> (ServerProcess, CrdtSet) {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    init.restore(&mut s);
    let set = CrdtSet::initialize(ActorId(actor), &bindings(), init);
    (s, set)
}

struct EdgeNode {
    server: ServerProcess,
    set: CrdtSet,
    to_cloud: SyncEndpoint,
}

/// What a request that wrote `row_effects` and `file_writes` hands the
/// CRDT wiring.
fn outcome(row_effects: Vec<RowEffect>, file_writes: Vec<(String, Vec<u8>)>) -> HandleOutcome {
    HandleOutcome {
        response: HttpResponse::ok(json!({})),
        cycles: 0,
        row_effects,
        file_writes,
        global_writes: Vec::new(),
        sql_reads: Vec::new(),
    }
}

struct RunStats {
    sync_ns_total: u128,
    wire_bytes: usize,
    peak_history: usize,
    final_history: usize,
    first_decile_round_us: f64,
    last_decile_round_us: f64,
}

fn run(rounds: usize, per_edge: usize) -> RunStats {
    let mut init_server = ServerProcess::from_source(APP).unwrap();
    init_server.init().unwrap();
    init_server.fs.write("/status.txt", b"init".to_vec());
    let init = InitState::capture(&init_server);

    let (cloud_server, cloud_set) = make_node(1, &init);
    let mut cloud_server = cloud_server;
    let mut cloud_set = cloud_set;
    let mut cloud_eps: Vec<SyncEndpoint> = (0..EDGES).map(|_| SyncEndpoint::new()).collect();
    let mut edges: Vec<EdgeNode> = (0..EDGES)
        .map(|i| {
            let (server, set) = make_node(2 + i as u64, &init);
            EdgeNode {
                server,
                set,
                to_cloud: SyncEndpoint::new(),
            }
        })
        .collect();

    let mut wire_bytes = 0usize;
    let mut peak_history = 0usize;
    let mut round_ns: Vec<u64> = Vec::with_capacity(rounds);
    let mut next_id = 0usize;
    let columns: Arc<[String]> = ["k".to_string(), "v".to_string()].into();

    for round in 0..rounds {
        // mutations land at the edges between sync ticks, each absorbed as
        // a request's outcome
        for (e, edge) in edges.iter_mut().enumerate() {
            for _ in 0..per_edge {
                let id = next_id;
                next_id += 1;
                let pk = SqlValue::Text(format!("r{}", id % KEYSPACE));
                let cells = vec![pk.clone(), SqlValue::Int(id as i64)];
                let upsert = RowEffect::Upsert {
                    table: "kv".to_string(),
                    pk: Some(pk),
                    columns: Arc::clone(&columns),
                    cells,
                    changed: None,
                };
                edge.set
                    .absorb_outcome(&outcome(vec![upsert], Vec::new()), &edge.server);
            }
            // and one key deleted: a tombstone until every replica has it
            let pk = SqlValue::Text(format!("r{}", (next_id + 7 * e) % KEYSPACE));
            let table = "kv".to_string();
            let delete = RowEffect::Delete {
                table,
                pk: Some(pk),
            };
            edge.set
                .absorb_outcome(&outcome(vec![delete], Vec::new()), &edge.server);
            if round % 10 == 0 {
                let status = format!("r{round}e{e}").into_bytes();
                let write = outcome(Vec::new(), vec![("/status.txt".to_string(), status)]);
                edge.set.absorb_outcome(&write, &edge.server);
            }
        }
        // one bidirectional sync round, timed
        let t0 = Instant::now();
        for (i, edge) in edges.iter_mut().enumerate() {
            let msg = edge.to_cloud.generate(&edge.set);
            if !msg.changes.is_empty() {
                wire_bytes += msg.wire_size();
            }
            cloud_eps[i].receive_owned(&mut cloud_set, &mut cloud_server, msg);
            let msg = cloud_eps[i].generate(&cloud_set);
            if !msg.changes.is_empty() {
                wire_bytes += msg.wire_size();
            }
            edge.to_cloud
                .receive_owned(&mut edge.set, &mut edge.server, msg);
        }
        let mut frontier = cloud_eps[0].peer_clock.clone();
        for ep in &cloud_eps[1..] {
            frontier = frontier.meet(&ep.peer_clock);
        }
        cloud_set.compact(&frontier);
        for edge in edges.iter_mut() {
            edge.set.compact(&edge.to_cloud.peer_clock);
        }
        round_ns.push(t0.elapsed().as_nanos() as u64);
        peak_history = peak_history.max(cloud_set.history_len());
    }

    // flush: everything acked, every replica identical
    for _ in 0..2 {
        for (i, edge) in edges.iter_mut().enumerate() {
            let msg = edge.to_cloud.generate(&edge.set);
            cloud_eps[i].receive_owned(&mut cloud_set, &mut cloud_server, msg);
            let msg = cloud_eps[i].generate(&cloud_set);
            edge.to_cloud
                .receive_owned(&mut edge.set, &mut edge.server, msg);
        }
    }
    let entries = |set: &CrdtSet| -> Vec<(String, Value)> {
        let rows = set.rows("kv").into_iter();
        rows.map(|(k, v)| (k.to_string(), v.clone())).collect()
    };
    let final_kv = entries(&cloud_set);
    for edge in &edges {
        assert_eq!(entries(&edge.set), final_kv, "replicas must converge");
        assert_eq!(
            edge.set.file("/status.txt"),
            cloud_set.file("/status.txt"),
            "file state must converge"
        );
    }

    let decile = (round_ns.len() / 10).max(1);
    let mean_us = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64 / 1000.0;
    for edge in &edges {
        assert_eq!(edge.set.refused(), 0, "every message was read above an ack");
    }
    assert_eq!(
        cloud_set.refused(),
        0,
        "every message was read above an ack"
    );
    RunStats {
        sync_ns_total: round_ns.iter().map(|n| u128::from(*n)).sum(),
        wire_bytes,
        peak_history,
        final_history: cloud_set.history_len(),
        first_decile_round_us: mean_us(&round_ns[..decile]),
        last_decile_round_us: mean_us(&round_ns[round_ns.len() - decile..]),
    }
}

fn main() {
    let smoke = smoke_flag();
    let (rounds, per_edge) = if smoke { (10, 50) } else { (200, 125) };
    let mutations = rounds * (per_edge + 1) * EDGES;

    let part_a_results = part_a(smoke);
    let b = run(rounds, per_edge);

    let rows = vec![vec![
        format!("{mutations}"),
        format!("{:.1}", b.sync_ns_total as f64 / 1e6),
        format!("{:.0}", b.first_decile_round_us),
        format!("{:.0}", b.last_decile_round_us),
        format!("{}", b.wire_bytes / 1024),
        format!("{}", b.peak_history),
        format!("{}", b.final_history),
    ]];
    print_table(
        &format!("E12b: steady-state sync, 1 cloud + {EDGES} edges, {mutations} mutations"),
        &[
            "mutations",
            "sync cpu ms",
            "round us (first 10%)",
            "round us (last 10%)",
            "wire KB",
            "peak tombstones",
            "final tombstones",
        ],
        &rows,
    );

    let mut report = BenchReport::new("e12_sync_scale", smoke);
    report.section("part_a", serde_json::Value::Array(part_a_results));
    report.section(
        "part_b",
        json!({
            "edges": EDGES,
            "rounds": rounds,
            "mutations": mutations,
            "keyspace": KEYSPACE,
            "sync_cpu_ms": b.sync_ns_total as f64 / 1e6,
            "wire_bytes": b.wire_bytes,
            "peak_resident_tombstones": b.peak_history,
            "final_resident_tombstones": b.final_history,
            "first_decile_round_us": b.first_decile_round_us,
            "last_decile_round_us": b.last_decile_round_us,
        }),
    );
    report.write("BENCH_sync_scale.json");

    println!(
        "\nEach delta is read from the state: the per-actor dot index is walked\n\
         above the peer's clock, so a delta fetch costs O(delta) however many\n\
         keys are live, and per-round sync time stays flat as the deployment\n\
         ages. What compaction keeps bounded is the tombstones of deletes no\n\
         replica still needs; every replica ends with the master's state.\n\
         Results written to BENCH_sync_scale.json."
    );
}
