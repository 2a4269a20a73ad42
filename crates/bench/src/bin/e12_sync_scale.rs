//! E12 — sync throughput at scale: the O(delta) replication hot path.
//!
//! The paper's sync daemon ships deltas every interval for the lifetime of
//! a deployment, so the cost of *computing* a delta must not grow with the
//! lifetime. This experiment quantifies the two halves of that guarantee:
//!
//! 1. **Delta-fetch scaling** (part A): `get_changes` against a document
//!    with 1k/10k/100k changes of history and a ≤100-change delta — the
//!    per-actor indexed log versus the pre-PR linear scan over the full
//!    retained history (emulated over the flattened change log, which is
//!    exactly the filter the old implementation ran).
//! 2. **Steady-state cluster** (part B): one cloud master + 4 edge
//!    replicas pushing 100k+ mutations through the runtime sync path.
//!    Per-round sync CPU time, wire bytes, and resident history are
//!    reported for the indexed + acked-prefix-compacted implementation
//!    against the pre-PR emulation (linear-scan generate, no compaction).
//!
//! The two modes exchange byte-identical deltas — this PR changes cost,
//! not semantics — which the harness asserts. Results land in
//! `BENCH_sync_scale.json`.

use edgstr_analysis::{HandleOutcome, InitState, ServerProcess, StateUnit};
use edgstr_bench::{print_table, smoke_flag, BenchReport};
use edgstr_core::CrdtBindings;
use edgstr_crdt::{ActorId, Doc, VClock, Value};
use edgstr_net::HttpResponse;
use edgstr_runtime::{CrdtSet, SetSyncMessage, SyncEndpoint};
use edgstr_sql::{RowEffect, SqlValue};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

const EDGES: usize = 4;
/// Distinct primary keys: steady-state overwrites, so the table stays
/// small while the change history (absent compaction) grows unbounded.
const KEYSPACE: usize = 512;
const DELTA: u64 = 100;

/// Best-of-batches timing for two alternatives. Within a batch the two
/// sides alternate call by call, each accumulating its own clock, so any
/// load or frequency drift lands on both sides equally; one warmup batch
/// is discarded and each side's fastest batch average is reported — a
/// noise floor rather than a load-sensitive mean.
fn time_pair_ns<A, B, F: FnMut() -> A, G: FnMut() -> B>(
    batches: u32,
    reps: u32,
    mut f: F,
    mut g: G,
) -> (u64, u64) {
    let mut best_f = u64::MAX;
    let mut best_g = u64::MAX;
    for batch in 0..=batches {
        let mut ns_f = 0u128;
        let mut ns_g = 0u128;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(f());
            ns_f += t.elapsed().as_nanos();
            let t = Instant::now();
            std::hint::black_box(g());
            ns_g += t.elapsed().as_nanos();
        }
        if batch > 0 {
            best_f = best_f.min((ns_f / u128::from(reps.max(1))) as u64);
            best_g = best_g.min((ns_g / u128::from(reps.max(1))) as u64);
        }
    }
    (best_f, best_g)
}

// ---------------------------------------------------------------------------
// Part A: delta-fetch scaling
// ---------------------------------------------------------------------------

/// A doc with `n` changes of history whose last [`DELTA`] sit above
/// `since`.
fn delta_fixture(n: u64) -> (Doc, VClock) {
    let mut doc = Doc::new(ActorId(1));
    for i in 0..n - DELTA {
        doc.put(&format!("k{}", i % 64), Value::Json(json!(i)));
    }
    let since = doc.clock().clone();
    for i in 0..DELTA {
        doc.put(&format!("d{}", i % 16), Value::Json(json!(i)));
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
        let flat = doc.get_changes(&VClock::new());
        assert_eq!(flat.len() as u64, n);
        assert_eq!(doc.get_changes(&since).len() as u64, DELTA);
        let (indexed_ns, scan_ns) = time_pair_ns(
            batches,
            reps,
            || doc.get_changes(&since),
            || {
                flat.iter()
                    .filter(|ch| ch.seq() > since.get(ch.actor()))
                    .cloned()
                    .collect::<Vec<_>>()
            },
        );
        let speedup = scan_ns as f64 / indexed_ns.max(1) as f64;
        assert!(
            speedup >= 1.0,
            "indexed get_changes must not lose to the linear scan at history={n} \
             (measured {speedup:.2}x)"
        );
        rows.push(vec![
            format!("{n}"),
            format!("{DELTA}"),
            format!("{indexed_ns}"),
            format!("{scan_ns}"),
            format!("{speedup:.1}x"),
        ]);
        out.push(json!({
            "history": n,
            "delta": DELTA,
            "indexed_ns": indexed_ns,
            "linear_scan_ns": scan_ns,
            "speedup": speedup,
        }));
    }
    print_table(
        "E12a: get_changes at history size N, 100-change delta",
        &[
            "history",
            "delta",
            "indexed ns",
            "linear scan ns",
            "speedup",
        ],
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

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// This PR: indexed log + acked-prefix compaction each round.
    IndexedCompacted,
    /// Pre-PR emulation: every generate linear-scans the full retained
    /// history, and nothing is ever compacted.
    LegacyScan,
}

/// The pre-PR `generate`: flatten the entire retained history, then
/// filter by the peer's clock — O(lifetime) per message.
fn legacy_generate(set: &CrdtSet, peer: &VClock) -> SetSyncMessage {
    let full = set.get_changes(&VClock::new());
    SetSyncMessage {
        sender: set.actor(),
        ack: set.clock().clone(),
        changes: full
            .into_iter()
            .filter(|c| c.seq() > peer.get(c.actor()))
            .collect(),
    }
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

struct ModeStats {
    sync_ns_total: u128,
    wire_bytes: usize,
    peak_history: usize,
    final_history: usize,
    first_decile_round_us: f64,
    last_decile_round_us: f64,
    final_kv: Vec<(String, Value)>,
}

fn run_mode(mode: Mode, rounds: usize, per_edge: usize) -> ModeStats {
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
            if round % 10 == 0 {
                let status = format!("r{round}e{e}").into_bytes();
                let write = outcome(Vec::new(), vec![("/status.txt".to_string(), status)]);
                edge.set.absorb_outcome(&write, &edge.server);
            }
        }
        // one bidirectional sync round, timed
        let t0 = Instant::now();
        for (i, edge) in edges.iter_mut().enumerate() {
            let msg = match mode {
                Mode::IndexedCompacted => edge.to_cloud.generate(&edge.set),
                Mode::LegacyScan => legacy_generate(&edge.set, &edge.to_cloud.peer_clock),
            };
            if !msg.changes.is_empty() {
                wire_bytes += msg.wire_size();
            }
            cloud_eps[i].receive_owned(&mut cloud_set, &mut cloud_server, msg);
            let msg = match mode {
                Mode::IndexedCompacted => cloud_eps[i].generate(&cloud_set),
                Mode::LegacyScan => legacy_generate(&cloud_set, &cloud_eps[i].peer_clock),
            };
            if !msg.changes.is_empty() {
                wire_bytes += msg.wire_size();
            }
            edge.to_cloud
                .receive_owned(&mut edge.set, &mut edge.server, msg);
        }
        if mode == Mode::IndexedCompacted {
            let mut frontier = cloud_eps[0].peer_clock.clone();
            for ep in &cloud_eps[1..] {
                frontier = frontier.meet(&ep.peer_clock);
            }
            cloud_set.compact(&frontier);
            for edge in edges.iter_mut() {
                edge.set.compact(&edge.to_cloud.peer_clock);
            }
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
    ModeStats {
        sync_ns_total: round_ns.iter().map(|n| u128::from(*n)).sum(),
        wire_bytes,
        peak_history,
        final_history: cloud_set.history_len(),
        first_decile_round_us: mean_us(&round_ns[..decile]),
        last_decile_round_us: mean_us(&round_ns[round_ns.len() - decile..]),
        final_kv,
    }
}

fn mode_json(label: &str, s: &ModeStats) -> serde_json::Value {
    json!({
        "mode": label,
        "sync_cpu_ms": s.sync_ns_total as f64 / 1e6,
        "wire_bytes": s.wire_bytes,
        "peak_resident_history": s.peak_history,
        "final_resident_history": s.final_history,
        "first_decile_round_us": s.first_decile_round_us,
        "last_decile_round_us": s.last_decile_round_us,
    })
}

fn main() {
    let smoke = smoke_flag();
    let (rounds, per_edge) = if smoke { (10, 50) } else { (200, 125) };
    let mutations = rounds * per_edge * EDGES;

    let part_a_results = part_a(smoke);

    let indexed = run_mode(Mode::IndexedCompacted, rounds, per_edge);
    let legacy = run_mode(Mode::LegacyScan, rounds, per_edge);

    // same workload, same protocol, same deltas: cost changed, not
    // semantics
    assert_eq!(
        indexed.wire_bytes, legacy.wire_bytes,
        "both modes must ship byte-identical deltas"
    );
    assert_eq!(
        indexed.final_kv, legacy.final_kv,
        "both modes must converge to the same table"
    );
    assert!(
        indexed.peak_history * 4 < legacy.peak_history,
        "compaction must bound resident history: {} vs {}",
        indexed.peak_history,
        legacy.peak_history
    );

    let rows = vec![
        vec![
            "indexed+compacted".to_string(),
            format!("{mutations}"),
            format!("{:.1}", indexed.sync_ns_total as f64 / 1e6),
            format!("{:.0}", indexed.first_decile_round_us),
            format!("{:.0}", indexed.last_decile_round_us),
            format!("{}", indexed.wire_bytes / 1024),
            format!("{}", indexed.peak_history),
            format!("{}", indexed.final_history),
        ],
        vec![
            "pre-PR (scan, no compaction)".to_string(),
            format!("{mutations}"),
            format!("{:.1}", legacy.sync_ns_total as f64 / 1e6),
            format!("{:.0}", legacy.first_decile_round_us),
            format!("{:.0}", legacy.last_decile_round_us),
            format!("{}", legacy.wire_bytes / 1024),
            format!("{}", legacy.peak_history),
            format!("{}", legacy.final_history),
        ],
    ];
    print_table(
        &format!("E12b: steady-state sync, 1 cloud + {EDGES} edges, {mutations} mutations"),
        &[
            "mode",
            "mutations",
            "sync cpu ms",
            "round us (first 10%)",
            "round us (last 10%)",
            "wire KB",
            "peak resident",
            "final resident",
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
            "modes": [
                mode_json("indexed_compacted", &indexed),
                mode_json("pre_pr_emulation", &legacy),
            ],
        }),
    );
    report.write("BENCH_sync_scale.json");

    println!(
        "\nThe per-actor indexed log makes each delta fetch O(delta): per-round\n\
         sync time stays flat as history grows, where the pre-PR linear scan\n\
         climbs with every mutation ever applied. Acked-prefix compaction\n\
         folds the fully-acknowledged prefix into the snapshot each round, so\n\
         resident history tracks the sync lag instead of the deployment\n\
         lifetime. Both modes ship byte-identical deltas and converge to the\n\
         same state — the PR changes cost, not semantics.\n\
         Results written to BENCH_sync_scale.json."
    );
}
