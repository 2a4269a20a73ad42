//! One seeded bookworm stream through the whole three-tier path, pinned
//! to the numbers the run produced at commit da72a1c, before responses
//! became shared, memoised values: the response digest (every served byte, in order),
//! the LAN and sync byte counts (every size), the makespan (every
//! virtual time) and the cache's hit/fill/invalidation sequence. A
//! refactor of how sizes, texts or digests are computed must leave all
//! of them exactly here.
//!
//! Two more cells, pinned at commit 2fd2206 before the serve pipeline
//! moved into one `ReplicaCore`: the forwarding / failover / quarantine
//! paths of the virtual-time driver, and the threaded executor.
//!
//! Pinned at commit 0529a6f, before the sync wire went binary: the
//! converged replicated state of every node in the two virtual-time
//! cells. The wire format may move exactly four constants in this file —
//! the `wan_sync_bytes` of the virtual-time cells — and
//! nothing else: sync bytes occupy no simulated link, so no virtual time
//! depends on them. The other places a sync byte count reaches are not
//! pinned constants: `tests/three_tier.rs` compares two runs' bytes with
//! each other, `crates/placement/tests/placement_prop.rs` feeds the
//! controller synthetic byte counts, `crates/telemetry/tests/shard_merge.rs`
//! only names the `edgstr_sync_bytes` counter, and the E1 / E4 / E8 / E12 /
//! E18 binaries print theirs (EXPERIMENTS.md).
//!
//! The three virtual-time `response_digest` constants are the chain over
//! each response's remembered digest. Commit c06e2cb carried that chain
//! beside the one it replaced (status + full text re-hashed on every
//! completion), pinned both on the code of 73f3c67 — text chain
//! `0xcc5810c5dbdd4b32`, `0xac7c69a068d2806e`, `0x1f9639bdac514807` as
//! since da72a1c / 2fd2206 — and the response encoder was rebuilt with
//! both green before the text chain was deleted. The threaded executor
//! always used the folded definition; its constant did not move.
//!
//! Pinned at commit f73649d, before the control planes (HA, quarantine,
//! forwarding, placement) left `system.rs`: the elastic cell — autoscaler
//! parking and unparking, the adaptive controller demoting and promoting
//! across a load burst, both transition barriers held open by a lossy
//! WAN — and, for it and both failover cells, a hash of the recorded
//! trace. The trace export orders records by virtual time and then by
//! recording order, and span ids are handed out in recording order, so
//! the hash holds the emission order of every span and event: the thing
//! moving code between modules can change while every count stays put.
//!
//! Re-pinned from commit dc21a12 when cache validity went per column
//! (DESIGN.md §9): a `/search` entry, which reads `id` and `title`, now
//! outlives a `PUT /stock`, and a write of a cell as it was invalidates
//! nothing. Hits rose in the first cell (526 → 535) and in the threaded
//! cell (504 → 508); responses, bytes, times and states there did not
//! move. A hit finishes sooner than the execution it replaces, so in the
//! two failover cells and the elastic cell least-connections routing
//! picked other edges, the injected faulty variant and the shadow check
//! drew on other responses, and concurrent `PUT /stock`s met in another
//! order: their digests, byte counts and traces moved with the schedule.
//! With every column stamp widened to all columns and an unchanged write
//! bumping as before, all four cells give the constants of dc21a12 bit
//! for bit, and under `CachePolicy::Off` every cell does.
//!
//! Pinned at commit d703120, before a row crossed the CRDT as typed cells
//! instead of a JSON object of its columns: every node's typed state —
//! its bound tables' rows as the SQL engine holds them (`Debug` tells
//! `INT 3` from `REAL 3.0` and `TEXT` from `BLOB`), its bound files'
//! bytes and its bound globals' JSON — in the three virtual-time cells
//! that replicate. `through_json` keeps what the JSON row path did to a
//! cell, as the oracle: no converged cell of these runs is one it would
//! have read back as another kind.
//!
//! Re-pinned when a replicated unit became one map of key → register
//! (ROADMAP item 13): a row write is one op carrying typed cells, so every
//! sync message is shorter. The four `wan_sync_bytes` moved (157,981 →
//! 102,291; 286,096 → 190,446; 275,411 → 183,984; 680,033 → 442,993), and
//! with them the three trace hashes: the parent's and the change's traces
//! differ line for line only in the `bytes` attribute of `sync.round`
//! spans. Every digest, typed state, count and virtual time held.
//!
//! Pinned at commit bed9823, before a replica's tables, files and globals
//! went from one `Doc` each to one `Doc` for all: every node's resident
//! change count after the run, in the four virtual-time cells. A change
//! is one local write however the log is keyed, so these hold.
//!
//! Re-pinned when that happened: every op's key carries its unit's tag,
//! and a change's sequence number and dependencies count the writes to
//! every unit, while a message carries one clock where it carried one per
//! unit. The four `wan_sync_bytes` moved (102,291 → 104,799; 190,446 →
//! 196,688; 183,984 → 189,120; 442,993 → 453,337), and with them the
//! three trace hashes: the parent's and the change's traces differ line
//! for line only in the `bytes` attribute of `sync.round` spans. Every
//! digest, typed state, resident change count and virtual time held.
//!
//! Re-pinned when a change's dependencies left out the genesis actor's
//! entry, which every replica holds from the shared snapshot, and the
//! author's own, which the gapless sequence check implies. The four
//! `wan_sync_bytes` fell (104,799 → 98,091; 196,688 → 185,104; 189,120 →
//! 176,382; 453,337 → 423,939). Every digest, typed state, resident change
//! count, placement decision and virtual time held.
//! With them the three trace hashes moved: the parent's and the change's
//! traces differ line for line only in the `bytes` attribute of
//! `sync.round` spans.
//!
//! Re-pinned when `replicated_state_digest` went from hashing each
//! table's JSON text to hashing its typed cells, each with its kind: the
//! five state digests moved. Every typed state, response digest, count,
//! byte, trace hash and virtual time held, so the replicas hold what they
//! held; only the function reading it changed.
//!
//! Re-pinned when sync came to read each delta from stamped state (ROADMAP
//! item 14): a message carries each key's current slot once, where it
//! carried every change to it, and no change log is kept. The four
//! `wan_sync_bytes` fell (98,091 → 51,580; 185,104 → 93,984; 176,382 →
//! 104,636; 423,939 → 206,979), and the resident count is now of
//! tombstones, of which these runs leave none (94, 24, 93 and 630 resident
//! changes before). The three trace hashes moved with them: the parent's
//! and the change's traces differ only in the `bytes` attribute of
//! `sync.round` spans and in the `crdt.compact` events, which are emitted
//! only when something was dropped (7, 4 and 8 of them before, none now).
//! Every digest, typed state, cache count, HA count, placement decision
//! and virtual time held.

use edgstr_core::{capture_and_transform, EdgStrConfig};
use edgstr_net::{fnv1a, CrashPlan, FaultPlan, HttpRequest, LossModel, Verb, FNV_OFFSET};
use edgstr_runtime::{
    Autoscaler, CachePolicy, CacheStats, HaPolicy, ParallelOptions, ParallelSystem, Placement,
    PlacementMode, PlacementPolicy, PlacementScript, QuarantinePolicy, ReplicaCore, RunStats,
    ScriptedDecision, ThreeTierOptions, ThreeTierSystem, TimedRequest, Workload,
};
use edgstr_sim::{DetRng, DeviceSpec, SimDuration, SimTime};
use edgstr_sql::SqlValue;
use edgstr_telemetry::Telemetry;
use serde_json::{json, Value as Json};

/// A cell as it read back when a row crossed the CRDT as a JSON object:
/// `SqlValue::to_json`, then the JSON-to-SQL conversion that path used.
fn through_json(v: &SqlValue) -> SqlValue {
    match v.to_json() {
        Json::Null => SqlValue::Null,
        Json::Bool(b) => SqlValue::Int(i64::from(b)),
        Json::Number(n) => match n.as_i64() {
            Some(i) => SqlValue::Int(i),
            None => SqlValue::Real(n.as_f64().unwrap_or(0.0)),
        },
        Json::String(s) => SqlValue::Text(s),
        other => SqlValue::Text(other.to_string()),
    }
}

/// FNV-1a over what `core`'s server holds of its replicated units, typed:
/// per bound table its rows as the SQL engine keeps them, per bound file
/// its bytes, per bound global its JSON. Asserts on the way that no
/// converged cell is one the JSON row path would have retyped.
fn typed_state(core: &ReplicaCore) -> u64 {
    let (bindings, server) = (&core.crdts.bindings, &core.server);
    let mut h = FNV_OFFSET;
    for t in &bindings.tables {
        h = fnv1a(h, t.as_bytes());
        if let Some(table) = server.db.table(t) {
            for cell in table.rows.iter().flatten() {
                assert!(through_json(cell).identical(cell), "{t}: {cell:?}");
            }
            h = fnv1a(h, format!("{:?}", table.rows).as_bytes());
        }
    }
    for f in &bindings.files {
        h = fnv1a(h, f.as_bytes());
        h = fnv1a(h, server.fs.peek(f).unwrap_or(&[]));
    }
    for g in &bindings.globals {
        h = fnv1a(h, g.as_bytes());
        let v = server.global_json(g).map(|v| v.unwrap().to_string());
        h = fnv1a(h, v.unwrap_or_default().as_bytes());
    }
    h
}

/// [`typed_state`] of the master and of each edge.
fn typed_states(sys: &ThreeTierSystem) -> [u64; 4] {
    [
        typed_state(&sys.cloud),
        typed_state(&sys.edges[0].core),
        typed_state(&sys.edges[1].core),
        typed_state(&sys.edges[2].core),
    ]
}

/// Every node's resident tombstone count after the run, master first:
/// the deletes compaction has not yet dropped. No node refused a message:
/// every message the protocol produced was read above an ack its receiver
/// covers, and merged whole.
fn histories(sys: &ThreeTierSystem) -> [usize; 4] {
    let nodes = [
        &sys.cloud,
        &sys.edges[0].core,
        &sys.edges[1].core,
        &sys.edges[2].core,
    ];
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.crdts.refused(), 0, "node {i} refused a message");
    }
    nodes.map(|node| node.crdts.history_len())
}

/// Reads dominate and repeat (so the cache fills, hits, and is invalidated
/// by the interleaved writes); `/books` is the list-shaped body whose
/// size, text and digest are asked for most often.
fn stream(seed: u64, n: usize) -> Workload {
    stream_every(seed, n, 2_500)
}

fn stream_every(seed: u64, n: usize, gap_us: u64) -> Workload {
    let mut rng = DetRng::new(seed);
    let mut next_id = 1_000i64;
    let requests = (0..n)
        .map(|i| {
            let request = match rng.below(20) {
                0..=1 => HttpRequest::get("/books", json!({})),
                2..=11 => HttpRequest::get("/book", json!({"id": 1 + rng.below(12)})),
                12..=13 => {
                    let q = ["an", "Du", "e"][i % 3];
                    HttpRequest::get("/search", json!({ "q": q }))
                }
                14 => HttpRequest::get("/recommend", json!({"budget": 8 + rng.below(6)})),
                15..=17 => {
                    next_id += 1;
                    HttpRequest::post(
                        "/books",
                        json!({
                            "id": next_id,
                            "title": format!("Tome \"{next_id}\" ✓"),
                            "author": "Egan",
                            "price": 5.0 + rng.below(900) as f64 / 64.0,
                        }),
                        vec![],
                    )
                }
                _ => HttpRequest {
                    verb: Verb::Put,
                    path: "/stock".to_string(),
                    params: json!({"id": 1 + rng.below(5), "qty": rng.below(40)}),
                    body: vec![],
                },
            };
            TimedRequest {
                at: SimTime(i as u64 * gap_us),
                request,
            }
        })
        .collect();
    Workload { requests }
}

#[test]
fn seeded_bookworm_run_matches_pinned_stats() {
    let app = edgstr_apps::bookworm::app();
    let (report, _) =
        capture_and_transform(&app.source, &app.service_requests, &EdgStrConfig::default())
            .unwrap();
    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[DeviceSpec::rpi4(), DeviceSpec::rpi4(), DeviceSpec::rpi4()],
        ThreeTierOptions {
            cache: CachePolicy::All,
            ..Default::default()
        },
    )
    .unwrap();
    let stats = sys.run(&stream(0x5EED, 1_200));
    assert!(sys.converged());
    let mut cache = CacheStats::default();
    for e in &sys.edges {
        cache.absorb(e.core.cache.stats());
    }
    assert_eq!(stats.completed, 1_200);
    assert_eq!((stats.failed, stats.forwarded), (0, 0));
    assert_eq!(stats.response_digest, 0x6d1c_e0a9_6847_598c);
    assert_eq!(stats.lan_bytes, 956_935);
    assert_eq!(stats.wan_sync_bytes, 51_580, "wire-format dependent");
    assert_eq!(stats.makespan, SimTime(3_001_568));
    assert_eq!(sys.cloud.replicated_state_digest(), 0x489e_fcb5_4140_d8a5);
    for e in &sys.edges {
        assert_eq!(e.core.replicated_state_digest(), 0x489e_fcb5_4140_d8a5);
    }
    assert_eq!(typed_states(&sys), [0xaa85_7d22_670d_135e; 4]);
    assert_eq!(histories(&sys), [0, 0, 0, 0]);
    assert_eq!(
        cache,
        CacheStats {
            hits: 535,
            misses: 665,
            evictions: 0,
            invalidations: 294,
        }
    );
}

/// Everything the failover cell pins, in one comparable value.
#[derive(Debug, PartialEq)]
struct FailoverPin {
    response_digest: u64,
    /// completed, failed, forwarded, retries, timed_out, degraded
    counts: [usize; 6],
    lan_bytes: usize,
    wan_request_bytes: usize,
    /// The one wire-format dependent field.
    wan_sync_bytes: usize,
    makespan: SimTime,
    /// Replicated state of the master and of each edge, reconverged.
    state_digests: [u64; 4],
    /// The same nodes' [`typed_state`].
    typed_states: [u64; 4],
    /// The same nodes' resident change counts ([`histories`]).
    histories: [usize; 4],
    cache: CacheStats,
    /// edge_crashes, edge_restarts, master_crashes, failovers,
    /// durable_recoveries
    ha: [u32; 5],
    shadow_checks: u64,
    shadow_mismatches: u64,
    quarantines: Vec<(usize, SimTime)>,
    outages: Vec<(SimTime, SimTime)>,
}

/// The paths the cell above never reaches (`forwarded == 0` there): from
/// the first sync tick `/search` (cacheable) and `PUT /stock` (a write)
/// are cloud-pinned and `/recommend` is cache-only, so requests forward
/// over a lossy WAN to a master that caches, absorbs and ships forwarded
/// writes to its failover target; the master crashes once and comes back,
/// one edge crashes and rejoins, and one edge serves through an injected
/// faulty variant until the shadow check quarantines it.
fn failover_run(standby: bool, telemetry: &Telemetry) -> FailoverPin {
    let app = edgstr_apps::bookworm::app();
    let (report, _) =
        capture_and_transform(&app.source, &app.service_requests, &EdgStrConfig::default())
            .unwrap();
    let decide = |verb, path: &str, to| ScriptedDecision {
        at: SimTime(1),
        service: (verb, path.to_string()),
        to,
    };
    let mut faults = FaultPlan::new(0xFA17);
    faults.set_default_loss(LossModel::uniform(0.10));
    let mut crashes = CrashPlan::new(3);
    crashes.crash(
        "cloud",
        SimTime::from_secs_f64(3.2),
        SimTime::from_secs_f64(6.0),
    );
    crashes.crash(
        "edge1",
        SimTime::from_secs_f64(4.1),
        SimTime::from_secs_f64(5.3),
    );
    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[DeviceSpec::rpi4(), DeviceSpec::rpi4(), DeviceSpec::rpi4()],
        ThreeTierOptions {
            cache: CachePolicy::All,
            faults: Some(faults),
            crashes: Some(crashes),
            ha: Some(HaPolicy {
                standby,
                ..HaPolicy::default()
            }),
            quarantine: Some(QuarantinePolicy {
                check_fraction: 0.5,
                mismatch_budget: 2,
                seed: 0x51A5,
            }),
            placement: PlacementMode::Scripted(PlacementScript {
                pinned: None,
                decisions: vec![
                    decide(Verb::Get, "/search", Placement::CloudPin),
                    decide(Verb::Put, "/stock", Placement::CloudPin),
                    decide(Verb::Get, "/recommend", Placement::EdgeCacheOnly),
                ],
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    sys.inject_faulty_variant(2, 0.5, 0xBAD);
    let stats: RunStats = sys.run(&stream_every(0x5EED, 1_600, 5_000));
    sys.sync_until_converged(stats.makespan + SimDuration::from_secs(2), 40)
        .expect("the cluster reconverges after the outages");
    let ha = sys.ha_stats();
    FailoverPin {
        response_digest: stats.response_digest,
        counts: [
            stats.completed,
            stats.failed,
            stats.forwarded,
            stats.retries,
            stats.timed_out,
            stats.degraded,
        ],
        lan_bytes: stats.lan_bytes,
        wan_request_bytes: stats.wan_request_bytes,
        wan_sync_bytes: stats.wan_sync_bytes,
        makespan: stats.makespan,
        state_digests: [
            sys.cloud.replicated_state_digest(),
            sys.edges[0].core.replicated_state_digest(),
            sys.edges[1].core.replicated_state_digest(),
            sys.edges[2].core.replicated_state_digest(),
        ],
        typed_states: typed_states(&sys),
        histories: histories(&sys),
        cache: sys.cache_stats(),
        ha: [
            ha.edge_crashes,
            ha.edge_restarts,
            ha.master_crashes,
            ha.failovers,
            ha.durable_recoveries,
        ],
        shadow_checks: ha.shadow_checks,
        shadow_mismatches: ha.shadow_mismatches,
        quarantines: ha.quarantines.clone(),
        outages: ha.outages.clone(),
    }
}

/// Run `cell` with telemetry off and again recording: both runs must give
/// `pin`, and the recorded trace must hash to `trace_hash` (not checked
/// when the `enabled` feature is off and nothing is recorded).
fn assert_pinned<P: std::fmt::Debug + PartialEq>(
    cell: impl Fn(&Telemetry) -> P,
    pin: P,
    trace_hash: u64,
) {
    assert_eq!(cell(&Telemetry::disabled()), pin);
    let telemetry = Telemetry::recording();
    assert_eq!(cell(&telemetry), pin, "recording must not move the run");
    let trace = telemetry.export_trace_jsonl();
    if !trace.is_empty() {
        assert_eq!(
            fnv1a(FNV_OFFSET, trace.as_bytes()),
            trace_hash,
            "{} trace lines",
            trace.lines().count()
        );
    }
}

#[test]
fn forwarding_failover_and_quarantine_match_pinned_stats() {
    // warm standby: the master dies at 3.2 s, the standby is promoted
    // 500 ms later, and retries ride the outage out
    assert_pinned(
        |t| failover_run(true, t),
        FailoverPin {
            response_digest: 0x7161_ae6b_ef3a_97a7,
            counts: [1_600, 0, 305, 87, 0, 0],
            lan_bytes: 1_739_638,
            wan_request_bytes: 273_086,
            wan_sync_bytes: 93_984,
            makespan: SimTime(9_042_300),
            state_digests: [0xb7c2_21c8_6314_d2d8; 4],
            typed_states: [0xe4c1_d83d_5b13_9faf; 4],
            histories: [0, 0, 0, 0],
            cache: CacheStats {
                hits: 824,
                misses: 829,
                evictions: 0,
                invalidations: 319,
            },
            ha: [1, 2, 1, 1, 0],
            shadow_checks: 298,
            shadow_mismatches: 3,
            quarantines: vec![(2, SimTime(3_568_418))],
            outages: vec![(SimTime(3_200_000), SimTime(3_700_000))],
        },
        0x316f_2d73_efa4_df0f,
    );
    // no standby: forwards time out and breakers open until the master
    // recovers from its durable image at 6 s; the edge whose restart came
    // due meanwhile rejoins then
    assert_pinned(
        |t| failover_run(false, t),
        FailoverPin {
            response_digest: 0xd356_522c_7f50_b80e,
            counts: [1_372, 228, 308, 49, 9, 885],
            lan_bytes: 1_486_872,
            wan_request_bytes: 53_192,
            wan_sync_bytes: 104_636,
            makespan: SimTime(9_112_675),
            state_digests: [0x0d90_e3ca_8c21_0fb3; 4],
            typed_states: [0x7201_be16_e248_9ec5; 4],
            histories: [0, 0, 0, 0],
            cache: CacheStats {
                hits: 778,
                misses: 651,
                evictions: 0,
                invalidations: 197,
            },
            ha: [1, 2, 1, 0, 1],
            shadow_checks: 280,
            shadow_mismatches: 3,
            quarantines: vec![(2, SimTime(3_568_418))],
            outages: vec![(SimTime(3_200_000), SimTime(6_000_000))],
        },
        0x3844_2036_e9cd_4808,
    );
}

/// Everything the elastic cell pins, in one comparable value.
#[derive(Debug, PartialEq)]
struct ElasticPin {
    response_digest: u64,
    /// completed, failed, forwarded, retries, timed_out, degraded
    counts: [usize; 6],
    lan_bytes: usize,
    wan_request_bytes: usize,
    wan_sync_bytes: usize,
    makespan: SimTime,
    /// One autoscaler sample per arrival.
    replica_samples: usize,
    /// The samples at which the active replica count changed.
    replica_changes: Vec<(SimTime, usize)>,
    /// Replicated state of the master and of each edge, reconverged.
    state_digests: [u64; 4],
    /// The same nodes' [`typed_state`].
    typed_states: [u64; 4],
    /// The same nodes' resident change counts ([`histories`]).
    histories: [usize; 4],
    /// (decided at, service, to), in decision order.
    decided: Vec<(SimTime, String, &'static str)>,
    /// (service, from, to, decided at, completed at, reason), in
    /// completion order.
    transitions: Vec<Transition>,
    promotes: u32,
    demotes: u32,
    /// Acked prefixes snapshotted by the placement and the HA audits.
    acked_snapshots: [usize; 2],
}

type Transition = (String, &'static str, &'static str, SimTime, SimTime, String);

/// The planes the two cells above leave idle, together: a slow phase the
/// autoscaler parks two replicas under, a burst that wakes them and drives
/// offered edge utilization over the controller's ceiling — every service
/// busy enough to have an opinion demotes — and a slow phase again, where
/// they promote back. The WAN loses 30% of its messages, so the demotions
/// wait a round on their `CloudDominates` barriers, the promotions wait
/// for the final flush on `EdgesDominate`, and forwards retry.
fn elastic_run(telemetry: &Telemetry) -> ElasticPin {
    let app = edgstr_apps::bookworm::app();
    let (report, _) =
        capture_and_transform(&app.source, &app.service_requests, &EdgStrConfig::default())
            .unwrap();
    let mut faults = FaultPlan::new(0xE1A5);
    faults.set_default_loss(LossModel::uniform(0.30));
    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[DeviceSpec::rpi4(), DeviceSpec::rpi4(), DeviceSpec::rpi4()],
        ThreeTierOptions {
            cache: CachePolicy::All,
            autoscaler: Some(Autoscaler::default()),
            faults: Some(faults),
            placement: PlacementMode::Adaptive(PlacementPolicy {
                min_requests: 4,
                confirm_windows: 1,
                cooldown: SimDuration::from_secs(1),
                max_utilization: 0.001,
                ..PlacementPolicy::default()
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let mut workload = stream_every(0x5EED, 2_400, 0);
    let mut arrivals = workload.requests.iter_mut();
    let mut at = 0;
    for (count, gap_us) in [(300, 10_000), (1_800, 400), (300, 10_000)] {
        for tr in arrivals.by_ref().take(count) {
            tr.at = SimTime(at);
            at += gap_us;
        }
    }
    let stats: RunStats = sys.run(&workload);
    sys.sync_until_converged(stats.makespan + SimDuration::from_secs(2), 40)
        .expect("the cluster converges once the stream ends");
    let label = |(verb, path): &(Verb, String)| format!("{verb} {path}");
    let ps = sys.placement_stats();
    let mut replica_changes: Vec<(SimTime, usize)> = Vec::new();
    for &(at, active) in &stats.replica_samples {
        if replica_changes.last().is_none_or(|&(_, n)| n != active) {
            replica_changes.push((at, active));
        }
    }
    ElasticPin {
        response_digest: stats.response_digest,
        counts: [
            stats.completed,
            stats.failed,
            stats.forwarded,
            stats.retries,
            stats.timed_out,
            stats.degraded,
        ],
        lan_bytes: stats.lan_bytes,
        wan_request_bytes: stats.wan_request_bytes,
        wan_sync_bytes: stats.wan_sync_bytes,
        makespan: stats.makespan,
        replica_samples: stats.replica_samples.len(),
        replica_changes,
        state_digests: [
            sys.cloud.replicated_state_digest(),
            sys.edges[0].core.replicated_state_digest(),
            sys.edges[1].core.replicated_state_digest(),
            sys.edges[2].core.replicated_state_digest(),
        ],
        typed_states: typed_states(&sys),
        histories: histories(&sys),
        decided: ps
            .decided
            .iter()
            .map(|d| (d.at, label(&d.service), d.to.as_str()))
            .collect(),
        transitions: ps
            .transitions
            .iter()
            .map(|t| {
                (
                    label(&t.service),
                    t.from.as_str(),
                    t.to.as_str(),
                    t.decided_at,
                    t.completed_at,
                    t.reason.clone(),
                )
            })
            .collect(),
        promotes: ps.promotes,
        demotes: ps.demotes,
        acked_snapshots: [
            ps.acked_snapshots.len(),
            sys.ha_stats().acked_snapshots.len(),
        ],
    }
}

#[test]
fn autoscaling_and_adaptive_placement_match_pinned_stats() {
    let demoted = |service: &str| -> Transition {
        (
            service.to_string(),
            "edge_replicate",
            "cloud_pin",
            SimTime(4_000_000),
            SimTime(5_000_000),
            "edge_overload".to_string(),
        )
    };
    let promoted = |service: &str, reason: &str| -> Transition {
        (
            service.to_string(),
            "cloud_pin",
            "edge_replicate",
            SimTime(5_000_000),
            SimTime(20_100_190),
            reason.to_string(),
        )
    };
    let services = ["GET /books", "GET /search", "POST /books", "PUT /stock"];
    let decided = |at, to| services.map(|s| (SimTime(at), s.to_string(), to));
    assert_pinned(
        elastic_run,
        ElasticPin {
            response_digest: 0x71f7_a2aa_b36f_0db3,
            counts: [2_397, 3, 80, 56, 3, 0],
            lan_bytes: 2_640_397,
            wan_request_bytes: 770_140,
            wan_sync_bytes: 206_979,
            makespan: SimTime(19_100_190),
            replica_samples: 2_400,
            replica_changes: vec![
                (SimTime(0), 1),
                (SimTime(3_002_000), 2),
                (SimTime(3_003_600), 3),
                (SimTime(3_730_000), 1),
                (SimTime(5_060_000), 2),
                (SimTime(5_110_000), 3),
            ],
            state_digests: [0xeba9_ad11_b448_3968; 4],
            typed_states: [0xb254_44b8_220d_d22c; 4],
            histories: [0, 0, 0, 0],
            decided: [
                decided(4_000_000, "cloud_pin"),
                decided(5_000_000, "edge_replicate"),
            ]
            .concat(),
            transitions: vec![
                demoted("GET /books"),
                demoted("GET /search"),
                demoted("POST /books"),
                demoted("PUT /stock"),
                promoted("GET /books", "read_heavy"),
                promoted("GET /search", "read_heavy"),
                promoted("POST /books", "write_heavy"),
                promoted("PUT /stock", "write_heavy"),
            ],
            promotes: 4,
            demotes: 4,
            acked_snapshots: [24, 0],
        },
        0x7d8a_cbf3_b2c2_3086,
    );
}

/// The threaded executor on the stream of the first cell. The
/// differential suite compares N threads against one thread, so a change
/// that moved both would pass it; these constants do not move.
#[test]
fn parallel_bookworm_run_matches_pinned_stats() {
    let app = edgstr_apps::bookworm::app();
    let (report, _) =
        capture_and_transform(&app.source, &app.service_requests, &EdgStrConfig::default())
            .unwrap();
    let requests: Vec<HttpRequest> = stream(0x5EED, 1_200)
        .requests
        .into_iter()
        .map(|tr| tr.request)
        .collect();
    for workers in [1, 2] {
        let run = ParallelSystem::new(
            &app.source,
            &report,
            ParallelOptions {
                replicas: 4,
                workers,
                cache: CachePolicy::All,
                ..ParallelOptions::default()
            },
        )
        .run(&requests);
        assert!(run.converged, "{workers} workers");
        assert_eq!((run.completed, run.failed), (1_200, 0), "{workers} workers");
        assert_eq!(run.response_digest, 0x8b7c_c817_1d0b_6f27);
        assert_eq!(run.state_digest, 0x75cf_8b31_e0c3_35a7);
        assert_eq!(run.delta_messages, 76);
        assert_eq!(
            run.cache,
            CacheStats {
                hits: 508,
                misses: 692,
                evictions: 0,
                invalidations: 289,
            }
        );
    }
}
