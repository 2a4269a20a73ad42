//! Failover on the shipped high-availability plane: a cloud master with a
//! warm standby, serving two edges over a lossy WAN, never loses an
//! acknowledged write across master crashes, because the acknowledgment
//! each edge receives is capped at what the failover target provably holds
//! (the durability frontier, `HaPlane::durability_clock`).
//!
//! Every case deploys a [`ThreeTierSystem`] under `HaPolicy::default()`
//! with a generated cloud [`CrashPlan`] and a generated WAN-loss
//! [`FaultPlan`], serves unique-key writes through the outages, heals with
//! `sync_until_converged`, and audits the result: clocks, replicated
//! state, typed rows, and every acknowledgment an edge held at a crash.

use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_net::{CrashPlan, FaultPlan, HttpRequest, LossModel};
use edgstr_runtime::{HaPolicy, ThreeTierOptions, ThreeTierSystem, Workload};
use edgstr_sim::{DeviceSpec, SimDuration, SimTime};
use edgstr_sql::SqlValue;
use proptest::prelude::*;
use serde_json::json;

const APP: &str = r#"
    db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
    var written = 0;
    app.post("/note", function (req, res) {
        written = written + 1;
        db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
        res.send({ n: written });
    });
    app.get("/count", function (req, res) {
        var rows = db.query("SELECT COUNT(*) FROM notes");
        res.send(rows[0]);
    });
"#;

const RPS: f64 = 10.0;
const MAX_ROUNDS: usize = 200;

thread_local! {
    /// One transformation per test thread (a report holds script values,
    /// which stay on the thread that built them).
    static REPORT: TransformationReport = {
        let reqs = [note(900), HttpRequest::get("/count", json!({}))];
        capture_and_transform(APP, &reqs, &EdgStrConfig::default())
            .unwrap()
            .0
    };
}

fn note(id: usize) -> HttpRequest {
    HttpRequest::post("/note", json!({"id": id, "text": format!("t{id}")}), vec![])
}

/// Serve `writes` unique-key notes at [`RPS`] on two edges under `ha`,
/// `crashes` and `faults`, sync on through the last crash event and the
/// promotion it triggers, then until the cluster converges. Returns the
/// system and whether it converged.
fn serve_and_heal(
    ha: HaPolicy,
    crashes: CrashPlan,
    faults: Option<FaultPlan>,
    writes: usize,
) -> (ThreeTierSystem, bool) {
    let settled = crashes.events().last().map_or(SimTime::ZERO, |e| e.at)
        + ha.detect_delay
        + SimDuration::from_secs(1);
    let options = ThreeTierOptions {
        crashes: Some(crashes),
        faults,
        ha: Some(ha),
        ..Default::default()
    };
    let edges = [DeviceSpec::rpi4(), DeviceSpec::rpi3()];
    let deployed = REPORT.with(|report| ThreeTierSystem::deploy(APP, report, &edges, options));
    let mut sys = deployed.unwrap();
    let reqs: Vec<HttpRequest> = (0..writes).map(note).collect();
    let mut at = sys
        .run(&Workload::constant_rate(&reqs, RPS, writes))
        .makespan;
    // keep syncing through every crash event that falls after the workload
    while at < settled {
        at += sys.options.sync_interval;
        sys.sync_round(at);
    }
    let converged = sys.sync_until_converged(at, MAX_ROUNDS).is_some();
    (sys, converged)
}

/// How many of the `writes` served notes the master's table holds.
fn notes_on_master(sys: &ThreeTierSystem, writes: usize) -> usize {
    let rows = &sys.cloud.server.db.table("notes").unwrap().rows;
    let served = |row: &&Vec<SqlValue>| matches!(row[0], SqlValue::Int(id) if id < writes as i64);
    rows.iter().filter(served).count()
}

/// Acknowledgment clocks snapshotted at a crash that the final master's
/// clock does not cover: acknowledged writes the cluster lost.
fn lost_acks(sys: &ThreeTierSystem) -> usize {
    let master = sys.cloud.crdts.clock();
    let acked = &sys.ha_stats().acked_snapshots;
    acked.iter().filter(|s| !master.dominates(s)).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated master outages (each a gap, then a downtime that may end
    /// before or after the standby's promotion) under generated bursty WAN
    /// loss: the cluster reconverges on the surviving master, every replica
    /// holds the same replicated state and rows and buffers no change for
    /// a missing dependency, and nothing any edge was told was
    /// acknowledged is missing from the final master.
    #[test]
    fn failover_converges_and_never_loses_acked_writes(
        outages in prop::collection::vec((300u64..2_500, 100u64..3_000), 1..3),
        crash_seed in any::<u64>(),
        loss_pct in 0u64..31,
        loss_seed in any::<u64>(),
        writes in 15usize..45,
    ) {
        let mut crashes = CrashPlan::new(crash_seed);
        let mut t = SimTime::ZERO;
        for (gap_ms, down_ms) in &outages {
            t += SimDuration::from_millis(*gap_ms);
            crashes.crash("cloud", t, t + SimDuration::from_millis(*down_ms));
            t += SimDuration::from_millis(*down_ms);
        }
        let faults = (loss_pct > 0).then(|| {
            let mut plan = FaultPlan::new(loss_seed);
            plan.set_default_loss(LossModel::bursty(loss_pct as f64 / 100.0, 0.5, 3));
            plan
        });
        let (sys, converged) = serve_and_heal(HaPolicy::default(), crashes, faults, writes);
        prop_assert!(converged, "the cluster must reconverge on the surviving master");
        let hs = sys.ha_stats();
        prop_assert!(hs.master_crashes >= 1);
        prop_assert!(!hs.acked_snapshots.is_empty());

        let master = sys.cloud.crdts.clock();
        let digest = sys.cloud.replicated_state_digest();
        prop_assert_eq!(sys.cloud.crdts.refused(), 0, "the master refused a message");
        for (i, e) in sys.edges.iter().enumerate() {
            prop_assert_eq!(e.core.crdts.refused(), 0, "edge {} refused a message", i);
            let clock = e.core.crdts.clock();
            prop_assert!(
                clock.dominates(master) && master.dominates(clock),
                "edge {} and the master hold different clocks", i
            );
            prop_assert_eq!(e.core.replicated_state_digest(), digest, "edge {}", i);
            for table in &sys.cloud.crdts.bindings.tables {
                prop_assert_eq!(
                    &e.core.server.db.table(table).unwrap().rows,
                    &sys.cloud.server.db.table(table).unwrap().rows,
                    "edge {} rows of {}", i, table
                );
            }
        }
        prop_assert_eq!(lost_acks(&sys), 0, "acked writes lost");
        prop_assert_eq!(notes_on_master(&sys, writes), writes);
    }
}

/// Deterministic mechanism check on one master outage, between two sync
/// rounds: the round before the crash acknowledged the edges' latest writes
/// while the standby still lacked them (the standby catches up at the start
/// of the next round). Uncapped, the edges take that acknowledgment at its
/// word, fold the writes and never resend them, so the surviving master
/// never obtains them: with a warm standby whose acks are not capped, and
/// with E16b's cold restart from the init snapshot. Capped at the standby's
/// clock — the default policy — nothing acknowledged is lost.
#[test]
fn ack_capping_is_what_prevents_acked_write_loss() {
    let writes = 40;
    let run = |ha: HaPolicy| {
        let mut crashes = CrashPlan::new(9);
        crashes.crash(
            "cloud",
            SimTime::from_secs_f64(2.5),
            SimTime::from_secs_f64(5.0),
        );
        let (sys, converged) = serve_and_heal(ha, crashes, None, writes);
        let state = (lost_acks(&sys), notes_on_master(&sys, writes), converged);
        (state, sys)
    };

    let ((lost, rows, converged), sys) = run(HaPolicy::default());
    assert_eq!(lost, 0, "capped acks lose nothing");
    assert!(converged);
    assert_eq!(rows, writes, "every write reaches the master");
    // the master's typed rows and the `written` global, pinned at commit
    // d703120 (rows crossing the CRDT as JSON objects); the digest was
    // re-pinned when it went from JSON text to typed cells
    let typed = format!(
        "{:?}|{:?}",
        sys.cloud.server.db.table("notes").unwrap().rows,
        sys.cloud.server.global_json("written").map(Result::unwrap)
    );
    assert_eq!(
        (
            edgstr_net::fnv1a(edgstr_net::FNV_OFFSET, typed.as_bytes()),
            sys.cloud.replicated_state_digest()
        ),
        (0x88dd_e90f_ab33_b743, 0xf4a8_cd2d_c3f1_7bed)
    );

    let uncapped = [
        HaPolicy {
            ack_capping: false,
            ..HaPolicy::default()
        },
        HaPolicy {
            standby: false,
            durable_saves: false,
            ack_capping: false,
            ..HaPolicy::default()
        },
    ];
    for ha in uncapped {
        let ((lost, rows, converged), _) = run(ha.clone());
        assert!(lost > 0, "{ha:?}: an acked write must be demonstrably lost");
        assert!(
            rows < writes,
            "{ha:?}: {rows} of {writes} writes on the master"
        );
        assert!(
            !converged,
            "{ha:?}: the edges hold writes the master never gets"
        );
    }
}
