//! Property test for mid-run tier-placement transitions under failure:
//! a demote-then-promote round trip composed with a lossy WAN fault plan
//! never loses a write the client saw acknowledged.
//!
//! The transition machinery snapshots every live edge's acked prefix at
//! each completed flip ([`edgstr_runtime::PlacementStats::acked_snapshots`]);
//! after the cluster converges, the master clock must dominate every
//! snapshot, and the master table must hold one row per acknowledged
//! insert — whatever the loss rate, seed, or flip timing.

use edgstr_core::{capture_and_transform, EdgStrConfig};
use edgstr_net::{FaultPlan, HttpRequest, LossModel, Verb};
use edgstr_runtime::{
    Placement, PlacementMode, PlacementScript, ScriptedDecision, ThreeTierOptions, ThreeTierSystem,
    Workload,
};
use edgstr_sim::{DeviceSpec, SimTime};
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

fn report() -> edgstr_core::TransformationReport {
    let reqs = vec![
        HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
        HttpRequest::get("/count", json!({})),
    ];
    capture_and_transform(APP, &reqs, &EdgStrConfig::default())
        .unwrap()
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn placement_round_trip_never_loses_acked_writes(
        loss_pct in 0u64..35,
        seed in any::<u64>(),
        demote_s in 1u64..3,
        promote_gap_s in 1u64..3,
    ) {
        let loss = loss_pct as f64 / 100.0;
        let report = report();
        let mut faults = FaultPlan::new(seed);
        faults.set_default_loss(LossModel::uniform(loss));
        let key = (Verb::Post, "/note".to_string());
        let script = PlacementScript {
            pinned: None,
            decisions: vec![
                ScriptedDecision {
                    at: SimTime(demote_s * 1_000_000),
                    service: key.clone(),
                    to: Placement::CloudPin,
                },
                ScriptedDecision {
                    at: SimTime((demote_s + promote_gap_s) * 1_000_000),
                    service: key.clone(),
                    to: Placement::EdgeReplicate,
                },
            ],
        };
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                faults: Some(faults),
                placement: PlacementMode::Scripted(script),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..60)
            .map(|i| HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![]))
            .collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 60);
        let stats = sys.run(&wl);
        // under loss some cloud-pinned forwards may exhaust their retries;
        // only acknowledged completions are owed durability
        prop_assert_eq!(stats.completed + stats.failed, 60);
        prop_assert!(
            sys.sync_until_converged(stats.makespan, 400).is_some(),
            "lossy cluster must still converge"
        );
        let master = sys.cloud.crdts.clock();
        for snap in &sys.placement_stats().acked_snapshots {
            prop_assert!(
                master.dominates(snap),
                "acked write lost across a placement flip (loss {loss:.2}, seed {seed})"
            );
        }
        // one row per acknowledged insert, plus the capture warm-up row
        prop_assert_eq!(
            sys.cloud.crdts.tables["notes"].len(),
            stats.completed + 1,
            "master must hold exactly one row per acknowledged insert"
        );
    }
}
