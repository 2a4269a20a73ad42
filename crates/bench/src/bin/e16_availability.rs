//! E16 — availability: the high-availability tier under process crashes.
//!
//! E11 established that the sync protocol and the forwarding pipeline ride
//! out *message* loss; this experiment kills *processes*. A seeded
//! [`CrashPlan`] takes down edge replicas and the cloud master mid-run,
//! composed with bursty WAN loss:
//!
//! 1. **Availability matrix** (crash profile × loss): each cell runs the
//!    same write workload, converges, and resubmits any writes that died
//!    with a crashed edge incarnation until the id set is complete. The
//!    cell must (a) converge — every replica's replicated-state FNV digest
//!    (tables + globals) equals the master's; (b) end with durable data
//!    bit-identical to the crash-free cell — the table digest matches
//!    across every cell (LWW register globals are deliberately excluded
//!    from the cross-cell check: a register's converged value depends on
//!    which incarnation's last write wins, so only keyed data is
//!    schedule-independent); and (c) pass the zero-acked-write-loss
//!    audit: the final master clock dominates every ack clock
//!    snapshotted at a crash. Reports failover/recovery times and
//!    resubmission cost.
//! 2. **Recovery ablation**: the same master outage under full HA (warm
//!    standby), durable saves only (no standby), and the unsafe ablation
//!    (cold restart, uncapped acks) — the last one demonstrably loses
//!    acked writes, which the audit catches.
//! 3. **Quarantine**: a bit-flipping faulty variant injected on one edge
//!    is caught by digest-compared shadow execution within its mismatch
//!    budget, on clean and 20%-bursty WANs, with zero false quarantines
//!    of healthy replicas in the corruptor-free controls.
//!
//! Everything is seed-driven and reproduces exactly. Results land in
//! `BENCH_availability.json`.

use edgstr_bench::{print_table, smoke_flag, BenchReport};
use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_net::{fnv1a, CrashPlan, FaultPlan, HttpRequest, LossModel, FNV_OFFSET};
use edgstr_runtime::{
    HaPolicy, QuarantinePolicy, ReplicaCore, ThreeTierOptions, ThreeTierSystem, Workload,
};
use edgstr_sim::{DeviceSpec, SimDuration, SimTime};
use serde_json::{json, Value as Json};

const SEED: u64 = 0x0E16_ABA1;
const RPS: f64 = 10.0;
const MAX_ROUNDS: usize = 200;
const MAX_WAVES: usize = 5;

/// The write-heavy subject: unique client-chosen primary keys, so lost
/// writes are detectable (a missing id) and resubmittable without
/// double-counting.
const NOTES_APP: &str = r#"
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

fn transformed() -> TransformationReport {
    let reqs = vec![
        HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
        HttpRequest::get("/count", json!({})),
    ];
    capture_and_transform(NOTES_APP, &reqs, &EdgStrConfig::default())
        .expect("notes app transforms")
        .0
}

fn unique_note(i: usize) -> HttpRequest {
    HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![])
}

/// The `notes` rows a replica serves, as JSON: `pk → {column: value}`,
/// each row named by its key cell.
fn notes_json(core: &ReplicaCore) -> Json {
    let Some(table) = core.server.db.table("notes") else {
        return Json::Object(Default::default());
    };
    let pk = table.pk_index().expect("notes is keyed");
    let rows = table.rows.iter().map(|row| {
        let cells = table.columns.iter().zip(row);
        let cells = cells.map(|(c, v)| (c.name.clone(), v.to_json()));
        (row[pk].key(), Json::Object(cells.collect()))
    });
    Json::Object(rows.collect())
}

/// Bit-level digest of the durable keyed data only — compared *across*
/// cells against the crash-free baseline. The `written` LWW register is
/// excluded: its converged value depends on which incarnation's last
/// write wins MVR resolution, so it is legitimately schedule-dependent,
/// while the keyed table rows are restored bit-identically by
/// resubmission.
fn data_digest(core: &ReplicaCore) -> u64 {
    fnv1a(FNV_OFFSET, notes_json(core).to_string().as_bytes())
}

fn loss_faults(loss_pct: u32) -> Option<FaultPlan> {
    if loss_pct == 0 {
        return None;
    }
    let mut faults = FaultPlan::new(SEED);
    faults.set_default_loss(LossModel::bursty(f64::from(loss_pct) / 100.0, 0.5, 3));
    Some(faults)
}

/// The crash schedule for a named profile over a run of `duration_s`
/// virtual seconds. Same seed → same schedule in every cell.
fn build_plan(profile: &str, duration_s: f64) -> Option<CrashPlan> {
    let dur_ms = |frac: f64| SimDuration::from_millis((duration_s * frac * 1000.0) as u64);
    let at = |frac: f64| SimTime::from_secs_f64(duration_s * frac);
    let mut plan = CrashPlan::new(SEED);
    let edge_crashes = |plan: &mut CrashPlan, mtbf_frac: f64| {
        for i in 0..2 {
            plan.random_crashes(
                &format!("edge{i}"),
                dur_ms(mtbf_frac),
                dur_ms(0.125),
                at(1.0),
            );
        }
    };
    match profile {
        "none" => return None,
        "edge-crashes" => edge_crashes(&mut plan, 1.0 / 3.0),
        "edge-churn" => edge_crashes(&mut plan, 1.0 / 6.0),
        "master-outage" => {
            plan.crash("cloud", at(0.4), at(0.8));
        }
        "master+edges" => {
            plan.crash("cloud", at(0.4), at(0.8));
            edge_crashes(&mut plan, 1.0 / 3.0);
        }
        other => panic!("unknown crash profile {other}"),
    }
    Some(plan)
}

fn options(loss_pct: u32, plan: Option<CrashPlan>, ha: HaPolicy) -> ThreeTierOptions {
    ThreeTierOptions {
        faults: loss_faults(loss_pct),
        crashes: plan,
        ha: Some(ha),
        ..Default::default()
    }
}

fn deploy(report: &TransformationReport, opts: ThreeTierOptions) -> ThreeTierSystem {
    ThreeTierSystem::deploy(
        NOTES_APP,
        report,
        &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
        opts,
    )
    .expect("three-tier deploys")
}

struct CellResult {
    completed: usize,
    rounds: usize,
    waves: usize,
    resubmitted: usize,
    digest: u64,
    edge_crashes: u32,
    master_crashes: u32,
    failovers: u32,
    recovery_ms: f64,
    downtime_ms: f64,
    acked_snapshots: usize,
}

/// Run one availability cell: workload under crashes + loss, converge,
/// resubmit writes that died with crashed edge incarnations until the id
/// set is complete, then audit acked-write durability and digest the
/// converged state.
fn run_cell(report: &TransformationReport, profile: &str, loss_pct: u32, n: usize) -> CellResult {
    let duration_s = n as f64 / RPS;
    let plan = build_plan(profile, duration_s);
    let last_event = plan
        .as_ref()
        .and_then(|p| p.events().last().map(|e| e.at))
        .unwrap_or(SimTime::ZERO);
    let mut sys = deploy(report, options(loss_pct, plan, HaPolicy::default()));
    let reqs: Vec<HttpRequest> = (0..n).map(unique_note).collect();
    let stats = sys.run(&Workload::constant_rate(&reqs, RPS, n));

    // converge past the last scheduled transition (restarts included)
    let from = stats
        .makespan
        .max(last_event + SimDuration::from_millis(1500));
    let (mut rounds, mut conv_at) = sys
        .sync_until_converged(from, MAX_ROUNDS)
        .unwrap_or_else(|| panic!("{profile}/{loss_pct}%: cluster must reconverge"));

    // resubmission waves: an edge crash loses locally-acknowledged writes
    // that had not synced yet; the converged master's id set tells the
    // client exactly which ones to resubmit (same id + text → the final
    // state is bit-identical to the crash-free run's).
    let mut waves = 0;
    let mut resubmitted = 0;
    loop {
        let present: std::collections::BTreeSet<usize> = sys
            .cloud
            .crdts
            .rows("notes")
            .into_iter()
            .filter_map(|(pk, _)| pk.parse().ok())
            .collect();
        let missing: Vec<HttpRequest> = (0..n)
            .filter(|i| !present.contains(i))
            .map(unique_note)
            .collect();
        if missing.is_empty() {
            break;
        }
        assert!(
            waves < MAX_WAVES,
            "{profile}/{loss_pct}%: {} ids still missing after {MAX_WAVES} waves",
            missing.len()
        );
        waves += 1;
        resubmitted += missing.len();
        let count = missing.len();
        let wl = Workload::constant_rate(&missing, RPS, count)
            .shifted(conv_at + SimDuration::from_secs(1));
        let wave_stats = sys.run(&wl);
        let (r, c) = sys
            .sync_until_converged(wave_stats.makespan, MAX_ROUNDS)
            .unwrap_or_else(|| panic!("{profile}/{loss_pct}%: wave {waves} must reconverge"));
        rounds += r;
        conv_at = c;
    }
    // + 1: the profiling warm-up row ships with the init snapshot
    assert_eq!(
        sys.cloud.crdts.rows("notes").len(),
        n + 1,
        "{profile}/{loss_pct}%: converged row count"
    );

    // within-cell convergence: every replica's replicated state (tables +
    // globals) is bit-identical to the master's
    let converged = sys.cloud.replicated_state_digest();
    for (i, e) in sys.edges.iter().enumerate() {
        assert_eq!(
            e.core.replicated_state_digest(),
            converged,
            "{profile}/{loss_pct}%: edge{i} digest diverges from the master"
        );
    }
    let digest = data_digest(&sys.cloud);

    // zero acked-write loss: the final master clock covers every ack
    // clock any replica held at a crash
    let final_clock = sys.cloud.crdts.clock();
    let hs = sys.ha_stats();
    for snap in &hs.acked_snapshots {
        assert!(
            final_clock.dominates(snap),
            "{profile}/{loss_pct}%: acked write lost"
        );
    }

    let recoveries = hs.recovery_times();
    let recovery_ms = if recoveries.is_empty() {
        0.0
    } else {
        recoveries.iter().map(|d| d.0 as f64 / 1000.0).sum::<f64>() / recoveries.len() as f64
    };
    CellResult {
        completed: stats.completed,
        rounds,
        waves,
        resubmitted,
        digest,
        edge_crashes: hs.edge_crashes,
        master_crashes: hs.master_crashes,
        failovers: hs.failovers,
        recovery_ms,
        downtime_ms: hs.master_downtime().0 as f64 / 1000.0,
        acked_snapshots: hs.acked_snapshots.len(),
    }
}

fn main() {
    let smoke = smoke_flag();
    let requests: usize = if smoke { 30 } else { 100 };
    let loss_sweep: &[u32] = if smoke { &[0, 20] } else { &[0, 10, 20] };
    let profiles: &[&str] = if smoke {
        &["none", "edge-crashes", "master-outage", "master+edges"]
    } else {
        &[
            "none",
            "edge-crashes",
            "edge-churn",
            "master-outage",
            "master+edges",
        ]
    };

    let report = transformed();
    let mut bench = BenchReport::new("e16_availability", smoke);
    bench.section(
        "config",
        json!({
            "seed": SEED,
            "requests": requests,
            "rps": RPS,
            "profiles": profiles,
            "loss_sweep_pct": loss_sweep,
        }),
    );

    // --- 1. availability matrix ----------------------------------------
    let mut rows = Vec::new();
    let mut matrix_json = Vec::new();
    let mut baseline_digest: Option<u64> = None;
    for &profile in profiles {
        for &loss_pct in loss_sweep {
            let cell = run_cell(&report, profile, loss_pct, requests);
            let base = *baseline_digest.get_or_insert(cell.digest);
            assert_eq!(
                cell.digest, base,
                "{profile}/{loss_pct}%: converged durable data must be \
                 bit-identical to the crash-free run"
            );
            rows.push(vec![
                profile.to_string(),
                format!("{loss_pct}%"),
                format!("{}", cell.completed),
                format!("{}", cell.edge_crashes),
                format!("{}", cell.master_crashes),
                format!("{}", cell.failovers),
                format!("{:.0}", cell.recovery_ms),
                format!("{:.0}", cell.downtime_ms),
                format!("{}/{}", cell.resubmitted, cell.waves),
                format!("{}", cell.rounds),
                "identical".to_string(),
            ]);
            matrix_json.push(json!({
                "profile": profile,
                "loss_pct": loss_pct,
                "completed": cell.completed,
                "edge_crashes": cell.edge_crashes,
                "master_crashes": cell.master_crashes,
                "failovers": cell.failovers,
                "mean_recovery_ms": cell.recovery_ms,
                "master_downtime_ms": cell.downtime_ms,
                "resubmitted": cell.resubmitted,
                "resubmission_waves": cell.waves,
                "sync_rounds": cell.rounds,
                "acked_snapshots_audited": cell.acked_snapshots,
                "acked_write_loss": 0,
                "data_digest": format!("{:016x}", cell.digest),
            }));
        }
    }
    print_table(
        &format!("E16a: availability matrix (seed {SEED:#x}, {requests} writes)"),
        &[
            "profile",
            "loss",
            "completed",
            "edge crashes",
            "master crashes",
            "failovers",
            "recovery ms",
            "downtime ms",
            "resubmit/waves",
            "sync rounds",
            "digest",
        ],
        &rows,
    );
    bench.section("availability_matrix", serde_json::Value::Array(matrix_json));

    // --- 2. recovery ablation ------------------------------------------
    let variants: &[(&str, HaPolicy)] = &[
        ("warm standby (full HA)", HaPolicy::default()),
        (
            "durable saves only",
            HaPolicy {
                standby: false,
                ..HaPolicy::default()
            },
        ),
        (
            "cold restart, uncapped acks",
            HaPolicy {
                standby: false,
                durable_saves: false,
                ack_capping: false,
                ..HaPolicy::default()
            },
        ),
    ];
    let n = requests.min(60);
    let duration_s = n as f64 / RPS;
    let mut rows = Vec::new();
    let mut ablation_json = Vec::new();
    for (name, ha) in variants {
        let plan = build_plan("master-outage", duration_s);
        let restart_at = plan
            .as_ref()
            .and_then(|p| p.events().last().map(|e| e.at))
            .unwrap_or(SimTime::ZERO);
        let mut sys = deploy(&report, options(10, plan, ha.clone()));
        let reqs: Vec<HttpRequest> = (0..n).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, RPS, n));
        let from = stats
            .makespan
            .max(restart_at + SimDuration::from_millis(1500));
        let outcome = sys.sync_until_converged(from, MAX_ROUNDS);
        let final_clock = sys.cloud.crdts.clock();
        let hs = sys.ha_stats();
        let lost = hs
            .acked_snapshots
            .iter()
            .filter(|s| !final_clock.dominates(s))
            .count();
        let safe = ha.standby || ha.durable_saves;
        if safe {
            assert!(
                outcome.is_some(),
                "{name}: must reconverge after the outage"
            );
            assert_eq!(lost, 0, "{name}: no acked write may be lost");
        } else {
            assert!(
                lost > 0,
                "{name}: the unsafe ablation must demonstrably lose acked writes"
            );
        }
        let recoveries = hs.recovery_times();
        let recovery_ms = recoveries.first().map_or(f64::NAN, |d| d.0 as f64 / 1000.0);
        let outcome_str = match outcome {
            Some((r, _)) => format!("converged in {r} rounds"),
            None => "DIVERGED".to_string(),
        };
        rows.push(vec![
            (*name).to_string(),
            format!("{}", stats.completed),
            format!("{}", hs.failovers),
            format!("{}", hs.durable_recoveries),
            format!("{recovery_ms:.0}"),
            format!("{lost}"),
            outcome_str.clone(),
        ]);
        ablation_json.push(json!({
            "variant": name,
            "completed": stats.completed,
            "failovers": hs.failovers,
            "durable_recoveries": hs.durable_recoveries,
            "recovery_ms": if recovery_ms.is_nan() { json!(null) } else { json!(recovery_ms) },
            "acked_snapshots_lost": lost,
            "outcome": outcome_str,
        }));
    }
    print_table(
        "E16b: recovery ablation (master outage, 10% loss)",
        &[
            "variant",
            "completed",
            "failovers",
            "durable recoveries",
            "recovery ms",
            "acked clocks lost",
            "outcome",
        ],
        &rows,
    );
    bench.section("recovery_ablation", serde_json::Value::Array(ablation_json));

    // --- 3. faulty-replica quarantine ----------------------------------
    let policy = QuarantinePolicy {
        check_fraction: 0.5,
        mismatch_budget: 3,
        seed: SEED,
    };
    let mut rows = Vec::new();
    let mut quarantine_json = Vec::new();
    for &loss_pct in &[0u32, 20] {
        for &faulty in &[true, false] {
            let mut sys = deploy(
                &report,
                ThreeTierOptions {
                    faults: loss_faults(loss_pct),
                    quarantine: Some(policy.clone()),
                    ..Default::default()
                },
            );
            if faulty {
                sys.inject_faulty_variant(0, 0.9, 0xFA17);
            }
            let reqs: Vec<HttpRequest> = (0..requests).map(unique_note).collect();
            sys.run(&Workload::constant_rate(&reqs, RPS, requests));
            let hs = sys.ha_stats();
            assert!(hs.shadow_checks > 0, "shadow checking must sample requests");
            let detect_ms = hs
                .quarantines
                .first()
                .map(|(_, t)| t.since(SimTime::ZERO).0 as f64 / 1000.0);
            if faulty {
                assert!(
                    hs.shadow_mismatches > u64::from(policy.mismatch_budget),
                    "faulty variant must burn through its budget ({loss_pct}% loss)"
                );
                assert!(
                    !hs.quarantines.is_empty() && hs.quarantines.iter().all(|(i, _)| *i == 0),
                    "exactly the faulty replica must be quarantined ({loss_pct}% loss): {:?}",
                    hs.quarantines
                );
                assert_eq!(
                    sys.corrupted_responses(0),
                    0,
                    "the re-provisioned replacement must be healthy"
                );
            } else {
                assert_eq!(
                    hs.shadow_mismatches, 0,
                    "healthy replicas must never mismatch ({loss_pct}% loss)"
                );
                assert!(
                    hs.quarantines.is_empty(),
                    "zero false quarantines required ({loss_pct}% loss)"
                );
            }
            let variant = if faulty {
                "bit-flipping edge0"
            } else {
                "healthy"
            };
            rows.push(vec![
                format!("{loss_pct}%"),
                variant.to_string(),
                format!("{}", hs.shadow_checks),
                format!("{}", hs.shadow_mismatches),
                format!("{}", hs.quarantines.len()),
                detect_ms.map_or("-".to_string(), |ms| format!("{ms:.0}")),
            ]);
            quarantine_json.push(json!({
                "loss_pct": loss_pct,
                "variant": variant,
                "shadow_checks": hs.shadow_checks,
                "shadow_mismatches": hs.shadow_mismatches,
                "quarantines": hs.quarantines.len(),
                "detect_ms": detect_ms,
                "false_quarantines": hs.quarantines.iter().filter(|(i, _)| *i != 0).count(),
            }));
        }
    }
    print_table(
        &format!(
            "E16c: quarantine (check fraction {}, budget {})",
            policy.check_fraction, policy.mismatch_budget
        ),
        &[
            "loss",
            "variant",
            "shadow checks",
            "mismatches",
            "quarantines",
            "detect ms",
        ],
        &rows,
    );
    bench.section("quarantine", serde_json::Value::Array(quarantine_json));

    bench.write("BENCH_availability.json");
    println!(
        "\nEvery crash x loss cell converged (all replicas bit-identical) with\n\
         durable data matching the crash-free run and zero acked-write loss;\n\
         warm-standby failover recovers in the detection delay, durable saves\n\
         recover at process restart, and the uncapped cold-restart ablation\n\
         demonstrably loses acked writes. The bit-flipping variant is\n\
         quarantined within its mismatch budget with zero false quarantines.\n\
         Results written to BENCH_availability.json."
    );
}
