//! E11 — fault tolerance: loss-tolerant CRDT sync and degraded-mode
//! forwarding.
//!
//! The paper assumes the WAN between edge and cloud is slow but reliable;
//! real client-edge-cloud deployments see packet loss, link flaps, and
//! partitions. This experiment measures how the ack-driven sync protocol
//! and the retry/backoff/breaker forwarding pipeline hold up:
//!
//! 1. **Loss sweep** (0–30% WAN loss): goodput vs the no-fault baseline,
//!    and sync rounds + virtual time until the cluster reconverges after
//!    the run.
//! 2. **Partition sweep**: a full edge↔cloud partition of growing
//!    duration; reports the divergence-window size (changes queued at the
//!    edge when the partition heals) and the time to reconverge.
//!
//! Everything is driven by a fixed fault seed, so results reproduce
//! exactly. Results land in `BENCH_fault_tolerance.json`.

use edgstr_apps::all_apps;
use edgstr_bench::{print_table, service_workload, smoke_flag, transform_app, BenchReport};
use edgstr_net::{FaultPlan, LossModel};
use edgstr_runtime::{RunStats, ThreeTierOptions, ThreeTierSystem};
use edgstr_sim::{DeviceSpec, SimTime};
use serde_json::json;

const SEED: u64 = 0x0E11_F417;
const RPS: f64 = 10.0;
const MAX_ROUNDS: usize = 200;

fn options(faults: Option<FaultPlan>) -> ThreeTierOptions {
    ThreeTierOptions {
        faults,
        ..Default::default()
    }
}

fn deploy(
    app_source: &str,
    report: &edgstr_core::TransformationReport,
    opts: ThreeTierOptions,
) -> ThreeTierSystem {
    ThreeTierSystem::deploy(
        app_source,
        report,
        &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
        opts,
    )
    .expect("three-tier deploys")
}

fn goodput(stats: &RunStats) -> f64 {
    stats.throughput_rps()
}

fn main() {
    let smoke = smoke_flag();
    let requests: usize = if smoke { 16 } else { 40 };
    let loss_sweep: &[u32] = if smoke {
        &[0, 10, 30]
    } else {
        &[0, 5, 10, 20, 30]
    };
    let partition_sweep: &[u64] = if smoke { &[2, 5] } else { &[2, 5, 10] };

    let apps = all_apps();
    let app = &apps[0];
    let report = transform_app(app);
    let wl = service_workload(&app.service_requests[0], RPS, requests);
    let mut bench = BenchReport::new("e11_fault_tolerance", smoke);

    // --- baseline: no faults -------------------------------------------
    let mut base = deploy(&app.source, &report, options(None));
    let base_stats = base.run(&wl);
    assert!(
        base.converged(),
        "fault-free run must converge at the flush"
    );
    let base_goodput = goodput(&base_stats);

    // --- 1. loss sweep --------------------------------------------------
    let mut rows = Vec::new();
    let mut loss_json = Vec::new();
    for &loss_pct in loss_sweep {
        let p = f64::from(loss_pct) / 100.0;
        let mut faults = FaultPlan::new(SEED);
        faults.set_default_loss(LossModel::bursty(p, 0.5, 3));
        let mut sys = deploy(&app.source, &report, options(Some(faults)));
        let stats = sys.run(&wl);
        let converged = sys.sync_until_converged(stats.makespan, MAX_ROUNDS);
        let (rounds, conv_at) =
            converged.expect("ack-driven sync must reconverge within the round budget");
        let conv_secs = conv_at.since(stats.makespan).as_secs_f64();

        rows.push(vec![
            format!("{loss_pct}%"),
            format!("{}", stats.completed),
            format!("{:.1}", goodput(&stats)),
            format!("{:.0}%", 100.0 * goodput(&stats) / base_goodput),
            format!("{rounds}"),
            format!("{conv_secs:.1}"),
        ]);
        loss_json.push(json!({
            "loss_pct": loss_pct,
            "completed": stats.completed,
            "goodput_rps": goodput(&stats),
            "goodput_vs_baseline": goodput(&stats) / base_goodput,
            "sync_rounds": rounds,
            "converge_secs": conv_secs,
        }));
    }
    print_table(
        &format!("E11a: WAN loss sweep ({}, seed {SEED:#x})", app.name),
        &[
            "loss",
            "completed",
            "goodput rps",
            "vs no-fault",
            "sync rounds",
            "converge s",
        ],
        &rows,
    );

    // --- 2. partition sweep ---------------------------------------------
    let mut rows = Vec::new();
    let mut partition_json = Vec::new();
    for &part_secs in partition_sweep {
        let mut faults = FaultPlan::new(SEED);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(0.5 + part_secs as f64),
        );
        let mut sys = deploy(&app.source, &report, options(Some(faults)));
        let stats = sys.run(&wl);
        // divergence window at the end of the run: how far edge0 and the
        // master drifted apart while the partition held
        let edge_total = sys.edges[0].core.crdts.clock().total();
        let cloud_total = sys.cloud.crdts.clock().total();
        let window = edge_total.abs_diff(cloud_total);
        let heal = SimTime::from_secs_f64(0.5 + part_secs as f64);
        let from = if stats.makespan > heal {
            stats.makespan
        } else {
            heal
        };
        let (rounds, conv_at) = sys
            .sync_until_converged(from, MAX_ROUNDS)
            .expect("cluster must reconverge after the partition heals");
        rows.push(vec![
            format!("{part_secs}s"),
            format!("{}", stats.completed),
            format!("{window}"),
            format!("{rounds}"),
            format!("{:.1}", conv_at.since(heal).as_secs_f64()),
        ]);
        partition_json.push(json!({
            "partition_secs": part_secs,
            "completed": stats.completed,
            "divergence_window_changes": window,
            "sync_rounds": rounds,
            "converge_after_heal_secs": conv_at.since(heal).as_secs_f64(),
        }));
    }
    print_table(
        "E11b: partition sweep (edge0 <-> cloud)",
        &[
            "partition",
            "completed",
            "divergence window (changes)",
            "sync rounds",
            "converge after heal s",
        ],
        &rows,
    );

    bench.section(
        "baseline",
        json!({
            "app": app.name,
            "seed": SEED,
            "requests": requests,
            "rps": RPS,
            "goodput_rps": base_goodput,
        }),
    );
    bench.section("loss_sweep", serde_json::Value::Array(loss_json));
    bench.section("partition_sweep", serde_json::Value::Array(partition_json));
    bench.write("BENCH_fault_tolerance.json");

    println!(
        "\nAck-driven delta sync regenerates every dropped message, so loss and\n\
         partitions only stretch the convergence tail; goodput stays at the\n\
         no-fault baseline because replicated services never block on the WAN.\n\
         Results written to BENCH_fault_tolerance.json."
    );
}
