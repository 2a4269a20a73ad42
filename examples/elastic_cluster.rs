//! An elastic edge cluster (§IV-D): four Raspberry Pi replicas behind a
//! least-connections balancer, scaling down to one replica as client
//! traffic dissipates, with failure forwarding to the cloud master.
//!
//! Run with: `cargo run --example elastic_cluster`

use edgstr_apps::mnistrest;
use edgstr_bench::{transform_app, unique_variant};
use edgstr_net::HttpRequest;
use edgstr_runtime::{Autoscaler, ThreeTierOptions, ThreeTierSystem, Workload};
use edgstr_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = mnistrest::app();
    let report = transform_app(&app);

    // a day-in-the-life traffic curve: morning ramp, midday peak, evening
    // decay — digit-recognition uploads that each cost real compute
    let templates: Vec<HttpRequest> = (0..6000)
        .map(|i| unique_variant(&app.service_requests[1], 60_000 + i))
        .collect();
    let wl = Workload::phases(
        &templates,
        &[(20.0, 5.0), (250.0, 10.0), (60.0, 10.0), (5.0, 30.0)],
    );
    println!(
        "workload: {} sample uploads over ~55 virtual seconds",
        wl.len()
    );

    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[
            DeviceSpec::rpi4(),
            DeviceSpec::rpi4(),
            DeviceSpec::rpi3(),
            DeviceSpec::rpi3(),
        ],
        ThreeTierOptions {
            autoscaler: Some(Autoscaler {
                target_per_replica: 2,
                min_active: 1,
            }),
            ..Default::default()
        },
    )?;
    let mut stats = sys.run(&wl);

    println!(
        "completed {} requests, median latency {:.1} ms, {} forwarded to cloud",
        stats.completed,
        stats.latency.median().unwrap().as_millis_f64(),
        stats.forwarded
    );
    // show the autoscaler trace, sampled
    println!("\nactive replicas over time:");
    let samples = &stats.replica_samples;
    let step = (samples.len() / 12).max(1);
    for (t, n) in samples.iter().step_by(step) {
        println!(
            "  t={:>6.1}s  {} active  {}",
            t.as_secs_f64(),
            n,
            "#".repeat(*n)
        );
    }
    println!(
        "\nedge energy: {:.1} J across the cluster; cloud stayed the system of record \
         with {} rows",
        stats.edge_energy_j,
        sys.cloud.crdts.tables["samples"].len()
    );

    // now knock out one replica's database and watch failure forwarding
    println!("\ninjecting a database failure into replica 0...");
    sys.edges[0]
        .core
        .server
        .inject_failures(vec!["db.query".to_string()]);
    let tail: Vec<HttpRequest> = (0..10)
        .map(|i| unique_variant(&app.service_requests[1], 90_000 + i))
        .collect();
    // continue on the same virtual timeline as the first run
    let wl = Workload::constant_rate(&tail, 50.0, 10).shifted(stats.makespan);
    let stats = sys.run(&wl);
    println!(
        "completed {} of 10; {} were transparently forwarded to the cloud master",
        stats.completed, stats.forwarded
    );
    Ok(())
}
