//! The paper's motivating scenario end-to-end (Fig. 1): a mission-critical
//! object-detection app whose cloud deployment suffers on a degraded WAN,
//! fixed by EdgStr's automatic client-edge-cloud transformation.
//!
//! Run with: `cargo run --example objdet_edge`

use edgstr_apps::fobojet;
use edgstr_bench::transform_app;
use edgstr_net::LinkSpec;
use edgstr_runtime::{ThreeTierOptions, ThreeTierSystem, TwoTierSystem, Workload};
use edgstr_sim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = fobojet::app();
    let predict = app.service_requests[0].clone();
    let wl = Workload::constant_rate(std::slice::from_ref(&predict), 2.0, 20);

    println!("camera images are ~{} KB each\n", predict.size() / 1024);

    // the mission-critical app on three WAN conditions, original two-tier
    for (label, wan) in [
        ("same-continent cloud", LinkSpec::wan_same_continent()),
        ("cross-continent cloud", LinkSpec::wan_cross_continent()),
        ("congested cloud (limited)", LinkSpec::limited_cloud()),
    ] {
        let mut sys = TwoTierSystem::new(&app.source, DeviceSpec::cloud_server(), wan)?;
        let mut stats = sys.run(&wl);
        println!(
            "two-tier, {label:26} median latency {:>9.1} ms",
            stats.latency.median().unwrap().as_millis_f64()
        );
    }

    // EdgStr transforms the app once; the replica runs on a Raspberry Pi
    // in the camera's own network
    println!("\napplying EdgStr...");
    let report = transform_app(&app);
    println!(
        "  {} services analyzed, {} replicated; CRDT bindings: {}",
        report.services.len(),
        report.replicated_count(),
        report.replica.bindings
    );
    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[DeviceSpec::rpi4()],
        ThreeTierOptions {
            wan: LinkSpec::wan_cross_continent(),
            ..Default::default()
        },
    )?;
    let mut stats = sys.run(&wl);
    println!(
        "\nthree-tier (RPI-4 at the edge)   median latency {:>9.1} ms",
        stats.latency.median().unwrap().as_millis_f64()
    );
    println!(
        "  WAN traffic: {} bytes of requests, {} bytes of CRDT sync",
        stats.wan_request_bytes, stats.wan_sync_bytes
    );
    println!(
        "  detections recorded at the cloud master: {}",
        sys.cloud.crdts.tables["history"].len()
    );
    println!("\nthe image payloads never cross the WAN; only CRDT deltas do.");
    Ok(())
}
