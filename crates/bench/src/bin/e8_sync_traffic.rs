//! E8 — Fig. 10(a): synchronization WAN traffic per request.
//!
//! "EdgStr minimizes the amount of synchronization traffic over WAN by
//! replicating only the modifiable parts of the replicated service state.
//! … as compared to the cross-ISA systems, EdgStr reduced the
//! synchronization overhead by orders of magnitude."

use edgstr_apps::all_apps;
use edgstr_bench::{kb, print_table, service_workload, transform_app};
use edgstr_net::LinkSpec;
use edgstr_runtime::{ThreeTierOptions, ThreeTierSystem, TwoTierSystem};
use edgstr_sim::DeviceSpec;

const REQUESTS: usize = 20;

fn main() {
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    for app in all_apps() {
        let report = transform_app(&app);
        // the first sampled service that writes state: sync traffic is
        // deltas only (the snapshot every node starts from never crosses
        // the WAN), so a read-only service would measure nothing
        let writes = |r: &&edgstr_net::HttpRequest| {
            report.services.iter().any(|s| {
                (s.verb, &s.path) == (r.verb, &r.path)
                    && s.profile.as_ref().is_some_and(|p| !p.effects.pure)
            })
        };
        let req = app
            .service_requests
            .iter()
            .find(writes)
            .expect("every subject has a writing service");
        let wl = service_workload(req, 5.0, REQUESTS);
        let mut two = TwoTierSystem::new(
            &app.source,
            DeviceSpec::cloud_server(),
            LinkSpec::limited_cloud(),
        )
        .expect("two-tier deploys");
        let s2 = two.run(&wl);
        let wan_o = s2.wan_request_bytes / s2.completed.max(1);
        let mut three = ThreeTierSystem::deploy(
            &app.source,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions::default(),
        )
        .expect("three-tier deploys");
        let s3 = three.run(&wl);
        let wan_e = s3.wan_sync_bytes / s3.completed.max(1);
        let s_app = edgstr_baselines::cross_isa_sync_bytes(&report.replica.init);
        reductions.push(s_app as f64 / wan_e.max(1) as f64);
        rows.push(vec![
            app.name.to_string(),
            kb(wan_o),
            format!("{wan_e} B"),
            kb(s_app),
            format!("{:.0}x", s_app as f64 / wan_e.max(1) as f64),
        ]);
    }
    print_table(
        "E8 / Fig. 10(a): WAN traffic per request (KB)",
        &[
            "app",
            "original WAN_o",
            "EdgStr sync WAN_e",
            "cross-ISA S_app",
            "EdgStr vs cross-ISA",
        ],
        &rows,
    );
    let geo_mean = (reductions.iter().map(|r| r.ln()).sum::<f64>() / reductions.len() as f64).exp();
    println!(
        "\nEdgStr ships {geo_mean:.0}x less sync data than cross-ISA whole-state \
         synchronization (geometric mean) — the paper's \"orders of magnitude\"."
    );
    println!(
        "For data-intensive subjects, WAN_e is also below the original WAN_o, because\n\
         client payloads no longer cross the WAN at all."
    );
}
