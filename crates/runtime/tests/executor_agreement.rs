//! The virtual-time driver and the threaded executor serve through one
//! pipeline ([`edgstr_runtime::ReplicaCore::serve`]): the same
//! all-replicated stream through one edge of each leaves the same cache
//! history and the same replicated state behind. A serve path forked off
//! the core again — a fill gate, a version bump or a revert done
//! differently in one driver — shows up here.

use edgstr_core::{capture_and_transform, EdgStrConfig};
use edgstr_net::{HttpRequest, Verb};
use edgstr_runtime::{
    CachePolicy, ParallelOptions, ParallelSystem, ThreeTierOptions, ThreeTierSystem, TimedRequest,
    Workload,
};
use edgstr_sim::{DetRng, DeviceSpec, SimTime};
use serde_json::json;

/// Repeating reads, inserts and stock updates over the bookworm catalog.
/// Every request succeeds where it lands, so the virtual-time edge never
/// forwards one to a cloud the threaded edge does not have.
fn stream(seed: u64, n: usize) -> Vec<HttpRequest> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|i| match rng.below(10) {
            0 => HttpRequest::get("/books", json!({})),
            1..=4 => HttpRequest::get("/book", json!({"id": 1 + rng.below(8)})),
            5 => {
                let q = ["an", "Du"][rng.below(2) as usize];
                HttpRequest::get("/search", json!({ "q": q }))
            }
            6 => HttpRequest::get("/recommend", json!({"budget": 8 + rng.below(4)})),
            7..=8 => {
                let id = 100 + i;
                HttpRequest::post(
                    "/books",
                    json!({"id": id, "title": format!("Tome {id}"), "author": "Egan", "price": 9.5}),
                    vec![],
                )
            }
            _ => HttpRequest {
                verb: Verb::Put,
                path: "/stock".to_string(),
                params: json!({"id": 1 + rng.below(5), "qty": rng.below(40)}),
                body: vec![],
            },
        })
        .collect()
}

#[test]
fn one_edge_of_each_executor_agrees_on_cache_history_and_replicated_state() {
    let app = edgstr_apps::bookworm::app();
    let (report, _) =
        capture_and_transform(&app.source, &app.service_requests, &EdgStrConfig::default())
            .unwrap();
    let requests = stream(0xA6EE, 600);

    let threaded = ParallelSystem::new(
        &app.source,
        &report,
        ParallelOptions {
            replicas: 1,
            workers: 1,
            cache: CachePolicy::All,
            ..ParallelOptions::default()
        },
    )
    .run(&requests);
    assert!(threaded.converged);
    assert!(threaded.cache.hits > 0 && threaded.cache.invalidations > 0);

    let mut sys = ThreeTierSystem::deploy(
        &app.source,
        &report,
        &[DeviceSpec::rpi4()],
        ThreeTierOptions {
            cache: CachePolicy::All,
            ..Default::default()
        },
    )
    .unwrap();
    let stats = sys.run(&Workload {
        requests: requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| TimedRequest {
                at: SimTime(i as u64 * 2_500),
                request,
            })
            .collect(),
    });
    assert!(sys.converged());
    assert_eq!(
        (stats.completed, stats.failed, stats.forwarded),
        (600, 0, 0)
    );
    assert_eq!((threaded.completed, threaded.failed), (600, 0));
    let edge = &sys.edges[0].core;
    assert_eq!(edge.cache.stats(), &threaded.cache);
    assert_eq!(edge.replicated_state_digest(), threaded.state_digest);
    assert_eq!(sys.cloud.replicated_state_digest(), threaded.state_digest);
}
