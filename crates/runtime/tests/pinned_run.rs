//! One seeded bookworm stream through the whole three-tier path, pinned
//! to the numbers the run produced at commit da72a1c, before responses
//! became shared, memoised values: the response digest (every served byte, in order),
//! the LAN and sync byte counts (every size), the makespan (every
//! virtual time) and the cache's hit/fill/invalidation sequence. A
//! refactor of how sizes, texts or digests are computed must leave all
//! of them exactly here.

use edgstr_core::{capture_and_transform, EdgStrConfig};
use edgstr_net::{HttpRequest, Verb};
use edgstr_runtime::{
    CachePolicy, CacheStats, ThreeTierOptions, ThreeTierSystem, TimedRequest, Workload,
};
use edgstr_sim::{DetRng, DeviceSpec, SimTime};
use serde_json::json;

/// Reads dominate and repeat (so the cache fills, hits, and is invalidated
/// by the interleaved writes); `/books` is the list-shaped body whose
/// size, text and digest are asked for most often.
fn stream(seed: u64, n: usize) -> Workload {
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
                at: SimTime(i as u64 * 2_500),
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
        cache.absorb(e.cache.stats());
    }
    assert_eq!(stats.completed, 1_200);
    assert_eq!((stats.failed, stats.forwarded), (0, 0));
    assert_eq!(stats.response_digest, 0xcc58_10c5_dbdd_4b32);
    assert_eq!(stats.lan_bytes, 956_935);
    assert_eq!(stats.wan_sync_bytes, 734_629);
    assert_eq!(stats.makespan, SimTime(3_001_568));
    assert_eq!(
        cache,
        CacheStats {
            hits: 526,
            misses: 674,
            evictions: 0,
            invalidations: 303,
        }
    );
}
