//! Whole-app differential tests: every subject app must behave
//! *identically* under the compiled VM and the tree-walking reference
//! interpreter — responses, status codes, virtual cycles, row effects,
//! file writes, global writes, full execution traces (the profiler's
//! input), console logs, and final state.
//!
//! This is the guarantee that lets the rest of the stack (profiler,
//! fuzzer, datalog slicer, transformation) run unchanged on the compiled
//! engine.

use edgstr_analysis::trace::Tracer;
use edgstr_analysis::{ExecMode, InitState, ServerProcess};
use edgstr_apps::all_apps;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CachePolicy, ThreeTierOptions, ThreeTierSystem, Workload};
use edgstr_sim::DeviceSpec;
use serde_json::Value as Json;

struct EngineRun {
    init_trace: edgstr_analysis::ExecutionTrace,
    init_cycles: u64,
    /// Per request: Ok((status, body, cycles, global_writes, row_effects,
    /// file_writes, trace)) or the error string.
    requests: Vec<Result<RequestObservation, String>>,
    final_globals: Json,
    final_db: Json,
    logs: Vec<String>,
}

#[derive(Debug, PartialEq)]
struct RequestObservation {
    status: u16,
    body: Json,
    cycles: u64,
    global_writes: Vec<String>,
    row_effects: Vec<edgstr_sql::RowEffect>,
    file_writes: Vec<(String, Vec<u8>)>,
    trace: edgstr_analysis::ExecutionTrace,
}

fn run_app(source: &str, requests: &[HttpRequest], mode: ExecMode) -> EngineRun {
    let mut server = ServerProcess::from_source_with_mode(source, mode).unwrap();
    let mut init_tracer = Tracer::new();
    server.init_traced(&mut init_tracer).unwrap();
    let init_cycles = server.init_cycles();
    let mut observations = Vec::with_capacity(requests.len());
    for req in requests {
        let mut tracer = Tracer::new();
        let obs = server
            .handle_traced(req, &mut tracer)
            .map(|out| RequestObservation {
                status: out.response.status,
                body: out.response.body.into_json(),
                cycles: out.cycles,
                global_writes: out.global_writes,
                row_effects: out.row_effects,
                file_writes: out.file_writes,
                trace: tracer.into_trace(),
            })
            .map_err(|e| e.to_string());
        observations.push(obs);
    }
    let state = InitState::capture(&server);
    EngineRun {
        init_trace: init_tracer.into_trace(),
        init_cycles,
        requests: observations,
        final_globals: state.globals_json(),
        final_db: state.db_json(),
        logs: server.logs().to_vec(),
    }
}

#[test]
fn all_apps_identical_across_engines() {
    for app in all_apps() {
        let mut requests = app.service_requests.clone();
        requests.extend(app.regression_requests.iter().cloned());
        let compiled = run_app(&app.source, &requests, ExecMode::Compiled);
        let tree = run_app(&app.source, &requests, ExecMode::TreeWalking);

        assert_eq!(
            compiled.init_trace, tree.init_trace,
            "{}: init traces diverge",
            app.name
        );
        assert_eq!(
            compiled.init_cycles, tree.init_cycles,
            "{}: init cycles diverge",
            app.name
        );
        assert_eq!(
            compiled.requests.len(),
            tree.requests.len(),
            "{}: request counts diverge",
            app.name
        );
        for (i, (c, t)) in compiled.requests.iter().zip(&tree.requests).enumerate() {
            let req = &requests[i];
            assert_eq!(
                c, t,
                "{}: {} {} (request {i}) diverges between engines",
                app.name, req.verb, req.path
            );
        }
        assert_eq!(
            compiled.final_globals, tree.final_globals,
            "{}: final globals diverge",
            app.name
        );
        assert_eq!(
            compiled.final_db, tree.final_db,
            "{}: final database state diverges",
            app.name
        );
        assert_eq!(
            compiled.logs, tree.logs,
            "{}: console logs diverge",
            app.name
        );
    }
}

/// Every subject app served through the full three-tier deployment must
/// produce bit-identical responses with the edge response cache on
/// (`CachePolicy::All`) and off — the cache may only change timing, never
/// content. Each request runs twice so repeated reads can actually hit.
#[test]
fn cache_policy_all_is_bit_identical_for_every_app() {
    let mut total_hits = 0u64;
    for app in all_apps() {
        let report = edgstr_bench::transform_app(&app);
        let mut requests = app.service_requests.clone();
        requests.extend(app.regression_requests.iter().cloned());
        let doubled: Vec<HttpRequest> = requests.iter().chain(requests.iter()).cloned().collect();
        let wl = Workload::constant_rate(&doubled, 50.0, doubled.len());
        let run = |policy: CachePolicy| {
            let mut sys = ThreeTierSystem::deploy(
                &app.source,
                &report,
                &[DeviceSpec::rpi4()],
                ThreeTierOptions {
                    cache: policy,
                    ..ThreeTierOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", app.name));
            let stats = sys.run(&wl);
            (stats, sys.cache_stats())
        };
        let (off, off_cs) = run(CachePolicy::Off);
        let (all, all_cs) = run(CachePolicy::All);
        assert_eq!(
            off_cs.hits + off_cs.misses,
            0,
            "{}: CachePolicy::Off must not touch caches",
            app.name
        );
        assert_eq!(
            off.completed, all.completed,
            "{}: cache changes completion count",
            app.name
        );
        assert_eq!(
            off.response_digest, all.response_digest,
            "{}: cached responses diverge from uncached execution",
            app.name
        );
        total_hits += all_cs.hits;
    }
    assert!(
        total_hits > 0,
        "at least one app's repeated reads must be served from cache"
    );
}

/// Parallel-executor differential property: random request schedules
/// executed on 1 vs N worker threads produce identical per-request
/// response digests, and every replica plus the cloud master converge to
/// a replicated state identical to the single-threaded reference.
///
/// Schedules are drawn from a seeded RNG (several seeds, several apps),
/// mixing reads and writes over the app's replicated services with
/// skewed repetition so the cache participates too.
#[test]
fn parallel_executor_matches_single_threaded_reference() {
    use edgstr_runtime::{ParallelOptions, ParallelSystem};
    use edgstr_sim::DetRng;

    let mut apps_checked = 0usize;
    for app in all_apps() {
        let report = edgstr_bench::transform_app(&app);
        // replicated service templates, reads and writes
        let replicated: Vec<HttpRequest> = report
            .services
            .iter()
            .filter(|s| s.replicated)
            .filter_map(|s| {
                app.service_requests
                    .iter()
                    .find(|r| r.verb == s.verb && r.path == s.path)
                    .cloned()
            })
            .collect();
        if replicated.is_empty() {
            continue;
        }
        apps_checked += 1;
        for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
            let mut rng = DetRng::new(seed);
            let requests: Vec<HttpRequest> = (0..96i64)
                .map(|i| {
                    let template = &replicated[rng.next_u64() as usize % replicated.len()];
                    if rng.next_u64().is_multiple_of(4) {
                        // fresh variant: unique params exercise writes and
                        // distinct cache keys
                        edgstr_bench::unique_variant(template, 10_000 + i)
                    } else {
                        // repeated variant: a small pool so reads repeat
                        // and the cache can hit
                        edgstr_bench::unique_variant(template, (rng.next_u64() % 7) as i64)
                    }
                })
                .collect();
            let opts = |workers: usize| ParallelOptions {
                replicas: 4,
                workers,
                sync_batch: 3,
                cache: CachePolicy::All,
                ..ParallelOptions::default()
            };
            let reference = ParallelSystem::new(&app.source, &report, opts(1)).run(&requests);
            assert!(
                reference.converged,
                "{} (seed {seed:#x}): reference run did not converge",
                app.name
            );
            for workers in [2, 3, 4] {
                let run = ParallelSystem::new(&app.source, &report, opts(workers)).run(&requests);
                assert_eq!(
                    run.per_request_digests, reference.per_request_digests,
                    "{} (seed {seed:#x}): {workers}-thread per-request responses \
                     diverge from the single-threaded reference",
                    app.name
                );
                assert_eq!(
                    run.response_digest, reference.response_digest,
                    "{} (seed {seed:#x}): {workers}-thread run digest diverges",
                    app.name
                );
                assert!(
                    run.converged,
                    "{} (seed {seed:#x}): {workers}-thread replicas/cloud did not converge",
                    app.name
                );
                assert_eq!(
                    run.state_digest, reference.state_digest,
                    "{} (seed {seed:#x}): {workers}-thread converged CRDT state \
                     differs from the reference",
                    app.name
                );
                assert_eq!(run.completed, reference.completed);
                assert_eq!(run.failed, reference.failed);
            }
        }
    }
    assert!(
        apps_checked >= 2,
        "expected several apps with replicated services, saw {apps_checked}"
    );
}

#[test]
fn transformation_identical_across_engines() {
    // The analysis pipeline (profiling, slicing, extraction) consumes
    // traces; a compiled-engine trace must drive it to the same
    // transformation as the reference engine. Spot-check one db-backed and
    // one compute-bound subject end to end.
    for app in all_apps()
        .into_iter()
        .filter(|a| a.name == "bookworm" || a.name == "mnist-rest")
    {
        let report = edgstr_bench::transform_app(&app);
        assert!(
            report.services.iter().any(|s| s.replicated),
            "{}: transformation should replicate at least one service",
            app.name
        );
    }
}
