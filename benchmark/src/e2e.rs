//! End-to-end runs through the program's real entry points only
//! (`ThreeTierSystem::deploy`/`run`, `ParallelSystem::run`), telemetry
//! disabled, with the correctness gates every rep must pass.

use crate::workloads::{self, App, Spec, Stream, THREADED_REPLICAS};
use edgstr_apps::SubjectApp;
use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_runtime::{
    CachePolicy, ParallelOptions, ParallelRunStats, ParallelSystem, RunStats, ThreeTierOptions,
    ThreeTierSystem,
};
use edgstr_sim::{DeviceSpec, SimTime};
use edgstr_telemetry::Telemetry;
use std::time::Instant;

pub const EDGES: usize = 3;

pub fn subject(app: App) -> SubjectApp {
    match app {
        App::Bookworm => edgstr_apps::bookworm::app(),
        App::TextAnalyzer => edgstr_apps::textanalyzer::app(),
    }
}

/// Capture-and-transform the app from its per-service sample requests.
pub fn transform(app: &SubjectApp) -> Result<TransformationReport, String> {
    let config = EdgStrConfig {
        app_name: app.name.to_string(),
        ..Default::default()
    };
    capture_and_transform(&app.source, &app.service_requests, &config)
        .map(|(report, _)| report)
        .map_err(|e| format!("{}: transform failed: {e}", app.name))
}

/// The deployment every virtual-time workload shares: three rpi4 edges,
/// cache `All`, everything else default (least-connections, 1 s
/// background sync, `OnAck`, compaction on, no faults/HA/quarantine,
/// report-static placement).
fn deploy(
    app: &SubjectApp,
    report: &TransformationReport,
    telemetry: Telemetry,
) -> Result<ThreeTierSystem, String> {
    ThreeTierSystem::deploy(
        &app.source,
        report,
        &vec![DeviceSpec::rpi4(); EDGES],
        ThreeTierOptions {
            cache: CachePolicy::All,
            telemetry,
            ..Default::default()
        },
    )
    .map_err(|e| format!("{}: deploy failed: {e}", app.name))
}

/// Where the timed stream starts in virtual time: a whole second clear of
/// the prologue's two flush rounds.
pub fn timed_start(prologue_makespan: SimTime) -> SimTime {
    SimTime((prologue_makespan.0 / 1_000_000 + 3) * 1_000_000)
}

/// One fresh deployment serving the stream once.
pub struct TierRep {
    pub transform_s: f64,
    pub deploy_s: f64,
    pub prologue_s: f64,
    pub serve_s: f64,
    pub stats: RunStats,
}

fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("gate violated: {}", what()))
    }
}

fn clean(stats: &RunStats, attempted: usize, phase: &str) -> Result<(), String> {
    gate(
        stats.failed == 0 && stats.forwarded == 0 && stats.completed == attempted,
        || {
            format!(
                "{phase}: {} of {attempted} completed, {} failed, {} forwarded",
                stats.completed, stats.failed, stats.forwarded
            )
        },
    )
}

pub fn tier_rep(spec: &Spec, stream: &Stream, telemetry: Telemetry) -> Result<TierRep, String> {
    let app = subject(spec.app);
    let t0 = Instant::now();
    let report = transform(&app)?;
    let t1 = Instant::now();
    let mut sys = deploy(&app, &report, telemetry)?;
    let t2 = Instant::now();
    let prologue = sys.run(&workloads::timed(&stream.prologue, SimTime::ZERO));
    clean(&prologue, stream.prologue.len(), "prologue")?;
    let workload = workloads::timed(&stream.requests, timed_start(prologue.makespan));
    let t3 = Instant::now();
    let stats = sys.run(&workload);
    let serve_s = t3.elapsed().as_secs_f64();
    clean(&stats, stream.requests.len(), "timed run")?;
    gate(sys.converged(), || "replicas did not converge".to_string())?;
    Ok(TierRep {
        transform_s: (t1 - t0).as_secs_f64(),
        deploy_s: (t2 - t1).as_secs_f64(),
        prologue_s: (t3 - t2).as_secs_f64(),
        serve_s,
        stats,
    })
}

/// Every rep serves the same stream on a fresh deployment, so responses
/// and sync traffic must repeat exactly.
pub fn same_outputs(first: &RunStats, other: &RunStats) -> Result<(), String> {
    gate(
        first.response_digest == other.response_digest
            && first.wan_sync_bytes == other.wan_sync_bytes,
        || "response digest or sync bytes differ between reps of one stream".to_string(),
    )
}

pub fn threaded_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(THREADED_REPLICAS)
}

/// One `ParallelSystem::run` over prologue + stream.
pub struct ThreadedRep {
    /// Everything outside the executor's own timed window: transform,
    /// replica construction on the workers, the convergence flush.
    pub setup_s: f64,
    pub stats: ParallelRunStats,
}

pub fn threaded_rep(spec: &Spec, stream: &Stream, workers: usize) -> Result<ThreadedRep, String> {
    let app = subject(spec.app);
    let t0 = Instant::now();
    let report = transform(&app)?;
    let requests: Vec<_> = stream
        .prologue
        .iter()
        .chain(&stream.requests)
        .cloned()
        .collect();
    let stats = ParallelSystem::new(
        &app.source,
        &report,
        ParallelOptions {
            replicas: THREADED_REPLICAS,
            workers,
            cache: CachePolicy::All,
            ..ParallelOptions::default()
        },
    )
    .run(&requests);
    let wall = t0.elapsed().as_secs_f64();
    gate(
        stats.failed == 0 && stats.completed == requests.len(),
        || {
            format!(
                "threaded run: {} of {} completed, {} failed",
                stats.completed,
                requests.len(),
                stats.failed
            )
        },
    )?;
    gate(stats.converged, || {
        "threaded replicas did not converge".to_string()
    })?;
    Ok(ThreadedRep {
        setup_s: wall - stats.elapsed.as_secs_f64(),
        stats,
    })
}

/// Responses are a pure function of each replica's own stream, so any
/// worker count must reproduce the single-worker digests.
pub fn same_threaded_outputs(a: &ParallelRunStats, b: &ParallelRunStats) -> Result<(), String> {
    gate(
        a.per_request_digests == b.per_request_digests && a.state_digest == b.state_digest,
        || {
            format!(
                "threaded digests differ between {} and {} workers",
                a.workers, b.workers
            )
        },
    )
}
