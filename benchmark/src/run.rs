//! One benchmark process: either the end-to-end measurement (`--trace 0`)
//! or the traced per-layer measurement (`--trace 1`) of one workload.

use crate::e2e;
use crate::metrics::{median, peak_rss_mb, Metrics};
use crate::probe::{Counts, Probe};
use crate::spans::{Layer, LayerTotal, Tracer, LAYERS};
use crate::workloads::{self, App, Executor, Spec, Stream};
use edgstr_runtime::RunStats;
use edgstr_sim::SimTime;
use edgstr_telemetry::Telemetry;
use std::time::Instant;

/// Fewest timed reps a full-size run reports a median of.
const MIN_REPS: usize = 3;
/// Calls per SQL micro-probe.
const SQL_CALLS: usize = 200;

pub struct Budget {
    /// Seconds of timed work to accumulate.
    pub seconds: f64,
    /// `--smoke`: one rep regardless of `seconds`.
    pub smoke: bool,
}

impl Budget {
    /// Whether another rep is due after `reps` reps holding `timed_s` of
    /// timed work. Wall time is capped too, so that set-up (untimed, per
    /// rep) cannot stretch a run without bound if serving gets much
    /// faster.
    fn wants_more(&self, reps: usize, timed_s: f64, started: Instant) -> bool {
        if self.smoke {
            return reps < 1;
        }
        reps < MIN_REPS
            || (timed_s < self.seconds && started.elapsed().as_secs_f64() < 2.5 * self.seconds)
    }
}

pub struct Outcome {
    /// Timed requests served over all reps.
    pub attempted: usize,
    pub metrics: Metrics,
}

/// What one timed rep contributes to the end-to-end medians.
struct Sample {
    rps: f64,
    setup_s: f64,
    completed: usize,
    timed_s: f64,
}

pub fn end_to_end(spec: &Spec, stream: &Stream, budget: &Budget) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut rep: Box<dyn FnMut() -> Result<Sample, String>> = match spec.executor {
        Executor::ThreeTier => {
            // the first rep in a process runs cold (page faults, allocator
            // growth) and is consistently the slowest: it is the reference
            // for the output gate, and is not timed
            let mut reference: Option<RunStats> = (!budget.smoke)
                .then(|| e2e::tier_rep(spec, stream, Telemetry::disabled()).map(|rep| rep.stats))
                .transpose()?;
            Box::new(move || {
                let rep = e2e::tier_rep(spec, stream, Telemetry::disabled())?;
                let sample = Sample {
                    rps: rep.stats.completed as f64 / rep.serve_s,
                    setup_s: rep.transform_s + rep.deploy_s + rep.prologue_s,
                    completed: rep.stats.completed,
                    timed_s: rep.serve_s,
                };
                match &reference {
                    Some(reference) => e2e::same_outputs(reference, &rep.stats)?,
                    None => reference = Some(rep.stats),
                }
                Ok(sample)
            })
        }
        Executor::Threaded => {
            let workers = e2e::threaded_workers();
            let reference = e2e::threaded_rep(spec, stream, 1)?.stats;
            Box::new(move || {
                let rep = e2e::threaded_rep(spec, stream, workers)?;
                e2e::same_threaded_outputs(&reference, &rep.stats)?;
                Ok(Sample {
                    rps: rep.stats.throughput_rps(),
                    setup_s: rep.setup_s,
                    completed: rep.stats.completed,
                    timed_s: rep.stats.elapsed.as_secs_f64(),
                })
            })
        }
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut timed_s = 0.0;
    while budget.wants_more(samples.len(), timed_s, started) {
        let sample = rep()?;
        eprintln!("rep {}: {:.0} req/s", samples.len() + 1, sample.rps);
        timed_s += sample.timed_s;
        samples.push(sample);
    }
    let column = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    metrics.set("serve_rps", column(|s| s.rps));
    metrics.set("setup_s", column(|s| s.setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        attempted: samples.iter().map(|s| s.completed).sum(),
        metrics,
    })
}

pub fn traced(
    spec: &Spec,
    stream: &Stream,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    match spec.executor {
        Executor::ThreeTier => traced_tier(spec, stream, trace_path),
        Executor::Threaded => traced_threaded(spec, stream),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Name the first field on which the probe's `RunStats` departs from the
/// untraced run's.
fn parity(untraced: &RunStats, probe: &RunStats) -> Result<(), String> {
    if untraced == probe {
        return Ok(());
    }
    let fields = [
        ("completed", untraced.completed == probe.completed),
        (
            "response_digest",
            untraced.response_digest == probe.response_digest,
        ),
        (
            "wan_sync_bytes",
            untraced.wan_sync_bytes == probe.wan_sync_bytes,
        ),
        ("lan_bytes", untraced.lan_bytes == probe.lan_bytes),
        ("makespan", untraced.makespan == probe.makespan),
        ("latency", untraced.latency == probe.latency),
    ];
    let differing = fields
        .iter()
        .find(|(_, same)| !same)
        .map_or("energy or counters", |(name, _)| name);
    Err(format!(
        "parity gate: the probe's RunStats differ from the untraced run's in {differing}"
    ))
}

fn traced_tier(
    spec: &Spec,
    stream: &Stream,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let mut untraced = e2e::tier_rep(spec, stream, Telemetry::disabled())?;

    // The probe replays the same stream on its own replicas, straight
    // after the reference rep so both see the same allocator state.
    let app = e2e::subject(spec.app);
    let report = e2e::transform(&app)?;
    let mut probe = Probe::deploy(&app, &report)?;
    let (prologue, _) = probe.run(
        &workloads::timed(&stream.prologue, SimTime::ZERO),
        &mut Tracer::new(),
    )?;
    let workload = workloads::timed(&stream.requests, e2e::timed_start(prologue.makespan));
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let (probe_stats, counts) = probe.run(&workload, &mut tracer)?;
    let probe_total_us = t0.elapsed().as_secs_f64() * 1e6;
    parity(&untraced.stats, &probe_stats)?;

    // Telemetry overhead: reps recording telemetry against reps with it
    // off, in on-off-off-on order so neither side always runs second; both
    // must produce the reference outputs.
    let mut off_serve_s = Vec::new();
    let mut on_serve_s = Vec::new();
    let mut dropped_records = 0;
    for on in [true, false, false, true] {
        let telemetry = if on {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        };
        let rep = e2e::tier_rep(spec, stream, telemetry.clone())?;
        e2e::same_outputs(&untraced.stats, &rep.stats)?;
        dropped_records += telemetry.trace_dropped();
        if on {
            on_serve_s.push(rep.serve_s);
        } else {
            off_serve_s.push(rep.serve_s);
        }
    }

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut m = Metrics::default();
    layer_metrics(&mut m, &tracer, &counts, probe_total_us);
    m.set("crdt.resident_changes", probe.resident_changes() as f64);
    sql_probes(&mut m, spec.app, &mut probe)?;
    let mut p = |q| {
        untraced
            .stats
            .latency
            .quantile(q)
            .map_or(0.0, |d| d.as_millis_f64())
    };
    m.set("sim.p50_ms", p(0.5));
    m.set("sim.p99_ms", p(0.99));
    let coverage = ratio(probe_total_us, untraced.serve_s * 1e6);
    m.set("probe.coverage", coverage);
    if !(0.85..=1.15).contains(&coverage) {
        eprintln!("warning: probe.coverage {coverage:.3} is outside 0.85..1.15");
    }
    m.set("setup.transform_s", untraced.transform_s);
    m.set("setup.deploy_s", untraced.deploy_s);
    m.set("setup.prologue_s", untraced.prologue_s);
    m.set(
        "untraced.serve_rps",
        stream.requests.len() as f64 / untraced.serve_s,
    );
    m.set(
        "telemetry.overhead_pct",
        (median(&on_serve_s) / median(&off_serve_s) - 1.0) * 100.0,
    );
    m.set("telemetry.dropped_records", dropped_records as f64);
    Ok(Outcome {
        attempted: stream.requests.len(),
        metrics: m,
    })
}

fn layer_metrics(m: &mut Metrics, tracer: &Tracer, counts: &Counts, probe_total_us: f64) {
    let totals = tracer.totals();
    let of = |layer: Layer| -> LayerTotal { totals[layer as usize] };
    let busy = |layer: Layer| us(of(layer).busy_ns);
    m.set("route.busy_us", busy(Layer::Route));
    m.set("route.calls", of(Layer::Route).calls as f64);
    m.set("cache.plan.busy_us", busy(Layer::CachePlan));
    m.set("cache.lookup.busy_us", busy(Layer::CacheLookup));
    m.set("cache.lookup.calls", of(Layer::CacheLookup).calls as f64);
    m.set("cache.hits", counts.cache.hits as f64);
    m.set(
        "cache.hit_ratio",
        ratio(
            counts.cache.hits as f64,
            of(Layer::CacheLookup).calls as f64,
        ),
    );
    m.set("cache.invalidations", counts.cache.invalidations as f64);
    m.set("cache.evictions", counts.cache.evictions as f64);
    m.set("cache.fill.busy_us", busy(Layer::CacheFill));
    m.set("cache.fills", counts.fills as f64);
    m.set("handle.busy_us", busy(Layer::Handle));
    m.set("handle.calls", counts.handle_calls as f64);
    m.set("handle.vm_cycles", counts.vm_cycles as f64);
    m.set("absorb.busy_us", busy(Layer::Absorb));
    m.set("absorb.row_effects", counts.row_effects as f64);
    m.set("account.busy_us", busy(Layer::Account));
    m.set("sync.rounds", counts.sync_rounds as f64);
    m.set("sync.generate.busy_us", busy(Layer::SyncGenerate));
    m.set("sync.changes_sent", counts.changes_sent as f64);
    m.set("sync.encode.busy_us", busy(Layer::SyncEncode));
    m.set("sync.bytes", counts.sync_bytes as f64);
    m.set(
        "sync.bytes_per_change",
        ratio(counts.sync_bytes as f64, counts.changes_sent as f64),
    );
    m.set(
        "sync.bytes_per_write",
        ratio(counts.sync_bytes as f64, counts.writes as f64),
    );
    m.set("sync.apply.cloud.busy_us", busy(Layer::SyncApplyCloud));
    m.set("sync.apply.edge.busy_us", busy(Layer::SyncApplyEdge));
    m.set("sync.changes_applied", counts.changes_applied as f64);
    m.set("sync.compact.busy_us", busy(Layer::SyncCompact));
    m.set("sync.changes_folded", counts.changes_folded as f64);
    m.set(
        "sync.cpu_us_per_write",
        ratio(busy(Layer::SyncRound), counts.writes as f64),
    );
    // everything the probe spent outside a layer span: its own loop, the
    // device and link models, and the root spans outside their children
    let in_layers: u64 = LAYERS
        .iter()
        .zip(&totals)
        .filter(|(l, _)| !l.is_root())
        .map(|(_, t)| t.busy_ns)
        .sum();
    m.set("probe.total_us", probe_total_us);
    m.set("driver.unattributed_us", probe_total_us - us(in_layers));
    m.set("trace.spans", tracer.len() as f64);
}

/// One statement text per call index, per statement shape.
struct SqlShapes {
    table: &'static str,
    select: fn(usize) -> String,
    scan: fn(usize) -> String,
    insert: fn(usize) -> String,
    update: fn(usize) -> String,
}

/// The SQL engine alone, on edge 0's final database: median latency of
/// [`SQL_CALLS`] `SqlDb::exec` calls per statement shape (statement text
/// varies per call, so parsing is included). The database is restored
/// after the writes.
fn sql_probes(m: &mut Metrics, app: App, probe: &mut Probe) -> Result<(), String> {
    let db = &mut probe.edge0_server().db;
    let SqlShapes {
        table,
        select,
        scan,
        insert,
        update,
    } = match app {
        App::Bookworm => SqlShapes {
            table: "books",
            select: |i| format!("SELECT * FROM books WHERE id = {}", 101 + i),
            scan: |i| {
                format!(
                    "SELECT id, title FROM books WHERE title LIKE '%r{}%'",
                    i % 10
                )
            },
            insert: |i| {
                format!(
                    "INSERT INTO books VALUES ({}, 'probe', 'Probe', 9.5, 0)",
                    9_000_000 + i
                )
            },
            update: |i| format!("UPDATE books SET stock = {i} WHERE id = {}", 101 + i),
        },
        App::TextAnalyzer => SqlShapes {
            table: "docs",
            select: |i| format!("SELECT * FROM docs WHERE id = {}", 1 + i),
            scan: |i| format!("SELECT id FROM docs WHERE name LIKE '%r{}%'", i % 10),
            insert: |i| format!("INSERT INTO docs VALUES ({}, 'probe', 3)", 9_000_000 + i),
            update: |i| format!("UPDATE docs SET words = {i} WHERE id = {}", 1 + i),
        },
    };
    let rows = db.table(table).map_or(0, |t| t.rows.len());
    let saved = db.snapshot();
    let mut time = |statement: fn(usize) -> String| -> Result<f64, String> {
        let mut samples = Vec::with_capacity(SQL_CALLS);
        for i in 0..SQL_CALLS {
            let sql = statement(i);
            let t0 = Instant::now();
            let result = std::hint::black_box(db.exec(&sql));
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            result.map_err(|e| format!("sql probe `{sql}` failed: {e}"))?;
        }
        Ok(median(&samples))
    };
    m.set("sql.point_select_us", time(select)?);
    m.set("sql.like_scan_us", time(scan)?);
    m.set("sql.insert_us", time(insert)?);
    m.set("sql.update_us", time(update)?);
    m.set("sql.rows", rows as f64);
    db.restore(&saved);
    Ok(())
}

/// The threaded executor has no seams to put spans in from outside; its
/// per-layer numbers are the scaling pair (1 worker against all) and the
/// executor's own counts.
fn traced_threaded(spec: &Spec, stream: &Stream) -> Result<Outcome, String> {
    let workers = e2e::threaded_workers();
    let mut w1 = Vec::new();
    let mut wn = Vec::new();
    let mut last = None;
    for _ in 0..2 {
        let single = e2e::threaded_rep(spec, stream, 1)?.stats;
        let all = e2e::threaded_rep(spec, stream, workers)?.stats;
        e2e::same_threaded_outputs(&single, &all)?;
        w1.push(single.throughput_rps());
        wn.push(all.throughput_rps());
        last = Some(all);
    }
    let all = last.expect("two rounds ran");
    let (rps_w1, rps_wn) = (median(&w1), median(&wn));
    let mut m = Metrics::default();
    m.set("parallel.workers", all.workers as f64);
    m.set("parallel.rps_w1", rps_w1);
    m.set("parallel.rps_wN", rps_wn);
    m.set(
        "parallel.scaling_eff",
        ratio(rps_wn, rps_w1 * all.workers as f64),
    );
    m.set("parallel.delta_messages", all.delta_messages as f64);
    m.set("parallel.cache_hit_ratio", all.cache.hit_ratio());
    Ok(Outcome {
        attempted: all.completed,
        metrics: m,
    })
}
