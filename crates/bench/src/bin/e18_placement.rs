//! E18 — autonomous tier placement under shifting workloads.
//!
//! PR 8 closes the paper's "consult the developer" loop: instead of a
//! placement fixed at transformation time, a per-service controller
//! (`edgstr-placement`) chooses **EdgeReplicate**, **EdgeCacheOnly**, or
//! **CloudPin** from static effect signals plus sliding windows of live
//! telemetry, and the runtime transitions services between tiers mid-run
//! behind CRDT clock barriers (promote = warm from the sync stream,
//! demote = drain unsynced deltas to the cloud).
//!
//! The experiment drives one sensor-board app through three workload
//! phases, each engineered so a *different* static placement is the right
//! answer:
//!
//! - **A: catalog scan** — 95% uniform keyed reads over a wide universe of
//!   fat rows. The edge response cache (deliberately small) thrashes, so
//!   cache-only and cloud-pinned placements both pay the narrow WAN per
//!   read; local replicas win.
//! - **B: write contention** — 90% `tensor.infer` ingests at an offered
//!   rate well above the edge cluster's compute capacity. The cloud wins;
//!   replicated edges queue without bound.
//! - **C: flash crowd** — 98% Zipf reads over 8 hot fat rows. The hot set
//!   fits the edge cache, so replicas and caches both absorb it; cloud
//!   pinning is again bandwidth-capped.
//!
//! The adaptive controller is ablated against all three static placements
//! on the full phase sequence. Gates (full run): adaptive geomean
//! throughput across phases ≥ 1.2x the best static's geomean; on a
//! stationary low-rate mix the adaptive run takes zero transitions and
//! stays within 5% of the best static; and the adaptive cell must
//! reproduce its response digests bit-for-bit under a scripted replay of
//! its placement schedule ([`PlacementMode::Scripted`]), the determinism
//! contract that makes mid-run transitions auditable. (A static cell is a
//! pin with no decisions, so a replay of it would be the same deployment
//! run again.)
//! Finally the adaptive run must lose zero acknowledged writes: after
//! convergence the master clock dominates every transition-time acked
//! prefix and the readings table holds exactly one row per acknowledged
//! ingest. Results land in `BENCH_placement.json`.

use edgstr_bench::{print_table, smoke_flag, BenchReport};
use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_net::{HttpRequest, LinkSpec, Verb};
use edgstr_runtime::{
    CachePolicy, Placement, PlacementMode, PlacementPolicy, PlacementScript, RunStats,
    ThreeTierOptions, ThreeTierSystem, Workload,
};
use edgstr_sim::{DetRng, DeviceSpec, SimDuration, SimTime};
use edgstr_telemetry::Telemetry;
use serde_json::json;

const SEED: u64 = 0x0E18_71E5;
/// Keyed-read universe (phase A spreads over all of it).
const UNIVERSE: usize = 512;
/// Flash-crowd key set (phase C).
const HOT_KEYS: usize = 8;
/// Seeded row payload: fat enough that forwarded reads pressure the WAN.
const VAL_BYTES: usize = 512;

/// The sensor-board app: `/ingest` scores a sample (CNN-sized compute),
/// logs it and updates the item it belongs to; `/item` is a keyed read.
const APP: &str = r#"
    db.query("CREATE TABLE items (id INT PRIMARY KEY, val TEXT)");
    db.query("CREATE TABLE readings (id INT PRIMARY KEY, sig TEXT)");
    app.post("/seed", function (req, res) {
        db.query("INSERT INTO items VALUES (" + req.body.id + ", '" + req.body.val + "')");
        res.send({ ok: req.body.id });
    });
    app.post("/ingest", function (req, res) {
        var score = tensor.infer("scorer", req.body.sig);
        db.query("INSERT INTO readings VALUES (" + req.body.seq + ", '" + req.body.sig + "')");
        db.query("UPDATE items SET val = '" + req.body.sig + "' WHERE id = " + req.body.id);
        res.send({ seq: req.body.seq });
    });
    app.get("/item", function (req, res) {
        var rows = db.query("SELECT * FROM items WHERE id = " + req.params.id);
        res.send(rows);
    });
"#;

fn ingest(seq: usize, key: usize, sig: &str) -> HttpRequest {
    HttpRequest::post(
        "/ingest",
        json!({"seq": seq, "id": key, "sig": sig}),
        vec![],
    )
}

fn item(key: usize) -> HttpRequest {
    HttpRequest::get("/item", json!({"id": key}))
}

/// Capture run: seed every item row with a fat value (forwarded reads
/// must cost real WAN bytes) and profile all three services.
fn transform() -> TransformationReport {
    let fat = "v".repeat(VAL_BYTES);
    let mut reqs: Vec<HttpRequest> = (0..UNIVERSE)
        .map(|k| HttpRequest::post("/seed", json!({"id": k, "val": fat}), vec![]))
        .collect();
    reqs.push(ingest(1_000_000, 0, "warm_sig"));
    reqs.push(item(0));
    capture_and_transform(APP, &reqs, &EdgStrConfig::default())
        .expect("transformation must succeed")
        .0
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with exponent `s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

struct Phase {
    name: &'static str,
    read_frac: f64,
    universe: usize,
    /// Key-popularity skew; `0.0` degenerates to a uniform draw.
    zipf_s: f64,
    /// Ingest payload size — fat payloads keep the rows they overwrite
    /// expensive to forward, small ones keep upstream forwarding cheap.
    sig_bytes: usize,
    rps: f64,
    secs: f64,
}

/// Deterministic request stream for one phase; `seq_base` keeps ingest
/// primary keys unique across phases.
fn phase_requests(phase: &Phase, seq_base: usize) -> Vec<HttpRequest> {
    let count = (phase.rps * phase.secs) as usize;
    let zipf = Zipf::new(phase.universe, phase.zipf_s);
    let sig = "x".repeat(phase.sig_bytes);
    let mut rng = DetRng::new(SEED ^ phase.name.as_bytes()[0] as u64);
    let mut out = Vec::with_capacity(count);
    let mut seq = seq_base;
    for _ in 0..count {
        if rng.unit_f64() < phase.read_frac {
            out.push(item(zipf.sample(&mut rng)));
        } else {
            let key = zipf.sample(&mut rng);
            out.push(ingest(seq, key, &sig));
            seq += 1;
        }
    }
    out
}

fn options(placement: PlacementMode, telemetry: Telemetry) -> ThreeTierOptions {
    ThreeTierOptions {
        // narrow uplink WAN: forwarded fat reads are bandwidth-bound
        wan: LinkSpec::from_kbps_ms(500.0, 40.0),
        // gigabit LAN so the edge link never caps local serving
        lan: LinkSpec::from_mbytes_ms(125.0, 0.05),
        cache: CachePolicy::All,
        // a deliberately small response cache: phase C's hot set fits,
        // phase A's wide universe thrashes it
        cache_budget_bytes: 8 * 1024,
        // 500ms control ticks: two confirmation windows react within ~1s
        // of a phase shift instead of eating a quarter of the phase
        sync_interval: SimDuration::from_millis(500),
        placement,
        telemetry,
        ..Default::default()
    }
}

fn policy() -> PlacementPolicy {
    PlacementPolicy {
        confirm_windows: 2,
        cooldown: SimDuration::from_secs(1),
        ..PlacementPolicy::default()
    }
}

struct CellResult {
    /// Per-phase `(completed, throughput_rps, response_digest)`.
    phases: Vec<(usize, f64, u64)>,
    stats: Vec<RunStats>,
}

/// Run the full phase sequence on one system. Phase workloads are shifted
/// to consecutive virtual-time offsets; per-phase throughput is completed
/// requests over the phase's own makespan slice, floored at the phase's
/// nominal duration so a placement whose queue spills into the next phase
/// is charged the overrun without inflating the next phase's rate.
fn run_phases(sys: &mut ThreeTierSystem, phases: &[Phase], workloads: &[Workload]) -> CellResult {
    let mut out = CellResult {
        phases: Vec::new(),
        stats: Vec::new(),
    };
    let mut prev_end = SimTime::ZERO;
    for (phase, wl) in phases.iter().zip(workloads) {
        let stats = sys.run(wl);
        let slice = stats.makespan.since(prev_end);
        let secs = (slice.0 as f64 / 1e6).max(phase.secs);
        out.phases.push((
            stats.completed,
            stats.completed as f64 / secs,
            stats.response_digest,
        ));
        prev_end = stats.makespan;
        out.stats.push(stats);
    }
    out
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn placement_name(p: Placement) -> &'static str {
    p.as_str()
}

fn main() {
    let smoke = smoke_flag();
    let scale = if smoke { 0.25 } else { 1.0 };
    let phases = [
        Phase {
            name: "A:catalog-scan",
            read_frac: 0.95,
            universe: UNIVERSE,
            zipf_s: 0.0,
            sig_bytes: VAL_BYTES,
            rps: 400.0,
            secs: 8.0 * scale,
        },
        Phase {
            name: "B:write-contention",
            read_frac: 0.10,
            universe: UNIVERSE,
            zipf_s: 0.0,
            sig_bytes: 16,
            rps: 700.0,
            secs: 8.0 * scale,
        },
        Phase {
            name: "C:flash-crowd",
            read_frac: 0.98,
            universe: HOT_KEYS,
            zipf_s: 1.1,
            sig_bytes: VAL_BYTES,
            rps: 400.0,
            secs: 8.0 * scale,
        },
    ];
    // smoke keeps every correctness assert but relaxes the perf floor
    let adaptive_floor = if smoke { 1.0 } else { 1.2 };

    let report = transform();

    // consecutive virtual-time offsets for the phase workloads
    let mut workloads = Vec::new();
    let mut offset = SimTime::ZERO;
    let mut seq_base = 0;
    for phase in &phases {
        let reqs = phase_requests(phase, seq_base);
        seq_base += reqs.iter().filter(|r| r.verb == Verb::Post).count();
        workloads.push(Workload::constant_rate(&reqs, phase.rps, reqs.len()).shifted(offset));
        offset += SimDuration((phase.secs * 1e6) as u64);
    }
    let total_ingests = seq_base;

    let deploy = |placement: PlacementMode| {
        ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi4()],
            options(placement, Telemetry::disabled()),
        )
        .expect("deploy must succeed")
    };
    // every service pinned to `p` for the whole run
    let pinned = |p| {
        PlacementMode::Scripted(PlacementScript {
            pinned: Some(p),
            decisions: Vec::new(),
        })
    };

    // --- adaptive cell + its scripted replay (digest parity) -------------
    let mut adaptive_sys = deploy(PlacementMode::Adaptive(policy()));
    let adaptive = run_phases(&mut adaptive_sys, &phases, &workloads);
    let schedule = adaptive_sys.decision_schedule();
    let mut replay_sys = deploy(PlacementMode::Scripted(PlacementScript {
        pinned: None,
        decisions: schedule.clone(),
    }));
    let replay = run_phases(&mut replay_sys, &phases, &workloads);
    if std::env::var("E18_DEBUG").is_ok() {
        for (a, r) in adaptive.stats.iter().zip(replay.stats.iter()) {
            eprintln!(
                "adaptive completed={} forwarded={} makespan={} sync={} | replay completed={} forwarded={} makespan={} sync={}",
                a.completed, a.forwarded, a.makespan.0, a.wan_sync_bytes,
                r.completed, r.forwarded, r.makespan.0, r.wan_sync_bytes
            );
        }
        for d in &schedule {
            eprintln!(
                "decision at={} {} {} -> {}",
                d.at.0,
                d.service.0,
                d.service.1,
                d.to.as_str()
            );
        }
        for t in &adaptive_sys.placement_stats().transitions {
            eprintln!(
                "transition {} {}: {} -> {} decided={} completed={} ({})",
                t.service.0,
                t.service.1,
                t.from.as_str(),
                t.to.as_str(),
                t.decided_at.0,
                t.completed_at.0,
                t.reason
            );
        }
        for t in &replay_sys.placement_stats().transitions {
            eprintln!(
                "replay transition {} {}: {} -> {} decided={} completed={}",
                t.service.0,
                t.service.1,
                t.from.as_str(),
                t.to.as_str(),
                t.decided_at.0,
                t.completed_at.0
            );
        }
    }
    let mut digest_cells = 0;
    for (i, phase) in phases.iter().enumerate() {
        assert_eq!(
            adaptive.phases[i].2, replay.phases[i].2,
            "adaptive {} digest must match its scripted replay",
            phase.name
        );
        assert_eq!(adaptive.phases[i].0, replay.phases[i].0);
        digest_cells += 1;
    }

    // --- static cells ----------------------------------------------------
    let statics = [
        Placement::EdgeReplicate,
        Placement::EdgeCacheOnly,
        Placement::CloudPin,
    ];
    let mut static_results = Vec::new();
    for &p in &statics {
        let mut sys = deploy(pinned(p));
        let cell = run_phases(&mut sys, &phases, &workloads);
        static_results.push((p, cell));
    }

    // --- table + gate ----------------------------------------------------
    let mut rows = Vec::new();
    let mut cell_row = |name: &str, cell: &CellResult| {
        let tps: Vec<f64> = cell.phases.iter().map(|p| p.1).collect();
        let mut row = vec![name.to_string()];
        for tp in &tps {
            row.push(format!("{tp:.0}"));
        }
        row.push(format!("{:.0}", geomean(&tps)));
        rows.push(row);
        geomean(&tps)
    };
    let adaptive_gm = cell_row("adaptive", &adaptive);
    let mut best_static = ("", f64::MIN);
    let mut static_json = Vec::new();
    for (p, cell) in &static_results {
        let gm = cell_row(placement_name(*p), cell);
        if gm > best_static.1 {
            best_static = (placement_name(*p), gm);
        }
        static_json.push(json!({
            "placement": placement_name(*p),
            "phase_rps": cell.phases.iter().map(|x| x.1).collect::<Vec<_>>(),
            "geomean_rps": gm,
        }));
    }
    print_table(
        &format!("E18: tier placement, phase throughput rps (seed {SEED:#x})"),
        &[
            "cell",
            "A:catalog-scan",
            "B:write-contention",
            "C:flash-crowd",
            "geomean",
        ],
        &rows,
    );
    let advantage = adaptive_gm / best_static.1;
    println!(
        "\nadaptive geomean {adaptive_gm:.0} rps vs best static {} at {:.0} rps -> {advantage:.2}x \
         ({} transitions: {} promotes, {} demotes)",
        best_static.0,
        best_static.1,
        adaptive_sys.placement_stats().transitions.len(),
        adaptive_sys.placement_stats().promotes,
        adaptive_sys.placement_stats().demotes,
    );
    assert!(
        advantage >= adaptive_floor,
        "adaptive must reach >= {adaptive_floor}x the best static geomean (measured {advantage:.2}x)"
    );
    assert!(
        !schedule.is_empty(),
        "the shifting workload must force at least one placement decision"
    );

    // --- zero acked-write loss across transitions ------------------------
    let makespan = adaptive.stats.last().unwrap().makespan;
    adaptive_sys
        .sync_until_converged(makespan, 200)
        .expect("adaptive cluster must converge after the run");
    let master = adaptive_sys.cloud.crdts.clock();
    let snapshots = adaptive_sys.placement_stats().acked_snapshots.clone();
    for snap in &snapshots {
        assert!(
            master.dominates(snap),
            "acked write lost across a placement transition"
        );
    }
    let completed_ingests: usize = total_ingests; // fault-free: all complete
    assert_eq!(
        adaptive_sys.cloud.crdts.rows("readings").len(),
        completed_ingests + 1, // plus the capture warm-up ingest
        "master must hold one reading per acknowledged ingest"
    );

    // --- stationary control: zero transitions, within 5% of best static --
    let stationary = Phase {
        name: "S:stationary",
        read_frac: 0.85,
        universe: UNIVERSE,
        zipf_s: 1.1,
        sig_bytes: 16,
        rps: 60.0,
        secs: 6.0 * scale,
    };
    let st_reqs = phase_requests(&stationary, 9_000_000);
    let st_wl = Workload::constant_rate(&st_reqs, stationary.rps, st_reqs.len());
    let mut st_adaptive = deploy(PlacementMode::Adaptive(policy()));
    let st_a = st_adaptive.run(&st_wl);
    assert!(
        st_adaptive.placement_stats().transitions.is_empty(),
        "stationary load must not trigger placement churn"
    );
    let mut st_best = f64::MIN;
    for &p in &statics {
        let mut sys = deploy(pinned(p));
        let s = sys.run(&st_wl);
        st_best = st_best.max(s.throughput_rps());
    }
    let st_ratio = st_a.throughput_rps() / st_best;
    println!(
        "stationary: adaptive {:.1} rps vs best static {st_best:.1} rps ({:.1}% delta)",
        st_a.throughput_rps(),
        (st_ratio - 1.0).abs() * 100.0
    );
    assert!(
        st_ratio >= 0.95,
        "adaptive must stay within 5% of the best static on stationary load \
         (measured {:.3})",
        st_ratio
    );

    // --- report -----------------------------------------------------------
    let mut bench = BenchReport::new("e18_placement", smoke);
    bench.section(
        "workload",
        json!({
            "seed": SEED,
            "universe": UNIVERSE,
            "hot_keys": HOT_KEYS,
            "val_bytes": VAL_BYTES,
            "phases": phases.iter().map(|p| json!({
                "name": p.name,
                "read_frac": p.read_frac,
                "universe": p.universe,
                "zipf_s": p.zipf_s,
                "sig_bytes": p.sig_bytes,
                "rps": p.rps,
                "secs": p.secs,
            })).collect::<Vec<_>>(),
        }),
    );
    bench.section(
        "adaptive",
        json!({
            "phase_rps": adaptive.phases.iter().map(|x| x.1).collect::<Vec<_>>(),
            "geomean_rps": adaptive_gm,
            "decisions": schedule.len(),
            "promotes": adaptive_sys.placement_stats().promotes,
            "demotes": adaptive_sys.placement_stats().demotes,
            "transitions": adaptive_sys.placement_stats().transitions.iter().map(|t| json!({
                "service": format!("{} {}", t.service.0, t.service.1),
                "from": placement_name(t.from),
                "to": placement_name(t.to),
                "decided_at_us": t.decided_at.0,
                "completed_at_us": t.completed_at.0,
                "reason": t.reason,
            })).collect::<Vec<_>>(),
        }),
    );
    bench.section("statics", json!(static_json));
    bench.section(
        "gate",
        json!({
            "adaptive_geomean_rps": adaptive_gm,
            "best_static": best_static.0,
            "best_static_geomean_rps": best_static.1,
            "advantage": advantage,
            "floor": adaptive_floor,
            "digest_parity_cells": digest_cells,
            "digest_mismatches": 0,
            "acked_snapshots_audited": snapshots.len(),
            "acked_writes_lost": 0,
            "stationary_ratio": st_ratio,
        }),
    );
    bench.write("BENCH_placement.json");

    println!(
        "\nThe controller watches each service's read ratio, cache hit rate,\n\
         offered edge utilization and attributable sync traffic, and moves\n\
         the service between EdgeReplicate, EdgeCacheOnly and CloudPin with\n\
         confirmation streaks and a cooldown so bursts cannot thrash it.\n\
         Transitions hide behind CRDT clock barriers — promote warms from\n\
         the sync stream, demote drains unsynced deltas — so the adaptive\n\
         cell replayed its schedule to bit-identical digests and no\n\
         acknowledged write was lost. Results written to BENCH_placement.json."
    );
}
