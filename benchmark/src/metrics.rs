//! The metric names and units this benchmark emits — the same lists
//! `../BENCHMARK.json` declares (a test keeps the two in step) — and the
//! result line the driver parses.

use std::fmt::Write as _;

/// What a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("serve_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer metrics; printed with `--trace 1`. A metric a workload
/// does not exercise (the probe's on `threaded-hot`, `parallel.*` on the
/// virtual-time workloads) reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    // request path (probe spans and counts)
    ("route.busy_us", "us"),
    ("route.calls", "count"),
    ("cache.plan.busy_us", "us"),
    ("cache.lookup.busy_us", "us"),
    ("cache.lookup.calls", "count"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("cache.fill.busy_us", "us"),
    ("cache.fills", "count"),
    ("handle.busy_us", "us"),
    ("handle.calls", "count"),
    ("handle.vm_cycles", "cycles"),
    ("absorb.busy_us", "us"),
    ("absorb.row_effects", "count"),
    ("account.busy_us", "us"),
    // sync path
    ("sync.rounds", "count"),
    ("sync.generate.busy_us", "us"),
    ("sync.changes_sent", "count"),
    ("sync.encode.busy_us", "us"),
    ("sync.bytes", "B"),
    ("sync.bytes_per_change", "B"),
    ("sync.bytes_per_write", "B"),
    ("sync.apply.cloud.busy_us", "us"),
    ("sync.apply.edge.busy_us", "us"),
    ("sync.changes_applied", "count"),
    ("sync.compact.busy_us", "us"),
    ("sync.changes_folded", "count"),
    ("sync.cpu_us_per_write", "us"),
    ("crdt.resident_changes", "count"),
    // SQL engine alone, on edge 0's final database
    ("sql.point_select_us", "us"),
    ("sql.like_scan_us", "us"),
    ("sql.insert_us", "us"),
    ("sql.update_us", "us"),
    ("sql.rows", "count"),
    // the modelled deployment, from the untraced run's RunStats
    ("sim.p50_ms", "ms"),
    ("sim.p99_ms", "ms"),
    // totals
    ("probe.total_us", "us"),
    ("probe.coverage", "ratio"),
    ("driver.unattributed_us", "us"),
    ("setup.transform_s", "s"),
    ("setup.deploy_s", "s"),
    ("setup.prologue_s", "s"),
    ("untraced.serve_rps", "req/s"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.dropped_records", "count"),
    ("trace.spans", "count"),
    // threaded executor
    ("parallel.workers", "count"),
    ("parallel.rps_w1", "req/s"),
    ("parallel.rps_wN", "req/s"),
    ("parallel.scaling_eff", "ratio"),
    ("parallel.delta_messages", "count"),
    ("parallel.cache_hit_ratio", "ratio"),
];

/// Values by metric name, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values of `declared`, in its order. Every value set must be
    /// declared; a declared metric left unset reads 0 when `sparse`
    /// (per-layer metrics of layers the workload does not exercise).
    pub fn ordered(
        &self,
        declared: &[(&'static str, &'static str)],
        sparse: bool,
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if let Some((stray, _)) = self
            .0
            .iter()
            .find(|(n, _)| declared.iter().all(|(d, _)| d != n))
        {
            return Err(format!("metric {stray} is not declared"));
        }
        declared
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, unit, v)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None if sparse => Ok((name, unit, 0.0)),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: usize, rows: &[(&str, &str, f64)]) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, (name, unit, value)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
