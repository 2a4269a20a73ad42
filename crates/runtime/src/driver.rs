//! Shared run-driver plumbing for the two-tier and three-tier system
//! drivers: workload generation, the mobile energy model, the WAN fault
//! policy, and the per-run measurement recorder.
//!
//! [`RunStats`] is a *view* over the telemetry registry: both drivers
//! funnel every completion, failure, byte and retry through a
//! [`RunRecorder`], which counts into registry counters (a throwaway
//! registry when telemetry is disabled, the shared one when enabled) and
//! reads the per-run deltas back out at [`RunRecorder::finish`]. One
//! accounting path serves both drivers and both telemetry modes, so
//! enabling observability cannot change the numbers — the
//! `e14_observability` bench pins `RunStats` equality (including a
//! response digest) with telemetry off vs on.

use edgstr_net::{fnv1a, HttpRequest, HttpResponse, FNV_OFFSET};
use edgstr_sim::{Clock, LatencyStats, SimDuration, SimTime};
use edgstr_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Radio/idle power draw of the mobile client, used to integrate the
/// per-request energy the Trepn profiler measures in the paper (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilePower {
    /// Transmitting (upload) watts.
    pub tx_w: f64,
    /// Receiving (download) watts.
    pub rx_w: f64,
    /// Low-power waiting watts ("the mobile device typically switches into
    /// a low-power mode in the idle state", §IV-C.3).
    pub wait_w: f64,
}

impl Default for MobilePower {
    fn default() -> Self {
        MobilePower {
            tx_w: 2.6,
            rx_w: 2.1,
            wait_w: 0.85,
        }
    }
}

impl MobilePower {
    /// Energy for one request given its transfer and wait durations.
    pub fn request_energy_j(&self, up: SimDuration, down: SimDuration, wait: SimDuration) -> f64 {
        self.tx_w * up.as_secs_f64()
            + self.rx_w * down.as_secs_f64()
            + self.wait_w * wait.as_secs_f64()
    }
}

/// A request scheduled at a virtual arrival time.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    pub at: SimTime,
    pub request: HttpRequest,
}

/// A sequence of timed requests.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    pub requests: Vec<TimedRequest>,
}

impl Workload {
    /// `count` requests at a constant rate, cycling over `templates`.
    pub fn constant_rate(templates: &[HttpRequest], rps: f64, count: usize) -> Workload {
        let gap = SimDuration::from_secs_f64(1.0 / rps.max(0.001));
        let mut t = SimTime::ZERO;
        let mut requests = Vec::with_capacity(count);
        for i in 0..count {
            requests.push(TimedRequest {
                at: t,
                request: templates[i % templates.len()].clone(),
            });
            t += gap;
        }
        Workload { requests }
    }

    /// Piecewise-constant rates: each phase is `(rps, duration_seconds)`.
    /// Models the fluctuating client volumes of the elasticity experiment
    /// (Fig. 9-right).
    pub fn phases(templates: &[HttpRequest], phases: &[(f64, f64)]) -> Workload {
        let mut requests = Vec::new();
        let mut t = 0.0f64;
        let mut i = 0usize;
        for &(rps, secs) in phases {
            let gap = 1.0 / rps.max(0.001);
            let end = t + secs;
            while t < end {
                requests.push(TimedRequest {
                    at: SimTime::from_secs_f64(t),
                    request: templates[i % templates.len()].clone(),
                });
                i += 1;
                t += gap;
            }
        }
        Workload { requests }
    }

    /// Shift every arrival by `offset` (to continue a previous run's
    /// virtual timeline).
    pub fn shifted(mut self, offset: SimTime) -> Workload {
        for r in &mut self.requests {
            r.at = SimTime(r.at.0 + offset.0);
        }
        self
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Retry/timeout/circuit-breaker policy for WAN failure forwarding.
///
/// When an edge forwards a request to the cloud and the WAN drops it, the
/// edge retransmits with exponential backoff plus seeded jitter, up to a
/// retry cap and an end-to-end deadline. A run of consecutive forwarding
/// failures opens a circuit breaker: while it is open the edge stops
/// attempting the WAN entirely (degraded mode) until a cooldown elapses,
/// after which one probe request may half-open it.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// End-to-end deadline for one forwarded request, retries included.
    pub forward_deadline: SimDuration,
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff_base * 2^k`, plus jitter in
    /// `[0, backoff_base)`.
    pub backoff_base: SimDuration,
    /// Consecutive forwarding failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a probe is allowed.
    pub breaker_cooldown: SimDuration,
    /// Seed for the retry-jitter stream.
    pub jitter_seed: u64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            forward_deadline: SimDuration::from_secs(10),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(100),
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(5),
            jitter_seed: 0xED657,
        }
    }
}

/// Measurements from one run.
///
/// Equality is exact across every field — including the order-sensitive
/// [`RunStats::response_digest`] — so two runs compare equal only when
/// they completed the same requests with byte-identical responses and
/// identical accounting.
#[derive(Debug, Default, PartialEq)]
pub struct RunStats {
    pub latency: LatencyStats,
    pub completed: usize,
    pub failed: usize,
    /// Requests the edge forwarded to the cloud (failure forwarding or
    /// non-replicated services).
    pub forwarded: usize,
    /// WAN retransmissions performed by failure forwarding.
    pub retries: usize,
    /// Forwarded requests abandoned at the retry cap or deadline.
    pub timed_out: usize,
    /// Requests handled in degraded mode while the circuit breaker was
    /// open: replicated services served locally with deltas queued,
    /// non-replicated requests failed fast without touching the WAN.
    pub degraded: usize,
    /// Virtual time of the last completion.
    pub makespan: SimTime,
    /// Client request/response bytes crossing the WAN.
    pub wan_request_bytes: usize,
    /// CRDT synchronization bytes crossing the WAN.
    pub wan_sync_bytes: usize,
    /// Bytes crossing the edge LAN.
    pub lan_bytes: usize,
    pub client_energy_j: f64,
    pub cloud_energy_j: f64,
    pub edge_energy_j: f64,
    /// `(time, active_replicas)` samples from the autoscaler.
    pub replica_samples: Vec<(SimTime, usize)>,
    /// Every completed response's [`HttpResponse::digest`] (status +
    /// serialized body) chained with FNV-1a in completion order. Two runs
    /// that produced the same digest returned byte-identical response
    /// sequences. A completion folds the eight bytes the response
    /// remembers, not its text.
    pub response_digest: u64,
}

/// Fold one response's [`HttpResponse::digest`] into a run's digest
/// chain — the definition the virtual-time recorder and the threaded
/// executor share.
pub(crate) fn fold_response_digest(chain: u64, response_digest: u64) -> u64 {
    fnv1a(chain, &response_digest.to_le_bytes())
}

impl RunStats {
    /// Completed requests per second of makespan.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / s
        }
    }

    /// Mean energy per request on the client, in joules.
    pub fn client_energy_per_request(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.client_energy_j / self.completed as f64
        }
    }
}

/// Registry counters the recorder drives, in [`RunStats`] field order.
const COMPLETED: usize = 0;
const FAILED: usize = 1;
const FORWARDED: usize = 2;
const RETRIES: usize = 3;
const TIMED_OUT: usize = 4;
const DEGRADED: usize = 5;
const WAN_REQUEST_BYTES: usize = 6;
const WAN_SYNC_BYTES: usize = 7;
const LAN_BYTES: usize = 8;
const NUM_COUNTERS: usize = 9;

const COUNTER_SPECS: [(&str, &[(&str, &str)]); NUM_COUNTERS] = [
    ("edgstr_requests_total", &[("result", "completed")]),
    ("edgstr_requests_total", &[("result", "failed")]),
    ("edgstr_forwards_total", &[]),
    ("edgstr_forward_retries_total", &[]),
    ("edgstr_forward_timeouts_total", &[]),
    ("edgstr_degraded_total", &[]),
    ("edgstr_link_bytes_total", &[("link", "wan_request")]),
    ("edgstr_link_bytes_total", &[("link", "wan_sync")]),
    ("edgstr_link_bytes_total", &[("link", "lan")]),
];

/// Per-run measurement accumulator shared by [`crate::TwoTierSystem`] and
/// [`crate::ThreeTierSystem`].
///
/// Countable measurements live in registry counters; because the registry
/// is cumulative across runs on the same system, the recorder snapshots
/// every counter at construction and [`RunRecorder::finish`] reports the
/// deltas. Exact latency samples, the makespan, energy integrals, replica
/// samples and the response digest (which the bucketed registry cannot
/// represent) accumulate directly.
pub struct RunRecorder {
    telemetry: Telemetry,
    counters: [Counter; NUM_COUNTERS],
    base: [u64; NUM_COUNTERS],
    latency_hist: Histogram,
    replicas_gauge: Gauge,
    stats: RunStats,
    digest: u64,
    clock: Clock,
}

impl RunRecorder {
    /// Start recording one run against `telemetry`'s registry (or a
    /// throwaway registry when disabled — same code path, nothing kept),
    /// under a deterministic virtual clock.
    pub fn new(telemetry: &Telemetry) -> RunRecorder {
        Self::with_clock(telemetry, Clock::virtual_clock())
    }

    /// Start recording one run driven by an explicit [`Clock`]. Under
    /// [`Clock::Virtual`] completions advance the clock's frontier (the
    /// historical makespan watermark); under [`Clock::Wall`] the makespan
    /// is the real elapsed time at the last completion.
    pub fn with_clock(telemetry: &Telemetry, clock: Clock) -> RunRecorder {
        let registry = telemetry.registry().unwrap_or_default();
        let counters = COUNTER_SPECS.map(|(name, labels)| registry.counter(name, labels));
        let base = std::array::from_fn(|i| counters[i].get());
        RunRecorder {
            telemetry: telemetry.clone(),
            counters,
            base,
            latency_hist: registry.histogram("edgstr_request_latency_us", &[]),
            replicas_gauge: registry.gauge("edgstr_active_replicas", &[]),
            stats: RunStats::default(),
            digest: FNV_OFFSET,
            clock,
        }
    }

    /// The telemetry handle this run records against.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The clock driving this run.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Record one completed request: latency, client energy, makespan,
    /// and the response digest. `client_energy_j` is the request's mobile
    /// energy integral ([`MobilePower::request_energy_j`]).
    pub fn complete(
        &mut self,
        response: &HttpResponse,
        started: SimTime,
        done: SimTime,
        client_energy_j: f64,
    ) {
        let latency = done - started;
        self.stats.latency.record(latency);
        self.latency_hist.record(latency.0);
        self.counters[COMPLETED].inc();
        self.stats.client_energy_j += client_energy_j;
        // Advance the run's clock to this completion and take the makespan
        // from the clock reading: under a virtual clock this is exactly the
        // historical `max(done)` watermark; under a wall clock it is the
        // real elapsed time at the last completion.
        self.clock.advance_to(done);
        let now = self.clock.now();
        if now > self.stats.makespan {
            self.stats.makespan = now;
        }
        self.digest = fold_response_digest(self.digest, response.digest());
    }

    /// Record one failed request.
    pub fn fail(&mut self) {
        self.counters[FAILED].inc();
    }

    /// Record one edge-to-cloud forward.
    pub fn forwarded(&mut self) {
        self.counters[FORWARDED].inc();
    }

    /// Record one WAN retransmission.
    pub fn retried(&mut self) {
        self.counters[RETRIES].inc();
    }

    /// Record one forward abandoned at the retry cap or deadline.
    pub fn timed_out(&mut self) {
        self.counters[TIMED_OUT].inc();
    }

    /// Record one request handled in degraded mode.
    pub fn degraded(&mut self) {
        self.counters[DEGRADED].inc();
    }

    /// Count client request/response bytes crossing the WAN.
    pub fn add_wan_request_bytes(&mut self, n: usize) {
        self.counters[WAN_REQUEST_BYTES].add(n as u64);
    }

    /// Count CRDT synchronization bytes crossing the WAN.
    pub fn add_wan_sync_bytes(&mut self, n: usize) {
        self.counters[WAN_SYNC_BYTES].add(n as u64);
    }

    /// Count bytes crossing the edge LAN.
    pub fn add_lan_bytes(&mut self, n: usize) {
        self.counters[LAN_BYTES].add(n as u64);
    }

    /// Record an autoscaler `(time, active_replicas)` sample.
    pub fn replica_sample(&mut self, at: SimTime, active: usize) {
        self.stats.replica_samples.push((at, active));
        self.replicas_gauge.set(active as f64);
    }

    /// Virtual time of the last completion so far.
    pub fn makespan(&self) -> SimTime {
        self.stats.makespan
    }

    /// Close the run: fold counter deltas into [`RunStats`], attach the
    /// server-side energy integrals, and publish the summary gauges.
    pub fn finish(mut self, cloud_energy_j: f64, edge_energy_j: f64) -> RunStats {
        let delta = |i: usize| (self.counters[i].get() - self.base[i]) as usize;
        self.stats.completed = delta(COMPLETED);
        self.stats.failed = delta(FAILED);
        self.stats.forwarded = delta(FORWARDED);
        self.stats.retries = delta(RETRIES);
        self.stats.timed_out = delta(TIMED_OUT);
        self.stats.degraded = delta(DEGRADED);
        self.stats.wan_request_bytes = delta(WAN_REQUEST_BYTES);
        self.stats.wan_sync_bytes = delta(WAN_SYNC_BYTES);
        self.stats.lan_bytes = delta(LAN_BYTES);
        self.stats.cloud_energy_j = cloud_energy_j;
        self.stats.edge_energy_j = edge_energy_j;
        self.stats.response_digest = self.digest;
        if let Some(reg) = self.telemetry.registry() {
            reg.gauge("edgstr_energy_joules", &[("tier", "client")])
                .set(self.stats.client_energy_j);
            reg.gauge("edgstr_energy_joules", &[("tier", "cloud")])
                .set(cloud_energy_j);
            reg.gauge("edgstr_energy_joules", &[("tier", "edge")])
                .set(edge_energy_j);
            reg.gauge("edgstr_makespan_us", &[])
                .set(self.stats.makespan.0 as f64);
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn recorder_reports_per_run_deltas_on_a_shared_registry() {
        let telemetry = Telemetry::recording();
        let resp = HttpResponse::ok(json!({"n": 1}));
        let mobile = MobilePower::default();
        let run = |telemetry: &Telemetry| {
            let mut rec = RunRecorder::new(telemetry);
            let energy = mobile.request_energy_j(
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
                SimDuration::from_millis(100),
            );
            rec.complete(&resp, SimTime::ZERO, SimTime::from_secs_f64(0.5), energy);
            rec.fail();
            rec.add_lan_bytes(128);
            rec.finish(1.0, 2.0)
        };
        let first = run(&telemetry);
        let second = run(&telemetry);
        // per-run numbers, not cumulative registry totals
        assert_eq!(first.completed, 1);
        assert_eq!(second.completed, 1);
        assert_eq!(first, second, "identical runs must compare equal");
        // ...while the registry keeps the cluster-lifetime totals
        let reg = telemetry.registry().unwrap();
        assert_eq!(
            reg.counter("edgstr_requests_total", &[("result", "completed")])
                .get(),
            2
        );
        assert_eq!(
            reg.counter("edgstr_link_bytes_total", &[("link", "lan")])
                .get(),
            2 * 128
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let complete = |rec: &mut RunRecorder, resp: &HttpResponse| {
            rec.complete(resp, SimTime::ZERO, SimTime(1), 0.0)
        };
        let a = HttpResponse::ok(json!({"n": 1}));
        let b = HttpResponse::ok(json!({"n": 2}));
        let t = Telemetry::disabled();
        let mut ab = RunRecorder::new(&t);
        complete(&mut ab, &a);
        complete(&mut ab, &b);
        let mut ba = RunRecorder::new(&t);
        complete(&mut ba, &b);
        complete(&mut ba, &a);
        assert_ne!(
            ab.finish(0.0, 0.0).response_digest,
            ba.finish(0.0, 0.0).response_digest
        );

        let mut aa = RunRecorder::new(&t);
        complete(&mut aa, &a);
        complete(&mut aa, &a);
        let mut aa2 = RunRecorder::new(&t);
        complete(&mut aa2, &a);
        complete(&mut aa2, &a);
        assert_eq!(
            aa.finish(0.0, 0.0).response_digest,
            aa2.finish(0.0, 0.0).response_digest
        );
    }

    #[test]
    fn disabled_telemetry_uses_a_private_registry() {
        let t = Telemetry::disabled();
        let mut rec = RunRecorder::new(&t);
        rec.fail();
        let stats = rec.finish(0.0, 0.0);
        assert_eq!(stats.failed, 1);
        assert!(t.registry().is_none(), "nothing leaks out when disabled");
    }

    #[test]
    fn explicit_virtual_clock_matches_default_recorder() {
        let t = Telemetry::disabled();
        let resp = HttpResponse::ok(json!({"ok": true}));
        let drive = |mut rec: RunRecorder| {
            rec.complete(&resp, SimTime(100), SimTime(900), 0.1);
            rec.complete(&resp, SimTime(200), SimTime(400), 0.1);
            rec.finish(0.0, 0.0)
        };
        let default = drive(RunRecorder::new(&t));
        let explicit = drive(RunRecorder::with_clock(&t, Clock::virtual_clock()));
        assert_eq!(
            default, explicit,
            "virtual clock is the default, bit-identical"
        );
        assert_eq!(
            default.makespan,
            SimTime(900),
            "makespan is the max completion"
        );
    }

    #[test]
    fn wall_clock_recorder_reports_elapsed_makespan() {
        let t = Telemetry::disabled();
        let mut rec = RunRecorder::with_clock(&t, Clock::wall());
        assert!(rec.clock().is_wall());
        let resp = HttpResponse::ok(json!({"ok": true}));
        // Virtual event times are ignored by the wall clock: the makespan
        // is whatever real time has elapsed at the last completion.
        rec.complete(&resp, SimTime::ZERO, SimTime(u64::MAX), 0.0);
        let stats = rec.finish(0.0, 0.0);
        assert_eq!(stats.completed, 1);
        assert!(
            stats.makespan < SimTime(u64::MAX),
            "wall makespan is real elapsed time, not the virtual event time"
        );
    }
}
