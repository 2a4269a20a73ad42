//! # edgstr-placement — the autonomous tier-placement controller
//!
//! EdgStr's paper leaves the core replicate-or-not decision per service to
//! a developer consultation (§III-B). This crate closes that loop: a
//! control-plane component that chooses a per-service placement —
//! [`Placement::EdgeReplicate`], [`Placement::EdgeCacheOnly`], or
//! [`Placement::CloudPin`] — from *static* signals (whether the transform
//! replicated the service, whether its responses are cacheable) plus a sliding
//! window of *live* telemetry (read ratio, cache hit rate, sync bytes
//! attributable to the service, observed/estimated serve costs), and
//! re-decides online as the workload drifts.
//!
//! The controller is deliberately pure and deterministic: decisions are a
//! function of the registered signals, the accumulated window, and the
//! policy — never of wall-clock time or an unseeded RNG — so a recorded
//! decision schedule can be replayed bit-identically (the digest-parity
//! gate of experiment E18). Hysteresis comes from three mechanisms:
//!
//! 1. a **dead zone** between the promote and demote read-ratio thresholds
//!    where the current placement is kept,
//! 2. a **confirmation streak**: a new target must win `confirm_windows`
//!    consecutive decision windows before a transition is emitted, and
//! 3. a **cooldown**: at most one transition per service per `cooldown`.
//!
//! Together these provably bound decision flips under an alternating
//! read/write square-wave (see the property tests).

use edgstr_analysis::EffectSummary;
use edgstr_net::Verb;
use edgstr_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A service is addressed the same way the runtime routes it.
pub type ServiceKey = (Verb, String);

/// Where one service's requests are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Placement {
    /// Always forward to the cloud master over the WAN.
    CloudPin,
    /// Forward to the cloud, but consult (and fill) the edge response
    /// cache first — the stateless-at-the-edge placement.
    EdgeCacheOnly,
    /// Serve locally on the edge replica from CRDT-replicated state.
    EdgeReplicate,
}

impl Placement {
    /// Ordering used to classify transitions: a rank increase is a
    /// promotion (toward the edge), a decrease a demotion.
    pub fn rank(self) -> u8 {
        match self {
            Placement::CloudPin => 0,
            Placement::EdgeCacheOnly => 1,
            Placement::EdgeReplicate => 2,
        }
    }

    /// Stable label for telemetry and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Placement::CloudPin => "cloud_pin",
            Placement::EdgeCacheOnly => "edge_cache_only",
            Placement::EdgeReplicate => "edge_replicate",
        }
    }
}

/// Static, workload-independent signals about one service, derived from
/// the transformation report and the profiled effect summary.
#[derive(Debug, Clone, Default)]
pub struct StaticSignals {
    /// The transform emitted this service on the replica (all its state is
    /// CRDT-bindable). Without this, `EdgeReplicate` is unreachable.
    pub replicable: bool,
    /// The effect summary is sound for response caching.
    pub cacheable: bool,
}

impl StaticSignals {
    /// Derive signals from a profiled effect summary.
    pub fn from_summary(summary: &EffectSummary, replicable: bool) -> Self {
        StaticSignals {
            replicable,
            cacheable: summary.cacheable,
        }
    }
}

/// One completed request, as the runtime reports it to the controller.
///
/// Costs come in matched pairs so every placement has an opinion about the
/// road not taken: a locally-served request carries its *actual* local
/// cost and an *estimated* forward cost (WAN round-trip + unloaded cloud
/// compute); a forwarded request carries its *actual* forward cost and an
/// *estimated* local cost. `local_demand_us` is always the **unloaded**
/// edge compute estimate — it feeds the utilization signal, which must
/// reflect offered demand rather than queueing feedback (otherwise a
/// demotion that empties the edge queue would immediately argue for
/// promotion, and the controller would flap).
#[derive(Debug, Clone, Copy, Default)]
pub struct Observation {
    /// The profiled summary has writes (effectful request).
    pub write: bool,
    /// Served from an edge response cache.
    pub cache_hit: bool,
    /// Actual (local serve) or estimated (forwarded) edge cost, µs.
    pub local_us: u64,
    /// Actual (forwarded) or estimated (local serve) cloud round-trip, µs.
    pub forward_us: u64,
    /// Unloaded edge compute time for this request, µs.
    pub local_demand_us: u64,
}

/// Telemetry accumulated for one service since the last decision window
/// closed.
#[derive(Debug, Clone, Default)]
struct WindowSample {
    requests: u64,
    writes: u64,
    cache_hits: u64,
    local_us: u64,
    forward_us: u64,
    local_demand_us: u64,
    sync_bytes: u64,
}

/// A closed decision window, summarized — the controller's input and the
/// runtime's gauge source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSummary {
    /// Requests observed in the window.
    pub requests: u64,
    /// Effectful requests observed.
    pub writes: u64,
    /// Reads / requests (1.0 when the window is empty of requests).
    pub read_ratio: f64,
    /// Cache hits / reads.
    pub hit_rate: f64,
    /// Mean edge-side cost per request, µs (actual or estimated).
    pub mean_local_us: f64,
    /// Mean cloud round-trip per request, µs (actual or estimated).
    pub mean_forward_us: f64,
    /// Sync traffic attributed to this service's write units, bytes.
    pub sync_bytes: u64,
    /// Offered edge compute demand / (window length × edge cores).
    pub utilization: f64,
}

impl WindowSummary {
    fn from_sample(s: &WindowSample, window: SimDuration, cores: f64) -> WindowSummary {
        let reads = s.requests.saturating_sub(s.writes);
        let cap_us = window.0 as f64 * cores.max(1.0);
        WindowSummary {
            requests: s.requests,
            writes: s.writes,
            read_ratio: if s.requests == 0 {
                1.0
            } else {
                reads as f64 / s.requests as f64
            },
            hit_rate: if reads == 0 {
                0.0
            } else {
                s.cache_hits as f64 / reads as f64
            },
            mean_local_us: if s.requests == 0 {
                0.0
            } else {
                s.local_us as f64 / s.requests as f64
            },
            mean_forward_us: if s.requests == 0 {
                0.0
            } else {
                s.forward_us as f64 / s.requests as f64
            },
            sync_bytes: s.sync_bytes,
            utilization: if cap_us <= 0.0 {
                0.0
            } else {
                s.local_demand_us as f64 / cap_us
            },
        }
    }

    /// Sync bytes per effectful request (`None` without writes).
    pub fn sync_bytes_per_write(&self) -> Option<f64> {
        (self.writes > 0).then(|| self.sync_bytes as f64 / self.writes as f64)
    }
}

/// Thresholds and hysteresis knobs for the placement decision.
#[derive(Debug, Clone)]
pub struct PlacementPolicy {
    /// Windows with fewer requests than this carry no opinion: the streak
    /// is left unchanged rather than reset, so sparse traffic neither
    /// triggers nor cancels a pending transition.
    pub min_requests: u64,
    /// Read ratio at or above which a service is read-heavy.
    pub promote_read_ratio: f64,
    /// Read ratio at or below which a service is write-heavy.
    pub demote_read_ratio: f64,
    /// Cache hit rate making `EdgeCacheOnly` viable for a cacheable
    /// service that cannot (or should not) replicate.
    pub cache_hit_floor: f64,
    /// Local serving is acceptable while
    /// `mean_local <= mean_forward * compute_margin`.
    pub compute_margin: f64,
    /// Offered edge utilization above which the service is shed to the
    /// cloud regardless of per-request costs.
    pub max_utilization: f64,
    /// Re-entry band: promotion back to the edge additionally requires
    /// `utilization <= max_utilization * reentry_fraction`, so a service
    /// hovering at the capacity cliff does not oscillate.
    pub reentry_fraction: f64,
    /// Sync bytes per write above which replication is considered too
    /// chatty to keep at the edge.
    pub sync_bytes_per_write_ceiling: f64,
    /// Consecutive windows a new target must win before a transition.
    pub confirm_windows: u32,
    /// Minimum virtual time between transitions of one service.
    pub cooldown: SimDuration,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy {
            min_requests: 8,
            promote_read_ratio: 0.75,
            demote_read_ratio: 0.40,
            cache_hit_floor: 0.5,
            compute_margin: 1.0,
            max_utilization: 0.7,
            reentry_fraction: 0.8,
            sync_bytes_per_write_ceiling: 64.0 * 1024.0,
            confirm_windows: 2,
            cooldown: SimDuration::from_secs(3),
        }
    }
}

/// Why a decision chose its target — carried on the decision and into the
/// telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Read ratio rose above the promote threshold.
    ReadHeavy,
    /// Read ratio fell below the demote threshold.
    WriteHeavy,
    /// Offered edge demand exceeded the utilization ceiling.
    EdgeOverload,
    /// Forwarding is cheaper than local compute for this service.
    ForwardCheaper,
    /// The cache absorbs enough reads to serve from the edge cache alone.
    CacheAbsorbs,
    /// Replication sync traffic per write exceeded the ceiling.
    SyncTooChatty,
    /// The service cannot replicate; only cache/pin placements apply.
    NotReplicable,
}

impl DecisionReason {
    /// Stable label for telemetry and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::ReadHeavy => "read_heavy",
            DecisionReason::WriteHeavy => "write_heavy",
            DecisionReason::EdgeOverload => "edge_overload",
            DecisionReason::ForwardCheaper => "forward_cheaper",
            DecisionReason::CacheAbsorbs => "cache_absorbs",
            DecisionReason::SyncTooChatty => "sync_too_chatty",
            DecisionReason::NotReplicable => "not_replicable",
        }
    }
}

/// One emitted placement change.
#[derive(Debug, Clone)]
pub struct Decision {
    pub service: ServiceKey,
    pub from: Placement,
    pub to: Placement,
    pub at: SimTime,
    pub reason: DecisionReason,
    /// The window that confirmed the transition.
    pub window: WindowSummary,
}

/// The desired placement for one window, given the static signals, the
/// window summary, and the current placement. Pure: this is the function
/// the determinism property tests pin down.
pub fn desired_placement(
    signals: &StaticSignals,
    w: &WindowSummary,
    policy: &PlacementPolicy,
    current: Placement,
) -> (Placement, DecisionReason) {
    if w.requests < policy.min_requests {
        return (current, DecisionReason::ReadHeavy);
    }
    let cache_viable = signals.cacheable && w.hit_rate >= policy.cache_hit_floor;
    if !signals.replicable {
        return if cache_viable && w.read_ratio >= policy.promote_read_ratio {
            (Placement::EdgeCacheOnly, DecisionReason::CacheAbsorbs)
        } else {
            (Placement::CloudPin, DecisionReason::NotReplicable)
        };
    }
    // offered demand above the edge's capacity ceiling: shed to the cloud
    // before any per-request cost comparison
    if w.utilization > policy.max_utilization {
        return (Placement::CloudPin, DecisionReason::EdgeOverload);
    }
    let local_ok = w.mean_local_us <= w.mean_forward_us * policy.compute_margin;
    let reentry_ok = w.utilization <= policy.max_utilization * policy.reentry_fraction;
    if w.read_ratio >= policy.promote_read_ratio {
        if local_ok && reentry_ok {
            (Placement::EdgeReplicate, DecisionReason::ReadHeavy)
        } else if cache_viable {
            (Placement::EdgeCacheOnly, DecisionReason::CacheAbsorbs)
        } else {
            (Placement::CloudPin, DecisionReason::ForwardCheaper)
        }
    } else if w.read_ratio <= policy.demote_read_ratio {
        let chatty = w
            .sync_bytes_per_write()
            .is_some_and(|b| b > policy.sync_bytes_per_write_ceiling);
        if chatty {
            (Placement::CloudPin, DecisionReason::SyncTooChatty)
        } else if local_ok && reentry_ok {
            (Placement::EdgeReplicate, DecisionReason::WriteHeavy)
        } else {
            (Placement::CloudPin, DecisionReason::ForwardCheaper)
        }
    } else {
        // dead zone: keep the current placement
        (current, DecisionReason::ReadHeavy)
    }
}

#[derive(Debug)]
struct ServiceState {
    signals: StaticSignals,
    current: Placement,
    window: WindowSample,
    /// Last closed window, kept for gauges.
    last_summary: WindowSummary,
    streak_target: Option<Placement>,
    streak: u32,
    last_transition: Option<SimTime>,
}

/// The per-deployment placement controller: registered services, their
/// accumulating windows, and the hysteresis state machine.
#[derive(Debug)]
pub struct PlacementController {
    policy: PlacementPolicy,
    /// Effective edge core count used for the utilization signal.
    edge_cores: f64,
    services: BTreeMap<ServiceKey, ServiceState>,
    last_tick: Option<SimTime>,
}

impl PlacementController {
    pub fn new(policy: PlacementPolicy, edge_cores: f64) -> PlacementController {
        PlacementController {
            policy,
            edge_cores,
            services: BTreeMap::new(),
            last_tick: None,
        }
    }

    pub fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Register one service with its static signals and starting
    /// placement. Re-registration resets the service's window state.
    pub fn register(&mut self, key: ServiceKey, signals: StaticSignals, initial: Placement) {
        self.services.insert(
            key,
            ServiceState {
                signals,
                current: initial,
                window: WindowSample::default(),
                last_summary: WindowSummary::default(),
                streak_target: None,
                streak: 0,
                last_transition: None,
            },
        );
    }

    /// The controller's view of a service's placement (decision-time view;
    /// the runtime's effective placement may lag while a transition
    /// barrier drains).
    pub fn placement(&self, key: &ServiceKey) -> Option<Placement> {
        self.services.get(key).map(|s| s.current)
    }

    /// Feed one completed request into the service's open window.
    pub fn observe(&mut self, key: &ServiceKey, obs: Observation) {
        if let Some(s) = self.services.get_mut(key) {
            s.window.requests += 1;
            s.window.writes += u64::from(obs.write);
            s.window.cache_hits += u64::from(obs.cache_hit);
            s.window.local_us += obs.local_us;
            s.window.forward_us += obs.forward_us;
            s.window.local_demand_us += obs.local_demand_us;
        }
    }

    /// Attribute sync traffic to the service's open window.
    pub fn observe_sync_bytes(&mut self, key: &ServiceKey, bytes: u64) {
        if let Some(s) = self.services.get_mut(key) {
            s.window.sync_bytes += bytes;
        }
    }

    /// Registered services with their current placement and last closed
    /// window — the runtime's gauge source.
    pub fn snapshot(&self) -> Vec<(ServiceKey, Placement, WindowSummary)> {
        self.services
            .iter()
            .map(|(k, s)| (k.clone(), s.current, s.last_summary.clone()))
            .collect()
    }

    /// Close every service's window at `now` and emit confirmed
    /// transitions. Deterministic: services are visited in key order and
    /// the decision function is pure.
    pub fn tick(&mut self, now: SimTime) -> Vec<Decision> {
        let window = self
            .last_tick
            .map_or(SimDuration::from_secs(1), |prev| now.since(prev));
        self.last_tick = Some(now);
        let mut decisions = Vec::new();
        for (key, s) in self.services.iter_mut() {
            let summary = WindowSummary::from_sample(&s.window, window, self.edge_cores);
            let thin = s.window.requests < self.policy.min_requests;
            s.window = WindowSample::default();
            if thin {
                // no evidence: keep the streak frozen
                s.last_summary = summary;
                continue;
            }
            let (target, reason) = desired_placement(&s.signals, &summary, &self.policy, s.current);
            if target == s.current {
                s.streak_target = None;
                s.streak = 0;
            } else if s.streak_target == Some(target) {
                s.streak += 1;
            } else {
                s.streak_target = Some(target);
                s.streak = 1;
            }
            let cooled = s
                .last_transition
                .is_none_or(|t| now.since(t) >= self.policy.cooldown);
            if s.streak >= self.policy.confirm_windows && cooled {
                decisions.push(Decision {
                    service: key.clone(),
                    from: s.current,
                    to: target,
                    at: now,
                    reason,
                    window: summary.clone(),
                });
                s.current = target;
                s.streak_target = None;
                s.streak = 0;
                s.last_transition = Some(now);
            }
            s.last_summary = summary;
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str) -> ServiceKey {
        (Verb::Get, path.to_string())
    }

    fn replicable() -> StaticSignals {
        StaticSignals {
            replicable: true,
            cacheable: true,
        }
    }

    fn read_window(n: u64) -> Observation {
        let _ = n;
        Observation {
            write: false,
            cache_hit: false,
            local_us: 200,
            forward_us: 50_000,
            local_demand_us: 200,
        }
    }

    fn write_heavy_window() -> Observation {
        Observation {
            write: true,
            cache_hit: false,
            local_us: 30_000,
            forward_us: 9_000,
            local_demand_us: 28_000,
        }
    }

    fn feed(c: &mut PlacementController, k: &ServiceKey, obs: Observation, n: u64) {
        for _ in 0..n {
            c.observe(k, obs);
        }
    }

    #[test]
    fn read_heavy_replicable_service_promotes_after_confirmation() {
        let mut c = PlacementController::new(PlacementPolicy::default(), 4.0);
        let k = key("/dash");
        c.register(k.clone(), replicable(), Placement::CloudPin);
        feed(&mut c, &k, read_window(0), 50);
        assert!(
            c.tick(SimTime(1_000_000)).is_empty(),
            "one window is not enough"
        );
        feed(&mut c, &k, read_window(1), 50);
        let d = c.tick(SimTime(5_000_000));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, Placement::EdgeReplicate);
        assert_eq!(d[0].reason, DecisionReason::ReadHeavy);
        assert_eq!(c.placement(&k), Some(Placement::EdgeReplicate));
    }

    #[test]
    fn write_heavy_costly_service_demotes_to_cloud() {
        let mut c = PlacementController::new(PlacementPolicy::default(), 4.0);
        let k = key("/ingest");
        c.register(k.clone(), replicable(), Placement::EdgeReplicate);
        for t in 1..=2u64 {
            feed(&mut c, &k, write_heavy_window(), 40);
            let d = c.tick(SimTime(t * 4_000_000));
            if t == 2 {
                assert_eq!(d.len(), 1);
                assert_eq!(d[0].to, Placement::CloudPin);
                assert_eq!(d[0].reason, DecisionReason::ForwardCheaper);
            } else {
                assert!(d.is_empty());
            }
        }
    }

    #[test]
    fn overload_sheds_to_cloud_and_reentry_band_prevents_flapping() {
        let policy = PlacementPolicy {
            cooldown: SimDuration::from_secs(0),
            ..PlacementPolicy::default()
        };
        let mut c = PlacementController::new(policy, 4.0);
        let k = key("/ingest");
        c.register(k.clone(), replicable(), Placement::EdgeReplicate);
        // 300 writes/s at 28 ms unloaded each: offered utilization ~2.1
        let overload = Observation {
            write: true,
            cache_hit: false,
            local_us: 90_000,
            forward_us: 60_000,
            local_demand_us: 28_000,
        };
        for t in 1..=2u64 {
            feed(&mut c, &k, overload, 300);
            let d = c.tick(SimTime(t * 1_000_000));
            if t == 2 {
                assert_eq!(d[0].to, Placement::CloudPin);
                assert_eq!(d[0].reason, DecisionReason::EdgeOverload);
            }
        }
        // after shedding, forwarded observations keep the *unloaded* local
        // demand estimate: utilization stays above the ceiling, so the
        // controller must not promote back
        let forwarded = Observation {
            write: true,
            cache_hit: false,
            local_us: 28_000,
            forward_us: 62_000,
            local_demand_us: 28_000,
        };
        for t in 3..=8u64 {
            feed(&mut c, &k, forwarded, 300);
            assert!(
                c.tick(SimTime(t * 1_000_000)).is_empty(),
                "overloaded service must stay shed at tick {t}"
            );
        }
    }

    #[test]
    fn non_replicable_cacheable_read_service_goes_cache_only() {
        let mut c = PlacementController::new(PlacementPolicy::default(), 4.0);
        let k = key("/lookup");
        let signals = StaticSignals {
            replicable: false,
            ..replicable()
        };
        c.register(k.clone(), signals, Placement::CloudPin);
        let hit = Observation {
            write: false,
            cache_hit: true,
            local_us: 300,
            forward_us: 50_000,
            local_demand_us: 300,
        };
        for t in 1..=2u64 {
            feed(&mut c, &k, hit, 30);
            let d = c.tick(SimTime(t * 4_000_000));
            if t == 2 {
                assert_eq!(d[0].to, Placement::EdgeCacheOnly);
                assert_eq!(d[0].reason, DecisionReason::CacheAbsorbs);
            }
        }
        assert_eq!(c.placement(&k), Some(Placement::EdgeCacheOnly));
    }

    #[test]
    fn sync_chatty_writes_pin_to_cloud() {
        let policy = PlacementPolicy {
            sync_bytes_per_write_ceiling: 100.0,
            ..PlacementPolicy::default()
        };
        let mut c = PlacementController::new(policy, 4.0);
        let k = key("/blob");
        c.register(k.clone(), replicable(), Placement::EdgeReplicate);
        let w = Observation {
            write: true,
            cache_hit: false,
            local_us: 500,
            forward_us: 50_000,
            local_demand_us: 500,
        };
        for t in 1..=2u64 {
            feed(&mut c, &k, w, 20);
            c.observe_sync_bytes(&k, 400_000);
            let d = c.tick(SimTime(t * 4_000_000));
            if t == 2 {
                assert_eq!(d[0].to, Placement::CloudPin);
                assert_eq!(d[0].reason, DecisionReason::SyncTooChatty);
            }
        }
    }

    #[test]
    fn thin_windows_freeze_the_streak() {
        let mut c = PlacementController::new(PlacementPolicy::default(), 4.0);
        let k = key("/dash");
        c.register(k.clone(), replicable(), Placement::CloudPin);
        feed(&mut c, &k, read_window(0), 50);
        assert!(c.tick(SimTime(1_000_000)).is_empty());
        // a thin window neither advances nor cancels the pending streak
        feed(&mut c, &k, read_window(0), 2);
        assert!(c.tick(SimTime(2_000_000)).is_empty());
        feed(&mut c, &k, read_window(0), 50);
        let d = c.tick(SimTime(5_000_000));
        assert_eq!(d.len(), 1, "streak must survive the thin window");
    }

    #[test]
    fn cooldown_delays_confirmed_transition() {
        let policy = PlacementPolicy {
            cooldown: SimDuration::from_secs(10),
            ..PlacementPolicy::default()
        };
        let mut c = PlacementController::new(policy, 4.0);
        let k = key("/dash");
        c.register(k.clone(), replicable(), Placement::CloudPin);
        // first transition at t=2s
        for t in 1..=2u64 {
            feed(&mut c, &k, read_window(0), 50);
            c.tick(SimTime(t * 1_000_000));
        }
        assert_eq!(c.placement(&k), Some(Placement::EdgeReplicate));
        // now alternate toward write-heavy; confirmed at t=4s but cooled
        // down until t=12s
        let w = write_heavy_window();
        for t in 3..=11u64 {
            feed(&mut c, &k, w, 40);
            assert!(
                c.tick(SimTime(t * 1_000_000)).is_empty(),
                "cooldown must hold at t={t}s"
            );
        }
        feed(&mut c, &k, w, 40);
        let d = c.tick(SimTime(12_000_000));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to, Placement::CloudPin);
    }

    #[test]
    fn window_summary_ratios() {
        let s = WindowSample {
            requests: 10,
            writes: 2,
            cache_hits: 4,
            local_us: 1000,
            forward_us: 5000,
            local_demand_us: 800,
            sync_bytes: 640,
        };
        let w = WindowSummary::from_sample(&s, SimDuration::from_secs(1), 4.0);
        assert!((w.read_ratio - 0.8).abs() < 1e-9);
        assert!((w.hit_rate - 0.5).abs() < 1e-9);
        assert!((w.mean_local_us - 100.0).abs() < 1e-9);
        assert!((w.mean_forward_us - 500.0).abs() < 1e-9);
        assert_eq!(w.sync_bytes_per_write(), Some(320.0));
        assert!((w.utilization - 800.0 / 4_000_000.0).abs() < 1e-12);
    }
}
