//! End-to-end system drivers: the original two-tier (client ↔ cloud)
//! deployment and the EdgStr-generated three-tier (client ↔ edge ↔ cloud)
//! deployment, executed over virtual time.
//!
//! These drivers power every performance experiment: throughput vs WAN
//! speed (Fig. 7), latency (Table II), mobile energy (Fig. 8), cluster
//! scaling and elasticity (Fig. 9), and synchronization traffic (Fig. 10a).

use crate::balancer::{Autoscaler, BalanceStrategy, LoadBalancer};
use crate::cache::{CachePolicy, CacheStats, ResponseCache};
use crate::crdtset::{CrdtSet, SetChanges, SetClock, SyncEndpoint};
use crate::driver::RunRecorder;
pub use crate::driver::{FaultPolicy, MobilePower, RunStats, TimedRequest, Workload};
use crate::replica::{
    cache_plan, handle_profiled, BitFlipCorruptor, CachePlan, ReplicaCore, ReplicaKind,
    ReplicaTemplate, Served,
};
use crate::tiering::{
    PendingTransition, PlacementMode, PlacementStats, ScriptedDecision, TransitionBarrier,
    TransitionRecord,
};
use edgstr_analysis::{
    EffectSummary, ExecMode, InitState, ReadUnit, ServerError, ServerProcess, StateUnit,
};
use edgstr_core::TransformationReport;
use edgstr_crdt::{ActorId, AdvanceMode};
use edgstr_lang::Program;
use edgstr_net::{
    CrashEvent, CrashKind, CrashPlan, FaultPlan, HttpRequest, HttpResponse, LinkChannel, LinkSpec,
    Verb,
};
use edgstr_placement::{Observation, Placement, PlacementController, StaticSignals};
use edgstr_sim::{Clock, DetRng, Device, DeviceSpec, PowerState, SimDuration, SimTime};
use edgstr_telemetry::{Counter, SpanId, StmtProfiler, Telemetry, Tier};
use serde_json::Value as Json;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Two-tier (original client-cloud) driver
// ---------------------------------------------------------------------------

/// The original two-tier deployment: clients call the cloud over the WAN.
#[derive(Debug)]
pub struct TwoTierSystem {
    pub server: ServerProcess,
    pub device: Device,
    pub wan: LinkSpec,
    pub mobile: MobilePower,
    /// Observability sink; disabled by default and free when disabled.
    pub telemetry: Telemetry,
    wan_up: LinkChannel,
    wan_down: LinkChannel,
}

impl TwoTierSystem {
    /// Build from server source; runs the init phase.
    ///
    /// # Errors
    ///
    /// Propagates parse/init failures.
    pub fn new(source: &str, device: DeviceSpec, wan: LinkSpec) -> Result<Self, ServerError> {
        let mut server = ServerProcess::from_source(source)?;
        server.init()?;
        Ok(TwoTierSystem {
            server,
            device: Device::new(device),
            wan,
            mobile: MobilePower::default(),
            telemetry: Telemetry::disabled(),
            wan_up: LinkChannel::new(wan),
            wan_down: LinkChannel::new(wan),
        })
    }

    /// Execute `workload`, returning measurements.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let telemetry = self.telemetry.clone();
        // Virtual-time driver: the run is clocked by the deterministic
        // simulation frontier, never by the host. The wall-clock sibling
        // lives in [`crate::parallel`].
        let mut rec = RunRecorder::with_clock(&telemetry, Clock::virtual_clock());
        let profiler = request_profiler(&telemetry);
        for tr in &workload.requests {
            let span = if telemetry.is_enabled() {
                telemetry.start_span_with(
                    "request",
                    Tier::Client,
                    None,
                    tr.at,
                    request_attrs(&tr.request),
                )
            } else {
                SpanId::NULL
            };
            let arrive = self.wan_up.send(tr.at, tr.request.size());
            let up = arrive - tr.at;
            match handle_profiled(&mut self.server, &tr.request, &profiler) {
                Ok(out) => {
                    let serve = telemetry.start_span("serve", Tier::Cloud, Some(span), arrive);
                    let (_, finish) = self.device.schedule_work(arrive, out.cycles);
                    telemetry.end_span(serve, finish);
                    let resp_bytes = out.response.size();
                    let done = self.wan_down.send(finish, resp_bytes);
                    rec.add_wan_request_bytes(tr.request.size() + resp_bytes);
                    let wait = finish - arrive;
                    let energy = self.mobile.request_energy_j(up, done - finish, wait);
                    rec.complete(&out.response, tr.at, done, energy);
                    telemetry.end_span(span, done);
                }
                Err(_) => {
                    rec.fail();
                    telemetry.event("request.failed", Tier::Cloud, Some(span), arrive, &[]);
                    telemetry.end_span(span, arrive);
                }
            }
        }
        let cloud_energy = self.device.energy_joules(rec.makespan());
        rec.finish(cloud_energy, 0.0)
    }
}

/// The shared per-statement profiler, when this run should profile.
fn request_profiler(telemetry: &Telemetry) -> Option<Rc<RefCell<StmtProfiler>>> {
    if telemetry.profiling_enabled() {
        telemetry.profiler()
    } else {
        None
    }
}

/// A diversified shadow variant for the multi-variant check: the same
/// replica program on the tree-walking engine (the primary serves
/// compiled), so an engine-level fault cannot corrupt both variants the
/// same way.
fn build_shadow(program: &Program, init: &InitState) -> Result<ServerProcess, ServerError> {
    let mut shadow = ServerProcess::from_program_with_mode(program.clone(), ExecMode::TreeWalking);
    shadow.init()?;
    init.restore(&mut shadow);
    Ok(shadow)
}

/// Verb/path attributes for a request span, built once so the span opens
/// with them in a single trace-log borrow (enabled mode only — callers
/// guard with [`Telemetry::is_enabled`] to keep the disabled path
/// allocation-free).
fn request_attrs(request: &HttpRequest) -> Vec<(&'static str, Json)> {
    vec![
        ("verb", Json::from(request.verb.as_str())),
        ("path", Json::from(request.path.as_str())),
    ]
}

// ---------------------------------------------------------------------------
// Three-tier (EdgStr-transformed) driver
// ---------------------------------------------------------------------------

/// High-availability policy for the cloud master (§failure & recovery).
///
/// With a warm standby, the master replicates every sync delta (and every
/// forwarded write) to a second cloud replica over the reliable intra-DC
/// link before the round's acknowledgments go out; a deterministic health
/// monitor promotes the standby `detect_delay` after a master crash.
/// `ack_capping` is the zero-acked-write-loss mechanism: acknowledgment
/// clocks sent to the edges are capped at the durability frontier (what
/// the standby — or the last durable save image — provably holds), so no
/// replica ever compacts state the failover target could be missing.
#[derive(Debug, Clone)]
pub struct HaPolicy {
    /// Run a warm-standby cloud replica and promote it on master crash.
    pub standby: bool,
    /// Health-monitor detection delay between master crash and promotion.
    pub detect_delay: SimDuration,
    /// Persist a durable save image of the master after every sync round
    /// and every forwarded write (the recovery source when no standby is
    /// configured).
    pub durable_saves: bool,
    /// Cap acks at the durability frontier. Disabling this is the unsafe
    /// ablation: acked writes can vanish when the master dies.
    pub ack_capping: bool,
}

impl Default for HaPolicy {
    fn default() -> Self {
        HaPolicy {
            standby: true,
            detect_delay: SimDuration::from_millis(500),
            durable_saves: true,
            ack_capping: true,
        }
    }
}

/// Multi-variant faulty-replica detection policy.
///
/// A sampled fraction of eligible replicated requests is shadow-executed
/// on a diversified second variant (the tree-walking engine, vs the
/// compiled primary) fed from the same CRDT state; response digests are
/// compared. A replica exceeding `mismatch_budget` mismatches is
/// quarantined, drained, and re-provisioned from the cloud save image.
#[derive(Debug, Clone)]
pub struct QuarantinePolicy {
    /// Fraction of eligible requests shadow-checked (0.0–1.0).
    pub check_fraction: f64,
    /// Mismatches tolerated before the replica is quarantined.
    pub mismatch_budget: u32,
    /// Seed for the check-sampling stream.
    pub seed: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            check_fraction: 0.25,
            mismatch_budget: 3,
            seed: 0x51A5,
        }
    }
}

/// Accumulated failure/recovery observations across a system's lifetime.
#[derive(Debug, Clone, Default)]
pub struct HaStats {
    /// Edge processes crashed (scheduled or manual).
    pub edge_crashes: u32,
    /// Edge processes restarted and re-provisioned.
    pub edge_restarts: u32,
    /// Cloud-master crashes observed.
    pub master_crashes: u32,
    /// Standby promotions performed.
    pub failovers: u32,
    /// Master recoveries from a durable save image (no standby).
    pub durable_recoveries: u32,
    /// `(crash, recovered)` times for each completed master outage.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Shadow executions compared against the primary.
    pub shadow_checks: u64,
    /// Digest mismatches observed across all replicas.
    pub shadow_mismatches: u64,
    /// `(edge index, time)` of each quarantine.
    pub quarantines: Vec<(usize, SimTime)>,
    /// Ack clocks snapshotted at every crash (each edge's acked prefix at
    /// its own crash; every live edge's acked prefix at a master crash).
    /// The zero-acked-write-loss audit: the final converged master clock
    /// must dominate every snapshot.
    pub acked_snapshots: Vec<SetClock>,
}

impl HaStats {
    /// Total master unavailability across completed outages.
    pub fn master_downtime(&self) -> SimDuration {
        SimDuration(self.outages.iter().map(|(c, r)| r.since(*c).0).sum())
    }

    /// Recovery time of each completed master outage.
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.outages.iter().map(|(c, r)| r.since(*c)).collect()
    }
}

/// Whether the fault plan, if there is one, drops the WAN message `from`
/// sends `to` at `at`. Every message consults it, delivered or not, so
/// the plan's per-link streams advance the same way in every run.
fn wan_drops(faults: &mut Option<FaultPlan>, from: &str, to: &str, at: SimTime) -> bool {
    faults.as_mut().is_some_and(|p| p.should_drop(from, to, at))
}

/// Telemetry label for a service key: `"GET /path"`.
fn service_label(key: &(Verb, String)) -> String {
    format!("{} {}", key.0, key.1)
}

/// Clamp a requested placement to what the service supports:
/// `EdgeReplicate` needs the report to have replicated the service;
/// otherwise the best remaining placement is cache-only (when the profile
/// is cacheable) or the cloud.
fn clamp_placement(requested: Placement, replicable: bool, cacheable: bool) -> Placement {
    match requested {
        Placement::EdgeReplicate if !replicable => {
            if cacheable {
                Placement::EdgeCacheOnly
            } else {
                Placement::CloudPin
            }
        }
        p => p,
    }
}

/// Byte footprint of a service's write set in the given CRDT state (the
/// `edgstr_service_state_bytes` gauge and the controller's static
/// state-footprint signal).
fn service_state_bytes(crdts: &CrdtSet, summary: &EffectSummary) -> u64 {
    let mut bytes = 0u64;
    for w in &summary.writes {
        bytes += match w {
            StateUnit::DbTable(t) => crdts
                .tables
                .get(t)
                .map_or(0, |t| t.to_json().to_string().len() as u64),
            StateUnit::File(f) => crdts.files.size(f).unwrap_or(0),
            StateUnit::Global(g) => match crdts.globals.to_json() {
                Json::Object(m) => m.get(g).map_or(0, |v| v.to_string().len() as u64),
                _ => 0,
            },
        };
    }
    bytes
}

/// Split one sync message's wire bytes across the services that write the
/// units it carries (equal share per writer), at change-count granularity
/// — the controller's per-service sync-traffic signal.
fn attribute_changes(
    unit_writers: &BTreeMap<StateUnit, Vec<(Verb, String)>>,
    msg_bytes: u64,
    changes: &SetChanges,
    out: &mut Vec<((Verb, String), u64)>,
) {
    fn share_out(out: &mut Vec<((Verb, String), u64)>, writers: &[(Verb, String)], bytes: u64) {
        if writers.is_empty() || bytes == 0 {
            return;
        }
        let per = bytes / writers.len() as u64;
        if per > 0 {
            for w in writers {
                out.push((w.clone(), per));
            }
        }
    }
    let total = changes.len() as u64;
    if total == 0 {
        return;
    }
    for (table, ch) in &changes.tables {
        if let Some(writers) = unit_writers.get(&StateUnit::DbTable(table.clone())) {
            share_out(out, writers, msg_bytes * ch.len() as u64 / total);
        }
    }
    // file and global changes are not split per unit on the wire; their
    // byte share goes to every service writing any unit of that kind
    let kind_writers = |is_kind: &dyn Fn(&StateUnit) -> bool| -> Vec<(Verb, String)> {
        unit_writers
            .iter()
            .filter(|(u, _)| is_kind(u))
            .flat_map(|(_, w)| w.iter().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    if !changes.files.is_empty() {
        let writers = kind_writers(&|u| matches!(u, StateUnit::File(_)));
        share_out(
            out,
            &writers,
            msg_bytes * changes.files.len() as u64 / total,
        );
    }
    if !changes.globals.is_empty() {
        let writers = kind_writers(&|u| matches!(u, StateUnit::Global(_)));
        share_out(
            out,
            &writers,
            msg_bytes * changes.globals.len() as u64 / total,
        );
    }
}

/// The warm-standby cloud replica and its intra-DC replication channel.
#[derive(Debug)]
struct CloudStandby {
    core: ReplicaCore,
    /// Master-side endpoint: its `peer_clock` is what the standby has
    /// acknowledged — the durability frontier under [`HaPolicy`].
    master_link: SyncEndpoint,
    /// Standby-side endpoint.
    standby_link: SyncEndpoint,
}

/// One deployed edge replica.
#[derive(Debug)]
pub struct EdgeReplica {
    pub core: ReplicaCore,
    pub device: Device,
    pub to_cloud: SyncEndpoint,
    inflight: Vec<SimTime>,
    active: bool,
    crashed: bool,
    /// Consecutive forwarding failures (breaker input, per edge).
    breaker_failures: u32,
    /// While `Some(t)`, this edge's breaker is open until `t`.
    breaker_open_until: Option<SimTime>,
    /// Diversified shadow variant (tree-walking engine) for the
    /// multi-variant check, when a [`QuarantinePolicy`] is configured.
    shadow: Option<ServerProcess>,
    /// Digest mismatches charged against the quarantine budget.
    shadow_mismatches: u32,
}

impl EdgeReplica {
    fn prune(&mut self, now: SimTime) {
        self.inflight.retain(|f| *f > now);
    }

    /// Current active connection count.
    pub fn connections(&self) -> usize {
        self.inflight.len()
    }

    /// Whether the replica is down (crashed, not merely parked).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }
}

/// Options for the three-tier deployment.
#[derive(Debug, Clone)]
pub struct ThreeTierOptions {
    pub lan: LinkSpec,
    pub wan: LinkSpec,
    pub balance: BalanceStrategy,
    /// `Some` enables elasticity (replica parking).
    pub autoscaler: Option<Autoscaler>,
    /// Background CRDT sync period.
    pub sync_interval: SimDuration,
    /// When true, state changes sync synchronously with each request
    /// (write-through ablation) instead of in the background.
    pub synchronous_sync: bool,
    /// `Some` injects faults: every WAN message (forwarded requests and
    /// sync deltas) consults the plan before delivery. Endpoint names are
    /// `"cloud"` and `"edge{i}"`.
    pub faults: Option<FaultPlan>,
    /// Retry/timeout/breaker policy for failure forwarding.
    pub policy: FaultPolicy,
    /// How sync endpoints track peer state. `OnAck` (default) regenerates
    /// dropped deltas; `Optimistic` is the pre-fix ablation that assumes
    /// delivery and diverges under loss.
    pub sync_advance: AdvanceMode,
    /// Fold fully-acknowledged history into snapshots after every sync
    /// round (default on), keeping resident change logs bounded under
    /// steady-state sync. Disable for the unbounded-history ablation.
    pub compaction: bool,
    /// Observability sink shared by the drivers, the sync daemon and the
    /// fault plan. Disabled by default and free when disabled.
    pub telemetry: Telemetry,
    /// Which services the response caches may serve (off by default — the
    /// exact baseline the cache is measured against).
    pub cache: CachePolicy,
    /// Per-replica LRU byte budget for cached responses.
    pub cache_budget_bytes: usize,
    /// `Some` schedules process crashes: edges always honor their events;
    /// cloud-master events additionally require `ha` (without an HA policy
    /// the master is not crashable, the pre-HA semantics).
    pub crashes: Option<CrashPlan>,
    /// `Some` enables the high-availability tier: warm standby, durable
    /// saves, ack capping, and deterministic failover.
    pub ha: Option<HaPolicy>,
    /// `Some` enables multi-variant shadow checking with quarantine.
    pub quarantine: Option<QuarantinePolicy>,
    /// Per-service tier placement: report-static (default, the
    /// pre-controller semantics), a pinned ablation, the autonomous
    /// controller, or a scripted replay.
    pub placement: PlacementMode,
}

impl Default for ThreeTierOptions {
    fn default() -> Self {
        ThreeTierOptions {
            lan: LinkSpec::edge_lan(),
            wan: LinkSpec::limited_cloud(),
            balance: BalanceStrategy::LeastConnections,
            autoscaler: None,
            sync_interval: SimDuration::from_secs(1),
            synchronous_sync: false,
            faults: None,
            policy: FaultPolicy::default(),
            sync_advance: AdvanceMode::OnAck,
            compaction: true,
            telemetry: Telemetry::disabled(),
            cache: CachePolicy::Off,
            cache_budget_bytes: 256 * 1024,
            crashes: None,
            ha: None,
            quarantine: None,
            placement: PlacementMode::default(),
        }
    }
}

/// The EdgStr-generated three-tier deployment.
#[derive(Debug)]
pub struct ThreeTierSystem {
    /// The cloud master; its cache serves forwarded requests.
    pub cloud: ReplicaCore,
    pub cloud_device: Device,
    cloud_endpoints: Vec<SyncEndpoint>,
    pub edges: Vec<EdgeReplica>,
    pub options: ThreeTierOptions,
    balancer: LoadBalancer,
    /// What every replica of this deployment is provisioned from, at
    /// deploy and at every restart, recovery and standby provisioning.
    template: Arc<ReplicaTemplate>,
    /// This thread's view of `template.init`.
    init: InitState,
    pub mobile: MobilePower,
    lan_up: LinkChannel,
    lan_down: LinkChannel,
    wan_up: LinkChannel,
    wan_down: LinkChannel,
    /// Jitter stream for retry backoff (forked from the policy seed).
    jitter: DetRng,
    /// Next fresh actor id handed to a restarted replica (reusing a
    /// crashed incarnation's actor would collide with its sequence
    /// numbers).
    next_actor: u64,
    /// The warm standby, when the HA policy runs one.
    standby: Option<CloudStandby>,
    /// The master is currently crashed: sync rounds no-op and forwards
    /// fail until promotion or durable recovery.
    cloud_down: bool,
    /// Scheduled promotion time (master crash + detect delay).
    pending_promotion: Option<SimTime>,
    /// Time-ordered crash schedule drained by [`ThreeTierSystem::advance_ha`].
    crash_events: Vec<CrashEvent>,
    crash_cursor: usize,
    /// Edge restarts that arrived while the master was down; re-provisioned
    /// at the next promotion/recovery.
    deferred_restarts: Vec<usize>,
    /// Last durable save image of the master: `(bytes, clock at save)`.
    durable_image: Option<(Vec<u8>, SetClock)>,
    /// Sampling stream for the multi-variant check.
    shadow_rng: DetRng,
    ha_stats: HaStats,
    /// Effective per-service placement; routing consults this on every
    /// request. Under the default [`PlacementMode::ReportStatic`] it is
    /// exactly the report's replicated set (replicated → `EdgeReplicate`,
    /// everything else → `CloudPin`).
    placements: BTreeMap<(Verb, String), Placement>,
    /// The autonomous controller ([`PlacementMode::Adaptive`] only).
    controller: Option<PlacementController>,
    /// Decided transitions waiting on their clock-domination barriers.
    pending_transitions: Vec<PendingTransition>,
    /// Scripted decision schedule, time-ordered, with a replay cursor.
    script: Vec<ScriptedDecision>,
    script_cursor: usize,
    /// Static write-unit → writer-services map for attributing sync bytes
    /// to services (controller telemetry).
    unit_writers: BTreeMap<StateUnit, Vec<(Verb, String)>>,
    placement_stats: PlacementStats,
    /// Next background sync tick, persistent across [`ThreeTierSystem::run`]
    /// calls so multi-phase workloads never replay control-plane ticks at
    /// already-processed virtual times.
    next_sync: SimTime,
}

impl ThreeTierSystem {
    /// Deploy a transformation report: the cloud master runs the original
    /// program, each edge device runs the generated replica, and all
    /// replicas initialize from the shared snapshot (§III-G).
    ///
    /// # Errors
    ///
    /// Propagates server init failures.
    pub fn deploy(
        cloud_source: &str,
        report: &TransformationReport,
        edge_devices: &[DeviceSpec],
        mut options: ThreeTierOptions,
    ) -> Result<Self, ServerError> {
        // drops on the emulated network surface in the same trace as the
        // retries they cause
        if let Some(plan) = options.faults.as_mut() {
            plan.set_telemetry(options.telemetry.clone());
        }
        let template = Arc::new(ReplicaTemplate::from_report(cloud_source, report));
        let init = template.init.to_state();
        let fresh = |kind, actor| {
            let cache = ResponseCache::new(options.cache_budget_bytes, &options.telemetry);
            ReplicaCore::fresh(&template, &init, kind, ActorId(actor), cache)
        };
        let cloud = fresh(ReplicaKind::Master, 1)?;
        let mut edges = Vec::new();
        for (i, spec) in edge_devices.iter().enumerate() {
            let shadow = match options.quarantine {
                Some(_) => Some(build_shadow(&template.program, &init)?),
                None => None,
            };
            edges.push(EdgeReplica {
                core: fresh(ReplicaKind::Edge, 2 + i as u64)?,
                device: Device::new(spec.clone()),
                to_cloud: SyncEndpoint::starting(options.sync_advance, SetClock::default()),
                inflight: Vec::new(),
                active: true,
                crashed: false,
                breaker_failures: 0,
                breaker_open_until: None,
                shadow,
                shadow_mismatches: 0,
            });
        }
        let cloud_endpoints = (0..edges.len())
            .map(|_| SyncEndpoint::starting(options.sync_advance, SetClock::default()))
            .collect();
        let balancer = LoadBalancer::new(options.balance);
        let jitter = DetRng::new(options.policy.jitter_seed);
        let mut next_actor = 2 + edges.len() as u64;
        // warm standby: a second cloud replica initialized from the same
        // snapshot, continuously fed over the reliable intra-DC link
        let standby = if options.ha.as_ref().is_some_and(|h| h.standby) {
            let core = fresh(ReplicaKind::Master, next_actor)?;
            next_actor += 1;
            Some(CloudStandby {
                core,
                master_link: SyncEndpoint::new(),
                standby_link: SyncEndpoint::new(),
            })
        } else {
            None
        };
        let durable_image = if options.ha.as_ref().is_some_and(|h| h.durable_saves) {
            Some((cloud.crdts.save(), cloud.crdts.clock()))
        } else {
            None
        };
        let crash_events = options
            .crashes
            .as_ref()
            .map(|p| p.events().to_vec())
            .unwrap_or_default();
        let shadow_rng = DetRng::new(options.quarantine.as_ref().map_or(0, |q| q.seed));
        let (effects, replicated) = (&template.effects, &template.replicated);
        // every profiled or replicated service gets an explicit placement
        let service_keys: BTreeSet<(Verb, String)> = effects
            .keys()
            .cloned()
            .chain(replicated.iter().cloned())
            .collect();
        let natural = |key: &(Verb, String)| {
            if replicated.contains(key) {
                Placement::EdgeReplicate
            } else {
                Placement::CloudPin
            }
        };
        let mut placements = BTreeMap::new();
        for key in &service_keys {
            let p = match &options.placement {
                PlacementMode::ReportStatic | PlacementMode::Adaptive(_) => natural(key),
                PlacementMode::Pinned(p) => clamp_placement(
                    *p,
                    replicated.contains(key),
                    effects.get(key).is_some_and(|s| s.cacheable),
                ),
                PlacementMode::Scripted(script) => script.pinned.map_or(natural(key), |p| {
                    clamp_placement(
                        p,
                        replicated.contains(key),
                        effects.get(key).is_some_and(|s| s.cacheable),
                    )
                }),
            };
            placements.insert(key.clone(), p);
        }
        let controller = if let PlacementMode::Adaptive(policy) = &options.placement {
            // offered-demand utilization is measured against the cluster's
            // aggregate edge compute
            let edge_cores: f64 = edges.iter().map(|e| f64::from(e.device.spec.cores)).sum();
            let mut c = PlacementController::new(policy.clone(), edge_cores.max(1.0));
            for key in &service_keys {
                let signals = effects.get(key).map_or_else(
                    || StaticSignals {
                        replicable: replicated.contains(key),
                        ..StaticSignals::default()
                    },
                    |s| {
                        StaticSignals::from_summary(
                            s,
                            replicated.contains(key),
                            service_state_bytes(&cloud.crdts, s),
                        )
                    },
                );
                c.register(key.clone(), signals, placements[key]);
            }
            Some(c)
        } else {
            None
        };
        let mut script = match &options.placement {
            PlacementMode::Scripted(s) => s.decisions.clone(),
            _ => Vec::new(),
        };
        script.sort_by_key(|d| d.at);
        let mut unit_writers: BTreeMap<StateUnit, Vec<(Verb, String)>> = BTreeMap::new();
        for (key, summary) in effects {
            for w in &summary.writes {
                unit_writers.entry(w.clone()).or_default().push(key.clone());
            }
        }
        let mut sys = ThreeTierSystem {
            cloud,
            cloud_device: Device::new(DeviceSpec::cloud_server()),
            cloud_endpoints,
            edges,
            balancer,
            lan_up: LinkChannel::new(options.lan),
            lan_down: LinkChannel::new(options.lan),
            wan_up: LinkChannel::new(options.wan),
            wan_down: LinkChannel::new(options.wan),
            jitter,
            next_actor,
            standby,
            cloud_down: false,
            pending_promotion: None,
            crash_events,
            crash_cursor: 0,
            deferred_restarts: Vec::new(),
            durable_image,
            shadow_rng,
            ha_stats: HaStats::default(),
            next_sync: SimTime::ZERO + options.sync_interval,
            options,
            template,
            init,
            mobile: MobilePower::default(),
            placements,
            controller,
            pending_transitions: Vec::new(),
            script,
            script_cursor: 0,
            unit_writers,
            placement_stats: PlacementStats::default(),
        };
        sys.emit_initial_placements();
        Ok(sys)
    }

    /// `placement.pin` events and initial placement gauges for every
    /// service at deploy time.
    fn emit_initial_placements(&mut self) {
        let telemetry = self.options.telemetry.clone();
        if !telemetry.is_enabled() {
            return;
        }
        for (key, p) in &self.placements {
            telemetry.event(
                "placement.pin",
                Tier::System,
                None,
                SimTime::ZERO,
                &[
                    ("service", Json::from(service_label(key))),
                    ("to", Json::from(p.as_str())),
                ],
            );
        }
        if let Some(reg) = telemetry.registry() {
            for (key, p) in &self.placements {
                reg.gauge(
                    "edgstr_placement_state",
                    &[("service", &service_label(key))],
                )
                .set(f64::from(p.rank()));
            }
        }
    }

    /// The effective placement routing uses for `key` right now (pending
    /// transitions have not happened yet).
    pub fn placement_of(&self, key: &(Verb, String)) -> Placement {
        self.placements
            .get(key)
            .copied()
            .unwrap_or(Placement::CloudPin)
    }

    /// Accumulated placement decisions and completed transitions.
    pub fn placement_stats(&self) -> &PlacementStats {
        &self.placement_stats
    }

    /// Transitions decided but still waiting on their clock barriers.
    pub fn pending_transition_count(&self) -> usize {
        self.pending_transitions.len()
    }

    /// The decision schedule recorded so far — replayable verbatim as
    /// [`PlacementScript::decisions`][crate::PlacementScript] for a
    /// digest-parity reference run.
    pub fn decision_schedule(&self) -> Vec<ScriptedDecision> {
        self.placement_stats.decided.clone()
    }

    /// Placement control-plane step at a sync tick: replay due scripted
    /// decisions, run the adaptive controller over the windows that just
    /// closed, then apply any transition whose barrier is met.
    fn placement_tick(&mut self, at: SimTime) {
        while self
            .script
            .get(self.script_cursor)
            .is_some_and(|d| d.at <= at)
        {
            let d = self.script[self.script_cursor].clone();
            self.script_cursor += 1;
            self.begin_transition(d.service, d.to, d.at, "scripted");
        }
        let decisions = match self.controller.as_mut() {
            Some(c) => c.tick(at),
            None => Vec::new(),
        };
        for d in decisions {
            self.begin_transition(d.service, d.to, d.at, d.reason.as_str());
        }
        if self.controller.is_some() {
            self.publish_placement_gauges();
        }
        self.apply_ready_transitions(at);
    }

    /// Queue one placement transition. A decision made while an earlier
    /// transition of the same service is still draining chains off that
    /// transition's target, preserving per-service FIFO order.
    fn begin_transition(
        &mut self,
        service: (Verb, String),
        to: Placement,
        at: SimTime,
        reason: &str,
    ) {
        let cacheable = self
            .template
            .effects
            .get(&service)
            .is_some_and(|s| s.cacheable);
        let to = clamp_placement(to, self.template.replicated.contains(&service), cacheable);
        let from = self
            .pending_transitions
            .iter()
            .rev()
            .find(|t| t.service == service)
            .map(|t| t.to)
            .unwrap_or_else(|| self.placement_of(&service));
        if from == to {
            return;
        }
        self.placement_stats.decided.push(ScriptedDecision {
            at,
            service: service.clone(),
            to,
        });
        let barrier = if to == Placement::EdgeReplicate {
            // promotion warm-up: local serving starts only once every live
            // edge has observed at least this cloud snapshot
            TransitionBarrier::EdgesDominate(self.cloud.crdts.clock())
        } else if from == Placement::EdgeReplicate {
            // demotion drain: keep serving locally until the cloud holds
            // every edge delta that existed at decision time
            TransitionBarrier::CloudDominates(
                self.edges
                    .iter()
                    .filter(|e| !e.crashed)
                    .map(|e| e.core.crdts.clock())
                    .collect(),
            )
        } else {
            TransitionBarrier::Immediate
        };
        self.pending_transitions.push(PendingTransition {
            service,
            from,
            to,
            decided_at: at,
            reason: reason.to_string(),
            barrier,
        });
    }

    /// Apply every pending transition whose barrier is met, in decision
    /// order per service (a later transition never overtakes an earlier
    /// one that is still draining).
    fn apply_ready_transitions(&mut self, at: SimTime) {
        if self.pending_transitions.is_empty() {
            return;
        }
        let cloud_clock = self.cloud.crdts.clock();
        let mut blocked: BTreeSet<(Verb, String)> = BTreeSet::new();
        let mut i = 0;
        while i < self.pending_transitions.len() {
            let t = &self.pending_transitions[i];
            let ready = !blocked.contains(&t.service)
                && match &t.barrier {
                    TransitionBarrier::Immediate => true,
                    TransitionBarrier::EdgesDominate(snap) => self
                        .edges
                        .iter()
                        .filter(|e| !e.crashed)
                        .all(|e| e.core.crdts.clock().dominates(snap)),
                    TransitionBarrier::CloudDominates(snaps) => {
                        snaps.iter().all(|s| cloud_clock.dominates(s))
                    }
                };
            if ready {
                let t = self.pending_transitions.remove(i);
                self.complete_transition(t, at);
            } else {
                blocked.insert(self.pending_transitions[i].service.clone());
                i += 1;
            }
        }
    }

    /// Flip the effective placement, record the transition, snapshot the
    /// acked prefixes for the write-loss audit, and emit telemetry.
    fn complete_transition(&mut self, t: PendingTransition, at: SimTime) {
        self.placements.insert(t.service.clone(), t.to);
        let promote = t.to.rank() > t.from.rank();
        if promote {
            self.placement_stats.promotes += 1;
        } else {
            self.placement_stats.demotes += 1;
        }
        // audit point for zero acked-write loss: the final converged
        // master clock must dominate every live edge's acked prefix as it
        // stood at the flip
        self.placement_stats.acked_snapshots.extend(
            self.edges
                .iter()
                .filter(|e| !e.crashed)
                .map(|e| e.to_cloud.peer_clock.clone()),
        );
        let telemetry = self.options.telemetry.clone();
        if telemetry.is_enabled() {
            telemetry.event(
                if promote {
                    "placement.promote"
                } else {
                    "placement.demote"
                },
                Tier::System,
                None,
                at,
                &[
                    ("service", Json::from(service_label(&t.service))),
                    ("from", Json::from(t.from.as_str())),
                    ("to", Json::from(t.to.as_str())),
                    ("reason", Json::from(t.reason.clone())),
                ],
            );
            if let Some(reg) = telemetry.registry() {
                reg.gauge(
                    "edgstr_placement_state",
                    &[("service", &service_label(&t.service))],
                )
                .set(f64::from(t.to.rank()));
            }
        }
        self.placement_stats.transitions.push(TransitionRecord {
            service: t.service,
            from: t.from,
            to: t.to,
            decided_at: t.decided_at,
            completed_at: at,
            reason: t.reason,
        });
    }

    /// Per-service controller gauges: effective placement rank, window
    /// read ratio, and live state-byte footprint.
    fn publish_placement_gauges(&self) {
        let telemetry = &self.options.telemetry;
        let Some(reg) = telemetry.registry() else {
            return;
        };
        let Some(c) = self.controller.as_ref() else {
            return;
        };
        for (key, _, summary) in c.snapshot() {
            let label = service_label(&key);
            reg.gauge("edgstr_placement_state", &[("service", &label)])
                .set(f64::from(self.placement_of(&key).rank()));
            reg.gauge("edgstr_service_read_ratio", &[("service", &label)])
                .set(summary.read_ratio);
            let state_bytes = self
                .template
                .effects
                .get(&key)
                .map_or(0, |s| service_state_bytes(&self.cloud.crdts, s));
            reg.gauge("edgstr_service_state_bytes", &[("service", &label)])
                .set(state_bytes as f64);
        }
    }

    /// Feed one completed request into the adaptive controller's window,
    /// with matched actual/estimated costs for both serving paths. The
    /// local-demand estimate is always the *unloaded* edge compute time,
    /// so post-demotion utilization keeps reflecting offered demand rather
    /// than queueing feedback.
    fn observe_placement(
        &mut self,
        key: &(Verb, String),
        idx: usize,
        cache_hit: bool,
        forwarded: bool,
        cycles: u64,
        wait: SimDuration,
    ) {
        if self.controller.is_none() {
            return;
        }
        let write = self.template.effects.get(key).is_some_and(|s| !s.pure);
        let local_est = self.edges[idx].device.spec.service_time(cycles);
        let forward_est = SimDuration(
            self.options.wan.latency.0 * 2 + self.cloud_device.spec.service_time(cycles).0,
        );
        let obs = if forwarded {
            Observation {
                write,
                cache_hit,
                local_us: local_est.0,
                forward_us: wait.0,
                local_demand_us: local_est.0,
            }
        } else {
            Observation {
                write,
                cache_hit,
                local_us: wait.0,
                forward_us: forward_est.0,
                local_demand_us: local_est.0,
            }
        };
        if let Some(c) = self.controller.as_mut() {
            c.observe(key, obs);
        }
    }

    /// Lifetime hit/miss/eviction/invalidation counts aggregated over the
    /// cloud cache and every edge cache.
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = self.cloud.cache.stats().clone();
        for e in &self.edges {
            s.absorb(e.core.cache.stats());
        }
        s
    }

    /// One bidirectional background sync round between every live edge and
    /// the cloud master at virtual time `at`; returns the WAN bytes spent
    /// (dropped messages still consume bandwidth). When a fault plan is
    /// configured, each direction of each exchange may be dropped; under
    /// the ack protocol the lost delta is simply regenerated next round.
    /// After the exchanges, fully-acknowledged history is folded into the
    /// snapshots (unless [`ThreeTierOptions::compaction`] is off).
    pub fn sync_round(&mut self, at: SimTime) -> usize {
        self.advance_ha(at);
        if self.cloud_down {
            // no master: nothing to exchange until promotion/recovery
            return 0;
        }
        let telemetry = self.options.telemetry.clone();
        let span = telemetry.start_span("sync.round", Tier::System, None, at);
        // intra-DC first: the standby ingests this round's state before any
        // acknowledgment goes out, so the durability frontier below already
        // reflects it
        self.replicate_to_standby();
        let cap = self.durability_clock();
        let mut bytes = 0;
        let attribute = self.controller.is_some();
        let mut attributed: Vec<((Verb, String), u64)> = Vec::new();
        for (i, edge) in self.edges.iter_mut().enumerate() {
            if edge.crashed {
                continue;
            }
            let edge_name = format!("edge{i}");
            // edge -> cloud (edge_state message)
            let msg = edge.to_cloud.generate(&edge.core.crdts);
            if !msg.changes.is_empty() {
                let wire = msg.wire_size();
                bytes += wire;
                if attribute {
                    attribute_changes(
                        &self.unit_writers,
                        wire as u64,
                        &msg.changes,
                        &mut attributed,
                    );
                }
            }
            let dropped = wan_drops(&mut self.options.faults, &edge_name, "cloud", at);
            if !dropped {
                self.cloud_endpoints[i].receive_owned(
                    &mut self.cloud.crdts,
                    &mut self.cloud.server,
                    msg,
                );
            }
            // cloud -> edge (cloud_state message). Under HA the ack clock
            // is capped at the durability frontier: the edge may only
            // treat as acknowledged (and later compact) what the failover
            // target provably holds.
            let mut msg = self.cloud_endpoints[i].generate(&self.cloud.crdts);
            if let Some(cap) = &cap {
                msg.ack = msg.ack.meet(cap);
            }
            if !msg.changes.is_empty() {
                let wire = msg.wire_size();
                bytes += wire;
                if attribute {
                    attribute_changes(
                        &self.unit_writers,
                        wire as u64,
                        &msg.changes,
                        &mut attributed,
                    );
                }
            }
            let dropped = wan_drops(&mut self.options.faults, "cloud", &edge_name, at);
            if !dropped {
                edge.to_cloud
                    .receive_owned(&mut edge.core.crdts, &mut edge.core.server, msg);
            }
        }
        // changes received this round reach the standby with the next
        // round's pre-ack replication; persist the image after the
        // exchanges so recovery resumes from this round's state
        self.persist_durable();
        if self.options.compaction {
            let folded = self.compact_acked();
            if let Some(reg) = telemetry.registry() {
                reg.counter("edgstr_crdt_changes_folded_total", &[])
                    .add(folded as u64);
                reg.gauge("edgstr_crdt_resident_changes", &[])
                    .set(self.cloud.crdts.history_len() as f64);
                if folded > 0 {
                    telemetry.event(
                        "crdt.compact",
                        Tier::System,
                        Some(span),
                        at,
                        &[("folded", Json::from(folded as u64))],
                    );
                }
            }
        }
        if let Some(c) = self.controller.as_mut() {
            for (key, b) in attributed {
                c.observe_sync_bytes(&key, b);
            }
        }
        if !self.pending_transitions.is_empty() {
            self.apply_ready_transitions(at);
        }
        if telemetry.is_enabled() {
            telemetry.span_attr(span, "bytes", Json::from(bytes as u64));
        }
        telemetry.end_span(span, at);
        bytes
    }

    /// Fold fully-acknowledged history into snapshots on every live node;
    /// returns the number of changes dropped cluster-wide.
    ///
    /// The cloud's safe frontier is the pointwise minimum
    /// ([`crate::crdtset::SetClock::meet`]) of every live edge's ack clock:
    /// a change is folded only once *all* live peers have acknowledged it.
    /// Crashed edges are excluded from the meet — a restarted replica
    /// re-provisions from the cloud's compacted save
    /// ([`ThreeTierSystem::restart_edge`]) instead of replaying history, so
    /// nothing it missed is ever needed again. Each edge's only sync peer
    /// is the cloud, so its frontier is the cloud's ack clock directly.
    pub fn compact_acked(&mut self) -> usize {
        let mut dropped = 0;
        let mut live = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.crashed)
            .map(|(i, _)| &self.cloud_endpoints[i].peer_clock);
        if let Some(first) = live.next() {
            let mut frontier = live.fold(first.clone(), |acc, clock| acc.meet(clock));
            // under HA the master also keeps everything its failover
            // target might still need: a recovered/promoted cloud must be
            // able to re-serve the tail above the durability frontier
            if let Some(cap) = self.durability_clock() {
                frontier = frontier.meet(&cap);
            }
            dropped += self.cloud.crdts.compact(&frontier);
            if let Some(sb) = self.standby.as_mut() {
                dropped += sb.core.crdts.compact(&frontier);
            }
        }
        for edge in self.edges.iter_mut().filter(|e| !e.crashed) {
            dropped += edge.core.crdts.compact(&edge.to_cloud.peer_clock);
        }
        dropped
    }

    /// Whether every live replica has observed exactly what the cloud
    /// master has (mutual clock domination — the strong-eventual-
    /// consistency convergence criterion).
    pub fn converged(&self) -> bool {
        let master = self.cloud.crdts.clock();
        self.edges.iter().filter(|e| !e.crashed).all(|e| {
            let c = e.core.crdts.clock();
            c.dominates(&master) && master.dominates(&c)
        })
    }

    /// Run sync rounds every `sync_interval` starting at `from` until the
    /// cluster converges or `max_rounds` is exhausted. Returns
    /// `Some((rounds_used, virtual_time))` on convergence.
    pub fn sync_until_converged(
        &mut self,
        from: SimTime,
        max_rounds: usize,
    ) -> Option<(usize, SimTime)> {
        let mut at = from;
        for round in 0..max_rounds {
            if self.converged() {
                return Some((round, at));
            }
            at += self.options.sync_interval;
            self.sync_round(at);
        }
        if self.converged() {
            return Some((max_rounds, at));
        }
        None
    }

    /// Crash an edge replica: it loses all volatile state, stops serving,
    /// and stops syncing until [`ThreeTierSystem::restart_edge`].
    pub fn crash_edge(&mut self, i: usize) {
        let e = &mut self.edges[i];
        e.crashed = true;
        e.active = false;
        e.inflight.clear();
        // the cache dies with the process: a rejoined edge must never
        // serve responses stamped with pre-crash version vectors
        e.core.cache.clear();
        let acked = e.to_cloud.peer_clock.clone();
        self.ha_stats.edge_crashes += 1;
        self.ha_stats.acked_snapshots.push(acked);
    }

    /// Restart a crashed edge: a fresh server is provisioned from the cloud
    /// master's current save image (snapshot + retained tail) under a
    /// brand-new actor id, so the replica rejoins without the cloud
    /// replaying its full change history — compaction may long since have
    /// folded the prefix the crashed incarnation was missing. Both sync
    /// endpoints start acknowledged up to the provisioning clock; only
    /// changes after the image travel on subsequent rounds. The crashed
    /// incarnation's actor id is retired (reusing it would collide with
    /// already-synced sequence numbers).
    ///
    /// # Errors
    ///
    /// Propagates replica init failures.
    pub fn restart_edge(&mut self, i: usize) -> Result<(), ServerError> {
        // Under HA the provisioning image is the durability frontier (the
        // standby's state, or the durable save): an image ahead of it
        // would bake unacked changes into the fresh snapshot, where a
        // post-failover master could never recover them as changes.
        // Anything between the frontier and the master's head reaches the
        // rejoined edge through normal sync.
        let image = match (&self.standby, &self.durable_image) {
            (Some(sb), _) if self.options.ha.is_some() => sb.core.crdts.save(),
            (None, Some((bytes, _))) if self.options.ha.is_some() => bytes.clone(),
            _ => self.cloud.crdts.save(),
        };
        let core = self.provision(ReplicaKind::Edge, Some(&image))?;
        let provisioned = core.crdts.clock();
        let shadow = match self.options.quarantine {
            Some(_) => Some(build_shadow(&self.template.program, &self.init)?),
            None => None,
        };
        let e = &mut self.edges[i];
        // the replacement VM starts healthy (a provisioned core carries no
        // injected fault) with a fresh shadow variant and a clean
        // mismatch budget
        e.core.replace_process(core);
        e.shadow = shadow;
        e.shadow_mismatches = 0;
        e.to_cloud = SyncEndpoint::starting(self.options.sync_advance, provisioned.clone());
        e.inflight.clear();
        e.crashed = false;
        e.active = true;
        // a restarted process gets a fresh breaker: the pre-crash open
        // state belonged to the dead incarnation and would only delay
        // recovery
        e.breaker_failures = 0;
        e.breaker_open_until = None;
        // the cloud resumes from the image's clock: nothing below it is
        // ever re-sent
        self.cloud_endpoints[i] = SyncEndpoint::starting(self.options.sync_advance, provisioned);
        self.ha_stats.edge_restarts += 1;
        Ok(())
    }

    /// Provision a replacement replica under the next unused actor id,
    /// from a save image or (`None`) from the deployment's init snapshot.
    fn provision(
        &mut self,
        kind: ReplicaKind,
        image: Option<&[u8]>,
    ) -> Result<ReplicaCore, ServerError> {
        let actor = ActorId(self.next_actor);
        self.next_actor += 1;
        let cache = ResponseCache::new(self.options.cache_budget_bytes, &self.options.telemetry);
        match image {
            Some(bytes) => {
                ReplicaCore::from_image(&self.template, &self.init, kind, actor, bytes, cache)
            }
            None => ReplicaCore::fresh(&self.template, &self.init, kind, actor, cache),
        }
    }

    /// Whether edge `idx`'s circuit breaker blocks WAN forwarding at `at`.
    /// After the cooldown the breaker is half-open: the next forward is the
    /// probe that closes it (success) or re-opens it (failure).
    pub fn breaker_open(&self, idx: usize, at: SimTime) -> bool {
        self.edges[idx]
            .breaker_open_until
            .is_some_and(|until| at < until)
    }

    fn record_forward_success(&mut self, idx: usize) {
        let e = &mut self.edges[idx];
        e.breaker_failures = 0;
        e.breaker_open_until = None;
    }

    fn record_forward_failure(&mut self, idx: usize, at: SimTime) {
        let threshold = self.options.policy.breaker_threshold;
        let cooldown = self.options.policy.breaker_cooldown;
        let e = &mut self.edges[idx];
        e.breaker_failures += 1;
        if e.breaker_failures >= threshold {
            let was_open = e.breaker_open_until.is_some();
            e.breaker_open_until = Some(at + cooldown);
            if !was_open {
                self.options.telemetry.event(
                    "breaker.open",
                    Tier::Edge,
                    None,
                    at,
                    &[
                        ("edge", Json::from(idx as u64)),
                        (
                            "failures",
                            Json::from(self.edges[idx].breaker_failures as u64),
                        ),
                    ],
                );
            }
        }
    }

    /// Whether every state unit the request touches is CRDT-bound on the
    /// replica. Only then do primary and shadow observe identical state, so
    /// a digest mismatch can only mean a faulty variant — never a benign
    /// divergence on unreplicated state.
    fn shadow_checkable(&self, summary: &EffectSummary) -> bool {
        let b = &self.template.bindings;
        let read_ok = summary.reads.iter().all(|r| match r {
            ReadUnit::Table(t) | ReadUnit::TableKeyed { table: t, .. } => b.tables.contains(t),
            ReadUnit::File(f) => b.files.contains(f),
            ReadUnit::Global(g) => b.globals.contains(g),
        });
        let write_ok = summary.writes.iter().all(|w| match w {
            StateUnit::DbTable(t) => b.tables.contains(t),
            StateUnit::File(f) => b.files.contains(f),
            StateUnit::Global(g) => b.globals.contains(g),
        });
        read_ok && write_ok
    }

    /// Maybe shadow-execute `request` on edge `idx`'s diversified variant
    /// (sampled at the quarantine policy's check fraction), returning the
    /// shadow's response for digest comparison. Runs before the primary
    /// handles the request: both variants start from the same CRDT state,
    /// and the shadow's own state is rebuilt from scratch each check, so
    /// shadow execution never contaminates the serving replica.
    fn shadow_check(
        &mut self,
        idx: usize,
        request: &HttpRequest,
        summary: Option<&EffectSummary>,
    ) -> Option<HttpResponse> {
        let fraction = self.options.quarantine.as_ref()?.check_fraction;
        if !self.shadow_checkable(summary?) {
            return None;
        }
        if !self.shadow_rng.chance(fraction) {
            return None;
        }
        let edge = &mut self.edges[idx];
        let shadow = edge.shadow.as_mut()?;
        edge.core.crdts.materialize_all(shadow);
        shadow.handle(request).ok().map(|o| o.response)
    }

    /// Quarantine edge `i`: drain it, drop its caches, and re-provision a
    /// replacement from the cloud save image. The replacement starts with
    /// a clean mismatch budget and no injected fault.
    fn quarantine_edge(&mut self, i: usize, at: SimTime) {
        self.options.telemetry.event(
            "quarantine.open",
            Tier::System,
            None,
            at,
            &[
                ("edge", Json::from(i as u64)),
                (
                    "mismatches",
                    Json::from(self.edges[i].shadow_mismatches as u64),
                ),
            ],
        );
        self.ha_stats.quarantines.push((i, at));
        // drain: the faulty incarnation serves nothing further
        let e = &mut self.edges[i];
        e.active = false;
        e.inflight.clear();
        e.core.cache.clear();
        e.crashed = true;
        self.restart_edge(i)
            .expect("re-provisioning a quarantined replica must succeed");
    }

    /// The durability frontier under ack capping: what the failover target
    /// (standby, else durable image) provably holds. `None` disables
    /// capping (no HA, or the unsafe ablation).
    fn durability_clock(&self) -> Option<SetClock> {
        let ha = self.options.ha.as_ref()?;
        if !ha.ack_capping {
            return None;
        }
        if let Some(sb) = &self.standby {
            return Some(sb.master_link.peer_clock.clone());
        }
        if ha.durable_saves {
            return Some(
                self.durable_image
                    .as_ref()
                    .map(|(_, clock)| clock.clone())
                    .unwrap_or_default(),
            );
        }
        None
    }

    /// One reliable intra-DC replication exchange: master delta to the
    /// standby, standby acknowledgment back. Advances the durability
    /// frontier ([`ThreeTierSystem::durability_clock`]).
    fn replicate_to_standby(&mut self) {
        if let Some(sb) = self.standby.as_mut() {
            let msg = sb.master_link.generate(&self.cloud.crdts);
            sb.standby_link
                .receive_owned(&mut sb.core.crdts, &mut sb.core.server, msg);
            let ack = sb.standby_link.generate(&sb.core.crdts);
            sb.master_link
                .receive_owned(&mut self.cloud.crdts, &mut self.cloud.server, ack);
        }
    }

    /// Persist the master's save image (when the policy keeps durable
    /// saves) — the recovery source for a standby-less restart.
    fn persist_durable(&mut self) {
        if self.options.ha.as_ref().is_some_and(|h| h.durable_saves) {
            self.durable_image = Some((self.cloud.crdts.save(), self.cloud.crdts.clock()));
        }
    }

    /// Apply every crash-schedule event (and any pending promotion) with
    /// time at or before `now`, in time order. Idempotent; called from the
    /// run loop, sync rounds, and each forward attempt so transitions take
    /// effect exactly at their virtual times.
    fn advance_ha(&mut self, now: SimTime) {
        loop {
            let next_crash = self
                .crash_events
                .get(self.crash_cursor)
                .filter(|e| e.at <= now)
                .map(|e| e.at);
            let promo = self.pending_promotion.filter(|t| *t <= now);
            match (next_crash, promo) {
                (Some(c), Some(p)) if p <= c => self.promote_standby(p),
                (Some(_), _) => {
                    let ev = self.crash_events[self.crash_cursor].clone();
                    self.crash_cursor += 1;
                    self.apply_crash_event(&ev);
                }
                (None, Some(p)) => self.promote_standby(p),
                (None, None) => return,
            }
        }
    }

    fn apply_crash_event(&mut self, ev: &CrashEvent) {
        let telemetry = self.options.telemetry.clone();
        if ev.node == "cloud" {
            let Some(ha) = self.options.ha.clone() else {
                // without an HA policy the master is not crashable
                return;
            };
            match ev.kind {
                CrashKind::Down => {
                    if self.cloud_down {
                        return;
                    }
                    self.cloud_down = true;
                    self.ha_stats.master_crashes += 1;
                    // audit point: everything the old master ever acked is
                    // bounded by what the edges saw — snapshot it
                    let acked: Vec<SetClock> = self
                        .edges
                        .iter()
                        .filter(|e| !e.crashed)
                        .map(|e| e.to_cloud.peer_clock.clone())
                        .collect();
                    self.ha_stats.acked_snapshots.extend(acked);
                    telemetry.event("crash.cloud", Tier::Cloud, None, ev.at, &[]);
                    if self.standby.is_some() {
                        // deterministic health monitor: promote after the
                        // detection delay
                        self.pending_promotion = Some(ev.at + ha.detect_delay);
                    }
                }
                CrashKind::Up => {
                    if self.cloud_down {
                        // no standby was available: recover from the
                        // durable save image (or cold-start from init)
                        self.recover_master_durable(ev.at);
                    } else {
                        // a standby was already promoted; the returning
                        // process becomes the new standby
                        if ha.standby {
                            self.provision_standby(ev.at);
                        }
                    }
                }
            }
            return;
        }
        let Some(i) = ev
            .node
            .strip_prefix("edge")
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|i| *i < self.edges.len())
        else {
            return;
        };
        match ev.kind {
            CrashKind::Down => {
                if !self.edges[i].crashed {
                    self.crash_edge(i);
                    telemetry.event(
                        "crash.edge",
                        Tier::Edge,
                        None,
                        ev.at,
                        &[("edge", Json::from(i as u64))],
                    );
                }
            }
            CrashKind::Up => {
                if self.edges[i].crashed {
                    if self.cloud_down {
                        // nothing to provision from while the master is
                        // down; rejoin at the next promotion/recovery
                        self.deferred_restarts.push(i);
                    } else {
                        self.rejoin_edge(i, ev.at);
                    }
                }
            }
        }
    }

    /// Restart + catch-up telemetry for a scheduled edge rejoin.
    fn rejoin_edge(&mut self, i: usize, at: SimTime) {
        self.restart_edge(i)
            .expect("replica template re-provisions cleanly");
        self.options.telemetry.event(
            "rejoin.catchup",
            Tier::Edge,
            None,
            at,
            &[("edge", Json::from(i as u64))],
        );
    }

    /// Promote the warm standby to master: edges re-home to it on their
    /// next sync round / forward retry.
    fn promote_standby(&mut self, at: SimTime) {
        self.pending_promotion = None;
        let Some(sb) = self.standby.take() else {
            return;
        };
        self.install_master(sb.core);
        self.persist_durable();
        self.ha_stats.failovers += 1;
        if let Some(crashed_at) = self.last_open_outage() {
            self.ha_stats.outages.push((crashed_at, at));
        }
        self.options.telemetry.event(
            "failover.promote",
            Tier::Cloud,
            None,
            at,
            &[("failovers", Json::from(self.ha_stats.failovers as u64))],
        );
        self.restart_deferred(at);
    }

    /// Recover a standby-less master from the durable save image (or, with
    /// durable saves disabled — the ablation — cold-start from the init
    /// snapshot, losing everything since deploy).
    fn recover_master_durable(&mut self, at: SimTime) {
        // taken, not borrowed: `provision` needs the whole system
        let image = self.durable_image.take();
        let core = self
            .provision(
                ReplicaKind::Master,
                image.as_ref().map(|(b, _)| b.as_slice()),
            )
            .expect("the cloud program parsed and initialised at deploy");
        self.durable_image = image;
        self.install_master(core);
        self.ha_stats.durable_recoveries += 1;
        if let Some(crashed_at) = self.last_open_outage() {
            self.ha_stats.outages.push((crashed_at, at));
        }
        self.options
            .telemetry
            .event("failover.recover", Tier::Cloud, None, at, &[]);
        self.restart_deferred(at);
    }

    /// Make `core` the serving master. It has never spoken to the edges —
    /// what each had acked was in the dead master's memory — so every sync
    /// channel restarts from scratch; resending the retained tail is
    /// idempotent.
    fn install_master(&mut self, core: ReplicaCore) {
        self.cloud.replace_process(core);
        self.cloud_down = false;
        for ep in &mut self.cloud_endpoints {
            *ep = SyncEndpoint::starting(self.options.sync_advance, SetClock::default());
        }
    }

    /// Provision a fresh warm standby from the current master's save image
    /// (the returning ex-master process after a failover).
    fn provision_standby(&mut self, at: SimTime) {
        let image = self.cloud.crdts.save();
        let core = self
            .provision(ReplicaKind::Master, Some(&image))
            .expect("the cloud program parsed and initialised at deploy");
        let clock = core.crdts.clock();
        self.standby = Some(CloudStandby {
            core,
            master_link: SyncEndpoint::starting(AdvanceMode::OnAck, clock.clone()),
            standby_link: SyncEndpoint::starting(AdvanceMode::OnAck, clock),
        });
        self.options
            .telemetry
            .event("standby.provision", Tier::Cloud, None, at, &[]);
    }

    /// The crash time of the outage currently missing its recovery entry.
    fn last_open_outage(&self) -> Option<SimTime> {
        // master_crashes counts crashes; outages counts recoveries — the
        // open outage is the crash event not yet paired
        if (self.ha_stats.outages.len() as u32) < self.ha_stats.master_crashes {
            self.crash_events[..self.crash_cursor]
                .iter()
                .rev()
                .find(|e| e.node == "cloud" && e.kind == CrashKind::Down)
                .map(|e| e.at)
        } else {
            None
        }
    }

    /// Re-provision edges whose scheduled restart arrived while the master
    /// was down.
    fn restart_deferred(&mut self, at: SimTime) {
        for i in std::mem::take(&mut self.deferred_restarts) {
            if self.edges[i].crashed {
                self.rejoin_edge(i, at);
            }
        }
    }

    /// Accumulated failure/recovery observations.
    pub fn ha_stats(&self) -> &HaStats {
        &self.ha_stats
    }

    /// Whether the cloud master is currently down.
    pub fn master_down(&self) -> bool {
        self.cloud_down
    }

    /// Inject the bit-flipping faulty VM variant into edge `i`'s serving
    /// path: each response is corrupted with `flip_prob`, deterministically
    /// from `seed`. Cleared when the replica is re-provisioned.
    pub fn inject_faulty_variant(&mut self, i: usize, flip_prob: f64, seed: u64) {
        self.edges[i].core.corruptor = Some(BitFlipCorruptor::new(seed, flip_prob));
    }

    /// Responses corrupted so far by edge `i`'s injected faulty variant.
    pub fn corrupted_responses(&self, i: usize) -> u64 {
        self.edges[i].core.corruptor.as_ref().map_or(0, |c| c.flips)
    }

    /// Forward one request to the cloud with bounded retries, exponential
    /// backoff and seeded jitter, under the run's fault plan and deadline.
    /// Returns `Some((time_back_at_edge, response, cycles))` on success —
    /// the cycles the cloud charged for it ([`crate::CACHE_HIT_CYCLES`]
    /// for a cloud cache hit), the controller's cost estimate input. The
    /// cloud executes the request at most once: if only the response is
    /// lost, retries retransmit the response rather than re-running the
    /// handler (the proxy holds the connection, §II-B).
    #[allow(clippy::too_many_arguments)]
    fn forward_to_cloud(
        &mut self,
        idx: usize,
        request: &HttpRequest,
        arrive: SimTime,
        rec: &mut RunRecorder,
        span: SpanId,
        summary: Option<&EffectSummary>,
        plan: Option<&CachePlan>,
    ) -> Option<(SimTime, HttpResponse, u64)> {
        let telemetry = self.options.telemetry.clone();
        let policy = self.options.policy.clone();
        let edge_name = format!("edge{idx}");
        let req_size = request.size();
        let deadline = arrive + policy.forward_deadline;
        // `Some` once the cloud has served: (compute finish, response, cycles)
        let mut executed: Option<(SimTime, HttpResponse, u64)> = None;
        let mut t = arrive;
        let mut attempt: u32 = 0;
        loop {
            // scheduled crashes/promotions that elapsed before this attempt
            self.advance_ha(t);
            if let Some((finish, response, _)) = &executed {
                // only the response was lost: retransmit it. The executed
                // marker and response travel with the replicated
                // connection state (the write itself was shipped to the
                // standby before the ack), so retransmission stalls while
                // the master is down and resumes after promotion instead
                // of re-running the handler.
                let (finish, resp_size) = (*finish, response.size());
                let back = self.wan_down.send(t.max(finish), resp_size);
                rec.add_wan_request_bytes(resp_size);
                let dropped = wan_drops(&mut self.options.faults, "cloud", &edge_name, t);
                if !dropped && !self.cloud_down {
                    self.record_forward_success(idx);
                    return executed.map(|(_, r, c)| (back, r, c));
                }
            } else {
                let cloud_arrive = self.wan_up.send(t, req_size);
                rec.add_wan_request_bytes(req_size);
                let dropped = wan_drops(&mut self.options.faults, &edge_name, "cloud", t);
                // The request is judged against the fault plan even while
                // the master is down so the per-link drop streams stay
                // aligned with a crash-free run; a dead master simply
                // never answers.
                if !dropped && !self.cloud_down {
                    // A cloud cache hit skips only the handler — the WAN
                    // message sequence (request judged above, response
                    // judged below) is that of an execution, so the fault
                    // plan's per-link streams stay aligned with the
                    // cache-off run.
                    let Ok(served) = self.cloud.serve(request, summary, plan, &None) else {
                        // application error: the WAN worked, no retry
                        self.record_forward_success(idx);
                        return None;
                    };
                    let serve =
                        telemetry.start_span("serve", Tier::Cloud, Some(span), cloud_arrive);
                    let (_, finish) = self.cloud_device.schedule_work(cloud_arrive, served.cycles);
                    telemetry.end_span(serve, finish);
                    // A client-acked forwarded write must survive
                    // failover: ship it to the standby / durable image
                    // before the ack returns.
                    if served.effects && self.options.ha.is_some() {
                        self.replicate_to_standby();
                        self.persist_durable();
                    }
                    let resp_size = served.response.size();
                    let back = self.wan_down.send(finish, resp_size);
                    rec.add_wan_request_bytes(resp_size);
                    let resp_dropped =
                        wan_drops(&mut self.options.faults, "cloud", &edge_name, finish);
                    if !resp_dropped {
                        self.record_forward_success(idx);
                        return Some((back, served.response, served.cycles));
                    }
                    executed = Some((finish, served.response, served.cycles));
                }
            }
            // this attempt failed in transit: back off, maybe retry
            if attempt >= policy.max_retries {
                rec.timed_out();
                telemetry.event("forward.timeout", Tier::Edge, Some(span), t, &[]);
                self.record_forward_failure(idx, t);
                return None;
            }
            let backoff_us = policy.backoff_base.0 << attempt;
            let jitter_us = self.jitter.below(policy.backoff_base.0.max(1));
            let next = t + SimDuration(backoff_us + jitter_us);
            if next > deadline {
                rec.timed_out();
                telemetry.event("forward.timeout", Tier::Edge, Some(span), next, &[]);
                self.record_forward_failure(idx, next);
                return None;
            }
            attempt += 1;
            rec.retried();
            telemetry.event(
                "forward.retry",
                Tier::Edge,
                Some(span),
                next,
                &[("attempt", Json::from(attempt as u64))],
            );
            t = next;
        }
    }

    /// Execute `workload`, returning measurements.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let telemetry = self.options.telemetry.clone();
        // Deterministic virtual clock, as in [`TwoTierSystem::run`].
        let mut rec = RunRecorder::with_clock(&telemetry, Clock::virtual_clock());
        let profiler = request_profiler(&telemetry);
        // the request loop reads service profiles out of the template
        // while it mutates the system
        let template = Arc::clone(&self.template);
        // Per-edge routing counters resolved once: the registry lookup
        // allocates a metric key, which is too hot for the request loop.
        let routed: Vec<Counter> = telemetry.registry().map_or_else(Vec::new, |reg| {
            (0..self.edges.len())
                .map(|i| reg.counter("edgstr_routed_total", &[("edge", &i.to_string())]))
                .collect()
        });
        for tr in &workload.requests {
            let now = tr.at;
            // background sync ticks that elapsed before this arrival; the
            // tick clock lives on the system so that back-to-back phase
            // runs continue the schedule instead of replaying old ticks
            while !self.options.synchronous_sync && self.next_sync <= now {
                let tick = self.next_sync;
                rec.add_wan_sync_bytes(self.sync_round(tick));
                self.placement_tick(tick);
                self.next_sync += self.options.sync_interval;
            }
            // scheduled crashes / restarts / promotions that elapsed
            self.advance_ha(now);
            // autoscaler: adjust active replica set
            for e in self.edges.iter_mut() {
                e.prune(now);
            }
            if let Some(scaler) = self.options.autoscaler {
                let inflight: usize = self.edges.iter().map(EdgeReplica::connections).sum();
                let desired = scaler.desired(inflight.max(1), self.edges.len());
                for (i, e) in self.edges.iter_mut().enumerate() {
                    let should_be_active = i < desired;
                    if should_be_active && !e.active && !e.is_crashed() {
                        e.active = true;
                        e.device.set_power_state(PowerState::Idle, now);
                        telemetry.event(
                            "replica.unpark",
                            Tier::Edge,
                            None,
                            now,
                            &[("edge", Json::from(i as u64))],
                        );
                    } else if !should_be_active && e.active && e.connections() == 0 {
                        e.active = false;
                        e.device.set_power_state(PowerState::LowPower, now);
                        telemetry.event(
                            "replica.park",
                            Tier::Edge,
                            None,
                            now,
                            &[("edge", Json::from(i as u64))],
                        );
                    }
                }
                let active = self.edges.iter().filter(|e| e.active).count();
                rec.replica_sample(now, active);
            }
            // route to an edge
            let connections: Vec<usize> = self.edges.iter().map(EdgeReplica::connections).collect();
            let active: Vec<bool> = self.edges.iter().map(|e| e.active).collect();
            let Some(idx) = self.balancer.pick(&connections, &active) else {
                rec.fail();
                let span = telemetry.start_span("request", Tier::Client, None, now);
                telemetry.event("request.unroutable", Tier::Client, Some(span), now, &[]);
                telemetry.end_span(span, now);
                continue;
            };
            let span = if telemetry.is_enabled() {
                if let Some(c) = routed.get(idx) {
                    c.inc();
                }
                telemetry.start_span_with(
                    "request",
                    Tier::Client,
                    None,
                    now,
                    vec![
                        ("verb", Json::from(tr.request.verb.as_str())),
                        ("path", Json::from(tr.request.path.as_str())),
                        ("edge", Json::from(idx as u64)),
                    ],
                )
            } else {
                SpanId::NULL
            };
            let req_size = tr.request.size();
            let lan_arrive = self.lan_up.send(now, req_size);
            let up = lan_arrive - now;
            rec.add_lan_bytes(req_size);
            let wake = self.edges[idx].device.wake_penalty();
            let arrive = lan_arrive + wake;
            let key = (tr.request.verb, tr.request.path.clone());
            let summary = template.effects.get(&key);
            let placement = self.placement_of(&key);
            let local = placement == Placement::EdgeReplicate;
            let plan = cache_plan(self.options.cache, summary, &tr.request);
            // A forwarded service may be served from the edge cache only
            // when skipping the WAN round-trip cannot diverge from the
            // cache-off run: no read set, no writes (pure), and no fault
            // plan whose per-link streams the skipped messages would have
            // consumed. Under an explicit `EdgeCacheOnly` placement the
            // edge cache is consulted regardless — bounded staleness is
            // that placement's contract, and hits are still validated
            // against the edge's CRDT read-unit versions.
            let forward_skip_ok = !local
                && self.options.faults.is_none()
                && plan.as_ref().is_some_and(|p| p.reads.is_empty() && p.pure);
            let mut served: Option<Served> =
                if local || forward_skip_ok || placement == Placement::EdgeCacheOnly {
                    self.edges[idx].core.lookup(plan.as_ref())
                } else {
                    None
                };
            let mut shadow_verdict = None;
            if served.is_none() && local {
                // multi-variant check: shadow-execute between the lookup
                // and the execution, so both variants observe the same
                // pre-request CRDT state
                let shadow = self.shadow_check(idx, &tr.request, summary);
                served = self.edges[idx]
                    .core
                    .execute(&tr.request, summary, plan.as_ref(), &profiler)
                    .ok();
                // a failed execution is forwarded, not compared
                shadow_verdict = shadow.filter(|_| served.is_some());
            }
            // (response ready at the edge, response, edge cache hit, cycles
            // it demanded, served by the cloud)
            let (ready, response, hit, cycles, forwarded) = if let Some(s) = served {
                // answered at the edge, from its cache or by its replica
                if self.breaker_open(idx, arrive) {
                    // still served locally under an open breaker; deltas
                    // queue until the WAN heals
                    rec.degraded();
                    telemetry.event("degraded.local_serve", Tier::Edge, Some(span), arrive, &[]);
                }
                let serve = telemetry.start_span("serve", Tier::Edge, Some(span), arrive);
                let (_, finish) = self.edges[idx].device.schedule_work(arrive, s.cycles);
                telemetry.end_span(serve, finish);
                (finish, s.response, s.hit, s.cycles, false)
            } else {
                // not answered at the edge (a cloud-placed service, or the
                // local execution failed): the edge proxies the request to
                // the cloud master over the WAN (§II-B)
                rec.forwarded();
                if self.breaker_open(idx, arrive) {
                    // degraded mode: fail fast without a WAN attempt
                    rec.degraded();
                    rec.fail();
                    telemetry.event("degraded.fail_fast", Tier::Edge, Some(span), arrive, &[]);
                    telemetry.end_span(span, arrive);
                    continue;
                }
                let fwd = telemetry.start_span("forward", Tier::Edge, Some(span), arrive);
                let Some((back_at_edge, response, cycles)) = self.forward_to_cloud(
                    idx,
                    &tr.request,
                    arrive,
                    &mut rec,
                    fwd,
                    summary,
                    plan.as_ref(),
                ) else {
                    telemetry.end_span(fwd, arrive);
                    rec.fail();
                    telemetry.end_span(span, arrive);
                    continue;
                };
                telemetry.end_span(fwd, back_at_edge);
                // cache-only placement fills pure responses stamped with
                // the edge-local read-unit versions, so sync-applied
                // remote writes invalidate them
                if let Some(p) = plan.as_ref().filter(|p| {
                    forward_skip_ok || (placement == Placement::EdgeCacheOnly && p.pure)
                }) {
                    self.edges[idx].core.fill(p, &response);
                }
                (back_at_edge, response, false, cycles, true)
            };
            let resp_size = response.size();
            let done = self.lan_down.send(ready, resp_size);
            rec.add_lan_bytes(resp_size);
            self.edges[idx].inflight.push(done);
            let (down, wait) = (done - ready, ready - arrive);
            if !forwarded && self.options.synchronous_sync {
                rec.add_wan_sync_bytes(self.sync_round(ready));
            }
            // set when this request's digest mismatch exhausts the budget;
            // acted on after the response is recorded
            let mut quarantine_after: Option<usize> = None;
            if let Some(shadow_resp) = shadow_verdict {
                self.ha_stats.shadow_checks += 1;
                if response.digest() != shadow_resp.digest() {
                    self.ha_stats.shadow_mismatches += 1;
                    self.edges[idx].shadow_mismatches += 1;
                    telemetry.event(
                        "shadow.mismatch",
                        Tier::System,
                        Some(span),
                        ready,
                        &[("edge", Json::from(idx as u64))],
                    );
                    let budget = self
                        .options
                        .quarantine
                        .as_ref()
                        .map_or(u32::MAX, |q| q.mismatch_budget);
                    if self.edges[idx].shadow_mismatches > budget {
                        quarantine_after = Some(idx);
                    }
                }
            }
            let energy = self.mobile.request_energy_j(up, down, wait);
            rec.complete(&response, tr.at, done, energy);
            telemetry.end_span(span, done);
            if self.controller.is_some() {
                self.observe_placement(&key, idx, hit, forwarded, cycles, wait);
            }
            if let Some(qi) = quarantine_after {
                self.quarantine_edge(qi, done);
            }
        }
        // final flush so replicas converge (fault-free runs need at most
        // two rounds: deltas out, acks back)
        let flush_at = rec.makespan();
        rec.add_wan_sync_bytes(self.sync_round(flush_at));
        rec.add_wan_sync_bytes(self.sync_round(flush_at + self.options.sync_interval));
        let cloud_energy = self.cloud_device.energy_joules(rec.makespan());
        let edge_energy = self
            .edges
            .iter()
            .map(|e| e.device.energy_joules(rec.makespan()))
            .sum();
        rec.finish(cloud_energy, edge_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_core::{capture_and_transform, EdgStrConfig};
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
        var written = 0;
        app.post("/note", function (req, res) {
            written = written + 1;
            db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
            res.send({ n: written });
        });
        app.get("/count", function (req, res) {
            var rows = db.query("SELECT COUNT(*) FROM notes");
            res.send(rows[0]);
        });
    "#;

    fn transformed() -> edgstr_core::TransformationReport {
        let reqs = vec![
            HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
            HttpRequest::get("/count", json!({})),
        ];
        capture_and_transform(APP, &reqs, &EdgStrConfig::default())
            .unwrap()
            .0
    }

    fn unique_note(i: usize) -> HttpRequest {
        HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![])
    }

    #[test]
    fn two_tier_runs_workload() {
        let mut sys =
            TwoTierSystem::new(APP, DeviceSpec::cloud_server(), LinkSpec::limited_cloud()).unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert!(stats.latency.mean().unwrap() > SimDuration::from_millis(100));
        assert!(stats.client_energy_j > 0.0);
        assert!(stats.wan_request_bytes > 0);
    }

    #[test]
    fn three_tier_serves_locally_and_syncs() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.forwarded, 0, "replicated service must run locally");
        assert!(
            stats.wan_sync_bytes > 0,
            "background sync must ship changes"
        );
        assert_eq!(stats.wan_request_bytes, 0, "no request traffic on the WAN");
        // all replicas and cloud converge on the notes table
        let cloud_rows = sys.cloud.crdts.tables["notes"].len();
        for e in &sys.edges {
            assert_eq!(e.core.crdts.tables["notes"].len(), cloud_rows);
        }
        assert!(cloud_rows >= 20);
    }

    #[test]
    fn cache_serves_repeated_reads_and_invalidates_on_write() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                cache: CachePolicy::All,
                ..ThreeTierOptions::default()
            },
        )
        .unwrap();
        let count = HttpRequest::get("/count", json!({}));
        let reqs = vec![
            count.clone(),
            count.clone(),
            count.clone(),
            unique_note(1),
            count.clone(),
            count.clone(),
        ];
        let wl = Workload::constant_rate(&reqs, 10.0, reqs.len());
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, reqs.len());
        let cs = sys.cache_stats();
        // gets 2+3 and 5 hit; the write invalidates the entry before 4
        assert_eq!(cs.hits, 3);
        assert_eq!(cs.invalidations, 1);
        assert!(cs.misses >= 2);
    }

    #[test]
    fn cached_responses_are_bit_identical_to_uncached() {
        let report = transformed();
        let mut reqs = Vec::new();
        for i in 0..10 {
            reqs.push(unique_note(i));
            reqs.push(HttpRequest::get("/count", json!({})));
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 40.0, reqs.len());
        let run = |policy: CachePolicy| {
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4()],
                ThreeTierOptions {
                    cache: policy,
                    ..ThreeTierOptions::default()
                },
            )
            .unwrap();
            let stats = sys.run(&wl);
            (stats, sys.cache_stats())
        };
        let (off, off_cs) = run(CachePolicy::Off);
        let (all, all_cs) = run(CachePolicy::All);
        assert_eq!(off_cs.hits + off_cs.misses, 0, "Off must not touch caches");
        assert!(all_cs.hits > 0, "repeated reads must hit");
        assert_eq!(off.completed, all.completed);
        assert_eq!(
            off.response_digest, all.response_digest,
            "cached responses must be bit-identical to uncached execution"
        );
    }

    #[test]
    fn three_tier_beats_two_tier_on_slow_wan() {
        let report = transformed();
        let slow_wan = LinkSpec::from_kbps_ms(200.0, 800.0);
        let mut two = TwoTierSystem::new(APP, DeviceSpec::cloud_server(), slow_wan).unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 20.0, 30);
        let two_stats = two.run(&wl);
        let mut three = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                wan: slow_wan,
                ..Default::default()
            },
        )
        .unwrap();
        let three_stats = three.run(&wl);
        assert!(
            three_stats.latency.mean().unwrap() < two_stats.latency.mean().unwrap(),
            "edge must win under a degraded WAN: {:?} vs {:?}",
            three_stats.latency.mean(),
            two_stats.latency.mean()
        );
    }

    #[test]
    fn failure_forwarding_reaches_cloud() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        // break the edge's database host calls
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..5).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 5);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.forwarded, 5, "all requests must be forwarded");
        assert!(stats.wan_request_bytes > 0);
        // the cloud applied the writes
        assert!(sys.cloud.crdts.tables["notes"].len() >= 5);
    }

    #[test]
    fn autoscaler_parks_replicas_under_light_load() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[
                DeviceSpec::rpi3(),
                DeviceSpec::rpi3(),
                DeviceSpec::rpi4(),
                DeviceSpec::rpi4(),
            ],
            ThreeTierOptions {
                autoscaler: Some(Autoscaler::default()),
                ..Default::default()
            },
        )
        .unwrap();
        // light load: 2 rps
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 2.0, 40);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 40);
        let min_active = stats.replica_samples.iter().map(|(_, n)| *n).min().unwrap();
        assert_eq!(min_active, 1, "light load should park down to one replica");
        // parked replicas draw less energy than a hypothetical always-on set
        assert!(stats.edge_energy_j > 0.0);
    }

    #[test]
    fn workload_generators_produce_expected_counts() {
        let reqs = vec![HttpRequest::get("/count", json!({}))];
        let wl = Workload::constant_rate(&reqs, 100.0, 50);
        assert_eq!(wl.len(), 50);
        assert!(wl.requests[49].at > wl.requests[0].at);
        let wl = Workload::phases(&reqs, &[(10.0, 1.0), (50.0, 1.0)]);
        assert!(wl.len() >= 58 && wl.len() <= 62, "got {}", wl.len());
    }

    #[test]
    fn workload_shift_moves_every_arrival() {
        let reqs = vec![HttpRequest::get("/count", json!({}))];
        let wl = Workload::constant_rate(&reqs, 10.0, 5)
            .shifted(edgstr_sim::SimTime::from_secs_f64(100.0));
        assert!(wl.requests[0].at >= edgstr_sim::SimTime::from_secs_f64(100.0));
        assert!(wl.requests[4].at > wl.requests[0].at);
    }

    #[test]
    fn mobile_power_integrates_components() {
        let m = MobilePower::default();
        let j = m.request_energy_j(
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
        );
        let expected = m.tx_w * 2.0 + m.rx_w * 1.0 + m.wait_w * 10.0;
        assert!((j - expected).abs() < 1e-9);
    }

    /// Acceptance: a cloud + 2-edge cluster under 20% WAN loss converges
    /// within a bounded number of sync rounds, deterministically from the
    /// fault seed, because ack-driven endpoints regenerate dropped deltas.
    #[test]
    fn lossy_cluster_converges_within_bounded_rounds() {
        let report = transformed();
        let mut faults = FaultPlan::new(0x2025_0805);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.20));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 30);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 30, "replicated writes serve locally");
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge within 50 rounds at 20% loss");
        assert!(rounds <= 50);
        let cloud_rows = sys.cloud.crdts.tables["notes"].to_json();
        for e in &sys.edges {
            assert_eq!(e.core.crdts.tables["notes"].to_json(), cloud_rows);
        }
        assert!(sys.cloud.crdts.tables["notes"].len() >= 30);
    }

    /// Pre-fix ablation at system level: the same lossy cluster with
    /// optimistic clock advancement never recovers the dropped deltas.
    #[test]
    fn optimistic_sync_diverges_under_loss() {
        let report = transformed();
        let mut faults = FaultPlan::new(0x2025_0805);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.20));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                faults: Some(faults),
                sync_advance: AdvanceMode::Optimistic,
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 30);
        let stats = sys.run(&wl);
        assert_eq!(
            sys.sync_until_converged(stats.makespan, 50),
            None,
            "optimistic advancement must leave the cluster diverged"
        );
    }

    /// Lossy failure forwarding: retransmission with backoff recovers
    /// dropped WAN messages, and the retry counter records the cost.
    #[test]
    fn forwarding_retries_recover_wan_loss() {
        let report = transformed();
        let mut faults = FaultPlan::new(17);
        faults.set_default_loss(edgstr_net::LossModel::uniform(0.30));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                policy: FaultPolicy {
                    max_retries: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // break the edge's database so every request forwards over the WAN
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..10).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 10);
        let stats = sys.run(&wl);
        assert_eq!(stats.forwarded, 10);
        assert!(stats.retries > 0, "30% loss must force retransmissions");
        assert_eq!(stats.completed + stats.failed, 10);
        assert!(
            stats.completed >= 8,
            "retries should recover most requests, got {}",
            stats.completed
        );
    }

    /// A full partition makes forwarding time out; after enough
    /// consecutive failures the circuit breaker opens and later requests
    /// fail fast in degraded mode without touching the WAN.
    #[test]
    fn breaker_opens_under_partition_and_degrades() {
        let report = transformed();
        let mut faults = FaultPlan::new(23);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..10).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 5.0, 10);
        let stats = sys.run(&wl);
        assert_eq!(stats.failed, 10, "nothing completes across a partition");
        assert!(
            stats.timed_out >= sys.options.policy.breaker_threshold as usize,
            "enough timeouts to trip the breaker, got {}",
            stats.timed_out
        );
        assert!(
            stats.degraded > 0,
            "post-trip requests must fail fast in degraded mode"
        );
        assert!(
            stats.timed_out + stats.degraded == 10,
            "every failure is either a timeout or a fast-fail: {} + {}",
            stats.timed_out,
            stats.degraded
        );
    }

    /// Degraded mode still serves replicated requests locally while the
    /// breaker is open, queuing deltas until the WAN heals.
    #[test]
    fn replicated_requests_serve_locally_while_breaker_open() {
        let report = transformed();
        let mut faults = FaultPlan::new(29);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        // trip the breaker through the public failure path: a broken edge
        // db forces forwards, and the partition times them out
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (100..103).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 3));
        assert!(stats.timed_out >= 3);
        // heal the edge server; replicated requests now serve locally in
        // degraded mode while the breaker is still open
        sys.edges[0].core.server.inject_failures(Vec::new());
        let reqs: Vec<HttpRequest> = (0..5).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 5.0, 5));
        assert_eq!(stats.completed, 5, "local service continues degraded");
        assert!(stats.degraded >= 1, "degraded local serves are counted");
        // deltas queued at the edge: the cloud is still missing them
        assert!(!sys.converged());
    }

    /// Crash/restart: a restarted replica re-initializes from the cloud
    /// master under a fresh actor id and rejoins sync cleanly.
    #[test]
    fn crashed_edge_rejoins_from_cloud_master() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 20));
        assert_eq!(stats.completed, 20);
        let old_actor = sys.edges[0].core.crdts.actor();

        sys.crash_edge(0);
        assert!(sys.edges[0].is_crashed());
        // the survivor keeps serving while edge 0 is down
        let more: Vec<HttpRequest> = (200..210).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&more, 10.0, 10).shifted(stats.makespan));
        assert_eq!(stats.completed, 10);

        sys.restart_edge(0).unwrap();
        assert_ne!(
            sys.edges[0].core.crdts.actor(),
            old_actor,
            "restart must not reuse the crashed incarnation's actor id"
        );
        // fresh replica starts from the snapshot, then catches up fully
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 10)
            .expect("restarted replica must converge");
        assert!(rounds <= 10);
        assert_eq!(
            sys.edges[0].core.crdts.tables["notes"].to_json(),
            sys.cloud.crdts.tables["notes"].to_json()
        );
        assert!(sys.edges[0].core.crdts.tables["notes"].len() >= 30);
    }

    /// Steady-state compaction: under continuous writes with periodic
    /// sync, the resident change history on the cloud master stays bounded
    /// by the sync/ack lag instead of growing with the write count, while
    /// the cluster still converges to the full table.
    #[test]
    fn steady_state_sync_keeps_resident_history_bounded() {
        let peak_history = |compaction: bool| {
            let report = transformed();
            let mut sys = ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    compaction,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut peak = 0usize;
            let mut t = SimTime::ZERO;
            for batch in 0..20usize {
                let reqs: Vec<HttpRequest> =
                    (batch * 10..batch * 10 + 10).map(unique_note).collect();
                let stats = sys.run(&Workload::constant_rate(&reqs, 20.0, 10).shifted(t));
                t = stats.makespan;
                peak = peak.max(sys.cloud.crdts.history_len());
            }
            sys.sync_until_converged(t, 10)
                .expect("steady-state cluster must converge");
            assert!(sys.cloud.crdts.tables["notes"].len() >= 200);
            peak
        };
        let bounded = peak_history(true);
        let unbounded = peak_history(false);
        assert!(
            unbounded >= 200,
            "without compaction history grows with the write count: {unbounded}"
        );
        assert!(
            bounded * 4 < unbounded,
            "compaction must bound resident history: peak {bounded} vs {unbounded}"
        );
    }

    #[test]
    fn two_tier_failed_requests_counted_not_recorded() {
        let mut sys =
            TwoTierSystem::new(APP, DeviceSpec::cloud_server(), LinkSpec::limited_cloud()).unwrap();
        // duplicate primary keys: every second insert fails at the server
        let req = unique_note(1);
        let wl = Workload::constant_rate(std::slice::from_ref(&req), 10.0, 3);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.latency.len(), 1);
    }

    /// After the cooldown the breaker is half-open: the next forward is a
    /// probe, and its success closes the breaker immediately.
    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        let report = transformed();
        // partition only during [0, 20s): the breaker trips inside the
        // window, and a post-window probe finds the WAN healed
        let mut faults = FaultPlan::new(31);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(20.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (0..4).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 4));
        assert!(
            sys.breaker_open(0, stats.makespan),
            "timeouts across the partition must open the breaker"
        );
        // well past the partition and the cooldown: half-open probes
        // forward again, succeed, and close the breaker
        let probe: Vec<HttpRequest> = (50..53).map(unique_note).collect();
        let stats =
            sys.run(&Workload::constant_rate(&probe, 2.0, 3).shifted(SimTime::from_secs_f64(25.0)));
        assert_eq!(stats.completed, 3, "probes must get through a healed WAN");
        assert!(!sys.breaker_open(0, stats.makespan));
    }

    /// Satellite fix: a restarted edge gets a fresh breaker — the open
    /// state belonged to the dead incarnation.
    #[test]
    fn restart_edge_resets_breaker_state() {
        let report = transformed();
        let mut faults = FaultPlan::new(37);
        faults.partition(
            "edge0",
            "cloud",
            SimTime::ZERO,
            SimTime::from_secs_f64(3600.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                faults: Some(faults),
                ..Default::default()
            },
        )
        .unwrap();
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let trip: Vec<HttpRequest> = (0..4).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&trip, 2.0, 4));
        assert!(sys.breaker_open(0, stats.makespan));
        sys.crash_edge(0);
        sys.restart_edge(0).unwrap();
        assert!(
            !sys.breaker_open(0, stats.makespan),
            "a restarted process must not inherit the dead incarnation's breaker"
        );
    }

    /// Satellite: a scheduled crash + restart landing between sync ticks —
    /// with compaction folding history every round — must neither deadlock
    /// nor double-apply deltas, and the cluster reconverges.
    #[test]
    fn scheduled_restart_mid_sync_rounds_converges_without_double_apply() {
        let report = transformed();
        let mut crashes = CrashPlan::new(5);
        crashes.crash(
            "edge0",
            SimTime::from_secs_f64(1.5),
            SimTime::from_secs_f64(3.5),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..30).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 30));
        let hs = sys.ha_stats();
        assert_eq!(hs.edge_crashes, 1);
        assert_eq!(hs.edge_restarts, 1);
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan, 20)
            .expect("cluster must reconverge after the scheduled restart");
        assert!(rounds <= 20);
        let cloud_rows = sys.cloud.crdts.tables["notes"].to_json();
        for e in &sys.edges {
            assert_eq!(e.core.crdts.tables["notes"].to_json(), cloud_rows);
        }
        // edge0's unsynced pre-crash writes died with the process; nothing
        // may be applied twice (every surviving id appears exactly once —
        // the PK table would otherwise conflict) and the survivor's share
        // plus everything synced before the crash is present
        let n = sys.cloud.crdts.tables["notes"].len();
        assert!((20..=30).contains(&n), "unexpected row count {n}");
    }

    /// Tentpole: master crash → deterministic standby promotion →
    /// reconvergence, with every acknowledged write surviving.
    #[test]
    fn master_failover_promotes_standby_and_loses_no_acked_write() {
        let report = transformed();
        let mut crashes = CrashPlan::new(9);
        crashes.crash(
            "cloud",
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(5.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ha: Some(HaPolicy::default()),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 10.0, 40));
        assert_eq!(
            stats.completed, 40,
            "replicated writes serve through the outage"
        );
        let (rounds, _) = sys
            .sync_until_converged(stats.makespan.max(SimTime::from_secs_f64(6.0)), 30)
            .expect("cluster must reconverge on the promoted master");
        assert!(rounds <= 30);
        assert!(!sys.master_down());
        let hs = sys.ha_stats();
        assert_eq!(hs.master_crashes, 1);
        assert_eq!(hs.failovers, 1);
        assert_eq!(
            hs.recovery_times(),
            vec![SimDuration::from_millis(500)],
            "promotion happens exactly at crash + detect_delay"
        );
        // zero acked-write loss: the promoted master's final clock covers
        // everything any replica was ever told was acknowledged
        let final_clock = sys.cloud.crdts.clock();
        assert!(!hs.acked_snapshots.is_empty());
        for snap in &hs.acked_snapshots {
            assert!(final_clock.dominates(snap), "acked write lost in failover");
        }
        assert!(sys.cloud.crdts.tables["notes"].len() >= 40);
    }

    /// Forwarded writes replicate to the standby before the client sees
    /// the ack, so a master crash right after cannot lose them.
    #[test]
    fn forwarded_writes_survive_master_failover() {
        let report = transformed();
        let mut crashes = CrashPlan::new(13);
        crashes.kill("cloud", SimTime::from_secs_f64(2.0));
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                crashes: Some(crashes),
                ha: Some(HaPolicy::default()),
                policy: FaultPolicy {
                    max_retries: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // break the edge database so every request forwards over the WAN
        sys.edges[0]
            .core
            .server
            .inject_failures(vec!["db.query".to_string()]);
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 5.0, 20));
        assert_eq!(
            stats.completed, 20,
            "retries must ride out the detection window"
        );
        assert_eq!(sys.ha_stats().failovers, 1);
        assert!(!sys.master_down());
        // every acked forward is on the post-failover master
        assert!(
            sys.cloud.crdts.tables["notes"].len() >= stats.completed,
            "an acked forwarded write vanished in the failover"
        );
    }

    /// Multi-variant check: the injected bit-flipping variant is caught
    /// within its mismatch budget and quarantined; healthy replicas are
    /// never falsely quarantined.
    #[test]
    fn quarantine_catches_faulty_variant_without_false_positives() {
        let report = transformed();
        let policy = QuarantinePolicy {
            check_fraction: 1.0,
            mismatch_budget: 2,
            seed: 7,
        };
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);

        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                quarantine: Some(policy.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        sys.inject_faulty_variant(0, 0.9, 0xBAD);
        sys.run(&wl);
        let hs = sys.ha_stats();
        assert!(hs.shadow_checks > 0);
        assert!(
            hs.shadow_mismatches > u64::from(policy.mismatch_budget),
            "the faulty variant must burn through its budget"
        );
        assert!(
            !hs.quarantines.is_empty(),
            "faulty replica must be quarantined"
        );
        assert!(
            hs.quarantines.iter().all(|(i, _)| *i == 0),
            "only the faulty replica may be quarantined: {:?}",
            hs.quarantines
        );
        // the replacement VM is healthy: the injected fault died with the
        // quarantined incarnation
        assert_eq!(sys.corrupted_responses(0), 0);

        // control: the same cluster with no injected fault never
        // quarantines — compiled and tree-walking variants are
        // bit-identical on every checked request
        let mut clean = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                quarantine: Some(policy),
                ..Default::default()
            },
        )
        .unwrap();
        clean.run(&wl);
        let hs = clean.ha_stats();
        assert!(hs.shadow_checks > 0);
        assert_eq!(
            hs.shadow_mismatches, 0,
            "healthy replicas must never mismatch"
        );
        assert!(hs.quarantines.is_empty(), "zero false quarantines required");
    }

    // --- tier placement controller ---

    use crate::tiering::PlacementScript;
    use edgstr_placement::PlacementPolicy;

    fn note_key() -> (Verb, String) {
        (Verb::Post, "/note".to_string())
    }

    /// A policy that demotes the write service on its first closed window:
    /// any sync byte exceeds the ceiling, confirmation is immediate and
    /// the cooldown is zero.
    fn demote_fast_policy() -> PlacementPolicy {
        PlacementPolicy {
            min_requests: 1,
            confirm_windows: 1,
            cooldown: SimDuration::from_secs(0),
            sync_bytes_per_write_ceiling: 1.0,
            ..PlacementPolicy::default()
        }
    }

    #[test]
    fn pinned_cloud_forwards_everything() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                placement: PlacementMode::Pinned(Placement::CloudPin),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..20).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 20);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.forwarded, 20, "cloud-pinned services must forward");
        assert!(stats.wan_request_bytes > 0);
        assert_eq!(sys.placement_of(&note_key()), Placement::CloudPin);
        assert_eq!(sys.placement_stats().promotes, 0);
        assert_eq!(sys.placement_stats().demotes, 0);
    }

    #[test]
    fn cache_only_placement_serves_pure_reads_from_edge_cache() {
        let report = transformed();
        let deploy = |placement| {
            ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4()],
                ThreeTierOptions {
                    placement,
                    cache: CachePolicy::All,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut reqs = vec![unique_note(1)];
        for _ in 0..10 {
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 20.0, reqs.len());
        let mut sys = deploy(PlacementMode::Pinned(Placement::EdgeCacheOnly));
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 11);
        // the POST and the first GET forward; every later GET is an edge
        // cache hit validated against the edge's CRDT read-unit versions
        assert_eq!(stats.forwarded, 2);
        assert!(sys.cache_stats().hits >= 9);
        // no write lands between the GETs, so the cached responses are
        // bit-identical to a cloud-pinned run
        let mut pinned = deploy(PlacementMode::Pinned(Placement::CloudPin));
        let pinned_stats = pinned.run(&wl);
        assert_eq!(stats.response_digest, pinned_stats.response_digest);
    }

    #[test]
    fn adaptive_demotes_chatty_write_service_without_losing_writes() {
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                placement: PlacementMode::Adaptive(demote_fast_policy()),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 40);
        assert_eq!(
            sys.placement_of(&note_key()),
            Placement::CloudPin,
            "a write service whose sync traffic exceeds the ceiling demotes"
        );
        let ps = sys.placement_stats();
        assert!(ps.demotes >= 1);
        assert!(!ps.transitions.is_empty());
        assert!(stats.forwarded > 0, "post-demotion writes must forward");
        // zero acked-write loss: after convergence the master dominates
        // every transition-time acked prefix and holds every write
        sys.sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge");
        let master = sys.cloud.crdts.clock();
        for snap in &sys.placement_stats().acked_snapshots {
            assert!(master.dominates(snap), "acked write lost across demotion");
        }
        // 40 run inserts plus the capture warm-up row
        assert_eq!(sys.cloud.crdts.tables["notes"].len(), 41);
    }

    #[test]
    fn scripted_round_trip_demotes_then_promotes_without_losing_writes() {
        let report = transformed();
        let script = PlacementScript {
            pinned: None,
            decisions: vec![
                ScriptedDecision {
                    at: SimTime(1_000_000),
                    service: note_key(),
                    to: Placement::CloudPin,
                },
                ScriptedDecision {
                    at: SimTime(3_000_000),
                    service: note_key(),
                    to: Placement::EdgeReplicate,
                },
            ],
        };
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions {
                placement: PlacementMode::Scripted(script),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..60).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 60);
        let stats = sys.run(&wl);
        assert_eq!(stats.completed, 60);
        let ps = sys.placement_stats();
        assert_eq!(ps.demotes, 1);
        assert_eq!(ps.promotes, 1);
        assert_eq!(ps.transitions.len(), 2);
        assert!(
            stats.forwarded > 0 && stats.forwarded < 60,
            "only the cloud-pinned phase forwards, got {}",
            stats.forwarded
        );
        assert_eq!(sys.placement_of(&note_key()), Placement::EdgeReplicate);
        sys.sync_until_converged(stats.makespan, 50)
            .expect("cluster must converge");
        let master = sys.cloud.crdts.clock();
        for snap in &sys.placement_stats().acked_snapshots {
            assert!(master.dominates(snap), "acked write lost in round trip");
        }
        // 60 run inserts plus the capture warm-up row
        assert_eq!(sys.cloud.crdts.tables["notes"].len(), 61);
    }

    /// The E18 digest-parity contract: replaying an adaptive run's
    /// recorded decision schedule reproduces the run bit-for-bit.
    #[test]
    fn adaptive_run_replays_to_identical_digest() {
        let report = transformed();
        let mut reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        for _ in 0..10 {
            reqs.push(HttpRequest::get("/count", json!({})));
        }
        let wl = Workload::constant_rate(&reqs, 10.0, reqs.len());
        let deploy = |placement| {
            ThreeTierSystem::deploy(
                APP,
                &report,
                &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
                ThreeTierOptions {
                    placement,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut adaptive = deploy(PlacementMode::Adaptive(demote_fast_policy()));
        let a = adaptive.run(&wl);
        let schedule = adaptive.decision_schedule();
        assert!(!schedule.is_empty(), "the policy must have decided");
        let mut replay = deploy(PlacementMode::Scripted(PlacementScript {
            pinned: None,
            decisions: schedule,
        }));
        let r = replay.run(&wl);
        assert_eq!(a.response_digest, r.response_digest);
        assert_eq!(a.completed, r.completed);
        assert_eq!(a.forwarded, r.forwarded);
        assert_eq!(a.makespan, r.makespan);
        assert_eq!(
            adaptive.placement_stats().transitions.len(),
            replay.placement_stats().transitions.len()
        );
    }

    #[test]
    fn placement_telemetry_exports_gauges_and_events() {
        let report = transformed();
        let telemetry = Telemetry::recording();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4()],
            ThreeTierOptions {
                placement: PlacementMode::Adaptive(demote_fast_policy()),
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let wl = Workload::constant_rate(&reqs, 10.0, 40);
        sys.run(&wl);
        let prom = telemetry.export_prometheus();
        for gauge in [
            "edgstr_placement_state",
            "edgstr_service_read_ratio",
            "edgstr_service_state_bytes",
        ] {
            assert!(prom.contains(gauge), "missing {gauge} in:\n{prom}");
        }
        let trace = telemetry.export_trace_jsonl();
        assert!(trace.contains("placement.pin"), "initial pins must trace");
        assert!(trace.contains("placement.demote"), "demotion must trace");
    }
}
