//! End-to-end system drivers: the original two-tier (client ↔ cloud)
//! deployment and the EdgStr-generated three-tier (client ↔ edge ↔ cloud)
//! deployment, executed over virtual time.
//!
//! These drivers power every performance experiment: throughput vs WAN
//! speed (Fig. 7), latency (Table II), mobile energy (Fig. 8), cluster
//! scaling and elasticity (Fig. 9), and synchronization traffic (Fig. 10a).

use crate::balancer::{Autoscaler, BalanceStrategy, LoadBalancer};
use crate::cache::{CachePolicy, CacheStats};
use crate::crdtset::SetClock;
use crate::driver::RunRecorder;
pub use crate::driver::{FaultPolicy, MobilePower, RunStats, TimedRequest, Workload};
use crate::forwarding::{wan_drops, Breaker, Forward, Forwarder};
use crate::ha::{HaPlane, HaPolicy, HaStats};
use crate::link::{Leg, SyncLink};
use crate::quarantine::{Quarantine, QuarantinePolicy, Shadow};
use crate::replica::{
    cache_plan, handle_profiled, BitFlipCorruptor, Provisioner, ReplicaCore, ReplicaKind,
    ReplicaTemplate, Served,
};
use crate::tiering::{PlacementMode, PlacementStats, Placements, ScriptedDecision};
use edgstr_analysis::{ServerError, ServerProcess};
use edgstr_core::TransformationReport;
use edgstr_crdt::{ActorId, AdvanceMode};
use edgstr_net::{CrashPlan, FaultPlan, HttpRequest, LinkChannel, LinkSpec, Verb};
use edgstr_placement::{Observation, Placement};
use edgstr_sim::{Clock, Device, DeviceSpec, PowerState, SimDuration, SimTime};
use edgstr_telemetry::{Counter, SpanId, StmtProfiler, Telemetry, Tier};
use serde_json::Value as Json;
use std::cell::RefCell;
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

/// One deployed edge replica. The control planes keep their per-edge state
/// here, one typed member each, so a restart resets all of it in one place.
#[derive(Debug)]
pub struct EdgeReplica {
    pub core: ReplicaCore,
    pub device: Device,
    /// Both ends of this edge's sync channel with the cloud master.
    pub link: SyncLink,
    inflight: Vec<SimTime>,
    active: bool,
    crashed: bool,
    /// Circuit breaker on this edge's WAN forwarding.
    pub(crate) breaker: Breaker,
    /// Diversified variant for the multi-variant check, when a
    /// [`QuarantinePolicy`] is configured.
    pub(crate) shadow: Option<Shadow>,
}

impl EdgeReplica {
    /// A freshly deployed replica, its link at the shared snapshot.
    pub(crate) fn new(
        core: ReplicaCore,
        spec: DeviceSpec,
        sync_advance: AdvanceMode,
        shadow: Option<Shadow>,
    ) -> EdgeReplica {
        EdgeReplica {
            core,
            device: Device::new(spec),
            link: SyncLink::starting(sync_advance, SetClock::default()),
            inflight: Vec::new(),
            active: true,
            crashed: false,
            breaker: Breaker::default(),
            shadow,
        }
    }

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

    /// The replicas among `edges` that are not crashed.
    pub(crate) fn live(edges: &[EdgeReplica]) -> impl Iterator<Item = &EdgeReplica> {
        edges.iter().filter(|e| !e.crashed)
    }

    /// What each live edge has been told the master acknowledged: the
    /// snapshot every zero-acked-write-loss audit takes.
    pub(crate) fn acked_prefixes(edges: &[EdgeReplica]) -> impl Iterator<Item = SetClock> + '_ {
        EdgeReplica::live(edges).map(|e| e.link.replica.peer_clock.clone())
    }

    /// The process dies (a crash, a quarantine). The cache dies with it: a
    /// rejoined edge must never serve responses stamped with pre-crash
    /// version vectors.
    pub(crate) fn drain(&mut self) {
        self.crashed = true;
        self.active = false;
        self.inflight.clear();
        self.core.cache.clear();
    }

    /// Bring up a replacement process from a save `image`. Both ends of
    /// its link start acknowledged up to the image's clock — only changes
    /// after it travel on later rounds — and it starts healthy: no injected
    /// fault, a fresh shadow variant with a clean mismatch budget, a closed
    /// breaker.
    pub(crate) fn restart(
        &mut self,
        provisioner: &mut Provisioner,
        image: &[u8],
    ) -> Result<(), ServerError> {
        let core = provisioner.replacement(ReplicaKind::Edge, Some(image))?;
        if self.shadow.is_some() {
            self.shadow = Some(provisioner.shadow_variant()?.into());
        }
        self.link.replica_replaced(core.crdts.clock());
        self.core.replace_process(core);
        self.breaker = Breaker::default();
        self.inflight.clear();
        self.crashed = false;
        self.active = true;
        Ok(())
    }
}

/// The `edge` attribute of a per-edge trace event.
pub(crate) fn edge_attr(i: usize) -> [(&'static str, Json); 1] {
    [("edge", Json::from(i as u64))]
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
            faults: None,
            policy: FaultPolicy::default(),
            sync_advance: AdvanceMode::OnAck,
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

/// How one routed request was answered: what was served, when it was
/// ready at the edge, and whether the cloud served it.
struct Answer {
    served: Served,
    ready: SimTime,
    forwarded: bool,
}

/// The EdgStr-generated three-tier deployment: the nodes, the LAN in
/// front of them, and one control plane per concern. The driver routes and
/// schedules; each plane owns its state and acts on the nodes it is lent.
#[derive(Debug)]
pub struct ThreeTierSystem {
    /// The cloud master; its cache serves forwarded requests.
    pub cloud: ReplicaCore,
    pub cloud_device: Device,
    pub edges: Vec<EdgeReplica>,
    /// As deployed: each plane took its policy from here at deploy.
    pub options: ThreeTierOptions,
    pub mobile: MobilePower,
    balancer: LoadBalancer,
    /// The service profiles routing reads.
    template: Arc<ReplicaTemplate>,
    lan_up: LinkChannel,
    lan_down: LinkChannel,
    ha: HaPlane,
    quarantine: Quarantine,
    forwarder: Forwarder,
    placement: Placements,
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
        let telemetry = options.telemetry.clone();
        // drops on the emulated network surface in the same trace as the
        // retries they cause
        if let Some(plan) = options.faults.as_mut() {
            plan.set_telemetry(telemetry.clone());
        }
        let template = Arc::new(ReplicaTemplate::from_report(cloud_source, report));
        let mut provisioner = Provisioner::new(
            Arc::clone(&template),
            options.cache_budget_bytes,
            &telemetry,
        );
        let cloud = provisioner.provision(ReplicaKind::Master, ActorId(1), None)?;
        let mut edges = Vec::new();
        for (i, spec) in edge_devices.iter().enumerate() {
            let shadow = match options.quarantine {
                Some(_) => Some(provisioner.shadow_variant()?.into()),
                None => None,
            };
            let core = provisioner.provision(ReplicaKind::Edge, ActorId(2 + i as u64), None)?;
            edges.push(EdgeReplica::new(
                core,
                spec.clone(),
                options.sync_advance,
                shadow,
            ));
        }
        let (policy, crashes) = (options.ha.clone(), options.crashes.as_ref());
        let ha = HaPlane::new(policy, crashes, &cloud, provisioner, &telemetry)?;
        let edge_cores = edges.iter().map(|e| f64::from(e.device.spec.cores)).sum();
        let placement = Placements::new(
            &options.placement,
            Arc::clone(&template),
            &cloud,
            edge_cores,
            &telemetry,
        );
        Ok(ThreeTierSystem {
            cloud,
            cloud_device: Device::new(DeviceSpec::cloud_server()),
            edges,
            mobile: MobilePower::default(),
            balancer: LoadBalancer::new(options.balance),
            lan_up: LinkChannel::new(options.lan),
            lan_down: LinkChannel::new(options.lan),
            ha,
            quarantine: Quarantine::new(
                options.quarantine.clone(),
                Arc::clone(&template),
                &telemetry,
            ),
            template,
            forwarder: Forwarder::new(options.policy.clone(), options.wan, &telemetry),
            placement,
            next_sync: SimTime::ZERO + options.sync_interval,
            options,
        })
    }

    /// Accumulated placement decisions and completed transitions.
    pub fn placement_stats(&self) -> &PlacementStats {
        self.placement.stats()
    }

    /// The decision schedule recorded so far — replayable verbatim as
    /// [`PlacementScript::decisions`][crate::PlacementScript] for a
    /// digest-parity reference run.
    pub fn decision_schedule(&self) -> Vec<ScriptedDecision> {
        self.placement.stats().decided.clone()
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
    /// snapshots, keeping resident change logs bounded under steady-state
    /// sync.
    pub fn sync_round(&mut self, at: SimTime) -> usize {
        self.ha.advance(at, &mut self.cloud, &mut self.edges);
        if self.ha.master_down() {
            // no master: nothing to exchange until promotion/recovery
            return 0;
        }
        let telemetry = self.options.telemetry.clone();
        let span = telemetry.start_span("sync.round", Tier::System, None, at);
        // intra-DC first: the standby ingests this round's state before any
        // acknowledgment goes out, so the durability frontier below already
        // reflects it
        self.ha.replicate_to_standby(&mut self.cloud);
        // Under HA the ack clock is capped at the durability frontier: the
        // edge may only treat as acknowledged (and later compact) what the
        // failover target provably holds.
        let cap = self.ha.durability_clock();
        let mut bytes = 0;
        for (i, edge) in self.edges.iter_mut().enumerate() {
            if edge.crashed {
                continue;
            }
            let edge_name = format!("edge{i}");
            // edge_state up, then cloud_state (with the capped ack) down
            let (link, core) = (&mut edge.link, &mut edge.core);
            link.exchange(
                core,
                &mut self.cloud,
                Leg::ToMaster,
                cap.as_ref(),
                |leg, msg| {
                    if !msg.changes.is_empty() {
                        let wire = msg.wire_size();
                        bytes += wire;
                        self.placement.observe_sync(wire, &msg.changes);
                    }
                    let (from, to) = match leg {
                        Leg::ToMaster => (edge_name.as_str(), "cloud"),
                        Leg::ToReplica => ("cloud", edge_name.as_str()),
                    };
                    !wan_drops(&mut self.options.faults, from, to, at)
                },
            );
        }
        // changes received this round reach the standby with the next
        // round's pre-ack replication; persist the image after the
        // exchanges so recovery resumes from this round's state
        self.ha.persist_durable(&self.cloud);
        let folded = self.compact_acked();
        if let Some(reg) = telemetry.registry() {
            reg.counter("edgstr_crdt_changes_folded_total", &[])
                .add(folded as u64);
            reg.gauge("edgstr_crdt_resident_changes", &[])
                .set(self.cloud.crdts.history_len() as f64);
            if folded > 0 {
                let folded = [("folded", Json::from(folded as u64))];
                telemetry.event("crdt.compact", Tier::System, Some(span), at, &folded);
            }
        }
        self.placement.apply_ready(at, &self.cloud, &self.edges);
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
    /// a change is folded only once *all* live peers have acknowledged it
    /// (and, under HA, once the failover target holds it). Crashed edges
    /// are excluded from the meet — a restarted replica re-provisions from
    /// a compacted save ([`ThreeTierSystem::restart_edge`]) instead of
    /// replaying history, so nothing it missed is ever needed again. Each
    /// edge's only sync peer is the cloud, so its frontier is the cloud's
    /// ack clock directly.
    pub fn compact_acked(&mut self) -> usize {
        let mut dropped = 0;
        let mut acked = EdgeReplica::live(&self.edges).map(|e| &e.link.master.peer_clock);
        let frontier = acked
            .next()
            .map(|first| acked.fold(first.clone(), |acc, clock| acc.meet(clock)));
        if let Some(frontier) = frontier {
            dropped += self.ha.compact_master(&mut self.cloud, frontier);
        }
        for edge in self.edges.iter_mut().filter(|e| !e.crashed) {
            dropped += edge.core.crdts.compact(&edge.link.replica.peer_clock);
        }
        dropped
    }

    /// Whether every live replica has observed exactly what the cloud
    /// master has (mutual clock domination — the strong-eventual-
    /// consistency convergence criterion).
    pub fn converged(&self) -> bool {
        let master = self.cloud.crdts.clock();
        EdgeReplica::live(&self.edges).all(|e| {
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
        self.converged().then_some((max_rounds, at))
    }

    /// Crash an edge replica: it loses all volatile state, stops serving,
    /// and stops syncing until [`ThreeTierSystem::restart_edge`].
    pub fn crash_edge(&mut self, i: usize) {
        self.ha.crash_edge(&mut self.edges[i]);
    }

    /// Restart a crashed edge under a brand-new actor id, from the save
    /// image [`HaPlane::restart_edge`] picks; it rejoins sync at the image's
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates replica init failures.
    pub fn restart_edge(&mut self, i: usize) -> Result<(), ServerError> {
        self.ha.restart_edge(&mut self.edges[i], &self.cloud)
    }

    /// Accumulated failure/recovery observations.
    pub fn ha_stats(&self) -> &HaStats {
        &self.ha.stats
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

    /// Autoscaler step at an arrival: wake or park replicas toward the
    /// desired active count and sample it. A crashed replica cannot be
    /// woken, so it takes no rank: the first `desired` *live* replicas are
    /// the ones that should run.
    fn rescale(&mut self, scaler: Autoscaler, now: SimTime, rec: &mut RunRecorder) {
        let inflight: usize = self.edges.iter().map(EdgeReplica::connections).sum();
        let desired = scaler.desired(inflight.max(1), self.edges.len());
        let live = self
            .edges
            .iter_mut()
            .enumerate()
            .filter(|(_, e)| !e.crashed);
        for (rank, (i, e)) in live.enumerate() {
            let wanted = rank < desired;
            let (state, event) = if wanted && !e.active {
                (PowerState::Idle, "replica.unpark")
            } else if !wanted && e.active && e.connections() == 0 {
                (PowerState::LowPower, "replica.park")
            } else {
                continue;
            };
            e.active = wanted;
            e.device.set_power_state(state, now);
            let telemetry = &self.options.telemetry;
            telemetry.event(event, Tier::Edge, None, now, &edge_attr(i));
        }
        let active = self.edges.iter().filter(|e| e.active).count();
        rec.replica_sample(now, active);
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
        write: bool,
        answer: &Answer,
        wait: SimDuration,
    ) {
        let local_est = self.edges[idx]
            .device
            .spec
            .service_time(answer.served.cycles);
        let cloud_est = self.cloud_device.spec.service_time(answer.served.cycles);
        let forward_est = SimDuration(self.options.wan.latency.0 * 2 + cloud_est.0);
        let (local, forward) = if answer.forwarded {
            (local_est, wait)
        } else {
            (wait, forward_est)
        };
        let obs = Observation {
            write,
            // a cloud cache hit is still a forward to the edge's controller
            cache_hit: answer.served.hit && !answer.forwarded,
            local_us: local.0,
            forward_us: forward.0,
            local_demand_us: local_est.0,
        };
        self.placement.observe(key, obs);
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
            while self.next_sync <= now {
                let tick = self.next_sync;
                rec.add_wan_sync_bytes(self.sync_round(tick));
                self.placement.tick(tick, &self.cloud, &self.edges);
                self.next_sync += self.options.sync_interval;
            }
            // scheduled crashes / restarts / promotions that elapsed
            self.ha.advance(now, &mut self.cloud, &mut self.edges);
            for e in self.edges.iter_mut() {
                e.prune(now);
            }
            if let Some(scaler) = self.options.autoscaler {
                self.rescale(scaler, now, &mut rec);
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
            let placement = self.placement.placement_of(&key);
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
                let edge = &mut self.edges[idx];
                let shadow = self.quarantine.shadow_execute(edge, &tr.request, summary);
                served = edge
                    .core
                    .execute(&tr.request, summary, plan.as_ref(), &profiler)
                    .ok();
                // a failed execution is forwarded, not compared
                shadow_verdict = shadow.filter(|_| served.is_some());
            }
            let answer = if let Some(s) = served {
                // answered at the edge, from its cache or by its replica
                if self.edges[idx].breaker.is_open(arrive) {
                    // still served locally under an open breaker; deltas
                    // queue until the WAN heals
                    rec.degraded();
                    telemetry.event("degraded.local_serve", Tier::Edge, Some(span), arrive, &[]);
                }
                let serve = telemetry.start_span("serve", Tier::Edge, Some(span), arrive);
                let (_, finish) = self.edges[idx].device.schedule_work(arrive, s.cycles);
                telemetry.end_span(serve, finish);
                Answer {
                    ready: finish,
                    served: s,
                    forwarded: false,
                }
            } else {
                // not answered at the edge (a cloud-placed service, or the
                // local execution failed): the edge proxies the request to
                // the cloud master over the WAN (§II-B)
                rec.forwarded();
                if self.edges[idx].breaker.is_open(arrive) {
                    // degraded mode: fail fast without a WAN attempt
                    rec.degraded();
                    rec.fail();
                    telemetry.event("degraded.fail_fast", Tier::Edge, Some(span), arrive, &[]);
                    telemetry.end_span(span, arrive);
                    continue;
                }
                let fwd = telemetry.start_span("forward", Tier::Edge, Some(span), arrive);
                let forward = Forward {
                    request: &tr.request,
                    summary,
                    plan: plan.as_ref(),
                    edge: idx,
                    arrive,
                    span: fwd,
                    rec: &mut rec,
                };
                let (cloud, device, edges) =
                    (&mut self.cloud, &mut self.cloud_device, &mut self.edges);
                let (ha, faults) = (&mut self.ha, &mut self.options.faults);
                let forwarded = self
                    .forwarder
                    .forward(forward, cloud, device, edges, ha, faults);
                let Some((back_at_edge, s)) = forwarded else {
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
                    self.edges[idx].core.fill(p, &s.response);
                }
                Answer {
                    ready: back_at_edge,
                    served: s,
                    forwarded: true,
                }
            };
            let resp_size = answer.served.response.size();
            let done = self.lan_down.send(answer.ready, resp_size);
            rec.add_lan_bytes(resp_size);
            self.edges[idx].inflight.push(done);
            let (down, wait) = (done - answer.ready, answer.ready - arrive);
            // whether this request's digest mismatch exhausts the edge's
            // budget; acted on after the response is recorded
            let quarantine = shadow_verdict.is_some_and(|shadow| {
                let agree = answer.served.response.digest() == shadow.digest();
                let (edge, stats) = (&mut self.edges[idx], &mut self.ha.stats);
                self.quarantine
                    .charge(idx, edge, agree, answer.ready, span, stats)
            });
            let energy = self.mobile.request_energy_j(up, down, wait);
            rec.complete(&answer.served.response, tr.at, done, energy);
            telemetry.end_span(span, done);
            if self.placement.adaptive() {
                let write = summary.is_some_and(|s| !s.pure);
                self.observe_placement(&key, idx, write, &answer, wait);
            }
            if quarantine {
                // drained, then re-provisioned like any crashed edge
                let (edge, stats) = (&mut self.edges[idx], &mut self.ha.stats);
                self.quarantine.open(idx, edge, done, stats);
                self.restart_edge(idx)
                    .expect("re-provisioning a quarantined replica must succeed");
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

    /// A crashed replica cannot be woken, so it takes no rank: with `edge0`
    /// down from 2 s to 12 s the autoscaler keeps one of the two healthy
    /// replicas running instead of leaving both parked behind it.
    #[test]
    fn autoscaler_ranks_live_replicas_while_one_is_down() {
        let report = transformed();
        let mut crashes = CrashPlan::new(11);
        crashes.crash(
            "edge0",
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(12.0),
        );
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi4(), DeviceSpec::rpi4()],
            ThreeTierOptions {
                autoscaler: Some(Autoscaler::default()),
                crashes: Some(crashes),
                ..Default::default()
            },
        )
        .unwrap();
        let reqs: Vec<HttpRequest> = (0..40).map(unique_note).collect();
        let stats = sys.run(&Workload::constant_rate(&reqs, 2.0, 40));
        assert_eq!((stats.completed, stats.failed), (40, 0));
        let min_active = stats.replica_samples.iter().map(|(_, n)| *n).min();
        assert_eq!(min_active, Some(1), "never a cluster with nothing running");
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
        let report = transformed();
        let mut sys = ThreeTierSystem::deploy(
            APP,
            &report,
            &[DeviceSpec::rpi4(), DeviceSpec::rpi3()],
            ThreeTierOptions::default(),
        )
        .unwrap();
        let mut peak = 0usize;
        let mut t = SimTime::ZERO;
        for batch in 0..20usize {
            let reqs: Vec<HttpRequest> = (batch * 10..batch * 10 + 10).map(unique_note).collect();
            let stats = sys.run(&Workload::constant_rate(&reqs, 20.0, 10).shifted(t));
            t = stats.makespan;
            peak = peak.max(sys.cloud.crdts.history_len());
        }
        sys.sync_until_converged(t, 10)
            .expect("steady-state cluster must converge");
        let writes = sys.cloud.crdts.tables["notes"].len();
        assert!(writes >= 200);
        // every write is at least one change: unfolded, the history would
        // hold no fewer than `writes` of them
        assert!(
            peak * 4 < writes,
            "compaction must bound resident history: peak {peak} of {writes} writes"
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
            sys.edges[0].breaker.is_open(stats.makespan),
            "timeouts across the partition must open the breaker"
        );
        // well past the partition and the cooldown: half-open probes
        // forward again, succeed, and close the breaker
        let probe: Vec<HttpRequest> = (50..53).map(unique_note).collect();
        let stats =
            sys.run(&Workload::constant_rate(&probe, 2.0, 3).shifted(SimTime::from_secs_f64(25.0)));
        assert_eq!(stats.completed, 3, "probes must get through a healed WAN");
        assert!(!sys.edges[0].breaker.is_open(stats.makespan));
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
        assert!(sys.edges[0].breaker.is_open(stats.makespan));
        sys.crash_edge(0);
        sys.restart_edge(0).unwrap();
        assert!(
            !sys.edges[0].breaker.is_open(stats.makespan),
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
        assert!(!sys.ha.master_down());
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
        assert!(!sys.ha.master_down());
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
        assert_eq!(sys.placement.placement_of(&note_key()), Placement::CloudPin);
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
            sys.placement.placement_of(&note_key()),
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
        assert_eq!(
            sys.placement.placement_of(&note_key()),
            Placement::EdgeReplicate
        );
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
