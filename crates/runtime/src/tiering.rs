//! Per-service tier placement wired into the three-tier runtime.
//!
//! The decision logic lives in `edgstr-placement`; this module holds the
//! runtime-facing plumbing: the placement *mode* configured on
//! [`crate::ThreeTierOptions`], the scripted-replay schedule format, and
//! the placement plane itself ([`Placements`]) — the effective placements
//! routing reads, the one source decisions come from, the safe mid-run
//! transition machinery (clock-domination barriers), and the accumulated
//! stats the E18 bench audits.
//!
//! ## Transition safety
//!
//! Placement flips never take effect at the decision instant. A
//! **promotion** to [`Placement::EdgeReplicate`] provisions from the
//! continuously-replicated CRDT state and *warms from the sync stream*:
//! it completes only once every live edge's clock dominates the cloud
//! clock snapshotted at decision time, so the first locally-served
//! request observes at least everything the cloud had decided on. A
//! **demotion** out of `EdgeReplicate` drains: the service keeps serving
//! locally until the cloud clock dominates every live edge's
//! decision-time clock — every unsynced delta has been folded to the
//! cloud — and only then falls back to forward-with-cache. (In-flight
//! requests complete atomically in the virtual-time driver, so request
//! draining is implied.) Because barrier completion is a pure function of
//! the deterministic sync schedule, a recorded decision schedule replayed
//! via [`PlacementMode::Scripted`] flips at identical virtual times and
//! reproduces bit-identical response digests.

use crate::crdtset::{CrdtSet, SetChanges, SetClock};
use crate::replica::{ReplicaCore, ReplicaTemplate};
use crate::system::EdgeReplica;
use edgstr_analysis::{EffectSummary, StateUnit};
use edgstr_net::Verb;
use edgstr_placement::{
    Observation, Placement, PlacementController, PlacementPolicy, StaticSignals,
};
use edgstr_sim::SimTime;
use edgstr_telemetry::{Telemetry, Tier};
use serde_json::Value as Json;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type ServiceKey = (Verb, String);

/// How the deployment assigns per-service placements.
#[derive(Debug, Clone, Default)]
pub enum PlacementMode {
    /// The pre-controller semantics: services the transformation report
    /// replicates serve at the edge, everything else forwards. The
    /// default, and byte-for-byte identical to the pre-placement runtime.
    #[default]
    ReportStatic,
    /// Every service pinned to one placement (ablation cells). A pin to
    /// `EdgeReplicate` is clamped per service to the best placement it
    /// supports: cache-only when the report did not replicate it but its
    /// profile is cacheable, cloud otherwise.
    Pinned(Placement),
    /// The autonomous controller: decisions from static effect signals
    /// plus sliding telemetry windows, re-deciding at every sync tick.
    Adaptive(PlacementPolicy),
    /// Replay a recorded decision schedule (digest-parity reference runs).
    Scripted(PlacementScript),
}

/// A pinned-or-replayed placement schedule.
#[derive(Debug, Clone, Default)]
pub struct PlacementScript {
    /// Initial placement override for every service (`None` starts from
    /// the report-static assignment, as the adaptive controller does).
    pub pinned: Option<Placement>,
    /// Time-ordered decisions to replay.
    pub decisions: Vec<ScriptedDecision>,
}

/// One recorded (or replayed) placement decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedDecision {
    pub at: SimTime,
    pub service: (Verb, String),
    pub to: Placement,
}

/// Why a decided transition has not taken effect yet.
#[derive(Debug)]
enum TransitionBarrier {
    /// No state hand-off needed: applies at the next barrier check.
    Immediate,
    /// Promotion warm-up: every live edge clock must dominate this cloud
    /// snapshot before local serving starts.
    EdgesDominate(SetClock),
    /// Demotion drain: the cloud clock must dominate each of these edge
    /// snapshots (all unsynced deltas folded) before forwarding starts.
    CloudDominates(Vec<SetClock>),
}

/// A completed transition (while it waits on its barrier, `completed_at`
/// is still `decided_at`).
#[derive(Debug, Clone)]
pub struct TransitionRecord {
    pub service: (Verb, String),
    pub from: Placement,
    pub to: Placement,
    pub decided_at: SimTime,
    pub completed_at: SimTime,
    pub reason: String,
}

/// Accumulated placement activity across a system's lifetime.
#[derive(Debug, Clone, Default)]
pub struct PlacementStats {
    /// Every effective decision, in decision order — replayable verbatim
    /// as [`PlacementScript::decisions`].
    pub decided: Vec<ScriptedDecision>,
    /// Completed transitions with their barrier-crossing times.
    pub transitions: Vec<TransitionRecord>,
    /// Rank-increasing transitions (toward the edge).
    pub promotes: u32,
    /// Rank-decreasing transitions (toward the cloud).
    pub demotes: u32,
    /// Ack clocks snapshotted at every completed transition (each live
    /// edge's acked prefix). The zero-acked-write-loss audit: the final
    /// converged master clock must dominate every snapshot.
    pub acked_snapshots: Vec<SetClock>,
}

/// Telemetry label for a service key: `"GET /path"`.
fn service_label(key: &ServiceKey) -> String {
    format!("{} {}", key.0, key.1)
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

/// Which services write what, by kind of state unit: how a sync message's
/// wire bytes are attributed to services — the controller's per-service
/// sync-traffic signal.
#[derive(Debug, Default)]
struct SyncWriters {
    tables: BTreeMap<String, Vec<ServiceKey>>,
    /// File and global changes are not split per unit on the wire; their
    /// byte share goes to every service writing any unit of that kind.
    files: BTreeSet<ServiceKey>,
    globals: BTreeSet<ServiceKey>,
}

impl SyncWriters {
    fn of(effects: &BTreeMap<ServiceKey, EffectSummary>) -> SyncWriters {
        let mut writers = SyncWriters::default();
        for (key, summary) in effects {
            for w in &summary.writes {
                match w {
                    StateUnit::DbTable(t) => {
                        writers
                            .tables
                            .entry(t.clone())
                            .or_default()
                            .push(key.clone());
                    }
                    StateUnit::File(_) => _ = writers.files.insert(key.clone()),
                    StateUnit::Global(_) => _ = writers.globals.insert(key.clone()),
                }
            }
        }
        writers
    }

    /// Split `msg_bytes` across the services that write the units `changes`
    /// carries (equal share per writer), at change-count granularity.
    fn credit(
        &self,
        msg_bytes: u64,
        changes: &SetChanges,
        mut credit: impl FnMut(&ServiceKey, u64),
    ) {
        let total = changes.len() as u64;
        let mut share_out = |writers: &mut dyn ExactSizeIterator<Item = &ServiceKey>, carried| {
            let bytes = (msg_bytes * carried as u64).checked_div(total).unwrap_or(0);
            let per = bytes.checked_div(writers.len() as u64).unwrap_or(0);
            if per > 0 {
                writers.for_each(|w| credit(w, per));
            }
        };
        for (table, ch) in &changes.tables {
            if let Some(writers) = self.tables.get(table) {
                share_out(&mut writers.iter(), ch.len());
            }
        }
        share_out(&mut self.files.iter(), changes.files.len());
        share_out(&mut self.globals.iter(), changes.globals.len());
    }
}

/// Where placement decisions come from.
#[derive(Debug)]
enum Decisions {
    /// Nowhere: the deploy-time placements stand.
    Fixed,
    /// A time-ordered schedule and its replay cursor.
    Scripted(Vec<ScriptedDecision>, usize),
    /// The autonomous controller.
    Adaptive(PlacementController),
}

/// The placement plane of one deployment.
#[derive(Debug)]
pub struct Placements {
    /// Effective per-service placement; routing consults this on every
    /// request. Under the default [`PlacementMode::ReportStatic`] it is
    /// exactly the report's replicated set (replicated → `EdgeReplicate`,
    /// everything else → `CloudPin`).
    effective: BTreeMap<ServiceKey, Placement>,
    source: Decisions,
    /// Decided transitions waiting on their clock-domination barriers.
    pending: Vec<(TransitionRecord, TransitionBarrier)>,
    sync_writers: SyncWriters,
    stats: PlacementStats,
    template: Arc<ReplicaTemplate>,
    telemetry: Telemetry,
}

impl Placements {
    /// The plane for a fresh deployment, its services placed as `mode`
    /// says. `edge_cores` is the cluster's aggregate edge compute, against
    /// which the controller measures offered-demand utilization; `cloud`
    /// gives its static state-footprint signal.
    pub fn new(
        mode: &PlacementMode,
        template: Arc<ReplicaTemplate>,
        cloud: &ReplicaCore,
        edge_cores: f64,
        telemetry: &Telemetry,
    ) -> Placements {
        let (effects, replicated) = (&template.effects, &template.replicated);
        let pin = match mode {
            PlacementMode::Pinned(p) => Some(*p),
            PlacementMode::Scripted(script) => script.pinned,
            PlacementMode::ReportStatic | PlacementMode::Adaptive(_) => None,
        };
        let mut plane = Placements {
            effective: BTreeMap::new(),
            source: Decisions::Fixed,
            pending: Vec::new(),
            sync_writers: SyncWriters::of(effects),
            stats: PlacementStats::default(),
            template: Arc::clone(&template),
            telemetry: telemetry.clone(),
        };
        // every profiled or replicated service gets an explicit placement
        for key in effects.keys().chain(replicated) {
            let natural = if replicated.contains(key) {
                Placement::EdgeReplicate
            } else {
                Placement::CloudPin
            };
            let p = pin.map_or(natural, |p| plane.clamp(p, key));
            plane.effective.insert(key.clone(), p);
        }
        plane.source = match mode {
            PlacementMode::Adaptive(policy) => {
                let mut c = PlacementController::new(policy.clone(), edge_cores.max(1.0));
                for (key, p) in &plane.effective {
                    let replicable = replicated.contains(key);
                    let signals = effects.get(key).map_or_else(
                        || StaticSignals {
                            replicable,
                            ..StaticSignals::default()
                        },
                        |s| {
                            let bytes = service_state_bytes(&cloud.crdts, s);
                            StaticSignals::from_summary(s, replicable, bytes)
                        },
                    );
                    c.register(key.clone(), signals, *p);
                }
                Decisions::Adaptive(c)
            }
            PlacementMode::Scripted(script) => {
                let mut decisions = script.decisions.clone();
                decisions.sort_by_key(|d| d.at);
                Decisions::Scripted(decisions, 0)
            }
            PlacementMode::ReportStatic | PlacementMode::Pinned(_) => Decisions::Fixed,
        };
        if telemetry.is_enabled() {
            for (key, p) in &plane.effective {
                let attrs = [
                    ("service", Json::from(service_label(key))),
                    ("to", Json::from(p.as_str())),
                ];
                telemetry.event("placement.pin", Tier::System, None, SimTime::ZERO, &attrs);
            }
            for (key, p) in &plane.effective {
                plane.set_state_gauge(&service_label(key), *p);
            }
        }
        plane
    }

    /// Clamp a requested placement to what the service supports:
    /// `EdgeReplicate` needs the report to have replicated the service;
    /// otherwise the best remaining placement is cache-only (when the
    /// profile is cacheable) or the cloud.
    fn clamp(&self, requested: Placement, key: &ServiceKey) -> Placement {
        if requested != Placement::EdgeReplicate || self.template.replicated.contains(key) {
            requested
        } else if self.template.effects.get(key).is_some_and(|s| s.cacheable) {
            Placement::EdgeCacheOnly
        } else {
            Placement::CloudPin
        }
    }

    fn set_state_gauge(&self, label: &str, p: Placement) {
        if let Some(reg) = self.telemetry.registry() {
            reg.gauge("edgstr_placement_state", &[("service", label)])
                .set(f64::from(p.rank()));
        }
    }

    /// The effective placement routing uses for `key` right now (pending
    /// transitions have not happened yet).
    pub fn placement_of(&self, key: &ServiceKey) -> Placement {
        self.effective
            .get(key)
            .copied()
            .unwrap_or(Placement::CloudPin)
    }

    /// Accumulated placement decisions and completed transitions.
    pub fn stats(&self) -> &PlacementStats {
        &self.stats
    }

    /// Whether completed requests and sync messages feed a controller.
    pub fn adaptive(&self) -> bool {
        matches!(self.source, Decisions::Adaptive(_))
    }

    /// Placement control-plane step at a sync tick: take the decisions due
    /// at `at` from the script or from the adaptive controller (over the
    /// windows that just closed), then apply any transition whose barrier
    /// is met.
    pub fn tick(&mut self, at: SimTime, cloud: &ReplicaCore, edges: &[EdgeReplica]) {
        let due: Vec<(ScriptedDecision, &str)> = match &mut self.source {
            Decisions::Fixed => Vec::new(),
            Decisions::Scripted(script, cursor) => {
                let from = *cursor;
                *cursor += script[from..].iter().take_while(|d| d.at <= at).count();
                let due = script[from..*cursor].iter();
                due.map(|d| (d.clone(), "scripted")).collect()
            }
            Decisions::Adaptive(c) => {
                let decided = c.tick(at).into_iter();
                decided
                    .map(|d| {
                        let (at, service, to) = (d.at, d.service, d.to);
                        (ScriptedDecision { at, service, to }, d.reason.as_str())
                    })
                    .collect()
            }
        };
        for (decision, reason) in due {
            self.begin_transition(decision, reason, cloud, edges);
        }
        self.publish_gauges(cloud);
        self.apply_ready(at, cloud, edges);
    }

    /// Queue one placement transition. A decision made while an earlier
    /// transition of the same service is still draining chains off that
    /// transition's target, preserving per-service FIFO order.
    fn begin_transition(
        &mut self,
        decision: ScriptedDecision,
        reason: &str,
        cloud: &ReplicaCore,
        edges: &[EdgeReplica],
    ) {
        let to = self.clamp(decision.to, &decision.service);
        let mut chained = self.pending.iter().rev();
        let from = chained
            .find(|(t, _)| t.service == decision.service)
            .map_or_else(|| self.placement_of(&decision.service), |(t, _)| t.to);
        if from == to {
            return;
        }
        let barrier = if to == Placement::EdgeReplicate {
            // promotion warm-up: local serving starts only once every live
            // edge has observed at least this cloud snapshot
            TransitionBarrier::EdgesDominate(cloud.crdts.clock())
        } else if from == Placement::EdgeReplicate {
            // demotion drain: keep serving locally until the cloud holds
            // every edge delta that existed at decision time
            let clocks = EdgeReplica::live(edges).map(|e| e.core.crdts.clock());
            TransitionBarrier::CloudDominates(clocks.collect())
        } else {
            TransitionBarrier::Immediate
        };
        let waiting = TransitionRecord {
            service: decision.service.clone(),
            from,
            to,
            decided_at: decision.at,
            completed_at: decision.at,
            reason: reason.to_string(),
        };
        self.pending.push((waiting, barrier));
        self.stats.decided.push(ScriptedDecision { to, ..decision });
    }

    /// Apply every pending transition whose barrier is met, in decision
    /// order per service (a later transition never overtakes an earlier
    /// one that is still draining).
    pub fn apply_ready(&mut self, at: SimTime, cloud: &ReplicaCore, edges: &[EdgeReplica]) {
        if self.pending.is_empty() {
            return;
        }
        let cloud_clock = cloud.crdts.clock();
        let mut blocked: BTreeSet<ServiceKey> = BTreeSet::new();
        let mut i = 0;
        while i < self.pending.len() {
            let (t, barrier) = &self.pending[i];
            let ready = !blocked.contains(&t.service)
                && match barrier {
                    TransitionBarrier::Immediate => true,
                    TransitionBarrier::EdgesDominate(snap) => {
                        EdgeReplica::live(edges).all(|e| e.core.crdts.clock().dominates(snap))
                    }
                    TransitionBarrier::CloudDominates(snaps) => {
                        snaps.iter().all(|s| cloud_clock.dominates(s))
                    }
                };
            if ready {
                let (t, _) = self.pending.remove(i);
                self.complete_transition(t, at, edges);
            } else {
                blocked.insert(t.service.clone());
                i += 1;
            }
        }
    }

    /// Flip the effective placement, record the transition, snapshot the
    /// acked prefixes for the write-loss audit, and emit telemetry.
    fn complete_transition(&mut self, t: TransitionRecord, at: SimTime, edges: &[EdgeReplica]) {
        self.effective.insert(t.service.clone(), t.to);
        let promote = t.to.rank() > t.from.rank();
        if promote {
            self.stats.promotes += 1;
        } else {
            self.stats.demotes += 1;
        }
        // audit point for zero acked-write loss: the final converged
        // master clock must dominate every live edge's acked prefix as it
        // stood at the flip
        self.stats
            .acked_snapshots
            .extend(EdgeReplica::acked_prefixes(edges));
        if self.telemetry.is_enabled() {
            let event = if promote {
                "placement.promote"
            } else {
                "placement.demote"
            };
            let attrs = [
                ("service", Json::from(service_label(&t.service))),
                ("from", Json::from(t.from.as_str())),
                ("to", Json::from(t.to.as_str())),
                ("reason", Json::from(t.reason.clone())),
            ];
            self.telemetry.event(event, Tier::System, None, at, &attrs);
            self.set_state_gauge(&service_label(&t.service), t.to);
        }
        let completed_at = at;
        let done = TransitionRecord { completed_at, ..t };
        self.stats.transitions.push(done);
    }

    /// Per-service controller gauges: effective placement rank, window
    /// read ratio, and live state-byte footprint.
    fn publish_gauges(&self, cloud: &ReplicaCore) {
        let (Decisions::Adaptive(c), Some(reg)) = (&self.source, self.telemetry.registry()) else {
            return;
        };
        for (key, _, summary) in c.snapshot() {
            let label = service_label(&key);
            self.set_state_gauge(&label, self.placement_of(&key));
            reg.gauge("edgstr_service_read_ratio", &[("service", &label)])
                .set(summary.read_ratio);
            let effects = self.template.effects.get(&key);
            let state_bytes = effects.map_or(0, |s| service_state_bytes(&cloud.crdts, s));
            reg.gauge("edgstr_service_state_bytes", &[("service", &label)])
                .set(state_bytes as f64);
        }
    }

    /// Feed one completed request into the adaptive controller's window.
    pub fn observe(&mut self, key: &ServiceKey, obs: Observation) {
        if let Decisions::Adaptive(c) = &mut self.source {
            c.observe(key, obs);
        }
    }

    /// Attribute one sync message's `wire` bytes to the services whose
    /// writes it carries, in the adaptive controller's open windows.
    pub fn observe_sync(&mut self, wire: usize, changes: &SetChanges) {
        if let Decisions::Adaptive(c) = &mut self.source {
            let credit = |key: &ServiceKey, bytes| c.observe_sync_bytes(key, bytes);
            self.sync_writers.credit(wire as u64, changes, credit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Leg;
    use crate::replica::tests::{deployment, note};
    use crate::replica::{Provisioner, ReplicaKind};
    use edgstr_analysis::ReadUnit;
    use edgstr_crdt::{ActorId, AdvanceMode};
    use edgstr_sim::DeviceSpec;

    fn noting() -> ServiceKey {
        (Verb::Post, "/note".to_string())
    }

    fn counting() -> ServiceKey {
        (Verb::Get, "/count".to_string())
    }

    /// A master, one edge and the plane over a deployment that replicates
    /// `POST /note` and profiles `GET /count` as a cacheable read.
    fn cluster(mode: PlacementMode) -> (Placements, ReplicaCore, Vec<EdgeReplica>) {
        let mut template = ReplicaTemplate::clone(&deployment().template);
        template.replicated.insert(noting());
        let writes = EffectSummary {
            writes: vec![StateUnit::DbTable("notes".into())],
            ..EffectSummary::default()
        };
        let reads = EffectSummary {
            reads: vec![ReadUnit::Table("notes".into())],
            pure: true,
            cacheable: true,
            ..EffectSummary::default()
        };
        template.effects.insert(noting(), writes);
        template.effects.insert(counting(), reads);
        let template = Arc::new(template);
        let telemetry = Telemetry::disabled();
        let mut provisioner = Provisioner::new(Arc::clone(&template), 0, &telemetry);
        let cloud = provisioner
            .provision(ReplicaKind::Master, ActorId(1), None)
            .unwrap();
        let core = provisioner
            .provision(ReplicaKind::Edge, ActorId(2), None)
            .unwrap();
        let edge = EdgeReplica::new(core, DeviceSpec::rpi4(), AdvanceMode::OnAck, None);
        let plane = Placements::new(&mode, template, &cloud, 4.0, &telemetry);
        (plane, cloud, vec![edge])
    }

    fn sync(cloud: &mut ReplicaCore, edge: &mut EdgeReplica) {
        let (link, core) = (&mut edge.link, &mut edge.core);
        link.exchange(core, cloud, Leg::ToMaster, None, |_, _| true);
    }

    /// A demotion drains and a promotion warms up: neither takes effect
    /// before its clock barrier is met, however often the driver asks.
    #[test]
    fn transitions_wait_for_their_clock_barriers() {
        let decide = |at, to| ScriptedDecision {
            at: SimTime(at),
            service: noting(),
            to,
        };
        let script = PlacementScript {
            pinned: None,
            decisions: vec![
                // out of order, and with a decision for where it already is
                decide(3_000_000, Placement::EdgeReplicate),
                decide(1_000_000, Placement::CloudPin),
                decide(500_000, Placement::EdgeReplicate),
            ],
        };
        let (mut plane, mut cloud, mut edges) = cluster(PlacementMode::Scripted(script));
        assert_eq!(plane.placement_of(&noting()), Placement::EdgeReplicate);
        assert_eq!(plane.placement_of(&counting()), Placement::CloudPin);
        assert!(!plane.adaptive());

        // the edge holds a write the cloud has not seen when the demotion
        // is decided
        edges[0]
            .core
            .execute(&note(1, "a"), None, None, &None)
            .unwrap();
        plane.tick(SimTime(1_000_000), &cloud, &edges);
        plane.apply_ready(SimTime(1_200_000), &cloud, &edges);
        assert_eq!(plane.stats().decided.len(), 1, "the no-op decided nothing");
        assert_eq!(plane.placement_of(&noting()), Placement::EdgeReplicate);
        sync(&mut cloud, &mut edges[0]);
        plane.apply_ready(SimTime(1_500_000), &cloud, &edges);
        assert_eq!(plane.placement_of(&noting()), Placement::CloudPin);

        // the cloud holds a forwarded write the edge has not seen when the
        // promotion is decided
        cloud.execute(&note(2, "b"), None, None, &None).unwrap();
        plane.tick(SimTime(3_000_000), &cloud, &edges);
        assert_eq!(plane.placement_of(&noting()), Placement::CloudPin);
        sync(&mut cloud, &mut edges[0]);
        plane.apply_ready(SimTime(3_500_000), &cloud, &edges);
        assert_eq!(plane.placement_of(&noting()), Placement::EdgeReplicate);

        let stats = plane.stats();
        assert_eq!((stats.demotes, stats.promotes), (1, 1));
        let times: Vec<(u64, u64)> = stats
            .transitions
            .iter()
            .map(|t| (t.decided_at.0, t.completed_at.0))
            .collect();
        assert_eq!(times, vec![(1_000_000, 1_500_000), (3_000_000, 3_500_000)]);
        assert!(stats.transitions.iter().all(|t| t.reason == "scripted"));
        // one live edge, one acked prefix per flip, all held by the master
        assert_eq!(stats.acked_snapshots.len(), 2);
        let master = cloud.crdts.clock();
        assert!(stats.acked_snapshots.iter().all(|s| master.dominates(s)));
    }

    #[test]
    fn a_pin_is_clamped_to_what_each_service_supports() {
        let (plane, ..) = cluster(PlacementMode::Pinned(Placement::EdgeReplicate));
        assert_eq!(plane.placement_of(&noting()), Placement::EdgeReplicate);
        assert_eq!(plane.placement_of(&counting()), Placement::EdgeCacheOnly);
        let unprofiled = (Verb::Get, "/hits".to_string());
        assert_eq!(plane.placement_of(&unprofiled), Placement::CloudPin);
        let (plane, ..) = cluster(PlacementMode::Pinned(Placement::CloudPin));
        assert_eq!(plane.placement_of(&noting()), Placement::CloudPin);
    }

    /// Sync bytes are split over the services writing the units a message
    /// carries, table by table.
    #[test]
    fn sync_bytes_are_credited_to_the_writers_of_what_a_message_carries() {
        let (_, _, mut edges) = cluster(PlacementMode::ReportStatic);
        edges[0]
            .core
            .execute(&note(1, "a"), None, None, &None)
            .unwrap();
        let edge = &mut edges[0];
        let msg = edge.link.replica.generate(&edge.core.crdts);
        let writing = |units: Vec<StateUnit>| EffectSummary {
            writes: units,
            ..EffectSummary::default()
        };
        let (notes, written) = (
            StateUnit::DbTable("notes".into()),
            StateUnit::Global("written".into()),
        );
        let writers = SyncWriters::of(&BTreeMap::from([
            (noting(), writing(vec![notes.clone(), written])),
            (counting(), writing(vec![notes])),
        ]));
        let mut credited: BTreeMap<ServiceKey, u64> = BTreeMap::new();
        writers.credit(1_000, &msg.changes, |key, bytes| {
            *credited.entry(key.clone()).or_default() += bytes;
        });
        let tables: usize = msg.changes.tables.values().map(Vec::len).sum();
        let (total, globals) = (msg.changes.len() as u64, msg.changes.globals.len() as u64);
        assert!(
            tables > 0 && globals > 0,
            "the note wrote a row and a global"
        );
        let table_share = 1_000 * tables as u64 / total / 2;
        let global_share = 1_000 * globals / total;
        assert_eq!(credited[&counting()], table_share);
        assert_eq!(credited[&noting()], table_share + global_share);
    }
}
