//! The high-availability plane: the crash schedule, the warm standby, the
//! durable save image, and what happens to the master and the edges when a
//! process dies or comes back. It acts on the nodes the driver lends it;
//! every replacement process comes out of its provisioner. DESIGN.md §10
//! says when the driver calls what.

use crate::crdtset::SetClock;
use crate::link::{Leg, SyncLink};
use crate::replica::{Provisioner, ReplicaCore, ReplicaKind};
use crate::system::{edge_attr, EdgeReplica};
use edgstr_analysis::ServerError;
use edgstr_crdt::AdvanceMode;
use edgstr_net::{CrashEvent, CrashKind, CrashPlan};
use edgstr_sim::{SimDuration, SimTime};
use edgstr_telemetry::{Telemetry, Tier};
use serde_json::Value as Json;

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
        SimDuration(self.recovery_times().iter().map(|d| d.0).sum())
    }

    /// Recovery time of each completed master outage.
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.outages.iter().map(|(c, r)| r.since(*c)).collect()
    }
}

/// The warm-standby cloud replica on its reliable intra-DC link.
#[derive(Debug)]
struct CloudStandby {
    core: ReplicaCore,
    link: SyncLink,
}

/// The high-availability plane of one deployment.
#[derive(Debug)]
pub struct HaPlane {
    /// `None`: the master is not crashable (the pre-HA semantics).
    policy: Option<HaPolicy>,
    standby: Option<CloudStandby>,
    /// When the master went down, while it is down: sync rounds no-op and
    /// forwards fail until promotion or durable recovery.
    down_since: Option<SimTime>,
    /// Scheduled promotion time (master crash + detect delay).
    pending_promotion: Option<SimTime>,
    /// The time-ordered crash schedule and how far it has been applied.
    crashes: Vec<CrashEvent>,
    cursor: usize,
    /// Edge restarts that arrived while the master was down; re-provisioned
    /// at the next promotion/recovery.
    deferred_restarts: Vec<usize>,
    /// Last durable save image of the master: `(bytes, clock at save)`.
    durable_image: Option<(Vec<u8>, SetClock)>,
    /// What the standby and every replacement process are provisioned from.
    provisioner: Provisioner,
    pub(crate) stats: HaStats,
    telemetry: Telemetry,
}

impl HaPlane {
    /// The plane for the `cloud` that `provisioner` just deployed: a standby
    /// from the same init snapshot and a first durable image, as `policy`
    /// asks.
    ///
    /// # Errors
    ///
    /// Propagates the standby's init failure.
    pub fn new(
        policy: Option<HaPolicy>,
        crashes: Option<&CrashPlan>,
        cloud: &ReplicaCore,
        mut provisioner: Provisioner,
        telemetry: &Telemetry,
    ) -> Result<HaPlane, ServerError> {
        let standby = match &policy {
            Some(ha) if ha.standby => Some(CloudStandby {
                core: provisioner.replacement(ReplicaKind::Master, None)?,
                link: SyncLink::starting(AdvanceMode::OnAck, SetClock::default()),
            }),
            _ => None,
        };
        let mut plane = HaPlane {
            policy,
            standby,
            down_since: None,
            pending_promotion: None,
            crashes: crashes.map_or_else(Vec::new, |p| p.events().to_vec()),
            cursor: 0,
            deferred_restarts: Vec::new(),
            durable_image: None,
            provisioner,
            stats: HaStats::default(),
            telemetry: telemetry.clone(),
        };
        plane.persist_durable(cloud);
        Ok(plane)
    }

    /// Whether the cloud master is currently down.
    pub fn master_down(&self) -> bool {
        self.down_since.is_some()
    }

    /// The durability frontier under ack capping: what the failover target
    /// (standby, else durable image) provably holds. `None` disables
    /// capping (no HA, or the unsafe ablation).
    pub fn durability_clock(&self) -> Option<SetClock> {
        let ha = self.policy.as_ref().filter(|ha| ha.ack_capping)?;
        if let Some(sb) = &self.standby {
            return Some(sb.link.master.peer_clock.clone());
        }
        ha.durable_saves.then(|| {
            self.durable_image
                .as_ref()
                .map(|(_, clock)| clock.clone())
                .unwrap_or_default()
        })
    }

    /// One reliable intra-DC exchange: the master's delta to the standby,
    /// the standby's acknowledgment back. Advances the durability frontier.
    pub fn replicate_to_standby(&mut self, cloud: &mut ReplicaCore) {
        if let Some(sb) = self.standby.as_mut() {
            sb.link
                .exchange(&mut sb.core, cloud, Leg::ToReplica, None, |_, _| true);
        }
    }

    /// Persist the master's save image (when the policy keeps durable
    /// saves) — the recovery source for a standby-less restart.
    pub fn persist_durable(&mut self, cloud: &ReplicaCore) {
        if self.policy.as_ref().is_some_and(|h| h.durable_saves) {
            self.durable_image = Some((cloud.crdts.save(), cloud.crdts.clock()));
        }
    }

    /// Fold the master's (and the standby's) history below `frontier`, held
    /// back to the durability frontier: a recovered or promoted cloud must
    /// be able to re-serve the tail above it.
    pub fn compact_master(&mut self, cloud: &mut ReplicaCore, mut frontier: SetClock) -> usize {
        if let Some(cap) = self.durability_clock() {
            frontier = frontier.meet(&cap);
        }
        let standby = self.standby.as_mut();
        cloud.crdts.compact(&frontier) + standby.map_or(0, |sb| sb.core.crdts.compact(&frontier))
    }

    /// Apply every crash-schedule event (and any pending promotion) with
    /// time at or before `now`, in time order. Idempotent: transitions take
    /// effect at their virtual times however often the driver asks.
    pub fn advance(&mut self, now: SimTime, cloud: &mut ReplicaCore, edges: &mut [EdgeReplica]) {
        loop {
            let next_crash = self.crashes.get(self.cursor).filter(|e| e.at <= now);
            let promo = self.pending_promotion.filter(|t| *t <= now);
            match (next_crash.map(|e| e.at), promo) {
                (Some(c), Some(p)) if p <= c => self.promote_standby(p, cloud, edges),
                (Some(_), _) => {
                    let ev = self.crashes[self.cursor].clone();
                    self.cursor += 1;
                    self.apply_crash_event(&ev, cloud, edges);
                }
                (None, Some(p)) => self.promote_standby(p, cloud, edges),
                (None, None) => return,
            }
        }
    }

    fn apply_crash_event(
        &mut self,
        ev: &CrashEvent,
        cloud: &mut ReplicaCore,
        edges: &mut [EdgeReplica],
    ) {
        if ev.node == "cloud" {
            let Some(ha) = &self.policy else {
                return;
            };
            let (standby, detect_delay) = (ha.standby, ha.detect_delay);
            match ev.kind {
                CrashKind::Down if self.down_since.is_none() => {
                    self.down_since = Some(ev.at);
                    self.stats.master_crashes += 1;
                    // audit point: everything the old master ever acked is
                    // bounded by what the edges saw — snapshot it
                    self.stats
                        .acked_snapshots
                        .extend(EdgeReplica::acked_prefixes(edges));
                    self.telemetry
                        .event("crash.cloud", Tier::Cloud, None, ev.at, &[]);
                    if self.standby.is_some() {
                        // deterministic health monitor: promote after the
                        // detection delay
                        self.pending_promotion = Some(ev.at + detect_delay);
                    }
                }
                CrashKind::Down => {}
                // no standby was available: recover from the durable save
                // image (or cold-start from init)
                CrashKind::Up if self.master_down() => {
                    self.recover_master_durable(ev.at, cloud, edges);
                }
                // a standby was already promoted; the returning process
                // becomes the new standby
                CrashKind::Up if standby => self.provision_standby(ev.at, cloud),
                CrashKind::Up => {}
            }
            return;
        }
        let Some(i) = ev
            .node
            .strip_prefix("edge")
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|i| *i < edges.len())
        else {
            return;
        };
        match ev.kind {
            CrashKind::Down if !edges[i].is_crashed() => {
                self.crash_edge(&mut edges[i]);
                self.telemetry
                    .event("crash.edge", Tier::Edge, None, ev.at, &edge_attr(i));
            }
            // nothing to provision from while the master is down; rejoin
            // at the next promotion/recovery
            CrashKind::Up if edges[i].is_crashed() && self.master_down() => {
                self.deferred_restarts.push(i);
            }
            CrashKind::Up if edges[i].is_crashed() => {
                self.rejoin_edge(i, ev.at, cloud, edges);
            }
            _ => {}
        }
    }

    /// Crash an edge; what it had been told was acknowledged joins the audit.
    pub fn crash_edge(&mut self, edge: &mut EdgeReplica) {
        edge.drain();
        self.stats.edge_crashes += 1;
        self.stats
            .acked_snapshots
            .push(edge.link.replica.peer_clock.clone());
    }

    /// Restart a crashed edge from a save image under a brand-new actor
    /// id. Under HA the image is the durability frontier (the standby's
    /// state, or the durable save): an image ahead of it would bake
    /// unacked changes into the fresh snapshot, where a post-failover
    /// master could never recover them as changes. Anything between the
    /// frontier and the master's head reaches the rejoined edge through
    /// normal sync.
    ///
    /// # Errors
    ///
    /// Propagates replica init failures.
    pub fn restart_edge(
        &mut self,
        edge: &mut EdgeReplica,
        cloud: &ReplicaCore,
    ) -> Result<(), ServerError> {
        let saved;
        let image = match (&self.standby, &self.durable_image) {
            (Some(sb), _) => {
                saved = sb.core.crdts.save();
                &saved
            }
            (None, Some((bytes, _))) => bytes,
            (None, None) => {
                saved = cloud.crdts.save();
                &saved
            }
        };
        edge.restart(&mut self.provisioner, image)?;
        self.stats.edge_restarts += 1;
        Ok(())
    }

    /// Restart + catch-up telemetry for a scheduled edge rejoin.
    fn rejoin_edge(
        &mut self,
        i: usize,
        at: SimTime,
        cloud: &ReplicaCore,
        edges: &mut [EdgeReplica],
    ) {
        self.restart_edge(&mut edges[i], cloud)
            .expect("replica template re-provisions cleanly");
        self.telemetry
            .event("rejoin.catchup", Tier::Edge, None, at, &edge_attr(i));
    }

    /// Promote the warm standby to master: edges re-home to it on their
    /// next sync round / forward retry.
    fn promote_standby(&mut self, at: SimTime, cloud: &mut ReplicaCore, edges: &mut [EdgeReplica]) {
        self.pending_promotion = None;
        let Some(sb) = self.standby.take() else {
            return;
        };
        install_master(sb.core, cloud, edges);
        self.persist_durable(cloud);
        self.stats.failovers += 1;
        let failovers = [("failovers", Json::from(u64::from(self.stats.failovers)))];
        self.master_recovered(at, "failover.promote", &failovers, cloud, edges);
    }

    /// Recover a standby-less master from the durable save image (or, with
    /// durable saves disabled — the ablation — cold-start from the init
    /// snapshot, losing everything since deploy).
    fn recover_master_durable(
        &mut self,
        at: SimTime,
        cloud: &mut ReplicaCore,
        edges: &mut [EdgeReplica],
    ) {
        let image = self.durable_image.as_ref().map(|(b, _)| b.as_slice());
        let core = self
            .provisioner
            .replacement(ReplicaKind::Master, image)
            .expect("the cloud program parsed and initialised at deploy");
        install_master(core, cloud, edges);
        self.stats.durable_recoveries += 1;
        self.master_recovered(at, "failover.recover", &[], cloud, edges);
    }

    /// A master serves again: the open outage closes, and the edges whose
    /// restart came due during it rejoin.
    fn master_recovered(
        &mut self,
        at: SimTime,
        event: &'static str,
        attrs: &[(&'static str, Json)],
        cloud: &ReplicaCore,
        edges: &mut [EdgeReplica],
    ) {
        if let Some(crashed_at) = self.down_since.take() {
            self.stats.outages.push((crashed_at, at));
        }
        self.telemetry.event(event, Tier::Cloud, None, at, attrs);
        for i in std::mem::take(&mut self.deferred_restarts) {
            if edges[i].is_crashed() {
                self.rejoin_edge(i, at, cloud, edges);
            }
        }
    }

    /// Provision a fresh warm standby from the current master's save image
    /// (the returning ex-master process after a failover).
    fn provision_standby(&mut self, at: SimTime, cloud: &ReplicaCore) {
        let core = self
            .provisioner
            .replacement(ReplicaKind::Master, Some(&cloud.crdts.save()))
            .expect("the cloud program parsed and initialised at deploy");
        let link = SyncLink::starting(AdvanceMode::OnAck, core.crdts.clock());
        self.standby = Some(CloudStandby { core, link });
        self.telemetry
            .event("standby.provision", Tier::Cloud, None, at, &[]);
    }
}

/// Make `core` the serving master. It has never spoken to the edges, so
/// every link loses its master end.
fn install_master(core: ReplicaCore, cloud: &mut ReplicaCore, edges: &mut [EdgeReplica]) {
    cloud.replace_process(core);
    for e in edges.iter_mut() {
        e.link.master_replaced();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::deployment;
    use edgstr_crdt::ActorId;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// The completed outages of an edgeless deployment run through `plan`
    /// up to 20 s.
    fn outages(standby: bool, plan: &CrashPlan) -> HaStats {
        let mut provisioner = deployment();
        let mut cloud = provisioner
            .provision(ReplicaKind::Master, ActorId(1), None)
            .unwrap();
        let policy = HaPolicy {
            standby,
            ..HaPolicy::default()
        };
        let telemetry = Telemetry::disabled();
        let mut ha =
            HaPlane::new(Some(policy), Some(plan), &cloud, provisioner, &telemetry).unwrap();
        // the driver asks more often than events fall due
        for tenth in 0..200 {
            ha.advance(secs(f64::from(tenth) / 10.0), &mut cloud, &mut []);
        }
        assert!(!ha.master_down());
        ha.stats
    }

    /// The master outage of the pinned failover cells: each crash pairs
    /// with the promotion or recovery that ends it.
    #[test]
    fn an_outage_runs_from_the_crash_to_the_promotion_or_recovery() {
        let mut plan = CrashPlan::new(3);
        plan.crash("cloud", secs(3.2), secs(6.0));
        let promoted = outages(true, &plan);
        assert_eq!(promoted.outages, vec![(secs(3.2), secs(3.7))]);
        assert_eq!((promoted.failovers, promoted.durable_recoveries), (1, 0));
        let recovered = outages(false, &plan);
        assert_eq!(recovered.outages, vec![(secs(3.2), secs(6.0))]);
        assert_eq!((recovered.failovers, recovered.durable_recoveries), (0, 1));
    }

    /// Two outages pair up in order, and a second `Down` while the master
    /// is already down neither counts as a crash nor moves the outage's
    /// start.
    #[test]
    fn repeated_outages_pair_each_crash_with_its_own_recovery() {
        let mut plan = CrashPlan::new(3);
        plan.crash("cloud", secs(2.0), secs(5.0));
        plan.kill("cloud", secs(3.0));
        plan.crash("cloud", secs(8.0), secs(9.5));
        let stats = outages(false, &plan);
        assert_eq!(stats.master_crashes, 2);
        assert_eq!(
            stats.outages,
            vec![(secs(2.0), secs(5.0)), (secs(8.0), secs(9.5))]
        );
        assert_eq!(stats.master_downtime(), SimDuration::from_millis(4_500));
    }
}
