//! Seeded process-crash schedules.
//!
//! Where [`crate::FaultPlan`] drops *messages*, a [`CrashPlan`] kills
//! *processes*: edge replicas and the cloud master go down at scheduled
//! virtual times and (usually) come back later. The runtime drains the
//! plan's time-ordered event list and performs the actual crash/restart —
//! the plan itself is pure data, so the same construction seed reproduces
//! the same schedule, and a crash plan composes freely with any loss /
//! flap / partition plan active on the same run.
//!
//! Node names follow the fault-plan convention: `"cloud"` for the master
//! and `"edge{i}"` for the i-th edge replica.

use edgstr_sim::{splitmix64, DetRng, SimDuration, SimTime};

use crate::fault::hash_str;

/// What happens to a node at a [`CrashEvent`]'s time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashKind {
    /// The process dies, losing all volatile state.
    Down,
    /// The process restarts (re-provisioned by the runtime).
    Up,
}

/// One scheduled process transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// `"cloud"` or `"edge{i}"`.
    pub node: String,
    pub kind: CrashKind,
}

/// A deterministic schedule of process crashes and restarts.
///
/// Build with [`CrashPlan::new`], add explicit outages with
/// [`CrashPlan::crash`] / [`CrashPlan::kill`] or seeded random ones with
/// [`CrashPlan::random_crashes`], then hand the plan to the runtime, which
/// applies [`CrashPlan::events`] in time order.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    seed: u64,
    /// Kept sorted by `(at, node, kind)` on every insertion.
    events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// An empty schedule; `seed` fixes every later random draw.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule an outage: `node` dies at `at` and restarts at `until`.
    pub fn crash(&mut self, node: &str, at: SimTime, until: SimTime) -> &mut Self {
        self.insert(CrashEvent {
            at,
            node: node.to_string(),
            kind: CrashKind::Down,
        });
        self.insert(CrashEvent {
            at: until.max(at),
            node: node.to_string(),
            kind: CrashKind::Up,
        });
        self
    }

    /// Schedule a permanent kill: `node` dies at `at` and never restarts.
    pub fn kill(&mut self, node: &str, at: SimTime) -> &mut Self {
        self.insert(CrashEvent {
            at,
            node: node.to_string(),
            kind: CrashKind::Down,
        });
        self
    }

    /// Seed a random outage schedule for `node` over `[0, horizon)`:
    /// inter-crash gaps are exponential with mean `mtbf`, each outage lasts
    /// `downtime`. Crashes initiated before the horizon always get their
    /// restart event, even when it lands past the horizon, so the runtime
    /// can measure recovery for every outage. Each node draws from its own
    /// RNG substream, so adding a schedule for one node never perturbs
    /// another's.
    pub fn random_crashes(
        &mut self,
        node: &str,
        mtbf: SimDuration,
        downtime: SimDuration,
        horizon: SimTime,
    ) -> &mut Self {
        let mut rng = DetRng::new(self.seed).fork(splitmix64(hash_str(node)));
        let mtbf_us = mtbf.0.max(1) as f64;
        let mut t = SimTime::ZERO;
        loop {
            // exponential gap, clamped away from u = 1.0
            let u = rng.unit_f64().min(1.0 - 1e-12);
            let gap_us = (-(1.0 - u).ln() * mtbf_us).ceil() as u64;
            t += SimDuration(gap_us.max(1));
            if t >= horizon {
                return self;
            }
            self.crash(node, t, t + downtime);
            t += downtime;
        }
    }

    /// The full schedule, sorted by time (ties: node name, `Down` first).
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `node` is scheduled to be down at `at` (its most recent
    /// transition at or before `at` is a `Down`).
    pub fn down(&self, node: &str, at: SimTime) -> bool {
        let prefix = self.events.partition_point(|e| e.at <= at);
        self.events[..prefix]
            .iter()
            .rev()
            .find(|e| e.node == node)
            .is_some_and(|e| e.kind == CrashKind::Down)
    }

    fn insert(&mut self, ev: CrashEvent) {
        let pos = self
            .events
            .partition_point(|e| (e.at, &e.node, e.kind) <= (ev.at, &ev.node, ev.kind));
        self.events.insert(pos, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn explicit_schedule_is_time_ordered() {
        let mut plan = CrashPlan::new(1);
        plan.crash("edge1", t(500), t(700));
        plan.crash("cloud", t(100), t(300));
        plan.kill("edge0", t(600));
        let times: Vec<_> = plan.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(plan.events().len(), 5);
    }

    #[test]
    fn down_tracks_outage_windows() {
        let mut plan = CrashPlan::new(2);
        plan.crash("cloud", t(100), t(300));
        assert!(!plan.down("cloud", t(99)));
        assert!(plan.down("cloud", t(100)));
        assert!(plan.down("cloud", t(299)));
        assert!(!plan.down("cloud", t(300)));
        // other nodes are unaffected
        assert!(!plan.down("edge0", t(150)));
        // a kill never comes back
        plan.kill("edge0", t(400));
        assert!(plan.down("edge0", t(100_000)));
    }

    #[test]
    fn random_schedule_reproduces_from_seed() {
        let build = |seed: u64| {
            let mut p = CrashPlan::new(seed);
            p.random_crashes(
                "cloud",
                SimDuration::from_secs(10),
                SimDuration::from_secs(2),
                t(120_000),
            );
            p.events().to_vec()
        };
        assert_eq!(build(42), build(42));
        assert_ne!(build(42), build(43));
    }

    #[test]
    fn random_crashes_respect_horizon_but_restarts_may_pass_it() {
        let mut plan = CrashPlan::new(7);
        plan.random_crashes(
            "edge0",
            SimDuration::from_secs(5),
            SimDuration::from_secs(3),
            t(60_000),
        );
        assert!(!plan.is_empty());
        for e in plan.events() {
            if e.kind == CrashKind::Down {
                assert!(e.at < t(60_000), "no crash initiated past the horizon");
            }
        }
        // every outage has a matching restart
        let downs = plan
            .events()
            .iter()
            .filter(|e| e.kind == CrashKind::Down)
            .count();
        let ups = plan
            .events()
            .iter()
            .filter(|e| e.kind == CrashKind::Up)
            .count();
        assert_eq!(downs, ups);
    }

    #[test]
    fn per_node_streams_are_isolated() {
        let solo = {
            let mut p = CrashPlan::new(11);
            p.random_crashes(
                "edge0",
                SimDuration::from_secs(8),
                SimDuration::from_secs(1),
                t(100_000),
            );
            p.events().to_vec()
        };
        let mixed = {
            let mut p = CrashPlan::new(11);
            p.random_crashes(
                "cloud",
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
                t(100_000),
            );
            p.random_crashes(
                "edge0",
                SimDuration::from_secs(8),
                SimDuration::from_secs(1),
                t(100_000),
            );
            p.events().to_vec()
        };
        let edge_only: Vec<_> = mixed.into_iter().filter(|e| e.node == "edge0").collect();
        assert_eq!(solo, edge_only);
    }
}
