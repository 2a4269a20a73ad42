//! The quarantine plane: multi-variant faulty-replica detection. Between
//! an edge's cache lookup and its execution the driver asks for a second
//! opinion ([`Quarantine::shadow_execute`]); once the primary has answered
//! it charges a disagreement to the edge ([`Quarantine::charge`]). A
//! quarantined edge is drained and restarted like any crashed edge.

use crate::ha::HaStats;
use crate::replica::ReplicaTemplate;
use crate::system::{edge_attr, EdgeReplica};
use edgstr_analysis::{EffectSummary, ReadUnit, ServerProcess, StateUnit};
use edgstr_net::{HttpRequest, HttpResponse};
use edgstr_sim::{DetRng, SimTime};
use edgstr_telemetry::{SpanId, Telemetry, Tier};
use serde_json::Value as Json;
use std::sync::Arc;

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

/// One edge's diversified second variant and the mismatches charged to its
/// primary. A re-provisioned edge gets a new one.
#[derive(Debug)]
pub struct Shadow {
    variant: ServerProcess,
    mismatches: u32,
}

impl From<ServerProcess> for Shadow {
    fn from(variant: ServerProcess) -> Shadow {
        Shadow {
            variant,
            mismatches: 0,
        }
    }
}

/// The quarantine plane of one deployment.
#[derive(Debug)]
pub struct Quarantine {
    policy: Option<QuarantinePolicy>,
    /// Sampling stream for the multi-variant check.
    rng: DetRng,
    template: Arc<ReplicaTemplate>,
    telemetry: Telemetry,
}

impl Quarantine {
    pub fn new(
        policy: Option<QuarantinePolicy>,
        template: Arc<ReplicaTemplate>,
        telemetry: &Telemetry,
    ) -> Quarantine {
        Quarantine {
            rng: DetRng::new(policy.as_ref().map_or(0, |q| q.seed)),
            policy,
            template,
            telemetry: telemetry.clone(),
        }
    }

    /// Whether every state unit the request touches is CRDT-bound on the
    /// replica. Only then do primary and shadow observe identical state, so
    /// a digest mismatch can only mean a faulty variant — never a benign
    /// divergence on unreplicated state.
    fn checkable(&self, summary: &EffectSummary) -> bool {
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

    /// Maybe shadow-execute `request` on `edge`'s diversified variant
    /// (sampled at the policy's check fraction), returning the shadow's
    /// response for digest comparison. Runs before the primary handles the
    /// request: both variants start from the same CRDT state, and the
    /// shadow's own state is rebuilt from scratch each check, so shadow
    /// execution never contaminates the serving replica.
    pub fn shadow_execute(
        &mut self,
        edge: &mut EdgeReplica,
        request: &HttpRequest,
        summary: Option<&EffectSummary>,
    ) -> Option<HttpResponse> {
        let fraction = self.policy.as_ref()?.check_fraction;
        if !self.checkable(summary?) || !self.rng.chance(fraction) {
            return None;
        }
        let shadow = &mut edge.shadow.as_mut()?.variant;
        edge.core.crdts.materialize_all(shadow);
        shadow.handle(request).ok().map(|o| o.response)
    }

    /// Record one comparison of edge `idx`'s answer with its shadow's
    /// (`agree`: equal digests), charging a mismatch to the edge; `true`
    /// once the edge's budget is exhausted.
    pub fn charge(
        &self,
        idx: usize,
        edge: &mut EdgeReplica,
        agree: bool,
        at: SimTime,
        span: SpanId,
        stats: &mut HaStats,
    ) -> bool {
        stats.shadow_checks += 1;
        let (Some(policy), Some(shadow)) = (&self.policy, edge.shadow.as_mut()) else {
            return false;
        };
        if agree {
            return false;
        }
        stats.shadow_mismatches += 1;
        shadow.mismatches += 1;
        self.telemetry.event(
            "shadow.mismatch",
            Tier::System,
            Some(span),
            at,
            &edge_attr(idx),
        );
        shadow.mismatches > policy.mismatch_budget
    }

    /// Quarantine edge `idx`: the faulty incarnation serves nothing further.
    pub fn open(&self, idx: usize, edge: &mut EdgeReplica, at: SimTime, stats: &mut HaStats) {
        let mismatches = edge.shadow.as_ref().map_or(0, |s| s.mismatches);
        self.telemetry.event(
            "quarantine.open",
            Tier::System,
            None,
            at,
            &[
                ("edge", Json::from(idx as u64)),
                ("mismatches", Json::from(u64::from(mismatches))),
            ],
        );
        stats.quarantines.push((idx, at));
        edge.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::{deployment, note};
    use crate::replica::ReplicaKind;
    use edgstr_crdt::{ActorId, AdvanceMode};
    use edgstr_sim::DeviceSpec;

    #[test]
    fn second_opinions_cover_bound_state_only_and_only_disagreements_are_charged() {
        let mut provisioner = deployment();
        let core = provisioner
            .provision(ReplicaKind::Edge, ActorId(2), None)
            .unwrap();
        let shadow = Shadow::from(provisioner.shadow_variant().unwrap());
        let mut edge = EdgeReplica::new(core, DeviceSpec::rpi4(), AdvanceMode::OnAck, Some(shadow));
        let policy = QuarantinePolicy {
            check_fraction: 1.0,
            mismatch_budget: 1,
            seed: 7,
        };
        let template = Arc::clone(&provisioner.template);
        let mut quarantine = Quarantine::new(Some(policy), template, &Telemetry::disabled());
        let bound = EffectSummary {
            reads: vec![ReadUnit::Table("notes".into())],
            writes: vec![
                StateUnit::DbTable("notes".into()),
                StateUnit::Global("written".into()),
            ],
            ..EffectSummary::default()
        };
        let unbound = EffectSummary {
            reads: vec![ReadUnit::Global("hits".into())],
            ..EffectSummary::default()
        };
        let request = note(1, "a");
        // no profile, or one touching state no CRDT binds: no second opinion
        assert!(quarantine
            .shadow_execute(&mut edge, &request, None)
            .is_none());
        let opinion = quarantine.shadow_execute(&mut edge, &request, Some(&unbound));
        assert!(opinion.is_none());
        // both variants start from the same state, and the shadow's write
        // stays in the shadow: the primary's insert of the same key succeeds
        let second = quarantine.shadow_execute(&mut edge, &request, Some(&bound));
        let first = edge.core.execute(&request, Some(&bound), None, &None);
        assert_eq!(first.unwrap().response.digest(), second.unwrap().digest());

        let (at, span) = (SimTime(5), SpanId::NULL);
        let mut stats = HaStats::default();
        assert!(!quarantine.charge(0, &mut edge, true, at, span, &mut stats));
        assert!(!quarantine.charge(0, &mut edge, false, at, span, &mut stats));
        assert!(quarantine.charge(0, &mut edge, false, at, span, &mut stats));
        assert_eq!((stats.shadow_checks, stats.shadow_mismatches), (3, 2));
        let image = edge.core.crdts.save();
        quarantine.open(0, &mut edge, at, &mut stats);
        assert!(edge.is_crashed());
        assert_eq!(stats.quarantines, vec![(0, at)]);
        // the restart every crashed edge gets comes with a clean budget
        edge.restart(&mut provisioner, &image).unwrap();
        assert!(!edge.is_crashed());
        assert!(!quarantine.charge(0, &mut edge, false, at, span, &mut stats));
    }

    #[test]
    fn without_a_policy_nothing_is_shadow_executed() {
        let mut provisioner = deployment();
        let core = provisioner
            .provision(ReplicaKind::Edge, ActorId(2), None)
            .unwrap();
        let mut edge = EdgeReplica::new(core, DeviceSpec::rpi4(), AdvanceMode::OnAck, None);
        let template = Arc::clone(&provisioner.template);
        let mut quarantine = Quarantine::new(None, template, &Telemetry::disabled());
        let summary = EffectSummary::default();
        let opinion = quarantine.shadow_execute(&mut edge, &note(1, "a"), Some(&summary));
        assert!(opinion.is_none());
    }
}
