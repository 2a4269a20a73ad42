//! The forwarding plane: the edge proxies a request it cannot answer to
//! the cloud master over the WAN (§II-B), with bounded retries, exponential
//! backoff and seeded jitter under the run's fault plan and deadline, and
//! a per-edge circuit breaker. The HA plane catches up to virtual time
//! before each attempt.

use crate::driver::{FaultPolicy, RunRecorder};
use crate::ha::HaPlane;
use crate::replica::{CachePlan, ReplicaCore, Served};
use crate::system::EdgeReplica;
use edgstr_analysis::EffectSummary;
use edgstr_net::{FaultPlan, HttpRequest, LinkChannel, LinkSpec};
use edgstr_sim::{DetRng, Device, SimDuration, SimTime};
use edgstr_telemetry::{SpanId, Telemetry, Tier};
use serde_json::Value as Json;

/// Whether the fault plan, if there is one, drops the WAN message `from`
/// sends `to` at `at`. Every message consults it, delivered or not, so
/// the plan's per-link streams advance the same way in every run.
pub fn wan_drops(faults: &mut Option<FaultPlan>, from: &str, to: &str, at: SimTime) -> bool {
    faults.as_mut().is_some_and(|p| p.should_drop(from, to, at))
}

/// One edge's circuit breaker: a run of consecutive forwarding failures
/// opens it, and while it is open the edge does not attempt the WAN. After
/// the cooldown it is half-open: the next forward is the probe that closes
/// it (success) or re-opens it (failure). A restarted process gets a fresh
/// one — the open state belonged to the dead incarnation.
#[derive(Debug, Default)]
pub struct Breaker {
    /// Consecutive forwarding failures.
    failures: u32,
    open_until: Option<SimTime>,
}

impl Breaker {
    /// Whether the breaker blocks WAN forwarding at `at`.
    pub fn is_open(&self, at: SimTime) -> bool {
        self.open_until.is_some_and(|until| at < until)
    }

    pub fn record_success(&mut self) {
        *self = Breaker::default();
    }

    /// Count a failure at `at`; `Some(failures)` when it opened a breaker
    /// that was closed.
    pub fn record_failure(&mut self, policy: &FaultPolicy, at: SimTime) -> Option<u32> {
        self.failures += 1;
        if self.failures < policy.breaker_threshold {
            return None;
        }
        let was_open = self.open_until.replace(at + policy.breaker_cooldown);
        was_open.is_none().then_some(self.failures)
    }
}

/// One request an edge forwards to the cloud.
pub struct Forward<'a> {
    pub request: &'a HttpRequest,
    pub summary: Option<&'a EffectSummary>,
    pub plan: Option<&'a CachePlan>,
    /// The forwarding edge, and when the request reached it.
    pub edge: usize,
    pub arrive: SimTime,
    /// The `forward` span the attempts report under.
    pub span: SpanId,
    pub rec: &'a mut RunRecorder,
}

/// The forwarding plane of one deployment.
#[derive(Debug)]
pub struct Forwarder {
    policy: FaultPolicy,
    /// Jitter stream for retry backoff (forked from the policy seed).
    jitter: DetRng,
    wan_up: LinkChannel,
    wan_down: LinkChannel,
    telemetry: Telemetry,
}

impl Forwarder {
    pub fn new(policy: FaultPolicy, wan: LinkSpec, telemetry: &Telemetry) -> Forwarder {
        Forwarder {
            jitter: DetRng::new(policy.jitter_seed),
            policy,
            wan_up: LinkChannel::new(wan),
            wan_down: LinkChannel::new(wan),
            telemetry: telemetry.clone(),
        }
    }

    /// Forward one request to the cloud with bounded retries, exponential
    /// backoff and seeded jitter, under the run's fault plan and deadline.
    /// Returns when the response is back at the edge and what the cloud
    /// served (its cycles are [`crate::CACHE_HIT_CYCLES`] for a cloud cache
    /// hit); `None` for an application error or a timeout. The cloud
    /// executes the request at most once: if only the response is lost,
    /// retries retransmit the response rather than re-running the handler
    /// (the proxy holds the connection, §II-B).
    pub fn forward(
        &mut self,
        fwd: Forward<'_>,
        cloud: &mut ReplicaCore,
        cloud_device: &mut Device,
        edges: &mut [EdgeReplica],
        ha: &mut HaPlane,
        faults: &mut Option<FaultPlan>,
    ) -> Option<(SimTime, Served)> {
        let edge_name = format!("edge{}", fwd.edge);
        let req_size = fwd.request.size();
        let deadline = fwd.arrive + self.policy.forward_deadline;
        // `Some` once the cloud has served: when its compute finished, and
        // what it answered
        let mut executed: Option<(SimTime, Served)> = None;
        let mut t = fwd.arrive;
        let mut attempt: u32 = 0;
        loop {
            // scheduled crashes/promotions that elapsed before this attempt
            ha.advance(t, cloud, edges);
            let breaker = &mut edges[fwd.edge].breaker;
            if let Some((finish, served)) = &executed {
                // only the response was lost: retransmit it. The executed
                // marker and response travel with the replicated
                // connection state (the write itself was shipped to the
                // standby before the ack), so retransmission stalls while
                // the master is down and resumes after promotion instead
                // of re-running the handler.
                let resp_size = served.response.size();
                let back = self.wan_down.send(t.max(*finish), resp_size);
                fwd.rec.add_wan_request_bytes(resp_size);
                let dropped = wan_drops(faults, "cloud", &edge_name, t);
                if !dropped && !ha.master_down() {
                    breaker.record_success();
                    return executed.map(|(_, served)| (back, served));
                }
            } else {
                let cloud_arrive = self.wan_up.send(t, req_size);
                fwd.rec.add_wan_request_bytes(req_size);
                // The request is judged against the fault plan even while
                // the master is down so the per-link drop streams stay
                // aligned with a crash-free run; a dead master simply
                // never answers.
                let dropped = wan_drops(faults, &edge_name, "cloud", t);
                if !dropped && !ha.master_down() {
                    // A cloud cache hit skips only the handler — the WAN
                    // message sequence (request judged above, response
                    // judged below) is that of an execution, so the fault
                    // plan's per-link streams stay aligned with the
                    // cache-off run.
                    let Ok(served) = cloud.serve(fwd.request, fwd.summary, fwd.plan, &None) else {
                        // application error: the WAN worked, no retry
                        breaker.record_success();
                        return None;
                    };
                    let span = Some(fwd.span);
                    let serve = self
                        .telemetry
                        .start_span("serve", Tier::Cloud, span, cloud_arrive);
                    let (_, finish) = cloud_device.schedule_work(cloud_arrive, served.cycles);
                    self.telemetry.end_span(serve, finish);
                    if served.effects {
                        // A client-acked forwarded write must survive
                        // failover: ship it to the standby / durable image
                        // before the ack returns.
                        ha.replicate_to_standby(cloud);
                        ha.persist_durable(cloud);
                    }
                    let resp_size = served.response.size();
                    let back = self.wan_down.send(finish, resp_size);
                    fwd.rec.add_wan_request_bytes(resp_size);
                    if !wan_drops(faults, "cloud", &edge_name, finish) {
                        breaker.record_success();
                        return Some((back, served));
                    }
                    executed = Some((finish, served));
                }
            }
            // this attempt failed in transit: back off, maybe retry
            let retry_at = (attempt < self.policy.max_retries).then(|| {
                let backoff_us = self.policy.backoff_base.0 << attempt;
                let jitter_us = self.jitter.below(self.policy.backoff_base.0.max(1));
                t + SimDuration(backoff_us + jitter_us)
            });
            let Some(next) = retry_at.filter(|next| *next <= deadline) else {
                let at = retry_at.unwrap_or(t);
                fwd.rec.timed_out();
                self.telemetry
                    .event("forward.timeout", Tier::Edge, Some(fwd.span), at, &[]);
                if let Some(failures) = breaker.record_failure(&self.policy, at) {
                    let attrs = [
                        ("edge", Json::from(fwd.edge as u64)),
                        ("failures", Json::from(u64::from(failures))),
                    ];
                    self.telemetry
                        .event("breaker.open", Tier::Edge, None, at, &attrs);
                }
                return None;
            };
            attempt += 1;
            fwd.rec.retried();
            let attrs = [("attempt", Json::from(u64::from(attempt)))];
            self.telemetry
                .event("forward.retry", Tier::Edge, Some(fwd.span), next, &attrs);
            t = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// closed → open → half-open → (failed probe) open → half-open →
    /// (successful probe) closed, from the policy alone.
    #[test]
    fn breaker_cycles_through_open_half_open_and_closed() {
        let policy = FaultPolicy {
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(5),
            ..FaultPolicy::default()
        };
        let secs = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut breaker = Breaker::default();
        assert!(!breaker.is_open(secs(0)));
        // two failures stay under the threshold; a success forgets them
        assert_eq!(breaker.record_failure(&policy, secs(1)), None);
        assert_eq!(breaker.record_failure(&policy, secs(2)), None);
        breaker.record_success();
        assert_eq!(breaker.record_failure(&policy, secs(3)), None);
        assert_eq!(breaker.record_failure(&policy, secs(4)), None);
        assert!(!breaker.is_open(secs(4)));
        // the third consecutive failure opens it, and says so once
        assert_eq!(breaker.record_failure(&policy, secs(5)), Some(3));
        assert!(breaker.is_open(secs(5)) && breaker.is_open(secs(9)));
        // cooldown over: half-open, the next forward is a probe
        assert!(!breaker.is_open(secs(10)));
        // a failed probe re-opens it for another cooldown, silently
        assert_eq!(breaker.record_failure(&policy, secs(10)), None);
        assert!(breaker.is_open(secs(14)) && !breaker.is_open(secs(15)));
        // a successful probe closes it: the count starts over
        breaker.record_success();
        assert!(!breaker.is_open(secs(15)));
        assert_eq!(breaker.record_failure(&policy, secs(16)), None);
        assert!(!breaker.is_open(secs(16)));
    }
}
