//! Fault injection for the emulated network.
//!
//! The paper's evaluation assumes a lossy, intermittently-partitioned
//! client–edge–cloud topology (the limited cloud network of §IV-C is the
//! benign case; mobile edge links are worse). A [`FaultPlan`] is the
//! single authority on whether a given send succeeds: the runtime consults
//! it once per message with the named endpoints and the virtual send time,
//! and everything it answers is a pure function of the construction seed,
//! so any observed failure schedule reproduces from one `u64`.
//!
//! Four failure mechanisms compose (a send is dropped if *any* applies):
//!
//! 1. **Random loss** — each packet is dropped i.i.d. with the link's loss
//!    probability.
//! 2. **Burst loss** — after an initiating random drop, the next packets on
//!    that link are dropped with a higher conditional probability
//!    (Gilbert–Elliott-style bad state), bounded by a maximum burst length.
//! 3. **Link flaps** — scheduled windows of virtual time during which a
//!    specific link drops everything.
//! 4. **Partitions** — scheduled windows during which *both* directions
//!    between two named endpoints drop everything.
//!
//! Links are directional: faults for `("edge0", "cloud")` are independent
//! of `("cloud", "edge0")` unless introduced via [`FaultPlan::partition`],
//! which cuts both directions.

use edgstr_sim::{splitmix64, DetRng, SimTime};
use edgstr_telemetry::{Telemetry, Tier};
use serde_json::Value as Json;
use std::collections::BTreeMap;

/// Loss parameters for one directional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Probability that any packet is independently dropped.
    pub loss_prob: f64,
    /// Conditional drop probability for packets following a drop
    /// (burst continuation). Zero disables bursts.
    pub burst_prob: f64,
    /// Maximum number of consecutive packets a burst may claim beyond
    /// the initiating drop.
    pub max_burst: u32,
}

impl LossModel {
    /// Independent loss only, no bursts.
    pub fn uniform(loss_prob: f64) -> LossModel {
        LossModel {
            loss_prob,
            burst_prob: 0.0,
            max_burst: 0,
        }
    }

    /// Loss with burst continuation: after a drop, the next packets are
    /// dropped with probability `burst_prob` for up to `max_burst` packets.
    pub fn bursty(loss_prob: f64, burst_prob: f64, max_burst: u32) -> LossModel {
        LossModel {
            loss_prob,
            burst_prob,
            max_burst,
        }
    }
}

/// A half-open window of virtual time `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from: SimTime,
    until: SimTime,
}

impl Window {
    fn contains(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// Mutable per-link fault state (burst progress).
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Packets remaining in the current loss burst.
    burst_left: u32,
}

/// Why a send was dropped, for diagnostics and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Independent random loss.
    Loss,
    /// Continuation of a loss burst.
    Burst,
    /// The link was inside a scheduled flap window.
    Flap,
    /// The endpoints were partitioned from each other.
    Partition,
}

impl DropCause {
    /// Stable lowercase name, used as a metric label.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropCause::Loss => "loss",
            DropCause::Burst => "burst",
            DropCause::Flap => "flap",
            DropCause::Partition => "partition",
        }
    }
}

/// A seeded, deterministic fault schedule for the whole emulated network.
///
/// Construct with [`FaultPlan::new`], configure loss/flaps/partitions, then
/// call [`FaultPlan::judge`] (or [`FaultPlan::should_drop`]) once per send.
/// Two plans built identically and consulted with the same sequence of
/// calls make identical decisions.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Default loss model for links without an explicit entry.
    default_loss: LossModel,
    /// Per-directional-link loss overrides, keyed by (from, to).
    loss: BTreeMap<(String, String), LossModel>,
    /// Scheduled full-loss windows per directional link.
    flaps: BTreeMap<(String, String), Vec<Window>>,
    /// Scheduled bidirectional partitions, keyed by the sorted endpoint
    /// pair.
    partitions: BTreeMap<(String, String), Vec<Window>>,
    /// Per-directional-link RNG + burst state, lazily created.
    links: BTreeMap<(String, String), (DetRng, LinkState)>,
    /// Total drops per cause, in `DropCause` declaration order.
    drops: [u64; 4],
    /// Total sends judged.
    judged: u64,
    /// Observability sink: every drop becomes a `fault.drop` trace event
    /// and an `edgstr_fault_drops_total` counter increment. Disabled (and
    /// free) unless a runtime attaches its handle.
    telemetry: Telemetry,
}

impl FaultPlan {
    /// A plan with no faults at all; `seed` fixes every later random draw.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_loss: LossModel::uniform(0.0),
            loss: BTreeMap::new(),
            flaps: BTreeMap::new(),
            partitions: BTreeMap::new(),
            links: BTreeMap::new(),
            drops: [0; 4],
            judged: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach an observability sink; subsequent drops are recorded as
    /// trace events and labeled counters. Judging decisions are
    /// unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the loss model applied to every link without an explicit
    /// override.
    pub fn set_default_loss(&mut self, model: LossModel) -> &mut Self {
        self.default_loss = model;
        self
    }

    /// Set the loss model for one directional link.
    pub fn set_loss(&mut self, from: &str, to: &str, model: LossModel) -> &mut Self {
        self.loss.insert((from.to_string(), to.to_string()), model);
        self
    }

    /// Schedule a flap: the directional link `from → to` drops everything
    /// during `[from_t, until_t)`.
    pub fn flap(&mut self, from: &str, to: &str, from_t: SimTime, until_t: SimTime) -> &mut Self {
        self.flaps
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .push(Window {
                from: from_t,
                until: until_t,
            });
        self
    }

    /// Schedule a partition: *both* directions between `a` and `b` drop
    /// everything during `[from_t, until_t)`.
    pub fn partition(&mut self, a: &str, b: &str, from_t: SimTime, until_t: SimTime) -> &mut Self {
        let key = if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        };
        self.partitions.entry(key).or_default().push(Window {
            from: from_t,
            until: until_t,
        });
        self
    }

    /// True if `a` and `b` are partitioned from each other at `at`.
    pub fn partitioned(&self, a: &str, b: &str, at: SimTime) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.partitions
            .get(&(key.0.to_string(), key.1.to_string()))
            .is_some_and(|ws| ws.iter().any(|w| w.contains(at)))
    }

    /// True if the directional link `from → to` is inside a flap window at
    /// `at`.
    pub fn flapped(&self, from: &str, to: &str, at: SimTime) -> bool {
        self.flaps
            .get(&(from.to_string(), to.to_string()))
            .is_some_and(|ws| ws.iter().any(|w| w.contains(at)))
    }

    /// Judge one send on `from → to` at virtual time `at`. Returns the
    /// drop cause, or `None` if the send goes through. Consumes randomness
    /// from the link's dedicated substream, so interleaving of *other*
    /// links' traffic does not perturb this link's loss pattern.
    pub fn judge(&mut self, from: &str, to: &str, at: SimTime) -> Option<DropCause> {
        self.judged += 1;
        let verdict = self.decide(from, to, at);
        if let Some(cause) = verdict {
            self.drops[cause as usize] += 1;
            if let Some(reg) = self.telemetry.registry() {
                reg.counter("edgstr_fault_drops_total", &[("cause", cause.as_str())])
                    .inc();
                self.telemetry.event(
                    "fault.drop",
                    Tier::System,
                    None,
                    at,
                    &[
                        ("from", Json::from(from)),
                        ("to", Json::from(to)),
                        ("cause", Json::from(cause.as_str())),
                    ],
                );
            }
        }
        verdict
    }

    /// Convenience wrapper over [`FaultPlan::judge`].
    pub fn should_drop(&mut self, from: &str, to: &str, at: SimTime) -> bool {
        self.judge(from, to, at).is_some()
    }

    fn decide(&mut self, from: &str, to: &str, at: SimTime) -> Option<DropCause> {
        if self.partitioned(from, to, at) {
            return Some(DropCause::Partition);
        }
        if self.flapped(from, to, at) {
            return Some(DropCause::Flap);
        }

        let key = (from.to_string(), to.to_string());
        let model = *self.loss.get(&key).unwrap_or(&self.default_loss);
        let seed = self.seed;
        let (rng, state) = self.links.entry(key).or_insert_with_key(|k| {
            let label = splitmix64(hash_str(&k.0) ^ splitmix64(hash_str(&k.1)));
            (DetRng::new(seed).fork(label), LinkState::default())
        });

        if state.burst_left > 0 {
            state.burst_left -= 1;
            if rng.chance(model.burst_prob) {
                return Some(DropCause::Burst);
            }
            // Burst ended early; fall through to independent loss.
            state.burst_left = 0;
        }
        if rng.chance(model.loss_prob) {
            state.burst_left = model.max_burst;
            return Some(DropCause::Loss);
        }
        None
    }

    /// Total sends judged so far.
    pub fn sends_judged(&self) -> u64 {
        self.judged
    }

    /// Total sends dropped so far, all causes.
    pub fn sends_dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Drops attributed to `cause`.
    pub fn dropped_by(&self, cause: DropCause) -> u64 {
        self.drops[cause as usize]
    }

    /// Observed drop fraction over everything judged so far.
    pub fn observed_loss_rate(&self) -> f64 {
        if self.judged == 0 {
            0.0
        } else {
            self.sends_dropped() as f64 / self.judged as f64
        }
    }
}

/// FNV-1a, for deriving per-link/per-node RNG substream labels from
/// endpoint names (shared with [`crate::crash`]).
pub(crate) fn hash_str(s: &str) -> u64 {
    crate::fnv1a(crate::FNV_OFFSET, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn no_faults_means_no_drops() {
        let mut plan = FaultPlan::new(1);
        for i in 0..1000 {
            assert_eq!(plan.judge("edge0", "cloud", t(i)), None);
        }
        assert_eq!(plan.sends_dropped(), 0);
        assert_eq!(plan.sends_judged(), 1000);
    }

    #[test]
    fn same_seed_reproduces_exact_schedule() {
        let build = || {
            let mut p = FaultPlan::new(42);
            p.set_default_loss(LossModel::bursty(0.2, 0.7, 4));
            p.partition("cloud", "edge1", t(100), t(200));
            p
        };
        let mut a = build();
        let mut b = build();
        for i in 0..500 {
            let (from, to) = if i % 2 == 0 {
                ("edge0", "cloud")
            } else {
                ("cloud", "edge1")
            };
            assert_eq!(a.judge(from, to, t(i)), b.judge(from, to, t(i)));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let drops = |seed: u64| {
            let mut p = FaultPlan::new(seed);
            p.set_default_loss(LossModel::uniform(0.3));
            (0..200)
                .map(|i| p.should_drop("a", "b", t(i)))
                .collect::<Vec<_>>()
        };
        assert_ne!(drops(1), drops(2));
    }

    #[test]
    fn observed_loss_tracks_configured_probability() {
        let mut plan = FaultPlan::new(7);
        plan.set_loss("edge0", "cloud", LossModel::uniform(0.2));
        for i in 0..10_000 {
            plan.should_drop("edge0", "cloud", t(i));
        }
        let rate = plan.observed_loss_rate();
        assert!((0.17..0.23).contains(&rate), "rate {rate}");
    }

    #[test]
    fn bursts_raise_conditional_loss() {
        let mut plan = FaultPlan::new(9);
        plan.set_default_loss(LossModel::bursty(0.1, 0.9, 8));
        let mut after_drop = 0u32;
        let mut after_drop_dropped = 0u32;
        let mut prev_dropped = false;
        for i in 0..20_000 {
            let dropped = plan.should_drop("a", "b", t(i));
            if prev_dropped {
                after_drop += 1;
                if dropped {
                    after_drop_dropped += 1;
                }
            }
            prev_dropped = dropped;
        }
        let conditional = f64::from(after_drop_dropped) / f64::from(after_drop);
        // With burst_prob = 0.9 the post-drop loss rate must sit far above
        // the 0.1 base rate.
        assert!(conditional > 0.5, "conditional {conditional}");
        assert!(plan.dropped_by(DropCause::Burst) > 0);
    }

    #[test]
    fn flap_window_drops_everything_inside_only() {
        let mut plan = FaultPlan::new(3);
        plan.flap("cloud", "edge0", t(50), t(60));
        assert_eq!(plan.judge("cloud", "edge0", t(49)), None);
        assert_eq!(plan.judge("cloud", "edge0", t(50)), Some(DropCause::Flap));
        assert_eq!(plan.judge("cloud", "edge0", t(59)), Some(DropCause::Flap));
        assert_eq!(plan.judge("cloud", "edge0", t(60)), None);
        // Flaps are directional: the reverse link is unaffected.
        assert_eq!(plan.judge("edge0", "cloud", t(55)), None);
    }

    #[test]
    fn partition_cuts_both_directions_and_only_that_pair() {
        let mut plan = FaultPlan::new(4);
        plan.partition("edge1", "cloud", t(10), t(20));
        assert_eq!(
            plan.judge("cloud", "edge1", t(15)),
            Some(DropCause::Partition)
        );
        assert_eq!(
            plan.judge("edge1", "cloud", t(15)),
            Some(DropCause::Partition)
        );
        assert_eq!(plan.judge("cloud", "edge0", t(15)), None);
        assert!(plan.partitioned("cloud", "edge1", t(15)));
        assert!(!plan.partitioned("cloud", "edge1", t(25)));
    }

    #[test]
    fn per_link_streams_are_isolated() {
        // The a→b decision sequence must not change when unrelated c→d
        // traffic is interleaved.
        let mut alone = FaultPlan::new(11);
        alone.set_default_loss(LossModel::uniform(0.3));
        let solo: Vec<bool> = (0..100)
            .map(|i| alone.should_drop("a", "b", t(i)))
            .collect();

        let mut mixed = FaultPlan::new(11);
        mixed.set_default_loss(LossModel::uniform(0.3));
        let mut interleaved = Vec::new();
        for i in 0..100 {
            mixed.should_drop("c", "d", t(i));
            interleaved.push(mixed.should_drop("a", "b", t(i)));
        }
        assert_eq!(solo, interleaved);
    }
}
