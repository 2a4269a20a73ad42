//! Property tests for the tier-placement controller:
//!
//! 1. **Determinism** — two controllers built from the same policy,
//!    fed identical telemetry windows, emit identical decision sequences.
//!    This is the contract the runtime's scripted-replay digest parity
//!    (E18) rests on.
//! 2. **Hysteresis flip bound** — under an alternating read/write
//!    square-wave, confirmation streaks and the cooldown provably bound
//!    the number of transitions: a wave whose half-period is shorter than
//!    `confirm_windows` windows never confirms a transition at all, and
//!    any wave flips at most `1 + elapsed / cooldown` times.

use edgstr_net::Verb;
use edgstr_placement::{
    Observation, Placement, PlacementController, PlacementPolicy, ServiceKey, StaticSignals,
};
use edgstr_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn service() -> ServiceKey {
    (Verb::Get, "/svc".to_string())
}

fn signals() -> StaticSignals {
    StaticSignals {
        replicable: true,
        cacheable: true,
    }
}

/// One synthetic decision window: `reads`/`writes` observations with
/// plausible matched costs (local cheap for reads, expensive for writes).
#[derive(Debug, Clone)]
struct SynthWindow {
    reads: u64,
    writes: u64,
    hits: u64,
    sync_bytes: u64,
}

fn feed_window(c: &mut PlacementController, key: &ServiceKey, w: &SynthWindow) {
    for i in 0..w.reads {
        c.observe(
            key,
            Observation {
                write: false,
                cache_hit: i < w.hits,
                local_us: 300,
                forward_us: 50_000,
                local_demand_us: 300,
            },
        );
    }
    for _ in 0..w.writes {
        c.observe(
            key,
            Observation {
                write: true,
                cache_hit: false,
                local_us: 30_000,
                forward_us: 9_000,
                local_demand_us: 28_000,
            },
        );
    }
    c.observe_sync_bytes(key, w.sync_bytes);
}

fn window_strategy() -> impl Strategy<Value = SynthWindow> {
    (0u64..60, 0u64..60, 0u64..4096).prop_map(|(reads, writes, sync_bytes)| SynthWindow {
        hits: reads / 3,
        reads,
        writes,
        sync_bytes,
    })
}

proptest! {
    /// Identical windows into identically-configured controllers yield
    /// identical decision sequences.
    #[test]
    fn identical_windows_yield_identical_decisions(
        windows in prop::collection::vec(window_strategy(), 1..40),
    ) {
        let policy = PlacementPolicy::default();
        let key = service();
        let mut a = PlacementController::new(policy.clone(), 4.0);
        let mut b = PlacementController::new(policy, 4.0);
        a.register(key.clone(), signals(), Placement::CloudPin);
        b.register(key.clone(), signals(), Placement::CloudPin);
        for (i, w) in windows.iter().enumerate() {
            let now = SimTime((i as u64 + 1) * 1_000_000);
            feed_window(&mut a, &key, w);
            feed_window(&mut b, &key, w);
            let da = a.tick(now);
            let db = b.tick(now);
            prop_assert_eq!(da.len(), db.len());
            for (x, y) in da.iter().zip(db.iter()) {
                prop_assert_eq!(&x.service, &y.service);
                prop_assert_eq!(x.from, y.from);
                prop_assert_eq!(x.to, y.to);
                prop_assert_eq!(x.at, y.at);
                prop_assert_eq!(x.reason, y.reason);
                prop_assert_eq!(&x.window, &y.window);
            }
        }
        prop_assert_eq!(a.placement(&key), b.placement(&key));
    }

    /// An alternating read/write square-wave can never flip the placement
    /// more than `1 + elapsed/cooldown` times, and a wave alternating
    /// every window (half-period 1) with `confirm_windows >= 2` never
    /// confirms any transition.
    #[test]
    fn square_wave_flips_are_bounded(
        half_period in 1usize..6,
        confirm in 2u32..4,
        cooldown_s in 0u64..8,
        windows in 8usize..80,
    ) {
        let policy = PlacementPolicy {
            confirm_windows: confirm,
            cooldown: SimDuration::from_secs(cooldown_s),
            ..PlacementPolicy::default()
        };
        let key = service();
        let mut c = PlacementController::new(policy, 4.0);
        c.register(key.clone(), signals(), Placement::EdgeReplicate);
        let read_phase = SynthWindow { reads: 40, writes: 0, hits: 10, sync_bytes: 100 };
        let write_phase = SynthWindow { reads: 0, writes: 40, hits: 0, sync_bytes: 100 };
        let mut flips = 0u64;
        for i in 0..windows {
            let w = if (i / half_period) % 2 == 0 { &read_phase } else { &write_phase };
            feed_window(&mut c, &key, w);
            flips += c.tick(SimTime((i as u64 + 1) * 1_000_000)) .len() as u64;
        }
        if half_period < confirm as usize {
            prop_assert_eq!(flips, 0, "half-period below the confirmation streak must never flip");
        }
        let elapsed_s = windows as u64; // one window per virtual second
        let cooldown_bound = elapsed_s
            .checked_div(cooldown_s)
            .map_or(u64::MAX, |periods| 1 + periods);
        // each flip also consumes at least `confirm` windows of streak
        let streak_bound = windows as u64 / confirm as u64;
        prop_assert!(
            flips <= cooldown_bound.min(streak_bound.max(1)),
            "flips {} exceed hysteresis bound (cooldown {}, streak {})",
            flips, cooldown_bound, streak_bound
        );
    }
}
