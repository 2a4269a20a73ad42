//! Edge-cluster load balancing and elasticity (§IV-D).
//!
//! The paper's load balancer "directs client request traffic to the edge
//! nodes with the fewest active connections" and "estimates the expected
//! volume of traffic by monitoring the number of active connections",
//! dynamically creating/parking replicas as utilization changes. The
//! round-robin strategy is provided as the ablation baseline.

/// Load-balancing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceStrategy {
    /// The paper's policy: fewest active connections wins.
    LeastConnections,
    /// Ablation baseline: rotate over active replicas.
    RoundRobin,
}

/// The cluster load balancer.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    pub strategy: BalanceStrategy,
    rr_cursor: usize,
}

impl LoadBalancer {
    /// A balancer with the given strategy.
    pub fn new(strategy: BalanceStrategy) -> LoadBalancer {
        LoadBalancer {
            strategy,
            rr_cursor: 0,
        }
    }

    /// Pick a replica index. `connections[i]` is replica `i`'s active
    /// connection count; `active[i]` marks replicas that are powered on.
    /// Returns `None` when no replica is active.
    pub fn pick(&mut self, connections: &[usize], active: &[bool]) -> Option<usize> {
        let mut candidates = (0..connections.len()).filter(|&i| active[i]);
        match self.strategy {
            BalanceStrategy::LeastConnections => candidates.min_by_key(|&i| (connections[i], i)),
            BalanceStrategy::RoundRobin => {
                let count = candidates.clone().count();
                if count == 0 {
                    return None;
                }
                self.rr_cursor += 1;
                candidates.nth(self.rr_cursor % count)
            }
        }
    }
}

/// The elasticity controller: decides how many replicas should be active
/// given the observed in-flight load. Idle replicas are parked in
/// low-power mode rather than shut down, so they can be "brought back to
/// the running mode without incurring unnecessary delays" (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Autoscaler {
    /// Target concurrent connections per active replica.
    pub target_per_replica: usize,
    /// Never park below this many replicas.
    pub min_active: usize,
}

impl Default for Autoscaler {
    fn default() -> Self {
        Autoscaler {
            target_per_replica: 4,
            min_active: 1,
        }
    }
}

impl Autoscaler {
    /// Desired number of active replicas for `inflight` total connections
    /// across a cluster of `total` replicas.
    pub fn desired(&self, inflight: usize, total: usize) -> usize {
        let need = inflight.div_ceil(self.target_per_replica.max(1));
        need.clamp(self.min_active, total.max(self.min_active))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_connections_picks_emptiest() {
        let mut lb = LoadBalancer::new(BalanceStrategy::LeastConnections);
        let picked = lb.pick(&[3, 1, 2], &[true, true, true]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn least_connections_skips_parked() {
        let mut lb = LoadBalancer::new(BalanceStrategy::LeastConnections);
        let picked = lb.pick(&[3, 0, 2], &[true, false, true]);
        assert_eq!(picked, Some(2));
    }

    #[test]
    fn round_robin_rotates_over_active() {
        let mut lb = LoadBalancer::new(BalanceStrategy::RoundRobin);
        let active = [true, false, true];
        let a = lb.pick(&[0, 0, 0], &active).unwrap();
        let b = lb.pick(&[0, 0, 0], &active).unwrap();
        let c = lb.pick(&[0, 0, 0], &active).unwrap();
        assert_ne!(a, 1);
        assert_ne!(b, 1);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    /// Counting the active replicas picks what indexing a list of them
    /// did, and a pick with none active leaves the rotation where it was.
    #[test]
    fn round_robin_counts_as_the_candidate_list_indexed() {
        let mut lb = LoadBalancer::new(BalanceStrategy::RoundRobin);
        let mut cursor = 0;
        for step in 0..200usize {
            let active: Vec<bool> = (0..4)
                .map(|i| ((step * 7 + step / 3) >> i) & 1 == 1)
                .collect();
            let listed: Vec<usize> = (0..4).filter(|&i| active[i]).collect();
            let expected = (!listed.is_empty()).then(|| {
                cursor += 1;
                listed[cursor % listed.len()]
            });
            assert_eq!(lb.pick(&[0; 4], &active), expected, "step {step}");
        }
    }

    #[test]
    fn no_active_replicas_returns_none() {
        let mut lb = LoadBalancer::new(BalanceStrategy::LeastConnections);
        assert_eq!(lb.pick(&[0, 0], &[false, false]), None);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut lb = LoadBalancer::new(BalanceStrategy::LeastConnections);
        assert_eq!(lb.pick(&[1, 1, 1], &[true, true, true]), Some(0));
    }

    #[test]
    fn autoscaler_scales_with_load() {
        let a = Autoscaler {
            target_per_replica: 4,
            min_active: 1,
        };
        assert_eq!(a.desired(0, 4), 1);
        assert_eq!(a.desired(4, 4), 1);
        assert_eq!(a.desired(5, 4), 2);
        assert_eq!(a.desired(16, 4), 4);
        assert_eq!(a.desired(100, 4), 4); // capped at cluster size
    }

    #[test]
    fn autoscaler_respects_min_active() {
        let a = Autoscaler {
            target_per_replica: 4,
            min_active: 2,
        };
        assert_eq!(a.desired(0, 4), 2);
    }
}
