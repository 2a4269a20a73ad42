//! # edgstr-runtime — the three-tier runtime EdgStr deploys
//!
//! Implements §III-F/G and §IV-D of the paper:
//!
//! - [`CrdtSet`] — the CRDT wiring connecting service state changes to
//!   `CRDT-Table` / `CRDT-Files` / `CRDT-JSON` update operations, plus
//!   materialization of remote changes back into the local database, file
//!   system and globals;
//! - [`SyncEndpoint`] — the bidirectional `cloud_state` / `edge_state`
//!   channel with ack-driven delta shipping (Fig. 5b);
//! - [`ReplicaCore`] — one replica (server process, [`CrdtSet`],
//!   [`ResponseCache`]): provisioned by a [`replica::Provisioner`] from a
//!   [`ReplicaTemplate`] (and, for a replacement, a save image), serving
//!   through the one pipeline every driver below calls (lookup, handle,
//!   revert on failure, absorb, fill);
//! - [`LoadBalancer`] / [`Autoscaler`] — least-connections balancing and
//!   elasticity with low-power replica parking (§IV-D);
//! - [`TwoTierSystem`] / [`ThreeTierSystem`] — virtual-time drivers for
//!   the original client-cloud deployment and the EdgStr-generated
//!   client-edge-cloud deployment (edges, cloud master and warm standby
//!   are cores). The three-tier driver routes and schedules; the control
//!   planes it calls own their state and act on the nodes it lends them:
//!   - [`link::SyncLink`] — both endpoints of one replica↔master channel
//!     and the one exchange every synced replica runs over it;
//!   - [`ha::HaPlane`] — crash schedule, warm standby, durable image,
//!     failover and edge restarts;
//!   - [`quarantine::Quarantine`] — shadow execution on a diversified
//!     variant, mismatch budgets;
//!   - [`forwarding::Forwarder`] — failure forwarding to the cloud master
//!     with retries, backoff and per-edge circuit breakers;
//!   - [`tiering::Placements`] — per-service tier placement and its
//!     clock-barrier transitions;
//! - [`ParallelSystem`] — the wall-clock executor: the same cores, each
//!   owned by one worker thread.

pub mod balancer;
pub mod cache;
pub mod crdtset;
pub mod driver;
pub mod forwarding;
pub mod ha;
pub mod link;
pub mod parallel;
pub mod quarantine;
pub mod replica;
pub mod system;
pub mod tiering;

pub use balancer::{Autoscaler, BalanceStrategy, LoadBalancer};
pub use cache::{
    bump_static_global_writes, resolve_reads, CacheKey, CachePolicy, CacheStats, ResponseCache,
    UnitKey, UnitVersions, CACHE_HIT_CYCLES,
};
pub use crdtset::{CrdtSet, SetChanges, SetClock, SetSyncMessage, SyncEndpoint};
pub use driver::{FaultPolicy, MobilePower, RunRecorder, RunStats, TimedRequest, Workload};
pub use ha::{HaPolicy, HaStats};
pub use parallel::{ParallelOptions, ParallelRunStats, ParallelSystem, FAILED_DIGEST};
pub use quarantine::QuarantinePolicy;
pub use replica::{
    cache_plan, BitFlipCorruptor, CachePlan, ReplicaCore, ReplicaKind, ReplicaTemplate, Served,
};
pub use system::{EdgeReplica, ThreeTierOptions, ThreeTierSystem, TwoTierSystem};
pub use tiering::{
    PlacementMode, PlacementScript, PlacementStats, ScriptedDecision, TransitionRecord,
};
// Decision-logic types re-exported so runtime consumers need not depend on
// `edgstr-placement` directly.
pub use edgstr_placement::{
    desired_placement, Decision, DecisionReason, Observation, Placement, PlacementController,
    PlacementPolicy, StaticSignals, WindowSummary,
};
