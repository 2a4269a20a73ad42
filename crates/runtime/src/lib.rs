//! # edgstr-runtime — the three-tier runtime EdgStr deploys
//!
//! Implements §III-F/G and §IV-D of the paper:
//!
//! - [`CrdtSet`] — the CRDT wiring connecting service state changes to
//!   `CRDT-Table` / `CRDT-Files` / `CRDT-JSON` update operations, plus
//!   materialization of remote changes back into the local database, file
//!   system and globals;
//! - [`SyncEndpoint`] — the bidirectional `cloud_state` / `edge_state`
//!   channel with delta shipping and traffic accounting (Fig. 5b);
//! - [`ReplicaCore`] — one replica (server process, [`CrdtSet`],
//!   [`ResponseCache`]): provisioned from a [`ReplicaTemplate`] or a save
//!   image, serving through the one pipeline every driver below calls
//!   (lookup, handle, revert on failure, absorb, fill);
//! - [`LoadBalancer`] / [`Autoscaler`] — least-connections balancing and
//!   elasticity with low-power replica parking (§IV-D);
//! - [`TwoTierSystem`] / [`ThreeTierSystem`] — virtual-time drivers for
//!   the original client-cloud deployment and the EdgStr-generated
//!   client-edge-cloud deployment (edges, cloud master and warm standby
//!   are cores), including failure forwarding to the cloud master;
//! - [`ParallelSystem`] — the wall-clock executor: the same cores, each
//!   owned by one worker thread.

pub mod balancer;
pub mod cache;
pub mod crdtset;
pub mod driver;
pub mod parallel;
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
pub use parallel::{ParallelOptions, ParallelRunStats, ParallelSystem, FAILED_DIGEST};
pub use replica::{
    cache_plan, BitFlipCorruptor, CachePlan, ReplicaCore, ReplicaKind, ReplicaTemplate, Served,
};
pub use system::{
    EdgeReplica, HaPolicy, HaStats, QuarantinePolicy, ThreeTierOptions, ThreeTierSystem,
    TwoTierSystem,
};
pub use tiering::{
    PendingTransition, PlacementMode, PlacementScript, PlacementStats, ScriptedDecision,
    TransitionBarrier, TransitionRecord,
};
// Decision-logic types re-exported so runtime consumers need not depend on
// `edgstr-placement` directly.
pub use edgstr_placement::{
    desired_placement, Decision, DecisionReason, Observation, Placement, PlacementController,
    PlacementPolicy, StaticSignals, WindowSummary,
};
