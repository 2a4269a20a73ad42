//! # edgstr-crdt — Conflict-free replicated data types for EdgStr
//!
//! The paper keeps cloud/edge service state eventually consistent through a
//! third-party CRDT (automerge), wrapping replicated components into
//! `CRDT-Table`, `CRDT-Files` and `CRDT-JSON` structures exposing
//! `initialize`, `getChanges` and `applyChanges` (§III-G). This crate is a
//! from-scratch implementation of that substrate, in which all three are
//! one type:
//!
//! - [`Doc`] — a replicated map of key → register, exchanging [`Change`]
//!   batches. A register holds one whole [`Value`]: a row of typed
//!   [`Cell`]s keyed by primary key (`CRDT-Table`, see [`table`]), a
//!   file's bytes keyed by path (`CRDT-Files`), or a global's JSON keyed
//!   by name (`CRDT-JSON`). Concurrent puts of a key resolve by op id; a
//!   delete removes only what it observed, so a concurrent put survives
//!   it — for a table, row-level add-wins, and for a file, the later
//!   whole-file write, matching how EdgStr duplicates the files the
//!   dynamic trace identifies (copying or downloading, §III-C). A file's
//!   size and content hash follow from its bytes. A replica keeps all
//!   three in one document, a key namespace each, with a Lamport counter
//!   per namespace ([`doc`]'s "Namespaces");
//! - [`wire`] — the binary codec of the sync wire and of the save image:
//!   every message's `wire_size` is the length of its own `encode`, which
//!   is what the WAN-traffic experiments account for, and
//!   [`Doc::save`]/[`Doc::load`] move a whole replica through the same
//!   primitives.
//!
//! The per-peer protocol that ships these changes between replicas — the
//! `cloud_state` / `edge_state` exchange — is `SyncEndpoint` in
//! `edgstr-runtime`.
//!
//! The replication hot path is O(delta), not O(lifetime): history is a
//! per-actor indexed log ([`Doc::get_changes`] slices each actor's
//! seq-contiguous run) and acked prefixes can be folded into the snapshot
//! with [`Doc::compact`], keeping resident history bounded under
//! steady-state sync. The safe frontier is the pointwise minimum
//! ([`VClock::meet`]) of peer ack clocks.
//!
//! Replicas that apply the same set of changes read identical values
//! (strong eventual consistency; `tests/convergence.rs`).
//!
//! ## Example
//!
//! ```
//! use edgstr_crdt::{ActorId, Doc, Value};
//! use serde_json::json;
//!
//! // cloud master and one edge replica
//! let hits = [("hits".to_string(), Value::Json(json!(0)))];
//! let mut cloud = Doc::from_snapshot(ActorId(1), hits.clone());
//! let mut edge = Doc::from_snapshot(ActorId(2), hits);
//!
//! // both update concurrently
//! cloud.put("region", Value::Json(json!("us-east")));
//! edge.put("hits", Value::Json(json!(1)));
//!
//! // background sync in both directions
//! let to_edge = cloud.get_changes(edge.clock());
//! let to_cloud = edge.get_changes(cloud.clock());
//! edge.apply_changes(to_edge);
//! cloud.apply_changes(to_cloud);
//!
//! assert!(cloud.entries().eq(edge.entries()));
//! assert_eq!(cloud.get("hits"), Some(&Value::Json(json!(1))));
//! ```

pub mod change;
pub mod doc;
pub mod ids;
pub mod table;
pub mod wire;

pub use change::{Change, Op, Value};
pub use doc::{CrdtError, Doc, GENESIS_ACTOR};
pub use ids::{ActorId, OpId, VClock};
pub use table::{Cell, Row};

#[cfg(test)]
mod files;
