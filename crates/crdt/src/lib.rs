//! # edgstr-crdt — Conflict-free replicated data types for EdgStr
//!
//! The paper keeps cloud/edge service state eventually consistent through a
//! third-party CRDT (automerge), wrapping replicated components into
//! `CRDT-Table`, `CRDT-Files` and `CRDT-JSON` structures exposing
//! `initialize`, `getChanges` and `applyChanges` (§III-G). This crate is a
//! from-scratch implementation of that substrate, in which all three are
//! one type:
//!
//! - [`Doc`] — a replicated map of key → register, exchanging the
//!   [`Slot`]s of the keys a peer has not seen. A register holds one whole
//!   [`Value`]: a row of typed
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
//! The replication hot path is O(delta), not O(lifetime), and there is no
//! history: every value carries the dot of the write that made it, and a
//! per-actor index from seq to key lets [`Doc::get_changes`] read the
//! delta from the state itself. What is left to compact is the tombstone
//! of each delete, dropped by [`Doc::compact`] once the safe frontier —
//! the pointwise minimum ([`VClock::meet`]) of peer ack clocks — covers it.
//!
//! Replicas that have seen the same writes read identical values (strong
//! eventual consistency; `tests/convergence.rs`).
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
//! // background sync in both directions: each side reads the delta above
//! // the other's clock, and the other merges it under the sender's clock
//! let (cloud_at, edge_at) = (cloud.clock().clone(), edge.clock().clone());
//! let to_edge = cloud.get_changes(&edge_at);
//! let to_cloud = edge.get_changes(&cloud_at);
//! edge.apply_changes(&edge_at, &cloud_at, to_edge);
//! cloud.apply_changes(&cloud_at, &edge_at, to_cloud);
//!
//! assert!(cloud.entries().eq(edge.entries()));
//! assert_eq!(cloud.get("hits"), Some(&Value::Json(json!(1))));
//! ```

pub mod change;
pub mod doc;
pub mod ids;
pub mod table;
pub mod wire;

pub use change::{Slot, Stamp, Value};
pub use doc::{CrdtError, Doc, GENESIS_ACTOR};
pub use ids::{ActorId, OpId, VClock};
pub use table::{Cell, Row};

#[cfg(test)]
mod files;
