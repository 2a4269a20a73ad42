//! # edgstr-crdt — Conflict-free replicated data types for EdgStr
//!
//! The paper keeps cloud/edge service state eventually consistent through a
//! third-party CRDT (automerge), wrapping replicated components into
//! `CRDT-Table`, `CRDT-Files` and `CRDT-JSON` structures exposing
//! `initialize`, `getChanges` and `applyChanges` (§III-G). This crate is a
//! from-scratch implementation of that substrate:
//!
//! - [`Doc`] — a nested JSON document CRDT, last-writer-wins maps with
//!   atomic JSON leaves, exchanging [`Change`] batches — the `CRDT-JSON`;
//! - [`CrdtTable`] — rows keyed by primary key, per-cell LWW merge — the
//!   `CRDT-Table`;
//! - [`CrdtFiles`] — whole-file LWW version entries — the `CRDT-Files`;
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
//! Replicas that apply the same set of changes read identical JSON —
//! strong eventual consistency — which the property tests in
//! `tests/convergence.rs` exercise under random concurrent workloads and
//! delivery orders.
//!
//! ## Example
//!
//! ```
//! use edgstr_crdt::{Doc, ActorId, path};
//! use serde_json::json;
//!
//! // cloud master and one edge replica
//! let mut cloud = Doc::from_snapshot(ActorId(1), &json!({"hits": 0}));
//! let mut edge = Doc::from_snapshot(ActorId(2), &json!({"hits": 0}));
//!
//! // both update concurrently
//! cloud.put(&path!["region"], json!("us-east")).unwrap();
//! edge.put(&path!["hits"], json!(1)).unwrap();
//!
//! // background sync in both directions
//! let to_edge = cloud.get_changes(edge.clock());
//! let to_cloud = edge.get_changes(cloud.clock());
//! edge.apply_changes(to_edge).unwrap();
//! cloud.apply_changes(to_cloud).unwrap();
//!
//! assert_eq!(cloud.to_json(), edge.to_json());
//! assert_eq!(cloud.get(&path!["hits"]), Some(json!(1)));
//! ```

pub mod change;
pub mod doc;
pub mod files;
pub mod ids;
pub mod table;
pub mod wire;

pub use change::{Change, ObjId, Op, OpValue};
pub use doc::{CrdtError, Doc, KeyTouch, PathSeg, TouchedKeys, ValueRef, GENESIS_ACTOR};
pub use files::CrdtFiles;
pub use ids::{ActorId, OpId, VClock};
pub use table::CrdtTable;

/// Stable content hash (FNV-1a) used to fingerprint file payloads.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
