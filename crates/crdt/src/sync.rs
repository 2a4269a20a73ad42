//! Per-peer synchronization protocol state.
//!
//! The paper's transformed services exchange `cloud_state` / `edge_state`
//! messages over a bidirectional socket (§III-G.1, Fig. 5b). A
//! [`PeerSync`] tracks what a peer is known to have, so each sync round
//! ships only the delta; [`SyncMessage::wire_size`] is the WAN cost the
//! synchronization experiments account for (Fig. 10a, Table II `WAN_e`).
//!
//! Delivery is *not* assumed reliable. A [`SyncMessage`] carries an
//! explicit [`SyncMessage::ack`] clock — the sender's applied state — and
//! by default a [`PeerSync`] advances its view of the peer only when such
//! an acknowledgment arrives ([`AdvanceMode::OnAck`]). A dropped message
//! therefore leaves `peer_clock` untouched and the missing changes are
//! regenerated on the next round. The pre-fix behavior, advancing
//! optimistically at send time, is kept as [`AdvanceMode::Optimistic`]
//! purely as an ablation: under loss it silently diverges (see the
//! `optimistic_mode_diverges_on_loss` test).

use crate::change::Change;
use crate::ids::{ActorId, VClock};
use crate::wire::{put_changes, put_varint, Count, Sink};

/// One synchronization message: the sender's clocks plus the changes the
/// peer was missing at generation time.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncMessage {
    /// Replica that produced this message.
    pub sender: ActorId,
    /// The sender's clock after including `changes`.
    pub clock: VClock,
    /// Everything the sender has durably applied — a cumulative
    /// acknowledgment of changes received from the peer. The receiver may
    /// advance its `peer_clock` this far even if `changes` is empty.
    pub ack: VClock,
    /// The delta for the peer.
    pub changes: Vec<Change>,
}

impl SyncMessage {
    /// Wire layout: `sender`, `clock`, `ack`, then the change batch.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.sender.0);
        self.clock.write(out);
        self.ack.write(out);
        put_changes(out, &self.changes);
    }

    /// Append this message's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// Bytes this message costs on the wire: the length of
    /// [`SyncMessage::encode`], with each change contributing the length
    /// it remembers instead of being encoded again.
    pub fn wire_size(&self) -> usize {
        Count::of(|n| self.write(n))
    }

    /// Whether the message carries no changes (pure heartbeat/ack).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// How a [`PeerSync`] advances its model of the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvanceMode {
    /// Advance `peer_clock` only when the peer acknowledges (default:
    /// loss-tolerant — dropped deltas are regenerated).
    #[default]
    OnAck,
    /// Advance at send time, assuming delivery (the pre-fix behavior,
    /// kept as an ablation knob; diverges permanently under loss).
    Optimistic,
}

/// Synchronization state this replica keeps about one peer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerSync {
    /// The peer's clock as far as we know (from its last acknowledgment —
    /// or, in [`AdvanceMode::Optimistic`], from our own sends).
    pub peer_clock: VClock,
    /// Advancement policy for `peer_clock`.
    pub mode: AdvanceMode,
    /// Total bytes sent to this peer.
    pub bytes_sent: usize,
    /// Total bytes received from this peer.
    pub bytes_received: usize,
    /// Messages sent.
    pub messages_sent: usize,
    /// Messages received.
    pub messages_received: usize,
}

impl PeerSync {
    /// Fresh ack-driven state: assume the peer has nothing until it says
    /// otherwise.
    pub fn new() -> Self {
        PeerSync::default()
    }

    /// Fresh state using the pre-fix optimistic advancement (ablation
    /// only).
    pub fn optimistic() -> Self {
        PeerSync {
            mode: AdvanceMode::Optimistic,
            ..PeerSync::default()
        }
    }

    /// Build the next outgoing message for this peer from any replicated
    /// structure exposing `get_changes`. `clock` is the sender's applied
    /// clock after the enclosed changes; it doubles as the cumulative
    /// acknowledgment.
    pub fn generate<F>(&mut self, sender: ActorId, clock: VClock, get_changes: F) -> SyncMessage
    where
        F: FnOnce(&VClock) -> Vec<Change>,
    {
        let changes = get_changes(&self.peer_clock);
        let msg = SyncMessage {
            sender,
            ack: clock.clone(),
            clock,
            changes,
        };
        self.bytes_sent += msg.wire_size();
        self.messages_sent += 1;
        if self.mode == AdvanceMode::Optimistic {
            // Pre-fix behavior: assume delivery. If the link drops this
            // message nothing ever regenerates the changes — the peers
            // diverge until an unrelated write happens to cover the gap.
            for c in &msg.changes {
                self.peer_clock.observe(c.actor(), c.seq());
            }
        }
        msg
    }

    /// Record an incoming message and return its changes for application.
    ///
    /// Both clocks advance `peer_clock`: `msg.clock` covers the changes
    /// the peer itself generated, `msg.ack` covers what it has applied
    /// from us — the acknowledgment that lets us stop resending.
    pub fn receive<'m>(&mut self, msg: &'m SyncMessage) -> &'m [Change] {
        self.bytes_received += msg.wire_size();
        self.messages_received += 1;
        self.peer_clock.merge(&msg.clock);
        self.peer_clock.merge(&msg.ack);
        &msg.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Doc;
    use crate::path;
    use serde_json::json;

    #[test]
    fn delta_sync_sends_each_change_once() {
        let mut cloud = Doc::new(ActorId(1));
        let mut edge = Doc::new(ActorId(2));
        let mut cloud_view = PeerSync::new(); // cloud's view of edge
        let mut edge_view = PeerSync::new(); // edge's view of cloud

        cloud.put(&path!["a"], json!(1)).unwrap();
        let m1 = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |since| {
            cloud.get_changes(since)
        });
        assert_eq!(m1.changes.len(), 1);
        edge.apply_changes(edge_view.receive(&m1)).unwrap();

        // The edge acknowledges; only then does the cloud stop resending.
        let ack = edge_view.generate(edge.actor(), edge.clock().clone(), |since| {
            edge.get_changes(since)
        });
        cloud.apply_changes(cloud_view.receive(&ack)).unwrap();

        // next round with no new changes is empty
        let m2 = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |since| {
            cloud.get_changes(since)
        });
        assert!(m2.is_empty());

        cloud.put(&path!["b"], json!(2)).unwrap();
        let m3 = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |since| {
            cloud.get_changes(since)
        });
        assert_eq!(m3.changes.len(), 1);
        edge.apply_changes(edge_view.receive(&m3)).unwrap();
        assert_eq!(edge.to_json(), cloud.to_json());
    }

    #[test]
    fn traffic_accounting_accumulates() {
        let mut doc = Doc::new(ActorId(1));
        doc.put(&path!["k"], json!("v")).unwrap();
        let mut view = PeerSync::new();
        let m = view.generate(doc.actor(), doc.clock().clone(), |s| doc.get_changes(s));
        assert!(m.wire_size() > 0);
        assert_eq!(view.bytes_sent, m.wire_size());
        assert_eq!(view.messages_sent, 1);
    }

    #[test]
    fn bidirectional_round_converges() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        let mut a_of_b = PeerSync::new();
        let mut b_of_a = PeerSync::new();
        a.put(&path!["x"], json!(1)).unwrap();
        b.put(&path!["y"], json!(2)).unwrap();
        let ma = a_of_b.generate(a.actor(), a.clock().clone(), |s| a.get_changes(s));
        b.apply_changes(b_of_a.receive(&ma)).unwrap();
        let mb = b_of_a.generate(b.actor(), b.clock().clone(), |s| b.get_changes(s));
        a.apply_changes(a_of_b.receive(&mb)).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    /// Regression anchor for the lost-delta bug: a dropped message's
    /// changes must be regenerated on the next round.
    #[test]
    fn dropped_message_is_regenerated_under_ack() {
        let mut cloud = Doc::new(ActorId(1));
        let mut edge = Doc::new(ActorId(2));
        let mut cloud_view = PeerSync::new();
        let mut edge_view = PeerSync::new();

        cloud.put(&path!["a"], json!(1)).unwrap();
        let dropped = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |s| {
            cloud.get_changes(s)
        });
        assert_eq!(dropped.changes.len(), 1);
        // The network eats `dropped`. peer_clock must not have advanced:
        assert_eq!(cloud_view.peer_clock, VClock::new());

        // Next round regenerates the same delta and the edge converges.
        let retry = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |s| {
            cloud.get_changes(s)
        });
        assert_eq!(retry.changes, dropped.changes);
        edge.apply_changes(edge_view.receive(&retry)).unwrap();
        assert_eq!(edge.to_json(), cloud.to_json());

        // Applying the late-arriving duplicate is harmless (idempotent).
        edge.apply_changes(&dropped.changes).unwrap();
        assert_eq!(edge.to_json(), cloud.to_json());
    }

    /// The pre-fix behavior, preserved as an ablation: optimistic
    /// advancement permanently diverges when a message is lost.
    #[test]
    fn optimistic_mode_diverges_on_loss() {
        let mut cloud = Doc::new(ActorId(1));
        let mut edge = Doc::new(ActorId(2));
        let mut cloud_view = PeerSync::optimistic();
        let mut edge_view = PeerSync::optimistic();

        cloud.put(&path!["a"], json!(1)).unwrap();
        let dropped = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |s| {
            cloud.get_changes(s)
        });
        assert_eq!(dropped.changes.len(), 1);
        // The network eats the message, but the cloud already counted it
        // as delivered — every later round believes there is no delta.
        for _ in 0..5 {
            let m = cloud_view.generate(cloud.actor(), cloud.clock().clone(), |s| {
                cloud.get_changes(s)
            });
            assert!(m.is_empty(), "optimistic sender believes peer is current");
            edge.apply_changes(edge_view.receive(&m)).unwrap();
        }
        assert_ne!(
            edge.to_json(),
            cloud.to_json(),
            "replicas silently diverged"
        );
    }

    #[test]
    fn wire_size_is_the_encoded_length() {
        let mut doc = Doc::new(ActorId(3));
        doc.put(&path!["k"], json!({"nested": [1, 2]})).unwrap();
        let mut view = PeerSync::new();
        let m = view.generate(doc.actor(), doc.clock().clone(), |s| doc.get_changes(s));
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        assert_eq!(bytes.len(), m.wire_size());
        // sender, two one-pair clocks, a count, then the change as it
        // encodes on its own
        let mut change = Vec::new();
        m.changes[0].encode(&mut change);
        assert_eq!(bytes[..8], [3, 1, 3, 1, 1, 3, 1, 1]);
        assert_eq!(bytes[8..], change[..]);
    }
}
