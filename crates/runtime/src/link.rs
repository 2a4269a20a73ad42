//! One sync link: both endpoints of the channel between a replica and the
//! master it syncs with, and the one exchange every synced replica runs
//! over it. An edge and the warm standby hang off the master the same way;
//! what differs arrives as arguments: which end speaks first (an edge
//! reports before the master answers; the master feeds the standby before
//! the standby acknowledges), whether the answer's acknowledgment is
//! capped, and what the network does to each message.

use crate::crdtset::{SetSyncMessage, SyncEndpoint};
use crate::replica::ReplicaCore;
use edgstr_crdt::VClock;

/// Direction of one message on a [`SyncLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    ToMaster,
    ToReplica,
}

/// Both ends of the sync channel between one replica and the master.
#[derive(Debug)]
pub struct SyncLink {
    /// The replica's end: its `peer_clock` is what the master has
    /// acknowledged, the prefix the replica may compact.
    pub replica: SyncEndpoint,
    /// The master's end: its `peer_clock` is what the replica has
    /// acknowledged — for the standby's link, the durability frontier.
    pub master: SyncEndpoint,
}

impl SyncLink {
    /// A link whose two ends both hold `clock` already (the empty clock at
    /// deploy, the image's clock for a replica provisioned from a save
    /// image: nothing below it is ever re-sent).
    pub fn starting(clock: VClock) -> SyncLink {
        SyncLink {
            replica: SyncEndpoint::starting(clock.clone()),
            master: SyncEndpoint::starting(clock),
        }
    }

    /// The replica was re-provisioned at `clock`: both ends start over.
    pub fn replica_replaced(&mut self, clock: VClock) {
        *self = SyncLink::starting(clock);
    }

    /// A new master process took over. What this replica had acked was in
    /// the dead master's memory, so the master's end restarts from scratch;
    /// resending every indexed slot is idempotent.
    pub fn master_replaced(&mut self) {
        self.master = SyncEndpoint::new();
    }

    /// One round trip: the `first` leg's sender ships its delta, then the
    /// receiver answers with its own delta and acknowledgment, capped at
    /// `ack_cap` when there is one. `deliver` sees every message between
    /// generation and receipt — the place to size it and to judge it against
    /// a fault plan — and says whether it arrives.
    pub fn exchange(
        &mut self,
        replica: &mut ReplicaCore,
        master: &mut ReplicaCore,
        first: Leg,
        ack_cap: Option<&VClock>,
        mut deliver: impl FnMut(Leg, &SetSyncMessage) -> bool,
    ) {
        let answer = match first {
            Leg::ToMaster => Leg::ToReplica,
            Leg::ToReplica => Leg::ToMaster,
        };
        for leg in [first, answer] {
            let (from, sender, to, receiver) = match leg {
                Leg::ToMaster => (&mut self.replica, &*replica, &mut self.master, &mut *master),
                Leg::ToReplica => (&mut self.master, &*master, &mut self.replica, &mut *replica),
            };
            let mut msg = from.generate(&sender.crdts);
            if let Some(cap) = ack_cap.filter(|_| leg == answer) {
                msg.cap_ack(cap);
            }
            if deliver(leg, &msg) {
                to.receive_owned(&mut receiver.crdts, &mut receiver.server, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::{deployment, note};
    use crate::replica::ReplicaKind;
    use edgstr_crdt::ActorId;

    /// An edge that has served `edge_ids` and a master that has served
    /// `master_ids`, on a link at the shared snapshot.
    fn pair(edge_ids: &[u64], master_ids: &[u64]) -> (SyncLink, ReplicaCore, ReplicaCore) {
        let mut deployment = deployment();
        let mut edge = deployment
            .provision(ReplicaKind::Edge, ActorId(2), None)
            .unwrap();
        let mut master = deployment
            .provision(ReplicaKind::Master, ActorId(1), None)
            .unwrap();
        for (core, ids) in [(&mut edge, edge_ids), (&mut master, master_ids)] {
            for id in ids {
                core.execute(&note(*id, "t"), None, None, &None).unwrap();
            }
        }
        let link = SyncLink::starting(VClock::new());
        (link, edge, master)
    }

    /// One edge↔master exchange as `sync_round` wrote it out before the
    /// link existed: both halves inline, the drop verdicts scripted.
    fn exchange_at_the_parent(
        link: &mut SyncLink,
        edge: &mut ReplicaCore,
        master: &mut ReplicaCore,
        cap: Option<&VClock>,
        (up_lost, down_lost): (bool, bool),
    ) -> Vec<usize> {
        let mut wire = Vec::new();
        let msg = link.replica.generate(&edge.crdts);
        wire.push(msg.wire_size());
        if !up_lost {
            link.master
                .receive_owned(&mut master.crdts, &mut master.server, msg);
        }
        let mut msg = link.master.generate(&master.crdts);
        if let Some(cap) = cap {
            let ack = msg.clock.meet(cap);
            msg.ack = (ack != msg.clock).then_some(ack);
        }
        wire.push(msg.wire_size());
        if !down_lost {
            link.replica
                .receive_owned(&mut edge.crdts, &mut edge.server, msg);
        }
        wire
    }

    fn observe(
        link: &SyncLink,
        edge: &ReplicaCore,
        master: &ReplicaCore,
    ) -> impl PartialEq + std::fmt::Debug {
        (
            (edge.crdts.clock().clone(), master.crdts.clock().clone()),
            (
                link.replica.peer_clock.clone(),
                link.master.peer_clock.clone(),
            ),
            (
                edge.replicated_state_digest(),
                master.replicated_state_digest(),
            ),
        )
    }

    /// Two rounds over every drop script, capped and not: the link's
    /// exchange leaves clocks, acknowledgments, replicated state and message
    /// sizes exactly where the inline halves left them.
    #[test]
    fn exchange_equals_the_inline_halves_under_every_drop_script() {
        let scripts = [(true, false), (false, true), (false, false), (true, true)];
        for first in scripts {
            for second in scripts {
                for capped in [false, true] {
                    let (mut link, mut edge, mut master) = pair(&[1, 2, 3], &[10, 11]);
                    let (mut ref_link, mut ref_edge, mut ref_master) = pair(&[1, 2, 3], &[10, 11]);
                    // a durability frontier that trails the master: what it
                    // held before this edge's deltas arrived
                    let cap = capped.then(|| master.crdts.clock().clone());
                    for script in [first, second] {
                        let mut wire = Vec::new();
                        link.exchange(
                            &mut edge,
                            &mut master,
                            Leg::ToMaster,
                            cap.as_ref(),
                            |leg, msg| {
                                wire.push(msg.wire_size());
                                match leg {
                                    Leg::ToMaster => !script.0,
                                    Leg::ToReplica => !script.1,
                                }
                            },
                        );
                        let ref_wire = exchange_at_the_parent(
                            &mut ref_link,
                            &mut ref_edge,
                            &mut ref_master,
                            cap.as_ref(),
                            script,
                        );
                        assert_eq!(wire, ref_wire, "{first:?} {second:?} {capped}");
                        assert_eq!(
                            observe(&link, &edge, &master),
                            observe(&ref_link, &ref_edge, &ref_master),
                            "{first:?} {second:?} {capped}"
                        );
                        if let Some(cap) = &cap {
                            assert!(
                                cap.dominates(&link.replica.peer_clock),
                                "a capped ack never tells the edge more than the cap"
                            );
                        }
                    }
                    if !capped && second == (false, false) {
                        // whatever the first round lost, a clean round
                        // converges the pair: lost deltas are regenerated
                        assert_eq!(edge.crdts.clock(), master.crdts.clock());
                    }
                }
            }
        }
    }

    /// The standby's order: the master speaks first, and learns in the same
    /// exchange that the standby holds what it sent.
    #[test]
    fn master_first_exchange_acknowledges_within_one_round() {
        let (mut link, mut standby, mut master) = pair(&[], &[10, 11]);
        link.exchange(&mut standby, &mut master, Leg::ToReplica, None, |_, _| true);
        assert_eq!(standby.crdts.clock(), master.crdts.clock());
        assert_eq!(&link.master.peer_clock, master.crdts.clock());
    }

    #[test]
    fn replacing_an_end_resets_what_that_end_knew() {
        let (mut link, mut edge, mut master) = pair(&[1], &[10]);
        link.exchange(&mut edge, &mut master, Leg::ToMaster, None, |_, _| true);
        let acked = link.replica.peer_clock.clone();
        assert_ne!(acked, VClock::new());
        link.master_replaced();
        assert_eq!(link.master.peer_clock, VClock::new());
        assert_eq!(
            link.replica.peer_clock, acked,
            "the edge's end is untouched"
        );
        link.replica_replaced(master.crdts.clock().clone());
        assert_eq!(&link.replica.peer_clock, master.crdts.clock());
        assert_eq!(&link.master.peer_clock, master.crdts.clock());
    }
}
