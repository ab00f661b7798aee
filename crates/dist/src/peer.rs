//! One participant's reliability layer, with no I/O: the state machine
//! both distributed runtimes step.
//!
//! A `Peer` owns a participant's [`Node`] and what makes its removal
//! announcements reliable: an outbox numbered by `seq` (its index there)
//! and retried on one backoff until the addressee acknowledges, the
//! `(sender, seq)` pairs already observed, the peers subscribed to its
//! dead edges and its outstanding sync requests. Packets and the caller's
//! clock go in; `(addressee, packet)` pairs come out, in send order. A
//! peer reads no clock, socket, fault plan or round counter: "now" is
//! rounds in the in-process loop and main-loop ticks on a socket node.

use crate::codec::{NodeStatus, Packet};
use crate::node::{Message, Node};
use std::collections::{BTreeMap, BTreeSet};
use trustseq_core::EdgeId;
use trustseq_model::AgentId;

/// A packet to send, with its addressee.
pub(crate) type Outgoing = (AgentId, Packet);

/// The retry rule of announcements and sync requests alike: the first
/// transmission waits `ack`, the *n*-th `ack · 2^(n−1)` capped at `cap`,
/// and after `max_attempts` transmissions the sender gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Backoff {
    pub ack: u64,
    pub cap: u64,
    pub max_attempts: usize,
}

/// A retried transmission: how often it went out and when it is due again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retry {
    pub attempts: usize,
    pub due: u64,
}

impl Backoff {
    fn first(&self, now: u64) -> Retry {
        Retry {
            attempts: 1,
            due: now.saturating_add(self.ack),
        }
    }

    /// `Some(true)` when `retry` is due at `now` and goes out again (it is
    /// rescheduled), `Some(false)` when its budget is spent, else `None`.
    fn step(&self, retry: &mut Retry, now: u64) -> Option<bool> {
        if now < retry.due {
            return None;
        }
        if retry.attempts >= self.max_attempts {
            return Some(false);
        }
        let wait = self.ack.saturating_mul(1 << retry.attempts.min(20));
        retry.attempts += 1;
        retry.due = now.saturating_add(wait.min(self.cap));
        Some(true)
    }
}

/// One announcement in a peer's outbox; its `seq` is its index there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Announcement {
    pub to: AgentId,
    pub msg: Message,
    pub retry: Retry,
    pub acked: bool,
    /// The attempt budget ran out before an acknowledgement came.
    pub abandoned: bool,
}

/// What [`Peer::receive`] made of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Received {
    /// The sender's announcement `seq`, acknowledged. A `fresh` one was
    /// observed and relayed to the sync subscribers; a repeat is dropped.
    Announcement { seq: u64, fresh: bool },
    /// The first acknowledgement of outbox entry `seq` from its addressee.
    Acked(u64),
    /// A sync response from `from` with `dead` edges, merged.
    Synced { from: AgentId, dead: usize },
    /// A sync request answered, or an acknowledgement that cleared nothing.
    Handled,
    /// A control-plane frame (hello, ping, status, …): no reliability state.
    Ignored,
}

/// One participant's node plus the reliability state around it.
#[derive(Debug, Clone)]
pub(crate) struct Peer {
    node: Node,
    backoff: Backoff,
    /// Announcements by `seq`; survives a restart (the write-ahead log).
    outbox: Vec<Announcement>,
    /// `(sender, seq)` of every announcement observed since the last restart.
    seen: BTreeSet<(AgentId, u64)>,
    /// Peers that asked for this node's dead edges.
    subscribers: BTreeSet<AgentId>,
    /// Unanswered sync requests, by neighbour.
    syncs: BTreeMap<AgentId, Retry>,
    abandoned: usize,
}

impl Peer {
    pub(crate) fn new(node: Node, backoff: Backoff) -> Self {
        Peer {
            node,
            backoff,
            outbox: Vec::new(),
            seen: BTreeSet::new(),
            subscribers: BTreeSet::new(),
            syncs: BTreeMap::new(),
            abandoned: 0,
        }
    }

    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    pub(crate) fn announcement(&self, seq: u64) -> &Announcement {
        &self.outbox[seq as usize]
    }

    /// Whether a sync request still waits for its answer.
    pub(crate) fn syncing(&self) -> bool {
        !self.syncs.is_empty()
    }

    /// This peer's part of a status report: its view, its proposals and
    /// its announcements neither acknowledged nor abandoned, or abandoned.
    pub(crate) fn status(&self) -> NodeStatus {
        let mut s = NodeStatus::empty(self.node.agent());
        s.live = self.node.live_count() as u32;
        s.proposals = self.node.proposals().len() as u32;
        s.unacked = self
            .outbox
            .iter()
            .filter(|a| !a.acked && !a.abandoned)
            .count() as u32;
        s.abandoned = self.abandoned as u32;
        s.dead = self.node.dead_edges();
        s
    }

    /// Records `edge` as removed by this node and announces the removal to
    /// each of `targets` (none: the node only relearns what it forgot).
    pub(crate) fn announce(
        &mut self,
        edge: EdgeId,
        targets: &[AgentId],
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        self.node.record_own_removal(edge);
        let msg = Message {
            from: self.node.agent(),
            edge,
        };
        for &to in targets {
            self.queue(to, msg, now, out);
        }
    }

    fn queue(&mut self, to: AgentId, msg: Message, now: u64, out: &mut Vec<Outgoing>) {
        let seq = self.outbox.len() as u64;
        self.outbox.push(Announcement {
            to,
            msg,
            retry: self.backoff.first(now),
            acked: false,
            abandoned: false,
        });
        out.push((to, Packet::Data { seq, msg }));
    }

    /// Handles one packet that arrived from `from`.
    pub(crate) fn receive(
        &mut self,
        from: AgentId,
        packet: Packet,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) -> Received {
        match packet {
            Packet::Data { seq, msg } => {
                let fresh = self.seen.insert((from, seq));
                if fresh {
                    self.node.observe(msg);
                    // Relay to standing sync subscribers: they may have
                    // acknowledged this removal before their crash, so
                    // nobody else will resend it.
                    let relay = Message {
                        from: self.node.agent(),
                        edge: msg.edge,
                    };
                    let subscribers: Vec<AgentId> = self.subscribers.iter().copied().collect();
                    for sub in subscribers.into_iter().filter(|s| *s != msg.from) {
                        self.queue(sub, relay, now, out);
                    }
                }
                // Always (re-)acknowledge, even a repeat: the previous
                // acknowledgement may have been lost.
                out.push((from, Packet::Ack { seq }));
                Received::Announcement { seq, fresh }
            }
            Packet::Ack { seq } => match self.outbox.get_mut(seq as usize) {
                Some(a) if a.to == from && !a.acked => {
                    a.acked = true;
                    Received::Acked(seq)
                }
                _ => Received::Handled,
            },
            Packet::SyncReq { from: requester } => {
                self.subscribers.insert(requester);
                let dead = self.node.dead_edges();
                let from = self.node.agent();
                out.push((requester, Packet::SyncResp { from, dead }));
                Received::Handled
            }
            Packet::SyncResp { from, dead } => {
                for &edge in &dead {
                    self.node.observe(Message { from, edge });
                }
                self.syncs.remove(&from);
                let dead = dead.len();
                Received::Synced { from, dead }
            }
            _ => Received::Ignored,
        }
    }

    /// Retransmits outbox entry `seq` if it is due at `now`, or abandons it
    /// once its budget is spent.
    pub(crate) fn retry(&mut self, seq: u64, now: u64) -> Option<Outgoing> {
        let a = &mut self.outbox[seq as usize];
        if a.acked || a.abandoned {
            return None;
        }
        if !self.backoff.step(&mut a.retry, now)? {
            a.abandoned = true;
            self.abandoned += 1;
            return None;
        }
        Some((a.to, Packet::Data { seq, msg: a.msg }))
    }

    /// Resends every sync request due at `now`, in neighbour order, and
    /// gives up on those whose budget is spent.
    pub(crate) fn retry_syncs(&mut self, now: u64, out: &mut Vec<Outgoing>) {
        let (me, backoff) = (self.node.agent(), self.backoff);
        self.syncs
            .retain(|&to, retry| match backoff.step(retry, now) {
                Some(true) => {
                    out.push((to, Packet::SyncReq { from: me }));
                    true
                }
                due => due.is_none(),
            });
    }

    /// Everything due at `now`: announcements in `seq` order, then syncs.
    pub(crate) fn poll(&mut self, now: u64, out: &mut Vec<Outgoing>) {
        for seq in 0..self.outbox.len() as u64 {
            out.extend(self.retry(seq, now));
        }
        self.retry_syncs(now, out);
    }

    /// Comes back from a crash as `initial`, the node as built: the view
    /// and the seen set are lost (the outbox, subscribers and outstanding
    /// syncs survive), and one sync request goes to each neighbour to win
    /// the dead edges back.
    pub(crate) fn restart(
        &mut self,
        initial: Node,
        neighbours: impl IntoIterator<Item = AgentId>,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        self.node = initial;
        self.seen.clear();
        for to in neighbours {
            self.syncs.insert(to, self.backoff.first(now));
            out.push((
                to,
                Packet::SyncReq {
                    from: self.node.agent(),
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::{CommitmentId, Conjunction, ConjunctionId, Edge, EdgeColor};

    fn a(n: u32) -> AgentId {
        AgentId::new(n)
    }

    fn e(n: u32) -> EdgeId {
        EdgeId::new(n)
    }

    /// Agent 0 owns conjunction j0 with black edges e0..e3 to commitments
    /// c0..c3 of agents 1..4, so it sees all four edges.
    fn node() -> Node {
        let edges = (0..4)
            .map(|i| Edge {
                id: e(i),
                commitment: CommitmentId::new(i),
                conjunction: ConjunctionId::new(0),
                color: EdgeColor::Black,
            })
            .collect();
        Node::new(
            a(0),
            Vec::new(),
            Some(Conjunction {
                id: ConjunctionId::new(0),
                agent: a(0),
                trusted: true,
            }),
            edges,
        )
    }

    fn peer(ack: u64, cap: u64, max_attempts: usize) -> Peer {
        Peer::new(
            node(),
            Backoff {
                ack,
                cap,
                max_attempts,
            },
        )
    }

    fn data(seq: u64, from: u32, edge: u32) -> Packet {
        Packet::Data {
            seq,
            msg: Message {
                from: a(from),
                edge: e(edge),
            },
        }
    }

    fn fresh(seq: u64) -> Received {
        Received::Announcement { seq, fresh: true }
    }

    fn repeat(seq: u64) -> Received {
        Received::Announcement { seq, fresh: false }
    }

    fn unacked_abandoned(peer: &Peer) -> (u32, u32) {
        let status = peer.status();
        (status.unacked, status.abandoned)
    }

    fn live(peer: &Peer) -> Vec<EdgeId> {
        peer.node().live_edge_ids().collect()
    }

    #[test]
    fn a_repeated_announcement_is_observed_once_and_acknowledged_every_time() {
        let mut p = peer(2, 32, 16);
        let mut out = Vec::new();
        assert_eq!(p.receive(a(1), data(7, 1, 1), 1, &mut out), fresh(7));
        assert_eq!(live(&p), [e(0), e(2), e(3)]);
        for now in [1, 2, 5] {
            assert_eq!(p.receive(a(1), data(7, 1, 1), now, &mut out), repeat(7));
        }
        assert_eq!(out, vec![(a(1), Packet::Ack { seq: 7 }); 4]);
        assert_eq!(live(&p), [e(0), e(2), e(3)]);
        // The same seq from another sender is another announcement.
        out.clear();
        assert_eq!(p.receive(a(2), data(7, 2, 2), 2, &mut out), fresh(7));
        assert_eq!(out, [(a(2), Packet::Ack { seq: 7 })]);
        assert_eq!(live(&p), [e(0), e(3)]);
    }

    /// Steps `p` on every tick of `span` and returns the ticks at which it
    /// retransmitted.
    fn retry_ticks(p: &mut Peer, span: std::ops::RangeInclusive<u64>) -> Vec<u64> {
        let mut ticks = Vec::new();
        for now in span {
            let mut out = Vec::new();
            p.poll(now, &mut out);
            if !out.is_empty() {
                ticks.push(now);
            }
        }
        ticks
    }

    #[test]
    fn the_retry_schedule_doubles_to_its_cap_then_abandons() {
        // The socket node's schedule under the chaos matrix's config: a
        // 10-tick ack timeout, capped at 8x, 5 attempts.
        let mut p = peer(10, 80, 5);
        let mut out = Vec::new();
        p.announce(e(0), &[a(1)], 0, &mut out);
        assert_eq!(out, [(a(1), data(0, 0, 0))]);
        assert_eq!(retry_ticks(&mut p, 1..=229), [10, 30, 70, 150]);
        assert_eq!(unacked_abandoned(&p), (1, 0));
        assert_eq!(retry_ticks(&mut p, 230..=400), Vec::<u64>::new());
        assert!(p.announcement(0).abandoned);
        assert_eq!(p.announcement(0).retry.attempts, 5);
        assert_eq!(unacked_abandoned(&p), (0, 1));

        // The in-process default: ack 2, cap 32, 16 attempts.
        let config = crate::ResilientConfig::default();
        let mut p = peer(
            config.ack_timeout as u64,
            config.max_backoff as u64,
            config.max_attempts,
        );
        p.announce(e(0), &[a(1)], 0, &mut Vec::new());
        let ticks = retry_ticks(&mut p, 1..=100);
        let gaps: Vec<u64> = std::iter::once(0)
            .chain(ticks.iter().copied())
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert_eq!(gaps, [2, 4, 8, 16, 32, 32]);
    }

    #[test]
    fn only_the_addressee_can_acknowledge_an_announcement() {
        let mut p = peer(2, 32, 16);
        let mut out = Vec::new();
        p.announce(e(0), &[a(1), a(2)], 1, &mut out);
        assert_eq!(out, [(a(1), data(0, 0, 0)), (a(2), data(1, 0, 0))]);
        out.clear();
        assert_eq!(
            p.receive(a(2), Packet::Ack { seq: 0 }, 2, &mut out),
            Received::Handled
        );
        assert!(!p.announcement(0).acked);
        assert_eq!(p.status().unacked, 2);
        assert_eq!(
            p.receive(a(1), Packet::Ack { seq: 0 }, 2, &mut out),
            Received::Acked(0)
        );
        assert_eq!(
            p.receive(a(1), Packet::Ack { seq: 0 }, 2, &mut out),
            Received::Handled
        );
        assert!(out.is_empty());
        assert_eq!(p.status().unacked, 1);
        // Only the unacknowledged entry is retried.
        assert_eq!(p.retry(0, 3), None);
        assert_eq!(p.retry(1, 3), Some((a(2), data(1, 0, 0))));
    }

    #[test]
    fn a_sync_request_is_answered_and_later_removals_are_relayed() {
        let mut p = peer(2, 32, 16);
        let mut out = Vec::new();
        p.receive(a(1), data(0, 1, 1), 1, &mut out);
        out.clear();
        p.receive(a(3), Packet::SyncReq { from: a(3) }, 2, &mut out);
        assert_eq!(
            out,
            [(
                a(3),
                Packet::SyncResp {
                    from: a(0),
                    dead: vec![e(1)],
                }
            )]
        );
        // A removal learned later goes on to the subscriber, as this
        // node's own announcement …
        out.clear();
        p.receive(a(2), data(0, 2, 2), 3, &mut out);
        assert_eq!(out, [(a(3), data(0, 0, 2)), (a(2), Packet::Ack { seq: 0 })]);
        assert_eq!(p.status().unacked, 1);
        // … but never back to the subscriber that announced it.
        out.clear();
        p.receive(a(3), data(5, 3, 3), 4, &mut out);
        assert_eq!(out, [(a(3), Packet::Ack { seq: 5 })]);
    }

    #[test]
    fn a_restart_forgets_the_view_and_keeps_the_log() {
        let mut p = peer(2, 32, 16);
        let mut out = Vec::new();
        p.receive(a(1), data(0, 1, 1), 1, &mut out);
        p.receive(a(3), Packet::SyncReq { from: a(3) }, 1, &mut out);
        p.announce(e(0), &[a(1)], 1, &mut out);
        out.clear();

        p.restart(node(), [a(1), a(2)], 5, &mut out);
        assert_eq!(
            out,
            [
                (a(1), Packet::SyncReq { from: a(0) }),
                (a(2), Packet::SyncReq { from: a(0) }),
            ]
        );
        assert_eq!(live(&p), [e(0), e(1), e(2), e(3)]);
        assert!(p.syncing());
        // The outbox survived: entry 0 is still retried.
        assert_eq!(p.status().unacked, 1);
        assert_eq!(p.retry(0, 5), Some((a(1), data(0, 0, 0))));
        // The seen set did not: the old announcement is observed afresh.
        out.clear();
        assert_eq!(p.receive(a(1), data(0, 1, 1), 5, &mut out), fresh(0));
        // The subscriber survived: that removal is relayed to it.
        assert_eq!(out[0], (a(3), data(1, 0, 1)));

        // Each neighbour's answer closes its own sync.
        out.clear();
        let answer = Packet::SyncResp {
            from: a(1),
            dead: vec![e(2)],
        };
        assert_eq!(
            p.receive(a(1), answer, 6, &mut out),
            Received::Synced {
                from: a(1),
                dead: 1
            }
        );
        assert!(p.syncing());
        assert_eq!(live(&p), [e(0), e(3)]);
        // The other is retried on the backoff, then answered.
        p.retry_syncs(7, &mut out);
        assert_eq!(out, [(a(2), Packet::SyncReq { from: a(0) })]);
        p.receive(
            a(2),
            Packet::SyncResp {
                from: a(2),
                dead: Vec::new(),
            },
            8,
            &mut out,
        );
        assert!(!p.syncing());
    }

    #[test]
    fn control_plane_frames_carry_no_reliability_state() {
        let mut p = peer(2, 32, 16);
        let mut out = Vec::new();
        for packet in [
            Packet::Ping { tick: 3 },
            Packet::Hello { from: a(1) },
            Packet::Halt {
                verdict: "feasible".into(),
            },
        ] {
            assert_eq!(p.receive(a(1), packet, 1, &mut out), Received::Ignored);
        }
        assert!(out.is_empty());
    }
}
