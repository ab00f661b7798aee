//! The distributed engine's round loop: acknowledgement and
//! retransmission, crash recovery, and graceful degradation.
//!
//! [`DistributedReduction::run_resilient`] is the engine's only in-process
//! round loop. It runs over a [`FaultyTransport`] that drops, duplicates,
//! delays and partitions traffic according to a seeded [`FaultPlan`];
//! [`run`](DistributedReduction::run) is the same loop under
//! [`FaultPlan::none`]. The protocol is hardened so that faults can only
//! *delay* the reduction or force an explicit [`DistVerdict::Undecided`]
//! — never a wrong `feasible`/`infeasible`:
//!
//! * every removal announcement is acknowledged; unacknowledged
//!   announcements are retransmitted with bounded exponential backoff and
//!   abandoned after a configurable attempt budget;
//! * a crashed node loses its liveness view (amnesia) but not its queue of
//!   unacknowledged announcements (a write-ahead log); on restart it
//!   re-synchronises by asking each neighbour for the edges the neighbour
//!   knows dead — safe because liveness only ever shrinks, so merging a
//!   neighbour's dead-set can only move the view *toward* the truth;
//! * a node that has answered a sync request keeps relaying removals it
//!   later learns to the requester, closing the race where a removal was
//!   acknowledged by the crashed node before the crash and is still in
//!   flight to the neighbour at sync time;
//! * quiescence is declared only when no node proposes, no undelivered
//!   announcement can still arrive, no sync is outstanding and no crashed
//!   node is due to restart. `feasible` (every edge removed) is always
//!   sound; `infeasible` is claimed only when every surviving view is
//!   provably current, and otherwise the run degrades to
//!   [`DistVerdict::Undecided`] with the reason.
//!
//! Under a faultless plan every announcement arrives in the next round and
//! is acknowledged before its retransmission is due, so the run decides
//! with no recovery traffic: no retransmissions, relays, sync requests,
//! dedup drops or decode failures (asserted in the tests and the chaos
//! harness).

use crate::codec::Packet;
use crate::engine::{DistOutcome, DistRemoval, DistributedReduction};
use crate::faults::FaultPlan;
use crate::journal::{JournalEvent, NoopObserver, RunObserver};
use crate::node::{LocalRemoval, Message};
use crate::transport::{FaultyTransport, TransportStats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use trustseq_core::{obs, CoreError, EdgeId};
use trustseq_model::{AgentId, ModelError};

/// Tuning knobs for the resilient protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilientConfig {
    /// Transmission budget per message (and per sync handshake) before it
    /// is abandoned.
    pub max_attempts: usize,
    /// Rounds to wait for an acknowledgement before the first retransmit.
    pub ack_timeout: usize,
    /// Cap on the exponential backoff interval, in rounds.
    pub max_backoff: usize,
    /// Hard stop: give up (`Undecided`) after this many rounds.
    pub max_rounds: usize,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            max_attempts: 16,
            ack_timeout: 2,
            max_backoff: 32,
            max_rounds: 10_000,
        }
    }
}

/// Why a [`ResilientConfig`] wire string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigParseError {
    /// The offending fragment.
    pub fragment: String,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad resilient config fragment {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for ConfigParseError {}

impl ResilientConfig {
    /// The canonical wire string, e.g.
    /// `attempts=16;ack=2;backoff=32;rounds=10000` — embedded in journal
    /// headers so a recorded run carries its own tuning.
    pub fn to_wire(&self) -> String {
        format!(
            "attempts={};ack={};backoff={};rounds={}",
            self.max_attempts, self.ack_timeout, self.max_backoff, self.max_rounds
        )
    }

    /// Parses a [`ResilientConfig::to_wire`] string.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigParseError`] naming the first malformed fragment.
    pub fn from_wire(s: &str) -> Result<Self, ConfigParseError> {
        let bad = |fragment: &str, expected: &'static str| ConfigParseError {
            fragment: fragment.to_string(),
            expected,
        };
        let mut fields = s.split(';');
        let mut field = |key: &'static str,
                         expected: &'static str|
         -> Result<usize, ConfigParseError> {
            let field = fields.next().ok_or_else(|| bad("", expected))?;
            match field.split_once('=') {
                Some((k, v)) if k == key => v.parse().map_err(|_| bad(v, "a non-negative number")),
                _ => Err(bad(field, expected)),
            }
        };
        let config = ResilientConfig {
            max_attempts: field("attempts", "attempts=<n>")?,
            ack_timeout: field("ack", "ack=<n>")?,
            max_backoff: field("backoff", "backoff=<n>")?,
            max_rounds: field("rounds", "rounds=<n>")?,
        };
        if let Some(extra) = fields.next() {
            return Err(bad(extra, "end of config"));
        }
        Ok(config)
    }
}

/// Why a resilient run could not decide feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UndecidedReason {
    /// Announcements were abandoned after exhausting their retry budget,
    /// leaving some surviving view stale.
    RetriesExhausted,
    /// A participant was down at quiescence and never restarts.
    NodesDown,
    /// The configured round limit was hit before quiescence.
    RoundLimit,
    /// A wall-clock deadline expired before quiescence (socket runs only:
    /// the supervision layer's watchdog fired).
    Deadline,
}

impl fmt::Display for UndecidedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UndecidedReason::RetriesExhausted => "retries exhausted",
            UndecidedReason::NodesDown => "nodes down",
            UndecidedReason::RoundLimit => "round limit",
            UndecidedReason::Deadline => "deadline",
        })
    }
}

/// The resilient engine's three-valued verdict.
///
/// `Feasible` and `Infeasible` carry the same meaning as
/// [`DistOutcome::feasible`] and are only ever emitted when provably
/// correct; `Undecided` is the graceful-degradation outcome under faults
/// the retry budget could not absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistVerdict {
    /// Every edge was removed: the exchange is feasible.
    Feasible,
    /// The reduction reached a complete fixpoint with edges remaining.
    Infeasible,
    /// The run cannot vouch for either answer.
    Undecided(UndecidedReason),
}

impl DistVerdict {
    /// `Some(feasible)` when the verdict is decided, `None` when not.
    pub fn decided(&self) -> Option<bool> {
        match self {
            DistVerdict::Feasible => Some(true),
            DistVerdict::Infeasible => Some(false),
            DistVerdict::Undecided(_) => None,
        }
    }

    /// The compact wire token carried by `halt;verdict=…` frames
    /// (lower-case, `:`-separated — matches the codec's token charset).
    pub fn to_token(&self) -> &'static str {
        match self {
            DistVerdict::Feasible => "feasible",
            DistVerdict::Infeasible => "infeasible",
            DistVerdict::Undecided(UndecidedReason::RetriesExhausted) => "undecided:retries",
            DistVerdict::Undecided(UndecidedReason::NodesDown) => "undecided:down",
            DistVerdict::Undecided(UndecidedReason::RoundLimit) => "undecided:rounds",
            DistVerdict::Undecided(UndecidedReason::Deadline) => "undecided:deadline",
        }
    }

    /// Inverse of [`to_token`](Self::to_token); `None` on unknown tokens.
    pub fn parse_token(token: &str) -> Option<Self> {
        Some(match token {
            "feasible" => DistVerdict::Feasible,
            "infeasible" => DistVerdict::Infeasible,
            "undecided:retries" => DistVerdict::Undecided(UndecidedReason::RetriesExhausted),
            "undecided:down" => DistVerdict::Undecided(UndecidedReason::NodesDown),
            "undecided:rounds" => DistVerdict::Undecided(UndecidedReason::RoundLimit),
            "undecided:deadline" => DistVerdict::Undecided(UndecidedReason::Deadline),
            _ => return None,
        })
    }
}

impl fmt::Display for DistVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistVerdict::Feasible => f.write_str("feasible"),
            DistVerdict::Infeasible => f.write_str("infeasible"),
            DistVerdict::Undecided(reason) => write!(f, "undecided ({reason})"),
        }
    }
}

/// The outcome of a resilient run, with full protocol accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilientOutcome {
    /// The (possibly undecided) feasibility verdict.
    pub verdict: DistVerdict,
    /// Rounds until quiescence or give-up.
    pub rounds: usize,
    /// First-transmission removal announcements — comparable to
    /// [`DistOutcome::messages`].
    pub messages: usize,
    /// Retransmissions of unacknowledged announcements.
    pub retransmissions: usize,
    /// Removals relayed to sync requesters after their handshake.
    pub relays: usize,
    /// Acknowledgements sent.
    pub acks: usize,
    /// Sync requests sent (including retries).
    pub sync_requests: usize,
    /// Sync responses sent.
    pub sync_responses: usize,
    /// Duplicate announcements recognised by sequence number and dropped.
    pub dedup_drops: usize,
    /// Frames that arrived mangled and were rejected by the codec (the
    /// corruption fault class; absorbed like drops, never a panic).
    pub decode_failures: usize,
    /// Every removal, in decision order.
    pub removals: Vec<DistRemoval>,
    /// Edges never removed.
    pub remaining: Vec<EdgeId>,
    /// What the faulty network did to the traffic.
    pub transport: TransportStats,
}

impl ResilientOutcome {
    /// Converts a *decided* outcome into the plain [`DistOutcome`] shape
    /// that [`run`](DistributedReduction::run) returns; `None` if
    /// undecided.
    pub fn as_dist_outcome(&self) -> Option<DistOutcome> {
        self.verdict.decided().map(|feasible| DistOutcome {
            feasible,
            rounds: self.rounds,
            messages: self.messages,
            removals: self.removals.clone(),
            remaining: self.remaining.clone(),
        })
    }
}

impl fmt::Display for ResilientOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} rounds, {} messages (+{} retries, {} relays, {} acks, {} dup drops, {} bad frames, {} removals, {} edges remain)",
            self.verdict,
            self.rounds,
            self.messages,
            self.retransmissions,
            self.relays,
            self.acks,
            self.dedup_drops,
            self.decode_failures,
            self.removals.len(),
            self.remaining.len()
        )
    }
}

/// Encodes `packet` and hands it to the faulty transport, applying the
/// plan's corruption stream first: the transmission id the transport will
/// assign to this send is its current `sent` count, so the corruption
/// decision is keyed exactly like the drop/dup/delay decisions. A
/// corrupted frame is truncated to half its length — the codec rejects it
/// at the receiver with a typed error (or, for the rare truncation that is
/// itself canonical, decodes a packet whose effects the verdict logic
/// absorbs soundly).
fn send_frame(
    transport: &mut FaultyTransport<String>,
    plan: &FaultPlan,
    round: usize,
    from: AgentId,
    to: AgentId,
    packet: &Packet,
) {
    let tid = transport.stats().sent as u64;
    let mut frame = packet.to_wire();
    if plan.corrupts(tid) {
        frame.truncate(frame.len() / 2);
    }
    transport.send(round, from, to, frame);
}

/// Sender-side state of one reliable announcement. Survives its sender's
/// crash (write-ahead log): retransmission is suspended while the sender
/// is down and resumes after restart.
#[derive(Debug)]
struct Pending {
    from: AgentId,
    to: AgentId,
    msg: Message,
    attempts: usize,
    next_retry: usize,
    acked: bool,
    /// Omniscient-simulator flag: the addressee has processed the payload
    /// (set even when the acknowledgement is lost). Drives termination.
    delivered: bool,
    abandoned: bool,
}

impl DistributedReduction {
    /// Runs the protocol over a faulty network described by `plan`,
    /// hardened per `config`.
    ///
    /// # Errors
    ///
    /// Rejects a plan that names an agent with no node in this reduction
    /// (`CoreError::Model(ModelError::UnknownAgent)`).
    pub fn run_resilient(
        self,
        plan: &FaultPlan,
        config: &ResilientConfig,
    ) -> Result<ResilientOutcome, CoreError> {
        self.run_resilient_observed(plan, config, &mut NoopObserver)
    }

    /// [`run_resilient`](DistributedReduction::run_resilient) with an
    /// observer receiving the run's decision timeline as
    /// [`JournalEvent`]s, in deterministic engine order — the engine does
    /// not emit the `run_start` header (it does not know the spec source);
    /// callers recording a replayable journal prepend one via
    /// [`JournalEvent::run_start`].
    ///
    /// # Errors
    ///
    /// Rejects a plan that names an agent with no node in this reduction
    /// (`CoreError::Model(ModelError::UnknownAgent)`).
    pub fn run_resilient_observed(
        mut self,
        plan: &FaultPlan,
        config: &ResilientConfig,
        observer: &mut dyn RunObserver,
    ) -> Result<ResilientOutcome, CoreError> {
        for agent in plan.named_agents() {
            if !self.nodes.contains_key(&agent) {
                return Err(CoreError::Model(ModelError::UnknownAgent(agent)));
            }
        }

        // Neighbours = participants sharing a visible edge; they are the
        // parties a restarted node can recover its liveness view from.
        let mut seers: BTreeMap<EdgeId, Vec<AgentId>> = BTreeMap::new();
        for (agent, node) in &self.nodes {
            for edge in node.visible_edge_ids() {
                seers.entry(edge).or_default().push(*agent);
            }
        }
        let mut neighbours: BTreeMap<AgentId, BTreeSet<AgentId>> = BTreeMap::new();
        for agents in seers.values() {
            for &a in agents {
                for &b in agents {
                    if a != b {
                        neighbours.entry(a).or_default().insert(b);
                    }
                }
            }
        }

        let initial_nodes = self.nodes.clone();
        // Traffic crosses the network as wire frames, not structs: the
        // corruption fault class needs real bytes to mangle, and the codec
        // turns a mangled frame into a typed decode failure at delivery.
        let mut transport: FaultyTransport<String> = FaultyTransport::new(plan.clone());
        // Rounds are the engine's virtual time; when a recorder is
        // installed the whole run is one virtual-clock span.
        let clock = obs::VirtualClock::new();
        let run_span = obs::enabled().then(|| obs::Span::virtual_at(&clock));
        let mut pendings: Vec<Pending> = Vec::new();
        let mut seen: BTreeMap<AgentId, BTreeSet<u64>> = BTreeMap::new();
        let mut subscribers: BTreeMap<AgentId, BTreeSet<AgentId>> = BTreeMap::new();
        // (requester, neighbour) -> (attempts, next retry round)
        let mut syncs: BTreeMap<(AgentId, AgentId), (usize, usize)> = BTreeMap::new();

        let mut removed: BTreeSet<EdgeId> = BTreeSet::new();
        let mut removals: Vec<DistRemoval> = Vec::new();
        let mut messages = 0usize;
        let mut retransmissions = 0usize;
        let mut relays = 0usize;
        let mut acks = 0usize;
        let mut sync_requests = 0usize;
        let mut sync_responses = 0usize;
        let mut dedup_drops = 0usize;
        let mut decode_failures = 0usize;
        let mut rounds = 0usize;

        let ack_timeout = config.ack_timeout.max(1);
        let max_attempts = config.max_attempts.max(1);
        let backoff = |attempts: usize| -> usize {
            let exp = attempts.saturating_sub(1).min(20) as u32;
            ack_timeout
                .saturating_mul(1usize << exp)
                .min(config.max_backoff.max(1))
        };
        // A sender that is down and never restarts will never retransmit;
        // its undelivered announcements are as good as abandoned.
        let sender_gone = |from: AgentId, round: usize| {
            plan.is_down(from, round) && plan.restart_round(from).is_none()
        };

        let limit_reason = loop {
            rounds += 1;
            if rounds > config.max_rounds {
                rounds -= 1;
                break Some(UndecidedReason::RoundLimit);
            }

            // 1. Restarts: amnesia reset, then a sync handshake with every
            //    neighbour to win the dead-edge view back.
            let restarting: Vec<AgentId> = self
                .nodes
                .keys()
                .copied()
                .filter(|a| plan.restart_round(*a) == Some(rounds))
                .collect();
            for agent in restarting {
                if let Some(init) = initial_nodes.get(&agent) {
                    self.nodes.insert(agent, init.clone());
                }
                seen.remove(&agent);
                observer.record(JournalEvent::Restart {
                    round: rounds,
                    node: agent,
                });
                for nb in neighbours.get(&agent).into_iter().flatten() {
                    send_frame(
                        &mut transport,
                        plan,
                        rounds,
                        agent,
                        *nb,
                        &Packet::SyncReq { from: agent },
                    );
                    sync_requests += 1;
                    syncs.insert((agent, *nb), (1, rounds + ack_timeout));
                    observer.record(JournalEvent::SyncReq {
                        round: rounds,
                        from: agent,
                        to: *nb,
                    });
                }
            }

            // Partitions heal at their `until_round` (the first round the
            // link carries traffic again) — worth a timeline entry because
            // healings gate when sync retries can finally land.
            for p in plan.partitions() {
                if p.until_round == rounds && p.from_round < p.until_round {
                    observer.record(JournalEvent::PartitionHeal {
                        round: rounds,
                        a: p.a,
                        b: p.b,
                    });
                }
            }

            // 2. Deliveries, in arrival order. The transport already loses
            //    packets addressed to down nodes; a frame the corruption
            //    stream mangled dies here as a typed decode failure and is
            //    absorbed by the retransmission machinery like a drop.
            for (to, frame) in transport.deliver(rounds) {
                let packet = match Packet::from_wire(&frame) {
                    Ok(packet) => packet,
                    Err(_) => {
                        decode_failures += 1;
                        observer.record(JournalEvent::DecodeFailure {
                            round: rounds,
                            node: to,
                        });
                        continue;
                    }
                };
                match packet {
                    Packet::Data { seq, msg } => {
                        let first_sight = seen.entry(to).or_default().insert(seq);
                        if !first_sight {
                            dedup_drops += 1;
                            observer.record(JournalEvent::DedupDrop {
                                round: rounds,
                                node: to,
                                seq,
                            });
                        }
                        if first_sight {
                            if let Some(node) = self.nodes.get_mut(&to) {
                                node.observe(msg);
                            }
                            // Relay to standing sync subscribers: they may
                            // have acknowledged this removal before their
                            // crash, so nobody else will resend it.
                            let subs: Vec<AgentId> = subscribers
                                .get(&to)
                                .into_iter()
                                .flatten()
                                .copied()
                                .filter(|s| *s != msg.from)
                                .collect();
                            for sub in subs {
                                let relay = Message {
                                    from: to,
                                    edge: msg.edge,
                                };
                                let seq2 = pendings.len() as u64;
                                pendings.push(Pending {
                                    from: to,
                                    to: sub,
                                    msg: relay,
                                    attempts: 1,
                                    next_retry: rounds + ack_timeout,
                                    acked: false,
                                    delivered: false,
                                    abandoned: false,
                                });
                                send_frame(
                                    &mut transport,
                                    plan,
                                    rounds,
                                    to,
                                    sub,
                                    &Packet::Data {
                                        seq: seq2,
                                        msg: relay,
                                    },
                                );
                                relays += 1;
                            }
                        }
                        // Always (re-)acknowledge, even duplicates: the
                        // previous ack may have been lost.
                        if let Some(p) = pendings.get_mut(seq as usize) {
                            p.delivered = true;
                            let ack_to = p.from;
                            send_frame(
                                &mut transport,
                                plan,
                                rounds,
                                to,
                                ack_to,
                                &Packet::Ack { seq },
                            );
                            acks += 1;
                        }
                    }
                    Packet::Ack { seq } => {
                        if let Some(p) = pendings.get_mut(seq as usize) {
                            p.acked = true;
                            p.delivered = true;
                        }
                    }
                    Packet::SyncReq { from } => {
                        subscribers.entry(to).or_default().insert(from);
                        let dead = self
                            .nodes
                            .get(&to)
                            .map(|n| n.dead_edges())
                            .unwrap_or_default();
                        send_frame(
                            &mut transport,
                            plan,
                            rounds,
                            to,
                            from,
                            &Packet::SyncResp { from: to, dead },
                        );
                        sync_responses += 1;
                    }
                    Packet::SyncResp { from, dead } => {
                        observer.record(JournalEvent::SyncResp {
                            round: rounds,
                            from,
                            to,
                            dead: dead.len(),
                        });
                        if let Some(node) = self.nodes.get_mut(&to) {
                            for edge in dead {
                                node.observe(Message { from, edge });
                            }
                        }
                        syncs.remove(&(to, from));
                    }
                    // Socket control-plane frames (hello/ping/status/…) never
                    // travel over the in-process transport; treat a stray one
                    // like any other mangled frame — absorb, never misdecide.
                    _ => decode_failures += 1,
                }
            }

            // 3. Retransmit overdue unacknowledged announcements (skipping
            //    down senders — their log resumes on restart).
            for (i, p) in pendings.iter_mut().enumerate() {
                if p.acked || p.abandoned || plan.is_down(p.from, rounds) || rounds < p.next_retry {
                    continue;
                }
                if p.attempts >= max_attempts {
                    p.abandoned = true;
                } else {
                    send_frame(
                        &mut transport,
                        plan,
                        rounds,
                        p.from,
                        p.to,
                        &Packet::Data {
                            seq: i as u64,
                            msg: p.msg,
                        },
                    );
                    p.attempts += 1;
                    p.next_retry = rounds + backoff(p.attempts);
                    retransmissions += 1;
                    observer.record(JournalEvent::Retransmit {
                        round: rounds,
                        from: p.from,
                        to: p.to,
                        edge: p.msg.edge,
                        attempt: p.attempts,
                    });
                }
            }

            // 4. Retry unanswered sync requests on the same backoff.
            let mut abandoned_syncs = Vec::new();
            for ((requester, nb), (attempts, next_retry)) in syncs.iter_mut() {
                if plan.is_down(*requester, rounds) || rounds < *next_retry {
                    continue;
                }
                if *attempts >= max_attempts {
                    abandoned_syncs.push((*requester, *nb));
                } else {
                    send_frame(
                        &mut transport,
                        plan,
                        rounds,
                        *requester,
                        *nb,
                        &Packet::SyncReq { from: *requester },
                    );
                    *attempts += 1;
                    *next_retry = rounds + backoff(*attempts);
                    sync_requests += 1;
                    observer.record(JournalEvent::SyncReq {
                        round: rounds,
                        from: *requester,
                        to: *nb,
                    });
                }
            }
            for key in abandoned_syncs {
                syncs.remove(&key);
            }

            // 5. Proposals, in deterministic agent order, from alive nodes.
            //    A proposal whose edge is already globally removed means
            //    the proposer's view is stale; if no announcement is still
            //    on its way to the proposer (e.g. an amnesiac restartee
            //    re-proposing its *own* pre-crash decision, which nobody
            //    announces back to it), let it relearn the removal locally.
            let mut round_removals: Vec<(AgentId, LocalRemoval)> = Vec::new();
            let mut relearn: Vec<(AgentId, EdgeId)> = Vec::new();
            for (agent, node) in &self.nodes {
                if plan.is_down(*agent, rounds) {
                    continue;
                }
                for proposal in node.proposals() {
                    if removed.contains(&proposal.edge) {
                        relearn.push((*agent, proposal.edge));
                    } else if !round_removals.iter().any(|(_, r)| r.edge == proposal.edge) {
                        round_removals.push((*agent, proposal));
                    }
                }
            }
            for (agent, edge) in relearn {
                let incoming = pendings.iter().any(|p| {
                    p.to == agent
                        && p.msg.edge == edge
                        && !p.delivered
                        && !p.abandoned
                        && !sender_gone(p.from, rounds)
                });
                if !incoming {
                    if let Some(node) = self.nodes.get_mut(&agent) {
                        node.record_own_removal(edge);
                    }
                }
            }

            if round_removals.is_empty() {
                let info_coming = pendings
                    .iter()
                    .any(|p| !p.delivered && !p.abandoned && !sender_gone(p.from, rounds));
                let awaiting_restart = self.nodes.keys().any(|a| {
                    plan.is_down(*a, rounds) && plan.restart_round(*a).is_some_and(|r| r > rounds)
                });
                if !info_coming && syncs.is_empty() && !awaiting_restart {
                    rounds -= 1; // the final empty round is bookkeeping only
                    break None;
                }
                continue; // idle round: wait for deliveries / retries / restarts
            }

            for (decider, removal) in round_removals {
                removed.insert(removal.edge);
                removals.push(DistRemoval {
                    decider,
                    edge: removal.edge,
                    rule: removal.rule,
                    round: rounds,
                });
                observer.record(JournalEvent::Removal {
                    round: rounds,
                    decider,
                    edge: removal.edge,
                    rule: removal.rule,
                });
                if let Some(node) = self.nodes.get_mut(&decider) {
                    node.record_own_removal(removal.edge);
                }
                for target in self.announcement_targets(removal.edge, decider) {
                    let msg = Message {
                        from: decider,
                        edge: removal.edge,
                    };
                    let seq = pendings.len() as u64;
                    pendings.push(Pending {
                        from: decider,
                        to: target,
                        msg,
                        attempts: 1,
                        next_retry: rounds + ack_timeout,
                        acked: false,
                        delivered: false,
                        abandoned: false,
                    });
                    send_frame(
                        &mut transport,
                        plan,
                        rounds,
                        decider,
                        target,
                        &Packet::Data { seq, msg },
                    );
                    messages += 1;
                }
            }
        };

        let remaining: Vec<EdgeId> = self
            .graph
            .edges()
            .iter()
            .map(|e| e.id)
            .filter(|id| !removed.contains(id))
            .collect();
        // The round quiescence was observed in (rounds was decremented for
        // the bookkeeping round on the quiescent path).
        let probe = rounds + 1;
        let verdict = if remaining.is_empty() {
            // Every removal is individually sound, so a complete removal
            // is a sound `feasible` no matter what else went wrong.
            DistVerdict::Feasible
        } else if let Some(reason) = limit_reason {
            DistVerdict::Undecided(reason)
        } else if self.nodes.keys().any(|a| plan.is_down(*a, probe)) {
            // A permanently-down participant may still have had moves to
            // make; claiming `infeasible` would be a guess.
            DistVerdict::Undecided(UndecidedReason::NodesDown)
        } else if self
            .nodes
            .values()
            .any(|node| node.live_edge_ids().any(|e| removed.contains(&e)))
        {
            // Some surviving view missed an (abandoned) announcement, so
            // the fixpoint may be incomplete.
            DistVerdict::Undecided(UndecidedReason::RetriesExhausted)
        } else {
            DistVerdict::Infeasible
        };

        // Per-node epilogue: each surviving view's final state, in agent
        // order — the journal's per-node verdict lines.
        for (agent, node) in &self.nodes {
            let live = node.live_edge_ids().count();
            observer.record(JournalEvent::NodeView {
                node: *agent,
                live,
                decided_feasible: live == 0,
            });
        }
        observer.record(JournalEvent::Verdict {
            verdict: verdict.to_string(),
            rounds,
            messages,
            retransmissions,
            dedup_drops,
            decode_failures,
        });

        if let Some(span) = run_span {
            clock.set(rounds as u64);
            span.finish("dist.rounds", Some(&clock));
            obs::with(|r| {
                r.counter("dist.runs", 1);
                r.counter("dist.messages", messages as u64);
                r.counter("dist.retransmissions", retransmissions as u64);
                r.counter("dist.relays", relays as u64);
                r.counter("dist.dedup_drops", dedup_drops as u64);
                r.counter("dist.decode_failures", decode_failures as u64);
                r.counter(
                    match verdict {
                        DistVerdict::Feasible => "dist.verdict.feasible",
                        DistVerdict::Infeasible => "dist.verdict.infeasible",
                        DistVerdict::Undecided(_) => "dist.verdict.undecided",
                    },
                    1,
                );
            });
        }

        Ok(ResilientOutcome {
            verdict,
            rounds,
            messages,
            retransmissions,
            relays,
            acks,
            sync_requests,
            sync_responses,
            dedup_drops,
            decode_failures,
            removals,
            remaining,
            transport: transport.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Crash, Partition};
    use trustseq_core::{analyze, fixtures};

    fn fixture_specs() -> Vec<(&'static str, trustseq_model::ExchangeSpec)> {
        vec![
            ("example1", fixtures::example1().0),
            ("example2", fixtures::example2().0),
            ("poor_broker", fixtures::poor_broker().0),
            ("figure7", fixtures::figure7().0),
        ]
    }

    #[test]
    fn faultless_run_matches_the_naive_reducer_without_recovery_traffic() {
        for (name, spec) in fixture_specs() {
            let graph = trustseq_core::SequencingGraph::from_spec(&spec).unwrap();
            let naive = trustseq_core::Reducer::new(graph).run_naive();
            let naive_set: BTreeSet<EdgeId> = naive.trace.steps().iter().map(|s| s.edge).collect();
            let out = DistributedReduction::new(&spec)
                .unwrap()
                .run_resilient(&FaultPlan::none(), &ResilientConfig::default())
                .unwrap();
            assert_eq!(out.verdict.decided(), Some(naive.feasible), "{name}");
            let set: BTreeSet<EdgeId> = out.removals.iter().map(|r| r.edge).collect();
            assert_eq!(set, naive_set, "{name}");
            assert_eq!(out.retransmissions, 0, "{name}");
            assert_eq!(out.relays, 0, "{name}");
            assert_eq!(out.sync_requests, 0, "{name}");
            assert_eq!(out.dedup_drops, 0, "{name}");
            assert_eq!(out.decode_failures, 0, "{name}");
        }
    }

    /// The corruption satellite: frames mangled in flight are typed decode
    /// failures the retry machinery absorbs — never a panic, and any
    /// decided verdict still matches the centralised reducer.
    #[test]
    fn corrupted_network_never_panics_or_decides_wrongly() {
        let mut saw_decode_failure = false;
        for (name, spec) in fixture_specs() {
            let central = analyze(&spec).unwrap().feasible;
            for seed in 0..20 {
                let plan = FaultPlan::seeded(seed)
                    .with_corrupt_per_mille(250)
                    .with_drop_per_mille(100)
                    .with_max_extra_delay(2);
                let out = DistributedReduction::new(&spec)
                    .unwrap()
                    .run_resilient(&plan, &ResilientConfig::default())
                    .unwrap();
                saw_decode_failure |= out.decode_failures > 0;
                if let Some(decided) = out.verdict.decided() {
                    assert_eq!(decided, central, "{name} seed {seed}: {out}");
                }
            }
        }
        assert!(
            saw_decode_failure,
            "80 corrupting runs without a single decode failure"
        );
    }

    /// A duplicated announcement is recognised by its sequence number and
    /// shows up in the dedup accounting.
    #[test]
    fn duplicates_are_deduplicated_and_counted() {
        let (spec, _) = fixtures::figure7();
        let mut saw_dedup = false;
        for seed in 0..10 {
            let plan = FaultPlan::seeded(seed).with_dup_per_mille(500);
            let out = DistributedReduction::new(&spec)
                .unwrap()
                .run_resilient(&plan, &ResilientConfig::default())
                .unwrap();
            saw_dedup |= out.dedup_drops > 0;
        }
        assert!(saw_dedup, "10 duplicating runs without a dedup drop");
    }

    /// The journal is a pure function of (spec, plan, config): recording
    /// the same run twice yields byte-identical JSONL, and its verdict
    /// line carries the outcome's accounting.
    #[test]
    fn journal_is_deterministic_and_matches_the_outcome() {
        use crate::journal::Journal;
        for (name, spec) in fixture_specs() {
            let plan = FaultPlan::seeded(5)
                .with_drop_per_mille(200)
                .with_dup_per_mille(100)
                .with_corrupt_per_mille(100)
                .with_max_extra_delay(2);
            let config = ResilientConfig::default();
            let mut first = Journal::new();
            let out1 = DistributedReduction::new(&spec)
                .unwrap()
                .run_resilient_observed(&plan, &config, &mut first)
                .unwrap();
            let mut second = Journal::new();
            let out2 = DistributedReduction::new(&spec)
                .unwrap()
                .run_resilient_observed(&plan, &config, &mut second)
                .unwrap();
            assert_eq!(first, second, "{name}: journal must be replayable");
            assert_eq!(out1, out2, "{name}");
            match first.events().unwrap().pop().unwrap() {
                JournalEvent::Verdict {
                    verdict,
                    rounds,
                    retransmissions,
                    dedup_drops,
                    decode_failures,
                    ..
                } => {
                    assert_eq!(verdict, out1.verdict.to_string(), "{name}");
                    assert_eq!(rounds, out1.rounds, "{name}");
                    assert_eq!(retransmissions, out1.retransmissions, "{name}");
                    assert_eq!(dedup_drops, out1.dedup_drops, "{name}");
                    assert_eq!(decode_failures, out1.decode_failures, "{name}");
                }
                other => panic!("{name}: last journal event {other:?}"),
            }
            // The removal timeline mirrors the outcome's removal list.
            let journal_removals = first
                .events()
                .unwrap()
                .into_iter()
                .filter(|e| matches!(e, JournalEvent::Removal { .. }))
                .count();
            assert_eq!(journal_removals, out1.removals.len(), "{name}");
        }
    }

    #[test]
    fn config_wire_string_round_trips() {
        let config = ResilientConfig::default();
        let wire = config.to_wire();
        assert_eq!(wire, "attempts=16;ack=2;backoff=32;rounds=10000");
        assert_eq!(ResilientConfig::from_wire(&wire).unwrap(), config);
        for bad in [
            "",
            "attempts=16",
            "attempts=x;ack=2;backoff=32;rounds=1",
            "ack=2;attempts=16;backoff=32;rounds=1",
            "attempts=16;ack=2;backoff=32;rounds=1;extra=1",
        ] {
            assert!(ResilientConfig::from_wire(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn verdict_tokens_round_trip() {
        let verdicts = [
            DistVerdict::Feasible,
            DistVerdict::Infeasible,
            DistVerdict::Undecided(UndecidedReason::RetriesExhausted),
            DistVerdict::Undecided(UndecidedReason::NodesDown),
            DistVerdict::Undecided(UndecidedReason::RoundLimit),
            DistVerdict::Undecided(UndecidedReason::Deadline),
        ];
        for v in verdicts {
            assert_eq!(DistVerdict::parse_token(v.to_token()), Some(v));
            // Tokens must survive the halt-frame codec round trip.
            let frame = crate::codec::Packet::Halt {
                verdict: v.to_token().to_string(),
            };
            assert_eq!(
                crate::codec::Packet::from_wire(&frame.to_wire()).unwrap(),
                frame
            );
        }
        assert_eq!(DistVerdict::parse_token("maybe"), None);
        assert_eq!(DistVerdict::parse_token(""), None);
    }

    #[test]
    fn lossy_network_never_changes_a_decided_verdict() {
        for (name, spec) in fixture_specs() {
            let central = analyze(&spec).unwrap().feasible;
            let mut retried = false;
            for seed in 0..30 {
                let plan = FaultPlan::seeded(seed)
                    .with_drop_per_mille(300)
                    .with_dup_per_mille(100)
                    .with_max_extra_delay(2);
                let out = DistributedReduction::new(&spec)
                    .unwrap()
                    .run_resilient(&plan, &ResilientConfig::default())
                    .unwrap();
                retried |= out.retransmissions > 0;
                // Eventual delivery (drops are per-transmission, retries
                // bounded but ample): the verdict should decide and match.
                assert_eq!(
                    out.verdict.decided(),
                    Some(central),
                    "{name} seed {seed}: {out}"
                );
            }
            assert!(retried, "{name}: 30 lossy seeds without a single retry");
        }
    }

    #[test]
    fn crash_and_restart_recovers_via_neighbour_sync() {
        for (name, spec) in fixture_specs() {
            let central = analyze(&spec).unwrap().feasible;
            let reduction = DistributedReduction::new(&spec).unwrap();
            let agents: Vec<AgentId> = reduction.nodes.keys().copied().collect();
            drop(reduction);
            for (i, agent) in agents.iter().enumerate() {
                let plan = FaultPlan::seeded(i as u64).with_crash(
                    *agent,
                    Crash {
                        at_round: 2,
                        restart_at: Some(5),
                    },
                );
                let out = DistributedReduction::new(&spec)
                    .unwrap()
                    .run_resilient(&plan, &ResilientConfig::default())
                    .unwrap();
                assert_eq!(
                    out.verdict.decided(),
                    Some(central),
                    "{name} crash {agent}: {out}"
                );
                assert!(out.sync_requests > 0, "{name} crash {agent}");
            }
        }
    }

    #[test]
    fn all_nodes_permanently_down_degrades_to_nodes_down() {
        let (spec, _) = fixtures::example1();
        let reduction = DistributedReduction::new(&spec).unwrap();
        let agents: Vec<AgentId> = reduction.nodes.keys().copied().collect();
        let mut plan = FaultPlan::seeded(0);
        for agent in agents {
            plan = plan.with_crash(
                agent,
                Crash {
                    at_round: 1,
                    restart_at: None,
                },
            );
        }
        let out = reduction
            .run_resilient(&plan, &ResilientConfig::default())
            .unwrap();
        assert_eq!(
            out.verdict,
            DistVerdict::Undecided(UndecidedReason::NodesDown),
            "{out}"
        );
        assert!(out.removals.is_empty());
    }

    #[test]
    fn permanent_partition_never_yields_a_wrong_verdict() {
        for (name, spec) in fixture_specs() {
            let central = analyze(&spec).unwrap().feasible;
            let reduction = DistributedReduction::new(&spec).unwrap();
            let agents: Vec<AgentId> = reduction.nodes.keys().copied().collect();
            drop(reduction);
            for pair in agents.windows(2) {
                let plan = FaultPlan::seeded(7).with_partition(Partition {
                    a: pair[0],
                    b: pair[1],
                    from_round: 1,
                    until_round: usize::MAX,
                });
                let out = DistributedReduction::new(&spec)
                    .unwrap()
                    .run_resilient(&plan, &ResilientConfig::default())
                    .unwrap();
                if let Some(decided) = out.verdict.decided() {
                    assert_eq!(
                        decided, central,
                        "{name} cut {}~{}: {out}",
                        pair[0], pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn round_limit_degrades_gracefully() {
        let (spec, _) = fixtures::example1();
        let config = ResilientConfig {
            max_rounds: 1,
            ..ResilientConfig::default()
        };
        let out = DistributedReduction::new(&spec)
            .unwrap()
            .run_resilient(&FaultPlan::none(), &config)
            .unwrap();
        assert_eq!(
            out.verdict,
            DistVerdict::Undecided(UndecidedReason::RoundLimit),
            "{out}"
        );
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn plan_naming_an_unknown_agent_is_rejected() {
        let (spec, _) = fixtures::example1();
        let plan = FaultPlan::none().with_crash(
            AgentId::new(999),
            Crash {
                at_round: 1,
                restart_at: None,
            },
        );
        let err = DistributedReduction::new(&spec)
            .unwrap()
            .run_resilient(&plan, &ResilientConfig::default())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Model(ModelError::UnknownAgent(a)) if a == AgentId::new(999)),
            "{err:?}"
        );
    }

    #[test]
    fn verdict_display_names_the_reason() {
        assert_eq!(DistVerdict::Feasible.to_string(), "feasible");
        assert_eq!(
            DistVerdict::Undecided(UndecidedReason::RetriesExhausted).to_string(),
            "undecided (retries exhausted)"
        );
    }
}
