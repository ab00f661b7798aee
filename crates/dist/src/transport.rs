//! The in-process lossy network the resilient engine runs over.
//!
//! [`FaultyTransport`] consults a [`FaultPlan`] to drop, duplicate, delay
//! and partition traffic, and loses what arrives at a down node. Under
//! [`FaultPlan::none`] it is a reliable queue that delivers every message
//! in the round after it was sent.

use crate::faults::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use trustseq_model::AgentId;

/// Counters of what a [`FaultyTransport`] did to the traffic.
///
/// This is a plain-data *snapshot*; the live counters inside the transport
/// are independent relaxed atomics (the same treatment `CacheStats` got),
/// so a snapshot taken while other threads hold references is per-field
/// torn-free and never blocks a sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// `send` calls accepted (before fault decisions).
    pub sent: usize,
    /// Transmissions dropped in flight by the plan.
    pub dropped: usize,
    /// Extra copies injected by duplication.
    pub duplicated: usize,
    /// Transmissions lost to a cut link at send time.
    pub cut: usize,
    /// Transmissions lost because the addressee was down on arrival.
    pub lost_to_down: usize,
}

/// Live counters behind [`TransportStats`]: one relaxed atomic per field.
#[derive(Debug, Default)]
struct AtomicTransportStats {
    sent: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    cut: AtomicU64,
    lost_to_down: AtomicU64,
}

impl AtomicTransportStats {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            sent: self.sent.load(Ordering::Relaxed) as usize,
            dropped: self.dropped.load(Ordering::Relaxed) as usize,
            duplicated: self.duplicated.load(Ordering::Relaxed) as usize,
            cut: self.cut.load(Ordering::Relaxed) as usize,
            lost_to_down: self.lost_to_down.load(Ordering::Relaxed) as usize,
        }
    }
}

/// A lossy transport driven by a [`FaultPlan`].
///
/// Each `send` call is one *transmission* with its own plan-decided fate:
/// it may be swallowed by a cut link (checked at send time), dropped in
/// flight, delayed extra rounds, or duplicated (the copy gets an
/// independent delay, so copies reorder against each other). Messages
/// arriving at a node that is down that round are lost — crash recovery
/// is the engine's job, not the network's.
#[derive(Debug)]
pub struct FaultyTransport<M> {
    plan: FaultPlan,
    queue: Vec<(usize, AgentId, AgentId, M)>,
    transmissions: u64,
    stats: AtomicTransportStats,
}

impl<M: Clone> FaultyTransport<M> {
    /// A transport injecting the faults `plan` schedules.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyTransport {
            plan,
            queue: Vec::new(),
            transmissions: 0,
            stats: AtomicTransportStats::default(),
        }
    }

    /// The driving plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A torn-free snapshot of what the transport has done so far.
    pub fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    /// Accepts `message` from `from` to `to`, sent during `round` (the
    /// engine's 1-based round counter). A message sent in round *r* is
    /// never delivered before round *r + 1*.
    pub fn send(&mut self, round: usize, from: AgentId, to: AgentId, message: M) {
        let tid = self.transmissions;
        self.transmissions += 1;
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        if self.plan.is_cut(from, to, round) {
            self.stats.cut.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.plan.drops(tid) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let due = arrival_round(round, self.plan.extra_delay(tid));
        if self.plan.duplicates(tid) {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            let dup_due = arrival_round(round, self.plan.dup_extra_delay(tid));
            self.queue.push((dup_due, from, to, message.clone()));
        }
        self.queue.push((due, from, to, message));
    }

    /// Returns every message that arrives at the start of `round`, in
    /// delivery order, paired with its addressee.
    pub fn deliver(&mut self, round: usize) -> Vec<(AgentId, M)> {
        let mut arrived = Vec::new();
        let mut still_flying = Vec::with_capacity(self.queue.len());
        for (due, from, to, msg) in self.queue.drain(..) {
            if due <= round {
                if self.plan.is_down(to, round) {
                    self.stats.lost_to_down.fetch_add(1, Ordering::Relaxed);
                } else {
                    arrived.push((to, msg));
                }
            } else {
                still_flying.push((due, from, to, msg));
            }
        }
        self.queue = still_flying;
        arrived
    }

    /// Messages accepted but not yet delivered or lost.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

/// The round a transmission sent in `round` arrives in, `extra_delay`
/// rounds after the next one. It saturates, so a delay past the round
/// counter's range never arrives.
fn arrival_round(round: usize, extra_delay: u64) -> usize {
    usize::try_from(extra_delay).map_or(usize::MAX, |extra| (round + 1).saturating_add(extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Crash, Partition};

    fn a(n: u32) -> AgentId {
        AgentId::new(n)
    }

    #[test]
    fn faultless_faulty_transport_is_reliable_next_round() {
        let mut t: FaultyTransport<u32> = FaultyTransport::new(FaultPlan::none());
        for i in 0..50 {
            t.send(4, a(0), a(1), i);
        }
        let arrived = t.deliver(5);
        assert_eq!(arrived.len(), 50);
        assert_eq!(
            t.stats(),
            TransportStats {
                sent: 50,
                ..TransportStats::default()
            }
        );
    }

    #[test]
    fn drops_and_duplicates_show_in_stats() {
        let plan = FaultPlan::seeded(11)
            .with_drop_per_mille(300)
            .with_dup_per_mille(300)
            .with_max_extra_delay(3);
        let mut t: FaultyTransport<u32> = FaultyTransport::new(plan);
        for i in 0..1000 {
            t.send(1, a(0), a(1), i);
        }
        let mut arrived = 0;
        for round in 2..10 {
            arrived += t.deliver(round).len();
        }
        let stats = t.stats();
        assert_eq!(stats.sent, 1000);
        assert!(stats.dropped > 0 && stats.dropped < 1000);
        assert!(stats.duplicated > 0);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(arrived, 1000 - stats.dropped + stats.duplicated);
    }

    #[test]
    fn stats_snapshots_are_shared_ref_and_self_consistent() {
        let mut t: FaultyTransport<u32> = FaultyTransport::new(FaultPlan::none());
        for i in 0..10 {
            t.send(1, a(0), a(1), i);
        }
        // Snapshots go through &self (relaxed atomic loads), so concurrent
        // observers never tear a counter mid-update and never block.
        let shared: &FaultyTransport<u32> = &t;
        let s1 = shared.stats();
        let s2 = std::thread::scope(|scope| scope.spawn(|| shared.stats()).join().unwrap());
        assert_eq!(s1, s2);
        assert_eq!(s1.sent, 10);
    }

    #[test]
    fn cut_links_swallow_at_send_time() {
        let plan = FaultPlan::none().with_partition(Partition {
            a: a(0),
            b: a(1),
            from_round: 2,
            until_round: 4,
        });
        let mut t: FaultyTransport<u32> = FaultyTransport::new(plan);
        t.send(1, a(0), a(1), 1); // before the cut: delivered
        t.send(2, a(1), a(0), 2); // inside the cut, either direction: lost
        t.send(3, a(0), a(2), 3); // different pair: delivered
        t.send(4, a(0), a(1), 4); // healed: delivered
        let mut arrived = Vec::new();
        for round in 2..8 {
            arrived.extend(t.deliver(round));
        }
        assert_eq!(arrived, vec![(a(1), 1), (a(2), 3), (a(1), 4)]);
        assert_eq!(t.stats().cut, 1);
    }

    #[test]
    fn down_addressee_loses_arrivals() {
        let plan = FaultPlan::none().with_crash(
            a(1),
            Crash {
                at_round: 3,
                restart_at: Some(5),
            },
        );
        let mut t: FaultyTransport<u32> = FaultyTransport::new(plan);
        t.send(2, a(0), a(1), 7); // arrives round 3 while a1 is down: lost
        t.send(4, a(0), a(1), 8); // arrives round 5, a1 restarted: delivered
        assert!(t.deliver(3).is_empty());
        assert_eq!(t.deliver(5), vec![(a(1), 8)]);
        assert_eq!(t.stats().lost_to_down, 1);
    }
}
