//! The distributed reduction's participants and its fault-free run.

use crate::faults::FaultPlan;
use crate::node::Node;
use crate::resilient::ResilientConfig;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use trustseq_core::{BuildOptions, CoreError, EdgeId, Rule, SequencingGraph};
use trustseq_model::{AgentId, ExchangeSpec};

/// One removal as decided in the distributed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistRemoval {
    /// The deciding participant.
    pub decider: AgentId,
    /// The removed edge.
    pub edge: EdgeId,
    /// The sanctioning rule.
    pub rule: Rule,
    /// The round (1-based) in which the decision was made.
    pub round: usize,
}

/// The outcome of a distributed reduction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistOutcome {
    /// Whether every edge was removed — the same feasibility verdict the
    /// centralised [`Reducer`](trustseq_core::Reducer) computes.
    pub feasible: bool,
    /// Rounds until quiescence (parallel time).
    pub rounds: usize,
    /// Removal announcements sent, one per addressee; acknowledgements
    /// and retransmissions are not counted.
    pub messages: usize,
    /// Every removal, in decision order.
    pub removals: Vec<DistRemoval>,
    /// Edges never removed (empty iff `feasible`).
    pub remaining: Vec<EdgeId>,
}

impl fmt::Display for DistOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} rounds, {} messages ({} removals, {} edges remain)",
            if self.feasible {
                "feasible"
            } else {
                "infeasible"
            },
            self.rounds,
            self.messages,
            self.removals.len(),
            self.remaining.len()
        )
    }
}

/// A configured distributed reduction over one exchange specification.
///
/// Each participant gets a [`Node`] seeing only its local slice of the
/// sequencing graph; rounds alternate between local rule application and
/// targeted removal announcements until quiescence.
#[derive(Debug)]
pub struct DistributedReduction {
    pub(crate) graph: SequencingGraph,
    pub(crate) nodes: BTreeMap<AgentId, Node>,
}

impl DistributedReduction {
    /// Sets up the nodes for `spec` under paper-faithful construction.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn new(spec: &ExchangeSpec) -> Result<Self, CoreError> {
        Self::with_options(spec, BuildOptions::PAPER)
    }

    /// Sets up the nodes with explicit [`BuildOptions`].
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn with_options(spec: &ExchangeSpec, options: BuildOptions) -> Result<Self, CoreError> {
        let graph = SequencingGraph::from_spec_with(spec, options)?;
        let mut nodes = BTreeMap::new();
        let mut participants: BTreeSet<AgentId> = BTreeSet::new();
        for c in graph.commitments() {
            participants.insert(c.principal);
            participants.insert(c.trusted);
        }
        for agent in participants {
            let commitments: Vec<_> = graph
                .commitments()
                .iter()
                .filter(|c| c.principal == agent)
                .copied()
                .collect();
            let conjunction = graph
                .conjunctions()
                .iter()
                .find(|j| j.agent == agent)
                .copied();
            // Visible edges: those of the node's commitments plus those of
            // its conjunction.
            let visible: Vec<_> = graph
                .edges()
                .iter()
                .filter(|e| {
                    commitments.iter().any(|c| c.id == e.commitment)
                        || conjunction.map(|j| j.id == e.conjunction).unwrap_or(false)
                })
                .copied()
                .collect();
            nodes.insert(agent, Node::new(agent, commitments, conjunction, visible));
        }
        Ok(DistributedReduction { graph, nodes })
    }

    /// The number of participating nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The participants running nodes, in ascending id order — the agents
    /// a [`FaultPlan`](crate::FaultPlan) may legally name.
    pub fn participants(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.nodes.keys().copied()
    }

    /// The parties a removal of `edge` by `decider` must be announced to:
    /// the edge's commitment principal, its conjunction owner, and the
    /// commitment's trusted endpoint — deduplicated, minus the decider,
    /// restricted to actual participants.
    pub(crate) fn announcement_targets(&self, edge: EdgeId, decider: AgentId) -> Vec<AgentId> {
        let edge = *self.graph.edge(edge);
        let principal = self.graph.commitment(edge.commitment).principal;
        let conj_owner = self.graph.conjunction(edge.conjunction).agent;
        // The trusted endpoint of the commitment also tracks its side (it
        // owns the conjunction in most cases, but not when the edge links
        // to the principal's own conjunction).
        let trusted = self.graph.commitment(edge.commitment).trusted;
        let mut targets: Vec<AgentId> = Vec::new();
        for target in [principal, conj_owner, trusted] {
            if target != decider && self.nodes.contains_key(&target) && !targets.contains(&target) {
                targets.push(target);
            }
        }
        targets
    }

    /// Runs the protocol over a fault-free network until quiescence: the
    /// [`run_resilient`](DistributedReduction::run_resilient) round loop
    /// under [`FaultPlan::none`] with no round limit, so every
    /// announcement arrives in the next round and is acknowledged.
    pub fn run(self) -> DistOutcome {
        let config = ResilientConfig {
            max_rounds: usize::MAX,
            ..ResilientConfig::default()
        };
        self.run_resilient(&FaultPlan::none(), &config)
            .expect("the fault-free plan names no agent")
            .as_dist_outcome()
            .expect("a fault-free run without a round limit always decides")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::{analyze, analyze_with, fixtures};

    #[test]
    fn agrees_with_centralized_on_paper_examples() {
        for (name, spec) in [
            ("example1", fixtures::example1().0),
            ("example2", fixtures::example2().0),
            ("poor_broker", fixtures::poor_broker().0),
            ("figure7", fixtures::figure7().0),
        ] {
            let central = analyze(&spec).unwrap().feasible;
            let dist = DistributedReduction::new(&spec).unwrap().run();
            assert_eq!(dist.feasible, central, "{name}: {dist}");
        }
    }

    #[test]
    fn direct_trust_variants_agree() {
        let (mut v1, ids) = fixtures::example2();
        v1.add_trust(ids.source1, ids.broker1).unwrap();
        assert!(DistributedReduction::new(&v1).unwrap().run().feasible);

        let (mut v2, ids) = fixtures::example2();
        v2.add_trust(ids.broker1, ids.source1).unwrap();
        assert!(!DistributedReduction::new(&v2).unwrap().run().feasible);
    }

    #[test]
    fn extended_options_supported() {
        let (spec, _) = fixtures::example2_shared_escrow();
        let paper = DistributedReduction::new(&spec).unwrap().run();
        assert!(!paper.feasible);
        let extended = DistributedReduction::with_options(&spec, BuildOptions::EXTENDED)
            .unwrap()
            .run();
        assert!(extended.feasible);
        assert_eq!(
            extended.feasible,
            analyze_with(&spec, BuildOptions::EXTENDED)
                .unwrap()
                .feasible
        );
    }

    #[test]
    fn removal_count_matches_centralized_trace() {
        let (spec, _) = fixtures::example1();
        let dist = DistributedReduction::new(&spec).unwrap().run();
        assert_eq!(dist.removals.len(), 6);
        assert!(dist.remaining.is_empty());
        // Example #1's chain forces some sequentiality: more than one
        // round, fewer than one round per edge.
        assert!(dist.rounds >= 2 && dist.rounds <= 6, "{}", dist.rounds);
    }

    /// `run()`'s complete outcome on E14's four fixtures: rounds, messages,
    /// every removal in decision order, and the remaining edges. Removals
    /// are `(decider, edge, rule, round)` with rule 1 the commitment-fringe
    /// rule and rule 2 the conjunction-fringe rule.
    #[test]
    fn run_reproduces_the_e14_outcomes_exactly() {
        use trustseq_model::Money;
        type Pinned = (
            usize,
            usize,
            &'static [(u32, u32, u8, usize)],
            &'static [u32],
        );
        let cases: [(&str, ExchangeSpec, Pinned); 4] = [
            (
                "example1",
                fixtures::example1().0,
                (
                    4,
                    6,
                    &[
                        (0, 0, 1, 1),
                        (2, 5, 1, 1),
                        (3, 2, 2, 2),
                        (4, 4, 2, 2),
                        (1, 1, 1, 3),
                        (1, 3, 1, 4),
                    ],
                    &[],
                ),
            ),
            (
                "example2",
                fixtures::example2().0,
                (
                    2,
                    4,
                    &[(3, 6, 1, 1), (4, 13, 1, 1), (6, 5, 2, 2), (8, 12, 2, 2)],
                    &[0, 1, 2, 3, 4, 7, 8, 9, 10, 11],
                ),
            ),
            (
                "figure7",
                fixtures::figure7().0,
                (
                    2,
                    6,
                    &[
                        (2, 6, 1, 1),
                        (6, 13, 1, 1),
                        (10, 20, 1, 1),
                        (4, 5, 2, 2),
                        (8, 12, 2, 2),
                        (12, 19, 2, 2),
                    ],
                    &[0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 14, 15, 16, 17, 18],
                ),
            ),
            (
                "chain-8",
                trustseq_workloads::broker_chain(
                    8,
                    Money::from_dollars(1000),
                    Money::from_dollars(5),
                )
                .0,
                (
                    32,
                    34,
                    &[
                        (0, 0, 1, 1),
                        (9, 33, 1, 1),
                        (10, 2, 2, 2),
                        (18, 32, 2, 2),
                        (1, 1, 1, 3),
                        (1, 3, 2, 4),
                        (1, 4, 1, 5),
                        (11, 6, 2, 6),
                        (2, 5, 1, 7),
                        (2, 7, 2, 8),
                        (2, 8, 1, 9),
                        (12, 10, 2, 10),
                        (3, 9, 1, 11),
                        (3, 11, 2, 12),
                        (3, 12, 1, 13),
                        (13, 14, 2, 14),
                        (4, 13, 1, 15),
                        (4, 15, 2, 16),
                        (4, 16, 1, 17),
                        (14, 18, 2, 18),
                        (5, 17, 1, 19),
                        (5, 19, 2, 20),
                        (5, 20, 1, 21),
                        (15, 22, 2, 22),
                        (6, 21, 1, 23),
                        (6, 23, 2, 24),
                        (6, 24, 1, 25),
                        (16, 26, 2, 26),
                        (7, 25, 1, 27),
                        (7, 27, 2, 28),
                        (7, 28, 1, 29),
                        (17, 30, 2, 30),
                        (8, 29, 1, 31),
                        (8, 31, 1, 32),
                    ],
                    &[],
                ),
            ),
        ];
        for (name, spec, (rounds, messages, removals, remaining)) in cases {
            let expected = DistOutcome {
                feasible: remaining.is_empty(),
                rounds,
                messages,
                removals: removals
                    .iter()
                    .map(|&(decider, edge, rule, round)| DistRemoval {
                        decider: AgentId::new(decider),
                        edge: EdgeId::new(edge),
                        rule: if rule == 1 {
                            Rule::CommitmentFringe
                        } else {
                            Rule::ConjunctionFringe
                        },
                        round,
                    })
                    .collect(),
                remaining: remaining.iter().map(|&e| EdgeId::new(e)).collect(),
            };
            let outcome = DistributedReduction::new(&spec).unwrap().run();
            assert_eq!(outcome, expected, "{name}");
        }
    }

    #[test]
    fn every_participant_gets_a_node() {
        let (spec, _) = fixtures::example2();
        let reduction = DistributedReduction::new(&spec).unwrap();
        assert_eq!(reduction.node_count(), 9); // 5 principals + 4 trusted
    }

    #[test]
    fn messages_are_bounded_by_edges_times_targets() {
        let (spec, _) = fixtures::figure7();
        let dist = DistributedReduction::new(&spec).unwrap().run();
        // Each removal notifies at most 3 parties (typically 2).
        assert!(dist.messages <= dist.removals.len() * 3);
    }

    /// A delay-only plan: every announcement arrives 1..=`max_delay`
    /// rounds after it is sent.
    fn run_delayed(spec: &ExchangeSpec, seed: u64, max_delay: u64) -> crate::ResilientOutcome {
        let plan = FaultPlan::seeded(seed).with_max_extra_delay(max_delay - 1);
        DistributedReduction::new(spec)
            .unwrap()
            .run_resilient(&plan, &ResilientConfig::default())
            .unwrap()
    }

    #[test]
    fn asynchronous_delays_do_not_change_the_verdict() {
        for (spec, feasible) in [
            (fixtures::example1().0, true),
            (fixtures::example2().0, false),
            (fixtures::figure7().0, false),
        ] {
            for seed in 0..10 {
                for max_delay in [1u64, 2, 5] {
                    let outcome = run_delayed(&spec, seed, max_delay);
                    assert_eq!(
                        outcome.verdict.decided(),
                        Some(feasible),
                        "{} seed {seed} delay {max_delay}",
                        spec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn delays_stretch_rounds_but_not_removals() {
        let (spec, _) = fixtures::example1();
        let fast = DistributedReduction::new(&spec).unwrap().run();
        let slow = run_delayed(&spec, 3, 5);
        assert_eq!(fast.removals.len(), slow.removals.len());
        assert!(slow.rounds >= fast.rounds);
    }

    #[test]
    fn outcome_display() {
        let (spec, _) = fixtures::example1();
        let dist = DistributedReduction::new(&spec).unwrap().run();
        let s = dist.to_string();
        assert!(s.contains("feasible"));
        assert!(s.contains("rounds"));
    }
}
