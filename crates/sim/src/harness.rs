//! Adversarial sweep harness: exhaustively checks the safety property over
//! defection patterns, in parallel.

use crate::behavior::{Behavior, BehaviorMap};
use crate::runner::Simulation;
use crate::SimError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use trustseq_core::Protocol;
use trustseq_model::{AgentId, ExchangeSpec, Outcome};

/// The result of an exhaustive defection sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Number of simulated runs.
    pub runs: usize,
    /// Behaviour assignments under which an honest principal ended in an
    /// unacceptable state, with the harmed principal.
    pub violations: Vec<(String, AgentId)>,
    /// Whether the all-honest run reached every principal's preferred
    /// state.
    pub all_honest_preferred: bool,
}

impl SweepReport {
    /// The safety property held across every run.
    pub fn all_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs, {} violations, all-honest preferred: {}",
            self.runs,
            self.violations.len(),
            self.all_honest_preferred
        )
    }
}

/// Enumerates behaviour assignments: each principal is honest, silent
/// after `k` deposits for every `k` up to its deposit count, or — when the
/// full product still fits under `max_runs` — crash-restarting through
/// every observably distinct outage window (`at + resume < deposits`;
/// windows reaching past the last deposit are indistinguishable from
/// `SilentAfter(at)` and skipped). Principals playing a trusted
/// component's role (personas, §4.2.3) get no crash-restart variants:
/// in that role they are part of the trusted base, and a resumed persona
/// spending escrow-held assets would violate the trusted-honesty axiom.
///
/// The enumeration is exponential in the number of principals; `max_runs`
/// caps it. The size guard degrades in two stages: crash variants are
/// dropped first (keeping the silent-only enumeration exact), and if even
/// that overflows the cap, runs beyond it are skipped deterministically —
/// the lowest-index patterns are kept.
pub fn defection_patterns(
    spec: &ExchangeSpec,
    protocol: &Protocol,
    max_runs: usize,
) -> Vec<BehaviorMap> {
    let principals: Vec<AgentId> = spec.principals().map(|p| p.id()).collect();
    let deposits: Vec<u32> = principals
        .iter()
        .map(|&p| protocol.deposits_of(p).count() as u32)
        .collect();
    // Per principal: honest + SilentAfter(0..deposits).
    let silent_options = |d: u32| {
        let mut v = vec![Behavior::Honest];
        for k in 0..d {
            v.push(Behavior::SilentAfter(k));
        }
        v
    };
    // A principal playing a trusted component's role (a *persona*,
    // §4.2.3) is, in that role, part of the trusted base: a crash-restart
    // that resumes with persona-held assets could make the component's
    // refund guarantee unhonourable, which is outside the paper's threat
    // model (trusted components are honest, §2.5). Silent defection is
    // still enumerated for such principals — going silent is
    // indistinguishable from a crash that never restarts, and a silent
    // persona can always honour its refunds.
    let persona_players: std::collections::BTreeSet<AgentId> = spec
        .trusted_components()
        .filter_map(|t| spec.persona_of(t.id()))
        .collect();
    let extended: Vec<Vec<Behavior>> = principals
        .iter()
        .zip(&deposits)
        .map(|(&p, &d)| {
            let mut v = silent_options(d);
            if !persona_players.contains(&p) {
                for at_deposit in 0..d {
                    for resume_after in 1..d.saturating_sub(at_deposit) {
                        v.push(Behavior::CrashRestart {
                            at_deposit,
                            resume_after,
                        });
                    }
                }
            }
            v
        })
        .collect();
    let extended_total = extended
        .iter()
        .try_fold(1usize, |acc, v| acc.checked_mul(v.len()));
    let options: Vec<Vec<Behavior>> = match extended_total {
        Some(t) if t <= max_runs => extended,
        _ => deposits.iter().map(|&d| silent_options(d)).collect(),
    };
    let total: usize = options
        .iter()
        .try_fold(1usize, |acc, v| acc.checked_mul(v.len()))
        .unwrap_or(usize::MAX);
    let mut patterns = Vec::with_capacity(total.min(max_runs));
    for mut index in 0..total.min(max_runs) {
        let mut map = BehaviorMap::all_honest();
        for (p, opts) in principals.iter().zip(&options) {
            let choice = opts[index % opts.len()];
            index /= opts.len();
            if !choice.is_honest() {
                map.set(*p, choice);
            }
        }
        patterns.push(map);
    }
    patterns
}

/// Runs every defection pattern (capped at `max_runs`) and collects safety
/// violations. Runs are distributed over `threads` worker indices on the
/// persistent [`trustseq_core::pool`] — no per-sweep thread spawns — and
/// workers pull patterns from a shared atomic counter, so one slow pattern
/// cannot idle the other workers. The report does not depend on the
/// interleaving — violations are sorted after the merge — and each
/// per-pattern simulation borrows its behaviour map, so the hot loop
/// allocates nothing per sample.
///
/// # Errors
///
/// Propagates the first simulator-internal error encountered.
pub fn sweep(
    spec: &ExchangeSpec,
    protocol: &Protocol,
    max_runs: usize,
    threads: usize,
) -> Result<SweepReport, SimError> {
    let patterns = defection_patterns(spec, protocol, max_runs);
    let runs = patterns.len();
    // Acceptance-spec generation is exponential in deals-per-principal;
    // compute once for the whole sweep.
    let acceptance = spec.acceptance_specs();
    let violations: Mutex<Vec<(String, AgentId)>> = Mutex::new(Vec::new());
    let all_honest_preferred: Mutex<bool> = Mutex::new(false);
    let error: Mutex<Option<SimError>> = Mutex::new(None);

    let run_one = |behaviors: &BehaviorMap| {
        let sim = Simulation::new(spec, protocol, behaviors).with_acceptance(&acceptance);
        match sim.run() {
            Ok(report) => {
                if behaviors.is_all_honest() {
                    *all_honest_preferred.lock() = report.all_preferred();
                }
                for (&agent, &outcome) in &report.outcomes {
                    let honest = behaviors.of(agent).is_honest();
                    if honest && outcome == Outcome::Unacceptable {
                        violations.lock().push((behaviors.to_string(), agent));
                    }
                }
            }
            Err(e) => {
                error.lock().get_or_insert(e);
            }
        }
    };
    let threads = threads.max(1).min(runs.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trustseq_core::pool::broadcast(threads, &|_index| loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(behaviors) = patterns.get(i) else {
                break;
            };
            run_one(behaviors);
        });
    }))
    .map_err(|_| SimError::WorkerPanicked)?;

    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    let mut violations = violations.into_inner();
    violations.sort();
    Ok(SweepReport {
        runs,
        violations,
        all_honest_preferred: all_honest_preferred.into_inner(),
    })
}

/// Convenience: synthesises the protocol and sweeps it.
///
/// ```
/// use trustseq_core::fixtures;
/// use trustseq_sim::sweep_spec;
///
/// # fn main() -> Result<(), trustseq_sim::SimError> {
/// let (spec, _) = fixtures::example1();
/// let report = sweep_spec(&spec, 10_000)?;
/// assert!(report.all_safe()); // the paper's central claim, empirically
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`SimError::Core`] when the exchange is infeasible, plus sweep errors.
pub fn sweep_spec(spec: &ExchangeSpec, max_runs: usize) -> Result<SweepReport, SimError> {
    sweep_spec_cached(spec, max_runs, None)
}

/// [`sweep_spec`] with an optional
/// [`AnalysisCache`](trustseq_core::AnalysisCache): the feasibility gate is
/// answered from the memo table, so sweeping a batch of structurally
/// repeated specs pays for each structure's reduction once and rejects
/// infeasible repeats with a hash lookup. Protocol synthesis itself stays
/// uncached — its execution sequence is defined by the deterministic
/// reducer's exact step order (§5), which the cache does not promise to
/// reproduce.
///
/// # Errors
///
/// [`SimError::Core`] when the exchange is infeasible, plus sweep errors.
pub fn sweep_spec_cached(
    spec: &ExchangeSpec,
    max_runs: usize,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<SweepReport, SimError> {
    if let Some(cache) = cache {
        let outcome = cache.analyze(spec).map_err(SimError::from)?;
        if !outcome.feasible {
            return Err(SimError::from(trustseq_core::CoreError::Infeasible {
                remaining_edges: outcome.remaining_edges.len(),
            }));
        }
    }
    let sequence = trustseq_core::synthesize(spec)?;
    let protocol = Protocol::from_sequence(spec, &sequence);
    sweep(spec, &protocol, max_runs, trustseq_core::pool::size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::fixtures;
    use trustseq_model::Money;

    #[test]
    fn example1_safe_under_all_defections() {
        let (spec, _) = fixtures::example1();
        let report = sweep_spec(&spec, 10_000).unwrap();
        // 3 principals: consumer {H, S0}, broker {H, S0, S1, C(0,1)},
        // producer {H, S0} → 2·4·2 = 16 patterns (the broker has the only
        // multi-deposit schedule, hence the only crash-restart window).
        assert_eq!(report.runs, 16);
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
    }

    #[test]
    fn crash_variants_are_dropped_before_silent_patterns_are_capped() {
        let (spec, _) = fixtures::example1();
        let sequence = trustseq_core::synthesize(&spec).unwrap();
        let protocol = Protocol::from_sequence(&spec, &sequence);
        let crash_count = |patterns: &[BehaviorMap]| {
            patterns
                .iter()
                .flat_map(|m| m.assigned().map(|a| m.of(a)).collect::<Vec<_>>())
                .filter(|b| matches!(b, Behavior::CrashRestart { .. }))
                .count()
        };
        let full = defection_patterns(&spec, &protocol, 10_000);
        assert_eq!(full.len(), 16);
        assert!(crash_count(&full) > 0);
        // A cap below the crash-extended total (16) falls back to the
        // exact silent-only enumeration (12).
        let guarded = defection_patterns(&spec, &protocol, 12);
        assert_eq!(guarded.len(), 12);
        assert_eq!(crash_count(&guarded), 0);
    }

    #[test]
    fn indemnified_example2_safe_under_all_defections() {
        let (mut spec, ids) = fixtures::example2();
        spec.add_indemnity(ids.broker1, ids.sale1, Money::from_dollars(20))
            .unwrap();
        let report = sweep_spec(&spec, 10_000).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
        assert!(report.runs > 50);
    }

    #[test]
    fn figure7_with_greedy_plan_safe() {
        let (mut spec, ids) = fixtures::figure7();
        let plan = trustseq_core::indemnity::greedy_plan(&spec, ids.consumer);
        plan.apply(&mut spec).unwrap();
        let report = sweep_spec(&spec, 3_000).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
    }

    /// §4.2.3 variant 1 is feasible, and the simulator surfaces a nuance
    /// the paper leaves implicit: the paper's safety notion is about
    /// *commitments* (an agreed commitment is binding), so once the
    /// consumer complies with t1's notification its document-1 purchase
    /// completes. If broker 2's side then walks away at execution time —
    /// violating its commitment — the consumer is left holding document 1
    /// without document 2. The consumer's *deposits* are individually
    /// protected (escrow refunds), only the bundle linkage is exposed; an
    /// indemnity from broker 2 closes exactly that gap.
    #[test]
    fn direct_trust_variant_exposes_bundle_risk_without_indemnity() {
        let (mut spec, ids) = fixtures::example2();
        spec.add_trust(ids.source1, ids.broker1).unwrap();
        let report = sweep_spec(&spec, 10_000).unwrap();
        assert!(report.all_honest_preferred);
        // Every violation is the consumer's bundle linkage, nothing else.
        assert!(!report.violations.is_empty());
        for (_, harmed) in &report.violations {
            assert_eq!(*harmed, ids.consumer);
        }

        // Broker 2 indemnifying its sale closes the gap entirely.
        spec.add_indemnity(ids.broker2, ids.sale2, Money::from_dollars(10))
            .unwrap();
        let report = sweep_spec(&spec, 10_000).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
    }

    /// The §9 shared-escrow extension: one trusted component mediates the
    /// whole bundle. Feasible only with delegation semantics, and safe
    /// under every defection pattern — the escrow's all-or-nothing
    /// guarantee replaces both the consumer's conjunction and the brokers'
    /// red edges.
    #[test]
    fn shared_escrow_extension_safe_under_all_defections() {
        let (spec, _) = fixtures::example2_shared_escrow();
        let seq =
            trustseq_core::synthesize_with(&spec, trustseq_core::BuildOptions::EXTENDED).unwrap();
        let protocol = Protocol::from_sequence(&spec, &seq);
        let report = sweep(&spec, &protocol, 10_000, 4).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
        assert!(report.runs > 100);
    }

    /// §9's hierarchy of trust: a bridged cross-domain sale through two
    /// linked escrows is safe under every defection pattern.
    #[test]
    fn cross_domain_bridge_safe_under_all_defections() {
        let (spec, _) = fixtures::cross_domain_sale();
        let report = sweep_spec(&spec, 10_000).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
    }

    /// §3.2's composed documents: the publisher assembles the patent from
    /// components bought from two sources. Safe under every defection
    /// pattern — if either source defects, the publisher never buys, never
    /// assembles, and everyone unwinds.
    #[test]
    fn patent_assembly_safe_under_all_defections() {
        let (spec, _) = fixtures::patent_assembly();
        let report = sweep_spec(&spec, 10_000).unwrap();
        assert!(report.all_safe(), "violations: {:?}", report.violations);
        assert!(report.all_honest_preferred);
    }

    #[test]
    fn pattern_enumeration_caps() {
        let (spec, _) = fixtures::example1();
        let sequence = trustseq_core::synthesize(&spec).unwrap();
        let protocol = Protocol::from_sequence(&spec, &sequence);
        let patterns = defection_patterns(&spec, &protocol, 5);
        assert_eq!(patterns.len(), 5);
        // The first pattern is all-honest.
        assert!(patterns[0].is_all_honest());
    }

    #[test]
    fn report_display() {
        let (spec, _) = fixtures::example1();
        let report = sweep_spec(&spec, 100).unwrap();
        assert!(report.to_string().contains("16 runs"));
    }

    #[test]
    fn behavior_map_naming_an_unknown_agent_is_rejected() {
        let (spec, _) = fixtures::example1();
        let sequence = trustseq_core::synthesize(&spec).unwrap();
        let protocol = Protocol::from_sequence(&spec, &sequence);
        let stranger = AgentId::new(999);
        let behaviors = BehaviorMap::all_honest().with(stranger, Behavior::ABSENT);
        let err = Simulation::new(&spec, &protocol, &behaviors)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, crate::SimError::InvalidBehavior { agent, .. } if agent == stranger),
            "{err:?}"
        );
        // Trusted components are not principals: assigning them a
        // behaviour is equally malformed.
        let (spec2, ids2) = fixtures::example1();
        let _ = spec2;
        let behaviors = BehaviorMap::all_honest().with(ids2.t1, Behavior::ABSENT);
        let err = Simulation::new(&spec, &protocol, &behaviors)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, crate::SimError::InvalidBehavior { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn protocol_from_another_spec_is_rejected() {
        // A figure-7 protocol run against example #1's spec references
        // participants example #1 never declared.
        let (spec, _) = fixtures::example1();
        let (mut other, oids) = fixtures::figure7();
        let plan = trustseq_core::indemnity::greedy_plan(&other, oids.consumer);
        plan.apply(&mut other).unwrap();
        let sequence = trustseq_core::synthesize(&other).unwrap();
        let protocol = Protocol::from_sequence(&other, &sequence);
        let err = Simulation::new(&spec, &protocol, &BehaviorMap::all_honest())
            .run()
            .unwrap_err();
        assert!(
            matches!(err, crate::SimError::ProtocolMismatch { .. }),
            "{err:?}"
        );
    }
}
