//! Programmatic regeneration of every paper artefact (figures 1–7 and the
//! §5/§8 analyses), each compared against the paper's claim.

use std::collections::BTreeSet;
use std::fmt;
use trustseq_baselines::{cost_of_mistrust, run_two_phase_commit, with_full_trust};
use trustseq_core::indemnity::{greedy_plan, ordering_total};
use trustseq_core::{analyze, fixtures, synthesize, Reducer, SequencingGraph};
use trustseq_model::Money;
use trustseq_sim::{sweep_spec, BehaviorMap};
use trustseq_workloads::{broker_chain, bundle_arithmetic};

/// One reproduced artefact: the paper's claim next to our measurement.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (E1…E12).
    pub id: &'static str,
    /// What is being reproduced.
    pub title: &'static str,
    /// The paper's claims, line by line.
    pub paper: Vec<String>,
    /// Our measurements, line by line (aligned with `paper` where
    /// possible).
    pub measured: Vec<String>,
    /// Whether the measurement reproduces the claim.
    pub matches: bool,
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== {} — {} [{}]",
            self.id,
            self.title,
            if self.matches {
                "REPRODUCED"
            } else {
                "MISMATCH"
            }
        )?;
        let rows = self.paper.len().max(self.measured.len());
        for i in 0..rows {
            let p = self.paper.get(i).map(String::as_str).unwrap_or("");
            let m = self.measured.get(i).map(String::as_str).unwrap_or("");
            writeln!(f, "  paper: {p:<58} | ours: {m}")?;
        }
        Ok(())
    }
}

/// E1 — Figures 1 and 3: the structure of Example #1's interaction and
/// sequencing graphs.
pub fn e1_figure1_and_3() -> ExperimentReport {
    let (spec, _) = fixtures::example1();
    let ig = spec.interaction_graph().expect("example1 valid");
    let sg = SequencingGraph::from_spec(&spec).expect("example1 valid");
    let reds = sg
        .live_edges()
        .filter(|e| e.color == trustseq_core::EdgeColor::Red)
        .count();
    let measured = vec![
        format!(
            "interaction: {} principals, {} trusted, {} edges",
            ig.principal_count(),
            ig.trusted_count(),
            ig.edge_count()
        ),
        format!(
            "sequencing: {} commitments, {} conjunctions, {} edges ({} red)",
            sg.commitments().len(),
            sg.conjunctions().len(),
            sg.initial_edge_count(),
            reds
        ),
    ];
    let matches = ig.principal_count() == 3
        && ig.trusted_count() == 2
        && ig.edge_count() == 4
        && sg.commitments().len() == 4
        && sg.conjunctions().len() == 3
        && sg.initial_edge_count() == 6
        && reds == 1;
    ExperimentReport {
        id: "E1",
        title: "Example #1 graph structure (Figures 1 & 3)",
        paper: vec![
            "interaction: 3 principals, 2 trusted, 4 edges".into(),
            "sequencing: 4 commitments, 3 conjunctions, 6 edges (1 red)".into(),
        ],
        measured,
        matches,
    }
}

/// E2 — Figure 3 → Figure 5: Example #1 reduces to the empty graph in six
/// rule applications; feasible.
pub fn e2_example1_reduction() -> ExperimentReport {
    let (spec, _) = fixtures::example1();
    let outcome = analyze(&spec).expect("example1 valid");
    let measured = vec![format!(
        "{} rule applications, {} edges remain, feasible = {}",
        outcome.trace.len(),
        outcome.remaining_edges.len(),
        outcome.feasible
    )];
    ExperimentReport {
        id: "E2",
        title: "Example #1 reduction (Figure 5): feasible",
        paper: vec!["6 rule applications, 0 edges remain, feasible = true".into()],
        measured,
        matches: outcome.feasible && outcome.trace.len() == 6,
    }
}

/// E3 — §5: the recovered execution sequence equals the paper's ten steps.
pub fn e3_execution_sequence() -> ExperimentReport {
    let paper: Vec<String> = [
        "producer sends doc to t2",
        "t2 notifies broker",
        "consumer sends $100.00 to t1",
        "t1 notifies broker",
        "broker sends $80.00 to t2",
        "t2 sends doc to broker",
        "t2 sends $80.00 to producer",
        "broker sends doc to t1",
        "t1 sends doc to consumer",
        "t1 sends $100.00 to broker",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let (spec, _) = fixtures::example1();
    let measured = synthesize(&spec)
        .map(|seq| seq.describe(&spec))
        .unwrap_or_else(|e| vec![format!("synthesis failed: {e}")]);
    let matches = measured == paper;
    ExperimentReport {
        id: "E3",
        title: "Example #1 execution sequence (§5's ten steps)",
        paper,
        measured,
        matches,
    }
}

/// E4 — Figures 4/6: Example #2 reaches the impasse after four reductions;
/// infeasible.
pub fn e4_example2_impasse() -> ExperimentReport {
    let (spec, _) = fixtures::example2();
    let outcome = analyze(&spec).expect("example2 valid");
    let measured = vec![format!(
        "{} rule applications, {} edges remain, feasible = {}",
        outcome.trace.len(),
        outcome.remaining_edges.len(),
        outcome.feasible
    )];
    ExperimentReport {
        id: "E4",
        title: "Example #2 impasse (Figure 6): infeasible",
        paper: vec!["4 rule applications, impasse, feasible = false".into()],
        measured,
        matches: !outcome.feasible && outcome.trace.len() == 4,
    }
}

/// E5 — §4.2.3: trust asymmetry. Source1 trusting Broker1 unlocks the
/// exchange; the reverse direction does not.
pub fn e5_direct_trust_asymmetry() -> ExperimentReport {
    let (mut v1, ids) = fixtures::example2();
    v1.add_trust(ids.source1, ids.broker1).expect("principals");
    let f1 = analyze(&v1).expect("valid").feasible;

    let (mut v2, ids) = fixtures::example2();
    v2.add_trust(ids.broker1, ids.source1).expect("principals");
    let f2 = analyze(&v2).expect("valid").feasible;

    ExperimentReport {
        id: "E5",
        title: "Direct-trust asymmetry (§4.2.3)",
        paper: vec![
            "source1 trusts broker1 -> feasible".into(),
            "broker1 trusts source1 -> infeasible".into(),
        ],
        measured: vec![
            format!("source1 trusts broker1 -> feasible = {f1}"),
            format!("broker1 trusts source1 -> feasible = {f2}"),
        ],
        matches: f1 && !f2,
    }
}

/// E6 — §5's closing scenario: the poor broker's funding constraint puts a
/// second red edge on ∧B, making Example #1 infeasible.
pub fn e6_poor_broker() -> ExperimentReport {
    let (spec, ids) = fixtures::poor_broker();
    let graph = SequencingGraph::from_spec(&spec).expect("valid");
    let (outcome, reduced) = Reducer::new(graph).run_keeping_graph();
    let broker_j = reduced.conjunction_of(ids.broker).expect("broker conj");
    let live_reds = reduced
        .live_edges_of_conjunction(broker_j)
        .filter(|e| e.color == trustseq_core::EdgeColor::Red)
        .count();
    ExperimentReport {
        id: "E6",
        title: "Poor broker (§5): two red edges, infeasible",
        paper: vec!["two red edges at the broker's conjunction, infeasible".into()],
        measured: vec![format!(
            "{live_reds} live red edges at the broker's conjunction, feasible = {}",
            outcome.feasible
        )],
        matches: !outcome.feasible && live_reds == 2,
    }
}

/// E7 — §6 on Example #2: one indemnity (broker 1 posts the price of
/// document 2) makes the exchange feasible.
pub fn e7_indemnified_example2() -> ExperimentReport {
    let (mut spec, ids) = fixtures::example2();
    spec.add_indemnity(ids.broker1, ids.sale1, Money::from_dollars(20))
        .expect("indemnity valid");
    let outcome = analyze(&spec).expect("valid");
    ExperimentReport {
        id: "E7",
        title: "Indemnity unlocks Example #2 (§6)",
        paper: vec!["broker1 posts $20.00 -> feasible".into()],
        measured: vec![format!(
            "broker1 posts $20.00 -> feasible = {}",
            outcome.feasible
        )],
        matches: outcome.feasible,
    }
}

/// E8 — Figure 7: indemnity orderings cost $90 (naive) vs $70 (greedy);
/// the greedy planner picks the $70 ordering.
pub fn e8_figure7_orderings() -> ExperimentReport {
    let (spec, ids) = fixtures::figure7();
    let order1 = ordering_total(&spec, ids.consumer, ids.sales[2]);
    let order2 = ordering_total(&spec, ids.consumer, ids.sales[0]);
    let plan = greedy_plan(&spec, ids.consumer);
    let mut unlocked = spec.clone();
    plan.apply(&mut unlocked).expect("plan applies");
    let feasible = analyze(&unlocked).expect("valid").feasible;
    ExperimentReport {
        id: "E8",
        title: "Figure 7 indemnity orderings",
        paper: vec![
            "ordering #1 (doc1 first): $90.00".into(),
            "ordering #2 (doc3 first): $70.00".into(),
            "greedy picks ordering #2; exchange feasible".into(),
        ],
        measured: vec![
            format!("ordering #1 (doc1 first): {order1}"),
            format!("ordering #2 (doc3 first): {order2}"),
            format!("greedy total {}; feasible = {feasible}", plan.total()),
        ],
        matches: order1 == Money::from_dollars(90)
            && order2 == Money::from_dollars(70)
            && plan.total() == Money::from_dollars(70)
            && feasible,
    }
}

/// E9 — §8: the cost of mistrust. Two messages per exchange under direct
/// trust versus four through an intermediary; a universal intermediary
/// settles even infeasible exchanges.
pub fn e9_cost_of_mistrust() -> ExperimentReport {
    let (spec, _) = fixtures::example1();
    let distrustful = cost_of_mistrust(&spec).expect("valid");
    let trustful = cost_of_mistrust(&with_full_trust(&spec)).expect("valid");
    let (bundle, _) = fixtures::example2();
    let bundle_cost = cost_of_mistrust(&bundle).expect("valid");
    let matches = trustful.direct == Some(4)
        && distrustful.direct.is_none()
        && distrustful.pairwise_escrow == Some(10)
        && bundle_cost.pairwise_escrow.is_none()
        && bundle_cost.universal > 0;
    ExperimentReport {
        id: "E9",
        title: "Cost of mistrust (§8)",
        paper: vec![
            "full trust: 2 messages per exchange (4 total)".into(),
            "distrust: escrowed protocol, 10 messages; direct impossible".into(),
            "universal intermediary settles even the infeasible bundle".into(),
        ],
        measured: vec![
            format!("full trust: direct = {:?}", trustful.direct),
            format!(
                "distrust: escrowed = {:?}, direct = {:?}",
                distrustful.pairwise_escrow, distrustful.direct
            ),
            format!(
                "bundle: escrowed = {:?}, universal = {}",
                bundle_cost.pairwise_escrow, bundle_cost.universal
            ),
        ],
        matches,
    }
}

/// E10 — §7.4: the Petri-net encoding agrees with the sequencing-graph
/// feasibility test on the paper's scenarios and generated workloads.
pub fn e10_petri_crosscheck() -> ExperimentReport {
    let mut agreements = 0usize;
    let mut total = 0usize;
    let mut cases: Vec<(String, trustseq_model::ExchangeSpec)> = vec![
        ("example1".into(), fixtures::example1().0),
        ("example2".into(), fixtures::example2().0),
        ("poor_broker".into(), fixtures::poor_broker().0),
        ("figure7".into(), fixtures::figure7().0),
    ];
    for depth in 1..=3 {
        cases.push((
            format!("chain-{depth}"),
            broker_chain(depth, Money::from_dollars(100), Money::from_dollars(5)).0,
        ));
    }
    for n in 2..=3 {
        cases.push((format!("bundle-{n}"), bundle_arithmetic(n).0));
    }
    for (_, spec) in &cases {
        total += 1;
        let graph_verdict = analyze(spec).expect("valid").feasible;
        let net = trustseq_petri::compile::compile(spec).expect("compiles");
        let cover = trustseq_petri::coverable(&net.net, &net.initial, &net.goal, 5_000_000)
            .expect("within budget");
        if cover.coverable == graph_verdict {
            agreements += 1;
        }
    }
    ExperimentReport {
        id: "E10",
        title: "Petri-net coverability cross-check (§7.4)",
        paper: vec!["feasibility = coverability of the completed place".into()],
        measured: vec![format!("{agreements}/{total} scenarios agree")],
        matches: agreements == total,
    }
}

/// E11 — 2PC comparison (§7.1): fewer messages, but post-commit defection
/// harms an honest party, which the trust-explicit protocol never allows.
pub fn e11_two_phase_contrast() -> ExperimentReport {
    let (spec, ids) = fixtures::example1();
    let honest_2pc = run_two_phase_commit(&spec, true, &[], &BTreeSet::new()).expect("valid");
    let defectors: BTreeSet<_> = [ids.consumer].into_iter().collect();
    let defect_2pc = run_two_phase_commit(&spec, true, &[], &defectors).expect("valid");
    let sweep = sweep_spec(&spec, 10_000).expect("feasible");
    ExperimentReport {
        id: "E11",
        title: "Two-phase commit contrast (§7.1)",
        paper: vec![
            "2PC assumes protocol compliance; defection harms honest parties".into(),
            "trust-explicit protocol protects everyone under any defection".into(),
        ],
        measured: vec![
            format!(
                "2PC: {} msgs honest; consumer defects -> harmed = {:?}",
                honest_2pc.message_count(),
                defect_2pc.harmed
            ),
            format!(
                "sequencing protocol: {} defection patterns, {} violations",
                sweep.runs,
                sweep.violations.len()
            ),
        ],
        matches: !defect_2pc.safety_holds() && sweep.all_safe(),
    }
}

/// E12 — the paper's central safety claim, checked empirically: across the
/// feasible scenarios, no defection pattern harms an honest principal.
pub fn e12_safety_sweep() -> ExperimentReport {
    let mut lines = Vec::new();
    let mut all_ok = true;

    let scenarios: Vec<(&str, trustseq_model::ExchangeSpec)> = vec![
        ("example1", fixtures::example1().0),
        ("example2+indemnity", {
            let (mut s, ids) = fixtures::example2();
            s.add_indemnity(ids.broker1, ids.sale1, Money::from_dollars(20))
                .expect("valid");
            s
        }),
        ("figure7+greedy", {
            let (mut s, ids) = fixtures::figure7();
            greedy_plan(&s, ids.consumer).apply(&mut s).expect("valid");
            s
        }),
        ("chain-3", {
            broker_chain(3, Money::from_dollars(100), Money::from_dollars(5)).0
        }),
    ];
    for (name, spec) in scenarios {
        let sweep = sweep_spec(&spec, 2_000).expect("feasible scenario");
        lines.push(format!(
            "{name}: {} runs, {} violations, all-honest preferred = {}",
            sweep.runs,
            sweep.violations.len(),
            sweep.all_honest_preferred
        ));
        all_ok &= sweep.all_safe() && sweep.all_honest_preferred;
    }
    // Sanity: the all-honest run reaches everyone's preferred state.
    let (spec, _) = fixtures::example1();
    let report = trustseq_sim::run_protocol(&spec, BehaviorMap::all_honest()).expect("runs");
    all_ok &= report.all_preferred();

    ExperimentReport {
        id: "E12",
        title: "Empirical safety sweep (the paper's central claim)",
        paper: vec!["no participant ever risks losing money or goods".into()],
        measured: lines,
        matches: all_ok,
    }
}

/// E13 — §9's future-work extension, implemented: an agent trusted by more
/// than two parties. Example #2 with a single shared escrow is infeasible
/// under the paper's rules, feasible under delegation semantics, and the
/// synthesised protocol is safe under every defection pattern.
pub fn e13_shared_escrow_extension() -> ExperimentReport {
    let (spec, _) = fixtures::example2_shared_escrow();
    let paper_rules = analyze(&spec).expect("valid").feasible;
    let extended = trustseq_core::analyze_with(&spec, trustseq_core::BuildOptions::EXTENDED)
        .expect("valid")
        .feasible;
    let (safe, runs) =
        match trustseq_core::synthesize_with(&spec, trustseq_core::BuildOptions::EXTENDED) {
            Ok(seq) => {
                let protocol = trustseq_core::Protocol::from_sequence(&spec, &seq);
                let sweep = trustseq_sim::sweep(&spec, &protocol, 10_000, 4).expect("runs");
                (sweep.all_safe() && sweep.all_honest_preferred, sweep.runs)
            }
            Err(_) => (false, 0),
        };
    ExperimentReport {
        id: "E13",
        title: "Shared-escrow extension (§9 future work, implemented)",
        paper: vec![
            "\"when an agent is trusted by more than two parties,".into(),
            " additional distributed exchanges may become feasible\"".into(),
            "(no rules given — §9 leaves this as future work)".into(),
        ],
        measured: vec![
            format!("paper rules: feasible = {paper_rules}"),
            format!("delegation semantics: feasible = {extended}"),
            format!("defection sweep: {runs} runs, safe = {safe}"),
        ],
        matches: !paper_rules && extended && safe,
    }
}

/// E14 — §9's other future-work item, implemented: fully distributed
/// feasibility, with each participant deciding locally and gossiping edge
/// removals. Agrees with the centralised reducer everywhere; we report the
/// parallel-round and message costs.
pub fn e14_distributed_reduction() -> ExperimentReport {
    let mut lines = Vec::new();
    let mut all_agree = true;
    for (name, spec) in [
        ("example1", fixtures::example1().0),
        ("example2", fixtures::example2().0),
        ("figure7", fixtures::figure7().0),
        (
            "chain-8",
            broker_chain(8, Money::from_dollars(1000), Money::from_dollars(5)).0,
        ),
    ] {
        let central = analyze(&spec).expect("valid").feasible;
        let dist = trustseq_dist::DistributedReduction::new(&spec)
            .expect("valid")
            .run();
        all_agree &= dist.feasible == central;
        lines.push(format!(
            "{name}: {dist} (centralised agrees: {})",
            dist.feasible == central
        ));
    }
    ExperimentReport {
        id: "E14",
        title: "Distributed reduction (§9 future work, implemented)",
        paper: vec![
            "\"a fully distributed approach, with each participant".into(),
            " locally making decisions\" (no protocol given in the paper)".into(),
        ],
        measured: lines,
        matches: all_agree,
    }
}

/// E15 — §2.2/§9 temporal semantics, implemented: escrow deadlines. The
/// paper assumes deadlines "always sufficiently generous"; we sweep the
/// deadline and show the exact threshold below which the exchange unwinds —
/// *safely*: honest parties are never harmed at any deadline, because
/// notifications expire with the pieces they announce (§2.5).
pub fn e15_temporal_deadlines() -> ExperimentReport {
    let (spec, _) = fixtures::example1();
    let seq = synthesize(&spec).expect("feasible");
    let protocol = trustseq_core::Protocol::from_sequence(&spec, &seq);
    let mut threshold = None;
    let mut all_safe = true;
    for deadline in 1..=10u64 {
        let report = trustseq_sim::Simulation::with_config(
            &spec,
            &protocol,
            &BehaviorMap::all_honest(),
            trustseq_sim::SimConfig {
                escrow_deadline: Some(deadline),
            },
        )
        .run()
        .expect("runs");
        all_safe &= report.safety_holds();
        if threshold.is_none() && report.all_preferred() {
            threshold = Some(deadline);
        }
    }
    ExperimentReport {
        id: "E15",
        title: "Escrow deadlines (§2.2/§9 temporal semantics, implemented)",
        paper: vec![
            "\"we assume that the deadlines allotted are always".into(),
            " sufficiently generous\" (threshold not quantified)".into(),
            "expired exchanges unwind via give^-1 / pay^-1 (§2.5)".into(),
        ],
        measured: vec![
            format!(
                "example1 completes iff escrow deadline >= {} ticks",
                threshold.map(|t| t.to_string()).unwrap_or("∞".into())
            ),
            format!("honest parties safe at every deadline: {all_safe}"),
        ],
        matches: threshold == Some(5) && all_safe,
    }
}

/// E16 — §9's "hierarchy of trust", implemented: two linked trusted
/// components bridge a cross-domain sale. Feasible, safe under every
/// defection pattern, at the cost of one extra relay message.
pub fn e16_trust_hierarchy() -> ExperimentReport {
    let (spec, _) = fixtures::cross_domain_sale();
    let seq = synthesize(&spec);
    let (messages, verified) = match &seq {
        Ok(s) => (s.message_count(), s.verify(&spec).is_ok()),
        Err(_) => (0, false),
    };
    let sweep = sweep_spec(&spec, 10_000).expect("feasible");
    // Reference: the same sale through one shared component takes 5
    // messages (2 deposits + notify + 2 forwards); the bridge adds a relay.
    let (single, _) = {
        let mut s = trustseq_model::ExchangeSpec::new("single-escrow-sale");
        let p = s
            .add_principal("producer", trustseq_model::Role::Producer)
            .expect("ok");
        let c = s
            .add_principal("consumer", trustseq_model::Role::Consumer)
            .expect("ok");
        let t = s.add_trusted("t").expect("ok");
        let doc = s.add_item("doc", "Doc").expect("ok");
        s.add_deal(p, c, t, doc, Money::from_dollars(25))
            .expect("ok");
        (s, ())
    };
    let single_messages = synthesize(&single).expect("feasible").message_count();
    ExperimentReport {
        id: "E16",
        title: "Hierarchy of trust (§9 future work, implemented)",
        paper: vec![
            "\"a 'hierarchy of trust' may allow more completed".into(),
            " transactions\" (no mechanism given in the paper)".into(),
        ],
        measured: vec![
            format!(
                "bridged cross-domain sale: feasible, verified = {verified}, \
                 {messages} messages (vs {single_messages} with one shared escrow)"
            ),
            format!(
                "defection sweep: {} runs, safe = {}",
                sweep.runs,
                sweep.all_safe() && sweep.all_honest_preferred
            ),
        ],
        matches: verified
            && sweep.all_safe()
            && sweep.all_honest_preferred
            && messages == single_messages + 1,
    }
}

/// E17 — §7.3: Byzantine agreement as the alternative to trust. Replacing
/// Example #1's two trusted agents with `3f+1`-replica committees running
/// EIG agreement multiplies the message cost many times over — quantifying
/// the paper's remark that "the presence of some trusted nodes allows
/// agreement without replicating the actions and communication".
pub fn e17_byzantine_contrast() -> ExperimentReport {
    let (spec, _) = fixtures::example1();
    let f1 = trustseq_baselines::committee_cost(&spec, 1).expect("feasible");
    let f2 = trustseq_baselines::committee_cost(&spec, 2).expect("feasible");
    // The agreement protocol itself must actually work under faults.
    let eig = trustseq_baselines::run_eig(
        &[true, true, false, true],
        1,
        &[2usize].into_iter().collect(),
    )
    .expect("n = 3f+1");
    ExperimentReport {
        id: "E17",
        title: "Byzantine replication vs trusted agents (§7.3)",
        paper: vec![
            "\"trusted nodes allow agreement without replicating the".into(),
            " actions and communication among several equivalent agents\"".into(),
        ],
        measured: vec![
            format!("{f1}"),
            format!("{f2}"),
            format!("EIG under 1 equivocating fault: {eig}"),
        ],
        matches: eig.agreement
            && eig.validity
            && f1.committee_messages > 4 * f1.trusted_messages
            && f2.committee_messages > f1.committee_messages,
    }
}

/// E18 — §3.2's combined documents, made executable: a publisher buys
/// patent text and diagrams from different providers, assembles the
/// complete patent, and resells it — with the resale constraints protecting
/// it on both purchases.
pub fn e18_document_assembly() -> ExperimentReport {
    let (spec, ids) = fixtures::patent_assembly();
    let feasible = analyze(&spec).expect("valid").feasible;
    let (steps, verified) = match synthesize(&spec) {
        Ok(seq) => (seq.len(), seq.verify(&spec).is_ok()),
        Err(_) => (0, false),
    };
    let sweep = sweep_spec(&spec, 10_000).expect("feasible");
    let _ = ids;
    ExperimentReport {
        id: "E18",
        title: "Combined documents (§3.2, made executable)",
        paper: vec![
            "\"information and documents will be combined and enhanced,".into(),
            " leading to complex royalties and payment arrangements\"".into(),
        ],
        measured: vec![
            format!("publisher assembles the patent from two sourced parts"),
            format!("feasible = {feasible}; {steps}-step protocol, verified = {verified}"),
            format!(
                "defection sweep: {} runs, safe = {}",
                sweep.runs,
                sweep.all_safe() && sweep.all_honest_preferred
            ),
        ],
        matches: feasible && verified && sweep.all_safe() && sweep.all_honest_preferred,
    }
}

/// E19 — feasibility-vs-trust-density sweep over random broker chains,
/// measured with the parallel batch analyzer.
pub fn e19_trust_density_sweep() -> ExperimentReport {
    use trustseq_workloads::{feasibility_rate, RandomConfig};
    let base = RandomConfig {
        width: 2,
        max_depth: 3,
        ..Default::default()
    };
    let densities = [0.0, 0.25, 0.5, 0.75, 1.0];
    let rates: Vec<f64> = densities
        .iter()
        .map(|&trust_density| {
            feasibility_rate(
                &RandomConfig {
                    trust_density,
                    ..base.clone()
                },
                40,
            )
        })
        .collect();
    // More declared trust can only remove impasses, never create them: the
    // per-seed exchanges differ only in added trust edges, so the rate must
    // be monotone non-decreasing in the density, rising from a bundle-bound
    // floor to certainty at full trust.
    let monotone = rates.windows(2).all(|w| w[0] <= w[1]);
    let saturates = *rates.last().unwrap() == 1.0;
    ExperimentReport {
        id: "E19",
        title: "Trust density vs. feasibility (§4.2.3, swept at scale)",
        paper: vec![
            "\"as trust increases, fewer trusted intermediaries are".into(),
            " needed and more exchanges become feasible\"".into(),
        ],
        measured: densities
            .iter()
            .zip(&rates)
            .map(|(d, r)| format!("trust density {d:.2} → feasibility rate {r:.2}"))
            .chain([format!(
                "monotone = {monotone}, saturates at 1.0 = {saturates}"
            )])
            .collect(),
        matches: monotone && saturates,
    }
}

/// E20 — chaos resilience: the distributed reduction under injected
/// message loss, duplication, reordering and crash/restart schedules. The
/// paper's reduction is confluent, so faults may cost rounds and
/// retransmissions but never change the fixpoint: every decided chaos run
/// must agree with the centralised reducer, and the fault-free plan must
/// reproduce the reliable engine byte-for-byte.
pub fn e20_chaos_resilience() -> ExperimentReport {
    use trustseq_sim::{chaos_sweep_all, ChaosMatrix};
    let (ex1, _) = fixtures::example1();
    let (ex2, _) = fixtures::example2();
    let (fig7, _) = fixtures::figure7();
    let (chain, _) = broker_chain(6, Money::from_dollars(1000), Money::from_dollars(5));
    let specs = [
        ("example1", &ex1),
        ("example2", &ex2),
        ("figure7", &fig7),
        ("chain-6", &chain),
    ];
    let (report, first_dirty) =
        chaos_sweep_all(specs, &ChaosMatrix::default()).expect("fixtures build");
    ExperimentReport {
        id: "E20",
        title: "Chaos resilience of the distributed reduction (robustness)",
        paper: vec![
            "(no fault model in the paper; §9 assumes reliable".into(),
            " messengers — confluence makes the fixpoint fault-invariant)".into(),
        ],
        measured: vec![
            format!("{report}"),
            format!(
                "all decided verdicts agree with the centralised reducer: {}",
                report.wrong_verdicts == 0 && report.removal_set_mismatches == 0
            ),
            format!(
                "fault-free runs byte-identical to the reliable engine: {}",
                report.baseline_divergences == 0
            ),
        ],
        matches: report.clean() && first_dirty.is_none(),
    }
}

/// E21 — the memoized analysis cache: correctness and hit rates on the
/// E19 trust-density workload and the E20 chaos matrix. Cached and
/// uncached runs must measure identical results; the speedup is reported
/// but not gated (wall-clock on shared CI hardware is advisory).
pub fn e21_cache_memoization() -> ExperimentReport {
    use std::time::Instant;
    use trustseq_core::{confluence_check_cached, AnalysisCache};
    use trustseq_sim::{chaos_sweep_all, chaos_sweep_all_cached, ChaosMatrix};
    use trustseq_workloads::{
        feasibility_rate, feasibility_rate_cached, random_exchange, RandomConfig,
    };

    let config = |trust_density: f64| RandomConfig {
        width: 2,
        max_depth: 3,
        trust_density,
        ..Default::default()
    };
    let densities = [0.0, 0.25, 0.5, 0.75, 1.0];
    let cache = AnalysisCache::new();

    // E19 workload, cold (empty cache) then warm (same cache, same specs).
    let started = Instant::now();
    let cold_rates: Vec<f64> = densities
        .iter()
        .map(|&d| feasibility_rate_cached(&config(d), 40, Some(&cache)))
        .collect();
    let cold = started.elapsed();
    let after_cold = cache.stats();
    let started = Instant::now();
    let warm_rates: Vec<f64> = densities
        .iter()
        .map(|&d| feasibility_rate_cached(&config(d), 40, Some(&cache)))
        .collect();
    let warm = started.elapsed();
    let stats = cache.stats();
    let plain_rates: Vec<f64> = densities
        .iter()
        .map(|&d| feasibility_rate(&config(d), 40))
        .collect();
    let rates_identical = cold_rates == plain_rates && warm_rates == plain_rates;
    let warm_all_hits = stats.misses == after_cold.misses;
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);

    // The confluence-validated sweep — the driver whose per-structure work
    // (reference + 16 randomized orders) memoization actually elides. This
    // is the BENCH_cache.json headline, reproduced here at reduced scale.
    let conf_specs: Vec<_> = (0..60u64)
        .map(|seed| {
            random_exchange(&RandomConfig {
                seed: seed / 3,
                ..config((seed % 3) as f64 / 2.0)
            })
            .spec
        })
        .collect();
    let conf_cache = AnalysisCache::new();
    let conf_sweep = |cache: Option<&AnalysisCache>| -> (u64, Vec<bool>) {
        conf_specs
            .iter()
            .fold((0, Vec::new()), |(agree, mut verdicts), s| {
                let report = confluence_check_cached(s, 16, cache).expect("spec builds");
                verdicts.push(report.reference_feasible);
                (agree + report.agreeing, verdicts)
            })
    };
    let started = Instant::now();
    let conf_cold = conf_sweep(Some(&conf_cache));
    let conf_cold_time = started.elapsed();
    let started = Instant::now();
    let conf_warm = conf_sweep(Some(&conf_cache));
    let conf_warm_time = started.elapsed();
    let conf_identical = conf_cold == conf_warm && conf_cold == conf_sweep(None);
    let conf_speedup = conf_cold_time.as_secs_f64() / conf_warm_time.as_secs_f64().max(1e-9);

    // E20's 600-run chaos matrix: the cached centralised reference must
    // leave every cell of the report unchanged.
    let (ex1, _) = fixtures::example1();
    let (ex2, _) = fixtures::example2();
    let (fig7, _) = fixtures::figure7();
    let (chain, _) = broker_chain(6, Money::from_dollars(1000), Money::from_dollars(5));
    let specs = [
        ("example1", &ex1),
        ("example2", &ex2),
        ("figure7", &fig7),
        ("chain-6", &chain),
    ];
    let (plain_chaos, _) = chaos_sweep_all(specs, &ChaosMatrix::default()).expect("fixtures build");
    let (cached_chaos, dirty) =
        chaos_sweep_all_cached(specs, &ChaosMatrix::default(), Some(&cache))
            .expect("fixtures build");
    let chaos_identical = plain_chaos == cached_chaos && dirty.is_none();

    ExperimentReport {
        id: "E21",
        title: "Memoized analysis cache on the sweep workloads (perf layer)",
        paper: vec![
            "(no caching in the paper; §4.2's reduction is a pure".into(),
            " function of graph structure, so memoization is exact)".into(),
        ],
        measured: vec![
            format!(
                "E19 workload: 200 analyses → {} structures interned, {}",
                stats.entries, stats
            ),
            format!(
                "warm pass all hits = {warm_all_hits}; cold {:.1} ms vs warm {:.1} ms ({speedup:.1}x)",
                cold.as_secs_f64() * 1e3,
                warm.as_secs_f64() * 1e3
            ),
            format!("cached rates identical to uncached: {rates_identical}"),
            format!(
                "confluence sweep (60 specs x 16 orders): cold {:.1} ms vs warm {:.1} ms ({conf_speedup:.1}x), reports identical = {conf_identical}",
                conf_cold_time.as_secs_f64() * 1e3,
                conf_warm_time.as_secs_f64() * 1e3
            ),
            format!(
                "E20 chaos matrix ({} runs) identical with cached reference: {chaos_identical}",
                cached_chaos.runs
            ),
        ],
        matches: rates_identical && warm_all_hits && chaos_identical && conf_identical && stats.hits > 0,
    }
}

/// Runs every experiment, in order.
pub fn all() -> Vec<ExperimentReport> {
    vec![
        e1_figure1_and_3(),
        e2_example1_reduction(),
        e3_execution_sequence(),
        e4_example2_impasse(),
        e5_direct_trust_asymmetry(),
        e6_poor_broker(),
        e7_indemnified_example2(),
        e8_figure7_orderings(),
        e9_cost_of_mistrust(),
        e10_petri_crosscheck(),
        e11_two_phase_contrast(),
        e12_safety_sweep(),
        e13_shared_escrow_extension(),
        e14_distributed_reduction(),
        e15_temporal_deadlines(),
        e16_trust_hierarchy(),
        e17_byzantine_contrast(),
        e18_document_assembly(),
        e19_trust_density_sweep(),
        e20_chaos_resilience(),
        e21_cache_memoization(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_reproduces() {
        for report in all() {
            assert!(report.matches, "{report}");
        }
    }

    #[test]
    fn reports_render() {
        let r = e1_figure1_and_3();
        let s = r.to_string();
        assert!(s.contains("E1"));
        assert!(s.contains("REPRODUCED"));
    }
}
