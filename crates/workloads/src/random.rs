//! Random exchange topologies with a trust-density knob.

use crate::chain::ChainIds;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trustseq_model::{AgentId, ExchangeSpec, Money, Role};

/// Configuration for [`random_exchange`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomConfig {
    /// Number of independent document chains feeding one consumer (width
    /// ≥ 2 creates a bundle conjunction at the consumer).
    pub width: usize,
    /// Maximum brokers per chain (each chain's depth is drawn uniformly
    /// from `1..=max_depth`).
    pub max_depth: usize,
    /// Retail price range in whole dollars (inclusive).
    pub price_range: (i64, i64),
    /// Probability that a seller directly trusts its buyer (enabling the
    /// buyer to play the intermediary role, §4.2.3).
    pub trust_density: f64,
    /// Probability that a link in a chain reuses the previous link's
    /// trusted component (a §9 multi-party shared escrow).
    pub shared_escrow_prob: f64,
    /// Probability that a link is *bridged* across two freshly linked
    /// trusted components (§9's hierarchy of trust).
    pub bridge_prob: f64,
    /// RNG seed; the same seed yields the same specification.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            width: 2,
            max_depth: 3,
            price_range: (10, 100),
            trust_density: 0.0,
            shared_escrow_prob: 0.0,
            bridge_prob: 0.0,
            seed: 0,
        }
    }
}

/// The direct-trust densities a feasibility sweep visits, from none to
/// full trust: the grid of experiment E19 and of the CLI's `sweep`.
pub const TRUST_DENSITY_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// A generated random exchange: the specification plus the chain structure.
#[derive(Debug, Clone)]
pub struct RandomExchange {
    /// The generated specification.
    pub spec: ExchangeSpec,
    /// The consumer shared by every chain.
    pub consumer: AgentId,
    /// Per-chain structure (brokers, producer, deals), consumer side first.
    pub chains: Vec<ChainIds>,
}

/// Generates a random exchange problem: one consumer bundling `width`
/// documents, each sourced through its own broker chain, with direct-trust
/// edges sprinkled at `trust_density`.
///
/// Deterministic in `config.seed`.
///
/// # Panics
///
/// Panics on a degenerate configuration (`width == 0`, `max_depth == 0`, or
/// an empty/negative price range).
pub fn random_exchange(config: &RandomConfig) -> RandomExchange {
    assert!(config.width >= 1, "width must be at least 1");
    assert!(config.max_depth >= 1, "max_depth must be at least 1");
    let (lo, hi) = config.price_range;
    assert!(
        0 < lo && lo <= hi,
        "price range must be positive and ordered"
    );

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut spec = ExchangeSpec::new(format!("random-{}", config.seed));
    let consumer = spec.add_principal("consumer", Role::Consumer).unwrap();
    let mut chains = Vec::with_capacity(config.width);

    for c in 0..config.width {
        let depth = rng.random_range(1..=config.max_depth);
        let retail_dollars = rng.random_range(lo..=hi);
        // Margin: split at most half the retail price across the chain.
        let margin_cents = (retail_dollars * 100 / 2 / (depth as i64 + 1)).max(1);
        let retail = Money::from_dollars(retail_dollars);
        let margin = Money::from_cents(margin_cents);

        let brokers: Vec<AgentId> = (0..depth)
            .map(|k| {
                spec.add_principal(format!("c{c}b{k}"), Role::Broker)
                    .unwrap()
            })
            .collect();
        let producer = spec
            .add_principal(format!("c{c}src"), Role::Producer)
            .unwrap();
        let mut trusted: Vec<AgentId> = Vec::with_capacity(depth + 1);
        for k in 0..=depth {
            // Possibly share the previous link's escrow (§9 multi-party
            // trusted agent).
            if k > 0 && rng.random_bool(config.shared_escrow_prob) {
                trusted.push(trusted[k - 1]);
            } else {
                trusted.push(spec.add_trusted(format!("c{c}t{k}")).unwrap());
            }
        }
        let doc = spec
            .add_item(format!("c{c}doc"), format!("Document {c}"))
            .unwrap();

        let mut sellers = brokers.clone();
        sellers.push(producer);
        let mut buyers = vec![consumer];
        buyers.extend(brokers.iter().copied());

        let mut price = retail;
        let mut deals = Vec::with_capacity(depth + 1);
        for k in 0..=depth {
            // Possibly bridge this link across two linked escrows (§9
            // hierarchy of trust).
            let bridged = rng.random_bool(config.bridge_prob);
            let deal = if bridged {
                let east = spec.add_trusted(format!("c{c}t{k}e")).unwrap();
                spec.add_trusted_link(trusted[k], east).unwrap();
                spec.add_deal_bridged(sellers[k], buyers[k], trusted[k], east, doc, price)
                    .unwrap()
            } else {
                spec.add_deal(sellers[k], buyers[k], trusted[k], doc, price)
                    .unwrap()
            };
            deals.push(deal);
            price -= margin;
        }
        for (k, &broker) in brokers.iter().enumerate() {
            spec.add_resale_constraint(broker, deals[k], deals[k + 1])
                .unwrap();
        }
        // Direct trust: each seller trusts its buyer with the configured
        // probability.
        for k in 0..=depth {
            if rng.random_bool(config.trust_density) {
                spec.add_trust(sellers[k], buyers[k]).unwrap();
            }
        }

        chains.push(ChainIds {
            consumer,
            brokers,
            producer,
            trusted,
            doc,
            deals,
        });
    }

    RandomExchange {
        spec,
        consumer,
        chains,
    }
}

/// Fraction of `samples` random exchanges (seeds `0..samples`) that are
/// feasible under `config`'s trust density — the measurement behind the
/// feasibility-vs-trust benchmark.
///
/// Generation stays serial (it is cheap and deterministic per seed); the
/// reductions fan out across OS threads via
/// [`trustseq_core::analyze_batch`]. The result is a pure function of
/// `config` and `samples`, independent of worker count.
pub fn feasibility_rate(config: &RandomConfig, samples: u64) -> f64 {
    feasibility_rate_cached(config, samples, None)
}

/// [`feasibility_rate`] with an optional shared
/// [`AnalysisCache`](trustseq_core::AnalysisCache). Random exchanges at a
/// fixed width/depth draw from a small family of structural shapes, so a
/// warm cache answers most seeds with a hash lookup. The measured rate is
/// identical with or without a cache.
pub fn feasibility_rate_cached(
    config: &RandomConfig,
    samples: u64,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> f64 {
    let specs: Vec<ExchangeSpec> = (0..samples)
        .map(|seed| {
            random_exchange(&RandomConfig {
                seed,
                ..config.clone()
            })
            .spec
        })
        .collect();
    let feasible = trustseq_core::analyze_batch_cached(&specs, cache)
        .into_iter()
        .filter(|r| r.as_ref().map(|o| o.feasible).unwrap_or(false))
        .count();
    feasible as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::analyze;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomConfig {
            seed: 42,
            ..Default::default()
        };
        let a = random_exchange(&cfg);
        let b = random_exchange(&cfg);
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_exchange(&RandomConfig {
            seed: 1,
            ..Default::default()
        });
        let b = random_exchange(&RandomConfig {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a.spec, b.spec);
    }

    #[test]
    fn width_one_is_always_feasible() {
        for seed in 0..20 {
            let ex = random_exchange(&RandomConfig {
                width: 1,
                seed,
                ..Default::default()
            });
            assert!(analyze(&ex.spec).unwrap().feasible, "seed {seed}");
        }
    }

    #[test]
    fn distrustful_bundles_are_infeasible() {
        for seed in 0..20 {
            let ex = random_exchange(&RandomConfig {
                width: 2,
                trust_density: 0.0,
                seed,
                ..Default::default()
            });
            assert!(!analyze(&ex.spec).unwrap().feasible, "seed {seed}");
        }
    }

    #[test]
    fn full_trust_makes_bundles_feasible() {
        // With every seller trusting its buyer, every chain dominos like
        // §4.2.3 variant 1.
        for seed in 0..10 {
            let ex = random_exchange(&RandomConfig {
                width: 2,
                trust_density: 1.0,
                seed,
                ..Default::default()
            });
            assert!(analyze(&ex.spec).unwrap().feasible, "seed {seed}");
        }
    }

    #[test]
    fn feasibility_rate_is_monotone_in_trust() {
        let base = RandomConfig {
            width: 2,
            max_depth: 2,
            ..Default::default()
        };
        let none = feasibility_rate(
            &RandomConfig {
                trust_density: 0.0,
                ..base.clone()
            },
            30,
        );
        let half = feasibility_rate(
            &RandomConfig {
                trust_density: 0.5,
                ..base.clone()
            },
            30,
        );
        let full = feasibility_rate(
            &RandomConfig {
                trust_density: 1.0,
                ..base
            },
            30,
        );
        assert_eq!(none, 0.0);
        assert_eq!(full, 1.0);
        assert!((0.0..=1.0).contains(&half));
        assert!(none <= half && half <= full);
    }

    #[test]
    fn federated_features_generate_and_analyze() {
        for seed in 0..20 {
            let ex = random_exchange(&RandomConfig {
                width: 2,
                max_depth: 3,
                shared_escrow_prob: 0.4,
                bridge_prob: 0.4,
                trust_density: 0.3,
                seed,
                ..Default::default()
            });
            // Structures are valid and both analyses terminate.
            ex.spec.validate().unwrap();
            let paper = analyze(&ex.spec).unwrap();
            let extended =
                trustseq_core::analyze_with(&ex.spec, trustseq_core::BuildOptions::EXTENDED)
                    .unwrap();
            // Delegation only ever helps.
            assert!(!paper.feasible || extended.feasible, "seed {seed}");
        }
    }

    #[test]
    fn federated_generation_is_deterministic() {
        let cfg = RandomConfig {
            shared_escrow_prob: 0.5,
            bridge_prob: 0.5,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(random_exchange(&cfg).spec, random_exchange(&cfg).spec);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = random_exchange(&RandomConfig {
            width: 0,
            ..Default::default()
        });
    }
}
