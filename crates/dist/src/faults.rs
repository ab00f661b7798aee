//! Deterministic fault injection: seeded plans of message drops,
//! duplications, delays, link partitions and node crashes.
//!
//! A [`FaultPlan`] is a pure function of its seed: every question the
//! transport or engine asks ("does transmission #17 get dropped?", "is the
//! a1–a3 link cut in round 4?") is answered by hashing the seed with the
//! question, so a run under a plan is exactly reproducible and two runs
//! with the same plan see the same faults in the same places. No RNG state
//! is threaded through the protocol itself.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use trustseq_core::CoreError;
use trustseq_model::{AgentId, ModelError};

/// A scheduled crash of one participant.
///
/// The node is down from `at_round` (inclusive, 1-based like the engine's
/// round counter) until `restart_at` (exclusive); `None` means it never
/// comes back. A down node makes no proposals, sends nothing, and loses
/// every message addressed to it. On restart the node has forgotten its
/// liveness view (amnesia) and re-synchronises from its neighbours; its
/// queue of announced-but-unacknowledged removals survives the crash (a
/// write-ahead log in systems terms), so announcements are never silently
/// lost with their sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crash {
    /// First round during which the node is down.
    pub at_round: usize,
    /// The round in which the node is back up, or `None` for a permanent
    /// crash.
    pub restart_at: Option<usize>,
}

/// A bidirectional link cut between two participants over a round
/// interval `[from_round, until_round)`; `usize::MAX` as `until_round`
/// partitions the pair forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One endpoint.
    pub a: AgentId,
    /// The other endpoint.
    pub b: AgentId,
    /// First round in which the link is cut.
    pub from_round: usize,
    /// First round in which the link is healed (`usize::MAX` = never).
    pub until_round: usize,
}

/// A seeded, deterministic fault schedule for one distributed run.
///
/// Probabilities are expressed in per-mille (`0..=1000`) so plans compare
/// and round-trip exactly — no floating point is stored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    drop_per_mille: u16,
    dup_per_mille: u16,
    corrupt_per_mille: u16,
    max_extra_delay: u64,
    crashes: BTreeMap<AgentId, Crash>,
    partitions: Vec<Partition>,
}

/// Independent hash streams for the per-transmission decisions.
const STREAM_DROP: u64 = 0x1;
const STREAM_DUP: u64 = 0x2;
const STREAM_DELAY: u64 = 0x3;
const STREAM_DUP_DELAY: u64 = 0x4;
const STREAM_CORRUPT: u64 = 0x5;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The fault-free plan: every message is delivered once, on the next
    /// round, and nobody crashes.
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// A fault-free plan carrying `seed`; combine with the builder methods
    /// to switch individual fault classes on.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            corrupt_per_mille: 0,
            max_extra_delay: 0,
            crashes: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    /// Sets the per-transmission drop probability, in per-mille (clamped
    /// to 1000).
    #[must_use]
    pub fn with_drop_per_mille(mut self, p: u16) -> Self {
        self.drop_per_mille = p.min(1000);
        self
    }

    /// Sets the per-transmission duplication probability, in per-mille
    /// (clamped to 1000).
    #[must_use]
    pub fn with_dup_per_mille(mut self, p: u16) -> Self {
        self.dup_per_mille = p.min(1000);
        self
    }

    /// Sets the per-transmission frame-corruption probability, in
    /// per-mille (clamped to 1000). A corrupted frame arrives truncated:
    /// the receiver's codec rejects it with a typed error and the engine
    /// treats it as a loss (retransmission absorbs it).
    #[must_use]
    pub fn with_corrupt_per_mille(mut self, p: u16) -> Self {
        self.corrupt_per_mille = p.min(1000);
        self
    }

    /// Sets the maximum *extra* delivery delay in rounds (on top of the
    /// baseline one-round latency). Differential delays reorder messages.
    #[must_use]
    pub fn with_max_extra_delay(mut self, rounds: u64) -> Self {
        self.max_extra_delay = rounds;
        self
    }

    /// Schedules `agent` to crash (replacing any earlier schedule for it).
    #[must_use]
    pub fn with_crash(mut self, agent: AgentId, crash: Crash) -> Self {
        self.crashes.insert(agent, crash);
        self
    }

    /// Adds a link partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-transmission drop probability in per-mille.
    pub fn drop_per_mille(&self) -> u16 {
        self.drop_per_mille
    }

    /// The per-transmission duplication probability in per-mille.
    pub fn dup_per_mille(&self) -> u16 {
        self.dup_per_mille
    }

    /// The per-transmission frame-corruption probability in per-mille.
    pub fn corrupt_per_mille(&self) -> u16 {
        self.corrupt_per_mille
    }

    /// The maximum extra delivery delay in rounds.
    pub fn max_extra_delay(&self) -> u64 {
        self.max_extra_delay
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &BTreeMap<AgentId, Crash> {
        &self.crashes
    }

    /// The scheduled link partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// `true` when the plan injects no fault at all (message fates and
    /// node liveness are exactly the reliable network's).
    pub fn is_faultless(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.max_extra_delay == 0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    fn roll(&self, transmission: u64, stream: u64) -> u64 {
        splitmix64(
            self.seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(transmission)
                .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
    }

    /// Whether transmission number `transmission` is dropped in flight.
    pub fn drops(&self, transmission: u64) -> bool {
        self.roll(transmission, STREAM_DROP) % 1000 < u64::from(self.drop_per_mille)
    }

    /// Whether transmission number `transmission` is duplicated.
    pub fn duplicates(&self, transmission: u64) -> bool {
        self.roll(transmission, STREAM_DUP) % 1000 < u64::from(self.dup_per_mille)
    }

    /// Whether transmission number `transmission` arrives corrupted
    /// (truncated in flight; the receiver's codec will reject it).
    pub fn corrupts(&self, transmission: u64) -> bool {
        self.roll(transmission, STREAM_CORRUPT) % 1000 < u64::from(self.corrupt_per_mille)
    }

    /// The extra delivery delay (in rounds) of transmission `transmission`
    /// — `0..=max_extra_delay`.
    pub fn extra_delay(&self, transmission: u64) -> u64 {
        self.delay_on(transmission, STREAM_DELAY)
    }

    /// The extra delay of the *duplicate* copy of transmission
    /// `transmission` (decided on an independent stream so the copies
    /// reorder against each other).
    pub fn dup_extra_delay(&self, transmission: u64) -> u64 {
        self.delay_on(transmission, STREAM_DUP_DELAY)
    }

    /// A roll on `stream` reduced to `0..=max_extra_delay`; at
    /// `max_extra_delay == u64::MAX` every roll is already in range.
    fn delay_on(&self, transmission: u64, stream: u64) -> u64 {
        if self.max_extra_delay == 0 {
            return 0;
        }
        let roll = self.roll(transmission, stream);
        match self.max_extra_delay.checked_add(1) {
            Some(range) => roll % range,
            None => roll,
        }
    }

    /// Whether `agent` is down in `round`.
    pub fn is_down(&self, agent: AgentId, round: usize) -> bool {
        self.crashes
            .get(&agent)
            .is_some_and(|c| round >= c.at_round && c.restart_at.map(|r| round < r).unwrap_or(true))
    }

    /// The round in which `agent` restarts, if it crashes and comes back.
    pub fn restart_round(&self, agent: AgentId) -> Option<usize> {
        self.crashes.get(&agent).and_then(|c| c.restart_at)
    }

    /// Whether the `x`–`y` link is cut in `round` (in either direction).
    pub fn is_cut(&self, x: AgentId, y: AgentId, round: usize) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == x && p.b == y) || (p.a == y && p.b == x))
                && round >= p.from_round
                && round < p.until_round
        })
    }

    /// Every agent the plan names (crash schedules and partition
    /// endpoints), for validation against a participant set.
    pub fn named_agents(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.crashes
            .keys()
            .copied()
            .chain(self.partitions.iter().flat_map(|p| [p.a, p.b]))
    }

    /// The check every runtime makes before it starts: the plan names only
    /// `participants`, and schedules no crash unless the runtime
    /// `simulates_crashes` (a socket run crashes a node by killing it).
    ///
    /// # Errors
    ///
    /// The first agent named that is not a participant, else the first
    /// crash the runtime cannot honour.
    pub fn check(
        &self,
        participants: &BTreeSet<AgentId>,
        simulates_crashes: bool,
    ) -> Result<(), PlanError> {
        match self.named_agents().find(|a| !participants.contains(a)) {
            Some(agent) => Err(PlanError::UnknownAgent(agent)),
            None => match self.crashes.keys().next() {
                Some(&agent) if !simulates_crashes => Err(PlanError::CrashNotSimulated(agent)),
                _ => Ok(()),
            },
        }
    }
}

/// Why a runtime refuses a fault plan ([`FaultPlan::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan names an agent that runs no node.
    UnknownAgent(AgentId),
    /// The plan crashes this agent on a runtime that simulates no crash.
    CrashNotSimulated(AgentId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Word for word what the in-process runtime's `CoreError` says.
            PlanError::UnknownAgent(a) => CoreError::Model(ModelError::UnknownAgent(*a)).fmt(f),
            PlanError::CrashNotSimulated(a) => write!(
                f,
                "the fault plan's `crash=` schedule for {a} is honoured only by `dist`; \
                 a socket run crashes a node by killing its process (see `chaos-sockets`)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Canonical text form, e.g.
/// `seed=7;drop=100;dup=50;delay=2;crash=a3@4..9,a5@2..;cut=a1~a2@3..7`.
/// Empty fault classes are omitted (`corrupt` included, so pre-corruption
/// plan strings render unchanged); [`FaultPlan::from_str`] parses it back
/// exactly (the round-trip is property-tested).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={};drop={};dup={};delay={}",
            self.seed, self.drop_per_mille, self.dup_per_mille, self.max_extra_delay
        )?;
        if self.corrupt_per_mille != 0 {
            write!(f, ";corrupt={}", self.corrupt_per_mille)?;
        }
        if !self.crashes.is_empty() {
            write!(f, ";crash=")?;
            for (i, (agent, crash)) in self.crashes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                match crash.restart_at {
                    Some(r) => write!(f, "{agent}@{}..{r}", crash.at_round)?,
                    None => write!(f, "{agent}@{}..", crash.at_round)?,
                }
            }
        }
        if !self.partitions.is_empty() {
            write!(f, ";cut=")?;
            for (i, p) in self.partitions.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                if p.until_round == usize::MAX {
                    write!(f, "{}~{}@{}..", p.a, p.b, p.from_round)?;
                } else {
                    write!(f, "{}~{}@{}..{}", p.a, p.b, p.from_round, p.until_round)?;
                }
            }
        }
        Ok(())
    }
}

/// Why a fault-plan string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError {
    /// The offending fragment.
    pub fragment: String,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan fragment {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for FaultPlanParseError {}

fn bad(fragment: &str, expected: &'static str) -> FaultPlanParseError {
    FaultPlanParseError {
        fragment: fragment.to_string(),
        expected,
    }
}

fn parse_agent(s: &str) -> Result<AgentId, FaultPlanParseError> {
    s.strip_prefix('a')
        .and_then(|n| n.parse::<u32>().ok())
        .map(AgentId::new)
        .ok_or_else(|| bad(s, "an agent id like a3"))
}

fn parse_per_mille(s: &str) -> Result<u16, FaultPlanParseError> {
    s.parse()
        .ok()
        .filter(|p| *p <= 1000)
        .ok_or_else(|| bad(s, "per-mille 0..=1000"))
}

fn parse_span(s: &str) -> Result<(usize, Option<usize>), FaultPlanParseError> {
    let (from, until) = s
        .split_once("..")
        .ok_or_else(|| bad(s, "a span like 4..9 or 4.."))?;
    let from = from.parse().map_err(|_| bad(s, "a round number"))?;
    let until = if until.is_empty() {
        None
    } else {
        Some(until.parse().map_err(|_| bad(s, "a round number"))?)
    };
    Ok((from, until))
}

impl FromStr for FaultPlan {
    type Err = FaultPlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::none();
        for field in s.split(';').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(field, "a key=value field"))?;
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad(value, "a u64 seed"))?,
                "drop" => plan.drop_per_mille = parse_per_mille(value)?,
                "dup" => plan.dup_per_mille = parse_per_mille(value)?,
                "corrupt" => plan.corrupt_per_mille = parse_per_mille(value)?,
                "delay" => {
                    plan.max_extra_delay = value.parse().map_err(|_| bad(value, "a round count"))?
                }
                "crash" => {
                    for entry in value.split(',').filter(|e| !e.is_empty()) {
                        let (agent, span) = entry
                            .split_once('@')
                            .ok_or_else(|| bad(entry, "a crash like a3@4..9"))?;
                        let agent = parse_agent(agent)?;
                        let (at_round, restart_at) = parse_span(span)?;
                        plan.crashes.insert(
                            agent,
                            Crash {
                                at_round,
                                restart_at,
                            },
                        );
                    }
                }
                "cut" => {
                    for entry in value.split(',').filter(|e| !e.is_empty()) {
                        let (pair, span) = entry
                            .split_once('@')
                            .ok_or_else(|| bad(entry, "a cut like a1~a2@3..7"))?;
                        let (a, b) = pair
                            .split_once('~')
                            .ok_or_else(|| bad(pair, "an agent pair like a1~a2"))?;
                        let (from_round, until) = parse_span(span)?;
                        plan.partitions.push(Partition {
                            a: parse_agent(a)?,
                            b: parse_agent(b)?,
                            from_round,
                            until_round: until.unwrap_or(usize::MAX),
                        });
                    }
                }
                _ => return Err(bad(key, "seed, drop, dup, corrupt, delay, crash or cut")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_faultless());
        for t in 0..1000 {
            assert!(!plan.drops(t));
            assert!(!plan.duplicates(t));
            assert_eq!(plan.extra_delay(t), 0);
        }
        assert!(!plan.is_down(AgentId::new(0), 5));
        assert!(!plan.is_cut(AgentId::new(0), AgentId::new(1), 5));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::seeded(42).with_drop_per_mille(300);
        let dropped = (0..10_000u64).filter(|&t| plan.drops(t)).count();
        // Deterministic given the seed; roughly 30% of transmissions.
        assert!((2_700..3_300).contains(&dropped), "{dropped}");
        // And exactly reproducible.
        let again = (0..10_000u64).filter(|&t| plan.drops(t)).count();
        assert_eq!(dropped, again);
    }

    #[test]
    fn streams_are_independent() {
        let plan = FaultPlan::seeded(7)
            .with_drop_per_mille(500)
            .with_dup_per_mille(500);
        let both = (0..10_000u64)
            .filter(|&t| plan.drops(t) && plan.duplicates(t))
            .count();
        // If the streams were correlated this would be ~5000 or ~0.
        assert!((2_000..3_000).contains(&both), "{both}");
    }

    #[test]
    fn crash_window_and_restart() {
        let a = AgentId::new(3);
        let plan = FaultPlan::none().with_crash(
            a,
            Crash {
                at_round: 4,
                restart_at: Some(9),
            },
        );
        assert!(!plan.is_down(a, 3));
        assert!(plan.is_down(a, 4));
        assert!(plan.is_down(a, 8));
        assert!(!plan.is_down(a, 9));
        assert_eq!(plan.restart_round(a), Some(9));

        let forever = FaultPlan::none().with_crash(
            a,
            Crash {
                at_round: 2,
                restart_at: None,
            },
        );
        assert!(forever.is_down(a, 1_000_000));
        assert_eq!(forever.restart_round(a), None);
    }

    #[test]
    fn partitions_are_symmetric_and_bounded() {
        let (x, y, z) = (AgentId::new(0), AgentId::new(1), AgentId::new(2));
        let plan = FaultPlan::none().with_partition(Partition {
            a: x,
            b: y,
            from_round: 3,
            until_round: 7,
        });
        assert!(plan.is_cut(x, y, 3));
        assert!(plan.is_cut(y, x, 6));
        assert!(!plan.is_cut(x, y, 7));
        assert!(!plan.is_cut(x, z, 5));
    }

    #[test]
    fn display_and_parse_round_trip() {
        let plan = FaultPlan::seeded(99)
            .with_drop_per_mille(100)
            .with_dup_per_mille(50)
            .with_max_extra_delay(2)
            .with_crash(
                AgentId::new(3),
                Crash {
                    at_round: 4,
                    restart_at: Some(9),
                },
            )
            .with_crash(
                AgentId::new(5),
                Crash {
                    at_round: 2,
                    restart_at: None,
                },
            )
            .with_partition(Partition {
                a: AgentId::new(1),
                b: AgentId::new(2),
                from_round: 3,
                until_round: usize::MAX,
            });
        let text = plan.to_string();
        assert_eq!(
            text,
            "seed=99;drop=100;dup=50;delay=2;crash=a3@4..9,a5@2..;cut=a1~a2@3.."
        );
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
        // The trivial plan round-trips too.
        let plain = FaultPlan::none();
        assert_eq!(plain.to_string().parse::<FaultPlan>().unwrap(), plain);
    }

    #[test]
    fn corruption_stream_is_seeded_and_round_trips() {
        let plan = FaultPlan::seeded(11).with_corrupt_per_mille(250);
        assert!(!plan.is_faultless());
        let corrupted = (0..10_000u64).filter(|&t| plan.corrupts(t)).count();
        assert!((2_100..2_900).contains(&corrupted), "{corrupted}");
        assert_eq!(
            corrupted,
            (0..10_000u64).filter(|&t| plan.corrupts(t)).count()
        );
        // Independent of the drop stream.
        let both = FaultPlan::seeded(11)
            .with_drop_per_mille(500)
            .with_corrupt_per_mille(500);
        let overlap = (0..10_000u64)
            .filter(|&t| both.drops(t) && both.corrupts(t))
            .count();
        assert!((2_000..3_000).contains(&overlap), "{overlap}");
        // Wire round-trip, and omission when zero keeps old strings stable.
        let text = plan.to_string();
        assert_eq!(text, "seed=11;drop=0;dup=0;delay=0;corrupt=250");
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
        assert!(!FaultPlan::none().to_string().contains("corrupt"));
    }

    #[test]
    fn largest_delay_bound_is_total() {
        let plan = FaultPlan::seeded(1).with_max_extra_delay(u64::MAX);
        for t in 0..1000 {
            // Every u64 is in 0..=u64::MAX; the point is not panicking.
            let _ = plan.extra_delay(t);
            let _ = plan.dup_extra_delay(t);
        }
        assert!((0..1000).any(|t| plan.extra_delay(t) > 1 << 32));
        let parsed: FaultPlan = "seed=1;delay=18446744073709551615".parse().unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn per_mille_fields_reject_values_above_1000() {
        for key in ["drop", "dup", "corrupt"] {
            assert!(format!("seed=1;{key}=1000").parse::<FaultPlan>().is_ok());
            let err = format!("seed=1;{key}=1001")
                .parse::<FaultPlan>()
                .unwrap_err();
            assert_eq!(
                err,
                FaultPlanParseError {
                    fragment: "1001".into(),
                    expected: "per-mille 0..=1000",
                },
                "{key}"
            );
            assert!(format!("seed=1;{key}=5000").parse::<FaultPlan>().is_err());
        }
    }

    #[test]
    fn check_refuses_strangers_and_unsimulated_crashes() {
        let participants: BTreeSet<AgentId> = [AgentId::new(0), AgentId::new(1)].into();
        let crash: FaultPlan = "seed=1;crash=a1@2..5".parse().unwrap();
        assert_eq!(crash.check(&participants, true), Ok(()));
        assert_eq!(
            crash.check(&participants, false),
            Err(PlanError::CrashNotSimulated(AgentId::new(1)))
        );
        // A stranger is reported first, whatever the runtime.
        let stranger: FaultPlan = "seed=1;crash=a1@2..;cut=a0~a7@1..".parse().unwrap();
        for simulates_crashes in [true, false] {
            let err = stranger
                .check(&participants, simulates_crashes)
                .unwrap_err();
            assert_eq!(err, PlanError::UnknownAgent(AgentId::new(7)));
            assert_eq!(err.to_string(), "model error: unknown agent a7");
        }
        assert_eq!(FaultPlan::none().check(&BTreeSet::new(), false), Ok(()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("nonsense".parse::<FaultPlan>().is_err());
        assert!("seed=xyz".parse::<FaultPlan>().is_err());
        assert!("crash=a3".parse::<FaultPlan>().is_err());
        assert!("crash=b3@1..2".parse::<FaultPlan>().is_err());
        assert!("cut=a1-a2@3..7".parse::<FaultPlan>().is_err());
        let err = "frobnicate=1".parse::<FaultPlan>().unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
