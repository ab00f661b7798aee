//! The replayable event journal: a JSONL audit record of one resilient
//! distributed run.
//!
//! Herlihy-style safety arguments for adversarial commerce hinge on an
//! auditable record of who decided what, when. A [`Journal`] captures a
//! resilient run as one JSON object per line: a `run_start` header
//! carrying everything needed to reproduce the run (the exchange spec
//! source, the [`FaultPlan`](crate::FaultPlan) wire string — which
//! includes the fault seed — and the [`ResilientConfig`] wire string),
//! followed by the per-node decision timeline (removals, retransmissions,
//! dedup drops, decode failures, partition healings, crash restarts, sync
//! handshakes), the final per-node views, and the verdict.
//!
//! Because a fault plan is a pure function of its seed, the journal is
//! *replayable*: re-running the header's spec under the header's plan and
//! config must reproduce every recorded event line byte for byte. The
//! CLI's `journal-replay` subcommand does exactly that and additionally
//! re-checks the recorded verdict against the centralised reducer.
//!
//! Socket runs (`dist-run`) reuse the same event schema for an *audit*
//! journal — the removals the supervisor observed, final node views and
//! the verdict — but those are **not** byte-replayable: real-socket
//! timing is non-deterministic, so `journal-replay` will correctly
//! refuse them.
//!
//! JSON is written and parsed by hand here (one flat object per line) —
//! the vendored `serde` is an API stub with no wire format.

use std::collections::BTreeMap;
use std::fmt;
use trustseq_core::obs::{escape_json, unescape_json};
use trustseq_core::{EdgeId, Rule};
use trustseq_model::AgentId;

/// One recorded event of a resilient run. Serialized as a single JSON
/// line by [`JournalEvent::to_json_line`]; the schema is documented in
/// DESIGN.md §9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// The header: everything needed to reproduce the run.
    RunStart {
        /// Journal schema version (currently 1).
        version: u32,
        /// The fault plan's canonical wire string (includes the seed).
        plan: String,
        /// The resilient config's canonical wire string.
        config: String,
        /// Whether the §9 shared-escrow extension was active when the
        /// graph was built.
        extended: bool,
        /// The exchange specification source text.
        spec: String,
    },
    /// A crashed node came back up (amnesiac) and started its sync
    /// handshakes.
    Restart {
        /// Round of the restart.
        round: usize,
        /// The restarted node.
        node: AgentId,
    },
    /// A link partition healed this round.
    PartitionHeal {
        /// First round with the link restored.
        round: usize,
        /// One endpoint.
        a: AgentId,
        /// The other endpoint.
        b: AgentId,
    },
    /// A node decided a removal (applied rule #1 or #2 locally).
    Removal {
        /// Decision round.
        round: usize,
        /// The deciding node.
        decider: AgentId,
        /// The removed edge.
        edge: EdgeId,
        /// The sanctioning rule.
        rule: Rule,
    },
    /// An unacknowledged announcement was retransmitted.
    Retransmit {
        /// Retransmission round.
        round: usize,
        /// Sender.
        from: AgentId,
        /// Addressee.
        to: AgentId,
        /// The announced edge.
        edge: EdgeId,
        /// Attempt number after this send (first retry = 2).
        attempt: usize,
    },
    /// A duplicate announcement was recognised by its sequence number and
    /// dropped.
    DedupDrop {
        /// Delivery round.
        round: usize,
        /// The receiving node.
        node: AgentId,
        /// The duplicate's sequence number.
        seq: u64,
    },
    /// A frame arrived corrupted and was rejected by the codec.
    DecodeFailure {
        /// Delivery round.
        round: usize,
        /// The receiving node.
        node: AgentId,
    },
    /// A restarted node asked a neighbour for its dead-edge view.
    SyncReq {
        /// Request round.
        round: usize,
        /// The requester.
        from: AgentId,
        /// The neighbour asked.
        to: AgentId,
    },
    /// A neighbour answered a sync request.
    SyncResp {
        /// Response round.
        round: usize,
        /// The responding neighbour.
        from: AgentId,
        /// The requester.
        to: AgentId,
        /// Edges in the responder's dead-edge view.
        dead: usize,
    },
    /// Final state of one node's view, emitted after quiescence (one per
    /// node, in agent order) — the per-node verdict.
    NodeView {
        /// The node.
        node: AgentId,
        /// Live edges remaining in its view.
        live: usize,
        /// Whether the node's own view reached the empty (feasible)
        /// fixpoint.
        decided_feasible: bool,
    },
    /// The run's verdict and protocol accounting, last line of a journal.
    Verdict {
        /// The three-valued verdict, in its display form.
        verdict: String,
        /// Rounds until quiescence or give-up.
        rounds: usize,
        /// First-transmission announcements.
        messages: usize,
        /// Retransmissions.
        retransmissions: usize,
        /// Duplicates dropped by sequence-number dedup.
        dedup_drops: usize,
        /// Frames rejected by the codec.
        decode_failures: usize,
    },
}

impl JournalEvent {
    /// The canonical `run_start` header for a run of `spec` under `plan`
    /// and `config` wire strings (`extended` records whether the §9
    /// shared-escrow build semantics were active).
    pub fn run_start(plan: String, config: String, extended: bool, spec: String) -> Self {
        JournalEvent::RunStart {
            version: 1,
            plan,
            config,
            extended,
            spec,
        }
    }

    /// Serializes the event as one flat JSON object (no newline).
    pub fn to_json_line(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        match self {
            JournalEvent::RunStart {
                version,
                plan,
                config,
                extended,
                spec,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"run_start\",\"v\":{version},\"plan\":\"{}\",\"config\":\"{}\",\"extended\":{extended},\"spec\":\"{}\"}}",
                    escape_json(plan),
                    escape_json(config),
                    escape_json(spec)
                );
            }
            JournalEvent::Restart { round, node } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"restart\",\"round\":{round},\"node\":\"{node}\"}}"
                );
            }
            JournalEvent::PartitionHeal { round, a, b } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"partition_heal\",\"round\":{round},\"a\":\"{a}\",\"b\":\"{b}\"}}"
                );
            }
            JournalEvent::Removal {
                round,
                decider,
                edge,
                rule,
            } => {
                let rule = match rule {
                    Rule::CommitmentFringe => 1,
                    Rule::ConjunctionFringe => 2,
                };
                let _ = write!(
                    out,
                    "{{\"type\":\"removal\",\"round\":{round},\"decider\":\"{decider}\",\"edge\":\"{edge}\",\"rule\":{rule}}}"
                );
            }
            JournalEvent::Retransmit {
                round,
                from,
                to,
                edge,
                attempt,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"retransmit\",\"round\":{round},\"from\":\"{from}\",\"to\":\"{to}\",\"edge\":\"{edge}\",\"attempt\":{attempt}}}"
                );
            }
            JournalEvent::DedupDrop { round, node, seq } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"dedup_drop\",\"round\":{round},\"node\":\"{node}\",\"seq\":{seq}}}"
                );
            }
            JournalEvent::DecodeFailure { round, node } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"decode_failure\",\"round\":{round},\"node\":\"{node}\"}}"
                );
            }
            JournalEvent::SyncReq { round, from, to } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"sync_req\",\"round\":{round},\"from\":\"{from}\",\"to\":\"{to}\"}}"
                );
            }
            JournalEvent::SyncResp {
                round,
                from,
                to,
                dead,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"sync_resp\",\"round\":{round},\"from\":\"{from}\",\"to\":\"{to}\",\"dead\":{dead}}}"
                );
            }
            JournalEvent::NodeView {
                node,
                live,
                decided_feasible,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"node_view\",\"node\":\"{node}\",\"live\":{live},\"decided_feasible\":{decided_feasible}}}"
                );
            }
            JournalEvent::Verdict {
                verdict,
                rounds,
                messages,
                retransmissions,
                dedup_drops,
                decode_failures,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"verdict\",\"verdict\":\"{}\",\"rounds\":{rounds},\"messages\":{messages},\"retransmissions\":{retransmissions},\"dedup_drops\":{dedup_drops},\"decode_failures\":{decode_failures}}}",
                    escape_json(verdict)
                );
            }
        }
        out
    }

    /// Parses one JSON line back into an event.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] naming the malformed fragment.
    pub fn parse_json_line(line: &str) -> Result<Self, JournalError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &'static str| -> Result<&str, JournalError> {
            fields.get(key).map(String::as_str).ok_or(JournalError {
                fragment: line.chars().take(60).collect(),
                expected: "a required journal field",
            })
        };
        let num = |key: &'static str| -> Result<usize, JournalError> {
            get(key)?.parse().map_err(|_| JournalError {
                fragment: fields.get(key).cloned().unwrap_or_default(),
                expected: "a number",
            })
        };
        let agent = |key: &'static str| -> Result<AgentId, JournalError> {
            let s = get(key)?;
            s.strip_prefix('a')
                .and_then(|n| n.parse().ok())
                .map(AgentId::new)
                .ok_or(JournalError {
                    fragment: s.to_string(),
                    expected: "an agent id like a3",
                })
        };
        let edge = |key: &'static str| -> Result<EdgeId, JournalError> {
            let s = get(key)?;
            s.strip_prefix('e')
                .and_then(|n| n.parse().ok())
                .map(EdgeId::new)
                .ok_or(JournalError {
                    fragment: s.to_string(),
                    expected: "an edge id like e2",
                })
        };
        Ok(match get("type")? {
            "run_start" => JournalEvent::RunStart {
                version: u32::try_from(num("v")?).map_err(|_| JournalError {
                    fragment: get("v").unwrap_or_default().to_string(),
                    expected: "a u32 schema version",
                })?,
                plan: get("plan")?.to_string(),
                config: get("config")?.to_string(),
                extended: match get("extended")? {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(JournalError {
                            fragment: other.to_string(),
                            expected: "true or false",
                        })
                    }
                },
                spec: get("spec")?.to_string(),
            },
            "restart" => JournalEvent::Restart {
                round: num("round")?,
                node: agent("node")?,
            },
            "partition_heal" => JournalEvent::PartitionHeal {
                round: num("round")?,
                a: agent("a")?,
                b: agent("b")?,
            },
            "removal" => JournalEvent::Removal {
                round: num("round")?,
                decider: agent("decider")?,
                edge: edge("edge")?,
                rule: match get("rule")? {
                    "1" => Rule::CommitmentFringe,
                    "2" => Rule::ConjunctionFringe,
                    other => {
                        return Err(JournalError {
                            fragment: other.to_string(),
                            expected: "rule 1 or 2",
                        })
                    }
                },
            },
            "retransmit" => JournalEvent::Retransmit {
                round: num("round")?,
                from: agent("from")?,
                to: agent("to")?,
                edge: edge("edge")?,
                attempt: num("attempt")?,
            },
            "dedup_drop" => JournalEvent::DedupDrop {
                round: num("round")?,
                node: agent("node")?,
                seq: num("seq")? as u64,
            },
            "decode_failure" => JournalEvent::DecodeFailure {
                round: num("round")?,
                node: agent("node")?,
            },
            "sync_req" => JournalEvent::SyncReq {
                round: num("round")?,
                from: agent("from")?,
                to: agent("to")?,
            },
            "sync_resp" => JournalEvent::SyncResp {
                round: num("round")?,
                from: agent("from")?,
                to: agent("to")?,
                dead: num("dead")?,
            },
            "node_view" => JournalEvent::NodeView {
                node: agent("node")?,
                live: num("live")?,
                decided_feasible: match get("decided_feasible")? {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(JournalError {
                            fragment: other.to_string(),
                            expected: "true or false",
                        })
                    }
                },
            },
            "verdict" => JournalEvent::Verdict {
                verdict: get("verdict")?.to_string(),
                rounds: num("rounds")?,
                messages: num("messages")?,
                retransmissions: num("retransmissions")?,
                dedup_drops: num("dedup_drops")?,
                decode_failures: num("decode_failures")?,
            },
            other => {
                return Err(JournalError {
                    fragment: other.to_string(),
                    expected: "a known journal event type",
                })
            }
        })
    }
}

/// Why a journal line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The offending fragment.
    pub fragment: String,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad journal fragment {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for JournalError {}

/// Parses one flat JSON object (`{"key":"string"|number|bool,...}`) into a
/// key → raw-value map; string values are unescaped, scalars kept as their
/// literal text. Nested objects/arrays are not part of the journal schema
/// and are rejected.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, String>, JournalError> {
    let err = |expected: &'static str, at: &str| JournalError {
        fragment: at.chars().take(40).collect(),
        expected,
    };
    let s = line.trim();
    let body = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| err("a {…} object", s))?;
    let mut fields = BTreeMap::new();
    let mut rest = body.trim_start();
    if rest.is_empty() {
        return Ok(fields);
    }
    loop {
        // Key.
        let key_body = rest
            .strip_prefix('"')
            .ok_or_else(|| err("a quoted key", rest))?;
        let (key_raw, after_key) =
            split_string_literal(key_body).ok_or_else(|| err("a terminated string", rest))?;
        let key = unescape_json(key_raw).ok_or_else(|| err("a valid escape", key_raw))?;
        rest = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| err("a ':' after the key", after_key))?
            .trim_start();
        // Value: string or bare scalar.
        let value;
        if let Some(vbody) = rest.strip_prefix('"') {
            let (raw, after) =
                split_string_literal(vbody).ok_or_else(|| err("a terminated string", rest))?;
            value = unescape_json(raw).ok_or_else(|| err("a valid escape", raw))?;
            rest = after.trim_start();
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let token = rest[..end].trim();
            if token.is_empty() || token.starts_with('{') || token.starts_with('[') {
                return Err(err("a string, number or bool", rest));
            }
            value = token.to_string();
            rest = rest[end..].trim_start();
        }
        fields.insert(key, value);
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
            continue;
        }
        if rest.is_empty() {
            return Ok(fields);
        }
        return Err(err("',' or end of object", rest));
    }
}

/// Splits `s` (the part after an opening quote) at its closing quote,
/// honouring backslash escapes: returns (literal body, rest after quote).
fn split_string_literal(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((&s[..i], &s[i + 1..])),
            _ => i += 1,
        }
    }
    None
}

/// Observer hooks the resilient engine reports into. The default
/// ([`NoopObserver`]) discards everything; a [`Journal`] records every
/// event as a JSON line.
pub trait RunObserver {
    /// Called once per event, in deterministic engine order.
    fn record(&mut self, event: JournalEvent);
}

/// Discards every event — the unobserved run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn record(&mut self, _event: JournalEvent) {}
}

/// An in-memory JSONL journal of one run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Journal {
    lines: Vec<String>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded JSON lines, in event order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The journal as JSONL text (one event per line, trailing newline).
    pub fn to_text(&self) -> String {
        let mut out = self.lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Parses JSONL text into a journal, validating every line.
    ///
    /// # Errors
    ///
    /// Returns the first line's [`JournalError`].
    pub fn from_text(text: &str) -> Result<Self, JournalError> {
        let mut journal = Journal::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            JournalEvent::parse_json_line(line)?;
            journal.lines.push(line.to_string());
        }
        Ok(journal)
    }

    /// Parses every line back into typed events.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's [`JournalError`].
    pub fn events(&self) -> Result<Vec<JournalEvent>, JournalError> {
        self.lines
            .iter()
            .map(|l| JournalEvent::parse_json_line(l))
            .collect()
    }

    /// The `run_start` header, which must be the first line: the plan and
    /// config wire strings, whether §9 extended semantics were active, and
    /// the spec source.
    ///
    /// # Errors
    ///
    /// Fails if the journal is empty or its first line is not a
    /// `run_start` event.
    pub fn header(&self) -> Result<(String, String, bool, String), JournalError> {
        let first = self.lines.first().ok_or(JournalError {
            fragment: String::new(),
            expected: "a non-empty journal",
        })?;
        match JournalEvent::parse_json_line(first)? {
            JournalEvent::RunStart {
                plan,
                config,
                extended,
                spec,
                ..
            } => Ok((plan, config, extended, spec)),
            _ => Err(JournalError {
                fragment: first.chars().take(40).collect(),
                expected: "a run_start header line",
            }),
        }
    }
}

impl RunObserver for Journal {
    fn record(&mut self, event: JournalEvent) {
        self.lines.push(event.to_json_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalEvent> {
        vec![
            JournalEvent::run_start(
                "seed=7;drop=100;dup=0;delay=0".into(),
                "attempts=16;ack=2;backoff=32;rounds=10000".into(),
                false,
                "exchange \"x\" {\n  # comment\n}\n".into(),
            ),
            JournalEvent::Restart {
                round: 5,
                node: AgentId::new(3),
            },
            JournalEvent::PartitionHeal {
                round: 3,
                a: AgentId::new(1),
                b: AgentId::new(2),
            },
            JournalEvent::Removal {
                round: 2,
                decider: AgentId::new(0),
                edge: EdgeId::new(5),
                rule: Rule::CommitmentFringe,
            },
            JournalEvent::Removal {
                round: 2,
                decider: AgentId::new(0),
                edge: EdgeId::new(6),
                rule: Rule::ConjunctionFringe,
            },
            JournalEvent::Retransmit {
                round: 4,
                from: AgentId::new(0),
                to: AgentId::new(2),
                edge: EdgeId::new(5),
                attempt: 2,
            },
            JournalEvent::DedupDrop {
                round: 4,
                node: AgentId::new(2),
                seq: 7,
            },
            JournalEvent::DecodeFailure {
                round: 4,
                node: AgentId::new(2),
            },
            JournalEvent::SyncReq {
                round: 5,
                from: AgentId::new(3),
                to: AgentId::new(1),
            },
            JournalEvent::SyncResp {
                round: 6,
                from: AgentId::new(1),
                to: AgentId::new(3),
                dead: 4,
            },
            JournalEvent::NodeView {
                node: AgentId::new(2),
                live: 0,
                decided_feasible: true,
            },
            JournalEvent::Verdict {
                verdict: "feasible".into(),
                rounds: 9,
                messages: 24,
                retransmissions: 3,
                dedup_drops: 1,
                decode_failures: 0,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for event in samples() {
            let line = event.to_json_line();
            assert_eq!(
                JournalEvent::parse_json_line(&line).unwrap(),
                event,
                "{line}"
            );
        }
    }

    #[test]
    fn journal_text_round_trips() {
        let mut journal = Journal::new();
        for event in samples() {
            journal.record(event);
        }
        let text = journal.to_text();
        let parsed = Journal::from_text(&text).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.events().unwrap(), samples());
        let (plan, config, extended, spec) = parsed.header().unwrap();
        assert_eq!(plan, "seed=7;drop=100;dup=0;delay=0");
        assert_eq!(config, "attempts=16;ack=2;backoff=32;rounds=10000");
        assert!(!extended);
        assert!(spec.contains("# comment"));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for line in [
            "",
            "not json",
            "{\"type\":\"unknown_event\"}",
            "{\"type\":\"restart\",\"round\":5}",
            "{\"type\":\"restart\",\"round\":\"x\",\"node\":\"a1\"}",
            "{\"type\":\"removal\",\"round\":1,\"decider\":\"a0\",\"edge\":\"e1\",\"rule\":3}",
            "{\"type\":\"run_start\",\"v\":1,\"plan\":{},\"config\":\"\",\"spec\":\"\"}",
            // The u32 schema version is rejected past u32::MAX, not truncated.
            "{\"type\":\"run_start\",\"v\":4294967297,\"plan\":\"\",\"config\":\"\",\"extended\":false,\"spec\":\"\"}",
            "{\"type\":\"restart\" \"round\":5,\"node\":\"a1\"}",
            "{\"type\":\"restart\",\"round\":5,\"node\":\"a1\"} trailing",
        ] {
            assert!(JournalEvent::parse_json_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn header_requires_run_start_first() {
        let mut journal = Journal::new();
        journal.record(JournalEvent::Restart {
            round: 1,
            node: AgentId::new(0),
        });
        assert!(journal.header().is_err());
        assert!(Journal::new().header().is_err());
    }

    #[test]
    fn spec_sources_with_quotes_and_newlines_survive() {
        let spec = "line1 \"quoted\" \\ backslash\nline2\ttabbed\n";
        let event = JournalEvent::run_start(
            "seed=0;drop=0;dup=0;delay=0".into(),
            "c".into(),
            true,
            spec.into(),
        );
        let line = event.to_json_line();
        assert!(!line.contains('\n'), "journal lines must be single lines");
        match JournalEvent::parse_json_line(&line).unwrap() {
            JournalEvent::RunStart { spec: parsed, .. } => assert_eq!(parsed, spec),
            other => panic!("{other:?}"),
        }
    }
}
