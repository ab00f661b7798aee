//! Structured observability: counters, histograms and spans with a
//! zero-cost disabled path.
//!
//! Every hot subsystem in the workspace (the reducers, the analysis
//! cache, the worker pool, the resilient distributed engine) carries
//! instrumentation points that report into a process-global [`Recorder`].
//! By default the recorder is [`NoopRecorder`] and **disabled**: each
//! instrumentation site is guarded by [`enabled`], a single relaxed
//! atomic load, so the disabled path performs no locking, no formatting
//! and — crucially — no heap allocation. The counting-allocator test in
//! `crates/core/tests/alloc.rs` asserts that the zero-allocation
//! steady-state guarantee of the scratch reducer survives with the
//! instrumentation compiled in.
//!
//! # Clocks
//!
//! Spans come in two flavours, matching the two notions of time in the
//! workspace:
//!
//! * **Wall clock** ([`Span::wall`]): a monotonic [`Instant`] pair, used
//!   by purely local subsystems (cache interning, pool dispatch). Values
//!   are recorded in nanoseconds.
//! * **Virtual clock** ([`VirtualClock`], [`Span::virtual_at`]): the
//!   simulated round counter of the distributed/simulated engines. Fault
//!   plans are pure functions of their seed, so round-based durations
//!   are deterministic and replayable — wall time would not be. Values
//!   are recorded in rounds (ticks).
//!
//! # Metric namespaces
//!
//! Metric names are dot-separated, with the first segment naming the
//! emitting subsystem. The taxonomy in use across the workspace:
//!
//! * `reduce.*` — reduction engines: `runs`, `removals`,
//!   `candidates_scanned`, `worklist_peak`, `bitset_words`,
//!   `verdict_only_runs`.
//! * `cache.*` — the analysis cache: `misses`, `evictions`, `expired`
//!   (TTL evictions), `invalidations`, `intern_ns`.
//! * `pool.*` — the worker pool: `jobs`, `width`, `panics`,
//!   `dispatch_ns`, `worker_busy_ns`.
//! * `delta.*` — incremental re-analysis: `applied`, `undone_steps`,
//!   `fallbacks`, `full_runs`.
//! * `dist.*` — the simulated distributed engine: `runs`, `rounds`,
//!   `messages`, `relays`, `retransmissions`, `dedup_drops`,
//!   `decode_failures`, `verdict.{feasible,infeasible,undecided}`.
//! * `net.*` — the socket transport: `frames_rx`, `bytes_sent`,
//!   `reconnects`, `rtt_us`.
//! * `svc.*` — the always-on analysis service: per-request-kind
//!   counters `analyze` / `mutate` / `spec` / `stats`, the end-to-end
//!   `request_ns` histogram, admission outcomes
//!   `rejected.{quota,overloaded,draining,malformed,unknown}`, plus
//!   `enqueued`, `conns`, `proto_drops` (undecodable input →
//!   disconnect) and `slow_drops` (stalled partial frames →
//!   disconnect). The event-stream protocol adds
//!   `events` (lifecycle `event` frames processed), `events_admitted`
//!   (structures admitted hot by a `post` on an unseen id) and
//!   `events_noop` (idempotent re-applications of a toggle already in
//!   the requested state).
//!
//! New instrumentation should claim the existing namespace of the
//! subsystem it lives in, or introduce a new first segment; never reuse
//! a foreign prefix.
//!
//! # Registry
//!
//! [`MetricsRegistry`] is the standard [`Recorder`]: a lock-striped
//! metric table mirroring the [`AnalysisCache`](crate::AnalysisCache)
//! shard design (metric names hash to one of a fixed power-of-two number
//! of `parking_lot` shards). [`MetricsRegistry::snapshot`] locks every
//! shard in a fixed order before reading, so a snapshot is never torn
//! across shards. Snapshots render as an aligned text table or as JSON.
//!
//! ```
//! use trustseq_core::obs::{self, MetricsRegistry};
//!
//! let registry: &'static MetricsRegistry = Box::leak(Box::default());
//! obs::install(registry);
//! obs::with(|r| r.counter("demo.widgets", 3));
//! obs::uninstall();
//! assert_eq!(registry.snapshot().counter("demo.widgets"), Some(3));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use parking_lot::Mutex;

/// Sink for structured telemetry. Implementations must be cheap and
/// re-entrant: instrumentation sites call from pool workers concurrently.
pub trait Recorder: Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Records one observation of `value` into the named histogram.
    fn observe(&self, name: &str, value: u64);
}

/// A [`Recorder`] that discards everything. With the global recorder
/// unset this is what instrumentation sites would reach — but they never
/// do, because [`enabled`] short-circuits first; the disabled path is a
/// single relaxed atomic load.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn counter(&self, _name: &str, _delta: u64) {}
    #[inline(always)]
    fn observe(&self, _name: &str, _value: u64) {}
}

/// Fast-path gate: instrumentation sites check this before doing any
/// work (formatting a metric name, timing a span, taking a lock).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. `RwLock` rather than `OnceLock` so tests can
/// install, exercise and uninstall recorders in one process (the on/off
/// byte-identity proptests depend on this). Poisoning is ignored — the
/// guarded value is a plain reference that cannot be left half-written.
static RECORDER: RwLock<Option<&'static (dyn Recorder + Sync)>> = RwLock::new(None);

/// Whether a recorder is installed. One relaxed atomic load; every
/// instrumentation site is gated on this so the disabled path costs
/// nothing and allocates nothing.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the process-global telemetry sink and enables
/// every instrumentation site. The reference must be `'static` — leak a
/// boxed registry (`Box::leak(Box::default())`) for process-lifetime
/// recorders.
pub fn install(recorder: &'static (dyn Recorder + Sync)) {
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Disables instrumentation and detaches the current recorder. The
/// previously installed recorder keeps whatever it accumulated (it is
/// `'static`); callers can snapshot it after uninstalling.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Runs `f` against the installed recorder, if any. Callers should gate
/// on [`enabled`] *before* computing anything expensive to pass in; this
/// function re-checks under the read lock so a racing [`uninstall`] is
/// safe.
#[inline]
pub fn with<F: FnOnce(&dyn Recorder)>(f: F) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = *RECORDER.read().unwrap_or_else(|e| e.into_inner()) {
        f(recorder);
    }
}

// ---------------------------------------------------------------------------
// Clocks and spans
// ---------------------------------------------------------------------------

/// A monotonic virtual clock: a tick counter advanced explicitly by the
/// owning engine (the distributed engines tick once per message round).
/// Deterministic — two runs of the same seeded fault plan see identical
/// tick streams, which is what makes recorded span durations replayable.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.ticks.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute tick (monotonicity is the caller's
    /// responsibility; the engines only ever move it forward).
    pub fn set(&self, tick: u64) {
        self.ticks.store(tick, Ordering::Relaxed);
    }
}

/// Start of a span: wall or virtual. Ended explicitly with
/// [`Span::finish`], which records the elapsed duration as one histogram
/// observation (nanoseconds for wall spans, ticks for virtual spans).
///
/// Spans are plain values, not RAII guards: instrumentation sites only
/// construct them when [`enabled`] already returned `true`, so the
/// disabled path never touches the clock.
#[derive(Debug)]
pub struct Span {
    start: SpanStart,
}

#[derive(Debug)]
enum SpanStart {
    Wall(Instant),
    Virtual(u64),
}

impl Span {
    /// Starts a wall-clock span (nanosecond resolution).
    pub fn wall() -> Self {
        Span {
            start: SpanStart::Wall(Instant::now()),
        }
    }

    /// Starts a virtual-clock span at the clock's current tick.
    pub fn virtual_at(clock: &VirtualClock) -> Self {
        Span {
            start: SpanStart::Virtual(clock.now()),
        }
    }

    /// Elapsed duration in the span's own unit (ns or ticks) without
    /// recording it.
    pub fn elapsed(&self, clock: Option<&VirtualClock>) -> u64 {
        match &self.start {
            SpanStart::Wall(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            SpanStart::Virtual(start) => clock.map_or(0, |c| c.now().saturating_sub(*start)),
        }
    }

    /// Records the elapsed duration under `name` in the installed
    /// recorder. Virtual spans need the clock back to read "now".
    pub fn finish(self, name: &str, clock: Option<&VirtualClock>) {
        let value = self.elapsed(clock);
        with(|r| r.observe(name, value));
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Shard count for the metric table. Mirrors the `AnalysisCache` design:
/// a power of two so the hash can be masked, small enough that a
/// full-table snapshot (which locks every shard) stays cheap.
const SHARDS: usize = 8;

/// One metric: a monotonic counter or a min/max/sum/count histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Aggregated distribution of observed values.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values (saturating).
        sum: u64,
        /// Smallest observed value.
        min: u64,
        /// Largest observed value.
        max: u64,
    },
}

impl Metric {
    fn add(&mut self, delta: u64) {
        if let Metric::Counter(n) = self {
            *n = n.saturating_add(delta);
        }
    }

    fn record(&mut self, value: u64) {
        if let Metric::Histogram {
            count,
            sum,
            min,
            max,
        } = self
        {
            *count += 1;
            *sum = sum.saturating_add(value);
            *min = (*min).min(value);
            *max = (*max).max(value);
        }
    }
}

/// Lock-striped [`Recorder`]: metric names hash (FNV-1a) onto 8
/// `parking_lot` mutexes, each guarding an ordered name → [`Metric`]
/// table. Writers touch exactly one shard; [`snapshot`](Self::snapshot)
/// locks all shards in index order for a torn-free read.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: [Mutex<BTreeMap<String, Metric>>; SHARDS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name bytes; cheap and stable.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a torn-free snapshot: all shards are locked (in index
    /// order) before any is read, so no metric can move between shards'
    /// reads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut metrics = BTreeMap::new();
        for guard in &guards {
            for (name, metric) in guard.iter() {
                metrics.insert(name.clone(), *metric);
            }
        }
        MetricsSnapshot { metrics }
    }

    /// Clears every metric (snapshot discipline: all shards locked
    /// first).
    pub fn reset(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        for guard in &mut guards {
            guard.clear();
        }
    }
}

impl Recorder for MetricsRegistry {
    fn counter(&self, name: &str, delta: u64) {
        let mut shard = self.shards[shard_of(name)].lock();
        shard
            .entry(name.to_owned())
            .or_insert(Metric::Counter(0))
            .add(delta);
    }

    fn observe(&self, name: &str, value: u64) {
        let mut shard = self.shards[shard_of(name)].lock();
        shard
            .entry(name.to_owned())
            .or_insert(Metric::Histogram {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            })
            .record(value);
    }
}

/// A consistent point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// The named counter's value, if it exists and is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// The named histogram, if it exists and is a histogram.
    pub fn histogram(&self, name: &str) -> Option<Metric> {
        match self.metrics.get(name) {
            Some(m @ Metric::Histogram { .. }) => Some(*m),
            _ => None,
        }
    }

    /// All metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders an aligned text table (`name  value` for counters,
    /// `name  count/sum/min/max` for histograms), sorted by name.
    pub fn render_table(&self) -> String {
        let width = self
            .metrics
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        use fmt::Write as _;
        let _ = writeln!(out, "{:<width$}  value", "metric");
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(n) => {
                    let _ = writeln!(out, "{name:<width$}  {n}");
                }
                Metric::Histogram {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let (lo, mean) = if *count == 0 {
                        (0, 0)
                    } else {
                        (*min, sum / count)
                    };
                    let _ = writeln!(
                        out,
                        "{name:<width$}  count={count} sum={sum} min={lo} mean={mean} max={max}"
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object (hand-rolled — the
    /// vendored serde is an API stub with no wire format). Counter
    /// metrics map to numbers, histograms to
    /// `{"count":…,"sum":…,"min":…,"max":…}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(name));
            out.push_str("\":");
            match metric {
                Metric::Counter(n) => out.push_str(&n.to_string()),
                Metric::Histogram {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let lo = if *count == 0 { 0 } else { *min };
                    out.push_str(&format!(
                        "{{\"count\":{count},\"sum\":{sum},\"min\":{lo},\"max\":{max}}}"
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal. Shared by
/// the metrics renderer and the distributed event journal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Unescapes a JSON string literal body produced by [`escape_json`] (or
/// any standard JSON encoder; `\uXXXX` escapes are decoded, surrogate
/// pairs included). Returns `None` on a malformed escape.
pub fn unescape_json(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let unit = u32::from_str_radix(&hex, 16).ok()?;
                if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow.
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return None;
                    }
                    let hex2: String = chars.by_ref().take(4).collect();
                    let low = u32::from_str_radix(&hex2, 16).ok()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return None;
                    }
                    let cp = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    out.push(char::from_u32(cp)?);
                } else {
                    out.push(char::from_u32(unit)?);
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Install/uninstall toggle the global process state; serialize the
    /// tests that touch it.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default_and_with_is_a_noop() {
        let _g = GLOBAL.lock();
        assert!(!enabled());
        let mut ran = false;
        with(|_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn install_routes_counters_and_histograms() {
        let _g = GLOBAL.lock();
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        install(registry);
        assert!(enabled());
        with(|r| r.counter("t.count", 2));
        with(|r| r.counter("t.count", 3));
        with(|r| r.observe("t.hist", 10));
        with(|r| r.observe("t.hist", 4));
        uninstall();
        assert!(!enabled());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("t.count"), Some(5));
        assert_eq!(
            snap.histogram("t.hist"),
            Some(Metric::Histogram {
                count: 2,
                sum: 14,
                min: 4,
                max: 10
            })
        );
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let registry = MetricsRegistry::new();
        registry.counter("c", u64::MAX - 1);
        registry.counter("c", 5);
        assert_eq!(registry.snapshot().counter("c"), Some(u64::MAX));
    }

    #[test]
    fn snapshot_is_consistent_and_sorted() {
        let registry = MetricsRegistry::new();
        for i in 0..32 {
            registry.counter(&format!("m{i:02}"), i);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 32);
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn table_and_json_render() {
        let registry = MetricsRegistry::new();
        registry.counter("a.count", 7);
        registry.observe("b.hist", 3);
        let snap = registry.snapshot();
        let table = snap.render_table();
        assert!(table.contains("a.count"));
        assert!(table.contains('7'));
        assert!(table.contains("count=1 sum=3 min=3 mean=3 max=3"));
        assert_eq!(
            snap.render_json(),
            "{\"a.count\":7,\"b.hist\":{\"count\":1,\"sum\":3,\"min\":3,\"max\":3}}"
        );
    }

    #[test]
    fn virtual_clock_spans_measure_in_ticks() {
        let clock = VirtualClock::new();
        let span = Span::virtual_at(&clock);
        clock.advance(3);
        clock.advance(4);
        assert_eq!(span.elapsed(Some(&clock)), 7);
        let wall = Span::wall();
        // Wall spans are ns-resolution; elapsed is simply non-panicking.
        let _ = wall.elapsed(None);
    }

    #[test]
    fn json_escape_round_trips() {
        let cases = [
            "plain",
            "with \"quotes\" and \\slashes\\",
            "line\nbreak\ttab\rret",
            "unicode ✓ and control \u{1}",
        ];
        for case in cases {
            let escaped = escape_json(case);
            assert_eq!(unescape_json(&escaped).as_deref(), Some(case), "{case:?}");
        }
        assert_eq!(unescape_json("\\u0041"), Some("A".to_owned()));
        assert_eq!(unescape_json("\\ud83d\\ude00"), Some("😀".to_owned()));
        assert_eq!(unescape_json("\\u12"), None);
        assert_eq!(unescape_json("bad\\q"), None);
    }

    #[test]
    fn noop_recorder_is_inert() {
        let noop = NoopRecorder;
        noop.counter("x", 1);
        noop.observe("x", 1);
    }
}
