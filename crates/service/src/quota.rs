//! Per-connection token-bucket quotas — the first admission-control rung.
//!
//! Each connection reader owns one bucket; a request that finds the bucket
//! empty is shed with `Rejected { reason: Quota }` before it touches the
//! queue, so one chatty client cannot starve the others of queue slots.

#[cfg(test)]
use std::time::Duration;
use std::time::Instant;

/// A classic token bucket: `rate` tokens per second replenish up to a
/// `burst` cap, one token per admitted request. A `rate` of zero disables
/// the quota (every take succeeds).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket replenishing `rate_per_sec` tokens per second up to
    /// `burst` (clamped to at least 1 token when the quota is active).
    /// Starts full.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        let burst = if rate_per_sec > 0.0 {
            burst.max(1.0)
        } else {
            0.0
        };
        TokenBucket {
            rate: rate_per_sec.max(0.0),
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// An always-admitting bucket (quota disabled).
    pub fn unlimited() -> Self {
        TokenBucket::new(0.0, 0.0)
    }

    /// Whether this bucket ever refuses.
    pub fn is_limited(&self) -> bool {
        self.rate > 0.0
    }

    /// Takes one token at the current time. A disabled quota admits
    /// without reading the clock.
    pub fn try_take(&mut self) -> bool {
        !self.is_limited() || self.try_take_at(Instant::now())
    }

    /// Takes one token as of `now` — the testable core. `now` values that
    /// go backwards are treated as "no time elapsed".
    pub fn try_take_at(&mut self, now: Instant) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        // Credit refill only when the clock moved forward, and never move
        // `last` backwards: rewinding it would re-credit the same interval
        // on the next forward probe, minting tokens without bound under a
        // non-monotone probe sequence. Sub-token fractions stay in
        // `tokens` across probes, so probe cadence never changes the
        // admitted total.
        if now > self.last {
            let elapsed = now.duration_since(self.last).as_secs_f64();
            self.last = now;
            self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A convenience over [`TokenBucket::try_take_at`] advancing a synthetic
/// clock — kept out of the struct so production code cannot reach for it.
#[cfg(test)]
fn takes(bucket: &mut TokenBucket, base: Instant, at_ms: u64) -> bool {
    bucket.try_take_at(base + Duration::from_millis(at_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_replenish() {
        let base = Instant::now();
        let mut b = TokenBucket::new(10.0, 3.0); // 10/s, burst 3
        b.last = base;
        // The burst drains instantly…
        assert!(takes(&mut b, base, 0));
        assert!(takes(&mut b, base, 0));
        assert!(takes(&mut b, base, 0));
        // …then the bucket is empty…
        assert!(!takes(&mut b, base, 0));
        assert!(!takes(&mut b, base, 50)); // 0.5 tokens accrued — still short
                                           // …and one token lands every 100ms.
        assert!(takes(&mut b, base, 160)); // +1.1 since the 50ms probe
        assert!(!takes(&mut b, base, 170));
    }

    #[test]
    fn burst_cap_bounds_idle_accrual() {
        let base = Instant::now();
        let mut b = TokenBucket::new(100.0, 2.0);
        b.last = base;
        // Ten idle seconds would accrue 1000 tokens; the cap keeps 2.
        assert!(takes(&mut b, base, 10_000));
        assert!(takes(&mut b, base, 10_000));
        assert!(!takes(&mut b, base, 10_000));
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10_000 {
            assert!(b.try_take());
        }
    }

    #[test]
    fn backwards_clock_is_harmless() {
        let base = Instant::now();
        let mut b = TokenBucket::new(10.0, 1.0);
        b.last = base + Duration::from_secs(1);
        assert!(takes(&mut b, base, 0)); // starts full
        assert!(!takes(&mut b, base, 0)); // no time credited for the rewind
    }

    /// The regression for the rewinding-refill-clock bug: alternating
    /// probes between a fixed later instant and an earlier one must not
    /// re-credit the same interval on every forward hop. Pre-fix, each
    /// backwards probe rewound `last`, so every probe at 100ms credited a
    /// fresh 100ms of refill and this loop admitted ~1000 tokens.
    #[test]
    fn nonmonotone_probes_cannot_mint_tokens() {
        let base = Instant::now();
        let mut b = TokenBucket::new(10.0, 1.0); // 10/s, burst 1
        b.last = base;
        let mut admitted = 0u32;
        // Only 100ms of real time ever elapses: the bucket owes at most
        // the 1-token burst plus 1 refilled token.
        for _ in 0..1_000 {
            if takes(&mut b, base, 100) {
                admitted += 1;
            }
            if takes(&mut b, base, 0) {
                admitted += 1;
            }
        }
        assert!(
            admitted <= 2,
            "minted {admitted} tokens from a rewinding clock"
        );
    }

    /// The quota property: however the probes are spaced — every
    /// millisecond, in coarse bursts, or on an irregular seeded cadence —
    /// a bucket starting empty admits ⌊R·t⌋ ± 1 tokens over t seconds at
    /// rate R. Fractions carry across probes (never dropped) and
    /// intervals are counted once (never re-credited).
    #[test]
    fn admission_tracks_rate_regardless_of_cadence() {
        let base = Instant::now();
        // The invariant needs burst ≥ 1 + rate·gap: a sub-token residual
        // plus one gap's refill must fit under the cap, or the cap (by
        // design) eats the overflow and the count drops below ⌊R·t⌋.
        let cadences: Vec<(f64, f64, Vec<u64>)> = vec![
            (10.0, 2.0, (0..=5_000).collect()),
            (10.0, 2.0, (0..=5_000).step_by(7).collect()),
            (10.0, 6.0, (0..=5_000).step_by(333).collect()),
            (3.0, 2.0, (0..=10_000).step_by(11).collect()),
            (250.0, 2.0, (0..=2_000).collect()),
            // An irregular cadence: seeded multiplicative-congruential
            // gaps between 1ms and 64ms.
            (25.0, 4.0, {
                let mut at = 0u64;
                let mut gap = 0x2545_f491_4f6c_dd1du64;
                let mut probes = vec![0];
                while at < 4_000 {
                    gap = gap.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    at += 1 + (gap >> 58);
                    probes.push(at);
                }
                probes
            }),
        ];
        for (rate, burst, probes) in cadences {
            let mut b = TokenBucket::new(rate, burst);
            b.last = base;
            b.tokens = 0.0; // start empty: every admission is pure refill
            let mut admitted = 0u64;
            for &at in &probes {
                while takes(&mut b, base, at) {
                    admitted += 1;
                }
            }
            let span_ms = *probes.last().unwrap();
            let expected = (rate * span_ms as f64 / 1000.0).floor() as u64;
            assert!(
                admitted.abs_diff(expected) <= 1,
                "rate {rate}/s probed over {span_ms}ms admitted {admitted}, expected {expected}±1"
            );
        }
    }
}
