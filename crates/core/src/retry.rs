//! One backoff implementation for every retrying read path.
//!
//! Both the self-healing [`Checkout`](crate::checkout::Checkout) reader
//! and the [`service`](crate::service) layer retry transient store
//! failures. They share this [`RetryPolicy`] so there is exactly one
//! backoff schedule in the tree: a bounded attempt count with linear
//! backoff plus **deterministic, seeded jitter** — the delay before a
//! given retry is a pure function of `(policy, salt, attempt)`, so runs
//! replay identically while concurrent retries against one hot object
//! still decorrelate (different salts spread their wake-ups).
//!
//! The default policy never sleeps (`backoff == 0`), keeping tests and
//! benches wall-clock free; production callers opt into real backoff
//! with [`RetryPolicy::with_backoff`].

use dsv_delta::store::{ObjectHasher, ObjectKind};
use std::time::Duration;

/// Bounded, deterministic retry policy for transient failures.
///
/// Only *transient* errors are worth retrying (for stores:
/// [`StoreError::Io`](dsv_delta::store::StoreError) — `Corrupt` and
/// `Missing` cannot be fixed by re-reading and go straight to repair).
/// The sleep before retry `k` (1-based) is `backoff * k` plus a
/// deterministic jitter drawn from `[0, backoff)` by hashing
/// `(jitter_seed, salt, k)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (clamped to at
    /// least 1).
    pub attempts: u32,
    /// Base backoff unit; `Duration::ZERO` (the default) never sleeps
    /// and draws no jitter.
    pub backoff: Duration,
    /// Seed folded into the jitter hash so independent deployments (or
    /// test runs) can decorrelate without losing determinism.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no sleep).
    pub const fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Set the total attempt count.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts;
        self
    }

    /// Set the base backoff unit.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Set the jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Total attempts, never less than 1.
    pub fn effective_attempts(&self) -> u32 {
        self.attempts.max(1)
    }

    /// The delay to sleep before retry `attempt` (1-based; attempt 0 is
    /// the initial try and never waits). `salt` identifies the operation
    /// — e.g. an object id — so concurrent retries of *different*
    /// objects decorrelate while a replayed run waits identically.
    pub fn delay_for(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let base = self.backoff * attempt;
        // The store's object hash over (seed, salt, attempt) → jitter in
        // [0, backoff).
        let mut h = ObjectHasher::new(ObjectKind::Chunk);
        for word in [self.jitter_seed, salt, u64::from(attempt)] {
            h.update(&word.to_le_bytes());
        }
        let unit = self.backoff.as_nanos() as u64;
        base + Duration::from_nanos(h.finish().0 % unit.max(1))
    }

    /// Sleep for [`delay_for`](Self::delay_for) (no-op on zero).
    pub fn wait(&self, attempt: u32, salt: u64) {
        let d = self.delay_for(attempt, salt);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_never_sleeps() {
        let p = RetryPolicy::default();
        for attempt in 0..5 {
            assert_eq!(p.delay_for(attempt, 42), Duration::ZERO);
        }
    }

    #[test]
    fn none_is_a_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.effective_attempts(), 1);
        assert_eq!(p.delay_for(1, 0), Duration::ZERO);
    }

    #[test]
    fn attempts_clamp_to_one() {
        assert_eq!(
            RetryPolicy::default().with_attempts(0).effective_attempts(),
            1
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10))
            .with_jitter_seed(7);
        for attempt in 1..4u32 {
            for salt in [0u64, 1, 99] {
                let d = p.delay_for(attempt, salt);
                assert_eq!(d, p.delay_for(attempt, salt), "pure function of inputs");
                let base = p.backoff * attempt;
                assert!(
                    d >= base && d < base + p.backoff,
                    "jitter within [0, backoff)"
                );
            }
        }
    }

    #[test]
    fn salts_decorrelate_jitter() {
        let p = RetryPolicy::default()
            .with_backoff(Duration::from_secs(1))
            .with_jitter_seed(3);
        // Over many salts at least two distinct delays must appear.
        let delays: std::collections::BTreeSet<Duration> =
            (0..16u64).map(|salt| p.delay_for(1, salt)).collect();
        assert!(delays.len() > 1, "jitter must vary with the salt");
    }
}
