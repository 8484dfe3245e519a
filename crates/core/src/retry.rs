//! The retry policy of the self-healing read path.
//!
//! The [`Checkout`](crate::checkout::Checkout) reader (and through it the
//! [`service`](crate::service) layer) re-reads an object after a transient
//! store failure. Retries are immediate: a read gets a bounded number of
//! attempts with no sleep between them, so tests and benches stay
//! wall-clock free.

/// Bounded retry policy for transient failures.
///
/// Only *transient* errors are worth retrying (for stores:
/// [`StoreError::Io`](dsv_delta::store::StoreError) — `Corrupt` and
/// `Missing` cannot be fixed by re-reading and go straight to repair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (clamped to at
    /// least 1).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    /// Three immediate attempts.
    fn default() -> Self {
        RetryPolicy { attempts: 3 }
    }
}

impl RetryPolicy {
    /// Total attempts, never less than 1.
    pub fn effective_attempts(&self) -> u32 {
        self.attempts.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_three_attempts() {
        assert_eq!(RetryPolicy::default().effective_attempts(), 3);
    }

    #[test]
    fn attempts_clamp_to_one() {
        assert_eq!(RetryPolicy { attempts: 0 }.effective_attempts(), 1);
    }
}
