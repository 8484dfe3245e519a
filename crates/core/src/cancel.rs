//! Cooperative cancellation for long-running solvers.
//!
//! A [`CancelToken`] combines an explicit flag, an optional wall-clock
//! deadline, and an optional parent token (cancellation flows downward:
//! cancelling a parent fires every descendant). Long solver loops poll
//! [`CancelToken::is_cancelled`] between coarse steps — per DP node, per
//! introduced vertex, every few thousand enumerated plans — so the engine
//! can preempt work mid-run instead of only between solvers. Every
//! function that polls a token takes it as its last parameter,
//! `cancel: &CancelToken`; no configuration struct holds one, and callers
//! with nothing to cancel pass [`CancelToken::inert`].
//!
//! The default token is **inert**: it carries no state, never fires, and
//! polling it is a branch on a `None`. Every algorithm therefore accepts a
//! token unconditionally and pays nothing when cancellation is unused.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    /// Effective deadline: the **min** of this token's own deadline and
    /// every ancestor's, folded at construction time (parent deadlines
    /// are immutable, so the min never changes afterwards). A child with
    /// a generous limit therefore still honors an earlier parent
    /// deadline without walking the chain on every poll.
    deadline: Option<Instant>,
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                // Latch so later polls skip the clock read.
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    fn deadline_exceeded(&self) -> bool {
        let own = self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline);
        own || self.parent.as_ref().is_some_and(|p| p.deadline_exceeded())
    }
}

/// The earlier of two optional deadlines (`None` = unbounded).
fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (Some(a), None) => Some(a),
        (None, b) => b,
    }
}

/// A cloneable cancellation handle (clones share the same signal).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// An inert token: never fires, zero polling cost. Same as `default()`.
    pub const fn inert() -> Self {
        CancelToken { inner: None }
    }

    /// A manually fired token (see [`CancelToken::cancel`]).
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
                parent: None,
            })),
        }
    }

    /// A token that fires `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        CancelToken::inert().child_with_deadline(Some(limit))
    }

    /// A child token: fires when cancelled itself **or** when `self` fires.
    pub fn child(&self) -> Self {
        self.child_with_deadline(None)
    }

    /// A child token with its own deadline `limit` from now (`None` = no
    /// own deadline). With an inert parent and no deadline this stays a
    /// plain manual token. The child's effective deadline is the **min**
    /// of its own limit and every ancestor deadline — a generous child
    /// limit never outlives an earlier parent deadline.
    pub fn child_with_deadline(&self, limit: Option<Duration>) -> Self {
        let own = limit.map(|l| Instant::now() + l);
        let inherited = self.deadline_instant();
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: min_deadline(own, inherited),
                parent: self.inner.clone(),
            })),
        }
    }

    /// Whether this token carries no state at all (cannot ever fire).
    pub fn is_inert(&self) -> bool {
        self.inner.is_none()
    }

    /// Fire the token. Inert tokens ignore this (there is nothing to
    /// share); descendants of this token observe the cancellation.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Relaxed);
        }
    }

    /// Poll: has this token (or any ancestor) fired, or a deadline passed?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.is_cancelled(),
        }
    }

    /// Whether a *deadline* (own or inherited) has passed — distinguishes
    /// a timeout from a manual/short-circuit cancellation when reporting.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.deadline_exceeded())
    }

    /// The effective deadline instant (min over this token and every
    /// ancestor), or `None` if no deadline applies anywhere on the chain.
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time left until the effective deadline: `None` when unbounded,
    /// `Some(ZERO)` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline_instant()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::default();
        assert!(t.is_inert());
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(!t.deadline_exceeded());
    }

    #[test]
    fn manual_cancel_fires_self_and_children() {
        let t = CancelToken::new();
        let c = t.child();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled(), "children inherit cancellation");
        assert!(!t.deadline_exceeded(), "manual fire is not a deadline");
    }

    #[test]
    fn child_cancel_does_not_fire_the_parent() {
        let t = CancelToken::new();
        let c = t.child();
        c.cancel();
        assert!(c.is_cancelled());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn deadline_fires_and_is_distinguishable() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert!(t.deadline_exceeded());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn clones_share_the_signal() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn child_deadline_is_min_of_chain() {
        // A child with a *generous* limit must still honor an earlier
        // parent deadline: the effective deadline is min over the chain.
        let parent = CancelToken::with_deadline(Duration::from_millis(1));
        let child = parent.child_with_deadline(Some(Duration::from_secs(3600)));
        let eff = child.deadline_instant().expect("child carries a deadline");
        assert_eq!(
            eff,
            parent.deadline_instant().expect("parent has a deadline"),
            "earlier parent deadline wins over a later child limit"
        );
        assert!(child.remaining().expect("bounded") <= Duration::from_millis(1));

        // And the other direction: an earlier child limit wins.
        let parent = CancelToken::with_deadline(Duration::from_secs(3600));
        let child = parent.child_with_deadline(Some(Duration::ZERO));
        assert!(child.is_cancelled(), "own zero limit fires immediately");
        assert!(child.deadline_exceeded());
        assert!(!parent.is_cancelled(), "parent unaffected by child expiry");

        // Grandchild with no limit of its own inherits the chain min.
        let root = CancelToken::with_deadline(Duration::from_millis(2));
        let mid = root.child_with_deadline(Some(Duration::from_secs(10)));
        let leaf = mid.child();
        assert_eq!(leaf.deadline_instant(), root.deadline_instant());
    }

    #[test]
    fn remaining_reports_time_left() {
        assert_eq!(CancelToken::new().remaining(), None, "unbounded");
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let left = t.remaining().expect("bounded");
        assert!(left > Duration::from_secs(3500) && left <= Duration::from_secs(3600));
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }
}
