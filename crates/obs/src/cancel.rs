//! Cooperative cancellation for the iterative solver kernels.
//!
//! A [`CancelToken`] is a shared latch the caller arms (explicitly via
//! [`CancelToken::cancel`], implicitly via a wall-clock deadline, or — for
//! deterministic tests — after a fixed number of observations) and the
//! solvers poll at well-defined points: once per NOMP pursuit iteration,
//! once per NNLS outer iteration, once per item, and once per alternation
//! round (ARCHITECTURE.md §8). Polling is *cooperative*: a fired token
//! never aborts mid-refit, it makes the enclosing loop take its existing
//! early-exit path, so every observer still hands back a feasible
//! iterate (anytime semantics).
//!
//! The token is monotone — once fired it stays fired — which is what lets
//! the eval harness reason about work that completed *while* the token was
//! fired (such work may have degraded to fallbacks and is discarded rather
//! than checkpointed).
//!
//! [`SolveCtl`] bundles the optional metrics collector and the optional
//! token into one copyable handle so the kernel signatures stay flat. Both
//! sides default to `None`, and an absent token costs exactly one pointer
//! check per poll site — solves without a token are bit-identical to the
//! pre-cancellation code (pinned by `crates/core/tests/determinism.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::SolverMetrics;

/// A shared, monotone cancellation latch with an optional wall-clock
/// deadline and an optional deterministic check budget.
///
/// Share it via `Arc` between the controlling thread and the solver; all
/// operations are relaxed atomics (the latch is advisory — there is no
/// ordering dependency between firing and the solver's next poll).
#[derive(Debug, Default)]
pub struct CancelToken {
    /// The latch. Set explicitly by [`cancel`](Self::cancel) or lazily by
    /// the first check that observes an expired deadline / budget.
    fired: AtomicBool,
    /// Wall-clock point after which checks report cancelled.
    deadline: Option<Instant>,
    /// Remaining checks before the token self-fires (deterministic
    /// kill-point for tests; see [`cancel_after`](Self::cancel_after)).
    check_budget: Option<AtomicU64>,
}

impl CancelToken {
    /// A token that only fires when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires once `Instant::now()` reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            fired: AtomicBool::new(false),
            deadline: Some(deadline),
            check_budget: None,
        }
    }

    /// A token that fires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A token that reports not-cancelled for exactly `checks`
    /// observations of [`is_cancelled`](Self::is_cancelled), then fires.
    ///
    /// This is the deterministic stand-in for a deadline: a wall-clock
    /// deadline interrupts the solver after some *prefix* of its check
    /// sequence, and `cancel_after(n)` pins that prefix length exactly, so
    /// tests can replay every possible kill point. Only meaningful under
    /// sequential solves (parallel workers race for the budget).
    pub fn cancel_after(checks: u64) -> Self {
        CancelToken {
            fired: AtomicBool::new(false),
            deadline: None,
            check_budget: Some(AtomicU64::new(checks)),
        }
    }

    /// Fire the latch. Idempotent; takes effect at each observer's next
    /// poll.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Relaxed);
    }

    /// Poll the token: true once fired. An expired deadline or exhausted
    /// check budget latches [`fired`](Self::fired) so later polls are a
    /// single atomic load. This is the *consuming* check (it spends one
    /// unit of a `cancel_after` budget); solvers call it through
    /// [`SolveCtl::is_cancelled`] so the poll is also counted.
    pub fn is_cancelled(&self) -> bool {
        if self.fired.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.fired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(budget) = &self.check_budget {
            let exhausted = budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_err();
            if exhausted {
                self.fired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Non-consuming peek: has the token fired?
    ///
    /// Unlike [`is_cancelled`](Self::is_cancelled) this never spends a
    /// `cancel_after` budget unit, but it does latch an expired deadline.
    /// The eval harness uses it after each experiment to decide whether
    /// the result is trustworthy enough to checkpoint.
    pub fn fired(&self) -> bool {
        if self.fired.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.fired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// Per-solve control handle: the optional metrics collector and the
/// optional cancellation token, bundled so kernel signatures take one
/// parameter instead of two.
///
/// `Copy` by design — it is two pointers; pass it by value down the call
/// tree. `SolveCtl::default()` (both `None`) is the zero-cost path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveCtl<'a> {
    /// Counter block to record into, if any.
    pub metrics: Option<&'a SolverMetrics>,
    /// Cancellation latch to poll, if any.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> SolveCtl<'a> {
    /// A handle carrying only a metrics collector (the pre-cancellation
    /// `*_metered` surface delegates through this).
    pub fn metered(metrics: Option<&'a SolverMetrics>) -> Self {
        SolveCtl {
            metrics,
            cancel: None,
        }
    }

    /// A handle carrying both sides.
    pub fn new(metrics: Option<&'a SolverMetrics>, cancel: Option<&'a CancelToken>) -> Self {
        SolveCtl { metrics, cancel }
    }

    /// Poll the token (if any), counting the poll in the collector (if
    /// one is installed). Absent token: one pointer check, no atomics,
    /// always false.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match self.cancel {
            None => false,
            Some(token) => {
                if let Some(m) = self.metrics {
                    SolverMetrics::incr(&m.cancellation_checks);
                }
                token.is_cancelled()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn plain_token_fires_only_on_cancel() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.fired());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.fired());
    }

    #[test]
    fn deadline_token_latches_on_expiry() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        // Latched: subsequent polls stay cancelled without re-reading the clock.
        assert!(t.is_cancelled());
        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(!far.fired());
    }

    #[test]
    fn cancel_after_spends_exactly_the_budget() {
        let t = CancelToken::cancel_after(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn fired_peek_does_not_spend_budget() {
        let t = CancelToken::cancel_after(1);
        assert!(!t.fired());
        assert!(!t.fired());
        assert!(!t.is_cancelled()); // spends the single budget unit
        assert!(!t.fired()); // peek still does not fire the latch...
        assert!(t.is_cancelled()); // ...the next consuming poll does
        assert!(t.fired());
    }

    #[test]
    fn ctl_counts_polls_only_when_token_present() {
        let m = SolverMetrics::new();
        let none = SolveCtl::metered(Some(&m));
        assert!(!none.is_cancelled());
        assert_eq!(m.snapshot().cancellation_checks, 0);

        let token = CancelToken::new();
        let ctl = SolveCtl::new(Some(&m), Some(&token));
        assert!(!ctl.is_cancelled());
        token.cancel();
        assert!(ctl.is_cancelled());
        assert_eq!(m.snapshot().cancellation_checks, 2);
    }
}
