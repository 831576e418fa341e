//! Cooperative statement cancellation and deadlines.
//!
//! The paper's framework runs cartridge code *inside* the server, so a
//! runaway statement — a scan over a huge result, a cartridge routine
//! that loops through server callbacks — would otherwise hold the
//! engine's write lock (or a read lock a writer is waiting behind)
//! forever. This module supplies the server-resident guard: a
//! per-statement [`CancelToken`] plus an optional deadline, installed
//! thread-locally for the duration of one statement and *polled
//! cooperatively*:
//!
//! - executor loops (`next`/`next_batch`, DML row loops) call [`poll`],
//!   which returns [`Error::StatementTimeout`] once the deadline or a
//!   cancellation is observed;
//! - ODCI crossings are charged through [`sandbox::tick`]
//!   (`crate::sandbox`), which consults the same state and unwinds with
//!   a [`CancelUnwind`] sentinel so arbitrary cartridge code is exited
//!   at its next server callback — `sandboxed_call` converts the
//!   sentinel into `Error::StatementTimeout` (never a `CartridgeFault`:
//!   the cartridge did nothing wrong, so the health breaker is not fed).
//!
//! Deadlines come in two shapes: wall-clock (`SET STATEMENT_TIMEOUT`,
//! milliseconds) and deterministic poll-count (`SET
//! STATEMENT_TIMEOUT_TICKS`), the latter for tests that need the timeout
//! to fire at an exact, reproducible point in execution.
//!
//! **One-shot semantics**: once a timeout fires, the guard disarms
//! itself. The statement's rollback/compensation machinery runs under
//! the same thread-local guard, and it must never be interrupted by the
//! very timeout that triggered it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extidx_common::{Error, Result};

/// A shareable cancellation flag for one session's in-flight statement.
/// Clone it out of the session (`Session::cancel_token`) and call
/// [`CancelToken::cancel`] from any thread; the running statement
/// observes it at its next cooperative poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation of the statement currently guarding on this
    /// token. Sticky until [`CancelToken::reset`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Clear the flag (each new statement starts uncancelled).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::SeqCst);
    }
}

/// Sentinel unwind payload raised by [`sandbox_poll`] inside a sandboxed
/// ODCI crossing; `sandbox::sandboxed_call` downcasts it back into
/// [`Error::StatementTimeout`].
pub struct CancelUnwind(pub String);

struct ActiveStmt {
    token: CancelToken,
    deadline: Option<Instant>,
    /// Deterministic deadline: the statement times out after this many
    /// cooperative polls (executor loop iterations + sandbox ticks).
    poll_limit: Option<u64>,
    polls: u64,
    /// One-shot: set after the first expiry so rollback/compensation
    /// under the same guard is never re-interrupted.
    fired: bool,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveStmt>> = const { RefCell::new(None) };
}

/// RAII guard installing the statement's cancellation state on this
/// thread; restores the previous state (normally `None`) on drop.
pub struct StmtGuard {
    prev: Option<ActiveStmt>,
}

/// Install cancellation state for one statement. `timeout` is the
/// wall-clock deadline, `poll_limit` the deterministic poll-count
/// deadline; either, both, or neither may be set (with neither, only
/// explicit [`CancelToken::cancel`] can interrupt the statement).
pub fn begin_statement(
    token: CancelToken,
    timeout: Option<Duration>,
    poll_limit: Option<u64>,
) -> StmtGuard {
    let stmt = ActiveStmt {
        token,
        deadline: timeout.map(|d| Instant::now() + d),
        poll_limit,
        polls: 0,
        fired: false,
    };
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(stmt));
    StmtGuard { prev }
}

impl Drop for StmtGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            *a.borrow_mut() = self.prev.take();
        });
    }
}

/// Charge one poll and return the expiry reason if the statement just
/// crossed its deadline (or was cancelled).
fn expire(st: &mut ActiveStmt) -> Option<String> {
    if st.fired {
        return None;
    }
    st.polls += 1;
    if st.token.is_cancelled() {
        st.fired = true;
        return Some("cancelled by client".to_string());
    }
    if let Some(limit) = st.poll_limit {
        if st.polls > limit {
            st.fired = true;
            return Some(format!("deterministic deadline: poll limit {limit} exceeded"));
        }
    }
    if let Some(deadline) = st.deadline {
        if Instant::now() >= deadline {
            st.fired = true;
            return Some("statement_timeout exceeded".to_string());
        }
    }
    None
}

/// Cooperative cancellation check for engine-side loops. Free (a
/// thread-local branch) when no statement guard is installed.
pub fn poll() -> Result<()> {
    ACTIVE.with(|a| {
        let mut guard = a.borrow_mut();
        match guard.as_mut() {
            None => Ok(()),
            Some(st) => match expire(st) {
                None => Ok(()),
                Some(reason) => Err(Error::statement_timeout(reason)),
            },
        }
    })
}

/// Cancellation check for sandboxed ODCI crossings: unwinds with a
/// [`CancelUnwind`] sentinel (caught and classified by
/// `sandbox::sandboxed_call`) so cartridge code is exited at its next
/// server callback even though it cannot return our `Result`.
pub fn sandbox_poll() {
    let reason = ACTIVE.with(|a| a.borrow_mut().as_mut().and_then(expire));
    if let Some(reason) = reason {
        std::panic::panic_any(CancelUnwind(reason));
    }
}

/// Disarm the active statement's deadline. Called at the commit point of
/// an autocommit statement: once its work is done, the commit itself must
/// never be interrupted — a half-committed statement is worse than a late
/// one. Uses the same one-shot flag an expiry sets, so subsequent polls
/// are free.
pub fn disarm() {
    ACTIVE.with(|a| {
        if let Some(st) = a.borrow_mut().as_mut() {
            st.fired = true;
        }
    });
}

/// Re-arm a guard disarmed by [`disarm`] — the transparent conflict-retry
/// loop re-runs the statement, which must observe the original deadline
/// again. The poll counter keeps accumulating across attempts, so a
/// deterministic poll-limit deadline stays reproducible.
pub fn rearm() {
    ACTIVE.with(|a| {
        if let Some(st) = a.borrow_mut().as_mut() {
            st.fired = false;
        }
    });
}

/// Polls charged so far by the active statement (0 without a guard).
/// Exposed for tests pinning deterministic timeout points.
pub fn polls_used() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map(|s| s.polls).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_without_guard_is_free() {
        for _ in 0..100 {
            poll().unwrap();
        }
        assert_eq!(polls_used(), 0);
    }

    #[test]
    fn poll_limit_fires_deterministically() {
        let _g = begin_statement(CancelToken::new(), None, Some(3));
        poll().unwrap();
        poll().unwrap();
        poll().unwrap();
        let err = poll().unwrap_err();
        assert!(matches!(err, Error::StatementTimeout { .. }), "got {err}");
        // One-shot: the rollback path keeps polling without being shot.
        poll().unwrap();
        poll().unwrap();
    }

    #[test]
    fn cancel_token_interrupts_and_resets() {
        let token = CancelToken::new();
        {
            let _g = begin_statement(token.clone(), None, None);
            poll().unwrap();
            token.cancel();
            let err = poll().unwrap_err();
            assert!(err.to_string().contains("cancelled"), "got {err}");
        }
        token.reset();
        let _g = begin_statement(token, None, None);
        poll().unwrap();
    }

    #[test]
    fn wall_clock_deadline_fires() {
        let _g = begin_statement(CancelToken::new(), Some(Duration::ZERO), None);
        let err = poll().unwrap_err();
        assert!(err.to_string().contains("statement_timeout"), "got {err}");
    }

    #[test]
    fn guards_nest_and_restore() {
        let _outer = begin_statement(CancelToken::new(), None, Some(1000));
        poll().unwrap();
        assert_eq!(polls_used(), 1);
        {
            let _inner = begin_statement(CancelToken::new(), None, Some(1));
            poll().unwrap();
            assert!(poll().is_err());
        }
        // Outer state restored, its counter untouched by the inner guard.
        assert_eq!(polls_used(), 1);
        poll().unwrap();
    }
}
