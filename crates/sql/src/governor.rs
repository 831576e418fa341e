//! The server governor: the `V$SERVER` counters, the occupancy reading,
//! the parking lot for orphaned transactions, and the transparent
//! conflict-retry constants.
//!
//! The paper's extensibility contract puts resource governance on the
//! *server*, not on each cartridge: cartridge code merely runs inside the
//! engine, and the engine keeps itself healthy around it. Here that upkeep
//! has exactly one placement (DESIGN.md §4l): the end of a session
//! transaction, under the write lock the ending transaction already holds
//! (`Database::maintenance_after_txn_end`). No thread runs beside the
//! sessions, so maintenance timing is a pure function of the statement
//! stream.
//!
//! - [`ServerGovernor`] is the one `Arc`-shared blackboard between the
//!   engine ([`crate::Database`] holds it for `V$SERVER`) and every
//!   [`crate::Session`]. It is read without taking the engine lock.
//! - **Occupancy**: every transaction end records chain occupancy (total
//!   held versions and the largest per-segment count) here, for
//!   `V$SERVER` and for samplers on other threads.
//! - **Orphaned transactions**: `Session::drop` must never block on the
//!   engine write lock (the lock holder might be the very thread dropping
//!   the session). When the lock is contended the session parks its open
//!   transaction here, and whoever takes the write lock next aborts it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use extidx_storage::Snapshot;
use parking_lot::Mutex;

/// Transparent conflict retry: an autocommit statement aborted by
/// `Error::WriteConflict` is re-run on a fresh snapshot up to this many
/// times before the error surfaces (`SET CONFLICT_RETRIES` overrides it
/// per session).
pub(crate) const RETRY_MAX: u32 = 8;

/// Base of the retry backoff, doubled per attempt and jittered by the
/// session's seeded rng (`SET RETRY_SEED`).
pub(crate) const RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Cumulative governor counters, surfaced through `V$SERVER`.
#[derive(Default)]
pub struct GovernorCounters {
    /// Autocommit statements re-run after a write conflict.
    pub conflict_retries: AtomicU64,
    /// Retried statements that then succeeded.
    pub conflict_retry_successes: AtomicU64,
    /// Statements whose retry budget ran out (conflict surfaced).
    pub conflict_retry_exhausted: AtomicU64,
    /// Statements that hit their deadline / were cancelled.
    pub statement_timeouts: AtomicU64,
    /// Orphaned transactions aborted on behalf of dropped sessions.
    pub orphan_aborts: AtomicU64,
}

/// The shared governor blackboard. One per [`crate::Database`]; reached
/// from sessions without taking the engine lock.
#[derive(Default)]
pub struct ServerGovernor {
    pub counters: GovernorCounters,
    /// Last occupancy reading: (total held versions, max per-segment).
    occupancy: Mutex<(usize, usize)>,
    /// Open transactions abandoned by a dropped [`crate::Session`] while
    /// the engine write lock was contended. A transaction is parked as its
    /// snapshot — its undo never left the storage engine.
    orphans: Mutex<Vec<Snapshot>>,
}

impl ServerGovernor {
    /// Last recorded (total versions, max per-segment versions).
    pub fn occupancy(&self) -> (usize, usize) {
        *self.occupancy.lock()
    }

    pub(crate) fn note_occupancy(&self, total: usize, max_segment: usize) {
        *self.occupancy.lock() = (total, max_segment);
    }

    /// Park an abandoned open transaction for the next write-lock holder
    /// to abort.
    pub(crate) fn park_orphan(&self, snap: Snapshot) {
        self.orphans.lock().push(snap);
    }

    /// Take every parked orphan (the caller holds the engine write lock
    /// and aborts them).
    pub(crate) fn take_orphans(&self) -> Vec<Snapshot> {
        std::mem::take(&mut *self.orphans.lock())
    }

    /// `V$SERVER` rows: `(NAME, VALUE)` pairs in a fixed order.
    pub fn vserver_rows(&self) -> Vec<(&'static str, i64)> {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed) as i64;
        let (total, max_seg) = self.occupancy();
        vec![
            ("CONFLICT_RETRIES", ld(&c.conflict_retries)),
            ("CONFLICT_RETRY_SUCCESSES", ld(&c.conflict_retry_successes)),
            ("CONFLICT_RETRY_EXHAUSTED", ld(&c.conflict_retry_exhausted)),
            ("STATEMENT_TIMEOUTS", ld(&c.statement_timeouts)),
            ("ORPHAN_ABORTS", ld(&c.orphan_aborts)),
            ("HELD_VERSIONS", total as i64),
            ("MAX_SEGMENT_VERSIONS", max_seg as i64),
        ]
    }

    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A deterministic 64-bit mixer (splitmix64) backing the seeded retry
/// jitter — no external rng dependency, reproducible per session.
#[derive(Debug, Clone)]
pub(crate) struct JitterRng {
    state: u64,
}

impl JitterRng {
    pub(crate) fn new(seed: u64) -> Self {
        JitterRng { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_rng_is_deterministic() {
        let mut a = JitterRng::new(42);
        let mut b = JitterRng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = JitterRng::new(43);
        assert_ne!(a.next(), c.next());
    }
}
