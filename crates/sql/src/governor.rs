//! The server governor: shared state for the maintenance daemon,
//! backpressure watermarks, transparent conflict retry, and the
//! `V$SERVER` counters.
//!
//! The paper's extensibility contract puts resource governance on the
//! *server*, not on each cartridge: cartridge code merely runs inside the
//! engine, and the engine keeps itself healthy around it. PR 9 made MVCC
//! vacuum incremental but left it inline on every commit/rollback — each
//! foreground commit paid an O(chains) sweep. This module decouples that
//! maintenance from the foreground path:
//!
//! - [`ServerGovernor`] is the one `Arc`-shared blackboard between the
//!   engine ([`crate::Database`] holds it for `V$SERVER`), every
//!   [`crate::Session`], and the [`crate::Server`]'s maintenance daemon.
//! - **Watermarks**: commits/aborts refresh chain occupancy (total held
//!   versions + the largest per-segment count) into the governor. Above
//!   the high-water mark backpressure engages: new DML briefly yields
//!   (bounded rounds, deterministic with a zero yield wait) and, if the
//!   daemon has not drained in time, performs the vacuum itself — the
//!   system never wedges on a dead daemon. Below the low-water mark the
//!   gate releases (hysteresis).
//! - **Adaptive cadence**: the daemon sleeps `interval` at rest, drops
//!   toward `min_interval` as occupancy climbs past the low-water mark,
//!   and can be woken early through [`ServerGovernor::wake_daemon`].
//! - **Orphaned transactions**: `Session::drop` must never block forever
//!   on the engine write lock (the lock holder might be the very thread
//!   dropping the session). When the lock is contended the session parks
//!   its open transaction here; the daemon (and the next write statement)
//!   aborts it properly under the lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// The workspace's `parking_lot` shim hands out genuine `std::sync` mutex
// guards, so `std::sync::Condvar` pairs with the shim's `Mutex` directly.
use std::sync::Condvar;
use std::time::Duration;

use extidx_storage::Snapshot;
use parking_lot::Mutex;

/// Tuning for the maintenance daemon, backpressure gate, and transparent
/// conflict retry. Fixed at server construction (`Server::with_config`);
/// per-session knobs (`SET STATEMENT_TIMEOUT`, `SET CONFLICT_RETRIES`, …)
/// override the retry/timeout pieces per connection.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Start the maintenance daemon thread (and hand vacuum cadence to
    /// it). Off = PR 9 behaviour: vacuum inline on every commit/rollback.
    pub daemon: bool,
    /// Daemon cadence at rest.
    pub interval: Duration,
    /// Daemon cadence floor under load (occupancy above the high-water
    /// mark).
    pub min_interval: Duration,
    /// Backpressure engages when total held versions exceed this.
    pub high_water_versions: usize,
    /// …or when any single segment's held versions exceed this.
    pub high_water_chain: usize,
    /// Backpressure releases once total occupancy drains to this.
    pub low_water_versions: usize,
    /// Bounded backpressure: a gated statement yields at most this many
    /// rounds before proceeding anyway (overload must never wedge a
    /// client).
    pub max_yield_rounds: u32,
    /// How long one backpressure yield round waits for the daemon before
    /// self-draining. `Duration::ZERO` makes the gate fully deterministic
    /// (the test clock): every round drains synchronously.
    pub yield_wait: Duration,
    /// Transparent conflict retry: autocommit DML aborted by
    /// `Error::WriteConflict` is re-run on a fresh snapshot up to this
    /// many times before the error surfaces. 0 disables.
    pub retry_max: u32,
    /// Base for the retry backoff (doubled per attempt, jittered by the
    /// session's seeded rng). `Duration::ZERO` = no sleeping, fully
    /// deterministic.
    pub retry_backoff: Duration,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            daemon: true,
            interval: Duration::from_millis(20),
            min_interval: Duration::from_millis(1),
            high_water_versions: 4096,
            high_water_chain: 1024,
            low_water_versions: 512,
            max_yield_rounds: 4,
            yield_wait: Duration::from_millis(1),
            retry_max: 8,
            retry_backoff: Duration::from_micros(50),
        }
    }
}

impl GovernorConfig {
    /// No daemon, vacuum inline on commit/rollback. The backpressure
    /// gate and retry machinery stay armed. Kept as the deterministic
    /// test mode: without the daemon thread, vacuum timing (and so chain
    /// occupancy) is a pure function of the statement stream.
    pub fn inline_vacuum() -> Self {
        GovernorConfig { daemon: false, ..Self::default() }
    }

    /// Deterministic test clock: zero waits everywhere, tight watermarks
    /// supplied by the caller.
    pub fn deterministic(high_water: usize, low_water: usize) -> Self {
        GovernorConfig {
            high_water_versions: high_water,
            low_water_versions: low_water,
            yield_wait: Duration::ZERO,
            retry_backoff: Duration::ZERO,
            ..Self::default()
        }
    }
}

/// Cumulative governor counters, surfaced through `V$SERVER`.
#[derive(Default)]
pub struct GovernorCounters {
    /// Completed daemon maintenance passes.
    pub daemon_passes: AtomicU64,
    /// Daemon passes that panicked (contained + daemon restarted).
    pub daemon_restarts: AtomicU64,
    /// Daemon passes aborted by an injected (non-panic) fault.
    pub daemon_faults: AtomicU64,
    /// Times backpressure newly engaged (low→high crossing).
    pub backpressure_engaged: AtomicU64,
    /// Individual foreground yield rounds spent under the gate.
    pub backpressure_waits: AtomicU64,
    /// Foreground self-drain vacuums (gate drained without the daemon).
    pub backpressure_self_drains: AtomicU64,
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
/// from sessions and the daemon without taking the engine lock.
pub struct ServerGovernor {
    config: Mutex<GovernorConfig>,
    pub counters: GovernorCounters,
    /// Daemon liveness: true while the daemon thread owns vacuum cadence
    /// (commits skip the inline vacuum). Cleared on daemon shutdown so
    /// sessions fall back to inline vacuuming.
    daemon_running: AtomicBool,
    shutdown: AtomicBool,
    /// Backpressure state (hysteresis between the watermarks).
    engaged: AtomicBool,
    /// Last occupancy snapshot: (total held versions, max per-segment).
    occupancy: Mutex<(usize, usize)>,
    /// Orphaned-transaction parking lot: open transactions abandoned by
    /// a dropped [`crate::Session`] while the engine write lock was
    /// contended, aborted later under the lock by the daemon or the next
    /// write statement. A transaction is parked as its snapshot — its
    /// undo never left the storage engine.
    orphans: Mutex<Vec<Snapshot>>,
    has_orphans: AtomicBool,
    /// Daemon wake-up: sessions notify when occupancy crosses the
    /// high-water mark (or orphans are parked) so the daemon need not
    /// wait out its full interval.
    daemon_cv: Condvar,
    daemon_m: Mutex<()>,
    /// Gate release: the daemon notifies after draining below low water.
    gate_cv: Condvar,
    gate_m: Mutex<()>,
}

impl ServerGovernor {
    pub fn new(config: GovernorConfig) -> Self {
        ServerGovernor {
            config: Mutex::new(config),
            counters: GovernorCounters::default(),
            daemon_running: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            engaged: AtomicBool::new(false),
            occupancy: Mutex::new((0, 0)),
            orphans: Mutex::new(Vec::new()),
            has_orphans: AtomicBool::new(false),
            daemon_cv: Condvar::new(),
            daemon_m: Mutex::new(()),
            gate_cv: Condvar::new(),
            gate_m: Mutex::new(()),
        }
    }

    /// A copy of the governor configuration.
    pub fn config(&self) -> GovernorConfig {
        self.config.lock().clone()
    }

    // ---- daemon lifecycle ---------------------------------------------------

    /// Whether the daemon currently owns vacuum cadence.
    pub fn daemon_running(&self) -> bool {
        self.daemon_running.load(Ordering::SeqCst)
    }

    pub(crate) fn set_daemon_running(&self, running: bool) {
        self.daemon_running.store(running, Ordering::SeqCst);
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the daemon to exit and wake it so it notices immediately.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.daemon_cv.notify_all();
    }

    /// Re-arm after a shutdown so a daemon can be restarted (used by
    /// `Server::into_inner` when live sessions force the teardown to
    /// roll back).
    pub(crate) fn reset_shutdown(&self) {
        self.shutdown.store(false, Ordering::SeqCst);
    }

    /// Nudge the daemon out of its interval sleep.
    pub fn wake_daemon(&self) {
        self.daemon_cv.notify_all();
    }

    /// Daemon-side: sleep until `timeout` elapses or a session wakes us.
    /// A notification racing the shutdown check is at worst a missed
    /// wakeup bounded by `timeout` — never a wedge.
    pub(crate) fn daemon_wait(&self, timeout: Duration) {
        let g = self.daemon_m.lock();
        if self.shutdown_requested() {
            return;
        }
        let _ = self.daemon_cv.wait_timeout(g, timeout);
    }

    /// The daemon's current sleep interval: `interval` at rest, scaled
    /// down toward `min_interval` as occupancy climbs past the low-water
    /// mark (adaptive cadence).
    pub(crate) fn adaptive_interval(&self) -> Duration {
        let cfg = self.config();
        let (total, _) = *self.occupancy.lock();
        if total > cfg.high_water_versions {
            cfg.min_interval
        } else if total > cfg.low_water_versions {
            // Between the watermarks: halve the rest interval.
            cfg.min_interval.max(cfg.interval / 2)
        } else {
            cfg.interval
        }
    }

    // ---- backpressure -------------------------------------------------------

    /// Whether the backpressure gate is currently engaged.
    pub fn backpressure_engaged(&self) -> bool {
        self.engaged.load(Ordering::SeqCst)
    }

    /// Last recorded (total versions, max per-segment versions).
    pub fn occupancy(&self) -> (usize, usize) {
        *self.occupancy.lock()
    }

    /// Feed a fresh occupancy reading: engages backpressure above the
    /// high-water marks (waking the daemon), releases it at or below the
    /// low-water mark, and leaves it unchanged in between (hysteresis).
    pub fn note_occupancy(&self, total: usize, max_segment: usize) {
        *self.occupancy.lock() = (total, max_segment);
        let cfg = self.config();
        if total > cfg.high_water_versions || max_segment > cfg.high_water_chain {
            if !self.engaged.swap(true, Ordering::SeqCst) {
                self.counters.backpressure_engaged.fetch_add(1, Ordering::Relaxed);
            }
            self.daemon_cv.notify_all();
        } else if total <= cfg.low_water_versions && self.engaged.swap(false, Ordering::SeqCst) {
            self.gate_cv.notify_all();
        }
    }

    /// Gate-side: wait one yield round for the daemon to drain.
    pub(crate) fn gate_wait(&self, timeout: Duration) {
        let g = self.gate_m.lock();
        if !self.backpressure_engaged() {
            return;
        }
        let _ = self.gate_cv.wait_timeout(g, timeout);
    }

    // ---- orphaned transactions ----------------------------------------------

    /// Park an abandoned open transaction for later abort under the
    /// engine lock; wakes the daemon to collect it.
    pub(crate) fn park_orphan(&self, snap: Snapshot) {
        self.orphans.lock().push(snap);
        self.has_orphans.store(true, Ordering::SeqCst);
        self.daemon_cv.notify_all();
    }

    /// Cheap check whether any orphans are parked.
    pub(crate) fn has_orphans(&self) -> bool {
        self.has_orphans.load(Ordering::SeqCst)
    }

    /// Take every parked orphan (caller must hold the engine write lock
    /// and abort them).
    pub(crate) fn take_orphans(&self) -> Vec<Snapshot> {
        let mut g = self.orphans.lock();
        self.has_orphans.store(false, Ordering::SeqCst);
        std::mem::take(&mut *g)
    }

    // ---- counters -----------------------------------------------------------

    /// `V$SERVER` rows: `(NAME, VALUE)` pairs in a fixed order.
    pub fn vserver_rows(&self) -> Vec<(&'static str, i64)> {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed) as i64;
        let cfg = self.config();
        let (total, max_seg) = self.occupancy();
        vec![
            ("DAEMON_RUNNING", i64::from(self.daemon_running())),
            ("DAEMON_PASSES", ld(&c.daemon_passes)),
            ("DAEMON_RESTARTS", ld(&c.daemon_restarts)),
            ("DAEMON_FAULTS", ld(&c.daemon_faults)),
            ("BACKPRESSURE_ENGAGED", i64::from(self.backpressure_engaged())),
            ("BACKPRESSURE_EVENTS", ld(&c.backpressure_engaged)),
            ("BACKPRESSURE_WAITS", ld(&c.backpressure_waits)),
            ("BACKPRESSURE_SELF_DRAINS", ld(&c.backpressure_self_drains)),
            ("CONFLICT_RETRIES", ld(&c.conflict_retries)),
            ("CONFLICT_RETRY_SUCCESSES", ld(&c.conflict_retry_successes)),
            ("CONFLICT_RETRY_EXHAUSTED", ld(&c.conflict_retry_exhausted)),
            ("STATEMENT_TIMEOUTS", ld(&c.statement_timeouts)),
            ("ORPHAN_ABORTS", ld(&c.orphan_aborts)),
            ("HELD_VERSIONS", total as i64),
            ("MAX_SEGMENT_VERSIONS", max_seg as i64),
            ("HIGH_WATER_VERSIONS", cfg.high_water_versions as i64),
            ("LOW_WATER_VERSIONS", cfg.low_water_versions as i64),
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
    fn watermark_hysteresis() {
        let g = ServerGovernor::new(GovernorConfig::deterministic(10, 2));
        assert!(!g.backpressure_engaged());
        g.note_occupancy(11, 3);
        assert!(g.backpressure_engaged());
        // Between the marks: stays engaged.
        g.note_occupancy(5, 1);
        assert!(g.backpressure_engaged());
        g.note_occupancy(2, 0);
        assert!(!g.backpressure_engaged());
        // Engage counter counted the single low→high crossing.
        assert_eq!(g.counters.backpressure_engaged.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_segment_chain_watermark_engages() {
        let g = ServerGovernor::new(GovernorConfig::deterministic(1000, 2));
        g.note_occupancy(10, 600); // total fine, one segment hot
        assert!(!g.backpressure_engaged());
        g.note_occupancy(10, 1030);
        assert!(g.backpressure_engaged());
    }

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

    #[test]
    fn adaptive_interval_tracks_occupancy() {
        let g = ServerGovernor::new(GovernorConfig::default());
        let cfg = g.config();
        assert_eq!(g.adaptive_interval(), cfg.interval);
        g.note_occupancy(cfg.low_water_versions + 1, 0);
        assert!(g.adaptive_interval() < cfg.interval);
        g.note_occupancy(cfg.high_water_versions + 1, 0);
        assert_eq!(g.adaptive_interval(), cfg.min_interval);
    }
}
