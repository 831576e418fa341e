//! Invocation tracing — Figure 1 made observable.
//!
//! The paper's Figure 1 shows the call flow: client SQL arrives, the
//! indexing component calls the registered ODCIIndexStart/Fetch/Close
//! routines, the optimizer calls ODCIStatsIndexCost/Selectivity, DML
//! drives the maintenance routines. [`CallTrace`] records exactly those
//! crossings of the server↔cartridge boundary so the E1 experiment (and
//! any debugging session) can print the architecture diagram as a live
//! event log.
//!
//! Events live in a *bounded ring*: once `capacity` events are held the
//! oldest are dropped and counted in [`CallTrace::dropped`], so long qgen
//! sweeps cannot grow memory without limit. Per-(indextype, routine)
//! aggregates — call counts and total elapsed time — are kept separately
//! and are *not* subject to ring eviction; they back the `V$ODCI_CALLS`
//! virtual table and the tkprof-style session report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::server::CallbackMode;

/// Default ring capacity (events retained before the oldest are dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Which server component invoked the cartridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// DDL processing (CREATE/ALTER/TRUNCATE/DROP INDEX).
    Ddl,
    /// Implicit index maintenance during DML.
    Dml,
    /// The index-access component driving scans.
    IndexAccess,
    /// The cost-based optimizer.
    Optimizer,
    /// Recovery paths: crash recovery, index REBUILD, cleanup after a
    /// failed or dropped index, a scan's error-path close.
    Recovery,
    /// The fault-injection harness firing at a crossing.
    Fault,
    /// Index-health state machine transitions (VALID / SUSPECT /
    /// QUARANTINED / BUILD_FAILED) recorded by the circuit breaker.
    Health,
    /// Transaction-layer events: write-write conflicts (first-writer-wins
    /// aborts naming the winning transaction and the contended key), and
    /// commit/rollback delivery to registered event handlers.
    Txn,
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Component::Ddl => "DDL",
            Component::Dml => "DML",
            Component::IndexAccess => "INDEX-ACCESS",
            Component::Optimizer => "OPTIMIZER",
            Component::Recovery => "RECOVERY",
            Component::Fault => "FAULT",
            Component::Health => "HEALTH",
            Component::Txn => "TXN",
        };
        write!(f, "{s}")
    }
}

/// A routine the server invokes on cartridge code. Everything the host's
/// crossing needs to know about a call besides *which index* is a
/// function of the routine, so it lives in this one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    IndexCreate,
    IndexAlter,
    IndexTruncate,
    IndexDrop,
    IndexInsert,
    IndexUpdate,
    IndexDelete,
    IndexStart,
    IndexFetch,
    IndexClose,
    StatsCollect,
    StatsSelectivity,
    StatsIndexCost,
    /// `EventHandler::on_event(DbEvent::Commit)` (§5 database events).
    EventCommit,
    /// `EventHandler::on_event(DbEvent::Rollback)`.
    EventRollback,
}

impl Routine {
    /// `(name, invoking component, callback restriction mode)`.
    const fn row(self) -> (&'static str, Component, CallbackMode) {
        use CallbackMode::{Definition, Maintenance, Scan};
        use Component::{Ddl, Dml, IndexAccess, Optimizer, Txn};
        match self {
            Routine::IndexCreate => ("ODCIIndexCreate", Ddl, Definition),
            Routine::IndexAlter => ("ODCIIndexAlter", Ddl, Definition),
            Routine::IndexTruncate => ("ODCIIndexTruncate", Ddl, Definition),
            Routine::IndexDrop => ("ODCIIndexDrop", Ddl, Definition),
            Routine::IndexInsert => ("ODCIIndexInsert", Dml, Maintenance),
            Routine::IndexUpdate => ("ODCIIndexUpdate", Dml, Maintenance),
            Routine::IndexDelete => ("ODCIIndexDelete", Dml, Maintenance),
            Routine::IndexStart => ("ODCIIndexStart", IndexAccess, Scan),
            Routine::IndexFetch => ("ODCIIndexFetch", IndexAccess, Scan),
            Routine::IndexClose => ("ODCIIndexClose", IndexAccess, Scan),
            Routine::StatsCollect => ("ODCIStatsCollect", Optimizer, Definition),
            Routine::StatsSelectivity => ("ODCIStatsSelectivity", Optimizer, Scan),
            Routine::StatsIndexCost => ("ODCIStatsIndexCost", Optimizer, Scan),
            Routine::EventCommit => ("DbEventCommit", Txn, Definition),
            Routine::EventRollback => ("DbEventRollback", Txn, Definition),
        }
    }

    /// The name fault points, `V$ODCI_CALLS`, `V$TRACE` and
    /// `Error::CartridgeFault` know the routine by.
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// The server component that makes this call (Fig. 1).
    pub const fn component(self) -> Component {
        self.row().1
    }

    /// The §2.5 restriction the routine's server callbacks run under.
    pub const fn mode(self) -> CallbackMode {
        self.row().2
    }
}

/// One server→cartridge invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (survives ring eviction — gaps at the
    /// front of [`CallTrace::events`] mean events were dropped).
    pub seq: u64,
    /// Which server component made the call.
    pub component: Component,
    /// The ODCI routine name (e.g. `ODCIIndexFetch`).
    pub routine: &'static str,
    /// Which indextype was invoked.
    pub indextype: String,
    /// Human-readable argument summary.
    pub detail: String,
    /// Wall time spent inside the cartridge routine, in microseconds.
    /// Zero until the crossing completes (or for crossings that are not
    /// timed, e.g. fault-harness events).
    pub elapsed_micros: u64,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} -> {}.{}", self.component, self.detail, self.indextype, self.routine)
    }
}

/// Aggregate counters for one (indextype, routine) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutineStats {
    /// Number of crossings recorded.
    pub calls: u64,
    /// Total wall time spent inside the routine, microseconds.
    pub total_micros: u64,
}

#[derive(Default)]
struct TraceInner {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    /// (indextype, routine) → aggregate. Not subject to ring eviction.
    aggregates: BTreeMap<(String, &'static str), RoutineStats>,
}

/// The ring and its on/off switch. The switch is read without the lock,
/// so a crossing under a disabled trace takes no lock and builds no
/// detail string.
struct Shared {
    enabled: AtomicBool,
    ring: Mutex<TraceInner>,
}

/// A shared, toggleable trace. Cloning shares the underlying buffer, so
/// the engine and a test/bench harness can watch the same stream.
#[derive(Clone)]
pub struct CallTrace {
    inner: Arc<Shared>,
}

impl Default for CallTrace {
    fn default() -> Self {
        CallTrace {
            inner: Arc::new(Shared {
                enabled: AtomicBool::new(false),
                ring: Mutex::new(TraceInner {
                    capacity: DEFAULT_TRACE_CAPACITY,
                    ..TraceInner::default()
                }),
            }),
        }
    }
}

/// Handle returned by [`CallTrace::record`]; pass it to
/// [`CallTrace::finish`] once the crossing returns to stamp the event's
/// elapsed time and fold it into the per-routine aggregates.
///
/// The started-at instant lives in the handle (not the shared buffer), so
/// nested crossings — a cartridge calling back into the server mid-routine
/// — time correctly without any stack bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct CrossingHandle {
    seq: u64,
    started: Instant,
}

impl CallTrace {
    /// A new, disabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        // Under the lock, so a crossing that saw the trace on records into
        // the ring before `set_enabled(false)` returns.
        let _g = self.inner.ring.lock();
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Change the ring capacity. Excess oldest events are dropped (and
    /// counted) immediately.
    pub fn set_capacity(&self, capacity: usize) {
        let mut g = self.inner.ring.lock();
        g.capacity = capacity.max(1);
        while g.events.len() > g.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
    }

    /// Events evicted from the ring since the last [`CallTrace::clear`].
    pub fn dropped(&self) -> u64 {
        self.inner.ring.lock().dropped
    }

    /// Record a crossing (no-op while disabled, but the returned handle is
    /// still valid to pass to [`CallTrace::finish`]). The event enters the
    /// stream *before* the cartridge routine runs, so events a routine
    /// generates by calling back into the server appear after it. `detail`
    /// runs only when the event is recorded.
    pub fn record(
        &self,
        component: Component,
        routine: &'static str,
        indextype: &str,
        detail: impl FnOnce() -> String,
    ) -> CrossingHandle {
        let started = Instant::now();
        // A disabled trace hands back a handle that can never match a
        // recorded event, so a later `finish` stays a no-op.
        let mut seq = u64::MAX;
        if !self.is_enabled() {
            return CrossingHandle { seq, started };
        }
        let mut g = self.inner.ring.lock();
        if self.is_enabled() {
            seq = g.next_seq;
            g.next_seq += 1;
            let agg = g.aggregates.entry((indextype.to_string(), routine)).or_default();
            agg.calls += 1;
            g.events.push_back(TraceEvent {
                seq,
                component,
                routine,
                indextype: indextype.to_string(),
                detail: detail(),
                elapsed_micros: 0,
            });
            if g.events.len() > g.capacity {
                g.events.pop_front();
                g.dropped += 1;
            }
        }
        CrossingHandle { seq, started }
    }

    /// Stamp the elapsed time for a crossing recorded by
    /// [`CallTrace::record`], updating both the ring event (if still
    /// resident) and the per-routine aggregates.
    pub fn finish(&self, handle: CrossingHandle) {
        if handle.seq == u64::MAX || !self.is_enabled() {
            return;
        }
        let elapsed = handle.started.elapsed().as_micros() as u64;
        let mut g = self.inner.ring.lock();
        if !self.is_enabled() {
            return;
        }
        // Events are seq-ordered; search from the back since the crossing
        // we are finishing is normally the most recent few.
        if let Some(ev) = g.events.iter_mut().rev().find(|e| e.seq == handle.seq) {
            ev.elapsed_micros = elapsed;
            let key = (ev.indextype.clone(), ev.routine);
            if let Some(agg) = g.aggregates.get_mut(&key) {
                agg.total_micros += elapsed;
            }
        }
    }

    /// Snapshot the recorded events (oldest retained first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.ring.lock().events.iter().cloned().collect()
    }

    /// How many events and aggregates [`CallTrace::events`] and
    /// [`CallTrace::aggregates`] return now, counted without copying them.
    pub fn sizes(&self) -> (usize, usize) {
        let g = self.inner.ring.lock();
        (g.events.len(), g.aggregates.len())
    }

    /// Snapshot the per-(indextype, routine) aggregates, sorted by key.
    pub fn aggregates(&self) -> Vec<(String, &'static str, RoutineStats)> {
        self.inner
            .ring
            .lock()
            .aggregates
            .iter()
            .map(|((it, r), s)| (it.clone(), *r, *s))
            .collect()
    }

    /// Clear recorded events, aggregates, and the dropped counter.
    pub fn clear(&self) {
        let mut g = self.inner.ring.lock();
        g.events.clear();
        g.aggregates.clear();
        g.dropped = 0;
    }

    /// Routine names in recorded order — handy for call-sequence asserts.
    pub fn routine_sequence(&self) -> Vec<&'static str> {
        self.inner.ring.lock().events.iter().map(|e| e.routine).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = CallTrace::new();
        t.record(Component::Ddl, "ODCIIndexCreate", "T", || "x".into());
        // The detail is never built while the trace is off.
        let h = t.record(Component::Ddl, "ODCIIndexCreate", "T", || unreachable!("built"));
        t.finish(h);
        assert!(t.events().is_empty());
        assert!(t.aggregates().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let t = CallTrace::new();
        t.set_enabled(true);
        t.record(Component::IndexAccess, "ODCIIndexStart", "T", || "q1".into());
        t.record(Component::IndexAccess, "ODCIIndexFetch", "T", || "q1".into());
        t.record(Component::IndexAccess, "ODCIIndexClose", "T", || "q1".into());
        assert_eq!(
            t.routine_sequence(),
            vec!["ODCIIndexStart", "ODCIIndexFetch", "ODCIIndexClose"]
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = CallTrace::new();
        t.set_enabled(true);
        let t2 = t.clone();
        t2.record(Component::Optimizer, "ODCIStatsSelectivity", "T", || "".into());
        assert_eq!(t.events().len(), 1);
        t.clear();
        assert!(t2.events().is_empty());
    }

    #[test]
    fn event_display() {
        let e = TraceEvent {
            seq: 0,
            component: Component::Dml,
            routine: "ODCIIndexInsert",
            indextype: "TEXTINDEXTYPE".into(),
            detail: "EMPLOYEES row".into(),
            elapsed_micros: 0,
        };
        assert_eq!(
            e.to_string(),
            "[DML] EMPLOYEES row -> TEXTINDEXTYPE.ODCIIndexInsert"
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = CallTrace::new();
        t.set_enabled(true);
        t.set_capacity(3);
        for i in 0..5 {
            t.record(Component::Dml, "ODCIIndexInsert", "T", || format!("row {i}"));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest two (seq 0, 1) evicted; seqs of survivors are contiguous.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Aggregates are immune to eviction.
        let aggs = t.aggregates();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].2.calls, 5);
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert!(t.aggregates().is_empty());
    }

    #[test]
    fn finish_stamps_elapsed_and_aggregates() {
        let t = CallTrace::new();
        t.set_enabled(true);
        let h = t.record(Component::IndexAccess, "ODCIIndexFetch", "T", || "q".into());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.finish(h);
        let evs = t.events();
        assert!(evs[0].elapsed_micros >= 1000, "elapsed = {}", evs[0].elapsed_micros);
        let aggs = t.aggregates();
        assert_eq!(aggs[0].2.calls, 1);
        assert_eq!(aggs[0].2.total_micros, evs[0].elapsed_micros);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let t = CallTrace::new();
        t.set_enabled(true);
        for _ in 0..4 {
            t.record(Component::Ddl, "ODCIIndexCreate", "T", || "".into());
        }
        t.set_capacity(2);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
    }
}
