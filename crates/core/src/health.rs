//! Index health — the `VALID → SUSPECT → QUARANTINED` state machine,
//! circuit breaker, and per-index pending-work log.
//!
//! Oracle8i marks a domain index `FAILED`/`UNUSABLE` when its cartridge
//! misbehaves; queries then refuse the index and DML can defer its
//! maintenance. [`HealthRegistry`] is our rendering of that state
//! machine, layered on the sandbox (`sandbox` module):
//!
//! - every sandboxed crossing reports its outcome here;
//! - a clean call advances the index's call clock;
//! - a [`Error::CartridgeFault`] (panic / tick-budget overrun) counts as
//!   a *fault*: the first one moves `VALID → SUSPECT`, and when the
//!   circuit breaker sees `threshold` faults within the last `window`
//!   calls on that index it trips `SUSPECT → QUARANTINED`;
//! - a SUSPECT index whose recent window drains of faults heals back to
//!   `VALID` on its own — only QUARANTINED (and BUILD_FAILED) are sticky
//!   and require `ALTER INDEX … REBUILD`.
//!
//! While an index is QUARANTINED the optimizer plans the functional
//! fallback (the operator's §2.4.2 functional binding) and base-table
//! DML appends the index's share of the work to the *pending log* held
//! here, so the statement succeeds and REBUILD can replay the log later.
//! Faults in maintenance/definition routines additionally set a *dirty*
//! flag — the cartridge's own storage may be inconsistent, so REBUILD
//! must rebuild from the base table instead of trusting a replay.
//!
//! The breaker is deterministic: windows are measured in per-index
//! crossing calls, never wall time.

use std::collections::HashMap;
use std::sync::Arc;

use extidx_common::{RowId, Value};
use parking_lot::Mutex;

/// The health state of one domain index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Fully usable; the optimizer may plan it and DML maintains it.
    #[default]
    Valid,
    /// Recent faults below the breaker threshold: still usable, under
    /// observation. Heals to `Valid` as clean calls slide the window.
    Suspect,
    /// The breaker tripped: the optimizer must not plan this index, DML
    /// defers to the pending log, and only REBUILD restores it.
    Quarantined,
    /// `CREATE INDEX` failed *and* its cleanup faulted: the dictionary
    /// entry is kept (the name is taken, storage may linger) and only a
    /// full REBUILD or DROP resolves it.
    BuildFailed,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HealthState::Valid => "VALID",
            HealthState::Suspect => "SUSPECT",
            HealthState::Quarantined => "QUARANTINED",
            HealthState::BuildFailed => "BUILD_FAILED",
        };
        write!(f, "{s}")
    }
}

/// Circuit-breaker thresholds: trip when `threshold` faults land within
/// the last `window` crossing calls of one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    pub threshold: u32,
    pub window: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { threshold: 3, window: 10 }
    }
}

/// One domain-index maintenance operation — an index's share of a
/// base-table DML. Applied directly to a usable index (and kept in the
/// statement's compensation log), deferred to the pending log of a
/// quarantined one.
#[derive(Debug, Clone, PartialEq)]
pub enum PendingOp {
    Insert { rid: RowId, value: Value },
    Update { rid: RowId, old: Value, new: Value },
    Delete { rid: RowId, old: Value },
}

impl PendingOp {
    /// The operation that undoes this one: delete-for-insert,
    /// re-insert-for-delete, reverse-update.
    pub fn inverse(self) -> PendingOp {
        match self {
            PendingOp::Insert { rid, value } => PendingOp::Delete { rid, old: value },
            PendingOp::Update { rid, old, new } => PendingOp::Update { rid, old: new, new: old },
            PendingOp::Delete { rid, old } => PendingOp::Insert { rid, value: old },
        }
    }
}

/// A state transition observed by the registry, for CallTrace recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    pub from: HealthState,
    pub to: HealthState,
}

#[derive(Debug, Default, Clone)]
struct IndexHealth {
    state: HealthState,
    /// Per-index crossing-call clock (successes and faults both count).
    calls: u64,
    /// Call-clock stamps of recent faults, pruned to the breaker window.
    recent_faults: Vec<u64>,
    total_faults: u64,
    /// Set when a maintenance/definition routine faulted: cartridge
    /// storage may be inconsistent, so only a full rebuild is safe.
    dirty: bool,
    pending: Vec<PendingOp>,
}

/// One row of the registry snapshot (backs `V$INDEX_HEALTH`).
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    pub index: String,
    pub state: HealthState,
    pub recent_faults: u32,
    pub total_faults: u64,
    pub pending_ops: usize,
    pub calls: u64,
    pub dirty: bool,
}

#[derive(Debug, Default)]
struct Inner {
    config: BreakerConfig,
    indexes: HashMap<String, IndexHealth>,
}

/// A deep copy of the registry's whole state — attached (opaquely) to WAL
/// commit markers and checkpoints so recovery restores health verbatim:
/// quarantines, pending-work logs, and dirty flags survive a crash.
#[derive(Debug, Clone)]
pub struct HealthDump {
    config: BreakerConfig,
    indexes: HashMap<String, IndexHealth>,
}

/// Shared, cloneable health registry (the same handle pattern as
/// [`crate::fault::FaultInjector`] and [`crate::trace::CallTrace`]), so
/// read-only engine contexts can still record scan faults.
#[derive(Debug, Clone, Default)]
pub struct HealthRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl HealthRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the breaker thresholds (settable per ISSUE; tests use
    /// tight windows to trip quickly).
    pub fn set_breaker(&self, config: BreakerConfig) {
        self.inner.lock().config = config;
    }

    /// Current breaker thresholds.
    pub fn breaker(&self) -> BreakerConfig {
        self.inner.lock().config
    }

    /// Register a new index as VALID (domain-index CREATE).
    pub fn register(&self, index: &str) {
        self.inner
            .lock()
            .indexes
            .insert(index.to_ascii_uppercase(), IndexHealth::default());
    }

    /// Forget an index entirely (DROP INDEX).
    pub fn remove(&self, index: &str) {
        self.inner.lock().indexes.remove(&index.to_ascii_uppercase());
    }

    /// Current state (VALID for unknown names — B-tree indexes and
    /// pre-health catalogs are simply healthy).
    pub fn state(&self, index: &str) -> HealthState {
        self.inner
            .lock()
            .indexes
            .get(&index.to_ascii_uppercase())
            .map(|h| h.state)
            .unwrap_or(HealthState::Valid)
    }

    /// Whether the optimizer may plan this index and DML should maintain
    /// it directly.
    pub fn is_usable(&self, index: &str) -> bool {
        matches!(self.state(index), HealthState::Valid | HealthState::Suspect)
    }

    /// Record a clean crossing: advances the call clock and lets a
    /// SUSPECT index heal once the window slides past its faults.
    /// Returns a transition if one happened.
    pub fn note_success(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let window = g.config.window;
        let h = g.indexes.get_mut(&index.to_ascii_uppercase())?;
        h.calls += 1;
        let cutoff = h.calls.saturating_sub(window);
        h.recent_faults.retain(|&stamp| stamp > cutoff);
        if h.state == HealthState::Suspect && h.recent_faults.is_empty() {
            h.state = HealthState::Valid;
            return Some(Transition { from: HealthState::Suspect, to: HealthState::Valid });
        }
        None
    }

    /// Record a sandbox-caught fault. `dirty` marks the cartridge's own
    /// storage as possibly inconsistent (maintenance/definition
    /// routines); scan/stats faults leave it clean. Returns the breaker's
    /// transition, if any.
    pub fn note_fault(&self, index: &str, dirty: bool) -> Option<Transition> {
        let mut g = self.inner.lock();
        let BreakerConfig { threshold, window } = g.config;
        let h = g.indexes.get_mut(&index.to_ascii_uppercase())?;
        h.calls += 1;
        h.total_faults += 1;
        h.dirty |= dirty;
        let cutoff = h.calls.saturating_sub(window);
        h.recent_faults.retain(|&stamp| stamp > cutoff);
        h.recent_faults.push(h.calls);
        match h.state {
            HealthState::Valid => {
                if h.recent_faults.len() as u32 >= threshold {
                    h.state = HealthState::Quarantined;
                    Some(Transition { from: HealthState::Valid, to: HealthState::Quarantined })
                } else {
                    h.state = HealthState::Suspect;
                    Some(Transition { from: HealthState::Valid, to: HealthState::Suspect })
                }
            }
            HealthState::Suspect => {
                if h.recent_faults.len() as u32 >= threshold {
                    h.state = HealthState::Quarantined;
                    Some(Transition { from: HealthState::Suspect, to: HealthState::Quarantined })
                } else {
                    None
                }
            }
            // Sticky states: faults during recovery attempts don't
            // transition further.
            HealthState::Quarantined | HealthState::BuildFailed => None,
        }
    }

    /// Force-quarantine (the qgen chaos knob and administrative tests).
    pub fn quarantine(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = g.indexes.get_mut(&index.to_ascii_uppercase())?;
        if h.state == HealthState::Quarantined {
            return None;
        }
        let from = h.state;
        h.state = HealthState::Quarantined;
        Some(Transition { from, to: HealthState::Quarantined })
    }

    /// Mark a failed CREATE whose cleanup also faulted.
    pub fn set_build_failed(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = g.indexes.entry(index.to_ascii_uppercase()).or_default();
        let from = h.state;
        h.state = HealthState::BuildFailed;
        h.dirty = true;
        (from != HealthState::BuildFailed)
            .then_some(Transition { from, to: HealthState::BuildFailed })
    }

    /// Mark the cartridge's storage as requiring a full rebuild (e.g. a
    /// transaction rollback invalidated pending-log assumptions).
    pub fn mark_dirty(&self, index: &str) {
        if let Some(h) = self.inner.lock().indexes.get_mut(&index.to_ascii_uppercase()) {
            h.dirty = true;
        }
    }

    /// Whether REBUILD must rebuild from the base table instead of
    /// replaying the pending log.
    pub fn needs_full_rebuild(&self, index: &str) -> bool {
        self.inner
            .lock()
            .indexes
            .get(&index.to_ascii_uppercase())
            .map(|h| h.dirty || h.state == HealthState::BuildFailed)
            .unwrap_or(false)
    }

    /// Append one deferred maintenance op (DML against a quarantined
    /// index).
    pub fn append_pending(&self, index: &str, op: PendingOp) {
        if let Some(h) = self.inner.lock().indexes.get_mut(&index.to_ascii_uppercase()) {
            h.pending.push(op);
        }
    }

    /// Drop the most recently appended pending op (statement-failure
    /// compensation: appends are statement-scoped until the boundary
    /// commits them).
    pub fn pop_pending(&self, index: &str) {
        if let Some(h) = self.inner.lock().indexes.get_mut(&index.to_ascii_uppercase()) {
            h.pending.pop();
        }
    }

    /// Take the whole pending log (REBUILD replay).
    pub fn take_pending(&self, index: &str) -> Vec<PendingOp> {
        self.inner
            .lock()
            .indexes
            .get_mut(&index.to_ascii_uppercase())
            .map(|h| std::mem::take(&mut h.pending))
            .unwrap_or_default()
    }

    /// Put a pending log back (failed REBUILD replay keeps the debt).
    pub fn restore_pending(&self, index: &str, ops: Vec<PendingOp>) {
        if let Some(h) = self.inner.lock().indexes.get_mut(&index.to_ascii_uppercase()) {
            let mut ops = ops;
            ops.append(&mut h.pending);
            h.pending = ops;
        }
    }

    /// Pending-log length.
    pub fn pending_len(&self, index: &str) -> usize {
        self.inner
            .lock()
            .indexes
            .get(&index.to_ascii_uppercase())
            .map(|h| h.pending.len())
            .unwrap_or(0)
    }

    /// Successful REBUILD: back to VALID with a clean slate.
    pub fn restore_valid(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = g.indexes.get_mut(&index.to_ascii_uppercase())?;
        let from = h.state;
        *h = IndexHealth::default();
        (from != HealthState::Valid).then_some(Transition { from, to: HealthState::Valid })
    }

    /// Deep-copy the whole registry state (durability commit markers).
    pub fn export(&self) -> HealthDump {
        let g = self.inner.lock();
        HealthDump { config: g.config, indexes: g.indexes.clone() }
    }

    /// Replace the whole registry state from a dump (crash recovery). The
    /// shared handle is kept — every clone of this registry sees the
    /// imported state.
    pub fn import(&self, dump: &HealthDump) {
        let mut g = self.inner.lock();
        g.config = dump.config;
        g.indexes = dump.indexes.clone();
    }

    /// Snapshot of every tracked index, name-sorted (backs
    /// `V$INDEX_HEALTH`).
    pub fn snapshot(&self) -> Vec<HealthSnapshot> {
        let g = self.inner.lock();
        let mut rows: Vec<HealthSnapshot> = g
            .indexes
            .iter()
            .map(|(name, h)| HealthSnapshot {
                index: name.clone(),
                state: h.state,
                recent_faults: h.recent_faults.len() as u32,
                total_faults: h.total_faults,
                pending_ops: h.pending.len(),
                calls: h.calls,
                dirty: h.dirty,
            })
            .collect();
        rows.sort_by(|a, b| a.index.cmp(&b.index));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_at_threshold_within_window() {
        let reg = HealthRegistry::new();
        reg.set_breaker(BreakerConfig { threshold: 3, window: 10 });
        reg.register("IX");
        assert_eq!(reg.state("IX"), HealthState::Valid);
        assert_eq!(
            reg.note_fault("IX", false),
            Some(Transition { from: HealthState::Valid, to: HealthState::Suspect })
        );
        assert_eq!(reg.note_fault("IX", false), None);
        assert_eq!(
            reg.note_fault("IX", false),
            Some(Transition { from: HealthState::Suspect, to: HealthState::Quarantined })
        );
        assert!(!reg.is_usable("IX"));
        // Sticky: further faults and successes do not move it.
        assert_eq!(reg.note_fault("IX", false), None);
        assert_eq!(reg.note_success("IX"), None);
        assert_eq!(reg.state("IX"), HealthState::Quarantined);
    }

    #[test]
    fn suspect_heals_when_window_slides_clean() {
        let reg = HealthRegistry::new();
        reg.set_breaker(BreakerConfig { threshold: 3, window: 4 });
        reg.register("IX");
        reg.note_fault("IX", false);
        assert_eq!(reg.state("IX"), HealthState::Suspect);
        for _ in 0..3 {
            assert_eq!(reg.note_success("IX"), None);
            assert_eq!(reg.state("IX"), HealthState::Suspect);
        }
        // Fourth clean call pushes the fault out of the window.
        assert_eq!(
            reg.note_success("IX"),
            Some(Transition { from: HealthState::Suspect, to: HealthState::Valid })
        );
        assert!(reg.is_usable("IX"));
    }

    #[test]
    fn spaced_faults_do_not_trip_the_breaker() {
        let reg = HealthRegistry::new();
        reg.set_breaker(BreakerConfig { threshold: 2, window: 3 });
        reg.register("IX");
        for _ in 0..5 {
            reg.note_fault("IX", false);
            for _ in 0..4 {
                reg.note_success("IX");
            }
        }
        // Never two faults within 3 calls of each other.
        assert_ne!(reg.state("IX"), HealthState::Quarantined);
    }

    #[test]
    fn dirty_flag_and_pending_log() {
        let reg = HealthRegistry::new();
        reg.register("IX");
        assert!(!reg.needs_full_rebuild("IX"));
        reg.note_fault("IX", false); // scan fault: clean storage
        assert!(!reg.needs_full_rebuild("IX"));
        reg.note_fault("IX", true); // maintenance fault: dirty
        assert!(reg.needs_full_rebuild("IX"));

        reg.quarantine("IX");
        reg.append_pending("IX", PendingOp::Delete { rid: RowId::new(1, 0, 0), old: Value::Null });
        reg.append_pending(
            "IX",
            PendingOp::Insert { rid: RowId::new(1, 0, 1), value: Value::from("x") },
        );
        assert_eq!(reg.pending_len("IX"), 2);
        reg.pop_pending("IX");
        assert_eq!(reg.pending_len("IX"), 1);
        let ops = reg.take_pending("IX");
        assert_eq!(ops.len(), 1);
        assert_eq!(reg.pending_len("IX"), 0);
        reg.restore_pending("IX", ops);
        assert_eq!(reg.pending_len("IX"), 1);

        let t = reg.restore_valid("IX").unwrap();
        assert_eq!(t.to, HealthState::Valid);
        assert!(!reg.needs_full_rebuild("IX"));
        assert_eq!(reg.pending_len("IX"), 0);
    }

    #[test]
    fn build_failed_is_sticky_until_restore() {
        let reg = HealthRegistry::new();
        reg.register("IX");
        let t = reg.set_build_failed("IX").unwrap();
        assert_eq!(t.to, HealthState::BuildFailed);
        assert!(!reg.is_usable("IX"));
        assert!(reg.needs_full_rebuild("IX"));
        reg.note_fault("IX", false);
        assert_eq!(reg.state("IX"), HealthState::BuildFailed);
        reg.restore_valid("IX");
        assert_eq!(reg.state("IX"), HealthState::Valid);
    }

    #[test]
    fn unknown_indexes_read_as_valid() {
        let reg = HealthRegistry::new();
        assert_eq!(reg.state("NOPE"), HealthState::Valid);
        assert!(reg.is_usable("NOPE"));
        assert_eq!(reg.note_fault("NOPE", true), None);
        assert_eq!(reg.pending_len("NOPE"), 0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = HealthRegistry::new();
        reg.register("B_IX");
        reg.register("A_IX");
        reg.note_fault("B_IX", false);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].index, "A_IX");
        assert_eq!(snap[1].index, "B_IX");
        assert_eq!(snap[1].state, HealthState::Suspect);
        assert_eq!(snap[1].total_faults, 1);
    }
}
