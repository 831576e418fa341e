//! Index health — the `VALID → SUSPECT → QUARANTINED` state machine and
//! its circuit breaker.
//!
//! Oracle8i marks a domain index `FAILED`/`UNUSABLE` when its cartridge
//! misbehaves; queries then refuse the index and DML skips its
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
//! While an index is unusable (QUARANTINED or BUILD_FAILED) the optimizer
//! plans the functional fallback (the operator's §2.4.2 functional
//! binding) and base-table DML makes no crossing into it, so the
//! statement succeeds. REBUILD has one path: it drops whatever the
//! cartridge holds and re-creates the index from the base table.
//!
//! The breaker is deterministic: windows are measured in per-index
//! crossing calls, never wall time.

use std::collections::HashMap;
use std::sync::Arc;

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
    /// does not maintain it, and only REBUILD restores it.
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
}

/// One row of the registry snapshot (backs `V$INDEX_HEALTH`).
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    pub index: String,
    pub state: HealthState,
    pub recent_faults: u32,
    pub total_faults: u64,
    pub calls: u64,
}

/// Index name (upper-cased) → its health. Each entry sits behind an `Arc`
/// and is copied on write, so an export shares every entry that has not
/// changed since the last one.
type Indexes = HashMap<Arc<str>, Arc<IndexHealth>>;

#[derive(Debug, Default)]
struct Inner {
    config: BreakerConfig,
    indexes: Indexes,
    /// Bumped by every state transition and every wholesale import: equal
    /// epochs mean no index changed state in between (a cached plan's
    /// validity stamp carries it).
    epoch: u64,
}

impl Inner {
    /// Count one transition, if `t` is one.
    fn note(&mut self, t: Option<Transition>) -> Option<Transition> {
        self.epoch += u64::from(t.is_some());
        t
    }

    fn entry(&self, index: &str) -> Option<&IndexHealth> {
        self.indexes.get(index.to_ascii_uppercase().as_str()).map(|h| &**h)
    }

    fn entry_mut(&mut self, index: &str) -> Option<&mut IndexHealth> {
        self.indexes.get_mut(index.to_ascii_uppercase().as_str()).map(Arc::make_mut)
    }
}

/// A copy of the registry's whole state — attached (opaquely) to WAL
/// commit markers and checkpoints so recovery restores health verbatim:
/// quarantines and breaker windows survive a crash.
#[derive(Debug, Clone)]
pub struct HealthDump {
    config: BreakerConfig,
    indexes: Indexes,
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
        self.inner.lock().indexes.insert(index.to_ascii_uppercase().into(), Arc::default());
    }

    /// Forget an index entirely (DROP INDEX).
    pub fn remove(&self, index: &str) {
        self.inner.lock().indexes.remove(index.to_ascii_uppercase().as_str());
    }

    /// Current state (VALID for unknown names — B-tree indexes and
    /// pre-health catalogs are simply healthy).
    pub fn state(&self, index: &str) -> HealthState {
        self.inner.lock().entry(index).map(|h| h.state).unwrap_or(HealthState::Valid)
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
        let h = g.entry_mut(index)?;
        h.calls += 1;
        let cutoff = h.calls.saturating_sub(window);
        h.recent_faults.retain(|&stamp| stamp > cutoff);
        if h.state == HealthState::Suspect && h.recent_faults.is_empty() {
            h.state = HealthState::Valid;
            return g.note(Some(Transition { from: HealthState::Suspect, to: HealthState::Valid }));
        }
        None
    }

    /// Record a sandbox-caught fault. Returns the breaker's transition, if
    /// any.
    pub fn note_fault(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let BreakerConfig { threshold, window } = g.config;
        let h = g.entry_mut(index)?;
        h.calls += 1;
        h.total_faults += 1;
        let cutoff = h.calls.saturating_sub(window);
        h.recent_faults.retain(|&stamp| stamp > cutoff);
        h.recent_faults.push(h.calls);
        let t = match h.state {
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
        };
        g.note(t)
    }

    /// Force-quarantine (the qgen chaos knob and administrative tests).
    pub fn quarantine(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = g.entry_mut(index)?;
        if h.state == HealthState::Quarantined {
            return None;
        }
        let from = h.state;
        h.state = HealthState::Quarantined;
        g.note(Some(Transition { from, to: HealthState::Quarantined }))
    }

    /// Mark a failed CREATE whose cleanup also faulted.
    pub fn set_build_failed(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = Arc::make_mut(g.indexes.entry(index.to_ascii_uppercase().into()).or_default());
        let from = h.state;
        h.state = HealthState::BuildFailed;
        let t = (from != HealthState::BuildFailed)
            .then_some(Transition { from, to: HealthState::BuildFailed });
        g.note(t)
    }

    /// Successful REBUILD: back to VALID with a clean slate.
    pub fn restore_valid(&self, index: &str) -> Option<Transition> {
        let mut g = self.inner.lock();
        let h = g.entry_mut(index)?;
        let from = h.state;
        *h = IndexHealth::default();
        let t = (from != HealthState::Valid).then_some(Transition { from, to: HealthState::Valid });
        g.note(t)
    }

    /// Copy the whole registry state (durability commit markers). Every
    /// index entry is shared with the registry until it next changes
    /// (copy on write), so a marker costs a map of pointers.
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
        g.epoch += 1;
    }

    /// The transition epoch: it moves whenever any index changes state
    /// (or the whole registry is imported), so a plan made under one epoch
    /// saw every index's usability as it still is.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// How many indexes [`HealthRegistry::snapshot`] reports now.
    pub fn index_count(&self) -> usize {
        self.inner.lock().indexes.len()
    }

    /// Snapshot of every tracked index, name-sorted (backs
    /// `V$INDEX_HEALTH`).
    pub fn snapshot(&self) -> Vec<HealthSnapshot> {
        let g = self.inner.lock();
        let mut rows: Vec<HealthSnapshot> = g
            .indexes
            .iter()
            .map(|(name, h)| HealthSnapshot {
                index: name.to_string(),
                state: h.state,
                recent_faults: h.recent_faults.len() as u32,
                total_faults: h.total_faults,
                calls: h.calls,
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
            reg.note_fault("IX"),
            Some(Transition { from: HealthState::Valid, to: HealthState::Suspect })
        );
        assert_eq!(reg.note_fault("IX"), None);
        assert_eq!(
            reg.note_fault("IX"),
            Some(Transition { from: HealthState::Suspect, to: HealthState::Quarantined })
        );
        assert!(!reg.is_usable("IX"));
        // Sticky: further faults and successes do not move it.
        assert_eq!(reg.note_fault("IX"), None);
        assert_eq!(reg.note_success("IX"), None);
        assert_eq!(reg.state("IX"), HealthState::Quarantined);
    }

    #[test]
    fn suspect_heals_when_window_slides_clean() {
        let reg = HealthRegistry::new();
        reg.set_breaker(BreakerConfig { threshold: 3, window: 4 });
        reg.register("IX");
        reg.note_fault("IX");
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
            reg.note_fault("IX");
            for _ in 0..4 {
                reg.note_success("IX");
            }
        }
        // Never two faults within 3 calls of each other.
        assert_ne!(reg.state("IX"), HealthState::Quarantined);
    }

    #[test]
    fn build_failed_is_sticky_until_restore() {
        let reg = HealthRegistry::new();
        reg.register("IX");
        let t = reg.set_build_failed("IX").unwrap();
        assert_eq!(t.to, HealthState::BuildFailed);
        assert!(!reg.is_usable("IX"));
        reg.note_fault("IX");
        assert_eq!(reg.state("IX"), HealthState::BuildFailed);
        reg.restore_valid("IX");
        assert_eq!(reg.state("IX"), HealthState::Valid);
    }

    #[test]
    fn unknown_indexes_read_as_valid() {
        let reg = HealthRegistry::new();
        assert_eq!(reg.state("NOPE"), HealthState::Valid);
        assert!(reg.is_usable("NOPE"));
        assert_eq!(reg.note_fault("NOPE"), None);
    }

    #[test]
    fn epoch_moves_with_transitions_only() {
        let reg = HealthRegistry::new();
        reg.register("IX");
        let e0 = reg.epoch();
        reg.note_success("IX");
        assert_eq!(reg.epoch(), e0, "a clean call is not a transition");
        reg.quarantine("IX");
        let e1 = reg.epoch();
        assert!(e1 > e0);
        reg.quarantine("IX");
        assert_eq!(reg.epoch(), e1, "already quarantined: no transition");
        reg.restore_valid("IX");
        let e2 = reg.epoch();
        assert!(e2 > e1);
        reg.import(&reg.export());
        assert!(reg.epoch() > e2, "an import replaces every state at once");
    }

    #[test]
    fn an_export_shares_the_entries_that_did_not_change() {
        let reg = HealthRegistry::new();
        reg.register("IX");
        reg.register("JX");
        let before = reg.export();
        reg.note_success("IX");
        let after = reg.export();
        assert!(Arc::ptr_eq(&before.indexes["JX"], &after.indexes["JX"]));
        assert!(!Arc::ptr_eq(&before.indexes["IX"], &after.indexes["IX"]));
        assert_eq!(before.indexes["IX"].calls + 1, after.indexes["IX"].calls, "the old export kept its copy");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = HealthRegistry::new();
        reg.register("B_IX");
        reg.register("A_IX");
        reg.note_fault("B_IX");
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].index, "A_IX");
        assert_eq!(snap[1].index, "B_IX");
        assert_eq!(snap[1].state, HealthState::Suspect);
        assert_eq!(snap[1].total_faults, 1);
    }
}
