//! Row-level undo for transaction rollback.
//!
//! Every mutating operation on *database-resident* storage (heap rows, IOT
//! rows, LOB bytes) appends a compensating record to the [`UndoLog`] of
//! the transaction driving it. The engine keeps one log per open
//! transaction, keyed by transaction id beside its `TxnManager`; nothing
//! outside this crate holds one. Callers see savepoints only: a mark is a
//! log length, and rolling back to a mark applies the records past it in
//! reverse. Because domain-index data stored in tables/IOTs/LOBs flows
//! through the same paths, the paper's claim falls out structurally (§2.5:
//! "The transactional semantics are also automatically ensured for the
//! user index data, if the index data resides within the database") — and
//! the *absence* of any `FileStore` variant here is the §5 limitation.

use extidx_common::{Key, LobRef, Row, RowId};

use crate::page::SegmentId;

/// One compensating action.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted into a heap; undo deletes it.
    HeapInsert { seg: SegmentId, rid: RowId },
    /// A heap row was deleted; undo re-inserts the old image at its slot.
    HeapDelete { seg: SegmentId, rid: RowId, old: Row },
    /// A heap row was updated; undo restores the old image.
    HeapUpdate { seg: SegmentId, rid: RowId, old: Row },
    /// An IOT row was inserted (no previous row); undo deletes the key.
    IotInsert { seg: SegmentId, key: Key },
    /// An IOT row was replaced; undo restores the old row.
    IotReplace { seg: SegmentId, old: Row },
    /// An IOT row was deleted; undo re-inserts the old row under its
    /// original logical-rowid ordinal.
    IotDelete { seg: SegmentId, old: Row, ord: u64 },
    /// A LOB was allocated; undo frees it.
    LobAllocate { lob: LobRef },
    /// A LOB's bytes changed; undo restores the full prior image. Used by
    /// whole-LOB operations (overwrite) — byte-range writes/appends use
    /// [`UndoOp::LobSpan`] so concurrent transactions writing disjoint
    /// ranges of one LOB roll back independently.
    LobModify { lob: LobRef, old: Vec<u8> },
    /// A byte range `[start, start+len)` of a LOB was written or appended;
    /// undo restores `old` (the before-image clipped to the pre-write LOB
    /// length) in place and truncates/hole-fills the part the write
    /// extended. Offset-stable: rollback never shifts other writers' bytes.
    LobSpan { lob: LobRef, start: u64, len: u64, old: Vec<u8> },
    /// A LOB was freed; undo restores it.
    LobFree { lob: LobRef, old: Vec<u8> },
}

/// An ordered log of compensating actions for one transaction.
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
}

impl UndoLog {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a compensating action.
    pub fn push(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drain every action recorded at or after `mark` (a prior
    /// [`len`](Self::len) observation) in reverse (rollback) order,
    /// leaving the log at `mark` actions. Mark 0 is the whole transaction;
    /// a statement's or a single cartridge call's mark rewinds just that.
    pub fn drain_reverse_from(&mut self, mark: usize) -> Vec<UndoOp> {
        let mut ops = self.ops.split_off(mark.min(self.ops.len()));
        ops.reverse();
        ops
    }

    /// Discard everything (commit).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_common::Value;

    #[test]
    fn drain_reverses_order() {
        let mut log = UndoLog::new();
        log.push(UndoOp::HeapInsert { seg: SegmentId(1), rid: RowId::new(1, 0, 0) });
        log.push(UndoOp::HeapInsert { seg: SegmentId(1), rid: RowId::new(1, 0, 1) });
        let ops = log.drain_reverse_from(0);
        assert_eq!(ops.len(), 2);
        match &ops[0] {
            UndoOp::HeapInsert { rid, .. } => assert_eq!(rid.slot, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(log.is_empty());
    }

    #[test]
    fn clear_discards() {
        let mut log = UndoLog::new();
        log.push(UndoOp::IotDelete { seg: SegmentId(2), old: vec![Value::Integer(1)], ord: 0 });
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn drain_from_mark_partitions_at_mark() {
        let mut log = UndoLog::new();
        log.push(UndoOp::HeapInsert { seg: SegmentId(1), rid: RowId::new(1, 0, 0) });
        let mark = log.len();
        log.push(UndoOp::HeapInsert { seg: SegmentId(1), rid: RowId::new(1, 0, 1) });
        log.push(UndoOp::HeapInsert { seg: SegmentId(1), rid: RowId::new(1, 0, 2) });
        let tail = log.drain_reverse_from(mark);
        assert_eq!(log.len(), 1);
        assert_eq!(tail.len(), 2);
        // Out-of-range marks are clamped, not panicking.
        assert!(log.drain_reverse_from(99).is_empty());
        assert_eq!(log.len(), 1);
    }
}
