//! Row-level undo for transaction rollback.
//!
//! Every mutating operation on *database-resident* storage (heap rows, IOT
//! rows, LOB bytes) appends a compensating record to the [`UndoLog`] of
//! the transaction driving it. The engine keeps one log per transaction,
//! keyed by transaction id beside its `TxnManager`; nothing outside this
//! crate holds one. Callers see savepoints only: a mark is a log length,
//! and rolling back to a mark applies the records past it in reverse,
//! removing each only once its compensation is applied.
//!
//! An entry that restores a displaced row or LOB content is the one copy
//! of that before-image: a version chain names it by its position in the
//! log and reads it there, so a log outlives its transaction for as long
//! as a chain version points into it. Because domain-index data stored in
//! tables/IOTs/LOBs flows through the same paths, the paper's claim falls
//! out structurally (§2.5: "The transactional semantics are also
//! automatically ensured for the user index data, if the index data
//! resides within the database") — and the *absence* of any `FileStore`
//! variant here is the §5 limitation.

use extidx_common::{LobRef, Row};

use crate::wal::WalRecord;

/// One compensating action.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// The compensation record, logged and applied like forward work. An
    /// update's or delete's carries the displaced row or LOB content.
    Apply(WalRecord),
    /// A LOB byte range was written or appended. Boxed so an entry stays
    /// the size of a [`WalRecord`].
    LobSpan(Box<LobSpan>),
}

/// A LOB write of `[start, start+len)`: `old` is the before-image clipped
/// to the pre-write LOB length. Undo restores it in place, then truncates
/// or hole-fills the part the write extended — decided at rollback, from
/// the LOB's length then. Offset-stable: rollback never shifts other
/// writers' bytes.
#[derive(Debug, Clone)]
pub struct LobSpan {
    pub lob: LobRef,
    pub start: u64,
    pub len: u64,
    pub old: Vec<u8>,
}

impl UndoOp {
    /// The displaced row this entry restores: the image of the chain
    /// version that names it.
    pub(crate) fn row(&self) -> &Row {
        match self {
            UndoOp::Apply(
                WalRecord::HeapUpdate { row, .. }
                | WalRecord::IotUpsertOrd { row, .. }
                | WalRecord::IotInsertOrd { row, .. },
            ) => row,
            other => unreachable!("undo entry {other:?} holds no row image"),
        }
    }

    /// The displaced LOB bytes this entry restores: the image of the span
    /// version that names it.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            UndoOp::Apply(WalRecord::LobRestore { bytes, .. }) => bytes,
            UndoOp::LobSpan(span) => &span.old,
            other => unreachable!("undo entry {other:?} holds no LOB image"),
        }
    }
}

/// One transaction's compensating actions, oldest first. An action's
/// position is the log's length before it was pushed.
pub type UndoLog = Vec<UndoOp>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_entry_holds_its_bytes() {
        let span = LobSpan { lob: LobRef(3), start: 4, len: 2, old: b"ab".to_vec() };
        assert_eq!(UndoOp::LobSpan(Box::new(span)).bytes(), b"ab");
        let whole = WalRecord::LobRestore { lob: LobRef(3), bytes: b"all".to_vec() };
        assert_eq!(UndoOp::Apply(whole).bytes(), b"all");
    }
}
