//! Write-ahead logging and checkpoint/snapshot durability.
//!
//! The paper's §5 leaves recovery of domain-index data to the cartridge;
//! everything the kernel stores (heaps, IOTs, LOBs, the catalog) must
//! survive a crash on its own. [`DurableMedium`] is the "disk" of this
//! reproduction: a handle that outlives any one
//! [`StorageEngine`](crate::engine::StorageEngine)/`Database` instance and
//! holds
//!
//! - the last **checkpoint** — a deep snapshot of every segment plus
//!   opaque catalog/health dumps, stamped with the LSN it covers;
//! - the **WAL** — logical redo records appended *before* each in-memory
//!   apply, with per-record LSNs and [`WalRecord::Commit`] markers at
//!   statement/transaction boundaries;
//! - a write-through **file mirror** — external files hit the medium
//!   immediately (real files don't wait for commit), which is exactly why
//!   file-backed domain indexes need the quarantine path on recovery;
//! - a crash switch: an injected fault at a `wal.*` point freezes the
//!   medium (nothing later reaches it), simulating the process dying
//!   between append and apply, apply and commit, or mid-checkpoint.
//!
//! Recovery (driven by the SQL layer) restores the snapshot, replays every
//! record with `lsn > snapshot.last_lsn` up to the last commit marker,
//! discards the uncommitted tail, and compares [`WalRecord::FileActivity`]
//! stamps in that tail against each index's
//! `OdciIndex::external_files` to decide which file-backed indexes come up
//! QUARANTINED instead of VALID.
//!
//! All redo records are *logical* (operation + arguments). That is sound
//! because every physical placement decision in the engine — heap
//! free-list slot choice, IOT ordinal assignment, LOB ref numbering,
//! segment ids — is a deterministic function of prior state, so replaying
//! the same logical operations from the snapshot reproduces the same
//! physical state, byte for byte.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use extidx_common::{Error, Key, LobRef, Result, Row, RowId};
use parking_lot::Mutex;

use crate::file_store::FileStore;
use crate::heap::HeapTable;
use crate::iot::IndexOrganizedTable;
use crate::lob::LobStore;
use crate::page::SegmentId;

/// Opaque dump attached to commit markers and checkpoints. The storage
/// crate cannot name the SQL layer's catalog types, so they travel as
/// `Any` and are downcast by the layer that produced them.
pub type CommitBlob = Arc<dyn Any + Send + Sync>;

/// Hook consulted at every `wal.*` crossing — the SQL layer installs a
/// closure over its `FaultInjector` so WAL crash points fold into the
/// existing fault matrix. An `Err` freezes the medium (simulated crash).
pub type WalFaultHook = Arc<dyn Fn(&str) -> Result<()> + Send + Sync>;

/// Crash point: after a record is durably appended, before the in-memory
/// apply.
pub const FP_WAL_APPEND: &str = "wal.append";
/// Crash point: after the in-memory apply, before anything else.
pub const FP_WAL_APPLY: &str = "wal.apply";
/// Crash point: at the statement boundary, before the commit marker lands.
pub const FP_WAL_COMMIT: &str = "wal.commit";
/// Crash point: at checkpoint start, before the snapshot is taken.
pub const FP_WAL_CHECKPOINT: &str = "wal.checkpoint";
/// Crash point: after the snapshot is installed, before the WAL tail is
/// truncated.
pub const FP_WAL_CHECKPOINT_TRUNCATE: &str = "wal.checkpoint.truncate";

/// Every `wal.*` fault point, for test matrices.
pub const WAL_FAULT_POINTS: &[&str] =
    &[FP_WAL_APPEND, FP_WAL_APPLY, FP_WAL_COMMIT, FP_WAL_CHECKPOINT, FP_WAL_CHECKPOINT_TRUNCATE];

/// One logical redo record. Mirrors every undo-visible mutation of the
/// storage engine plus the rollback-only applications (`HeapInsertAt`,
/// `IotInsertOrd`, `LobRestore`) — an explicit-transaction ROLLBACK is
/// itself redone on recovery, since a commit marker follows it.
#[derive(Clone)]
pub enum WalRecord {
    /// Segment-explicit creation. Under concurrent transactions, replay
    /// order is commit order — not statement-execution order — so every
    /// allocation-bearing record must carry the placement decision the
    /// live run made instead of re-deriving it from replay-time state.
    CreateHeapAt { seg: SegmentId },
    CreateIotAt { seg: SegmentId, key_cols: usize },
    DropSegment { seg: SegmentId },
    TruncateSegment { seg: SegmentId },
    HeapInsertAt { seg: SegmentId, rid: RowId, row: Row },
    HeapUpdate { seg: SegmentId, rid: RowId, row: Row },
    HeapDelete { seg: SegmentId, rid: RowId },
    IotInsertOrd { seg: SegmentId, row: Row, ord: u64 },
    /// Ordinal-explicit upsert (see [`WalRecord::CreateHeapAt`]): an upsert
    /// that inserts must assign the same logical rowid on replay.
    IotUpsertOrd { seg: SegmentId, row: Row, ord: u64 },
    IotDelete { seg: SegmentId, key: Key },
    /// Ref-explicit LOB allocation (see [`WalRecord::CreateHeapAt`]).
    LobAllocateAt { lob: LobRef },
    LobWrite { lob: LobRef, offset: u64, bytes: Vec<u8> },
    /// Offset-explicit append (see [`WalRecord::CreateHeapAt`]): the live
    /// run appends at its physical end-of-lob, but commit-order replay
    /// skips aborted transactions' appends, so the landing offset must be
    /// carried. Replay hole-fills any gap below `offset` with `0xFF` — the
    /// tombstone convention record-structured stores skip — exactly what
    /// live rollback leaves behind.
    LobAppendAt { lob: LobRef, offset: u64, bytes: Vec<u8> },
    LobOverwrite { lob: LobRef, bytes: Vec<u8> },
    /// Truncate to `len` bytes (redo of a span-undo that shrank the LOB).
    LobTruncate { lob: LobRef, len: u64 },
    LobFree { lob: LobRef },
    LobRestore { lob: LobRef, bytes: Vec<u8> },
    /// An external file was touched (create/remove/write/append). Not
    /// replayed — file content survives in the mirror — but recovery uses
    /// stamps *after* the last commit marker to mark files dirty.
    FileActivity { name: String },
    /// Statement/transaction boundary: everything before this marker is
    /// committed. Carries the catalog + health dumps current at commit.
    Commit { payload: Option<CommitBlob> },
}

impl std::fmt::Debug for WalRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            WalRecord::CreateHeapAt { .. } => "CreateHeapAt",
            WalRecord::CreateIotAt { .. } => "CreateIotAt",
            WalRecord::DropSegment { .. } => "DropSegment",
            WalRecord::TruncateSegment { .. } => "TruncateSegment",
            WalRecord::HeapInsertAt { .. } => "HeapInsertAt",
            WalRecord::HeapUpdate { .. } => "HeapUpdate",
            WalRecord::HeapDelete { .. } => "HeapDelete",
            WalRecord::IotInsertOrd { .. } => "IotInsertOrd",
            WalRecord::IotUpsertOrd { .. } => "IotUpsertOrd",
            WalRecord::IotDelete { .. } => "IotDelete",
            WalRecord::LobAllocateAt { .. } => "LobAllocateAt",
            WalRecord::LobWrite { .. } => "LobWrite",
            WalRecord::LobAppendAt { .. } => "LobAppendAt",
            WalRecord::LobOverwrite { .. } => "LobOverwrite",
            WalRecord::LobTruncate { .. } => "LobTruncate",
            WalRecord::LobFree { .. } => "LobFree",
            WalRecord::LobRestore { .. } => "LobRestore",
            WalRecord::FileActivity { .. } => "FileActivity",
            WalRecord::Commit { .. } => "Commit",
        };
        write!(f, "{name}")
    }
}

/// Deep snapshot of the storage engine (everything but the buffer cache,
/// which is rebuilt cold on recovery — a restart starts with a cold
/// cache, as it would in a real system).
#[derive(Clone, Default)]
pub struct EngineSnapshot {
    pub heaps: HashMap<SegmentId, HeapTable>,
    pub iots: HashMap<SegmentId, IndexOrganizedTable>,
    pub lobs: LobStore,
    pub files: FileStore,
    pub next_segment: u32,
}

/// A checkpoint: engine snapshot + catalog/health dumps, valid through
/// `last_lsn`. Records with `lsn <= last_lsn` that linger in the WAL
/// (crash between snapshot install and truncation) are skipped on
/// recovery — the LSN rule that makes mid-checkpoint crashes safe.
#[derive(Clone)]
pub struct CheckpointImage {
    pub last_lsn: u64,
    pub engine: EngineSnapshot,
    pub payload: Option<CommitBlob>,
}

/// Counters for observability and the E16 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    pub records_appended: u64,
    pub commits: u64,
    pub checkpoints: u64,
    pub wal_len: usize,
}

/// One durably appended WAL entry: its LSN, the transaction that wrote it
/// (0 = the legacy single-session/autocommit lane), and the record.
#[derive(Clone)]
struct WalEntry {
    lsn: u64,
    txn: u64,
    rec: WalRecord,
}

struct MediumInner {
    checkpoint: Option<CheckpointImage>,
    wal: Vec<WalEntry>,
    next_lsn: u64,
    /// Write-through mirror of the external file store — the authoritative
    /// on-disk file state after a crash.
    files: FileStore,
    crashed: bool,
    hook: Option<WalFaultHook>,
    stats: WalStats,
}

impl Default for MediumInner {
    fn default() -> Self {
        MediumInner {
            checkpoint: None,
            wal: Vec::new(),
            // LSNs start at 1: a checkpoint of a virgin medium covers
            // `last_lsn = 0`, and `lsn > last_lsn` must then keep every
            // record, including the very first.
            next_lsn: 1,
            files: FileStore::default(),
            crashed: false,
            hook: None,
            stats: WalStats::default(),
        }
    }
}

impl MediumInner {
    fn check(&mut self, point: &str) -> Result<()> {
        if let Some(hook) = self.hook.clone() {
            if let Err(e) = hook(point) {
                self.crashed = true;
                return Err(e);
            }
        }
        Ok(())
    }

    fn crash_err() -> Error {
        Error::Storage("durable medium offline (simulated crash)".into())
    }
}

/// What recovery needs from the medium, extracted under one lock.
pub struct RecoveryImage {
    /// The checkpoint to start from (possibly empty/default).
    pub checkpoint: Option<CheckpointImage>,
    /// WAL records with `lsn > checkpoint.last_lsn`, up to and including
    /// the last commit marker. The uncommitted tail is already discarded.
    pub committed: Vec<WalRecord>,
    /// Authoritative external-file contents (latest, crash-surviving).
    pub files: FileStore,
    /// Files touched *after* the last commit marker: their content may be
    /// ahead of the recovered database state, so indexes built on them
    /// must come up QUARANTINED, not VALID.
    pub dirty_files: Vec<String>,
}

/// The durable medium: shared, cloneable, and deliberately independent of
/// any engine instance so tests can "reboot" against it.
#[derive(Clone, Default)]
pub struct DurableMedium {
    inner: Arc<Mutex<MediumInner>>,
}

impl DurableMedium {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the fault hook (the SQL layer's `FaultInjector` bridge).
    pub fn set_fault_hook(&self, hook: WalFaultHook) {
        self.inner.lock().hook = Some(hook);
    }

    /// Whether the medium holds any durable state to recover from.
    pub fn has_data(&self) -> bool {
        let g = self.inner.lock();
        g.checkpoint.is_some() || !g.wal.is_empty()
    }

    /// Whether a simulated crash froze the medium.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// A rebooted process may write again (recovery calls this).
    pub fn clear_crash(&self) {
        self.inner.lock().crashed = false;
    }

    /// Append one redo record (called by the engine *before* applying the
    /// mutation). Fires the `wal.append` crash point after the record is
    /// durably in the log — a crash here loses the apply, and recovery
    /// discards the record as part of the uncommitted tail.
    pub fn append(&self, rec: WalRecord) -> Result<()> {
        self.append_txn(0, rec)
    }

    /// Append one redo record on behalf of a transaction. Records stay in
    /// statement-execution order in the log, but recovery regroups them per
    /// transaction and replays each group at its commit-marker position, so
    /// the recovered state matches the *commit order* — the order the
    /// serial twin of a concurrent history uses.
    pub fn append_txn(&self, txn: u64, rec: WalRecord) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        g.wal.push(WalEntry { lsn, txn, rec });
        g.stats.records_appended += 1;
        g.check(FP_WAL_APPEND)
    }

    /// Fire the `wal.apply` crash point (called by the engine *after* the
    /// in-memory apply succeeded).
    pub fn applied(&self) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        g.check(FP_WAL_APPLY)
    }

    /// Append a commit marker. The `wal.commit` crash point fires *before*
    /// the marker lands — the "between apply and commit marker" kill.
    pub fn commit(&self, payload: Option<CommitBlob>) -> Result<()> {
        self.commit_txn(0, payload)
    }

    /// Append a commit marker for one transaction. Markers land in commit
    /// order (callers hold the engine's write lock while committing), and
    /// recovery replays each transaction's records at its marker position.
    /// A transaction whose marker never lands — crash, or rollback — has
    /// all of its records discarded at recovery.
    pub fn commit_txn(&self, txn: u64, payload: Option<CommitBlob>) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        g.check(FP_WAL_COMMIT)?;
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        g.wal.push(WalEntry { lsn, txn, rec: WalRecord::Commit { payload } });
        g.stats.records_appended += 1;
        g.stats.commits += 1;
        Ok(())
    }

    /// Fire the `wal.checkpoint` crash point (checkpoint start).
    pub fn checkpoint_begin(&self) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        g.check(FP_WAL_CHECKPOINT)
    }

    /// Install a checkpoint covering everything appended so far, then
    /// truncate the WAL. The `wal.checkpoint.truncate` point fires between
    /// the two steps; a crash there leaves stale records whose LSNs the
    /// next recovery skips.
    pub fn install_checkpoint(&self, engine: EngineSnapshot, payload: Option<CommitBlob>) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        let last_lsn = g.next_lsn.saturating_sub(1);
        g.checkpoint = Some(CheckpointImage { last_lsn, engine, payload });
        g.stats.checkpoints += 1;
        g.check(FP_WAL_CHECKPOINT_TRUNCATE)?;
        g.wal.retain(|e| e.lsn > last_lsn);
        Ok(())
    }

    /// Write-through mirror update for an external-file mutation. Dropped
    /// silently after a crash (the process is dead; nothing reaches disk).
    pub fn mirror_files(&self, f: impl FnOnce(&mut FileStore)) {
        let mut g = self.inner.lock();
        if g.crashed {
            return;
        }
        f(&mut g.files);
    }

    /// Extract everything recovery needs. Records are regrouped per
    /// transaction: each transaction's records are emitted at its commit
    /// marker's position (so replay order is commit order, matching the
    /// serial twin of a concurrent history), and records of transactions
    /// whose marker never landed — the uncommitted tail, in-flight
    /// transactions at the crash, rolled-back transactions — are discarded.
    /// The dirty-file set is every `FileActivity` stamp among the discarded
    /// records: the mirror's content for those files may be ahead of the
    /// recovered database state.
    pub fn recovery_image(&self) -> RecoveryImage {
        let g = self.inner.lock();
        let skip_to = g.checkpoint.as_ref().map(|c| c.last_lsn).unwrap_or(0);
        let live: Vec<&WalEntry> = g
            .wal
            .iter()
            .filter(|e| g.checkpoint.is_none() || e.lsn > skip_to)
            .collect();
        let mut pending: HashMap<u64, Vec<WalRecord>> = HashMap::new();
        let mut committed: Vec<WalRecord> = Vec::new();
        for e in &live {
            match &e.rec {
                WalRecord::Commit { .. } => {
                    // The legacy lane (txn 0) commits at every marker — its
                    // records before this point belong to the statement the
                    // marker closes. A transaction's own group follows.
                    if let Some(recs) = pending.remove(&0) {
                        committed.extend(recs);
                    }
                    if e.txn != 0 {
                        if let Some(recs) = pending.remove(&e.txn) {
                            committed.extend(recs);
                        }
                    }
                    committed.push(e.rec.clone());
                }
                rec => pending.entry(e.txn).or_default().push(rec.clone()),
            }
        }
        let mut dirty_files: Vec<String> = Vec::new();
        for recs in pending.values() {
            for r in recs {
                if let WalRecord::FileActivity { name } = r {
                    if !dirty_files.contains(name) {
                        dirty_files.push(name.clone());
                    }
                }
            }
        }
        dirty_files.sort();
        RecoveryImage {
            checkpoint: g.checkpoint.clone(),
            committed,
            files: g.files.clone(),
            dirty_files,
        }
    }

    /// Current counters (plus live WAL length).
    pub fn stats(&self) -> WalStats {
        let g = self.inner.lock();
        WalStats { wal_len: g.wal.len(), ..g.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_commit_and_tail_discard() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SegmentId(1) }).unwrap();
        m.commit(None).unwrap();
        m.append(WalRecord::HeapDelete { seg: SegmentId(1), rid: RowId::new(1, 0, 0) }).unwrap();
        // No marker after the delete: it is an uncommitted tail.
        let img = m.recovery_image();
        assert_eq!(img.committed.len(), 2);
        assert!(matches!(img.committed[1], WalRecord::Commit { .. }));
    }

    #[test]
    fn crash_hook_freezes_medium() {
        let m = DurableMedium::new();
        m.set_fault_hook(Arc::new(|point| {
            if point == FP_WAL_APPEND {
                Err(Error::Storage("boom".into()))
            } else {
                Ok(())
            }
        }));
        assert!(m.append(WalRecord::CreateHeapAt { seg: SegmentId(1) }).is_err());
        assert!(m.is_crashed());
        // Frozen: the commit marker never lands.
        assert!(m.commit(None).is_err());
        let img = m.recovery_image();
        assert!(img.committed.is_empty(), "record without marker is an uncommitted tail");
        // But the appended record itself *is* durable (crash was after append).
        assert_eq!(m.stats().records_appended, 1);
    }

    #[test]
    fn dirty_files_are_post_marker_activity_only() {
        let m = DurableMedium::new();
        m.append(WalRecord::FileActivity { name: "a.idx".into() }).unwrap();
        m.commit(None).unwrap();
        m.append(WalRecord::FileActivity { name: "b.idx".into() }).unwrap();
        let img = m.recovery_image();
        assert_eq!(img.dirty_files, vec!["b.idx".to_string()]);
    }

    #[test]
    fn interleaved_txn_records_replay_in_commit_order() {
        let m = DurableMedium::new();
        // T1 and T2 interleave appends; T2 commits first, then T1.
        m.append_txn(1, WalRecord::HeapInsertAt { seg: SegmentId(1), rid: RowId::new(1, 0, 0), row: vec![] })
            .unwrap();
        m.append_txn(2, WalRecord::HeapInsertAt { seg: SegmentId(1), rid: RowId::new(1, 0, 1), row: vec![] })
            .unwrap();
        m.append_txn(1, WalRecord::HeapDelete { seg: SegmentId(1), rid: RowId::new(1, 0, 0) }).unwrap();
        m.commit_txn(2, None).unwrap();
        m.commit_txn(1, None).unwrap();
        let img = m.recovery_image();
        // T2's record lands before T2's marker; both T1 records follow,
        // grouped at T1's marker — commit order, not append order.
        let names: Vec<String> = img.committed.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(
            names,
            vec!["HeapInsertAt", "Commit", "HeapInsertAt", "HeapDelete", "Commit"]
        );
        match &img.committed[0] {
            WalRecord::HeapInsertAt { rid, .. } => assert_eq!(*rid, RowId::new(1, 0, 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_flight_txn_records_are_discarded_and_files_marked_dirty() {
        let m = DurableMedium::new();
        m.append_txn(7, WalRecord::FileActivity { name: "t7.idx".into() }).unwrap();
        m.append_txn(8, WalRecord::HeapInsertAt { seg: SegmentId(1), rid: RowId::new(1, 0, 0), row: vec![] })
            .unwrap();
        m.commit_txn(8, None).unwrap();
        // T7 never commits: its records vanish, its file is dirty.
        let img = m.recovery_image();
        assert_eq!(img.committed.len(), 2);
        assert_eq!(img.dirty_files, vec!["t7.idx".to_string()]);
    }

    #[test]
    fn checkpoint_lsn_rule_skips_stale_records() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SegmentId(1) }).unwrap();
        m.commit(None).unwrap();
        m.checkpoint_begin().unwrap();
        m.install_checkpoint(EngineSnapshot::default(), None).unwrap();
        // Truncated: nothing left to replay.
        let img = m.recovery_image();
        assert!(img.committed.is_empty());
        assert_eq!(img.checkpoint.as_ref().unwrap().last_lsn, 2);
    }
}
