//! Write-ahead logging and checkpoint/snapshot durability.
//!
//! The paper's §5 leaves recovery of domain-index data to the cartridge;
//! everything the kernel stores (heaps, IOTs, LOBs, the catalog) must
//! survive a crash on its own. [`DurableMedium`] is the "disk" of this
//! reproduction: a handle that outlives any one
//! [`StorageEngine`](crate::engine::StorageEngine)/`Database` instance and
//! holds
//!
//! - the last **checkpoint** — an image of every segment holding committed
//!   state only, plus an opaque catalog/health dump, stamped with the LSN
//!   it covers and the transactions whose records it carried past it;
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
//! A checkpoint **folds**: it regroups the WAL per transaction (`group`,
//! the one grouping recovery uses too), redoes the committed records onto
//! the image in place and in commit order ([`EngineSnapshot::redo`]),
//! carries the records of transactions that may still commit — and txn
//! 0's markerless tail — forward in the WAL, and truncates the rest. It
//! costs the records since the previous checkpoint, not the size of the
//! database, and needs no quiescence: the image only ever receives
//! committed records. Only the first image of an empty medium is a copy
//! of a live engine.
//!
//! Recovery (driven by the SQL layer) is the same fold with nothing open —
//! the uncommitted tail is dropped from the medium, not merely skipped, so
//! no later commit marker can adopt it — followed by one copy of the image,
//! one of the two going to the live engine. [`WalRecord::FileActivity`]
//! stamps among the dropped records are compared against each index's
//! `OdciIndex::external_files` to decide which file-backed indexes come up
//! QUARANTINED instead of VALID.
//!
//! All redo records are *logical* (operation + arguments) and carry every
//! placement decision the live run made (heap rowid, IOT ordinal, LOB ref
//! and append offset, segment id), so redoing them in commit order — not
//! execution order — reproduces the committed physical state.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
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
/// Crash point: at checkpoint start, before the image is touched.
pub const FP_WAL_CHECKPOINT: &str = "wal.checkpoint";
/// Crash point: after the fold updated the image, before the WAL is
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
    /// replayed — file content survives in the mirror — but recovery marks
    /// the files of stamps it drops uncommitted dirty.
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

/// Image of the storage engine's segments — not the buffer cache, which
/// comes up cold on recovery as it would after a real restart, and not the
/// external files, whose crash-surviving state is the medium's mirror.
#[derive(Clone, Default)]
pub struct EngineSnapshot {
    pub heaps: HashMap<SegmentId, HeapTable>,
    pub iots: HashMap<SegmentId, IndexOrganizedTable>,
    pub lobs: LobStore,
    pub next_segment: u32,
}

impl EngineSnapshot {
    /// Redo one committed record onto the image: segment-level, touching
    /// no undo log, version chain or buffer cache. The checkpoint fold and
    /// recovery both go through here. Application errors are swallowed: a
    /// record whose live apply failed fails identically here (same state,
    /// deterministic operations), leaving the image unchanged both times.
    pub fn redo(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::CreateHeapAt { seg } => {
                self.heaps.insert(*seg, HeapTable::new(*seg));
                self.next_segment = self.next_segment.max(seg.0 + 1);
            }
            WalRecord::CreateIotAt { seg, key_cols } => {
                self.iots.insert(*seg, IndexOrganizedTable::new(*seg, *key_cols));
                self.next_segment = self.next_segment.max(seg.0 + 1);
            }
            WalRecord::DropSegment { seg } => {
                self.heaps.remove(seg);
                self.iots.remove(seg);
            }
            WalRecord::TruncateSegment { seg } => {
                if let Some(h) = self.heaps.get_mut(seg) {
                    h.truncate();
                } else if let Some(t) = self.iots.get_mut(seg) {
                    t.truncate();
                }
            }
            WalRecord::HeapInsertAt { seg, rid, row } => {
                if let Some(h) = self.heaps.get_mut(seg) {
                    let _ = h.insert_at(*rid, row.clone());
                }
            }
            WalRecord::HeapUpdate { seg, rid, row } => {
                if let Some(h) = self.heaps.get_mut(seg) {
                    let _ = h.update(*rid, row.clone());
                }
            }
            WalRecord::HeapDelete { seg, rid } => {
                if let Some(h) = self.heaps.get_mut(seg) {
                    let _ = h.delete(*rid);
                }
            }
            WalRecord::IotInsertOrd { seg, row, ord }
            | WalRecord::IotUpsertOrd { seg, row, ord } => {
                if let Some(t) = self.iots.get_mut(seg) {
                    let _ = t.insert_with_ordinal(row.clone(), *ord);
                }
            }
            WalRecord::IotDelete { seg, key } => {
                if let Some(t) = self.iots.get_mut(seg) {
                    t.delete(key);
                }
            }
            WalRecord::LobAllocateAt { lob } => self.lobs.allocate_at(*lob),
            WalRecord::LobWrite { lob, offset, bytes } => {
                let _ = self.lobs.write(*lob, *offset, bytes);
            }
            WalRecord::LobAppendAt { lob, offset, bytes } => {
                // A gap below the recorded offset is an aborted
                // transaction's append, which commit-order redo skips; live
                // rollback hole-filled that space with 0xFF tombstone
                // bytes, so redo must too.
                let _ = self.lobs.pad_to(*lob, *offset, 0xFF);
                let _ = self.lobs.write(*lob, *offset, bytes);
            }
            WalRecord::LobOverwrite { lob, bytes } => {
                let _ = self.lobs.overwrite(*lob, bytes);
            }
            WalRecord::LobTruncate { lob, len } => {
                let _ = self.lobs.truncate(*lob, *len);
            }
            WalRecord::LobFree { lob } => {
                let _ = self.lobs.free(*lob);
            }
            WalRecord::LobRestore { lob, bytes } => self.lobs.restore(*lob, bytes.clone()),
            // File content survives in the medium's mirror; a marker's
            // catalog payload is the fold's business.
            WalRecord::FileActivity { .. } | WalRecord::Commit { .. } => {}
        }
    }
}

/// A checkpoint: the engine image plus the catalog/health dump, folded
/// through `last_lsn`. The records of transactions that could still
/// commit when it was folded stayed in the WAL; `carried` names each such
/// transaction with the LSN of its first carried record.
#[derive(Default)]
struct CheckpointImage {
    last_lsn: u64,
    carried: Vec<(u64, u64)>,
    engine: EngineSnapshot,
    payload: Option<CommitBlob>,
}

impl CheckpointImage {
    /// The LSN rule: an entry is still to be redone over this image iff it
    /// is past `last_lsn` or one the image carried. A crash between a fold
    /// and its WAL truncation therefore neither loses nor re-applies a
    /// record.
    fn replays(&self, e: &WalEntry) -> bool {
        e.lsn > self.last_lsn
            || self.carried.iter().any(|&(txn, from)| txn == e.txn && e.lsn >= from)
    }
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

/// The committed records in commit order, and the rest per transaction.
type Grouped<'a> = (Vec<&'a WalRecord>, BTreeMap<u64, Vec<&'a WalEntry>>);

/// The WAL regrouped over `image` — the one grouping the checkpoint fold
/// and recovery share. Entries the LSN rule skips are left out. Each
/// transaction's records are emitted at its commit marker's position, so
/// the committed list is in commit order (the order the serial twin of a
/// concurrent history uses); txn 0, the direct/autocommit lane, commits at
/// every marker. Records of transactions whose marker has not landed —
/// still open, rolled back, or cut off by a crash — come back per
/// transaction, in append order.
fn group<'a>(wal: &'a [WalEntry], image: &CheckpointImage) -> Grouped<'a> {
    let mut committed: Vec<&WalRecord> = Vec::new();
    let mut pending: BTreeMap<u64, Vec<&WalEntry>> = BTreeMap::new();
    for e in wal.iter().filter(|e| image.replays(e)) {
        if let WalRecord::Commit { .. } = e.rec {
            // Txn 0's records before this point belong to the statement
            // the marker closes; a transaction's own group follows.
            for txn in [0, e.txn] {
                committed.extend(pending.remove(&txn).into_iter().flatten().map(|p| &p.rec));
            }
            committed.push(&e.rec);
        } else {
            pending.entry(e.txn).or_default().push(e);
        }
    }
    (committed, pending)
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
            // LSNs start at 1: an image of a virgin medium covers
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

    /// Fold the committed suffix of the WAL into the image (an empty one
    /// if the medium has none), in commit order. Afterwards the image
    /// covers every LSN assigned so far except the records of the
    /// transactions `open` keeps, which it lists as carried. The WAL
    /// itself is left for the caller to truncate. Returns the external
    /// files that records neither folded nor carried touched, sorted.
    fn fold(&mut self, open: impl Fn(u64) -> bool) -> Vec<String> {
        let image = self.checkpoint.get_or_insert_with(CheckpointImage::default);
        let (committed, pending) = group(&self.wal, image);
        for rec in committed {
            match rec {
                WalRecord::Commit { payload: Some(p) } => image.payload = Some(p.clone()),
                rec => image.engine.redo(rec),
            }
        }
        image.carried.clear();
        let mut dead_files: Vec<String> = Vec::new();
        for (txn, entries) in pending {
            if open(txn) {
                image.carried.push((txn, entries[0].lsn));
                continue;
            }
            for e in entries {
                if let WalRecord::FileActivity { name } = &e.rec {
                    if !dead_files.contains(name) {
                        dead_files.push(name.clone());
                    }
                }
            }
        }
        image.last_lsn = self.next_lsn - 1;
        dead_files.sort();
        dead_files
    }
}

/// What recovery loads into the live engine, extracted under one lock.
pub struct RecoveryImage {
    /// A copy of the checkpoint image with every committed record folded in.
    pub engine: EngineSnapshot,
    /// The catalog/health dump of the last commit folded in (the
    /// checkpoint's own when none came after it).
    pub payload: Option<CommitBlob>,
    /// Authoritative external-file contents (latest, crash-surviving).
    pub files: FileStore,
    /// Files the dropped, uncommitted records touched: their content may
    /// be ahead of the recovered database state, so indexes built on them
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

    /// Append one redo record (called by the engine *before* applying the
    /// mutation). Fires the `wal.append` crash point after the record is
    /// durably in the log — a crash here loses the apply, and recovery
    /// discards the record as part of the uncommitted tail.
    pub fn append(&self, rec: WalRecord) -> Result<()> {
        self.append_txn(0, rec)
    }

    /// Append one redo record on behalf of a transaction. Records stay in
    /// statement-execution order in the log, but the fold regroups them per
    /// transaction and redoes each group at its commit-marker position, so
    /// the durable state matches the *commit order* — the order the serial
    /// twin of a concurrent history uses.
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
    /// the fold redoes each transaction's records at its marker position.
    /// A transaction whose marker never lands — crash, or rollback — has
    /// all of its records dropped once it is over.
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

    /// Take a checkpoint: fold the committed WAL suffix into the image (a
    /// medium without one first gets `first()`, a copy of the live engine
    /// — only ever taken on an empty medium), stamp it with `payload`, and
    /// truncate the WAL to what the image carried: the records of
    /// transactions `open` says may still commit, and txn 0's markerless
    /// tail. The `wal.checkpoint` point fires before the image is touched,
    /// `wal.checkpoint.truncate` between the fold and the truncation.
    pub fn checkpoint(
        &self,
        first: impl FnOnce() -> EngineSnapshot,
        payload: CommitBlob,
        open: impl Fn(u64) -> bool,
    ) -> Result<()> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(MediumInner::crash_err());
        }
        g.check(FP_WAL_CHECKPOINT)?;
        if g.checkpoint.is_none() {
            g.checkpoint = Some(CheckpointImage { engine: first(), ..CheckpointImage::default() });
        }
        g.fold(|txn| txn == 0 || open(txn));
        g.checkpoint.as_mut().expect("fold installs an image").payload = Some(payload);
        g.stats.checkpoints += 1;
        g.check(FP_WAL_CHECKPOINT_TRUNCATE)?;
        let MediumInner { checkpoint, wal, .. } = &mut *g;
        let image = checkpoint.as_ref().expect("fold installs an image");
        wal.retain(|e| image.replays(e));
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

    /// Recovery's half on the medium, run by a fresh process (the crash
    /// flag is cleared): the fold with nothing open, so the uncommitted
    /// tail — in-flight and rolled-back transactions, txn 0's unfinished
    /// statement — is dropped from the WAL, never to be adopted by a later
    /// commit marker. Hands back what the live engine loads.
    pub fn recover(&self) -> RecoveryImage {
        let mut g = self.inner.lock();
        g.crashed = false;
        let dirty_files = g.fold(|_| false);
        g.wal.clear();
        let files = g.files.clone();
        let image = g.checkpoint.as_mut().expect("fold installs an image");
        // The live engine takes the image the folds grew in place, the
        // medium keeps the fresh copy: laid out in one pass, it is the
        // cheaper one to copy at the next recovery.
        let copy = image.engine.clone();
        RecoveryImage {
            engine: std::mem::replace(&mut image.engine, copy),
            payload: image.payload.clone(),
            files,
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
    use extidx_common::Value;

    const SEG: SegmentId = SegmentId(1);

    fn insert(slot: u16, v: i64) -> WalRecord {
        let row = vec![Value::Integer(v)];
        WalRecord::HeapInsertAt { seg: SEG, rid: RowId::new(1, 0, slot), row }
    }

    /// The heap's values in the recovered image, in slot order.
    fn rows(img: &RecoveryImage) -> Vec<i64> {
        img.engine.heaps.get(&SEG).map_or(Vec::new(), |h| {
            h.scan().map(|(_, _, r)| r[0].as_integer().unwrap()).collect()
        })
    }

    fn crash_at(point: &'static str) -> WalFaultHook {
        Arc::new(move |p| if p == point { Err(Error::Storage("boom".into())) } else { Ok(()) })
    }

    #[test]
    fn append_commit_and_tail_discard() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SEG }).unwrap();
        m.append(insert(0, 1)).unwrap();
        m.commit(None).unwrap();
        m.append(insert(1, 666)).unwrap();
        // No marker after the second insert: an uncommitted tail, which
        // recovery drops from the medium so no later marker can adopt it.
        assert_eq!(rows(&m.recover()), [1]);
        assert_eq!(m.stats().wal_len, 0);
        m.commit(None).unwrap();
        assert_eq!(rows(&m.recover()), [1]);
    }

    #[test]
    fn crash_hook_freezes_medium() {
        let m = DurableMedium::new();
        m.set_fault_hook(crash_at(FP_WAL_APPEND));
        assert!(m.append(WalRecord::CreateHeapAt { seg: SEG }).is_err());
        assert!(m.is_crashed());
        // Frozen: the commit marker never lands.
        assert!(m.commit(None).is_err());
        let img = m.recover();
        assert!(img.engine.heaps.is_empty(), "record without marker is an uncommitted tail");
        assert!(!m.is_crashed(), "recovery runs in a fresh process");
        // But the appended record itself *is* durable (crash was after append).
        assert_eq!(m.stats().records_appended, 1);
    }

    #[test]
    fn dirty_files_are_post_marker_activity_only() {
        let m = DurableMedium::new();
        m.append(WalRecord::FileActivity { name: "a.idx".into() }).unwrap();
        m.commit(None).unwrap();
        m.append(WalRecord::FileActivity { name: "b.idx".into() }).unwrap();
        assert_eq!(m.recover().dirty_files, vec!["b.idx".to_string()]);
    }

    #[test]
    fn interleaved_txn_records_replay_in_commit_order() {
        let m = DurableMedium::new();
        // T1 and T2 interleave appends; T2 commits first, then T1.
        m.append_txn(1, insert(0, 1)).unwrap();
        m.append_txn(2, insert(1, 2)).unwrap();
        m.append_txn(1, WalRecord::HeapDelete { seg: SEG, rid: RowId::new(1, 0, 0) }).unwrap();
        m.commit_txn(2, None).unwrap();
        m.commit_txn(1, None).unwrap();
        let g = m.inner.lock();
        let (committed, pending) = group(&g.wal, &CheckpointImage::default());
        assert!(pending.is_empty());
        // T2's record lands before T2's marker; both T1 records follow,
        // grouped at T1's marker — commit order, not append order.
        let names: Vec<String> = committed.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(names, vec!["HeapInsertAt", "Commit", "HeapInsertAt", "HeapDelete", "Commit"]);
        match committed[0] {
            WalRecord::HeapInsertAt { rid, .. } => assert_eq!(*rid, RowId::new(1, 0, 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_flight_txn_records_are_discarded_and_files_marked_dirty() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SEG }).unwrap();
        m.commit(None).unwrap();
        m.append_txn(7, WalRecord::FileActivity { name: "t7.idx".into() }).unwrap();
        m.append_txn(8, insert(0, 8)).unwrap();
        m.commit_txn(8, None).unwrap();
        // T7 never commits: its records vanish, its file is dirty.
        let img = m.recover();
        assert_eq!(rows(&img), [8]);
        assert_eq!(img.dirty_files, vec!["t7.idx".to_string()]);
    }

    #[test]
    fn checkpoint_folds_committed_records_and_carries_open_ones() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SEG }).unwrap();
        m.commit(None).unwrap();
        m.append_txn(5, insert(0, 5)).unwrap(); // open at the checkpoint, commits after it
        m.append_txn(6, insert(1, 6)).unwrap(); // over without a marker: dropped
        m.append(insert(2, 2)).unwrap();
        m.commit(None).unwrap();
        m.append(insert(3, 3)).unwrap(); // txn 0's markerless tail
        m.checkpoint(EngineSnapshot::default, Arc::new(()), |txn| txn == 5).unwrap();
        assert_eq!(m.stats().wal_len, 2, "the WAL keeps exactly what the image carried");
        m.commit_txn(5, None).unwrap();
        assert_eq!(rows(&m.recover()), [5, 2, 3]);
    }

    #[test]
    fn crash_between_fold_and_truncate_neither_loses_nor_reapplies() {
        let m = DurableMedium::new();
        m.append(WalRecord::CreateHeapAt { seg: SEG }).unwrap();
        m.append(insert(0, 1)).unwrap();
        m.commit(None).unwrap();
        m.append_txn(5, insert(1, 5)).unwrap();
        m.append(WalRecord::HeapDelete { seg: SEG, rid: RowId::new(1, 0, 0) }).unwrap();
        m.commit(None).unwrap();
        m.set_fault_hook(crash_at(FP_WAL_CHECKPOINT_TRUNCATE));
        assert!(m.checkpoint(EngineSnapshot::default, Arc::new(()), |txn| txn == 5).is_err());
        assert_eq!(m.stats().wal_len, 6, "the crash left the WAL untruncated");
        {
            // The LSN rule: every folded record is skipped, the carried
            // transaction's are not.
            let g = m.inner.lock();
            let (committed, pending) = group(&g.wal, g.checkpoint.as_ref().unwrap());
            assert!(committed.is_empty());
            assert_eq!(pending.keys().copied().collect::<Vec<_>>(), [5]);
        }
        assert!(rows(&m.recover()).is_empty(), "T5 never committed; row 1 was deleted");
    }
}
