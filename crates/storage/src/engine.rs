//! The storage engine façade.
//!
//! [`StorageEngine`] owns every segment (heap tables, IOTs, the LOB
//! segment) plus the buffer cache, the undo machinery, and the *external*
//! file store. All mutating access flows through it so that:
//!
//! 1. every page touch is charged to the [`BufferCache`],
//! 2. every database-resident mutation is recorded in the undo log of
//!    the transaction driving it — the engine keeps the logs, callers
//!    hold savepoint marks ([`StorageEngine::undo_mark`]),
//! 3. external-file operations are *not* recorded — reproducing the
//!    paper's §5 transactional limitation for outside-the-database index
//!    data.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use extidx_common::{Error, Key, LobRef, Result, Row, RowId};

use crate::buffer::{BufferCache, CacheStats};
use crate::file_store::FileStore;
use crate::heap::HeapTable;
use crate::lob::LobStore;
use crate::iot::{IndexOrganizedTable, IotIoCharge};
use crate::mvcc::{
    self, HeapChain, HeapVersion, IotCurrent, IotVersion, LobChain, LobImage, LobSpanVersion,
    Snapshot, TxnManager, TxnStatus, VersionStore, WriteKey, WriteRef, WHOLE_LOB,
};
use crate::page::{SegmentId, PAGE_SIZE};
use crate::undo::{UndoLog, UndoOp};
use crate::wal::{DurableMedium, EngineSnapshot, WalRecord};

/// Synthetic segment id under which LOB pages are charged to the cache.
const LOB_SEGMENT: SegmentId = SegmentId(u32::MAX);

/// Default buffer-cache capacity in pages (≈ 64 MiB at 8 KiB/page).
pub const DEFAULT_CACHE_PAGES: usize = 8192;

/// Lifetime counters for the incremental vacuum, surfaced by `V$MVCC`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Incremental vacuum passes run.
    pub runs: u64,
    /// Displaced versions (heap/IOT rows, LOB spans) pruned.
    pub versions_pruned: u64,
    /// Dead heap slots physically reclaimed.
    pub slots_reclaimed: u64,
    /// Whole chains dropped (drained to trivial or reclaimed).
    pub chains_dropped: u64,
}

/// The storage engine: all segments plus cache, undo, and external files.
pub struct StorageEngine {
    cache: BufferCache,
    heaps: HashMap<SegmentId, HeapTable>,
    iots: HashMap<SegmentId, IndexOrganizedTable>,
    lobs: LobStore,
    files: FileStore,
    next_segment: u32,
    /// When attached, every mutation appends a redo record here *before*
    /// applying (write-ahead rule) and external-file ops write through to
    /// the medium's file mirror.
    wal: Option<DurableMedium>,
    /// Transaction manager shared with every session of the database.
    txns: Arc<TxnManager>,
    /// Undo log of every open transaction, by id (0 = the direct lane).
    /// An entry leaves when its transaction ends, whichever way.
    undo: HashMap<u64, UndoLog>,
    /// Snapshot of the transaction currently driving mutations. Txn 0 is
    /// the legacy single-session/autocommit lane: no version chains are
    /// created and every path behaves exactly as before MVCC.
    current: Snapshot,
    /// First-writer-wins enforcement knob. Turned off only by the
    /// differential oracle to demonstrate that it catches lost updates.
    conflict_checks: bool,
    /// Lifetime incremental-vacuum counters (V$MVCC).
    vacuum_stats: VacuumStats,
    /// Overlay version chains; empty whenever nothing concurrent is live.
    versions: VersionStore,
}

impl Default for StorageEngine {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_PAGES)
    }
}

impl StorageEngine {
    /// Engine with a cache of `cache_pages` pages.
    pub fn new(cache_pages: usize) -> Self {
        StorageEngine {
            cache: BufferCache::new(cache_pages),
            heaps: HashMap::new(),
            iots: HashMap::new(),
            lobs: LobStore::new(),
            files: FileStore::new(),
            next_segment: 1,
            wal: None,
            txns: Arc::new(TxnManager::default()),
            undo: HashMap::new(),
            current: Snapshot::latest(),
            conflict_checks: true,
            vacuum_stats: VacuumStats::default(),
            versions: VersionStore::default(),
        }
    }

    // ----- transactions -----------------------------------------------------

    /// The shared transaction manager (sessions begin/commit through it).
    pub fn txn_manager(&self) -> Arc<TxnManager> {
        Arc::clone(&self.txns)
    }

    /// Install the snapshot whose transaction drives subsequent mutations
    /// and latest-visibility reads. `Snapshot::latest()` (txn 0) restores
    /// the legacy lane.
    pub fn set_current_txn(&mut self, snap: Snapshot) {
        self.current = snap;
    }

    /// Id of the transaction currently driving mutations (0 = legacy lane).
    pub fn current_txn(&self) -> u64 {
        self.current.txn
    }

    /// Snapshot of the transaction currently driving mutations.
    pub fn current_snapshot(&self) -> Snapshot {
        self.current
    }

    /// Whether the transaction currently driving mutations is open beyond
    /// the statement at hand: a session's transaction, or the direct
    /// lane's explicit one. The one answer for every lane — the registry's.
    pub fn in_txn(&self) -> bool {
        self.txns.is_active(self.current.txn)
    }

    /// Savepoint in the current transaction's undo log: everything a
    /// later [`Self::rollback_to`] of this mark takes back.
    pub fn undo_mark(&self) -> usize {
        self.undo.get(&self.current.txn).map_or(0, UndoLog::len)
    }

    fn record(&mut self, op: UndoOp) {
        self.undo.entry(self.current.txn).or_default().push(op);
    }

    /// Commit a transaction: first-writer-wins validation of its write
    /// set, then its undo log is dropped. On a conflict nothing ends —
    /// the caller rolls the transaction back.
    pub fn commit_txn(&mut self, snap: Snapshot) -> Result<u64> {
        let csn = self.txns.commit(&snap, self.conflict_checks)?;
        self.undo.remove(&snap.txn);
        Ok(csn)
    }

    /// Roll a whole transaction back (chain-aware, under its own
    /// snapshot) and mark it aborted.
    pub fn rollback_txn(&mut self, snap: Snapshot) -> Result<()> {
        let driver = std::mem::replace(&mut self.current, snap);
        let rolled = self.rollback_to(0);
        self.current = driver;
        self.undo.remove(&snap.txn);
        self.txns.abort(snap.txn);
        rolled
    }

    /// Toggle first-writer-wins enforcement (early conflict detection and
    /// commit-time validation). Structural conflicts between two *active*
    /// writers are always rejected regardless — overlay MVCC cannot hold
    /// two uncommitted in-place versions of one row. Kept as the
    /// concurrent oracle's negative control: with checks off it must
    /// catch the resulting lost update.
    pub fn set_conflict_checks(&mut self, on: bool) {
        self.conflict_checks = on;
    }

    /// True when any version chain exists for the segment: without chains
    /// every physical row is visible to every snapshot, so the snapshot
    /// reads take their fast path and the optimizer may answer `COUNT(*)`
    /// from the physical row count.
    pub fn segment_has_chains(&self, seg: SegmentId) -> bool {
        self.versions.heap.get(&seg).is_some_and(|m| !m.is_empty())
            || self.versions.iot.get(&seg).is_some_and(|m| !m.is_empty())
    }

    /// Lifetime incremental-vacuum counters.
    pub fn vacuum_stats(&self) -> VacuumStats {
        self.vacuum_stats
    }

    /// The oldest-active-snapshot horizon the next vacuum would prune to.
    pub fn vacuum_horizon(&self) -> u64 {
        self.txns.horizon()
    }

    /// Per-segment MVCC chain statistics for `V$MVCC`: `(label, chains,
    /// versions)` where `versions` counts displaced images held beyond the
    /// in-place one (heap/IOT rows, LOB span patches). LOB chains
    /// aggregate under one `LOB` row; ordering is deterministic.
    pub fn mvcc_segment_stats(&self) -> Vec<(String, usize, usize)> {
        let mut out: Vec<(String, usize, usize)> = Vec::new();
        let mut heap_segs: Vec<_> =
            self.versions.heap.iter().filter(|(_, m)| !m.is_empty()).collect();
        heap_segs.sort_by_key(|(s, _)| s.0);
        for (seg, m) in heap_segs {
            let versions = m.values().map(|c| c.version_count()).sum();
            out.push((format!("HEAP:{}", seg.0), m.len(), versions));
        }
        let mut iot_segs: Vec<_> =
            self.versions.iot.iter().filter(|(_, m)| !m.is_empty()).collect();
        iot_segs.sort_by_key(|(s, _)| s.0);
        for (seg, m) in iot_segs {
            let versions = m.values().map(|c| c.version_count()).sum();
            out.push((format!("IOT:{}", seg.0), m.len(), versions));
        }
        if !self.versions.lobs.is_empty() {
            let versions = self.versions.lobs.values().map(|c| c.version_count()).sum();
            out.push(("LOB".to_string(), self.versions.lobs.len(), versions));
        }
        out
    }

    /// Garbage-collect version chains and commit history, keyed to the
    /// *oldest active snapshot* horizon — the smallest snapshot high among
    /// live transactions, or the next CSN at quiescence. A displaced
    /// version whose end stamp committed at or below the horizon is
    /// invisible to every live and future snapshot (they all see a newer
    /// one instead) and is pruned;
    /// an in-place version whose delete mark committed at or below the
    /// horizon is physically reclaimed — the rowid becomes reusable
    /// exactly when no snapshot can see the old row, preserving the
    /// no-rowid-reuse guarantee for live snapshots. Runs on every
    /// commit/rollback, so chains stay bounded without quiescence.
    pub fn vacuum(&mut self) {
        let txns = Arc::clone(&self.txns);
        let horizon = txns.horizon();
        // A stamp is "settled" when its writer committed at or below the
        // horizon: every live snapshot has high ≥ horizon, so all of them
        // (and every future snapshot) see that commit.
        let settled = |stamp: u64| txns.committed_csn(stamp).is_some_and(|csn| csn <= horizon);
        let aborted = |stamp: u64| matches!(txns.status(stamp), Some(TxnStatus::Aborted));

        let mut pruned = 0u64;
        let mut dropped = 0u64;
        let mut reclaim: Vec<(SegmentId, RowId)> = Vec::new();

        for (&seg, chains) in self.versions.heap.iter_mut() {
            chains.retain(|&rid, chain| {
                if chain.dead.is_some_and(&settled) {
                    // The delete is settled: no snapshot can see this row
                    // or any displaced version under it.
                    pruned += chain.older.len() as u64;
                    dropped += 1;
                    reclaim.push((seg, rid));
                    return false;
                }
                let before = chain.older.len();
                chain.older.retain(|v| !settled(v.end) && !aborted(v.begin));
                pruned += (before - chain.older.len()) as u64;
                if chain.begin != 0 && settled(chain.begin) {
                    chain.begin = 0; // in-place version now visible to all
                }
                if chain.is_trivial() {
                    dropped += 1;
                    return false;
                }
                true
            });
        }
        self.versions.heap.retain(|_, m| !m.is_empty());

        for chains in self.versions.iot.values_mut() {
            chains.retain(|_, chain| {
                let before = chain.older.len();
                chain.older.retain(|v| !settled(v.end) && !aborted(v.begin));
                pruned += (before - chain.older.len()) as u64;
                if let Some(cur) = &mut chain.current {
                    if cur.begin != 0 && settled(cur.begin) {
                        cur.begin = 0;
                    }
                }
                if chain.is_trivial() {
                    dropped += 1;
                    return false;
                }
                true
            });
        }
        self.versions.iot.retain(|_, m| !m.is_empty());

        self.versions.lobs.retain(|_, chain| {
            let before = chain.spans.len();
            chain.spans.retain(|v| !settled(v.by) && !aborted(v.by));
            pruned += (before - chain.spans.len()) as u64;
            if chain.begin != 0 && (settled(chain.begin) || aborted(chain.begin)) {
                chain.begin = 0;
            }
            if chain.is_trivial() {
                dropped += 1;
                return false;
            }
            true
        });

        // Physically reclaim settled-dead slots in deterministic order so
        // repeated runs produce identical free-list state.
        reclaim.sort_by_key(|&(s, r)| (s.0, r.page, r.slot));
        let mut touched: Vec<SegmentId> = Vec::new();
        for (seg, rid) in reclaim {
            if let Some(h) = self.heaps.get_mut(&seg) {
                if h.delete(rid).is_ok() {
                    self.vacuum_stats.slots_reclaimed += 1;
                    self.cache.write((seg, rid.page));
                    if !touched.contains(&seg) {
                        touched.push(seg);
                    }
                }
            }
        }
        // A reclaim that emptied a page rebuilt that page's zone entry
        // exactly; re-widen with any chain-held displaced rows so the
        // superset invariant keeps covering them.
        for seg in touched {
            self.widen_zones_with_chains(seg);
        }

        self.vacuum_stats.runs += 1;
        self.vacuum_stats.versions_pruned += pruned;
        self.vacuum_stats.chains_dropped += dropped;

        // Commit-history pruning: keep statuses of active transactions and
        // of any stamp a surviving chain still references; keep committed
        // write-set entries above the horizon (first-writer-wins
        // validation still needs them for in-flight snapshots).
        self.txns.prune_history(horizon, &self.versions.referenced_stamps());
    }

    /// Structural + early conflict check for a heap row write.
    fn check_heap_write(&self, seg: SegmentId, rid: RowId) -> Result<()> {
        let t = self.current.txn;
        if t == 0 {
            return Ok(());
        }
        if let Some(chain) = self.versions.heap_chain(seg, rid) {
            for stamp in [Some(chain.begin), chain.dead].into_iter().flatten() {
                if stamp != 0 && stamp != t && self.txns.is_active(stamp) {
                    return Err(Error::write_conflict(
                        stamp,
                        format!("heap rowid {rid} in {seg}"),
                        format!(
                            "txn {t}: heap row {rid} in {seg} has an uncommitted version from txn {stamp}"
                        ),
                    ));
                }
            }
        }
        if self.conflict_checks {
            let wref = WriteRef { seg, key: WriteKey::Rid(rid) };
            if let Some((csn, winner)) = self.txns.committed_writer(&wref) {
                if csn > self.current.high {
                    return Err(Error::write_conflict(
                        winner,
                        format!("heap rowid {rid} in {seg}"),
                        format!(
                            "txn {t}: heap row {rid} in {seg} was committed by txn {winner} at csn {csn}, after this snapshot (high {})",
                            self.current.high
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Structural + early conflict check for an IOT key write.
    fn check_iot_write(&self, seg: SegmentId, key: &Key) -> Result<()> {
        let t = self.current.txn;
        if t == 0 {
            return Ok(());
        }
        if let Some(chain) = self.versions.iot_chain(seg, key) {
            let stamps = chain
                .current
                .as_ref()
                .map(|c| c.begin)
                .into_iter()
                .chain(chain.older.first().map(|v| v.end));
            for stamp in stamps {
                if stamp != 0 && stamp != t && self.txns.is_active(stamp) {
                    return Err(Error::write_conflict(
                        stamp,
                        format!("iot key {key} in {seg}"),
                        format!(
                            "txn {t}: IOT key {key} in {seg} has an uncommitted version from txn {stamp}"
                        ),
                    ));
                }
            }
        }
        if self.conflict_checks {
            let wref = WriteRef { seg, key: WriteKey::Key(key.clone()) };
            if let Some((csn, winner)) = self.txns.committed_writer(&wref) {
                if csn > self.current.high {
                    return Err(Error::write_conflict(
                        winner,
                        format!("iot key {key} in {seg}"),
                        format!(
                            "txn {t}: IOT key {key} in {seg} was committed by txn {winner} at csn {csn}, after this snapshot (high {})",
                            self.current.high
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The snapshot any (re)build of an index reads base segment `seg`
    /// under: everything committed plus the statement's own transaction —
    /// not its pinned snapshot, since an index is shared by every session
    /// and must cover rows committed since. Handed out only with the
    /// refusal: a build can neither include nor skip another transaction's
    /// *uncommitted* version correctly (that writer maintained only the
    /// indexes that existed when it wrote, and may yet roll back), so it
    /// loses first-writer-wins to any other active transaction holding a
    /// version in the segment.
    pub fn build_snapshot(&self, seg: SegmentId) -> Result<Snapshot> {
        let t = self.current.txn;
        let heap = self.versions.heap.get(&seg).into_iter().flatten();
        let iot = self.versions.iot.get(&seg).into_iter().flatten();
        let writer = heap
            .flat_map(|(_, c)| [Some(c.begin), c.dead])
            .chain(iot.flat_map(|(_, c)| {
                [c.current.as_ref().map(|cur| cur.begin), c.older.first().map(|v| v.end)]
            }))
            .flatten()
            .filter(|&stamp| stamp != 0 && stamp != t && self.txns.is_active(stamp))
            .min();
        match writer {
            None => Ok(Snapshot { txn: t, high: u64::MAX }),
            Some(w) => Err(Error::write_conflict(
                w,
                format!("index build over {seg}"),
                format!("txn {t}: {seg} holds an uncommitted version from txn {w}; an index build must wait for that transaction to end"),
            )),
        }
    }

    /// The byte range a LOB write of `len` bytes at `start` conflicts on.
    /// `len == WHOLE_LOB` marks a whole-locator operation (overwrite,
    /// free).
    fn lob_conflict_span(start: u64, len: u64) -> (u64, u64) {
        if len == WHOLE_LOB {
            return (0, WHOLE_LOB);
        }
        (start, start.saturating_add(len))
    }

    /// Structural + early conflict check for a LOB write of `len` bytes at
    /// `start` (`len == WHOLE_LOB` for whole-locator operations).
    /// LOB-backed index stores share one LOB across all of an index's
    /// rows; byte-range granularity lets two sessions maintain the same
    /// index concurrently as long as their writes touch disjoint ranges —
    /// first-writer-wins applies only to genuinely overlapping writes.
    fn check_lob_write(&self, lob: LobRef, start: u64, len: u64) -> Result<()> {
        let t = self.current.txn;
        if t == 0 {
            return Ok(());
        }
        let (cs, ce) = Self::lob_conflict_span(start, len);
        let overlaps = |v: &LobSpanVersion| {
            let (vs, ve) = Self::lob_conflict_span(v.start, v.len);
            vs < ce && cs < ve
        };
        if let Some(chain) = self.versions.lobs.get(&lob) {
            let stamp = chain.begin;
            if stamp != 0 && stamp != t && self.txns.is_active(stamp) {
                return Err(Error::write_conflict(
                    stamp,
                    format!("{lob} (whole)"),
                    format!("txn {t}: {lob} was allocated by uncommitted txn {stamp}"),
                ));
            }
            for v in &chain.spans {
                if v.by != t && self.txns.is_active(v.by) && overlaps(v) {
                    return Err(Error::write_conflict(
                        v.by,
                        format!("{lob} bytes [{cs}, {ce})"),
                        format!(
                            "txn {t}: {lob} bytes [{cs}, {ce}) overlap an uncommitted write by txn {} at [{}, {})",
                            v.by, v.start, v.start.saturating_add(v.len)
                        ),
                    ));
                }
            }
        }
        if self.conflict_checks {
            let wref =
                WriteRef { seg: LOB_SEGMENT, key: WriteKey::LobSpan { lob, start: cs, end: ce } };
            if let Some((csn, winner)) = self.txns.committed_writer(&wref) {
                if csn > self.current.high {
                    return Err(Error::write_conflict(
                        winner,
                        format!("{lob} bytes [{cs}, {ce})"),
                        format!(
                            "txn {t}: {lob} bytes [{cs}, {ce}) overlap a write committed by txn {winner} at csn {csn}, after this snapshot (high {})",
                            self.current.high
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// MVCC bookkeeping before a LOB mutation of `len` bytes at `start`
    /// (`WHOLE_LOB` = whole-locator): displace the before-image of exactly
    /// that byte range into the version chain and record the write for
    /// commit-time validation. No-op on the legacy lane.
    fn displace_lob_span(&mut self, lob: LobRef, start: u64, len: u64) {
        let t = self.current.txn;
        if t == 0 {
            return;
        }
        let old = if len == WHOLE_LOB {
            self.lobs.read_all(lob).map(|(b, _)| b).unwrap_or_default()
        } else {
            let cur = self.lobs.length(lob).unwrap_or(0);
            let end = start.saturating_add(len).min(cur);
            if start < end {
                self.lobs.read(lob, start, (end - start) as usize).map(|(b, _)| b).unwrap_or_default()
            } else {
                Vec::new()
            }
        };
        let chain = self.versions.lobs.entry(lob).or_default();
        chain.spans.insert(0, LobSpanVersion { start, len, old, by: t });
        let (cs, ce) = Self::lob_conflict_span(start, len);
        self.txns.record_write(
            t,
            WriteRef { seg: LOB_SEGMENT, key: WriteKey::LobSpan { lob, start: cs, end: ce } },
        );
    }

    fn alloc_segment(&mut self) -> SegmentId {
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        id
    }

    // ----- write-ahead logging ---------------------------------------------

    /// Attach a durable medium: from now on, write-ahead before apply.
    pub fn attach_wal(&mut self, medium: DurableMedium) {
        self.wal = Some(medium);
    }

    /// Detach the medium (recovery replays with logging off).
    pub fn detach_wal(&mut self) -> Option<DurableMedium> {
        self.wal.take()
    }

    /// The attached medium, if durability is on.
    pub fn wal_medium(&self) -> Option<&DurableMedium> {
        self.wal.as_ref()
    }

    fn wal_append(&self, rec: WalRecord) -> Result<()> {
        match &self.wal {
            // Tag every record with the driving transaction so recovery can
            // replay whole-transaction groups in commit order.
            Some(w) => w.append_txn(self.current.txn, rec),
            None => Ok(()),
        }
    }

    fn wal_applied(&self) -> Result<()> {
        match &self.wal {
            Some(w) => w.applied(),
            None => Ok(()),
        }
    }

    /// Deep snapshot of all durable state (checkpoint source).
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            heaps: self.heaps.clone(),
            iots: self.iots.clone(),
            lobs: self.lobs.clone(),
            files: self.files.clone(),
            next_segment: self.next_segment,
        }
    }

    /// Replace all durable state from a snapshot. The buffer cache comes
    /// up cold, as it would after a real restart.
    pub fn restore_snapshot(&mut self, snap: EngineSnapshot) {
        self.cache.invalidate_all();
        self.heaps = snap.heaps;
        self.iots = snap.iots;
        self.lobs = snap.lobs;
        self.files = snap.files;
        self.next_segment = snap.next_segment;
        // The SQL layer's checkpoint refuses while any transaction is
        // active and vacuums first, so the restored state carries no
        // version chains.
        self.versions = VersionStore::default();
        self.current = Snapshot::latest();
    }

    /// Replace the external file store wholesale (recovery installs the
    /// medium's crash-surviving file mirror).
    pub fn set_files(&mut self, files: FileStore) {
        self.files = files;
    }

    /// Redo one WAL record against current state. Used only by recovery,
    /// with the WAL detached. Application errors are swallowed: a record
    /// whose original apply failed fails identically on replay (same
    /// state, deterministic operations), leaving state unchanged both
    /// times. Replay is redo only, so the undo an applied record leaves
    /// behind is dropped at once.
    pub fn apply_wal_record(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::DropSegment { seg } => {
                let _ = self.drop_segment(*seg);
            }
            WalRecord::TruncateSegment { seg } => {
                let _ = self.truncate_segment(*seg);
            }
            WalRecord::HeapInsertAt { seg, rid, row } => {
                if let Some(h) = self.heaps.get_mut(seg) {
                    let _ = h.insert_at(*rid, row.clone());
                    self.cache.write((*seg, rid.page));
                }
            }
            WalRecord::HeapUpdate { seg, rid, row } => {
                let _ = self.heap_update(*seg, *rid, row.clone());
            }
            WalRecord::HeapDelete { seg, rid } => {
                let _ = self.heap_delete(*seg, *rid);
            }
            WalRecord::IotInsertOrd { seg, row, ord } => {
                if let Some(t) = self.iots.get_mut(seg) {
                    let _ = t.insert_with_ordinal(row.clone(), *ord);
                }
            }
            WalRecord::IotUpsertOrd { seg, row, ord } => {
                if let Some(t) = self.iots.get_mut(seg) {
                    let _ = t.insert_with_ordinal(row.clone(), *ord);
                }
            }
            WalRecord::CreateHeapAt { seg } => {
                self.heaps.insert(*seg, HeapTable::new(*seg));
                self.next_segment = self.next_segment.max(seg.0 + 1);
            }
            WalRecord::CreateIotAt { seg, key_cols } => {
                self.iots.insert(*seg, IndexOrganizedTable::new(*seg, *key_cols));
                self.next_segment = self.next_segment.max(seg.0 + 1);
            }
            WalRecord::LobAllocateAt { lob } => {
                self.lobs.allocate_at(*lob);
            }
            WalRecord::IotDelete { seg, key } => {
                let _ = self.iot_delete(*seg, key);
            }
            WalRecord::LobWrite { lob, offset, bytes } => {
                let _ = self.lob_write(*lob, *offset, bytes);
            }
            WalRecord::LobAppendAt { lob, offset, bytes } => {
                // A gap below the recorded offset means an aborted
                // transaction's append was skipped during commit-order
                // replay; live rollback hole-filled that space with 0xFF
                // tombstone bytes, so replay must too.
                let _ = self.lobs.pad_to(*lob, *offset, 0xFF);
                let _ = self.lob_write(*lob, *offset, bytes);
            }
            WalRecord::LobTruncate { lob, len } => {
                let _ = self.lobs.truncate(*lob, *len);
            }
            WalRecord::LobOverwrite { lob, bytes } => {
                let _ = self.lob_overwrite(*lob, bytes);
            }
            WalRecord::LobFree { lob } => {
                let _ = self.lob_free(*lob);
            }
            WalRecord::LobRestore { lob, bytes } => {
                self.lobs.restore(*lob, bytes.clone());
            }
            // File content survives in the medium's mirror; commit markers
            // are the SQL layer's business.
            WalRecord::FileActivity { .. } | WalRecord::Commit { .. } => {}
        }
        self.undo.clear();
    }

    /// Recompute exact zone maps on every heap segment (end of recovery:
    /// replay re-derives superset bounds, this tightens them). Chain-held
    /// displaced rows are re-widened in so the superset invariant covers
    /// versions a snapshot may still resolve to.
    pub fn rebuild_all_zone_maps(&mut self) {
        let segs: Vec<SegmentId> = self.heaps.keys().copied().collect();
        for seg in segs {
            self.heaps.get_mut(&seg).expect("listed above").rebuild_zone_maps();
            self.widen_zones_with_chains(seg);
        }
    }

    /// Widen a heap segment's zone maps with every chain-held displaced
    /// row image, so zone pruning stays sound (and therefore stays *on*)
    /// while the segment carries version chains: a page may be skipped
    /// only if no physical row *and no displaced version* on it can
    /// match. Widen-only — bounds never tighten here.
    fn widen_zones_with_chains(&mut self, seg: SegmentId) {
        let Some(chains) = self.versions.heap.get(&seg) else { return };
        let Some(h) = self.heaps.get_mut(&seg) else { return };
        for (rid, chain) in chains {
            for v in &chain.older {
                h.widen_page_zone(rid.page, &v.row);
            }
        }
    }

    // ----- segment lifecycle ------------------------------------------------

    /// Create a heap segment. The WAL record carries the assigned segment
    /// id explicitly: commit-order replay may apply records in a different
    /// order than live execution, so allocations must not depend on replay
    /// order.
    pub fn create_heap(&mut self) -> Result<SegmentId> {
        self.wal_append(WalRecord::CreateHeapAt { seg: SegmentId(self.next_segment) })?;
        let seg = self.alloc_segment();
        self.heaps.insert(seg, HeapTable::new(seg));
        self.wal_applied()?;
        Ok(seg)
    }

    /// Create an index-organized segment keyed on the first `key_cols`
    /// row columns.
    pub fn create_iot(&mut self, key_cols: usize) -> Result<SegmentId> {
        self.wal_append(WalRecord::CreateIotAt {
            seg: SegmentId(self.next_segment),
            key_cols,
        })?;
        let seg = self.alloc_segment();
        self.iots.insert(seg, IndexOrganizedTable::new(seg, key_cols));
        self.wal_applied()?;
        Ok(seg)
    }

    /// Drop any segment; its cached pages are discarded.
    pub fn drop_segment(&mut self, seg: SegmentId) -> Result<()> {
        if !self.heaps.contains_key(&seg) && !self.iots.contains_key(&seg) {
            return Err(Error::Storage(format!("{seg}: no such segment")));
        }
        self.wal_append(WalRecord::DropSegment { seg })?;
        self.heaps.remove(&seg);
        self.iots.remove(&seg);
        self.versions.forget_segment(seg);
        self.cache.discard_segment(seg);
        self.wal_applied()
    }

    /// Truncate a segment in place (non-transactional, like Oracle
    /// TRUNCATE: it is DDL and cannot be rolled back).
    pub fn truncate_segment(&mut self, seg: SegmentId) -> Result<()> {
        if self.heaps.contains_key(&seg) || self.iots.contains_key(&seg) {
            self.wal_append(WalRecord::TruncateSegment { seg })?;
        }
        if let Some(h) = self.heaps.get_mut(&seg) {
            h.truncate();
        } else if let Some(t) = self.iots.get_mut(&seg) {
            t.truncate();
        } else {
            return Err(Error::Storage(format!("{seg}: no such segment")));
        }
        self.versions.forget_segment(seg);
        self.cache.discard_segment(seg);
        self.wal_applied()
    }

    // ----- segment shape and cache ------------------------------------------

    /// Borrow a heap segment for its shape metadata (`row_count`,
    /// `page_count`). Rows are read through the snapshot reads below.
    pub fn heap(&self, seg: SegmentId) -> Result<&HeapTable> {
        self.heaps.get(&seg).ok_or_else(|| Error::Storage(format!("{seg}: no such heap segment")))
    }

    /// Borrow an IOT segment for its shape metadata (`row_count`,
    /// `page_count`, `height`). Rows are read through the snapshot reads
    /// below.
    pub fn iot(&self, seg: SegmentId) -> Result<&IndexOrganizedTable> {
        self.iots.get(&seg).ok_or_else(|| Error::Storage(format!("{seg}: no such IOT segment")))
    }

    /// The buffer cache (for stats snapshots and cold-start simulation).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Zone-map check for a full scan: true when the page provably holds
    /// no `col` value inside `[lo, hi]`, so the scan may skip it without
    /// charging a page read. Zone maps are segment metadata, not page
    /// data — consulting them costs no buffer-cache touch.
    pub fn heap_zone_excludes(
        &self,
        seg: SegmentId,
        page: u32,
        col: usize,
        lo: Option<&extidx_common::Value>,
        hi: Option<&extidx_common::Value>,
    ) -> bool {
        self.heaps.get(&seg).is_some_and(|h| h.zone_excludes(page, col, lo, hi))
    }

    /// Recompute exact zone-map bounds for a heap segment (ANALYZE-time
    /// rebuild; no-op for non-heap segments), then re-widen with
    /// chain-held displaced rows to keep the superset invariant.
    pub fn heap_rebuild_zone_maps(&mut self, seg: SegmentId) {
        if let Some(h) = self.heaps.get_mut(&seg) {
            h.rebuild_zone_maps();
        }
        self.widen_zones_with_chains(seg);
    }

    /// Snapshot of cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ----- heap mutations ----------------------------------------------------

    /// Insert a row into a heap segment. The WAL record names the rowid
    /// the insert will land on (peeked before the apply) so commit-order
    /// replay reproduces live placement exactly.
    pub fn heap_insert(&mut self, seg: SegmentId, row: Row) -> Result<RowId> {
        let Some(h) = self.heaps.get(&seg) else {
            return Err(Error::Storage(format!("{seg}: no such heap segment")));
        };
        let rid = h.peek_insert_rid(&row);
        self.wal_append(WalRecord::HeapInsertAt { seg, rid, row: row.clone() })?;
        let h = self.heaps.get_mut(&seg).expect("existence checked above");
        let (inserted, page) = h.insert(row);
        debug_assert_eq!(inserted, rid, "peeked rowid must match actual placement");
        self.cache.write((seg, page));
        let t = self.current.txn;
        if t != 0 {
            let chain = self.versions.heap_chain_mut(seg, inserted);
            chain.begin = t;
            self.txns.record_write(t, WriteRef { seg, key: WriteKey::Rid(inserted) });
        }
        self.record(UndoOp::HeapInsert { seg, rid: inserted });
        self.wal_applied()?;
        Ok(inserted)
    }

    /// Update a row in place; returns the old image. Under a transaction
    /// the displaced image is pushed onto the row's version chain so
    /// concurrent snapshots keep seeing it.
    pub fn heap_update(&mut self, seg: SegmentId, rid: RowId, new_row: Row) -> Result<Row> {
        if !self.heaps.contains_key(&seg) {
            return Err(Error::Storage(format!("{seg}: no such heap segment")));
        }
        self.check_heap_write(seg, rid)?;
        self.wal_append(WalRecord::HeapUpdate { seg, rid, row: new_row.clone() })?;
        let h = self.heaps.get_mut(&seg).expect("existence checked above");
        let old = h.update(rid, new_row)?;
        self.cache.write((seg, rid.page));
        let t = self.current.txn;
        if t != 0 {
            let chain = self.versions.heap_chain_mut(seg, rid);
            if chain.begin != t {
                // Displace the previous writer's version; a second update
                // by the same transaction overwrites silently (nobody else
                // can see the intermediate image).
                chain.older.insert(
                    0,
                    HeapVersion { row: old.clone(), begin: chain.begin, end: t },
                );
                chain.begin = t;
            }
            self.txns.record_write(t, WriteRef { seg, key: WriteKey::Rid(rid) });
        }
        self.record(UndoOp::HeapUpdate { seg, rid, old: old.clone() });
        self.wal_applied()?;
        Ok(old)
    }

    /// Delete a row; returns the old image. Under a transaction the delete
    /// is *deferred*: the chain marks the in-place version dead and the
    /// physical slot survives until vacuum, so the rowid is never recycled
    /// while a snapshot can still see the row. (Replay applies the delete
    /// physically — by then the commit is durable and unconditional.)
    pub fn heap_delete(&mut self, seg: SegmentId, rid: RowId) -> Result<Row> {
        if !self.heaps.contains_key(&seg) {
            return Err(Error::Storage(format!("{seg}: no such heap segment")));
        }
        self.check_heap_write(seg, rid)?;
        let t = self.current.txn;
        if t != 0 {
            // Validate before logging: replay applies the delete physically
            // and unconditionally, so a record must only exist for deletes
            // that succeed live.
            let h = self.heaps.get(&seg).expect("existence checked above");
            h.fetch(rid)?;
            if self.versions.heap_chain(seg, rid).is_some_and(|c| c.dead.is_some()) {
                return Err(Error::Storage(format!("{rid}: row already deleted")));
            }
        }
        self.wal_append(WalRecord::HeapDelete { seg, rid })?;
        let old = if t == 0 {
            let h = self.heaps.get_mut(&seg).expect("existence checked above");
            let old = h.delete(rid)?;
            // A delete that emptied the page rebuilt its zone entry
            // exactly; re-cover chain-held displaced rows.
            self.widen_zones_with_chains(seg);
            old
        } else {
            let h = self.heaps.get(&seg).expect("existence checked above");
            let old = h.fetch(rid)?.clone();
            let chain = self.versions.heap_chain_mut(seg, rid);
            chain.dead = Some(t);
            self.txns.record_write(t, WriteRef { seg, key: WriteKey::Rid(rid) });
            old
        };
        self.cache.write((seg, rid.page));
        self.record(UndoOp::HeapDelete { seg, rid, old: old.clone() });
        self.wal_applied()?;
        Ok(old)
    }

    // ----- IOT mutations -------------------------------------------------------

    fn iot_mut(&mut self, seg: SegmentId) -> Result<&mut IndexOrganizedTable> {
        self.iots
            .get_mut(&seg)
            .ok_or_else(|| Error::Storage(format!("{seg}: no such IOT segment")))
    }

    fn charge_iot(&self, seg: SegmentId, charge: IotIoCharge, base_page: u32) {
        // Model: reads touch pages descending from the root; writes dirty
        // the leaf. Page numbers are synthetic but stable enough for LRU
        // behaviour (root pages stay hot, leaves cycle).
        for i in 0..charge.page_reads {
            self.cache.read((seg, base_page.wrapping_add(i as u32)));
        }
        for i in 0..charge.page_writes {
            self.cache.write((seg, base_page.wrapping_add(i as u32)));
        }
    }

    fn iot_leaf_page_for(&self, seg: SegmentId, key: &Key) -> u32 {
        // Stable leaf-page number derived from the key so repeated probes
        // of the same key hit the same cache page.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        seg.0.hash(&mut h);
        format!("{key}").hash(&mut h);
        let iot = &self.iots[&seg];
        let pages = iot.page_count().max(1) as u64;
        (h.finish() % pages) as u32
    }

    /// Pack an IOT logical-rowid ordinal into a `RowId` (and the inverse
    /// below). Ordinals use the page/slot fields: 26 + 16 = 42 bits of
    /// address space per IOT segment.
    fn ord_to_rid(seg: SegmentId, ord: u64) -> RowId {
        debug_assert!(ord < (1 << 42), "IOT ordinal overflows rowid packing");
        RowId::new(seg.0, (ord >> 16) as u32, (ord & 0xFFFF) as u16)
    }

    fn rid_to_ord(rid: RowId) -> u64 {
        ((rid.page as u64) << 16) | rid.slot as u64
    }

    /// Insert a row into an IOT (duplicate key → constraint violation).
    /// Returns the row's logical rowid. The WAL record carries the ordinal
    /// the insert will receive so commit-order replay reproduces logical
    /// rowids exactly; consequently the duplicate check runs *before*
    /// logging (replay applies ordinal-explicit records unconditionally).
    pub fn iot_insert(&mut self, seg: SegmentId, row: Row) -> Result<RowId> {
        let iot = self.iot(seg)?;
        let key_cols = iot.key_cols();
        let key = Key(row[..key_cols.min(row.len())].to_vec());
        if iot.ordinal_of(&key).is_some() {
            return Err(Error::Constraint(format!("duplicate key {key} in IOT {seg}")));
        }
        self.check_iot_write(seg, &key)?;
        let ord = iot.peek_next_ord();
        self.wal_append(WalRecord::IotInsertOrd { seg, row: row.clone(), ord })?;
        let (inserted, charge) = self.iot_mut(seg)?.insert(row)?;
        debug_assert_eq!(inserted, ord, "peeked ordinal must match actual assignment");
        let leaf = self.iot_leaf_page_for(seg, &key);
        self.charge_iot(seg, charge, leaf);
        let t = self.current.txn;
        if t != 0 {
            let chain = self.versions.iot_chain_mut(seg, key.clone());
            chain.current = Some(IotCurrent { begin: t });
            self.txns.record_write(t, WriteRef { seg, key: WriteKey::Key(key.clone()) });
        }
        self.record(UndoOp::IotInsert { seg, key });
        self.wal_applied()?;
        Ok(Self::ord_to_rid(seg, inserted))
    }

    /// Insert-or-replace into an IOT. Returns the previous row (if any)
    /// and the row's logical rowid, which is stable across replaces.
    pub fn iot_upsert(&mut self, seg: SegmentId, row: Row) -> Result<(Option<Row>, RowId)> {
        let iot = self.iot(seg)?;
        let key_cols = iot.key_cols();
        let key = Key(row[..key_cols.min(row.len())].to_vec());
        self.check_iot_write(seg, &key)?;
        let ord = iot.peek_upsert_ord(&row)?;
        self.wal_append(WalRecord::IotUpsertOrd { seg, row: row.clone(), ord })?;
        let (old, ord, charge) = self.iot_mut(seg)?.upsert(row)?;
        let leaf = self.iot_leaf_page_for(seg, &key);
        self.charge_iot(seg, charge, leaf);
        let t = self.current.txn;
        if t != 0 {
            let chain = self.versions.iot_chain_mut(seg, key.clone());
            let prev_begin = chain.current.as_ref().map(|c| c.begin).unwrap_or(0);
            if let Some(o) = &old {
                if prev_begin != t {
                    chain.older.insert(
                        0,
                        IotVersion { row: o.clone(), begin: prev_begin, end: t, ord },
                    );
                }
            }
            chain.current = Some(IotCurrent { begin: t });
            self.txns.record_write(t, WriteRef { seg, key: WriteKey::Key(key.clone()) });
        }
        self.record(match &old {
            Some(o) => UndoOp::IotReplace { seg, old: o.clone() },
            None => UndoOp::IotInsert { seg, key },
        });
        self.wal_applied()?;
        Ok((old, Self::ord_to_rid(seg, ord)))
    }

    /// Delete by key from an IOT; returns the removed row if present.
    pub fn iot_delete(&mut self, seg: SegmentId, key: &Key) -> Result<Option<Row>> {
        self.check_iot_write(seg, key)?;
        self.wal_append(WalRecord::IotDelete { seg, key: key.clone() })?;
        // IOT deletes are physically immediate (ordinals are never reused,
        // so no rowid-recycling hazard); the removed row survives as a
        // ghost version in the chain for older snapshots.
        let (removed, charge) = self.iot_mut(seg)?.delete(key);
        let leaf = self.iot_leaf_page_for(seg, key);
        self.charge_iot(seg, charge, leaf);
        let t = self.current.txn;
        let old = match removed {
            Some((o, ord)) => {
                if t != 0 {
                    let chain = self.versions.iot_chain_mut(seg, key.clone());
                    let prev_begin = chain.current.as_ref().map(|c| c.begin).unwrap_or(0);
                    chain.older.insert(
                        0,
                        IotVersion { row: o.clone(), begin: prev_begin, end: t, ord },
                    );
                    chain.current = None;
                    self.txns.record_write(t, WriteRef { seg, key: WriteKey::Key(key.clone()) });
                }
                self.record(UndoOp::IotDelete { seg, old: o.clone(), ord });
                Some(o)
            }
            None => None,
        };
        self.wal_applied()?;
        Ok(old)
    }

    // ----- snapshot reads ---------------------------------------------------
    //
    // The whole heap/IOT read surface: the heap page walk, six more access
    // shapes and one merge routine, all pinned to a `Snapshot`. A segment
    // without version chains takes the fast path inside each body: every
    // physical row is visible to every snapshot.

    /// The image of a physically present heap row visible under `snap`
    /// (`None` = invisible: written by a concurrent uncommitted/too-new
    /// transaction, or deleted for this snapshot). `chains` are the
    /// segment's, `None` when it has none: no per-row lookup then.
    fn heap_visible_image<'a>(
        &'a self,
        chains: Option<&'a HashMap<RowId, HeapChain>>,
        rid: RowId,
        physical: &'a Row,
        snap: &Snapshot,
    ) -> Option<&'a Row> {
        match chains.and_then(|m| m.get(&rid)) {
            None => Some(physical),
            Some(chain) => mvcc::resolve_heap(&self.txns, chain, Some(physical), snap),
        }
    }

    /// One step of the heap page walk, the only way to scan a heap
    /// segment: the rows of `page` visible under `snap`, in slot order
    /// from `from_slot` on, each with its rowid; `None` past the last
    /// page. A row's image may be a displaced older version, so the
    /// borrow is of the engine, not of the page. One logical read per
    /// visited page: a visit that starts at slot 0 of a non-empty page
    /// pays it, and `from_slot > 0` resumes a visit that already has.
    pub fn heap_page<'a>(
        &'a self,
        seg: SegmentId,
        page: u32,
        from_slot: u16,
        snap: &'a Snapshot,
    ) -> Result<Option<impl Iterator<Item = (RowId, &'a Row)> + 'a>> {
        let Some(slots) = self.heap(seg)?.page_slots(page) else { return Ok(None) };
        if from_slot == 0 && !slots.is_empty() {
            self.cache.read((seg, page));
        }
        let chains = self.versions.heap.get(&seg).filter(|m| !m.is_empty());
        Ok(Some(slots.iter().enumerate().skip(from_slot as usize).filter_map(move |(slot, row)| {
            let rid = RowId::new(seg.0, page, slot as u16);
            Some((rid, self.heap_visible_image(chains, rid, row.as_ref()?, snap)?))
        })))
    }

    /// Batched rowid→row join under `snap` (the domain-scan join:
    /// cartridge postings are not versioned, so visibility is applied at
    /// the base-row fetch). Pages are visited in (page, slot) order so the
    /// buffer cache is charged **once per distinct page** instead of once
    /// per row. Aligned with the input: `None` marks a rowid with no
    /// visible version. A rowid that addresses no physical row is an error
    /// unless a chain explains its absence.
    pub fn heap_fetch_multi(
        &self,
        seg: SegmentId,
        rids: &[RowId],
        snap: &Snapshot,
    ) -> Result<Vec<Option<Row>>> {
        let h = self.heap(seg)?;
        let chains = self.versions.heap.get(&seg).filter(|m| !m.is_empty());
        let mut order: Vec<usize> = (0..rids.len()).collect();
        order.sort_by_key(|&i| (rids[i].page, rids[i].slot));
        let mut out: Vec<Option<Row>> = vec![None; rids.len()];
        let mut last_page: Option<u32> = None;
        for i in order {
            let rid = rids[i];
            if last_page != Some(rid.page) {
                self.cache.read((seg, rid.page));
                last_page = Some(rid.page);
            }
            match h.fetch(rid) {
                Ok(row) => out[i] = self.heap_visible_image(chains, rid, row, snap).cloned(),
                // A reclaimed slot that a chain still explains is just invisible.
                Err(e) if chains.is_none_or(|m| !m.contains_key(&rid)) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(out)
    }

    /// Key-ordered rows of an IOT visible under `snap` within the given
    /// bounds, each with the ordinal it is (or was) reachable under. Merges
    /// physical rows with ghost chain versions — a row deleted by a
    /// concurrent transaction is physically absent but still visible to
    /// snapshots that predate the delete.
    fn iot_visible_merged(
        &self,
        seg: SegmentId,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
        snap: &Snapshot,
    ) -> Result<Vec<(Key, u64, Row)>> {
        let iot = self.iot(seg)?;
        let key_cols = iot.key_cols();
        let in_range = |k: &Key| {
            (match lo {
                Bound::Unbounded => true,
                Bound::Included(b) => k >= b,
                Bound::Excluded(b) => k > b,
            }) && (match hi {
                Bound::Unbounded => true,
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
            })
        };
        let chains = self.versions.iot.get(&seg);
        let mut out: Vec<(Key, u64, Row)> = Vec::new();
        for (ord, row) in iot.scan_with_ordinals() {
            let key = Key(row[..key_cols.min(row.len())].to_vec());
            if !in_range(&key) {
                continue;
            }
            match chains.and_then(|m| m.get(&key)) {
                None => out.push((key, ord, row.clone())),
                Some(chain) => {
                    if let Some((r, gord)) = mvcc::resolve_iot(&self.txns, chain, Some(row), snap)
                    {
                        out.push((key, gord.unwrap_or(ord), r.clone()));
                    }
                }
            }
        }
        if let Some(m) = chains {
            let mut added_ghosts = false;
            for (key, chain) in m {
                if !in_range(key) || iot.ordinal_of(key).is_some() {
                    continue;
                }
                if let Some((r, gord)) = mvcc::resolve_iot(&self.txns, chain, None, snap) {
                    out.push((key.clone(), gord.unwrap_or(0), r.clone()));
                    added_ghosts = true;
                }
            }
            if added_ghosts {
                out.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
        Ok(out)
    }

    /// Full scan of an IOT under `snap` with each row's logical rowid,
    /// charging one read per page (the sequential full-scan cost model).
    pub fn iot_scan_with_rids(
        &self,
        seg: SegmentId,
        snap: &Snapshot,
    ) -> Result<Vec<(RowId, Row)>> {
        let iot = self.iot(seg)?;
        let out = if self.segment_has_chains(seg) {
            self.iot_visible_merged(seg, Bound::Unbounded, Bound::Unbounded, snap)?
                .into_iter()
                .map(|(_, ord, r)| (Self::ord_to_rid(seg, ord), r))
                .collect()
        } else {
            iot.scan_with_ordinals().map(|(ord, r)| (Self::ord_to_rid(seg, ord), r.clone())).collect()
        };
        for p in 0..iot.page_count() {
            self.cache.read((seg, p as u32));
        }
        Ok(out)
    }

    /// Inclusive range scan in an IOT under `snap` with each row's logical
    /// rowid. Charges the height plus the leaf pages spanned (the merge
    /// has no leaf geometry, so there a leaf is taken to hold 64 rows).
    pub fn iot_range_with_rids(
        &self,
        seg: SegmentId,
        lo: Option<&Key>,
        hi: Option<&Key>,
        snap: &Snapshot,
    ) -> Result<Vec<(RowId, Row)>> {
        let iot = self.iot(seg)?;
        let (out, page_reads): (Vec<(RowId, Row)>, usize) = if self.segment_has_chains(seg) {
            let lo = lo.map_or(Bound::Unbounded, Bound::Included);
            let hi = hi.map_or(Bound::Unbounded, Bound::Included);
            let rows = self.iot_visible_merged(seg, lo, hi, snap)?;
            let page_reads = iot.height() + rows.len().div_ceil(64).max(1);
            let with_rids = rows.into_iter().map(|(_, ord, r)| (Self::ord_to_rid(seg, ord), r));
            (with_rids.collect(), page_reads)
        } else {
            let (rows, charge) = iot.range(lo, hi);
            let key_cols = iot.key_cols();
            let with_rids = rows.into_iter().map(|r| {
                let key = Key(r[..key_cols.min(r.len())].to_vec());
                let ord = iot.ordinal_of(&key).expect("every live IOT key has an ordinal");
                (Self::ord_to_rid(seg, ord), r.clone())
            });
            (with_rids.collect(), charge.page_reads)
        };
        let leaf = lo.or(hi).map(|k| self.iot_leaf_page_for(seg, k)).unwrap_or(0);
        self.charge_iot(seg, IotIoCharge { page_reads, page_writes: 0 }, leaf);
        Ok(out)
    }

    /// Inclusive range scan in an IOT under `snap` without rowids (what a
    /// secondary-index probe needs). Charged like
    /// [`Self::iot_range_with_rids`].
    pub fn iot_range(
        &self,
        seg: SegmentId,
        lo: Option<&Key>,
        hi: Option<&Key>,
        snap: &Snapshot,
    ) -> Result<Vec<Row>> {
        if self.segment_has_chains(seg) {
            // The merge produces ordinals whether or not they are wanted.
            let with_rids = self.iot_range_with_rids(seg, lo, hi, snap)?;
            return Ok(with_rids.into_iter().map(|(_, r)| r).collect());
        }
        let (rows, charge) = self.iot(seg)?.range(lo, hi);
        let leaf = lo.or(hi).map(|k| self.iot_leaf_page_for(seg, k)).unwrap_or(0);
        self.charge_iot(seg, charge, leaf);
        Ok(rows.into_iter().cloned().collect())
    }

    /// Up to `limit` IOT rows visible under `snap` with keys strictly
    /// after `after` (`None` starts from the beginning), each with its
    /// logical rowid — the streaming cursor behind base-table scans over
    /// IOTs. Ghost rows (visible to `snap` but physically deleted by a
    /// concurrent transaction) are merged into the batch in key order and
    /// invisible physical rows are dropped, so the cursor never ends early
    /// or stalls. Charges the height plus one leaf page per 64 rows.
    pub fn iot_batch_after(
        &self,
        seg: SegmentId,
        after: Option<&Key>,
        limit: usize,
        snap: &Snapshot,
    ) -> Result<Vec<(RowId, Key, Row)>> {
        let iot = self.iot(seg)?;
        let limit = limit.max(1);
        let batch: Vec<(RowId, Key, Row)> = if self.segment_has_chains(seg) {
            let lo = after.map_or(Bound::Unbounded, Bound::Excluded);
            self.iot_visible_merged(seg, lo, Bound::Unbounded, snap)?
                .into_iter()
                .take(limit)
                .map(|(k, ord, r)| (Self::ord_to_rid(seg, ord), k, r))
                .collect()
        } else {
            iot.batch_after(after, limit)
                .into_iter()
                .map(|(ord, k, r)| (Self::ord_to_rid(seg, ord), k.clone(), r.clone()))
                .collect()
        };
        let page_reads = iot.height() + batch.len().div_ceil(64).max(1);
        self.charge_iot(seg, IotIoCharge { page_reads, page_writes: 0 }, 0);
        Ok(batch)
    }

    /// Batched logical-rowid→row join for IOTs under `snap`, aligned with
    /// the input — the IOT counterpart of [`Self::heap_fetch_multi`].
    /// Ghost ordinals resolve through the chains; `None` marks a rowid
    /// nothing visible lives at. One height-probe read per rowid.
    pub fn iot_fetch_multi(
        &self,
        seg: SegmentId,
        rids: &[RowId],
        snap: &Snapshot,
    ) -> Result<Vec<Option<Row>>> {
        let iot = self.iot(seg)?;
        let chains = self.versions.iot.get(&seg).filter(|m| !m.is_empty());
        let fetch = |rid: RowId| {
            let ord = Self::rid_to_ord(rid);
            let (found, charge) = iot.by_ordinal(ord);
            let Some((key, row)) = found else {
                self.charge_iot(seg, charge, 0);
                // Physically absent: the rowid may address a ghost version.
                let ghost = chains?.values().flat_map(|chain| &chain.older).find(|v| {
                    v.ord == ord
                        && self.txns.stamp_visible(v.begin, snap)
                        && !self.txns.stamp_visible(v.end, snap)
                })?;
                return Some(ghost.row.clone());
            };
            self.charge_iot(seg, charge, self.iot_leaf_page_for(seg, key));
            let Some(chain) = chains.and_then(|m| m.get(key)) else {
                return Some(row.clone());
            };
            match mvcc::resolve_iot(&self.txns, chain, Some(row), snap)? {
                // A ghost at a different ordinal is addressed by a
                // different rowid — nothing visible *here*.
                (_, Some(g)) if g != ord => None,
                (r, _) => Some(r.clone()),
            }
        };
        Ok(rids.iter().map(|&rid| fetch(rid)).collect())
    }

    /// Pop the version a transactional IOT write displaced (rollback
    /// support): only if this write was the displacing one — its undo
    /// image matches the displaced row.
    fn pop_iot_version(
        versions: &mut VersionStore,
        seg: SegmentId,
        key: &Key,
        t: u64,
        old: &Row,
    ) {
        if let Some(m) = versions.iot.get_mut(&seg) {
            if let Some(chain) = m.get_mut(key) {
                if chain.older.first().is_some_and(|v| v.end == t && v.row == *old) {
                    let popped = chain.older.remove(0);
                    chain.current = Some(IotCurrent { begin: popped.begin });
                }
                if chain.is_trivial() {
                    m.remove(key);
                }
            }
        }
    }

    /// Pop the newest span a rolled-back LOB write pushed (rollback
    /// support): the physical bytes are restored, so the span's patch must
    /// leave the chain too or readers would un-apply it twice.
    fn pop_lob_span(versions: &mut VersionStore, lob: LobRef, t: u64, start: u64, len: u64) {
        if let Some(chain) = versions.lobs.get_mut(&lob) {
            if let Some(pos) = chain
                .spans
                .iter()
                .position(|v| v.by == t && v.start == start && v.len == len)
            {
                chain.spans.remove(pos);
            }
            if chain.is_trivial() {
                versions.lobs.remove(&lob);
            }
        }
    }

    // ----- LOB operations -------------------------------------------------------

    fn lob_page(lob: LobRef, page: usize) -> u32 {
        (((lob.0 as u32) << 10) | (page as u32 & 0x3FF)).wrapping_add(0)
    }

    fn charge_lob(&self, lob: LobRef, charge: crate::lob::LobIoCharge) {
        for i in 0..charge.page_reads {
            self.cache.read((LOB_SEGMENT, Self::lob_page(lob, i)));
        }
        for i in 0..charge.page_writes {
            self.cache.write((LOB_SEGMENT, Self::lob_page(lob, i)));
        }
    }

    /// Allocate an empty LOB. The record names the locator explicitly so
    /// commit-order replay reproduces live assignments.
    pub fn lob_allocate(&mut self) -> Result<LobRef> {
        self.wal_append(WalRecord::LobAllocateAt { lob: self.lobs.peek_next_ref() })?;
        let lob = self.lobs.allocate();
        self.record(UndoOp::LobAllocate { lob });
        // Stamp the new LOB with its creating transaction so snapshots
        // that cannot see the creator do not see its content either.
        let t = self.current.txn;
        if t != 0 {
            self.versions.lobs.insert(lob, LobChain { begin: t, spans: Vec::new() });
            self.txns.record_write(
                t,
                WriteRef {
                    seg: LOB_SEGMENT,
                    key: WriteKey::LobSpan { lob, start: 0, end: WHOLE_LOB },
                },
            );
        }
        self.wal_applied()?;
        Ok(lob)
    }

    /// LOB length as the write lane's current snapshot sees it.
    pub fn lob_length(&self, lob: LobRef) -> Result<u64> {
        self.lob_length_at(lob, &self.current)
    }

    /// LOB length under a specific snapshot.
    pub fn lob_length_at(&self, lob: LobRef, snap: &Snapshot) -> Result<u64> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => self.lobs.length(lob),
            LobImage::Patched(bytes) => Ok(bytes.len() as u64),
            LobImage::Absent => Ok(0),
        }
    }

    /// Read from a LOB at an offset (write lane's current snapshot).
    pub fn lob_read(&self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.lob_read_at(lob, offset, len, &self.current)
    }

    /// Read from a LOB at an offset under a specific snapshot.
    pub fn lob_read_at(
        &self,
        lob: LobRef,
        offset: u64,
        len: usize,
        snap: &Snapshot,
    ) -> Result<Vec<u8>> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => {
                let (bytes, charge) = self.lobs.read(lob, offset, len)?;
                self.charge_lob(lob, charge);
                Ok(bytes)
            }
            LobImage::Patched(bytes) => {
                let off = (offset as usize).min(bytes.len());
                let end = (off + len).min(bytes.len());
                self.charge_lob_span(lob, off, end - off);
                Ok(bytes[off..end].to_vec())
            }
            LobImage::Absent => Ok(Vec::new()),
        }
    }

    /// Read a whole LOB (write lane's current snapshot).
    pub fn lob_read_all(&self, lob: LobRef) -> Result<Vec<u8>> {
        self.lob_read_all_at(lob, &self.current)
    }

    /// Read a whole LOB under a specific snapshot.
    pub fn lob_read_all_at(&self, lob: LobRef, snap: &Snapshot) -> Result<Vec<u8>> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => {
                let (bytes, charge) = self.lobs.read_all(lob)?;
                self.charge_lob(lob, charge);
                Ok(bytes)
            }
            LobImage::Patched(bytes) => {
                self.charge_lob_span(lob, 0, bytes.len());
                Ok(bytes)
            }
            LobImage::Absent => Ok(Vec::new()),
        }
    }

    /// Which content of a LOB the snapshot sees: the physical bytes
    /// (common case), a patched reconstruction with invisible span writes
    /// un-applied, or nothing at all (allocation not yet visible).
    fn lob_image(&self, lob: LobRef, snap: &Snapshot) -> Result<LobImage> {
        let Some(chain) = self.versions.lobs.get(&lob) else {
            return Ok(LobImage::Current);
        };
        if !self.txns.stamp_visible(chain.begin, snap) {
            return Ok(LobImage::Absent);
        }
        if chain.spans.iter().all(|v| self.txns.stamp_visible(v.by, snap)) {
            return Ok(LobImage::Current);
        }
        // Reconstruction path: start from the physical bytes (empty if the
        // locator was physically freed — a whole-image span restores the
        // content) and un-apply every invisible span, newest first.
        let physical = self.lobs.read_all(lob).map(|(b, _)| b).unwrap_or_default();
        Ok(mvcc::resolve_lob_image(&self.txns, chain, &physical, snap))
    }

    /// Cache charge for a read served from a displaced version (same page
    /// accounting a current-content read of that span would get).
    fn charge_lob_span(&self, lob: LobRef, off: usize, len: usize) {
        let pages = if len == 0 { 1 } else { (off + len - 1) / PAGE_SIZE - off / PAGE_SIZE + 1 };
        for i in 0..pages {
            self.cache.read((LOB_SEGMENT, Self::lob_page(lob, i)));
        }
    }

    /// Write into a LOB at an offset. Conflict detection, undo, and
    /// version displacement are all span-granular: only the byte range
    /// `[offset, offset+len)` is touched (widened down to the current end
    /// of the LOB when the write lands past it, so the zero-filled gap is
    /// part of the span and rollback can truncate it away).
    pub fn lob_write(&mut self, lob: LobRef, offset: u64, bytes: &[u8]) -> Result<()> {
        let cur = self.lobs.length(lob)?;
        let start = offset.min(cur);
        let len = offset.saturating_add(bytes.len() as u64) - start;
        self.check_lob_write(lob, start, len)?;
        self.wal_append(WalRecord::LobWrite { lob, offset, bytes: bytes.to_vec() })?;
        let end = start.saturating_add(len).min(cur);
        let old = if start < end {
            self.lobs.read(lob, start, (end - start) as usize)?.0
        } else {
            Vec::new()
        };
        self.record(UndoOp::LobSpan { lob, start, len, old });
        self.displace_lob_span(lob, start, len);
        let charge = self.lobs.write(lob, offset, bytes)?;
        self.charge_lob(lob, charge);
        self.wal_applied()
    }

    /// Append to a LOB; returns the offset written at. The WAL record is
    /// offset-explicit (peeked before apply) so commit-order replay places
    /// the bytes exactly where the live run did even when other
    /// transactions' appends interleaved.
    pub fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64> {
        let offset = self.lobs.length(lob)?;
        let len = bytes.len() as u64;
        self.check_lob_write(lob, offset, len)?;
        self.wal_append(WalRecord::LobAppendAt { lob, offset, bytes: bytes.to_vec() })?;
        self.record(UndoOp::LobSpan { lob, start: offset, len, old: Vec::new() });
        self.displace_lob_span(lob, offset, len);
        let (off, charge) = self.lobs.append(lob, bytes)?;
        debug_assert_eq!(off, offset, "peeked append offset must match placement");
        self.charge_lob(lob, charge);
        self.wal_applied()?;
        Ok(off)
    }

    /// Replace a LOB's entire contents (a whole-locator operation: it
    /// conflicts with every concurrent write to the locator).
    pub fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()> {
        self.check_lob_write(lob, 0, WHOLE_LOB)?;
        self.wal_append(WalRecord::LobOverwrite { lob, bytes: bytes.to_vec() })?;
        let (old, _) = self.lobs.read_all(lob)?;
        self.record(UndoOp::LobModify { lob, old });
        self.displace_lob_span(lob, 0, WHOLE_LOB);
        let charge = self.lobs.overwrite(lob, bytes)?;
        self.charge_lob(lob, charge);
        self.wal_applied()
    }

    /// Free a LOB (whole-locator). The before-image is displaced into the
    /// version chain first, so snapshots that predate the free still read
    /// the content.
    pub fn lob_free(&mut self, lob: LobRef) -> Result<()> {
        self.check_lob_write(lob, 0, WHOLE_LOB)?;
        self.wal_append(WalRecord::LobFree { lob })?;
        self.displace_lob_span(lob, 0, WHOLE_LOB);
        let old = self.lobs.free(lob)?;
        self.record(UndoOp::LobFree { lob, old });
        self.wal_applied()
    }

    // ----- external file store (NOT transactional, by design) -------------------

    /// The external file store. Mutations here are invisible to undo —
    /// this is the paper's §5 limitation made concrete. Callers that need
    /// crash-consistency stamps must use the `file_*` wrappers below;
    /// this raw handle exists for stats access and tests.
    pub fn files(&mut self) -> &mut FileStore {
        &mut self.files
    }

    /// Read-only view of the external file store.
    pub fn files_ref(&self) -> &FileStore {
        &self.files
    }

    /// Stamp a file mutation in the WAL (for post-crash dirty detection)
    /// and mirror it to the durable medium. File content is written
    /// through immediately — real files do not wait for commit, which is
    /// exactly why file-backed indexes need the quarantine path.
    fn file_mutate(
        &mut self,
        name: &str,
        op: impl Fn(&mut FileStore) -> Result<()>,
    ) -> Result<()> {
        self.wal_append(WalRecord::FileActivity { name: name.to_string() })?;
        op(&mut self.files)?;
        if let Some(w) = &self.wal {
            w.mirror_files(|fs| {
                let _ = op(fs);
            });
        }
        self.wal_applied()
    }

    /// Create (or truncate) an external file.
    pub fn file_create(&mut self, name: &str) -> Result<()> {
        self.file_mutate(name, |fs| {
            fs.create(name);
            Ok(())
        })
    }

    /// Remove an external file.
    pub fn file_remove(&mut self, name: &str) -> Result<()> {
        self.file_mutate(name, |fs| fs.remove(name))
    }

    /// Remove an external file if it exists (idempotent cleanup).
    pub fn file_remove_if_exists(&mut self, name: &str) -> Result<()> {
        if self.files.exists(name) {
            self.file_remove(name)?;
        }
        Ok(())
    }

    /// Replace a whole external file.
    pub fn file_write(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.file_mutate(name, |fs| fs.write(name, bytes))
    }

    /// Append to an external file.
    pub fn file_append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.file_mutate(name, |fs| fs.append(name, bytes))
    }

    /// Flush an external file (content unchanged — no WAL stamp needed,
    /// but the op counter ticks on both stores).
    pub fn file_flush(&mut self, name: &str) -> Result<()> {
        self.files.flush(name)?;
        if let Some(w) = &self.wal {
            w.mirror_files(|fs| {
                let _ = fs.flush(name);
            });
        }
        Ok(())
    }

    // ----- rollback ---------------------------------------------------------------

    /// Apply the current transaction's undo log in reverse down to `mark`
    /// (an earlier [`Self::undo_mark`]; 0 = the whole transaction),
    /// restoring all database-resident state. The one rollback routine:
    /// a failed statement, a retried cartridge call and a transaction's
    /// end differ only in the mark. External files are untouched.
    ///
    /// Every undo application is itself written ahead as a *redo* record:
    /// an explicit-transaction ROLLBACK is a completed statement followed
    /// by a commit marker, so its effects must replay on recovery exactly
    /// like forward work.
    pub fn rollback_to(&mut self, mark: usize) -> Result<()> {
        let t = self.current.txn;
        let ops = self.undo.get_mut(&t).map(|log| log.drain_reverse_from(mark));
        for op in ops.unwrap_or_default() {
            match op {
                UndoOp::HeapInsert { seg, rid } => {
                    if self.heaps.contains_key(&seg) {
                        self.wal_append(WalRecord::HeapDelete { seg, rid })?;
                        let h = self.heaps.get_mut(&seg).expect("checked");
                        h.delete(rid)?;
                        if t != 0 {
                            self.versions.drop_heap_chain(seg, rid);
                        }
                        self.widen_zones_with_chains(seg);
                        self.cache.write((seg, rid.page));
                    }
                }
                UndoOp::HeapUpdate { seg, rid, old } => {
                    if self.heaps.contains_key(&seg) {
                        self.wal_append(WalRecord::HeapUpdate { seg, rid, row: old.clone() })?;
                        self.heaps.get_mut(&seg).expect("checked").update(rid, old.clone())?;
                        if t != 0 {
                            // Pop the version this update displaced, if this
                            // was the displacing write (a same-transaction
                            // re-update pushed nothing, and its undo image
                            // won't match the displaced row).
                            if let Some(m) = self.versions.heap.get_mut(&seg) {
                                if let Some(chain) = m.get_mut(&rid) {
                                    if chain.begin == t
                                        && chain
                                            .older
                                            .first()
                                            .is_some_and(|v| v.end == t && v.row == old)
                                    {
                                        let popped = chain.older.remove(0);
                                        chain.begin = popped.begin;
                                    }
                                    if chain.is_trivial() {
                                        m.remove(&rid);
                                    }
                                }
                            }
                        }
                        self.cache.write((seg, rid.page));
                    }
                }
                UndoOp::HeapDelete { seg, rid, old } => {
                    if self.heaps.contains_key(&seg) {
                        // Transactional deletes are deferred: the row is
                        // still physically present and only the chain's
                        // dead mark needs clearing. The compensating WAL
                        // record must still restore the row, because replay
                        // applies deletes physically.
                        let deferred = t != 0
                            && self
                                .versions
                                .heap_chain(seg, rid)
                                .is_some_and(|c| c.dead == Some(t));
                        if deferred {
                            self.wal_append(WalRecord::HeapInsertAt {
                                seg,
                                rid,
                                row: old.clone(),
                            })?;
                            let m = self.versions.heap.get_mut(&seg).expect("chain checked");
                            let chain = m.get_mut(&rid).expect("chain checked");
                            chain.dead = None;
                            if chain.is_trivial() {
                                m.remove(&rid);
                            }
                        } else {
                            // Legacy lane: the slot was freed; restore into
                            // it (or in place, if something re-occupied it).
                            let live =
                                self.heaps.get_mut(&seg).expect("checked").fetch(rid).is_ok();
                            if live {
                                self.wal_append(WalRecord::HeapUpdate {
                                    seg,
                                    rid,
                                    row: old.clone(),
                                })?;
                                self.heaps.get_mut(&seg).expect("checked").update(rid, old)?;
                            } else {
                                self.wal_append(WalRecord::HeapInsertAt {
                                    seg,
                                    rid,
                                    row: old.clone(),
                                })?;
                                self.heaps.get_mut(&seg).expect("checked").insert_at(rid, old)?;
                            }
                        }
                        self.cache.write((seg, rid.page));
                    }
                }
                UndoOp::IotInsert { seg, key } => {
                    if self.iots.contains_key(&seg) {
                        self.wal_append(WalRecord::IotDelete { seg, key: key.clone() })?;
                        self.iots.get_mut(&seg).expect("checked").delete(&key);
                        if t != 0 {
                            if let Some(m) = self.versions.iot.get_mut(&seg) {
                                if let Some(chain) = m.get_mut(&key) {
                                    if chain.current.as_ref().is_some_and(|c| c.begin == t) {
                                        chain.current = None;
                                    }
                                    if chain.older.is_empty() {
                                        m.remove(&key);
                                    }
                                }
                            }
                        }
                    }
                }
                UndoOp::IotReplace { seg, old } => {
                    // The key still exists, so upsert preserves its ordinal.
                    if self.iots.contains_key(&seg) {
                        let ord = {
                            let iot = self.iots.get(&seg).expect("checked");
                            iot.peek_upsert_ord(&old)?
                        };
                        self.wal_append(WalRecord::IotUpsertOrd {
                            seg,
                            row: old.clone(),
                            ord,
                        })?;
                        self.iots.get_mut(&seg).expect("checked").upsert(old.clone())?;
                        if t != 0 {
                            let key_cols = self.iots[&seg].key_cols();
                            let key = Key(old[..key_cols.min(old.len())].to_vec());
                            Self::pop_iot_version(&mut self.versions, seg, &key, t, &old);
                        }
                    }
                }
                UndoOp::IotDelete { seg, old, ord } => {
                    // Restore under the original ordinal so logical rowids
                    // held by secondary indexes stay valid after rollback.
                    if self.iots.contains_key(&seg) {
                        self.wal_append(WalRecord::IotInsertOrd {
                            seg,
                            row: old.clone(),
                            ord,
                        })?;
                        self.iots
                            .get_mut(&seg)
                            .expect("checked")
                            .insert_with_ordinal(old.clone(), ord)?;
                        if t != 0 {
                            let key_cols = self.iots[&seg].key_cols();
                            let key = Key(old[..key_cols.min(old.len())].to_vec());
                            Self::pop_iot_version(&mut self.versions, seg, &key, t, &old);
                        }
                    }
                }
                UndoOp::LobAllocate { lob } => {
                    self.wal_append(WalRecord::LobFree { lob })?;
                    let _ = self.lobs.free(lob);
                    // The allocation never becomes visible; without this
                    // the chain (begin = aborted txn) would linger forever.
                    self.versions.lobs.remove(&lob);
                }
                UndoOp::LobSpan { lob, start, len, old } => {
                    // Offset-stable span rollback: restore the before-image
                    // in place, then truncate (if this write was the end of
                    // the LOB) or 0xFF-hole-fill the part the write
                    // extended — never shift other writers' bytes. The
                    // compensation is WAL-logged as plain redo records so
                    // commit-order replay reproduces it.
                    let cur = self.lobs.length(lob).unwrap_or(0);
                    let old_end = start + old.len() as u64;
                    let write_end = start.saturating_add(len);
                    if !old.is_empty() {
                        self.wal_append(WalRecord::LobWrite {
                            lob,
                            offset: start,
                            bytes: old.clone(),
                        })?;
                        let _ = self.lobs.write(lob, start, &old);
                    }
                    if write_end >= cur {
                        if old_end < cur {
                            self.wal_append(WalRecord::LobTruncate { lob, len: old_end })?;
                            let _ = self.lobs.truncate(lob, old_end);
                        }
                    } else if write_end > old_end {
                        let fill = vec![0xFF; (write_end - old_end) as usize];
                        self.wal_append(WalRecord::LobWrite {
                            lob,
                            offset: old_end,
                            bytes: fill.clone(),
                        })?;
                        let _ = self.lobs.write(lob, old_end, &fill);
                    }
                    if t != 0 {
                        Self::pop_lob_span(&mut self.versions, lob, t, start, len);
                    }
                }
                UndoOp::LobModify { lob, old } | UndoOp::LobFree { lob, old } => {
                    self.wal_append(WalRecord::LobRestore { lob, bytes: old.clone() })?;
                    self.lobs.restore(lob, old);
                    if t != 0 {
                        Self::pop_lob_span(&mut self.versions, lob, t, 0, WHOLE_LOB);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_common::Value;

    fn row(i: i64) -> Row {
        vec![Value::Integer(i)]
    }

    #[test]
    fn heap_rollback_restores_all_three_ops() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_heap().unwrap();
        let keep = e.heap_insert(seg, row(1)).unwrap();
        let doomed = e.heap_insert(seg, row(2)).unwrap();

        let mark = e.undo_mark();
        let added = e.heap_insert(seg, row(3)).unwrap();
        e.heap_update(seg, keep, row(100)).unwrap();
        e.heap_delete(seg, doomed).unwrap();

        e.rollback_to(mark).unwrap();
        let fetched = e.heap_fetch_multi(seg, &[keep, doomed], &Snapshot::latest()).unwrap();
        assert_eq!(fetched, vec![Some(row(1)), Some(row(2))]);
        assert!(e.heap_fetch_multi(seg, &[added], &Snapshot::latest()).is_err());
        assert_eq!(e.heap(seg).unwrap().row_count(), 2);
    }

    #[test]
    fn iot_rollback_restores() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_iot(1).unwrap();
        e.iot_insert(seg, vec![Value::Integer(1), Value::from("old")]).unwrap();

        let mark = e.undo_mark();
        e.iot_insert(seg, vec![Value::Integer(2), Value::from("new")]).unwrap();
        e.iot_upsert(seg, vec![Value::Integer(1), Value::from("changed")]).unwrap();
        e.iot_delete(seg, &Key::single(Value::Integer(1))).unwrap();

        e.rollback_to(mark).unwrap();
        let get = |k: i64| {
            let key = Key::single(Value::Integer(k));
            e.iot_range(seg, Some(&key), Some(&key), &Snapshot::latest()).unwrap()
        };
        assert_eq!(get(1), vec![vec![Value::Integer(1), Value::from("old")]]);
        assert!(get(2).is_empty());
    }

    #[test]
    fn lob_rollback_restores_bytes() {
        let mut e = StorageEngine::new(64);
        let keep = e.lob_allocate().unwrap();
        e.lob_write(keep, 0, b"stable").unwrap();

        let mark = e.undo_mark();
        e.lob_write(keep, 0, b"CLOBBERED!").unwrap();
        let temp = e.lob_allocate().unwrap();
        e.lob_write(temp, 0, b"scratch").unwrap();

        e.rollback_to(mark).unwrap();
        assert_eq!(e.lob_read_all(keep).unwrap(), b"stable");
        assert!(e.lob_read_all(temp).is_err(), "rolled-back allocation is gone");
    }

    #[test]
    fn external_files_survive_rollback() {
        let mut e = StorageEngine::new(64);
        let mark = e.undo_mark();
        let seg = e.create_heap().unwrap();
        e.heap_insert(seg, row(1)).unwrap();
        e.files().create("external.idx");
        e.files().write("external.idx", b"orphaned index entry").unwrap();

        e.rollback_to(mark).unwrap();
        // Database state rolled back…
        assert_eq!(e.heap(seg).unwrap().row_count(), 0);
        // …but the external file kept the now-inconsistent data (§5).
        assert_eq!(e.files().read("external.idx").unwrap(), b"orphaned index entry");
    }

    #[test]
    fn drop_segment_discards_cache_pages() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_heap().unwrap();
        e.heap_insert(seg, row(1)).unwrap();
        assert!(e.cache().resident_pages() > 0);
        e.drop_segment(seg).unwrap();
        assert_eq!(e.cache().resident_pages(), 0);
        assert!(e.heap(seg).is_err());
    }

    #[test]
    fn truncate_works_for_both_kinds() {
        let mut e = StorageEngine::new(64);
        let h = e.create_heap().unwrap();
        let t = e.create_iot(1).unwrap();
        e.heap_insert(h, row(1)).unwrap();
        e.iot_insert(t, vec![Value::Integer(1)]).unwrap();
        e.truncate_segment(h).unwrap();
        e.truncate_segment(t).unwrap();
        assert_eq!(e.heap(h).unwrap().row_count(), 0);
        assert_eq!(e.iot(t).unwrap().row_count(), 0);
    }

    #[test]
    fn iot_logical_rowids_survive_update_and_rollback() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_iot(1).unwrap();
        let rid = e.iot_insert(seg, vec![Value::Integer(7), Value::from("v1")]).unwrap();
        let latest = Snapshot::latest();
        let fetch = |e: &StorageEngine| e.iot_fetch_multi(seg, &[rid], &latest).unwrap().remove(0);
        assert_eq!(fetch(&e).unwrap()[1], Value::from("v1"));

        // In-place replace keeps the logical rowid.
        let (_, rid2) = e.iot_upsert(seg, vec![Value::Integer(7), Value::from("v2")]).unwrap();
        assert_eq!(rid, rid2);
        let key = Key::single(Value::Integer(7));
        let by_key = e.iot_range_with_rids(seg, Some(&key), Some(&key), &latest).unwrap();
        assert_eq!(by_key, vec![(rid, vec![Value::Integer(7), Value::from("v2")])]);

        // Delete + rollback restores the row under the same rowid.
        let mark = e.undo_mark();
        e.iot_delete(seg, &key).unwrap();
        assert!(fetch(&e).is_none());
        e.rollback_to(mark).unwrap();
        assert_eq!(fetch(&e).unwrap()[1], Value::from("v2"));

        // Range scan hands back the same rowids.
        let pairs = e.iot_range_with_rids(seg, None, None, &latest).unwrap();
        assert_eq!(pairs, vec![(rid, vec![Value::Integer(7), Value::from("v2")])]);
    }

    #[test]
    fn repeated_point_probes_hit_cache() {
        let mut e = StorageEngine::new(1024);
        let seg = e.create_iot(1).unwrap();
        for i in 0..100 {
            e.iot_insert(seg, vec![Value::Integer(i), Value::from("v")]).unwrap();
        }
        e.cache().reset_stats();
        let key = Key::single(Value::Integer(42));
        e.iot_range(seg, Some(&key), Some(&key), &Snapshot::latest()).unwrap();
        let cold = e.cache_stats();
        e.iot_range(seg, Some(&key), Some(&key), &Snapshot::latest()).unwrap();
        let warm = e.cache_stats().since(&cold);
        assert_eq!(warm.physical_reads, 0, "second probe should be fully cached");
    }
}
