//! The storage engine façade.
//!
//! [`StorageEngine`] owns every segment (heap tables, IOTs, the LOB
//! segment) as one [`Segments`], plus the buffer cache, the undo machinery,
//! and the *external* file store. All mutating access flows through it so
//! that:
//!
//! 1. every segment change is one [`WalRecord`], logged (when durability
//!    is on) and then applied by [`Segments::apply`] — the apply redo uses
//!    too, so a recovered image is the live one; forward writes and
//!    rollback compensations alike go through `log_apply`,
//! 2. every page touch is charged to the [`BufferCache`],
//! 3. every database-resident mutation is recorded in the undo log of
//!    the transaction driving it — the engine keeps the logs, whose
//!    entries are the version chains' only before-images, and callers
//!    hold savepoint marks ([`StorageEngine::undo_mark`]),
//! 4. external-file operations are *not* recorded — reproducing the
//!    paper's §5 transactional limitation for outside-the-database index
//!    data.
//!
//! Row versions are not kept here: the engine applies a write physically
//! and stamps it into [`VersionStore`] (one chain type, one write check,
//! one rollback pop and one prune rule for heap and IOT rows alike), and
//! every read — heap, IOT and LOB — resolves what its `&Snapshot` sees
//! through that store. The one write applied late is a versioned heap
//! delete: logged when it runs, applied by the vacuum pass once no
//! snapshot can see the row.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use extidx_common::{Error, Key, LobRef, Result, Row, RowId, Value};

use crate::buffer::{BufferCache, CacheStats};
use crate::file_store::FileStore;
use crate::heap::HeapTable;
use crate::iot::IndexOrganizedTable;
use crate::mvcc::{
    self, LobChain, LobImage, LobSpanVersion, RowChain, RowKey, Snapshot, TxnManager, UndoLogs,
    VersionStore, WHOLE_LOB,
};
use crate::page::{IoCharge, SegmentId, PAGE_SIZE};
use crate::undo::{LobSpan, UndoOp};
use crate::wal::{Applied, DurableMedium, Segments, WalRecord};

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

/// A segment's organization: what the row surface dispatches on.
enum Org<'a> {
    Heap(&'a HeapTable),
    Iot(&'a IndexOrganizedTable),
}

/// The storage engine: all segments plus cache, undo, and external files.
pub struct StorageEngine {
    cache: BufferCache,
    /// Every heap, IOT and LOB, changed only through [`Segments::apply`].
    segs: Segments,
    files: FileStore,
    /// When attached, every applied record is appended here *before* it
    /// is applied (write-ahead rule) and external-file ops write through
    /// to the medium's file mirror.
    wal: Option<DurableMedium>,
    /// Transaction manager shared with every session of the database.
    txns: Arc<TxnManager>,
    /// Undo log of every open transaction, by id (0 = an unobserved
    /// autocommit statement), and of every ended one a chain version still
    /// reads its image from; the vacuum pass drops those.
    undo: UndoLogs,
    /// Snapshot of the transaction currently driving mutations. Txn 0 is
    /// a write no other transaction can observe: it creates no version
    /// chain (`mvcc` module doc, "Who versions").
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
            segs: Segments { next_segment: 1, ..Segments::default() },
            files: FileStore::new(),
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
    /// and latest-visibility reads. `Snapshot::latest()` (txn 0) drives
    /// unobserved writes.
    pub fn set_current_txn(&mut self, snap: Snapshot) {
        self.current = snap;
    }

    /// Snapshot of the transaction currently driving mutations.
    pub fn current_snapshot(&self) -> Snapshot {
        self.current
    }

    /// Whether the transaction currently driving mutations is a registered
    /// one (explicit, or an observed autocommit): the registry's answer.
    pub fn in_txn(&self) -> bool {
        self.txns.is_active(self.current.txn)
    }

    /// Savepoint in the current transaction's undo log: everything a
    /// later [`Self::rollback_to`] of this mark takes back.
    pub fn undo_mark(&self) -> usize {
        self.undo.get(&self.current.txn).map_or(0, Vec::len)
    }

    /// Log one undo entry for the current transaction. Conflicts need no
    /// record of their own: the write's chain stamp is what a later writer
    /// is checked against, and rolling the entry back takes the stamp back.
    fn record(&mut self, op: UndoOp) {
        self.undo.entry(self.current.txn).or_default().push(op);
    }

    /// Commit a transaction and return its csn. A commit cannot lose
    /// first-writer-wins — every write was checked when it happened. Its
    /// undo log stays for the vacuum pass to drop, unless it is
    /// transaction 0's, which no version reads.
    pub fn commit_txn(&mut self, snap: Snapshot) -> u64 {
        let csn = self.txns.commit(&snap);
        if snap.txn == 0 {
            self.undo.remove(&0);
        }
        csn
    }

    /// Roll a whole transaction back (chain-aware, under its own
    /// snapshot) and mark it aborted. A rollback that completed popped
    /// every version that read the log, so the log goes; one that failed
    /// leaves the rest of it to the versions that still read it.
    pub fn rollback_txn(&mut self, snap: Snapshot) -> Result<()> {
        let driver = std::mem::replace(&mut self.current, snap);
        let rolled = self.rollback_to(0);
        self.current = driver;
        if rolled.is_ok() || snap.txn == 0 {
            self.undo.remove(&snap.txn);
        }
        self.txns.abort(snap.txn);
        rolled
    }

    /// Toggle the committed half of first-writer-wins: whether a write
    /// loses to a writer that committed after its snapshot. Structural
    /// conflicts between two *active* writers are always rejected
    /// regardless — overlay MVCC cannot hold two uncommitted in-place
    /// versions of one row. Kept as the concurrent oracle's negative
    /// control: with checks off it must catch the resulting lost update.
    pub fn set_conflict_checks(&mut self, on: bool) {
        self.conflict_checks = on;
    }

    /// True when every snapshot, live or future, sees exactly the
    /// segment's physical rows, so the optimizer may answer `COUNT(*)` from
    /// the physical row count: every stamp its version chains hold is
    /// settled (committed at or below the vacuum horizon) and no heap row
    /// waits for the vacuum to reclaim it. A chain the next vacuum would
    /// fold away changes no snapshot's answer.
    pub fn segment_settled(&self, seg: SegmentId) -> bool {
        self.versions.settled(&self.txns, seg)
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
        self.versions.stats()
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
        let horizon = self.txns.horizon();
        let mvcc::VacuumPass { pruned, dropped, mut reclaim } =
            self.versions.vacuum(&self.txns, horizon);

        // Physically reclaim settled-dead slots in deterministic order so
        // repeated runs produce identical free-list state.
        reclaim.sort_by_key(|&(s, r)| (s.0, r.page, r.slot));
        let mut touched: Vec<SegmentId> = Vec::new();
        for (seg, rid) in reclaim {
            // The deferred delete logged its record when it ran; this is
            // its apply, which redo makes at the delete's commit.
            if self.segs.apply(WalRecord::HeapDelete { seg, rid }).is_ok() {
                self.vacuum_stats.slots_reclaimed += 1;
                self.cache.write((seg, rid.page));
                if !touched.contains(&seg) {
                    touched.push(seg);
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
        // of any stamp a surviving chain still references — the only
        // stamps visibility or first-writer-wins can still ask about. An
        // ended transaction's undo log goes with them: no version names it.
        let referenced = self.versions.referenced_stamps();
        self.txns.prune_history(&referenced);
        self.undo.retain(|&t, _| t == 0 || referenced.contains(&t) || self.txns.is_active(t));
    }

    /// First-writer-wins check for a write of the current transaction to
    /// one heap row or IOT key.
    fn check_write(&self, seg: SegmentId, key: RowKey) -> Result<()> {
        self.versions.check_write(&self.txns, &self.current, self.conflict_checks, seg, key)
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
        match self.versions.active_writer(&self.txns, seg, t) {
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

    /// First-writer-wins check for a LOB write of `len` bytes at `start`
    /// (`len == WHOLE_LOB` for whole-locator operations):
    /// [`TxnManager::contender`] over the LOB's allocation stamp and the
    /// writer of every displaced span overlapping the write. LOB-backed
    /// index stores share one LOB across all of an index's rows;
    /// byte-range granularity lets two sessions maintain the same index
    /// concurrently as long as their writes touch disjoint ranges.
    fn check_lob_write(&self, lob: LobRef, start: u64, len: u64) -> Result<()> {
        let Some(chain) = self.versions.lobs.get(&lob) else {
            return Ok(());
        };
        let (t, (cs, ce)) = (self.current.txn, Self::lob_conflict_span(start, len));
        let overlaps = |v: &&LobSpanVersion| {
            let (vs, ve) = Self::lob_conflict_span(v.start, v.len);
            vs < ce && cs < ve
        };
        let spans = chain.spans.iter().filter(overlaps).map(|v| v.by);
        let stamps = std::iter::once(chain.begin).chain(spans);
        match self.txns.contender(&self.current, self.conflict_checks, stamps) {
            None => Ok(()),
            Some((stamp, None)) if stamp == chain.begin => Err(Error::write_conflict(
                stamp,
                format!("{lob} (whole)"),
                format!("txn {t}: {lob} was allocated by uncommitted txn {stamp}"),
            )),
            Some((stamp, None)) => {
                let mut spans = chain.spans.iter().filter(overlaps);
                let v = spans.find(|v| v.by == stamp).expect("the winner wrote a span");
                Err(Error::write_conflict(
                    stamp,
                    format!("{lob} bytes [{cs}, {ce})"),
                    format!(
                        "txn {t}: {lob} bytes [{cs}, {ce}) overlap an uncommitted write by txn {} at [{}, {})",
                        v.by, v.start, v.start.saturating_add(v.len)
                    ),
                ))
            }
            Some((stamp, Some(csn))) => {
                let what = if ce == WHOLE_LOB {
                    format!("{lob} (whole)")
                } else {
                    format!("{lob} bytes [{cs}, {ce})")
                };
                Err(mvcc::committed_conflict(&self.current, stamp, csn, what))
            }
        }
    }

    /// MVCC bookkeeping of a LOB write of `len` bytes at `start`
    /// (`WHOLE_LOB` = whole-locator), made before its undo entry is
    /// recorded: a span in the version chain that names that entry, which
    /// holds the range's before-image, and is the write's conflict record.
    /// No-op for an unobserved write.
    fn displace_lob_span(&mut self, lob: LobRef, start: u64, len: u64) {
        let (t, at) = (self.current.txn, self.undo_mark());
        if t == 0 {
            return;
        }
        let chain = self.versions.lobs.entry(lob).or_default();
        chain.spans.insert(0, LobSpanVersion { start, len, by: t, at });
    }

    // ----- write-ahead logging ---------------------------------------------

    /// Attach a durable medium: from now on, write-ahead before apply.
    pub fn attach_wal(&mut self, medium: DurableMedium) {
        self.wal = Some(medium);
    }

    /// The attached medium, if durability is on.
    pub fn wal_medium(&self) -> Option<&DurableMedium> {
        self.wal.as_ref()
    }

    /// Append `rec` to the WAL under the driving transaction, which lets
    /// recovery replay whole-transaction groups in commit order. The record
    /// is copied only when durability is on.
    fn wal_append(&self, rec: &WalRecord) -> Result<()> {
        match &self.wal {
            Some(w) => w.append_txn(self.current.txn, rec.clone()),
            None => Ok(()),
        }
    }

    /// The write-ahead hook: log `rec`, then apply it. Every change the
    /// engine makes to a heap, an IOT or a LOB goes through here, except
    /// the vacuum's apply of a deferred heap delete, which was logged when
    /// the delete ran.
    fn log_apply(&mut self, rec: WalRecord) -> Result<Applied> {
        self.wal_append(&rec)?;
        self.segs.apply(rec)
    }

    fn wal_applied(&self) -> Result<()> {
        match &self.wal {
            Some(w) => w.applied(),
            None => Ok(()),
        }
    }

    /// Copy of every segment: the first image of an empty durable medium.
    /// Every later checkpoint folds WAL records into that image instead of
    /// copying the engine again.
    pub fn snapshot(&self) -> Segments {
        self.segs.clone()
    }

    /// Replace every segment from a recovered image. The buffer cache
    /// comes up cold, as it would after a real restart; the image holds
    /// committed state only, so no version chain comes with it.
    pub fn restore_snapshot(&mut self, segs: Segments) {
        self.cache.invalidate_all();
        self.segs = segs;
        self.versions = VersionStore::default();
        self.current = Snapshot::latest();
    }

    /// Replace the external file store wholesale (recovery installs the
    /// medium's crash-surviving file mirror).
    pub fn set_files(&mut self, files: FileStore) {
        self.files = files;
    }

    /// Recompute exact zone maps on every heap segment (end of recovery:
    /// redo leaves superset bounds, this tightens them). Chain-held
    /// displaced rows are re-widened in so the superset invariant covers
    /// versions a snapshot may still resolve to.
    pub fn rebuild_all_zone_maps(&mut self) {
        let segs: Vec<SegmentId> = self.segs.heaps.keys().copied().collect();
        for seg in segs {
            self.segs.heaps.get_mut(&seg).expect("listed above").rebuild_zone_maps();
            self.widen_zones_with_chains(seg);
        }
    }

    /// Widen a heap segment's zone maps with every chain-held displaced
    /// row image, so zone pruning stays sound (and therefore stays *on*)
    /// while the segment carries version chains: a page may be skipped
    /// only if no physical row *and no displaced version* on it can
    /// match. Widen-only — bounds never tighten here.
    fn widen_zones_with_chains(&mut self, seg: SegmentId) {
        let Some(h) = self.segs.heaps.get_mut(&seg) else { return };
        for (rid, row) in self.versions.displaced(seg, &self.undo) {
            h.widen_page_zone(rid.page, row);
        }
    }

    // ----- segment lifecycle ------------------------------------------------

    /// Create a heap segment. The WAL record carries the assigned segment
    /// id explicitly: commit-order replay may apply records in a different
    /// order than live execution, so allocations must not depend on replay
    /// order.
    pub fn create_heap(&mut self) -> Result<SegmentId> {
        let seg = SegmentId(self.segs.next_segment);
        self.log_apply(WalRecord::CreateHeapAt { seg })?;
        self.wal_applied()?;
        Ok(seg)
    }

    /// Create an index-organized segment keyed on the first `key_cols`
    /// row columns.
    pub fn create_iot(&mut self, key_cols: usize) -> Result<SegmentId> {
        let seg = SegmentId(self.segs.next_segment);
        self.log_apply(WalRecord::CreateIotAt { seg, key_cols })?;
        self.wal_applied()?;
        Ok(seg)
    }

    /// `seg`'s organization; `Err` for a missing segment, on which DDL
    /// logs nothing.
    fn org(&self, seg: SegmentId) -> Result<Org<'_>> {
        if let Some(h) = self.segs.heaps.get(&seg) {
            return Ok(Org::Heap(h));
        }
        let found = self.segs.iots.get(&seg).map(Org::Iot);
        found.ok_or_else(|| Error::Storage(format!("{seg}: no such segment")))
    }

    /// Drop any segment; its cached pages are discarded.
    pub fn drop_segment(&mut self, seg: SegmentId) -> Result<()> {
        self.org(seg)?;
        self.log_apply(WalRecord::DropSegment { seg })?;
        self.versions.forget_segment(seg);
        self.cache.discard_segment(seg);
        self.wal_applied()
    }

    /// Truncate a segment in place (non-transactional, like Oracle
    /// TRUNCATE: it is DDL and cannot be rolled back).
    pub fn truncate_segment(&mut self, seg: SegmentId) -> Result<()> {
        self.org(seg)?;
        self.log_apply(WalRecord::TruncateSegment { seg })?;
        self.versions.forget_segment(seg);
        self.cache.discard_segment(seg);
        self.wal_applied()
    }

    // ----- segment shape and cache ------------------------------------------

    /// Borrow a heap segment for white-box checks of its pages. Rows are
    /// read through the snapshot reads below.
    pub fn heap(&self, seg: SegmentId) -> Result<&HeapTable> {
        let found = self.segs.heaps.get(&seg);
        found.ok_or_else(|| Error::Storage(format!("{seg}: no such heap segment")))
    }

    /// Borrow an IOT segment for its tree shape (`height`, the key-probe
    /// cost input). Rows are read through the snapshot reads below.
    pub fn iot(&self, seg: SegmentId) -> Result<&IndexOrganizedTable> {
        let found = self.segs.iots.get(&seg);
        found.ok_or_else(|| Error::Storage(format!("{seg}: no such IOT segment")))
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
        self.segs.heaps.get(&seg).is_some_and(|h| h.zone_excludes(page, col, lo, hi))
    }

    /// Snapshot of cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ----- rows: one surface over heaps and IOTs ----------------------------
    //
    // Heap or IOT is this engine's business: the six calls below dispatch
    // once on the segment's kind, to a heap body inline or an IOT helper.

    /// Insert `row` and return its rowid: an IOT's logical rowid, or the
    /// heap slot the heap peeks — the WAL record names it, so commit-order
    /// replay reproduces live placement exactly.
    pub fn insert(&mut self, seg: SegmentId, row: Row) -> Result<RowId> {
        let Org::Heap(h) = self.org(seg)? else { return self.iot_insert(seg, row) };
        let rid = h.peek_insert_rid(&row);
        self.log_apply(WalRecord::HeapInsertAt { seg, rid, row })?;
        self.cache.write((seg, rid.page));
        let t = self.current.txn;
        self.versions.edit(seg, RowKey::Rid(rid), t, |c| c.write(t, None, false));
        self.record(UndoOp::Apply(WalRecord::HeapDelete { seg, rid }));
        self.wal_applied()?;
        Ok(rid)
    }

    /// Replace the row at `rid`, read as `old`, with `new`; returns the
    /// row's rowid after the update, new only when an IOT key changed (a
    /// delete plus an insert). An IOT key comes from `old`, never from an
    /// ordinal: a row another transaction deleted has none left, yet a
    /// write of its key must still lose first-writer-wins. Under a
    /// transaction the displaced image is pushed onto the row's chain.
    pub fn update(&mut self, seg: SegmentId, rid: RowId, old: &[Value], new: Row) -> Result<RowId> {
        let Org::Iot(iot) = self.org(seg)? else {
            self.check_write(seg, RowKey::Rid(rid))?;
            let displaced = self.log_apply(WalRecord::HeapUpdate { seg, rid, row: new })?.old_row();
            self.cache.write((seg, rid.page));
            let (t, at) = (self.current.txn, self.undo_mark());
            self.versions.edit(seg, RowKey::Rid(rid), t, |c| c.write(t, Some((at, 0)), false));
            self.record(UndoOp::Apply(WalRecord::HeapUpdate { seg, rid, row: displaced }));
            self.wal_applied()?;
            return Ok(rid);
        };
        let key = Key(key_of(old, iot.key_cols()).to_vec());
        if key.0 != key_of(&new, iot.key_cols()) {
            self.iot_delete(seg, &key)?;
            return self.iot_insert(seg, new);
        }
        // The key stays: replace the row under its ordinal.
        self.check_write(seg, RowKey::Key(&key))?;
        let ord = iot.ordinal_of(&key).unwrap_or(iot.peek_next_ord());
        let Applied { row: displaced, charge, .. } =
            self.log_apply(WalRecord::IotUpsertOrd { seg, row: new, ord })?;
        let leaf = self.iot_leaf_page_for(seg, &key);
        self.charge_iot(seg, charge, leaf);
        let (t, at) = (self.current.txn, self.undo_mark());
        let version = displaced.as_ref().map(|(_, ord)| (at, *ord));
        self.versions.edit(seg, RowKey::Key(&key), t, |c| c.write(t, version, false));
        self.record(UndoOp::Apply(match displaced {
            Some((row, ord)) => WalRecord::IotUpsertOrd { seg, row, ord },
            None => WalRecord::IotDelete { seg, key },
        }));
        self.wal_applied()?;
        Ok(Self::ord_to_rid(seg, ord))
    }

    /// Delete the row at `rid`, read as `old`, and return the image removed
    /// (`old` when an IOT held nothing under its key any more). An IOT row
    /// is deleted by `old`'s key, as [`Self::update`] takes it. A heap
    /// delete under a transaction is *deferred*: the chain marks the
    /// in-place version dead and the slot survives until vacuum, so the
    /// rowid is never recycled while a snapshot can still see the row.
    /// (Replay applies the delete at its commit — by then it is durable and
    /// unconditional.)
    pub fn delete(&mut self, seg: SegmentId, rid: RowId, old: &[Value]) -> Result<Row> {
        if let Org::Iot(iot) = self.org(seg)? {
            let key = Key(key_of(old, iot.key_cols()).to_vec());
            return Ok(self.iot_delete(seg, &key)?.unwrap_or_else(|| old.to_vec()));
        }
        self.check_write(seg, RowKey::Rid(rid))?;
        let t = self.current.txn;
        let rec = WalRecord::HeapDelete { seg, rid };
        let old = if t == 0 {
            let old = self.log_apply(rec)?.old_row();
            // A delete that emptied the page rebuilt its zone entry
            // exactly; re-cover chain-held displaced rows.
            self.widen_zones_with_chains(seg);
            old
        } else {
            // Logged now, applied by the vacuum pass: one of the two
            // records the engine logs without applying. Validate first —
            // replay applies the delete unconditionally, so a record must
            // only exist for a delete that succeeds live.
            let old = self.heap(seg)?.fetch(rid)?.clone();
            if self.versions.chain(seg, RowKey::Rid(rid)).is_some_and(|c| c.dead.is_some()) {
                return Err(Error::Storage(format!("{rid}: row already deleted")));
            }
            self.wal_append(&rec)?;
            self.versions.edit(seg, RowKey::Rid(rid), t, |c| c.dead = Some(t));
            old
        };
        self.cache.write((seg, rid.page));
        self.record(UndoOp::Apply(WalRecord::HeapInsertAt { seg, rid, row: old.clone() }));
        self.wal_applied()?;
        Ok(old)
    }

    /// The one rowid join: the rows at `rids` visible under `snap`, aligned
    /// with the input (`None`: nothing visible there), borrowed. Cartridge
    /// postings are not versioned, so a domain scan's visibility is this.
    pub fn fetch<'a>(
        &'a self,
        seg: SegmentId,
        rids: &[RowId],
        snap: &Snapshot,
    ) -> Result<Vec<Option<&'a Row>>> {
        match self.org(seg)? {
            Org::Heap(h) => self.heap_fetch_multi(h, rids, snap),
            Org::Iot(t) => Ok(self.iot_fetch_multi(t, rids, snap)),
        }
    }

    /// The segment's physical row count: what every snapshot sees while
    /// [`Self::segment_settled`] holds.
    pub fn row_count(&self, seg: SegmentId) -> Result<usize> {
        Ok(match self.org(seg)? {
            Org::Heap(h) => h.row_count(),
            Org::Iot(t) => t.row_count(),
        })
    }

    /// The pages a heap has allocated, or an IOT's modeled leaf pages: the
    /// full-scan cost input.
    pub fn page_count(&self, seg: SegmentId) -> Result<usize> {
        Ok(match self.org(seg)? {
            Org::Heap(h) => h.page_count(),
            Org::Iot(t) => t.page_count(),
        })
    }

    // ----- IOT helpers ---------------------------------------------------------

    fn charge_iot(&self, seg: SegmentId, charge: IoCharge, base_page: u32) {
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
        let pages = self.segs.iots[&seg].page_count().max(1) as u64;
        (leaf_hash(seg, key) % pages) as u32
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
    /// the insert receives so commit-order replay reproduces logical rowids
    /// exactly; consequently the duplicate check runs *before* logging
    /// (replay applies ordinal-explicit records unconditionally).
    fn iot_insert(&mut self, seg: SegmentId, row: Row) -> Result<RowId> {
        let iot = self.iot(seg)?;
        let key = Key(key_of(&row, iot.key_cols()).to_vec());
        if iot.ordinal_of(&key).is_some() {
            return Err(Error::Constraint(format!("duplicate key {key} in IOT {seg}")));
        }
        let ord = iot.peek_next_ord();
        self.check_write(seg, RowKey::Key(&key))?;
        let charge = self.log_apply(WalRecord::IotInsertOrd { seg, row, ord })?.charge;
        let leaf = self.iot_leaf_page_for(seg, &key);
        self.charge_iot(seg, charge, leaf);
        let t = self.current.txn;
        self.versions.edit(seg, RowKey::Key(&key), t, |c| c.write(t, None, false));
        self.record(UndoOp::Apply(WalRecord::IotDelete { seg, key }));
        self.wal_applied()?;
        Ok(Self::ord_to_rid(seg, ord))
    }

    /// Delete by key from an IOT; returns the removed row if present.
    /// Public for B-tree index entries, which are deleted by key.
    pub fn iot_delete(&mut self, seg: SegmentId, key: &Key) -> Result<Option<Row>> {
        self.iot(seg)?;
        self.check_write(seg, RowKey::Key(key))?;
        // IOT deletes are physically immediate (ordinals are never reused,
        // so no rowid-recycling hazard); the removed row survives as a
        // ghost version in the chain for older snapshots.
        let Applied { row: removed, charge, .. } =
            self.log_apply(WalRecord::IotDelete { seg, key: key.clone() })?;
        let leaf = self.iot_leaf_page_for(seg, key);
        self.charge_iot(seg, charge, leaf);
        let (t, at) = (self.current.txn, self.undo_mark());
        let old = removed.map(|(o, ord)| {
            self.versions.edit(seg, RowKey::Key(key), t, |c| c.write(t, Some((at, ord)), true));
            self.record(UndoOp::Apply(WalRecord::IotInsertOrd { seg, row: o.clone(), ord }));
            o
        });
        self.wal_applied()?;
        Ok(old)
    }

    // ----- snapshot reads ---------------------------------------------------
    //
    // The whole heap/IOT read surface, three functions, all pinned to a
    // `Snapshot`: the heap page walk, the IOT key range and the one rowid
    // join, [`Self::fetch`], which dispatches to a join per organization.

    /// The image of a physically present heap row visible under `snap`
    /// (`None` = invisible: written by a concurrent uncommitted/too-new
    /// transaction, or deleted for this snapshot). `chains` are the
    /// segment's, `None` when it has none: no per-row lookup then.
    fn heap_visible_image<'a>(
        &'a self,
        chains: Option<&'a HashMap<RowId, RowChain>>,
        rid: RowId,
        physical: &'a Row,
        snap: &Snapshot,
    ) -> Option<&'a Row> {
        match chains.and_then(|m| m.get(&rid)) {
            None => Some(physical),
            Some(chain) => {
                chain.resolve(&self.txns, &self.undo, Some(physical), snap).map(|(row, _)| row)
            }
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

    /// [`Self::fetch`] from heap `h`. Pages are visited in (page, slot)
    /// order so the buffer cache is charged **once per distinct page**
    /// instead of once per row. A rowid that addresses no physical row is
    /// an error unless a chain explains its absence.
    fn heap_fetch_multi<'a>(
        &'a self,
        h: &'a HeapTable,
        rids: &[RowId],
        snap: &Snapshot,
    ) -> Result<Vec<Option<&'a Row>>> {
        let seg = h.segment();
        let chains = self.versions.heap.get(&seg).filter(|m| !m.is_empty());
        let mut order: Vec<usize> = (0..rids.len()).collect();
        order.sort_by_key(|&i| (rids[i].page, rids[i].slot));
        let mut out: Vec<Option<&Row>> = vec![None; rids.len()];
        let mut last_page: Option<u32> = None;
        for i in order {
            let rid = rids[i];
            if last_page != Some(rid.page) {
                self.cache.read((seg, rid.page));
                last_page = Some(rid.page);
            }
            match h.fetch(rid) {
                Ok(row) => out[i] = self.heap_visible_image(chains, rid, row, snap),
                // A reclaimed slot that a chain still explains is just invisible.
                Err(e) if chains.is_none_or(|m| !m.contains_key(&rid)) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(out)
    }

    /// The one IOT read: up to `limit` rows visible under `snap` with keys
    /// inside `(lo, hi)`, in key order, each with the logical rowid it is
    /// (or was) reachable under. A merge of two key-ordered ranges over the
    /// same bounds — the segment's physical rows and its version chains —
    /// resolving each key through [`RowChain::resolve`]: a physical row
    /// without a chain is visible to everyone, a row with one may resolve
    /// to a displaced version or to nothing, and a chain without a row is
    /// a ghost some older snapshot still sees. A segment without chains is
    /// the same merge with an empty side. A point probe, a key-prefix
    /// range and one page of a resumable scan (`lo = Excluded(last key)`)
    /// are all this call; fewer than `limit` rows means the range ended.
    /// Charged [`IndexOrganizedTable::read_charge`] of the rows returned.
    pub fn iot_range<'a>(
        &'a self,
        seg: SegmentId,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
        limit: usize,
        snap: &Snapshot,
    ) -> Result<Vec<(RowId, &'a Key, &'a Row)>> {
        use std::cmp::Ordering::{Greater, Less};
        let iot = self.iot(seg)?;
        let admits = crate::iot::bounds_admit_keys(lo, hi);
        let mut rows = iot.range(lo, hi).peekable();
        let chained = self.versions.iot.get(&seg).filter(|_| admits).map(|m| m.range((lo, hi)));
        let mut chains = chained.into_iter().flatten().peekable();
        let mut out = Vec::new();
        while out.len() < limit {
            let order = match (rows.peek(), chains.peek()) {
                (None, None) => break,
                (Some(_), None) => Less,
                (None, Some(_)) => Greater,
                (Some((key, ..)), Some((chain_key, _))) => key.cmp(chain_key),
            };
            let row = if order == Greater { None } else { rows.next() };
            let chain = if order == Less { None } else { chains.next() };
            let ghost = chain.map(|(key, _)| (key, 0, None));
            let Some((key, ord, physical)) = row.map(|(k, o, r)| (k, o, Some(r))).or(ghost) else {
                break;
            };
            let visible = match chain {
                None => physical.map(|r| (r, None)),
                Some((_, c)) => c.resolve(&self.txns, &self.undo, physical, snap),
            };
            if let Some((r, ghost_ord)) = visible {
                out.push((Self::ord_to_rid(seg, ghost_ord.unwrap_or(ord)), key, r));
            }
        }
        let anchor = [lo, hi].into_iter().find_map(|b| match b {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        });
        let leaf = anchor.map_or(0, |k| self.iot_leaf_page_for(seg, k));
        self.charge_iot(seg, iot.read_charge(out.len()), leaf);
        Ok(out)
    }

    /// [`Self::fetch`] from IOT `iot`, by logical rowid. Ghost ordinals
    /// resolve through the chains. One height-probe read per rowid.
    fn iot_fetch_multi<'a>(
        &'a self,
        iot: &'a IndexOrganizedTable,
        rids: &[RowId],
        snap: &Snapshot,
    ) -> Vec<Option<&'a Row>> {
        let seg = iot.segment();
        let chains = self.versions.iot.get(&seg).filter(|m| !m.is_empty());
        let fetch = |rid: RowId| {
            let ord = Self::rid_to_ord(rid);
            let (found, charge) = iot.by_ordinal(ord);
            let Some((key, row)) = found else {
                self.charge_iot(seg, charge, 0);
                // Physically absent: the rowid may address a ghost version.
                let mut older = chains?.values().flat_map(|chain| &chain.older);
                let ghost = older.find(|v| v.ord == ord && v.visible(&self.txns, snap))?;
                return Some(ghost.row(&self.undo));
            };
            self.charge_iot(seg, charge, self.iot_leaf_page_for(seg, key));
            let Some(chain) = chains.and_then(|m| m.get(key)) else {
                return Some(row);
            };
            match chain.resolve(&self.txns, &self.undo, Some(row), snap)? {
                // A ghost at a different ordinal is addressed by a
                // different rowid — nothing visible *here*.
                (_, Some(g)) if g != ord => None,
                (r, _) => Some(r),
            }
        };
        rids.iter().map(|&rid| fetch(rid)).collect()
    }

    /// Pop the span that names `t`'s undo entry `at` (rollback support):
    /// the physical bytes are restored, so the span's patch must leave the
    /// chain too or readers would un-apply it twice.
    fn pop_lob_span(versions: &mut VersionStore, lob: LobRef, t: u64, at: usize) {
        if let Some(chain) = versions.lobs.get_mut(&lob) {
            if let Some(pos) = chain.spans.iter().position(|v| v.by == t && v.at == at) {
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

    fn charge_lob(&self, lob: LobRef, charge: IoCharge) {
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
        let lob = self.segs.lobs.peek_next_ref();
        self.log_apply(WalRecord::LobAllocateAt { lob })?;
        self.record(UndoOp::Apply(WalRecord::LobFree { lob }));
        // Stamp the new LOB with its creating transaction so snapshots
        // that cannot see the creator do not see its content either, and
        // a writer whose snapshot predates the creator's commit loses.
        let t = self.current.txn;
        if t != 0 {
            self.versions.lobs.insert(lob, LobChain { begin: t, spans: Vec::new() });
        }
        self.wal_applied()?;
        Ok(lob)
    }

    /// LOB length as `snap` sees it.
    pub fn lob_length(&self, lob: LobRef, snap: &Snapshot) -> Result<u64> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => self.segs.lobs.length(lob),
            LobImage::Patched(bytes) => Ok(bytes.len() as u64),
            LobImage::Absent => Ok(0),
        }
    }

    /// Read from a LOB at an offset, as `snap` sees it.
    pub fn lob_read(
        &self,
        lob: LobRef,
        offset: u64,
        len: usize,
        snap: &Snapshot,
    ) -> Result<Vec<u8>> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => {
                let (bytes, charge) = self.segs.lobs.read(lob, offset, len)?;
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

    /// The whole LOB as `snap` sees it, lent to `f`: the stored bytes
    /// where they lie, or the snapshot's reconstructed image.
    pub fn lob_read_all<T>(
        &self,
        lob: LobRef,
        snap: &Snapshot,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T> {
        match self.lob_image(lob, snap)? {
            LobImage::Current => {
                let (bytes, charge) = self.segs.lobs.read_all(lob)?;
                self.charge_lob(lob, charge);
                Ok(f(bytes))
            }
            LobImage::Patched(bytes) => {
                self.charge_lob_span(lob, 0, bytes.len());
                Ok(f(&bytes))
            }
            LobImage::Absent => Ok(f(&[])),
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
        let physical = self.segs.lobs.read_all(lob).map(|(b, _)| b).unwrap_or_default();
        Ok(mvcc::resolve_lob_image(&self.txns, &self.undo, chain, physical, snap))
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
        let cur = self.segs.lobs.length(lob)?;
        let start = offset.min(cur);
        let len = offset.saturating_add(bytes.len() as u64) - start;
        self.check_lob_write(lob, start, len)?;
        let end = start.saturating_add(len).min(cur);
        let old = if start < end {
            self.segs.lobs.read(lob, start, (end - start) as usize)?.0
        } else {
            Vec::new()
        };
        let rec = WalRecord::LobWrite { lob, offset, bytes: bytes.to_vec() };
        let charge = self.log_apply(rec)?.charge;
        self.displace_lob_span(lob, start, len);
        self.record(UndoOp::LobSpan(Box::new(LobSpan { lob, start, len, old })));
        self.charge_lob(lob, charge);
        self.wal_applied()
    }

    /// Append to a LOB; returns the offset written at. The WAL record is
    /// offset-explicit (peeked before apply) so commit-order replay places
    /// the bytes exactly where the live run did even when other
    /// transactions' appends interleaved.
    pub fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64> {
        let offset = self.segs.lobs.length(lob)?;
        let len = bytes.len() as u64;
        self.check_lob_write(lob, offset, len)?;
        let rec = WalRecord::LobAppendAt { lob, offset, bytes: bytes.to_vec() };
        let charge = self.log_apply(rec)?.charge;
        self.displace_lob_span(lob, offset, len);
        let span = LobSpan { lob, start: offset, len, old: Vec::new() };
        self.record(UndoOp::LobSpan(Box::new(span)));
        self.charge_lob(lob, charge);
        self.wal_applied()?;
        Ok(offset)
    }

    /// Replace a LOB's entire contents (a whole-locator operation: it
    /// conflicts with every concurrent write to the locator).
    pub fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()> {
        self.check_lob_write(lob, 0, WHOLE_LOB)?;
        let Applied { bytes: old, charge, .. } =
            self.log_apply(WalRecord::LobOverwrite { lob, bytes: bytes.to_vec() })?;
        self.displace_lob_span(lob, 0, WHOLE_LOB);
        self.record(UndoOp::Apply(WalRecord::LobRestore { lob, bytes: old }));
        self.charge_lob(lob, charge);
        self.wal_applied()
    }

    /// Free a LOB (whole-locator). The freed content is displaced into the
    /// version chain, so snapshots that predate the free still read it.
    pub fn lob_free(&mut self, lob: LobRef) -> Result<()> {
        self.check_lob_write(lob, 0, WHOLE_LOB)?;
        let old = self.log_apply(WalRecord::LobFree { lob })?.bytes;
        self.displace_lob_span(lob, 0, WHOLE_LOB);
        self.record(UndoOp::Apply(WalRecord::LobRestore { lob, bytes: old }));
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
        self.wal_append(&WalRecord::FileActivity { name: name.to_string() })?;
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
    /// Each undo entry becomes compensation records, logged and applied
    /// like forward work (`log_apply`): a statement rolled back inside a
    /// transaction that commits must replay on recovery exactly like
    /// forward work. An entry leaves the log only once its compensation is
    /// applied, so a compensation that fails stops the rollback with its
    /// error and every version still reads its image: state may be torn,
    /// and the caller reports a double fault (`Error::RollbackFailed`).
    pub fn rollback_to(&mut self, mark: usize) -> Result<()> {
        let t = self.current.txn;
        while let Some(at) = self.undo_mark().checked_sub(1).filter(|&at| at >= mark) {
            match self.undo[&t][at].clone() {
                UndoOp::Apply(rec) => self.compensate(t, at, rec)?,
                UndoOp::LobSpan(span) => self.compensate_span(t, at, *span)?,
            }
            self.undo.get_mut(&t).expect("the entry just compensated").pop();
        }
        Ok(())
    }

    /// Log and apply `t`'s compensation record `rec`, its undo entry `at`,
    /// and pop the chain version that entry holds the image of (an undone
    /// insert pops none: its row is gone again). A compensation on a
    /// segment dropped since does nothing.
    fn compensate(&mut self, t: u64, at: usize, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::HeapDelete { seg, rid } | WalRecord::HeapUpdate { seg, rid, .. } => {
                if self.segs.heaps.contains_key(&seg) {
                    let insert = matches!(rec, WalRecord::HeapDelete { .. });
                    let popped = (!insert).then_some(at);
                    self.log_apply(rec)?;
                    self.versions.edit(seg, RowKey::Rid(rid), t, |c| c.undo(t, popped));
                    if insert {
                        self.widen_zones_with_chains(seg);
                    }
                    self.cache.write((seg, rid.page));
                }
            }
            WalRecord::HeapInsertAt { seg, rid, .. } => {
                if !self.segs.heaps.contains_key(&seg) {
                    return Ok(());
                }
                let key = RowKey::Rid(rid);
                if self.versions.chain(seg, key).is_some_and(|c| c.dead == Some(t)) {
                    // A deferred delete: the row never left its slot,
                    // so only the dead mark goes. The compensation is
                    // logged but not applied, like the delete's own
                    // record: replay applies both, and ends where the
                    // live run does.
                    self.wal_append(&rec)?;
                    self.versions.edit(seg, key, t, |c| c.dead = None);
                } else {
                    // An unobserved delete: restore into the freed slot.
                    // The write lock is held from the delete to here, and
                    // later entries were undone first, so it is free.
                    self.log_apply(rec)?;
                }
                self.cache.write((seg, rid.page));
            }
            WalRecord::IotDelete { seg, ref key } => {
                if self.segs.iots.contains_key(&seg) {
                    let key = key.clone();
                    self.log_apply(rec)?;
                    self.versions.edit(seg, RowKey::Key(&key), t, |c| c.undo(t, None));
                }
            }
            WalRecord::IotUpsertOrd { seg, ref row, .. }
            | WalRecord::IotInsertOrd { seg, ref row, .. } => {
                // An upsert's compensation restores the replaced row, and an
                // insert's the deleted one, under its original ordinal, so
                // logical rowids held by secondary indexes stay valid.
                let Some(iot) = self.segs.iots.get(&seg) else { return Ok(()) };
                let key = Key(row[..iot.key_cols().min(row.len())].to_vec());
                self.log_apply(rec)?;
                self.versions.edit(seg, RowKey::Key(&key), t, |c| c.undo(t, Some(at)));
            }
            WalRecord::LobFree { lob } => {
                self.log_apply(rec)?;
                // The allocation never becomes visible; without this
                // the chain (begin = aborted txn) would linger forever.
                self.versions.lobs.remove(&lob);
            }
            WalRecord::LobRestore { lob, .. } => {
                self.log_apply(rec)?;
                Self::pop_lob_span(&mut self.versions, lob, t, at);
            }
            other => unreachable!("{other:?} is not a compensation record"),
        }
        Ok(())
    }

    /// Take back `t`'s LOB span write, its undo entry `at`. Offset-stable:
    /// restore the before-image in place, then truncate (if this write was
    /// the end of the LOB) or 0xFF-hole-fill the part the write extended —
    /// never shift other writers' bytes.
    fn compensate_span(&mut self, t: u64, at: usize, span: LobSpan) -> Result<()> {
        let LobSpan { lob, start, len, old } = span;
        let cur = self.segs.lobs.length(lob).unwrap_or(0);
        let old_end = start + old.len() as u64;
        let write_end = start.saturating_add(len);
        if !old.is_empty() {
            self.log_apply(WalRecord::LobWrite { lob, offset: start, bytes: old })?;
        }
        if write_end >= cur {
            if old_end < cur {
                self.log_apply(WalRecord::LobTruncate { lob, len: old_end })?;
            }
        } else if write_end > old_end {
            let bytes = vec![0xFF; (write_end - old_end) as usize];
            self.log_apply(WalRecord::LobWrite { lob, offset: old_end, bytes })?;
        }
        Self::pop_lob_span(&mut self.versions, lob, t, at);
        Ok(())
    }
}

/// The key of an IOT row: its first `key_cols` columns.
fn key_of(row: &[Value], key_cols: usize) -> &[Value] {
    &row[..key_cols.min(row.len())]
}

/// The hash an IOT key's leaf page derives from: the segment, then the
/// key's display text the way hashing a `str` feeds it (its bytes, then
/// `0xff`), streamed through `fmt::Write` instead of built into a `String`
/// on every IOT read and insert.
fn leaf_hash(seg: SegmentId, key: &Key) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write as _;
    use std::hash::{Hash, Hasher};
    struct Feed<'a>(&'a mut DefaultHasher);
    impl std::fmt::Write for Feed<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = DefaultHasher::new();
    seg.0.hash(&mut h);
    let _ = write!(Feed(&mut h), "{key}");
    h.write_u8(0xff);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_common::Value;
    use Bound::{Included, Unbounded};

    /// Leaf pages — and with them every logical and physical read count —
    /// stay what hashing the key's `String` gave.
    #[test]
    fn leaf_hash_matches_hashing_the_key_text() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let old = |seg: SegmentId, key: &Key| {
            let mut h = DefaultHasher::new();
            seg.0.hash(&mut h);
            format!("{key}").hash(&mut h);
            h.finish()
        };
        let part = |i: i64| match i % 5 {
            0 => Value::from(format!("token{}", i * 7)),
            1 => Value::Integer(i * 31 - 500),
            2 => Value::Number(i as f64 / 8.0),
            3 => Value::RowId(RowId::new(i as u32, (i * 3) as u32, (i % 700) as u16)),
            _ => Value::Null,
        };
        for i in 0..10_000i64 {
            let key = Key((0..1 + i % 3).map(|j| part(i + j * 13)).collect());
            let seg = SegmentId((i % 9) as u32);
            assert_eq!(leaf_hash(seg, &key), old(seg, &key), "key {key}");
        }
    }

    fn row(i: i64) -> Row {
        vec![Value::Integer(i)]
    }

    #[test]
    fn heap_rollback_restores_all_three_ops() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_heap().unwrap();
        let keep = e.insert(seg, row(1)).unwrap();
        let doomed = e.insert(seg, row(2)).unwrap();

        let mark = e.undo_mark();
        let added = e.insert(seg, row(3)).unwrap();
        assert_eq!(e.update(seg, keep, &row(1), row(100)).unwrap(), keep);
        assert_eq!(e.delete(seg, doomed, &row(2)).unwrap(), row(2));

        e.rollback_to(mark).unwrap();
        let fetched = e.fetch(seg, &[keep, doomed], &Snapshot::latest()).unwrap();
        assert_eq!(fetched, vec![Some(&row(1)), Some(&row(2))]);
        assert!(e.fetch(seg, &[added], &Snapshot::latest()).is_err());
        assert_eq!(e.row_count(seg).unwrap(), 2);
    }

    #[test]
    fn iot_rollback_restores() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_iot(1).unwrap();
        let old = vec![Value::Integer(1), Value::from("old")];
        let rid = e.insert(seg, old.clone()).unwrap();

        let mark = e.undo_mark();
        e.insert(seg, vec![Value::Integer(2), Value::from("new")]).unwrap();
        let changed = vec![Value::Integer(1), Value::from("changed")];
        assert_eq!(e.update(seg, rid, &old, changed.clone()).unwrap(), rid);
        assert_eq!(e.delete(seg, rid, &changed).unwrap(), changed);

        e.rollback_to(mark).unwrap();
        let get = |k: i64| {
            let key = Key::single(Value::Integer(k));
            let got = e.iot_range(seg, Included(&key), Included(&key), 1, &Snapshot::latest());
            got.unwrap().into_iter().map(|(_, _, r)| r.clone()).collect::<Vec<_>>()
        };
        assert_eq!(get(1), vec![vec![Value::Integer(1), Value::from("old")]]);
        assert!(get(2).is_empty());
    }

    /// A duplicate IOT key is refused before anything is logged or
    /// applied: the apply itself replaces whatever holds the key.
    #[test]
    fn iot_insert_refuses_a_duplicate_key_before_logging() {
        let mut e = StorageEngine::new(64);
        let medium = DurableMedium::new();
        e.attach_wal(medium.clone());
        let seg = e.create_iot(1).unwrap();
        e.insert(seg, vec![Value::Integer(1), Value::from("first")]).unwrap();
        let logged = medium.stats().records_appended;
        let dup = e.insert(seg, vec![Value::Integer(1), Value::from("second")]);
        assert!(matches!(dup, Err(Error::Constraint(_))), "{dup:?}");
        assert_eq!(medium.stats().records_appended, logged, "nothing logged");
        let key = Key::single(Value::Integer(1));
        let got = e.iot_range(seg, Included(&key), Included(&key), 2, &Snapshot::latest());
        assert_eq!(got.unwrap()[0].2[1], Value::from("first"));
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
        assert_eq!(e.lob_read_all(keep, &Snapshot::latest(), <[u8]>::to_vec).unwrap(), b"stable");
        assert!(
            e.lob_read_all(temp, &Snapshot::latest(), <[u8]>::to_vec).is_err(),
            "rolled-back allocation is gone"
        );
    }

    #[test]
    fn external_files_survive_rollback() {
        let mut e = StorageEngine::new(64);
        let mark = e.undo_mark();
        let seg = e.create_heap().unwrap();
        e.insert(seg, row(1)).unwrap();
        e.files().create("external.idx");
        e.files().write("external.idx", b"orphaned index entry").unwrap();

        e.rollback_to(mark).unwrap();
        // Database state rolled back…
        assert_eq!(e.row_count(seg).unwrap(), 0);
        // …but the external file kept the now-inconsistent data (§5).
        assert_eq!(e.files().read("external.idx").unwrap(), b"orphaned index entry");
    }

    #[test]
    fn drop_segment_discards_cache_pages() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_heap().unwrap();
        e.insert(seg, row(1)).unwrap();
        assert!(e.cache().resident_pages() > 0);
        e.drop_segment(seg).unwrap();
        assert_eq!(e.cache().resident_pages(), 0);
        assert!(e.row_count(seg).is_err());
    }

    #[test]
    fn truncate_works_for_both_kinds() {
        let mut e = StorageEngine::new(64);
        let h = e.create_heap().unwrap();
        let t = e.create_iot(1).unwrap();
        e.insert(h, row(1)).unwrap();
        e.insert(t, row(1)).unwrap();
        e.truncate_segment(h).unwrap();
        e.truncate_segment(t).unwrap();
        assert_eq!((e.row_count(h).unwrap(), e.row_count(t).unwrap()), (0, 0));
    }

    #[test]
    fn iot_logical_rowids_survive_update_and_rollback() {
        let mut e = StorageEngine::new(64);
        let seg = e.create_iot(1).unwrap();
        let v1 = vec![Value::Integer(7), Value::from("v1")];
        let rid = e.insert(seg, v1.clone()).unwrap();
        let latest = Snapshot::latest();
        let fetch = |e: &StorageEngine| e.fetch(seg, &[rid], &latest).unwrap().remove(0).cloned();
        assert_eq!(fetch(&e).unwrap()[1], Value::from("v1"));

        // An update that keeps the key keeps the logical rowid.
        let v2 = vec![Value::Integer(7), Value::from("v2")];
        assert_eq!(e.update(seg, rid, &v1, v2.clone()).unwrap(), rid);
        let key = Key::single(Value::Integer(7));
        let range = |e: &StorageEngine, lo, hi| -> Vec<(RowId, Row)> {
            let got = e.iot_range(seg, lo, hi, usize::MAX, &latest).unwrap();
            got.into_iter().map(|(rid, _, r)| (rid, r.clone())).collect()
        };
        let by_key = range(&e, Included(&key), Included(&key));
        assert_eq!(by_key, vec![(rid, vec![Value::Integer(7), Value::from("v2")])]);

        // Delete + rollback restores the row under the same rowid.
        let mark = e.undo_mark();
        e.delete(seg, rid, &v2).unwrap();
        assert!(fetch(&e).is_none());
        e.rollback_to(mark).unwrap();
        assert_eq!(fetch(&e).unwrap()[1], Value::from("v2"));

        // Range scan hands back the same rowids.
        let pairs = range(&e, Unbounded, Unbounded);
        assert_eq!(pairs, vec![(rid, v2.clone())]);

        // An update that changes the key moves the row to a new rowid.
        let v3 = vec![Value::Integer(8), Value::from("v3")];
        let moved = e.update(seg, rid, &v2, v3.clone()).unwrap();
        assert_ne!(moved, rid);
        assert!(fetch(&e).is_none());
        assert_eq!(range(&e, Unbounded, Unbounded), vec![(moved, v3)]);
    }

    /// The physical row count is every snapshot's answer exactly when the
    /// segment's chains are settled at the vacuum horizon — whether or not
    /// a vacuum has folded them away yet.
    #[test]
    fn physical_count_is_exact_once_chains_settle() {
        let mut e = StorageEngine::new(64);
        let heap = e.create_heap().unwrap();
        let iot = e.create_iot(1).unwrap();
        let kept = e.insert(heap, row(1)).unwrap();
        e.insert(iot, row(1)).unwrap();
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();
        let write = |e: &mut StorageEngine, f: &dyn Fn(&mut StorageEngine)| {
            let t = txns.begin();
            e.set_current_txn(t);
            f(e);
            e.set_current_txn(Snapshot::latest());
            t
        };

        let reader = txns.begin();
        let writer = write(&mut e, &|e| {
            e.update(heap, kept, &row(1), row(2)).unwrap();
            e.insert(iot, row(2)).unwrap();
        });
        assert!(!e.segment_settled(heap) && !e.segment_settled(iot), "writer in flight");
        e.commit_txn(writer);
        assert!(!e.segment_settled(iot), "the reader's snapshot predates the commit");
        let seen = e.iot_range(iot, Unbounded, Unbounded, 9, &reader).unwrap().len();
        assert_eq!((seen, e.row_count(iot).unwrap()), (1, 2));
        e.commit_txn(reader);
        assert!(e.segment_settled(heap) && e.segment_settled(iot), "settled, not yet vacuumed");
        assert_eq!(e.mvcc_segment_stats().len(), 2, "the chains are still there");

        // A committed heap delete leaves its row in the slot until the
        // vacuum reclaims it, so the physical count is not exact before.
        let deleter = write(&mut e, &|e| {
            e.delete(heap, kept, &row(2)).unwrap();
        });
        e.commit_txn(deleter);
        assert!(!e.segment_settled(heap));
        e.vacuum();
        assert!(e.segment_settled(heap) && e.segment_settled(iot));
        assert_eq!(e.row_count(heap).unwrap(), 0);
    }

    /// A write a savepoint rollback took back is no write: a transaction
    /// that reuses its rowid or key does not lose first-writer-wins to the
    /// one that rolled it back and then committed.
    #[test]
    fn a_rolled_back_write_wins_no_conflict() {
        let mut e = StorageEngine::new(64);
        let heap = e.create_heap().unwrap();
        let iot = e.create_iot(1).unwrap();
        let txns = e.txn_manager();
        let (a, b) = (txns.begin(), txns.begin());
        e.set_current_txn(a);
        let mark = e.undo_mark();
        let rid = e.insert(heap, row(1)).unwrap();
        e.insert(iot, row(1)).unwrap();
        e.rollback_to(mark).unwrap();
        e.set_current_txn(b);
        assert_eq!(e.insert(heap, row(2)).unwrap(), rid, "the freed slot is reused");
        e.insert(iot, row(1)).unwrap();
        e.commit_txn(a);
        e.update(heap, rid, &row(2), row(3)).expect("a wrote nothing b must wait for");
        e.commit_txn(b);
    }

    /// The winner and the label of a write that lost first-writer-wins.
    fn lost<T: std::fmt::Debug>(r: Result<T>) -> (u64, String) {
        match r {
            Err(Error::WriteConflict { other_txn, key, .. }) => (other_txn, key),
            other => panic!("expected a write conflict, got {other:?}"),
        }
    }

    /// `f` run as transaction `snap`, back on transaction 0 after.
    fn as_txn<T>(
        e: &mut StorageEngine,
        snap: Snapshot,
        f: impl FnOnce(&mut StorageEngine) -> T,
    ) -> T {
        e.set_current_txn(snap);
        let out = f(e);
        e.set_current_txn(Snapshot::latest());
        out
    }

    /// First-writer-wins is decided when the second write happens, from
    /// the row's chain: a second writer loses to the uncommitted first
    /// one, and — with conflict checks on — to one that committed after
    /// its snapshot; the conflict names the winner and the row.
    #[test]
    fn second_writer_loses_at_write_time() {
        let kv = |k: i64, v: i64| vec![Value::Integer(k), Value::Integer(v)];
        let mut e = StorageEngine::new(64);
        let heap = e.create_heap().unwrap();
        let iot = e.create_iot(1).unwrap();
        let rid = e.insert(heap, kv(1, 0)).unwrap();
        let irid = e.insert(iot, kv(1, 0)).unwrap();
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();
        let (a, b) = (txns.begin(), txns.begin());
        as_txn(&mut e, a, |e| {
            e.update(heap, rid, &kv(1, 0), kv(1, 1)).unwrap();
            e.update(iot, irid, &kv(1, 0), kv(1, 1)).unwrap();
        });
        // b writes the image its snapshot reads, as a statement would.
        let (h, i) = as_txn(&mut e, b, |e| {
            let heap_write = lost(e.update(heap, rid, &kv(1, 0), kv(1, 2)));
            (heap_write, lost(e.update(iot, irid, &kv(1, 0), kv(1, 2))))
        });
        assert_eq!(h.0, a.txn, "the uncommitted winner is named");
        assert!(h.1.starts_with("heap rowid"), "{}", h.1);
        assert_eq!(i.0, a.txn);
        assert!(i.1.starts_with("iot key"), "{}", i.1);

        // a commits: b's snapshot predates it, so b still loses, to a.
        let csn = e.commit_txn(a);
        assert_eq!(txns.committed_csn(a.txn), Some(csn));
        let (h, i) = as_txn(&mut e, b, |e| {
            (lost(e.delete(heap, rid, &kv(1, 0))), lost(e.delete(iot, irid, &kv(1, 0))))
        });
        assert_eq!((h.0, i.0), (a.txn, a.txn), "a write committed after b's snapshot wins");
        assert!(h.1.starts_with("heap rowid") && i.1.starts_with("iot key"));

        // With checks off the same write goes through (a lost update).
        e.set_conflict_checks(false);
        as_txn(&mut e, b, |e| {
            e.update(heap, rid, &kv(1, 0), kv(1, 2)).expect("checks off: no committed conflict");
            e.update(iot, irid, &kv(1, 0), kv(1, 2)).expect("checks off: no committed conflict");
        });
        e.commit_txn(b);
    }

    /// LOB conflicts are byte-range granular: disjoint spans both commit,
    /// an overlapping span loses to the writer that committed it, a
    /// whole-LOB operation contends with every span, and another locator
    /// never contends.
    #[test]
    fn lob_span_conflicts_are_range_granular() {
        let mut e = StorageEngine::new(64);
        let (lob, other) = (e.lob_allocate().unwrap(), e.lob_allocate().unwrap());
        e.lob_write(lob, 0, &[0; 120]).unwrap();
        e.lob_write(other, 0, &[0; 16]).unwrap();
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();

        let (a, b) = (txns.begin(), txns.begin());
        as_txn(&mut e, a, |e| e.lob_write(lob, 0, &[1; 40])).unwrap();
        as_txn(&mut e, b, |e| e.lob_write(lob, 40, &[2; 40])).expect("disjoint spans");
        e.commit_txn(a);
        e.commit_txn(b);

        // c and d share a snapshot; c writes [72, 80) and commits first.
        let (c, d) = (txns.begin(), txns.begin());
        as_txn(&mut e, c, |e| e.lob_write(lob, 72, &[3; 8])).unwrap();
        e.commit_txn(c);
        let (winner, what) = lost(as_txn(&mut e, d, |e| e.lob_write(lob, 76, &[4; 8])));
        assert_eq!(winner, c.txn, "the overlapping span loses to its committer");
        assert!(what.ends_with("bytes [76, 84)"), "{what}");
        as_txn(&mut e, d, |e| e.lob_write(lob, 80, &[4; 8])).expect("[80, 88) overlaps nothing");
        e.commit_txn(d);

        // A whole-LOB overwrite committed after f's snapshot contends with
        // any span f writes; another locator is untouched.
        let (g, f) = (txns.begin(), txns.begin());
        as_txn(&mut e, g, |e| e.lob_overwrite(lob, b"fresh")).unwrap();
        let (winner, what) = lost(as_txn(&mut e, f, |e| e.lob_write(lob, 3, &[5; 2])));
        assert_eq!(winner, g.txn, "an uncommitted whole-LOB write holds every span");
        assert!(what.ends_with("bytes [3, 5)"), "{what}");
        e.commit_txn(g);
        let (winner, what) = lost(as_txn(&mut e, f, |e| e.lob_write(lob, 2, &[5; 1])));
        assert_eq!(winner, g.txn, "a committed whole-LOB write contends with every span");
        assert!(what.ends_with("bytes [2, 3)"), "{what}");
        let (winner, what) = lost(as_txn(&mut e, f, |e| e.lob_free(lob)));
        assert_eq!(winner, g.txn);
        assert!(what.ends_with("(whole)"), "{what}");
        as_txn(&mut e, f, |e| e.lob_write(other, 0, &[6; 16])).expect("another locator");
        e.commit_txn(f);
    }

    /// A LOB allocated by a transaction that committed after a snapshot
    /// was taken is one that snapshot may not write.
    #[test]
    fn a_lob_allocated_after_the_snapshot_loses() {
        let mut e = StorageEngine::new(64);
        let txns = e.txn_manager();
        let (old, a) = (txns.begin(), txns.begin());
        let lob = as_txn(&mut e, a, |e| e.lob_allocate()).unwrap();
        let (winner, what) = lost(as_txn(&mut e, old, |e| e.lob_append(lob, b"x")));
        assert_eq!(winner, a.txn, "the uncommitted allocator wins");
        assert!(what.ends_with("(whole)"), "{what}");
        e.commit_txn(a);
        let (winner, _) = lost(as_txn(&mut e, old, |e| e.lob_append(lob, b"x")));
        assert_eq!(winner, a.txn, "the allocation committed after the snapshot");
        let late = txns.begin();
        as_txn(&mut e, late, |e| e.lob_append(lob, b"x")).expect("a later snapshot sees it");
    }

    /// The committed half of the rule lives in the chain, so it lasts as
    /// long as a snapshot that predates the winner's commit pins the
    /// vacuum horizon, and goes with the chain once the horizon passes it.
    #[test]
    fn a_committed_conflict_lasts_while_its_snapshot_pins_the_horizon() {
        let mut e = StorageEngine::new(64);
        let heap = e.create_heap().unwrap();
        let rid = e.insert(heap, row(1)).unwrap();
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();
        let (old, a) = (txns.begin(), txns.begin());
        as_txn(&mut e, a, |e| e.update(heap, rid, &row(1), row(2))).unwrap();
        e.commit_txn(a);
        let fresh = txns.begin();
        e.vacuum();
        assert_eq!(e.vacuum_horizon(), old.high, "old pins the horizon");
        let (winner, _) = lost(as_txn(&mut e, old, |e| e.update(heap, rid, &row(1), row(3))));
        assert_eq!(winner, a.txn, "the conflict survives a vacuum pass");
        e.rollback_txn(old).unwrap();
        e.vacuum();
        assert!(e.mvcc_segment_stats().is_empty(), "the horizon passed a: its chain is gone");
        assert_eq!(txns.status(a.txn), None, "and so is a's status");
        as_txn(&mut e, fresh, |e| e.update(heap, rid, &row(2), row(3))).expect("no conflict left");
        e.commit_txn(fresh);
    }

    /// A versioned write keeps its before-image once, in its undo entry:
    /// an older snapshot reads the entry's own row — of a heap update, an
    /// IOT replace and an IOT delete's ghost — and a LOB span names the
    /// entry that holds its bytes.
    #[test]
    fn an_older_snapshot_reads_the_undo_entry_itself() {
        let kv = |k: i64, v: i64| vec![Value::Integer(k), Value::Integer(v)];
        let mut e = StorageEngine::new(64);
        let (heap, iot) = (e.create_heap().unwrap(), e.create_iot(1).unwrap());
        let lob = e.lob_allocate().unwrap();
        let rid = e.insert(heap, kv(1, 0)).unwrap();
        let (one, two) = (e.insert(iot, kv(1, 0)).unwrap(), e.insert(iot, kv(2, 0)).unwrap());
        e.lob_write(lob, 0, b"before").unwrap();
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();
        let (reader, w) = (txns.begin(), txns.begin());
        as_txn(&mut e, w, |e| {
            e.update(heap, rid, &kv(1, 0), kv(1, 1)).unwrap();
            e.update(iot, one, &kv(1, 0), kv(1, 1)).unwrap();
            e.delete(iot, two, &kv(2, 0)).unwrap();
            e.lob_write(lob, 1, b"XY").unwrap();
        });
        let entry = |at: usize| &e.undo[&w.txn][at];
        let heap_row = e.fetch(heap, &[rid], &reader).unwrap()[0].unwrap();
        assert!(std::ptr::eq(heap_row, entry(0).row()), "heap update");
        let rows = e.iot_range(iot, Unbounded, Unbounded, 9, &reader).unwrap();
        assert!(std::ptr::eq(rows[0].2, entry(1).row()), "IOT replace");
        assert!(std::ptr::eq(rows[1].2, entry(2).row()), "IOT delete");
        let span = &e.versions.lobs[&lob].spans[0];
        assert_eq!((span.by, span.at, entry(3).bytes()), (w.txn, 3, &b"ef"[..]));
        assert_eq!(e.lob_read_all(lob, &reader, <[u8]>::to_vec).unwrap(), b"before");
    }

    /// A committed versioned transaction's undo log lives while a chain
    /// version reads it — while a reader pins the horizon — and goes with
    /// the vacuum pass after that reader ends. An aborted transaction and
    /// transaction 0 leave no log.
    #[test]
    fn a_log_outlives_its_transaction_only_while_a_version_reads_it() {
        let mut e = StorageEngine::new(64);
        let heap = e.create_heap().unwrap();
        let rid = e.insert(heap, row(1)).unwrap();
        assert!(e.undo.contains_key(&0));
        e.commit_txn(Snapshot::latest());
        assert!(e.undo.is_empty(), "transaction 0's log ends with it");
        let txns = e.txn_manager();
        let (reader, w) = (txns.begin(), txns.begin());
        as_txn(&mut e, w, |e| e.update(heap, rid, &row(1), row(2))).unwrap();
        e.commit_txn(w);
        e.vacuum();
        assert!(e.undo.contains_key(&w.txn), "the reader still reads w's before-image");
        assert_eq!(e.fetch(heap, &[rid], &reader).unwrap(), vec![Some(&row(1))]);
        e.commit_txn(reader);
        e.vacuum();
        assert!(e.undo.is_empty(), "no version reads w's log any more");

        let (reader, aborted) = (txns.begin(), txns.begin());
        as_txn(&mut e, aborted, |e| e.update(heap, rid, &row(2), row(3))).unwrap();
        e.rollback_txn(aborted).unwrap();
        assert!(e.undo.is_empty(), "a rolled-back transaction leaves no log");
        e.commit_txn(reader);
    }

    /// An undo entry is one WAL record wide, 48 bytes. `CREATE INDEX` logs
    /// one entry per index row, so a wider entry costs every index build
    /// memory: the LOB span entry is boxed because unboxed it made every
    /// entry 56 bytes.
    #[test]
    fn an_undo_entry_is_one_wal_record_wide() {
        assert_eq!(std::mem::size_of::<UndoOp>(), std::mem::size_of::<WalRecord>());
        assert_eq!(std::mem::size_of::<UndoOp>(), 48);
    }

    #[test]
    fn repeated_point_probes_hit_cache() {
        let mut e = StorageEngine::new(1024);
        let seg = e.create_iot(1).unwrap();
        for i in 0..100 {
            e.insert(seg, vec![Value::Integer(i), Value::from("v")]).unwrap();
        }
        e.cache().reset_stats();
        let key = Key::single(Value::Integer(42));
        e.iot_range(seg, Included(&key), Included(&key), 1, &Snapshot::latest()).unwrap();
        let cold = e.cache_stats();
        e.iot_range(seg, Included(&key), Included(&key), 1, &Snapshot::latest()).unwrap();
        let warm = e.cache_stats().since(&cold);
        assert_eq!(warm.physical_reads, 0, "second probe should be fully cached");
    }
}
