//! Multi-version concurrency control: transaction manager + version store.
//!
//! The paper assumes the kernel provides transactions underneath
//! ODCIIndex maintenance (§2.4.1 invokes maintenance routines "as part of
//! the statement"); this module supplies the kernel half for a concurrent
//! server. The design is an *overlay* MVCC:
//!
//! - the **newest** version of every row stays physically in place in its
//!   heap page / IOT node, exactly where the single-session engine put it;
//! - a row touched by an in-flight or recently committed transaction gains
//!   a [`RowChain`] — one type for heap rows (by rowid) and IOT rows (by
//!   key) — carrying the stamps of the in-place version plus the displaced
//!   older versions. A displaced version holds no image: it names the entry
//!   of its displacer's undo log that restores it, and reads the image
//!   there, so that log lives until no version points into it;
//! - a row with **no** chain is implicitly stamped `(begin=0, end=∞)` —
//!   bootstrap data, visible to every snapshot. Since an unobserved write
//!   runs as txn 0 (below) and the engine prunes chains incrementally
//!   against the oldest active snapshot, the store stays empty while one
//!   client works alone and the hot read path pays one hash lookup,
//!   nothing more.
//!
//! **Who versions**, on every client lane: an explicit transaction
//! always; an autocommit statement only if another transaction is active
//! when it starts ([`TxnManager::other_active`]). Otherwise it runs as
//! transaction 0, a write no one can observe: no chain, an immediate heap
//! delete, no conflict. Sound because no snapshot is taken while it holds
//! the engine, and none older is live, so every chain it meets is settled.
//!
//! **Visibility** (snapshot isolation): a version stamped `begin` is
//! visible to snapshot `s` iff `begin == 0`, or `begin == s.txn` (own
//! writes), or `begin` committed with `csn <= s.high`. A version whose
//! `end` stamp is visible has been superseded/deleted for that snapshot.
//!
//! **Conflicts** (first-writer-wins) are decided once, when the write
//! happens, from the version chain alone: the chain's writer stamps are
//! the only per-write conflict record. A stamp contends with a write by
//! `snap.txn` when its writer is another *active* transaction (two
//! uncommitted in-place versions cannot coexist in an overlay design) or,
//! with conflict checks on, one that committed after the writer's snapshot
//! was taken. The losing write fails at once; since no two uncommitted
//! writers ever hold one row, a commit has nothing left to lose and cannot
//! fail. [`Error::WriteConflict`] carries the winning transaction id and
//! the contended key so the session can diagnose (and V$TRACE can record)
//! exactly what collided.
//!
//! **LOB conflicts are byte-range granular**: LOB-backed index stores (the
//! chemistry cartridge's fingerprint file, §3.2.4) share one LOB across
//! all rows, so whole-locator conflicts would serialize all maintenance of
//! one index. A LOB write contends with the LOB's allocation stamp and
//! with the writer of every displaced span that overlaps its byte range;
//! two transactions conflict only when their spans genuinely overlap.
//! Whole-LOB operations (overwrite/free) use the [`WHOLE_LOB`] sentinel
//! span and therefore conflict with everyone.
//!
//! **Vacuum horizon**: the manager tracks every active transaction's
//! snapshot high; [`TxnManager::horizon`] is the minimum — the oldest CSN
//! watermark any live snapshot reads under. A displaced version whose
//! `end` stamp committed at `csn <= horizon` is superseded for every live
//! snapshot (their `high >= horizon`) and every future one (`high >=
//! next_csn >= csn`), so the engine's incremental vacuum can prune it
//! without waiting for quiescence.
//!
//! **One row version.** Every row chain is read through one visibility
//! rule (`RowChain::resolve`), written through one displace
//! (`RowChain::write`) and one rollback pop (`RowChain::undo`), checked
//! by one write check (`VersionStore::check_write`) and pruned by one
//! rule. The only per-organisation difference is how a delete is
//! stamped. Heap deletes are **deferred** (`dead`): the in-place version is
//! marked dead and the slot is only freed once the delete's CSN drops below
//! the horizon, so a rowid is never recycled while a snapshot that can
//! still see the old row exists. IOT deletes are physically immediate
//! (`begin = None`; ordinals are never reused), with the deleted row kept
//! as a ghost version in the chain.

use std::collections::{BTreeMap, HashMap, HashSet};

use extidx_common::{Error, Key, LobRef, Result, Row, RowId};
use parking_lot::Mutex;

use crate::page::SegmentId;
use crate::undo::UndoLog;

/// Every transaction's undo log, by id: where displaced versions' images
/// live.
pub(crate) type UndoLogs = HashMap<u64, UndoLog>;

/// Span length sentinel marking a whole-LOB operation (overwrite/free):
/// conflicts with every concurrent writer of the same LOB and versions the
/// full before-image.
pub const WHOLE_LOB: u64 = u64::MAX;

/// A transaction's view of the database: its own id plus the highest
/// commit sequence number (CSN) visible to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Owning transaction (0 = bootstrap data and unobserved writes, which
    /// keep no chain: sees everything committed, owns nothing).
    pub txn: u64,
    /// Versions committed with `csn <= high` are visible.
    pub high: u64,
}

impl Snapshot {
    /// A read-latest snapshot: all committed versions visible, no own
    /// uncommitted writes.
    pub fn latest() -> Self {
        Snapshot { txn: 0, high: u64::MAX }
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    Committed(u64),
    Aborted,
}

#[derive(Default)]
struct TxnInner {
    next_txn: u64,
    next_csn: u64,
    status: HashMap<u64, TxnStatus>,
    /// Snapshot high of every *active* transaction — the data behind
    /// [`TxnManager::horizon`]. Entries leave at commit/abort.
    snapshots: HashMap<u64, u64>,
}

impl TxnInner {
    fn horizon(&self) -> u64 {
        self.snapshots.values().copied().min().unwrap_or(self.next_csn)
    }
}

/// Hands out monotone transaction ids and snapshots, tracks commit/abort
/// status, and holds the one first-writer-wins rule ([`Self::contender`]).
#[derive(Default)]
pub struct TxnManager {
    inner: Mutex<TxnInner>,
}

impl TxnManager {
    /// Begin a transaction: a fresh id and a snapshot fixed at the current
    /// commit watermark. The snapshot's high is recorded so the vacuum
    /// horizon can track the oldest live reader.
    pub fn begin(&self) -> Snapshot {
        let mut g = self.inner.lock();
        g.next_txn += 1;
        let txn = g.next_txn;
        let high = g.next_csn;
        g.status.insert(txn, TxnStatus::Active);
        g.snapshots.insert(txn, high);
        Snapshot { txn, high }
    }

    pub fn status(&self, txn: u64) -> Option<TxnStatus> {
        self.inner.lock().status.get(&txn).copied()
    }

    pub fn is_active(&self, txn: u64) -> bool {
        matches!(self.status(txn), Some(TxnStatus::Active))
    }

    /// CSN a transaction committed at, if it committed.
    pub fn committed_csn(&self, txn: u64) -> Option<u64> {
        match self.status(txn) {
            Some(TxnStatus::Committed(csn)) => Some(csn),
            _ => None,
        }
    }

    /// Whether `stamp`'s writer committed at or below `horizon`: every live
    /// snapshot (its high is at least the horizon) and every future one
    /// sees that commit.
    pub fn settled(&self, stamp: u64, horizon: u64) -> bool {
        self.committed_csn(stamp).is_some_and(|csn| csn <= horizon)
    }

    /// Snapshot-isolation visibility of a version stamp.
    pub fn stamp_visible(&self, stamp: u64, snap: &Snapshot) -> bool {
        if stamp == 0 || stamp == snap.txn {
            return true;
        }
        self.committed_csn(stamp).is_some_and(|csn| csn <= snap.high)
    }

    /// The vacuum horizon: the smallest snapshot high any active
    /// transaction reads under, or the current CSN watermark when none is
    /// active. Versions superseded at `csn <= horizon` are invisible to
    /// every live and future snapshot.
    pub fn horizon(&self) -> u64 {
        self.inner.lock().horizon()
    }

    /// The one first-writer-wins rule, for every write check (rows and
    /// LOBs alike): of the writer stamps a chain holds on what `snap`'s
    /// transaction is about to write, which one it loses to. A stamp
    /// contends when it is neither 0 nor `snap.txn` and its writer is
    /// active, or — with `committed` checks on — committed above
    /// `snap.high`. The winner is an active stamp first, else the latest
    /// committer: `(txn, None)` or `(txn, Some(csn))`. An unobserved write
    /// (transaction 0) contends with nothing: every stamp it meets is
    /// settled.
    pub(crate) fn contender(
        &self,
        snap: &Snapshot,
        committed: bool,
        stamps: impl IntoIterator<Item = u64>,
    ) -> Option<(u64, Option<u64>)> {
        if snap.txn == 0 {
            return None;
        }
        let g = self.inner.lock();
        let mut latest: Option<(u64, u64)> = None;
        for stamp in stamps {
            if stamp == 0 || stamp == snap.txn {
                continue;
            }
            match g.status.get(&stamp) {
                Some(TxnStatus::Active) => return Some((stamp, None)),
                Some(&TxnStatus::Committed(csn))
                    if committed && csn > snap.high && latest.is_none_or(|(_, c)| csn > c) =>
                {
                    latest = Some((stamp, csn));
                }
                _ => {}
            }
        }
        latest.map(|(stamp, csn)| (stamp, Some(csn)))
    }

    /// Commit: assign the next CSN. It cannot fail — every conflict was
    /// decided when the write happened.
    pub fn commit(&self, snap: &Snapshot) -> u64 {
        let mut g = self.inner.lock();
        g.next_csn += 1;
        let csn = g.next_csn;
        g.status.insert(snap.txn, TxnStatus::Committed(csn));
        g.snapshots.remove(&snap.txn);
        csn
    }

    /// Mark a transaction aborted (transaction 0 only while no snapshot is
    /// live; the vacuum pass that follows forgets it).
    pub fn abort(&self, txn: u64) {
        let mut g = self.inner.lock();
        g.status.insert(txn, TxnStatus::Aborted);
        g.snapshots.remove(&txn);
    }

    /// The oldest transaction other than `t` still active: the one "can
    /// another transaction see this write" predicate.
    pub fn other_active(&self, t: u64) -> Option<u64> {
        let g = self.inner.lock();
        g.snapshots.keys().copied().filter(|&s| s != t).min()
    }

    /// Number of transactions still active.
    pub fn active_count(&self) -> usize {
        self.inner
            .lock()
            .status
            .values()
            .filter(|s| matches!(s, TxnStatus::Active))
            .count()
    }

    /// Incremental history GC, paired with the engine's chain pruning:
    /// drop transaction statuses neither active nor referenced by a
    /// surviving chain stamp. A stamp no chain holds decides no visibility
    /// and no conflict.
    pub fn prune_history(&self, referenced: &HashSet<u64>) {
        let mut g = self.inner.lock();
        g.status
            .retain(|txn, s| matches!(s, TxnStatus::Active) || referenced.contains(txn));
    }
}

/// The conflict a write by `snap` loses to txn `winner`, which wrote
/// `what` and committed at `csn`, after the snapshot was taken.
pub(crate) fn committed_conflict(snap: &Snapshot, winner: u64, csn: u64, what: String) -> Error {
    let detail = format!(
        "txn {}: {what} was written by txn {winner}, committed at csn {csn}, after this snapshot (high {})",
        snap.txn, snap.high
    );
    Error::write_conflict(winner, what, detail)
}

/// The address of one row chain: a heap rowid or an IOT key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowKey<'a> {
    Rid(RowId),
    Key(&'a Key),
}

impl RowKey<'_> {
    /// How a conflict names this row of `seg`.
    pub(crate) fn label(self, seg: SegmentId) -> String {
        match self {
            RowKey::Rid(rid) => format!("heap rowid {rid} in {seg}"),
            RowKey::Key(key) => format!("iot key {key} in {seg}"),
        }
    }
}

/// One displaced row version: the transactions that wrote it (`begin`)
/// and displaced it (`end`), the position `at` in `end`'s undo log of the
/// entry that holds its image, and the IOT logical-rowid ordinal it was
/// reachable under, so secondary-index fetches into history still resolve
/// (0 for a heap version: its rowid is the chain's key).
#[derive(Debug, Clone)]
pub struct RowVersion {
    pub begin: u64,
    pub end: u64,
    pub at: usize,
    pub ord: u64,
}

impl RowVersion {
    /// The image, read from the displacer's undo entry.
    pub(crate) fn row<'a>(&self, undo: &'a UndoLogs) -> &'a Row {
        undo[&self.end][self.at].row()
    }

    /// Whether `snap` sees this version: its writer visible, its
    /// displacer not.
    pub(crate) fn visible(&self, txns: &TxnManager, snap: &Snapshot) -> bool {
        txns.stamp_visible(self.begin, snap) && !txns.stamp_visible(self.end, snap)
    }
}

/// Version chain for one heap rowid or IOT key. The in-place (physical)
/// version is *not* duplicated here — only its stamps are. The two
/// organisations differ in how a delete is stamped, and in nothing else: a
/// heap delete is deferred (`dead`, the row stays in its slot), an IOT
/// delete is immediate (`begin = None`, the row lives on in `older`).
#[derive(Debug, Clone)]
pub struct RowChain {
    /// Writer of the in-place version (0 = visible to every snapshot), or
    /// `None` when the row is physically gone — an IOT ghost.
    pub begin: Option<u64>,
    /// Deleting transaction of a heap row. The physical slot survives
    /// until the delete's CSN drops below the vacuum horizon (rowid-reuse
    /// safety).
    pub dead: Option<u64>,
    /// Displaced versions, newest first.
    pub older: Vec<RowVersion>,
}

impl Default for RowChain {
    /// The chain of a row no transaction has touched: bootstrap data.
    fn default() -> Self {
        RowChain { begin: Some(0), dead: None, older: Vec::new() }
    }
}

impl RowChain {
    /// A chain carrying no information (equivalent to no chain).
    pub(crate) fn is_trivial(&self) -> bool {
        self.begin.is_none_or(|b| b == 0) && self.dead.is_none() && self.older.is_empty()
    }

    /// The stamps a writer of this row leaves that a later writer must
    /// wait out: the in-place version's writer, a deferred deleter, and
    /// whoever displaced the newest older version (an IOT deleter). Read by
    /// the write check, [`VersionStore::active_writer`] and
    /// [`VersionStore::settled`].
    pub(crate) fn writer_stamps(&self) -> impl Iterator<Item = u64> + '_ {
        self.begin.into_iter().chain(self.dead).chain(self.older.first().map(|v| v.end))
    }

    /// The one visibility rule: the version of this row `snap` sees, given
    /// the physically present row (if any), paired with the ordinal of the
    /// displaced version it came from (`None`: the in-place row). `None`
    /// when no version is visible — written by a transaction `snap` cannot
    /// see, or deleted for it.
    pub(crate) fn resolve<'a>(
        &self,
        txns: &TxnManager,
        undo: &'a UndoLogs,
        physical: Option<&'a Row>,
        snap: &Snapshot,
    ) -> Option<(&'a Row, Option<u64>)> {
        if let Some(row) = physical {
            match self.begin {
                // A physical row under a ghost-only chain should not
                // happen; be conservative and treat it as bootstrap data.
                None => return Some((row, None)),
                Some(begin) if txns.stamp_visible(begin, snap) => {
                    let deleted = self.dead.is_some_and(|d| txns.stamp_visible(d, snap));
                    return (!deleted).then_some((row, None));
                }
                Some(_) => {}
            }
        }
        let v = self.older.iter().find(|v| v.visible(txns, snap))?;
        Some((v.row(undo), Some(v.ord)))
    }

    /// Transaction `t` writes the row: `old` is the in-place version it
    /// displaces, as the position of the undo entry that restores it and
    /// the ordinal it is reachable under (`None` for an insert), and `gone`
    /// says the row leaves physically (an IOT delete). A displaced version
    /// `t` wrote itself is not kept — nobody else can see the intermediate
    /// image — except by a delete, whose rollback must pop it to restore
    /// `t`'s stamp.
    pub(crate) fn write(&mut self, t: u64, old: Option<(usize, u64)>, gone: bool) {
        if let Some((at, ord)) = old {
            if gone || self.begin != Some(t) {
                let begin = self.begin.unwrap_or(0);
                self.older.insert(0, RowVersion { begin, end: t, at, ord });
            }
        }
        self.begin = (!gone).then_some(t);
    }

    /// Undo `t`'s write whose undo entry sits at `at` (`None`: the undone
    /// write was an insert, the row is gone again): pop the version that
    /// entry holds the image of, if the write kept one.
    pub(crate) fn undo(&mut self, t: u64, at: Option<usize>) {
        let Some(at) = at else {
            if self.begin == Some(t) {
                self.begin = None;
            }
            return;
        };
        if self.older.first().is_some_and(|v| v.end == t && v.at == at) {
            self.begin = Some(self.older.remove(0).begin);
        }
    }

    /// The one prune rule: drop every displaced version no live or future
    /// snapshot can see — its displacer settled, or its writer aborted —
    /// and freeze a settled in-place stamp to the bootstrap lane. Returns
    /// how many versions went.
    fn prune(&mut self, settled: &impl Fn(u64) -> bool, aborted: &impl Fn(u64) -> bool) -> u64 {
        let before = self.older.len();
        self.older.retain(|v| !settled(v.end) && !aborted(v.begin));
        if self.begin.is_some_and(|b| b != 0 && settled(b)) {
            self.begin = Some(0);
        }
        (before - self.older.len()) as u64
    }
}

/// One displaced LOB byte span: `[start, start+len)` as transaction `by`
/// overwrote it, whose before-image is entry `at` of `by`'s undo log. That
/// image is clipped to the pre-write LOB length, so one shorter than `len`
/// means the write extended the LOB past its previous end. `len ==
/// WHOLE_LOB` marks a whole-LOB operation (overwrite/free) whose image is
/// the complete prior content.
#[derive(Debug, Clone)]
pub struct LobSpanVersion {
    pub start: u64,
    pub len: u64,
    pub by: u64,
    pub at: usize,
}

/// Un-apply one span patch: restore the before-image `old` **in place**.
/// Reconstruction is offset-stable — bytes are never shifted — so offsets
/// computed against a snapshot image stay valid against the physical LOB.
/// The portion a write *extended* (beyond the clipped before-image) is
/// truncated when it reaches the current end, else hole-filled with `0xFF`
/// — the convention record-structured stores read as a tombstone, exactly
/// like a skipped record.
pub fn unapply_span(content: &mut Vec<u8>, v: &LobSpanVersion, old: &[u8]) {
    if v.len == WHOLE_LOB {
        *content = old.to_vec();
        return;
    }
    let start = v.start as usize;
    let old_end = start + old.len();
    let write_end = start + v.len as usize;
    if content.len() < old_end {
        content.resize(old_end, 0xFF);
    }
    content[start..old_end].copy_from_slice(old);
    if write_end >= content.len() {
        content.truncate(old_end);
    } else {
        for b in &mut content[old_end..write_end] {
            *b = 0xFF;
        }
    }
}

/// Version chain for one LOB locator. Overlay, like heap chains: the
/// newest content stays physically in the [`crate::lob::LobStore`]; only
/// the allocation stamp plus displaced before-image *spans* live here. No
/// chain means the content is bootstrap-visible to every snapshot.
///
/// Without this chain, a LOB-backed domain index (chemistry fingerprints)
/// leaks uncommitted maintenance to every reader: one session's in-flight
/// DELETE tombstones the shared fingerprint record and concurrent index
/// scans silently drop the row, while the MVCC-versioned base table still
/// shows it — the differential oracle catches exactly that divergence.
///
/// Spans (not whole before-images) are what lets two transactions write
/// disjoint ranges of the same LOB concurrently: each leaves its own
/// patch, and a snapshot reconstructs its view by un-applying only the
/// patches it cannot see.
#[derive(Debug, Clone, Default)]
pub struct LobChain {
    /// Stamp of the transaction that allocated the LOB (existence).
    pub begin: u64,
    /// Displaced spans, newest first.
    pub spans: Vec<LobSpanVersion>,
}

impl LobChain {
    /// A chain carrying no information (equivalent to no chain).
    pub fn is_trivial(&self) -> bool {
        self.begin == 0 && self.spans.is_empty()
    }
}

/// The content of a LOB as one snapshot sees it.
pub enum LobImage {
    /// The physically current content (every span visible).
    Current,
    /// A reconstructed image with invisible spans un-applied.
    Patched(Vec<u8>),
    /// No version is visible (the LOB was created by a transaction the
    /// snapshot cannot see) — reads behave as if the LOB were empty.
    Absent,
}

/// Resolve a LOB to the content visible under `snap`: start from the
/// physical bytes and un-apply, newest first, every span whose writer the
/// snapshot cannot see.
pub(crate) fn resolve_lob_image(
    txns: &TxnManager,
    undo: &UndoLogs,
    chain: &LobChain,
    physical: &[u8],
    snap: &Snapshot,
) -> LobImage {
    if !txns.stamp_visible(chain.begin, snap) {
        return LobImage::Absent;
    }
    if chain.spans.iter().all(|v| txns.stamp_visible(v.by, snap)) {
        return LobImage::Current;
    }
    let mut content = physical.to_vec();
    for v in &chain.spans {
        if !txns.stamp_visible(v.by, snap) {
            unapply_span(&mut content, v, undo[&v.by][v.at].bytes());
        }
    }
    LobImage::Patched(content)
}

/// Counts of one [`VersionStore::vacuum`] pass.
#[derive(Debug, Default)]
pub(crate) struct VacuumPass {
    /// Displaced versions (row images, LOB spans) pruned.
    pub(crate) pruned: u64,
    /// Whole chains dropped (drained to trivial, or their row reclaimed).
    pub(crate) dropped: u64,
    /// Heap rows whose deferred delete settled: the engine frees the slots.
    pub(crate) reclaim: Vec<(SegmentId, RowId)>,
}

/// All version chains: row chains by segment — keyed by rowid for heaps,
/// by key for IOTs — and LOB chains by locator. Empty whenever nothing
/// concurrent is in flight (the engine prunes incrementally against the
/// snapshot horizon), so a client working alone — physical layout
/// included — is untouched. A row chain is written only through
/// [`Self::edit`]; an unobserved write (transaction 0) keeps none.
#[derive(Default)]
pub struct VersionStore {
    pub heap: HashMap<SegmentId, HashMap<RowId, RowChain>>,
    pub iot: HashMap<SegmentId, BTreeMap<Key, RowChain>>,
    pub lobs: HashMap<LobRef, LobChain>,
}

impl VersionStore {
    /// The chain of one heap row or IOT key, if it has one.
    pub(crate) fn chain(&self, seg: SegmentId, key: RowKey) -> Option<&RowChain> {
        match key {
            RowKey::Rid(rid) => self.heap.get(&seg)?.get(&rid),
            RowKey::Key(key) => self.iot.get(&seg)?.get(key),
        }
    }

    /// Apply transaction `t`'s change `f` to the chain of row `key`
    /// (bootstrap if it has none), dropping the chain if that leaves it
    /// trivial. A no-op for an unobserved write (`t == 0`).
    pub(crate) fn edit(
        &mut self,
        seg: SegmentId,
        key: RowKey,
        t: u64,
        f: impl FnOnce(&mut RowChain),
    ) {
        if t == 0 {
            return;
        }
        match key {
            RowKey::Rid(rid) => {
                let chains = self.heap.entry(seg).or_default();
                let chain = chains.entry(rid).or_default();
                f(chain);
                if chain.is_trivial() {
                    chains.remove(&rid);
                }
            }
            RowKey::Key(key) => {
                let chains = self.iot.entry(seg).or_default();
                let chain = chains.entry(key.clone()).or_default();
                f(chain);
                if chain.is_trivial() {
                    chains.remove(key);
                }
            }
        }
    }

    /// Every row chain of `seg`, heap or IOT.
    fn segment_chains(&self, seg: SegmentId) -> impl Iterator<Item = &RowChain> {
        let heap = self.heap.get(&seg).into_iter().flat_map(|m| m.values());
        heap.chain(self.iot.get(&seg).into_iter().flat_map(|m| m.values()))
    }

    /// The one write check, for a heap row or an IOT key alike, of a write
    /// by `snap`'s transaction: [`TxnManager::contender`] over the row's
    /// writer stamps.
    pub(crate) fn check_write(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        committed: bool,
        seg: SegmentId,
        key: RowKey,
    ) -> Result<()> {
        let Some(chain) = self.chain(seg, key) else {
            return Ok(());
        };
        match txns.contender(snap, committed, chain.writer_stamps()) {
            None => Ok(()),
            Some((stamp, None)) => {
                let (t, what) = (snap.txn, key.label(seg));
                let detail = format!("txn {t}: {what} has an uncommitted version from txn {stamp}");
                Err(Error::write_conflict(stamp, what, detail))
            }
            Some((winner, Some(csn))) => Err(committed_conflict(snap, winner, csn, key.label(seg))),
        }
    }

    /// The oldest *active* transaction other than `t` holding a writer
    /// stamp anywhere in `seg` — what an index build over it must wait out.
    pub(crate) fn active_writer(&self, txns: &TxnManager, seg: SegmentId, t: u64) -> Option<u64> {
        let stamps = self.segment_chains(seg).flat_map(RowChain::writer_stamps);
        stamps.filter(|&s| s != 0 && s != t && txns.is_active(s)).min()
    }

    /// Whether every writer stamp in `seg` is settled at the vacuum horizon
    /// and no heap row waits for the vacuum to reclaim it.
    pub(crate) fn settled(&self, txns: &TxnManager, seg: SegmentId) -> bool {
        let horizon = txns.horizon();
        self.segment_chains(seg).all(|c| {
            c.dead.is_none() && c.writer_stamps().all(|s| s == 0 || txns.settled(s, horizon))
        })
    }

    /// Per-segment `(label, chains, versions)` for `V$MVCC`, heaps then
    /// IOTs by segment id, then one `LOB` row for all LOB chains.
    pub(crate) fn stats(&self) -> Vec<(String, usize, usize)> {
        let kinds: [(&str, Vec<SegmentId>); 2] = [
            ("HEAP", self.heap.keys().copied().collect()),
            ("IOT", self.iot.keys().copied().collect()),
        ];
        let mut out = Vec::new();
        for (kind, mut segs) in kinds {
            segs.sort_by_key(|s| s.0);
            for seg in segs {
                let count = |(c, v), ch: &RowChain| (c + 1, v + ch.older.len());
                let (chains, versions) = self.segment_chains(seg).fold((0, 0), count);
                if chains > 0 {
                    out.push((format!("{kind}:{}", seg.0), chains, versions));
                }
            }
        }
        if !self.lobs.is_empty() {
            let versions = self.lobs.values().map(|c| c.spans.len()).sum();
            out.push(("LOB".to_string(), self.lobs.len(), versions));
        }
        out
    }

    /// The displaced heap rows of `seg`, each with the rowid it lives at —
    /// what the zone maps must keep covering.
    pub(crate) fn displaced<'a>(
        &'a self,
        seg: SegmentId,
        undo: &'a UndoLogs,
    ) -> impl Iterator<Item = (RowId, &'a Row)> {
        let chains = self.heap.get(&seg).into_iter().flatten();
        chains.flat_map(move |(&rid, c)| c.older.iter().map(move |v| (rid, v.row(undo))))
    }

    /// Remove all chains for a dropped/truncated segment.
    pub fn forget_segment(&mut self, seg: SegmentId) {
        self.heap.remove(&seg);
        self.iot.remove(&seg);
    }

    /// One incremental vacuum pass at `horizon`. Heap and IOT chains share
    /// [`RowChain::prune`]; a heap chain whose deferred delete settled goes
    /// whole, its row handed back for the engine to reclaim. LOB chains
    /// drop settled or aborted spans and forget a settled or aborted
    /// allocation stamp.
    pub(crate) fn vacuum(&mut self, txns: &TxnManager, horizon: u64) -> VacuumPass {
        let settled = |stamp: u64| txns.settled(stamp, horizon);
        let aborted = |stamp: u64| matches!(txns.status(stamp), Some(TxnStatus::Aborted));
        let (mut pruned, mut dropped, mut reclaim) = (0, 0, Vec::new());
        let mut keep = |chain: &mut RowChain| {
            // A settled delete: no snapshot can see the row or any
            // displaced version under it.
            let keep = if chain.dead.is_some_and(&settled) {
                pruned += chain.older.len() as u64;
                false
            } else {
                pruned += chain.prune(&settled, &aborted);
                !chain.is_trivial()
            };
            dropped += u64::from(!keep);
            keep
        };
        for (&seg, chains) in self.heap.iter_mut() {
            chains.retain(|&rid, chain| {
                let kept = keep(chain);
                // Dropped while still marking its row dead: a settled delete.
                if !kept && chain.dead.is_some() {
                    reclaim.push((seg, rid));
                }
                kept
            });
        }
        for chains in self.iot.values_mut() {
            chains.retain(|_, chain| keep(chain));
        }
        self.heap.retain(|_, m| !m.is_empty());
        self.iot.retain(|_, m| !m.is_empty());

        self.lobs.retain(|_, chain| {
            let before = chain.spans.len();
            chain.spans.retain(|v| !settled(v.by) && !aborted(v.by));
            pruned += (before - chain.spans.len()) as u64;
            if chain.begin != 0 && (settled(chain.begin) || aborted(chain.begin)) {
                chain.begin = 0;
            }
            let keep = !chain.is_trivial();
            dropped += u64::from(!keep);
            keep
        });
        VacuumPass { pruned, dropped, reclaim }
    }

    /// Every nonzero transaction stamp referenced by a surviving chain —
    /// the statuses [`TxnManager::prune_history`] must retain.
    pub fn referenced_stamps(&self) -> HashSet<u64> {
        let rows = self.heap.values().flat_map(|m| m.values());
        let rows = rows.chain(self.iot.values().flat_map(|m| m.values()));
        let row_stamps = rows.flat_map(|c| {
            let older = c.older.iter().flat_map(|v| [v.begin, v.end]);
            c.begin.into_iter().chain(c.dead).chain(older)
        });
        let lob_stamps = self
            .lobs
            .values()
            .flat_map(|c| std::iter::once(c.begin).chain(c.spans.iter().map(|v| v.by)));
        row_stamps.chain(lob_stamps).filter(|&s| s != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undo::{LobSpan, UndoOp};
    use crate::wal::WalRecord;

    #[test]
    fn snapshots_are_monotone_and_isolated() {
        let m = TxnManager::default();
        let s1 = m.begin();
        let s2 = m.begin();
        assert!(s2.txn > s1.txn);
        // Nothing committed yet: stamps of other active txns invisible.
        assert!(!m.stamp_visible(s2.txn, &s1));
        assert!(m.stamp_visible(s1.txn, &s1), "own writes visible");
        assert!(m.stamp_visible(0, &s1), "bootstrap visible");
        let csn = m.commit(&s2);
        // s1 predates the commit: still invisible. A later snapshot sees it.
        assert!(!m.stamp_visible(s2.txn, &s1));
        let s3 = m.begin();
        assert!(s3.high >= csn);
        assert!(m.stamp_visible(s2.txn, &s3));
        assert!(m.stamp_visible(s2.txn, &Snapshot::latest()));
    }

    #[test]
    fn horizon_tracks_oldest_active_snapshot() {
        let m = TxnManager::default();
        assert_eq!(m.horizon(), 0, "idle horizon = csn watermark");
        let a = m.begin();
        let b = m.begin();
        m.commit(&b); // csn 1
        let c = m.begin(); // high = 1
        assert_eq!(m.horizon(), a.high, "oldest active snapshot pins the horizon");
        m.commit(&a); // csn 2
        assert_eq!(m.horizon(), c.high);
        m.abort(c.txn);
        assert_eq!(m.horizon(), 2, "quiescent horizon returns to the watermark");
    }

    #[test]
    fn aborted_stamps_are_never_visible() {
        let m = TxnManager::default();
        let a = m.begin();
        m.abort(a.txn);
        assert!(!m.stamp_visible(a.txn, &Snapshot::latest()));
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn heap_chain_resolution() {
        let m = TxnManager::default();
        let a = m.begin();
        let old = vec![extidx_common::Value::Integer(1)];
        let new = vec![extidx_common::Value::Integer(2)];
        // a updated a bootstrap row in place; its undo entry 0 holds the image.
        let (seg, rid) = (SegmentId(1), RowId::new(1, 0, 0));
        let entry = UndoOp::Apply(WalRecord::HeapUpdate { seg, rid, row: old.clone() });
        let undo = HashMap::from([(a.txn, vec![entry])]);
        let mut chain = RowChain::default();
        chain.write(a.txn, Some((0, 0)), false);
        let resolve = |snap: &Snapshot| {
            chain.resolve(&m, &undo, Some(&new), snap).map(|(row, _)| row.clone())
        };
        let reader = m.begin();
        assert_eq!(resolve(&reader), Some(old.clone()));
        assert_eq!(resolve(&a), Some(new.clone()));
        m.commit(&a);
        // Pre-commit reader still sees the old version; new readers the new.
        assert_eq!(resolve(&reader), Some(old));
        assert_eq!(resolve(&Snapshot::latest()), Some(new));
    }

    #[test]
    fn unapply_span_is_offset_stable() {
        // Physical: a write of "XY" over "bc" at offset 1, then an append
        // of "ef" at offset 4 — both by invisible txns.
        let span = |start, len| LobSpanVersion { start, len, by: 8, at: 0 };
        let mut content = b"aXYdef".to_vec();
        // Un-apply newest first: the append (no before-image, pure extension).
        unapply_span(&mut content, &span(4, 2), b"");
        assert_eq!(content, b"aXYd", "append at the end truncates back");
        unapply_span(&mut content, &span(1, 2), b"bc");
        assert_eq!(content, b"abcd", "overwrite restores the before-image in place");
        // Extension *under* a still-visible later write hole-fills with 0xFF
        // instead of shifting the later bytes.
        let mut content = b"aXYZtail".to_vec();
        unapply_span(&mut content, &span(1, 3), b"b");
        assert_eq!(content, b"ab\xFF\xFFtail", "hole-filled, offsets preserved");
        // Whole-LOB sentinel restores the complete prior image.
        let mut content = b"replaced".to_vec();
        unapply_span(&mut content, &span(0, WHOLE_LOB), b"orig");
        assert_eq!(content, b"orig");
    }

    #[test]
    fn lob_image_resolution_patches_invisible_spans() {
        let m = TxnManager::default();
        let a = m.begin();
        let chain = LobChain {
            begin: 0,
            spans: vec![LobSpanVersion { start: 0, len: 2, by: a.txn, at: 0 }],
        };
        let span = LobSpan { lob: LobRef(1), start: 0, len: 2, old: b"ab".to_vec() };
        let undo = HashMap::from([(a.txn, vec![UndoOp::LobSpan(Box::new(span))])]);
        let image = |chain: &LobChain, physical: &[u8], snap: &Snapshot| {
            resolve_lob_image(&m, &undo, chain, physical, snap)
        };
        let reader = m.begin();
        match image(&chain, b"XYcd", &reader) {
            LobImage::Patched(img) => assert_eq!(img, b"abcd"),
            _ => panic!("expected patched image for pre-write reader"),
        }
        assert!(matches!(image(&chain, b"XYcd", &a), LobImage::Current));
        m.commit(&a);
        assert!(matches!(image(&chain, b"XYcd", &Snapshot::latest()), LobImage::Current));
        // A LOB allocated by an invisible txn is absent.
        let b = m.begin();
        let chain = LobChain { begin: b.txn, spans: vec![] };
        assert!(matches!(image(&chain, b"zz", &reader), LobImage::Absent));
    }
}
