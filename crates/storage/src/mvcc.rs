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
//!   older versions;
//! - a row with **no** chain is implicitly stamped `(begin=0, end=∞)` —
//!   bootstrap data, visible to every snapshot. Since the single-session
//!   autocommit lane runs as txn 0 and the engine prunes chains
//!   incrementally against the oldest active snapshot, the store stays
//!   empty in all legacy paths and the hot read path pays one hash
//!   lookup, nothing more.
//!
//! **Visibility** (snapshot isolation): a version stamped `begin` is
//! visible to snapshot `s` iff `begin == 0`, or `begin == s.txn` (own
//! writes), or `begin` committed with `csn <= s.high`. A version whose
//! `end` stamp is visible has been superseded/deleted for that snapshot.
//!
//! **Conflicts** (first-writer-wins): writing a row whose in-place version
//! belongs to another *active* transaction conflicts immediately (two
//! uncommitted in-place versions cannot coexist in an overlay design);
//! writing a row already committed by a transaction *newer than the
//! writer's snapshot* conflicts either immediately (commit already
//! happened) or at commit-time validation against the committed write set.
//! The losing transaction is rolled back; [`Error::WriteConflict`] carries
//! the winning transaction id and the contended key so the session can
//! diagnose (and V$TRACE can record) exactly what collided.
//!
//! **LOB conflicts are byte-range granular**: LOB-backed index stores (the
//! chemistry cartridge's fingerprint file, §3.2.4) share one LOB across
//! all rows, so whole-locator conflict keys would serialize all
//! maintenance of one index. [`WriteKey::LobSpan`] records the written
//! byte range instead; two transactions conflict only when their spans
//! genuinely overlap. Whole-LOB operations (overwrite/free) use the
//! [`WHOLE_LOB`] sentinel span and therefore conflict with everyone.
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

/// Span length sentinel marking a whole-LOB operation (overwrite/free):
/// conflicts with every concurrent writer of the same LOB and versions the
/// full before-image.
pub const WHOLE_LOB: u64 = u64::MAX;

/// A transaction's view of the database: its own id plus the highest
/// commit sequence number (CSN) visible to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Owning transaction (0 = the legacy/bootstrap lane: sees everything
    /// committed, owns nothing).
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

/// Identity of a written row for conflict detection: heap rows by rowid,
/// IOT rows by key, LOB writes by byte range.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteKey {
    Rid(RowId),
    Key(Key),
    /// A byte range `[start, end)` of one LOB. Ranges from different
    /// transactions conflict only when they overlap, so two sessions
    /// maintaining the same LOB-backed index store proceed concurrently
    /// unless they touch the same records. Whole-LOB operations use
    /// `start = 0, end = WHOLE_LOB`.
    LobSpan { lob: LobRef, start: u64, end: u64 },
}

impl WriteKey {
    /// Whether two write keys contend: exact match for rows/keys, range
    /// overlap for LOB spans of the same locator.
    pub fn contends(&self, other: &WriteKey) -> bool {
        match (self, other) {
            (
                WriteKey::LobSpan { lob: a, start: s1, end: e1 },
                WriteKey::LobSpan { lob: b, start: s2, end: e2 },
            ) => a == b && s1 < e2 && s2 < e1,
            (a, b) => a == b,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriteRef {
    pub seg: SegmentId,
    pub key: WriteKey,
}

/// How a conflict names the contended write.
impl std::fmt::Display for WriteRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.key {
            WriteKey::Rid(rid) => write!(f, "heap rowid {rid} in {}", self.seg),
            WriteKey::Key(key) => write!(f, "iot key {key} in {}", self.seg),
            WriteKey::LobSpan { lob, end: WHOLE_LOB, .. } => write!(f, "{lob} (whole)"),
            WriteKey::LobSpan { lob, start, end } => write!(f, "{lob} bytes [{start}, {end})"),
        }
    }
}

#[derive(Default)]
struct TxnInner {
    next_txn: u64,
    next_csn: u64,
    status: HashMap<u64, TxnStatus>,
    /// Snapshot high of every *active* transaction — the data behind
    /// [`TxnManager::horizon`]. Entries leave at commit/abort.
    snapshots: HashMap<u64, u64>,
    /// Per-active-transaction write sets, validated at commit.
    writes: HashMap<u64, Vec<WriteRef>>,
    /// Committed write sets: row → (CSN, txn) of its latest committed
    /// writer. Pruned incrementally once the CSN drops below the horizon
    /// (no active or future snapshot can lose first-writer-wins to it).
    committed: BTreeMap<WriteRef, (u64, u64)>,
}

impl TxnInner {
    fn horizon(&self) -> u64 {
        self.snapshots.values().copied().min().unwrap_or(self.next_csn)
    }

    /// Latest committed writer contending with `wref`: exact lookup for
    /// row/key writes, range-overlap scan for LOB spans.
    fn committed_contender(&self, wref: &WriteRef) -> Option<(u64, u64, WriteRef)> {
        match &wref.key {
            WriteKey::LobSpan { lob, .. } => {
                let lo = WriteRef {
                    seg: wref.seg,
                    key: WriteKey::LobSpan { lob: *lob, start: 0, end: 0 },
                };
                let hi = WriteRef {
                    seg: wref.seg,
                    key: WriteKey::LobSpan { lob: *lob, start: u64::MAX, end: u64::MAX },
                };
                self.committed
                    .range(lo..=hi)
                    .filter(|(k, _)| k.key.contends(&wref.key))
                    .map(|(k, &(csn, txn))| (csn, txn, k.clone()))
                    .max_by_key(|&(csn, _, _)| csn)
            }
            _ => self.committed.get(wref).map(|&(csn, txn)| (csn, txn, wref.clone())),
        }
    }
}

/// Hands out monotone transaction ids and snapshots, tracks commit/abort
/// status, and runs first-writer-wins write-set validation.
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

    /// Open the direct lane's explicit transaction (`BEGIN` on a bare
    /// `Database`). It keeps id 0 — no snapshot, no write set, no stamps —
    /// and is registered only so that this one registry answers "is a
    /// transaction open" for every lane. [`Self::commit`] and
    /// [`Self::abort`] of id 0 just unregister it: a status left behind
    /// under the bootstrap stamp would read as every unchained row's.
    pub fn begin_direct(&self) {
        self.inner.lock().status.insert(0, TxnStatus::Active);
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

    /// Record a row write for commit-time validation.
    pub fn record_write(&self, txn: u64, wref: WriteRef) {
        if txn == 0 {
            return;
        }
        self.inner.lock().writes.entry(txn).or_default().push(wref);
    }

    /// Take back the writes a rollback to savepoint `mark` undid: the
    /// engine records one write per undo entry, so a transaction's first
    /// `mark` writes are the ones that stand. A write rolled back is no
    /// write at all — left in the set, it would make a later writer of the
    /// same rowid or key lose first-writer-wins to a transaction that never
    /// wrote it.
    pub(crate) fn truncate_writes(&self, txn: u64, mark: usize) {
        if let Some(writes) = self.inner.lock().writes.get_mut(&txn) {
            writes.truncate(mark);
        }
    }

    /// The latest committed writer contending with `wref`, if any writer
    /// committed since its entry was pruned: `(csn, txn)`.
    pub fn committed_writer(&self, wref: &WriteRef) -> Option<(u64, u64)> {
        self.inner
            .lock()
            .committed_contender(wref)
            .map(|(csn, txn, _)| (csn, txn))
    }

    /// The committed half of every write check (rows and LOB spans alike):
    /// `wref` conflicts when a contending write committed after `snap` was
    /// taken — first-writer-wins caught at write time, not at commit.
    pub(crate) fn check_committed(&self, wref: &WriteRef, snap: &Snapshot) -> Result<()> {
        match self.committed_writer(wref) {
            Some((csn, winner)) if csn > snap.high => {
                let what = wref.to_string();
                let detail = format!(
                    "txn {}: {what} was written by txn {winner}, committed at csn {csn}, after this snapshot (high {})",
                    snap.txn, snap.high
                );
                Err(Error::write_conflict(winner, what, detail))
            }
            _ => Ok(()),
        }
    }

    /// First-writer-wins commit: validate the write set against writers
    /// that committed after the snapshot was taken, then assign a CSN.
    /// `enforce = false` skips validation (the deliberate lost-update knob
    /// the differential oracle uses to prove it can detect anomalies).
    pub fn commit(&self, snap: &Snapshot, enforce: bool) -> Result<u64> {
        let mut g = self.inner.lock();
        if snap.txn == 0 {
            g.status.remove(&0);
            return Ok(g.next_csn);
        }
        let writes = g.writes.remove(&snap.txn).unwrap_or_default();
        if enforce {
            let conflict = writes.iter().find_map(|w| {
                g.committed_contender(w).and_then(|(csn, txn, key)| {
                    (csn > snap.high).then(|| {
                        Error::write_conflict(
                            txn,
                            key.to_string(),
                            format!(
                                "txn {} lost first-writer-wins to txn {txn} on {key} \
                                 (committed at csn {csn}, snapshot high {})",
                                snap.txn, snap.high
                            ),
                        )
                    })
                })
            });
            if let Some(err) = conflict {
                // Put the write set back: the caller rolls the transaction
                // back, which consults nothing here, but abort() must
                // still clear it.
                g.writes.insert(snap.txn, writes);
                return Err(err);
            }
        }
        g.next_csn += 1;
        let csn = g.next_csn;
        g.status.insert(snap.txn, TxnStatus::Committed(csn));
        g.snapshots.remove(&snap.txn);
        for w in writes {
            g.committed.insert(w, (csn, snap.txn));
        }
        Ok(csn)
    }

    /// Mark a transaction aborted and drop its write set.
    pub fn abort(&self, txn: u64) {
        let mut g = self.inner.lock();
        if txn == 0 {
            g.status.remove(&0);
            return;
        }
        g.status.insert(txn, TxnStatus::Aborted);
        g.snapshots.remove(&txn);
        g.writes.remove(&txn);
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
    /// drop committed write-set entries at `csn <= horizon` (no live or
    /// future snapshot can lose validation to them) and transaction
    /// statuses neither active nor referenced by a surviving chain stamp.
    pub fn prune_history(&self, horizon: u64, referenced: &HashSet<u64>) {
        let mut g = self.inner.lock();
        g.status
            .retain(|txn, s| matches!(s, TxnStatus::Active) || referenced.contains(txn));
        g.committed.retain(|_, &mut (csn, _)| csn > horizon);
    }
}

/// The address of one row chain: a heap rowid or an IOT key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowKey<'a> {
    Rid(RowId),
    Key(&'a Key),
}

impl RowKey<'_> {
    /// The key this row's writes are validated under at commit.
    pub(crate) fn write_key(self) -> WriteKey {
        match self {
            RowKey::Rid(rid) => WriteKey::Rid(rid),
            RowKey::Key(key) => WriteKey::Key(key.clone()),
        }
    }
}

/// One displaced row version: the image, the transactions that wrote it
/// (`begin`) and displaced it (`end`), and the IOT logical-rowid ordinal it
/// was reachable under, so secondary-index fetches into history still
/// resolve (0 for a heap version: its rowid is the chain's key).
#[derive(Debug, Clone)]
pub struct RowVersion {
    pub row: Row,
    pub begin: u64,
    pub end: u64,
    pub ord: u64,
}

impl RowVersion {
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
        &'a self,
        txns: &TxnManager,
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
        Some((&v.row, Some(v.ord)))
    }

    /// Transaction `t` writes the row: `old` is the in-place version it
    /// displaces, with the ordinal it is reachable under (`None` for an
    /// insert), and `gone` says the row leaves physically (an IOT delete).
    /// A displaced version `t` wrote itself is not kept — nobody else can
    /// see the intermediate image — except by a delete, whose rollback must
    /// pop it to restore `t`'s stamp.
    pub(crate) fn write(&mut self, t: u64, old: Option<(&Row, u64)>, gone: bool) {
        if let Some((row, ord)) = old {
            if gone || self.begin != Some(t) {
                let begin = self.begin.unwrap_or(0);
                self.older.insert(0, RowVersion { row: row.clone(), begin, end: t, ord });
            }
        }
        self.begin = (!gone).then_some(t);
    }

    /// Undo `t`'s write now that the in-place image is `restored` (`None`:
    /// the undone write was an insert, the row is gone again): pop the
    /// version that write displaced, if it was the displacing one — its
    /// undo image matches the newest version, which `t` ended.
    pub(crate) fn undo(&mut self, t: u64, restored: Option<&Row>) {
        let Some(old) = restored else {
            if self.begin == Some(t) {
                self.begin = None;
            }
            return;
        };
        let head = self.older.first();
        if self.begin.is_none_or(|b| b == t) && head.is_some_and(|v| v.end == t && v.row == *old) {
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

/// One displaced LOB byte span: the before-image of `[start, start+len)`
/// as it stood when transaction `by` overwrote it. `old` is clipped to the
/// pre-write LOB length, so `old.len() < len` means the write extended the
/// LOB past its previous end. `len == WHOLE_LOB` marks a whole-LOB
/// operation (overwrite/free) whose `old` is the complete prior content.
#[derive(Debug, Clone)]
pub struct LobSpanVersion {
    pub start: u64,
    pub len: u64,
    pub old: Vec<u8>,
    pub by: u64,
}

/// Un-apply one span patch: restore the before-image bytes **in place**.
/// Reconstruction is offset-stable — bytes are never shifted — so offsets
/// computed against a snapshot image stay valid against the physical LOB.
/// The portion a write *extended* (beyond the clipped before-image) is
/// truncated when it reaches the current end, else hole-filled with `0xFF`
/// — the convention record-structured stores read as a tombstone, exactly
/// like a skipped record.
pub fn unapply_span(content: &mut Vec<u8>, v: &LobSpanVersion) {
    if v.len == WHOLE_LOB {
        *content = v.old.clone();
        return;
    }
    let start = v.start as usize;
    let old_end = start + v.old.len();
    let write_end = start + v.len as usize;
    if content.len() < old_end {
        content.resize(old_end, 0xFF);
    }
    content[start..old_end].copy_from_slice(&v.old);
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
pub fn resolve_lob_image(
    txns: &TxnManager,
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
            unapply_span(&mut content, v);
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
/// snapshot horizon), so legacy single-session behavior — including
/// physical layout — is untouched. A row chain is written only through
/// [`Self::edit`]; the direct lane (transaction 0) keeps none.
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
    /// trivial. A no-op for the direct lane (`t == 0`).
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
    /// by `snap`'s transaction: another *active* transaction holding a
    /// writer stamp on the row conflicts (overlay MVCC cannot hold two
    /// uncommitted in-place versions), and with `committed` checks on so
    /// does a write committed after `snap` ([`TxnManager::check_committed`]).
    pub(crate) fn check_write(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        committed: bool,
        seg: SegmentId,
        key: RowKey,
    ) -> Result<()> {
        let t = snap.txn;
        if t == 0 {
            return Ok(());
        }
        let wref = WriteRef { seg, key: key.write_key() };
        let mut stamps = self.chain(seg, key).into_iter().flat_map(RowChain::writer_stamps);
        if let Some(stamp) = stamps.find(|&s| s != 0 && s != t && txns.is_active(s)) {
            let what = wref.to_string();
            let detail = format!("txn {t}: {what} has an uncommitted version from txn {stamp}");
            return Err(Error::write_conflict(stamp, what, detail));
        }
        if committed {
            txns.check_committed(&wref, snap)
        } else {
            Ok(())
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
    pub(crate) fn displaced(&self, seg: SegmentId) -> impl Iterator<Item = (RowId, &Row)> {
        let chains = self.heap.get(&seg).into_iter().flatten();
        chains.flat_map(|(&rid, c)| c.older.iter().map(move |v| (rid, &v.row)))
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
        let csn = m.commit(&s2, true).unwrap();
        // s1 predates the commit: still invisible. A later snapshot sees it.
        assert!(!m.stamp_visible(s2.txn, &s1));
        let s3 = m.begin();
        assert!(s3.high >= csn);
        assert!(m.stamp_visible(s2.txn, &s3));
        assert!(m.stamp_visible(s2.txn, &Snapshot::latest()));
    }

    #[test]
    fn first_writer_wins_validation() {
        let m = TxnManager::default();
        let a = m.begin();
        let b = m.begin();
        let row = WriteRef { seg: SegmentId(1), key: WriteKey::Rid(RowId::new(1, 0, 0)) };
        m.record_write(a.txn, row.clone());
        m.record_write(b.txn, row.clone());
        m.commit(&a, true).unwrap();
        let err = m.commit(&b, true).unwrap_err();
        match &err {
            Error::WriteConflict { other_txn, key, .. } => {
                assert_eq!(*other_txn, a.txn, "conflict names the winning txn");
                assert!(key.contains("rowid"), "conflict names the contended key: {key}");
            }
            other => panic!("expected WriteConflict, got {other}"),
        }
        // Unenforced, the same situation commits (lost update on purpose).
        let c = m.begin();
        m.record_write(c.txn, row.clone());
        assert!(m.commit(&c, false).is_ok());
    }

    #[test]
    fn lob_span_conflicts_are_range_granular() {
        let m = TxnManager::default();
        let seg = SegmentId(u32::MAX);
        let lob = LobRef(7);
        let span = |start, end| WriteRef { seg, key: WriteKey::LobSpan { lob, start, end } };
        // a and b write disjoint ranges: both commit.
        let a = m.begin();
        let b = m.begin();
        m.record_write(a.txn, span(0, 40));
        m.record_write(b.txn, span(40, 80));
        m.commit(&a, true).unwrap();
        m.commit(&b, true).unwrap();
        // c (snapshot predating both) overlapping b's range: conflict.
        let c = m.begin();
        let d = m.begin();
        m.record_write(c.txn, span(72, 80));
        m.record_write(d.txn, span(72, 80));
        m.commit(&c, true).unwrap();
        let err = m.commit(&d, true).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { other_txn, .. } if other_txn == c.txn));
        // Whole-LOB span contends with everything on the locator.
        let e = m.begin();
        let f = m.begin();
        m.record_write(e.txn, span(0, WHOLE_LOB));
        m.record_write(f.txn, span(100, 108));
        m.commit(&e, true).unwrap();
        assert!(m.commit(&f, true).is_err());
        // …but a different locator never contends.
        let g = m.begin();
        m.record_write(
            g.txn,
            WriteRef { seg, key: WriteKey::LobSpan { lob: LobRef(8), start: 0, end: 8 } },
        );
        m.commit(&g, true).unwrap();
    }

    #[test]
    fn horizon_tracks_oldest_active_snapshot() {
        let m = TxnManager::default();
        assert_eq!(m.horizon(), 0, "idle horizon = csn watermark");
        let a = m.begin();
        let b = m.begin();
        m.commit(&b, true).unwrap(); // csn 1
        let c = m.begin(); // high = 1
        assert_eq!(m.horizon(), a.high, "oldest active snapshot pins the horizon");
        m.commit(&a, true).unwrap(); // csn 2
        assert_eq!(m.horizon(), c.high);
        m.abort(c.txn);
        assert_eq!(m.horizon(), 2, "quiescent horizon returns to the watermark");
    }

    #[test]
    fn prune_history_keeps_referenced_and_recent() {
        let m = TxnManager::default();
        let a = m.begin();
        let b = m.begin();
        let r1 = WriteRef { seg: SegmentId(1), key: WriteKey::Rid(RowId::new(1, 0, 0)) };
        let r2 = WriteRef { seg: SegmentId(1), key: WriteKey::Rid(RowId::new(1, 0, 1)) };
        m.record_write(a.txn, r1.clone());
        m.record_write(b.txn, r2.clone());
        let csn_a = m.commit(&a, true).unwrap();
        m.commit(&b, true).unwrap();
        // Horizon past a's commit but short of b's: a's entry prunes, b's stays.
        let referenced = HashSet::from([b.txn]);
        m.prune_history(csn_a, &referenced);
        assert!(m.committed_writer(&r1).is_none(), "pruned below the horizon");
        assert!(m.committed_writer(&r2).is_some(), "kept above the horizon");
        assert!(m.status(a.txn).is_none(), "unreferenced status dropped");
        assert_eq!(m.committed_csn(b.txn), Some(2), "referenced stamp still resolvable");
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
        // a updated a bootstrap row in place.
        let chain = RowChain {
            begin: Some(a.txn),
            dead: None,
            older: vec![RowVersion { row: old.clone(), begin: 0, end: a.txn, ord: 0 }],
        };
        fn resolve<'a>(
            m: &TxnManager,
            chain: &'a RowChain,
            physical: Option<&'a Row>,
            snap: &Snapshot,
        ) -> Option<&'a Row> {
            chain.resolve(m, physical, snap).map(|(row, _)| row)
        }
        let reader = m.begin();
        assert_eq!(resolve(&m, &chain, Some(&new), &reader), Some(&old));
        assert_eq!(resolve(&m, &chain, Some(&new), &a), Some(&new));
        m.commit(&a, true).unwrap();
        // Pre-commit reader still sees the old version; new readers the new.
        assert_eq!(resolve(&m, &chain, Some(&new), &reader), Some(&old));
        assert_eq!(resolve(&m, &chain, Some(&new), &Snapshot::latest()), Some(&new));
    }

    #[test]
    fn unapply_span_is_offset_stable() {
        // Physical: a write of "XY" over "bc" at offset 1, then an append
        // of "ef" at offset 4 — both by invisible txns.
        let mut content = b"aXYdef".to_vec();
        // Un-apply newest first: the append (no before-image, pure extension).
        unapply_span(
            &mut content,
            &LobSpanVersion { start: 4, len: 2, old: vec![], by: 9 },
        );
        assert_eq!(content, b"aXYd", "append at the end truncates back");
        unapply_span(
            &mut content,
            &LobSpanVersion { start: 1, len: 2, old: b"bc".to_vec(), by: 8 },
        );
        assert_eq!(content, b"abcd", "overwrite restores the before-image in place");
        // Extension *under* a still-visible later write hole-fills with 0xFF
        // instead of shifting the later bytes.
        let mut content = b"aXYZtail".to_vec();
        unapply_span(
            &mut content,
            &LobSpanVersion { start: 1, len: 3, old: b"b".to_vec(), by: 8 },
        );
        assert_eq!(content, b"ab\xFF\xFFtail", "hole-filled, offsets preserved");
        // Whole-LOB sentinel restores the complete prior image.
        let mut content = b"replaced".to_vec();
        unapply_span(
            &mut content,
            &LobSpanVersion { start: 0, len: WHOLE_LOB, old: b"orig".to_vec(), by: 8 },
        );
        assert_eq!(content, b"orig");
    }

    #[test]
    fn lob_image_resolution_patches_invisible_spans() {
        let m = TxnManager::default();
        let a = m.begin();
        let chain = LobChain {
            begin: 0,
            spans: vec![LobSpanVersion { start: 0, len: 2, old: b"ab".to_vec(), by: a.txn }],
        };
        let reader = m.begin();
        match resolve_lob_image(&m, &chain, b"XYcd", &reader) {
            LobImage::Patched(img) => assert_eq!(img, b"abcd"),
            _ => panic!("expected patched image for pre-write reader"),
        }
        assert!(matches!(resolve_lob_image(&m, &chain, b"XYcd", &a), LobImage::Current));
        m.commit(&a, true).unwrap();
        assert!(matches!(
            resolve_lob_image(&m, &chain, b"XYcd", &Snapshot::latest()),
            LobImage::Current
        ));
        // A LOB allocated by an invisible txn is absent.
        let b = m.begin();
        let chain = LobChain { begin: b.txn, spans: vec![] };
        assert!(matches!(
            resolve_lob_image(&m, &chain, b"zz", &reader),
            LobImage::Absent
        ));
    }
}
