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
//!   a [`HeapChain`]/[`IotChain`] entry carrying the begin/end stamps of
//!   the in-place version plus the displaced older versions;
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
//! Heap deletes are **deferred**: the chain marks the in-place version
//! dead and the slot is only freed once the delete's CSN drops below the
//! horizon, so a rowid is never recycled while a snapshot that can still
//! see the old row exists. IOT deletes are physically immediate (ordinals
//! are never reused), with the deleted row kept as a ghost version in the
//! chain.

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

impl std::fmt::Display for WriteKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteKey::Rid(rid) => write!(f, "heap rowid {rid:?}"),
            WriteKey::Key(k) => write!(f, "iot key {k:?}"),
            WriteKey::LobSpan { lob, start, end } => {
                if *end == WHOLE_LOB {
                    write!(f, "{lob} (whole)")
                } else {
                    write!(f, "{lob} bytes [{start}, {end})")
                }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriteRef {
    pub seg: SegmentId,
    pub key: WriteKey,
}

impl std::fmt::Display for WriteRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg {} {}", self.seg.0, self.key)
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

    /// The latest committed writer contending with `wref`, if any writer
    /// committed since its entry was pruned: `(csn, txn)`.
    pub fn committed_writer(&self, wref: &WriteRef) -> Option<(u64, u64)> {
        self.inner
            .lock()
            .committed_contender(wref)
            .map(|(csn, txn, _)| (csn, txn))
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

/// One displaced heap version: the row image plus its validity interval.
/// `end` is the transaction that superseded (or deleted) it.
#[derive(Debug, Clone)]
pub struct HeapVersion {
    pub row: Row,
    pub begin: u64,
    pub end: u64,
}

/// Version chain for one heap rowid. The in-place (physical) version is
/// *not* duplicated here — only its stamps are.
#[derive(Debug, Clone, Default)]
pub struct HeapChain {
    /// Stamp of the transaction that wrote the in-place version (0 =
    /// bootstrap data displaced by `older` pushes).
    pub begin: u64,
    /// Deleting transaction, if the in-place version was deleted. The
    /// physical slot survives until the delete's CSN drops below the
    /// vacuum horizon (rowid-reuse safety).
    pub dead: Option<u64>,
    /// Displaced versions, newest first.
    pub older: Vec<HeapVersion>,
}

impl HeapChain {
    /// A chain carrying no information (equivalent to no chain).
    pub fn is_trivial(&self) -> bool {
        self.begin == 0 && self.dead.is_none() && self.older.is_empty()
    }

    /// Versions held beyond the in-place row.
    pub fn version_count(&self) -> usize {
        self.older.len()
    }
}

/// One displaced IOT version, keeping the logical rowid (ordinal) it was
/// reachable under so secondary-index fetches into history still resolve.
#[derive(Debug, Clone)]
pub struct IotVersion {
    pub row: Row,
    pub begin: u64,
    pub end: u64,
    pub ord: u64,
}

/// Version chain for one IOT key. `current` describes the physically
/// present row for the key; `None` means the key is physically absent
/// (ghost-only chain after a delete).
#[derive(Debug, Clone, Default)]
pub struct IotChain {
    pub current: Option<IotCurrent>,
    pub older: Vec<IotVersion>,
}

#[derive(Debug, Clone)]
pub struct IotCurrent {
    pub begin: u64,
}

impl IotChain {
    pub fn is_trivial(&self) -> bool {
        self.older.is_empty() && self.current.as_ref().is_none_or(|c| c.begin == 0)
    }

    pub fn version_count(&self) -> usize {
        self.older.len()
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

    pub fn version_count(&self) -> usize {
        self.spans.len()
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

/// All version chains, segment-keyed. Empty whenever nothing concurrent
/// is in flight (the engine prunes incrementally against the snapshot
/// horizon), so legacy single-session behavior — including physical
/// layout — is untouched.
#[derive(Default)]
pub struct VersionStore {
    pub heap: HashMap<SegmentId, HashMap<RowId, HeapChain>>,
    pub iot: HashMap<SegmentId, BTreeMap<Key, IotChain>>,
    pub lobs: HashMap<LobRef, LobChain>,
}

impl VersionStore {
    pub fn is_empty(&self) -> bool {
        self.heap.values().all(|m| m.is_empty())
            && self.iot.values().all(|m| m.is_empty())
            && self.lobs.is_empty()
    }

    pub fn heap_chain(&self, seg: SegmentId, rid: RowId) -> Option<&HeapChain> {
        self.heap.get(&seg).and_then(|m| m.get(&rid))
    }

    pub fn heap_chain_mut(&mut self, seg: SegmentId, rid: RowId) -> &mut HeapChain {
        self.heap.entry(seg).or_default().entry(rid).or_default()
    }

    pub fn drop_heap_chain(&mut self, seg: SegmentId, rid: RowId) {
        if let Some(m) = self.heap.get_mut(&seg) {
            m.remove(&rid);
        }
    }

    pub fn iot_chain(&self, seg: SegmentId, key: &Key) -> Option<&IotChain> {
        self.iot.get(&seg).and_then(|m| m.get(key))
    }

    pub fn iot_chain_mut(&mut self, seg: SegmentId, key: Key) -> &mut IotChain {
        self.iot.entry(seg).or_default().entry(key).or_default()
    }

    pub fn drop_iot_chain(&mut self, seg: SegmentId, key: &Key) {
        if let Some(m) = self.iot.get_mut(&seg) {
            m.remove(key);
        }
    }

    /// Remove all chains for a dropped/truncated segment.
    pub fn forget_segment(&mut self, seg: SegmentId) {
        self.heap.remove(&seg);
        self.iot.remove(&seg);
    }

    /// Every nonzero transaction stamp referenced by a surviving chain —
    /// the statuses [`TxnManager::prune_history`] must retain.
    pub fn referenced_stamps(&self) -> HashSet<u64> {
        let mut out = HashSet::new();
        let mut add = |s: u64| {
            if s != 0 {
                out.insert(s);
            }
        };
        for m in self.heap.values() {
            for c in m.values() {
                add(c.begin);
                if let Some(d) = c.dead {
                    add(d);
                }
                for v in &c.older {
                    add(v.begin);
                    add(v.end);
                }
            }
        }
        for m in self.iot.values() {
            for c in m.values() {
                if let Some(cur) = &c.current {
                    add(cur.begin);
                }
                for v in &c.older {
                    add(v.begin);
                    add(v.end);
                }
            }
        }
        for c in self.lobs.values() {
            add(c.begin);
            for v in &c.spans {
                add(v.by);
            }
        }
        out
    }
}

/// Resolve a heap row to the version visible under `snap`, given its
/// chain. `physical` is the in-place row. Returns `None` if no version is
/// visible.
pub(crate) fn resolve_heap<'a>(
    txns: &TxnManager,
    chain: &'a HeapChain,
    physical: Option<&'a Row>,
    snap: &Snapshot,
) -> Option<&'a Row> {
    if txns.stamp_visible(chain.begin, snap) {
        let deleted = chain.dead.is_some_and(|d| txns.stamp_visible(d, snap));
        return if deleted { None } else { physical };
    }
    chain
        .older
        .iter()
        .find(|v| txns.stamp_visible(v.begin, snap) && !txns.stamp_visible(v.end, snap))
        .map(|v| &v.row)
}

/// Resolve an IOT key to the version visible under `snap`. `physical` is
/// the physically present row for the key, if any.
pub(crate) fn resolve_iot<'a>(
    txns: &TxnManager,
    chain: &'a IotChain,
    physical: Option<&'a Row>,
    snap: &Snapshot,
) -> Option<(&'a Row, Option<u64>)> {
    if let (Some(cur), Some(row)) = (&chain.current, physical) {
        if txns.stamp_visible(cur.begin, snap) {
            return Some((row, None));
        }
    } else if chain.current.is_none() && physical.is_some() {
        // Physical row with a ghost-only chain should not happen, but be
        // conservative: treat the physical row as bootstrap-visible.
        return physical.map(|r| (r, None));
    }
    chain
        .older
        .iter()
        .find(|v| txns.stamp_visible(v.begin, snap) && !txns.stamp_visible(v.end, snap))
        .map(|v| (&v.row, Some(v.ord)))
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
        let chain = HeapChain {
            begin: a.txn,
            dead: None,
            older: vec![HeapVersion { row: old.clone(), begin: 0, end: a.txn }],
        };
        let reader = m.begin();
        assert_eq!(resolve_heap(&m, &chain, Some(&new), &reader), Some(&old));
        assert_eq!(resolve_heap(&m, &chain, Some(&new), &a), Some(&new));
        m.commit(&a, true).unwrap();
        // Pre-commit reader still sees the old version; new readers the new.
        assert_eq!(resolve_heap(&m, &chain, Some(&new), &reader), Some(&old));
        assert_eq!(resolve_heap(&m, &chain, Some(&new), &Snapshot::latest()), Some(&new));
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
