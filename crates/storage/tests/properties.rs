//! Model-based property tests for the storage engine: heap operations
//! against a reference map, IOT range reads against one map per snapshot,
//! and rollback restoring exact prior state.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use extidx_common::{Key, Row, RowId, Value};
use extidx_storage::{SegmentId, Snapshot, StorageEngine, TxnStatus};

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(i64),
    Update(usize, i64),
    Delete(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<i64>().prop_map(HeapOp::Insert),
            (any::<usize>(), any::<i64>()).prop_map(|(i, v)| HeapOp::Update(i, v)),
            any::<usize>().prop_map(HeapOp::Delete),
        ],
        0..60,
    )
}

fn row(v: i64) -> Row {
    vec![Value::Integer(v), Value::from(format!("payload-{v}"))]
}

proptest! {
    /// Heap table behaves exactly like a map keyed by rowid.
    #[test]
    fn heap_matches_reference_model(ops in arb_ops()) {
        let mut engine = StorageEngine::new(256);
        let seg = engine.create_heap().unwrap();
        let mut model: BTreeMap<RowId, Row> = BTreeMap::new();
        let mut live: Vec<RowId> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(v) => {
                    let rid = engine.insert(seg, row(v)).unwrap();
                    prop_assert!(!model.contains_key(&rid), "fresh rowid must be unused");
                    model.insert(rid, row(v));
                    live.push(rid);
                }
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    let old = model.get(&rid).unwrap();
                    prop_assert_eq!(engine.update(seg, rid, old, row(v)).unwrap(), rid);
                    model.insert(rid, row(v));
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    let old = engine.delete(seg, rid, model.get(&rid).unwrap()).unwrap();
                    prop_assert_eq!(&old, model.get(&rid).unwrap());
                    model.remove(&rid);
                }
                _ => {}
            }
        }

        // Final state: every model row fetchable, scan sees exactly them —
        // the physical scan and the snapshot-pinned page walk alike.
        let latest = Snapshot::latest();
        for (rid, expected) in &model {
            let fetched = engine.fetch(seg, &[*rid], &latest).unwrap();
            prop_assert_eq!(fetched, vec![Some(expected)]);
        }
        let scanned: BTreeMap<RowId, Row> = engine
            .heap(seg)
            .unwrap()
            .scan()
            .map(|(rid, _, r)| (rid, r.clone()))
            .collect();
        prop_assert_eq!(&scanned, &model);
        let mut walked: BTreeMap<RowId, Row> = BTreeMap::new();
        let mut page = 0;
        while let Some(rows) = engine.heap_page(seg, page, 0, &latest).unwrap() {
            walked.extend(rows.map(|(rid, r)| (rid, r.clone())));
            page += 1;
        }
        prop_assert_eq!(walked, model);
    }

    /// Any transactional op sequence fully unwinds on rollback.
    #[test]
    fn rollback_restores_exact_state(before in arb_ops(), during in arb_ops()) {
        let mut engine = StorageEngine::new(256);
        let seg = engine.create_heap().unwrap();
        let mut live: Vec<RowId> = Vec::new();

        // Committed prefix.
        for op in before {
            match op {
                HeapOp::Insert(v) => live.push(engine.insert(seg, row(v)).unwrap()),
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    let old = engine.heap(seg).unwrap().fetch(rid).unwrap().clone();
                    engine.update(seg, rid, &old, row(v)).unwrap();
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    let old = engine.heap(seg).unwrap().fetch(rid).unwrap().clone();
                    engine.delete(seg, rid, &old).unwrap();
                }
                _ => {}
            }
        }
        let snapshot: BTreeMap<RowId, Row> = engine
            .heap(seg)
            .unwrap()
            .scan()
            .map(|(rid, _, r)| (rid, r.clone()))
            .collect();

        // Suffix past a savepoint, then rollback to it.
        let mark = engine.undo_mark();
        let mut txn_live = live.clone();
        for op in during {
            match op {
                HeapOp::Insert(v) => {
                    txn_live.push(engine.insert(seg, row(v)).unwrap())
                }
                HeapOp::Update(i, v) if !txn_live.is_empty() => {
                    let rid = txn_live[i % txn_live.len()];
                    if let Ok(old) = engine.heap(seg).unwrap().fetch(rid).cloned() {
                        engine.update(seg, rid, &old, row(v)).unwrap();
                    }
                }
                HeapOp::Delete(i) if !txn_live.is_empty() => {
                    let idx = i % txn_live.len();
                    let rid = txn_live.swap_remove(idx);
                    if let Ok(old) = engine.heap(seg).unwrap().fetch(rid).cloned() {
                        engine.delete(seg, rid, &old).unwrap();
                    }
                }
                _ => {}
            }
        }
        engine.rollback_to(mark).unwrap();

        let after: BTreeMap<RowId, Row> = engine
            .heap(seg)
            .unwrap()
            .scan()
            .map(|(rid, _, r)| (rid, r.clone()))
            .collect();
        prop_assert_eq!(after, snapshot);
    }

    /// Cache counters: hits never exceed logical reads; physical reads
    /// never exceed logical reads.
    #[test]
    fn cache_counter_invariants(pages in prop::collection::vec(0u32..40, 1..200), cap in 1usize..32) {
        let engine = StorageEngine::new(cap);
        let seg = SegmentId(1);
        for p in &pages {
            engine.cache().read((seg, *p));
        }
        let s = engine.cache_stats();
        prop_assert!(s.physical_reads <= s.logical_reads);
        prop_assert_eq!(s.logical_reads, pages.len() as u64);
        prop_assert!(engine.cache().resident_pages() <= cap);
    }

    /// LOB read-back equals what was written, at every offset.
    #[test]
    fn lob_write_read_consistency(
        chunks in prop::collection::vec((0u64..5000, prop::collection::vec(any::<u8>(), 0..300)), 0..12),
    ) {
        let mut engine = StorageEngine::new(64);
        let lob = engine.lob_allocate().unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (off, bytes) in &chunks {
            let off = *off as usize;
            if model.len() < off + bytes.len() {
                model.resize(off + bytes.len(), 0);
            }
            model[off..off + bytes.len()].copy_from_slice(bytes);
            engine.lob_write(lob, off as u64, bytes).unwrap();
        }
        let seen = engine.lob_read_all(lob, &Snapshot::latest(), <[u8]>::to_vec).unwrap();
        prop_assert_eq!(seen, model);
    }
}

proptest! {
    /// `fetch` from a heap returns exactly what N single `HeapTable::fetch`
    /// calls would, in the caller's order — regardless of how the batch
    /// is internally sorted by (page, slot) — charges the cache once per
    /// distinct page, and errors whenever a requested rowid is deleted,
    /// just like the single-row path.
    #[test]
    fn heap_fetch_multi_matches_single_fetches(
        values in prop::collection::vec(any::<i64>(), 1..80),
        picks in prop::collection::vec(any::<usize>(), 0..120),
        deletes in prop::collection::vec(any::<usize>(), 0..10),
    ) {
        let mut engine = StorageEngine::new(256);
        let seg = engine.create_heap().unwrap();
        let mut live: Vec<RowId> = values
            .iter()
            .map(|&v| engine.insert(seg, row(v)).unwrap())
            .collect();
        let mut dead: Vec<RowId> = Vec::new();
        for d in deletes {
            if live.len() <= 1 {
                break;
            }
            let rid = live.swap_remove(d % live.len());
            let old = engine.heap(seg).unwrap().fetch(rid).unwrap().clone();
            engine.delete(seg, rid, &old).unwrap();
            dead.push(rid);
        }

        // All-live batch, in an arbitrary (possibly repeating) order.
        let batch: Vec<RowId> = picks.iter().map(|&i| live[i % live.len()]).collect();
        let latest = Snapshot::latest();
        let before = engine.cache_stats();
        let multi = engine.fetch(seg, &batch, &latest).unwrap();
        let charged = engine.cache_stats().since(&before).logical_reads;
        let heap = engine.heap(seg).unwrap();
        let singles: Vec<Option<&Row>> =
            batch.iter().map(|&rid| Some(heap.fetch(rid).unwrap())).collect();
        prop_assert_eq!(multi, singles);
        let pages: std::collections::BTreeSet<u32> = batch.iter().map(|rid| rid.page).collect();
        prop_assert_eq!(charged, pages.len() as u64, "one logical read per distinct page");

        // A batch containing any deleted rowid fails, as single fetch does.
        if let Some(&bad) = dead.first() {
            let mut poisoned = batch.clone();
            poisoned.push(bad);
            prop_assert!(heap.fetch(bad).is_err());
            prop_assert!(engine.fetch(seg, &poisoned, &latest).is_err());
        }
    }
}

// ---- per-transaction undo: nested savepoints, interleaved transactions ----

#[derive(Debug, Clone)]
enum MixedOp {
    HeapInsert(i64),
    HeapUpdate(usize, i64),
    HeapDelete(usize),
    IotUpsert(i64, i64),
    IotDelete(i64),
    LobWrite(u64, Vec<u8>),
    LobAppend(Vec<u8>),
}

fn arb_mixed() -> impl Strategy<Value = Vec<MixedOp>> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..40);
    prop::collection::vec(
        prop_oneof![
            any::<i64>().prop_map(MixedOp::HeapInsert),
            (any::<usize>(), any::<i64>()).prop_map(|(i, v)| MixedOp::HeapUpdate(i, v)),
            any::<usize>().prop_map(MixedOp::HeapDelete),
            (0i64..12, any::<i64>()).prop_map(|(k, v)| MixedOp::IotUpsert(k, v)),
            (0i64..12).prop_map(MixedOp::IotDelete),
            (0u64..200, bytes()).prop_map(|(o, b)| MixedOp::LobWrite(o, b)),
            bytes().prop_map(MixedOp::LobAppend),
        ],
        0..25,
    )
}

/// One transaction's footprint. Lanes never write the same row, key or
/// LOB (the engine would rightly refuse the second writer), so whatever
/// one lane's rollback disturbs in another is a mixed-up log.
struct TxnLane {
    snap: Snapshot,
    heap_live: Vec<RowId>,
    key_base: i64,
    lob: extidx_common::LobRef,
}

type View = (BTreeMap<RowId, Row>, Vec<(RowId, Row)>, Vec<u8>);

fn apply(e: &mut StorageEngine, heap: SegmentId, iot: SegmentId, lane: &mut TxnLane, ops: &[MixedOp]) {
    e.set_current_txn(lane.snap);
    let snap = lane.snap;
    for op in ops {
        let live = &mut lane.heap_live;
        match op {
            MixedOp::HeapInsert(v) => live.push(e.insert(heap, row(*v)).unwrap()),
            MixedOp::HeapUpdate(i, v) if !live.is_empty() => {
                let rid = live[i % live.len()];
                let old = e.fetch(heap, &[rid], &snap).unwrap()[0].cloned().unwrap();
                e.update(heap, rid, &old, row(*v)).unwrap();
            }
            MixedOp::HeapDelete(i) if !live.is_empty() => {
                let rid = live.swap_remove(i % live.len());
                let old = e.fetch(heap, &[rid], &snap).unwrap()[0].cloned().unwrap();
                e.delete(heap, rid, &old).unwrap();
            }
            MixedOp::IotUpsert(k, v) => {
                let r = vec![Value::Integer(lane.key_base + k), Value::Integer(*v)];
                iot_put(e, iot, r, &snap).unwrap();
            }
            MixedOp::IotDelete(k) => iot_remove(e, iot, lane.key_base + k, &snap).unwrap(),
            MixedOp::LobWrite(off, bytes) => e.lob_write(lane.lob, *off, bytes).unwrap(),
            MixedOp::LobAppend(bytes) => {
                e.lob_append(lane.lob, bytes).unwrap();
            }
            _ => {}
        }
    }
    e.set_current_txn(Snapshot::latest());
}

/// Everything `snap` can see: heap rows, IOT rows with their logical
/// rowids, the lane's LOB bytes.
fn view(e: &StorageEngine, heap: SegmentId, iot: SegmentId, lane: &TxnLane) -> View {
    let mut rows = BTreeMap::new();
    let mut page = 0;
    while let Some(visible) = e.heap_page(heap, page, 0, &lane.snap).unwrap() {
        rows.extend(visible.map(|(rid, r)| (rid, r.clone())));
        page += 1;
    }
    let all = (Bound::Unbounded, Bound::Unbounded);
    let keyed = e.iot_range(iot, all.0, all.1, usize::MAX, &lane.snap).unwrap();
    let keyed = keyed.into_iter().map(|(rid, _, r)| (rid, r.clone())).collect();
    (rows, keyed, e.lob_read_all(lane.lob, &lane.snap, <[u8]>::to_vec).unwrap())
}

fn mark_of(e: &mut StorageEngine, lane: &TxnLane) -> usize {
    e.set_current_txn(lane.snap);
    let mark = e.undo_mark();
    e.set_current_txn(Snapshot::latest());
    mark
}

proptest! {
    /// Savepoints nest, and logs of interleaved transactions never mix:
    /// rolling A back to `mark₂` then `mark₁` restores exactly what A saw
    /// at each, and neither that nor A's abort touches what B did.
    #[test]
    fn nested_savepoints_and_interleaved_transactions(
        prefix in arb_mixed(),
        a in (arb_mixed(), arb_mixed(), arb_mixed()),
        b in (arb_mixed(), arb_mixed(), arb_mixed()),
    ) {
        let mut e = StorageEngine::new(256);
        let heap = e.create_heap().unwrap();
        let iot = e.create_iot(1).unwrap();
        let lob = e.lob_allocate().unwrap();
        let txns = e.txn_manager();

        // Committed prefix on the direct lane, in A's key range.
        let mut base = TxnLane { snap: Snapshot::latest(), heap_live: Vec::new(), key_base: 0, lob };
        apply(&mut e, heap, iot, &mut base, &prefix);
        e.commit_txn(Snapshot::latest());
        let committed = view(&e, heap, iot, &base);

        let mut ta = TxnLane { snap: txns.begin(), heap_live: base.heap_live.clone(), key_base: 0, lob };
        let b_lob = e.lob_allocate().unwrap();
        e.commit_txn(Snapshot::latest());
        let mut tb = TxnLane { snap: txns.begin(), heap_live: Vec::new(), key_base: 1000, lob: b_lob };

        apply(&mut e, heap, iot, &mut ta, &a.0);
        apply(&mut e, heap, iot, &mut tb, &b.0);
        let (mark1, at_mark1) = (mark_of(&mut e, &ta), view(&e, heap, iot, &ta));
        apply(&mut e, heap, iot, &mut ta, &a.1);
        apply(&mut e, heap, iot, &mut tb, &b.1);
        let (mark2, at_mark2) = (mark_of(&mut e, &ta), view(&e, heap, iot, &ta));
        apply(&mut e, heap, iot, &mut ta, &a.2);
        apply(&mut e, heap, iot, &mut tb, &b.2);
        let (b_mark, b_sees) = (mark_of(&mut e, &tb), view(&e, heap, iot, &tb));

        e.set_current_txn(ta.snap);
        e.rollback_to(mark2).unwrap();
        prop_assert_eq!(e.undo_mark(), mark2);
        prop_assert_eq!(&view(&e, heap, iot, &ta), &at_mark2);
        e.rollback_to(mark1).unwrap();
        prop_assert_eq!(e.undo_mark(), mark1);
        prop_assert_eq!(&view(&e, heap, iot, &ta), &at_mark1);
        e.set_current_txn(Snapshot::latest());
        prop_assert_eq!(&view(&e, heap, iot, &tb), &b_sees);

        e.rollback_txn(ta.snap).unwrap();
        prop_assert!(!txns.is_active(ta.snap.txn));
        prop_assert_eq!(mark_of(&mut e, &tb), b_mark);
        prop_assert_eq!(&view(&e, heap, iot, &tb), &b_sees);

        // With B gone too, the committed prefix is all that is left.
        e.rollback_txn(tb.snap).unwrap();
        prop_assert_eq!(e.undo_mark(), 0);
        prop_assert_eq!(&view(&e, heap, iot, &base), &committed);
    }
}

// ---- the one IOT read: a key-range merge of rows and version chains ----

/// One write of an open transaction: upsert `(key, value)` or delete `key`.
type IotWrite = (bool, i64, i64);

fn arb_writes() -> impl Strategy<Value = Vec<IotWrite>> {
    prop::collection::vec((any::<bool>(), -30i64..30, any::<i64>()), 0..30)
}

/// A key bound: 0 = `Unbounded`, 1 = `Included`, 2 = `Excluded`.
fn arb_bound() -> impl Strategy<Value = (u8, i64)> {
    (0u8..3, -70i64..70)
}

fn to_bound(kind: u8, key: &Key) -> Bound<&Key> {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Included(key),
        _ => Bound::Excluded(key),
    }
}

fn ikey(k: i64) -> Key {
    Key::single(Value::Integer(k))
}

/// The row `snap` sees under IOT key `k`, with its rowid.
fn iot_get(e: &StorageEngine, seg: SegmentId, k: i64, snap: &Snapshot) -> Option<(RowId, Row)> {
    let key = ikey(k);
    let got = e.iot_range(seg, Bound::Included(&key), Bound::Included(&key), 1, snap).unwrap();
    got.first().map(|&(rid, _, row)| (rid, row.clone()))
}

/// Write `row` as a statement reading under `snap` would: update the row
/// it sees under the key, else insert one.
fn iot_put(
    e: &mut StorageEngine,
    seg: SegmentId,
    row: Row,
    snap: &Snapshot,
) -> extidx_common::Result<RowId> {
    match iot_get(e, seg, row[0].as_integer().unwrap(), snap) {
        Some((rid, old)) => e.update(seg, rid, &old, row),
        None => e.insert(seg, row),
    }
}

/// Delete the row `snap` sees under key `k`, if any.
fn iot_remove(
    e: &mut StorageEngine,
    seg: SegmentId,
    k: i64,
    snap: &Snapshot,
) -> extidx_common::Result<()> {
    match iot_get(e, seg, k, snap) {
        Some((rid, old)) => e.delete(seg, rid, &old).map(drop),
        None => Ok(()),
    }
}

/// Apply one lane's writes to the engine and to that lane's model; keys
/// are `2k + parity`, so the two lanes never write the same key.
fn write_lane(
    e: &mut StorageEngine,
    seg: SegmentId,
    snap: Snapshot,
    parity: i64,
    writes: &[IotWrite],
    model: &mut BTreeMap<i64, i64>,
) {
    e.set_current_txn(snap);
    for &(upsert, k, v) in writes {
        let key = 2 * k + parity;
        if upsert {
            iot_put(e, seg, vec![Value::Integer(key), Value::Integer(v)], &snap).unwrap();
            model.insert(key, v);
        } else {
            iot_remove(e, seg, key, &snap).unwrap();
            model.remove(&key);
        }
    }
    e.set_current_txn(Snapshot::latest());
}

proptest! {
    /// `iot_range` over a segment with version chains: a committed prefix
    /// plus two open transactions that upsert and delete keys inside and
    /// outside the read's range. Under every snapshot, paging through any
    /// bounds (incl. `lo > hi` and `Excluded(k)` on both sides, which
    /// `BTreeMap::range` panics on) with an exclusive after-key and any
    /// `limit` returns exactly that snapshot's model of the range, in key
    /// order, and each row's rowid is one `fetch` resolves back to that
    /// row.
    #[test]
    fn iot_range_matches_btreemap(
        prefix in prop::collection::btree_map(-60i64..60, any::<i64>(), 0..80),
        a in arb_writes(),
        b in arb_writes(),
        reads in prop::collection::vec((arb_bound(), arb_bound(), 1usize..12), 1..6),
    ) {
        let mut e = StorageEngine::new(256);
        let seg = e.create_iot(1).unwrap();
        for (k, v) in &prefix {
            e.insert(seg, vec![Value::Integer(*k), Value::Integer(*v)]).unwrap();
        }
        e.commit_txn(Snapshot::latest());
        let txns = e.txn_manager();
        let early_reader = txns.begin();
        let (ta, tb) = (txns.begin(), txns.begin());
        let (mut model_a, mut model_b) = (prefix.clone(), prefix.clone());
        write_lane(&mut e, seg, ta, 0, &a, &mut model_a);
        write_lane(&mut e, seg, tb, 1, &b, &mut model_b);
        let late_reader = txns.begin();

        let lanes = [
            (Snapshot::latest(), &prefix),
            (early_reader, &prefix),
            (late_reader, &prefix),
            (ta, &model_a),
            (tb, &model_b),
        ];
        for ((lo_kind, lo), (hi_kind, hi), limit) in reads {
            let (lo_key, hi_key) = (ikey(lo), ikey(hi));
            let (lo_b, hi_b) = (to_bound(lo_kind, &lo_key), to_bound(hi_kind, &hi_key));
            let in_range = |k: &i64| {
                let k = ikey(*k);
                (match lo_b {
                    Bound::Unbounded => true,
                    Bound::Included(b) => k >= *b,
                    Bound::Excluded(b) => k > *b,
                }) && (match hi_b {
                    Bound::Unbounded => true,
                    Bound::Included(b) => k <= *b,
                    Bound::Excluded(b) => k < *b,
                })
            };
            for (snap, model) in &lanes {
                let expected: Vec<(i64, i64)> =
                    model.iter().filter(|(k, _)| in_range(k)).map(|(k, v)| (*k, *v)).collect();
                let mut got: Vec<(i64, i64)> = Vec::new();
                let mut after: Option<Key> = None;
                loop {
                    let from = after.as_ref().map_or(lo_b, Bound::Excluded);
                    let page = e.iot_range(seg, from, hi_b, limit, snap).unwrap();
                    prop_assert!(page.len() <= limit);
                    for &(rid, key, row) in &page {
                        prop_assert_eq!(&Key(row[..1].to_vec()), key);
                        let fetched = e.fetch(seg, &[rid], snap).unwrap();
                        let want = vec![Some(row)];
                        prop_assert_eq!(fetched, want, "{} under {:?}", rid, snap);
                        got.push((row[0].as_integer().unwrap(), row[1].as_integer().unwrap()));
                    }
                    if page.len() < limit {
                        break;
                    }
                    after = page.last().map(|&(_, key, _)| key.clone());
                }
                prop_assert_eq!(&got, &expected, "snapshot {:?}", snap);
            }
        }
    }
}

// ---- one row version: a heap and an IOT keyed by id, written alike ----

/// One step of the twin stream. A lane is one transaction at a time; a
/// write on an idle lane runs in a transaction of its own (autocommit).
/// Picks are taken modulo what the writer's snapshot sees.
#[derive(Debug, Clone)]
enum TwinOp {
    Begin(usize),
    Insert(usize, i64),
    Update(usize, usize, i64),
    Delete(usize, usize),
    Savepoint(usize),
    RollbackTo(usize, usize),
    Commit(usize),
    Abort(usize),
    Vacuum,
}

const TWIN_LANES: usize = 3;

fn arb_twin_ops() -> impl Strategy<Value = Vec<TwinOp>> {
    let lane = || 0..TWIN_LANES;
    prop::collection::vec(
        prop_oneof![
            lane().prop_map(TwinOp::Begin),
            (lane(), any::<i64>()).prop_map(|(l, v)| TwinOp::Insert(l, v)),
            (lane(), any::<usize>(), any::<i64>()).prop_map(|(l, i, v)| TwinOp::Update(l, i, v)),
            (lane(), any::<usize>()).prop_map(|(l, i)| TwinOp::Delete(l, i)),
            lane().prop_map(TwinOp::Savepoint),
            (lane(), any::<usize>()).prop_map(|(l, i)| TwinOp::RollbackTo(l, i)),
            lane().prop_map(TwinOp::Commit),
            lane().prop_map(TwinOp::Abort),
            Just(TwinOp::Vacuum),
        ],
        0..120,
    )
}

/// An open transaction of the twin stream: the ids it wrote, in order,
/// and its savepoints as `(undo mark, ids written by then)`.
struct TwinLane {
    snap: Snapshot,
    writes: Vec<i64>,
    marks: Vec<(usize, usize)>,
}

/// The test's own first-writer-wins: every id's writers, each a
/// transaction with its commit csn, or `None` while it is active.
#[derive(Default)]
struct FwwModel {
    writers: BTreeMap<i64, Vec<(u64, Option<u64>)>>,
}

impl FwwModel {
    /// Whom a write of `id` by `snap` loses to: another transaction with
    /// an active write of it, else the latest writer that committed after
    /// `snap` was taken.
    fn winner(&self, id: i64, snap: &Snapshot) -> Option<u64> {
        let others = self.writers.get(&id).into_iter().flatten().filter(|w| w.0 != snap.txn);
        let mut committed = None;
        for &(txn, csn) in others {
            match csn {
                None => return Some(txn),
                Some(csn) if csn > snap.high => committed = committed.max(Some((csn, txn))),
                Some(_) => {}
            }
        }
        committed.map(|(_, txn)| txn)
    }

    fn wrote(&mut self, id: i64, txn: u64) {
        let ws = self.writers.entry(id).or_default();
        if !ws.contains(&(txn, None)) {
            ws.push((txn, None));
        }
    }

    /// `txn` ended: committed at `csn`, or (`None`) rolled back.
    fn ended(&mut self, txn: u64, csn: Option<u64>) {
        for ws in self.writers.values_mut() {
            match csn {
                Some(csn) => ws.iter_mut().filter(|w| w.0 == txn).for_each(|w| w.1 = Some(csn)),
                None => ws.retain(|w| w.0 != txn),
            }
        }
    }

    /// A savepoint rollback left `txn` with only the writes in `kept`.
    fn rolled_back(&mut self, txn: u64, kept: &[i64]) {
        for (id, ws) in self.writers.iter_mut() {
            ws.retain(|w| w.0 != txn || kept.contains(id));
        }
    }
}

/// The `(rowid, id, value)` of every heap row `snap` sees.
fn twin_heap(e: &StorageEngine, seg: SegmentId, snap: &Snapshot) -> Vec<(RowId, i64, i64)> {
    let mut out = Vec::new();
    let mut page = 0;
    while let Some(rows) = e.heap_page(seg, page, 0, snap).unwrap() {
        let int = |r: &Row, i: usize| r[i].as_integer().unwrap();
        out.extend(rows.map(|(rid, r)| (rid, int(r, 0), int(r, 1))));
        page += 1;
    }
    out
}

/// The rowid of the IOT row `snap` sees under `id`, which the heap sees
/// too: a write reaches both segments through the same call.
fn twin_rid(e: &StorageEngine, iot: SegmentId, id: i64, snap: &Snapshot) -> RowId {
    iot_get(e, iot, id, snap).expect("the IOT sees every row the heap sees").0
}

/// The `(id, value)` multiset `snap` sees in each segment: heap, IOT.
type TwinView = (Vec<(i64, i64)>, Vec<(i64, i64)>);

fn twin_view(e: &StorageEngine, heap: SegmentId, iot: SegmentId, snap: &Snapshot) -> TwinView {
    let mut heap_rows: Vec<(i64, i64)> =
        twin_heap(e, heap, snap).into_iter().map(|(_, id, v)| (id, v)).collect();
    heap_rows.sort();
    let keyed = e.iot_range(iot, Bound::Unbounded, Bound::Unbounded, usize::MAX, snap).unwrap();
    let int = |r: &Row, i: usize| r[i].as_integer().unwrap();
    (heap_rows, keyed.into_iter().map(|(_, _, r)| (int(r, 0), int(r, 1))).collect())
}

/// A write's outcome: done, or lost to the named transaction. Any other
/// error is a failure of its own.
fn outcome<T>(r: extidx_common::Result<T>) -> Result<Option<u64>, String> {
    match r {
        Ok(_) => Ok(None),
        Err(extidx_common::Error::WriteConflict { other_txn, .. }) => Ok(Some(other_txn)),
        Err(e) => Err(e.to_string()),
    }
}

/// End a transaction and tell the model. A commit never loses: it hands
/// back the csn the registry records the transaction committed at.
fn end_twin_txn(e: &mut StorageEngine, model: &mut FwwModel, snap: Snapshot, commit: bool) {
    let csn = if commit {
        let csn = e.commit_txn(snap);
        let status = e.txn_manager().status(snap.txn);
        assert_eq!(status, Some(TxnStatus::Committed(csn)), "the commit of {snap:?} lost");
        assert!(csn > snap.high, "{snap:?} committed at csn {csn}, inside its own snapshot");
        Some(csn)
    } else {
        e.rollback_txn(snap).unwrap();
        None
    };
    model.ended(snap.txn, csn);
}

/// Invariants between steps: every live snapshot sees the same rows in
/// both segments, and an index build over either refuses or proceeds alike.
fn check_twins(
    e: &mut StorageEngine,
    heap: SegmentId,
    iot: SegmentId,
    lanes: &[Option<TwinLane>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let live = lanes.iter().flatten().map(|l| l.snap);
    for snap in std::iter::once(Snapshot::latest()).chain(live) {
        let (heap_rows, iot_rows) = twin_view(e, heap, iot, &snap);
        prop_assert_eq!(heap_rows, iot_rows, "heap and IOT differ under {:?}", snap);
        e.set_current_txn(snap);
        let build = |e: &StorageEngine, seg| outcome(e.build_snapshot(seg));
        prop_assert_eq!(build(e, heap), build(e, iot), "build_snapshot differs under {:?}", snap);
        e.set_current_txn(Snapshot::latest());
    }
    Ok(())
}

proptest! {
    /// Heaps and IOTs share one row version: one random stream of inserts,
    /// updates and deletes by id — over interleaved transactions with
    /// commits, aborts, savepoint rollbacks and vacuums — applied to a heap
    /// and to an IOT keyed by `id` leaves both segments alike. At every
    /// step each live snapshot sees the same `(id, value)` multiset in
    /// both, every write wins or loses `WriteConflict` to the transaction
    /// the reference model of first-writer-wins ([`FwwModel`]) names, in
    /// both segments, no commit loses, `build_snapshot` refuses or accepts
    /// alike, and after every vacuum `segment_settled` agrees (and holds
    /// at quiescence).
    #[test]
    fn heap_and_iot_share_one_row_version(
        prefix in prop::collection::vec(any::<i64>(), 0..12),
        ops in arb_twin_ops(),
    ) {
        let mut e = StorageEngine::new(256);
        let heap = e.create_heap().unwrap();
        let iot = e.create_iot(1).unwrap();
        let txns = e.txn_manager();
        let twin_row = |id: i64, v: i64| vec![Value::Integer(id), Value::Integer(v)];
        let mut next_id = 0;
        for v in prefix {
            e.insert(heap, twin_row(next_id, v)).unwrap();
            e.insert(iot, twin_row(next_id, v)).unwrap();
            next_id += 1;
        }
        e.commit_txn(Snapshot::latest());

        let mut model = FwwModel::default();
        let mut lanes: Vec<Option<TwinLane>> = (0..TWIN_LANES).map(|_| None).collect();
        for op in ops {
            match op {
                TwinOp::Insert(l, _) | TwinOp::Update(l, ..) | TwinOp::Delete(l, _) => {
                    let auto = lanes[l].is_none();
                    let snap = lanes[l].as_ref().map_or_else(|| txns.begin(), |lane| lane.snap);
                    let seen = twin_heap(&e, heap, &snap);
                    e.set_current_txn(snap);
                    let (id, h, i) = match op {
                        TwinOp::Insert(_, v) => {
                            let row = twin_row(next_id, v);
                            next_id += 1;
                            let h = outcome(e.insert(heap, row.clone()));
                            (Some(next_id - 1), h, outcome(e.insert(iot, row)))
                        }
                        TwinOp::Update(_, pick, v) if !seen.is_empty() => {
                            let (rid, id, old) = seen[pick % seen.len()];
                            let (irid, old) = (twin_rid(&e, iot, id, &snap), twin_row(id, old));
                            let row = twin_row(id, v);
                            let h = outcome(e.update(heap, rid, &old, row.clone()));
                            (Some(id), h, outcome(e.update(iot, irid, &old, row)))
                        }
                        TwinOp::Delete(_, pick) if !seen.is_empty() => {
                            let (rid, id, old) = seen[pick % seen.len()];
                            let (irid, old) = (twin_rid(&e, iot, id, &snap), twin_row(id, old));
                            let h = outcome(e.delete(heap, rid, &old));
                            (Some(id), h, outcome(e.delete(iot, irid, &old)))
                        }
                        _ => (None, Ok(None), Ok(None)),
                    };
                    e.set_current_txn(Snapshot::latest());
                    prop_assert!(h.is_ok(), "heap write failed: {:?}", h);
                    prop_assert_eq!(&h, &i, "{:?}: heap and IOT write outcomes differ", op);
                    let expected = id.and_then(|id| model.winner(id, &snap));
                    prop_assert_eq!(&h, &Ok(expected), "{:?} by {:?}: not the model's", op, snap);
                    if let (Some(id), Ok(None)) = (id, &h) {
                        model.wrote(id, snap.txn);
                        if let Some(lane) = &mut lanes[l] {
                            lane.writes.push(id);
                        }
                    }
                    if auto {
                        end_twin_txn(&mut e, &mut model, snap, h == Ok(None));
                    }
                }
                TwinOp::Begin(l) => {
                    if lanes[l].is_none() {
                        let snap = txns.begin();
                        lanes[l] = Some(TwinLane { snap, writes: Vec::new(), marks: Vec::new() });
                    }
                }
                TwinOp::Savepoint(l) => {
                    if let Some(lane) = &mut lanes[l] {
                        e.set_current_txn(lane.snap);
                        lane.marks.push((e.undo_mark(), lane.writes.len()));
                        e.set_current_txn(Snapshot::latest());
                    }
                }
                TwinOp::RollbackTo(l, pick) => {
                    if let Some(lane) = lanes[l].as_mut().filter(|lane| !lane.marks.is_empty()) {
                        let keep = pick % lane.marks.len() + 1;
                        lane.marks.truncate(keep);
                        let (mark, written) = lane.marks[keep - 1];
                        e.set_current_txn(lane.snap);
                        e.rollback_to(mark).unwrap();
                        e.set_current_txn(Snapshot::latest());
                        lane.writes.truncate(written);
                        model.rolled_back(lane.snap.txn, &lane.writes);
                    }
                }
                TwinOp::Commit(l) | TwinOp::Abort(l) => {
                    if let Some(lane) = lanes[l].take() {
                        let commit = matches!(op, TwinOp::Commit(_));
                        end_twin_txn(&mut e, &mut model, lane.snap, commit);
                    }
                }
                TwinOp::Vacuum => {
                    e.vacuum();
                    prop_assert_eq!(
                        e.segment_settled(heap),
                        e.segment_settled(iot),
                        "segment_settled differs after a vacuum"
                    );
                }
            }
            check_twins(&mut e, heap, iot, &lanes)?;
        }

        for lane in lanes.iter_mut().filter_map(Option::take) {
            end_twin_txn(&mut e, &mut model, lane.snap, true);
        }
        e.vacuum();
        prop_assert!(e.segment_settled(heap) && e.segment_settled(iot), "unsettled at quiescence");
        check_twins(&mut e, heap, iot, &[])?;
    }
}
