//! Model-based property tests for the storage engine: heap operations
//! against a reference map, IOT range reads against one map per snapshot,
//! and rollback restoring exact prior state.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use extidx_common::{Key, Row, RowId, Value};
use extidx_storage::{SegmentId, Snapshot, StorageEngine};

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
                    let rid = engine.heap_insert(seg, row(v)).unwrap();
                    prop_assert!(!model.contains_key(&rid), "fresh rowid must be unused");
                    model.insert(rid, row(v));
                    live.push(rid);
                }
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    let old = engine.heap_update(seg, rid, row(v)).unwrap();
                    prop_assert_eq!(&old, model.get(&rid).unwrap());
                    model.insert(rid, row(v));
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    let old = engine.heap_delete(seg, rid).unwrap();
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
            let fetched = engine.heap_fetch_multi(seg, &[*rid], &latest).unwrap();
            prop_assert_eq!(fetched, vec![Some(expected.clone())]);
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
                HeapOp::Insert(v) => live.push(engine.heap_insert(seg, row(v)).unwrap()),
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    engine.heap_update(seg, rid, row(v)).unwrap();
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    engine.heap_delete(seg, rid).unwrap();
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
                    txn_live.push(engine.heap_insert(seg, row(v)).unwrap())
                }
                HeapOp::Update(i, v) if !txn_live.is_empty() => {
                    let rid = txn_live[i % txn_live.len()];
                    if engine.heap(seg).unwrap().fetch(rid).is_ok() {
                        engine.heap_update(seg, rid, row(v)).unwrap();
                    }
                }
                HeapOp::Delete(i) if !txn_live.is_empty() => {
                    let idx = i % txn_live.len();
                    let rid = txn_live.swap_remove(idx);
                    if engine.heap(seg).unwrap().fetch(rid).is_ok() {
                        engine.heap_delete(seg, rid).unwrap();
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
        prop_assert_eq!(engine.lob_read_all(lob).unwrap(), model);
    }
}

proptest! {
    /// `heap_fetch_multi` returns exactly what N single `HeapTable::fetch`
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
            .map(|&v| engine.heap_insert(seg, row(v)).unwrap())
            .collect();
        let mut dead: Vec<RowId> = Vec::new();
        for d in deletes {
            if live.len() <= 1 {
                break;
            }
            let rid = live.swap_remove(d % live.len());
            engine.heap_delete(seg, rid).unwrap();
            dead.push(rid);
        }

        // All-live batch, in an arbitrary (possibly repeating) order.
        let batch: Vec<RowId> = picks.iter().map(|&i| live[i % live.len()]).collect();
        let latest = Snapshot::latest();
        let before = engine.cache_stats();
        let multi = engine.heap_fetch_multi(seg, &batch, &latest).unwrap();
        let charged = engine.cache_stats().since(&before).logical_reads;
        let heap = engine.heap(seg).unwrap();
        let singles: Vec<Option<Row>> =
            batch.iter().map(|&rid| Some(heap.fetch(rid).unwrap().clone())).collect();
        prop_assert_eq!(multi, singles);
        let pages: std::collections::BTreeSet<u32> = batch.iter().map(|rid| rid.page).collect();
        prop_assert_eq!(charged, pages.len() as u64, "one logical read per distinct page");

        // A batch containing any deleted rowid fails, as single fetch does.
        if let Some(&bad) = dead.first() {
            let mut poisoned = batch.clone();
            poisoned.push(bad);
            prop_assert!(heap.fetch(bad).is_err());
            prop_assert!(engine.heap_fetch_multi(seg, &poisoned, &latest).is_err());
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
    for op in ops {
        let live = &mut lane.heap_live;
        match op {
            MixedOp::HeapInsert(v) => live.push(e.heap_insert(heap, row(*v)).unwrap()),
            MixedOp::HeapUpdate(i, v) if !live.is_empty() => {
                e.heap_update(heap, live[i % live.len()], row(*v)).unwrap();
            }
            MixedOp::HeapDelete(i) if !live.is_empty() => {
                let rid = live.swap_remove(i % live.len());
                e.heap_delete(heap, rid).unwrap();
            }
            MixedOp::IotUpsert(k, v) => {
                let r = vec![Value::Integer(lane.key_base + k), Value::Integer(*v)];
                e.iot_upsert(iot, r).unwrap();
            }
            MixedOp::IotDelete(k) => {
                e.iot_delete(iot, &Key::single(Value::Integer(lane.key_base + k))).unwrap();
            }
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
    (rows, keyed, e.lob_read_all_at(lane.lob, &lane.snap).unwrap())
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
        e.commit_txn(Snapshot::latest()).unwrap();
        let committed = view(&e, heap, iot, &base);

        let mut ta = TxnLane { snap: txns.begin(), heap_live: base.heap_live.clone(), key_base: 0, lob };
        let b_lob = e.lob_allocate().unwrap();
        e.commit_txn(Snapshot::latest()).unwrap();
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
            e.iot_upsert(seg, vec![Value::Integer(key), Value::Integer(v)]).unwrap();
            model.insert(key, v);
        } else {
            e.iot_delete(seg, &ikey(key)).unwrap();
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
    /// order, and each row's rowid is one `iot_fetch_multi` resolves back
    /// to that row.
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
            e.iot_insert(seg, vec![Value::Integer(*k), Value::Integer(*v)]).unwrap();
        }
        e.commit_txn(Snapshot::latest()).unwrap();
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
                        let fetched = e.iot_fetch_multi(seg, &[rid], snap).unwrap();
                        let want = vec![Some(row.clone())];
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
