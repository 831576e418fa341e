//! Model-based property tests for the storage engine: heap operations
//! against a reference map, and rollback restoring exact prior state.

use std::collections::BTreeMap;

use proptest::prelude::*;

use extidx_common::{Key, Row, RowId, Value};
use extidx_storage::{Snapshot, StorageEngine, UndoLog};

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
                    let rid = engine.heap_insert(seg, row(v), None).unwrap();
                    prop_assert!(!model.contains_key(&rid), "fresh rowid must be unused");
                    model.insert(rid, row(v));
                    live.push(rid);
                }
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    let old = engine.heap_update(seg, rid, row(v), None).unwrap();
                    prop_assert_eq!(&old, model.get(&rid).unwrap());
                    model.insert(rid, row(v));
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    let old = engine.heap_delete(seg, rid, None).unwrap();
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
                HeapOp::Insert(v) => live.push(engine.heap_insert(seg, row(v), None).unwrap()),
                HeapOp::Update(i, v) if !live.is_empty() => {
                    let rid = live[i % live.len()];
                    engine.heap_update(seg, rid, row(v), None).unwrap();
                }
                HeapOp::Delete(i) if !live.is_empty() => {
                    let idx = i % live.len();
                    let rid = live.swap_remove(idx);
                    engine.heap_delete(seg, rid, None).unwrap();
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

        // Logged suffix, then rollback.
        let mut log = UndoLog::new();
        let mut txn_live = live.clone();
        for op in during {
            match op {
                HeapOp::Insert(v) => {
                    txn_live.push(engine.heap_insert(seg, row(v), Some(&mut log)).unwrap())
                }
                HeapOp::Update(i, v) if !txn_live.is_empty() => {
                    let rid = txn_live[i % txn_live.len()];
                    if engine.heap(seg).unwrap().fetch(rid).is_ok() {
                        engine.heap_update(seg, rid, row(v), Some(&mut log)).unwrap();
                    }
                }
                HeapOp::Delete(i) if !txn_live.is_empty() => {
                    let idx = i % txn_live.len();
                    let rid = txn_live.swap_remove(idx);
                    if engine.heap(seg).unwrap().fetch(rid).is_ok() {
                        engine.heap_delete(seg, rid, Some(&mut log)).unwrap();
                    }
                }
                _ => {}
            }
        }
        engine.rollback(&mut log).unwrap();

        let after: BTreeMap<RowId, Row> = engine
            .heap(seg)
            .unwrap()
            .scan()
            .map(|(rid, _, r)| (rid, r.clone()))
            .collect();
        prop_assert_eq!(after, snapshot);
    }

    /// IOT range scans return exactly the model's range, in order.
    #[test]
    fn iot_range_matches_btreemap(
        entries in prop::collection::btree_map(-500i64..500, any::<i64>(), 0..80),
        lo in -600i64..600,
        len in 0i64..400,
    ) {
        let mut engine = StorageEngine::new(256);
        let seg = engine.create_iot(1).unwrap();
        for (k, v) in &entries {
            engine
                .iot_insert(seg, vec![Value::Integer(*k), Value::Integer(*v)], None)
                .unwrap();
        }
        let hi = lo + len;
        let got = engine
            .iot_range(
                seg,
                Some(&Key::single(Value::Integer(lo))),
                Some(&Key::single(Value::Integer(hi))),
                &Snapshot::latest(),
            )
            .unwrap();
        let expected: Vec<(i64, i64)> =
            entries.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        let got_pairs: Vec<(i64, i64)> = got
            .iter()
            .map(|r| (r[0].as_integer().unwrap(), r[1].as_integer().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, expected);
    }

    /// Cache counters: hits never exceed logical reads; physical reads
    /// never exceed logical reads.
    #[test]
    fn cache_counter_invariants(pages in prop::collection::vec(0u32..40, 1..200), cap in 1usize..32) {
        let engine = StorageEngine::new(cap);
        let seg = extidx_storage::SegmentId(1);
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
        let lob = engine.lob_allocate(None).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (off, bytes) in &chunks {
            let off = *off as usize;
            if model.len() < off + bytes.len() {
                model.resize(off + bytes.len(), 0);
            }
            model[off..off + bytes.len()].copy_from_slice(bytes);
            engine.lob_write(lob, off as u64, bytes, None).unwrap();
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
            .map(|&v| engine.heap_insert(seg, row(v), None).unwrap())
            .collect();
        let mut dead: Vec<RowId> = Vec::new();
        for d in deletes {
            if live.len() <= 1 {
                break;
            }
            let rid = live.swap_remove(d % live.len());
            engine.heap_delete(seg, rid, None).unwrap();
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
