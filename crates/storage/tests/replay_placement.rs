//! Replay reproduces the live placement: the segments a durable medium
//! recovers equal, slot for slot, the segments of the engine that wrote its
//! WAL — heap rows by rowid and where each heap's next inserts land, IOT
//! `(key, ordinal, row)`s and the next ordinal, LOB bytes and the next
//! locator. Live writes, rollback compensations and redo all go through the
//! same apply, so the two can only part where a record is applied live but
//! not replayed, or the reverse.
//!
//! The history is written by unobserved autocommit statements (transaction
//! 0, each followed by a commit marker as the SQL layer writes one) and by
//! registered transactions that commit, with a checkpoint now and then
//! while one is open and statement rollbacks inside both. Two kinds of
//! history are left out because replay does not reproduce their
//! placement: a registered transaction that aborts (its records are
//! dropped, yet live it consumed ordinals and locators and reordered the
//! free list) and a versioned heap delete that commits (live, the vacuum
//! frees its slot after the commit; replay frees it at the delete's place
//! in the group).

use std::ops::Bound::{Included, Unbounded};
use std::sync::Arc;

use extidx_common::{Key, LobRef, Row, Value};
use extidx_storage::{DurableMedium, SegmentId, Segments, Snapshot, StorageEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A row of `width` payload bytes: wide rows fill pages, so a recycled
/// slot is taken only if its page still has room.
fn row(k: i64, width: usize) -> Row {
    vec![Value::Integer(k), Value::from("x".repeat(width))]
}

/// `live` and `recovered` alike, slot for slot.
fn assert_same_placement(live: &Segments, recovered: &Segments, lobs: &[LobRef], what: &str) {
    assert_eq!(live.next_segment, recovered.next_segment, "{what}: next segment id");
    let mut heaps: Vec<SegmentId> = live.heaps.keys().copied().collect();
    heaps.sort();
    let mut rec_heaps: Vec<SegmentId> = recovered.heaps.keys().copied().collect();
    rec_heaps.sort();
    assert_eq!(heaps, rec_heaps, "{what}: heap segments");
    for seg in heaps {
        let (mut a, mut b) = (live.heaps[&seg].clone(), recovered.heaps[&seg].clone());
        let rows = |h: &extidx_storage::heap::HeapTable| {
            h.scan().map(|(rid, _, r)| (rid, r.clone())).collect::<Vec<_>>()
        };
        assert_eq!(rows(&a), rows(&b), "{what}: rows of {seg}");
        assert_eq!(a.page_count(), b.page_count(), "{what}: pages of {seg}");
        // Where the next inserts land: enough of them to drain every
        // recycled slot, in the order the free list holds them.
        for i in 0..24 {
            let r = row(1_000 + i, [8, 900, 2_500][i as usize % 3]);
            let (ra, rb) = (a.peek_insert_rid(&r), b.peek_insert_rid(&r));
            assert_eq!(ra, rb, "{what}: next insert #{i} into {seg}");
            a.insert_at(ra, r.clone()).unwrap();
            b.insert_at(rb, r).unwrap();
        }
    }
    let mut iots: Vec<SegmentId> = live.iots.keys().copied().collect();
    iots.sort();
    assert_eq!(iots.len(), recovered.iots.len(), "{what}: IOT segments");
    for seg in iots {
        let (a, b) = (&live.iots[&seg], &recovered.iots[&seg]);
        let rows = |t: &extidx_storage::iot::IndexOrganizedTable| {
            let all = t.range(Unbounded, Unbounded);
            all.map(|(k, o, r)| (k.clone(), o, r.clone())).collect::<Vec<_>>()
        };
        assert_eq!(rows(a), rows(b), "{what}: (key, ordinal, row) of {seg}");
        assert_eq!(a.peek_next_ord(), b.peek_next_ord(), "{what}: next ordinal of {seg}");
    }
    for &lob in lobs {
        let bytes = |s: &Segments| s.lobs.read_all(lob).ok().map(|(b, _)| b.to_vec());
        assert_eq!(bytes(live), bytes(recovered), "{what}: bytes of {lob}");
    }
    assert_eq!(live.lobs.lob_count(), recovered.lobs.lob_count(), "{what}: LOB count");
    assert_eq!(live.lobs.peek_next_ref(), recovered.lobs.peek_next_ref(), "{what}: next LOB");
}

/// An engine writing ahead to a fresh medium, with the medium's first
/// image taken while the engine is empty (as enabling durability does).
fn durable_engine() -> (StorageEngine, DurableMedium) {
    let mut e = StorageEngine::new(64);
    let medium = DurableMedium::new();
    e.attach_wal(medium.clone());
    medium.checkpoint(|| e.snapshot(), Arc::new(()), |_| false).unwrap();
    (e, medium)
}

/// End an unobserved autocommit statement as the SQL layer does: commit
/// transaction 0, which drops its undo, and write a commit marker.
fn autocommit(e: &mut StorageEngine, medium: &DurableMedium) {
    e.commit_txn(Snapshot::latest());
    medium.commit(None).unwrap();
}

/// The probe: six inserts, four deletes and one insert, each its own
/// statement. The insert takes the first recycled slot off the free list;
/// where the next one lands depends on how it was taken.
#[test]
fn the_free_list_comes_back_in_live_order() {
    let (mut e, medium) = durable_engine();
    let seg = e.create_heap().unwrap();
    autocommit(&mut e, &medium);
    let rids: Vec<_> = (0..6).map(|i| e.insert(seg, row(i, 8)).unwrap()).collect();
    autocommit(&mut e, &medium);
    for (i, &rid) in rids[..4].iter().enumerate() {
        e.delete(seg, rid, &row(i as i64, 8)).unwrap();
    }
    autocommit(&mut e, &medium);
    e.insert(seg, row(6, 8)).unwrap();
    autocommit(&mut e, &medium);
    assert_same_placement(&e.snapshot(), &medium.recover().engine, &[], "probe");
}

/// One step of the seeded history: a heap, IOT or LOB write on the lane
/// `e` is driven by. Failures (a freed LOB, a duplicate IOT key) are part
/// of the history: a record whose apply failed live fails on replay too.
fn random_write(
    e: &mut StorageEngine,
    rng: &mut StdRng,
    heaps: &[SegmentId],
    iot: SegmentId,
    lobs: &mut Vec<LobRef>,
) {
    let snap = e.current_snapshot();
    let seg = heaps[rng.gen_range(0..heaps.len())];
    let live_rows = |e: &StorageEngine| {
        let mut rows = Vec::new();
        let mut page = 0;
        while let Some(visible) = e.heap_page(seg, page, 0, &snap).unwrap() {
            rows.extend(visible.map(|(rid, r)| (rid, r.clone())));
            page += 1;
        }
        rows
    };
    // The IOT row under `k` a statement reading under `snap` would find.
    let iot_row = |e: &StorageEngine, k: i64| {
        let key = Key::single(Value::Integer(k));
        let found = e.iot_range(iot, Included(&key), Included(&key), 1, &snap).unwrap();
        found.first().map(|&(rid, _, r)| (rid, r.clone()))
    };
    let k = rng.gen_range(0..40i64);
    let width = [8, 300, 2_000, 3_500][rng.gen_range(0..4usize)];
    match rng.gen_range(0..12) {
        0..=2 => {
            let _ = e.insert(seg, row(k, width));
        }
        3 => {
            let rows = live_rows(e);
            if !rows.is_empty() {
                let (rid, old) = &rows[rng.gen_range(0..rows.len())];
                e.update(seg, *rid, old, row(k, width)).unwrap();
            }
        }
        // A versioned heap delete is deferred to the vacuum; see the
        // module doc.
        4 if snap.txn == 0 => {
            let rows = live_rows(e);
            if !rows.is_empty() {
                let (rid, old) = &rows[rng.gen_range(0..rows.len())];
                e.delete(seg, *rid, old).unwrap();
            }
        }
        4 | 5 => {
            let _ = e.insert(iot, row(k, width % 400));
        }
        6 => {
            let _ = match iot_row(e, k) {
                Some((rid, old)) => e.update(iot, rid, &old, row(k, width % 400)),
                None => e.insert(iot, row(k, width % 400)),
            };
        }
        7 => {
            if let Some((rid, old)) = iot_row(e, k) {
                e.delete(iot, rid, &old).unwrap();
            }
        }
        8 => lobs.push(e.lob_allocate().unwrap()),
        _ if lobs.is_empty() => {}
        n => {
            let lob = lobs[rng.gen_range(0..lobs.len())];
            let bytes = vec![k as u8; rng.gen_range(1..600usize)];
            let _ = match n {
                9 => e.lob_append(lob, &bytes).map(|_| ()),
                10 => {
                    let len = e.lob_length(lob, &snap).unwrap_or(0);
                    e.lob_write(lob, rng.gen_range(0..len + 20), &bytes)
                }
                _ if rng.gen_bool(0.5) => e.lob_overwrite(lob, &bytes),
                _ => e.lob_free(lob),
            };
        }
    }
}

/// One statement: a few writes, rolled back to its savepoint one time in
/// four.
fn statement(
    e: &mut StorageEngine,
    rng: &mut StdRng,
    heaps: &[SegmentId],
    iot: SegmentId,
    lobs: &mut Vec<LobRef>,
) {
    let mark = e.undo_mark();
    for _ in 0..rng.gen_range(1..5) {
        random_write(e, rng, heaps, iot, lobs);
    }
    if rng.gen_bool(0.25) {
        e.rollback_to(mark).unwrap();
    }
}

#[test]
fn replay_reproduces_live_placement() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut e, medium) = durable_engine();
        let txns = e.txn_manager();
        let heaps = [e.create_heap().unwrap(), e.create_heap().unwrap()];
        let iot = e.create_iot(1).unwrap();
        autocommit(&mut e, &medium);
        let mut lobs = Vec::new();
        let checkpoint = |e: &StorageEngine| {
            let active = |txn| txns.is_active(txn);
            medium.checkpoint(|| e.snapshot(), Arc::new(()), active).unwrap();
        };
        for _ in 0..150 {
            match rng.gen_range(0..10) {
                0..=3 => {
                    statement(&mut e, &mut rng, &heaps, iot, &mut lobs);
                    autocommit(&mut e, &medium);
                }
                // A registered transaction: its statements, a checkpoint
                // now and then (which carries its open tail), then COMMIT
                // with its marker and the vacuum pass that ends it.
                4..=8 => {
                    let t = txns.begin();
                    e.set_current_txn(t);
                    for _ in 0..rng.gen_range(1..4) {
                        statement(&mut e, &mut rng, &heaps, iot, &mut lobs);
                        if rng.gen_bool(0.2) {
                            checkpoint(&e);
                        }
                    }
                    e.set_current_txn(Snapshot::latest());
                    e.commit_txn(t);
                    medium.commit_txn(t.txn, None).unwrap();
                    e.vacuum();
                }
                _ => checkpoint(&e),
            }
        }
        let what = format!("seed {seed}");
        assert_same_placement(&e.snapshot(), &medium.recover().engine, &lobs, &what);
    }
}
