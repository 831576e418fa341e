//! MVCC visibility properties, checked across every scan shape.
//!
//! Two invariants, drawn from the snapshot-isolation contract:
//!
//! 1. a reader whose snapshot predates a concurrent commit never sees
//!    that commit's rows — not through a full scan, not through a
//!    zone-pruned batch scan, and not through a domain-index
//!    ODCIIndexFetch (the chemistry index keeps its fingerprint store in
//!    a shared LOB, so this exercises LOB version chains specifically);
//! 2. versions written by an aborted transaction are never visible to
//!    anyone, through any of those paths.
//!
//! The properties randomize row population, which rows the writer
//! touches, and the probe predicates. `PROPTEST_CASES` scales the case
//! count (default 32).

use extidx::common::Value;
use extidx::sql::{Server, Session};
use extidx_qgen::{fresh_db, ChaosOpts};
use proptest::prelude::*;

/// Molecules for the chem-indexed column: the first half match the
/// `MolContains(mol, 'CO')` probe (they contain a C–O bond), the rest
/// do not.
const MOLS: [&str; 6] = ["CCO", "COC", "OCC", "CCC", "CCN", "CCS"];

fn sorted_ids(rows: &[Vec<Value>]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Integer(i) => i,
            ref v => panic!("expected integer id, got {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// The probe queries, each answering "which ids does this snapshot see"
/// through a different scan shape: chem domain index (forced), the
/// functional fallback over a full scan (forced), and a range predicate
/// the batch executor may zone-prune.
fn probes(lo: i64, hi: i64) -> [String; 3] {
    [
        "SELECT /*+ INDEX(MV MV_MOL) */ id FROM MV WHERE MolContains(mol, 'CO')".to_string(),
        "SELECT /*+ NO_INDEX */ id FROM MV WHERE MolContains(mol, 'CO')".to_string(),
        format!("SELECT id FROM MV WHERE num >= {lo} AND num <= {hi}"),
    ]
}

fn observe(sess: &mut Session, lo: i64, hi: i64) -> Vec<Vec<i64>> {
    probes(lo, hi)
        .iter()
        .map(|q| sorted_ids(&sess.query(q).expect("probe query must run")))
        .collect()
}

/// A server with `MV (id, mol, num)`, a chemistry domain index on `mol`,
/// and `n` seeded rows.
fn setup(n: usize, seed: u64) -> Server {
    let server = Server::new(fresh_db(ChaosOpts::default()));
    let mut s = server.session();
    s.execute("CREATE TABLE MV (id INTEGER, mol VARCHAR2(64), num INTEGER)").unwrap();
    s.execute("CREATE INDEX MV_MOL ON MV(mol) INDEXTYPE IS ChemIndexType").unwrap();
    for i in 0..n {
        let mol = MOLS[(seed as usize + i) % MOLS.len()];
        let num = ((seed >> 8) as i64 + i as i64 * 13) % 200;
        s.execute(&format!("INSERT INTO MV (id, mol, num) VALUES ({i}, '{mol}', {num})"))
            .unwrap();
    }
    server
}

proptest! {
    /// Property 1: everything a reader observes at the start of its
    /// transaction it observes unchanged after a concurrent transaction
    /// inserts, updates, deletes, and commits — then, once the reader
    /// ends, a fresh snapshot sees the writer's effects.
    #[test]
    fn reader_snapshot_is_repeatable_across_concurrent_commit(
        n in 8usize..24,
        seed in any::<u64>(),
    ) {
        let server = setup(n, seed);
        let lo = (seed % 100) as i64;
        let hi = lo + 60;
        let victim = (seed % n as u64) as i64;
        let other = ((seed >> 16) % n as u64) as i64;

        let mut reader = server.session();
        reader.execute("BEGIN").unwrap();
        let baseline = observe(&mut reader, lo, hi);

        let mut writer = server.session();
        writer.execute("BEGIN").unwrap();
        let fresh_id = n as i64 + 1;
        writer
            .execute(&format!(
                "INSERT INTO MV (id, mol, num) VALUES ({fresh_id}, 'CCO', {})",
                lo + 1
            ))
            .unwrap();
        writer
            .execute(&format!(
                "UPDATE MV SET mol = 'CCO', num = {} WHERE id = {victim}",
                lo + 2
            ))
            .unwrap();
        writer.execute(&format!("DELETE FROM MV WHERE id = {other}")).unwrap();

        // Mid-flight: the writer is uncommitted, the reader must still
        // see its baseline through every scan shape.
        prop_assert_eq!(&observe(&mut reader, lo, hi), &baseline);

        writer.execute("COMMIT").unwrap();

        // Committed, but after the reader's snapshot: still the baseline.
        let after_commit = observe(&mut reader, lo, hi);
        prop_assert_eq!(&after_commit, &baseline);
        for obs in &after_commit {
            prop_assert!(
                !obs.contains(&fresh_id),
                "snapshot reader leaked a post-snapshot insert: {:?}",
                obs
            );
        }
        reader.execute("COMMIT").unwrap();

        // A snapshot opened after the commit sees all three effects.
        let now = observe(&mut server.session(), lo, hi);
        prop_assert!(
            now[0].contains(&fresh_id) && now[1].contains(&fresh_id),
            "fresh snapshot must see the committed insert via index and fallback: {:?}",
            now
        );
        if victim != other {
            prop_assert!(
                now[0].contains(&victim),
                "committed UPDATE must register in the domain index: {:?}",
                now
            );
        }
        for obs in &now {
            prop_assert!(!obs.contains(&other), "committed DELETE must hide id {}", other);
        }
    }

    /// Property 2: an aborted transaction's versions are invisible to
    /// concurrent readers while it is active and to everyone after the
    /// rollback, through every scan shape.
    #[test]
    fn aborted_versions_are_never_visible(
        n in 8usize..24,
        seed in any::<u64>(),
    ) {
        let server = setup(n, seed);
        let lo = (seed % 100) as i64;
        let hi = lo + 60;
        let victim = (seed % n as u64) as i64;

        let baseline = observe(&mut server.session(), lo, hi);

        let mut writer = server.session();
        writer.execute("BEGIN").unwrap();
        let fresh_id = n as i64 + 1;
        writer
            .execute(&format!(
                "INSERT INTO MV (id, mol, num) VALUES ({fresh_id}, 'CCO', {})",
                lo + 1
            ))
            .unwrap();
        writer
            .execute(&format!(
                "UPDATE MV SET mol = 'CCO', num = {} WHERE id = {victim}",
                lo + 2
            ))
            .unwrap();

        // Uncommitted writes leak to nobody.
        prop_assert_eq!(&observe(&mut server.session(), lo, hi), &baseline);

        writer.execute("ROLLBACK").unwrap();

        // Rolled back: the world is exactly the baseline again.
        prop_assert_eq!(&observe(&mut server.session(), lo, hi), &baseline);
        let mut late = server.session();
        late.execute("BEGIN").unwrap();
        prop_assert_eq!(&observe(&mut late, lo, hi), &baseline);
        late.execute("COMMIT").unwrap();
    }
}

// ---------------------------------------------------------------------------
// Index builds and ANALYZE read through the snapshot-pinned base scan
// ---------------------------------------------------------------------------

use extidx::common::Error;
use extidx::sql::GovernorConfig;

/// A deterministic server (no daemon: vacuum runs inline or on `VACUUM`)
/// with `T (id, k, doc)` holding rows 1 = (5, 'alpha …') and
/// 2 = (6, 'beta …'), and no index yet.
fn build_rig() -> Server {
    let server =
        Server::with_config(fresh_db(ChaosOpts::default()), GovernorConfig::inline_vacuum());
    let mut s = server.session();
    s.execute("CREATE TABLE T (id INTEGER, k INTEGER, doc VARCHAR2(64))").unwrap();
    s.execute("INSERT INTO T (id, k, doc) VALUES (1, 5, 'alpha one')").unwrap();
    s.execute("INSERT INTO T (id, k, doc) VALUES (2, 6, 'beta two')").unwrap();
    server
}

const CREATE_BTREE: &str = "CREATE INDEX T_K ON T(k)";
const CREATE_TEXT: &str = "CREATE INDEX T_DOC ON T(doc) INDEXTYPE IS TextIndexType";

/// Every forcible index answer must equal the index-free answer.
fn assert_index_agrees(sess: &mut Session, preds: &[(&str, &str)]) {
    for (index, pred) in preds {
        let forced =
            sorted_ids(&sess.query(&format!("SELECT /*+ INDEX(T {index}) */ id FROM T WHERE {pred}")).unwrap());
        let free = sorted_ids(&sess.query(&format!("SELECT /*+ NO_INDEX */ id FROM T WHERE {pred}")).unwrap());
        assert_eq!(forced, free, "INDEX({index}) vs NO_INDEX for `{pred}`");
    }
}

const T_PROBES: [(&str, &str); 5] = [
    ("T_K", "k = 5"),
    ("T_K", "k = 6"),
    ("T_K", "k = 9"),
    ("T_DOC", "Contains(doc, 'alpha')"),
    ("T_DOC", "Contains(doc, 'gamma')"),
];

/// A row deleted and committed, but still physically present because an
/// older reader pins it, must not be indexed by a build: once the slot is
/// vacuumed and reused, the stale entry would hand back an unrelated row.
#[test]
fn index_build_skips_rows_deleted_for_its_snapshot() {
    let server = build_rig();
    let mut a = server.session();
    let mut reader = server.session();
    reader.execute("BEGIN").unwrap();
    assert_eq!(sorted_ids(&reader.query("SELECT id FROM T").unwrap()), vec![1, 2]);

    a.execute("DELETE FROM T WHERE id = 1").unwrap();
    a.execute(CREATE_BTREE).unwrap();
    a.execute(CREATE_TEXT).unwrap();
    reader.execute("COMMIT").unwrap();
    a.execute("VACUUM").unwrap();
    // Lands in the reclaimed slot of row 1.
    a.execute("INSERT INTO T (id, k, doc) VALUES (3, 9, 'gamma three')").unwrap();

    assert_index_agrees(&mut a, &T_PROBES);
    assert!(a.query("SELECT /*+ INDEX(T T_K) */ id FROM T WHERE k = 5").unwrap().is_empty());
    let alpha = "SELECT /*+ INDEX(T T_DOC) */ id FROM T WHERE Contains(doc, 'alpha')";
    assert!(a.query(alpha).unwrap().is_empty());
}

/// The same defect through `ALTER INDEX … REBUILD` (full-rebuild path) on
/// a heap table with a chemistry index.
#[test]
fn index_rebuild_skips_rows_deleted_for_its_snapshot() {
    let server =
        Server::with_config(fresh_db(ChaosOpts::default()), GovernorConfig::inline_vacuum());
    let mut a = server.session();
    a.execute("CREATE TABLE MV (id INTEGER, mol VARCHAR2(64), num INTEGER)").unwrap();
    a.execute("CREATE INDEX MV_MOL ON MV(mol) INDEXTYPE IS ChemIndexType").unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (1, 'CCO', 1)").unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (2, 'CCC', 2)").unwrap();
    let mut reader = server.session();
    reader.execute("BEGIN").unwrap();
    assert_eq!(observe(&mut reader, 0, 10)[0], vec![1]);

    a.execute("DELETE FROM MV WHERE id = 1").unwrap();
    a.execute("ALTER INDEX MV_MOL REBUILD").unwrap();
    // The scan verifies candidates against the base row, so a stale entry
    // cannot surface in an answer — count the rebuilt store's records.
    let lob = a.query("SELECT data FROM DR$MV_MOL$META WHERE id = 1").unwrap()[0][0].as_lob().unwrap();
    let stored = server.read(|db| db.storage().lob_length(lob)).unwrap();
    assert_eq!(stored, extidx::chem::store::RECORD_BYTES as u64, "only row 2 is indexed");
    reader.execute("COMMIT").unwrap();
    a.execute("VACUUM").unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (3, 'CCN', 3)").unwrap();

    let seen = observe(&mut a, 0, 10);
    assert_eq!(seen[0], seen[1], "forced chem index vs functional fallback");
    assert!(seen[0].is_empty(), "no surviving molecule contains C-O: {seen:?}");
}

/// A build cannot index another transaction's uncommitted versions
/// correctly — whether that transaction later commits or rolls back — so
/// it refuses with `WriteConflict`, leaves nothing behind, and succeeds
/// once the writer has ended.
#[test]
fn index_build_refuses_while_another_transaction_has_uncommitted_versions() {
    for writer_commits in [false, true] {
        let server = build_rig();
        let mut a = server.session();
        a.execute("SET CONFLICT_RETRIES 0").unwrap();
        let mut w = server.session();
        w.execute("BEGIN").unwrap();
        w.execute("INSERT INTO T (id, k, doc) VALUES (3, 9, 'gamma three')").unwrap();
        w.execute("UPDATE T SET k = 9, doc = 'gamma one' WHERE id = 1").unwrap();
        let writer = w.snapshot().expect("writer transaction open").txn;

        for ddl in [CREATE_BTREE, CREATE_TEXT] {
            match a.execute(ddl) {
                Err(Error::WriteConflict { other_txn, .. }) => assert_eq!(other_txn, writer),
                other => panic!("`{ddl}` with a writer in flight: expected WriteConflict, got {other:?}"),
            }
        }
        server.read(|db| {
            assert!(db.catalog().btree_index("T_K").is_none());
            assert!(db.catalog().domain_index("T_DOC").is_none());
            assert!(!db.catalog().has_table("DR$T_DOC$I"), "index storage left behind");
        });

        w.execute(if writer_commits { "COMMIT" } else { "ROLLBACK" }).unwrap();
        a.execute(CREATE_BTREE).unwrap();
        a.execute(CREATE_TEXT).unwrap();
        assert_index_agrees(&mut a, &T_PROBES);
        let k9 = sorted_ids(&a.query("SELECT /*+ INDEX(T T_K) */ id FROM T WHERE k = 9").unwrap());
        assert_eq!(k9, if writer_commits { vec![1, 3] } else { vec![] });
    }
}

/// A text `ALTER INDEX … PARAMETERS` truncates and repopulates, and the
/// truncate is not undone by a statement rollback: with a writer in flight
/// it is refused before it touches the index data or the dictionary's
/// parameters.
#[test]
fn repopulating_alter_refuses_while_another_transaction_has_uncommitted_versions() {
    const ALTER: &str = "ALTER INDEX T_DOC PARAMETERS (':Ignore zzz')";
    let probes = [T_PROBES[3], T_PROBES[4], ("T_DOC", "Contains(doc, 'beta')")];
    let beta = "SELECT /*+ INDEX(T T_DOC) */ id FROM T WHERE Contains(doc, 'beta')";
    for writer_commits in [false, true] {
        let server = build_rig();
        let mut a = server.session();
        a.execute("SET CONFLICT_RETRIES 0").unwrap();
        a.execute(CREATE_TEXT).unwrap();
        let mut w = server.session();
        w.execute("BEGIN").unwrap();
        w.execute("INSERT INTO T (id, k, doc) VALUES (3, 9, 'gamma three')").unwrap();
        w.execute("UPDATE T SET doc = 'gamma one' WHERE id = 1").unwrap();
        let writer = w.snapshot().expect("writer transaction open").txn;

        match a.execute(ALTER) {
            Err(Error::WriteConflict { other_txn, .. }) => assert_eq!(other_txn, writer),
            other => panic!("ALTER with a writer in flight: expected WriteConflict, got {other:?}"),
        }
        let ignored = |db: &extidx::sql::Database| {
            db.catalog().domain_index("T_DOC").unwrap().parameters.has("Ignore")
        };
        assert!(!server.read(ignored), "a refused ALTER must not leave its parameters merged");

        w.execute(if writer_commits { "COMMIT" } else { "ROLLBACK" }).unwrap();
        let gamma = "SELECT /*+ INDEX(T T_DOC) */ id FROM T WHERE Contains(doc, 'gamma')";
        let expect = if writer_commits { vec![1, 3] } else { vec![] };
        assert_index_agrees(&mut a, &probes);
        assert_eq!(sorted_ids(&a.query(gamma).unwrap()), expect);
        assert_eq!(sorted_ids(&a.query(beta).unwrap()), vec![2], "untouched row still indexed");

        a.execute(ALTER).unwrap();
        assert!(server.read(ignored));
        assert_index_agrees(&mut a, &probes);
        assert_eq!(sorted_ids(&a.query(gamma).unwrap()), expect);
    }
}

/// The chemistry cartridge's `:Events ON` handler rebuilds its external
/// file from the base table after a rollback. The file is shared and not
/// transactional: a resync that skipped another transaction's uncommitted
/// row would lose it for good once that transaction commits, so the
/// resync is refused (loudly, from `ROLLBACK`) and the file keeps the
/// writer's record.
#[test]
fn file_store_resync_refuses_while_another_transaction_has_uncommitted_versions() {
    let server =
        Server::with_config(fresh_db(ChaosOpts::default()), GovernorConfig::inline_vacuum());
    let mut a = server.session();
    a.execute("CREATE TABLE MV (id INTEGER, mol VARCHAR2(64), num INTEGER)").unwrap();
    a.execute(
        "CREATE INDEX MV_MOL ON MV(mol) INDEXTYPE IS ChemIndexType \
         PARAMETERS (':Storage FILE :Events ON')",
    )
    .unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (1, 'CCO', 1)").unwrap();
    let mut w = server.session();
    w.execute("BEGIN").unwrap();
    w.execute("INSERT INTO MV (id, mol, num) VALUES (2, 'COC', 2)").unwrap();
    let writer = w.snapshot().expect("writer transaction open").txn;

    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (3, 'OCC', 3)").unwrap();
    match a.execute("ROLLBACK") {
        Err(Error::WriteConflict { other_txn, .. }) => assert_eq!(other_txn, writer),
        other => panic!("resync with a writer in flight: expected WriteConflict, got {other:?}"),
    }
    assert!(a.snapshot().is_none(), "the transaction itself is rolled back");
    w.execute("COMMIT").unwrap();

    let seen = observe(&mut a, 0, 10);
    assert_eq!(seen[0], seen[1], "forced chem index vs functional fallback");
    assert_eq!(seen[0], vec![1, 2]);

    // With no writer in flight the next rollback resyncs as before.
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO MV (id, mol, num) VALUES (4, 'OCC', 4)").unwrap();
    a.execute("ROLLBACK").unwrap();
    assert_eq!(observe(&mut a, 0, 10)[0], vec![1, 2]);
}

/// With the default retry budget the refusal is invisible to an
/// autocommit client: its `CREATE INDEX` waits the writer out.
#[test]
fn autocommit_index_build_waits_for_the_writer_to_end() {
    let server = build_rig();
    let mut w = server.session();
    w.execute("BEGIN").unwrap();
    w.execute("INSERT INTO T (id, k, doc) VALUES (3, 9, 'gamma three')").unwrap();

    let retries = || {
        let rows = server.governor().vserver_rows();
        rows.iter().find(|(name, _)| *name == "CONFLICT_RETRIES").expect("V$SERVER counter").1
    };
    std::thread::scope(|scope| {
        let builder = scope.spawn(|| server.session().execute(CREATE_BTREE));
        // The writer ends only after the build has been refused at least
        // once — the interleaving is forced, not timed.
        while retries() == 0 && !builder.is_finished() {
            std::thread::yield_now();
        }
        assert!(retries() > 0, "the build went ahead over an uncommitted version");
        w.execute("COMMIT").unwrap();
        builder.join().expect("builder thread").expect("CREATE INDEX succeeds after the writer ends");
    });
    let mut a = server.session();
    assert_index_agrees(&mut a, &T_PROBES[..3]);
    assert_eq!(sorted_ids(&a.query("SELECT /*+ INDEX(T T_K) */ id FROM T WHERE k = 9").unwrap()), vec![3]);
}

/// `ANALYZE` describes what the analysing statement can see, not what is
/// physically in the segment.
#[test]
fn analyze_counts_only_rows_visible_to_its_snapshot() {
    let server = build_rig();
    let mut a = server.session();
    for id in 3..=8 {
        a.execute(&format!("INSERT INTO T (id, k, doc) VALUES ({id}, {id}, 'doc')")).unwrap();
    }
    let mut reader = server.session();
    reader.execute("BEGIN").unwrap();
    assert_eq!(reader.query("SELECT id FROM T").unwrap().len(), 8);

    a.execute("DELETE FROM T WHERE id <= 4").unwrap();
    a.execute("ANALYZE TABLE T").unwrap();
    let counted = a.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(counted, vec![vec![Value::Integer(4)]]);
    let stats = server.read(|db| db.catalog().table("T").unwrap().stats.clone()).expect("analyzed");
    assert_eq!(stats.row_count, 4);
    assert_eq!(stats.columns[0].min, Some(Value::Integer(5)), "deleted ids must not set the minimum");
    reader.execute("COMMIT").unwrap();
}

/// Undo is per transaction: statements of two sessions interleave under
/// the write lock, yet A's rollback takes back exactly A's writes, B's
/// committed write stays, and B's failed multi-row statement (its own
/// savepoint inside an implicit transaction) leaves nothing behind.
#[test]
fn interleaved_transactions_roll_back_only_their_own_writes() {
    let server = build_rig();
    let mut a = server.session();
    let mut b = server.session();
    a.execute("INSERT INTO T (id, k, doc) VALUES (3, 7, 'gamma three')").unwrap();
    a.execute("CREATE TABLE K (k INTEGER, v INTEGER, PRIMARY KEY (k)) ORGANIZATION INDEX").unwrap();
    a.execute("INSERT INTO K VALUES (1, 10)").unwrap();
    b.execute("SET CONFLICT_RETRIES 0").unwrap();

    a.execute("BEGIN").unwrap();
    a.execute("UPDATE T SET k = 50 WHERE id = 1").unwrap();
    b.execute("UPDATE T SET k = 60 WHERE id = 2").unwrap();
    // Second row collides with the committed key 1: the first row's
    // insert is rolled back with the statement.
    let dup = b.execute("INSERT INTO K VALUES (2, 20), (1, 99)").unwrap_err();
    assert!(matches!(dup, Error::Constraint(_)), "unexpected error: {dup}");
    a.execute("UPDATE T SET k = 70 WHERE id = 3").unwrap();
    a.execute("INSERT INTO K VALUES (3, 30)").unwrap();
    a.execute("ROLLBACK").unwrap();

    let rows = |s: &mut Session, q: &str| s.query(q).unwrap();
    for s in [&mut a, &mut b] {
        assert_eq!(
            rows(s, "SELECT id, k FROM T ORDER BY id"),
            vec![
                vec![Value::Integer(1), Value::Integer(5)],
                vec![Value::Integer(2), Value::Integer(60)],
                vec![Value::Integer(3), Value::Integer(7)],
            ]
        );
        assert_eq!(
            rows(s, "SELECT k, v FROM K"),
            vec![vec![Value::Integer(1), Value::Integer(10)]]
        );
    }
    // Nothing is left open or held: the registry is idle and the inline
    // vacuum has drained every chain.
    server.read(|db| {
        assert_eq!(db.storage().txn_manager().active_count(), 0);
        assert_eq!(db.mvcc_occupancy(), (0, 0));
    });
}

/// Standing invariant: outside an explicit transaction the driving
/// transaction's undo log is empty at every statement boundary — also
/// after §5 event handlers that write once the statement scope has
/// closed (a session's COMMIT/ROLLBACK delivers its event after the
/// transaction ended). Their writes are final, and leave no undo behind.
#[test]
fn no_undo_outlives_its_transaction_even_when_event_handlers_write() {
    use extidx::core::events::DbEvent;
    use extidx::core::server::ServerContext;
    use std::sync::Arc;

    let server = build_rig();
    let audit = |ev: DbEvent, srv: &mut dyn ServerContext| -> extidx::common::Result<()> {
        srv.execute("INSERT INTO AUDIT VALUES (?)", &[Value::from(ev.to_string())]).map(drop)
    };
    server.admin(|db| {
        db.execute("CREATE TABLE AUDIT (ev VARCHAR2(16))").unwrap();
        db.register_event_handler("audit", Arc::new(audit));
    });
    let idle = |server: &Server| {
        server.read(|db| {
            assert_eq!(db.storage().undo_mark(), 0, "undo outlived its transaction");
            assert_eq!(db.storage().txn_manager().active_count(), 0);
        })
    };

    let mut s = server.session();
    s.execute("INSERT INTO T (id, k, doc) VALUES (3, 7, 'gamma three')").unwrap(); // Commit
    idle(&server);
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE T SET k = 8 WHERE id = 3").unwrap();
    s.execute("ROLLBACK").unwrap(); // Rollback
    idle(&server);
    s.execute("COMMIT").unwrap(); // nothing open: Commit
    idle(&server);
    // A failed autocommit statement delivers Rollback from inside its
    // scope, so the handler's write joins the implicit transaction — and
    // is discarded with it.
    assert!(s.execute("INSERT INTO T (id, k, doc) VALUES (4, 4, 'ok'), (5, 'x', 'bad')").is_err());
    idle(&server);
    // The direct lane: events are delivered inside the statement.
    server.admin(|db| {
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM T WHERE id = 3").unwrap();
        db.execute("COMMIT").unwrap(); // Commit
    });
    idle(&server);

    let seen: Vec<String> =
        s.query("SELECT ev FROM AUDIT").unwrap().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(seen, ["COMMIT", "ROLLBACK", "COMMIT", "COMMIT"], "every delivered write is final");
}
