//! Crash-recovery tests: WAL + checkpoint durability (DESIGN.md §4i).
//!
//! The crash model: a [`DurableMedium`] plays the disk — it survives the
//! `Database` instance. A crash is simulated by arming one of the
//! `wal.*` fault points; the armed fault fires inside the medium at the
//! chosen instant, freezes it (nothing reaches "disk" afterwards), and
//! the statement in flight errors out. Dropping the dead `Database` and
//! running `enable_durability` on the surviving medium is process
//! restart + recovery.
//!
//! What must hold at EVERY crash point:
//! - recovered state is bag-equal to the committed prefix (the crashed
//!   statement fully disappears — statement atomicity extends across
//!   process death);
//! - domain indexes over internal tables recover for free via the WAL;
//! - external-file indexes whose files saw post-commit writes come back
//!   `QUARANTINED` and are restored by `ALTER INDEX … REBUILD`;
//! - a crash inside `checkpoint()` loses nothing.

use extidx::core::health::HealthState;
use extidx::sql::Database;
use extidx::spatial::{geometry_sql, SpatialWorkload};
use extidx::storage::wal::{
    FP_WAL_APPEND, FP_WAL_APPLY, FP_WAL_CHECKPOINT, FP_WAL_CHECKPOINT_TRUNCATE, FP_WAL_COMMIT,
};
use extidx::storage::DurableMedium;
use extidx::vir::SignatureWorkload;
use extidx_common::Value;

/// Statement-level crash points (the checkpoint points fire only inside
/// `checkpoint()` and are exercised separately).
const STMT_POINTS: &[&str] = &[FP_WAL_APPEND, FP_WAL_APPLY, FP_WAL_COMMIT];

/// Sorted `SELECT *` bag of one table as display strings.
fn bag(db: &mut Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(&format!("SELECT * FROM {table}"))
        .unwrap_or_else(|e| panic!("SELECT * FROM {table}: {e}"))
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// Observable state: every table's bag plus every probe's sorted result.
fn observe(db: &mut Database, probes: &[(String, Vec<Value>)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut tables = db.catalog().table_names();
    tables.sort();
    for t in tables {
        out.push(format!("table {t}: {}", bag(db, &t).join(" | ")));
    }
    for (sql, binds) in probes {
        let mut rows: Vec<String> = db
            .query_with(sql, binds)
            .unwrap_or_else(|e| panic!("probe {sql}: {e}"))
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        out.push(format!("probe {sql}: {}", rows.join(" | ")));
    }
    out
}

/// Crash `db` by arming `point` and running `crash_stmt`; returns the
/// medium for recovery. Panics if the fault never fired (the scenario
/// would be vacuous) or if the statement "succeeded" through a crash.
fn crash(mut db: Database, medium: &DurableMedium, point: &str, crash_stmt: &str) {
    db.fault_injector().arm_fail(point, None, 1);
    let r = db.execute(crash_stmt);
    assert!(
        db.fault_injector().fired() > 0,
        "crash point {point} never fired for: {crash_stmt}"
    );
    assert!(r.is_err(), "statement survived a simulated crash at {point}: {crash_stmt}");
    assert!(medium.is_crashed(), "medium not frozen after crash at {point}");
    // `db` dropped here — the process is dead.
}

// ---- heap / IOT / LOB matrix ------------------------------------------------

/// One storage-shape scenario: committed setup, a crashing mutation, and
/// the invariant that recovery restores exactly the committed prefix.
fn storage_shape_roundtrip(make: impl Fn(&mut Database), crash_stmt: &str, table: &str) {
    for point in STMT_POINTS {
        let medium = DurableMedium::new();
        let committed = {
            let mut db = Database::with_cache_pages(256);
            db.enable_durability(medium.clone()).unwrap();
            make(&mut db);
            let committed = bag(&mut db, table);
            crash(db, &medium, point, crash_stmt);
            committed
        };
        let mut rec = Database::with_cache_pages(256);
        rec.enable_durability(medium.clone()).unwrap();
        assert_eq!(
            bag(&mut rec, table),
            committed,
            "crash at {point} during `{crash_stmt}`: recovered bag != committed prefix"
        );
        // The recovered instance is live: it can mutate and commit again.
        rec.execute(&format!("DELETE FROM {table} WHERE 1 = 0")).unwrap();
    }
}

#[test]
fn heap_crash_points_restore_committed_prefix() {
    storage_shape_roundtrip(
        |db| {
            db.execute("CREATE TABLE h (id INTEGER, val VARCHAR2(40))").unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO h VALUES ({i}, 'row {i}')")).unwrap();
            }
            db.execute("DELETE FROM h WHERE id >= 15").unwrap();
            db.execute("UPDATE h SET val = 'updated' WHERE id < 3").unwrap();
        },
        "INSERT INTO h VALUES (100, 'uncommitted'), (101, 'also uncommitted')",
        "h",
    );
}

#[test]
fn iot_crash_points_restore_committed_prefix() {
    storage_shape_roundtrip(
        |db| {
            db.execute(
                "CREATE TABLE k (id INTEGER, val VARCHAR2(40), PRIMARY KEY (id)) ORGANIZATION INDEX",
            )
            .unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO k VALUES ({i}, 'row {i}')")).unwrap();
            }
            db.execute("DELETE FROM k WHERE id >= 15").unwrap();
        },
        "UPDATE k SET val = 'uncommitted' WHERE id < 10",
        "k",
    );
}

#[test]
fn lob_crash_points_restore_committed_prefix() {
    for point in STMT_POINTS {
        let medium = DurableMedium::new();
        {
            let mut db = Database::with_cache_pages(256);
            db.enable_durability(medium.clone()).unwrap();
            db.execute("CREATE TABLE blobs (id INTEGER, data CLOB)").unwrap();
            db.execute("INSERT INTO blobs VALUES (1, 'the committed payload')").unwrap();
            crash(db, &medium, point, "INSERT INTO blobs VALUES (2, 'lost forever')");
        }
        let mut rec = Database::with_cache_pages(256);
        rec.enable_durability(medium.clone()).unwrap();
        let rows = rec.query("SELECT id, data FROM blobs").unwrap();
        assert_eq!(rows.len(), 1, "crash at {point}: uncommitted LOB row survived");
        let Value::Lob(lob) = rows[0][1] else { panic!("expected LOB value") };
        assert_eq!(
            rec.storage().lob_read_all(lob).unwrap(),
            b"the committed payload",
            "crash at {point}: LOB bytes not recovered"
        );
    }
}

// ---- domain-index matrix ----------------------------------------------------

struct Rig {
    name: &'static str,
    /// The domain index's catalog name.
    index_name: &'static str,
    db: Database,
    medium: DurableMedium,
    crash_stmts: Vec<String>,
    probes: Vec<(String, Vec<Value>)>,
    /// Rebuild the same engine shape for the recovered instance.
    install: fn(&mut Database),
}

fn durable(install: fn(&mut Database)) -> (Database, DurableMedium) {
    let mut db = Database::with_cache_pages(4096);
    install(&mut db);
    let medium = DurableMedium::new();
    db.enable_durability(medium.clone()).unwrap();
    (db, medium)
}

fn text_rig() -> Rig {
    fn install(db: &mut Database) {
        extidx::text::install(db).unwrap();
    }
    let (mut db, medium) = durable(install);
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for (id, body) in
        [(1, "ale under the gorse"), (2, "cole and dun ferries"), (3, "gorse hale erg")]
    {
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i64::from(id).into(), body.into()])
            .unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    Rig {
        name: "text",
        index_name: "DT",
        db,
        medium,
        crash_stmts: vec![
            "INSERT INTO docs VALUES (10, 'fyn brix gorse'), (11, 'ale cole')".into(),
            "UPDATE docs SET body = 'brix fyn rewritten' WHERE id >= 2".into(),
            "DELETE FROM docs WHERE id >= 2".into(),
        ],
        probes: vec![
            ("SELECT id FROM docs WHERE Contains(body, 'gorse')".into(), vec![]),
            ("SELECT id FROM docs WHERE Contains(body, 'ale OR dun')".into(), vec![]),
        ],
        install,
    }
}

fn spatial_rig() -> Rig {
    fn install(db: &mut Database) {
        extidx::spatial::install(db).unwrap();
    }
    let (mut db, medium) = durable(install);
    db.execute("CREATE TABLE parcels (gid INTEGER, geometry SDO_GEOMETRY)").unwrap();
    let mut wl = SpatialWorkload::new(800.0, 41);
    for gid in 1..=3i64 {
        let g = geometry_sql(&wl.rect(5.0, 50.0));
        db.execute(&format!("INSERT INTO parcels VALUES ({gid}, {g})")).unwrap();
    }
    db.execute("CREATE INDEX sx ON parcels(geometry) INDEXTYPE IS RtreeIndexType").unwrap();
    let g1 = geometry_sql(&wl.rect(5.0, 50.0));
    let g2 = geometry_sql(&wl.rect(5.0, 50.0));
    let window = geometry_sql(&wl.rect(200.0, 700.0));
    Rig {
        name: "rtree",
        index_name: "SX",
        db,
        medium,
        crash_stmts: vec![
            format!("INSERT INTO parcels VALUES (10, {g1}), (11, {g2})"),
            "DELETE FROM parcels WHERE gid >= 2".into(),
        ],
        probes: vec![(
            format!(
                "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')"
            ),
            vec![],
        )],
        install,
    }
}

fn vir_rig() -> Rig {
    fn install(db: &mut Database) {
        extidx::vir::install(db).unwrap();
    }
    let (mut db, medium) = durable(install);
    db.execute("CREATE TABLE assets (id INTEGER, img VIR_IMAGE)").unwrap();
    let mut wl = SignatureWorkload::new(17);
    let base = wl.random();
    for id in 1..=3i64 {
        let sig = wl.near_duplicate(&base, 0.3);
        db.execute_with(
            "INSERT INTO assets VALUES (?, VIR_IMAGE(?))",
            &[id.into(), sig.serialize().into()],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX ax ON assets(img) INDEXTYPE IS VirIndexType").unwrap();
    Rig {
        name: "vir",
        index_name: "AX",
        db,
        medium,
        crash_stmts: vec!["DELETE FROM assets WHERE id >= 2".into()],
        probes: vec![(
            "SELECT id FROM assets WHERE VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 2.5)"
                .into(),
            vec![base.serialize().into()],
        )],
        install,
    }
}

fn chem_rig(params: &'static str, name: &'static str) -> Rig {
    fn install(db: &mut Database) {
        extidx::chem::install(db).unwrap();
    }
    let (mut db, medium) = durable(install);
    db.execute("CREATE TABLE compounds (id INTEGER, mol VARCHAR2(256))").unwrap();
    for (id, mol) in [(1, "CC(=O)N"), (2, "CCO"), (3, "CCN")] {
        db.execute_with("INSERT INTO compounds VALUES (?, ?)", &[i64::from(id).into(), mol.into()])
            .unwrap();
    }
    db.execute(&format!(
        "CREATE INDEX cx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS ('{params}')"
    ))
    .unwrap();
    Rig {
        name,
        index_name: "CX",
        db,
        medium,
        crash_stmts: vec![
            "INSERT INTO compounds VALUES (10, 'CC(=O)NC'), (11, 'CCCO')".into(),
            "DELETE FROM compounds WHERE id >= 2".into(),
        ],
        probes: vec![
            ("SELECT id FROM compounds WHERE MolContains(mol, 'CC(=O)N')".into(), vec![]),
            ("SELECT id FROM compounds WHERE MolContains(mol, 'CCO')".into(), vec![]),
        ],
        install,
    }
}

/// The matrix: every cartridge × every statement crash point × every DML
/// shape × every call site of the point within the statement (`at_call`
/// sweep — a crash on the FIRST `wal.append` of an INSERT lands before
/// any index maintenance ran, a crash on a later one lands after the
/// chem FILE store already wrote to its file; both must recover).
///
/// Internal-table indexes must come back VALID and answering; the
/// external-file chem index comes back QUARANTINED whenever the crash
/// landed after a post-commit file write, and must be restored by
/// REBUILD. Either way the recovered observable state must equal the
/// committed prefix.
#[test]
fn domain_index_crash_matrix() {
    type RigMaker = fn() -> Rig;
    let makers: Vec<(RigMaker, bool)> = vec![
        (text_rig as RigMaker, false),
        (spatial_rig, false),
        (vir_rig, false),
        (|| chem_rig(":Storage LOB", "chem-lob"), false),
        (|| chem_rig(":Storage FILE :Events ON", "chem-file"), true),
    ];
    for (maker, file_backed) in &makers {
        let probe_rig = maker();
        let ncrash = probe_rig.crash_stmts.len();
        drop(probe_rig);
        let mut quarantine_seen = false;
        for ci in 0..ncrash {
            for point in STMT_POINTS {
                // Sweep the point's call sites until one instance of the
                // statement no longer reaches call `k`.
                for k in 1..=200u64 {
                    let mut rig = maker();
                    let committed = observe(&mut rig.db, &rig.probes);
                    let stmt = rig.crash_stmts[ci].clone();
                    rig.db.fault_injector().arm_fail(point, None, k);
                    let r = rig.db.execute(&stmt);
                    if rig.db.fault_injector().fired() == 0 {
                        // The statement has fewer than k call sites for
                        // this point: sweep exhausted.
                        assert!(k > 1, "{}: {point} never fired for `{stmt}`", rig.name);
                        break;
                    }
                    assert!(r.is_err(), "{}: statement survived crash at {point}#{k}", rig.name);
                    assert!(rig.medium.is_crashed(), "{}: medium not frozen at {point}#{k}", rig.name);
                    drop(rig.db); // the process is dead

                    let mut rec = Database::with_cache_pages(4096);
                    (rig.install)(&mut rec);
                    rec.enable_durability(rig.medium.clone()).unwrap();

                    if rec.index_health(rig.index_name) == HealthState::Quarantined {
                        // The backing file absorbed writes from the
                        // crashed statement (files do not wait for
                        // commit): only legal for the FILE-backed rig.
                        assert!(
                            *file_backed,
                            "{}: internal-table index quarantined at {point}#{k}",
                            rig.name
                        );
                        quarantine_seen = true;
                        // Degraded probes still answer via the fallback.
                        let _ = observe(&mut rec, &rig.probes);
                        rec.execute(&format!("ALTER INDEX {} REBUILD", rig.index_name))
                            .unwrap_or_else(|e| {
                                panic!("{}: REBUILD after crash at {point}#{k}: {e}", rig.name)
                            });
                    } else {
                        // Index storage replayed from the WAL (or, for
                        // the FILE rig, the crash landed before any file
                        // write): everything must be VALID.
                        for s in &rec.catalog().health.snapshot() {
                            assert_eq!(
                                s.state,
                                HealthState::Valid,
                                "{}: crash at {point}#{k} during `{stmt}`: index {} not VALID",
                                rig.name,
                                s.index
                            );
                        }
                    }
                    assert_eq!(
                        observe(&mut rec, &rig.probes),
                        committed,
                        "{}: crash at {point}#{k} during `{stmt}`: recovered != committed prefix",
                        rig.name
                    );
                }
            }
        }
        assert_eq!(
            *file_backed, quarantine_seen,
            "quarantine expected iff FILE-backed (rig family with {})",
            if *file_backed { "external files" } else { "internal storage" }
        );
    }
}

// ---- checkpoints ------------------------------------------------------------

#[test]
fn checkpoint_truncates_wal_and_roundtrips() {
    let medium = DurableMedium::new();
    {
        let mut db = Database::with_cache_pages(256);
        db.enable_durability(medium.clone()).unwrap();
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR2(20))").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')")).unwrap();
        }
        let before = medium.stats().wal_len;
        assert!(before > 0, "WAL empty before checkpoint");
        db.checkpoint().unwrap();
        assert_eq!(medium.stats().wal_len, 0, "checkpoint did not truncate the WAL");
        // Post-checkpoint mutations land in the (short) WAL tail.
        db.execute("DELETE FROM t WHERE id >= 40").unwrap();
        db.execute("INSERT INTO t VALUES (99, 'after checkpoint')").unwrap();
        crash(db, &medium, FP_WAL_COMMIT, "DELETE FROM t WHERE id < 5");
    }
    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium.clone()).unwrap();
    let rows = rec.query("SELECT id FROM t").unwrap();
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Integer(i) => i,
            ref other => panic!("bad id {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    let mut expected: Vec<i64> = (0..40).collect();
    expected.push(99);
    assert_eq!(ids, expected);
}

#[test]
fn crash_mid_checkpoint_loses_nothing() {
    for point in [FP_WAL_CHECKPOINT, FP_WAL_CHECKPOINT_TRUNCATE] {
        let medium = DurableMedium::new();
        let committed = {
            let mut db = Database::with_cache_pages(256);
            db.enable_durability(medium.clone()).unwrap();
            db.execute("CREATE TABLE t (id INTEGER)").unwrap();
            for i in 0..10 {
                db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
            let committed = bag(&mut db, "t");
            db.fault_injector().arm_fail(point, None, 1);
            assert!(db.checkpoint().is_err(), "checkpoint survived a crash at {point}");
            assert!(db.fault_injector().fired() > 0);
            committed
        };
        let mut rec = Database::with_cache_pages(256);
        rec.enable_durability(medium.clone()).unwrap();
        assert_eq!(bag(&mut rec, "t"), committed, "crash at {point} lost committed rows");
    }
}

#[test]
fn checkpoint_refused_inside_transaction() {
    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium).unwrap();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(db.checkpoint().is_err(), "checkpoint inside an open transaction must be refused");
    db.execute("COMMIT").unwrap();
    db.checkpoint().unwrap();
}

/// A checkpoint is the physical pages and nothing else, and "is a
/// transaction open" has one answer for every lane: a `Session`'s open
/// transaction blocks it exactly like the direct lane's, so an
/// uncommitted in-place row can never be snapshotted as committed.
#[test]
fn checkpoint_refused_while_a_session_transaction_is_open() {
    use extidx::sql::Server;

    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium.clone()).unwrap();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    let server = Server::new(db);

    let mut s = server.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(
        server.admin(|db| db.checkpoint()).is_err(),
        "checkpoint while a session transaction is open must be refused"
    );
    s.execute("COMMIT").unwrap();
    server.admin(|db| db.checkpoint()).expect("nothing open: checkpoint goes through");

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (666)").unwrap();
    assert!(server.admin(|db| db.checkpoint()).is_err());
    // Process death with the transaction open.
    std::mem::forget(s);
    drop(server);

    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(
        bag(&mut rec, "t"),
        vec!["[Integer(1)]".to_string()],
        "an uncommitted session row must not survive recovery as committed"
    );
}

/// Under a daemon that never gets round to it, a committed session
/// DELETE is still a dead mark on a physically present row. The
/// checkpoint vacuums first, so the snapshot (which carries no chains)
/// cannot resurrect it.
#[test]
fn checkpoint_vacuums_first_so_a_deferred_delete_stays_deleted() {
    use extidx::sql::{GovernorConfig, Server};
    use std::time::Duration;

    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium.clone()).unwrap();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let hour = Duration::from_secs(3600);
    let lazy = GovernorConfig { interval: hour, min_interval: hour, ..GovernorConfig::default() };
    let server = Server::with_config(db, lazy);

    let mut s = server.session();
    s.execute("DELETE FROM t WHERE id = 2").unwrap();
    server.admin(|db| db.checkpoint()).unwrap();
    std::mem::forget(s);
    drop(server);

    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(
        bag(&mut rec, "t"),
        vec!["[Integer(1)]".to_string(), "[Integer(3)]".to_string()],
        "a committed delete must stay deleted across checkpoint + recovery"
    );
}

// ---- explicit transactions --------------------------------------------------

#[test]
fn open_transaction_tail_is_discarded_and_committed_txn_survives() {
    let medium = DurableMedium::new();
    {
        let mut db = Database::with_cache_pages(256);
        db.enable_durability(medium.clone()).unwrap();
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        // A committed transaction: survives.
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.execute("COMMIT").unwrap();
        // A rolled-back transaction: its net effect (nothing) survives.
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        db.execute("ROLLBACK").unwrap();
        // An open transaction at crash time: discarded wholesale.
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (4)").unwrap();
        db.execute("INSERT INTO t VALUES (5)").unwrap();
        // No crash needed: process death without COMMIT is enough.
    }
    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(bag(&mut rec, "t"), vec!["[Integer(1)]".to_string(), "[Integer(2)]".to_string()]);
}

// ---- satellite 1: external-file lifecycle orphan audit ----------------------

#[test]
fn chem_file_lifecycle_never_leaks_files() {
    let mut db = Database::with_cache_pages(256);
    extidx::chem::install(&mut db).unwrap();
    db.execute("CREATE TABLE compounds (id INTEGER, mol VARCHAR2(256))").unwrap();
    db.execute("INSERT INTO compounds VALUES (1, 'CCO')").unwrap();

    // Plain create → drop: file removed.
    db.execute(
        "CREATE INDEX cx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')",
    )
    .unwrap();
    assert!(db.storage().files_ref().exists("dr$cx.fpidx"));
    db.execute("DROP INDEX cx").unwrap();
    assert!(
        db.storage().files_ref().list().is_empty(),
        "files leaked after DROP INDEX: {:?}",
        db.storage().files_ref().list()
    );

    // Failed CREATE whose cleanup also faults: the entry stays
    // BUILD_FAILED, and the later DROP must still remove the file.
    db.fault_injector().arm_fail("chem.build.assembled", None, 1);
    db.fault_injector().arm_fail("ODCIIndexDrop", Some("CHEMINDEXTYPE"), 1);
    assert!(db
        .execute(
            "CREATE INDEX cx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')",
        )
        .is_err());
    db.fault_injector().disarm_all();
    assert_eq!(db.index_health("CX"), HealthState::BuildFailed);
    db.execute("DROP INDEX cx").unwrap();
    assert!(
        db.storage().files_ref().list().is_empty(),
        "files leaked after DROP of a BUILD_FAILED index: {:?}",
        db.storage().files_ref().list()
    );

    // REBUILD-from-scratch replaces the backing file.
    db.execute(
        "CREATE INDEX cx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS (':Storage FILE')",
    )
    .unwrap();
    db.execute("INSERT INTO compounds VALUES (2, 'CCN')").unwrap();
    db.quarantine_index("CX").unwrap();
    db.catalog().health.mark_dirty("CX");
    db.execute("ALTER INDEX cx REBUILD").unwrap();
    assert_eq!(db.index_health("CX"), HealthState::Valid);
    assert_eq!(db.storage().files_ref().list(), vec!["dr$cx.fpidx".to_string()]);
    let ids = db.query("SELECT id FROM compounds WHERE MolContains(mol, 'CC')").unwrap();
    assert_eq!(ids.len(), 2, "rebuilt FILE index lost rows");
}

// ---- satellite 2: zone maps stay a superset under rollback churn ------------

/// Zone maps may widen but must never exclude a live row. Churn the
/// table through interleaved committed and rolled-back statements (plus
/// failed statements, which take the undo path), then demand range
/// queries agree with pruning on and off.
#[test]
fn zone_maps_survive_rollback_churn() {
    let mut db = Database::with_cache_pages(256);
    db.execute("CREATE TABLE z (id INTEGER, num INTEGER)").unwrap();
    for i in 0..60 {
        db.execute(&format!("INSERT INTO z VALUES ({i}, {})", i * 10)).unwrap();
    }
    for round in 0..8 {
        // Committed churn.
        db.execute(&format!("DELETE FROM z WHERE id >= {}", 50 - round * 3)).unwrap();
        db.execute(&format!("INSERT INTO z VALUES ({}, {})", 200 + round, round * 1000)).unwrap();
        db.execute(&format!("UPDATE z SET num = num + 1 WHERE id < {}", round * 2)).unwrap();
        // Rolled-back churn: must leave zones valid (superset is fine).
        db.execute("BEGIN").unwrap();
        db.execute(&format!("DELETE FROM z WHERE id < {}", round * 4)).unwrap();
        db.execute(&format!("INSERT INTO z VALUES (900, {})", round * 7777)).unwrap();
        db.execute("UPDATE z SET num = 0 - num WHERE id >= 10").unwrap();
        db.execute("ROLLBACK").unwrap();
        // Every range query agrees with pruning on and off.
        for (lo, hi) in [(0, 100), (100, 500), (round * 100, round * 100 + 250), (5000, 9000)] {
            db.set_zone_pruning(true);
            let mut pruned: Vec<String> = db
                .query(&format!("SELECT id FROM z WHERE num >= {lo} AND num <= {hi}"))
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            db.set_zone_pruning(false);
            let mut full: Vec<String> = db
                .query(&format!("SELECT id FROM z WHERE num >= {lo} AND num <= {hi}"))
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            db.set_zone_pruning(true);
            pruned.sort();
            full.sort();
            assert_eq!(
                pruned, full,
                "round {round}: zone pruning dropped rows for num in [{lo}, {hi}]"
            );
        }
    }
}

// ---- satellite 3: REBUILD replay must not lose pending work -----------------

/// A quarantined index accumulates deferred maintenance; a REBUILD whose
/// replay faults mid-way must keep the FULL pending log (statement
/// compensation inverses the applied prefix), so a later recovery still
/// has everything it is owed.
#[test]
fn failed_replay_keeps_full_pending_log() {
    let mut db = Database::with_cache_pages(256);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(100))").unwrap();
    db.execute("INSERT INTO docs VALUES (1, 'alpha beta')").unwrap();
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.quarantine_index("DT").unwrap();
    // Deferred maintenance accrues while quarantined.
    db.execute("INSERT INTO docs VALUES (2, 'gamma delta')").unwrap();
    db.execute("INSERT INTO docs VALUES (3, 'epsilon zeta')").unwrap();
    db.execute("INSERT INTO docs VALUES (4, 'eta theta')").unwrap();
    let owed = db.catalog().health.snapshot()[0].pending_ops;
    assert_eq!(owed, 3);
    // Replay faults on its second op: the first op was applied, then
    // compensated away by statement atomicity — so all 3 are still owed.
    db.fault_injector().arm_fail("ODCIIndexInsert", Some("TEXTINDEXTYPE"), 2);
    assert!(db.execute("ALTER INDEX dt REBUILD").is_err());
    db.fault_injector().disarm_all();
    let snap = &db.catalog().health.snapshot()[0];
    assert_eq!(
        snap.pending_ops, owed,
        "failed replay dropped pending ops: {} of {owed} left",
        snap.pending_ops
    );
    // Recovery still completes (the breaker may demand a full rebuild;
    // either path must restore VALID and correct answers).
    db.execute("ALTER INDEX dt REBUILD").unwrap();
    assert_eq!(db.index_health("DT"), HealthState::Valid);
    let hits = db.query("SELECT id FROM docs WHERE Contains(body, 'gamma')").unwrap();
    assert_eq!(hits.len(), 1);
    let hits = db.query("SELECT id FROM docs WHERE Contains(body, 'eta')").unwrap();
    assert_eq!(hits.len(), 1);
}

// ---- qgen crash-recover sweep ----------------------------------------------

/// Seeded workloads × every WAL crash point: recovered state must be
/// bag-equal to a twin that executed exactly the committed prefix.
#[test]
fn qgen_crash_recover_sweep() {
    for seed in [1, 2, 3] {
        if let Some(detail) = extidx_qgen::run_crash_seed(seed, 40) {
            panic!("crash-recovery divergence: {detail}");
        }
    }
}

// ---- MVCC: crash with two in-flight sessions --------------------------------

/// Two sessions interleave WAL records; one commits, one is still open
/// at process death. Recovery must replay exactly the committed
/// transaction — its records regrouped out of the interleaving — and
/// discard every record of the open one, marker-less in the log.
#[test]
fn crash_with_two_in_flight_sessions_keeps_only_the_committed_one() {
    use extidx::sql::Server;

    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium.clone()).unwrap();
    db.execute("CREATE TABLE pair (id INTEGER)").unwrap();
    let server = Server::new(db);

    let mut a = server.session();
    let mut b = server.session();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    // Interleave so the log carries a:1, b:100, a:2, b:101 in sequence.
    a.execute("INSERT INTO pair VALUES (1)").unwrap();
    b.execute("INSERT INTO pair VALUES (100)").unwrap();
    a.execute("INSERT INTO pair VALUES (2)").unwrap();
    b.execute("INSERT INTO pair VALUES (101)").unwrap();
    a.execute("COMMIT").unwrap();
    // More in-flight records after the committed marker.
    b.execute("INSERT INTO pair VALUES (102)").unwrap();

    // Process death: neither session runs its Drop cleanup (a Drop would
    // write an orderly rollback; a crash writes nothing).
    std::mem::forget(b);
    std::mem::forget(a);
    drop(server);

    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(
        bag(&mut rec, "pair"),
        vec!["[Integer(1)]".to_string(), "[Integer(2)]".to_string()],
        "recovery must keep the committed transaction and discard the open one"
    );
}

/// Same shape, but the crash fires inside the first session's COMMIT
/// (the commit-marker append). Neither transaction has a durable marker,
/// so recovery must discard both — commit atomicity across process death
/// with a second transaction's records interleaved in the log.
#[test]
fn crash_during_commit_with_second_transaction_in_flight_discards_both() {
    use extidx::sql::Server;

    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium.clone()).unwrap();
    db.execute("CREATE TABLE pair (id INTEGER)").unwrap();
    db.fault_injector().arm_fail(FP_WAL_COMMIT, None, 1);
    let server = Server::new(db);

    let mut a = server.session();
    let mut b = server.session();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("INSERT INTO pair VALUES (1)").unwrap();
    b.execute("INSERT INTO pair VALUES (100)").unwrap();
    let err = a.execute("COMMIT").expect_err("armed commit point must crash the commit");
    assert!(format!("{err}").contains("fault"), "unexpected commit error: {err}");

    std::mem::forget(b);
    std::mem::forget(a);
    drop(server);

    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(
        bag(&mut rec, "pair"),
        Vec::<String>::new(),
        "a commit that never reached its marker must vanish wholesale"
    );
}

/// Commit markers share one dictionary image until something changes the
/// dictionary (DESIGN.md §4i). DDL between two DML commits must therefore
/// cut a new image: the recovered catalog is the post-DDL one, not the
/// image the earlier commits were sharing.
#[test]
fn ddl_between_dml_commits_recovers_the_post_ddl_catalog() {
    use extidx::core::operator::ScalarFunction;

    let medium = DurableMedium::new();
    {
        let mut db = Database::with_cache_pages(256);
        db.enable_durability(medium.clone()).unwrap();
        db.register_function(ScalarFunction::new("HalfFn", |_, args| {
            Ok(Value::Integer(args[0].as_integer()? / 2))
        }))
        .unwrap();
        db.execute("CREATE TABLE a (id INTEGER, v INTEGER)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 10)").unwrap();
        db.execute("INSERT INTO a VALUES (2, 20)").unwrap();
        db.execute("CREATE TABLE b (id INTEGER)").unwrap();
        db.execute("ANALYZE TABLE a").unwrap();
        db.execute("CREATE OPERATOR Half BINDING (INTEGER) RETURN INTEGER USING HalfFn").unwrap();
        db.execute("INSERT INTO b VALUES (7)").unwrap();
        crash(db, &medium, FP_WAL_COMMIT, "INSERT INTO b VALUES (8)");
    }
    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(rec.catalog().table_names(), ["A", "B"]);
    let stats = rec.catalog().table("a").unwrap().stats.clone().expect("ANALYZE output lost");
    assert_eq!(stats.row_count, 2);
    assert!(rec.catalog().registry().has_operator("Half"), "CREATE OPERATOR lost");
    assert_eq!(bag(&mut rec, "b"), ["[Integer(7)]"]);
    let hit = rec.query("SELECT id FROM b WHERE Half(id) = 3").unwrap();
    assert_eq!(hit.len(), 1, "the recovered operator must evaluate");
}
