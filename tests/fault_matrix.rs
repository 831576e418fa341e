//! Fault-matrix recovery tests: force a failure at every server↔cartridge
//! crossing during DML — for every indextype — and demand that base table,
//! B-tree indexes, and domain indexes all come back byte-identical to the
//! pre-statement state. This is the §5 consistency obligation made
//! testable: statement atomicity must hold even though cartridge failures
//! can strike after any prefix of the index-maintenance work is done.
//!
//! Mechanisms under test (see DESIGN.md "Statement atomicity under
//! cartridge failures"):
//! - row-level storage undo, for index data in the database,
//! - the file images a statement keeps of the external files it changes,
//!   written back when it fails (also with no §5 events registered),
//! - `DbEvent::Rollback` delivery, which reaches an external-file store
//!   on a transaction `ROLLBACK` too,
//! - the bounded-backoff retry loop for transient cartridge errors.

use std::sync::{Arc, Mutex};

use extidx::core::events::DbEvent;
use extidx::core::fault::FaultKind;
use extidx::core::health::BreakerConfig;
use extidx::core::server::ServerContext;
use extidx::sql::Database;
use extidx::storage::file_store::FileStats;
use extidx_common::Error;
use extidx_qgen::spec::{chem_rig, named_rig, observe, rigs, Rig};
use extidx_qgen::fresh_db;

/// A fresh engine holding `rig`'s fixture.
fn loaded(rig: &Rig) -> Database {
    let mut db = fresh_db();
    rig.load(&mut db);
    db
}

/// The matrix: for every operator spec's rig × DML × crossing, arm a
/// permanent fault of `kind` at the k-th matching call (k = 1, 2, … until
/// the statement completes without reaching the fault) and assert the
/// failed statement left every observable byte exactly as it found it.
/// Returns the injected-failure executions, and how many of them struck
/// at cartridge-internal points.
fn sweep(kind: FaultKind) -> (u32, u32) {
    let (mut injected_runs, mut internal_runs) = (0u32, 0u32);
    for rig in rigs() {
        let Rig { name, dmls, probes, .. } = &rig;
        let db = &mut loaded(&rig);
        if kind == FaultKind::Panic {
            // Keep the circuit breaker out of the way: this matrix pins
            // containment and statement atomicity; quarantine transitions
            // are pinned by tests/quarantine.rs. Without this a quarantined
            // index would start absorbing DML into its pending log and the
            // later crossings would never be reached.
            db.catalog().health.set_breaker(BreakerConfig { threshold: u32::MAX, window: 1 });
        }
        let s0 = observe(db, probes);
        let crossings = rig.crossings();
        let inj = db.fault_injector().clone();
        for (dml_name, dml) in dmls {
            for &(point, ity) in &crossings {
                let mut swept = 0;
                for k in 1..=8u64 {
                    inj.reset();
                    inj.arm(point, ity, k, kind);
                    db.execute("BEGIN").unwrap();
                    let res = db.execute(dml);
                    let reached = inj.fired() > 0;
                    inj.disarm_all();
                    let label = format!("{name}/{dml_name}/{point}#{k} ({kind:?})");
                    if reached {
                        let err = res.expect_err(&label);
                        if kind == FaultKind::Panic {
                            assert!(matches!(err, Error::CartridgeFault { .. }), "{label}: {err}");
                        } else {
                            assert!(!err.is_retryable(), "{label}: retryable escaped: {err}");
                        }
                        // Statement-atomic: already back to S0 before any
                        // transaction-level rollback.
                        assert_eq!(observe(db, probes), s0, "{label}: state torn after statement failure");
                        db.execute("ROLLBACK").unwrap();
                        assert_eq!(observe(db, probes), s0, "{label}: state torn after txn rollback");
                        swept += 1;
                        injected_runs += 1;
                        internal_runs += u32::from(ity.is_none());
                    } else {
                        // Fault armed beyond the last crossing: the DML ran
                        // clean; undo it via transaction rollback (which
                        // must also restore S0 — including external files,
                        // via the rollback event).
                        res.unwrap_or_else(|e| panic!("{label}: clean run failed: {e}"));
                        db.execute("ROLLBACK").unwrap();
                        assert_eq!(observe(db, probes), s0, "{label}: txn rollback incomplete");
                        break;
                    }
                    assert!(k < 8, "{label}: fault still firing at call 8 — runaway crossing count");
                }
                // Every DML must cross the maintenance routine of its own
                // kind (insert→Insert, …) for the matrix to mean anything;
                // other routines legitimately sweep zero.
                let own = ["insert", "update", "delete"].iter().position(|d| d == dml_name);
                if own.is_some_and(|i| crossings[i].0 == point) {
                    assert!(swept > 0, "{name}/{dml_name}: {point} never reached");
                }
            }
        }
    }
    (injected_runs, internal_runs)
}

#[test]
fn fault_at_every_crossing_leaves_state_unchanged() {
    let (injected_runs, internal_runs) = sweep(FaultKind::Fail);
    // Visible under --nocapture; the matrix size is reported in
    // EXPERIMENTS.md E11.
    println!(
        "fault matrix: {injected_runs} injected-failure statement executions verified \
         ({} at ODCI entry points, {internal_runs} at cartridge-internal points)",
        injected_runs - internal_runs
    );
}

/// External files with no §5 events: a fault (returned or panicked) at
/// every crossing of every DML on the chem `':Storage FILE'` rig, each
/// statement autocommitted. A failed statement must leave the file's
/// bytes, every table and the probes forced through the index as it found
/// them — the file is restored from the image the statement kept, as
/// nothing else reaches it without events. (A transaction `ROLLBACK` is
/// not asserted here: by §5 it leaves stale file records, which E9
/// reports.)
#[test]
fn fault_at_every_crossing_restores_an_external_file_without_events() {
    let rig = chem_rig(":Storage FILE");
    assert!(rig.file_backed);
    let hint = format!("SELECT /*+ INDEX({} {}) */ ", rig.table, rig.index);
    // The rig's last probe reads a row by key; the others are operator
    // probes, which also run forced through the index.
    let (_, ops) = rig.probes.split_last().expect("probes");
    let mut probes = rig.probes.clone();
    probes.extend(ops.iter().map(|p| p.replacen("SELECT ", &hint, 1)));
    // The file bytes, every table and the probes, plain and forced.
    let state = |db: &mut Database| -> (Vec<(Vec<u8>, String)>, Vec<String>) {
        let files = db.storage().files_ref();
        let bytes = files.list().into_iter().map(|f| (files.read(&f).unwrap(), f)).collect();
        (bytes, observe(db, &probes))
    };
    // The breaker stays out of the way of the panics, as in `sweep`.
    let fixture = || {
        let db = loaded(&rig);
        db.catalog().health.set_breaker(BreakerConfig { threshold: u32::MAX, window: 1 });
        db
    };
    let mut failed = 0u32;
    for kind in [FaultKind::Fail, FaultKind::Panic] {
        let mut db = fixture();
        for (dml_name, dml) in &rig.dmls {
            for (point, ity) in rig.crossings() {
                for k in 1..=8u64 {
                    let before = state(&mut db);
                    let inj = db.fault_injector().clone();
                    inj.reset();
                    inj.arm(point, ity, k, kind);
                    let res = db.execute(dml);
                    let reached = inj.fired() > 0;
                    inj.disarm_all();
                    let label = format!("{dml_name}/{point}#{k} ({kind:?})");
                    if !reached {
                        // The DML ran clean and committed: start the next
                        // crossing from the fixture again.
                        res.unwrap_or_else(|e| panic!("{label}: clean run failed: {e}"));
                        db = fixture();
                        break;
                    }
                    res.expect_err(&label);
                    assert_eq!(state(&mut db), before, "{label}: external file or index torn");
                    failed += 1;
                }
            }
        }
    }
    assert!(failed > 0, "the sweep failed no statement");
    println!("no-events FILE matrix: {failed} failed statements, every one restored");
}

/// Panic-mode matrix (ignored by default; CI runs it via
/// `--include-ignored`): the same sweep, but the cartridge *panics* at the
/// crossing instead of returning an error. The sandbox must contain every
/// unwind — the process survives, the statement fails with a
/// `CartridgeFault`, and its rollback restores the pre-statement state
/// byte-for-byte, exactly as for a returned error.
#[test]
#[ignore = "full panic sweep; run via scripts/ci.sh or --include-ignored"]
fn panic_at_every_crossing_is_contained_and_leaves_state_unchanged() {
    let (contained_runs, _) = sweep(FaultKind::Panic);
    assert!(contained_runs > 0, "panic matrix swept nothing");
    println!("panic matrix: {contained_runs} contained-panic statement executions verified");
}

/// Transient faults (bounded runs of retryable errors) must be absorbed
/// by the engine's retry loop: every statement succeeds and leaves the
/// state a fault-free run leaves.
#[test]
fn transient_faults_are_absorbed_by_retry() {
    let (text, chem) = (named_rig("text"), named_rig("chem-file"));
    let cases: [(&Rig, &[&str], u64); 4] = [
        // Entry-crossing transients: the routine never ran, so the retry
        // starts clean. Two failures against a 3-attempt policy → absorbed.
        (&text, &["ODCIIndexInsert", "ODCIIndexUpdate", "ODCIIndexDelete"], 2),
        // Post-effect transients: the fault strikes *after* the cartridge
        // applied its postings, so the retry loop must first rewind the
        // partial effects (undo-mark split) or the index would
        // double-apply. The rewind cannot reach an external file, so there
        // the cartridge's append replaces the record a failed attempt left.
        (&text, &["text.maintenance.indexed"], 1),
        (&chem, &["chem.maintenance.indexed"], 1),
        // A transient failure of the server's file read, before any write.
        (&chem, &["file_read"], 2),
    ];
    for (rig, points, failures) in cases {
        // The same statements with no faults, for reference.
        let (mut db, mut twin) = (loaded(rig), loaded(rig));
        let inj = db.fault_injector().clone();
        for point in points {
            inj.arm(point, None, 1, FaultKind::Transient { failures: failures as u32 });
        }
        for (label, dml) in &rig.dmls {
            db.execute(dml).unwrap_or_else(|e| panic!("{points:?}/{label}: retry failed: {e}"));
            twin.execute(dml).unwrap();
            let want = observe(&mut twin, &rig.probes);
            assert_eq!(observe(&mut db, &rig.probes), want, "{points:?}/{label}: retried state");
        }
        assert_eq!(inj.fired(), failures * points.len() as u64, "{points:?}");
        assert!(!inj.is_armed(), "{points:?}");
    }
}

/// `DbEvent::Rollback` must reach registered handlers on *both* scopes:
/// a failed statement (statement-level rollback) and an explicit
/// transaction ROLLBACK.
#[test]
fn rollback_event_reaches_handlers_at_both_scopes() {
    let rig = named_rig("text");
    let db = &mut loaded(&rig);
    let events: Arc<Mutex<Vec<DbEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let handler = move |ev: DbEvent, _srv: &mut dyn ServerContext| -> extidx_common::Result<()> {
        sink.lock().unwrap().push(ev);
        Ok(())
    };
    db.register_event_handler("probe", Arc::new(handler));

    // Statement-level: induced cartridge failure mid-INSERT.
    let inj = db.fault_injector().clone();
    inj.arm_fail("ODCIIndexInsert", Some("TEXTINDEXTYPE"), 2);
    let insert = &rig.dmls[0].1;
    assert!(db.execute(insert).is_err());
    assert_eq!(events.lock().unwrap().as_slice(), &[DbEvent::Rollback]);

    // Transaction-level: clean DML, explicit ROLLBACK.
    db.execute("BEGIN").unwrap();
    db.execute(insert).unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(events.lock().unwrap().as_slice(), &[DbEvent::Rollback, DbEvent::Rollback]);

    // And COMMIT delivers Commit.
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM docs WHERE id = 3").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(
        events.lock().unwrap().as_slice(),
        &[DbEvent::Rollback, DbEvent::Rollback, DbEvent::Commit]
    );
}

/// A §5 handler that runs once a transaction has ended writes outside any
/// statement: it keeps no file image, so a later failed statement puts
/// back only the files it changed itself (and `run_top`'s debug assertion
/// that no image outlives its statement holds).
#[test]
fn a_handler_file_write_after_the_transaction_is_not_restored_by_a_later_failure() {
    let mut db = fresh_db();
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    let log = |ev: DbEvent, srv: &mut dyn ServerContext| -> extidx_common::Result<()> {
        if !srv.file_exists("events.log") {
            srv.file_create("events.log")?;
        }
        srv.file_append("events.log", format!("{ev};").as_bytes())
    };
    db.register_event_handler("log", Arc::new(log));
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("ROLLBACK").unwrap();
    // Row 3 lands before the second row fails: the statement had effects,
    // so its Rollback event runs, after its own images were restored.
    assert!(db.execute("INSERT INTO t VALUES (3), ('x')").is_err());
    let log = db.storage().files_ref().read("events.log").unwrap();
    assert_eq!(String::from_utf8(log).unwrap(), "COMMIT;ROLLBACK;ROLLBACK;");
    assert_eq!(db.query("SELECT id FROM t").unwrap(), vec![vec![1.into()]]);
}

/// The external-file counters of one successful single-row INSERT,
/// UPDATE and DELETE on a chem FILE store: a file image a statement keeps
/// is the server's read, not the cartridge's, and adds nothing to them.
#[test]
fn file_images_do_not_count_as_cartridge_file_io() {
    let mut db = loaded(&chem_rig(":Storage FILE"));
    let mut delta = |sql: &str| {
        db.reset_file_stats();
        db.execute(sql).unwrap();
        db.file_stats()
    };
    // Each change reads the file and writes it whole, then flushes (a
    // write op too); a record is 72 bytes, the fixture holds three.
    let io = |read_ops, bytes_read, bytes_written| FileStats {
        opens: 0,
        read_ops,
        write_ops: 2 * read_ops,
        bytes_read,
        bytes_written,
        flushes: read_ops,
    };
    // An update takes the old record out, then appends the new one.
    assert_eq!(delta("INSERT INTO compounds VALUES (20, 'CCCN')"), io(1, 216, 288));
    assert_eq!(delta("UPDATE compounds SET mol = 'CCOC' WHERE id = 1"), io(2, 504, 504));
    assert_eq!(delta("DELETE FROM compounds WHERE id = 2"), io(1, 288, 216));
}

/// Regression (ISSUE 2 satellite): DML against an index-organized base
/// table must maintain B-tree and domain indexes exactly like heap DML —
/// the `TableOrg::Index` arms used to skip maintenance entirely.
#[test]
fn iot_base_table_dml_maintains_secondary_and_domain_indexes() {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute(
        "CREATE TABLE docs (id INTEGER, tag INTEGER, body VARCHAR2(200), PRIMARY KEY (id)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    for (id, tag, body) in [(1, 7, "ale under the gorse"), (2, 7, "cole ferries"), (3, 9, "gorse hale")]
    {
        db.execute_with(
            "INSERT INTO docs VALUES (?, ?, ?)",
            &[i64::from(id).into(), i64::from(tag).into(), body.into()],
        )
        .unwrap();
    }
    // Secondary indexes on IOTs store logical rowids.
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE INDEX dtag ON docs(tag)").unwrap();

    let contains = |db: &mut Database, term: &str| -> Vec<i64> {
        let mut ids: Vec<i64> = db
            .query_with("SELECT id FROM docs WHERE Contains(body, ?)", &[term.into()])
            .unwrap()
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    };

    assert_eq!(contains(&mut db, "gorse"), vec![1, 3]);

    // INSERT maintains the domain index.
    db.execute("INSERT INTO docs VALUES (4, 9, 'fresh gorse brix')").unwrap();
    assert_eq!(contains(&mut db, "gorse"), vec![1, 3, 4]);

    // Non-key UPDATE keeps the logical rowid; postings must follow.
    db.execute("UPDATE docs SET body = 'no more shrubs' WHERE id = 1").unwrap();
    assert_eq!(contains(&mut db, "gorse"), vec![3, 4]);
    assert_eq!(contains(&mut db, "shrubs"), vec![1]);

    // Key-changing UPDATE moves the row to a new logical rowid: the
    // domain index must see delete-old + insert-new.
    db.execute("UPDATE docs SET id = 40 WHERE id = 4").unwrap();
    assert_eq!(contains(&mut db, "gorse"), vec![3, 40]);

    // DELETE removes postings.
    db.execute("DELETE FROM docs WHERE id = 3").unwrap();
    assert_eq!(contains(&mut db, "gorse"), vec![40]);

    // The B-tree on `tag` answers through logical rowids too.
    let mut tagged: Vec<i64> = db
        .query("SELECT id FROM docs WHERE tag = 9")
        .unwrap()
        .iter()
        .map(|r| r[0].as_integer().unwrap())
        .collect();
    tagged.sort_unstable();
    assert_eq!(tagged, vec![40]);

    // And the whole thing is transactional: rollback restores postings
    // under the original logical rowids.
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM docs WHERE id = 40").unwrap();
    assert_eq!(contains(&mut db, "gorse"), Vec::<i64>::new());
    db.execute("ROLLBACK").unwrap();
    assert_eq!(contains(&mut db, "gorse"), vec![40]);
    assert_eq!(contains(&mut db, "shrubs"), vec![1]);

    // Statement atomicity on an IOT: induced cartridge failure mid-insert
    // leaves no trace in table, B-tree, or domain index.
    let before = observe(&mut db, &[]);
    db.fault_injector().arm_fail("ODCIIndexInsert", Some("TEXTINDEXTYPE"), 2);
    assert!(db
        .execute("INSERT INTO docs VALUES (50, 1, 'gorse one'), (51, 1, 'gorse two')")
        .is_err());
    assert_eq!(observe(&mut db, &[]), before);
    assert_eq!(contains(&mut db, "gorse"), vec![40]);
}

/// Regression (ISSUE 2 satellite): self-referencing UPDATEs must see the
/// pre-statement state — the classic Halloween problem. All assignment
/// expressions are evaluated before any row is mutated.
#[test]
fn self_referencing_update_sees_pre_statement_state() {
    let mut db = Database::with_cache_pages(1024);
    db.execute("CREATE TABLE t (x INTEGER, y INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 100), (2, 200), (3, 300)").unwrap();
    db.execute("CREATE INDEX tx ON t(x)").unwrap();

    // Every row bumped exactly once, even though bumped rows re-qualify
    // under the WHERE predicate they were found through.
    db.execute("UPDATE t SET x = x + 10 WHERE x < 20").unwrap();
    let mut xs: Vec<i64> =
        db.query("SELECT x FROM t").unwrap().iter().map(|r| r[0].as_integer().unwrap()).collect();
    xs.sort_unstable();
    assert_eq!(xs, vec![11, 12, 13]);

    // Multi-assignment swap: both right-hand sides must read the
    // pre-statement row image, so the columns exchange cleanly instead of
    // one value overwriting both.
    db.execute("UPDATE t SET x = y, y = x").unwrap();
    let mut pairs: Vec<(i64, i64)> = db
        .query("SELECT x, y FROM t")
        .unwrap()
        .iter()
        .map(|r| (r[0].as_integer().unwrap(), r[1].as_integer().unwrap()))
        .collect();
    pairs.sort_unstable();
    assert_eq!(pairs, vec![(100, 11), (200, 12), (300, 13)]);
}

/// Faults during the scan path (start/fetch/close) and the optimizer's
/// stats callbacks surface as plain query errors and leave the engine
/// fully usable — no wedged scan workspace, no stale state.
#[test]
fn scan_and_stats_faults_fail_the_query_but_not_the_engine() {
    let db = &mut loaded(&named_rig("text"));
    // Bulk the table up so the cost model prefers the domain-index scan
    // over a full scan with functional operator evaluation — otherwise
    // the Start/Fetch crossings are never reached.
    for i in 100..180 {
        db.execute_with(
                "INSERT INTO docs VALUES (?, ?)",
                &[i64::from(i).into(), format!("filler row {i} without the term").into()],
            )
            .unwrap();
    }
    let inj = db.fault_injector().clone();
    // A distinct text per point: a cached plan would not consult the
    // stats routines again.
    let probe = |tag: &str| format!("SELECT /* {tag} */ id FROM docs WHERE Contains(body, 'gorse')");
    let clean = db.query(&probe("clean")).unwrap();
    for point in ["ODCIStatsSelectivity", "ODCIStatsIndexCost", "ODCIIndexStart", "ODCIIndexFetch"] {
        inj.reset();
        inj.arm_fail(point, Some("TEXTINDEXTYPE"), 1);
        let res = db.query(&probe(point));
        assert!(res.is_err(), "{point}: query should fail");
        assert_eq!(inj.fired(), 1, "{point} never reached");
        inj.disarm_all();
        assert_eq!(db.query(&probe(point)).unwrap(), clean, "{point}: engine wedged");
    }
}

/// Extended chaos sweep (ignored by default; CI runs it via
/// `--include-ignored`): on every rig, 300 seeded single-row
/// INSERT / UPDATE / DELETE statements with random keys and values drawn by
/// the column's operator spec, a fault armed at a random crossing before
/// every third one (sometimes transient). After every statement one random
/// operator probe forced through the domain index must answer the rows the
/// spec's mirror of the statements that succeeded answers: the index never
/// drifts from the base table, and a failed statement leaves no trace in
/// it.
#[test]
#[ignore = "long randomized sweep; run with --include-ignored"]
fn chaos_faults_never_desynchronize_the_index() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(20_260_805);
    for rig in rigs() {
        let db = &mut loaded(&rig);
        let inj = db.fault_injector().clone();
        let points = rig.crossings();
        let mut stream = rig.stream(rng.gen());
        for step in 0..300 {
            // Every third step, arm a random fault (sometimes transient).
            inj.reset();
            if step % 3 == 0 {
                let (point, ity) = points[rng.gen_range(0..points.len())];
                let kind = if rng.gen_bool(0.3) {
                    FaultKind::Transient { failures: rng.gen_range(1..=2) }
                } else {
                    FaultKind::Fail
                };
                inj.arm(point, ity, rng.gen_range(1..=2), kind);
            }
            // A fault may legitimately fail the statement; what can never
            // happen is drift between index answers and the base table.
            let _ = stream.execute(db);
            inj.disarm_all();
            stream.check(db).unwrap_or_else(|e| panic!("{}: step {step}: {e}", rig.name));
        }
    }
}
