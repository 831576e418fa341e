//! The cartridge sandbox and index health state machine (DESIGN.md §4g):
//! a panicking cartridge must never tear down the process — the failing
//! statement gets a clean `CartridgeFault`, the circuit breaker walks the
//! index VALID → SUSPECT → QUARANTINED, the optimizer silently degrades
//! to the functional fallback (annotated in EXPLAIN), base-table DML
//! keeps succeeding against the pending-work log, and
//! `ALTER INDEX … REBUILD` replays the log (or rebuilds from the base
//! table) to restore VALID with results identical to a never-faulted run.

use extidx::core::fault::FaultKind;
use extidx::core::health::{BreakerConfig, HealthState};
use extidx::sql::Database;
use extidx_common::{Error, Value};

/// Text cartridge over `docs(body)` plus a B-tree on `num`.
fn quarantine_db() -> Database {
    let mut db = Database::with_cache_pages(2048);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400), num NUMBER)").unwrap();
    let rows = [
        (1, "'alpha beta gamma'", "10.0"),
        (2, "'alpha delta'", "20.0"),
        (3, "'epsilon zeta'", "30.0"),
        (4, "'alpha omega'", "40.0"),
    ];
    for (id, body, num) in rows {
        db.execute(&format!("INSERT INTO docs VALUES ({id}, {body}, {num})")).unwrap();
    }
    db.execute("CREATE INDEX d_txt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db
}

fn ids(rows: &[Vec<Value>]) -> Vec<i64> {
    let mut out: Vec<i64> = rows
        .iter()
        .map(|r| match &r[0] {
            Value::Integer(i) => *i,
            other => panic!("expected integer id, got {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

const QUERY: &str = "SELECT id FROM docs WHERE Contains(body, 'alpha')";
/// Forced variant: pins the domain scan so the fault points in
/// Start/Fetch/Close are guaranteed to be crossed (the cost model is
/// free to prefer a full scan over a four-row table).
const FORCED: &str = "SELECT /*+ INDEX(docs d_txt) */ id FROM docs WHERE Contains(body, 'alpha')";

/// The acceptance pin for the whole sandbox: a cartridge that panics in
/// Fetch never aborts the process; the statement fails cleanly with a
/// `CartridgeFault`; the breaker reaches QUARANTINED at the threshold;
/// subsequent queries return correct rows via the functional fallback
/// with `[DEGRADED]` in EXPLAIN; and `ALTER INDEX … REBUILD` restores
/// VALID with results identical to a never-faulted run.
#[test]
fn panicking_fetch_degrades_then_rebuild_restores() {
    // Reference: the same query against a never-faulted engine.
    let reference = {
        let mut db = quarantine_db();
        ids(&db.query(QUERY).unwrap())
    };

    let mut db = quarantine_db();
    db.catalog().health.set_breaker(BreakerConfig { threshold: 3, window: 50 });
    let inj = db.fault_injector().clone();

    for attempt in 1..=3 {
        inj.arm("ODCIIndexFetch", Some("TEXTINDEXTYPE"), 1, FaultKind::Panic);
        let err = db.query(FORCED).expect_err("panicking fetch must fail the statement");
        inj.disarm_all();
        match &err {
            Error::CartridgeFault { indextype, routine, reason } => {
                assert_eq!(indextype, "TEXTINDEXTYPE");
                assert_eq!(*routine, "ODCIIndexFetch");
                assert!(reason.contains("injected panic"), "reason: {reason}");
            }
            other => panic!("attempt {attempt}: expected CartridgeFault, got {other}"),
        }
        let expected = if attempt < 3 { HealthState::Suspect } else { HealthState::Quarantined };
        assert_eq!(db.index_health("D_TXT"), expected, "after attempt {attempt}");
    }

    // Degraded: the optimizer plans the functional fallback, annotates
    // the quarantine, and the rows still come back correct.
    let plan = db.explain(QUERY).unwrap().join("\n");
    assert!(!plan.contains("DOMAIN INDEX SCAN"), "plan:\n{plan}");
    assert!(plan.contains("[DEGRADED: index quarantined: D_TXT]"), "plan:\n{plan}");
    assert!(plan.contains("FUNCTIONAL FALLBACK CONTAINS"), "plan:\n{plan}");
    assert_eq!(ids(&db.query(QUERY).unwrap()), reference, "fallback rows");

    // Forcing the quarantined index is an error, never a silent
    // fall-through (the hint contract).
    let err = db.query(FORCED).expect_err("forcing a quarantined index must fail");
    assert!(err.to_string().contains("QUARANTINED"), "err: {err}");

    // Recovery: REBUILD restores VALID, the index serves scans again,
    // and results match the never-faulted run.
    db.execute("ALTER INDEX d_txt REBUILD").unwrap();
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
    let plan = db.explain(FORCED).unwrap().join("\n");
    assert!(plan.contains("DOMAIN INDEX SCAN DOCS VIA D_TXT"), "plan:\n{plan}");
    assert!(!plan.contains("DEGRADED"), "plan:\n{plan}");
    assert_eq!(ids(&db.query(FORCED).unwrap()), reference, "post-rebuild rows via the index");
    assert_eq!(ids(&db.query(QUERY).unwrap()), reference, "post-rebuild rows unhinted");
}

/// DML against a quarantined index goes to the pending-work log (the
/// base table keeps accepting writes); REBUILD replays the log. After a
/// rollback the log can no longer be trusted, so REBUILD must take the
/// full from-base-table path instead — V$INDEX_HEALTH exposes which.
#[test]
fn pending_log_replay_and_full_rebuild_after_rollback() {
    let mut db = quarantine_db();
    db.quarantine_index("D_TXT").unwrap();
    assert_eq!(db.index_health("D_TXT"), HealthState::Quarantined);

    // DML succeeds while quarantined; the index's share is deferred.
    db.execute("INSERT INTO docs VALUES (10, 'alpha pending', 100.0)").unwrap();
    db.execute("UPDATE docs SET body = 'alpha rewritten' WHERE id = 3").unwrap();
    let pending = db
        .query("SELECT PENDING_OPS, NEEDS_FULL_REBUILD FROM V$INDEX_HEALTH WHERE INDEX_NAME = 'D_TXT'")
        .unwrap();
    assert_eq!(pending[0][0], Value::Integer(2), "two deferred ops");
    assert_eq!(pending[0][1], Value::from("NO"), "log is replayable");

    // The fallback already sees the new rows.
    assert_eq!(ids(&db.query(QUERY).unwrap()), vec![1, 2, 3, 4, 10]);

    // Replay: the deferred ops land in the index; a forced index scan
    // (bypassing the fallback) agrees.
    db.execute("ALTER INDEX d_txt REBUILD").unwrap();
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
    let forced =
        db.query("SELECT /*+ INDEX(docs d_txt) */ id FROM docs WHERE Contains(body, 'alpha')");
    assert_eq!(ids(&forced.unwrap()), vec![1, 2, 3, 4, 10]);

    // Rollback with deferred ops poisons the log: the pending entries
    // may reference rows the rollback un-made.
    db.quarantine_index("D_TXT").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO docs VALUES (11, 'alpha doomed', 110.0)").unwrap();
    db.execute("ROLLBACK").unwrap();
    let dirty = db
        .query("SELECT NEEDS_FULL_REBUILD FROM V$INDEX_HEALTH WHERE INDEX_NAME = 'D_TXT'")
        .unwrap();
    assert_eq!(dirty[0][0], Value::from("YES"), "rollback must force the full-rebuild path");

    // Full rebuild from the base table still restores an exact index.
    db.execute("ALTER INDEX d_txt REBUILD").unwrap();
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
    let forced =
        db.query("SELECT /*+ INDEX(docs d_txt) */ id FROM docs WHERE Contains(body, 'alpha')");
    assert_eq!(ids(&forced.unwrap()), vec![1, 2, 3, 4, 10]);
}

/// A single fault makes the index SUSPECT, and a clean window heals it
/// back to VALID without operator intervention.
#[test]
fn suspect_heals_after_clean_window() {
    let mut db = quarantine_db();
    db.catalog().health.set_breaker(BreakerConfig { threshold: 3, window: 8 });
    let inj = db.fault_injector().clone();

    inj.arm("ODCIIndexFetch", Some("TEXTINDEXTYPE"), 1, FaultKind::Panic);
    db.query(FORCED).expect_err("panic must fail the query");
    inj.disarm_all();
    assert_eq!(db.index_health("D_TXT"), HealthState::Suspect);

    // Each clean query crosses the sandbox several times (stats, start,
    // fetch, close); a few of them slide the fault out of the window.
    for _ in 0..4 {
        db.query(FORCED).unwrap();
    }
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
}

/// When CREATE INDEX fails *and* the cleanup drop faults too, the
/// catalog entry stays behind as BUILD_FAILED: the name is not silently
/// reusable while cartridge storage may linger. REBUILD recovers it.
#[test]
fn failed_create_leaves_build_failed_entry_until_rebuild() {
    let mut db = quarantine_db();
    db.execute("CREATE TABLE notes (id INTEGER, txt VARCHAR2(100))").unwrap();
    for (id, txt) in [(1, "'alpha one'"), (2, "'beta two'"), (3, "'alpha three'")] {
        db.execute(&format!("INSERT INTO notes VALUES ({id}, {txt})")).unwrap();
    }
    let inj = db.fault_injector().clone();

    inj.arm("ODCIIndexCreate", Some("TEXTINDEXTYPE"), 1, FaultKind::Panic);
    inj.arm("ODCIIndexDrop", Some("TEXTINDEXTYPE"), 1, FaultKind::Fail);
    db.execute("CREATE INDEX n_txt ON notes(txt) INDEXTYPE IS TextIndexType")
        .expect_err("create must fail");
    inj.disarm_all();
    assert_eq!(db.index_health("N_TXT"), HealthState::BuildFailed);

    // The name is taken — re-creating it must be refused.
    db.execute("CREATE INDEX n_txt ON notes(txt) INDEXTYPE IS TextIndexType")
        .expect_err("BUILD_FAILED name must not be silently reusable");

    // Base-table DML keeps working: the wreck is skipped, not consulted.
    db.execute("INSERT INTO notes VALUES (20, 'alpha tail')").unwrap();

    // REBUILD takes the full path and resurrects the index with the
    // post-failure rows included.
    db.execute("ALTER INDEX n_txt REBUILD").unwrap();
    assert_eq!(db.index_health("N_TXT"), HealthState::Valid);
    let forced = db
        .query("SELECT /*+ INDEX(notes n_txt) */ id FROM notes WHERE Contains(txt, 'alpha')")
        .unwrap();
    assert_eq!(ids(&forced), vec![1, 3, 20]);
}

/// DROP of a quarantined index always succeeds, even when the
/// cartridge's own drop routine faults — the catalog entry must go.
#[test]
fn drop_of_quarantined_index_always_succeeds() {
    // Clean cartridge drop: catalog, health registry, and storage all
    // go, and the name is immediately reusable.
    let mut db = quarantine_db();
    db.quarantine_index("D_TXT").unwrap();
    db.execute("DROP INDEX d_txt").expect("drop of quarantined index must succeed");
    assert!(db.query("SELECT INDEX_NAME FROM V$INDEX_HEALTH").unwrap().is_empty());
    db.execute("CREATE INDEX d_txt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
    assert_eq!(ids(&db.query(FORCED).unwrap()), vec![1, 2, 4]);

    // Even a cartridge that panics in its own drop routine cannot block
    // the DROP: the catalog entry goes regardless (storage wreckage may
    // linger — the deliberate cost of always letting the user escape a
    // quarantined index).
    db.quarantine_index("D_TXT").unwrap();
    let inj = db.fault_injector().clone();
    inj.arm("ODCIIndexDrop", Some("TEXTINDEXTYPE"), 1, FaultKind::Panic);
    db.execute("DROP INDEX d_txt").expect("faulted drop of quarantined index must still succeed");
    inj.disarm_all();
    let rows = db.query("SELECT INDEX_NAME FROM V$INDEX_HEALTH").unwrap();
    assert!(rows.is_empty(), "health registry must forget the index: {rows:?}");
    // Queries keep answering through the functional path.
    assert_eq!(ids(&db.query(QUERY).unwrap()), vec![1, 2, 4]);
}

/// V$INDEX_HEALTH reports the full state row, and health transitions
/// land in the call trace.
#[test]
fn vindex_health_reports_states_and_trace_records_transitions() {
    let mut db = quarantine_db();
    db.trace().set_enabled(true);
    let rows = db
        .query("SELECT INDEX_NAME, TABLE_NAME, INDEXTYPE, STATE FROM V$INDEX_HEALTH")
        .unwrap();
    assert_eq!(
        rows,
        vec![vec![
            Value::from("D_TXT"),
            Value::from("DOCS"),
            Value::from("TEXTINDEXTYPE"),
            Value::from("VALID"),
        ]]
    );

    db.quarantine_index("D_TXT").unwrap();
    let rows = db.query("SELECT STATE FROM V$INDEX_HEALTH WHERE INDEX_NAME = 'D_TXT'").unwrap();
    assert_eq!(rows[0][0], Value::from("QUARANTINED"));

    db.execute("ALTER INDEX d_txt REBUILD").unwrap();
    let rows = db.query("SELECT STATE FROM V$INDEX_HEALTH WHERE INDEX_NAME = 'D_TXT'").unwrap();
    assert_eq!(rows[0][0], Value::from("VALID"));

    let transitions: Vec<String> = db
        .trace()
        .events()
        .iter()
        .filter(|e| e.routine == "HealthTransition")
        .map(|e| e.detail.clone())
        .collect();
    assert!(
        transitions.iter().any(|d| d.contains("VALID -> QUARANTINED")),
        "transitions: {transitions:?}"
    );
    assert!(
        transitions.iter().any(|d| d.contains("QUARANTINED -> VALID")),
        "transitions: {transitions:?}"
    );
}

/// A runaway routine is cut off by the deterministic tick budget and
/// surfaces as a CartridgeFault like any other sandbox violation. The
/// index build is the tick-hungriest routine (base-table scan plus one
/// callback per posting), so it is the one a tiny budget must stop.
#[test]
fn tick_budget_overrun_is_a_cartridge_fault() {
    let mut db = Database::with_cache_pages(2048);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))").unwrap();
    for (id, body) in [(1, "'alpha beta'"), (2, "'alpha delta'"), (3, "'epsilon zeta'")] {
        db.execute(&format!("INSERT INTO docs VALUES ({id}, {body})")).unwrap();
    }

    db.set_tick_budget(3);
    let err = db
        .execute("CREATE INDEX d_txt ON docs(body) INDEXTYPE IS TextIndexType")
        .expect_err("3 ticks cannot cover an index build");
    match err {
        Error::CartridgeFault { reason, .. } => {
            assert!(reason.contains("tick budget exceeded"), "reason: {reason}");
        }
        other => panic!("expected CartridgeFault, got {other}"),
    }

    // Restore a sane budget: the engine is unharmed, and the index can
    // be built (directly, or via REBUILD if the starved cleanup left a
    // BUILD_FAILED entry behind).
    db.set_tick_budget(extidx::core::DEFAULT_TICK_BUDGET);
    if db.index_health("D_TXT") == HealthState::BuildFailed {
        db.execute("ALTER INDEX d_txt REBUILD").unwrap();
    } else {
        db.execute("CREATE INDEX d_txt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    }
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid);
    let rows = db.query("SELECT /*+ INDEX(docs d_txt) */ id FROM docs WHERE Contains(body, 'alpha')");
    assert_eq!(ids(&rows.unwrap()), vec![1, 2]);
}

/// §5 event handlers are cartridge code like any other: a handler that
/// panics on Commit or Rollback is contained at the crossing — the
/// statement gets a `CartridgeFault` naming the handler (or, after a
/// failed statement, keeps its own error), nothing unwinds through the
/// engine or a `Session` holding the server's write lock, and the next
/// statement runs normally. No index is blamed.
#[test]
fn panicking_event_handler_is_contained() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use extidx::core::events::DbEvent;
    use extidx::core::ServerContext;
    use extidx::sql::Server;

    fn assert_handler_fault(err: Error, want_routine: &str) {
        match err {
            Error::CartridgeFault { indextype, routine, reason } => {
                assert_eq!(indextype, "BOOM");
                assert_eq!(routine, want_routine);
                assert!(reason.contains("handler bug"), "reason: {reason}");
            }
            other => panic!("expected CartridgeFault from {want_routine}, got {other}"),
        }
    }

    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    let handler = move |ev: DbEvent, _srv: &mut dyn ServerContext| -> extidx_common::Result<()> {
        if flag.load(Ordering::SeqCst) {
            panic!("handler bug on {ev}");
        }
        Ok(())
    };

    // Via `Database`: explicit COMMIT and ROLLBACK, then a failed statement.
    let mut db = quarantine_db();
    db.register_event_handler("boom", Arc::new(handler));
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO docs VALUES (5, 'alpha five', 50.0)").unwrap();
    assert_handler_fault(db.execute("COMMIT").unwrap_err(), "DbEventCommit");
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO docs VALUES (6, 'alpha six', 60.0)").unwrap();
    assert_handler_fault(db.execute("ROLLBACK").unwrap_err(), "DbEventRollback");
    // The Rollback event after a failed statement cannot displace the
    // statement's own error.
    db.fault_injector().arm_fail("ODCIIndexInsert", Some("TEXTINDEXTYPE"), 1);
    let err = db.execute("INSERT INTO docs VALUES (7, 'alpha seven', 70.0)").unwrap_err();
    assert!(matches!(err, Error::Injected { .. }), "statement error must win, got {err}");
    assert_eq!(ids(&db.query(FORCED).unwrap()), vec![1, 2, 4, 5]);
    assert_eq!(db.index_health("D_TXT"), HealthState::Valid, "no index to blame");

    // Via a `Session` on an OS thread: the events fire under the server's
    // write lock, and the thread must survive both.
    let server = Server::new(db);
    let remote = server.clone();
    std::thread::spawn(move || {
        let mut s = remote.session();
        // Autocommit: the Commit-event failure surfaces after the marker
        // is written, so the row is in.
        let err = s.execute("INSERT INTO docs VALUES (8, 'alpha eight', 80.0)").unwrap_err();
        assert_handler_fault(err, "DbEventCommit");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO docs VALUES (9, 'alpha nine', 90.0)").unwrap();
        assert_handler_fault(s.execute("ROLLBACK").unwrap_err(), "DbEventRollback");
    })
    .join()
    .expect("a panicking handler must not take the session's thread down");

    // Same server, next statements: the lock is free and the engine sane.
    armed.store(false, Ordering::SeqCst);
    let mut s = server.session();
    s.execute("INSERT INTO docs VALUES (10, 'alpha ten', 100.0)").unwrap();
    assert_eq!(ids(&s.query(FORCED).unwrap()), vec![1, 2, 4, 5, 8, 10]);
}
