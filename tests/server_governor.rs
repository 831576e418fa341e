//! The server-governance matrix (DESIGN.md §4l): statement deadlines and
//! cancellation, maintenance at transaction end, orphaned transactions,
//! and the teardown/drop ordering regressions.
//!
//! The timeout tests sweep the *deterministic* poll-count deadline
//! (`SET STATEMENT_TIMEOUT_TICKS`) across a statement's execution, so the
//! deadline strikes mid-scan, mid-ODCI-crossing and mid-maintenance on
//! different iterations — and after every
//! strike the observable state must be byte-identical to the
//! pre-statement fingerprint (statement atomicity is deadline-blind),
//! domain scans must stay Start≡Close balanced, and the deadline must be
//! visible as a TXN/Timeout row in `V$TRACE` and in `V$SERVER`.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use extidx::common::{Error, Value};
use extidx::sql::{Database, Server};

/// Everything observable about user state: every cataloged table's full
/// contents plus index-path probe queries, rendered deterministically.
/// MVCC vacuum is semantics-preserving, so the passes that run where
/// transactions end can never change a fingerprint — only a torn
/// statement can.
fn fingerprint(server: &Server, probes: &[&str]) -> Vec<String> {
    server.admin(|db| {
        let mut out = Vec::new();
        let mut tables = db.catalog().table_names();
        tables.sort();
        for t in tables {
            let mut rows: Vec<String> = db
                .query(&format!("SELECT * FROM {t}"))
                .unwrap_or_else(|e| panic!("fingerprint of {t}: {e}"))
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            out.push(format!("table {t}: {}", rows.join(" | ")));
        }
        for sql in probes {
            let mut rows: Vec<String> = db
                .query(sql)
                .unwrap_or_else(|e| panic!("probe {sql}: {e}"))
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            out.push(format!("probe {sql}: {}", rows.join(" | ")));
        }
        out
    })
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

const PROBE: &str = "SELECT /*+ INDEX(docs dt) */ id FROM docs WHERE Contains(body, 'gorse')";

fn text_server(rows: i64) -> Server {
    Server::new(server_db(rows))
}

/// `docs (id, body)` with `rows` rows, the even ones holding `gorse`,
/// under the text index `dt`.
fn server_db(rows: i64) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..rows {
        let body = if i % 2 == 0 { format!("gorse stand {i}") } else { format!("filler {i}") };
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.as_str().into()])
            .unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db
}

/// `routine`'s crossings so far.
fn calls(server: &Server, routine: &str) -> u64 {
    server.read(|db| {
        let aggs = db.trace().aggregates();
        aggs.iter().filter(|(_, r, _)| *r == routine).map(|(_, _, s)| s.calls).sum()
    })
}

fn start_close_counts(server: &Server) -> (u64, u64) {
    (calls(server, "ODCIIndexStart"), calls(server, "ODCIIndexClose"))
}

fn timeout_trace_rows(server: &Server) -> usize {
    server.admin(|db| {
        db.query("SELECT COMPONENT, ROUTINE FROM V$TRACE")
            .expect("V$TRACE")
            .iter()
            .filter(|r| format!("{r:?}").contains("Timeout"))
            .count()
    })
}

/// Deadline mid-scan: sweep the deterministic tick budget over a SELECT.
/// Every strike surfaces `StatementTimeout` (recorded in `V$TRACE` and
/// `V$SERVER`); once the budget clears the statement, results are exact.
#[test]
fn timeout_mid_scan_surfaces_and_is_traced() {
    let server = text_server(60);
    server.admin(|db| db.trace().set_enabled(true));
    let mut s = server.session();
    let mut fired = 0u64;
    let mut completed = false;
    for ticks in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096] {
        s.execute(&format!("SET STATEMENT_TIMEOUT_TICKS = {ticks}")).unwrap();
        match s.query("SELECT id FROM docs ORDER BY id") {
            Err(e @ Error::StatementTimeout { .. }) => {
                assert!(e.to_string().contains("poll limit"), "wrong detail: {e}");
                fired += 1;
            }
            Ok(rows) => {
                assert_eq!(rows.len(), 60, "completed scan must be exact");
                completed = true;
                break;
            }
            Err(e) => panic!("ticks {ticks}: unexpected error {e}"),
        }
    }
    assert!(fired > 0, "the sweep never struck mid-scan");
    assert!(completed, "even 4096 ticks did not clear a 60-row scan");
    assert_eq!(timeout_trace_rows(&server), fired as usize, "one TXN/Timeout row per strike");
    let timeouts = server.governor().counters.statement_timeouts.load(Ordering::Relaxed);
    assert_eq!(timeouts, fired, "V$SERVER STATEMENT_TIMEOUTS must count every strike");
}

/// Deadline mid-ODCI-crossing: the tick budget is charged through
/// `sandbox::tick`, so low budgets expire *inside* cartridge scan
/// crossings. Every error path must still tear the scan down —
/// Start≡Close stays balanced — and the engine stays fully usable.
#[test]
fn timeout_mid_odci_crossing_keeps_start_close_balanced() {
    let server = text_server(80);
    server.admin(|db| db.trace().set_enabled(true));
    let mut s = server.session();
    let clean = {
        let mut c = server.session();
        c.query(PROBE).expect("clean probe")
    };
    let mut fired = 0u64;
    let mut completed = false;
    for ticks in 1..=512u64 {
        s.execute(&format!("SET STATEMENT_TIMEOUT_TICKS = {ticks}")).unwrap();
        match s.query(PROBE) {
            Err(Error::StatementTimeout { .. }) => fired += 1,
            Ok(rows) => {
                assert_eq!(rows, clean, "post-timeout scan diverged at ticks {ticks}");
                completed = true;
                break;
            }
            Err(e) => panic!("ticks {ticks}: unexpected error {e}"),
        }
        let (starts, closes) = start_close_counts(&server);
        assert_eq!(starts, closes, "ticks {ticks}: {starts} Start vs {closes} Close");
    }
    assert!(fired > 0, "the sweep never expired inside the scan");
    assert!(completed, "512 ticks did not clear the domain scan");
    let (starts, closes) = start_close_counts(&server);
    assert!(starts > 0, "probe never reached the domain index");
    assert_eq!(starts, closes, "final Start/Close imbalance");
}

/// Deadline mid-maintenance: the tick budget strikes inside a multi-row
/// UPDATE that maintains a domain index. Every strike must roll the whole
/// statement back — base table, B-tree path, and domain index
/// byte-identical to the pre-statement fingerprint.
#[test]
fn timeout_mid_maintenance_rolls_the_statement_back() {
    let server = text_server(40);
    let mut s = server.session();
    let mut fired = 0u64;
    let mut completed = false;
    for ticks in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384] {
        let before = fingerprint(&server, &[PROBE]);
        s.execute(&format!("SET STATEMENT_TIMEOUT_TICKS = {ticks}")).unwrap();
        match s.execute("UPDATE docs SET body = 'gorse rewrite' WHERE id < 20") {
            Err(e @ Error::StatementTimeout { .. }) => {
                assert_eq!(
                    fingerprint(&server, &[PROBE]),
                    before,
                    "ticks {ticks}: timed-out statement left partial state ({e})"
                );
                fired += 1;
            }
            Ok(_) => {
                assert_ne!(
                    fingerprint(&server, &[PROBE]),
                    before,
                    "ticks {ticks}: completed UPDATE changed nothing"
                );
                completed = true;
                break;
            }
            Err(e) => panic!("ticks {ticks}: unexpected error {e}"),
        }
    }
    assert!(fired > 0, "the sweep never struck mid-maintenance");
    assert!(completed, "the UPDATE never cleared its deadline");
}

/// Teardown/drop ordering regression: a session dropped mid-transaction
/// while the engine lock is held must park (not deadlock), the parked
/// transaction must be aborted before that lock is released, and
/// `Server::into_inner` must refuse while a clone is alive.
#[test]
fn into_inner_and_session_drop_never_deadlock() {
    let server = text_server(10);
    let clone = server.clone();
    let g = server.governor();

    let mut s = server.session();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE docs SET body = 'orphaned-write' WHERE id = 0").unwrap();
    // Drop the session *while the write lock is held by this thread*: a
    // blocking drop would deadlock right here.
    server.admin(move |_db| drop(s));
    wait_until(|| g.counters.orphan_aborts.load(Ordering::Relaxed) > 0, "orphan adoption");
    let mut c = server.session();
    let rows = c.query("SELECT body FROM docs WHERE id = 0").unwrap();
    assert_ne!(rows[0][0], Value::from("orphaned-write"), "orphaned txn must roll back");
    drop(c);

    // A live clone forces teardown to fail.
    let server = match server.into_inner() {
        Err(s) => s,
        Ok(_) => panic!("teardown must fail while a clone is alive"),
    };
    drop(clone);

    // Mid-transaction session dropped normally (uncontended): aborts
    // inline; then the full teardown hands the engine back.
    let mut s2 = server.session();
    s2.execute("BEGIN").unwrap();
    s2.execute("UPDATE docs SET body = 'also-orphaned' WHERE id = 1").unwrap();
    drop(s2);
    let Ok(mut db) = server.into_inner() else { panic!("full teardown must succeed") };
    let rows = db.query("SELECT body FROM docs WHERE id = 1").unwrap();
    assert_ne!(rows[0][0], Value::from("also-orphaned"));
}

/// A session dropped while a reader holds the lock parks its transaction,
/// and nothing takes the write lock before the teardown: `into_inner`
/// itself must abort the orphan, so the engine it hands back has no open
/// transaction and no version of the orphan's UPDATE left anywhere.
#[test]
fn into_inner_aborts_a_parked_orphan() {
    let server = text_server(10);
    let mut s = server.session();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE docs SET body = 'parked-write' WHERE id = 3").unwrap();
    server.read(move |_db| drop(s));
    let g = server.governor();
    assert_eq!(g.counters.orphan_aborts.load(Ordering::Relaxed), 0, "a reader never drains");

    let Ok(mut db) = server.into_inner() else { panic!("full teardown must succeed") };
    assert_eq!(g.counters.orphan_aborts.load(Ordering::Relaxed), 1);
    assert_eq!(db.storage().txn_manager().active_count(), 0);
    assert!(
        db.storage().mvcc_segment_stats().is_empty(),
        "the orphan's versions must be rolled back and vacuumed"
    );
    let rows = db.query("SELECT body FROM docs WHERE id = 3").unwrap();
    assert_eq!(rows[0][0], Value::from("filler 3"), "the in-place row must be the original");
}

/// Four sessions, never quiescent: continuous commutative updates on four
/// OS threads. Every statement completes, the sum is exact, and the
/// transaction ends alone drain occupancy to zero once every session is
/// idle.
#[test]
fn four_session_soak_stays_bounded() {
    const SESSIONS: usize = 4;
    const UPDATES: usize = 150;
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE SOAK (id INTEGER, n INTEGER)").unwrap();
    for id in 0..16 {
        db.execute(&format!("INSERT INTO SOAK VALUES ({id}, 0)")).unwrap();
    }
    let server = Server::new(db);
    std::thread::scope(|scope| {
        for t in 0..SESSIONS {
            let mut sess = server.session();
            scope.spawn(move || {
                for i in 0..UPDATES {
                    let id = (t * 5 + i) % 16;
                    sess.execute(&format!("UPDATE SOAK SET n = n + 1 WHERE id = {id}"))
                        .unwrap_or_else(|e| panic!("session {t} update {i}: {e}"));
                }
            });
        }
    });
    assert_eq!(server.governor().occupancy(), (0, 0), "idle sessions must hold no versions");
    let mut s = server.session();
    let rows = s.query("SELECT n FROM SOAK").unwrap();
    let sum: i64 = rows
        .iter()
        .map(|r| match r[0] {
            Value::Integer(v) => v,
            ref v => panic!("expected integer n, got {v:?}"),
        })
        .sum();
    assert_eq!(sum, (SESSIONS * UPDATES) as i64, "every increment exactly once");
}

/// Client-driven cancellation: another thread trips the session's
/// `CancelToken` while a statement runs; the statement surfaces
/// `StatementTimeout` with a "cancelled" detail and the session stays
/// usable for the next statement.
#[test]
fn cancel_token_interrupts_from_another_thread() {
    use extidx::core::operator::ScalarFunction;

    // The statement calls a function that reports it running and then
    // polls the governor until the cancel lands, so the peer thread
    // cancels a statement known to be running: no race to lose.
    let (running, started) = std::sync::mpsc::sync_channel(1);
    let mut db = server_db(400);
    db.register_function(ScalarFunction::new("AwaitCancelFn", move |_, _| {
        let _ = running.try_send(());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            extidx::core::governor::poll()?;
            assert!(Instant::now() < deadline, "the cancel never reached the statement");
            std::thread::yield_now();
        }
    }))
    .unwrap();
    let server = Server::new(db);
    let mut s = server.session();
    let token = &s.cancel_token();
    let err = std::thread::scope(|scope| {
        scope.spawn(move || {
            started.recv_timeout(Duration::from_secs(20)).expect("the statement runs");
            token.cancel();
        });
        s.query("SELECT id FROM docs WHERE AwaitCancelFn(id) = 1").expect_err("cancelled")
    });
    assert!(matches!(err, Error::StatementTimeout { .. }), "got {err}");
    assert!(err.to_string().contains("cancelled"), "detail must name the cancel: {err}");
    // Token cleared per statement: the session is not poisoned.
    let rows = s.query(PROBE).unwrap();
    assert!(!rows.is_empty());
}

/// `V$SERVER` end to end: queryable through a session, the governor
/// counters visible as NAME/VALUE rows.
#[test]
fn vserver_reports_governor_counters() {
    let server = text_server(10);
    let mut s = server.session();
    let rows = s.query("SELECT NAME, VALUE FROM V$SERVER").unwrap();
    let get = |name: &str| -> i64 {
        rows.iter()
            .find(|r| r[0] == Value::from(name))
            .unwrap_or_else(|| panic!("V$SERVER missing {name}: {rows:?}"))
            .last()
            .map(|v| match v {
                Value::Integer(i) => *i,
                other => panic!("{name}: expected integer VALUE, got {other:?}"),
            })
            .unwrap()
    };
    for name in [
        "CONFLICT_RETRIES",
        "CONFLICT_RETRY_SUCCESSES",
        "CONFLICT_RETRY_EXHAUSTED",
        "STATEMENT_TIMEOUTS",
        "ORPHAN_ABORTS",
        "HELD_VERSIONS",
        "MAX_SEGMENT_VERSIONS",
    ] {
        assert!(get(name) >= 0, "{name} must be present and non-negative");
    }
    // A session-visible timeout shows up in the counter row.
    s.execute("SET STATEMENT_TIMEOUT_TICKS = 1").unwrap();
    let _ = s.query("SELECT id FROM docs ORDER BY id");
    s.execute("SET STATEMENT_TIMEOUT_TICKS = 0").unwrap();
    let rows = s.query("SELECT NAME, VALUE FROM V$SERVER").unwrap();
    let timeouts = rows
        .iter()
        .find(|r| r[0] == Value::from("STATEMENT_TIMEOUTS"))
        .and_then(|r| r.last().cloned());
    assert!(
        matches!(timeouts, Some(Value::Integer(n)) if n >= 0),
        "STATEMENT_TIMEOUTS row must stay queryable: {timeouts:?}"
    );
}

/// Postings of `gorse` in a 5 000-row `text_server`: three key-range read
/// batches of at most 1 024 rows.
const GORSE_ROWS: usize = 2_500;

/// Deadline inside a multi-batch key-range read: a text scan's Start reads
/// each term's postings in place, charged a tick and a deadline poll per
/// read batch, and issues no other callback. Sweeping the poll-count
/// deadline therefore strikes inside Start at every batch of the read —
/// twice per batch — each strike surfaces as `StatementTimeout`, Start ≡
/// Close holds after each, and a clearing budget answers exactly.
#[test]
fn timeout_inside_a_multi_batch_key_range_read_keeps_start_close_balanced() {
    let server = text_server(2 * GORSE_ROWS as i64);
    server.admin(|db| db.trace().set_enabled(true));
    let mut s = server.session();
    for _ in 0..3 {
        assert_eq!(s.query(PROBE).unwrap().len(), GORSE_ROWS, "clean probe");
    }
    let (mut in_start, mut completed) = (0, false);
    for ticks in 1..=256u64 {
        s.execute(&format!("SET STATEMENT_TIMEOUT_TICKS = {ticks}")).unwrap();
        let start_fetch = || (calls(&server, "ODCIIndexStart"), calls(&server, "ODCIIndexFetch"));
        let (starts, fetches) = start_fetch();
        match s.query(PROBE) {
            Err(Error::StatementTimeout { .. }) => {
                let (starts_now, fetches_now) = start_fetch();
                in_start += usize::from(starts_now > starts && fetches_now == fetches);
            }
            Ok(rows) => {
                assert_eq!(rows.len(), GORSE_ROWS, "ticks {ticks}: the cleared scan diverged");
                completed = true;
                break;
            }
            Err(e) => panic!("ticks {ticks}: unexpected error {e}"),
        }
        let (starts, closes) = start_close_counts(&server);
        assert_eq!(starts, closes, "ticks {ticks}: {starts} Start vs {closes} Close");
    }
    assert!(completed, "256 ticks did not clear the scan");
    let batches = GORSE_ROWS.div_ceil(1024);
    assert_eq!(in_start, 2 * batches, "one tick and one poll per read batch");
}

/// A tick budget smaller than a Start's key-range read batches is a
/// `CartridgeFault`: each batch costs the crossing one tick. A budget of
/// one tick per batch reads the whole posting list.
#[test]
fn a_tick_budget_below_the_read_batches_faults_the_start() {
    let mut db = server_db(2 * GORSE_ROWS as i64);
    for _ in 0..3 {
        assert_eq!(db.query(PROBE).unwrap().len(), GORSE_ROWS, "clean probe");
    }
    let batches = GORSE_ROWS.div_ceil(1024) as u64;
    db.set_tick_budget(batches - 1);
    match db.query(PROBE) {
        Err(Error::CartridgeFault { routine, reason, .. }) => {
            assert_eq!(routine, "ODCIIndexStart");
            assert!(reason.contains("tick budget exceeded"), "reason: {reason}");
        }
        other => panic!("{} ticks: expected a CartridgeFault, got {other:?}", batches - 1),
    }
    db.set_tick_budget(batches);
    assert_eq!(db.query(PROBE).unwrap().len(), GORSE_ROWS, "{batches} ticks read every batch");
}
