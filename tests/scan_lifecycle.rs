//! Scan-lifecycle invariant: every `ODCIIndexStart` is matched by an
//! `ODCIIndexClose` — across clean runs, faults at every scan crossing,
//! LIMIT early termination, forced plans, domain joins, and a multi-seed
//! qgen sweep. A cartridge whose scan context leaks never gets it back;
//! the engine must close best-effort on every error path (traced under
//! RECOVERY) while the original error still wins.

use extidx::core::fault::FaultKind;
use extidx::core::trace::{CallTrace, Component};
use extidx::sql::Database;
use extidx::spatial::{geometry_sql, Geometry, Mbr};

fn start_close_counts(db: &Database) -> (u64, u64) {
    trace_counts(db.trace())
}

fn trace_counts(trace: &CallTrace) -> (u64, u64) {
    let mut starts = 0;
    let mut closes = 0;
    for (_, routine, s) in trace.aggregates() {
        match routine {
            "ODCIIndexStart" => starts += s.calls,
            "ODCIIndexClose" => closes += s.calls,
            _ => {}
        }
    }
    (starts, closes)
}

fn assert_balanced(db: &Database, label: &str) {
    let (starts, closes) = start_close_counts(db);
    assert_eq!(starts, closes, "{label}: {starts} ODCIIndexStart vs {closes} ODCIIndexClose");
}

fn text_db(bulk: i64) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..bulk {
        let body = if i % 5 == 0 {
            format!("gorse stand {i}")
        } else {
            format!("filler {i}")
        };
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.into()]).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db
}

/// The fault matrix over the scan path: permanent and transient faults
/// at the k-th Start/Fetch/Close crossing must leave the event stream
/// balanced — failed starts record a synthetic close, failed fetches
/// close best-effort, and failed closes still count as closes.
#[test]
fn faults_at_every_scan_crossing_leave_start_close_balanced() {
    let mut db = text_db(100);
    db.trace().set_enabled(true);
    let inj = db.fault_injector().clone();
    let probe = "SELECT id FROM docs WHERE Contains(body, 'gorse')";
    let clean = db.query(probe).unwrap();
    assert_balanced(&db, "clean run");

    let mut injected = 0u32;
    for point in ["ODCIIndexStart", "ODCIIndexFetch", "ODCIIndexClose"] {
        for k in 1..=6u64 {
            for kind in [FaultKind::Fail, FaultKind::Transient { failures: 1 }] {
                let transient = matches!(kind, FaultKind::Transient { .. });
                inj.reset();
                inj.arm(point, Some("TEXTINDEXTYPE"), k, kind);
                db.trace().clear();
                let res = db.query(probe);
                let reached = inj.fired() > 0;
                inj.disarm_all();
                let label = format!("{point}#{k} ({:?})", if transient { "transient" } else { "fail" });
                assert_balanced(&db, &label);
                if reached {
                    // Scan crossings have no retry loop: both kinds fail
                    // the query, and the engine stays usable.
                    assert!(res.is_err(), "{label}: query should fail");
                    injected += 1;
                } else {
                    assert_eq!(res.unwrap(), clean, "{label}: clean run diverged");
                }
                db.trace().clear();
                assert_eq!(db.query(probe).unwrap(), clean, "{label}: engine wedged");
                assert_balanced(&db, &format!("{label}: recovery probe"));
            }
        }
    }
    assert!(injected >= 6, "matrix must actually reach faults ({injected} injected runs)");
}

/// LIMIT early termination abandons the scan mid-stream; the Limit node
/// must still drive the close. Both the cost-chosen plan and a forced
/// `INDEX` hint path are covered, and EXPLAIN ANALYZE's instrumented
/// tree must uphold the same invariant.
#[test]
fn limit_early_termination_and_forced_plans_close_the_scan() {
    let mut db = text_db(100);
    db.trace().set_enabled(true);
    for sql in [
        "SELECT id FROM docs WHERE Contains(body, 'gorse') LIMIT 1",
        "SELECT /*+ INDEX(docs dt) */ id FROM docs WHERE Contains(body, 'gorse') LIMIT 2",
        "SELECT /*+ INDEX(docs dt) */ id FROM docs WHERE Contains(body, 'gorse')",
        "EXPLAIN ANALYZE SELECT id FROM docs WHERE Contains(body, 'gorse') LIMIT 1",
    ] {
        db.trace().clear();
        let rows = db.query(sql).unwrap();
        assert!(!rows.is_empty(), "{sql}: no rows");
        let (starts, closes) = start_close_counts(&db);
        assert!(starts > 0, "{sql}: the domain scan never started");
        assert_eq!(starts, closes, "{sql}: unbalanced lifecycle");
    }
}

/// A residual conjunct that raises *above* an open domain scan: the
/// failing parent must not leak the child's scan context, under plain
/// SELECT and under EXPLAIN ANALYZE alike (both drain through the one
/// shared loop, which abandons the tree on any error).
#[test]
fn parent_failure_above_an_open_scan_closes_it() {
    let mut db = text_db(100);
    db.trace().set_enabled(true);
    let select = "SELECT id FROM docs WHERE Contains(body, 'gorse') AND 10 / (id - id) > 0";
    for sql in [select.to_string(), format!("EXPLAIN ANALYZE {select}")] {
        db.trace().clear();
        let err = db.query(&sql).expect_err("division by zero must surface");
        assert!(err.to_string().to_lowercase().contains("zero"), "{sql}: {err}");
        let (starts, closes) = start_close_counts(&db);
        assert_eq!(starts, 1, "{sql}: the domain scan must have opened");
        assert_eq!(closes, 1, "{sql}: the failing parent leaked the scan context");
    }
}

/// A cursor dropped before exhaustion still owes its scan a close: open
/// a `Contains` cursor, read one row, drop it.
#[test]
fn dropped_cursor_closes_its_scan() {
    let mut db = text_db(100);
    db.set_batch_size(4);
    db.trace().set_enabled(true);
    db.trace().clear();
    {
        let mut cur =
            db.open_query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
        assert!(cur.next_row().unwrap().is_some());
    }
    let (starts, closes) = start_close_counts(&db);
    assert_eq!((starts, closes), (1, 1), "dropped cursor must close its scan");
    // A client that stops reading is a routine close, not error recovery.
    let close = db.trace().events().into_iter().find(|e| e.routine == "ODCIIndexClose").unwrap();
    assert_eq!(close.component, Component::IndexAccess, "{close}");

    // Same for a cursor whose `next_row` failed above the open scan (a
    // raising residual — the scan itself saw no error to close on).
    // The close is owed by the failing `next_row` itself, not only by the
    // later drop (the cursor borrows `db`; a trace clone shares counters).
    db.trace().clear();
    let trace = db.trace().clone();
    let mut cur = db
        .open_query("SELECT id FROM docs WHERE Contains(body, 'gorse') AND 10 / (id - id) > 0")
        .unwrap();
    cur.next_row().expect_err("division by zero must surface");
    assert_eq!(trace_counts(&trace), (1, 1), "a failed next_row must close its scan");
    drop(cur);
    assert_eq!(trace_counts(&trace), (1, 1), "and the drop must not close it twice");
}

/// The argument rows the `ODCIIndexStart`s traced since the last clear
/// were given, one entry per Start: each Start's detail ends `rows=<n>`.
fn started_rows(db: &Database) -> Vec<u64> {
    let starts = db.trace().events().into_iter().filter(|e| e.routine == "ODCIIndexStart");
    starts
        .map(|e| {
            let n = e.detail.rsplit("rows=").next().and_then(|n| n.parse().ok());
            n.unwrap_or_else(|| panic!("Start detail {:?} names no rows", e.detail))
        })
        .collect()
}

/// `SDO_GEOMETRY` literal of a rectangle.
fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> String {
    geometry_sql(&Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 }))
}

/// Roads `0..n`, road `i` a strip crossing park `i % 12` and its right
/// neighbour (if any), with a NULL geometry where `null(i)`; 12 parks and
/// `far` more far from every road (so the parks layer is the larger and
/// roads stay the outer side), indexed by `indextype`.
fn roads_and_parks(indextype: &str, n: i64, far: i64, null: impl Fn(i64) -> bool) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    for table in ["roads", "parks"] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    }
    for i in 0..n {
        let o = (i % 12) as f64 * 30.0;
        let r = if null(i) { "NULL".to_string() } else { rect(o, 0.0, o + 40.0, 10.0) };
        db.execute(&format!("INSERT INTO roads VALUES ({i}, {r})")).unwrap();
    }
    for i in 0..12 {
        let o = f64::from(i) * 30.0;
        let p = rect(o + 5.0, 0.0, o + 20.0, 50.0);
        db.execute(&format!("INSERT INTO parks VALUES ({i}, {p})")).unwrap();
    }
    for i in 12..12 + far {
        let far = rect(1000.0, 1000.0, 1010.0, 1010.0);
        db.execute(&format!("INSERT INTO parks VALUES ({i}, {far})")).unwrap();
    }
    db.execute(&format!("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS {indextype}"))
        .unwrap();
    db.trace().set_enabled(true);
    db
}

const ROADS_PARKS: &str = "SELECT r.gid, p.gid FROM roads r, parks p \
                           WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')";

/// Arm `point` at its `k`-th crossing, run `sql`: the statement must reach
/// the fault and fail, and leave Start ≡ Close.
fn fault_fails_balanced(db: &mut Database, point: &str, indextype: &str, k: u64, sql: &str) {
    let inj = db.fault_injector().clone();
    inj.reset();
    inj.arm(point, Some(indextype), k, FaultKind::Fail);
    db.trace().clear();
    let res = db.query(sql);
    let reached = inj.fired() > 0;
    inj.disarm_all();
    assert!(reached, "{point}#{k} never reached");
    assert!(res.is_err(), "{point}#{k}: the statement must fail");
    assert_balanced(db, &format!("{indextype} {point}#{k}"));
}

/// A domain join runs one batched scan per outer batch, started with the
/// outer rows whose argument is not NULL (a road with no geometry is never
/// passed); the Start needs its Close under a fetch fault that strikes
/// while later outer rows are still pending, too.
#[test]
fn domain_join_scans_balance_under_faults() {
    let mut db = roads_and_parks("SpatialIndexType", 13, 1, |i| i == 12);
    let plan = db.explain(ROADS_PARKS).unwrap().join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "setup must produce a domain join:\n{plan}");

    db.trace().clear();
    let rows = db.query(ROADS_PARKS).unwrap();
    assert!(!rows.is_empty());
    let (starts, closes) = start_close_counts(&db);
    assert_eq!(starts, 1, "a domain join starts one scan per outer batch");
    assert_eq!(started_rows(&db), [12], "the Start gets the 12 roads with a geometry");
    assert_eq!(starts, closes, "clean domain join unbalanced");

    // Fetch faults mid-join: with two rows a fetch, the k-th fetch dies
    // while later roads' rows are still to come, and the scan must close.
    db.set_batch_size(2);
    for k in [1u64, 3, 5] {
        fault_fails_balanced(&mut db, "ODCIIndexFetch", "SPATIALINDEXTYPE", k, ROADS_PARKS);
    }
    db.trace().clear();
    assert_eq!(db.query(ROADS_PARKS).unwrap(), rows, "engine wedged after join faults");
}

/// Faults inside batches: an outer input of two batches (1 024 rows and
/// 6), so the Start of batch 1 and of batch 2 can each fail, and a
/// fetch can fail with later argument rows of its batch still pending.
/// Every one leaves Start ≡ Close and the answers unchanged afterwards, on
/// both spatial indextypes.
#[test]
fn faults_inside_a_batch_leave_the_join_balanced_and_its_answers_unchanged() {
    const ROADS: i64 = 1030;
    let null = |i: i64| i % 10 == 3;
    let live = (0..ROADS).filter(|&i| !null(i)).count() as u64;
    for indextype in ["SpatialIndexType", "RtreeIndexType"] {
        let mut db = roads_and_parks(indextype, ROADS, ROADS, null);
        db.trace().clear();
        let rows = db.query(ROADS_PARKS).unwrap();
        let crossings = |i: i64| if i % 12 == 11 { 1 } else { 2 };
        let want: usize = (0..ROADS).filter(|&i| !null(i)).map(crossings).sum();
        assert_eq!(rows.len(), want, "{indextype}: a road crosses its park and the next");
        let started = started_rows(&db);
        assert_eq!(started.len(), 2, "{indextype}: one Start per outer batch");
        assert_eq!(started.iter().sum::<u64>(), live, "{indextype}: started rows");
        assert_balanced(&db, indextype);

        let upper = indextype.to_ascii_uppercase();
        for k in [1, 2] {
            fault_fails_balanced(&mut db, "ODCIIndexStart", &upper, k, ROADS_PARKS);
        }
        db.set_batch_size(4);
        for k in [1, 2, 300] {
            fault_fails_balanced(&mut db, "ODCIIndexFetch", &upper, k, ROADS_PARKS);
        }
        db.trace().clear();
        assert_eq!(db.query(ROADS_PARKS).unwrap(), rows, "{indextype}: answers changed");
        assert_balanced(&db, indextype);
    }
}

/// A cartridge without its own `start_batch` (text) runs one `start` per
/// argument row inside the batch's one Start crossing. Faults at the
/// batch's Start and at fetches with later terms pending leave it
/// balanced, and the join stays identical to its `NO_INDEX` twin.
#[test]
fn the_default_batch_of_a_text_join_balances_under_faults() {
    let mut db = text_db(100);
    db.execute("CREATE TABLE watchlist (term VARCHAR2(20))").unwrap();
    db.execute("INSERT INTO watchlist VALUES ('gorse'), (NULL), ('stand'), ('filler')").unwrap();
    db.trace().set_enabled(true);
    let join = "SELECT w.term, d.id FROM watchlist w, docs d WHERE Contains(d.body, w.term)";
    assert!(db.explain(join).unwrap().join("\n").contains("DOMAIN JOIN"));
    let twin = |db: &mut Database, sql: &str| {
        let rows = db.query(sql).unwrap();
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    let expect = twin(&mut db, &join.replacen("SELECT", "SELECT /*+ NO_INDEX */", 1));
    db.trace().clear();
    assert_eq!(twin(&mut db, join), expect, "indexed text join != NO_INDEX twin");
    assert_eq!(started_rows(&db), [3], "one Start, given the three non-NULL terms");
    assert_balanced(&db, "clean text join");

    fault_fails_balanced(&mut db, "ODCIIndexStart", "TEXTINDEXTYPE", 1, join);
    db.set_batch_size(3);
    for k in [1, 2, 20] {
        fault_fails_balanced(&mut db, "ODCIIndexFetch", "TEXTINDEXTYPE", k, join);
    }
    db.trace().clear();
    assert_eq!(twin(&mut db, join), expect, "answers changed after faults");
    assert_balanced(&db, "text join after faults");
}

/// The tick budget of a batched crossing is the per-call budget times its
/// argument rows: a join whose rows, each scanned alone, fit a tiny budget
/// fits it batched — with a cartridge's own `start_batch` (tiles) and with
/// the default one (text), which calls back once per row and more.
#[test]
fn a_tiny_tick_budget_that_fits_row_by_row_fits_the_batched_join() {
    /// The smallest budget under which every one of `scans` succeeds,
    /// set on `db` with `index` rebuilt after the overrun that found it.
    /// Each scan is planned (and its plan cached) under the default budget
    /// first, so only the scans' own crossings meet the small ones.
    fn row_by_row_budget(db: &mut Database, index: &str, scans: &[String]) -> u64 {
        let fits = |db: &mut Database, b: u64| {
            db.set_tick_budget(b);
            scans.iter().all(|sql| db.query(sql).is_ok())
        };
        let plan_all = |db: &mut Database| {
            db.set_tick_budget(extidx::core::DEFAULT_TICK_BUDGET);
            for sql in scans.iter().chain(scans) {
                db.query(sql).unwrap();
            }
        };
        plan_all(db);
        let Some(too_small) = (1..=64).rev().find(|&b| !fits(db, b)) else { return 1 };
        db.set_tick_budget(extidx::core::DEFAULT_TICK_BUDGET);
        db.execute(&format!("ALTER INDEX {index} REBUILD")).unwrap();
        plan_all(db);
        assert!(fits(db, too_small + 1), "the budget found must fit every scan again");
        too_small + 1
    }

    let mut db = roads_and_parks("SpatialIndexType", 13, 1, |i| i == 12);
    let scans: Vec<String> = (0..12)
        .map(|i| {
            let o = f64::from(i) * 30.0;
            let road = rect(o, 0.0, o + 40.0, 10.0);
            format!(
                "SELECT /*+ INDEX(parks parks_sidx) */ gid FROM parks \
                 WHERE Sdo_Relate({road}, geometry, 'mask=OVERLAPS')"
            )
        })
        .collect();
    let expect = db.query(ROADS_PARKS).unwrap();
    let budget = row_by_row_budget(&mut db, "parks_sidx", &scans);
    assert_eq!(db.query(ROADS_PARKS).unwrap(), expect, "tiles under a budget of {budget}");

    let mut db = text_db(100);
    db.execute("CREATE TABLE watchlist (term VARCHAR2(20))").unwrap();
    let terms = ["gorse AND stand", "filler AND stand", "gorse AND filler"];
    for t in terms {
        db.execute(&format!("INSERT INTO watchlist VALUES ('{t}')")).unwrap();
    }
    let join = "SELECT w.term, d.id FROM watchlist w, docs d WHERE Contains(d.body, w.term)";
    let expect = db.query(join).unwrap();
    let scans = terms
        .map(|t| format!("SELECT /*+ INDEX(docs dt) */ id FROM docs WHERE Contains(body, '{t}')"));
    let budget = row_by_row_budget(&mut db, "dt", &scans);
    assert!(budget > 1, "a two-term text scan calls back more than once");
    assert_eq!(db.query(join).unwrap(), expect, "text under a budget of {budget}");
}

/// Multi-seed qgen sweep: the generated workloads cover all five
/// cartridges, DDL churn, forced-plan hints, joins and ORDER BY/LIMIT early
/// termination, and the oracle's `Checked` wrappers demand Start ≡ Close
/// at the plug-in boundary after every statement and plan variant.
#[test]
fn qgen_sweep_never_leaks_a_scan_context() {
    for seed in [0xD1FF_u64, 7, 23] {
        let divergence = extidx_qgen::run_seed(seed, 120, extidx_qgen::ChaosOpts::default());
        assert!(divergence.is_none(), "seed {seed}: {:?}", divergence.map(|d| d.detail));
    }
}
