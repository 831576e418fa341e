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

/// Domain joins re-parameterize one scan per outer row (one pass each);
/// every one of those starts needs its close, including under a fetch
/// fault striking deep into the join, and an outer row with a NULL
/// geometry starts none.
#[test]
fn domain_join_scans_balance_under_faults() {
    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    for table in ["roads", "parks"] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    }
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        geometry_sql(&Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 }))
    };
    for i in 0..12 {
        let o = f64::from(i) * 30.0;
        let r = rect(o, 0.0, o + 40.0, 10.0);
        let p = rect(o + 5.0, 0.0, o + 20.0, 50.0);
        db.execute(&format!("INSERT INTO roads VALUES ({i}, {r})")).unwrap();
        db.execute(&format!("INSERT INTO parks VALUES ({i}, {p})")).unwrap();
    }
    // A road with no geometry: its pass is empty and starts no scan. (A
    // park far from every road keeps the two layers the same size, so
    // roads stay the outer side.)
    db.execute("INSERT INTO roads VALUES (12, NULL)").unwrap();
    let far = rect(1000.0, 1000.0, 1010.0, 1010.0);
    db.execute(&format!("INSERT INTO parks VALUES (12, {far})")).unwrap();
    db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    db.trace().set_enabled(true);

    let join = "SELECT r.gid, p.gid FROM roads r, parks p \
                WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')";
    let plan = db.explain(join).unwrap().join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "setup must produce a domain join:\n{plan}");

    db.trace().clear();
    let rows = db.query(join).unwrap();
    assert!(!rows.is_empty());
    let (starts, closes) = start_close_counts(&db);
    assert_eq!(starts, 12, "a domain join starts one scan per outer row with a geometry");
    assert_eq!(starts, closes, "clean domain join unbalanced");

    // Fetch faults mid-join: the k-th fetch dies, its scan must close.
    let inj = db.fault_injector().clone();
    for k in [1u64, 3, 5] {
        inj.reset();
        inj.arm("ODCIIndexFetch", Some("SPATIALINDEXTYPE"), k, FaultKind::Fail);
        db.trace().clear();
        let res = db.query(join);
        let reached = inj.fired() > 0;
        inj.disarm_all();
        assert!(reached, "fetch#{k} never reached");
        assert!(res.is_err());
        assert_balanced(&db, &format!("join fetch#{k}"));
    }
    db.trace().clear();
    assert_eq!(db.query(join).unwrap(), rows, "engine wedged after join faults");
}

/// Multi-seed qgen sweep: the generated workloads cover all five
/// cartridges, DDL churn, forced-plan hints, and ORDER BY/LIMIT early
/// termination. After every statement (and each hinted variant) the
/// Start/Close aggregate counts must match exactly.
#[test]
fn qgen_sweep_never_leaks_a_scan_context() {
    use extidx_qgen::gen::Stmt;

    for seed in [0xD1FF_u64, 7, 23] {
        let workload = extidx_qgen::generate(seed, 120);
        let mut db = extidx_qgen::fresh_db(extidx_qgen::ChaosOpts::default());
        for sql in &workload.preamble {
            db.execute(sql).unwrap_or_else(|e| panic!("preamble {sql}: {e}"));
        }
        db.trace().set_enabled(true);
        for (i, stmt) in workload.stmts.iter().enumerate() {
            let mut sqls = vec![stmt.sql()];
            if let Stmt::Query(q) = stmt {
                // Forced-plan variants: hint every domain index on the
                // table plus the hintless scan-suppressing paths.
                sqls.push(q.sql(Some(&format!("FULL({})", q.table))));
                for d in db.catalog().domain_indexes_on(q.table) {
                    sqls.push(q.sql(Some(&format!("INDEX({} {})", q.table, d.name))));
                }
                sqls.push(q.count_sql(None));
            }
            for sql in sqls {
                // Hinted variants may legitimately error (e.g. a forced
                // index whose operator doesn't match); leaks may not.
                let _ = db.execute(&sql);
                let (starts, closes) = start_close_counts(&db);
                assert_eq!(
                    starts, closes,
                    "seed {seed}, statement {i}: scan leak after {sql:?}"
                );
            }
        }
    }
}
