//! The observability layer: EXPLAIN ANALYZE row-source instrumentation,
//! timed trace crossings, and the read-only `V$` virtual tables.
//!
//! The load-bearing acceptance checks live here:
//! - EXPLAIN ANALYZE's root-node buffer gets equal the statement's
//!   buffer-cache delta (inclusive accounting, like Oracle's row-source
//!   statistics), and
//! - `V$ODCI_CALLS` per-routine call counts equal the number of trace
//!   events recorded for that routine on a pinned workload.

use extidx::sql::Database;

fn text_db(bulk: i64) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..bulk {
        let body = if i % 7 == 0 {
            format!("gorse thicket number {i}")
        } else {
            format!("plain filler row {i}")
        };
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.into()]).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db
}

/// Parse `key=<digits>` out of a rendered plan line, starting the search
/// at the *last* occurrence of `key=` (plan lines carry both the
/// estimate `(rows=…)` and the actual `[actual rows=…]`).
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("{key}=");
    let at = line.rfind(&pat).unwrap_or_else(|| panic!("no {pat} in {line:?}"));
    line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn analyze(db: &mut Database, sql: &str) -> Vec<String> {
    db.query(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect()
}

/// Acceptance: every plan line is annotated, the annotation lines align
/// 1:1 with plain EXPLAIN output, and the root node's buffer gets equal
/// the statement-level cache delta reported in the summary line.
#[test]
fn explain_analyze_root_gets_equal_statement_delta() {
    let mut db = text_db(120);
    let sql = "SELECT id FROM docs WHERE Contains(body, 'gorse')";

    let plain = db.explain(sql).unwrap();
    let analyzed = analyze(&mut db, sql);
    assert_eq!(analyzed.len(), plain.len() + 1, "one annotation per plan line plus a summary");

    for (p, a) in plain.iter().zip(&analyzed) {
        assert!(a.starts_with(p.as_str()), "annotated line {a:?} should extend {p:?}");
        assert!(a.contains("[actual rows="), "missing instrumentation on {a:?}");
        assert!(a.contains("time="), "missing wall time on {a:?}");
    }

    let root = &analyzed[0];
    let summary = analyzed.last().unwrap();
    assert!(summary.starts_with("statement:"), "summary line: {summary:?}");

    // Inclusive accounting: the root subtree covers the whole execution,
    // so its gets must equal the statement's cache delta exactly.
    assert_eq!(field(root, "gets"), field(summary, "gets"), "root: {root}\nsummary: {summary}");
    assert_eq!(
        field(root, "actual rows"),
        field(summary, "rows"),
        "root row count vs statement rows"
    );

    // The result is correct too: the annotated run executed the plan.
    let expected = db.query(sql).unwrap().len() as u64;
    assert_eq!(field(summary, "rows"), expected);
}

/// EXPLAIN ANALYZE actually drives the ODCI scan lifecycle — the trace
/// records Start/Fetch/Close crossings with nonzero call counts.
#[test]
fn explain_analyze_executes_the_domain_scan() {
    let mut db = text_db(120);
    db.trace().set_enabled(true);
    analyze(&mut db, "SELECT id FROM docs WHERE Contains(body, 'gorse')");
    let seq: Vec<&str> = db
        .trace()
        .events()
        .iter()
        .map(|e| e.routine)
        .filter(|r| r.starts_with("ODCIIndex"))
        .collect();
    assert!(seq.contains(&"ODCIIndexStart"), "no Start in {seq:?}");
    assert!(seq.contains(&"ODCIIndexFetch"), "no Fetch in {seq:?}");
    assert!(seq.contains(&"ODCIIndexClose"), "no Close in {seq:?}");
}

#[test]
fn explain_analyze_rejects_non_select() {
    let mut db = text_db(5);
    let err = db.execute("EXPLAIN ANALYZE INSERT INTO docs VALUES (99, 'x')");
    assert!(err.is_err(), "EXPLAIN ANALYZE of DML must fail");
    // And the DML must not have run.
    assert!(db.query("SELECT id FROM docs WHERE id = 99").unwrap().is_empty());
}

/// Acceptance: `V$ODCI_CALLS` per-routine counts equal the number of
/// `CallTrace` events for that (indextype, routine) on a pinned workload.
#[test]
fn v_odci_calls_counts_match_trace_event_counts() {
    use std::collections::BTreeMap;

    let mut db = text_db(120);
    db.trace().set_enabled(true);

    // Pinned workload: scans (Start/Fetch/Close), maintenance
    // (Insert/Update/Delete), and the optimizer stats crossings.
    db.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
    db.query("SELECT id FROM docs WHERE Contains(body, 'thicket OR filler')").unwrap();
    db.execute("INSERT INTO docs VALUES (500, 'gorse anew'), (501, 'more filler')").unwrap();
    db.execute("UPDATE docs SET body = 'rewritten entirely' WHERE id = 500").unwrap();
    db.execute("DELETE FROM docs WHERE id = 501").unwrap();

    // Count events per (indextype, routine) before touching the V$ layer.
    let mut by_routine: BTreeMap<(String, String), i64> = BTreeMap::new();
    for e in db.trace().events() {
        *by_routine.entry((e.indextype.clone(), e.routine.to_string())).or_default() += 1;
    }
    assert_eq!(db.trace().dropped(), 0, "workload must fit the ring for counts to be comparable");

    let rows = db.query("SELECT INDEXTYPE, ROUTINE, CALLS FROM V$ODCI_CALLS").unwrap();
    assert!(!rows.is_empty());
    let mut seen = 0usize;
    for r in &rows {
        let key = (r[0].to_string(), r[1].to_string());
        let calls = r[2].as_integer().unwrap();
        let events = by_routine.get(&key).copied().unwrap_or(0);
        assert_eq!(calls, events, "V$ODCI_CALLS disagrees with the event stream for {key:?}");
        seen += 1;
    }
    assert_eq!(seen, by_routine.len(), "V$ODCI_CALLS missing routines: {by_routine:?}");
}

/// Every crossing is counted, by construction: the Drop + Create inside a
/// full `ALTER INDEX … REBUILD` and the cleanup Drop after a failed
/// CREATE INDEX used to reach the cartridge without a trace bracket, so
/// `V$ODCI_CALLS` undercounted them.
#[test]
fn rebuild_and_failed_create_crossings_are_counted() {
    fn calls(db: &mut Database, routine: &str) -> i64 {
        db.query(&format!("SELECT CALLS FROM V$ODCI_CALLS WHERE ROUTINE = '{routine}'"))
            .unwrap()
            .first()
            .map_or(0, |r| r[0].as_integer().unwrap())
    }

    let mut db = text_db(20);
    db.trace().set_enabled(true);

    // REBUILD, of a VALID index too, drops the cartridge's storage and
    // re-creates it from the base table.
    let (drops, creates) = (calls(&mut db, "ODCIIndexDrop"), calls(&mut db, "ODCIIndexCreate"));
    db.execute("ALTER INDEX dt REBUILD").unwrap();
    assert_eq!(calls(&mut db, "ODCIIndexDrop"), drops + 1);
    assert_eq!(calls(&mut db, "ODCIIndexCreate"), creates + 1);
    // The umbrella RECOVERY event is still there.
    assert_eq!(calls(&mut db, "IndexRebuild"), 1);

    // CREATE INDEX whose create routine fails: the cleanup drop crosses too.
    db.execute("CREATE TABLE notes (id INTEGER, body VARCHAR2(200))").unwrap();
    let (drops, creates) = (calls(&mut db, "ODCIIndexDrop"), calls(&mut db, "ODCIIndexCreate"));
    db.fault_injector().arm_fail("ODCIIndexCreate", Some("TEXTINDEXTYPE"), 1);
    db.execute("CREATE INDEX nt ON notes(body) INDEXTYPE IS TextIndexType").unwrap_err();
    assert_eq!(calls(&mut db, "ODCIIndexCreate"), creates + 1);
    assert_eq!(calls(&mut db, "ODCIIndexDrop"), drops + 1);
}

/// The V$ tables answer plain SQL — projection, WHERE, ORDER BY — like
/// ordinary tables.
#[test]
fn v_tables_answer_plain_sql() {
    let mut db = text_db(60);
    db.trace().set_enabled(true);
    db.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();

    // V$CACHE_STATS: the buffer-cache and statement-cache counters and
    // the key-range reads, filterable by name.
    let all = db.query("SELECT NAME, VALUE FROM V$CACHE_STATS ORDER BY NAME").unwrap();
    let names: Vec<String> = all.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(
        names,
        vec![
            "KEY_RANGE_READS",
            "LOGICAL_READS",
            "PHYSICAL_READS",
            "PHYSICAL_WRITES",
            "PLAN_CACHE_ENTRIES",
            "PLAN_CACHE_HITS",
            "PLAN_CACHE_INVALIDATIONS",
            "PLAN_CACHE_MISSES",
        ]
    );
    let one = db
        .query("SELECT VALUE FROM V$CACHE_STATS WHERE NAME = 'LOGICAL_READS'")
        .unwrap();
    assert_eq!(one.len(), 1);
    assert!(one[0][0].as_integer().unwrap() > 0, "a bulked scan must have touched pages");
    assert!(all[0][1].as_integer().unwrap() > 0, "the text scan reads its postings by key range");

    // V$TRACE: the event ring with monotonically increasing SEQ.
    let trace = db.query("SELECT SEQ, ROUTINE, ELAPSED_MICROS FROM V$TRACE ORDER BY SEQ").unwrap();
    assert!(!trace.is_empty());
    let seqs: Vec<i64> = trace.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "SEQ must increase: {seqs:?}");

    // V$SQLSTATS: the statement history includes the query we just ran.
    let stats = db.query("SELECT SQL_TEXT, ROWS_PROCESSED FROM V$SQLSTATS").unwrap();
    assert!(
        stats.iter().any(|r| r[0].to_string().contains("Contains(body, 'gorse')")),
        "V$SQLSTATS should carry the scan statement: {stats:?}"
    );

    // V$ tables join like ordinary relations (never a domain-join side).
    let joined = db
        .query(
            "SELECT s.NAME FROM V$CACHE_STATS s, V$CACHE_STATS t \
             WHERE s.NAME = t.NAME ORDER BY s.NAME",
        )
        .unwrap();
    assert_eq!(joined.len(), 8);
}

/// The ring's eviction is visible through V$TRACE's DROPPED column.
#[test]
fn v_trace_surfaces_ring_eviction() {
    let mut db = text_db(60);
    db.trace().set_enabled(true);
    db.trace().set_capacity(4);
    db.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
    let rows = db.query("SELECT SEQ, DROPPED FROM V$TRACE").unwrap();
    assert!(rows.len() <= 4, "ring capacity must bound V$TRACE: {} rows", rows.len());
    let dropped = rows[0][1].as_integer().unwrap();
    assert!(dropped > 0, "the scan generates more than 4 crossings");
    assert_eq!(dropped as u64, db.trace().dropped());
}

/// A V$ view is estimated at the rows it holds when the statement is
/// planned (its rows are read only when it runs), so a large `V$TRACE`
/// does not drive a join as a one-row table would.
#[test]
fn v_tables_are_estimated_at_their_rows() {
    let mut db = text_db(60);
    db.trace().set_enabled(true);
    db.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
    for v in [
        "V$CACHE_STATS",
        "V$ODCI_CALLS",
        "V$SQLSTATS",
        "V$INDEX_HEALTH",
        "V$MVCC",
        "V$SERVER",
        "V$TRACE",
    ] {
        let sql = format!("SELECT * FROM {v}");
        let plan = db.explain(&sql).unwrap();
        let rows = db.query(&sql).unwrap().len();
        assert!(v != "V$TRACE" || rows > 1, "the scan was traced");
        assert_eq!(field(&plan[0], "rows"), rows.max(1) as u64, "{v}: {plan:?}");
    }
}

#[test]
fn v_tables_are_read_only() {
    let mut db = text_db(5);
    for dml in [
        "INSERT INTO V$CACHE_STATS VALUES ('X', 1)",
        "UPDATE V$SQLSTATS SET SQL_ID = 0",
        "DELETE FROM V$TRACE",
    ] {
        let err = db.execute(dml).expect_err(dml);
        assert!(err.to_string().contains("read-only"), "{dml}: {err}");
    }
    // An unknown V$ name is a planning error, not a panic.
    assert!(db.query("SELECT * FROM V$NOPE").is_err());
}

/// The tkprof-style report aggregates the same counters the V$ layer
/// exposes: routine lines with calls and time, cache totals, top SQL.
#[test]
fn trace_report_summarizes_the_session() {
    let mut db = text_db(120);
    db.trace().set_enabled(true);
    db.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
    db.execute("INSERT INTO docs VALUES (700, 'gorse again')").unwrap();
    let report = db.trace_report();
    assert!(report.contains("TEXTINDEXTYPE.ODCIIndexFetch"), "{report}");
    assert!(report.contains("TEXTINDEXTYPE.ODCIIndexInsert"), "{report}");
    assert!(report.contains("buffer cache:"), "{report}");
    assert!(report.contains("top statements by elapsed time:"), "{report}");
    assert!(report.contains("Contains(body, 'gorse')"), "{report}");
}

/// Two real sessions on different threads hammer the same server — one
/// reading (SQL stats + cache counters + trace ring), one writing — and
/// the V$ layer must stay coherent: no torn counters, SEQ strictly
/// increasing, and the reader's statement text present in V$SQLSTATS.
#[test]
fn v_tables_stay_coherent_under_two_sessions() {
    use extidx::common::Value;
    use extidx::sql::Server;

    let db = text_db(60);
    db.trace().set_enabled(true);
    let server = Server::new(db);

    std::thread::scope(|scope| {
        let mut reader = server.session();
        let mut writer = server.session();
        scope.spawn(move || {
            for _ in 0..40 {
                reader.query("SELECT id FROM docs WHERE Contains(body, 'gorse')").unwrap();
                reader.query("SELECT COUNT(*) FROM docs").unwrap();
            }
        });
        scope.spawn(move || {
            for i in 0..40 {
                let id = 9000 + i;
                let mut tries = 0;
                while writer
                    .execute(&format!("INSERT INTO docs VALUES ({id}, 'gorse burst')"))
                    .is_err()
                {
                    tries += 1;
                    assert!(tries < 100, "insert livelock at id {id}");
                }
            }
        });
    });

    let mut s = server.session();
    // Cache counters: monotone totals, no panics, reads accounted.
    let reads = s
        .query("SELECT VALUE FROM V$CACHE_STATS WHERE NAME = 'LOGICAL_READS'")
        .unwrap();
    assert!(
        matches!(reads[0][0], Value::Integer(n) if n > 0),
        "concurrent load must be charged to the cache: {reads:?}"
    );
    // Statement history carries both sessions' work.
    let stats = s.query("SELECT SQL_TEXT, ROWS_PROCESSED FROM V$SQLSTATS").unwrap();
    assert!(
        stats.iter().any(|r| format!("{:?}", r[0]).contains("Contains(body, 'gorse')")),
        "reader statements missing from V$SQLSTATS: {stats:?}"
    );
    // A session's DML is recorded once per client statement, however
    // many transparent conflict retries it took.
    let inserts: Vec<_> = stats
        .iter()
        .filter(|r| format!("{:?}", r[0]).contains("INSERT INTO docs VALUES (90"))
        .collect();
    assert_eq!(inserts.len(), 40, "writer statements missing from V$SQLSTATS: {stats:?}");
    assert!(inserts.iter().all(|r| r[1] == Value::Integer(1)), "{inserts:?}");
    // Trace ring: SEQ strictly increasing even though two sessions fed it.
    let trace = s.query("SELECT SEQ FROM V$TRACE ORDER BY SEQ").unwrap();
    let seqs: Vec<i64> = trace
        .iter()
        .map(|r| match r[0] {
            Value::Integer(n) => n,
            ref v => panic!("SEQ must be an integer, got {v:?}"),
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "V$TRACE SEQ not monotone: {seqs:?}");
    // The writer's rows all landed (each insert committed exactly once).
    let count = s.query("SELECT COUNT(*) FROM docs WHERE Contains(body, 'burst')").unwrap();
    assert_eq!(count[0][0], Value::Integer(40), "all 40 concurrent inserts must be durable");
}

/// The statement cache in `V$CACHE_STATS`: planning a text query issues
/// the same ODCIStats callback shapes for every query — a bound
/// `COUNT(*)` per query term among them — with another term bound. (The
/// scan itself reads its postings by key range and runs no statement.) Six
/// distinct queries are six misses at the top level, while each callback
/// is parsed and planned once and then served as a hit.
#[test]
fn a_repeated_callback_shape_is_counted_as_plan_cache_hits() {
    use std::collections::HashMap;

    let mut db = text_db(120);
    let counters = |db: &mut Database| -> HashMap<String, i64> {
        let rows = db.query("SELECT NAME, VALUE FROM V$CACHE_STATS").unwrap();
        rows.into_iter()
            .filter(|r| r[0].to_string().starts_with("PLAN_CACHE_"))
            .map(|r| (r[0].to_string(), r[1].as_integer().unwrap()))
            .collect()
    };
    for _ in 0..3 {
        counters(&mut db);
    }
    db.trace().set_enabled(true);
    let before = counters(&mut db);
    let words = ["gorse", "thicket", "number", "7", "14", "21"];
    for w in words {
        let rows = db.query(&format!("SELECT id FROM docs WHERE Contains(body, '{w}')")).unwrap();
        assert!(!rows.is_empty(), "{w}");
    }
    let after = counters(&mut db);
    let delta = |name: &str| after[name] - before[name];
    let starts: u64 = db
        .trace()
        .aggregates()
        .iter()
        .filter(|(_, r, _)| *r == "ODCIIndexStart")
        .map(|(_, _, s)| s.calls)
        .sum();
    assert_eq!(starts, words.len() as u64, "every query scans the index");
    // Each query's own text, seen once, is a miss; the callbacks it issues
    // repeat from the first query on, and from the third on are hits.
    assert!(delta("PLAN_CACHE_MISSES") >= words.len() as i64, "{before:?} -> {after:?}");
    assert!(
        delta("PLAN_CACHE_HITS") > delta("PLAN_CACHE_MISSES"),
        "callbacks must be served from the cache: {before:?} -> {after:?}"
    );
    assert_eq!(delta("PLAN_CACHE_INVALIDATIONS"), 0);
    assert!(after["PLAN_CACHE_ENTRIES"] > before["PLAN_CACHE_ENTRIES"]);
}
