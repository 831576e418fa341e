//! The batch executor (see DESIGN.md §4h): `next_batch` is the only way
//! rows move, so what is load-bearing here is the protocol itself.
//!
//! - zone maps only ever widen under UPDATE/DELETE (superset validity),
//!   so pruning never drops a live row even after heavy churn;
//! - LIMIT terminates a scan — or a join — early by shrinking the batch
//!   quota it hands downstream, visible in EXPLAIN ANALYZE actual rows;
//! - batch boundaries are invisible: joins emitting more than
//!   `BATCH_TARGET` rows, inner scans spanning several batches per outer
//!   row, and pipeline breakers fed more than one input batch all return
//!   closed-form (or index-free reference) answers;
//! - a cursor stays pipelined: its first row costs exactly one
//!   `ODCIIndexFetch` over a domain scan, one Start + one Fetch over a
//!   domain join; and
//! - filter conjuncts run cheapest-first, so a functional operator is
//!   called only on the rows the cheap terms let through.

use extidx::core::trace::CallTrace;
use extidx::spatial::{geometry_sql, Geometry, Mbr};
use extidx::sql::executor::BATCH_TARGET;
use extidx::sql::Database;

/// Parse `key=<digits>` from a plan line, searching from the *last*
/// occurrence (lines carry both the estimate and the actual).
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

/// Sorted stringified rows — the bag, order-insensitively.
fn bag(db: &mut Database, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .into_iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    rows
}

/// Zone maps must stay supersets of page contents under churn: UPDATE
/// may move a value outside the original bounds (the map widens) and
/// DELETE leaves the map stale-but-valid (never narrowed). Pruned
/// execution must agree with unpruned execution after every mutation.
#[test]
fn zone_maps_widen_never_narrow_under_update_delete() {
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE zt (id INTEGER, val INTEGER)").unwrap();
    for i in 0..3000i64 {
        db.execute_with("INSERT INTO zt VALUES (?, ?)", &[i.into(), i.into()]).unwrap();
    }
    db.execute("ANALYZE TABLE zt").unwrap();

    let probes = [
        "SELECT id FROM zt WHERE val BETWEEN 10 AND 60",
        "SELECT id FROM zt WHERE val = 999999",
        "SELECT id FROM zt WHERE val > 2900",
        "SELECT COUNT(*) FROM zt WHERE val < 0",
    ];
    let check = |db: &mut Database, stage: &str| {
        for sql in &probes {
            db.set_zone_pruning(true);
            let pruned = bag(db, sql);
            db.set_zone_pruning(false);
            let full = bag(db, sql);
            assert_eq!(pruned, full, "zone pruning changed the result after {stage}: {sql}");
        }
        db.set_zone_pruning(true);
    };
    check(&mut db, "load");

    // UPDATE: teleport a low-page row's value far outside its page's
    // original [min,max]. The map must widen or the row disappears from
    // pruned range scans.
    db.execute("UPDATE zt SET val = 999999 WHERE id = 25").unwrap();
    let hit = db.query("SELECT id FROM zt WHERE val = 999999").unwrap();
    assert_eq!(hit.len(), 1, "widened zone map must keep the updated row reachable");
    check(&mut db, "UPDATE out of range");

    // The same page now answers for both its old neighborhood and the
    // teleported value (stale-but-valid covers both).
    db.execute("UPDATE zt SET val = -7 WHERE id = 26").unwrap();
    check(&mut db, "UPDATE below range");

    // DELETE: bounds go stale (too wide), never narrow — correctness
    // must hold even though pruning is now less effective.
    db.execute("DELETE FROM zt WHERE val BETWEEN 100 AND 2000").unwrap();
    check(&mut db, "bulk DELETE");
    db.execute("DELETE FROM zt WHERE val = 999999").unwrap();
    assert!(db.query("SELECT id FROM zt WHERE val = 999999").unwrap().is_empty());
    check(&mut db, "DELETE of widened row");
}

/// A pruning scan still satisfies the observability invariant: pruned
/// pages are never charged to the buffer cache, so the root node's gets
/// equal the statement cache delta.
#[test]
fn pruned_scan_keeps_root_gets_equal_statement_delta() {
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE big (id INTEGER, val INTEGER)").unwrap();
    for i in 0..5000i64 {
        db.execute_with("INSERT INTO big VALUES (?, ?)", &[i.into(), i.into()]).unwrap();
    }
    db.execute("ANALYZE TABLE big").unwrap();
    let sql = "SELECT id FROM big WHERE id BETWEEN 2400 AND 2450";

    let lines = analyze(&mut db, sql);
    let root = &lines[0];
    let summary = lines.last().unwrap();
    assert!(summary.starts_with("statement:"), "{summary}");
    assert_eq!(field(root, "gets"), field(summary, "gets"), "root: {root}\nsummary: {summary}");
    assert_eq!(field(summary, "rows"), 51);
    let scan = lines.iter().find(|l| l.contains("FULL SCAN")).unwrap();
    assert!(scan.contains("zone-prune[ID]"), "plan should advertise pruning: {scan}");
    assert!(field(scan, "pruned") > 0, "a tight range over 5000 rows must skip pages: {scan}");
    assert_eq!(field(summary, "pages pruned"), field(scan, "pruned"));
    assert!(field(root, "batches") >= 1, "{root}");
}

/// LIMIT over a scan: the limit node shrinks the batch quota
/// it requests, so the scan materializes only as many rows as the limit
/// needs instead of a full BATCH_TARGET batch per call.
#[test]
fn limit_terminates_batched_scan_early() {
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE lt (id INTEGER)").unwrap();
    for i in 0..4000i64 {
        db.execute_with("INSERT INTO lt VALUES (?)", &[i.into()]).unwrap();
    }
    db.execute("ANALYZE TABLE lt").unwrap();

    let lines = analyze(&mut db, "SELECT id FROM lt LIMIT 5");
    let summary = lines.last().unwrap();
    assert_eq!(field(summary, "rows"), 5);
    let scan = lines.iter().find(|l| l.contains("FULL SCAN")).unwrap();
    assert_eq!(
        field(scan, "actual rows"),
        5,
        "limit must push its quota into the scan's batch size: {scan}"
    );
    // Early termination is also visible in I/O: 4000 rows span many
    // pages, but a LIMIT 5 scan touches only the first.
    assert!(field(scan, "gets") <= 2, "LIMIT 5 should touch at most a page or two: {scan}");
}

/// LIMIT streams IOT and B-tree scans the way it streams heap scans: both
/// page through one IOT cursor, so the quota reaches the key-range read
/// and a LIMIT 5 statement's logical reads do not grow with the table
/// beyond the modelled tree-height difference (at the parent the IOT full
/// scan charged every page and the B-tree range its whole range).
#[test]
fn limit_streams_iot_and_btree_scans() {
    // (IOT LIMIT reads, B-tree LIMIT reads, IOT height, B-tree height)
    let measure = |rows: i64| {
        let mut db = Database::with_cache_pages(4096);
        db.execute("CREATE TABLE kv (k INTEGER, v VARCHAR2(8), PRIMARY KEY (k)) ORGANIZATION INDEX")
            .unwrap();
        db.execute("CREATE TABLE t (id INTEGER, k INTEGER)").unwrap();
        db.execute("CREATE INDEX t_k ON t(k)").unwrap();
        for i in 0..rows {
            db.execute_with("INSERT INTO kv VALUES (?, 'value')", &[i.into()]).unwrap();
            db.execute_with("INSERT INTO t VALUES (?, ?)", &[i.into(), i.into()]).unwrap();
        }
        let mut reads = |sql: &str| {
            let before = db.cache_stats();
            assert_eq!(db.query(sql).unwrap().len(), 5, "{sql}");
            db.cache_stats().since(&before).logical_reads
        };
        let iot = reads("SELECT * FROM kv LIMIT 5");
        let btree = reads("SELECT /*+ INDEX(t t_k) */ id FROM t WHERE k >= 0 LIMIT 5");
        let height = |seg| db.storage().iot(seg).unwrap().height() as u64;
        let kv_seg = db.catalog().table("kv").unwrap().seg;
        let t_k_seg = db.catalog().btree_index("t_k").unwrap().seg;
        (iot, btree, height(kv_seg), height(t_k_seg))
    };
    let (iot_small, btree_small, iot_h_small, btree_h_small) = measure(1_000);
    let (iot_big, btree_big, iot_h_big, btree_h_big) = measure(10_000);
    assert!(
        iot_big <= iot_small + (iot_h_big - iot_h_small),
        "IOT LIMIT 5 reads grew with the table: {iot_small} at 1 000 rows, {iot_big} at 10k"
    );
    assert!(
        btree_big <= btree_small + (btree_h_big - btree_h_small),
        "B-tree LIMIT 5 reads grew with the table: {btree_small} at 1 000 rows, {btree_big} at 10k"
    );
}

/// Two small tables whose joins overflow a batch: `ja` × `jb` is 3600
/// rows as a cross product (nested loop) and 1200 on `k` (hash join —
/// `k = id % 3`, so every `ja` row matches 20 `jb` rows).
fn join_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    for t in ["ja", "jb"] {
        db.execute(&format!("CREATE TABLE {t} (id INTEGER, k INTEGER)")).unwrap();
        for i in 0..60i64 {
            db.execute_with(&format!("INSERT INTO {t} VALUES (?, ?)"), &[i.into(), (i % 3).into()])
                .unwrap();
        }
        db.execute(&format!("ANALYZE TABLE {t}")).unwrap();
    }
    db
}

/// `ODCIIndexFetch` crossings recorded so far, over all indextypes.
fn fetch_calls(trace: &CallTrace) -> u64 {
    trace
        .aggregates()
        .into_iter()
        .filter(|(_, routine, _)| *routine == "ODCIIndexFetch")
        .map(|(_, _, s)| s.calls)
        .sum()
}

fn ints(row: &[extidx::common::Value]) -> Vec<i64> {
    row.iter().map(|v| v.to_string().parse().unwrap()).collect()
}

/// Hash join and nested-loop join each emit more than `BATCH_TARGET`
/// rows; the result must be exactly the closed-form pair set, in
/// outer-major order, with nothing lost or duplicated at a batch seam.
#[test]
fn joins_emitting_more_than_a_batch_are_exact() {
    let mut db = join_db();

    let cross = "SELECT ja.id, jb.id FROM ja, jb";
    assert!(db.explain(cross).unwrap().join("\n").contains("NESTED LOOP JOIN"));
    let rows: Vec<Vec<i64>> = db.query(cross).unwrap().iter().map(|r| ints(r)).collect();
    assert!(rows.len() > BATCH_TARGET);
    let want: Vec<Vec<i64>> = (0..60).flat_map(|a| (0..60).map(move |b| vec![a, b])).collect();
    assert_eq!(rows, want, "cross product must be every pair, outer-major");

    let equi = "SELECT ja.id, jb.id FROM ja, jb WHERE ja.k = jb.k";
    assert!(db.explain(equi).unwrap().join("\n").contains("HASH JOIN"));
    let rows: Vec<Vec<i64>> = db.query(equi).unwrap().iter().map(|r| ints(r)).collect();
    assert!(rows.len() > BATCH_TARGET);
    let want: Vec<Vec<i64>> = (0..60)
        .flat_map(|a| (0..60).filter(move |b| a % 3 == b % 3).map(move |b| vec![a, b]))
        .collect();
    assert_eq!(rows, want, "hash join must be every k-matching pair, probe-major");
}

/// `LIMIT k` over a join with `k` not a multiple of the batch: exactly
/// the first `k` rows of the unlimited result, and the join node itself
/// never produces a row past the quota pushed down to it.
#[test]
fn limit_over_a_join_stops_at_a_ragged_quota() {
    let mut db = join_db();
    for (sql, k) in [
        ("SELECT ja.id, jb.id FROM ja, jb", BATCH_TARGET + 476),
        ("SELECT ja.id, jb.id FROM ja, jb WHERE ja.k = jb.k", BATCH_TARGET + 6),
        ("SELECT ja.id, jb.id FROM ja, jb", 7),
    ] {
        let full = db.query(sql).unwrap();
        let limited = db.query(&format!("{sql} LIMIT {k}")).unwrap();
        assert_eq!(limited, full[..k], "{sql} LIMIT {k}");
        let lines = analyze(&mut db, &format!("{sql} LIMIT {k}"));
        let join = lines.iter().find(|l| l.contains("JOIN")).unwrap();
        assert_eq!(field(join, "actual rows"), k as u64, "quota must reach the join: {join}");
    }
}

/// Nested loop whose inner full scan spans several batches per outer
/// row: 3 outer rows × 2500 inner rows, re-scanned from the top each
/// time.
#[test]
fn nested_loop_inner_scan_spans_batches_per_outer_row() {
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE o3 (id INTEGER)").unwrap();
    db.execute("INSERT INTO o3 VALUES (0), (1), (2)").unwrap();
    db.execute("CREATE TABLE inner_t (id INTEGER)").unwrap();
    for i in 0..2500i64 {
        db.execute_with("INSERT INTO inner_t VALUES (?)", &[i.into()]).unwrap();
    }
    let rows = db.query("SELECT o3.id, inner_t.id FROM o3, inner_t").unwrap();
    let got: Vec<Vec<i64>> = rows.iter().map(|r| ints(r)).collect();
    let want: Vec<Vec<i64>> = (0..3).flat_map(|o| (0..2500).map(move |i| vec![o, i])).collect();
    assert_eq!(got, want);
}

/// Domain join whose inner scan needs several `ODCIIndexFetch` batches
/// per outer row (fetch size 2): bag-equal to the index-free plan, which
/// evaluates the operator functionally over the cross product.
#[test]
fn domain_join_inner_scan_spans_fetch_batches_per_outer_row() {
    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    for table in ["roads", "parks"] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    }
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        geometry_sql(&Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 }))
    };
    // Every road crosses a run of neighbouring parks.
    for i in 0..8 {
        let o = f64::from(i) * 10.0;
        let road = rect(o, 20.0, o + 95.0, 25.0);
        db.execute(&format!("INSERT INTO roads VALUES ({i}, {road})")).unwrap();
    }
    for j in 0..16 {
        let o = f64::from(j) * 10.0;
        let park = rect(o + 2.0, 0.0, o + 8.0, 50.0);
        db.execute(&format!("INSERT INTO parks VALUES ({j}, {park})")).unwrap();
    }
    let join = "SELECT r.gid, p.gid FROM roads r, parks p \
                WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=ANYINTERACT')";
    let reference = bag(&mut db, join);
    assert!(reference.len() > 8 * 4, "fixture must give every road several parks");

    db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    assert!(db.explain(join).unwrap().join("\n").contains("DOMAIN JOIN"));
    db.set_batch_size(2);
    db.trace().set_enabled(true);
    assert_eq!(bag(&mut db, join), reference);
    let fetches = fetch_calls(db.trace());
    assert!(fetches > 8 * 2, "each outer row must need several fetch batches ({fetches} total)");
}

/// Pipelining pin for joins: the first `next_row` of a domain-join cursor
/// pays one `ODCIIndexStart` and one `ODCIIndexFetch` — the first outer
/// row's first fetch batch — not a whole executor batch of joined rows.
#[test]
fn first_domain_join_cursor_row_costs_one_start_and_one_fetch() {
    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    for table in ["roads", "parks"] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    }
    // Road i and park i share the same square; nothing else touches.
    for i in 0..40 {
        let o = f64::from(i) * 10.0;
        let sq =
            geometry_sql(&Geometry::Rect(Mbr { xmin: o, ymin: o, xmax: o + 5.0, ymax: o + 5.0 }));
        db.execute(&format!("INSERT INTO roads VALUES ({i}, {sq})")).unwrap();
        db.execute(&format!("INSERT INTO parks VALUES ({i}, {sq})")).unwrap();
    }
    db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let join = "SELECT r.gid, p.gid FROM roads r, parks p \
                WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=ANYINTERACT')";
    assert!(db.explain(join).unwrap().join("\n").contains("DOMAIN JOIN"));
    db.trace().set_enabled(true);
    db.trace().clear();
    // The cursor borrows the database; a trace clone shares its counters.
    let trace = db.trace().clone();
    let calls = |routine: &str| -> u64 {
        trace.aggregates().iter().filter(|(_, r, _)| *r == routine).map(|(_, _, s)| s.calls).sum()
    };
    let mut cur = db.open_query(join).unwrap();
    assert_eq!(ints(&cur.next_row().unwrap().unwrap()), [0, 0]);
    assert_eq!((calls("ODCIIndexStart"), calls("ODCIIndexFetch")), (1, 1));
    let mut n = 1;
    while cur.next_row().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 40);
    assert_eq!(calls("ODCIIndexStart"), 40, "one parameterized scan per outer row");
}

/// The pipeline breakers (GROUP BY, DISTINCT, ORDER BY) fed more than
/// one input batch, checked against closed-form answers.
#[test]
fn pipeline_breakers_over_several_input_batches() {
    const N: i64 = 3000;
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE pb (id INTEGER, g INTEGER, v INTEGER)").unwrap();
    for i in 0..N {
        let row = [i.into(), (i % 7).into(), (N - i).into()];
        db.execute_with("INSERT INTO pb VALUES (?, ?, ?)", &row).unwrap();
    }

    let mut groups: Vec<Vec<i64>> = db
        .query("SELECT g, COUNT(*), MIN(id), MAX(id) FROM pb GROUP BY g")
        .unwrap()
        .iter()
        .map(|r| ints(r))
        .collect();
    groups.sort();
    let want: Vec<Vec<i64>> = (0..7)
        .map(|g| {
            let ids: Vec<i64> = (0..N).filter(|i| i % 7 == g).collect();
            vec![g, ids.len() as i64, ids[0], *ids.last().unwrap()]
        })
        .collect();
    assert_eq!(groups, want);

    let mut distinct: Vec<Vec<i64>> =
        db.query("SELECT DISTINCT g FROM pb").unwrap().iter().map(|r| ints(r)).collect();
    distinct.sort();
    assert_eq!(distinct, (0..7).map(|g| vec![g]).collect::<Vec<_>>());
    // DISTINCT over an all-unique column keeps every row of every batch.
    assert_eq!(db.query("SELECT DISTINCT id FROM pb").unwrap().len(), N as usize);

    // v = N - id, so ascending v is descending id.
    let sorted: Vec<Vec<i64>> =
        db.query("SELECT id FROM pb ORDER BY v").unwrap().iter().map(|r| ints(r)).collect();
    assert_eq!(sorted, (0..N).rev().map(|i| vec![i]).collect::<Vec<_>>());
}

/// Pipelining pin (§3.2.1): the first `next_row` of a domain-scan cursor
/// issues exactly one `ODCIIndexFetch`, however many rows the scan will
/// eventually return.
#[test]
fn first_cursor_row_costs_one_odci_fetch() {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..200i64 {
        let row = [i.into(), format!("heather moor {i}").into()];
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &row).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.set_batch_size(8);
    db.trace().set_enabled(true);
    db.trace().clear();
    // The cursor borrows the database; a trace clone shares its counters.
    let trace = db.trace().clone();
    let mut cur = db
        .open_query("SELECT /*+ INDEX(docs dt) */ id FROM docs WHERE Contains(body, 'heather')")
        .unwrap();
    assert!(cur.next_row().unwrap().is_some());
    assert_eq!(fetch_calls(&trace), 1, "the first row must not wait for the rest of the scan");
    let mut n = 1;
    while cur.next_row().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 200);
    assert!(fetch_calls(&trace) >= 200 / 8, "the full drain pays the remaining fetches");
}

/// Residual conjuncts run cheapest-first whatever their source order
/// (`wrap_filter` sorts by `TermClass`), so a functional operator only
/// sees the rows the cheap terms let through. A counting functional
/// implementation pins that as a call count: with the operator written
/// *first* and zone pruning off (every page is scanned, so only term
/// order can shield the operator), it runs once per row with `id < K` —
/// not once per table row. HAVING goes through the same ordering.
#[test]
fn cost_ordered_conjuncts_call_the_operator_only_on_surviving_rows() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use extidx::common::Value;
    use extidx::core::operator::ScalarFunction;

    const N: i64 = 3000;
    const K: i64 = 151;
    const GROUPS: i64 = 40;
    const G: i64 = 5;

    let calls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&calls);
    let mut db = Database::with_cache_pages(4096);
    db.register_function(ScalarFunction::new("SlowOpFn", move |_, args| {
        seen.fetch_add(1, Ordering::Relaxed);
        Ok(Value::Integer(args[0].as_integer()? % 2))
    }))
    .unwrap();
    db.execute("CREATE OPERATOR SlowOp BINDING (INTEGER) RETURN INTEGER USING SlowOpFn").unwrap();
    db.execute("CREATE TABLE t (id INTEGER, x INTEGER, grp INTEGER)").unwrap();
    for i in 1..=N {
        db.execute_with("INSERT INTO t VALUES (?, ?, ?)", &[i.into(), i.into(), (i % GROUPS).into()])
            .unwrap();
    }
    db.set_zone_pruning(false);

    // The FILTER line's terms, in evaluation order, as their class tags.
    let filter_classes = |db: &mut Database, sql: &str| -> Vec<String> {
        let plan = db.explain(sql).unwrap();
        let line = plan
            .iter()
            .find(|l| l.trim_start().starts_with("FILTER"))
            .unwrap_or_else(|| panic!("no FILTER in {plan:?}"));
        let terms = line.rsplit("] ").next().unwrap().trim_start().trim_start_matches("FILTER ");
        terms.split(" AND ").map(|t| t.split(':').next().unwrap().to_string()).collect()
    };

    // WHERE: ids 1..K pass the range, the odd ones pass the operator.
    let sql =
        format!("SELECT /*+ FULL(t) */ id FROM t WHERE SlowOp(x) = 1 AND id < {K} ORDER BY id");
    assert_eq!(filter_classes(&mut db, &sql), ["zone", "op"], "range term first, operator last");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "planning never runs the operator");
    let got: Vec<i64> = db.query(&sql).unwrap().iter().map(|r| ints(r)[0]).collect();
    assert_eq!(got, (1..K).step_by(2).collect::<Vec<_>>());
    assert_eq!(
        calls.swap(0, Ordering::Relaxed),
        (K - 1) as u64,
        "the operator must see only the rows with id < {K}, not all {N}"
    );

    // HAVING: groups 0..G pass the range, the odd ones pass the operator.
    let having = format!(
        "SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING SlowOp(grp) = 1 AND grp < {G} ORDER BY grp"
    );
    let classes = filter_classes(&mut db, &having);
    assert_eq!(classes.len(), 2);
    assert_eq!(classes[1], "op", "operator last: {classes:?}");
    let got: Vec<Vec<i64>> = db.query(&having).unwrap().iter().map(|r| ints(r)).collect();
    assert_eq!(got, (1..G).step_by(2).map(|g| vec![g, N / GROUPS]).collect::<Vec<_>>());
    assert_eq!(
        calls.load(Ordering::Relaxed),
        G as u64,
        "the operator must see only the groups with grp < {G}, not all {GROUPS}"
    );
}
