//! The statement cache never runs a stale plan (DESIGN.md §4m).
//!
//! Each test runs a text until the cache serves it, changes one input of
//! the plan's validity stamp, and runs the same text again: the answer —
//! and the buffer gets it takes, or the crossings it makes — must equal a
//! twin the optimizer plans afresh, and the plan must switch where it
//! should. Each test names the stamp input it pins; with that input taken
//! out of the stamp, the test fails.

use std::sync::atomic::{AtomicU64, Ordering};

use extidx::common::Value;
use extidx::sql::{Database, DurableMedium, Server};

type Rows = Vec<Vec<Value>>;

fn sorted(mut rows: Rows) -> Rows {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// One execution's answer (sorted) and the buffer gets it took.
fn run(db: &mut Database, sql: &str) -> (Rows, u64) {
    let before = db.cache_stats().logical_reads;
    let rows = sorted(db.query(sql).unwrap());
    (rows, db.cache_stats().logical_reads - before)
}

/// `sql` as a text the statement cache has never seen, so it is planned
/// afresh.
fn twin(sql: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    sql.replacen("SELECT", &format!("SELECT /* twin {n} */"), 1)
}

fn plan_cache_hits(db: &mut Database) -> i64 {
    let sql = "SELECT VALUE FROM V$CACHE_STATS WHERE NAME = ?";
    db.query_with(sql, &[Value::from("PLAN_CACHE_HITS")]).unwrap()[0][0].as_integer().unwrap()
}

/// Run `sql` until the cache serves it (a text is kept from its second
/// execution), and return what the served execution answered and read.
fn cached(db: &mut Database, sql: &str) -> (Rows, u64) {
    for _ in 0..2 {
        db.query(sql).unwrap();
        plan_cache_hits(db);
    }
    let before = plan_cache_hits(db);
    let out = run(db, sql);
    // `sql` and the counter's own read are both hits.
    assert_eq!(plan_cache_hits(db) - before, 2, "{sql} is not served from the cache");
    out
}

/// The cached text answers and reads exactly like its fresh twin.
fn assert_like_fresh(db: &mut Database, sql: &str) -> (Rows, u64) {
    let cached = run(db, sql);
    let fresh = run(db, &twin(sql));
    assert_eq!(cached, fresh, "{sql}: the cached plan is not the one the optimizer picks now");
    cached
}

/// `name (id INTEGER, k INTEGER, pad VARCHAR2(100))` with `rows` rows and
/// `k` scattered over 0..1000 ([`k_of`]): a key's rows sit on pages of
/// their own, and every page spans the key range, so no zone map prunes a
/// `k` predicate.
fn table_db(name: &str, rows: i64) -> Database {
    let mut db = Database::new();
    db.execute(&format!("CREATE TABLE {name} (id INTEGER, k INTEGER, pad VARCHAR2(100))")).unwrap();
    let insert = format!("INSERT INTO {name} VALUES (?, ?, ?)");
    for i in 0..rows {
        let pad = format!("{i:0>80}");
        db.execute_with(&insert, &[i.into(), k_of(i).into(), pad.into()]).unwrap();
    }
    db
}

fn k_of(id: i64) -> i64 {
    id * 7919 % 1000
}

/// Stamp input: the catalog version.
#[test]
fn create_then_drop_index_switches_the_cached_plan() {
    let mut db = table_db("t", 4000);
    let sql = "SELECT id FROM t WHERE k = 17";
    let (rows, full_reads) = cached(&mut db, sql);
    assert_eq!(rows.len(), 4);

    db.execute("CREATE INDEX t_k ON t(k)").unwrap();
    let (_, reads) = assert_like_fresh(&mut db, sql);
    assert!(reads * 4 < full_reads, "the B-tree ({reads} gets) must replace the full scan ({full_reads})");

    db.execute("DROP INDEX t_k").unwrap();
    let (after, reads) = assert_like_fresh(&mut db, sql);
    assert_eq!((after, reads), (rows, full_reads), "dropping the index restores the full scan");
}

fn text_db(bulk: i64) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..bulk {
        let body = if i % 7 == 0 { format!("gorse thicket {i}") } else { format!("filler row {i}") };
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.into()]).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.trace().set_enabled(true);
    db
}

/// Crossings of `routine` (any indextype) so far; `ODCIStats` counts every
/// stats routine.
fn crossings(db: &Database, routine: &str) -> u64 {
    let aggs = db.trace().aggregates();
    aggs.iter().filter(|(_, r, _)| r.starts_with(routine)).map(|(_, _, s)| s.calls).sum()
}

/// Stamp input: the health epoch.
#[test]
fn quarantine_degrades_the_cached_plan_and_rebuild_restores_it() {
    let mut db = text_db(160);
    let sql = "SELECT id FROM docs WHERE Contains(body, 'gorse')";
    let no_index = "SELECT /*+ NO_INDEX */ id FROM docs WHERE Contains(body, 'gorse')";
    for _ in 0..2 {
        db.query(sql).unwrap();
    }
    let (stats, starts) = (crossings(&db, "ODCIStats"), crossings(&db, "ODCIIndexStart"));
    db.query(sql).unwrap();
    assert_eq!(crossings(&db, "ODCIStats"), stats, "a cached plan consults no stats routine");
    assert_eq!(crossings(&db, "ODCIIndexStart"), starts + 1, "the cached plan is the domain scan");

    // Quarantined, the index misses this row (DML does not maintain an
    // unusable index): a stale domain-scan plan would miss it too.
    db.quarantine_index("DT").unwrap();
    db.execute("INSERT INTO docs VALUES (9999, 'gorse after the quarantine')").unwrap();
    let starts = crossings(&db, "ODCIIndexStart");
    let rows = sorted(db.query(sql).unwrap());
    assert_eq!(crossings(&db, "ODCIIndexStart"), starts, "a quarantined index is not scanned");
    assert_eq!(rows, sorted(db.query(no_index).unwrap()));
    assert!(rows.contains(&vec![Value::Integer(9999)]));

    db.execute("ALTER INDEX dt REBUILD").unwrap();
    let starts = crossings(&db, "ODCIIndexStart");
    let rows = sorted(db.query(sql).unwrap());
    assert_eq!(crossings(&db, "ODCIIndexStart"), starts + 1, "REBUILD restores the domain scan");
    assert_eq!(rows, sorted(db.query(no_index).unwrap()));
}

/// Stamp input: the catalog version. (The old table is empty, so its size
/// class says nothing: only the dictionary knows the name now means
/// another table.)
#[test]
fn a_table_recreated_with_other_columns_is_replanned() {
    let mut db = Database::new();
    db.execute("CREATE TABLE w (a INTEGER, b VARCHAR2(10))").unwrap();
    let sql = "SELECT * FROM w";
    assert!(cached(&mut db, sql).0.is_empty());

    db.execute("DROP TABLE w").unwrap();
    db.execute("CREATE TABLE w (x VARCHAR2(10), y INTEGER, z INTEGER)").unwrap();
    db.execute("INSERT INTO w VALUES ('one', 2, 3)").unwrap();
    let (rows, _) = assert_like_fresh(&mut db, sql);
    assert_eq!(rows, vec![vec![Value::from("one"), Value::Integer(2), Value::Integer(3)]]);
}

/// Stamp input: the catalog version (ANALYZE writes the table's stats).
#[test]
fn analyze_replans_with_the_new_statistics() {
    let mut db = Database::new();
    db.execute("CREATE TABLE s (id INTEGER, k INTEGER, pad VARCHAR2(100))").unwrap();
    for i in 0..4000i64 {
        let pad = format!("{i:0>80}");
        db.execute_with("INSERT INTO s VALUES (?, 5, ?)", &[i.into(), pad.into()]).unwrap();
    }
    db.execute("CREATE INDEX s_k ON s(k)").unwrap();
    // Without statistics `k = 5` looks selective: the B-tree. ANALYZE
    // finds one distinct value, and the full scan wins.
    let sql = "SELECT COUNT(*) FROM s WHERE k = 5";
    let (rows, btree_reads) = cached(&mut db, sql);
    assert_eq!(rows, vec![vec![Value::Integer(4000)]]);

    db.execute("ANALYZE TABLE s").unwrap();
    let (after, reads) = assert_like_fresh(&mut db, sql);
    assert_eq!(after, rows);
    assert_ne!(reads, btree_reads, "ANALYZE must move the plan off the B-tree");
}

/// Stamp input: the table's size class, ⌊log2(rows + 1)⌋.
#[test]
fn a_table_grown_from_one_row_to_ten_thousand_is_replanned() {
    let mut db = table_db("g", 1);
    db.execute("CREATE INDEX g_k ON g(k)").unwrap();
    let sql = "SELECT id FROM g WHERE k = 7";
    assert!(cached(&mut db, sql).0.is_empty(), "one row: the full scan");

    for i in 1..10_000i64 {
        let pad = format!("{i:0>80}");
        db.execute_with("INSERT INTO g VALUES (?, ?, ?)", &[i.into(), k_of(i).into(), pad.into()])
            .unwrap();
    }
    let full = run(&mut db, "SELECT /*+ FULL(g) */ id FROM g WHERE k = 7").1;
    let (rows, reads) = assert_like_fresh(&mut db, sql);
    assert_eq!(rows.len(), 10);
    assert!(reads * 4 < full, "ten thousand rows: the B-tree ({reads} gets, full scan {full})");
}

/// Guarded three times over: recovery empties the cache as it replaces
/// the catalog, and it moves two stamp inputs besides — the catalog version
/// (the dictionary is restored under a new one) and the health epoch (the
/// health registry is imported). The test fails only with all three gone.
#[test]
fn recovery_replans_what_the_recovering_instance_had_cached() {
    let medium = DurableMedium::new();
    {
        let mut db = Database::new();
        db.enable_durability(medium.clone()).unwrap();
        db.execute("CREATE TABLE r (a INTEGER, b INTEGER, c INTEGER)").unwrap();
        db.execute("INSERT INTO r VALUES (1, 2, 3)").unwrap();
        db.fault_injector().arm_fail("wal.append", None, 1);
        assert!(db.execute("INSERT INTO r VALUES (4, 5, 6)").is_err(), "the crash");
    }
    // The recovering instance had cached a plan for the same text against
    // a table of its own under the same name.
    let mut rec = Database::new();
    rec.execute("CREATE TABLE r (a INTEGER)").unwrap();
    rec.execute("INSERT INTO r VALUES (9)").unwrap();
    let sql = "SELECT * FROM r";
    assert_eq!(cached(&mut rec, sql).0, vec![vec![Value::Integer(9)]]);

    rec.enable_durability(medium).unwrap();
    let (rows, _) = assert_like_fresh(&mut rec, sql);
    assert_eq!(rows, vec![vec![Value::Integer(1), Value::Integer(2), Value::Integer(3)]]);
}

/// Plans hold no data: a cached bare `COUNT(*)` counts when it runs, so it
/// sees another session's committed insert once its snapshot is past the
/// commit — and not before.
#[test]
fn a_cached_count_follows_the_sessions_snapshot() {
    let mut db = Database::new();
    db.execute("CREATE TABLE c (id INTEGER)").unwrap();
    for i in 0..5i64 {
        db.execute_with("INSERT INTO c VALUES (?)", &[i.into()]).unwrap();
    }
    let server = Server::new(db);
    let (mut reader, mut writer) = (server.session(), server.session());
    let sql = "SELECT COUNT(*) FROM c";
    let count = |s: &mut extidx::sql::Session| s.query(sql).unwrap()[0][0].as_integer().unwrap();
    for _ in 0..3 {
        assert_eq!(count(&mut reader), 5);
    }

    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO c VALUES (5)").unwrap();
    assert_eq!(count(&mut reader), 5, "uncommitted");
    reader.execute("BEGIN").unwrap();
    writer.execute("COMMIT").unwrap();
    assert_eq!(count(&mut reader), 5, "committed after the reader's snapshot");
    reader.execute("COMMIT").unwrap();
    assert_eq!(count(&mut reader), 6, "the reader's new snapshot is past the commit");
    assert_eq!(count(&mut writer), 6);
}
