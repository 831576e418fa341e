//! Key-prefix access paths (DESIGN.md §4h "The sargable-bounds table").
//!
//! Every primary-key column a predicate pins reaches the IOT probe: the
//! optimizer walks the key columns in order, appends each pinned column
//! to both bounds and closes with the first range-bounded one. A conjunct
//! the inclusive bounds express exactly leaves the residual filter; one
//! they only over-approximate (a strict comparison, or a lower bound that
//! NULL keys — which sort last — would slip past) narrows the range and
//! stays. All assertions are plan shapes, row counts and `FULL` twins —
//! no timing.

use extidx::sql::{Database, StmtResult};

/// `kv(k, seq, v, PRIMARY KEY (k, seq))`: k in 0..1000, four `seq` per k.
fn kv() -> Database {
    let mut db = Database::with_cache_pages(2048);
    db.execute(
        "CREATE TABLE kv (k INTEGER, seq INTEGER, v VARCHAR2(8), PRIMARY KEY (k, seq)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    for k in 0..1000i64 {
        for seq in 0..4i64 {
            let v = if seq == 2 { "x" } else { "y" };
            db.execute_with("INSERT INTO kv VALUES (?, ?, ?)", &[k.into(), seq.into(), v.into()])
                .unwrap();
        }
    }
    db
}

fn plan(db: &mut Database, sql: &str) -> String {
    db.explain(sql).unwrap().join("\n")
}

fn bag(db: &mut Database, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> =
        db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// The rows `SELECT * FROM <table> WHERE <pred>` returns, after checking
/// they equal what the forced full scan returns.
fn checked(db: &mut Database, table: &str, pred: &str) -> Vec<String> {
    let got = bag(db, &format!("SELECT * FROM {table} WHERE {pred}"));
    let twin = bag(db, &format!("SELECT /*+ FULL({table}) */ * FROM {table} WHERE {pred}"));
    assert_eq!(got, twin, "WHERE {pred}: chosen plan disagrees with its FULL twin");
    got
}

fn count(db: &mut Database, sql: &str) -> i64 {
    db.query(sql).unwrap()[0][0].as_integer().unwrap()
}

#[test]
fn fully_pinned_key_is_a_bare_point_probe() {
    let mut db = kv();
    for pred in ["k = 5 AND seq = 2", "seq = 2 AND k = 5", "2 = seq AND 5 = k"] {
        let p = plan(&mut db, &format!("SELECT * FROM kv WHERE {pred}"));
        assert!(
            p.contains(
                "IOT RANGE KV lo=Some(Key([Integer(5), Integer(2)])) \
                 hi=Some(Key([Integer(5), Integer(2)]))  (rows=1 "
            ),
            "{pred}:\n{p}"
        );
        assert!(!p.contains("FILTER"), "{pred}: both conjuncts are exact:\n{p}");
        assert_eq!(checked(&mut db, "kv", pred).len(), 1, "{pred}");
    }
}

#[test]
fn pinned_prefix_closes_with_the_first_range_column() {
    let mut db = kv();
    let p = plan(&mut db, "SELECT * FROM kv WHERE k = 5 AND seq BETWEEN 1 AND 2");
    assert!(p.contains("lo=Some(Key([Integer(5), Integer(1)])) hi=Some(Key([Integer(5), Integer(2)]))"), "{p}");
    assert!(!p.contains("FILTER"), "{p}");
    assert_eq!(checked(&mut db, "kv", "k = 5 AND seq BETWEEN 1 AND 2").len(), 2);

    // Two one-sided conjuncts on one column merge into one range.
    let p = plan(&mut db, "SELECT * FROM kv WHERE k >= 3 AND k <= 7");
    assert!(p.contains("IOT RANGE KV lo=Some(Key([Integer(3)])) hi=Some(Key([Integer(7)]))"), "{p}");
    assert!(!p.contains("FILTER"), "{p}");
    assert_eq!(checked(&mut db, "kv", "k >= 3 AND k <= 7").len(), 20);

    // A strict bound narrows the range but admits the boundary row, so
    // its conjunct stays; the pinned column's conjunct does not.
    let p = plan(&mut db, "SELECT * FROM kv WHERE k = 5 AND seq > 2");
    assert!(p.contains("lo=Some(Key([Integer(5), Integer(2)])) hi=Some(Key([Integer(5)]))"), "{p}");
    assert!(p.contains("FILTER zone:Binary(Gt, Slot(1), Const(2))  "), "{p}");
    assert_eq!(checked(&mut db, "kv", "k = 5 AND seq > 2").len(), 1);
    assert_eq!(checked(&mut db, "kv", "k > 3 AND k < 7").len(), 12);
}

/// Primary-key columns may hold NULL, and NULL sorts last: a range with
/// no upper bound on its closing column would return NULL-keyed rows, so
/// a lower-only bound narrows the range and keeps its conjunct.
#[test]
fn lower_only_bound_keeps_its_conjunct_because_null_keys_sort_last() {
    let mut db = kv();
    db.execute("INSERT INTO kv VALUES (5, NULL, 'n')").unwrap();
    db.execute("INSERT INTO kv VALUES (NULL, 1, 'n')").unwrap();

    let p = plan(&mut db, "SELECT * FROM kv WHERE k = 5 AND seq >= 2");
    assert!(p.contains("lo=Some(Key([Integer(5), Integer(2)])) hi=Some(Key([Integer(5)]))"), "{p}");
    assert!(p.contains("FILTER zone:Binary(Ge, Slot(1), Const(2))  "), "{p}");
    assert_eq!(checked(&mut db, "kv", "k = 5 AND seq >= 2").len(), 2);

    let p = plan(&mut db, "SELECT * FROM kv WHERE k >= 998");
    assert!(p.contains("IOT RANGE KV lo=Some(Key([Integer(998)])) hi=None"), "{p}");
    assert!(p.contains("FILTER"), "{p}");
    assert_eq!(checked(&mut db, "kv", "k >= 998").len(), 8);

    // Under an upper bound the NULLs are cut off and both sides are exact.
    assert_eq!(checked(&mut db, "kv", "k >= 998 AND k <= 999").len(), 8);
    assert_eq!(checked(&mut db, "kv", "k = 5 AND seq <= 1").len(), 2);
    assert_eq!(checked(&mut db, "kv", "k = 5").len(), 5);

    // `col = NULL` is never true, so NULL is never pushed into a bound.
    let p = plan(&mut db, "SELECT * FROM kv WHERE k = NULL");
    assert!(p.contains("IOT FULL SCAN KV"), "{p}");
    assert_eq!(checked(&mut db, "kv", "k = NULL").len(), 0);
    assert_eq!(checked(&mut db, "kv", "k = 5 AND seq = NULL").len(), 0);
}

#[test]
fn no_prefix_no_probe_and_the_residual_keeps_what_the_key_cannot_say() {
    let mut db = kv();
    let p = plan(&mut db, "SELECT * FROM kv WHERE seq = 2");
    assert!(p.contains("IOT FULL SCAN KV"), "{p}");
    assert!(p.contains("FILTER zone:Binary(Eq, Slot(1), Const(2))  "), "{p}");
    assert_eq!(checked(&mut db, "kv", "seq = 2").len(), 1000);

    let p = plan(&mut db, "SELECT * FROM kv WHERE k = 5 AND v = 'x'");
    assert!(p.contains("IOT RANGE KV lo=Some(Key([Integer(5)])) hi=Some(Key([Integer(5)]))"), "{p}");
    assert!(p.contains("FILTER zone:Binary(Eq, Slot(2), Const(x))  "), "only `v` stays:\n{p}");
    assert_eq!(checked(&mut db, "kv", "k = 5 AND v = 'x'").len(), 1);

    // Three-column key pinned on columns 0 and 2: the prefix stops at 1.
    db.execute(
        "CREATE TABLE t3 (a INTEGER, b INTEGER, c INTEGER, v INTEGER, PRIMARY KEY (a, b, c)) \
         ORGANIZATION INDEX",
    )
    .unwrap();
    for i in 0..600i64 {
        db.execute_with(
            "INSERT INTO t3 VALUES (?, ?, ?, ?)",
            &[(i / 60).into(), (i / 6 % 10).into(), (i % 6).into(), i.into()],
        )
        .unwrap();
    }
    let p = plan(&mut db, "SELECT * FROM t3 WHERE a = 1 AND c = 3");
    assert!(p.contains("IOT RANGE T3 lo=Some(Key([Integer(1)])) hi=Some(Key([Integer(1)]))"), "{p}");
    assert!(p.contains("FILTER zone:Binary(Eq, Slot(2), Const(3))  "), "{p}");
    assert_eq!(checked(&mut db, "t3", "a = 1 AND c = 3").len(), 10);
    let p = plan(&mut db, "SELECT * FROM t3 WHERE c = 3 AND b = 4 AND a = 1");
    assert!(p.contains("lo=Some(Key([Integer(1), Integer(4), Integer(3)]))"), "{p}");
    assert!(!p.contains("FILTER"), "{p}");
    assert_eq!(checked(&mut db, "t3", "c = 3 AND b = 4 AND a = 1").len(), 1);
}

/// Bounds that contradict each other select nothing: the residual rejects
/// every row, and no reversed range reaches the storage layer — not even
/// when a hint forces the index.
#[test]
fn contradictory_bounds_return_nothing() {
    let mut db = kv();
    db.execute("CREATE INDEX kv_v ON kv(v)").unwrap();
    for pred in [
        "k BETWEEN 7 AND 3",
        "k >= 7 AND k <= 3",
        "k = 5 AND k = 6",
        "k = 5 AND seq BETWEEN 3 AND 1",
        "v BETWEEN 'y' AND 'x'",
    ] {
        assert_eq!(checked(&mut db, "kv", pred).len(), 0, "{pred}");
    }
    let forced = "SELECT /*+ INDEX(kv kv_v) */ * FROM kv WHERE v >= 'y' AND v < 'x'";
    assert!(plan(&mut db, forced).contains("BTREE ACCESS KV VIA KV_V"));
    assert!(bag(&mut db, forced).is_empty());
}

/// A strict comparison on an indexed column must not return the boundary
/// row. The B-tree / IOT range is inclusive, so the conjunct has to stay
/// in the residual filter.
#[test]
fn strict_bounds_exclude_the_boundary_row() {
    let mut db = kv();
    db.execute("CREATE TABLE h (id INTEGER)").unwrap();
    for i in 0..3000i64 {
        db.execute_with("INSERT INTO h VALUES (?)", &[i.into()]).unwrap();
    }
    db.execute("CREATE INDEX h_id ON h(id)").unwrap();
    db.execute("ANALYZE TABLE h").unwrap();
    db.execute("ANALYZE TABLE kv").unwrap();

    for (table, pred, path, expect) in [
        ("h", "id < 5", "BTREE ACCESS H VIA H_ID", 5),
        ("h", "id > 2995", "BTREE ACCESS H VIA H_ID", 4),
        ("kv", "k < 5", "IOT RANGE KV", 20),
        ("kv", "k > 995", "IOT RANGE KV", 16),
    ] {
        let sql = format!("SELECT COUNT(*) FROM {table} WHERE {pred}");
        let p = plan(&mut db, &sql);
        assert!(p.contains(path), "{pred} must take the index path:\n{p}");
        assert_eq!(count(&mut db, &sql), expect, "{pred}");
        let full = format!("SELECT /*+ FULL({table}) */ COUNT(*) FROM {table} WHERE {pred}");
        assert_eq!(count(&mut db, &full), expect, "{pred} (FULL twin)");
    }
}

#[test]
fn pinned_key_dml_touches_one_row_and_maintains_the_secondary_index() {
    let mut db = kv();
    db.execute("CREATE INDEX kv_v ON kv(v)").unwrap();
    let via_index = |db: &mut Database, v: &str| {
        bag(db, &format!("SELECT /*+ INDEX(kv kv_v) */ k, seq FROM kv WHERE v = '{v}'"))
    };

    let r = db.execute("UPDATE kv SET v = 'z' WHERE k = 5 AND seq = 2").unwrap();
    assert!(matches!(r, StmtResult::Affected(1)), "{r:?}");
    assert_eq!(via_index(&mut db, "z"), ["[Integer(5), Integer(2)]"]);
    assert_eq!(via_index(&mut db, "x").len(), 999);
    assert_eq!(checked(&mut db, "kv", "v = 'z'").len(), 1);

    let r = db.execute("DELETE FROM kv WHERE seq = 2 AND k = 5").unwrap();
    assert!(matches!(r, StmtResult::Affected(1)), "{r:?}");
    assert!(via_index(&mut db, "z").is_empty());
    assert_eq!(checked(&mut db, "kv", "k = 5").len(), 3);
    assert_eq!(count(&mut db, "SELECT /*+ FULL(kv) */ COUNT(*) FROM kv"), 3999);
}

/// The differential oracle over the generator's composite-key IOT
/// (`F_IOT`, `PRIMARY KEY (grp, id)`, NULL `grp` on every 11th row): long
/// streams, so the table outgrows the sizes where a full scan is cheapest
/// and key-prefix ranges and point-probe DML actually get planned. Every
/// query runs cost-chosen, `FULL`-forced and through the mirror
/// interpreter; run by scripts/ci.sh via `--include-ignored`. The seeds
/// are ones that catch the key-prefix candidate widened by one: with a
/// strict bound consumed as if inclusive 0x4B33 diverges at statement 98
/// and 0x4B34 at 1; with a lower-only bound consumed although NULL keys
/// sort past it 0x4B34 diverges at 444 and 0x4B3B at 430.
#[test]
#[ignore = "long sweep; run via scripts/ci.sh or --include-ignored"]
fn composite_key_sweep_has_no_divergence() {
    use extidx_qgen::{run_seed, ChaosOpts};

    for seed in [0x4B33u64, 0x4B34, 0x4B3B] {
        if let Some(d) = run_seed(seed, 500, ChaosOpts::default()) {
            panic!(
                "divergence at seed {:#x}, statement {}\n{}\n{}",
                d.seed, d.step, d.detail, d.script
            );
        }
    }
}
