//! Rows copied once (DESIGN.md §4h): a base access copies out of storage
//! only the columns its plan reads, a Filter over a stored-row access tests
//! each row where it lies, and Project reuses the row it is handed. Each
//! test below reads a column somewhere other than the select list — or
//! needs the whole row — and checks the answer against a closed form or
//! its `/*+ NO_INDEX */` twin.

use extidx::common::Value;
use extidx::sql::Database;

const N: i64 = 3000;

/// `t(id, g, v, note)`: `g = id % 7`, `v = N - id`, `note = 'n<id>'`,
/// plus a B-tree on `g`.
fn table_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    db.execute("CREATE TABLE t (id INTEGER, g INTEGER, v INTEGER, note VARCHAR2(40))").unwrap();
    for i in 0..N {
        let row = [i.into(), (i % 7).into(), (N - i).into(), format!("n{i}").into()];
        db.execute_with("INSERT INTO t VALUES (?, ?, ?, ?)", &row).unwrap();
    }
    db.execute("CREATE INDEX t_g ON t(g)").unwrap();
    db.execute("ANALYZE TABLE t").unwrap();
    db
}

/// `docs(id, body)` under a text index: doc `i` says "heather" `i % 4 + 1`
/// times, so its `SCORE` for that term is `i % 4 + 1`.
fn docs_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    for i in 0..200i64 {
        let body = format!("{}moor{i}", "heather ".repeat((i % 4 + 1) as usize));
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.into()]).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db
}

/// The rows of `sql`, in order, each value stringified.
fn rows(db: &mut Database, sql: &str) -> Vec<Vec<String>> {
    db.query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .iter()
        .map(|r| r.iter().map(Value::to_string).collect())
        .collect()
}

/// The rows of `sql`, sorted — the bag.
fn bag(db: &mut Database, sql: &str) -> Vec<Vec<String>> {
    let mut out = rows(db, sql);
    out.sort();
    out
}

fn plan(db: &mut Database, sql: &str) -> String {
    db.explain(sql).unwrap().join("\n")
}

fn strs<const K: usize>(cells: [impl ToString; K]) -> Vec<String> {
    cells.iter().map(ToString::to_string).collect()
}

#[test]
fn distinct_over_a_column_subset() {
    let mut db = table_db();
    let got = bag(&mut db, "SELECT DISTINCT g FROM t");
    assert_eq!(got, (0..7).map(|g| strs([g])).collect::<Vec<_>>());

    // The filter reads `v`, DISTINCT the two projected columns only.
    let got = bag(&mut db, "SELECT DISTINCT g, note FROM t WHERE v <= 14");
    let mut want: Vec<Vec<String>> =
        (N - 14..N).map(|i| strs([(i % 7).to_string(), format!("n{i}")])).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn order_by_a_column_that_is_not_projected() {
    let mut db = table_db();
    // v = N - id: ascending v is descending id.
    let got = rows(&mut db, "SELECT id FROM t WHERE g = 3 ORDER BY v");
    let want: Vec<Vec<String>> = (0..N).rev().filter(|i| i % 7 == 3).map(|i| strs([i])).collect();
    assert_eq!(got, want);
    let got = rows(&mut db, "SELECT note FROM t WHERE id < 40 ORDER BY g DESC, v");
    let mut want: Vec<i64> = (0..40).collect();
    want.sort_by_key(|&i| (std::cmp::Reverse(i % 7), N - i));
    assert_eq!(got, want.iter().map(|i| strs([format!("n{i}")])).collect::<Vec<_>>());
}

#[test]
fn select_star_returns_every_column() {
    let mut db = table_db();
    let got = rows(&mut db, "SELECT * FROM t WHERE id BETWEEN 10 AND 12");
    let row = |i: i64| {
        strs([i.to_string(), (i % 7).to_string(), (N - i).to_string(), format!("n{i}")])
    };
    let want: Vec<Vec<String>> = (10..=12).map(row).collect();
    assert_eq!(got, want);
    // The same through an index-organized table's key range.
    db.execute("CREATE TABLE kv (k INTEGER, v VARCHAR2(8), PRIMARY KEY (k)) ORGANIZATION INDEX")
        .unwrap();
    for i in 0..1000i64 {
        let row = [i.into(), format!("v{i}").into()];
        db.execute_with("INSERT INTO kv VALUES (?, ?)", &row).unwrap();
    }
    assert!(plan(&mut db, "SELECT * FROM kv WHERE k BETWEEN 100 AND 102").contains("IOT RANGE"));
    let got = rows(&mut db, "SELECT * FROM kv WHERE k BETWEEN 100 AND 102");
    let want: Vec<Vec<String>> =
        (100..=102).map(|i| strs([i.to_string(), format!("v{i}")])).collect();
    assert_eq!(got, want);
}

#[test]
fn rowid_in_a_residual_conjunct_over_a_fused_scan() {
    let mut db = table_db();
    // A fused scan hands up the row's own ROWID: fetching by it finds id 7.
    let binds = db.query("SELECT ROWID FROM t WHERE id = 7").unwrap().remove(0);
    assert!(matches!(binds[..], [Value::RowId(_)]));
    let fetched = db.query_with("SELECT id FROM t WHERE ROWID = ?", &binds).unwrap();
    assert_eq!(fetched, [[Value::Integer(7)]]);

    let sql = "SELECT /*+ FULL(t) */ id FROM t WHERE ROWID <> ? AND id < 20";
    let shape = plan(&mut db, sql);
    assert!(shape.contains("FILTER") && shape.contains("FULL SCAN T"), "{shape}");
    let got: Vec<Vec<String>> = db
        .query_with(sql, &binds)
        .unwrap()
        .iter()
        .map(|r| vec![r[0].to_string()])
        .collect();
    let want: Vec<Vec<String>> = (0..20).filter(|&i| i != 7).map(|i| strs([i])).collect();
    assert_eq!(got, want);
}

#[test]
fn score_through_a_domain_scan() {
    let mut db = docs_db();
    let sql = "SELECT id, SCORE(1) FROM docs WHERE Contains(body, 'heather', 1)";
    assert!(plan(&mut db, sql).contains("DOMAIN INDEX SCAN"));
    let mut want: Vec<Vec<String>> = (0..200i64)
        .map(|i| strs([i.to_string(), Value::Number((i % 4 + 1) as f64).to_string()]))
        .collect();
    want.sort();
    assert_eq!(bag(&mut db, sql), want);
    // SCORE alone, with the residual reading a column the select list
    // does not: the domain scan still carries `id` up to the filter.
    let sql = "SELECT SCORE(1) FROM docs WHERE Contains(body, 'heather', 1) AND id < 8";
    let got = bag(&mut db, sql);
    let mut want: Vec<Vec<String>> =
        (0..8i64).map(|i| strs([Value::Number((i % 4 + 1) as f64)])).collect();
    want.sort();
    assert_eq!(got, want);
    // Membership agrees with the functional path.
    let twin = "SELECT /*+ NO_INDEX(docs) */ id FROM docs WHERE Contains(body, 'moor17', 1)";
    assert_eq!(bag(&mut db, twin), [strs([17])]);
    assert_eq!(bag(&mut db, "SELECT id FROM docs WHERE Contains(body, 'moor17', 1)"), [strs([17])]);
}

#[test]
fn a_hash_join_key_that_is_not_projected() {
    let mut db = Database::with_cache_pages(4096);
    for t in ["ja", "jb"] {
        db.execute(&format!("CREATE TABLE {t} (id INTEGER, k INTEGER, pad VARCHAR2(20))")).unwrap();
        for i in 0..60i64 {
            let row = [i.into(), (i % 3).into(), format!("{t}{i}").into()];
            db.execute_with(&format!("INSERT INTO {t} VALUES (?, ?, ?)"), &row).unwrap();
        }
    }
    let sql = "SELECT ja.id, jb.pad FROM ja, jb WHERE ja.k = jb.k AND jb.id < 4";
    assert!(plan(&mut db, sql).contains("HASH JOIN"));
    let mut want: Vec<Vec<String>> = (0..60i64)
        .flat_map(|a| (0..4i64).filter(move |b| a % 3 == b % 3).map(move |b| (a, b)))
        .map(|(a, b)| strs([a.to_string(), format!("jb{b}")]))
        .collect();
    want.sort();
    assert_eq!(bag(&mut db, sql), want);
}

#[test]
fn insert_select_of_a_column_subset() {
    let mut db = table_db();
    db.execute("CREATE TABLE dst (a INTEGER, b VARCHAR2(40), c INTEGER)").unwrap();
    db.execute("INSERT INTO dst (c, a) SELECT id, v FROM t WHERE g = 0 AND id < 50").unwrap();
    db.execute("INSERT INTO dst SELECT id, note, g FROM t WHERE v = 1").unwrap();
    let got = bag(&mut db, "SELECT * FROM dst");
    let mut want: Vec<Vec<String>> = (0..50i64)
        .filter(|i| i % 7 == 0)
        .map(|i| strs([(N - i).to_string(), "NULL".into(), i.to_string()]))
        .chain([strs([(N - 1).to_string(), format!("n{}", N - 1), ((N - 1) % 7).to_string()])])
        .collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn an_update_reading_one_column_and_writing_another_maintains_indexes() {
    let mut db = docs_db();
    // Reads `body` through the text index, writes `id`: index maintenance
    // still sees the whole old row, so the postings are left intact.
    let update = "UPDATE docs SET id = id + 1000 WHERE Contains(body, 'heather') AND id < 5";
    db.execute(update).unwrap();
    // Reads `id`, writes `body`: the old body's postings must be removed.
    db.execute("UPDATE docs SET body = 'gorse' WHERE id = 10").unwrap();
    for term in ["heather", "gorse", "moor3", "moor10"] {
        let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}')");
        let twin = sql.replacen("SELECT", "SELECT /*+ NO_INDEX(docs) */", 1);
        assert_eq!(bag(&mut db, &sql), bag(&mut db, &twin), "{term}");
    }
    assert_eq!(bag(&mut db, "SELECT id FROM docs WHERE Contains(body, 'moor3')"), [strs([1003])]);
    assert_eq!(bag(&mut db, "SELECT id FROM docs WHERE Contains(body, 'gorse')"), [strs([10])]);

    // The same over a B-tree: write `note`, then probe the index on `g`.
    let mut db = table_db();
    db.execute("UPDATE t SET note = 'x' WHERE v <= 70").unwrap();
    let sql = "SELECT /*+ INDEX(t t_g) */ id, note FROM t WHERE g = 2";
    let twin = "SELECT /*+ NO_INDEX(t) */ id, note FROM t WHERE g = 2";
    assert!(plan(&mut db, sql).contains("BTREE ACCESS"));
    assert_eq!(bag(&mut db, sql), bag(&mut db, twin));
}

/// `key=<digits>` from the last occurrence on an EXPLAIN ANALYZE line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("{key}=");
    let at = line.rfind(&pat).unwrap_or_else(|| panic!("no {pat} in {line:?}"));
    let digits: String = line[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// A Filter fused into the scan beneath it still reports as two lines:
/// every visited row on the scan line, the survivors on the FILTER line,
/// the pages once (the filter reads none of its own), and the batches a
/// Filter pulling from the scan would have seen.
#[test]
fn explain_analyze_of_a_fused_filter_reports_the_scan_and_the_filter_apart() {
    let mut db = table_db();
    let seg = db.catalog().table("t").unwrap().seg;
    let pages = db.storage().heap(seg).unwrap().page_count() as u64;
    // `v + 0`: a term no zone map prunes, so the scan reads every page.
    let lines: Vec<String> = db
        .query("EXPLAIN ANALYZE SELECT /*+ FULL(t) */ id FROM t WHERE v + 0 <= 100")
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    let line = |prefix: &str| lines.iter().find(|l| l.trim_start().starts_with(prefix)).unwrap();
    let (filter, scan, summary) = (line("FILTER"), line("FULL SCAN"), line("statement:"));
    assert_eq!(field(scan, "actual rows"), N as u64, "{scan}");
    assert_eq!(field(filter, "actual rows"), 100, "{filter}");
    assert_eq!(field(summary, "rows"), 100);
    assert_eq!(field(scan, "gets"), pages, "{scan}");
    assert_eq!(field(filter, "gets"), pages, "{filter}");
    assert_eq!(field(&lines[0], "gets"), field(summary, "gets"), "root gets = statement delta");
    // The survivors are the last 100 rows: the first FILTER batch pulls
    // three scan batches, the second one more (empty) batch.
    let scan_batches = (N as u64).div_ceil(extidx::sql::executor::BATCH_TARGET as u64) + 1;
    assert_eq!((field(filter, "batches"), field(scan, "batches")), (2, scan_batches));
}

/// `(actual rows, batches, gets)` of each operator line of `EXPLAIN
/// ANALYZE sql` under `binds`, then the statement's `(rows, 0, gets)`.
fn analyzed(db: &mut Database, sql: &str, binds: &[Value]) -> Vec<[u64; 3]> {
    let lines = db.query_with(&format!("EXPLAIN ANALYZE {sql}"), binds).unwrap();
    let lines: Vec<String> = lines.into_iter().map(|r| r[0].to_string()).collect();
    let mut out: Vec<[u64; 3]> = lines
        .iter()
        .filter(|l| l.contains("[actual rows="))
        .map(|l| [field(l, "actual rows"), field(l, "batches"), field(l, "gets")])
        .collect();
    let summary = lines.iter().find(|l| l.trim_start().starts_with("statement:")).unwrap();
    out.push([field(summary, "rows"), 0, field(summary, "gets")]);
    out
}

/// A compiled filter term (`col relop value`, DESIGN.md §4h "Compiled
/// filter terms") reports, line for line, the rows, batches and gets of
/// its generic twin — the same term written `col + 0 relop value`, which
/// only `eval` can test: fused into a scan of several pages, with a literal
/// or a bind, and in a `FilterExec` over a join.
#[test]
fn explain_analyze_of_a_compiled_term_matches_its_generic_twin() {
    let mut db = table_db();
    let seg = db.catalog().table("t").unwrap().seg;
    let pages = db.storage().heap(seg).unwrap().page_count() as u64;
    assert!(pages >= 4, "{pages} pages");
    let batches = (N as u64).div_ceil(extidx::sql::executor::BATCH_TARGET as u64) + 1;
    // Every page holds each `g` (it cycles with the id), so no zone map
    // prunes a page and the term and its twin read every one.
    let count = "SELECT /*+ FULL(t) */ COUNT(*) FROM t WHERE g < 1";
    let got = analyzed(&mut db, count, &[]);
    // PROJECT, AGGREGATE, FILTER, FULL SCAN, statement: a seventh of the
    // rows survive, some in each scan batch, so the FILTER passes on one
    // batch per scan batch.
    assert_eq!(got[2], [(N as u64).div_ceil(7), batches, pages], "{got:?}");
    assert_eq!(got[3], [N as u64, batches, pages], "{got:?}");
    assert_eq!(got, analyzed(&mut db, &count.replace("g <", "g + 0 <"), &[]));
    assert!(plan(&mut db, count).contains("zone:Binary(Lt, Slot(1), Const(1))"));

    // The bind twin, written the other way round: `? > g` is `g < ?`.
    let bind = "SELECT /*+ FULL(t) */ COUNT(*) FROM t WHERE ? > g";
    let bound = analyzed(&mut db, bind, &[1.into()]);
    assert_eq!(bound, got);
    assert_eq!(bound, analyzed(&mut db, &bind.replace("> g", "> g + 0"), &[1.into()]));

    db.execute("CREATE TABLE u (id INTEGER, g INTEGER)").unwrap();
    for i in 0..40i64 {
        db.execute_with("INSERT INTO u VALUES (?, ?)", &[i.into(), (i % 7).into()]).unwrap();
    }
    let join = "SELECT t.g, COUNT(*) FROM t, u WHERE t.g = u.g AND t.id < 300 \
                GROUP BY t.g HAVING COUNT(*) > 250";
    let shape = plan(&mut db, join);
    assert!(shape.contains("FILTER zone:Binary(Gt, Slot(1), Const(250))"), "{shape}");
    assert!(shape.contains("JOIN"), "{shape}");
    let got = analyzed(&mut db, join, &[]);
    assert_eq!(got, analyzed(&mut db, &join.replace("COUNT(*) >", "COUNT(*) + 0 >"), &[]));
    // Groups 0–4 join 43 rows of t with 6 of u; groups 5 and 6 fewer.
    assert_eq!(bag(&mut db, join), (0..5).map(|g| strs([g, 258])).collect::<Vec<_>>());
}
