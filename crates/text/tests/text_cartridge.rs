//! End-to-end tests of the text cartridge: the paper's §1/§3.2.1 scenario
//! run verbatim through the engine.

use extidx_common::Value;
use extidx_sql::Database;
use extidx_text::legacy;

fn db_with_docs(docs: &[&str]) -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx_text::install(&mut db).unwrap();
    db.execute("CREATE TABLE employees (name VARCHAR2(128), id INTEGER, resume VARCHAR2(1024))")
        .unwrap();
    for (i, d) in docs.iter().enumerate() {
        db.execute_with(
            "INSERT INTO employees VALUES (?, ?, ?)",
            &[format!("emp{i}").into(), (i as i64).into(), (*d).into()],
        )
        .unwrap();
    }
    db
}

fn standard_docs() -> Vec<&'static str> {
    vec![
        "worked with Oracle on UNIX systems for ten years",
        "java developer with spring experience",
        "Oracle DBA on windows",
        "UNIX kernel hacker, some Oracle tuning",
        "marketing specialist",
    ]
}

#[test]
fn papers_example_end_to_end() {
    let mut db = db_with_docs(&standard_docs());
    // CREATE INDEX … INDEXTYPE IS TextIndexType PARAMETERS (…)
    db.execute(
        "CREATE INDEX ResumeTextIndex ON Employees(resume) INDEXTYPE IS TextIndexType \
         PARAMETERS (':Language English :Ignore the a an')",
    )
    .unwrap();
    let rows = db
        .query("SELECT name FROM Employees WHERE Contains(resume, 'Oracle AND UNIX') ORDER BY name")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::from("emp0"));
    assert_eq!(rows[1][0], Value::from("emp3"));
}

#[test]
fn functional_and_indexed_paths_agree() {
    let docs = standard_docs();
    // No index: functional evaluation.
    let mut plain = db_with_docs(&docs);
    let f = plain
        .query("SELECT id FROM employees WHERE Contains(resume, 'oracle AND NOT windows') ORDER BY id")
        .unwrap();
    // With index: domain scan.
    let mut indexed = db_with_docs(&docs);
    indexed
        .execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType")
        .unwrap();
    let i = indexed
        .query("SELECT id FROM employees WHERE Contains(resume, 'oracle AND NOT windows') ORDER BY id")
        .unwrap();
    assert_eq!(f, i);
    assert_eq!(f.len(), 2); // emp0, emp3
}

#[test]
fn stop_words_are_not_indexed() {
    let mut db = db_with_docs(&["the quick brown fox", "a lazy dog"]);
    db.execute(
        "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType \
         PARAMETERS (':Ignore the a an')",
    )
    .unwrap();
    let n = db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'the'").unwrap();
    assert_eq!(n[0][0], Value::Integer(0));
    let n = db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'quick'").unwrap();
    assert_eq!(n[0][0], Value::Integer(1));
}

#[test]
fn maintenance_keeps_index_in_sync() {
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("INSERT INTO employees VALUES ('new', 99, 'fresh oracle unix resume')").unwrap();
    assert_eq!(
        db.query("SELECT name FROM employees WHERE Contains(resume, 'oracle AND unix')").unwrap().len(),
        3
    );
    db.execute("UPDATE employees SET resume = 'now a manager' WHERE id = 99").unwrap();
    assert_eq!(
        db.query("SELECT name FROM employees WHERE Contains(resume, 'oracle AND unix')").unwrap().len(),
        2
    );
    db.execute("DELETE FROM employees WHERE id = 0").unwrap();
    assert_eq!(
        db.query("SELECT name FROM employees WHERE Contains(resume, 'oracle AND unix')").unwrap().len(),
        1
    );
}

#[test]
fn alter_index_rebuilds_with_merged_parameters() {
    let mut db = db_with_docs(&["cobol cobol cobol", "oracle expert"]);
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'cobol'").unwrap()[0][0],
        Value::Integer(1)
    );
    // The paper's ALTER example: ignore COBOL from now on.
    db.execute("ALTER INDEX rti PARAMETERS (':Ignore COBOL')").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'cobol'").unwrap()[0][0],
        Value::Integer(0)
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'oracle'").unwrap()[0][0],
        Value::Integer(1)
    );
}

#[test]
fn score_ancillary_operator() {
    let mut db = db_with_docs(&[
        "oracle oracle oracle database",
        "oracle once",
        "no match here",
    ]);
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let rows = db
        .query(
            "SELECT name, SCORE(1) FROM employees WHERE Contains(resume, 'oracle', 1) \
             ORDER BY SCORE(1) DESC",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::from("emp0"));
    assert_eq!(rows[0][1], Value::Number(3.0));
    assert_eq!(rows[1][1], Value::Number(1.0));
}

#[test]
fn incremental_and_precompute_modes_agree() {
    let docs = standard_docs();
    let mut pre = db_with_docs(&docs);
    pre.execute(
        "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType \
         PARAMETERS (':ScanMode PRECOMPUTE')",
    )
    .unwrap();
    let mut inc = db_with_docs(&docs);
    inc.execute(
        "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType \
         PARAMETERS (':ScanMode INCREMENTAL')",
    )
    .unwrap();
    for q in ["oracle", "oracle AND unix", "java OR marketing", "oracle AND NOT windows"] {
        let sql = format!("SELECT id FROM employees WHERE Contains(resume, '{q}') ORDER BY id");
        assert_eq!(pre.query(&sql).unwrap(), inc.query(&sql).unwrap(), "query {q}");
    }
}

#[test]
fn lob_documents_work() {
    let mut db = Database::new();
    extidx_text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body CLOB)").unwrap();
    db.execute("INSERT INTO docs VALUES (1, 'stored as a large object with oracle inside')")
        .unwrap();
    db.execute("CREATE INDEX dti ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("INSERT INTO docs VALUES (2, 'another oracle document')").unwrap();
    let rows = db.query("SELECT id FROM docs WHERE Contains(body, 'oracle') ORDER BY id").unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn legacy_two_step_matches_modern_results() {
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let mut modern = db
        .query("SELECT name FROM employees WHERE Contains(resume, 'oracle AND unix')")
        .unwrap();
    let mut old = legacy::two_step_query(&mut db, "employees", "d.name", "rti", "oracle AND unix")
        .unwrap();
    modern.sort_by(|a, b| a[0].total_cmp(&b[0]));
    old.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(modern, old);
    // Temp table is cleaned up.
    assert!(db.query("SELECT COUNT(*) FROM TEXT_RESULTS_0").is_err());
}

#[test]
fn legacy_two_step_costs_more_io() {
    // Build a larger corpus so the I/O difference is visible.
    let mut gen = extidx_text::CorpusGenerator::new(500, 1.0, 42);
    let docs = gen.corpus(300, 40);
    let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
    let mut db = db_with_docs(&refs);
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let term = gen.term(3).to_string();

    db.reset_cache_stats();
    let modern = db
        .query_with("SELECT name FROM employees WHERE Contains(resume, ?)", &[term.clone().into()])
        .unwrap();
    let modern_io = db.cache_stats();

    db.reset_cache_stats();
    let old = legacy::two_step_query(&mut db, "employees", "d.name", "rti", &term).unwrap();
    let legacy_io = db.cache_stats();

    assert_eq!(modern.len(), old.len());
    assert!(
        legacy_io.logical_reads > modern_io.logical_reads,
        "legacy {legacy_io:?} should exceed modern {modern_io:?}"
    );
}

#[test]
fn truncate_clears_text_index() {
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("TRUNCATE TABLE employees").unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM DR$RTI$I").unwrap()[0][0], Value::Integer(0));
    assert!(db.query("SELECT name FROM employees WHERE Contains(resume, 'oracle')").unwrap().is_empty());
}

#[test]
fn text_index_rolls_back_inside_transaction() {
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO employees VALUES ('temp', 77, 'transient oracle unix text')").unwrap();
    assert_eq!(
        db.query("SELECT name FROM employees WHERE Contains(resume, 'transient')").unwrap().len(),
        1
    );
    db.execute("ROLLBACK").unwrap();
    assert!(db
        .query("SELECT name FROM employees WHERE Contains(resume, 'transient')")
        .unwrap()
        .is_empty());
    assert_eq!(
        db.query("SELECT COUNT(*) FROM DR$RTI$I WHERE token = 'transient'").unwrap()[0][0],
        Value::Integer(0)
    );
}

#[test]
fn updating_a_non_indexed_column_keeps_index_consistent() {
    // ODCIIndexUpdate fires with old == new for the indexed column; the
    // cartridge must treat that as a no-op-equivalent, not corrupt state.
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let before = db.query("SELECT COUNT(*) FROM DR$RTI$I").unwrap();
    db.execute("UPDATE employees SET name = 'renamed' WHERE id = 0").unwrap();
    let after = db.query("SELECT COUNT(*) FROM DR$RTI$I").unwrap();
    assert_eq!(before, after, "posting count must not change");
    assert_eq!(
        db.query("SELECT name FROM employees WHERE Contains(resume, 'oracle AND unix')")
            .unwrap()
            .len(),
        2
    );
}

/// EXPLAIN ANALYZE smoke: the forced domain scan line carries actual
/// row/get/time counters and the summary reports the executed row count.
#[test]
fn explain_analyze_annotates_the_text_scan() {
    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let sql =
        "SELECT /*+ INDEX(employees rti) */ id FROM employees WHERE Contains(resume, 'oracle')";
    let lines: Vec<String> = db
        .query(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    let scan =
        lines.iter().find(|l| l.contains("DOMAIN INDEX SCAN")).expect("domain scan in plan");
    assert!(scan.contains("[actual rows="), "unannotated scan line: {scan}");
    assert!(scan.contains("time="), "no wall time: {scan}");
    let expected = db.query(sql).unwrap().len();
    let summary = lines.last().unwrap();
    assert!(summary.starts_with("statement:"), "{summary}");
    assert!(summary.contains(&format!("rows={expected}")), "{summary}");
}

/// A panic inside the cartridge's own maintenance code (after the
/// postings are written) is contained by the sandbox: the statement
/// fails with a `CartridgeFault`, the engine stays alive, the row is
/// rolled back everywhere, and the same insert then runs clean.
#[test]
fn panic_in_maintenance_is_contained() {
    use extidx_core::fault::FaultKind;

    let mut db = db_with_docs(&standard_docs());
    db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
    let inj = db.fault_injector().clone();
    inj.arm("text.maintenance.indexed", None, 1, FaultKind::Panic);
    let err = db
        .execute("INSERT INTO employees VALUES ('emp9', 9, 'oracle containment probe')")
        .expect_err("panicking maintenance must fail the statement");
    assert!(
        matches!(err, extidx_common::Error::CartridgeFault { .. }),
        "expected CartridgeFault, got {err}"
    );
    inj.disarm_all();

    let rows = db.query("SELECT id FROM employees WHERE Contains(resume, 'containment')").unwrap();
    assert!(rows.is_empty(), "failed statement must leave no postings: {rows:?}");

    db.execute("INSERT INTO employees VALUES ('emp9', 9, 'oracle containment probe')").unwrap();
    let rows = db.query("SELECT id FROM employees WHERE Contains(resume, 'containment')").unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(9)]]);
}

/// `ODCIIndexDelete` issues one `DELETE … WHERE token = ? AND rid = ?` per
/// token and the server runs it as a probe of the `(token, rid)` key, so
/// unindexing a document costs the same however long the token's posting
/// list is (1 000 and 10 000 postings both sit in a
/// height-2 tree; much below that the whole table is a page or two and the
/// optimizer rightly scans it).
#[test]
fn delete_cost_does_not_grow_with_the_posting_list() {
    let delete_reads = |n: usize| {
        let mut db = db_with_docs(&vec!["common"; n]);
        db.execute("CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType").unwrap();
        let rid = db.query("SELECT ROWID FROM employees WHERE id = 7").unwrap()[0][0].clone();
        let before = db.cache_stats().logical_reads;
        db.execute_with("DELETE FROM employees WHERE ROWID = ?", &[rid]).unwrap();
        let reads = db.cache_stats().logical_reads - before;
        let left = db.query("SELECT COUNT(*) FROM employees WHERE Contains(resume, 'common')");
        assert_eq!(left.unwrap()[0][0], Value::Integer(n as i64 - 1));
        reads
    };
    assert_eq!(delete_reads(1_000), delete_reads(10_000));
}
