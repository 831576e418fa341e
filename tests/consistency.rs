//! Chaos consistency: a seeded random workload of DML, transactions, and
//! queries over domain-indexed tables, continuously checking that the
//! index-based answers equal a functional reference computed from the
//! base table. This is the "indexes never drift from the base table"
//! invariant §2.4.1's implicit maintenance promises.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use extidx::sql::Database;
use extidx::text::query::parse_query;
use extidx::text::tokenizer::{tokenize, StopWords};
use extidx_qgen::fresh_db;
use extidx_qgen::spec::rigs;

const VOCAB: [&str; 8] = ["ale", "brix", "cole", "dun", "erg", "fyn", "gorse", "hale"];

fn random_doc(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..8);
    (0..n).map(|_| VOCAB[rng.gen_range(0..VOCAB.len())]).collect::<Vec<_>>().join(" ")
}

fn reference_matches(db: &mut Database, query: &str) -> Vec<i64> {
    let q = parse_query(query).unwrap();
    let rows = db.query("SELECT id, body FROM docs").unwrap();
    let mut ids: Vec<i64> = rows
        .iter()
        .filter(|r| {
            !r[1].is_null() && q.matches(&tokenize(r[1].as_str().unwrap(), &StopWords::none()))
        })
        .map(|r| r[0].as_integer().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Every rig (one per indextype and chem store, `extidx_qgen::spec`) under
/// 400 seeded single-row INSERT / UPDATE / DELETE statements — random keys,
/// values drawn by the column's operator spec — a tenth of the steps
/// opening a transaction or ending the open one by COMMIT or ROLLBACK.
/// Every seventh step a random operator probe forced through the domain
/// index answers the rows the spec's mirror answers; at the end the text
/// index holds exactly the postings its base table implies.
#[test]
fn random_workload_never_desynchronizes_the_index() {
    let mut rng = StdRng::seed_from_u64(20_260_704);
    for rig in rigs() {
        let mut db = fresh_db();
        rig.load(&mut db);
        let mut stream = rig.stream(rng.gen());
        for step in 0..400 {
            if rng.gen_range(0..10) == 0 {
                stream.toggle_transaction(&mut db, rng.gen_bool(0.5)).unwrap();
            } else {
                stream.execute(&mut db).unwrap();
            }
            if step % 7 == 0 {
                stream.check(&mut db).unwrap_or_else(|e| panic!("{}: step {step}: {e}", rig.name));
            }
        }
        if rig.name == "text" {
            let base = db.query("SELECT body FROM docs WHERE body IS NOT NULL").unwrap();
            let none = StopWords::none();
            let postings = base.iter().map(|r| tokenize(r[0].as_str().unwrap(), &none).len());
            let actual = db.query("SELECT COUNT(*) FROM DR$DT$I").unwrap()[0][0].as_integer();
            assert_eq!(actual.unwrap() as usize, postings.sum::<usize>());
        }
    }
}

/// Docs `0..300` of seeded random words under a text index, and a
/// watchlist holding the `terms` rows, traced.
fn docs_and_watchlist(terms: &str) -> Database {
    let mut db = Database::with_cache_pages(8192);
    extidx::text::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(400))").unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..300i64 {
        let body = random_doc(&mut rng);
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[i.into(), body.into()]).unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE TABLE watchlist (term VARCHAR2(20))").unwrap();
    db.execute(&format!("INSERT INTO watchlist VALUES {terms}")).unwrap();
    db.trace().set_enabled(true);
    db
}

#[test]
fn text_operator_as_indexed_join_condition() {
    // §2.3: "A user-defined operator can also be a join condition." A
    // keyword table joined against the document corpus through Contains,
    // evaluated via a parameterized domain-index scan per keyword row.
    let mut db = docs_and_watchlist("('ale'), ('gorse')");

    let sql = "SELECT w.term, d.id FROM watchlist w, docs d WHERE Contains(d.body, w.term)";
    let plan = db.explain(sql).unwrap().join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "{plan}");
    let mut got: Vec<(String, i64)> = db
        .query(sql)
        .unwrap()
        .iter()
        .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_integer().unwrap()))
        .collect();
    got.sort();

    let mut expected = Vec::new();
    for term in ["ale", "gorse"] {
        for id in reference_matches(&mut db, term) {
            expected.push((term.to_string(), id));
        }
    }
    expected.sort();
    assert_eq!(got, expected);
    assert!(!got.is_empty());
}

/// `sql`'s rows, each rendered, sorted: a bag to compare.
fn bag(db: &mut Database, sql: &str) -> Vec<String> {
    let rows = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// `sql` with `hint` in its first SELECT.
fn hinted(sql: &str, hint: &str) -> String {
    sql.replacen("SELECT", &format!("SELECT /*+ {hint} */"), 1)
}

/// `ODCIIndexStart` and `ODCIIndexClose` calls traced since the last clear.
fn starts_and_closes(db: &Database) -> (u64, u64) {
    let (mut starts, mut closes) = (0, 0);
    for (_, routine, s) in db.trace().aggregates() {
        match routine {
            "ODCIIndexStart" => starts += s.calls,
            "ODCIIndexClose" => closes += s.calls,
            _ => {}
        }
    }
    (starts, closes)
}

/// The argument rows the `ODCIIndexStart`s traced since the last clear
/// were given: each Start's detail ends `rows=<n>`.
fn started_rows(db: &Database) -> u64 {
    let starts = db.trace().events().into_iter().filter(|e| e.routine == "ODCIIndexStart");
    starts
        .map(|e| {
            let n = e.detail.rsplit("rows=").next().and_then(|n| n.parse::<u64>().ok());
            n.unwrap_or_else(|| panic!("Start detail {:?} names no rows", e.detail))
        })
        .sum()
}

/// Run `sql` as a domain join, and its `NO_INDEX` twin: the answers must be
/// bag-equal and the join's Start/Close balanced. Returns the join's
/// `ODCIIndexStart` count and the argument rows those Starts were given.
fn join_matches_functional_twin(db: &mut Database, sql: &str) -> (u64, u64) {
    let plan = db.explain(sql).unwrap().join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "{sql} must plan a domain join:\n{plan}");
    let expect = bag(db, &hinted(sql, "NO_INDEX"));
    db.trace().clear();
    assert_eq!(bag(db, sql), expect, "{sql}: indexed join != NO_INDEX twin");
    let (starts, closes) = starts_and_closes(db);
    assert_eq!(starts, closes, "{sql}: {starts} ODCIIndexStart vs {closes} ODCIIndexClose");
    (starts, started_rows(db))
}

/// Roads `0..n` (`nulls` of them with a NULL geometry) and parks `0..n`,
/// each road a strip crossing its park; parks indexed by `indextype`.
fn roads_and_parks(indextype: &str, n: i64, nulls: &[i64]) -> Database {
    use extidx::spatial::{geometry_sql, Geometry, Mbr};

    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    for table in ["roads", "parks"] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    }
    let rect = |xmin: f64, ymin: f64, xmax: f64, ymax: f64| {
        geometry_sql(&Geometry::Rect(Mbr { xmin, ymin, xmax, ymax }))
    };
    for i in 0..n {
        let o = i as f64 * 30.0;
        let road =
            if nulls.contains(&i) { "NULL".to_string() } else { rect(o, 0.0, o + 40.0, 10.0) };
        db.execute(&format!("INSERT INTO roads VALUES ({i}, {road})")).unwrap();
        let park = rect(o + 5.0, 0.0, o + 20.0, 50.0);
        db.execute(&format!("INSERT INTO parks VALUES ({i}, {park})")).unwrap();
    }
    db.execute(&format!("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS {indextype}"))
        .unwrap();
    db.trace().set_enabled(true);
    db
}

#[test]
fn a_null_outer_argument_empties_its_domain_join_pass() {
    // A NULL operand makes the operator NULL for every row, so the pass of
    // an outer row with a NULL argument holds nothing and the cartridge is
    // never asked — as for a single-table scan under a NULL bind.
    let mut db = roads_and_parks("SpatialIndexType", 12, &[9]);
    let only_null = "SELECT r.gid, p.gid FROM roads r, parks p \
                     WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT') AND r.gid = 9";
    assert_eq!(join_matches_functional_twin(&mut db, only_null), (0, 0), "Start for the NULL road");
    assert!(bag(&mut db, only_null).is_empty());
    let all = "SELECT r.gid, p.gid FROM roads r, parks p \
               WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT') AND r.gid < 11";
    assert_eq!(
        join_matches_functional_twin(&mut db, all),
        (1, 10),
        "one Start for the outer batch, given the 10 non-NULL roads"
    );
    assert!(!bag(&mut db, all).is_empty());

    // The text join: a NULL watchlist term matches nothing.
    let mut db = docs_and_watchlist("('ale'), (NULL), ('gorse')");
    let sql = "SELECT w.term, d.id FROM watchlist w, docs d WHERE Contains(d.body, w.term)";
    assert_eq!(join_matches_functional_twin(&mut db, sql), (1, 2), "Start given the NULL term");
    assert!(!bag(&mut db, sql).is_empty());
}

#[test]
fn no_index_and_full_hints_bind_a_domain_join() {
    let mut db = roads_and_parks("SpatialIndexType", 12, &[]);
    let sql = "SELECT r.gid, p.gid FROM roads r, parks p \
               WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=OVERLAPS') AND r.gid < 11";
    let unhinted = bag(&mut db, sql);
    assert!(!unhinted.is_empty());
    for hint in ["NO_INDEX(p)", "FULL(p)", "NO_INDEX", "FULL"] {
        let sql = hinted(sql, hint);
        let plan = db.explain(&sql).unwrap().join("\n");
        assert!(!plan.contains("DOMAIN JOIN"), "{hint} must suppress the domain join:\n{plan}");
        assert!(plan.contains("FUNCTIONAL FALLBACK"), "{hint}:\n{plan}");
        assert_eq!(bag(&mut db, &sql), unhinted, "{hint} changed the answer");
    }
    // A hint on the outer table leaves the inner table's index alone.
    let plan = db.explain(&hinted(sql, "NO_INDEX(r)")).unwrap().join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "{plan}");
    // Forcing an index that only a join predicate can use stays an error:
    // the inner table's own access has no predicate for it.
    assert!(db.query(&hinted(sql, "INDEX(p parks_sidx)")).is_err());
}

/// Two parcels, 1 = (10, 10, 20, 20) inside 2 = (0, 0, 100, 100), indexed
/// by `indextype`; and one window (5, 5, 50, 50), which lies inside parcel
/// 2 and contains parcel 1.
fn parcels_and_a_window(indextype: &str) -> Database {
    use extidx::spatial::{geometry_sql, Geometry, Mbr};

    let rect = |xmin: f64, ymin: f64, xmax: f64, ymax: f64| {
        geometry_sql(&Geometry::Rect(Mbr { xmin, ymin, xmax, ymax }))
    };
    let mut db = Database::with_cache_pages(4096);
    extidx::spatial::install(&mut db).unwrap();
    db.execute("CREATE TABLE parcels (id INTEGER, geometry SDO_GEOMETRY)").unwrap();
    for (id, parcel) in [(1, rect(10.0, 10.0, 20.0, 20.0)), (2, rect(0.0, 0.0, 100.0, 100.0))] {
        db.execute(&format!("INSERT INTO parcels VALUES ({id}, {parcel})")).unwrap();
    }
    let index = format!("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS {indextype}");
    db.execute(&index).unwrap();
    db.execute("CREATE TABLE windows (wid INTEGER, geometry SDO_GEOMETRY)").unwrap();
    db.execute(&format!("INSERT INTO windows VALUES (7, {})", rect(5.0, 5.0, 50.0, 50.0))).unwrap();
    db.trace().set_enabled(true);
    db
}

/// `sql`'s integer rows, sorted.
fn int_rows(db: &mut Database, sql: &str) -> Vec<Vec<i64>> {
    let rows = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows: Vec<Vec<i64>> =
        rows.iter().map(|r| r.iter().map(|v| v.as_integer().unwrap()).collect()).collect();
    rows.sort();
    rows
}

#[test]
fn an_indexed_column_second_keeps_the_masks_direction_in_a_scan() {
    // `Sdo_Relate(:window, geometry, 'mask=INSIDE')` asks whether the
    // window lies inside the parcel: parcel 2 only. A cartridge that
    // assumed the column first answered parcel 1.
    for indextype in ["SpatialIndexType", "RtreeIndexType"] {
        let mut db = parcels_and_a_window(indextype);
        let window = "SDO_GEOMETRY(2, VARRAY(5, 5, 50, 50))";
        for (mask, want) in [("INSIDE", 2), ("CONTAINS", 1)] {
            let sql = format!(
                "SELECT /*+ INDEX(parcels sidx) */ id FROM parcels \
                 WHERE Sdo_Relate({window}, geometry, 'mask={mask}')"
            );
            let plan = db.explain(&sql).unwrap().join("\n");
            assert!(plan.contains("DOMAIN INDEX SCAN"), "{indextype}: {plan}");
            let functional = sql.replace("INDEX(parcels sidx)", "NO_INDEX");
            assert_eq!(int_rows(&mut db, &functional), [[want]], "{indextype}, {mask}: NO_INDEX");
            assert_eq!(int_rows(&mut db, &sql), [[want]], "{indextype}, {mask}: via the index");
        }
    }
}

#[test]
fn an_indexed_column_second_keeps_the_masks_direction_in_a_join() {
    for indextype in ["SpatialIndexType", "RtreeIndexType"] {
        let mut db = parcels_and_a_window(indextype);
        for (mask, want) in [("INSIDE", 2), ("CONTAINS", 1)] {
            let sql = format!(
                "SELECT w.wid, p.id FROM windows w, parcels p \
                 WHERE Sdo_Relate(w.geometry, p.geometry, 'mask={mask}')"
            );
            assert_eq!(join_matches_functional_twin(&mut db, &sql), (1, 1), "{indextype}");
            assert_eq!(int_rows(&mut db, &sql), [[7, want]], "{indextype}, {mask}");
        }
    }
}

/// A table of each first-argument indextype — text, VIR, chem — with
/// one indexed row: `(table, index, column)` of each, and a predicate with
/// the indexed column second.
fn first_argument_tables() -> (Database, Vec<(&'static str, &'static str, String)>) {
    let mut db = Database::with_cache_pages(4096);
    extidx::text::install(&mut db).unwrap();
    extidx::vir::install(&mut db).unwrap();
    extidx::chem::install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    db.execute("INSERT INTO docs VALUES (1, 'gorse stand')").unwrap();
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE TABLE mols (id INTEGER, mol VARCHAR2(64))").unwrap();
    db.execute("INSERT INTO mols VALUES (1, 'CCO')").unwrap();
    db.execute("CREATE INDEX mi ON mols(mol) INDEXTYPE IS ChemIndexType").unwrap();
    let sig = extidx::vir::SignatureWorkload::new(3).random().serialize();
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
    db.execute(&format!("INSERT INTO images VALUES (1, VIR_IMAGE('{sig}'))")).unwrap();
    db.execute("CREATE INDEX vi ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let weights = "globalcolor=0.5, localcolor=0.0, texture=0.5, structure=0.0";
    let vir = format!("VirSimilar(VIR_IMAGE('{sig}'), img, '{weights}', 10)");
    let tables = vec![
        ("docs", "dt", "Contains('gorse', body)".to_string()),
        ("mols", "mi", "MolContains('CO', mol)".to_string()),
        ("images", "vi", vir),
    ];
    (db, tables)
}

#[test]
fn text_vir_and_chem_refuse_an_indexed_column_second() {
    // Their operators read the indexed column as the first argument, and
    // their indextypes declare that position only: with the column second
    // the optimizer refuses to force the index rather than have the
    // cartridge answer the operator with its operands swapped.
    let (mut db, tables) = first_argument_tables();
    for (table, index, pred) in tables {
        let sql = format!("SELECT /*+ INDEX({table} {index}) */ id FROM {table} WHERE {pred}");
        let err = db.query(&sql).expect_err(&sql).to_string();
        assert!(err.contains("no predicate can use it"), "{sql}: {err}");
    }
}

#[test]
fn an_unhinted_query_uses_an_index_only_at_a_declared_argument_position() {
    // Unhinted, a scan and a join over an index whose indextype takes the
    // column first plan the functional twin when the column stands
    // second, and answer what NO_INDEX answers. (VirSimilar has no
    // functional binding with the image second, so no twin to answer.)
    let (mut db, tables) = first_argument_tables();
    db.execute("CREATE TABLE frags (fid INTEGER, frag VARCHAR2(64))").unwrap();
    db.execute("INSERT INTO frags VALUES (7, 'CCOC')").unwrap();
    let join = "SELECT f.fid, m.id FROM frags f, mols m WHERE MolContains(f.frag, m.mol)";
    let scans = tables.iter().filter(|(table, ..)| *table != "images");
    let scans = scans.map(|(table, _, pred)| format!("SELECT id FROM {table} WHERE {pred}"));
    for sql in scans.chain([join.to_string()]) {
        let plan = db.explain(&sql).unwrap().join("\n");
        assert!(!plan.contains("DOMAIN"), "{sql} must not plan a domain index:\n{plan}");
        let expect = bag(&mut db, &hinted(&sql, "NO_INDEX"));
        assert_eq!(bag(&mut db, &sql), expect, "{sql}");
    }
    assert_eq!(int_rows(&mut db, join), [[7, 1]], "CCOC contains CCO");
}
