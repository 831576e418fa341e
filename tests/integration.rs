//! Cross-crate integration tests: several cartridges coexisting in one
//! database, combined operator predicates, transactions spanning multiple
//! domain indexes, and the Fig. 1 trace across subsystems.

use extidx::spatial::{geometry_sql, Geometry, Mbr};
use extidx::sql::Database;
use extidx::vir::SignatureWorkload;
use extidx_common::Value;

fn full_db() -> Database {
    let mut db = Database::with_cache_pages(8192);
    extidx::text::install(&mut db).unwrap();
    extidx::spatial::install(&mut db).unwrap();
    extidx::vir::install(&mut db).unwrap();
    extidx::chem::install(&mut db).unwrap();
    db
}

#[test]
fn all_four_cartridges_coexist() {
    let db = full_db();
    let names = db.catalog().registry().indextype_names();
    assert_eq!(
        names,
        vec![
            "CHEMINDEXTYPE",
            "RTREEINDEXTYPE",
            "SPATIALINDEXTYPE",
            "TEXTINDEXTYPE",
            "VIRINDEXTYPE"
        ]
    );
}

#[test]
fn one_table_two_domain_indexes() {
    // A listing with both a text description and a location, indexed by
    // two different cartridges on two columns of the same table.
    let mut db = full_db();
    db.execute(
        "CREATE TABLE listings (id INTEGER, description VARCHAR2(500), area SDO_GEOMETRY)",
    )
    .unwrap();
    let spots = [
        (1, "cozy cabin with lake view and sauna", (0.0, 0.0, 10.0, 10.0)),
        (2, "downtown loft near transit", (500.0, 500.0, 510.0, 510.0)),
        (3, "lakefront estate with private dock and sauna", (5.0, 5.0, 15.0, 15.0)),
    ];
    for (id, desc, (x0, y0, x1, y1)) in spots {
        let g = Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 });
        db.execute(&format!(
            "INSERT INTO listings VALUES ({id}, '{desc}', {})",
            geometry_sql(&g)
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX l_text ON listings(description) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE INDEX l_geo ON listings(area) INDEXTYPE IS SpatialIndexType").unwrap();

    // Both operators in one WHERE clause: one is evaluated via its domain
    // index, the other functionally — either way results must agree.
    let window = geometry_sql(&Geometry::Rect(Mbr { xmin: 0.0, ymin: 0.0, xmax: 20.0, ymax: 20.0 }));
    let rows = db
        .query(&format!(
            "SELECT id FROM listings WHERE Contains(description, 'sauna') \
             AND Sdo_Relate(area, {window}, 'mask=ANYINTERACT') ORDER BY id"
        ))
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)], vec![Value::Integer(3)]]);
}

#[test]
fn transaction_spans_multiple_domain_indexes() {
    let mut db = full_db();
    db.execute("CREATE TABLE listings (id INTEGER, description VARCHAR2(200), area SDO_GEOMETRY)")
        .unwrap();
    db.execute("CREATE INDEX l_text ON listings(description) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE INDEX l_geo ON listings(area) INDEXTYPE IS SpatialIndexType").unwrap();
    let g = geometry_sql(&Geometry::Rect(Mbr { xmin: 1.0, ymin: 1.0, xmax: 2.0, ymax: 2.0 }));

    db.execute("BEGIN").unwrap();
    db.execute(&format!("INSERT INTO listings VALUES (1, 'transient sauna', {g})")).unwrap();
    assert_eq!(db.query("SELECT id FROM listings WHERE Contains(description, 'sauna')").unwrap().len(), 1);
    db.execute("ROLLBACK").unwrap();

    // Both cartridges' index tables rolled back with the base table.
    assert!(db.query("SELECT id FROM listings WHERE Contains(description, 'sauna')").unwrap().is_empty());
    assert_eq!(db.query("SELECT COUNT(*) FROM DR$L_TEXT$I").unwrap()[0][0], Value::Integer(0));
    assert_eq!(db.query("SELECT COUNT(*) FROM DR$L_GEO$T").unwrap()[0][0], Value::Integer(0));
}

#[test]
fn drop_table_cascades_through_cartridges() {
    let mut db = full_db();
    db.execute("CREATE TABLE listings (id INTEGER, description VARCHAR2(200))").unwrap();
    db.execute("INSERT INTO listings VALUES (1, 'hello world')").unwrap();
    db.execute("CREATE INDEX l_text ON listings(description) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("DROP TABLE listings").unwrap();
    assert!(db.query("SELECT COUNT(*) FROM DR$L_TEXT$I").is_err(), "index storage dropped");
    assert!(db.catalog().domain_index("L_TEXT").is_none());
}

#[test]
fn trace_covers_every_framework_surface() {
    let mut db = full_db();
    db.trace().set_enabled(true);
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    db.execute("INSERT INTO docs VALUES (1, 'alpha beta')").unwrap();
    for i in 10..300 {
        db.execute_with(
            "INSERT INTO docs VALUES (?, ?)",
            &[i64::from(i).into(), format!("filler document {i}").into()],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("INSERT INTO docs VALUES (2, 'beta gamma')").unwrap();
    db.execute("UPDATE docs SET body = 'alpha gamma' WHERE id = 2").unwrap();
    db.execute("DELETE FROM docs WHERE id = 1").unwrap();
    db.execute("ANALYZE TABLE docs").unwrap();
    db.query("SELECT id FROM docs WHERE Contains(body, 'gamma')").unwrap();
    db.execute("ALTER INDEX dt PARAMETERS (':Ignore zzz')").unwrap();
    db.execute("TRUNCATE TABLE docs").unwrap();
    db.execute("DROP INDEX dt").unwrap();

    let seq = db.trace().routine_sequence();
    for routine in [
        "ODCIIndexCreate",
        "ODCIIndexInsert",
        "ODCIIndexUpdate",
        "ODCIIndexDelete",
        "ODCIStatsCollect",
        "ODCIStatsSelectivity",
        "ODCIStatsIndexCost",
        "ODCIIndexStart",
        "ODCIIndexFetch",
        "ODCIIndexClose",
        "ODCIIndexAlter",
        "ODCIIndexTruncate",
        "ODCIIndexDrop",
    ] {
        assert!(seq.contains(&routine), "missing {routine} in {seq:?}");
    }
}

#[test]
fn similarity_and_text_across_cartridges() {
    let mut db = full_db();
    db.execute("CREATE TABLE assets (id INTEGER, caption VARCHAR2(200), img VIR_IMAGE)").unwrap();
    let mut wl = SignatureWorkload::new(12);
    let base = wl.random();
    for (id, caption, sig) in [
        (1, "sunset over mountains", wl.near_duplicate(&base, 0.3)),
        (2, "city skyline at night", wl.random()),
        (3, "mountains in morning fog", wl.near_duplicate(&base, 0.4)),
    ] {
        db.execute_with(
            "INSERT INTO assets VALUES (?, ?, VIR_IMAGE(?))",
            &[i64::from(id).into(), caption.into(), sig.serialize().into()],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX a_text ON assets(caption) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("CREATE INDEX a_img ON assets(img) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id FROM assets WHERE Contains(caption, 'mountains') \
             AND VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 2.0) ORDER BY id",
            &[base.serialize().into()],
        )
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(1)], vec![Value::Integer(3)]]);
}

#[test]
fn statement_failure_rolls_back_cartridge_side_effects() {
    let mut db = full_db();
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(200))").unwrap();
    db.execute("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType").unwrap();
    db.execute("INSERT INTO docs VALUES (1, 'good row')").unwrap();
    // Multi-row insert whose second row fails type checking: the whole
    // statement — including the first row's index maintenance — unwinds.
    let err = db.execute("INSERT INTO docs VALUES (2, 'second row'), ('oops', 3)");
    assert!(err.is_err());
    assert_eq!(db.query("SELECT COUNT(*) FROM docs").unwrap()[0][0], Value::Integer(1));
    assert!(db.query("SELECT id FROM docs WHERE Contains(body, 'second')").unwrap().is_empty());
}
