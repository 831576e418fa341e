//! End-to-end tests of the spatial cartridge: the §3.2.2 roads/parks
//! scenario, two-phase evaluation, spatial joins, and the legacy baseline.

use extidx_common::Value;
use extidx_spatial::{geometry_sql, legacy, Geometry, Mask, Mbr, SpatialWorkload};
use extidx_sql::Database;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
    Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 })
}

fn spatial_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx_spatial::install(&mut db).unwrap();
    db
}

fn load_layer(db: &mut Database, table: &str, geoms: &[Geometry]) {
    db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)")).unwrap();
    for (i, g) in geoms.iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO {table} VALUES ({}, {})",
            i,
            geometry_sql(g)
        ))
        .unwrap();
    }
}

#[test]
fn single_layer_window_query() {
    let mut db = spatial_db();
    let geoms = vec![
        rect(0.0, 0.0, 10.0, 10.0),
        rect(100.0, 100.0, 110.0, 110.0),
        rect(5.0, 5.0, 15.0, 15.0),
        rect(500.0, 500.0, 510.0, 510.0),
    ];
    load_layer(&mut db, "parcels", &geoms);
    db.execute("CREATE INDEX parcel_sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType")
        .unwrap();
    let window = geometry_sql(&rect(0.0, 0.0, 20.0, 20.0));
    let rows = db
        .query(&format!(
            "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT') \
             ORDER BY gid"
        ))
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(0)], vec![Value::Integer(2)]]);
}

#[test]
fn functional_and_indexed_agree() {
    let mut wl = SpatialWorkload::new(1024.0, 11);
    let geoms: Vec<Geometry> = (0..60).map(|_| wl.rect(5.0, 40.0)).collect();
    let window = wl.rect(100.0, 300.0);
    let window_sql = geometry_sql(&window);

    let mut plain = spatial_db();
    load_layer(&mut plain, "parcels", &geoms);
    let f = plain
        .query(&format!(
            "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window_sql}, 'mask=ANYINTERACT') ORDER BY gid"
        ))
        .unwrap();

    let mut indexed = spatial_db();
    load_layer(&mut indexed, "parcels", &geoms);
    indexed
        .execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType")
        .unwrap();
    let i = indexed
        .query(&format!(
            "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window_sql}, 'mask=ANYINTERACT') ORDER BY gid"
        ))
        .unwrap();
    assert_eq!(f, i);
    assert!(!f.is_empty(), "window should hit something");
}

#[test]
fn papers_roads_parks_overlap_join() {
    let mut db = spatial_db();
    let roads = vec![
        rect(0.0, 0.0, 100.0, 5.0),   // road 0: horizontal strip
        rect(200.0, 0.0, 205.0, 100.0), // road 1: vertical strip
    ];
    let parks = vec![
        rect(50.0, 0.0, 80.0, 50.0), // park 0 overlaps road 0
        rect(300.0, 300.0, 350.0, 350.0), // park 1 overlaps nothing
    ];
    load_layer(&mut db, "roads", &roads);
    load_layer(&mut db, "parks", &parks);
    db.execute("CREATE INDEX roads_sidx ON roads(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType").unwrap();

    // The paper's modern query: one operator, no exposed index tables.
    let rows = db
        .query(
            "SELECT r.gid, p.gid FROM roads r, parks p \
             WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')",
        )
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(0), Value::Integer(0)]]);

    // The plan pushes the operator into a domain join.
    let plan = db
        .explain(
            "SELECT r.gid, p.gid FROM roads r, parks p \
             WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')",
        )
        .unwrap()
        .join("\n");
    assert!(plan.contains("DOMAIN JOIN"), "{plan}");
}

#[test]
fn legacy_join_matches_modern_query() {
    let mut wl = SpatialWorkload::new(512.0, 21);
    let roads: Vec<Geometry> = (0..40).map(|_| wl.rect(10.0, 60.0)).collect();
    let parks: Vec<Geometry> = (0..40).map(|_| wl.rect(10.0, 60.0)).collect();
    let mut db = spatial_db();
    load_layer(&mut db, "roads", &roads);
    load_layer(&mut db, "parks", &parks);
    db.execute("CREATE INDEX roads_sidx ON roads(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS SpatialIndexType").unwrap();

    let mut modern: Vec<(i64, i64)> = db
        .query(
            "SELECT r.gid, p.gid FROM roads r, parks p \
             WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')",
        )
        .unwrap()
        .into_iter()
        .map(|r| (r[0].as_integer().unwrap(), r[1].as_integer().unwrap()))
        .collect();
    let mut old: Vec<(i64, i64)> = legacy::legacy_relate_join(
        &mut db, "roads", "gid", "roads_sidx", "parks", "gid", "parks_sidx", Mask::Overlaps,
    )
    .unwrap()
    .into_iter()
    .map(|(a, b)| (a.as_integer().unwrap(), b.as_integer().unwrap()))
    .collect();
    modern.sort_unstable();
    old.sort_unstable();
    assert_eq!(modern, old);
    assert!(!modern.is_empty(), "workload should produce overlaps");
}

#[test]
fn index_maintenance_on_dml() {
    let mut db = spatial_db();
    load_layer(&mut db, "parcels", &[rect(0.0, 0.0, 10.0, 10.0)]);
    db.execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let window = geometry_sql(&rect(0.0, 0.0, 50.0, 50.0));
    let q = format!(
        "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')"
    );
    assert_eq!(db.query(&q).unwrap().len(), 1);
    // Insert inside the window.
    db.execute(&format!("INSERT INTO parcels VALUES (7, {})", geometry_sql(&rect(20.0, 20.0, 30.0, 30.0))))
        .unwrap();
    assert_eq!(db.query(&q).unwrap().len(), 2);
    // Move parcel 7 away.
    db.execute(&format!(
        "UPDATE parcels SET geometry = {} WHERE gid = 7",
        geometry_sql(&rect(900.0, 900.0, 910.0, 910.0))
    ))
    .unwrap();
    assert_eq!(db.query(&q).unwrap().len(), 1);
    // Delete the original parcel.
    db.execute("DELETE FROM parcels WHERE gid = 0").unwrap();
    assert_eq!(db.query(&q).unwrap().len(), 0);
}

#[test]
fn masks_distinguish_relations() {
    let mut db = spatial_db();
    let geoms = vec![
        rect(0.0, 0.0, 100.0, 100.0), // 0: big parcel
        rect(10.0, 10.0, 20.0, 20.0), // 1: inside 0
        rect(90.0, 90.0, 150.0, 150.0), // 2: overlaps 0
    ];
    load_layer(&mut db, "parcels", &geoms);
    db.execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let big = geometry_sql(&geoms[0]);
    let inside = db
        .query(&format!("SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {big}, 'mask=INSIDE')"))
        .unwrap();
    assert_eq!(inside, vec![vec![Value::Integer(1)]]);
    let overlaps = db
        .query(&format!("SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {big}, 'mask=OVERLAPS')"))
        .unwrap();
    assert_eq!(overlaps, vec![vec![Value::Integer(2)]]);
    let equal = db
        .query(&format!("SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {big}, 'mask=EQUAL')"))
        .unwrap();
    assert_eq!(equal, vec![vec![Value::Integer(0)]]);
}

#[test]
fn tessellation_parameters_respected() {
    let mut db = spatial_db();
    load_layer(&mut db, "parcels", &[rect(0.0, 0.0, 10.0, 10.0)]);
    db.execute(
        "CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType \
         PARAMETERS (':World 256 :Level 3')",
    )
    .unwrap();
    // 256/8 = 32-unit tiles; a 10x10 rect at origin hits exactly 1 tile.
    let n = db.query("SELECT COUNT(*) FROM DR$SIDX$T").unwrap();
    assert_eq!(n[0][0], Value::Integer(1));
    // ALTER to a finer tessellation → rebuild with more tiles.
    db.execute("ALTER INDEX sidx PARAMETERS (':Level 6')").unwrap();
    // 256/64 = 4-unit tiles; 10x10 at origin spans 3x3 = 9 tiles.
    let n = db.query("SELECT COUNT(*) FROM DR$SIDX$T").unwrap();
    assert_eq!(n[0][0], Value::Integer(9));
}

#[test]
fn polygons_in_the_index() {
    let mut db = spatial_db();
    let tri = Geometry::Polygon(vec![(10.0, 10.0), (60.0, 10.0), (35.0, 60.0)]);
    load_layer(&mut db, "zones", &[tri.clone(), rect(500.0, 500.0, 600.0, 600.0)]);
    db.execute("CREATE INDEX zidx ON zones(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let probe = geometry_sql(&Geometry::Point { x: 35.0, y: 20.0 });
    let rows = db
        .query(&format!("SELECT gid FROM zones WHERE Sdo_Relate(geometry, {probe}, 'mask=CONTAINS')"))
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(0)]]);
}

#[test]
fn drop_index_removes_storage_tables() {
    let mut db = spatial_db();
    load_layer(&mut db, "parcels", &[rect(0.0, 0.0, 10.0, 10.0)]);
    db.execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    assert!(db.query("SELECT COUNT(*) FROM DR$SIDX$T").is_ok());
    db.execute("DROP INDEX sidx").unwrap();
    assert!(db.query("SELECT COUNT(*) FROM DR$SIDX$T").is_err());
    assert!(db.query("SELECT COUNT(*) FROM DR$SIDX$G").is_err());
}

/// EXPLAIN ANALYZE smoke: the tile-index window scan is annotated with
/// actual counters and the summary reports the executed row count.
#[test]
fn explain_analyze_annotates_the_spatial_scan() {
    let mut wl = SpatialWorkload::new(1024.0, 19);
    let geoms: Vec<Geometry> = (0..60).map(|_| wl.rect(5.0, 40.0)).collect();
    let mut db = spatial_db();
    load_layer(&mut db, "parcels", &geoms);
    db.execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let window = geometry_sql(&wl.rect(100.0, 300.0));
    let sql = format!(
        "SELECT /*+ INDEX(parcels sidx) */ gid FROM parcels \
         WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')"
    );
    let lines: Vec<String> = db
        .query(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    let scan =
        lines.iter().find(|l| l.contains("DOMAIN INDEX SCAN")).expect("domain scan in plan");
    assert!(scan.contains("[actual rows="), "unannotated scan line: {scan}");
    let expected = db.query(&sql).unwrap().len();
    let summary = lines.last().unwrap();
    assert!(summary.contains(&format!("rows={expected}")), "{summary}");
}

/// A panic in the tile indextype's maintenance path is contained by the
/// sandbox: clean statement failure, engine alive, index consistent.
#[test]
fn panic_in_maintenance_is_contained() {
    use extidx_core::fault::FaultKind;

    let mut db = spatial_db();
    load_layer(&mut db, "parcels", &[rect(0.0, 0.0, 10.0, 10.0), rect(50.0, 50.0, 60.0, 60.0)]);
    db.execute("CREATE INDEX sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType").unwrap();
    let inj = db.fault_injector().clone();
    inj.arm("spatial.maintenance.indexed", None, 1, FaultKind::Panic);
    let g = geometry_sql(&rect(2.0, 2.0, 4.0, 4.0));
    let err = db
        .execute(&format!("INSERT INTO parcels VALUES (9, {g})"))
        .expect_err("panicking maintenance must fail the statement");
    assert!(
        matches!(err, extidx_common::Error::CartridgeFault { .. }),
        "expected CartridgeFault, got {err}"
    );
    inj.disarm_all();

    let window = geometry_sql(&rect(0.0, 0.0, 20.0, 20.0));
    let probe =
        format!("SELECT gid FROM parcels WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')");
    let rows = db.query(&probe).unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(0)]], "failed insert must leave no index entries");

    db.execute(&format!("INSERT INTO parcels VALUES (9, {g})")).unwrap();
    let mut gids: Vec<i64> =
        db.query(&probe).unwrap().iter().map(|r| r[0].as_integer().unwrap()).collect();
    gids.sort_unstable();
    assert_eq!(gids, vec![0, 9]);
}

/// Tile maintenance issues one `DELETE … WHERE tile = ? AND rid = ?` per
/// covered tile and the server runs it as a probe of the `(tile, rid)`
/// key, so unindexing a geometry costs the same however many geometries
/// share its tile (1 000 and 10 000 entries both sit in a
/// height-2 tree; much below that the whole table is a page or two and the
/// optimizer rightly scans it).
#[test]
fn delete_cost_does_not_grow_with_the_tile_population() {
    let delete_reads = |n: usize| {
        let mut db = spatial_db();
        load_layer(&mut db, "parcels", &vec![rect(1.0, 1.0, 2.0, 2.0); n]);
        db.execute("CREATE INDEX parcel_sidx ON parcels(geometry) INDEXTYPE IS SpatialIndexType")
            .unwrap();
        let rid = db.query("SELECT ROWID FROM parcels WHERE gid = 7").unwrap()[0][0].clone();
        let before = db.cache_stats().logical_reads;
        db.execute_with("DELETE FROM parcels WHERE ROWID = ?", &[rid]).unwrap();
        let reads = db.cache_stats().logical_reads - before;
        let window = geometry_sql(&rect(0.0, 0.0, 3.0, 3.0));
        let left = db.query(&format!(
            "SELECT COUNT(*) FROM parcels WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')"
        ));
        assert_eq!(left.unwrap()[0][0], Value::Integer(n as i64 - 1));
        reads
    };
    assert_eq!(delete_reads(1_000), delete_reads(10_000));
}
