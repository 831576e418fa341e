//! Parallel-build determinism: a `PARALLEL <n>` index build must produce
//! **byte-identical** index contents to a serial build, for every
//! cartridge. The partition→merge pipeline keeps all server callbacks on
//! the coordinating thread and merges worker results in input order, so
//! this is a structural guarantee — these tests pin it down.

use extidx::spatial::{geometry_sql, Geometry, Mbr};
use extidx::sql::Database;
use extidx::storage::Snapshot;
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

/// Dump a storage table as sorted display strings (storage tables are
/// IOTs, but sorting in the test keeps the comparison order-independent).
fn dump(db: &mut Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> =
        db.query(&format!("SELECT * FROM {table}")).unwrap().iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Build the same index under each PARAMETERS string (on identically
/// populated databases) and return the dumped contents of its storage
/// tables.
fn build_variants(
    setup: &dyn Fn(&mut Database),
    create_index: &dyn Fn(&mut Database, &str),
    storage_tables: &[&str],
) -> Vec<Vec<String>> {
    // Serial, keyed `:Parallel 4`, and Oracle-style bare `PARALLEL 4`.
    ["", ":Parallel 4", "PARALLEL 4"]
        .iter()
        .map(|params| {
            let mut db = full_db();
            setup(&mut db);
            create_index(&mut db, params);
            storage_tables.iter().flat_map(|t| dump(&mut db, t)).collect()
        })
        .collect()
}

fn assert_all_identical(variants: Vec<Vec<String>>, what: &str) {
    let serial = &variants[0];
    assert!(!serial.is_empty(), "{what}: serial build produced an empty index");
    for (i, v) in variants.iter().enumerate().skip(1) {
        assert_eq!(v, serial, "{what}: variant {i} differs from the serial build");
    }
}

#[test]
fn text_parallel_build_is_deterministic() {
    let setup = |db: &mut Database| {
        db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(500))").unwrap();
        let words = ["lake", "cabin", "sauna", "dock", "view", "transit", "loft", "estate"];
        for i in 0..60i64 {
            let body: Vec<&str> =
                (0..6).map(|j| words[((i as usize) * 7 + j * 3) % words.len()]).collect();
            db.execute_with(
                "INSERT INTO docs VALUES (?, ?)",
                &[Value::Integer(i), body.join(" ").into()],
            )
            .unwrap();
        }
    };
    let create = |db: &mut Database, params: &str| {
        let p = if params.is_empty() { String::new() } else { format!(" PARAMETERS ('{params}')") };
        db.execute(&format!("CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType{p}"))
            .unwrap();
    };
    assert_all_identical(build_variants(&setup, &create, &["DR$DT$I"]), "text");
}

#[test]
fn spatial_parallel_build_is_deterministic() {
    let setup = |db: &mut Database| {
        db.execute("CREATE TABLE places (id INTEGER, area SDO_GEOMETRY)").unwrap();
        for i in 0..50i64 {
            let x = (i % 10) as f64 * 37.0;
            let y = (i / 10) as f64 * 53.0;
            let g = Geometry::Rect(Mbr { xmin: x, ymin: y, xmax: x + 30.0, ymax: y + 40.0 });
            db.execute(&format!("INSERT INTO places VALUES ({i}, {})", geometry_sql(&g))).unwrap();
        }
    };
    let create = |db: &mut Database, params: &str| {
        let p = if params.is_empty() { String::new() } else { format!(" PARAMETERS ('{params}')") };
        db.execute(&format!("CREATE INDEX ps ON places(area) INDEXTYPE IS SpatialIndexType{p}"))
            .unwrap();
    };
    assert_all_identical(build_variants(&setup, &create, &["DR$PS$T"]), "spatial");
}

#[test]
fn vir_parallel_build_is_deterministic() {
    let setup = |db: &mut Database| {
        db.execute("CREATE TABLE assets (id INTEGER, img VIR_IMAGE)").unwrap();
        // Seeded workload: every database variant gets the same images.
        let mut wl = SignatureWorkload::new(7);
        for i in 0..50i64 {
            let sig = wl.random();
            db.execute_with(
                "INSERT INTO assets VALUES (?, VIR_IMAGE(?))",
                &[Value::Integer(i), sig.serialize().into()],
            )
            .unwrap();
        }
    };
    let create = |db: &mut Database, params: &str| {
        let p = if params.is_empty() { String::new() } else { format!(" PARAMETERS ('{params}')") };
        db.execute(&format!("CREATE INDEX ai ON assets(img) INDEXTYPE IS VirIndexType{p}"))
            .unwrap();
    };
    assert_all_identical(build_variants(&setup, &create, &["DR$AI$S"]), "vir");
}

#[test]
fn chem_parallel_build_is_deterministic() {
    // The chem store is a LOB of fixed-width records, not a table — the
    // build is deterministic iff the LOB bytes are identical (record
    // order included, so no sorting here).
    let molecules = ["CCO", "CC=O", "c1ccccc1", "CC(C)O", "CCN", "OCC", "CCOC", "CC(=O)O"];
    let lob_bytes = |params: &str| -> Vec<u8> {
        let mut db = full_db();
        db.execute("CREATE TABLE mols (id INTEGER, smiles VARCHAR2(200))").unwrap();
        for i in 0..60i64 {
            db.execute_with(
                "INSERT INTO mols VALUES (?, ?)",
                &[Value::Integer(i), molecules[(i as usize) % molecules.len()].into()],
            )
            .unwrap();
        }
        let p = if params.is_empty() { String::new() } else { format!(" PARAMETERS ('{params}')") };
        db.execute(&format!("CREATE INDEX mi ON mols(smiles) INDEXTYPE IS ChemIndexType{p}"))
            .unwrap();
        let lob =
            db.query("SELECT data FROM DR$MI$META WHERE id = 1").unwrap()[0][0].as_lob().unwrap();
        db.storage().lob_read_all(lob, &Snapshot::latest(), <[u8]>::to_vec).unwrap()
    };
    let serial = lob_bytes("");
    assert!(!serial.is_empty(), "chem: serial build produced an empty store");
    assert_eq!(lob_bytes(":Parallel 4"), serial, "chem: ':Parallel 4' differs from serial");
    assert_eq!(lob_bytes("PARALLEL 4"), serial, "chem: bare 'PARALLEL 4' differs from serial");
}

#[test]
fn rtree_parallel_build_is_deterministic() {
    let setup = |db: &mut Database| {
        db.execute("CREATE TABLE zones (id INTEGER, area SDO_GEOMETRY)").unwrap();
        for i in 0..40i64 {
            let x = (i % 8) as f64 * 41.0;
            let y = (i / 8) as f64 * 29.0;
            let g = Geometry::Rect(Mbr { xmin: x, ymin: y, xmax: x + 25.0, ymax: y + 35.0 });
            db.execute(&format!("INSERT INTO zones VALUES ({i}, {})", geometry_sql(&g))).unwrap();
        }
    };
    let create = |db: &mut Database, params: &str| {
        let p = if params.is_empty() { String::new() } else { format!(" PARAMETERS ('{params}')") };
        db.execute(&format!("CREATE INDEX zr ON zones(area) INDEXTYPE IS RtreeIndexType{p}"))
            .unwrap();
    };
    assert_all_identical(build_variants(&setup, &create, &["DR$ZR$R"]), "rtree");
}
