//! End-to-end tests of the VIR cartridge: three-phase filtered similarity
//! search over image-signature objects.

use extidx_common::Value;
use extidx_sql::Database;
use extidx_vir::{Signature, SignatureWorkload, Weights};

fn vir_db() -> Database {
    let mut db = Database::with_cache_pages(4096);
    extidx_vir::install(&mut db).unwrap();
    db
}

/// Load `n` random images plus `dups` near-duplicates of a base image.
/// Returns `(base signature, ids of planted duplicates)`.
fn load_images(db: &mut Database, n: usize, dups: usize, seed: u64) -> (Signature, Vec<i64>) {
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
    let mut wl = SignatureWorkload::new(seed);
    let base = wl.random();
    for i in 0..n {
        let sig = wl.random();
        db.execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[(i as i64).into(), sig.serialize().into()],
        )
        .unwrap();
    }
    let mut dup_ids = Vec::new();
    for d in 0..dups {
        let id = (n + d) as i64;
        let sig = wl.near_duplicate(&base, 0.5);
        db.execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[id.into(), sig.serialize().into()],
        )
        .unwrap();
        dup_ids.push(id);
    }
    (base, dup_ids)
}

#[test]
fn finds_planted_near_duplicates() {
    let mut db = vir_db();
    let (base, dup_ids) = load_images(&mut db, 200, 3, 77);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id FROM images WHERE \
             VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 2.0) ORDER BY id",
            &[base.serialize().into()],
        )
        .unwrap();
    let found: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    for id in &dup_ids {
        assert!(found.contains(id), "duplicate {id} missing from {found:?}");
    }
}

#[test]
fn functional_and_indexed_agree() {
    let seed = 99;
    let mut plain = vir_db();
    let (base, _) = load_images(&mut plain, 150, 5, seed);
    let sql = "SELECT id FROM images WHERE \
               VirSimilar(img, ?, 'globalcolor=0.4, localcolor=0.2, texture=0.4', 8.0) ORDER BY id";
    let f = plain.query_with(sql, &[base.serialize().into()]).unwrap();

    let mut indexed = vir_db();
    let (base2, _) = load_images(&mut indexed, 150, 5, seed);
    assert_eq!(base.serialize(), base2.serialize());
    indexed.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let i = indexed.query_with(sql, &[base2.serialize().into()]).unwrap();
    assert_eq!(f, i);
}

#[test]
fn plan_uses_domain_index() {
    let mut db = vir_db();
    let (base, _) = load_images(&mut db, 300, 2, 5);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let plan = db
        .explain(&format!(
            "SELECT id FROM images WHERE VirSimilar(img, '{}', 'globalcolor=1.0', 3.0)",
            base.serialize()
        ))
        .unwrap()
        .join("\n");
    assert!(plan.contains("DOMAIN INDEX SCAN"), "{plan}");
}

#[test]
fn maintenance_tracks_dml() {
    let mut db = vir_db();
    let (base, dup_ids) = load_images(&mut db, 50, 1, 13);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let sql = "SELECT id FROM images WHERE VirSimilar(img, ?, 'globalcolor=1.0', 2.0)";
    let before = db.query_with(sql, &[base.serialize().into()]).unwrap().len();
    assert!(before >= 1);
    // Delete the planted duplicate: matches shrink.
    db.execute_with("DELETE FROM images WHERE id = ?", &[dup_ids[0].into()]).unwrap();
    let after = db.query_with(sql, &[base.serialize().into()]).unwrap().len();
    assert_eq!(after, before - 1);
    // Insert an exact copy of the query image: matches grow.
    db.execute_with(
        "INSERT INTO images VALUES (999, VIR_IMAGE(?))",
        &[base.serialize().into()],
    )
    .unwrap();
    let finally = db.query_with(sql, &[base.serialize().into()]).unwrap().len();
    assert_eq!(finally, after + 1);
}

#[test]
fn score_gives_distance_for_ranking() {
    let mut db = vir_db();
    let (base, _) = load_images(&mut db, 100, 4, 31);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id, SCORE(1) FROM images WHERE \
             VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 5.0, 1) \
             ORDER BY SCORE(1)",
            &[base.serialize().into()],
        )
        .unwrap();
    assert!(rows.len() >= 4);
    // Distances ascend.
    let dists: Vec<f64> = rows.iter().map(|r| r[1].as_number().unwrap()).collect();
    for w in dists.windows(2) {
        assert!(w[0] <= w[1], "{dists:?}");
    }
}

#[test]
fn three_phase_filtering_is_selective() {
    let mut db = vir_db();
    let (base, _) = load_images(&mut db, 400, 3, 55);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    // Count rows surviving each phase via the index table directly.
    let total = db.query("SELECT COUNT(*) FROM DR$IMG_IDX$S").unwrap()[0][0].as_integer().unwrap();
    assert_eq!(total, 403);
    let qc = base.coarse();
    let w = Weights::parse("globalcolor=1.0").unwrap();
    let threshold = 3.0;
    let r = threshold / w.0[0];
    let phase1 = db
        .query_with(
            "SELECT COUNT(*) FROM DR$IMG_IDX$S WHERE q1 BETWEEN ? AND ?",
            &[(qc[0] - r).into(), (qc[0] + r).into()],
        )
        .unwrap()[0][0]
        .as_integer()
        .unwrap();
    assert!(phase1 < total / 2, "phase-1 range filter should prune most rows: {phase1}/{total}");
    let matches = db
        .query_with(
            "SELECT COUNT(*) FROM images WHERE VirSimilar(img, ?, 'globalcolor=1.0', 3.0)",
            &[base.serialize().into()],
        )
        .unwrap()[0][0]
        .as_integer()
        .unwrap();
    assert!(matches <= phase1);
}

#[test]
fn varchar_signature_columns_also_work() {
    let mut db = vir_db();
    db.execute("CREATE TABLE thumbs (id INTEGER, sig VARCHAR2(2000))").unwrap();
    let mut wl = SignatureWorkload::new(3);
    let a = wl.random();
    let b = wl.near_duplicate(&a, 0.2);
    db.execute_with("INSERT INTO thumbs VALUES (1, ?)", &[a.serialize().into()]).unwrap();
    db.execute_with("INSERT INTO thumbs VALUES (2, ?)", &[b.serialize().into()]).unwrap();
    db.execute("CREATE INDEX thumb_idx ON thumbs(sig) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id FROM thumbs WHERE VirSimilar(sig, ?, 'globalcolor=1.0', 1.0) ORDER BY id",
            &[a.serialize().into()],
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn null_images_are_skipped() {
    let mut db = vir_db();
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
    db.execute("INSERT INTO images VALUES (1, NULL)").unwrap();
    let mut wl = SignatureWorkload::new(8);
    let s = wl.random();
    db.execute_with("INSERT INTO images VALUES (2, VIR_IMAGE(?))", &[s.serialize().into()])
        .unwrap();
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id FROM images WHERE VirSimilar(img, ?, 'globalcolor=1.0', 100.0)",
            &[s.serialize().into()],
        )
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Integer(2)]]);
}

#[test]
fn zero_weight_on_first_channel_disables_phase1_pruning_safely() {
    // With globalcolor weighted 0 the q1 range filter cannot prune (the
    // bound becomes unbounded); phases 2–3 still answer correctly.
    let mut db = vir_db();
    let (base, dup_ids) = load_images(&mut db, 120, 3, 67);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let rows = db
        .query_with(
            "SELECT id FROM images WHERE \
             VirSimilar(img, ?, 'globalcolor=0.0, texture=1.0', 2.0) ORDER BY id",
            &[base.serialize().into()],
        )
        .unwrap();
    let found: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    for id in &dup_ids {
        assert!(found.contains(id), "duplicate {id} missing with zero-weight channel");
    }
    // Agrees with the functional evaluation.
    let mut plain = vir_db();
    let (base2, _) = load_images(&mut plain, 120, 3, 67);
    assert_eq!(base.serialize(), base2.serialize());
    let f = plain
        .query_with(
            "SELECT id FROM images WHERE \
             VirSimilar(img, ?, 'globalcolor=0.0, texture=1.0', 2.0) ORDER BY id",
            &[base2.serialize().into()],
        )
        .unwrap();
    assert_eq!(rows, f);
}

/// EXPLAIN ANALYZE smoke: the VIR similarity scan is annotated with
/// actual counters and the summary reports the executed row count.
#[test]
fn explain_analyze_annotates_the_vir_scan() {
    let mut db = vir_db();
    let (base, _) = load_images(&mut db, 60, 3, 99);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let sql = "SELECT /*+ INDEX(images img_idx) */ id FROM images WHERE \
               VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 2.0)";
    let binds = [extidx_common::Value::from(base.serialize())];
    let lines: Vec<String> = db
        .query_with(&format!("EXPLAIN ANALYZE {sql}"), &binds)
        .unwrap()
        .into_iter()
        .map(|r| r[0].to_string())
        .collect();
    let scan =
        lines.iter().find(|l| l.contains("DOMAIN INDEX SCAN")).expect("domain scan in plan");
    assert!(scan.contains("[actual rows="), "unannotated scan line: {scan}");
    let expected = db.query_with(sql, &binds).unwrap().len();
    let summary = lines.last().unwrap();
    assert!(summary.contains(&format!("rows={expected}")), "{summary}");
}

/// A panic inside the signature maintenance path is contained by the
/// sandbox: the INSERT fails with `CartridgeFault`, the near-duplicate
/// stays invisible, and a clean retry makes it findable.
#[test]
fn panic_in_maintenance_is_contained() {
    use extidx_core::fault::FaultKind;

    let mut db = vir_db();
    let (base, _) = load_images(&mut db, 60, 0, 42);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let mut wl = SignatureWorkload::new(43);
    let dup = wl.near_duplicate(&base, 0.5);

    let inj = db.fault_injector().clone();
    inj.arm("vir.maintenance.indexed", None, 1, FaultKind::Panic);
    let err = db
        .execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[9000_i64.into(), dup.serialize().into()],
        )
        .expect_err("panicking maintenance must fail the statement");
    assert!(
        matches!(err, extidx_common::Error::CartridgeFault { .. }),
        "expected CartridgeFault, got {err}"
    );
    inj.disarm_all();

    let sql = "SELECT id FROM images WHERE \
               VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 2.0) ORDER BY id";
    let found = |db: &mut Database, base: &Signature| -> Vec<i64> {
        db.query_with(sql, &[base.serialize().into()])
            .unwrap()
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect()
    };
    assert!(!found(&mut db, &base).contains(&9000), "failed insert must leave no signature");

    db.execute_with(
        "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
        &[9000_i64.into(), dup.serialize().into()],
    )
    .unwrap();
    assert!(found(&mut db, &base).contains(&9000), "clean retry must be findable");
}

/// Signature maintenance issues `DELETE … WHERE q1 = ? AND rid = ?` and
/// the server runs it as a probe of the `(q1, rid)` key, so unindexing an
/// image costs the same however many images share its first coarse
/// coordinate (1 000 and 10 000 entries both sit in a
/// height-2 tree; much below that the whole table is a page or two and the
/// optimizer rightly scans it).
#[test]
fn delete_cost_does_not_grow_with_the_q1_population() {
    let delete_reads = |n: usize| {
        let mut db = vir_db();
        db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
        let sig = SignatureWorkload::new(5).random().serialize();
        for i in 0..n {
            db.execute_with(
                "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
                &[(i as i64).into(), sig.clone().into()],
            )
            .unwrap();
        }
        db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
        let rid = db.query("SELECT ROWID FROM images WHERE id = 7").unwrap()[0][0].clone();
        let before = db.cache_stats().logical_reads;
        db.execute_with("DELETE FROM images WHERE ROWID = ?", &[rid]).unwrap();
        let reads = db.cache_stats().logical_reads - before;
        let left = db.query_with(
            "SELECT COUNT(*) FROM images WHERE VirSimilar(img, ?, 'globalcolor=1.0', 1.0)",
            &[sig.into()],
        );
        assert_eq!(left.unwrap()[0][0], Value::Integer(n as i64 - 1));
        reads
    };
    assert_eq!(delete_reads(1_000), delete_reads(10_000));
}
