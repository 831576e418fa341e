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

/// One image with signature `sig` under a VIR index, and the answers of
/// `VirSimilar(img, query, weights, threshold)` forced through the index
/// and forced to the functional implementation.
fn both_paths(
    sig: &str,
    query: &str,
    weights: &str,
    threshold: f64,
) -> [extidx_common::Result<Vec<i64>>; 2] {
    let mut db = vir_db();
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
    db.execute_with("INSERT INTO images VALUES (1, VIR_IMAGE(?))", &[sig.into()]).unwrap();
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    ["INDEX(images img_idx)", "NO_INDEX"].map(|hint| {
        let sql = format!(
            "SELECT /*+ {hint} */ id FROM images WHERE VirSimilar(img, ?, ?, ?) ORDER BY id"
        );
        let rows = db.query_with(&sql, &[query.into(), weights.into(), threshold.into()])?;
        Ok(rows.iter().map(|r| r[0].as_integer().unwrap()).collect())
    })
}

fn join(vals: impl IntoIterator<Item = f64>) -> String {
    vals.into_iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// The index compares the base value's own signature text, not a copy
/// rounded to 3 decimals: channel 0 is 3.0004 away from the query on
/// average, just over the threshold, and a rounded copy reads 3.0.
#[test]
fn the_index_compares_signatures_at_full_precision() {
    let sig = join([13.0004; 7].into_iter().chain([6.9996]).chain([10.0; 24]));
    let query = join([10.0; 32]);
    let [indexed, functional] = both_paths(&sig, &query, "globalcolor=1.0", 3.0);
    assert_eq!(functional.unwrap(), Vec::<i64>::new());
    assert_eq!(indexed.unwrap(), Vec::<i64>::new());
    // Just inside the threshold, both find it.
    let [indexed, functional] = both_paths(&sig, &query, "globalcolor=1.0", 3.0005);
    assert_eq!((indexed.unwrap(), functional.unwrap()), (vec![1], vec![1]));
}

/// A negative weight would make the coarse distance no lower bound of
/// the full one (here the coarse distance is 5, the full distance 0), so
/// both implementations refuse it rather than answer differently.
#[test]
fn negative_and_nan_weights_are_refused_on_both_paths() {
    let ch0 = (0..8).map(|i| if i % 2 == 0 { 40.0 } else { 60.0 });
    let sig = join(ch0.chain([50.0; 8]).chain([55.0; 8]).chain([50.0; 8]));
    let query = join([50.0; 32]);
    for weights in ["globalcolor=-1, texture=1", "globalcolor=NaN", "texture=-0.5"] {
        for answer in both_paths(&sig, &query, weights, 3.0) {
            let err = answer.expect_err(weights);
            assert!(matches!(err, extidx_common::Error::Semantic(_)), "{weights}: {err}");
        }
    }
}

/// Phase 1 ranges every positively weighted channel, not only `q1`: the
/// one callback reads fewer rows than the `q1` range holds, and the
/// answer is unchanged.
#[test]
fn phase_one_ranges_every_weighted_channel() {
    let mut db = vir_db();
    let (base, dup_ids) = load_images(&mut db, 1500, 4, 81);
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let w = Weights::parse("globalcolor=0.5, texture=0.5").unwrap();
    let counts = extidx_vir::phase_counts(
        &mut |sql, binds| db.query_with(sql, binds),
        "DR$IMG_IDX$S",
        &base,
        &w,
        3.0,
    )
    .unwrap();
    assert_eq!(counts.total, 1504);
    assert!(counts.after_range < counts.after_key_range, "{counts:?}");
    assert!(counts.after_coarse <= counts.after_range && counts.matches <= counts.after_coarse);
    // The key range stays an IOT range scan; the other range is a filter.
    let plan = db
        .explain(
            "SELECT q1, rid, q2, q3, q4, sig FROM DR$IMG_IDX$S \
             WHERE q1 BETWEEN 40 AND 52 AND q3 BETWEEN 41 AND 53",
        )
        .unwrap()
        .join("\n");
    assert!(plan.contains("IOT RANGE"), "{plan}");
    let sql = "SELECT /*+ INDEX(images img_idx) */ id FROM images WHERE \
               VirSimilar(img, ?, 'globalcolor=0.5, texture=0.5', 3.0) ORDER BY id";
    let found = db.query_with(sql, &[base.serialize().into()]).unwrap();
    assert_eq!(found.len(), counts.matches);
    for id in dup_ids {
        assert!(found.contains(&vec![Value::Integer(id)]), "duplicate {id} missing");
    }
}

/// Seeded differential near the threshold: images stored at full
/// precision, and queries that sit within 0.00005 of the threshold from
/// one of them (every value of the image moved by the threshold, and every
/// weight list sums to 1), under each weight list the query generator
/// draws, one of them with ratios inexact in binary. The forced index
/// answers as the functional implementation does, on both sides of the
/// threshold.
#[test]
fn indexed_equals_functional_near_the_threshold() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let full = |vals: &mut dyn Iterator<Item = f64>| join(vals.collect::<Vec<_>>());
    let mut db = vir_db();
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)").unwrap();
    let mut wl = SignatureWorkload::new(39);
    let images: Vec<Signature> = (0..300).map(|_| wl.random()).collect();
    for (i, sig) in images.iter().enumerate() {
        let text = full(&mut sig.channels.iter().flatten().copied());
        db.execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[(i as i64).into(), text.into()],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType").unwrap();
    let mut rng = StdRng::seed_from_u64(39);
    let mut hits = [0; 2];
    for weights in [
        "",
        "globalcolor=1.0",
        "globalcolor=0.5, texture=0.5",
        "globalcolor=0.3, localcolor=0.3, texture=0.4",
    ] {
        for _ in 0..25 {
            let base = rng.gen_range(0..images.len());
            let threshold = rng.gen_range(50..800) as f64 / 10.0;
            let shift = threshold + rng.gen_range(-0.00005..0.00005);
            let query = full(&mut images[base].channels.iter().flatten().map(|v| v + shift));
            let binds = [query.into(), weights.into(), threshold.into()];
            let [indexed, functional] = ["INDEX(images img_idx)", "NO_INDEX"].map(|hint| {
                let sql = format!(
                    "SELECT /*+ {hint} */ id FROM images WHERE VirSimilar(img, ?, ?, ?) ORDER BY id"
                );
                db.query_with(&sql, &binds).unwrap()
            });
            assert_eq!(indexed, functional, "weights {weights:?}, threshold {threshold}");
            hits[functional.contains(&vec![Value::Integer(base as i64)]) as usize] += 1;
        }
    }
    // The base image falls on both sides of the threshold.
    assert!(hits[0] > 10 && hits[1] > 10, "{hits:?}");
}
