//! `repro` — regenerate every figure/claim in the paper's evaluation.
//!
//! One subcommand per experiment (see DESIGN.md §3):
//!
//! ```text
//! repro e1-architecture   Fig. 1: the server→cartridge call flow, live
//! repro e2-text           §3.2.1: pipelined vs two-step text queries
//! repro e3-spatial        §3.2.2: Sdo_Relate vs the pre-8i tile join
//! repro e4-vir            §3.2.3: three-phase filtering vs full scan
//! repro e5-chem           §3.2.4: LOB-resident vs file-based index
//! repro e6-optimizer      §2.4.2: cost-based domain-index vs B-tree
//! repro e7-scan-modes     §2.2.3: Precompute-All vs Incremental scans
//! repro e8-batch          §2.5:   batched ODCIIndexFetch round trips
//! repro e9-events         §5:     rollback vs external stores + events
//! repro e10-build         parallel index build + batched rowid→row join
//! repro e13-observe       EXPLAIN ANALYZE + V$ tables + tkprof-style report
//! repro e14-quarantine    sandbox: panic containment, quarantine, REBUILD
//! repro e15-vectorized    batch executor + zone maps + cost-ordered conjuncts
//! repro e16-wal           durability: WAL overhead, checkpoint + recovery time
//! repro e17-mvcc          MVCC: parallel reader sessions vs one big-lock session
//! repro e18-vacuum        incremental vacuum + sub-LOB conflict granularity
//! repro e19-governor      maintenance daemon vs inline vacuum: foreground p99
//! repro all               everything above
//! ```
//!
//! Absolute numbers will differ from the 1999 testbed; the *shapes* (who
//! wins, by what factor, where the crossovers are) are the reproduction
//! targets recorded in EXPERIMENTS.md.

use std::time::Instant;

use extidx_bench::{fmt_dur, spatial_fixture, text_corpus, text_fixture, text_fixture_with_params, time_median, time_once, vir_fixture, chem_fixture, Report};
use extidx_chem::MoleculeWorkload;
use extidx_common::Result;
use extidx_spatial::Mask;
use extidx_sql::Database;
use extidx_text::legacy as text_legacy;
use extidx_spatial::legacy as spatial_legacy;

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let run = |name: &str, f: fn() -> Result<()>| {
        if cmd == name || cmd == "all" {
            println!("\n================================================================");
            println!("{name}");
            println!("================================================================");
            if let Err(e) = f() {
                eprintln!("experiment {name} failed: {e}");
                std::process::exit(1);
            }
        }
    };
    run("e1-architecture", e1_architecture);
    run("e2-text", e2_text);
    run("e3-spatial", e3_spatial);
    run("e4-vir", e4_vir);
    run("e5-chem", e5_chem);
    run("e6-optimizer", e6_optimizer);
    run("e7-scan-modes", e7_scan_modes);
    run("e8-batch", e8_batch);
    run("e9-events", e9_events);
    run("e10-build", e10_build);
    run("e13-observe", e13_observe);
    run("e14-quarantine", e14_quarantine);
    run("e15-vectorized", e15_vectorized);
    run("e16-wal", e16_wal);
    run("e17-mvcc", e17_mvcc);
    run("e18-vacuum", e18_vacuum);
    run("e19-governor", e19_governor);
    if !matches!(
        cmd.as_str(),
        "all" | "e1-architecture" | "e2-text" | "e3-spatial" | "e4-vir" | "e5-chem"
            | "e6-optimizer" | "e7-scan-modes" | "e8-batch" | "e9-events" | "e10-build"
            | "e13-observe" | "e14-quarantine" | "e15-vectorized" | "e16-wal" | "e17-mvcc"
            | "e18-vacuum" | "e19-governor"
    ) {
        eprintln!("unknown experiment {cmd:?}; see `repro` source for the list");
        std::process::exit(2);
    }
}

/// E1 — Figure 1 as a live trace: which server component invokes which
/// ODCI routine for a scripted session.
fn e1_architecture() -> Result<()> {
    let mut fx = text_fixture(300, 30, 200, 11)?;
    let db = &mut fx.db;
    db.trace().set_enabled(true);
    db.trace().clear();

    db.execute("INSERT INTO docs VALUES (9001, 'a fresh document mentioning zebrafish')")?;
    db.execute("UPDATE docs SET body = 'rewritten to mention axolotl biology' WHERE id = 9001")?;
    db.query("SELECT id FROM docs WHERE Contains(body, 'axolotl')")?;
    db.execute("DELETE FROM docs WHERE id = 9001")?;
    db.execute("ANALYZE TABLE docs")?;

    println!("server -> cartridge invocations (Fig. 1):\n");
    for e in db.trace().events() {
        println!("  {e}");
    }
    println!("\nDDL drives Create/Alter/Truncate/Drop; DML drives Insert/Update/Delete;");
    println!("the optimizer drives ODCIStats*; the index-access component drives");
    println!("Start/Fetch/Close. No cartridge call happens without the server initiating it.");
    Ok(())
}

/// E2 — §3.2.1: one-step pipelined execution vs the pre-8i two-step
/// temp-table plan, over term selectivities; reports total time, time to
/// first row, and logical I/O.
fn e2_text() -> Result<()> {
    let docs = 6000;
    let mut fx = text_fixture(docs, 60, 2000, 42)?;
    println!("corpus: {docs} documents x 60 Zipfian terms\n");
    let mut rep = Report::new(&[
        "term", "matches", "modern", "modern 1st row", "legacy", "legacy 1st row", "speedup",
        "modern I/O", "legacy I/O",
    ]);
    for rank in [900usize, 120, 30, 3] {
        let term = fx.gen.term(rank).to_string();
        let db = &mut fx.db;
        let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}')");

        // Modern pipelined execution.
        db.reset_cache_stats();
        let t = Instant::now();
        let mut cur = db.open_query(&sql)?;
        let first = cur.next_row()?;
        let modern_first = t.elapsed();
        let mut matches = usize::from(first.is_some());
        while cur.next_row()?.is_some() {
            matches += 1;
        }
        drop(cur);
        let modern_total = t.elapsed();
        let modern_io = db.cache_stats().logical_reads;

        // Legacy two-step execution (first row requires the whole flow).
        db.reset_cache_stats();
        let t = Instant::now();
        let legacy_rows = text_legacy::two_step_query(db, "docs", "d.id", "doc_text", &term)?;
        let legacy_total = t.elapsed();
        let legacy_io = db.cache_stats().logical_reads;
        assert_eq!(legacy_rows.len(), matches);

        rep.row(&[
            term,
            matches.to_string(),
            fmt_dur(modern_total),
            fmt_dur(modern_first),
            fmt_dur(legacy_total),
            fmt_dur(legacy_total), // two-step cannot return early
            format!("{:.1}x", legacy_total.as_secs_f64() / modern_total.as_secs_f64()),
            modern_io.to_string(),
            legacy_io.to_string(),
        ]);
    }
    rep.print();
    println!("\npaper: \"as much as 10X improvement … for certain search-intensive queries\",");
    println!("from (1) no temp-table I/O, (2) on-demand first rows, (3) one fewer join.");
    Ok(())
}

/// E3 — §3.2.2: the modern Sdo_Relate join vs the pre-8i hand-written
/// tile join; the claim is performance parity with a drastically simpler
/// query.
fn e3_spatial() -> Result<()> {
    let mut rep =
        Report::new(&["layer size", "pairs", "modern (tiles)", "modern (R-tree)", "legacy", "legacy/tiles"]);
    for n in [100usize, 300, 600] {
        let mut fx = spatial_fixture(n, 9)?;
        let db = &mut fx.db;
        let sql = "SELECT r.gid, p.gid FROM roads r, parks p \
                   WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS')";
        let modern_rows = db.query(sql)?.len();
        let modern = time_median(3, || {
            db.query(sql).expect("modern spatial join");
        });
        let legacy_rows = spatial_legacy::legacy_relate_join(
            db, "roads", "gid", "roads_sidx", "parks", "gid", "parks_sidx", Mask::Overlaps,
        )?
        .len();
        assert_eq!(modern_rows, legacy_rows);
        let legacy = time_median(3, || {
            spatial_legacy::legacy_relate_join(
                db, "roads", "gid", "roads_sidx", "parks", "gid", "parks_sidx", Mask::Overlaps,
            )
            .expect("legacy spatial join");
        });
        // §3.2.2's algorithm-swap claim: replace the tile indexes with
        // R-trees; the query text does not change.
        db.execute("DROP INDEX roads_sidx")?;
        db.execute("DROP INDEX parks_sidx")?;
        db.execute("CREATE INDEX roads_sidx ON roads(geometry) INDEXTYPE IS RtreeIndexType")?;
        db.execute("CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS RtreeIndexType")?;
        let rtree_rows = db.query(sql)?.len();
        assert_eq!(rtree_rows, modern_rows, "indexing algorithms must agree");
        let rtree = time_median(3, || {
            db.query(sql).expect("rtree spatial join");
        });
        rep.row(&[
            format!("{n}x{n}"),
            modern_rows.to_string(),
            fmt_dur(modern),
            fmt_dur(rtree),
            fmt_dur(legacy),
            format!("{:.2}x", legacy.as_secs_f64() / modern.as_secs_f64()),
        ]);
    }
    rep.print();
    println!("\npaper: performance \"as good as the prior implementation\" while the query");
    println!("shrinks from an exposed tile join + manual exact filter to one operator —");
    println!("and the indexing algorithm (tiles vs R-tree) can swap under the same query.");
    Ok(())
}

/// E4 — §3.2.3: three-phase filtered similarity vs per-row signature
/// comparison, with per-phase survivor counts.
fn e4_vir() -> Result<()> {
    let weights = "globalcolor=0.5, localcolor=0.0, texture=0.5, structure=0.0";
    let threshold = 3.0;
    let mut rep = Report::new(&[
        "images", "full scan", "3-phase index", "speedup", "phase1 survivors", "matches",
    ]);
    for n in [2000usize, 8000, 20000] {
        // Unindexed baseline.
        let mut base = vir_fixture(n, 5, 7, false)?;
        let sql = format!(
            "SELECT id FROM images WHERE VirSimilar(img, '{}', '{weights}', {threshold})",
            base.query.serialize()
        );
        let matches = base.db.query(&sql)?.len();
        let full = time_median(2, || {
            base.db.query(&sql).expect("full-scan similarity");
        });

        // Indexed three-phase.
        let mut idx = vir_fixture(n, 5, 7, true)?;
        let indexed_matches = idx.db.query(&sql)?.len();
        assert_eq!(matches, indexed_matches);
        let indexed = time_median(2, || {
            idx.db.query(&sql).expect("indexed similarity");
        });

        // Phase-1 survivor count from the index table.
        let qc = idx.query.coarse();
        let w = extidx_vir::Weights::parse(weights)?;
        let r = threshold / w.0[0];
        let phase1 = idx.db.query_with(
            "SELECT COUNT(*) FROM DR$IMG_IDX$S WHERE q1 BETWEEN ? AND ?",
            &[(qc[0] - r).into(), (qc[0] + r).into()],
        )?[0][0]
            .as_integer()?;

        rep.row(&[
            n.to_string(),
            fmt_dur(full),
            fmt_dur(indexed),
            format!("{:.1}x", full.as_secs_f64() / indexed.as_secs_f64()),
            phase1.to_string(),
            matches.to_string(),
        ]);
    }
    rep.print();
    println!("\npaper: multi-level filtering makes image queries feasible at scale; \"the");
    println!("first two passes of filtering are very selective\".");
    Ok(())
}

/// E5 — §3.2.4: LOB-resident vs file-based fingerprint index: build cost,
/// incremental-maintenance cost (the \"intermediate writes\"), and query
/// latency cold vs warm.
fn e5_chem() -> Result<()> {
    let mut rep = Report::new(&[
        "compounds", "store", "incr. 100 inserts", "bytes written", "query cold", "query warm",
    ]);
    for n in [2000usize, 10000] {
        for storage in ["LOB", "FILE"] {
            let mut fx = chem_fixture(n, 5, &format!(":Storage {storage}"))?;
            let db = &mut fx.db;
            // Incremental maintenance cost.
            let mut wl = MoleculeWorkload::new(1234);
            db.reset_file_stats();
            let t = Instant::now();
            for i in 0..100 {
                let m = wl.molecule(12);
                db.execute_with(
                    "INSERT INTO compounds VALUES (?, ?)",
                    &[((90_000 + i) as i64).into(), m.into()],
                )?;
            }
            let incr = t.elapsed();
            // FILE mode: bytes actually written through the external
            // store. LOB mode: appends touch only the new records.
            let bytes = if storage == "FILE" {
                db.file_stats().bytes_written
            } else {
                (100 * extidx_chem::store::RECORD_BYTES) as u64
            };

            let sql = "SELECT COUNT(*) FROM compounds WHERE MolContains(mol, 'CC(=O)N')";
            db.cold_start();
            let t = Instant::now();
            db.query(sql)?;
            let cold = t.elapsed();
            let warm = time_median(3, || {
                db.query(sql).expect("substructure query");
            });
            rep.row(&[
                n.to_string(),
                storage.to_string(),
                fmt_dur(incr),
                bytes.to_string(),
                fmt_dur(cold),
                fmt_dur(warm),
            ]);
        }
    }
    rep.print();
    println!("\npaper: the LOB solution \"scales much better … because it minimizes");
    println!("intermediate write operations\"; query performance stays comparable because");
    println!("\"data is cached in-memory for subsequent operations\".");
    Ok(())
}

/// E6 — §2.4.2: the optimizer's choice between the domain index and a
/// B-tree as the relational predicate's selectivity varies.
fn e6_optimizer() -> Result<()> {
    let mut fx = text_fixture(4000, 50, 1000, 21)?;
    let db = &mut fx.db;
    db.execute("CREATE INDEX doc_id ON docs(id)")?;
    db.execute("ANALYZE TABLE docs")?;

    let term = fx.gen.term(40).to_string(); // mid-selectivity text term
    let mut rep = Report::new(&["relational predicate", "chosen path", "time"]);
    for (pred, label) in [
        ("id = 100", "equality (very selective)"),
        ("id BETWEEN 100 AND 140", "narrow range"),
        ("id BETWEEN 100 AND 2100", "wide range"),
        ("id > 0", "non-selective"),
    ] {
        let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}') AND {pred}");
        let plan = db.explain(&sql)?.join(" | ");
        let path = if plan.contains("DOMAIN INDEX SCAN") {
            "DOMAIN INDEX (text)"
        } else if plan.contains("BTREE ACCESS") {
            "BTREE (id) + functional Contains"
        } else {
            "FULL SCAN"
        };
        let d = time_median(3, || {
            db.query(&sql).expect("e6 query");
        });
        rep.row(&[label.to_string(), path.to_string(), fmt_dur(d)]);
    }
    rep.print();
    println!("\npaper: \"the optimizer estimates the costs of the two plans and picks the");
    println!("cheaper one, which could be to use the index on id and apply the Contains");
    println!("operator on the resulting rows\" — the crossover above is that sentence.");
    Ok(())
}

/// E7 — §2.2.3: Precompute-All vs Incremental scan modes: full-drain
/// throughput vs LIMIT-k first-rows latency.
fn e7_scan_modes() -> Result<()> {
    let docs = 6000;
    let mut rep = Report::new(&["scan mode", "query", "all rows", "LIMIT 10"]);
    for mode in ["PRECOMPUTE", "INCREMENTAL"] {
        let mut fx = text_fixture_with_params(docs, 60, 2000, 42, &format!(":ScanMode {mode}"))?;
        // A conjunctive query over two common terms: Precompute-All
        // intersects and ranks the full result in ODCIIndexStart;
        // Incremental checks candidates only as fetches demand them.
        let q = format!("{} AND {}", fx.gen.term(3), fx.gen.term(5));
        let db = &mut fx.db;
        let all_sql = format!("SELECT id FROM docs WHERE Contains(body, '{q}')");
        let lim_sql = format!("{all_sql} LIMIT 10");
        let all = time_median(3, || {
            db.query(&all_sql).expect("full drain");
        });
        let lim = time_median(3, || {
            db.query(&lim_sql).expect("limited");
        });
        rep.row(&[mode.to_string(), q.clone(), fmt_dur(all), fmt_dur(lim)]);
    }
    rep.print();
    println!("\npaper: Precompute-All suits ranking operators (it sorts everything up");
    println!("front); Incremental Computation returns candidates \"a set at a time\" —");
    println!("visible in the LIMIT column.");
    Ok(())
}

/// E8 — §2.5: the batch interface: ODCIIndexFetch round trips and time as
/// the batch size sweeps.
fn e8_batch() -> Result<()> {
    let mut fx = text_fixture(6000, 60, 2000, 42)?;
    let term = fx.gen.term(25).to_string(); // mid term → long stream, index-worthy
    let db = &mut fx.db;
    let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}')");
    let matches = db.query(&sql)?.len();
    println!("query matches {matches} of {} documents\n", fx.docs);
    let mut rep = Report::new(&["batch size", "ODCIIndexFetch calls", "time"]);
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        db.set_batch_size(batch);
        db.trace().set_enabled(true);
        db.trace().clear();
        db.query(&sql)?;
        let fetches =
            db.trace().routine_sequence().iter().filter(|r| **r == "ODCIIndexFetch").count();
        db.trace().set_enabled(false);
        let d = time_median(3, || {
            db.query(&sql).expect("batch sweep");
        });
        rep.row(&[batch.to_string(), fetches.to_string(), fmt_dur(d)]);
    }
    db.set_batch_size(32);
    rep.print();
    println!("\npaper: \"batch interfaces are provided to reduce interactions between");
    println!("application and server code\" — round trips fall linearly with batch size.");
    Ok(())
}

/// E9 — §5: transactional behaviour of index data inside vs outside the
/// database, and the database-events fix.
fn e9_events() -> Result<()> {
    let mut rep = Report::new(&["store", "events", "stale records after rollback", "consistent"]);
    for (params, events) in
        [(":Storage LOB", "n/a"), (":Storage FILE", "off"), (":Storage FILE :Events ON", "on")]
    {
        let mut fx = chem_fixture(300, 3, params)?;
        let db = &mut fx.db;
        let live = |db: &mut Database| -> Result<i64> {
            db.query("SELECT COUNT(*) FROM compounds")?[0][0].as_integer()
        };
        let stored = |db: &mut Database| -> Result<i64> {
            if params.contains("FILE") {
                let len = db.storage().files_ref().length("dr$cidx.fpidx")?;
                Ok((len / extidx_chem::store::RECORD_BYTES as u64) as i64)
            } else {
                // LOB store: records = lob length / record size; read via meta.
                let lob = db.query("SELECT data FROM DR$CIDX$META WHERE id = 1")?[0][0].as_lob()?;
                Ok((db.storage().lob_length(lob)? / extidx_chem::store::RECORD_BYTES as u64) as i64)
            }
        };
        db.execute("BEGIN")?;
        db.execute("INSERT INTO compounds VALUES (8000, 'CC=O')")?;
        db.execute("INSERT INTO compounds VALUES (8001, 'CCN')")?;
        db.execute("ROLLBACK")?;
        let rows = live(db)?;
        let recs = stored(db)?;
        rep.row(&[
            if params.contains("FILE") { "external file" } else { "database LOB" }.to_string(),
            events.to_string(),
            (recs - rows).max(0).to_string(),
            (recs == rows).to_string(),
        ]);
    }
    rep.print();
    println!("\npaper §5: \"changes to the base table are rolled back whereas changes to the");
    println!("index data are not\" — unless the indextype registers commit/rollback event");
    println!("handlers, the proposed solution, shown in the last row.");
    Ok(())
}

/// E10 — the build pipeline: `CREATE INDEX … PARAMETERS ('PARALLEL n')`
/// wall time vs worker degree, then the buffer-cache profile of a
/// 10k-row domain scan under the batched rowid→row join.
fn e10_build() -> Result<()> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host parallelism: {cores} core(s)\n");

    let mut db = text_corpus(4000, 60, 2000, 42)?;
    let mut rep = Report::new(&["PARALLEL", "build time (median of 3)"]);
    for degree in [1usize, 2, 4, 8] {
        let create = format!(
            "CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType \
             PARAMETERS ('PARALLEL {degree}')"
        );
        let d = time_median(3, || {
            db.execute(&create).expect("e10 create index");
            db.execute("DROP INDEX doc_text").expect("e10 drop index");
        });
        rep.row(&[degree.to_string(), fmt_dur(d)]);
    }
    rep.print();
    println!("\nserver callbacks stay on the coordinating thread; workers only run the");
    println!("per-row CPU work (tokenization here), so index contents are byte-identical");
    println!("at every degree (tests/parallel_build.rs) and speedup tracks cores — a");
    println!("1-core host shows none, by design.");

    // Batched rowid→row join: the domain scan joins whole fetch batches,
    // sorting rowids by (page, slot) so the buffer cache is charged once
    // per distinct heap page rather than once per fetched row.
    let mut fx = text_fixture(10_000, 40, 1500, 7)?;
    let term = fx.gen.term(10).to_string();
    let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}')");
    let matches = fx.db.query(&sql)?.len();
    fx.db.cold_start();
    fx.db.reset_cache_stats();
    fx.db.query(&sql)?;
    let s = fx.db.cache_stats();
    println!("\n10k-document corpus, {matches} rows satisfy Contains(body, '{term}'):");
    println!(
        "  cold-cache domain scan: {} logical reads, {} physical reads",
        s.logical_reads, s.physical_reads
    );
    println!("  ({:.1} rows joined per buffer-cache touch)", matches as f64 / s.logical_reads.max(1) as f64);
    Ok(())
}

/// E13 — the observability layer: EXPLAIN ANALYZE row-source statistics
/// over a text-cartridge query, the V$ virtual tables answering plain
/// SQL, and the tkprof-style session report.
fn e13_observe() -> Result<()> {
    let mut fx = text_fixture(2000, 40, 800, 17)?;
    let db = &mut fx.db;
    db.trace().set_enabled(true);
    db.trace().clear();

    let term = fx.gen.term(60).to_string();
    let scan = format!("SELECT id FROM docs WHERE Contains(body, '{term}')");
    let score = format!(
        "SELECT id, Score(1) FROM docs WHERE Contains(body, '{term}', 1) \
         ORDER BY Score(1) DESC LIMIT 5"
    );

    // A small mixed session so every counter has something to show.
    db.query(&scan)?;
    db.query(&score)?;
    db.execute(&format!("INSERT INTO docs VALUES (900001, '{term} fresh arrival')"))?;
    db.execute("UPDATE docs SET body = 'rewritten away' WHERE id = 900001")?;
    db.execute("DELETE FROM docs WHERE id = 900001")?;

    println!("EXPLAIN ANALYZE {scan}\n");
    for row in db.query(&format!("EXPLAIN ANALYZE {scan}"))? {
        println!("  {}", row[0]);
    }
    println!("\neach line extends plain EXPLAIN with [actual rows/calls/gets/time];");
    println!("accounting is inclusive, so the root's gets equal the statement delta.");

    for vtab in [
        "SELECT NAME, VALUE FROM V$CACHE_STATS ORDER BY NAME",
        "SELECT INDEXTYPE, ROUTINE, CALLS, ELAPSED_MICROS FROM V$ODCI_CALLS",
        "SELECT SQL_ID, ROWS_PROCESSED, ELAPSED_MICROS, SQL_TEXT FROM V$SQLSTATS \
         ORDER BY ELAPSED_MICROS DESC LIMIT 5",
        "SELECT SEQ, COMPONENT, ROUTINE, INDEXTYPE FROM V$TRACE ORDER BY SEQ LIMIT 8",
    ] {
        println!("\n{vtab}");
        for row in db.query(vtab)? {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("  {}", cells.join(" | "));
        }
    }

    println!("\n{}", db.trace_report());
    Ok(())
}

/// E14 — the cartridge sandbox end to end: injected panics at the fetch
/// crossing trip the circuit breaker, the index quarantines, queries
/// degrade to the functional fallback with identical answers, DML lands
/// in the pending-work log, and `ALTER INDEX … REBUILD` replays it and
/// restores the index — verified against a never-faulted twin.
fn e14_quarantine() -> Result<()> {
    use extidx_core::fault::FaultKind;
    use extidx_core::health::BreakerConfig;

    let docs = 2000;
    let seed = 17;
    let mut fx = text_fixture(docs, 40, 800, seed)?;
    let mut twin = text_fixture(docs, 40, 800, seed)?; // never faulted
    let db = &mut fx.db;
    db.trace().set_enabled(true);
    db.catalog().health.set_breaker(BreakerConfig { threshold: 3, window: 50 });

    let term = fx.gen.term(30).to_string();
    let forced = format!(
        "SELECT /*+ INDEX(docs doc_text) */ id FROM docs WHERE Contains(body, '{term}') ORDER BY id"
    );
    let plain = format!("SELECT id FROM docs WHERE Contains(body, '{term}') ORDER BY id");
    let reference = twin.db.query(&plain)?;
    println!("corpus: {docs} documents; probe term {term:?} matches {} rows\n", reference.len());

    // Three injected panics at ODCIIndexFetch trip the breaker.
    let inj = db.fault_injector().clone();
    for i in 1..=3 {
        inj.arm("ODCIIndexFetch", Some("TEXTINDEXTYPE"), 1, FaultKind::Panic);
        let err = db.query(&forced).expect_err("armed fetch must fault");
        inj.disarm_all();
        println!("fault {i}: {err}");
        println!("         health now {}", db.catalog().health.state("DOC_TEXT"));
    }

    // Degraded planning: the quarantined index vanishes from costing and
    // the functional fallback answers, flagged in EXPLAIN.
    println!("\nEXPLAIN {plain}");
    for line in db.explain(&plain)? {
        println!("  {line}");
    }
    let degraded_rows = db.query(&plain)?;
    assert_eq!(degraded_rows, reference, "fallback must answer identically");
    println!("\nfallback result agrees with the never-faulted twin ({} rows).", degraded_rows.len());

    // DML while quarantined: the base table changes, the index defers.
    db.execute(&format!("INSERT INTO docs VALUES (900100, '{term} quarantined arrival')"))?;
    twin.db.execute(&format!("INSERT INTO docs VALUES (900100, '{term} quarantined arrival')"))?;
    println!("\nV$INDEX_HEALTH after one deferred INSERT:");
    for row in db.query(
        "SELECT INDEX_NAME, STATE, RECENT_FAULTS, PENDING_OPS, NEEDS_FULL_REBUILD FROM V$INDEX_HEALTH",
    )? {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }

    // Recovery: replay the pending log, then compare against the twin.
    let t = Instant::now();
    db.execute("ALTER INDEX doc_text REBUILD")?;
    println!("\nALTER INDEX doc_text REBUILD: {} (state now {})", fmt_dur(t.elapsed()), db.catalog().health.state("DOC_TEXT"));
    let healed = db.query(&forced)?;
    let expected = twin.db.query(&plain)?;
    assert_eq!(healed, expected, "rebuilt index must agree with the never-faulted twin");
    println!("forced domain scan after REBUILD agrees with the twin ({} rows).", healed.len());

    println!("\nhealth transitions recorded in the call trace:");
    for e in db.trace().events() {
        if e.routine == "HealthTransition" {
            println!("  {e}");
        }
    }
    Ok(())
}

/// E15 — the batch executor: cold filtered full scan with zone-map
/// pruning on vs off, and cost-ordered conjunct evaluation on a
/// selective domain-operator query. (The row-at-a-time arm was retired
/// with the row path; its last measurement is kept in EXPERIMENTS.md.)
/// Emits `BENCH_*.json` for both workloads (see `emit_bench_json`).
/// Speedup floors are env-tunable so CI can tighten or relax them
/// without a rebuild; the defaults are the acceptance thresholds.
fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn e15_vectorized() -> Result<()> {
    let n: usize = std::env::var("E15_N").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000);
    let runs: usize = std::env::var("E15_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);

    // -- Part A: cold 100k-row filtered full scan -------------------------
    // Sequential ids cluster naturally per page, so zone maps prune ~99%
    // of pages for a narrow BETWEEN.
    let mut db = Database::with_cache_pages(32_768);
    db.execute("CREATE TABLE events (id INTEGER, val INTEGER, note VARCHAR2(64))")?;
    for i in 0..n {
        db.execute_with(
            "INSERT INTO events VALUES (?, ?, ?)",
            &[(i as i64).into(), ((i * 7 % 1000) as i64).into(), format!("event {i}").into()],
        )?;
    }
    db.execute("ANALYZE TABLE events")?;
    let lo = (n / 2) as i64;
    let hi = lo + (n / 100).max(1) as i64;
    let sql = format!("SELECT id, val FROM events WHERE id BETWEEN {lo} AND {hi}");
    let expect = db.query(&sql)?.len();
    println!("table: {n} rows; predicate selects {expect} (cold cache per run)\n");

    let cold_time = |db: &mut Database, sql: &str| {
        time_median(runs, || {
            db.cold_start();
            let got = db.query(sql).expect("scan").len();
            assert_eq!(got, expect, "pruning must not change the result");
        })
    };
    db.set_zone_pruning(false);
    let full_t = cold_time(&mut db, &sql);
    db.set_zone_pruning(true);
    let vec_t = cold_time(&mut db, &sql);

    let mut rep = Report::new(&["scan", "median", "rows/s", "speedup"]);
    let rate = |d: std::time::Duration| format!("{:.0}", n as f64 / d.as_secs_f64());
    rep.row(&["every page".into(), fmt_dur(full_t), rate(full_t), "1.0x".into()]);
    rep.row(&[
        "zone-map pruned".into(),
        fmt_dur(vec_t),
        rate(vec_t),
        format!("{:.1}x", full_t.as_secs_f64() / vec_t.as_secs_f64()),
    ]);
    rep.print();
    println!("\nEXPLAIN ANALYZE — note `pruned=` on the scan and batches≪rows:");
    for line in db.query(&format!("EXPLAIN ANALYZE {sql}"))? {
        println!("  {}", line[0]);
    }
    let path_a = extidx_bench::emit_bench_json("e15-cold-scan", vec_t, n as u64)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("\nwrote {path_a}");
    let floor_a = env_f64("E15_MIN_SCAN_SPEEDUP", 5.0);
    let speedup_a = full_t.as_secs_f64() / vec_t.as_secs_f64();
    assert!(
        speedup_a >= floor_a,
        "cold pruned scan speedup {speedup_a:.1}x below the {floor_a:.1}x floor"
    );

    // -- Part B: cost-ordered conjuncts on a domain-operator query --------
    // `Contains(...) AND id < K` with a forced full scan: source order
    // evaluates the functional Contains on every row; cost order runs the
    // cheap range first so the cartridge sees only ~5% of rows. Zone
    // pruning is off on both sides to isolate the term-ordering effect.
    let docs = (n / 33).clamp(300, 3000);
    let mut fx = text_fixture(docs, 40, 800, 7)?;
    let term = fx.gen.term(25).to_string();
    let k = (docs / 20).max(10);
    let sql_b = format!(
        "SELECT /*+ FULL(docs) */ id FROM docs WHERE Contains(body, '{term}') AND id < {k}"
    );
    let db = &mut fx.db;
    db.set_zone_pruning(false);
    let expect_b = db.query(&sql_b)?.len();
    println!(
        "\ncorpus: {docs} docs; {:?} AND id < {k} selects {expect_b} via functional fallback\n",
        term
    );
    let warm_time = |db: &mut Database, sql: &str| {
        time_median(runs, || {
            let got = db.query(sql).expect("filter").len();
            assert_eq!(got, expect_b, "term order must not change results");
        })
    };
    db.set_cost_ordered_terms(false);
    let src_t = warm_time(db, &sql_b);
    db.set_cost_ordered_terms(true);
    let ord_t = warm_time(db, &sql_b);

    let mut rep_b = Report::new(&["conjunct order", "median", "speedup"]);
    rep_b.row(&["source (Contains first)".into(), fmt_dur(src_t), "1.0x".into()]);
    rep_b.row(&[
        "cost-ordered (range first)".into(),
        fmt_dur(ord_t),
        format!("{:.1}x", src_t.as_secs_f64() / ord_t.as_secs_f64()),
    ]);
    rep_b.print();
    println!("\nEXPLAIN (cost-ordered) — terms print in evaluation order, op last:");
    for line in db.explain(&sql_b)? {
        println!("  {line}");
    }
    let path_b = extidx_bench::emit_bench_json("e15-cost-ordered", ord_t, docs as u64)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("\nwrote {path_b}");
    let floor_b = env_f64("E15_MIN_ORDER_SPEEDUP", 2.0);
    let speedup_b = src_t.as_secs_f64() / ord_t.as_secs_f64();
    assert!(
        speedup_b >= floor_b,
        "cost-ordered conjunct speedup {speedup_b:.1}x below the {floor_b:.1}x floor"
    );
    Ok(())
}

/// E16 — the durability tax and the recovery path: the same DML workload
/// with the WAL off vs on (every statement appends logical records plus
/// a commit marker), then checkpoint cost, WAL-replay recovery time, and
/// snapshot-restore recovery time after a checkpoint truncates the log.
/// Emits `BENCH_e16_wal_overhead.json` (the durable-run median).
fn e16_wal() -> Result<()> {
    use extidx_sql::DurableMedium;

    let n: usize = std::env::var("E16_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000);
    let runs: usize = std::env::var("E16_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);

    let load = |db: &mut Database| -> Result<()> {
        db.execute("CREATE TABLE wal_t (id INTEGER, val VARCHAR2(64))")?;
        for i in 0..n {
            db.execute_with(
                "INSERT INTO wal_t VALUES (?, ?)",
                &[(i as i64).into(), format!("payload {i}").into()],
            )?;
        }
        db.execute_with("DELETE FROM wal_t WHERE id >= ?", &[((n - n / 10) as i64).into()])?;
        Ok(())
    };

    println!("workload: CREATE + {n} bound INSERTs + 1 bulk DELETE per run\n");

    let base_t = time_median(runs, || {
        let mut db = Database::with_cache_pages(8192);
        load(&mut db).expect("baseline load");
    });
    let wal_t = time_median(runs, || {
        let mut db = Database::with_cache_pages(8192);
        db.enable_durability(DurableMedium::new()).expect("enable durability");
        load(&mut db).expect("durable load");
    });

    // One more durable run, kept alive to drive the recovery measurements.
    let mut db = Database::with_cache_pages(8192);
    let medium = DurableMedium::new();
    db.enable_durability(medium.clone()).expect("enable durability");
    load(&mut db)?;
    let stats = medium.stats();

    // Recovery by WAL replay (the checkpoint is the empty pre-load image).
    let (_, replay_t) = time_once(|| {
        let mut rec = Database::with_cache_pages(8192);
        rec.enable_durability(medium.clone()).expect("replay recovery");
        rec
    });
    // Checkpoint, then recovery by snapshot restore (WAL truncated).
    let (_, ckpt_t) = time_once(|| db.checkpoint().expect("checkpoint"));
    let tail = medium.stats().wal_len;
    let (_, restore_t) = time_once(|| {
        let mut rec = Database::with_cache_pages(8192);
        rec.enable_durability(medium.clone()).expect("snapshot recovery");
        rec
    });

    let overhead = wal_t.as_secs_f64() / base_t.as_secs_f64();
    let mut rep = Report::new(&["measurement", "median", "detail"]);
    rep.row(&["workload, durability off".into(), fmt_dur(base_t), "baseline".into()]);
    rep.row(&[
        "workload, durability on".into(),
        fmt_dur(wal_t),
        format!("{overhead:.2}x baseline"),
    ]);
    rep.row(&[
        "recovery: WAL replay".into(),
        fmt_dur(replay_t),
        format!("{} records, {} commits", stats.records_appended, stats.commits),
    ]);
    rep.row(&["checkpoint".into(), fmt_dur(ckpt_t), format!("WAL {} -> {tail}", stats.wal_len)]);
    rep.row(&["recovery: snapshot restore".into(), fmt_dur(restore_t), "post-checkpoint".into()]);
    rep.print();

    let path = extidx_bench::emit_bench_json("e16-wal-overhead", wal_t, n as u64)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("\nwrote {path}");

    let ceiling = env_f64("E16_MAX_OVERHEAD", 3.0);
    assert!(
        overhead <= ceiling,
        "durability overhead {overhead:.2}x above the {ceiling:.1}x ceiling"
    );
    println!("\nthe WAL is logical redo: one record per page-level mutation plus one commit");
    println!("marker per statement; a checkpoint truncates the log so recovery cost tracks");
    println!("the tail since the last checkpoint, not database size.");
    Ok(())
}

/// E17 — MVCC concurrency: aggregate read throughput of four reader
/// sessions while a writer transaction is in flight.
///
/// The contrast is the *lock model*, not core count (which also keeps
/// the experiment meaningful on a single-CPU host). A pre-MVCC engine
/// gives an open transaction exclusive access for its whole lifetime —
/// including the client think time between its statements — so readers
/// stall until COMMIT; the lock manager is writer-fair (FIFO), so
/// readers cannot starve the writer either. Under MVCC the same readers
/// pin snapshots and resolve version chains, paying nothing for the
/// writer's in-flight time.
///
/// Both configurations run the identical writer — `E17_TXNS`
/// transactions of one UPDATE, `E17_THINK_MS` of in-transaction think
/// time, then `E17_GAP_MS` between transactions — and count how many
/// range-COUNT reads four reader threads complete before it finishes.
/// In the big-lock configuration each read first waits out any open
/// transaction (Condvar on the transaction-scope lock); in the MVCC
/// configuration readers just run. Emits `BENCH_e17_mvcc.json` for the
/// MVCC run.
fn e17_mvcc() -> Result<()> {
    use extidx_sql::Server;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    const READERS: usize = 4;
    let n: usize = std::env::var("E17_N").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000);
    let txns: usize = std::env::var("E17_TXNS").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    let think_ms: u64 =
        std::env::var("E17_THINK_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let gap_ms: u64 = std::env::var("E17_GAP_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);

    let mut db = Database::with_cache_pages(8192);
    db.execute("CREATE TABLE m17 (id INTEGER, num INTEGER, pad VARCHAR2(64))")?;
    for i in 0..n {
        db.execute_with(
            "INSERT INTO m17 VALUES (?, ?, ?)",
            &[(i as i64).into(), ((i * 13 % 200) as i64).into(), format!("row pad {i}").into()],
        )?;
    }
    let server = Server::new(db);

    println!(
        "workload: {n} rows; writer runs {txns} transactions (one UPDATE, {think_ms}ms think \
         time in-txn, {gap_ms}ms between)\nwhile {READERS} reader threads issue range-COUNT \
         scans until it finishes\n"
    );

    // Reader-side gate for the big-lock configuration: a transaction is
    // modeled as open from its BEGIN until `gap_ms` after its COMMIT
    // (the next transaction arrives on that schedule from the client's
    // point of view). Readers enforce the window against the clock
    // rather than trusting the writer thread's wake-up latency, which on
    // a loaded single-CPU host can overshoot a short sleep several-fold
    // and would hand the baseline free read time it is not entitled to.
    struct Gate {
        open: bool,
        window_end: Instant,
    }

    let run = |big_lock: bool| -> (u64, Duration) {
        let gate = Mutex::new(Gate {
            open: false,
            window_end: Instant::now() + Duration::from_secs(3600),
        });
        let txn_closed = Condvar::new();
        let done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let mut writer = server.session();
            let gate_ref = &gate;
            let txn_closed_ref = &txn_closed;
            let done_ref = &done;
            scope.spawn(move || {
                for t in 0..txns {
                    gate_ref.lock().unwrap().open = true;
                    writer.execute("BEGIN").unwrap();
                    let id = (t * 7) % n;
                    writer
                        .execute(&format!("UPDATE m17 SET num = {} WHERE id = {id}", t % 200))
                        .unwrap();
                    // Client think time inside the open transaction: the
                    // interval MVCC reclaims and a big lock wastes.
                    std::thread::sleep(Duration::from_millis(think_ms));
                    writer.execute("COMMIT").unwrap();
                    {
                        let mut g = gate_ref.lock().unwrap();
                        g.open = false;
                        g.window_end = Instant::now() + Duration::from_millis(gap_ms);
                    }
                    txn_closed_ref.notify_all();
                    std::thread::sleep(Duration::from_millis(gap_ms));
                }
                done_ref.store(true, Ordering::SeqCst);
                txn_closed_ref.notify_all();
            });
            for r in 0..READERS {
                let mut sess = server.session();
                let gate_ref = &gate;
                let txn_closed_ref = &txn_closed;
                let done_ref = &done;
                let reads_ref = &reads;
                scope.spawn(move || {
                    let mut k = r * 1_000;
                    while !done_ref.load(Ordering::SeqCst) {
                        if big_lock {
                            let mut g = gate_ref.lock().unwrap();
                            while (g.open || Instant::now() >= g.window_end)
                                && !done_ref.load(Ordering::SeqCst)
                            {
                                g = txn_closed_ref.wait(g).unwrap();
                            }
                        }
                        let lo = (k * 37) % 160;
                        sess.query(&format!(
                            "SELECT COUNT(*) FROM m17 WHERE num >= {lo} AND num <= {}",
                            lo + 40
                        ))
                        .unwrap();
                        reads_ref.fetch_add(1, Ordering::Relaxed);
                        k += 1;
                    }
                });
            }
        });
        (reads.load(Ordering::SeqCst), started.elapsed())
    };

    let (lock_reads, lock_t) = run(true);
    let (mvcc_reads, mvcc_t) = run(false);
    let lock_qps = lock_reads as f64 / lock_t.as_secs_f64();
    let mvcc_qps = mvcc_reads as f64 / mvcc_t.as_secs_f64();
    let speedup = mvcc_qps / lock_qps;

    let mut rep = Report::new(&["configuration", "reads done", "wall time", "reads/s"]);
    rep.row(&[
        "big lock (readers wait out the txn)".into(),
        lock_reads.to_string(),
        fmt_dur(lock_t),
        format!("{lock_qps:.0}"),
    ]);
    rep.row(&[
        "MVCC (readers run against snapshots)".into(),
        mvcc_reads.to_string(),
        fmt_dur(mvcc_t),
        format!("{mvcc_qps:.0}"),
    ]);
    rep.row(&[
        "aggregate read speedup".into(),
        String::new(),
        String::new(),
        format!("{speedup:.2}x"),
    ]);
    rep.print();

    let path = extidx_bench::emit_bench_json("e17-mvcc", mvcc_t, mvcc_reads)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("\nwrote {path}");

    let floor = env_f64("E17_MIN_SPEEDUP", 2.0);
    assert!(
        speedup >= floor,
        "MVCC readers reached only {speedup:.2}x the big-lock throughput (floor {floor:.1}x)"
    );
    println!("\nan open transaction under a big lock excludes every reader until COMMIT;");
    println!("under MVCC the same readers pin snapshots and resolve version chains, so");
    println!("the writer's in-flight time — think time included — costs them nothing.");
    Ok(())
}

/// E18 — MVCC hardening (DESIGN.md §4k), two bounds:
///
/// Part A runs the incremental, horizon-keyed vacuum under a stream of
/// updates with at least one transaction open at every moment — the
/// system is never quiescent, yet chain occupancy must stay at a small
/// constant. Part B has two sessions maintain the *same* chemistry index
/// over disjoint rows: span-granular LOB conflict detection must abort
/// none of them. (The quiescence-only and whole-locator baseline arms
/// were retired with their engine flags; their last measurements are
/// kept in EXPERIMENTS.md.) Emits `BENCH_e18_vacuum.json`.
fn e18_vacuum() -> Result<()> {
    use extidx_sql::Server;

    let n: usize = std::env::var("E18_N").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let rounds: usize =
        std::env::var("E18_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let pairs: usize = std::env::var("E18_PAIRS").ok().and_then(|v| v.parse().ok()).unwrap_or(40);

    // -- Part A: chain occupancy without quiescence -----------------------
    let occupancy = |server: &Server| {
        server.read(|db| {
            db.storage().mvcc_segment_stats().iter().map(|(_, _, v)| *v).sum::<usize>()
        })
    };
    let (i_max, i_end, i_t) = {
        let mut db = Database::with_cache_pages(8192);
        db.execute("CREATE TABLE m18 (id INTEGER, num INTEGER)")?;
        for i in 0..n {
            db.execute_with("INSERT INTO m18 VALUES (?, ?)", &[(i as i64).into(), 0i64.into()])?;
        }
        // Pin vacuum to the commit path: E18 measures the vacuum
        // *policy*; placement (inline vs the maintenance daemon) is
        // E19's subject.
        let server = Server::with_config(db, extidx_sql::GovernorConfig::inline_vacuum());
        let mut a = server.session();
        let mut b = server.session();
        a.execute("BEGIN")?;
        let started = Instant::now();
        let mut max_held = 0usize;
        for r in 0..rounds {
            // Overlap before the older transaction retires: the system
            // is never quiescent, so only a horizon-keyed vacuum can run.
            let (open, closing) = if r % 2 == 0 { (&mut b, &mut a) } else { (&mut a, &mut b) };
            open.execute("BEGIN")?;
            closing.execute(&format!("UPDATE m18 SET num = {r} WHERE id = {}", r % n))?;
            closing.execute("COMMIT")?;
            max_held = max_held.max(occupancy(&server));
        }
        let at_end = occupancy(&server);
        let last = if (rounds - 1).is_multiple_of(2) { &mut b } else { &mut a };
        last.execute("COMMIT")?;
        (max_held, at_end, started.elapsed())
    };

    let mut rep =
        Report::new(&["vacuum policy", "max versions held", "versions after last round", "wall time"]);
    rep.row(&[
        "incremental (oldest-snapshot horizon)".into(),
        i_max.to_string(),
        i_end.to_string(),
        fmt_dur(i_t),
    ]);
    rep.print();

    let cap = env_f64("E18_MAX_HELD", 16.0) as usize;
    assert!(
        i_max <= cap,
        "incremental vacuum must bound chain occupancy (held {i_max}, cap {cap})"
    );

    // -- Part B: sub-LOB conflict granularity -----------------------------
    let (span_commits, span_aborts) = {
        let fx = chem_fixture(n.min(80), 5, ":Storage LOB")?;
        let server = Server::new(fx.db);
        let mut w1 = server.session();
        let mut w2 = server.session();
        let mut wl = MoleculeWorkload::new(9);
        let (mut commits, mut aborts) = (0u64, 0u64);
        let rows = fx.compounds;
        for p in 0..pairs {
            w1.execute("BEGIN")?;
            w2.execute("BEGIN")?;
            let (id1, id2) = ((2 * p) % rows, (2 * p + 1) % rows);
            let ok1 = w1
                .execute_with(
                    "UPDATE compounds SET mol = ? WHERE id = ?",
                    &[wl.molecule(12).into(), (id1 as i64).into()],
                )
                .is_ok();
            let ok2 = w2
                .execute_with(
                    "UPDATE compounds SET mol = ? WHERE id = ?",
                    &[wl.molecule(12).into(), (id2 as i64).into()],
                )
                .is_ok();
            for (s, ok) in [(&mut w1, ok1), (&mut w2, ok2)] {
                if !ok {
                    s.execute("ROLLBACK")?;
                    aborts += 1;
                } else if s.execute("COMMIT").is_ok() {
                    commits += 1;
                } else {
                    // A commit-time conflict already rolled the loser back.
                    aborts += 1;
                }
            }
        }
        (commits, aborts)
    };

    let mut rep = Report::new(&["LOB conflict granularity", "commits", "aborts"]);
    rep.row(&["byte-range spans".into(), span_commits.to_string(), span_aborts.to_string()]);
    rep.print();

    assert_eq!(
        span_aborts, 0,
        "disjoint-row maintenance of one index must not conflict at span granularity"
    );

    let path = extidx_bench::emit_bench_json("e18-vacuum", i_t, rounds as u64)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("\nwrote {path}");

    println!("\nthe vacuum prunes exactly the versions no live or future snapshot can see —");
    println!("min(active snapshot highs) is the horizon — so chains stay bounded while the");
    println!("system is busy; and two writers sharing one fingerprint LOB only collide when");
    println!("their byte ranges actually overlap, not merely because they share a locator.");
    Ok(())
}

/// E19 — server governor (DESIGN.md §4l): what the maintenance daemon
/// buys the *foreground* statement path. A pinned reader snapshot holds
/// the vacuum horizon over a large churned table, so several thousand
/// displaced versions stay unreclaimable and every vacuum pass has a
/// real chain scan to do; the foreground session then streams cheap
/// autocommit updates against a tiny hot table. With
/// `GovernorConfig::inline_vacuum()` (the PR 9 baseline) the chain scan
/// runs on every commit — inside each foreground statement — so tail
/// latency tracks occupancy; with the daemon on, the same maintenance
/// runs on its own thread and the foreground path never pays it.
/// Watermarks are raised so backpressure stays out of both runs (it is
/// its own mechanism, tested in tests/server_governor.rs); the daemon
/// interval is long enough that a mid-loop pass cannot also skew the
/// daemon-side p99 via lock collision. Emits `BENCH_e19_governor.json`
/// for the daemon-on run's p99.
fn e19_governor() -> Result<()> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use extidx_sql::{GovernorConfig, Server};

    let churn: usize =
        std::env::var("E19_CHURN").ok().and_then(|v| v.parse().ok()).unwrap_or(4000);
    let rounds: usize =
        std::env::var("E19_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(500);

    let percentile = |sorted: &[Duration], q: f64| -> Duration {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };

    // One measured run: returns (p50, p99, daemon passes, wall time).
    let run_mode = |daemon: bool| -> Result<(Duration, Duration, u64, Duration)> {
        let config = GovernorConfig {
            daemon,
            interval: Duration::from_millis(100),
            high_water_versions: usize::MAX,
            high_water_chain: usize::MAX,
            low_water_versions: usize::MAX,
            ..GovernorConfig::default()
        };
        let mut db = Database::with_cache_pages(8192);
        db.execute("CREATE TABLE churn19 (id INTEGER, num INTEGER)")?;
        db.execute("CREATE TABLE hot19 (id INTEGER, num INTEGER)")?;
        for i in 0..churn {
            db.execute_with(
                "INSERT INTO churn19 VALUES (?, ?)",
                &[(i as i64).into(), 0i64.into()],
            )?;
        }
        for i in 0..8i64 {
            db.execute_with("INSERT INTO hot19 VALUES (?, ?)", &[i.into(), 0i64.into()])?;
        }
        let server = Server::with_config(db, config);
        let mut pin = server.session();
        let mut fg = server.session();
        // The pinned snapshot holds the vacuum horizon below the churn:
        // the displaced versions built next survive every vacuum pass of
        // the run, so each pass — inline or daemon — walks the full chain
        // set without being able to reclaim it. That standing scan is
        // exactly the cost the daemon is supposed to take off the
        // statement path.
        pin.execute("BEGIN")?;
        pin.query("SELECT COUNT(*) FROM churn19")?;
        for _ in 0..2 {
            fg.execute("UPDATE churn19 SET num = num + 1")?;
        }
        let started = Instant::now();
        let mut lat = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let sql = format!("UPDATE hot19 SET num = num + 1 WHERE id = {}", r % 8);
            let t = Instant::now();
            fg.execute(&sql)?;
            lat.push(t.elapsed());
        }
        let wall = started.elapsed();
        pin.execute("COMMIT")?;
        let passes = if daemon {
            // The loop may finish inside one daemon interval; make sure
            // at least one pass lands before we read the counter.
            let governor = server.governor();
            let deadline = Instant::now() + Duration::from_secs(5);
            while governor.counters.daemon_passes.load(Ordering::Relaxed) == 0
                && Instant::now() < deadline
            {
                governor.wake_daemon();
                std::thread::sleep(Duration::from_millis(1));
            }
            governor.counters.daemon_passes.load(Ordering::Relaxed)
        } else {
            0
        };
        lat.sort();
        Ok((percentile(&lat, 0.50), percentile(&lat, 0.99), passes, wall))
    };

    let (i_p50, i_p99, _, i_wall) = run_mode(false)?;
    let (d_p50, d_p99, d_passes, d_wall) = run_mode(true)?;

    let mut rep = Report::new(&[
        "vacuum placement", "p50 statement", "p99 statement", "daemon passes", "wall time",
    ]);
    rep.row(&[
        "inline on every commit (baseline)".into(),
        fmt_dur(i_p50),
        fmt_dur(i_p99),
        "-".into(),
        fmt_dur(i_wall),
    ]);
    rep.row(&[
        "maintenance daemon (background)".into(),
        fmt_dur(d_p50),
        fmt_dur(d_p99),
        d_passes.to_string(),
        fmt_dur(d_wall),
    ]);
    rep.print();

    assert!(d_passes > 0, "the daemon must complete at least one maintenance pass");
    let ratio = i_p99.as_secs_f64() / d_p99.as_secs_f64().max(1e-9);
    let floor = env_f64("E19_MIN_P99_RATIO", 2.0);
    println!("\nforeground p99 ratio (inline / daemon): {ratio:.2}x (floor {floor:.1}x)");
    assert!(
        ratio >= floor,
        "daemon must beat inline vacuum on foreground p99: {ratio:.2}x < {floor:.1}x \
         (inline {i_p99:?}, daemon {d_p99:?})"
    );

    let path = extidx_bench::emit_bench_json("e19-governor", d_p99, rounds as u64)
        .map_err(|e| extidx_common::Error::Storage(e.to_string()))?;
    println!("wrote {path}");

    println!("\nmaintenance cost scales with chain occupancy, not with the statement that");
    println!("happens to trigger it; moving the vacuum to a server-owned daemon thread");
    println!("takes that scan off the foreground commit path, so statement tail latency");
    println!("stays flat while the pinned snapshot forces occupancy to keep growing.");
    Ok(())
}
