//! `repro` — the paper-claims reporter: regenerate every figure/claim in
//! the paper's evaluation (the EXPERIMENTS.md tables for E1–E14).
//!
//! It asserts result equivalences and count / plan-shape claims only.
//! Printed timings are information: no assertion reads a `Duration`, and
//! nothing here is a perf gate — wall-clock regressions are the ledger's
//! job (`ledger/`, BENCHMARK.json).
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
//! repro all               everything above
//! ```
//!
//! Absolute numbers will differ from the 1999 testbed; the *shapes* (who
//! wins, by what factor, where the crossovers are) are the reproduction
//! targets recorded in EXPERIMENTS.md.

use std::time::Instant;

use extidx_bench::{fmt_dur, spatial_fixture, text_corpus, text_fixture, text_fixture_with_params, time_median, vir_fixture, chem_fixture, Report};
use extidx_chem::MoleculeWorkload;
use extidx_common::Result;
use extidx_spatial::Mask;
use extidx_sql::Database;
use extidx_text::legacy as text_legacy;
use extidx_spatial::legacy as spatial_legacy;

/// A subcommand name and the experiment it runs.
type Experiment = (&'static str, fn() -> Result<()>);

/// Every experiment, in `repro all` order. The one list of names: a
/// name not in it (a retired `e15-vectorized`, a typo) is rejected with
/// the usage text instead of silently running nothing.
const EXPERIMENTS: &[Experiment] = &[
    ("e1-architecture", e1_architecture),
    ("e2-text", e2_text),
    ("e3-spatial", e3_spatial),
    ("e4-vir", e4_vir),
    ("e5-chem", e5_chem),
    ("e6-optimizer", e6_optimizer),
    ("e7-scan-modes", e7_scan_modes),
    ("e8-batch", e8_batch),
    ("e9-events", e9_events),
    ("e10-build", e10_build),
    ("e13-observe", e13_observe),
    ("e14-quarantine", e14_quarantine),
];

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if cmd != "all" && !EXPERIMENTS.iter().any(|(name, _)| *name == cmd) {
        eprintln!("unknown experiment {cmd:?}");
        eprintln!("usage: repro [all | <experiment>], where <experiment> is one of:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    for (name, f) in EXPERIMENTS {
        if cmd == *name || cmd == "all" {
            println!("\n================================================================");
            println!("{name}");
            println!("================================================================");
            if let Err(e) = f() {
                eprintln!("experiment {name} failed: {e}");
                std::process::exit(1);
            }
        }
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
    // The §2.4.2 claim as a plan shape: the same query flips access path
    // as the relational predicate's selectivity moves. The two ends are
    // asserted; where the crossover falls in between is reported.
    for (pred, label, expect) in [
        ("id = 100", "equality (very selective)", Some("BTREE ACCESS")),
        ("id BETWEEN 100 AND 140", "narrow range", None),
        ("id BETWEEN 100 AND 2100", "wide range", None),
        ("id > 0", "non-selective", Some("DOMAIN INDEX SCAN")),
    ] {
        let sql = format!("SELECT id FROM docs WHERE Contains(body, '{term}') AND {pred}");
        let plan = db.explain(&sql)?.join(" | ");
        if let Some(shape) = expect {
            assert!(plan.contains(shape), "{pred}: expected {shape}, planned {plan}");
        }
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

/// `ODCIIndexFetch` crossings one execution of `sql` makes, read from the
/// call trace (left disabled afterwards so timed runs do not pay for it).
fn fetch_calls(db: &mut Database, sql: &str) -> Result<usize> {
    db.trace().set_enabled(true);
    db.trace().clear();
    db.query(sql)?;
    let fetches = db.trace().routine_sequence().iter().filter(|r| **r == "ODCIIndexFetch").count();
    db.trace().set_enabled(false);
    Ok(fetches)
}

/// E7 — §2.2.3: Precompute-All vs Incremental scan modes: full-drain
/// throughput vs LIMIT-k first-rows latency, and the Fetch crossings
/// behind each.
fn e7_scan_modes() -> Result<()> {
    let docs = 6000;
    let mut rep = Report::new(&[
        "scan mode", "query", "all rows", "LIMIT 10", "Fetch calls (all)", "Fetch calls (LIMIT 10)",
    ]);
    for mode in ["PRECOMPUTE", "INCREMENTAL"] {
        let mut fx = text_fixture_with_params(docs, 60, 2000, 42, &format!(":ScanMode {mode}"))?;
        // A conjunctive query over two common terms: Precompute-All
        // intersects and ranks the full result in ODCIIndexStart;
        // Incremental checks candidates only as fetches demand them.
        let q = format!("{} AND {}", fx.gen.term(3), fx.gen.term(5));
        let db = &mut fx.db;
        // Two common terms are unselective, so costing alone picks a full
        // scan with functional Contains; the scan modes only exist on the
        // index path, hence the hint.
        let all_sql = format!(
            "SELECT /*+ INDEX(docs doc_text) */ id FROM docs WHERE Contains(body, '{q}')"
        );
        let lim_sql = format!("{all_sql} LIMIT 10");
        let all = time_median(3, || {
            db.query(&all_sql).expect("full drain");
        });
        let lim = time_median(3, || {
            db.query(&lim_sql).expect("limited");
        });
        let all_fetches = fetch_calls(db, &all_sql)?;
        let lim_fetches = fetch_calls(db, &lim_sql)?;
        assert!(
            lim_fetches < all_fetches,
            "{mode}: a scan under LIMIT must stop fetching early: \
             {lim_fetches} crossings vs {all_fetches} for the full drain"
        );
        rep.row(&[
            mode.to_string(),
            q.clone(),
            fmt_dur(all),
            fmt_dur(lim),
            all_fetches.to_string(),
            lim_fetches.to_string(),
        ]);
    }
    rep.print();
    println!("\npaper: Precompute-All suits ranking operators (it sorts everything up");
    println!("front); Incremental Computation returns candidates \"a set at a time\" —");
    println!("visible in the Fetch-call columns: under LIMIT the scan is closed after one");
    println!("crossing. Both modes read their posting lists in ODCIIndexStart, which is");
    println!("most of the time here, so the wall-clock gap under LIMIT is small.");
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
    let mut sweep = Vec::new();
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        db.set_batch_size(batch);
        let fetches = fetch_calls(db, &sql)?;
        let d = time_median(3, || {
            db.query(&sql).expect("batch sweep");
        });
        rep.row(&[batch.to_string(), fetches.to_string(), fmt_dur(d)]);
        sweep.push(fetches);
    }
    db.set_batch_size(32);
    rep.print();
    // The §2.5 claim as a count: a larger batch never costs more
    // crossings, and the largest costs strictly fewer than row-at-a-time.
    assert!(sweep.windows(2).all(|w| w[1] <= w[0]), "Fetch calls must not rise: {sweep:?}");
    assert!(sweep.last() < sweep.first(), "batch 1024 must beat batch 1: {sweep:?}");
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
