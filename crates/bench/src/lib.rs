//! # extidx-bench — the experiment harness
//!
//! Shared workload builders and reporting helpers for the paper's
//! experiments (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded results). The `repro` binary drives each
//! experiment and asserts the paper's claims as counts and plan shapes;
//! the timings it prints are information only. Measured wall-clock
//! numbers and regression bounds live in one place, the perf ledger
//! (`ledger/`, BENCHMARK.json).

use std::time::{Duration, Instant};

use extidx_chem::MoleculeWorkload;
use extidx_common::Result;
use extidx_spatial::{Geometry, SpatialWorkload};
use extidx_sql::Database;
use extidx_text::CorpusGenerator;
use extidx_vir::{Signature, SignatureWorkload};

/// A text-search fixture: indexed corpus plus its generator (for
/// selectivity-controlled query terms).
pub struct TextFixture {
    pub db: Database,
    pub gen: CorpusGenerator,
    pub docs: usize,
}

/// Build a text database: `docs` documents of `doc_len` Zipfian terms,
/// indexed by the text cartridge.
pub fn text_fixture(docs: usize, doc_len: usize, vocab: usize, seed: u64) -> Result<TextFixture> {
    text_fixture_with_params(docs, doc_len, vocab, seed, "")
}

/// A text fixture with explicit index PARAMETERS (scan mode, stop words).
pub fn text_fixture_with_params(
    docs: usize,
    doc_len: usize,
    vocab: usize,
    seed: u64,
    params: &str,
) -> Result<TextFixture> {
    let mut db = Database::with_cache_pages(32_768);
    extidx_text::install(&mut db)?;
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")?;
    let mut gen = CorpusGenerator::new(vocab, 1.0, seed);
    for (i, body) in gen.corpus(docs, doc_len).into_iter().enumerate() {
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[(i as i64).into(), body.into()])?;
    }
    db.execute(&format!(
        "CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType PARAMETERS ('{params}')"
    ))?;
    db.execute("ANALYZE TABLE docs")?;
    Ok(TextFixture { db, gen, docs })
}

/// A text corpus WITHOUT its domain index — the index-build experiments
/// (E10) create and drop the index around each measurement, varying the
/// `PARALLEL` degree.
pub fn text_corpus(docs: usize, doc_len: usize, vocab: usize, seed: u64) -> Result<Database> {
    let mut db = Database::with_cache_pages(32_768);
    extidx_text::install(&mut db)?;
    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")?;
    let mut gen = CorpusGenerator::new(vocab, 1.0, seed);
    for (i, body) in gen.corpus(docs, doc_len).into_iter().enumerate() {
        db.execute_with("INSERT INTO docs VALUES (?, ?)", &[(i as i64).into(), body.into()])?;
    }
    Ok(db)
}

/// A spatial fixture: two indexed layers of `n` rectangles each.
pub struct SpatialFixture {
    pub db: Database,
    pub roads: Vec<Geometry>,
    pub parks: Vec<Geometry>,
}

/// Build the roads/parks layers (E3).
pub fn spatial_fixture(n: usize, seed: u64) -> Result<SpatialFixture> {
    let mut db = Database::with_cache_pages(32_768);
    extidx_spatial::install(&mut db)?;
    let mut wl = SpatialWorkload::new(1024.0, seed);
    let roads: Vec<Geometry> = (0..n).map(|_| wl.rect(5.0, 60.0)).collect();
    let parks: Vec<Geometry> = (0..n).map(|_| wl.rect(5.0, 60.0)).collect();
    for (table, geoms) in [("roads", &roads), ("parks", &parks)] {
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)"))?;
        for (i, g) in geoms.iter().enumerate() {
            db.execute(&format!(
                "INSERT INTO {table} VALUES ({i}, {})",
                extidx_spatial::geometry_sql(g)
            ))?;
        }
        db.execute(&format!(
            "CREATE INDEX {table}_sidx ON {table}(geometry) INDEXTYPE IS SpatialIndexType"
        ))?;
    }
    Ok(SpatialFixture { db, roads, parks })
}

/// A VIR fixture: `n` images plus planted near-duplicates of `query`.
pub struct VirFixture {
    pub db: Database,
    pub query: Signature,
    pub planted: usize,
}

/// Build the image table (E4); `indexed` controls whether the domain
/// index exists (the baseline is the unindexed full comparison).
pub fn vir_fixture(n: usize, planted: usize, seed: u64, indexed: bool) -> Result<VirFixture> {
    let mut db = Database::with_cache_pages(32_768);
    extidx_vir::install(&mut db)?;
    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)")?;
    let mut wl = SignatureWorkload::new(seed);
    let query = wl.random();
    for i in 0..n {
        let sig = wl.random();
        db.execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[(i as i64).into(), sig.serialize().into()],
        )?;
    }
    for d in 0..planted {
        let dup = wl.near_duplicate(&query, 0.8);
        db.execute_with(
            "INSERT INTO images VALUES (?, VIR_IMAGE(?))",
            &[((n + d) as i64).into(), dup.serialize().into()],
        )?;
    }
    if indexed {
        db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType")?;
    }
    Ok(VirFixture { db, query, planted })
}

/// A chemistry fixture in a given storage mode (E5).
pub struct ChemFixture {
    pub db: Database,
}

/// Build a compound library indexed under `storage_params`
/// (`":Storage LOB"` or `":Storage FILE"`), with planted amide-bearing
/// molecules so substructure searches have hits.
pub fn chem_fixture(n: usize, seed: u64, storage_params: &str) -> Result<ChemFixture> {
    let mut db = Database::with_cache_pages(32_768);
    extidx_chem::install(&mut db)?;
    db.execute("CREATE TABLE compounds (id INTEGER, mol VARCHAR2(256))")?;
    let mut wl = MoleculeWorkload::new(seed);
    for i in 0..n {
        let m = if i % 20 == 0 { wl.molecule_containing("CC(=O)N", 6) } else { wl.molecule(12) };
        db.execute_with("INSERT INTO compounds VALUES (?, ?)", &[(i as i64).into(), m.into()])?;
    }
    db.execute(&format!(
        "CREATE INDEX cidx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS ('{storage_params}')"
    ))?;
    Ok(ChemFixture { db })
}

// ---------------------------------------------------------------------------
// measurement + reporting helpers
// ---------------------------------------------------------------------------

/// Median wall time of `runs` executions (plus one discarded warmup).
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    f(); // warmup
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Render a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

/// A minimal fixed-width table printer for experiment reports.
pub struct Report {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// New report with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Report { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "report row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print the table.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("  {s}");
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for r in &self.rows {
            line(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let t = text_fixture(50, 20, 100, 1).unwrap();
        assert_eq!(t.docs, 50);
        let s = spatial_fixture(20, 2).unwrap();
        assert_eq!(s.roads.len(), 20);
        let mut v = vir_fixture(30, 2, 3, true).unwrap();
        assert_eq!(v.planted, 2);
        assert_eq!(
            v.db.query("SELECT COUNT(*) FROM images").unwrap()[0][0],
            extidx_common::Value::Integer(32)
        );
        let mut c = chem_fixture(40, 4, ":Storage LOB").unwrap();
        assert_eq!(
            c.db.query("SELECT COUNT(*) FROM compounds").unwrap()[0][0],
            extidx_common::Value::Integer(40)
        );
    }

    #[test]
    fn timing_helpers() {
        let _ = time_median(3, || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(fmt_dur(Duration::from_millis(1500)), "1.50s");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.50ms");
        assert!(fmt_dur(Duration::from_nanos(500)).ends_with("µs"));
    }

    #[test]
    fn report_shape_enforced() {
        let mut r = Report::new(&["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.print();
    }
}
