//! Fixture builders shared by the four workloads: the five-indextype
//! domain tables (E2–E5's data, all in one database) and the plain
//! relational tables. Everything is derived from the run's seed.

use extidx_chem::MoleculeWorkload;
use extidx_common::Result;
use extidx_spatial::{geometry_sql, Geometry, SpatialWorkload};
use extidx_sql::Database;
use extidx_text::CorpusGenerator;
use extidx_vir::{Signature, SignatureWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input sizes. `full()` is what `BENCHMARK.json` records; `smoke()` is
/// the same shape small enough for the smoke test.
#[derive(Debug, Clone)]
pub struct Size {
    /// `domain_read`: E2–E5 sizes.
    pub read: DomainSizes,
    /// `dml_durable`: the same tables, smaller, so a checkpoint (a
    /// whole-engine snapshot) stays a spike, not a stall.
    pub write: DomainSizes,
    /// `mixed_sessions`: smaller again. While a segment carries version
    /// chains every snapshot read of it walks the whole segment, so
    /// index-table size sets statement cost; at these sizes the slowest
    /// statement stays near 1 % of a measurement window.
    pub mixed: DomainSizes,
    /// `relational_scan_cold`: heap rows, IOT rows, buffer-cache pages.
    pub rel_rows: usize,
    pub rel_iot_rows: usize,
    pub rel_cache_pages: usize,
    /// `mixed_sessions`: rows of the `accounts` table (≫ 2 clients).
    pub accounts: usize,
    /// `dml_durable`: operations between checkpoints.
    pub checkpoint_every: usize,
    /// Operations of the fixed-count traced pass, per client.
    pub traced_ops: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct DomainSizes {
    pub docs: usize,
    pub doc_len: usize,
    pub vocab: usize,
    pub rects: usize,
    pub images: usize,
    pub compounds: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            read: DomainSizes { docs: 6000, doc_len: 40, vocab: 2000, rects: 600, images: 8000, compounds: 10_000 },
            write: DomainSizes { docs: 1500, doc_len: 20, vocab: 2000, rects: 400, images: 1000, compounds: 1500 },
            mixed: DomainSizes { docs: 300, doc_len: 12, vocab: 1000, rects: 200, images: 400, compounds: 400 },
            rel_rows: 80_000,
            rel_iot_rows: 20_000,
            rel_cache_pages: 64,
            accounts: 20_000,
            checkpoint_every: 400,
            traced_ops: 800,
        }
    }

    pub fn smoke() -> Size {
        Size {
            read: DomainSizes { docs: 300, doc_len: 20, vocab: 400, rects: 60, images: 300, compounds: 300 },
            write: DomainSizes { docs: 120, doc_len: 12, vocab: 400, rects: 60, images: 100, compounds: 120 },
            mixed: DomainSizes { docs: 80, doc_len: 8, vocab: 400, rects: 40, images: 80, compounds: 80 },
            rel_rows: 6000,
            rel_iot_rows: 1500,
            rel_cache_pages: 4,
            accounts: 1500,
            checkpoint_every: 60,
            traced_ops: 80,
        }
    }
}

/// Independent sub-seed `n` of a run seed (splitmix64 finalizer), so each
/// generator gets its own stream.
pub fn sub_seed(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Weights and threshold of every `VirSimilar` call (E4's).
pub const VIR_WEIGHTS: &str = "globalcolor=0.5, localcolor=0.0, texture=0.5, structure=0.0";
pub const VIR_THRESHOLD: f64 = 3.0;
/// Fragments planted in the compound library so substructure searches hit.
pub const CHEM_FRAGMENTS: [&str; 2] = ["CC(=O)N", "OC(=S)C"];
/// How many distinct images have planted near-duplicates.
pub const VIR_BASES: usize = 3;

/// The seeded generators behind the domain tables; workloads keep using
/// them for query parameters and new rows.
pub struct DomainData {
    pub sizes: DomainSizes,
    pub corpus: CorpusGenerator,
    pub spatial: SpatialWorkload,
    pub sigs: SignatureWorkload,
    pub mols: MoleculeWorkload,
    pub vir_bases: Vec<Signature>,
    pub rng: StdRng,
}

impl DomainData {
    pub fn doc(&mut self) -> String {
        self.corpus.document(self.sizes.doc_len)
    }

    pub fn rect_sql(&mut self) -> String {
        geometry_sql(&self.spatial.rect(5.0, 60.0))
    }

    /// A query window of `side` × `side`.
    pub fn window_sql(&mut self, side: f64) -> String {
        geometry_sql(&self.spatial.rect(side, side))
    }

    /// One image signature: one in 25 is a near-duplicate of a base.
    pub fn image(&mut self) -> String {
        if self.rng.gen_range(0..25) == 0 {
            let b = self.rng.gen_range(0..self.vir_bases.len());
            let base = self.vir_bases[b].clone();
            self.sigs.near_duplicate(&base, 0.8).serialize()
        } else {
            self.sigs.random().serialize()
        }
    }

    /// One molecule: one in 20 carries a planted fragment.
    pub fn molecule(&mut self) -> String {
        if self.rng.gen_range(0..20) == 0 {
            let f = CHEM_FRAGMENTS[self.rng.gen_range(0..CHEM_FRAGMENTS.len())];
            self.mols.molecule_containing(f, 6)
        } else {
            self.mols.molecule(12)
        }
    }

    /// A new value for the indexed column of `table`, as a SQL literal.
    pub fn value_sql(&mut self, table: &str) -> String {
        match table {
            "docs" => format!("'{}'", self.doc()),
            "images" => format!("VIR_IMAGE('{}')", self.image()),
            "compounds" => format!("'{}'", self.molecule()),
            _ => self.rect_sql(),
        }
    }
}

/// Install all four cartridges (five indextypes).
pub fn install_all(db: &mut Database) -> Result<()> {
    extidx_text::install(db)?;
    extidx_spatial::install(db)?;
    extidx_vir::install(db)?;
    extidx_chem::install(db)
}

/// `INSERT` of one `(key, value)` row; `value` is a SQL literal.
pub fn insert_sql(table: &str, id: usize, value: &str) -> String {
    format!("INSERT INTO {table} VALUES ({id}, {value})")
}

/// Spatial tables: `(name, indextype)`. `parks*` exist only where the
/// roads⋈parks domain join runs.
pub fn spatial_tables(with_parks: bool) -> Vec<(&'static str, &'static str)> {
    let mut t = vec![("roads", "SpatialIndexType"), ("roads_r", "RtreeIndexType")];
    if with_parks {
        t.extend([("parks", "SpatialIndexType"), ("parks_r", "RtreeIndexType")]);
    }
    t
}

/// The seeded generators alone, without loading a table.
pub fn generators(sizes: DomainSizes, seed: u64) -> DomainData {
    let mut sigs = SignatureWorkload::new(sub_seed(seed, 3));
    let vir_bases = (0..VIR_BASES).map(|_| sigs.random()).collect();
    DomainData {
        sizes,
        corpus: CorpusGenerator::new(sizes.vocab, 1.0, sub_seed(seed, 1)),
        spatial: SpatialWorkload::new(1024.0, sub_seed(seed, 2)),
        sigs,
        mols: MoleculeWorkload::new(sub_seed(seed, 4)),
        vir_bases,
        rng: StdRng::seed_from_u64(sub_seed(seed, 5)),
    }
}

/// Load the domain tables and create their five kinds of domain index.
/// The `_r` tables hold the same geometries as their twins, indexed by
/// the R-tree instead of tiles (§3.2.2's algorithm swap).
pub fn load_domain(db: &mut Database, sizes: DomainSizes, seed: u64, with_parks: bool) -> Result<DomainData> {
    let mut d = generators(sizes, seed);

    db.execute("CREATE TABLE docs (id INTEGER, body VARCHAR2(4000))")?;
    for i in 0..sizes.docs {
        db.execute(&insert_sql("docs", i, &d.value_sql("docs")))?;
    }
    db.execute("CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType")?;

    let layers: Vec<Vec<Geometry>> =
        (0..2).map(|_| (0..sizes.rects).map(|_| d.spatial.rect(5.0, 60.0)).collect()).collect();
    for (table, indextype) in spatial_tables(with_parks) {
        let geoms = &layers[usize::from(table.starts_with("parks"))];
        db.execute(&format!("CREATE TABLE {table} (gid INTEGER, geometry SDO_GEOMETRY)"))?;
        for (i, g) in geoms.iter().enumerate() {
            db.execute(&insert_sql(table, i, &geometry_sql(g)))?;
        }
        db.execute(&format!("CREATE INDEX {table}_sidx ON {table}(geometry) INDEXTYPE IS {indextype}"))?;
    }

    db.execute("CREATE TABLE images (id INTEGER, img VIR_IMAGE)")?;
    for i in 0..sizes.images {
        db.execute(&insert_sql("images", i, &d.value_sql("images")))?;
    }
    db.execute("CREATE INDEX img_idx ON images(img) INDEXTYPE IS VirIndexType")?;

    db.execute("CREATE TABLE compounds (id INTEGER, mol VARCHAR2(256))")?;
    for i in 0..sizes.compounds {
        db.execute(&insert_sql("compounds", i, &d.value_sql("compounds")))?;
    }
    // The paper's write claim (§3.2.4) is about the LOB-resident store.
    db.execute("CREATE INDEX cidx ON compounds(mol) INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB')")?;

    for t in ["docs", "images", "compounds"] {
        db.execute(&format!("ANALYZE TABLE {t}"))?;
    }
    for (t, _) in spatial_tables(with_parks) {
        db.execute(&format!("ANALYZE TABLE {t}"))?;
    }
    Ok(d)
}

/// `val` of row `i` of `events` — the closed form the expected answers
/// of `relational_scan_cold` are computed from.
pub fn event_val(i: usize) -> i64 {
    (i as i64 * 7919) % 1000
}

/// Number of `grp` values in `events` and rows in `dims`.
pub const GROUPS: usize = 50;
/// `seq` values per `k` in the `kv` IOT.
pub const KV_SEQS: usize = 4;

/// Load the plain relational tables: `events` (heap; `ts` is clustered
/// and unindexed so range predicates are zone-prunable, `id` carries a
/// B-tree), `dims` (the hash-join build side) and `kv` (an IOT).
pub fn load_relational(db: &mut Database, rows: usize, iot_rows: usize) -> Result<()> {
    db.execute("CREATE TABLE events (id INTEGER, ts INTEGER, val INTEGER, grp INTEGER, note VARCHAR2(64))")?;
    for i in 0..rows {
        db.execute(&format!(
            "INSERT INTO events VALUES ({i}, {i}, {}, {}, 'event number {i}')",
            event_val(i),
            i % GROUPS
        ))?;
    }
    db.execute("CREATE INDEX events_id ON events(id)")?;
    db.execute("CREATE TABLE dims (grp INTEGER, weight INTEGER, name VARCHAR2(32))")?;
    for g in 0..GROUPS {
        db.execute(&format!("INSERT INTO dims VALUES ({g}, {}, 'group {g}')", g * 3))?;
    }
    db.execute("CREATE TABLE kv (k INTEGER, seq INTEGER, v VARCHAR2(32), PRIMARY KEY (k, seq)) ORGANIZATION INDEX")?;
    for i in 0..iot_rows {
        db.execute(&format!("INSERT INTO kv VALUES ({}, {}, 'value {i}')", i / KV_SEQS, i % KV_SEQS))?;
    }
    for t in ["events", "dims", "kv"] {
        db.execute(&format!("ANALYZE TABLE {t}"))?;
    }
    Ok(())
}

/// A Zipf(1) sampler over `0..n` (rank 0 most frequent).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / (i + 1) as f64;
            cumulative.push(sum);
        }
        cumulative.iter_mut().for_each(|c| *c /= sum);
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.gen();
        self.cumulative.partition_point(|c| *c < x).min(self.cumulative.len() - 1)
    }
}
