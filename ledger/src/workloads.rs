//! The four workloads: fixture set-up, seeded operation streams, and the
//! end-of-run answer checks. `ledger/README.md` says why each exists.

use std::collections::VecDeque;
use std::time::Instant;

use extidx_common::{Error, Result};
use extidx_sql::{Database, DurableMedium, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::{
    self, event_val, insert_sql, load_domain, load_relational, sub_seed, DomainData, Size, Zipf, CHEM_FRAGMENTS,
    GROUPS, KV_SEQS, VIR_THRESHOLD, VIR_WEIGHTS,
};
use crate::ops::{wrong_answer, Client, Expect, Op};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DomainRead,
    RelationalScanCold,
    DmlDurable,
    MixedSessions,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::DomainRead, Workload::RelationalScanCold, Workload::DmlDurable, Workload::MixedSessions];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DomainRead => "domain_read",
            Workload::RelationalScanCold => "relational_scan_cold",
            Workload::DmlDurable => "dml_durable",
            Workload::MixedSessions => "mixed_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where the clients send their statements.
pub enum Target {
    Db(Box<Database>),
    Server(Server),
}

/// A seeded, endless operation stream of one client.
pub type OpStream = Box<dyn FnMut() -> Op + Send>;

/// A built workload: the engine, one stream per client, and what set-up
/// learned about its sizes.
pub struct Fixture {
    pub workload: Workload,
    pub target: Target,
    pub streams: Vec<OpStream>,
    pub medium: Option<DurableMedium>,
    /// Recorded input facts (sizes, page counts) for the report.
    pub facts: Vec<(&'static str, f64)>,
    /// `mixed_sessions`: `SUM(bal)` at set-up, the invariant.
    balance_sum: i64,
}

impl Fixture {
    /// Exclusive engine access, whichever the target.
    pub fn with_db<T>(&mut self, f: impl FnOnce(&mut Database) -> T) -> T {
        match &mut self.target {
            Target::Db(db) => f(db),
            Target::Server(s) => s.admin(f),
        }
    }
}

/// How a fixture is built.
#[derive(Debug, Clone, Copy)]
pub struct SetupOpts {
    /// Attach the WAL. Honoured by the two write workloads only; the
    /// layer pass turns it off once to price the WAL.
    pub durable: bool,
    /// Record the engine's `CallTrace` during set-up (index DDL time).
    pub trace: bool,
}

impl Default for SetupOpts {
    fn default() -> Self {
        SetupOpts { durable: true, trace: false }
    }
}

/// Build a workload's fixture from `seed`.
pub fn setup(workload: Workload, seed: u64, size: &Size, opts: SetupOpts) -> Result<Fixture> {
    let db = Database::with_cache_pages(match workload {
        Workload::RelationalScanCold => size.rel_cache_pages,
        _ => DOMAIN_CACHE_PAGES,
    });
    db.trace().set_enabled(opts.trace);
    match workload {
        Workload::DomainRead => setup_domain_read(db, seed, size),
        Workload::RelationalScanCold => setup_relational(db, seed, size),
        Workload::DmlDurable => setup_dml(db, seed, size, opts.durable),
        Workload::MixedSessions => setup_mixed(db, seed, size, opts.durable),
    }
}

/// Buffer-cache pages of the three domain-index workloads: everything fits.
const DOMAIN_CACHE_PAGES: usize = 32_768;

/// A stream that replays `cycle` in order, forever.
pub fn replay(cycle: Vec<Op>) -> OpStream {
    let mut at = 0;
    Box::new(move || {
        let op = cycle[at % cycle.len()].clone();
        at += 1;
        op
    })
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn no_index(sql: &str) -> String {
    sql.replacen("SELECT", "SELECT /*+ NO_INDEX */", 1)
}

fn answer(db: &mut Database, sql: &str) -> Result<Expect> {
    let q = Client::query(db, sql, false)?;
    Ok(Expect { rows: q.rows, sum0: q.sum0 })
}

// ---------------------------------------------------------------------------
// domain_read
// ---------------------------------------------------------------------------

fn text_query(term: &str) -> String {
    format!("SELECT id FROM docs WHERE Contains(body, '{term}')")
}

fn window_query(table: &str, window: &str) -> String {
    format!("SELECT gid FROM {table} WHERE Sdo_Relate(geometry, {window}, 'mask=ANYINTERACT')")
}

fn vir_query(sig: &str) -> String {
    format!("SELECT id FROM images WHERE VirSimilar(img, '{sig}', '{VIR_WEIGHTS}', {VIR_THRESHOLD})")
}

fn chem_query(fragment: &str) -> String {
    format!("SELECT id FROM compounds WHERE MolContains(mol, '{fragment}')")
}

/// Frequency-rank ranges of query terms, in permille of the vocabulary.
type Ranks = (usize, usize);
const RARE: Ranks = (250, 300);
const MID: Ranks = (20, 40);
const COMMON: Ranks = (5, 10);

/// The `i`-th of `n` terms spread evenly over `ranks`. Ranks are fixed,
/// not drawn: a rank's document frequency barely moves with the seed, so
/// every seed does the same amount of text work.
fn term_at(d: &DomainData, (lo, hi): Ranks, i: usize, n: usize) -> String {
    let v = d.sizes.vocab;
    d.corpus.term(v * lo / 1000 + (v * (hi - lo) / 1000) * i / n).to_string()
}

/// A drawn term of `ranks` (the write workloads' streams are long enough
/// to average over the draw).
fn term_in(d: &mut DomainData, ranks: Ranks) -> String {
    let i = d.rng.gen_range(0..64);
    term_at(d, ranks, i, 64)
}

/// The fixed query cycle: 50 operator queries over all five indextypes.
/// 28 of them are rare-term lookups from one narrow rank band: the
/// cheapest statement class and more than half the cycle, so the median
/// statement is one of them whatever the seed (a median that falls
/// between two classes jumps from seed to seed). The tile-index domain
/// join is the slowest statement and 2 % of the cycle, so the 99th
/// percentile is its typical latency.
fn domain_read_queries(d: &mut DomainData) -> Vec<String> {
    let mut q = Vec::new();
    for i in 0..28 {
        q.push(text_query(&term_at(d, RARE, i, 28)));
    }
    for i in 0..4 {
        q.push(text_query(&term_at(d, MID, i, 4)));
    }
    for i in 0..2 {
        q.push(text_query(&format!("{} AND {}", term_at(d, MID, i, 2), term_at(d, COMMON, i, 2))));
        q.push(text_query(&term_at(d, COMMON, 1 - i, 2)));
    }
    for _ in 0..3 {
        let w = d.window_sql(80.0);
        q.push(window_query("roads", &w));
        q.push(window_query("roads_r", &w));
    }
    // A quarter of the roads layer joined to all parks: a domain join that
    // stays near 1 % of a measurement window.
    let outer = d.sizes.rects / 4;
    for (r, p) in [("roads", "parks"), ("roads_r", "parks_r")] {
        q.push(format!(
            "SELECT r.gid, p.gid FROM {r} r, {p} p \
             WHERE Sdo_Relate(r.geometry, p.geometry, 'mask=OVERLAPS') AND r.gid < {outer}"
        ));
    }
    for base in d.vir_bases.clone() {
        q.push(vir_query(&base.serialize()));
    }
    for f in CHEM_FRAGMENTS.into_iter().chain(["C#N"]) {
        q.push(chem_query(f));
    }
    q
}

fn setup_domain_read(mut db: Database, seed: u64, size: &Size) -> Result<Fixture> {
    fixtures::install_all(&mut db)?;
    let mut d = load_domain(&mut db, size.read, seed, true)?;
    let mut sqls = domain_read_queries(&mut d);
    shuffle(&mut sqls, &mut d.rng);
    // Correctness: every query's indexed answer must equal the same query
    // forced to the functional (no domain index) path.
    let mut cycle = Vec::with_capacity(sqls.len());
    for sql in sqls {
        let expect = answer(&mut db, &no_index(&sql))?;
        let indexed = answer(&mut db, &sql)?;
        if indexed != expect {
            return Err(wrong_answer(format!("{sql}: indexed {indexed:?} != NO_INDEX {expect:?}")));
        }
        cycle.push(Op::Query { sql, cursor: true, expect: Some(expect) });
    }
    let s = size.read;
    Ok(Fixture {
        workload: Workload::DomainRead,
        target: Target::Db(Box::new(db)),
        streams: vec![replay(cycle)],
        medium: None,
        facts: vec![
            ("docs", s.docs as f64),
            ("rects_per_layer", s.rects as f64),
            ("images", s.images as f64),
            ("compounds", s.compounds as f64),
            ("cache_pages", DOMAIN_CACHE_PAGES as f64),
        ],
        balance_sum: 0,
    })
}

// ---------------------------------------------------------------------------
// relational_scan_cold
// ---------------------------------------------------------------------------

/// One cycle: a cold start, then 30 plain-SQL queries whose expected
/// answers come from the generator's closed forms, never from the engine.
fn relational_cycle(rng: &mut StdRng, n: usize, iot_rows: usize) -> Vec<Op> {
    let sum_val = |lo: usize, hi: usize| (lo..=hi).map(event_val).sum::<i64>();
    let q = |sql: String, rows: usize, sum0: i64| Op::Query {
        sql,
        cursor: false,
        expect: Some(Expect { rows: rows as u64, sum0 }),
    };
    let mut ops = Vec::new();
    for _ in 0..6 {
        let span = n / 100;
        let lo = rng.gen_range(0..n - span);
        let hi = lo + span - 1;
        ops.push(q(
            format!("SELECT SUM(val), COUNT(*) FROM events WHERE ts BETWEEN {lo} AND {hi}"),
            1,
            sum_val(lo, hi),
        ));
    }
    for _ in 0..10 {
        let k = rng.gen_range(0..n);
        ops.push(q(format!("SELECT val FROM events WHERE id = {k}"), 1, event_val(k)));
    }
    for _ in 0..4 {
        let lo = rng.gen_range(0..n - 200);
        ops.push(q(
            format!("SELECT val, id FROM events WHERE id BETWEEN {lo} AND {}", lo + 199),
            200,
            sum_val(lo, lo + 199),
        ));
    }
    for _ in 0..2 {
        let span = n / 40;
        let lo = rng.gen_range(0..n - span);
        let hi = lo + span - 1;
        ops.push(q(
            format!("SELECT d.weight, e.id FROM events e, dims d WHERE e.grp = d.grp AND e.ts BETWEEN {lo} AND {hi}"),
            span,
            (lo..=hi).map(|i| (i % GROUPS) as i64 * 3).sum(),
        ));
    }
    for _ in 0..2 {
        let span = n / 10;
        let lo = rng.gen_range(0..n - span);
        ops.push(q(
            format!("SELECT COUNT(*), grp FROM events WHERE ts BETWEEN {lo} AND {} GROUP BY grp", lo + span - 1),
            GROUPS,
            span as i64,
        ));
    }
    for _ in 0..2 {
        let span = n / 20;
        let lo = rng.gen_range(0..n - span);
        let mut rows: Vec<(i64, usize)> = (lo..lo + span).map(|i| (event_val(i), i)).collect();
        rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ops.push(q(
            format!(
                "SELECT id, val FROM events WHERE ts BETWEEN {lo} AND {} ORDER BY val DESC, id LIMIT 10",
                lo + span - 1
            ),
            10,
            rows[..10].iter().map(|r| r.1 as i64).sum(),
        ));
    }
    for _ in 0..3 {
        let keys = iot_rows / KV_SEQS;
        let lo = rng.gen_range(0..keys - 50);
        ops.push(q(
            format!("SELECT k, seq FROM kv WHERE k BETWEEN {lo} AND {}", lo + 49),
            50 * KV_SEQS,
            (lo..lo + 50).map(|k| (k * KV_SEQS) as i64).sum(),
        ));
    }
    ops.push(q(
        "SELECT COUNT(*) FROM events WHERE val < 100".to_string(),
        1,
        (0..n).filter(|&i| event_val(i) < 100).count() as i64,
    ));
    shuffle(&mut ops, rng);
    ops.insert(0, Op::ColdStart);
    ops
}

fn setup_relational(mut db: Database, seed: u64, size: &Size) -> Result<Fixture> {
    load_relational(&mut db, size.rel_rows, size.rel_iot_rows)?;
    // Heap size in pages = physical reads of one cold full scan.
    db.cold_start();
    db.reset_cache_stats();
    db.query("SELECT SUM(val) FROM events")?;
    let heap_pages = db.cache_stats().physical_reads as f64;
    if heap_pages < 8.0 * size.rel_cache_pages as f64 {
        return Err(Error::Semantic(format!(
            "relational_scan_cold: heap of {heap_pages} pages is under 8x the {}-page cache",
            size.rel_cache_pages
        )));
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10));
    let cycle: Vec<Op> = (0..4).flat_map(|_| relational_cycle(&mut rng, size.rel_rows, size.rel_iot_rows)).collect();
    Ok(Fixture {
        workload: Workload::RelationalScanCold,
        target: Target::Db(Box::new(db)),
        streams: vec![replay(cycle)],
        medium: None,
        facts: vec![
            ("heap_rows", size.rel_rows as f64),
            ("heap_pages", heap_pages),
            ("iot_rows", size.rel_iot_rows as f64),
            ("cache_pages", size.rel_cache_pages as f64),
        ],
        balance_sum: 0,
    })
}

// ---------------------------------------------------------------------------
// dml_durable
// ---------------------------------------------------------------------------

/// The five domain-indexed tables of the write workloads: name, key
/// column, indexed column.
const WRITE_TABLES: [(&str, &str, &str); 5] = [
    ("docs", "id", "body"),
    ("roads", "gid", "geometry"),
    ("roads_r", "gid", "geometry"),
    ("images", "id", "img"),
    ("compounds", "id", "mol"),
];

/// Load the write fixture: the domain tables (no parks) plus a B-tree on
/// every key column so single-row DML is a lookup, not a scan.
fn load_write_tables(db: &mut Database, sizes: fixtures::DomainSizes, seed: u64) -> Result<DomainData> {
    let d = load_domain(db, sizes, seed, false)?;
    for (t, key, _) in WRITE_TABLES {
        db.execute(&format!("CREATE INDEX {t}_key ON {t}({key})"))?;
    }
    Ok(d)
}

/// Row generator + live-id bookkeeping for the write streams. Ids are
/// `base + n * stride`, so two sessions never collide.
struct WriteModel {
    d: DomainData,
    live: [VecDeque<usize>; 5],
    next: [usize; 5],
    stride: usize,
}

impl WriteModel {
    fn insert(&mut self, t: usize) -> (String, u64) {
        let id = self.next[t];
        self.next[t] += self.stride;
        self.live[t].push_back(id);
        let table = WRITE_TABLES[t].0;
        (insert_sql(table, id, &self.d.value_sql(table)), 1)
    }

    /// Delete the oldest live row (FIFO keeps the table stationary).
    fn delete(&mut self, t: usize) -> (String, u64) {
        let id = self.live[t].pop_front().expect("stationary stream never drains a table");
        let (table, key, _) = WRITE_TABLES[t];
        (format!("DELETE FROM {table} WHERE {key} = {id}"), 1)
    }

    /// In-place update of the indexed column (drives `ODCIIndexUpdate`).
    fn update(&mut self, t: usize) -> (String, u64) {
        let id = self.live[t][self.d.rng.gen_range(0..self.live[t].len())];
        let (table, key, col) = WRITE_TABLES[t];
        let v = self.d.value_sql(table);
        (format!("UPDATE {table} SET {col} = {v} WHERE {key} = {id}"), 1)
    }
}

fn write_model(d: DomainData, first_id: usize, stride: usize, own_initial_rows: bool) -> WriteModel {
    let s = d.sizes;
    let counts = [s.docs, s.rects, s.rects, s.images, s.compounds];
    WriteModel {
        d,
        live: counts.map(|n| if own_initial_rows { (0..n).collect() } else { VecDeque::new() }),
        next: counts.map(|n| n.max(first_id)),
        stride,
    }
}

/// The stationary write stream: per 20 operations 7 INSERTs, 7 DELETEs,
/// 4 in-place UPDATEs and 2 three-statement transactions (10 %), tables
/// round-robin, a checkpoint every `checkpoint_every` operations.
fn dml_stream(mut m: WriteModel, checkpoint_every: usize) -> OpStream {
    const PATTERN: [u8; 20] = *b"IDUIDUIDUIDTIDUIDIDT";
    let (mut at, mut turn) = (0usize, [0usize; 4]);
    Box::new(move || {
        at += 1;
        if at % checkpoint_every == 0 {
            return Op::Checkpoint;
        }
        let kind = PATTERN[at % PATTERN.len()];
        let slot = match kind {
            b'I' => 0,
            b'D' => 1,
            b'U' => 2,
            _ => 3,
        };
        let t = turn[slot] % 5;
        turn[slot] += 1;
        let dml = |(sql, affected)| Op::Dml { sql, affected };
        match kind {
            b'I' => dml(m.insert(t)),
            b'D' => dml(m.delete(t)),
            b'U' => dml(m.update(t)),
            _ => Op::Txn { stmts: vec![m.insert(t), m.delete(t), m.update((t + 1) % 5)] },
        }
    })
}

fn setup_dml(mut db: Database, seed: u64, size: &Size, durable: bool) -> Result<Fixture> {
    fixtures::install_all(&mut db)?;
    let d = load_write_tables(&mut db, size.write, seed)?;
    let medium = durable.then(DurableMedium::new);
    if let Some(m) = &medium {
        db.enable_durability(m.clone())?;
    }
    let s = size.write;
    Ok(Fixture {
        workload: Workload::DmlDurable,
        target: Target::Db(Box::new(db)),
        streams: vec![dml_stream(write_model(d, 0, 1, true), size.checkpoint_every)],
        medium,
        facts: vec![
            ("docs", s.docs as f64),
            ("rects_per_table", s.rects as f64),
            ("images", s.images as f64),
            ("compounds", s.compounds as f64),
            ("checkpoint_every_ops", size.checkpoint_every as f64),
        ],
        balance_sum: 0,
    })
}

// ---------------------------------------------------------------------------
// mixed_sessions
// ---------------------------------------------------------------------------

/// What one slot of the mixed pattern sends.
#[derive(Clone, Copy)]
enum MixedKind {
    /// Read number `0..10`: six operator queries, four plain-SQL ones.
    Read(u8),
    PadUpdate,
    RoadsUpdate,
    /// Insert-then-delete (alternating) on the session's own rows of a table.
    OwnRow(usize),
    Transfer,
}

/// One session's stream. Every 100 operations hold exactly 70 reads
/// (half operator queries, half plain SQL on `accounts`), 25 autocommit
/// single-row DML and 5 transactions moving balance between three
/// Zipfian accounts. The order is fixed — each kind spread evenly over
/// the cycle — and only the parameters are drawn: which writes fall next
/// to which reads decides how long index segments carry version chains
/// and who waits for the lock, and a seeded shuffle of the order alone
/// moved throughput by 25 % from seed to seed. `start` is where in the
/// cycle the session begins, so two sessions do not send the same kind
/// at the same moment.
fn mixed_stream(mut m: WriteModel, accounts: usize, start: usize) -> OpStream {
    use MixedKind::*;
    let mut kinds: Vec<(MixedKind, usize)> = (0..10).map(|i| (Read(i), 7)).collect();
    // docs ×2, roads_r ×2, images ×4, compounds ×4: even counts, so every
    // cycle inserts and deletes the same number of rows per table.
    kinds.extend([
        (PadUpdate, 10),
        (RoadsUpdate, 3),
        (OwnRow(0), 2),
        (OwnRow(2), 2),
        (OwnRow(3), 4),
        (OwnRow(4), 4),
        (Transfer, 5),
    ]);
    // The k-th of the n operations of kind j (of K) sits at
    // (k + (j + ½) / K) / n of the cycle: evenly spaced within a kind,
    // and the kinds out of phase with each other.
    let k_kinds = kinds.len();
    let mut slots: Vec<(usize, MixedKind)> = kinds
        .iter()
        .enumerate()
        .flat_map(|(j, &(kind, n))| {
            (0..n).map(move |k| ((2 * k_kinds * k + 2 * j + 1) * 10_000 / (2 * k_kinds * n), kind))
        })
        .collect();
    slots.sort_by_key(|&(position, _)| position);
    let pattern: Vec<MixedKind> = slots.into_iter().map(|(_, kind)| kind).collect();
    let zipf = Zipf::new(accounts);
    let (mut at, mut flip) = (start, [false; 5]);
    Box::new(move || {
        let kind = pattern[at % pattern.len()];
        at += 1;
        let d = &mut m.d;
        // accounts ids and grps never change, so those answers are known;
        // operator answers move with the concurrent writers (their
        // correctness is domain_read's and dml_durable's business).
        let read = |sql: String, expect: Option<Expect>| Op::Query { sql, cursor: false, expect };
        match kind {
            Read(0) => read(text_query(&term_in(d, RARE)), None),
            Read(1) => read(text_query(&term_in(d, MID)), None),
            Read(2) => read(window_query("roads", &d.window_sql(80.0)), None),
            Read(3) => read(window_query("roads_r", &d.window_sql(80.0)), None),
            Read(4) => {
                let b = d.rng.gen_range(0..d.vir_bases.len());
                read(vir_query(&d.vir_bases[b].serialize()), None)
            }
            Read(5) => read(chem_query(CHEM_FRAGMENTS[d.rng.gen_range(0..CHEM_FRAGMENTS.len())]), None),
            Read(6 | 7) => {
                let k = d.rng.gen_range(0..accounts);
                read(format!("SELECT id, grp FROM accounts WHERE id = {k}"), Some(Expect { rows: 1, sum0: k as i64 }))
            }
            Read(n) => {
                let lo = d.rng.gen_range(0..accounts - 1000);
                let range = format!("FROM accounts WHERE id BETWEEN {lo} AND {}", lo + 999);
                if n == 8 {
                    read(format!("SELECT COUNT(*) {range}"), Some(Expect { rows: 1, sum0: 1000 }))
                } else {
                    read(
                        format!("SELECT COUNT(*), grp {range} GROUP BY grp"),
                        Some(Expect { rows: GROUPS as u64, sum0: 1000 }),
                    )
                }
            }
            PadUpdate => Op::Dml {
                sql: format!("UPDATE accounts SET pad = pad + 1 WHERE id = {}", zipf.sample(&mut d.rng)),
                affected: 1,
            },
            // Shared rows, but autocommit on both sides: never a conflict.
            RoadsUpdate => Op::Dml {
                sql: format!(
                    "UPDATE roads SET geometry = {} WHERE gid = {}",
                    d.rect_sql(),
                    d.rng.gen_range(0..d.sizes.rects)
                ),
                affected: 1,
            },
            OwnRow(t) => {
                flip[t] = !flip[t];
                let (sql, affected) = if flip[t] { m.insert(t) } else { m.delete(t) };
                Op::Dml { sql, affected }
            }
            Transfer => {
                let mut ids = Vec::with_capacity(3);
                while ids.len() < 3 {
                    let id = zipf.sample(&mut d.rng);
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                let upd =
                    |delta: i64, id: usize| (format!("UPDATE accounts SET bal = bal + {delta} WHERE id = {id}"), 1);
                Op::Txn { stmts: vec![upd(-2, ids[0]), upd(1, ids[1]), upd(1, ids[2])] }
            }
        }
    })
}

fn setup_mixed(mut db: Database, seed: u64, size: &Size, durable: bool) -> Result<Fixture> {
    fixtures::install_all(&mut db)?;
    let d0 = load_write_tables(&mut db, size.mixed, seed)?;
    db.execute("CREATE TABLE accounts (id INTEGER, bal INTEGER, pad INTEGER, grp INTEGER)")?;
    for i in 0..size.accounts {
        db.execute(&format!("INSERT INTO accounts VALUES ({i}, 1000, 0, {})", i % GROUPS))?;
    }
    db.execute("CREATE INDEX accounts_id ON accounts(id)")?;
    db.execute("ANALYZE TABLE accounts")?;
    let medium = durable.then(DurableMedium::new);
    if let Some(m) = &medium {
        db.enable_durability(m.clone())?;
    }
    // Each session draws from its own generators (distinct sub-seeds) and
    // inserts into its own id range; the loaded rows stay shared.
    let sizes = d0.sizes;
    drop(d0);
    let streams = (0..2u64)
        .map(|sid| {
            let d = fixtures::generators(sizes, sub_seed(seed, 20 + sid));
            mixed_stream(write_model(d, 1_000_000 + sid as usize, 2, false), size.accounts, 50 * sid as usize)
        })
        .collect();
    let s = size.mixed;
    Ok(Fixture {
        workload: Workload::MixedSessions,
        target: Target::Server(Server::new(db)),
        streams,
        medium,
        facts: vec![
            ("accounts", size.accounts as f64),
            ("docs", s.docs as f64),
            ("rects_per_table", s.rects as f64),
            ("images", s.images as f64),
            ("compounds", s.compounds as f64),
            ("sessions", 2.0),
        ],
        balance_sum: 1000 * size.accounts as i64,
    })
}

// ---------------------------------------------------------------------------
// end-of-run checks
// ---------------------------------------------------------------------------

/// What the end-of-run check measured on the way.
#[derive(Debug, Default, Clone)]
pub struct Finish {
    /// `dml_durable`: reopen from the crashed medium (WAL tail replay).
    pub recovery_s: Option<f64>,
    pub wal_len_at_crash: Option<f64>,
    pub checkpoint_us: Option<f64>,
    /// Reopen right after a checkpoint (snapshot restore, empty tail).
    pub restore_us: Option<f64>,
}

/// Everything observable about the write tables: per-table count and key
/// sum, and one operator probe per indextype, indexed and not.
fn observe_write_tables(db: &mut Database, probes: &[String]) -> Result<Vec<Expect>> {
    let mut out = Vec::new();
    for (t, key, _) in WRITE_TABLES {
        out.push(answer(db, &format!("SELECT SUM({key}), COUNT(*) FROM {t}"))?);
        out.push(answer(db, &format!("SELECT COUNT(*) FROM {t}"))?);
    }
    for p in probes {
        let indexed = answer(db, p)?;
        if indexed != answer(db, &no_index(p))? {
            return Err(wrong_answer(format!("{p}: indexed answer != NO_INDEX answer")));
        }
        out.push(indexed);
    }
    Ok(out)
}

/// Acknowledged work the end-of-run check is held against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acks {
    /// Commit points the clients saw succeed: autocommit DML + `COMMIT`s.
    pub commits: u64,
    /// WAL commit markers when measurement started.
    pub wal_commits_before: u64,
}

/// Verify the workload's end state; for `dml_durable` that includes the
/// simulated crash and recovery. Consumes the fixture. Without `acks`
/// the WAL's commit markers are not held to the clients' count.
pub fn finish(mut fix: Fixture, seed: u64, size: &Size, acks: Option<Acks>) -> Result<Finish> {
    match fix.workload {
        // Read workloads check every answer as it arrives.
        Workload::DomainRead | Workload::RelationalScanCold => Ok(Finish::default()),
        Workload::DmlDurable => finish_dml(fix, seed, size),
        Workload::MixedSessions => {
            let want = fix.balance_sum;
            let wal_commits = fix.medium.as_ref().map(|m| m.stats().commits);
            let got = fix.with_db(|db| answer(db, "SELECT SUM(bal) FROM accounts"))?;
            if got.sum0 != want {
                return Err(wrong_answer(format!("accounts balance sum {} != {want}", got.sum0)));
            }
            if let (Some(now), Some(acks)) = (wal_commits, acks) {
                let logged = now - acks.wal_commits_before;
                if logged != acks.commits {
                    return Err(wrong_answer(format!(
                        "WAL holds {logged} commit markers for {} acknowledged commits",
                        acks.commits
                    )));
                }
            }
            Ok(Finish::default())
        }
    }
}

fn finish_dml(fix: Fixture, seed: u64, size: &Size) -> Result<Finish> {
    let Target::Db(mut db) = fix.target else { unreachable!("dml_durable runs on a Database") };
    // Probes from a fresh generator: the same for every run of a seed.
    let mut d = fixtures::generators(size.write, sub_seed(seed, 30));
    let probes = vec![
        text_query(&term_in(&mut d, MID)),
        window_query("roads", &d.window_sql(200.0)),
        window_query("roads_r", &d.window_sql(200.0)),
        vir_query(&fixtures::generators(size.write, seed).vir_bases[0].serialize()),
        chem_query(CHEM_FRAGMENTS[0]),
    ];
    let before = observe_write_tables(&mut db, &probes)?;
    let Some(medium) = fix.medium else {
        return Ok(Finish::default());
    };

    // Crash: the medium freezes inside the commit of one more statement.
    db.fault_injector().arm_fail(extidx_storage::wal::FP_WAL_COMMIT, None, 1);
    let crashed = db.execute("INSERT INTO docs VALUES (999999999, 'lost in the crash')");
    if crashed.is_ok() || !medium.is_crashed() {
        return Err(wrong_answer("simulated crash did not stop the statement in flight"));
    }
    drop(db);
    let wal_len_at_crash = medium.stats().wal_len as f64;

    let reopen = |medium: &DurableMedium| -> Result<(Database, f64)> {
        let mut rec = Database::with_cache_pages(DOMAIN_CACHE_PAGES);
        fixtures::install_all(&mut rec)?;
        let t = Instant::now();
        rec.enable_durability(medium.clone())?;
        Ok((rec, t.elapsed().as_secs_f64()))
    };
    let (mut rec, recovery_s) = reopen(&medium)?;
    if observe_write_tables(&mut rec, &probes)? != before {
        return Err(wrong_answer("post-recovery counts or operator answers differ from pre-crash"));
    }
    let t = Instant::now();
    rec.checkpoint()?;
    let checkpoint_us = t.elapsed().as_secs_f64() * 1e6;
    drop(rec);
    let (mut rec2, restore_s) = reopen(&medium)?;
    if observe_write_tables(&mut rec2, &probes)? != before {
        return Err(wrong_answer("post-checkpoint recovery differs from pre-crash"));
    }
    Ok(Finish {
        recovery_s: Some(recovery_s),
        wal_len_at_crash: Some(wal_len_at_crash),
        checkpoint_us: Some(checkpoint_us),
        restore_us: Some(restore_s * 1e6),
    })
}
