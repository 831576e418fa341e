//! The statement cache: each SQL text is parsed once and planned once.
//!
//! One bounded LRU map, keyed by the exact SQL text — binds are not part
//! of the key — serves every lane: `Database::execute_with` / `query_with`
//! / `open_query`, `Session`, and cartridge callbacks on either lane
//! (`exec_ctx::ServerCtx`), so a cartridge's per-row callback statement is
//! parsed and planned once per text instead of once per call. A text enters the map
//! at its second execution: one-off literal texts (a bulk load's INSERTs,
//! statements over literal keys) would otherwise churn it (DESIGN.md §4m
//! has the measurement).
//!
//! An entry holds the parsed statement and, for a statement that reads a
//! table (a SELECT, the SELECT of an INSERT, the target scan of an UPDATE
//! or DELETE), its plan with the [`Stamp`] it was made under. A plan is
//! reused while its stamp holds (and its binds name the `SCORE` labels it
//! was made for) and replanned in place when it does not; a reuse clones
//! no plan tree and crosses into no `ODCIStats*` routine. `EXPLAIN`
//! neither reads nor fills the cache (DESIGN.md §4m).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use extidx_common::{Error, Result, Value};
use extidx_storage::{SegmentId, StorageEngine};
use parking_lot::Mutex;

use crate::ast::{InsertSource, Statement};
use crate::database::Database;
use crate::exec_ctx::Exec;
use crate::parser::parse_counting_binds;
use crate::plan::PlannedQuery;

/// Texts the cache holds; the least recently used one makes room. The
/// admission filter remembers four times as many texts by hash, so a text
/// that repeats is recognised across the one-off texts run in between.
const CAPACITY: usize = 512;

/// One cached SQL text.
pub(crate) struct Prepared {
    stmt: Statement,
    /// `?` placeholders in the text.
    params: usize,
    /// Whether the statement has a plan to cache (see [`reads_a_table`]).
    reads: bool,
    /// The plan and the stamp it was made under.
    plan: Mutex<Option<(Stamp, Arc<PlannedQuery>)>>,
}

impl Prepared {
    /// The statement, once `binds` cover every placeholder of its text.
    pub(crate) fn statement(&self, binds: &[Value]) -> Result<&Statement> {
        if binds.len() < self.params {
            return Err(Error::Semantic(format!(
                "bind placeholder {} has no value ({} supplied)",
                binds.len(),
                binds.len()
            )));
        }
        Ok(&self.stmt)
    }
}

/// Statements whose execution runs a plan the cache keeps. `EXPLAIN`
/// plans afresh every time, so it is not one of them.
fn reads_a_table(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Select(_)
            | Statement::Insert { source: InsertSource::Query(_), .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }
    )
}

/// What a plan was made under. It holds while all three inputs do: the
/// dictionary version, the health epoch (no index changed state), and the
/// size class of every table the plan reads.
struct Stamp {
    catalog: u64,
    health: u64,
    sizes: Vec<(SegmentId, u32)>,
}

/// A table's segment with the order of magnitude of its row count,
/// ⌊log2(rows + 1)⌋: the one input of the relational cost model that moves
/// without DDL.
fn table_size(storage: &StorageEngine, seg: SegmentId) -> (SegmentId, u32) {
    (seg, (storage.row_count(seg).unwrap_or(0) as u64 + 1).ilog2())
}

impl Stamp {
    fn holds(&self, db: &Database) -> bool {
        self.catalog == db.catalog.version()
            && self.health == db.catalog.health.epoch()
            && self.sizes.iter().all(|&(seg, class)| table_size(&db.storage, seg) == (seg, class))
    }
}

/// The cache: the LRU map behind one lock, plus the `V$CACHE_STATS`
/// counters, which are read without it.
#[derive(Default)]
pub(crate) struct StatementCache {
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// `(hits, misses, invalidations, entries)`: executions served without
/// parsing or planning, executions that parsed or planned from scratch,
/// executions that replanned because their stamp no longer held, and the
/// texts held now.
pub(crate) type CacheCounters = (u64, u64, u64, usize);

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl StatementCache {
    /// The entry for `sql`, parsing the text on a miss — and keeping it
    /// only if the text ran before. The lock is not held while parsing.
    pub(crate) fn prepare(&self, sql: &str) -> Result<Arc<Prepared>> {
        let admit = {
            let mut lru = self.lru.lock();
            if let Some(p) = lru.touch(sql) {
                if !p.reads {
                    bump(&self.hits);
                }
                return Ok(p);
            }
            lru.seen_before(sql)
        };
        let (stmt, params) = parse_counting_binds(sql)?;
        let reads = reads_a_table(&stmt);
        if !reads {
            bump(&self.misses);
        }
        let p = Arc::new(Prepared { stmt, params, reads, plan: Mutex::new(None) });
        if admit {
            self.lru.lock().insert(sql, Arc::clone(&p));
        }
        Ok(p)
    }

    /// The plan `p` runs under in this execution: the cached one while its
    /// stamp holds, else the one `make` builds now (peeking at this
    /// execution's binds), which replaces it. No lock is held while `make`
    /// runs, so its `ODCIStats*` callbacks may use the cache themselves.
    pub(crate) fn plan(
        &self,
        p: &Prepared,
        ecx: &Exec<'_>,
        make: impl FnOnce(&Exec<'_>) -> Result<PlannedQuery>,
    ) -> Result<Arc<PlannedQuery>> {
        let stale = match &*p.plan.lock() {
            Some((stamp, plan)) if stamp.holds(ecx) && plan.label_binds.hold(ecx.binds) => {
                bump(&self.hits);
                return Ok(Arc::clone(plan));
            }
            cached => cached.is_some(),
        };
        bump(if stale { &self.invalidations } else { &self.misses });
        // The inputs are read before planning: one that moves meanwhile
        // leaves the stamp older than the plan, and the next execution
        // replans.
        let (catalog, health) = (ecx.catalog.version(), ecx.catalog.health.epoch());
        let plan = Arc::new(make(ecx)?);
        let sizes = plan
            .root
            .tables()
            .into_iter()
            .filter_map(|t| ecx.catalog.table(t).ok())
            .map(|t| table_size(&ecx.storage, t.seg))
            .collect();
        *p.plan.lock() = Some((Stamp { catalog, health, sizes }, Arc::clone(&plan)));
        Ok(plan)
    }

    /// Forget every text: the catalog is being replaced. (Recovery moves
    /// the dictionary version and the health epoch too, so the stamps would
    /// notice; a replacement should not have to rely on a restored stamp
    /// never repeating one an old plan was made under.)
    pub(crate) fn clear(&self) {
        let mut lru = self.lru.lock();
        lru.map.clear();
        lru.order.clear();
    }

    pub(crate) fn counters(&self) -> CacheCounters {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let entries = self.lru.lock().map.len();
        (load(&self.hits), load(&self.misses), load(&self.invalidations), entries)
    }
}

/// Texts by last use: `order` maps a use tick to its text, so the first
/// entry is the least recently used. `seen` remembers the hashes of texts
/// that ran once, each in the slot its hash picks.
struct Lru {
    map: HashMap<Arc<str>, (Arc<Prepared>, u64)>,
    order: BTreeMap<u64, Arc<str>>,
    tick: u64,
    seen: Vec<u64>,
}

impl Default for Lru {
    fn default() -> Self {
        Lru { map: HashMap::new(), order: BTreeMap::new(), tick: 0, seen: vec![0; 4 * CAPACITY] }
    }
}

impl Lru {
    /// Whether `sql` ran before (recording that it has now).
    fn seen_before(&mut self, sql: &str) -> bool {
        let mut h = DefaultHasher::new();
        sql.hash(&mut h);
        let hash = h.finish();
        let n = self.seen.len() as u64;
        std::mem::replace(&mut self.seen[(hash % n) as usize], hash) == hash
    }

    fn touch(&mut self, sql: &str) -> Option<Arc<Prepared>> {
        let (p, used) = self.map.get_mut(sql)?;
        self.tick += 1;
        let text = self.order.remove(used).expect("every cached text is ordered");
        *used = self.tick;
        self.order.insert(self.tick, text);
        Some(Arc::clone(p))
    }

    fn insert(&mut self, sql: &str, p: Arc<Prepared>) {
        // Two lanes may parse the same text at once; the later one wins.
        if let Some((_, used)) = self.map.remove(sql) {
            self.order.remove(&used);
        }
        if self.map.len() >= CAPACITY {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        let text: Arc<str> = Arc::from(sql);
        self.order.insert(self.tick, Arc::clone(&text));
        self.map.insert(text, (p, self.tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_text_is_kept_from_its_second_execution() {
        let cache = StatementCache::default();
        let once = cache.prepare("SELECT a FROM t").unwrap();
        assert_eq!(cache.counters().3, 0, "a text seen once is not kept");
        let twice = cache.prepare("SELECT a FROM t").unwrap();
        assert!(!Arc::ptr_eq(&once, &twice));
        let thrice = cache.prepare("SELECT a FROM t").unwrap();
        assert!(Arc::ptr_eq(&twice, &thrice), "the second execution's entry is reused");
        assert_eq!(cache.counters().3, 1);
    }

    #[test]
    fn the_least_recently_used_text_makes_room() {
        let cache = StatementCache::default();
        let text = |i: usize| format!("SELECT {i} FROM t");
        let run_twice = |i: usize| {
            cache.prepare(&text(i)).unwrap();
            cache.prepare(&text(i)).unwrap()
        };
        for i in 0..CAPACITY {
            run_twice(i);
        }
        // Touch the oldest, so the second oldest is the one evicted.
        let first = cache.prepare(&text(0)).unwrap();
        run_twice(CAPACITY);
        let lru = cache.lru.lock();
        assert_eq!(lru.map.len(), CAPACITY);
        assert!(lru.map.contains_key(text(0).as_str()) && !lru.map.contains_key(text(1).as_str()));
        assert!(Arc::ptr_eq(&lru.map[text(0).as_str()].0, &first), "a hit returns the entry itself");
        assert_eq!(lru.order.len(), CAPACITY);
    }

    #[test]
    fn binds_are_checked_against_the_placeholders() {
        let cache = StatementCache::default();
        let p = cache.prepare("SELECT a FROM t WHERE a = ? AND b = ?").unwrap();
        assert!(p.statement(&[Value::Integer(1), Value::Null]).is_ok());
        let err = p.statement(&[Value::Integer(1)]).expect_err("too few binds");
        assert!(err.to_string().contains("bind placeholder 1 has no value"), "{err}");
    }
}
