//! The Volcano-style executor.
//!
//! Plan nodes become pull-based state machines ([`ExecNode`]) that move
//! rows a batch at a time; every `next_batch` call receives the read-lane
//! [`Exec`] context — a shared database reference plus the statement's
//! snapshot — which is what lets a domain scan re-enter the engine: each
//! fetch drives the cartridge's `ODCIIndexFetch` through a Scan-mode
//! server context, and the cartridge's own SQL callbacks recurse into the
//! engine underneath, all pinned to the snapshot that opened the scan.
//!
//! The crucial property reproduced from §3.2.1: domain-scan results are
//! **streamed** ("the relevant row identifiers are streamed back to the
//! server via the ODCI interfaces… all rows that satisfy the text
//! predicate do not have to be identified before the first result row can
//! be returned to the user"). A domain scan's `next_batch` returns as
//! soon as one non-empty `ODCIIndexFetch` has been joined to its base
//! rows — the batch protocol *is* the paper's `ODCIIndexFetch(nrows)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use extidx_common::{Error, Key, Result, Row, RowId, Value};
use extidx_core::governor;
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::scan::ScanContext;
use extidx_core::server::BaseRow;
use extidx_core::trace::{Component, Routine};
use extidx_core::OdciIndex;
use extidx_storage::{SegmentId, Snapshot, StorageEngine};

use crate::catalog::{Catalog, TableDef, TableOrg};
use crate::exec_ctx::{odci_call, Callee, Exec, Lane};
use crate::expr::{eval, filter_accepts, AggKind, EvalCtx, ExecRow, RExpr};
use crate::plan::{FilterTerm, PlanKind, PlanNode, ZoneBound};

/// The largest possible rowid — used as an upper key pad so inclusive
/// B-tree bounds cover every `(key, rowid)` entry of the bound key.
const MAX_ROWID: RowId = RowId { table: u32::MAX, page: u32::MAX, slot: u16::MAX };

/// Target rows per executor batch.
pub const BATCH_TARGET: usize = 1024;

/// A batch of rows flowing through the executor. An empty batch means
/// the producing node is exhausted — nodes never return an empty batch
/// while more rows remain.
#[derive(Debug, Default)]
pub struct RowBatch {
    pub rows: Vec<ExecRow>,
}

/// A pull-based physical operator.
pub trait ExecNode: Send {
    /// Produce up to `max_rows` rows; an empty batch means exhausted.
    /// The only way rows move: parents pull their children through this,
    /// and `max_rows` is a hard cap so `Limit` can push its remaining
    /// quota down and stop joins and domain scans early.
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch>;

    /// Rewind so the node can be executed again (nested-loop inners).
    fn reset(&mut self, db: &Exec<'_>) -> Result<()>;

    /// Pages this node skipped via zone maps (full scans only).
    fn pages_pruned(&self) -> u64 {
        0
    }

    /// Tear the subtree down on the statement's *error* path (deadline,
    /// injected fault, …): wrapper nodes forward to their children, and
    /// a domain scan closes its open cartridge context best-effort so
    /// Start ≡ Close holds even when the statement dies mid-scan. Must
    /// never fail — the original error wins.
    fn abandon(&mut self, db: &Exec<'_>) {
        let _ = db;
    }
}

/// Pull `exec` to exhaustion, handing each non-empty batch to `sink`.
/// The statement deadline is charged once per batch.
fn pump(
    exec: &mut dyn ExecNode,
    db: &Exec<'_>,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<()> {
    loop {
        governor::poll()?;
        let batch = exec.next_batch(db, BATCH_TARGET)?;
        if batch.rows.is_empty() {
            return Ok(());
        }
        sink(batch)?;
    }
}

/// The one statement-level drive loop (SELECT, EXPLAIN ANALYZE, DML
/// target collection): [`pump`] the tree, and on *any* error abandon it
/// so an open cartridge scan context is closed best-effort (Start ≡ Close
/// on the error path too).
pub(crate) fn drain(
    exec: &mut dyn ExecNode,
    db: &Exec<'_>,
    sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<()> {
    let run = pump(exec, db, sink);
    if run.is_err() {
        exec.abandon(db);
    }
    run
}

/// Hand out up to `max_rows` rows from the front of a materialized queue.
fn take_front(queue: &mut VecDeque<ExecRow>, max_rows: usize) -> RowBatch {
    let k = queue.len().min(max_rows);
    RowBatch { rows: queue.drain(..k).collect() }
}

/// Rowid→row join shared by every rowid-producing access path: resolve
/// `rids` against `table` under the statement's snapshot in one
/// page-ordered multi-fetch, aligned with the input. A rowid may resolve
/// to an older displaced version, or to nothing at all (version not
/// visible) — `None`, which callers skip like a non-match. Visible rows
/// carry their rowid in the hidden trailing ROWID column.
fn fetch_visible(db: &Exec<'_>, table: &str, rids: &[RowId]) -> Result<Vec<Option<ExecRow>>> {
    let tdef = db.catalog.table(table)?;
    let joined = match tdef.org {
        TableOrg::Heap => db.storage.heap_fetch_multi(tdef.seg, rids, &db.snap)?,
        TableOrg::Index { .. } => db.storage.iot_fetch_multi(tdef.seg, rids, &db.snap)?,
    };
    Ok(joined
        .into_iter()
        .zip(rids)
        .map(|(values, &rid)| {
            values.map(|mut v| {
                v.push(Value::RowId(rid));
                ExecRow::new(v)
            })
        })
        .collect())
}

/// Concatenate an outer and an inner row (values and ancillary data).
fn join_rows(left: &ExecRow, right: ExecRow) -> ExecRow {
    let mut values = left.values.clone();
    values.extend(right.values);
    let mut row = ExecRow::new(values);
    row.ancillary.extend(left.ancillary.iter().cloned());
    row.ancillary.extend(right.ancillary);
    row
}

/// Build the executor tree for a plan.
pub fn build(plan: PlanNode) -> Box<dyn ExecNode> {
    build_node(plan, &mut None)
}

/// Build the executor tree with every node wrapped in an
/// [`InstrumentExec`] (the EXPLAIN ANALYZE path). The returned stats
/// cells are allocated in the same pre-order as
/// [`PlanNode::explain`] renders lines, so `lines[i]` describes
/// `cells[i]`. Accounting is *inclusive*: a node's counters cover its
/// whole subtree, so the root cell's buffer gets equal the statement's
/// cache delta.
pub fn build_instrumented(plan: PlanNode) -> (Box<dyn ExecNode>, Vec<Arc<NodeStats>>) {
    let mut cells = Some(Vec::new());
    let node = build_node(plan, &mut cells);
    (node, cells.expect("cells present"))
}

fn build_node(plan: PlanNode, cells: &mut Option<Vec<Arc<NodeStats>>>) -> Box<dyn ExecNode> {
    // Pre-order: allocate this node's cell before descending, mirroring
    // `explain_into` (self line first, then children left-to-right).
    let stats = cells.as_mut().map(|v| {
        let s: Arc<NodeStats> = Arc::default();
        v.push(s.clone());
        s
    });
    let inner: Box<dyn ExecNode> = match plan.kind {
        PlanKind::FullScan { table, prune, .. } => Box::new(FullScanExec::new(table, prune)),
        PlanKind::IotFullScan { table, .. } => Box::new(IotScanExec::new(table, None, None)),
        PlanKind::IotRange { table, lo, hi } => Box::new(IotScanExec::new(table, lo, hi)),
        PlanKind::BTreeAccess { table, index, lo, hi, .. } => {
            Box::new(BTreeAccessExec::new(table, index, lo, hi))
        }
        PlanKind::RowIdEq { table, rid } => Box::new(RowIdEqExec { table, rid, done: false }),
        PlanKind::ConstRows { rows } => Box::new(ConstRowsExec { rows, idx: 0 }),
        PlanKind::DomainScan { table, index, call, label, .. } => {
            Box::new(DomainScanExec::new(table, index, call, label))
        }
        PlanKind::Filter { input, terms, .. } => {
            Box::new(FilterExec { input: build_node(*input, cells), terms })
        }
        PlanKind::Project { input, exprs } => {
            Box::new(ProjectExec { input: build_node(*input, cells), exprs })
        }
        PlanKind::NestedLoopJoin { left, right } => Box::new(NestedLoopJoinExec {
            left: OuterRows::new(build_node(*left, cells)),
            right: build_node(*right, cells),
            current: None,
            started: false,
        }),
        PlanKind::DomainJoin {
            left,
            right_table,
            index,
            operator,
            arg_exprs,
            bound,
            label,
            ..
        } => Box::new(DomainJoinExec {
            left: OuterRows::new(build_node(*left, cells)),
            scan: DomainScanExec::new(
                right_table,
                index,
                OperatorCall {
                    operator,
                    args: Vec::new(),
                    bound: bound.clone(),
                    wants_ancillary: label.is_some(),
                },
                label,
            ),
            arg_exprs,
            current: None,
        }),
        PlanKind::HashJoin { left, right, left_key, right_key } => {
            Box::new(HashJoinExec {
                left: build_node(*left, cells),
                right: build_node(*right, cells),
                left_key,
                right_key,
                table: None,
                pending: VecDeque::new(),
            })
        }
        PlanKind::Sort { input, keys } => {
            Box::new(SortExec { input: build_node(*input, cells), keys, sorted: None })
        }
        PlanKind::Limit { input, n } => {
            Box::new(LimitExec { input: build_node(*input, cells), n, produced: 0 })
        }
        PlanKind::Distinct { input } => {
            Box::new(DistinctExec { input: build_node(*input, cells), seen: BTreeSet::new() })
        }
        PlanKind::Aggregate { input, group, aggs } => Box::new(AggregateExec {
            input: build_node(*input, cells),
            group,
            aggs,
            output: None,
        }),
    };
    match stats {
        Some(stats) => Box::new(InstrumentExec { inner, stats }),
        None => inner,
    }
}

// ---------------------------------------------------------------------------
// instrumentation (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

/// Runtime counters for one instrumented plan node. Atomics because
/// [`ExecNode`] is `Send` and the rendering side holds the cells through
/// `Arc` while the tree executes.
#[derive(Debug, Default)]
pub struct NodeStats {
    rows: AtomicU64,
    batches: AtomicU64,
    pages_pruned: AtomicU64,
    elapsed_nanos: AtomicU64,
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
}

/// A plain snapshot of [`NodeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Rows this node produced.
    pub rows: u64,
    /// `next_batch` calls (for a domain scan this bounds the
    /// `ODCIIndexFetch` batches issued).
    pub batches: u64,
    /// Pages this node's scan skipped via zone maps.
    pub pages_pruned: u64,
    /// Wall time inside this subtree, microseconds.
    pub elapsed_micros: u64,
    /// Buffer-cache logical reads charged while this subtree ran.
    pub logical_reads: u64,
    /// Cache misses ("disk" reads) while this subtree ran.
    pub physical_reads: u64,
    /// Dirty-page writebacks while this subtree ran.
    pub physical_writes: u64,
}

impl NodeStats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            pages_pruned: self.pages_pruned.load(Ordering::Relaxed),
            elapsed_micros: self.elapsed_nanos.load(Ordering::Relaxed) / 1_000,
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
        }
    }
}

/// Wrapper recording rows, batches, wall time, and buffer-get deltas around
/// every `next_batch` of the wrapped node. Deltas are measured with per-call
/// [`extidx_storage::buffer::CacheStats`] snapshots, so a parent's
/// counters include its children's (inclusive accounting, like Oracle's
/// row-source statistics).
struct InstrumentExec {
    inner: Box<dyn ExecNode>,
    stats: Arc<NodeStats>,
}

impl ExecNode for InstrumentExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let cache_before = db.cache_stats();
        let started = Instant::now();
        let out = self.inner.next_batch(db, max_rows);
        let elapsed = started.elapsed().as_nanos() as u64;
        let delta = db.cache_stats().since(&cache_before);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.elapsed_nanos.fetch_add(elapsed, Ordering::Relaxed);
        self.stats.logical_reads.fetch_add(delta.logical_reads, Ordering::Relaxed);
        self.stats.physical_reads.fetch_add(delta.physical_reads, Ordering::Relaxed);
        self.stats.physical_writes.fetch_add(delta.physical_writes, Ordering::Relaxed);
        if let Ok(b) = &out {
            self.stats.rows.fetch_add(b.rows.len() as u64, Ordering::Relaxed);
        }
        self.stats.pages_pruned.store(self.inner.pages_pruned(), Ordering::Relaxed);
        out
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.inner.reset(db)
    }

    fn pages_pruned(&self) -> u64 {
        self.inner.pages_pruned()
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.inner.abandon(db);
    }
}

// ---------------------------------------------------------------------------
// scans
// ---------------------------------------------------------------------------

/// Cursor of the one heap page walk in the workspace: [`FullScanExec`]
/// and every [`BaseScan`] resume through it, so a scan that stops
/// mid-page (a `LIMIT` quota, a build batch boundary) re-enters the page
/// where it left off without a second cache charge.
pub(crate) struct HeapWalk {
    seg: SegmentId,
    page: u32,
    slot: u16,
}

impl HeapWalk {
    /// The next up-to-`max_rows` rows visible under `snap`, each as
    /// `project(rowid, row)` — the row is borrowed, so callers clone only
    /// what they keep. Fewer than `max_rows` means the segment ended.
    /// `skip_page` is asked once per page, on first entry and before any
    /// read is charged.
    fn next_rows<T>(
        &mut self,
        storage: &StorageEngine,
        snap: &Snapshot,
        max_rows: usize,
        mut skip_page: impl FnMut(u32) -> bool,
        mut project: impl FnMut(RowId, &Row) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        while out.len() < max_rows {
            if self.slot == 0 && skip_page(self.page) {
                self.page += 1;
                continue;
            }
            let Some(rows) = storage.heap_page(self.seg, self.page, self.slot, snap)? else {
                break;
            };
            for (rid, row) in rows {
                out.push(project(rid, row));
                if out.len() == max_rows {
                    self.slot = rid.slot + 1;
                    return Ok(out);
                }
            }
            self.page += 1;
            self.slot = 0;
        }
        Ok(out)
    }
}

/// The resumable, snapshot-pinned scan of one base table behind index
/// builds (`scan_base_batches` on both lanes, `CREATE INDEX` of a B-tree)
/// and `ANALYZE`: never more than one batch is held. Heap tables go
/// through the [`HeapWalk`]; IOTs page in key order with an exclusive
/// after-key cursor and deliver logical rowids.
pub(crate) enum BaseScan {
    Heap(HeapWalk),
    Iot { seg: SegmentId, after: Option<Key> },
}

impl BaseScan {
    pub(crate) fn new(tdef: &TableDef) -> Self {
        match tdef.org {
            TableOrg::Heap => BaseScan::Heap(HeapWalk { seg: tdef.seg, page: 0, slot: 0 }),
            TableOrg::Index { .. } => BaseScan::Iot { seg: tdef.seg, after: None },
        }
    }

    /// What `ServerContext::scan_base_batches` streams on either lane: the
    /// scan of `table` plus the projection of a row to its `cols`, so a
    /// build clones only the columns it indexes.
    pub(crate) fn open(
        catalog: &Catalog,
        table: &str,
        cols: &[&str],
    ) -> Result<(BaseScan, impl Fn(RowId, &Row) -> BaseRow)> {
        let tdef = catalog.table(table)?;
        let col_idx = cols.iter().map(|c| tdef.column_index(c)).collect::<Result<Vec<_>>>()?;
        let project = move |rid: RowId, row: &Row| BaseRow {
            rid,
            values: col_idx.iter().map(|&i| row[i].clone()).collect(),
        };
        Ok((BaseScan::new(tdef), project))
    }

    /// The next up-to-`batch_size` visible rows, each as
    /// `project(rowid, row)`; an empty batch means exhausted.
    pub(crate) fn next_batch<T>(
        &mut self,
        storage: &StorageEngine,
        snap: &Snapshot,
        batch_size: usize,
        mut project: impl FnMut(RowId, &Row) -> T,
    ) -> Result<Vec<T>> {
        let batch_size = batch_size.max(1);
        match self {
            BaseScan::Heap(walk) => walk.next_rows(storage, snap, batch_size, |_| false, project),
            BaseScan::Iot { seg, after } => {
                let mut chunk = storage.iot_batch_after(*seg, after.as_ref(), batch_size, snap)?;
                let batch = chunk.iter().map(|(rid, _, row)| project(*rid, row)).collect();
                if let Some((_, last_key, _)) = chunk.pop() {
                    *after = Some(last_key);
                }
                Ok(batch)
            }
        }
    }
}

struct FullScanExec {
    table: String,
    /// Zone-map bounds from the residual predicate: a page whose
    /// recorded min/max excludes *any* bound (they are ANDed conjuncts)
    /// is skipped without ever charging a buffer read.
    prune: Vec<ZoneBound>,
    walk: Option<HeapWalk>,
    pruned: u64,
}

impl FullScanExec {
    fn new(table: String, prune: Vec<ZoneBound>) -> Self {
        FullScanExec { table, prune, walk: None, pruned: 0 }
    }
}

impl ExecNode for FullScanExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let walk = match &mut self.walk {
            Some(w) => w,
            None => {
                let seg = db.catalog.table(&self.table)?.seg;
                self.walk.insert(HeapWalk { seg, page: 0, slot: 0 })
            }
        };
        let (seg, prune, pruned) = (walk.seg, &self.prune, &mut self.pruned);
        // Consulting the zone map is a segment-metadata check and costs no
        // cache get. Valid on chained segments too: the engine widens a
        // page's zone with every displaced version its chains hold (and
        // re-widens after each exact rebuild), so the bounds are a
        // superset of everything any snapshot could see on the page.
        let zone_excluded = |page: u32| {
            let excluded = prune.iter().any(|b| {
                db.storage.heap_zone_excludes(seg, page, b.col, b.lo.as_ref(), b.hi.as_ref())
            });
            *pruned += u64::from(excluded);
            excluded
        };
        // Snapshot isolation: the walk replaces each in-place (newest)
        // image with the version this statement's snapshot may see —
        // possibly a displaced older version, possibly nothing
        // (uncommitted insert, or a delete committed before us).
        let rows = walk.next_rows(&db.storage, &db.snap, max_rows, zone_excluded, |rid, row| {
            let mut values = row.clone();
            values.push(Value::RowId(rid));
            ExecRow::new(values)
        })?;
        Ok(RowBatch { rows })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.walk = None;
        Ok(())
    }

    fn pages_pruned(&self) -> u64 {
        self.pruned
    }
}

/// Full or range scan over an index-organized table (materialized — IOT
/// ranges are returned by the storage layer in one call).
struct IotScanExec {
    table: String,
    lo: Option<Key>,
    hi: Option<Key>,
    /// Materialized on first pull and handed out by move; `reset` drops
    /// it so a rescan re-reads the segment.
    rows: Option<VecDeque<ExecRow>>,
}

impl IotScanExec {
    fn new(table: String, lo: Option<Key>, hi: Option<Key>) -> Self {
        IotScanExec { table, lo, hi, rows: None }
    }

    fn ensure_rows(&mut self, db: &Exec<'_>) -> Result<()> {
        if self.rows.is_none() {
            let tdef = db.catalog.table(&self.table)?;
            let seg = tdef.seg;
            // A bound on a key prefix must cover all longer keys sharing
            // the prefix: pad the upper bound with NULLs, which sort last.
            let key_cols = match tdef.org {
                TableOrg::Index { key_cols } => key_cols,
                _ => 1,
            };
            let hi = self.hi.clone().map(|mut k| {
                while k.0.len() < key_cols {
                    k.0.push(Value::Null);
                }
                k
            });
            // Every row carries its logical rowid in the hidden ROWID
            // column, mirroring heap scans.
            let with_rids = if self.lo.is_none() && hi.is_none() {
                db.storage.iot_scan_with_rids(seg, &db.snap)?
            } else {
                db.storage.iot_range_with_rids(seg, self.lo.as_ref(), hi.as_ref(), &db.snap)?
            };
            let rows = with_rids
                .into_iter()
                .map(|(rid, mut row)| {
                    row.push(Value::RowId(rid));
                    ExecRow::new(row)
                })
                .collect();
            self.rows = Some(rows);
        }
        Ok(())
    }
}

impl ExecNode for IotScanExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        self.ensure_rows(db)?;
        Ok(take_front(self.rows.as_mut().expect("materialized"), max_rows))
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.rows = None;
        Ok(())
    }
}

struct BTreeAccessExec {
    table: String,
    index: String,
    lo: Option<Key>,
    hi: Option<Key>,
    entries: Option<Vec<RowId>>,
    idx: usize,
}

impl BTreeAccessExec {
    fn new(table: String, index: String, lo: Option<Key>, hi: Option<Key>) -> Self {
        BTreeAccessExec { table, index, lo, hi, entries: None, idx: 0 }
    }
}

impl ExecNode for BTreeAccessExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        if self.entries.is_none() {
            let idef = db
                .catalog
                .btree_index(&self.index)
                .ok_or_else(|| Error::not_found("index", self.index.clone()))?;
            // Pad the upper bound with MAX_ROWID so every (key, rowid)
            // entry of the boundary key is included.
            let hi = self
                .hi
                .clone()
                .map(|k| Key(k.0.into_iter().chain([Value::RowId(MAX_ROWID)]).collect()));
            let rows = db.storage.iot_range(idef.seg, self.lo.as_ref(), hi.as_ref(), &db.snap)?;
            let rids = rows.iter().map(|r| r[1].as_rowid()).collect::<Result<_>>()?;
            self.entries = Some(rids);
            self.idx = 0;
        }
        let entries = self.entries.as_ref().expect("materialized");
        // Index entries and base rows are maintained in the same
        // transaction, but the *versions* can diverge mid-statement: an
        // entry visible in the index may point at a base row whose visible
        // image is a different (or no) version — skip those, and keep
        // pulling rowid slices until one yields a row.
        let mut rows = Vec::new();
        while rows.is_empty() && self.idx < entries.len() {
            let end = (self.idx + max_rows).min(entries.len());
            let fetched = fetch_visible(db, &self.table, &entries[self.idx..end])?;
            rows.extend(fetched.into_iter().flatten());
            self.idx = end;
        }
        Ok(RowBatch { rows })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.entries = None;
        self.idx = 0;
        Ok(())
    }
}

/// Plan-time constant rows (COUNT(*) fast path).
struct ConstRowsExec {
    rows: Vec<Vec<Value>>,
    idx: usize,
}

impl ExecNode for ConstRowsExec {
    fn next_batch(&mut self, _db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let end = (self.idx + max_rows).min(self.rows.len());
        let rows = self.rows[self.idx..end].iter().map(|r| ExecRow::new(r.clone())).collect();
        self.idx = end;
        Ok(RowBatch { rows })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.idx = 0;
        Ok(())
    }
}

/// Single-row fetch by rowid. A rowid pointing at a deleted slot yields
/// no row (stale rowids simply do not match, like Oracle).
struct RowIdEqExec {
    table: String,
    rid: RowId,
    done: bool,
}

impl ExecNode for RowIdEqExec {
    fn next_batch(&mut self, db: &Exec<'_>, _max_rows: usize) -> Result<RowBatch> {
        if std::mem::replace(&mut self.done, true) {
            return Ok(RowBatch::default());
        }
        // Only the storage fetch may fail quietly (stale rowid ⇒ no row);
        // an unknown table is still an error.
        db.catalog.table(&self.table)?;
        let row =
            fetch_visible(db, &self.table, &[self.rid]).ok().and_then(|mut v| v.pop().flatten());
        Ok(RowBatch { rows: row.into_iter().collect() })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.done = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// domain-index scan
// ---------------------------------------------------------------------------

/// Drives ODCIIndexStart/Fetch/Close on a cartridge and joins returned
/// rowids to base rows — the server half of Fig. 1's index-access path.
struct DomainScanExec {
    table: String,
    index: String,
    call: OperatorCall,
    label: Option<i64>,
    runtime: Option<(Arc<dyn OdciIndex>, IndexInfo)>,
    ctx: Option<ScanContext>,
    /// Rows already joined to the base table, ready to stream out. Whole
    /// `FetchResult` batches are joined at once through [`fetch_visible`],
    /// which orders page touches, so the cache sees each heap page once
    /// per batch instead of once per row.
    buffer: VecDeque<ExecRow>,
    fetch_done: bool,
    closed: bool,
}

impl DomainScanExec {
    fn new(table: String, index: String, call: OperatorCall, label: Option<i64>) -> Self {
        DomainScanExec {
            table,
            index,
            call,
            label,
            runtime: None,
            ctx: None,
            buffer: VecDeque::new(),
            fetch_done: false,
            closed: false,
        }
    }

    /// Replace the operator arguments (domain-join parameterization).
    fn set_args(&mut self, args: Vec<Value>) {
        self.call.args = args;
    }

    fn ensure_runtime(&mut self, db: &Exec<'_>) -> Result<()> {
        if self.runtime.is_none() {
            let def = db
                .catalog
                .domain_index(&self.index)
                .ok_or_else(|| Error::not_found("domain index", self.index.clone()))?
                .clone();
            let (index, _, info) = db.domain_index_runtime(&def)?;
            self.runtime = Some((index, info));
        }
        Ok(())
    }

    fn open(&mut self, db: &Exec<'_>) -> Result<()> {
        self.ensure_runtime(db)?;
        let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
        let started = odci_call(
            Lane::Read(db),
            Routine::IndexStart,
            Callee::Index(&info),
            format!("{}({} args)", self.call.operator, self.call.args.len()),
            |ctx| index.start(ctx, &info, &self.call),
        );
        let scan_ctx = match started {
            Ok(c) => c,
            Err(e) => {
                // A failed start leaves no scan context to close, but the
                // event stream must still balance Start/Close pairs — the
                // lifecycle invariant tests count events, not contexts.
                db.trace().record(
                    Component::Recovery,
                    "ODCIIndexClose",
                    &info.indextype_name,
                    "start failed; no scan context",
                );
                return Err(e);
            }
        };
        self.ctx = Some(scan_ctx);
        self.fetch_done = false;
        self.closed = false;
        self.buffer.clear();
        Ok(())
    }

    fn close(&mut self, db: &Exec<'_>) -> Result<()> {
        if let Some(ctx) = self.ctx.take() {
            if !self.closed {
                let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
                let callee = Callee::Index(&info);
                let r = odci_call(Lane::Read(db), Routine::IndexClose, callee, "", |sctx| {
                    index.close(sctx, &info, ctx)
                });
                self.closed = true;
                r?;
            }
        }
        Ok(())
    }

    /// Best-effort close on the scan's error path. A failed
    /// `ODCIIndexFetch` used to propagate with `?` and leak the
    /// cartridge's scan context without ever calling `ODCIIndexClose`;
    /// this runs the close routine as a recovery crossing — no fault
    /// check, recovery is never sabotaged — and swallows any close failure
    /// (traced under RECOVERY) so the original error wins.
    fn close_on_error(&mut self, db: &Exec<'_>) {
        let Some(ctx) = self.ctx.take() else { return };
        if self.closed {
            return;
        }
        self.closed = true;
        let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
        let r = odci_call(
            Lane::Read(db),
            Routine::IndexClose,
            Callee::Recovering(&info),
            "error-path close",
            |sctx| index.close(sctx, &info, ctx),
        );
        if let Err(e) = r {
            db.trace().record(
                Component::Recovery,
                "CloseFailed",
                &info.indextype_name,
                e.to_string(),
            );
        }
    }
}

impl DomainScanExec {
    /// Drive ODCIIndexFetch until the join buffer holds at least one row
    /// or the scan is exhausted (closing it).
    fn fill_buffer(&mut self, db: &Exec<'_>) -> Result<()> {
        if self.ctx.is_none() && !self.closed {
            self.open(db)?;
        }
        loop {
            if !self.buffer.is_empty() {
                return Ok(());
            }
            if self.fetch_done {
                return self.close(db);
            }
            let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
            let batch = db.batch_size();
            let scan_ctx = self.ctx.as_mut().expect("scan open");
            let fetched = odci_call(
                Lane::Read(db),
                Routine::IndexFetch,
                Callee::Index(&info),
                format!("nrows={batch}"),
                |sctx| index.fetch(sctx, &info, scan_ctx, batch),
            );
            let result = match fetched {
                Ok(r) => r,
                Err(e) => {
                    // Don't leak the cartridge scan context: close it
                    // best-effort before surfacing the fetch error.
                    self.close_on_error(db);
                    return Err(e);
                }
            };
            self.fetch_done = result.done;
            if result.rows.is_empty() {
                continue;
            }
            // Deliberate, test-armed bug: lose the scan's final batch.
            // The differential oracle must catch this (ISSUE acceptance).
            if result.done && db.chaos_drop_last_domain_batch {
                continue;
            }
            // Join the whole fetch batch at once: one page-ordered
            // multi-fetch instead of a heap_fetch per rowid.
            let rids: Vec<RowId> = result.rows.iter().map(|fr| fr.rowid).collect();
            let joined = fetch_visible(db, &self.table, &rids)?;
            for (fr, row) in result.rows.into_iter().zip(joined) {
                let Some(mut row) = row else { continue };
                if let (Some(label), Some(v)) = (self.label, fr.ancillary) {
                    row.ancillary.push((label, v));
                }
                self.buffer.push_back(row);
            }
        }
    }
}

impl ExecNode for DomainScanExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Returns after one non-empty ODCIIndexFetch — the pipelining
        // property: the first rows never wait for the rest of the scan.
        self.fill_buffer(db)?;
        Ok(take_front(&mut self.buffer, max_rows))
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.close(db)?;
        self.ctx = None;
        self.closed = false;
        self.fetch_done = false;
        self.buffer.clear();
        Ok(())
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.close_on_error(db);
    }
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

/// The outer side of a join: pulls the child a batch at a time and hands
/// the rows to the join loop one by one.
struct OuterRows {
    input: Box<dyn ExecNode>,
    queue: VecDeque<ExecRow>,
}

impl OuterRows {
    fn new(input: Box<dyn ExecNode>) -> Self {
        OuterRows { input, queue: VecDeque::new() }
    }

    /// The next outer row, refilling from the child with at most
    /// `max_rows` rows (the join's own quota bounds the read-ahead).
    fn pop(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<Option<ExecRow>> {
        if self.queue.is_empty() {
            self.queue = self.input.next_batch(db, max_rows)?.rows.into();
        }
        Ok(self.queue.pop_front())
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.queue.clear();
        self.input.reset(db)
    }
}

struct NestedLoopJoinExec {
    left: OuterRows,
    right: Box<dyn ExecNode>,
    current: Option<ExecRow>,
    started: bool,
}

impl ExecNode for NestedLoopJoinExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Returns as soon as one inner batch yields a joined row — the
        // same contract as DomainScan and Filter, so the first rows of a
        // join never wait for the rest of it.
        let mut rows = Vec::new();
        while rows.is_empty() {
            if self.current.is_none() {
                let Some(l) = self.left.pop(db, max_rows)? else { break };
                if self.started {
                    self.right.reset(db)?;
                }
                self.started = true;
                self.current = Some(l);
            }
            let inner = self.right.next_batch(db, max_rows)?;
            if inner.rows.is_empty() {
                self.current = None;
                continue;
            }
            let left = self.current.as_ref().expect("outer row present");
            rows.extend(inner.rows.into_iter().map(|r| join_rows(left, r)));
        }
        Ok(RowBatch { rows })
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.left.reset(db)?;
        self.right.reset(db)?;
        self.current = None;
        self.started = false;
        Ok(())
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.left.input.abandon(db);
        self.right.abandon(db);
    }
}

/// Nested loop whose inner side is a parameterized domain scan: the outer
/// row's values become the operator's arguments (spatial-join pattern).
struct DomainJoinExec {
    left: OuterRows,
    scan: DomainScanExec,
    arg_exprs: Vec<RExpr>,
    current: Option<ExecRow>,
}

impl ExecNode for DomainJoinExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Pipelined like the scan it wraps: returns after the first
        // non-empty `ODCIIndexFetch` of whichever outer row matches first.
        let ctx = db.eval_ctx();
        loop {
            if self.current.is_none() {
                let Some(l) = self.left.pop(db, max_rows)? else {
                    return Ok(RowBatch::default());
                };
                let args: Vec<Value> =
                    self.arg_exprs.iter().map(|e| eval(e, &l, &ctx)).collect::<Result<_>>()?;
                self.scan.reset(db)?;
                self.scan.set_args(args);
                self.current = Some(l);
            }
            let inner = self.scan.next_batch(db, max_rows)?;
            if inner.rows.is_empty() {
                self.current = None;
                continue;
            }
            let left = self.current.as_ref().expect("outer row present");
            let rows = inner.rows.into_iter().map(|r| join_rows(left, r)).collect();
            return Ok(RowBatch { rows });
        }
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.left.reset(db)?;
        self.scan.reset(db)?;
        self.current = None;
        Ok(())
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.left.input.abandon(db);
        self.scan.abandon(db);
    }
}

struct HashJoinExec {
    left: Box<dyn ExecNode>,
    right: Box<dyn ExecNode>,
    left_key: RExpr,
    right_key: RExpr,
    /// Build side (right input) keyed by join key.
    table: Option<BTreeMap<Key, Vec<ExecRow>>>,
    /// Joined rows of the last probe batch not yet handed out.
    pending: VecDeque<ExecRow>,
}

impl ExecNode for HashJoinExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let ctx = db.eval_ctx();
        if self.table.is_none() {
            // Build side is a pipeline breaker — `pump` charges the
            // statement deadline per input batch.
            let mut table: BTreeMap<Key, Vec<ExecRow>> = BTreeMap::new();
            pump(self.right.as_mut(), db, |batch| {
                for r in batch.rows {
                    let key = eval(&self.right_key, &r, &ctx)?;
                    if !key.is_null() {
                        // NULL keys never join
                        table.entry(Key::single(key)).or_default().push(r);
                    }
                }
                Ok(())
            })?;
            self.table = Some(table);
        }
        let table = self.table.as_ref().expect("built");
        // One probe batch in, its matches out: keep probing only while a
        // whole batch found no partner.
        while self.pending.is_empty() {
            let probe = self.left.next_batch(db, max_rows)?;
            if probe.rows.is_empty() {
                break;
            }
            for left in probe.rows {
                let key = eval(&self.left_key, &left, &ctx)?;
                if key.is_null() {
                    continue;
                }
                for m in table.get(&Key::single(key)).into_iter().flatten() {
                    self.pending.push_back(join_rows(&left, m.clone()));
                }
            }
        }
        Ok(take_front(&mut self.pending, max_rows))
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.left.reset(db)?;
        self.right.reset(db)?;
        self.table = None;
        self.pending.clear();
        Ok(())
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.left.abandon(db);
        self.right.abandon(db);
    }
}

// ---------------------------------------------------------------------------
// row transforms
// ---------------------------------------------------------------------------

struct FilterExec {
    input: Box<dyn ExecNode>,
    /// Conjuncts in optimizer-chosen (cost-ordered) evaluation order.
    terms: Vec<FilterTerm>,
}

impl FilterExec {
    /// Kleene-AND over the ordered terms, short-circuiting at the first
    /// non-TRUE (FALSE or NULL) result — sound under any term order,
    /// since three-valued AND is commutative and a row qualifies only
    /// when every conjunct is TRUE.
    fn accepts(&self, row: &ExecRow, ctx: &EvalCtx) -> Result<bool> {
        for t in &self.terms {
            if !filter_accepts(&eval(&t.pred, row, ctx)?) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl ExecNode for FilterExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Keep pulling input batches until at least one row survives (or
        // the input is exhausted) — an empty batch means "done" upstream.
        let ctx = db.eval_ctx();
        loop {
            let batch = self.input.next_batch(db, max_rows)?;
            if batch.rows.is_empty() {
                return Ok(batch);
            }
            let mut out = Vec::with_capacity(batch.rows.len());
            for row in batch.rows {
                if self.accepts(&row, &ctx)? {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(RowBatch { rows: out });
            }
        }
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}

struct ProjectExec {
    input: Box<dyn ExecNode>,
    exprs: Vec<RExpr>,
}

impl ExecNode for ProjectExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let batch = self.input.next_batch(db, max_rows)?;
        let ctx = db.eval_ctx();
        let mut rows = Vec::with_capacity(batch.rows.len());
        for row in batch.rows {
            let values: Vec<Value> =
                self.exprs.iter().map(|e| eval(e, &row, &ctx)).collect::<Result<_>>()?;
            let mut out = ExecRow::new(values);
            out.ancillary = row.ancillary;
            rows.push(out);
        }
        Ok(RowBatch { rows })
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}

struct SortExec {
    input: Box<dyn ExecNode>,
    keys: Vec<(RExpr, bool)>,
    sorted: Option<VecDeque<ExecRow>>,
}

impl ExecNode for SortExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        if self.sorted.is_none() {
            // Pipeline breaker: the whole input drains inside this one
            // call, so `pump` charges the statement deadline per input
            // batch here rather than at the (never-reached) top level.
            let ctx = db.eval_ctx();
            let mut rows: Vec<(Vec<Value>, ExecRow)> = Vec::new();
            pump(self.input.as_mut(), db, |batch| {
                for r in batch.rows {
                    let key: Vec<Value> =
                        self.keys.iter().map(|(e, _)| eval(e, &r, &ctx)).collect::<Result<_>>()?;
                    rows.push((key, r));
                }
                Ok(())
            })?;
            let dirs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
            rows.sort_by(|(a, _), (b, _)| {
                for ((x, y), desc) in a.iter().zip(b.iter()).zip(&dirs) {
                    let ord = x.total_cmp(y);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = Some(rows.into_iter().map(|(_, r)| r).collect());
        }
        Ok(take_front(self.sorted.as_mut().expect("sorted"), max_rows))
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.sorted = None;
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}

struct LimitExec {
    input: Box<dyn ExecNode>,
    n: u64,
    produced: u64,
}

impl ExecNode for LimitExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        if self.produced >= self.n {
            // Give scans beneath a chance to close their ODCI contexts.
            self.input.reset(db)?;
            return Ok(RowBatch::default());
        }
        // Push the remaining quota down as the batch size, so the child
        // never produces rows past the limit (batch early termination).
        let want = ((self.n - self.produced) as usize).min(max_rows);
        let batch = self.input.next_batch(db, want)?;
        self.produced += batch.rows.len() as u64;
        Ok(batch)
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.produced = 0;
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}

struct DistinctExec {
    input: Box<dyn ExecNode>,
    seen: BTreeSet<Key>,
}

impl ExecNode for DistinctExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Like Filter: keep pulling until a first-seen row survives or
        // the input is exhausted.
        loop {
            let mut batch = self.input.next_batch(db, max_rows)?;
            if batch.rows.is_empty() {
                return Ok(batch);
            }
            batch.rows.retain(|r| self.seen.insert(Key(r.values.clone())));
            if !batch.rows.is_empty() {
                return Ok(batch);
            }
        }
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.seen.clear();
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct AggState {
    kind: AggKind,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new(kind: AggKind) -> Self {
        AggState { kind, count: 0, sum: 0.0, min: None, max: None }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match v {
            None => {
                // COUNT(*): every row counts.
                self.count += 1;
            }
            Some(Value::Null) => {}
            Some(v) => {
                self.count += 1;
                match self.kind {
                    AggKind::Sum | AggKind::Avg => self.sum += v.as_number()?,
                    AggKind::Min => {
                        let lower = self
                            .min
                            .as_ref()
                            .map(|m| v.total_cmp(m) == std::cmp::Ordering::Less)
                            .unwrap_or(true);
                        if lower {
                            self.min = Some(v.clone());
                        }
                    }
                    AggKind::Max => {
                        let higher = self
                            .max
                            .as_ref()
                            .map(|m| v.total_cmp(m) == std::cmp::Ordering::Greater)
                            .unwrap_or(true);
                        if higher {
                            self.max = Some(v.clone());
                        }
                    }
                    AggKind::Count => {}
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self.kind {
            AggKind::Count => Value::Integer(self.count as i64),
            AggKind::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Number(self.sum)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Number(self.sum / self.count as f64)
                }
            }
            AggKind::Min => self.min.clone().unwrap_or(Value::Null),
            AggKind::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

struct AggregateExec {
    input: Box<dyn ExecNode>,
    group: Vec<RExpr>,
    aggs: Vec<(AggKind, Option<RExpr>)>,
    output: Option<VecDeque<ExecRow>>,
}

impl ExecNode for AggregateExec {
    fn next_batch(&mut self, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        if self.output.is_none() {
            // Group order: first-seen, tracked separately from the map.
            let mut groups: BTreeMap<Key, Vec<AggState>> = BTreeMap::new();
            let mut order: Vec<Key> = Vec::new();
            let fresh =
                || -> Vec<AggState> { self.aggs.iter().map(|(k, _)| AggState::new(*k)).collect() };
            let ctx = db.eval_ctx();
            // Pipeline breaker — `pump` charges the deadline per input batch.
            pump(self.input.as_mut(), db, |batch| {
                for r in batch.rows {
                    let key_vals: Vec<Value> =
                        self.group.iter().map(|e| eval(e, &r, &ctx)).collect::<Result<_>>()?;
                    let key = Key(key_vals);
                    let states = match groups.get_mut(&key) {
                        Some(s) => s,
                        None => {
                            order.push(key.clone());
                            groups.entry(key).or_insert_with(fresh)
                        }
                    };
                    for ((_, arg), state) in self.aggs.iter().zip(states.iter_mut()) {
                        match arg {
                            None => state.update(None)?,
                            Some(e) => state.update(Some(&eval(e, &r, &ctx)?))?,
                        }
                    }
                }
                Ok(())
            })?;
            // Global aggregate over zero rows still yields one group.
            if order.is_empty() && self.group.is_empty() {
                groups.insert(Key(vec![]), fresh());
                order.push(Key(vec![]));
            }
            let mut out = VecDeque::with_capacity(order.len());
            for key in order {
                let states = &groups[&key];
                let mut values = key.0;
                values.extend(states.iter().map(|s| s.finish()));
                out.push_back(ExecRow::new(values));
            }
            self.output = Some(out);
        }
        Ok(take_front(self.output.as_mut().expect("aggregated"), max_rows))
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.output = None;
        self.input.reset(db)
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        self.input.abandon(db);
    }
}
