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
//!
//! A plan is immutable and shared: the statement cache hands the same one
//! to every execution of a text. So an executor node holds only the state
//! of one execution (cursors, buffers, counters) and reads everything else
//! from its plan node, which its parent passes down with every call.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use extidx_common::{Error, Key, Result, Row, RowId, Value};
use extidx_core::governor;
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::odci;
use extidx_core::scan::ScanContext;
use extidx_core::sandbox;
use extidx_core::server::{BaseRow, RowVisitor};
use extidx_core::trace::{Component, Routine};
use extidx_core::OdciIndex;
use extidx_storage::{SegmentId, Snapshot, StorageEngine};

use crate::catalog::{Catalog, TableDef, TableOrg};
use crate::database::Database;
use crate::exec_ctx::{odci_batch_call, Callee, Exec, Lane};
use crate::expr::{eval, AggKind, EvalCtx, ExecRow, RExpr, Slots};
use crate::plan::{value_of, FilterTerm, KeyBound, PlanKind, PlanNode, Projection, ReadSet};
use crate::vtables;

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

/// A pull-based physical operator: the execution state of one plan node.
pub trait ExecNode: Send {
    /// Produce up to `max_rows` rows of `plan` — the node this state was
    /// built from; an empty batch means exhausted. The only way rows move:
    /// parents pull their children through this, handing each its own
    /// plan node, and `max_rows` is a hard cap so `Limit` can push its
    /// remaining quota down and stop joins and domain scans early.
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch>;

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

/// The fields of the plan node an executor state runs. `build_node` pairs
/// every state with the kind it was built for, so any other is a bug.
macro_rules! plan_of {
    ($plan:expr, $kind:pat) => {
        let $kind = &$plan.kind else {
            unreachable!("executor state run against a plan node of another kind")
        };
    };
}

/// Pull `exec` (running `plan`) to exhaustion, handing each non-empty
/// batch to `sink`. The statement deadline is charged once per batch.
fn pump(
    exec: &mut dyn ExecNode,
    plan: &PlanNode,
    db: &Exec<'_>,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<()> {
    loop {
        governor::poll()?;
        let batch = exec.next_batch(plan, db, BATCH_TARGET)?;
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
    plan: &PlanNode,
    db: &Exec<'_>,
    sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<()> {
    let run = pump(exec, plan, db, sink);
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

/// [`StorageEngine::fetch`](extidx_storage::StorageEngine::fetch) of
/// `table`, for every rowid-producing access path and for cartridges'
/// [`ServerContext::fetch_base_rows`](extidx_core::ServerContext): `None`
/// (nothing visible) is skipped like a non-match.
pub(crate) fn fetch_visible<'a>(
    db: &'a Database,
    snap: &Snapshot,
    table: &str,
    rids: &[RowId],
) -> Result<Vec<Option<&'a Row>>> {
    db.storage.fetch(db.catalog.table(table)?.seg, rids, snap)
}

/// The one copy of a storage row into the executor: the columns `reads`
/// names are cloned, every other column is carried as NULL, and the
/// hidden trailing ROWID slot holds `rid` when it is read.
fn exec_row(reads: &ReadSet, rid: RowId, row: &Row) -> ExecRow {
    let mut values = Vec::with_capacity(row.len() + 1);
    let kept = |(i, v): (usize, &Value)| if reads.reads(i) { v.clone() } else { Value::Null };
    values.extend(row.iter().enumerate().map(kept));
    values.push(if reads.reads(row.len()) { Value::RowId(rid) } else { Value::Null });
    ExecRow::new(values)
}

/// A visited storage row, borrowed where it lies: what a fused Filter
/// tests before anything of it is copied. Its last slot is the hidden
/// ROWID; a stored row carries no ancillary data.
struct StoredRow<'r> {
    row: &'r Row,
    rowid: Value,
}

impl Slots for StoredRow<'_> {
    fn slot(&self, i: usize) -> Option<&Value> {
        self.row.get(i).or((i == self.row.len()).then_some(&self.rowid))
    }

    fn ancillary_for(&self, _label: i64) -> Option<&Value> {
        None
    }
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

/// Build the execution state for a plan: one node per plan node, holding
/// nothing of the plan itself, so one (cached) plan serves any number of
/// executions.
pub fn build(plan: &PlanNode) -> Box<dyn ExecNode> {
    build_node(plan, &mut None)
}

/// Build the executor tree with every node wrapped in an
/// [`InstrumentExec`] (the EXPLAIN ANALYZE path). The returned stats
/// cells are allocated in the same pre-order as
/// [`PlanNode::explain`] renders lines, so `lines[i]` describes
/// `cells[i]`. Accounting is *inclusive*: a node's counters cover its
/// whole subtree, so the root cell's buffer gets equal the statement's
/// cache delta.
pub fn build_instrumented(plan: &PlanNode) -> (Box<dyn ExecNode>, Vec<Arc<NodeStats>>) {
    let mut cells = Some(Vec::new());
    let node = build_node(plan, &mut cells);
    (node, cells.expect("cells present"))
}

fn build_node(plan: &PlanNode, cells: &mut Option<Vec<Arc<NodeStats>>>) -> Box<dyn ExecNode> {
    // Pre-order: allocate this node's cell before descending, mirroring
    // `explain_into` (self line first, then children left-to-right).
    let mut cell = || {
        cells.as_mut().map(|v| {
            let s: Arc<NodeStats> = Arc::default();
            v.push(s.clone());
            s
        })
    };
    let stats = cell();
    let inner: Box<dyn ExecNode> = match &plan.kind {
        PlanKind::FullScan { .. }
        | PlanKind::IotFullScan { .. }
        | PlanKind::IotRange { .. }
        | PlanKind::BTreeAccess { .. }
        | PlanKind::RowIdEq { .. } => Box::new(ScanExec::new(&plan.kind, None)),
        // A Filter over such an access runs inside it; the access's
        // EXPLAIN ANALYZE line, which follows the FILTER line, gets its
        // own cell.
        PlanKind::Filter { input, .. } if reads_in_place(&input.kind) => {
            Box::new(ScanExec::new(&input.kind, cell()))
        }
        PlanKind::RowCount { .. } => Box::new(RowCountExec { done: false }),
        PlanKind::View { .. } => Box::new(ViewExec { rows: None, idx: 0 }),
        PlanKind::DomainScan { outer, .. } => Box::new(DomainScanExec {
            outer: outer.as_ref().map(|o| build_node(o, cells)),
            ..DomainScanExec::default()
        }),
        PlanKind::Filter { input, .. } => Box::new(FilterExec { input: build_node(input, cells) }),
        PlanKind::Project { input, .. } => Box::new(ProjectExec { input: build_node(input, cells) }),
        PlanKind::NestedLoopJoin { left, right } => Box::new(NestedLoopJoinExec {
            left: OuterRows::new(build_node(left, cells)),
            right: build_node(right, cells),
            current: None,
            started: false,
        }),
        PlanKind::HashJoin { left, right, .. } => Box::new(HashJoinExec {
            left: build_node(left, cells),
            right: build_node(right, cells),
            table: None,
            pending: VecDeque::new(),
        }),
        PlanKind::Sort { input, .. } => {
            Box::new(SortExec { input: build_node(input, cells), sorted: None })
        }
        PlanKind::Limit { input, .. } => {
            Box::new(LimitExec { input: build_node(input, cells), produced: 0 })
        }
        PlanKind::Distinct { input } => {
            Box::new(DistinctExec { input: build_node(input, cells), seen: BTreeSet::new() })
        }
        PlanKind::Aggregate { input, .. } => {
            Box::new(AggregateExec { input: build_node(input, cells), output: None })
        }
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

    /// Run `batch` — one batch of the node these counters describe — and
    /// add what it cost: a batch, its wall time and buffer-cache deltas,
    /// and `rows(out)` rows when it succeeds.
    fn time<T>(
        &self,
        db: &Exec<'_>,
        batch: impl FnOnce() -> Result<T>,
        rows: impl FnOnce(&T) -> usize,
    ) -> Result<T> {
        let cache_before = db.cache_stats();
        let started = Instant::now();
        let out = batch();
        let elapsed = started.elapsed().as_nanos() as u64;
        let delta = db.cache_stats().since(&cache_before);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.elapsed_nanos.fetch_add(elapsed, Ordering::Relaxed);
        self.logical_reads.fetch_add(delta.logical_reads, Ordering::Relaxed);
        self.physical_reads.fetch_add(delta.physical_reads, Ordering::Relaxed);
        self.physical_writes.fetch_add(delta.physical_writes, Ordering::Relaxed);
        if let Ok(out) = &out {
            self.rows.fetch_add(rows(out) as u64, Ordering::Relaxed);
        }
        out
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
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        let inner = &mut self.inner;
        let out = self.stats.time(db, || inner.next_batch(plan, db, max_rows), |b| b.rows.len());
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
    /// The next up-to-`max_rows` rows visible under `snap`, each with its
    /// rowid — borrowed, so callers clone only what they keep. Fewer than
    /// `max_rows` means the segment ended. `skip_page` is asked once per
    /// page, on first entry and before any read is charged.
    fn next_rows<'a>(
        &mut self,
        storage: &'a StorageEngine,
        snap: &'a Snapshot,
        max_rows: usize,
        mut skip_page: impl FnMut(u32) -> bool,
    ) -> Result<Vec<(RowId, &'a Row)>> {
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
                out.push((rid, row));
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

/// A bound on a key prefix must cover all longer keys sharing the prefix:
/// the upper bound is padded to `key_cols` parts with NULLs, which sort
/// last.
fn pad_key(key_cols: usize) -> impl FnOnce(Key) -> Key {
    move |mut k: Key| {
        k.0.resize(k.0.len().max(key_cols), Value::Null);
        k
    }
}

/// `ServerContext::read_key_range` on either lane: the stored rows of the
/// index-organized `table` whose leading key column `key_col` lies in
/// `lo..=hi`, each lent to `visit` in key order, read under `snap` through
/// the one [`IotCursor`] in [`BATCH_TARGET`] batches — the batches, bounds
/// and page charges of the IOT range plan the query
/// `SELECT * … WHERE key_col >= ? AND key_col <= ?` runs. Each batch read
/// is charged a sandbox tick and a statement-deadline poll, as [`pump`]
/// polls once per batch; a range that can hold nothing reads no batch. A
/// heap table, or any column but the leading key column, is refused.
pub(crate) fn read_key_range(
    db: &Database,
    snap: &Snapshot,
    table: &str,
    key_col: &str,
    lo: &Value,
    hi: &Value,
    visit: &mut RowVisitor,
) -> Result<()> {
    let tdef = db.catalog.table(table)?;
    let TableOrg::Index { key_cols } = tdef.org else {
        return Err(Error::CallbackViolation(format!(
            "read_key_range needs an index-organized table; {table} is a heap"
        )));
    };
    if tdef.column_index(key_col)? != 0 {
        return Err(Error::CallbackViolation(format!(
            "read_key_range reads by the leading key column of {table}, not {key_col}"
        )));
    }
    db.key_range_reads.fetch_add(1, Ordering::Relaxed);
    let bound = |v: &Value| Some((!v.is_null()).then(|| Key(vec![v.clone()])));
    let mut cursor = IotCursor::spanning(tdef.seg, bound(lo), bound(hi), pad_key(key_cols));
    while !cursor.done {
        sandbox::tick();
        governor::poll()?;
        for (_, row) in cursor.next_rows(&db.storage, snap, BATCH_TARGET)? {
            visit(row)?;
        }
    }
    Ok(())
}

/// Cursor of the one IOT read: [`IotScanExec`], [`BTreeAccessExec`],
/// [`BaseScan`] and [`read_key_range`] page through
/// `StorageEngine::iot_range` with it, `max_rows` rows at a time from an
/// exclusive after-key, so a scan that stops early (a `LIMIT` quota, a
/// join's, a build batch boundary) has read and charged only the batches
/// it returned. `lo`/`hi` are inclusive.
pub(crate) struct IotCursor {
    seg: SegmentId,
    lo: Option<Key>,
    hi: Option<Key>,
    /// Key of the last row handed out (`None` before the first batch).
    after: Option<Key>,
    /// A short batch ended the range: nothing is left to read.
    done: bool,
}

impl IotCursor {
    fn new(seg: SegmentId, lo: Option<Key>, hi: Option<Key>) -> Self {
        IotCursor { seg, lo, hi, after: None, done: false }
    }

    /// The cursor over the inclusive range a plan's key bounds name under
    /// the statement's binds, `pad_hi` widening the upper key to every
    /// entry it prefixes.
    fn over(
        db: &Exec<'_>,
        seg: SegmentId,
        lo: Option<&KeyBound>,
        hi: Option<&KeyBound>,
        pad_hi: impl FnOnce(Key) -> Key,
    ) -> Result<Self> {
        let ctx = db.eval_ctx();
        let resolve = |b: Option<&KeyBound>| b.map(|b| b.resolve(&ctx)).transpose();
        Ok(IotCursor::spanning(seg, resolve(lo)?, resolve(hi)?, pad_hi))
    }

    /// The cursor over inclusive bounds (`None`: unbounded; `Some(None)`: a
    /// bound with a NULL part), `pad_hi` widening the upper key to every
    /// entry it prefixes. A range that can hold nothing — a bound with a
    /// NULL part, or a lower bound past the upper one (a reversed `BETWEEN
    /// ? AND ?`) — reads nothing.
    fn spanning(
        seg: SegmentId,
        lo: Option<Option<Key>>,
        hi: Option<Option<Key>>,
        pad_hi: impl FnOnce(Key) -> Key,
    ) -> Self {
        if matches!(lo, Some(None)) || matches!(hi, Some(None)) {
            return IotCursor { done: true, ..IotCursor::new(seg, None, None) };
        }
        let cursor = IotCursor::new(seg, lo.flatten(), hi.flatten().map(pad_hi));
        let reversed = matches!((&cursor.lo, &cursor.hi), (Some(l), Some(h)) if l > h);
        IotCursor { done: reversed, ..cursor }
    }

    /// The next up-to-`max_rows` rows visible under `snap`, each with its
    /// rowid — borrowed, so callers clone only what they keep. Fewer than
    /// `max_rows` means the range ended.
    fn next_rows<'a>(
        &mut self,
        storage: &'a StorageEngine,
        snap: &Snapshot,
        max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>> {
        if self.done {
            return Ok(Vec::new());
        }
        let lo = match (&self.after, &self.lo) {
            (Some(after), _) => Bound::Excluded(after),
            (None, lo) => lo.as_ref().map_or(Bound::Unbounded, Bound::Included),
        };
        let hi = self.hi.as_ref().map_or(Bound::Unbounded, Bound::Included);
        let max_rows = max_rows.max(1);
        let batch = storage.iot_range(self.seg, lo, hi, max_rows, snap)?;
        self.done = batch.len() < max_rows;
        if let Some(&(_, last, _)) = batch.last() {
            self.after = Some(last.clone());
        }
        Ok(batch.into_iter().map(|(rid, _, row)| (rid, row)).collect())
    }
}

/// The resumable, snapshot-pinned scan of one base table behind index
/// builds (`scan_base_batches` on both lanes, `CREATE INDEX` of a B-tree)
/// and `ANALYZE`: never more than one batch is held. Heap tables go
/// through the [`HeapWalk`]; IOTs through the [`IotCursor`], in key order
/// with logical rowids.
pub(crate) enum BaseScan {
    Heap(HeapWalk),
    Iot(IotCursor),
}

impl BaseScan {
    pub(crate) fn new(tdef: &TableDef) -> Self {
        match tdef.org {
            TableOrg::Heap => BaseScan::Heap(HeapWalk { seg: tdef.seg, page: 0, slot: 0 }),
            TableOrg::Index { .. } => BaseScan::Iot(IotCursor::new(tdef.seg, None, None)),
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
        let rows = match self {
            BaseScan::Heap(walk) => walk.next_rows(storage, snap, batch_size, |_| false)?,
            BaseScan::Iot(cursor) => cursor.next_rows(storage, snap, batch_size)?,
        };
        Ok(rows.into_iter().map(|(rid, row)| project(rid, row)).collect())
    }
}

/// The execution state of an access that reads stored rows in place — a
/// heap full scan, an IOT scan or key range, a B-tree range, a rowid
/// fetch. It only visits rows; [`ScanExec`] tests and copies them.
trait Access: Send {
    /// The next up-to-`max_rows` rows of `plan` visible to the statement,
    /// each with its rowid, borrowed from storage; none means exhausted.
    fn visit<'a>(
        &mut self,
        plan: &PlanNode,
        db: &'a Exec<'_>,
        max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>>;

    /// Rewind to the first row.
    fn reset(&mut self);

    /// Pages skipped via zone maps (heap full scans only).
    fn pages_pruned(&self) -> u64 {
        0
    }
}

/// Whether `kind` reads stored rows in place: every base access but a
/// domain scan, whose rows arrive by rowid one `ODCIIndexFetch` at a time.
fn reads_in_place(kind: &PlanKind) -> bool {
    matches!(
        kind,
        PlanKind::FullScan { .. }
            | PlanKind::IotFullScan { .. }
            | PlanKind::IotRange { .. }
            | PlanKind::BTreeAccess { .. }
            | PlanKind::RowIdEq { .. }
    )
}

/// A stored-row access with the Filter above it, if there is one, fused
/// in: each visited row is tested where it lies in storage, and only the
/// rows that pass are copied — only the columns the plan reads (the
/// access's [`ReadSet`]). The same state runs a bare access (its own plan
/// node, no terms) and a fused one (the Filter's node); the batches are
/// the bare access's, so term order, short-circuiting and the rows each
/// batch visits are what a Filter pulling from the access would see.
struct ScanExec {
    access: Box<dyn Access>,
    /// EXPLAIN ANALYZE of a fused Filter: the access line's counters —
    /// rows visited there, survivors on the FILTER line.
    access_stats: Option<Arc<NodeStats>>,
}

impl ScanExec {
    fn new(kind: &PlanKind, access_stats: Option<Arc<NodeStats>>) -> Self {
        let access: Box<dyn Access> = match kind {
            PlanKind::FullScan { .. } => Box::<FullScanExec>::default(),
            PlanKind::IotFullScan { .. } | PlanKind::IotRange { .. } => {
                Box::new(IotScanExec { cursor: None })
            }
            PlanKind::BTreeAccess { .. } => Box::new(BTreeAccessExec { cursor: None }),
            PlanKind::RowIdEq { .. } => Box::new(RowIdEqExec { done: false }),
            _ => unreachable!("a scan state built for a plan node that is not a stored access"),
        };
        ScanExec { access, access_stats }
    }
}

impl ExecNode for ScanExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Conjuncts arrive in optimizer-chosen (cost-ordered) order.
        let (access, terms) = match &plan.kind {
            PlanKind::Filter { input, terms, .. } => (input.as_ref(), terms.as_slice()),
            _ => (plan, &[][..]),
        };
        let reads = access.kind.read_set().expect("a stored access has a read set");
        let ctx = db.eval_ctx();
        // Keep visiting until at least one row survives (or the access is
        // exhausted) — an empty batch means "done" upstream.
        loop {
            let visited = match &self.access_stats {
                None => self.access.visit(access, db, max_rows)?,
                Some(stats) => {
                    let access_state = &mut self.access;
                    let visit = || access_state.visit(access, db, max_rows);
                    let visited = stats.time(db, visit, Vec::len)?;
                    stats.pages_pruned.store(self.access.pages_pruned(), Ordering::Relaxed);
                    visited
                }
            };
            let mut rows = Vec::with_capacity(if terms.is_empty() { visited.len() } else { 0 });
            for &(rid, row) in &visited {
                let stored = StoredRow { row, rowid: Value::RowId(rid) };
                if terms.is_empty() || accepts(terms, &stored, &ctx)? {
                    rows.push(exec_row(reads, rid, row));
                }
            }
            if visited.is_empty() || !rows.is_empty() {
                return Ok(RowBatch { rows });
            }
        }
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.access.reset();
        Ok(())
    }

    /// Read by EXPLAIN ANALYZE only. A fused state answers for its FILTER
    /// line, which skips no page; its access line is counted through
    /// `access_stats`.
    fn pages_pruned(&self) -> u64 {
        if self.access_stats.is_some() {
            0
        } else {
            self.access.pages_pruned()
        }
    }
}

#[derive(Default)]
struct FullScanExec {
    walk: Option<HeapWalk>,
    /// The plan's zone-map bounds under this execution's binds, as
    /// `(column, lo, hi)`: a page whose recorded min/max excludes *any*
    /// bound (they are ANDed conjuncts) is skipped without ever charging a
    /// buffer read.
    prune: Vec<(usize, Option<Value>, Option<Value>)>,
    pruned: u64,
}

impl Access for FullScanExec {
    fn visit<'a>(
        &mut self,
        plan: &PlanNode,
        db: &'a Exec<'_>,
        max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>> {
        plan_of!(plan, PlanKind::FullScan { table, prune, .. });
        let walk = match &mut self.walk {
            Some(w) => w,
            None => {
                let seg = db.catalog.table(table)?.seg;
                // A side that resolves to NULL prunes nothing: its conjunct
                // stays in the residual and rejects every row anyway.
                let ctx = db.eval_ctx();
                let side = |e: &Option<RExpr>| -> Result<Option<Value>> {
                    let v = e.as_ref().map(|e| value_of(e, &ctx)).transpose()?;
                    Ok(v.filter(|v| !v.is_null()))
                };
                self.prune = prune
                    .iter()
                    .map(|b| Ok((b.col, side(&b.lo)?, side(&b.hi)?)))
                    .collect::<Result<_>>()?;
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
            let excluded = prune.iter().any(|(col, lo, hi)| {
                db.storage.heap_zone_excludes(seg, page, *col, lo.as_ref(), hi.as_ref())
            });
            *pruned += u64::from(excluded);
            excluded
        };
        // Snapshot isolation: the walk replaces each in-place (newest)
        // image with the version this statement's snapshot may see —
        // possibly a displaced older version, possibly nothing
        // (uncommitted insert, or a delete committed before us).
        walk.next_rows(&db.storage, &db.snap, max_rows, zone_excluded)
    }

    fn reset(&mut self) {
        self.walk = None;
    }

    fn pages_pruned(&self) -> u64 {
        self.pruned
    }
}

/// Full or key-range scan over an index-organized table, streamed through
/// an [`IotCursor`]; every row carries its logical rowid in the hidden
/// ROWID column, mirroring heap scans.
struct IotScanExec {
    cursor: Option<IotCursor>,
}

impl Access for IotScanExec {
    fn visit<'a>(
        &mut self,
        plan: &PlanNode,
        db: &'a Exec<'_>,
        max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>> {
        let (table, lo, hi) = match &plan.kind {
            PlanKind::IotFullScan { table, .. } => (table, None, None),
            PlanKind::IotRange { table, lo, hi, .. } => (table, lo.as_ref(), hi.as_ref()),
            _ => unreachable!("executor state run against a plan node of another kind"),
        };
        let cursor = match &mut self.cursor {
            Some(c) => c,
            None => {
                let tdef = db.catalog.table(table)?;
                let key_cols = match tdef.org {
                    TableOrg::Index { key_cols } => key_cols,
                    _ => 1,
                };
                self.cursor.insert(IotCursor::over(db, tdef.seg, lo, hi, pad_key(key_cols))?)
            }
        };
        cursor.next_rows(&db.storage, &db.snap, max_rows)
    }

    fn reset(&mut self) {
        self.cursor = None;
    }
}

/// B-tree index range → base rows: the index's `(key, rowid)` entries
/// stream through an [`IotCursor`], one batch of rowids per base fetch.
struct BTreeAccessExec {
    cursor: Option<IotCursor>,
}

impl Access for BTreeAccessExec {
    fn visit<'a>(
        &mut self,
        plan: &PlanNode,
        db: &'a Exec<'_>,
        max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>> {
        plan_of!(plan, PlanKind::BTreeAccess { table, index, lo, hi, .. });
        let cursor = match &mut self.cursor {
            Some(c) => c,
            None => {
                let idef = db
                    .catalog
                    .btree_index(index)
                    .ok_or_else(|| Error::not_found("index", index.clone()))?;
                // Pad the upper bound with MAX_ROWID so every (key, rowid)
                // entry of the boundary key is included.
                let pad = |k: Key| Key(k.0.into_iter().chain([Value::RowId(MAX_ROWID)]).collect());
                self.cursor.insert(IotCursor::over(db, idef.seg, lo.as_ref(), hi.as_ref(), pad)?)
            }
        };
        // Index entries and base rows are maintained in the same
        // transaction, but the *versions* can diverge mid-statement: an
        // entry visible in the index may point at a base row whose visible
        // image is a different (or no) version — skip those, and keep
        // pulling entry batches until one yields a row.
        let mut rows = Vec::new();
        while rows.is_empty() {
            let entries = cursor.next_rows(&db.storage, &db.snap, max_rows)?;
            if entries.is_empty() {
                break;
            }
            let rids = entries.iter().map(|(_, e)| e[1].as_rowid()).collect::<Result<Vec<_>>>()?;
            let fetched = fetch_visible(db, &db.snap, table, &rids)?;
            rows.extend(rids.into_iter().zip(fetched).filter_map(|(rid, row)| Some((rid, row?))));
        }
        Ok(rows)
    }

    fn reset(&mut self) {
        self.cursor = None;
    }
}

/// `COUNT(*)` of a whole table, decided when it runs: the plan holds no
/// count, so a cached plan never answers from an old one.
struct RowCountExec {
    done: bool,
}

impl ExecNode for RowCountExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, _max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::RowCount { table });
        if std::mem::replace(&mut self.done, true) {
            return Ok(RowBatch::default());
        }
        let tdef = db.catalog.table(table)?;
        // Physical row counts are only snapshot-exact while every version
        // chain of the segment is settled; with a concurrent writer's
        // versions in play, count what this statement's snapshot sees.
        let rows = if db.storage.segment_settled(tdef.seg) {
            db.storage.row_count(tdef.seg)?
        } else {
            let (mut scan, mut rows) = (BaseScan::new(tdef), 0);
            loop {
                governor::poll()?;
                let seen = scan.next_batch(&db.storage, &db.snap, BATCH_TARGET, |_, _| ())?.len();
                if seen == 0 {
                    break rows;
                }
                rows += seen;
            }
        };
        Ok(RowBatch { rows: vec![ExecRow::new(vec![Value::Integer(rows as i64)])] })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.done = false;
        Ok(())
    }
}

/// A `V$` view: its rows are read from engine state on the first pull and
/// replayed from there on a rewind, so one execution sees one image.
struct ViewExec {
    rows: Option<Vec<Row>>,
    idx: usize,
}

impl ExecNode for ViewExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::View { table });
        let rows = match &mut self.rows {
            Some(rows) => rows,
            None => self.rows.insert(vtables::vtable_rows(db, table)?),
        };
        let end = (self.idx + max_rows).min(rows.len());
        let batch = rows[self.idx..end].iter().map(|r| ExecRow::new(r.clone())).collect();
        self.idx = end;
        Ok(RowBatch { rows: batch })
    }

    fn reset(&mut self, _db: &Exec<'_>) -> Result<()> {
        self.idx = 0;
        Ok(())
    }
}

/// Single-row fetch by rowid. A rowid pointing at a deleted slot yields
/// no row (stale rowids simply do not match, like Oracle).
struct RowIdEqExec {
    done: bool,
}

impl Access for RowIdEqExec {
    fn visit<'a>(
        &mut self,
        plan: &PlanNode,
        db: &'a Exec<'_>,
        _max_rows: usize,
    ) -> Result<Vec<(RowId, &'a Row)>> {
        plan_of!(plan, PlanKind::RowIdEq { table, rid, .. });
        if std::mem::replace(&mut self.done, true) {
            return Ok(Vec::new());
        }
        // Only the storage fetch may fail quietly (stale rowid ⇒ no row);
        // an unknown table is still an error.
        db.catalog.table(table)?;
        // A bind holding anything but a rowid matches nothing, as the
        // comparison `ROWID = ?` would not.
        let Value::RowId(rid) = value_of(rid, &db.eval_ctx())? else {
            return Ok(Vec::new());
        };
        let row =
            fetch_visible(db, &db.snap, table, &[rid]).ok().and_then(|mut v| v.pop().flatten());
        Ok(row.map(|row| (rid, row)).into_iter().collect())
    }

    fn reset(&mut self) {
        self.done = false;
    }
}

// ---------------------------------------------------------------------------
// domain-index scan
// ---------------------------------------------------------------------------

/// Drives ODCIIndexStart/Fetch/Close on a cartridge and joins returned
/// rowids to base rows — the server half of Fig. 1's index-access path.
/// One batched scan ([`OdciIndex::start_batch`]) per batch of the outer
/// input (a domain join), or one over a batch of one empty row when there
/// is none.
#[derive(Default)]
struct DomainScanExec {
    /// A domain join's outer input.
    outer: Option<Box<dyn ExecNode>>,
    /// The outer rows of the batch in flight, one per argument row the
    /// scan was started with (a fetched row's
    /// [`arg`](extidx_core::scan::FetchedRow::arg) indexes it); `None`
    /// between batches.
    batch: Option<Vec<ExecRow>>,
    /// Whether the one batch of a scan with no outer input has begun.
    passed: bool,
    runtime: Option<(Arc<dyn OdciIndex>, IndexInfo)>,
    /// The open cartridge scan context, between ODCIIndexStart and Close.
    ctx: Option<ScanContext>,
    /// Argument rows of the open scan: what its crossings' budgets scale by.
    rows: usize,
    /// Rows already joined to the base table, ready to stream out. Whole
    /// `FetchResult` batches are joined at once through [`fetch_visible`],
    /// which orders page touches, so the cache sees each heap page once
    /// per batch instead of once per row.
    buffer: VecDeque<ExecRow>,
    fetch_done: bool,
}

impl DomainScanExec {
    fn ensure_runtime(&mut self, index: &str, db: &Exec<'_>) -> Result<()> {
        if self.runtime.is_none() {
            let def = db
                .catalog
                .domain_index(index)
                .ok_or_else(|| Error::not_found("domain index", index.to_string()))?
                .clone();
            let (index, _, info) = db.domain_index_runtime(&def)?;
            self.runtime = Some((index, info));
        }
        Ok(())
    }

    /// Begin the batch `rows`: evaluate the operator's arguments against
    /// each row and ODCIIndexStart once with those of the rows that have
    /// no NULL argument. A NULL argument makes the operator NULL, so its
    /// row joins nothing and the cartridge never sees it; a batch of such
    /// rows alone starts no scan.
    fn begin_batch(&mut self, plan: &PlanNode, rows: Vec<ExecRow>, db: &Exec<'_>) -> Result<()> {
        plan_of!(
            plan,
            PlanKind::DomainScan { index, operator, args, column_pos, bound, label, .. }
        );
        let ctx = db.eval_ctx();
        let (mut kept, mut arg_rows) = (Vec::with_capacity(rows.len()), Vec::new());
        for row in rows {
            let values = args.iter().map(|e| eval(e, &row, &ctx)).collect::<Result<Vec<_>>>()?;
            if !values.iter().any(Value::is_null) {
                kept.push(row);
                arg_rows.push(values);
            }
        }
        (self.batch, self.fetch_done, self.rows) = (Some(kept), true, arg_rows.len());
        if arg_rows.is_empty() {
            return Ok(());
        }
        self.ensure_runtime(index, db)?;
        let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
        let call = OperatorCall {
            operator: operator.clone(),
            args: Vec::new(),
            column_pos: *column_pos,
            bound: bound.clone(),
            wants_ancillary: label.is_some(),
        };
        let started = odci_batch_call(
            Lane::Read(db),
            Routine::IndexStart,
            Callee::Index(&info),
            self.rows,
            || format!("{}({} args) rows={}", call.operator, args.len(), self.rows),
            |ctx| index.start_batch(ctx, &info, &call, &arg_rows),
        );
        match started {
            Ok(c) => {
                (self.ctx, self.fetch_done) = (Some(c), false);
                Ok(())
            }
            Err(e) => {
                // A failed start leaves no scan context to close, but the
                // event stream must still balance Start/Close pairs — the
                // lifecycle invariant tests count events, not contexts.
                db.trace().record(
                    Component::Recovery,
                    "ODCIIndexClose",
                    &info.indextype_name,
                    || "start failed; no scan context".into(),
                );
                Err(e)
            }
        }
    }

    fn close(&mut self, db: &Exec<'_>) -> Result<()> {
        if let Some(ctx) = self.ctx.take() {
            let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
            let callee = Callee::Index(&info);
            let rows = self.rows;
            odci_batch_call(Lane::Read(db), Routine::IndexClose, callee, rows, String::new, |sctx| {
                odci::close_batch(&*index, sctx, &info, ctx)
            })?;
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
        let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
        let r = odci_batch_call(
            Lane::Read(db),
            Routine::IndexClose,
            Callee::Recovering(&info),
            self.rows,
            || "error-path close".into(),
            |sctx| odci::close_batch(&*index, sctx, &info, ctx),
        );
        if let Err(e) = r {
            db.trace().record(
                Component::Recovery,
                "CloseFailed",
                &info.indextype_name,
                || e.to_string(),
            );
        }
    }

    /// Up to `max_rows` rows of the current batch: drive ODCIIndexFetch
    /// until the join buffer holds at least one row or the scan is
    /// exhausted (closing it). Returns after one non-empty fetch — the
    /// pipelining property: the first rows never wait for the rest.
    fn next_rows(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::DomainScan { outer, table, label, reads, .. });
        while self.buffer.is_empty() {
            if self.fetch_done {
                self.close(db)?;
                break;
            }
            let (index, info) = self.runtime.as_ref().expect("runtime resolved").clone();
            let batch = db.batch_size();
            let scan_ctx = self.ctx.as_mut().expect("scan open");
            let fetched = odci_batch_call(
                Lane::Read(db),
                Routine::IndexFetch,
                Callee::Index(&info),
                self.rows,
                || format!("nrows={batch}"),
                |sctx| odci::fetch_batch(&*index, sctx, &info, scan_ctx, batch),
            );
            let outer_rows = self.batch.as_deref().unwrap_or_default();
            let result = match fetched {
                Ok(r) if r.rows.iter().all(|fr| fr.arg < outer_rows.len()) => r,
                Ok(_) => {
                    self.close_on_error(db);
                    let msg = "fetched a row for an argument row outside the batch";
                    return Err(Error::odci(&info.indextype_name, "ODCIIndexFetch", msg));
                }
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
            // Join the whole fetch batch at once: one page-ordered
            // multi-fetch instead of a heap_fetch per rowid.
            let rids: Vec<RowId> = result.rows.iter().map(|fr| fr.rowid).collect();
            let joined = fetch_visible(db, &db.snap, table, &rids)?;
            for (fr, row) in result.rows.into_iter().zip(joined) {
                let Some(row) = row else { continue };
                let mut row = exec_row(reads, fr.rowid, row);
                if let (Some(label), Some(v)) = (*label, fr.ancillary) {
                    row.ancillary.push((label, v));
                }
                // Joining to the empty row of a scan leaves its rows as
                // they are.
                let row = if outer.is_some() { join_rows(&outer_rows[fr.arg], row) } else { row };
                self.buffer.push_back(row);
            }
        }
        Ok(take_front(&mut self.buffer, max_rows))
    }
}

impl ExecNode for DomainScanExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::DomainScan { outer, .. });
        // Returns after the first non-empty `ODCIIndexFetch` of whichever
        // batch has rows first.
        loop {
            if self.batch.is_none() {
                let rows = match (&mut self.outer, outer) {
                    (Some(input), Some(plan)) => input.next_batch(plan, db, max_rows)?.rows,
                    _ if !std::mem::replace(&mut self.passed, true) => vec![ExecRow::default()],
                    _ => Vec::new(),
                };
                if rows.is_empty() {
                    return Ok(RowBatch::default());
                }
                self.begin_batch(plan, rows, db)?;
            }
            let rows = self.next_rows(plan, db, max_rows)?;
            if !rows.rows.is_empty() {
                return Ok(rows);
            }
            self.batch = None;
        }
    }

    fn reset(&mut self, db: &Exec<'_>) -> Result<()> {
        self.close(db)?;
        if let Some(outer) = &mut self.outer {
            outer.reset(db)?;
        }
        (self.batch, self.passed, self.fetch_done) = (None, false, false);
        self.buffer.clear();
        Ok(())
    }

    fn abandon(&mut self, db: &Exec<'_>) {
        if let Some(outer) = &mut self.outer {
            outer.abandon(db);
        }
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

    /// The next outer row, refilling from the child (running `plan`) with
    /// at most `max_rows` rows (the join's own quota bounds the read-ahead).
    fn pop(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<Option<ExecRow>> {
        if self.queue.is_empty() {
            self.queue = self.input.next_batch(plan, db, max_rows)?.rows.into();
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
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::NestedLoopJoin { left, right });
        // Returns as soon as one inner batch yields a joined row — the
        // same contract as DomainScan and Filter, so the first rows of a
        // join never wait for the rest of it.
        let mut rows = Vec::new();
        while rows.is_empty() {
            if self.current.is_none() {
                let Some(l) = self.left.pop(left, db, max_rows)? else { break };
                if self.started {
                    self.right.reset(db)?;
                }
                self.started = true;
                self.current = Some(l);
            }
            let inner = self.right.next_batch(right, db, max_rows)?;
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

struct HashJoinExec {
    left: Box<dyn ExecNode>,
    right: Box<dyn ExecNode>,
    /// Build side (right input) keyed by join key.
    table: Option<BTreeMap<Key, Vec<ExecRow>>>,
    /// Joined rows of the last probe batch not yet handed out.
    pending: VecDeque<ExecRow>,
}

impl ExecNode for HashJoinExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::HashJoin { left, right, left_key, right_key });
        let ctx = db.eval_ctx();
        if self.table.is_none() {
            // Build side is a pipeline breaker — `pump` charges the
            // statement deadline per input batch.
            let mut table: BTreeMap<Key, Vec<ExecRow>> = BTreeMap::new();
            pump(self.right.as_mut(), right, db, |batch| {
                for r in batch.rows {
                    let key = eval(right_key, &r, &ctx)?;
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
            let probe = self.left.next_batch(left, db, max_rows)?;
            if probe.rows.is_empty() {
                break;
            }
            for outer in probe.rows {
                let key = eval(left_key, &outer, &ctx)?;
                if key.is_null() {
                    continue;
                }
                for m in table.get(&Key::single(key)).into_iter().flatten() {
                    self.pending.push_back(join_rows(&outer, m.clone()));
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
}

/// Kleene-AND over the ordered terms, short-circuiting at the first
/// non-TRUE (FALSE or NULL) result — sound under any term order, since
/// three-valued AND is commutative and a row qualifies only when every
/// conjunct is TRUE. The one per-row filter test: a fused scan's and
/// `FilterExec`'s, each term through `FilterTerm::accepts`.
fn accepts(terms: &[FilterTerm], row: &impl Slots, ctx: &EvalCtx) -> Result<bool> {
    for t in terms {
        if !t.accepts(row, ctx)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl ExecNode for FilterExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        // Conjuncts arrive in optimizer-chosen (cost-ordered) order.
        plan_of!(plan, PlanKind::Filter { input, terms, .. });
        // Keep pulling input batches until at least one row survives (or
        // the input is exhausted) — an empty batch means "done" upstream.
        let ctx = db.eval_ctx();
        loop {
            let batch = self.input.next_batch(input, db, max_rows)?;
            if batch.rows.is_empty() {
                return Ok(batch);
            }
            let mut out = Vec::with_capacity(batch.rows.len());
            for row in batch.rows {
                if accepts(terms, &row, &ctx)? {
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
}

/// Each output row is made in its input row, whose values (and ancillary
/// data) it takes over: see [`Projection`].
impl ExecNode for ProjectExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::Project { input, exprs, shape });
        let mut batch = self.input.next_batch(input, db, max_rows)?;
        let ctx = db.eval_ctx();
        for row in &mut batch.rows {
            match shape {
                Projection::Permute(swaps) => {
                    for &(a, b) in swaps {
                        row.values.swap(a, b);
                    }
                    row.values.truncate(exprs.len());
                }
                Projection::Build(moves) => {
                    let mut values = Vec::with_capacity(exprs.len());
                    for (e, m) in exprs.iter().zip(moves) {
                        values.push(match m {
                            Some(s) => std::mem::replace(&mut row.values[*s], Value::Null),
                            None => eval(e, &*row, &ctx)?,
                        });
                    }
                    row.values = values;
                }
            }
        }
        Ok(batch)
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
    sorted: Option<VecDeque<ExecRow>>,
}

impl ExecNode for SortExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::Sort { input, keys });
        if self.sorted.is_none() {
            // Pipeline breaker: the whole input drains inside this one
            // call, so `pump` charges the statement deadline per input
            // batch here rather than at the (never-reached) top level.
            let ctx = db.eval_ctx();
            let mut rows: Vec<(Vec<Value>, ExecRow)> = Vec::new();
            pump(self.input.as_mut(), input, db, |batch| {
                for r in batch.rows {
                    let key: Vec<Value> =
                        keys.iter().map(|(e, _)| eval(e, &r, &ctx)).collect::<Result<_>>()?;
                    rows.push((key, r));
                }
                Ok(())
            })?;
            let dirs: Vec<bool> = keys.iter().map(|(_, d)| *d).collect();
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
    produced: u64,
}

impl ExecNode for LimitExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::Limit { input, n });
        if self.produced >= *n {
            // Give scans beneath a chance to close their ODCI contexts.
            self.input.reset(db)?;
            return Ok(RowBatch::default());
        }
        // Push the remaining quota down as the batch size, so the child
        // never produces rows past the limit (batch early termination).
        let want = ((n - self.produced) as usize).min(max_rows);
        let batch = self.input.next_batch(input, db, want)?;
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
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::Distinct { input });
        // Like Filter: keep pulling until a first-seen row survives or
        // the input is exhausted.
        loop {
            let mut batch = self.input.next_batch(input, db, max_rows)?;
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
    output: Option<VecDeque<ExecRow>>,
}

impl ExecNode for AggregateExec {
    fn next_batch(&mut self, plan: &PlanNode, db: &Exec<'_>, max_rows: usize) -> Result<RowBatch> {
        plan_of!(plan, PlanKind::Aggregate { input, group, aggs });
        if self.output.is_none() {
            // Group order: first-seen, tracked separately from the map.
            let mut groups: BTreeMap<Key, Vec<AggState>> = BTreeMap::new();
            let mut order: Vec<Key> = Vec::new();
            let fresh = || -> Vec<AggState> { aggs.iter().map(|(k, _)| AggState::new(*k)).collect() };
            let ctx = db.eval_ctx();
            // Pipeline breaker — `pump` charges the deadline per input batch.
            pump(self.input.as_mut(), input, db, |batch| {
                for r in batch.rows {
                    let key_vals: Vec<Value> =
                        group.iter().map(|e| eval(e, &r, &ctx)).collect::<Result<_>>()?;
                    let key = Key(key_vals);
                    let states = match groups.get_mut(&key) {
                        Some(s) => s,
                        None => {
                            order.push(key.clone());
                            groups.entry(key).or_insert_with(fresh)
                        }
                    };
                    for ((_, arg), state) in aggs.iter().zip(states.iter_mut()) {
                        match arg {
                            None => state.update(None)?,
                            Some(e) => state.update(Some(&eval(e, &r, &ctx)?))?,
                        }
                    }
                }
                Ok(())
            })?;
            // Global aggregate over zero rows still yields one group.
            if order.is_empty() && group.is_empty() {
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

#[cfg(test)]
mod tests {
    use extidx_common::LobRef;

    use super::*;
    use crate::ast::BinOp;
    use crate::catalog::Catalog;
    use crate::expr::filter_accepts;
    use crate::plan::TermClass;

    /// One value of every kind a column or an operand can hold.
    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Integer(-1),
            Value::Integer(0),
            Value::Integer(1),
            Value::Integer(100),
            Value::Number(0.0),
            Value::Number(1.0),
            Value::Number(99.5),
            Value::Number(f64::NAN),
            Value::from(""),
            Value::from("a"),
            Value::Boolean(false),
            Value::Boolean(true),
            Value::RowId(RowId::new(1, 2, 3)),
            Value::Lob(LobRef(7)),
            Value::Object("PT".into(), vec![Value::Integer(1)]),
            Value::Array(vec![Value::Integer(1)]),
        ]
    }

    const RELOPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];

    fn bin(op: BinOp, a: RExpr, b: RExpr) -> RExpr {
        RExpr::Binary(op, Box::new(a), Box::new(b))
    }

    fn between(e: RExpr, lo: RExpr, hi: RExpr) -> RExpr {
        RExpr::Between(Box::new(e), Box::new(lo), Box::new(hi))
    }

    /// Run `f` with an evaluation context over `binds`.
    fn with_binds<T>(binds: &[Value], f: impl FnOnce(&EvalCtx) -> T) -> T {
        let (catalog, storage) = (Catalog::new(), StorageEngine::new(4));
        f(&EvalCtx { catalog: &catalog, storage: &storage, snap: Snapshot::latest(), binds })
    }

    /// `pred` as a compiled Filter term says of `row` what the generic
    /// `eval` + `filter_accepts` says, error text included; where `eval`
    /// answers, the compiled test answers on its own, without falling back.
    fn agree(pred: RExpr, row: &impl Slots, ctx: &EvalCtx, case: &dyn Fn() -> String) {
        let generic = eval(&pred, row, ctx).map(|v| filter_accepts(&v)).map_err(|e| e.to_string());
        let term = FilterTerm { pred, class: TermClass::IndexedCol };
        if let Ok(pass) = generic {
            assert_eq!(term.decide(row, ctx.binds), Some(pass), "decided: {}", case());
        }
        let compiled = accepts(std::slice::from_ref(&term), row, ctx).map_err(|e| e.to_string());
        assert_eq!(compiled, generic, "accepted: {}", case());
    }

    /// A value as the predicate sees it: a literal, or bind `?i` of `binds`.
    fn operand(v: &Value, as_bind: bool, binds: &mut Vec<Value>) -> RExpr {
        if as_bind {
            binds.push(v.clone());
            RExpr::Param(binds.len() - 1)
        } else {
            RExpr::Const(v.clone())
        }
    }

    #[test]
    fn compiled_comparisons_decide_as_eval_does() {
        for col in values() {
            let row = ExecRow::new(vec![Value::Integer(5), col.clone()]);
            for v in values() {
                for op in RELOPS {
                    let shapes = [(true, false), (true, true), (false, false), (false, true)];
                    for (col_left, as_bind) in shapes {
                        let mut binds = Vec::new();
                        let value = operand(&v, as_bind, &mut binds);
                        let pred = if col_left {
                            bin(op, RExpr::Slot(1), value)
                        } else {
                            bin(op, value, RExpr::Slot(1))
                        };
                        let case = || format!("{col:?} {op:?} {v:?}, left {col_left}, bind {as_bind}");
                        with_binds(&binds, |ctx| agree(pred, &row, ctx, &case));
                    }
                }
            }
        }
    }

    /// Every ordered pair of bounds, reversed and NULL ones included.
    #[test]
    fn compiled_between_decides_as_eval_does() {
        for col in values() {
            let row = ExecRow::new(vec![col.clone()]);
            for lo in values() {
                for hi in values() {
                    for (lo_bind, hi_bind) in [(false, false), (true, true), (false, true)] {
                        let mut binds = Vec::new();
                        let lo_e = operand(&lo, lo_bind, &mut binds);
                        let hi_e = operand(&hi, hi_bind, &mut binds);
                        let pred = between(RExpr::Slot(0), lo_e, hi_e);
                        let case = || format!("{col:?} BETWEEN {lo:?} AND {hi:?}, binds {binds:?}");
                        with_binds(&binds, |ctx| agree(pred, &row, ctx, &case));
                    }
                }
            }
        }
    }

    /// A fused scan's stored row: the hidden ROWID slot follows the
    /// columns and reads as the row's own rowid.
    #[test]
    fn compiled_tests_read_the_hidden_rowid_slot() {
        let stored: Row = vec![Value::Integer(1), Value::from("x")];
        let rid = RowId::new(1, 2, 3);
        let mut others = vec![RowId::new(1, 2, 2), rid, RowId::new(1, 2, 4), RowId::new(0, 9, 9)]
            .into_iter()
            .map(Value::RowId)
            .collect::<Vec<_>>();
        others.extend(values());
        for v in &others {
            for op in RELOPS {
                for col_left in [true, false] {
                    let row = StoredRow { row: &stored, rowid: Value::RowId(rid) };
                    let pred = if col_left {
                        bin(op, RExpr::Slot(2), RExpr::Const(v.clone()))
                    } else {
                        bin(op, RExpr::Const(v.clone()), RExpr::Slot(2))
                    };
                    let case = || format!("ROWID {op:?} {v:?}, column left {col_left}");
                    with_binds(&[], |ctx| agree(pred, &row, ctx, &case));
                }
            }
        }
        let row = StoredRow { row: &stored, rowid: Value::RowId(rid) };
        let pred = between(RExpr::Slot(2), RExpr::Param(0), RExpr::Param(1));
        let binds = [Value::RowId(RowId::new(1, 2, 3)), Value::RowId(RowId::new(1, 2, 9))];
        with_binds(&binds, |ctx| agree(pred, &row, ctx, &|| "ROWID BETWEEN".into()));
    }

    /// A bind past the supplied ones, or a slot the row lacks, is `eval`'s
    /// error, whichever operand comes first in the predicate.
    #[test]
    fn a_missing_bind_or_slot_fails_as_eval_does() {
        let row = ExecRow::new(vec![Value::Integer(5)]);
        let missing_bind = "bind placeholder 3 has no value (1 supplied)";
        let missing_slot = "row has no slot 9";
        let cases = [
            (bin(BinOp::Lt, RExpr::Slot(0), RExpr::Param(3)), missing_bind),
            (bin(BinOp::Lt, RExpr::Param(3), RExpr::Slot(0)), missing_bind),
            (bin(BinOp::Ge, RExpr::Slot(9), RExpr::Param(0)), missing_slot),
            (bin(BinOp::Ge, RExpr::Slot(9), RExpr::Param(3)), missing_slot),
            (bin(BinOp::Ge, RExpr::Param(3), RExpr::Slot(9)), missing_bind),
            (between(RExpr::Slot(0), RExpr::Const(9i64.into()), RExpr::Param(3)), missing_bind),
            (between(RExpr::Slot(9), RExpr::Param(3), RExpr::Param(0)), missing_slot),
        ];
        for (pred, want) in cases {
            let case = format!("{pred:?}");
            with_binds(&[Value::Integer(1)], |ctx| {
                let term = FilterTerm { pred: pred.clone(), class: TermClass::IndexedCol };
                let err = accepts(std::slice::from_ref(&term), &row, ctx).unwrap_err();
                assert!(err.to_string().contains(want), "{case}: {err}");
                agree(pred, &row, ctx, &|| case.clone());
            });
        }
    }

    /// Every other shape is left to `eval`.
    #[test]
    fn other_predicates_are_evaluated() {
        let row = ExecRow::new(vec![Value::Integer(1), Value::Integer(2)]);
        let one = || RExpr::Const(Value::Integer(1));
        for pred in [
            bin(BinOp::Eq, RExpr::Slot(0), RExpr::Slot(1)),
            bin(BinOp::Lt, bin(BinOp::Add, RExpr::Slot(0), one()), one()),
            bin(BinOp::Lt, one(), one()),
            bin(BinOp::Like, RExpr::Slot(0), RExpr::Const(Value::from("a%"))),
            between(one(), RExpr::Slot(0), one()),
            RExpr::IsNull(Box::new(RExpr::Slot(0)), false),
        ] {
            let term = FilterTerm { pred, class: TermClass::PlainCol };
            assert_eq!(term.decide(&row, &[]), None, "{:?}", term.pred);
        }
    }
}
