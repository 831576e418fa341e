//! Execution contexts, the one server→cartridge crossing, and the one
//! callback surface cartridges call back through.
//!
//! Historically every executor node and planner routine took
//! `&mut Database`, which made the whole query path exclusive: one
//! statement at a time, even for pure reads. Snapshot isolation removes
//! the semantic need for that exclusivity — a reader pinned to a snapshot
//! never observes concurrent writers — so this module provides the shared
//! counterpart of the write path's plumbing:
//!
//! - [`Exec`]: a `&Database` plus the statement's [`Snapshot`], its binds
//!   and a private cartridge scratch. It derefs to `Database` so the
//!   existing `db.catalog` / `db.storage()` call sites compile unchanged,
//!   and it carries the snapshot every visibility-aware storage read needs.
//! - `Lane`: which handle a crossing runs on — `&mut Database` for
//!   statement execution, a shared `&Exec` for planning and scans.
//! - `ServerCtx`: the one [`ServerContext`] handed to every ODCI routine,
//!   on either lane. Each callback is written once. A read answers from the
//!   lane's snapshot and scratch; a mutation runs on the write lane and
//!   fails with [`Error::CallbackViolation`] on the read lane, which is the
//!   §2.5 `Scan` restriction made structural rather than merely policed.
//! - [`odci_call`]: the crossing itself. Both lanes go through its single
//!   body, so tracing, fault injection, the sandbox and health accounting
//!   hold at every call into cartridge code.
//! - [`run_select`]: the single SELECT implementation used by the
//!   `Database::execute` lane, nested cartridge callbacks, and the
//!   concurrent `Session` read lane — all three run the statement cache's
//!   plan and produce byte-identical results for a given snapshot. Beside
//!   it, `explain_select` (EXPLAIN [ANALYZE], planned afresh) and
//!   [`QueryCursor`] (the pull-based form of the same plan).
//!
//! Scan workspace state (what `ODCIIndexStart` stores and `Fetch`/`Close`
//! retrieve) lives in a per-statement [`SessionScratch`] rather than the
//! shared `Database`, so concurrent readers cannot collide on handles and
//! a fetch context stays pinned to the statement (and snapshot) that
//! opened it.

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use extidx_common::{Error, LobRef, Result, Row, RowId, Value};
use extidx_core::events::EventHandler;
use extidx_core::meta::IndexInfo;
use extidx_core::sandbox;
use extidx_core::scan::WorkspaceHandle;
use extidx_core::server::{
    BaseRowVisitor, BatchSink, CallbackMode, LobVisitor, RowVisitor, ServerContext,
};
use extidx_core::trace::{Component, Routine};
use extidx_storage::Snapshot;

use crate::ast::{Select, Statement};
use crate::database::{Database, StmtResult};
use crate::executor::{self, BaseScan, ExecNode};
use crate::expr::{EvalCtx, ExecRow};
use crate::optimizer;
use crate::plan::PlannedQuery;
use crate::stmt_cache::Prepared;

/// Per-statement cartridge scratch: the scan workspace `ODCIIndexStart`
/// fills and `ODCIIndexFetch`/`Close` consume. Owned by the statement
/// (or cursor) on the read lane and by the statement scope on the write
/// lane — one implementation behind both lanes' `workspace_*` callbacks.
#[derive(Default)]
pub(crate) struct SessionScratch {
    ws: HashMap<u64, Box<dyn Any + Send>>,
    next: u64,
}

impl SessionScratch {
    pub(crate) fn put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle {
        let h = WorkspaceHandle(self.next);
        self.next += 1;
        self.ws.insert(h.0, state);
        h
    }

    pub(crate) fn get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)> {
        self.ws.get_mut(&handle.0).map(|b| b.as_mut())
    }

    pub(crate) fn take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>> {
        self.ws.remove(&handle.0)
    }
}

/// The read-lane execution context threaded through the planner and every
/// executor node in place of `&mut Database`.
pub struct Exec<'a> {
    pub(crate) db: &'a Database,
    scratch: &'a RefCell<SessionScratch>,
    /// The snapshot this statement reads under. `Snapshot::latest()`
    /// outside a transaction (sees all committed versions), a fixed
    /// snapshot inside an explicit or observed one.
    pub(crate) snap: Snapshot,
    /// The statement's binds: what its `?` placeholders read when it runs,
    /// and the values the optimizer costs them at when it plans.
    pub(crate) binds: &'a [Value],
}

impl Deref for Exec<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        self.db
    }
}

impl<'a> Exec<'a> {
    pub(crate) fn new(
        db: &'a Database,
        scratch: &'a RefCell<SessionScratch>,
        snap: Snapshot,
        binds: &'a [Value],
    ) -> Self {
        Exec { db, scratch, snap, binds }
    }

    /// Expression-evaluation context pinned to this statement's snapshot
    /// and binds.
    pub(crate) fn eval_ctx(&self) -> EvalCtx<'a> {
        EvalCtx {
            catalog: &self.db.catalog,
            storage: &self.db.storage,
            snap: self.snap,
            binds: self.binds,
        }
    }
}

/// Which engine handle a crossing runs on. Statement execution holds
/// `&mut Database` and its routines may mutate; planning and scans hold a
/// shared [`Exec`], and their routines' mutating callbacks are refused.
pub(crate) enum Lane<'a, 'e> {
    Write(&'a mut Database),
    Read(&'a Exec<'e>),
}

impl Lane<'_, '_> {
    fn db(&self) -> &Database {
        match self {
            Lane::Write(db) => db,
            Lane::Read(ecx) => ecx.db,
        }
    }
}

/// Whose code a crossing runs.
#[derive(Clone, Copy)]
pub(crate) enum Callee<'a> {
    /// A domain index's cartridge. The call is fault-injectable and its
    /// outcome feeds the index's health breaker.
    Index(&'a IndexInfo),
    /// The same cartridge on a recovery path (a scan's error-path
    /// close): no fault check and no breaker accounting — recovery is
    /// never sabotaged by the harness that caused the failure, nor blamed
    /// for it — and traced under [`Component::Recovery`].
    Recovering(&'a IndexInfo),
    /// A registered [`EventHandler`], by name: there is no index to blame.
    Handler(&'a str),
}

/// The server→cartridge crossing. Every call the engine makes into user
/// code goes through this body, in this order: trace `record` (before
/// the routine, so events its callbacks generate order after it), then
/// under [`sandbox::sandboxed_call`] the fault check, the lane's
/// [`ServerCtx`] and the routine itself, then trace `finish`, then
/// the health-breaker note. Component, callback mode and the Maintenance
/// base table all derive from `routine` and the callee.
pub(crate) fn odci_call<T>(
    lane: Lane<'_, '_>,
    routine: Routine,
    callee: Callee<'_>,
    detail: impl FnOnce() -> String,
    f: impl FnOnce(&mut dyn ServerContext) -> Result<T>,
) -> Result<T> {
    odci_batch_call(lane, routine, callee, 1, detail, f)
}

/// [`odci_call`] for a crossing that answers `rows` argument rows at once
/// (a batched domain scan's Start, Fetch and Close): its tick budget is
/// `rows` times the per-call budget, so a batch never faults where its
/// rows, one crossing each, would fit.
pub(crate) fn odci_batch_call<T>(
    mut lane: Lane<'_, '_>,
    routine: Routine,
    callee: Callee<'_>,
    rows: usize,
    detail: impl FnOnce() -> String,
    f: impl FnOnce(&mut dyn ServerContext) -> Result<T>,
) -> Result<T> {
    let (who, info, recovering) = match callee {
        Callee::Index(i) => (i.indextype_name.as_str(), Some(i), false),
        Callee::Recovering(i) => (i.indextype_name.as_str(), Some(i), true),
        Callee::Handler(name) => (name, None, false),
    };
    let (name, mode) = (routine.name(), routine.mode());
    let component = if recovering { Component::Recovery } else { routine.component() };
    let budget = lane.db().tick_budget().saturating_mul(rows.max(1) as u64);
    let h = lane.db().trace.record(component, name, who, detail);
    let result = sandbox::sandboxed_call(who, name, budget, || {
        if !recovering {
            lane.db().fault_check(name, Some(who))?;
        }
        let scratch = match &lane {
            Lane::Write(_) => None,
            Lane::Read(ecx) => Some(ecx.scratch.borrow_mut()),
        };
        let base_table =
            info.filter(|_| mode == CallbackMode::Maintenance).map(|i| i.table_name.clone());
        f(&mut ServerCtx { lane: &mut lane, scratch, mode, base_table })
    });
    lane.db().trace.finish(h);
    if let (Some(info), false) = (info, recovering) {
        lane.db().note_health_outcome(info, result.as_ref().err());
    }
    result
}

/// The [`ServerContext`] implementation: cartridge callbacks re-enter the
/// engine through this, on the lane of the crossing that issued them,
/// under the routine's §2.5 restriction mode.
///
/// Reads — queries, the base scan, the rowid join, key-range reads, LOB
/// and file reads, the workspace — answer from the lane's snapshot and
/// scratch: the statement's on the read lane, so a cartridge that probes
/// its own metadata table mid-scan sees the statement-consistent image;
/// the current transaction's and the statement scope's on the write lane.
/// Mutations go through [`ServerCtx::writer`]: they run on the write lane
/// and are refused with [`Error::CallbackViolation`] on the read lane.
pub(crate) struct ServerCtx<'c, 'a, 'e> {
    lane: &'c mut Lane<'a, 'e>,
    /// The read lane's statement scratch, borrowed for the crossing (the
    /// write lane's lives in its statement scope).
    scratch: Option<RefMut<'e, SessionScratch>>,
    mode: CallbackMode,
    /// For Maintenance mode: the base table that must not be modified.
    base_table: Option<String>,
}

fn read_only_violation(what: &str) -> Error {
    Error::CallbackViolation(format!("{what} is not allowed in a read-only scan context"))
}

/// The §2.5 restriction `mode` puts on a statement a write-lane routine
/// executes.
fn enforce(mode: CallbackMode, base_table: Option<&str>, stmt: &Statement) -> Result<()> {
    let violation = |msg: &str| Err(Error::CallbackViolation(msg.to_string()));
    match mode {
        CallbackMode::Definition => match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                violation("transaction control is not allowed inside index routines")
            }
            _ => Ok(()),
        },
        CallbackMode::Maintenance => match stmt {
            Statement::Select(_) => Ok(()),
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => {
                if Some(table.to_ascii_uppercase().as_str()) == base_table {
                    violation("index maintenance routines cannot modify the base table")
                } else {
                    Ok(())
                }
            }
            _ => violation("index maintenance routines cannot execute DDL"),
        },
        CallbackMode::Scan => match stmt {
            Statement::Select(_) => Ok(()),
            _ => violation("index scan routines can only execute query statements"),
        },
    }
}

impl ServerCtx<'_, '_, '_> {
    fn db(&self) -> &Database {
        self.lane.db()
    }

    /// The snapshot a callback's reads see.
    fn snap(&self) -> Snapshot {
        match &*self.lane {
            Lane::Write(db) => db.storage.current_snapshot(),
            Lane::Read(ecx) => ecx.snap,
        }
    }

    fn scratch(&mut self) -> &mut SessionScratch {
        match (&mut self.scratch, &mut *self.lane) {
            (Some(ws), _) => ws,
            (None, Lane::Write(db)) => db.scope.workspace.get_mut(),
            (None, Lane::Read(_)) => unreachable!("a read-lane crossing borrows its scratch"),
        }
    }

    /// The engine, for a mutating callback: charged one tick on the write
    /// lane, refused (and not charged) on the read lane.
    fn writer(&mut self, what: &str) -> Result<&mut Database> {
        let Lane::Write(db) = &mut *self.lane else {
            return Err(read_only_violation(what));
        };
        sandbox::tick();
        Ok(db)
    }

    /// [`Self::writer`] for a callback that changes external file `name`:
    /// the open statement first keeps the file's image, which a failure
    /// restores.
    fn file_writer(&mut self, what: &str, name: &str) -> Result<&mut Database> {
        let db = self.writer(what)?;
        db.scope.keep_file_image(db.storage.files_ref(), name);
        Ok(db)
    }
}

impl ServerContext for ServerCtx<'_, '_, '_> {
    fn mode(&self) -> CallbackMode {
        self.mode
    }

    fn execute(&mut self, sql: &str, binds: &[Value]) -> Result<u64> {
        sandbox::tick();
        let p = self.db().prepare(sql)?;
        let stmt = p.statement(binds)?;
        if let Statement::Select(s) = stmt {
            run_select(self.db(), self.snap(), &p, s, binds)?;
            return Ok(0);
        }
        let Lane::Write(db) = &mut *self.lane else {
            return Err(read_only_violation("execute() of a non-SELECT statement"));
        };
        enforce(self.mode, self.base_table.as_deref(), stmt)?;
        match db.run_statement(&p, binds)? {
            StmtResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn query(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        sandbox::tick();
        let p = self.db().prepare(sql)?;
        let Statement::Select(s) = p.statement(binds)? else {
            return Err(Error::CallbackViolation("query() requires a SELECT".into()));
        };
        Ok(run_select(self.db(), self.snap(), &p, s, binds)?.1)
    }

    /// True streaming scan: at most `batch_size` rows, projected to
    /// `cols`, are cloned before the sink gets them (and this context),
    /// unlike the `SELECT …, ROWID` path a cartridge would otherwise use.
    /// On the read lane it reads under the statement's snapshot. On the
    /// write lane the base scan is an index (re)build's — create, a
    /// repopulating alter, an event handler's resync — so it reads under
    /// [`extidx_storage::StorageEngine::build_snapshot`] and is refused
    /// with it.
    fn scan_base_batches(
        &mut self,
        table: &str,
        cols: &[&str],
        batch_size: usize,
        sink: &mut BatchSink,
    ) -> Result<()> {
        sandbox::tick();
        let (mut scan, project) = BaseScan::open(&self.db().catalog, table, cols)?;
        let snap = match &*self.lane {
            Lane::Write(db) => db.storage.build_snapshot(db.catalog.table(table)?.seg)?,
            Lane::Read(ecx) => ecx.snap,
        };
        loop {
            // The storage borrow ends with the batch, before the sink gets
            // `&mut self` back.
            let batch = scan.next_batch(&self.db().storage, &snap, batch_size, &project)?;
            if batch.is_empty() {
                return Ok(());
            }
            sandbox::tick();
            sink(self, &batch)?;
        }
    }

    /// One page-ordered multi-fetch under the lane's snapshot — the
    /// executor's own rowid join — charged one tick, each visible row's
    /// projected values lent to `visit` where they lie in storage. A rowid
    /// that addresses no row (a stale entry of an unversioned index store)
    /// fetches nothing, as `WHERE ROWID = ?` would: such a batch falls back
    /// to one fetch per rowid.
    fn fetch_base_rows(
        &mut self,
        table: &str,
        cols: &[&str],
        rids: &[RowId],
        visit: &mut BaseRowVisitor,
    ) -> Result<()> {
        sandbox::tick();
        let (db, snap) = (self.db(), self.snap());
        let tdef = db.catalog.table(table)?;
        let cols = cols.iter().map(|c| tdef.column_index(c)).collect::<Result<Vec<_>>>()?;
        let fetch = |rids: &[RowId]| executor::fetch_visible(db, &snap, table, rids);
        let rows = fetch(rids).unwrap_or_else(|_| {
            rids.iter().map(|&rid| fetch(&[rid]).ok().and_then(|mut r| r.pop().flatten())).collect()
        });
        let mut lent = Vec::with_capacity(cols.len());
        for (i, row) in rows.into_iter().enumerate() {
            let Some(row) = row else { continue };
            lent.clear();
            lent.extend(cols.iter().map(|&c| &row[c]));
            visit(i, &lent)?;
        }
        Ok(())
    }

    /// The executor's own IOT range under the lane's snapshot
    /// ([`executor::read_key_range`]): no statement is prepared or run, and
    /// no row is copied out of storage.
    fn read_key_range(
        &mut self,
        table: &str,
        key_col: &str,
        lo: &Value,
        hi: &Value,
        visit: &mut RowVisitor,
    ) -> Result<()> {
        executor::read_key_range(self.db(), &self.snap(), table, key_col, lo, hi, visit)
    }

    fn fault_point(&mut self, point: &str) -> Result<()> {
        sandbox::tick();
        self.db().fault_check(point, None)
    }

    fn lob_create(&mut self) -> Result<LobRef> {
        self.writer("lob_create")?.storage.lob_allocate()
    }

    fn lob_length(&mut self, lob: LobRef) -> Result<u64> {
        sandbox::tick();
        self.db().storage.lob_length(lob, &self.snap())
    }

    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db().storage.lob_read(lob, offset, len, &self.snap())
    }

    fn lob_read_all(&mut self, lob: LobRef, visit: &mut LobVisitor) -> Result<()> {
        sandbox::tick();
        self.db().storage.lob_read_all(lob, &self.snap(), visit)?
    }

    fn lob_write(&mut self, lob: LobRef, offset: u64, bytes: &[u8]) -> Result<()> {
        self.writer("lob_write")?.storage.lob_write(lob, offset, bytes)
    }

    fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64> {
        self.writer("lob_append")?.storage.lob_append(lob, bytes)
    }

    fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()> {
        self.writer("lob_overwrite")?.storage.lob_overwrite(lob, bytes)
    }

    fn lob_free(&mut self, lob: LobRef) -> Result<()> {
        self.writer("lob_free")?.storage.lob_free(lob)
    }

    fn workspace_put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle {
        sandbox::tick();
        self.scratch().put(state)
    }

    fn workspace_get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)> {
        sandbox::tick();
        self.scratch().get(handle)
    }

    fn workspace_take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>> {
        sandbox::tick();
        self.scratch().take(handle)
    }

    fn register_event_handler(&mut self, name: &str, handler: Arc<dyn EventHandler>) {
        sandbox::tick();
        // Handler registration mutates shared server state; scan routines
        // have no business doing it. The trait cannot report an error
        // here, so on the read lane the registration is dropped —
        // definition/maintenance routines (write lane) remain the
        // supported registration points.
        if let Lane::Write(db) = &mut *self.lane {
            db.register_event_handler(name, handler);
        }
    }

    fn file_create(&mut self, name: &str) -> Result<()> {
        self.file_writer("file_create", name)?.storage.file_create(name)
    }

    fn file_exists(&mut self, name: &str) -> bool {
        sandbox::tick();
        self.db().storage.files_ref().exists(name)
    }

    fn file_remove(&mut self, name: &str) -> Result<()> {
        self.file_writer("file_remove", name)?.storage.file_remove(name)
    }

    fn file_read(&mut self, name: &str) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db().fault_check("file_read", None)?;
        self.db().storage.files_ref().read(name)
    }

    fn file_write(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.file_writer("file_write", name)?.storage.file_write(name, bytes)
    }

    fn file_append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.file_writer("file_append", name)?.storage.file_append(name, bytes)
    }

    fn file_flush(&mut self, name: &str) -> Result<()> {
        self.writer("file_flush")?.storage.file_flush(name)
    }

    fn file_length(&mut self, name: &str) -> Result<u64> {
        sandbox::tick();
        self.db().storage.files_ref().length(name)
    }
}

/// Run one SELECT of the cached statement `p` against `db` under `snap`
/// with `binds`, returning its plan (for the column names) and result
/// rows. `s` is `p`'s SELECT, or the source of its `INSERT … SELECT`. This
/// is the only SELECT implementation: both client lanes and nested
/// cartridge callbacks route here.
pub(crate) fn run_select(
    db: &Database,
    snap: Snapshot,
    p: &Prepared,
    s: &Select,
    binds: &[Value],
) -> Result<(Arc<PlannedQuery>, Vec<Row>)> {
    let scratch = RefCell::new(SessionScratch::default());
    let ecx = Exec::new(db, &scratch, snap, binds);
    let planned = db.stmts.plan(p, &ecx, |ecx| optimizer::plan_select(ecx, s))?;
    let mut exec = executor::build(&planned.root);
    let mut rows = Vec::new();
    executor::drain(exec.as_mut(), &planned.root, &ecx, |batch| {
        rows.extend(batch.rows.into_iter().map(|r| r.values));
        Ok(())
    })?;
    Ok((planned, rows))
}

/// `EXPLAIN [ANALYZE]` of one SELECT under `snap` with `binds`. EXPLAIN
/// answers "what would the optimizer choose now", so the statement is
/// planned afresh, never through the statement cache. Returns the plan
/// lines; under ANALYZE the plan also runs, each line carries its node's
/// actuals, and a statement summary line follows.
pub(crate) fn explain_select(
    db: &Database,
    snap: Snapshot,
    s: &Select,
    binds: &[Value],
    analyze: bool,
) -> Result<Vec<String>> {
    let scratch = RefCell::new(SessionScratch::default());
    let ecx = Exec::new(db, &scratch, snap, binds);
    let planned = optimizer::plan_select(&ecx, s)?;
    let lines = planned.root.explain();
    if !analyze {
        return Ok(lines);
    }
    let (mut exec, cells) = executor::build_instrumented(&planned.root);
    // Both the per-node cells and the summary delta span only the
    // execution loop, so the root cell's buffer gets must equal the
    // statement delta (planning-time cache touches are outside both
    // windows).
    let before = db.cache_stats();
    let started = Instant::now();
    let mut produced = 0u64;
    executor::drain(exec.as_mut(), &planned.root, &ecx, |batch| {
        produced += batch.rows.len() as u64;
        Ok(())
    })?;
    let elapsed = started.elapsed().as_micros() as u64;
    let delta = db.cache_stats().since(&before);
    let mut out: Vec<String> = lines
        .iter()
        .zip(cells.iter())
        .map(|(line, cell)| {
            let s = cell.snapshot();
            format!(
                "{line}  [actual rows={} batches={} pruned={} gets={} ({} phys) time={}us]",
                s.rows, s.batches, s.pages_pruned,
                s.logical_reads, s.physical_reads, s.elapsed_micros
            )
        })
        .collect();
    let pages_pruned: u64 = cells.iter().map(|c| c.snapshot().pages_pruned).sum();
    out.push(format!(
        "statement: rows={produced} gets={} ({} phys, {} written) pages pruned={pages_pruned} elapsed={elapsed}us",
        delta.logical_reads, delta.physical_reads, delta.physical_writes
    ));
    Ok(out)
}

/// A streaming query cursor (pull-based row delivery): the plan
/// `run_select` would run, drained a batch at a time as rows are asked
/// for.
pub struct QueryCursor<'a> {
    db: &'a mut Database,
    exec: Box<dyn ExecNode>,
    /// The statement cache's plan the cursor runs.
    plan: Arc<PlannedQuery>,
    /// The snapshot the cursor was opened under. Fetch state stays pinned
    /// to it for the cursor's whole lifetime: rows committed after open
    /// never appear, no matter how long the cursor is drained.
    snap: Snapshot,
    /// Cursor-private cartridge scratch (ODCI scan workspace).
    scratch: RefCell<SessionScratch>,
    /// Rows of the last executor batch not yet handed out.
    buffered: VecDeque<ExecRow>,
}

impl<'a> QueryCursor<'a> {
    /// Open a cursor over the SELECT `sql` under `snap`
    /// (`Database::open_query`).
    pub(crate) fn open(db: &'a mut Database, sql: &str, snap: Snapshot) -> Result<Self> {
        let p = db.prepare(sql)?;
        let Statement::Select(select) = p.statement(&[])? else {
            return Err(Error::Semantic("open_query requires a SELECT".into()));
        };
        let plan = {
            let scratch = RefCell::new(SessionScratch::default());
            let ecx = Exec::new(&*db, &scratch, snap, &[]);
            db.stmts.plan(&p, &ecx, |ecx| optimizer::plan_select(ecx, select))?
        };
        let exec = executor::build(&plan.root);
        Ok(QueryCursor {
            db,
            exec,
            plan,
            snap,
            scratch: RefCell::new(SessionScratch::default()),
            buffered: VecDeque::new(),
        })
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.plan.column_names
    }

    /// Produce the next row, or `None` at end of results.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        if self.buffered.is_empty() {
            // Refill a batch at a time. Still pipelined: domain scans and
            // joins return after their first non-empty inner batch.
            let ecx = Exec::new(&*self.db, &self.scratch, self.snap, &[]);
            match self.exec.next_batch(&self.plan.root, &ecx, executor::BATCH_TARGET) {
                Ok(batch) => self.buffered = batch.rows.into(),
                Err(e) => {
                    self.exec.abandon(&ecx);
                    return Err(e);
                }
            }
        }
        Ok(self.buffered.pop_front().map(|r| r.values))
    }
}

impl Drop for QueryCursor<'_> {
    fn drop(&mut self) {
        // A cursor dropped before exhaustion still owes its open domain
        // scans an ODCIIndexClose (a no-op once they are closed). A client
        // that stops reading is a normal close, so `reset` first; the
        // error-path teardown only if that close itself fails.
        let ecx = Exec::new(&*self.db, &self.scratch, self.snap, &[]);
        if self.exec.reset(&ecx).is_err() {
            self.exec.abandon(&ecx);
        }
    }
}
