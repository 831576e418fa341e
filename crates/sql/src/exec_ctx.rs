//! Execution contexts, and the one server→cartridge crossing.
//!
//! Historically every executor node and planner routine took
//! `&mut Database`, which made the whole query path exclusive: one
//! statement at a time, even for pure reads. Snapshot isolation removes
//! the semantic need for that exclusivity — a reader pinned to a snapshot
//! never observes concurrent writers — so this module provides the shared
//! counterpart of the write path's plumbing:
//!
//! - [`Exec`]: a `&Database` plus the statement's [`Snapshot`] and a
//!   private cartridge scratch. It derefs to `Database` so the existing
//!   `db.catalog` / `db.storage()` call sites compile unchanged, and it
//!   carries the snapshot every visibility-aware storage read needs.
//! - [`SharedCtx`]: the read-only [`ServerContext`] handed to cartridge
//!   scan and costing routines (`ODCIIndexStart/Fetch/Close`,
//!   `ODCIStatsSelectivity/IndexCost`). It is the §2.5 `Scan` restriction
//!   made structural: mutation entry points fail with
//!   [`Error::CallbackViolation`] instead of merely being policed.
//! - [`odci_call`]: the crossing itself. Both lanes — `&mut Database`
//!   handing out a `ServerCtx`, `&Exec` handing out a [`SharedCtx`] — go
//!   through its single body, so tracing, fault injection, the sandbox
//!   and health accounting hold at every call into cartridge code.
//! - [`run_select_shared`]: the single SELECT implementation used by the
//!   legacy `Database::execute` lane, nested cartridge callbacks, and the
//!   concurrent `Session` read lane — all three produce byte-identical
//!   results for a given snapshot.
//!
//! Scan workspace state (what `ODCIIndexStart` stores and `Fetch`/`Close`
//! retrieve) lives in a per-statement [`SessionScratch`] rather than the
//! shared `Database`, so concurrent readers cannot collide on handles and
//! a fetch context stays pinned to the statement (and snapshot) that
//! opened it.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use extidx_common::{Error, LobRef, Result, Row, Value};
use extidx_core::events::EventHandler;
use extidx_core::meta::IndexInfo;
use extidx_core::sandbox;
use extidx_core::scan::WorkspaceHandle;
use extidx_core::server::{BatchSink, CallbackMode, ServerContext};
use extidx_core::trace::{Component, Routine};
use extidx_storage::Snapshot;

use crate::ast::{bind_statement, Select, Statement};
use crate::database::{Database, ServerCtx};
use crate::executor::{self, BaseScan};
use crate::expr::EvalCtx;
use crate::optimizer;
use crate::parser::parse;

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
    /// The snapshot this statement reads under. `Snapshot::latest()` in
    /// the legacy autocommit lane (sees all committed versions), a fixed
    /// snapshot inside an explicit transaction.
    pub(crate) snap: Snapshot,
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
    ) -> Self {
        Exec { db, scratch, snap }
    }

    /// Expression-evaluation context pinned to this statement's snapshot.
    pub(crate) fn eval_ctx(&self) -> EvalCtx<'a> {
        EvalCtx { catalog: &self.db.catalog, storage: &self.db.storage, snap: self.snap }
    }
}

/// Which engine handle a crossing runs on; decides the [`ServerContext`]
/// the cartridge gets. Statement execution holds `&mut Database` and its
/// routines may mutate; planning and scans hold a shared [`Exec`] and
/// their routines get the read-only [`SharedCtx`].
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
    /// The same cartridge on a recovery path (compensation replay, a
    /// scan's error-path close): no fault check and no breaker
    /// accounting — recovery is never sabotaged by the harness that
    /// caused the failure, nor blamed for it — and traced under
    /// [`Component::Recovery`].
    Recovering(&'a IndexInfo),
    /// A registered [`EventHandler`], by name: there is no index to blame.
    Handler(&'a str),
}

/// The server→cartridge crossing. Every call the engine makes into user
/// code goes through this body, in this order: trace `record` (before
/// the routine, so events its callbacks generate order after it), then
/// under [`sandbox::sandboxed_call`] the fault check, the lane's
/// [`ServerContext`] and the routine itself, then trace `finish`, then
/// the health-breaker note. Component, callback mode, the Maintenance
/// base table and "does a fault dirty cartridge storage" all derive from
/// `routine` and the callee.
pub(crate) fn odci_call<T>(
    mut lane: Lane<'_, '_>,
    routine: Routine,
    callee: Callee<'_>,
    detail: impl Into<String>,
    f: impl FnOnce(&mut dyn ServerContext) -> Result<T>,
) -> Result<T> {
    let (who, info, recovering) = match callee {
        Callee::Index(i) => (i.indextype_name.as_str(), Some(i), false),
        Callee::Recovering(i) => (i.indextype_name.as_str(), Some(i), true),
        Callee::Handler(name) => (name, None, false),
    };
    let (name, mode) = (routine.name(), routine.mode());
    let component = if recovering { Component::Recovery } else { routine.component() };
    let budget = lane.db().tick_budget();
    let h = lane.db().trace.record(component, name, who, detail);
    let result = sandbox::sandboxed_call(who, name, budget, || {
        if !recovering {
            lane.db().fault_check(name, Some(who))?;
        }
        match &mut lane {
            Lane::Write(db) => {
                let base_table = info
                    .filter(|_| mode == CallbackMode::Maintenance)
                    .map(|i| i.table_name.clone());
                f(&mut ServerCtx { db, mode, base_table })
            }
            Lane::Read(ecx) => {
                let mut ws = ecx.scratch.borrow_mut();
                f(&mut SharedCtx { db: ecx.db, snap: ecx.snap, ws: &mut ws, mode })
            }
        }
    });
    lane.db().trace.finish(h);
    if let (Some(info), false) = (info, recovering) {
        lane.db().note_health_outcome(routine, info, result.as_ref().err());
    }
    result
}

/// Read-only [`ServerContext`] for cartridge crossings on the query path.
///
/// Queries re-enter through [`run_select_shared`] under the *same*
/// snapshot, so a cartridge that probes its own metadata table mid-scan
/// sees the statement-consistent image. All mutation entry points return
/// [`Error::CallbackViolation`].
pub(crate) struct SharedCtx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) snap: Snapshot,
    ws: &'a mut SessionScratch,
    mode: CallbackMode,
}

fn read_only_violation(what: &str) -> Error {
    Error::CallbackViolation(format!("{what} is not allowed in a read-only scan context"))
}

impl ServerContext for SharedCtx<'_> {
    fn mode(&self) -> CallbackMode {
        self.mode
    }

    fn execute(&mut self, sql: &str, binds: &[Value]) -> Result<u64> {
        sandbox::tick();
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        match stmt {
            Statement::Select(s) => {
                run_select_shared(self.db, self.snap, &s)?;
                Ok(0)
            }
            _ => Err(read_only_violation("execute() of a non-SELECT statement")),
        }
    }

    fn query(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        sandbox::tick();
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        let Statement::Select(s) = stmt else {
            return Err(Error::CallbackViolation("query() requires a SELECT".into()));
        };
        let (_, rows) = run_select_shared(self.db, self.snap, &s)?;
        Ok(rows)
    }

    fn scan_base_batches(
        &mut self,
        table: &str,
        cols: &[&str],
        batch_size: usize,
        sink: &mut BatchSink,
    ) -> Result<()> {
        sandbox::tick();
        // The same streaming scan as the write lane's, pinned to the
        // statement's snapshot instead of the build snapshot.
        let (mut scan, project) = BaseScan::open(&self.db.catalog, table, cols)?;
        loop {
            let batch = scan.next_batch(&self.db.storage, &self.snap, batch_size, &project)?;
            if batch.is_empty() {
                return Ok(());
            }
            sandbox::tick();
            sink(self, &batch)?;
        }
    }

    fn fault_point(&mut self, point: &str) -> Result<()> {
        sandbox::tick();
        self.db.fault_check(point, None)
    }

    fn lob_create(&mut self) -> Result<LobRef> {
        Err(read_only_violation("lob_create"))
    }

    fn lob_length(&mut self, lob: LobRef) -> Result<u64> {
        sandbox::tick();
        self.db.storage.lob_length_at(lob, &self.snap)
    }

    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.lob_read_at(lob, offset, len, &self.snap)
    }

    fn lob_read_all(&mut self, lob: LobRef) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.lob_read_all_at(lob, &self.snap)
    }

    fn lob_write(&mut self, _lob: LobRef, _offset: u64, _bytes: &[u8]) -> Result<()> {
        Err(read_only_violation("lob_write"))
    }

    fn lob_append(&mut self, _lob: LobRef, _bytes: &[u8]) -> Result<u64> {
        Err(read_only_violation("lob_append"))
    }

    fn lob_overwrite(&mut self, _lob: LobRef, _bytes: &[u8]) -> Result<()> {
        Err(read_only_violation("lob_overwrite"))
    }

    fn lob_free(&mut self, _lob: LobRef) -> Result<()> {
        Err(read_only_violation("lob_free"))
    }

    fn workspace_put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle {
        sandbox::tick();
        self.ws.put(state)
    }

    fn workspace_get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)> {
        sandbox::tick();
        self.ws.get(handle)
    }

    fn workspace_take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>> {
        sandbox::tick();
        self.ws.take(handle)
    }

    fn register_event_handler(&mut self, _name: &str, _handler: Arc<dyn EventHandler>) {
        // Handler registration mutates shared server state; scan routines
        // have no business doing it. The trait cannot report an error
        // here, so the registration is dropped — definition/maintenance
        // routines (write lane) remain the supported registration points.
        sandbox::tick();
    }

    fn file_create(&mut self, _name: &str) -> Result<()> {
        Err(read_only_violation("file_create"))
    }

    fn file_exists(&mut self, name: &str) -> bool {
        sandbox::tick();
        self.db.storage.files_ref().exists(name)
    }

    fn file_remove(&mut self, _name: &str) -> Result<()> {
        Err(read_only_violation("file_remove"))
    }

    fn file_read(&mut self, name: &str) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.files_ref().read(name)
    }

    fn file_write(&mut self, _name: &str, _bytes: &[u8]) -> Result<()> {
        Err(read_only_violation("file_write"))
    }

    fn file_append(&mut self, _name: &str, _bytes: &[u8]) -> Result<()> {
        Err(read_only_violation("file_append"))
    }

    fn file_flush(&mut self, _name: &str) -> Result<()> {
        Err(read_only_violation("file_flush"))
    }

    fn file_length(&mut self, name: &str) -> Result<u64> {
        sandbox::tick();
        self.db.storage.files_ref().length(name)
    }
}

/// Plan and run one SELECT against `db` under `snap`, returning the
/// column names and result rows. This is the only SELECT implementation:
/// the autocommit lane, nested cartridge callbacks, and concurrent
/// sessions all route here.
pub(crate) fn run_select_shared(
    db: &Database,
    snap: Snapshot,
    s: &Select,
) -> Result<(Vec<String>, Vec<Row>)> {
    let scratch = RefCell::new(SessionScratch::default());
    let ecx = Exec::new(db, &scratch, snap);
    let planned = optimizer::plan_select(&ecx, s)?;
    let columns = planned.column_names;
    let mut exec = executor::build(planned.root);
    let mut rows = Vec::new();
    executor::drain(exec.as_mut(), &ecx, |batch| {
        rows.extend(batch.rows.into_iter().map(|r| r.values));
        Ok(())
    })?;
    Ok((columns, rows))
}
