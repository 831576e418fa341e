//! The database engine: the "Oracle8i server" of the reproduction.
//!
//! [`Database`] owns the storage engine, the data dictionary, the
//! extensibility registries, and the transaction state, and implements
//! every behaviour Fig. 1 and §2.4 assign to the server:
//!
//! - DDL on domain indexes drives the cartridge's definition routines
//!   ("creates the data dictionary entries pertaining to the domain index
//!   and invokes the ODCIIndexCreate() method");
//! - base-table DML implicitly maintains every domain index ("when the
//!   base table is updated, all domain indexes built on columns of the
//!   table are implicitly maintained");
//! - queries go through the cost-based optimizer, which may choose a
//!   domain-index scan over functional evaluation;
//! - cartridge code calls back in through the internal `ServerCtx` under
//!   the §2.5 restriction modes;
//! - commit/rollback fire registered database events (§5).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use extidx_common::{Error, Key, LobRef, Result, Row, RowId, SqlType, Value};
use extidx_core::events::{DbEvent, EventHandler};
use extidx_core::fault::{FaultInjector, RetryPolicy};
use extidx_core::health::{HealthState, PendingOp, Transition};
use extidx_core::indextype::{IndexType, SupportedOperator};
use extidx_core::meta::IndexInfo;
use extidx_core::operator::{Operator, ScalarFunction};
use extidx_core::params::ParamString;
use extidx_core::sandbox;
use extidx_core::scan::WorkspaceHandle;
use extidx_core::server::{BatchSink, CallbackMode, ServerContext};
use extidx_core::stats::OdciStats;
use extidx_core::trace::{CallTrace, Component, Routine};
use extidx_core::OdciIndex;
use extidx_storage::buffer::CacheStats;
use extidx_storage::file_store::FileStats;
use extidx_storage::{CommitBlob, DurableMedium, Snapshot, StorageEngine};

use crate::ast::{bind_statement, AlterIndexAction, ColumnSpec, InsertSource, Statement};
use crate::catalog::{BTreeIndexDef, Catalog, CatalogDump, ColumnDef, ColumnStats, DomainIndexDef, TableDef, TableOrg, TableStats};
use crate::exec_ctx::{self, odci_call, Callee, Exec, Lane, SessionScratch};
use crate::executor::{self, BaseScan, ExecNode, BATCH_TARGET};
use crate::expr::{compile_expr, eval, EvalCtx, ExecRow, Scope};
use crate::optimizer::{self, CostModel};
use crate::parser::parse;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtResult {
    /// A query's output.
    Rows { columns: Vec<String>, rows: Vec<Row> },
    /// DML row count.
    Affected(u64),
    /// DDL / transaction control.
    Ok,
}

impl StmtResult {
    /// The rows, if this is a query result.
    pub fn rows(&self) -> &[Row] {
        match self {
            StmtResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Affected-row count for DML (0 otherwise).
    pub fn affected(&self) -> u64 {
        match self {
            StmtResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// The runtime pieces of one domain index: implementation, stats, and
/// the metadata every ODCI routine receives.
pub(crate) type DomainRuntime = (Arc<dyn OdciIndex>, Arc<dyn OdciStats>, IndexInfo);

/// A registered ODCI implementation (the target of `USING <name>` in
/// `CREATE INDEXTYPE`): the index routines plus the stats interface.
#[derive(Clone)]
pub struct OdciImplementation {
    pub index: Arc<dyn OdciIndex>,
    pub stats: Arc<dyn OdciStats>,
}

/// The database engine.
pub struct Database {
    pub(crate) storage: StorageEngine,
    pub(crate) catalog: Catalog,
    pub(crate) cost: CostModel,
    odci_impls: HashMap<String, OdciImplementation>,
    event_handlers: Vec<(String, Arc<dyn EventHandler>)>,
    pub(crate) trace: CallTrace,
    /// What the open top-level statement may have to take back.
    scope: StatementScope,
    /// Rows per ODCIIndexFetch call (the §2.5 batch interface, E8).
    pub(crate) batch_size: usize,
    /// Consult per-page zone maps in full scans to skip pages whose
    /// min/max provably exclude the scan's pruning bounds.
    pub(crate) zone_pruning: bool,
    /// Fault injection at every server↔cartridge crossing.
    fault: FaultInjector,
    /// Per-crossing tick budget for sandboxed cartridge calls: every
    /// server callback a routine issues costs one tick, and exceeding the
    /// budget converts the call into an [`Error::CartridgeFault`].
    tick_budget: u64,
    /// Deliberate executor bug for validating the differential oracle:
    /// when set, a domain scan silently discards the rows of its final
    /// ODCIIndexFetch batch. Never enabled outside tests.
    pub(crate) chaos_drop_last_domain_batch: bool,
    /// Bounded per-statement execution history backing `V$SQLSTATS`.
    sqlstats: Mutex<VecDeque<SqlStat>>,
    next_sql_id: AtomicU64,
    /// The server governor blackboard: maintenance-daemon state,
    /// backpressure watermarks, retry/timeout counters (`V$SERVER`).
    /// Shared with the `Server`'s daemon thread and every `Session`.
    governor: Arc<crate::governor::ServerGovernor>,
}

/// One completed top-level statement's execution statistics.
#[derive(Debug, Clone)]
pub struct SqlStat {
    /// Monotonic statement id.
    pub sql_id: u64,
    /// The statement text as submitted.
    pub sql_text: String,
    /// Rows returned (queries) or affected (DML).
    pub rows_processed: u64,
    /// Wall time for the whole statement, microseconds.
    pub elapsed_micros: u64,
    /// Buffer-cache delta across the statement.
    pub cache: CacheStats,
}

/// Statements kept in the `V$SQLSTATS` history.
const SQLSTATS_CAPACITY: usize = 256;

/// `V$` virtual tables are read-only views over engine state.
fn reject_vtable_dml(table: &str) -> Result<()> {
    if Catalog::is_vtable(table) {
        return Err(Error::Unsupported(format!(
            "{} is a read-only V$ view",
            table.to_ascii_uppercase()
        )));
    }
    Ok(())
}

/// One successful domain-index maintenance call, with everything needed
/// to replay its inverse.
#[derive(Debug, Clone)]
struct MaintRecord {
    /// Domain index name (re-resolved through the catalog at replay time,
    /// so an index dropped later in the statement is skipped cleanly).
    index: String,
    op: PendingOp,
}

/// How `op` crosses into the cartridge: the maintenance routine, the row
/// it is about, and the call itself.
fn maintenance_call<'a>(
    op: &'a PendingOp,
    index: &'a dyn OdciIndex,
    info: &'a IndexInfo,
) -> (Routine, RowId, impl FnOnce(&mut dyn ServerContext) -> Result<()> + 'a) {
    let (routine, rid) = match op {
        PendingOp::Insert { rid, .. } => (Routine::IndexInsert, *rid),
        PendingOp::Update { rid, .. } => (Routine::IndexUpdate, *rid),
        PendingOp::Delete { rid, .. } => (Routine::IndexDelete, *rid),
    };
    (routine, rid, move |ctx: &mut dyn ServerContext| match op {
        PendingOp::Insert { rid, value } => index.insert(ctx, info, *rid, value),
        PendingOp::Update { rid, old, new } => index.update(ctx, info, *rid, old, new),
        PendingOp::Delete { rid, old } => index.delete(ctx, info, *rid, old),
    })
}

/// A schema object created during the current statement, for
/// failure compensation.
#[derive(Debug, Clone)]
enum CreatedObject {
    Table(String),
    BTreeIndex(String),
    Operator(String),
    IndexType(String),
    ObjectType(String),
}

/// One top-level statement's scope: everything that must be taken back
/// if it fails, beside the row-level undo the storage engine keeps with
/// the transaction. [`Database::rollback_statement`] is the only reader
/// of the logs; a statement that succeeds just closes the scope.
#[derive(Default)]
struct StatementScope {
    /// Storage savepoint ([`StorageEngine::undo_mark`]) the statement
    /// rolls back to.
    mark: usize,
    /// Schema objects created during the statement — compensated
    /// (dropped) if it fails, so a cartridge routine that errors after
    /// issuing DDL leaves no debris.
    created: Vec<CreatedObject>,
    /// Compensation log: every *successful* ODCIIndex maintenance call in
    /// the statement. On failure the inverse operations are replayed in
    /// reverse before storage rollback, so domain indexes (including
    /// external-file stores invisible to undo) return to their
    /// pre-statement state (§5).
    maint: Vec<MaintRecord>,
    /// Pending-log appends made by the statement (index names, in order).
    /// A failed statement retracts them so the pending log only ever
    /// mirrors committed statement effects.
    pending: Vec<String>,
    /// True while inverse maintenance operations are being replayed —
    /// suppresses fault injection and compensation recording so recovery
    /// itself is never sabotaged or re-logged.
    compensating: bool,
    /// Write-lane cartridge workspace, statement duration. Behind a mutex
    /// only because `Database` is `Sync` and the stored states are not;
    /// the write lane reaches it through `get_mut`.
    workspace: Mutex<SessionScratch>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Engine with the default buffer cache.
    pub fn new() -> Self {
        Self::with_cache_pages(extidx_storage::engine::DEFAULT_CACHE_PAGES)
    }

    /// Engine with a buffer cache of `pages` pages.
    pub fn with_cache_pages(pages: usize) -> Self {
        Database {
            storage: StorageEngine::new(pages),
            catalog: Catalog::new(),
            cost: CostModel::default(),
            odci_impls: HashMap::new(),
            event_handlers: Vec::new(),
            trace: CallTrace::new(),
            scope: StatementScope::default(),
            batch_size: 32,
            zone_pruning: true,
            fault: FaultInjector::new(),
            tick_budget: extidx_core::DEFAULT_TICK_BUDGET,
            chaos_drop_last_domain_batch: false,
            sqlstats: Mutex::new(VecDeque::new()),
            next_sql_id: AtomicU64::new(0),
            governor: Arc::new(crate::governor::ServerGovernor::new(
                crate::governor::GovernorConfig::default(),
            )),
        }
    }

    /// The server governor blackboard (daemon, backpressure, retry and
    /// timeout counters). `Server` shares this with its daemon thread.
    pub fn governor(&self) -> Arc<crate::governor::ServerGovernor> {
        Arc::clone(&self.governor)
    }

    /// Replace the governor configuration (server construction only —
    /// the existing counters are kept).
    pub(crate) fn set_governor(&mut self, g: Arc<crate::governor::ServerGovernor>) {
        self.governor = g;
    }

    /// Current MVCC chain occupancy: `(total held versions, max held
    /// versions in any single segment)` — the watermark inputs.
    pub fn mvcc_occupancy(&self) -> (usize, usize) {
        let per = self.storage.mvcc_segment_stats();
        let total = per.iter().map(|(_, _, v)| *v).sum();
        let max_seg = per.iter().map(|(_, _, v)| *v).max().unwrap_or(0);
        (total, max_seg)
    }

    /// Feed fresh occupancy into the governor's watermark logic
    /// (engaging or releasing backpressure). Called after commits,
    /// aborts, vacuum passes, and write statements.
    pub fn refresh_backpressure(&self) {
        let (total, max_seg) = self.mvcc_occupancy();
        self.governor.note_occupancy(total, max_seg);
    }

    // ---- registration (the Rust side of CREATE FUNCTION / USING) -----------

    /// Register an ODCI implementation under a name referencable from
    /// `CREATE INDEXTYPE … USING <name>`. (The paper's implementations
    /// were object types with C/Java/PLSQL bodies; ours are Rust values.)
    pub fn register_odci_implementation(
        &mut self,
        name: &str,
        index: Arc<dyn OdciIndex>,
        stats: Arc<dyn OdciStats>,
    ) {
        self.odci_impls
            .insert(name.to_ascii_uppercase(), OdciImplementation { index, stats });
    }

    /// Register a scalar function (the engine-side `CREATE FUNCTION`).
    pub fn register_function(&mut self, f: ScalarFunction) -> Result<()> {
        self.catalog.registry_mut().create_function(f)
    }

    // ---- observation hooks ---------------------------------------------------

    /// The framework invocation trace (Fig. 1 observability).
    pub fn trace(&self) -> &CallTrace {
        &self.trace
    }

    /// Read-only catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Buffer-cache statistics snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.storage.cache_stats()
    }

    /// Zero the buffer-cache counters.
    pub fn reset_cache_stats(&self) {
        self.storage.cache().reset_stats();
    }

    /// Empty the buffer cache (simulate a cold start).
    pub fn cold_start(&self) {
        self.storage.cache().invalidate_all();
    }

    /// External-file operation counters (the file-based baselines).
    pub fn file_stats(&self) -> FileStats {
        self.storage.files_ref().stats()
    }

    /// Zero the external-file counters.
    pub fn reset_file_stats(&mut self) {
        self.storage.files().reset_stats();
    }

    /// Set the domain-scan fetch batch size (E8's sweep variable).
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.max(1);
    }

    /// Current domain-scan fetch batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Toggle zone-map page pruning in full scans (on by default). Kept
    /// as a knob because the off arm is the reference: the widen-never-
    /// narrow tests and E15 compare pruned scans against unpruned ones.
    pub fn set_zone_pruning(&mut self, on: bool) {
        self.zone_pruning = on;
    }

    /// Whether full scans consult zone maps.
    pub fn zone_pruning(&self) -> bool {
        self.zone_pruning
    }

    /// Plant the deliberate lost-last-batch executor bug. Kept as the
    /// differential oracle's negative control: it exists solely so the
    /// oracle's own tests can prove the oracle detects (and minimizes) a
    /// real result-corruption defect.
    #[doc(hidden)]
    pub fn set_chaos_drop_last_domain_batch(&mut self, on: bool) {
        self.chaos_drop_last_domain_batch = on;
    }

    /// Direct storage access for white-box tests and benches.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// Mutable storage access for admin knobs (conflict-check ablation,
    /// vacuum forcing) in tests and benches.
    pub fn storage_mut(&mut self) -> &mut StorageEngine {
        &mut self.storage
    }

    /// The fault injector threaded through every server↔cartridge
    /// crossing. Cloning shares state, so a test can arm faults and watch
    /// them fire while the engine runs.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Register a commit/rollback event handler (§5). Re-registering the
    /// same name replaces the handler. Cartridges normally do this through
    /// their `ServerContext`; tests and host applications can use this
    /// directly.
    pub fn register_event_handler(&mut self, name: &str, handler: Arc<dyn EventHandler>) {
        let upper = name.to_ascii_uppercase();
        if let Some(slot) = self.event_handlers.iter_mut().find(|(n, _)| *n == upper) {
            slot.1 = handler;
        } else {
            self.event_handlers.push((upper, handler));
        }
    }

    /// Check the fault injector at a server↔cartridge crossing, tracing
    /// fired faults. Suppressed during compensation replay: recovery must
    /// never be sabotaged by the same harness that caused the failure.
    pub(crate) fn fault_check(&self, routine: &str, indextype: Option<&str>) -> Result<()> {
        if self.scope.compensating {
            return Ok(());
        }
        self.fault.check(routine, indextype).inspect_err(|e| {
            // `e` carries the point name and call number, so a static
            // routine label suffices for the FAULT trace row.
            self.trace.record(Component::Fault, "FaultInjected", indextype.unwrap_or(""), e.to_string());
        })
    }

    /// Replace the per-crossing tick budget for sandboxed cartridge
    /// calls (tests use tiny budgets to force overruns).
    pub fn set_tick_budget(&mut self, ticks: u64) {
        self.tick_budget = ticks.max(1);
    }

    /// The current per-crossing tick budget.
    pub fn tick_budget(&self) -> u64 {
        self.tick_budget
    }

    /// Health state of an index (VALID for B-tree/unknown names).
    pub fn index_health(&self, name: &str) -> HealthState {
        self.catalog.health.state(name)
    }

    /// Force-quarantine a domain index (the qgen chaos knob and
    /// administrative tests); traced like a breaker transition.
    pub fn quarantine_index(&mut self, name: &str) -> Result<()> {
        let d = self
            .catalog
            .domain_index(name)
            .ok_or_else(|| Error::not_found("domain index", name.to_ascii_uppercase()))?
            .clone();
        let t = self.catalog.health.quarantine(&d.name);
        self.trace_health_transition(&d.name, &d.indextype, t);
        Ok(())
    }

    // ---- durability (WAL + checkpoints) -----------------------------------

    /// Attach a durable medium (write-ahead log + checkpoint store).
    ///
    /// On an empty medium this takes the first checkpoint and starts
    /// logging. That image is a copy of current state, so it is refused
    /// while a transaction is open and vacuums first: nothing uncommitted,
    /// and no deferred delete, may be copied in as a committed row. On a
    /// medium with data — the survivor of a crashed instance — it first
    /// runs recovery: fold the committed WAL suffix into the medium's
    /// image and drop the uncommitted tail, load the image, adopt the
    /// external-file mirror, restore the catalog from the last commit,
    /// rebuild zone maps, and quarantine any domain index whose external
    /// files the dropped tail touched; the checkpoint that follows stamps
    /// that post-recovery catalog, quarantines included, onto the image.
    ///
    /// Crash points (`wal.*`, see [`extidx_storage::WAL_FAULT_POINTS`])
    /// are checked through this database's [`FaultInjector`].
    pub fn enable_durability(&mut self, medium: DurableMedium) -> Result<()> {
        let fault = self.fault.clone();
        medium.set_fault_hook(Arc::new(move |point| fault.check(point, None)));
        if medium.has_data() {
            self.recover_from(&medium)?;
        } else if self.storage.txn_manager().active_count() > 0 {
            return Err(Error::Transaction(
                "durability cannot be enabled inside an open transaction".into(),
            ));
        } else {
            self.vacuum();
        }
        self.storage.attach_wal(medium);
        self.checkpoint()
    }

    /// Take a checkpoint (DESIGN.md §4i): fold the WAL's committed suffix
    /// into the medium's image, stamp it with the current catalog, and
    /// truncate the WAL to the records of transactions still open. It
    /// costs the records since the last checkpoint, and it is fuzzy: an
    /// open transaction on any lane neither blocks it nor reaches the
    /// image.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(medium) = self.storage.wal_medium().cloned() else {
            return Err(Error::Unsupported("durability is not enabled".into()));
        };
        let payload: CommitBlob = Arc::new(self.catalog.dump());
        let txns = self.storage.txn_manager();
        medium.checkpoint(|| self.storage.snapshot(), payload, |txn| txns.is_active(txn))
    }

    /// Crash recovery (ARIES-lite, logical redo): rebuild this instance's
    /// state from what the medium durably holds.
    fn recover_from(&mut self, medium: &DurableMedium) -> Result<()> {
        let img = medium.recover();
        self.storage.restore_snapshot(img.engine);
        // External files write through to the medium immediately (like a
        // real filesystem), so the mirror — not the redo — is the
        // authoritative post-crash file state.
        self.storage.set_files(img.files);
        if let Some(p) = img.payload {
            let dump = p.downcast_ref::<CatalogDump>().ok_or_else(|| {
                Error::Storage("durable commit payload is not a catalog dump".into())
            })?;
            self.catalog.restore(dump);
        }
        self.storage.rebuild_all_zone_maps();
        // Domain indexes over internal tables recovered for free via the
        // WAL. Indexes backed by *external files* may have absorbed
        // writes from the uncommitted tail (files do not wait for
        // commit): quarantine them for replay or REBUILD.
        if !img.dirty_files.is_empty() {
            let dirty: std::collections::HashSet<&str> =
                img.dirty_files.iter().map(String::as_str).collect();
            let defs: Vec<DomainIndexDef> =
                self.catalog.domain_index_defs().into_iter().cloned().collect();
            for d in defs {
                let Ok((index, _, info)) = self.domain_index_runtime(&d) else {
                    continue;
                };
                if index.external_files(&info).iter().any(|f| dirty.contains(f.as_str())) {
                    let t = self.catalog.health.quarantine(&d.name);
                    self.catalog.health.mark_dirty(&d.name);
                    self.trace_health_transition(&d.name, &d.indextype, t);
                    self.trace.record(
                        Component::Recovery,
                        "CrashRecovery",
                        &d.indextype,
                        format!(
                            "{}: external file activity after last commit; quarantined",
                            d.name
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    /// Record a health-state transition in the call trace.
    fn trace_health_transition(&self, index: &str, indextype: &str, t: Option<Transition>) {
        if let Some(t) = t {
            self.trace.record(
                Component::Health,
                "HealthTransition",
                indextype,
                format!("{index}: {} -> {}", t.from, t.to),
            );
        }
    }

    /// Feed a crossing's outcome to the index-health breaker.
    /// Only [`Error::CartridgeFault`] counts as a fault — errors a
    /// cartridge *reports* (including injected ones) keep their existing
    /// fail-the-statement semantics and never degrade the index. Skipped
    /// during compensation replay.
    pub(crate) fn note_health_outcome(
        &self,
        routine: Routine,
        info: &IndexInfo,
        err: Option<&Error>,
    ) {
        if self.scope.compensating {
            return;
        }
        let health = &self.catalog.health;
        let t = match err {
            Some(Error::CartridgeFault { .. }) => {
                health.note_fault(&info.index_name, routine.writes_index_storage())
            }
            Some(_) => None,
            None => health.note_success(&info.index_name),
        };
        self.trace_health_transition(&info.index_name, &info.indextype_name, t);
    }

    // ---- statement execution ------------------------------------------------

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<StmtResult> {
        self.execute_with(sql, &[])
    }

    /// Execute one statement with `?` binds.
    pub fn execute_with(&mut self, sql: &str, binds: &[Value]) -> Result<StmtResult> {
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        let before = self.cache_stats();
        let started = Instant::now();
        // Nested callback statements go through `run_statement` directly
        // and are charged to this, their parent.
        let result = self.run_top(stmt);
        self.record_statement(sql, started, &before, &result);
        result
    }

    /// Convenience: run a query and return just the rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        match self.execute(sql)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => Err(Error::Semantic("statement did not produce rows".into())),
        }
    }

    /// Convenience: run a query with binds and return just the rows.
    pub fn query_with(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        match self.execute_with(sql, binds)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => Err(Error::Semantic("statement did not produce rows".into())),
        }
    }

    /// EXPLAIN a query, returning the plan lines.
    pub fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        match self.execute(&format!("EXPLAIN {sql}"))? {
            StmtResult::Rows { rows, .. } => Ok(rows
                .into_iter()
                .map(|r| r.first().map(|v| v.to_string()).unwrap_or_default())
                .collect()),
            _ => unreachable!("EXPLAIN always yields rows"),
        }
    }

    /// Open a streaming cursor over a query — rows are produced on demand,
    /// which is what makes the pipelined domain-scan's first-row latency
    /// measurable (§3.2.1 benefit 2).
    pub fn open_query(&mut self, sql: &str) -> Result<QueryCursor<'_>> {
        let stmt = parse(sql)?;
        let select = match stmt {
            Statement::Select(s) => s,
            _ => return Err(Error::Semantic("open_query requires a SELECT".into())),
        };
        let snap = self.storage.current_snapshot();
        let planned = {
            let scratch = std::cell::RefCell::new(SessionScratch::default());
            let ecx = Exec::new(&*self, &scratch, snap);
            optimizer::plan_select(&ecx, &select)?
        };
        let exec = executor::build(planned.root);
        Ok(QueryCursor {
            db: self,
            exec,
            columns: planned.column_names,
            snap,
            scratch: std::cell::RefCell::new(SessionScratch::default()),
            buffered: Default::default(),
        })
    }

    /// Top-level statement wrapper: statement atomicity plus
    /// statement-duration workspace teardown.
    fn run_top(&mut self, stmt: Statement) -> Result<StmtResult> {
        debug_assert!(
            self.storage.in_txn() || self.storage.undo_mark() == 0,
            "undo outlived its transaction: a write outside any statement scope was not closed"
        );
        self.scope.mark = self.storage.undo_mark();
        let mut result = self.run_statement(stmt).map_err(|e| self.rollback_statement(e));
        // Statement end, either way: nothing recorded outlives it.
        self.scope = StatementScope::default();
        // Durability: a top-level statement outside an explicit
        // transaction is a commit boundary — its undo is dropped and the
        // WAL stamped with a commit marker carrying the catalog image.
        // Inside BEGIN…COMMIT no marker is written, so a crash discards
        // the whole open transaction. A marker failure means the durable
        // medium is gone (simulated crash): the statement must not
        // report success.
        if !self.storage.in_txn() {
            let ended = self.storage.commit_txn(self.storage.current_snapshot());
            let committed = ended.and_then(|_| self.wal_commit_marker());
            if let (Err(e), true) = (committed, result.is_ok()) {
                result = Err(e);
            }
        }
        result
    }

    /// Statement atomicity — the one failure sequence, in its fixed order:
    /// retract the statement's pending-log appends, replay inverse
    /// maintenance operations so domain indexes (including external
    /// stores invisible to undo) return to their pre-statement state,
    /// compensate any DDL the statement (or its callbacks) performed, roll
    /// the row-level changes back to the statement's savepoint, deliver
    /// the §5 Rollback event. Compensation failures are swallowed — the
    /// original error wins — but a failed *storage* rollback is a double
    /// fault that must surface: state may be torn.
    fn rollback_statement(&mut self, original: Error) -> Error {
        let created = std::mem::take(&mut self.scope.created);
        let maint = std::mem::take(&mut self.scope.maint);
        let pending = std::mem::take(&mut self.scope.pending);
        let had_effects = self.storage.undo_mark() > self.scope.mark
            || !created.is_empty()
            || !maint.is_empty()
            || !pending.is_empty();
        // The deferred work must mirror only statements that actually
        // committed their base-table effects.
        for name in pending.iter().rev() {
            self.catalog.health.pop_pending(name);
        }
        // The inverse calls' *database-resident* effects land in the same
        // undo log, so the physical rollback below reverses them too
        // (span-granular LOB undo restores exact byte ranges, so
        // compensation records would otherwise survive as duplicates).
        // External file-store effects are invisible to undo and persist —
        // which is the whole point of logical compensation.
        self.compensate_maintenance(maint);
        for obj in created.into_iter().rev() {
            let _ = self.compensate_created(obj);
        }
        let err = match self.storage.rollback_to(self.scope.mark) {
            Ok(()) => original,
            Err(cause) => {
                Error::RollbackFailed { original: Box::new(original), cause: Box::new(cause) }
            }
        };
        // §5: a rolled-back statement delivers the Rollback event so
        // external-file cartridges can reconcile. Handler errors cannot
        // displace the statement's error.
        if had_effects {
            let _ = self.fire_event(DbEvent::Rollback);
        }
        err
    }

    /// Append a WAL commit marker (no-op when durability is off). The
    /// marker carries a catalog dump — the dictionary image it shares with
    /// every marker since the last DDL, plus its own health export — so
    /// recovery restores dictionary state as of the last committed
    /// statement without replaying DDL logic.
    fn wal_commit_marker(&mut self) -> Result<()> {
        let Some(medium) = self.storage.wal_medium().cloned() else {
            return Ok(());
        };
        let payload: CommitBlob = Arc::new(self.catalog.dump());
        // Tag the marker with the transaction whose records it flushes:
        // legacy autocommit statements run as txn 0, session statements as
        // their session's transaction. Recovery replays only records whose
        // transaction reached a marker, in marker (= commit) order.
        medium.commit_txn(self.storage.current_txn(), Some(payload))
    }

    // ---- session (multi-version) statement plumbing -----------------------
    //
    // `Session` (see `crate::session`) drives explicit transactions through
    // these methods while holding the server's write lock, so ODCI
    // maintenance, the compensation log, and the pending-work log are
    // trivially serialized per statement: a cartridge never observes a torn
    // statement, and the WAL commit marker for a transaction is appended in
    // commit (csn) order because csn assignment and the marker append happen
    // under the same exclusive hold. A session's transaction is its
    // `Snapshot`; the undo it accumulates stays in the storage engine.

    /// Run one statement as part of a session transaction: install the
    /// session's snapshot as the mutation driver (an active transaction,
    /// so `run_top` neither drops its undo nor writes a commit marker),
    /// and restore the direct lane afterwards.
    pub(crate) fn session_statement(
        &mut self,
        stmt: Statement,
        snap: Snapshot,
    ) -> Result<StmtResult> {
        self.storage.set_current_txn(snap);
        let result = self.run_top(stmt);
        self.storage.set_current_txn(Snapshot::latest());
        result
    }

    /// Commit a session transaction: first-writer-wins validation, then —
    /// still under the caller's exclusive hold, so markers land in csn
    /// order — the commit marker tagged with the transaction, version GC
    /// if no daemon owns it, and the Commit event. On a write-write
    /// conflict the transaction is rolled back and the conflict surfaces.
    pub(crate) fn session_commit(&mut self, snap: Snapshot) -> Result<()> {
        if let Err(conflict) = self.storage.commit_txn(snap) {
            self.trace_conflict(&conflict);
            let _ = self.session_abort(snap);
            return Err(conflict);
        }
        self.storage.set_current_txn(snap);
        let marker = self.wal_commit_marker();
        self.storage.set_current_txn(Snapshot::latest());
        self.maintenance_after_txn_end();
        let ev = self.fire_event_unscoped(DbEvent::Commit);
        marker?;
        ev
    }

    /// Post-commit/abort maintenance: with the daemon owning vacuum
    /// cadence the foreground stays O(1) — it only refreshes the
    /// governor's occupancy reading (engaging backpressure past the
    /// high-water mark and waking the daemon). Without a daemon this is
    /// the PR 9 inline path: vacuum on every transaction end.
    fn maintenance_after_txn_end(&mut self) {
        if !self.governor.daemon_running() {
            self.storage.vacuum();
        }
        self.refresh_backpressure();
    }

    /// Base rows the pending log refers to may have just been un-made by
    /// a transaction rollback; a replay could double-apply or miss. Force
    /// those indexes onto the full-rebuild path.
    fn force_rebuild_of_pending(&mut self) {
        for s in self.catalog.health.snapshot() {
            if s.pending_ops > 0 {
                self.catalog.health.mark_dirty(&s.index);
            }
        }
    }

    /// Roll back a session transaction (also an orphaned one: its
    /// snapshot is all that is needed): reverse its undo (chain-aware)
    /// and abort it, force indexes with replayable pending work onto the
    /// rebuild path, vacuum, and fire the Rollback event.
    pub(crate) fn session_abort(&mut self, snap: Snapshot) -> Result<()> {
        let rolled = self.storage.rollback_txn(snap);
        self.force_rebuild_of_pending();
        self.maintenance_after_txn_end();
        let ev = self.fire_event_unscoped(DbEvent::Rollback);
        rolled?;
        ev
    }

    /// Drop a session transaction that has no surviving effects (its only
    /// statement already rolled itself back): abort and vacuum, without
    /// firing a second Rollback event.
    pub(crate) fn session_discard(&mut self, snap: Snapshot) {
        let _ = self.storage.rollback_txn(snap);
        self.maintenance_after_txn_end();
    }

    /// Replay the inverse of every recorded maintenance operation, newest
    /// first: delete-for-insert, re-insert-for-delete, reverse-update.
    /// Best-effort — an index dropped later in the statement is skipped,
    /// and inverse-call failures are swallowed (the statement's original
    /// error wins; storage rollback still restores database-resident
    /// index data).
    fn compensate_maintenance(&mut self, maint: Vec<MaintRecord>) {
        self.scope.compensating = true;
        for rec in maint.into_iter().rev() {
            let Some(d) = self.catalog.domain_index(&rec.index).cloned() else { continue };
            let Ok((index, _, info)) = self.domain_index_runtime(&d) else { continue };
            // Inverse calls cross like any other: a cartridge that panics
            // while being compensated must not tear the process down, and
            // its error is swallowed like any other compensation failure.
            let inverse = rec.op.inverse();
            let (routine, rid, call) = maintenance_call(&inverse, &*index, &info);
            let (callee, detail) = (Callee::Recovering(&info), format!("compensate {rid}"));
            let _ = odci_call(Lane::Write(self), routine, callee, detail, call);
        }
        self.scope.compensating = false;
    }

    /// Dispatch without boundary bookkeeping (also the entry point for
    /// nested callback statements).
    pub(crate) fn run_statement(&mut self, stmt: Statement) -> Result<StmtResult> {
        match stmt {
            Statement::Select(s) => {
                // All SELECTs run on the shared read lane, pinned to the
                // current snapshot: `Snapshot::latest()` in the autocommit
                // lane, the session's fixed snapshot inside BEGIN…COMMIT.
                let snap = self.storage.current_snapshot();
                let (columns, rows) = exec_ctx::run_select_shared(self, snap, &s)?;
                Ok(StmtResult::Rows { columns, rows })
            }
            Statement::Explain(inner) => match *inner {
                Statement::Select(s) => {
                    let snap = self.storage.current_snapshot();
                    let scratch = std::cell::RefCell::new(SessionScratch::default());
                    let ecx = Exec::new(&*self, &scratch, snap);
                    let planned = optimizer::plan_select(&ecx, &s)?;
                    let rows: Vec<Row> = planned
                        .root
                        .explain()
                        .into_iter()
                        .map(|l| vec![Value::from(l)])
                        .collect();
                    Ok(StmtResult::Rows { columns: vec!["PLAN".into()], rows })
                }
                _ => Err(Error::Unsupported("EXPLAIN is only supported for SELECT".into())),
            },
            Statement::ExplainAnalyze(inner) => match *inner {
                Statement::Select(s) => {
                    let snap = self.storage.current_snapshot();
                    let scratch = std::cell::RefCell::new(SessionScratch::default());
                    let ecx = Exec::new(&*self, &scratch, snap);
                    let planned = optimizer::plan_select(&ecx, &s)?;
                    let lines = planned.root.explain();
                    let (mut exec, cells) = executor::build_instrumented(planned.root);
                    // Both the per-node cells and the summary delta span only
                    // the execution loop, so the root cell's buffer gets must
                    // equal the statement delta (planning-time cache touches
                    // are outside both windows).
                    let before = self.cache_stats();
                    let started = Instant::now();
                    let mut produced = 0u64;
                    executor::drain(exec.as_mut(), &ecx, |batch| {
                        produced += batch.rows.len() as u64;
                        Ok(())
                    })?;
                    let elapsed = started.elapsed().as_micros() as u64;
                    let delta = self.cache_stats().since(&before);
                    let mut rows: Vec<Row> = lines
                        .iter()
                        .zip(cells.iter())
                        .map(|(line, cell)| {
                            let s = cell.snapshot();
                            vec![Value::from(format!(
                                "{line}  [actual rows={} batches={} pruned={} gets={} ({} phys) time={}us]",
                                s.rows, s.batches, s.pages_pruned,
                                s.logical_reads, s.physical_reads, s.elapsed_micros
                            ))]
                        })
                        .collect();
                    let pages_pruned: u64 =
                        cells.iter().map(|c| c.snapshot().pages_pruned).sum();
                    rows.push(vec![Value::from(format!(
                        "statement: rows={produced} gets={} ({} phys, {} written) pages pruned={pages_pruned} elapsed={elapsed}us",
                        delta.logical_reads, delta.physical_reads, delta.physical_writes
                    ))]);
                    Ok(StmtResult::Rows { columns: vec!["PLAN".into()], rows })
                }
                _ => Err(Error::Unsupported(
                    "EXPLAIN ANALYZE is only supported for SELECT".into(),
                )),
            },
            Statement::Insert { table, columns, source } => self.run_insert(&table, columns, source),
            Statement::Update { table, assignments, where_clause } => {
                self.run_update(&table, assignments, where_clause)
            }
            Statement::Delete { table, where_clause } => self.run_delete(&table, where_clause),
            // Transaction control reaches here on the direct lane only
            // (`Session` handles its own): the transaction is id 0. Ending
            // it empties its undo log, so this statement's savepoint —
            // what a failing event handler's writes roll back to —
            // restarts at 0 with it.
            Statement::Begin => {
                if self.storage.in_txn() {
                    return Err(Error::Transaction("a transaction is already active".into()));
                }
                self.storage.txn_manager().begin_direct();
                Ok(StmtResult::Ok)
            }
            Statement::Commit => {
                self.storage.commit_txn(self.storage.current_snapshot())?;
                self.scope.mark = 0;
                self.fire_event(DbEvent::Commit)?;
                Ok(StmtResult::Ok)
            }
            Statement::Rollback => {
                if self.storage.in_txn() {
                    self.storage.rollback_txn(self.storage.current_snapshot())?;
                    self.scope.mark = 0;
                    self.force_rebuild_of_pending();
                }
                self.fire_event(DbEvent::Rollback)?;
                Ok(StmtResult::Ok)
            }
            Statement::Vacuum => {
                self.vacuum();
                Ok(StmtResult::Ok)
            }
            Statement::CreateTable { name, columns, primary_key, organization_index } => {
                self.run_create_table(&name, columns, primary_key, organization_index)
            }
            Statement::DropTable { name } => self.run_drop_table(&name),
            Statement::TruncateTable { name } => self.run_truncate_table(&name),
            Statement::CreateType { name, attrs } => {
                let mut resolved = Vec::with_capacity(attrs.len());
                for a in &attrs {
                    resolved.push((a.name.clone(), self.catalog.resolve_type(&a.type_name)?));
                }
                let upper = name.to_ascii_uppercase();
                self.catalog
                    .create_object_type(extidx_common::ObjectTypeDef::new(name, resolved))?;
                self.scope.created.push(CreatedObject::ObjectType(upper));
                Ok(StmtResult::Ok)
            }
            Statement::CreateIndex { name, table, column, indextype, parameters } => {
                match indextype {
                    Some(it) => self.run_create_domain_index(&name, &table, &column, &it, parameters),
                    None => self.run_create_btree_index(&name, &table, &column),
                }
            }
            Statement::AlterIndex { name, action } => match action {
                AlterIndexAction::Parameters(parameters) => {
                    self.run_alter_index(&name, &parameters)
                }
                AlterIndexAction::Rebuild => self.run_rebuild_index(&name),
            },
            Statement::DropIndex { name } => self.run_drop_index(&name),
            Statement::CreateOperator { name, bindings } => {
                let mut op: Option<Operator> = None;
                for b in &bindings {
                    let args: Vec<SqlType> =
                        b.arg_types.iter().map(|t| self.catalog.resolve_type(t)).collect::<Result<_>>()?;
                    let ret = self.catalog.resolve_type(&b.return_type)?;
                    match &mut op {
                        None => {
                            op = Some(Operator::with_binding(&name, args, ret, &b.function_name))
                        }
                        Some(o) => o.add_binding(args, ret, &b.function_name),
                    }
                }
                let op = op.ok_or_else(|| Error::Semantic("operator needs a binding".into()))?;
                let op_name = op.name.clone();
                self.catalog.registry_mut().create_operator(op)?;
                self.scope.created.push(CreatedObject::Operator(op_name));
                Ok(StmtResult::Ok)
            }
            Statement::CreateIndexType { name, operators, using } => {
                let implementation = self
                    .odci_impls
                    .get(&using.to_ascii_uppercase())
                    .cloned()
                    .ok_or_else(|| Error::not_found("ODCI implementation", &using))?;
                let mut ops = Vec::with_capacity(operators.len());
                for o in &operators {
                    let args: Vec<SqlType> =
                        o.arg_types.iter().map(|t| self.catalog.resolve_type(t)).collect::<Result<_>>()?;
                    ops.push(SupportedOperator { name: o.name.clone(), arg_types: args });
                }
                let it = IndexType::new(&name, ops, implementation.index, implementation.stats);
                let it_name = it.name.clone();
                self.catalog.registry_mut().create_indextype(it)?;
                self.scope.created.push(CreatedObject::IndexType(it_name));
                Ok(StmtResult::Ok)
            }
            Statement::DropOperator { name } => {
                self.catalog.registry_mut().drop_operator(&name)?;
                Ok(StmtResult::Ok)
            }
            Statement::DropIndexType { name } => {
                let upper = name.to_ascii_uppercase();
                for t in self.catalog.table_names() {
                    if self.catalog.domain_indexes_on(&t).iter().any(|d| d.indextype == upper) {
                        return Err(Error::Semantic(format!(
                            "indextype {upper} has dependent domain indexes"
                        )));
                    }
                }
                self.catalog.registry_mut().drop_indextype(&name)?;
                Ok(StmtResult::Ok)
            }
            Statement::AnalyzeTable { name } => self.run_analyze(&name),
            // Session parameters are scoped to a `Session`; the bare
            // `Database` lane has no session state to attach them to.
            Statement::Set { name, .. } | Statement::Show { name } => Err(Error::Unsupported(
                format!("{name} is a session parameter; connect through Server::session"),
            )),
        }
    }

    /// Drop a schema object created by a failed statement. Best-effort:
    /// used only on the failure path.
    fn compensate_created(&mut self, obj: CreatedObject) -> Result<()> {
        match obj {
            CreatedObject::Table(name) => {
                if self.catalog.has_table(&name) {
                    self.run_drop_table(&name)?;
                }
            }
            CreatedObject::BTreeIndex(name) => {
                if let Some(b) = self.catalog.drop_btree_index(&name) {
                    self.storage.drop_segment(b.seg)?;
                }
            }
            CreatedObject::Operator(name) => {
                let _ = self.catalog.registry_mut().drop_operator(&name);
            }
            CreatedObject::IndexType(name) => {
                let _ = self.catalog.registry_mut().drop_indextype(&name);
            }
            CreatedObject::ObjectType(name) => {
                self.catalog.drop_object_type(&name);
            }
        }
        Ok(())
    }

    // ---- DDL ------------------------------------------------------------------

    fn run_create_table(
        &mut self,
        name: &str,
        columns: Vec<ColumnSpec>,
        primary_key: Vec<String>,
        organization_index: bool,
    ) -> Result<StmtResult> {
        let upper = name.to_ascii_uppercase();
        if self.catalog.has_table(&upper) {
            return Err(Error::already_exists("table", upper));
        }
        let mut cols = Vec::with_capacity(columns.len());
        for c in &columns {
            cols.push(ColumnDef {
                name: c.name.to_ascii_uppercase(),
                ty: self.catalog.resolve_type(&c.type_name)?,
            });
        }
        let org = if organization_index {
            if primary_key.is_empty() {
                return Err(Error::Semantic(
                    "ORGANIZATION INDEX requires a PRIMARY KEY".into(),
                ));
            }
            for (i, pk) in primary_key.iter().enumerate() {
                if cols.get(i).map(|c| c.name.as_str()) != Some(pk.to_ascii_uppercase().as_str()) {
                    return Err(Error::Semantic(
                        "PRIMARY KEY of an index-organized table must be a prefix of its columns"
                            .into(),
                    ));
                }
            }
            TableOrg::Index { key_cols: primary_key.len() }
        } else {
            TableOrg::Heap
        };
        let seg = match org {
            TableOrg::Heap => self.storage.create_heap()?,
            TableOrg::Index { key_cols } => self.storage.create_iot(key_cols)?,
        };
        self.catalog
            .create_table(TableDef { name: upper.clone(), columns: cols, org, seg, stats: None })?;
        self.scope.created.push(CreatedObject::Table(upper));
        Ok(StmtResult::Ok)
    }

    fn run_drop_table(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        // Domain indexes first: their drop routines may issue DDL on their
        // own storage tables.
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            self.drop_domain_index_entry(&d)?;
        }
        let btree: Vec<BTreeIndexDef> =
            self.catalog.btree_indexes_on(&tdef.name).into_iter().cloned().collect();
        for b in btree {
            self.storage.drop_segment(b.seg)?;
            self.catalog.drop_btree_index(&b.name);
        }
        self.storage.drop_segment(tdef.seg)?;
        self.catalog.drop_table(&tdef.name)?;
        Ok(StmtResult::Ok)
    }

    fn run_truncate_table(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        self.storage.truncate_segment(tdef.seg)?;
        let btree: Vec<BTreeIndexDef> =
            self.catalog.btree_indexes_on(&tdef.name).into_iter().cloned().collect();
        for b in btree {
            self.storage.truncate_segment(b.seg)?;
        }
        // "when the corresponding table is truncated, the truncate method
        // specified as part of the indextype is invoked" (§2.4.1).
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            // A BUILD_FAILED index has no (trustworthy) storage to
            // truncate; it stays failed until REBUILD or DROP.
            if self.catalog.health.state(&d.name) == HealthState::BuildFailed {
                continue;
            }
            let (index, _, info) = self.domain_index_runtime(&d)?;
            let callee = Callee::Index(&info);
            odci_call(Lane::Write(self), Routine::IndexTruncate, callee, &d.name, |ctx| {
                index.truncate(ctx, &info)
            })?;
            // An emptied index has no catch-up left to do: the pending
            // log described rows that no longer exist.
            let _ = self.catalog.health.take_pending(&d.name);
        }
        Ok(StmtResult::Ok)
    }

    fn run_create_btree_index(&mut self, name: &str, table: &str, column: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(table)?.clone();
        let col_idx = tdef.column_index(column)?;
        if !tdef.columns[col_idx].ty.is_scalar_comparable() {
            return Err(Error::Semantic(format!(
                "column {} is not B-tree indexable; use a domain index (extensible indexing)",
                tdef.columns[col_idx].name
            )));
        }
        // Refused (in-flight writer on the table) before anything exists.
        let snap = self.storage.build_snapshot(tdef.seg)?;
        let seg = self.storage.create_iot(2)?; // (key, rowid)
        self.catalog.create_btree_index(BTreeIndexDef {
            name: name.to_ascii_uppercase(),
            table: tdef.name.clone(),
            column: tdef.columns[col_idx].name.clone(),
            seg,
        })?;
        self.scope.created.push(CreatedObject::BTreeIndex(name.to_ascii_uppercase()));
        // Populate from existing rows, a batch at a time. For IOT base
        // tables the secondary index stores logical rowids (key ordinals),
        // which stay valid across in-place updates.
        let mut scan = BaseScan::new(&tdef);
        loop {
            let batch = scan.next_batch(&self.storage, &snap, BATCH_TARGET, |rid, row| {
                (rid, row[col_idx].clone())
            })?;
            if batch.is_empty() {
                return Ok(StmtResult::Ok);
            }
            for (rid, key) in batch {
                // B-trees do not index NULL keys (Oracle semantics): a NULL
                // in the indexed column simply has no index entry, so range
                // scans can never produce NULL-keyed rows.
                if key.is_null() {
                    continue;
                }
                self.storage.iot_insert(seg, vec![key, Value::RowId(rid)])?;
            }
        }
    }

    fn run_create_domain_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        indextype: &str,
        parameters: Option<String>,
    ) -> Result<StmtResult> {
        let tdef = self.catalog.table(table)?.clone();
        tdef.column_index(column)?;
        let it = self.catalog.registry().indextype(indextype)?;
        let params = ParamString::parse(parameters.as_deref().unwrap_or(""));
        let def = DomainIndexDef {
            name: name.to_ascii_uppercase(),
            table: tdef.name.clone(),
            column: column.to_ascii_uppercase(),
            indextype: it.name.clone(),
            parameters: params,
        };
        // §2.4.1: dictionary entries first, then ODCIIndexCreate.
        self.catalog.create_domain_index(def.clone())?;
        let (index, _, info) = self.domain_index_runtime(&def)?;
        let created = odci_call(
            Lane::Write(self),
            Routine::IndexCreate,
            Callee::Index(&info),
            format!("{} ON {}({})", def.name, def.table, def.column),
            |ctx| index.create(ctx, &info),
        );
        match created {
            Ok(()) => Ok(StmtResult::Ok),
            Err(e) => {
                // The cartridge may already have created index storage
                // before failing. DR$ tables are rolled back by statement
                // compensation, but *external* storage (file-based index
                // stores) is invisible to undo — best-effort invoke the
                // cartridge's own drop routine so nothing leaks, then
                // remove the dictionary entry.
                let cleaned = odci_call(
                    Lane::Write(self),
                    Routine::IndexDrop,
                    Callee::Index(&info),
                    format!("{}: cleanup after failed create", def.name),
                    |ctx| index.drop_index(ctx, &info),
                );
                if cleaned.is_ok() {
                    // Belt and braces: even a successful cartridge drop
                    // can leave external files behind if the drop was
                    // bypassed or partial. The name is being released —
                    // nothing may linger under it.
                    self.force_remove_external_files(&index, &info);
                    self.catalog.drop_domain_index(&info.index_name);
                } else {
                    // Cleanup itself faulted: cartridge storage may
                    // linger, so the dictionary entry stays and the name
                    // is NOT silently reusable. REBUILD or DROP resolves.
                    let t = self.catalog.health.set_build_failed(&info.index_name);
                    self.trace_health_transition(&def.name, &def.indextype, t);
                }
                Err(e)
            }
        }
    }

    fn run_alter_index(&mut self, name: &str, parameters: &str) -> Result<StmtResult> {
        let delta = ParamString::parse(parameters);
        // Cartridges alter by truncating their storage and repopulating it
        // from the base table, and TRUNCATE is not undone by a statement
        // rollback: ask for the build snapshot the repopulation will take
        // now, so a refusal comes before anything is destroyed or merged.
        if let Some(d) = self.catalog.domain_index(name) {
            self.storage.build_snapshot(self.catalog.table(&d.table)?.seg)?;
        }
        let def = {
            let d = self
                .catalog
                .domain_index_mut(name)
                .ok_or_else(|| Error::not_found("domain index", name.to_ascii_uppercase()))?;
            d.parameters = d.parameters.merged_with(&delta);
            d.clone()
        };
        let (index, _, info) = self.domain_index_runtime(&def)?;
        let callee = Callee::Index(&info);
        odci_call(Lane::Write(self), Routine::IndexAlter, callee, &def.name, |ctx| {
            index.alter(ctx, &info, &delta)
        })?;
        Ok(StmtResult::Ok)
    }

    /// `ALTER INDEX … REBUILD`: recover a degraded domain index. A
    /// quarantined index whose cartridge storage is still trustworthy
    /// catches up by replaying its pending-work log; a BUILD_FAILED or
    /// dirty index (a maintenance/definition routine faulted mid-write)
    /// is rebuilt from the base table via the cartridge's own create
    /// path. Either way success restores VALID with a clean breaker.
    fn run_rebuild_index(&mut self, name: &str) -> Result<StmtResult> {
        let d = self
            .catalog
            .domain_index(name)
            .cloned()
            .ok_or_else(|| Error::not_found("domain index", name.to_ascii_uppercase()))?;
        let (index, _, info) = self.domain_index_runtime(&d)?;
        let state = self.catalog.health.state(&d.name);
        let replay = state == HealthState::Quarantined && !self.catalog.health.needs_full_rebuild(&d.name);
        // The umbrella event is a marker, not a bracket: REBUILD's time is
        // the time of the crossings it makes, each counted on its own.
        if replay {
            let ops = self.catalog.health.take_pending(&d.name);
            self.trace.record(
                Component::Recovery,
                "IndexRebuild",
                &d.indextype,
                format!("{}: replay {} pending ops", d.name, ops.len()),
            );
            for op in ops.iter() {
                if let Err(e) = self.invoke_maintenance(&d, op.clone()) {
                    // Statement compensation inverses the prefix we
                    // already applied (each replayed op was recorded as
                    // this statement's maintenance), so the index returns
                    // to its pre-REBUILD state and the WHOLE log is still
                    // owed — restoring only the `ops[i..]` suffix would
                    // silently drop the compensated prefix. The health
                    // breaker decides separately whether the fault makes
                    // this index rebuild-only (`note_health_outcome`
                    // marks dirty on a cartridge fault); a transient
                    // fault leaves the replay path retryable.
                    self.catalog.health.restore_pending(&d.name, ops.to_vec());
                    return Err(e);
                }
            }
        } else {
            // The create below takes its own build snapshot; asking here
            // as well refuses before the old storage is dropped, not after.
            self.storage.build_snapshot(self.catalog.table(&d.table)?.seg)?;
            self.trace.record(
                Component::Recovery,
                "IndexRebuild",
                &d.indextype,
                format!("{}: full rebuild from {}", d.name, d.table),
            );
            // Best-effort drop of whatever storage the cartridge has —
            // it may be half-written, which is exactly why we're here.
            let callee = Callee::Index(&info);
            let _ = odci_call(Lane::Write(self), Routine::IndexDrop, callee, &d.name, |ctx| {
                index.drop_index(ctx, &info)
            });
            // Rebuild-from-scratch must *replace* external storage, not
            // append to half-written leftovers the faulted drop may have
            // missed.
            self.force_remove_external_files(&index, &info);
            // The rebuild re-reads the base table; deferred ops are moot.
            let _ = self.catalog.health.take_pending(&d.name);
            let r = odci_call(Lane::Write(self), Routine::IndexCreate, callee, &d.name, |ctx| {
                index.create(ctx, &info)
            });
            if let Err(e) = r {
                let t = self.catalog.health.set_build_failed(&d.name);
                self.trace_health_transition(&d.name, &d.indextype, t);
                return Err(e);
            }
        }
        let t = self.catalog.health.restore_valid(&d.name);
        self.trace_health_transition(&d.name, &d.indextype, t);
        Ok(StmtResult::Ok)
    }

    fn run_drop_index(&mut self, name: &str) -> Result<StmtResult> {
        if let Some(d) = self.catalog.domain_index(name).cloned() {
            self.drop_domain_index_entry(&d)?;
            return Ok(StmtResult::Ok);
        }
        let b = self
            .catalog
            .drop_btree_index(name)
            .ok_or_else(|| Error::not_found("index", name.to_ascii_uppercase()))?;
        self.storage.drop_segment(b.seg)?;
        Ok(StmtResult::Ok)
    }

    fn drop_domain_index_entry(&mut self, d: &DomainIndexDef) -> Result<()> {
        let (index, _, info) = self.domain_index_runtime(d)?;
        let healthy = matches!(
            self.catalog.health.state(&d.name),
            HealthState::Valid | HealthState::Suspect
        );
        let callee = Callee::Index(&info);
        let r = odci_call(Lane::Write(self), Routine::IndexDrop, callee, &d.name, |ctx| {
            index.drop_index(ctx, &info)
        });
        if healthy {
            r?;
        } else if let Err(e) = r {
            // Dropping a quarantined or build-failed index must always
            // succeed — its cartridge is already known-bad and the user
            // is getting rid of it. The cartridge's own cleanup failure
            // is recorded, then the dictionary entry goes regardless.
            self.trace.record(
                Component::Recovery,
                "ODCIIndexDrop",
                &d.indextype,
                format!("{}: cleanup failure ignored on drop: {e}", d.name),
            );
        }
        // The dictionary entry is going away on every path that reaches
        // here, so nothing may linger under the index's name: even if the
        // cartridge's own drop faulted (or silently skipped files), its
        // external storage is force-removed. This is the orphan audit —
        // a dropped index must never leak its backing file.
        self.force_remove_external_files(&index, &info);
        self.catalog.drop_domain_index(&d.name);
        Ok(())
    }

    /// Force-remove every external file an index claims, tolerating
    /// already-missing files. Used wherever an index's name is released
    /// or its storage is rebuilt from scratch: cartridge cleanup is
    /// best-effort, this is the engine's guarantee.
    fn force_remove_external_files(&mut self, index: &Arc<dyn OdciIndex>, info: &IndexInfo) {
        for f in index.external_files(info) {
            let _ = self.storage.file_remove_if_exists(&f);
        }
    }

    fn run_analyze(&mut self, name: &str) -> Result<StmtResult> {
        let tdef = self.catalog.table(name)?.clone();
        let col_count = tdef.columns.len();
        let pages = match tdef.org {
            TableOrg::Heap => self.storage.heap(tdef.seg)?.page_count(),
            TableOrg::Index { .. } => self.storage.iot(tdef.seg)?.page_count(),
        };
        let mut distinct: Vec<std::collections::BTreeSet<Key>> = vec![Default::default(); col_count];
        let mut nulls = vec![0usize; col_count];
        let mut mins: Vec<Option<Value>> = vec![None; col_count];
        let mut maxs: Vec<Option<Value>> = vec![None; col_count];
        let mut visit = |_: RowId, row: &Row| {
            for (i, v) in row.iter().enumerate().take(col_count) {
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                distinct[i].insert(Key::single(v.clone()));
                let lower = match &mins[i] {
                    None => true,
                    Some(m) => v.total_cmp(m) == std::cmp::Ordering::Less,
                };
                if lower {
                    mins[i] = Some(v.clone());
                }
                let higher = match &maxs[i] {
                    None => true,
                    Some(m) => v.total_cmp(m) == std::cmp::Ordering::Greater,
                };
                if higher {
                    maxs[i] = Some(v.clone());
                }
            }
        };
        // Statistics describe what this statement's own snapshot sees:
        // deferred-deleted rows and other sessions' uncommitted ones are
        // physically present but must not be counted.
        let snap = self.storage.current_snapshot();
        let mut scan = BaseScan::new(&tdef);
        let mut rows = 0;
        loop {
            let visited = scan.next_batch(&self.storage, &snap, BATCH_TARGET, &mut visit)?.len();
            if visited == 0 {
                break;
            }
            rows += visited;
        }
        let columns = (0..col_count)
            .map(|i| ColumnStats {
                ndv: distinct[i].len(),
                null_count: nulls[i],
                min: mins[i].clone(),
                max: maxs[i].clone(),
            })
            .collect();
        self.catalog.table_mut(&tdef.name)?.stats =
            Some(TableStats { row_count: rows, page_count: pages, columns });
        // ODCIStatsCollect for every domain index on the table.
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            // Stats on a quarantined/build-failed index are pointless —
            // the optimizer will not consider it until REBUILD.
            if !self.catalog.health.is_usable(&d.name) {
                continue;
            }
            let (_, stats, info) = self.domain_index_runtime(&d)?;
            let callee = Callee::Index(&info);
            odci_call(Lane::Write(self), Routine::StatsCollect, callee, &d.name, |ctx| {
                stats.collect(ctx, &info)
            })?;
        }
        Ok(StmtResult::Ok)
    }

    // ---- DML -------------------------------------------------------------------

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<Vec<String>>,
        source: InsertSource,
    ) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        // Materialize source rows first (also avoids reading a table while
        // inserting into it for INSERT … SELECT).
        let mut rows: Vec<Row> = Vec::new();
        match source {
            InsertSource::Values(value_rows) => {
                let empty_scope = Scope::default();
                for exprs in &value_rows {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        let compiled = compile_expr(e, &empty_scope, &self.catalog)?;
                        let ctx = EvalCtx { catalog: &self.catalog, storage: &self.storage, snap: self.storage.current_snapshot() };
                        row.push(eval(&compiled, &ExecRow::default(), &ctx)?);
                    }
                    rows.push(row);
                }
            }
            InsertSource::Query(q) => {
                let snap = self.storage.current_snapshot();
                let (_, qrows) = exec_ctx::run_select_shared(self, snap, &q)?;
                rows.extend(qrows);
            }
        }
        // Map through the column list and coerce.
        let col_map: Vec<usize> = match &columns {
            None => (0..tdef.columns.len()).collect(),
            Some(names) => {
                let mut m = Vec::with_capacity(names.len());
                for n in names {
                    m.push(tdef.column_index(n)?);
                }
                m
            }
        };
        let mut count = 0u64;
        for src in rows {
            if src.len() != col_map.len() {
                return Err(Error::Semantic(format!(
                    "INSERT supplies {} values for {} columns",
                    src.len(),
                    col_map.len()
                )));
            }
            extidx_core::governor::poll()?;
            let mut full = vec![Value::Null; tdef.columns.len()];
            for (v, &target) in src.into_iter().zip(&col_map) {
                full[target] = self.coerce_value(v, &tdef.columns[target].ty)?;
            }
            self.insert_row(&tdef, full)?;
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    /// Insert one fully-shaped row and maintain all indexes.
    fn insert_row(&mut self, tdef: &TableDef, row: Row) -> Result<()> {
        for (v, c) in row.iter().zip(&tdef.columns) {
            if !v.conforms_to(&c.ty) {
                return Err(Error::type_mismatch(c.ty.to_string(), v.type_name()));
            }
        }
        let rid = match tdef.org {
            TableOrg::Heap => self.storage.heap_insert(tdef.seg, row.clone())?,
            TableOrg::Index { .. } => self.storage.iot_insert(tdef.seg, row.clone())?,
        };
        self.maintain(tdef, rid, None, Some(&row))
    }

    fn run_update(
        &mut self,
        table: &str,
        assignments: Vec<(String, crate::ast::Expr)>,
        where_clause: Option<crate::ast::Expr>,
    ) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        let matches = self.collect_dml_targets(&tdef, where_clause.as_ref())?;
        // Compile assignments against the table's scope.
        let scope = optimizer::table_scope(&tdef, None);
        let mut compiled = Vec::with_capacity(assignments.len());
        for (col, e) in &assignments {
            let idx = tdef.column_index(col)?;
            compiled.push((idx, compile_expr(e, &scope, &self.catalog)?));
        }
        // Phase 1 (Halloween-safe): evaluate every assignment against the
        // pre-statement row images before mutating anything, so
        // self-referencing updates (subqueries over the updated table,
        // `SET x = x + 1`) all see the same snapshot.
        let mut planned: Vec<(Option<RowId>, Row, Row)> = Vec::with_capacity(matches.len());
        for (rid, old_row) in matches {
            let mut exec_row = ExecRow::new(old_row.clone());
            if let Some(r) = rid {
                exec_row.values.push(Value::RowId(r));
            }
            let mut new_row = old_row.clone();
            for (idx, e) in &compiled {
                let ctx = EvalCtx { catalog: &self.catalog, storage: &self.storage, snap: self.storage.current_snapshot() };
                let v = eval(e, &exec_row, &ctx)?;
                new_row[*idx] = self.coerce_value(v, &tdef.columns[*idx].ty)?;
            }
            planned.push((rid, old_row, new_row));
        }
        // Phase 2: apply the mutations and maintain every index.
        let mut count = 0u64;
        for (rid, old_row, new_row) in planned {
            extidx_core::governor::poll()?;
            match (tdef.org.clone(), rid) {
                (TableOrg::Heap, Some(rid)) => {
                    let old = self.storage.heap_update(tdef.seg, rid, new_row.clone())?;
                    self.maintain(&tdef, rid, Some(&old), Some(&new_row))?;
                }
                (TableOrg::Index { key_cols }, rid) => {
                    let old_rid = rid.expect("IOT rows carry logical rowids");
                    let old_key = Key(old_row[..key_cols].to_vec());
                    let new_key = Key(new_row[..key_cols].to_vec());
                    if old_key == new_key {
                        // Key unchanged: in-place replace keeps the logical
                        // rowid, so indexes see a plain update.
                        self.storage.iot_upsert(tdef.seg, new_row.clone())?;
                        self.maintain(&tdef, old_rid, Some(&old_row), Some(&new_row))?;
                    } else {
                        // Key change moves the row: a new logical rowid, so
                        // indexes see delete-old + insert-new.
                        self.storage.iot_delete(tdef.seg, &old_key)?;
                        let new_rid = self.storage.iot_insert(tdef.seg, new_row.clone())?;
                        self.maintain(&tdef, old_rid, Some(&old_row), None)?;
                        self.maintain(&tdef, new_rid, None, Some(&new_row))?;
                    }
                }
                (TableOrg::Heap, None) => unreachable!("heap rows always carry rowids"),
            }
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    fn run_delete(&mut self, table: &str, where_clause: Option<crate::ast::Expr>) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        let matches = self.collect_dml_targets(&tdef, where_clause.as_ref())?;
        let mut count = 0u64;
        for (rid, old_row) in matches {
            extidx_core::governor::poll()?;
            match (tdef.org.clone(), rid) {
                (TableOrg::Heap, Some(rid)) => {
                    let old = self.storage.heap_delete(tdef.seg, rid)?;
                    self.maintain(&tdef, rid, Some(&old), None)?;
                }
                (TableOrg::Index { key_cols }, rid) => {
                    let old_rid = rid.expect("IOT rows carry logical rowids");
                    let key = Key(old_row[..key_cols].to_vec());
                    self.storage.iot_delete(tdef.seg, &key)?;
                    self.maintain(&tdef, old_rid, Some(&old_row), None)?;
                }
                (TableOrg::Heap, None) => unreachable!("heap rows always carry rowids"),
            }
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    /// Find the rows a DML statement targets: `(rowid?, row)` pairs,
    /// materialized before mutation (Halloween-safe).
    fn collect_dml_targets(
        &mut self,
        tdef: &TableDef,
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<Vec<(Option<RowId>, Row)>> {
        let snap = self.storage.current_snapshot();
        let scratch = std::cell::RefCell::new(SessionScratch::default());
        let ecx = Exec::new(&*self, &scratch, snap);
        let plan = optimizer::plan_dml_scan(&ecx, tdef, where_clause)?;
        let mut exec = executor::build(plan);
        let col_count = tdef.columns.len();
        let mut out = Vec::new();
        executor::drain(exec.as_mut(), &ecx, |batch| {
            for mut r in batch.rows {
                // Heap rows carry physical rowids; IOT rows carry logical
                // rowids (ordinals) — both arrive in the hidden ROWID
                // column.
                let rid = Some(r.values[col_count].as_rowid()?);
                r.values.truncate(col_count);
                out.push((rid, r.values));
            }
            Ok(())
        })?;
        Ok(out)
    }

    // ---- index maintenance (the implicit part of §2.4.1) -----------------------

    /// Maintain every index on `tdef` for one row change, given the row
    /// images before and after it (an insert has no `old`, a delete no
    /// `new`).
    fn maintain(
        &mut self,
        tdef: &TableDef,
        rid: RowId,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<()> {
        let btree: Vec<BTreeIndexDef> =
            self.catalog.btree_indexes_on(&tdef.name).into_iter().cloned().collect();
        for b in btree {
            let idx = tdef.column_index(&b.column)?;
            // B-trees do not index NULL keys: a side that is NULL has no
            // entry, exactly like a side that does not exist.
            let old_key = old.map(|r| &r[idx]).filter(|v| !v.is_null());
            let new_key = new.map(|r| &r[idx]).filter(|v| !v.is_null());
            if old_key == new_key {
                continue;
            }
            if let Some(k) = old_key {
                self.storage.iot_delete(b.seg, &Key(vec![k.clone(), Value::RowId(rid)]))?;
            }
            if let Some(k) = new_key {
                self.storage.iot_insert(b.seg, vec![k.clone(), Value::RowId(rid)])?;
            }
        }
        let domain: Vec<DomainIndexDef> =
            self.catalog.domain_indexes_on(&tdef.name).into_iter().cloned().collect();
        for d in domain {
            let idx = tdef.column_index(&d.column)?;
            let op = match (old, new) {
                (None, Some(n)) => PendingOp::Insert { rid, value: n[idx].clone() },
                (Some(o), Some(n)) => {
                    PendingOp::Update { rid, old: o[idx].clone(), new: n[idx].clone() }
                }
                (Some(o), None) => PendingOp::Delete { rid, old: o[idx].clone() },
                (None, None) => return Ok(()),
            };
            self.maintain_or_defer(&d, op)?;
        }
        Ok(())
    }

    /// Route one domain-index maintenance op by index health: a usable
    /// index is maintained directly; a QUARANTINED index defers the op to
    /// its pending-work log so base-table DML keeps succeeding; a
    /// BUILD_FAILED index has no index data to maintain (REBUILD re-reads
    /// the base table).
    fn maintain_or_defer(&mut self, d: &DomainIndexDef, op: PendingOp) -> Result<()> {
        match self.catalog.health.state(&d.name) {
            HealthState::Quarantined => {
                self.catalog.health.append_pending(&d.name, op);
                self.scope.pending.push(d.name.clone());
                Ok(())
            }
            HealthState::BuildFailed => Ok(()),
            HealthState::Valid | HealthState::Suspect => self.invoke_maintenance(d, op),
        }
    }

    /// The single chokepoint for domain-index maintenance: crosses into
    /// the cartridge routine and on success records the operation in the
    /// compensation log. A retryable failure (cartridge-classified or
    /// injected) first rewinds the failed call's partial storage effects —
    /// undo recorded past a pre-call mark — then retries under the
    /// bounded-backoff [`RetryPolicy`]. Exhausted retries surface the
    /// underlying error.
    fn invoke_maintenance(&mut self, d: &DomainIndexDef, op: PendingOp) -> Result<()> {
        let (index, _, info) = self.domain_index_runtime(d)?;
        let retry = RetryPolicy::default();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let mark = self.storage.undo_mark();
            let (routine, rid, call) = maintenance_call(&op, &*index, &info);
            let callee = Callee::Index(&info);
            match odci_call(Lane::Write(self), routine, callee, rid.to_string(), call) {
                Ok(()) => {
                    self.scope.maint.push(MaintRecord { index: d.name.clone(), op });
                    return Ok(());
                }
                Err(e) if e.is_retryable() && retry.should_retry(attempt) => {
                    // Rewind just this call's partial effects so the retry
                    // starts from a clean slate instead of double-applying.
                    self.storage.rollback_to(mark).map_err(|cause| Error::RollbackFailed {
                        original: Box::new(e.clone()),
                        cause: Box::new(cause),
                    })?;
                    self.trace.record(
                        Component::Fault,
                        "MaintenanceRetry",
                        &d.indextype,
                        format!("attempt {attempt}: {e}"),
                    );
                    std::thread::sleep(retry.backoff(attempt));
                }
                Err(e) => return Err(e.into_permanent()),
            }
        }
    }

    // ---- shared helpers --------------------------------------------------------

    /// Coerce a value into a column type, allocating LOBs for string
    /// values bound to LOB columns.
    fn coerce_value(&mut self, v: Value, ty: &SqlType) -> Result<Value> {
        match (v, ty) {
            (Value::Varchar(s), SqlType::Lob) => {
                let lob = self.storage.lob_allocate()?;
                self.storage.lob_write(lob, 0, s.as_bytes())?;
                Ok(Value::Lob(lob))
            }
            (Value::Integer(i), SqlType::Number) => Ok(Value::Number(i as f64)),
            (v, _) => Ok(v),
        }
    }

    /// Resolve the runtime pieces of a domain index: implementation,
    /// stats, and the [`IndexInfo`] every ODCI routine receives.
    pub(crate) fn domain_index_runtime(
        &self,
        d: &DomainIndexDef,
    ) -> Result<DomainRuntime> {
        let it = self.catalog.registry().indextype(&d.indextype)?;
        let tdef = self.catalog.table(&d.table)?;
        let col = tdef.column(&d.column)?;
        let info = IndexInfo {
            index_name: d.name.clone(),
            indextype_name: it.name.clone(),
            table_name: d.table.clone(),
            column_name: d.column.clone(),
            column_type: col.ty.clone(),
            parameters: d.parameters.clone(),
        };
        Ok((it.implementation.clone(), it.stats.clone(), info))
    }

    /// Run an incremental vacuum pass now (the `VACUUM` statement, also
    /// callable by embedders). Commit and rollback already trigger the
    /// same pass; this is an explicit extra trigger.
    pub fn vacuum(&mut self) {
        self.storage.vacuum();
        self.refresh_backpressure();
    }

    /// One maintenance-daemon pass body, run under the engine write
    /// lock: check the `daemon.vacuum` fault point (an injected panic is
    /// contained by the daemon loop's `catch_unwind` — parking_lot locks
    /// do not poison), abort any orphaned transactions parked by dropped
    /// sessions, vacuum, and refresh the watermarks.
    pub fn daemon_pass(&mut self) -> Result<()> {
        self.fault_check("daemon.vacuum", None)?;
        self.drain_orphans();
        self.vacuum();
        Ok(())
    }

    /// Foreground drain run by a backpressure-gated session (zero
    /// `yield_wait`, or the daemon missed its window). Its fault point
    /// fires *before* any mutation, so an injected failure leaves state
    /// byte-identical and merely fails the gated statement pre-execution.
    pub(crate) fn backpressure_drain(&mut self) -> Result<()> {
        self.fault_check("governor.backpressure", None)?;
        self.drain_orphans();
        self.vacuum();
        Ok(())
    }

    /// Abort every orphaned transaction parked with the governor (see
    /// `ServerGovernor::park_orphan`). Called by the daemon and at the
    /// start of write statements, both under the write lock.
    pub(crate) fn drain_orphans(&mut self) {
        if !self.governor.has_orphans() {
            return;
        }
        for snap in self.governor.take_orphans() {
            let _ = self.session_abort(snap);
            self.governor.bump(&self.governor.counters.orphan_aborts);
        }
    }

    /// Record a first-writer-wins abort in `V$TRACE` so the contended key
    /// and the winning transaction are observable after the fact.
    pub(crate) fn trace_conflict(&self, err: &Error) {
        if let Error::WriteConflict { other_txn, key, .. } = err {
            let h = self.trace.record(
                Component::Txn,
                "WriteConflict",
                "",
                format!("lost to txn {other_txn} on {key}"),
            );
            self.trace.finish(h);
        }
    }

    /// Record a statement deadline/cancellation in `V$TRACE` (a
    /// TXN/Timeout event) and bump the governor's timeout counter.
    /// Called once per timed-out statement by the session front end.
    pub(crate) fn trace_timeout(&self, err: &Error) {
        if let Error::StatementTimeout { detail } = err {
            self.governor.bump(&self.governor.counters.statement_timeouts);
            let h = self.trace.record(Component::Txn, "Timeout", "", detail.clone());
            self.trace.finish(h);
        }
    }

    /// Snapshot of the per-statement resource stats backing `V$SQLSTATS`.
    pub fn sqlstats(&self) -> Vec<SqlStat> {
        self.sqlstats.lock().iter().cloned().collect()
    }

    /// Append one client statement to the bounded `V$SQLSTATS` ring — the
    /// only place a [`SqlStat`] is built, for every lane. A statement that
    /// completed is recorded, and so is one that hit its deadline (rows =
    /// 0), so the timeout is observable at statement level; any other
    /// failure leaves no row, which is also why a transparently retried
    /// statement records once: only its final attempt gets here with an
    /// `Ok`. Thread-safe: concurrent session statements interleave
    /// without corrupting the ring or reusing ids.
    pub(crate) fn record_statement(
        &self,
        sql: &str,
        started: Instant,
        before: &CacheStats,
        result: &Result<StmtResult>,
    ) {
        let rows_processed = match result {
            Ok(StmtResult::Rows { rows, .. }) => rows.len() as u64,
            Ok(StmtResult::Affected(n)) => *n,
            Ok(StmtResult::Ok) | Err(Error::StatementTimeout { .. }) => 0,
            Err(_) => return,
        };
        let stat = SqlStat {
            sql_id: self.next_sql_id.fetch_add(1, Ordering::Relaxed),
            sql_text: sql.to_string(),
            rows_processed,
            elapsed_micros: started.elapsed().as_micros() as u64,
            cache: self.cache_stats().since(before),
        };
        let mut q = self.sqlstats.lock();
        if q.len() == SQLSTATS_CAPACITY {
            q.pop_front();
        }
        q.push_back(stat);
    }

    /// Materialize the rows of a `V$` virtual table. Each row carries a
    /// trailing NULL for the hidden ROWID slot every table scope exposes.
    pub(crate) fn vtable_rows(&self, name: &str) -> Result<Vec<Row>> {
        let upper = name.to_ascii_uppercase();
        let mut rows: Vec<Row> = match upper.as_str() {
            "V$CACHE_STATS" => {
                let s = self.cache_stats();
                vec![
                    vec![Value::from("LOGICAL_READS"), Value::from(s.logical_reads as i64)],
                    vec![Value::from("PHYSICAL_READS"), Value::from(s.physical_reads as i64)],
                    vec![Value::from("PHYSICAL_WRITES"), Value::from(s.physical_writes as i64)],
                ]
            }
            "V$ODCI_CALLS" => self
                .trace
                .aggregates()
                .into_iter()
                .map(|(indextype, routine, s)| {
                    vec![
                        Value::from(indextype),
                        Value::from(routine),
                        Value::from(s.calls as i64),
                        Value::from(s.total_micros as i64),
                    ]
                })
                .collect(),
            "V$SQLSTATS" => self
                .sqlstats
                .lock()
                .iter()
                .map(|s| {
                    vec![
                        Value::from(s.sql_id as i64),
                        Value::from(s.sql_text.clone()),
                        Value::from(s.rows_processed as i64),
                        Value::from(s.elapsed_micros as i64),
                        Value::from(s.cache.logical_reads as i64),
                        Value::from(s.cache.physical_reads as i64),
                        Value::from(s.cache.physical_writes as i64),
                    ]
                })
                .collect(),
            "V$INDEX_HEALTH" => self
                .catalog
                .health
                .snapshot()
                .into_iter()
                .map(|s| {
                    let d = self.catalog.domain_index(&s.index);
                    vec![
                        Value::from(s.index.clone()),
                        Value::from(d.map(|d| d.table.clone()).unwrap_or_default()),
                        Value::from(d.map(|d| d.indextype.clone()).unwrap_or_default()),
                        Value::from(s.state.to_string()),
                        Value::from(s.recent_faults as i64),
                        Value::from(s.total_faults as i64),
                        Value::from(s.pending_ops as i64),
                        Value::from(s.calls as i64),
                        Value::from(if s.dirty { "YES" } else { "NO" }),
                    ]
                })
                .collect(),
            "V$MVCC" => {
                let txns = self.storage.txn_manager();
                let horizon = self.storage.vacuum_horizon() as i64;
                let active = txns.active_count() as i64;
                let vs = self.storage.vacuum_stats();
                let per_seg = self.storage.mvcc_segment_stats();
                let (tc, tv) = per_seg
                    .iter()
                    .fold((0i64, 0i64), |(c, v), (_, sc, sv)| (c + *sc as i64, v + *sv as i64));
                // TOTAL first and always present: monitoring queries get a
                // row even when every chain has drained.
                let mut out = vec![vec![
                    Value::from("TOTAL"),
                    Value::from(tc),
                    Value::from(tv),
                    Value::from(horizon),
                    Value::from(active),
                    Value::from(vs.runs as i64),
                    Value::from(vs.versions_pruned as i64),
                    Value::from(vs.slots_reclaimed as i64),
                ]];
                for (label, chains, versions) in per_seg {
                    out.push(vec![
                        Value::from(label),
                        Value::from(chains as i64),
                        Value::from(versions as i64),
                        Value::from(horizon),
                        Value::from(active),
                        Value::from(vs.runs as i64),
                        Value::from(vs.versions_pruned as i64),
                        Value::from(vs.slots_reclaimed as i64),
                    ]);
                }
                out
            }
            "V$SERVER" => self
                .governor
                .vserver_rows()
                .into_iter()
                .map(|(name, value)| vec![Value::from(name), Value::from(value)])
                .collect(),
            "V$TRACE" => {
                let dropped = self.trace.dropped() as i64;
                self.trace
                    .events()
                    .into_iter()
                    .map(|e| {
                        vec![
                            Value::from(e.seq as i64),
                            Value::from(e.component.to_string()),
                            Value::from(e.routine),
                            Value::from(e.indextype),
                            Value::from(e.detail),
                            Value::from(e.elapsed_micros as i64),
                            Value::from(dropped),
                        ]
                    })
                    .collect()
            }
            _ => return Err(Error::Semantic(format!("unknown V$ table {upper}"))),
        };
        for r in &mut rows {
            r.push(Value::Null);
        }
        Ok(rows)
    }

    /// A tkprof-style session report: per-routine call counts and wall
    /// time from the trace aggregates, buffer-cache totals, and the most
    /// expensive recent statements from the `V$SQLSTATS` ring.
    pub fn trace_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("==== extensible-indexing trace report ====\n\n");
        out.push_str("ODCI routine                                        calls     total(us)       avg(us)\n");
        out.push_str("------------------------------------------------ -------- ------------- -------------\n");
        let aggs = self.trace.aggregates();
        if aggs.is_empty() {
            out.push_str("(no crossings recorded — is tracing enabled?)\n");
        }
        let mut total_calls = 0u64;
        let mut total_micros = 0u64;
        for (indextype, routine, s) in &aggs {
            let avg = s.total_micros.checked_div(s.calls).unwrap_or(0);
            let name = format!("{indextype}.{routine}");
            let _ = writeln!(out, "{name:<48} {:>8} {:>13} {:>13}", s.calls, s.total_micros, avg);
            total_calls += s.calls;
            total_micros += s.total_micros;
        }
        if !aggs.is_empty() {
            out.push_str("------------------------------------------------ -------- ------------- -------------\n");
            let _ = writeln!(out, "{:<48} {:>8} {:>13}", "total", total_calls, total_micros);
        }
        let dropped = self.trace.dropped();
        let _ = writeln!(out, "\ntrace ring: {} events retained, {} dropped", self.trace.events().len(), dropped);
        let cs = self.cache_stats();
        let _ = writeln!(
            out,
            "buffer cache: {} gets, {} physical reads, {} physical writes",
            cs.logical_reads, cs.physical_reads, cs.physical_writes
        );
        let sqlstats = self.sqlstats.lock();
        let mut stmts: Vec<&SqlStat> = sqlstats.iter().collect();
        stmts.sort_by_key(|s| std::cmp::Reverse(s.elapsed_micros));
        if !stmts.is_empty() {
            out.push_str("\ntop statements by elapsed time:\n");
            for s in stmts.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  [{:>6}us rows={} gets={}] {}",
                    s.elapsed_micros, s.rows_processed, s.cache.logical_reads, s.sql_text
                );
            }
        }
        out
    }

    /// Deliver a §5 database event to every registered handler, in
    /// registration order, stopping at the first handler error. Handlers
    /// are cartridge code: each delivery is a crossing like any other.
    pub(crate) fn fire_event(&mut self, event: DbEvent) -> Result<()> {
        let routine = match event {
            DbEvent::Commit => Routine::EventCommit,
            DbEvent::Rollback => Routine::EventRollback,
        };
        for (name, h) in self.event_handlers.clone() {
            let callee = Callee::Handler(&name);
            odci_call(Lane::Write(self), routine, callee, event.to_string(), |ctx| {
                h.on_event(event, ctx)
            })?;
        }
        Ok(())
    }

    /// §5 delivery outside any statement: a session's transaction just
    /// ended, or its COMMIT/ROLLBACK found none open. With no statement to
    /// fail, nothing could take a handler's writes back: they were
    /// recorded under the direct lane's transaction like any other write
    /// and are final, so its log is dropped here — unless the direct lane
    /// has its own explicit transaction open, which then owns them.
    pub(crate) fn fire_event_unscoped(&mut self, event: DbEvent) -> Result<()> {
        let delivered = self.fire_event(event);
        if !self.storage.in_txn() {
            // Transaction 0 has no write set to validate: this cannot fail.
            let _ = self.storage.commit_txn(Snapshot::latest());
        }
        delivered
    }
}

/// A streaming query cursor (pull-based row delivery).
pub struct QueryCursor<'a> {
    db: &'a mut Database,
    exec: Box<dyn ExecNode>,
    columns: Vec<String>,
    /// The snapshot the cursor was opened under. Fetch state stays pinned
    /// to it for the cursor's whole lifetime: rows committed after open
    /// never appear, no matter how long the cursor is drained.
    snap: extidx_storage::Snapshot,
    /// Cursor-private cartridge scratch (ODCI scan workspace).
    scratch: std::cell::RefCell<SessionScratch>,
    /// Rows of the last executor batch not yet handed out.
    buffered: VecDeque<ExecRow>,
}

impl QueryCursor<'_> {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Produce the next row, or `None` at end of results.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        if self.buffered.is_empty() {
            // Refill a batch at a time. Still pipelined: domain scans and
            // joins return after their first non-empty inner batch.
            let ecx = Exec::new(&*self.db, &self.scratch, self.snap);
            match self.exec.next_batch(&ecx, executor::BATCH_TARGET) {
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
        let ecx = Exec::new(&*self.db, &self.scratch, self.snap);
        if self.exec.reset(&ecx).is_err() {
            self.exec.abandon(&ecx);
        }
    }
}

/// The [`ServerContext`] implementation: cartridge callbacks re-enter the
/// engine through this, under a restriction mode (§2.5).
pub(crate) struct ServerCtx<'a> {
    pub db: &'a mut Database,
    pub mode: CallbackMode,
    /// For Maintenance mode: the base table that must not be modified.
    pub base_table: Option<String>,
}

impl ServerCtx<'_> {
    fn enforce(&self, stmt: &Statement) -> Result<()> {
        let violation = |msg: &str| Err(Error::CallbackViolation(msg.to_string()));
        match self.mode {
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
                    if Some(table.to_ascii_uppercase()) == self.base_table {
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
}

impl ServerContext for ServerCtx<'_> {
    fn mode(&self) -> CallbackMode {
        self.mode
    }

    fn execute(&mut self, sql: &str, binds: &[Value]) -> Result<u64> {
        sandbox::tick();
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        self.enforce(&stmt)?;
        match self.db.run_statement(stmt)? {
            StmtResult::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    fn query(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        sandbox::tick();
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        if !matches!(stmt, Statement::Select(_)) {
            return Err(Error::CallbackViolation("query() requires a SELECT".into()));
        }
        self.enforce(&stmt)?;
        match self.db.run_statement(stmt)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => unreachable!("SELECT produces rows"),
        }
    }

    /// True streaming scan: at most `batch_size` rows, projected to
    /// `cols`, are cloned before the sink gets them (and this context),
    /// unlike the `SELECT …, ROWID` path a cartridge would otherwise use.
    /// On the write lane the base scan is an index (re)build's — create,
    /// a repopulating alter, an event handler's resync — so it reads under
    /// [`StorageEngine::build_snapshot`] and is refused with it.
    fn scan_base_batches(
        &mut self,
        table: &str,
        cols: &[&str],
        batch_size: usize,
        sink: &mut BatchSink,
    ) -> Result<()> {
        sandbox::tick();
        let (mut scan, project) = BaseScan::open(&self.db.catalog, table, cols)?;
        let snap = self.db.storage.build_snapshot(self.db.catalog.table(table)?.seg)?;
        loop {
            // The storage borrow ends with the batch, before the sink gets
            // `&mut self` back.
            let batch = scan.next_batch(&self.db.storage, &snap, batch_size, &project)?;
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
        sandbox::tick();
        self.db.storage.lob_allocate()
    }

    fn lob_length(&mut self, lob: LobRef) -> Result<u64> {
        sandbox::tick();
        self.db.storage.lob_length(lob)
    }

    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.lob_read(lob, offset, len)
    }

    fn lob_read_all(&mut self, lob: LobRef) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.lob_read_all(lob)
    }

    fn lob_write(&mut self, lob: LobRef, offset: u64, bytes: &[u8]) -> Result<()> {
        sandbox::tick();
        self.db.storage.lob_write(lob, offset, bytes)
    }

    fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64> {
        sandbox::tick();
        self.db.storage.lob_append(lob, bytes)
    }

    fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()> {
        sandbox::tick();
        self.db.storage.lob_overwrite(lob, bytes)
    }

    fn lob_free(&mut self, lob: LobRef) -> Result<()> {
        sandbox::tick();
        self.db.storage.lob_free(lob)
    }

    fn workspace_put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle {
        sandbox::tick();
        self.db.scope.workspace.get_mut().put(state)
    }

    fn workspace_get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)> {
        sandbox::tick();
        self.db.scope.workspace.get_mut().get(handle)
    }

    fn workspace_take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>> {
        sandbox::tick();
        self.db.scope.workspace.get_mut().take(handle)
    }

    fn register_event_handler(&mut self, name: &str, handler: Arc<dyn EventHandler>) {
        sandbox::tick();
        self.db.register_event_handler(name, handler);
    }

    fn file_create(&mut self, name: &str) -> Result<()> {
        sandbox::tick();
        self.db.storage.file_create(name)
    }

    fn file_exists(&mut self, name: &str) -> bool {
        sandbox::tick();
        self.db.storage.files_ref().exists(name)
    }

    fn file_remove(&mut self, name: &str) -> Result<()> {
        sandbox::tick();
        self.db.storage.file_remove(name)
    }

    fn file_read(&mut self, name: &str) -> Result<Vec<u8>> {
        sandbox::tick();
        self.db.storage.files().read(name)
    }

    fn file_write(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        sandbox::tick();
        self.db.storage.file_write(name, bytes)
    }

    fn file_append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        sandbox::tick();
        self.db.storage.file_append(name, bytes)
    }

    fn file_flush(&mut self, name: &str) -> Result<()> {
        sandbox::tick();
        self.db.storage.file_flush(name)
    }

    fn file_length(&mut self, name: &str) -> Result<u64> {
        sandbox::tick();
        self.db.storage.files_ref().length(name)
    }
}
