//! The database engine: the "Oracle8i server" of the reproduction.
//!
//! [`Database`] owns the storage engine, the data dictionary, the
//! extensibility registries, and the transaction state, and implements
//! every behaviour Fig. 1 and §2.4 assign to the server:
//!
//! - DDL on domain indexes drives the cartridge's definition routines
//!   ("creates the data dictionary entries pertaining to the domain index
//!   and invokes the ODCIIndexCreate() method"; `crate::ddl`);
//! - base-table DML implicitly maintains every domain index ("when the
//!   base table is updated, all domain indexes built on columns of the
//!   table are implicitly maintained");
//! - queries go through the cost-based optimizer, which may choose a
//!   domain-index scan over functional evaluation;
//! - cartridge code calls back in through the one `ServerContext`
//!   implementation (`exec_ctx::ServerCtx`) under the §2.5 restriction
//!   modes;
//! - commit/rollback fire registered database events (§5).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use extidx_common::{Error, Key, Result, Row, RowId, SqlType, Value};
use extidx_core::events::{DbEvent, EventHandler};
use extidx_core::fault::{FaultInjector, RetryPolicy};
use extidx_core::governor as stmt_governor;
use extidx_core::health::{HealthState, Transition};
use extidx_core::meta::IndexInfo;
use extidx_core::operator::ScalarFunction;
use extidx_core::server::ServerContext;
use extidx_core::stats::OdciStats;
use extidx_core::trace::{CallTrace, Component, Routine};
use extidx_core::OdciIndex;
use extidx_storage::buffer::CacheStats;
use extidx_storage::file_store::{FileStats, FileStore};
use extidx_storage::{CommitBlob, DurableMedium, SegmentId, Snapshot, StorageEngine};

use crate::ast::{AlterIndexAction, Expr, InsertSource, Statement};
use crate::catalog::{Catalog, CatalogDump, DomainIndexDef, TableDef};
use crate::ddl::CreatedObject;
use crate::exec_ctx::{self, odci_call, Callee, Exec, Lane, QueryCursor, SessionScratch};
use crate::executor;
use crate::expr::{compile_expr, eval, EvalCtx, ExecRow, Scope};
use crate::optimizer::{self, CostModel};
use crate::parser::parse;
use crate::stmt_cache::{Prepared, StatementCache};

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
    pub(crate) odci_impls: HashMap<String, OdciImplementation>,
    event_handlers: Vec<(String, Arc<dyn EventHandler>)>,
    pub(crate) trace: CallTrace,
    /// What the open top-level statement may have to take back.
    pub(crate) scope: StatementScope,
    /// Rows per ODCIIndexFetch call (the §2.5 batch interface, E8).
    pub(crate) batch_size: usize,
    /// Fault injection at every server↔cartridge crossing.
    fault: FaultInjector,
    /// Per-crossing tick budget for sandboxed cartridge calls: every
    /// server callback a routine issues costs one tick, and exceeding the
    /// budget converts the call into an [`Error::CartridgeFault`].
    tick_budget: u64,
    /// Bounded per-statement execution history backing `V$SQLSTATS`.
    pub(crate) sqlstats: Mutex<VecDeque<SqlStat>>,
    next_sql_id: AtomicU64,
    /// The server governor blackboard: `V$SERVER` counters, the
    /// occupancy reading and the parked orphans. Shared with the `Server`
    /// and every `Session`.
    pub(crate) governor: Arc<crate::governor::ServerGovernor>,
    /// The vacuum horizon of the last vacuum pass. A commit that finds the
    /// horizon still there skips its pass (DESIGN.md §4l).
    vacuumed_at: Option<u64>,
    /// Every SQL text parsed and planned once, for every lane
    /// (DESIGN.md §4m).
    pub(crate) stmts: StatementCache,
    /// `ServerContext::read_key_range` calls (`V$CACHE_STATS`
    /// `KEY_RANGE_READS`): index-table reads that run no statement.
    pub(crate) key_range_reads: AtomicU64,
    /// The open transaction of this lane's own client (`BEGIN` through
    /// [`Database::execute`]), as a `Session` keeps its own.
    txn: Option<Snapshot>,
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

/// The WAL watermark (DESIGN.md §4i): a transaction end that finds this
/// many records in the WAL folds it through [`Database::checkpoint`]. A
/// server that never checkpoints thus holds at most this many records plus
/// those of its open transactions, and one fold redoes about this many
/// (EXPERIMENTS.md E16 times it).
pub const WAL_FOLD_RECORDS: usize = 2048;

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

/// One domain-index maintenance operation — an index's share of a
/// base-table DML — over values borrowed from the row images.
#[derive(Clone, Copy)]
enum MaintOp<'v> {
    Insert(&'v Value),
    Update { old: &'v Value, new: &'v Value },
    Delete(&'v Value),
}

/// The indexes a DML statement maintains on its table, each with the
/// column it keys: B-trees by segment, domain indexes by definition.
#[derive(Default)]
struct TableIndexes {
    btree: Vec<(usize, SegmentId)>,
    domain: Vec<(usize, DomainIndexDef)>,
}

impl TableIndexes {
    fn is_empty(&self) -> bool {
        self.btree.is_empty() && self.domain.is_empty()
    }
}

/// One top-level statement's scope: everything that must be taken back
/// if it fails, beside the row-level undo the storage engine keeps with
/// the transaction. [`Database::rollback_statement`] is the only reader
/// of the logs; a statement that succeeds just closes the scope.
#[derive(Default)]
pub(crate) struct StatementScope {
    /// Storage savepoint ([`StorageEngine::undo_mark`]) the statement
    /// rolls back to.
    mark: usize,
    /// Schema objects created during the statement — compensated
    /// (dropped) if it fails, so a cartridge routine that errors after
    /// issuing DDL leaves no debris.
    pub(crate) created: Vec<CreatedObject>,
    /// File images: each external file the statement changed, with its
    /// bytes before the first change (`None`: it did not exist) — what
    /// undo cannot reach (§5). `None` while no statement is open, so an
    /// event handler that `deliver` runs after a transaction ends keeps no
    /// image for a later statement to restore.
    files: Option<Vec<(String, Option<Vec<u8>>)>>,
    /// Write-lane cartridge workspace, statement duration. Behind a mutex
    /// only because `Database` is `Sync` and the stored states are not;
    /// the write lane reaches it through `get_mut`.
    pub(crate) workspace: Mutex<SessionScratch>,
}

impl StatementScope {
    /// Keep `name`'s image from `files` if the open statement is about to
    /// change it for the first time. Read without counting in `FileStats`:
    /// the image is the server's, not the cartridge's I/O.
    pub(crate) fn keep_file_image(&mut self, files: &FileStore, name: &str) {
        if let Some(images) = &mut self.files {
            if images.iter().all(|(n, _)| n != name) {
                images.push((name.to_string(), files.contents(name).map(<[u8]>::to_vec)));
            }
        }
    }
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
            fault: FaultInjector::new(),
            tick_budget: extidx_core::DEFAULT_TICK_BUDGET,
            sqlstats: Mutex::new(VecDeque::new()),
            next_sql_id: AtomicU64::new(0),
            governor: Arc::default(),
            vacuumed_at: None,
            stmts: StatementCache::default(),
            key_range_reads: AtomicU64::new(0),
            txn: None,
        }
    }

    /// The server governor blackboard (`V$SERVER` counters, occupancy,
    /// parked orphans). A `Server` and its sessions share this one.
    pub fn governor(&self) -> Arc<crate::governor::ServerGovernor> {
        Arc::clone(&self.governor)
    }

    /// Current MVCC chain occupancy: `(total held versions, max held
    /// versions in any single segment)`.
    pub fn mvcc_occupancy(&self) -> (usize, usize) {
        let per = self.storage.mvcc_segment_stats();
        let total = per.iter().map(|(_, _, v)| *v).sum();
        let max_seg = per.iter().map(|(_, _, v)| *v).max().unwrap_or(0);
        (total, max_seg)
    }

    /// Record fresh occupancy on the governor blackboard, where
    /// `V$SERVER` and samplers on other threads read it without the lock.
    fn refresh_occupancy(&self) {
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

    /// Direct storage access for white-box tests and benches.
    pub fn storage(&self) -> &StorageEngine {
        &self.storage
    }

    /// Mutable storage access, for the concurrent oracle's conflict-check
    /// ablation (`set_conflict_checks`) and its vacuum passes between
    /// statements — which, unlike [`Database::vacuum`], neither record the
    /// horizon nor refresh the governor's occupancy. Rows change through
    /// SQL only.
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
    /// fired faults.
    pub(crate) fn fault_check(&self, routine: &str, indextype: Option<&str>) -> Result<()> {
        self.fault.check(routine, indextype).inspect_err(|e| {
            // `e` carries the point name and call number, so a static
            // routine label suffices for the FAULT trace row.
            let who = indextype.unwrap_or("");
            self.trace.record(Component::Fault, "FaultInjected", who, || e.to_string());
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
        // Catalog and storage are about to be replaced wholesale: no plan
        // made against this instance's own dictionary may outlive them.
        self.stmts.clear();
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
        // commit): quarantine them until REBUILD re-reads the base table.
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
                    self.trace_health_transition(&d.name, &d.indextype, t);
                    self.trace.record(
                        Component::Recovery,
                        "CrashRecovery",
                        &d.indextype,
                        || {
                            format!(
                                "{}: external file activity after last commit; quarantined",
                                d.name
                            )
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Record a health-state transition in the call trace.
    pub(crate) fn trace_health_transition(&self, index: &str, indextype: &str, t: Option<Transition>) {
        if let Some(t) = t {
            self.trace.record(
                Component::Health,
                "HealthTransition",
                indextype,
                || format!("{index}: {} -> {}", t.from, t.to),
            );
        }
    }

    /// Feed a crossing's outcome to the index-health breaker.
    /// Only [`Error::CartridgeFault`] counts as a fault — errors a
    /// cartridge *reports* (including injected ones) keep their existing
    /// fail-the-statement semantics and never degrade the index.
    pub(crate) fn note_health_outcome(&self, info: &IndexInfo, err: Option<&Error>) {
        let health = &self.catalog.health;
        let t = match err {
            Some(Error::CartridgeFault { .. }) => health.note_fault(&info.index_name),
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
        let p = self.prepare(sql)?;
        let before = self.cache_stats();
        let started = Instant::now();
        // Nested callback statements go through `run_statement` directly
        // and are charged to this, their parent.
        let result = self.client_statement(&p, binds);
        self.record_statement(sql, started, &before, &result);
        result
    }

    /// One statement of this lane's client, run as a `Session` runs it.
    fn client_statement(&mut self, p: &Prepared, binds: &[Value]) -> Result<StmtResult> {
        let event = match (p.statement(binds)?, self.txn) {
            (Statement::Begin, open) => {
                self.txn = Some(self.begin_txn(open)?);
                return Ok(StmtResult::Ok);
            }
            (Statement::Commit, _) => DbEvent::Commit,
            (Statement::Rollback, _) => DbEvent::Rollback,
            // A query needs no transaction of its own, as on a `Session`.
            (Statement::Select(s), open) => {
                let snap = open.unwrap_or_else(Snapshot::latest);
                let (plan, rows) = exec_ctx::run_select(self, snap, p, s, binds)?;
                return Ok(StmtResult::Rows { columns: plan.column_names.clone(), rows });
            }
            (_, Some(snap)) => return self.session_statement(p, binds, snap),
            (_, None) => return self.autocommit(p, binds),
        };
        let txn = self.txn.take();
        self.end_txn(txn, event).map(|()| StmtResult::Ok)
    }

    /// The statement cache's entry for `sql` (parsed on a miss).
    pub(crate) fn prepare(&self, sql: &str) -> Result<Arc<Prepared>> {
        self.stmts.prepare(sql)
    }

    /// Convenience: run a query and return just the rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        self.query_with(sql, &[])
    }

    /// Convenience: run a query with binds and return just the rows.
    pub fn query_with(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        match self.execute_with(sql, binds)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => Err(Error::Semantic("statement did not produce rows".into())),
        }
    }

    /// EXPLAIN a query, returning the plan lines. EXPLAIN answers "what
    /// would the optimizer choose now", so the text is parsed and planned
    /// afresh, never through the statement cache.
    pub fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        let Statement::Select(s) = parse(sql)? else {
            return Err(Error::Unsupported("EXPLAIN is only supported for SELECT".into()));
        };
        exec_ctx::explain_select(self, self.txn.unwrap_or_else(Snapshot::latest), &s, &[], false)
    }

    /// Open a streaming cursor over a query — rows are produced on demand,
    /// which is what makes the pipelined domain-scan's first-row latency
    /// measurable (§3.2.1 benefit 2). It sees the open transaction's writes.
    pub fn open_query(&mut self, sql: &str) -> Result<QueryCursor<'_>> {
        let snap = self.txn.unwrap_or_else(Snapshot::latest);
        QueryCursor::open(self, sql, snap)
    }

    /// Top-level statement wrapper: statement atomicity plus
    /// statement-duration workspace teardown.
    fn run_top(&mut self, p: &Prepared, binds: &[Value]) -> Result<StmtResult> {
        debug_assert!(
            self.storage.in_txn() || self.storage.undo_mark() == 0,
            "undo outlived its transaction: a write outside any statement scope was not closed"
        );
        debug_assert!(self.scope.files.is_none(), "file images outlived their statement");
        self.scope.mark = self.storage.undo_mark();
        self.scope.files = Some(Vec::new());
        let result = p
            .statement(binds)
            .and_then(|stmt| self.refuse_unversioned_ddl(stmt))
            .and_then(|()| self.run_statement(p, binds))
            .map_err(|e| self.rollback_statement(e));
        // Statement end, either way: nothing recorded outlives it.
        self.scope = StatementScope::default();
        result
    }

    /// Statement atomicity — the one failure sequence, in its fixed order:
    /// compensate any DDL the statement (or its callbacks) performed, put
    /// back the external files it changed (undo cannot reach them), roll
    /// the row-level changes back to the statement's savepoint, deliver
    /// the §5 Rollback event. Compensation and restore failures are
    /// swallowed — the original error wins — but a failed *storage*
    /// rollback is a double fault that must surface: state may be torn.
    fn rollback_statement(&mut self, original: Error) -> Error {
        let created = std::mem::take(&mut self.scope.created);
        let files = self.scope.files.take().unwrap_or_default();
        let had_effects =
            self.storage.undo_mark() > self.scope.mark || !created.is_empty() || !files.is_empty();
        for obj in created.into_iter().rev() {
            let _ = self.compensate_created(obj);
        }
        for (name, image) in files {
            let _ = self.restore_file(&name, image.as_deref());
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

    /// Put external file `name` back to `image` (`None`: absent). A file
    /// that already matches its image is left alone, so it gets no WAL
    /// stamp that would quarantine its index after a crash.
    fn restore_file(&mut self, name: &str, image: Option<&[u8]>) -> Result<()> {
        let files = self.storage.files_ref();
        match image {
            _ if files.contents(name) == image => Ok(()),
            None => self.storage.file_remove(name),
            Some(bytes) => {
                if !files.exists(name) {
                    self.storage.file_create(name)?;
                }
                self.storage.file_write(name, bytes)
            }
        }
    }

    /// Append a WAL commit marker for transaction `txn` (no-op when
    /// durability is off). The marker carries a catalog dump — the
    /// dictionary image it shares with every marker since the last DDL,
    /// plus its own health export — so recovery restores dictionary state
    /// as of the last committed statement without replaying DDL logic.
    fn wal_commit_marker(&mut self, txn: u64) -> Result<()> {
        let Some(medium) = self.storage.wal_medium().cloned() else {
            return Ok(());
        };
        let payload: CommitBlob = Arc::new(self.catalog.dump());
        medium.commit_txn(txn, Some(payload))
    }

    // ---- transactions: one rule for every client lane --------------------
    //
    // A `Session` (under the server's write lock) and this lane's own
    // client drive transactions through these methods, so ODCI maintenance
    // and the file images are serialized per statement, and WAL commit
    // markers land in csn order. A client's transaction is its `Snapshot`;
    // its undo stays in the storage engine.

    /// `BEGIN` for a client whose open transaction is `open`. A `Session`
    /// calls this under the engine's read lock, so no snapshot is taken
    /// while an autocommit unit holds the write lock: what lets an
    /// unobserved one skip versioning ([`Self::autocommit_unit`]).
    pub(crate) fn begin_txn(&self, open: Option<Snapshot>) -> Result<Snapshot> {
        let txns = self.storage.txn_manager();
        if open.is_some_and(|snap| txns.is_active(snap.txn)) {
            return Err(Error::Transaction("a transaction is already active".into()));
        }
        Ok(txns.begin())
    }

    /// `COMMIT` or `ROLLBACK` (`event` says which) of a client whose open
    /// transaction was `txn`; with none open, only the event is delivered.
    pub(crate) fn end_txn(&mut self, txn: Option<Snapshot>, event: DbEvent) -> Result<()> {
        match (txn, event) {
            (Some(snap), DbEvent::Commit) => self.session_commit(snap),
            (Some(snap), DbEvent::Rollback) => self.session_abort(snap),
            (None, event) => self.deliver(event),
        }
    }

    /// Run one statement of an open client transaction. A failed statement
    /// rolls its own effects back inside `run_top`; the transaction stays
    /// open either way.
    pub(crate) fn session_statement(
        &mut self,
        p: &Prepared,
        binds: &[Value],
        snap: Snapshot,
    ) -> Result<StmtResult> {
        self.storage.set_current_txn(snap);
        let result = self.run_top(p, binds).inspect_err(|e| self.trace_conflict(e));
        self.storage.set_current_txn(Snapshot::latest());
        result
    }

    /// The one autocommit path, for both client lanes: the statement is a
    /// transaction of its own, followed by the Commit event as any commit.
    pub(crate) fn autocommit(&mut self, p: &Prepared, binds: &[Value]) -> Result<StmtResult> {
        let result = self.autocommit_unit(|db| {
            let result = db.run_top(p, binds)?;
            // From here the commit must not be interrupted by the
            // statement's deadline: half-committed is worse than late.
            stmt_governor::disarm();
            Ok((result, true))
        })?;
        self.deliver(DbEvent::Commit).map(|()| result)
    }

    /// Run `f` as one autocommit unit: committed when it succeeds (with a
    /// WAL marker if `f` asks for one), discarded when it fails.
    ///
    /// The one rule of who versions (DESIGN.md §4j): the unit is a
    /// registered transaction when another transaction is active as it
    /// starts, and transaction 0 otherwise — no chain, an immediate heap
    /// delete, never a conflict. Sound because no snapshot can be taken
    /// while the unit holds the engine ([`Self::begin_txn`]), and none
    /// older is live.
    fn autocommit_unit<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<(T, bool)>) -> Result<T> {
        let txns = self.storage.txn_manager();
        let snap = match txns.other_active(0) {
            Some(_) => txns.begin(),
            None => Snapshot::latest(),
        };
        self.storage.set_current_txn(snap);
        let result = f(self);
        self.storage.set_current_txn(Snapshot::latest());
        match result {
            Ok((out, marker)) => self.finish_txn(snap, marker).map(|()| out),
            Err(e) => {
                // A statement has already rolled itself back (and
                // delivered its Rollback event); handlers' writes go here.
                self.trace_conflict(&e);
                let _ = self.storage.rollback_txn(snap);
                self.maintenance_after_txn_end(false);
                Err(e)
            }
        }
    }

    /// Commit a transaction: its csn, then — under the same exclusive
    /// hold, so markers land in csn order — its WAL marker if `marker`,
    /// and version GC. It cannot lose first-writer-wins: every write was
    /// checked when it happened. A marker failure means the durable medium
    /// is gone (simulated crash): the commit must not report success.
    fn finish_txn(&mut self, snap: Snapshot, marker: bool) -> Result<()> {
        self.storage.commit_txn(snap);
        let marked = if marker { self.wal_commit_marker(snap.txn) } else { Ok(()) };
        self.maintenance_after_txn_end(true);
        marked
    }

    /// Commit a client transaction and deliver the Commit event.
    pub(crate) fn session_commit(&mut self, snap: Snapshot) -> Result<()> {
        self.finish_txn(snap, true)?;
        self.deliver(DbEvent::Commit)
    }

    /// The one vacuum placement and the one WAL fold placement (DESIGN.md
    /// §4l, §4i): the end of a transaction, under the write lock it already
    /// holds. An abort always runs the §4k pass. A commit skips it when the
    /// horizon still equals the last pass's: horizons only rise, and every
    /// commit since that pass got a csn above it, so the pass would prune
    /// nothing. Then, once the WAL holds [`WAL_FOLD_RECORDS`] records, the
    /// checkpoint folds it, after this transaction's commit marker.
    fn maintenance_after_txn_end(&mut self, committed: bool) {
        if committed && self.vacuumed_at == Some(self.storage.vacuum_horizon()) {
            self.refresh_occupancy();
        } else {
            self.vacuum();
        }
        let medium = self.storage.wal_medium();
        if medium.is_some_and(|m| m.stats().wal_len >= WAL_FOLD_RECORDS) {
            // A fold fails only on a crashed medium, and that is not this
            // transaction's error: it has ended, a commit's marker has
            // landed. The next write fails on the frozen medium.
            let _ = self.checkpoint();
        }
    }

    /// Roll back a client transaction (also an orphaned one: its
    /// snapshot is all that is needed): reverse its undo (chain-aware)
    /// and abort it, vacuum, and deliver the Rollback event.
    pub(crate) fn session_abort(&mut self, snap: Snapshot) -> Result<()> {
        let rolled = self.storage.rollback_txn(snap);
        self.maintenance_after_txn_end(false);
        let ev = self.deliver(DbEvent::Rollback);
        rolled?;
        ev
    }

    /// Dispatch without boundary bookkeeping (also the entry point for
    /// nested callback statements).
    pub(crate) fn run_statement(&mut self, p: &Prepared, binds: &[Value]) -> Result<StmtResult> {
        match p.statement(binds)? {
            Statement::Select(s) => {
                // All SELECTs run on the shared read lane, pinned to the
                // driving transaction's snapshot: `Snapshot::latest()` for
                // an unobserved autocommit, the transaction's own otherwise.
                let snap = self.storage.current_snapshot();
                let (plan, rows) = exec_ctx::run_select(self, snap, p, s, binds)?;
                Ok(StmtResult::Rows { columns: plan.column_names.clone(), rows })
            }
            // EXPLAIN [ANALYZE] plans afresh: the statement cache keeps
            // its parse, never its plan.
            explain @ (Statement::Explain(inner) | Statement::ExplainAnalyze(inner)) => {
                let analyze = matches!(explain, Statement::ExplainAnalyze(_));
                let Statement::Select(s) = inner.as_ref() else {
                    let what = if analyze { "EXPLAIN ANALYZE" } else { "EXPLAIN" };
                    return Err(Error::Unsupported(format!("{what} is only supported for SELECT")));
                };
                let snap = self.storage.current_snapshot();
                let lines = exec_ctx::explain_select(self, snap, s, binds, analyze)?;
                let rows = lines.into_iter().map(|l| vec![Value::from(l)]).collect();
                Ok(StmtResult::Rows { columns: vec!["PLAN".into()], rows })
            }
            Statement::Insert { table, columns, source } => {
                self.run_insert(p, binds, table, columns.as_deref(), source)
            }
            Statement::Update { table, assignments, where_clause } => {
                self.run_update(p, binds, table, assignments, where_clause.as_ref())
            }
            Statement::Delete { table, where_clause } => {
                self.run_delete(p, binds, table, where_clause.as_ref())
            }
            // Clients end transactions; callbacks may not (`enforce`).
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::Transaction(
                "transaction control is not allowed inside a statement".into(),
            )),
            Statement::Vacuum => {
                self.vacuum();
                Ok(StmtResult::Ok)
            }
            Statement::CreateTable { name, columns, primary_key, organization_index } => {
                self.run_create_table(name, columns, primary_key, *organization_index)
            }
            Statement::DropTable { name } => self.run_drop_table(name),
            Statement::TruncateTable { name } => self.run_truncate_table(name),
            Statement::CreateType { name, attrs } => self.run_create_type(name, attrs),
            Statement::CreateIndex { name, table, column, indextype, parameters } => {
                match indextype {
                    Some(it) => {
                        self.run_create_domain_index(name, table, column, it, parameters.as_deref())
                    }
                    None => self.run_create_btree_index(name, table, column),
                }
            }
            Statement::AlterIndex { name, action } => match action {
                AlterIndexAction::Parameters(parameters) => self.run_alter_index(name, parameters),
                AlterIndexAction::Rebuild => self.run_rebuild_index(name),
            },
            Statement::DropIndex { name } => self.run_drop_index(name),
            Statement::CreateOperator { name, bindings } => self.run_create_operator(name, bindings),
            Statement::CreateIndexType { name, operators, using } => {
                self.run_create_indextype(name, operators, using)
            }
            Statement::DropOperator { name } => self.run_drop_operator(name),
            Statement::DropIndexType { name } => self.run_drop_indextype(name),
            Statement::AnalyzeTable { name } => self.run_analyze(name),
            // Session parameters are scoped to a `Session`; the bare
            // `Database` lane has no session state to attach them to.
            Statement::Set { name, .. } | Statement::Show { name } => Err(Error::Unsupported(
                format!("{name} is a session parameter; connect through Server::session"),
            )),
        }
    }

    // ---- DML -------------------------------------------------------------------

    fn run_insert(
        &mut self,
        p: &Prepared,
        binds: &[Value],
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        // Materialize source rows first (also avoids reading a table while
        // inserting into it for INSERT … SELECT).
        let mut rows: Vec<Row> = Vec::new();
        match source {
            InsertSource::Values(value_rows) => {
                let empty_scope = Scope::default();
                let ctx = self.eval_ctx(binds);
                for exprs in value_rows {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        let compiled = compile_expr(e, &empty_scope, &self.catalog)?;
                        row.push(eval(&compiled, &ExecRow::default(), &ctx)?);
                    }
                    rows.push(row);
                }
            }
            InsertSource::Query(q) => {
                let snap = self.storage.current_snapshot();
                rows = exec_ctx::run_select(self, snap, p, q, binds)?.1;
            }
        }
        // Map through the column list and coerce.
        let col_map: Vec<usize> = match columns {
            None => (0..tdef.columns.len()).collect(),
            Some(names) => {
                let mut m = Vec::with_capacity(names.len());
                for n in names {
                    m.push(tdef.column_index(n)?);
                }
                m
            }
        };
        let indexes = self.indexes_on(&tdef)?;
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
            self.insert_row(&tdef, &indexes, full)?;
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    /// Insert one fully-shaped row and maintain `indexes`, the table's.
    /// The row is copied only for an index to read.
    fn insert_row(&mut self, tdef: &TableDef, indexes: &TableIndexes, row: Row) -> Result<()> {
        for (v, c) in row.iter().zip(&tdef.columns) {
            if !v.conforms_to(&c.ty) {
                return Err(Error::type_mismatch(c.ty.to_string(), v.type_name()));
            }
        }
        if indexes.is_empty() {
            return self.storage.insert(tdef.seg, row).map(drop);
        }
        let rid = self.storage.insert(tdef.seg, row.clone())?;
        self.maintain(indexes, rid, None, Some(&row))
    }

    fn run_update(
        &mut self,
        p: &Prepared,
        binds: &[Value],
        table: &str,
        assignments: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        let matches = self.collect_dml_targets(p, binds, &tdef, where_clause)?;
        // Compile assignments against the table's scope.
        let scope = optimizer::table_scope(&tdef, None);
        let mut compiled = Vec::with_capacity(assignments.len());
        for (col, e) in assignments {
            let idx = tdef.column_index(col)?;
            compiled.push((idx, compile_expr(e, &scope, &self.catalog)?));
        }
        // Phase 1 (Halloween-safe): evaluate every assignment against the
        // pre-statement row images before mutating anything, so
        // self-referencing updates (subqueries over the updated table,
        // `SET x = x + 1`) all see the same snapshot.
        let mut planned: Vec<(RowId, Row, Row)> = Vec::with_capacity(matches.len());
        for (rid, old_row) in matches {
            let mut exec_row = ExecRow::new(old_row.clone());
            exec_row.values.push(Value::RowId(rid));
            let mut new_row = old_row.clone();
            for (idx, e) in &compiled {
                let v = eval(e, &exec_row, &self.eval_ctx(binds))?;
                new_row[*idx] = self.coerce_value(v, &tdef.columns[*idx].ty)?;
            }
            planned.push((rid, old_row, new_row));
        }
        // Phase 2: apply the mutations and maintain every index. A row
        // that keeps its rowid is an update to every index; one that moved
        // (an IOT key change) is a delete at the old rowid and an insert at
        // the new one.
        let indexes = self.indexes_on(&tdef)?;
        let mut count = 0u64;
        for (rid, old_row, new_row) in planned {
            extidx_core::governor::poll()?;
            let moved_to = self.storage.update(tdef.seg, rid, &old_row, new_row.clone())?;
            if moved_to == rid {
                self.maintain(&indexes, rid, Some(&old_row), Some(&new_row))?;
            } else {
                self.maintain(&indexes, rid, Some(&old_row), None)?;
                self.maintain(&indexes, moved_to, None, Some(&new_row))?;
            }
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    fn run_delete(
        &mut self,
        p: &Prepared,
        binds: &[Value],
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<StmtResult> {
        reject_vtable_dml(table)?;
        let tdef = self.catalog.table(table)?.clone();
        let matches = self.collect_dml_targets(p, binds, &tdef, where_clause)?;
        let indexes = self.indexes_on(&tdef)?;
        let mut count = 0u64;
        for (rid, old_row) in matches {
            extidx_core::governor::poll()?;
            let old = self.storage.delete(tdef.seg, rid, &old_row)?;
            self.maintain(&indexes, rid, Some(&old), None)?;
            count += 1;
        }
        Ok(StmtResult::Affected(count))
    }

    /// Find the rows a DML statement targets: `(rowid, row)` pairs,
    /// materialized before mutation (Halloween-safe), through the target
    /// scan the statement cache keeps for `p`.
    fn collect_dml_targets(
        &mut self,
        p: &Prepared,
        binds: &[Value],
        tdef: &TableDef,
        where_clause: Option<&Expr>,
    ) -> Result<Vec<(RowId, Row)>> {
        let snap = self.storage.current_snapshot();
        let scratch = std::cell::RefCell::new(SessionScratch::default());
        let ecx = Exec::new(&*self, &scratch, snap, binds);
        let plan =
            self.stmts.plan(p, &ecx, |ecx| optimizer::plan_dml_scan(ecx, tdef, where_clause))?;
        let mut exec = executor::build(&plan.root);
        let col_count = tdef.columns.len();
        let mut out = Vec::new();
        executor::drain(exec.as_mut(), &plan.root, &ecx, |batch| {
            for mut r in batch.rows {
                // A heap's or an IOT's rowid, in the hidden ROWID column.
                let rid = r.values[col_count].as_rowid()?;
                r.values.truncate(col_count);
                out.push((rid, r.values));
            }
            Ok(())
        })?;
        Ok(out)
    }

    // ---- index maintenance (the implicit part of §2.4.1) -----------------------

    /// Every index on `tdef`, with the column each one keys: looked up
    /// once per DML statement, not once per row it maintains.
    fn indexes_on(&self, tdef: &TableDef) -> Result<TableIndexes> {
        let mut indexes = TableIndexes::default();
        for b in self.catalog.btree_indexes_on(&tdef.name) {
            indexes.btree.push((tdef.column_index(&b.column)?, b.seg));
        }
        for d in self.catalog.domain_indexes_on(&tdef.name) {
            indexes.domain.push((tdef.column_index(&d.column)?, d.clone()));
        }
        Ok(indexes)
    }

    /// Maintain `indexes` for one row change, given the row images before
    /// and after it (an insert has no `old`, a delete no `new`).
    fn maintain(
        &mut self,
        indexes: &TableIndexes,
        rid: RowId,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<()> {
        for &(idx, seg) in &indexes.btree {
            // B-trees do not index NULL keys: a side that is NULL has no
            // entry, exactly like a side that does not exist.
            let old_key = old.map(|r| &r[idx]).filter(|v| !v.is_null());
            let new_key = new.map(|r| &r[idx]).filter(|v| !v.is_null());
            if old_key == new_key {
                continue;
            }
            if let Some(k) = old_key {
                self.storage.iot_delete(seg, &Key(vec![k.clone(), Value::RowId(rid)]))?;
            }
            if let Some(k) = new_key {
                self.storage.insert(seg, vec![k.clone(), Value::RowId(rid)])?;
            }
        }
        for (idx, d) in &indexes.domain {
            // An unusable index gets no crossing: its REBUILD re-reads the
            // base table, so there is no work to owe it.
            if !self.catalog.health.is_usable(&d.name) {
                continue;
            }
            let op = match (old, new) {
                (None, Some(n)) => MaintOp::Insert(&n[*idx]),
                (Some(o), Some(n)) => MaintOp::Update { old: &o[*idx], new: &n[*idx] },
                (Some(o), None) => MaintOp::Delete(&o[*idx]),
                (None, None) => return Ok(()),
            };
            self.invoke_maintenance(d, rid, op)?;
        }
        Ok(())
    }

    /// The single chokepoint for domain-index maintenance: crosses into
    /// the cartridge routine for `op` on row `rid`. A retryable failure
    /// (cartridge-classified or injected) first rewinds the failed call's
    /// partial storage effects — undo recorded past a pre-call mark — then
    /// retries under the bounded-backoff [`RetryPolicy`]. Exhausted retries
    /// surface the underlying error. The rewind cannot reach external
    /// files (only a failed statement restores their images), so a routine
    /// that writes them must be safe to run twice.
    fn invoke_maintenance(&mut self, d: &DomainIndexDef, rid: RowId, op: MaintOp) -> Result<()> {
        let (index, _, info) = self.domain_index_runtime(d)?;
        let routine = match op {
            MaintOp::Insert(_) => Routine::IndexInsert,
            MaintOp::Update { .. } => Routine::IndexUpdate,
            MaintOp::Delete(_) => Routine::IndexDelete,
        };
        let retry = RetryPolicy::default();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let mark = self.storage.undo_mark();
            let call = |ctx: &mut dyn ServerContext| match op {
                MaintOp::Insert(value) => index.insert(ctx, &info, rid, value),
                MaintOp::Update { old, new } => index.update(ctx, &info, rid, old, new),
                MaintOp::Delete(old) => index.delete(ctx, &info, rid, old),
            };
            let callee = Callee::Index(&info);
            match odci_call(Lane::Write(self), routine, callee, || rid.to_string(), call) {
                Ok(()) => return Ok(()),
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
                        || format!("attempt {attempt}: {e}"),
                    );
                    std::thread::sleep(retry.backoff(attempt));
                }
                Err(e) => return Err(e.into_permanent()),
            }
        }
    }

    // ---- shared helpers --------------------------------------------------------

    /// Expression context for the write lane: the current snapshot and
    /// the statement's binds.
    fn eval_ctx<'a>(&'a self, binds: &'a [Value]) -> EvalCtx<'a> {
        let snap = self.storage.current_snapshot();
        EvalCtx { catalog: &self.catalog, storage: &self.storage, snap, binds }
    }

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
    /// callable by embedders). The end of every session transaction runs
    /// the same pass, except a commit that left the horizon where the
    /// last pass did; this one always runs.
    pub fn vacuum(&mut self) {
        self.vacuumed_at = Some(self.storage.vacuum_horizon());
        self.storage.vacuum();
        self.refresh_occupancy();
    }

    /// Abort every orphaned transaction parked with the governor (see
    /// `ServerGovernor::park_orphan`). Every write lock a `Server` or
    /// `Session` takes calls this first.
    pub(crate) fn drain_orphans(&mut self) {
        for snap in self.governor.take_orphans() {
            let _ = self.session_abort(snap);
            self.governor.bump(&self.governor.counters.orphan_aborts);
        }
    }

    /// Record a first-writer-wins abort in `V$TRACE` so the contended key
    /// and the winning transaction are observable after the fact.
    fn trace_conflict(&self, err: &Error) {
        if let Error::WriteConflict { other_txn, key, .. } = err {
            let h = self.trace.record(
                Component::Txn,
                "WriteConflict",
                "",
                || format!("lost to txn {other_txn} on {key}"),
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
            let h = self.trace.record(Component::Txn, "Timeout", "", || detail.clone());
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
            odci_call(Lane::Write(self), routine, callee, || event.to_string(), |ctx| {
                h.on_event(event, ctx)
            })?;
        }
        Ok(())
    }

    /// §5 delivery once a transaction has ended (or a COMMIT/ROLLBACK
    /// found none open): the handlers' writes are one autocommit unit,
    /// taken back whole if a handler fails. A unit that logged nothing
    /// needs no WAL marker, and so adds no crash point after a commit.
    fn deliver(&mut self, event: DbEvent) -> Result<()> {
        if self.event_handlers.is_empty() {
            return Ok(());
        }
        let appended = |db: &Self| db.storage.wal_medium().map(|m| m.stats().records_appended);
        let before = appended(self);
        self.autocommit_unit(|db| {
            db.fire_event(event)?;
            Ok(((), appended(db) != before))
        })
    }
}
