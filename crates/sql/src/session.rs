//! Concurrent multi-session front end over one shared [`Database`].
//!
//! The paper's framework runs inside a multi-user server: many sessions
//! issue statements against one instance, each session seeing a
//! transaction-consistent snapshot while domain-index maintenance stays
//! statement-atomic. This module supplies that front end for the
//! reproduction:
//!
//! - [`Server`] wraps the engine in an `Arc<RwLock<Database>>` and hands
//!   out [`Session`]s (independent handles, one per "connection").
//! - SELECT statements take the **read lock**: any number of sessions
//!   scan concurrently, each pinned to its snapshot — its own
//!   transaction's snapshot inside `BEGIN…COMMIT`, latest-committed
//!   otherwise. Cartridge scan callbacks (`ODCIIndexStart/Fetch/Close`)
//!   run under the read lock through the read-only `SharedCtx`, so a
//!   cartridge can never mutate shared state from a reader.
//! - Everything else (DML, DDL, transaction control) takes the **write
//!   lock** for the duration of the statement. That exclusivity is what
//!   serializes ODCIIndex maintenance, the compensation log, and the
//!   pending-work log per index: a cartridge never observes a torn
//!   statement, and crash recovery's commit markers are appended in
//!   commit order because csn assignment and the marker append happen
//!   under one exclusive hold.
//!
//! Isolation level is **snapshot isolation** with first-writer-wins:
//! `COMMIT` validates the transaction's write set against concurrently
//! committed writers and fails with a conflict error on overlap,
//! auto-rolling the loser back (its session returns to autocommit mode).
//! Statements outside an explicit transaction are an implicit
//! begin+statement+commit, so autocommit writers participate in the same
//! conflict protocol.
//!
//! On top of PR 9's incremental vacuum this module adds the
//! server-resident governance layer:
//!
//! - a **maintenance daemon** thread owned by the [`Server`]: it runs
//!   incremental vacuum passes on an adaptive cadence (occupancy-driven,
//!   see `ServerGovernor::adaptive_interval`) so foreground commits no
//!   longer pay the inline sweep. Daemon panics are contained per pass
//!   and the loop restarts (`DAEMON_RESTARTS` in `V$SERVER`);
//! - **backpressure**: when MVCC chain occupancy crosses the high-water
//!   mark, new DML briefly yields at [`Session::backpressure_gate`]
//!   (bounded rounds; with a zero `yield_wait` every round self-drains
//!   deterministically) until the low-water mark releases the gate;
//! - **statement deadlines**: `SET STATEMENT_TIMEOUT` (wall ms) / `SET
//!   STATEMENT_TIMEOUT_TICKS` (deterministic poll count) arm a
//!   per-statement guard polled by executor loops and charged alongside
//!   the sandbox tick budget at ODCI crossings; expiry surfaces as
//!   `Error::StatementTimeout` after normal statement rollback;
//! - **transparent conflict retry**: an autocommit statement losing
//!   first-writer-wins is re-run server-side on a fresh snapshot with
//!   seeded, jittered backoff; explicit transactions still surface the
//!   conflict to the client.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extidx_common::{Error, Result, Row, Value};
use extidx_core::events::DbEvent;
use extidx_core::governor as stmt_governor;
use extidx_core::governor::CancelToken;
use extidx_storage::Snapshot;
use parking_lot::{Mutex, RwLock};

use crate::ast::{bind_statement, Select, Statement};
use crate::database::{Database, StmtResult};
use crate::exec_ctx::run_select_shared;
use crate::governor::{GovernorConfig, JitterRng, ServerGovernor};
use crate::parser::parse;

/// A shared database server: the constructor of [`Session`]s and the
/// owner of the maintenance daemon.
#[derive(Clone)]
pub struct Server {
    db: Arc<RwLock<Database>>,
    governor: Arc<ServerGovernor>,
    daemon: Option<Arc<DaemonHandle>>,
}

// The whole point: a `Server` (and its `Database`) crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
};

impl Server {
    /// Wrap an engine (typically already loaded with schema/cartridges)
    /// for shared multi-session access, with the default governor
    /// configuration (maintenance daemon on).
    pub fn new(db: Database) -> Self {
        Self::with_config(db, GovernorConfig::default())
    }

    /// Wrap an engine with an explicit governor configuration. With
    /// `config.daemon == false` vacuum stays inline on commit/rollback
    /// (PR 9 behaviour); otherwise the daemon thread owns the cadence.
    pub fn with_config(mut db: Database, config: GovernorConfig) -> Self {
        let daemon_wanted = config.daemon;
        let governor = Arc::new(ServerGovernor::new(config));
        db.set_governor(Arc::clone(&governor));
        db.refresh_backpressure();
        let db = Arc::new(RwLock::new(db));
        let daemon = daemon_wanted.then(|| spawn_daemon(&db, &governor));
        Server { db, governor, daemon }
    }

    /// The shared governor blackboard (counters, watermarks, config).
    pub fn governor(&self) -> Arc<ServerGovernor> {
        Arc::clone(&self.governor)
    }

    /// Open a new session. Sessions are independent: each owns its
    /// transaction state and can run on its own thread.
    pub fn session(&self) -> Session {
        let cfg = self.governor.config();
        // Per-session jitter seed: deterministic in the session-creation
        // order, distinct across sessions (`SET RETRY_SEED` overrides).
        let seed = 0x0DC1_5EED ^ SESSION_SEQ.fetch_add(1, Ordering::Relaxed);
        Session {
            db: Arc::clone(&self.db),
            governor: Arc::clone(&self.governor),
            txn: None,
            token: CancelToken::new(),
            timeout: None,
            poll_limit: None,
            retry_max: cfg.retry_max,
            retry_backoff: cfg.retry_backoff,
            jitter: JitterRng::new(seed),
            seed,
        }
    }

    /// Run `f` with exclusive access to the engine — setup, ablation
    /// toggles, assertions. Not a statement path.
    pub fn admin<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.db.write())
    }

    /// Run `f` with shared access to the engine (metrics, catalog reads).
    pub fn read<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.db.read())
    }

    /// Tear the server down and reclaim the engine. Fails (returning the
    /// still-shared server) if sessions or clones are alive.
    ///
    /// Ordering matters: the daemon thread holds its own `Arc` on the
    /// engine, so it must be stopped (and joined) *before* the engine
    /// `Arc` can unwrap — and if live sessions then block the unwrap, the
    /// daemon is restarted so the surviving server keeps its maintenance
    /// cadence instead of silently regressing to inline vacuum.
    pub fn into_inner(mut self) -> std::result::Result<Database, Server> {
        let governor = Arc::clone(&self.governor);
        if let Some(d) = self.daemon.take() {
            match Arc::try_unwrap(d) {
                // Last daemon handle: stopping it joins the thread and
                // releases the daemon's engine Arc.
                Ok(handle) => drop(handle),
                Err(shared) => {
                    // Other Server clones are alive — teardown impossible.
                    return Err(Server { db: self.db, governor, daemon: Some(shared) });
                }
            }
        }
        match Arc::try_unwrap(self.db) {
            Ok(lock) => Ok(lock.into_inner()),
            Err(db) => {
                let daemon = governor.config().daemon.then(|| spawn_daemon(&db, &governor));
                Err(Server { db, governor, daemon })
            }
        }
    }
}

static SESSION_SEQ: AtomicU64 = AtomicU64::new(1);

/// Owner of the maintenance daemon thread; shared by every clone of one
/// [`Server`]. Dropping the last handle requests shutdown and joins.
struct DaemonHandle {
    governor: Arc<ServerGovernor>,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.governor.request_shutdown();
        if let Some(j) = self.join.lock().take() {
            let _ = j.join();
        }
        // Sessions still holding the engine fall back to inline vacuum.
        self.governor.set_daemon_running(false);
    }
}

fn spawn_daemon(db: &Arc<RwLock<Database>>, governor: &Arc<ServerGovernor>) -> Arc<DaemonHandle> {
    governor.reset_shutdown();
    governor.set_daemon_running(true);
    let db = Arc::clone(db);
    let g = Arc::clone(governor);
    let join = std::thread::Builder::new()
        .name("extidx-maintenance".into())
        .spawn(move || daemon_main(db, g))
        .expect("spawn maintenance daemon");
    Arc::new(DaemonHandle { governor: Arc::clone(governor), join: Mutex::new(Some(join)) })
}

/// The daemon loop: adaptive sleep, then one maintenance pass (orphan
/// aborts + incremental vacuum) under the write lock. Each pass runs
/// inside the cartridge sandbox, so an injected panic at the
/// `daemon.vacuum` fault point is contained exactly like a cartridge
/// bug — the loop counts a restart and continues; the engine lock is
/// never poisoned (the `parking_lot` shim recovers poisoned `std` locks).
fn daemon_main(db: Arc<RwLock<Database>>, g: Arc<ServerGovernor>) {
    while !g.shutdown_requested() {
        g.daemon_wait(g.adaptive_interval());
        if g.shutdown_requested() {
            break;
        }
        let pass = catch_unwind(AssertUnwindSafe(|| db.write().daemon_pass()));
        match pass {
            Ok(Ok(())) => g.bump(&g.counters.daemon_passes),
            // An injected (non-panic) fault aborted the pass before it
            // touched anything; the next interval retries.
            Ok(Err(_)) => g.bump(&g.counters.daemon_faults),
            // Contained panic: the pass died, the daemon did not.
            Err(_) => g.bump(&g.counters.daemon_restarts),
        }
    }
}

/// One database connection. `Send` — hand sessions to worker threads —
/// but driven by one thread at a time.
pub struct Session {
    db: Arc<RwLock<Database>>,
    governor: Arc<ServerGovernor>,
    /// The open explicit transaction, as the snapshot every statement
    /// reads under. Its undo lives with the transaction in storage.
    txn: Option<Snapshot>,
    /// Cancellation flag for the in-flight statement; clone it out via
    /// [`Session::cancel_token`] and trip it from any thread.
    token: CancelToken,
    /// `SET STATEMENT_TIMEOUT` (wall-clock), `None` = unlimited.
    timeout: Option<Duration>,
    /// `SET STATEMENT_TIMEOUT_TICKS` (deterministic poll count).
    poll_limit: Option<u64>,
    /// `SET CONFLICT_RETRIES` — transparent autocommit retry budget.
    retry_max: u32,
    retry_backoff: Duration,
    jitter: JitterRng,
    seed: u64,
}

impl Session {
    /// Whether an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The open transaction's snapshot (None in autocommit mode).
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.txn
    }

    /// A handle other threads can use to cancel this session's running
    /// statement (observed at its next cooperative poll).
    pub fn cancel_token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<StmtResult> {
        self.execute_with(sql, &[])
    }

    /// Convenience: run a query and return just the rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        match self.execute(sql)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => Err(Error::Semantic("statement did not produce rows".into())),
        }
    }

    /// Execute one statement with `?` binds.
    pub fn execute_with(&mut self, sql: &str, binds: &[Value]) -> Result<StmtResult> {
        let mut stmt = parse(sql)?;
        bind_statement(&mut stmt, binds)?;
        let result = match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            // Maintenance command: no transaction of its own. Open
            // snapshots (including this session's) hold the horizon back,
            // so an explicit VACUUM mid-transaction is always safe.
            Statement::Vacuum => {
                self.db.write().vacuum();
                Ok(StmtResult::Ok)
            }
            Statement::Set { name, value } => self.set_param(&name, value),
            Statement::Show { name } => self.show_param(&name),
            Statement::Select(s) => self.run_select(sql, &s),
            other => self.write_statement(sql, other),
        };
        if let Err(e @ Error::StatementTimeout { .. }) = &result {
            // Central deadline accounting: `V$SERVER` counter + a
            // TXN/Timeout row in `V$TRACE`, once per timed-out statement.
            self.db.read().trace_timeout(e);
        }
        result
    }

    // ---- session parameters ------------------------------------------------

    fn set_param(&mut self, name: &str, value: i64) -> Result<StmtResult> {
        let nonneg = |v: i64| -> Result<u64> {
            u64::try_from(v)
                .map_err(|_| Error::Semantic(format!("{name} must be non-negative, got {v}")))
        };
        match name {
            // Milliseconds; 0 disables.
            "STATEMENT_TIMEOUT" => {
                let v = nonneg(value)?;
                self.timeout = (v > 0).then(|| Duration::from_millis(v));
            }
            // Deterministic poll-count deadline; 0 disables.
            "STATEMENT_TIMEOUT_TICKS" => {
                let v = nonneg(value)?;
                self.poll_limit = (v > 0).then_some(v);
            }
            "CONFLICT_RETRIES" => {
                self.retry_max = u32::try_from(nonneg(value)?).unwrap_or(u32::MAX);
            }
            "RETRY_SEED" => {
                self.seed = value as u64;
                self.jitter = JitterRng::new(value as u64);
            }
            _ => {
                return Err(Error::Unsupported(format!("unknown session parameter {name}")));
            }
        }
        Ok(StmtResult::Ok)
    }

    fn show_param(&self, name: &str) -> Result<StmtResult> {
        let value: i64 = match name {
            "STATEMENT_TIMEOUT" => self.timeout.map(|d| d.as_millis() as i64).unwrap_or(0),
            "STATEMENT_TIMEOUT_TICKS" => self.poll_limit.map(|v| v as i64).unwrap_or(0),
            "CONFLICT_RETRIES" => i64::from(self.retry_max),
            "RETRY_SEED" => self.seed as i64,
            _ => {
                return Err(Error::Unsupported(format!("unknown session parameter {name}")));
            }
        };
        Ok(StmtResult::Rows {
            columns: vec!["NAME".into(), "VALUE".into()],
            rows: vec![vec![Value::from(name.to_string()), Value::Integer(value)]],
        })
    }

    /// Install the per-statement cancellation guard. Each statement
    /// starts with a cleared token (a cancel only ever targets the
    /// statement in flight, not a future one).
    fn stmt_guard(&self) -> stmt_governor::StmtGuard {
        self.token.reset();
        stmt_governor::begin_statement(self.token.clone(), self.timeout, self.poll_limit)
    }

    // ---- statement lanes ---------------------------------------------------

    fn run_select(&mut self, sql: &str, s: &Select) -> Result<StmtResult> {
        let _guard = self.stmt_guard();
        // Read lane: shared lock, snapshot-pinned, no mutation.
        let started = Instant::now();
        let db = self.db.read();
        let snap = self.txn.unwrap_or_else(Snapshot::latest);
        let before = db.cache_stats();
        let result = run_select_shared(&db, snap, s)
            .map(|(columns, rows)| StmtResult::Rows { columns, rows });
        db.record_statement(sql, started, &before, &result);
        result
    }

    /// Open an explicit transaction: reserve a txn id and pin the
    /// snapshot every subsequent statement reads under.
    fn begin(&mut self) -> Result<StmtResult> {
        let txns = self.db.read().storage().txn_manager();
        if self.txn.is_some_and(|snap| txns.is_active(snap.txn)) {
            return Err(Error::Transaction("a transaction is already active".into()));
        }
        self.txn = Some(txns.begin());
        Ok(StmtResult::Ok)
    }

    /// Commit the open transaction: first-writer-wins validation, then
    /// the commit marker (in csn order) and version GC. On a write-write
    /// conflict the transaction is rolled back automatically and the
    /// conflict error surfaces — the session drops back to autocommit.
    /// Explicit transactions are **never** transparently retried: the
    /// client saw intermediate state, so only it can decide to re-run.
    fn commit(&mut self) -> Result<StmtResult> {
        let mut db = self.db.write();
        match self.txn.take() {
            Some(snap) => db.session_commit(snap)?,
            // COMMIT with nothing open mirrors the legacy arm: fire the
            // event, succeed.
            None => db.fire_event_unscoped(DbEvent::Commit)?,
        }
        Ok(StmtResult::Ok)
    }

    /// Roll back the open transaction (no-op + event when none is open,
    /// mirroring the legacy arm).
    fn rollback(&mut self) -> Result<StmtResult> {
        let mut db = self.db.write();
        match self.txn.take() {
            Some(snap) => db.session_abort(snap)?,
            None => db.fire_event_unscoped(DbEvent::Rollback)?,
        }
        Ok(StmtResult::Ok)
    }

    /// Write lane: DML/DDL under the exclusive lock. Inside an explicit
    /// transaction the statement joins it; otherwise the statement is an
    /// implicit begin+statement+commit so autocommit writers take part in
    /// the same first-writer-wins protocol (with transparent retry).
    fn write_statement(&mut self, sql: &str, stmt: Statement) -> Result<StmtResult> {
        let _guard = self.stmt_guard();
        // The client statement, for `V$SQLSTATS`: whichever attempt ends
        // it records it, under the write lock that attempt holds anyway.
        let client = (sql, Instant::now());
        // The gate runs *before* the write lock is taken: a yielding
        // statement must not block the daemon (or other sessions) out of
        // the very lock the drain needs.
        self.backpressure_gate()?;
        match self.txn {
            Some(snap) => self.txn_statement(client, stmt, snap),
            None => self.autocommit_statement(client, stmt),
        }
    }

    fn txn_statement(
        &mut self,
        (sql, started): (&str, Instant),
        stmt: Statement,
        snap: Snapshot,
    ) -> Result<StmtResult> {
        let mut db = self.db.write();
        let before = db.cache_stats();
        // A failed statement already rolled its own effects back
        // inside `run_top`; the transaction stays open either way.
        let result = db.session_statement(stmt, snap);
        if let Err(e) = &result {
            db.trace_conflict(e);
        }
        db.record_statement(sql, started, &before, &result);
        result
    }

    /// Autocommit with transparent conflict retry: a statement losing
    /// first-writer-wins validation is re-run on a fresh snapshot up to
    /// `retry_max` times with seeded jittered backoff. Every other error
    /// (including a statement timeout) surfaces immediately.
    fn autocommit_statement(
        &mut self,
        client: (&str, Instant),
        stmt: Statement,
    ) -> Result<StmtResult> {
        let mut attempt: u32 = 0;
        loop {
            match self.autocommit_once(client, stmt.clone()) {
                Err(e @ Error::WriteConflict { .. }) => {
                    if attempt >= self.retry_max {
                        if self.retry_max > 0 {
                            self.governor
                                .bump(&self.governor.counters.conflict_retry_exhausted);
                        }
                        return Err(e);
                    }
                    attempt += 1;
                    self.governor.bump(&self.governor.counters.conflict_retries);
                    // The commit point disarmed the deadline; the retry
                    // re-runs the statement, so the deadline applies again.
                    stmt_governor::rearm();
                    stmt_governor::poll()?;
                    self.retry_sleep(attempt);
                }
                Ok(r) => {
                    if attempt > 0 {
                        self.governor.bump(&self.governor.counters.conflict_retry_successes);
                    }
                    return Ok(r);
                }
                other => return other,
            }
        }
    }

    fn autocommit_once(
        &mut self,
        (sql, started): (&str, Instant),
        stmt: Statement,
    ) -> Result<StmtResult> {
        let mut db = self.db.write();
        // Adopt any transactions orphaned by dropped sessions while we
        // hold the lock anyway (keeps the vacuum horizon moving even if
        // the daemon is off).
        db.drain_orphans();
        let before = db.cache_stats();
        let snap = db.storage().txn_manager().begin();
        let result = match db.session_statement(stmt, snap) {
            Ok(result) => {
                // The statement's work is done — from here the commit
                // must not be interrupted by its deadline (half-committed
                // is strictly worse than late).
                stmt_governor::disarm();
                db.session_commit(snap).map(|()| result)
            }
            Err(e) => {
                // Statement-level rollback (and its Rollback event) ran in
                // `run_top`; just retire the implicit transaction.
                db.trace_conflict(&e);
                db.session_discard(snap);
                Err(e)
            }
        };
        db.record_statement(sql, started, &before, &result);
        result
    }

    /// The backpressure gate. When chain occupancy sits above the
    /// high-water mark this briefly parks new DML (bounded rounds — the
    /// gate must never wedge a client): each round either waits
    /// `yield_wait` for the daemon to drain, or — with a zero wait (the
    /// deterministic test clock) or as the final round's last resort —
    /// vacuums in the foreground itself. A statement deadline keeps
    /// ticking while gated.
    fn backpressure_gate(&mut self) -> Result<()> {
        if self.governor.has_orphans() {
            self.db.write().drain_orphans();
        }
        if !self.governor.backpressure_engaged() {
            return Ok(());
        }
        let cfg = self.governor.config();
        let mut rounds = 0u32;
        while self.governor.backpressure_engaged() && rounds < cfg.max_yield_rounds {
            stmt_governor::poll()?;
            rounds += 1;
            self.governor.bump(&self.governor.counters.backpressure_waits);
            if cfg.yield_wait.is_zero() || rounds == cfg.max_yield_rounds {
                // Deterministic clock, or the daemon didn't make it in
                // time: drain in the foreground (armed with its own
                // `governor.backpressure` fault point).
                self.db.write().backpressure_drain()?;
                self.governor.bump(&self.governor.counters.backpressure_self_drains);
            } else {
                self.governor.wake_daemon();
                self.governor.gate_wait(cfg.yield_wait);
            }
        }
        // Still engaged after the bounded rounds (e.g. versions pinned by
        // long snapshots): proceed anyway — overload protection degrades
        // to best-effort, never to a hang.
        Ok(())
    }

    fn retry_sleep(&mut self, attempt: u32) {
        if self.retry_backoff.is_zero() {
            return;
        }
        // Exponential base with ±50% seeded jitter, so colliding sessions
        // decorrelate deterministically under a fixed seed.
        let shift = attempt.saturating_sub(1).min(10);
        let base = self.retry_backoff.saturating_mul(1 << shift);
        let pct = 50 + (self.jitter.next() % 101); // 50..=150
        std::thread::sleep(base.mul_f64(pct as f64 / 100.0));
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An abandoned open transaction must not pin versions or leave
        // uncommitted in-place images behind: roll it back. Never block
        // on the engine lock here — the holder may be this very thread
        // (a statement that panicked mid-write) or a wedged peer; park
        // the transaction with the governor instead, and the daemon (or
        // the next write statement) aborts it under the lock.
        if let Some(snap) = self.txn.take() {
            match self.db.try_write() {
                Some(mut db) => {
                    let _ = db.session_abort(snap);
                }
                None => self.governor.park_orphan(snap),
            }
        }
    }
}
