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
//!   run under the read lock on the read lane of the one `ServerContext`
//!   (`exec_ctx::ServerCtx`), which refuses every mutating callback, so a
//!   cartridge can never mutate shared state from a reader.
//! - Everything else (DML, DDL, transaction control) takes the **write
//!   lock** for the duration of the statement. That exclusivity is what
//!   serializes ODCIIndex maintenance and the file images: a
//!   cartridge never observes a torn statement, and crash recovery's
//!   commit markers are appended in commit order because csn assignment
//!   and the marker append happen under one exclusive hold.
//!
//! Isolation level is **snapshot isolation** with first-writer-wins,
//! decided when a write happens: a statement writing a row that another
//! open transaction wrote, or that a transaction committed after the
//! writer's snapshot, fails with a conflict error (the statement rolls
//! back; an explicit transaction stays open for the client to end).
//! `COMMIT` has nothing left to check and cannot lose. A statement outside
//! an explicit transaction is an autocommit unit, run by the one function
//! the `Database` lane's own client uses too (`Database::autocommit`): an
//! ordinary registered transaction while another transaction is active,
//! so it takes part in the same conflict protocol, and otherwise an
//! unversioned write no one can observe (DESIGN.md §4j "Who versions").
//!
//! Around that, this module adds the server-resident governance layer
//! (DESIGN.md §4l):
//!
//! - **maintenance where transactions end**: COMMIT, ROLLBACK and every
//!   autocommit statement end their transaction under the write lock they
//!   already hold, and run the §4k vacuum pass there
//!   (`Database::maintenance_after_txn_end`). A commit that leaves the
//!   horizon where the last pass left it skips the pass in O(1). With a
//!   durable medium attached, the same place folds the WAL once it holds
//!   `WAL_FOLD_RECORDS` records (DESIGN.md §4i), so a server that never
//!   checkpoints keeps a bounded WAL. No thread runs beside the sessions;
//! - **orphans**: a [`Session`] dropped mid-transaction while the lock is
//!   contended parks its transaction with the governor, and every write
//!   lock taken here (statements, COMMIT, ROLLBACK, [`Server::admin`],
//!   [`Server::into_inner`]) aborts what is parked before anything else;
//! - **statement deadlines**: `SET STATEMENT_TIMEOUT` (wall ms) / `SET
//!   STATEMENT_TIMEOUT_TICKS` (deterministic poll count) arm a
//!   per-statement guard polled by executor loops and charged alongside
//!   the sandbox tick budget at ODCI crossings; expiry surfaces as
//!   `Error::StatementTimeout` after normal statement rollback;
//! - **transparent conflict retry**: an autocommit statement losing
//!   first-writer-wins is re-run server-side on a fresh snapshot with
//!   seeded, jittered backoff; explicit transactions still surface the
//!   conflict to the client.

use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extidx_common::{Error, Result, Row, Value};
use extidx_core::events::DbEvent;
use extidx_core::governor as stmt_governor;
use extidx_core::governor::CancelToken;
use extidx_storage::Snapshot;
use parking_lot::RwLock;

use crate::ast::{Select, Statement};
use crate::database::{Database, StmtResult};
use crate::exec_ctx::run_select;
use crate::governor::{JitterRng, ServerGovernor, RETRY_BACKOFF, RETRY_MAX};
use crate::stmt_cache::Prepared;

/// A shared database server: the constructor of [`Session`]s.
#[derive(Clone)]
pub struct Server {
    db: Arc<RwLock<Database>>,
    governor: Arc<ServerGovernor>,
}

// The whole point: a `Server` (and its `Database`) crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
};

/// Exclusive access to the engine, as every write-lock holder in this
/// module takes it: first abort each transaction that a session, dropped
/// while the lock was contended, parked with the governor.
fn exclusive<D: DerefMut<Target = Database>>(mut db: D) -> D {
    db.drain_orphans();
    db
}

impl Server {
    /// Wrap an engine (typically already loaded with schema/cartridges)
    /// for shared multi-session access.
    pub fn new(db: Database) -> Self {
        let governor = db.governor();
        Server { db: Arc::new(RwLock::new(db)), governor }
    }

    /// The shared governor blackboard (`V$SERVER` counters, occupancy).
    pub fn governor(&self) -> Arc<ServerGovernor> {
        Arc::clone(&self.governor)
    }

    /// Open a new session. Sessions are independent: each owns its
    /// transaction state and can run on its own thread.
    pub fn session(&self) -> Session {
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
            retry_max: RETRY_MAX,
            jitter: JitterRng::new(seed),
            seed,
        }
    }

    /// Run `f` with exclusive access to the engine — setup, ablation
    /// toggles, assertions. Not a statement path.
    pub fn admin<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        let mut db = exclusive(self.db.write());
        let out = f(&mut db);
        // `f` may itself have dropped a session mid-transaction, which
        // parked on this very lock: abort it before the lock is released.
        db.drain_orphans();
        out
    }

    /// Run `f` with shared access to the engine (metrics, catalog reads).
    pub fn read<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.db.read())
    }

    /// Tear the server down and reclaim the engine, with every orphaned
    /// transaction aborted. Fails (returning the still-shared server) if
    /// sessions or clones are alive.
    pub fn into_inner(self) -> std::result::Result<Database, Server> {
        match Arc::try_unwrap(self.db) {
            Ok(lock) => {
                let mut db = lock.into_inner();
                exclusive(&mut db);
                Ok(db)
            }
            Err(db) => Err(Server { db, governor: self.governor }),
        }
    }
}

static SESSION_SEQ: AtomicU64 = AtomicU64::new(1);

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

    /// Execute one statement with `?` binds. The server's statement cache
    /// parses and plans each text once for every session.
    pub fn execute_with(&mut self, sql: &str, binds: &[Value]) -> Result<StmtResult> {
        let p = self.db.read().prepare(sql)?;
        let result = match p.statement(binds)? {
            // The snapshot is taken under the read lock, so never while an
            // autocommit unit holds the write lock (`Database::begin_txn`).
            Statement::Begin => {
                self.txn = Some(self.db.read().begin_txn(self.txn)?);
                Ok(StmtResult::Ok)
            }
            Statement::Commit => self.end(DbEvent::Commit),
            Statement::Rollback => self.end(DbEvent::Rollback),
            // Maintenance command: no transaction of its own. Open
            // snapshots (including this session's) hold the horizon back,
            // so an explicit VACUUM mid-transaction is always safe.
            Statement::Vacuum => {
                exclusive(self.db.write()).vacuum();
                Ok(StmtResult::Ok)
            }
            Statement::Set { name, value } => self.set_param(name, *value),
            Statement::Show { name } => self.show_param(name),
            Statement::Select(s) => self.run_select(sql, &p, s, binds),
            _ => self.write_statement(sql, &p, binds),
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

    fn run_select(
        &mut self,
        sql: &str,
        p: &Prepared,
        s: &Select,
        binds: &[Value],
    ) -> Result<StmtResult> {
        let _guard = self.stmt_guard();
        // Read lane: shared lock, snapshot-pinned, no mutation.
        let started = Instant::now();
        let db = self.db.read();
        let snap = self.txn.unwrap_or_else(Snapshot::latest);
        let before = db.cache_stats();
        let result = run_select(&db, snap, p, s, binds)
            .map(|(plan, rows)| StmtResult::Rows { columns: plan.column_names.clone(), rows });
        db.record_statement(sql, started, &before, &result);
        result
    }

    /// `COMMIT` or `ROLLBACK` (`event` says which). Explicit transactions
    /// are **never** transparently retried: the client saw intermediate
    /// state, so only it can decide to re-run.
    fn end(&mut self, event: DbEvent) -> Result<StmtResult> {
        let mut db = exclusive(self.db.write());
        db.end_txn(self.txn.take(), event).map(|()| StmtResult::Ok)
    }

    /// Write lane: DML/DDL under the exclusive lock. Inside an explicit
    /// transaction the statement joins it. Otherwise it is one autocommit
    /// unit, re-run on a fresh snapshot when it loses first-writer-wins,
    /// up to `retry_max` times with seeded jittered backoff. Every other
    /// error (including a statement timeout) surfaces immediately.
    fn write_statement(&mut self, sql: &str, p: &Prepared, binds: &[Value]) -> Result<StmtResult> {
        let _guard = self.stmt_guard();
        let (txn, started) = (self.txn, Instant::now());
        let mut attempt: u32 = 0;
        loop {
            // The client statement, for `V$SQLSTATS`: whichever attempt
            // ends it records it, under the write lock it holds anyway.
            let result = {
                let mut db = exclusive(self.db.write());
                let before = db.cache_stats();
                let result = match txn {
                    Some(snap) => db.session_statement(p, binds, snap),
                    None => db.autocommit(p, binds),
                };
                db.record_statement(sql, started, &before, &result);
                result
            };
            match result {
                Err(e @ Error::WriteConflict { .. }) if txn.is_none() => {
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

    fn retry_sleep(&mut self, attempt: u32) {
        // Exponential base with ±50% seeded jitter, so colliding sessions
        // decorrelate deterministically under a fixed seed.
        let shift = attempt.saturating_sub(1).min(10);
        let base = RETRY_BACKOFF.saturating_mul(1 << shift);
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
        // the transaction with the governor instead, and the next write
        // lock holder aborts it.
        if let Some(snap) = self.txn.take() {
            match self.db.try_write() {
                Some(db) => {
                    let _ = exclusive(db).session_abort(snap);
                }
                None => self.governor.park_orphan(snap),
            }
        }
    }
}
