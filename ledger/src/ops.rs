//! What a ledger client sends and what it gets back.
//!
//! The engine sees only generated SQL text. A workload is a stream of
//! [`Op`]s; [`run_op`] drives one against a [`Client`] (a bare
//! [`Database`] or a [`Session`] on a [`Server`]), checks the answer
//! against the expectation the generator attached, and feeds a
//! [`Recorder`] with per-statement latencies.

use std::time::{Duration, Instant};

use extidx_common::{Error, Result, Value};
use extidx_sql::{Database, Server, Session};

/// Statement class. BEGIN/COMMIT/ROLLBACK count as writes; a checkpoint
/// is a statement the client waits for, but kept apart so write
/// latencies compare between WAL on and off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Checkpoint,
}

/// The expected answer of a query: row count and the integer sum of the
/// first output column (a cheap order-independent checksum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub rows: u64,
    pub sum0: i64,
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A SELECT. With `cursor` it is driven through
    /// `open_query`/`next_row` and the first row is timed (the paper's
    /// pipelining claim); otherwise through `query` (the batch path).
    Query { sql: String, cursor: bool, expect: Option<Expect> },
    /// One autocommit DML statement; `affected` is the row count it must
    /// report. Re-run like a transaction if it surfaces a conflict.
    Dml { sql: String, affected: u64 },
    /// `BEGIN; …; COMMIT` as one operation. The client re-runs the whole
    /// transaction after a write-write conflict, as a snapshot-isolation
    /// client must.
    Txn { stmts: Vec<(String, u64)> },
    /// `Database::checkpoint()` — an admin call the client waits for.
    Checkpoint,
    /// Empty the buffer cache. A harness action, not a statement.
    ColdStart,
}

impl Op {
    /// Every SQL text this op sends (for the determinism check and the
    /// parser/optimizer probes).
    pub fn sql_texts(&self) -> Vec<&str> {
        match self {
            Op::Query { sql, .. } | Op::Dml { sql, .. } => vec![sql],
            Op::Txn { stmts } => {
                let mut v = vec!["BEGIN"];
                v.extend(stmts.iter().map(|(s, _)| s.as_str()));
                v.push("COMMIT");
                v
            }
            Op::Checkpoint | Op::ColdStart => vec![],
        }
    }
}

/// Result of a query as the ledger sees it.
pub struct QueryOutcome {
    pub rows: u64,
    pub sum0: i64,
    pub first_row: Option<Duration>,
}

/// The two ways the ledger talks to the engine.
pub trait Client {
    fn query(&mut self, sql: &str, cursor: bool) -> Result<QueryOutcome>;
    /// Run a non-query statement; returns the affected-row count.
    fn exec(&mut self, sql: &str) -> Result<u64>;
    fn checkpoint(&mut self) -> Result<()>;
    fn cold_start(&mut self);
}

fn first_col_sum(rows: &[Vec<Value>]) -> i64 {
    rows.iter().map(|r| r.first().and_then(|v| v.as_integer().ok()).unwrap_or(0)).fold(0i64, i64::wrapping_add)
}

impl Client for Database {
    fn query(&mut self, sql: &str, cursor: bool) -> Result<QueryOutcome> {
        if !cursor {
            let rows = Database::query(self, sql)?;
            return Ok(QueryOutcome { rows: rows.len() as u64, sum0: first_col_sum(&rows), first_row: None });
        }
        let started = Instant::now();
        let mut cur = self.open_query(sql)?;
        let (mut rows, mut sum0, mut first_row) = (0u64, 0i64, None);
        while let Some(row) = cur.next_row()? {
            if rows == 0 {
                first_row = Some(started.elapsed());
            }
            rows += 1;
            sum0 = sum0.wrapping_add(row.first().and_then(|v| v.as_integer().ok()).unwrap_or(0));
        }
        Ok(QueryOutcome { rows, sum0, first_row })
    }

    fn exec(&mut self, sql: &str) -> Result<u64> {
        Ok(self.execute(sql)?.affected())
    }

    fn checkpoint(&mut self) -> Result<()> {
        // The WAL-off twin of a write fixture keeps the same stream.
        if self.storage().wal_medium().is_none() {
            return Ok(());
        }
        Database::checkpoint(self)
    }

    fn cold_start(&mut self) {
        Database::cold_start(self);
    }
}

/// A session plus its server (admin calls go through the server).
pub struct SessionClient<'a> {
    pub server: &'a Server,
    pub session: Session,
}

impl Client for SessionClient<'_> {
    fn query(&mut self, sql: &str, _cursor: bool) -> Result<QueryOutcome> {
        let rows = self.session.query(sql)?;
        Ok(QueryOutcome { rows: rows.len() as u64, sum0: first_col_sum(&rows), first_row: None })
    }

    fn exec(&mut self, sql: &str) -> Result<u64> {
        Ok(self.session.execute(sql)?.affected())
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.server.admin(|db| db.checkpoint())
    }

    fn cold_start(&mut self) {
        self.server.read(|db| db.cold_start());
    }
}

/// How often a client re-runs a transaction (explicit, or one autocommit
/// statement) that lost first-writer-wins before the operation counts as
/// failed. It backs off 1, 2, 4 … ms first, so the winner (a handful of
/// statements) has time to commit.
pub const TXN_RETRIES: u32 = 8;

/// One executed statement, as the recorder sees it.
#[derive(Debug, Clone, Copy)]
pub struct StmtSample {
    pub class: Class,
    pub micros: f64,
    pub rows: u64,
    pub first_row_micros: Option<f64>,
}

/// What one operation did.
#[derive(Debug, Default)]
pub struct OpOutcome {
    pub samples: Vec<StmtSample>,
    /// Re-runs of the whole transaction (or the one autocommit statement)
    /// after a write-write conflict.
    pub txn_retries: u32,
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

const WRONG_ANSWER: &str = "LEDGER ANSWER MISMATCH";

/// A wrong answer: the run must abort, not count a failure.
pub fn wrong_answer(what: impl Into<String>) -> Error {
    Error::Semantic(format!("{WRONG_ANSWER}: {}", what.into()))
}

/// Whether `e` is a ledger answer mismatch (abort) rather than an engine
/// error (counts toward the failure ratio).
pub fn is_wrong_answer(e: &Error) -> bool {
    matches!(e, Error::Semantic(m) if m.starts_with(WRONG_ANSWER))
}

fn timed_exec(c: &mut dyn Client, sql: &str, affected: Option<u64>, out: &mut OpOutcome) -> Result<()> {
    let t = Instant::now();
    let n = c.exec(sql)?;
    out.samples.push(StmtSample { class: Class::Write, micros: micros(t.elapsed()), rows: n, first_row_micros: None });
    match affected {
        Some(want) if want != n => Err(wrong_answer(format!("{sql}: affected {n}, expected {want}"))),
        _ => Ok(()),
    }
}

/// Run `attempt` — one transaction, explicit or a single autocommit
/// statement — until it does not lose first-writer-wins. The loser rolls
/// back at once, so the rows it already holds are free while it backs off
/// ([`TXN_RETRIES`]); sleeping first lets two transactions that each hold
/// a row the other wants starve each other through every retry. The
/// engine retries an autocommit statement by itself for ~12 ms; a
/// conflict that outlasts that (the winner's thread was descheduled)
/// reaches the client, which re-runs the statement the same way.
fn rerun_on_conflict(
    c: &mut dyn Client,
    out: &mut OpOutcome,
    explicit_txn: bool,
    mut attempt: impl FnMut(&mut dyn Client, &mut OpOutcome) -> Result<()>,
) -> Result<()> {
    loop {
        match attempt(c, out) {
            Ok(()) => return Ok(()),
            Err(e) => {
                if explicit_txn {
                    // A conflict at COMMIT already rolled the transaction
                    // back; ROLLBACK with nothing open is a no-op.
                    // Should it fail, the next BEGIN reports it.
                    let _ = timed_exec(c, "ROLLBACK", None, out);
                }
                if !matches!(e, Error::WriteConflict { .. }) || out.txn_retries == TXN_RETRIES {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(1 << out.txn_retries));
                out.txn_retries += 1;
            }
        }
    }
}

/// Run one operation. `Err` is an engine error (a failed operation) or a
/// wrong answer (see [`is_wrong_answer`]).
pub fn run_op(c: &mut dyn Client, op: &Op) -> Result<OpOutcome> {
    let mut out = OpOutcome::default();
    match op {
        Op::Query { sql, cursor, expect } => {
            let t = Instant::now();
            let q = c.query(sql, *cursor)?;
            out.samples.push(StmtSample {
                class: Class::Read,
                micros: micros(t.elapsed()),
                rows: q.rows,
                first_row_micros: q.first_row.map(micros),
            });
            if let Some(e) = expect {
                if (e.rows, e.sum0) != (q.rows, q.sum0) {
                    return Err(wrong_answer(format!(
                        "{sql}: got {} rows (sum {}), expected {} (sum {})",
                        q.rows, q.sum0, e.rows, e.sum0
                    )));
                }
            }
        }
        Op::Dml { sql, affected } => {
            rerun_on_conflict(c, &mut out, false, |c, out| timed_exec(c, sql, Some(*affected), out))?
        }
        Op::Txn { stmts } => rerun_on_conflict(c, &mut out, true, |c, out| {
            timed_exec(c, "BEGIN", None, out)?;
            for (sql, affected) in stmts {
                timed_exec(c, sql, Some(*affected), out)?;
            }
            timed_exec(c, "COMMIT", None, out)
        })?,
        Op::Checkpoint => {
            let t = Instant::now();
            c.checkpoint()?;
            out.samples.push(StmtSample {
                class: Class::Checkpoint,
                micros: micros(t.elapsed()),
                rows: 0,
                first_row_micros: None,
            });
        }
        Op::ColdStart => c.cold_start(),
    }
    Ok(out)
}
