//! The concurrent differential oracle: MVCC snapshot isolation under a
//! deterministic multi-session scheduler.
//!
//! N [`Session`]s and one client on the `Database` lane (statements sent
//! through [`Server::admin`]) share one [`Server`]; a single-threaded
//! scheduler (seeded, fully deterministic) interleaves their statements —
//! explicit `BEGIN…COMMIT/ROLLBACK` transactions, autocommit DML, and
//! domain-operator queries across every reachable plan. Both lanes obey
//! one transaction rule, so the oracles hold the `Database` client to the
//! same contract as a session. Three oracles run simultaneously:
//!
//! 1. **Per-snapshot bag equality.** Every session query is checked
//!    against a mirror of exactly what its snapshot must see: the
//!    committed state at `BEGIN` plus the session's own accepted
//!    statements (read-your-own-writes), or the current committed state
//!    in autocommit mode. The check runs the unhinted plan, `/*+ FULL */`,
//!    and every forcible `/*+ INDEX */` — so the domain-index Fetch path
//!    and the zone-pruned batch full scan must both honor the snapshot.
//! 2. **First-writer-wins outcomes.** The scheduler tracks each
//!    transaction's user-row write set and everything committed since its
//!    snapshot. A commit that *succeeds* despite overlapping a
//!    concurrently committed write is reported as a lost update, and a
//!    `COMMIT` that fails at all is a failure: conflicts are decided when
//!    a statement writes, so a commit has nothing left to lose. (Statement
//!    conflicts are deliberately one-sided: the engine may conflict more
//!    often than the user-row model predicts, because concurrent index
//!    maintenance can collide on cartridge-internal rows — e.g. two
//!    transactions extending the same text postings entry — and a
//!    spurious abort never breaks isolation.)
//! 3. **Serial twin replay.** Committed transactions' statements,
//!    concatenated in commit (csn) order, replay on a fresh
//!    single-session engine; the final per-table row bags must be
//!    identical. Restricting concurrent DML to fresh-id inserts and
//!    `id =` updates/deletes (see `WorkloadGen::update_eq`) is what makes
//!    statement-level serial replay equivalent to the SI execution — any
//!    snapshot/commit-time divergence in a statement's match set implies
//!    a write-write overlap, which first-writer-wins aborts.
//!
//! [`lost_update_demo`] plants the classic anomaly (two transactions
//! writing disjoint columns of one row from overlapping snapshots) and
//! shows the oracle catches it the moment conflict enforcement is
//! switched off.

use std::collections::HashSet;

use extidx_common::{Error, Value};
use extidx_sql::{Server, Session, StmtResult};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::gen::{IdPred, Query, Stmt, WorkloadGen, HEAP, IOT};
use crate::harness::{check_variants, fresh_db, plan_variants, with_bind_forms, ChaosOpts, Lifted};
use crate::interp::{query_rows, Mirror};

/// Counters from a clean concurrent run — returned so tests can assert
/// the schedule actually exercised commits, conflicts, and queries
/// rather than vacuously passing.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConcurrentReport {
    pub steps: usize,
    /// Explicit transactions committed.
    pub commits: usize,
    /// Statements rejected mid-transaction with a write conflict.
    pub stmt_conflicts: usize,
    /// Statements rejected for any other engine reason (no-ops).
    pub stmt_errors: usize,
    /// Queries checked against a snapshot mirror (all variants).
    pub queries: usize,
}

/// One session's open transaction, as the oracle models it.
struct TxnState {
    /// What this transaction's snapshot must see: committed state at
    /// BEGIN plus own accepted statements.
    expected: Mirror,
    /// Accepted statements, in order — the unit of serial replay.
    stmts: Vec<Stmt>,
    /// User rows written: `(table, id)`.
    writes: HashSet<(&'static str, i64)>,
    /// Commit-sequence watermark at BEGIN; commits after it are
    /// concurrent with this transaction.
    begin_seq: u64,
}

/// Where a scheduled client sends its statements.
enum Client {
    Session(Session),
    /// The `Database` lane: each statement is one `Server::admin` call,
    /// and the client's open transaction lives in the `Database`.
    Admin(Server),
}

impl Client {
    fn execute(&mut self, sql: &str) -> Result<StmtResult, Error> {
        match self {
            Client::Session(s) => s.execute(sql),
            Client::Admin(server) => server.admin(|db| db.execute(sql)),
        }
    }

    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, Error> {
        match self.execute(sql)? {
            StmtResult::Rows { rows, .. } => Ok(rows),
            _ => Err(Error::Semantic("statement did not produce rows".into())),
        }
    }
}

struct Sess {
    client: Client,
    txn: Option<TxnState>,
}

/// User rows a statement writes, evaluated against the state it executes
/// in (matched ids for UPDATE/DELETE, the fresh id for INSERT).
fn writes_of(mirror: &Mirror, stmt: &Stmt) -> Vec<(&'static str, i64)> {
    match stmt {
        Stmt::Insert { table, row } => vec![(*table, row.id)],
        Stmt::Update { table, pred, .. } | Stmt::Delete { table, pred } => mirror
            .table(table)
            .keys()
            .filter(|id| pred.matches(**id))
            .map(|id| (*table, *id))
            .collect(),
        _ => Vec::new(),
    }
}

fn is_conflict(e: &Error) -> bool {
    matches!(e, Error::WriteConflict { .. })
}

fn ids_of(rows: &[Vec<Value>]) -> Result<Vec<i64>, String> {
    rows.iter()
        .map(|r| match r.first() {
            Some(Value::Integer(i)) => Ok(*i),
            other => Err(format!("expected integer id column, got {other:?}")),
        })
        .collect()
}

/// Run one query through the unhinted plan, the forced full scan, and
/// every forcible index, comparing each against the snapshot mirror.
fn check_snapshot_query(
    server: &Server,
    sess: &mut Client,
    q: &Query,
    expected_mirror: &Mirror,
    report: &mut ConcurrentReport,
) -> Result<(), String> {
    let variants = server.read(|db| plan_variants(db, q, false));
    let variants = with_bind_forms(variants, ChaosOpts::default());
    report.queries += variants.len();
    let run = |v: &Lifted| Ok(sess.query(&v.sql));
    check_variants(q, &query_rows(q, expected_mirror), &variants, run)
        .map_err(|detail| format!("a variant violates the snapshot: {detail}"))
}

/// `SELECT * FROM t` as a sorted bag of row renderings (engine-vs-engine
/// comparison; both sides render `Value` identically).
fn table_bag_rows(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut bag: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    bag.sort();
    bag
}

/// Pick a random live id of `table` from a mirror, if any.
fn pick_id(rng: &mut StdRng, mirror: &Mirror, table: &'static str) -> Option<i64> {
    let ids: Vec<i64> = mirror.table(table).keys().copied().collect();
    if ids.is_empty() {
        return None;
    }
    Some(ids[rng.gen_range(0..ids.len())])
}

/// Drive `sessions` sessions plus one `Database`-lane client for `steps`
/// scheduler steps and check every oracle. `Ok(report)` when every
/// snapshot read, conflict outcome, and the final serial-twin comparison
/// agree; `Err(detail)` on the first divergence.
pub fn run_concurrent_seed(
    seed: u64,
    sessions: usize,
    steps: usize,
) -> Result<ConcurrentReport, String> {
    run_concurrent_seed_opts(seed, sessions, steps, ChaosOpts::default())
}

/// [`run_concurrent_seed`] with chaos switches. `chaos.random_vacuum`
/// moves the between-step incremental vacuum from the fixed every-3rd
/// step onto a seeded random cadence — same expected frequency, wildly
/// different interleavings against open snapshots.
pub fn run_concurrent_seed_opts(
    seed: u64,
    sessions: usize,
    steps: usize,
    chaos: ChaosOpts,
) -> Result<ConcurrentReport, String> {
    assert!(sessions >= 2, "a concurrent run needs at least two sessions");
    let server = Server::new(fresh_db());
    let mut gen = WorkloadGen::new(seed, false);
    let preamble = gen.preamble();
    {
        let mut s0 = server.session();
        for sql in &preamble {
            s0.execute(sql).map_err(|e| format!("preamble failed: {sql}: {e}"))?;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0CC);
    // Dedicated cadence rng so flipping `random_vacuum` never perturbs
    // the statement schedule itself — only *when* vacuum runs changes.
    let mut vac_rng = StdRng::seed_from_u64(seed ^ chaos.random_vacuum ^ 0xDAE_0ACC);
    // The last client is the `Database` lane's: autocommit DML and
    // queries, and now and then a BEGIN … COMMIT of its own.
    let mut sess: Vec<Sess> = (0..sessions)
        .map(|_| Client::Session(server.session()))
        .chain([Client::Admin(server.clone())])
        .map(|client| Sess { client, txn: None })
        .collect();
    let mut report = ConcurrentReport::default();

    // Committed state, as the oracle knows it.
    let mut committed = Mirror::default();
    // Committed transactions' statements, concatenated in commit order.
    let mut committed_log: Vec<Stmt> = Vec::new();
    // (commit sequence, user-row write set) per commit, for the
    // first-writer-wins expectation.
    let mut committed_writes: Vec<(u64, HashSet<(&'static str, i64)>)> = Vec::new();
    let mut commit_seq: u64 = 0;

    // Commit bookkeeping shared by the scheduler loop and the wind-down.
    let do_commit = |s: &mut Sess,
                         committed: &mut Mirror,
                         committed_log: &mut Vec<Stmt>,
                         committed_writes: &mut Vec<(u64, HashSet<(&'static str, i64)>)>,
                         commit_seq: &mut u64,
                         report: &mut ConcurrentReport|
     -> Result<(), String> {
        let t = s.txn.take().expect("commit with no open transaction");
        match s.client.execute("COMMIT") {
            Ok(_) => {
                let overlap: Vec<&(&'static str, i64)> = committed_writes
                    .iter()
                    .filter(|(cs, _)| *cs > t.begin_seq)
                    .flat_map(|(_, ws)| ws.intersection(&t.writes))
                    .collect();
                if !overlap.is_empty() {
                    return Err(format!(
                        "lost update: transaction committed although rows {overlap:?} were \
                         concurrently committed by another writer after its snapshot"
                    ));
                }
                for st in &t.stmts {
                    committed.apply(st);
                }
                committed_log.extend(t.stmts);
                *commit_seq += 1;
                committed_writes.push((*commit_seq, t.writes));
                report.commits += 1;
                Ok(())
            }
            // First-writer-wins is decided when a statement writes: a
            // COMMIT has nothing left to lose, so any error — a write
            // conflict included — is a failure.
            Err(e) => Err(format!("COMMIT failed: {e}")),
        }
    };

    for step in 0..steps {
        report.steps = step + 1;
        // Incremental vacuum fires between scheduler steps (on top of the
        // pass at every transaction end): the horizon invariant must hold
        // at every interleaving point, not only where transactions end.
        // With `random_vacuum` armed the cadence is scheduler-random
        // (seeded); otherwise it is the fixed every-3rd step of the
        // original oracle.
        let vacuum_now = if chaos.random_vacuum != 0 {
            vac_rng.gen_range(0..3u32) == 0
        } else {
            step % 3 == 0
        };
        if vacuum_now {
            server.admin(|db| db.storage_mut().vacuum());
        }
        let si = rng.gen_range(0..sess.len());
        let admin = matches!(sess[si].client, Client::Admin(_));
        let in_txn = sess[si].txn.is_some();
        let roll = rng.gen_range(0..100u32);
        if in_txn {
            let s = &mut sess[si];
            if roll < 15 {
                do_commit(
                    s,
                    &mut committed,
                    &mut committed_log,
                    &mut committed_writes,
                    &mut commit_seq,
                    &mut report,
                )
                .map_err(|e| format!("step {step}: {e}"))?;
            } else if roll < 22 {
                let t = s.txn.take().expect("rollback with no open transaction");
                drop(t);
                s.client
                    .execute("ROLLBACK")
                    .map_err(|e| format!("step {step}: ROLLBACK failed: {e}"))?;
            } else if roll < 50 {
                let q = gen.query();
                let t = s.txn.as_ref().expect("txn query");
                // Borrow dance: clone the expected mirror view out of the
                // txn so the session can be borrowed mutably.
                let expected = t.expected.clone();
                check_snapshot_query(&server, &mut s.client, &q, &expected, &mut report)
                    .map_err(|e| format!("step {step} (in txn): {e}"))?;
            } else {
                let table = gen.table();
                let t = s.txn.as_ref().expect("txn dml");
                let stmt = if roll < 75 {
                    gen.insert(table)
                } else {
                    match pick_id(&mut rng, &t.expected, table) {
                        Some(id) if roll < 90 => gen.update_eq(table, id),
                        Some(id) => Stmt::Delete { table, pred: IdPred::Eq(id) },
                        None => gen.insert(table),
                    }
                };
                match s.client.execute(&stmt.sql()) {
                    Ok(_) => {
                        let t = s.txn.as_mut().expect("txn dml state");
                        t.writes.extend(writes_of(&t.expected, &stmt));
                        t.expected.apply(&stmt);
                        t.stmts.push(stmt);
                    }
                    Err(e) if is_conflict(&e) => report.stmt_conflicts += 1,
                    Err(_) => report.stmt_errors += 1,
                }
            }
        } else if roll < if admin { 6 } else { 20 } {
            let s = &mut sess[si];
            s.client
                .execute("BEGIN")
                .map_err(|e| format!("step {step}: BEGIN failed: {e}"))?;
            s.txn = Some(TxnState {
                expected: committed.clone(),
                stmts: Vec::new(),
                writes: HashSet::new(),
                begin_seq: commit_seq,
            });
        } else if roll < 50 {
            let q = gen.query();
            check_snapshot_query(&server, &mut sess[si].client, &q, &committed, &mut report)
                .map_err(|e| format!("step {step} (autocommit): {e}"))?;
        } else {
            // Autocommit DML: an implicit begin+statement+commit under one
            // exclusive hold — it commits (and joins the serial history) at
            // its own scheduler position.
            let table = gen.table();
            let stmt = if roll < 80 {
                gen.insert(table)
            } else {
                match pick_id(&mut rng, &committed, table) {
                    Some(id) if roll < 92 => gen.update_eq(table, id),
                    Some(id) => Stmt::Delete { table, pred: IdPred::Eq(id) },
                    None => gen.insert(table),
                }
            };
            match sess[si].client.execute(&stmt.sql()) {
                Ok(_) => {
                    let writes: HashSet<(&'static str, i64)> =
                        writes_of(&committed, &stmt).into_iter().collect();
                    committed.apply(&stmt);
                    committed_log.push(stmt);
                    commit_seq += 1;
                    committed_writes.push((commit_seq, writes));
                }
                Err(e) if is_conflict(&e) => report.stmt_conflicts += 1,
                Err(_) => report.stmt_errors += 1,
            }
        }
    }

    // Wind down: commit every open transaction so the committed log is
    // the complete history.
    for s in sess.iter_mut() {
        if s.txn.is_some() {
            do_commit(
                s,
                &mut committed,
                &mut committed_log,
                &mut committed_writes,
                &mut commit_seq,
                &mut report,
            )
            .map_err(|e| format!("wind-down: {e}"))?;
        }
    }

    // Final oracle 1: committed mirror vs engine, via fresh generated
    // queries through an autocommit session.
    let mut check = Client::Session(server.session());
    for _ in 0..8 {
        let q = gen.query();
        check_snapshot_query(&server, &mut check, &q, &committed, &mut report)
            .map_err(|e| format!("final state: {e}"))?;
    }
    for table in [HEAP, IOT] {
        let rows = check
            .query(&format!("SELECT id FROM {table}"))
            .map_err(|e| format!("final SELECT id FROM {table}: {e}"))?;
        let mut got = ids_of(&rows).map_err(|e| format!("final {table}: {e}"))?;
        got.sort_unstable();
        let want: Vec<i64> = committed.table(table).keys().copied().collect();
        if got != want {
            return Err(format!(
                "final id bag of {table} diverges: engine has {} rows, mirror {} rows",
                got.len(),
                want.len()
            ));
        }
    }

    // Final oracle 2: serial twin — replay the committed history in
    // commit order on a fresh single-session engine and demand identical
    // per-table row bags.
    let mut twin = fresh_db();
    for sql in &preamble {
        twin.execute(sql).map_err(|e| format!("twin preamble: {sql}: {e}"))?;
    }
    for st in &committed_log {
        twin
            .execute(&st.sql())
            .map_err(|e| format!("twin replay of committed statement failed: {}: {e}", st.sql()))?;
    }
    for table in [HEAP, IOT] {
        let eng = table_bag_rows(
            check
                .query(&format!("SELECT * FROM {table}"))
                .map_err(|e| format!("engine SELECT * FROM {table}: {e}"))?,
        );
        let tw = table_bag_rows(
            twin.query(&format!("SELECT * FROM {table}"))
                .map_err(|e| format!("twin SELECT * FROM {table}: {e}"))?,
        );
        if eng != tw {
            let missing: Vec<&String> = tw.iter().filter(|r| !eng.contains(r)).collect();
            let extra: Vec<&String> = eng.iter().filter(|r| !tw.contains(r)).collect();
            return Err(format!(
                "table {table}: concurrent result bag != serial commit-order replay\n  \
                 rows only in twin: {missing:?}\n  rows only in engine: {extra:?}"
            ));
        }
    }
    Ok(report)
}

/// Plant the classic lost update and report whether the final state
/// diverges from serial commit-order replay.
///
/// Two transactions read row 1 under overlapping snapshots and write
/// *disjoint* columns; because an UPDATE writes the full row image from
/// its snapshot, the second commit silently reverts the first writer's
/// column. With `enforce` on (first-writer-wins), the engine refuses the
/// second write and the state stays serial — `None`. With `enforce` off
/// (the deliberate anomaly knob), the oracle must return `Some(detail)`
/// describing the divergence.
pub fn lost_update_demo(enforce: bool) -> Option<String> {
    let server = Server::new(fresh_db());
    server.admin(|db| db.storage_mut().set_conflict_checks(enforce));
    let mut a = server.session();
    let mut b = server.session();
    a.execute("CREATE TABLE LU (id INTEGER, x NUMBER, y NUMBER)").expect("create");
    a.execute("INSERT INTO LU VALUES (1, 10, 20)").expect("seed row");

    // b's snapshot predates a's commit.
    b.execute("BEGIN").expect("begin b");
    let pre = b.query("SELECT x FROM LU WHERE id = 1").expect("b reads");
    assert_eq!(pre, vec![vec![Value::Number(10.0)]]);

    a.execute("BEGIN").expect("begin a");
    a.execute("UPDATE LU SET x = 11 WHERE id = 1").expect("a writes x");
    a.execute("COMMIT").expect("a commits");

    // b writes the same row from its stale snapshot (x still 10 there).
    let b_committed = match b
        .execute("UPDATE LU SET y = 21 WHERE id = 1")
        .and_then(|_| b.execute("COMMIT"))
    {
        Ok(_) => true,
        Err(e) => {
            assert!(
                matches!(e, Error::WriteConflict { .. }),
                "only a write conflict may stop the second writer, got {e}"
            );
            let _ = b.execute("ROLLBACK");
            false
        }
    };

    // Serial twin: a's transaction, then b's iff it committed.
    let mut twin = fresh_db();
    twin.execute("CREATE TABLE LU (id INTEGER, x NUMBER, y NUMBER)").expect("twin create");
    twin.execute("INSERT INTO LU VALUES (1, 10, 20)").expect("twin seed");
    twin.execute("UPDATE LU SET x = 11 WHERE id = 1").expect("twin a");
    if b_committed {
        twin.execute("UPDATE LU SET y = 21 WHERE id = 1").expect("twin b");
    }

    let eng = table_bag_rows(a.query("SELECT * FROM LU").expect("engine final"));
    let tw = table_bag_rows(twin.query("SELECT * FROM LU").expect("twin final"));
    (eng != tw).then(|| {
        format!(
            "lost update detected: concurrent state {eng:?} != serial commit-order replay {tw:?} \
             (second writer reverted the first writer's column from its stale snapshot)"
        )
    })
}

/// Counters from a [`conflict_storm`] run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StormReport {
    /// Autocommit increments that succeeded (after transparent retry).
    pub increments: u64,
    /// Explicit blocker transactions that committed.
    pub blocker_commits: u64,
    /// Explicit blocker transactions whose UPDATE lost a write conflict —
    /// the error *must* surface for explicit transactions (the client owns
    /// the retry decision there).
    pub blocker_conflicts: u64,
    /// `WriteConflict`s that reached an autocommit caller. Transparent
    /// retry makes this 0 under any interleaving short of exhausting the
    /// per-session retry budget.
    pub surfaced_autocommit_conflicts: u64,
    /// Server-wide `CONFLICT_RETRIES` counter after the run.
    pub conflict_retries: u64,
}

/// The conflict-storm workload: real OS threads hammer a handful of hot
/// rows with commutative autocommit increments (`SET n = n + 1`) while a
/// blocker thread runs explicit transactions over the same rows, holding
/// uncommitted versions open across a yield point.
///
/// Increments commute, so correctness is a single arithmetic fact that
/// holds under *any* interleaving: the final `SUM(n)` must equal the
/// number of increments that reported success (autocommit + committed
/// blockers). A lost update makes the sum fall short; a doubly-applied
/// retry makes it overshoot. On top of that, transparent retry must keep
/// every `WriteConflict` away from the autocommit callers while still
/// surfacing conflicts to the explicit transactions.
pub fn conflict_storm(
    seed: u64,
    writers: usize,
    increments_per_writer: usize,
) -> Result<StormReport, String> {
    const HOT_ROWS: usize = 4;
    let server = Server::new(fresh_db());
    {
        let mut s = server.session();
        s.execute("CREATE TABLE HOT (id INTEGER, n INTEGER)")
            .map_err(|e| format!("storm setup: {e}"))?;
        for id in 0..HOT_ROWS {
            s.execute(&format!("INSERT INTO HOT VALUES ({id}, 0)"))
                .map_err(|e| format!("storm seed row {id}: {e}"))?;
        }
    }

    let mut report = StormReport::default();
    let mut thread_errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..writers {
            let mut sess = server.session();
            handles.push(scope.spawn(move || -> Result<(u64, u64), String> {
                sess.execute("SET CONFLICT_RETRIES = 64")
                    .map_err(|e| format!("writer {t}: SET CONFLICT_RETRIES: {e}"))?;
                sess.execute(&format!("SET RETRY_SEED = {}", (seed ^ t as u64) as i64))
                    .map_err(|e| format!("writer {t}: SET RETRY_SEED: {e}"))?;
                let (mut ok, mut surfaced) = (0u64, 0u64);
                for i in 0..increments_per_writer {
                    let k = (t + i) % HOT_ROWS;
                    match sess.execute(&format!("UPDATE HOT SET n = n + 1 WHERE id = {k}")) {
                        Ok(_) => ok += 1,
                        Err(Error::WriteConflict { .. }) => surfaced += 1,
                        Err(e) => return Err(format!("writer {t} increment {i}: {e}")),
                    }
                }
                Ok((ok, surfaced))
            }));
        }
        // The blocker: explicit transactions keep an uncommitted version
        // of a hot row open across a scheduler yield, forcing the
        // autocommit writers into their retry loops. Its own conflicts
        // must surface (and the transaction then ends without effect).
        let blocker = {
            let mut sess = server.session();
            let rounds = writers * increments_per_writer / 4;
            scope.spawn(move || -> Result<(u64, u64), String> {
                let (mut commits, mut conflicts) = (0u64, 0u64);
                for i in 0..rounds {
                    let k = i % HOT_ROWS;
                    sess.execute("BEGIN").map_err(|e| format!("blocker BEGIN: {e}"))?;
                    match sess.execute(&format!("UPDATE HOT SET n = n + 1 WHERE id = {k}")) {
                        Ok(_) => {
                            std::thread::yield_now();
                            // A COMMIT cannot lose first-writer-wins.
                            sess.execute("COMMIT").map_err(|e| format!("blocker COMMIT: {e}"))?;
                            commits += 1;
                        }
                        Err(Error::WriteConflict { .. }) => {
                            conflicts += 1;
                            let _ = sess.execute("ROLLBACK");
                        }
                        Err(e) => return Err(format!("blocker UPDATE: {e}")),
                    }
                }
                Ok((commits, conflicts))
            })
        };
        for h in handles {
            match h.join().expect("writer thread panicked") {
                Ok((ok, surfaced)) => {
                    report.increments += ok;
                    report.surfaced_autocommit_conflicts += surfaced;
                }
                Err(e) => thread_errors.push(e),
            }
        }
        match blocker.join().expect("blocker thread panicked") {
            Ok((commits, conflicts)) => {
                report.blocker_commits = commits;
                report.blocker_conflicts = conflicts;
            }
            Err(e) => thread_errors.push(e),
        }
    });
    if !thread_errors.is_empty() {
        return Err(format!("storm threads failed:\n{}", thread_errors.join("\n")));
    }
    report.conflict_retries = server
        .governor()
        .counters
        .conflict_retries
        .load(std::sync::atomic::Ordering::Relaxed);

    // The commutativity oracle: every successful increment exactly once.
    let mut check = server.session();
    let rows = check.query("SELECT n FROM HOT").map_err(|e| format!("storm final read: {e}"))?;
    let mut sum = 0i64;
    for r in &rows {
        match r.first() {
            Some(Value::Integer(v)) => sum += *v,
            other => return Err(format!("storm final read: expected integer n, got {other:?}")),
        }
    }
    let expected = (report.increments + report.blocker_commits) as i64;
    if sum != expected {
        return Err(format!(
            "lost or duplicated update under the storm: SUM(n) = {sum}, but {expected} \
             increments reported success ({report:?})"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_concurrent_run_is_clean() {
        let report = run_concurrent_seed(1, 3, 60).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.queries > 0, "schedule never checked a query: {report:?}");
        assert!(report.commits > 0, "schedule never committed a transaction: {report:?}");
    }

    #[test]
    fn random_vacuum_cadence_stays_clean() {
        let report = run_concurrent_seed_opts(2, 3, 60, ChaosOpts::random_vacuum(0xDAE))
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(report.queries > 0 && report.commits > 0, "vacuous schedule: {report:?}");
    }

    #[test]
    fn small_conflict_storm_loses_nothing() {
        let report = conflict_storm(7, 3, 24).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            report.surfaced_autocommit_conflicts, 0,
            "transparent retry must absorb autocommit conflicts: {report:?}"
        );
        assert!(report.increments > 0, "storm never incremented: {report:?}");
    }

    #[test]
    fn lost_update_caught_without_enforcement_and_prevented_with() {
        let caught = lost_update_demo(false);
        assert!(caught.is_some(), "oracle must catch the planted lost update");
        assert!(
            lost_update_demo(true).is_none(),
            "first-writer-wins must prevent the lost update"
        );
    }
}
