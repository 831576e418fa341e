//! The WAL watermark (DESIGN.md §4i): a server whose clients never call
//! `checkpoint()` still keeps a bounded WAL, because every transaction end
//! that finds [`WAL_FOLD_RECORDS`] records in it folds it.
//!
//! - Two sessions append many times the watermark. At every statement
//!   boundary the WAL holds at most the watermark plus what the open
//!   transactions wrote, one transaction stays open across a fold and then
//!   commits, another does the same and rolls back, and recovery after
//!   process death equals the committed history.
//! - A crash inside the fold at a transaction end is not that statement's
//!   failure: its marker landed, so it reports `Ok` and recovers. The next
//!   write fails on the frozen medium.

use std::collections::BTreeMap;

use extidx::sql::database::WAL_FOLD_RECORDS;
use extidx::sql::{Database, Server, Session};
use extidx::storage::wal::{FP_WAL_CHECKPOINT, FP_WAL_CHECKPOINT_TRUNCATE};
use extidx::storage::DurableMedium;
use extidx_common::Value;

/// Sorted `SELECT * FROM t` as display strings.
fn bag(db: &mut Database) -> Vec<String> {
    let rows = db.query("SELECT * FROM t").unwrap_or_else(|e| panic!("SELECT * FROM t: {e}"));
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// What `bag` shows for rows `(id, grp, v)`.
fn expected(rows: impl IntoIterator<Item = (i64, usize, i64)>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|(id, grp, v)| format!("[Integer({id}), Integer({grp}), Integer({v})]"))
        .collect();
    out.sort();
    out
}

/// A durable `Server` over `t (id, grp, v)`, and its medium.
fn durable_server() -> (Server, DurableMedium) {
    let medium = DurableMedium::new();
    let mut db = Database::with_cache_pages(256);
    db.enable_durability(medium.clone()).unwrap();
    db.execute("CREATE TABLE t (id INTEGER, grp INTEGER, v INTEGER)").unwrap();
    (Server::new(db), medium)
}

/// A session's open transaction: its view of the session's rows, and the
/// WAL records it has appended so far.
struct OpenTxn {
    rows: BTreeMap<i64, i64>,
    records: u64,
}

/// Sessions that each write only their own rows (`grp` = session), so no
/// statement conflicts, with a model of what each has committed.
struct Soak {
    medium: DurableMedium,
    sessions: Vec<Session>,
    committed: Vec<BTreeMap<i64, i64>>,
    open: Vec<Option<OpenTxn>>,
    next_id: i64,
    /// Statements run so far, each checked against the bound.
    stmts: usize,
}

impl Soak {
    fn run(&mut self, j: usize, sql: &str) {
        let before = self.medium.stats().records_appended;
        self.sessions[j].execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let appended = self.medium.stats().records_appended - before;
        if let Some(txn) = &mut self.open[j] {
            txn.records += appended;
        }
    }

    /// The bound, at a statement boundary: what the last fold left plus
    /// what came after it is under the watermark, except for the records
    /// of transactions still open.
    fn check_bound(&mut self) {
        self.stmts += 1;
        let open: u64 = self.open.iter().flatten().map(|t| t.records).sum();
        let len = self.medium.stats().wal_len as u64;
        assert!(
            len <= WAL_FOLD_RECORDS as u64 + open,
            "statement {}: the WAL holds {len} records, over the watermark {WAL_FOLD_RECORDS} \
             plus {open} of open transactions",
            self.stmts
        );
    }

    /// Session `j`'s rows as its next statement sees them.
    fn view(&mut self, j: usize) -> &mut BTreeMap<i64, i64> {
        match &mut self.open[j] {
            Some(txn) => &mut txn.rows,
            None => &mut self.committed[j],
        }
    }

    fn begin(&mut self, j: usize) {
        self.run(j, "BEGIN");
        self.open[j] = Some(OpenTxn { rows: self.committed[j].clone(), records: 0 });
        self.check_bound();
    }

    fn end(&mut self, j: usize, commit: bool) {
        self.run(j, if commit { "COMMIT" } else { "ROLLBACK" });
        let txn = self.open[j].take().expect("a transaction is open");
        if commit {
            self.committed[j] = txn.rows;
        }
        self.check_bound();
    }

    /// One DML statement of session `j`, the `k`-th of a cycle: insert
    /// eight rows, bump the newest eight, delete the oldest four.
    fn dml(&mut self, j: usize, k: usize) {
        let view = self.view(j).clone();
        let sql = match k % 3 {
            1 if view.len() >= 8 => {
                let from = *view.keys().nth_back(7).expect("eight rows");
                for (_, v) in self.view(j).range_mut(from..) {
                    *v += 1;
                }
                format!("UPDATE t SET v = v + 1 WHERE grp = {j} AND id >= {from}")
            }
            2 if view.len() >= 12 => {
                let to = *view.keys().nth(3).expect("four rows");
                self.view(j).retain(|&id, _| id > to);
                format!("DELETE FROM t WHERE grp = {j} AND id <= {to}")
            }
            _ => {
                let ids: Vec<i64> = (1..=8).map(|i| self.next_id + i).collect();
                self.next_id += 8;
                self.view(j).extend(ids.iter().map(|&id| (id, k as i64)));
                let values: Vec<String> =
                    ids.iter().map(|id| format!("({id}, {j}, {k})")).collect();
                format!("INSERT INTO t VALUES {}", values.join(", "))
            }
        };
        self.run(j, &sql);
        self.check_bound();
    }

    /// Autocommit DML of session `j` until the WAL has been folded.
    fn until_a_fold(&mut self, j: usize, k: &mut usize) {
        let folds = self.medium.stats().checkpoints;
        let stmts = self.stmts;
        while self.medium.stats().checkpoints == folds {
            assert!(self.stmts - stmts < WAL_FOLD_RECORDS, "no fold at a transaction end");
            self.dml(j, *k);
            *k += 1;
        }
    }

    /// Session `j` opens a transaction and writes; the other session's
    /// autocommit statements run until a fold has carried it; `j` writes
    /// once more and ends it.
    fn across_a_fold(&mut self, j: usize, commit: bool, k: &mut usize) {
        self.begin(j);
        for _ in 0..3 {
            self.dml(j, *k);
            *k += 1;
        }
        self.until_a_fold(1 - j, k);
        assert!(self.medium.stats().carried_txns >= 1, "the fold carried no open transaction");
        self.dml(j, *k);
        *k += 1;
        self.end(j, commit);
    }
}

/// Two sessions, no client checkpoint: the transaction ends alone keep the
/// WAL under the watermark plus the open transactions' records, a
/// transaction open across a fold commits (and another rolls back) as if
/// none had happened, `V$WAL` shows the folds, and recovery after process
/// death equals the committed history.
#[test]
fn two_sessions_without_a_client_checkpoint_keep_the_wal_under_the_watermark() {
    let (server, medium) = durable_server();
    let mut soak = Soak {
        medium: medium.clone(),
        sessions: vec![server.session(), server.session()],
        committed: vec![BTreeMap::new(); 2],
        open: vec![None, None],
        next_id: 0,
        stmts: 0,
    };
    let mut k = 0;
    let mut txn_ends = 0;
    while medium.stats().records_appended <= 5 * WAL_FOLD_RECORDS as u64 {
        soak.across_a_fold(txn_ends % 2, txn_ends % 4 != 3, &mut k);
        txn_ends += 1;
        for _ in 0..20 {
            soak.dml(txn_ends % 2, k);
            k += 1;
        }
    }
    assert!(txn_ends >= 4, "no rolled-back transaction spanned a fold");

    // V$WAL reads the medium's counters; a fold leaves the WAL short.
    soak.until_a_fold(0, &mut k);
    let stats = medium.stats();
    let rows = soak.sessions[1]
        .query(
            "SELECT RECORDS, APPENDED, COMMITS, CHECKPOINTS, LAST_FOLDED_LSN, CARRIED_TXNS \
             FROM V$WAL",
        )
        .unwrap();
    let counters = [
        stats.wal_len as u64,
        stats.records_appended,
        stats.commits,
        stats.checkpoints,
        stats.last_folded_lsn,
        stats.carried_txns as u64,
    ];
    let want: Vec<Value> = counters.iter().map(|&c| Value::Integer(c as i64)).collect();
    assert_eq!(rows, vec![want], "V$WAL != the medium's counters");
    assert!(stats.checkpoints >= 2, "only the first checkpoint was taken");
    assert!(stats.wal_len < WAL_FOLD_RECORDS, "a fold left {} records", stats.wal_len);
    assert_eq!(stats.last_folded_lsn, stats.records_appended, "the fold covers every LSN");

    // Process death with a transaction open: its rows are lost.
    soak.begin(1);
    soak.dml(1, 0);
    let Soak { sessions, committed, .. } = soak;
    std::mem::forget(sessions);
    drop(server);
    let per_session = committed.iter().enumerate();
    let rows = per_session.flat_map(|(j, rows)| rows.iter().map(move |(&id, &v)| (id, j, v)));
    let want = expected(rows);
    let mut rec = Database::with_cache_pages(256);
    rec.enable_durability(medium).unwrap();
    assert_eq!(bag(&mut rec), want, "recovery != committed history");
}

/// A crash inside the first fold at a transaction end, at either point —
/// before the image is touched, or between the fold and the truncation —
/// while another session holds a transaction open. The statement whose
/// marker landed reports `Ok` and is recovered, the next write fails on
/// the frozen medium, and recovery equals the committed prefix.
#[test]
fn a_crash_inside_a_fold_at_transaction_end_keeps_the_committed_prefix() {
    for point in [FP_WAL_CHECKPOINT, FP_WAL_CHECKPOINT_TRUNCATE] {
        let (server, medium) = durable_server();
        let (mut a, mut b) = (server.session(), server.session());
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (0, 0, 666)").unwrap();
        server.admin(|db| db.fault_injector().arm_fail(point, None, 1));
        let mut committed: Vec<(i64, usize, i64)> = Vec::new();
        while server.admin(|db| db.fault_injector().fired()) == 0 {
            assert!(committed.len() < 4 * WAL_FOLD_RECORDS, "no fold at {point}");
            let id = committed.len() as i64 + 1;
            let sql = format!("INSERT INTO t VALUES ({id}, 1, 0), ({}, 1, 0)", id + 1);
            b.execute(&sql).unwrap_or_else(|e| panic!("{sql} with {point} armed: {e}"));
            committed.extend([(id, 1, 0), (id + 1, 1, 0)]);
        }
        assert!(medium.is_crashed(), "medium not frozen after a crash at {point}");
        assert!(b.execute("INSERT INTO t VALUES (-1, 1, 0)").is_err(), "a write after {point}");
        assert!(a.execute("COMMIT").is_err(), "a commit after {point}");
        std::mem::forget((a, b));
        drop(server);

        let mut rec = Database::with_cache_pages(256);
        rec.enable_durability(medium).unwrap();
        assert_eq!(bag(&mut rec), expected(committed), "crash at {point}");
    }
}
