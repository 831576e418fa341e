//! The one callback surface, seen from a cartridge: every mutating server
//! callback a scan routine issues is refused with the same
//! `CallbackViolation` text and charged the same ticks, and refused means
//! nothing happened — no storage, LOB or file changed and no event handler
//! was registered. Every read callback answers the same on both lanes at
//! the same snapshot: once from a definition routine (`ODCIIndexAlter`,
//! the write lane) and once from `ODCIIndexStart` (the read lane).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use extidx_common::{Error, LobRef, Result, RowId, Value};
use extidx_core::events::{DbEvent, EventHandler};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::operator::ScalarFunction;
use extidx_core::params::ParamString;
use extidx_core::sandbox;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::{read_lob, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;
use extidx_sql::Database;
use extidx_storage::Snapshot;

const FILE: &str = "probe.dat";
const NEW_FILE: &str = "probe_new.dat";

thread_local! {
    /// The LOB `ODCIIndexCreate` wrote.
    static LOB: RefCell<Option<LobRef>> = const { RefCell::new(None) };
    /// What `ODCIIndexStart` does: attempt every mutation, or read.
    static MUTATE: RefCell<bool> = const { RefCell::new(false) };
    /// Per mutating callback: its error and the ticks it was charged.
    static REFUSALS: RefCell<Vec<(&'static str, Option<Error>, u64)>> =
        const { RefCell::new(Vec::new()) };
    /// Per lane: every read callback's answer and the ticks it cost.
    static READS: RefCell<Vec<(&'static str, Vec<String>)>> = const { RefCell::new(Vec::new()) };
}

/// Set by the event handler a scan routine tries to register.
static HANDLER_RAN: AtomicBool = AtomicBool::new(false);

struct Smuggled;

impl EventHandler for Smuggled {
    fn on_event(&self, _: DbEvent, _: &mut dyn ServerContext) -> Result<()> {
        HANDLER_RAN.store(true, Ordering::SeqCst);
        Ok(())
    }
}

fn lob() -> LobRef {
    LOB.with(|l| l.borrow().expect("ODCIIndexCreate wrote the LOB"))
}

/// Run `call`, recording the ticks it was charged beside its answer.
fn charged<T>(srv: &mut dyn ServerContext, call: impl FnOnce(&mut dyn ServerContext) -> T) -> (T, u64) {
    let before = sandbox::ticks_used();
    let out = call(srv);
    (out, sandbox::ticks_used() - before)
}

/// One mutating callback, by name.
type Attempt = (&'static str, Box<dyn FnOnce(&mut dyn ServerContext) -> Result<()>>);

/// Every mutating callback, in trait order.
fn attempt_every_mutation(srv: &mut dyn ServerContext, info: &IndexInfo) {
    let lob = lob();
    let insert = format!("INSERT INTO {} VALUES (99)", info.table_name);
    let attempts: Vec<Attempt> = vec![
        ("execute", Box::new(move |s| s.execute(&insert, &[]).map(drop))),
        ("lob_create", Box::new(|s| s.lob_create().map(drop))),
        ("lob_write", Box::new(move |s| s.lob_write(lob, 0, b"x"))),
        ("lob_append", Box::new(move |s| s.lob_append(lob, b"x").map(drop))),
        ("lob_overwrite", Box::new(move |s| s.lob_overwrite(lob, b"x"))),
        ("lob_free", Box::new(move |s| s.lob_free(lob))),
        ("file_create", Box::new(|s| s.file_create(NEW_FILE))),
        ("file_remove", Box::new(|s| s.file_remove(FILE))),
        ("file_write", Box::new(|s| s.file_write(FILE, b"x"))),
        ("file_append", Box::new(|s| s.file_append(FILE, b"x"))),
        ("file_flush", Box::new(|s| s.file_flush(FILE))),
    ];
    for (name, attempt) in attempts {
        let (r, ticks) = charged(srv, attempt);
        REFUSALS.with(|log| log.borrow_mut().push((name, r.err(), ticks)));
    }
    let ((), ticks) = charged(srv, |s| s.register_event_handler("smuggled", Arc::new(Smuggled)));
    REFUSALS.with(|log| log.borrow_mut().push(("register_event_handler", None, ticks)));
}

/// Every read callback's answer and tick charge, rendered for comparison.
fn read_everything(srv: &mut dyn ServerContext, info: &IndexInfo) -> Vec<String> {
    let lob = lob();
    let base = info.table_name.clone();
    let mut out = Vec::new();
    let mut note = |what: &str, (answer, ticks): (String, u64)| {
        out.push(format!("{what}: {answer} [{ticks} ticks]"));
    };
    let select = format!("SELECT v FROM {base} ORDER BY v");
    note("query", charged(srv, |s| format!("{:?}", s.query(&select, &[]))));
    note("execute", charged(srv, |s| format!("{:?}", s.execute(&select, &[]))));
    let mut rids = Vec::new();
    note(
        "scan_base_batches",
        charged(srv, |s| {
            let mut rows = Vec::new();
            let r = s.scan_base_batches(&base, &["v"], 2, &mut |_, batch| {
                rows.extend(batch.iter().map(|r| (r.rid, r.values.clone())));
                Ok(())
            });
            rids = rows.iter().map(|(rid, _)| *rid).collect();
            format!("{r:?} {rows:?}")
        }),
    );
    // The rowid join, backwards and with a rowid that addresses no row
    // (which sends the batch down the per-rowid fallback).
    rids.reverse();
    rids.insert(1, RowId::new(rids[0].table, 999, 0));
    note(
        "fetch_base_rows",
        charged(srv, |s| {
            let mut rows = Vec::new();
            let r = s.fetch_base_rows(&base, &["v", "v"], &rids, &mut |i, row| {
                rows.push((i, row.iter().map(|v| (*v).clone()).collect::<Vec<_>>()));
                Ok(())
            });
            format!("{r:?} {rows:?}")
        }),
    );
    note("fault_point", charged(srv, |s| format!("{:?}", s.fault_point("probe.point"))));
    note("lob_length", charged(srv, |s| format!("{:?}", s.lob_length(lob))));
    note("lob_read", charged(srv, |s| format!("{:?}", s.lob_read(lob, 2, 4))));
    note("lob_read_all", charged(srv, |s| format!("{:?}", read_lob(s, lob, |b| Ok(b.to_vec())))));
    note("file_exists", charged(srv, |s| format!("{} {}", s.file_exists(FILE), s.file_exists(NEW_FILE))));
    note("file_read", charged(srv, |s| format!("{:?}", s.file_read(FILE))));
    note("file_length", charged(srv, |s| format!("{:?}", s.file_length(FILE))));
    note(
        "workspace",
        charged(srv, |s| {
            let h = s.workspace_put(Box::new(7u32));
            let got = s.workspace_get(h).and_then(|a| a.downcast_ref::<u32>().copied());
            let taken = s.workspace_take(h).is_some();
            format!("{got:?} {taken} {}", s.workspace_get(h).is_none())
        }),
    );
    out
}

struct Probe;

impl OdciIndex for Probe {
    fn create(&self, srv: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        let lob = srv.lob_create()?;
        srv.lob_write(lob, 0, b"extensible indexing")?;
        LOB.with(|l| *l.borrow_mut() = Some(lob));
        srv.file_create(FILE)?;
        srv.file_write(FILE, b"posting file")
    }
    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _: &ParamString) -> Result<()> {
        let answers = read_everything(srv, info);
        READS.with(|r| r.borrow_mut().push(("write", answers)));
        Ok(())
    }
    fn truncate(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn drop_index(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn insert(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
        Ok(())
    }
    fn update(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: RowId,
        _: &Value,
        _: &Value,
    ) -> Result<()> {
        Ok(())
    }
    fn delete(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value) -> Result<()> {
        Ok(())
    }
    fn start(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _: &OperatorCall) -> Result<ScanContext> {
        if MUTATE.with(|m| *m.borrow()) {
            attempt_every_mutation(srv, info);
        } else {
            let answers = read_everything(srv, info);
            READS.with(|r| r.borrow_mut().push(("read", answers)));
        }
        Ok(ScanContext::State(Box::new(())))
    }
    fn fetch(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: &mut ScanContext,
        _: usize,
    ) -> Result<FetchResult> {
        Ok(FetchResult::end())
    }
    fn close(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: ScanContext) -> Result<()> {
        Ok(())
    }
}

impl OdciStats for Probe {
    fn collect(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn selectivity(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall) -> Result<f64> {
        Ok(0.01)
    }
    fn index_cost(
        &self,
        _: &mut dyn ServerContext,
        _: &IndexInfo,
        _: &OperatorCall,
        _: f64,
    ) -> Result<IndexCost> {
        Ok(IndexCost { io_cost: 0.0, cpu_cost: 0.0 })
    }
}

const SCAN: &str = "SELECT /*+ INDEX(base pidx) */ v FROM base WHERE PMatch(v)";

fn probe_db() -> Database {
    let mut db = Database::new();
    db.register_function(ScalarFunction::new("PMatchFn", |_, _| Ok(Value::Boolean(true)))).unwrap();
    db.register_odci_implementation("Probe", Arc::new(Probe), Arc::new(Probe));
    db.execute("CREATE OPERATOR PMatch BINDING (INTEGER) RETURN BOOLEAN USING PMatchFn").unwrap();
    db.execute("CREATE INDEXTYPE ProbeType FOR PMatch(INTEGER) USING Probe").unwrap();
    db.execute("CREATE TABLE base (v INTEGER)").unwrap();
    db.execute("INSERT INTO base VALUES (3), (1), (2)").unwrap();
    db.execute("CREATE INDEX pidx ON base(v) INDEXTYPE IS ProbeType").unwrap();
    db
}

#[test]
fn scan_routines_are_refused_every_mutation_and_nothing_changes() {
    let mut db = probe_db();
    let lob = lob();
    let latest = Snapshot::latest();
    let lob_before = db.storage().lob_read_all(lob, &latest, <[u8]>::to_vec).unwrap();
    let files_before = db.file_stats();
    // Inside an explicit transaction every storage write — row, LOB
    // allocation or LOB span — stays in the undo log until COMMIT, so an
    // unchanged log length means nothing was written.
    db.execute("BEGIN").unwrap();
    let undo_before = db.storage().undo_mark();
    MUTATE.with(|m| *m.borrow_mut() = true);
    let rows = db.query(SCAN).unwrap();
    MUTATE.with(|m| *m.borrow_mut() = false);
    assert!(rows.is_empty(), "the probe's scan returns no rows: {rows:?}");
    assert_eq!(db.storage().undo_mark(), undo_before, "a refused callback wrote storage");

    let refusals = REFUSALS.with(|log| log.take());
    let names: Vec<&str> = refusals.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(
        names,
        [
            "execute", "lob_create", "lob_write", "lob_append", "lob_overwrite", "lob_free",
            "file_create", "file_remove", "file_write", "file_append", "file_flush",
            "register_event_handler",
        ]
    );
    for (name, err, ticks) in &refusals {
        let (text, charge) = match *name {
            "execute" => ("execute() of a non-SELECT statement".to_string(), 1),
            "register_event_handler" => {
                assert!(err.is_none());
                assert_eq!(*ticks, 1, "{name} is charged one tick and dropped");
                continue;
            }
            other => (other.to_string(), 0),
        };
        match err {
            Some(Error::CallbackViolation(msg)) => {
                assert_eq!(*msg, format!("{text} is not allowed in a read-only scan context"))
            }
            other => panic!("{name}: expected a CallbackViolation, got {other:?}"),
        }
        assert_eq!(*ticks, charge, "{name}'s tick charge");
    }

    // Nothing changed: rows, the LOB, the files, and no handler fires.
    assert_eq!(db.query("SELECT COUNT(*) FROM base").unwrap()[0][0], Value::Integer(3));
    assert_eq!(db.storage().lob_read_all(lob, &latest, <[u8]>::to_vec).unwrap(), lob_before);
    assert_eq!(db.file_stats(), files_before);
    let files = db.storage().files_ref();
    assert!(!files.exists(NEW_FILE));
    assert_eq!(files.read(FILE).unwrap(), b"posting file");
    db.execute("COMMIT").unwrap();
    assert!(!HANDLER_RAN.load(Ordering::SeqCst), "a scan routine registered an event handler");
}

#[test]
fn read_callbacks_answer_the_same_on_both_lanes() {
    let mut db = probe_db();
    // The direct lane reads at the latest snapshot on both lanes: the
    // write lane's current transaction and the read lane's statement.
    db.execute("ALTER INDEX pidx PARAMETERS ('probe 1')").unwrap();
    db.query(SCAN).unwrap();
    let reads = READS.with(|r| r.take());
    let lanes: Vec<&str> = reads.iter().map(|(lane, _)| *lane).collect();
    assert_eq!(lanes, ["write", "read"]);
    let (write, read) = (&reads[0].1, &reads[1].1);
    assert_eq!(write.len(), 12);
    for (w, r) in write.iter().zip(read) {
        assert_eq!(w, r, "the lanes disagree");
    }
    assert!(write[0].starts_with("query: Ok([[Integer(1)], [Integer(2)], [Integer(3)]])"), "{write:?}");
    assert!(write.iter().all(|answer| !answer.contains("Err(")), "a read failed: {write:?}");
}
