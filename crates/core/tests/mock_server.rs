//! Framework-level tests with a mock server: exercise the ODCI driving
//! helpers ([`drain_scan`]), workspace handling, and event dispatch
//! without the SQL engine — proving the framework crate is genuinely
//! engine-agnostic.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use extidx_common::{Error, LobRef, Result, Row, RowId, SqlType, Value};
use extidx_core::events::{DbEvent, EventHandler};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::odci::{close_batch, drain_scan, fetch_batch};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext, WorkspaceHandle};
use extidx_core::server::{read_lob, workspace_state, CallbackMode, LobVisitor, ServerContext};
use extidx_core::OdciIndex;

/// A ServerContext over plain in-memory maps — no SQL engine anywhere.
#[derive(Default)]
struct MockServer {
    lobs: HashMap<u64, Vec<u8>>,
    next_lob: u64,
    workspace: HashMap<u64, Box<dyn Any + Send>>,
    next_ws: u64,
    files: HashMap<String, Vec<u8>>,
    handlers: Vec<(String, Arc<dyn EventHandler>)>,
    /// Base rows by rowid: when set, the mock answers the one-rowid
    /// queries the default `fetch_base_rows` issues, and logs them.
    base: Option<HashMap<RowId, Row>>,
    queries: Vec<String>,
}

impl ServerContext for MockServer {
    fn mode(&self) -> CallbackMode {
        CallbackMode::Definition
    }
    fn execute(&mut self, _sql: &str, _binds: &[Value]) -> Result<u64> {
        Err(Error::Unsupported("mock server has no SQL".into()))
    }
    fn query(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>> {
        let (Some(base), [Value::RowId(rid)]) = (&self.base, binds) else {
            return Err(Error::Unsupported("mock server has no SQL".into()));
        };
        self.queries.push(sql.to_string());
        Ok(base.get(rid).cloned().into_iter().collect())
    }
    fn scan_base_batches(
        &mut self,
        table: &str,
        cols: &[&str],
        batch_size: usize,
        sink: &mut extidx_core::server::BatchSink,
    ) -> Result<()> {
        // No native heap here; the query-based fallback reports the same
        // "no SQL" error the mock's query does.
        extidx_core::server::scan_base_batches_via_query(self, table, cols, batch_size, sink)
    }
    fn lob_create(&mut self) -> Result<LobRef> {
        self.next_lob += 1;
        self.lobs.insert(self.next_lob, Vec::new());
        Ok(LobRef(self.next_lob))
    }
    fn lob_length(&mut self, lob: LobRef) -> Result<u64> {
        Ok(self.lobs.get(&lob.0).map(|b| b.len() as u64).unwrap_or(0))
    }
    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>> {
        let b = self.lobs.get(&lob.0).ok_or_else(|| Error::Storage("no lob".into()))?;
        let o = (offset as usize).min(b.len());
        Ok(b[o..(o + len).min(b.len())].to_vec())
    }
    fn lob_read_all(&mut self, lob: LobRef, visit: &mut LobVisitor) -> Result<()> {
        visit(self.lobs.get(&lob.0).ok_or_else(|| Error::Storage("no lob".into()))?)
    }
    fn lob_write(&mut self, lob: LobRef, offset: u64, bytes: &[u8]) -> Result<()> {
        let b = self.lobs.get_mut(&lob.0).ok_or_else(|| Error::Storage("no lob".into()))?;
        let o = offset as usize;
        if b.len() < o + bytes.len() {
            b.resize(o + bytes.len(), 0);
        }
        b[o..o + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
    fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64> {
        let off = self.lob_length(lob)?;
        self.lob_write(lob, off, bytes)?;
        Ok(off)
    }
    fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()> {
        let b = self.lobs.get_mut(&lob.0).ok_or_else(|| Error::Storage("no lob".into()))?;
        b.clear();
        b.extend_from_slice(bytes);
        Ok(())
    }
    fn lob_free(&mut self, lob: LobRef) -> Result<()> {
        self.lobs.remove(&lob.0).map(|_| ()).ok_or_else(|| Error::Storage("no lob".into()))
    }
    fn workspace_put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle {
        self.next_ws += 1;
        self.workspace.insert(self.next_ws, state);
        WorkspaceHandle(self.next_ws)
    }
    fn workspace_get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)> {
        self.workspace.get_mut(&handle.0).map(|b| b.as_mut())
    }
    fn workspace_take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>> {
        self.workspace.remove(&handle.0)
    }
    fn register_event_handler(&mut self, name: &str, handler: Arc<dyn EventHandler>) {
        self.handlers.push((name.to_string(), handler));
    }
    fn file_create(&mut self, name: &str) -> Result<()> {
        self.files.insert(name.to_string(), Vec::new());
        Ok(())
    }
    fn file_exists(&mut self, name: &str) -> bool {
        self.files.contains_key(name)
    }
    fn file_remove(&mut self, name: &str) -> Result<()> {
        self.files.remove(name).map(|_| ()).ok_or_else(|| Error::Storage("no file".into()))
    }
    fn file_read(&mut self, name: &str) -> Result<Vec<u8>> {
        self.files.get(name).cloned().ok_or_else(|| Error::Storage("no file".into()))
    }
    fn file_write(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        *self.files.get_mut(name).ok_or_else(|| Error::Storage("no file".into()))? = bytes.to_vec();
        Ok(())
    }
    fn file_append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.files
            .get_mut(name)
            .ok_or_else(|| Error::Storage("no file".into()))?
            .extend_from_slice(bytes);
        Ok(())
    }
    fn file_flush(&mut self, _name: &str) -> Result<()> {
        Ok(())
    }
    fn file_length(&mut self, name: &str) -> Result<u64> {
        Ok(self.files.get(name).map(|b| b.len() as u64).unwrap_or(0))
    }
}

fn info() -> IndexInfo {
    IndexInfo {
        index_name: "MOCKIDX".into(),
        indextype_name: "MOCKTYPE".into(),
        table_name: "T".into(),
        column_name: "C".into(),
        column_type: SqlType::Integer,
        parameters: ParamString::empty(),
    }
}

/// An index whose scan yields `n` rowids via the workspace (Return
/// Handle), in fixed batches of 7 regardless of the requested size —
/// exercising the engine-side re-fetch loop.
struct StubbornBatcher {
    n: u16,
}

impl OdciIndex for StubbornBatcher {
    fn create(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> {
        Ok(())
    }
    fn alter(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()> {
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
    /// `n` rowids, or as many as a non-negative integer first argument
    /// says; a negative one fails the start.
    fn start(
        &self,
        srv: &mut dyn ServerContext,
        _: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        let n = match op.args.first() {
            Some(Value::Integer(n)) if *n < 0 => return Err(Error::Semantic("negative".into())),
            Some(Value::Integer(n)) => *n as u16,
            _ => self.n,
        };
        let rids: Vec<RowId> = (0..n).map(|i| RowId::new(1, 0, i)).collect();
        let h = srv.workspace_put(Box::new((rids, 0usize)));
        Ok(ScanContext::Handle(h))
    }
    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        _nrows: usize,
    ) -> Result<FetchResult> {
        let h = ctx.handle().expect("handle context");
        let (rids, pos) =
            workspace_state::<(Vec<RowId>, usize)>(srv, h, &info.indextype_name, "fetch")?;
        let end = (*pos + 7).min(rids.len());
        let batch: Vec<FetchedRow> = rids[*pos..end].iter().map(|r| FetchedRow::plain(*r)).collect();
        *pos = end;
        Ok(FetchResult { rows: batch, done: *pos >= rids.len() })
    }
    fn close(&self, srv: &mut dyn ServerContext, _: &IndexInfo, ctx: ScanContext) -> Result<()> {
        if let ScanContext::Handle(h) = ctx {
            srv.workspace_take(h);
        }
        Ok(())
    }
}

#[test]
fn drain_scan_collects_everything_across_batches() {
    let mut srv = MockServer::default();
    let idx = StubbornBatcher { n: 23 };
    let rows = drain_scan(
        &idx,
        &mut srv,
        &info(),
        &OperatorCall::simple("AnyOp", vec![]),
        64,
    )
    .unwrap();
    assert_eq!(rows.len(), 23);
    assert_eq!(rows[22].rowid, RowId::new(1, 0, 22));
    // Close released the workspace entry.
    assert!(srv.workspace.is_empty());
}

#[test]
fn drain_scan_empty_result() {
    let mut srv = MockServer::default();
    let idx = StubbornBatcher { n: 0 };
    let rows =
        drain_scan(&idx, &mut srv, &info(), &OperatorCall::simple("AnyOp", vec![]), 8).unwrap();
    assert!(rows.is_empty());
}

/// Drain a batched scan through the core's batch fetch and close.
fn drain_batch(idx: &dyn OdciIndex, srv: &mut MockServer, args: &[Vec<Value>]) -> Vec<FetchedRow> {
    let call = OperatorCall::simple("AnyOp", vec![]);
    let mut ctx = idx.start_batch(srv, &info(), &call, args).unwrap();
    let mut out = Vec::new();
    loop {
        let batch = fetch_batch(idx, srv, &info(), &mut ctx, 5).unwrap();
        out.extend(batch.rows);
        if batch.done {
            break;
        }
    }
    close_batch(idx, srv, &info(), ctx).unwrap();
    out
}

#[test]
fn the_default_start_batch_runs_one_scan_per_argument_row() {
    let mut srv = MockServer::default();
    let idx = StubbornBatcher { n: 0 };
    let args = [vec![Value::Integer(3)], vec![Value::Integer(0)], vec![Value::Integer(9)]];
    let rows = drain_batch(&idx, &mut srv, &args);
    let tags: Vec<(usize, u16)> = rows.iter().map(|r| (r.arg, r.rowid.slot)).collect();
    let want: Vec<(usize, u16)> = (0..3).map(|i| (0, i)).chain((0..9).map(|i| (2, i))).collect();
    assert_eq!(tags, want, "rows in argument order, each tagged with its row");
    assert!(srv.workspace.is_empty(), "close_batch closed every per-row scan");

    // A batch of one is the cartridge's own scan, untagged.
    let rows = drain_batch(&idx, &mut srv, &[vec![Value::Integer(4)]]);
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.arg == 0));
    assert!(srv.workspace.is_empty());
}

#[test]
fn the_default_start_batch_closes_what_it_opened_when_a_row_fails() {
    let mut srv = MockServer::default();
    let idx = StubbornBatcher { n: 0 };
    let args = [vec![Value::Integer(3)], vec![Value::Integer(2)], vec![Value::Integer(-1)]];
    let call = OperatorCall::simple("AnyOp", vec![]);
    assert!(idx.start_batch(&mut srv, &info(), &call, &args).is_err());
    assert!(srv.workspace.is_empty(), "the two opened scans were closed");
}

#[test]
fn the_default_fetch_base_rows_asks_query_per_rowid() {
    // The mock has no SQL, so the query-loop default reports its error.
    let mut srv = MockServer::default();
    let mut visits = 0;
    let mut count = |_: usize, _: &[&Value]| -> Result<()> {
        visits += 1;
        Ok(())
    };
    let err = srv.fetch_base_rows("T", &["C"], &[RowId::new(1, 0, 0)], &mut count).unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
    srv.fetch_base_rows("T", &["C"], &[], &mut count).unwrap();
    assert_eq!(visits, 0);
}

#[test]
fn the_default_fetch_base_rows_lends_each_visible_row_by_position() {
    let (a, b, gone) = (RowId::new(1, 0, 0), RowId::new(1, 0, 1), RowId::new(1, 0, 2));
    let mut srv = MockServer {
        base: Some(HashMap::from([(a, vec![Value::from("x")]), (b, vec![Value::from("y")])])),
        ..MockServer::default()
    };
    let mut seen = Vec::new();
    srv.fetch_base_rows("T", &["C"], &[b, gone, a], &mut |i, row| {
        seen.push((i, row.iter().map(|v| (*v).clone()).collect::<Vec<_>>()));
        Ok(())
    })
    .unwrap();
    // Positions in the rowid list, in its order; the missing row skipped.
    assert_eq!(seen, [(0, vec![Value::from("y")]), (2, vec![Value::from("x")])]);
    assert_eq!(srv.queries, vec!["SELECT C FROM T WHERE ROWID = ?"; 3]);

    // A visitor's error ends the join there.
    srv.queries.clear();
    let err = srv
        .fetch_base_rows("T", &["C"], &[a, b], &mut |_, _| Err(Error::Storage("stop".into())))
        .unwrap_err();
    assert!(matches!(err, Error::Storage(_)), "{err}");
    assert_eq!(srv.queries.len(), 1);
}

#[test]
fn workspace_state_reports_wrong_type() {
    let mut srv = MockServer::default();
    let h = srv.workspace_put(Box::new(42i64));
    let err = workspace_state::<String>(&mut srv, h, "MOCKTYPE", "fetch").unwrap_err();
    assert!(matches!(err, Error::Odci { .. }));
    // Correct type works and is mutable.
    let v = workspace_state::<i64>(&mut srv, h, "MOCKTYPE", "fetch").unwrap();
    *v += 1;
    assert_eq!(*workspace_state::<i64>(&mut srv, h, "MOCKTYPE", "fetch").unwrap(), 43);
}

#[test]
fn event_handlers_fire_through_any_server() {
    struct Flag(std::sync::atomic::AtomicBool);
    impl EventHandler for Flag {
        fn on_event(&self, event: DbEvent, _: &mut dyn ServerContext) -> Result<()> {
            if event == DbEvent::Rollback {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(())
        }
    }
    let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
    let mut srv = MockServer::default();
    srv.register_event_handler("f", flag.clone());
    let handlers = srv.handlers.clone();
    for (_, h) in handlers {
        h.on_event(DbEvent::Rollback, &mut srv).unwrap();
    }
    assert!(flag.0.load(std::sync::atomic::Ordering::SeqCst));
}

#[test]
fn mock_lob_interface_roundtrips() {
    let mut srv = MockServer::default();
    let lob = srv.lob_create().unwrap();
    srv.lob_append(lob, b"hello ").unwrap();
    srv.lob_append(lob, b"world").unwrap();
    assert_eq!(read_lob(&mut srv, lob, |b| Ok(b.to_vec())).unwrap(), b"hello world");
    assert_eq!(srv.lob_read(lob, 6, 5).unwrap(), b"world");
    srv.lob_overwrite(lob, b"x").unwrap();
    assert_eq!(srv.lob_length(lob).unwrap(), 1);
    srv.lob_free(lob).unwrap();
    assert!(read_lob(&mut srv, lob, |b| Ok(b.to_vec())).is_err());
}
