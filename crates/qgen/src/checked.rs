//! The plug-in boundary, checked.
//!
//! [`crate::checked_db`] registers every indextype's implementation wrapped
//! in a [`Checked`] [`OdciIndex`], which forwards every routine —
//! `start_batch` included, so each cartridge's own batching still runs —
//! and records in the engine's [`Crossings`] the two things only a
//! crossing can see (§2.2.3's scan protocol, DESIGN.md §4b "Domain join"):
//! an argument row holding a NULL that reached `ODCIIndexStart` (a NULL
//! operand makes the operator NULL, so the host must answer it without
//! the cartridge), and a Start not Closed by the end of its statement.
//! It also counts, per base table, the argument rows Starts were given,
//! which the differential oracle's join form checks. Under
//! [`crate::ChaosOpts::drop_last_batch`] the wrapper is the planted bug:
//! it drops the rows of every fetch that reports `done`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use extidx_common::{Result, RowId, Value};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::odci::{close_batch, fetch_batch, OdciIndex};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::{BaseRow, ServerContext};

/// What the [`Checked`] wrappers of one engine saw since the last
/// [`Crossings::take`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Seen {
    /// Argument rows given to `ODCIIndexStart`, per base table.
    pub started: BTreeMap<String, usize>,
    /// Scans started and not closed.
    pub open: usize,
    /// Contract breaches, described.
    pub breaches: Vec<String>,
}

/// The record one engine's wrappers share.
#[derive(Debug, Default)]
pub struct Crossings(Mutex<Seen>);

impl Crossings {
    /// What was seen since the last call, and a fresh start.
    pub fn take(&self) -> Seen {
        std::mem::take(&mut *self.0.lock().unwrap())
    }

    /// Where a statement has ended: `Some(what)` if a breach was seen or a
    /// scan is still open.
    pub fn verdict(&self) -> Option<String> {
        let mut seen = self.take();
        if seen.open > 0 {
            seen.breaches.push(format!("{} ODCIIndexStart without ODCIIndexClose", seen.open));
        }
        (!seen.breaches.is_empty()).then(|| seen.breaches.join("; "))
    }
}

/// A registered implementation, forwarded to and checked.
pub struct Checked {
    pub inner: Arc<dyn OdciIndex>,
    pub crossings: Arc<Crossings>,
    /// Drop the rows of every fetch that reports `done`.
    pub drop_last_batch: bool,
}

/// The inner implementation's scan, behind the wrapper's.
struct CheckedScan(ScanContext);

/// Routines that pass straight through to the wrapped implementation.
macro_rules! forward {
    ($($routine:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        $(fn $routine(&self, $($arg: $ty),*) -> $ret {
            self.inner.$routine($($arg),*)
        })*
    };
}

impl OdciIndex for Checked {
    forward! {
        create(srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;
        alter(srv: &mut dyn ServerContext, info: &IndexInfo, delta: &ParamString) -> Result<()>;
        truncate(srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;
        drop_index(srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;
        column_positions() -> &'static [usize];
        external_files(info: &IndexInfo) -> Vec<String>;
        build_batch(srv: &mut dyn ServerContext, info: &IndexInfo, rows: &[BaseRow], n: usize)
            -> Result<()>;
        insert(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, new: &Value)
            -> Result<()>;
        update(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, old: &Value, new: &Value)
            -> Result<()>;
        delete(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, old: &Value)
            -> Result<()>;
    }

    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        let call = OperatorCall { args: Vec::new(), ..op.clone() };
        self.start_batch(srv, info, &call, std::slice::from_ref(&op.args))
    }

    fn start_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        call: &OperatorCall,
        args: &[Vec<Value>],
    ) -> Result<ScanContext> {
        if let Some(row) = args.iter().find(|r| r.iter().any(Value::is_null)) {
            let what = format!("ODCIIndexStart given the argument row {row:?}");
            self.crossings.0.lock().unwrap().breaches.push(format!("{}: {what}", info.index_name));
        }
        let ctx = self.inner.start_batch(srv, info, call, args)?;
        let mut seen = self.crossings.0.lock().unwrap();
        seen.open += 1;
        *seen.started.entry(info.table_name.clone()).or_default() += args.len();
        Ok(ScanContext::State(Box::new(CheckedScan(ctx))))
    }

    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        let scan = ctx.state_mut::<CheckedScan>().expect("a scan the wrapper started");
        let mut fetched = fetch_batch(&*self.inner, srv, info, &mut scan.0, nrows)?;
        if self.drop_last_batch && fetched.done {
            fetched.rows.clear();
        }
        Ok(fetched)
    }

    fn close(&self, srv: &mut dyn ServerContext, info: &IndexInfo, ctx: ScanContext) -> Result<()> {
        let ScanContext::State(state) = ctx else { panic!("a scan the wrapper started") };
        let scan = state.downcast::<CheckedScan>().expect("a scan the wrapper started");
        let mut seen = self.crossings.0.lock().unwrap();
        match seen.open.checked_sub(1) {
            Some(open) => seen.open = open,
            None => seen.breaches.push(format!("{}: Close without a Start", info.index_name)),
        }
        drop(seen);
        close_batch(&*self.inner, srv, info, scan.0)
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use extidx_common::{LobRef, Row, SqlType};
    use extidx_core::events::EventHandler;
    use extidx_core::scan::WorkspaceHandle;
    use extidx_core::server::{BatchSink, CallbackMode, LobVisitor};

    use super::*;

    /// A server no routine below calls back.
    struct NoServer;

    #[rustfmt::skip]
    impl ServerContext for NoServer {
        fn mode(&self) -> CallbackMode { CallbackMode::Scan }
        fn execute(&mut self, _: &str, _: &[Value]) -> Result<u64> { unreachable!() }
        fn query(&mut self, _: &str, _: &[Value]) -> Result<Vec<Row>> { unreachable!() }
        fn scan_base_batches(&mut self, _: &str, _: &[&str], _: usize, _: &mut BatchSink)
            -> Result<()> { unreachable!() }
        fn lob_create(&mut self) -> Result<LobRef> { unreachable!() }
        fn lob_length(&mut self, _: LobRef) -> Result<u64> { unreachable!() }
        fn lob_read(&mut self, _: LobRef, _: u64, _: usize) -> Result<Vec<u8>> { unreachable!() }
        fn lob_read_all(&mut self, _: LobRef, _: &mut LobVisitor) -> Result<()> { unreachable!() }
        fn lob_write(&mut self, _: LobRef, _: u64, _: &[u8]) -> Result<()> { unreachable!() }
        fn lob_append(&mut self, _: LobRef, _: &[u8]) -> Result<u64> { unreachable!() }
        fn lob_overwrite(&mut self, _: LobRef, _: &[u8]) -> Result<()> { unreachable!() }
        fn lob_free(&mut self, _: LobRef) -> Result<()> { unreachable!() }
        fn workspace_put(&mut self, _: Box<dyn Any + Send>) -> WorkspaceHandle { unreachable!() }
        fn workspace_get(&mut self, _: WorkspaceHandle) -> Option<&mut (dyn Any + Send)>
            { unreachable!() }
        fn workspace_take(&mut self, _: WorkspaceHandle) -> Option<Box<dyn Any + Send>>
            { unreachable!() }
        fn register_event_handler(&mut self, _: &str, _: Arc<dyn EventHandler>) { unreachable!() }
        fn file_create(&mut self, _: &str) -> Result<()> { unreachable!() }
        fn file_exists(&mut self, _: &str) -> bool { unreachable!() }
        fn file_remove(&mut self, _: &str) -> Result<()> { unreachable!() }
        fn file_read(&mut self, _: &str) -> Result<Vec<u8>> { unreachable!() }
        fn file_write(&mut self, _: &str, _: &[u8]) -> Result<()> { unreachable!() }
        fn file_append(&mut self, _: &str, _: &[u8]) -> Result<()> { unreachable!() }
        fn file_flush(&mut self, _: &str) -> Result<()> { unreachable!() }
        fn file_length(&mut self, _: &str) -> Result<u64> { unreachable!() }
    }

    /// A cartridge whose every scan is empty; nothing else is called.
    struct Empty;

    #[rustfmt::skip]
    impl OdciIndex for Empty {
        fn create(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> { unreachable!() }
        fn alter(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &ParamString) -> Result<()>
            { unreachable!() }
        fn truncate(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> { unreachable!() }
        fn drop_index(&self, _: &mut dyn ServerContext, _: &IndexInfo) -> Result<()> { unreachable!() }
        fn insert(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value)
            -> Result<()> { unreachable!() }
        fn update(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value, _: &Value)
            -> Result<()> { unreachable!() }
        fn delete(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: RowId, _: &Value)
            -> Result<()> { unreachable!() }
        fn start(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &OperatorCall)
            -> Result<ScanContext> { Ok(ScanContext::State(Box::new(()))) }
        fn fetch(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: &mut ScanContext, _: usize)
            -> Result<FetchResult> { Ok(FetchResult::end()) }
        fn close(&self, _: &mut dyn ServerContext, _: &IndexInfo, _: ScanContext) -> Result<()>
            { Ok(()) }
    }

    #[test]
    fn the_wrapper_reports_a_null_argument_row_and_an_unclosed_start() {
        let crossings = Arc::new(Crossings::default());
        let inner = Arc::new(Empty);
        let checked = Checked { inner, crossings: crossings.clone(), drop_last_batch: false };
        let info = IndexInfo {
            index_name: "PX".into(),
            indextype_name: "EMPTY".into(),
            table_name: "PARCELS".into(),
            column_name: "GEOMETRY".into(),
            column_type: SqlType::Number,
            parameters: ParamString::default(),
        };
        let call = OperatorCall::simple("SDO_RELATE", Vec::new());
        let srv = &mut NoServer;
        let rows = [vec![Value::Integer(1)], vec![Value::Null], vec![Value::Integer(3)]];
        let mut ctx = checked.start_batch(srv, &info, &call, &rows).unwrap();
        assert!(checked.fetch(srv, &info, &mut ctx, 8).unwrap().done);
        let verdict = crossings.verdict().expect("two breaches");
        assert!(verdict.contains("PX: ODCIIndexStart given the argument row [Null]"), "{verdict}");
        assert!(verdict.contains("1 ODCIIndexStart without ODCIIndexClose"), "{verdict}");

        // Balanced and NULL-free: nothing to report, and the rows counted.
        let ctx = checked.start_batch(srv, &info, &call, &rows[..1]).unwrap();
        checked.close(srv, &info, ctx).unwrap();
        let seen = crossings.take();
        assert_eq!((seen.open, seen.breaches.len(), seen.started["PARCELS"]), (0, 0, 1));
    }
}
