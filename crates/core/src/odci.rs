//! The ODCIIndex interface — the heart of the framework.
//!
//! The paper (§2.2.3): "Define a type or package that implements the index
//! interface, ODCIIndex. These methods handle the definition, maintenance
//! and scan of the domain indexes." [`OdciIndex`] is that interface. A
//! cartridge implements it once per indexing scheme; the host engine
//! invokes it implicitly:
//!
//! - `CREATE INDEX … INDEXTYPE IS …` → [`OdciIndex::create`]
//! - `ALTER INDEX … PARAMETERS (…)` → [`OdciIndex::alter`]
//! - `TRUNCATE TABLE` of the base table → [`OdciIndex::truncate`]
//! - `DROP INDEX` → [`OdciIndex::drop_index`]
//! - base-table `INSERT`/`UPDATE`/`DELETE` → the maintenance trio
//! - an indexable operator predicate chosen by the optimizer →
//!   [`OdciIndex::start_batch`] / [`OdciIndex::fetch`] / [`OdciIndex::close`],
//!   driven through [`fetch_batch`] / [`close_batch`]: one scan per batch
//!   of argument rows (a single-table scan is a batch of one, a domain
//!   join passes one batch of outer rows at a time)
//!
//! Implementations are stateless (Oracle's were STATIC member functions):
//! all per-index state lives in index storage tables reached via
//! [`ServerContext`] callbacks, and all per-scan state lives in the
//! [`ScanContext`].

use extidx_common::{Result, RowId, Value};

use crate::meta::{IndexInfo, OperatorCall};
use crate::params::ParamString;
use crate::scan::{FetchResult, FetchedRow, ScanContext};
use crate::server::{BaseRow, ServerContext};

/// The index implementation interface a cartridge supplies.
///
/// Routine-naming follows the paper (`ODCIIndexCreate` → `create`, …).
/// Every routine receives the index metadata ([`IndexInfo`]) and a
/// [`ServerContext`] whose [`CallbackMode`](crate::server::CallbackMode)
/// matches the routine class, so the engine can enforce the §2.5 callback
/// restrictions.
pub trait OdciIndex: Send + Sync {
    // ---- definition routines (Definition mode) ---------------------------

    /// `ODCIIndexCreate`: build the index storage (typically `CREATE
    /// TABLE`s via callbacks) and populate it from the base table if it
    /// already has rows.
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;

    /// `ODCIIndexAlter`: react to `ALTER INDEX … PARAMETERS`. `info`
    /// carries the *merged* parameters; `delta` is the newly supplied
    /// string alone.
    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, delta: &ParamString) -> Result<()>;

    /// `ODCIIndexTruncate`: clear index data (invoked when the base table
    /// is truncated — the paper notes there is no explicit statement for
    /// truncating a domain index).
    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;

    /// `ODCIIndexDrop`: tear down index storage.
    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;

    /// The argument positions at which this indextype's operators take the
    /// indexed column. A declaration, not a routine: the optimizer matches
    /// a domain index to an operator call only when the column stands at
    /// one of them (§2.4.2), so a scan never sees it anywhere else. The
    /// default is the first argument, `Contains(column, query)`; an
    /// operator relating two values of one type may take either
    /// (`Sdo_Relate(window, geometry, …)`).
    fn column_positions(&self) -> &'static [usize] {
        &[0]
    }

    /// External files backing this index, if any (empty for indexes whose
    /// data lives in database objects). The engine uses this for two
    /// recovery duties the cartridge cannot perform itself: force-removing
    /// orphaned files when a faulted `ODCIIndexDrop` is bypassed, and
    /// quarantining the index after a crash whose uncommitted tail touched
    /// one of these files.
    fn external_files(&self, info: &IndexInfo) -> Vec<String> {
        let _ = info;
        Vec::new()
    }

    /// Bulk-build path: index one batch of base-table rows (each carrying
    /// the indexed value in `values[0]`), with a hint of how many worker
    /// threads the build may use for CPU-side work. Called by streaming
    /// builds: `create`/`alter` call [`crate::build::populate_from_base`],
    /// which drives [`ServerContext::scan_base_batches`] into it.
    ///
    /// The default implementation keeps third-party cartridges working:
    /// it loops over [`OdciIndex::insert`] serially. Cartridges override
    /// it to fan the per-row CPU work across threads via
    /// [`crate::build::partition_map`] — server callbacks must stay on
    /// the calling thread either way.
    fn build_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        batch: &[BaseRow],
        _parallel: usize,
    ) -> Result<()> {
        for row in batch {
            self.insert(srv, info, row.rid, row.value())?;
        }
        Ok(())
    }

    // ---- maintenance routines (Maintenance mode) --------------------------

    /// `ODCIIndexInsert`: a base-table row gained the indexed value
    /// `new_value` at `rid`.
    fn insert(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        new_value: &Value,
    ) -> Result<()>;

    /// `ODCIIndexUpdate`: the indexed column at `rid` changed from
    /// `old_value` to `new_value`. The paper's guidance: delete the old
    /// entries, insert the new ones.
    fn update(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
        new_value: &Value,
    ) -> Result<()>;

    /// `ODCIIndexDelete`: the row at `rid` (indexed value `old_value`)
    /// was deleted.
    fn delete(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
    ) -> Result<()>;

    // ---- scan routines (Scan mode) ------------------------------------------

    /// `ODCIIndexStart`: begin evaluating `op` with this index. Returns
    /// the scan context threaded through fetch/close. Implementations
    /// choose Precompute-All (materialize results here) or Incremental
    /// (compute during fetch) — §2.2.3 describes both.
    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext>;

    /// `ODCIIndexFetch`: produce up to `nrows` more rowids satisfying the
    /// predicate (batch interface, §2.5). `done` in the result is the
    /// paper's null-rowid end-of-scan marker.
    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult>;

    /// `ODCIIndexClose`: release scan resources.
    fn close(&self, srv: &mut dyn ServerContext, info: &IndexInfo, ctx: ScanContext) -> Result<()>;

    /// `ODCIIndexStart` for a batch of argument rows (the batch interface
    /// of §2.5 applied to a domain join's outer rows): evaluate `call`
    /// once per row of `args`, each row holding what `call.args` would.
    /// [`OdciIndex::fetch`] then returns every row of every evaluation,
    /// each [`FetchedRow::arg`] naming its argument row. The host never
    /// passes a row with a NULL argument, nor an empty batch.
    ///
    /// The default keeps every cartridge working unchanged: it runs
    /// [`OdciIndex::start`] per argument row, and [`fetch_batch`] /
    /// [`close_batch`] drive the resulting scans one after another. A
    /// cartridge overrides it to answer the whole batch at once (the
    /// spatial indextypes merge the batch's windows with one read of their
    /// index).
    fn start_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        call: &OperatorCall,
        args: &[Vec<Value>],
    ) -> Result<ScanContext> {
        let one = |row: &Vec<Value>| OperatorCall { args: row.clone(), ..call.clone() };
        if let [row] = args {
            return self.start(srv, info, &one(row));
        }
        let mut passes = Vec::with_capacity(args.len());
        for row in args {
            match self.start(srv, info, &one(row)) {
                Ok(ctx) => passes.push(ctx),
                Err(e) => {
                    for ctx in passes {
                        let _ = self.close(srv, info, ctx);
                    }
                    return Err(e);
                }
            }
        }
        Ok(ScanContext::State(Box::new(PerRowScans { passes, at: 0 })))
    }
}

/// The scans the default [`OdciIndex::start_batch`] opens: one per
/// argument row, fetched in order, all closed by [`close_batch`].
struct PerRowScans {
    passes: Vec<ScanContext>,
    /// The argument row being fetched.
    at: usize,
}

/// `ODCIIndexFetch` on a scan opened by [`OdciIndex::start_batch`]: up to
/// `nrows` rows, tagged with their argument rows. A cartridge's own batch
/// scan is its [`OdciIndex::fetch`]; the default's per-row scans are
/// fetched in argument order, each asked once per call at most.
pub fn fetch_batch(
    index: &dyn OdciIndex,
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    ctx: &mut ScanContext,
    nrows: usize,
) -> Result<FetchResult> {
    let Some(scans) = ctx.state_mut::<PerRowScans>() else {
        return index.fetch(srv, info, ctx, nrows);
    };
    let mut rows = Vec::new();
    while rows.len() < nrows && scans.at < scans.passes.len() {
        let at = scans.at;
        let r = index.fetch(srv, info, &mut scans.passes[at], nrows - rows.len())?;
        rows.extend(r.rows.into_iter().map(|row| row.for_arg(at)));
        if !r.done {
            break;
        }
        scans.at += 1;
    }
    Ok(FetchResult { rows, done: scans.at == scans.passes.len() })
}

/// `ODCIIndexClose` on a scan opened by [`OdciIndex::start_batch`]. The
/// default's per-row scans are all closed, even when one close fails; the
/// first failure is returned.
pub fn close_batch(
    index: &dyn OdciIndex,
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    ctx: ScanContext,
) -> Result<()> {
    let scans = match ctx {
        ScanContext::State(state) if state.is::<PerRowScans>() => {
            state.downcast::<PerRowScans>().expect("checked type")
        }
        ctx => return index.close(srv, info, ctx),
    };
    let mut first = Ok(());
    for ctx in scans.passes {
        let closed = index.close(srv, info, ctx);
        if first.is_ok() {
            first = closed;
        }
    }
    first
}

/// Drain an entire scan through the batch interface — convenience for
/// callers (and tests) that want all rowids at once. Honors `batch_size`
/// per fetch call, mirroring how the engine's executor drives scans.
pub fn drain_scan(
    index: &dyn OdciIndex,
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    op: &OperatorCall,
    batch_size: usize,
) -> Result<Vec<FetchedRow>> {
    let mut ctx = index.start(srv, info, op)?;
    let mut out = Vec::new();
    loop {
        let batch = index.fetch(srv, info, &mut ctx, batch_size)?;
        out.extend(batch.rows);
        if batch.done {
            break;
        }
    }
    index.close(srv, info, ctx)?;
    Ok(out)
}
