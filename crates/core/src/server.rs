//! Server callbacks — how cartridge code talks back to the database.
//!
//! The paper (§2.5): "The index routines typically use SQL to access and
//! manipulate index data. The SQL statements executed by the indexing
//! logic are referred to as *server callbacks*." [`ServerContext`] is the
//! callback surface handed to every ODCI routine. It offers:
//!
//! - parameterized SQL execution (`execute`/`query`) against the host
//!   engine, which is how cartridges create, maintain, and search their
//!   index storage tables, the base-table rowid join
//!   (`fetch_base_rows`) their scans verify candidates with, and the
//!   in-place key-range read of an index-organized table
//!   (`read_key_range`) their scans read their index data with — both
//!   lend what they read, in storage, for the length of a visitor call;
//! - the LOB interface (file-like, per §3.2.4), whose whole-LOB read
//!   lends the snapshot's image the same way;
//! - the statement-duration workspace backing "Return Handle" scan
//!   contexts (§2.2.3);
//! - database-event registration (§5's proposed mechanism for external
//!   index stores);
//! - access to *external* (outside-the-database) storage for file-based
//!   index schemes, which deliberately bypasses transactions.
//!
//! [`CallbackMode`] encodes the paper's §2.5 restrictions: "Index
//! maintenance routines can not execute DDL statements. Also, these
//! routines cannot update the base table… Index scan routines can only
//! execute SQL query statements. There are no restrictions on the index
//! definition routines." The host engine enforces these on every callback.

use std::any::Any;
use std::sync::Arc;

use extidx_common::{Error, LobRef, Result, Row, RowId, Value};

use crate::events::EventHandler;
use crate::scan::WorkspaceHandle;

/// Which class of ODCI routine is currently calling back into the server,
/// determining which SQL statements are permitted (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallbackMode {
    /// Index definition routines (create/alter/truncate/drop): no
    /// restrictions.
    Definition,
    /// Index maintenance routines (insert/update/delete): no DDL, and no
    /// DML against the base table being indexed.
    Maintenance,
    /// Index scan routines (start/fetch/close): queries only.
    Scan,
}

/// One base-table row delivered to a streaming index build: its rowid and
/// the requested columns (in the order they were asked for). For index
/// builds the indexed column is requested alone, so `values[0]` is the
/// value to index.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseRow {
    pub rid: RowId,
    pub values: Row,
}

impl BaseRow {
    /// The indexed value when a single column was requested.
    pub fn value(&self) -> &Value {
        static NULL: Value = Value::Null;
        self.values.first().unwrap_or(&NULL)
    }
}

/// One query callback as a closure: a cartridge's
/// `|sql, binds| srv.query(sql, binds)`, or a client's `Database::query_with`,
/// so a cartridge's read helper serves its scan and a harness alike.
pub type RunQuery<'a> = dyn FnMut(&str, &[Value]) -> Result<Vec<Row>> + 'a;

/// Callback type for [`ServerContext::scan_base_batches`].
pub type BatchSink<'a> = dyn FnMut(&mut dyn ServerContext, &[BaseRow]) -> Result<()> + 'a;

/// Callback type for [`ServerContext::read_key_range`]: handed each stored
/// row, lent for the call, in the table's column order.
pub type RowVisitor<'a> = dyn FnMut(&[Value]) -> Result<()> + 'a;

/// Callback type for [`ServerContext::fetch_base_rows`]: handed each
/// visible candidate's position in the rowid list and its projected
/// values, lent for the call.
pub type BaseRowVisitor<'a> = dyn FnMut(usize, &[&Value]) -> Result<()> + 'a;

/// Callback type for [`ServerContext::lob_read_all`]: handed the whole LOB
/// as the crossing's snapshot sees it, lent for the call.
pub type LobVisitor<'a> = dyn FnMut(&[u8]) -> Result<()> + 'a;

/// One key-range read as a closure: a cartridge's
/// `|t, k, lo, hi, v| srv.read_key_range(t, k, lo, hi, v)`, or
/// [`read_key_range_via_query`] over a client's `Database::query_with`, so
/// a cartridge's read helper serves its scan and a harness alike.
pub type KeyRangeRead<'a> =
    dyn FnMut(&str, &str, &Value, &Value, &mut RowVisitor) -> Result<()> + 'a;

/// The callback surface the server hands to every ODCI routine.
pub trait ServerContext {
    /// The restriction mode this context was issued under.
    fn mode(&self) -> CallbackMode;

    /// Execute a DDL or DML statement. `?` placeholders are substituted
    /// from `binds` left-to-right. Returns affected row count.
    fn execute(&mut self, sql: &str, binds: &[Value]) -> Result<u64>;

    /// Execute a query, returning all rows. `?` placeholders as above.
    fn query(&mut self, sql: &str, binds: &[Value]) -> Result<Vec<Row>>;

    /// Stream the base table to an index build in bounded batches instead
    /// of materializing it with one big `query`. `cols` are the column
    /// names to project; each [`BaseRow`] carries them plus the rowid. The
    /// sink receives this same context, so it can issue callbacks (insert
    /// postings, write LOBs, …) between batches while only `batch_size`
    /// rows are ever held in memory.
    ///
    /// A host engine streams from its own snapshot-pinned table scan
    /// (the SQL engine's `BaseScan`; index builds read everything
    /// committed plus their own transaction, and are refused with a
    /// retryable write conflict, before the first batch, while another
    /// transaction has uncommitted changes in the table — so scan before
    /// destroying what the scan is to replace). It is a required method
    /// (not defaulted) only because a default body cannot coerce
    /// `&mut Self` to `&mut dyn ServerContext` — mock servers without a
    /// native scan delegate to [`scan_base_batches_via_query`], which
    /// materializes one whole query result.
    fn scan_base_batches(
        &mut self,
        table: &str,
        cols: &[&str],
        batch_size: usize,
        sink: &mut BatchSink,
    ) -> Result<()>;

    /// Visit the base-table rows at `rids`, projected to `cols`: `visit`
    /// gets each visible row's position in `rids` and its values, lent for
    /// the call, in `rids` order; a rowid with no visible row is skipped.
    /// This is the rowid join a scan's exact filter or verification step
    /// reads its candidates with, as one set instead of one
    /// `WHERE ROWID = ?` query per candidate, and without a copy of any
    /// row.
    ///
    /// A host engine reads its own base table in page order under the
    /// crossing's snapshot; the default, for servers without one, runs
    /// that query once per rowid.
    fn fetch_base_rows(
        &mut self,
        table: &str,
        cols: &[&str],
        rids: &[RowId],
        visit: &mut BaseRowVisitor,
    ) -> Result<()> {
        let sql = format!("SELECT {} FROM {table} WHERE ROWID = ?", cols.join(", "));
        for (i, rid) in rids.iter().enumerate() {
            if let Some(row) = self.query(&sql, &[Value::RowId(*rid)])?.first() {
                visit(i, &row.iter().collect::<Vec<_>>())?;
            }
        }
        Ok(())
    }

    /// Visit, in key order, every stored row of the index-organized
    /// `table` whose leading key column `key_col` lies in `lo..=hi`, each
    /// lent to `visit` as the table's whole row. A NULL bound, or `lo`
    /// above `hi`, visits nothing. This is how a scan reads its index
    /// table (a posting list, a tile span, a node run) without a
    /// statement per read and without a copy of every row.
    ///
    /// A host engine pages its own IOT range under the crossing's
    /// snapshot; it refuses a heap table or any column but the leading
    /// key column with [`extidx_common::Error::CallbackViolation`]. The
    /// default, for servers without one, runs the range as one query.
    fn read_key_range(
        &mut self,
        table: &str,
        key_col: &str,
        lo: &Value,
        hi: &Value,
        visit: &mut RowVisitor,
    ) -> Result<()> {
        read_key_range_via_query(&mut |sql, b| self.query(sql, b), table, key_col, lo, hi, visit)
    }

    // ---- LOB interface (file-like, §3.2.4) --------------------------------

    /// Allocate a new empty LOB.
    fn lob_create(&mut self) -> Result<LobRef>;
    /// LOB length in bytes.
    fn lob_length(&mut self, lob: LobRef) -> Result<u64>;
    /// Read `len` bytes at `offset`.
    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Read the whole LOB: `visit` is called once with its bytes as the
    /// crossing's snapshot sees them, lent for the call (see [`read_lob`]
    /// for the by-value form).
    fn lob_read_all(&mut self, lob: LobRef, visit: &mut LobVisitor) -> Result<()>;
    /// Write bytes at `offset`.
    fn lob_write(&mut self, lob: LobRef, offset: u64, bytes: &[u8]) -> Result<()>;
    /// Append bytes; returns the offset written at.
    fn lob_append(&mut self, lob: LobRef, bytes: &[u8]) -> Result<u64>;
    /// Replace the whole LOB.
    fn lob_overwrite(&mut self, lob: LobRef, bytes: &[u8]) -> Result<()>;
    /// Free the LOB.
    fn lob_free(&mut self, lob: LobRef) -> Result<()>;

    // ---- statement workspace (Return Handle contexts, §2.2.3) ------------

    /// Park state in the statement workspace; returns its handle.
    fn workspace_put(&mut self, state: Box<dyn Any + Send>) -> WorkspaceHandle;
    /// Borrow parked state mutably.
    fn workspace_get(&mut self, handle: WorkspaceHandle) -> Option<&mut (dyn Any + Send)>;
    /// Remove parked state (scan close).
    fn workspace_take(&mut self, handle: WorkspaceHandle) -> Option<Box<dyn Any + Send>>;

    // ---- database events (§5) ---------------------------------------------

    /// Register a handler invoked on commit/rollback. Re-registering the
    /// same name replaces the handler.
    fn register_event_handler(&mut self, name: &str, handler: Arc<dyn EventHandler>);

    // ---- fault injection ---------------------------------------------------

    /// Declare a named intra-routine fault point. Cartridges call this at
    /// internal milestones (after partial effects are applied, before an
    /// external write, …) so the host's [`crate::fault::FaultInjector`]
    /// can force failures *inside* a routine, not just at its entry.
    /// Defaults to a no-op for contexts without an injector.
    fn fault_point(&mut self, point: &str) -> Result<()> {
        let _ = point;
        Ok(())
    }

    // ---- external storage (§5 limitation) ----------------------------------
    //
    // Outside-the-database file storage for file-based index schemes.
    // These operations are **not transactional**: they are invisible to
    // undo, which is exactly the §5 limitation the events mechanism
    // compensates for.

    /// Create (or truncate) an external file.
    fn file_create(&mut self, name: &str) -> Result<()>;
    /// Whether an external file exists.
    fn file_exists(&mut self, name: &str) -> bool;
    /// Delete an external file.
    fn file_remove(&mut self, name: &str) -> Result<()>;
    /// Read a whole external file.
    fn file_read(&mut self, name: &str) -> Result<Vec<u8>>;
    /// Replace a whole external file.
    fn file_write(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Append to an external file.
    fn file_append(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Persist intermediate state (legacy engines checkpoint per update).
    fn file_flush(&mut self, name: &str) -> Result<()>;
    /// External file length in bytes.
    fn file_length(&mut self, name: &str) -> Result<u64>;
}

/// Helper for cartridge workspace state: downcast a workspace entry to a
/// concrete type, with a uniform error when the handle or type is wrong.
pub fn workspace_state<'a, T: 'static>(
    srv: &'a mut dyn ServerContext,
    handle: WorkspaceHandle,
    indextype: &str,
    routine: &'static str,
) -> Result<&'a mut T> {
    srv.workspace_get(handle)
        .and_then(|any| any.downcast_mut::<T>())
        .ok_or_else(|| {
            Error::odci(indextype, routine, "scan workspace state missing or of wrong type")
        })
}

/// [`ServerContext::lob_read_all`] as a value: `f` of the lent image.
pub fn read_lob<T>(
    srv: &mut dyn ServerContext,
    lob: LobRef,
    f: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<T> {
    let (mut f, mut out) = (Some(f), None);
    srv.lob_read_all(lob, &mut |bytes| {
        if let Some(f) = f.take() {
            out = Some(f(bytes)?);
        }
        Ok(())
    })?;
    out.ok_or_else(|| Error::Storage(format!("{lob}: the LOB read lent no image")))
}

/// Query-based form of [`ServerContext::read_key_range`]: one
/// `SELECT * … WHERE key_col >= ? AND key_col <= ?` through `run`, its
/// rows visited in the order the query returns them (key order, on an
/// index-organized table). The trait's default body, and what a harness
/// holding only a client runs.
pub fn read_key_range_via_query(
    run: &mut RunQuery,
    table: &str,
    key_col: &str,
    lo: &Value,
    hi: &Value,
    visit: &mut RowVisitor,
) -> Result<()> {
    let sql = format!("SELECT * FROM {table} WHERE {key_col} >= ? AND {key_col} <= ?");
    for row in run(&sql, &[lo.clone(), hi.clone()])? {
        visit(&row)?;
    }
    Ok(())
}

/// Query-based fallback for [`ServerContext::scan_base_batches`]: one
/// `SELECT cols…, ROWID FROM table`, chunked into `batch_size` batches.
/// Materializes the whole result (the behavior the streaming API exists
/// to avoid) — intended for mock servers and third-party contexts that
/// have no native heap scan.
pub fn scan_base_batches_via_query(
    srv: &mut dyn ServerContext,
    table: &str,
    cols: &[&str],
    batch_size: usize,
    sink: &mut BatchSink,
) -> Result<()> {
    let sql = format!("SELECT {}, ROWID FROM {}", cols.join(", "), table);
    let rows = srv.query(&sql, &[])?;
    let ncols = cols.len();
    let batch_size = batch_size.max(1);
    let mut batch = Vec::with_capacity(batch_size);
    for mut row in rows {
        let rid = match row.get(ncols) {
            Some(Value::RowId(rid)) => *rid,
            other => {
                return Err(Error::Semantic(format!(
                    "scan_base_batches fallback: expected ROWID in column {ncols}, got {other:?}"
                )))
            }
        };
        row.truncate(ncols);
        batch.push(BaseRow { rid, values: row });
        if batch.len() >= batch_size {
            sink(srv, &batch)?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        sink(srv, &batch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callback_modes_are_distinct() {
        assert_ne!(CallbackMode::Definition, CallbackMode::Maintenance);
        assert_ne!(CallbackMode::Maintenance, CallbackMode::Scan);
    }
}
