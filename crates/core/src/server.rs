//! Server callbacks — how cartridge code talks back to the database.
//!
//! The paper (§2.5): "The index routines typically use SQL to access and
//! manipulate index data. The SQL statements executed by the indexing
//! logic are referred to as *server callbacks*." [`ServerContext`] is the
//! callback surface handed to every ODCI routine. It offers:
//!
//! - parameterized SQL execution (`execute`/`query`) against the host
//!   engine, which is how cartridges create, maintain, and search their
//!   index storage tables;
//! - the LOB interface (file-like, per §3.2.4);
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

use extidx_common::{LobRef, Result, Row, RowId, Value};

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

/// Callback type for [`ServerContext::scan_base_batches`].
pub type BatchSink<'a> = dyn FnMut(&mut dyn ServerContext, &[BaseRow]) -> Result<()> + 'a;

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

    // ---- LOB interface (file-like, §3.2.4) --------------------------------

    /// Allocate a new empty LOB.
    fn lob_create(&mut self) -> Result<LobRef>;
    /// LOB length in bytes.
    fn lob_length(&mut self, lob: LobRef) -> Result<u64>;
    /// Read `len` bytes at `offset`.
    fn lob_read(&mut self, lob: LobRef, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Read the whole LOB.
    fn lob_read_all(&mut self, lob: LobRef) -> Result<Vec<u8>>;
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
            extidx_common::Error::odci(indextype, routine, "scan workspace state missing or of wrong type")
        })
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
                return Err(extidx_common::Error::Semantic(format!(
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
