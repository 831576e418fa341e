//! Index-scan contexts and fetch results.
//!
//! The paper (§2.2.3) describes the scan protocol: `ODCIIndexStart`
//! initializes and returns a *scan context* that the server passes back
//! into every `ODCIIndexFetch` and the final `ODCIIndexClose`. Two context
//! mechanisms are specified:
//!
//! - **Return State** — small state travels with the call as the context
//!   object itself;
//! - **Return Handle** — large state (e.g. a precomputed result set) stays
//!   in a server-side workspace "allocated for the duration of the
//!   statement", and only a handle travels.
//!
//! [`ScanContext`] models both. The workspace arena lives in the server
//! (see [`crate::server::ServerContext::workspace_put`]) and is torn down
//! at statement end, matching the paper.
//!
//! `ODCIIndexFetch` "supports returning a single row or a batch of rows in
//! each call", with scan end signalled by a null row identifier —
//! [`FetchResult`] carries the batch and a `done` flag playing the role of
//! that null.

use std::any::Any;

use extidx_common::{RowId, Value};

/// Handle naming a workspace entry held by the server for the duration of
/// one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkspaceHandle(pub u64);

/// Scan state as defined by the cartridge. Boxed as `Any` so the
/// framework stays agnostic of each cartridge's state type; cartridges
/// downcast on re-entry, which mirrors Oracle's opaque SELF object.
pub type BoxedScanState = Box<dyn Any + Send>;

/// The scan context returned by `ODCIIndexStart` and threaded through
/// `ODCIIndexFetch`/`ODCIIndexClose`.
pub enum ScanContext {
    /// "Return State": the cartridge's (small) state object itself.
    State(BoxedScanState),
    /// "Return Handle": state lives in the server's statement workspace.
    Handle(WorkspaceHandle),
}

impl ScanContext {
    /// Downcast a `State` context to the cartridge's concrete state type.
    /// Returns `None` for `Handle` contexts or a type mismatch.
    pub fn state_mut<T: 'static>(&mut self) -> Option<&mut T> {
        match self {
            ScanContext::State(b) => b.downcast_mut::<T>(),
            ScanContext::Handle(_) => None,
        }
    }

    /// The handle, if this is a `Handle` context.
    pub fn handle(&self) -> Option<WorkspaceHandle> {
        match self {
            ScanContext::Handle(h) => Some(*h),
            ScanContext::State(_) => None,
        }
    }
}

impl std::fmt::Debug for ScanContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanContext::State(_) => write!(f, "ScanContext::State(..)"),
            ScanContext::Handle(h) => write!(f, "ScanContext::Handle({})", h.0),
        }
    }
}

/// One row produced by an index scan: the base-table rowid plus optional
/// ancillary data (the paper's `Score`-style auxiliary value, §2.4.2),
/// and which argument row of the scan it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedRow {
    pub rowid: RowId,
    /// Ancillary value produced by the scan for this row (e.g. a text
    /// relevance score), retrievable through an ancillary operator.
    pub ancillary: Option<Value>,
    /// Ordinal of the argument row this row satisfies the operator for,
    /// in the slice [`crate::OdciIndex::start_batch`] was given; `0` in a
    /// scan of one argument row.
    pub arg: usize,
}

impl FetchedRow {
    /// Row with no ancillary data.
    pub fn plain(rowid: RowId) -> Self {
        FetchedRow { rowid, ancillary: None, arg: 0 }
    }

    /// Row with an ancillary value attached.
    pub fn with_ancillary(rowid: RowId, v: Value) -> Self {
        FetchedRow { rowid, ancillary: Some(v), arg: 0 }
    }

    /// The same row, answering argument row `arg`.
    pub fn for_arg(self, arg: usize) -> Self {
        FetchedRow { arg, ..self }
    }
}

/// Result of one `ODCIIndexFetch` call: up to `nrows` rows, plus whether
/// the scan is exhausted (the paper's "null row identifier" end marker).
#[derive(Debug, Clone, Default)]
pub struct FetchResult {
    pub rows: Vec<FetchedRow>,
    pub done: bool,
}

impl FetchResult {
    /// An exhausted scan with no rows.
    pub fn end() -> Self {
        FetchResult { rows: Vec::new(), done: true }
    }

    /// A batch with more rows possibly remaining.
    pub fn batch(rows: Vec<FetchedRow>) -> Self {
        FetchResult { rows, done: false }
    }

    /// A final batch: these rows, then end-of-scan.
    pub fn last_batch(rows: Vec<FetchedRow>) -> Self {
        FetchResult { rows, done: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MyState {
        cursor: usize,
    }

    #[test]
    fn state_context_downcasts() {
        let mut ctx = ScanContext::State(Box::new(MyState { cursor: 7 }));
        let s = ctx.state_mut::<MyState>().unwrap();
        assert_eq!(s.cursor, 7);
        s.cursor = 8;
        assert_eq!(ctx.state_mut::<MyState>().unwrap().cursor, 8);
        assert!(ctx.handle().is_none());
    }

    #[test]
    fn wrong_type_downcast_is_none() {
        let mut ctx = ScanContext::State(Box::new(MyState { cursor: 0 }));
        assert!(ctx.state_mut::<String>().is_none());
    }

    #[test]
    fn handle_context() {
        let mut ctx = ScanContext::Handle(WorkspaceHandle(42));
        assert_eq!(ctx.handle(), Some(WorkspaceHandle(42)));
        assert!(ctx.state_mut::<MyState>().is_none());
    }

    #[test]
    fn fetch_result_constructors() {
        assert!(FetchResult::end().done);
        assert!(FetchResult::end().rows.is_empty());
        let r = FetchResult::batch(vec![FetchedRow::plain(RowId::new(1, 0, 0))]);
        assert!(!r.done);
        assert_eq!(r.rows.len(), 1);
        let l = FetchResult::last_batch(vec![]);
        assert!(l.done);
    }

    #[test]
    fn ancillary_row() {
        let r = FetchedRow::with_ancillary(RowId::new(1, 0, 0), Value::Number(0.92));
        assert_eq!(r.ancillary, Some(Value::Number(0.92)));
        assert_eq!(FetchedRow::plain(RowId::new(1, 0, 0)).ancillary, None);
    }
}
