//! # extidx-storage
//!
//! The storage substrate standing in for Oracle8i's storage layer in the
//! extensible-indexing reproduction. It provides every storage construct
//! the paper says domain indexes are built from (§2.5: "The index data can
//! be stored within the database itself in heap tables, index-organized
//! tables and in Large Objects (LOBs). The index data can also be stored
//! outside the database as files"):
//!
//! - [`heap::HeapTable`] — slotted-page heap segments addressed by
//!   [`RowId`](extidx_common::RowId);
//! - [`iot::IndexOrganizedTable`] — B-tree-organized tables keyed by a
//!   [`Key`](extidx_common::Key) prefix (the paper notes IOTs are the most
//!   common domain-index data store);
//! - [`lob::LobStore`] — out-of-line large objects with a file-like
//!   read/write interface (used by the Daylight chemistry case study);
//! - [`file_store::FileStore`] — storage *outside* the database, with
//!   operation counters, for the pre-8i file-index baselines;
//! - [`buffer::BufferCache`] — an LRU page cache that converts every page
//!   touch into logical/physical I/O statistics, so experiments can report
//!   the paper's "reduced I/O" claims quantitatively;
//! - [`undo::UndoLog`] — row-level undo enabling transaction rollback,
//!   one log per open transaction, kept by the engine beside its
//!   [`TxnManager`] and reached from outside only as savepoint marks; the
//!   key point reproduced here is that **domain-index data stored in
//!   database objects rolls back for free**, while file-stored index data
//!   does not (paper §5);
//! - [`engine::StorageEngine`] — the façade that owns all segments and
//!   funnels every mutation through the buffer cache, WAL and the driving
//!   transaction's undo log (no mutator takes a log), and every heap/IOT
//!   read through one snapshot-pinned function per access shape (there is
//!   no snapshot-blind read to call instead).

pub mod buffer;
pub mod engine;
pub mod file_store;
pub mod heap;
pub mod iot;
pub mod lob;
pub mod mvcc;
pub mod page;
pub mod undo;
pub mod wal;

pub use buffer::{BufferCache, CacheStats};
pub use engine::StorageEngine;
pub use mvcc::{Snapshot, TxnManager, TxnStatus, WriteKey, WriteRef};
pub use page::{SegmentId, PAGE_SIZE};
pub use wal::{
    CommitBlob, DurableMedium, EngineSnapshot, RecoveryImage, WalRecord, WalStats,
    WAL_FAULT_POINTS,
};
