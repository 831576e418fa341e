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
//!   one log per transaction, kept by the engine beside its [`TxnManager`]
//!   and reached from outside only as savepoint marks; its entries are the
//!   one copy of every displaced before-image; the key point reproduced
//!   here is that **domain-index data stored in database objects rolls
//!   back for free**, while file-stored index data does not (paper §5);
//! - [`mvcc`] — the transaction manager and the overlay version store:
//!   one [`RowChain`](mvcc::RowChain) type for heap rows (by rowid) and
//!   IOT rows (by key), with one visibility rule, one write check, one
//!   rollback pop and one prune rule — a heap delete is deferred and an IOT
//!   delete immediate, and that is the only difference — plus byte-span
//!   chains for LOBs; a displaced version names the undo entry holding its
//!   image, which lives until no version points into it;
//! - [`engine::StorageEngine`] — the façade that owns all segments (one
//!   [`wal::Segments`], which only its one apply changes — live writes,
//!   rollback, vacuum and redo alike) and funnels every mutation through
//!   the buffer cache, WAL and the driving transaction's undo log (no
//!   mutator takes a log). Heap or IOT is the engine's decision: callers
//!   insert, update, delete, join rowids to rows and size segments through
//!   one organization-blind row surface, and every heap/IOT read goes
//!   through three snapshot-pinned functions (there is no snapshot-blind
//!   read to call instead): the heap page walk, the IOT key range — one
//!   merge of the segment's rows with its version chains over the same
//!   bounds, charged height plus the leaves it returned — and the one
//!   rowid join. Every one of the three borrows: a row comes back as
//!   `&Row` into the engine, never as a copy, so a reader copies only the
//!   columns it keeps, and only of the rows it keeps. LOB reads take a
//!   snapshot as well.

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
pub use mvcc::{Snapshot, TxnManager, TxnStatus};
pub use page::{SegmentId, PAGE_SIZE};
pub use wal::{
    CommitBlob, DurableMedium, RecoveryImage, Segments, WalRecord, WalStats, WAL_FAULT_POINTS,
};
