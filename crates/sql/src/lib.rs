//! # extidx-sql — the host relational engine
//!
//! A compact Oracle8i stand-in hosting the extensible indexing framework:
//! a SQL dialect (parser + AST), a data dictionary, a cost-based optimizer
//! with cartridge-supplied selectivity/cost callbacks, a Volcano-style
//! executor that drives ODCIIndex scan routines in a pipelined fashion,
//! implicit domain-index maintenance on DML, transactions with rollback,
//! and the server-callback surface cartridge code uses to store its index
//! data inside the database.
//!
//! Entry point: [`Database`].
//!
//! ```
//! use extidx_sql::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INTEGER, name VARCHAR2(20))").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'ada'), (2, 'grace')").unwrap();
//! let rows = db.query("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rows[0][0].to_string(), "grace");
//! ```

mod access;
pub mod ast;
pub mod catalog;
pub mod database;
mod ddl;
pub mod exec_ctx;
pub mod executor;
pub mod expr;
pub mod governor;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod session;
mod stmt_cache;
mod vtables;

pub use database::{Database, StmtResult};
pub use exec_ctx::QueryCursor;
pub use governor::ServerGovernor;
pub use session::{Server, Session};
// Statement cancellation tokens are minted by `Session::cancel_token`.
pub use extidx_core::governor::CancelToken;
// Durability surface: callers hand a `DurableMedium` to
// `Database::enable_durability` and arm `WAL_FAULT_POINTS` to simulate
// crashes, so the types are re-exported here.
pub use extidx_storage::{DurableMedium, WalStats, WAL_FAULT_POINTS};
