//! # extidx-core — the extensible indexing framework
//!
//! This crate is the Rust rendering of the paper's contribution: a
//! SQL-level protocol by which *user code* ("cartridges") supplies the
//! definition, maintenance, and scan logic for new index types, while the
//! host engine drives that code implicitly during DDL, DML, and query
//! execution.
//!
//! The pieces map one-to-one onto the paper's components (§1, §2):
//!
//! | Paper concept | Here |
//! |---|---|
//! | User-defined operator + functional implementation | [`operator::Operator`], [`operator::ScalarFunction`] |
//! | `CREATE INDEXTYPE … FOR … USING …` | [`indextype::IndexType`] |
//! | ODCIIndex create/alter/truncate/drop, insert/update/delete, start/fetch/close | [`odci::OdciIndex`] |
//! | Scan context: "Return State" vs "Return Handle" | [`scan::ScanContext`] |
//! | Batched `ODCIIndexFetch` | [`scan::FetchResult`] |
//! | ODCIStatsSelectivity / ODCIStatsIndexCost | [`stats::OdciStats`] |
//! | Server callbacks (index code issuing SQL against the server) | [`server::ServerContext`] |
//! | Callback restrictions (§2.5) | [`server::CallbackMode`] |
//! | `PARAMETERS ('…')` strings | [`params::ParamString`] |
//! | Ancillary operators (e.g. `Score`) | [`scan::FetchedRow`] |
//! | Database events (§5 proposed solution) | [`events`] |
//! | Fig. 1 call-flow | [`trace::CallTrace`] |
//! | §5 fault testing at every crossing | [`fault::FaultInjector`] |
//! | Safe callouts / `UNUSABLE` index state | [`sandbox`], [`health::HealthRegistry`] |
//!
//! The crate is engine-agnostic: it depends only on the shared value
//! model, and the host engine (here `extidx-sql`) implements
//! [`server::ServerContext`] and drives [`odci::OdciIndex`]
//! implementations registered through [`registry::SchemaRegistry`].

pub mod build;
pub mod events;
pub mod fault;
pub mod governor;
pub mod health;
pub mod indextype;
pub mod meta;
pub mod odci;
pub mod operator;
pub mod params;
pub mod registry;
pub mod sandbox;
pub mod scan;
pub mod server;
pub mod stats;
pub mod trace;

pub use build::{partition_map, populate_from_base, try_partition_map, DEFAULT_BUILD_BATCH_ROWS};
pub use fault::{FaultInjector, FaultKind, RetryPolicy};
pub use governor::CancelToken;
pub use health::{BreakerConfig, HealthDump, HealthRegistry, HealthState};
pub use indextype::IndexType;
pub use meta::{IndexInfo, OperatorCall, PredicateBound, RelOp};
pub use odci::OdciIndex;
pub use params::ParamString;
pub use registry::SchemaRegistry;
pub use sandbox::{sandboxed_call, tick, DEFAULT_TICK_BUDGET};
pub use scan::{FetchResult, FetchedRow, ScanContext};
pub use server::{
    read_key_range_via_query, read_lob, scan_base_batches_via_query, BaseRow, CallbackMode,
    ServerContext,
};
pub use stats::{IndexCost, OdciStats};
