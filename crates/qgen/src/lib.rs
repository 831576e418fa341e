//! # extidx-qgen — differential query oracle
//!
//! A seeded workload fuzzer for the extensible-indexing engine. Every
//! user-defined operator in the framework has *two* engine execution
//! strategies that must agree — the domain-index scan
//! (ODCIIndexStart/Fetch/Close) and the functional fallback (§2.4.2) —
//! plus a third, engine-independent answer this crate computes itself
//! from the cartridges' pure predicate functions. The oracle runs every
//! generated query through all reachable plans, pinned with the
//! plan-forcing hints (`/*+ INDEX(t idx) */`, `/*+ NO_INDEX */`,
//! `/*+ FULL */`), and demands bag-equality of the result sets and
//! NoREC-style agreement between row retrieval and `COUNT(*)`.
//!
//! - [`gen`] — structured schemas, rows, and statement streams, fully
//!   deterministic per seed (heap and index-organized tables, NULL-heavy
//!   columns, all five cartridge domains, mixed AND/OR predicates,
//!   ancillary `Score`, ORDER BY/LIMIT);
//! - [`interp`] — the brute-force mirror interpreter: a `BTreeMap` of
//!   structured rows evaluated with SQL three-valued logic, sharing no
//!   code with the parser, optimizer, executor, or index layers;
//! - [`harness`] — execution, comparison, deterministic replay, and
//!   delta-debugging shrink to a minimal self-contained SQL repro.

pub mod concurrent;
pub mod gen;
pub mod harness;
pub mod interp;

pub use concurrent::{
    conflict_storm, lost_update_demo, run_concurrent_seed, run_concurrent_seed_opts,
    ConcurrentReport, StormReport,
};
pub use gen::{generate, Workload};
pub use harness::{fresh_db, run_crash_seed, run_multi_crash_seed, run_seed, ChaosOpts, Divergence};
