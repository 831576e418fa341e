//! # extidx-ledger — the perf ledger
//!
//! One benchmark for the whole engine: four seeded workloads, each run
//! as a closed loop with tracing off (end-to-end metrics) and as a traced
//! fixed-count pass (per-layer metrics). `BENCHMARK.json` at the
//! repository root is the contract; `ledger/README.md` is the glossary.

pub mod fixtures;
pub mod json;
pub mod layers;
pub mod ops;
pub mod report;
pub mod run;
pub mod speed;
pub mod stats;
pub mod workloads;
