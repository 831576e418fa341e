//! The `V$` dynamic-performance views, declared once.
//!
//! [`VTABLES`] is the one list: each view's name, its columns (the row
//! layout), how many rows it holds now, and how to build those rows from
//! engine state. The optimizer reads a view's shape and row count from
//! here when it plans; only the executor's View node builds rows, when the
//! plan runs (a plan holds no data). [`Database::trace_report`] renders
//! the same counters tkprof-style.

use std::sync::atomic::Ordering;

use extidx_common::{Error, Result, Row, SqlType, Value};
use extidx_storage::SegmentId;

use crate::catalog::{ColumnDef, TableDef, TableOrg};
use crate::database::{Database, SqlStat};

/// One `V$` view.
pub(crate) struct VTable {
    pub(crate) name: &'static str,
    /// The row layout every row of [`VTable::rows`] follows.
    columns: &'static [(&'static str, SqlType)],
    /// Rows the view holds now, counted without building them.
    row_count: fn(&Database) -> usize,
    /// The rows, built from engine state.
    rows: fn(&Database) -> Vec<Row>,
}

/// Buffer-cache and statement-cache counters, then the key-range reads
/// that bypass the statement cache, in `V$CACHE_STATS` order.
const CACHE_COUNTERS: &[&str] = &[
    "LOGICAL_READS",
    "PHYSICAL_READS",
    "PHYSICAL_WRITES",
    "PLAN_CACHE_HITS",
    "PLAN_CACHE_MISSES",
    "PLAN_CACHE_INVALIDATIONS",
    "PLAN_CACHE_ENTRIES",
    "KEY_RANGE_READS",
];

/// Every `V$` view the engine answers.
pub(crate) static VTABLES: &[VTable] = &[
    // Buffer-cache and statement-cache counters as NAME/VALUE rows.
    VTable {
        name: "V$CACHE_STATS",
        columns: &[("NAME", SqlType::Varchar(64)), ("VALUE", SqlType::Integer)],
        row_count: |_| CACHE_COUNTERS.len(),
        rows: |db| {
            let s = db.cache_stats();
            let (hits, misses, invalidations, entries) = db.stmts.counters();
            let values: [u64; CACHE_COUNTERS.len()] = [
                s.logical_reads,
                s.physical_reads,
                s.physical_writes,
                hits,
                misses,
                invalidations,
                entries as u64,
                db.key_range_reads.load(Ordering::Relaxed),
            ];
            let named = CACHE_COUNTERS.iter().zip(values);
            named.map(|(name, v)| vec![Value::from(*name), Value::from(v as i64)]).collect()
        },
    },
    // Per-(indextype, routine) crossing aggregates.
    VTable {
        name: "V$ODCI_CALLS",
        columns: &[
            ("INDEXTYPE", SqlType::Varchar(128)),
            ("ROUTINE", SqlType::Varchar(64)),
            ("CALLS", SqlType::Integer),
            ("ELAPSED_MICROS", SqlType::Integer),
        ],
        row_count: |db| db.trace.sizes().1,
        rows: |db| {
            let aggs = db.trace.aggregates().into_iter();
            aggs.map(|(indextype, routine, s)| {
                vec![
                    Value::from(indextype),
                    Value::from(routine),
                    Value::from(s.calls as i64),
                    Value::from(s.total_micros as i64),
                ]
            })
            .collect()
        },
    },
    // Bounded per-statement execution history.
    VTable {
        name: "V$SQLSTATS",
        columns: &[
            ("SQL_ID", SqlType::Integer),
            ("SQL_TEXT", SqlType::Varchar(4096)),
            ("ROWS_PROCESSED", SqlType::Integer),
            ("ELAPSED_MICROS", SqlType::Integer),
            ("LOGICAL_READS", SqlType::Integer),
            ("PHYSICAL_READS", SqlType::Integer),
            ("PHYSICAL_WRITES", SqlType::Integer),
        ],
        row_count: |db| db.sqlstats.lock().len(),
        rows: |db| {
            let ring = db.sqlstats.lock();
            ring.iter()
                .map(|s| {
                    vec![
                        Value::from(s.sql_id as i64),
                        Value::from(s.sql_text.clone()),
                        Value::from(s.rows_processed as i64),
                        Value::from(s.elapsed_micros as i64),
                        Value::from(s.cache.logical_reads as i64),
                        Value::from(s.cache.physical_reads as i64),
                        Value::from(s.cache.physical_writes as i64),
                    ]
                })
                .collect()
        },
    },
    // Domain-index health state machine (one row per domain index): its
    // state and the breaker's fault counts and call clock.
    VTable {
        name: "V$INDEX_HEALTH",
        columns: &[
            ("INDEX_NAME", SqlType::Varchar(128)),
            ("TABLE_NAME", SqlType::Varchar(128)),
            ("INDEXTYPE", SqlType::Varchar(128)),
            ("STATE", SqlType::Varchar(16)),
            ("RECENT_FAULTS", SqlType::Integer),
            ("TOTAL_FAULTS", SqlType::Integer),
            ("CALLS", SqlType::Integer),
        ],
        row_count: |db| db.catalog.health.index_count(),
        rows: |db| {
            let health = db.catalog.health.snapshot().into_iter();
            health
                .map(|s| {
                    let d = db.catalog.domain_index(&s.index);
                    vec![
                        Value::from(s.index.clone()),
                        Value::from(d.map(|d| d.table.clone()).unwrap_or_default()),
                        Value::from(d.map(|d| d.indextype.clone()).unwrap_or_default()),
                        Value::from(s.state.to_string()),
                        Value::from(s.recent_faults as i64),
                        Value::from(s.total_faults as i64),
                        Value::from(s.calls as i64),
                    ]
                })
                .collect()
        },
    },
    // MVCC version-chain occupancy per segment (plus a TOTAL row that is
    // always present, even with no chains), the vacuum horizon, and
    // cumulative incremental-vacuum counters.
    VTable {
        name: "V$MVCC",
        columns: &[
            ("SEGMENT", SqlType::Varchar(64)),
            ("CHAINS", SqlType::Integer),
            ("VERSIONS", SqlType::Integer),
            ("HORIZON", SqlType::Integer),
            ("ACTIVE_TXNS", SqlType::Integer),
            ("VACUUM_RUNS", SqlType::Integer),
            ("VERSIONS_PRUNED", SqlType::Integer),
            ("SLOTS_RECLAIMED", SqlType::Integer),
        ],
        row_count: |db| 1 + db.storage.mvcc_segment_stats().len(),
        rows: |db| {
            let horizon = db.storage.vacuum_horizon() as i64;
            let active = db.storage.txn_manager().active_count() as i64;
            let vs = db.storage.vacuum_stats();
            let per_seg = db.storage.mvcc_segment_stats();
            let (tc, tv) = per_seg
                .iter()
                .fold((0i64, 0i64), |(c, v), (_, sc, sv)| (c + *sc as i64, v + *sv as i64));
            let row = |label: String, chains: i64, versions: i64| {
                vec![
                    Value::from(label),
                    Value::from(chains),
                    Value::from(versions),
                    Value::from(horizon),
                    Value::from(active),
                    Value::from(vs.runs as i64),
                    Value::from(vs.versions_pruned as i64),
                    Value::from(vs.slots_reclaimed as i64),
                ]
            };
            // TOTAL first and always present: monitoring queries get a
            // row even when every chain has drained.
            let mut out = vec![row("TOTAL".into(), tc, tv)];
            for (label, chains, versions) in per_seg {
                out.push(row(label, chains as i64, versions as i64));
            }
            out
        },
    },
    // Server governor counters (conflict retry, statement timeouts,
    // orphan aborts) and the occupancy reading of the last transaction
    // end, as NAME/VALUE rows.
    VTable {
        name: "V$SERVER",
        columns: &[("NAME", SqlType::Varchar(64)), ("VALUE", SqlType::Integer)],
        row_count: |db| db.governor.vserver_rows().len(),
        rows: |db| {
            let counters = db.governor.vserver_rows().into_iter();
            counters.map(|(name, value)| vec![Value::from(name), Value::from(value)]).collect()
        },
    },
    // The durable medium's WAL: one row while durability is on, none
    // otherwise. CHECKPOINTS counts the folds at transaction end too.
    VTable {
        name: "V$WAL",
        columns: &[
            ("RECORDS", SqlType::Integer),
            ("APPENDED", SqlType::Integer),
            ("COMMITS", SqlType::Integer),
            ("CHECKPOINTS", SqlType::Integer),
            ("LAST_FOLDED_LSN", SqlType::Integer),
            ("CARRIED_TXNS", SqlType::Integer),
        ],
        row_count: |db| usize::from(db.storage.wal_medium().is_some()),
        rows: |db| {
            let stats = db.storage.wal_medium().map(|m| m.stats()).into_iter();
            stats
                .map(|s| {
                    vec![
                        Value::from(s.wal_len as i64),
                        Value::from(s.records_appended as i64),
                        Value::from(s.commits as i64),
                        Value::from(s.checkpoints as i64),
                        Value::from(s.last_folded_lsn as i64),
                        Value::from(s.carried_txns as i64),
                    ]
                })
                .collect()
        },
    },
    // The CallTrace ring. DROPPED repeats the ring's eviction counter on
    // every row so `SELECT MAX(DROPPED)` surfaces it.
    VTable {
        name: "V$TRACE",
        columns: &[
            ("SEQ", SqlType::Integer),
            ("COMPONENT", SqlType::Varchar(32)),
            ("ROUTINE", SqlType::Varchar(64)),
            ("INDEXTYPE", SqlType::Varchar(128)),
            ("DETAIL", SqlType::Varchar(1024)),
            ("ELAPSED_MICROS", SqlType::Integer),
            ("DROPPED", SqlType::Integer),
        ],
        row_count: |db| db.trace.sizes().0,
        rows: |db| {
            let dropped = db.trace.dropped() as i64;
            let events = db.trace.events().into_iter();
            events
                .map(|e| {
                    vec![
                        Value::from(e.seq as i64),
                        Value::from(e.component.to_string()),
                        Value::from(e.routine),
                        Value::from(e.indextype),
                        Value::from(e.detail),
                        Value::from(e.elapsed_micros as i64),
                        Value::from(dropped),
                    ]
                })
                .collect()
        },
    },
];

/// The view `name` addresses, if it is one of [`VTABLES`].
pub(crate) fn vtable(name: &str) -> Option<&'static VTable> {
    VTABLES.iter().find(|v| v.name.eq_ignore_ascii_case(name))
}

impl VTable {
    /// Synthetic catalog entry: a heap-shaped definition with no backing
    /// segment, so generic scope/join machinery treats the view like any
    /// other table.
    pub(crate) fn table_def(&self) -> TableDef {
        let columns = self.columns.iter();
        TableDef {
            name: self.name.to_string(),
            columns: columns.map(|(n, ty)| ColumnDef { name: n.to_string(), ty: ty.clone() }).collect(),
            org: TableOrg::Heap,
            seg: SegmentId(u32::MAX),
            stats: None,
        }
    }

    /// How many rows [`vtable_rows`] returns now, counted without building
    /// them (the optimizer's estimate).
    pub(crate) fn row_count(&self, db: &Database) -> usize {
        (self.row_count)(db)
    }
}

/// Materialize the rows of the `V$` view `name` — when a plan runs, never
/// when it is made. Each row carries a trailing NULL for the hidden ROWID
/// slot every table scope exposes.
pub(crate) fn vtable_rows(db: &Database, name: &str) -> Result<Vec<Row>> {
    let v = vtable(name).ok_or_else(|| {
        Error::Semantic(format!("unknown V$ table {}", name.to_ascii_uppercase()))
    })?;
    let mut rows = (v.rows)(db);
    for r in &mut rows {
        r.push(Value::Null);
    }
    Ok(rows)
}

impl Database {
    /// A tkprof-style session report: per-routine call counts and wall
    /// time from the trace aggregates, buffer-cache totals, and the most
    /// expensive recent statements from the `V$SQLSTATS` ring.
    pub fn trace_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("==== extensible-indexing trace report ====\n\n");
        out.push_str("ODCI routine                                        calls     total(us)       avg(us)\n");
        out.push_str("------------------------------------------------ -------- ------------- -------------\n");
        let aggs = self.trace.aggregates();
        if aggs.is_empty() {
            out.push_str("(no crossings recorded — is tracing enabled?)\n");
        }
        let mut total_calls = 0u64;
        let mut total_micros = 0u64;
        for (indextype, routine, s) in &aggs {
            let avg = s.total_micros.checked_div(s.calls).unwrap_or(0);
            let name = format!("{indextype}.{routine}");
            let _ = writeln!(out, "{name:<48} {:>8} {:>13} {:>13}", s.calls, s.total_micros, avg);
            total_calls += s.calls;
            total_micros += s.total_micros;
        }
        if !aggs.is_empty() {
            out.push_str("------------------------------------------------ -------- ------------- -------------\n");
            let _ = writeln!(out, "{:<48} {:>8} {:>13}", "total", total_calls, total_micros);
        }
        let dropped = self.trace.dropped();
        let _ = writeln!(out, "\ntrace ring: {} events retained, {} dropped", self.trace.events().len(), dropped);
        let cs = self.cache_stats();
        let _ = writeln!(
            out,
            "buffer cache: {} gets, {} physical reads, {} physical writes",
            cs.logical_reads, cs.physical_reads, cs.physical_writes
        );
        let sqlstats = self.sqlstats.lock();
        let mut stmts: Vec<&SqlStat> = sqlstats.iter().collect();
        stmts.sort_by_key(|s| std::cmp::Reverse(s.elapsed_micros));
        if !stmts.is_empty() {
            out.push_str("\ntop statements by elapsed time:\n");
            for s in stmts.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  [{:>6}us rows={} gets={}] {}",
                    s.elapsed_micros, s.rows_processed, s.cache.logical_reads, s.sql_text
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::StmtResult;
    use crate::plan::tests::fixture;

    /// The list cannot drift from what the views answer: on a quiet
    /// durable database every view's rows are as wide as its declared
    /// columns (plus the hidden ROWID slot) and of the declared types,
    /// `SELECT *` returns the declared columns, and its row count is what
    /// the optimizer was told.
    #[test]
    fn every_view_answers_its_declared_shape() {
        let mut db = fixture();
        db.enable_durability(extidx_storage::DurableMedium::new()).unwrap();
        db.trace().set_enabled(true);
        db.execute("ANALYZE TABLE docs").unwrap();
        for v in VTABLES {
            let built = vtable_rows(&db, v.name).unwrap();
            assert!(!built.is_empty(), "{}: no rows to check", v.name);
            for row in &built {
                assert_eq!(row.len(), v.columns.len() + 1, "{}: row width", v.name);
                for (value, (col, ty)) in row.iter().zip(v.columns) {
                    assert!(value.conforms_to(ty), "{}.{col}: {value:?} is not {ty}", v.name);
                }
            }
            let count = v.row_count(&db);
            let Ok(StmtResult::Rows { columns, rows }) = db.execute(&format!("SELECT * FROM {}", v.name))
            else {
                panic!("{}: SELECT * returned no rows", v.name);
            };
            let declared: Vec<&str> = v.columns.iter().map(|(c, _)| *c).collect();
            assert_eq!(columns, declared, "{}: SELECT * columns", v.name);
            assert_eq!(rows.len(), count, "{}: row count", v.name);
        }
    }

    /// `V$WAL` holds no row while durability is off.
    #[test]
    fn the_wal_view_is_empty_without_durability() {
        let mut db = fixture();
        assert!(db.query("SELECT * FROM V$WAL").unwrap().is_empty());
    }
}
