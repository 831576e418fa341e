//! The ODCIIndex implementation for the VIR indextype.
//!
//! Index storage: `DR$<index>$S (q1, rid, q2, q3, q4, sig)` — an
//! index-organized table keyed on `(q1, rid)`, where `q1…q4` are the
//! coarse per-channel means and `sig` is the serialized full signature.
//! Keying on `q1` makes the **first filter pass** ("a range query on the
//! index data table") an IOT range scan.
//!
//! The scan evaluates `VirSimilar` in the paper's three phases:
//! 1. range query on `q1` (coarse first channel) — via SQL `BETWEEN`;
//! 2. coarse weighted distance over `q1…q4` ≤ threshold;
//! 3. full signature comparison ≤ threshold (during fetch).

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{try_partition_map, DEFAULT_BUILD_BATCH_ROWS};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext};
use extidx_core::server::{BaseRow, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::signature::{Signature, Weights, CHANNELS};

/// The indextype implementation.
pub struct VirIndexMethods;

fn sig_table(info: &IndexInfo) -> String {
    info.storage_table_name("S")
}

/// Extract a signature from an indexed column value: either a serialized
/// VARCHAR2 or a `VIR_IMAGE(signature)` object.
pub fn column_signature(v: &Value) -> Result<Option<Signature>> {
    Ok(match v {
        Value::Null => None,
        Value::Varchar(s) => Some(Signature::deserialize(s)?),
        Value::Object(_, attrs) => match attrs.first() {
            Some(Value::Varchar(s)) => Some(Signature::deserialize(s)?),
            Some(Value::Null) | None => None,
            Some(other) => {
                return Err(Error::type_mismatch("VARCHAR2 signature attribute", other.type_name()))
            }
        },
        other => return Err(Error::type_mismatch("VIR_IMAGE or VARCHAR2", other.type_name())),
    })
}

fn index_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, v: &Value) -> Result<()> {
    let Some(sig) = column_signature(v)? else { return Ok(()) };
    let c = sig.coarse();
    srv.execute(
        &format!("INSERT INTO {} VALUES (?, ?, ?, ?, ?, ?)", sig_table(info)),
        &[
            Value::Number(c[0]),
            Value::RowId(rid),
            Value::Number(c[1]),
            Value::Number(c[2]),
            Value::Number(c[3]),
            Value::from(sig.serialize()),
        ],
    )?;
    Ok(())
}

fn unindex_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, v: &Value) -> Result<()> {
    let Some(sig) = column_signature(v)? else { return Ok(()) };
    let c = sig.coarse();
    srv.execute(
        &format!("DELETE FROM {} WHERE q1 = ? AND rid = ?", sig_table(info)),
        &[Value::Number(c[0]), Value::RowId(rid)],
    )?;
    Ok(())
}

/// Parsed operator arguments: `(query signature, weights, threshold,
/// ancillary label?)`.
fn parse_args(info: &IndexInfo, op: &OperatorCall) -> Result<(Signature, Weights, f64)> {
    let sig_text = op
        .args
        .first()
        .and_then(|v| v.as_str().ok())
        .ok_or_else(|| Error::odci(&info.indextype_name, "ODCIIndexStart", "missing query signature"))?;
    let query = Signature::deserialize(sig_text)?;
    let weights = Weights::parse(op.args.get(1).and_then(|v| v.as_str().ok()).unwrap_or(""))?;
    let threshold = op
        .args
        .get(2)
        .and_then(|v| v.as_number().ok())
        .ok_or_else(|| Error::odci(&info.indextype_name, "ODCIIndexStart", "missing threshold"))?;
    Ok((query, weights, threshold))
}

/// Scan state: phase-2 survivors awaiting the phase-3 full comparison.
struct VirScan {
    query: Signature,
    weights: Weights,
    threshold: f64,
    /// `(rid, serialized signature)` candidates that passed phases 1–2.
    candidates: Vec<(RowId, String)>,
    pos: usize,
}

/// Counts of rows surviving each filter phase — the E4 report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCounts {
    pub total: usize,
    pub after_range: usize,
    pub after_coarse: usize,
    pub matches: usize,
}

/// Run the three phases directly and report per-phase survivor counts
/// (used by the experiment harness to quantify filter effectiveness).
pub fn phase_counts(
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    query: &Signature,
    weights: &Weights,
    threshold: f64,
) -> Result<PhaseCounts> {
    let table = sig_table(info);
    let total = srv.query(&format!("SELECT COUNT(*) FROM {table}"), &[])?[0][0].as_integer()? as usize;
    let (rows, _) = phase12(srv, &table, query, weights, threshold)?;
    let after_coarse = rows.len();
    let after_range = phase1_count(srv, &table, query, weights, threshold)?;
    let mut matches = 0;
    for (_, sig_text) in &rows {
        let sig = Signature::deserialize(sig_text)?;
        if sig.distance(query, weights) <= threshold {
            matches += 1;
        }
    }
    Ok(PhaseCounts { total, after_range, after_coarse, matches })
}

/// Phase-1 candidate count alone (range query on `q1`).
fn phase1_count(
    srv: &mut dyn ServerContext,
    table: &str,
    query: &Signature,
    weights: &Weights,
    threshold: f64,
) -> Result<usize> {
    let qc = query.coarse();
    let (lo, hi) = phase1_bounds(&qc, weights, threshold);
    let rows = srv.query(
        &format!("SELECT COUNT(*) FROM {table} WHERE q1 BETWEEN ? AND ?"),
        &[Value::Number(lo), Value::Number(hi)],
    )?;
    Ok(rows[0][0].as_integer()? as usize)
}

/// Safe `q1` bounds: if the first channel's weight is positive, a
/// qualifying image's `q1` can differ by at most `threshold / w1`.
fn phase1_bounds(qc: &[f64; CHANNELS], w: &Weights, threshold: f64) -> (f64, f64) {
    if w.0[0] > 0.0 {
        let r = threshold / w.0[0];
        (qc[0] - r, qc[0] + r)
    } else {
        (f64::MIN, f64::MAX)
    }
}

/// Phases 1+2: range query on `q1`, then coarse-distance filter. Returns
/// surviving `(rid, serialized signature)` rows plus the phase-1 count.
fn phase12(
    srv: &mut dyn ServerContext,
    table: &str,
    query: &Signature,
    weights: &Weights,
    threshold: f64,
) -> Result<(Vec<(RowId, String)>, usize)> {
    let qc = query.coarse();
    let (lo, hi) = phase1_bounds(&qc, weights, threshold);
    let rows = srv.query(
        &format!("SELECT q1, rid, q2, q3, q4, sig FROM {table} WHERE q1 BETWEEN ? AND ?"),
        &[Value::Number(lo), Value::Number(hi)],
    )?;
    let phase1 = rows.len();
    let mut out = Vec::new();
    for r in rows {
        let c = [r[0].as_number()?, r[2].as_number()?, r[3].as_number()?, r[4].as_number()?];
        if Signature::coarse_distance(&qc, &c, weights) <= threshold {
            out.push((r[1].as_rowid()?, r[5].as_str()?.to_string()));
        }
    }
    Ok((out, phase1))
}

impl OdciIndex for VirIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(
            &format!(
                "CREATE TABLE {} (q1 NUMBER, rid ROWID, q2 NUMBER, q3 NUMBER, q4 NUMBER, \
                 sig VARCHAR2(2000), PRIMARY KEY (q1, rid)) ORGANIZATION INDEX",
                sig_table(info)
            ),
            &[],
        )?;
        let parallel = info.parameters.parallel_degree();
        srv.scan_base_batches(
            &info.table_name,
            &[&info.column_name],
            DEFAULT_BUILD_BATCH_ROWS,
            &mut |srv, batch| self.build_batch(srv, info, batch, parallel),
        )
    }

    fn build_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        batch: &[BaseRow],
        parallel: usize,
    ) -> Result<()> {
        // Signature extraction + coarse-channel computation is the
        // CPU-heavy part (the paper's "feature extraction"); fan it out.
        // The per-row inserts stay on the coordinator, in input order.
        let prepared = try_partition_map(batch, parallel, |row| {
            Ok::<_, Error>(match column_signature(row.value())? {
                Some(sig) => {
                    let c = sig.coarse();
                    Some((row.rid, c, sig.serialize()))
                }
                None => None,
            })
        })?;
        let table = sig_table(info);
        let sql = format!("INSERT INTO {table} VALUES (?, ?, ?, ?, ?, ?)");
        for (rid, c, sig_text) in prepared.into_iter().flatten() {
            srv.execute(
                &sql,
                &[
                    Value::Number(c[0]),
                    Value::RowId(rid),
                    Value::Number(c[1]),
                    Value::Number(c[2]),
                    Value::Number(c[3]),
                    Value::from(sig_text),
                ],
            )?;
        }
        Ok(())
    }

    fn alter(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo, _delta: &ParamString) -> Result<()> {
        Ok(())
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("TRUNCATE TABLE {}", sig_table(info)), &[])?;
        Ok(())
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", sig_table(info)), &[])?;
        Ok(())
    }

    fn insert(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        new_value: &Value,
    ) -> Result<()> {
        index_one(srv, info, rid, new_value)?;
        srv.fault_point("vir.maintenance.indexed")
    }

    fn update(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
        new_value: &Value,
    ) -> Result<()> {
        unindex_one(srv, info, rid, old_value)?;
        // Old signature removed, new one not yet written.
        srv.fault_point("vir.maintenance.reindex")?;
        index_one(srv, info, rid, new_value)
    }

    fn delete(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
    ) -> Result<()> {
        unindex_one(srv, info, rid, old_value)
    }

    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        op.require_column_first(info)?;
        let (query, weights, threshold) = parse_args(info, op)?;
        // Phases 1 and 2 — "the first two passes of filtering are very
        // selective and greatly reduce the data set on which the image
        // signature comparisons need to be performed."
        let (candidates, _) = phase12(srv, &sig_table(info), &query, &weights, threshold)?;
        Ok(ScanContext::State(Box::new(VirScan { query, weights, threshold, candidates, pos: 0 })))
    }

    fn fetch(
        &self,
        _srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        let wants_anc = false;
        let _ = wants_anc;
        let st = ctx.state_mut::<VirScan>().ok_or_else(|| {
            Error::odci(&info.indextype_name, "ODCIIndexFetch", "bad scan state")
        })?;
        let mut out = Vec::with_capacity(nrows);
        while out.len() < nrows && st.pos < st.candidates.len() {
            let (rid, sig_text) = &st.candidates[st.pos];
            st.pos += 1;
            // Phase 3: the actual image signature comparison.
            let sig = Signature::deserialize(sig_text)?;
            let d = sig.distance(&st.query, &st.weights);
            if d <= st.threshold {
                out.push(FetchedRow::with_ancillary(*rid, Value::Number(d)));
            }
        }
        let done = st.pos >= st.candidates.len();
        Ok(FetchResult { rows: out, done })
    }

    fn close(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo, _ctx: ScanContext) -> Result<()> {
        Ok(())
    }
}

/// ODCIStats for the VIR indextype.
pub struct VirStats;

impl OdciStats for VirStats {
    fn collect(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo) -> Result<()> {
        Ok(())
    }

    fn selectivity(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<f64> {
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", sig_table(info)), &[])?[0][0]
            .as_integer()? as f64;
        if total == 0.0 {
            return Ok(0.0);
        }
        let Ok((query, weights, threshold)) = parse_args(info, op) else { return Ok(0.01) };
        let phase1 = phase1_count(srv, &sig_table(info), &query, &weights, threshold)? as f64;
        // Coarse/full filters cut phase-1 candidates further; halve as a
        // rough calibration.
        Ok((phase1 / total * 0.5).clamp(0.0, 1.0))
    }

    fn index_cost(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        _op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost> {
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", sig_table(info)), &[])?[0][0]
            .as_integer()? as f64;
        // Range scan of the candidate fraction plus per-candidate coarse
        // math; full comparisons only for survivors.
        Ok(IndexCost {
            io_cost: 2.0 + total * selectivity / 40.0,
            cpu_cost: total * selectivity * 0.002,
        })
    }
}
