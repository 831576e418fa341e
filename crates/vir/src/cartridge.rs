//! The ODCIIndex implementation for the VIR indextype.
//!
//! Index storage: `DR$<index>$S (q1, rid, q2, q3, q4, sig)` — an
//! index-organized table keyed on `(q1, rid)`, where `q1…q4` are the
//! coarse per-channel means and `sig` is the base value's signature text,
//! verbatim. Keying on `q1` makes the **first filter pass** ("a range
//! query on the index data table") an IOT range scan.
//!
//! The scan evaluates `VirSimilar` in the paper's three phases:
//! 1. one key-range read of the `q1` range, plus a range on every other
//!    positively weighted channel, tested on each row where it lies;
//! 2. coarse weighted distance over `q1…q4` ≤ threshold, in the same pass:
//!    only its survivors copy their signature text out of the table;
//! 3. full signature comparison ≤ threshold (during fetch), parsing only
//!    the weighted channels and stopping once the distance passes the
//!    threshold.

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{populate_from_base, try_partition_map};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext};
use extidx_core::server::{
    read_key_range_via_query, BaseRow, KeyRangeRead, RunQuery, ServerContext,
};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::signature::{Signature, Weights, CHANNELS};

/// The indextype implementation.
pub struct VirIndexMethods;

fn sig_table(info: &IndexInfo) -> String {
    info.storage_table_name("S")
}

/// The signature text of an indexed column value: a VARCHAR2 itself or
/// the first attribute of a `VIR_IMAGE(signature)` object.
fn signature_text(v: &Value) -> Result<Option<&str>> {
    Ok(match v {
        Value::Null => None,
        Value::Varchar(s) => Some(s),
        Value::Object(_, attrs) => match attrs.first() {
            Some(Value::Varchar(s)) => Some(s),
            Some(Value::Null) | None => None,
            Some(other) => {
                return Err(Error::type_mismatch("VARCHAR2 signature attribute", other.type_name()))
            }
        },
        other => return Err(Error::type_mismatch("VIR_IMAGE or VARCHAR2", other.type_name())),
    })
}

/// Extract a signature from an indexed column value: either a serialized
/// VARCHAR2 or a `VIR_IMAGE(signature)` object.
pub fn column_signature(v: &Value) -> Result<Option<Signature>> {
    signature_text(v)?.map(Signature::deserialize).transpose()
}

/// The index row of a column value: its coarse values and its signature
/// text, stored verbatim so that phase 3 compares exactly the values the
/// functional `VirSimilar` compares.
fn index_entry(v: &Value) -> Result<Option<([f64; CHANNELS], &str)>> {
    let Some(text) = signature_text(v)? else { return Ok(None) };
    Ok(Some((Signature::deserialize(text)?.coarse(), text)))
}

fn insert_sql(info: &IndexInfo) -> String {
    format!("INSERT INTO {} VALUES (?, ?, ?, ?, ?, ?)", sig_table(info))
}

fn insert_binds(rid: RowId, c: &[f64; CHANNELS], text: &str) -> [Value; 6] {
    [
        Value::Number(c[0]),
        Value::RowId(rid),
        Value::Number(c[1]),
        Value::Number(c[2]),
        Value::Number(c[3]),
        Value::from(text),
    ]
}

fn index_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, v: &Value) -> Result<()> {
    let Some((c, text)) = index_entry(v)? else { return Ok(()) };
    srv.execute(&insert_sql(info), &insert_binds(rid, &c, text))?;
    Ok(())
}

fn unindex_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, v: &Value) -> Result<()> {
    let Some((c, _)) = index_entry(v)? else { return Ok(()) };
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
    /// `(rid, signature text)` candidates that passed phases 1–2.
    candidates: Vec<(RowId, String)>,
    pos: usize,
}

/// Rows surviving each filter phase — the E4 report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCounts {
    pub total: usize,
    /// Rows in the `q1` range alone, the IOT key range.
    pub after_key_range: usize,
    /// Rows in every phase-1 range: what phase 1 reads.
    pub after_range: usize,
    pub after_coarse: usize,
    pub matches: usize,
}

/// Run the three phases against the index table `table` through `run` and
/// report per-phase survivor counts (the experiment harness's measure of
/// filter effectiveness). Phases 1 and 2 are the scan's own
/// [`CoarseFilter`], over the rows the scan's key-range read visits (here
/// through its query form, so the harness times the scan's crossings, not
/// this).
pub fn phase_counts(
    run: &mut RunQuery,
    table: &str,
    query: &Signature,
    weights: &Weights,
    threshold: f64,
) -> Result<PhaseCounts> {
    let total = run(&format!("SELECT COUNT(*) FROM {table}"), &[])?[0][0].as_integer()? as usize;
    let after_key_range = phase1_count(run, table, query, weights, threshold)?;
    let (survivors, after_range) = CoarseFilter::new(query, weights, threshold).survivors(
        &mut |t, k, lo, hi, v| read_key_range_via_query(run, t, k, lo, hi, v),
        table,
    )?;
    let mut matches = 0;
    for (_, text) in &survivors {
        matches += Signature::distance_within(text, query, weights, threshold)?.is_some() as usize;
    }
    let after_coarse = survivors.len();
    Ok(PhaseCounts { total, after_key_range, after_range, after_coarse, matches })
}

/// Rows in the `q1` key range alone (the selectivity estimate's count).
fn phase1_count(
    run: &mut RunQuery,
    table: &str,
    query: &Signature,
    weights: &Weights,
    threshold: f64,
) -> Result<usize> {
    let (lo, hi) =
        phase1_range(query.coarse()[0], weights.0[0], threshold).unwrap_or((f64::MIN, f64::MAX));
    let rows = run(
        &format!("SELECT COUNT(*) FROM {table} WHERE q1 BETWEEN ? AND ?"),
        &[Value::Number(lo), Value::Number(hi)],
    )?;
    Ok(rows[0][0].as_integer()? as usize)
}

/// A channel weighted `w > 0` contributes `w·|qc − c|` to the coarse
/// distance, so a row phase 2 accepts has `|qc − c| ≤ threshold / w`.
/// The range is widened outward by far more than the few ulps that
/// rounding in `threshold / w` and in phase 2's sum can move that bound,
/// so it is a superset of what phase 2 accepts. `None` for a weight of 0:
/// the channel cannot prune.
fn phase1_range(qc: f64, w: f64, threshold: f64) -> Option<(f64, f64)> {
    (w > 0.0).then(|| {
        let r = threshold / w;
        let (lo, hi) = (qc - r, qc + r);
        let pad = lo.abs().max(hi.abs()) * 1e-12 + f64::MIN_POSITIVE;
        (lo - pad, hi + pad)
    })
}

/// Phases 1 and 2 as one predicate over the index table's rows, for the
/// scan and [`phase_counts`] alike: phase 1 is the `q1` key range of one
/// key-range read plus a range on every other positively weighted channel,
/// tested on each row where it lies; phase 2 is the exact coarse distance.
struct CoarseFilter<'q> {
    qc: [f64; CHANNELS],
    weights: &'q Weights,
    threshold: f64,
    /// Each channel's phase-1 range; `None` for an unweighted channel.
    ranges: [Option<(f64, f64)>; CHANNELS],
}

impl<'q> CoarseFilter<'q> {
    fn new(query: &Signature, weights: &'q Weights, threshold: f64) -> Self {
        let qc = query.coarse();
        let ranges = std::array::from_fn(|c| phase1_range(qc[c], weights.0[c], threshold));
        CoarseFilter { qc, weights, threshold, ranges }
    }

    /// Read `table (q1, rid, q2, q3, q4, sig)` over the `q1` range (all of
    /// it when `q1` is unweighted) through `read`. Returns the `(rid,
    /// signature text)` of every row phase 2 accepts — only those clone
    /// their text — and how many rows were in every phase-1 range.
    fn survivors(
        &self,
        read: &mut KeyRangeRead,
        table: &str,
    ) -> Result<(Vec<(RowId, String)>, usize)> {
        let (lo, hi) = self.ranges[0].unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
        let (mut out, mut in_ranges) = (Vec::new(), 0);
        read(table, "q1", &Value::Number(lo), &Value::Number(hi), &mut |row| {
            let number = |i: usize| row[i].as_number();
            let c = [number(0)?, number(2)?, number(3)?, number(4)?];
            let inside = |ch: usize| self.ranges[ch].is_none_or(|(l, h)| (l..=h).contains(&c[ch]));
            if !(1..CHANNELS).all(inside) {
                return Ok(());
            }
            in_ranges += 1;
            if Signature::coarse_distance(&self.qc, &c, self.weights) > self.threshold {
                return Ok(());
            }
            let Value::Varchar(text) = &row[5] else {
                return Err(Error::Storage("VIR signature text missing".into()));
            };
            out.push((row[1].as_rowid()?, text.clone()));
            Ok(())
        })?;
        Ok((out, in_ranges))
    }
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
        populate_from_base(self, srv, info)
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
        let coarse = try_partition_map(batch, parallel, |row| {
            Ok::<_, Error>(index_entry(row.value())?.map(|(c, _)| c))
        })?;
        let sql = insert_sql(info);
        for (row, c) in batch.iter().zip(coarse) {
            if let (Some(c), Some(text)) = (c, signature_text(row.value())?) {
                srv.execute(&sql, &insert_binds(row.rid, &c, text))?;
            }
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
        let (query, weights, threshold) = parse_args(info, op)?;
        // Phases 1 and 2 — "the first two passes of filtering are very
        // selective and greatly reduce the data set on which the image
        // signature comparisons need to be performed."
        let read: &mut KeyRangeRead = &mut |t, k, lo, hi, v| srv.read_key_range(t, k, lo, hi, v);
        let (candidates, _) =
            CoarseFilter::new(&query, &weights, threshold).survivors(read, &sig_table(info))?;
        Ok(ScanContext::State(Box::new(VirScan { query, weights, threshold, candidates, pos: 0 })))
    }

    fn fetch(
        &self,
        _srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        let st = ctx.state_mut::<VirScan>().ok_or_else(|| {
            Error::odci(&info.indextype_name, "ODCIIndexFetch", "bad scan state")
        })?;
        let mut out = Vec::with_capacity(nrows);
        while out.len() < nrows && st.pos < st.candidates.len() {
            let (rid, sig_text) = &st.candidates[st.pos];
            st.pos += 1;
            // Phase 3: the actual image signature comparison.
            if let Some(d) =
                Signature::distance_within(sig_text, &st.query, &st.weights, st.threshold)?
            {
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
        let table = sig_table(info);
        let mut run = |sql: &str, b: &[Value]| srv.query(sql, b);
        let phase1 = phase1_count(&mut run, &table, &query, &weights, threshold)? as f64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A coarse value that phase 2 accepts lies in its phase-1 range, also
    /// where `qc ± threshold / w` rounds inward: at `qc =
    /// 3.5326046636964814`, `w = 0.4` and threshold 2, the value one ulp
    /// below `qc − 5` is 5.000…02 away, and `0.4 × 5.000…02` rounds to 2.
    #[test]
    fn phase1_ranges_hold_every_value_phase2_accepts() {
        let (qc, w, t): (f64, f64, f64) = (3.5326046636964814, 0.4, 2.0);
        let c = (qc - t / w).next_down();
        assert!(w * (qc - c).abs() <= t && c < qc - t / w);
        let (lo, hi) = phase1_range(qc, w, t).unwrap();
        assert!(lo <= c && c <= hi);

        let mut rng = StdRng::seed_from_u64(39);
        for _ in 0..100_000 {
            let qc = if rng.gen_bool(0.9) { rng.gen_range(0.0..100.0) } else { 0.0 };
            let w = [0.1, 0.3, 0.4, 0.7, rng.gen_range(1e-9..1.0)][rng.gen_range(0..5usize)];
            let t = [2.0, 3.0, 0.1, rng.gen_range(0.0..10.0)][rng.gen_range(0..4usize)];
            let (lo, hi) = phase1_range(qc, w, t).unwrap();
            // The nearest values outside the range are beyond phase 2's reach.
            for c in [lo.next_down(), hi.next_up()] {
                assert!(w * (qc - c).abs() > t, "qc={qc} w={w} t={t} c={c}");
            }
        }
        assert_eq!(phase1_range(50.0, 0.0, 3.0), None);
    }
}
