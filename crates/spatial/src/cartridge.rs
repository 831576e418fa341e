//! The ODCIIndex implementation for the spatial indextype.
//!
//! One storage table per index, index-organized and created through a
//! server callback: `DR$<index>$T (tile, rid)`, one row per (tile,
//! geometry) pair. It holds the primary filter, and nothing else.
//!
//! A scan evaluates `Sdo_Relate` for a batch of argument rows (a window
//! query is a batch of one; a domain join passes a batch of outer rows) in
//! the two phases §3.2.2 describes: the primary filter ("determines the
//! candidate set of tiles … which overlap") runs in `ODCIIndexStart`, as
//! one sort-merge of the batch's tiles with the tile table; the exact
//! filter ("applies an exact filter to these candidate rows") runs during
//! `ODCIIndexFetch`, over the candidates' geometries read from the base
//! table's indexed column — the index keeps no copy of them.

use std::collections::HashMap;

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{populate_from_base, try_partition_map};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, FetchedRow, ScanContext};
use extidx_core::server::{BaseRow, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::geometry::{Geometry, Mask};
use crate::tiles::Tessellation;

/// The indextype implementation.
pub struct SpatialIndexMethods;

fn tile_table(info: &IndexInfo) -> String {
    info.storage_table_name("T")
}

/// Tessellation from index parameters (`:World 1024 :Level 6`).
pub fn tessellation(params: &ParamString) -> Tessellation {
    let mut t = Tessellation::default();
    if let Some(w) = params.first("World").and_then(|v| v.parse::<f64>().ok()) {
        if w > 0.0 {
            t.world = w;
        }
    }
    if let Some(l) = params.first("Level").and_then(|v| v.parse::<u32>().ok()) {
        t.level = l.min(12);
    }
    t
}

fn index_one(
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    tess: &Tessellation,
    rid: RowId,
    value: &Value,
) -> Result<()> {
    if value.is_null() {
        return Ok(());
    }
    let g = Geometry::from_value(value)?;
    for tile in tess.tiles_for(&g) {
        srv.execute(
            &format!("INSERT INTO {} VALUES (?, ?)", tile_table(info)),
            &[Value::Integer(tile), Value::RowId(rid)],
        )?;
    }
    Ok(())
}

fn unindex_one(
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    tess: &Tessellation,
    rid: RowId,
    value: &Value,
) -> Result<()> {
    if value.is_null() {
        return Ok(());
    }
    let g = Geometry::from_value(value)?;
    for tile in tess.tiles_for(&g) {
        srv.execute(
            &format!("DELETE FROM {} WHERE tile = ? AND rid = ?", tile_table(info)),
            &[Value::Integer(tile), Value::RowId(rid)],
        )?;
    }
    Ok(())
}

/// Per-scan state of both spatial indextypes, for a batch of argument
/// rows: each row's query, the primary filter's (argument row, candidate)
/// pairs awaiting the exact filter, and the candidates' geometries once
/// read.
pub(crate) struct SpatialScan {
    /// Per argument row: the query geometry and the mask.
    queries: Vec<(Geometry, Mask)>,
    /// The indexed column is the operator's second argument
    /// (`Sdo_Relate(:window, geometry, …)`): the relation is the query's
    /// to the candidate, not the candidate's to the query.
    swapped: bool,
    /// `(argument row, candidate)` pairs in output order: by argument row,
    /// then rowid.
    pairs: Vec<(usize, RowId)>,
    pos: usize,
    /// The candidates' geometries, read from the base table by the first
    /// fetch.
    geoms: Option<HashMap<RowId, Geometry>>,
}

impl SpatialScan {
    /// Each argument row's query geometry and mask (`Sdo_Relate`'s
    /// non-column arguments), and where the indexed column stands.
    pub(crate) fn parse(
        info: &IndexInfo,
        call: &OperatorCall,
        args: &[Vec<Value>],
    ) -> Result<Self> {
        let err = |msg: &str| Error::odci(&info.indextype_name, "ODCIIndexStart", msg);
        let queries = args
            .iter()
            .map(|row| {
                let query = row.first().ok_or_else(|| err("missing query geometry"))?;
                let query = Geometry::from_value(query)?;
                let mask = row.get(1).and_then(|v| v.as_str().ok()).unwrap_or("ANYINTERACT");
                Ok((query, Mask::parse(mask)?))
            })
            .collect::<Result<_>>()?;
        let swapped = call.column_pos == 1;
        Ok(SpatialScan { queries, swapped, pairs: Vec::new(), pos: 0, geoms: None })
    }

    /// The query geometries, by argument row.
    pub(crate) fn windows(&self) -> impl Iterator<Item = &Geometry> {
        self.queries.iter().map(|(g, _)| g)
    }

    /// The scan with the primary filter's `(argument row, rowid)` pairs as
    /// its candidates. A candidate found twice for a query (sharing several
    /// tiles with it) is one candidate.
    pub(crate) fn with_pairs(self, mut pairs: Vec<(usize, RowId)>) -> ScanContext {
        pairs.sort_unstable();
        pairs.dedup();
        ScanContext::State(Box::new(SpatialScan { pairs, ..self }))
    }
}

/// The exact-filter fetch (§3.2.2's second phase), shared by both spatial
/// indextypes. The first fetch reads every distinct candidate's geometry
/// from the base table's indexed column as one set, as Oracle Spatial's
/// secondary filter does, each decoded from the value lent where it lies;
/// each fetch then emits the pairs whose exact relation holds.
pub(crate) fn exact_fetch(
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
    ctx: &mut ScanContext,
    nrows: usize,
) -> Result<FetchResult> {
    let st = ctx.state_mut::<SpatialScan>().ok_or_else(|| {
        Error::odci(&info.indextype_name, "ODCIIndexFetch", "bad scan state")
    })?;
    if st.geoms.is_none() {
        let mut rids: Vec<RowId> = st.pairs.iter().map(|&(_, rid)| rid).collect();
        rids.sort_unstable();
        rids.dedup();
        let mut geoms = HashMap::with_capacity(rids.len());
        srv.fetch_base_rows(&info.table_name, &[&info.column_name], &rids, &mut |i, row| {
            if !row[0].is_null() {
                geoms.insert(rids[i], Geometry::from_value(row[0])?);
            }
            Ok(())
        })?;
        st.geoms = Some(geoms);
    }
    let geoms = st.geoms.as_ref().expect("geometries read");
    let mut out = Vec::with_capacity(nrows);
    while out.len() < nrows && st.pos < st.pairs.len() {
        let (arg, rid) = st.pairs[st.pos];
        st.pos += 1;
        let Some(g) = geoms.get(&rid) else { continue };
        let (query, mask) = &st.queries[arg];
        let holds = if st.swapped { query.relate(g, *mask) } else { g.relate(query, *mask) };
        if holds {
            out.push(FetchedRow::plain(rid).for_arg(arg));
        }
    }
    Ok(FetchResult { rows: out, done: st.pos >= st.pairs.len() })
}

impl OdciIndex for SpatialIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(
            &format!(
                "CREATE TABLE {} (tile INTEGER, rid ROWID, PRIMARY KEY (tile, rid)) \
                 ORGANIZATION INDEX",
                tile_table(info)
            ),
            &[],
        )?;
        populate_from_base(self, srv, info)
    }

    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _delta: &ParamString) -> Result<()> {
        // Changed tessellation parameters require a rebuild under the
        // merged parameters.
        self.truncate(srv, info)?;
        populate_from_base(self, srv, info)
    }

    fn build_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        batch: &[BaseRow],
        parallel: usize,
    ) -> Result<()> {
        let tess = tessellation(&info.parameters);
        // Geometry parsing and tile decomposition are pure CPU — fan them
        // out; the tile inserts stay on the coordinator, in input order.
        let prepared = try_partition_map(batch, parallel, |row| {
            let v = row.value();
            if v.is_null() {
                return Ok::<_, Error>(None);
            }
            let g = Geometry::from_value(v)?;
            Ok(Some((row.rid, tess.tiles_for(&g))))
        })?;
        let tt = tile_table(info);
        for (rid, tiles) in prepared.into_iter().flatten() {
            for tile in tiles {
                srv.execute(
                    &format!("INSERT INTO {tt} VALUES (?, ?)"),
                    &[Value::Integer(tile), Value::RowId(rid)],
                )?;
            }
        }
        Ok(())
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("TRUNCATE TABLE {}", tile_table(info)), &[])?;
        Ok(())
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", tile_table(info)), &[])?;
        Ok(())
    }

    /// `Sdo_Relate` relates two geometries: either may be the indexed one.
    fn column_positions(&self) -> &'static [usize] {
        &[0, 1]
    }

    fn insert(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        new_value: &Value,
    ) -> Result<()> {
        let tess = tessellation(&info.parameters);
        index_one(srv, info, &tess, rid, new_value)?;
        srv.fault_point("spatial.maintenance.indexed")
    }

    fn update(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
        new_value: &Value,
    ) -> Result<()> {
        let tess = tessellation(&info.parameters);
        unindex_one(srv, info, &tess, rid, old_value)?;
        // Old tiles removed, new tiles not yet written.
        srv.fault_point("spatial.maintenance.reindex")?;
        index_one(srv, info, &tess, rid, new_value)
    }

    fn delete(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        old_value: &Value,
    ) -> Result<()> {
        let tess = tessellation(&info.parameters);
        unindex_one(srv, info, &tess, rid, old_value)
    }

    fn start(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<ScanContext> {
        self.start_batch(srv, info, op, std::slice::from_ref(&op.args))
    }

    /// Primary filter for the whole batch as one sort-merge on tile ids:
    /// the batch's sorted (tile, argument row) list against one in-place
    /// key-range read of the tile table over the list's span — the pre-8i
    /// hand-written tile join (`legacy.rs`), behind the operator.
    fn start_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        call: &OperatorCall,
        args: &[Vec<Value>],
    ) -> Result<ScanContext> {
        let scan = SpatialScan::parse(info, call, args)?;
        let tess = tessellation(&info.parameters);
        let mut wanted: Vec<(i64, usize)> = scan
            .windows()
            .enumerate()
            .flat_map(|(arg, q)| tess.tiles_for(q).into_iter().map(move |tile| (tile, arg)))
            .collect();
        wanted.sort_unstable();
        let (Some(&(lo, _)), Some(&(hi, _))) = (wanted.first(), wanted.last()) else {
            return Ok(scan.with_pairs(Vec::new()));
        };
        // The tile table arrives in `(tile, rid)` order: each row meets the
        // wanted tiles in one forward pass.
        let (mut pairs, mut j) = (Vec::new(), 0);
        let (lo, hi) = (Value::Integer(lo), Value::Integer(hi));
        srv.read_key_range(&tile_table(info), "tile", &lo, &hi, &mut |row| {
            let tile = row[0].as_integer()?;
            j += wanted[j..].iter().take_while(|w| w.0 < tile).count();
            let rid = row[1].as_rowid()?;
            let args = wanted[j..].iter().take_while(|w| w.0 == tile).map(|&(_, arg)| arg);
            pairs.extend(args.map(|arg| (arg, rid)));
            Ok(())
        })?;
        Ok(scan.with_pairs(pairs))
    }

    fn fetch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        ctx: &mut ScanContext,
        nrows: usize,
    ) -> Result<FetchResult> {
        exact_fetch(srv, info, ctx, nrows)
    }

    fn close(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo, _ctx: ScanContext) -> Result<()> {
        Ok(())
    }
}

/// The base table's row count, the ODCIStats denominator of both spatial
/// indextypes: the optimizer applies a selectivity to base rows, NULL
/// geometries included.
pub(crate) fn base_rows(srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<f64> {
    let rows = srv.query(&format!("SELECT COUNT(*) FROM {}", info.table_name), &[])?;
    Ok(rows[0][0].as_integer()? as f64)
}

/// ODCIStats for the spatial indextype: candidate density from the tile
/// table drives selectivity; cost counts tile probes plus exact
/// comparisons.
pub struct SpatialStats;

impl OdciStats for SpatialStats {
    fn collect(&self, _srv: &mut dyn ServerContext, _info: &IndexInfo) -> Result<()> {
        Ok(())
    }

    fn selectivity(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<f64> {
        let total = base_rows(srv, info)?;
        if total == 0.0 {
            return Ok(0.0);
        }
        let Some(first) = op.args.first() else { return Ok(0.01) };
        let Ok(query) = Geometry::from_value(first) else { return Ok(0.01) };
        let tess = tessellation(&info.parameters);
        // Sample up to 8 query tiles to estimate candidate density.
        let tiles = tess.tiles_for(&query);
        let sample: Vec<i64> = tiles.iter().copied().take(8).collect();
        let mut sampled = 0f64;
        for t in &sample {
            let n = srv.query(
                &format!("SELECT COUNT(*) FROM {} WHERE tile = ?", tile_table(info)),
                &[Value::Integer(*t)],
            )?[0][0]
                .as_integer()? as f64;
            sampled += n;
        }
        let est_candidates = if sample.is_empty() {
            0.0
        } else {
            sampled / sample.len() as f64 * tiles.len() as f64
        };
        Ok((est_candidates / total).clamp(0.0, 1.0))
    }

    fn index_cost(
        &self,
        _srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost> {
        let tess = tessellation(&info.parameters);
        let tiles = op
            .args
            .first()
            .and_then(|v| Geometry::from_value(v).ok())
            .map(|g| tess.tiles_for(&g).len())
            .unwrap_or(1) as f64;
        Ok(IndexCost {
            io_cost: tiles + selectivity * 100.0,
            cpu_cost: selectivity * 50.0,
        })
    }
}
