//! A second spatial indextype: `Sdo_Relate` via an R-tree.
//!
//! Same operator, same queries, same exact filter — different primary
//! filter. The paper's §3.2.2 point: "the Oracle8i extensibility
//! framework allows changing the underlying spatial indexing algorithms
//! without requiring the end users to change their queries." Swap
//! `INDEXTYPE IS SpatialIndexType` for `INDEXTYPE IS RtreeIndexType` and
//! every query keeps working.
//!
//! Storage: one table, `DR$<index>$R (nodeid, payload)`, holding the
//! R-tree nodes (see [`crate::rtree`]). A scan's exact filter is the tile
//! cartridge's: it reads the candidates' geometries from the base table's
//! indexed column.

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{populate_from_base, try_partition_map};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::{BaseRow, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::cartridge::{base_rows, exact_fetch, SpatialScan};
use crate::geometry::{Geometry, Mbr};
use crate::rtree::RTree;

/// The R-tree indextype implementation.
pub struct RtreeIndexMethods;

fn rtree_table(info: &IndexInfo) -> String {
    info.storage_table_name("R")
}

fn index_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, value: &Value) -> Result<()> {
    if value.is_null() {
        return Ok(());
    }
    let mbr = Geometry::from_value(value)?.mbr();
    RTree::open(srv, rtree_table(info)).insert(rid, mbr)
}

fn unindex_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, value: &Value) -> Result<()> {
    if value.is_null() {
        return Ok(());
    }
    let mbr = Geometry::from_value(value)?.mbr();
    RTree::open(srv, rtree_table(info)).delete(rid, mbr)?;
    Ok(())
}

impl OdciIndex for RtreeIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        RTree::create(srv, rtree_table(info))?;
        populate_from_base(self, srv, info)
    }

    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _delta: &ParamString) -> Result<()> {
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
        // Parse + MBR are pure CPU and fan out; the tree insertions are
        // stateful (node splits) and stay serial on the coordinator, in
        // input order.
        let prepared = try_partition_map(batch, parallel, |row| {
            let v = row.value();
            if v.is_null() {
                return Ok::<_, Error>(None);
            }
            let g = Geometry::from_value(v)?;
            Ok(Some((row.rid, g.mbr())))
        })?;
        let rt = rtree_table(info);
        for (rid, mbr) in prepared.into_iter().flatten() {
            RTree::open(srv, rt.clone()).insert(rid, mbr)?;
        }
        Ok(())
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("TRUNCATE TABLE {}", rtree_table(info)), &[])?;
        // Re-initialize an empty root.
        let table = rtree_table(info);
        srv.execute(&format!("INSERT INTO {table} VALUES (0, '1,2')"), &[])?;
        srv.execute(&format!("INSERT INTO {table} VALUES (1, 'L|')"), &[])?;
        Ok(())
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", rtree_table(info)), &[])?;
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
        index_one(srv, info, rid, new_value)?;
        srv.fault_point("rtree.maintenance.indexed")
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
        // Old entry removed from the R-tree, new one not yet inserted.
        srv.fault_point("rtree.maintenance.reindex")?;
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
        self.start_batch(srv, info, op, std::slice::from_ref(&op.args))
    }

    /// Primary filter for the whole batch: one R-tree traversal with the
    /// batch's query MBRs as a window set.
    fn start_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        call: &OperatorCall,
        args: &[Vec<Value>],
    ) -> Result<ScanContext> {
        let scan = SpatialScan::parse(info, call, args)?;
        let windows: Vec<Mbr> = scan.windows().map(Geometry::mbr).collect();
        let found = RTree::open(srv, rtree_table(info)).search_all(&windows)?;
        let pairs = found
            .into_iter()
            .enumerate()
            .flat_map(|(arg, rids)| rids.into_iter().map(move |rid| (arg, rid)))
            .collect();
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

/// ODCIStats for the R-tree indextype: selectivity from the query MBR's
/// share of the indexed extent; cost from tree height plus candidates.
pub struct RtreeStats;

impl OdciStats for RtreeStats {
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
        // Estimate candidates by an actual (cheap) window search — the
        // tree is the statistic.
        let table = rtree_table(info);
        let candidates = RTree::open(srv, table).search(&query.mbr())?.len() as f64;
        Ok((candidates / total).clamp(0.0, 1.0))
    }

    fn index_cost(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        _op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost> {
        let total = base_rows(srv, info)?;
        Ok(IndexCost {
            io_cost: 3.0 + (total.max(1.0)).log2() / 3.0 + selectivity * total / 8.0,
            cpu_cost: selectivity * total * 0.01,
        })
    }
}
