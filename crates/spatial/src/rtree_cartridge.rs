//! A second spatial indextype: `Sdo_Relate` via an R-tree.
//!
//! Same operator, same queries, same geometry table — different primary
//! filter. The paper's §3.2.2 point: "the Oracle8i extensibility
//! framework allows changing the underlying spatial indexing algorithms
//! without requiring the end users to change their queries." Swap
//! `INDEXTYPE IS SpatialIndexType` for `INDEXTYPE IS RtreeIndexType` and
//! every query keeps working.
//!
//! Storage: `DR$<index>$R (nodeid, payload)` holds the R-tree nodes (see
//! [`crate::rtree`]); `DR$<index>$G (rid, geom)` holds serialized
//! geometries, identical to the tile cartridge's. A scan's exact filter
//! is the tile cartridge's too: it reads candidates' geometries from the
//! base table.

use extidx_common::{Error, Result, RowId, Value};
use extidx_core::build::{try_partition_map, DEFAULT_BUILD_BATCH_ROWS};
use extidx_core::meta::{IndexInfo, OperatorCall};
use extidx_core::params::ParamString;
use extidx_core::scan::{FetchResult, ScanContext};
use extidx_core::server::{BaseRow, ServerContext};
use extidx_core::stats::{IndexCost, OdciStats};
use extidx_core::OdciIndex;

use crate::cartridge::{exact_fetch, geom_table, SpatialScan};
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
    let g = Geometry::from_value(value)?;
    let table = rtree_table(info);
    RTree::open(srv, table).insert(rid, g.mbr())?;
    srv.execute(
        &format!("INSERT INTO {} VALUES (?, ?)", geom_table(info)),
        &[Value::RowId(rid), Value::from(g.serialize())],
    )?;
    Ok(())
}

fn unindex_one(srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId, value: &Value) -> Result<()> {
    if value.is_null() {
        return Ok(());
    }
    let g = Geometry::from_value(value)?;
    let table = rtree_table(info);
    RTree::open(srv, table).delete(rid, g.mbr())?;
    srv.execute(
        &format!("DELETE FROM {} WHERE rid = ?", geom_table(info)),
        &[Value::RowId(rid)],
    )?;
    Ok(())
}

impl RtreeIndexMethods {
    /// Stream the base table through [`OdciIndex::build_batch`] — the
    /// R-tree itself mutates serially, but parsing still fans out.
    fn populate_from_base(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        let parallel = info.parameters.parallel_degree();
        srv.scan_base_batches(
            &info.table_name,
            &[&info.column_name],
            DEFAULT_BUILD_BATCH_ROWS,
            &mut |srv, batch| self.build_batch(srv, info, batch, parallel),
        )
    }
}

impl OdciIndex for RtreeIndexMethods {
    fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        RTree::create(srv, rtree_table(info))?;
        srv.execute(
            &format!(
                "CREATE TABLE {} (rid ROWID, geom VARCHAR2(4000), PRIMARY KEY (rid)) \
                 ORGANIZATION INDEX",
                geom_table(info)
            ),
            &[],
        )?;
        self.populate_from_base(srv, info)
    }

    fn alter(&self, srv: &mut dyn ServerContext, info: &IndexInfo, _delta: &ParamString) -> Result<()> {
        self.truncate(srv, info)?;
        self.populate_from_base(srv, info)
    }

    fn build_batch(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        batch: &[BaseRow],
        parallel: usize,
    ) -> Result<()> {
        // Parse + MBR + serialization are pure CPU and fan out; the tree
        // insertions are stateful (node splits) and stay serial on the
        // coordinator, in input order.
        let prepared = try_partition_map(batch, parallel, |row| {
            let v = row.value();
            if v.is_null() {
                return Ok::<_, Error>(None);
            }
            let g = Geometry::from_value(v)?;
            Ok(Some((row.rid, g.mbr(), g.serialize())))
        })?;
        let rt = rtree_table(info);
        let gt = geom_table(info);
        for (rid, mbr, geom) in prepared.into_iter().flatten() {
            RTree::open(srv, rt.clone()).insert(rid, mbr)?;
            srv.execute(
                &format!("INSERT INTO {gt} VALUES (?, ?)"),
                &[Value::RowId(rid), Value::from(geom)],
            )?;
        }
        Ok(())
    }

    fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("TRUNCATE TABLE {}", rtree_table(info)), &[])?;
        // Re-initialize an empty root.
        let table = rtree_table(info);
        srv.execute(&format!("INSERT INTO {table} VALUES (0, '1,2')"), &[])?;
        srv.execute(&format!("INSERT INTO {table} VALUES (1, 'L|')"), &[])?;
        srv.execute(&format!("TRUNCATE TABLE {}", geom_table(info)), &[])?;
        Ok(())
    }

    fn drop_index(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        srv.execute(&format!("DROP TABLE {}", rtree_table(info)), &[])?;
        srv.execute(&format!("DROP TABLE {}", geom_table(info)), &[])?;
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
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", geom_table(info)), &[])?[0][0]
            .as_integer()? as f64;
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
        let total = srv.query(&format!("SELECT COUNT(*) FROM {}", geom_table(info)), &[])?[0][0]
            .as_integer()? as f64;
        Ok(IndexCost {
            io_cost: 3.0 + (total.max(1.0)).log2() / 3.0 + selectivity * total / 8.0,
            cpu_cost: selectivity * total * 0.01,
        })
    }
}
