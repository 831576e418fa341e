//! The pre-Oracle8i spatial query formulation — the §3.2.2 baseline.
//!
//! "Prior to Oracle8i, the above query had to be formulated as follows by
//! the end user: SELECT DISTINCT r.gid, p.gid FROM roads_sdoindex r,
//! parks_sdoindex p WHERE (r.grpcode = p.grpcode) AND (…) AND
//! (sdo_geom.Relate(r.gid, p.gid, 'OVERLAPS') = 'TRUE')" — the user joins
//! the *exposed index tables* on tile codes and applies the exact
//! predicate manually. "The drawback … is that the querying algorithm
//! which may be proprietary has to be exposed to the user."
//!
//! [`legacy_relate_join`] reproduces that formulation against the
//! `DR$…$T` tile tables the modern cartridge maintains: a SQL tile join
//! for the primary filter, then a hand-rolled exact filter over each
//! candidate's gid and geometry, read from its base table by rowid.

use std::collections::BTreeSet;

use extidx_common::{Error, Result, RowId, Value};
use extidx_sql::Database;

use crate::geometry::{Geometry, Mask};

/// The pre-8i join of two spatial layers: returns `(gid_a, gid_b)` pairs
/// whose geometries satisfy `mask`. `gid_col_*` name the id columns of
/// the base tables; `index_*` name the domain indexes whose storage
/// tables the legacy query reads directly.
#[allow(clippy::too_many_arguments)]
pub fn legacy_relate_join(
    db: &mut Database,
    table_a: &str,
    gid_col_a: &str,
    index_a: &str,
    table_b: &str,
    gid_col_b: &str,
    index_b: &str,
    mask: Mask,
) -> Result<Vec<(Value, Value)>> {
    // Each side's exposed tile table, and the gid and geometry of a row.
    let side = |db: &Database, table: &str, gid_col: &str, index: &str| {
        let def = db
            .catalog()
            .domain_index(index)
            .ok_or_else(|| Error::not_found("index", index))?;
        Ok::<_, Error>((
            format!("DR${}$T", def.name),
            format!("SELECT {gid_col}, {} FROM {table} WHERE ROWID = ?", def.column),
        ))
    };
    let (ta, row_a) = side(db, table_a, gid_col_a, index_a)?;
    let (tb, row_b) = side(db, table_b, gid_col_b, index_b)?;

    // Primary filter, exposed to the "user" as a plain SQL join on tile
    // codes (the r.grpcode = p.grpcode part of the paper's query).
    let pairs = db.query(&format!(
        "SELECT DISTINCT a.rid, b.rid FROM {ta} a, {tb} b WHERE a.tile = b.tile"
    ))?;

    // Exact filter, applied pair by pair — the sdo_geom.Relate(...) part.
    let mut results = Vec::new();
    let mut seen: BTreeSet<(RowId, RowId)> = BTreeSet::new();
    for p in pairs {
        let (ra, rb) = (p[0].as_rowid()?, p[1].as_rowid()?);
        if !seen.insert((ra, rb)) {
            continue;
        }
        let a = db.query_with(&row_a, &[Value::RowId(ra)])?;
        let b = db.query_with(&row_b, &[Value::RowId(rb)])?;
        let (Some([gid_a, geom_a]), Some([gid_b, geom_b])) =
            (a.first().map(Vec::as_slice), b.first().map(Vec::as_slice))
        else {
            continue;
        };
        if Geometry::from_value(geom_a)?.relate(&Geometry::from_value(geom_b)?, mask) {
            results.push((gid_a.clone(), gid_b.clone()));
        }
    }
    Ok(results)
}
