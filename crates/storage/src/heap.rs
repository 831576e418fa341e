//! Slotted-page heap tables.
//!
//! A heap table is a sequence of pages, each holding row slots. Rows are
//! addressed by [`RowId`] (segment is implied by the table). Deleted slots
//! are remembered in a free list and reused, so rowids of long-lived rows
//! stay stable — which matters because domain indexes persist rowids in
//! their index storage tables and hand them back during scans.

use std::cmp::Ordering;

use extidx_common::value::approx_row_size;
use extidx_common::{Error, Result, Row, RowId, Value};

use crate::page::{SegmentId, MAX_SLOTS_PER_PAGE, PAGE_SIZE};

/// Per-page, per-column min/max bounds — a zone map entry. The invariant
/// scans rely on is *superset validity*: the recorded range always covers
/// every live value in the column on this page. Inserts and updates widen
/// the range; deletes never narrow it (a stale-but-wide range is still
/// valid, just less selective). Exact bounds come back when the page is
/// rewritten (emptied) or on an explicit [`HeapTable::rebuild_zone_maps`].
#[derive(Debug, Default, Clone)]
pub struct ZoneEntry {
    /// `(min, max)` over comparable non-NULL values seen; `None` when
    /// nothing comparable has landed yet (an all-NULL column still prunes:
    /// NULL satisfies no comparison predicate).
    bounds: Option<(Value, Value)>,
    /// Mixed incomparable types defeated the ordering — the entry never
    /// prunes again until a rebuild.
    unbounded: bool,
}

impl ZoneEntry {
    fn widen(&mut self, v: &Value) {
        if self.unbounded || v.is_null() {
            return;
        }
        match &mut self.bounds {
            None => self.bounds = Some((v.clone(), v.clone())),
            Some((mn, mx)) => {
                match v.sql_cmp(mn) {
                    Some(Ordering::Less) => *mn = v.clone(),
                    Some(_) => {}
                    None => {
                        self.unbounded = true;
                        self.bounds = None;
                        return;
                    }
                }
                match v.sql_cmp(mx) {
                    Some(Ordering::Greater) => *mx = v.clone(),
                    Some(_) => {}
                    None => {
                        self.unbounded = true;
                        self.bounds = None;
                    }
                }
            }
        }
    }

    /// True when no live value in this column can fall inside the
    /// inclusive interval `[lo, hi]` (`None` = open end). Conservative:
    /// incomparable literals never prune.
    fn excludes(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        if self.unbounded {
            return false;
        }
        let Some((mn, mx)) = &self.bounds else {
            // Every value this entry has ever covered was NULL, and NULL
            // satisfies no comparison predicate.
            return true;
        };
        if let Some(lo) = lo {
            match lo.sql_cmp(mx) {
                Some(Ordering::Greater) => return true,
                Some(_) => {}
                None => return false,
            }
        }
        if let Some(hi) = hi {
            match hi.sql_cmp(mn) {
                Some(Ordering::Less) => return true,
                Some(_) => {}
                None => return false,
            }
        }
        false
    }
}

/// One heap page: row slots plus a byte-occupancy estimate and the
/// page's zone map (one [`ZoneEntry`] per column seen).
#[derive(Debug, Default, Clone)]
struct HeapPage {
    slots: Vec<Option<Row>>,
    bytes_used: usize,
    zone: Vec<ZoneEntry>,
}

impl HeapPage {
    fn fits(&self, row_bytes: usize) -> bool {
        self.slots.len() < MAX_SLOTS_PER_PAGE && self.bytes_used + row_bytes <= PAGE_SIZE
    }

    fn widen_zone(&mut self, row: &Row) {
        if self.zone.len() < row.len() {
            self.zone.resize(row.len(), ZoneEntry::default());
        }
        for (entry, v) in self.zone.iter_mut().zip(row) {
            entry.widen(v);
        }
    }

    /// Recompute exact bounds from the live rows (the page-rewrite path).
    fn rebuild_zone(&mut self) {
        self.zone.clear();
        let rows: Vec<Row> = self.slots.iter().flatten().cloned().collect();
        for row in &rows {
            self.widen_zone(row);
        }
    }

    fn live_rows(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// A heap table segment.
#[derive(Debug, Clone)]
pub struct HeapTable {
    seg: SegmentId,
    pages: Vec<HeapPage>,
    /// Recycled slots from deletes: (page, slot).
    free: Vec<(u32, u16)>,
    rows: usize,
}

impl HeapTable {
    /// Create an empty heap segment.
    pub fn new(seg: SegmentId) -> Self {
        HeapTable { seg, pages: Vec::new(), free: Vec::new(), rows: 0 }
    }

    /// This table's segment id.
    pub fn segment(&self) -> SegmentId {
        self.seg
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of allocated pages (the optimizer's full-scan cost input).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The rowid [`HeapTable::insert`] would assign to `row` right now,
    /// without inserting. Lets the engine write a placement-explicit WAL
    /// record *before* applying the mutation (log-before-apply), which is
    /// required now that recovery replays transactions in commit order
    /// rather than statement-execution order.
    pub fn peek_insert_rid(&self, row: &Row) -> RowId {
        let bytes = approx_row_size(row);
        if let Some(&(page, slot)) = self
            .free
            .iter()
            .find(|&&(p, _)| self.pages[p as usize].bytes_used + bytes <= PAGE_SIZE)
        {
            return RowId::new(self.seg.0, page, slot);
        }
        match self.pages.last() {
            Some(p) if p.fits(bytes) => {
                RowId::new(self.seg.0, self.pages.len() as u32 - 1, p.slots.len() as u16)
            }
            _ => RowId::new(self.seg.0, self.pages.len() as u32, 0),
        }
    }

    /// Insert a row; returns its new rowid and the page touched.
    pub fn insert(&mut self, row: Row) -> (RowId, u32) {
        let bytes = approx_row_size(&row);
        // Prefer a recycled slot whose page still has byte room.
        if let Some(pos) = self
            .free
            .iter()
            .position(|&(p, _)| self.pages[p as usize].bytes_used + bytes <= PAGE_SIZE)
        {
            let (page, slot) = self.free.swap_remove(pos);
            let p = &mut self.pages[page as usize];
            debug_assert!(p.slots[slot as usize].is_none());
            p.widen_zone(&row);
            p.slots[slot as usize] = Some(row);
            p.bytes_used += bytes;
            self.rows += 1;
            return (RowId::new(self.seg.0, page, slot), page);
        }
        // Append to the last page if it fits, else open a new page.
        let page_no = match self.pages.last() {
            Some(p) if p.fits(bytes) => self.pages.len() - 1,
            _ => {
                self.pages.push(HeapPage::default());
                self.pages.len() - 1
            }
        };
        let p = &mut self.pages[page_no];
        let slot = p.slots.len() as u16;
        p.widen_zone(&row);
        p.slots.push(Some(row));
        p.bytes_used += bytes;
        self.rows += 1;
        (RowId::new(self.seg.0, page_no as u32, slot), page_no as u32)
    }

    /// Insert a row at a specific rowid (undo of a delete, or WAL replay
    /// of a placement-explicit record). The slot must currently be empty;
    /// missing pages/slots are grown on demand — commit-order replay can
    /// materialize placements in a different order than the live run chose
    /// them, so the target page may not exist yet. Grown-but-skipped slots
    /// go on the free list, mirroring the live run's recycled slots.
    pub fn insert_at(&mut self, rid: RowId, row: Row) -> Result<()> {
        let bytes = approx_row_size(&row);
        while self.pages.len() <= rid.page as usize {
            self.pages.push(HeapPage::default());
        }
        let existing = self.pages[rid.page as usize].slots.len();
        for s in existing..=(rid.slot as usize) {
            if s < rid.slot as usize {
                self.free.push((rid.page, s as u16));
            }
            self.pages[rid.page as usize].slots.push(None);
        }
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| Error::Storage(format!("{rid}: page out of range")))?;
        let slot = page
            .slots
            .get_mut(rid.slot as usize)
            .ok_or_else(|| Error::Storage(format!("{rid}: slot out of range")))?;
        if slot.is_some() {
            return Err(Error::Storage(format!("{rid}: slot is occupied")));
        }
        *slot = Some(row.clone());
        page.widen_zone(&row);
        page.bytes_used += bytes;
        self.free.retain(|&(p, s)| (p, s) != (rid.page, rid.slot));
        self.rows += 1;
        Ok(())
    }

    /// Fetch a row by rowid.
    pub fn fetch(&self, rid: RowId) -> Result<&Row> {
        self.pages
            .get(rid.page as usize)
            .and_then(|p| p.slots.get(rid.slot as usize))
            .and_then(|s| s.as_ref())
            .ok_or_else(|| Error::Storage(format!("{rid}: no such row")))
    }

    /// Replace a row in place; returns the old row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Result<Row> {
        let new_bytes = approx_row_size(&new_row);
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| Error::Storage(format!("{rid}: page out of range")))?;
        let slot = page
            .slots
            .get_mut(rid.slot as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| Error::Storage(format!("{rid}: no such row")))?;
        let old = std::mem::replace(slot, new_row.clone());
        // Widen with the new image only: removing the old value must not
        // narrow the zone (the stale range stays a valid superset).
        page.widen_zone(&new_row);
        page.bytes_used = page.bytes_used + new_bytes - approx_row_size(&old).min(page.bytes_used);
        Ok(old)
    }

    /// Delete a row; returns it. The slot goes on the free list.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or_else(|| Error::Storage(format!("{rid}: page out of range")))?;
        let slot = page
            .slots
            .get_mut(rid.slot as usize)
            .ok_or_else(|| Error::Storage(format!("{rid}: slot out of range")))?;
        let old = slot.take().ok_or_else(|| Error::Storage(format!("{rid}: no such row")))?;
        page.bytes_used = page.bytes_used.saturating_sub(approx_row_size(&old));
        // Deletes never narrow the zone map. Only when the page empties
        // entirely (the cheap "page rewrite" moment) are exact bounds
        // recomputed — which for an empty page means clearing them.
        if page.live_rows() == 0 {
            page.rebuild_zone();
        }
        self.free.push((rid.page, rid.slot));
        self.rows -= 1;
        Ok(old)
    }

    /// Recompute exact zone-map bounds for every page (the ANALYZE-style
    /// lazy rebuild; between rebuilds bounds may be stale but wide).
    pub fn rebuild_zone_maps(&mut self) {
        for p in &mut self.pages {
            p.rebuild_zone();
        }
    }

    /// Widen a page's zone map with a row image that is not physically on
    /// the page — an MVCC chain version some snapshot can still resolve
    /// to. Keeps the superset invariant (and therefore zone pruning)
    /// valid on chained segments after exact rebuilds; no-op for
    /// out-of-range pages.
    pub fn widen_page_zone(&mut self, page: u32, row: &Row) {
        if let Some(p) = self.pages.get_mut(page as usize) {
            p.widen_zone(row);
        }
    }

    /// True when the zone map proves no live row on `page` has a `col`
    /// value inside the inclusive interval `[lo, hi]` (`None` = open
    /// end), so a scan may skip the page without touching it.
    pub fn zone_excludes(&self, page: u32, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        self.pages
            .get(page as usize)
            .and_then(|p| p.zone.get(col))
            .is_some_and(|entry| entry.excludes(lo, hi))
    }

    /// The recorded `(min, max)` for a column on a page, if bounded
    /// (test/diagnostic hook; `None` for unbounded or all-NULL entries).
    pub fn zone_bounds(&self, page: u32, col: usize) -> Option<(Value, Value)> {
        self.pages.get(page as usize).and_then(|p| p.zone.get(col)).and_then(|e| e.bounds.clone())
    }

    /// Remove every row (TRUNCATE). Pages are released.
    pub fn truncate(&mut self) {
        self.pages.clear();
        self.free.clear();
        self.rows = 0;
    }

    /// The slots (live or free) of a page, `None` for out-of-range pages —
    /// what the engine's page walk iterates.
    pub fn page_slots(&self, page: u32) -> Option<&[Option<Row>]> {
        self.pages.get(page as usize).map(|p| p.slots.as_slice())
    }

    /// Iterate all live rows in physical order, with the page number of
    /// each row exposed so the caller can charge page reads.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, u32, &Row)> + '_ {
        let seg = self.seg.0;
        self.pages.iter().enumerate().flat_map(move |(pno, page)| {
            page.slots.iter().enumerate().filter_map(move |(sno, slot)| {
                slot.as_ref()
                    .map(|row| (RowId::new(seg, pno as u32, sno as u16), pno as u32, row))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_common::Value;

    fn table() -> HeapTable {
        HeapTable::new(SegmentId(3))
    }

    fn row(i: i64) -> Row {
        vec![Value::Integer(i), Value::from(format!("row-{i}"))]
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let mut t = table();
        let (rid, _) = t.insert(row(1));
        assert_eq!(t.fetch(rid).unwrap(), &row(1));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn rowids_are_stable_across_other_deletes() {
        let mut t = table();
        let (r1, _) = t.insert(row(1));
        let (r2, _) = t.insert(row(2));
        let (r3, _) = t.insert(row(3));
        t.delete(r2).unwrap();
        assert_eq!(t.fetch(r1).unwrap(), &row(1));
        assert_eq!(t.fetch(r3).unwrap(), &row(3));
        assert!(t.fetch(r2).is_err());
    }

    #[test]
    fn deleted_slots_are_reused() {
        let mut t = table();
        let (r1, _) = t.insert(row(1));
        t.insert(row(2));
        t.delete(r1).unwrap();
        let (r3, _) = t.insert(row(3));
        assert_eq!(r3, r1, "freed slot should be recycled");
        assert_eq!(t.fetch(r3).unwrap(), &row(3));
    }

    #[test]
    fn update_returns_old_row() {
        let mut t = table();
        let (rid, _) = t.insert(row(1));
        let old = t.update(rid, row(9)).unwrap();
        assert_eq!(old, row(1));
        assert_eq!(t.fetch(rid).unwrap(), &row(9));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn insert_at_restores_deleted_row() {
        let mut t = table();
        let (rid, _) = t.insert(row(1));
        let old = t.delete(rid).unwrap();
        t.insert_at(rid, old).unwrap();
        assert_eq!(t.fetch(rid).unwrap(), &row(1));
        assert!(t.insert_at(rid, row(2)).is_err(), "occupied slot must refuse");
    }

    #[test]
    fn scan_visits_live_rows_in_order() {
        let mut t = table();
        let (r1, _) = t.insert(row(1));
        let (r2, _) = t.insert(row(2));
        let (r3, _) = t.insert(row(3));
        t.delete(r2).unwrap();
        let seen: Vec<RowId> = t.scan().map(|(rid, _, _)| rid).collect();
        assert_eq!(seen, vec![r1, r3]);
    }

    #[test]
    fn pages_grow_with_volume() {
        let mut t = table();
        let wide = vec![Value::from("x".repeat(2000))];
        for _ in 0..16 {
            t.insert(wide.clone());
        }
        // 2 KB rows, 8 KB pages → 4 rows/page → 4 pages for 16 rows.
        assert_eq!(t.page_count(), 4);
    }

    #[test]
    fn zone_maps_track_min_max_per_page() {
        let mut t = table();
        for i in [5i64, 1, 9, 3] {
            t.insert(row(i));
        }
        assert_eq!(t.zone_bounds(0, 0), Some((Value::Integer(1), Value::Integer(9))));
        // Interval wholly above the recorded max prunes; overlap does not.
        assert!(t.zone_excludes(0, 0, Some(&Value::Integer(10)), None));
        assert!(!t.zone_excludes(0, 0, Some(&Value::Integer(9)), None));
        assert!(t.zone_excludes(0, 0, None, Some(&Value::Integer(0))));
        assert!(!t.zone_excludes(0, 0, Some(&Value::Integer(2)), Some(&Value::Integer(4))));
    }

    #[test]
    fn zone_maps_widen_never_narrow_under_update_and_delete() {
        let mut t = table();
        let (rid, _) = t.insert(row(5));
        let (other, _) = t.insert(row(50));
        // Update widens with the new image; the old value's removal must
        // not narrow the range.
        t.update(rid, row(100)).unwrap();
        assert_eq!(t.zone_bounds(0, 0), Some((Value::Integer(5), Value::Integer(100))));
        // Deleting the extreme row leaves the (now stale, still valid)
        // wide bounds in place.
        t.delete(rid).unwrap();
        assert_eq!(t.zone_bounds(0, 0), Some((Value::Integer(5), Value::Integer(100))));
        assert!(!t.zone_excludes(0, 0, Some(&Value::Integer(90)), None));
        // Emptying the page is the rewrite moment: bounds reset exactly.
        t.delete(other).unwrap();
        assert_eq!(t.zone_bounds(0, 0), None);
        // Explicit rebuild recomputes exact bounds from live rows.
        let (r7, _) = t.insert(row(7));
        t.insert(row(8));
        t.update(r7, row(2)).unwrap();
        t.rebuild_zone_maps();
        assert_eq!(t.zone_bounds(0, 0), Some((Value::Integer(2), Value::Integer(8))));
    }

    #[test]
    fn zone_maps_handle_nulls_and_mixed_types() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::from("x")]);
        // All-NULL column: no comparison predicate can match the page.
        assert!(t.zone_excludes(0, 0, Some(&Value::Integer(1)), None));
        // A real value arrives: pruning now respects it.
        t.insert(vec![Value::Integer(4), Value::from("y")]);
        assert!(!t.zone_excludes(0, 0, Some(&Value::Integer(4)), None));
        // Mixed incomparable types make the entry unbounded — never prune.
        t.insert(vec![Value::from("oops"), Value::from("z")]);
        assert!(!t.zone_excludes(0, 0, Some(&Value::Integer(99)), None));
        assert_eq!(t.zone_bounds(0, 0), None);
    }

    #[test]
    fn truncate_releases_everything() {
        let mut t = table();
        let (rid, _) = t.insert(row(1));
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.page_count(), 0);
        assert!(t.fetch(rid).is_err());
    }
}
