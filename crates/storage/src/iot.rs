//! Index-organized tables.
//!
//! An IOT stores whole rows in B-tree order on a key prefix of the row.
//! The paper singles these out as the workhorse domain-index store (§2.5:
//! "we have found that index-organized tables are commonly used as index
//! data stores") — the text cartridge's inverted index lives in one, keyed
//! by `(token, rowid)`.
//!
//! Rows live in an in-memory ordered map; I/O is *modeled*: mutations
//! charge the tree height in page reads plus one leaf write, and every
//! read — a point probe, a key range, one batch of a full scan — is one
//! [`IndexOrganizedTable::range`] charged by one rule,
//! [`IndexOrganizedTable::read_charge`]: the height to descend plus the
//! leaf pages the rows it returned span, at least one. The engine layer
//! applies these charges to the buffer cache.
//!
//! ## Logical rowids
//!
//! IOT rows have no heap slot, so the engine cannot hand a physical
//! `RowId` to secondary B-tree or domain indexes — the reason Oracle
//! invented *logical rowids* for IOTs. Here every row carries a
//! monotonically assigned **ordinal**, stored beside the row: stable
//! across in-place updates (upsert of an existing key keeps its ordinal),
//! never reused after delete, and restorable by undo. The engine packs the
//! ordinal into the page/slot fields of a `RowId`, giving IOT rows
//! addresses that flow through index maintenance and rowid→row joins
//! exactly like heap rows.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use extidx_common::value::approx_row_size;
use extidx_common::{Error, Key, Result, Row};

use crate::page::{btree_height, SegmentId, PAGE_SIZE};

/// An index-organized table: rows stored in key order.
#[derive(Debug, Clone)]
pub struct IndexOrganizedTable {
    seg: SegmentId,
    /// Number of leading row columns forming the primary key.
    key_cols: usize,
    /// Every row by key, beside its logical-rowid ordinal. The key is
    /// shared with `keys_by_ord` (and with every image cloned from this
    /// table), not copied.
    rows: BTreeMap<Arc<Key>, (u64, Row)>,
    /// The reverse map, for logical-rowid fetches.
    keys_by_ord: BTreeMap<u64, Arc<Key>>,
    next_ord: u64,
    /// Running total of estimated row bytes, for leaf-page modeling.
    total_bytes: usize,
}

/// Pages an IOT operation touched, to be charged to the buffer cache by
/// the engine: `(reads, writes)` expressed as page counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IotIoCharge {
    pub page_reads: usize,
    pub page_writes: usize,
}

/// Whether key bounds `(lo, hi)` can hold any key. `BTreeMap::range`
/// panics on the ones that cannot (`lo > hi`, or `Excluded(k)` on both
/// sides), so every ranged read of a key-ordered map asks this first.
pub(crate) fn bounds_admit_keys(lo: Bound<&Key>, hi: Bound<&Key>) -> bool {
    use Bound::{Excluded, Included, Unbounded};
    match (lo, hi) {
        (Unbounded, _) | (_, Unbounded) => true,
        (Included(a), Included(b)) => a <= b,
        (Included(a) | Excluded(a), Included(b) | Excluded(b)) => a < b,
    }
}

impl IndexOrganizedTable {
    /// Create an empty IOT whose first `key_cols` row columns are the key.
    pub fn new(seg: SegmentId, key_cols: usize) -> Self {
        assert!(key_cols > 0, "an IOT needs at least one key column");
        IndexOrganizedTable {
            seg,
            key_cols,
            rows: BTreeMap::new(),
            keys_by_ord: BTreeMap::new(),
            next_ord: 0,
            total_bytes: 0,
        }
    }

    /// This table's segment id.
    pub fn segment(&self) -> SegmentId {
        self.seg
    }

    /// Number of key columns.
    pub fn key_cols(&self) -> usize {
        self.key_cols
    }

    /// Live row count.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Modeled leaf-page count (optimizer input and scan-cost model).
    pub fn page_count(&self) -> usize {
        self.total_bytes.div_ceil(PAGE_SIZE).max(1)
    }

    /// Modeled rows per leaf page.
    fn rows_per_leaf(&self) -> usize {
        if self.rows.is_empty() {
            return 1;
        }
        let avg = (self.total_bytes / self.rows.len()).max(1);
        (PAGE_SIZE / avg).max(1)
    }

    /// Modeled tree height.
    pub fn height(&self) -> usize {
        btree_height(self.rows.len())
    }

    /// The one read charge: descend the tree, then read the leaf pages
    /// `rows` returned rows span — at least one, since even a probe that
    /// finds nothing lands on a leaf.
    pub fn read_charge(&self, rows: usize) -> IotIoCharge {
        let leaf_pages = rows.div_ceil(self.rows_per_leaf()).max(1);
        IotIoCharge { page_reads: self.height() + leaf_pages, page_writes: 0 }
    }

    fn key_of(&self, row: &[extidx_common::Value]) -> Result<Key> {
        if row.len() < self.key_cols {
            return Err(Error::Storage(format!(
                "IOT {} requires at least {} columns, row has {}",
                self.seg,
                self.key_cols,
                row.len()
            )));
        }
        Ok(Key(row[..self.key_cols].to_vec()))
    }

    fn alloc_ord(&mut self, key: &Arc<Key>) -> u64 {
        let ord = self.next_ord;
        self.next_ord += 1;
        self.keys_by_ord.insert(ord, Arc::clone(key));
        ord
    }

    /// The ordinal the next fresh insert will be assigned. Lets the engine
    /// write an ordinal-explicit WAL record before applying the mutation
    /// (commit-order replay must not re-derive ordinal assignments).
    pub fn peek_next_ord(&self) -> u64 {
        self.next_ord
    }

    /// The ordinal an upsert of `row` would end up under: the existing
    /// key's ordinal, or the next fresh one.
    pub fn peek_upsert_ord(&self, row: &[extidx_common::Value]) -> Result<u64> {
        let key = self.key_of(row)?;
        Ok(self.ordinal_of(&key).unwrap_or(self.next_ord))
    }

    /// Insert a row. Duplicate keys are a constraint violation, like an
    /// IOT primary key in Oracle. Returns the row's logical-rowid ordinal.
    pub fn insert(&mut self, row: Row) -> Result<(u64, IotIoCharge)> {
        let key = self.key_of(&row)?;
        if self.rows.contains_key(&key) {
            return Err(Error::Constraint(format!(
                "duplicate key {key} in index-organized table {}",
                self.seg
            )));
        }
        let charge = IotIoCharge { page_reads: self.height(), page_writes: 1 };
        self.total_bytes += approx_row_size(&row);
        let key = Arc::new(key);
        let ord = self.alloc_ord(&key);
        self.rows.insert(key, (ord, row));
        Ok((ord, charge))
    }

    /// Re-insert a row under a previously assigned ordinal — the undo
    /// path restoring a deleted row with its original logical rowid.
    pub fn insert_with_ordinal(&mut self, row: Row, ord: u64) -> Result<IotIoCharge> {
        let key = self.key_of(&row)?;
        let charge = IotIoCharge { page_reads: self.height(), page_writes: 1 };
        self.total_bytes += approx_row_size(&row);
        if let Some((prev, old)) = self.rows.remove(&key) {
            self.total_bytes = self.total_bytes.saturating_sub(approx_row_size(&old));
            self.keys_by_ord.remove(&prev);
        }
        let key = Arc::new(key);
        self.keys_by_ord.insert(ord, Arc::clone(&key));
        self.rows.insert(key, (ord, row));
        self.next_ord = self.next_ord.max(ord + 1);
        Ok(charge)
    }

    /// Insert or replace by key; returns the previous row if any plus the
    /// row's ordinal (preserved across replace — logical rowids are
    /// stable under in-place updates).
    pub fn upsert(&mut self, row: Row) -> Result<(Option<Row>, u64, IotIoCharge)> {
        let key = self.key_of(&row)?;
        let charge = IotIoCharge { page_reads: self.height(), page_writes: 1 };
        self.total_bytes += approx_row_size(&row);
        let (ord, old) = match self.rows.get_mut(&key) {
            Some((ord, slot)) => (*ord, Some(std::mem::replace(slot, row))),
            None => {
                let key = Arc::new(key);
                let ord = self.alloc_ord(&key);
                self.rows.insert(key, (ord, row));
                (ord, None)
            }
        };
        if let Some(ref o) = old {
            self.total_bytes = self.total_bytes.saturating_sub(approx_row_size(o));
        }
        Ok((old, ord, charge))
    }

    /// Delete by exact key; returns the removed row and its ordinal if
    /// present.
    pub fn delete(&mut self, key: &Key) -> (Option<(Row, u64)>, IotIoCharge) {
        let charge = IotIoCharge { page_reads: self.height(), page_writes: 1 };
        let removed = self.rows.remove(key).map(|(ord, old)| {
            self.total_bytes = self.total_bytes.saturating_sub(approx_row_size(&old));
            self.keys_by_ord.remove(&ord);
            (old, ord)
        });
        (removed, charge)
    }

    /// The logical-rowid ordinal of a key, if the row exists.
    pub fn ordinal_of(&self, key: &Key) -> Option<u64> {
        self.rows.get(key).map(|&(ord, _)| ord)
    }

    /// Point lookup by ordinal (logical-rowid fetch).
    pub fn by_ordinal(&self, ord: u64) -> (Option<(&Key, &Row)>, IotIoCharge) {
        let charge = IotIoCharge { page_reads: self.height(), page_writes: 0 };
        let found = self
            .keys_by_ord
            .get(&ord)
            .and_then(|k| self.rows.get_key_value(&**k))
            .map(|(k, (_, row))| (&**k, row));
        (found, charge)
    }

    /// The one read of an IOT: every row with a key inside `(lo, hi)`, in
    /// key order, with its ordinal — a point probe, a key-prefix range
    /// (prefix lower bound, NULL-padded upper bound) and a page of a full
    /// scan (`Excluded(last key)` onwards) alike. Borrows, allocates
    /// nothing per row, and yields nothing for bounds that admit no key.
    /// Charge what was consumed with [`Self::read_charge`].
    pub fn range<'a>(
        &'a self,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
    ) -> impl Iterator<Item = (&'a Key, u64, &'a Row)> + 'a {
        let rows = bounds_admit_keys(lo, hi).then(|| self.rows.range::<Key, _>((lo, hi)));
        rows.into_iter().flatten().map(|(k, (ord, row))| (&**k, *ord, row))
    }

    /// Remove every row. Ordinals are not reused, so logical rowids from
    /// before the truncate never resurrect.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.keys_by_ord.clear();
        self.total_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extidx_common::Value;
    use Bound::{Excluded, Included, Unbounded};

    fn iot() -> IndexOrganizedTable {
        IndexOrganizedTable::new(SegmentId(9), 2)
    }

    fn entry(token: &str, doc: i64) -> Row {
        vec![Value::from(token), Value::Integer(doc), Value::Integer(doc * 10)]
    }

    /// The rows of `t` inside `(lo, hi)`, cloned.
    fn rows(t: &IndexOrganizedTable, lo: Bound<&Key>, hi: Bound<&Key>) -> Vec<Row> {
        t.range(lo, hi).map(|(_, _, r)| r.clone()).collect()
    }

    fn get(t: &IndexOrganizedTable, key: &Key) -> Option<Row> {
        rows(t, Included(key), Included(key)).pop()
    }

    #[test]
    fn insert_and_point_get() {
        let mut t = iot();
        t.insert(entry("oracle", 1)).unwrap();
        let key = Key(vec![Value::from("oracle"), Value::Integer(1)]);
        assert_eq!(get(&t, &key).unwrap()[2], Value::Integer(10));
        // Tiny tree: height 1, plus the one leaf a probe lands on.
        assert_eq!(t.read_charge(1).page_reads, 2);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = iot();
        t.insert(entry("oracle", 1)).unwrap();
        let err = t.insert(entry("oracle", 1)).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
    }

    #[test]
    fn upsert_replaces() {
        let mut t = iot();
        t.insert(entry("oracle", 1)).unwrap();
        let mut newer = entry("oracle", 1);
        newer[2] = Value::Integer(999);
        let (old, _, _) = t.upsert(newer).unwrap();
        assert!(old.is_some());
        let key = Key(vec![Value::from("oracle"), Value::Integer(1)]);
        assert_eq!(get(&t, &key).unwrap()[2], Value::Integer(999));
        assert_eq!(t.row_count(), 1);
    }

    /// The inverted-index pattern: key `(token, rowid)`, the posting list
    /// of a token is the range from the prefix `(token)` to `(token, NULL)`
    /// — NULL sorts last, so the padded bound covers every `(token, …)`.
    #[test]
    fn posting_list_is_a_prefix_range() {
        let mut t = iot();
        for d in 1..=5 {
            t.insert(entry("oracle", d)).unwrap();
            t.insert(entry("unix", d * 100)).unwrap();
        }
        let prefix = Key::single(Value::from("oracle"));
        let padded = Key(vec![Value::from("oracle"), Value::Null]);
        let rows = rows(&t, Included(&prefix), Included(&padded));
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[0] == Value::from("oracle")));
        // Results come back in key order.
        let docs: Vec<i64> = rows.iter().map(|r| r[1].as_integer().unwrap()).collect();
        assert_eq!(docs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn absent_token_prefix_range_is_empty() {
        let mut t = iot();
        t.insert(entry("oracle", 1)).unwrap();
        let prefix = Key::single(Value::from("cobol"));
        let padded = Key(vec![Value::from("cobol"), Value::Null]);
        assert!(rows(&t, Included(&prefix), Included(&padded)).is_empty());
    }

    #[test]
    fn range_scan_inclusive_bounds() {
        let mut t = IndexOrganizedTable::new(SegmentId(1), 1);
        for i in 0..10 {
            t.insert(vec![Value::Integer(i)]).unwrap();
        }
        let lo = Key::single(Value::Integer(3));
        let hi = Key::single(Value::Integer(6));
        assert_eq!(rows(&t, Included(&lo), Included(&hi)).len(), 4);
        assert_eq!(rows(&t, Excluded(&lo), Excluded(&hi)).len(), 2);
    }

    /// Bounds that admit no key yield nothing; `BTreeMap::range` would
    /// panic on both of these.
    #[test]
    fn inverted_or_doubly_excluded_bounds_yield_nothing() {
        let mut t = IndexOrganizedTable::new(SegmentId(1), 1);
        for i in 0..10 {
            t.insert(vec![Value::Integer(i)]).unwrap();
        }
        let (three, seven) = (Key::single(Value::Integer(3)), Key::single(Value::Integer(7)));
        assert!(rows(&t, Included(&seven), Included(&three)).is_empty());
        assert!(rows(&t, Excluded(&three), Excluded(&three)).is_empty());
        assert!(rows(&t, Excluded(&three), Included(&three)).is_empty());
        assert_eq!(rows(&t, Included(&three), Included(&three)).len(), 1);
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut t = iot();
        t.insert(entry("oracle", 1)).unwrap();
        let key = Key(vec![Value::from("oracle"), Value::Integer(1)]);
        let (old, _) = t.delete(&key);
        assert!(old.is_some());
        let (again, _) = t.delete(&key);
        assert!(again.is_none());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn leaf_page_model_scales_with_rows() {
        let mut t = IndexOrganizedTable::new(SegmentId(1), 1);
        for i in 0..1000 {
            t.insert(vec![Value::Integer(i), Value::from("x".repeat(100))]).unwrap();
        }
        // ~112 bytes/row → ~73 rows/page → ~14 pages.
        assert!(t.page_count() >= 10 && t.page_count() <= 20, "{}", t.page_count());
        assert_eq!(t.range(Unbounded, Unbounded).count(), 1000);
        assert!(t.read_charge(1000).page_reads > 10, "full range should touch many leaves");
        assert_eq!(t.read_charge(0), t.read_charge(1), "an empty read still lands on a leaf");
    }

    #[test]
    fn key_shorter_than_declared_is_error() {
        let mut t = iot();
        assert!(t.insert(vec![Value::from("only-one-col")]).is_err());
    }

    #[test]
    fn ordinals_are_stable_and_never_reused() {
        let mut t = iot();
        let (o1, _) = t.insert(entry("a", 1)).unwrap();
        let (o2, _) = t.insert(entry("b", 2)).unwrap();
        assert_ne!(o1, o2);

        // In-place replace keeps the ordinal.
        let mut newer = entry("a", 1);
        newer[2] = Value::Integer(777);
        let (_, o1_again, _) = t.upsert(newer).unwrap();
        assert_eq!(o1, o1_again);

        // Delete retires the ordinal; a fresh insert gets a new one.
        let key_a = Key(vec![Value::from("a"), Value::Integer(1)]);
        let (removed, _) = t.delete(&key_a);
        assert_eq!(removed.unwrap().1, o1);
        let (o3, _) = t.insert(entry("a", 1)).unwrap();
        assert!(o3 > o2);

        // Undo-style restore brings back the original ordinal.
        let key_a2 = key_a.clone();
        t.delete(&key_a2);
        t.insert_with_ordinal(entry("a", 1), o1).unwrap();
        assert_eq!(t.ordinal_of(&key_a), Some(o1));
        let (found, _) = t.by_ordinal(o1);
        assert_eq!(found.unwrap().0, &key_a);
        // The range read hands back the ordinal stored beside the row.
        let ordinals: Vec<u64> = t.range(Unbounded, Unbounded).map(|(_, o, _)| o).collect();
        assert_eq!(ordinals, vec![o1, o2]);
    }

    #[test]
    fn after_key_pages_through_in_key_order() {
        let mut t = IndexOrganizedTable::new(SegmentId(1), 1);
        for i in 0..7 {
            t.insert(vec![Value::Integer(i)]).unwrap();
        }
        let first: Vec<_> = t.range(Unbounded, Unbounded).take(3).collect();
        assert_eq!(first.len(), 3);
        let last_key = first.last().unwrap().0;
        let second: Vec<_> = t.range(Excluded(last_key), Unbounded).take(10).collect();
        assert_eq!(second.len(), 4);
        assert_eq!(second[0].2[0], Value::Integer(3));
    }
}
