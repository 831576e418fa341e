//! Page and segment identities.
//!
//! The engine models storage as segments of fixed-size pages. Rows are kept
//! as structured values rather than serialized bytes, but page *occupancy*
//! is tracked with byte estimates so that page counts — and therefore all
//! I/O statistics — scale the way a real slotted-page layout would.

/// Fixed page size in bytes (Oracle's common 8 KiB block).
pub const PAGE_SIZE: usize = 8192;

/// Maximum row slots per heap page regardless of row size.
pub const MAX_SLOTS_PER_PAGE: usize = 512;

/// Modeled B-tree fanout for index-organized tables: how many child
/// pointers fit an internal page. Drives the modeled tree height used for
/// I/O charging on probes.
pub const BTREE_FANOUT: usize = 256;

/// Identifier of a storage segment (one heap table, IOT, or index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SEG{}", self.0)
    }
}

/// Pages an IOT or LOB operation touched, for the engine to charge to the
/// buffer cache: `(reads, writes)` as page counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCharge {
    pub page_reads: usize,
    pub page_writes: usize,
}

/// Modeled height of a B-tree holding `n` entries with [`BTREE_FANOUT`]:
/// the number of page reads a point probe costs. Always at least 1.
pub fn btree_height(n: usize) -> usize {
    let mut height = 1usize;
    let mut reach = BTREE_FANOUT;
    while reach < n.max(1) {
        height += 1;
        reach = reach.saturating_mul(BTREE_FANOUT);
    }
    height
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(btree_height(0), 1);
        assert_eq!(btree_height(1), 1);
        assert_eq!(btree_height(BTREE_FANOUT), 1);
        assert_eq!(btree_height(BTREE_FANOUT + 1), 2);
        assert_eq!(btree_height(BTREE_FANOUT * BTREE_FANOUT), 2);
        assert_eq!(btree_height(BTREE_FANOUT * BTREE_FANOUT + 1), 3);
    }

    #[test]
    fn segment_display() {
        assert_eq!(SegmentId(7).to_string(), "SEG7");
    }
}
