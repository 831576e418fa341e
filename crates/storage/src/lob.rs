//! Large-object storage with a file-like interface.
//!
//! LOBs hold unstructured bytes out-of-line and are addressed by
//! [`LobRef`] locators. The interface deliberately mirrors a file API
//! (read at offset, write at offset, append, length, truncate) because the
//! paper's chemistry case study (§3.2.4) hinges on exactly that: "Since
//! LOBs can be accessed and manipulated with a file-like interface,
//! minimal changes were required to the index management software" when
//! Daylight migrated its file-based index into database LOBs.
//!
//! I/O accounting: each operation reports the chunk pages it touched so
//! the engine can charge the buffer cache — this is what makes LOB-stored
//! index data benefit from the database cache ("data is cached in-memory
//! for subsequent operations") while file-stored data does not.

use std::collections::HashMap;

use extidx_common::{Error, LobRef, Result};

use crate::page::{IoCharge, PAGE_SIZE};

/// The LOB segment: all large objects in the database.
#[derive(Debug, Default, Clone)]
pub struct LobStore {
    lobs: HashMap<LobRef, Vec<u8>>,
    next: u64,
}

fn pages_spanned(offset: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = offset / PAGE_SIZE;
    let last = (offset + len - 1) / PAGE_SIZE;
    last - first + 1
}

impl LobStore {
    /// Create an empty LOB segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The locator the next allocation takes. The engine logs the
    /// allocation of this locator before applying it: commit-order replay
    /// must reproduce the live run's assignments.
    pub fn peek_next_ref(&self) -> LobRef {
        LobRef(self.next + 1)
    }

    /// Allocate locator `r` as an empty LOB.
    pub fn allocate_at(&mut self, r: LobRef) {
        self.next = self.next.max(r.0);
        self.lobs.insert(r, Vec::new());
    }

    /// Total number of LOBs.
    pub fn lob_count(&self) -> usize {
        self.lobs.len()
    }

    /// Total modeled pages across all LOBs.
    pub fn page_count(&self) -> usize {
        self.lobs
            .values()
            .map(|b| b.len().div_ceil(PAGE_SIZE))
            .sum()
    }

    fn get(&self, r: LobRef) -> Result<&Vec<u8>> {
        self.lobs.get(&r).ok_or_else(|| Error::Storage(format!("{r}: no such LOB")))
    }

    fn get_mut(&mut self, r: LobRef) -> Result<&mut Vec<u8>> {
        self.lobs.get_mut(&r).ok_or_else(|| Error::Storage(format!("{r}: no such LOB")))
    }

    /// Length of the LOB in bytes.
    pub fn length(&self, r: LobRef) -> Result<u64> {
        Ok(self.get(r)?.len() as u64)
    }

    /// Read `len` bytes starting at `offset` (short read at end-of-lob).
    pub fn read(&self, r: LobRef, offset: u64, len: usize) -> Result<(Vec<u8>, IoCharge)> {
        let data = self.get(r)?;
        let off = (offset as usize).min(data.len());
        let end = (off + len).min(data.len());
        let out = data[off..end].to_vec();
        let charge = IoCharge { page_reads: pages_spanned(off, out.len()).max(1), page_writes: 0 };
        Ok((out, charge))
    }

    /// The whole LOB, where it lies.
    pub fn read_all(&self, r: LobRef) -> Result<(&[u8], IoCharge)> {
        let data = self.get(r)?;
        let charge = IoCharge { page_reads: pages_spanned(0, data.len()).max(1), page_writes: 0 };
        Ok((data, charge))
    }

    /// Write bytes at `offset`, extending (zero-filled) if needed.
    pub fn write(&mut self, r: LobRef, offset: u64, bytes: &[u8]) -> Result<IoCharge> {
        let data = self.get_mut(r)?;
        let off = offset as usize;
        if data.len() < off + bytes.len() {
            data.resize(off + bytes.len(), 0);
        }
        data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(IoCharge { page_reads: 0, page_writes: pages_spanned(off, bytes.len()).max(1) })
    }

    /// Extend the LOB to at least `len` bytes, filling new space with
    /// `fill`. An append lands at a recorded offset: a gap below it on
    /// replay is an aborted transaction's append, which live rollback
    /// hole-filled with `0xFF` tombstone bytes, so replay pads alike.
    pub fn pad_to(&mut self, r: LobRef, len: u64, fill: u8) -> Result<()> {
        let data = self.get_mut(r)?;
        if data.len() < len as usize {
            data.resize(len as usize, fill);
        }
        Ok(())
    }

    /// Replace the whole LOB content; returns the content it replaced.
    pub fn overwrite(&mut self, r: LobRef, bytes: Vec<u8>) -> Result<(Vec<u8>, IoCharge)> {
        let charge = IoCharge { page_reads: 0, page_writes: pages_spanned(0, bytes.len()).max(1) };
        Ok((std::mem::replace(self.get_mut(r)?, bytes), charge))
    }

    /// Truncate to `len` bytes.
    pub fn truncate(&mut self, r: LobRef, len: u64) -> Result<()> {
        let data = self.get_mut(r)?;
        data.truncate(len as usize);
        Ok(())
    }

    /// Free the LOB entirely.
    pub fn free(&mut self, r: LobRef) -> Result<Vec<u8>> {
        self.lobs
            .remove(&r)
            .ok_or_else(|| Error::Storage(format!("{r}: no such LOB")))
    }

    /// Put `bytes` back as the content of locator `r`, allocated or not —
    /// the rollback of an overwrite or a free.
    pub fn restore(&mut self, r: LobRef, bytes: Vec<u8>) {
        self.next = self.next.max(r.0);
        self.lobs.insert(r, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocate where the engine does: the next locator.
    fn alloc(s: &mut LobStore) -> LobRef {
        let r = s.peek_next_ref();
        s.allocate_at(r);
        r
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"hello world").unwrap();
        let (bytes, _) = s.read(r, 6, 5).unwrap();
        assert_eq!(&bytes, b"world");
        assert_eq!(s.length(r).unwrap(), 11);
    }

    #[test]
    fn write_beyond_end_zero_fills() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 4, b"xy").unwrap();
        let (all, _) = s.read_all(r).unwrap();
        assert_eq!(all, [0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn pad_to_fills_the_gap_below_an_append() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"abc").unwrap();
        s.pad_to(r, 5, 0xFF).unwrap();
        s.write(r, 5, b"def").unwrap();
        s.pad_to(r, 2, 0xFF).unwrap();
        assert_eq!(s.read_all(r).unwrap().0, b"abc\xff\xffdef");
    }

    #[test]
    fn overwrite_returns_the_replaced_content() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"old").unwrap();
        let (old, _) = s.overwrite(r, b"newer".to_vec()).unwrap();
        assert_eq!((&old[..], s.read_all(r).unwrap().0), (&b"old"[..], &b"newer"[..]));
    }

    #[test]
    fn short_read_at_end() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"abc").unwrap();
        let (bytes, _) = s.read(r, 2, 100).unwrap();
        assert_eq!(&bytes, b"c");
    }

    #[test]
    fn page_charges_span_chunks() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        let big = vec![7u8; PAGE_SIZE * 3 + 10];
        let charge = s.write(r, 0, &big).unwrap();
        assert_eq!(charge.page_writes, 4);
        let (_, rc) = s.read(r, (PAGE_SIZE - 1) as u64, 2).unwrap();
        assert_eq!(rc.page_reads, 2, "read straddling a page boundary touches 2 pages");
    }

    #[test]
    fn free_and_restore() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"data").unwrap();
        let bytes = s.free(r).unwrap();
        assert!(s.read_all(r).is_err());
        s.restore(r, bytes);
        assert_eq!(s.read_all(r).unwrap().0, b"data");
    }

    #[test]
    fn truncate_shrinks() {
        let mut s = LobStore::new();
        let r = alloc(&mut s);
        s.write(r, 0, b"abcdef").unwrap();
        s.truncate(r, 2).unwrap();
        assert_eq!(s.read_all(r).unwrap().0, b"ab");
    }

    #[test]
    fn locators_are_distinct() {
        let mut s = LobStore::new();
        assert_ne!(alloc(&mut s), alloc(&mut s));
        assert_eq!(s.lob_count(), 2);
    }
}
