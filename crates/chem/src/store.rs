//! Fingerprint record storage — database LOB vs external file.
//!
//! The §3.2.4 migration story: "The indexing scheme previously used a
//! proprietary file-based index structure… An extensible indexing solution
//! was provided by storing the data within the database as LOBs. Since
//! LOBs can be accessed and manipulated with a file-like interface,
//! minimal changes were required to the index management software."
//!
//! Both backends store the same fixed-width records — packed rowid (8
//! bytes) + fingerprint ([`FP_BYTES`] bytes) — through a file-like API:
//!
//! - **LOB mode** (the 8i solution): records live in one LOB whose
//!   locator is kept in a tiny metadata table. Appends and in-place
//!   tombstoning touch only the affected pages, reads go through the
//!   buffer cache, and every change is transactional.
//! - **FILE mode** (the legacy baseline): records live in an external
//!   file. Faithful to the legacy engine, every maintenance operation
//!   rewrites and flushes the whole file ("the extensible indexing based
//!   solution scales much better than the file based indexing scheme
//!   because it minimizes intermediate write operations") — and nothing
//!   here participates in transactions (§5's limitation).

use extidx_common::{Error, LobRef, Result, RowId, Value};
use extidx_core::build::{partition_map, DEFAULT_BUILD_BATCH_ROWS};
use extidx_core::meta::IndexInfo;
use extidx_core::server::{read_lob, BaseRow, ServerContext};

use crate::fingerprint::{Fingerprint, FP_BYTES};

/// Bytes per record: packed rowid + fingerprint.
pub const RECORD_BYTES: usize = 8 + FP_BYTES;

/// Tombstone marker in the rowid slot of deleted records.
const TOMBSTONE: u64 = u64::MAX;

/// Which backend an index uses (`PARAMETERS (':Storage LOB|FILE')`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    Lob,
    File,
}

impl StorageMode {
    /// Read the mode from index parameters (default LOB).
    pub fn from_info(info: &IndexInfo) -> StorageMode {
        match info.parameters.first("Storage") {
            Some(m) if m.eq_ignore_ascii_case("FILE") => StorageMode::File,
            _ => StorageMode::Lob,
        }
    }
}

/// Metadata table holding the LOB locator.
fn meta_table(info: &IndexInfo) -> String {
    info.storage_table_name("META")
}

/// External file name for FILE mode.
pub fn file_name(info: &IndexInfo) -> String {
    format!("dr${}.fpidx", info.index_name.to_ascii_lowercase())
}

fn encode_record(rid: u64, fp: &Fingerprint) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[..8].copy_from_slice(&rid.to_le_bytes());
    rec[8..].copy_from_slice(&fp.to_bytes());
    rec
}

/// Visit every live record of a store image where it lies: its position
/// in the image, its rowid and its fingerprint payload
/// ([`Fingerprint::to_bytes`]'s form). Tombstones are skipped; an image
/// that is not a whole number of records is corrupt.
fn walk_records(bytes: &[u8], mut visit: impl FnMut(usize, RowId, &[u8])) -> Result<()> {
    if !bytes.len().is_multiple_of(RECORD_BYTES) {
        return Err(Error::Storage(format!(
            "fingerprint store corrupted: {} bytes is not a record multiple",
            bytes.len()
        )));
    }
    for (i, rec) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
        let rid = u64::from_le_bytes(rec[..8].try_into().expect("8-byte slice"));
        if rid != TOMBSTONE {
            visit(i, RowId::from_u64(rid), &rec[8..]);
        }
    }
    Ok(())
}

/// `bytes` with every record of rowid `target` left out.
fn without_record(bytes: &[u8], target: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for rec in bytes.chunks(RECORD_BYTES) {
        let whole = rec.len() == RECORD_BYTES;
        if !whole || u64::from_le_bytes(rec[..8].try_into().expect("8 bytes")) != target {
            out.extend_from_slice(rec);
        }
    }
    out
}

/// The record store for one index, dispatching on storage mode.
pub struct FingerprintStore {
    pub mode: StorageMode,
}

impl FingerprintStore {
    /// Store handle for an index.
    pub fn for_index(info: &IndexInfo) -> FingerprintStore {
        FingerprintStore { mode: StorageMode::from_info(info) }
    }

    /// Create the backing storage (LOB + meta table, or external file).
    pub fn create(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        match self.mode {
            StorageMode::Lob => {
                srv.execute(
                    &format!("CREATE TABLE {} (id INTEGER, data CLOB)", meta_table(info)),
                    &[],
                )?;
                let lob = srv.lob_create()?;
                srv.execute(
                    &format!("INSERT INTO {} VALUES (1, ?)", meta_table(info)),
                    &[Value::Lob(lob)],
                )?;
            }
            StorageMode::File => {
                srv.file_create(&file_name(info))?;
            }
        }
        Ok(())
    }

    /// Drop the backing storage.
    pub fn drop_store(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                srv.lob_free(lob)?;
                srv.execute(&format!("DROP TABLE {}", meta_table(info)), &[])?;
            }
            StorageMode::File => {
                // A half-created or already-cleaned index may have no
                // file; dropping it must still succeed (idempotent).
                let name = file_name(info);
                if srv.file_exists(&name) {
                    srv.file_remove(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Remove all records.
    pub fn truncate(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                srv.lob_overwrite(lob, &[])?;
            }
            StorageMode::File => {
                srv.file_create(&file_name(info))?; // create truncates
            }
        }
        Ok(())
    }

    fn locator(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<LobRef> {
        let rows = srv.query(&format!("SELECT data FROM {} WHERE id = 1", meta_table(info)), &[])?;
        rows.first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_lob().ok())
            .ok_or_else(|| Error::Storage("fingerprint LOB locator missing".into()))
    }

    /// Append one record.
    pub fn append(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        rid: RowId,
        fp: &Fingerprint,
    ) -> Result<()> {
        let rec = encode_record(rid.to_u64(), fp);
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                srv.lob_append(lob, &rec)?;
            }
            StorageMode::File => {
                // Legacy behaviour: read-modify-rewrite the whole file and
                // flush — the "intermediate write operations" the paper
                // calls out.
                let name = file_name(info);
                // External file I/O during maintenance is classified
                // retryable: the read-modify-rewrite cycle is restartable
                // from scratch, so a transient filesystem error should be
                // retried by the server rather than abort the statement.
                // The server's rewind before a retry cannot reach the file,
                // so the cycle replaces any record of `rid` a failed
                // attempt left there: appending a rowid is idempotent.
                let bytes = srv.file_read(&name).map_err(Error::retryable)?;
                let mut bytes = without_record(&bytes, rid.to_u64());
                bytes.extend_from_slice(&rec);
                srv.file_write(&name, &bytes).map_err(Error::retryable)?;
                srv.file_flush(&name).map_err(Error::retryable)?;
            }
        }
        Ok(())
    }

    /// Tombstone the record for a rowid (if present).
    pub fn remove(&self, srv: &mut dyn ServerContext, info: &IndexInfo, rid: RowId) -> Result<()> {
        let target = rid.to_u64();
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                let mut at = Vec::new();
                read_lob(srv, lob, |bytes| {
                    walk_records(bytes, |i, rid, _| {
                        if rid.to_u64() == target {
                            at.push(i);
                        }
                    })
                })?;
                for i in at {
                    // In-place tombstone: one small patch write.
                    srv.lob_write(lob, (i * RECORD_BYTES) as u64, &TOMBSTONE.to_le_bytes())?;
                }
            }
            StorageMode::File => {
                let name = file_name(info);
                // Retryable for the same reason as `append`: the whole
                // cycle restarts cleanly from the on-disk image.
                let bytes = srv.file_read(&name).map_err(Error::retryable)?;
                let out = without_record(&bytes, target);
                srv.file_write(&name, &out).map_err(Error::retryable)?;
                srv.file_flush(&name).map_err(Error::retryable)?;
            }
        }
        Ok(())
    }

    /// Visit every live record — its rowid and fingerprint — where it
    /// lies: in the LOB image the crossing's snapshot sees, or in the
    /// external file.
    pub fn for_each_record(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        mut visit: impl FnMut(RowId, &Fingerprint),
    ) -> Result<()> {
        let mut each = |_, rid, payload: &[u8]| {
            visit(rid, &Fingerprint::from_bytes(payload).expect("a record holds a whole payload"))
        };
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                read_lob(srv, lob, |bytes| walk_records(bytes, &mut each))
            }
            StorageMode::File => walk_records(&srv.file_read(&file_name(info))?, each),
        }
    }

    /// Fingerprint one base row: parse the molecule and encode its
    /// record. Pure CPU — safe to run on a build worker thread.
    /// Unparsable or non-text rows are skipped, as the serial rebuild
    /// always did.
    fn fingerprint_row(row: &BaseRow) -> Option<[u8; RECORD_BYTES]> {
        let text = row.value().as_str().ok()?;
        let mol = crate::molecule::Molecule::parse(text).ok()?;
        Some(encode_record(row.rid.to_u64(), &Fingerprint::of(&mol)))
    }

    /// Rebuild the store from the base table — used at create time and by
    /// the database-event handler that re-synchronizes an external file
    /// store after a rollback (§5's proposed solution).
    ///
    /// The base table is streamed batch-by-batch (never fully
    /// materialized) and molecule parsing + fingerprinting — the CPU-heavy
    /// part — fans across `PARALLEL <n>` worker threads; record order
    /// stays identical to a serial rebuild.
    pub fn rebuild_from_base(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()> {
        let parallel = info.parameters.parallel_degree();
        let mut bytes: Vec<u8> = Vec::new();
        srv.scan_base_batches(
            &info.table_name,
            &[&info.column_name],
            DEFAULT_BUILD_BATCH_ROWS,
            &mut |_srv, batch| {
                for rec in partition_map(batch, parallel, Self::fingerprint_row).into_iter().flatten()
                {
                    bytes.extend_from_slice(&rec);
                }
                Ok(())
            },
        )?;
        // Internal milestone: the fingerprint image is assembled but not
        // yet written — a fault here leaves the store created-but-stale
        // (the lifecycle orphan-audit tests arm this).
        srv.fault_point("chem.build.assembled")?;
        match self.mode {
            StorageMode::Lob => {
                let lob = self.locator(srv, info)?;
                srv.lob_overwrite(lob, &bytes)?;
            }
            StorageMode::File => {
                let name = file_name(info);
                srv.file_write(&name, &bytes)?;
                srv.file_flush(&name)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::Molecule;

    /// The live records of `bytes`, by position.
    fn records(bytes: &[u8]) -> Result<Vec<(usize, RowId, Fingerprint)>> {
        let mut out = Vec::new();
        walk_records(bytes, |i, rid, fp| out.push((i, rid, Fingerprint::from_bytes(fp).unwrap())))?;
        Ok(out)
    }

    #[test]
    fn record_roundtrip() {
        let fp = Fingerprint::of(&Molecule::parse("CC=O").unwrap());
        let rid = RowId::new(3, 17, 4);
        let rec = encode_record(rid.to_u64(), &fp);
        assert_eq!(records(&rec).unwrap(), vec![(0, rid, fp)]);
    }

    #[test]
    fn tombstones_are_skipped() {
        let fp = Fingerprint::of(&Molecule::parse("C").unwrap());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(TOMBSTONE, &fp));
        bytes.extend_from_slice(&encode_record(RowId::new(1, 0, 0).to_u64(), &fp));
        let live = records(&bytes).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, 1, "the live record keeps its position");
    }

    #[test]
    fn corrupt_length_rejected() {
        assert!(records(&[1, 2, 3]).is_err());
    }
}
