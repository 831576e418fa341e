//! External file storage — index data kept *outside* the database.
//!
//! This models the pre-Oracle8i world the paper argues against (§1, §2.5:
//! "many applications resort to maintaining file-based indexes for data
//! residing in database tables") and the Daylight baseline (§3.2.4). Files
//! live in memory behind a file-system-like API with explicit operation
//! counters. A caller that persists intermediate index state records it
//! with [`FileStore::flush`], counted apart: the legacy Daylight engine
//! flushed on every update, which is exactly the "intermediate write
//! operations" the LOB migration eliminated.
//!
//! Crucially, the file store sits **outside** the transaction manager:
//! nothing here participates in undo, which is how the reproduction
//! demonstrates the paper's §5 limitation (aborted transactions leave
//! external index data inconsistent) and its proposed database-event fix.

use std::collections::HashMap;

use extidx_common::{Error, Result};
use parking_lot::Mutex;

/// Operation counters for the external store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileStats {
    pub opens: u64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Writes attributable to persisting intermediate state (flushes).
    pub flushes: u64,
}

/// An in-memory external "file system" with operation accounting.
///
/// Counters sit behind a mutex so read paths (`read`) can run through a
/// shared reference — concurrent scan lanes read external index files
/// without exclusive access to the engine.
#[derive(Debug, Default)]
pub struct FileStore {
    files: HashMap<String, Vec<u8>>,
    stats: Mutex<FileStats>,
}

impl Clone for FileStore {
    fn clone(&self) -> Self {
        FileStore { files: self.files.clone(), stats: Mutex::new(*self.stats.lock()) }
    }
}

impl FileStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (or truncate) a file.
    pub fn create(&mut self, name: &str) {
        self.stats.lock().opens += 1;
        self.files.insert(name.to_string(), Vec::new());
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Delete a file.
    pub fn remove(&mut self, name: &str) -> Result<()> {
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::Storage(format!("file {name:?} does not exist")))
    }

    /// List file names (sorted, for deterministic tests).
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.files.keys().cloned().collect();
        names.sort();
        names
    }

    /// Read the whole file.
    pub fn read(&self, name: &str) -> Result<Vec<u8>> {
        let data = self
            .files
            .get(name)
            .ok_or_else(|| Error::Storage(format!("file {name:?} does not exist")))?;
        let mut st = self.stats.lock();
        st.read_ops += 1;
        st.bytes_read += data.len() as u64;
        Ok(data.clone())
    }

    /// The file's bytes, lent without counting a read: the server's own
    /// look (a statement's before-image), not an index's I/O.
    pub fn contents(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Replace the whole file content.
    pub fn write(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let data = self
            .files
            .get_mut(name)
            .ok_or_else(|| Error::Storage(format!("file {name:?} does not exist")))?;
        data.clear();
        data.extend_from_slice(bytes);
        let mut st = self.stats.lock();
        st.write_ops += 1;
        st.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Append bytes to the file.
    pub fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let data = self
            .files
            .get_mut(name)
            .ok_or_else(|| Error::Storage(format!("file {name:?} does not exist")))?;
        data.extend_from_slice(bytes);
        let mut st = self.stats.lock();
        st.write_ops += 1;
        st.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Record a flush of intermediate state: the legacy engine's
    /// checkpoint-every-update behaviour. Counts as a write op too.
    pub fn flush(&mut self, name: &str) -> Result<()> {
        if !self.files.contains_key(name) {
            return Err(Error::Storage(format!("file {name:?} does not exist")));
        }
        let mut st = self.stats.lock();
        st.flushes += 1;
        st.write_ops += 1;
        Ok(())
    }

    /// File length.
    pub fn length(&self, name: &str) -> Result<u64> {
        self.files
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| Error::Storage(format!("file {name:?} does not exist")))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FileStats {
        *self.stats.lock()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        *self.stats.get_mut() = FileStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut fs = FileStore::new();
        fs.create("idx.dat");
        fs.write("idx.dat", b"payload").unwrap();
        assert_eq!(fs.read("idx.dat").unwrap(), b"payload");
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = FileStore::new();
        assert!(fs.read("nope").is_err());
        assert!(fs.write("nope", b"x").is_err());
        assert!(fs.remove("nope").is_err());
        assert!(fs.flush("nope").is_err());
    }

    #[test]
    fn append_accumulates() {
        let mut fs = FileStore::new();
        fs.create("log");
        fs.append("log", b"ab").unwrap();
        fs.append("log", b"cd").unwrap();
        assert_eq!(fs.read("log").unwrap(), b"abcd");
        assert_eq!(fs.length("log").unwrap(), 4);
    }

    #[test]
    fn counters_track_operations() {
        let mut fs = FileStore::new();
        fs.create("f");
        fs.write("f", b"12345").unwrap();
        fs.read("f").unwrap();
        fs.flush("f").unwrap();
        let s = fs.stats();
        assert_eq!(s.opens, 1);
        assert_eq!(s.write_ops, 2); // write + flush
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.bytes_read, 5);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn create_truncates_existing() {
        let mut fs = FileStore::new();
        fs.create("f");
        fs.write("f", b"old").unwrap();
        fs.create("f");
        assert_eq!(fs.length("f").unwrap(), 0);
    }

    #[test]
    fn list_is_sorted() {
        let mut fs = FileStore::new();
        fs.create("b");
        fs.create("a");
        assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
    }
}
