//! Out-of-core paged columnar storage for interval relations.
//!
//! This module is the workspace's single doorway to the file system: the
//! `no-io-outside-pager` lint confines `std::fs`/`std::io` to this
//! directory (plus the workload and bench crates), so every persistent
//! byte flows through one audited, checksummed path.
//!
//! Layers, bottom up:
//!
//! - [`checksum`] — the word-parallel 64-bit [`Checksum`] every section of
//!   a file sits under, and the byte-serial FNV-1a that version 1 files
//!   are still read with.
//! - [`format`] — the pure byte codec for the on-disk layout (DESIGN.md
//!   §15, format v3): a 64-byte header, a schema block, fixed-size
//!   columnar pages (a sorted file's long-lived tuples in an overflow lane
//!   after the rest), one block per persisted aggregate series, and a
//!   directory of per-page min-start/max-end fences, the lane record and
//!   one record per series — and the decoder for version 1's single footer.
//! - [`delta`] — the sidecar a flush of rows arriving in time order
//!   appends to instead of rewriting the file: two header slots that
//!   commit, and records of re-cut pages, series stretches and a directory
//!   that supersedes the file's.
//! - [`file`] — [`write_relation`] (one streaming pass onto a temp file,
//!   synced, then renamed), [`append_relation`] (one record onto the
//!   delta) and [`PagedReader`] (`open` reads header, schema and the
//!   directory in force; pages and series are fetched, and verified, on
//!   demand).
//! - [`cursor`] — the [`TupleSource`] scan abstraction: fence-pruned
//!   [`PageCursor`] walks, merging a file's two lanes back into storage
//!   order, feeding [`Chunk`](crate::Chunk) batches to any aggregator, with
//!   [`SliceSource`] giving resident data the same interface.
//!
//! The free functions below ([`exists`], [`remove_file`], which removes a
//! file's delta with it) are the shared filesystem helpers the rest of the
//! workspace uses for data files, both speaking `Result<_, TempAggError>`
//! instead of `std::io::Result`.

pub mod checksum;
pub mod cursor;
pub mod delta;
pub mod file;
pub mod format;

pub use checksum::Checksum;
pub use cursor::{IntColumnSource, PageCursor, ScanStats, SliceSource, TupleSource, UnitSource};
pub use delta::{delta_path, DeltaFile};
pub use file::{
    append_relation, append_to, write_relation, PagedReader, PagedWriteOptions, PagedWriteStats,
    PagerMetrics, SeriesRuns,
};
pub use format::{
    DecodedPage, FileHeader, PageFence, PersistedSeries, SeriesRecord, DEFAULT_PAGE_BYTES,
    FORMAT_VERSION, MAGIC, MIN_PAGE_BYTES,
};

use crate::error::{Result, TempAggError};
use std::path::Path;

fn io_err(path: &Path, what: &str, err: &std::io::Error) -> TempAggError {
    TempAggError::storage(format!("{}: {what}: {err}", path.display()))
}

/// Atomically replace `path`: create a `.tmp` sibling, let `fill` write
/// it, `sync_all` it, rename it over `path` and `sync_all` the directory.
/// Readers never observe a torn file, and once this returns the new file
/// survives power loss; a crash mid-write leaves at worst a stray temp
/// file. [`write_relation`] streams every paged data file through it.
pub(crate) fn replace_atomically(
    path: &Path,
    fill: impl FnOnce(&Path, &std::fs::File) -> Result<()>,
) -> Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = Path::new(&tmp_name);
    let file = std::fs::File::create(tmp).map_err(|e| io_err(tmp, "write failed", &e))?;
    fill(tmp, &file)?;
    file.sync_all()
        .map_err(|e| io_err(tmp, "sync failed", &e))?;
    drop(file);
    std::fs::rename(tmp, path).map_err(|e| io_err(path, "rename failed", &e))?;
    sync_parent(path)
}

/// `sync_all` the directory holding `path`, so that a rename or a creation
/// there survives power loss.
pub(crate) fn sync_parent(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| io_err(dir, "sync failed", &e))
}

/// Whether `path` exists (permission errors read as absent).
#[must_use]
pub fn exists(path: &Path) -> bool {
    path.exists()
}

/// Delete a paged file and the delta beside it ([`delta_path`]),
/// tolerating either already being gone.
pub fn remove_file(path: &Path) -> Result<()> {
    remove_if_present(path)?;
    remove_if_present(&delta_path(path))
}

/// Delete one file, tolerating it already being gone.
pub(crate) fn remove_if_present(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_err(path, "remove failed", &e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-pagermod-{}-{name}", std::process::id()));
        p
    }

    fn write_atomic(path: &Path, contents: &[u8]) {
        replace_atomically(path, |_, mut file| {
            std::io::Write::write_all(&mut file, contents).unwrap();
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let path = temp_path("atomic.txt");
        write_atomic(&path, b"first");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!exists(Path::new(&tmp_name)));
        remove_file(&path).unwrap();
        assert!(!exists(&path));
        // Removing twice is fine.
        remove_file(&path).unwrap();
    }

    #[test]
    fn read_missing_file_is_storage_error() {
        let err = PagedReader::open(Path::new("/nonexistent/tempagg-nope")).unwrap_err();
        assert!(matches!(err, TempAggError::Storage { .. }));
    }
}
