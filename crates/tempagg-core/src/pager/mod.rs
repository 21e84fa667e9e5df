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
//!   §15, format v2): a 64-byte header, a schema block, fixed-size
//!   columnar pages, one block per persisted aggregate series, and a
//!   directory of per-page min-start/max-end fences plus one record per
//!   series — and the decoder for version 1's single footer.
//! - [`file`] — [`write_relation`] (one streaming pass onto a temp file,
//!   then rename) and [`PagedReader`] (`open` reads header, schema and
//!   directory; pages and series blocks are fetched, and verified, on
//!   demand).
//! - [`cursor`] — the [`TupleSource`] scan abstraction: fence-pruned
//!   [`PageCursor`] walks feeding [`Chunk`](crate::Chunk) batches to any
//!   aggregator, with [`SliceSource`] giving resident data the same
//!   interface.
//!
//! The free functions below ([`write_atomic`], [`read_to_string`],
//! [`exists`], [`remove_file`]) are the shared filesystem helpers the rest
//! of the workspace uses for data files *and* tracked artifacts (BENCH
//! JSON, calibration profiles), all speaking `Result<_, TempAggError>`
//! instead of `std::io::Result`.

pub mod checksum;
pub mod cursor;
pub mod file;
pub mod format;

pub use checksum::Checksum;
pub use cursor::{IntColumnSource, PageCursor, ScanStats, SliceSource, TupleSource, UnitSource};
pub use file::{write_relation, PagedReader, PagedWriteOptions, PagedWriteStats};
pub use format::{
    DecodedPage, FileHeader, PageFence, PersistedSeries, SeriesRecord, DEFAULT_PAGE_BYTES,
    FORMAT_VERSION, MAGIC, MIN_PAGE_BYTES,
};

use crate::error::{Result, TempAggError};
use std::path::Path;

fn io_err(path: &Path, what: &str, err: &std::io::Error) -> TempAggError {
    TempAggError::storage(format!("{}: {what}: {err}", path.display()))
}

/// Atomically replace `path` with `contents`: write to a `.tmp` sibling,
/// then rename over the target. Readers never observe a torn file; a crash
/// mid-write leaves at worst a stray temp file. Used for tracked artifacts
/// (benchmark JSON, calibration profiles); paged data files stream through
/// the same policy in [`write_relation`].
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<()> {
    replace_atomically(path, |tmp, mut file| {
        std::io::Write::write_all(&mut file, contents).map_err(|e| io_err(tmp, "write failed", &e))
    })
}

/// The policy behind [`write_atomic`] for a writer that streams: create the
/// `.tmp` sibling, let `fill` write it, then rename it over `path`. Nothing
/// is fsynced.
pub(crate) fn replace_atomically(
    path: &Path,
    fill: impl FnOnce(&Path, &std::fs::File) -> Result<()>,
) -> Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = Path::new(&tmp_name);
    let file = std::fs::File::create(tmp).map_err(|e| io_err(tmp, "write failed", &e))?;
    fill(tmp, &file)?;
    drop(file);
    std::fs::rename(tmp, path).map_err(|e| io_err(path, "rename failed", &e))
}

/// Read a whole UTF-8 file (calibration profiles, committed artifacts).
pub fn read_to_string(path: &Path) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| io_err(path, "read failed", &e))
}

/// Whether `path` exists (permission errors read as absent).
#[must_use]
pub fn exists(path: &Path) -> bool {
    path.exists()
}

/// Delete a file, tolerating it already being gone.
pub fn remove_file(path: &Path) -> Result<()> {
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

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let path = temp_path("atomic.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_to_string(&path).unwrap(), "second");
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
        let err = read_to_string(Path::new("/nonexistent/tempagg-nope")).unwrap_err();
        assert!(matches!(err, TempAggError::Storage { .. }));
    }
}
