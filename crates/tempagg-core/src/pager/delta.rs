//! The delta file: what an append flush writes beside a paged file instead
//! of rewriting it (DESIGN.md §15, "Appends").
//!
//! ```text
//! [ slot 0: 64 B ][ slot 1: 64 B ][ record 1 ][ record 2 ] …
//! record = [ pages ][ series stretches ][ directory ]
//! ```
//!
//! A sidecar `<path>.delta` belongs to the base file at `<path>` it names
//! by identity — the base's length and the checksum its directory ends
//! with. Each [`Slot`] carries an epoch, that identity, the committed
//! length and where the committed directory is; a reader takes the valid
//! slot with the highest epoch whose identity matches and ignores every
//! byte past its committed length. A record's directory supersedes the
//! base's: it lists every page with its fence and the file and offset it
//! is in, and every series as extents — a prefix of runs of a base block or
//! of an earlier record's stretch — so nothing a committed directory
//! references is ever written again, and a reader keeps reading the
//! version it opened. An append writes its record, syncs, writes the other
//! slot with the next epoch and syncs again.
//!
//! This module owns the codec and [`DeltaFile`], the writes an append
//! makes, so that a test can put a fault-injecting file behind them;
//! `file.rs` builds the records.

use super::format::{
    decode_fence, decode_label, encode_label, put_i64, put_u32, put_u64, split_checksum,
    ByteReader, Checksum, FileHeader, LaneRecord, PageFence, SeriesRecord, FENCE_BYTES,
};
use crate::error::{Result, TempAggError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of one header slot.
pub const SLOT_BYTES: usize = 64;
/// Bytes of the two slots that open a delta file: where its first record
/// begins.
pub const SLOTS_BYTES: u64 = 2 * SLOT_BYTES as u64;
/// Encoded size of one page's directory entry: its fence and its place.
const PAGE_ENTRY_BYTES: usize = FENCE_BYTES + 9;
/// Smallest encoded series entry (as in `format.rs`).
const MIN_ENTRY_BYTES: u64 = 17;

fn storage(detail: impl Into<String>) -> TempAggError {
    TempAggError::storage(detail)
}

/// The sidecar delta file of the paged file at `path`.
#[must_use]
pub fn delta_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".delta");
    PathBuf::from(name)
}

/// One header slot: a committed version of base + delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Grows by one per commit; epoch 0 is the version of the base alone,
    /// which the first record writes before anything else.
    pub epoch: u64,
    /// The base this delta belongs to: its length in bytes …
    pub base_len: u64,
    /// … and the checksum its directory ends with.
    pub base_sum: u64,
    /// The committed length of the delta: later bytes are ignored.
    pub len: u64,
    /// Offset of the committed directory, which runs to `len`; 0 when the
    /// version is the base's own.
    pub directory: u64,
    /// The version's tuple count and page count.
    pub tuples: u64,
    pub pages: u64,
}

impl Slot {
    /// Where this slot sits: epochs alternate between the two.
    #[must_use]
    pub fn offset(&self) -> u64 {
        (self.epoch % 2) * SLOT_BYTES as u64
    }

    /// Encode the slot, its checksum in the last eight bytes.
    #[must_use]
    pub fn encode(&self) -> [u8; SLOT_BYTES] {
        let mut buf = Vec::with_capacity(SLOT_BYTES);
        for word in [
            self.epoch,
            self.base_len,
            self.base_sum,
            self.len,
            self.directory,
            self.tuples,
            self.pages,
        ] {
            put_u64(&mut buf, word);
        }
        let checksum = Checksum::of(&buf);
        put_u64(&mut buf, checksum);
        <[u8; SLOT_BYTES]>::try_from(buf.as_slice()).unwrap_or([0; SLOT_BYTES])
    }

    /// Decode a slot; `None` unless its checksum holds and its directory
    /// lies inside its committed length — a torn or never-written slot.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Slot> {
        let bytes = bytes.get(..SLOT_BYTES)?;
        let (body, sum) = bytes.split_at(SLOT_BYTES - 8);
        if Checksum::of(body) != u64::from_le_bytes(<[u8; 8]>::try_from(sum).ok()?) {
            return None;
        }
        let mut r = ByteReader::new(body, "delta slot");
        let mut word = || r.u64().ok();
        let slot = Slot {
            epoch: word()?,
            base_len: word()?,
            base_sum: word()?,
            len: word()?,
            directory: word()?,
            tuples: word()?,
            pages: word()?,
        };
        let placed = slot.len >= SLOTS_BYTES
            && (slot.directory == 0 || (SLOTS_BYTES..slot.len).contains(&slot.directory));
        placed.then_some(slot)
    }
}

/// The newest committed version a delta file holds for the base
/// `(base_len, base_sum)`: the valid slot with the highest epoch that names
/// that base and whose committed length the file reaches. `None` when no
/// slot does: a delta of some other base (one a compaction replaced), or
/// an unfinished creation — the first record syncs a valid slot before it
/// appends anything, so a file no longer than the two slots with neither
/// valid is one. A longer file with neither slot valid is corrupt, and an
/// error.
pub fn newest_slot(
    file: &mut impl DeltaFile,
    base_len: u64,
    base_sum: u64,
) -> Result<Option<Slot>> {
    let len = file
        .len()
        .map_err(|e| storage(format!("delta: stat failed: {e}")))?;
    let mut bytes = vec![0; SLOTS_BYTES.min(len) as usize];
    file.read_at(0, &mut bytes)
        .map_err(|e| storage(format!("delta: slot read failed: {e}")))?;
    let slots: Vec<Slot> = bytes.chunks(SLOT_BYTES).filter_map(Slot::decode).collect();
    if slots.is_empty() && len > SLOTS_BYTES {
        return Err(storage(format!(
            "delta: {len} bytes and neither header slot is valid"
        )));
    }
    Ok(slots
        .into_iter()
        .filter(|s| s.base_len == base_len && s.base_sum == base_sum && s.len <= len)
        .max_by_key(|s| s.epoch))
}

/// The writes and reads an append makes of a delta file: positioned,
/// and durable only once [`sync`](DeltaFile::sync) returns.
#[allow(clippy::len_without_is_empty)]
pub trait DeltaFile {
    /// The file's length in bytes.
    fn len(&mut self) -> std::io::Result<u64>;
    /// Fill `buf` from `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;
    /// Write all of `bytes` at `offset`.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()>;
    /// Make every write so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl DeltaFile for std::fs::File {
    fn len(&mut self) -> std::io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.read_exact(buf)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_all()
    }
}

/// Which file a page or a series extent is in, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Place {
    Base(u64),
    Delta(u64),
}

impl Place {
    fn encode(self, buf: &mut Vec<u8>) {
        let (tag, offset) = match self {
            Place::Base(offset) => (0, offset),
            Place::Delta(offset) => (1, offset),
        };
        buf.push(tag);
        put_u64(buf, offset);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Place> {
        match (r.u8()?, r.u64()?) {
            (0, offset) => Ok(Place::Base(offset)),
            (1, offset) => Ok(Place::Delta(offset)),
            (tag, _) => Err(storage(format!("delta directory: unknown file tag {tag}"))),
        }
    }

    /// Whether `len` bytes here lie in `base` (of the base file) or
    /// `delta` (of the delta's committed records).
    fn within(self, len: u64, base: std::ops::Range<u64>, delta: std::ops::Range<u64>) -> bool {
        let (offset, area) = match self {
            Place::Base(offset) => (offset, base),
            Place::Delta(offset) => (offset, delta),
        };
        offset >= area.start && offset.checked_add(len).is_some_and(|end| end <= area.end)
    }
}

/// A stretch of one series: `len` bytes at `place` under `checksum`, of
/// which the first `runs` entries are the series'. The bytes after them are
/// runs a later record rewrote; they are verified with the rest and not
/// decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    pub place: Place,
    pub len: u64,
    pub checksum: u64,
    pub runs: u64,
}

/// A record's directory, decoded: every page's fence and place in lane
/// order, the lane record of a file with two lanes, and every series with
/// its extents (its record's `offset`, `len` and `checksum` are 0: the
/// extents say where it is).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeltaDirectory {
    pub fences: Vec<PageFence>,
    pub places: Vec<Place>,
    pub lanes: Option<LaneRecord>,
    pub series: Vec<SeriesRecord>,
    pub extents: Vec<Vec<Extent>>,
}

/// Encode a record's directory: per page `fence | file u8 | offset u64`,
/// the lane record if the base has two lanes, `series count u32`, per
/// series `label | column | runs u64 | extent count u32 | per extent file
/// u8 | offset u64 | len u64 | runs u64 | checksum u64`, and the
/// [`Checksum`] of all that.
pub(crate) fn encode_delta_directory(directory: &DeltaDirectory) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(directory.fences.len() * PAGE_ENTRY_BYTES + 256);
    for (fence, place) in directory.fences.iter().zip(&directory.places) {
        put_i64(&mut buf, fence.min_start.get());
        put_i64(&mut buf, fence.max_end.get());
        put_u32(&mut buf, fence.tuples);
        put_u64(&mut buf, fence.checksum);
        place.encode(&mut buf);
    }
    if let Some(lanes) = directory.lanes {
        put_u64(&mut buf, lanes.main_pages);
        put_i64(&mut buf, lanes.cut);
    }
    put_u32(&mut buf, directory.series.len() as u32);
    for (record, extents) in directory.series.iter().zip(&directory.extents) {
        encode_label(&mut buf, &record.label, record.column)?;
        put_u64(&mut buf, record.runs);
        put_u32(&mut buf, extents.len() as u32);
        for extent in extents {
            extent.place.encode(&mut buf);
            put_u64(&mut buf, extent.len);
            put_u64(&mut buf, extent.runs);
            put_u64(&mut buf, extent.checksum);
        }
    }
    let checksum = Checksum::of(&buf);
    put_u64(&mut buf, checksum);
    Ok(buf)
}

/// Verify and decode the directory `bytes` that `slot` commits over the
/// base `header` describes. Every place is held against the layout before
/// it is trusted: a base page on a page boundary of the base's page area, a
/// delta page or extent inside the committed records before the directory,
/// a base extent inside the base's series blocks; both lanes hold pages,
/// and a series' extents hold exactly its runs.
pub(crate) fn decode_delta_directory(
    bytes: &[u8],
    header: &FileHeader,
    slot: &Slot,
) -> Result<DeltaDirectory> {
    let (body, stored) = split_checksum(bytes, "delta directory")?;
    if Checksum::of(body) != stored {
        return Err(storage(
            "delta directory checksum mismatch (corrupt fences, places or extents)",
        ));
    }
    let wanted = slot.pages.checked_mul(PAGE_ENTRY_BYTES as u64);
    if !wanted.is_some_and(|wanted| wanted <= body.len() as u64) {
        return Err(storage(format!(
            "delta directory of {} bytes cannot hold {} pages",
            body.len(),
            slot.pages
        )));
    }
    let page_size = u64::from(header.page_size);
    let base_pages = header.data_offset()..header.footer_offset;
    let base_blocks = header.footer_offset..header.directory_offset;
    let records = SLOTS_BYTES..slot.directory;
    let mut r = ByteReader::new(body, "delta directory");
    // The slot's page count was just held against the bytes there are.
    let mut fences = Vec::with_capacity(slot.pages as usize);
    let mut places = Vec::with_capacity(slot.pages as usize);
    for page in 0..slot.pages {
        fences.push(decode_fence(&mut r)?);
        let place = Place::decode(&mut r)?;
        let aligned = match place {
            Place::Base(offset) => (offset - base_pages.start.min(offset)) % page_size == 0,
            Place::Delta(_) => true,
        };
        if !aligned || !place.within(page_size, base_pages.clone(), records.clone()) {
            return Err(storage(format!(
                "delta directory: page {page} at {place:?} is no page of either file"
            )));
        }
        places.push(place);
    }
    let lanes = if header.overflow_lane {
        let (main_pages, cut) = (r.u64()?, r.i64()?);
        if main_pages == 0 || main_pages >= slot.pages || cut < 1 {
            return Err(storage(format!(
                "delta lane record: a main lane of {main_pages} of {} pages, cut {cut}",
                slot.pages
            )));
        }
        Some(LaneRecord { main_pages, cut })
    } else {
        None
    };
    let (mut series, mut extents) = (Vec::new(), Vec::new());
    for _ in 0..r.u32()? {
        let (label, column) = decode_label(&mut r)?;
        let runs = r.u64()?;
        let count = r.u32()?;
        let mut list = Vec::new();
        let mut total = 0u64;
        for _ in 0..count {
            let place = Place::decode(&mut r)?;
            let (len, used, checksum) = (r.u64()?, r.u64()?, r.u64()?);
            let fits = used <= len / MIN_ENTRY_BYTES;
            if !fits || !place.within(len, base_blocks.clone(), records.clone()) {
                return Err(storage(format!(
                    "delta directory: series `{label}` has {used} runs in {len} bytes at \
                     {place:?}, outside the series areas"
                )));
            }
            total = total.saturating_add(used);
            list.push(Extent {
                place,
                len,
                checksum,
                runs: used,
            });
        }
        if total != runs {
            return Err(storage(format!(
                "delta directory: series `{label}` has {runs} runs, its extents {total}"
            )));
        }
        series.push(SeriesRecord {
            label,
            column,
            runs,
            ..SeriesRecord::default()
        });
        extents.push(list);
    }
    if r.remaining() != 0 {
        return Err(storage("trailing bytes after the delta directory"));
    }
    Ok(DeltaDirectory {
        fences,
        places,
        lanes,
        series,
        extents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;

    fn slot(epoch: u64) -> Slot {
        Slot {
            epoch,
            base_len: 10_000,
            base_sum: 0xfeed,
            len: 900,
            directory: 700,
            tuples: 40,
            pages: 2,
        }
    }

    #[test]
    fn slots_roundtrip_and_refuse_any_bit_flip() {
        let bytes = slot(7).encode();
        assert_eq!(Slot::decode(&bytes), Some(slot(7)));
        assert_eq!((slot(7).offset(), slot(8).offset()), (64, 0));
        for bit in 0..SLOT_BYTES * 8 {
            let mut bad = bytes;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(Slot::decode(&bad), None, "bit {bit}");
        }
        assert_eq!(Slot::decode(&[0; SLOT_BYTES]), None);
        assert_eq!(Slot::decode(&bytes[..SLOT_BYTES - 1]), None);
        // A directory outside the committed records.
        for directory in [1, 900, 901] {
            let stray = Slot {
                directory,
                ..slot(1)
            };
            assert_eq!(Slot::decode(&stray.encode()), None, "{directory}");
        }
    }

    #[test]
    fn the_newest_matching_slot_wins_and_a_bare_garbage_file_is_an_error() {
        let mut file = vec![0u8; 1000];
        file[..64].copy_from_slice(&slot(4).encode());
        file[64..128].copy_from_slice(&slot(5).encode());
        let newest =
            |file: &Vec<u8>, sum| newest_slot(&mut std::io::Cursor::new(file.clone()), 10_000, sum);
        assert_eq!(newest(&file, 0xfeed).unwrap().map(|s| s.epoch), Some(5));
        // Another base's delta is ignored.
        assert_eq!(newest(&file, 0xbeef).unwrap(), None);
        // A slot whose committed length the file does not reach is skipped.
        file.truncate(899);
        assert_eq!(newest(&file, 0xfeed).unwrap(), None);
        // Neither slot valid: an unfinished creation up to 128 bytes, an
        // error past them.
        assert_eq!(newest(&vec![7; 128], 0xfeed).unwrap(), None);
        assert!(newest(&vec![7; 129], 0xfeed).is_err());
    }

    impl DeltaFile for std::io::Cursor<Vec<u8>> {
        fn len(&mut self) -> std::io::Result<u64> {
            Ok(self.get_ref().len() as u64)
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.set_position(offset);
            self.read_exact(buf)
        }
        fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
            self.set_position(offset);
            self.write_all(bytes)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn header() -> FileHeader {
        FileHeader {
            version: 3,
            sorted: true,
            overflow_lane: true,
            page_size: 512,
            column_count: 0,
            tuple_count: 30,
            page_count: 2,
            footer_offset: 64 + 1024,
            schema_len: 0,
            directory_offset: 64 + 1024 + 300,
        }
    }

    fn directory() -> DeltaDirectory {
        let fence = |min, max, tuples| PageFence {
            min_start: Timestamp(min),
            max_end: Timestamp(max),
            tuples,
            checksum: 0xabc,
        };
        let extent = |place, len, runs| Extent {
            place,
            len,
            checksum: 0x5eed,
            runs,
        };
        DeltaDirectory {
            fences: vec![fence(0, 9, 10), fence(5, 50, 20), fence(0, 99, 10)],
            places: vec![Place::Base(64), Place::Delta(128), Place::Base(576)],
            lanes: Some(LaneRecord {
                main_pages: 2,
                cut: 20,
            }),
            series: vec![SeriesRecord {
                label: "SUM".into(),
                column: Some(0),
                runs: 9,
                ..SeriesRecord::default()
            }],
            extents: vec![vec![
                extent(Place::Base(1088), 300, 5),
                extent(Place::Delta(640), 100, 4),
            ]],
        }
    }

    #[test]
    fn delta_directories_roundtrip_and_are_held_against_the_layout() {
        let header = header();
        let slot = Slot {
            pages: 3,
            directory: 800,
            len: 1200,
            ..slot(1)
        };
        let bytes = encode_delta_directory(&directory()).unwrap();
        assert_eq!(
            decode_delta_directory(&bytes, &header, &slot).unwrap(),
            directory()
        );
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_delta_directory(&bad, &header, &slot).is_err(),
                "bit {bit}"
            );
        }
        let mutate = |change: fn(&mut DeltaDirectory)| {
            let mut directory = directory();
            change(&mut directory);
            let bytes = encode_delta_directory(&directory).unwrap();
            decode_delta_directory(&bytes, &header, &slot)
        };
        type Change = (&'static str, fn(&mut DeltaDirectory));
        let changes: [Change; 9] = [
            ("a base page off its boundary", |d| {
                d.places[0] = Place::Base(65);
            }),
            ("a base page past the page area", |d| {
                d.places[0] = Place::Base(1088);
            }),
            ("a delta page in the slots", |d| {
                d.places[1] = Place::Delta(64);
            }),
            ("a delta page over the directory", |d| {
                d.places[1] = Place::Delta(400);
            }),
            ("an extent past the blocks", |d| d.extents[0][0].len = 301),
            ("an extent in the slots", |d| {
                d.extents[0][1].place = Place::Delta(0);
            }),
            ("more runs than bytes", |d| d.extents[0][1].runs = 7),
            ("runs the extents do not hold", |d| d.series[0].runs = 10),
            ("an empty overflow lane", |d| {
                d.lanes = Some(LaneRecord {
                    main_pages: 3,
                    cut: 20,
                });
            }),
        ];
        for (what, change) in changes {
            let result = mutate(change);
            assert!(
                matches!(result, Err(TempAggError::Storage { .. })),
                "{what}"
            );
        }
        // A slot promising more pages than the directory holds.
        let greedy = Slot {
            pages: u64::MAX,
            ..slot
        };
        assert!(decode_delta_directory(&bytes, &header, &greedy).is_err());
    }
}
