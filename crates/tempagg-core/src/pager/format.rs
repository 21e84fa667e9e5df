//! Pure byte-level encoder/decoder for the paged columnar file format.
//!
//! This module owns the wire layout only — nothing here touches the file
//! system (that is [`super::file`]'s job), which keeps the codec trivially
//! unit-testable on in-memory buffers. The format is specified in
//! DESIGN.md §15; the short version:
//!
//! ```text
//! [ header: 64 bytes ][ schema ][ page 0 ] … [ series block 0 ] … [ directory ]
//! ```
//!
//! All integers are little-endian and fixed-width. Every section sits under
//! a 64-bit [`Checksum`]: the header's covers itself and the schema block;
//! the directory (fences, one [`SeriesRecord`] per persisted series, the
//! file's length) carries its own and holds every page's and series block's.
//! Corruption anywhere therefore surfaces as [`TempAggError::Storage`] at the
//! first use of the section it lands in, never as a panic or a silently wrong
//! scan. Version 1 files (one footer under FNV-1a) still decode, through
//! [`decode_footer`]; nothing writes them.

pub use super::checksum::{fnv1a64, Checksum};
use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::relation::TemporalRelation;
use crate::schema::{Column, Schema};
use crate::series::SeriesEntry;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::ops::Range;
use std::sync::Arc;

use crate::timestamp::Timestamp;

/// File magic: identifies a temporal-aggregates paged relation.
pub const MAGIC: [u8; 8] = *b"TAGGPG01";
/// Current format version — the only one written; readers reject anything
/// newer and still read version 1.
pub const FORMAT_VERSION: u16 = 2;
/// Fixed byte length of the file header (excluding the schema block).
pub const HEADER_BYTES: usize = 64;
/// Default page size. Mirrors the 8 KiB pages of the paper's I/O model.
pub const DEFAULT_PAGE_BYTES: u32 = 8192;
/// Smallest admissible page: one header word plus one minimal tuple.
pub const MIN_PAGE_BYTES: u32 = 64;
/// Header flag bit: tuples are sorted by `(start, end)` across the file.
pub const FLAG_SORTED: u16 = 1;
/// Encoded size of one fence entry.
pub const FENCE_BYTES: usize = 28;
/// Smallest encoded series entry: two timestamps and a NULL's tag byte.
const MIN_ENTRY_BYTES: u64 = 17;

fn storage(detail: impl Into<String>) -> TempAggError {
    TempAggError::storage(detail)
}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked sequential reader over a byte slice. Every short read
/// becomes a [`TempAggError::Storage`] naming the structure being decoded.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> ByteReader<'a> {
        ByteReader { buf, pos: 0, what }
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| storage(format!("{}: length overflow while decoding", self.what)))?;
        if end > self.buf.len() {
            return Err(storage(format!(
                "{}: truncated (needed {} bytes at offset {}, only {} available)",
                self.what,
                len,
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// Decoded fixed-size file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHeader {
    pub version: u16,
    /// Tuples are globally sorted by `(start, end)`.
    pub sorted: bool,
    pub page_size: u32,
    pub column_count: u32,
    pub tuple_count: u64,
    pub page_count: u64,
    /// Absolute file offset of the end of the page area: where the series
    /// blocks begin (version 1: where the footer does).
    pub footer_offset: u64,
    /// Byte length of the schema block that follows the header.
    pub schema_len: u32,
    /// Absolute file offset of the directory, which runs to the end of the
    /// file. Version 1 kept this word reserved at zero.
    pub directory_offset: u64,
}

impl FileHeader {
    /// Absolute file offset of page 0.
    #[must_use]
    pub fn data_offset(&self) -> u64 {
        HEADER_BYTES as u64 + u64::from(self.schema_len)
    }
}

/// Encode the 64-byte header. `schema_block` participates in the header
/// checksum so a tampered schema is caught before any page is trusted.
/// The checksum is version 2's whatever `header.version` says.
#[must_use]
pub fn encode_header(header: &FileHeader, schema_block: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES);
    buf.extend_from_slice(&MAGIC);
    put_u16(&mut buf, header.version);
    put_u16(&mut buf, if header.sorted { FLAG_SORTED } else { 0 });
    put_u32(&mut buf, header.page_size);
    put_u32(&mut buf, header.column_count);
    put_u64(&mut buf, header.tuple_count);
    put_u64(&mut buf, header.page_count);
    put_u64(&mut buf, header.footer_offset);
    put_u32(&mut buf, header.schema_len);
    put_u64(&mut buf, header.directory_offset);
    debug_assert_eq!(buf.len(), HEADER_BYTES - 8);
    let mut sum = Checksum::default();
    sum.update(&buf);
    sum.update(schema_block);
    put_u64(&mut buf, sum.finish());
    buf
}

/// Decode the fixed header fields from the first 64 bytes of a file. The
/// checksum is *not* verified here — it covers the schema block too, so
/// call [`verify_header`] once the schema bytes are in hand.
pub fn decode_header(first: &[u8]) -> Result<FileHeader> {
    let mut r = ByteReader::new(first, "file header");
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(storage(
            "not a paged relation file (bad magic; expected TAGGPG01)",
        ));
    }
    let version = r.u16()?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(storage(format!(
            "unsupported format version {version} (reader supports up to {FORMAT_VERSION})"
        )));
    }
    let flags = r.u16()?;
    if flags & !FLAG_SORTED != 0 {
        return Err(storage(format!("unknown header flag bits {flags:#06x}")));
    }
    let page_size = r.u32()?;
    if page_size < MIN_PAGE_BYTES {
        return Err(storage(format!(
            "page size {page_size} below minimum {MIN_PAGE_BYTES}"
        )));
    }
    let column_count = r.u32()?;
    let tuple_count = r.u64()?;
    let page_count = r.u64()?;
    let footer_offset = r.u64()?;
    let schema_len = r.u32()?;
    let directory_offset = r.u64()?;
    let header = FileHeader {
        version,
        sorted: flags & FLAG_SORTED != 0,
        page_size,
        column_count,
        tuple_count,
        page_count,
        footer_offset,
        schema_len,
        directory_offset,
    };
    let expected_footer = header
        .data_offset()
        .checked_add(
            page_count
                .checked_mul(u64::from(page_size))
                .ok_or_else(|| storage("page_count * page_size overflows"))?,
        )
        .ok_or_else(|| storage("footer offset overflows"))?;
    if footer_offset != expected_footer {
        return Err(storage(format!(
            "footer offset {footer_offset} inconsistent with {page_count} pages \
             of {page_size} bytes (expected {expected_footer})"
        )));
    }
    // Version 1 kept the word reserved at zero; since, the directory it
    // locates follows the pages (and the series blocks, if any).
    if (version == 1 && directory_offset != 0) || (version > 1 && directory_offset < footer_offset)
    {
        return Err(storage(format!(
            "header word {directory_offset} is no directory offset (nor version 1's zero)"
        )));
    }
    Ok(header)
}

/// Verify the header checksum against the raw header + schema bytes, under
/// the file version's checksum function.
pub fn verify_header(first: &[u8], schema_block: &[u8], sum: fn(&[u8]) -> u64) -> Result<()> {
    if first.len() < HEADER_BYTES {
        return Err(storage("file header truncated"));
    }
    let stored = u64::from_le_bytes([
        first[56], first[57], first[58], first[59], first[60], first[61], first[62], first[63],
    ]);
    let mut input = first[..HEADER_BYTES - 8].to_vec();
    input.extend_from_slice(schema_block);
    if sum(&input) != stored {
        return Err(storage(
            "header checksum mismatch (corrupt header or schema)",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schema block
// ---------------------------------------------------------------------------

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

fn tag_type(tag: u8) -> Result<ValueType> {
    match tag {
        0 => Ok(ValueType::Int),
        1 => Ok(ValueType::Float),
        2 => Ok(ValueType::Str),
        3 => Ok(ValueType::Bool),
        other => Err(storage(format!("unknown column type tag {other}"))),
    }
}

/// Encode the schema block: per column `name_len u16 | name | type u8 |
/// nullable u8`.
pub fn encode_schema(schema: &Schema) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    for col in schema.columns() {
        let name = col.name.as_bytes();
        if name.len() > usize::from(u16::MAX) {
            return Err(storage(format!(
                "column name `{}…` exceeds {} bytes",
                // lint: allow(indexing): slice end is clamped to the name's own length
                &col.name[..32.min(col.name.len())],
                u16::MAX
            )));
        }
        put_u16(&mut buf, name.len() as u16);
        buf.extend_from_slice(name);
        buf.push(type_tag(col.ty));
        buf.push(u8::from(col.nullable));
    }
    Ok(buf)
}

/// Decode the schema block back into a [`Schema`].
pub fn decode_schema(bytes: &[u8], column_count: u32) -> Result<Arc<Schema>> {
    let mut r = ByteReader::new(bytes, "schema block");
    let mut columns = Vec::with_capacity(column_count as usize);
    for _ in 0..column_count {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| storage("column name is not valid UTF-8"))?;
        let ty = tag_type(r.u8()?)?;
        let nullable = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(storage(format!("bad nullable flag {other}"))),
        };
        let col = Column::new(name, ty);
        columns.push(if nullable { col.nullable() } else { col });
    }
    if r.remaining() != 0 {
        return Err(storage("trailing bytes after schema block"));
    }
    Schema::new(columns).map_err(|e| storage(format!("schema block rejected: {e}")))
}

// ---------------------------------------------------------------------------
// Pages
// ---------------------------------------------------------------------------

/// Worst-case per-column payload when the column holds NULL in this tuple
/// but non-null elsewhere on the page: the columnar layout still reserves
/// a full-width slot (Str reserves only its 4-byte length word).
fn column_slot_cost(ty: ValueType) -> usize {
    match ty {
        ValueType::Int | ValueType::Float => 8,
        ValueType::Bool => 1,
        ValueType::Str => 4,
    }
}

/// Fixed per-tuple cost under the columnar layout: interval + one validity
/// byte and one slot per schema column. Str payload bytes are added on top.
fn tuple_slot_cost(schema: &Schema, tuple: &Tuple) -> usize {
    let mut cost = 16;
    for (col, value) in schema.columns().iter().zip(tuple.values()) {
        cost += 1 + column_slot_cost(col.ty);
        if let Value::Str(s) = value {
            cost += s.len();
        }
    }
    cost
}

/// Greedily split `tuples` into page-sized runs: each returned range
/// encodes (with [`encode_page`]) to at most `page_size` bytes. Errors if
/// any single tuple cannot fit a page on its own.
pub fn plan_pages(schema: &Schema, tuples: &[Tuple], page_size: u32) -> Result<Vec<Range<usize>>> {
    let budget = page_size as usize;
    let mut pages = Vec::new();
    let mut begin = 0usize;
    let mut used = 4usize; // page tuple-count word
    for (i, tuple) in tuples.iter().enumerate() {
        let cost = tuple_slot_cost(schema, tuple);
        if 4 + cost > budget {
            return Err(storage(format!(
                "tuple {i} needs {} bytes, exceeding the {page_size}-byte page \
                 (raise the page size)",
                4 + cost
            )));
        }
        if used + cost > budget {
            pages.push(begin..i);
            begin = i;
            used = 4;
        }
        used += cost;
    }
    if begin < tuples.len() {
        pages.push(begin..tuples.len());
    }
    Ok(pages)
}

/// Encode one page (unpadded): `count u32 | starts | ends | per column:
/// validity bytes then payload`. The caller pads to the page size.
pub fn encode_page(schema: &Schema, tuples: &[Tuple]) -> Result<Vec<u8>> {
    if tuples.len() > u32::MAX as usize {
        return Err(storage("page tuple count exceeds u32"));
    }
    let mut buf = Vec::new();
    put_u32(&mut buf, tuples.len() as u32);
    for t in tuples {
        put_i64(&mut buf, t.valid().start().get());
    }
    for t in tuples {
        put_i64(&mut buf, t.valid().end().get());
    }
    for (idx, col) in schema.columns().iter().enumerate() {
        for t in tuples {
            buf.push(u8::from(!matches!(t.value(idx), Value::Null)));
        }
        match col.ty {
            ValueType::Int => {
                for t in tuples {
                    put_i64(&mut buf, t.value(idx).as_i64().unwrap_or(0));
                }
            }
            ValueType::Float => {
                for t in tuples {
                    let bits = match t.value(idx) {
                        Value::Float(f) => f.to_bits(),
                        Value::Int(i) => (*i as f64).to_bits(),
                        _ => 0,
                    };
                    put_u64(&mut buf, bits);
                }
            }
            ValueType::Bool => {
                for t in tuples {
                    buf.push(u8::from(matches!(t.value(idx), Value::Bool(true))));
                }
            }
            ValueType::Str => {
                let mut bytes = Vec::new();
                for t in tuples {
                    let s = t.value(idx).as_str().unwrap_or("");
                    if s.len() > u32::MAX as usize {
                        return Err(storage("string value exceeds u32 length"));
                    }
                    put_u32(&mut buf, s.len() as u32);
                    bytes.extend_from_slice(s.as_bytes());
                }
                buf.extend_from_slice(&bytes);
            }
        }
    }
    Ok(buf)
}

/// One page decoded back into columnar vectors. Columns excluded by the
/// projection come back as `None` without being materialised.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPage {
    pub intervals: Vec<Interval>,
    pub columns: Vec<Option<Vec<Value>>>,
}

impl DecodedPage {
    /// Number of tuples on the page.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when the page holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The page as row-major tuples in page order, values moved out of the
    /// columns; a column the projection left out reads as NULL.
    pub fn into_tuples(self) -> impl Iterator<Item = Tuple> {
        let mut columns: Vec<_> = self
            .columns
            .into_iter()
            .map(|column| column.map(Vec::into_iter))
            .collect();
        self.intervals.into_iter().map(move |interval| {
            let values = columns
                .iter_mut()
                .map(|column| column.as_mut().and_then(Iterator::next))
                .map(|value| value.unwrap_or(Value::Null))
                .collect();
            Tuple::new(values, interval)
        })
    }
}

/// Decode a page. `projection = None` decodes every column; otherwise only
/// the listed column indices are materialised (the rest are skipped over
/// byte-exactly, so a projected scan never allocates `Value`s it won't
/// read).
pub fn decode_page(
    schema: &Schema,
    bytes: &[u8],
    projection: Option<&[usize]>,
) -> Result<DecodedPage> {
    let mut r = ByteReader::new(bytes, "page");
    let count = r.u32()? as usize;
    // Nothing is sized by `count` before these two reads have held it
    // against the bytes the page really has.
    let starts = r.take(count.saturating_mul(8))?;
    let ends = r.take(count.saturating_mul(8))?;
    let mut intervals = Vec::with_capacity(count);
    for i in 0..count {
        let s = i64::from_le_bytes(
            // lint: allow(indexing): take(count * 8) sized the slice to exactly count i64s
            starts[i * 8..i * 8 + 8]
                .try_into()
                .map_err(|_| storage("page starts truncated"))?,
        );
        let e = i64::from_le_bytes(
            // lint: allow(indexing): same bound as `starts` above
            ends[i * 8..i * 8 + 8]
                .try_into()
                .map_err(|_| storage("page ends truncated"))?,
        );
        intervals
            .push(Interval::new(s, e).map_err(|_| {
                storage(format!("corrupt page: tuple {i} has start {s} > end {e}"))
            })?);
    }
    let wanted = |idx: usize| projection.map_or(true, |p| p.contains(&idx));
    let mut columns = Vec::with_capacity(schema.len());
    for (idx, col) in schema.columns().iter().enumerate() {
        let validity = r.take(count)?;
        if wanted(idx) {
            let mut values = Vec::with_capacity(count);
            match col.ty {
                ValueType::Int => {
                    // take(count) sized validity to exactly count bytes.
                    for &valid in validity {
                        let v = r.i64()?;
                        values.push(if valid == 0 {
                            Value::Null
                        } else {
                            Value::Int(v)
                        });
                    }
                }
                ValueType::Float => {
                    for &valid in validity {
                        let bits = r.u64()?;
                        values.push(if valid == 0 {
                            Value::Null
                        } else {
                            Value::Float(f64::from_bits(bits))
                        });
                    }
                }
                ValueType::Bool => {
                    for &valid in validity {
                        let b = r.u8()?;
                        values.push(match (valid, b) {
                            (0, _) => Value::Null,
                            (_, 0) => Value::Bool(false),
                            _ => Value::Bool(true),
                        });
                    }
                }
                ValueType::Str => {
                    let mut lens = Vec::with_capacity(count);
                    for _ in 0..count {
                        lens.push(r.u32()? as usize);
                    }
                    for (i, len) in lens.iter().enumerate() {
                        let raw = r.take(*len)?;
                        // lint: allow(indexing): lens holds count entries, matching validity
                        values.push(if validity[i] == 0 {
                            Value::Null
                        } else {
                            Value::from(
                                std::str::from_utf8(raw)
                                    .map_err(|_| storage("string payload is not valid UTF-8"))?,
                            )
                        });
                    }
                }
            }
            columns.push(Some(values));
        } else {
            // Skip the column payload without materialising it.
            match col.ty {
                ValueType::Int | ValueType::Float => {
                    r.take(count * 8)?;
                }
                ValueType::Bool => {
                    r.take(count)?;
                }
                ValueType::Str => {
                    let mut total = 0usize;
                    for _ in 0..count {
                        total = total
                            .checked_add(r.u32()? as usize)
                            .ok_or_else(|| storage("string lengths overflow"))?;
                    }
                    r.take(total)?;
                }
            }
            columns.push(None);
        }
    }
    // Remaining bytes are zero padding up to page_size; tolerate anything,
    // the page checksum already vouches for them.
    Ok(DecodedPage { intervals, columns })
}

// ---------------------------------------------------------------------------
// Directory: fences + series records; series blocks; the version 1 footer
// ---------------------------------------------------------------------------

/// Per-page directory entry: the min-start/max-end fences that power window
/// pruning, the tuple count, and the page checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFence {
    pub min_start: Timestamp,
    pub max_end: Timestamp,
    pub tuples: u32,
    pub checksum: u64,
}

impl PageFence {
    /// Conservative overlap test: `false` guarantees no tuple on the page
    /// intersects `window` (every tuple starts at or after `min_start` and
    /// ends at or before `max_end`), so pruning on this predicate can
    /// never skip a qualifying page.
    #[must_use]
    pub fn overlaps(&self, window: &Interval) -> bool {
        self.min_start <= window.end() && self.max_end >= window.start()
    }
}

/// Encode the fence table.
#[must_use]
pub fn encode_fences(fences: &[PageFence]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(fences.len() * FENCE_BYTES);
    for f in fences {
        put_i64(&mut buf, f.min_start.get());
        put_i64(&mut buf, f.max_end.get());
        put_u32(&mut buf, f.tuples);
        put_u64(&mut buf, f.checksum);
    }
    buf
}

pub(crate) fn decode_fences(r: &mut ByteReader<'_>, page_count: u64) -> Result<Vec<PageFence>> {
    // `page_count` pages of at least `MIN_PAGE_BYTES` lie inside the file:
    // `open` checked, so this is sized by the file's own length.
    let mut fences = Vec::with_capacity(page_count as usize);
    for _ in 0..page_count {
        let min_start = Timestamp::new(r.i64()?);
        let max_end = Timestamp::new(r.i64()?);
        let tuples = r.u32()?;
        let checksum = r.u64()?;
        fences.push(PageFence {
            min_start,
            max_end,
            tuples,
            checksum,
        });
    }
    Ok(fences)
}

/// A cached aggregate series persisted alongside the relation: the store
/// writes one per warmed cache so reopening a file serves aggregates
/// without recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedSeries {
    /// Cache label, e.g. the aggregate kind name (`"SUM"`).
    pub label: String,
    /// Column the aggregate ranges over; `None` for column-less COUNT.
    pub column: Option<u32>,
    /// The constant-interval series, value-erased to [`Value`].
    pub entries: Vec<SeriesEntry<Value>>,
}

/// The directory's record of one persisted series: whose it is (`label` and
/// `column` as in [`PersistedSeries`]), how many `runs` it has, and the
/// absolute `offset`, byte `len` and [`Checksum`] of the block that holds
/// them — read, verified and decoded when the series is first asked for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesRecord {
    pub label: String,
    pub column: Option<u32>,
    pub runs: u64,
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

fn encode_value(buf: &mut Vec<u8>, value: &Value) -> Result<()> {
    match value {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(2);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            if s.len() > u32::MAX as usize {
                return Err(storage("cached string value exceeds u32 length"));
            }
            buf.push(3);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
    }
    Ok(())
}

fn decode_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Float(f64::from_bits(r.u64()?))),
        3 => {
            let len = r.u32()? as usize;
            Ok(Value::from(std::str::from_utf8(r.take(len)?).map_err(
                |_| storage("cached string is not valid UTF-8"),
            )?))
        }
        4 => Ok(Value::Bool(r.u8()? != 0)),
        other => Err(storage(format!("unknown value tag {other} in cache"))),
    }
}

/// Append the entries of a series as a block (or a stretch of one) stores
/// them: `start i64 | end i64 | tagged value` each.
pub fn encode_entries(buf: &mut Vec<u8>, entries: &[SeriesEntry<Value>]) -> Result<()> {
    for entry in entries {
        put_i64(buf, entry.interval.start().get());
        put_i64(buf, entry.interval.end().get());
        encode_value(buf, &entry.value)?;
    }
    Ok(())
}

fn decode_entries(
    r: &mut ByteReader<'_>,
    count: u64,
    label: &str,
) -> Result<Vec<SeriesEntry<Value>>> {
    // Sized by the bytes that are there, not by the count that claims them.
    let fits = r.remaining() as u64 / MIN_ENTRY_BYTES;
    let mut entries = Vec::with_capacity(count.min(fits) as usize);
    for i in 0..count {
        let s = r.i64()?;
        let e = r.i64()?;
        let interval = Interval::new(s, e)
            .map_err(|_| storage(format!("cache `{label}` entry {i} has start {s} > end {e}")))?;
        entries.push(SeriesEntry::new(interval, decode_value(r)?));
    }
    Ok(entries)
}

/// Decode one series block, already held against its checksum: exactly the
/// `runs` entries its [`SeriesRecord`] promises and not a byte more.
pub fn decode_series_block(bytes: &[u8], record: &SeriesRecord) -> Result<Vec<SeriesEntry<Value>>> {
    let mut r = ByteReader::new(bytes, "series block");
    let entries = decode_entries(&mut r, record.runs, &record.label)?;
    if r.remaining() != 0 {
        return Err(storage("trailing bytes after the series block's runs"));
    }
    Ok(entries)
}

fn encode_label(buf: &mut Vec<u8>, label: &str, column: Option<u32>) -> Result<()> {
    if label.len() > usize::from(u16::MAX) {
        return Err(storage("cache label exceeds u16 length"));
    }
    put_u16(buf, label.len() as u16);
    buf.extend_from_slice(label.as_bytes());
    put_i64(buf, column.map_or(-1, i64::from));
    Ok(())
}

fn decode_label(r: &mut ByteReader<'_>) -> Result<(String, Option<u32>)> {
    let label_len = r.u16()? as usize;
    let label = std::str::from_utf8(r.take(label_len)?)
        .map_err(|_| storage("cache label is not valid UTF-8"))?
        .to_string();
    let column_raw = r.i64()?;
    let column = if column_raw < 0 {
        None
    } else {
        Some(u32::try_from(column_raw).map_err(|_| storage("cache column out of range"))?)
    };
    Ok((label, column))
}

/// A section's body and the checksum stored in its last eight bytes.
fn split_checksum<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a [u8], u64)> {
    let Some(body_len) = bytes.len().checked_sub(8) else {
        return Err(storage(format!("{what} truncated (missing checksum)")));
    };
    let (body, tail) = bytes.split_at(body_len);
    let stored = <[u8; 8]>::try_from(tail).unwrap_or_default();
    Ok((body, u64::from_le_bytes(stored)))
}

/// Encode the directory of a file whose series blocks end at
/// `directory_offset`: fences, `series count u32`, per series `label_len u16
/// | label | column i64 (-1: none) | runs u64 | offset u64 | len u64 |
/// checksum u64`, the file's total length, the [`Checksum`] of all that.
pub fn encode_directory(
    fences: &[PageFence],
    series: &[SeriesRecord],
    directory_offset: u64,
) -> Result<Vec<u8>> {
    if series.len() > u32::MAX as usize {
        return Err(storage("too many persisted caches"));
    }
    let mut buf = encode_fences(fences);
    put_u32(&mut buf, series.len() as u32);
    for record in series {
        encode_label(&mut buf, &record.label, record.column)?;
        put_u64(&mut buf, record.runs);
        put_u64(&mut buf, record.offset);
        put_u64(&mut buf, record.len);
        put_u64(&mut buf, record.checksum);
    }
    let file_len = directory_offset + buf.len() as u64 + 16;
    put_u64(&mut buf, file_len);
    let checksum = Checksum::of(&buf);
    put_u64(&mut buf, checksum);
    Ok(buf)
}

/// Verify and decode the directory — the bytes from `header.directory_offset`
/// to the end of a file `file_len` bytes long. Every record is held against
/// the layout before anyone allocates for it: the blocks tile
/// `[footer_offset, directory_offset)` in order.
pub fn decode_directory(
    bytes: &[u8],
    header: &FileHeader,
    file_len: u64,
) -> Result<(Vec<PageFence>, Vec<SeriesRecord>)> {
    let (body, stored) = split_checksum(bytes, "directory")?;
    if Checksum::of(body) != stored {
        return Err(storage(
            "directory checksum mismatch (corrupt fences or series records)",
        ));
    }
    let mut r = ByteReader::new(body, "directory");
    let fences = decode_fences(&mut r, header.page_count)?;
    let mut series = Vec::new();
    let mut at = header.footer_offset;
    for _ in 0..r.u32()? {
        let (label, column) = decode_label(&mut r)?;
        let (runs, offset, len, checksum) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let end = offset.checked_add(len).filter(|_| offset == at);
        at = end.ok_or_else(|| {
            storage(format!(
                "series `{label}`: {len} bytes at {offset} do not continue the blocks at {at}"
            ))
        })?;
        series.push(SeriesRecord {
            label,
            column,
            runs,
            offset,
            len,
            checksum,
        });
    }
    let recorded = r.u64()?;
    if at != header.directory_offset || recorded != file_len || r.remaining() != 0 {
        return Err(storage(format!(
            "directory of a {recorded}-byte file with series blocks up to {at}: this one \
             is {file_len} bytes, its blocks end at {}",
            header.directory_offset
        )));
    }
    Ok((fences, series))
}

/// Decode a version 1 footer: the fence table, every persisted series in
/// full, and one trailing FNV-1a checksum over both. There are no blocks to
/// come back to, so the records point nowhere and the series come with them.
#[allow(clippy::type_complexity)]
pub fn decode_footer(
    bytes: &[u8],
    page_count: u64,
) -> Result<(
    Vec<PageFence>,
    Vec<SeriesRecord>,
    Vec<Vec<SeriesEntry<Value>>>,
)> {
    let (body, stored) = split_checksum(bytes, "footer")?;
    if fnv1a64(body) != stored {
        return Err(storage(
            "footer checksum mismatch (corrupt fences or caches)",
        ));
    }
    let mut r = ByteReader::new(body, "file footer");
    let fences = decode_fences(&mut r, page_count)?;
    let (mut directory, mut series) = (Vec::new(), Vec::new());
    for _ in 0..r.u32()? {
        let (label, column) = decode_label(&mut r)?;
        let runs = r.u64()?;
        series.push(decode_entries(&mut r, runs, &label)?);
        directory.push(SeriesRecord {
            label,
            column,
            runs,
            ..SeriesRecord::default()
        });
    }
    if r.remaining() != 0 {
        return Err(storage("trailing bytes after footer caches"));
    }
    Ok((fences, directory, series))
}

/// True when the relation's tuples are sorted by `(start, end)` — the
/// precondition for k-ordered scans and page-seam partitioning.
#[must_use]
pub fn relation_is_sorted(relation: &TemporalRelation) -> bool {
    relation.tuples().windows(2).all(|w| {
        let a = (w[0].valid().start(), w[0].valid().end());
        let b = (w[1].valid().start(), w[1].valid().end());
        a <= b
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Arc<Schema> {
        Schema::of(&[
            ("amount", ValueType::Int),
            ("rate", ValueType::Float),
            ("tag", ValueType::Str),
            ("open", ValueType::Bool),
        ])
    }

    fn sample_tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let i = i as i64;
                Tuple::new(
                    vec![
                        Value::Int(i * 10),
                        Value::Float(i as f64 / 2.0),
                        Value::from(format!("t{i}")),
                        Value::Bool(i % 2 == 0),
                    ],
                    Interval::at(i, i + 5),
                )
            })
            .collect()
    }

    #[test]
    fn header_roundtrip_and_checksum() {
        let schema = sample_schema();
        let block = encode_schema(&schema).unwrap();
        let header = FileHeader {
            version: FORMAT_VERSION,
            sorted: true,
            page_size: DEFAULT_PAGE_BYTES,
            column_count: schema.len() as u32,
            tuple_count: 7,
            page_count: 2,
            footer_offset: HEADER_BYTES as u64
                + block.len() as u64
                + 2 * u64::from(DEFAULT_PAGE_BYTES),
            schema_len: block.len() as u32,
            directory_offset: HEADER_BYTES as u64
                + block.len() as u64
                + 2 * u64::from(DEFAULT_PAGE_BYTES)
                + 400,
        };
        let bytes = encode_header(&header, &block);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let decoded = decode_header(&bytes).unwrap();
        assert_eq!(decoded, header);
        verify_header(&bytes, &block, Checksum::of).unwrap();
        // The other version's function does not vouch for it.
        assert!(verify_header(&bytes, &block, fnv1a64).is_err());

        // Flip one schema byte: checksum must fail.
        let mut bad = block.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            verify_header(&bytes, &bad, Checksum::of),
            Err(TempAggError::Storage { .. })
        ));
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let schema = sample_schema();
        let block = encode_schema(&schema).unwrap();
        let header = FileHeader {
            version: FORMAT_VERSION,
            sorted: false,
            page_size: DEFAULT_PAGE_BYTES,
            column_count: schema.len() as u32,
            tuple_count: 0,
            page_count: 0,
            footer_offset: HEADER_BYTES as u64 + block.len() as u64,
            schema_len: block.len() as u32,
            directory_offset: HEADER_BYTES as u64 + block.len() as u64,
        };
        let mut bytes = encode_header(&header, &block);
        bytes[0] = b'X';
        assert!(decode_header(&bytes).is_err());

        let mut bytes = encode_header(&header, &block);
        bytes[8] = 0xff; // version low byte
        bytes[9] = 0xff;
        assert!(decode_header(&bytes).is_err());

        // A directory inside the page area, and a version 1 header whose
        // reserved word is not zero.
        let early = FileHeader {
            directory_offset: header.footer_offset - 1,
            ..header.clone()
        };
        assert!(decode_header(&encode_header(&early, &block)).is_err());
        let v1 = FileHeader {
            version: 1,
            ..header.clone()
        };
        assert!(decode_header(&encode_header(&v1, &block)).is_err());
        let v1 = FileHeader {
            directory_offset: 0,
            ..v1
        };
        assert_eq!(decode_header(&encode_header(&v1, &block)).unwrap(), v1);
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Str).nullable(),
        ])
        .unwrap();
        let block = encode_schema(&schema).unwrap();
        let back = decode_schema(&block, 2).unwrap();
        assert_eq!(back.columns(), schema.columns());
    }

    #[test]
    fn page_roundtrip_all_types_and_nulls() {
        let schema = Schema::new(vec![
            Column::new("amount", ValueType::Int).nullable(),
            Column::new("rate", ValueType::Float).nullable(),
            Column::new("tag", ValueType::Str).nullable(),
            Column::new("open", ValueType::Bool).nullable(),
        ])
        .unwrap();
        let tuples = vec![
            Tuple::new(
                vec![
                    Value::Int(-3),
                    Value::Float(1.5),
                    Value::Str("hello".into()),
                    Value::Bool(true),
                ],
                Interval::at(0, 10),
            ),
            Tuple::new(
                vec![Value::Null, Value::Null, Value::Null, Value::Null],
                Interval::at(5, 5),
            ),
            Tuple::new(
                vec![
                    Value::Int(i64::MAX),
                    Value::Float(-0.0),
                    Value::from(""),
                    Value::Bool(false),
                ],
                Interval::at(-100, 100),
            ),
        ];
        let bytes = encode_page(&schema, &tuples).unwrap();
        let page = decode_page(&schema, &bytes, None).unwrap();
        assert_eq!(page.len(), 3);
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(page.intervals[i], t.valid());
            for (c, v) in t.values().iter().enumerate() {
                let col = page.columns[c].as_ref().unwrap();
                match (v, &col[i]) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn page_projection_skips_columns() {
        let schema = sample_schema();
        let tuples = sample_tuples(4);
        let bytes = encode_page(&schema, &tuples).unwrap();
        let page = decode_page(&schema, &bytes, Some(&[0])).unwrap();
        assert!(page.columns[0].is_some());
        assert!(page.columns[1].is_none());
        assert!(page.columns[2].is_none());
        assert!(page.columns[3].is_none());
        assert_eq!(page.columns[0].as_ref().unwrap()[3], Value::Int(30));
        // Empty projection decodes intervals only.
        let page = decode_page(&schema, &bytes, Some(&[])).unwrap();
        assert_eq!(page.len(), 4);
        assert!(page.columns.iter().all(Option::is_none));
    }

    #[test]
    fn plan_pages_respects_budget() {
        let schema = sample_schema();
        let tuples = sample_tuples(100);
        let ranges = plan_pages(&schema, &tuples, 256).unwrap();
        assert!(ranges.len() > 1);
        // Ranges tile [0, 100).
        let mut at = 0;
        for r in &ranges {
            assert_eq!(r.start, at);
            assert!(r.end > r.start);
            at = r.end;
            let bytes = encode_page(&schema, &tuples[r.clone()]).unwrap();
            assert!(bytes.len() <= 256, "page overflows: {} bytes", bytes.len());
        }
        assert_eq!(at, 100);

        // A tuple that can never fit errors out.
        let fat = vec![Tuple::new(
            vec![
                Value::Int(0),
                Value::Float(0.0),
                Value::from("x".repeat(4096)),
                Value::Bool(false),
            ],
            Interval::at(0, 1),
        )];
        assert!(matches!(
            plan_pages(&schema, &fat, 256),
            Err(TempAggError::Storage { .. })
        ));
    }

    #[test]
    fn truncated_page_errors_not_panics() {
        let schema = sample_schema();
        let tuples = sample_tuples(8);
        let bytes = encode_page(&schema, &tuples).unwrap();
        for cut in 0..bytes.len() {
            match decode_page(&schema, &bytes[..cut], None) {
                Ok(page) => {
                    // Only an empty-prefix decode may succeed "by luck" if the
                    // truncation still parses; it must then disagree on count.
                    assert_ne!(page.len(), tuples.len());
                }
                Err(TempAggError::Storage { .. }) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    }

    /// A page whose count word claims four billion tuples is an error, not
    /// an allocation of 64 GB (which aborts the process).
    #[test]
    fn hostile_page_count_errors_before_it_sizes_anything() {
        let schema = sample_schema();
        let mut bytes = encode_page(&schema, &sample_tuples(8)).unwrap();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(DEFAULT_PAGE_BYTES as usize, 0);
        for projection in [None, Some(&[0usize][..]), Some(&[][..])] {
            assert!(matches!(
                decode_page(&schema, &bytes, projection),
                Err(TempAggError::Storage { .. })
            ));
        }
    }

    #[test]
    fn fence_overlap_is_conservative() {
        let fence = PageFence {
            min_start: Timestamp(10),
            max_end: Timestamp(20),
            tuples: 3,
            checksum: 0,
        };
        assert!(fence.overlaps(&Interval::at(0, 10)));
        assert!(fence.overlaps(&Interval::at(20, 30)));
        assert!(fence.overlaps(&Interval::at(12, 15)));
        assert!(!fence.overlaps(&Interval::at(0, 9)));
        assert!(!fence.overlaps(&Interval::at(21, 40)));
    }

    fn sample_fences() -> Vec<PageFence> {
        vec![
            PageFence {
                min_start: Timestamp(0),
                max_end: Timestamp(50),
                tuples: 10,
                checksum: 0xdead,
            },
            PageFence {
                min_start: Timestamp(40),
                max_end: Timestamp(90),
                tuples: 7,
                checksum: 0xbeef,
            },
        ]
    }

    fn sample_entries() -> Vec<SeriesEntry<Value>> {
        vec![
            SeriesEntry::new(Interval::at(0, 4), Value::Int(12)),
            SeriesEntry::new(Interval::at(5, 9), Value::Float(3.25)),
            SeriesEntry::new(Interval::at(10, 20), Value::Null),
            SeriesEntry::new(Interval::at(21, 30), Value::from("text")),
        ]
    }

    /// A two-page header whose two series blocks take `lens` bytes.
    fn header_with_blocks(lens: [u64; 2]) -> FileHeader {
        let footer_offset = HEADER_BYTES as u64 + 2 * u64::from(DEFAULT_PAGE_BYTES);
        FileHeader {
            version: FORMAT_VERSION,
            sorted: true,
            page_size: DEFAULT_PAGE_BYTES,
            column_count: 0,
            tuple_count: 17,
            page_count: 2,
            footer_offset,
            schema_len: 0,
            directory_offset: footer_offset + lens[0] + lens[1],
        }
    }

    fn records(header: &FileHeader, lens: [u64; 2]) -> Vec<SeriesRecord> {
        let record = |label: &str, column, runs, offset, len| SeriesRecord {
            label: label.to_string(),
            column,
            runs,
            offset,
            len,
            checksum: 0x5eed,
        };
        vec![
            record("COUNT(*)", None, 4, header.footer_offset, lens[0]),
            record("SUM", Some(1), 3, header.footer_offset + lens[0], lens[1]),
        ]
    }

    #[test]
    fn directory_roundtrips_and_any_bit_flip_is_caught() {
        let lens = [90, 75];
        let header = header_with_blocks(lens);
        let series = records(&header, lens);
        let fences = sample_fences();
        let bytes = encode_directory(&fences, &series, header.directory_offset).unwrap();
        let file_len = header.directory_offset + bytes.len() as u64;
        let (f2, s2) = decode_directory(&bytes, &header, file_len).unwrap();
        assert_eq!(f2, fences);
        assert_eq!(s2, series);

        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_directory(&bad, &header, file_len).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
        // A file that grew or shrank since the directory was written.
        for wrong in [file_len - 1, file_len + 1] {
            assert!(decode_directory(&bytes, &header, wrong).is_err());
        }
        for cut in 0..bytes.len() {
            assert!(decode_directory(&bytes[..cut], &header, file_len).is_err());
        }
    }

    /// Records that pass the checksum (as one written by a buggy or hostile
    /// writer would) are still held against the layout: blocks in order and
    /// inside the block area. (A run count is held against the block's bytes
    /// when the block is decoded.)
    #[test]
    fn directory_records_are_bounded_by_the_layout() {
        let lens = [90, 75];
        let header = header_with_blocks(lens);
        let good = records(&header, lens);
        let mutate = |change: &dyn Fn(&mut Vec<SeriesRecord>)| {
            let mut series = good.clone();
            change(&mut series);
            let bytes =
                encode_directory(&sample_fences(), &series, header.directory_offset).unwrap();
            let file_len = header.directory_offset + bytes.len() as u64;
            decode_directory(&bytes, &header, file_len)
        };
        assert!(mutate(&|_| ()).is_ok());
        for (what, result) in [
            ("a gap before a block", mutate(&|s| s[1].offset += 1)),
            ("a block past the area", mutate(&|s| s[1].len += 1)),
            ("a length that overflows", mutate(&|s| s[1].len = u64::MAX)),
            ("blocks short of the area", mutate(&|s| s[1].len -= 1)),
            ("a missing block", mutate(&|s| s.truncate(1))),
        ] {
            assert!(
                matches!(result, Err(TempAggError::Storage { .. })),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn series_block_decodes_exactly_its_runs() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        encode_entries(&mut bytes, &entries).unwrap();
        let record = |runs| SeriesRecord {
            label: "SUM".into(),
            column: Some(1),
            runs,
            offset: 0,
            len: bytes.len() as u64,
            checksum: 0,
        };
        assert_eq!(decode_series_block(&bytes, &record(4)).unwrap(), entries);
        for runs in [3, 5, u64::MAX] {
            assert!(matches!(
                decode_series_block(&bytes, &record(runs)),
                Err(TempAggError::Storage { .. })
            ));
        }
    }

    /// What a version 1 writer put after the pages: fences, every series in
    /// full, one FNV-1a over both.
    #[test]
    fn v1_footer_still_decodes() {
        let fences = sample_fences();
        let mut bytes = encode_fences(&fences);
        put_u32(&mut bytes, 1);
        encode_label(&mut bytes, "SUM", Some(1)).unwrap();
        put_u64(&mut bytes, sample_entries().len() as u64);
        encode_entries(&mut bytes, &sample_entries()).unwrap();
        let checksum = fnv1a64(&bytes);
        put_u64(&mut bytes, checksum);

        let (f2, d2, s2) = decode_footer(&bytes, 2).unwrap();
        assert_eq!(f2, fences);
        let [record] = &d2[..] else {
            panic!("one series was written");
        };
        assert_eq!((record.label.as_str(), record.column), ("SUM", Some(1)));
        assert_eq!((record.runs, record.len), (4, 0));
        assert_eq!(s2, [sample_entries()]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_footer(&bad, 2).is_err(),
                "bit flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn sortedness_detection() {
        let schema = Schema::of(&[("v", ValueType::Int)]);
        let mut rel = TemporalRelation::new(schema.clone());
        rel.push(vec![Value::Int(1)], Interval::at(0, 5)).unwrap();
        rel.push(vec![Value::Int(2)], Interval::at(0, 7)).unwrap();
        rel.push(vec![Value::Int(3)], Interval::at(2, 3)).unwrap();
        assert!(relation_is_sorted(&rel));
        let mut rel2 = TemporalRelation::new(schema);
        rel2.push(vec![Value::Int(1)], Interval::at(5, 9)).unwrap();
        rel2.push(vec![Value::Int(2)], Interval::at(0, 7)).unwrap();
        assert!(!relation_is_sorted(&rel2));
    }
}
