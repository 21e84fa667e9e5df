//! Workload-facing paged storage for temporal relations.
//!
//! The paper's measurements assume fixed-size pages scanned sequentially
//! from disk, and its Section 7 proposes an I/O-free fix for the
//! aggregation tree's sorted-input worst case: *"the relation's pages
//! [are] randomized when they are read … performed on each group of pages
//! read into memory, and therefore would not affect the I/O time."*
//!
//! The files are the workspace's paged columnar format
//! ([`tempagg_core::pager`]) — checksummed header, fence-indexed pages,
//! atomic writes, rows materialised by `DecodedPage::into_tuples`. This
//! module adds only the workload-specific pieces: a tuple-at-a-time
//! sequential [`Scan`], and [`scan_with_page_shuffle`], which shuffles
//! tuples *within each group of pages* as they are read, leaving the I/O
//! order untouched.

use crate::rng::{SliceRandom, StdRng};
use std::path::Path;
use tempagg_core::pager::{PagedReader, PagedWriteOptions, PagedWriteStats};
use tempagg_core::{pager, Result, TemporalRelation, Tuple};

/// Bytes per page — the core pager's default page size.
pub const PAGE_BYTES: usize = pager::DEFAULT_PAGE_BYTES as usize;

/// Write a relation to a paged columnar file (any schema; atomic
/// temp-file + rename).
pub fn write_relation(relation: &TemporalRelation, path: &Path) -> Result<PagedWriteStats> {
    pager::write_relation(relation, path, &PagedWriteOptions::default())
}

/// Read a whole paged file back into a relation (sequential order); the
/// schema comes from the file itself.
pub fn read_relation(path: &Path) -> Result<TemporalRelation> {
    PagedReader::open(path)?.read_relation()
}

/// A sequential tuple scanner over a paged file: one page resident at a
/// time, tuples yielded in storage order.
#[derive(Debug)]
pub struct Scan {
    reader: PagedReader,
    /// Pages not yet read.
    pages: std::ops::Range<usize>,
    /// The rows of the one resident page not yet yielded.
    page: std::vec::IntoIter<Tuple>,
    remaining: u64,
}

impl Scan {
    /// Open a paged file for scanning.
    pub fn open(path: &Path) -> Result<Scan> {
        let reader = PagedReader::open(path)?;
        let remaining = reader.tuple_count();
        Ok(Scan {
            pages: 0..reader.page_count(),
            reader,
            page: Vec::new().into_iter(),
            remaining,
        })
    }

    /// Tuples left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Tuples stored on each on-disk page, in page order (from the
    /// footer's fences — no page reads needed).
    pub fn page_tuple_counts(&self) -> Vec<usize> {
        self.reader
            .fences()
            .iter()
            .map(|fence| fence.tuples as usize)
            .collect()
    }
}

impl Iterator for Scan {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        loop {
            if let Some(tuple) = self.page.next() {
                self.remaining = self.remaining.saturating_sub(1);
                return Some(Ok(tuple));
            }
            match self.reader.read_page(self.pages.next()?, None) {
                Ok(page) => self.page = page.into_tuples().collect::<Vec<_>>().into_iter(),
                Err(e) => {
                    self.pages = 0..0;
                    self.remaining = 0;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Scan a paged file, shuffling tuples *within each group of
/// `group_pages` pages* as they arrive — the paper's Section 7
/// randomization, which defeats the aggregation tree's sorted-input worst
/// case without changing which pages are read when.
///
/// Yields the same multiset of tuples as [`Scan`], deterministically in
/// `seed`.
pub fn scan_with_page_shuffle(
    path: &Path,
    group_pages: usize,
    seed: u64,
) -> Result<impl Iterator<Item = Result<Tuple>>> {
    let mut scan = Scan::open(path)?;
    let group_sizes: Vec<usize> = scan
        .page_tuple_counts()
        .chunks(group_pages.max(1))
        .map(|group| group.iter().sum())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(group_sizes.into_iter().flat_map(move |size| {
        let mut group: Vec<Result<Tuple>> = scan.by_ref().take(size).collect();
        group.shuffle(&mut rng);
        group
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, WorkloadConfig};
    use std::path::PathBuf;
    use tempagg_core::Interval;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-storage-{tag}-{}.rel", std::process::id()));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn round_trip_preserves_the_relation() {
        let relation = generate(&WorkloadConfig::random(500).with_seed(5));
        let path = temp_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        write_relation(&relation, &path).unwrap();
        let back = read_relation(&path).unwrap();
        assert_eq!(back.schema(), relation.schema());
        assert_eq!(back.len(), relation.len());
        for (a, b) in relation.iter().zip(back.iter()) {
            assert_eq!(a.valid(), b.valid());
            assert_eq!(a.value(0), b.value(0));
            assert_eq!(a.value(1), b.value(1));
        }
    }

    #[test]
    fn file_layout_is_page_aligned() {
        let relation = generate(&WorkloadConfig::random(100));
        let path = temp_path("size");
        let _cleanup = Cleanup(path.clone());
        let stats = write_relation(&relation, &path).unwrap();
        assert_eq!(stats.tuples, 100);
        assert!(stats.pages >= 1);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(len as u64, stats.file_bytes);
        // Header + schema, then pages at fixed stride, then the footer.
        assert!(len > stats.pages * PAGE_BYTES);
    }

    #[test]
    fn scan_is_streaming_and_counts_down() {
        let relation = generate(&WorkloadConfig::random(10));
        let path = temp_path("scan");
        let _cleanup = Cleanup(path.clone());
        write_relation(&relation, &path).unwrap();
        let mut scan = Scan::open(&path).unwrap();
        assert_eq!(scan.remaining(), 10);
        scan.next().unwrap().unwrap();
        assert_eq!(scan.remaining(), 9);
        assert_eq!(scan.count(), 9);
    }

    /// `Scan` and `read_relation` read rows through the same page
    /// materialiser: same tuples, same order, NULLs and strings included.
    #[test]
    fn scan_yields_the_rows_read_relation_returns() {
        use tempagg_core::{Column, Schema, Value, ValueType};
        let schema = Schema::new(vec![
            Column::new("amount", ValueType::Int),
            Column::new("tag", ValueType::Str),
            Column::new("bonus", ValueType::Int).nullable(),
        ])
        .unwrap();
        let mut relation = TemporalRelation::new(schema);
        for i in 0..1_000i64 {
            let bonus = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(-i)
            };
            let values = vec![Value::Int(i), Value::from(format!("row{i}")), bonus];
            relation.push(values, Interval::at(i, i + 10)).unwrap();
        }
        let path = temp_path("rows");
        let _cleanup = Cleanup(path.clone());
        write_relation(&relation, &path).unwrap();
        let scan = Scan::open(&path).unwrap();
        assert!(scan.page_tuple_counts().len() > 1);
        let scanned: Vec<Tuple> = scan.map(|t| t.unwrap()).collect();
        assert_eq!(scanned, relation.tuples());
        assert_eq!(scanned, read_relation(&path).unwrap().tuples());
    }

    #[test]
    fn page_shuffle_preserves_multiset_and_locality() {
        let relation = generate(&WorkloadConfig::sorted(2_000));
        let path = temp_path("shuffle");
        let _cleanup = Cleanup(path.clone());
        write_relation(&relation, &path).unwrap();

        let counts = Scan::open(&path).unwrap().page_tuple_counts();
        assert!(counts.len() > 2, "need several pages to test locality");

        let shuffled: Vec<Tuple> = scan_with_page_shuffle(&path, 1, 7)
            .unwrap()
            .map(|t| t.unwrap())
            .collect();
        assert_eq!(shuffled.len(), relation.len());

        // Same multiset of intervals...
        let mut a: Vec<_> = relation.intervals().collect();
        let mut b: Vec<_> = shuffled.iter().map(tempagg_core::Tuple::valid).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);

        // ...but no longer sorted...
        let order: Vec<_> = shuffled.iter().map(tempagg_core::Tuple::valid).collect();
        assert!(!tempagg_core::sortedness::is_time_ordered(&order));

        // ...while each tuple stays within its page group (I/O order is
        // untouched): every tuple from group g keeps its interval inside
        // group g's slice of the sorted input.
        let originals: Vec<_> = relation.intervals().collect();
        let mut offset = 0usize;
        for count in counts {
            let range = &originals[offset..offset + count];
            for tuple in &shuffled[offset..offset + count] {
                assert!(
                    range.contains(&tuple.valid()),
                    "a tuple escaped its page group"
                );
            }
            offset += count;
        }
    }

    #[test]
    fn shuffle_is_deterministic_in_seed() {
        let relation = generate(&WorkloadConfig::sorted(200));
        let path = temp_path("seed");
        let _cleanup = Cleanup(path.clone());
        write_relation(&relation, &path).unwrap();
        let run = |seed| -> Vec<Interval> {
            scan_with_page_shuffle(&path, 1, seed)
                .unwrap()
                .map(|t| t.unwrap().valid())
                .collect()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn rejects_foreign_files() {
        let path = temp_path("bogus");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"definitely not a page file").unwrap();
        assert!(Scan::open(&path).is_err());
    }
}
