//! The page recovery index (paper Section 5.2.2, Figure 7).
//!
//! Per data page, two facts (Figure 7's field table):
//!
//! * **Backup page** — "page identifier or log sequence number of last
//!   page formatting or of in-log copy. Used when freeing the old backup
//!   page when taking a new page backup."
//! * **Log sequence number** — "most recent page update. Valid only if the
//!   page is not resident in the buffer pool and has been updated since
//!   the last backup."
//!
//! The index is an **ordered range map**: "an ordered index (as opposed to
//! a hash index) permits the best compression. For example, a single entry
//! should cover a large range of pages if they all have the same mapping,
//! e.g., a backup of the entire database. If only one page within such a
//! range is given a new backup page, the range must be split as
//! appropriate." Experiment E5 measures exactly this compression.
//!
//! ## Encoding
//!
//! Every checkpoint saves the index in its image (see
//! [`crate::system_recovery`]), so restart starts from it instead of
//! rebuilding it from the whole log. The encoding is the SNIPPETS.md
//! `DbLogRecord` idiom — varints throughout — over range deltas:
//!
//! ```text
//! varint  range count
//! per range:
//!   varint  gap from the previous range's end (the first: from page 0)
//!   varint  pages covered (at least 1)
//!   u8      backup kind, then its varints (slot, LSN, or first slot + pages)
//!   varint  backup LSN
//!   varint  latest LSN + 1 (0: none)
//! ```
//!
//! So one full-backup range costs a handful of bytes, and a page that
//! diverged costs about 10–16 — the paper's "about 16 bytes per database
//! page" in the worst case, now a measured figure (experiment E5). The
//! image that carries it is CRC-guarded as a whole; the decoder still
//! treats its bytes as hostile.

use std::collections::BTreeMap;

use parking_lot::RwLock;

use spf_storage::PageId;
use spf_util::codec::{DecodeError, Decoder, Encoder};
use spf_wal::{BackupRef, Lsn};

/// One PRI entry (Figure 7's two fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriEntry {
    /// Most recent backup location for the page.
    pub backup: BackupRef,
    /// PageLSN of the page image at backup time (records older than or at
    /// this LSN are already in the backup).
    pub backup_lsn: Lsn,
    /// LSN of the most recent log record for the page, if it has been
    /// updated (and written back) since the backup.
    pub latest_lsn: Option<Lsn>,
}

/// Size and compression statistics (experiment E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriStats {
    /// Range entries in the map.
    pub entries: u64,
    /// Total pages covered.
    pub pages_covered: u64,
    /// Estimated bytes at the paper's ≈16 bytes per *entry* encoding
    /// (page-id range delta + backup ref + LSN, varint-packed).
    pub approx_bytes: u64,
    /// Bytes a dense (uncompressed, per-page) encoding would need.
    pub dense_bytes: u64,
}

impl spf_obs::Observable for PriStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.gauge("entries", self.entries)
            .gauge("pages_covered", self.pages_covered)
            .gauge("approx_bytes", self.approx_bytes)
            .gauge("dense_bytes", self.dense_bytes);
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RangeEntry {
    /// One past the last page id covered.
    end: u64,
    entry: PriEntry,
}

/// The page recovery index.
///
/// Thread-safe; shared by the buffer pool's write observer (updates), the
/// read validator (PageLSN cross-check), and single-page recovery
/// (lookup).
#[derive(Debug, Default)]
pub struct PageRecoveryIndex {
    ranges: RwLock<BTreeMap<u64, RangeEntry>>,
}

/// Paper: "the size of the page recovery index may reach about 16 bytes
/// per database page."
pub const BYTES_PER_ENTRY: u64 = 16;

impl PageRecoveryIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the entry covering `page`.
    #[must_use]
    pub fn lookup(&self, page: PageId) -> Option<PriEntry> {
        let ranges = self.ranges.read();
        let (_, range) = ranges.range(..=page.0).next_back()?;
        (page.0 < range.end).then_some(range.entry)
    }

    /// Records a new backup for a single page, replacing any previous
    /// mapping (splitting a covering range if needed). Returns the
    /// previous backup reference so the caller can free it ("used when
    /// freeing the old backup page").
    pub fn set_backup(
        &self,
        page: PageId,
        backup: BackupRef,
        backup_lsn: Lsn,
    ) -> Option<BackupRef> {
        let old = self.lookup(page).map(|e| e.backup);
        self.insert_range(
            page.0,
            page.0 + 1,
            PriEntry {
                backup,
                backup_lsn,
                latest_lsn: None,
            },
        );
        old
    }

    /// Records a backup covering a whole range of pages (a full database
    /// backup): one compressed entry.
    pub fn set_backup_range(&self, start: PageId, end: PageId, backup: BackupRef, backup_lsn: Lsn) {
        self.insert_range(
            start.0,
            end.0,
            PriEntry {
                backup,
                backup_lsn,
                latest_lsn: None,
            },
        );
    }

    /// Records the most recent log record for `page` after a completed
    /// write (the PriUpdate path, Figure 11). Splits ranges as needed.
    pub fn set_latest_lsn(&self, page: PageId, lsn: Lsn) {
        if let Some(mut entry) = self.lookup(page) {
            entry.latest_lsn = Some(lsn);
            self.insert_range(page.0, page.0 + 1, entry);
        } else {
            self.insert_range(
                page.0,
                page.0 + 1,
                PriEntry {
                    backup: BackupRef::None,
                    backup_lsn: Lsn::NULL,
                    latest_lsn: Some(lsn),
                },
            );
        }
    }

    /// Removes the mapping for `page` (page deallocated).
    pub fn remove(&self, page: PageId) {
        let mut ranges = self.ranges.write();
        Self::carve(&mut ranges, page.0, page.0 + 1);
    }

    /// Clears the whole index (crash simulation; restart rebuilds it from
    /// the log).
    pub fn clear(&self) {
        self.ranges.write().clear();
    }

    fn insert_range(&self, start: u64, end: u64, entry: PriEntry) {
        debug_assert!(start < end);
        let mut ranges = self.ranges.write();
        Self::carve(&mut ranges, start, end);
        // Coalesce with identical neighbours to keep the map minimal.
        let mut new_start = start;
        let mut new_end = end;
        if let Some((&ls, left)) = ranges.range(..start).next_back() {
            if left.end == start && left.entry == entry {
                new_start = ls;
            }
        }
        if let Some(right) = ranges.get(&end) {
            if right.entry == entry {
                new_end = right.end;
            }
        }
        if new_start != start {
            ranges.remove(&new_start);
        }
        if new_end != end {
            ranges.remove(&end);
        }
        ranges.insert(
            new_start,
            RangeEntry {
                end: new_end,
                entry,
            },
        );
    }

    /// Removes coverage of `[start, end)`, truncating/splitting overlaps.
    fn carve(ranges: &mut BTreeMap<u64, RangeEntry>, start: u64, end: u64) {
        // A range beginning before `start` may overlap from the left.
        if let Some((&ls, left)) = ranges.range(..start).next_back() {
            let left = left.clone();
            if left.end > start {
                ranges.get_mut(&ls).expect("exists").end = start;
                if left.end > end {
                    // The carve splits one range in two.
                    ranges.insert(
                        end,
                        RangeEntry {
                            end: left.end,
                            entry: left.entry,
                        },
                    );
                }
            }
        }
        // Ranges starting inside [start, end).
        let inside: Vec<u64> = ranges.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let range = ranges.remove(&s).expect("exists");
            if range.end > end {
                ranges.insert(end, range);
            }
        }
    }

    /// Size statistics for experiment E5.
    #[must_use]
    pub fn stats(&self) -> PriStats {
        let ranges = self.ranges.read();
        let entries = ranges.len() as u64;
        let pages_covered: u64 = ranges.iter().map(|(s, r)| r.end - s).sum();
        PriStats {
            entries,
            pages_covered,
            approx_bytes: entries * BYTES_PER_ENTRY,
            dense_bytes: pages_covered * BYTES_PER_ENTRY,
        }
    }

    /// All `(start, end, entry)` ranges, ascending — what a checkpoint
    /// captures, and what [`load`](PageRecoveryIndex::load) takes back.
    #[must_use]
    pub fn dump(&self) -> Vec<PriRange> {
        self.ranges
            .read()
            .iter()
            .map(|(&s, r)| (s, r.end, r.entry))
            .collect()
    }

    /// Replaces the whole index with `ranges` (ascending and disjoint, as
    /// [`dump`](PageRecoveryIndex::dump) and [`decode_ranges`] produce
    /// them) — restart's seed from a checkpoint image.
    pub fn load(&self, ranges: &[PriRange]) {
        let mut map = self.ranges.write();
        map.clear();
        map.extend(
            ranges
                .iter()
                .map(|&(start, end, entry)| (start, RangeEntry { end, entry })),
        );
    }

    /// Bytes this index occupies in a checkpoint image (the encoding in
    /// the module docs) — experiment E5's measured counterpart of
    /// [`PriStats::approx_bytes`].
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        let mut enc = Encoder::new();
        encode_ranges(&self.dump(), &mut enc);
        enc.len()
    }
}

/// One `(start, end, entry)` range of the index: pages `start..end`.
pub type PriRange = (u64, u64, PriEntry);

/// The fewest bytes one encoded range can take (five one-byte fields),
/// which bounds how many ranges a byte string can claim.
const MIN_RANGE_BYTES: usize = 5;

const TAG_NONE: u8 = 0;
const TAG_PAGE: u8 = 1;
const TAG_LOG: u8 = 2;
const TAG_FORMAT: u8 = 3;
const TAG_FULL: u8 = 4;

/// Appends the encoding of `ranges` (ascending, disjoint) to `enc`; see
/// the module docs for the layout.
pub fn encode_ranges(ranges: &[PriRange], enc: &mut Encoder) {
    enc.put_varint(ranges.len() as u64);
    let mut prev_end = 0u64;
    for &(start, end, entry) in ranges {
        enc.put_varint(start - prev_end);
        enc.put_varint(end - start);
        match entry.backup {
            BackupRef::None => enc.put_u8(TAG_NONE),
            BackupRef::BackupPage(slot) => {
                enc.put_u8(TAG_PAGE);
                enc.put_varint(slot.0);
            }
            BackupRef::LogImage(lsn) => {
                enc.put_u8(TAG_LOG);
                enc.put_varint(lsn.0);
            }
            BackupRef::FormatRecord(lsn) => {
                enc.put_u8(TAG_FORMAT);
                enc.put_varint(lsn.0);
            }
            BackupRef::FullBackup { first_slot, pages } => {
                enc.put_u8(TAG_FULL);
                enc.put_varint(first_slot);
                enc.put_varint(pages);
            }
        }
        enc.put_varint(entry.backup_lsn.0);
        enc.put_varint(entry.latest_lsn.map_or(0, |l| l.0.saturating_add(1)));
        prev_end = end;
    }
}

/// Decodes what [`encode_ranges`] wrote. Hostile-input safe: the range
/// count is bounded by the bytes left before anything is reserved, and
/// ranges that are empty, overlap, or run past `u64::MAX` are refused.
pub fn decode_ranges(dec: &mut Decoder<'_>) -> Result<Vec<PriRange>, DecodeError> {
    let count = dec.get_varint()? as usize;
    let max = dec.remaining() / MIN_RANGE_BYTES;
    if count > max {
        return Err(DecodeError::LengthOutOfRange { got: count, max });
    }
    let overflow = || DecodeError::LengthOutOfRange {
        got: usize::MAX,
        max: 0,
    };
    let mut out = Vec::with_capacity(count);
    let mut prev_end = 0u64;
    for _ in 0..count {
        let start = prev_end
            .checked_add(dec.get_varint()?)
            .ok_or_else(overflow)?;
        let len = dec.get_varint()?;
        if len == 0 {
            return Err(DecodeError::LengthOutOfRange { got: 0, max: 0 });
        }
        let end = start.checked_add(len).ok_or_else(overflow)?;
        let backup = match dec.get_u8()? {
            TAG_NONE => BackupRef::None,
            TAG_PAGE => BackupRef::BackupPage(PageId(dec.get_varint()?)),
            TAG_LOG => BackupRef::LogImage(Lsn(dec.get_varint()?)),
            TAG_FORMAT => BackupRef::FormatRecord(Lsn(dec.get_varint()?)),
            TAG_FULL => BackupRef::FullBackup {
                first_slot: dec.get_varint()?,
                pages: dec.get_varint()?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    what: "PRI backup kind",
                })
            }
        };
        let backup_lsn = Lsn(dec.get_varint()?);
        let latest_lsn = dec.get_varint()?.checked_sub(1).map(Lsn);
        out.push((
            start,
            end,
            PriEntry {
                backup,
                backup_lsn,
                latest_lsn,
            },
        ));
        prev_end = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_lookup_is_none() {
        let pri = PageRecoveryIndex::new();
        assert_eq!(pri.lookup(PageId(5)), None);
    }

    #[test]
    fn single_page_round_trip() {
        let pri = PageRecoveryIndex::new();
        pri.set_backup(PageId(7), BackupRef::LogImage(Lsn(99)), Lsn(90));
        let e = pri.lookup(PageId(7)).unwrap();
        assert_eq!(e.backup, BackupRef::LogImage(Lsn(99)));
        assert_eq!(e.backup_lsn, Lsn(90));
        assert_eq!(e.latest_lsn, None);
        assert_eq!(pri.lookup(PageId(6)), None);
        assert_eq!(pri.lookup(PageId(8)), None);
    }

    #[test]
    fn full_backup_is_one_entry_then_splits() {
        let pri = PageRecoveryIndex::new();
        pri.set_backup_range(
            PageId(0),
            PageId(1000),
            BackupRef::BackupPage(PageId(0)),
            Lsn(50),
        );
        assert_eq!(pri.stats().entries, 1);
        assert_eq!(pri.stats().pages_covered, 1000);

        // "If only one page within such a range is given a new backup
        // page, the range must be split as appropriate."
        pri.set_backup(PageId(500), BackupRef::BackupPage(PageId(9)), Lsn(60));
        let stats = pri.stats();
        assert_eq!(
            stats.entries, 3,
            "left remainder, new page, right remainder"
        );
        assert_eq!(stats.pages_covered, 1000);
        assert_eq!(
            pri.lookup(PageId(499)).unwrap().backup,
            BackupRef::BackupPage(PageId(0))
        );
        assert_eq!(
            pri.lookup(PageId(500)).unwrap().backup,
            BackupRef::BackupPage(PageId(9))
        );
        assert_eq!(
            pri.lookup(PageId(501)).unwrap().backup,
            BackupRef::BackupPage(PageId(0))
        );
    }

    #[test]
    fn set_latest_lsn_tracks_most_recent_record() {
        let pri = PageRecoveryIndex::new();
        pri.set_backup_range(
            PageId(0),
            PageId(10),
            BackupRef::BackupPage(PageId(0)),
            Lsn(5),
        );
        pri.set_latest_lsn(PageId(3), Lsn(100));
        assert_eq!(pri.lookup(PageId(3)).unwrap().latest_lsn, Some(Lsn(100)));
        assert_eq!(pri.lookup(PageId(4)).unwrap().latest_lsn, None);
        // A newer write replaces it.
        pri.set_latest_lsn(PageId(3), Lsn(200));
        assert_eq!(pri.lookup(PageId(3)).unwrap().latest_lsn, Some(Lsn(200)));
        // A fresh backup clears it.
        pri.set_backup(PageId(3), BackupRef::BackupPage(PageId(9)), Lsn(210));
        assert_eq!(pri.lookup(PageId(3)).unwrap().latest_lsn, None);
    }

    #[test]
    fn set_backup_returns_old_ref_for_freeing() {
        let pri = PageRecoveryIndex::new();
        assert_eq!(
            pri.set_backup(PageId(1), BackupRef::BackupPage(PageId(5)), Lsn(1)),
            None
        );
        let old = pri.set_backup(PageId(1), BackupRef::BackupPage(PageId(6)), Lsn(2));
        assert_eq!(old, Some(BackupRef::BackupPage(PageId(5))));
    }

    #[test]
    fn coalescing_merges_identical_neighbours() {
        let pri = PageRecoveryIndex::new();
        for i in 0..10 {
            pri.set_backup_range(
                PageId(i),
                PageId(i + 1),
                BackupRef::BackupPage(PageId(0)),
                Lsn(5),
            );
        }
        assert_eq!(
            pri.stats().entries,
            1,
            "identical adjacent entries must merge"
        );
        assert_eq!(pri.stats().pages_covered, 10);
    }

    #[test]
    fn remove_uncovers_page() {
        let pri = PageRecoveryIndex::new();
        pri.set_backup_range(
            PageId(0),
            PageId(10),
            BackupRef::BackupPage(PageId(0)),
            Lsn(5),
        );
        pri.remove(PageId(4));
        assert_eq!(pri.lookup(PageId(4)), None);
        assert!(pri.lookup(PageId(3)).is_some());
        assert!(pri.lookup(PageId(5)).is_some());
        assert_eq!(pri.stats().pages_covered, 9);
    }

    #[test]
    fn worst_case_size_is_dense() {
        // Paper: "in the worst case, the size of the page recovery index
        // may reach about 16 bytes per database page."
        let pri = PageRecoveryIndex::new();
        for i in 0..100 {
            pri.set_backup(PageId(i), BackupRef::LogImage(Lsn(1000 + i)), Lsn(i));
        }
        let stats = pri.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.approx_bytes, stats.dense_bytes);
        assert_eq!(stats.approx_bytes, 100 * BYTES_PER_ENTRY);
    }

    #[test]
    fn encoding_round_trips_and_a_full_backup_is_a_few_bytes() {
        let pri = PageRecoveryIndex::new();
        pri.set_backup_range(
            PageId(0),
            PageId(4096),
            BackupRef::FullBackup {
                first_slot: 256,
                pages: 4096,
            },
            Lsn(5000),
        );
        assert!(pri.encoded_bytes() <= 16, "{} bytes", pri.encoded_bytes());
        pri.set_backup(PageId(7), BackupRef::FormatRecord(Lsn(9000)), Lsn(9000));
        pri.set_latest_lsn(PageId(7), Lsn(9100));
        pri.set_backup(PageId(900), BackupRef::BackupPage(PageId(3)), Lsn(9200));
        pri.set_latest_lsn(PageId(5000), Lsn(0));
        let mut enc = Encoder::new();
        encode_ranges(&pri.dump(), &mut enc);
        let bytes = enc.finish();
        assert_eq!(bytes.len(), pri.encoded_bytes());
        let mut dec = Decoder::new(&bytes);
        let ranges = decode_ranges(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(ranges, pri.dump());
        let back = PageRecoveryIndex::new();
        back.load(&ranges);
        assert_eq!(back.dump(), pri.dump());
        assert_eq!(back.lookup(PageId(5000)).unwrap().latest_lsn, Some(Lsn(0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The range map agrees with a dense per-page model under random
        /// range/point operations.
        #[test]
        fn prop_matches_dense_model(ops in proptest::collection::vec(
            (0u8..4, 0u64..64, 1u64..16, 0u64..8), 1..80
        )) {
            let pri = PageRecoveryIndex::new();
            let mut model: std::collections::HashMap<u64, PriEntry> =
                std::collections::HashMap::new();
            for (op, start, len, tag) in ops {
                match op {
                    0 => {
                        let e = PriEntry {
                            backup: BackupRef::BackupPage(PageId(tag)),
                            backup_lsn: Lsn(tag),
                            latest_lsn: None,
                        };
                        pri.set_backup_range(PageId(start), PageId(start + len), e.backup, e.backup_lsn);
                        for p in start..start + len {
                            model.insert(p, e);
                        }
                    }
                    1 => {
                        pri.set_backup(PageId(start), BackupRef::LogImage(Lsn(tag + 1)), Lsn(tag));
                        model.insert(start, PriEntry {
                            backup: BackupRef::LogImage(Lsn(tag + 1)),
                            backup_lsn: Lsn(tag),
                            latest_lsn: None,
                        });
                    }
                    2 => {
                        pri.set_latest_lsn(PageId(start), Lsn(1000 + tag));
                        let e = model.entry(start).or_insert(PriEntry {
                            backup: BackupRef::None,
                            backup_lsn: Lsn::NULL,
                            latest_lsn: None,
                        });
                        e.latest_lsn = Some(Lsn(1000 + tag));
                    }
                    _ => {
                        pri.remove(PageId(start));
                        model.remove(&start);
                    }
                }
                // Check agreement over the whole small domain.
                for p in 0..96u64 {
                    prop_assert_eq!(
                        pri.lookup(PageId(p)),
                        model.get(&p).copied(),
                        "page {}", p
                    );
                }
                // Structural sanity: coverage equals the model's size.
                prop_assert_eq!(pri.stats().pages_covered as usize, model.len());
            }
        }
    }
}
