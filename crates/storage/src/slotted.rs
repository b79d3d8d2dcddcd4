//! Slotted-page record layout with an indirection vector.
//!
//! Records live in a heap growing down from the end of the page; the slot
//! directory (the paper's "indirection vector") grows up from the header.
//! Each 4-byte slot holds a record offset, length, and a **ghost bit**
//! (paper Section 4.2: leaf nodes keep one fence key as "an invalid record
//! (also known as ghost record or pseudo-deleted record)").
//!
//! Slot order is logical order: the B-tree keeps slots sorted by key, so
//! insertion shifts the slot directory, never the records. Deletion either
//! marks a ghost (contents-neutral, done by user transactions) or removes
//! the slot outright (done by system transactions reclaiming space, paper
//! Section 5.1.5).

use crate::page::{Page, PAGE_HEADER_SIZE};

/// Size of one slot-directory entry in bytes.
pub const SLOT_SIZE: usize = 4;

/// Ghost flag stored in the high bit of the slot's length word.
const GHOST_BIT: u16 = 0x8000;
const LEN_MASK: u16 = 0x7FFF;

/// Index of a record within a page's slot directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u16);

/// Reads the raw `(offset, len, ghost)` triple of slot `idx`.
///
/// Exposed at crate level so that [`Page::verify_layout`] can validate the
/// indirection vector without constructing a `SlottedPage`.
#[inline]
#[must_use]
pub(crate) fn read_slot(page: &Page, idx: u16) -> (u16, u16, bool) {
    let base = PAGE_HEADER_SIZE + idx as usize * SLOT_SIZE;
    let bytes = page.as_bytes();
    let offset = u16::from_le_bytes([bytes[base], bytes[base + 1]]);
    let len_word = u16::from_le_bytes([bytes[base + 2], bytes[base + 3]]);
    (offset, len_word & LEN_MASK, len_word & GHOST_BIT != 0)
}

/// Error returned when a record does not fit in the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFull {
    /// Bytes the insertion needed (record + slot entry).
    pub needed: usize,
    /// Contiguous bytes available without compaction.
    pub available: usize,
}

impl std::fmt::Display for PageFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page full: needed {} bytes, {} available",
            self.needed, self.available
        )
    }
}

impl std::error::Error for PageFull {}

/// A mutable slotted-record view over a [`Page`].
///
/// The view maintains the slot-directory invariants; it does not touch the
/// checksum (the buffer pool finalizes checksums at write-back time).
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

impl<'a> SlottedPage<'a> {
    /// Wraps `page`. The page must have a formatted header.
    pub fn new(page: &'a mut Page) -> Self {
        Self { page }
    }

    /// Read-only companion: the number of slots.
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        self.page.slot_count()
    }

    fn write_slot(&mut self, idx: u16, offset: u16, len: u16, ghost: bool) {
        let base = PAGE_HEADER_SIZE + idx as usize * SLOT_SIZE;
        let len_word = (len & LEN_MASK) | if ghost { GHOST_BIT } else { 0 };
        let bytes = self.page.as_bytes_mut();
        bytes[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        bytes[base + 2..base + 4].copy_from_slice(&len_word.to_le_bytes());
    }

    /// End of the slot array (first byte past the last slot).
    fn slot_array_end(&self) -> usize {
        PAGE_HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE
    }

    /// Contiguous free bytes between the slot array and the record heap.
    #[must_use]
    pub fn contiguous_free_space(&self) -> usize {
        self.page.heap_top() as usize - self.slot_array_end()
    }

    /// Total free bytes, counting fragmentation reclaimable by
    /// [`compact`](SlottedPage::compact). Ghost records count as occupied.
    #[must_use]
    pub fn total_free_space(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .map(|i| read_slot(self.page, i).1 as usize)
            .sum();
        self.page.size() - self.slot_array_end() - live
    }

    /// Returns the record bytes at `slot` together with its ghost flag.
    ///
    /// # Panics
    /// Panics if `slot` is out of range (a programming error; corrupted
    /// slot contents are caught earlier by [`Page::verify_layout`]).
    #[must_use]
    pub fn record(&self, slot: SlotId) -> (&[u8], bool) {
        assert!(slot.0 < self.slot_count(), "slot {} out of range", slot.0);
        let (offset, len, ghost) = read_slot(self.page, slot.0);
        (
            &self.page.as_bytes()[offset as usize..offset as usize + len as usize],
            ghost,
        )
    }

    /// True if the record at `slot` carries the ghost bit.
    #[must_use]
    pub fn is_ghost(&self, slot: SlotId) -> bool {
        assert!(slot.0 < self.slot_count(), "slot {} out of range", slot.0);
        read_slot(self.page, slot.0).2
    }

    /// Sets or clears the ghost bit of `slot`. Contents are untouched —
    /// toggling a ghost is the paper's contents-neutral logical
    /// delete/insert.
    pub fn set_ghost(&mut self, slot: SlotId, ghost: bool) {
        assert!(slot.0 < self.slot_count(), "slot {} out of range", slot.0);
        let (offset, len, _) = read_slot(self.page, slot.0);
        self.write_slot(slot.0, offset, len, ghost);
    }

    /// Inserts `record` at slot position `pos`, shifting later slots up.
    ///
    /// Compacts the heap first if total (but not contiguous) space
    /// suffices. Returns [`PageFull`] when even compaction cannot help,
    /// or when the record is longer than a slot can describe.
    pub fn insert_at(&mut self, pos: u16, record: &[u8], ghost: bool) -> Result<(), PageFull> {
        assert!(
            pos <= self.slot_count(),
            "insert position {pos} out of range"
        );
        let needed = record.len() + SLOT_SIZE;
        if record.len() > LEN_MASK as usize {
            return Err(PageFull {
                needed,
                available: self.total_free_space(),
            });
        }
        if self.contiguous_free_space() < needed {
            if self.total_free_space() >= needed {
                self.compact();
            } else {
                return Err(PageFull {
                    needed,
                    available: self.total_free_space(),
                });
            }
            if self.contiguous_free_space() < needed {
                return Err(PageFull {
                    needed,
                    available: self.contiguous_free_space(),
                });
            }
        }

        // Claim heap space.
        let new_top = self.page.heap_top() as usize - record.len();
        self.page.as_bytes_mut()[new_top..new_top + record.len()].copy_from_slice(record);
        self.page.set_heap_top(new_top as u16);

        // Shift the slot directory up by one entry.
        let count = self.slot_count();
        let start = PAGE_HEADER_SIZE + pos as usize * SLOT_SIZE;
        let end = PAGE_HEADER_SIZE + count as usize * SLOT_SIZE;
        self.page
            .as_bytes_mut()
            .copy_within(start..end, start + SLOT_SIZE);
        self.page.set_slot_count(count + 1);
        self.write_slot(pos, new_top as u16, record.len() as u16, ghost);
        Ok(())
    }

    /// Appends `record` as the last slot.
    pub fn push(&mut self, record: &[u8], ghost: bool) -> Result<SlotId, PageFull> {
        let pos = self.slot_count();
        self.insert_at(pos, record, ghost)?;
        Ok(SlotId(pos))
    }

    /// Physically removes `slot`, shifting later slots down. The record
    /// bytes become reclaimable fragmentation.
    pub fn remove(&mut self, slot: SlotId) {
        let count = self.slot_count();
        assert!(slot.0 < count, "slot {} out of range", slot.0);
        let start = PAGE_HEADER_SIZE + (slot.0 as usize + 1) * SLOT_SIZE;
        let end = PAGE_HEADER_SIZE + count as usize * SLOT_SIZE;
        self.page
            .as_bytes_mut()
            .copy_within(start..end, start - SLOT_SIZE);
        self.page.set_slot_count(count - 1);
    }

    /// Replaces the record at `slot` with `record`, preserving the ghost
    /// flag. In-place when the new record is not longer; otherwise the old
    /// bytes become fragmentation and the record moves.
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> Result<(), PageFull> {
        assert!(slot.0 < self.slot_count(), "slot {} out of range", slot.0);
        let (offset, len, ghost) = read_slot(self.page, slot.0);
        if record.len() <= len as usize {
            let off = offset as usize;
            self.page.as_bytes_mut()[off..off + record.len()].copy_from_slice(record);
            self.write_slot(slot.0, offset, record.len() as u16, ghost);
            return Ok(());
        }
        // Relocate: mark the slot empty first so compaction (if any)
        // does not preserve the old bytes.
        self.write_slot(slot.0, 0, 0, ghost);
        let needed = record.len();
        if self.contiguous_free_space() < needed {
            if self.total_free_space() >= needed {
                self.compact();
            } else {
                // Restore the old slot before failing.
                self.write_slot(slot.0, offset, len, ghost);
                return Err(PageFull {
                    needed,
                    available: self.total_free_space(),
                });
            }
        }
        let new_top = self.page.heap_top() as usize - record.len();
        self.page.as_bytes_mut()[new_top..new_top + record.len()].copy_from_slice(record);
        self.page.set_heap_top(new_top as u16);
        self.write_slot(slot.0, new_top as u16, record.len() as u16, ghost);
        Ok(())
    }

    /// Rewrites the record heap contiguously, squeezing out fragmentation.
    ///
    /// This is the paper's canonical example of a *system transaction*:
    /// "compacting a page (to reclaim fragmented free space)" changes the
    /// representation but not the logical contents.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        let size = self.page.size();
        // Collect records (offset order does not matter; logical slot
        // order is preserved).
        let mut records: Vec<(u16, Vec<u8>, bool)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let (offset, len, ghost) = read_slot(self.page, i);
            let bytes =
                self.page.as_bytes()[offset as usize..offset as usize + len as usize].to_vec();
            records.push((i, bytes, ghost));
        }
        let mut top = size;
        for (i, bytes, ghost) in records {
            top -= bytes.len();
            self.page.as_bytes_mut()[top..top + bytes.len()].copy_from_slice(&bytes);
            self.write_slot(i, top as u16, bytes.len() as u16, ghost);
        }
        self.page.set_heap_top(top as u16);
    }

    /// Iterates `(slot, record, ghost)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8], bool)> + '_ {
        (0..self.slot_count()).map(move |i| {
            let (offset, len, ghost) = read_slot(self.page, i);
            (
                SlotId(i),
                &self.page.as_bytes()[offset as usize..offset as usize + len as usize],
                ghost,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageId, PageType, DEFAULT_PAGE_SIZE};
    use proptest::prelude::*;

    fn fresh() -> Page {
        Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::BTreeLeaf)
    }

    #[test]
    fn push_and_read_back() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let a = sp.push(b"alpha", false).unwrap();
        let b = sp.push(b"bravo", false).unwrap();
        assert_eq!(sp.record(a), (&b"alpha"[..], false));
        assert_eq!(sp.record(b), (&b"bravo"[..], false));
        assert_eq!(sp.slot_count(), 2);
    }

    #[test]
    fn insert_at_preserves_order() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        sp.push(b"a", false).unwrap();
        sp.push(b"c", false).unwrap();
        sp.insert_at(1, b"b", false).unwrap();
        let contents: Vec<&[u8]> = sp.iter().map(|(_, r, _)| r).collect();
        assert_eq!(contents, vec![&b"a"[..], b"b", b"c"]);
    }

    #[test]
    fn remove_shifts_slots() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        sp.push(b"a", false).unwrap();
        sp.push(b"b", false).unwrap();
        sp.push(b"c", false).unwrap();
        sp.remove(SlotId(1));
        let contents: Vec<&[u8]> = sp.iter().map(|(_, r, _)| r).collect();
        assert_eq!(contents, vec![&b"a"[..], b"c"]);
    }

    #[test]
    fn ghost_bit_round_trip() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let s = sp.push(b"fence", true).unwrap();
        assert!(sp.is_ghost(s));
        sp.set_ghost(s, false);
        assert!(!sp.is_ghost(s));
        assert_eq!(sp.record(s).0, b"fence");
    }

    #[test]
    fn page_full_is_reported() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let big = vec![0xABu8; 2000];
        let mut inserted = 0;
        while sp.push(&big, false).is_ok() {
            inserted += 1;
        }
        // 8 KiB page, 64 B header: exactly 4 two-KB records fit.
        assert_eq!(inserted, 4);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let s = sp.push(b"0123456789", false).unwrap();
        sp.push(b"neighbor", false).unwrap();
        // Shrink in place.
        sp.update(s, b"01234").unwrap();
        assert_eq!(sp.record(s).0, b"01234");
        // Grow: relocates.
        sp.update(s, b"0123456789abcdef").unwrap();
        assert_eq!(sp.record(s).0, b"0123456789abcdef");
        assert_eq!(sp.record(SlotId(1)).0, b"neighbor");
    }

    #[test]
    fn update_too_large_restores_old_record() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let s = sp.push(b"tiny", false).unwrap();
        let huge = vec![1u8; DEFAULT_PAGE_SIZE];
        assert!(sp.update(s, &huge).is_err());
        assert_eq!(sp.record(s).0, b"tiny");
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let mut slots = Vec::new();
        for i in 0..10 {
            slots.push(sp.push(&vec![i as u8; 600], false).unwrap());
        }
        // Delete every other record -> ~3 KB of fragmentation.
        for s in slots.iter().step_by(2) {
            // Removing slots shifts indices; delete by first matching content.
            let _ = s;
        }
        // Simpler: remove slots 8,6,4,2,0 from the back so indices stay valid.
        for idx in [8u16, 6, 4, 2, 0] {
            sp.remove(SlotId(idx));
        }
        let frag_free = sp.total_free_space();
        let contig_free = sp.contiguous_free_space();
        assert!(frag_free > contig_free, "fragmentation expected");
        // A 2.5 KB record only fits after compaction.
        sp.push(&vec![0xEEu8; 2500], false).unwrap();
        let contents: Vec<Vec<u8>> = sp.iter().map(|(_, r, _)| r.to_vec()).collect();
        assert_eq!(contents.len(), 6);
        assert_eq!(contents[5], vec![0xEEu8; 2500]);
        // Survivors are the odd-indexed originals, order preserved.
        for (i, c) in contents[..5].iter().enumerate() {
            assert_eq!(c, &vec![(2 * i + 1) as u8; 600]);
        }
    }

    #[test]
    fn layout_verification_passes_after_mutations() {
        let mut page = fresh();
        {
            let mut sp = SlottedPage::new(&mut page);
            for i in 0..50 {
                sp.push(format!("record-{i}").as_bytes(), i % 7 == 0)
                    .unwrap();
            }
            for idx in [40u16, 30, 20, 10, 0] {
                sp.remove(SlotId(idx));
            }
            sp.compact();
        }
        page.finalize_checksum();
        assert_eq!(page.verify(PageId(1)), Ok(()));
    }

    // ------------------------------------------------------------------
    // Property tests: slotted page vs. a Vec<(Vec<u8>, bool)> model.
    // ------------------------------------------------------------------

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, Vec<u8>, bool),
        Remove(usize),
        Update(usize, Vec<u8>),
        SetGhost(usize, bool),
        Compact,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 0..200),
                any::<bool>()
            )
                .prop_map(|(p, r, g)| Op::Insert(p, r, g)),
            any::<usize>().prop_map(Op::Remove),
            (
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 0..200)
            )
                .prop_map(|(s, r)| Op::Update(s, r)),
            (any::<usize>(), any::<bool>()).prop_map(|(s, g)| Op::SetGhost(s, g)),
            Just(Op::Compact),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_vec_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut page = fresh();
            let mut sp = SlottedPage::new(&mut page);
            let mut model: Vec<(Vec<u8>, bool)> = Vec::new();

            for op in ops {
                match op {
                    Op::Insert(pos, rec, ghost) => {
                        let pos = pos % (model.len() + 1);
                        if sp.insert_at(pos as u16, &rec, ghost).is_ok() {
                            model.insert(pos, (rec, ghost));
                        }
                    }
                    Op::Remove(i) => {
                        if !model.is_empty() {
                            let i = i % model.len();
                            sp.remove(SlotId(i as u16));
                            model.remove(i);
                        }
                    }
                    Op::Update(i, rec) => {
                        if !model.is_empty() {
                            let i = i % model.len();
                            if sp.update(SlotId(i as u16), &rec).is_ok() {
                                model[i].0 = rec;
                            }
                        }
                    }
                    Op::SetGhost(i, g) => {
                        if !model.is_empty() {
                            let i = i % model.len();
                            sp.set_ghost(SlotId(i as u16), g);
                            model[i].1 = g;
                        }
                    }
                    Op::Compact => sp.compact(),
                }

                // Invariants after every operation.
                prop_assert_eq!(sp.slot_count() as usize, model.len());
                for (i, (rec, ghost)) in model.iter().enumerate() {
                    let (got, got_ghost) = sp.record(SlotId(i as u16));
                    prop_assert_eq!(got, &rec[..]);
                    prop_assert_eq!(got_ghost, *ghost);
                }
            }

            // The page must remain structurally plausible and checksummable.
            // (sp's borrow of the page ends here.)
            page.finalize_checksum();
            prop_assert_eq!(page.verify(PageId(1)), Ok(()));
        }
    }
}
