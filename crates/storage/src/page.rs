//! The database page: header layout, checksum, and plausibility checks.
//!
//! Every page carries enough redundancy to decide, on read, whether its
//! contents are "correct and with plausible contents" (the paper's
//! definition of the *absence* of a single-page failure):
//!
//! * a CRC-32C **checksum** over the whole page after the checksum word —
//!   catches bit rot and torn writes;
//! * a **self-identifying page id** — catches misdirected reads/writes
//!   (the device returned *a* valid page, just not the right one);
//! * the **PageLSN** — the one field the paper singles out (Section 4.2)
//!   as impossible to verify from the page alone; it is cross-checked
//!   against the page recovery index by the buffer pool on every read
//!   (paper Figure 8), which catches *stale/lost writes* that every
//!   in-page test necessarily misses;
//! * an **update counter**, incremented whenever the PageLSN changes,
//!   which drives the backup-every-N-updates policy of Section 6.
//!
//! ## On-page layout
//!
//! ```text
//! offset  size  field
//!      0     4  checksum   (CRC-32C over bytes[4..page_size])
//!      4     8  page_lsn
//!     12     8  page_id    (self-identifying)
//!     20     1  page_type
//!     21     1  flags
//!     22     2  slot_count
//!     24     2  heap_top   (lowest byte offset used by the record heap)
//!     28     4  update_count
//!     32    32  structure area (B-tree level, fence lengths, foster ptr …)
//!     64     …  slot array (grows up) … free … record heap (grows down)
//! ```

use std::fmt;

use spf_util::crc32c;

/// Default page size used across the workspace: 8 KiB.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Bytes reserved for the generic page header (including the 32-byte
/// structure area usable by access methods such as the Foster B-tree).
pub const PAGE_HEADER_SIZE: usize = 64;

/// Offset of the structure area inside the header (32 bytes long).
pub const STRUCTURE_AREA_OFFSET: usize = 32;

const OFF_CHECKSUM: usize = 0;
const OFF_PAGE_LSN: usize = 4;
const OFF_PAGE_ID: usize = 12;
const OFF_PAGE_TYPE: usize = 20;
const OFF_FLAGS: usize = 21;
const OFF_SLOT_COUNT: usize = 22;
const OFF_HEAP_TOP: usize = 24;
const OFF_UPDATE_COUNT: usize = 28;

/// Identifier of a page within a database / storage device.
///
/// Page ids are stable addresses: the device interprets them as page
/// offsets, B-tree parents store them as child pointers, log records name
/// them, and the page recovery index is keyed by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// The invalid/null page id, used where a pointer may be absent.
    pub const INVALID: PageId = PageId(u64::MAX);

    /// True if this id is not [`PageId::INVALID`].
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Self::INVALID {
            write!(f, "page(∅)")
        } else {
            write!(f, "page({})", self.0)
        }
    }
}

/// The role a page plays, recorded in its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageType {
    /// Unallocated page in the free-space pool.
    Free = 0,
    /// Database metadata page (catalog root, allocation info).
    Meta = 1,
    /// B-tree branch (interior) node.
    BTreeBranch = 2,
    /// B-tree leaf node.
    BTreeLeaf = 3,
    /// A page of the page recovery index itself.
    RecoveryIndex = 4,
    /// A retained backup copy of some data page.
    Backup = 5,
}

impl PageType {
    /// Decodes a page-type byte; unknown values are a plausibility defect.
    #[inline]
    #[must_use]
    pub fn from_u8(v: u8) -> Option<PageType> {
        match v {
            0 => Some(PageType::Free),
            1 => Some(PageType::Meta),
            2 => Some(PageType::BTreeBranch),
            3 => Some(PageType::BTreeLeaf),
            4 => Some(PageType::RecoveryIndex),
            5 => Some(PageType::Backup),
            _ => None,
        }
    }
}

/// What a page-level verification found wrong.
///
/// The variants are ordered roughly by "who can detect this": checksums
/// catch [`ChecksumMismatch`](PageDefect::ChecksumMismatch); only the
/// self-id catches [`WrongPageId`](PageDefect::WrongPageId); only the page
/// recovery index cross-check (performed by the buffer pool, not here)
/// catches a stale PageLSN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDefect {
    /// The stored CRC-32C does not match the page contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum computed over the page contents.
        computed: u32,
    },
    /// The page claims to be a different page than the one requested.
    WrongPageId {
        /// Id the caller asked the device for.
        expected: PageId,
        /// Id found in the page header.
        found: PageId,
    },
    /// The page-type byte is not a known type.
    UnknownPageType(u8),
    /// Header fields are internally inconsistent (e.g. `heap_top` below the
    /// slot array, counts beyond the page size).
    ImplausibleHeader(String),
    /// A slot's offset/length points outside the record heap.
    ImplausibleSlot {
        /// Index of the offending slot.
        slot: u16,
        /// Explanation of the violated bound.
        reason: String,
    },
}

impl fmt::Display for PageDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageDefect::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            PageDefect::WrongPageId { expected, found } => {
                write!(f, "wrong page id: expected {expected}, found {found}")
            }
            PageDefect::UnknownPageType(t) => write!(f, "unknown page type {t:#04x}"),
            PageDefect::ImplausibleHeader(why) => write!(f, "implausible header: {why}"),
            PageDefect::ImplausibleSlot { slot, reason } => {
                write!(f, "implausible slot {slot}: {reason}")
            }
        }
    }
}

impl std::error::Error for PageDefect {}

/// An in-memory page image.
///
/// `Page` owns a fixed-size byte buffer and offers typed accessors over the
/// header. Record-level access goes through [`crate::SlottedPage`], which
/// borrows the page mutably and maintains the slot-directory invariants.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Box<[u8]>,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.page_id())
            .field("type", &self.raw_page_type())
            .field("lsn", &self.page_lsn())
            .field("slots", &self.slot_count())
            .field("size", &self.buf.len())
            .finish()
    }
}

impl Page {
    /// Creates a zeroed page of `page_size` bytes, formats its header for
    /// `id` with type `ptype`, and initializes an empty record heap.
    ///
    /// The checksum is *not* computed here; call
    /// [`finalize_checksum`](Page::finalize_checksum) before writing the
    /// page to a device.
    #[must_use]
    pub fn new_formatted(page_size: usize, id: PageId, ptype: PageType) -> Self {
        assert!(
            page_size >= PAGE_HEADER_SIZE + 64,
            "page size too small: {page_size}"
        );
        assert!(
            page_size <= 1 << 15,
            "page size exceeds u16 offsets: {page_size}"
        );
        let mut page = Self {
            buf: vec![0u8; page_size].into_boxed_slice(),
        };
        page.set_page_id(id);
        page.set_page_type(ptype);
        page.set_slot_count(0);
        page.set_heap_top(page_size as u16);
        page
    }

    /// Wraps raw bytes read from a device. No validation is performed;
    /// call [`verify`](Page::verify) to check the image.
    #[must_use]
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Self {
            buf: buf.into_boxed_slice(),
        }
    }

    /// Total size of the page in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// The raw page image.
    #[inline]
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access to the raw image. Callers must re-establish the
    /// checksum via [`finalize_checksum`](Page::finalize_checksum) before
    /// the page reaches a device.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    // ------------------------------------------------------------------
    // Header accessors
    // ------------------------------------------------------------------

    #[inline]
    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().expect("4 bytes"))
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.buf[off..off + 8].try_into().expect("8 bytes"))
    }

    fn write_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The PageLSN: LSN of the most recent log record applied to this page.
    #[inline]
    #[must_use]
    pub fn page_lsn(&self) -> u64 {
        self.read_u64(OFF_PAGE_LSN)
    }

    /// Sets the PageLSN and increments the in-page update counter, as
    /// Section 6 prescribes ("incremented whenever the PageLSN changes").
    pub fn set_page_lsn(&mut self, lsn: u64) {
        if lsn != self.page_lsn() {
            let count = self.update_count();
            self.write_u32(OFF_UPDATE_COUNT, count.wrapping_add(1));
        }
        self.write_u64(OFF_PAGE_LSN, lsn);
    }

    /// The self-identifying page id stored in the header.
    #[inline]
    #[must_use]
    pub fn page_id(&self) -> PageId {
        PageId(self.read_u64(OFF_PAGE_ID))
    }

    /// Rewrites the self-identifying page id (used by page migration).
    pub fn set_page_id(&mut self, id: PageId) {
        self.write_u64(OFF_PAGE_ID, id.0);
    }

    /// The decoded page type, if the type byte is valid.
    #[inline]
    #[must_use]
    pub fn page_type(&self) -> Option<PageType> {
        PageType::from_u8(self.buf[OFF_PAGE_TYPE])
    }

    /// The raw page-type byte (may be invalid on a corrupted page).
    #[must_use]
    pub fn raw_page_type(&self) -> u8 {
        self.buf[OFF_PAGE_TYPE]
    }

    /// Sets the page type.
    pub fn set_page_type(&mut self, t: PageType) {
        self.buf[OFF_PAGE_TYPE] = t as u8;
    }

    /// Header flag byte (unused bits reserved).
    #[must_use]
    pub fn flags(&self) -> u8 {
        self.buf[OFF_FLAGS]
    }

    /// Sets the header flag byte.
    pub fn set_flags(&mut self, flags: u8) {
        self.buf[OFF_FLAGS] = flags;
    }

    /// Number of slots in the slot directory.
    #[inline]
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        self.read_u16(OFF_SLOT_COUNT)
    }

    pub(crate) fn set_slot_count(&mut self, n: u16) {
        self.write_u16(OFF_SLOT_COUNT, n);
    }

    /// Offset of the lowest byte used by the record heap (heap grows down
    /// from the end of the page).
    #[must_use]
    pub fn heap_top(&self) -> u16 {
        self.read_u16(OFF_HEAP_TOP)
    }

    pub(crate) fn set_heap_top(&mut self, off: u16) {
        self.write_u16(OFF_HEAP_TOP, off);
    }

    /// Updates applied to this page since it was formatted (wraps).
    ///
    /// Drives the backup-every-N-updates policy (paper Section 6: "The
    /// number of updates can be counted within the page, incremented
    /// whenever the PageLSN changes").
    #[must_use]
    pub fn update_count(&self) -> u32 {
        self.read_u32(OFF_UPDATE_COUNT)
    }

    /// Resets the update counter (done when a backup copy is taken).
    pub fn reset_update_count(&mut self) {
        self.write_u32(OFF_UPDATE_COUNT, 0);
    }

    /// Read-only view of the 32-byte structure area reserved for the
    /// access method (fence-key metadata, tree level, foster pointer …).
    #[inline]
    #[must_use]
    pub fn structure_area(&self) -> &[u8] {
        &self.buf[STRUCTURE_AREA_OFFSET..PAGE_HEADER_SIZE]
    }

    /// Mutable view of the structure area.
    pub fn structure_area_mut(&mut self) -> &mut [u8] {
        &mut self.buf[STRUCTURE_AREA_OFFSET..PAGE_HEADER_SIZE]
    }

    /// Read-only access to the record at `slot`: `(bytes, ghost)`.
    /// Returns `None` when `slot` is out of range — callers facing
    /// possibly-corrupt pages must not panic.
    #[inline]
    #[must_use]
    pub fn record_at(&self, slot: u16) -> Option<(&[u8], bool)> {
        // On a corrupt page the slot count itself may lie, so the slot
        // entry has to fit the image too, not just the count.
        let entry_end = PAGE_HEADER_SIZE + (slot as usize + 1) * crate::slotted::SLOT_SIZE;
        if slot >= self.slot_count() || entry_end > self.buf.len() {
            return None;
        }
        let (offset, len, ghost) = crate::slotted::read_slot(self, slot);
        let (offset, len) = (offset as usize, len as usize);
        Some((self.buf.get(offset..offset + len)?, ghost))
    }

    // ------------------------------------------------------------------
    // Checksums and verification
    // ------------------------------------------------------------------

    /// Computes the CRC-32C over the checksummed region.
    #[must_use]
    pub fn compute_checksum(&self) -> u32 {
        crc32c(&self.buf[OFF_PAGE_LSN..])
    }

    /// Stored checksum from the header.
    #[must_use]
    pub fn stored_checksum(&self) -> u32 {
        self.read_u32(OFF_CHECKSUM)
    }

    /// Recomputes and stores the checksum. Must be called after the last
    /// mutation and before the page image reaches a device.
    pub fn finalize_checksum(&mut self) {
        let sum = self.compute_checksum();
        self.write_u32(OFF_CHECKSUM, sum);
    }

    /// Full in-page verification (paper Figure 8, the in-page half):
    /// checksum, self-identifying id, page type, and slot-directory
    /// plausibility. Returns the first defect found.
    ///
    /// This is everything that can be validated *from the page alone*; the
    /// PageLSN cross-check against the page recovery index is the buffer
    /// pool's job because it needs outside information.
    pub fn verify(&self, expected_id: PageId) -> Result<(), PageDefect> {
        let stored = self.stored_checksum();
        let computed = self.compute_checksum();
        if stored != computed {
            return Err(PageDefect::ChecksumMismatch { stored, computed });
        }
        let found = self.page_id();
        if found != expected_id {
            return Err(PageDefect::WrongPageId {
                expected: expected_id,
                found,
            });
        }
        if self.page_type().is_none() {
            return Err(PageDefect::UnknownPageType(self.raw_page_type()));
        }
        self.verify_layout()
    }

    /// Validates the header and slot directory bounds only (no checksum):
    /// the "analysis of all byte offsets and lengths in the page header and
    /// in the indirection vector" of Section 4.2.
    pub fn verify_layout(&self) -> Result<(), PageDefect> {
        let size = self.buf.len();
        let slot_count = self.slot_count() as usize;
        let slot_end = PAGE_HEADER_SIZE + slot_count * crate::slotted::SLOT_SIZE;
        let heap_top = self.heap_top() as usize;
        if slot_end > size {
            return Err(PageDefect::ImplausibleHeader(format!(
                "slot array ({slot_count} slots) extends to {slot_end}, past page size {size}"
            )));
        }
        if heap_top > size {
            return Err(PageDefect::ImplausibleHeader(format!(
                "heap_top {heap_top} past page size {size}"
            )));
        }
        if heap_top < slot_end {
            return Err(PageDefect::ImplausibleHeader(format!(
                "heap_top {heap_top} below slot array end {slot_end}"
            )));
        }
        for slot in 0..slot_count {
            let (offset, len, _ghost) = crate::slotted::read_slot(self, slot as u16);
            let offset = offset as usize;
            let len = len as usize;
            if len == 0 {
                // Zero-length records are legal (e.g. fence-only ghosts);
                // offset still must be in range.
                if offset > size {
                    return Err(PageDefect::ImplausibleSlot {
                        slot: slot as u16,
                        reason: format!("offset {offset} past page size {size}"),
                    });
                }
                continue;
            }
            if offset < heap_top {
                return Err(PageDefect::ImplausibleSlot {
                    slot: slot as u16,
                    reason: format!("offset {offset} below heap_top {heap_top}"),
                });
            }
            if offset + len > size {
                return Err(PageDefect::ImplausibleSlot {
                    slot: slot as u16,
                    reason: format!("record [{offset}, {}) past page size {size}", offset + len),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(7), PageType::BTreeLeaf)
    }

    #[test]
    fn formatted_page_verifies() {
        let mut p = page();
        p.finalize_checksum();
        assert_eq!(p.verify(PageId(7)), Ok(()));
    }

    #[test]
    fn header_round_trips() {
        let mut p = page();
        p.set_page_lsn(0xABCD);
        p.set_flags(0x5A);
        assert_eq!(p.page_lsn(), 0xABCD);
        assert_eq!(p.page_id(), PageId(7));
        assert_eq!(p.page_type(), Some(PageType::BTreeLeaf));
        assert_eq!(p.flags(), 0x5A);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.heap_top() as usize, DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn update_count_tracks_pagelsn_changes() {
        let mut p = page();
        assert_eq!(p.update_count(), 0);
        p.set_page_lsn(1);
        p.set_page_lsn(2);
        p.set_page_lsn(2); // same LSN: not an update
        p.set_page_lsn(3);
        assert_eq!(p.update_count(), 3);
        p.reset_update_count();
        assert_eq!(p.update_count(), 0);
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut p = page();
        p.finalize_checksum();
        let image_size = p.size();
        p.as_bytes_mut()[image_size / 2] ^= 0x40;
        match p.verify(PageId(7)) {
            Err(PageDefect::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checksum_catches_lsn_corruption() {
        // The PageLSN is inside the checksummed region: random corruption
        // of the LSN is caught. (A *stale but internally consistent* page
        // is not — that is exactly why the paper adds the page recovery
        // index cross-check.)
        let mut p = page();
        p.set_page_lsn(42);
        p.finalize_checksum();
        p.as_bytes_mut()[5] ^= 0xFF;
        assert!(matches!(
            p.verify(PageId(7)),
            Err(PageDefect::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn self_id_catches_misdirected_read() {
        let mut p = page();
        p.finalize_checksum();
        // The image itself is intact — but it is page 7, not page 9.
        match p.verify(PageId(9)) {
            Err(PageDefect::WrongPageId { expected, found }) => {
                assert_eq!(expected, PageId(9));
                assert_eq!(found, PageId(7));
            }
            other => panic!("expected wrong-page-id, got {other:?}"),
        }
    }

    #[test]
    fn unknown_page_type_detected() {
        let mut p = page();
        p.as_bytes_mut()[OFF_PAGE_TYPE] = 0xEE;
        p.finalize_checksum();
        assert_eq!(p.verify(PageId(7)), Err(PageDefect::UnknownPageType(0xEE)));
    }

    #[test]
    fn implausible_heap_top_detected() {
        let mut p = page();
        p.set_heap_top(10); // below the header: nonsense
        p.finalize_checksum();
        assert!(matches!(
            p.verify(PageId(7)),
            Err(PageDefect::ImplausibleHeader(_))
        ));
    }

    #[test]
    fn slot_count_past_page_detected() {
        let mut p = page();
        p.set_slot_count(u16::MAX);
        p.finalize_checksum();
        assert!(matches!(
            p.verify(PageId(7)),
            Err(PageDefect::ImplausibleHeader(_))
        ));
    }

    #[test]
    fn stale_page_passes_in_page_tests() {
        // The crucial negative case motivating the page recovery index:
        // a page that is simply *old* (lost write) passes every in-page
        // test. Detection requires outside information.
        let mut p = page();
        p.set_page_lsn(100);
        p.finalize_checksum();
        let stale = p.clone();
        p.set_page_lsn(200);
        p.finalize_checksum();
        // The stale image still verifies perfectly.
        assert_eq!(stale.verify(PageId(7)), Ok(()));
        assert_ne!(stale.page_lsn(), p.page_lsn());
    }

    #[test]
    fn structure_area_is_32_bytes_and_checksummed() {
        let mut p = page();
        p.structure_area_mut()[0] = 0xAA;
        p.finalize_checksum();
        assert_eq!(p.structure_area().len(), 32);
        assert_eq!(p.verify(PageId(7)), Ok(()));
        p.structure_area_mut()[0] = 0xBB;
        assert!(matches!(
            p.verify(PageId(7)),
            Err(PageDefect::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn verify_never_panics_on_arbitrary_bytes() {
        // The read path faces deliberately corrupted images; verification
        // must always return a verdict, never panic.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..200 {
            let mut bytes = vec![0u8; DEFAULT_PAGE_SIZE];
            rng.fill(&mut bytes[..]);
            let page = Page::from_bytes(bytes);
            let _ = page.verify(PageId(3));
            let _ = page.verify_layout();
            let _ = page.record_at(0);
            let _ = page.record_at(u16::MAX - 1);
        }
        // A slot count that claims more slots than the page can hold: the
        // slots past the image are absent, not an out-of-bounds read.
        let mut liar = page();
        liar.set_slot_count(u16::MAX);
        let last_whole =
            ((DEFAULT_PAGE_SIZE - PAGE_HEADER_SIZE) / crate::slotted::SLOT_SIZE) as u16;
        assert!(liar.record_at(last_whole - 1).is_some());
        assert_eq!(liar.record_at(last_whole), None);
        assert_eq!(liar.record_at(u16::MAX - 1), None);
        // And on structured-but-hostile images: valid checksum, garbage header.
        for seed in 0..50u64 {
            let mut bytes = vec![0u8; DEFAULT_PAGE_SIZE];
            let mut r = StdRng::seed_from_u64(seed);
            r.fill(&mut bytes[..]);
            let sum = spf_util::crc32c(&bytes[4..]);
            bytes[0..4].copy_from_slice(&sum.to_le_bytes());
            let page = Page::from_bytes(bytes);
            let verdict = page.verify(page.page_id());
            // Checksum passes by construction; any failure is plausibility.
            if let Err(defect) = verdict {
                assert!(!matches!(defect, PageDefect::ChecksumMismatch { .. }));
            }
        }
    }

    #[test]
    fn page_id_display() {
        assert_eq!(PageId(3).to_string(), "page(3)");
        assert_eq!(PageId::INVALID.to_string(), "page(∅)");
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
    }
}
