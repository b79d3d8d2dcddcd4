//! Log sequence numbers, record taxonomy, and the physiological page
//! operations they describe.
//!
//! A record is a fixed 8-byte frame around a varint body that carries
//! both chain pointers:
//!
//! ```text
//! u32     body_len      (bytes after the crc field)
//! u32     crc32c        (over the body)
//! varint  tx_id
//! varint  prev_tx_lsn   — per-transaction chain (Section 5.1.1); 0 = NULL
//! varint  page_id + 1   — 0 when the record concerns no single page
//! varint  prev_page_lsn — per-page chain (Section 5.1.4); 0 = NULL
//! u8      payload tag, then the payload (its u64 and u16 fields as varints)
//! ```
//!
//! | tag | payload | tag | payload |
//! |---|---|---|---|
//! | 0 | system transaction begin | 6 | full-page image |
//! | 1 | commit | 7 | page-recovery-index update |
//! | 2 | abort | 8 | backup taken |
//! | 3 | update | 9 | checkpoint begin |
//! | 4 | compensation (CLR) | 10 | checkpoint end |
//! | 5 | page format | 11 | update that commits its transaction |
//!
//! A user transaction logs no begin record: its first record is the one
//! whose `prev_tx_lsn` is NULL (as in ARIES), and only a system
//! transaction opens with a begin record. A transaction whose one update
//! is its whole work logs that update under tag 11 and no commit record
//! ([`LogPayload::UpdateCommit`]); the tag's payload is an update's.
//!
//! The frame stays fixed-width, so the log's probe, scan and restore paths
//! size a record from its first four bytes ([`LogRecord::framed_len`]).
//! Both chain pointers are absolute LSNs, not deltas against the record's
//! own LSN: [`LogManager::append`](crate::LogManager::append) encodes a
//! record *before* it reserves the record's byte range, so the encoding
//! cannot depend on the LSN that reservation is about to assign.
//!
//! A [`PageOp::ReplaceRecord`] logs only the middle in which the old and
//! new record differ: the bytes both share at the front (`prefix`) and at
//! the back (`suffix`) are logged as two lengths. Redo checks that the
//! record it replaces is `prefix + old.len() + suffix` long with `old` in
//! the middle, and splices `new` in; undo swaps `old` and `new`. A full
//! replacement is simply `prefix = suffix = 0`.
//!
//! Redo is **physical** ("applies to the same data pages") and undo is
//! expressed through [`PageOp::invert`], generating the compensation
//! operation that a CLR carries (Section 5.1.2's redo/undo split).

use std::fmt;

use spf_storage::page::STRUCTURE_AREA_OFFSET;
use spf_storage::slotted::PageFull;
use spf_storage::{Page, PageId, SlotId, SlottedPage, PAGE_HEADER_SIZE};
use spf_util::codec::{DecodeError, Decoder, Encoder};

/// A log sequence number: byte offset of a record in the virtual log.
///
/// `Lsn::NULL` (zero) terminates both chains; the first real record sits
/// at offset [`Lsn::FIRST`] so that zero is never a valid record address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN: "no record". Terminates log chains.
    pub const NULL: Lsn = Lsn(0);
    /// Address of the first record in a fresh log (after the log header).
    pub const FIRST: Lsn = Lsn(8);

    /// True if this is not [`Lsn::NULL`].
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != Self::NULL
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "lsn:{}", self.0)
        } else {
            write!(f, "lsn:∅")
        }
    }
}

/// Transaction identifier. `TxId::NONE` marks records outside any
/// transaction (e.g. checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(pub u64);

impl TxId {
    /// "No transaction".
    pub const NONE: TxId = TxId(0);

    /// True if this is a real transaction id.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != Self::NONE
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0)
    }
}

/// Where the most recent backup of a page lives (paper Figure 7: "Page
/// identifier or log sequence number of last page formatting or of in-log
/// copy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupRef {
    /// No backup exists (page must be recovered from its format record or
    /// treated as a media failure).
    None,
    /// An explicit backup copy stored at this page of the backup store.
    BackupPage(PageId),
    /// A full-page image embedded in the log at this LSN.
    LogImage(Lsn),
    /// The page-format log record at this LSN (initial contents after
    /// allocation — "may substitute for an explicit backup copy").
    FormatRecord(Lsn),
    /// A full database backup: page `p`'s image lives at backup slot
    /// `first_slot + p`. One [`BackupRef`] (and one page-recovery-index
    /// range entry) covers every page — the paper's compression case.
    FullBackup {
        /// First backup-store slot of the run.
        first_slot: u64,
        /// Number of pages backed up.
        pages: u64,
    },
}

impl BackupRef {
    const TAG_NONE: u8 = 0;
    const TAG_PAGE: u8 = 1;
    const TAG_LOG: u8 = 2;
    const TAG_FORMAT: u8 = 3;
    const TAG_FULL: u8 = 4;

    fn encode(&self, enc: &mut Encoder) {
        match self {
            BackupRef::None => enc.put_u8(Self::TAG_NONE),
            BackupRef::BackupPage(id) => {
                enc.put_u8(Self::TAG_PAGE);
                enc.put_varint(id.0);
            }
            BackupRef::LogImage(lsn) => {
                enc.put_u8(Self::TAG_LOG);
                enc.put_varint(lsn.0);
            }
            BackupRef::FormatRecord(lsn) => {
                enc.put_u8(Self::TAG_FORMAT);
                enc.put_varint(lsn.0);
            }
            BackupRef::FullBackup { first_slot, pages } => {
                enc.put_u8(Self::TAG_FULL);
                enc.put_varint(*first_slot);
                enc.put_varint(*pages);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            Self::TAG_NONE => Ok(BackupRef::None),
            Self::TAG_PAGE => Ok(BackupRef::BackupPage(PageId(dec.get_varint()?))),
            Self::TAG_LOG => Ok(BackupRef::LogImage(Lsn(dec.get_varint()?))),
            Self::TAG_FORMAT => Ok(BackupRef::FormatRecord(Lsn(dec.get_varint()?))),
            Self::TAG_FULL => Ok(BackupRef::FullBackup {
                first_slot: dec.get_varint()?,
                pages: dec.get_varint()?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                what: "BackupRef",
            }),
        }
    }
}

/// A page image compressed by omitting the free-space gap between the
/// slot array and the record heap ("presumably compressed", Section 5.2.1).
///
/// `head` holds the header plus slot directory, `tail` holds the record
/// heap from `heap_top` to the end of the page; the gap is zero on
/// reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPageImage {
    /// Page size the image reconstructs to.
    pub page_size: u32,
    /// Offset where the tail resumes (the page's `heap_top`).
    pub heap_top: u32,
    /// Bytes `[0, head.len())` of the page.
    pub head: Vec<u8>,
    /// Bytes `[heap_top, page_size)` of the page.
    pub tail: Vec<u8>,
}

impl CompressedPageImage {
    /// Captures `page`, omitting its free-space gap.
    #[must_use]
    pub fn capture(page: &Page) -> Self {
        let size = page.size();
        let slot_end = spf_storage::PAGE_HEADER_SIZE + page.slot_count() as usize * 4;
        let heap_top = page.heap_top() as usize;
        // Guard against implausible headers on corrupted pages: fall back
        // to a full image rather than panic.
        let (slot_end, heap_top) = if slot_end <= heap_top && heap_top <= size {
            (slot_end, heap_top)
        } else {
            (size, size)
        };
        Self {
            page_size: size as u32,
            heap_top: heap_top as u32,
            head: page.as_bytes()[..slot_end].to_vec(),
            tail: page.as_bytes()[heap_top..].to_vec(),
        }
    }

    /// Reconstructs the full page image.
    #[must_use]
    pub fn restore(&self) -> Page {
        let mut buf = vec![0u8; self.page_size as usize];
        buf[..self.head.len()].copy_from_slice(&self.head);
        let top = self.heap_top as usize;
        buf[top..top + self.tail.len()].copy_from_slice(&self.tail);
        Page::from_bytes(buf)
    }

    /// Encoded size in bytes (what the image costs in the log).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + self.head.len() + self.tail.len() + 10
    }

    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.page_size);
        enc.put_u32(self.heap_top);
        enc.put_len_bytes(&self.head);
        enc.put_len_bytes(&self.tail);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let page_size = dec.get_u32()?;
        let heap_top = dec.get_u32()?;
        let max = 1usize << 15;
        if page_size as usize > max || heap_top > page_size {
            return Err(DecodeError::LengthOutOfRange {
                got: heap_top as usize,
                max,
            });
        }
        let head = dec.get_len_bytes(page_size as usize)?.to_vec();
        let tail = dec.get_len_bytes(page_size as usize)?.to_vec();
        if head.len() > heap_top as usize || tail.len() != (page_size - heap_top) as usize {
            return Err(DecodeError::LengthOutOfRange {
                got: tail.len(),
                max: page_size as usize,
            });
        }
        Ok(Self {
            page_size,
            heap_top,
            head,
            tail,
        })
    }
}

/// Reads an entry count, refusing one the remaining bytes cannot hold at
/// `entry_bytes` (the smallest encoding of one entry) apiece: the count
/// sizes a reservation, and a record is not to be trusted with more
/// memory than it brought.
fn get_count(dec: &mut Decoder<'_>, entry_bytes: usize) -> Result<usize, DecodeError> {
    let n = dec.get_varint()? as usize;
    let max = dec.remaining() / entry_bytes;
    if n > max {
        return Err(DecodeError::LengthOutOfRange { got: n, max });
    }
    Ok(n)
}

/// Reads a varint that must fit a `u16` (slot positions, replace prefix
/// and suffix lengths).
fn get_varint_u16(dec: &mut Decoder<'_>) -> Result<u16, DecodeError> {
    u16::try_from(dec.get_varint()?).map_err(|_| DecodeError::VarintOverflow)
}

/// The largest record a slot can describe; bounds every record length a
/// page op decodes.
const MAX_REC: usize = 1 << 15;

/// The length of a page's structure area, the only length a
/// [`PageOp::WriteStructure`] area decodes with.
const STRUCTURE_LEN: usize = PAGE_HEADER_SIZE - STRUCTURE_AREA_OFFSET;

/// Reads a [`PageOp::WriteStructure`] area: exactly [`STRUCTURE_LEN`] bytes.
fn get_structure(dec: &mut Decoder<'_>) -> Result<Vec<u8>, DecodeError> {
    let area = dec.get_len_bytes(STRUCTURE_LEN)?;
    if area.len() != STRUCTURE_LEN {
        return Err(DecodeError::LengthOutOfRange {
            got: area.len(),
            max: STRUCTURE_LEN,
        });
    }
    Ok(area.to_vec())
}

/// Why [`PageOp::redo`] could not apply an op: the page is not in the
/// state the op was logged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misfit {
    /// A slot position, or the end of a run, past the page's slot count.
    Slot {
        /// The position the op needs to exist (exclusive end).
        end: usize,
        /// The page's slot count.
        slots: u16,
    },
    /// The record does not fit the page's free space.
    Full(PageFull),
    /// The record at `pos` is not the one a replace was logged against.
    NotReplaced {
        /// Slot position of the replace.
        pos: u16,
    },
    /// A structure area that is not the page's structure area length.
    StructureLen(usize),
}

impl From<PageFull> for Misfit {
    fn from(full: PageFull) -> Self {
        Misfit::Full(full)
    }
}

impl fmt::Display for Misfit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Misfit::Slot { end, slots } => {
                write!(f, "op reaches slot {end} of a page with {slots} slots")
            }
            Misfit::Full(full) => write!(f, "{full}"),
            Misfit::NotReplaced { pos } => {
                write!(
                    f,
                    "the record at slot {pos} is not the one the replace logged"
                )
            }
            Misfit::StructureLen(len) => write!(f, "a {len}-byte structure area"),
        }
    }
}

impl std::error::Error for Misfit {}

/// A physiological operation on one slotted page: enough information for
/// physical redo *and* for generating the inverse (compensation) action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOp {
    /// Insert a record at slot position `pos`.
    InsertRecord {
        /// Slot position the record is inserted at.
        pos: u16,
        /// Record bytes.
        bytes: Vec<u8>,
        /// Ghost flag of the new record.
        ghost: bool,
    },
    /// Physically remove the record at `pos` (system-transaction work,
    /// e.g. ghost reclamation).
    RemoveRecord {
        /// Slot position removed.
        pos: u16,
        /// Removed record bytes (for undo).
        old_bytes: Vec<u8>,
        /// Removed record's ghost flag (for undo).
        old_ghost: bool,
    },
    /// Replace the record at `pos`, logged as a delta: only the middles in
    /// which the old and new record differ (built by [`PageOp::replace`]).
    ReplaceRecord {
        /// Slot position replaced.
        pos: u16,
        /// Key of the record at `pos`, for rollback by key (see
        /// [`PageOp::SetGhost`]); empty for a system transaction's
        /// replace, which is undone where it was made.
        key: Vec<u8>,
        /// Leading bytes the old and new record share.
        prefix: u16,
        /// Trailing bytes the old and new record share.
        suffix: u16,
        /// The old record's middle (for undo).
        old: Vec<u8>,
        /// The new record's middle (for redo).
        new: Vec<u8>,
    },
    /// Toggle the ghost bit at `pos` (logical delete / re-insert).
    SetGhost {
        /// Slot position affected.
        pos: u16,
        /// Key of the record at `pos`: the one field a rollback needs to
        /// find the record again after concurrent inserts or a split
        /// moved it (the insert and remove ops carry the whole record, and
        /// a replace its key as well).
        key: Vec<u8>,
        /// Previous ghost flag.
        old: bool,
        /// New ghost flag.
        new: bool,
    },
    /// Overwrite the 32-byte structure area (fence metadata, foster
    /// pointer, tree level…).
    WriteStructure {
        /// Previous structure area contents.
        old: Vec<u8>,
        /// New structure area contents.
        new: Vec<u8>,
    },
    /// Insert a run of records starting at `pos` (node splits install the
    /// moved half with one log record).
    InsertRange {
        /// First slot position of the run.
        pos: u16,
        /// The records, in slot order: `(bytes, ghost)`.
        records: Vec<(Vec<u8>, bool)>,
    },
    /// Remove the run of records `[pos, pos + records.len())` (the moved
    /// half leaving the split node).
    RemoveRange {
        /// First slot position of the run.
        pos: u16,
        /// The removed records, in slot order (for undo).
        records: Vec<(Vec<u8>, bool)>,
    },
}

/// Decoded form of a record-run payload: the starting slot position and
/// the `(bytes, ghost)` records of the run.
type DecodedRange = (u16, Vec<(Vec<u8>, bool)>);

impl PageOp {
    /// The [`PageOp::ReplaceRecord`] that turns `old_record` at `pos` into
    /// `new_record`, logging only the middles the two do not share.
    #[must_use]
    pub fn replace(pos: u16, key: Vec<u8>, old_record: &[u8], new_record: &[u8]) -> PageOp {
        let prefix = old_record
            .iter()
            .zip(new_record)
            .take_while(|(a, b)| a == b)
            .count();
        let (old_rest, new_rest) = (&old_record[prefix..], &new_record[prefix..]);
        let suffix = old_rest
            .iter()
            .rev()
            .zip(new_rest.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let fits = |n: usize| u16::try_from(n).expect("a slotted record's length fits a u16");
        PageOp::ReplaceRecord {
            pos,
            key,
            prefix: fits(prefix),
            suffix: fits(suffix),
            old: old_rest[..old_rest.len() - suffix].to_vec(),
            new: new_rest[..new_rest.len() - suffix].to_vec(),
        }
    }

    /// The record a [`PageOp::ReplaceRecord`] turns `record` into, or
    /// `None` when `record` is not the one it was logged against — not
    /// `prefix + old.len() + suffix` bytes long with `old` in the middle
    /// — or `self` is no replace.
    #[must_use]
    pub fn replaced(&self, record: &[u8]) -> Option<Vec<u8>> {
        let PageOp::ReplaceRecord {
            prefix,
            suffix,
            old,
            new,
            ..
        } = self
        else {
            return None;
        };
        let (head, tail) = (*prefix as usize, *suffix as usize);
        if record.len() != head + old.len() + tail || record[head..head + old.len()] != old[..] {
            return None;
        }
        let mut out = Vec::with_capacity(head + new.len() + tail);
        out.extend_from_slice(&record[..head]);
        out.extend_from_slice(new);
        out.extend_from_slice(&record[record.len() - tail..]);
        Some(out)
    }

    /// Applies the redo action to `page`. Redo is physical: it assumes
    /// the page is in the state the operation was originally applied to.
    /// Forward processing and rollback hold that by latching the page; a
    /// replay of log bytes can meet a page that is not in that state, and
    /// then gets a [`Misfit`] with the page's logical contents unchanged.
    pub fn redo(&self, page: &mut Page) -> Result<(), Misfit> {
        let slots = page.slot_count();
        let within = |end: usize| {
            if end <= usize::from(slots) {
                Ok(())
            } else {
                Err(Misfit::Slot { end, slots })
            }
        };
        match self {
            PageOp::InsertRecord { pos, bytes, ghost } => {
                within(usize::from(*pos))?;
                SlottedPage::new(page).insert_at(*pos, bytes, *ghost)?;
            }
            PageOp::RemoveRecord { pos, .. } => {
                within(usize::from(*pos) + 1)?;
                SlottedPage::new(page).remove(SlotId(*pos));
            }
            PageOp::ReplaceRecord { pos, .. } => {
                within(usize::from(*pos) + 1)?;
                let mut sp = SlottedPage::new(page);
                let record = self
                    .replaced(sp.record(SlotId(*pos)).0)
                    .ok_or(Misfit::NotReplaced { pos: *pos })?;
                sp.update(SlotId(*pos), &record)?;
            }
            PageOp::SetGhost { pos, new, .. } => {
                within(usize::from(*pos) + 1)?;
                SlottedPage::new(page).set_ghost(SlotId(*pos), *new);
            }
            PageOp::WriteStructure { new, .. } => {
                let area = page.structure_area_mut();
                if new.len() != area.len() {
                    return Err(Misfit::StructureLen(new.len()));
                }
                area.copy_from_slice(new);
            }
            PageOp::InsertRange { pos, records } => {
                within(usize::from(*pos))?;
                let mut sp = SlottedPage::new(page);
                for (i, (bytes, ghost)) in records.iter().enumerate() {
                    if let Err(full) = sp.insert_at(*pos + i as u16, bytes, *ghost) {
                        // Take the run's head back out: all of it or none.
                        for _ in 0..i {
                            sp.remove(SlotId(*pos));
                        }
                        return Err(full.into());
                    }
                }
            }
            PageOp::RemoveRange { pos, records } => {
                within(usize::from(*pos) + records.len())?;
                let mut sp = SlottedPage::new(page);
                for _ in 0..records.len() {
                    sp.remove(SlotId(*pos));
                }
            }
        }
        Ok(())
    }

    /// The inverse operation, i.e. what a CLR applies during rollback.
    #[must_use]
    pub fn invert(&self) -> PageOp {
        match self {
            PageOp::InsertRecord { pos, bytes, ghost } => PageOp::RemoveRecord {
                pos: *pos,
                old_bytes: bytes.clone(),
                old_ghost: *ghost,
            },
            PageOp::RemoveRecord {
                pos,
                old_bytes,
                old_ghost,
            } => PageOp::InsertRecord {
                pos: *pos,
                bytes: old_bytes.clone(),
                ghost: *old_ghost,
            },
            PageOp::ReplaceRecord {
                pos,
                key,
                prefix,
                suffix,
                old,
                new,
            } => PageOp::ReplaceRecord {
                pos: *pos,
                key: key.clone(),
                prefix: *prefix,
                suffix: *suffix,
                old: new.clone(),
                new: old.clone(),
            },
            PageOp::SetGhost { pos, key, old, new } => PageOp::SetGhost {
                pos: *pos,
                key: key.clone(),
                old: *new,
                new: *old,
            },
            PageOp::WriteStructure { old, new } => PageOp::WriteStructure {
                old: new.clone(),
                new: old.clone(),
            },
            PageOp::InsertRange { pos, records } => PageOp::RemoveRange {
                pos: *pos,
                records: records.clone(),
            },
            PageOp::RemoveRange { pos, records } => PageOp::InsertRange {
                pos: *pos,
                records: records.clone(),
            },
        }
    }

    const TAG_INSERT: u8 = 0;
    const TAG_REMOVE: u8 = 1;
    const TAG_REPLACE: u8 = 2;
    const TAG_GHOST: u8 = 3;
    const TAG_STRUCTURE: u8 = 4;
    const TAG_INSERT_RANGE: u8 = 5;
    const TAG_REMOVE_RANGE: u8 = 6;

    fn encode_range(enc: &mut Encoder, pos: u16, records: &[(Vec<u8>, bool)]) {
        enc.put_varint(u64::from(pos));
        enc.put_varint(records.len() as u64);
        for (bytes, ghost) in records {
            enc.put_u8(u8::from(*ghost));
            enc.put_len_bytes(bytes);
        }
    }

    fn decode_range(dec: &mut Decoder<'_>) -> Result<DecodedRange, DecodeError> {
        let pos = get_varint_u16(dec)?;
        // A record is at least its ghost byte and a one-byte length.
        let n = get_count(dec, 2)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let ghost = dec.get_u8()? != 0;
            let bytes = dec.get_len_bytes(MAX_REC)?.to_vec();
            records.push((bytes, ghost));
        }
        Ok((pos, records))
    }

    fn encode(&self, enc: &mut Encoder) {
        match self {
            PageOp::InsertRecord { pos, bytes, ghost } => {
                enc.put_u8(Self::TAG_INSERT);
                enc.put_varint(u64::from(*pos));
                enc.put_u8(u8::from(*ghost));
                enc.put_len_bytes(bytes);
            }
            PageOp::RemoveRecord {
                pos,
                old_bytes,
                old_ghost,
            } => {
                enc.put_u8(Self::TAG_REMOVE);
                enc.put_varint(u64::from(*pos));
                enc.put_u8(u8::from(*old_ghost));
                enc.put_len_bytes(old_bytes);
            }
            PageOp::ReplaceRecord {
                pos,
                key,
                prefix,
                suffix,
                old,
                new,
            } => {
                enc.put_u8(Self::TAG_REPLACE);
                enc.put_varint(u64::from(*pos));
                enc.put_len_bytes(key);
                enc.put_varint(u64::from(*prefix));
                enc.put_varint(u64::from(*suffix));
                enc.put_len_bytes(old);
                enc.put_len_bytes(new);
            }
            PageOp::SetGhost { pos, key, old, new } => {
                enc.put_u8(Self::TAG_GHOST);
                enc.put_varint(u64::from(*pos));
                enc.put_u8(u8::from(*old));
                enc.put_u8(u8::from(*new));
                enc.put_len_bytes(key);
            }
            PageOp::WriteStructure { old, new } => {
                enc.put_u8(Self::TAG_STRUCTURE);
                enc.put_len_bytes(old);
                enc.put_len_bytes(new);
            }
            PageOp::InsertRange { pos, records } => {
                enc.put_u8(Self::TAG_INSERT_RANGE);
                Self::encode_range(enc, *pos, records);
            }
            PageOp::RemoveRange { pos, records } => {
                enc.put_u8(Self::TAG_REMOVE_RANGE);
                Self::encode_range(enc, *pos, records);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            Self::TAG_INSERT => {
                let pos = get_varint_u16(dec)?;
                let ghost = dec.get_u8()? != 0;
                let bytes = dec.get_len_bytes(MAX_REC)?.to_vec();
                Ok(PageOp::InsertRecord { pos, bytes, ghost })
            }
            Self::TAG_REMOVE => {
                let pos = get_varint_u16(dec)?;
                let old_ghost = dec.get_u8()? != 0;
                let old_bytes = dec.get_len_bytes(MAX_REC)?.to_vec();
                Ok(PageOp::RemoveRecord {
                    pos,
                    old_bytes,
                    old_ghost,
                })
            }
            Self::TAG_REPLACE => {
                let pos = get_varint_u16(dec)?;
                let key = dec.get_len_bytes(MAX_REC)?.to_vec();
                let (prefix, suffix) = (get_varint_u16(dec)?, get_varint_u16(dec)?);
                let old = dec.get_len_bytes(MAX_REC)?.to_vec();
                let new = dec.get_len_bytes(MAX_REC)?.to_vec();
                // Both whole records must fit a slot.
                let whole = usize::from(prefix) + usize::from(suffix) + old.len().max(new.len());
                if whole > MAX_REC {
                    return Err(DecodeError::LengthOutOfRange {
                        got: whole,
                        max: MAX_REC,
                    });
                }
                Ok(PageOp::ReplaceRecord {
                    pos,
                    key,
                    prefix,
                    suffix,
                    old,
                    new,
                })
            }
            Self::TAG_GHOST => {
                let pos = get_varint_u16(dec)?;
                let old = dec.get_u8()? != 0;
                let new = dec.get_u8()? != 0;
                let key = dec.get_len_bytes(MAX_REC)?.to_vec();
                Ok(PageOp::SetGhost { pos, key, old, new })
            }
            Self::TAG_STRUCTURE => {
                let old = get_structure(dec)?;
                let new = get_structure(dec)?;
                Ok(PageOp::WriteStructure { old, new })
            }
            Self::TAG_INSERT_RANGE => {
                let (pos, records) = Self::decode_range(dec)?;
                Ok(PageOp::InsertRange { pos, records })
            }
            Self::TAG_REMOVE_RANGE => {
                let (pos, records) = Self::decode_range(dec)?;
                Ok(PageOp::RemoveRange { pos, records })
            }
            tag => Err(DecodeError::InvalidTag {
                tag,
                what: "PageOp",
            }),
        }
    }
}

/// The body of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// A system transaction begins. `system` marks the paper's system
    /// transactions (Figure 5): contents-neutral structural updates whose
    /// commit does not force the log. A user transaction logs no begin
    /// record, so a chain without one is a user transaction's.
    TxBegin {
        /// True for a system transaction.
        system: bool,
    },
    /// Transaction commit.
    TxCommit {
        /// True for a system transaction (commit record not forced).
        system: bool,
    },
    /// Transaction end after complete rollback.
    TxAbort,
    /// A physiological update to one data page.
    Update {
        /// The operation; carries redo and undo information.
        op: PageOp,
    },
    /// An update that also commits its transaction: the last record of a
    /// single-update transaction, which logs no commit record. Redone like
    /// an [`Update`](LogPayload::Update), never undone.
    UpdateCommit {
        /// The operation.
        op: PageOp,
    },
    /// Compensation log record written during rollback: redo-only.
    Clr {
        /// The compensation operation (already inverted).
        op: PageOp,
        /// Next record to undo for this transaction (skips the undone one).
        undo_next: Lsn,
    },
    /// Page formatted after allocation: carries the full initial contents,
    /// so that "the log record containing formatting information for the
    /// initial page image may substitute for an explicit backup copy"
    /// (Section 5.2.1).
    PageFormat {
        /// The initial page image.
        image: CompressedPageImage,
    },
    /// An explicit full-page image taken during normal processing — an
    /// in-log backup copy.
    FullPageImage {
        /// The captured image.
        image: CompressedPageImage,
    },
    /// The paper's new record: an update of the page recovery index,
    /// written after a completed page write (Figure 11). Subsumes
    /// "logging completed writes" (Sections 5.1.2, 5.2.4).
    PriUpdate {
        /// PageLSN the data page carried when it was written.
        page_lsn: Lsn,
        /// Most recent backup location for the page.
        backup: BackupRef,
    },
    /// A backup copy of the page was taken (explicit copy, page move, or
    /// in-log image); updates the PRI's backup information.
    BackupTaken {
        /// Where the backup lives.
        backup: BackupRef,
        /// PageLSN of the page at backup time.
        page_lsn: Lsn,
    },
    /// Fuzzy checkpoint begin: active transactions and dirty pages.
    CheckpointBegin {
        /// Active transactions and their most recent log record.
        active_txns: Vec<(TxId, Lsn)>,
        /// Dirty pages and their recovery LSN (first dirtying record).
        dirty_pages: Vec<(PageId, Lsn)>,
    },
    /// Checkpoint end.
    CheckpointEnd,
}

impl LogPayload {
    const TAG_TX_BEGIN: u8 = 0;
    const TAG_TX_COMMIT: u8 = 1;
    const TAG_TX_ABORT: u8 = 2;
    const TAG_UPDATE: u8 = 3;
    const TAG_CLR: u8 = 4;
    const TAG_PAGE_FORMAT: u8 = 5;
    const TAG_FULL_IMAGE: u8 = 6;
    const TAG_PRI_UPDATE: u8 = 7;
    const TAG_BACKUP_TAKEN: u8 = 8;
    const TAG_CKPT_BEGIN: u8 = 9;
    const TAG_CKPT_END: u8 = 10;
    const TAG_UPDATE_COMMIT: u8 = 11;

    /// True for the records that form a page's **content chain** — the
    /// ones whose redo (or inverse) reconstructs page state: updates,
    /// CLRs, format records, and full-page images. These are what every
    /// recovery path replays (Figure 10, Section 5.1.4).
    #[must_use]
    pub fn is_page_content(&self) -> bool {
        matches!(
            self,
            LogPayload::Update { .. }
                | LogPayload::UpdateCommit { .. }
                | LogPayload::Clr { .. }
                | LogPayload::PageFormat { .. }
                | LogPayload::FullPageImage { .. }
        )
    }

    /// True for every record recovery could need again once the WAL is
    /// truncated: the content chain plus the page-recovery-index
    /// maintenance trail (PriUpdate, BackupTaken). This is the
    /// archiver's keep-filter; transaction-control and checkpoint
    /// records stay WAL-only by the safe-truncation rule.
    #[must_use]
    pub fn is_page_relevant(&self) -> bool {
        self.is_page_content()
            || matches!(
                self,
                LogPayload::PriUpdate { .. } | LogPayload::BackupTaken { .. }
            )
    }

    /// Short name for diagnostics and experiment tables. A
    /// self-committing update is an `"update"` too.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogPayload::TxBegin { .. } => "tx-begin",
            LogPayload::TxCommit { .. } => "tx-commit",
            LogPayload::TxAbort => "tx-abort",
            LogPayload::Update { .. } | LogPayload::UpdateCommit { .. } => "update",
            LogPayload::Clr { .. } => "clr",
            LogPayload::PageFormat { .. } => "page-format",
            LogPayload::FullPageImage { .. } => "full-page-image",
            LogPayload::PriUpdate { .. } => "pri-update",
            LogPayload::BackupTaken { .. } => "backup-taken",
            LogPayload::CheckpointBegin { .. } => "checkpoint-begin",
            LogPayload::CheckpointEnd => "checkpoint-end",
        }
    }

    fn encode(&self, enc: &mut Encoder) {
        match self {
            LogPayload::TxBegin { system } => {
                enc.put_u8(Self::TAG_TX_BEGIN);
                enc.put_u8(u8::from(*system));
            }
            LogPayload::TxCommit { system } => {
                enc.put_u8(Self::TAG_TX_COMMIT);
                enc.put_u8(u8::from(*system));
            }
            LogPayload::TxAbort => enc.put_u8(Self::TAG_TX_ABORT),
            LogPayload::Update { op } => {
                enc.put_u8(Self::TAG_UPDATE);
                op.encode(enc);
            }
            LogPayload::UpdateCommit { op } => {
                enc.put_u8(Self::TAG_UPDATE_COMMIT);
                op.encode(enc);
            }
            LogPayload::Clr { op, undo_next } => {
                enc.put_u8(Self::TAG_CLR);
                enc.put_varint(undo_next.0);
                op.encode(enc);
            }
            LogPayload::PageFormat { image } => {
                enc.put_u8(Self::TAG_PAGE_FORMAT);
                image.encode(enc);
            }
            LogPayload::FullPageImage { image } => {
                enc.put_u8(Self::TAG_FULL_IMAGE);
                image.encode(enc);
            }
            LogPayload::PriUpdate { page_lsn, backup } => {
                enc.put_u8(Self::TAG_PRI_UPDATE);
                enc.put_varint(page_lsn.0);
                backup.encode(enc);
            }
            LogPayload::BackupTaken { backup, page_lsn } => {
                enc.put_u8(Self::TAG_BACKUP_TAKEN);
                enc.put_varint(page_lsn.0);
                backup.encode(enc);
            }
            LogPayload::CheckpointBegin {
                active_txns,
                dirty_pages,
            } => {
                enc.put_u8(Self::TAG_CKPT_BEGIN);
                enc.put_varint(active_txns.len() as u64);
                for (tx, lsn) in active_txns {
                    enc.put_varint(tx.0);
                    enc.put_varint(lsn.0);
                }
                enc.put_varint(dirty_pages.len() as u64);
                for (page, lsn) in dirty_pages {
                    enc.put_varint(page.0);
                    enc.put_varint(lsn.0);
                }
            }
            LogPayload::CheckpointEnd => enc.put_u8(Self::TAG_CKPT_END),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            Self::TAG_TX_BEGIN => Ok(LogPayload::TxBegin {
                system: dec.get_u8()? != 0,
            }),
            Self::TAG_TX_COMMIT => Ok(LogPayload::TxCommit {
                system: dec.get_u8()? != 0,
            }),
            Self::TAG_TX_ABORT => Ok(LogPayload::TxAbort),
            Self::TAG_UPDATE => Ok(LogPayload::Update {
                op: PageOp::decode(dec)?,
            }),
            Self::TAG_UPDATE_COMMIT => Ok(LogPayload::UpdateCommit {
                op: PageOp::decode(dec)?,
            }),
            Self::TAG_CLR => {
                let undo_next = Lsn(dec.get_varint()?);
                let op = PageOp::decode(dec)?;
                Ok(LogPayload::Clr { op, undo_next })
            }
            Self::TAG_PAGE_FORMAT => Ok(LogPayload::PageFormat {
                image: CompressedPageImage::decode(dec)?,
            }),
            Self::TAG_FULL_IMAGE => Ok(LogPayload::FullPageImage {
                image: CompressedPageImage::decode(dec)?,
            }),
            Self::TAG_PRI_UPDATE => {
                let page_lsn = Lsn(dec.get_varint()?);
                let backup = BackupRef::decode(dec)?;
                Ok(LogPayload::PriUpdate { page_lsn, backup })
            }
            Self::TAG_BACKUP_TAKEN => {
                let page_lsn = Lsn(dec.get_varint()?);
                let backup = BackupRef::decode(dec)?;
                Ok(LogPayload::BackupTaken { backup, page_lsn })
            }
            Self::TAG_CKPT_BEGIN => {
                // Both tables hold two varints (one byte at the least)
                // per entry.
                let n_tx = get_count(dec, 2)?;
                let mut active_txns = Vec::with_capacity(n_tx);
                for _ in 0..n_tx {
                    active_txns.push((TxId(dec.get_varint()?), Lsn(dec.get_varint()?)));
                }
                let n_dp = get_count(dec, 2)?;
                let mut dirty_pages = Vec::with_capacity(n_dp);
                for _ in 0..n_dp {
                    dirty_pages.push((PageId(dec.get_varint()?), Lsn(dec.get_varint()?)));
                }
                Ok(LogPayload::CheckpointBegin {
                    active_txns,
                    dirty_pages,
                })
            }
            Self::TAG_CKPT_END => Ok(LogPayload::CheckpointEnd),
            tag => Err(DecodeError::InvalidTag {
                tag,
                what: "LogPayload",
            }),
        }
    }
}

/// A complete log record: header plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Owning transaction, or [`TxId::NONE`].
    pub tx_id: TxId,
    /// Per-transaction chain: the transaction's previous record.
    pub prev_tx_lsn: Lsn,
    /// The page this record concerns, or [`PageId::INVALID`].
    pub page_id: PageId,
    /// Per-page chain: the page's previous record (its PageLSN before
    /// this update was applied).
    pub prev_page_lsn: Lsn,
    /// The record body.
    pub payload: LogPayload,
}

impl LogRecord {
    /// Bytes of framing before the body: the `u32` body length and the
    /// `u32` checksum.
    pub const FRAME_BYTES: usize = 8;

    /// Total encoded length of the record whose encoding starts with
    /// `length_prefix` (its first four bytes). The framing rule lives
    /// here, next to `encode`/`decode`, so the log's probe and scan
    /// paths never re-derive it.
    #[must_use]
    pub fn framed_len(length_prefix: [u8; 4]) -> usize {
        Self::FRAME_BYTES + u32::from_le_bytes(length_prefix) as usize
    }

    /// Encodes the record, including length prefix and checksum.
    ///
    /// Single allocation: the header is emitted as placeholders, the
    /// body appended behind it, and length + checksum patched in place —
    /// this runs on every log append, so the extra buffer + copy of the
    /// obvious two-pass encoding is worth avoiding.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(128);
        enc.put_u32(0); // body length, patched below
        enc.put_u32(0); // crc32c, patched below
        enc.put_varint(self.tx_id.0);
        enc.put_varint(self.prev_tx_lsn.0);
        // `PageId::INVALID` (u64::MAX) wraps to the one-byte 0.
        enc.put_varint(self.page_id.0.wrapping_add(1));
        enc.put_varint(self.prev_page_lsn.0);
        self.payload.encode(&mut enc);
        let mut out = enc.finish();
        let body_len = (out.len() - 8) as u32;
        let crc = spf_util::crc32c(&out[8..]);
        out[..4].copy_from_slice(&body_len.to_le_bytes());
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes one record from the start of `buf`, verifying its checksum
    /// and that the payload ends where the body does. Returns the record
    /// and its total encoded length.
    pub fn decode(buf: &[u8]) -> Result<(LogRecord, usize), DecodeError> {
        let mut dec = Decoder::new(buf);
        let body_len = dec.get_u32()? as usize;
        let crc = dec.get_u32()?;
        let body = dec.get_bytes(body_len)?;
        if spf_util::crc32c(body) != crc {
            return Err(DecodeError::InvalidTag {
                tag: 0,
                what: "LogRecord checksum",
            });
        }
        let mut body_dec = Decoder::new(body);
        let tx_id = TxId(body_dec.get_varint()?);
        let prev_tx_lsn = Lsn(body_dec.get_varint()?);
        let page_id = PageId(body_dec.get_varint()?.wrapping_sub(1));
        let prev_page_lsn = Lsn(body_dec.get_varint()?);
        let payload = LogPayload::decode(&mut body_dec)?;
        if !body_dec.is_exhausted() {
            return Err(DecodeError::LengthOutOfRange {
                got: body_len,
                max: body_dec.position(),
            });
        }
        Ok((
            LogRecord {
                tx_id,
                prev_tx_lsn,
                page_id,
                prev_page_lsn,
                payload,
            },
            Self::FRAME_BYTES + body_len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{PageType, DEFAULT_PAGE_SIZE};

    fn round_trip(rec: &LogRecord) {
        let bytes = rec.encode();
        let (decoded, len) = LogRecord::decode(&bytes).expect("decode");
        assert_eq!(&decoded, rec);
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn record_round_trips_all_payloads() {
        let page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(3), PageType::BTreeLeaf);
        let image = CompressedPageImage::capture(&page);
        let payloads = vec![
            LogPayload::TxBegin { system: false },
            LogPayload::TxBegin { system: true },
            LogPayload::TxCommit { system: true },
            LogPayload::TxAbort,
            LogPayload::Update {
                op: PageOp::InsertRecord {
                    pos: 4,
                    bytes: b"hello".to_vec(),
                    ghost: false,
                },
            },
            LogPayload::Update {
                op: PageOp::replace(2, b"k2".to_vec(), b"k2=old", b"k2=new"),
            },
            LogPayload::UpdateCommit {
                op: PageOp::replace(2, b"k2".to_vec(), b"k2=old", b"k2=new"),
            },
            LogPayload::Update {
                op: PageOp::SetGhost {
                    pos: 9,
                    key: b"k9".to_vec(),
                    old: false,
                    new: true,
                },
            },
            LogPayload::Update {
                op: PageOp::WriteStructure {
                    old: vec![0; 32],
                    new: vec![1; 32],
                },
            },
            LogPayload::Clr {
                op: PageOp::RemoveRecord {
                    pos: 1,
                    old_bytes: b"x".to_vec(),
                    old_ghost: true,
                },
                undo_next: Lsn(42),
            },
            LogPayload::PageFormat {
                image: image.clone(),
            },
            LogPayload::FullPageImage { image },
            LogPayload::PriUpdate {
                page_lsn: Lsn(77),
                backup: BackupRef::BackupPage(PageId(5)),
            },
            LogPayload::PriUpdate {
                page_lsn: Lsn(78),
                backup: BackupRef::LogImage(Lsn(12)),
            },
            LogPayload::BackupTaken {
                backup: BackupRef::FormatRecord(Lsn(8)),
                page_lsn: Lsn(9),
            },
            LogPayload::BackupTaken {
                backup: BackupRef::FullBackup {
                    first_slot: 3,
                    pages: 1000,
                },
                page_lsn: Lsn(11),
            },
            LogPayload::CheckpointBegin {
                active_txns: vec![(TxId(1), Lsn(10)), (TxId(2), Lsn(20))],
                dirty_pages: vec![(PageId(3), Lsn(5))],
            },
            LogPayload::CheckpointEnd,
        ];
        for payload in payloads {
            round_trip(&LogRecord {
                tx_id: TxId(9),
                prev_tx_lsn: Lsn(100),
                page_id: PageId(55),
                prev_page_lsn: Lsn(90),
                payload,
            });
        }
        // The header's extremes: no page, and every field at full width.
        for (page_id, wide) in [(PageId::INVALID, 0), (PageId(u64::MAX - 1), u64::MAX)] {
            round_trip(&LogRecord {
                tx_id: TxId(wide),
                prev_tx_lsn: Lsn(wide),
                page_id,
                prev_page_lsn: Lsn(wide),
                payload: LogPayload::CheckpointEnd,
            });
        }
    }

    /// The one record a `put_auto` writes — a self-committing replace of
    /// a 115-byte leaf record whose generation digit changes, first in its
    /// transaction's chain — at a tx id and LSNs a long run reaches: the
    /// format must not grow back. A multi-update transaction's commit
    /// record stays small too.
    #[test]
    fn put_auto_records_stay_within_their_byte_budget() {
        let (tx, lsn) = (TxId(600_000), (1u64 << 27) - 4096);
        let key = b"key-00000012345".to_vec();
        let old = [&key[..], &[b'v'; 99], b"7"].concat();
        let new = [&key[..], &[b'v'; 99], b"8"].concat();
        assert_eq!(old.len(), 115);
        let at = |payload, prev_tx_lsn, page_id, prev_page_lsn| {
            LogRecord {
                tx_id: tx,
                prev_tx_lsn,
                page_id,
                prev_page_lsn,
                payload,
            }
            .encode()
            .len()
        };
        let update = at(
            LogPayload::UpdateCommit {
                op: PageOp::replace(60, key, &old, &new),
            },
            Lsn::NULL,
            PageId(5_000),
            Lsn(lsn - 100_000),
        );
        let commit = at(
            LogPayload::TxCommit { system: false },
            Lsn(lsn + 50),
            PageId::INVALID,
            Lsn::NULL,
        );
        assert!(update <= 43, "update: {update} bytes");
        assert!(commit <= 20, "commit: {commit} bytes");
    }

    #[test]
    fn corrupted_record_fails_checksum() {
        let rec = LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(2),
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::TxBegin { system: false },
        };
        let mut bytes = rec.encode();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        assert!(LogRecord::decode(&bytes).is_err());
    }

    #[test]
    fn page_op_redo_and_invert_are_inverse() {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            sp.push(b"a", false).unwrap();
            sp.push(b"c", false).unwrap();
        }
        let before = page.clone();

        let ops = vec![
            PageOp::InsertRecord {
                pos: 1,
                bytes: b"b".to_vec(),
                ghost: false,
            },
            PageOp::replace(0, b"a".to_vec(), b"a", b"A!"),
            PageOp::SetGhost {
                pos: 1,
                key: b"B".to_vec(),
                old: false,
                new: true,
            },
            PageOp::WriteStructure {
                old: vec![0; 32],
                new: (0..32).collect(),
            },
        ];
        for op in ops {
            let mut p = before.clone();
            op.redo(&mut p).unwrap();
            assert_ne!(
                p.as_bytes(),
                before.as_bytes(),
                "op must change the page: {op:?}"
            );
            op.invert().redo(&mut p).unwrap();
            // Structural bytes may differ after insert+remove (heap_top moves,
            // fragmentation) but logical contents must match.
            let a = SlottedPage::new(&mut p);
            let got: Vec<(Vec<u8>, bool)> = a.iter().map(|(_, r, g)| (r.to_vec(), g)).collect();
            let mut b = before.clone();
            let bsp = SlottedPage::new(&mut b);
            let want: Vec<(Vec<u8>, bool)> = bsp.iter().map(|(_, r, g)| (r.to_vec(), g)).collect();
            assert_eq!(got, want, "invert must restore logical contents: {op:?}");
            assert_eq!(p.structure_area(), before.structure_area());
        }
    }

    #[test]
    fn compressed_image_round_trip_and_compression() {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(44), PageType::BTreeLeaf);
        page.set_page_lsn(123);
        {
            let mut sp = SlottedPage::new(&mut page);
            for i in 0..20 {
                sp.push(format!("row-{i:03}").as_bytes(), false).unwrap();
            }
        }
        page.finalize_checksum();
        let image = CompressedPageImage::capture(&page);
        assert!(
            image.encoded_len() < DEFAULT_PAGE_SIZE / 4,
            "mostly-empty page must compress well, got {}",
            image.encoded_len()
        );
        let restored = image.restore();
        assert_eq!(
            restored.as_bytes(),
            page.as_bytes(),
            "restore must be byte-exact"
        );
    }

    #[test]
    fn compressed_image_of_full_page() {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(44), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            while sp.push(&[0xCD; 64], false).is_ok() {}
        }
        page.finalize_checksum();
        let image = CompressedPageImage::capture(&page);
        assert_eq!(image.restore().as_bytes(), page.as_bytes());
    }

    fn bytes(max: usize) -> proptest::collection::VecStrategy<proptest::Any<u8>> {
        proptest::collection::vec(proptest::any::<u8>(), 0..max)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `old = head + a + tail` becomes `new = head + b + tail`, where
        /// `shape` makes the records equal (b = a), growing (a empty),
        /// shrinking (b empty), fully different (no head or tail) or
        /// random. On a page holding `old`, redo yields `new` and the
        /// inverse's redo `old` again; the op survives encode and decode.
        #[test]
        fn prop_replace_delta_redo_invert_and_round_trip(
            shape in 0u8..5,
            head in bytes(80),
            tail in bytes(80),
            a in bytes(40),
            b in bytes(40),
        ) {
            let (head, tail, b) = match shape {
                0 => (head, tail, a.clone()),
                3 => (Vec::new(), Vec::new(), b),
                _ => (head, tail, b),
            };
            let (a, b) = match shape {
                1 => (Vec::new(), b),
                2 => (a, Vec::new()),
                _ => (a, b),
            };
            let old = [&head[..], &a, &tail].concat();
            let new = [&head[..], &b, &tail].concat();
            let op = PageOp::replace(1, b"key".to_vec(), &old, &new);
            // Never more than the middle the records were built to differ in.
            if let PageOp::ReplaceRecord { prefix, suffix, old: mid, .. } = &op {
                proptest::prop_assert!(mid.len() <= a.len());
                proptest::prop_assert_eq!(usize::from(*prefix) + mid.len() + usize::from(*suffix), old.len());
            }
            proptest::prop_assert_eq!(op.replaced(&old), Some(new.clone()));

            let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::BTreeLeaf);
            let mut sp = SlottedPage::new(&mut page);
            for rec in [&b"left"[..], &old, b"right"] {
                sp.push(rec, false).unwrap();
            }
            op.redo(&mut page).unwrap();
            let redone = SlottedPage::new(&mut page).record(SlotId(1)).0.to_vec();
            proptest::prop_assert_eq!(redone, new);
            op.invert().redo(&mut page).unwrap();
            let sp = SlottedPage::new(&mut page);
            proptest::prop_assert_eq!(sp.record(SlotId(1)).0, &old[..]);
            proptest::prop_assert_eq!(sp.record(SlotId(2)).0, b"right");

            let record = LogRecord {
                tx_id: TxId(7),
                prev_tx_lsn: Lsn(8),
                page_id: PageId(1),
                prev_page_lsn: Lsn(16),
                payload: LogPayload::Update { op },
            };
            let encoded = record.encode();
            proptest::prop_assert_eq!(LogRecord::decode(&encoded).map(|(r, _)| r), Ok(record));
        }
    }

    #[test]
    fn payload_kind_names_are_stable() {
        assert_eq!(LogPayload::TxAbort.kind_name(), "tx-abort");
        let op = PageOp::SetGhost {
            pos: 0,
            key: b"k".to_vec(),
            old: false,
            new: true,
        };
        assert_eq!(LogPayload::UpdateCommit { op }.kind_name(), "update");
        assert_eq!(
            LogPayload::PriUpdate {
                page_lsn: Lsn(1),
                backup: BackupRef::None
            }
            .kind_name(),
            "pri-update"
        );
    }
}
