//! The immutable archive run: log records **partitioned and sorted by
//! page**, a per-page offset index, and a CRC-32C footer.
//!
//! A run covers one contiguous window `[window_start, window_end)` of
//! virtual WAL offsets. Within the run, records are ordered by
//! `(page, LSN)`, so one page's history is a single contiguous byte
//! range — found by one index lookup and read with one sequential scan,
//! in replay (oldest-first) order. That is the whole point: the live
//! WAL serves the same history as one random I/O per backward chain hop
//! (Figure 10's "dozens of I/Os"); the run serves it as a seek plus a
//! sequential read.
//!
//! ## Serialized layout
//!
//! ```text
//! u32  magic "SPFA"
//! u64  run id
//! u64  window_start          (virtual WAL offset, inclusive)
//! u64  window_end            (exclusive)
//! u32  record count
//! u32  body length in bytes
//! body: per record — u64 original LSN, then the record's own
//!       length-prefixed, checksummed WAL encoding
//! u32  index entry count
//! per entry: u64 page key, u32 body offset, u32 record count, u32 bytes
//! u32  CRC-32C over everything above
//! ```
//!
//! Records keep their WAL encoding (each already carries a length prefix
//! and its own checksum); the footer CRC covers the run end to end, so a
//! run read back from storage is verified once, wholesale.

use spf_storage::PageId;
use spf_util::codec::{Decoder, Encoder};
use spf_util::crc32c;
use spf_wal::{LogRecord, Lsn};

use crate::ArchiveError;

const MAGIC: u32 = 0x5350_4641; // "SPFA"

/// Serialized bytes of one index entry.
const INDEX_ENTRY_BYTES: usize = 20;

/// The fewest body bytes one record can take: its original LSN plus the
/// WAL frame. Bounds how many records a byte range can claim.
const MIN_RECORD_BYTES: usize = 8 + LogRecord::FRAME_BYTES;

/// One per-page slice of a run's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Page key (`PageId.0`; `u64::MAX` groups the page-less records,
    /// e.g. full-database `BackupTaken`, at the end of the run).
    page: u64,
    /// Byte offset of the slice within the body.
    offset: u32,
    /// Records in the slice.
    count: u32,
    /// Slice length in bytes.
    len: u32,
}

/// An immutable, indexed, checksummed archive run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveRun {
    id: u64,
    window_start: Lsn,
    window_end: Lsn,
    record_count: u32,
    body: Vec<u8>,
    index: Vec<IndexEntry>,
    crc: u32,
}

/// Accumulates `(LSN, record)` pairs and emits a sorted, indexed run.
#[derive(Debug, Default)]
pub struct RunBuilder {
    records: Vec<(Lsn, LogRecord)>,
}

impl RunBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record (any order; `finish` sorts).
    pub fn push(&mut self, lsn: Lsn, record: LogRecord) {
        self.records.push((lsn, record));
    }

    /// Records accumulated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sorts by `(page, LSN)` and builds the run covering
    /// `[window_start, window_end)`.
    #[must_use]
    pub fn finish(mut self, id: u64, window_start: Lsn, window_end: Lsn) -> ArchiveRun {
        self.records
            .sort_by_key(|(lsn, record)| (record.page_id.0, *lsn));

        let mut body = Encoder::with_capacity(self.records.len() * 64);
        let mut index: Vec<IndexEntry> = Vec::new();
        for (lsn, record) in &self.records {
            let offset = body.len() as u32;
            body.put_u64(lsn.0);
            body.put_bytes(&record.encode());
            let len = body.len() as u32 - offset;
            match index.last_mut() {
                Some(e) if e.page == record.page_id.0 => {
                    e.count += 1;
                    e.len += len;
                }
                _ => index.push(IndexEntry {
                    page: record.page_id.0,
                    offset,
                    count: 1,
                    len,
                }),
            }
        }
        let mut run = ArchiveRun {
            id,
            window_start,
            window_end,
            record_count: self.records.len() as u32,
            body: body.finish(),
            index,
            crc: 0,
        };
        run.crc = crc32c(run.preamble().as_slice());
        run
    }
}

impl ArchiveRun {
    /// Run identifier (unique within a store).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The WAL window `[start, end)` this run covers.
    #[must_use]
    pub fn window(&self) -> (Lsn, Lsn) {
        (self.window_start, self.window_end)
    }

    /// Records in the run.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        u64::from(self.record_count)
    }

    /// Distinct pages indexed.
    #[must_use]
    pub fn page_count(&self) -> u64 {
        self.index.len() as u64
    }

    /// Serialized size in bytes — what storing the run costs.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        // header 36 + body + index count 4 + entries + footer 4
        36 + self.body.len() + 4 + self.index.len() * INDEX_ENTRY_BYTES + 4
    }

    /// Everything but the footer, in serialized form (the CRC input).
    fn preamble(&self) -> Encoder {
        let mut enc = Encoder::with_capacity(self.encoded_len());
        enc.put_u32(MAGIC);
        enc.put_u64(self.id);
        enc.put_u64(self.window_start.0);
        enc.put_u64(self.window_end.0);
        enc.put_u32(self.record_count);
        enc.put_u32(self.body.len() as u32);
        enc.put_bytes(&self.body);
        enc.put_u32(self.index.len() as u32);
        for e in &self.index {
            enc.put_u64(e.page);
            enc.put_u32(e.offset);
            enc.put_u32(e.count);
            enc.put_u32(e.len);
        }
        enc
    }

    /// Serializes the run, footer CRC included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = self.preamble();
        enc.put_u32(self.crc);
        enc.finish()
    }

    /// Parses and CRC-verifies a serialized run.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArchiveError> {
        let corrupt = |detail: String| ArchiveError::Corrupt {
            run: u64::MAX,
            detail,
        };
        if bytes.len() < 8 {
            return Err(corrupt("short run".to_string()));
        }
        let (payload, footer) = bytes.split_at(bytes.len() - 4);
        let mut dec = Decoder::new(footer);
        let crc = dec.get_u32().map_err(|e| corrupt(e.to_string()))?;
        if crc32c(payload) != crc {
            return Err(corrupt("footer CRC mismatch".to_string()));
        }
        let mut dec = Decoder::new(payload);
        let err = |e: spf_util::codec::DecodeError| corrupt(e.to_string());
        if dec.get_u32().map_err(err)? != MAGIC {
            return Err(corrupt("bad magic".to_string()));
        }
        let id = dec.get_u64().map_err(err)?;
        let window_start = Lsn(dec.get_u64().map_err(err)?);
        let window_end = Lsn(dec.get_u64().map_err(err)?);
        let record_count = dec.get_u32().map_err(err)?;
        let body_len = dec.get_u32().map_err(err)? as usize;
        let body = dec.get_bytes(body_len).map_err(err)?.to_vec();
        // Counts are hostile: bounded by the bytes that could hold them
        // before anything is reserved.
        let index_count = dec.get_u32().map_err(err)? as usize;
        if index_count > dec.remaining() / INDEX_ENTRY_BYTES {
            return Err(corrupt(format!(
                "index claims {index_count} entries in {} bytes",
                dec.remaining()
            )));
        }
        let mut index = Vec::with_capacity(index_count);
        for _ in 0..index_count {
            index.push(IndexEntry {
                page: dec.get_u64().map_err(err)?,
                offset: dec.get_u32().map_err(err)?,
                count: dec.get_u32().map_err(err)?,
                len: dec.get_u32().map_err(err)?,
            });
        }
        // The slices must tile the body in page order, as `finish` lays
        // them out: then no record is decoded twice, and every lookup's
        // binary search is sound.
        let (mut next, mut records) = (0u64, 0u64);
        for (i, e) in index.iter().enumerate() {
            if u64::from(e.offset) != next || (i > 0 && index[i - 1].page >= e.page) {
                return Err(corrupt(format!("index entry {i} is out of order")));
            }
            next += u64::from(e.len);
            records += u64::from(e.count);
        }
        if next != body.len() as u64 || records != u64::from(record_count) {
            return Err(corrupt("index does not tile the body".to_string()));
        }
        Ok(Self {
            id,
            window_start,
            window_end,
            record_count,
            body,
            index,
            crc,
        })
    }

    /// Re-verifies the footer CRC against the current contents.
    pub fn verify(&self) -> Result<(), ArchiveError> {
        if crc32c(self.preamble().as_slice()) == self.crc {
            Ok(())
        } else {
            Err(ArchiveError::Corrupt {
                run: self.id,
                detail: "footer CRC mismatch".to_string(),
            })
        }
    }

    fn decode_slice(&self, entry: &IndexEntry) -> Result<Vec<(Lsn, LogRecord)>, ArchiveError> {
        let start = entry.offset as usize;
        let end = start + entry.len as usize;
        if end > self.body.len() {
            return Err(ArchiveError::Corrupt {
                run: self.id,
                detail: "index slice out of bounds".to_string(),
            });
        }
        let mut dec = Decoder::new(&self.body[start..end]);
        let mut out =
            Vec::with_capacity((entry.count as usize).min(entry.len as usize / MIN_RECORD_BYTES));
        for _ in 0..entry.count {
            let lsn = Lsn(dec.get_u64().map_err(|e| ArchiveError::Corrupt {
                run: self.id,
                detail: e.to_string(),
            })?);
            let rest = dec
                .get_bytes(dec.remaining())
                .map_err(|e| ArchiveError::Corrupt {
                    run: self.id,
                    detail: e.to_string(),
                })?;
            let (record, len) = LogRecord::decode(rest).map_err(|e| ArchiveError::Corrupt {
                run: self.id,
                detail: e.to_string(),
            })?;
            dec = Decoder::new(&rest[len..]);
            out.push((lsn, record));
        }
        Ok(out)
    }

    /// The page's slice: number of records and its byte length (0, 0) if
    /// the page is absent. One binary search — the "index probe".
    #[must_use]
    pub fn page_slice_size(&self, page: PageId) -> (u64, usize) {
        match self.index.binary_search_by_key(&page.0, |e| e.page) {
            Ok(i) => (u64::from(self.index[i].count), self.index[i].len as usize),
            Err(_) => (0, 0),
        }
    }

    /// All records for `page`, ascending by LSN (replay order).
    pub fn records_for_page(&self, page: PageId) -> Result<Vec<(Lsn, LogRecord)>, ArchiveError> {
        match self.index.binary_search_by_key(&page.0, |e| e.page) {
            Ok(i) => {
                let entry = self.index[i];
                self.decode_slice(&entry)
            }
            Err(_) => Ok(Vec::new()),
        }
    }

    /// Every record in the run, in `(page, LSN)` order.
    pub fn decode_all(&self) -> Result<Vec<(Lsn, LogRecord)>, ArchiveError> {
        let mut out = Vec::with_capacity(
            (self.record_count as usize).min(self.body.len() / MIN_RECORD_BYTES),
        );
        for entry in &self.index {
            out.extend(self.decode_slice(entry)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_wal::{LogPayload, PageOp, TxId};

    fn rec(page: u64, prev: Lsn) -> LogRecord {
        LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(page),
            prev_page_lsn: prev,
            payload: LogPayload::Update {
                op: PageOp::InsertRecord {
                    pos: 0,
                    bytes: vec![page as u8; 12],
                    ghost: false,
                },
            },
        }
    }

    fn sample_run() -> ArchiveRun {
        let mut b = RunBuilder::new();
        // Interleaved pages, appended in LSN order.
        let mut lsn = 8;
        for i in 0..30u64 {
            let page = i % 3;
            b.push(Lsn(lsn), rec(page, Lsn::NULL));
            lsn += 50;
        }
        b.finish(7, Lsn(8), Lsn(lsn))
    }

    #[test]
    fn run_partitions_and_sorts_by_page() {
        let run = sample_run();
        assert_eq!(run.record_count(), 30);
        assert_eq!(run.page_count(), 3);
        for page in 0..3u64 {
            let records = run.records_for_page(PageId(page)).unwrap();
            assert_eq!(records.len(), 10);
            // Ascending LSNs — replay order, no stack needed.
            for w in records.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            for (_, r) in &records {
                assert_eq!(r.page_id, PageId(page));
            }
        }
        assert!(run.records_for_page(PageId(99)).unwrap().is_empty());
        assert_eq!(run.page_slice_size(PageId(1)).0, 10);
        assert_eq!(run.page_slice_size(PageId(99)), (0, 0));
    }

    #[test]
    fn run_round_trips_through_bytes() {
        let run = sample_run();
        let bytes = run.encode();
        assert_eq!(bytes.len(), run.encoded_len());
        let back = ArchiveRun::from_bytes(&bytes).unwrap();
        assert_eq!(back, run);
        assert_eq!(back.window(), (Lsn(8), Lsn(8 + 30 * 50)));
        back.verify().unwrap();
    }

    #[test]
    fn corruption_is_detected_by_the_footer_crc() {
        let run = sample_run();
        let mut bytes = run.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            ArchiveRun::from_bytes(&bytes),
            Err(ArchiveError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_run_is_valid() {
        let run = RunBuilder::new().finish(1, Lsn(8), Lsn(8));
        assert_eq!(run.record_count(), 0);
        let back = ArchiveRun::from_bytes(&run.encode()).unwrap();
        assert_eq!(back, run);
    }
}
