//! System (restart) recovery: log analysis, redo, undo — ARIES-style,
//! integrated with the page recovery index per the paper's Figure 12 and
//! Sections 5.1.2 / 5.2.5.
//!
//! The Figure 12 action table, implemented verbatim:
//!
//! | Phase | Log record | Action |
//! |---|---|---|
//! | Log analysis | Update a data page | "Add the data page and this LSN to the recovery requirements" (dirty-page table) |
//! | Log analysis | Update an entry in the page recovery index | "Remove the data page from the recovery requirements; add the page in the page recovery index" |
//! | Redo | Update a data page (no matching update in the page recovery index) | "Read the data page and check its PageLSN; if lower than the present LSN, update the data page; otherwise, create a log record for the page recovery index" |
//!
//! The PriUpdate records thus serve double duty (Section 5.2.5): they are
//! the paper's new structure's maintenance trail *and* the classic
//! "logging completed writes" optimization of Section 5.1.2/Figure 4 —
//! pages confirmed written are dropped from the recovery requirements and
//! never read during redo. Experiment E3 measures exactly that saving.
//!
//! Redo applies each record under the §5.1.4 rule in [`crate::replay`]
//! (PageLSN guard, chain-pointer check), the rule single-page repair and
//! media recovery share.
//!
//! # Where analysis starts, and why that is sound
//!
//! The paper keeps the page recovery index in memory because it is small
//! ("about 16 bytes per database page", §5.2.2), and its own PriUpdate
//! records are its maintenance trail (§5.2.5). So restart does not
//! rebuild it from history: every checkpoint saves a
//! [`CheckpointImage`] — the scan point `s`, the checkpoint-begin
//! record's LSN, the next transaction id, the allocator's high-water mark
//! and the whole index — and analysis seeds its state from the last image
//! and scans only the log from `s` on (ARIES analysis from the last
//! checkpoint, Mohan et al., TODS 1992). Restart's cost follows the
//! post-checkpoint tail, not the history.
//!
//! A checkpoint (`Database::checkpoint`) runs in this order:
//!
//! 1. read `s`, the log's reserved end, together with the
//!    active-transaction table, under that table's lock;
//! 2. capture the dirty-page table (after waiting out every page latch
//!    held at that moment), the index, the next transaction id and the
//!    allocator's high-water mark;
//! 3. append the checkpoint-begin record with the two tables;
//! 4. write back every page in its dirty-page table, append the
//!    checkpoint-end record, force the log;
//! 5. hand the log the image ([`spf_wal::LogManager::save_checkpoint_image`]).
//!
//! **Invariant:** every in-memory effect of every record below `s` is in
//! the captured state. Each effect is published so that it holds:
//!
//! * the active-transaction table changes only together with the record
//!   that changes it (a system begin, each logged record, commit, abort,
//!   a self-committing update), under the table's lock — the lock step 1
//!   reads `s` under;
//! * page updates, compensations and page formats are logged under the
//!   page's write latch, which is held until the frame is marked dirty
//!   (formats latch the fresh page *before* logging it), and step 2 waits
//!   out every latch held when it starts;
//! * the index is set before its PriUpdate or BackupTaken record is
//!   appended — and format records set it under the page latch.
//!
//! Effects of records at or above `s` may be captured too. Analysis
//! applies the tail in LSN order on top of the image, and every tail
//! effect overwrites (a backup location, a latest LSN, a table entry), so
//! applying one the image already holds is idempotent. An effect captured
//! whose record a crash then took back is harmless: the image is saved
//! after step 4's force, so such a record can only be a PriUpdate or
//! BackupTaken appended after it, naming a completed (synced) page write
//! or a backup page already written. That backup page is exactly as
//! durable as one a forced BackupTaken record names — the backup device
//! is synced at close, not at every backup or checkpoint — so the image
//! opens no gap the log does not already have.
//!
//! Because step 4 wrote back every page in the checkpoint's dirty-page
//! table before the image exists, no redo below `s` is ever needed:
//! analysis raises every recovery LSN seeded from that table to `s`,
//! and the truncation rule may cut the log at `s` (`Database::
//! safe_truncation_lsn`), so every truncated log has a usable image.
//! Without an image — no checkpoint has finished yet, or a directory from
//! before images existed — the log was never truncated, and the same loop
//! runs from the log's first record with an empty seed.
//!
//! An unknown transaction joins the table at any of its records, as in
//! ARIES.
//!
//! # Undo
//!
//! Losers are rolled back by the transaction manager's own rollback
//! ([`TxnManager::roll_back_loser`]), newest first: one undo path for an
//! abort and for a crash. Each loser's first record tells its kind
//! ([`TxKind::of_first_record`]): a system transaction opens with a begin
//! record, a user transaction logs none. A user transaction's updates
//! are undone where its records are *now*
//! (the [`UndoTarget`] finds them by key — slots shift and splits move
//! records after an update is logged), a system transaction's where they
//! were made.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use spf_buffer::BufferPool;
use spf_storage::PageId;
use spf_txn::{TxKind, TxnManager, UndoTarget};
use spf_util::codec::{DecodeError, Decoder, Encoder};
use spf_util::{crc32c, SimDuration};
use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, TxId};

use crate::pri::{decode_ranges, encode_ranges, PageRecoveryIndex, PriRange};
use crate::replay::{self, Step};

/// What restart recovery did (experiments E3, E9), and what each phase
/// cost in wall-clock time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RestartReport {
    /// LSN analysis started at: the last checkpoint image's scan point,
    /// or the log's first record when there is no image.
    pub analysis_start: Lsn,
    /// Log records scanned during analysis.
    pub analysis_records: u64,
    /// Pages that entered the recovery requirements at least once.
    pub pages_ever_dirty: u64,
    /// Pages removed from the requirements by PriUpdate records —
    /// redo reads *saved* by the paper's mechanism.
    pub writes_confirmed_by_pri: u64,
    /// Pages in the dirty-page table when analysis finished.
    pub dirty_pages_at_end: u64,
    /// Data pages actually read (fetched) during redo.
    pub redo_pages_read: u64,
    /// Redo actions applied.
    pub redo_applied: u64,
    /// Redo actions skipped because the page already reflected them.
    pub redo_skipped: u64,
    /// PriUpdate records generated during redo for writes whose PRI
    /// record was lost in the crash (Figure 12, bottom row).
    pub pri_repairs: u64,
    /// Loser transactions rolled back.
    pub losers: u64,
    /// Loser transactions that were system transactions ("should a system
    /// failure prevent logging the commit log record of a system
    /// transaction, the system transaction is lost").
    pub system_losers: u64,
    /// Compensation records written during undo.
    pub clrs_written: u64,
    /// Highest transaction id seen (the restarted allocator floor).
    pub max_tx_seen: u64,
    /// Simulated time the restart took.
    pub sim_time: SimDuration,
    /// Log bytes streamed from the WAL files before recovery ran (0 when
    /// a live log restarts after a simulated crash).
    pub restored_bytes: u64,
    /// Wall-clock time spent streaming the WAL files into the log.
    pub restore_ns: u64,
    /// Wall-clock time spent in analysis (image decode included).
    pub analysis_ns: u64,
    /// Wall-clock time spent in redo (PRI repairs included).
    pub redo_ns: u64,
    /// Wall-clock time spent in undo.
    pub undo_ns: u64,
}

impl spf_obs::Observable for RestartReport {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.gauge("analysis_start", self.analysis_start.0)
            .counter("analysis_records", self.analysis_records)
            .counter("pages_ever_dirty", self.pages_ever_dirty)
            .counter("writes_confirmed_by_pri", self.writes_confirmed_by_pri)
            .gauge("dirty_pages_at_end", self.dirty_pages_at_end)
            .counter("redo_pages_read", self.redo_pages_read)
            .counter("redo_applied", self.redo_applied)
            .counter("redo_skipped", self.redo_skipped)
            .counter("pri_repairs", self.pri_repairs)
            .counter("losers", self.losers)
            .counter("system_losers", self.system_losers)
            .counter("clrs_written", self.clrs_written)
            .gauge("max_tx_seen", self.max_tx_seen)
            .gauge("sim_time_ns", self.sim_time.as_nanos())
            .counter("restored_bytes", self.restored_bytes)
            .gauge("restore_ns", self.restore_ns)
            .gauge("analysis_ns", self.analysis_ns)
            .gauge("redo_ns", self.redo_ns)
            .gauge("undo_ns", self.undo_ns);
    }
}

/// What a checkpoint saves for restart to start from (see the module
/// docs). Not a log record: the log keeps it as opaque bytes
/// ([`LogManager::save_checkpoint_image`]), so it adds nothing to the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    /// `s`: analysis scans the log from here.
    pub scan_from: Lsn,
    /// The checkpoint-begin record holding the two tables (at or above
    /// `scan_from`).
    pub begin: Lsn,
    /// The next transaction id the engine would have handed out.
    pub next_tx: u64,
    /// The page allocator's high-water mark.
    pub alloc_high_water: u64,
    /// The page recovery index.
    pub pri: Vec<PriRange>,
}

impl CheckpointImage {
    const MAGIC: u32 = 0x5350_4643; // "SPFC"

    /// Serializes the image: magic, four varints, the index
    /// ([`encode_ranges`]), and a CRC-32C over all of it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(32 + self.pri.len() * 12);
        enc.put_u32(Self::MAGIC);
        enc.put_varint(self.scan_from.0);
        enc.put_varint(self.begin.0);
        enc.put_varint(self.next_tx);
        enc.put_varint(self.alloc_high_water);
        encode_ranges(&self.pri, &mut enc);
        let crc = crc32c(enc.as_slice());
        enc.put_u32(crc);
        enc.finish()
    }

    /// Parses and CRC-verifies an image. The bytes come from a file a
    /// crash left behind, so they are hostile: `Err` for anything that
    /// is not an image this engine wrote, never a panic, and never a
    /// reservation larger than the bytes could encode.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 8 {
            return Err("checkpoint image too short".into());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        if crc32c(body) != u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) {
            return Err("checkpoint image checksum mismatch".into());
        }
        let mut dec = Decoder::new(body);
        let mut take = || -> Result<Self, DecodeError> {
            let magic = dec.get_u32()?;
            if magic != Self::MAGIC {
                return Err(DecodeError::InvalidTag {
                    tag: (magic & 0xFF) as u8,
                    what: "checkpoint image magic",
                });
            }
            Ok(Self {
                scan_from: Lsn(dec.get_varint()?),
                begin: Lsn(dec.get_varint()?),
                next_tx: dec.get_varint()?,
                alloc_high_water: dec.get_varint()?,
                pri: decode_ranges(&mut dec)?,
            })
        };
        let image = take().map_err(|e| format!("checkpoint image decode failed: {e}"))?;
        if !dec.is_exhausted() {
            return Err(format!(
                "checkpoint image has {} trailing bytes",
                dec.remaining()
            ));
        }
        if image.begin < image.scan_from {
            return Err(format!(
                "checkpoint image begins at {} below its scan point {}",
                image.begin, image.scan_from
            ));
        }
        Ok(image)
    }
}

/// One log record's page-recovery-index effects (Figure 12's PRI arms).
/// Each overwrites, so applying one the image already holds is
/// idempotent.
fn apply_pri_effect(
    pri: &PageRecoveryIndex,
    note_allocated: &dyn Fn(PageId),
    lsn: Lsn,
    record: &LogRecord,
) {
    match &record.payload {
        LogPayload::PageFormat { .. } => {
            pri.set_backup(record.page_id, spf_wal::BackupRef::FormatRecord(lsn), lsn);
            note_allocated(record.page_id);
        }
        LogPayload::FullPageImage { .. } => {
            pri.set_backup(record.page_id, spf_wal::BackupRef::LogImage(lsn), lsn);
        }
        LogPayload::BackupTaken { backup, page_lsn } => {
            if let spf_wal::BackupRef::FullBackup { pages, .. } = backup {
                pri.set_backup_range(PageId(0), PageId(*pages), *backup, *page_lsn);
            } else {
                pri.set_backup(record.page_id, *backup, *page_lsn);
            }
        }
        LogPayload::PriUpdate { page_lsn, .. } => {
            pri.set_latest_lsn(record.page_id, *page_lsn);
        }
        _ => {}
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Restart-recovery driver.
pub struct SystemRecovery {
    log: LogManager,
    txn: TxnManager,
    pool: BufferPool,
}

impl SystemRecovery {
    /// Creates a driver over `txn`'s log and `pool`. The pool must be
    /// freshly discarded (post-crash) and may have a recoverer
    /// configured — single-page failures *during* restart then recover
    /// inline.
    #[must_use]
    pub fn new(txn: TxnManager, pool: BufferPool) -> Self {
        Self {
            log: txn.log().clone(),
            txn,
            pool,
        }
    }

    /// Runs the three passes. `pri` is rebuilt as a side effect of
    /// analysis — seeded from the log's checkpoint image, when it has
    /// one; `note_allocated` learns the image's high-water mark and every
    /// formatted page after it (rebuilding the allocator's). Before undo
    /// the transaction manager forgets the crashed table and resumes id
    /// allocation past every id the log shows; losers are then rolled
    /// back through `undo`.
    pub fn run(
        &self,
        pri: &Arc<PageRecoveryIndex>,
        note_allocated: &dyn Fn(PageId),
        undo: &dyn UndoTarget,
    ) -> Result<RestartReport, String> {
        let start_time = self.log.clock().now();
        let mut report = RestartReport::default();

        // ------------------------------------------------------------
        // Pass 1: log analysis (Figure 12 rows 1 and 2). Reads only the
        // log, no data pages — "log analysis is very fast because it
        // reads only the log but no data pages" — and only the log
        // since the last checkpoint.
        // ------------------------------------------------------------
        let analysis = Instant::now();
        pri.clear();
        // Each active transaction's most recent record, and its kind when
        // its first record was in the scan.
        let mut att: HashMap<TxId, (Lsn, Option<TxKind>)> = HashMap::new();
        let mut dpt: BTreeMap<PageId, Lsn> = BTreeMap::new();
        let mut ever_dirty: HashSet<PageId> = HashSet::new();
        let scan_from = match self.log.checkpoint_image() {
            Some(bytes) => {
                let image = CheckpointImage::decode(&bytes)?;
                pri.load(&image.pri);
                if image.alloc_high_water > 0 {
                    note_allocated(PageId(image.alloc_high_water - 1));
                }
                report.max_tx_seen = image.next_tx.saturating_sub(1);
                let begin = self
                    .log
                    .read_record(image.begin)
                    .map_err(|e| format!("checkpoint-begin record: {e}"))?;
                let LogPayload::CheckpointBegin {
                    active_txns,
                    dirty_pages,
                } = begin.payload
                else {
                    return Err(format!("no checkpoint-begin record at {}", image.begin));
                };
                for (tx, last) in active_txns {
                    report.max_tx_seen = report.max_tx_seen.max(tx.0);
                    att.insert(tx, (last, None));
                }
                for (page, rec_lsn) in dirty_pages {
                    dpt.insert(page, rec_lsn);
                    ever_dirty.insert(page);
                }
                image.scan_from
            }
            None => {
                let floor = self.log.truncate_point();
                if floor.is_valid() {
                    return Err(format!(
                        "log truncated at {floor} and no checkpoint image to start from"
                    ));
                }
                Lsn::FIRST
            }
        };
        report.analysis_start = scan_from;

        // Streamed in bounded chunks: analysis of an arbitrarily long
        // tail never materializes it as one `Vec`.
        let scanner = self
            .log
            .scan_records(scan_from)
            .map_err(|e| format!("analysis scan failed: {e}"))?;
        for item in scanner {
            let (lsn, record) = item.map_err(|e| format!("analysis scan failed: {e}"))?;
            report.analysis_records += 1;
            report.max_tx_seen = report.max_tx_seen.max(record.tx_id.0);
            apply_pri_effect(pri, note_allocated, lsn, &record);
            let page = record.page_id;
            // A transaction joins the table at its first record in the
            // scan, which tells its kind when it opens the chain.
            let mut note_tx = || {
                if record.tx_id.is_valid() {
                    att.entry(record.tx_id)
                        .or_insert((lsn, TxKind::of_first_record(&record)))
                        .0 = lsn;
                }
            };
            match &record.payload {
                LogPayload::TxBegin { .. } => note_tx(),
                LogPayload::TxCommit { .. } | LogPayload::TxAbort => {
                    att.remove(&record.tx_id);
                }
                LogPayload::UpdateCommit { .. } => {
                    att.remove(&record.tx_id);
                    dpt.entry(page).or_insert(lsn);
                    ever_dirty.insert(page);
                }
                LogPayload::Update { .. } | LogPayload::Clr { .. } => {
                    note_tx();
                    dpt.entry(page).or_insert(lsn);
                    ever_dirty.insert(page);
                }
                LogPayload::PageFormat { .. } => {
                    note_tx();
                    // A format supersedes all earlier redo for the page
                    // ("redo for all prior log records is not required").
                    dpt.insert(page, lsn);
                    ever_dirty.insert(page);
                }
                LogPayload::FullPageImage { .. } => {
                    // An in-log image likewise restarts redo at itself.
                    dpt.insert(page, lsn);
                    ever_dirty.insert(page);
                }
                LogPayload::PriUpdate { page_lsn, .. } => {
                    // Figure 12 row 2: the write completed — drop the page
                    // from the recovery requirements, unless it was
                    // re-dirtied by a record *after* the confirmed LSN.
                    if let Some(&rec_lsn) = dpt.get(&page) {
                        if rec_lsn <= *page_lsn {
                            dpt.remove(&page);
                            report.writes_confirmed_by_pri += 1;
                        }
                    }
                }
                LogPayload::BackupTaken { .. }
                | LogPayload::CheckpointBegin { .. }
                | LogPayload::CheckpointEnd => {}
            }
        }
        // The checkpoint wrote every page of its table back before its
        // image was saved: nothing below the scan point needs redo.
        for rec_lsn in dpt.values_mut() {
            *rec_lsn = (*rec_lsn).max(scan_from);
        }
        report.pages_ever_dirty = ever_dirty.len() as u64;
        report.dirty_pages_at_end = dpt.len() as u64;
        report.analysis_ns = elapsed_ns(analysis);

        // ------------------------------------------------------------
        // Pass 2: redo (Figure 12 row 3). "The 'redo' pass must read all
        // data pages with logged updates … these random reads dominate
        // the cost" — except the ones analysis just crossed off.
        // ------------------------------------------------------------
        let redo = Instant::now();
        let redo_start = dpt.values().copied().min().unwrap_or(Lsn::NULL);
        let mut pages_read: HashSet<PageId> = HashSet::new();
        let mut pages_touched_by_redo: HashSet<PageId> = HashSet::new();
        if !dpt.is_empty() {
            // Second streaming pass, starting at the oldest recovery LSN
            // (as ARIES does) rather than replaying a materialized vec.
            let scanner = self
                .log
                .scan_records(redo_start)
                .map_err(|e| format!("redo scan failed: {e}"))?;
            for item in scanner {
                let (lsn, record) = item.map_err(|e| format!("redo scan failed: {e}"))?;
                let id = record.page_id;
                if dpt.get(&id).is_none_or(|&rec_lsn| lsn < rec_lsn) {
                    continue;
                }
                match replay::step(id, lsn, &record) {
                    Ok(Step::Redo(op, prev)) => {
                        let mut guard = self
                            .pool
                            .fetch_mut(id)
                            .map_err(|e| format!("redo fetch of {id} failed: {e}"))?;
                        pages_read.insert(id);
                        if replay::redo(&mut guard, lsn, op, prev)
                            .map_err(|e| format!("redo of {id}: {e}"))?
                        {
                            guard.mark_dirty(lsn);
                            pages_touched_by_redo.insert(id);
                            report.redo_applied += 1;
                        } else {
                            report.redo_skipped += 1;
                        }
                    }
                    Ok(Step::Install(image)) => {
                        let mut page = replay::stamped(lsn, image);
                        page.reset_update_count();
                        self.pool
                            .put_new(page, lsn)
                            .map_err(|e| format!("redo format of {id} failed: {e}"))?;
                        pages_touched_by_redo.insert(id);
                        report.redo_applied += 1;
                    }
                    // Not page content: a PRI update or backup notice.
                    Err(_) => {}
                }
            }
        }

        // Figure 12 bottom-right: pages in the requirements whose redo
        // turned out to be entirely reflected on disk were written before
        // the crash, but their PriUpdate record was lost. "The page
        // recovery index must be updated right away … the recovery process
        // should generate an appropriate log record."
        for &page_id in dpt.keys() {
            // A page redo dirtied again logs its PriUpdate at its next
            // write-back; a page redo never read is left alone.
            if pages_touched_by_redo.contains(&page_id) || !pages_read.contains(&page_id) {
                continue;
            }
            let page_lsn = Lsn(self
                .pool
                .fetch(page_id)
                .map_err(|e| format!("PRI repair fetch of {page_id} failed: {e}"))?
                .page_lsn());
            let backup = pri
                .lookup(page_id)
                .map_or(spf_wal::BackupRef::None, |e| e.backup);
            pri.set_latest_lsn(page_id, page_lsn);
            self.log.append(&LogRecord {
                tx_id: TxId::NONE,
                prev_tx_lsn: Lsn::NULL,
                page_id,
                prev_page_lsn: Lsn::NULL,
                payload: LogPayload::PriUpdate { page_lsn, backup },
            });
            report.pri_repairs += 1;
        }
        report.redo_pages_read = pages_read.len() as u64;
        report.redo_ns = elapsed_ns(redo);

        // ------------------------------------------------------------
        // Pass 3: undo. Roll back every loser — including uncommitted
        // system transactions, whose loss is harmless by design.
        // ------------------------------------------------------------
        let undo_started = Instant::now();
        self.txn.reset_after_crash(report.max_tx_seen);
        let clrs_before = self.txn.stats().clrs_written;
        let mut losers: Vec<(TxId, (Lsn, Option<TxKind>))> = att.into_iter().collect();
        losers.sort_unstable_by_key(|&(_, (last, _))| std::cmp::Reverse(last));
        for (tx, (last, kind)) in losers {
            let kind = self
                .txn
                .roll_back_loser(tx, last, kind, undo)
                .map_err(|e| format!("undo of loser {tx}: {e}"))?;
            report.losers += 1;
            report.system_losers += u64::from(kind == TxKind::System);
        }
        report.clrs_written = self.txn.stats().clrs_written - clrs_before;
        self.log.force();
        report.undo_ns = elapsed_ns(undo_started);

        report.sim_time = self.log.clock().now() - start_time;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pri::PriEntry;
    use spf_wal::BackupRef;

    fn sample_image() -> CheckpointImage {
        CheckpointImage {
            scan_from: Lsn(4096),
            begin: Lsn(4100),
            next_tx: 77,
            alloc_high_water: 300,
            pri: vec![
                (
                    0,
                    256,
                    PriEntry {
                        backup: BackupRef::FullBackup {
                            first_slot: 0,
                            pages: 256,
                        },
                        backup_lsn: Lsn(900),
                        latest_lsn: None,
                    },
                ),
                (
                    260,
                    261,
                    PriEntry {
                        backup: BackupRef::FormatRecord(Lsn(3000)),
                        backup_lsn: Lsn(3000),
                        latest_lsn: Some(Lsn(3500)),
                    },
                ),
            ],
        }
    }

    #[test]
    fn image_round_trips_and_refuses_damage() {
        let image = sample_image();
        let bytes = image.encode();
        assert_eq!(CheckpointImage::decode(&bytes).unwrap(), image);
        let mut bad = bytes.clone();
        bad[6] ^= 1;
        assert!(CheckpointImage::decode(&bad).is_err());
        assert!(CheckpointImage::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(CheckpointImage::decode(&[]).is_err());
    }
}
