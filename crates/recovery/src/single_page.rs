//! Single-page recovery (paper Section 5.2.3, Figure 10).
//!
//! The procedure, step by step from the paper:
//!
//! 1. "single-page recovery first retrieves information from the page
//!    recovery index and restores the backup copy into the buffer pool.
//!    The backup copy might be a log record describing the initial
//!    contents of the page immediately after it was newly allocated."
//! 2. "Using the log sequence number obtained from the page recovery
//!    index, single-page recovery follows the per-page log chain back to
//!    the time the backup was taken, pushes pointers to those log records
//!    into a last-in-first-out stack, and then pops records off the stack
//!    and applies their 'redo' actions." Each record goes through the
//!    §5.1.4 rule in [`crate::replay`], shared with restart and media
//!    recovery.
//! 3. "If anything fails, e.g., retrieval of an appropriate entry in the
//!    page recovery index, the system can resort to a media failure."
//! 4. "Once the page contents has been recovered and brought up-to-date
//!    in the buffer pool, the page can be moved to a new location. The
//!    old, failed location can be deallocated … or registered in an
//!    appropriate data structure to prevent future use (bad block list)."
//!
//! Step 4 is modelled as a transparent firmware remap: the device fault is
//! cleared (the device presents a fresh medium at the same logical
//! address) and the incident is recorded on the bad-block report. The
//! recovered image is installed *dirty* in the buffer pool, so its next
//! write-back persists it.

use std::sync::Arc;

use parking_lot::Mutex;

use spf_archive::ArchiveStore;
use spf_buffer::PageRecoverer;
use spf_storage::{Device, Page, PageId, StorageDevice};
use spf_util::{SimClock, SimDuration};
use spf_wal::{BackupRef, LogError, LogManager, LogPayload, LogRecord, Lsn};

use crate::backup::BackupStore;
use crate::pri::PageRecoveryIndex;
use crate::replay::{self, ReplayError};

/// Single-page recovery statistics (experiment E7).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpfStats {
    /// Successful recoveries.
    pub recoveries: u64,
    /// Recoveries that had to escalate to a media failure.
    pub escalations: u64,
    /// Log records fetched through per-page chains (the "dozens of I/Os").
    pub chain_records_fetched: u64,
    /// Records served by the log archive (indexed sequential reads, for
    /// history older than the WAL truncation point).
    pub archive_records_fetched: u64,
    /// Recoveries that needed the archive for part of their history.
    pub archive_backed_recoveries: u64,
    /// Redo actions applied to backup images.
    pub redo_applied: u64,
    /// Recoveries that started from an explicit backup page.
    pub from_backup_page: u64,
    /// Recoveries that started from an in-log full-page image.
    pub from_log_image: u64,
    /// Recoveries that started from a format record.
    pub from_format_record: u64,
    /// Recoveries that started from the mirror copy (Section 5.2.2:
    /// "other copies in a mirror or a RAID array") — usually the
    /// freshest source, so these replay the fewest chain records.
    pub from_mirror: u64,
    /// Total simulated time spent inside recovery.
    pub sim_time: SimDuration,
    /// Per-page chain cross-check failures observed (defensive check of
    /// Section 5.1.4: the chain pointer must equal the page's LSN).
    pub chain_check_failures: u64,
}

impl spf_obs::Observable for SpfStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("recoveries", self.recoveries)
            .counter("escalations", self.escalations)
            .counter("chain_records_fetched", self.chain_records_fetched)
            .counter("archive_records_fetched", self.archive_records_fetched)
            .counter("archive_backed_recoveries", self.archive_backed_recoveries)
            .counter("redo_applied", self.redo_applied)
            .counter("from_backup_page", self.from_backup_page)
            .counter("from_log_image", self.from_log_image)
            .counter("from_format_record", self.from_format_record)
            .counter("from_mirror", self.from_mirror)
            .counter("sim_time_nanos", self.sim_time.as_nanos())
            .counter("chain_check_failures", self.chain_check_failures);
    }
}

/// The single-page recoverer; plugged into the buffer pool as its
/// [`PageRecoverer`].
pub struct SinglePageRecovery {
    pri: Arc<PageRecoveryIndex>,
    log: LogManager,
    backups: Arc<BackupStore>,
    /// The log archive: history older than the WAL truncation point.
    archive: Option<Arc<ArchiveStore>>,
    /// The data device, for clearing the fault (firmware remap model).
    device: Device,
    /// Optional synchronous mirror of the data device: tried first as
    /// the backup source, before the PRI's recorded one.
    mirror: Option<Device>,
    clock: Arc<SimClock>,
    stats: Mutex<SpfStats>,
    bad_blocks: Mutex<Vec<PageId>>,
}

impl SinglePageRecovery {
    /// Creates a recoverer.
    #[must_use]
    pub fn new(
        pri: Arc<PageRecoveryIndex>,
        log: LogManager,
        backups: Arc<BackupStore>,
        device: Device,
    ) -> Self {
        let clock = Arc::clone(device.clock());
        Self {
            pri,
            log,
            backups,
            archive: None,
            device,
            mirror: None,
            clock,
            stats: Mutex::new(SpfStats::default()),
            bad_blocks: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a synchronous mirror of the data device. A verified
    /// mirror image becomes the preferred backup source: it is at most
    /// one sync behind the primary, so recovery replays only the chain
    /// suffix after the mirror's PageLSN — often nothing at all —
    /// instead of the whole history since the last explicit backup.
    #[must_use]
    pub fn with_mirror(mut self, mirror: Device) -> Self {
        self.mirror = Some(mirror);
        self
    }

    /// Attaches the log archive: recovery then replays history older
    /// than the WAL truncation point from indexed archive runs instead
    /// of failing on truncated chain reads.
    #[must_use]
    pub fn with_archive(mut self, archive: Arc<ArchiveStore>) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> SpfStats {
        *self.stats.lock()
    }

    /// Pages that failed and were repaired (the bad-block report).
    #[must_use]
    pub fn bad_blocks(&self) -> Vec<PageId> {
        self.bad_blocks.lock().clone()
    }

    /// The recovery procedure proper. Public so experiments can invoke it
    /// directly; the buffer pool calls it through [`PageRecoverer`].
    pub fn recover_page(&self, id: PageId) -> Result<Page, String> {
        let start_time = self.clock.now();

        // (1) PRI lookup.
        let entry = self
            .pri
            .lookup(id)
            .ok_or_else(|| format!("no page recovery index entry for {id}"))?;

        // (2) Restore the backup copy — preferring the mirror, whose
        // copy is newest; the PRI's recorded source is the fallback
        // when the mirror's copy is itself damaged (or there is none).
        let mirror_page = self.load_mirror(id);
        let used_mirror = mirror_page.is_some();
        let mut page = match mirror_page {
            Some(page) => page,
            None => self.load_backup(id, entry.backup)?,
        };

        // (3) Gather the page's history above the backup point. The live
        // WAL serves the unarchived suffix through the backward per-page
        // chain walk (the returned newest-first vector *is* the LIFO
        // stack); anything older than the WAL truncation point comes from
        // the log archive — already sorted oldest-first, as one indexed
        // seek plus a sequential run scan per run, instead of one random
        // I/O per chain hop.
        let backup_lsn = Lsn(page.page_lsn());
        // No updates since the backup: nothing to replay.
        let target = entry.latest_lsn.unwrap_or(backup_lsn);
        let mut history: Vec<(Lsn, LogRecord)> = Vec::new();
        if target > backup_lsn {
            // Truncation can advance concurrently with this gather; a
            // chain hop that lands below a fresher cut answers
            // `Truncated`, and the retry re-reads the (monotone)
            // truncation point — the records are in the archive either
            // way, so this converges instead of escalating.
            let (floor, mut wal_part) = {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    let floor = self.log.truncate_point();
                    // The WAL walk must not read below the truncation
                    // point; stop just under it so the record *at* the
                    // point is still walked.
                    let wal_stop = backup_lsn.max(Lsn(floor.0.saturating_sub(1)));
                    if target <= wal_stop {
                        break (floor, Vec::new());
                    }
                    match self.log.scan_backward_chain(target, wal_stop) {
                        Ok(part) => break (floor, part),
                        Err(LogError::Truncated { .. }) if attempts < 8 => continue,
                        Err(e) => return Err(format!("per-page chain walk failed: {e}")),
                    }
                }
            };
            self.stats.lock().chain_records_fetched += wal_part.len() as u64;

            if floor > backup_lsn {
                // The oldest WAL record's chain pointer names the newest
                // record that must come from the archive (or, when the
                // whole history predates the truncation point, `target`).
                let bound = wal_part
                    .last()
                    .map_or(target, |(_, record)| record.prev_page_lsn);
                if bound > backup_lsn {
                    let Some(archive) = &self.archive else {
                        return Err(format!(
                            "history of {id} below the WAL truncation point \
                             ({floor}) and no log archive is attached"
                        ));
                    };
                    // The archive also holds the page's PRI maintenance
                    // trail (PriUpdate/BackupTaken, for restart
                    // analysis); only content-chain records replay here.
                    let archived: Vec<(Lsn, LogRecord)> = archive
                        .page_history(id, backup_lsn, bound)
                        .map_err(|e| format!("archive history read failed: {e}"))?
                        .into_iter()
                        .filter(|(_, record)| record.payload.is_page_content())
                        .collect();
                    let mut stats = self.stats.lock();
                    stats.archive_records_fetched += archived.len() as u64;
                    stats.archive_backed_recoveries += 1;
                    drop(stats);
                    history.extend(archived);
                }
            }
            wal_part.reverse(); // pop the LIFO stack onto the replay tail
            history.extend(wal_part);
        }

        // (4) Redo, oldest first, under the one replay rule: a
        // cross-linked or broken chain (corrupt PRI or log) is refused,
        // never applied.
        for (lsn, record) in history {
            let applied = replay::apply(&mut page, id, lsn, &record).map_err(|e| {
                if matches!(e, ReplayError::WrongPage(..) | ReplayError::ChainBroken(..)) {
                    self.stats.lock().chain_check_failures += 1;
                }
                format!("replay of {id}: {e}")
            })?;
            self.stats.lock().redo_applied += u64::from(applied);
        }

        // Sanity: the rebuilt page must verify.
        page.finalize_checksum();
        page.verify(id)
            .map_err(|d| format!("recovered page fails verification: {d}"))?;

        // (5) Retire the failed physical location: the simulated firmware
        // remaps the logical address onto a fresh block.
        self.device.injector().clear(id);
        self.bad_blocks.lock().push(id);

        let elapsed = self.clock.now() - start_time;
        let mut stats = self.stats.lock();
        stats.recoveries += 1;
        stats.sim_time = stats.sim_time.saturating_add(elapsed);
        match (used_mirror, entry.backup) {
            (true, _) => stats.from_mirror += 1,
            (_, BackupRef::BackupPage(_) | BackupRef::FullBackup { .. }) => {
                stats.from_backup_page += 1;
            }
            (_, BackupRef::LogImage(_)) => stats.from_log_image += 1,
            (_, BackupRef::FormatRecord(_)) => stats.from_format_record += 1,
            (_, BackupRef::None) => {}
        }
        Ok(page)
    }

    /// Tries the mirror as the backup source: a verified image is a
    /// valid historical version of the page by construction (every
    /// acknowledged primary write also went to the mirror), so its
    /// PageLSN anchors the chain replay like any other backup would.
    fn load_mirror(&self, id: PageId) -> Option<Page> {
        let mirror = self.mirror.as_ref()?;
        if id.0 >= mirror.capacity() {
            return None;
        }
        let mut buf = vec![0u8; mirror.page_size()];
        mirror.read_page(id, &mut buf).ok()?;
        let page = Page::from_bytes(buf);
        page.verify(id).ok()?;
        Some(page)
    }

    fn load_backup(&self, id: PageId, backup: BackupRef) -> Result<Page, String> {
        match backup {
            BackupRef::BackupPage(slot) => self.backups.read_backup(slot, id),
            BackupRef::LogImage(lsn) | BackupRef::FormatRecord(lsn) => {
                // Truncated from the WAL, the record is in the archive: the
                // in-log sources (Section 5.2.1) outlive truncation.
                let record = match &self.archive {
                    Some(archive) => archive
                        .read_log_or_archive(&self.log, id, lsn)
                        .map_err(|e| e.to_string()),
                    None => self.log.read_record(lsn).map_err(|e| e.to_string()),
                }
                .map_err(|e| format!("in-log backup read at {lsn}: {e}"))?;
                match (backup, &record.payload) {
                    (BackupRef::LogImage(_), LogPayload::FullPageImage { image })
                    | (BackupRef::FormatRecord(_), LogPayload::PageFormat { image }) => {
                        Ok(replay::stamped(lsn, image))
                    }
                    (_, other) => Err(format!(
                        "PRI points at {lsn} as {backup:?}, found {}",
                        other.kind_name()
                    )),
                }
            }
            BackupRef::FullBackup { first_slot, pages } => {
                if id.0 >= pages {
                    return Err(format!("{id} outside the full backup ({pages} pages)"));
                }
                self.backups.read_backup(PageId(first_slot + id.0), id)
            }
            BackupRef::None => Err(format!("no backup source recorded for {id}")),
        }
    }
}

impl PageRecoverer for SinglePageRecovery {
    fn recover(&self, id: PageId) -> Result<Page, String> {
        self.recover_page(id)
            .inspect_err(|_| self.stats.lock().escalations += 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{PageType, SlottedPage, DEFAULT_PAGE_SIZE};
    use spf_wal::{CompressedPageImage, LogRecord, PageOp, TxId};

    struct Fixture {
        pri: Arc<PageRecoveryIndex>,
        log: LogManager,
        backups: Arc<BackupStore>,
        archive: Arc<ArchiveStore>,
        #[allow(dead_code)]
        device: Device,
        spr: SinglePageRecovery,
    }

    fn fixture() -> Fixture {
        let pri = Arc::new(PageRecoveryIndex::new());
        let log = LogManager::for_testing();
        let device = Device::for_testing(DEFAULT_PAGE_SIZE, 16);
        let backups = Arc::new(BackupStore::new(Device::for_testing(DEFAULT_PAGE_SIZE, 16)));
        let archive = Arc::new(ArchiveStore::for_testing());
        let spr = SinglePageRecovery::new(
            Arc::clone(&pri),
            log.clone(),
            Arc::clone(&backups),
            device.clone(),
        )
        .with_archive(Arc::clone(&archive));
        Fixture {
            pri,
            log,
            backups,
            archive,
            device,
            spr,
        }
    }

    /// Drains the fixture's log into its archive and truncates the WAL
    /// up to `cut` (or everything durable when `cut` is null).
    fn archive_and_truncate(fx: &Fixture, cut: Lsn) {
        let archiver = spf_archive::LogArchiver::new(fx.log.clone(), Arc::clone(&fx.archive));
        archiver.archive_up_to_durable().unwrap();
        let cut = if cut.is_valid() {
            cut
        } else {
            fx.log.durable_lsn()
        };
        assert!(fx.log.truncate_until(cut).unwrap() > 0);
    }

    /// Builds a page, takes a backup, applies `n` chained updates through
    /// the log, and registers everything in the PRI. Returns the final
    /// page state.
    fn page_with_history(fx: &Fixture, id: u64, n: usize) -> Page {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        page.set_page_lsn(1);
        let slot = fx.backups.take_page_backup(&page).unwrap();
        fx.pri
            .set_backup(PageId(id), BackupRef::BackupPage(slot), Lsn(1));

        let mut last = Lsn::NULL;
        for i in 0..n {
            let op = PageOp::InsertRecord {
                pos: i as u16,
                bytes: format!("row-{i:04}").into_bytes(),
                ghost: false,
            };
            let lsn = fx.log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: last,
                page_id: PageId(id),
                prev_page_lsn: Lsn(page.page_lsn()),
                payload: spf_wal::LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page).unwrap();
            page.set_page_lsn(lsn.0);
            last = lsn;
        }
        fx.log.force();
        if n > 0 {
            fx.pri.set_latest_lsn(PageId(id), Lsn(page.page_lsn()));
        }
        page
    }

    #[test]
    fn recovers_from_backup_page_plus_chain() {
        let fx = fixture();
        let expected = page_with_history(&fx, 3, 25);
        let recovered = fx.spr.recover_page(PageId(3)).unwrap();
        assert_eq!(recovered.page_lsn(), expected.page_lsn());
        // Logical contents identical.
        let mut a = recovered.clone();
        let mut b = expected.clone();
        let got: Vec<(Vec<u8>, bool)> = SlottedPage::new(&mut a)
            .iter()
            .map(|(_, r, g)| (r.to_vec(), g))
            .collect();
        let want: Vec<(Vec<u8>, bool)> = SlottedPage::new(&mut b)
            .iter()
            .map(|(_, r, g)| (r.to_vec(), g))
            .collect();
        assert_eq!(got, want);
        let stats = fx.spr.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.chain_records_fetched, 25);
        assert_eq!(stats.redo_applied, 25);
        assert_eq!(stats.from_backup_page, 1);
        assert_eq!(stats.chain_check_failures, 0);
        assert_eq!(fx.spr.bad_blocks(), vec![PageId(3)]);
    }

    #[test]
    fn recovers_with_no_updates_since_backup() {
        let fx = fixture();
        let expected = page_with_history(&fx, 4, 0);
        let recovered = fx.spr.recover_page(PageId(4)).unwrap();
        assert_eq!(recovered.page_lsn(), expected.page_lsn());
        assert_eq!(fx.spr.stats().chain_records_fetched, 0);
    }

    #[test]
    fn recovers_from_format_record() {
        let fx = fixture();
        // Format a page; its initial image goes to the log.
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(5), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            sp.push(b"fence-low", true).unwrap();
            sp.push(b"fence-high", true).unwrap();
        }
        let format_lsn = fx.log.append(&LogRecord {
            tx_id: TxId(2),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(5),
            prev_page_lsn: Lsn::NULL,
            payload: spf_wal::LogPayload::PageFormat {
                image: CompressedPageImage::capture(&page),
            },
        });
        page.set_page_lsn(format_lsn.0);
        fx.pri
            .set_backup(PageId(5), BackupRef::FormatRecord(format_lsn), format_lsn);

        // Two updates after the format.
        let mut last_page_lsn = format_lsn;
        for i in 0..2 {
            let op = PageOp::InsertRecord {
                pos: 1 + i,
                bytes: format!("data{i}").into_bytes(),
                ghost: false,
            };
            let lsn = fx.log.append(&LogRecord {
                tx_id: TxId(2),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(5),
                prev_page_lsn: last_page_lsn,
                payload: spf_wal::LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page).unwrap();
            page.set_page_lsn(lsn.0);
            last_page_lsn = lsn;
        }
        fx.log.force();
        fx.pri.set_latest_lsn(PageId(5), last_page_lsn);

        let recovered = fx.spr.recover_page(PageId(5)).unwrap();
        assert_eq!(recovered.page_lsn(), page.page_lsn());
        assert_eq!(recovered.slot_count(), 4);
        assert_eq!(fx.spr.stats().from_format_record, 1);
    }

    #[test]
    fn recovers_from_in_log_image() {
        let fx = fixture();
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(6), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            sp.push(b"snapshot", false).unwrap();
        }
        page.set_page_lsn(10);
        let img_lsn = fx.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(6),
            prev_page_lsn: Lsn::NULL,
            payload: spf_wal::LogPayload::FullPageImage {
                image: CompressedPageImage::capture(&page),
            },
        });
        fx.log.force();
        fx.pri
            .set_backup(PageId(6), BackupRef::LogImage(img_lsn), img_lsn);
        let recovered = fx.spr.recover_page(PageId(6)).unwrap();
        assert_eq!(recovered.page_lsn(), img_lsn.0);
        assert_eq!(recovered.record_at(0).unwrap().0, b"snapshot");
        assert_eq!(fx.spr.stats().from_log_image, 1);
    }

    #[test]
    fn archive_backed_recovery_matches_pure_chain_walk() {
        // Same history twice; one WAL archived + fully truncated. The
        // recovered images must be byte-identical.
        let fx_pure = fixture();
        let _ = page_with_history(&fx_pure, 3, 25);
        let pure = fx_pure.spr.recover_page(PageId(3)).unwrap();
        assert_eq!(fx_pure.spr.stats().chain_records_fetched, 25);
        assert_eq!(fx_pure.spr.stats().archive_records_fetched, 0);

        let fx = fixture();
        let _ = page_with_history(&fx, 3, 25);
        archive_and_truncate(&fx, Lsn::NULL);
        let recovered = fx.spr.recover_page(PageId(3)).unwrap();
        assert_eq!(
            recovered.as_bytes(),
            pure.as_bytes(),
            "archive-backed replay must reproduce the chain-walk result"
        );
        let stats = fx.spr.stats();
        assert_eq!(stats.chain_records_fetched, 0, "WAL is empty below the cut");
        assert_eq!(stats.archive_records_fetched, 25);
        assert_eq!(stats.archive_backed_recoveries, 1);
        assert_eq!(stats.redo_applied, 25);
    }

    #[test]
    fn recovery_splices_archive_and_wal_history() {
        // Truncate mid-chain: the suffix stays in the WAL, the prefix
        // moves to the archive, and recovery stitches them seamlessly.
        let fx = fixture();
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(2), PageType::BTreeLeaf);
        page.set_page_lsn(1);
        let slot = fx.backups.take_page_backup(&page).unwrap();
        fx.pri
            .set_backup(PageId(2), BackupRef::BackupPage(slot), Lsn(1));
        let mut lsns = Vec::new();
        for i in 0..20usize {
            let op = PageOp::InsertRecord {
                pos: i as u16,
                bytes: format!("row-{i:04}").into_bytes(),
                ghost: false,
            };
            let lsn = fx.log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(2),
                prev_page_lsn: Lsn(page.page_lsn()),
                payload: spf_wal::LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page).unwrap();
            page.set_page_lsn(lsn.0);
            lsns.push(lsn);
        }
        fx.log.force();
        fx.pri.set_latest_lsn(PageId(2), *lsns.last().unwrap());

        archive_and_truncate(&fx, lsns[12]);
        let recovered = fx.spr.recover_page(PageId(2)).unwrap();
        assert_eq!(recovered.page_lsn(), page.page_lsn());
        assert_eq!(recovered.slot_count(), page.slot_count());
        let stats = fx.spr.stats();
        assert_eq!(stats.chain_records_fetched, 8, "WAL part: lsns[12..20]");
        assert_eq!(
            stats.archive_records_fetched, 12,
            "archive part: lsns[0..12]"
        );
        assert_eq!(stats.redo_applied, 20);
        assert_eq!(stats.chain_check_failures, 0);
    }

    #[test]
    fn format_record_backup_survives_truncation() {
        // A PRI backup reference pointing *into* the log (a format
        // record) keeps working after the WAL below it is truncated: the
        // record is fetched from the archive instead (§5.2.1's in-log
        // backup sources made truncation-proof).
        let fx = fixture();
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(5), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            sp.push(b"fence-low", true).unwrap();
            sp.push(b"fence-high", true).unwrap();
        }
        let format_lsn = fx.log.append(&LogRecord {
            tx_id: TxId(2),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(5),
            prev_page_lsn: Lsn::NULL,
            payload: spf_wal::LogPayload::PageFormat {
                image: CompressedPageImage::capture(&page),
            },
        });
        page.set_page_lsn(format_lsn.0);
        fx.pri
            .set_backup(PageId(5), BackupRef::FormatRecord(format_lsn), format_lsn);
        fx.log.force();

        archive_and_truncate(&fx, Lsn::NULL);
        assert!(matches!(
            fx.log.read_record(format_lsn),
            Err(spf_wal::LogError::Truncated { .. })
        ));
        let recovered = fx.spr.recover_page(PageId(5)).unwrap();
        assert_eq!(recovered.page_lsn(), format_lsn.0);
        assert_eq!(recovered.slot_count(), 2);
        assert_eq!(fx.spr.stats().from_format_record, 1);
    }

    #[test]
    fn missing_pri_entry_escalates() {
        let fx = fixture();
        let reason = fx.spr.recover(PageId(9)).expect_err("must escalate");
        assert!(reason.contains("no page recovery index entry"), "{reason}");
        assert_eq!(fx.spr.stats().escalations, 1);
    }

    #[test]
    fn broken_chain_is_detected_not_misapplied() {
        let fx = fixture();
        let _ = page_with_history(&fx, 7, 5);
        // Corrupt the PRI's idea of the chain head: point it at a record
        // of a *different* page.
        let other = page_with_history(&fx, 8, 3);
        fx.pri.set_latest_lsn(PageId(7), Lsn(other.page_lsn()));
        let result = fx.spr.recover_page(PageId(7));
        assert!(
            result.is_err(),
            "cross-linked chain must not be silently applied"
        );
    }

    #[test]
    fn a_record_that_does_not_fit_escalates_instead_of_panicking() {
        let fx = fixture();
        let page = page_with_history(&fx, 6, 2);
        // Chained onto the page's head, but inserting past its 2 slots.
        let lsn = fx.log.append(&LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(6),
            prev_page_lsn: Lsn(page.page_lsn()),
            payload: LogPayload::Update {
                op: PageOp::InsertRecord {
                    pos: 9,
                    bytes: b"past the end".to_vec(),
                    ghost: false,
                },
            },
        });
        fx.log.force();
        fx.pri.set_latest_lsn(PageId(6), lsn);
        let reason = fx
            .spr
            .recover(PageId(6))
            .expect_err("a misfit must escalate");
        assert!(reason.contains(&format!("at {lsn}")), "{reason}");
        assert_eq!(fx.spr.stats().escalations, 1);
    }

    #[test]
    fn io_costs_match_paper_shape() {
        // With a disk-2012 cost model, recovery of a page with ~30 chained
        // records costs ~31 random I/Os ≈ 0.25 s — "a short delay", well
        // under the 1 s the paper budgets.
        let clock = Arc::new(SimClock::new());
        let cost = spf_util::IoCostModel::disk_2012();
        let pri = Arc::new(PageRecoveryIndex::new());
        let obs = Arc::new(spf_obs::Obs::new(Arc::clone(&clock), false));
        let log = LogManager::new(Arc::clone(&clock), cost, obs, None);
        let device = Device::Mem(spf_storage::MemDevice::new(
            DEFAULT_PAGE_SIZE,
            16,
            Arc::clone(&clock),
            cost,
            0,
        ));
        let backups = Arc::new(BackupStore::new(Device::Mem(spf_storage::MemDevice::new(
            DEFAULT_PAGE_SIZE,
            16,
            Arc::clone(&clock),
            cost,
            0,
        ))));
        let spr = SinglePageRecovery::new(
            Arc::clone(&pri),
            log.clone(),
            Arc::clone(&backups),
            device.clone(),
        );
        let fx = Fixture {
            pri,
            log,
            backups,
            archive: Arc::new(ArchiveStore::for_testing()),
            device,
            spr,
        };
        let _ = page_with_history(&fx, 2, 30);

        let t0 = clock.now();
        fx.spr.recover_page(PageId(2)).unwrap();
        let elapsed = (clock.now() - t0).as_secs_f64();
        assert!(
            elapsed < 1.0,
            "single-page recovery must be sub-second, got {elapsed}"
        );
        assert!(elapsed > 0.1, "it is not free either: {elapsed}");
    }
}
