//! Media recovery (paper Section 5.1.3) and the SQL-Server-mirroring
//! style single-page repair it criticizes in Section 2.
//!
//! Media recovery: "restores a backup … scans forward from the last
//! backup of the failed media and ensures updates for the failed media
//! only. Due to the effort of restoring a backup copy, active
//! transactions touching the failed media are aborted." It is the
//! *escalation target* of single-page failures in systems without
//! single-page recovery — experiments E1, E10, E12, and E13 compare its
//! cost against the per-page chain approach.
//!
//! The mirror-style baseline reproduces what the paper says about SQL
//! Server database mirroring: "the recovery log is applied to the entire
//! mirror database, not just the individual page that requires repair,
//! and … the recovery process completely fails to exploit the per-page
//! log chain already present in the recovery log."
//!
//! All three walk one LSN-ordered history and apply each page's records
//! under the §5.1.4 rule in [`crate::replay`].

use std::sync::Arc;

use spf_archive::ArchiveStore;
use spf_storage::{Device, Page, PageId, StorageDevice};
use spf_util::SimDuration;
use spf_wal::{LogManager, LogRecord, Lsn};

use crate::backup::BackupStore;
use crate::replay::{self, Step};

/// Outcome of a full media recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MediaReport {
    /// Pages restored from the full backup.
    pub pages_restored: u64,
    /// Log records scanned during replay.
    pub log_records_scanned: u64,
    /// Archived records replayed (history below the WAL truncation
    /// point, served sequentially from archive runs).
    pub archive_records_replayed: u64,
    /// Redo actions applied.
    pub redo_applied: u64,
    /// Simulated duration of the restore + replay.
    pub sim_time: SimDuration,
}

/// Outcome of a mirror-style repair of one page.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MirrorRepairReport {
    /// Live-WAL records scanned (the whole tail since the backup — or
    /// since the truncation point, with the rest counted under
    /// `archive_records_scanned`).
    pub log_records_scanned: u64,
    /// Archived records scanned (history below the WAL truncation
    /// point; still the *entire* database's records — the mirror
    /// approach stays faithfully naive there too).
    pub archive_records_scanned: u64,
    /// Random page I/Os spent keeping the whole mirror current.
    pub mirror_page_ios: u64,
    /// Live-WAL bytes scanned.
    pub log_bytes_scanned: u64,
    /// Archive run bytes scanned.
    pub archive_bytes_scanned: u64,
    /// Records that actually pertained to the repaired page.
    pub records_for_target: u64,
    /// Simulated duration.
    pub sim_time: SimDuration,
}

/// Media-recovery driver.
pub struct MediaRecovery {
    log: LogManager,
    /// The log archive: replay source for history older than the WAL
    /// truncation point.
    archive: Option<Arc<ArchiveStore>>,
}

impl MediaRecovery {
    /// Creates a driver over `log`.
    #[must_use]
    pub fn new(log: LogManager) -> Self {
        Self { log, archive: None }
    }

    /// Attaches the log archive so replay can start below the WAL
    /// truncation point.
    #[must_use]
    pub fn with_archive(mut self, archive: Arc<ArchiveStore>) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Streams every record from `from` on through `f` in LSN order: the
    /// archive runs below the WAL truncation point, then the WAL tail.
    /// Returns how many records each source delivered, archive first.
    fn history(
        &self,
        from: Lsn,
        mut f: impl FnMut(Lsn, &LogRecord) -> Result<(), String>,
    ) -> Result<(u64, u64), String> {
        let floor = self.log.truncate_point();
        let mut archived = 0;
        let mut wal_start = from;
        if floor > from {
            let archive = self.archive.as_ref().ok_or_else(|| {
                format!("log truncated at {floor} (replay from {from}) and no archive is attached")
            })?;
            let mut failed = None;
            archived = archive
                .replay_lsn_order(from, floor, |lsn, record| {
                    if failed.is_none() {
                        failed = f(lsn, record).err();
                    }
                })
                .map_err(|e| format!("archive replay: {e}"))?;
            if let Some(e) = failed {
                return Err(e);
            }
            wal_start = floor;
        }
        let mut scanned = 0;
        let scanner = self
            .log
            .scan_records(wal_start)
            .map_err(|e| format!("log replay scan: {e}"))?;
        for item in scanner {
            let (lsn, record) = item.map_err(|e| format!("log replay scan: {e}"))?;
            scanned += 1;
            f(lsn, &record)?;
        }
        Ok((archived, scanned))
    }

    /// Replays the history from `from` onto `device` pages `[0, n)`, one
    /// device read-modify-write per page-content record.
    fn replay_onto(
        &self,
        device: &Device,
        n: u64,
        from: Lsn,
        report: &mut MediaReport,
    ) -> Result<(), String> {
        (report.archive_records_replayed, report.log_records_scanned) =
            self.history(from, |lsn, record| {
                let id = record.page_id;
                if id.0 >= n {
                    return Ok(());
                }
                let mut page = match replay::step(id, lsn, record) {
                    Ok(Step::Install(image)) => replay::stamped(lsn, image),
                    Ok(Step::Redo(op, prev)) => {
                        let mut buf = vec![0u8; device.page_size()];
                        device
                            .read_page(id, &mut buf)
                            .map_err(|e| format!("replay read {id}: {e}"))?;
                        let mut page = Page::from_bytes(buf);
                        if !replay::redo(&mut page, lsn, op, prev)
                            .map_err(|e| format!("media replay of {id}: {e}"))?
                        {
                            return Ok(());
                        }
                        page
                    }
                    // Not page content: a PRI update or backup notice.
                    Err(_) => return Ok(()),
                };
                page.finalize_checksum();
                device
                    .write_page(id, page.as_bytes())
                    .map_err(|e| format!("replay write {id}: {e}"))?;
                report.redo_applied += 1;
                Ok(())
            })?;
        Ok(())
    }

    /// Restores `device` pages `[0, n)` from the full backup starting at
    /// `backup_first` in `backups`, then replays every log record from
    /// `backup_lsn` forward. The device's faults are cleared first (a
    /// replacement device at the same address).
    pub fn restore_device(
        &self,
        device: &Device,
        backups: &BackupStore,
        backup_first: PageId,
        n: u64,
        backup_lsn: Lsn,
    ) -> Result<MediaReport, String> {
        let start_time = self.log.clock().now();
        let mut report = MediaReport::default();

        // Replacement medium: clear all faults including device failure.
        device.injector().clear_all();

        // Sequential restore of every page.
        let mut buf = vec![0u8; device.page_size()];
        for i in 0..n {
            backups
                .device()
                .read_page_seq(PageId(backup_first.0 + i), &mut buf)
                .map_err(|e| format!("backup read {i}: {e}"))?;
            device
                .write_page_seq(PageId(i), &buf)
                .map_err(|e| format!("restore write {i}: {e}"))?;
            report.pages_restored += 1;
        }

        // Replay forward from the backup point directly against the
        // device (the pool is bypassed: media recovery is offline; "all
        // affected transactions be aborted").
        self.replay_onto(device, n, backup_lsn, &mut report)?;

        report.sim_time = self.log.clock().now() - start_time;
        Ok(report)
    }

    /// Media recovery with the mirror as the restore source (the
    /// paper's classic alternative to backup-plus-log-replay): copies
    /// every *verified* mirror page onto the replacement device, then
    /// replays forward from the oldest restored PageLSN so the pages
    /// the mirror held slightly stale catch up. An unverifiable mirror
    /// page (the mirror can fail pages too) restores as zeroes and
    /// forces the replay back to the beginning of history, where the
    /// page's format record rebuilds it.
    ///
    /// The replay rule's PageLSN guard makes the whole pass idempotent:
    /// records a mirror page already reflects are skipped.
    pub fn restore_from_mirror(
        &self,
        device: &Device,
        mirror: &Device,
        n: u64,
    ) -> Result<MediaReport, String> {
        let start_time = self.log.clock().now();
        let mut report = MediaReport::default();

        // Replacement medium: clear all faults including device failure.
        device.injector().clear_all();

        let mut buf = vec![0u8; device.page_size()];
        let mut replay_from: Option<Lsn> = None;
        for i in 0..n {
            let verified = mirror
                .read_page_seq(PageId(i), &mut buf)
                .is_ok_and(|()| Page::from_bytes(buf.clone()).verify(PageId(i)).is_ok());
            if verified {
                let lsn = Lsn(Page::from_bytes(buf.clone()).page_lsn());
                replay_from = Some(replay_from.map_or(lsn, |r| r.min(lsn)));
                report.pages_restored += 1;
            } else {
                buf.fill(0);
                replay_from = Some(Lsn::NULL);
            }
            device
                .write_page_seq(PageId(i), &buf)
                .map_err(|e| format!("mirror restore write {i}: {e}"))?;
        }

        let from = replay_from.unwrap_or(Lsn::NULL).max(Lsn::FIRST);
        self.replay_onto(device, n, from, &mut report)?;
        device
            .sync()
            .map_err(|e| format!("post-restore sync: {e}"))?;

        report.sim_time = self.log.clock().now() - start_time;
        Ok(report)
    }

    /// Mirror-style repair of a single page, reproducing the cost
    /// structure the paper criticizes in SQL Server database mirroring:
    /// "the recovery log is applied to the **entire mirror database**, not
    /// just the individual page that requires repair". Every page record
    /// in the log is applied against the mirror (one random read + one
    /// random write under `mirror_cost`); only the records for `target`
    /// also update the returned image, under the [`replay`] rule.
    ///
    /// With the WAL truncated below `backup_lsn`, the archived history
    /// is scanned first — still record by record, still paying the
    /// whole-database mirror I/O, faithfully naive.
    pub fn mirror_style_page_repair(
        &self,
        target: PageId,
        mut base_image: Page,
        backup_lsn: Lsn,
        mirror_cost: spf_util::IoCostModel,
    ) -> Result<(Page, MirrorRepairReport), String> {
        let clock = self.log.clock();
        let start_time = clock.now();
        let mut report = MirrorRepairReport::default();
        let page_size = base_image.size();
        let bytes_before = self.log.stats().bytes_scanned;
        let archive_bytes = || {
            self.archive
                .as_ref()
                .map_or(0, |a| a.stats().bytes_replayed)
        };
        let archive_bytes_before = archive_bytes();

        (report.archive_records_scanned, report.log_records_scanned) =
            self.history(backup_lsn, |lsn, record| {
                if record.page_id.is_valid() && record.payload.is_page_content() {
                    // Keeping the mirror current: the record is applied to the
                    // mirror database's copy of the page.
                    clock.advance(mirror_cost.cost(spf_util::IoKind::RandomRead, page_size));
                    clock.advance(mirror_cost.cost(spf_util::IoKind::RandomWrite, page_size));
                    report.mirror_page_ios += 2;
                }
                if record.page_id != target || !record.payload.is_page_content() {
                    return Ok(());
                }
                let applied = replay::apply(&mut base_image, target, lsn, record)
                    .map_err(|e| format!("mirror repair of {target}: {e}"))?;
                report.records_for_target += u64::from(applied);
                Ok(())
            })?;
        base_image.finalize_checksum();
        report.archive_bytes_scanned = archive_bytes() - archive_bytes_before;
        report.log_bytes_scanned = self.log.stats().bytes_scanned - bytes_before;
        report.sim_time = clock.now() - start_time;
        Ok((base_image, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_archive::LogArchiver;
    use spf_storage::{PageType, SlottedPage, DEFAULT_PAGE_SIZE};
    use spf_wal::{LogPayload, LogRecord, PageOp, TxId};
    use std::sync::Arc;

    #[test]
    fn mirror_repair_spans_a_truncated_wal_via_the_archive() {
        let log = LogManager::for_testing();
        let archive = Arc::new(ArchiveStore::for_testing());
        let target = PageId(3);

        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, target, PageType::BTreeLeaf);
        page.set_page_lsn(1);
        let base = page.clone();
        let mut lsns = Vec::new();
        for i in 0..6u16 {
            // Interleave a record for another page — mirror I/O fodder.
            log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(9),
                prev_page_lsn: Lsn::NULL,
                payload: LogPayload::Update {
                    op: PageOp::SetGhost {
                        pos: 0,
                        key: Vec::new(),
                        old: false,
                        new: true,
                    },
                },
            });
            let op = PageOp::InsertRecord {
                pos: i,
                bytes: format!("row-{i}").into_bytes(),
                ghost: false,
            };
            let lsn = log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: target,
                prev_page_lsn: Lsn(page.page_lsn()),
                payload: LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page).unwrap();
            page.set_page_lsn(lsn.0);
            lsns.push(lsn);
        }
        log.force();
        LogArchiver::new(log.clone(), Arc::clone(&archive))
            .archive_up_to_durable()
            .unwrap();
        log.truncate_until(lsns[3]).unwrap();

        let media = MediaRecovery::new(log.clone()).with_archive(Arc::clone(&archive));
        let (repaired, report) = media
            .mirror_style_page_repair(target, base, Lsn(1), spf_util::IoCostModel::free())
            .unwrap();
        assert_eq!(report.records_for_target, 6, "archive part + WAL tail");
        assert!(
            report.mirror_page_ios >= 2 * 12,
            "whole-log mirror cost paid"
        );
        // Source accounting stays consistent across the splice: 7
        // records (both pages) below the cut, 5 in the WAL tail, and
        // the archived portion's bytes are charged too.
        assert_eq!(report.archive_records_scanned, 7);
        assert_eq!(report.log_records_scanned, 5);
        assert!(report.archive_bytes_scanned > 0);
        assert!(report.log_bytes_scanned > 0);
        assert_eq!(repaired.page_lsn(), page.page_lsn());
        let mut a = repaired.clone();
        let mut b = page.clone();
        let got: Vec<(Vec<u8>, bool)> = SlottedPage::new(&mut a)
            .iter()
            .map(|(_, r, g)| (r.to_vec(), g))
            .collect();
        let want: Vec<(Vec<u8>, bool)> = SlottedPage::new(&mut b)
            .iter()
            .map(|(_, r, g)| (r.to_vec(), g))
            .collect();
        assert_eq!(got, want);

        // Without the archive attached, the truncated scan fails loudly
        // instead of silently skipping history.
        let bare = MediaRecovery::new(log.clone());
        let err = bare
            .mirror_style_page_repair(target, page.clone(), Lsn(1), spf_util::IoCostModel::free())
            .unwrap_err();
        assert!(err.contains("no archive"), "{err}");
    }
}
