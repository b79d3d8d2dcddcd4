//! Single-page rollback for page versioning (paper Section 5.1.4).
//!
//! "In addition to recovery techniques for the three traditional failure
//! classes, the recovery log can also serve some concurrency control
//! techniques. Specifically, snapshot isolation can be implemented by
//! taking an up-to-date copy of a database page and rolling it back using
//! 'undo' information in the recovery log. … An efficient implementation
//! of single-page rollback requires that each log record points to the
//! previous log record pertaining to the same data page" — i.e. the very
//! per-page log chain single-page recovery uses, walked in the same
//! direction but applying *inverse* operations.
//!
//! This module is the paper's secondary use of the chain: given a current
//! page image and a target LSN, it reconstructs the page as of that LSN.
//! A snapshot-isolation reader at timestamp `t` would call it with the
//! newest LSN ≤ `t`.

use spf_storage::Page;
use spf_util::SimDuration;
use spf_wal::{LogError, LogManager, LogPayload, Lsn};

/// Outcome counters for page versioning.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VersioningStats {
    /// Versions reconstructed.
    pub versions_built: u64,
    /// Inverse operations applied.
    pub undos_applied: u64,
    /// Simulated time spent.
    pub sim_time: SimDuration,
}

impl spf_obs::Observable for VersioningStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("versions_built", self.versions_built)
            .counter("undos_applied", self.undos_applied)
            .counter("sim_time_nanos", self.sim_time.as_nanos());
    }
}

/// Errors from single-page rollback.
#[derive(Debug)]
pub enum VersionError {
    /// A chained log record could not be read.
    Log(LogError),
    /// The chain reached a record that cannot be undone across (a page
    /// format or full-page image older than the target): the requested
    /// version predates the page's reconstructable history.
    HistoryHorizon {
        /// The record where rollback had to stop.
        at: Lsn,
    },
    /// The chain is inconsistent with the page (defensive check).
    ChainBroken {
        /// Diagnostic description.
        detail: String,
    },
}

impl std::fmt::Display for VersionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VersionError::Log(e) => write!(f, "log read failed: {e}"),
            VersionError::HistoryHorizon { at } => {
                write!(
                    f,
                    "version predates reconstructable history (format/image at {at})"
                )
            }
            VersionError::ChainBroken { detail } => write!(f, "per-page chain broken: {detail}"),
        }
    }
}

impl std::error::Error for VersionError {}

/// Rolls a copy of `page` back to its state as of `target_lsn`: the
/// returned image reflects exactly the log records with LSN ≤ `target_lsn`.
///
/// The input must be current (its PageLSN is the chain head). Complexity
/// is one chained log read plus one in-memory inverse application per
/// record between the page's LSN and the target — "applying dozens of log
/// records in memory should also be very fast" (Section 6).
///
/// Chain hops below the WAL truncation point fail with the log's
/// `Truncated` error; use
/// [`rollback_page_to_archived`] to resolve them from the log archive.
pub fn rollback_page_to(
    log: &LogManager,
    page: &Page,
    target_lsn: Lsn,
) -> Result<Page, VersionError> {
    rollback_page_to_archived(log, None, page, target_lsn)
}

/// [`rollback_page_to`] with a log archive attached: chain records the
/// WAL has truncated are fetched from the archive's per-page runs, so
/// snapshot versions reaching below the truncation point stay
/// reconstructable.
pub fn rollback_page_to_archived(
    log: &LogManager,
    archive: Option<&spf_archive::ArchiveStore>,
    page: &Page,
    target_lsn: Lsn,
) -> Result<Page, VersionError> {
    // The shared Truncated-to-archive fallback; without an archive the
    // log's own error (including `Truncated`) surfaces untouched.
    let read_chain_record = |page_id: spf_storage::PageId, cursor: Lsn| match archive {
        Some(store) => store
            .read_log_or_archive(log, page_id, cursor)
            .map_err(|e| VersionError::ChainBroken {
                detail: e.to_string(),
            }),
        None => log.read_record(cursor).map_err(VersionError::Log),
    };

    let mut image = page.clone();
    let mut cursor = Lsn(image.page_lsn());
    while cursor.is_valid() && cursor > target_lsn {
        let record = read_chain_record(image.page_id(), cursor)?;
        if record.page_id != image.page_id() {
            return Err(VersionError::ChainBroken {
                detail: format!(
                    "record at {cursor} names {} while rolling back {}",
                    record.page_id,
                    image.page_id()
                ),
            });
        }
        match &record.payload {
            LogPayload::Update { op } | LogPayload::Clr { op, .. } => {
                op.invert().redo(&mut image);
            }
            LogPayload::PageFormat { .. } | LogPayload::FullPageImage { .. } => {
                // The page was wholly rewritten here; its prior contents
                // are not reachable through this chain.
                return Err(VersionError::HistoryHorizon { at: cursor });
            }
            other => {
                return Err(VersionError::ChainBroken {
                    detail: format!(
                        "unexpected {} record on chain at {cursor}",
                        other.kind_name()
                    ),
                })
            }
        }
        image.set_page_lsn(record.prev_page_lsn.0);
        cursor = record.prev_page_lsn;
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{PageId, PageType, SlottedPage, DEFAULT_PAGE_SIZE};
    use spf_wal::{LogRecord, PageOp, TxId};

    /// Builds a page with a logged history of n inserts; returns the page
    /// plus the LSN after each step (index 0 = empty page state).
    fn history(log: &LogManager, n: usize) -> (Page, Vec<Lsn>) {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(5), PageType::BTreeLeaf);
        let mut lsns = vec![Lsn::NULL];
        for i in 0..n {
            let op = PageOp::InsertRecord {
                pos: i as u16,
                bytes: format!("version-{i}").into_bytes(),
                ghost: false,
            };
            let lsn = log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(5),
                prev_page_lsn: Lsn(page.page_lsn()),
                payload: LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page);
            page.set_page_lsn(lsn.0);
            lsns.push(lsn);
        }
        log.force();
        (page, lsns)
    }

    fn records_of(page: &Page) -> Vec<Vec<u8>> {
        let mut p = page.clone();
        let sp = SlottedPage::new(&mut p);
        sp.iter().map(|(_, r, _)| r.to_vec()).collect()
    }

    #[test]
    fn rollback_to_each_historic_version() {
        let log = LogManager::for_testing();
        let (page, lsns) = history(&log, 8);
        for (step, &lsn) in lsns.iter().enumerate() {
            let version = rollback_page_to(&log, &page, lsn).unwrap();
            let records = records_of(&version);
            assert_eq!(records.len(), step, "as of step {step}");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r, format!("version-{i}").as_bytes());
            }
            assert_eq!(version.page_lsn(), lsn.0);
        }
    }

    #[test]
    fn rollback_to_current_is_identity() {
        let log = LogManager::for_testing();
        let (page, lsns) = history(&log, 3);
        let same = rollback_page_to(&log, &page, *lsns.last().unwrap()).unwrap();
        assert_eq!(same.as_bytes(), page.as_bytes());
    }

    #[test]
    fn rollback_past_replace_and_ghost_ops() {
        let log = LogManager::for_testing();
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(5), PageType::BTreeLeaf);
        let ops = vec![
            PageOp::InsertRecord {
                pos: 0,
                bytes: b"a".to_vec(),
                ghost: false,
            },
            PageOp::replace(0, b"a".to_vec(), b"a", b"A2"),
            PageOp::SetGhost {
                pos: 0,
                key: b"a".to_vec(),
                old: false,
                new: true,
            },
        ];
        let mut lsns = vec![Lsn::NULL];
        for op in ops {
            let lsn = log.append(&LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(5),
                prev_page_lsn: Lsn(page.page_lsn()),
                payload: LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut page);
            page.set_page_lsn(lsn.0);
            lsns.push(lsn);
        }
        log.force();

        // As of lsns[2]: record replaced, not yet ghosted.
        let v2 = rollback_page_to(&log, &page, lsns[2]).unwrap();
        let mut p = v2.clone();
        let sp = SlottedPage::new(&mut p);
        let (bytes, ghost) = sp.record(spf_storage::SlotId(0));
        assert_eq!(bytes, b"A2");
        assert!(!ghost);

        // As of lsns[1]: original record.
        let v1 = rollback_page_to(&log, &page, lsns[1]).unwrap();
        let mut p = v1.clone();
        let sp = SlottedPage::new(&mut p);
        assert_eq!(sp.record(spf_storage::SlotId(0)).0, b"a");
    }

    #[test]
    fn rollback_stops_at_format_horizon() {
        let log = LogManager::for_testing();
        // A format record in the middle of the history.
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(5), PageType::BTreeLeaf);
        let fmt_lsn = log.append(&LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(5),
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::PageFormat {
                image: spf_wal::CompressedPageImage::capture(&page),
            },
        });
        page.set_page_lsn(fmt_lsn.0);
        let op = PageOp::InsertRecord {
            pos: 0,
            bytes: b"x".to_vec(),
            ghost: false,
        };
        let lsn = log.append(&LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(5),
            prev_page_lsn: Lsn(page.page_lsn()),
            payload: LogPayload::Update { op: op.clone() },
        });
        op.redo(&mut page);
        page.set_page_lsn(lsn.0);
        log.force();

        // Rolling back to the format LSN works (undo the one insert)…
        assert!(rollback_page_to(&log, &page, fmt_lsn).is_ok());
        // …but rolling back past it hits the horizon.
        assert!(matches!(
            rollback_page_to(&log, &page, Lsn(1)),
            Err(VersionError::HistoryHorizon { .. })
        ));
    }

    #[test]
    fn rollback_spans_a_truncated_wal_via_the_archive() {
        use spf_archive::{ArchiveStore, LogArchiver};
        use std::sync::Arc;

        let log = LogManager::for_testing();
        let (page, lsns) = history(&log, 8);
        // Reference versions computed while the WAL is still whole.
        let reference: Vec<Page> = lsns
            .iter()
            .map(|&lsn| rollback_page_to(&log, &page, lsn).unwrap())
            .collect();

        let archive = Arc::new(ArchiveStore::for_testing());
        LogArchiver::new(log.clone(), Arc::clone(&archive))
            .archive_up_to_durable()
            .unwrap();
        log.truncate_until(lsns[5]).unwrap();

        // The plain path now fails once the chain dips below the cut…
        assert!(matches!(
            rollback_page_to(&log, &page, lsns[2]),
            Err(VersionError::Log(spf_wal::LogError::Truncated { .. }))
        ));
        // …while the archive-aware path reconstructs every version
        // byte-for-byte.
        for (step, &lsn) in lsns.iter().enumerate() {
            let version = rollback_page_to_archived(&log, Some(&archive), &page, lsn).unwrap();
            assert_eq!(
                version.as_bytes(),
                reference[step].as_bytes(),
                "version as of step {step}"
            );
        }
    }

    #[test]
    fn cross_page_chain_is_rejected() {
        let log = LogManager::for_testing();
        let (page, _) = history(&log, 2);
        // Forge a page claiming its chain head is another page's record.
        let mut forged = page.clone();
        let other = {
            let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(9), PageType::BTreeLeaf);
            let op = PageOp::InsertRecord {
                pos: 0,
                bytes: b"o".to_vec(),
                ghost: false,
            };
            let lsn = log.append(&LogRecord {
                tx_id: TxId(2),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(9),
                prev_page_lsn: Lsn::NULL,
                payload: LogPayload::Update { op: op.clone() },
            });
            op.redo(&mut p);
            p.set_page_lsn(lsn.0);
            lsn
        };
        log.force();
        forged.set_page_lsn(other.0);
        assert!(matches!(
            rollback_page_to(&log, &forged, Lsn(1)),
            Err(VersionError::ChainBroken { .. })
        ));
    }
}
