//! PRI maintenance and the read-time PageLSN cross-check.
//!
//! [`PriMaintainer`] implements the buffer pool's hook traits and realizes
//! the paper's Figures 8 and 11:
//!
//! * `before_page_write` — the backup policy of Section 6: "fast
//!   single-page recovery can be ensured with a page backup after a number
//!   of updates …. The number of updates can be counted within the page."
//!   When the page's update counter reaches the policy threshold, an
//!   explicit backup copy is written, a BackupTaken record logged, and the
//!   *old* backup freed afterwards.
//! * `after_page_write` — "after each completed page write follows a
//!   single log record" (Section 5.2.4): a PriUpdate record carrying the
//!   written PageLSN. It is appended but **not forced** — it rides as a
//!   single-record system transaction. The in-memory PRI is updated
//!   immediately.
//! * `validate` — Figure 8 plus the acknowledgement ("Gary Smith suggested
//!   comparing the PageLSN of a page newly read into the buffer pool with
//!   the information in the page recovery index"): a page whose PageLSN is
//!   *older* than the PRI's record is a lost write — the only failure mode
//!   in-page tests cannot see.

use std::sync::Arc;

use parking_lot::Mutex;

use spf_buffer::{ReadValidator, ValidationError, WriteObserver};
use spf_storage::{Page, PageId};
use spf_wal::{BackupRef, LogManager, LogPayload, LogRecord, Lsn, TxId};

use crate::backup::BackupStore;
use crate::pri::PageRecoveryIndex;

/// When to take an explicit page backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackupPolicy {
    /// Take a page backup when a page has accumulated this many updates
    /// since its last backup ("a conservative policy might take such a
    /// copy after every 100 updates of a data page"). `None` disables
    /// explicit page backups.
    pub every_n_updates: Option<u32>,
}

impl BackupPolicy {
    /// The paper's example policy: backup after every 100 updates.
    #[must_use]
    pub const fn paper_default() -> Self {
        Self {
            every_n_updates: Some(100),
        }
    }

    /// No explicit page backups (rely on format records / full backups).
    #[must_use]
    pub const fn disabled() -> Self {
        Self {
            every_n_updates: None,
        }
    }
}

/// Maintainer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainerStats {
    /// PriUpdate records logged (== completed page writes observed).
    pub pri_updates_logged: u64,
    /// Policy-triggered page backups taken.
    pub policy_backups: u64,
    /// Stale-PageLSN detections by the read validator.
    pub stale_detections: u64,
}

impl spf_obs::Observable for MaintainerStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("pri_updates_logged", self.pri_updates_logged)
            .counter("policy_backups", self.policy_backups)
            .counter("stale_detections", self.stale_detections);
    }
}

/// Implements the pool's [`WriteObserver`] and [`ReadValidator`] on top of
/// the PRI, the log, and the backup store.
pub struct PriMaintainer {
    pri: Arc<PageRecoveryIndex>,
    log: LogManager,
    backups: Arc<BackupStore>,
    policy: BackupPolicy,
    stats: Mutex<MaintainerStats>,
    /// Superseded backup slots awaiting the durability of the BackupTaken
    /// record that replaced them. Freeing earlier would let the slot be
    /// recycled while a crash could still roll the log back to a state
    /// where the page recovery index points at it ("it is not a good idea
    /// to overwrite an existing backup page", §5.2.2 — extended across
    /// the durability boundary).
    pending_frees: Mutex<Vec<(Lsn, PageId)>>,
}

impl PriMaintainer {
    /// Creates a maintainer.
    #[must_use]
    pub fn new(
        pri: Arc<PageRecoveryIndex>,
        log: LogManager,
        backups: Arc<BackupStore>,
        policy: BackupPolicy,
    ) -> Self {
        Self {
            pri,
            log,
            backups,
            policy,
            stats: Mutex::new(MaintainerStats::default()),
            pending_frees: Mutex::new(Vec::new()),
        }
    }

    /// Frees superseded backup slots whose superseding record is durable.
    fn drain_pending_frees(&self) {
        let durable = self.log.durable_lsn();
        let mut pending = self.pending_frees.lock();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 < durable {
                let (_, slot) = pending.swap_remove(i);
                self.backups.free_backup(slot);
            } else {
                i += 1;
            }
        }
    }

    /// Called after a simulated crash: pending frees whose records were
    /// lost must never be freed (the rebuilt PRI may still reference the
    /// old slots). The slots leak until reorganization — a documented,
    /// bounded cost of the no-force discipline.
    pub fn on_crash(&self) {
        self.pending_frees.lock().clear();
    }

    /// The backup policy in force.
    #[must_use]
    pub fn policy(&self) -> BackupPolicy {
        self.policy
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MaintainerStats {
        *self.stats.lock()
    }
}

impl WriteObserver for PriMaintainer {
    fn before_page_write(&self, page: &mut Page) {
        let Some(n) = self.policy.every_n_updates else {
            return;
        };
        if page.update_count() < n {
            return;
        }
        let id = page.page_id();
        // New backup first; free the old one only afterwards.
        let Ok(slot) = self.backups.take_page_backup(page) else {
            return; // backup device trouble: skip, the old backup stands
        };
        let backup = BackupRef::BackupPage(slot);
        let page_lsn = Lsn(page.page_lsn());
        // The index first, then its record: a checkpoint that reads the
        // log end after the record was appended also finds the index
        // updated (see the restart invariant in `system_recovery`).
        let old = self.pri.set_backup(id, backup, page_lsn);
        // Single-record system transaction: appended, not forced.
        let record_lsn = self.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: id,
            prev_page_lsn: Lsn::NULL, // not part of the content chain
            payload: LogPayload::BackupTaken { backup, page_lsn },
        });
        if let Some(BackupRef::BackupPage(old_slot)) = old {
            // Deferred: freed only once the record above is durable.
            self.pending_frees.lock().push((record_lsn, old_slot));
        }
        self.drain_pending_frees();
        page.reset_update_count();
        self.stats.lock().policy_backups += 1;
    }

    fn page_formatted(&self, id: PageId, format_lsn: Lsn) {
        // A format record doubles as the page's backup copy.
        self.pri
            .set_backup(id, BackupRef::FormatRecord(format_lsn), format_lsn);
    }

    fn after_page_write(&self, id: PageId, page_lsn: Lsn) {
        // "After each completed page write follows a single log record" —
        // appended after the index is set, as in `before_page_write`.
        let backup = self.pri.lookup(id).map_or(BackupRef::None, |e| e.backup);
        self.pri.set_latest_lsn(id, page_lsn);
        self.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: id,
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::PriUpdate { page_lsn, backup },
        });
        self.stats.lock().pri_updates_logged += 1;
    }
}

impl ReadValidator for PriMaintainer {
    fn validate(&self, id: PageId, page: &Page) -> Result<(), ValidationError> {
        let Some(entry) = self.pri.lookup(id) else {
            return Ok(()); // untracked page: nothing to compare against
        };
        // Figure 7: the LSN field is "valid only if the page … has been
        // updated since the last backup". Without it, the exact durable
        // PageLSN is unknown (e.g. a range entry from a full backup) and
        // no staleness verdict is possible.
        let Some(expected) = entry.latest_lsn else {
            return Ok(());
        };
        let found = Lsn(page.page_lsn());
        if found < expected {
            self.stats.lock().stale_detections += 1;
            return Err(ValidationError::StaleLsn { found, expected });
        }
        // found > expected can only mean the PRI missed a completed write
        // (e.g. its log record was lost in a crash); the page itself is
        // newer and fine. Repair the PRI opportunistically (Figure 12's
        // "create a log record for the page recovery index").
        if found > expected {
            self.pri.set_latest_lsn(id, found);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{Device, PageType, DEFAULT_PAGE_SIZE};

    fn setup(
        policy: BackupPolicy,
    ) -> (
        Arc<PageRecoveryIndex>,
        LogManager,
        Arc<BackupStore>,
        PriMaintainer,
    ) {
        let pri = Arc::new(PageRecoveryIndex::new());
        let log = LogManager::for_testing();
        let backups = Arc::new(BackupStore::new(Device::for_testing(DEFAULT_PAGE_SIZE, 8)));
        let maintainer =
            PriMaintainer::new(Arc::clone(&pri), log.clone(), Arc::clone(&backups), policy);
        (pri, log, backups, maintainer)
    }

    fn page_with_updates(id: u64, updates: u32, final_lsn: u64) -> Page {
        let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        for i in 0..updates {
            p.set_page_lsn(u64::from(i) + 1);
        }
        p.set_page_lsn(final_lsn);
        p
    }

    #[test]
    fn after_write_logs_one_record_and_updates_pri() {
        let (pri, log, _backups, maintainer) = setup(BackupPolicy::disabled());
        let before = log.stats().records_appended;
        maintainer.after_page_write(PageId(3), Lsn(77));
        let stats = log.stats();
        assert_eq!(
            stats.records_appended,
            before + 1,
            "exactly one record per write"
        );
        assert_eq!(stats.appends_of("pri-update"), 1);
        assert_eq!(pri.lookup(PageId(3)).unwrap().latest_lsn, Some(Lsn(77)));
        // Not forced: the record sits in the log buffer.
        assert!(log.durable_lsn() < log.end_lsn());
    }

    #[test]
    fn policy_triggers_backup_and_frees_old() {
        let (pri, log, backups, maintainer) = setup(BackupPolicy {
            every_n_updates: Some(10),
        });
        // Below threshold: nothing happens.
        let mut page = page_with_updates(5, 3, 30);
        maintainer.before_page_write(&mut page);
        assert_eq!(backups.stats().page_backups_taken, 0);

        // At threshold: backup taken, counter reset, BackupTaken logged.
        let mut page = page_with_updates(5, 12, 40);
        maintainer.before_page_write(&mut page);
        assert_eq!(backups.stats().page_backups_taken, 1);
        assert_eq!(page.update_count(), 0, "counter reset after backup");
        assert_eq!(log.stats().appends_of("backup-taken"), 1);
        let entry = pri.lookup(PageId(5)).unwrap();
        assert!(matches!(entry.backup, BackupRef::BackupPage(_)));
        assert_eq!(entry.backup_lsn, Lsn(40));

        // A second backup supersedes the first slot, but the free is
        // deferred until the superseding record is durable.
        let mut page = page_with_updates(5, 15, 50);
        maintainer.before_page_write(&mut page);
        assert_eq!(backups.stats().page_backups_taken, 2);
        assert_eq!(backups.stats().backups_freed, 0, "record not durable yet");
        log.force();
        // The next maintenance pass drains the pending free.
        let mut page = page_with_updates(5, 15, 60);
        maintainer.before_page_write(&mut page);
        assert_eq!(backups.stats().backups_freed, 1);

        // Pending frees are dropped, not freed, on a crash.
        let mut page = page_with_updates(5, 15, 70);
        maintainer.before_page_write(&mut page);
        maintainer.on_crash();
        log.force();
        let mut page = page_with_updates(5, 15, 80);
        maintainer.before_page_write(&mut page);
        assert_eq!(
            backups.stats().backups_freed,
            1,
            "slots superseded by lost records leak rather than free"
        );
    }

    #[test]
    fn validator_catches_stale_pages_only() {
        let (pri, _log, _backups, maintainer) = setup(BackupPolicy::disabled());
        pri.set_backup(PageId(7), BackupRef::None, Lsn(10));
        pri.set_latest_lsn(PageId(7), Lsn(100));

        // Exact match: fine.
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(7), PageType::BTreeLeaf);
        page.set_page_lsn(100);
        assert!(maintainer.validate(PageId(7), &page).is_ok());

        // Older: stale (the lost write the paper's cross-check exists for).
        page.set_page_lsn(50);
        assert_eq!(
            maintainer.validate(PageId(7), &page),
            Err(ValidationError::StaleLsn {
                found: Lsn(50),
                expected: Lsn(100)
            })
        );
        assert_eq!(maintainer.stats().stale_detections, 1);

        // Newer: the PRI lost an update; accept and self-repair.
        page.set_page_lsn(120);
        assert!(maintainer.validate(PageId(7), &page).is_ok());
        assert_eq!(pri.lookup(PageId(7)).unwrap().latest_lsn, Some(Lsn(120)));
    }

    #[test]
    fn validator_is_silent_without_latest_lsn() {
        // Figure 7: the LSN field is valid only for pages updated since
        // the last backup. A fresh full backup leaves no per-page LSN,
        // so no staleness verdict is possible.
        let (pri, _log, _backups, maintainer) = setup(BackupPolicy::disabled());
        pri.set_backup(PageId(9), BackupRef::BackupPage(PageId(0)), Lsn(60));
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(9), PageType::BTreeLeaf);
        page.set_page_lsn(60);
        assert!(maintainer.validate(PageId(9), &page).is_ok());
        page.set_page_lsn(5);
        assert!(maintainer.validate(PageId(9), &page).is_ok());
    }

    #[test]
    fn untracked_pages_pass() {
        let (_pri, _log, _backups, maintainer) = setup(BackupPolicy::disabled());
        let page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::BTreeLeaf);
        assert!(maintainer.validate(PageId(1), &page).is_ok());
    }
}
