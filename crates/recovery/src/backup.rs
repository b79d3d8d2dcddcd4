//! Sources of backup pages (paper Section 5.2.1).
//!
//! The paper lists four sources of an earlier copy of a failed page:
//! a database backup, explicit per-page copies taken during normal
//! processing, images retained by page migration, and the recovery log
//! itself (format records and occasional full-page images). The
//! [`BackupStore`] holds the explicit copies — "note that taking copies of
//! frequently updated data pages takes less space than a traditional
//! differential backup, because these backups need space only for pages
//! with many updates rather than for pages with any updates" — and the
//! full-database backup used by media recovery.
//!
//! Backup pages live on their own simulated device (as a real system
//! would put them on direct-access media separate from the data device;
//! "the backup should be on direct-access media, e.g., disk rather than
//! tape"). Slots are allocated append-only and freed explicitly: "it is
//! not a good idea to overwrite an existing backup page, because the
//! backup and recovery functionality are lost if this write operation
//! fails" — a new backup is written before the old one is freed.

use parking_lot::Mutex;

use spf_storage::{Device, Page, PageId, StorageDevice, StorageError};

/// Backup-store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackupStats {
    /// Individual page backups written.
    pub page_backups_taken: u64,
    /// Backup slots freed (superseded copies).
    pub backups_freed: u64,
    /// Pages written by full-database backups.
    pub full_backup_pages: u64,
    /// Backup pages read back during recovery.
    pub backup_reads: u64,
}

impl spf_obs::Observable for BackupStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("page_backups_taken", self.page_backups_taken)
            .counter("backups_freed", self.backups_freed)
            .counter("full_backup_pages", self.full_backup_pages)
            .counter("backup_reads", self.backup_reads);
    }
}

/// The backup store: explicit page copies plus full-database backups, on
/// a dedicated simulated device.
pub struct BackupStore {
    device: Device,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    next_slot: u64,
    free_slots: Vec<u64>,
    stats: BackupStats,
}

impl std::fmt::Debug for BackupStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupStore")
            .field("next_slot", &self.state.lock().next_slot)
            .finish()
    }
}

impl BackupStore {
    /// Creates a store on `device` (typically a dedicated [`Device`]
    /// sharing the system's simulated clock).
    #[must_use]
    pub fn new(device: Device) -> Self {
        Self {
            device,
            state: Mutex::new(State::default()),
        }
    }

    /// Creates a store over a device a previous incarnation used.
    /// Allocation resumes past the device's capacity — any slot below
    /// may still be named by the durable page recovery index — until
    /// [`reclaim_after_restart`](BackupStore::reclaim_after_restart)
    /// learns which ones are.
    #[must_use]
    pub fn reopened(device: Device) -> Self {
        let store = Self::new(device);
        store.state.lock().next_slot = store.device.capacity();
        store
    }

    /// Rebuilds the volatile allocation state after a restart: every
    /// slot below the device's capacity that `in_use` does not claim is
    /// free, and fresh allocation resumes at the capacity. `in_use` must
    /// name every slot the recovered state still points at — the page
    /// recovery index's backups and any full backup media recovery may
    /// restore — and nothing else need survive: a slot named only by a
    /// record the crash took back holds no backup anyone can find.
    pub fn reclaim_after_restart(&self, in_use: impl Fn(u64) -> bool) {
        let capacity = self.device.capacity();
        let mut state = self.state.lock();
        state.next_slot = capacity;
        // Popped from the back: hand out the lowest slots first.
        state.free_slots = (0..capacity).rev().filter(|&s| !in_use(s)).collect();
    }

    /// The underlying device (for statistics).
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn allocate_slot(&self) -> Result<PageId, StorageError> {
        let mut state = self.state.lock();
        if let Some(slot) = state.free_slots.pop() {
            return Ok(PageId(slot));
        }
        let slot = state.next_slot;
        if slot >= self.device.capacity() {
            self.device.ensure_capacity(slot.saturating_add(64))?;
        }
        state.next_slot += 1;
        Ok(PageId(slot))
    }

    /// Writes an explicit backup copy of `page`, returning the backup
    /// slot. The caller frees the previous copy *afterwards* (the paper's
    /// ordering: for an instant, old and new backups coexist).
    pub fn take_page_backup(&self, page: &Page) -> Result<PageId, StorageError> {
        let slot = self.allocate_slot()?;
        let mut image = page.clone();
        image.finalize_checksum();
        self.device.write_page(slot, image.as_bytes())?;
        self.state.lock().stats.page_backups_taken += 1;
        Ok(slot)
    }

    /// Frees a superseded backup slot.
    pub fn free_backup(&self, slot: PageId) {
        let mut state = self.state.lock();
        state.free_slots.push(slot.0);
        state.stats.backups_freed += 1;
    }

    /// Reads a backup image back (one random I/O — the "+1 I/O for the
    /// backup page" of Section 6). Verifies the image against the data
    /// page id it claims to hold.
    pub fn read_backup(&self, slot: PageId, expected_data_page: PageId) -> Result<Page, String> {
        let mut buf = vec![0u8; self.device.page_size()];
        self.device
            .read_page(slot, &mut buf)
            .map_err(|e| format!("backup read failed: {e}"))?;
        self.state.lock().stats.backup_reads += 1;
        let page = Page::from_bytes(buf);
        page.verify(expected_data_page)
            .map_err(|d| format!("backup image for {expected_data_page} is itself bad: {d}"))?;
        Ok(page)
    }

    /// Takes a full backup of `data` pages `[0, n)`: sequential read of
    /// the database, sequential write of the backup. Returns the first
    /// backup slot; page `i` lands at `first + i`.
    ///
    /// The data pages are read through the *raw* (fault-bypassing) path:
    /// a real backup would read through the same verification as any
    /// other consumer, but backup scheduling/verification interplay is
    /// not what the paper evaluates.
    pub fn take_full_backup(&self, data: &Device, n: u64) -> Result<PageId, StorageError> {
        let first = {
            let mut state = self.state.lock();
            let first = state.next_slot;
            self.device.ensure_capacity(first.saturating_add(n))?;
            state.next_slot = first + n;
            first
        };
        let page_size = data.page_size();
        let mut buf = vec![0u8; page_size];
        for i in 0..n {
            data.read_page_seq(PageId(i), &mut buf)?;
            self.device.write_page_seq(PageId(first + i), &buf)?;
        }
        self.state.lock().stats.full_backup_pages += n;
        Ok(PageId(first))
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> BackupStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{PageType, DEFAULT_PAGE_SIZE};

    fn store() -> BackupStore {
        BackupStore::new(Device::for_testing(DEFAULT_PAGE_SIZE, 8))
    }

    fn sample_page(id: u64, lsn: u64) -> Page {
        let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        p.set_page_lsn(lsn);
        p.finalize_checksum();
        p
    }

    #[test]
    fn backup_round_trip() {
        let store = store();
        let page = sample_page(42, 7);
        let slot = store.take_page_backup(&page).unwrap();
        let restored = store.read_backup(slot, PageId(42)).unwrap();
        assert_eq!(restored.page_lsn(), 7);
        assert_eq!(restored.as_bytes(), page.as_bytes());
    }

    #[test]
    fn read_wrong_slot_is_detected() {
        let store = store();
        let slot_a = store.take_page_backup(&sample_page(1, 1)).unwrap();
        let _slot_b = store.take_page_backup(&sample_page(2, 2)).unwrap();
        // Asking slot A for page 2's backup fails the self-id check.
        assert!(store.read_backup(slot_a, PageId(2)).is_err());
    }

    #[test]
    fn freed_slots_are_reused() {
        let store = store();
        let a = store.take_page_backup(&sample_page(1, 1)).unwrap();
        store.free_backup(a);
        let b = store.take_page_backup(&sample_page(2, 2)).unwrap();
        assert_eq!(a, b, "freed slot must be recycled");
        let stats = store.stats();
        assert_eq!(stats.page_backups_taken, 2);
        assert_eq!(stats.backups_freed, 1);
    }

    #[test]
    fn reclaim_frees_every_unclaimed_slot_below_capacity() {
        let store = store();
        for i in 0..5 {
            store.take_page_backup(&sample_page(i, i)).unwrap();
        }
        // A restart finds slots 1 and 3 still named; the rest are free,
        // lowest first, and no allocation grows the device.
        store.reclaim_after_restart(|s| s == 1 || s == 3);
        let capacity = store.device.capacity();
        let got: Vec<u64> = (0..capacity - 2)
            .map(|i| store.take_page_backup(&sample_page(i, i)).unwrap().0)
            .collect();
        let want: Vec<u64> = (0..capacity).filter(|&s| s != 1 && s != 3).collect();
        assert_eq!(got, want);
        assert_eq!(store.device.capacity(), capacity);
    }

    #[test]
    fn store_grows_on_demand() {
        let store = store();
        for i in 0..50 {
            store.take_page_backup(&sample_page(i, i)).unwrap();
        }
        assert!(store.device.capacity() >= 50);
    }

    #[test]
    fn full_backup_copies_everything() {
        let data = Device::for_testing(DEFAULT_PAGE_SIZE, 16);
        for i in 0..16 {
            let p = sample_page(i, 100 + i);
            data.raw_overwrite(PageId(i), p.as_bytes());
        }
        let store = store();
        let first = store.take_full_backup(&data, 16).unwrap();
        for i in 0..16 {
            let restored = store.read_backup(PageId(first.0 + i), PageId(i)).unwrap();
            assert_eq!(restored.page_lsn(), 100 + i);
        }
        assert_eq!(store.stats().full_backup_pages, 16);
        // Sequential I/O was used on both sides.
        assert_eq!(data.stats().sequential_reads, 16);
        assert!(store.device.stats().sequential_writes >= 16);
    }
}
