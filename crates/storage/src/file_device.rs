//! The file store under a [`Device`]: an explicit durability boundary.
//!
//! Pages live at byte offset `id * page_size` of a single data file,
//! read and written with positional I/O. The crucial difference from
//! the RAM store is the **write cache**: an acknowledged write lands in
//! a process-heap cache and reaches the file only at
//! [`StorageDevice::sync`]. A process killed between the two genuinely
//! loses the cached bytes — exactly the discipline the paper's recovery
//! ladder assumes of real storage ("a write is not durable until the
//! device acknowledges the flush"), and the property the kill-and-reopen
//! oracle (experiment e19) exercises.
//!
//! Reads and writes go through the device's one fault path; sync
//! additionally consults the injector's sync hook per cached page, which
//! is where the file-only faults fire — [`crate::FaultSpec::LostWriteAtSync`]
//! (fsync acknowledged, bytes dropped) and
//! [`crate::FaultSpec::FailStopDuringSync`] (a power failure mid-fsync:
//! a prefix of one page reaches the platter, then the process aborts).
//!
//! [`Device`]: crate::Device
//! [`StorageDevice::sync`]: crate::StorageDevice::sync

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::device::StorageError;
use crate::fault::{FaultInjector, SyncOutcome};
use crate::page::PageId;

/// Acknowledged-but-unsynced writes, keyed by page id. `BTreeMap` so
/// sync flushes in deterministic (ascending page) order — fail-stop
/// kill points must be reproducible.
pub(crate) type Cache = BTreeMap<u64, Box<[u8]>>;

/// A data file behind its write cache.
pub(crate) struct FileStore {
    pub(crate) path: PathBuf,
    file: File,
    capacity: AtomicU64,
    /// The write cache. Its lock also serializes file I/O and growth:
    /// a read holds it across the `pread`, because `sync` takes the
    /// cache before it writes the file.
    pub(crate) cache: Mutex<Cache>,
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io {
        context: format!("{op} {}: {e}", path.display()),
    }
}

impl FileStore {
    /// Creates (truncating any existing file) `bytes` of zeroes holding
    /// `capacity` pages at `path`. The file is sparse.
    pub(crate) fn create(path: &Path, capacity: u64, bytes: u64) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, &e))?;
        file.set_len(bytes).map_err(|e| io_err("size", path, &e))?;
        file.sync_all().map_err(|e| io_err("sync", path, &e))?;
        Ok(Self::new(file, path, capacity))
    }

    /// Opens an existing file; capacity is its length in pages (a torn
    /// trailing partial page — possible after a fail-stop during growth
    /// — is excluded).
    pub(crate) fn open(path: &Path, page_size: usize) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        let len = file.metadata().map_err(|e| io_err("stat", path, &e))?.len();
        Ok(Self::new(file, path, len / page_size as u64))
    }

    fn new(file: File, path: &Path, capacity: u64) -> Self {
        Self {
            path: path.to_path_buf(),
            file,
            capacity: AtomicU64::new(capacity),
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Acquire)
    }

    /// Copies the acknowledged image of `id` into `buf`: the cached
    /// write if one is pending, else the file bytes. `cache` is the
    /// locked write cache.
    pub(crate) fn fetch(
        &self,
        cache: &Cache,
        id: PageId,
        buf: &mut [u8],
    ) -> Result<(), StorageError> {
        if let Some(image) = cache.get(&id.0) {
            buf.copy_from_slice(image);
            return Ok(());
        }
        self.file
            .read_exact_at(buf, id.0 * buf.len() as u64)
            .map_err(|e| io_err("read", &self.path, &e))
    }

    /// Extends the file to `pages` pages (`bytes` long) unless it
    /// already holds that many. The extension is sparse and
    /// metadata-only until the next sync.
    pub(crate) fn ensure_capacity(&self, pages: u64, bytes: u64) -> Result<(), StorageError> {
        let _cache = self.cache.lock();
        if pages > self.capacity() {
            self.file
                .set_len(bytes)
                .map_err(|e| io_err("grow", &self.path, &e))?;
            self.capacity.store(pages, Ordering::Release);
        }
        Ok(())
    }

    /// Writes `image` straight to the file, discarding any cached write
    /// of `id`.
    pub(crate) fn overwrite(&self, id: PageId, image: &[u8]) {
        let mut cache = self.cache.lock();
        cache.remove(&id.0);
        self.file
            .write_all_at(image, id.0 * image.len() as u64)
            .expect("raw_overwrite of an in-range page");
    }

    /// Flushes the write cache to the file (ascending page order) and
    /// fsyncs. Sync-time faults fire here: a page armed with
    /// [`crate::FaultSpec::LostWriteAtSync`] is acknowledged but skipped;
    /// one armed with [`crate::FaultSpec::FailStopDuringSync`] persists a
    /// prefix, fsyncs what made it, and aborts the process.
    pub(crate) fn sync(&self, injector: &FaultInjector) -> Result<(), StorageError> {
        let write = |image: &[u8], off: u64| {
            self.file
                .write_all_at(image, off)
                .map_err(|e| io_err("write", &self.path, &e))
        };
        let mut cache = self.cache.lock();
        for (id, image) in std::mem::take(&mut *cache) {
            let off = id * image.len() as u64;
            match injector.on_sync(PageId(id)) {
                SyncOutcome::Persist => write(&image, off)?,
                // Lost write: acknowledged durable, never persisted.
                SyncOutcome::Drop => {}
                SyncOutcome::FailStop(prefix) => {
                    write(&image[..prefix.min(image.len())], off)?;
                    let _ = self.file.sync_data();
                    // Power failure mid-fsync: no destructors, no flushes.
                    std::process::abort();
                }
            }
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.path, &e))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spf_util::{IoCostModel, SimClock};
    use tempdir::TempDir;

    use crate::device::{Device, StorageDevice, StorageError};
    use crate::fault::FaultSpec;
    use crate::page::{Page, PageId, PageType, DEFAULT_PAGE_SIZE};

    fn reopen(path: &std::path::Path) -> Device {
        let clock = Arc::new(SimClock::new());
        Device::open_file(path, DEFAULT_PAGE_SIZE, clock, IoCostModel::free(), 0).unwrap()
    }

    fn fresh(capacity: u64) -> (TempDir, Device) {
        let dir = TempDir::new("spf-file-device").unwrap();
        let (path, clock) = (dir.path().join("data.db"), Arc::new(SimClock::new()));
        let dev = Device::create_file(
            &path,
            DEFAULT_PAGE_SIZE,
            capacity,
            clock,
            IoCostModel::free(),
            0,
        );
        (dir, dev.unwrap())
    }

    fn formatted(id: u64, lsn: u64) -> Page {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        page.set_page_lsn(lsn);
        page.finalize_checksum();
        page
    }

    fn read(dev: &Device, id: u64) -> Vec<u8> {
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(id), &mut buf).unwrap();
        buf
    }

    #[test]
    fn write_read_round_trip_and_reopen() {
        let (dir, dev) = fresh(8);
        let page = formatted(3, 77);
        dev.write_page(PageId(3), page.as_bytes()).unwrap();
        assert_eq!(read(&dev, 3), page.as_bytes());

        dev.sync().unwrap();
        drop(dev);
        let reopened = reopen(&dir.path().join("data.db"));
        assert_eq!(reopened.capacity(), 8);
        assert_eq!(
            read(&reopened, 3),
            page.as_bytes(),
            "synced write survives reopen"
        );
    }

    #[test]
    fn unsynced_writes_are_served_but_not_durable() {
        let (dir, dev) = fresh(8);
        let path = dir.path().join("data.db");
        let (synced, unsynced) = (formatted(2, 5), formatted(4, 6));
        dev.write_page(PageId(2), synced.as_bytes()).unwrap();
        dev.sync().unwrap();
        dev.write_page(PageId(4), unsynced.as_bytes()).unwrap();
        // The acknowledged image is visible to reads…
        assert_eq!(read(&dev, 4), unsynced.as_bytes());
        assert_eq!(dev.stats().syncs, 1);
        // …but a kill here loses it: only the synced write reopens.
        drop(dev);
        let reopened = reopen(&path);
        assert_eq!(read(&reopened, 2), synced.as_bytes());
        assert!(read(&reopened, 4).iter().all(|&b| b == 0));
    }

    #[test]
    fn lost_write_at_sync_keeps_old_durable_image() {
        let (_dir, dev) = fresh(8);
        let old = formatted(1, 10);
        dev.write_page(PageId(1), old.as_bytes()).unwrap();
        dev.sync().unwrap();

        dev.inject_fault(PageId(1), FaultSpec::LostWriteAtSync);
        let new = formatted(1, 20);
        dev.write_page(PageId(1), new.as_bytes()).unwrap();
        dev.sync().unwrap(); // acknowledges — but dropped the page

        let page = Page::from_bytes(read(&dev, 1));
        assert_eq!(page.verify(PageId(1)), Ok(()), "internally consistent");
        assert_eq!(page.page_lsn(), 10, "only the PageLSN cross-check can tell");

        // The fault is one-shot: the next write+sync goes through.
        dev.write_page(PageId(1), new.as_bytes()).unwrap();
        dev.sync().unwrap();
        assert_eq!(Page::from_bytes(read(&dev, 1)).page_lsn(), 20);
    }

    #[test]
    fn torn_write_merges_prefix_over_old_image() {
        let (_dir, dev) = fresh(8);
        let mut old = formatted(7, 1);
        {
            let mut sp = crate::SlottedPage::new(&mut old);
            for i in 0..100 {
                sp.push(format!("rec{i}").as_bytes(), false).unwrap();
            }
        }
        old.finalize_checksum();
        dev.write_page(PageId(7), old.as_bytes()).unwrap();
        dev.sync().unwrap();
        dev.inject_fault(
            PageId(7),
            FaultSpec::TornWrite {
                persisted_prefix: 100,
            },
        );
        let new = formatted(7, 2);
        dev.write_page(PageId(7), new.as_bytes()).unwrap();
        dev.sync().unwrap();
        let buf = read(&dev, 7);
        assert_eq!(&buf[..100], &new.as_bytes()[..100]);
        assert_eq!(&buf[100..], &old.as_bytes()[100..]);
        assert!(Page::from_bytes(buf).verify(PageId(7)).is_err());
    }

    #[test]
    fn growth_the_file_system_refuses_is_an_error() {
        let (_dir, dev) = fresh(4);
        // The byte length fits in a u64 but not in a file: `set_len`
        // fails, and the device reports it instead of panicking.
        let result = dev.ensure_capacity(u64::MAX / DEFAULT_PAGE_SIZE as u64);
        assert!(matches!(result, Err(StorageError::Io { .. })), "{result:?}");
        assert_eq!(dev.capacity(), 4);
    }
}
