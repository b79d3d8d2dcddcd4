//! A file-backed [`StorageDevice`] with an explicit durability boundary.
//!
//! `FileDevice` stores pages at byte offset `id * page_size` of a single
//! data file, read and written with positional I/O. The crucial
//! difference from [`crate::MemDevice`] is the **write cache**: an
//! acknowledged write lands in a process-heap cache and reaches the file
//! only at [`StorageDevice::sync`]. A process killed between the two
//! genuinely loses the cached bytes — exactly the discipline the paper's
//! recovery ladder assumes of real storage ("a write is not durable
//! until the device acknowledges the flush"), and the property the
//! kill-and-reopen oracle (experiment e19) exercises.
//!
//! The shared [`FaultInjector`] is layered *on top of the file*: reads
//! and writes consult it like `MemDevice` does, and sync additionally
//! consults the injector's sync hook per cached page, which is where
//! the file-specific faults fire — [`crate::FaultSpec::LostWriteAtSync`]
//! (fsync acknowledged, bytes dropped) and
//! [`crate::FaultSpec::FailStopDuringSync`] (a power failure mid-fsync:
//! a prefix of one page reaches the platter, then the process aborts).
//!
//! I/O is charged to the shared [`SimClock`] with the same cost model as
//! `MemDevice`, so simulated-time experiments are device-agnostic; flip
//! [`FileDevice::set_wall_clock`] on for real-device benchmark rows
//! where the wall clock itself is the measurement.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use spf_util::{IoCostModel, IoKind, SimClock};

use crate::device::{DeviceCounters, DeviceStats, StorageDevice, StorageError};
use crate::fault::{FaultInjector, FaultSpec, ReadOutcome, SyncOutcome, WriteOutcome};
use crate::page::PageId;

/// File-backed storage device. Cloning is cheap and shares the file,
/// the write cache, and the fault injector.
#[derive(Clone)]
pub struct FileDevice {
    inner: Arc<Inner>,
}

struct Inner {
    page_size: usize,
    path: PathBuf,
    file: File,
    capacity: AtomicU64,
    /// Acknowledged-but-unsynced writes, keyed by page id. `BTreeMap` so
    /// sync flushes in deterministic (ascending page) order — fail-stop
    /// kill points must be reproducible. The lock also serializes file
    /// I/O and growth.
    cache: Mutex<BTreeMap<u64, Box<[u8]>>>,
    injector: FaultInjector,
    counters: DeviceCounters,
    clock: Arc<SimClock>,
    cost: IoCostModel,
    /// When set, skip simulated-clock charging: elapsed wall time on the
    /// real file is the measurement.
    wall_clock: AtomicBool,
}

impl std::fmt::Debug for FileDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDevice")
            .field("path", &self.inner.path)
            .field("page_size", &self.inner.page_size)
            .field("capacity", &self.capacity())
            .finish()
    }
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io {
        context: format!("{op} {}: {e}", path.display()),
    }
}

impl FileDevice {
    /// Creates (truncating any existing file) a device of `capacity`
    /// zeroed pages at `path`.
    pub fn create(
        path: &Path,
        page_size: usize,
        capacity: u64,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, &e))?;
        file.set_len(capacity * page_size as u64)
            .map_err(|e| io_err("size", path, &e))?;
        file.sync_all().map_err(|e| io_err("sync", path, &e))?;
        Ok(Self::from_file(
            file, path, page_size, capacity, clock, cost, seed,
        ))
    }

    /// Opens an existing device file; capacity is its length in pages
    /// (a torn trailing partial page — possible after a fail-stop during
    /// growth — is excluded).
    pub fn open(
        path: &Path,
        page_size: usize,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        let len = file.metadata().map_err(|e| io_err("stat", path, &e))?.len();
        let capacity = len / page_size as u64;
        Ok(Self::from_file(
            file, path, page_size, capacity, clock, cost, seed,
        ))
    }

    fn from_file(
        file: File,
        path: &Path,
        page_size: usize,
        capacity: u64,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                page_size,
                path: path.to_path_buf(),
                file,
                capacity: AtomicU64::new(capacity),
                cache: Mutex::new(BTreeMap::new()),
                injector: FaultInjector::new(seed),
                counters: DeviceCounters::default(),
                clock,
                cost,
                wall_clock: AtomicBool::new(false),
            }),
        }
    }

    /// The backing file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The device's fault injector.
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.inner.injector
    }

    /// The simulated clock this device charges.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.inner.clock
    }

    /// The device's I/O cost model.
    #[must_use]
    pub fn cost_model(&self) -> IoCostModel {
        self.inner.cost
    }

    /// Wall-clock mode: when on, real file I/O is the measurement and
    /// nothing is charged to the simulated clock.
    pub fn set_wall_clock(&self, on: bool) {
        self.inner.wall_clock.store(on, Ordering::Relaxed);
    }

    /// Pages acknowledged but not yet covered by a sync (diagnostics:
    /// zero after a clean sync, and exactly what a kill would lose).
    #[must_use]
    pub fn unsynced_pages(&self) -> usize {
        self.inner.cache.lock().len()
    }

    /// Arms `fault` on `page`. For
    /// [`crate::CorruptionMode::StaleVersion`] the current acknowledged
    /// image is snapshotted now; subsequent writes are lost.
    pub fn inject_fault(&self, page: PageId, fault: FaultSpec) {
        let snapshot = match &fault {
            FaultSpec::SilentCorruption(crate::CorruptionMode::StaleVersion) => {
                let cache = self.inner.cache.lock();
                Some(
                    self.stored_image(&cache, page)
                        .unwrap_or_else(|_| vec![0u8; self.inner.page_size]),
                )
            }
            _ => None,
        };
        self.inner.injector.arm_internal(page, fault, snapshot);
    }

    /// Grows the device by `additional` zeroed pages, returning the id
    /// of the first new page. The extension is metadata-only until the
    /// next sync.
    pub fn grow(&self, additional: u64) -> PageId {
        let _cache = self.inner.cache.lock();
        let first = self.inner.capacity.load(Ordering::Acquire);
        let new_cap = first + additional;
        self.inner
            .file
            .set_len(new_cap * self.inner.page_size as u64)
            .expect("growing the device file");
        self.inner.capacity.store(new_cap, Ordering::Release);
        PageId(first)
    }

    /// The scrubber's read path: sequential, counted separately, served
    /// through the fault injector with no repair layered on top (see
    /// [`crate::MemDevice::scan_read`]).
    pub fn scan_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        DeviceCounters::bump(&self.inner.counters.scrub_reads);
        self.do_read(id, buf, IoKind::SequentialRead)
    }

    /// The background prefetcher's read path: sequential, counted
    /// separately, fault-visible (see
    /// [`crate::MemDevice::prefetch_read_impl`]).
    pub fn prefetch_read_impl(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        DeviceCounters::bump(&self.inner.counters.prefetch_reads);
        self.do_read(id, buf, IoKind::SequentialRead)
    }

    /// Direct, uncounted, fault-bypassing view of the *acknowledged*
    /// image (write cache overlaid on the file). Test/diagnostic only.
    #[must_use]
    pub fn raw_image(&self, page: PageId) -> Vec<u8> {
        let cache = self.inner.cache.lock();
        self.stored_image(&cache, page)
            .expect("raw_image of an in-range page")
    }

    /// Direct, uncounted, fault-bypassing view of the *durable* image —
    /// the file bytes only, ignoring the write cache. What a kill right
    /// now would leave behind. Test/diagnostic only.
    #[must_use]
    pub fn durable_image(&self, page: PageId) -> Vec<u8> {
        let _cache = self.inner.cache.lock();
        let mut buf = vec![0u8; self.inner.page_size];
        self.inner
            .file
            .read_exact_at(&mut buf, page.0 * self.inner.page_size as u64)
            .expect("durable_image of an in-range page");
        buf
    }

    /// Direct, uncounted, fault-bypassing overwrite of the stored image,
    /// straight to the file (the cache entry, if any, is discarded).
    /// Test/diagnostic use only.
    pub fn raw_overwrite(&self, page: PageId, image: &[u8]) {
        assert_eq!(image.len(), self.inner.page_size);
        let mut cache = self.inner.cache.lock();
        cache.remove(&page.0);
        self.inner
            .file
            .write_all_at(image, page.0 * self.inner.page_size as u64)
            .expect("raw_overwrite of an in-range page");
    }

    fn charge(&self, kind: IoKind, bytes: usize) {
        if !self.inner.wall_clock.load(Ordering::Relaxed) {
            self.inner.clock.advance(self.inner.cost.cost(kind, bytes));
        }
    }

    fn check_args(&self, id: PageId, buf_len: usize) -> Result<(), StorageError> {
        if buf_len != self.inner.page_size {
            return Err(StorageError::BadBufferSize {
                got: buf_len,
                expected: self.inner.page_size,
            });
        }
        let capacity = self.inner.capacity.load(Ordering::Acquire);
        if id.0 >= capacity {
            return Err(StorageError::OutOfRange { id, capacity });
        }
        Ok(())
    }

    /// The acknowledged image of `page`: the cached write if one is
    /// pending, else the file bytes. Caller holds the cache lock.
    fn stored_image(
        &self,
        cache: &BTreeMap<u64, Box<[u8]>>,
        page: PageId,
    ) -> Result<Vec<u8>, StorageError> {
        if let Some(img) = cache.get(&page.0) {
            return Ok(img.to_vec());
        }
        let mut buf = vec![0u8; self.inner.page_size];
        self.inner
            .file
            .read_exact_at(&mut buf, page.0 * self.inner.page_size as u64)
            .map_err(|e| io_err("read", &self.inner.path, &e))?;
        Ok(buf)
    }

    fn do_read(&self, id: PageId, buf: &mut [u8], kind: IoKind) -> Result<(), StorageError> {
        self.check_args(id, buf.len())?;
        self.charge(kind, buf.len());
        match kind {
            IoKind::RandomRead => DeviceCounters::bump(&self.inner.counters.random_reads),
            IoKind::SequentialRead => DeviceCounters::bump(&self.inner.counters.sequential_reads),
            _ => unreachable!("read path"),
        }
        let cache = self.inner.cache.lock();
        let stored = self.stored_image(&cache, id)?;
        match self.inner.injector.on_read(id, &stored) {
            ReadOutcome::Clean => {
                buf.copy_from_slice(&stored);
                Ok(())
            }
            ReadOutcome::Corrupted(image) => {
                DeviceCounters::bump(&self.inner.counters.silent_corrupt_reads);
                buf.copy_from_slice(&image);
                Ok(())
            }
            ReadOutcome::Redirect(other) => {
                DeviceCounters::bump(&self.inner.counters.silent_corrupt_reads);
                if other.0 >= self.inner.capacity.load(Ordering::Acquire) {
                    // Misdirection to a nonexistent page degenerates to zeros.
                    buf.fill(0);
                } else {
                    buf.copy_from_slice(&self.stored_image(&cache, other)?);
                }
                Ok(())
            }
            ReadOutcome::HardError => {
                DeviceCounters::bump(&self.inner.counters.failed_reads);
                Err(StorageError::ReadFailed { id })
            }
            ReadOutcome::DeviceFailed => {
                DeviceCounters::bump(&self.inner.counters.failed_reads);
                Err(StorageError::DeviceFailed)
            }
        }
    }

    fn do_write(&self, id: PageId, buf: &[u8], kind: IoKind) -> Result<(), StorageError> {
        self.check_args(id, buf.len())?;
        self.charge(kind, buf.len());
        match kind {
            IoKind::RandomWrite => DeviceCounters::bump(&self.inner.counters.random_writes),
            IoKind::SequentialWrite => DeviceCounters::bump(&self.inner.counters.sequential_writes),
            _ => unreachable!("write path"),
        }
        let mut cache = self.inner.cache.lock();
        match self.inner.injector.on_write(id) {
            WriteOutcome::Clean => {
                cache.insert(id.0, buf.to_vec().into_boxed_slice());
                Ok(())
            }
            WriteOutcome::TornPrefix(prefix) => {
                // The device tore the transfer: the acknowledged image is
                // the new prefix over the old suffix, same as MemDevice.
                let prefix = prefix.min(buf.len());
                let mut merged = self.stored_image(&cache, id)?;
                merged[..prefix].copy_from_slice(&buf[..prefix]);
                cache.insert(id.0, merged.into_boxed_slice());
                Ok(())
            }
            WriteOutcome::Dropped => Ok(()),
            WriteOutcome::HardError => {
                DeviceCounters::bump(&self.inner.counters.failed_writes);
                Err(StorageError::WriteFailed { id })
            }
            WriteOutcome::DeviceFailed => {
                DeviceCounters::bump(&self.inner.counters.failed_writes);
                Err(StorageError::DeviceFailed)
            }
        }
    }
}

impl StorageDevice for FileDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity.load(Ordering::Acquire)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.do_read(id, buf, IoKind::RandomRead)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.do_write(id, buf, IoKind::RandomWrite)
    }

    fn read_page_seq(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.do_read(id, buf, IoKind::SequentialRead)
    }

    fn write_page_seq(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.do_write(id, buf, IoKind::SequentialWrite)
    }

    fn prefetch_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.prefetch_read_impl(id, buf)
    }

    /// Flushes the write cache to the file (ascending page order) and
    /// fsyncs. Sync-time faults fire here: a page armed with
    /// [`FaultSpec::LostWriteAtSync`] is acknowledged but skipped; one
    /// armed with [`FaultSpec::FailStopDuringSync`] persists a prefix,
    /// fsyncs what made it, and aborts the process.
    fn sync(&self) -> Result<(), StorageError> {
        if self.inner.injector.device_failed() {
            return Err(StorageError::DeviceFailed);
        }
        let mut cache = self.inner.cache.lock();
        let pending = std::mem::take(&mut *cache);
        for (id, image) in pending {
            let off = id * self.inner.page_size as u64;
            match self.inner.injector.on_sync(PageId(id)) {
                SyncOutcome::Persist => {
                    self.inner
                        .file
                        .write_all_at(&image, off)
                        .map_err(|e| io_err("write", &self.inner.path, &e))?;
                }
                SyncOutcome::Drop => {
                    // Lost write: acknowledged durable, never persisted.
                }
                SyncOutcome::FailStop(prefix) => {
                    let prefix = prefix.min(image.len());
                    self.inner
                        .file
                        .write_all_at(&image[..prefix], off)
                        .map_err(|e| io_err("write", &self.inner.path, &e))?;
                    let _ = self.inner.file.sync_data();
                    // Power failure mid-fsync: no destructors, no flushes.
                    std::process::abort();
                }
            }
        }
        self.inner
            .file
            .sync_data()
            .map_err(|e| io_err("sync", &self.inner.path, &e))?;
        DeviceCounters::bump(&self.inner.counters.syncs);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.inner.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CorruptionMode;
    use crate::page::{Page, PageType, DEFAULT_PAGE_SIZE};
    use tempdir::TempDir;

    fn fresh(capacity: u64) -> (TempDir, FileDevice) {
        let dir = TempDir::new("spf-file-device").unwrap();
        let dev = FileDevice::create(
            &dir.path().join("data.db"),
            DEFAULT_PAGE_SIZE,
            capacity,
            Arc::new(SimClock::new()),
            IoCostModel::free(),
            0,
        )
        .unwrap();
        (dir, dev)
    }

    fn formatted(id: u64, lsn: u64) -> Page {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        page.set_page_lsn(lsn);
        page.finalize_checksum();
        page
    }

    #[test]
    fn write_read_round_trip_and_reopen() {
        let (dir, dev) = fresh(8);
        let page = formatted(3, 77);
        dev.write_page(PageId(3), page.as_bytes()).unwrap();
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, page.as_bytes());

        dev.sync().unwrap();
        drop(dev);
        let reopened = FileDevice::open(
            &dir.path().join("data.db"),
            DEFAULT_PAGE_SIZE,
            Arc::new(SimClock::new()),
            IoCostModel::free(),
            0,
        )
        .unwrap();
        assert_eq!(reopened.capacity(), 8);
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        reopened.read_page(PageId(3), &mut buf).unwrap();
        assert_eq!(buf, page.as_bytes(), "synced write survives reopen");
    }

    #[test]
    fn unsynced_writes_are_served_but_not_durable() {
        let (_dir, dev) = fresh(8);
        let page = formatted(2, 5);
        dev.write_page(PageId(2), page.as_bytes()).unwrap();
        assert_eq!(dev.unsynced_pages(), 1);
        // The acknowledged image is visible to reads…
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, page.as_bytes());
        // …but the durable (file) image is still zeros: a kill here
        // loses the write.
        assert!(dev.durable_image(PageId(2)).iter().all(|&b| b == 0));
        dev.sync().unwrap();
        assert_eq!(dev.unsynced_pages(), 0);
        assert_eq!(dev.durable_image(PageId(2)), page.as_bytes());
        assert_eq!(dev.stats().syncs, 1);
    }

    #[test]
    fn faults_flow_through_the_file_path() {
        let (_dir, dev) = fresh(8);
        let page = formatted(5, 9);
        dev.write_page(PageId(5), page.as_bytes()).unwrap();
        dev.sync().unwrap();
        dev.inject_fault(
            PageId(5),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 3 }),
        );
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(5), &mut buf).unwrap();
        assert!(Page::from_bytes(buf).verify(PageId(5)).is_err());
        assert_eq!(dev.stats().silent_corrupt_reads, 1);

        dev.inject_fault(PageId(6), FaultSpec::HardReadError);
        assert_eq!(
            dev.read_page(PageId(6), &mut vec![0u8; DEFAULT_PAGE_SIZE]),
            Err(StorageError::ReadFailed { id: PageId(6) })
        );
    }

    #[test]
    fn stale_version_snapshots_acknowledged_image() {
        let (_dir, dev) = fresh(8);
        let old = formatted(4, 10);
        dev.write_page(PageId(4), old.as_bytes()).unwrap();
        // Snapshot taken from the cache — no sync needed first.
        dev.inject_fault(
            PageId(4),
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        );
        let new = formatted(4, 20);
        dev.write_page(PageId(4), new.as_bytes()).unwrap();
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(4), &mut buf).unwrap();
        assert_eq!(Page::from_bytes(buf).page_lsn(), 10, "writes were lost");
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

        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(1), &mut buf).unwrap();
        let read = Page::from_bytes(buf.clone());
        assert_eq!(read.verify(PageId(1)), Ok(()), "internally consistent");
        assert_eq!(read.page_lsn(), 10, "only the PageLSN cross-check can tell");

        // The fault is one-shot: the next write+sync goes through.
        dev.write_page(PageId(1), new.as_bytes()).unwrap();
        dev.sync().unwrap();
        dev.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(Page::from_bytes(buf).page_lsn(), 20);
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
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(7), &mut buf).unwrap();
        assert_eq!(&buf[..100], &new.as_bytes()[..100]);
        assert_eq!(&buf[100..], &old.as_bytes()[100..]);
        assert!(Page::from_bytes(buf).verify(PageId(7)).is_err());
    }

    #[test]
    fn grow_extends_capacity_and_zero_fills() {
        let (_dir, dev) = fresh(4);
        assert_eq!(dev.grow(4), PageId(4));
        assert_eq!(dev.capacity(), 8);
        let mut buf = vec![1u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(6), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn sim_clock_charged_unless_wall_clock_mode() {
        let dir = TempDir::new("spf-file-device").unwrap();
        let clock = Arc::new(SimClock::new());
        let dev = FileDevice::create(
            &dir.path().join("data.db"),
            DEFAULT_PAGE_SIZE,
            4,
            Arc::clone(&clock),
            IoCostModel::disk_2012(),
            0,
        )
        .unwrap();
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        dev.read_page(PageId(0), &mut buf).unwrap();
        let charged = clock.now();
        assert!(charged >= spf_util::SimDuration::from_millis(8));
        dev.set_wall_clock(true);
        dev.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(clock.now(), charged, "wall-clock mode charges nothing");
    }

    #[test]
    fn scan_read_counts_and_sees_faults() {
        let (_dir, dev) = fresh(8);
        dev.inject_fault(PageId(3), FaultSpec::HardReadError);
        assert_eq!(
            dev.scan_read(PageId(3), &mut vec![0u8; DEFAULT_PAGE_SIZE]),
            Err(StorageError::ReadFailed { id: PageId(3) })
        );
        assert_eq!(dev.stats().scrub_reads, 1);
    }
}
