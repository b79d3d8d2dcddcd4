//! The storage-device abstraction, its error/statistics types, and
//! [`Device`], the one implementation the engine wires everywhere.
//!
//! Devices in this workspace present exactly the interface the paper's
//! failure taxonomy is written against: page-granular reads and writes
//! that can (a) succeed, (b) fail *loudly* with an error, or (c) —
//! crucially — succeed while returning wrong bytes. Case (c) is the
//! "silent failure" of the paper's introduction anecdote; it is why the
//! read path must verify pages rather than trust the device.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use spf_util::{IoCostModel, IoKind, SimClock, SimDuration};

use crate::fault::{CorruptionMode, FaultInjector, FaultSpec, ReadOutcome, WriteOutcome};
use crate::file_device::{Cache, FileStore};
use crate::page::PageId;

/// Errors surfaced by a storage device.
///
/// Note what is *not* here: silent corruption. A device that corrupts
/// silently returns `Ok` with bad bytes — detection is the caller's
/// problem, which is the premise of the whole paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The device reported an unrecoverable error reading this page
    /// (a "latent sector error": data loss despite ECC and retries).
    ReadFailed {
        /// The page whose read failed.
        id: PageId,
    },
    /// The device reported an unrecoverable error writing this page.
    WriteFailed {
        /// The page whose write failed.
        id: PageId,
    },
    /// The entire device has failed — a *media failure* in the paper's
    /// taxonomy. Every subsequent operation returns this.
    DeviceFailed,
    /// The page id is outside the device's capacity.
    OutOfRange {
        /// The offending page id.
        id: PageId,
        /// Device capacity in pages.
        capacity: u64,
    },
    /// The caller's buffer size does not match the device page size.
    BadBufferSize {
        /// Buffer length supplied.
        got: usize,
        /// Device page size.
        expected: usize,
    },
    /// An operating-system I/O error from a file-backed device (open,
    /// read, write, grow, or fsync failed at the OS level), or a growth
    /// whose byte length no file can address. Carries the formatted
    /// error; `std::io::Error` is neither `Clone` nor `Eq`.
    Io {
        /// Human-readable context plus the OS error.
        context: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ReadFailed { id } => write!(f, "unrecoverable read error on {id}"),
            StorageError::WriteFailed { id } => write!(f, "unrecoverable write error on {id}"),
            StorageError::DeviceFailed => write!(f, "device failed (media failure)"),
            StorageError::OutOfRange { id, capacity } => {
                write!(f, "{id} out of range (capacity {capacity} pages)")
            }
            StorageError::BadBufferSize { got, expected } => {
                write!(f, "buffer size {got} does not match page size {expected}")
            }
            StorageError::Io { context } => write!(f, "I/O error: {context}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Monotonic operation counters kept by every device.
///
/// The experiment harness reads these to report I/O counts alongside
/// simulated times (the paper's Section 6 reasons in I/O counts).
#[derive(Debug, Default)]
pub struct DeviceCounters {
    /// Random page reads served.
    pub random_reads: AtomicU64,
    /// Sequential page reads served.
    pub sequential_reads: AtomicU64,
    /// Random page writes served.
    pub random_writes: AtomicU64,
    /// Sequential page writes served.
    pub sequential_writes: AtomicU64,
    /// Reads that returned an explicit error.
    pub failed_reads: AtomicU64,
    /// Writes that returned an explicit error.
    pub failed_writes: AtomicU64,
    /// Reads that silently served corrupted/stale bytes.
    pub silent_corrupt_reads: AtomicU64,
    /// Sequential reads issued by the background scrubber (a subset of
    /// `sequential_reads`), so experiments can separate scrub I/O from
    /// foreground I/O.
    pub scrub_reads: AtomicU64,
    /// Sequential reads issued by the background prefetcher (a subset of
    /// `sequential_reads`), so experiments can audit the background-I/O
    /// governor's combined budget (scrub + prefetch).
    pub prefetch_reads: AtomicU64,
    /// Explicit durability barriers ([`StorageDevice::sync`]) served —
    /// the fsync count on a file-backed device.
    pub syncs: AtomicU64,
}

/// A point-in-time copy of [`DeviceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Random page reads served.
    pub random_reads: u64,
    /// Sequential page reads served.
    pub sequential_reads: u64,
    /// Random page writes served.
    pub random_writes: u64,
    /// Sequential page writes served.
    pub sequential_writes: u64,
    /// Reads that returned an explicit error.
    pub failed_reads: u64,
    /// Writes that returned an explicit error.
    pub failed_writes: u64,
    /// Reads that silently served corrupted/stale bytes.
    pub silent_corrupt_reads: u64,
    /// Sequential reads issued by the background scrubber (a subset of
    /// `sequential_reads`).
    pub scrub_reads: u64,
    /// Sequential reads issued by the background prefetcher (a subset of
    /// `sequential_reads`).
    pub prefetch_reads: u64,
    /// Explicit durability barriers ([`StorageDevice::sync`]) served.
    pub syncs: u64,
}

impl DeviceStats {
    /// All reads, random plus sequential.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.random_reads + self.sequential_reads
    }

    /// All writes, random plus sequential.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.random_writes + self.sequential_writes
    }
}

impl spf_obs::Observable for DeviceStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("random_reads", self.random_reads)
            .counter("sequential_reads", self.sequential_reads)
            .counter("random_writes", self.random_writes)
            .counter("sequential_writes", self.sequential_writes)
            .counter("failed_reads", self.failed_reads)
            .counter("failed_writes", self.failed_writes)
            .counter("silent_corrupt_reads", self.silent_corrupt_reads)
            .counter("scrub_reads", self.scrub_reads)
            .counter("prefetch_reads", self.prefetch_reads)
            .counter("syncs", self.syncs);
    }
}

impl DeviceCounters {
    /// Snapshots the counters.
    #[must_use]
    pub fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            random_reads: self.random_reads.load(Ordering::Relaxed),
            sequential_reads: self.sequential_reads.load(Ordering::Relaxed),
            random_writes: self.random_writes.load(Ordering::Relaxed),
            sequential_writes: self.sequential_writes.load(Ordering::Relaxed),
            failed_reads: self.failed_reads.load(Ordering::Relaxed),
            failed_writes: self.failed_writes.load(Ordering::Relaxed),
            silent_corrupt_reads: self.silent_corrupt_reads.load(Ordering::Relaxed),
            scrub_reads: self.scrub_reads.load(Ordering::Relaxed),
            prefetch_reads: self.prefetch_reads.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Page-granular storage.
///
/// `read_page`/`write_page` are random (latency-charged) accesses;
/// `read_page_seq`/`write_page_seq` are sequential (bandwidth-charged)
/// variants used by scans, backups, and log-style access patterns.
pub trait StorageDevice: Send + Sync {
    /// Page size in bytes; every buffer passed in must be exactly this long.
    fn page_size(&self) -> usize;

    /// Device capacity in pages.
    fn capacity(&self) -> u64;

    /// Reads page `id` into `buf`, charged as a random access.
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Writes `buf` to page `id`, charged as a random access.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError>;

    /// Reads page `id` into `buf`, charged as sequential transfer.
    fn read_page_seq(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError>;

    /// The background prefetcher's read path: charged as sequential
    /// transfer (the prefetcher drains its prediction queue in batches,
    /// so the transfer is priced as streaming bandwidth, not seeks) and
    /// counted separately ([`DeviceStats::prefetch_reads`]) so the
    /// background-I/O governor's budget can be audited against the
    /// device. Like every read it is fault-visible: a prefetched page
    /// goes through the same verification as a foreground miss.
    fn prefetch_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.read_page_seq(id, buf)
    }

    /// Writes `buf` to page `id`, charged as sequential transfer.
    fn write_page_seq(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError>;

    /// Durability barrier: all previously acknowledged writes are on
    /// stable storage when this returns `Ok`. A write is **not** durable
    /// until a sync covers it — the fsync discipline every write-back
    /// and log-force path must follow. Devices without a volatile write
    /// cache (a RAM-backed [`Device`]) satisfy the contract trivially.
    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Snapshot of the device's operation counters.
    fn stats(&self) -> DeviceStats;
}

/// A page device over RAM or a file, with fault injection and simulated
/// I/O costs.
///
/// `Device` stands in for the paper's disks and flash devices. It is
/// exact where the paper's mechanisms need it to be exact — which bytes a
/// read returns, which failures a read raises, how many I/Os an algorithm
/// issues — and simulated where the paper only needs arithmetic (I/O
/// latency charged to a [`SimClock`] per an [`IoCostModel`]; a free model
/// charges nothing, so real device time is the measurement).
///
/// Argument checks, clock charging, counters and the fault injector are
/// written once here, over one of two stores:
///
/// * **RAM** ([`Device::ram`], [`Device::for_testing`]): a write persists
///   at once. The paper figures (e1–e13) and most unit tests run on it.
/// * **File** ([`Device::create_file`], [`Device::open_file`]): an
///   acknowledged write waits in a heap cache until [`StorageDevice::sync`]
///   (see [`crate::file_device`]), where the sync-time faults fire.
///
/// Cloning is cheap and shares the device: the buffer pool, the backup
/// store, the scrubber and recovery all hold it.
#[derive(Clone)]
pub struct Device {
    inner: Arc<Inner>,
}

struct Inner {
    page_size: usize,
    store: Store,
    injector: FaultInjector,
    counters: DeviceCounters,
    clock: Arc<SimClock>,
    cost: IoCostModel,
}

type Pages = Vec<Box<[u8]>>;

/// Where the page images live.
enum Store {
    Ram(RwLock<Pages>),
    File(FileStore),
}

impl Store {
    fn read(&self) -> Locked<'_, RwLockReadGuard<'_, Pages>> {
        match self {
            Store::Ram(pages) => Locked::Ram(pages.read()),
            Store::File(file) => Locked::File(file, file.cache.lock()),
        }
    }

    fn write(&self) -> Locked<'_, RwLockWriteGuard<'_, Pages>> {
        match self {
            Store::Ram(pages) => Locked::Ram(pages.write()),
            Store::File(file) => Locked::File(file, file.cache.lock()),
        }
    }
}

/// A store locked for one operation: the RAM pages under a read or write
/// guard, or the file under its write-cache lock.
enum Locked<'a, G> {
    Ram(G),
    File(&'a FileStore, MutexGuard<'a, Cache>),
}

impl<G: Deref<Target = Pages>> Locked<'_, G> {
    fn capacity(&self) -> u64 {
        match self {
            Locked::Ram(pages) => pages.len() as u64,
            Locked::File(file, _) => file.capacity(),
        }
    }

    /// Copies the stored image of `id` into `buf`.
    fn fetch(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        match self {
            Locked::Ram(pages) => {
                let image = pages.get(id.0 as usize).ok_or(StorageError::OutOfRange {
                    id,
                    capacity: pages.len() as u64,
                })?;
                buf.copy_from_slice(image);
                Ok(())
            }
            Locked::File(file, cache) => file.fetch(cache, id, buf),
        }
    }
}

impl<G: DerefMut<Target = Pages>> Locked<'_, G> {
    /// Stores `image` as page `id`.
    fn put(&mut self, id: PageId, image: &[u8]) {
        match self {
            Locked::Ram(pages) => pages[id.0 as usize].copy_from_slice(image),
            Locked::File(_, cache) => {
                cache.insert(id.0, image.into());
            }
        }
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Device");
        if let Store::File(file) = &self.inner.store {
            d.field("path", &file.path);
        }
        d.field("page_size", &self.inner.page_size)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Device {
    fn new(
        page_size: usize,
        store: Store,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                page_size,
                store,
                injector: FaultInjector::new(seed),
                counters: DeviceCounters::default(),
                clock,
                cost,
            }),
        }
    }

    /// A RAM device of `capacity` zeroed pages of `page_size` bytes.
    ///
    /// `seed` feeds the fault injector's RNG; all corruption is
    /// reproducible given the seed.
    #[must_use]
    pub fn ram(
        page_size: usize,
        capacity: u64,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Self {
        let pages = (0..capacity)
            .map(|_| vec![0u8; page_size].into_boxed_slice())
            .collect();
        Self::new(page_size, Store::Ram(RwLock::new(pages)), clock, cost, seed)
    }

    /// A RAM device with free I/O and a fresh clock. For unit tests.
    #[must_use]
    pub fn for_testing(page_size: usize, capacity: u64) -> Self {
        Self::ram(
            page_size,
            capacity,
            Arc::new(SimClock::new()),
            IoCostModel::free(),
            0,
        )
    }

    /// Creates (truncating any existing file) a file device of `capacity`
    /// zeroed pages at `path`.
    pub fn create_file(
        path: &Path,
        page_size: usize,
        capacity: u64,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let bytes = Self::byte_len(page_size, capacity)?;
        let store = FileStore::create(path, capacity, bytes)?;
        Ok(Self::new(page_size, Store::File(store), clock, cost, seed))
    }

    /// Opens an existing file device; its capacity is the file's length
    /// in whole pages.
    pub fn open_file(
        path: &Path,
        page_size: usize,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        seed: u64,
    ) -> Result<Self, StorageError> {
        let store = FileStore::open(path, page_size)?;
        Ok(Self::new(page_size, Store::File(store), clock, cost, seed))
    }

    fn byte_len(page_size: usize, pages: u64) -> Result<u64, StorageError> {
        pages
            .checked_mul(page_size as u64)
            .ok_or_else(|| StorageError::Io {
                context: format!("{pages} pages of {page_size} bytes overflow a device"),
            })
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

    /// Arms `fault` on `page`. For [`CorruptionMode::StaleVersion`] the
    /// current acknowledged image is snapshotted now (zeros if the page
    /// has none, e.g. past the end); subsequent writes are lost.
    pub fn inject_fault(&self, page: PageId, fault: FaultSpec) {
        let snapshot = match &fault {
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion) => {
                let mut image = vec![0u8; self.inner.page_size];
                if self.inner.store.read().fetch(page, &mut image).is_err() {
                    image.fill(0);
                }
                Some(image)
            }
            _ => None,
        };
        self.inner.injector.arm_internal(page, fault, snapshot);
    }

    /// Grows the device to at least `pages` zeroed pages; a count at or
    /// below the capacity is a no-op. Fails, leaving the capacity as it
    /// was, if the file cannot grow or the byte length overflows.
    pub fn ensure_capacity(&self, pages: u64) -> Result<(), StorageError> {
        let page_size = self.inner.page_size;
        let bytes = Self::byte_len(page_size, pages)?;
        match &self.inner.store {
            Store::Ram(ram) => {
                let mut ram = ram.write();
                if pages > ram.len() as u64 {
                    ram.resize_with(pages as usize, || vec![0u8; page_size].into_boxed_slice());
                }
                Ok(())
            }
            Store::File(file) => file.ensure_capacity(pages, bytes),
        }
    }

    /// The scrubber's read path: charged as sequential transfer (a sweep
    /// reads the device in page order, paying bandwidth, not seeks),
    /// counted separately ([`DeviceStats::scrub_reads`]), and served
    /// **through the fault injector with no repair layered on top** — the
    /// scrubber must see exactly the bytes (or the error) a foreground
    /// read would see, because its whole purpose is to find them first.
    pub fn scan_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        DeviceCounters::bump(&self.inner.counters.scrub_reads);
        self.do_read(id, buf, IoKind::SequentialRead)
    }

    /// Direct, uncounted, fault-bypassing view of the *acknowledged*
    /// image (for a file, the write cache overlaid on the file).
    /// Test/diagnostic use only — this is "opening the drive in a clean
    /// room", not an I/O path.
    #[must_use]
    pub fn raw_image(&self, page: PageId) -> Vec<u8> {
        let mut image = vec![0u8; self.inner.page_size];
        self.inner
            .store
            .read()
            .fetch(page, &mut image)
            .expect("raw_image of an in-range page");
        image
    }

    /// Direct, uncounted, fault-bypassing overwrite of the stored image
    /// (for a file, straight to the file, discarding any cached write).
    /// Test/diagnostic use only.
    pub fn raw_overwrite(&self, page: PageId, image: &[u8]) {
        assert_eq!(image.len(), self.inner.page_size);
        match &self.inner.store {
            Store::Ram(pages) => pages.write()[page.0 as usize].copy_from_slice(image),
            Store::File(file) => file.overwrite(page, image),
        }
    }

    /// Charges one I/O to the clock; a free cost model leaves it alone.
    fn charge(&self, kind: IoKind, bytes: usize) {
        let cost = self.inner.cost.cost(kind, bytes);
        if cost > SimDuration::ZERO {
            self.inner.clock.advance(cost);
        }
    }

    fn check_args(&self, id: PageId, buf_len: usize) -> Result<(), StorageError> {
        if buf_len != self.inner.page_size {
            return Err(StorageError::BadBufferSize {
                got: buf_len,
                expected: self.inner.page_size,
            });
        }
        let capacity = self.capacity();
        if id.0 >= capacity {
            return Err(StorageError::OutOfRange { id, capacity });
        }
        Ok(())
    }

    fn do_read(&self, id: PageId, buf: &mut [u8], kind: IoKind) -> Result<(), StorageError> {
        self.check_args(id, buf.len())?;
        self.charge(kind, buf.len());
        let counters = &self.inner.counters;
        DeviceCounters::bump(match kind {
            IoKind::RandomRead => &counters.random_reads,
            IoKind::SequentialRead => &counters.sequential_reads,
            _ => unreachable!("read path"),
        });
        let pages = self.inner.store.read();
        pages.fetch(id, buf)?;
        match self.inner.injector.on_read(id, buf) {
            ReadOutcome::Clean => Ok(()),
            ReadOutcome::Corrupted(image) => {
                DeviceCounters::bump(&counters.silent_corrupt_reads);
                buf.copy_from_slice(&image);
                Ok(())
            }
            ReadOutcome::Redirect(other) => {
                DeviceCounters::bump(&counters.silent_corrupt_reads);
                if other.0 >= pages.capacity() {
                    // Misdirection to a nonexistent page degenerates to zeros.
                    buf.fill(0);
                    Ok(())
                } else {
                    pages.fetch(other, buf)
                }
            }
            ReadOutcome::HardError => {
                DeviceCounters::bump(&counters.failed_reads);
                Err(StorageError::ReadFailed { id })
            }
            ReadOutcome::DeviceFailed => {
                DeviceCounters::bump(&counters.failed_reads);
                Err(StorageError::DeviceFailed)
            }
        }
    }

    fn do_write(&self, id: PageId, buf: &[u8], kind: IoKind) -> Result<(), StorageError> {
        self.check_args(id, buf.len())?;
        self.charge(kind, buf.len());
        let counters = &self.inner.counters;
        DeviceCounters::bump(match kind {
            IoKind::RandomWrite => &counters.random_writes,
            IoKind::SequentialWrite => &counters.sequential_writes,
            _ => unreachable!("write path"),
        });
        let mut pages = self.inner.store.write();
        match self.inner.injector.on_write(id) {
            WriteOutcome::Clean => pages.put(id, buf),
            WriteOutcome::TornPrefix(prefix) => {
                // The device tore the transfer: the stored image is the
                // new prefix over the old suffix.
                let mut torn = vec![0u8; buf.len()];
                pages.fetch(id, &mut torn)?;
                let prefix = prefix.min(buf.len());
                torn[..prefix].copy_from_slice(&buf[..prefix]);
                pages.put(id, &torn);
            }
            WriteOutcome::Dropped => {}
            WriteOutcome::HardError => {
                DeviceCounters::bump(&counters.failed_writes);
                return Err(StorageError::WriteFailed { id });
            }
            WriteOutcome::DeviceFailed => {
                DeviceCounters::bump(&counters.failed_writes);
                return Err(StorageError::DeviceFailed);
            }
        }
        Ok(())
    }
}

impl StorageDevice for Device {
    fn page_size(&self) -> usize {
        self.inner.page_size
    }

    fn capacity(&self) -> u64 {
        match &self.inner.store {
            Store::Ram(pages) => pages.read().len() as u64,
            Store::File(file) => file.capacity(),
        }
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

    fn prefetch_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        DeviceCounters::bump(&self.inner.counters.prefetch_reads);
        self.do_read(id, buf, IoKind::SequentialRead)
    }

    fn write_page_seq(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.do_write(id, buf, IoKind::SequentialWrite)
    }

    /// RAM persists writes at once, so only the barrier is counted; a
    /// file flushes its write cache (see [`crate::file_device`]).
    fn sync(&self) -> Result<(), StorageError> {
        if self.inner.injector.device_failed() {
            return Err(StorageError::DeviceFailed);
        }
        if let Store::File(file) = &self.inner.store {
            file.sync(&self.inner.injector)?;
        }
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
    use crate::page::{Page, PageDefect, PageType, DEFAULT_PAGE_SIZE};
    use crate::SlottedPage;
    use tempdir::TempDir;

    const PS: usize = DEFAULT_PAGE_SIZE;

    #[derive(Clone, Copy)]
    enum Kind {
        Ram,
        File,
    }

    /// Runs each named case once per store, as `ram::<case>` and
    /// `file::<case>`.
    macro_rules! on_each_store {
        ($($case:ident)*) => {
            mod ram {
                $( #[test] fn $case() { super::$case(super::Kind::Ram) } )*
            }
            mod file {
                $( #[test] fn $case() { super::$case(super::Kind::File) } )*
            }
        };
    }

    on_each_store! {
        write_then_read_round_trip
        out_of_range_and_bad_buffer
        stats_distinguish_random_and_sequential
        clock_is_charged_per_io_cost
        bit_rot_detected_by_page_verify
        misdirected_read_serves_other_pages_image
        stale_version_passes_all_in_page_checks
        stale_version_past_the_end_snapshots_zeros
        torn_write_leaves_detectable_damage
        hard_read_error_fails_the_read
        device_failure_fails_everything
        ensure_capacity_grows_once_and_checks_overflow
        scan_read_sees_faults_and_is_counted_separately
        prefetch_read_sees_faults_and_is_counted_separately
        raw_access_bypasses_faults_and_counters
    }

    /// A 16-page device of `kind` charging `cost`; the directory guard
    /// keeps a file device's file alive.
    fn device(kind: Kind, cost: IoCostModel) -> (Option<TempDir>, Device) {
        let clock = Arc::new(SimClock::new());
        match kind {
            Kind::Ram => (None, Device::ram(PS, 16, clock, cost, 0)),
            Kind::File => {
                let dir = TempDir::new("spf-device").unwrap();
                let path = dir.path().join("data.db");
                let dev = Device::create_file(&path, PS, 16, clock, cost, 0).unwrap();
                (Some(dir), dev)
            }
        }
    }

    fn free(kind: Kind) -> (Option<TempDir>, Device) {
        device(kind, IoCostModel::free())
    }

    fn write_formatted(dev: &Device, id: u64, lsn: u64) -> Page {
        let mut page = Page::new_formatted(PS, PageId(id), PageType::BTreeLeaf);
        page.set_page_lsn(lsn);
        page.finalize_checksum();
        dev.write_page(PageId(id), page.as_bytes()).unwrap();
        page
    }

    fn read(dev: &Device, id: u64) -> Page {
        let mut buf = vec![0u8; PS];
        dev.read_page(PageId(id), &mut buf).unwrap();
        Page::from_bytes(buf)
    }

    fn write_then_read_round_trip(kind: Kind) {
        let (_dir, dev) = free(kind);
        let page = write_formatted(&dev, 3, 77);
        let read = read(&dev, 3);
        assert_eq!(read.verify(PageId(3)), Ok(()));
        assert_eq!(read.page_lsn(), 77);
        dev.sync().unwrap();
        assert_eq!(dev.raw_image(PageId(3)), page.as_bytes());
        assert_eq!(dev.stats().random_writes, 1);
        assert_eq!(dev.stats().syncs, 1);
    }

    fn out_of_range_and_bad_buffer(kind: Kind) {
        let (_dir, dev) = free(kind);
        let mut buf = vec![0u8; PS];
        let out_of_range = Err(StorageError::OutOfRange {
            id: PageId(99),
            capacity: 16,
        });
        assert_eq!(dev.read_page(PageId(99), &mut buf), out_of_range);
        assert_eq!(dev.write_page(PageId(99), &buf), out_of_range);
        assert_eq!(
            dev.read_page(PageId(0), &mut [0u8; 100]),
            Err(StorageError::BadBufferSize {
                got: 100,
                expected: PS
            })
        );
        assert_eq!(dev.stats().total_reads() + dev.stats().total_writes(), 0);
    }

    fn stats_distinguish_random_and_sequential(kind: Kind) {
        let (_dir, dev) = free(kind);
        let mut buf = vec![0u8; PS];
        dev.read_page(PageId(0), &mut buf).unwrap();
        dev.read_page_seq(PageId(1), &mut buf).unwrap();
        dev.write_page(PageId(2), &buf).unwrap();
        dev.write_page_seq(PageId(3), &buf).unwrap();
        let stats = dev.stats();
        assert_eq!(stats.random_reads, 1);
        assert_eq!(stats.sequential_reads, 1);
        assert_eq!(stats.random_writes, 1);
        assert_eq!(stats.sequential_writes, 1);
        assert_eq!(stats.total_reads(), 2);
        assert_eq!(stats.total_writes(), 2);
    }

    fn clock_is_charged_per_io_cost(kind: Kind) {
        let (_dir, dev) = device(kind, IoCostModel::disk_2012());
        let clock = dev.clock();
        let mut buf = vec![0u8; PS];
        dev.read_page(PageId(0), &mut buf).unwrap();
        // One random read on the 2012 disk: ≥ 8 ms.
        assert!(clock.now() >= SimDuration::from_millis(8));
        let after_random = clock.now();
        dev.read_page_seq(PageId(1), &mut buf).unwrap();
        let seq_cost = clock.now() - after_random;
        assert!(
            seq_cost < SimDuration::from_millis(1),
            "sequential read must be cheap"
        );

        let (_dir, dev) = free(kind);
        dev.read_page(PageId(0), &mut buf).unwrap();
        dev.write_page(PageId(0), &buf).unwrap();
        assert_eq!(
            dev.clock().now(),
            SimDuration::ZERO,
            "free I/O charges nothing"
        );
    }

    fn bit_rot_detected_by_page_verify(kind: Kind) {
        let (_dir, dev) = free(kind);
        write_formatted(&dev, 5, 1);
        dev.inject_fault(
            PageId(5),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 3 }),
        );
        // The read "succeeds"…
        let read = read(&dev, 5);
        assert!(
            read.verify(PageId(5)).is_err(),
            "corruption must be detectable"
        );
        assert_eq!(dev.stats().silent_corrupt_reads, 1);
    }

    fn misdirected_read_serves_other_pages_image(kind: Kind) {
        let (_dir, dev) = free(kind);
        write_formatted(&dev, 6, 1);
        write_formatted(&dev, 7, 1);
        dev.inject_fault(
            PageId(6),
            FaultSpec::SilentCorruption(CorruptionMode::Misdirected { instead: PageId(7) }),
        );
        // Checksum is fine — it is a valid page. Only the self-id betrays it.
        assert!(matches!(
            read(&dev, 6).verify(PageId(6)),
            Err(PageDefect::WrongPageId { .. })
        ));
        // Misdirection past the end degenerates to zeros.
        dev.inject_fault(
            PageId(6),
            FaultSpec::SilentCorruption(CorruptionMode::Misdirected {
                instead: PageId(99),
            }),
        );
        assert!(read(&dev, 6).as_bytes().iter().all(|&b| b == 0));
        assert_eq!(dev.stats().silent_corrupt_reads, 2);
    }

    fn stale_version_passes_all_in_page_checks(kind: Kind) {
        let (_dir, dev) = free(kind);
        write_formatted(&dev, 8, 10);
        // Arm the lost-write fault (the snapshot needs no sync first),
        // then write a newer version.
        dev.inject_fault(
            PageId(8),
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        );
        write_formatted(&dev, 8, 20);
        let read = read(&dev, 8);
        assert_eq!(
            read.verify(PageId(8)),
            Ok(()),
            "stale page is internally consistent"
        );
        assert_eq!(
            read.page_lsn(),
            10,
            "but it is old — only a PageLSN cross-check can tell"
        );
    }

    fn stale_version_past_the_end_snapshots_zeros(kind: Kind) {
        let (_dir, dev) = free(kind);
        dev.inject_fault(
            PageId(20),
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        );
        let mut buf = vec![1u8; PS];
        assert_eq!(
            dev.read_page(PageId(20), &mut buf),
            Err(StorageError::OutOfRange {
                id: PageId(20),
                capacity: 16
            })
        );
        dev.ensure_capacity(21).unwrap();
        dev.write_page(PageId(20), &[9u8; PS]).unwrap(); // lost
        dev.read_page(PageId(20), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    fn torn_write_leaves_detectable_damage(kind: Kind) {
        let (_dir, dev) = free(kind);
        let mut page = Page::new_formatted(PS, PageId(9), PageType::BTreeLeaf);
        {
            let mut sp = SlottedPage::new(&mut page);
            for i in 0..100 {
                sp.push(format!("rec{i}").as_bytes(), false).unwrap();
            }
        }
        page.finalize_checksum();
        dev.write_page(PageId(9), page.as_bytes()).unwrap();
        let old = page.clone();

        dev.inject_fault(
            PageId(9),
            FaultSpec::TornWrite {
                persisted_prefix: 100,
            },
        );
        SlottedPage::new(&mut page)
            .push(b"one more", false)
            .unwrap();
        page.set_page_lsn(5);
        page.finalize_checksum();
        dev.write_page(PageId(9), page.as_bytes()).unwrap();

        let read = read(&dev, 9);
        assert_eq!(&read.as_bytes()[..100], &page.as_bytes()[..100]);
        assert_eq!(&read.as_bytes()[100..], &old.as_bytes()[100..]);
        assert!(
            matches!(
                read.verify(PageId(9)),
                Err(PageDefect::ChecksumMismatch { .. })
            ),
            "torn image mixes new header with old body: checksum must fail"
        );
    }

    fn hard_read_error_fails_the_read(kind: Kind) {
        let (_dir, dev) = free(kind);
        dev.inject_fault(PageId(6), FaultSpec::HardReadError);
        assert_eq!(
            dev.read_page(PageId(6), &mut [0u8; PS]),
            Err(StorageError::ReadFailed { id: PageId(6) })
        );
        assert_eq!(dev.stats().failed_reads, 1);
    }

    fn device_failure_fails_everything(kind: Kind) {
        let (_dir, dev) = free(kind);
        dev.injector().fail_device();
        let mut buf = vec![0u8; PS];
        assert_eq!(
            dev.read_page(PageId(0), &mut buf),
            Err(StorageError::DeviceFailed)
        );
        assert_eq!(
            dev.write_page(PageId(0), &buf),
            Err(StorageError::DeviceFailed)
        );
        assert_eq!(dev.sync(), Err(StorageError::DeviceFailed));
        let stats = dev.stats();
        assert_eq!(
            (stats.failed_reads, stats.failed_writes, stats.syncs),
            (1, 1, 0)
        );
    }

    fn ensure_capacity_grows_once_and_checks_overflow(kind: Kind) {
        let (_dir, dev) = free(kind);
        dev.ensure_capacity(24).unwrap();
        assert_eq!(dev.capacity(), 24);
        let mut buf = vec![1u8; PS];
        dev.read_page(PageId(20), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // At or below the capacity: a no-op.
        dev.ensure_capacity(8).unwrap();
        dev.ensure_capacity(24).unwrap();
        assert_eq!(dev.capacity(), 24);
        // A byte length past u64 is refused, not wrapped.
        assert!(matches!(
            dev.ensure_capacity(u64::MAX / PS as u64 + 1),
            Err(StorageError::Io { .. })
        ));
        assert_eq!(dev.capacity(), 24);
    }

    fn scan_read_sees_faults_and_is_counted_separately(kind: Kind) {
        let (_dir, dev) = free(kind);
        write_formatted(&dev, 2, 1);
        dev.inject_fault(
            PageId(2),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 4 }),
        );
        let mut buf = vec![0u8; PS];
        dev.scan_read(PageId(2), &mut buf).unwrap();
        assert!(
            Page::from_bytes(buf).verify(PageId(2)).is_err(),
            "scan read must present the fault, not mask it"
        );
        let stats = dev.stats();
        assert_eq!(stats.scrub_reads, 1);
        assert_eq!(
            stats.sequential_reads, 1,
            "scrub reads are sequential reads too"
        );
        assert_eq!(stats.random_reads, 0);

        dev.inject_fault(PageId(3), FaultSpec::HardReadError);
        assert_eq!(
            dev.scan_read(PageId(3), &mut [0u8; PS]),
            Err(StorageError::ReadFailed { id: PageId(3) })
        );
        assert_eq!(dev.stats().scrub_reads, 2);
    }

    fn prefetch_read_sees_faults_and_is_counted_separately(kind: Kind) {
        let (_dir, dev) = free(kind);
        write_formatted(&dev, 2, 1);
        dev.inject_fault(
            PageId(2),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 4 }),
        );
        let mut buf = vec![0u8; PS];
        dev.prefetch_read(PageId(2), &mut buf).unwrap();
        assert!(
            Page::from_bytes(buf).verify(PageId(2)).is_err(),
            "a prefetch read must present the fault, not mask it"
        );
        let stats = dev.stats();
        assert_eq!(stats.prefetch_reads, 1);
        assert_eq!(
            stats.sequential_reads, 1,
            "prefetch reads are sequential reads too"
        );
        assert_eq!(stats.scrub_reads, 0);
        assert_eq!(stats.random_reads, 0);
    }

    fn raw_access_bypasses_faults_and_counters(kind: Kind) {
        let (_dir, dev) = free(kind);
        dev.inject_fault(PageId(1), FaultSpec::HardReadError);
        assert_eq!(dev.raw_image(PageId(1)), vec![0u8; PS]);
        dev.raw_overwrite(PageId(1), &[7u8; PS]);
        assert_eq!(dev.raw_image(PageId(1)), vec![7u8; PS]);
        let stats = dev.stats();
        assert_eq!(stats.total_reads() + stats.total_writes(), 0);
    }

    #[test]
    fn for_testing_is_a_free_ram_device() {
        let dev = Device::for_testing(PS, 4);
        assert_eq!((dev.page_size(), dev.capacity()), (PS, 4));
        let buf = vec![3u8; PS];
        dev.write_page(PageId(1), &buf).unwrap();
        dev.sync().unwrap();
        let mut out = vec![0u8; PS];
        dev.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(dev.raw_image(PageId(1)), buf);
        assert_eq!(dev.stats().random_writes, 1);
        assert_eq!(dev.stats().syncs, 1);
        assert_eq!(
            dev.clock().now(),
            SimDuration::ZERO,
            "free I/O charges nothing"
        );
    }
}
