//! [`MirrorPair`]: synchronous page mirroring onto a physically
//! separate device.
//!
//! The paper names "other copies in a mirror or a RAID array" as a
//! backup-page source for single-page recovery (Section 5.2.2), and
//! media recovery's classic alternative to backup-plus-log replay. This
//! wrapper makes the mirror real: every acknowledged write goes to both
//! devices, and a sync is not acknowledged until **both** devices have
//! synced — so after any crash the mirror holds a consistent image at
//! least as old as the primary's last sync, and recovery can treat any
//! verified mirror page as a valid historical version of the page (its
//! PageLSN tells which one; the per-page log chain replays the rest).
//!
//! Reads are served from the primary only: the mirror is a recovery
//! source, not a load-balancer, and foreground reads must keep seeing
//! exactly the primary's faults (that is what the detection ladder is
//! for). I/O counters report the primary's view; the mirror device keeps
//! its own counters.

use crate::device::{Device, DeviceStats, StorageDevice, StorageError};
use crate::page::PageId;

/// A primary device with a synchronous mirror. Cloning shares both.
#[derive(Clone, Debug)]
pub struct MirrorPair {
    primary: Device,
    mirror: Device,
}

impl MirrorPair {
    /// Pairs `primary` with `mirror`. Both must agree on page size;
    /// the mirror must be at least as large as the primary.
    #[must_use]
    pub fn new(primary: Device, mirror: Device) -> Self {
        assert_eq!(primary.page_size(), mirror.page_size());
        assert!(mirror.capacity() >= primary.capacity());
        Self { primary, mirror }
    }

    /// The primary device.
    #[must_use]
    pub fn primary(&self) -> &Device {
        &self.primary
    }

    /// The mirror device.
    #[must_use]
    pub fn mirror(&self) -> &Device {
        &self.mirror
    }
}

impl StorageDevice for MirrorPair {
    fn page_size(&self) -> usize {
        self.primary.page_size()
    }

    fn capacity(&self) -> u64 {
        self.primary.capacity()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.primary.read_page(id, buf)
    }

    /// Writes both copies. The primary's outcome is authoritative; a
    /// mirror write error surfaces too — a write the mirror missed would
    /// silently void the "mirror holds a valid version" invariant every
    /// recovery path relies on.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.primary.write_page(id, buf)?;
        self.mirror.write_page(id, buf)
    }

    fn read_page_seq(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.primary.read_page_seq(id, buf)
    }

    /// Prefetch reads, like foreground reads, are served by the primary.
    fn prefetch_read(&self, id: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.primary.prefetch_read(id, buf)
    }

    fn write_page_seq(&self, id: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.primary.write_page_seq(id, buf)?;
        self.mirror.write_page_seq(id, buf)
    }

    /// Durable only when **both** devices are.
    fn sync(&self) -> Result<(), StorageError> {
        self.primary.sync()?;
        self.mirror.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.primary.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::page::DEFAULT_PAGE_SIZE;

    #[test]
    fn writes_reach_both_reads_hit_primary_only() {
        let primary = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let mirror = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let pair = MirrorPair::new(primary.clone(), mirror.clone());
        let buf = vec![9u8; DEFAULT_PAGE_SIZE];
        pair.write_page(PageId(2), &buf).unwrap();
        pair.sync().unwrap();
        assert_eq!(primary.raw_image(PageId(2)), buf);
        assert_eq!(mirror.raw_image(PageId(2)), buf);

        let mut out = vec![0u8; DEFAULT_PAGE_SIZE];
        pair.read_page(PageId(2), &mut out).unwrap();
        assert_eq!(mirror.stats().total_reads(), 0, "mirror is never read");
        assert_eq!(primary.stats().syncs, 1);
        assert_eq!(mirror.stats().syncs, 1);
    }

    #[test]
    fn primary_fault_does_not_reach_the_mirror() {
        let primary = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let mirror = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let pair = MirrorPair::new(primary.clone(), mirror.clone());
        primary.inject_fault(PageId(1), FaultSpec::HardReadError);
        let mut out = vec![0u8; DEFAULT_PAGE_SIZE];
        assert!(pair.read_page(PageId(1), &mut out).is_err());
        // The physically separate copy still serves the page.
        assert!(mirror.read_page(PageId(1), &mut out).is_ok());
    }

    #[test]
    fn mirror_write_error_surfaces() {
        let primary = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let mirror = Device::for_testing(DEFAULT_PAGE_SIZE, 4);
        let pair = MirrorPair::new(primary.clone(), mirror.clone());
        mirror.injector().fail_device();
        let buf = vec![1u8; DEFAULT_PAGE_SIZE];
        assert_eq!(
            pair.write_page(PageId(0), &buf),
            Err(StorageError::DeviceFailed)
        );
    }
}
