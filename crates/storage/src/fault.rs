//! Deterministic fault injection: the source of single-page failures.
//!
//! The paper (Section 3.2) lists causes "from temporary or permanent
//! hardware malfunctions to delays or malfunctions in overloaded
//! network-attached storage", and its detection machinery distinguishes
//! failures a checksum can catch from those only cross-page or
//! cross-structure redundancy can catch. The injector therefore models
//! each failure *as presented to the read path*:
//!
//! | Fault | Device behaviour | Detected by |
//! |---|---|---|
//! | [`CorruptionMode::BitRot`] | read returns image with flipped bits | page checksum |
//! | [`CorruptionMode::ZeroPage`] | read returns all zeros | checksum / header plausibility |
//! | [`CorruptionMode::GarbageHeader`] | read returns image with scrambled header fields but a *recomputed valid checksum* (a buggy controller wrote damaged bytes with fresh ECC) | header/slot plausibility, fence keys |
//! | [`CorruptionMode::StaleVersion`] | read returns the page as of fault-arm time — all later writes lost | PageLSN cross-check vs. page recovery index |
//! | [`CorruptionMode::Misdirected`] | read returns some *other* page's valid image | self-identifying page id |
//! | [`FaultSpec::HardReadError`] | read returns an explicit error | device error path |
//! | [`FaultSpec::TornWrite`] | next write applies only a prefix, then checksum fails on read | page checksum |
//! | [`FaultSpec::WearOut`] | after N more writes the page hard-fails (flash endurance) | device error path |
//! | [`FaultSpec::LostWriteAtSync`] | the next sync acknowledges success but silently drops this page's cached write | PageLSN cross-check vs. page recovery index |
//! | [`FaultSpec::FailStopDuringSync`] | the next sync persists only a prefix of this page, then the process aborts | restart recovery + page checksum |
//!
//! The last two fire at *sync* time and therefore only apply to devices
//! with an explicit durability boundary ([`crate::FileDevice`]'s write
//! cache); a [`crate::MemDevice`] persists writes immediately and never
//! consults the injector's sync hook.
//!
//! All randomness is drawn from a seeded RNG owned by the injector, so
//! every experiment is reproducible.

use std::collections::HashMap;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::page::PageId;

/// How a silently corrupted page presents itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Random bit flips across the page (classic bit rot / bad sector).
    BitRot {
        /// Number of bits flipped.
        bits: u32,
    },
    /// The device returns all zeros (unwritten/erased block).
    ZeroPage,
    /// Header fields scrambled but the checksum *recomputed to match*:
    /// models a firmware bug that wrote damaged data with fresh ECC.
    /// In-page checksum verification passes; only plausibility checks or
    /// cross-page invariants can catch it.
    GarbageHeader,
    /// The page is served as of the moment the fault was armed; all
    /// subsequent writes are silently lost. Internally fully consistent —
    /// the case the paper's PageLSN cross-check exists for.
    StaleVersion,
    /// Reads of this page return another page's (valid) image.
    Misdirected {
        /// The page whose image is served instead.
        instead: PageId,
    },
}

/// A fault armed on a single page (or the whole device).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Silent corruption: reads succeed with wrong bytes.
    SilentCorruption(CorruptionMode),
    /// Loud failure: reads return [`crate::StorageError::ReadFailed`].
    HardReadError,
    /// The next write persists only the first `persisted_prefix` bytes.
    TornWrite {
        /// Bytes of the page image that survive the torn write.
        persisted_prefix: usize,
    },
    /// The page endures `writes_remaining` more writes, then every
    /// subsequent read hard-fails (flash wear-out).
    WearOut {
        /// Writes left before the page fails.
        writes_remaining: u64,
    },
    /// At the next sync the device acknowledges durability but silently
    /// drops this page's cached write — the classic "lost write" the
    /// paper's introduction anecdote describes: fsync returned success,
    /// the bytes never reached the platter. Reads afterwards serve the
    /// previous on-disk version, internally consistent, so only the
    /// PageLSN cross-check can tell. One-shot.
    LostWriteAtSync,
    /// During the next sync the process persists only the first
    /// `persisted_prefix` bytes of this page's cached write and then
    /// fail-stops (aborts) — a power failure mid-fsync. Only meaningful
    /// inside a sacrificial child process (kill-and-reopen tests).
    FailStopDuringSync {
        /// Bytes of the cached image that reach the file before the stop.
        persisted_prefix: usize,
    },
}

#[derive(Debug)]
enum ArmedFault {
    Silent {
        mode: CorruptionMode,
        snapshot: Option<Vec<u8>>,
    },
    HardReadError,
    TornWrite {
        persisted_prefix: usize,
    },
    WearOut {
        writes_remaining: u64,
    },
    LostWriteAtSync,
    FailStopDuringSync {
        persisted_prefix: usize,
    },
}

/// Deterministic per-page fault injector shared by a [`crate::MemDevice`].
#[derive(Debug)]
pub struct FaultInjector {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    rng: StdRng,
    faults: HashMap<PageId, ArmedFault>,
    device_failed: bool,
}

/// What the injector decided about a read.
pub(crate) enum ReadOutcome {
    /// Serve the stored bytes unchanged.
    Clean,
    /// Serve these bytes instead (silent corruption).
    Corrupted(Vec<u8>),
    /// Fail the read loudly.
    HardError,
    /// The whole device has failed.
    DeviceFailed,
    /// Serve the image of a different page (misdirection).
    Redirect(PageId),
}

/// What the injector decided about a write.
pub(crate) enum WriteOutcome {
    /// Persist the full image.
    Clean,
    /// Persist only this many leading bytes, leaving the rest stale.
    TornPrefix(usize),
    /// Drop the write silently (page armed with `StaleVersion`).
    Dropped,
    /// The page has worn out: fail the write loudly.
    HardError,
    /// The whole device has failed.
    DeviceFailed,
}

/// What the injector decided about syncing one cached page write.
pub(crate) enum SyncOutcome {
    /// Persist the cached image, then count it durable.
    Persist,
    /// Acknowledge durability but drop the cached image (lost write).
    Drop,
    /// Persist only this many leading bytes, then fail-stop the process.
    FailStop(usize),
}

impl FaultInjector {
    /// Creates an injector with a deterministic RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                rng: StdRng::seed_from_u64(seed),
                faults: HashMap::new(),
                device_failed: false,
            }),
        }
    }

    /// Arms `fault` on `page`. For [`CorruptionMode::StaleVersion`] the
    /// caller (the device) supplies the current image via `snapshot`.
    pub(crate) fn arm_internal(&self, page: PageId, fault: FaultSpec, snapshot: Option<Vec<u8>>) {
        let armed = match fault {
            FaultSpec::SilentCorruption(mode) => ArmedFault::Silent { mode, snapshot },
            FaultSpec::HardReadError => ArmedFault::HardReadError,
            FaultSpec::TornWrite { persisted_prefix } => ArmedFault::TornWrite { persisted_prefix },
            FaultSpec::WearOut { writes_remaining } => ArmedFault::WearOut { writes_remaining },
            FaultSpec::LostWriteAtSync => ArmedFault::LostWriteAtSync,
            FaultSpec::FailStopDuringSync { persisted_prefix } => {
                ArmedFault::FailStopDuringSync { persisted_prefix }
            }
        };
        self.inner.lock().faults.insert(page, armed);
    }

    /// Clears any fault armed on `page` (models remapping the page or
    /// deallocating a bad block).
    pub fn clear(&self, page: PageId) {
        self.inner.lock().faults.remove(&page);
    }

    /// Clears every armed fault and the device-failed flag.
    pub fn clear_all(&self) {
        let mut inner = self.inner.lock();
        inner.faults.clear();
        inner.device_failed = false;
    }

    /// Fails the entire device: every subsequent operation returns
    /// [`crate::StorageError::DeviceFailed`]. This is the paper's media
    /// failure, and the escalation target of unhandled page failures.
    pub fn fail_device(&self) {
        self.inner.lock().device_failed = true;
    }

    /// True if the whole device is failed.
    #[must_use]
    pub fn device_failed(&self) -> bool {
        self.inner.lock().device_failed
    }

    /// Pages currently carrying an armed fault.
    #[must_use]
    pub fn faulted_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.inner.lock().faults.keys().copied().collect();
        pages.sort_unstable();
        pages
    }

    pub(crate) fn on_read(&self, page: PageId, stored: &[u8]) -> ReadOutcome {
        let mut inner = self.inner.lock();
        if inner.device_failed {
            return ReadOutcome::DeviceFailed;
        }
        let Some(fault) = inner.faults.get(&page) else {
            return ReadOutcome::Clean;
        };
        match fault {
            ArmedFault::HardReadError => ReadOutcome::HardError,
            ArmedFault::WearOut { writes_remaining } => {
                if *writes_remaining == 0 {
                    ReadOutcome::HardError
                } else {
                    ReadOutcome::Clean
                }
            }
            ArmedFault::TornWrite { .. }
            | ArmedFault::LostWriteAtSync
            | ArmedFault::FailStopDuringSync { .. } => ReadOutcome::Clean,
            ArmedFault::Silent { mode, snapshot } => match mode {
                CorruptionMode::BitRot { bits } => {
                    let bits = *bits;
                    let mut image = stored.to_vec();
                    for _ in 0..bits {
                        let bit = inner.rng.gen_range(0..image.len() * 8);
                        image[bit / 8] ^= 1 << (bit % 8);
                    }
                    ReadOutcome::Corrupted(image)
                }
                CorruptionMode::ZeroPage => ReadOutcome::Corrupted(vec![0u8; stored.len()]),
                CorruptionMode::GarbageHeader => {
                    let mut image = stored.to_vec();
                    // Scramble slot count, heap top, and a few slot entries…
                    for off in 20..40usize.min(image.len()) {
                        image[off] = image[off].wrapping_mul(167).wrapping_add(13);
                    }
                    // …then recompute a *valid* checksum, modelling a buggy
                    // controller that protected damaged bytes with good ECC.
                    let sum = spf_util::crc32c(&image[4..]);
                    image[0..4].copy_from_slice(&sum.to_le_bytes());
                    ReadOutcome::Corrupted(image)
                }
                CorruptionMode::StaleVersion => match snapshot {
                    Some(old) => ReadOutcome::Corrupted(old.clone()),
                    None => ReadOutcome::Clean,
                },
                CorruptionMode::Misdirected { instead } => ReadOutcome::Redirect(*instead),
            },
        }
    }

    pub(crate) fn on_write(&self, page: PageId) -> WriteOutcome {
        let mut inner = self.inner.lock();
        if inner.device_failed {
            return WriteOutcome::DeviceFailed;
        }
        let Some(fault) = inner.faults.get_mut(&page) else {
            return WriteOutcome::Clean;
        };
        match fault {
            ArmedFault::TornWrite { persisted_prefix } => {
                let prefix = *persisted_prefix;
                // A torn write happens once; afterwards the stored bytes
                // are simply damaged.
                inner.faults.remove(&page);
                WriteOutcome::TornPrefix(prefix)
            }
            ArmedFault::WearOut { writes_remaining } => {
                if *writes_remaining == 0 {
                    WriteOutcome::HardError
                } else {
                    *writes_remaining -= 1;
                    WriteOutcome::Clean
                }
            }
            ArmedFault::Silent {
                mode: CorruptionMode::StaleVersion,
                ..
            } => {
                // Lost write: the device acknowledges but persists nothing.
                WriteOutcome::Dropped
            }
            _ => WriteOutcome::Clean,
        }
    }

    /// Consulted by devices with an explicit durability boundary
    /// ([`crate::FileDevice`]) once per cached page at sync time.
    /// [`SyncOutcome::Drop`] fires once and disarms; a fail-stop never
    /// returns control anyway.
    pub(crate) fn on_sync(&self, page: PageId) -> SyncOutcome {
        let mut inner = self.inner.lock();
        match inner.faults.get(&page) {
            Some(ArmedFault::LostWriteAtSync) => {
                inner.faults.remove(&page);
                SyncOutcome::Drop
            }
            Some(ArmedFault::FailStopDuringSync { persisted_prefix }) => {
                SyncOutcome::FailStop(*persisted_prefix)
            }
            _ => SyncOutcome::Persist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_by_default() {
        let inj = FaultInjector::new(1);
        assert!(matches!(
            inj.on_read(PageId(0), &[0u8; 64]),
            ReadOutcome::Clean
        ));
        assert!(matches!(inj.on_write(PageId(0)), WriteOutcome::Clean));
        assert!(inj.faulted_pages().is_empty());
    }

    #[test]
    fn bit_rot_changes_bytes_deterministically() {
        let stored = vec![0u8; 256];
        let img_a = {
            let inj = FaultInjector::new(42);
            inj.arm_internal(
                PageId(1),
                FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 4 }),
                None,
            );
            match inj.on_read(PageId(1), &stored) {
                ReadOutcome::Corrupted(img) => img,
                _ => panic!("expected corruption"),
            }
        };
        let img_b = {
            let inj = FaultInjector::new(42);
            inj.arm_internal(
                PageId(1),
                FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 4 }),
                None,
            );
            match inj.on_read(PageId(1), &stored) {
                ReadOutcome::Corrupted(img) => img,
                _ => panic!("expected corruption"),
            }
        };
        assert_ne!(img_a, stored);
        assert_eq!(img_a, img_b, "same seed must corrupt identically");
    }

    #[test]
    fn hard_error_and_clear() {
        let inj = FaultInjector::new(7);
        inj.arm_internal(PageId(3), FaultSpec::HardReadError, None);
        assert!(matches!(
            inj.on_read(PageId(3), &[0; 8]),
            ReadOutcome::HardError
        ));
        assert_eq!(inj.faulted_pages(), vec![PageId(3)]);
        inj.clear(PageId(3));
        assert!(matches!(
            inj.on_read(PageId(3), &[0; 8]),
            ReadOutcome::Clean
        ));
    }

    #[test]
    fn stale_version_serves_snapshot_and_drops_writes() {
        let inj = FaultInjector::new(7);
        let old = vec![0xAAu8; 32];
        inj.arm_internal(
            PageId(5),
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
            Some(old.clone()),
        );
        match inj.on_read(PageId(5), &[0xBB; 32]) {
            ReadOutcome::Corrupted(img) => assert_eq!(img, old),
            _ => panic!("expected stale snapshot"),
        }
        assert!(matches!(inj.on_write(PageId(5)), WriteOutcome::Dropped));
    }

    #[test]
    fn torn_write_fires_once() {
        let inj = FaultInjector::new(7);
        inj.arm_internal(
            PageId(9),
            FaultSpec::TornWrite {
                persisted_prefix: 512,
            },
            None,
        );
        assert!(matches!(
            inj.on_write(PageId(9)),
            WriteOutcome::TornPrefix(512)
        ));
        assert!(matches!(inj.on_write(PageId(9)), WriteOutcome::Clean));
    }

    #[test]
    fn wear_out_counts_down_then_fails() {
        let inj = FaultInjector::new(7);
        inj.arm_internal(
            PageId(2),
            FaultSpec::WearOut {
                writes_remaining: 2,
            },
            None,
        );
        assert!(matches!(inj.on_write(PageId(2)), WriteOutcome::Clean));
        assert!(matches!(inj.on_write(PageId(2)), WriteOutcome::Clean));
        assert!(matches!(inj.on_write(PageId(2)), WriteOutcome::HardError));
        assert!(matches!(
            inj.on_read(PageId(2), &[0; 8]),
            ReadOutcome::HardError
        ));
    }

    #[test]
    fn device_failure_overrides_everything() {
        let inj = FaultInjector::new(7);
        inj.fail_device();
        assert!(inj.device_failed());
        assert!(matches!(
            inj.on_read(PageId(0), &[0; 8]),
            ReadOutcome::DeviceFailed
        ));
        assert!(matches!(
            inj.on_write(PageId(0)),
            WriteOutcome::DeviceFailed
        ));
        inj.clear_all();
        assert!(!inj.device_failed());
        assert!(matches!(
            inj.on_read(PageId(0), &[0; 8]),
            ReadOutcome::Clean
        ));
    }

    #[test]
    fn lost_write_at_sync_drops_once() {
        let inj = FaultInjector::new(7);
        inj.arm_internal(PageId(6), FaultSpec::LostWriteAtSync, None);
        // Reads and writes pass through untouched; the fault fires at sync.
        assert!(matches!(
            inj.on_read(PageId(6), &[0; 8]),
            ReadOutcome::Clean
        ));
        assert!(matches!(inj.on_write(PageId(6)), WriteOutcome::Clean));
        assert!(matches!(inj.on_sync(PageId(6)), SyncOutcome::Drop));
        assert!(matches!(inj.on_sync(PageId(6)), SyncOutcome::Persist));
    }

    #[test]
    fn fail_stop_during_sync_reports_prefix() {
        let inj = FaultInjector::new(7);
        inj.arm_internal(
            PageId(2),
            FaultSpec::FailStopDuringSync {
                persisted_prefix: 100,
            },
            None,
        );
        assert!(matches!(inj.on_sync(PageId(2)), SyncOutcome::FailStop(100)));
        // Un-fired sync faults never perturb the read/write paths.
        assert!(matches!(
            inj.on_read(PageId(2), &[0; 8]),
            ReadOutcome::Clean
        ));
        assert!(matches!(inj.on_write(PageId(2)), WriteOutcome::Clean));
    }

    #[test]
    fn garbage_header_has_valid_checksum() {
        let inj = FaultInjector::new(7);
        let mut stored = vec![0x11u8; 128];
        let sum = spf_util::crc32c(&stored[4..]);
        stored[0..4].copy_from_slice(&sum.to_le_bytes());
        inj.arm_internal(
            PageId(4),
            FaultSpec::SilentCorruption(CorruptionMode::GarbageHeader),
            None,
        );
        match inj.on_read(PageId(4), &stored) {
            ReadOutcome::Corrupted(img) => {
                assert_ne!(img, stored, "image must be damaged");
                let recomputed = spf_util::crc32c(&img[4..]);
                let stored_sum = u32::from_le_bytes(img[0..4].try_into().unwrap());
                assert_eq!(
                    recomputed, stored_sum,
                    "checksum must be valid — that is the point"
                );
            }
            _ => panic!("expected corruption"),
        }
    }
}
