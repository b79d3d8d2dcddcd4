//! The scrubber proper: rate-limited sweep cycles, the pool-cooperation
//! protocol, the repair queue, and statistics.
//!
//! ## Pool-cooperation protocol (no false positives, no lost updates)
//!
//! Concurrent foreground traffic makes naive scrubbing wrong in two
//! ways: a write-back racing the sweep can make a perfectly good device
//! image look stale, and "repairing" a page whose newer version lives
//! dirty in the buffer pool would destroy committed work. The protocol:
//!
//! 1. **Probe first.** A page resident *dirty* is skipped on the device
//!    side — the pooled copy is the authoritative newest version and its
//!    write-back will refresh the device anyway. It is instead verified
//!    *in place* (structural checks under the page latch).
//! 2. **PRI before device.** For everything else the expected PageLSN is
//!    snapshotted from the page recovery index *before* the device read.
//!    The PRI only advances after a device write completes, so an image
//!    read after the snapshot can never be legitimately older than it —
//!    a write-back can therefore never race the sweep into a false
//!    stale-LSN positive.
//! 3. **Repair through the pool.** Findings go to
//!    [`BufferPool::repair`], the same recoverer call the miss path
//!    makes: an absent page is repaired behind the in-flight marker a
//!    miss leader would hold, so foreground fetches coalesce behind it; a
//!    clean resident copy is replaced only once a recovered image is in
//!    hand; a dirty frame is refused. A page the foreground holds dirty
//!    or busy at repair time is retired as *deferred* (its write-back, or
//!    the next sweep, settles it), not retried blindly.
//! 4. **Escalate, never panic.** A repair the single-page recoverer
//!    declines is escalated along Figure 1 by [`escalate`]: to a media
//!    failure, and on a single-device node on to a system failure.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use spf_buffer::{BufferPool, RepairOutcome, Residency};
use spf_obs::{EventKind, Obs, SpanKind, TraceCtx};
use spf_prefetch::{BackgroundIo, IoGovernor};
use spf_recovery::{escalate, FailureClass, PageRecoveryIndex};
use spf_storage::{Device, Page, PageId, StorageDevice, StorageError};
use spf_util::{SimClock, SimDuration};

use crate::detector::{run_ladder, DetectorClass};

/// Tells the scrubber how far the allocated page range extends; the
/// sweep covers `[0, allocated_pages())` of the device.
pub trait ScanExtent: Send + Sync {
    /// Number of allocated pages (ids below this may be scrubbed).
    fn allocated_pages(&self) -> u64;
}

/// A fixed scan extent, for tests and benches.
#[derive(Debug, Clone, Copy)]
pub struct FixedExtent(pub u64);

impl ScanExtent for FixedExtent {
    fn allocated_pages(&self) -> u64 {
        self.0
    }
}

/// One confirmed detection.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The failed page.
    pub page: PageId,
    /// The ladder rung that caught it.
    pub detector: DetectorClass,
    /// Human-readable description of what the detector saw.
    pub detail: String,
    /// Found by verify-in-place on a *dirty resident* frame. The newest
    /// version of the page exists only in that frame, so this is beyond
    /// single-page repair — the repair queue skips it.
    pub in_pool: bool,
}

/// A repair failure, escalated along Figure 1.
#[derive(Debug, Clone)]
pub struct ScrubEscalation {
    /// The page whose repair failed.
    pub page: PageId,
    /// The class the failure escalated to (`Media`, or `System` on a
    /// single-device node).
    pub escalated_to: FailureClass,
    /// Why single-page repair declined.
    pub reason: String,
}

/// What one sweep cycle saw and did.
#[derive(Debug, Default)]
pub struct ScrubCycleReport {
    /// Device images scanned through the detector ladder.
    pub pages_scanned: u64,
    /// Dirty resident pages verified in place instead.
    pub verified_in_pool: u64,
    /// Confirmed detections, in scan order.
    pub findings: Vec<ScrubFinding>,
    /// Findings repaired (recovered image installed and flushed).
    pub repairs: u64,
    /// Findings retired because the page was resident or busy by repair
    /// time (the foreground already ran Figure 8 on it).
    pub repairs_deferred: u64,
    /// Findings whose repair failed and escalated.
    pub escalations: Vec<ScrubEscalation>,
}

/// Cumulative scrubber statistics (`DbStats.scrub`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Completed full sweep cycles.
    pub cycles_completed: u64,
    /// Device images scanned through the detector ladder.
    pub pages_scanned: u64,
    /// Dirty resident pages verified in place.
    pub verified_in_pool: u64,
    /// In-place verifications that found structural damage in a dirty
    /// frame (beyond single-page repair: the newest version of the page
    /// exists only there).
    pub in_pool_violations: u64,
    /// Pages skipped because a foreground read/repair was in flight.
    pub skipped_busy: u64,
    /// Findings caught by the page checksum.
    pub found_checksum: u64,
    /// Findings caught by the self-identifying page id.
    pub found_self_id: u64,
    /// Findings caught by header/slot plausibility.
    pub found_plausibility: u64,
    /// Findings caught by B-tree fence-key plausibility.
    pub found_fence_keys: u64,
    /// Findings caught by the PageLSN cross-check (lost writes).
    pub found_stale_lsn: u64,
    /// Findings surfaced as explicit device read errors.
    pub found_hard_error: u64,
    /// Successful queue-driven repairs.
    pub repairs: u64,
    /// Findings retired because the foreground got there first.
    pub repairs_deferred: u64,
    /// Repairs the single-page recoverer declined.
    pub repair_failures: u64,
    /// Repair failures escalated to a media failure (every failure takes
    /// at least this hop).
    pub escalations_media: u64,
    /// Repair failures escalated on to a system failure (single-device
    /// nodes only).
    pub escalations_system: u64,
    /// Sum of simulated detection latencies (fault present → scrubbed),
    /// measured as time since the page's previous sweep visit.
    pub detect_latency_total: SimDuration,
    /// Findings with a measured detection latency.
    pub detect_latency_samples: u64,
}

impl ScrubStats {
    /// Total findings across all detector classes.
    #[must_use]
    pub fn findings_total(&self) -> u64 {
        self.found_checksum
            + self.found_self_id
            + self.found_plausibility
            + self.found_fence_keys
            + self.found_stale_lsn
            + self.found_hard_error
    }

    /// Simulated mean time-to-detect: the average gap between a page's
    /// previous (clean) sweep visit and the visit that caught it — an
    /// upper bound on how long the fault sat latent, bounded by the
    /// sweep period the I/O budget buys.
    #[must_use]
    pub fn mean_time_to_detect(&self) -> Option<SimDuration> {
        (self.detect_latency_samples > 0).then(|| {
            SimDuration::from_nanos(
                self.detect_latency_total.as_nanos() / self.detect_latency_samples,
            )
        })
    }

    /// Findings by detector class, for attribution checks.
    #[must_use]
    pub fn found_by(&self, class: DetectorClass) -> u64 {
        match class {
            DetectorClass::Checksum => self.found_checksum,
            DetectorClass::SelfId => self.found_self_id,
            DetectorClass::Plausibility => self.found_plausibility,
            DetectorClass::FenceKeys => self.found_fence_keys,
            DetectorClass::StaleLsn => self.found_stale_lsn,
            DetectorClass::HardError => self.found_hard_error,
        }
    }
}

impl spf_obs::Observable for ScrubStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("cycles_completed", self.cycles_completed)
            .counter("pages_scanned", self.pages_scanned)
            .counter("verified_in_pool", self.verified_in_pool)
            .counter("in_pool_violations", self.in_pool_violations)
            .counter("skipped_busy", self.skipped_busy)
            .counter("found_checksum", self.found_checksum)
            .counter("found_self_id", self.found_self_id)
            .counter("found_plausibility", self.found_plausibility)
            .counter("found_fence_keys", self.found_fence_keys)
            .counter("found_stale_lsn", self.found_stale_lsn)
            .counter("found_hard_error", self.found_hard_error)
            .counter("repairs", self.repairs)
            .counter("repairs_deferred", self.repairs_deferred)
            .counter("repair_failures", self.repair_failures)
            .counter("escalations_media", self.escalations_media)
            .counter("escalations_system", self.escalations_system)
            .counter(
                "detect_latency_total_nanos",
                self.detect_latency_total.as_nanos(),
            )
            .counter("detect_latency_samples", self.detect_latency_samples);
    }
}

struct ScrubState {
    stats: ScrubStats,
    /// Simulated time each page was last swept, for time-to-detect.
    last_visit: HashMap<PageId, SimDuration>,
    /// When the scrubber first ran (fallback baseline for latency).
    first_sweep: Option<SimDuration>,
    /// Escalated findings, for `DbStats` surfacing and diagnosis.
    escalated: Vec<ScrubEscalation>,
}

/// The online scrubber. Thread-safe and cheap to share behind an `Arc`:
/// one instance serves both `scrub_now` one-shot sweeps and the
/// background thread.
pub struct Scrubber {
    single_device_node: bool,
    device: Device,
    pool: BufferPool,
    pri: Arc<PageRecoveryIndex>,
    extent: Arc<dyn ScanExtent>,
    /// The background-I/O budget every scanned page is paid from.
    governor: Arc<IoGovernor>,
    obs: Arc<Obs>,
    clock: Arc<SimClock>,
    state: Mutex<ScrubState>,
    stop: AtomicBool,
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber")
            .field("single_device_node", &self.single_device_node)
            .field("governor", &self.governor)
            .finish()
    }
}

impl Scrubber {
    /// Creates a scrubber over the engine's shared substrate handles.
    /// Sweeps draw one page of `governor` budget per page scanned.
    /// Findings are repaired by `pool`'s recoverer; a pool without one
    /// turns every finding into a repair failure (and an escalation),
    /// which is the traditional engine's behaviour made visible.
    #[must_use]
    pub fn new(
        single_device_node: bool,
        device: Device,
        pool: BufferPool,
        pri: Arc<PageRecoveryIndex>,
        extent: Arc<dyn ScanExtent>,
        governor: Arc<IoGovernor>,
        obs: Arc<Obs>,
    ) -> Self {
        let clock = Arc::clone(device.clock());
        Self {
            single_device_node,
            device,
            pool,
            pri,
            extent,
            governor,
            obs,
            clock,
            state: Mutex::new(ScrubState {
                stats: ScrubStats::default(),
                last_visit: HashMap::new(),
                first_sweep: None,
                escalated: Vec::new(),
            }),
            stop: AtomicBool::new(false),
        }
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ScrubStats {
        self.state.lock().stats
    }

    /// Every escalated repair failure recorded so far.
    #[must_use]
    pub fn escalated(&self) -> Vec<ScrubEscalation> {
        self.state.lock().escalated.clone()
    }

    /// Asks an in-progress or future cycle to stop after the current
    /// page. The background driver exits its loop on this flag.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether a stop has been requested.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Clears the stop flag (before starting a new background run).
    pub fn clear_stop(&self) {
        self.stop.store(false, Ordering::Relaxed);
    }

    /// One full sweep over the allocated extent: detect, then drain the
    /// repair queue. Safe to run concurrently with foreground traffic;
    /// aborts only if the whole device fails. A pending
    /// [`request_stop`](Scrubber::request_stop) is ignored — explicit
    /// one-shot sweeps must complete even when a previous background run
    /// left its stop flag behind (and must never *clear* that flag: a
    /// stopping background driver may depend on it being seen).
    pub fn run_cycle(&self) -> ScrubCycleReport {
        self.run_cycle_inner(false)
    }

    /// The background driver's sweep: like
    /// [`run_cycle`](Scrubber::run_cycle) but returns early (with
    /// whatever it found so far) once a stop is requested.
    pub fn run_cycle_interruptible(&self) -> ScrubCycleReport {
        self.run_cycle_inner(true)
    }

    fn run_cycle_inner(&self, interruptible: bool) -> ScrubCycleReport {
        // Sweeps are sampled like foreground operations: a sampled sweep
        // becomes its own trace tree, with any governor throttling as
        // child wait spans.
        let span = self
            .obs
            .span(self.obs.sample_trace(), SpanKind::ScrubSweep, 0);
        let tctx = span.ctx();
        let mut report = ScrubCycleReport::default();
        {
            let mut state = self.state.lock();
            if state.first_sweep.is_none() {
                state.first_sweep = Some(self.clock.now());
            }
        }
        let extent = self.extent.allocated_pages().min(self.device.capacity());
        // One reusable page buffer for the whole sweep: the per-page
        // ladder must not pay a heap allocation + zero-fill each.
        let mut image = Page::from_bytes(vec![0u8; self.device.page_size()]);
        let mut completed = true;
        for pid in 0..extent {
            if interruptible && self.stop_requested() {
                completed = false;
                break;
            }
            // Pay for the page before reading it, idling the simulated
            // clock if the bucket is short.
            self.governor.acquire(BackgroundIo::Scrub, 1, tctx);
            if !self.scrub_page(PageId(pid), &mut image, &mut report) {
                completed = false;
                break; // media failure: nothing left to scrub
            }
        }
        self.drain_repairs(&mut report, tctx);
        if completed {
            self.state.lock().stats.cycles_completed += 1;
        }
        self.obs.emit(
            EventKind::ScrubSweep,
            report.pages_scanned,
            report.findings.len() as u64,
        );
        report
    }

    /// Detects on one page. Returns `false` when the device as a whole
    /// has failed (the cycle must abort). `image` is the sweep's reused
    /// read buffer.
    fn scrub_page(&self, id: PageId, image: &mut Page, report: &mut ScrubCycleReport) -> bool {
        match self.pool.probe(id) {
            Residency::Dirty => {
                self.verify_in_pool(id, report);
                return true;
            }
            Residency::InFlight => {
                self.state.lock().stats.skipped_busy += 1;
                return true;
            }
            Residency::Clean | Residency::Absent => {}
        }
        // Protocol step 2: snapshot the PRI expectation *before* the
        // device read (see module docs).
        let expected = self.pri.lookup(id).and_then(|e| e.latest_lsn);
        let outcome = match self.device.scan_read(id, image.as_bytes_mut()) {
            Err(StorageError::DeviceFailed) => return false,
            Err(StorageError::ReadFailed { .. }) => Some((
                DetectorClass::HardError,
                format!("unrecoverable read error on {id}"),
            )),
            Err(e) => Some((DetectorClass::HardError, e.to_string())),
            Ok(()) => run_ladder(id, image, expected),
        };
        let now = self.clock.now();
        let mut state = self.state.lock();
        state.stats.pages_scanned += 1;
        report.pages_scanned += 1;
        if let Some((detector, detail)) = outcome {
            match detector {
                DetectorClass::Checksum => state.stats.found_checksum += 1,
                DetectorClass::SelfId => state.stats.found_self_id += 1,
                DetectorClass::Plausibility => state.stats.found_plausibility += 1,
                DetectorClass::FenceKeys => state.stats.found_fence_keys += 1,
                DetectorClass::StaleLsn => state.stats.found_stale_lsn += 1,
                DetectorClass::HardError => state.stats.found_hard_error += 1,
            }
            // Time-to-detect: the fault arrived some time after this
            // page's previous (clean) visit; that gap is the latency the
            // scrub budget buys.
            let baseline = state
                .last_visit
                .get(&id)
                .copied()
                .or(state.first_sweep)
                .unwrap_or(SimDuration::ZERO);
            state.stats.detect_latency_total = state
                .stats
                .detect_latency_total
                .saturating_add(now - baseline);
            state.stats.detect_latency_samples += 1;
            self.obs
                .emit(EventKind::FaultDetected, id.0, detector.obs_code());
            self.obs
                .ledger()
                .record_detection(detector.obs_name(), now - baseline);
            report.findings.push(ScrubFinding {
                page: id,
                detector,
                detail,
                in_pool: false,
            });
        }
        state.last_visit.insert(id, now);
        true
    }

    /// Verify-in-place for a dirty resident page: structural checks
    /// under the page latch. The pooled copy has no finalized checksum,
    /// so only layout and fence plausibility apply; damage here is
    /// beyond single-page repair (the newest version exists only in this
    /// frame) and is counted rather than "repaired" into data loss.
    fn verify_in_pool(&self, id: PageId, report: &mut ScrubCycleReport) {
        let violation = self.pool.inspect_resident(id, |page| {
            if page.page_id() != id {
                return Some(format!(
                    "resident frame self-id mismatch: holds {}",
                    page.page_id()
                ));
            }
            if let Err(defect) = page.verify_layout() {
                return Some(defect.to_string());
            }
            None
        });
        let mut state = self.state.lock();
        match violation {
            None => {
                // Evicted between probe and inspect; the next cycle will
                // scrub the written-back image.
                state.stats.skipped_busy += 1;
            }
            Some(None) => {
                state.stats.verified_in_pool += 1;
                report.verified_in_pool += 1;
            }
            Some(Some(detail)) => {
                state.stats.verified_in_pool += 1;
                state.stats.in_pool_violations += 1;
                report.verified_in_pool += 1;
                report.findings.push(ScrubFinding {
                    page: id,
                    detector: DetectorClass::Plausibility,
                    detail: format!("in-pool (dirty frame): {detail}"),
                    in_pool: true,
                });
            }
        }
    }

    /// Drains this cycle's findings through the repair path (protocol
    /// steps 3 and 4); each repair is a child of the sweep's trace.
    fn drain_repairs(&self, report: &mut ScrubCycleReport, tctx: TraceCtx) {
        let queue: Vec<PageId> = report
            .findings
            .iter()
            // Dirty-frame damage is not repairable without data loss.
            .filter(|f| !f.in_pool)
            .map(|f| f.page)
            .collect();
        for id in queue {
            match self.pool.repair(id, tctx) {
                RepairOutcome::Repaired => {
                    // Persist immediately: the device image is what the
                    // scrubber is curing, so don't wait for eviction.
                    let _ = self.pool.flush_page(id);
                    self.state.lock().stats.repairs += 1;
                    report.repairs += 1;
                }
                RepairOutcome::Dirty | RepairOutcome::Busy => {
                    // The foreground holds the page: a dirty frame's
                    // write-back refreshes the device anyway, and a busy
                    // one is re-found by the next sweep.
                    self.state.lock().stats.repairs_deferred += 1;
                    report.repairs_deferred += 1;
                }
                RepairOutcome::Failed(reason) => self.record_escalation(report, id, reason),
            }
        }
    }

    /// Records a repair failure, escalated along Figure 1.
    fn record_escalation(&self, report: &mut ScrubCycleReport, id: PageId, reason: String) {
        let detector = report
            .findings
            .iter()
            .find(|f| f.page == id)
            .map_or("unknown", |f| f.detector.obs_name());
        let escalated_to = escalate(
            &self.obs,
            Some(id),
            detector,
            self.single_device_node,
            self.clock.now(),
        );
        let escalation = ScrubEscalation {
            page: id,
            escalated_to,
            reason,
        };
        let mut state = self.state.lock();
        state.stats.repair_failures += 1;
        for hop in FailureClass::SinglePage.escalation_path(self.single_device_node) {
            match hop {
                FailureClass::Media => state.stats.escalations_media += 1,
                FailureClass::System => state.stats.escalations_system += 1,
                _ => {}
            }
        }
        state.escalated.push(escalation.clone());
        drop(state);
        report.escalations.push(escalation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_buffer::{BufferPoolConfig, PageRecoverer, PoolHooks};
    use spf_prefetch::GovernorConfig;
    use spf_storage::{CorruptionMode, FaultSpec, PageType, DEFAULT_PAGE_SIZE};
    use spf_util::IoCostModel;
    use spf_wal::{LogManager, Lsn};

    const PAGES: u64 = 16;

    struct Fixture {
        device: Device,
        pool: BufferPool,
        pri: Arc<PageRecoveryIndex>,
    }

    /// Formatted pages behind a pool whose recoverer remaps a page, or
    /// with `refuse` declines every repair.
    fn fixture(refuse: bool) -> Fixture {
        let clock = Arc::new(SimClock::new());
        let device = Device::ram(DEFAULT_PAGE_SIZE, PAGES, clock, IoCostModel::free(), 7);
        for i in 0..PAGES {
            let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::Meta);
            p.set_page_lsn(10);
            p.finalize_checksum();
            device.raw_overwrite(PageId(i), p.as_bytes());
        }
        let recoverer = RemapRecoverer {
            device: device.clone(),
            refuse,
        };
        let pool = BufferPool::with_hooks(
            BufferPoolConfig { frames: 8 },
            Arc::new(device.clone()),
            LogManager::for_testing(),
            PoolHooks {
                recoverer: Some(Arc::new(recoverer)),
                ..PoolHooks::default()
            },
        );
        Fixture {
            device,
            pool,
            pri: Arc::new(PageRecoveryIndex::new()),
        }
    }

    /// A repairer standing in for single-page recovery: clears the
    /// armed fault (the firmware-remap step) and returns a known-good
    /// image, like the real recoverer, without needing a log.
    struct RemapRecoverer {
        device: Device,
        refuse: bool,
    }

    impl PageRecoverer for RemapRecoverer {
        fn recover(&self, id: PageId) -> Result<Page, String> {
            if self.refuse {
                return Err(format!("no backup for {id}"));
            }
            self.device.injector().clear(id);
            let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, id, PageType::Meta);
            p.set_page_lsn(10);
            p.finalize_checksum();
            Ok(p)
        }
    }

    fn scrubber_with(
        fx: &Fixture,
        single_device_node: bool,
        governor: &Arc<IoGovernor>,
    ) -> Scrubber {
        Scrubber::new(
            single_device_node,
            fx.device.clone(),
            fx.pool.clone(),
            Arc::clone(&fx.pri),
            Arc::new(FixedExtent(PAGES)),
            Arc::clone(governor),
            quiet_obs(fx),
        )
    }

    /// A disabled observability handle on the fixture's clock.
    fn quiet_obs(fx: &Fixture) -> Arc<Obs> {
        Arc::new(Obs::new(Arc::clone(fx.device.clock()), false))
    }

    /// An unpaced scrubber on a multi-device node.
    fn scrubber(fx: &Fixture) -> Scrubber {
        let governor = IoGovernor::new(
            GovernorConfig::unthrottled(),
            Arc::clone(fx.device.clock()),
            quiet_obs(fx),
        );
        scrubber_with(fx, false, &Arc::new(governor))
    }

    #[test]
    fn clean_sweep_finds_nothing_and_counts() {
        let fx = fixture(false);
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.pages_scanned, PAGES);
        assert!(report.findings.is_empty());
        let stats = scrub.stats();
        assert_eq!(stats.cycles_completed, 1);
        assert_eq!(stats.findings_total(), 0);
        assert_eq!(fx.device.stats().scrub_reads, PAGES);
    }

    #[test]
    fn governed_pacing_replaces_the_tick_loop_at_the_same_rate() {
        let fx = fixture(false);
        // The engine derives the budget from the scrub knobs: 4 pages
        // per 10 ms tick.
        let gov = Arc::new(IoGovernor::new(
            GovernorConfig::from_scrub(4, SimDuration::from_millis(10)),
            Arc::clone(fx.device.clock()),
            quiet_obs(&fx),
        ));
        let scrub = scrubber_with(&fx, false, &gov);
        let t0 = fx.device.clock().now();
        scrub.run_cycle();
        let elapsed = fx.device.clock().now() - t0;
        // 400 pages/s: the first tick's worth rides the burst, the
        // remaining 12 pages wait 2.5 ms each = 30 ms — never more than
        // the 40 ms a 4-pages-then-10-ms tick loop would charge.
        assert_eq!(elapsed, SimDuration::from_micros(30_000));
        assert_eq!(gov.stats().granted_scrub, PAGES);
        assert!(gov.stats().throttle_waits > 0);
    }

    #[test]
    fn cold_fault_detected_and_repaired() {
        let fx = fixture(false);
        fx.device.inject_fault(
            PageId(3),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 6 }),
        );
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].page, PageId(3));
        assert_eq!(report.findings[0].detector, DetectorClass::Checksum);
        assert_eq!(report.repairs, 1);
        assert!(fx.device.injector().faulted_pages().is_empty());
        // The device image was re-persisted and now verifies.
        let image = Page::from_bytes(fx.device.raw_image(PageId(3)));
        assert_eq!(image.verify(PageId(3)), Ok(()));
        // Next sweep is clean again.
        let report = scrub.run_cycle();
        assert!(report.findings.is_empty());
        assert_eq!(scrub.stats().repairs, 1);
    }

    #[test]
    fn stale_lsn_detected_via_pri_snapshot() {
        let fx = fixture(false);
        // PRI says page 5 was written back at LSN 50; device holds 10.
        fx.pri
            .set_backup(PageId(5), spf_wal::BackupRef::None, Lsn(1));
        fx.pri.set_latest_lsn(PageId(5), Lsn(50));
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].detector, DetectorClass::StaleLsn);
        assert_eq!(scrub.stats().found_stale_lsn, 1);
    }

    #[test]
    fn dirty_resident_pages_are_verified_in_place_not_scanned() {
        let fx = fixture(false);
        {
            let mut g = fx.pool.fetch_mut(PageId(2)).unwrap();
            g.mark_dirty(Lsn(99));
        }
        // Even with a fault armed, the dirty page must not be judged
        // (or repaired) against its device image.
        fx.device.inject_fault(
            PageId(2),
            FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
        );
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.verified_in_pool, 1);
        assert_eq!(report.pages_scanned, PAGES - 1);
        assert!(report.findings.is_empty());
        assert_eq!(scrub.stats().verified_in_pool, 1);
    }

    #[test]
    fn hard_error_finding_and_refused_repair_escalates() {
        let fx = fixture(true);
        fx.device.inject_fault(PageId(7), FaultSpec::HardReadError);
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].detector, DetectorClass::HardError);
        assert_eq!(report.repairs, 0);
        assert_eq!(report.escalations.len(), 1);
        assert_eq!(report.escalations[0].escalated_to, FailureClass::Media);
        let stats = scrub.stats();
        assert_eq!(stats.repair_failures, 1);
        assert_eq!(stats.escalations_media, 1);
        assert_eq!(stats.escalations_system, 0);
        assert_eq!(scrub.escalated().len(), 1);
    }

    #[test]
    fn single_device_node_escalates_to_system() {
        let fx = fixture(true);
        fx.device.inject_fault(PageId(1), FaultSpec::HardReadError);
        let governor = IoGovernor::new(
            GovernorConfig::unthrottled(),
            Arc::clone(fx.device.clock()),
            quiet_obs(&fx),
        );
        let scrub = scrubber_with(&fx, true, &Arc::new(governor));
        let report = scrub.run_cycle();
        assert_eq!(report.escalations.len(), 1);
        assert_eq!(report.escalations[0].escalated_to, FailureClass::System);
        let stats = scrub.stats();
        assert_eq!(stats.escalations_media, 1, "passed through media");
        assert_eq!(stats.escalations_system, 1);
    }

    #[test]
    fn stop_request_interrupts_background_cycles_only() {
        let fx = fixture(false);
        let scrub = scrubber(&fx);
        scrub.request_stop();
        let report = scrub.run_cycle_interruptible();
        assert_eq!(report.pages_scanned, 0);
        assert_eq!(
            scrub.stats().cycles_completed,
            0,
            "interrupted, not completed"
        );
        // An explicit one-shot sweep ignores (and must not clear) a
        // pending stop.
        scrub.run_cycle();
        assert_eq!(scrub.stats().cycles_completed, 1);
        assert!(scrub.stop_requested(), "run_cycle must not clear the flag");
        scrub.clear_stop();
        scrub.run_cycle_interruptible();
        assert_eq!(scrub.stats().cycles_completed, 2);
    }

    #[test]
    fn refused_repair_never_retires_a_good_clean_copy() {
        let fx = fixture(true);
        // Page 5 resident clean: the pool serves good, verified bytes.
        {
            let _g = fx.pool.fetch(PageId(5)).unwrap();
        }
        assert_eq!(fx.pool.probe(PageId(5)), Residency::Clean);
        // The device image looks stale to the ladder, and the repairer
        // refuses (no backup).
        fx.pri
            .set_backup(PageId(5), spf_wal::BackupRef::None, Lsn(1));
        fx.pri.set_latest_lsn(PageId(5), Lsn(50));
        let scrub = scrubber(&fx);
        let report = scrub.run_cycle();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.escalations.len(), 1);
        assert_eq!(
            fx.pool.probe(PageId(5)),
            Residency::Clean,
            "the only good copy must keep serving reads after a refused repair"
        );
    }

    #[test]
    fn mean_time_to_detect_uses_previous_visit() {
        let fx = fixture(false);
        let scrub = scrubber(&fx);
        scrub.run_cycle(); // clean baseline visit at t0
        fx.device.clock().advance(SimDuration::from_secs(2));
        fx.device.inject_fault(
            PageId(4),
            FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
        );
        scrub.run_cycle();
        let mttd = scrub.stats().mean_time_to_detect().unwrap();
        assert_eq!(mttd, SimDuration::from_secs(2));
    }
}
