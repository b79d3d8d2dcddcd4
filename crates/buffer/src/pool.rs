//! The buffer pool proper: frames, clock eviction, guards, and the
//! verification/recovery read path.
//!
//! # Concurrency scheme
//!
//! The page table is **sharded**: residency is tracked in `SHARDS`
//! independently locked hash maps keyed by a `PageId` hash, so fetches of
//! unrelated pages never contend on a common lock, and pool statistics are
//! plain atomics. The invariant that makes this safe to run fast is:
//!
//! > **No device read, no device write, and no log force ever happens
//! > while a shard lock is held.** Shard locks only guard table lookups
//! > and the publish/unlink of frames.
//!
//! A buffer fault installs an *in-flight* marker in the shard, drops the
//! lock, and performs the whole Figure 8 sequence — device read, in-page
//! verification, PRI cross-check, inline single-page recovery — with no
//! table lock held. Concurrent faults on the same page find the marker
//! and wait on it instead of issuing duplicate device reads (miss
//! coalescing); once the leader publishes the frame they resolve as hits.
//! Eviction (the Figure 11 write-back: log force, backup hook, device
//! write, PRI record) likewise claims the victim frame with a per-frame
//! flag, performs all I/O unlocked, and only then takes the shard lock to
//! unlink the page — re-checking that no one pinned or re-dirtied the
//! frame while the write-back ran.
//!
//! # Scan resistance and prefetch
//!
//! Eviction is a generalized clock (GCLOCK) with re-reference credit:
//! each frame carries a small priority counter instead of one reference
//! bit. A normal fetch installs at one unit of credit and each
//! re-reference earns another (up to [`MAX_PRIORITY`]); the sweeping
//! hand spends a unit per pass and only claims frames at zero. Fetches
//! hinted [`FetchHint::Scan`] install at **zero** credit and never
//! promote on re-reference, so a long scan streams through the frames
//! it just vacated instead of flushing the hot working set.
//!
//! [`BufferPool::prefetch_page`] is the background half of the miss
//! path: it installs the *same* in-flight marker a miss leader would,
//! reads through the device's separately counted prefetch path, and
//! publishes the verified image clean. A foreground fault racing the
//! prefetch finds the marker and coalesces behind it exactly like a
//! second miss — one device read, no special cases.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::sync::{Condvar, Mutex as StdMutex, OnceLock};

use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};

use spf_obs::{EventKind, Obs, SpanKind, TraceCtx};
use spf_storage::{Page, PageId, StorageDevice, StorageError};
use spf_wal::{LogManager, Lsn};

use crate::traits::{
    AccessContext, AccessObserver, FetchError, PageRecoverer, ReadValidator, ValidationError,
    WriteObserver,
};

/// Number of page-table shards. A power of two so the hash can mask.
const SHARDS: usize = 16;

/// Ceiling of a frame's clock credit: a page can bank at most this many
/// sweep passes of protection, so even an abandoned hot set drains in a
/// bounded number of revolutions.
pub const MAX_PRIORITY: u8 = 3;

/// Clock credit a normal fetch installs (and earns per re-reference).
const NORMAL_PRIORITY: u8 = 1;

/// Re-reference-interval hint supplied with a fetch, driving the
/// scan-resistant eviction priority (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchHint {
    /// Point access (tree descent). Installs with one unit of clock
    /// credit; each re-reference earns another, up to [`MAX_PRIORITY`].
    #[default]
    Normal,
    /// Streaming access (long scans). Installs at clock priority 0 so
    /// the scan recycles its own frames, and never promotes on a hit —
    /// only non-scan accesses can make a page hot.
    Scan,
}

impl FetchHint {
    /// The access context this hint maps to for the prefetcher's feed.
    fn context(self) -> AccessContext {
        match self {
            FetchHint::Normal => AccessContext::TreeDescent,
            FetchHint::Scan => AccessContext::Scan,
        }
    }

    /// Clock credit a miss installs with.
    fn install_priority(self) -> u8 {
        match self {
            FetchHint::Normal => NORMAL_PRIORITY,
            FetchHint::Scan => 0,
        }
    }
}

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Number of page frames.
    pub frames: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self { frames: 128 }
    }
}

/// Counters describing pool behaviour and failure handling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the device.
    pub misses: u64,
    /// Fetches that found another thread's read of the same page in
    /// flight and waited for it instead of issuing a duplicate device
    /// read. They resolve as hits once the leader publishes the frame.
    pub coalesced_misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back (eviction, flush, checkpoint).
    pub write_backs: u64,
    /// Failures caught by the page checksum.
    pub detected_checksum: u64,
    /// Failures caught by the self-identifying page id.
    pub detected_wrong_id: u64,
    /// Failures caught by header/slot plausibility checks.
    pub detected_plausibility: u64,
    /// Failures caught only by the PageLSN cross-check against the page
    /// recovery index (stale/lost writes).
    pub detected_stale_lsn: u64,
    /// Reads the device failed loudly.
    pub detected_hard_error: u64,
    /// Successful inline single-page recoveries.
    pub pages_recovered: u64,
    /// Failures that escalated (no recoverer, or recovery declined).
    pub escalations: u64,
    /// Background prefetches issued (in-flight marker installed and a
    /// device read attempted).
    pub prefetch_issued: u64,
    /// Prefetched images successfully verified and installed.
    pub prefetch_installed: u64,
    /// Fetches whose first touch of a page found it already installed by
    /// (or coalesced behind) a prefetch — would-have-been misses.
    pub prefetch_hits: u64,
    /// Prefetched pages evicted without ever being referenced — the
    /// predictor's false positives.
    pub prefetch_wasted: u64,
}

impl PoolStats {
    /// All detected single-page failures, before recovery.
    #[must_use]
    pub fn total_detected(&self) -> u64 {
        self.detected_checksum
            + self.detected_wrong_id
            + self.detected_plausibility
            + self.detected_stale_lsn
            + self.detected_hard_error
    }

    /// Fraction of fetches served without a device read, in `[0, 1]`.
    /// Coalesced misses count as misses: the caller did wait on a read,
    /// even if it was someone else's.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced_misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Fraction of installed prefetches the foreground actually touched.
    #[must_use]
    pub fn prefetch_hit_ratio(&self) -> f64 {
        if self.prefetch_installed == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.prefetch_installed as f64
    }

    /// Fraction of installed prefetches evicted untouched.
    #[must_use]
    pub fn prefetch_waste_ratio(&self) -> f64 {
        if self.prefetch_installed == 0 {
            return 0.0;
        }
        self.prefetch_wasted as f64 / self.prefetch_installed as f64
    }
}

/// Scales a ratio in `[0, 1]` to basis points for the u64-valued
/// metrics registry.
fn basis_points(ratio: f64) -> u64 {
    (ratio * 10_000.0).round() as u64
}

impl spf_obs::Observable for PoolStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("hits", self.hits)
            .counter("misses", self.misses)
            .counter("coalesced_misses", self.coalesced_misses)
            .counter("evictions", self.evictions)
            .counter("write_backs", self.write_backs)
            .counter("detected_checksum", self.detected_checksum)
            .counter("detected_wrong_id", self.detected_wrong_id)
            .counter("detected_plausibility", self.detected_plausibility)
            .counter("detected_stale_lsn", self.detected_stale_lsn)
            .counter("detected_hard_error", self.detected_hard_error)
            .counter("pages_recovered", self.pages_recovered)
            .counter("escalations", self.escalations)
            .counter("prefetch_issued", self.prefetch_issued)
            .counter("prefetch_installed", self.prefetch_installed)
            .counter("prefetch_hits", self.prefetch_hits)
            .counter("prefetch_wasted", self.prefetch_wasted)
            // Derived ratios, in basis points (the registry is u64-only),
            // so experiments and dashboards can assert on one number.
            .gauge("hit_rate_bp", basis_points(self.hit_rate()))
            .gauge(
                "prefetch_hit_ratio_bp",
                basis_points(self.prefetch_hit_ratio()),
            )
            .gauge(
                "prefetch_waste_ratio_bp",
                basis_points(self.prefetch_waste_ratio()),
            );
    }
}

/// Lock-free pool counters; snapshotted into [`PoolStats`].
#[derive(Default)]
struct StatCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced_misses: AtomicU64,
    evictions: AtomicU64,
    write_backs: AtomicU64,
    detected_checksum: AtomicU64,
    detected_wrong_id: AtomicU64,
    detected_plausibility: AtomicU64,
    detected_stale_lsn: AtomicU64,
    detected_hard_error: AtomicU64,
    pages_recovered: AtomicU64,
    escalations: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_installed: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> PoolStats {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PoolStats {
            hits: ld(&self.hits),
            misses: ld(&self.misses),
            coalesced_misses: ld(&self.coalesced_misses),
            evictions: ld(&self.evictions),
            write_backs: ld(&self.write_backs),
            detected_checksum: ld(&self.detected_checksum),
            detected_wrong_id: ld(&self.detected_wrong_id),
            detected_plausibility: ld(&self.detected_plausibility),
            detected_stale_lsn: ld(&self.detected_stale_lsn),
            detected_hard_error: ld(&self.detected_hard_error),
            pages_recovered: ld(&self.pages_recovered),
            escalations: ld(&self.escalations),
            prefetch_issued: ld(&self.prefetch_issued),
            prefetch_installed: ld(&self.prefetch_installed),
            prefetch_hits: ld(&self.prefetch_hits),
            prefetch_wasted: ld(&self.prefetch_wasted),
        }
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A recovered image, staged to be published dirty at its own PageLSN.
fn dirty_at_page_lsn(page: Page) -> (Page, Option<Lsn>) {
    let lsn = Lsn(page.page_lsn());
    (page, Some(lsn))
}

/// Per-frame bookkeeping guarded by one mutex: the resident page id and
/// the dirty state (merged so write-back and eviction take a single
/// frame-lock acquisition instead of separate `id`/`dirty` locks).
#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    /// Resident page id, [`PageId::INVALID`] when the frame is empty.
    id: PageId,
    dirty: bool,
    /// LSN of the first record that dirtied the page since it was last
    /// clean — the recovery LSN reported in checkpoints.
    rec_lsn: Lsn,
}

impl FrameMeta {
    const EMPTY: FrameMeta = FrameMeta {
        id: PageId::INVALID,
        dirty: false,
        rec_lsn: Lsn::NULL,
    };
}

struct Frame {
    page: Arc<RwLock<Page>>,
    pins: AtomicU32,
    /// GCLOCK credit: how many sweep passes this frame survives before
    /// becoming a victim candidate. See the module docs.
    priority: AtomicU8,
    /// Set when the resident image was installed by a prefetch and has
    /// not yet been referenced by the foreground; cleared (counting a
    /// prefetch hit) on first touch, or (counting waste) on eviction.
    prefetched: AtomicBool,
    /// Eviction/installation claim. Set by exactly one thread at a time:
    /// either an evictor running the unlocked write-back, or a miss
    /// leader filling the frame before publishing it. A claimed frame is
    /// skipped by the clock sweep.
    claimed: AtomicBool,
    meta: Mutex<FrameMeta>,
}

impl Frame {
    fn new(page_size: usize) -> Self {
        Self {
            page: Arc::new(RwLock::new(Page::from_bytes(vec![0u8; page_size]))),
            pins: AtomicU32::new(0),
            priority: AtomicU8::new(0),
            prefetched: AtomicBool::new(false),
            claimed: AtomicBool::new(false),
            meta: Mutex::new(FrameMeta::EMPTY),
        }
    }

    /// Applies `hint`'s re-reference credit on a hit.
    fn promote(&self, hint: FetchHint) {
        if matches!(hint, FetchHint::Normal) {
            let p = self.priority.load(Ordering::Relaxed);
            if p < MAX_PRIORITY {
                // A lost race under-promotes by at most one pass; fine.
                self.priority.store(p + 1, Ordering::Relaxed);
            }
        }
    }

    /// Clears the eviction-relevant flags when the frame is emptied.
    fn reset_replacement_state(&self) {
        self.priority.store(0, Ordering::Relaxed);
        self.prefetched.store(false, Ordering::Relaxed);
    }
}

/// A shard's view of a page: resident in a frame, or being read in by
/// another thread.
enum Slot {
    Resident(usize),
    InFlight(Arc<InFlight>),
}

/// Where a page currently lives relative to the pool — the background
/// scrubber's residency probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Not resident, no read in flight: the device image is the only copy.
    Absent,
    /// Resident and clean: the pooled copy matches the last completed
    /// write-back, so the device image can be verified independently.
    Clean,
    /// Resident and dirty: the pooled copy is newer than anything on the
    /// device; the device image must not be judged (or "repaired") against
    /// outside expectations.
    Dirty,
    /// Another thread is reading or repairing the page right now.
    InFlight,
}

/// Outcome of [`BufferPool::repair`].
#[derive(Debug)]
pub enum RepairOutcome {
    /// The recovered image is installed, dirty at its PageLSN, so the
    /// next write-back (or an explicit flush) persists it.
    Repaired,
    /// The page is resident dirty: its newest version exists only in the
    /// frame, and an image rebuilt from the log would lose every update
    /// since the last write-back. Refused; nothing was touched.
    Dirty,
    /// Another thread's read or repair was in flight, the page latch was
    /// held, or no frame could be claimed; retry later.
    Busy,
    /// Recovery declined (or no recoverer is configured); the pool is
    /// unchanged.
    Failed(String),
}

/// Outcome of a background prefetch ([`BufferPool::prefetch_page`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The page was read, verified, and installed clean.
    Installed,
    /// The page was already resident; nothing to do.
    Resident,
    /// Another thread's read or repair of the page was in flight.
    Busy,
    /// No frame could be claimed (pool under pressure); the prefetch was
    /// abandoned rather than competing with foreground faults.
    NoFrame,
    /// The device read or verification failed. The failure is **not**
    /// counted as detected and no recovery was attempted: the next
    /// foreground fault runs the full Figure 8 ladder and accounts for
    /// it exactly once.
    Failed,
}

/// What [`BufferPool::try_evict`] did with a claimed candidate frame.
enum EvictOutcome {
    /// The frame is unlinked and empty; the caller owns it.
    Claimed,
    /// Pinned, re-dirtied, or already unlinked: move the clock hand on.
    Skip,
    /// A short-lived owner (page-latch holder) blocked the write-back;
    /// worth retrying after a yield.
    SkipTransient,
}

/// Rendezvous for coalesced misses: waiters block here until the leader
/// publishes the frame (or fails and removes the marker), then re-probe
/// the shard.
struct InFlight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self {
            done: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn complete(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct Shard {
    table: HashMap<PageId, Slot>,
}

/// The collaborators a pool is built with ([`BufferPool::with_hooks`]),
/// fixed for its lifetime. The pool owns them, so none of them may hold
/// the pool: a hook that needs one (the prefetcher's fault feed) goes
/// through [`BufferPool::set_access_observer`] instead.
#[derive(Clone, Default)]
pub struct PoolHooks {
    /// The read validator (the PRI PageLSN cross-check).
    pub validator: Option<Arc<dyn ReadValidator>>,
    /// The single-page recoverer.
    pub recoverer: Option<Arc<dyn PageRecoverer>>,
    /// The write observer (backup policy + PRI maintenance).
    pub observer: Option<Arc<dyn WriteObserver>>,
}

/// The buffer pool. Cheap to clone; clones share the pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    frames: Vec<Frame>,
    shards: Vec<Mutex<Shard>>,
    clock_hand: AtomicUsize,
    stats: StatCounters,
    device: Arc<dyn StorageDevice>,
    log: LogManager,
    /// The log's observability handle ([`LogManager::obs`]), held here
    /// so the miss, latch-wait and prefetch paths reach it in one load.
    obs: Arc<Obs>,
    hooks: PoolHooks,
    /// Fault feed for the prefetcher ([`BufferPool::set_access_observer`]).
    /// Weak: the observer holds a clone of this pool, and a strong
    /// reference back would keep both alive forever.
    access_observer: OnceLock<Weak<dyn AccessObserver>>,
}

impl PoolInner {
    fn shard(&self, id: PageId) -> &Mutex<Shard> {
        // Fibonacci hashing spreads the sequential page ids an allocator
        // hands out across all shards.
        let h = (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// Test hook: the clock priority of `id`'s frame, if resident.
    #[cfg(test)]
    fn frames_priority_of(&self, id: PageId) -> Option<u8> {
        let shard = self.shard(id).lock();
        match shard.table.get(&id) {
            Some(Slot::Resident(idx)) => Some(self.frames[*idx].priority.load(Ordering::Relaxed)),
            _ => None,
        }
    }
}

/// Shared-pin handle embedded in guards; unpins on drop.
struct Pin {
    pool: Arc<PoolInner>,
    frame_idx: usize,
}

impl Drop for Pin {
    fn drop(&mut self) {
        self.pool.frames[self.frame_idx]
            .pins
            .fetch_sub(1, Ordering::Release);
    }
}

/// Read guard over a resident page. Dereferences to [`Page`].
pub struct PageReadGuard {
    guard: ArcRwLockReadGuard<RawRwLock, Page>,
    _pin: Pin,
}

impl std::fmt::Debug for PageReadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PageReadGuard")
            .field(&self.guard.page_id())
            .finish()
    }
}

impl std::ops::Deref for PageReadGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

/// Write guard over a resident page. Dereferences to [`Page`]; callers
/// must pair every logged mutation with [`PageWriteGuard::mark_dirty`].
pub struct PageWriteGuard {
    guard: ArcRwLockWriteGuard<RawRwLock, Page>,
    pool: Arc<PoolInner>,
    frame_idx: usize,
    _pin: Pin,
}

impl std::fmt::Debug for PageWriteGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PageWriteGuard")
            .field(&self.guard.page_id())
            .finish()
    }
}

impl std::ops::Deref for PageWriteGuard {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

impl std::ops::DerefMut for PageWriteGuard {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.guard
    }
}

impl PageWriteGuard {
    /// Records that the page was mutated under `lsn`: sets the PageLSN,
    /// marks the frame dirty, and pins `lsn` as the recovery LSN if the
    /// frame was clean. One frame-lock acquisition.
    pub fn mark_dirty(&mut self, lsn: Lsn) {
        self.guard.set_page_lsn(lsn.0);
        let mut meta = self.pool.frames[self.frame_idx].meta.lock();
        if !meta.dirty {
            meta.dirty = true;
            meta.rec_lsn = lsn;
        }
    }
}

impl BufferPool {
    /// Creates a pool of `config.frames` frames over `device`, using
    /// `log` for the WAL-before-write discipline, with no hooks: reads
    /// get the in-page checks only and a failed page is not repaired.
    #[must_use]
    pub fn new(config: BufferPoolConfig, device: Arc<dyn StorageDevice>, log: LogManager) -> Self {
        Self::with_hooks(config, device, log, PoolHooks::default())
    }

    /// [`new`](BufferPool::new) with the engine's collaborators wired in.
    #[must_use]
    pub fn with_hooks(
        config: BufferPoolConfig,
        device: Arc<dyn StorageDevice>,
        log: LogManager,
        hooks: PoolHooks,
    ) -> Self {
        assert!(config.frames >= 2, "pool needs at least two frames");
        let page_size = device.page_size();
        Self {
            inner: Arc::new(PoolInner {
                frames: (0..config.frames).map(|_| Frame::new(page_size)).collect(),
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                clock_hand: AtomicUsize::new(0),
                stats: StatCounters::default(),
                device,
                obs: Arc::clone(log.obs()),
                log,
                hooks,
                access_observer: OnceLock::new(),
            }),
        }
    }

    /// Installs the access observer — the prefetcher's learning feed,
    /// called on every true miss and on the first foreground touch of a
    /// prefetched page, never with a shard lock held. At most one per
    /// pool; later calls are ignored. Unlike the [`PoolHooks`] this
    /// cannot be a constructor argument: the prefetcher is built *from*
    /// a clone of the pool. For the same reason it is held weakly — the
    /// pool does not keep the observer alive: whoever wires it (the
    /// `Database`) owns it, and once it is dropped the feed goes quiet.
    pub fn set_access_observer(&self, observer: Weak<dyn AccessObserver>) {
        let _ = self.inner.access_observer.set(observer);
    }

    fn notify_access_observer(&self, id: PageId, hint: FetchHint) {
        if let Some(observer) = self.inner.access_observer.get().and_then(Weak::upgrade) {
            observer.page_faulted(id, hint.context());
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.frames.len()
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .table
                    .values()
                    .filter(|slot| matches!(slot, Slot::Resident(_)))
                    .count()
            })
            .sum()
    }

    /// True if `id` is resident.
    #[must_use]
    pub fn contains(&self, id: PageId) -> bool {
        matches!(
            self.inner.shard(id).lock().table.get(&id),
            Some(Slot::Resident(_))
        )
    }

    /// Pool statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.inner.stats.snapshot()
    }

    /// Fetches `id` for reading, verifying (and if needed recovering) the
    /// page on a buffer fault. Equivalent to
    /// [`fetch_with_hint`](BufferPool::fetch_with_hint) with
    /// [`FetchHint::Normal`].
    pub fn fetch(&self, id: PageId) -> Result<PageReadGuard, FetchError> {
        self.fetch_with_hint(id, FetchHint::Normal)
    }

    /// Fetches `id` for reading with an explicit re-reference-interval
    /// hint (see [`FetchHint`]).
    pub fn fetch_with_hint(
        &self,
        id: PageId,
        hint: FetchHint,
    ) -> Result<PageReadGuard, FetchError> {
        self.fetch_with_ctx(id, hint, TraceCtx::NONE)
    }

    /// Fetches `id` for reading within a sampled trace: a buffer fault
    /// records a `PageMiss` span classed as miss I/O, and contention on
    /// the page latch records a `LatchWait` span. Unsampled contexts pay
    /// one branch.
    pub fn fetch_with_ctx(
        &self,
        id: PageId,
        hint: FetchHint,
        ctx: TraceCtx,
    ) -> Result<PageReadGuard, FetchError> {
        let (frame_idx, page_arc) = self.fetch_frame(id, hint, ctx)?;
        // Try-then-block: the common uncontended acquire stays span-free
        // even when sampled, so `LatchWait` spans measure real blocking.
        let guard = match RwLock::try_read_arc(&page_arc) {
            Some(g) => g,
            None => {
                let _span = self.inner.obs.span(ctx, SpanKind::LatchWait, id.0);
                RwLock::read_arc(&page_arc)
            }
        };
        Ok(PageReadGuard {
            guard,
            _pin: Pin {
                pool: Arc::clone(&self.inner),
                frame_idx,
            },
        })
    }

    /// Fetches `id` for writing.
    pub fn fetch_mut(&self, id: PageId) -> Result<PageWriteGuard, FetchError> {
        self.fetch_mut_ctx(id, TraceCtx::NONE)
    }

    /// Fetches `id` for writing within a sampled trace (see
    /// [`fetch_with_ctx`](BufferPool::fetch_with_ctx)).
    pub fn fetch_mut_ctx(&self, id: PageId, ctx: TraceCtx) -> Result<PageWriteGuard, FetchError> {
        let (frame_idx, page_arc) = self.fetch_frame(id, FetchHint::Normal, ctx)?;
        let guard = match RwLock::try_write_arc(&page_arc) {
            Some(g) => g,
            None => {
                let _span = self.inner.obs.span(ctx, SpanKind::LatchWait, id.0);
                RwLock::write_arc(&page_arc)
            }
        };
        Ok(PageWriteGuard {
            guard,
            pool: Arc::clone(&self.inner),
            frame_idx,
            _pin: Pin {
                pool: Arc::clone(&self.inner),
                frame_idx,
            },
        })
    }

    /// Fetches `id` for writing without blocking on the page latch. The
    /// page is made resident exactly as in [`BufferPool::fetch_mut`] (a
    /// buffer fault still performs the verified read), but if another
    /// thread holds the page latch this returns `Ok(None)` instead of
    /// waiting — the back-off primitive that lets concurrent B-tree
    /// restructures yield to foreground traffic instead of deadlocking
    /// against it.
    pub fn try_fetch_mut(&self, id: PageId) -> Result<Option<PageWriteGuard>, FetchError> {
        let (frame_idx, page_arc) = self.fetch_frame(id, FetchHint::Normal, TraceCtx::NONE)?;
        let pin = Pin {
            pool: Arc::clone(&self.inner),
            frame_idx,
        };
        match RwLock::try_write_arc(&page_arc) {
            Some(guard) => Ok(Some(PageWriteGuard {
                guard,
                pool: Arc::clone(&self.inner),
                frame_idx,
                _pin: pin,
            })),
            // `pin` drops here, unpinning the frame.
            None => Ok(None),
        }
    }

    /// Installs a brand-new page image (allocation/format path or a page
    /// rebuilt by recovery) without reading the device. The frame is
    /// marked dirty with `rec_lsn`.
    pub fn put_new(&self, page: Page, rec_lsn: Lsn) -> Result<PageWriteGuard, FetchError> {
        let id = page.page_id();
        loop {
            enum Probe {
                Resident(usize),
                Wait(Arc<InFlight>),
                Lead,
            }
            let probe = {
                let mut shard = self.inner.shard(id).lock();
                match shard.table.get(&id) {
                    Some(Slot::Resident(idx)) => {
                        let idx = *idx;
                        let frame = &self.inner.frames[idx];
                        frame.pins.fetch_add(1, Ordering::Acquire);
                        frame.promote(FetchHint::Normal);
                        Probe::Resident(idx)
                    }
                    Some(Slot::InFlight(fl)) => Probe::Wait(Arc::clone(fl)),
                    None => {
                        shard
                            .table
                            .insert(id, Slot::InFlight(Arc::new(InFlight::new())));
                        Probe::Lead
                    }
                }
            };
            match probe {
                Probe::Resident(idx) => {
                    let frame = &self.inner.frames[idx];
                    let page_arc = Arc::clone(&frame.page);
                    let mut guard = RwLock::write_arc(&page_arc);
                    // Dirty bookkeeping under the page write latch (the
                    // same discipline as `mark_dirty`), so a concurrent
                    // write-back cannot clean the frame between our meta
                    // update and the image install. Reusing a resident
                    // frame must not lose an earlier recovery LSN: the
                    // DPT entry names the oldest un-persisted change.
                    {
                        let mut meta = frame.meta.lock();
                        if !meta.dirty || rec_lsn < meta.rec_lsn {
                            meta.dirty = true;
                            meta.rec_lsn = rec_lsn;
                        }
                    }
                    *guard = page;
                    return Ok(PageWriteGuard {
                        guard,
                        pool: Arc::clone(&self.inner),
                        frame_idx: idx,
                        _pin: Pin {
                            pool: Arc::clone(&self.inner),
                            frame_idx: idx,
                        },
                    });
                }
                Probe::Wait(fl) => {
                    fl.wait();
                    continue;
                }
                Probe::Lead => {
                    // Victim selection and its write-back run with no
                    // shard lock held. The latch the image was installed
                    // under is never let go: the caller owns the page
                    // from the moment it becomes visible.
                    let staged = Ok((page, Some(rec_lsn)));
                    let (idx, guard) = self.publish_frame(id, staged, FetchHint::Normal, false)?;
                    return Ok(PageWriteGuard {
                        guard,
                        pool: Arc::clone(&self.inner),
                        frame_idx: idx,
                        _pin: Pin {
                            pool: Arc::clone(&self.inner),
                            frame_idx: idx,
                        },
                    });
                }
            }
        }
    }

    /// Forwards a page-format notification to the write observer (called
    /// by access methods right after logging a format record).
    pub fn notify_page_formatted(&self, id: PageId, format_lsn: Lsn) {
        if let Some(observer) = &self.inner.hooks.observer {
            observer.page_formatted(id, format_lsn);
        }
    }

    /// The dirty-page table: `(page, recovery LSN)` for every dirty frame.
    /// Touches only the per-frame locks, never the shard locks.
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<(PageId, Lsn)> {
        self.collect_dirty(|_| {})
    }

    /// The dirty-page table a checkpoint records: [`dirty_pages`](BufferPool::dirty_pages)
    /// after waiting out every page latch held at the call. Page updates
    /// are logged under the page's write latch and mark the frame dirty
    /// before the latch goes, so every update appended before this call
    /// has its frame dirty — or already written back — in the result.
    /// Must not be called with a page latch held.
    #[must_use]
    pub fn settled_dirty_pages(&self) -> Vec<(PageId, Lsn)> {
        self.collect_dirty(|frame| drop(frame.page.read()))
    }

    fn collect_dirty(&self, settle: impl Fn(&Frame)) -> Vec<(PageId, Lsn)> {
        let mut out = Vec::new();
        for frame in &self.inner.frames {
            settle(frame);
            let meta = frame.meta.lock();
            if meta.dirty && meta.id.is_valid() {
                out.push((meta.id, meta.rec_lsn));
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Writes back `id` if resident and dirty; the frame stays resident.
    pub fn flush_page(&self, id: PageId) -> Result<(), FetchError> {
        // No pin is taken (a transient flush pin could trip
        // `discard_page`'s pinned assertion): `write_back` re-checks
        // under the page latch that the frame still holds `id`. If
        // eviction recycled the frame meanwhile, the eviction itself
        // wrote the dirty page back, so the flush contract holds either
        // way.
        let idx = {
            let shard = self.inner.shard(id).lock();
            match shard.table.get(&id) {
                Some(Slot::Resident(idx)) => *idx,
                _ => return Ok(()),
            }
        };
        self.write_back(idx, id)
    }

    /// Writes back every dirty page in `ids` (checkpoint uses the list it
    /// snapshotted at checkpoint start, per Section 5.2.6).
    pub fn flush_pages(&self, ids: &[PageId]) -> Result<(), FetchError> {
        for &id in ids {
            self.flush_page(id)?;
        }
        Ok(())
    }

    /// Writes back every dirty page.
    pub fn flush_all(&self) -> Result<(), FetchError> {
        for (id, _) in self.dirty_pages() {
            self.flush_page(id)?;
        }
        Ok(())
    }

    /// Simulates a crash: every frame is discarded without write-back.
    pub fn discard_all(&self) {
        assert!(
            self.inner
                .frames
                .iter()
                .all(|f| f.pins.load(Ordering::Acquire) == 0),
            "discard_all with outstanding pins"
        );
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            assert!(
                shard.table.values().all(|s| matches!(s, Slot::Resident(_))),
                "discard_all with reads in flight"
            );
            shard.table.clear();
        }
        for frame in &self.inner.frames {
            *frame.meta.lock() = FrameMeta::EMPTY;
            frame.reset_replacement_state();
        }
    }

    /// Drops `id` from the pool without writing it back (used when a page
    /// is deallocated, or to force the next access back through the
    /// verified read path). Best-effort: a page pinned by a concurrent
    /// reader (e.g. the background scrubber's transient inspection pin)
    /// is left in place and `false` is returned — callers that replace
    /// the image afterwards go through [`put_new`](BufferPool::put_new),
    /// which handles resident frames under the page latch.
    pub fn discard_page(&self, id: PageId) -> bool {
        let mut shard = self.inner.shard(id).lock();
        if let Some(Slot::Resident(idx)) = shard.table.get(&id) {
            let frame = &self.inner.frames[*idx];
            if frame.pins.load(Ordering::Acquire) != 0 {
                return false;
            }
            *frame.meta.lock() = FrameMeta::EMPTY;
            frame.reset_replacement_state();
            shard.table.remove(&id);
        }
        true
    }

    // ------------------------------------------------------------------
    // Scrubber cooperation (residency probe, verify-in-place, repair)
    // ------------------------------------------------------------------

    /// Reports where `id` currently lives relative to the pool, without
    /// fetching it. One shard-lock plus (when resident) one frame-meta
    /// acquisition; no I/O, no pin.
    #[must_use]
    pub fn probe(&self, id: PageId) -> Residency {
        let shard = self.inner.shard(id).lock();
        match shard.table.get(&id) {
            Some(Slot::Resident(idx)) => {
                let meta = self.inner.frames[*idx].meta.lock();
                if meta.dirty {
                    Residency::Dirty
                } else {
                    Residency::Clean
                }
            }
            Some(Slot::InFlight(_)) => Residency::InFlight,
            None => Residency::Absent,
        }
    }

    /// Runs `f` over the resident image of `id` under its read latch —
    /// the scrubber's verify-in-place hook for dirty resident pages.
    /// Never touches the device: returns `None` when the page is not
    /// resident. The frame is pinned for the duration of `f`. Does not
    /// count as a fetch in [`PoolStats`].
    pub fn inspect_resident<T>(&self, id: PageId, f: impl FnOnce(&Page) -> T) -> Option<T> {
        let (frame_idx, page_arc) = {
            let shard = self.inner.shard(id).lock();
            match shard.table.get(&id) {
                Some(Slot::Resident(idx)) => {
                    let idx = *idx;
                    let frame = &self.inner.frames[idx];
                    frame.pins.fetch_add(1, Ordering::Acquire);
                    (idx, Arc::clone(&frame.page))
                }
                _ => return None,
            }
        };
        let _pin = Pin {
            pool: Arc::clone(&self.inner),
            frame_idx,
        };
        let guard = page_arc.read();
        Some(f(&guard))
    }

    /// Single-page repair of `id` for a failure found off the miss path
    /// (the tree's structural checks, the scrubber), through the same
    /// recoverer call the miss path makes.
    ///
    /// - **Absent:** the repair holds the in-flight marker a miss leader
    ///   would, so concurrent fetches coalesce behind it and resolve as
    ///   hits on the recovered image.
    /// - **Resident clean:** the frame is latched (only tried, so a
    ///   caller holding the page itself gets `Busy`, not a self-deadlock)
    ///   for the whole repair, and its image is replaced only once a
    ///   recovered one is in hand: a refused repair leaves the good copy
    ///   serving reads.
    /// - **Resident dirty:** refused ([`RepairOutcome::Dirty`]).
    ///
    /// The recovered image is published **dirty** at its PageLSN, so the
    /// WAL-ordered write-back persists it; callers wanting the device
    /// fixed now follow up with [`flush_page`](BufferPool::flush_page).
    pub fn repair(&self, id: PageId, ctx: TraceCtx) -> RepairOutcome {
        let resident = {
            let mut shard = self.inner.shard(id).lock();
            match shard.table.get(&id) {
                Some(Slot::Resident(idx)) => {
                    self.inner.frames[*idx].pins.fetch_add(1, Ordering::Acquire);
                    Some(*idx)
                }
                Some(Slot::InFlight(_)) => return RepairOutcome::Busy,
                None => {
                    shard
                        .table
                        .insert(id, Slot::InFlight(Arc::new(InFlight::new())));
                    None
                }
            }
        };
        let Some(frame_idx) = resident else {
            // We own the marker; all I/O below runs with no shard lock held.
            let staged = self
                .recover(id, ctx)
                .map(dirty_at_page_lsn)
                .map_err(|reason| FetchError::MediaFailure { id, reason });
            return match self.publish_frame(id, staged, FetchHint::Normal, false) {
                Ok((frame_idx, _latch)) => {
                    // publish_frame pinned the frame on our behalf; release it.
                    self.inner.frames[frame_idx]
                        .pins
                        .fetch_sub(1, Ordering::Release);
                    RepairOutcome::Repaired
                }
                Err(FetchError::NoFreeFrames) => RepairOutcome::Busy,
                Err(FetchError::MediaFailure { reason, .. }) => RepairOutcome::Failed(reason),
                Err(e) => RepairOutcome::Failed(e.to_string()),
            };
        };
        // Pinned, so the frame cannot be evicted; latched, so no update
        // can dirty it and no write-back can replace the image the repair
        // supersedes.
        let _pin = Pin {
            pool: Arc::clone(&self.inner),
            frame_idx,
        };
        let frame = &self.inner.frames[frame_idx];
        let Some(mut page) = frame.page.try_write() else {
            return RepairOutcome::Busy;
        };
        if frame.meta.lock().dirty {
            return RepairOutcome::Dirty;
        }
        match self.recover(id, ctx) {
            Ok(image) => {
                let mut meta = frame.meta.lock();
                meta.dirty = true;
                meta.rec_lsn = Lsn(image.page_lsn());
                *page = image;
                RepairOutcome::Repaired
            }
            Err(reason) => RepairOutcome::Failed(reason),
        }
    }

    /// Runs single-page recovery on `id`: the one call of the
    /// [`PageRecoverer`] hook, for the miss path and
    /// [`repair`](BufferPool::repair) alike. Each attempt is accounted
    /// here and nowhere else: the `RepairAttempt` / `RepairOk` /
    /// `RepairFailed` events, `pages_recovered` / `escalations`, one
    /// `Repair` span under `ctx` (feeding `page_repair_ns` and the
    /// trace), and the MTTR sample in the repair ledger. A refusal is
    /// returned, not escalated: only the caller knows the node shape
    /// Figure 1 is walked for.
    fn recover(&self, id: PageId, ctx: TraceCtx) -> Result<Page, String> {
        let inner = &self.inner;
        inner.obs.emit(EventKind::RepairAttempt, id.0, 0);
        let started = inner.log.clock().now();
        let outcome = match &inner.hooks.recoverer {
            Some(recoverer) => {
                let _span = inner.obs.span(ctx, SpanKind::Repair, id.0);
                recoverer.recover(id)
            }
            None => Err(format!("no single-page recoverer configured for {id}")),
        };
        match &outcome {
            Ok(_) => {
                let took = inner.log.clock().now() - started;
                bump(&inner.stats.pages_recovered);
                inner.obs.emit(EventKind::RepairOk, id.0, took.as_nanos());
                inner.obs.ledger().record_repair("single_page", took);
            }
            Err(_) => {
                bump(&inner.stats.escalations);
                inner.obs.emit(EventKind::RepairFailed, id.0, 0);
            }
        }
        outcome
    }

    // ------------------------------------------------------------------
    // Prefetch
    // ------------------------------------------------------------------

    /// Background prefetch of `id`: installs the same in-flight marker a
    /// miss leader would, reads through the device's separately counted
    /// prefetch path, and publishes the verified image **clean** at
    /// normal clock priority with the frame's prefetched flag set. A
    /// foreground fault racing the prefetch finds the marker and
    /// coalesces behind it — one device read either way.
    ///
    /// Not counted as a miss. Failures are not counted as detected and
    /// no recovery is attempted ([`PrefetchOutcome::Failed`]): the next
    /// foreground fault runs the full Figure 8 ladder and accounts for
    /// the failure exactly once.
    pub fn prefetch_page(&self, id: PageId) -> PrefetchOutcome {
        {
            let mut shard = self.inner.shard(id).lock();
            match shard.table.get(&id) {
                Some(Slot::Resident(_)) => return PrefetchOutcome::Resident,
                Some(Slot::InFlight(_)) => return PrefetchOutcome::Busy,
                None => {
                    shard
                        .table
                        .insert(id, Slot::InFlight(Arc::new(InFlight::new())));
                }
            }
        }
        // We own the marker; all I/O below runs with no shard lock held.
        bump(&self.inner.stats.prefetch_issued);
        self.inner.obs.emit(EventKind::PrefetchIssued, id.0, 0);
        let _span = self
            .inner
            .obs
            .span(TraceCtx::NONE, SpanKind::Prefetch, id.0);
        let staged = self.prefetch_read_verified(id).map(|page| (page, None));
        match self.publish_frame(id, staged, FetchHint::Normal, true) {
            Ok((frame_idx, _latch)) => {
                // publish_frame pinned the frame on our behalf; release it.
                self.inner.frames[frame_idx]
                    .pins
                    .fetch_sub(1, Ordering::Release);
                bump(&self.inner.stats.prefetch_installed);
                PrefetchOutcome::Installed
            }
            Err(FetchError::NoFreeFrames) => PrefetchOutcome::NoFrame,
            Err(_) => PrefetchOutcome::Failed,
        }
    }

    /// The prefetch read: device prefetch path plus in-page and validator
    /// checks, but — unlike [`read_verified`](Self::read_verified) — no
    /// inline recovery and no detection accounting. A bad page simply
    /// stays absent.
    fn prefetch_read_verified(&self, id: PageId) -> Result<Page, FetchError> {
        let mut buf = vec![0u8; self.inner.device.page_size()];
        match self.inner.device.prefetch_read(id, &mut buf) {
            Ok(()) => {}
            Err(StorageError::DeviceFailed) => {
                return Err(FetchError::MediaFailure {
                    id,
                    reason: "device failed".to_string(),
                });
            }
            Err(e) => return Err(FetchError::Storage(e)),
        }
        let page = Page::from_bytes(buf);
        if let Err(defect) = page.verify(id) {
            return Err(FetchError::UnrecoveredPageFailure {
                id,
                error: ValidationError::Defect(defect),
            });
        }
        if let Some(v) = &self.inner.hooks.validator {
            if let Err(error) = v.validate(id, &page) {
                return Err(FetchError::UnrecoveredPageFailure { id, error });
            }
        }
        Ok(page)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn fetch_frame(
        &self,
        id: PageId,
        hint: FetchHint,
        ctx: TraceCtx,
    ) -> Result<(usize, Arc<RwLock<Page>>), FetchError> {
        loop {
            enum Probe {
                Hit {
                    idx: usize,
                    page: Arc<RwLock<Page>>,
                    first_touch: bool,
                },
                Wait(Arc<InFlight>),
                Lead,
            }
            let probe = {
                let mut shard = self.inner.shard(id).lock();
                match shard.table.get(&id) {
                    Some(Slot::Resident(idx)) => {
                        let idx = *idx;
                        let frame = &self.inner.frames[idx];
                        frame.pins.fetch_add(1, Ordering::Acquire);
                        frame.promote(hint);
                        let first_touch = frame.prefetched.swap(false, Ordering::Relaxed);
                        bump(&self.inner.stats.hits);
                        Probe::Hit {
                            idx,
                            page: Arc::clone(&frame.page),
                            first_touch,
                        }
                    }
                    Some(Slot::InFlight(fl)) => Probe::Wait(Arc::clone(fl)),
                    None => {
                        shard
                            .table
                            .insert(id, Slot::InFlight(Arc::new(InFlight::new())));
                        Probe::Lead
                    }
                }
            };
            match probe {
                Probe::Hit {
                    idx,
                    page,
                    first_touch,
                } => {
                    if first_touch {
                        // First foreground touch of a prefetched page: a
                        // would-have-been miss. Feed the predictor too, so
                        // it keeps learning even when every prediction
                        // lands (otherwise a perfect prefetcher starves
                        // its own input and oscillates).
                        bump(&self.inner.stats.prefetch_hits);
                        self.inner
                            .obs
                            .emit(EventKind::PrefetchHit, id.0, hint.context() as u64);
                        self.notify_access_observer(id, hint);
                    }
                    return Ok((idx, page));
                }
                Probe::Wait(fl) => {
                    // Coalesced miss: another thread is already reading
                    // this page. Wait for it to publish, then re-probe
                    // (normally a hit; on leader failure each waiter
                    // retries as leader).
                    bump(&self.inner.stats.coalesced_misses);
                    // Straight to the tracer: the wait belongs in a
                    // sampled operation's trace, but the `page_miss_ns`
                    // sample is the leader's read, not each waiter's.
                    let _span = self
                        .inner
                        .obs
                        .tracer()
                        .span(ctx, SpanKind::PageMiss, id.0, None);
                    fl.wait();
                }
                Probe::Lead => return self.load_miss(id, hint, ctx),
            }
        }
    }

    /// The miss path, entered owning the in-flight marker for `id`. All
    /// I/O — the verified read (with inline recovery) and any eviction
    /// write-back — happens with no shard lock held.
    fn load_miss(
        &self,
        id: PageId,
        hint: FetchHint,
        ctx: TraceCtx,
    ) -> Result<(usize, Arc<RwLock<Page>>), FetchError> {
        bump(&self.inner.stats.misses);
        self.notify_access_observer(id, hint);
        self.inner.obs.emit(EventKind::PageMiss, id.0, 0);
        let span = self.inner.obs.span(ctx, SpanKind::PageMiss, id.0);
        let staged = self.read_verified(id, span.ctx());
        let (idx, _latch) = self.publish_frame(id, staged, hint, false)?;
        Ok((idx, Arc::clone(&self.inner.frames[idx].page)))
    }

    /// Completes a miss (or `put_new`, a prefetch, a repair): claims a
    /// victim frame for the staged image and publishes it under the shard
    /// lock — dirty at the staged recovery LSN if there is one, at
    /// `hint`'s clock credit — or, on error, removes the in-flight
    /// marker; either way every coalesced waiter wakes.
    ///
    /// On success the frame is pinned on the caller's behalf, and the
    /// page write latch the image was installed under is returned still
    /// held (callers that only publish drop it).
    fn publish_frame(
        &self,
        id: PageId,
        staged: Result<(Page, Option<Lsn>), FetchError>,
        hint: FetchHint,
        prefetched: bool,
    ) -> Result<(usize, ArcRwLockWriteGuard<RawRwLock, Page>), FetchError> {
        // Install the image in the still-unpublished frame first: the
        // moment the shard entry flips to Resident, hits pin and read the
        // frame with no further synchronization.
        let staged = staged.and_then(|(page, rec_lsn)| {
            let idx = self.claim_victim(hint)?;
            let mut latch = RwLock::write_arc(&self.inner.frames[idx].page);
            *latch = page;
            Ok((idx, rec_lsn, latch))
        });
        let mut shard = self.inner.shard(id).lock();
        let fl = match shard.table.get(&id) {
            Some(Slot::InFlight(fl)) => Arc::clone(fl),
            _ => unreachable!("in-flight marker owned by this thread"),
        };
        let result = match staged {
            Ok((idx, rec_lsn, latch)) => {
                let frame = &self.inner.frames[idx];
                {
                    let mut meta = frame.meta.lock();
                    meta.id = id;
                    meta.dirty = rec_lsn.is_some();
                    meta.rec_lsn = rec_lsn.unwrap_or(Lsn::NULL);
                }
                frame.pins.fetch_add(1, Ordering::Acquire);
                frame
                    .priority
                    .store(hint.install_priority(), Ordering::Relaxed);
                frame.prefetched.store(prefetched, Ordering::Relaxed);
                shard.table.insert(id, Slot::Resident(idx));
                frame.claimed.store(false, Ordering::Release);
                Ok((idx, latch))
            }
            Err(e) => {
                shard.table.remove(&id);
                Err(e)
            }
        };
        drop(shard);
        fl.complete();
        result
    }

    /// The paper's Figure 8: read, verify, and on failure either recover
    /// inline (under `ctx`) or report the failure. A recovered image
    /// comes with the recovery LSN it is published dirty at. Runs with
    /// **no lock held**.
    fn read_verified(&self, id: PageId, ctx: TraceCtx) -> Result<(Page, Option<Lsn>), FetchError> {
        let stats = &self.inner.stats;
        let detected = |code: u64| self.inner.obs.emit(EventKind::FaultDetected, id.0, code);
        let mut buf = vec![0u8; self.inner.device.page_size()];
        let read_result = self.inner.device.read_page(id, &mut buf);

        let error = match read_result {
            Err(StorageError::DeviceFailed) => {
                return Err(FetchError::MediaFailure {
                    id,
                    reason: "device failed".to_string(),
                });
            }
            Err(StorageError::ReadFailed { .. }) => {
                bump(&stats.detected_hard_error);
                detected(spf_obs::detector::HARD_ERROR);
                None // fall through to recovery with no candidate image
            }
            Err(e) => return Err(FetchError::Storage(e)),
            Ok(()) => {
                let page = Page::from_bytes(buf);
                match page.verify(id) {
                    Ok(()) => {
                        let validator = self.inner.hooks.validator.as_ref();
                        match validator.map_or(Ok(()), |v| v.validate(id, &page)) {
                            Ok(()) => return Ok((page, None)),
                            Err(e @ ValidationError::StaleLsn { .. }) => {
                                bump(&stats.detected_stale_lsn);
                                detected(spf_obs::detector::STALE_LSN);
                                Some(e)
                            }
                            Err(e @ ValidationError::Defect(_)) => {
                                bump(&stats.detected_plausibility);
                                detected(spf_obs::detector::PLAUSIBILITY);
                                Some(e)
                            }
                        }
                    }
                    Err(defect) => {
                        use spf_storage::PageDefect::*;
                        match &defect {
                            ChecksumMismatch { .. } => {
                                bump(&stats.detected_checksum);
                                detected(spf_obs::detector::CHECKSUM);
                            }
                            WrongPageId { .. } => {
                                bump(&stats.detected_wrong_id);
                                detected(spf_obs::detector::WRONG_ID);
                            }
                            UnknownPageType(_) | ImplausibleHeader(_) | ImplausibleSlot { .. } => {
                                bump(&stats.detected_plausibility);
                                detected(spf_obs::detector::PLAUSIBILITY);
                            }
                        }
                        Some(ValidationError::Defect(defect))
                    }
                }
            }
        };

        // Single-page failure detected. Recover inline if we can; the
        // caller escalates what cannot be.
        match (self.recover(id, ctx), error) {
            (Ok(page), _) => Ok(dirty_at_page_lsn(page)),
            // Figure 8 without single-page recovery: the detection itself
            // is the answer.
            (Err(_), Some(error)) if self.inner.hooks.recoverer.is_none() => {
                Err(FetchError::UnrecoveredPageFailure { id, error })
            }
            (Err(reason), _) => Err(FetchError::MediaFailure { id, reason }),
        }
    }

    /// Advances the clock hand one step and returns the frame index it
    /// pointed at. The hand is kept strictly inside `[0, n)`: a bare
    /// `fetch_add % n` would distribute unevenly when the counter wraps
    /// (2^64 is generally not a multiple of `n`, so the frames just
    /// after the wrap point get visited twice — double-decrementing
    /// their credit every 2^64 steps of accumulated sweeping).
    fn advance_clock(&self, n: usize) -> usize {
        self.inner
            .clock_hand
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                Some(if h >= n - 1 { 0 } else { h + 1 })
            })
            .unwrap_or(0)
            // The update keeps the hand in range; the modulo only matters
            // for a pre-existing out-of-range value (it is observed once,
            // then the hand is back in [0, n)).
            % n
    }

    /// GCLOCK victim selection. Returns a **claimed**, unlinked, empty
    /// frame; the caller publishes it and clears the claim. A dirty
    /// victim is written back with no shard lock held. Each sweep step
    /// spends one unit of a frame's priority credit; only frames already
    /// at zero are claim candidates.
    ///
    /// A sweep blocked by pins and priority credit alone is the genuine
    /// everything-in-use condition and fails fast (`NoFreeFrames`).
    /// Sweeps that lost races against *transient* owners (frames claimed
    /// by concurrent misses/evictors, or latched mid-write-back) retry
    /// after yielding, which makes a spurious out-of-frames error
    /// unlikely — though not impossible under sustained contention, so
    /// concurrent callers should treat `NoFreeFrames` as retryable (as
    /// the stress tests do).
    ///
    /// A [`FetchHint::Scan`] claim is *gentle*: it first makes one lap
    /// looking for a frame already at zero credit — typically the scan's
    /// own already-consumed pages — without decrementing anything, so a
    /// scan longer than the pool streams through frames it recycles
    /// itself instead of draining the working set's second chances one
    /// sweep step at a time. Only a pool with no zero-credit frame at
    /// all (e.g. cold, or all-hot) falls back to the spending sweep.
    fn claim_victim(&self, hint: FetchHint) -> Result<usize, FetchError> {
        let n = self.inner.frames.len();
        if matches!(hint, FetchHint::Scan) {
            for _ in 0..n {
                let idx = self.advance_clock(n);
                let frame = &self.inner.frames[idx];
                if frame.pins.load(Ordering::Acquire) != 0
                    || frame.priority.load(Ordering::Relaxed) != 0
                {
                    continue;
                }
                if frame
                    .claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                match self.try_evict(idx) {
                    Ok(EvictOutcome::Claimed) => return Ok(idx),
                    Ok(EvictOutcome::Skip) | Ok(EvictOutcome::SkipTransient) => {
                        frame.claimed.store(false, Ordering::Release);
                        continue;
                    }
                    Err(e) => {
                        frame.claimed.store(false, Ordering::Release);
                        return Err(e);
                    }
                }
            }
        }
        for _round in 0..16 {
            let mut lost_race = false;
            // MAX_PRIORITY + 1 revolutions drain every frame's credit;
            // the extra slack absorbs interleaving with concurrent
            // sweeps.
            for _ in 0..(usize::from(MAX_PRIORITY) + 2) * n {
                let idx = self.advance_clock(n);
                let frame = &self.inner.frames[idx];
                if frame.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                if frame
                    .priority
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| p.checked_sub(1))
                    .is_ok()
                {
                    // Had credit; spent one unit and moved on.
                    continue;
                }
                if frame
                    .claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    lost_race = true;
                    continue; // another evictor or miss leader owns it
                }
                match self.try_evict(idx) {
                    Ok(EvictOutcome::Claimed) => return Ok(idx),
                    Ok(EvictOutcome::Skip) => {
                        frame.claimed.store(false, Ordering::Release);
                        continue;
                    }
                    Ok(EvictOutcome::SkipTransient) => {
                        frame.claimed.store(false, Ordering::Release);
                        lost_race = true;
                        continue;
                    }
                    Err(e) => {
                        frame.claimed.store(false, Ordering::Release);
                        return Err(e);
                    }
                }
            }
            if !lost_race {
                break;
            }
            std::thread::yield_now();
        }
        Err(FetchError::NoFreeFrames)
    }

    /// With frame `idx` claimed: write it back if dirty (unlocked I/O),
    /// then atomically re-check evictability and unlink it from its
    /// shard. `Skip` means the frame was pinned or re-dirtied while the
    /// write-back ran; `SkipTransient` means a short-lived owner (a
    /// page-latch holder) is in the way and a retry is worthwhile.
    fn try_evict(&self, idx: usize) -> Result<EvictOutcome, FetchError> {
        let frame = &self.inner.frames[idx];
        let (old_id, was_dirty) = {
            let meta = frame.meta.lock();
            (meta.id, meta.dirty)
        };
        if !old_id.is_valid() {
            // Empty frame; never reachable from a shard, so the claim
            // alone secures it.
            return Ok(EvictOutcome::Claimed);
        }
        if was_dirty {
            // Figure 11 write-back: log force and device write with no
            // shard lock held; the page stays fetchable throughout. The
            // latch is only *tried*: blocking here while holding the
            // claim (and, on the miss path, an in-flight marker) could
            // deadlock against a latch holder waiting on that marker.
            let Some(mut page) = frame.page.try_write() else {
                return Ok(EvictOutcome::SkipTransient);
            };
            self.write_back_locked(idx, old_id, &mut page)?;
        }
        let mut shard = self.inner.shard(old_id).lock();
        let mut meta = frame.meta.lock();
        if frame.pins.load(Ordering::Acquire) != 0 || meta.dirty || meta.id != old_id {
            return Ok(EvictOutcome::Skip);
        }
        match shard.table.get(&old_id) {
            Some(Slot::Resident(resident)) if *resident == idx => {
                shard.table.remove(&old_id);
            }
            _ => return Ok(EvictOutcome::Skip),
        }
        *meta = FrameMeta::EMPTY;
        bump(&self.inner.stats.evictions);
        if frame.prefetched.swap(false, Ordering::Relaxed) {
            // Evicted without ever being referenced: the prefetch was a
            // false positive.
            bump(&self.inner.stats.prefetch_wasted);
        }
        self.inner
            .obs
            .emit(EventKind::PageEvict, old_id.0, u64::from(was_dirty));
        Ok(EvictOutcome::Claimed)
    }

    /// The paper's Figure 11 write-back sequence:
    /// 1. force the log up to the PageLSN (WAL rule);
    /// 2. `before_page_write` (backup policy may copy the page);
    /// 3. checksum and write the page;
    /// 4. `after_page_write` (log the PRI update — unforced);
    /// 5. mark the frame clean (only now may it be evicted).
    ///
    /// Holds the page's write latch and the frame meta lock — one
    /// acquisition each — but **no shard lock**. The dirty state cannot
    /// change underneath us: `mark_dirty` requires the page write latch
    /// we are holding.
    fn write_back(&self, frame_idx: usize, id: PageId) -> Result<(), FetchError> {
        let frame = &self.inner.frames[frame_idx];
        let mut page = frame.page.write();
        self.write_back_locked(frame_idx, id, &mut page)
    }

    /// The write-back body, entered with the page write latch held.
    /// Re-checks under the latch that the frame still holds `id`
    /// (`flush_page` runs unpinned, so eviction may have recycled the
    /// frame; the eviction then already wrote the page back).
    fn write_back_locked(
        &self,
        frame_idx: usize,
        id: PageId,
        page: &mut Page,
    ) -> Result<(), FetchError> {
        let frame = &self.inner.frames[frame_idx];
        let mut meta = frame.meta.lock();
        if meta.id != id || !meta.dirty {
            return Ok(());
        }
        let page_lsn = Lsn(page.page_lsn());

        // (1) WAL: no dirty page reaches the device before its log
        // records — force *through* the PageLSN, not the whole buffer
        // (later records, e.g. other pages' PRI updates, stay unforced).
        // This joins the log's combined-force protocol, so a write-back
        // racing user commits shares their group-commit flush instead of
        // issuing its own.
        self.inner.log.force_through(page_lsn, TraceCtx::NONE);

        // (2) Backup policy hook.
        let observer = self.inner.hooks.observer.as_ref();
        if let Some(obs) = observer {
            obs.before_page_write(page);
        }

        // (3) Write.
        page.finalize_checksum();
        match self.inner.device.write_page(id, page.as_bytes()) {
            Ok(()) => {}
            Err(StorageError::DeviceFailed) => {
                return Err(FetchError::MediaFailure {
                    id,
                    reason: "device failed".into(),
                })
            }
            Err(e) => return Err(FetchError::Storage(e)),
        }
        // The frame goes clean below, which lets the next checkpoint
        // drop the page from its dirty-page table — after which restart
        // redo will never revisit it. That is only sound if the write
        // is *durable*, not merely acknowledged into the device's write
        // cache: sync before clean, or a kill after the checkpoint
        // would silently lose the page's updates.
        match self.inner.device.sync() {
            Ok(()) => {}
            Err(StorageError::DeviceFailed) => {
                return Err(FetchError::MediaFailure {
                    id,
                    reason: "device failed".into(),
                })
            }
            Err(e) => return Err(FetchError::Storage(e)),
        }
        bump(&self.inner.stats.write_backs);

        // (4) PRI maintenance: "After each completed page write follows a
        // single log record" (Section 5.2.4).
        if let Some(obs) = observer {
            obs.after_page_write(id, page_lsn);
        }

        // (5) Clean.
        meta.dirty = false;
        meta.rec_lsn = Lsn::NULL;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_storage::{CorruptionMode, FaultSpec, MemDevice, PageType, DEFAULT_PAGE_SIZE};
    use spf_wal::{LogPayload, LogRecord, TxId};

    fn setup(frames: usize, pages: u64) -> (BufferPool, MemDevice, LogManager) {
        setup_with(frames, pages, PoolHooks::default())
    }

    fn setup_with(
        frames: usize,
        pages: u64,
        hooks: PoolHooks,
    ) -> (BufferPool, MemDevice, LogManager) {
        let device = MemDevice::for_testing(DEFAULT_PAGE_SIZE, pages);
        // Pre-format every page on "disk".
        for i in 0..pages {
            let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::BTreeLeaf);
            p.finalize_checksum();
            device.raw_overwrite(PageId(i), p.as_bytes());
        }
        let log = LogManager::for_testing();
        let pool = BufferPool::with_hooks(
            BufferPoolConfig { frames },
            Arc::new(device.clone()),
            log.clone(),
            hooks,
        );
        (pool, device, log)
    }

    fn dirty_page(pool: &BufferPool, id: PageId, lsn: Lsn) {
        let mut guard = pool.fetch_mut(id).unwrap();
        let mut sp = spf_storage::SlottedPage::new(&mut guard);
        sp.push(b"x", false).unwrap();
        guard.mark_dirty(lsn);
    }

    #[test]
    fn fetch_hit_and_miss() {
        let (pool, _dev, _log) = setup(4, 8);
        {
            let g = pool.fetch(PageId(1)).unwrap();
            assert_eq!(g.page_id(), PageId(1));
        }
        {
            let g = pool.fetch(PageId(1)).unwrap();
            assert_eq!(g.page_id(), PageId(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn eviction_under_pressure() {
        let (pool, _dev, _log) = setup(4, 16);
        for i in 0..12 {
            let _ = pool.fetch(PageId(i)).unwrap();
        }
        assert!(pool.resident() <= 4);
        assert!(pool.stats().evictions >= 8);
    }

    #[test]
    fn all_pinned_errors() {
        let (pool, _dev, _log) = setup(2, 8);
        let _a = pool.fetch(PageId(0)).unwrap();
        let _b = pool.fetch(PageId(1)).unwrap();
        match pool.fetch(PageId(2)) {
            Err(FetchError::NoFreeFrames) => {}
            other => panic!("expected NoFreeFrames, got {other:?}"),
        }
        // The failed miss must not leave a stuck in-flight marker.
        assert!(!pool.contains(PageId(2)));
        drop(_a);
        assert!(pool.fetch(PageId(2)).is_ok());
    }

    #[test]
    fn dirty_page_written_back_on_eviction() {
        let (pool, dev, _log) = setup(2, 8);
        dirty_page(&pool, PageId(5), Lsn(100));
        // Force eviction of page 5 by touching two other pages repeatedly.
        for _ in 0..4 {
            let _ = pool.fetch(PageId(0)).unwrap();
            let _ = pool.fetch(PageId(1)).unwrap();
        }
        assert!(!pool.contains(PageId(5)));
        let stored = Page::from_bytes(dev.raw_image(PageId(5)));
        assert_eq!(
            stored.page_lsn(),
            100,
            "write-back must have persisted the update"
        );
        assert_eq!(
            stored.verify(PageId(5)),
            Ok(()),
            "write-back must checksum the page"
        );
    }

    #[test]
    fn flush_page_and_dirty_table() {
        let (pool, dev, _log) = setup(8, 8);
        dirty_page(&pool, PageId(2), Lsn(50));
        dirty_page(&pool, PageId(3), Lsn(60));
        let dpt = pool.dirty_pages();
        assert_eq!(dpt, vec![(PageId(2), Lsn(50)), (PageId(3), Lsn(60))]);
        pool.flush_page(PageId(2)).unwrap();
        assert_eq!(pool.dirty_pages(), vec![(PageId(3), Lsn(60))]);
        assert_eq!(Page::from_bytes(dev.raw_image(PageId(2))).page_lsn(), 50);
        pool.flush_all().unwrap();
        assert!(pool.dirty_pages().is_empty());
    }

    /// A writer that logged its update but has not yet marked the frame
    /// dirty holds the page latch: the checkpoint's table waits it out
    /// and reports the page, where a plain snapshot would miss it.
    #[test]
    fn settled_dirty_pages_waits_out_a_latched_update() {
        use std::sync::mpsc::channel;
        let (pool, _dev, log) = setup(8, 8);
        let (logged, logged_rx) = channel();
        let (go, go_rx) = channel::<()>();
        let (table, table_rx) = channel();
        let (pool, log) = (&pool, &log);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut guard = pool.fetch_mut(PageId(4)).unwrap();
                let lsn = log.append(&LogRecord {
                    tx_id: TxId(1),
                    prev_tx_lsn: Lsn::NULL,
                    page_id: PageId(4),
                    prev_page_lsn: Lsn::NULL,
                    payload: LogPayload::TxAbort,
                });
                logged.send(lsn).unwrap();
                go_rx.recv().unwrap();
                guard.mark_dirty(lsn);
            });
            let lsn = logged_rx.recv().unwrap();
            assert!(lsn < log.end_lsn(), "logged below the scan point");
            s.spawn(move || table.send(pool.settled_dirty_pages()).unwrap());
            // While the writer holds the latch the table cannot be read.
            let early = table_rx.recv_timeout(std::time::Duration::from_millis(50));
            assert!(early.is_err(), "returned under a held latch: {early:?}");
            go.send(()).unwrap();
            assert_eq!(table_rx.recv().unwrap(), vec![(PageId(4), lsn)]);
        });
    }

    #[test]
    fn write_back_forces_log_first() {
        let (pool, _dev, log) = setup(4, 8);
        let lsn = log.append(&LogRecord {
            tx_id: TxId(1),
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(1),
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::TxBegin { system: false },
        });
        dirty_page(&pool, PageId(1), lsn);
        assert!(log.durable_lsn() <= lsn, "record not yet durable");
        pool.flush_page(PageId(1)).unwrap();
        assert!(
            log.durable_lsn() > lsn,
            "WAL rule: log must be forced before the page write"
        );
    }

    #[test]
    fn discard_all_loses_unwritten_updates() {
        let (pool, dev, _log) = setup(4, 8);
        dirty_page(&pool, PageId(4), Lsn(99));
        pool.discard_all();
        assert_eq!(pool.resident(), 0);
        let stored = Page::from_bytes(dev.raw_image(PageId(4)));
        assert_eq!(
            stored.page_lsn(),
            0,
            "crash: dirty update never reached the device"
        );
    }

    #[test]
    fn checksum_failure_without_recoverer_escalates() {
        let (pool, dev, _log) = setup(4, 8);
        dev.inject_fault(
            PageId(3),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 5 }),
        );
        match pool.fetch(PageId(3)) {
            Err(FetchError::UnrecoveredPageFailure { id, error }) => {
                assert_eq!(id, PageId(3));
                assert!(matches!(error, ValidationError::Defect(_)));
            }
            other => panic!("expected unrecovered failure, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.detected_checksum, 1);
        assert_eq!(stats.escalations, 1);
        assert!(!pool.contains(PageId(3)), "failed page must not be cached");
    }

    #[test]
    fn hard_read_error_without_recoverer_is_media_failure() {
        let (pool, dev, _log) = setup(4, 8);
        dev.inject_fault(PageId(2), FaultSpec::HardReadError);
        assert!(matches!(
            pool.fetch(PageId(2)),
            Err(FetchError::MediaFailure { .. })
        ));
        assert_eq!(pool.stats().detected_hard_error, 1);
    }

    /// Recovers a page to its canned image, or refuses when it has none.
    struct Canned(Vec<Page>);

    impl PageRecoverer for Canned {
        fn recover(&self, id: PageId) -> Result<Page, String> {
            let page = self.0.iter().find(|p| p.page_id() == id);
            page.cloned().ok_or_else(|| format!("no backup for {id}"))
        }
    }

    fn canned(images: Vec<Page>) -> PoolHooks {
        PoolHooks {
            recoverer: Some(Arc::new(Canned(images))),
            ..PoolHooks::default()
        }
    }

    fn image(id: u64, lsn: u64) -> Page {
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(id), PageType::BTreeLeaf);
        page.set_page_lsn(lsn);
        page.finalize_checksum();
        page
    }

    #[test]
    fn recoverer_repairs_inline_and_access_continues() {
        let (pool, dev, _log) = setup_with(4, 8, canned(vec![image(3, 777)]));
        dev.inject_fault(
            PageId(3),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
        );
        // The fetch itself succeeds: detection + recovery are inline.
        let g = pool.fetch(PageId(3)).unwrap();
        assert_eq!(g.page_lsn(), 777);
        let stats = pool.stats();
        assert_eq!(stats.pages_recovered, 1);
        assert_eq!(stats.escalations, 0);
    }

    struct StrictValidator {
        expected: Lsn,
    }

    impl ReadValidator for StrictValidator {
        fn validate(&self, _id: PageId, page: &Page) -> Result<(), ValidationError> {
            let found = Lsn(page.page_lsn());
            if found == self.expected {
                Ok(())
            } else {
                Err(ValidationError::StaleLsn {
                    found,
                    expected: self.expected,
                })
            }
        }
    }

    #[test]
    fn stale_lsn_detected_only_by_validator() {
        let (pool, dev, log) = setup(4, 8);
        // Persist LSN 10, then arm lost-write and "persist" LSN 20.
        {
            let mut g = pool.fetch_mut(PageId(6)).unwrap();
            g.mark_dirty(Lsn(10));
        }
        pool.flush_page(PageId(6)).unwrap();
        dev.inject_fault(
            PageId(6),
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        );
        {
            let mut g = pool.fetch_mut(PageId(6)).unwrap();
            g.mark_dirty(Lsn(20));
        }
        pool.flush_page(PageId(6)).unwrap(); // write silently dropped
        pool.discard_page(PageId(6));

        // Without the validator the stale page is accepted silently.
        {
            let g = pool.fetch(PageId(6)).unwrap();
            assert_eq!(
                g.page_lsn(),
                10,
                "stale image accepted: the nightmare scenario"
            );
        }
        pool.discard_page(PageId(6));

        // A pool built with the validator over the same device catches
        // the staleness.
        let pool = BufferPool::with_hooks(
            BufferPoolConfig { frames: 4 },
            Arc::new(dev.clone()),
            log,
            PoolHooks {
                validator: Some(Arc::new(StrictValidator { expected: Lsn(20) })),
                ..PoolHooks::default()
            },
        );
        match pool.fetch(PageId(6)) {
            Err(FetchError::UnrecoveredPageFailure { error, .. }) => {
                assert_eq!(
                    error,
                    ValidationError::StaleLsn {
                        found: Lsn(10),
                        expected: Lsn(20)
                    }
                );
            }
            other => panic!("expected stale-LSN detection, got {other:?}"),
        }
        assert_eq!(pool.stats().detected_stale_lsn, 1);
    }

    struct CountingObserver {
        before: AtomicU32,
        after: AtomicU32,
    }

    impl WriteObserver for CountingObserver {
        fn before_page_write(&self, _page: &mut Page) {
            self.before.fetch_add(1, Ordering::Relaxed);
        }
        fn after_page_write(&self, _id: PageId, _lsn: Lsn) {
            self.after.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn observer_sees_every_write_back() {
        let obs = Arc::new(CountingObserver {
            before: AtomicU32::new(0),
            after: AtomicU32::new(0),
        });
        let hooks = PoolHooks {
            observer: Some(Arc::clone(&obs) as _),
            ..PoolHooks::default()
        };
        let (pool, _dev, _log) = setup_with(4, 8, hooks);
        dirty_page(&pool, PageId(0), Lsn(5));
        dirty_page(&pool, PageId(1), Lsn(6));
        pool.flush_all().unwrap();
        assert_eq!(obs.before.load(Ordering::Relaxed), 2);
        assert_eq!(obs.after.load(Ordering::Relaxed), 2);
        // Clean flush: no further callbacks.
        pool.flush_all().unwrap();
        assert_eq!(obs.after.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn put_new_installs_dirty_page() {
        let (pool, dev, _log) = setup(4, 8);
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(7), PageType::BTreeBranch);
        page.set_page_lsn(42);
        {
            let g = pool.put_new(page, Lsn(42)).unwrap();
            assert_eq!(g.page_id(), PageId(7));
        }
        assert!(pool.contains(PageId(7)));
        assert_eq!(pool.dirty_pages(), vec![(PageId(7), Lsn(42))]);
        pool.flush_all().unwrap();
        assert_eq!(Page::from_bytes(dev.raw_image(PageId(7))).page_lsn(), 42);
    }

    #[test]
    fn probe_reports_residency_and_dirtiness() {
        let (pool, _dev, _log) = setup(4, 8);
        assert_eq!(pool.probe(PageId(1)), Residency::Absent);
        {
            let _g = pool.fetch(PageId(1)).unwrap();
        }
        assert_eq!(pool.probe(PageId(1)), Residency::Clean);
        dirty_page(&pool, PageId(1), Lsn(10));
        assert_eq!(pool.probe(PageId(1)), Residency::Dirty);
        pool.flush_page(PageId(1)).unwrap();
        assert_eq!(pool.probe(PageId(1)), Residency::Clean);
    }

    #[test]
    fn inspect_resident_is_hit_only() {
        let (pool, _dev, _log) = setup(4, 8);
        assert!(
            pool.inspect_resident(PageId(2), |_| ()).is_none(),
            "must not fetch from the device"
        );
        assert_eq!(pool.stats().misses, 0);
        {
            let _g = pool.fetch(PageId(2)).unwrap();
        }
        let id = pool.inspect_resident(PageId(2), |p| p.page_id()).unwrap();
        assert_eq!(id, PageId(2));
        // Not counted as a fetch.
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn repair_refuses_dirty_and_latched_frames() {
        let (pool, _dev, _log) = setup_with(4, 8, canned(vec![image(3, 9)]));
        dirty_page(&pool, PageId(3), Lsn(5));
        assert!(
            matches!(pool.repair(PageId(3), TraceCtx::NONE), RepairOutcome::Dirty),
            "dirty must be refused"
        );
        assert_eq!(pool.dirty_pages(), vec![(PageId(3), Lsn(5))], "untouched");
        pool.flush_page(PageId(3)).unwrap();
        {
            let _g = pool.fetch(PageId(3)).unwrap();
            assert!(
                matches!(pool.repair(PageId(3), TraceCtx::NONE), RepairOutcome::Busy),
                "latched must be refused"
            );
        }
        assert_eq!(pool.stats().pages_recovered, 0, "no refusal ran recovery");
        // Clean and free: the frame takes the recovered image, dirty.
        assert!(matches!(
            pool.repair(PageId(3), TraceCtx::NONE),
            RepairOutcome::Repaired
        ));
        assert_eq!(pool.dirty_pages(), vec![(PageId(3), Lsn(9))]);
        assert_eq!(pool.fetch(PageId(3)).unwrap().page_lsn(), 9);
        assert_eq!(pool.stats().pages_recovered, 1);
    }

    #[test]
    fn repair_installs_dirty_image_or_reports_failure() {
        let (pool, dev, _log) = setup_with(4, 8, canned(vec![image(6, 123)]));

        // Absent: the recovered image is installed dirty and flushable.
        match pool.repair(PageId(6), TraceCtx::NONE) {
            RepairOutcome::Repaired => {}
            other => panic!("expected repair, got {other:?}"),
        }
        assert_eq!(pool.probe(PageId(6)), Residency::Dirty);
        assert!(pool.dirty_pages().contains(&(PageId(6), Lsn(123))));
        pool.flush_page(PageId(6)).unwrap();
        assert_eq!(Page::from_bytes(dev.raw_image(PageId(6))).page_lsn(), 123);

        // Failure removes the marker; the page stays absent and fetchable.
        match pool.repair(PageId(7), TraceCtx::NONE) {
            RepairOutcome::Failed(reason) => assert_eq!(reason, "no backup for page(7)"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(pool.probe(PageId(7)), Residency::Absent);
        assert!(pool.fetch(PageId(7)).is_ok());

        // A refused repair of a clean resident page keeps it serving.
        assert!(matches!(
            pool.repair(PageId(7), TraceCtx::NONE),
            RepairOutcome::Failed(_)
        ));
        assert_eq!(pool.probe(PageId(7)), Residency::Clean);
        let stats = pool.stats();
        assert_eq!((stats.pages_recovered, stats.escalations), (1, 2));
    }

    #[test]
    fn fetch_coalesces_behind_repair() {
        struct Slow {
            started: std::sync::Barrier,
        }
        impl PageRecoverer for Slow {
            fn recover(&self, id: PageId) -> Result<Page, String> {
                self.started.wait();
                // Give the reader a moment to reach the marker.
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(image(id.0, 55))
            }
        }
        let slow = Arc::new(Slow {
            started: std::sync::Barrier::new(2),
        });
        let hooks = PoolHooks {
            recoverer: Some(Arc::clone(&slow) as _),
            ..PoolHooks::default()
        };
        let (pool, _dev, _log) = setup_with(4, 8, hooks);
        let pool2 = pool.clone();
        let reader = std::thread::spawn(move || {
            slow.started.wait();
            // This fetch starts while the repair holds the in-flight
            // marker; it must wait and then see the recovered image.
            let g = pool2.fetch(PageId(4)).unwrap();
            g.page_lsn()
        });
        match pool.repair(PageId(4), TraceCtx::NONE) {
            RepairOutcome::Repaired => {}
            other => panic!("expected repair, got {other:?}"),
        }
        assert_eq!(reader.join().unwrap(), 55);
        assert_eq!(pool.stats().misses, 0, "the waiter must not re-read");
    }

    #[test]
    fn put_new_on_dirty_resident_keeps_earliest_rec_lsn() {
        let (pool, _dev, _log) = setup(4, 8);
        // Frame dirtied at LSN 50; replacing the image at LSN 100 must not
        // advance the recovery LSN past the first un-persisted change.
        dirty_page(&pool, PageId(3), Lsn(50));
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(3), PageType::BTreeLeaf);
        page.set_page_lsn(100);
        drop(pool.put_new(page, Lsn(100)).unwrap());
        assert_eq!(pool.dirty_pages(), vec![(PageId(3), Lsn(50))]);
        // The other direction: an earlier rec_lsn in put_new wins too.
        let mut page = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(3), PageType::BTreeLeaf);
        page.set_page_lsn(100);
        drop(pool.put_new(page, Lsn(40)).unwrap());
        assert_eq!(pool.dirty_pages(), vec![(PageId(3), Lsn(40))]);
    }

    /// Regression test for the clock hand's wrap behaviour. The old
    /// `fetch_add % n` advance visits the frames just past the wrap point
    /// twice when the `AtomicUsize` overflows (2^64 is not a multiple of
    /// 3), double-spending their credit; the bounded advance must sweep
    /// every frame exactly once per revolution regardless of the hand's
    /// starting value.
    #[test]
    fn clock_hand_wrap_is_fair() {
        let (pool, _dev, _log) = setup(3, 8);
        for i in 0..3 {
            drop(pool.fetch(PageId(i)).unwrap()); // each installs at credit 1
        }
        // Park the hand one step before the overflow. usize::MAX - 1 is
        // ≡ 2 (mod 3), so a fair sweep visits 2, 0, 1, 2 and claims
        // frame 2; the old advance visited 2, 0, 0 — double-decrementing
        // frame 0 and evicting the wrong page.
        pool.inner
            .clock_hand
            .store(usize::MAX - 1, Ordering::Relaxed);
        drop(pool.fetch(PageId(3)).unwrap());
        assert!(
            pool.contains(PageId(0)) && pool.contains(PageId(1)),
            "frames after the wrap point lost credit twice in one sweep"
        );
        assert!(!pool.contains(PageId(2)));
        assert!(
            pool.inner.clock_hand.load(Ordering::Relaxed) < 3,
            "hand must stay within [0, frames)"
        );
    }

    #[test]
    fn scan_hinted_fetches_do_not_flush_hot_pages() {
        let (pool, _dev, _log) = setup(4, 40);
        // Establish a two-page hot set with banked re-reference credit.
        for _ in 0..3 {
            drop(pool.fetch(PageId(0)).unwrap());
            drop(pool.fetch(PageId(1)).unwrap());
        }
        // Stream a scan 8× the pool size through the remaining frames,
        // re-touching the hot set as a point access now and then (as a
        // B-tree descent to the scan's next leaf would).
        for i in 2..34 {
            drop(pool.fetch_with_hint(PageId(i), FetchHint::Scan).unwrap());
            if i % 4 == 0 {
                drop(pool.fetch(PageId(0)).unwrap());
                drop(pool.fetch(PageId(1)).unwrap());
            }
        }
        assert!(
            pool.contains(PageId(0)) && pool.contains(PageId(1)),
            "a streaming scan must recycle its own frames, not the hot set"
        );
    }

    /// Stronger than mere survival: a scan's claims must not spend the
    /// hot set's credit *at all*, even with no interleaved point access
    /// to earn it back — the gentle claim recycles zero-credit frames
    /// (its own consumed pages) without a decrementing sweep.
    #[test]
    fn scan_claims_spend_no_hot_credit() {
        let (pool, _dev, _log) = setup(4, 40);
        for _ in 0..3 {
            drop(pool.fetch(PageId(0)).unwrap());
            drop(pool.fetch(PageId(1)).unwrap());
        }
        let hot0 = pool.inner.frames_priority_of(PageId(0)).unwrap();
        let hot1 = pool.inner.frames_priority_of(PageId(1)).unwrap();
        for i in 2..34 {
            drop(pool.fetch_with_hint(PageId(i), FetchHint::Scan).unwrap());
        }
        assert!(pool.contains(PageId(0)) && pool.contains(PageId(1)));
        assert_eq!(pool.inner.frames_priority_of(PageId(0)), Some(hot0));
        assert_eq!(pool.inner.frames_priority_of(PageId(1)), Some(hot1));
    }

    #[test]
    fn scan_hint_never_promotes_on_hit() {
        let (pool, _dev, _log) = setup(4, 8);
        drop(pool.fetch_with_hint(PageId(1), FetchHint::Scan).unwrap());
        assert_eq!(pool.inner.frames_priority_of(PageId(1)), Some(0));
        // Re-referencing under the scan hint earns nothing…
        drop(pool.fetch_with_hint(PageId(1), FetchHint::Scan).unwrap());
        assert_eq!(pool.inner.frames_priority_of(PageId(1)), Some(0));
        // …while one point access makes the page hot.
        drop(pool.fetch(PageId(1)).unwrap());
        assert_eq!(pool.inner.frames_priority_of(PageId(1)), Some(1));
    }

    #[test]
    fn prefetch_installs_clean_and_first_touch_counts_hit() {
        let (pool, dev, _log) = setup(4, 8);
        assert_eq!(pool.prefetch_page(PageId(2)), PrefetchOutcome::Installed);
        assert!(pool.contains(PageId(2)));
        assert_eq!(pool.probe(PageId(2)), Residency::Clean);
        assert_eq!(dev.stats().prefetch_reads, 1);
        assert_eq!(dev.stats().random_reads, 0);

        // First foreground touch: a hit, and the prefetch pays off once.
        drop(pool.fetch(PageId(2)).unwrap());
        drop(pool.fetch(PageId(2)).unwrap());
        let stats = pool.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.prefetch_issued, 1);
        assert_eq!(stats.prefetch_installed, 1);
        assert_eq!(stats.prefetch_hits, 1, "only the first touch counts");
        assert_eq!(stats.prefetch_wasted, 0);
        assert!((stats.hit_rate() - 1.0).abs() < f64::EPSILON);
        assert!((stats.prefetch_hit_ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(stats.prefetch_waste_ratio(), 0.0);

        // Already resident / no double work.
        assert_eq!(pool.prefetch_page(PageId(2)), PrefetchOutcome::Resident);
        assert_eq!(pool.stats().prefetch_issued, 1);
    }

    /// Satellite: a foreground fault on a page with an in-flight prefetch
    /// must block on the shared marker and the pair must cost exactly one
    /// device read.
    #[test]
    fn fetch_coalesces_behind_prefetch() {
        struct BlockOnce {
            gate: Arc<std::sync::Barrier>,
            fired: AtomicBool,
        }
        impl ReadValidator for BlockOnce {
            fn validate(&self, _id: PageId, _page: &Page) -> Result<(), ValidationError> {
                if !self.fired.swap(true, Ordering::SeqCst) {
                    self.gate.wait();
                    // Hold the in-flight marker long enough for the
                    // foreground fetch to reach it.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                Ok(())
            }
        }
        let gate = Arc::new(std::sync::Barrier::new(2));
        let hooks = PoolHooks {
            validator: Some(Arc::new(BlockOnce {
                gate: Arc::clone(&gate),
                fired: AtomicBool::new(false),
            })),
            ..PoolHooks::default()
        };
        let (pool, dev, _log) = setup_with(4, 8, hooks);
        let pool2 = pool.clone();
        let prefetcher = std::thread::spawn(move || pool2.prefetch_page(PageId(5)));
        gate.wait(); // prefetch owns the marker and is mid-validate
        let g = pool.fetch(PageId(5)).unwrap();
        assert_eq!(g.page_id(), PageId(5));
        drop(g);
        assert_eq!(prefetcher.join().unwrap(), PrefetchOutcome::Installed);

        let stats = pool.stats();
        assert_eq!(stats.misses, 0, "the foreground must not re-read");
        assert_eq!(stats.coalesced_misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(
            stats.prefetch_hits, 1,
            "coalescing behind a prefetch is a prefetch hit"
        );
        assert_eq!(dev.stats().prefetch_reads, 1);
        assert_eq!(
            dev.stats().random_reads,
            0,
            "exactly one device read for the pair"
        );
    }

    #[test]
    fn prefetch_failure_leaves_detection_to_the_foreground() {
        let (pool, dev, _log) = setup(4, 8);
        dev.inject_fault(
            PageId(3),
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 5 }),
        );
        assert_eq!(pool.prefetch_page(PageId(3)), PrefetchOutcome::Failed);
        assert!(!pool.contains(PageId(3)));
        let stats = pool.stats();
        assert_eq!(stats.prefetch_issued, 1);
        assert_eq!(stats.prefetch_installed, 0);
        assert_eq!(
            stats.total_detected(),
            0,
            "a failed prefetch must not pre-empt the foreground's accounting"
        );
        // The next foreground fault runs the full ladder and accounts for
        // the failure exactly once.
        assert!(pool.fetch(PageId(3)).is_err());
        assert_eq!(pool.stats().total_detected(), 1);
    }

    #[test]
    fn prefetched_page_evicted_untouched_counts_waste() {
        let (pool, _dev, _log) = setup(2, 8);
        assert_eq!(pool.prefetch_page(PageId(1)), PrefetchOutcome::Installed);
        // Pressure the two-frame pool until the untouched prefetch is
        // evicted.
        for i in 2..7 {
            drop(pool.fetch(PageId(i)).unwrap());
        }
        assert!(!pool.contains(PageId(1)));
        let stats = pool.stats();
        assert_eq!(stats.prefetch_wasted, 1);
        assert_eq!(stats.prefetch_hits, 0);
        assert!((stats.prefetch_waste_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn access_observer_sees_misses_and_prefetch_first_touches() {
        #[derive(Default)]
        struct Recorder {
            seen: Mutex<Vec<(PageId, AccessContext)>>,
        }
        impl AccessObserver for Recorder {
            fn page_faulted(&self, id: PageId, ctx: AccessContext) {
                self.seen.lock().push((id, ctx));
            }
        }
        let (pool, _dev, _log) = setup(4, 8);
        let rec = Arc::new(Recorder::default());
        pool.set_access_observer(Arc::downgrade(&rec) as Weak<dyn AccessObserver>);

        drop(pool.fetch(PageId(1)).unwrap()); // true miss, point access
        drop(pool.fetch_with_hint(PageId(2), FetchHint::Scan).unwrap()); // true miss, scan
        pool.prefetch_page(PageId(3));
        drop(pool.fetch(PageId(3)).unwrap()); // prefetch first touch
        drop(pool.fetch(PageId(1)).unwrap()); // plain hit: not reported

        assert_eq!(
            *rec.seen.lock(),
            vec![
                (PageId(1), AccessContext::TreeDescent),
                (PageId(2), AccessContext::Scan),
                (PageId(3), AccessContext::TreeDescent),
            ]
        );
    }

    #[test]
    fn hit_rate_counts_coalesced_waits_as_misses() {
        let stats = PoolStats {
            hits: 6,
            misses: 2,
            coalesced_misses: 2,
            ..PoolStats::default()
        };
        assert!((stats.hit_rate() - 0.6).abs() < f64::EPSILON);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
