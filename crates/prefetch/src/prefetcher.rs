//! [`Prefetcher`]: the background thread body connecting predictor,
//! governor, and buffer pool.
//!
//! The prefetcher *is* the pool's [`AccessObserver`]: every true miss
//! (and every first touch of a prefetched page — a would-have-been miss,
//! reported so a perfectly predicting prefetcher does not starve its own
//! feed) lands in [`Prefetcher::page_faulted`], which teaches the
//! predictor and enqueues that context's predictions. A background
//! thread (owned by the database façade) drains the queue with
//! [`Prefetcher::poll`], drawing each page's budget from the
//! [`IoGovernor`] non-blockingly — prefetch is speculative, so an empty
//! bucket skips work instead of delaying anything.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use spf_buffer::{AccessContext, AccessObserver, BufferPool, PrefetchOutcome};
use spf_storage::PageId;

use crate::governor::{BackgroundIo, IoGovernor};
use crate::predictor::DeltaPredictor;

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Whether the engine wires up a prefetcher at all.
    pub enabled: bool,
    /// Pages predicted ahead of each observed fault.
    pub lookahead: usize,
    /// Bound on the pending-prediction queue; beyond it, new predictions
    /// are dropped (the foreground will just miss normally).
    pub queue_limit: usize,
}

impl PrefetchConfig {
    /// Prefetching on, with a short lookahead.
    #[must_use]
    pub const fn default_on() -> Self {
        Self {
            enabled: true,
            lookahead: 4,
            queue_limit: 64,
        }
    }

    /// No prefetcher (the seed behaviour).
    #[must_use]
    pub const fn disabled() -> Self {
        Self {
            enabled: false,
            lookahead: 0,
            queue_limit: 0,
        }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::default_on()
    }
}

/// Prefetcher counters (`DbStats.prefetch`). The install/hit/waste
/// accounting lives pool-side (`DbStats.pool`); these count the
/// decision pipeline in front of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Faults observed from the pool's feed.
    pub observed_faults: u64,
    /// Pages predicted (before dedup and queue bounds).
    pub predictions: u64,
    /// Predictions dropped at the full (or contended) queue.
    pub queue_dropped: u64,
    /// Prefetches skipped because the governor had no budget.
    pub deferred_budget: u64,
    /// `prefetch_page` calls issued.
    pub issued: u64,
    /// Issued prefetches that installed a page.
    pub installed: u64,
    /// Issued prefetches that found the page already resident or with a
    /// read in flight.
    pub already_resident: u64,
    /// Issued prefetches abandoned for lack of a claimable frame.
    pub no_frame: u64,
    /// Issued prefetches whose read or verification failed (left for the
    /// foreground's detection ladder).
    pub failed: u64,
}

impl spf_obs::Observable for PrefetchStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("observed_faults", self.observed_faults)
            .counter("predictions", self.predictions)
            .counter("queue_dropped", self.queue_dropped)
            .counter("deferred_budget", self.deferred_budget)
            .counter("issued", self.issued)
            .counter("installed", self.installed)
            .counter("already_resident", self.already_resident)
            .counter("no_frame", self.no_frame)
            .counter("failed", self.failed);
    }
}

struct Queue {
    pending: VecDeque<PageId>,
    stats: PrefetchStats,
}

/// The predictive prefetcher. Shared behind an `Arc` that the database
/// owns: the pool holds it weakly as its access observer (this struct holds
/// a pool clone, so a strong reference back would be a cycle), and the
/// database's background thread polls it.
pub struct Prefetcher {
    config: PrefetchConfig,
    pool: BufferPool,
    governor: Arc<IoGovernor>,
    predictor: DeltaPredictor,
    /// Predictions do not stride past this page id (device capacity at
    /// wiring time).
    page_bound: u64,
    queue: Mutex<Queue>,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefetcher")
            .field("config", &self.config)
            .field("page_bound", &self.page_bound)
            .finish()
    }
}

impl Prefetcher {
    /// Creates a prefetcher issuing into `pool`, budgeted by `governor`,
    /// never predicting at or past `page_bound`.
    #[must_use]
    pub fn new(
        config: PrefetchConfig,
        pool: BufferPool,
        governor: Arc<IoGovernor>,
        page_bound: u64,
    ) -> Self {
        Self {
            config,
            pool,
            governor,
            predictor: DeltaPredictor::new(),
            page_bound,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                stats: PrefetchStats::default(),
            }),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> PrefetchConfig {
        self.config
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> PrefetchStats {
        self.queue.lock().stats
    }

    /// Pending predictions not yet issued.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.lock().pending.len()
    }

    /// Issues queued prefetches until the queue or the governor's budget
    /// runs out; returns how many pages were issued. The database's
    /// background thread calls this in its loop; tests call it directly
    /// for deterministic single-step control.
    pub fn poll(&self) -> usize {
        let mut issued = 0;
        loop {
            // Take one page per governor draw; never hold the queue lock
            // across the device read inside prefetch_page.
            let next = {
                let mut q = self.queue.lock();
                match q.pending.front().copied() {
                    None => break,
                    Some(id) => {
                        if !self.governor.try_acquire(BackgroundIo::Prefetch, 1) {
                            q.stats.deferred_budget += 1;
                            break; // budget dry; keep the queue for later
                        }
                        q.pending.pop_front();
                        q.stats.issued += 1;
                        id
                    }
                }
            };
            let outcome = self.pool.prefetch_page(next);
            issued += 1;
            let mut q = self.queue.lock();
            match outcome {
                PrefetchOutcome::Installed => q.stats.installed += 1,
                PrefetchOutcome::Resident | PrefetchOutcome::Busy => {
                    q.stats.already_resident += 1;
                }
                PrefetchOutcome::NoFrame => q.stats.no_frame += 1,
                PrefetchOutcome::Failed => q.stats.failed += 1,
            }
        }
        issued
    }
}

impl AccessObserver for Prefetcher {
    fn page_faulted(&self, id: PageId, ctx: AccessContext) {
        self.predictor.observe(id, ctx);
        let predicted = self
            .predictor
            .predict(id, ctx, self.config.lookahead, self.page_bound);
        // Runs on the fetch path: never block on the queue lock.
        let Some(mut q) = self.queue.try_lock() else {
            return;
        };
        q.stats.observed_faults += 1;
        for page in predicted {
            q.stats.predictions += 1;
            if q.pending.len() >= self.config.queue_limit {
                q.stats.queue_dropped += 1;
                continue;
            }
            if q.pending.contains(&page) || self.pool.contains(page) {
                continue;
            }
            q.pending.push_back(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;
    use spf_buffer::{BufferPool, BufferPoolConfig};
    use spf_storage::{Device, Page, PageType, StorageDevice, DEFAULT_PAGE_SIZE};
    use spf_util::SimClock;

    fn fixture(frames: usize, pages: u64, gov: GovernorConfig) -> (Arc<Prefetcher>, BufferPool) {
        let device = Device::for_testing(DEFAULT_PAGE_SIZE, pages);
        for i in 0..pages {
            let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::BTreeLeaf);
            p.finalize_checksum();
            device.raw_overwrite(PageId(i), p.as_bytes());
        }
        let pool = BufferPool::new(
            BufferPoolConfig { frames },
            Arc::new(device.clone()),
            spf_wal::LogManager::for_testing(),
        );
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(spf_obs::Obs::new(Arc::clone(&clock), false));
        let governor = Arc::new(IoGovernor::new(gov, clock, obs));
        let prefetcher = Arc::new(Prefetcher::new(
            PrefetchConfig::default_on(),
            pool.clone(),
            governor,
            device.capacity(),
        ));
        pool.set_access_observer(Arc::downgrade(&prefetcher) as std::sync::Weak<dyn AccessObserver>);
        (prefetcher, pool)
    }

    #[test]
    fn sequential_faults_turn_into_installed_prefetches() {
        let (prefetcher, pool) = fixture(16, 64, GovernorConfig::unthrottled());
        for i in 0..4 {
            drop(pool.fetch(PageId(i)).unwrap());
            prefetcher.poll();
        }
        // The +1 stride is learned; pages ahead of the cursor are in.
        let stats = prefetcher.stats();
        assert!(stats.installed > 0, "no prefetches installed: {stats:?}");
        assert!(pool.contains(PageId(4)), "next page should be prefetched");
        // …and touching the prefetched page is a pool hit.
        let before = pool.stats().misses;
        drop(pool.fetch(PageId(4)).unwrap());
        assert_eq!(pool.stats().misses, before);
        assert!(pool.stats().prefetch_hits > 0);
    }

    #[test]
    fn governor_budget_defers_issue_but_keeps_the_queue() {
        let (prefetcher, pool) = fixture(
            16,
            64,
            GovernorConfig {
                pages_per_sec: Some(1), // bucket effectively never refills
                burst: 1,
            },
        );
        for i in 0..6 {
            drop(pool.fetch(PageId(i)).unwrap());
        }
        let issued = prefetcher.poll();
        assert!(issued <= 1, "burst of 1 must cap the first poll");
        let stats = prefetcher.stats();
        assert!(stats.deferred_budget > 0);
        assert!(prefetcher.backlog() > 0, "undrained work stays queued");
    }

    #[test]
    fn queue_is_bounded_and_deduplicated() {
        let (prefetcher, pool) = fixture(16, 10_000, GovernorConfig::unthrottled());
        // Teach a huge stride so every fault predicts far ahead, then
        // flood faults without polling.
        for i in 0..200 {
            drop(pool.fetch(PageId(i * 37)).unwrap());
        }
        assert!(prefetcher.backlog() <= prefetcher.config().queue_limit);
        let stats = prefetcher.stats();
        assert!(stats.queue_dropped > 0, "flood must hit the bound");
    }
}
