//! [`IoGovernor`]: one token bucket for all background page I/O.
//!
//! The scrubber used to pace itself (`pages_per_tick` pages, then
//! `tick_idle` of simulated sleep) and the prefetcher would otherwise
//! need a second private limit — two budgets that know nothing of each
//! other and jointly exceed what either was granted. The governor is
//! the single arbiter: one bucket, refilled by simulated time at a
//! configured page rate, that every background reader draws from before
//! touching the device.
//!
//! Two draw modes, matching the two callers:
//!
//! * [`try_acquire`](IoGovernor::try_acquire) — non-blocking; the
//!   prefetcher uses it. Prefetch is speculative, so on an empty bucket
//!   the right move is to *not do the work* (the foreground fault it
//!   would have saved still coalesces correctly).
//! * [`acquire`](IoGovernor::acquire) — blocking in *simulated* time;
//!   the scrubber uses it. A sweep must eventually finish, so on an
//!   empty bucket the governor charges the required idle time to the
//!   shared [`SimClock`] (exactly what the scrubber's private tick
//!   pacing used to do) and grants.
//!
//! Foreground reads never go through the governor: the budget only
//! throttles background work, so the foreground preempts by
//! construction.

use std::sync::Arc;

use parking_lot::Mutex;
use spf_obs::{EventKind, Obs, SpanKind, TraceCtx};
use spf_util::{SimClock, SimDuration};

/// Token-bucket units: one page = `PAGE_UNITS` nano-pages, so refill
/// arithmetic is exact integers at any rate.
const PAGE_UNITS: u128 = 1_000_000_000;

/// Which background consumer is drawing from the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundIo {
    /// The predictive prefetcher.
    Prefetch,
    /// The online scrubber.
    Scrub,
}

/// Governor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Combined background read budget in pages per simulated second;
    /// `None` leaves background I/O unthrottled.
    pub pages_per_sec: Option<u64>,
    /// Bucket capacity in pages: how large a burst may be drawn at once
    /// after an idle stretch.
    pub burst: u64,
}

impl GovernorConfig {
    /// No throttling.
    #[must_use]
    pub const fn unthrottled() -> Self {
        Self {
            pages_per_sec: None,
            burst: 0,
        }
    }

    /// Derives the budget from the scrubber's classic tick pacing:
    /// `pages_per_tick` pages per `tick_idle` of simulated idle is a
    /// rate of `pages_per_tick / tick_idle` pages per second, with one
    /// tick's worth of burst. The unthrottled scrub configurations
    /// (zero idle, or effectively unbounded pages per tick) map to
    /// [`unthrottled`](GovernorConfig::unthrottled).
    #[must_use]
    pub fn from_scrub(pages_per_tick: usize, tick_idle: SimDuration) -> Self {
        if tick_idle == SimDuration::ZERO || pages_per_tick == usize::MAX {
            return Self::unthrottled();
        }
        let rate = (pages_per_tick as u128 * PAGE_UNITS / u128::from(tick_idle.as_nanos()))
            .min(u128::from(u64::MAX)) as u64;
        Self {
            pages_per_sec: Some(rate.max(1)),
            burst: (pages_per_tick as u64).max(1),
        }
        .normalized()
    }

    fn normalized(self) -> Self {
        Self {
            pages_per_sec: self.pages_per_sec,
            burst: self.burst.max(1),
        }
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self::unthrottled()
    }
}

/// Governor counters (`DbStats.governor`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Pages granted to the prefetcher.
    pub granted_prefetch: u64,
    /// Pages granted to the scrubber.
    pub granted_scrub: u64,
    /// Prefetch draws refused for lack of budget (the prefetch was
    /// skipped, not delayed).
    pub deferred_prefetch: u64,
    /// Scrub draws that had to wait for refill.
    pub throttle_waits: u64,
    /// Total simulated idle time charged to waiting scrub draws.
    pub throttle_wait_nanos: u64,
}

impl spf_obs::Observable for GovernorStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("granted_prefetch", self.granted_prefetch)
            .counter("granted_scrub", self.granted_scrub)
            .counter("deferred_prefetch", self.deferred_prefetch)
            .counter("throttle_waits", self.throttle_waits)
            .counter("throttle_wait_nanos", self.throttle_wait_nanos);
    }
}

struct Bucket {
    /// Available budget in nano-pages, capped at `burst * PAGE_UNITS`.
    tokens: u128,
    /// Simulated instant of the last refill.
    refilled_at: SimDuration,
    stats: GovernorStats,
}

/// The background-I/O arbiter. Cheap to share behind an `Arc`.
pub struct IoGovernor {
    config: GovernorConfig,
    clock: Arc<SimClock>,
    bucket: Mutex<Bucket>,
    obs: Arc<Obs>,
}

impl std::fmt::Debug for IoGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoGovernor")
            .field("config", &self.config)
            .finish()
    }
}

impl IoGovernor {
    /// Creates a governor over the system's shared simulated clock. The
    /// bucket starts full (one burst of budget). Throttle waits surface
    /// through `obs` in the flight recorder
    /// ([`EventKind::GovernorThrottle`]) and, in sampled traces, as
    /// `GovernorWait` spans.
    #[must_use]
    pub fn new(config: GovernorConfig, clock: Arc<SimClock>, obs: Arc<Obs>) -> Self {
        let config = config.normalized();
        let now = clock.now();
        Self {
            config,
            clock,
            bucket: Mutex::new(Bucket {
                tokens: u128::from(config.burst) * PAGE_UNITS,
                refilled_at: now,
                stats: GovernorStats::default(),
            }),
            obs,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> GovernorConfig {
        self.config
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> GovernorStats {
        self.bucket.lock().stats
    }

    /// Non-blocking draw of `pages` for `kind`: returns whether the
    /// budget was granted. An unthrottled governor always grants.
    pub fn try_acquire(&self, kind: BackgroundIo, pages: u64) -> bool {
        let Some(rate) = self.config.pages_per_sec else {
            self.bucket.lock().stats.grant(kind, pages);
            return true;
        };
        let cost = u128::from(pages) * PAGE_UNITS;
        let mut bucket = self.bucket.lock();
        self.refill(&mut bucket, rate);
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            bucket.stats.grant(kind, pages);
            true
        } else {
            if kind == BackgroundIo::Prefetch {
                bucket.stats.deferred_prefetch += 1;
            }
            false
        }
    }

    /// Blocking draw of `pages` for `kind`: if the bucket is short, the
    /// required refill time is charged to the shared simulated clock as
    /// idle (this is the scrubber's old tick pause, centralized) and the
    /// draw then succeeds. Also yields the OS thread so foreground work
    /// gets through on real hardware.
    ///
    /// A draw that has to wait for refill records a `GovernorWait` span
    /// under `ctx` (its payload word is the simulated idle charged) and
    /// a `GovernorThrottle` flight-recorder event.
    pub fn acquire(&self, kind: BackgroundIo, pages: u64, ctx: TraceCtx) {
        let Some(rate) = self.config.pages_per_sec else {
            self.bucket.lock().stats.grant(kind, pages);
            return;
        };
        let cost = u128::from(pages) * PAGE_UNITS;
        let mut bucket = self.bucket.lock();
        self.refill(&mut bucket, rate);
        if bucket.tokens < cost {
            let shortfall = cost - bucket.tokens;
            // ceil(shortfall / rate) nanoseconds buys the missing budget.
            let wait_nanos =
                (shortfall.div_ceil(u128::from(rate))).min(u128::from(u64::MAX)) as u64;
            self.obs
                .emit(EventKind::GovernorThrottle, pages, wait_nanos);
            let _span = self.obs.span(ctx, SpanKind::GovernorWait, wait_nanos);
            let wait = SimDuration::from_nanos(wait_nanos);
            self.clock.advance(wait);
            bucket.stats.throttle_waits += 1;
            bucket.stats.throttle_wait_nanos += wait_nanos;
            self.refill(&mut bucket, rate);
        }
        bucket.tokens = bucket.tokens.saturating_sub(cost);
        bucket.stats.grant(kind, pages);
        drop(bucket);
        std::thread::yield_now();
    }

    /// Empties the bucket, so pacing starts from zero budget instead of
    /// a free first burst: a measurement that wants idle charged from
    /// the very first page drains before it starts.
    pub fn drain(&self) {
        let mut bucket = self.bucket.lock();
        bucket.refilled_at = self.clock.now();
        bucket.tokens = 0;
    }

    fn refill(&self, bucket: &mut Bucket, rate: u64) {
        let now = self.clock.now();
        let elapsed = now - bucket.refilled_at;
        bucket.refilled_at = now;
        let cap = u128::from(self.config.burst) * PAGE_UNITS;
        // pages/sec over nanoseconds: rate nano-pages per nanosecond.
        let added = u128::from(rate) * u128::from(elapsed.as_nanos());
        bucket.tokens = (bucket.tokens + added).min(cap);
    }
}

impl GovernorStats {
    fn grant(&mut self, kind: BackgroundIo, pages: u64) {
        match kind {
            BackgroundIo::Prefetch => self.granted_prefetch += pages,
            BackgroundIo::Scrub => self.granted_scrub += pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(rate: u64, burst: u64) -> (Arc<SimClock>, IoGovernor) {
        let clock = Arc::new(SimClock::new());
        let gov = IoGovernor::new(
            GovernorConfig {
                pages_per_sec: Some(rate),
                burst,
            },
            Arc::clone(&clock),
            Arc::new(Obs::new(Arc::clone(&clock), false)),
        );
        (clock, gov)
    }

    #[test]
    fn try_acquire_spends_the_burst_then_defers() {
        let (_clock, gov) = governor(1000, 4);
        for _ in 0..4 {
            assert!(gov.try_acquire(BackgroundIo::Prefetch, 1));
        }
        assert!(!gov.try_acquire(BackgroundIo::Prefetch, 1));
        let stats = gov.stats();
        assert_eq!(stats.granted_prefetch, 4);
        assert_eq!(stats.deferred_prefetch, 1);
    }

    #[test]
    fn simulated_time_refills_the_bucket() {
        let (clock, gov) = governor(1000, 4);
        while gov.try_acquire(BackgroundIo::Prefetch, 1) {}
        // 1000 pages/s → 1 page per millisecond.
        clock.advance(SimDuration::from_millis(2));
        assert!(gov.try_acquire(BackgroundIo::Prefetch, 2));
        assert!(!gov.try_acquire(BackgroundIo::Prefetch, 1));
    }

    #[test]
    fn acquire_charges_idle_time_to_the_clock() {
        let (clock, gov) = governor(1000, 1);
        gov.acquire(BackgroundIo::Scrub, 1, TraceCtx::NONE); // burst
        let t0 = clock.now();
        gov.acquire(BackgroundIo::Scrub, 1, TraceCtx::NONE); // must wait 1 ms at 1000 pages/s
        let waited = clock.now() - t0;
        assert_eq!(waited, SimDuration::from_millis(1));
        let stats = gov.stats();
        assert_eq!(stats.granted_scrub, 2);
        assert_eq!(stats.throttle_waits, 1);
        assert_eq!(stats.throttle_wait_nanos, 1_000_000);
    }

    #[test]
    fn combined_draws_share_one_budget() {
        let (_clock, gov) = governor(1000, 2);
        assert!(gov.try_acquire(BackgroundIo::Prefetch, 1));
        gov.acquire(BackgroundIo::Scrub, 1, TraceCtx::NONE);
        // Bucket empty: the prefetcher is refused while the scrubber
        // would wait — one budget, two disciplines.
        assert!(!gov.try_acquire(BackgroundIo::Prefetch, 1));
    }

    #[test]
    fn unthrottled_always_grants() {
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(Obs::new(Arc::clone(&clock), false));
        let gov = IoGovernor::new(GovernorConfig::unthrottled(), clock, obs);
        for _ in 0..10_000 {
            assert!(gov.try_acquire(BackgroundIo::Prefetch, 1));
        }
        gov.acquire(BackgroundIo::Scrub, 10_000, TraceCtx::NONE);
        assert_eq!(gov.stats().throttle_waits, 0);
    }

    #[test]
    fn from_scrub_matches_tick_pacing_rate() {
        // 64 pages per 1 ms tick = 64_000 pages/s.
        let cfg = GovernorConfig::from_scrub(64, SimDuration::from_millis(1));
        assert_eq!(cfg.pages_per_sec, Some(64_000));
        assert_eq!(cfg.burst, 64);
        assert_eq!(
            GovernorConfig::from_scrub(64, SimDuration::ZERO),
            GovernorConfig::unthrottled()
        );
        assert_eq!(
            GovernorConfig::from_scrub(usize::MAX, SimDuration::from_millis(1)),
            GovernorConfig::unthrottled()
        );
    }

    #[test]
    fn throttle_wait_emits_event_and_trace_span() {
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(Obs::new(Arc::clone(&clock), true));
        obs.set_trace_sampling(1);
        let gov = IoGovernor::new(
            GovernorConfig {
                pages_per_sec: Some(1000),
                burst: 1,
            },
            Arc::clone(&clock),
            Arc::clone(&obs),
        );

        let ctx = obs.sample_trace();
        gov.acquire(BackgroundIo::Scrub, 1, ctx); // burst: no wait
        gov.acquire(BackgroundIo::Scrub, 1, ctx); // must wait 1 ms

        let throttles: Vec<_> = obs
            .drain_trace()
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::GovernorThrottle)
            .collect();
        assert_eq!(throttles.len(), 1);
        assert_eq!(throttles[0].a, 1, "pages requested");
        assert_eq!(throttles[0].b, 1_000_000, "simulated wait nanos");

        let stitched = obs.tracer().drain_trees();
        let tree = stitched.tree(ctx.trace_id).expect("sampled trace");
        let mut wait = None;
        tree.each_node(|n| {
            if n.record.kind == SpanKind::GovernorWait {
                wait = Some(n.record);
            }
        });
        let span = wait.expect("governor wait span");
        assert_eq!(span.class, spf_obs::WaitClass::GovernorThrottle);
        assert_eq!(span.a, 1_000_000, "span payload carries the idle charged");
    }

    #[test]
    fn drain_empties_the_bucket() {
        let (clock, gov) = governor(1000, 4);
        gov.drain();
        assert!(!gov.try_acquire(BackgroundIo::Prefetch, 1), "no free burst");
        // Refill still accrues from the drain instant onward.
        clock.advance(SimDuration::from_millis(1));
        assert!(gov.try_acquire(BackgroundIo::Prefetch, 1));
    }

    #[test]
    fn governed_rate_bounds_total_draws() {
        let (clock, gov) = governor(500, 8);
        let mut granted = 0u64;
        for step in 0..200 {
            clock.advance(SimDuration::from_micros(100));
            if gov.try_acquire(BackgroundIo::Prefetch, 1) {
                granted += 1;
            }
            if step % 2 == 0 {
                gov.acquire(BackgroundIo::Scrub, 1, TraceCtx::NONE);
                granted += 1;
            }
        }
        let elapsed = clock.now().as_secs_f64();
        let budget = 500.0 * elapsed + 8.0;
        assert!(
            (granted as f64) <= budget,
            "granted {granted} pages exceeds budget {budget:.1}"
        );
    }
}
