//! Scrubber configuration.

use spf_util::SimDuration;

/// Whether the engine scrubs, and at what budget.
///
/// The scrubber charges every page it reads against the shared
/// [`spf_util::SimClock`] (as sequential transfer), and pays for it first
/// from the engine's background-I/O governor, whose rate the façade
/// derives from these knobs: [`pages_per_tick`](ScrubConfig::pages_per_tick)
/// pages per [`tick_idle`](ScrubConfig::tick_idle) of simulated time,
/// with one tick's worth of burst — the token-bucket rate limit that
/// leaves device bandwidth to foreground work (the foreground/background
/// isolation concern GrASP raises for transactional workloads).
/// `pages_per_tick / tick_idle` is therefore the scrub I/O budget in
/// pages per simulated second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Whether the engine wires up a scrubber at all. With `false`,
    /// `scrub_now` / `start_scrubber` on the façade become errors /
    /// no-ops (the seed behaviour: failures are found only when a
    /// foreground read happens to hit them).
    pub enabled: bool,
    /// Pages of budget per tick.
    pub pages_per_tick: usize,
    /// Simulated time one tick's budget takes to accrue.
    pub tick_idle: SimDuration,
}

impl ScrubConfig {
    /// Scrubbing available, paced at 64 pages per simulated millisecond.
    #[must_use]
    pub const fn default_on() -> Self {
        Self {
            enabled: true,
            pages_per_tick: 64,
            tick_idle: SimDuration::from_millis(1),
        }
    }

    /// No scrubber (the traditional engine).
    #[must_use]
    pub const fn disabled() -> Self {
        Self {
            enabled: false,
            pages_per_tick: 0,
            tick_idle: SimDuration::ZERO,
        }
    }

    /// An unthrottled configuration for benchmarks: the hot no-fault
    /// verification path with no idle charges.
    #[must_use]
    pub const fn unthrottled() -> Self {
        Self {
            enabled: true,
            pages_per_tick: usize::MAX,
            tick_idle: SimDuration::ZERO,
        }
    }
}

impl Default for ScrubConfig {
    fn default() -> Self {
        Self::default_on()
    }
}
