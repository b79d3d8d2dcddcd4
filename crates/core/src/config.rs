//! Database configuration.

use spf_btree::VerifyMode;
use spf_prefetch::PrefetchConfig;
use spf_recovery::BackupPolicy;
use spf_scrub::ScrubConfig;
use spf_util::IoCostModel;

/// Log-archive configuration: whether the engine keeps a partitioned
/// log archive (enabling WAL truncation) and how aggressively its runs
/// are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Wire up the archiver. Without it the WAL can never be truncated
    /// (the seed behaviour): `Database::archive_now` and
    /// `Database::truncate_wal` become errors / no-ops.
    pub enabled: bool,
    /// Leveled-merge fanout: a level holding this many runs is merged
    /// into one run on the next level. 0 disables merging.
    pub merge_fanout: usize,
}

impl ArchiveConfig {
    /// Archiving on, default leveled merging (fanout 4).
    #[must_use]
    pub const fn default_on() -> Self {
        Self {
            enabled: true,
            merge_fanout: 4,
        }
    }

    /// No archive at all (the traditional engine).
    #[must_use]
    pub const fn disabled() -> Self {
        Self {
            enabled: false,
            merge_fanout: 0,
        }
    }
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        Self::default_on()
    }
}

/// Configuration for [`crate::Database`].
#[derive(Debug, Clone, Copy)]
pub struct DatabaseConfig {
    /// Page size in bytes (default 8 KiB).
    pub page_size: usize,
    /// Capacity of the data device in pages.
    pub data_pages: u64,
    /// Buffer-pool frames.
    pub pool_frames: usize,
    /// Simulated I/O cost model shared by the data device, the backup
    /// device, and the log.
    pub io_cost: IoCostModel,
    /// Seed for the fault injector's deterministic RNG.
    pub seed: u64,
    /// Enable the paper's machinery: the page recovery index with its
    /// read-time PageLSN cross-check, PRI maintenance logging, and inline
    /// single-page recovery. With `false` the engine behaves like a
    /// traditional system: detected page failures escalate to media
    /// failures (experiment E1's baseline).
    pub single_page_recovery: bool,
    /// When to take per-page backup copies (Section 6's policy).
    pub backup_policy: BackupPolicy,
    /// Fence-key verification during traversals (Section 4.2).
    pub verify_mode: VerifyMode,
    /// Whether this node has only this one storage device — if so, an
    /// unhandled media failure escalates to a system failure (Figure 1).
    pub single_device_node: bool,
    /// The log archive: per-page-sorted, indexed runs that let the WAL
    /// be truncated while keeping all pre-truncation page history
    /// recoverable (see `spf-archive`).
    pub archive: ArchiveConfig,
    /// The online page scrubber: background detection sweeps over cold
    /// pages, with queue-driven self-healing repair (see `spf-scrub`).
    /// `Database::scrub_now` runs one sweep; `Database::start_scrubber`
    /// runs sweeps continuously on a background thread.
    pub scrub: ScrubConfig,
    /// The predictive prefetcher: per-access-context delta prediction
    /// over observed page faults, issuing background reads through the
    /// same in-flight markers as foreground misses (see `spf-prefetch`).
    /// Enabled by default, but *passive* until
    /// `Database::start_prefetcher` spins up the polling thread (or an
    /// experiment drives `Prefetcher::poll` directly) — the observer
    /// only learns and queues, so the seed's I/O patterns are unchanged
    /// until polling starts.
    pub prefetch: PrefetchConfig,
    /// Keep a synchronous mirror of the data device (Section 5.2.2:
    /// "other copies in a mirror or a RAID array" as a backup-page
    /// source). Every write and sync goes to both devices; single-page
    /// recovery prefers the mirror copy, and
    /// `Database::media_recover_from_mirror` rebuilds a failed primary
    /// from it.
    pub mirror: bool,
    /// For file-backed databases: build the data, mirror and backup
    /// devices with a free cost model, so their I/O charges nothing to
    /// the simulated clock and the real device's latency is the
    /// measurement — the mode real-device benchmark rows use. The log
    /// and the archive still charge `io_cost`. Simulated-time
    /// experiments keep this off so Section 6 arithmetic stays
    /// deterministic.
    pub wall_clock_io: bool,
    /// Observability: flight-recorder events, hot-path span timing, and
    /// the repair audit ledger (see `spf-obs`). `Database::metrics_snapshot`
    /// works either way (the stats registry is always live); this gates
    /// only per-event tracing. Can also be toggled at runtime via
    /// `Database::obs`. Experiment e20 measures the overhead (< 5%).
    pub obs: bool,
    /// Causal tracing: every Nth `put_auto` (and every Nth scrub sweep)
    /// is sampled into a trace tree spanning descent, buffer faults,
    /// latch and group-commit waits (see `spf-trace`). 0 disables
    /// sampling — unsampled operations pay one branch. Can be retuned at
    /// runtime via `Database::obs().set_trace_sampling`. Experiment e22
    /// measures the overhead (< 5%).
    pub trace_sample_every: u64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        Self {
            page_size: spf_storage::DEFAULT_PAGE_SIZE,
            data_pages: 4096,
            pool_frames: 256,
            io_cost: IoCostModel::free(),
            seed: 42,
            single_page_recovery: true,
            backup_policy: BackupPolicy::paper_default(),
            verify_mode: VerifyMode::Continuous,
            single_device_node: false,
            archive: ArchiveConfig::default_on(),
            scrub: ScrubConfig::default_on(),
            prefetch: PrefetchConfig::default_on(),
            mirror: false,
            wall_clock_io: false,
            obs: true,
            trace_sample_every: 0,
        }
    }
}

impl DatabaseConfig {
    /// A configuration modelling a traditional engine: no single-page
    /// machinery at all (no PRI, no fence verification, no recovery).
    #[must_use]
    pub fn traditional() -> Self {
        Self {
            single_page_recovery: false,
            backup_policy: BackupPolicy::disabled(),
            verify_mode: VerifyMode::Off,
            archive: ArchiveConfig::disabled(),
            scrub: ScrubConfig::disabled(),
            prefetch: PrefetchConfig::disabled(),
            ..Self::default()
        }
    }

    /// Default configuration with the 2012-disk cost model, for
    /// experiments that report simulated times.
    #[must_use]
    pub fn with_disk_costs() -> Self {
        Self {
            io_cost: IoCostModel::disk_2012(),
            ..Self::default()
        }
    }
}
