//! Aggregated engine statistics for the experiment harness.

use spf_archive::ArchiveStats;
use spf_btree::TreeStats;
use spf_buffer::PoolStats;
use spf_obs::TracerStats;
use spf_prefetch::{GovernorStats, PrefetchStats};
use spf_recovery::{BackupStats, MaintainerStats, PriStats, RestartReport, SpfStats};
use spf_scrub::ScrubStats;
use spf_storage::DeviceStats;
use spf_txn::TxnStats;
use spf_util::SimDuration;
use spf_wal::LogStats;

/// Everything the engine counts, in one snapshot.
#[derive(Debug, Clone)]
pub struct DbStats {
    /// Buffer-pool behaviour and failure detections.
    pub pool: PoolStats,
    /// Log volume, forces, and per-kind record counts.
    pub log: LogStats,
    /// Transaction commits/aborts by kind.
    pub txn: TxnStats,
    /// B-tree traversal and maintenance counters.
    pub tree: TreeStats,
    /// Single-page recovery outcomes.
    pub spf: SpfStats,
    /// Page-recovery-index size and compression.
    pub pri: PriStats,
    /// Backup-store activity.
    pub backups: BackupStats,
    /// Data-device I/O counters.
    pub device: DeviceStats,
    /// Backup-device I/O counters.
    pub backup_device: DeviceStats,
    /// Log-archive activity (runs, merges, queries, live footprint).
    pub archive: ArchiveStats,
    /// Online-scrubber activity: sweeps, findings per detector class,
    /// repairs, and recorded Figure 1 escalations of failed repairs.
    pub scrub: ScrubStats,
    /// PRI-maintenance activity: PriUpdate records logged, policy
    /// backups, and stale-PageLSN detections. Carried as the whole
    /// struct so a counter added there can never silently drop out.
    pub maintainer: MaintainerStats,
    /// Predictive-prefetcher pipeline counters (observed faults,
    /// predictions, issue outcomes). Install/hit/waste accounting is
    /// pool-side, in [`pool`](DbStats::pool).
    pub prefetch: PrefetchStats,
    /// Background-I/O governor counters: pages granted per consumer,
    /// prefetch deferrals, and scrub throttle waits.
    pub governor: GovernorStats,
    /// Causal-tracing counters: sampled traces, spans recorded, live
    /// per-thread rings.
    pub trace: TracerStats,
    /// The last restart recovery's report, phase timings included
    /// (all zero until the engine has restarted).
    pub restart: RestartReport,
    /// Current simulated time.
    pub now: SimDuration,
}

impl DbStats {
    /// Log flushes per committed user transaction — the group-commit
    /// effectiveness ratio. 1.0 means every commit paid its own flush;
    /// under concurrent committers the combined-force protocol drives it
    /// below 1.0 (waiters absorb into a leader's flush). Write-backs and
    /// checkpoints also force the log, so a single-threaded workload can
    /// sit slightly above 1.0.
    #[must_use]
    pub fn forces_per_commit(&self) -> f64 {
        if self.txn.user_commits == 0 {
            0.0
        } else {
            self.log.forces as f64 / self.txn.user_commits as f64
        }
    }

    /// Concurrency pressure on the tree: descent retries plus structural
    /// back-offs per committed user transaction. Exactly zero on a
    /// single-threaded workload (every retry path needs a concurrent
    /// restructure to fire); small but non-zero under concurrent
    /// writers — experiment e18 reports it alongside throughput.
    #[must_use]
    pub fn tree_conflicts_per_commit(&self) -> f64 {
        if self.txn.user_commits == 0 {
            0.0
        } else {
            (self.tree.descent_retries + self.tree.restructure_conflicts) as f64
                / self.txn.user_commits as f64
        }
    }
}
