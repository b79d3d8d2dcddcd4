//! # spf — single-page failures: detection and recovery
//!
//! A reproduction of Graefe & Kuno, *"Definition, Detection, and Recovery
//! of Single-Page Failures, a Fourth Class of Database Failures"* (VLDB
//! 2012, PVLDB 5(7):646–655), as a complete embedded storage engine.
//!
//! The paper's claim: alongside transaction, media, and system failures,
//! databases should recognize **single-page failures** — "all failures to
//! read a data page correctly and with plausible contents despite all
//! correction attempts in lower system levels" — detect them continuously
//! (checksums + fence-key verification + a PageLSN cross-check against a
//! new **page recovery index**), and repair them inline by replaying the
//! **per-page log chain** over a backup copy, so that "affected
//! transactions merely wait a short time, perhaps less than a second".
//!
//! This crate is the façade: [`Database`] wires the substrate crates
//! (simulated storage with fault injection, write-ahead log, buffer pool,
//! Foster B-tree, transactions, recovery) into one engine.
//!
//! ```
//! use spf::{Database, DatabaseConfig};
//! use spf_storage::{CorruptionMode, FaultSpec};
//!
//! let db = Database::create(DatabaseConfig::default()).unwrap();
//!
//! // Ordinary transactional use.
//! let tx = db.begin();
//! db.put(tx, b"hello", b"world").unwrap();
//! db.commit(tx).unwrap();
//! db.checkpoint().unwrap();
//!
//! // A silently corrupted page on "disk"…
//! let victim = db.any_leaf_page().unwrap();
//! db.inject_fault(victim, FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }));
//! db.drop_cache();
//!
//! // …is detected and repaired inline: the read still succeeds.
//! assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
//! assert_eq!(db.stats().spf.recoveries, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod db;
pub mod error;
pub mod manifest;
pub mod stats;

pub use config::{ArchiveConfig, DatabaseConfig};
pub use db::Database;
pub use error::DbError;
pub use manifest::Manifest;
pub use stats::DbStats;

// Re-export the pieces users touch through the façade.
pub use spf_archive::{ArchiveReport, ArchiveStats, MergePolicy};
pub use spf_btree::{KvPairs, VerifyMode};
pub use spf_buffer::{FetchHint, PoolStats, MAX_PRIORITY};
pub use spf_obs::{
    Event, EventKind, HistogramSnapshot, MetricsSnapshot, Obs, Observable, RepairLedger, Trace,
};
pub use spf_prefetch::{
    AccessContext, BackgroundIo, GovernorConfig, GovernorStats, IoGovernor, PrefetchConfig,
    PrefetchStats, Prefetcher,
};
pub use spf_recovery::{BackupPolicy, FailureClass, RestartReport};
pub use spf_scrub::{
    DetectorClass, ScrubConfig, ScrubCycleReport, ScrubEscalation, ScrubFinding, ScrubStats,
};
pub use spf_storage::{CorruptionMode, FaultSpec, PageId};
pub use spf_util::{IoCostModel, SimDuration};
pub use spf_wal::{Lsn, TxId};
