//! Hook traits wiring the buffer pool to detection and recovery.
//!
//! The buffer pool cannot depend on the recovery crate (recovery sits
//! above it), so the paper's cross-layer interactions are expressed as
//! traits the recovery layer implements:
//!
//! * [`ReadValidator`] — the page-recovery-index PageLSN cross-check of
//!   Figure 8 ("comparing the PageLSN in the data page with the
//!   information in the page recovery index is an additional consistency
//!   check");
//! * [`PageRecoverer`] — single-page recovery invoked inline on a failed
//!   read (Figure 10);
//! * [`WriteObserver`] — backup policy and PRI maintenance around page
//!   write-back (Figure 11).

use spf_storage::{Page, PageDefect, PageId, StorageError};
use spf_wal::Lsn;

/// Why a freshly read page was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An in-page test failed (checksum, self-id, plausibility).
    Defect(PageDefect),
    /// The page is internally consistent but *stale*: its PageLSN does not
    /// match what the page recovery index expects. This is the lost-write
    /// case only the PRI cross-check can catch.
    StaleLsn {
        /// PageLSN found in the page image.
        found: Lsn,
        /// PageLSN the page recovery index expected.
        expected: Lsn,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Defect(d) => write!(f, "in-page defect: {d}"),
            ValidationError::StaleLsn { found, expected } => {
                write!(
                    f,
                    "stale page: PageLSN {found}, page recovery index expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a page image against outside information on buffer fault.
pub trait ReadValidator: Send + Sync {
    /// Returns `Err` if the (internally consistent) image must be
    /// rejected, e.g. because its PageLSN is older than the page recovery
    /// index records.
    fn validate(&self, id: PageId, page: &Page) -> Result<(), ValidationError>;
}

/// Repairs a page that failed verification or could not be read.
pub trait PageRecoverer: Send + Sync {
    /// Attempts single-page recovery of `id`: the reconstructed image,
    /// which the pool installs, or why recovery was impossible (no
    /// backup, PRI lookup failed…), which the pool's caller escalates as
    /// in Figure 10's fallback.
    fn recover(&self, id: PageId) -> Result<Page, String>;
}

/// Observes page write-back (Figure 11 ordering).
pub trait WriteObserver: Send + Sync {
    /// Called with the page content after the WAL force and *before* the
    /// device write. The backup policy lives here: it may copy the page
    /// to the backup store and reset the page's update counter.
    fn before_page_write(&self, page: &mut Page) {
        let _ = page;
    }

    /// Called after the device write succeeded and before the frame may
    /// be reused: logs the page-recovery-index update (unforced).
    fn after_page_write(&self, id: PageId, page_lsn: Lsn) {
        let _ = (id, page_lsn);
    }

    /// Called when a page is formatted during normal forward processing
    /// and its format record has been logged at `format_lsn` — the page
    /// recovery index records the format record as the page's backup
    /// source ("when a page is formatted (after allocation from free
    /// space) and all formatting information is logged", Section 5.2.2).
    fn page_formatted(&self, id: PageId, format_lsn: Lsn) {
        let _ = (id, format_lsn);
    }
}

/// The access context a buffer fault occurred in. The predictive
/// prefetcher keeps one delta table per context: tree descents, scans,
/// scrub sweeps, and recovery reads each have their own page-id stride
/// patterns, and mixing them would teach the predictor noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AccessContext {
    /// Root-to-leaf point access (get/put descents).
    TreeDescent = 0,
    /// Streaming range scan.
    Scan = 1,
    /// Background scrub sweep.
    Scrub = 2,
    /// Recovery read (single-page repair, restart, media).
    Recovery = 3,
}

impl AccessContext {
    /// Number of contexts (for per-context tables).
    pub const COUNT: usize = 4;

    /// All contexts, index-ordered.
    pub const ALL: [AccessContext; AccessContext::COUNT] = [
        AccessContext::TreeDescent,
        AccessContext::Scan,
        AccessContext::Scrub,
        AccessContext::Recovery,
    ];

    /// Stable name for traces and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessContext::TreeDescent => "tree_descent",
            AccessContext::Scan => "scan",
            AccessContext::Scrub => "scrub",
            AccessContext::Recovery => "recovery",
        }
    }

    /// Dense index into per-context tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Observer of buffer faults — the prefetcher's learning feed. Notified
/// on every true miss and on the first foreground touch of a prefetched
/// page (a would-have-been miss), always with **no shard lock held**.
/// Implementations must be cheap and non-blocking: this runs on the
/// fetch path.
pub trait AccessObserver: Send + Sync {
    /// `id` faulted (or would have, absent prefetch) in context `ctx`.
    fn page_faulted(&self, id: PageId, ctx: AccessContext);
}

/// Why a fetch failed.
#[derive(Debug)]
pub enum FetchError {
    /// The device failed outright and no recoverer was available (or
    /// recovery itself declined): in the paper's taxonomy the failure has
    /// escalated beyond a single page.
    MediaFailure {
        /// The page whose access triggered the escalation.
        id: PageId,
        /// Human-readable escalation reason (original defect, recovery
        /// refusal…).
        reason: String,
    },
    /// The page failed verification and no recoverer is configured: a
    /// *detected but unrepairable* single-page failure. A traditional
    /// system "offers no choice but declare a media failure" (Figure 8).
    UnrecoveredPageFailure {
        /// The failed page.
        id: PageId,
        /// What the verification found.
        error: ValidationError,
    },
    /// A device-level error that is not page-specific.
    Storage(StorageError),
    /// The pool is out of frames (every frame pinned).
    NoFreeFrames,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::MediaFailure { id, reason } => {
                write!(f, "media failure escalation at {id}: {reason}")
            }
            FetchError::UnrecoveredPageFailure { id, error } => {
                write!(f, "unrecovered single-page failure at {id}: {error}")
            }
            FetchError::Storage(e) => write!(f, "storage error: {e}"),
            FetchError::NoFreeFrames => write!(f, "buffer pool exhausted: all frames pinned"),
        }
    }
}

impl std::error::Error for FetchError {}
