//! # spf-buffer
//!
//! Buffer pool for the single-page-failure workspace (Graefe & Kuno,
//! VLDB 2012), implementing the two protocols the paper hangs off the
//! buffer manager:
//!
//! * **Figure 8, page retrieval logic** — on every buffer fault the page
//!   image read from the device is verified: in-page tests (checksum,
//!   self-identifying id, header/slot plausibility) followed by an
//!   injected [`ReadValidator`] that cross-checks the PageLSN against the
//!   page recovery index. If verification fails and a [`PageRecoverer`] is
//!   configured, the pool invokes single-page recovery *inline* — the
//!   caller's fetch merely takes a little longer, which is the paper's
//!   headline behaviour ("affected transactions merely wait a short
//!   time"). Without a recoverer the failure escalates, as in a
//!   traditional system.
//! * **Figure 11, update sequence for the page recovery index** — a dirty
//!   page is written back in a fixed order: force the log up to the
//!   PageLSN (the classic WAL rule), give the [`WriteObserver`] a chance
//!   to take a page backup (`before_page_write`), write the page, then
//!   let the observer log the page-recovery-index update
//!   (`after_page_write`) *before* the frame is reused. The PRI log
//!   record is appended but not forced — it rides a system transaction
//!   (Section 5.2.4).
//!
//! The pool uses scan-resistant GCLOCK eviction (priority credit plus
//! [`FetchHint`] re-reference-interval hints) over a fixed frame count,
//! pin counts via owned guards, per-frame reader/writer latches, and a
//! background prefetch entry point ([`BufferPool::prefetch_page`]) that
//! shares the miss path's in-flight markers so foreground faults
//! coalesce behind prefetches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod traits;

pub use pool::{
    BufferPool, BufferPoolConfig, FetchHint, PageReadGuard, PageWriteGuard, PoolHooks, PoolStats,
    PrefetchOutcome, RepairOutcome, Residency, MAX_PRIORITY,
};
pub use traits::{
    AccessContext, AccessObserver, FetchError, PageRecoverer, ReadValidator, ValidationError,
    WriteObserver,
};
