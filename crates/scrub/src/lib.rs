//! # spf-scrub
//!
//! The online page scrubber: background detection sweeps plus a
//! self-healing repair queue.
//!
//! The paper's detection story has two halves. The read path (buffer
//! pool Figure 8, fence-key verification §4.2) catches a failure the
//! moment a *foreground* access faults the page in — but a page nobody
//! reads stays unchecked, and "the probability of data loss increases
//! with the time between local failure and invocation of single-page
//! recovery" (the failure-class escalation of Figure 1 is exactly what
//! grows in that window). The paper's fix is continuous checking: "with
//! continuous self-testing of the storage layer, verification of a
//! database backup might not be required" — i.e. a scrubber.
//!
//! [`Scrubber`] sweeps the device in rate-limited cycles and runs the
//! full **detector ladder** on every allocated page:
//!
//! 1. in-page tests (`Page::verify`): CRC-32C checksum, self-identifying
//!    page id, page type, header/slot plausibility;
//! 2. the **PageLSN cross-check** against the page recovery index — the
//!    lost-write detector no in-page test can replace;
//! 3. **B-tree fence-key plausibility** (`NodeView::check_invariants`) —
//!    cross-structure redundancy that catches damage written with a
//!    fresh, valid checksum.
//!
//! Findings go to a repair queue drained through
//! [`spf_buffer::BufferPool::repair`], the pool's one repair entry point,
//! so foreground fetches coalesce behind an in-flight repair exactly as
//! they would behind a foreground miss. When repair fails, the failure
//! **escalates along Figure 1** ([`spf_recovery::escalate`]) and the
//! escalation is recorded rather than panicking the engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detector;
pub mod scrubber;

pub use config::ScrubConfig;
pub use detector::DetectorClass;
pub use scrubber::{
    FixedExtent, ScanExtent, ScrubCycleReport, ScrubEscalation, ScrubFinding, ScrubStats, Scrubber,
};
