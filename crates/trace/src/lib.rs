//! Causal per-operation tracing for the single-page-failure engine.
//!
//! `spf-obs` answers aggregate questions (MTTD, p99 commit latency);
//! this crate answers the per-operation one: *where did this specific
//! slow commit spend its time, and whose log force made it durable?*
//!
//! - A [`TraceCtx`] is allocated for a sampled operation and threaded
//!   **by value** through tree descent, buffer-pool fetch, commit, and
//!   the WAL force path — no thread-local magic on the hot path, so a
//!   span started on one thread can reference work done on another.
//! - Each timed region is one [`SpanGuard`]: it reads the clock once at
//!   each end and on drop hands the duration to the kind's latency sink
//!   (when the opener supplied one) and a compact [`SpanRecord`] to the
//!   [`Tracer`] (when the context is sampled). A guard with neither to
//!   feed is inert and reads no clock.
//! - Spans and `spf-obs`'s flight-recorder events share one per-thread
//!   seqlock ring ([`RingSet`]): single-writer rings, torn slots detected
//!   and skipped by readers, newest [`RING_SLOTS`] entries per thread
//!   survive.
//! - Every [`SpanKind`] has a [`WaitClass`], so a drained trace
//!   decomposes end-to-end latency into an exhaustive wait breakdown
//!   ([`TraceTree::wait_profile`]).
//! - Drained records are stitched into [`TraceTree`]s by trace id and
//!   exported as Chrome `chrome://tracing` JSON or a collapsed
//!   flamegraph rollup.
//!
//! Unsampled operations pay one relaxed load and a branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ring;
mod seqlock;
mod tree;

pub use ring::{LatencySink, SpanGuard, SpanRecord, Tracer, TracerStats};
pub use seqlock::{Entry, RingSet, PAYLOAD_WORDS, RING_SLOTS};
pub use tree::{render_flame, stitch, to_chrome_json, SpanNode, Stitched, TraceTree, WaitProfile};

/// Sampled trace identity, passed **by value** through the engine.
///
/// `trace_id == 0` is the "unsampled" sentinel: every traced entry point
/// checks it with one branch and does nothing else. `span_seq` is the
/// span id of the enclosing span — children started under this context
/// attach to it (0 at the root of a trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace this operation belongs to (0 = unsampled).
    pub trace_id: u64,
    /// Enclosing span id (0 = root of the trace).
    pub span_seq: u64,
}

impl TraceCtx {
    /// The unsampled sentinel; all tracing calls are no-ops under it.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_seq: 0,
    };

    /// Whether this operation was sampled for tracing.
    #[inline]
    #[must_use]
    pub fn sampled(self) -> bool {
        self.trace_id != 0
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::NONE
    }
}

/// What a span was *doing* — the engine's one operation taxonomy: the
/// kind fixes the span's [`WaitClass`] and whether its duration also
/// feeds a latency histogram. Discriminants are packed into ring slots
/// and black boxes, so variants must stay `u8`-sized and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// `Database::put_auto` end to end (trace root).
    PutAuto = 1,
    /// A read operation end to end (trace root).
    Get = 2,
    /// B-tree descent + leaf operation.
    Descent = 3,
    /// Buffer-pool miss: device read + verify + install, or the
    /// coalesced wait behind another thread's in-flight read.
    PageMiss = 4,
    /// Blocking acquisition of a page latch after a failed try.
    LatchWait = 5,
    /// Transaction commit including the log-force wait.
    Commit = 6,
    /// WAL group-leader force (write + sync). Followers link to it, so
    /// while sampling is on it is recorded even under an unsampled
    /// context — as an orphan in trace 0.
    LogForce = 7,
    /// Group-commit follower waiting for a leader's force batch.
    ForceWait = 8,
    /// Background-I/O governor withheld tokens before an I/O.
    GovernorWait = 9,
    /// Single-page repair (backup fetch + log replay).
    Repair = 10,
    /// One scrubber sweep (trace root when sampled).
    ScrubSweep = 11,
    /// Background prefetch of one page (read + verify + install).
    Prefetch = 12,
}

impl SpanKind {
    /// All variants, for exposition and tests.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::PutAuto,
        SpanKind::Get,
        SpanKind::Descent,
        SpanKind::PageMiss,
        SpanKind::LatchWait,
        SpanKind::Commit,
        SpanKind::LogForce,
        SpanKind::ForceWait,
        SpanKind::GovernorWait,
        SpanKind::Repair,
        SpanKind::ScrubSweep,
        SpanKind::Prefetch,
    ];

    /// Short stable name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PutAuto => "put_auto",
            SpanKind::Get => "get",
            SpanKind::Descent => "descent",
            SpanKind::PageMiss => "page_miss",
            SpanKind::LatchWait => "latch_wait",
            SpanKind::Commit => "commit",
            SpanKind::LogForce => "log_force",
            SpanKind::ForceWait => "force_wait",
            SpanKind::GovernorWait => "governor_wait",
            SpanKind::Repair => "repair",
            SpanKind::ScrubSweep => "scrub_sweep",
            SpanKind::Prefetch => "prefetch",
        }
    }

    /// What this kind's exclusive time counts as in the wait breakdown.
    #[must_use]
    pub fn class(self) -> WaitClass {
        match self {
            SpanKind::PutAuto
            | SpanKind::Get
            | SpanKind::Descent
            | SpanKind::Commit
            | SpanKind::ScrubSweep => WaitClass::Run,
            SpanKind::PageMiss | SpanKind::Prefetch => WaitClass::MissIo,
            SpanKind::LatchWait => WaitClass::LatchWait,
            SpanKind::LogForce | SpanKind::ForceWait => WaitClass::ForceWait,
            SpanKind::GovernorWait => WaitClass::GovernorThrottle,
            SpanKind::Repair => WaitClass::RepairWait,
        }
    }

    /// Name of the latency histogram this kind feeds (`None` for kinds
    /// that exist only in sampled traces, which therefore cost nothing
    /// on an unsampled operation).
    #[must_use]
    pub fn latency_metric(self) -> Option<&'static str> {
        match self {
            SpanKind::PutAuto => Some("put_auto_ns"),
            SpanKind::Commit => Some("commit_ns"),
            SpanKind::LogForce => Some("log_force_ns"),
            SpanKind::PageMiss => Some("page_miss_ns"),
            SpanKind::Repair => Some("page_repair_ns"),
            SpanKind::ScrubSweep => Some("scrub_sweep_ns"),
            SpanKind::Prefetch => Some("prefetch_ns"),
            SpanKind::Get
            | SpanKind::Descent
            | SpanKind::LatchWait
            | SpanKind::ForceWait
            | SpanKind::GovernorWait => None,
        }
    }

    /// Decodes a packed discriminant (None for unknown codes).
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        SpanKind::ALL.get(code.wrapping_sub(1) as usize).copied()
    }
}

/// What a span's time *was* — the exhaustive wait-state taxonomy. A
/// trace's end-to-end latency decomposes into these classes by
/// exclusive span time (see [`TraceTree::wait_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum WaitClass {
    /// On-CPU (or at least not in a recognized wait): the remainder.
    Run = 0,
    /// Blocked acquiring a page latch.
    LatchWait = 1,
    /// Waiting for a log force — one's own or a group leader's batch.
    ForceWait = 2,
    /// Waiting on a buffer-pool miss read (own or coalesced).
    MissIo = 3,
    /// Throttled by the background-I/O governor's token bucket.
    GovernorThrottle = 4,
    /// Waiting for an inline single-page repair.
    RepairWait = 5,
}

impl WaitClass {
    /// All variants, in discriminant order (indexable by `as usize`).
    pub const ALL: [WaitClass; 6] = [
        WaitClass::Run,
        WaitClass::LatchWait,
        WaitClass::ForceWait,
        WaitClass::MissIo,
        WaitClass::GovernorThrottle,
        WaitClass::RepairWait,
    ];

    /// Short stable name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::Run => "run",
            WaitClass::LatchWait => "latch_wait",
            WaitClass::ForceWait => "force_wait",
            WaitClass::MissIo => "miss_io",
            WaitClass::GovernorThrottle => "governor_throttle",
            WaitClass::RepairWait => "repair_wait",
        }
    }

    /// Decodes a packed discriminant (None for unknown codes).
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        WaitClass::ALL.get(code as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_sentinel_is_unsampled() {
        assert!(!TraceCtx::NONE.sampled());
        assert!(!TraceCtx::default().sampled());
        assert!(TraceCtx {
            trace_id: 7,
            span_seq: 0
        }
        .sampled());
    }

    #[test]
    fn kind_and_class_codes_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_code(k as u8), Some(k));
        }
        assert_eq!(SpanKind::from_code(0), None);
        assert_eq!(SpanKind::from_code(200), None);
        assert_eq!(SpanKind::Prefetch as u8, 12, "codes are persisted");
        for (i, c) in WaitClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "WaitClass must be densely indexable");
            assert_eq!(WaitClass::from_code(c as u8), Some(c));
        }
        assert_eq!(WaitClass::from_code(99), None);
    }
}
