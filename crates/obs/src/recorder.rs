//! Lock-free per-thread flight recorder: an event ↔ words codec over
//! the engine's shared seqlock ring ([`spf_trace::RingSet`]). `emit` is
//! wait-free, the newest [`RING_SLOTS`](spf_trace::RING_SLOTS) events per
//! thread survive, and — unlike the tracer, which hands each span out
//! once — [`FlightRecorder::drain`] is a snapshot: the window stays in
//! the rings for the next escalation or black box to capture again.

use std::fmt;
use std::sync::Arc;

use spf_trace::RingSet;
use spf_util::SimDuration;

/// Typed flight-recorder events. The discriminant is packed into the
/// event word, so variants must stay `u8`-sized and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A user transaction committed (`a` = commit LSN).
    TxCommit = 1,
    /// The WAL group leader forced the log (`a` = durable LSN, `b` = bytes).
    LogForce = 2,
    /// Buffer pool miss — page read from the database device (`a` = page id).
    PageMiss = 3,
    /// Buffer pool evicted a frame (`a` = page id, `b` = 1 if dirty write-back).
    PageEvict = 4,
    /// B-tree descent restarted after losing a latch race (`a` = page id).
    DescentRetry = 5,
    /// Structural modification hit a conflict and will retry (`a` = page id).
    Restructure = 6,
    /// A detector flagged a damaged page (`a` = page id, `b` = detector class).
    FaultDetected = 7,
    /// Single-page repair started (`a` = page id).
    RepairAttempt = 8,
    /// Single-page repair succeeded (`a` = page id, `b` = nanos to repair).
    RepairOk = 9,
    /// Single-page repair failed; escalation will follow (`a` = page id).
    RepairFailed = 10,
    /// Figure-1 escalation to a heavier recovery class (`a` = page id,
    /// `b` = failure class escalated to).
    Escalation = 11,
    /// Scrub sweep finished (`a` = pages scanned, `b` = findings).
    ScrubSweep = 12,
    /// Predictive prefetch issued a background read (`a` = page id,
    /// `b` = access-context code).
    PrefetchIssued = 13,
    /// A foreground fetch hit (or coalesced behind) a prefetched page
    /// before it was referenced (`a` = page id).
    PrefetchHit = 14,
    /// An operation passed the trace sampling gate (`a` = trace id).
    TraceSampled = 15,
    /// The background-I/O governor withheld tokens before an I/O
    /// (`a` = pages requested, `b` = wait nanos).
    GovernorThrottle = 16,
}

impl EventKind {
    /// All variants, for exposition and tests.
    pub const ALL: [EventKind; 16] = [
        EventKind::TxCommit,
        EventKind::LogForce,
        EventKind::PageMiss,
        EventKind::PageEvict,
        EventKind::DescentRetry,
        EventKind::Restructure,
        EventKind::FaultDetected,
        EventKind::RepairAttempt,
        EventKind::RepairOk,
        EventKind::RepairFailed,
        EventKind::Escalation,
        EventKind::ScrubSweep,
        EventKind::PrefetchIssued,
        EventKind::PrefetchHit,
        EventKind::TraceSampled,
        EventKind::GovernorThrottle,
    ];

    /// Short stable name used in trace dumps and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxCommit => "tx_commit",
            EventKind::LogForce => "log_force",
            EventKind::PageMiss => "page_miss",
            EventKind::PageEvict => "page_evict",
            EventKind::DescentRetry => "descent_retry",
            EventKind::Restructure => "restructure",
            EventKind::FaultDetected => "fault_detected",
            EventKind::RepairAttempt => "repair_attempt",
            EventKind::RepairOk => "repair_ok",
            EventKind::RepairFailed => "repair_failed",
            EventKind::Escalation => "escalation",
            EventKind::ScrubSweep => "scrub_sweep",
            EventKind::PrefetchIssued => "prefetch_issued",
            EventKind::PrefetchHit => "prefetch_hit",
            EventKind::TraceSampled => "trace_sampled",
            EventKind::GovernorThrottle => "governor_throttle",
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        EventKind::ALL.get(code.wrapping_sub(1) as usize).copied()
    }
}

/// A decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Emitting thread's ring id (stable for the thread's lifetime).
    pub thread: u64,
    /// Per-thread sequence number (strictly increasing within a thread).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Simulated clock at emission.
    pub sim: SimDuration,
    /// Wall-clock nanoseconds since the recorder was created.
    pub wall_nanos: u64,
    /// First payload word (usually a page id or LSN).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t{} #{:<5} sim={:>12?} wall={:>9}ns] {:<14} a={} b={}",
            self.thread,
            self.seq,
            self.sim,
            self.wall_nanos,
            self.kind.name(),
            self.a,
            self.b
        )
    }
}

/// A drained, time-ordered set of events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by (sim time, thread, seq).
    pub events: Vec<Event>,
}

impl Trace {
    /// True when no events were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events of one kind, in order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Renders the trace as one line per event.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The recorder: the per-thread rings plus the clocks used to stamp
/// events.
pub struct FlightRecorder {
    rings: RingSet,
    clock: Arc<spf_util::SimClock>,
    origin: std::time::Instant,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("rings", &self.rings.ring_count())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder stamping events with `clock`.
    #[must_use]
    pub fn new(clock: Arc<spf_util::SimClock>) -> Self {
        Self {
            rings: RingSet::new(),
            clock,
            origin: std::time::Instant::now(),
        }
    }

    /// Emits one event into the calling thread's ring.
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        let sim = self.clock.now().as_nanos();
        let wall = self.origin.elapsed().as_nanos() as u64;
        self.rings.push(kind as u16, &[sim, wall, a, b]);
    }

    /// Snapshots every ring into a time-ordered [`Trace`]. Rings keep
    /// recording while the drain runs; torn slots are skipped.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut events: Vec<Event> = self
            .rings
            .snapshot()
            .into_iter()
            .filter_map(|e| {
                Some(Event {
                    thread: e.thread,
                    seq: e.seq,
                    kind: EventKind::from_code(e.tag as u8)?,
                    sim: SimDuration::from_nanos(e.words[0]),
                    wall_nanos: e.words[1],
                    a: e.words[2],
                    b: e.words[3],
                })
            })
            .collect();
        events.sort_by_key(|e| (e.sim, e.thread, e.seq));
        Trace { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_util::SimClock;

    fn recorder() -> FlightRecorder {
        FlightRecorder::new(Arc::new(SimClock::new()))
    }

    #[test]
    fn emit_and_drain_round_trips() {
        let r = recorder();
        r.emit(EventKind::TxCommit, 7, 9);
        r.emit(EventKind::PageMiss, 42, 0);
        let t = r.drain();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events[0].kind, EventKind::TxCommit);
        assert_eq!(t.events[0].a, 7);
        assert_eq!(t.events[0].b, 9);
        assert_eq!(t.of_kind(EventKind::PageMiss).count(), 1);
    }

    #[test]
    fn two_recorders_do_not_share_rings() {
        let r1 = recorder();
        let r2 = recorder();
        r1.emit(EventKind::TxCommit, 1, 0);
        r2.emit(EventKind::Escalation, 2, 0);
        assert_eq!(r1.drain().len(), 1);
        assert_eq!(r2.drain().len(), 1);
        assert_eq!(
            r2.drain().events[0].kind,
            EventKind::Escalation,
            "a drain is a snapshot: the event is still there"
        );
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(200), None);
    }
}
