//! The [`Tracer`], its [`SpanGuard`], and the [`SpanRecord`] they
//! produce: a span ↔ words codec over the shared seqlock ring
//! ([`crate::RingSet`]), read with the consuming `drain` so each span is
//! handed out once.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spf_util::{codec::DecodeError, Decoder, Encoder};

use crate::{RingSet, SpanKind, TraceCtx, WaitClass};

/// A decoded trace span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Emitting thread's ring id (stable for the thread's lifetime).
    pub thread: u64,
    /// Per-thread sequence number (strictly increasing within a thread).
    pub seq: u64,
    /// Trace this span belongs to (0 = infrastructure work recorded
    /// outside any sampled trace, e.g. a group-commit leader's force
    /// that unsampled followers still link to).
    pub trace_id: u64,
    /// Globally unique span id within the tracer.
    pub span_id: u64,
    /// Parent span id (0 = root of its trace).
    pub parent: u64,
    /// What the span was doing.
    pub kind: SpanKind,
    /// What its time counts as in the wait breakdown.
    pub class: WaitClass,
    /// Start, in nanoseconds since the tracer was created.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
    /// Kind-specific payload (page id, LSN, ...).
    pub a: u64,
    /// Cross-trace causal link: span id of the work this span waited on
    /// (0 = none). Set by group-commit followers to the leader's
    /// `LogForce` span.
    pub link: u64,
}

impl SpanRecord {
    /// Bytes [`encode`](SpanRecord::encode) writes: nine `u64` words
    /// and the kind and class bytes.
    pub const ENCODED_LEN: usize = 9 * 8 + 2;

    /// End of the span, in nanoseconds since the tracer was created.
    #[must_use]
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.dur_nanos)
    }

    /// Fixed-width binary encoding (for the crash black box).
    pub fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.thread);
        e.put_u64(self.seq);
        e.put_u64(self.trace_id);
        e.put_u64(self.span_id);
        e.put_u64(self.parent);
        e.put_u8(self.kind as u8);
        e.put_u8(self.class as u8);
        e.put_u64(self.start_nanos);
        e.put_u64(self.dur_nanos);
        e.put_u64(self.a);
        e.put_u64(self.link);
    }

    /// Decodes one record written by [`SpanRecord::encode`].
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let thread = d.get_u64()?;
        let seq = d.get_u64()?;
        let trace_id = d.get_u64()?;
        let span_id = d.get_u64()?;
        let parent = d.get_u64()?;
        let kind_code = d.get_u8()?;
        let kind = SpanKind::from_code(kind_code).ok_or(DecodeError::InvalidTag {
            tag: kind_code,
            what: "SpanKind",
        })?;
        let class_code = d.get_u8()?;
        let class = WaitClass::from_code(class_code).ok_or(DecodeError::InvalidTag {
            tag: class_code,
            what: "WaitClass",
        })?;
        Ok(Self {
            thread,
            seq,
            trace_id,
            span_id,
            parent,
            kind,
            class,
            start_nanos: d.get_u64()?,
            dur_nanos: d.get_u64()?,
            a: d.get_u64()?,
            link: d.get_u64()?,
        })
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[trace {} span {} <- {} t{}] {:<13} {:<17} start={}ns dur={}ns a={} link={}",
            self.trace_id,
            self.span_id,
            self.parent,
            self.thread,
            self.kind.name(),
            self.class.name(),
            self.start_nanos,
            self.dur_nanos,
            self.a,
            self.link
        )
    }
}

/// Counters summarizing a tracer's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerStats {
    /// Operations that passed the sampling gate and got a trace id.
    pub sampled_traces: u64,
    /// Spans recorded into rings (sampled + orphan infrastructure).
    pub spans_recorded: u64,
    /// Registered per-thread rings.
    pub rings: u64,
}

/// Receives a closed span's duration. `spf-obs` implements it for its
/// latency histograms; the guard calls it once, on drop.
pub trait LatencySink {
    /// Takes one duration sample, in nanoseconds.
    fn record(&self, nanos: u64);
}

/// Allocates trace/span ids, applies the sampling gate, and is the
/// span ↔ words codec over the shared seqlock ring. One per database
/// instance (inside `Obs`).
pub struct Tracer {
    rings: RingSet,
    /// Next trace id (starts at 1; 0 is the unsampled sentinel).
    next_trace: AtomicU64,
    /// Next span id (starts at 1; 0 means "no span"). Only sampled
    /// operations allocate, so contention is 1/sample_every.
    next_span: AtomicU64,
    origin: Instant,
    /// Sample one operation in N (0 = tracing off).
    sample_every: AtomicU64,
    ops: AtomicU64,
    sampled: AtomicU64,
    recorded: AtomicU64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every.load(Ordering::Relaxed))
            .field("rings", &self.rings.ring_count())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a tracer with sampling off.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rings: RingSet::new(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            origin: Instant::now(),
            sample_every: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Sets the sampling rate: one operation in `every` gets a trace
    /// (0 turns tracing off).
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Current sampling rate (0 = off).
    #[must_use]
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// The sampling gate: returns a fresh root context for one in
    /// `sample_every` calls, [`TraceCtx::NONE`] otherwise. Unsampled
    /// callers pay one load, one fetch-add, and a branch.
    #[inline]
    pub fn sample(&self) -> TraceCtx {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return TraceCtx::NONE;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(every) {
            return TraceCtx::NONE;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        TraceCtx {
            trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            span_seq: 0,
        }
    }

    /// Opens the guard for one timed region. On drop its duration goes
    /// to `latency` (when given) and, as a span, into the calling
    /// thread's ring when `ctx` is sampled — or, for a
    /// [`SpanKind::LogForce`] while sampling is on, as an *orphan* in
    /// trace 0 that sampled spans may still [`link`](SpanRecord::link)
    /// to. With neither to feed the guard is inert: no clock read,
    /// nothing recorded.
    #[inline]
    pub fn span<'a>(
        &'a self,
        ctx: TraceCtx,
        kind: SpanKind,
        a: u64,
        latency: Option<&'a dyn LatencySink>,
    ) -> SpanGuard<'a> {
        let traced = ctx.sampled() || (kind == SpanKind::LogForce && self.sample_every() != 0);
        if !traced && latency.is_none() {
            return SpanGuard::inert();
        }
        let span_id = match traced {
            true => self.next_span.fetch_add(1, Ordering::Relaxed),
            false => 0,
        };
        SpanGuard {
            armed: Some(Armed {
                tracer: self,
                latency,
                start: Instant::now(),
                trace_id: ctx.trace_id,
                span_id,
                parent: if ctx.sampled() { ctx.span_seq } else { 0 },
                kind,
                a,
                link: 0,
            }),
        }
    }

    /// Hands every span recorded since the last drain out once, sorted
    /// by start time. Rings keep recording while the drain runs; torn
    /// slots are skipped.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .rings
            .drain()
            .into_iter()
            .filter_map(|e| {
                let kind = SpanKind::from_code(e.tag as u8)?;
                let [trace_id, span_id, parent, start_nanos, dur_nanos, a, link] = e.words;
                Some(SpanRecord {
                    thread: e.thread,
                    seq: e.seq,
                    trace_id,
                    span_id,
                    parent,
                    kind,
                    class: kind.class(),
                    start_nanos,
                    dur_nanos,
                    a,
                    link,
                })
            })
            .collect();
        out.sort_by_key(|r| (r.start_nanos, r.thread, r.seq));
        out
    }

    /// Drains and stitches into trace trees (see [`crate::stitch`]).
    #[must_use]
    pub fn drain_trees(&self) -> crate::Stitched {
        crate::stitch(self.drain())
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            sampled_traces: self.sampled.load(Ordering::Relaxed),
            spans_recorded: self.recorded.load(Ordering::Relaxed),
            rings: self.rings.ring_count() as u64,
        }
    }
}

struct Armed<'a> {
    tracer: &'a Tracer,
    latency: Option<&'a dyn LatencySink>,
    start: Instant,
    trace_id: u64,
    /// 0 when the span feeds only `latency`.
    span_id: u64,
    parent: u64,
    kind: SpanKind,
    a: u64,
    link: u64,
}

/// One timed region; reports on drop. Obtained from [`Tracer::span`].
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    armed: Option<Armed<'a>>,
}

impl SpanGuard<'_> {
    /// A guard that records nothing (for paths without a tracer).
    pub fn inert() -> Self {
        Self { armed: None }
    }

    /// Whether this guard read the clock and will report anything.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// This span's id (0 when untraced) — the token other threads link to.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.armed.as_ref().map_or(0, |a| a.span_id)
    }

    /// Context for child spans started under this one.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        match &self.armed {
            Some(a) if a.span_id != 0 => TraceCtx {
                trace_id: a.trace_id,
                span_seq: a.span_id,
            },
            _ => TraceCtx::NONE,
        }
    }

    /// Sets the cross-trace link (the span id this one waited on).
    pub fn set_link(&mut self, link: u64) {
        if let Some(a) = self.armed.as_mut() {
            a.link = link;
        }
    }

    /// Disarms the guard: it drops without reporting anything. For
    /// speculative spans that turn out not to describe a wait (e.g. a
    /// force request that ended up leading rather than waiting).
    pub fn cancel(mut self) {
        self.armed = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(s) = self.armed.take() else {
            return;
        };
        let dur = s.start.elapsed().as_nanos() as u64;
        if let Some(latency) = s.latency {
            latency.record(dur);
        }
        if s.span_id != 0 {
            let start = s.start.duration_since(s.tracer.origin).as_nanos() as u64;
            s.tracer.recorded.fetch_add(1, Ordering::Relaxed);
            s.tracer.rings.push(
                s.kind as u16,
                &[s.trace_id, s.span_id, s.parent, start, dur, s.a, s.link],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_tracer() -> Tracer {
        let t = Tracer::new();
        t.set_sample_every(1);
        t
    }

    #[test]
    fn unsampled_ctx_records_nothing() {
        let t = armed_tracer();
        let s = t.span(TraceCtx::NONE, SpanKind::Descent, 0, None);
        assert!(!s.is_armed(), "nothing to feed: no clock read");
        assert_eq!(s.ctx(), TraceCtx::NONE);
        drop(s);
        assert!(t.drain().is_empty());
        assert_eq!(t.stats().spans_recorded, 0);
    }

    #[test]
    fn sampling_off_means_none() {
        let t = Tracer::new();
        for _ in 0..10 {
            assert_eq!(t.sample(), TraceCtx::NONE);
        }
        assert!(!t
            .span(TraceCtx::NONE, SpanKind::LogForce, 0, None)
            .is_armed());
    }

    #[test]
    fn sample_every_n_gates() {
        let t = Tracer::new();
        t.set_sample_every(4);
        let sampled = (0..40).filter(|_| t.sample().sampled()).count();
        assert_eq!(sampled, 10);
        assert_eq!(t.stats().sampled_traces, 10);
    }

    #[test]
    fn span_round_trips_through_ring() {
        let t = armed_tracer();
        let ctx = t.sample();
        let child_ctx;
        {
            let root = t.span(ctx, SpanKind::PutAuto, 42, None);
            child_ctx = root.ctx();
            let mut child = t.span(child_ctx, SpanKind::PageMiss, 7, None);
            child.set_link(99);
        }
        let recs = t.drain();
        assert_eq!(recs.len(), 2);
        let root = recs.iter().find(|r| r.kind == SpanKind::PutAuto).unwrap();
        let child = recs.iter().find(|r| r.kind == SpanKind::PageMiss).unwrap();
        assert_eq!(root.trace_id, ctx.trace_id);
        assert_eq!(root.parent, 0);
        assert_eq!(root.a, 42);
        assert_eq!(child.parent, root.span_id);
        assert_eq!(child.span_id, child_ctx.span_seq + 1);
        assert_eq!(child.class, WaitClass::MissIo);
        assert_eq!(child.link, 99);
        assert!(child.start_nanos >= root.start_nanos);
        assert!(child.end_nanos() <= root.end_nanos());
    }

    #[test]
    fn orphan_spans_land_in_trace_zero() {
        let t = armed_tracer();
        let id;
        {
            let s = t.span(TraceCtx::NONE, SpanKind::LogForce, 5, None);
            id = s.id();
            assert!(!s.ctx().sampled(), "an orphan roots no children");
        }
        assert_ne!(id, 0);
        let recs = t.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].trace_id, 0);
        assert_eq!(recs[0].span_id, id);
    }

    #[test]
    fn two_tracers_do_not_share_rings() {
        let t1 = armed_tracer();
        let t2 = armed_tracer();
        let c1 = t1.sample();
        let c2 = t2.sample();
        drop(t1.span(c1, SpanKind::PutAuto, 1, None));
        drop(t2.span(c2, SpanKind::Commit, 2, None));
        assert_eq!(t1.drain().len(), 1);
        let d2 = t2.drain();
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].kind, SpanKind::Commit);
        assert!(t2.drain().is_empty(), "drains consume");
    }

    #[test]
    fn record_encoding_round_trips() {
        let rec = SpanRecord {
            thread: 3,
            seq: 17,
            trace_id: 5,
            span_id: 6,
            parent: 2,
            kind: SpanKind::ForceWait,
            class: WaitClass::ForceWait,
            start_nanos: 100,
            dur_nanos: 50,
            a: 9,
            link: 4,
        };
        let mut e = Encoder::new();
        rec.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(bytes.len(), SpanRecord::ENCODED_LEN);
        assert_eq!(SpanRecord::decode(&mut d).unwrap(), rec);
        assert!(d.is_exhausted());
    }
}
