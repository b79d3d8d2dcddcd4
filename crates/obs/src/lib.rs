//! Unified observability for the single-page-failure engine.
//!
//! One [`Obs`] handle per database instance bundles:
//!
//! - a [`FlightRecorder`] — lock-free per-thread rings of typed events,
//!   drainable into a causal [`Trace`] at any time;
//! - span timing through one entry point, [`Obs::span`]: the returned
//!   [`SpanGuard`] feeds the [`SpanKind`]'s log-linear latency
//!   [`Histogram`] (p50/p95/p99/max; [`SpanKind::latency_metric`] says
//!   which kinds have one) while `Obs` is enabled, and the causal
//!   [`Tracer`] when the operation's [`TraceCtx`] is sampled;
//! - a [`RepairLedger`] — per-detector-class MTTD, per-failure-class
//!   MTTR, and every Figure-1 escalation with its event window;
//! - the [`MetricsSnapshot`]/[`Observable`] registry that flattens every
//!   subsystem's stats into one hierarchy with JSON and Prometheus
//!   exposition.
//!
//! The flight recorder and the tracer are codecs over the one seqlock
//! ring in `spf-trace` ([`RingSet`]); they differ in how they read it
//! (snapshot vs. hand-out-once).
//!
//! One handle per engine, built before anything else and owned by the
//! write-ahead log (`LogManager::new` takes it, `LogManager::obs` hands
//! it out). The transaction manager, buffer pool and B-tree read it
//! through the log they are built over; the I/O governor and the
//! scrubber, which hold no log, take it as a constructor argument. No
//! subsystem is ever without one: outside an engine it is a disabled
//! handle, which costs one relaxed atomic load on the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blackbox;
mod hist;
mod ledger;
mod recorder;
mod registry;

pub use blackbox::{BlackBox, BLACKBOX_FILE, BLACKBOX_PREV_FILE, BLACKBOX_TMP};
pub use hist::{Histogram, HistogramSnapshot};
pub use ledger::{EscalationRecord, RepairLedger};
pub use recorder::{Event, EventKind, FlightRecorder, Trace};
pub use registry::{
    validate_prometheus, GroupBuilder, Metric, MetricGroup, MetricValue, MetricsSnapshot,
    Observable,
};
// The causal-tracing plane (`spf-trace`) is re-exported wholesale so
// subsystems reach it through the `Arc<Obs>` they already hold without
// growing a second dependency edge.
pub use spf_trace::{
    render_flame, stitch, to_chrome_json, LatencySink, RingSet, SpanGuard, SpanKind, SpanNode,
    SpanRecord, Stitched, TraceCtx, TraceTree, Tracer, TracerStats, WaitClass, WaitProfile,
    RING_SLOTS,
};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spf_util::SimClock;

/// Detector-class codes carried in [`EventKind::FaultDetected`]'s `b`
/// payload word, shared by the buffer pool's read-verify path and the
/// scrubber so traces decode uniformly.
pub mod detector {
    /// Page checksum mismatch.
    pub const CHECKSUM: u64 = 1;
    /// Self-identifying page id did not match.
    pub const WRONG_ID: u64 = 2;
    /// Header/slot plausibility check failed.
    pub const PLAUSIBILITY: u64 = 3;
    /// PageLSN cross-check against the recovery index (stale write).
    pub const STALE_LSN: u64 = 4;
    /// The device failed the read loudly.
    pub const HARD_ERROR: u64 = 5;
    /// Foster B-tree fence-key invariant violated.
    pub const FENCE_KEYS: u64 = 6;

    /// Stable name for a detector code (for trace rendering).
    #[must_use]
    pub fn name(code: u64) -> &'static str {
        match code {
            CHECKSUM => "checksum",
            WRONG_ID => "wrong_id",
            PLAUSIBILITY => "plausibility",
            STALE_LSN => "stale_lsn",
            HARD_ERROR => "hard_error",
            FENCE_KEYS => "fence_keys",
            _ => "unknown",
        }
    }
}

/// Failure-class codes carried in [`EventKind::Escalation`]'s `b`
/// payload word (the paper's Figure-1 taxonomy).
pub mod failure_class {
    /// Single-page failure (repairable in place).
    pub const SINGLE_PAGE: u64 = 1;
    /// Transaction failure (rollback).
    pub const TRANSACTION: u64 = 2;
    /// System failure (restart recovery).
    pub const SYSTEM: u64 = 3;
    /// Media failure (restore + log replay).
    pub const MEDIA: u64 = 4;

    /// Stable name for a failure-class code.
    #[must_use]
    pub fn name(code: u64) -> &'static str {
        match code {
            SINGLE_PAGE => "single_page",
            TRANSACTION => "transaction",
            SYSTEM => "system",
            MEDIA => "media",
            _ => "unknown",
        }
    }
}

/// The latency histograms: one per [`SpanKind`] that names a
/// [`latency_metric`](SpanKind::latency_metric), indexed by the kind's
/// code.
#[derive(Debug)]
pub struct Spans {
    by_kind: [Option<Histogram>; SpanKind::ALL.len() + 1],
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            by_kind: std::array::from_fn(|code| {
                SpanKind::from_code(code as u8)
                    .and_then(SpanKind::latency_metric)
                    .map(|_| Histogram::new())
            }),
        }
    }
}

impl Spans {
    /// The histogram `kind` feeds (`None` for trace-only kinds).
    #[must_use]
    pub fn get(&self, kind: SpanKind) -> Option<&Histogram> {
        self.by_kind[kind as usize].as_ref()
    }
}

impl LatencySink for Histogram {
    fn record(&self, nanos: u64) {
        Histogram::record(self, nanos);
    }
}

impl Observable for TracerStats {
    fn observe(&self, g: &mut GroupBuilder) {
        g.counter("sampled_traces", self.sampled_traces)
            .counter("spans_recorded", self.spans_recorded)
            .gauge("rings", self.rings);
    }
}

impl Observable for Spans {
    fn observe(&self, g: &mut GroupBuilder) {
        for kind in SpanKind::ALL {
            if let (Some(name), Some(hist)) = (kind.latency_metric(), self.get(kind)) {
                g.histogram(name, hist.snapshot());
            }
        }
    }
}

/// A black-box destination plus the closure that produces the metrics
/// snapshot at capture time (built by the database from its subsystem
/// handles, so `Obs` never depends on them).
struct BlackBoxArm {
    dir: PathBuf,
    metrics: Box<dyn Fn() -> String + Send + Sync>,
}

impl std::fmt::Debug for BlackBoxArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlackBoxArm")
            .field("dir", &self.dir)
            .finish()
    }
}

/// Per-database observability handle.
#[derive(Debug)]
pub struct Obs {
    enabled: AtomicBool,
    recorder: FlightRecorder,
    ledger: RepairLedger,
    spans: Spans,
    tracer: Tracer,
    blackbox: Mutex<Option<BlackBoxArm>>,
}

impl Obs {
    /// Creates a handle stamping events with `clock`; `enabled` gates
    /// every hot-path emission and span.
    #[must_use]
    pub fn new(clock: Arc<SimClock>, enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            recorder: FlightRecorder::new(clock),
            ledger: RepairLedger::new(),
            spans: Spans::default(),
            tracer: Tracer::new(),
            blackbox: Mutex::new(None),
        }
    }

    /// Whether tracing is currently on (one relaxed load).
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns tracing on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Emits a flight-recorder event (no-op when disabled).
    #[inline]
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        if self.enabled() {
            self.recorder.emit(kind, a, b);
        }
    }

    /// Opens the guard for one timed region of `kind` (`a` is the
    /// kind's payload word: a page id, an LSN…). On drop its duration
    /// feeds the kind's latency histogram — when there is one and `Obs`
    /// is enabled — and a span of `ctx`'s trace when `ctx` is sampled.
    /// Otherwise the guard is inert and no clock is read.
    #[inline]
    pub fn span(&self, ctx: TraceCtx, kind: SpanKind, a: u64) -> SpanGuard<'_> {
        let latency = match self.enabled() {
            true => self.spans.get(kind).map(|h| h as &dyn LatencySink),
            false => None,
        };
        self.tracer.span(ctx, kind, a, latency)
    }

    /// Drains the flight recorder into a time-ordered trace.
    #[must_use]
    pub fn drain_trace(&self) -> Trace {
        self.recorder.drain()
    }

    /// The repair audit ledger.
    #[must_use]
    pub fn ledger(&self) -> &RepairLedger {
        &self.ledger
    }

    /// The span histograms (for snapshot registration).
    #[must_use]
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// The causal tracer (trace ids, span rings, sampling gate).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Sets the trace sampling rate: one operation in `every` gets a
    /// [`TraceCtx`] (0 turns causal tracing off).
    pub fn set_trace_sampling(&self, every: u64) {
        self.tracer.set_sample_every(every);
    }

    /// The sampling gate for a traced entry point: returns a fresh root
    /// context for one in `trace_sample_every` operations (and notes it
    /// in the flight recorder), [`TraceCtx::NONE`] otherwise. Unsampled
    /// operations pay one branch past the enabled check.
    #[inline]
    pub fn sample_trace(&self) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx::NONE;
        }
        let ctx = self.tracer.sample();
        if ctx.sampled() {
            self.recorder.emit(EventKind::TraceSampled, ctx.trace_id, 0);
        }
        ctx
    }

    /// Arms black-box capture: on panic (see [`install_panic_hook`])
    /// and on clean shutdown, a [`BlackBox`] is persisted into `dir`
    /// with `metrics` supplying the snapshot JSON.
    pub fn arm_blackbox(&self, dir: PathBuf, metrics: Box<dyn Fn() -> String + Send + Sync>) {
        *self.blackbox.lock() = Some(BlackBoxArm { dir, metrics });
    }

    /// Disarms black-box capture and drops the metrics closure. The
    /// closure holds the engine's subsystems and they hold this `Obs`, so
    /// an engine that goes away without disarming is never freed.
    pub fn disarm_blackbox(&self) {
        *self.blackbox.lock() = None;
    }

    /// Whether black-box capture is armed.
    #[must_use]
    pub fn blackbox_armed(&self) -> bool {
        self.blackbox.lock().is_some()
    }

    /// Captures and durably writes a black box (flight recorder, open
    /// trace rings, metrics snapshot) if armed. Returns the written
    /// path; `None` when unarmed or on I/O failure — a black box is
    /// best-effort forensics and must never turn a shutdown or panic
    /// into a second failure.
    pub fn write_blackbox(&self, reason: &str) -> Option<PathBuf> {
        let guard = self.blackbox.lock();
        let arm = guard.as_ref()?;
        let bb = BlackBox {
            reason: reason.to_string(),
            events: self.recorder.drain().events,
            spans: self.tracer.drain(),
            metrics_json: (arm.metrics)(),
        };
        bb.save(&arm.dir).ok()
    }

    /// Rotates a pre-existing black box in `dir` to
    /// [`BLACKBOX_PREV_FILE`] so a new run never clobbers the previous
    /// run's forensics. No-op when none exists.
    pub fn rotate_blackbox(dir: &Path) -> std::io::Result<()> {
        let cur = dir.join(BLACKBOX_FILE);
        if cur.exists() {
            std::fs::rename(&cur, dir.join(BLACKBOX_PREV_FILE))?;
        }
        Ok(())
    }
}

/// Installs a panic hook that dumps `obs`'s flight recorder to stderr
/// and, when black-box capture is armed, persists a [`BlackBox`] into
/// the database directory before the default hook runs. Meant for
/// experiment binaries, where a panic should leave a forensic trace;
/// libraries should not call this.
pub fn install_panic_hook(obs: Arc<Obs>) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let trace = obs.drain_trace();
        eprintln!(
            "=== flight recorder dump on panic ({} events) ===\n{}",
            trace.len(),
            trace.render()
        );
        if let Some(path) = obs.write_blackbox(&format!("panic: {info}")) {
            eprintln!("=== black box written to {} ===", path.display());
        }
        prev(info);
    }));
}

/// Extracts the depth-1 field names from a struct's `{:#?}` debug
/// output (lines of the form `    name: value,`). Used by the drift
/// test to prove every public stats field surfaces as a metric without
/// needing proc macros.
#[must_use]
pub fn debug_field_names(debug_pretty: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth = 0usize;
    for line in debug_pretty.lines() {
        let trimmed = line.trim();
        if depth == 1 {
            if let Some((name, _)) = trimmed.split_once(':') {
                let name = name.trim();
                if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    names.push(name.to_string());
                }
            }
        }
        depth += trimmed.matches(['{', '[', '(']).count();
        depth = depth.saturating_sub(trimmed.matches(['}', ']', ')']).count());
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_emits_nothing() {
        let obs = Obs::new(Arc::new(SimClock::new()), false);
        obs.emit(EventKind::TxCommit, 1, 2);
        {
            let g = obs.span(TraceCtx::NONE, SpanKind::PutAuto, 0);
            assert!(!g.is_armed());
        }
        assert!(obs.drain_trace().is_empty());
        assert_eq!(obs.spans().get(SpanKind::PutAuto).unwrap().count(), 0);
    }

    #[test]
    fn enabled_obs_records_spans_and_events() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        obs.emit(EventKind::FaultDetected, 5, 1);
        {
            let _g = obs.span(TraceCtx::NONE, SpanKind::Commit, 0);
        }
        assert_eq!(obs.drain_trace().len(), 1);
        assert_eq!(obs.spans().get(SpanKind::Commit).unwrap().count(), 1);
    }

    #[test]
    fn toggling_at_runtime_takes_effect() {
        let obs = Obs::new(Arc::new(SimClock::new()), false);
        obs.emit(EventKind::TxCommit, 0, 0);
        obs.set_enabled(true);
        obs.emit(EventKind::TxCommit, 1, 0);
        assert_eq!(obs.drain_trace().len(), 1);
    }

    #[test]
    fn spans_observe_as_histograms() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        {
            let _g = obs.span(TraceCtx::NONE, SpanKind::LogForce, 0);
        }
        let mut snap = MetricsSnapshot::new();
        snap.add("latency", obs.spans());
        assert_eq!(snap.get("latency", "log_force_ns"), Some(1));
        assert!(snap.to_json().contains("\"log_force_ns\""));
    }

    #[test]
    fn sample_trace_gates_and_notes_in_recorder() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        assert_eq!(
            obs.sample_trace(),
            TraceCtx::NONE,
            "sampling off by default"
        );
        obs.set_trace_sampling(2);
        let sampled = (0..10).filter(|_| obs.sample_trace().sampled()).count();
        assert_eq!(sampled, 5);
        let trace = obs.drain_trace();
        assert_eq!(trace.of_kind(EventKind::TraceSampled).count(), 5);
        // Disabled obs never samples even with the knob armed.
        obs.set_enabled(false);
        assert_eq!(obs.sample_trace(), TraceCtx::NONE);
    }

    #[test]
    fn trace_spans_flow_through_obs() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        obs.set_trace_sampling(1);
        let ctx = obs.sample_trace();
        {
            let root = obs.span(ctx, SpanKind::PutAuto, 0);
            let _child = obs.span(root.ctx(), SpanKind::Commit, 0);
        }
        let stitched = obs.tracer().drain_trees();
        assert_eq!(stitched.trees.len(), 1);
        assert_eq!(stitched.trees[0].span_count(), 2);
        // The same two guards fed their kinds' histograms once each.
        assert_eq!(obs.spans().get(SpanKind::PutAuto).unwrap().count(), 1);
        assert_eq!(obs.spans().get(SpanKind::Commit).unwrap().count(), 1);
    }

    #[test]
    fn unsampled_guard_of_a_trace_only_kind_is_inert() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        obs.set_trace_sampling(1);
        for kind in SpanKind::ALL {
            let guard = obs.span(TraceCtx::NONE, kind, 0);
            // Armed means the clock was read: only for a histogram, or
            // for the force span followers link to.
            let fed = kind.latency_metric().is_some() || kind == SpanKind::LogForce;
            assert_eq!(guard.is_armed(), fed, "{kind:?}");
            guard.cancel();
        }
        assert_eq!(obs.tracer().stats().spans_recorded, 0);
        assert_eq!(obs.spans().get(SpanKind::PutAuto).unwrap().count(), 0);
    }

    #[test]
    fn sampled_guard_of_a_histogram_kind_feeds_both_with_one_duration() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        obs.set_trace_sampling(1);
        drop(obs.span(obs.sample_trace(), SpanKind::PageMiss, 9));
        let hist = obs.spans().get(SpanKind::PageMiss).unwrap();
        let spans = obs.tracer().drain();
        assert_eq!((hist.count(), spans.len()), (1, 1));
        assert_eq!((spans[0].a, spans[0].class), (9, WaitClass::MissIo));
        assert_eq!(hist.snapshot().sum, spans[0].dur_nanos, "one clock pair");
        // Disabled: the histogram goes quiet, a sampled context still traces.
        let ctx = obs.sample_trace();
        obs.set_enabled(false);
        drop(obs.span(ctx, SpanKind::PageMiss, 9));
        assert_eq!((hist.count(), obs.tracer().drain().len()), (1, 1));
    }

    #[test]
    fn blackbox_write_requires_arming_and_round_trips() {
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        assert!(obs.write_blackbox("too early").is_none());
        let dir = tempdir::TempDir::new("obs_bb").unwrap();
        obs.arm_blackbox(dir.path().to_path_buf(), Box::new(|| "{\"x\":1}".into()));
        assert!(obs.blackbox_armed());
        obs.emit(EventKind::FaultDetected, 7, detector::CHECKSUM);
        obs.set_trace_sampling(1);
        let ctx = obs.sample_trace();
        {
            let _s = obs.span(ctx, SpanKind::Get, 0);
        }
        let path = obs.write_blackbox("unit test").expect("armed write");
        let bb = BlackBox::load(&path).unwrap();
        assert_eq!(bb.reason, "unit test");
        assert!(bb.events.iter().any(|e| e.kind == EventKind::FaultDetected));
        assert!(bb.spans.iter().any(|s| s.kind == SpanKind::Get));
        assert_eq!(bb.metrics_json, "{\"x\":1}");
    }

    #[test]
    fn blackbox_rotation_moves_old_box_aside() {
        let dir = tempdir::TempDir::new("obs_rot").unwrap();
        Obs::rotate_blackbox(dir.path()).unwrap(); // no-op when absent
        let obs = Obs::new(Arc::new(SimClock::new()), true);
        obs.arm_blackbox(dir.path().to_path_buf(), Box::new(String::new));
        obs.write_blackbox("first run").unwrap();
        Obs::rotate_blackbox(dir.path()).unwrap();
        assert!(!dir.path().join(BLACKBOX_FILE).exists());
        let prev = BlackBox::load(&dir.path().join(BLACKBOX_PREV_FILE)).unwrap();
        assert_eq!(prev.reason, "first run");
    }

    #[test]
    fn debug_field_names_parses_depth_one() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Inner {
            deep: u64,
        }
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Outer {
            hits: u64,
            misses: u64,
            inner: Inner,
        }
        let names = debug_field_names(&format!(
            "{:#?}",
            Outer {
                hits: 1,
                misses: 2,
                inner: Inner { deep: 3 }
            }
        ));
        assert_eq!(names, vec!["hits", "misses", "inner"]);
    }
}
