//! The log manager: append, force, and the read paths recovery needs.
//!
//! The log is a single virtual byte sequence. [`LogManager::append`]
//! serializes a record into the volatile log buffer and returns its LSN
//! (byte offset); [`LogManager::force`] makes everything appended so far
//! durable. A simulated crash ([`LogManager::crash`]) discards the
//! unforced tail — exactly the paper's model where a system transaction's
//! unforced commit record can be lost without data loss (Section 5.1.5).
//!
//! # Concurrency scheme
//!
//! The log is the busiest shared structure in the system — the paper's
//! machinery (per-page log chains, PRI maintenance records after every
//! page write, forced commits) funnels every layer through it — so the
//! hot paths are built to scale with threads instead of serializing:
//!
//! * **Appends** reserve their byte range with one atomic `fetch_add`
//!   and copy the encoded record directly into a fixed-size segment of
//!   the segmented log buffer (`segment.rs`) with no exclusive lock
//!   held. Per-segment filled watermarks (release-ordered) tell the
//!   force path how far the buffer is contiguously complete.
//! * **Forces** go through a combined-force protocol
//!   (`group_force.rs`): a committer publishes its target LSN and
//!   either leads one flush for every target published so far (charging
//!   the simulated clock one sequential write for the whole batch) or
//!   waits for a leader whose flush covers it — group commit. N
//!   concurrent committers pay ~1 force instead of N.
//! * Statistics are plain atomics; only the rare control state
//!   (archive watermark, truncation, the checkpoint image) sits behind a
//!   mutex that neither appends nor forces take.
//!
//! The log also keeps the engine's **checkpoint image** — opaque bytes
//! restart analysis starts from ([`LogManager::save_checkpoint_image`]).
//! It lives wherever the log's durable state lives: in memory next to
//! the durable prefix (surviving [`LogManager::crash`] as that prefix
//! does), and with a [`WalFiles`] sink also as one file in the WAL
//! directory. It is not a log record, so it adds nothing to the log.
//!
//! Read paths serve the three consumers in the paper:
//!
//! * [`LogManager::read_record`] — one record by LSN, charged as a random
//!   I/O: this is what single-page recovery's backward chain walk pays
//!   ("dozens of I/Os in order to read the required log records",
//!   Section 6);
//! * [`LogManager::scan_from`] — forward sequential scan, what system
//!   recovery's analysis/redo passes and media recovery pay;
//! * [`LogManager::scan_backward_chain`] — the per-page chain walk,
//!   returning records newest-first (callers push them on a LIFO stack,
//!   Figure 10).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spf_obs::{EventKind, Obs, SpanKind, TraceCtx};

use spf_storage::PageId;
use spf_util::{IoCostModel, IoKind, SimClock};

use crate::group_force::{Forced, GroupForce};
use crate::record::{LogPayload, LogRecord, Lsn, TxId};
use crate::segment::SegmentedBuffer;
use crate::sink::{LogSink, WalFiles};

/// Errors from log reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The LSN does not address a durable record.
    OutOfBounds {
        /// The offending LSN.
        lsn: Lsn,
        /// One past the last durable byte.
        durable_end: Lsn,
    },
    /// The LSN addresses a record that was valid once but has been
    /// truncated away ([`LogManager::truncate_until`]). Its history now
    /// lives only in the log archive; consumers holding an archive handle
    /// should retry there.
    Truncated {
        /// The offending LSN.
        lsn: Lsn,
        /// First LSN still held by the log.
        truncate_point: Lsn,
    },
    /// The record at this LSN failed its checksum or could not be parsed.
    ///
    /// By the paper's stable-storage assumption this never happens to a
    /// correctly-written log; it indicates a bug or an unsupported failure.
    Corrupt {
        /// The offending LSN.
        lsn: Lsn,
        /// Parser diagnostics.
        detail: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::OutOfBounds { lsn, durable_end } => {
                write!(f, "{lsn} out of bounds (durable log ends at {durable_end})")
            }
            LogError::Truncated {
                lsn,
                truncate_point,
            } => write!(
                f,
                "{lsn} truncated from the log (tail starts at {truncate_point}); \
                 consult the log archive"
            ),
            LogError::Corrupt { lsn, detail } => write!(f, "corrupt log record at {lsn}: {detail}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Counters the experiment harness reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended.
    pub records_appended: u64,
    /// Bytes appended.
    pub bytes_appended: u64,
    /// Flushes of the log buffer to stable storage. Under group commit
    /// one flush may satisfy many concurrent force requests, so with N
    /// concurrent committers this stays below the commit count.
    pub forces: u64,
    /// Flushes that covered more than the leading request alone — true
    /// group-commit batches.
    pub force_batches: u64,
    /// Force requests satisfied by another thread's flush (they waited
    /// instead of flushing themselves).
    pub force_waiters_absorbed: u64,
    /// Total bytes made durable by all flushes. `bytes_forced /
    /// forces` — see [`LogStats::bytes_per_force`] — is the average
    /// flush size; group commit drives it up under concurrency.
    pub bytes_forced: u64,
    /// Records read through the random-access path.
    pub random_record_reads: u64,
    /// Bytes scanned through the sequential path.
    pub bytes_scanned: u64,
    /// Successful [`LogManager::truncate_until`] calls that dropped bytes.
    pub truncations: u64,
    /// Bytes reclaimed by truncation (they live on in the archive).
    pub bytes_truncated: u64,
    /// Appends broken down by payload kind, keyed by
    /// [`LogPayload::kind_name`] order — see [`LogStats::KIND_NAMES`].
    pub appends_by_kind: [u64; 11],
}

impl LogStats {
    /// Names corresponding to the `appends_by_kind` slots.
    pub const KIND_NAMES: [&'static str; 11] = [
        "tx-begin",
        "tx-commit",
        "tx-abort",
        "update",
        "clr",
        "page-format",
        "full-page-image",
        "pri-update",
        "backup-taken",
        "checkpoint-begin",
        "checkpoint-end",
    ];

    /// Count of appended records of the given payload kind.
    #[must_use]
    pub fn appends_of(&self, kind_name: &str) -> u64 {
        Self::KIND_NAMES
            .iter()
            .position(|&n| n == kind_name)
            .map_or(0, |i| self.appends_by_kind[i])
    }

    /// Average bytes made durable per flush (0 if nothing was flushed).
    /// Group commit shows up as this growing with committer concurrency.
    #[must_use]
    pub fn bytes_per_force(&self) -> f64 {
        if self.forces == 0 {
            0.0
        } else {
            self.bytes_forced as f64 / self.forces as f64
        }
    }
}

impl spf_obs::Observable for LogStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("records_appended", self.records_appended)
            .counter("bytes_appended", self.bytes_appended)
            .counter("forces", self.forces)
            .counter("force_batches", self.force_batches)
            .counter("force_waiters_absorbed", self.force_waiters_absorbed)
            .counter("bytes_forced", self.bytes_forced)
            .counter("random_record_reads", self.random_record_reads)
            .counter("bytes_scanned", self.bytes_scanned)
            .counter("truncations", self.truncations)
            .counter("bytes_truncated", self.bytes_truncated);
        for (name, n) in Self::KIND_NAMES.iter().zip(self.appends_by_kind) {
            g.counter(&format!("appends_by_kind_{}", name.replace('-', "_")), n);
        }
    }
}

/// Slot of `payload` in [`LogStats::KIND_NAMES`] order. A direct match
/// (not a name scan): this runs on every append.
fn kind_index(payload: &LogPayload) -> usize {
    match payload {
        LogPayload::TxBegin { .. } => 0,
        LogPayload::TxCommit { .. } => 1,
        LogPayload::TxAbort => 2,
        LogPayload::Update { .. } | LogPayload::UpdateCommit { .. } => 3,
        LogPayload::Clr { .. } => 4,
        LogPayload::PageFormat { .. } => 5,
        LogPayload::FullPageImage { .. } => 6,
        LogPayload::PriUpdate { .. } => 7,
        LogPayload::BackupTaken { .. } => 8,
        LogPayload::CheckpointBegin { .. } => 9,
        LogPayload::CheckpointEnd => 10,
    }
}

/// Lock-free statistics cells; snapshotted into [`LogStats`].
///
/// The append path pays exactly **one** counter update (its kind slot):
/// `records_appended` is the sum of the kind slots, and `bytes_appended`
/// is derived from the reservation counter plus the bytes crashes
/// discarded (counted once per crash, like the old single-mutex log
/// which also never un-counted discarded appends).
#[derive(Default)]
struct Counters {
    /// Appended-then-crash-discarded bytes (still "appended" in the
    /// cumulative sense `bytes_appended` has always had).
    bytes_discarded: AtomicU64,
    forces: AtomicU64,
    force_batches: AtomicU64,
    force_waiters_absorbed: AtomicU64,
    bytes_forced: AtomicU64,
    random_record_reads: AtomicU64,
    bytes_scanned: AtomicU64,
    truncations: AtomicU64,
    bytes_truncated: AtomicU64,
    appends_by_kind: [AtomicU64; 11],
}

impl Counters {
    /// `live_appended` is the byte count currently in the virtual log
    /// above the header (`reserved - FIRST`).
    fn snapshot(&self, live_appended: u64) -> LogStats {
        let mut appends_by_kind = [0u64; 11];
        for (out, cell) in appends_by_kind.iter_mut().zip(&self.appends_by_kind) {
            *out = cell.load(Ordering::Relaxed);
        }
        LogStats {
            records_appended: appends_by_kind.iter().sum(),
            bytes_appended: live_appended + self.bytes_discarded.load(Ordering::Relaxed),
            forces: self.forces.load(Ordering::Relaxed),
            force_batches: self.force_batches.load(Ordering::Relaxed),
            force_waiters_absorbed: self.force_waiters_absorbed.load(Ordering::Relaxed),
            bytes_forced: self.bytes_forced.load(Ordering::Relaxed),
            random_record_reads: self.random_record_reads.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            bytes_truncated: self.bytes_truncated.load(Ordering::Relaxed),
            appends_by_kind,
        }
    }
}

/// Rare, cold control state: nothing appends or forces touch.
struct Control {
    /// Exclusive upper bound of the WAL prefix captured by the log
    /// archive. Truncation never passes it.
    archive_watermark: Lsn,
    /// The last checkpoint image saved (the role of the "master record"
    /// a real system keeps in a known location).
    image: Option<Arc<[u8]>>,
}

struct Inner {
    /// The segmented log buffer holding the virtual range
    /// `[base, reserved)`; `[base, durable)` mirrors stable storage, the
    /// rest is the volatile log buffer.
    buf: SegmentedBuffer,
    /// One past the last durable byte (a *virtual* offset, like an LSN).
    /// Written only by force leaders, release-ordered.
    durable: AtomicU64,
    force: GroupForce,
    stats: Counters,
    control: Mutex<Control>,
    /// Durable backing for forced bytes, fixed at construction. `None`
    /// (the simulated default) means "durable" is an accounting fiction
    /// that survives [`LogManager::crash`] but not a real process kill;
    /// with a sink, the force leader writes and syncs it before
    /// publishing `durable`.
    sink: Option<Arc<dyn LogSink>>,
    /// The engine's one observability handle, owned here: the force
    /// leader times each flush and emits a [`EventKind::LogForce`] event,
    /// and every subsystem built over this log reads it through
    /// [`LogManager::obs`].
    obs: Arc<Obs>,
}

/// The write-ahead log.
///
/// Cheap to clone; all clones share the same log.
#[derive(Clone)]
pub struct LogManager {
    inner: Arc<Inner>,
    clock: Arc<SimClock>,
    cost: IoCostModel,
}

impl std::fmt::Debug for LogManager {
    /// Never blocks: the hot-path fields are atomics, and the control
    /// state is only peeked at with `try_lock` — formatting a shared log
    /// from a panic handler or a log line while another thread holds the
    /// control mutex must not deadlock.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("LogManager");
        s.field("len", &self.total_bytes())
            .field("durable_len", &self.inner.durable.load(Ordering::Relaxed));
        match self.inner.control.try_lock() {
            Some(control) => {
                let n = control.image.as_ref().map_or(0, |i| i.len());
                s.field("checkpoint_image_bytes", &n);
            }
            None => {
                s.field("checkpoint_image_bytes", &"<locked>");
            }
        }
        s.finish()
    }
}

impl LogManager {
    /// Creates an empty log charging `cost` against `clock`. With a
    /// `sink`, every force writes and syncs the flushed range through it
    /// before the force returns — from the very first record on.
    #[must_use]
    pub fn new(
        clock: Arc<SimClock>,
        cost: IoCostModel,
        obs: Arc<Obs>,
        sink: Option<Arc<dyn LogSink>>,
    ) -> Self {
        // Reserve the header region so LSN 0 is never a record.
        let buf = SegmentedBuffer::new(Lsn::FIRST.0);
        Self::over(buf, None, clock, cost, obs, sink)
    }

    /// A log whose every byte in `buf` is durable, with `image` as its
    /// last saved checkpoint image.
    fn over(
        buf: SegmentedBuffer,
        image: Option<Arc<[u8]>>,
        clock: Arc<SimClock>,
        cost: IoCostModel,
        obs: Arc<Obs>,
        sink: Option<Arc<dyn LogSink>>,
    ) -> Self {
        let end = buf.end();
        Self {
            inner: Arc::new(Inner {
                buf,
                durable: AtomicU64::new(end),
                force: GroupForce::new(end),
                stats: Counters::default(),
                control: Mutex::new(Control {
                    archive_watermark: Lsn::NULL,
                    image,
                }),
                sink,
                obs,
            }),
            clock,
            cost,
        }
    }

    /// Rebuilds a log from the segment files a previous incarnation's
    /// [`WalFiles`] sink persisted, together with its checkpoint image,
    /// and arms `files` as this log's sink.
    ///
    /// The segments are streamed in order through one reusable chunk of
    /// [`RESTORE_CHUNK_BYTES`]: every record is decoded (its checksum
    /// checked) before its bytes are copied into the log buffer, so
    /// memory beyond the buffer itself stays at one chunk (plus one
    /// record, should a single record be larger) however long the log.
    ///
    /// Only the newest segment can end in a torn record — a kill can land
    /// between the sink's `append` and its `sync`, while older segments
    /// were synced when they closed. So the first record that does not
    /// decode ends the log if it starts in the newest segment: it and
    /// everything after are discarded, exactly like [`LogManager::crash`]
    /// discards the unforced tail, and trimmed from the file so that a
    /// later crash never finds stale pre-crash bytes where fresh records
    /// should be. A bad record in an older segment is damage, not a
    /// tear: restore fails with [`std::io::ErrorKind::InvalidData`]
    /// naming the file and offset, and no file is changed. The sink is
    /// armed before the log is returned: restart itself appends and
    /// forces.
    ///
    /// The archive watermark restarts at `NULL`; the caller restores it
    /// from its own metadata ([`LogManager::set_archive_watermark`]).
    pub fn restore(
        clock: Arc<SimClock>,
        cost: IoCostModel,
        obs: Arc<Obs>,
        files: WalFiles,
    ) -> std::io::Result<Self> {
        let invalid = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
        let segments = files.stored_segments();
        let (Some(&(base, _)), Some(&(newest_base, _))) = (segments.first(), segments.last())
        else {
            return Err(invalid("no WAL segments".into()));
        };
        // A first segment past the header means the log was truncated
        // there (whole segment files below the cut were unlinked); one
        // inside the header is no log's.
        let buf = match base {
            b if b == Lsn::FIRST.0 => SegmentedBuffer::new(b),
            b if b > Lsn::FIRST.0 => SegmentedBuffer::truncated_at(b),
            b => return Err(invalid(format!("WAL starts at {b}, inside the log header"))),
        };
        // `pending` holds the stored bytes from virtual offset `at` on
        // that are read but not yet validated: at most one chunk, or one
        // record should a single record be larger.
        let mut pending: Vec<u8> = Vec::with_capacity(RESTORE_CHUNK_BYTES);
        let mut at = base;
        let mut bad = false;
        'read: for &(seg_base, seg_len) in &segments {
            let mut file = std::fs::File::open(files.segment_path(seg_base))?;
            let mut left = seg_len;
            while left > 0 {
                let need = pending
                    .get(..4)
                    .map_or(0, |p| LogRecord::framed_len(p.try_into().expect("4 bytes")));
                let n = (RESTORE_CHUNK_BYTES.max(need) - pending.len()).min(left as usize);
                let filled = pending.len();
                pending.resize(filled + n, 0);
                std::io::Read::read_exact(&mut file, &mut pending[filled..])?;
                left -= n as u64;
                let (valid, failed) = match whole_records(&pending) {
                    Ok(valid) => (valid, false),
                    Err(valid) => (valid, true),
                };
                if valid > 0 {
                    let lsn = buf.reserve(valid as u64);
                    debug_assert_eq!(lsn, at);
                    buf.write(lsn, &pending[..valid]);
                    pending.drain(..valid);
                    at += valid as u64;
                }
                if failed {
                    bad = true;
                    break 'read;
                }
            }
        }
        // A record that does not decode, or that the stored bytes cut
        // short, ends the log — if it starts in the newest segment.
        if (bad || !pending.is_empty()) && at < newest_base {
            let (seg_base, _) = segments
                .iter()
                .rev()
                .find(|(b, _)| *b <= at)
                .copied()
                .unwrap_or((base, 0));
            return Err(invalid(format!(
                "corrupt WAL record in {} at byte {} (log offset {at}); only the \
                 newest segment may end in a torn record",
                files.segment_path(seg_base).display(),
                at - seg_base
            )));
        }
        files.trim_to(at)?;
        let image = files.load_image()?.map(Arc::from);
        let sink = Some(Arc::new(files) as Arc<dyn LogSink>);
        Ok(Self::over(buf, image, clock, cost, obs, sink))
    }

    /// Creates a log with free I/O, no sink and a disabled
    /// observability handle, for unit tests.
    #[must_use]
    pub fn for_testing() -> Self {
        let clock = Arc::new(SimClock::new());
        let obs = Arc::new(Obs::new(Arc::clone(&clock), false));
        Self::new(clock, IoCostModel::free(), obs, None)
    }

    /// The engine's observability handle (owned by the log; see
    /// [`LogManager::new`]).
    #[must_use]
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// The shared simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// One past the last byte every completed append has fully written —
    /// the read horizon. Equals [`end_lsn`](LogManager::end_lsn) except
    /// while a concurrent append is mid-copy.
    fn complete_end(&self) -> u64 {
        self.inner
            .buf
            .complete_end(self.inner.durable.load(Ordering::Acquire))
    }

    /// Appends `record` to the log buffer and returns its LSN.
    ///
    /// The record is *not* durable until [`force`](LogManager::force); the
    /// write-ahead discipline (force before page write, force on user
    /// commit) is the callers' responsibility, as in ARIES.
    ///
    /// Concurrent appends do not serialize: each reserves its byte range
    /// with one atomic fetch-add and copies into the segmented buffer in
    /// parallel. LSNs are therefore unique and densely packed — every
    /// byte between two records belongs to exactly one record.
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.append_with_end(record).0
    }

    /// [`append`](LogManager::append), also returning one past the
    /// record's last byte: the target a commit hands
    /// [`force_to`](LogManager::force_to).
    pub fn append_with_end(&self, record: &LogRecord) -> (Lsn, Lsn) {
        let encoded = record.encode();
        let len = encoded.len() as u64;
        let lsn = self.inner.buf.reserve(len);
        self.inner.buf.write(lsn, &encoded);
        self.inner.stats.appends_by_kind[kind_index(&record.payload)]
            .fetch_add(1, Ordering::Relaxed);
        (Lsn(lsn), Lsn(lsn + len))
    }

    /// The combined-force protocol: publish `target`, then lead one
    /// flush for the whole batch of published targets or wait for a
    /// leader whose flush covers ours. The flush waits until the buffer
    /// is contiguously complete through its goal (concurrent appenders
    /// finish their short copies), charges the simulated clock one
    /// sequential write for the batch, and advances the durable
    /// boundary.
    fn combined_force(&self, target: u64, ctx: TraceCtx) -> Lsn {
        let inner = &self.inner;
        // Speculative follower span: recorded (with a link to the
        // covering leader's LogForce span) only if this request is
        // absorbed by another thread's flush; cancelled otherwise.
        let mut wait_span = inner.obs.span(ctx, SpanKind::ForceWait, target);
        let outcome = inner.force.force_to(target, |from, to, batched| {
            // Leader attribution: while sampling is on a LogForce span is
            // recorded even when this committer itself is unsampled (an
            // orphan in trace 0), so absorbed waiters can always link to
            // the batch that made them durable.
            let force_span = inner.obs.span(ctx, SpanKind::LogForce, to);
            while inner.buf.complete_end(from) < to {
                std::thread::yield_now();
            }
            // Write-ahead for real: the sink must acknowledge the bytes
            // before `durable` moves, or a commit could be acknowledged
            // on the strength of bytes a kill would erase. A sink error
            // is fatal for the same reason — there is no honest way to
            // return from a force that did not persist.
            if let Some(sink) = &inner.sink {
                let bytes = inner
                    .buf
                    .copy(from, to)
                    .expect("forced range is retained in the buffer");
                sink.append(from, &bytes)
                    .and_then(|()| sink.sync())
                    .expect("WAL sink failed; cannot acknowledge durability");
            }
            self.clock.advance(
                self.cost
                    .cost(IoKind::SequentialWrite, (to - from) as usize),
            );
            inner.durable.store(to, Ordering::Release);
            inner.stats.forces.fetch_add(1, Ordering::Relaxed);
            inner
                .stats
                .bytes_forced
                .fetch_add(to - from, Ordering::Relaxed);
            if batched {
                inner.stats.force_batches.fetch_add(1, Ordering::Relaxed);
            }
            inner.obs.emit(EventKind::LogForce, to, to - from);
            force_span.id() // attribution token for absorbed waiters
        });
        match outcome {
            Forced::Absorbed { token, .. } => {
                inner
                    .stats
                    .force_waiters_absorbed
                    .fetch_add(1, Ordering::Relaxed);
                wait_span.set_link(token);
                drop(wait_span); // records the follower's force wait
            }
            Forced::Noop(_) | Forced::Led(_) => wait_span.cancel(),
        }
        Lsn(outcome.durable())
    }

    /// Forces the log buffer to stable storage. Returns the durable end
    /// LSN. Concurrent forces combine: the batch is charged as **one**
    /// sequential write of all the flushed bytes.
    pub fn force(&self) -> Lsn {
        self.combined_force(self.inner.buf.end(), TraceCtx::NONE)
    }

    /// Forces the log **through** the record starting at `lsn` (the WAL
    /// rule before a page write: everything up to and including the
    /// record that set the page's PageLSN must be durable, but records
    /// appended later — e.g. other pages' PRI updates — need not be).
    /// No-op if that prefix is already durable. It reads the record back
    /// to find its end; a commit, which knows it, forces with
    /// [`force_to`](LogManager::force_to) instead, and both share the
    /// group-commit batch.
    ///
    /// Under a sampled `ctx` the force wait (or led flush) is recorded as
    /// a span of that trace, with group-commit leader/follower
    /// attribution.
    pub fn force_through(&self, lsn: Lsn, ctx: TraceCtx) -> Lsn {
        let durable = self.inner.durable.load(Ordering::Acquire);
        if !lsn.is_valid() || lsn.0 < durable {
            return Lsn(durable);
        }
        let end = self.inner.buf.end();
        let target = if lsn.0 >= end {
            // Beyond the appended log (defensive): force everything.
            end
        } else {
            match self.decode_at(lsn.0, end) {
                Ok((_, len)) => lsn.0 + len as u64,
                // Not a record boundary (defensive): force everything.
                Err(_) => end,
            }
        };
        self.combined_force(target, ctx)
    }

    /// Forces the log through `end`, one past a record an
    /// [`append_with_end`](LogManager::append_with_end) returned: the
    /// commit path, which knows where its record ends and so reads
    /// nothing back to find it. Joins the group-commit batch like
    /// [`force_through`](LogManager::force_through); no-op if `end` is
    /// already durable, and never forces past the appended end.
    pub fn force_to(&self, end: Lsn, ctx: TraceCtx) -> Lsn {
        let durable = self.inner.durable.load(Ordering::Acquire);
        if end.0 <= durable {
            return Lsn(durable);
        }
        self.combined_force(end.0.min(self.inner.buf.end()), ctx)
    }

    /// One past the last durable byte.
    #[must_use]
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.inner.durable.load(Ordering::Acquire))
    }

    /// One past the last appended byte (durable or not).
    #[must_use]
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.inner.buf.end())
    }

    /// Saves `bytes` as the log's checkpoint image, replacing the last
    /// one: with a sink, durably first (see [`LogSink::save_image`]) and
    /// only then in memory, so [`checkpoint_image`](LogManager::checkpoint_image)
    /// never answers with an image a kill could still take back. The
    /// bytes are opaque here; restart recovery encodes and reads them.
    pub fn save_checkpoint_image(&self, bytes: Vec<u8>) -> std::io::Result<()> {
        if let Some(sink) = &self.inner.sink {
            sink.save_image(&bytes)?;
        }
        self.inner.control.lock().image = Some(Arc::from(bytes));
        Ok(())
    }

    /// The last checkpoint image saved, if any — in memory it survives
    /// [`crash`](LogManager::crash), and [`restore`](LogManager::restore)
    /// reads it back from the WAL directory.
    #[must_use]
    pub fn checkpoint_image(&self) -> Option<Arc<[u8]>> {
        self.inner.control.lock().image.clone()
    }

    /// Simulates a system failure: the volatile log buffer is discarded.
    /// Returns the durable end LSN the restarted system will see. Must
    /// not race appends or forces — the crash owns the simulated system.
    pub fn crash(&self) -> Lsn {
        let mut control = self.inner.control.lock();
        let durable = self.inner.durable.load(Ordering::Acquire);
        let discarded = self.inner.buf.end().saturating_sub(durable);
        self.inner
            .stats
            .bytes_discarded
            .fetch_add(discarded, Ordering::Relaxed);
        self.inner.buf.crash_to(durable);
        self.inner.force.crash_reset();
        // The checkpoint image survives, like the durable prefix. The
        // archive only ever captured the durable prefix, so the
        // watermark survives a crash unchanged; clamp defensively.
        control.archive_watermark = control.archive_watermark.min(Lsn(durable));
        Lsn(durable)
    }

    /// First LSN still addressed by the log: [`Lsn::NULL`] while the log
    /// has never been truncated, else the cut point of the most recent
    /// [`truncate_until`](LogManager::truncate_until). Records below it
    /// must be fetched from the log archive.
    #[must_use]
    pub fn truncate_point(&self) -> Lsn {
        Lsn(self.inner.buf.base())
    }

    /// Exclusive upper bound of the WAL prefix the log archive has
    /// durably captured. Set by the archiver after each drain.
    #[must_use]
    pub fn archive_watermark(&self) -> Lsn {
        self.inner.control.lock().archive_watermark
    }

    /// Records that the archive now holds every page-relevant record
    /// below `lsn`. Monotone; clamped to the durable end (the archiver
    /// only ever reads the durable prefix).
    pub fn set_archive_watermark(&self, lsn: Lsn) {
        let durable = self.inner.durable.load(Ordering::Acquire);
        let mut control = self.inner.control.lock();
        let clamped = Lsn(lsn.0.min(durable));
        control.archive_watermark = control.archive_watermark.max(clamped);
    }

    /// Discards log bytes below `lsn`, reclaiming their memory (whole
    /// segments of the buffer are retired; the segment straddling the
    /// cut is freed once a later cut passes its end). The cut is clamped
    /// to the archive watermark and the durable end — nothing unarchived
    /// or unforced is ever dropped — and must land on a record boundary.
    /// Returns the bytes reclaimed (0 if nothing to drop).
    ///
    /// Callers are expected to pass a *safe* LSN, i.e. the minimum of the
    /// archive watermark, the checkpoint image's scan start, the buffer pool's
    /// oldest dirty-page recovery LSN, and the oldest active
    /// transaction's begin LSN (`Database::safe_truncation_lsn` computes
    /// exactly this); the clamps here only defend the log's own
    /// invariants.
    pub fn truncate_until(&self, lsn: Lsn) -> Result<u64, LogError> {
        // Held throughout: truncations do not interleave.
        let control = self.inner.control.lock();
        if !control.archive_watermark.is_valid() {
            return Ok(0); // nothing archived: nothing may be dropped
        }
        let durable = self.inner.durable.load(Ordering::Acquire);
        let cut = lsn.0.min(control.archive_watermark.0).min(durable);
        let base = self.inner.buf.base();
        if cut <= base {
            return Ok(0);
        }
        // The cut must be a record boundary (or the very end), or every
        // later read would land mid-record.
        let end = self.inner.buf.end();
        if cut < end {
            self.decode_at(cut, end).map_err(|e| {
                let detail = match e {
                    LogError::Corrupt { detail, .. } => detail,
                    other => other.to_string(),
                };
                LogError::Corrupt {
                    lsn: Lsn(cut),
                    detail: format!("truncation point is not a record boundary: {detail}"),
                }
            })?;
        }
        let dropped = cut - base;
        self.inner.buf.truncate_to(cut);
        // Release sink storage below the cut. Best effort: failing to
        // unlink an old segment wastes disk but loses nothing.
        if let Some(sink) = &self.inner.sink {
            let _ = sink.truncate_to(cut);
        }
        self.inner.stats.truncations.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .bytes_truncated
            .fetch_add(dropped, Ordering::Relaxed);
        Ok(dropped)
    }

    /// Decodes the complete record at virtual offset `off` (`off` must
    /// be below `limit`, which in turn must be at or below the complete
    /// end). One allocation-free probe read sized for typical records;
    /// only a record longer than the probe pays a second, exactly-sized
    /// heap copy.
    fn decode_at(&self, off: u64, limit: u64) -> Result<(LogRecord, usize), LogError> {
        /// Covers the fixed header plus the common update payloads.
        const PROBE_BYTES: usize = 192;
        let truncated = |base: u64| LogError::Truncated {
            lsn: Lsn(off),
            truncate_point: Lsn(base),
        };
        let corrupt = |detail: String| LogError::Corrupt {
            lsn: Lsn(off),
            detail,
        };
        let avail = ((limit - off).min(PROBE_BYTES as u64)) as usize;
        let mut probe = [0u8; PROBE_BYTES];
        self.inner
            .buf
            .copy_to(off, &mut probe[..avail])
            .map_err(truncated)?;
        if avail < 4 {
            return Err(corrupt("truncated record header".into()));
        }
        let framed = LogRecord::framed_len(probe[..4].try_into().expect("4 bytes")) as u64;
        let total = framed.min(limit - off);
        if total <= avail as u64 {
            return LogRecord::decode(&probe[..avail]).map_err(|e| corrupt(e.to_string()));
        }
        let bytes = self.inner.buf.copy(off, off + total).map_err(truncated)?;
        LogRecord::decode(&bytes).map_err(|e| corrupt(e.to_string()))
    }

    /// Reads the single record at `lsn`, charged as one random I/O (the
    /// cost single-page recovery pays per chain hop).
    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, LogError> {
        self.read_record_at(lsn, true)
    }

    fn read_record_at(&self, lsn: Lsn, charge: bool) -> Result<LogRecord, LogError> {
        // Bounds come from the *reserved* end, not the complete
        // watermark: a reader always holds an LSN whose append has
        // returned (most importantly rollback re-reading its own chain),
        // so its bytes are complete even while unrelated appends are
        // still mid-copy below the watermark.
        let end = self.inner.buf.end();
        if !lsn.is_valid() || lsn.0 >= end || lsn < Lsn::FIRST {
            return Err(LogError::OutOfBounds {
                lsn,
                durable_end: Lsn(end),
            });
        }
        let base = self.inner.buf.base();
        if lsn.0 < base {
            return Err(LogError::Truncated {
                lsn,
                truncate_point: Lsn(base),
            });
        }
        if charge {
            // One random log I/O; body length is bounded by a page or so,
            // charge a nominal 4 KiB transfer.
            self.clock.advance(self.cost.cost(IoKind::RandomRead, 4096));
            self.inner
                .stats
                .random_record_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        let (record, _len) = self.decode_at(lsn.0, end)?;
        Ok(record)
    }

    /// Forward sequential scan of `(lsn, record)` pairs starting at
    /// `start` (or the first record if `start` is null), up to the end of
    /// the appended log. Charged as sequential transfer of the bytes
    /// scanned.
    ///
    /// Materializes the whole suffix; recovery paths should prefer
    /// [`scan_records`](LogManager::scan_records), which streams in
    /// bounded chunks.
    pub fn scan_from(&self, start: Lsn) -> Result<Vec<(Lsn, LogRecord)>, LogError> {
        self.scan_records(start)?.collect()
    }

    /// Streaming forward scan from `start` (or the first record if
    /// `start` is null) to the end of the log as appended at this call
    /// (more precisely: to the contiguously complete end, so a scan
    /// racing appenders never observes a half-copied record). Records
    /// are decoded in chunks of at most [`LogScanner::CHUNK_BYTES`] per
    /// buffer access, so analysis and media-recovery passes over an
    /// arbitrarily long log hold only one chunk in memory. Each chunk is
    /// charged as sequential transfer of the bytes consumed.
    pub fn scan_records(&self, start: Lsn) -> Result<LogScanner, LogError> {
        let base = self.inner.buf.base();
        let pos = if start.is_valid() {
            start.0
        } else {
            Lsn::FIRST.0.max(base)
        };
        let end = self.complete_end();
        if pos > end {
            return Err(LogError::OutOfBounds {
                lsn: start,
                durable_end: Lsn(end),
            });
        }
        if pos < base {
            return Err(LogError::Truncated {
                lsn: start,
                truncate_point: Lsn(base),
            });
        }
        Ok(LogScanner {
            log: self.clone(),
            pos,
            end,
            buffered: std::collections::VecDeque::new(),
            failed: false,
            charged_overhead: false,
        })
    }

    /// Walks the **per-page log chain** backward from `start` until (and
    /// excluding) a record at or below `stop`, returning `(lsn, record)`
    /// newest-first. Each hop is charged as a random I/O.
    ///
    /// This is the access pattern of single-page recovery's first phase
    /// (Figure 10): the caller then replays the returned records in
    /// reverse, i.e. pops them off the LIFO stack this vector represents.
    pub fn scan_backward_chain(
        &self,
        start: Lsn,
        stop: Lsn,
    ) -> Result<Vec<(Lsn, LogRecord)>, LogError> {
        let mut out = Vec::new();
        let mut lsn = start;
        while lsn.is_valid() && lsn > stop {
            let record = self.read_record_at(lsn, true)?;
            let prev = record.prev_page_lsn;
            out.push((lsn, record));
            lsn = prev;
        }
        Ok(out)
    }

    /// Bytes currently **addressed** by the log (stable prefix plus
    /// buffer). This is the live WAL footprint: truncation shrinks it
    /// even though LSNs (virtual byte offsets) keep growing.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.inner.buf.end().saturating_sub(self.inner.buf.base())
    }

    /// Snapshot of the log statistics. Counters are read individually
    /// (they are independent atomics), so a snapshot taken while other
    /// threads run is internally consistent only counter-by-counter.
    #[must_use]
    pub fn stats(&self) -> LogStats {
        self.inner
            .stats
            .snapshot(self.inner.buf.end() - Lsn::FIRST.0)
    }
}

/// Streaming forward log scan (see [`LogManager::scan_records`]).
///
/// The scanner snapshots the log's complete end at creation: records
/// appended while the scan runs (e.g. by inline single-page recovery
/// during a redo pass) are not visited, matching the materializing
/// [`LogManager::scan_from`]. No lock is held across the caller's
/// per-record work; each refill copies one chunk out of the segmented
/// buffer.
pub struct LogScanner {
    log: LogManager,
    pos: u64,
    end: u64,
    buffered: std::collections::VecDeque<(Lsn, LogRecord)>,
    failed: bool,
    /// The per-command overhead is charged once per scan, not per chunk.
    charged_overhead: bool,
}

impl LogScanner {
    /// Upper bound on bytes decoded (and buffered records' worth of log)
    /// per buffer access. A single record larger than this is fetched
    /// exactly, on its own.
    pub const CHUNK_BYTES: usize = 64 * 1024;

    /// Copies and decodes the next chunk of records.
    fn refill(&mut self) -> Result<(), LogError> {
        let buf = &self.log.inner.buf;
        let truncated = |pos: u64, base: u64| LogError::Truncated {
            lsn: Lsn(pos),
            truncate_point: Lsn(base),
        };
        let base = buf.base();
        if self.pos < base {
            // The log was truncated out from under a paused scan.
            return Err(truncated(self.pos, base));
        }
        // A crash while the scan is paused may shrink the log.
        let end = self.end.min(self.log.complete_end());
        let start = self.pos;
        if start >= end {
            return Ok(());
        }
        let chunk_end = end.min(start + Self::CHUNK_BYTES as u64);
        let mut bytes = buf
            .copy(start, chunk_end)
            .map_err(|b| truncated(start, b))?;
        let mut off = 0usize;
        loop {
            let rem = bytes.len() - off;
            let pos = start + off as u64;
            if rem < LogRecord::FRAME_BYTES {
                // The chunk boundary sliced a header — or, when the
                // chunk reaches the scan horizon, the horizon itself
                // sits mid-record (the complete watermark has segment
                // granularity, so it may cut a record that straddles a
                // segment while its tail copy is still publishing). A
                // header that would not even fit below the reserved end
                // is corruption, not an append in flight.
                if rem > 0 && pos + LogRecord::FRAME_BYTES as u64 > self.log.inner.buf.end() {
                    return Err(LogError::Corrupt {
                        lsn: Lsn(pos),
                        detail: "truncated record header".into(),
                    });
                }
                break;
            }
            let total =
                LogRecord::framed_len(bytes[off..off + 4].try_into().expect("4 bytes")) as u64;
            if total > rem as u64 {
                if off > 0 {
                    break; // next refill restarts at this record
                }
                if pos + total > end {
                    // The record extends past the scan horizon: an
                    // append still in flight ends the scan cleanly; a
                    // length running past even the reserved end is
                    // garbage.
                    if pos + total > self.log.inner.buf.end() {
                        return Err(LogError::Corrupt {
                            lsn: Lsn(pos),
                            detail: "record length runs past the log end".into(),
                        });
                    }
                    break;
                }
                // A single record larger than the chunk: fetch exactly.
                bytes = buf.copy(pos, pos + total).map_err(|b| truncated(pos, b))?;
                let (record, len) = LogRecord::decode(&bytes).map_err(|e| LogError::Corrupt {
                    lsn: Lsn(pos),
                    detail: e.to_string(),
                })?;
                self.buffered.push_back((Lsn(pos), record));
                off = len;
                break;
            }
            let (record, len) =
                LogRecord::decode(&bytes[off..]).map_err(|e| LogError::Corrupt {
                    lsn: Lsn(pos),
                    detail: e.to_string(),
                })?;
            self.buffered.push_back((Lsn(pos), record));
            off += len;
            if off >= Self::CHUNK_BYTES {
                break;
            }
        }
        if off == 0 {
            return Ok(()); // nothing fully visible yet: not an error
        }
        let scanned = off;
        // One logical sequential scan: the per-command overhead is paid
        // on the first chunk only, so the charged total matches what the
        // materializing `scan_from` charged for the same byte range.
        let mut cost = self.log.cost.cost(IoKind::SequentialRead, scanned);
        if self.charged_overhead {
            cost = cost - self.log.cost.cost(IoKind::SequentialRead, 0);
        }
        self.charged_overhead = true;
        self.log.clock.advance(cost);
        self.log
            .inner
            .stats
            .bytes_scanned
            .fetch_add(scanned as u64, Ordering::Relaxed);
        self.pos = start + off as u64;
        Ok(())
    }
}

impl Iterator for LogScanner {
    type Item = Result<(Lsn, LogRecord), LogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.buffered.is_empty() {
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e));
            }
        }
        self.buffered.pop_front().map(Ok)
    }
}

/// The chunk [`LogManager::restore`] streams stored segments through.
pub const RESTORE_CHUNK_BYTES: usize = 1 << 20;

/// How many leading bytes of `bytes` (which start at a record boundary)
/// are whole records that decode: `Ok(n)` when the walk stopped at a
/// record the bytes do not yet hold completely, `Err(n)` when it stopped
/// at a complete record that fails to decode.
fn whole_records(bytes: &[u8]) -> Result<usize, usize> {
    let mut off = 0;
    while bytes.len() - off >= LogRecord::FRAME_BYTES {
        let total = LogRecord::framed_len(bytes[off..off + 4].try_into().expect("4 bytes"));
        if total > bytes.len() - off {
            break;
        }
        match LogRecord::decode(&bytes[off..off + total]) {
            Ok((_, len)) => off += len,
            Err(_) => return Err(off),
        }
    }
    Ok(off)
}

/// Convenience builder for records, keeping call sites terse.
#[must_use]
pub fn make_record(
    tx_id: TxId,
    prev_tx_lsn: Lsn,
    page_id: PageId,
    prev_page_lsn: Lsn,
    payload: LogPayload,
) -> LogRecord {
    LogRecord {
        tx_id,
        prev_tx_lsn,
        page_id,
        prev_page_lsn,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PageOp;

    fn disk_log(clock: &Arc<SimClock>, cost: IoCostModel) -> LogManager {
        let obs = Arc::new(Obs::new(Arc::clone(clock), false));
        LogManager::new(Arc::clone(clock), cost, obs, None)
    }

    fn update_record(tx: u64, prev_tx: Lsn, page: u64, prev_page: Lsn) -> LogRecord {
        make_record(
            TxId(tx),
            prev_tx,
            PageId(page),
            prev_page,
            LogPayload::Update {
                op: PageOp::InsertRecord {
                    pos: 0,
                    bytes: vec![tx as u8; 8],
                    ghost: false,
                },
            },
        )
    }

    #[test]
    fn append_returns_increasing_lsns() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 10, Lsn::NULL));
        let b = log.append(&update_record(1, a, 10, a));
        assert_eq!(a, Lsn::FIRST);
        assert!(b > a);
        assert_eq!(log.end_lsn().0, log.total_bytes());
    }

    #[test]
    fn read_record_round_trips() {
        let log = LogManager::for_testing();
        let rec = update_record(3, Lsn::NULL, 7, Lsn::NULL);
        let lsn = log.append(&rec);
        log.force();
        assert_eq!(log.read_record(lsn).unwrap(), rec);
    }

    #[test]
    fn read_invalid_lsn_fails() {
        let log = LogManager::for_testing();
        assert!(matches!(
            log.read_record(Lsn::NULL),
            Err(LogError::OutOfBounds { .. })
        ));
        assert!(matches!(
            log.read_record(Lsn(4)),
            Err(LogError::OutOfBounds { .. })
        ));
        assert!(matches!(
            log.read_record(Lsn(10_000)),
            Err(LogError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn crash_discards_unforced_tail() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        log.force();
        let b = log.append(&update_record(1, a, 1, a));
        assert_eq!(log.end_lsn().0, log.total_bytes());
        let durable = log.crash();
        assert!(durable > a, "first record survived");
        assert!(log.read_record(a).is_ok());
        assert!(
            matches!(log.read_record(b), Err(LogError::OutOfBounds { .. })),
            "unforced record must be gone"
        );
    }

    #[test]
    fn scan_from_returns_all_records_in_order() {
        let log = LogManager::for_testing();
        let mut lsns = Vec::new();
        let mut prev = Lsn::NULL;
        for i in 0..20 {
            let lsn = log.append(&update_record(1, prev, i % 4, Lsn::NULL));
            lsns.push(lsn);
            prev = lsn;
        }
        let scanned = log.scan_from(Lsn::NULL).unwrap();
        assert_eq!(scanned.len(), 20);
        assert_eq!(scanned.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
        // Scan from the middle.
        let mid = lsns[10];
        let scanned = log.scan_from(mid).unwrap();
        assert_eq!(scanned.len(), 10);
        assert_eq!(scanned[0].0, mid);
    }

    #[test]
    fn scan_records_streams_in_chunks_and_matches_scan_from() {
        let log = LogManager::for_testing();
        let mut prev = Lsn::NULL;
        // Enough records to span several refill chunks (each record is
        // tens of bytes; CHUNK_BYTES is 64 KiB).
        for i in 0..4000 {
            prev = log.append(&update_record(1, prev, i % 7, Lsn::NULL));
        }
        let materialized = log.scan_from(Lsn::NULL).unwrap();
        let streamed: Vec<(Lsn, LogRecord)> = log
            .scan_records(Lsn::NULL)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.len(), 4000);
        // Starting mid-log works too.
        let mid = materialized[2000].0;
        let tail: Vec<(Lsn, LogRecord)> = log
            .scan_records(mid)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(tail.len(), 2000);
        assert_eq!(tail[0].0, mid);
        // Out-of-range start errors at creation, like scan_from.
        assert!(matches!(
            log.scan_records(Lsn(1 << 40)),
            Err(LogError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn scan_records_charges_one_command_overhead_per_scan() {
        let clock = Arc::new(SimClock::new());
        let cost = IoCostModel::disk_2012();
        let log = disk_log(&clock, cost);
        let mut prev = Lsn::NULL;
        for i in 0..4000 {
            prev = log.append(&update_record(1, prev, i % 7, Lsn::NULL));
        }
        let scan_bytes = (log.total_bytes() - Lsn::FIRST.0) as usize;
        assert!(
            scan_bytes > LogScanner::CHUNK_BYTES,
            "test must span several chunks"
        );
        let before = clock.now();
        let n = log.scan_records(Lsn::NULL).unwrap().count();
        assert_eq!(n, 4000);
        // Chunked streaming must charge exactly what one sequential scan
        // of the same bytes costs: a single command overhead + transfer.
        assert_eq!(
            clock.now() - before,
            cost.cost(IoKind::SequentialRead, scan_bytes)
        );
    }

    #[test]
    fn scan_records_ignores_appends_after_creation() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let mut scanner = log.scan_records(Lsn::NULL).unwrap();
        // Appended after the scanner snapshot: must not be visited.
        log.append(&update_record(1, a, 2, Lsn::NULL));
        assert_eq!(scanner.next().unwrap().unwrap().0, a);
        assert!(scanner.next().is_none());
    }

    #[test]
    fn oversized_records_span_segments_and_scan_back() {
        let log = LogManager::for_testing();
        // A checkpoint record much larger than one buffer segment
        // (64 KiB): its copy must straddle several segments and the
        // scanner's exact-fetch path must hand it back whole.
        let dirty_pages: Vec<(PageId, Lsn)> =
            (0..20_000).map(|i| (PageId(i), Lsn(i + 1))).collect();
        let big = make_record(
            TxId::NONE,
            Lsn::NULL,
            PageId::INVALID,
            Lsn::NULL,
            LogPayload::CheckpointBegin {
                active_txns: vec![(TxId(1), Lsn(9))],
                dirty_pages,
            },
        );
        assert!(big.encode().len() > LogScanner::CHUNK_BYTES);
        let before = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let lsn = log.append(&big);
        let after = log.append(&update_record(1, Lsn::NULL, 2, Lsn::NULL));
        assert_eq!(log.read_record(lsn).unwrap(), big);
        let scanned = log.scan_from(Lsn::NULL).unwrap();
        assert_eq!(
            scanned.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![before, lsn, after]
        );
        assert_eq!(scanned[1].1, big);
    }

    #[test]
    fn per_page_chain_walk() {
        let log = LogManager::for_testing();
        // Interleave updates to pages 1 and 2; chains must separate them.
        let mut prev_by_page = [Lsn::NULL; 3];
        let mut chain_page1 = Vec::new();
        for i in 0..10 {
            let page = 1 + (i % 2) as u64;
            let lsn = log.append(&update_record(
                1,
                Lsn::NULL,
                page,
                prev_by_page[page as usize],
            ));
            prev_by_page[page as usize] = lsn;
            if page == 1 {
                chain_page1.push(lsn);
            }
        }
        let walked = log.scan_backward_chain(prev_by_page[1], Lsn::NULL).unwrap();
        let walked_lsns: Vec<Lsn> = walked.iter().map(|(l, _)| *l).collect();
        let mut expected = chain_page1.clone();
        expected.reverse();
        assert_eq!(
            walked_lsns, expected,
            "chain must visit page-1 records newest-first"
        );
        for (_, rec) in &walked {
            assert_eq!(rec.page_id, PageId(1));
        }
    }

    #[test]
    fn chain_walk_stops_at_boundary() {
        let log = LogManager::for_testing();
        let mut prev = Lsn::NULL;
        let mut lsns = Vec::new();
        for _ in 0..6 {
            let lsn = log.append(&update_record(1, Lsn::NULL, 4, prev));
            lsns.push(lsn);
            prev = lsn;
        }
        // Stop at the third record: only records strictly above it return.
        let walked = log.scan_backward_chain(prev, lsns[2]).unwrap();
        assert_eq!(walked.len(), 3);
        assert!(walked.iter().all(|(l, _)| *l > lsns[2]));
    }

    #[test]
    fn checkpoint_image_survives_a_crash() {
        let log = LogManager::for_testing();
        assert_eq!(log.checkpoint_image(), None);
        log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        log.save_checkpoint_image(b"first".to_vec()).unwrap();
        log.save_checkpoint_image(b"second".to_vec()).unwrap();
        // The image is the log's durable root, not a log record: the
        // unforced tail goes, the last image saved stays.
        log.crash();
        assert_eq!(log.checkpoint_image().as_deref(), Some(&b"second"[..]));
        assert_eq!(log.stats().records_appended, 1, "no record was appended");
    }

    #[test]
    fn force_through_stops_at_the_record_boundary() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 2, Lsn::NULL));
        let c = log.append(&update_record(1, b, 3, Lsn::NULL));
        // Force through the middle record: a and b durable, c not.
        let durable = log.force_through(b, TraceCtx::NONE);
        assert_eq!(durable, c, "durable end = start of the next record");
        assert!(log.read_record(a).is_ok());
        assert!(log.read_record(b).is_ok());
        log.crash();
        assert!(
            matches!(log.read_record(c), Err(LogError::OutOfBounds { .. })),
            "the record past the force boundary is lost"
        );
    }

    #[test]
    fn force_through_is_idempotent_and_bounded() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        log.force();
        let forces = log.stats().forces;
        // Already durable: no new force.
        log.force_through(a, TraceCtx::NONE);
        assert_eq!(log.stats().forces, forces);
        // Null and out-of-range LSNs never panic.
        log.force_through(Lsn::NULL, TraceCtx::NONE);
        log.force_through(Lsn(1 << 40), TraceCtx::NONE);
    }

    #[test]
    fn force_through_past_the_appended_end_forces_everything() {
        // Defensive branch 1: an LSN beyond the appended log must not
        // panic or spin — the whole buffer is forced instead.
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 2, Lsn::NULL));
        let before = log.stats().forces;
        let durable = log.force_through(Lsn(log.end_lsn().0 + 1_000), TraceCtx::NONE);
        assert_eq!(durable, log.end_lsn(), "everything becomes durable");
        assert_eq!(log.stats().forces, before + 1);
        assert!(log.durable_lsn() > b, "both records durable");
        log.crash();
        assert!(log.read_record(a).is_ok());
        assert!(log.read_record(b).is_ok());
    }

    #[test]
    fn force_through_mid_record_forces_everything() {
        // Defensive branch 2: an LSN that is not a record boundary fails
        // the checksummed decode and falls back to forcing everything —
        // over-forcing is safe, under-forcing would break the WAL rule.
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 2, Lsn::NULL));
        let before = log.stats().forces;
        let durable = log.force_through(Lsn(a.0 + 1), TraceCtx::NONE);
        assert_eq!(durable, log.end_lsn(), "fallback forces the whole buffer");
        assert_eq!(log.stats().forces, before + 1);
        log.crash();
        assert!(log.read_record(b).is_ok(), "record past the bogus LSN kept");
    }

    #[test]
    fn stats_track_kinds_and_forces() {
        let log = LogManager::for_testing();
        log.append(&make_record(
            TxId(1),
            Lsn::NULL,
            PageId::INVALID,
            Lsn::NULL,
            LogPayload::TxBegin { system: false },
        ));
        log.append(&update_record(1, Lsn::FIRST, 2, Lsn::NULL));
        log.append(&make_record(
            TxId::NONE,
            Lsn::NULL,
            PageId(2),
            Lsn::NULL,
            LogPayload::PriUpdate {
                page_lsn: Lsn(30),
                backup: crate::BackupRef::None,
            },
        ));
        log.force();
        log.force(); // nothing pending: not counted
        let stats = log.stats();
        assert_eq!(stats.records_appended, 3);
        assert_eq!(stats.forces, 1);
        assert_eq!(stats.appends_of("tx-begin"), 1);
        assert_eq!(stats.appends_of("update"), 1);
        assert_eq!(stats.appends_of("pri-update"), 1);
        assert_eq!(stats.appends_of("clr"), 0);
    }

    #[test]
    fn kind_index_matches_kind_names() {
        use crate::record::{BackupRef, CompressedPageImage};
        let image = CompressedPageImage {
            page_size: 64,
            heap_top: 64,
            head: vec![],
            tail: vec![],
        };
        let samples = [
            LogPayload::TxBegin { system: false },
            LogPayload::TxCommit { system: true },
            LogPayload::TxAbort,
            LogPayload::Update {
                op: PageOp::SetGhost {
                    pos: 0,
                    key: Vec::new(),
                    old: false,
                    new: true,
                },
            },
            LogPayload::Clr {
                op: PageOp::SetGhost {
                    pos: 0,
                    key: Vec::new(),
                    old: true,
                    new: false,
                },
                undo_next: Lsn::NULL,
            },
            LogPayload::PageFormat {
                image: image.clone(),
            },
            LogPayload::FullPageImage { image },
            LogPayload::PriUpdate {
                page_lsn: Lsn(1),
                backup: BackupRef::None,
            },
            LogPayload::BackupTaken {
                backup: BackupRef::None,
                page_lsn: Lsn(1),
            },
            LogPayload::CheckpointBegin {
                active_txns: vec![],
                dirty_pages: vec![],
            },
            LogPayload::CheckpointEnd,
        ];
        for (i, payload) in samples.iter().enumerate() {
            assert_eq!(kind_index(payload), i);
            assert_eq!(LogStats::KIND_NAMES[i], payload.kind_name());
        }
        let LogPayload::Update { op } = samples[3].clone() else {
            unreachable!()
        };
        let commits = LogPayload::UpdateCommit { op };
        assert_eq!(kind_index(&commits), 3, "counted as an update");
    }

    #[test]
    fn force_to_stops_at_the_given_end() {
        let log = LogManager::for_testing();
        let (a, a_end) = log.append_with_end(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let (b, b_end) = log.append_with_end(&update_record(1, a, 2, Lsn::NULL));
        assert_eq!(a_end, b, "the end is the next record's LSN");
        assert_eq!(log.force_to(a_end, TraceCtx::NONE), a_end);
        let forces = log.stats().forces;
        assert_eq!(
            log.force_to(a_end, TraceCtx::NONE),
            a_end,
            "already durable"
        );
        assert_eq!(log.stats().forces, forces);
        log.crash();
        assert!(log.read_record(a).is_ok());
        assert!(log.read_record(b).is_err(), "past the forced end: lost");
        assert_eq!(
            log.force_to(Lsn(b_end.0 + 100), TraceCtx::NONE),
            log.end_lsn(),
            "clamped to the appended end"
        );
    }

    #[test]
    fn group_commit_telemetry_reconciles_single_threaded() {
        let log = LogManager::for_testing();
        let mut prev = Lsn::NULL;
        for i in 0..10 {
            prev = log.append(&update_record(1, prev, i, Lsn::NULL));
            log.force_through(prev, TraceCtx::NONE);
        }
        let stats = log.stats();
        assert_eq!(stats.forces, 10, "one flush per uncombined force");
        assert_eq!(stats.force_batches, 0, "no concurrency, no batches");
        assert_eq!(stats.force_waiters_absorbed, 0);
        // Every durable byte was flushed exactly once.
        assert_eq!(stats.bytes_forced, log.durable_lsn().0 - Lsn::FIRST.0);
        assert!(stats.bytes_per_force() > 0.0);
    }

    #[test]
    fn debug_format_never_blocks_on_the_control_lock() {
        let log = LogManager::for_testing();
        log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        assert!(format!("{log:?}").contains("checkpoint_image_bytes"));
        // Formatting while another holder owns the control mutex must
        // not deadlock: the Debug impl try-locks and reports <locked>.
        let guard = log.inner.control.lock();
        let rendered = format!("{log:?}");
        drop(guard);
        assert!(
            rendered.contains("<locked>"),
            "contended Debug must degrade, not block: {rendered}"
        );
    }

    #[test]
    fn truncate_reclaims_bytes_and_preserves_lsns() {
        let log = LogManager::for_testing();
        let mut lsns = Vec::new();
        let mut prev = Lsn::NULL;
        for i in 0..50 {
            let lsn = log.append(&update_record(1, prev, i % 4, Lsn::NULL));
            lsns.push(lsn);
            prev = lsn;
        }
        log.force();
        // Nothing archived yet: truncation is refused outright.
        assert_eq!(log.truncate_until(lsns[25]).unwrap(), 0);
        assert_eq!(log.truncate_point(), Lsn::NULL);

        log.set_archive_watermark(lsns[30]);
        let before = log.total_bytes();
        let dropped = log.truncate_until(lsns[25]).unwrap();
        assert!(dropped > 0);
        assert_eq!(log.total_bytes(), before - dropped);
        assert_eq!(log.truncate_point(), lsns[25]);
        assert_eq!(log.stats().truncations, 1);
        assert_eq!(log.stats().bytes_truncated, dropped);

        // LSNs are stable: surviving records read back identically.
        for &lsn in &lsns[25..] {
            assert!(log.read_record(lsn).is_ok(), "surviving {lsn} readable");
        }
        // Truncated records answer with the dedicated error.
        assert!(matches!(
            log.read_record(lsns[10]),
            Err(LogError::Truncated { .. })
        ));
        assert!(matches!(
            log.scan_records(lsns[10]),
            Err(LogError::Truncated { .. })
        ));
        // A scan from the cut (or a null start) sees exactly the tail.
        let tail = log.scan_from(lsns[25]).unwrap();
        assert_eq!(tail.len(), 25);
        assert_eq!(tail[0].0, lsns[25]);
        let from_null = log.scan_from(Lsn::NULL).unwrap();
        assert_eq!(from_null, tail, "null start clamps to the cut");
        // Appends continue with monotone LSNs past the cut.
        let next = log.append(&update_record(1, prev, 0, Lsn::NULL));
        assert!(next > *lsns.last().unwrap());
    }

    #[test]
    fn truncate_clamps_to_watermark_and_durable() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 1, a));
        log.force();
        let c = log.append(&update_record(1, b, 1, b)); // unforced
        log.set_archive_watermark(b);
        let end_before = log.end_lsn();
        // Asking to truncate everything only drops up to the watermark.
        log.truncate_until(Lsn(1 << 40)).unwrap();
        assert_eq!(log.truncate_point(), b);
        assert!(log.read_record(b).is_ok());
        // The unforced tail is untouched: same end, record still there.
        assert_eq!(log.end_lsn(), end_before);
        assert_eq!(log.read_record(c).unwrap(), update_record(1, b, 1, b));
        // Re-truncating at the same point is a no-op.
        assert_eq!(log.truncate_until(b).unwrap(), 0);
        assert_eq!(log.stats().truncations, 1);
    }

    #[test]
    fn truncate_and_crash_keep_the_checkpoint_image_and_watermark() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 1, a));
        log.force();
        log.save_checkpoint_image(b"image at b".to_vec()).unwrap();
        log.set_archive_watermark(b);
        log.truncate_until(b).unwrap();
        assert!(matches!(
            log.read_record(a),
            Err(LogError::Truncated { .. })
        ));
        log.append(&update_record(1, b, 1, b)); // unforced
        log.crash();
        assert_eq!(log.checkpoint_image().as_deref(), Some(&b"image at b"[..]));
        // Watermark survives the crash (it covered only durable bytes).
        assert_eq!(log.archive_watermark(), b);
        assert_eq!(log.truncate_point(), b);
    }

    #[test]
    fn truncate_rejects_mid_record_cut() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let b = log.append(&update_record(1, a, 1, a));
        log.force();
        log.set_archive_watermark(log.durable_lsn());
        assert!(matches!(
            log.truncate_until(Lsn(b.0 + 1)),
            Err(LogError::Corrupt { .. })
        ));
        // The failed attempt changed nothing.
        assert_eq!(log.truncate_point(), Lsn::NULL);
        assert!(log.read_record(a).is_ok());
    }

    #[test]
    fn watermark_is_monotone_and_durable_clamped() {
        let log = LogManager::for_testing();
        let a = log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        log.force();
        let b = log.append(&update_record(1, a, 1, a)); // unforced
        log.set_archive_watermark(b);
        assert_eq!(
            log.archive_watermark(),
            log.durable_lsn(),
            "watermark never covers unforced bytes"
        );
        log.set_archive_watermark(a);
        assert_eq!(
            log.archive_watermark(),
            log.durable_lsn(),
            "watermark never regresses"
        );
    }

    #[test]
    fn force_charges_sequential_io() {
        use spf_util::SimDuration;
        let clock = Arc::new(SimClock::new());
        let log = disk_log(&clock, IoCostModel::disk_2012());
        log.append(&update_record(1, Lsn::NULL, 1, Lsn::NULL));
        let before = clock.now();
        log.force();
        let force_cost = clock.now() - before;
        assert!(force_cost > SimDuration::ZERO);
        assert!(
            force_cost < SimDuration::from_millis(8),
            "a force must not pay a random-access latency"
        );
        let before = clock.now();
        let _ = log.read_record(Lsn::FIRST).unwrap();
        assert!(
            clock.now() - before >= SimDuration::from_millis(8),
            "a recovery-time record read pays a random access"
        );
    }
}
