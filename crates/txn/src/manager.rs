//! The transaction manager: begin/commit/abort, the per-transaction log
//! chain, and rollback with compensation log records.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use spf_obs::{EventKind, SpanKind, TraceCtx};
use spf_storage::PageId;
use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

/// Whether a transaction is a user or a system transaction (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// Application-invoked; changes logical contents; commit forces the log.
    User,
    /// System-internal; contents-neutral structural change; commit does
    /// not force the log (Section 5.1.5).
    System,
}

impl TxKind {
    /// True for [`TxKind::System`].
    #[must_use]
    pub fn is_system(self) -> bool {
        matches!(self, TxKind::System)
    }

    /// The kind `record` tells when it is the first of its transaction's
    /// chain, else `None`. The one rule for telling the kinds apart: a
    /// system transaction opens with a begin record, a user transaction
    /// logs none — so a chain whose first record is anything else (its
    /// `prev_tx_lsn` is NULL) is a user transaction's.
    #[must_use]
    pub fn of_first_record(record: &LogRecord) -> Option<TxKind> {
        match record.payload {
            LogPayload::TxBegin { system: true } => Some(TxKind::System),
            _ if !record.prev_tx_lsn.is_valid() => Some(TxKind::User),
            _ => None,
        }
    }
}

/// How an [`UndoTarget`] logs one compensation: the page it lands on,
/// that page's PageLSN before it (the CLR's per-page chain pointer), and
/// the physical operation applied there. Returns the CLR's LSN.
pub type LogClr<'a> = dyn FnMut(PageId, Lsn, &PageOp) -> Lsn + 'a;

/// Where rollback compensations land: the caller's buffer pool, or an
/// access method that can find a record wherever it moved.
///
/// One call per undone update. The target latches the page the
/// compensation lands on, logs it through `log`, applies it and marks the
/// page dirty at the returned LSN — all under that one latch. Logging
/// under the latch keeps CLRs first-class members of the per-page chain
/// that single-page recovery replays, and means a checkpoint that waits
/// out the page latches held when it read the log end sees every earlier
/// CLR's page dirty.
///
/// `op` is the inverse of an update logged on `page`. A user
/// transaction's record may since have moved — other transactions'
/// inserts shift slots, splits move records to other pages — so a target
/// that knows the records' keys applies the inverse to the record where
/// it is now (and logs *that*); a system transaction's structural updates
/// are undone where they were made.
pub trait UndoTarget {
    /// Applies the inverse `op` of an update a `kind` transaction logged
    /// on `page`, logging each change through `log`. `Err` when it could
    /// not be applied (nothing was logged then).
    fn compensate(
        &self,
        kind: TxKind,
        page: PageId,
        op: &PageOp,
        log: &mut LogClr<'_>,
    ) -> Result<(), String>;
}

/// Transaction-manager errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// The transaction id is not active.
    NotActive(TxId),
    /// Rollback could not read a chained log record.
    LogBroken(String),
    /// Rollback could not apply a compensation.
    UndoFailed(String),
    /// A single-update transaction logs one update, which commits it: it
    /// takes no other record, nothing after that update, and no rollback
    /// once the update is logged.
    SingleUpdate(TxId),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::NotActive(tx) => write!(f, "{tx} is not active"),
            TxError::LogBroken(detail) => write!(f, "rollback failed: {detail}"),
            TxError::UndoFailed(detail) => write!(f, "rollback failed to compensate: {detail}"),
            TxError::SingleUpdate(tx) => {
                write!(f, "{tx} logs one update, which commits it")
            }
        }
    }
}

impl std::error::Error for TxError {}

/// Counters for the experiment harness (E4: commit behaviour of user vs
/// system transactions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// User transactions committed.
    pub user_commits: u64,
    /// System transactions committed.
    pub system_commits: u64,
    /// Transactions rolled back.
    pub aborts: u64,
    /// Compensation log records written during rollbacks.
    pub clrs_written: u64,
    /// System transactions that rolled back after re-validation found a
    /// concurrent conflict and were retried (see
    /// [`TxnManager::run_system`]).
    pub system_conflicts: u64,
}

impl spf_obs::Observable for TxnStats {
    fn observe(&self, g: &mut spf_obs::GroupBuilder) {
        g.counter("user_commits", self.user_commits)
            .counter("system_commits", self.system_commits)
            .counter("aborts", self.aborts)
            .counter("clrs_written", self.clrs_written)
            .counter("system_conflicts", self.system_conflicts);
    }
}

/// Lock-free statistics cells, bumped with relaxed atomics so no commit
/// takes a stats lock; snapshotted into [`TxnStats`].
#[derive(Default)]
struct Counters {
    user_commits: AtomicU64,
    system_commits: AtomicU64,
    aborts: AtomicU64,
    clrs_written: AtomicU64,
    system_conflicts: AtomicU64,
}

impl Counters {
    fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TxnStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TxnStats {
            user_commits: load(&self.user_commits),
            system_commits: load(&self.system_commits),
            aborts: load(&self.aborts),
            clrs_written: load(&self.clrs_written),
            system_conflicts: load(&self.system_conflicts),
        }
    }
}

/// The outcome of one attempt of a [`TxnManager::run_system`] body:
/// either the structural change re-validated and applied (`Done`), or
/// re-validation after re-latching found a concurrent conflict
/// (`Conflict`) and the attempt should be rolled back and retried after
/// a short back-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysAttempt<T> {
    /// The change applied; commit and return the payload.
    Done(T),
    /// A concurrent restructure invalidated the plan; roll back, back
    /// off, retry.
    Conflict,
}

#[derive(Debug, Clone, Copy)]
struct ActiveTx {
    kind: TxKind,
    /// A single-update transaction ([`TxnManager::begin_single_update`]):
    /// its first update record commits it.
    single: bool,
    /// The transaction's first record's LSN (NULL until it logs one) —
    /// the floor of its undo chain, and therefore a bound on safe WAL
    /// truncation.
    first_lsn: Lsn,
    last_lsn: Lsn,
    /// One past its last record: where a user commit forces to.
    end: Lsn,
}

impl ActiveTx {
    fn new(kind: TxKind, single: bool, first: Lsn, end: Lsn) -> Self {
        Self {
            kind,
            single,
            first_lsn: first,
            last_lsn: first,
            end,
        }
    }

    /// True once a single-update transaction has logged its update.
    fn committed(&self) -> bool {
        self.single && self.last_lsn.is_valid()
    }

    /// True if the log holds an open chain of this transaction — the
    /// ones a checkpoint lists and restart would roll back.
    fn in_log(&self) -> bool {
        self.first_lsn.is_valid() && !self.committed()
    }
}

/// The transaction manager. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct TxnManager {
    inner: std::sync::Arc<Inner>,
}

struct Inner {
    log: LogManager,
    next_tx: AtomicU64,
    active: Mutex<HashMap<TxId, ActiveTx>>,
    stats: Counters,
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("active", &self.inner.active.lock().len())
            .finish()
    }
}

impl TxnManager {
    /// Creates a manager appending to `log`. User commits are timed and
    /// traced through the log's observability handle
    /// ([`LogManager::obs`]).
    #[must_use]
    pub fn new(log: LogManager) -> Self {
        Self {
            inner: std::sync::Arc::new(Inner {
                log,
                next_tx: AtomicU64::new(1),
                active: Mutex::new(HashMap::new()),
                stats: Counters::default(),
            }),
        }
    }

    /// The log this manager appends to.
    #[must_use]
    pub fn log(&self) -> &LogManager {
        &self.inner.log
    }

    /// Begins a transaction of `kind`. A system transaction logs its
    /// begin record; a user transaction logs nothing until its first
    /// update, whose NULL `prev_tx_lsn` marks the chain's start (see
    /// [`TxKind::of_first_record`]).
    ///
    /// Every change to the active-transaction table — a system begin
    /// here, each logged record ([`log_other`](TxnManager::log_other)),
    /// commit and abort — appends its log record under the table's lock,
    /// so the table a checkpoint snapshots
    /// ([`active_txns`](TxnManager::active_txns)) holds exactly the
    /// effect of every record below the log end read with it.
    pub fn begin(&self, kind: TxKind) -> TxId {
        self.open(kind, false)
    }

    /// Begins a user transaction whose first update is its whole work:
    /// that update is logged as [`LogPayload::UpdateCommit`], which
    /// commits the transaction with no commit record of its own.
    /// [`commit`](TxnManager::commit) then only forces the log through
    /// it. Once that record is logged, a further record or an
    /// [`abort`](TxnManager::abort) is refused with
    /// [`TxError::SingleUpdate`].
    pub fn begin_single_update(&self) -> TxId {
        self.open(TxKind::User, true)
    }

    fn open(&self, kind: TxKind, single: bool) -> TxId {
        let tx = TxId(self.inner.next_tx.fetch_add(1, Ordering::Relaxed));
        let mut active = self.inner.active.lock();
        let (first, end) = match kind {
            TxKind::System => self.inner.log.append_with_end(&LogRecord {
                tx_id: tx,
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId::INVALID,
                prev_page_lsn: Lsn::NULL,
                payload: LogPayload::TxBegin { system: true },
            }),
            TxKind::User => (Lsn::NULL, Lsn::NULL),
        };
        active.insert(tx, ActiveTx::new(kind, single, first, end));
        tx
    }

    /// Appends a page-update record for `tx`, linking both chains, and
    /// returns its LSN together with `op`: the record is encoded by
    /// reference, so the caller applies the very same operation to the
    /// page — no copy — and marks the frame dirty with this LSN.
    ///
    /// `prev_page_lsn` is the page's PageLSN *before* the update — the
    /// per-page chain pointer (Section 5.1.4).
    ///
    /// The update of a single-update transaction commits it.
    pub fn log_update(
        &self,
        tx: TxId,
        page_id: PageId,
        prev_page_lsn: Lsn,
        op: PageOp,
    ) -> Result<(Lsn, PageOp), TxError> {
        let [logged] = self.log_updates(tx, page_id, prev_page_lsn, [op])?;
        Ok(logged)
    }

    /// [`log_update`](TxnManager::log_update) for `N` updates of one
    /// page, applied in order: each record's per-page chain pointer is
    /// the one before it. The records are appended under one hold of
    /// the table lock, and the last update of a single-update
    /// transaction commits it — so a write that needs two records (a
    /// replace and an un-ghost) is still one such transaction.
    pub fn log_updates<const N: usize>(
        &self,
        tx: TxId,
        page_id: PageId,
        prev_page_lsn: Lsn,
        ops: [PageOp; N],
    ) -> Result<[(Lsn, PageOp); N], TxError> {
        let mut active = self.inner.active.lock();
        let entry = Self::loggable(&mut active, tx)?;
        let mut prev_page_lsn = prev_page_lsn;
        let mut i = 0;
        Ok(ops.map(|op| {
            i += 1;
            let payload = if entry.single && i == N {
                LogPayload::UpdateCommit { op }
            } else {
                LogPayload::Update { op }
            };
            let (lsn, payload) = self.append_to(tx, entry, page_id, prev_page_lsn, payload);
            prev_page_lsn = lsn;
            match payload {
                LogPayload::Update { op } | LogPayload::UpdateCommit { op } => (lsn, op),
                _ => unreachable!("append_to hands back the payload it was given"),
            }
        }))
    }

    /// Appends an arbitrary record on behalf of `tx` (page formats,
    /// full-page images, backup notices), linking the per-transaction
    /// chain and the given per-page chain pointer.
    pub fn log_other(
        &self,
        tx: TxId,
        page_id: PageId,
        prev_page_lsn: Lsn,
        payload: LogPayload,
    ) -> Result<Lsn, TxError> {
        self.append_linked(tx, page_id, prev_page_lsn, payload)
            .map(|(lsn, _)| lsn)
    }

    /// Appends `payload` for `tx` under the table lock and links it into
    /// `tx`'s chain. A single-update transaction logs only its update
    /// this way.
    fn append_linked(
        &self,
        tx: TxId,
        page_id: PageId,
        prev_page_lsn: Lsn,
        payload: LogPayload,
    ) -> Result<(Lsn, LogPayload), TxError> {
        let mut active = self.inner.active.lock();
        let entry = Self::loggable(&mut active, tx)?;
        if entry.single {
            return Err(TxError::SingleUpdate(tx));
        }
        Ok(self.append_to(tx, entry, page_id, prev_page_lsn, payload))
    }

    /// `tx`'s table entry, if it may log another update.
    fn loggable(active: &mut HashMap<TxId, ActiveTx>, tx: TxId) -> Result<&mut ActiveTx, TxError> {
        let entry = active.get_mut(&tx).ok_or(TxError::NotActive(tx))?;
        if entry.committed() {
            return Err(TxError::SingleUpdate(tx));
        }
        Ok(entry)
    }

    /// Appends `payload` as `entry`'s next record (the caller holds the
    /// table lock) and hands the payload back with the record's LSN.
    fn append_to(
        &self,
        tx: TxId,
        entry: &mut ActiveTx,
        page_id: PageId,
        prev_page_lsn: Lsn,
        payload: LogPayload,
    ) -> (Lsn, LogPayload) {
        let record = LogRecord {
            tx_id: tx,
            prev_tx_lsn: entry.last_lsn,
            page_id,
            prev_page_lsn,
            payload,
        };
        let (lsn, end) = self.inner.log.append_with_end(&record);
        if !entry.first_lsn.is_valid() {
            entry.first_lsn = lsn;
        }
        entry.last_lsn = lsn;
        entry.end = end;
        (lsn, record.payload)
    }

    /// Removes `tx` from the active table, first appending its closing
    /// record (`payload`, built from its kind) under the same lock when
    /// its chain is open in the log. Returns its entry as it closed it —
    /// `last_lsn` and `end` at the closing record, if one was written.
    fn close(
        &self,
        tx: TxId,
        payload: impl FnOnce(TxKind) -> LogPayload,
    ) -> Result<ActiveTx, TxError> {
        let mut active = self.inner.active.lock();
        let mut entry = active.get(&tx).copied().ok_or(TxError::NotActive(tx))?;
        if entry.in_log() {
            let closing = payload(entry.kind);
            self.append_to(tx, &mut entry, PageId::INVALID, Lsn::NULL, closing);
        }
        active.remove(&tx);
        Ok(entry)
    }

    /// Commits `tx`. User commits force the log through their commit
    /// record — concurrent committers combine into one group-commit
    /// flush — while system commits do not force at all (Figure 5 /
    /// Section 5.1.5). A single-update transaction's update was its
    /// commit record, so its commit only forces; a user transaction that
    /// logged nothing writes and forces nothing. Returns the LSN of the
    /// record that committed it ([`Lsn::NULL`] when there is none).
    ///
    /// A user commit is one `Commit` span under `ctx`, with its log-force
    /// wait (group-commit leader/follower attribution included) as a
    /// child, and emits a [`EventKind::TxCommit`] event.
    pub fn commit(&self, tx: TxId, ctx: TraceCtx) -> Result<Lsn, TxError> {
        let closed = self.close(tx, |kind| LogPayload::TxCommit {
            system: kind.is_system(),
        })?;
        let lsn = closed.last_lsn;
        match closed.kind {
            TxKind::User => {
                // Durability: the commit record (and everything before it)
                // must reach stable storage before commit returns. Forcing
                // *through* the commit record, to the end its append
                // returned, joins the log's group-commit batch: concurrent
                // committers share one flush, and records appended after
                // this commit stay unforced. The force runs with no lock
                // held — a committer absorbed as a group-commit waiter must
                // not block the leader (or any peer) on the table.
                let obs = self.inner.log.obs();
                {
                    let span = obs.span(ctx, SpanKind::Commit, lsn.0);
                    if lsn.is_valid() {
                        self.inner.log.force_to(closed.end, span.ctx());
                    }
                }
                obs.emit(EventKind::TxCommit, lsn.0, 0);
                Counters::add(&self.inner.stats.user_commits, 1);
            }
            TxKind::System => {
                // "System transactions do not require forcing the log
                // buffer to stable storage." A later dependent user commit
                // (or any force) carries this record out with it.
                Counters::add(&self.inner.stats.system_commits, 1);
            }
        }
        Ok(lsn)
    }

    /// Rolls back `tx`: walks the per-transaction chain newest-first,
    /// writes a compensation (CLR) record per update, and applies each
    /// compensation through `target` (the caller owns the buffer pool).
    /// Finishes with a TxAbort record — unless the transaction logged
    /// nothing, which leaves no record and forces nothing. CLRs already
    /// on the chain — a rollback a crash interrupted — are skipped over
    /// to what they left to undo. A single-update transaction that has
    /// logged its update is committed: its abort is refused with
    /// [`TxError::SingleUpdate`] and leaves it to
    /// [`commit`](TxnManager::commit).
    ///
    /// The transaction stays in the active table until that record is
    /// appended, its last LSN advancing with every CLR: a checkpoint
    /// taken mid-rollback records where the undo stands, so restart
    /// resumes it instead of undoing an update twice. A rollback that
    /// fails leaves it there too, for the next restart to finish.
    ///
    /// Per-page chain discipline: the CLR's `prev_page_lsn` is the
    /// PageLSN of the page it lands on (handed over by
    /// [`UndoTarget::compensate`]), and after application the page's
    /// PageLSN advances to the CLR's LSN — so CLRs are first-class
    /// members of the per-page chain and single-page recovery replays
    /// them like any other redo.
    pub fn abort(&self, tx: TxId, target: &dyn UndoTarget) -> Result<Lsn, TxError> {
        let (kind, mut cursor) = {
            let mut active = self.inner.active.lock();
            let entry = Self::loggable(&mut active, tx)?;
            (entry.kind, entry.last_lsn)
        };
        let mut clrs = 0u64;
        while cursor.is_valid() {
            let record = self
                .inner
                .log
                .read_record(cursor)
                .map_err(|e| TxError::LogBroken(e.to_string()))?;
            debug_assert_eq!(
                record.tx_id, tx,
                "per-transaction chain crossed transactions"
            );
            cursor = match &record.payload {
                LogPayload::Update { op } => {
                    let mut logged = Ok(());
                    target
                        .compensate(kind, record.page_id, &op.invert(), &mut |page, prev, op| {
                            let clr = LogPayload::Clr {
                                op: op.clone(),
                                undo_next: record.prev_tx_lsn,
                            };
                            match self.log_other(tx, page, prev, clr) {
                                Ok(lsn) => {
                                    clrs += 1;
                                    lsn
                                }
                                Err(e) => {
                                    logged = Err(e);
                                    Lsn::NULL
                                }
                            }
                        })
                        .map_err(TxError::UndoFailed)?;
                    logged?;
                    record.prev_tx_lsn
                }
                LogPayload::Clr { undo_next, .. } => *undo_next,
                // Begin, formats and the like have no undo (nor would a
                // self-committing update, which never ends a loser's
                // chain).
                _ => record.prev_tx_lsn,
            };
        }
        let closed = self.close(tx, |_| LogPayload::TxAbort)?;
        if closed.kind == TxKind::User && closed.last_lsn.is_valid() {
            // Like commit: force through the abort record via the
            // group-commit path rather than flushing the whole buffer.
            self.inner.log.force_to(closed.end, TraceCtx::NONE);
        }
        Counters::add(&self.inner.stats.aborts, 1);
        Counters::add(&self.inner.stats.clrs_written, clrs);
        Ok(closed.last_lsn)
    }

    /// Restart's undo of a loser the log names: `tx`, whose chain ends at
    /// `last`, of `kind` when analysis saw its first record — else its
    /// first record, found by walking the chain back, tells
    /// ([`TxKind::of_first_record`]). It re-enters the active table and
    /// is rolled back exactly like [`abort`](TxnManager::abort). Returns
    /// its kind.
    pub fn roll_back_loser(
        &self,
        tx: TxId,
        last: Lsn,
        kind: Option<TxKind>,
        target: &dyn UndoTarget,
    ) -> Result<TxKind, TxError> {
        let kind = match kind {
            Some(kind) => kind,
            None => self.kind_from_chain(tx, last)?,
        };
        // The first LSN only bounds truncation, and restart truncates
        // nothing; the end is rewritten by the abort record.
        self.inner
            .active
            .lock()
            .insert(tx, ActiveTx::new(kind, false, last, last));
        self.abort(tx, target)?;
        Ok(kind)
    }

    /// The kind `tx`'s first record tells, found by walking its chain
    /// back from `last` (over the records CLRs already undid: a system
    /// transaction's CLRs lead back to its begin record, a user
    /// transaction's to a NULL link).
    fn kind_from_chain(&self, tx: TxId, last: Lsn) -> Result<TxKind, TxError> {
        let mut cursor = last;
        while cursor.is_valid() {
            let record = self
                .inner
                .log
                .read_record(cursor)
                .map_err(|e| TxError::LogBroken(e.to_string()))?;
            debug_assert_eq!(
                record.tx_id, tx,
                "per-transaction chain crossed transactions"
            );
            if let Some(kind) = TxKind::of_first_record(&record) {
                return Ok(kind);
            }
            cursor = match record.payload {
                LogPayload::Clr { undo_next, .. } => undo_next,
                _ => record.prev_tx_lsn,
            };
        }
        // A CLR whose undo left nothing to undo ends the walk early: only
        // a user transaction's first update has no predecessor.
        Ok(TxKind::User)
    }

    /// Runs a structural change as a system transaction with bounded
    /// retry: begins a [`TxKind::System`] transaction, runs `body`, and
    /// commits when it reports [`SysAttempt::Done`]. On
    /// [`SysAttempt::Conflict`] — the body re-latched its pages and found
    /// a concurrent restructure got there first — the attempt is rolled
    /// back through `undo`, counted in [`TxnStats::system_conflicts`],
    /// and retried after a short back-off, up to `max_attempts` times.
    /// Errors roll back and propagate. Returns `Ok(None)` when every
    /// attempt conflicted; callers treat that as "someone else is
    /// maintaining this part of the tree" and move on.
    pub fn run_system<T, E>(
        &self,
        undo: &dyn UndoTarget,
        max_attempts: usize,
        mut body: impl FnMut(TxId) -> Result<SysAttempt<T>, E>,
    ) -> Result<Option<T>, E>
    where
        E: From<TxError>,
    {
        for attempt in 0..max_attempts.max(1) {
            let sys = self.begin(TxKind::System);
            match body(sys) {
                Ok(SysAttempt::Done(value)) => {
                    self.commit(sys, TraceCtx::NONE)?;
                    return Ok(Some(value));
                }
                Ok(SysAttempt::Conflict) => {
                    // A conflicting body made no (or only partial) logged
                    // changes; roll whatever it did back and yield so the
                    // winning restructure can finish.
                    self.abort(sys, undo)?;
                    Counters::add(&self.inner.stats.system_conflicts, 1);
                    for _ in 0..(1u32 << attempt.min(6)) {
                        std::hint::spin_loop();
                    }
                    std::thread::yield_now();
                }
                Err(e) => {
                    let _ = self.abort(sys, undo);
                    return Err(e);
                }
            }
        }
        Ok(None)
    }

    /// The checkpoint's view of the table: the log's reserved end, read
    /// under the table lock, and every active transaction (rolling-back
    /// ones included) with its most recent LSN. Because the table
    /// changes only together with the record that changes it, under
    /// that lock, the list is exactly the effect of every record below
    /// the returned LSN.
    ///
    /// Only transactions with an open chain in the log are listed: one
    /// that has logged nothing has nothing to roll back, and a
    /// single-update transaction leaves the list with the very append of
    /// its update, which committed it.
    #[must_use]
    pub fn active_txns(&self) -> (Lsn, Vec<(TxId, Lsn)>) {
        let active = self.inner.active.lock();
        let end = self.inner.log.end_lsn();
        let mut out: Vec<(TxId, Lsn)> = active
            .iter()
            .filter(|(_, st)| st.in_log())
            .map(|(tx, st)| (*tx, st.last_lsn))
            .collect();
        drop(active);
        out.sort_unstable_by_key(|(tx, _)| *tx);
        (end, out)
    }

    /// The id the next [`begin`](TxnManager::begin) hands out — a floor
    /// a restart resumes allocation from.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.inner.next_tx.load(Ordering::Relaxed)
    }

    /// The first-record LSN of the **oldest** active transaction — the
    /// lower bound every live undo chain needs the log to retain. `None`
    /// when no active transaction has an open chain in the log (see
    /// [`active_txns`](TxnManager::active_txns)). Used by the
    /// safe-WAL-truncation rule: truncating past this LSN could strand a
    /// rollback.
    #[must_use]
    pub fn oldest_active_begin(&self) -> Option<Lsn> {
        self.inner
            .active
            .lock()
            .values()
            .filter(|st| st.in_log())
            .map(|st| st.first_lsn)
            .min()
    }

    /// Number of active transactions.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.inner.active.lock().len()
    }

    /// True if `tx` is currently active.
    #[must_use]
    pub fn is_active(&self, tx: TxId) -> bool {
        self.inner.active.lock().contains_key(&tx)
    }

    /// Forgets all active transactions (crash simulation; recovery rebuilds
    /// the table from the log). The id allocator continues past `floor` to
    /// avoid reusing ids of pre-crash transactions.
    pub fn reset_after_crash(&self, floor: u64) {
        self.inner.active.lock().clear();
        let current = self.inner.next_tx.load(Ordering::Relaxed);
        self.inner
            .next_tx
            .store(current.max(floor + 1), Ordering::Relaxed);
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> TxnStats {
        self.inner.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdHashMap;

    fn ins(pos: u16, byte: u8) -> PageOp {
        PageOp::InsertRecord {
            pos,
            bytes: vec![byte; 4],
            ghost: false,
        }
    }

    /// Records applied compensations without touching real pages.
    #[derive(Default)]
    struct RecordingTarget {
        applied: Mutex<Vec<(PageId, PageOp, Lsn)>>,
    }

    impl UndoTarget for RecordingTarget {
        fn compensate(
            &self,
            _kind: TxKind,
            page: PageId,
            op: &PageOp,
            log: &mut LogClr<'_>,
        ) -> Result<(), String> {
            let clr_lsn = log(page, Lsn::NULL, op);
            self.applied.lock().push((page, op.clone(), clr_lsn));
            Ok(())
        }
    }

    #[test]
    fn user_commit_forces_log() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin(TxKind::User);
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        let before_forces = log.stats().forces;
        let commit_lsn = mgr.commit(tx, TraceCtx::NONE).unwrap();
        assert_eq!(log.stats().forces, before_forces + 1);
        assert!(log.durable_lsn() > commit_lsn, "commit record durable");
    }

    #[test]
    fn system_commit_does_not_force() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin(TxKind::System);
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        let before = log.stats().forces;
        let commit_lsn = mgr.commit(tx, TraceCtx::NONE).unwrap();
        assert_eq!(log.stats().forces, before, "system commit must not force");
        assert!(
            log.durable_lsn() <= commit_lsn,
            "commit record still volatile"
        );
        // A later force (e.g. a dependent user commit) carries it out.
        log.force();
        assert!(log.durable_lsn() > commit_lsn);
    }

    #[test]
    fn run_system_commits_on_done() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let target = RecordingTarget::default();
        let out: Result<Option<u32>, TxError> = mgr.run_system(&target, 4, |sys| {
            mgr.log_update(sys, PageId(1), Lsn::NULL, ins(0, 1))?;
            Ok(SysAttempt::Done(7))
        });
        assert_eq!(out.unwrap(), Some(7));
        let stats = mgr.stats();
        assert_eq!(stats.system_commits, 1);
        assert_eq!(stats.system_conflicts, 0);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn run_system_retries_conflicts_then_succeeds() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let target = RecordingTarget::default();
        let mut attempts = 0;
        let out: Result<Option<&str>, TxError> = mgr.run_system(&target, 4, |sys| {
            attempts += 1;
            if attempts < 3 {
                // Simulate partial work invalidated by a concurrent
                // restructure: the CLR must undo it on retry.
                mgr.log_update(sys, PageId(2), Lsn::NULL, ins(0, 9))?;
                Ok(SysAttempt::Conflict)
            } else {
                Ok(SysAttempt::Done("adopted"))
            }
        });
        assert_eq!(out.unwrap(), Some("adopted"));
        let stats = mgr.stats();
        assert_eq!(stats.system_conflicts, 2);
        assert_eq!(stats.aborts, 2);
        assert_eq!(stats.clrs_written, 2, "conflicted work is undone");
        assert_eq!(stats.system_commits, 1);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn run_system_gives_up_after_max_attempts() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log);
        let target = RecordingTarget::default();
        let out: Result<Option<()>, TxError> =
            mgr.run_system(&target, 3, |_| Ok(SysAttempt::Conflict));
        assert_eq!(out.unwrap(), None);
        let stats = mgr.stats();
        assert_eq!(stats.system_conflicts, 3);
        assert_eq!(stats.system_commits, 0);
        assert_eq!(mgr.active_count(), 0, "no transaction leaks");
    }

    #[test]
    fn per_transaction_chain_links_updates() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        for kind in [TxKind::User, TxKind::System] {
            let tx = mgr.begin(kind);
            let (a, _) = mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
            let (b, _) = mgr.log_update(tx, PageId(2), Lsn::NULL, ins(0, 2)).unwrap();
            let (c, _) = mgr.log_update(tx, PageId(3), Lsn::NULL, ins(0, 3)).unwrap();
            let rec_c = log.read_record(c).unwrap();
            let rec_b = log.read_record(b).unwrap();
            let rec_a = log.read_record(a).unwrap();
            assert_eq!(rec_c.prev_tx_lsn, b);
            assert_eq!(rec_b.prev_tx_lsn, a);
            // A system transaction's first update chains to its begin
            // record; a user transaction logs none.
            assert_eq!(rec_a.prev_tx_lsn.is_valid(), kind.is_system(), "{kind:?}");
            assert_eq!(
                TxKind::of_first_record(&rec_a),
                (kind == TxKind::User).then_some(kind)
            );
            assert_eq!(TxKind::of_first_record(&rec_b), None);
            if kind.is_system() {
                let begin = log.read_record(rec_a.prev_tx_lsn).unwrap();
                assert_eq!(TxKind::of_first_record(&begin), Some(TxKind::System));
            }
            mgr.commit(tx, TraceCtx::NONE).unwrap();
        }
    }

    #[test]
    fn abort_applies_compensations_in_reverse() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin(TxKind::User);
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        mgr.log_update(tx, PageId(2), Lsn::NULL, ins(0, 2)).unwrap();
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(1, 3)).unwrap();

        let target = RecordingTarget::default();
        mgr.abort(tx, &target).unwrap();
        let applied = target.applied.into_inner();

        // Compensations arrive newest-first and are the inverses.
        assert_eq!(applied.len(), 3);
        assert_eq!(applied[0].0, PageId(1));
        assert!(matches!(applied[0].1, PageOp::RemoveRecord { pos: 1, .. }));
        assert_eq!(applied[1].0, PageId(2));
        assert!(matches!(applied[1].1, PageOp::RemoveRecord { pos: 0, .. }));
        assert_eq!(applied[2].0, PageId(1));
        assert!(matches!(applied[2].1, PageOp::RemoveRecord { pos: 0, .. }));

        let stats = mgr.stats();
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.clrs_written, 3);
        assert!(!mgr.is_active(tx));
    }

    #[test]
    fn clrs_carry_undo_next_pointers() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin(TxKind::User);
        let (u1, _) = mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(1, 2)).unwrap();
        mgr.abort(tx, &RecordingTarget::default()).unwrap();

        // Find the CLRs in the log and check undo_next skips the undone record.
        let records = log.scan_from(Lsn::NULL).unwrap();
        let clrs: Vec<&LogRecord> = records
            .iter()
            .map(|(_, r)| r)
            .filter(|r| matches!(r.payload, LogPayload::Clr { .. }))
            .collect();
        assert_eq!(clrs.len(), 2);
        match &clrs[0].payload {
            LogPayload::Clr { undo_next, .. } => assert_eq!(*undo_next, u1),
            _ => unreachable!(),
        }
        match &clrs[1].payload {
            LogPayload::Clr { undo_next, .. } => {
                assert_eq!(*undo_next, Lsn::NULL, "a user chain has no begin record");
            }
            _ => unreachable!(),
        }
    }

    /// A checkpoint taken mid-rollback must find the transaction still
    /// active, at its latest CLR — or restart would undo an update a CLR
    /// already compensated.
    #[test]
    fn a_rolling_back_transaction_stays_in_the_table_at_its_latest_clr() {
        struct Probe<'a> {
            mgr: &'a TxnManager,
            tx: TxId,
            seen: Mutex<Vec<Lsn>>,
        }
        impl UndoTarget for Probe<'_> {
            fn compensate(
                &self,
                _kind: TxKind,
                page: PageId,
                op: &PageOp,
                log: &mut LogClr<'_>,
            ) -> Result<(), String> {
                let (_, table) = self.mgr.active_txns();
                let last = table.iter().find(|(t, _)| *t == self.tx).map(|(_, l)| *l);
                self.seen.lock().push(last.expect("still active"));
                log(page, Lsn::NULL, op);
                Ok(())
            }
        }
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin(TxKind::User);
        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        let (u2, _) = mgr.log_update(tx, PageId(1), Lsn::NULL, ins(1, 2)).unwrap();
        let probe = Probe {
            mgr: &mgr,
            tx,
            seen: Mutex::new(Vec::new()),
        };
        let abort_lsn = mgr.abort(tx, &probe).unwrap();
        let seen = probe.seen.into_inner();
        assert_eq!(seen[0], u2, "before the first CLR: the last update");
        let first_clr = log.read_record(seen[1]).unwrap();
        assert!(matches!(first_clr.payload, LogPayload::Clr { .. }));
        let last_clr = log
            .scan_from(seen[1])
            .unwrap()
            .into_iter()
            .rev()
            .find(|(_, r)| matches!(r.payload, LogPayload::Clr { .. }))
            .map(|(lsn, _)| lsn);
        assert_eq!(
            Some(log.read_record(abort_lsn).unwrap().prev_tx_lsn),
            last_clr,
            "the abort record chains to the last CLR"
        );
        assert!(!mgr.is_active(tx), "the abort record closes it");
    }

    /// The checkpoint's view of the table is exactly the effect of every
    /// record below the log end read with it, however the table races:
    /// a transaction is listed if and only if its first record lies below
    /// that end and its commit, abort or self-committing update does not.
    /// System transactions (begin record), user transactions with two
    /// updates, single-update transactions and user transactions that
    /// log nothing race one snapshot thread.
    #[test]
    fn active_table_snapshots_match_the_log_below_their_end() {
        use std::collections::HashSet;
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let undo = RecordingTarget::default();
        let snapshots = std::thread::scope(|s| {
            for kind in [TxKind::System, TxKind::User] {
                let (mgr, undo) = (&mgr, &undo);
                s.spawn(move || {
                    for i in 0..1000u16 {
                        let tx = mgr.begin(kind);
                        mgr.log_update(tx, PageId(1), Lsn::NULL, ins(i, 1)).unwrap();
                        if kind == TxKind::User {
                            mgr.log_update(tx, PageId(2), Lsn::NULL, ins(i, 2)).unwrap();
                        }
                        if i % 3 == 0 {
                            mgr.abort(tx, undo).unwrap();
                        } else {
                            mgr.commit(tx, TraceCtx::NONE).unwrap();
                        }
                    }
                });
            }
            s.spawn(|| {
                for i in 0..1000u16 {
                    let tx = mgr.begin_single_update();
                    if i % 5 == 0 {
                        // Refused before it logged: nothing to roll back.
                        mgr.abort(tx, &undo).unwrap();
                        continue;
                    }
                    if i % 5 == 1 {
                        mgr.log_updates(tx, PageId(3), Lsn::NULL, [ins(i, 3), ins(i, 4)])
                            .unwrap();
                    } else {
                        mgr.log_update(tx, PageId(3), Lsn::NULL, ins(i, 3)).unwrap();
                    }
                    mgr.commit(tx, TraceCtx::NONE).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..1000 {
                    let tx = mgr.begin(TxKind::User);
                    mgr.commit(tx, TraceCtx::NONE).unwrap();
                }
            });
            let snap = s.spawn(|| {
                (0..300)
                    .map(|_| {
                        std::thread::yield_now();
                        mgr.active_txns()
                    })
                    .collect::<Vec<_>>()
            });
            snap.join().unwrap()
        });
        let records = log.scan_from(Lsn::NULL).unwrap();
        assert!(
            !records
                .iter()
                .any(|(_, r)| matches!(r.payload, LogPayload::TxBegin { system: false })),
            "a user transaction logs no begin record"
        );
        for (end, table) in snapshots {
            let mut live = HashSet::new();
            for (_, r) in records.iter().take_while(|(lsn, _)| *lsn < end) {
                if TxKind::of_first_record(r).is_some() {
                    live.insert(r.tx_id);
                }
                match r.payload {
                    LogPayload::TxCommit { .. }
                    | LogPayload::TxAbort
                    | LogPayload::UpdateCommit { .. } => {
                        live.remove(&r.tx_id);
                    }
                    _ => {}
                }
            }
            let listed: HashSet<TxId> = table.iter().map(|(tx, _)| *tx).collect();
            assert_eq!(listed, live, "table at {end} disagrees with the log");
        }
    }

    /// A single-update transaction's update is its only record: it
    /// commits it (no begin, no commit record), leaves the checkpoint's
    /// view at once, and the commit only forces through it.
    #[test]
    fn a_single_update_commits_with_its_update_record() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin_single_update();
        let before = log.stats();
        let (lsn, _) = mgr.log_update(tx, PageId(1), Lsn(5), ins(0, 1)).unwrap();
        let record = log.read_record(lsn).unwrap();
        assert!(matches!(record.payload, LogPayload::UpdateCommit { .. }));
        assert_eq!(record.prev_tx_lsn, Lsn::NULL);
        assert_eq!(record.prev_page_lsn, Lsn(5));
        assert_eq!(mgr.active_txns().1, vec![], "committed with its append");
        assert_eq!(mgr.oldest_active_begin(), None);
        assert_eq!(mgr.commit(tx, TraceCtx::NONE), Ok(lsn));
        let after = log.stats();
        assert_eq!(after.records_appended, before.records_appended + 1);
        assert_eq!(after.forces, before.forces + 1);
        assert_eq!(log.durable_lsn(), log.end_lsn(), "forced through its end");
        assert_eq!(mgr.stats().user_commits, 1);
        assert!(!mgr.is_active(tx));
    }

    /// Two updates in one logging call: the first chains, the second
    /// commits.
    #[test]
    fn a_single_update_transaction_commits_with_the_last_of_one_call() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin_single_update();
        let [(a, _), (b, _)] = mgr
            .log_updates(tx, PageId(1), Lsn(5), [ins(0, 1), ins(1, 2)])
            .unwrap();
        let (ra, rb) = (log.read_record(a).unwrap(), log.read_record(b).unwrap());
        assert!(matches!(ra.payload, LogPayload::Update { .. }));
        assert!(matches!(rb.payload, LogPayload::UpdateCommit { .. }));
        assert_eq!((ra.prev_tx_lsn, rb.prev_tx_lsn), (Lsn::NULL, a));
        assert_eq!((ra.prev_page_lsn, rb.prev_page_lsn), (Lsn(5), a));
        assert_eq!(mgr.active_txns().1, vec![]);
        assert_eq!(mgr.commit(tx, TraceCtx::NONE), Ok(b));
    }

    /// Once its update is logged a single-update transaction is
    /// committed: another record, or a rollback, is refused and writes
    /// nothing — no CLR against a committed record — and its commit still
    /// goes through.
    #[test]
    fn a_committed_single_update_refuses_more_records_and_rollback() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let tx = mgr.begin_single_update();
        let other = LogPayload::BackupTaken {
            backup: spf_wal::BackupRef::None,
            page_lsn: Lsn(1),
        };
        assert_eq!(
            mgr.log_other(tx, PageId(1), Lsn::NULL, other.clone()),
            Err(TxError::SingleUpdate(tx)),
            "only an update may be its record"
        );
        let (lsn, _) = mgr.log_update(tx, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        let appended = log.stats().records_appended;
        assert_eq!(
            mgr.log_update(tx, PageId(1), lsn, ins(1, 2))
                .map(|(l, _)| l),
            Err(TxError::SingleUpdate(tx))
        );
        assert_eq!(
            mgr.log_other(tx, PageId(1), lsn, other),
            Err(TxError::SingleUpdate(tx))
        );
        let target = RecordingTarget::default();
        assert_eq!(mgr.abort(tx, &target), Err(TxError::SingleUpdate(tx)));
        assert!(target.applied.into_inner().is_empty(), "nothing undone");
        assert_eq!(log.stats().records_appended, appended, "nothing logged");
        assert_eq!(mgr.stats().aborts, 0);
        assert_eq!(mgr.commit(tx, TraceCtx::NONE), Ok(lsn));
        assert!(log.durable_lsn() > lsn);
    }

    /// A user transaction that logged nothing writes no record and
    /// forces nothing, committed or aborted, and does not hold back WAL
    /// truncation while it is open.
    #[test]
    fn a_user_transaction_that_logged_nothing_writes_and_forces_nothing() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let sys = mgr.begin(TxKind::System);
        let sys_begin = log.scan_from(Lsn::NULL).unwrap()[0].0;
        let read_only = mgr.begin(TxKind::User);
        let refused = mgr.begin_single_update();
        assert_eq!(mgr.oldest_active_begin(), Some(sys_begin));
        mgr.commit(sys, TraceCtx::NONE).unwrap();
        assert_eq!(mgr.oldest_active_begin(), None, "no chain to keep");
        let before = log.stats();
        assert_eq!(mgr.commit(read_only, TraceCtx::NONE), Ok(Lsn::NULL));
        assert_eq!(
            mgr.abort(refused, &RecordingTarget::default()),
            Ok(Lsn::NULL)
        );
        let after = log.stats();
        assert_eq!(after.records_appended, before.records_appended);
        assert_eq!(after.forces, before.forces);
        assert_eq!(mgr.active_count(), 0);
        assert_eq!((mgr.stats().user_commits, mgr.stats().aborts), (1, 1));
    }

    /// Restart's loser-kind rule, when analysis did not see the first
    /// record: a chain that leads back to a begin record is a system
    /// transaction's, one that ends without one a user transaction's —
    /// also when a CLR's undo-next pointer ends the walk.
    #[test]
    fn a_losers_kind_is_read_from_its_first_record() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let user = mgr.begin(TxKind::User);
        mgr.log_update(user, PageId(1), Lsn::NULL, ins(0, 1))
            .unwrap();
        let (user_last, _) = mgr
            .log_update(user, PageId(1), Lsn::NULL, ins(1, 1))
            .unwrap();
        let sys = mgr.begin(TxKind::System);
        let (sys_last, _) = mgr
            .log_update(sys, PageId(2), Lsn::NULL, ins(0, 2))
            .unwrap();
        // A user loser whose rollback a crash cut after its only CLR.
        let half = mgr.begin(TxKind::User);
        let (u, _) = mgr
            .log_update(half, PageId(3), Lsn::NULL, ins(0, 3))
            .unwrap();
        let clr = log.append(&LogRecord {
            tx_id: half,
            prev_tx_lsn: u,
            page_id: PageId(3),
            prev_page_lsn: u,
            payload: LogPayload::Clr {
                op: ins(0, 3).invert(),
                undo_next: Lsn::NULL,
            },
        });
        mgr.reset_after_crash(half.0);
        let target = RecordingTarget::default();
        let roll = |tx, last| mgr.roll_back_loser(tx, last, None, &target);
        assert_eq!(roll(user, user_last), Ok(TxKind::User));
        assert_eq!(roll(sys, sys_last), Ok(TxKind::System));
        assert_eq!(roll(half, clr), Ok(TxKind::User));
        assert_eq!(
            target.applied.lock().len(),
            3,
            "the CLR's update stays undone"
        );
    }

    #[test]
    fn abort_round_trips_page_contents() {
        // Full loop: apply ops to real pages, roll back, contents restored.
        use spf_storage::{Page, PageType, SlottedPage, DEFAULT_PAGE_SIZE};

        struct MapTarget {
            pages: Mutex<StdHashMap<PageId, Page>>,
        }
        impl UndoTarget for MapTarget {
            fn compensate(
                &self,
                _kind: TxKind,
                page: PageId,
                op: &PageOp,
                log: &mut LogClr<'_>,
            ) -> Result<(), String> {
                let mut pages = self.pages.lock();
                let p = pages.get_mut(&page).unwrap();
                let clr_lsn = log(page, Lsn(p.page_lsn()), op);
                op.redo(p)
                    .expect("op fits: the page is latched in its pre-op state");
                p.set_page_lsn(clr_lsn.0);
                Ok(())
            }
        }

        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let target = MapTarget {
            pages: Mutex::new(StdHashMap::new()),
        };
        target.pages.lock().insert(
            PageId(1),
            Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(1), PageType::BTreeLeaf),
        );
        {
            let mut pages = target.pages.lock();
            let p = pages.get_mut(&PageId(1)).unwrap();
            let mut sp = SlottedPage::new(p);
            sp.push(b"keep", false).unwrap();
        }
        let before = target.pages.lock()[&PageId(1)].clone();

        let tx = mgr.begin(TxKind::User);
        for (i, op) in [
            ins(1, 0xAA),
            PageOp::replace(0, b"keep".to_vec(), b"keep", b"kept!"),
            PageOp::SetGhost {
                pos: 0,
                key: b"keep".to_vec(),
                old: false,
                new: true,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let mut pages = target.pages.lock();
            let p = pages.get_mut(&PageId(1)).unwrap();
            op.redo(p)
                .expect("op fits: the page is latched in its pre-op state");
            drop(pages);
            mgr.log_update(tx, PageId(1), Lsn(i as u64), op).unwrap();
        }
        assert_ne!(
            target.pages.lock()[&PageId(1)].as_bytes(),
            before.as_bytes()
        );

        mgr.abort(tx, &target).unwrap();

        // Logical contents restored; PageLSN advanced by the CLRs.
        let mut after = target.pages.lock().remove(&PageId(1)).unwrap();
        assert!(after.page_lsn() > 0, "CLRs must advance the PageLSN");
        let sp = SlottedPage::new(&mut after);
        let got: Vec<(Vec<u8>, bool)> = sp.iter().map(|(_, r, g)| (r.to_vec(), g)).collect();
        assert_eq!(got, vec![(b"keep".to_vec(), false)]);
    }

    #[test]
    fn active_table_tracks_begin_and_end() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log);
        let a = mgr.begin(TxKind::User);
        let b = mgr.begin(TxKind::System);
        assert_eq!(mgr.active_count(), 2);
        let (end, actives) = mgr.active_txns();
        assert_eq!(end, mgr.log().end_lsn());
        assert_eq!(actives.len(), 1, "a has logged nothing yet");
        assert_eq!(actives[0].0, b);
        let (first, _) = mgr.log_update(a, PageId(1), Lsn::NULL, ins(0, 1)).unwrap();
        let (_, actives) = mgr.active_txns();
        assert_eq!(actives.len(), 2);
        assert_eq!(actives[0], (a, first));
        mgr.commit(a, TraceCtx::NONE).unwrap();
        mgr.commit(b, TraceCtx::NONE).unwrap();
        assert_eq!(mgr.active_count(), 0);
        assert_eq!(mgr.commit(a, TraceCtx::NONE), Err(TxError::NotActive(a)));
    }

    #[test]
    fn reset_after_crash_clears_and_advances_ids() {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log);
        let t1 = mgr.begin(TxKind::User);
        mgr.reset_after_crash(t1.0 + 10);
        assert_eq!(mgr.active_count(), 0);
        let t2 = mgr.begin(TxKind::User);
        assert!(t2.0 > t1.0 + 10, "ids must not be reused after a crash");
    }
}
