//! The archive store: every run ever written, organized in levels, with
//! all I/O charged to the shared simulated clock.
//!
//! Reads come in three shapes, matching the three recovery consumers:
//!
//! * [`ArchiveStore::page_history`] — single-page recovery's path: for
//!   each run whose window overlaps the wanted LSN range, one index
//!   probe (charged as a random I/O) plus a sequential read of the
//!   page's contiguous slice. With leveled merging that is O(log runs)
//!   probes, against one random I/O *per record* on the live WAL chain.
//! * [`ArchiveStore::find_record`] — a point lookup by `(page, LSN)`,
//!   used when a PRI backup reference (format record, in-log image)
//!   points below the WAL truncation point.
//! * [`ArchiveStore::replay_lsn_order`] — the bulk path for media
//!   recovery and restart analysis: whole runs, sequential, delivered in
//!   global LSN order (run windows are pairwise disjoint, so ordering
//!   runs by window and each run's records by LSN is a total order).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use spf_storage::PageId;
use spf_util::{IoCostModel, IoKind, SimClock};
use spf_wal::{LogRecord, Lsn};

use crate::files;
use crate::merge::{merge_runs, MergePolicy};
use crate::run::ArchiveRun;
use crate::stats::ArchiveStats;
use crate::ArchiveError;

struct StoreInner {
    /// `levels[0]` holds the freshest (smallest) runs; a merge moves a
    /// whole level's runs into one run on the level below it. Runs are
    /// immutable and `Arc`-shared so queries can snapshot them under the
    /// lock and do all decoding and I/O charging outside it.
    levels: Vec<Vec<Arc<ArchiveRun>>>,
    next_run_id: u64,
    /// Exclusive upper bound of the archived WAL prefix — advanced even
    /// when a drain finds no page-relevant records.
    archived_through: Lsn,
    stats: ArchiveStats,
}

/// The archive run store. Cheap to share via `Arc`.
pub struct ArchiveStore {
    inner: Mutex<StoreInner>,
    /// Serializes merges with each other (never with readers or
    /// appends): merge work — decode, sort, re-encode — happens outside
    /// `inner`, which only covers the claim and the atomic swap.
    merge_lock: Mutex<()>,
    clock: Arc<SimClock>,
    cost: IoCostModel,
    policy: MergePolicy,
    /// When set, every installed run is durably written to this
    /// directory before it becomes visible (see [`crate::files`]).
    dir: Mutex<Option<PathBuf>>,
}

impl std::fmt::Debug for ArchiveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ArchiveStore")
            .field(
                "levels",
                &inner.levels.iter().map(Vec::len).collect::<Vec<_>>(),
            )
            .field("archived_through", &inner.archived_through)
            .finish()
    }
}

impl ArchiveStore {
    /// Creates an empty store charging `cost` against `clock`.
    #[must_use]
    pub fn new(clock: Arc<SimClock>, cost: IoCostModel, policy: MergePolicy) -> Self {
        Self {
            inner: Mutex::new(StoreInner {
                levels: Vec::new(),
                next_run_id: 0,
                archived_through: Lsn::NULL,
                stats: ArchiveStats::default(),
            }),
            merge_lock: Mutex::new(()),
            clock,
            cost,
            policy,
            dir: Mutex::new(None),
        }
    }

    /// Opens a store from the run files persisted in `dir` (and keeps
    /// persisting there). Crash leftovers — stray `.tmp` files, merge
    /// inputs whose merged output is already durable — are cleaned up
    /// during the load; the watermark resumes at the highest window end
    /// of any loaded run (the caller may advance it further from its
    /// own metadata via
    /// [`note_archived_through`](ArchiveStore::note_archived_through),
    /// covering drains that produced no page-relevant records).
    pub fn load(
        clock: Arc<SimClock>,
        cost: IoCostModel,
        policy: MergePolicy,
        dir: &Path,
    ) -> Result<Self, ArchiveError> {
        let store = Self::new(clock, cost, policy);
        let loaded = files::load_dir(dir)?;
        {
            let mut inner = store.inner.lock();
            for (level, run) in loaded {
                if inner.levels.len() <= level {
                    inner.levels.resize_with(level + 1, Vec::new);
                }
                inner.next_run_id = inner.next_run_id.max(run.id() + 1);
                let (_, end) = run.window();
                inner.archived_through = inner.archived_through.max(end);
                inner.levels[level].push(Arc::new(run));
            }
        }
        *store.dir.lock() = Some(dir.to_path_buf());
        Ok(store)
    }

    /// Attaches a persistence directory to a fresh store: runs
    /// installed from now on are durably written there first. Creates
    /// the directory if needed.
    pub fn set_dir(&self, dir: &Path) -> Result<(), ArchiveError> {
        std::fs::create_dir_all(dir).map_err(|e| ArchiveError::Io {
            detail: format!("creating archive directory: {e}"),
        })?;
        *self.dir.lock() = Some(dir.to_path_buf());
        Ok(())
    }

    fn persist_dir(&self) -> Option<PathBuf> {
        self.dir.lock().clone()
    }

    /// Advances the watermark to at least `lsn` without installing a
    /// run — restart's correction when durable metadata (the manifest)
    /// recorded a drain whose run held no page-relevant records.
    pub fn note_archived_through(&self, lsn: Lsn) {
        let mut inner = self.inner.lock();
        inner.archived_through = inner.archived_through.max(lsn);
    }

    /// A store with free I/O for unit tests.
    #[must_use]
    pub fn for_testing() -> Self {
        Self::new(
            Arc::new(SimClock::new()),
            IoCostModel::free(),
            MergePolicy::leveled_default(),
        )
    }

    /// The shared simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The merge policy in force.
    #[must_use]
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// Allocates the id for the next run to be installed.
    pub fn allocate_run_id(&self) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_run_id;
        inner.next_run_id += 1;
        id
    }

    /// Installs a freshly built level-0 run (one sequential write), then
    /// applies the merge policy level by level.
    pub fn append_run(&self, run: ArchiveRun) -> Result<(), ArchiveError> {
        let bytes = run.encoded_len();
        // Durable before visible: a run readers can see must survive a
        // crash, or recovery could be promised history that is gone.
        if let Some(dir) = self.persist_dir() {
            files::write_run_file(&dir, 0, &run)?;
        }
        {
            let mut inner = self.inner.lock();
            Self::install_level0_locked(&mut inner, run);
        }
        self.clock
            .advance(self.cost.cost(IoKind::SequentialWrite, bytes));
        self.maybe_merge()
    }

    fn install_level0_locked(inner: &mut StoreInner, run: ArchiveRun) {
        let bytes = run.encoded_len();
        inner.stats.runs_written += 1;
        inner.stats.records_archived += run.record_count();
        inner.stats.bytes_written += bytes as u64;
        if inner.levels.is_empty() {
            inner.levels.push(Vec::new());
        }
        inner.levels[0].push(Arc::new(run));
    }

    /// Atomically commits the outcome of an archiver drain of
    /// `[from, to)`: installs `run` (if any) and advances the watermark
    /// — but only if `from` still equals the current watermark. Returns
    /// `false` when it does not (a concurrent drain won the race); the
    /// caller must discard its run, or duplicate, overlapping windows
    /// would break the store's disjoint-window invariant.
    pub fn commit_drain(
        &self,
        from: Lsn,
        to: Lsn,
        run: Option<ArchiveRun>,
    ) -> Result<bool, ArchiveError> {
        // Persist before the commit check: the file write is too slow
        // to do under the table lock. Losing the race just means
        // deleting an orphan file no reader ever saw.
        let persisted = match (&run, self.persist_dir()) {
            (Some(run), Some(dir)) => {
                files::write_run_file(&dir, 0, run)?;
                Some((dir, run.id()))
            }
            _ => None,
        };
        {
            let mut inner = self.inner.lock();
            if inner.archived_through.max(Lsn::FIRST) != from.max(Lsn::FIRST) {
                drop(inner);
                if let Some((dir, id)) = persisted {
                    files::remove_run_files(&dir, [(0, id)]);
                }
                return Ok(false);
            }
            let bytes = run.as_ref().map_or(0, ArchiveRun::encoded_len);
            if let Some(run) = run {
                Self::install_level0_locked(&mut inner, run);
            }
            inner.archived_through = inner.archived_through.max(to);
            drop(inner);
            // Writing the run is charged outside the table lock, like
            // every other archive I/O.
            if bytes > 0 {
                self.clock
                    .advance(self.cost.cost(IoKind::SequentialWrite, bytes));
            }
        }
        self.maybe_merge()?;
        Ok(true)
    }

    /// Applies the leveled policy: any level holding `fanout` runs is
    /// merged into one run on the next level (which may cascade). The
    /// expensive part — decoding the inputs, the order merge, encoding
    /// the output — runs with **no** `inner` lock held, so concurrent
    /// readers keep answering from the pre-merge runs; the lock only
    /// covers claiming the inputs and the atomic swap (remove inputs,
    /// install the merged run). `merge_lock` serializes merges with
    /// each other, which keeps the claimed level stable underneath the
    /// unlocked work (level-0 appends racing in are simply retained).
    fn maybe_merge(&self) -> Result<(), ArchiveError> {
        let _one_merger_at_a_time = self.merge_lock.lock();
        loop {
            let (level, inputs, id) = {
                let mut inner = self.inner.lock();
                let Some(level) = inner
                    .levels
                    .iter()
                    .position(|l| self.policy.should_merge(l.len()))
                else {
                    return Ok(());
                };
                let inputs = inner.levels[level].clone();
                let id = inner.next_run_id;
                inner.next_run_id += 1;
                (level, inputs, id)
            };
            let in_bytes: usize = inputs.iter().map(|r| r.encoded_len()).sum();
            self.clock
                .advance(self.cost.cost(IoKind::SequentialRead, in_bytes));
            let merged = merge_runs(&inputs, id)?;
            let out_bytes = merged.encoded_len();
            // Crash ordering: merged file durable first, then the
            // in-memory swap, then the input files unlinked. A crash in
            // between leaves the merged run *and* its inputs on disk —
            // overlapping but complete — which `load` dedupes by window
            // containment.
            let dir = self.persist_dir();
            if let Some(dir) = &dir {
                files::write_run_file(dir, level + 1, &merged)?;
            }
            self.clock
                .advance(self.cost.cost(IoKind::SequentialWrite, out_bytes));

            let input_ids: std::collections::HashSet<u64> = inputs.iter().map(|r| r.id()).collect();
            {
                let mut inner = self.inner.lock();
                inner.levels[level].retain(|r| !input_ids.contains(&r.id()));
                if inner.levels.len() == level + 1 {
                    inner.levels.push(Vec::new());
                }
                inner.levels[level + 1].push(Arc::new(merged));
                inner.stats.merges += 1;
                inner.stats.runs_merged += inputs.len() as u64;
                inner.stats.bytes_written += out_bytes as u64;
            }
            if let Some(dir) = &dir {
                files::remove_run_files(dir, input_ids.iter().map(|&id| (level, id)));
            }
        }
    }

    /// Exclusive upper bound of the archived WAL prefix.
    #[must_use]
    pub fn archived_through(&self) -> Lsn {
        self.inner.lock().archived_through
    }

    /// Runs per level, freshest level first (diagnostics).
    #[must_use]
    pub fn level_run_counts(&self) -> Vec<usize> {
        self.inner.lock().levels.iter().map(Vec::len).collect()
    }

    /// Snapshots every live run (cheap `Arc` clones) — the only part of
    /// a read that needs the lock. Runs are immutable, so decoding,
    /// I/O charging, and caller callbacks all happen unlocked; a merge
    /// racing a snapshot just leaves the reader on the pre-merge runs,
    /// which hold the identical records.
    fn snapshot_runs(&self) -> Vec<Arc<ArchiveRun>> {
        self.inner.lock().levels.iter().flatten().cloned().collect()
    }

    /// `page`'s archived records with `after < LSN <= through`, ascending
    /// by LSN — ready to replay oldest-first, no LIFO stack needed.
    ///
    /// Cost: one index probe (random I/O) per overlapping run, plus a
    /// sequential read of each non-empty page slice. No store lock is
    /// held while decoding — concurrent recoveries don't serialize here.
    pub fn page_history(
        &self,
        page: PageId,
        after: Lsn,
        through: Lsn,
    ) -> Result<Vec<(Lsn, LogRecord)>, ArchiveError> {
        let runs = self.snapshot_runs();
        let mut out = Vec::new();
        for run in &runs {
            let (start, end) = run.window();
            if end.0 <= after.0 || start.0 > through.0 {
                continue;
            }
            // Index probe: one random I/O into the run.
            self.clock.advance(self.cost.cost(IoKind::RandomRead, 4096));
            let (count, slice_bytes) = run.page_slice_size(page);
            if count == 0 {
                continue;
            }
            // The page's contiguous slice: one sequential read.
            self.clock
                .advance(self.cost.cost(IoKind::SequentialRead, slice_bytes));
            for (lsn, record) in run.records_for_page(page)? {
                if lsn > after && lsn <= through {
                    out.push((lsn, record));
                }
            }
        }
        // Run windows are disjoint, but levels interleave them: one cheap
        // in-memory sort restores global replay order.
        out.sort_by_key(|(lsn, _)| *lsn);
        let mut inner = self.inner.lock();
        inner.stats.page_queries += 1;
        inner.stats.records_served += out.len() as u64;
        Ok(out)
    }

    /// Point lookup: the archived record of `page` at exactly `lsn`
    /// (used for backup references below the WAL truncation point).
    pub fn find_record(&self, page: PageId, lsn: Lsn) -> Result<Option<LogRecord>, ArchiveError> {
        self.inner.lock().stats.find_queries += 1;
        for run in self.snapshot_runs() {
            let (start, end) = run.window();
            if lsn < start || lsn >= end {
                continue;
            }
            // Windows are pairwise disjoint: this is the only run that
            // can hold the LSN — answer from it, hit or miss.
            self.clock.advance(self.cost.cost(IoKind::RandomRead, 4096));
            let (count, slice_bytes) = run.page_slice_size(page);
            if count == 0 {
                return Ok(None);
            }
            self.clock
                .advance(self.cost.cost(IoKind::SequentialRead, slice_bytes));
            return Ok(run
                .records_for_page(page)?
                .into_iter()
                .find(|(l, _)| *l == lsn)
                .map(|(_, record)| record));
        }
        Ok(None)
    }

    /// Reads the record at `lsn` from the live WAL, falling back to this
    /// archive when the WAL answers `Truncated` — the fallback that keeps
    /// single-page recovery's in-log backup sources valid across
    /// truncation.
    pub fn read_log_or_archive(
        &self,
        log: &spf_wal::LogManager,
        page: PageId,
        lsn: Lsn,
    ) -> Result<LogRecord, ArchiveError> {
        match log.read_record(lsn) {
            Ok(record) => Ok(record),
            Err(spf_wal::LogError::Truncated { .. }) => self
                .find_record(page, lsn)?
                .ok_or(ArchiveError::MissingRecord { page: page.0, lsn }),
            Err(e) => Err(ArchiveError::WalScan {
                detail: e.to_string(),
            }),
        }
    }

    /// Replays every archived record with `from <= LSN < below` through
    /// `f`, in global LSN order, charging one sequential read per run
    /// touched. Returns the number of records delivered. The store lock
    /// is not held across decoding or `f` (which may do device I/O).
    pub fn replay_lsn_order(
        &self,
        from: Lsn,
        below: Lsn,
        mut f: impl FnMut(Lsn, &LogRecord),
    ) -> Result<u64, ArchiveError> {
        // Windows are pairwise disjoint: visiting runs in window order
        // and each run's records in LSN order is global LSN order.
        let mut runs = self.snapshot_runs();
        runs.sort_by_key(|r| r.window().0);
        let mut delivered = 0u64;
        let mut bytes_read = 0u64;
        for run in &runs {
            let (start, end) = run.window();
            if end <= from || start >= below {
                continue;
            }
            self.clock
                .advance(self.cost.cost(IoKind::SequentialRead, run.encoded_len()));
            bytes_read += run.encoded_len() as u64;
            let mut records = run.decode_all()?;
            records.sort_by_key(|(lsn, _)| *lsn);
            for (lsn, record) in &records {
                if *lsn >= from && *lsn < below {
                    f(*lsn, record);
                    delivered += 1;
                }
            }
        }
        let mut inner = self.inner.lock();
        inner.stats.replays += 1;
        inner.stats.bytes_replayed += bytes_read;
        Ok(delivered)
    }

    /// Statistics snapshot (live-run figures computed at call time).
    #[must_use]
    pub fn stats(&self) -> ArchiveStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        stats.live_runs = inner.levels.iter().map(Vec::len).sum::<usize>() as u64;
        stats.live_bytes = inner
            .levels
            .iter()
            .flatten()
            .map(|r| r.encoded_len() as u64)
            .sum();
        stats.archived_through = inner.archived_through;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use spf_wal::{LogPayload, PageOp, TxId};

    fn rec(page: u64, lsn: u64) -> (Lsn, LogRecord) {
        (
            Lsn(lsn),
            LogRecord {
                tx_id: TxId(1),
                prev_tx_lsn: Lsn::NULL,
                page_id: PageId(page),
                prev_page_lsn: Lsn::NULL,
                payload: LogPayload::Update {
                    op: PageOp::SetGhost {
                        pos: 0,
                        key: Vec::new(),
                        old: false,
                        new: true,
                    },
                },
            },
        )
    }

    fn run_of(store: &ArchiveStore, records: &[(Lsn, LogRecord)], window: (u64, u64)) {
        let mut b = RunBuilder::new();
        for (lsn, r) in records {
            b.push(*lsn, r.clone());
        }
        let run = b.finish(store.allocate_run_id(), Lsn(window.0), Lsn(window.1));
        store.append_run(run).unwrap();
    }

    #[test]
    fn page_history_spans_runs_in_lsn_order() {
        let store = ArchiveStore::for_testing();
        run_of(&store, &[rec(1, 10), rec(2, 20)], (8, 30));
        run_of(&store, &[rec(1, 40), rec(1, 50)], (30, 60));
        let hist = store.page_history(PageId(1), Lsn(10), Lsn(50)).unwrap();
        assert_eq!(
            hist.iter().map(|(l, _)| l.0).collect::<Vec<_>>(),
            vec![40, 50],
            "after-bound exclusive, through-bound inclusive"
        );
        let all = store.page_history(PageId(1), Lsn::NULL, Lsn(1000)).unwrap();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        let stats = store.stats();
        assert_eq!(stats.page_queries, 2);
        assert_eq!(stats.records_served, 5);
    }

    #[test]
    fn leveled_merge_caps_run_count() {
        let store = ArchiveStore::new(
            Arc::new(SimClock::new()),
            IoCostModel::free(),
            MergePolicy { fanout: 2 },
        );
        let mut lsn = 8;
        for i in 0..8u64 {
            run_of(&store, &[rec(i % 3, lsn)], (lsn, lsn + 10));
            lsn += 10;
        }
        let counts = store.level_run_counts();
        assert!(
            counts.iter().all(|&c| c < 2),
            "every level stays under the fanout: {counts:?}"
        );
        let stats = store.stats();
        assert!(stats.merges >= 4, "cascading merges happened");
        // Nothing lost: all 8 records still reachable, still ordered.
        let all = store
            .page_history(PageId(0), Lsn::NULL, Lsn(1000))
            .unwrap()
            .len()
            + store
                .page_history(PageId(1), Lsn::NULL, Lsn(1000))
                .unwrap()
                .len()
            + store
                .page_history(PageId(2), Lsn::NULL, Lsn(1000))
                .unwrap()
                .len();
        assert_eq!(all, 8);
    }

    #[test]
    fn commit_drain_admits_exactly_one_racing_drain() {
        let store = ArchiveStore::for_testing();
        let build = |id: u64| {
            let mut b = RunBuilder::new();
            let (lsn, record) = rec(1, 10);
            b.push(lsn, record);
            b.finish(id, Lsn(8), Lsn(100))
        };
        // Two drains both computed from the initial watermark; the
        // second must be rejected, not installed as a duplicate window.
        let first = store.allocate_run_id();
        let second = store.allocate_run_id();
        assert!(store
            .commit_drain(Lsn::NULL, Lsn(100), Some(build(first)))
            .unwrap());
        assert!(!store
            .commit_drain(Lsn::NULL, Lsn(100), Some(build(second)))
            .unwrap());
        assert_eq!(store.stats().runs_written, 1);
        assert_eq!(store.archived_through(), Lsn(100));
        assert_eq!(
            store
                .page_history(PageId(1), Lsn::NULL, Lsn(1000))
                .unwrap()
                .len(),
            1,
            "no duplicated records from the losing drain"
        );
        // The next well-formed drain continues from the new watermark.
        let mut b = RunBuilder::new();
        let (lsn, record) = rec(2, 150);
        b.push(lsn, record);
        let next = b.finish(store.allocate_run_id(), Lsn(100), Lsn(200));
        assert!(store.commit_drain(Lsn(100), Lsn(200), Some(next)).unwrap());
        assert_eq!(store.archived_through(), Lsn(200));
    }

    #[test]
    fn find_record_and_replay() {
        let store = ArchiveStore::for_testing();
        run_of(&store, &[rec(1, 10), rec(2, 20)], (8, 30));
        run_of(&store, &[rec(3, 40)], (30, 60));
        assert!(store.find_record(PageId(2), Lsn(20)).unwrap().is_some());
        assert!(store.find_record(PageId(2), Lsn(21)).unwrap().is_none());
        assert!(store.find_record(PageId(9), Lsn(20)).unwrap().is_none());

        let mut seen = Vec::new();
        let n = store
            .replay_lsn_order(Lsn(10), Lsn(40), |lsn, _| seen.push(lsn.0))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            seen,
            vec![10, 20],
            "global LSN order, below-bound exclusive"
        );
    }

    #[test]
    fn io_is_charged_to_the_clock() {
        let clock = Arc::new(SimClock::new());
        let store = ArchiveStore::new(
            Arc::clone(&clock),
            IoCostModel::disk_2012(),
            MergePolicy::disabled(),
        );
        let records: Vec<_> = (0..100).map(|i| rec(i % 5, 8 + i * 10)).collect();
        let t0 = clock.now();
        run_of(&store, &records, (8, 2000));
        assert!(clock.now() > t0, "writing a run costs simulated time");
        let t1 = clock.now();
        store.page_history(PageId(3), Lsn::NULL, Lsn(5000)).unwrap();
        let query_time = clock.now() - t1;
        assert!(query_time.as_nanos() > 0);
        // One probe + one slice read: far cheaper than 20 random reads.
        let twenty_random = {
            let c = IoCostModel::disk_2012();
            spf_util::SimDuration::from_nanos(
                c.cost(spf_util::IoKind::RandomRead, 4096).as_nanos() * 20,
            )
        };
        assert!(
            query_time < twenty_random,
            "indexed sequential access beats per-record random reads"
        );
    }
}
