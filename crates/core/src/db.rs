//! The [`Database`] façade: substrate wiring, transactional KV API,
//! failure injection, and the four recovery paths.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use spf_archive::{ArchiveReport, ArchiveStore, LogArchiver, MergePolicy};
use spf_btree::{BTreeError, BumpAllocator, FosterBTree, KvPairs, PageAllocator};
use spf_buffer::{BufferPool, BufferPoolConfig, FetchError, PoolHooks, RepairOutcome};
use spf_obs::{MetricsSnapshot, Obs, SpanKind, Stitched, TraceCtx};
use spf_prefetch::{AccessObserver, GovernorConfig, IoGovernor, Prefetcher};
use spf_recovery::{
    BackupStore, CheckpointImage, MediaRecovery, MediaReport, PageRecoveryIndex, PriMaintainer,
    RestartReport, SinglePageRecovery, SystemRecovery,
};
use spf_scrub::{ScanExtent, ScrubCycleReport, Scrubber};
use spf_storage::{Device, FaultSpec, MirrorPair, Page, PageId, PageType, StorageDevice};
use spf_txn::{LockTable, TxKind, TxnManager};
use spf_util::{IoCostModel, SimClock};
use spf_wal::{BackupRef, LogManager, LogPayload, LogRecord, Lsn, TxId, WalFiles};

use crate::config::DatabaseConfig;
use crate::error::DbError;
use crate::manifest::Manifest;
use crate::stats::DbStats;

/// File name of the primary data device inside a database directory.
const DATA_FILE: &str = "data.dat";
/// File name of the synchronous mirror device.
const MIRROR_FILE: &str = "mirror.dat";
/// File name of the backup-page device.
const BACKUP_FILE: &str = "backup.dat";
/// Subdirectory holding the numbered WAL segments.
const WAL_DIR: &str = "wal";
/// Subdirectory holding the archive's run files.
const ARCHIVE_DIR: &str = "archive";
/// Initial capacity (pages) of the backup device.
const BACKUP_PAGES: u64 = 256;

/// The database engine. All substrate handles are shared; `Database`
/// itself is not `Clone` (one façade per engine).
pub struct Database {
    config: DatabaseConfig,
    clock: Arc<SimClock>,
    device: Device,
    mirror: Option<Device>,
    path: Option<PathBuf>,
    log: LogManager,
    pool: BufferPool,
    txn: TxnManager,
    locks: LockTable,
    alloc: Arc<BumpAllocator>,
    pri: Arc<PageRecoveryIndex>,
    backups: Arc<BackupStore>,
    maintainer: Arc<PriMaintainer>,
    spr: Option<Arc<SinglePageRecovery>>,
    archive: Option<Arc<ArchiveStore>>,
    archiver: Option<LogArchiver>,
    tree: Arc<FosterBTree>,
    last_full_backup: Mutex<Option<(PageId, Lsn)>>,
    scrubber: Option<Arc<Scrubber>>,
    scrub_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    governor: Arc<IoGovernor>,
    prefetcher: Option<Arc<Prefetcher>>,
    prefetch_thread: Mutex<Option<PrefetchThread>>,
    /// The last restart's report (the `restart` metrics group).
    last_restart: Arc<Mutex<RestartReport>>,
}

/// Handle of the running prefetch-poll thread plus its private stop
/// flag (the prefetcher itself is stateless about threading).
struct PrefetchThread {
    handle: std::thread::JoinHandle<()>,
    stop: Arc<std::sync::atomic::AtomicBool>,
}

/// Adapts the B-tree allocator's high-water mark as the scrubber's scan
/// extent: the sweep covers exactly the pages ever allocated, so
/// never-formatted (all-zero) tail pages don't read as corrupt.
struct AllocExtent(Arc<BumpAllocator>);

impl ScanExtent for AllocExtent {
    fn allocated_pages(&self) -> u64 {
        self.0.high_water()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("pages", &self.config.data_pages)
            .field("spf", &self.config.single_page_recovery)
            .finish()
    }
}

const ROOT: PageId = PageId(0);

/// Cheap clones of every statistics source, detached from the façade so
/// the black-box arm (stored inside [`Obs`]) can snapshot at panic time.
/// The log it holds owns that `Obs`: the arm is a reference cycle for as
/// long as it is armed, which `Database`'s `Drop` ends by disarming.
struct MetricsSources {
    pool: BufferPool,
    log: LogManager,
    txn: TxnManager,
    tree: Arc<FosterBTree>,
    spr: Option<Arc<SinglePageRecovery>>,
    pri: Arc<PageRecoveryIndex>,
    backups: Arc<BackupStore>,
    maintainer: Arc<PriMaintainer>,
    device: Device,
    mirror: Option<Device>,
    archive: Option<Arc<ArchiveStore>>,
    scrubber: Option<Arc<Scrubber>>,
    prefetcher: Option<Arc<Prefetcher>>,
    governor: Arc<IoGovernor>,
    last_restart: Arc<Mutex<RestartReport>>,
}

impl MetricsSources {
    /// Flattens every subsystem's statistics into one hierarchical
    /// metrics snapshot with JSON and Prometheus-text exposition.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.add("pool", &self.pool.stats());
        snap.add("wal", &self.log.stats());
        snap.add("txn", &self.txn.stats());
        snap.add("tree", &self.tree.stats());
        snap.add(
            "spf",
            &self.spr.as_ref().map(|s| s.stats()).unwrap_or_default(),
        );
        snap.add("pri", &self.pri.stats());
        snap.add("backups", &self.backups.stats());
        snap.add("maintainer", &self.maintainer.stats());
        snap.add("device", &self.device.stats());
        if let Some(m) = &self.mirror {
            snap.add("mirror_device", &m.stats());
        }
        snap.add("backup_device", &self.backups.device().stats());
        snap.add(
            "archive",
            &self.archive.as_ref().map(|a| a.stats()).unwrap_or_default(),
        );
        snap.add(
            "scrub",
            &self
                .scrubber
                .as_ref()
                .map(|s| s.stats())
                .unwrap_or_default(),
        );
        snap.add(
            "prefetch",
            &self
                .prefetcher
                .as_ref()
                .map(|p| p.stats())
                .unwrap_or_default(),
        );
        snap.add("governor", &self.governor.stats());
        snap.add("restart", &*self.last_restart.lock());
        let obs = self.log.obs();
        snap.add("latency", obs.spans());
        snap.add("trace", &obs.tracer().stats());
        snap
    }
}

/// Everything [`Database::assemble`] needs that differs between the
/// in-memory, fresh-directory, and reopened-directory constructors.
struct Parts {
    config: DatabaseConfig,
    clock: Arc<SimClock>,
    device: Device,
    mirror: Option<Device>,
    backups: Arc<BackupStore>,
    log: LogManager,
    archive: Option<Arc<ArchiveStore>>,
    path: Option<PathBuf>,
}

impl Database {
    /// Creates a fresh in-memory database per `config` (the simulated
    /// substrate every experiment uses).
    pub fn create(config: DatabaseConfig) -> Result<Self, DbError> {
        let clock = Arc::new(SimClock::new());
        let (device, mirror, backup_device) = Self::devices(&config, |_, pages, seed| {
            Ok(Device::ram(
                config.page_size,
                pages,
                Arc::clone(&clock),
                config.io_cost,
                seed,
            ))
        })?;
        let log = LogManager::new(
            Arc::clone(&clock),
            config.io_cost,
            Self::new_obs(&config, &clock),
            None,
        );
        let archive = config
            .archive
            .enabled
            .then(|| Arc::new(Self::new_archive(&config, &clock)));
        Self::assemble(
            Parts {
                config,
                clock,
                device,
                mirror,
                backups: Arc::new(BackupStore::new(backup_device)),
                log,
                archive,
                path: None,
            },
            true,
        )
    }

    /// Creates a fresh **file-backed** database in directory `path`:
    /// page-aligned data (and optional mirror) files, numbered WAL
    /// segments, archive run files, and a CRC-guarded manifest. Reopen
    /// it later — after a clean close *or* an abrupt kill — with
    /// [`Database::open`].
    pub fn create_at(config: DatabaseConfig, path: &Path) -> Result<Self, DbError> {
        std::fs::create_dir_all(path).map_err(|e| Self::dir_err(path, &e))?;
        let clock = Arc::new(SimClock::new());
        let cost = Self::file_io_cost(&config);
        let (device, mirror, backup_device) = Self::devices(&config, |name, pages, seed| {
            let file = path.join(name);
            Device::create_file(
                &file,
                config.page_size,
                pages,
                Arc::clone(&clock),
                cost,
                seed,
            )
            .map_err(|e| DbError::RecoveryFailed(e.to_string()))
        })?;
        let files = WalFiles::create(&path.join(WAL_DIR), Lsn::FIRST.0)
            .map_err(|e| Self::dir_err(path, &e))?;
        // The log is born with its sink, so even the tree-format records
        // of the creation transaction are durable.
        let log = LogManager::new(
            Arc::clone(&clock),
            config.io_cost,
            Self::new_obs(&config, &clock),
            Some(Arc::new(files)),
        );
        let archive = match config.archive.enabled {
            true => {
                let store = Self::new_archive(&config, &clock);
                store
                    .set_dir(&path.join(ARCHIVE_DIR))
                    .map_err(|e| DbError::RecoveryFailed(e.to_string()))?;
                Some(Arc::new(store))
            }
            false => None,
        };
        let db = Self::assemble(
            Parts {
                config,
                clock,
                device,
                mirror,
                backups: Arc::new(BackupStore::new(backup_device)),
                log,
                archive,
                path: Some(path.to_path_buf()),
            },
            true,
        )?;
        db.persist_manifest()?;
        Ok(db)
    }

    /// Opens an existing file-backed database directory and runs restart
    /// (system) recovery: the manifest supplies the geometry, the WAL
    /// segments are streamed in to find the durable prefix (a torn tail
    /// from a mid-write kill is detected by checksum and discarded), and
    /// ARIES-style analysis from the last checkpoint image, redo and undo
    /// rebuild the caches. Committed transactions survive; incomplete
    /// ones are rolled back. If recovery itself fails, a black box is
    /// left in the directory before the error is returned.
    ///
    /// `config` supplies the *policy* knobs (pool size, verification,
    /// scrubbing, archive fanout…); the manifest overrides the
    /// *identity* fields: page size, device capacity, injector seed, and
    /// mirroring.
    pub fn open(path: &Path, mut config: DatabaseConfig) -> Result<Self, DbError> {
        let manifest =
            Manifest::load(path).map_err(|e| DbError::RecoveryFailed(format!("open: {e}")))?;
        // Keep the previous incarnation's black box (clean shutdown or
        // crash forensics) out of this run's way: rotate it aside before
        // the engine arms a fresh one. Best-effort — a read-only rename
        // failure must not block recovery.
        let _ = Obs::rotate_blackbox(path);
        config.page_size = manifest.page_size;
        config.data_pages = manifest.data_pages;
        config.seed = manifest.seed;
        config.mirror = manifest.mirror;

        let clock = Arc::new(SimClock::new());
        let cost = Self::file_io_cost(&config);
        let (device, mirror, backup_device) = Self::devices(&config, |name, _, seed| {
            let file = path.join(name);
            Device::open_file(&file, config.page_size, Arc::clone(&clock), cost, seed)
                .map_err(|e| DbError::RecoveryFailed(e.to_string()))
        })?;

        // The restored log comes back with its torn tail trimmed and its
        // sink armed: restart itself appends (undo compensation, PRI
        // maintenance) and forces, as durably as any foreground update.
        let obs = Self::new_obs(&config, &clock);
        let restore = Instant::now();
        let log = WalFiles::open(&path.join(WAL_DIR)).and_then(|files| {
            LogManager::restore(Arc::clone(&clock), config.io_cost, Arc::clone(&obs), files)
        });
        let log = match log {
            Ok(log) => log,
            Err(e) => {
                let err = Self::dir_err(path, &e);
                // Nothing is assembled yet to snapshot: the black box
                // carries the flight recorder and the reason alone.
                obs.arm_blackbox(path.to_path_buf(), Box::new(|| "{}".to_string()));
                obs.write_blackbox(&format!("open failed restoring the WAL: {err}"));
                obs.disarm_blackbox();
                return Err(err);
            }
        };
        let restore_ns = u64::try_from(restore.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let restored_bytes = log.total_bytes();
        log.set_archive_watermark(manifest.archived_through);

        let archive = match config.archive.enabled {
            true => Some(Arc::new(
                ArchiveStore::load(
                    Arc::clone(&clock),
                    config.io_cost,
                    MergePolicy {
                        fanout: config.archive.merge_fanout,
                    },
                    &path.join(ARCHIVE_DIR),
                )
                .map_err(|e| DbError::RecoveryFailed(e.to_string()))?,
            )),
            false => None,
        };
        if let Some(store) = &archive {
            store.note_archived_through(manifest.archived_through);
        }

        // The backup free list is volatile: allocation resumes past the
        // device until restart has recovered which slots are still named.
        let backups = Arc::new(BackupStore::reopened(backup_device));

        let db = Self::assemble(
            Parts {
                config,
                clock,
                device,
                mirror,
                backups,
                log,
                archive,
                path: Some(path.to_path_buf()),
            },
            false,
        )?;
        // Restart's log analysis re-discovers allocated pages, but the
        // manifest's high-water mark is the durable backstop (pages
        // formatted before the last truncation have no log records
        // left).
        if manifest.alloc_high_water > 0 {
            db.alloc
                .note_allocated(PageId(manifest.alloc_high_water - 1));
        }
        *db.last_full_backup.lock() = manifest
            .last_full_backup
            .map(|(slot, lsn)| (PageId(slot), lsn));
        if let Err(e) = db.restart() {
            db.obs()
                .write_blackbox(&format!("open failed in restart recovery: {e}"));
            return Err(e);
        }
        {
            let mut report = db.last_restart.lock();
            report.restore_ns = restore_ns;
            report.restored_bytes = restored_bytes;
        }
        db.reclaim_backup_slots();
        Ok(db)
    }

    /// Rebuilds the backup store's free list after a reopen: a slot is
    /// free unless the recovered page recovery index names it, or it
    /// belongs to the last full backup media recovery would restore.
    fn reclaim_backup_slots(&self) {
        let mut slots = std::collections::HashSet::new();
        let mut ranges = Vec::new();
        for (_, _, entry) in self.pri.dump() {
            match entry.backup {
                BackupRef::BackupPage(slot) => {
                    slots.insert(slot.0);
                }
                BackupRef::FullBackup { first_slot, pages } => {
                    ranges.push(first_slot..first_slot.saturating_add(pages));
                }
                _ => {}
            }
        }
        if let Some((first, _)) = *self.last_full_backup.lock() {
            ranges.push(first.0..first.0.saturating_add(self.config.data_pages));
        }
        self.backups
            .reclaim_after_restart(|s| slots.contains(&s) || ranges.iter().any(|r| r.contains(&s)));
    }

    /// Cleanly shuts a file-backed database down: checkpoint, flush,
    /// sync every device, persist the manifest. Reopening after `close`
    /// finds an empty redo/undo workload. (Dropping without `close` is
    /// crash-equivalent — still recoverable, just through restart
    /// recovery.)
    pub fn close(self) -> Result<(), DbError> {
        self.stop_scrubber();
        self.stop_prefetcher();
        self.checkpoint()?;
        self.pool
            .flush_all()
            .map_err(|e| self.escalate(None, e.to_string()))?;
        self.device
            .sync()
            .map_err(|e| self.escalate(None, e.to_string()))?;
        if let Some(m) = &self.mirror {
            m.sync().map_err(|e| self.escalate(None, e.to_string()))?;
        }
        self.backups
            .device()
            .sync()
            .map_err(|e| self.escalate(None, e.to_string()))?;
        self.persist_manifest()?;
        // The shutdown black box: the same capture a panic would take,
        // labelled clean — so "was the last run healthy?" is answerable
        // from the directory alone.
        self.obs().write_blackbox("clean shutdown");
        Ok(())
    }

    /// The engine's one observability handle, built before anything
    /// else so the log can own it and every later subsystem can read it
    /// from there. It is always present; `config.obs` gates the
    /// per-event hot path.
    fn new_obs(config: &DatabaseConfig, clock: &Arc<SimClock>) -> Arc<Obs> {
        let obs = Arc::new(Obs::new(Arc::clone(clock), config.obs));
        obs.set_trace_sampling(config.trace_sample_every);
        obs
    }

    fn new_archive(config: &DatabaseConfig, clock: &Arc<SimClock>) -> ArchiveStore {
        ArchiveStore::new(
            Arc::clone(clock),
            config.io_cost,
            MergePolicy {
                fanout: config.archive.merge_fanout,
            },
        )
    }

    /// The data device, the mirror (when configured) and the backup
    /// device, each made by `make(file name, capacity in pages, fault
    /// injector seed)`.
    fn devices(
        config: &DatabaseConfig,
        make: impl Fn(&str, u64, u64) -> Result<Device, DbError>,
    ) -> Result<(Device, Option<Device>, Device), DbError> {
        let data = make(DATA_FILE, config.data_pages, config.seed)?;
        let mirror = match config.mirror {
            true => Some(make(
                MIRROR_FILE,
                config.data_pages,
                config.seed.wrapping_add(2),
            )?),
            false => None,
        };
        let backup = make(BACKUP_FILE, BACKUP_PAGES, config.seed.wrapping_add(1))?;
        Ok((data, mirror, backup))
    }

    /// The cost model file devices charge: none with `wall_clock_io`,
    /// where the real device's latency is the measurement.
    fn file_io_cost(config: &DatabaseConfig) -> IoCostModel {
        match config.wall_clock_io {
            true => IoCostModel::free(),
            false => config.io_cost,
        }
    }

    fn dir_err(path: &Path, e: &dyn std::fmt::Display) -> DbError {
        DbError::RecoveryFailed(format!("database directory {}: {e}", path.display()))
    }

    /// Shared constructor: wires the substrate together. With `fresh`
    /// the B-tree root is formatted (and logged); otherwise the tree is
    /// merely re-attached and the caller runs restart recovery.
    fn assemble(parts: Parts, fresh: bool) -> Result<Self, DbError> {
        let Parts {
            config,
            clock,
            device,
            mirror,
            backups,
            log,
            archive,
            path,
        } = parts;
        // Mirrored writes are synchronous (Section 5.2.2): the pool
        // writes through a pair that duplicates every write and sync
        // onto the mirror device, while reads stay on the primary.
        let pool_device: Arc<dyn StorageDevice> = match &mirror {
            Some(m) => Arc::new(MirrorPair::new(device.clone(), m.clone())),
            None => Arc::new(device.clone()),
        };
        // The log owns the observability handle; the transaction manager,
        // pool and tree read it from there, so all of them are traced
        // from their first operation (tree formatting below included).
        let obs = log.obs();
        let txn = TxnManager::new(log.clone());
        let alloc = Arc::new(BumpAllocator::new(0, config.data_pages));
        let pri = Arc::new(PageRecoveryIndex::new());
        let maintainer = Arc::new(PriMaintainer::new(
            Arc::clone(&pri),
            log.clone(),
            Arc::clone(&backups),
            config.backup_policy,
        ));

        let archiver = archive
            .as_ref()
            .map(|store| LogArchiver::new(log.clone(), Arc::clone(store)));

        let spr = config.single_page_recovery.then(|| {
            let mut spr = SinglePageRecovery::new(
                Arc::clone(&pri),
                log.clone(),
                Arc::clone(&backups),
                device.clone(),
            );
            if let Some(store) = &archive {
                spr = spr.with_archive(Arc::clone(store));
            }
            if let Some(m) = &mirror {
                spr = spr.with_mirror(m.clone());
            }
            Arc::new(spr)
        });

        // The pool's collaborators need no pool themselves, so they are
        // built first and the pool is born fully wired: the paper's
        // cross-check, backup policy and inline repair exist only with
        // single-page recovery on.
        let pool = BufferPool::with_hooks(
            BufferPoolConfig {
                frames: config.pool_frames,
            },
            pool_device,
            log.clone(),
            PoolHooks {
                validator: spr.as_ref().map(|_| Arc::clone(&maintainer) as _),
                observer: spr.as_ref().map(|_| Arc::clone(&maintainer) as _),
                recoverer: spr.clone().map(|s| s as _),
            },
        );

        // One background-I/O budget for scrubber and prefetcher alike,
        // derived from the scrub pacing knobs (the pre-governor rate).
        // The bucket starts with one burst: that is what lets the
        // prefetcher do bounded work even in configurations whose
        // devices charge no simulated time (the free cost model), where
        // rate-based refill alone would never accrue budget.
        let governor = Arc::new(IoGovernor::new(
            GovernorConfig::from_scrub(config.scrub.pages_per_tick, config.scrub.tick_idle),
            Arc::clone(&clock),
            Arc::clone(obs),
        ));

        let scrubber = config.scrub.enabled.then(|| {
            Arc::new(Scrubber::new(
                config.single_device_node,
                device.clone(),
                pool.clone(),
                Arc::clone(&pri),
                Arc::new(AllocExtent(Arc::clone(&alloc))),
                Arc::clone(&governor),
                Arc::clone(obs),
            ))
        });

        let prefetcher = config.prefetch.enabled.then(|| {
            let p = Arc::new(Prefetcher::new(
                config.prefetch,
                pool.clone(),
                Arc::clone(&governor),
                config.data_pages,
            ));
            // Weak: the prefetcher holds a clone of the pool, so a strong
            // reference back would leak both when the database is dropped.
            pool.set_access_observer(Arc::downgrade(&p) as Weak<dyn AccessObserver>);
            p
        });

        let tree = if fresh {
            let root = alloc.allocate().expect("device has capacity");
            debug_assert_eq!(root, ROOT);
            let tree = FosterBTree::create(
                pool.clone(),
                txn.clone(),
                Arc::clone(&alloc) as Arc<dyn PageAllocator>,
                root,
                config.page_size,
                config.verify_mode,
            )
            .map_err(DbError::Tree)?;
            log.force();
            tree
        } else {
            FosterBTree::open(
                pool.clone(),
                txn.clone(),
                Arc::clone(&alloc) as Arc<dyn PageAllocator>,
                ROOT,
                config.page_size,
                config.verify_mode,
            )
        };
        let tree = Arc::new(tree);

        let db = Self {
            config,
            clock,
            device,
            mirror,
            path,
            log,
            pool,
            txn,
            locks: LockTable::new(),
            alloc,
            pri,
            backups,
            maintainer,
            spr,
            archive,
            archiver,
            tree,
            last_full_backup: Mutex::new(None),
            scrubber,
            scrub_thread: Mutex::new(None),
            governor,
            prefetcher,
            prefetch_thread: Mutex::new(None),
            last_restart: Arc::new(Mutex::new(RestartReport::default())),
        };
        // File-backed engines arm black-box capture: a panic (with the
        // hook installed) or a clean close persists the flight recorder,
        // open trace rings, and a metrics snapshot next to the data. The
        // closure holds its own subsystem handles, which hold `Obs`:
        // `Drop` disarms it, or the engine would never be freed.
        if let Some(dir) = db.path.clone() {
            let sources = db.metrics_sources();
            db.obs()
                .arm_blackbox(dir, Box::new(move || sources.snapshot().to_json()));
        }
        Ok(db)
    }

    /// Writes the manifest durably (create–rename–fsync). A no-op for
    /// in-memory databases.
    fn persist_manifest(&self) -> Result<(), DbError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let manifest = Manifest {
            page_size: self.config.page_size,
            data_pages: self.config.data_pages,
            seed: self.config.seed,
            mirror: self.mirror.is_some(),
            archived_through: self.log.archive_watermark(),
            alloc_high_water: self.alloc.high_water(),
            last_full_backup: self
                .last_full_backup
                .lock()
                .map(|(slot, lsn)| (slot.0, lsn)),
        };
        manifest
            .save(path)
            .map_err(|e| DbError::RecoveryFailed(format!("manifest save failed: {e}")))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begins a user transaction.
    pub fn begin(&self) -> TxId {
        self.txn.begin(TxKind::User)
    }

    /// Commits `tx` (forces the log — durability).
    ///
    /// The key locks go only once the commit record exists — whether or
    /// not that succeeded: releasing first would let a second writer
    /// update a key whose first writer can still fail to commit.
    pub fn commit(&self, tx: TxId) -> Result<Lsn, DbError> {
        let committed = self.txn.commit(tx, TraceCtx::NONE);
        self.locks.release_all(tx);
        Ok(committed?)
    }

    /// Rolls `tx` back through the per-transaction log chain. Its key
    /// locks are held until the last physical inverse is applied (or the
    /// rollback failed): a writer let in earlier would have its update
    /// overwritten by the undo.
    pub fn abort(&self, tx: TxId) -> Result<Lsn, DbError> {
        let aborted = self.txn.abort(tx, &*self.tree);
        self.locks.release_all(tx);
        Ok(aborted?)
    }

    fn lock_key(&self, tx: TxId, key: &[u8]) -> Result<(), DbError> {
        Ok(self.locks.lock(tx, u64::from(spf_util::crc32c(key)))?)
    }

    // ------------------------------------------------------------------
    // Key/value operations
    // ------------------------------------------------------------------

    /// Inserts or replaces `key → value`; returns the previous value.
    pub fn put(&self, tx: TxId, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.lock_key(tx, key)?;
        self.with_repair(TraceCtx::NONE, || {
            self.tree.upsert(tx, key, value, TraceCtx::NONE)
        })
    }

    /// Inserts `key → value`; duplicate keys are an error.
    pub fn insert(&self, tx: TxId, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.lock_key(tx, key)?;
        self.with_repair(TraceCtx::NONE, || self.tree.insert(tx, key, value))
    }

    /// Deletes `key`, returning its value.
    pub fn delete(&self, tx: TxId, key: &[u8]) -> Result<Vec<u8>, DbError> {
        self.lock_key(tx, key)?;
        self.with_repair(TraceCtx::NONE, || self.tree.delete(tx, key))
    }

    /// Looks up `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.with_repair(TraceCtx::NONE, || self.tree.get(key))
    }

    /// Range scan: up to `limit` live records with key ≥ `start`.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<KvPairs, DbError> {
        self.with_repair(TraceCtx::NONE, || self.tree.scan(start, limit))
    }

    /// Convenience: single-op transaction around `put`.
    ///
    /// Safe to call from many threads over one shared `&Database`: the
    /// key lock admits one writer per key at a time — a second one is
    /// refused with [`DbError::Locked`], not queued (see `spf-txn`'s
    /// lock table) — the tree's latch-crabbed descent handles concurrent
    /// restructures, and the WAL's reservation append keeps LSNs dense
    /// under concurrent commits (experiment e18 drives exactly this path
    /// from N threads).
    pub fn put_auto(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        // The causal-tracing entry point: one in `trace_sample_every`
        // calls roots a trace tree here, and the context rides by value
        // through descent, buffer faults, any inline repair, commit, and
        // the WAL force. The body is `put` then `commit`, under `ctx`.
        let obs = self.obs();
        let span = obs.span(obs.sample_trace(), SpanKind::PutAuto, 0);
        let ctx = span.ctx();
        let tx = self.begin();
        let put = self
            .lock_key(tx, key)
            .and_then(|()| self.with_repair(ctx, || self.tree.upsert(tx, key, value, ctx)));
        match put {
            Ok(old) => {
                let committed = self.txn.commit(tx, ctx);
                self.locks.release_all(tx);
                committed?;
                Ok(old)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Detection → repair → retry
    // ------------------------------------------------------------------

    /// Runs `f`, and when it reports a detected single-page failure
    /// (fence mismatch, node corruption, or an unrecovered fetch), has
    /// the pool repair the named page and retries — the paper's
    /// "instant, focused, localized recovery" with the transaction merely
    /// delayed (a `Repair` span under `ctx`). What cannot be repaired
    /// escalates per Figure 1.
    fn with_repair<T>(
        &self,
        ctx: TraceCtx,
        f: impl Fn() -> Result<T, BTreeError>,
    ) -> Result<T, DbError> {
        let mut repaired = None;
        for _ in 0..8 {
            let e = match f() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let Some(page) = e.detected_page() else {
                return Err(self.map_tree_error(e));
            };
            if self.spr.is_none() {
                // Figure 8: "a traditional system offers no choice but
                // declare a media failure."
                let reason = format!("unrepaired single-page failure at {page}: {e}");
                return Err(self.escalate(Some(page), reason));
            }
            if repaired == Some(page) {
                // Recovery did not clear the symptom; escalate rather
                // than loop.
                let reason = format!("single-page recovery of {page} did not resolve: {e}");
                return Err(self.escalate(Some(page), reason));
            }
            match self.pool.repair(page, ctx) {
                RepairOutcome::Repaired => repaired = Some(page),
                RepairOutcome::Busy => std::thread::yield_now(),
                RepairOutcome::Dirty => {
                    let reason = format!("{page} failed with unwritten updates: {e}");
                    return Err(self.escalate(Some(page), reason));
                }
                RepairOutcome::Failed(reason) => return Err(self.escalate(Some(page), reason)),
            }
        }
        Err(self.escalate(None, "repeated single-page failures".to_string()))
    }

    fn map_tree_error(&self, e: BTreeError) -> DbError {
        match e {
            BTreeError::Fetch(FetchError::MediaFailure { id, reason }) => {
                self.escalate(Some(id), reason)
            }
            other => DbError::Tree(other),
        }
    }

    /// A failure the engine cannot contain, escalated along Figure 1 for
    /// this node's shape ([`spf_recovery::escalate`]): the failed page,
    /// when known, is named in the event and the repair audit ledger,
    /// together with the flight-recorder window that led up to it.
    fn escalate(&self, page: Option<PageId>, reason: String) -> DbError {
        let class = spf_recovery::escalate(
            self.obs(),
            page,
            "engine",
            self.config.single_device_node,
            self.clock.now(),
        );
        DbError::Failure { class, reason }
    }

    // ------------------------------------------------------------------
    // Checkpoints, crash, restart
    // ------------------------------------------------------------------

    /// Fuzzy checkpoint (Section 5.2.6): records the active-transaction
    /// and dirty-page tables, writes back only the pages that were dirty
    /// when the checkpoint started, and saves the image restart analysis
    /// starts from (`spf_recovery::system_recovery` explains the order
    /// and why it is sound).
    pub fn checkpoint(&self) -> Result<Lsn, DbError> {
        // (1) The scan point, read with the transaction table.
        let (scan_from, active_txns) = self.txn.active_txns();
        // (2) The rest of the state every record below it touched.
        let dirty_pages = self.pool.settled_dirty_pages();
        let pri = self.pri.dump();
        let next_tx = self.txn.next_id();
        let alloc_high_water = self.alloc.high_water();
        // (3)
        let ids: Vec<PageId> = dirty_pages.iter().map(|(id, _)| *id).collect();
        let begin = self.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::CheckpointBegin {
                active_txns,
                dirty_pages,
            },
        });
        // (4)
        self.pool
            .flush_pages(&ids)
            .map_err(|e| self.escalate(None, e.to_string()))?;
        self.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::CheckpointEnd,
        });
        self.log.force();
        // (5)
        let image = CheckpointImage {
            scan_from,
            begin,
            next_tx,
            alloc_high_water,
            pri,
        };
        self.log
            .save_checkpoint_image(image.encode())
            .map_err(|e| DbError::RecoveryFailed(format!("checkpoint image save failed: {e}")))?;
        Ok(begin)
    }

    /// Simulates a system failure: the buffer pool and the unforced log
    /// tail vanish; locks and the active-transaction table are volatile.
    /// Call [`restart`](Database::restart) to recover. A running
    /// background scrubber is a server thread and "dies in the crash"
    /// too (it is stopped; a recovered server calls
    /// [`start_scrubber`](Database::start_scrubber) again) — it must
    /// not keep sweeping against the pre-crash page recovery index
    /// while restart rebuilds it, and its transient pins would trip the
    /// pool's discard assertions.
    pub fn crash(&self) -> Lsn {
        self.stop_scrubber();
        // The prefetch-poll thread dies in the crash too; its in-flight
        // installs would otherwise trip the discard's marker assertion.
        self.stop_prefetcher();
        self.pool.discard_all();
        self.locks.clear();
        self.maintainer.on_crash();
        self.log.crash()
    }

    /// Restart (system) recovery: analysis from the last checkpoint
    /// image, redo, undo — rebuilding the page recovery index and
    /// transaction table. The report is also kept as the `restart`
    /// metrics group.
    pub fn restart(&self) -> Result<RestartReport, DbError> {
        let alloc = Arc::clone(&self.alloc);
        let report = SystemRecovery::new(self.txn.clone(), self.pool.clone())
            .run(&self.pri, &move |p| alloc.note_allocated(p), &*self.tree)
            .map_err(DbError::RecoveryFailed)?;
        if !self.config.single_page_recovery {
            // A traditional engine has no PRI at all.
            self.pri.clear();
        }
        *self.last_restart.lock() = report.clone();
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Backups and media recovery
    // ------------------------------------------------------------------

    /// Takes a full database backup (after a checkpoint + flush, so the
    /// backup is consistent), registering it as one compressed range in
    /// the page recovery index.
    pub fn take_full_backup(&self) -> Result<Lsn, DbError> {
        self.checkpoint()?;
        self.pool
            .flush_all()
            .map_err(|e| self.escalate(None, e.to_string()))?;
        let first = self
            .backups
            .take_full_backup(&self.device, self.config.data_pages)
            .map_err(|e| self.escalate(None, e.to_string()))?;
        let horizon = self.log.force();
        let backup = BackupRef::FullBackup {
            first_slot: first.0,
            pages: self.config.data_pages,
        };
        // The index before its record, as everywhere (see the restart
        // invariant in `spf_recovery::system_recovery`).
        if self.config.single_page_recovery {
            self.pri
                .set_backup_range(PageId(0), PageId(self.config.data_pages), backup, horizon);
        }
        self.log.append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            payload: LogPayload::BackupTaken {
                backup,
                page_lsn: horizon,
            },
        });
        self.log.force();
        *self.last_full_backup.lock() = Some((first, horizon));
        // A file-backed database records the backup in its manifest so a
        // reopened process can still media-recover from it.
        self.persist_manifest()?;
        Ok(horizon)
    }

    /// Full media recovery: restores the last full backup onto the
    /// device, replays the log, and runs restart recovery. This is the
    /// *traditional* answer to a failed page — and the escalation target
    /// when single-page recovery is absent.
    pub fn media_recover(&self) -> Result<(MediaReport, RestartReport), DbError> {
        let (first, horizon) = self
            .last_full_backup
            .lock()
            .ok_or_else(|| DbError::RecoveryFailed("no full backup exists".to_string()))?;
        // A media failure takes the background scrubber and prefetcher
        // down with it (their transient pins and in-flight markers would
        // trip the discard below).
        self.stop_scrubber();
        self.stop_prefetcher();
        self.pool.discard_all();
        self.locks.clear();
        let mut media = MediaRecovery::new(self.log.clone());
        if let Some(store) = &self.archive {
            media = media.with_archive(Arc::clone(store));
        }
        let report = media
            .restore_device(
                &self.device,
                &self.backups,
                first,
                self.config.data_pages,
                horizon,
            )
            .map_err(DbError::RecoveryFailed)?;
        let restart = self.restart()?;
        Ok((report, restart))
    }

    /// Media recovery from the synchronous mirror (Section 5.2.2's
    /// backup-page source scaled up to the whole device): every
    /// verifiable mirror page is copied onto the primary, unverifiable
    /// ones are rebuilt from archive + WAL history, and restart recovery
    /// then replays the tail. Unlike
    /// [`media_recover`](Database::media_recover) this needs no full
    /// backup — the mirror *is* the backup.
    pub fn media_recover_from_mirror(&self) -> Result<(MediaReport, RestartReport), DbError> {
        let mirror = self
            .mirror
            .as_ref()
            .ok_or_else(|| DbError::RecoveryFailed("no mirror is configured".to_string()))?;
        self.stop_scrubber();
        self.stop_prefetcher();
        self.pool.discard_all();
        self.locks.clear();
        let mut media = MediaRecovery::new(self.log.clone());
        if let Some(store) = &self.archive {
            media = media.with_archive(Arc::clone(store));
        }
        let report = media
            .restore_from_mirror(&self.device, mirror, self.config.data_pages)
            .map_err(DbError::RecoveryFailed)?;
        let restart = self.restart()?;
        Ok((report, restart))
    }

    /// The last full backup's location and horizon, if one was taken.
    #[must_use]
    pub fn last_full_backup(&self) -> Option<(PageId, Lsn)> {
        *self.last_full_backup.lock()
    }

    // ------------------------------------------------------------------
    // Log archiving and WAL truncation
    // ------------------------------------------------------------------

    /// Forces the log and drains the durable prefix into the log
    /// archive: one new per-page-sorted, indexed run, and an advanced
    /// archive watermark. Errors if archiving is disabled.
    pub fn archive_now(&self) -> Result<ArchiveReport, DbError> {
        let archiver = self
            .archiver
            .as_ref()
            .ok_or_else(|| DbError::RecoveryFailed("log archiving is disabled".to_string()))?;
        self.log.force();
        archiver
            .archive_up_to_durable()
            .map_err(|e| DbError::RecoveryFailed(e.to_string()))
    }

    /// The highest LSN up to which the WAL may safely be truncated right
    /// now: the minimum of
    ///
    /// * the **archive watermark** — everything dropped must be in the
    ///   archive for page-history replay;
    /// * the **last checkpoint image's scan point** — restart analysis
    ///   starts there, so every truncated log has a usable image (null,
    ///   and therefore "nothing", until a checkpoint has finished);
    /// * the pool's **oldest dirty-page recovery LSN** — any update not
    ///   yet on the data device may still need redo from the WAL;
    /// * the **oldest active transaction's begin LSN** — its undo chain
    ///   must stay walkable.
    #[must_use]
    pub fn safe_truncation_lsn(&self) -> Lsn {
        let watermark = self.log.archive_watermark();
        if !watermark.is_valid() {
            return Lsn::NULL;
        }
        let Some(scan_from) = self
            .log
            .checkpoint_image()
            .and_then(|bytes| CheckpointImage::decode(&bytes).ok())
            .map(|image| image.scan_from)
        else {
            return Lsn::NULL;
        };
        let mut safe = watermark.min(scan_from);
        if let Some(min_rec) = self
            .pool
            .dirty_pages()
            .iter()
            .map(|(_, rec_lsn)| *rec_lsn)
            .filter(|l| l.is_valid())
            .min()
        {
            safe = safe.min(min_rec);
        }
        if let Some(oldest_begin) = self.txn.oldest_active_begin() {
            safe = safe.min(oldest_begin);
        }
        safe
    }

    /// Truncates the WAL up to
    /// [`safe_truncation_lsn`](Database::safe_truncation_lsn), reclaiming
    /// its memory. Returns
    /// the bytes dropped (0 when nothing can go yet — e.g. no checkpoint
    /// or no archive run covers the prefix).
    pub fn truncate_wal(&self) -> Result<u64, DbError> {
        let safe = self.safe_truncation_lsn();
        if !safe.is_valid() {
            return Ok(0);
        }
        // Persist the manifest (with the current archive watermark)
        // *before* dropping WAL segments: a crash in between must find
        // a manifest that still knows the dropped prefix is archived.
        self.persist_manifest()?;
        self.log
            .truncate_until(safe)
            .map_err(|e| DbError::RecoveryFailed(e.to_string()))
    }

    /// The log archive, when configured.
    #[must_use]
    pub fn archive(&self) -> Option<&Arc<ArchiveStore>> {
        self.archive.as_ref()
    }

    // ------------------------------------------------------------------
    // Online scrubbing (spf-scrub)
    // ------------------------------------------------------------------

    /// One synchronous scrub sweep over every allocated page: runs the
    /// full detector ladder, drains the repair queue, and returns what
    /// was found and fixed. Errors if scrubbing is disabled.
    pub fn scrub_now(&self) -> Result<ScrubCycleReport, DbError> {
        let scrubber = self
            .scrubber
            .as_ref()
            .ok_or_else(|| DbError::RecoveryFailed("scrubbing is disabled".to_string()))?;
        // `run_cycle` ignores the stop flag, so an explicit sweep always
        // completes — and never clears a stop the background driver may
        // be waiting on.
        Ok(scrubber.run_cycle())
    }

    /// Starts the background scrubber thread: continuous rate-limited
    /// sweep cycles concurrent with foreground transactions. Returns
    /// `false` if scrubbing is disabled or the thread is already
    /// running.
    pub fn start_scrubber(&self) -> bool {
        let Some(scrubber) = &self.scrubber else {
            return false;
        };
        let mut slot = self.scrub_thread.lock();
        if slot.is_some() {
            return false;
        }
        scrubber.clear_stop();
        let scrubber = Arc::clone(scrubber);
        *slot = Some(std::thread::spawn(move || {
            while !scrubber.stop_requested() {
                scrubber.run_cycle_interruptible();
                // Wall-clock pacing between sweeps: a small extent must
                // not turn the daemon into a hot spin stealing a core
                // from foreground transactions.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        }));
        true
    }

    /// Stops the background scrubber and waits for it to finish its
    /// current page. Idempotent; returns whether a thread was actually
    /// stopped. The slot lock is held across signal *and* join so a
    /// concurrent [`start_scrubber`](Database::start_scrubber) cannot
    /// clear the stop flag before the old thread observes it (which
    /// would leave that thread running forever and this join hung).
    pub fn stop_scrubber(&self) -> bool {
        let mut slot = self.scrub_thread.lock();
        let Some(handle) = slot.take() else {
            return false;
        };
        if let Some(scrubber) = &self.scrubber {
            scrubber.request_stop();
        }
        let _ = handle.join();
        true
    }

    /// The scrubber, when configured (benches and experiments reach its
    /// statistics and escalation report through this).
    #[must_use]
    pub fn scrubber(&self) -> Option<&Arc<Scrubber>> {
        self.scrubber.as_ref()
    }

    // ------------------------------------------------------------------
    // Predictive prefetching (spf-prefetch)
    // ------------------------------------------------------------------

    /// Starts the background prefetch-poll thread: drains the
    /// prediction queue continuously, drawing I/O budget from the
    /// shared governor. Returns `false` if prefetching is disabled or
    /// the thread is already running.
    pub fn start_prefetcher(&self) -> bool {
        use std::sync::atomic::{AtomicBool, Ordering};
        let Some(prefetcher) = &self.prefetcher else {
            return false;
        };
        let mut slot = self.prefetch_thread.lock();
        if slot.is_some() {
            return false;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let prefetcher = Arc::clone(prefetcher);
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                if prefetcher.poll() == 0 {
                    // Nothing queued (or no budget): wall-clock pause so
                    // an idle prefetcher is not a hot spin.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        });
        *slot = Some(PrefetchThread { handle, stop });
        true
    }

    /// Stops the background prefetch-poll thread and waits for its
    /// current issue to finish (so no in-flight prefetch marker
    /// outlives this call). Idempotent; returns whether a thread was
    /// actually stopped. As with the scrubber, the slot lock is held
    /// across signal and join so a concurrent
    /// [`start_prefetcher`](Database::start_prefetcher) cannot race.
    pub fn stop_prefetcher(&self) -> bool {
        let mut slot = self.prefetch_thread.lock();
        let Some(thread) = slot.take() else {
            return false;
        };
        thread
            .stop
            .store(true, std::sync::atomic::Ordering::Release);
        let _ = thread.handle.join();
        true
    }

    /// The prefetcher, when configured (experiments drive
    /// [`Prefetcher::poll`] directly for deterministic single-step
    /// control).
    #[must_use]
    pub fn prefetcher(&self) -> Option<&Arc<Prefetcher>> {
        self.prefetcher.as_ref()
    }

    /// The background-I/O governor shared by scrubber and prefetcher.
    #[must_use]
    pub fn governor(&self) -> &Arc<IoGovernor> {
        &self.governor
    }

    // ------------------------------------------------------------------
    // Failure injection and inspection (experiment surface)
    // ------------------------------------------------------------------

    /// Arms `fault` on `page` of the data device.
    pub fn inject_fault(&self, page: PageId, fault: FaultSpec) {
        self.device.inject_fault(page, fault);
    }

    /// Fails the entire data device (a media failure).
    pub fn fail_device(&self) {
        self.device.injector().fail_device();
    }

    /// Flushes and drops every cached page, so the next access re-reads
    /// the device (and re-runs Figure 8's verification). A running
    /// background scrubber is paused for the discard (its transient
    /// pins would trip the pool's assertions) and resumed after.
    pub fn drop_cache(&self) {
        let was_running = self.stop_scrubber();
        let prefetch_was_running = self.stop_prefetcher();
        let _ = self.pool.flush_all();
        self.pool.discard_all();
        if was_running {
            self.start_scrubber();
        }
        if prefetch_was_running {
            self.start_prefetcher();
        }
    }

    /// Relocates `page` to a fresh device location and retires the old
    /// one on the bad-block list — the paper's post-recovery move
    /// (§5.2.3: "the page can be moved to a new location. The old, failed
    /// location can be … registered in an appropriate data structure to
    /// prevent future use"). Returns the new page id.
    pub fn relocate_page(&self, page: PageId) -> Result<PageId, DbError> {
        self.pri.remove(page); // the old location's history ends here
        let new_pid = self.tree.migrate_page(page, true).map_err(DbError::Tree)?;
        Ok(new_pid)
    }

    /// Some allocated B-tree leaf page, for targeted fault injection.
    #[must_use]
    pub fn any_leaf_page(&self) -> Option<PageId> {
        self.leaf_pages().into_iter().last()
    }

    /// Every allocated B-tree leaf page (by raw device inspection).
    #[must_use]
    pub fn leaf_pages(&self) -> Vec<PageId> {
        let _ = self.pool.flush_all();
        let mut out = Vec::new();
        for i in 0..self.alloc.high_water() {
            let image = Page::from_bytes(self.device.raw_image(PageId(i)));
            if image.page_type() == Some(PageType::BTreeLeaf) && image.page_id() == PageId(i) {
                out.push(PageId(i));
            }
        }
        out
    }

    /// Full structural verification of the tree (offline check).
    pub fn verify_tree(&self) -> Result<Vec<spf_btree::Violation>, DbError> {
        self.tree.verify_full().map_err(DbError::Tree)
    }

    /// Every live record (ordered) — used by tests to compare engines.
    pub fn dump_all(&self) -> Result<KvPairs, DbError> {
        self.with_repair(TraceCtx::NONE, || self.tree.collect_all())
    }

    // ------------------------------------------------------------------
    // Substrate accessors (benches, experiments)
    // ------------------------------------------------------------------

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// The shared simulated clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The data device.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The synchronous mirror device, when configured.
    #[must_use]
    pub fn mirror(&self) -> Option<&Device> {
        self.mirror.as_ref()
    }

    /// The database directory, for file-backed databases.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The write-ahead log.
    #[must_use]
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The buffer pool.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The transaction manager.
    #[must_use]
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txn
    }

    /// The page recovery index.
    #[must_use]
    pub fn pri(&self) -> &Arc<PageRecoveryIndex> {
        &self.pri
    }

    /// The backup store.
    #[must_use]
    pub fn backups(&self) -> &Arc<BackupStore> {
        &self.backups
    }

    /// The single-page recoverer, when configured.
    #[must_use]
    pub fn single_page_recovery(&self) -> Option<&Arc<SinglePageRecovery>> {
        self.spr.as_ref()
    }

    /// The Foster B-tree.
    #[must_use]
    pub fn tree(&self) -> &FosterBTree {
        &self.tree
    }

    /// Aggregated statistics snapshot. Every sub-struct is carried
    /// whole (no hand-copied fields), so a counter added to any
    /// subsystem's stats can never silently drop out of `DbStats`.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        DbStats {
            pool: self.pool.stats(),
            log: self.log.stats(),
            txn: self.txn.stats(),
            tree: self.tree.stats(),
            spf: self.spr.as_ref().map(|s| s.stats()).unwrap_or_default(),
            pri: self.pri.stats(),
            backups: self.backups.stats(),
            device: self.device.stats(),
            backup_device: self.backups.device().stats(),
            archive: self.archive.as_ref().map(|a| a.stats()).unwrap_or_default(),
            scrub: self
                .scrubber
                .as_ref()
                .map(|s| s.stats())
                .unwrap_or_default(),
            maintainer: self.maintainer.stats(),
            prefetch: self
                .prefetcher
                .as_ref()
                .map(|p| p.stats())
                .unwrap_or_default(),
            governor: self.governor.stats(),
            trace: self.obs().tracer().stats(),
            restart: self.last_restart.lock().clone(),
            now: self.clock.now(),
        }
    }

    /// Flattens every subsystem's statistics into one hierarchical
    /// metrics snapshot with JSON ([`MetricsSnapshot::to_json`]) and
    /// Prometheus-text ([`MetricsSnapshot::to_prometheus`]) exposition.
    /// Includes the hot-path span histograms (`latency` group); works
    /// whether or not event tracing is enabled.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics_sources().snapshot()
    }

    /// The detached snapshot builder: cheap handles to every subsystem,
    /// good for as long as the engine lives. This is what the black-box
    /// arm captures, so a panic snapshot and `metrics_snapshot` can
    /// never drift apart.
    fn metrics_sources(&self) -> MetricsSources {
        MetricsSources {
            pool: self.pool.clone(),
            log: self.log.clone(),
            txn: self.txn.clone(),
            tree: Arc::clone(&self.tree),
            spr: self.spr.clone(),
            pri: Arc::clone(&self.pri),
            backups: Arc::clone(&self.backups),
            maintainer: Arc::clone(&self.maintainer),
            device: self.device.clone(),
            mirror: self.mirror.clone(),
            archive: self.archive.clone(),
            scrubber: self.scrubber.clone(),
            prefetcher: self.prefetcher.clone(),
            governor: Arc::clone(&self.governor),
            last_restart: Arc::clone(&self.last_restart),
        }
    }

    /// Drains every completed trace ring and stitches the spans into
    /// trace trees (plus cross-trace orphans such as another operation's
    /// group-commit leader force).
    #[must_use]
    pub fn drain_trace_trees(&self) -> Stitched {
        self.obs().tracer().drain_trees()
    }

    /// Drains the trace rings and renders every stitched trace as Chrome
    /// tracing JSON (load it at `chrome://tracing` or in Perfetto).
    #[must_use]
    pub fn export_traces(&self) -> String {
        spf_obs::to_chrome_json(&self.drain_trace_trees())
    }

    /// The engine's observability handle: flight-recorder drain, runtime
    /// tracing toggle, span histograms, and the repair audit ledger.
    #[must_use]
    pub fn obs(&self) -> &Arc<Obs> {
        self.log.obs()
    }
}

impl Drop for Database {
    /// The background scrubber and prefetcher threads borrow the
    /// engine's shared substrate; stop them before the façade goes away.
    /// The black-box arm holds that substrate from inside `Obs`, which the
    /// substrate holds in turn; disarm it so that the frames and the
    /// memory-resident WAL are freed with the façade.
    fn drop(&mut self) {
        self.stop_scrubber();
        self.stop_prefetcher();
        self.obs().disarm_blackbox();
    }
}
