//! The one seam to the engine: every call into an `spf*` crate is here.
//!
//! The untraced pass uses only `Database::{create_at, open, close, begin,
//! insert, commit, put_auto, get, scan, checkpoint, inject_fault, stats,
//! leaf_pages}`, `pool().{flush_page, discard_page}` and
//! `device().raw_image`. The traced pass adds `put`, and the probes add
//! the accessors grouped at the bottom of this file: a refactor that
//! moves one of them re-points it here, in a benchmark issue.

use std::path::Path;

use spf::{CorruptionMode, Database, DatabaseConfig, FaultSpec, PageId, TxId};
use spf_btree::NodeView;
use spf_storage::{Page, StorageDevice};

use crate::workload::{parse_key, FaultClass};

/// Capacity of the data device in 8 KiB pages (256 MiB, sparse).
const DATA_PAGES: u64 = 32_768;

pub struct Engine {
    db: Database,
}

/// A B-tree leaf and one key that lives on it.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pub page: u64,
    pub first_key: u32,
}

/// A page image parsed for [`Engine::page_verify`].
pub struct ParsedPage(Page);

/// The `(key, value)` pairs a scan returns.
pub type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// A handle on an open transaction (traced pass only).
pub struct Tx(TxId);

fn config(pool_frames: usize) -> DatabaseConfig {
    DatabaseConfig {
        wall_clock_io: true,
        data_pages: DATA_PAGES,
        pool_frames,
        ..DatabaseConfig::default()
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Engine {
    pub fn create(dir: &Path, pool_frames: usize) -> Result<Engine, String> {
        let db = Database::create_at(config(pool_frames), dir).map_err(text)?;
        Ok(Engine { db })
    }

    /// Reopens `dir`, running restart recovery.
    pub fn open(dir: &Path, pool_frames: usize) -> Result<Engine, String> {
        let db = Database::open(dir, config(pool_frames)).map_err(text)?;
        Ok(Engine { db })
    }

    pub fn close(self) -> Result<(), String> {
        self.db.close().map_err(text)
    }

    /// Crash-equivalent: dropping without `close()` discards the
    /// `FileDevice` heap write cache and the unforced log tail.
    pub fn crash(self) {
        drop(self.db);
    }

    /// Inserts `rows` in one transaction.
    pub fn insert_batch<'a>(
        &self,
        rows: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    ) -> Result<(), String> {
        let tx = self.db.begin();
        for (key, value) in rows {
            self.db.insert(tx, key, value).map_err(text)?;
        }
        self.db.commit(tx).map(drop).map_err(text)
    }

    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.get(key).map_err(text)
    }

    pub fn put_auto(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.put_auto(key, value).map_err(text)
    }

    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Rows, String> {
        self.db.scan(start, limit).map_err(text)
    }

    pub fn checkpoint(&self) -> Result<(), String> {
        self.db.checkpoint().map(drop).map_err(text)
    }

    /// Every leaf with one live key on it, from the raw device images.
    pub fn leaves(&self) -> Result<Vec<Leaf>, String> {
        let mut leaves = Vec::new();
        for page in self.db.leaf_pages() {
            let image = Page::from_bytes(self.raw_image(page.0));
            let node = NodeView::new(&image).map_err(text)?;
            for pos in node.payload_range() {
                let (key, _, ghost) = node.leaf_entry(pos).map_err(text)?;
                if let (false, Some(first_key)) = (ghost, parse_key(key)) {
                    leaves.push(Leaf {
                        page: page.0,
                        first_key,
                    });
                    break;
                }
            }
        }
        Ok(leaves)
    }

    /// Arms `class` on `page` of the data device.
    pub fn arm_fault(&self, page: u64, class: FaultClass) {
        let fault = match class {
            FaultClass::BitRot => FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
            FaultClass::ZeroPage => FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
            FaultClass::HardReadError => FaultSpec::HardReadError,
            FaultClass::StaleVersion => FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        };
        self.db.inject_fault(PageId(page), fault);
    }

    /// Writes `page` back if dirty and drops it from the pool, so the
    /// next access reads the device.
    pub fn evict(&self, page: u64) -> Result<(), String> {
        self.db.pool().flush_page(PageId(page)).map_err(text)?;
        if self.db.pool().discard_page(PageId(page)) {
            Ok(())
        } else {
            Err(format!("page {page} is pinned and cannot be discarded"))
        }
    }

    /// Every engine counter the reports use, by name.
    pub fn counters(&self) -> Counters {
        let s = self.db.stats();
        Counters(vec![
            ("pool.hits", s.pool.hits),
            ("pool.misses", s.pool.misses + s.pool.coalesced_misses),
            ("pool.evictions", s.pool.evictions),
            ("pool.write_backs", s.pool.write_backs),
            // A zeroed or bit-rotted image fails the checksum first; the
            // id and plausibility checks are the same in-page ladder.
            (
                "pool.detected_checksum",
                s.pool.detected_checksum + s.pool.detected_wrong_id + s.pool.detected_plausibility,
            ),
            ("pool.detected_stale_lsn", s.pool.detected_stale_lsn),
            ("pool.detected_hard_error", s.pool.detected_hard_error),
            ("pool.pages_recovered", s.pool.pages_recovered),
            ("pool.escalations", s.pool.escalations),
            ("log.records", s.log.records_appended),
            ("log.bytes", s.log.bytes_appended),
            ("log.forces", s.log.forces),
            ("log.bytes_forced", s.log.bytes_forced),
            ("log.pri_update", s.log.appends_of("pri-update")),
            ("log.backup_taken", s.log.appends_of("backup-taken")),
            ("txn.user_commits", s.txn.user_commits),
            ("txn.aborts", s.txn.aborts),
            ("tree.node_visits", s.tree.node_visits),
            ("tree.fence_checks", s.tree.fence_checks),
            ("tree.descent_retries", s.tree.descent_retries),
            ("tree.restructure_conflicts", s.tree.restructure_conflicts),
            ("tree.leaf_splits", s.tree.leaf_splits),
            ("spf.recoveries", s.spf.recoveries),
            ("spf.escalations", s.spf.escalations),
            ("spf.chain_records", s.spf.chain_records_fetched),
            ("spf.from_format_record", s.spf.from_format_record),
            ("spf.from_backup_page", s.spf.from_backup_page),
            ("device.reads", s.device.total_reads()),
            ("device.writes", s.device.total_writes()),
            ("device.syncs", s.device.syncs),
            ("device.failed_reads", s.device.failed_reads),
            ("device.silent_corrupt_reads", s.device.silent_corrupt_reads),
            ("maintainer.policy_backups", s.maintainer.policy_backups),
            (
                "maintainer.pri_updates_logged",
                s.maintainer.pri_updates_logged,
            ),
            ("archive.runs", s.archive.runs_written),
            ("scrub.sweeps", s.scrub.cycles_completed),
            (
                "prefetch.issued",
                s.prefetch.issued + s.pool.prefetch_issued,
            ),
        ])
    }

    // ------------------------------------------------------------------
    // Traced pass: put_auto issued as its public constituents.
    // ------------------------------------------------------------------

    pub fn begin(&self) -> Tx {
        Tx(self.db.begin())
    }

    pub fn put(&self, tx: &Tx, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.put(tx.0, key, value).map_err(text)
    }

    pub fn commit(&self, tx: Tx) -> Result<(), String> {
        self.db.commit(tx.0).map(drop).map_err(text)
    }

    // ------------------------------------------------------------------
    // Probes: one call into one layer's public function each. This is the
    // API surface later refactors must keep or re-point.
    // ------------------------------------------------------------------

    /// `device().raw_image`: the acknowledged image, faults bypassed.
    pub fn raw_image(&self, page: u64) -> Vec<u8> {
        self.db.device().raw_image(PageId(page))
    }

    /// `spf_util::crc32c`.
    pub fn crc32c(bytes: &[u8]) -> u32 {
        spf_util::crc32c(bytes)
    }

    /// `device().read_page`.
    pub fn device_read(&self, page: u64, buf: &mut [u8]) -> Result<(), String> {
        self.db.device().read_page(PageId(page), buf).map_err(text)
    }

    pub fn parse_page(image: Vec<u8>) -> ParsedPage {
        ParsedPage(Page::from_bytes(image))
    }

    /// `Page::verify`.
    pub fn page_verify(parsed: &ParsedPage, page: u64) -> bool {
        parsed.0.verify(PageId(page)).is_ok()
    }

    /// `pool().fetch`, guard released.
    pub fn pool_fetch(&self, page: u64) -> Result<(), String> {
        self.db.pool().fetch(PageId(page)).map(drop).map_err(text)
    }

    /// `tree().get`: the lookup without the facade's repair loop.
    pub fn tree_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.tree().get(key).map_err(text)
    }

    /// `pri().lookup`.
    pub fn pri_lookup(&self, page: u64) -> bool {
        self.db.pri().lookup(PageId(page)).is_some()
    }

    /// `single_page_recovery().recover_page`: rebuilds the page from its
    /// backup and per-page log chain; the image is dropped.
    pub fn recover_page(&self, page: u64) -> Result<(), String> {
        let recovery = self
            .db
            .single_page_recovery()
            .ok_or("single-page recovery is not configured")?;
        recovery.recover_page(PageId(page)).map(drop)
    }
}

/// A snapshot of the engine's counters; subtract two for a phase's work.
#[derive(Debug, Clone)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// What was counted since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|(&(name, now), &(_, then))| (name, now - then))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
            .1
    }

    /// `get(name)` per operation.
    pub fn per(&self, name: &str, ops: u64) -> f64 {
        self.get(name) as f64 / ops.max(1) as f64
    }
}
