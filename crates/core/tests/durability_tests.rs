//! Durability and mirrored-media integration tests: file-backed
//! databases surviving clean closes, abrupt in-process drops, and real
//! process kills (four writers racing checkpoints included); damaged
//! WAL segments and checkpoint images refused with a black box left
//! behind; backup slots reused across reopens; mirror-sourced
//! single-page repair and media recovery; and sync-fault (lost-write)
//! detection through the scrubber.

use std::path::{Path, PathBuf};
use std::process::Command;

use spf::{
    ArchiveConfig, BackupPolicy, CorruptionMode, Database, DatabaseConfig, DbError, DetectorClass,
    FaultSpec, IoCostModel, Lsn, PrefetchConfig, ScrubConfig, TxId,
};
use spf_wal::{LogPayload, LogRecord};
use tempdir::TempDir;

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u64, generation: u64) -> Vec<u8> {
    format!("value-{i:08}-gen{generation:04}").into_bytes()
}

fn file_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 256,
        pool_frames: 512,
        scrub: ScrubConfig::disabled(),
        ..DatabaseConfig::default()
    }
}

fn load(db: &Database, n: u64, generation: u64) {
    for i in 0..n {
        db.put_auto(&key(i), &val(i, generation)).unwrap();
    }
}

fn assert_all(db: &Database, n: u64, generation: u64) {
    for i in 0..n {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(val(i, generation).as_slice()),
            "key {i} wrong or missing"
        );
    }
}

// ----------------------------------------------------------------------
// File-backed lifecycle
// ----------------------------------------------------------------------

#[test]
fn clean_close_then_reopen_preserves_everything() {
    let tmp = TempDir::new("spf-close").unwrap();
    let dir = tmp.path().join("db");

    let db = Database::create_at(file_config(), &dir).unwrap();
    load(&db, 300, 0);
    load(&db, 150, 1); // overwrite half, so both generations matter
    let want = db.dump_all().unwrap();
    db.close().unwrap();

    let db = Database::open(&dir, file_config()).unwrap();
    assert_eq!(db.dump_all().unwrap(), want);
    assert_all(&db, 150, 1);
    assert!(db.verify_tree().unwrap().is_empty());
    // The reopened engine keeps working: fresh updates commit and read.
    load(&db, 50, 2);
    assert_all(&db, 50, 2);
}

#[test]
fn drop_without_close_is_crash_equivalent() {
    let tmp = TempDir::new("spf-drop").unwrap();
    let dir = tmp.path().join("db");

    let db = Database::create_at(file_config(), &dir).unwrap();
    load(&db, 200, 0);
    db.checkpoint().unwrap();
    load(&db, 200, 1); // a tail of committed work after the checkpoint
    drop(db); // no close(): dirty pages and the manifest go stale

    let db = Database::open(&dir, file_config()).unwrap();
    assert_all(&db, 200, 1);
    assert!(db.verify_tree().unwrap().is_empty());
    // The reopen explains itself: what it streamed in and where analysis
    // started (the checkpoint's image, not the log's first record).
    let restart = db.stats().restart;
    assert!(restart.restored_bytes > 0 && restart.restored_bytes <= db.log().total_bytes());
    assert!(restart.restore_ns > 0);
    assert!(restart.analysis_start > spf::Lsn::FIRST);
}

/// `wall_clock_io` reaches the file devices: with it, a read that
/// misses the pool charges no simulated time (the real read is the
/// measurement); without it, the same miss is charged per the cost model.
#[test]
fn wall_clock_io_stops_pool_misses_charging_the_clock() {
    for wall_clock_io in [true, false] {
        let dir = TempDir::new("spf-wall-clock").unwrap();
        let config = DatabaseConfig {
            io_cost: IoCostModel::disk_2012(),
            wall_clock_io,
            prefetch: PrefetchConfig::disabled(),
            ..file_config()
        };
        let db = Database::create_at(config, dir.path()).unwrap();
        load(&db, 100, 0);
        db.drop_cache();
        let (misses, before) = (db.stats().pool.misses, db.clock().now());
        assert_eq!(db.get(&key(7)).unwrap(), Some(val(7, 0)));
        assert!(
            db.stats().pool.misses > misses,
            "the get must miss the pool"
        );
        assert_eq!(
            db.clock().now() != before,
            !wall_clock_io,
            "wall_clock_io: {wall_clock_io}"
        );
    }
}

#[test]
fn manifest_survives_wal_truncation_cycle() {
    let tmp = TempDir::new("spf-trunc").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        archive: ArchiveConfig::default_on(),
        ..file_config()
    };

    let db = Database::create_at(config, &dir).unwrap();
    load(&db, 300, 0);
    db.archive_now().unwrap();
    db.checkpoint().unwrap();
    let dropped = db.truncate_wal().unwrap();
    assert!(dropped > 0, "a checkpointed, archived WAL prefix must go");
    load(&db, 100, 1);
    drop(db);

    // Reopen starts from the truncated log: the archive (reloaded from
    // its run files) plus the retained WAL cover all history.
    let db = Database::open(&dir, config).unwrap();
    assert_all(&db, 100, 1);
    for i in 100..300 {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(val(i, 0).as_slice())
        );
    }
}

#[test]
fn reopen_after_whole_wal_segments_were_truncated_resumes_at_the_cut() {
    let tmp = TempDir::new("spf-trunc-seg").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        archive: ArchiveConfig::default_on(),
        ..file_config()
    };

    // Enough history that truncation unlinks whole segment files, so
    // the first surviving one starts far past the log header.
    let db = Database::create_at(config, &dir).unwrap();
    for generation in 0..48 {
        load(&db, 200, generation);
    }
    db.archive_now().unwrap();
    db.checkpoint().unwrap();
    assert!(db.truncate_wal().unwrap() > 0);
    let cut = db.log().truncate_point();
    load(&db, 50, 48);
    drop(db);
    let first_segment = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .filter_map(|e| {
            e.unwrap()
                .file_name()
                .to_str()?
                .strip_suffix(".wal")?
                .parse()
                .ok()
        })
        .min()
        .unwrap();
    assert!(first_segment > 256 * 1024, "no whole segment was unlinked");

    // The restored log is truncated where its files begin, so restart
    // takes the rest of history from the archive.
    let db = Database::open(&dir, config).unwrap();
    let floor = db.log().truncate_point();
    assert_eq!(floor.0, first_segment);
    assert!(floor <= cut);
    assert_all(&db, 50, 48);
    for i in 50..200 {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(val(i, 47).as_slice())
        );
    }
}

#[test]
fn crc_valid_manifest_with_an_unusable_page_size_is_refused() {
    let tmp = TempDir::new("spf-manifest").unwrap();
    let dir = tmp.path().join("db");
    let db = Database::create_at(file_config(), &dir).unwrap();
    load(&db, 10, 0);
    db.close().unwrap();
    let good = spf::Manifest::load(&dir).unwrap();
    for page_size in [0, 100] {
        // `save` recomputes the CRC: only the geometry check stands
        // between this manifest and a division by zero or a format
        // assertion.
        spf::Manifest { page_size, ..good }.save(&dir).unwrap();
        let err = Database::open(&dir, file_config()).unwrap_err();
        assert!(err.to_string().contains("page size"), "{err}");
    }
    good.save(&dir).unwrap();
    assert_all(&Database::open(&dir, file_config()).unwrap(), 10, 0);
}

/// A directory written by an older log format — version 1, fixed-width
/// records; version 2, a begin record on every user transaction's chain
/// — is refused at the manifest, not deep in analysis as a corrupt
/// record or a loser of the wrong kind.
#[test]
fn a_directory_of_the_old_log_format_is_refused_by_its_manifest_version() {
    let tmp = TempDir::new("spf-manifest-v1").unwrap();
    let dir = tmp.path().join("db");
    let db = Database::create_at(file_config(), &dir).unwrap();
    load(&db, 10, 0);
    db.close().unwrap();
    // Layout: u32 magic, u16 version, ..., u32 CRC-32C over the rest.
    let path = dir.join("manifest.spfm");
    let current = std::fs::read(&path).unwrap();
    for version in [1u16, 2] {
        let mut bytes = current.clone();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = spf_util::crc32c(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Database::open(&dir, file_config()).unwrap_err();
        assert!(err.to_string().contains("manifest version"), "{err}");
    }
    std::fs::write(&path, &current).unwrap();
    assert_all(&Database::open(&dir, file_config()).unwrap(), 10, 0);
}

// ----------------------------------------------------------------------
// Transaction chain shapes after a crash: user chains without a begin
// record, system chains with one, self-committing updates
// ----------------------------------------------------------------------

/// The records of `tx` in the log, oldest first.
fn chain_of(db: &Database, tx: TxId) -> Vec<(Lsn, LogRecord)> {
    let mut records = db.log().scan_from(Lsn::NULL).unwrap();
    records.retain(|(_, r)| r.tx_id == tx);
    records
}

/// A user transaction with two updates and no begin record, listed in a
/// checkpoint image and its keys' records moved by later splits, is a
/// loser restart rolls back by key, as a user transaction — its kind
/// read from a chain that starts below the image's scan point.
#[test]
fn a_user_loser_listed_by_a_checkpoint_is_rolled_back_by_key() {
    let big = |i: u64, generation: u64| [val(i, generation), vec![b'.'; 160]].concat();
    let db = Database::create(DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
        ..DatabaseConfig::default()
    })
    .unwrap();
    for j in 0..100 {
        db.put_auto(&key(2 * j), &big(2 * j, 0)).unwrap();
    }
    let loser = db.begin();
    db.put(loser, &key(20), b"loser's first").unwrap();
    db.put(loser, &key(150), b"loser's second").unwrap();
    let chain = chain_of(&db, loser);
    assert_eq!(chain.len(), 2);
    assert_eq!(chain[0].1.prev_tx_lsn, Lsn::NULL, "no begin record");
    assert_eq!(db.txn_manager().active_txns().1, vec![(loser, chain[1].0)]);
    db.checkpoint().unwrap();
    let splits = db.stats().tree.leaf_splits;
    for j in 0..100 {
        db.put_auto(&key(2 * j + 1), &big(2 * j + 1, 1)).unwrap();
    }
    assert!(
        db.stats().tree.leaf_splits > splits,
        "the loser's leaves split"
    );
    db.crash();
    let report = db.restart().unwrap();
    assert!(
        report.analysis_start > chain[1].0,
        "its chain is below the scan point"
    );
    assert_eq!((report.losers, report.system_losers), (1, 0));
    assert_eq!(report.clrs_written, 2);
    for i in 0..200 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(big(i, i % 2)), "key {i}");
    }
    assert!(db.verify_tree().unwrap().is_empty());
}

/// A single-update transaction's update record is its commit: left
/// unforced at the crash, the key reads its old value; once a force
/// covers it — with no commit call and no commit record — the new one.
#[test]
fn a_self_committing_update_commits_once_forced() {
    let db = Database::create(file_config()).unwrap();
    load(&db, 10, 0);
    for forced in [false, true] {
        let tx = db.txn_manager().begin_single_update();
        db.tree()
            .upsert(tx, &key(3), &val(3, 9), spf_obs::TraceCtx::NONE)
            .unwrap();
        let chain = chain_of(&db, tx);
        assert_eq!(chain.len(), 1, "one record, no begin or commit");
        assert!(matches!(
            chain[0].1.payload,
            LogPayload::UpdateCommit { .. }
        ));
        assert!(db.log().durable_lsn() <= chain[0].0, "not forced yet");
        assert!(db.txn_manager().active_txns().1.is_empty());
        if forced {
            db.log().force();
        }
        db.crash();
        let report = db.restart().unwrap();
        assert_eq!(report.losers, 0, "a self-committing update is no loser");
        let want = val(3, if forced { 9 } else { 0 });
        assert_eq!(db.get(&key(3)).unwrap(), Some(want), "forced={forced}");
    }
    for i in (0..10).filter(|&i| i != 3) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)), "key {i}");
    }
}

/// A `put_auto` appends exactly one record (no page write-back runs
/// here, so no PRI update joins it), and a revived ghost two — the
/// second of which commits.
#[test]
fn put_auto_appends_one_self_committing_record() {
    let db = Database::create(file_config()).unwrap();
    load(&db, 10, 0);
    let records = || db.log().stats().records_appended;
    let before = records();
    db.put_auto(&key(4), &val(4, 1)).unwrap();
    assert_eq!(records(), before + 1);
    let tx = db.begin();
    db.delete(tx, &key(5)).unwrap();
    db.commit(tx).unwrap();
    let before = records();
    db.put_auto(&key(5), &val(5, 1)).unwrap();
    assert_eq!(records(), before + 2, "replace and un-ghost");
    let tail = db.log().scan_from(Lsn::NULL).unwrap();
    let kinds: Vec<bool> = tail[tail.len() - 2..]
        .iter()
        .map(|(_, r)| matches!(r.payload, LogPayload::UpdateCommit { .. }))
        .collect();
    assert_eq!(kinds, [false, true]);
    assert!(!tail
        .iter()
        .any(|(_, r)| matches!(r.payload, LogPayload::TxBegin { system: false })));
    db.crash();
    db.restart().unwrap();
    assert_eq!(db.get(&key(5)).unwrap(), Some(val(5, 1)));
}

// ----------------------------------------------------------------------
// Kill -9 oracle (same binary re-executed as the victim)
// ----------------------------------------------------------------------

fn kill_child_dir() -> Option<String> {
    std::env::var("SPF_KILL_CHILD_DIR").ok()
}

/// Not a real test: this is the sacrificial child process. When the
/// env var is absent (every normal test run) it does nothing.
#[test]
fn kill_child_entry() {
    let Some(dir) = kill_child_dir() else {
        return;
    };
    let kill_at: u64 = std::env::var("SPF_KILL_AT").unwrap().parse().unwrap();
    let db = Database::create_at(file_config(), Path::new(&dir)).unwrap();
    for i in 0..=kill_at {
        db.put_auto(&key(i), &val(i, 7)).unwrap();
        if i % 10 == 9 {
            db.checkpoint().unwrap();
        }
    }
    // Every put above committed (its log force returned). Die without
    // any shutdown path — simulating a power cut.
    std::process::abort();
}

#[test]
fn killed_process_loses_no_committed_transaction() {
    if kill_child_dir().is_some() {
        return; // we *are* the child; only kill_child_entry runs
    }
    for kill_at in [0u64, 7, 23, 41] {
        let tmp = TempDir::new("spf-kill").unwrap();
        let dir = tmp.path().join("db");
        let exe = std::env::current_exe().unwrap();
        let status = Command::new(&exe)
            .args(["kill_child_entry", "--exact", "--nocapture"])
            .env("SPF_KILL_CHILD_DIR", &dir)
            .env("SPF_KILL_AT", kill_at.to_string())
            .status()
            .expect("spawn victim");
        assert!(!status.success(), "the victim must abort, not exit 0");

        let db = Database::open(&dir, file_config()).expect("restart recovery");
        assert_all(&db, kill_at + 1, 7);
        assert!(db.verify_tree().unwrap().is_empty());
    }
}

/// The sacrificial child of the concurrent crash oracle: four writers,
/// each committing its own keys with `put_auto` and rolling back a write
/// of its own after each, race a thread that checkpoints continuously —
/// and the process aborts after a seeded number of operations. Each
/// writer records how many of its commits returned in an ack file (one
/// word per writer, written after the commit returned; the kernel keeps
/// it through the abort). When the env var is absent it does nothing.
#[test]
fn concurrent_kill_child_entry() {
    use std::os::unix::fs::FileExt;
    use std::sync::atomic::{AtomicU64, Ordering};
    let Ok(dir) = std::env::var("SPF_CONCURRENT_KILL_DIR") else {
        return;
    };
    let kill_at: u64 = std::env::var("SPF_KILL_AT").unwrap().parse().unwrap();
    let acks = std::fs::File::create(std::env::var("SPF_ACKS_FILE").unwrap()).unwrap();
    acks.write_all_at(&[0u8; 8 * WRITERS], 0).unwrap();
    let db = Database::create_at(file_config(), Path::new(&dir)).unwrap();
    let ops = AtomicU64::new(0);
    let (db, acks, ops) = (&db, &acks, &ops);
    std::thread::scope(|s| {
        s.spawn(move || loop {
            db.checkpoint().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        for t in 0..WRITERS as u64 {
            s.spawn(move || {
                for i in 0.. {
                    loop {
                        match db.put_auto(&writer_key(t, i), &val(i, 7)) {
                            Ok(_) => break,
                            Err(DbError::Locked(_)) => std::thread::yield_now(),
                            Err(e) => panic!("put_auto: {e}"),
                        }
                    }
                    acks.write_all_at(&(i + 1).to_le_bytes(), t * 8).unwrap();
                    let tx = db.begin();
                    let _ = db.put(tx, &loser_key(t, i), b"never committed");
                    db.abort(tx).unwrap();
                    if ops.fetch_add(1, Ordering::Relaxed) == kill_at {
                        std::process::abort();
                    }
                }
            });
        }
    });
}

const WRITERS: usize = 4;

fn writer_key(t: u64, i: u64) -> Vec<u8> {
    format!("w{t}-{i:06}").into_bytes()
}

fn loser_key(t: u64, i: u64) -> Vec<u8> {
    format!("w{t}-x{i:06}").into_bytes()
}

/// Checkpoints race four writers and their rollbacks; a kill lands at a
/// seeded point. Reopened, the database holds every acknowledged commit
/// (and at most the one commit per writer that returned without its ack
/// recorded), and none of the rolled-back or in-flight writes.
#[test]
fn checkpoints_racing_writers_lose_no_commit_and_keep_no_loser() {
    use std::os::unix::process::ExitStatusExt;
    if std::env::var("SPF_CONCURRENT_KILL_DIR").is_ok() {
        return; // we *are* the child; only concurrent_kill_child_entry runs
    }
    for kill_at in [40u64, 250, 1200] {
        let tmp = TempDir::new("spf-concurrent-kill").unwrap();
        let dir = tmp.path().join("db");
        let acks_file = tmp.path().join("acks");
        let status = Command::new(std::env::current_exe().unwrap())
            .args(["concurrent_kill_child_entry", "--exact", "--nocapture"])
            .env("SPF_CONCURRENT_KILL_DIR", &dir)
            .env("SPF_KILL_AT", kill_at.to_string())
            .env("SPF_ACKS_FILE", &acks_file)
            .status()
            .expect("spawn victim");
        assert_eq!(status.signal(), Some(6), "the victim must abort: {status}");

        let acks = std::fs::read(&acks_file).unwrap();
        let db = Database::open(&dir, file_config()).expect("restart recovery");
        for t in 0..WRITERS as u64 {
            let at = 8 * t as usize;
            let acked = u64::from_le_bytes(acks[at..at + 8].try_into().unwrap());
            for i in 0..acked {
                assert_eq!(
                    db.get(&writer_key(t, i)).unwrap().as_deref(),
                    Some(val(i, 7).as_slice()),
                    "kill at {kill_at}: acknowledged commit {t}/{i} lost"
                );
            }
            for i in acked + 1..acked + 20 {
                assert_eq!(db.get(&writer_key(t, i)).unwrap(), None, "{t}/{i}");
            }
            for i in 0..acked + 2 {
                assert_eq!(
                    db.get(&loser_key(t, i)).unwrap(),
                    None,
                    "kill at {kill_at}: uncommitted write {t}/x{i} survived"
                );
            }
        }
        assert!(db.verify_tree().unwrap().is_empty());
    }
}

// ----------------------------------------------------------------------
// Damaged recovery inputs, reused backup slots
// ----------------------------------------------------------------------

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segments.sort();
    segments
}

fn failure_box(dir: &Path) -> spf_obs::BlackBox {
    spf_obs::BlackBox::load(&dir.join(spf_obs::BLACKBOX_FILE))
        .expect("a failed open must leave a black box")
}

/// Closed WAL segments were synced when they closed, so a bad byte in
/// one is damage, not a torn tail: `open` fails naming the file, leaves
/// the newest segment — the most recent commits — byte for byte as it
/// was, and leaves a black box for the post-mortem.
#[test]
fn a_bad_byte_in_an_old_wal_segment_fails_open_and_spares_the_newest() {
    let tmp = TempDir::new("spf-bad-segment").unwrap();
    let dir = tmp.path().join("db");
    let db = Database::create_at(file_config(), &dir).unwrap();
    // One commit is one force, and a force's bytes go to one segment.
    for generation in 0..10u8 {
        let tx = db.begin();
        for i in 0..150 {
            db.put(tx, &key(i), &[b'a' + generation; 1000]).unwrap();
        }
        db.commit(tx).unwrap();
    }
    drop(db);
    let segments = wal_segments(&dir);
    assert!(segments.len() >= 6, "{} segments", segments.len());
    let newest = segments.last().unwrap();
    let newest_bytes = std::fs::read(newest).unwrap();
    let victim = &segments[4];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[1000] ^= 0x5A;
    std::fs::write(victim, &bytes).unwrap();

    let err = Database::open(&dir, file_config()).unwrap_err().to_string();
    let name = victim.file_name().unwrap().to_string_lossy().into_owned();
    assert!(err.contains(&name), "{err}");
    assert_eq!(std::fs::read(newest).unwrap(), newest_bytes);
    assert!(failure_box(&dir).reason.contains(&name));
}

/// An image whose bytes fail their CRC cannot seed analysis: restart
/// refuses to guess and `open` fails with a black box.
#[test]
fn a_damaged_checkpoint_image_fails_open_with_a_black_box() {
    let tmp = TempDir::new("spf-bad-image").unwrap();
    let dir = tmp.path().join("db");
    let db = Database::create_at(file_config(), &dir).unwrap();
    load(&db, 50, 0);
    db.checkpoint().unwrap();
    drop(db);
    let image = dir.join("wal").join("checkpoint.spfc");
    let mut bytes = std::fs::read(&image).unwrap();
    bytes[5] ^= 1;
    std::fs::write(&image, &bytes).unwrap();

    let err = Database::open(&dir, file_config()).unwrap_err().to_string();
    assert!(err.contains("checkpoint image"), "{err}");
    assert!(failure_box(&dir).reason.contains("restart"));
}

/// The backup free list is volatile, but a reopen rebuilds it from the
/// slots the recovered page recovery index still names: backups taken
/// after the reopen reuse freed slots instead of growing `backup.dat`.
#[test]
fn reopen_reuses_freed_backup_slots_instead_of_growing_the_backup_file() {
    let tmp = TempDir::new("spf-backup-slots").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        backup_policy: BackupPolicy {
            every_n_updates: Some(5),
        },
        ..file_config()
    };
    let rounds = |db: &Database, first: u64| {
        for generation in first..first + 4 {
            for i in 0..100 {
                for _ in 0..2 {
                    db.put_auto(&key(i), &val(i, generation)).unwrap();
                }
            }
            db.checkpoint().unwrap();
        }
    };
    let db = Database::create_at(config, &dir).unwrap();
    rounds(&db, 0);
    assert!(db.stats().backups.backups_freed > 0, "slots were freed");
    db.close().unwrap();
    let backup_file = dir.join("backup.dat");
    let size = std::fs::metadata(&backup_file).unwrap().len();

    let db = Database::open(&dir, config).unwrap();
    rounds(&db, 4);
    assert!(
        db.stats().backups.page_backups_taken > 0,
        "backups after reopen"
    );
    assert_all(&db, 100, 7);
    db.close().unwrap();
    assert_eq!(std::fs::metadata(&backup_file).unwrap().len(), size);
}

// ----------------------------------------------------------------------
// Mirror as a backup-page source (Section 5.2.2)
// ----------------------------------------------------------------------

fn mirrored_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 512,
        pool_frames: 1024,
        mirror: true,
        scrub: ScrubConfig::disabled(),
        ..DatabaseConfig::default()
    }
}

#[test]
fn corrupt_primary_page_repairs_from_mirror() {
    let db = Database::create(mirrored_config()).unwrap();
    load(&db, 400, 0);
    db.checkpoint().unwrap();
    db.pool().flush_all().unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 16 }),
    );
    db.drop_cache();

    assert_all(&db, 400, 0);
    let stats = db.stats();
    assert!(
        stats.spf.from_mirror >= 1,
        "repair must have used the mirror copy, got {:?}",
        stats.spf
    );
    assert_eq!(stats.spf.escalations, 0);
}

#[test]
fn failed_primary_recovers_from_mirror_without_a_backup() {
    let db = Database::create(mirrored_config()).unwrap();
    load(&db, 400, 0);
    db.checkpoint().unwrap();
    load(&db, 120, 1); // committed tail not yet on either device

    // No full backup was ever taken: traditional media recovery is
    // impossible...
    db.fail_device();
    assert!(db.media_recover().is_err());

    // ...but the mirror holds a verified copy of every page.
    let (media, _restart) = db.media_recover_from_mirror().unwrap();
    assert!(media.pages_restored > 0);
    assert_all(&db, 120, 1);
    for i in 120..400 {
        assert_eq!(
            db.get(&key(i)).unwrap().as_deref(),
            Some(val(i, 0).as_slice())
        );
    }
    assert!(db.verify_tree().unwrap().is_empty());
}

#[test]
fn mirrored_file_database_reopens_with_mirror() {
    let tmp = TempDir::new("spf-mirror-file").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        mirror: true,
        ..file_config()
    };

    let db = Database::create_at(config, &dir).unwrap();
    load(&db, 200, 0);
    db.close().unwrap();
    assert!(dir.join("mirror.dat").exists());

    // The manifest remembers mirroring even if the caller forgets it.
    let mut reopen = file_config();
    reopen.mirror = false;
    let db = Database::open(&dir, reopen).unwrap();
    assert!(db.mirror().is_some(), "manifest must re-arm the mirror");
    assert_all(&db, 200, 0);

    // And the mirror actually serves repairs after reopening.
    db.pool().flush_all().unwrap();
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    assert_all(&db, 200, 0);
    assert!(db.stats().spf.from_mirror >= 1);
}

// ----------------------------------------------------------------------
// Sync faults on the file device
// ----------------------------------------------------------------------

#[test]
fn lost_write_at_sync_is_detected_and_repaired() {
    let tmp = TempDir::new("spf-lostwrite").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        scrub: ScrubConfig::default_on(),
        ..file_config()
    };

    let db = Database::create_at(config, &dir).unwrap();
    load(&db, 300, 0);
    db.checkpoint().unwrap();

    // Arm a lost write on a leaf, update every key so the victim page is
    // re-dirtied, and flush: the victim's write is acknowledged but
    // silently dropped at sync — the device keeps the stale version.
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(victim, FaultSpec::LostWriteAtSync);
    load(&db, 300, 1);
    db.checkpoint().unwrap();
    db.pool().flush_all().unwrap();
    db.drop_cache();

    // The scrubber's PageLSN cross-check catches the stale page and its
    // repair queue heals it from the per-page log chain.
    let report = db.scrub_now().unwrap();
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.detector == DetectorClass::StaleLsn)
        .collect();
    assert!(
        !stale.is_empty(),
        "lost write must surface as StaleLsn, findings: {:?}",
        report.findings
    );
    assert!(report.escalations.is_empty());

    assert_all(&db, 300, 1);
    assert!(db.verify_tree().unwrap().is_empty());
}

// ----------------------------------------------------------------------
// Crash black box
// ----------------------------------------------------------------------

/// Clean shutdown persists a black box next to the data; reopening
/// rotates it aside (`blackbox.prev.spfb`) so the new incarnation can
/// never clobber the previous run's forensics.
#[test]
fn close_writes_blackbox_and_reopen_rotates_it() {
    let tmp = TempDir::new("spf-blackbox").unwrap();
    let dir = tmp.path().join("db");
    let cur = dir.join(spf_obs::BLACKBOX_FILE);
    let prev = dir.join(spf_obs::BLACKBOX_PREV_FILE);

    let db = Database::create_at(file_config(), &dir).unwrap();
    assert!(db.obs().blackbox_armed(), "file-backed engines arm capture");
    load(&db, 100, 0);
    db.close().unwrap();

    let bb = spf_obs::BlackBox::load(&cur).expect("close must persist a black box");
    assert_eq!(bb.reason, "clean shutdown");
    assert!(
        bb.metrics_json.contains("\"txn\""),
        "snapshot rides along: {}",
        &bb.metrics_json[..bb.metrics_json.len().min(200)]
    );

    // Reopen: the old box rotates aside before the engine re-arms.
    let db = Database::open(&dir, file_config()).unwrap();
    assert!(prev.exists(), "previous box must rotate, not vanish");
    assert!(
        !cur.exists(),
        "current slot is empty until the next capture"
    );
    assert_all(&db, 100, 0);
    db.close().unwrap();

    assert!(cur.exists() && prev.exists(), "both generations retained");
    let rotated = spf_obs::BlackBox::load(&prev).unwrap();
    assert_eq!(rotated.reason, "clean shutdown");
}
