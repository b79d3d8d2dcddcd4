//! The log-archive subsystem end to end: WAL truncation with
//! archive-backed single-page recovery, restart, and media recovery.
//!
//! The centerpiece is a randomized oracle: two engines fed the identical
//! operation stream — so their logs are byte-for-byte identical — where
//! one archives and truncates its WAL at a random point. Single-page
//! recovery must return **byte-identical** pages on both, across random
//! update counts, backup policies, and truncation points.

use proptest::prelude::*;

use spf::{BackupPolicy, CorruptionMode, Database, DatabaseConfig, DbError, FaultSpec, Lsn};

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u64, gen: u64) -> Vec<u8> {
    format!("value-{i:08}-gen{gen}").into_bytes()
}

fn small_config(backup_every: Option<u32>) -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
        backup_policy: match backup_every {
            Some(n) => BackupPolicy {
                every_n_updates: Some(n),
            },
            None => BackupPolicy::disabled(),
        },
        ..DatabaseConfig::default()
    }
}

fn load(db: &Database, n: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
    }
    db.commit(tx).unwrap();
}

/// Applies `count` deterministic single-key updates drawn from `seed`.
fn apply_updates(db: &Database, key_space: u64, seed: u64, skip: u64, count: u64) {
    if count == 0 {
        return;
    }
    let tx = db.begin();
    let mut state = seed | 1;
    for step in 0..skip + count {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if step < skip {
            continue;
        }
        let k = (state >> 33) % key_space;
        db.put(tx, &key(k), &val(k, step)).unwrap();
    }
    db.commit(tx).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Oracle: archive-backed recovery ≡ pure chain-walk recovery, byte
    /// for byte, with the WAL footprint strictly smaller after
    /// truncation.
    #[test]
    fn prop_archive_recovery_matches_chain_walk(
        updates in 0u64..120,
        trunc_percent in 0u32..=100,
        backup_choice in 0u32..3,
        seed in 1u64..1_000_000,
    ) {
        let backup_every = [None, Some(5u32), Some(40)][backup_choice as usize];
        let key_space = 200u64;
        let phase1 = updates * u64::from(trunc_percent) / 100;
        let phase2 = updates - phase1;

        // Two engines, identical streams: identical logs, LSNs, pages.
        let db_plain = Database::create(small_config(backup_every)).unwrap();
        let db_arch = Database::create(small_config(backup_every)).unwrap();
        for db in [&db_plain, &db_arch] {
            load(db, key_space);
            apply_updates(db, key_space, seed, 0, phase1);
            db.pool().flush_all().unwrap();
            db.checkpoint().unwrap();
        }
        // Only one of them archives + truncates. Neither call appends to
        // the log, so the streams stay identical afterwards.
        let report = db_arch.archive_now().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let dropped = db_arch.truncate_wal().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(report.to >= report.from);
        for db in [&db_plain, &db_arch] {
            apply_updates(db, key_space, seed, phase1, phase2);
            db.pool().flush_all().unwrap();
            db.log().force();
        }

        let victim = db_plain.any_leaf_page().expect("leaves exist");
        prop_assert_eq!(db_arch.any_leaf_page(), Some(victim), "identical engines");

        let page_plain = db_plain
            .single_page_recovery().unwrap()
            .recover_page(victim)
            .map_err(TestCaseError::fail)?;
        let page_arch = db_arch
            .single_page_recovery().unwrap()
            .recover_page(victim)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            page_plain.as_bytes(),
            page_arch.as_bytes(),
            "recovered images must be byte-identical"
        );

        if dropped > 0 {
            prop_assert!(
                db_arch.log().total_bytes() < db_plain.log().total_bytes(),
                "truncation must shrink the live WAL ({} vs {})",
                db_arch.log().total_bytes(),
                db_plain.log().total_bytes()
            );
            prop_assert_eq!(db_arch.log().stats().bytes_truncated, dropped);
        }
        // The plain engine never consulted its (empty) archive.
        prop_assert_eq!(
            db_plain.single_page_recovery().unwrap().stats().archive_records_fetched,
            0
        );
    }
}

#[test]
fn restart_works_from_checkpoint_plus_archive_after_truncation() {
    let db = Database::create(small_config(Some(40))).unwrap();
    load(&db, 600);
    let tx = db.begin();
    for i in 0..600 {
        db.put(tx, &key(i), &val(i, 1)).unwrap();
    }
    db.commit(tx).unwrap();
    db.pool().flush_all().unwrap();
    db.checkpoint().unwrap();
    db.archive_now().unwrap();
    let dropped = db.truncate_wal().unwrap();
    assert!(dropped > 0, "there was history to truncate");
    assert!(db.log().truncate_point().is_valid());

    // One loser transaction the restart must roll back — its records
    // become durable when the later commit forces the log.
    let loser = db.begin();
    db.put(loser, &key(599), b"never-committed").unwrap();
    // Post-truncation activity, committed (durable in the WAL tail).
    let tx = db.begin();
    for i in 0..300 {
        db.put(tx, &key(i), &val(i, 2)).unwrap();
    }
    db.commit(tx).unwrap();

    db.crash();
    let report = db.restart().unwrap();
    assert!(
        report.analysis_start >= db.log().truncate_point(),
        "analysis starts from the checkpoint image, never below the cut"
    );
    assert!(report.losers >= 1, "the in-flight transaction lost");

    for i in 0..600u64 {
        let expect = if i < 300 { val(i, 2) } else { val(i, 1) };
        assert_eq!(db.get(&key(i)).unwrap(), Some(expect), "key {i}");
    }
    assert!(db.verify_tree().unwrap().is_empty());

    // Single-page recovery still succeeds against injected corruption
    // with the tail truncated (the acceptance bar for this subsystem).
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    for i in 0..600u64 {
        assert!(
            db.get(&key(i)).unwrap().is_some(),
            "key {i} post-corruption"
        );
    }
    let spf = db.stats().spf;
    assert!(spf.recoveries >= 1, "corruption was repaired inline");
    assert_eq!(spf.escalations, 0);
}

#[test]
fn media_recovery_replays_archived_history() {
    let db = Database::create(small_config(None)).unwrap();
    load(&db, 400);
    db.take_full_backup().unwrap();
    let tx = db.begin();
    for i in 0..400 {
        db.put(tx, &key(i), &val(i, 1)).unwrap();
    }
    db.commit(tx).unwrap();
    db.pool().flush_all().unwrap();
    db.checkpoint().unwrap();
    db.archive_now().unwrap();
    let dropped = db.truncate_wal().unwrap();
    assert!(dropped > 0);
    let (_, horizon) = db.last_full_backup().unwrap();
    assert!(
        horizon < db.log().truncate_point(),
        "the backup horizon predates the WAL tail — replay must start in the archive"
    );

    db.fail_device();
    db.pool().discard_all();
    let (media, _restart) = db.media_recover().unwrap();
    assert!(
        media.archive_records_replayed > 0,
        "replay drew on the archive runs"
    );
    for i in 0..400u64 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 1)), "key {i}");
    }
}

#[test]
fn truncation_is_refused_until_it_is_safe() {
    let db = Database::create(small_config(None)).unwrap();
    load(&db, 100);
    // No archive run, no checkpoint: nothing may be truncated.
    assert_eq!(db.safe_truncation_lsn(), Lsn::NULL);
    assert_eq!(db.truncate_wal().unwrap(), 0);

    // Archived but never checkpointed: still refused.
    db.archive_now().unwrap();
    assert_eq!(db.safe_truncation_lsn(), Lsn::NULL);
    assert_eq!(db.truncate_wal().unwrap(), 0);

    // A long-running transaction pins the safe LSN at its begin record.
    let pinned = db.begin();
    db.put(pinned, &key(0), b"pin").unwrap();
    db.checkpoint().unwrap();
    db.archive_now().unwrap();
    let safe_pinned = db.safe_truncation_lsn();
    db.commit(pinned).unwrap();
    db.checkpoint().unwrap();
    db.archive_now().unwrap();
    let safe_after = db.safe_truncation_lsn();
    assert!(
        safe_after > safe_pinned,
        "committing the old transaction advances the safe LSN \
         ({safe_pinned} -> {safe_after})"
    );
    assert!(db.truncate_wal().unwrap() > 0);
    // The engine still answers reads afterwards.
    for i in 0..100u64 {
        assert!(db.get(&key(i)).unwrap().is_some());
    }
}

#[test]
fn archiving_disabled_behaves_like_the_seed() {
    let db = Database::create(DatabaseConfig {
        archive: spf::ArchiveConfig::disabled(),
        ..small_config(None)
    })
    .unwrap();
    load(&db, 50);
    assert!(db.archive().is_none());
    assert!(matches!(db.archive_now(), Err(DbError::RecoveryFailed(_))));
    db.checkpoint().unwrap();
    assert_eq!(
        db.truncate_wal().unwrap(),
        0,
        "no archive watermark: the WAL may never be truncated"
    );
    assert_eq!(db.stats().archive, spf::ArchiveStats::default());
}

#[test]
fn leveled_merging_bounds_run_count_in_the_engine() {
    let db = Database::create(DatabaseConfig {
        archive: spf::ArchiveConfig {
            enabled: true,
            merge_fanout: 2,
        },
        ..small_config(None)
    })
    .unwrap();
    load(&db, 200);
    for gen in 1..=9u64 {
        let tx = db.begin();
        for i in 0..50 {
            db.put(tx, &key(i), &val(i, gen)).unwrap();
        }
        db.commit(tx).unwrap();
        db.archive_now().unwrap();
    }
    let archive = db.archive().unwrap();
    let counts = archive.level_run_counts();
    assert!(
        counts.iter().all(|&c| c < 2),
        "fanout-2 leveling leaves every level under 2 runs: {counts:?}"
    );
    let stats = db.stats().archive;
    assert!(stats.merges > 0);
    assert_eq!(stats.runs_written, 9);
    // History is intact across all those merges: recovery still works.
    db.pool().flush_all().unwrap();
    db.checkpoint().unwrap();
    db.archive_now().unwrap();
    assert!(db.truncate_wal().unwrap() > 0);
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    for i in 0..200u64 {
        assert!(db.get(&key(i)).unwrap().is_some(), "key {i}");
    }
    assert_eq!(db.stats().spf.escalations, 0);
}
