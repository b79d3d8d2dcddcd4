//! End-to-end integration tests: the full engine under crashes, media
//! failures, and every single-page failure mode the injector can produce.

use std::collections::BTreeMap;

use proptest::prelude::*;

use spf::{
    BackupPolicy, CorruptionMode, Database, DatabaseConfig, DbError, FailureClass, FaultSpec, Lsn,
    TxId,
};
use spf_wal::{LogPayload, LogRecord, PageOp};

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u64, gen: u64) -> Vec<u8> {
    format!("value-{i:08}-gen{gen}").into_bytes()
}

fn small_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
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

// ----------------------------------------------------------------------
// Durability and restart
// ----------------------------------------------------------------------

#[test]
fn committed_updates_survive_crash() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 500);
    db.crash();
    let report = db.restart().unwrap();
    assert!(
        report.redo_applied > 0,
        "nothing was flushed: redo must replay"
    );
    for i in 0..500 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)), "key {i}");
    }
    assert!(db.verify_tree().unwrap().is_empty());
}

#[test]
fn group_commit_telemetry_flows_through_db_stats() {
    let db = Database::create(small_config()).unwrap();
    for i in 0..50 {
        let tx = db.begin();
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
        db.commit(tx).unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.txn.user_commits, 50);
    // Single-threaded: no combined flushes, every commit pays one force
    // (engine startup and write-backs may add a few more).
    assert_eq!(stats.log.force_batches, 0);
    assert_eq!(stats.log.force_waiters_absorbed, 0);
    assert!(stats.forces_per_commit() >= 1.0);
    assert!(stats.log.bytes_per_force() > 0.0);
    // Flush accounting is exact: every durable byte was flushed once.
    assert_eq!(
        stats.log.bytes_forced,
        db.log().durable_lsn().0 - spf::Lsn::FIRST.0
    );
}

#[test]
fn uncommitted_updates_vanish_on_crash() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 100);
    // A transaction that never commits…
    let tx = db.begin();
    for i in 100..150 {
        db.insert(tx, &key(i), &val(i, 1)).unwrap();
    }
    db.put(tx, &key(5), b"overwritten").unwrap();
    // …crash without commit.
    db.crash();
    db.restart().unwrap();
    for i in 100..150 {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            None,
            "uncommitted insert {i} must vanish"
        );
    }
    assert_eq!(db.get(&key(5)).unwrap(), Some(val(5, 0)));
    assert!(db.verify_tree().unwrap().is_empty());
}

#[test]
fn loser_with_flushed_pages_is_rolled_back() {
    // The hard case: uncommitted updates that *did* reach the device
    // (stolen pages) must be undone by CLRs at restart.
    let db = Database::create(small_config()).unwrap();
    load(&db, 200);
    let tx = db.begin();
    for i in 0..50 {
        db.put(tx, &key(i), b"dirty-uncommitted").unwrap();
    }
    // Force the dirty pages out (the log is forced first per WAL).
    db.pool().flush_all().unwrap();
    db.crash();
    let report = db.restart().unwrap();
    assert!(report.losers >= 1);
    assert!(report.clrs_written >= 50, "flushed loser updates need CLRs");
    for i in 0..50 {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(val(i, 0)),
            "key {i} must be rolled back"
        );
    }
    assert!(db.verify_tree().unwrap().is_empty());
}

#[test]
fn restart_is_idempotent() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 300);
    db.crash();
    db.restart().unwrap();
    let all_once: Vec<_> = db.dump_all().unwrap();
    // Crash again immediately (recovery work itself unflushed) and rerun.
    db.crash();
    db.restart().unwrap();
    assert_eq!(db.dump_all().unwrap(), all_once);
}

#[test]
fn checkpoint_reduces_restart_redo() {
    let mk = || {
        let db = Database::create(small_config()).unwrap();
        load(&db, 800);
        db
    };
    // Without checkpoint.
    let db = mk();
    db.crash();
    let without = db.restart().unwrap();

    // With checkpoint (flushes dirty pages and logs PRI updates).
    let db = mk();
    db.checkpoint().unwrap();
    db.crash();
    let with = db.restart().unwrap();

    assert!(
        with.redo_pages_read < without.redo_pages_read,
        "checkpoint must cut redo reads: {} vs {}",
        with.redo_pages_read,
        without.redo_pages_read
    );
    assert!(
        with.writes_confirmed_by_pri > 0,
        "PRI records confirm the checkpoint writes"
    );
}

/// Key locks outlive the work they protect. While an abort is still
/// applying its physical inverse — stalled here on the leaf's latch,
/// which the test holds — a second writer of the same key is refused by
/// the lock table instead of slipping in under the rollback.
#[test]
fn key_locks_are_held_until_the_rollback_is_applied() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 10);
    let tx = db.begin();
    db.put(tx, &key(3), &val(3, 1)).unwrap();
    let latch = db.pool().fetch_mut(db.any_leaf_page().unwrap()).unwrap();
    let db = &db;
    let chain_reads = db.log().stats().random_record_reads;
    let refused = std::thread::scope(|s| {
        let aborter = s.spawn(move || db.abort(tx));
        // An abort reads its log chain, then blocks on the latch to
        // apply the inverse.
        while db.log().stats().random_record_reads == chain_reads {
            std::thread::yield_now();
        }
        let (send, recv) = std::sync::mpsc::channel();
        s.spawn(move || {
            let tx2 = db.begin();
            let put = db.put(tx2, &key(3), &val(3, 2));
            let _ = send.send(matches!(put, Err(DbError::Locked(_))));
            let _ = db.abort(tx2);
        });
        // A writer that got past the lock table is now parked on the
        // latch; the timeout turns that hang into a failure.
        let refused = recv.recv_timeout(std::time::Duration::from_secs(5));
        drop(latch);
        aborter.join().unwrap().unwrap();
        refused
    });
    assert_eq!(
        refused,
        Ok(true),
        "second writer must fail fast on the key lock"
    );
    assert_eq!(db.get(&key(3)).unwrap(), Some(val(3, 0)));
}

/// A transaction that logged nothing writes nothing and forces nothing:
/// a read-only one, committed or aborted, and a `put_auto` refused at its
/// key lock. Neither holds back WAL truncation.
#[test]
fn a_transaction_that_logged_nothing_appends_and_forces_nothing() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 10);
    let holder = db.begin();
    db.put(holder, &key(3), &val(3, 1)).unwrap();
    let log_stats = || {
        let s = db.log().stats();
        (s.records_appended, s.forces)
    };
    let before = log_stats();
    let read_only = db.begin();
    assert_eq!(db.get(&key(4)).unwrap(), Some(val(4, 0)));
    assert_eq!(db.commit(read_only).unwrap(), Lsn::NULL);
    let read_only = db.begin();
    assert_eq!(db.get(&key(5)).unwrap(), Some(val(5, 0)));
    assert_eq!(db.abort(read_only).unwrap(), Lsn::NULL);
    assert!(matches!(
        db.put_auto(&key(3), &val(3, 2)),
        Err(DbError::Locked(_))
    ));
    assert_eq!(log_stats(), before);
    let first = db.log().scan_from(Lsn::NULL).unwrap();
    let holder_first = first.iter().find(|(_, r)| r.tx_id == holder).unwrap().0;
    assert_eq!(db.txn_manager().oldest_active_begin(), Some(holder_first));
    db.commit(holder).unwrap();
    assert_eq!(db.txn_manager().oldest_active_begin(), None);
    assert_eq!(db.txn_manager().active_count(), 0, "no transaction leaks");
}

/// Rollback finds a record where it is now. A loser's insert, replace
/// and delete are followed by committed inserts that shift its slots and
/// split its leaf; undo — at abort and at restart alike — restores
/// exactly the loser's keys and nothing else.
#[test]
fn rollback_finds_records_that_moved_since_they_were_logged() {
    // Keys 1000 + 3j exist; the loser inserts a 1000 + 3j + 2 key and
    // rewrites two existing ones; others commit the 1000 + 3j + 1 keys.
    let (fresh, replaced, deleted) = (1152, 1180, 1015);
    let big = |i: u64, generation: u64| [val(i, generation), vec![b'.'; 160]].concat();
    for crash in [false, true] {
        let db = Database::create(small_config()).unwrap();
        for j in 0..100 {
            db.put_auto(&key(1000 + 3 * j), &big(1000 + 3 * j, 0))
                .unwrap();
        }
        let loser = db.begin();
        db.put(loser, &key(fresh), &big(fresh, 9)).unwrap();
        db.put(loser, &key(replaced), b"replaced by the loser")
            .unwrap();
        db.delete(loser, &key(deleted)).unwrap();
        let splits = db.stats().tree.leaf_splits;
        for j in 0..100 {
            db.put_auto(&key(1001 + 3 * j), &big(1001 + 3 * j, 1))
                .unwrap();
        }
        assert!(
            db.stats().tree.leaf_splits > splits,
            "the loser's leaves split"
        );
        if crash {
            db.log().force();
            db.crash();
            assert_eq!(db.restart().unwrap().losers, 1);
        } else {
            db.abort(loser).unwrap();
        }
        for i in 1000..1300 {
            let want = match (i - 1000) % 3 {
                0 => Some(big(i, 0)),
                1 => Some(big(i, 1)),
                _ => None,
            };
            assert_eq!(db.get(&key(i)).unwrap(), want, "crash={crash} key {i}");
        }
        assert!(db.verify_tree().unwrap().is_empty());
    }
}

// ----------------------------------------------------------------------
// Single-page failures: every injected mode, detected and repaired
// ----------------------------------------------------------------------

fn fault_matrix() -> Vec<(&'static str, FaultSpec)> {
    vec![
        (
            "bit-rot",
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 16 }),
        ),
        (
            "zero-page",
            FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
        ),
        ("hard-read-error", FaultSpec::HardReadError),
        (
            "torn-write",
            FaultSpec::TornWrite {
                persisted_prefix: 512,
            },
        ),
        (
            "stale-version",
            FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
        ),
    ]
}

#[test]
fn every_fault_mode_is_detected_and_repaired() {
    for (name, fault) in fault_matrix() {
        let db = Database::create(small_config()).unwrap();
        load(&db, 1500);
        db.checkpoint().unwrap();

        let victim = db.any_leaf_page().expect("tree has leaves");
        db.inject_fault(victim, fault.clone());

        // For write-affecting faults, produce a post-fault write.
        let tx = db.begin();
        for i in 0..1500 {
            db.put(tx, &key(i), &val(i, 2)).unwrap();
        }
        db.commit(tx).unwrap();
        db.drop_cache(); // force re-reads through Figure 8

        // Every key must still be readable — the failure is absorbed.
        for i in 0..1500 {
            assert_eq!(
                db.get(&key(i)).unwrap(),
                Some(val(i, 2)),
                "fault {name}: key {i} lost"
            );
        }
        let stats = db.stats();
        assert!(
            stats.spf.recoveries >= 1 || stats.pool.pages_recovered >= 1,
            "fault {name}: no recovery recorded: {stats:?}"
        );
        assert!(
            db.verify_tree().unwrap().is_empty(),
            "fault {name}: tree damaged"
        );
    }
}

#[test]
fn traditional_engine_escalates_instead() {
    // Same scenario, single_page_recovery disabled: Figure 1's escalation.
    let db = Database::create(DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
        ..DatabaseConfig::traditional()
    })
    .unwrap();
    load(&db, 1500);
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 16 }),
    );
    db.drop_cache();

    let mut escalated = false;
    for i in 0..1500 {
        match db.get(&key(i)) {
            Err(DbError::Failure { class, .. }) => {
                assert_eq!(
                    class,
                    FailureClass::Media,
                    "multi-device node -> media failure"
                );
                escalated = true;
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(
        escalated,
        "a traditional engine must declare a media failure"
    );

    // On a single-device node, the same failure is a *system* failure.
    let db = Database::create(DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
        single_device_node: true,
        ..DatabaseConfig::traditional()
    })
    .unwrap();
    load(&db, 1500);
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    let mut class_seen = None;
    for i in 0..1500 {
        if let Err(DbError::Failure { class, .. }) = db.get(&key(i)) {
            class_seen = Some(class);
            break;
        }
    }
    assert_eq!(class_seen, Some(FailureClass::System));
}

#[test]
fn lost_write_is_caught_only_by_pri_cross_check() {
    // The introduction's nightmare: a device acknowledging writes it
    // drops. The stale image passes every in-page test; only the PageLSN
    // cross-check against the page recovery index notices.
    let db = Database::create(small_config()).unwrap();
    load(&db, 1500);
    db.checkpoint().unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
    );

    // Update everything (the victim included), flush, drop cache.
    let tx = db.begin();
    for i in 0..1500 {
        db.put(tx, &key(i), &val(i, 9)).unwrap();
    }
    db.commit(tx).unwrap();
    db.drop_cache();

    for i in 0..1500 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 9)), "key {i}");
    }
    let stats = db.stats();
    assert!(
        stats.pool.detected_stale_lsn >= 1,
        "staleness must be caught by the PRI cross-check: {stats:?}"
    );
    assert_eq!(
        stats.pool.detected_checksum, 0,
        "checksums cannot see lost writes"
    );
}

#[test]
fn multiple_simultaneous_page_failures() {
    let db = Database::create(DatabaseConfig {
        data_pages: 4096,
        pool_frames: 128,
        ..DatabaseConfig::default()
    })
    .unwrap();
    load(&db, 5000);
    db.checkpoint().unwrap();

    let leaves = db.leaf_pages();
    assert!(leaves.len() >= 16);
    // Fail a quarter of all leaves at once, mixed modes.
    let victims: Vec<_> = leaves.iter().step_by(4).copied().collect();
    for (i, &v) in victims.iter().enumerate() {
        let fault = match i % 3 {
            0 => FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
            1 => FaultSpec::HardReadError,
            _ => FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
        };
        db.inject_fault(v, fault);
    }
    db.drop_cache();

    for i in 0..5000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)), "key {i}");
    }
    let stats = db.stats();
    assert!(
        stats.spf.recoveries as usize >= victims.len(),
        "all {} victims must recover, got {}",
        victims.len(),
        stats.spf.recoveries
    );
    assert!(db.verify_tree().unwrap().is_empty());
}

#[test]
fn failure_detected_mid_transaction_does_not_abort_it() {
    // The paper's headline: "it is not even required that any
    // transactions terminate."
    let db = Database::create(small_config()).unwrap();
    load(&db, 1500);
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();

    let tx = db.begin();
    // This transaction reads and writes across the failure.
    for i in 0..1500 {
        let old = db.get(&key(i)).unwrap();
        assert_eq!(old, Some(val(i, 0)));
        db.put(tx, &key(i), &val(i, 3)).unwrap();
    }
    db.commit(tx).unwrap();
    assert!(db.stats().spf.recoveries >= 1);
    assert_eq!(db.get(&key(7)).unwrap(), Some(val(7, 3)));
}

// ----------------------------------------------------------------------
// Media recovery and backups
// ----------------------------------------------------------------------

#[test]
fn media_recovery_restores_whole_device() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 1000);
    db.take_full_backup().unwrap();

    // More committed work after the backup.
    let tx = db.begin();
    for i in 1000..1200 {
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
    }
    for i in 0..100 {
        db.put(tx, &key(i), &val(i, 7)).unwrap();
    }
    db.commit(tx).unwrap();

    // The whole device fails.
    db.fail_device();
    db.pool().discard_all();
    assert!(matches!(db.get(&key(1)), Err(DbError::Failure { .. })));

    let (media, _restart) = db.media_recover().unwrap();
    assert_eq!(media.pages_restored, db.config().data_pages);
    assert!(media.redo_applied > 0, "post-backup updates must replay");

    for i in 0..100 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 7)));
    }
    for i in 1000..1200 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)));
    }
    assert!(db.verify_tree().unwrap().is_empty());
}

/// A CRC-valid update whose chain pointer is another leaf's head is a
/// cross-linked record: both media restores refuse it and name its LSN,
/// instead of ghosting a committed key on the restored device.
#[test]
fn media_recovery_refuses_a_cross_linked_record() {
    type Recover = fn(&Database) -> Result<(), DbError>;
    let inputs: [(&str, Recover); 2] = [
        ("media_recover", |db| db.media_recover().map(drop)),
        ("media_recover_from_mirror", |db| {
            db.media_recover_from_mirror().map(drop)
        }),
    ];
    for (name, recover) in inputs {
        let db = Database::create(DatabaseConfig {
            mirror: true,
            ..small_config()
        })
        .unwrap();
        load(&db, 1000);
        db.take_full_backup().unwrap();
        let leaves = db.leaf_pages();
        let head = |id| Lsn(db.pool().fetch(id).unwrap().page_lsn());
        let lsn = db.log().append(&LogRecord {
            tx_id: TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: leaves[0],
            prev_page_lsn: head(leaves[1]),
            payload: LogPayload::Update {
                op: PageOp::SetGhost {
                    pos: 1,
                    key: Vec::new(),
                    old: false,
                    new: true,
                },
            },
        });
        db.log().force();

        db.fail_device();
        let err = recover(&db).expect_err(name);
        assert!(
            matches!(&err, DbError::RecoveryFailed(m) if m.contains(&format!("at {lsn}"))),
            "{name}: {err}"
        );
    }
}

#[test]
fn single_page_recovery_works_from_full_backup_entry() {
    // After a full backup the PRI holds one range entry; a page failure
    // must recover through the FullBackup reference + per-page chain.
    let db = Database::create(DatabaseConfig {
        backup_policy: BackupPolicy::disabled(), // no per-page backups
        ..small_config()
    })
    .unwrap();
    load(&db, 1500);
    db.take_full_backup().unwrap();
    let entries_after_backup = db.stats().pri.entries;

    // Post-backup updates create per-page chains beyond the backup.
    let tx = db.begin();
    for i in 0..1500 {
        db.put(tx, &key(i), &val(i, 4)).unwrap();
    }
    db.commit(tx).unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    for i in 0..1500 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 4)), "key {i}");
    }
    let stats = db.stats();
    assert!(stats.spf.recoveries >= 1);
    assert!(
        stats.spf.chain_records_fetched > 0,
        "chain replay over the backup image"
    );
    assert!(
        entries_after_backup <= 2,
        "full backup must compress the PRI"
    );
}

#[test]
fn pri_rebuild_after_crash_still_recovers_pages() {
    // Crash (PRI is volatile) → restart rebuilds it from the log → a page
    // failure afterwards still recovers.
    let db = Database::create(small_config()).unwrap();
    load(&db, 1500);
    db.checkpoint().unwrap();
    db.crash();
    db.restart().unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    for i in 0..1500 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)), "key {i}");
    }
    assert!(db.stats().spf.recoveries >= 1);
}

#[test]
fn failure_during_restart_redo_recovers_inline() {
    // A page fails *while restart recovery itself* is reading it: the
    // recoverer is already wired, so redo's fetch recovers inline.
    let db = Database::create(small_config()).unwrap();
    load(&db, 1000);
    db.checkpoint().unwrap();
    let tx = db.begin();
    for i in 0..1000 {
        db.put(tx, &key(i), &val(i, 5)).unwrap();
    }
    db.commit(tx).unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.crash();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.restart().unwrap();
    for i in 0..1000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 5)), "key {i}");
    }
}

// ----------------------------------------------------------------------
// Property: crash-recovery equivalence
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Random committed transactions + a crash at a random point ⇒ after
    /// restart the database equals exactly the committed prefix.
    #[test]
    fn prop_crash_recovery_equivalence(
        txns in proptest::collection::vec(
            proptest::collection::vec((0u64..300, 0u64..1000, prop::bool::ANY), 1..20),
            1..12
        ),
        crash_after in 0usize..12,
        do_checkpoint in prop::bool::ANY,
    ) {
        let db = Database::create(DatabaseConfig {
            data_pages: 2048,
            pool_frames: 32, // tiny pool: constant eviction + write-back
            ..DatabaseConfig::default()
        }).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for (t, ops) in txns.iter().enumerate() {
            if t == crash_after {
                break;
            }
            let tx = db.begin();
            let mut staged = model.clone();
            for (ki, vi, is_delete) in ops {
                let k = key(*ki);
                if *is_delete {
                    match db.delete(tx, &k) {
                        Ok(_) => { staged.remove(&k); },
                        Err(DbError::Tree(spf_btree::BTreeError::KeyNotFound)) => {},
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                } else {
                    let v = val(*ki, *vi);
                    db.put(tx, &k, &v).unwrap();
                    staged.insert(k, v);
                }
            }
            db.commit(tx).unwrap();
            model = staged;
            if do_checkpoint && t == crash_after / 2 {
                db.checkpoint().unwrap();
            }
        }

        // One more transaction that never commits.
        let tx = db.begin();
        db.put(tx, b"never", b"committed").unwrap();

        db.crash();
        db.restart().unwrap();

        let got = db.dump_all().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(db.get(b"never").unwrap(), None);
        prop_assert!(db.verify_tree().unwrap().is_empty());
    }
}

#[test]
fn recover_then_relocate_off_bad_block() {
    // The complete §5.2.3 story: a page fails, single-page recovery
    // repairs it inline, and the page is then moved to a new location
    // with the old one retired on the bad-block list.
    let db = Database::create(small_config()).unwrap();
    load(&db, 1500);
    db.checkpoint().unwrap();

    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();

    // Reads repair inline…
    for i in 0..1500 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 0)));
    }
    assert!(db.stats().spf.recoveries >= 1);

    // …then the repaired page moves off the suspect block.
    let new_pid = db.relocate_page(victim).unwrap();
    assert_ne!(new_pid, victim);
    db.drop_cache();

    for i in 0..1500 {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(val(i, 0)),
            "key {i} after relocation"
        );
    }
    assert!(db.verify_tree().unwrap().is_empty());

    // The relocated page is itself recoverable (format record = backup).
    db.inject_fault(
        new_pid,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    for i in 0..1500 {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(val(i, 0)),
            "key {i} after second failure"
        );
    }
    assert!(db.stats().spf.recoveries >= 2);
}

#[test]
fn relocation_survives_crash_and_restart() {
    let db = Database::create(small_config()).unwrap();
    load(&db, 1000);
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().unwrap();
    let _new_pid = db.relocate_page(victim).unwrap();
    // Post-relocation updates, then crash before everything flushes.
    let tx = db.begin();
    for i in 0..1000 {
        db.put(tx, &key(i), &val(i, 8)).unwrap();
    }
    db.commit(tx).unwrap();
    db.crash();
    db.restart().unwrap();
    for i in 0..1000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 8)), "key {i}");
    }
    assert!(db.verify_tree().unwrap().is_empty());
}
