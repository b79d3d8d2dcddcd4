//! Restart-recovery integration tests against raw components: losers
//! that are system transactions (lost splits), interleaved losers and
//! winners, PRI-rebuild equivalence, and analysis from a checkpoint
//! image — a transaction straddling the scan point, a PriUpdate below
//! it, a dirty page whose update precedes it.

use std::sync::Arc;

use spf_btree::tree::PoolUndo;
use spf_buffer::{BufferPool, BufferPoolConfig};
use spf_obs::TraceCtx;
use spf_recovery::{CheckpointImage, PageRecoveryIndex, SystemRecovery};
use spf_storage::{Device, Page, PageId, PageType, DEFAULT_PAGE_SIZE};
use spf_txn::{TxKind, TxnManager};
use spf_wal::{BackupRef, LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

struct Fixture {
    device: Device,
    log: LogManager,
    pool: BufferPool,
    txn: TxnManager,
    pri: Arc<PageRecoveryIndex>,
}

fn fixture() -> Fixture {
    let device = Device::for_testing(DEFAULT_PAGE_SIZE, 64);
    for i in 0..64 {
        let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::BTreeLeaf);
        p.finalize_checksum();
        device.raw_overwrite(PageId(i), p.as_bytes());
    }
    let log = LogManager::for_testing();
    let pool = BufferPool::new(
        BufferPoolConfig { frames: 32 },
        Arc::new(device.clone()),
        log.clone(),
    );
    let txn = TxnManager::new(log.clone());
    Fixture {
        device,
        log,
        pool,
        txn,
        pri: Arc::new(PageRecoveryIndex::new()),
    }
}

fn apply_and_log(fx: &Fixture, tx: spf_wal::TxId, page: PageId, op: PageOp) -> Lsn {
    let mut guard = fx.pool.fetch_mut(page).unwrap();
    let prev = Lsn(guard.page_lsn());
    let (lsn, op) = fx.txn.log_update(tx, page, prev, op).unwrap();
    op.redo(&mut guard).unwrap();
    guard.mark_dirty(lsn);
    lsn
}

/// Restart over the raw components; compensations land where they were
/// logged (these tests have no tree to find records by key).
fn restart(fx: &Fixture) -> spf_recovery::RestartReport {
    SystemRecovery::new(fx.txn.clone(), fx.pool.clone())
        .run(&fx.pri, &|_p| {}, &PoolUndo::new(&fx.pool))
        .unwrap()
}

fn records_on(fx: &Fixture, page: PageId) -> Vec<Vec<u8>> {
    let guard = fx.pool.fetch(page).unwrap();
    (0..guard.slot_count())
        .filter_map(|i| guard.record_at(i).map(|(b, _)| b.to_vec()))
        .collect()
}

#[test]
fn uncommitted_system_transaction_is_rolled_back() {
    // The paper, §5.1.5: "should a system failure prevent logging the
    // commit log record of a system transaction, the system transaction
    // is lost. Since the system transaction is contents-neutral, a lost
    // system transaction cannot imply any data loss." Our restart makes
    // that true by rolling the partial structural change back.
    let fx = fixture();

    // A committed user transaction first (content that must survive).
    let user = fx.txn.begin(TxKind::User);
    apply_and_log(
        &fx,
        user,
        PageId(1),
        PageOp::InsertRecord {
            pos: 0,
            bytes: b"user-data".to_vec(),
            ghost: false,
        },
    );
    fx.txn.commit(user, TraceCtx::NONE).unwrap();

    // A system transaction mimicking half a split: removes a record from
    // page 1, inserts it into page 2 — then the system fails before its
    // commit record becomes durable.
    let sys = fx.txn.begin(TxKind::System);
    apply_and_log(
        &fx,
        sys,
        PageId(1),
        PageOp::RemoveRecord {
            pos: 0,
            old_bytes: b"user-data".to_vec(),
            old_ghost: false,
        },
    );
    apply_and_log(
        &fx,
        sys,
        PageId(2),
        PageOp::InsertRecord {
            pos: 0,
            bytes: b"user-data".to_vec(),
            ghost: false,
        },
    );
    // The structural updates are durable (e.g. carried out by a page
    // write), but the commit record is not:
    fx.log.force();
    // (no commit!)

    fx.pool.discard_all();
    fx.log.crash();

    let report = restart(&fx);
    assert_eq!(report.losers, 1);
    assert_eq!(report.system_losers, 1);
    assert_eq!(report.clrs_written, 2, "both structural updates undone");

    // Contents-neutrality restored: the record is back where it was.
    assert_eq!(records_on(&fx, PageId(1)), vec![b"user-data".to_vec()]);
    assert!(records_on(&fx, PageId(2)).is_empty());
}

#[test]
fn interleaved_winners_and_losers() {
    let fx = fixture();

    let winner = fx.txn.begin(TxKind::User);
    let loser = fx.txn.begin(TxKind::User);
    apply_and_log(
        &fx,
        winner,
        PageId(3),
        PageOp::InsertRecord {
            pos: 0,
            bytes: b"w0".to_vec(),
            ghost: false,
        },
    );
    apply_and_log(
        &fx,
        loser,
        PageId(3),
        PageOp::InsertRecord {
            pos: 1,
            bytes: b"l0".to_vec(),
            ghost: false,
        },
    );
    apply_and_log(
        &fx,
        winner,
        PageId(3),
        PageOp::InsertRecord {
            pos: 2,
            bytes: b"w1".to_vec(),
            ghost: false,
        },
    );
    fx.txn.commit(winner, TraceCtx::NONE).unwrap(); // forces; loser records durable too

    fx.pool.discard_all();
    fx.log.crash();

    let report = restart(&fx);
    assert_eq!(report.losers, 1);

    // Winner's records survive; loser's insert was compensated away.
    let contents = records_on(&fx, PageId(3));
    assert_eq!(contents, vec![b"w0".to_vec(), b"w1".to_vec()]);
}

#[test]
fn restart_rebuilds_pri_equivalently() {
    // PRI state after a crash+restart must let single-page recovery work
    // exactly as the pre-crash PRI did: rebuilt from PriUpdate/
    // BackupTaken/PageFormat records alone.
    let fx = fixture();
    let tx = fx.txn.begin(TxKind::User);
    for page in 4..10u64 {
        for rec in 0..5u16 {
            apply_and_log(
                &fx,
                tx,
                PageId(page),
                PageOp::InsertRecord {
                    pos: rec,
                    bytes: format!("p{page}-r{rec}").into_bytes(),
                    ghost: false,
                },
            );
        }
    }
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    // Flush everything; log PriUpdates by hand to model a maintainer.
    for page in 4..10u64 {
        fx.pool.flush_page(PageId(page)).unwrap();
        let guard = fx.pool.fetch(PageId(page)).unwrap();
        let lsn = Lsn(guard.page_lsn());
        drop(guard);
        fx.log.append(&spf_wal::LogRecord {
            tx_id: spf_wal::TxId::NONE,
            prev_tx_lsn: Lsn::NULL,
            page_id: PageId(page),
            prev_page_lsn: Lsn::NULL,
            payload: spf_wal::LogPayload::PriUpdate {
                page_lsn: lsn,
                backup: spf_wal::BackupRef::None,
            },
        });
        fx.pri.set_latest_lsn(PageId(page), lsn);
    }
    fx.log.force();
    let before: Vec<_> = (4..10u64).map(|p| fx.pri.lookup(PageId(p))).collect();

    fx.pool.discard_all();
    fx.log.crash();
    restart(&fx);

    let after: Vec<_> = (4..10u64).map(|p| fx.pri.lookup(PageId(p))).collect();
    for (b, a) in before.iter().zip(after.iter()) {
        assert_eq!(
            b.map(|e| e.latest_lsn),
            a.map(|e| e.latest_lsn),
            "rebuilt latest-LSN must match"
        );
    }
    let _ = fx.device;
}

fn insert(bytes: &[u8], pos: u16) -> PageOp {
    PageOp::InsertRecord {
        pos,
        bytes: bytes.to_vec(),
        ghost: false,
    }
}

/// A completed write-back as the PRI maintainer reports it: the page
/// written, the index set, then its PriUpdate appended.
fn write_back(fx: &Fixture, page: PageId) -> Lsn {
    fx.pool.flush_page(page).unwrap();
    let lsn = Lsn(fx.pool.fetch(page).unwrap().page_lsn());
    fx.pri.set_latest_lsn(page, lsn);
    fx.log.append(&LogRecord {
        tx_id: TxId::NONE,
        prev_tx_lsn: Lsn::NULL,
        page_id: page,
        prev_page_lsn: Lsn::NULL,
        payload: LogPayload::PriUpdate {
            page_lsn: lsn,
            backup: BackupRef::None,
        },
    });
    lsn
}

/// A checkpoint over the raw components, in the engine's order: scan
/// point and transaction table together; the dirty-page table and the
/// index; the begin record; write-back of the table's pages; the end
/// record and a force; the image. Returns the scan point.
fn checkpoint(fx: &Fixture) -> Lsn {
    let (scan_from, active_txns) = fx.txn.active_txns();
    let dirty_pages = fx.pool.settled_dirty_pages();
    let pri = fx.pri.dump();
    let begin = fx.log.append(&LogRecord {
        tx_id: TxId::NONE,
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId::INVALID,
        prev_page_lsn: Lsn::NULL,
        payload: LogPayload::CheckpointBegin {
            active_txns,
            dirty_pages: dirty_pages.clone(),
        },
    });
    for (page, _) in dirty_pages {
        write_back(fx, page);
    }
    fx.log.append(&LogRecord {
        tx_id: TxId::NONE,
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId::INVALID,
        prev_page_lsn: Lsn::NULL,
        payload: LogPayload::CheckpointEnd,
    });
    fx.log.force();
    let image = CheckpointImage {
        scan_from,
        begin,
        next_tx: fx.txn.next_id(),
        alloc_high_water: 0,
        pri,
    };
    fx.log.save_checkpoint_image(image.encode()).unwrap();
    scan_from
}

fn crash_and_restart(fx: &Fixture) -> spf_recovery::RestartReport {
    fx.pool.discard_all();
    fx.log.crash();
    restart(fx)
}

#[test]
fn a_transaction_straddling_the_scan_point_is_undone_whole() {
    let fx = fixture();
    let loser = fx.txn.begin(TxKind::User);
    let winner = fx.txn.begin(TxKind::User);
    apply_and_log(&fx, loser, PageId(20), insert(b"loser-before", 0));
    apply_and_log(&fx, winner, PageId(21), insert(b"winner-before", 0));
    let scan_from = checkpoint(&fx);
    // After the scan point: more of both, and only the winner commits.
    apply_and_log(&fx, loser, PageId(22), insert(b"loser-after", 0));
    apply_and_log(&fx, winner, PageId(22), insert(b"winner-after", 1));
    fx.txn.commit(winner, TraceCtx::NONE).unwrap();

    let report = crash_and_restart(&fx);
    assert_eq!(report.analysis_start, scan_from);
    assert_eq!(
        report.losers, 1,
        "the loser came from the checkpoint's table"
    );
    assert_eq!(report.clrs_written, 2, "undo reached below the scan point");
    assert!(records_on(&fx, PageId(20)).is_empty());
    assert_eq!(records_on(&fx, PageId(21)), vec![b"winner-before".to_vec()]);
    assert_eq!(records_on(&fx, PageId(22)), vec![b"winner-after".to_vec()]);
    assert!(report.max_tx_seen >= winner.0);
}

#[test]
fn a_pri_update_below_the_scan_point_comes_back_from_the_image() {
    let fx = fixture();
    let tx = fx.txn.begin(TxKind::User);
    apply_and_log(&fx, tx, PageId(30), insert(b"written", 0));
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    let written = write_back(&fx, PageId(30));
    fx.pri
        .set_backup(PageId(31), BackupRef::BackupPage(PageId(4)), Lsn(8));
    let scan_from = checkpoint(&fx);
    assert!(written < scan_from);
    let tail = fx.log.scan_from(scan_from).unwrap().len() as u64;

    let report = crash_and_restart(&fx);
    assert_eq!(report.analysis_records, tail, "only the tail is scanned");
    assert_eq!(
        fx.pri.lookup(PageId(30)).unwrap().latest_lsn,
        Some(written),
        "the write confirmed below the scan point is known"
    );
    assert_eq!(
        fx.pri.lookup(PageId(31)).unwrap().backup,
        BackupRef::BackupPage(PageId(4)),
        "an index entry no tail record mentions survives"
    );
    assert_eq!(report.redo_pages_read, 0);
}

#[test]
fn a_dirty_page_updated_before_the_scan_point_is_redone_from_it() {
    let fx = fixture();
    let tx = fx.txn.begin(TxKind::User);
    let before = apply_and_log(&fx, tx, PageId(40), insert(b"before", 0));
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();
    // Dirty at the checkpoint: in its table, written back by it.
    let scan_from = checkpoint(&fx);
    assert!(before < scan_from);
    let tx = fx.txn.begin(TxKind::User);
    apply_and_log(&fx, tx, PageId(40), insert(b"after", 1));
    fx.txn.commit(tx, TraceCtx::NONE).unwrap();

    let report = crash_and_restart(&fx);
    assert!(
        report.writes_confirmed_by_pri >= 1,
        "the checkpoint's own write-back confirms the page"
    );
    assert_eq!(
        report.redo_applied, 1,
        "only the update after the scan point"
    );
    assert_eq!(
        records_on(&fx, PageId(40)),
        vec![b"before".to_vec(), b"after".to_vec()]
    );
}

/// A system transaction still opens with a begin record: listed in a
/// checkpoint image, its kind is read back from that record, and its
/// structural updates on both sides of the scan point are undone where
/// they were made.
#[test]
fn a_system_loser_listed_by_a_checkpoint_is_undone_where_it_was_made() {
    let fx = fixture();
    let sys = fx.txn.begin(TxKind::System);
    apply_and_log(&fx, sys, PageId(30), insert(b"moved-before", 0));
    let scan_from = checkpoint(&fx);
    apply_and_log(&fx, sys, PageId(31), insert(b"moved-after", 0));
    fx.log.force();

    let report = crash_and_restart(&fx);
    assert_eq!(report.analysis_start, scan_from);
    assert_eq!((report.losers, report.system_losers), (1, 1));
    assert_eq!(report.clrs_written, 2);
    assert!(records_on(&fx, PageId(30)).is_empty());
    assert!(records_on(&fx, PageId(31)).is_empty());
}

/// A single-update transaction's record is a winner wherever it lies:
/// below the scan point it is in no checkpoint table, above it analysis
/// closes the transaction at the record itself. Neither is undone.
#[test]
fn self_committing_updates_on_both_sides_of_the_scan_point_are_winners() {
    let fx = fixture();
    let before = fx.txn.begin_single_update();
    apply_and_log(&fx, before, PageId(40), insert(b"before", 0));
    assert!(fx.txn.active_txns().1.is_empty());
    let scan_from = checkpoint(&fx);
    fx.txn.commit(before, TraceCtx::NONE).unwrap();
    let after = fx.txn.begin_single_update();
    apply_and_log(&fx, after, PageId(41), insert(b"after", 0));
    fx.txn.commit(after, TraceCtx::NONE).unwrap();

    let report = crash_and_restart(&fx);
    assert_eq!(report.analysis_start, scan_from);
    assert_eq!((report.losers, report.clrs_written), (0, 0));
    assert_eq!(records_on(&fx, PageId(40)), vec![b"before".to_vec()]);
    assert_eq!(records_on(&fx, PageId(41)), vec![b"after".to_vec()]);
}
