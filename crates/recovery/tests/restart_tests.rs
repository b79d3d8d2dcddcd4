//! Restart-recovery integration tests against raw components: losers
//! that are system transactions (lost splits), interleaved losers and
//! winners, and PRI-rebuild equivalence.

use std::sync::Arc;

use spf_buffer::{BufferPool, BufferPoolConfig};
use spf_obs::TraceCtx;
use spf_recovery::{PageRecoveryIndex, SystemRecovery};
use spf_storage::{MemDevice, Page, PageId, PageType, DEFAULT_PAGE_SIZE};
use spf_txn::{TxKind, TxnManager};
use spf_wal::{LogManager, Lsn, PageOp};

struct Fixture {
    device: MemDevice,
    log: LogManager,
    pool: BufferPool,
    txn: TxnManager,
    pri: Arc<PageRecoveryIndex>,
}

fn fixture() -> Fixture {
    let device = MemDevice::for_testing(DEFAULT_PAGE_SIZE, 64);
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
    let lsn = fx.txn.log_update(tx, page, prev, op.clone()).unwrap();
    op.redo(&mut guard);
    guard.mark_dirty(lsn);
    lsn
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

    let recovery = SystemRecovery::new(fx.log.clone(), fx.pool.clone());
    let report = recovery.run(&fx.pri, &|_p| {}).unwrap();
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

    let recovery = SystemRecovery::new(fx.log.clone(), fx.pool.clone());
    let report = recovery.run(&fx.pri, &|_p| {}).unwrap();
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
    let recovery = SystemRecovery::new(fx.log.clone(), fx.pool.clone());
    recovery.run(&fx.pri, &|_p| {}).unwrap();

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
