//! Multi-threaded stress tests for the reservation-based segmented log
//! and the group-commit force path, mirroring the buffer pool's suite.
//!
//! The concurrency contract pinned down here:
//!
//! * racing appenders receive unique, **densely packed** LSNs — every
//!   byte between the log header and the appended end belongs to
//!   exactly one record;
//! * a reader through `scan_records` never observes a torn record, no
//!   matter how the scan races the appenders (the scanner bounds itself
//!   by the contiguously complete watermark);
//! * N concurrent committers combine into fewer than N log flushes
//!   (group commit), and the force telemetry reconciles;
//! * the WAL-before-page-write rule holds while buffer-pool write-back
//!   races committers on the shared combined-force path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use spf_buffer::{BufferPool, BufferPoolConfig, PoolHooks, WriteObserver};
use spf_obs::TraceCtx;
use spf_storage::{MemDevice, Page, PageId, PageType, DEFAULT_PAGE_SIZE};
use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

fn update_record(tx: u64, page: u64, body: usize) -> LogRecord {
    LogRecord {
        tx_id: TxId(tx),
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId(page),
        prev_page_lsn: Lsn::NULL,
        payload: LogPayload::Update {
            op: PageOp::InsertRecord {
                pos: 0,
                bytes: vec![tx as u8; body],
                ghost: false,
            },
        },
    }
}

/// Racing appenders must carve the virtual byte sequence into unique,
/// gap-free records: sorting everyone's `(lsn, len)` pairs must tile
/// `[FIRST, end)` exactly.
#[test]
fn racing_appenders_get_unique_densely_packed_lsns() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 1_000;
    let log = LogManager::for_testing();
    let barrier = Barrier::new(THREADS);

    let mut per_thread: Vec<Vec<(Lsn, u64)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = log.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(PER_THREAD);
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Vary the record size so reservations interleave
                        // at odd offsets and straddle segment boundaries.
                        let rec = update_record(t as u64 + 1, i as u64 % 16, 1 + (i % 97));
                        let len = rec.encode().len() as u64;
                        out.push((log.append(&rec), len));
                    }
                    out
                })
            })
            .collect();
        per_thread = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    let mut all: Vec<(Lsn, u64)> = per_thread.into_iter().flatten().collect();
    assert_eq!(all.len(), THREADS * PER_THREAD);
    all.sort_unstable_by_key(|(lsn, _)| *lsn);
    let mut expect = Lsn::FIRST;
    for &(lsn, len) in &all {
        assert_eq!(
            lsn, expect,
            "records must tile the log densely: gap or overlap at {lsn}"
        );
        expect = Lsn(lsn.0 + len);
    }
    assert_eq!(expect, log.end_lsn(), "last record ends exactly at the end");
    let stats = log.stats();
    assert_eq!(stats.records_appended, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.bytes_appended, log.end_lsn().0 - Lsn::FIRST.0);

    // Every record reads back intact through the random-access path.
    for &(lsn, _) in all.iter().step_by(317) {
        assert!(log.read_record(lsn).is_ok(), "record at {lsn} readable");
    }
}

/// A scanner racing appenders must never surface a torn or half-copied
/// record: every item is `Ok` and scans only grow.
#[test]
fn scan_never_observes_a_torn_record() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_000;
    let log = LogManager::for_testing();
    let done = AtomicBool::new(false);
    // Appenders + scanner.
    let barrier = Barrier::new(THREADS + 1);

    std::thread::scope(|s| {
        let scan_log = log.clone();
        let done = &done;
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            let mut last_seen = 0usize;
            loop {
                let finished = done.load(Ordering::Acquire);
                let mut seen = 0usize;
                for item in scan_log.scan_records(Lsn::NULL).unwrap() {
                    let (lsn, record) = item.expect("scan must never observe a torn record");
                    assert!(lsn.is_valid());
                    assert!(
                        matches!(record.payload, LogPayload::Update { .. }),
                        "decoded garbage"
                    );
                    seen += 1;
                }
                assert!(seen >= last_seen, "a later scan can only see more");
                last_seen = seen;
                if finished {
                    assert_eq!(seen, THREADS * PER_THREAD, "final scan sees every record");
                    break;
                }
            }
        });
        let appenders: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = log.clone();
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        log.append(&update_record(t as u64 + 1, i as u64 % 8, 1 + (i % 61)));
                    }
                })
            })
            .collect();
        // Join the appenders, then let the scanner run one final full
        // pass — also when an appender panicked, so that the test fails
        // instead of leaving the scanner spinning on a flag nobody sets.
        let outcomes: Vec<_> = appenders.into_iter().map(|a| a.join()).collect();
        done.store(true, Ordering::Release);
        for outcome in outcomes {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// N concurrent committers through the transaction manager: durability
/// for every commit, strictly fewer flushes than commits is allowed and
/// expected (group commit), and the telemetry reconciles.
#[test]
fn concurrent_committers_share_group_commit_flushes() {
    use spf_txn::{TxKind, TxnManager};

    const THREADS: usize = 8;
    const COMMITS: usize = 60;
    let log = LogManager::for_testing();
    let mgr = TxnManager::new(log.clone());
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mgr = mgr.clone();
            let log = log.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..COMMITS {
                    let tx = mgr.begin(TxKind::User);
                    mgr.log_update(
                        tx,
                        PageId(t as u64),
                        Lsn::NULL,
                        PageOp::InsertRecord {
                            pos: 0,
                            bytes: vec![i as u8; 24],
                            ghost: false,
                        },
                    )
                    .unwrap();
                    let commit_lsn = mgr.commit(tx, TraceCtx::NONE).unwrap();
                    assert!(
                        log.durable_lsn() > commit_lsn,
                        "commit must not return before its record is durable"
                    );
                }
            });
        }
    });

    let commits = (THREADS * COMMITS) as u64;
    let stats = log.stats();
    assert_eq!(mgr.stats().user_commits, commits);
    assert!(stats.forces >= 1);
    assert!(
        stats.forces <= commits,
        "group commit must never flush more often than commits: {} > {commits}",
        stats.forces
    );
    assert!(
        stats.force_waiters_absorbed < commits,
        "every force session has a non-absorbed leader"
    );
    assert!(
        stats.force_batches <= stats.forces,
        "a batch is a kind of flush"
    );
    // The globally last record is some thread's final commit, and its
    // force covers everything before it: the log ends durable.
    assert_eq!(log.durable_lsn(), log.end_lsn());
    // Every durable byte was flushed exactly once, whoever led.
    assert_eq!(stats.bytes_forced, log.durable_lsn().0 - Lsn::FIRST.0);
    assert!(stats.bytes_per_force() > 0.0);
}

/// Write observer asserting the WAL rule at the exact point the pool is
/// about to write the page image: everything up to the page's PageLSN
/// must already be durable.
struct WalRuleObserver {
    log: LogManager,
    checked: AtomicU64,
}

impl WriteObserver for WalRuleObserver {
    fn before_page_write(&self, page: &mut Page) {
        let durable = self.log.durable_lsn();
        assert!(
            durable.0 > page.page_lsn(),
            "WAL rule violated: writing page with PageLSN {} while durable end is {durable}",
            page.page_lsn()
        );
        self.checked.fetch_add(1, Ordering::Relaxed);
    }
}

/// Buffer-pool write-back (force_through + device write) racing user
/// commits on the shared combined-force path: the write-ahead rule must
/// hold for every page image that reaches the device.
#[test]
fn wal_rule_holds_when_write_back_races_group_commit() {
    use spf_txn::{TxKind, TxnManager};

    const WRITERS: usize = 4;
    const COMMITTERS: usize = 4;
    const OPS: usize = 150;
    const PAGES: u64 = 32;

    let device = MemDevice::for_testing(DEFAULT_PAGE_SIZE, PAGES);
    for i in 0..PAGES {
        let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::BTreeLeaf);
        p.finalize_checksum();
        device.raw_overwrite(PageId(i), p.as_bytes());
    }
    let log = LogManager::for_testing();
    // Far fewer frames than pages: constant eviction write-back.
    let observer = Arc::new(WalRuleObserver {
        log: log.clone(),
        checked: AtomicU64::new(0),
    });
    let pool = BufferPool::with_hooks(
        BufferPoolConfig { frames: 8 },
        Arc::new(device.clone()),
        log.clone(),
        PoolHooks {
            observer: Some(Arc::clone(&observer) as _),
            ..PoolHooks::default()
        },
    );
    let mgr = TxnManager::new(log.clone());
    let barrier = Barrier::new(WRITERS + COMMITTERS);

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let pool = pool.clone();
            let log = log.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let id = PageId(((t * 31 + i * 7) as u64) % PAGES);
                    let Ok(mut g) = pool.fetch_mut(id) else {
                        continue; // transiently out of frames
                    };
                    // Log first, then update the page under the latch —
                    // the WAL discipline every caller follows.
                    let lsn = log.append(&update_record(t as u64 + 1, id.0, 16));
                    g.mark_dirty(lsn);
                    drop(g);
                    if i % 13 == 0 {
                        pool.flush_page(id).expect("flush_page");
                    }
                }
            });
        }
        for t in 0..COMMITTERS {
            let mgr = mgr.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let tx = mgr.begin(TxKind::User);
                    mgr.log_update(
                        tx,
                        PageId((t as u64 + 17) % PAGES),
                        Lsn::NULL,
                        PageOp::InsertRecord {
                            pos: 0,
                            bytes: vec![i as u8; 8],
                            ghost: false,
                        },
                    )
                    .unwrap();
                    mgr.commit(tx, TraceCtx::NONE).unwrap();
                }
            });
        }
    });

    pool.flush_all().expect("flush_all");
    assert!(
        observer.checked.load(Ordering::Relaxed) > 0,
        "write-backs must actually have run"
    );
    // Nothing volatile below any written page: a crash now loses no
    // page's history.
    let durable = log.crash();
    assert_eq!(durable, log.durable_lsn());
}
