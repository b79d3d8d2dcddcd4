//! Log-manager throughput: appends, forces, per-page chain walks, record
//! encode/decode round trips — and, since the reservation-based segmented
//! rewrite, multi-threaded append and group-commit throughput.
//!
//! The concurrent benchmarks are the log's perf baseline: the
//! single-threaded numbers bound the per-append cost (and must not
//! regress against the old `Mutex<Vec<u8>>` log), while the
//! multi-threaded ones show reservation-based appends scaling where a
//! global lock serialized, and committers combining into shared
//! group-commit flushes.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use spf_obs::TraceCtx;
use spf_storage::PageId;
use spf_txn::{TxKind, TxnManager};
use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

fn update_record(page: u64, prev_page: Lsn) -> LogRecord {
    LogRecord {
        tx_id: TxId(1),
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId(page),
        prev_page_lsn: prev_page,
        payload: LogPayload::Update {
            op: PageOp::InsertRecord {
                pos: 0,
                bytes: vec![7u8; 64],
                ghost: false,
            },
        },
    }
}

/// Wall-clock time for `iters` appends spread across `threads` workers
/// against one shared log. Spawn/teardown is excluded via barriers.
fn concurrent_append_time(log: &LogManager, threads: usize, iters: u64) -> Duration {
    let per_thread = iters.div_ceil(threads as u64);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = log.clone();
            let barrier = &barrier;
            s.spawn(move || {
                let rec = update_record(t as u64, Lsn::NULL);
                barrier.wait();
                for _ in 0..per_thread {
                    std::hint::black_box(log.append(&rec));
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

/// Wall-clock time for `iters` one-update user commits spread across
/// `threads` committers on one shared transaction manager — the
/// group-commit path end to end.
fn concurrent_commit_time(threads: usize, iters: u64) -> Duration {
    let log = LogManager::for_testing();
    let mgr = TxnManager::new(log);
    let per_thread = iters.div_ceil(threads as u64);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let mgr = mgr.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    let tx = mgr.begin(TxKind::User);
                    mgr.log_update(
                        tx,
                        PageId(t as u64),
                        Lsn::NULL,
                        PageOp::InsertRecord {
                            pos: 0,
                            bytes: vec![7u8; 64],
                            ghost: false,
                        },
                    )
                    .unwrap();
                    std::hint::black_box(mgr.commit(tx, TraceCtx::NONE).unwrap());
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    group.sample_size(30);

    group.bench_function("append_64b_update", |b| {
        let log = LogManager::for_testing();
        b.iter(|| std::hint::black_box(log.append(&update_record(1, Lsn::NULL))))
    });

    // Append scaling: reservation-based appends against one shared log.
    // Per-iteration time shrinking with the thread count is the atomic
    // reservation + unlocked segment copy at work; the old global mutex
    // kept it flat (single-CPU CI shows flat here too).
    for threads in [2usize, 4, 8] {
        group.bench_function(format!("append_64b_update_threads_{threads}"), |b| {
            let log = LogManager::for_testing();
            b.iter_custom(|iters| concurrent_append_time(&log, threads, iters))
        });
    }

    group.bench_function("append_plus_force", |b| {
        let log = LogManager::for_testing();
        b.iter(|| {
            log.append(&update_record(1, Lsn::NULL));
            std::hint::black_box(log.force())
        })
    });

    // Group commit: concurrent one-update user commits sharing flushes.
    for threads in [1usize, 4] {
        group.bench_function(format!("commit_group_threads_{threads}"), |b| {
            b.iter_custom(|iters| concurrent_commit_time(threads, iters))
        });
    }

    group.bench_function("encode_decode_round_trip", |b| {
        let rec = update_record(42, Lsn(1234));
        b.iter(|| {
            let bytes = rec.encode();
            std::hint::black_box(LogRecord::decode(&bytes).unwrap())
        })
    });

    group.bench_function("chain_walk_100", |b| {
        let log = LogManager::for_testing();
        let mut prev = Lsn::NULL;
        for _ in 0..100 {
            prev = log.append(&update_record(9, prev));
        }
        log.force();
        b.iter(|| {
            let chain = log.scan_backward_chain(prev, Lsn::NULL).unwrap();
            assert_eq!(chain.len(), 100);
            std::hint::black_box(chain)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
