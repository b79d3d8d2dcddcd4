//! Log-archive hot paths: draining the WAL into a run, per-page history
//! queries (the single-page-recovery read path), leveled merging, and
//! the serialized round trip with its CRC footer.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spf_archive::{ArchiveStore, LogArchiver, MergePolicy, RunBuilder};
use spf_storage::PageId;
use spf_util::{IoCostModel, SimClock};
use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

const PAGES: u64 = 64;
const RECORDS: u64 = 4096;

fn update_record(page: u64, prev_page: Lsn) -> LogRecord {
    LogRecord {
        tx_id: TxId(1),
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId(page),
        prev_page_lsn: prev_page,
        payload: LogPayload::Update {
            op: PageOp::replace(0, Vec::new(), &[3u8; 32], &[4u8; 32]),
        },
    }
}

/// A WAL carrying `RECORDS` updates round-robined over `PAGES` pages.
fn populated_log() -> LogManager {
    let log = LogManager::for_testing();
    let mut prev = vec![Lsn::NULL; PAGES as usize];
    for i in 0..RECORDS {
        let page = i % PAGES;
        let lsn = log.append(&update_record(page, prev[page as usize]));
        prev[page as usize] = lsn;
    }
    log.force();
    log
}

fn store() -> Arc<ArchiveStore> {
    Arc::new(ArchiveStore::new(
        Arc::new(SimClock::new()),
        IoCostModel::free(),
        MergePolicy::leveled_default(),
    ))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_archive");
    group.sample_size(20);

    group.bench_function("drain_4k_records_into_run", |b| {
        let log = populated_log();
        b.iter_batched(
            || LogArchiver::new(log.clone(), store()),
            |archiver| std::hint::black_box(archiver.archive_up_to_durable().unwrap()),
            BatchSize::PerIteration,
        )
    });

    group.bench_function("page_history_64_of_4k", |b| {
        let log = populated_log();
        let store = store();
        LogArchiver::new(log, Arc::clone(&store))
            .archive_up_to_durable()
            .unwrap();
        b.iter(|| {
            std::hint::black_box(
                store
                    .page_history(PageId(17), Lsn::NULL, Lsn(u64::MAX >> 1))
                    .unwrap(),
            )
        })
    });

    group.bench_function("run_encode_decode_round_trip", |b| {
        let mut builder = RunBuilder::new();
        let mut lsn = 8u64;
        for i in 0..RECORDS {
            builder.push(Lsn(lsn), update_record(i % PAGES, Lsn::NULL));
            lsn += 90;
        }
        let run = builder.finish(0, Lsn(8), Lsn(lsn));
        b.iter(|| {
            let bytes = run.encode();
            std::hint::black_box(spf_archive::ArchiveRun::from_bytes(&bytes).unwrap())
        })
    });

    group.bench_function("leveled_merge_8_runs", |b| {
        b.iter_batched(
            || {
                // Eight single-window runs, fanout 8: installing the last
                // one triggers exactly one 8-way merge.
                let store = Arc::new(ArchiveStore::new(
                    Arc::new(SimClock::new()),
                    IoCostModel::free(),
                    MergePolicy { fanout: 8 },
                ));
                let mut runs = Vec::new();
                let mut lsn = 8u64;
                for _ in 0..8 {
                    let start = lsn;
                    let mut builder = RunBuilder::new();
                    for i in 0..RECORDS / 8 {
                        builder.push(Lsn(lsn), update_record(i % PAGES, Lsn::NULL));
                        lsn += 90;
                    }
                    runs.push(builder.finish(store.allocate_run_id(), Lsn(start), Lsn(lsn)));
                }
                (store, runs)
            },
            |(store, runs)| {
                for run in runs {
                    store.append_run(run).unwrap();
                }
                std::hint::black_box(store.stats().merges)
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
