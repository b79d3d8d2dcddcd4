//! Prefetch-path micro-benchmarks: the delta predictor's observe/predict
//! hot path (runs on every foreground fault), the governor's token-bucket
//! draw (runs on every background read), and the full asynchronous
//! install pipeline `prefetch_page` — read, verify, claim, publish —
//! under eviction pressure.
//!
//! The first two bound the bookkeeping tax the prefetch subsystem adds
//! to paths that existed before it; the third is the background work it
//! buys with that tax.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use spf_bench::{engine, load};
use spf_prefetch::{AccessContext, BackgroundIo, DeltaPredictor, GovernorConfig, IoGovernor};
use spf_util::SimClock;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetch");
    group.sample_size(20);

    // Fault-path tax: one observe (feed the delta table) plus one
    // predict (extrapolate the dominant stride). The predictor sits on
    // every buffer-pool miss, so this pair is the per-fault overhead.
    let predictor = DeltaPredictor::new();
    group.bench_function("predictor_observe_predict", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            predictor.observe(spf::PageId(i * 3), AccessContext::Scan);
            std::hint::black_box(predictor.predict(
                spf::PageId(i * 3),
                AccessContext::Scan,
                4,
                u64::MAX,
            ))
        })
    });

    // Background-read tax: one token-bucket draw against a budget wide
    // enough never to refuse, so the bench measures the accounting, not
    // the throttling.
    let clock = Arc::new(SimClock::new());
    let governor = IoGovernor::new(
        GovernorConfig {
            pages_per_sec: Some(u64::MAX / 2),
            burst: u64::MAX / 2,
        },
        Arc::clone(&clock),
        Arc::new(spf_obs::Obs::new(Arc::clone(&clock), false)),
    );
    group.bench_function("governor_try_acquire", |b| {
        b.iter(|| std::hint::black_box(governor.try_acquire(BackgroundIo::Prefetch, 1)))
    });

    // The install pipeline itself: the pool thrashes (64 frames, ~2.8k
    // leaves), so every prefetch_page claims a victim, reads the device,
    // verifies, and publishes a clean frame — the complete background
    // path a granted prediction takes.
    let db = engine(|cfg| {
        cfg.data_pages = 4096;
        cfg.pool_frames = 64;
    });
    load(&db, 20_000);
    db.drop_cache();
    let leaves = db.leaf_pages();
    group.bench_function("prefetch_page_install", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % leaves.len();
            std::hint::black_box(db.pool().prefetch_page(leaves[i]))
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
