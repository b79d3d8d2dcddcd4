//! Transaction costs: user commits (forced) vs system transactions
//! (unforced) vs rollback (E4's wall-clock companion).

use criterion::{criterion_group, criterion_main, Criterion};
use spf_bench::{engine, key, load, val};
use spf_btree::tree::PoolUndo;
use spf_obs::TraceCtx;
use spf_txn::TxKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn");
    group.sample_size(20);

    let db = engine(|cfg| {
        cfg.data_pages = 8192;
        cfg.pool_frames = 4096;
    });
    load(&db, 20_000);

    group.bench_function("user_commit_one_update", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            let tx = db.begin();
            db.put(tx, &key(i), &val(i, 1)).unwrap();
            std::hint::black_box(db.commit(tx).unwrap());
        })
    });

    group.bench_function("system_tx_begin_commit", |b| {
        let mgr = db.txn_manager();
        b.iter(|| {
            let tx = mgr.begin(TxKind::System);
            std::hint::black_box(mgr.commit(tx, TraceCtx::NONE).unwrap());
        })
    });

    group.bench_function("rollback_10_updates", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let tx = db.begin();
            for _ in 0..10 {
                i = (i + 7919) % 20_000;
                db.put(tx, &key(i), &val(i, 2)).unwrap();
            }
            db.abort(tx).unwrap();
            std::hint::black_box(());
        });
        let _ = PoolUndo::new(db.pool());
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
