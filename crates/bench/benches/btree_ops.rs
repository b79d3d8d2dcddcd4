//! Foster B-tree point-operation throughput: insert, lookup, update,
//! delete, and scan against a pooled, logged engine.
//!
//! `get_hot` times `Database::get` as a caller sees it (key encoding
//! included); the two `get_resident_*` rows time the tree's read path by
//! itself and split it into instruction cost and cache misses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spf_bench::{engine, key, load, val};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree_ops");
    group.sample_size(20);

    let db = engine(|cfg| {
        cfg.data_pages = 8192;
        cfg.pool_frames = 4096;
    });
    load(&db, 50_000);

    group.bench_function("get_hot", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            std::hint::black_box(db.get(&key(i)).unwrap());
        })
    });

    // The tree's resident read path alone: keys encoded up front, the
    // `Database` wrapper bypassed, every page in the pool. Uniform keys
    // walk all of the tree, so the row is instructions plus cache misses;
    // 64 adjacent keys share one root-to-leaf path that stays in L1, so
    // that row is instruction cost alone and the gap between the two is
    // the misses.
    let keys: Vec<Vec<u8>> = (0..50_000).map(key).collect();
    for (name, span) in [("get_resident_uniform", 50_000), ("get_resident_hot64", 64)] {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 7919) % span;
                std::hint::black_box(db.tree().get(&keys[i]).unwrap());
            })
        });
    }

    group.bench_function("upsert", |b| {
        let mut i = 0u64;
        let tx = db.begin();
        b.iter(|| {
            i = (i + 7919) % 50_000;
            std::hint::black_box(db.put(tx, &key(i), &val(i, 1)).unwrap());
        });
        db.commit(tx).unwrap();
    });

    group.bench_function("scan_100", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 49_000;
            std::hint::black_box(db.scan(&key(i), 100).unwrap());
        })
    });

    group.bench_function("insert_fresh_tree", |b| {
        b.iter_batched(
            || engine(|cfg| cfg.data_pages = 4096),
            |db| {
                let tx = db.begin();
                for i in 0..2000u64 {
                    db.insert(tx, &key(i), &val(i, 0)).unwrap();
                }
                db.commit(tx).unwrap();
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
