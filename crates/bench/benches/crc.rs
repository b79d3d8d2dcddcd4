//! CRC-32C throughput: the checksum runs on every verified page read and
//! every write-back, so its speed bounds the buffer pool's miss path.
//! Compares the dispatched kernel (hardware `crc32` on x86-64) against the
//! portable slicing-by-8 path and the bytewise reference on an 8 KiB page,
//! and on log-record-sized inputs, where the dispatch itself is a visible
//! share of the call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spf_util::{crc32c, crc32c_bytewise, crc32c_slice8, Crc32c};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32c");
    group.sample_size(50);

    let page: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    group.bench_function("dispatched_8k_page", |b| {
        b.iter(|| black_box(crc32c(black_box(&page))))
    });
    group.bench_function("slice8_8k_page", |b| {
        b.iter(|| black_box(crc32c_slice8(black_box(&page))))
    });
    group.bench_function("bytewise_8k_page", |b| {
        b.iter(|| black_box(crc32c_bytewise(black_box(&page))))
    });

    // Record-sized inputs: a bare log record header and a typical update
    // record.
    for len in [64, 296] {
        let record = &page[..len];
        group.bench_function(format!("dispatched_{len}b_record"), |b| {
            b.iter(|| black_box(crc32c(black_box(record))))
        });
        group.bench_function(format!("slice8_{len}b_record"), |b| {
            b.iter(|| black_box(crc32c_slice8(black_box(record))))
        });
    }

    // Log-record shape: a small header fragment plus a modest body, fed
    // incrementally (the WAL's usage pattern).
    let header = &page[..40];
    let body = &page[40..296];
    group.bench_function("incremental_log_record", |b| {
        b.iter(|| {
            let mut hasher = Crc32c::new();
            hasher.update(black_box(header));
            hasher.update(black_box(body));
            black_box(hasher.finalize())
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
