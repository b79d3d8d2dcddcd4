//! Multi-threaded stress tests for the sharded buffer pool.
//!
//! These tests pin down the concurrency contract the sharded rewrite
//! introduced: coalesced misses issue exactly one device read, updates
//! are never lost under fetch/fetch_mut/flush pressure with a working
//! set larger than the frame count, and the atomic statistics add up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use spf_buffer::{BufferPool, BufferPoolConfig, FetchError};
use spf_storage::{Device, Page, PageId, PageType, StorageDevice, DEFAULT_PAGE_SIZE};
use spf_wal::{LogManager, Lsn};

fn setup(frames: usize, pages: u64) -> (BufferPool, Device) {
    let device = Device::for_testing(DEFAULT_PAGE_SIZE, pages);
    for i in 0..pages {
        let mut p = Page::new_formatted(DEFAULT_PAGE_SIZE, PageId(i), PageType::BTreeLeaf);
        p.finalize_checksum();
        device.raw_overwrite(PageId(i), p.as_bytes());
    }
    let log = LogManager::for_testing();
    let pool = BufferPool::new(BufferPoolConfig { frames }, Arc::new(device.clone()), log);
    (pool, device)
}

/// Tiny deterministic RNG so the schedule varies per thread but the test
/// is reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// All threads storm the same pages at once; the in-flight markers must
/// coalesce every concurrent miss onto a single device read per page.
#[test]
fn coalesced_misses_issue_exactly_one_device_read() {
    const THREADS: usize = 8;
    const PAGES: u64 = 32;
    // Pool large enough that nothing is evicted: any extra device read
    // could only come from a failure to coalesce.
    let (pool, device) = setup(64, PAGES);
    assert_eq!(device.stats().random_reads, 0);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for round in 0..4 {
                    for i in 0..PAGES {
                        // Every thread walks the same pages in the same
                        // order (offset per thread) to maximize collisions.
                        let id = PageId((i + t as u64 + round) % PAGES);
                        let g = pool.fetch(id).expect("fetch");
                        assert_eq!(g.page_id(), id);
                    }
                }
            });
        }
    });

    let stats = pool.stats();
    assert_eq!(
        device.stats().random_reads,
        PAGES,
        "coalesced misses must not issue duplicate device reads"
    );
    assert_eq!(stats.misses, PAGES, "exactly one miss leader per page");
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS as u64) * 4 * PAGES,
        "every fetch resolves as exactly one hit or miss"
    );
    assert_eq!(stats.evictions, 0);
}

/// N threads mixing fetch / fetch_mut / flush over a working set far
/// larger than the frame count: no update may be lost, and the counters
/// must reconcile with the work actually submitted.
#[test]
fn stress_no_lost_updates_under_eviction_pressure() {
    const THREADS: usize = 8;
    const PAGES: u64 = 64;
    const OPS_PER_THREAD: usize = 500;
    // Far fewer frames than pages: constant eviction + write-back.
    let (pool, device) = setup(16, PAGES);

    // Ground truth: how many increments each page received. The page
    // itself carries the counter in its PageLSN (every increment is a
    // `mark_dirty` with the incremented value), so a lost update shows
    // up as a PageLSN below the expected count.
    let expected: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
    let fetch_attempts = AtomicU64::new(0);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let barrier = &barrier;
            let expected = &expected;
            let fetch_attempts = &fetch_attempts;
            s.spawn(move || {
                let mut rng = XorShift(0x9E37_79B9 + t as u64);
                barrier.wait();
                for _ in 0..OPS_PER_THREAD {
                    let id = PageId(rng.next() % PAGES);
                    match rng.next() % 8 {
                        // Mostly writes: read-increment-write the PageLSN
                        // under the page write latch.
                        0..=4 => loop {
                            fetch_attempts.fetch_add(1, Ordering::Relaxed);
                            match pool.fetch_mut(id) {
                                Ok(mut g) => {
                                    let next = g.page_lsn() + 1;
                                    g.mark_dirty(Lsn(next));
                                    expected[id.0 as usize].fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                // Transiently out of frames (all pinned or
                                // claimed by peers): legitimate, retry.
                                Err(FetchError::NoFreeFrames) => continue,
                                Err(e) => panic!("fetch_mut({id}): {e}"),
                            }
                        },
                        // Reads verify monotonicity: a page may never go
                        // backwards past increments already published.
                        5 | 6 => loop {
                            fetch_attempts.fetch_add(1, Ordering::Relaxed);
                            match pool.fetch(id) {
                                Ok(g) => {
                                    // `expected` may lag the page (a writer
                                    // bumps the page first), never lead it
                                    // by more than the writers in flight.
                                    let seen = g.page_lsn();
                                    let lower = expected[id.0 as usize].load(Ordering::Relaxed);
                                    assert!(
                                        seen + (THREADS as u64) >= lower,
                                        "page {id} lost updates: saw {seen}, expected ≥ {}",
                                        lower.saturating_sub(THREADS as u64)
                                    );
                                    break;
                                }
                                Err(FetchError::NoFreeFrames) => continue,
                                Err(e) => panic!("fetch({id}): {e}"),
                            }
                        },
                        // Occasional targeted flushes exercise the
                        // Figure 11 path concurrently with eviction.
                        _ => pool.flush_page(id).expect("flush_page"),
                    }
                }
            });
        }
    });

    // Drain everything to the device and verify no increment was lost.
    pool.flush_all().expect("flush_all");
    for i in 0..PAGES {
        let want = expected[i as usize].load(Ordering::Relaxed);
        let stored = Page::from_bytes(device.raw_image(PageId(i)));
        assert_eq!(
            stored.page_lsn(),
            want,
            "page {i}: device image must carry every increment"
        );
        if want > 0 {
            assert_eq!(stored.verify(PageId(i)), Ok(()), "page {i} checksummed");
        }
    }

    let stats = pool.stats();
    assert_eq!(
        stats.hits + stats.misses,
        fetch_attempts.load(Ordering::Relaxed),
        "every fetch attempt resolves as exactly one hit or miss"
    );
    assert!(
        stats.evictions > 0,
        "working set exceeds frames: eviction must have run"
    );
    assert_eq!(
        device.stats().random_reads,
        stats.misses,
        "every miss is exactly one device read (no duplicates, no extras)"
    );
    assert!(pool.resident() <= pool.capacity());
}

/// Concurrent `put_new` + fetch traffic on overlapping pages: the pool
/// must serve the latest image and keep the earliest recovery LSN.
#[test]
fn concurrent_put_new_and_fetch() {
    const THREADS: usize = 4;
    const PAGES: u64 = 16;
    let (pool, _device) = setup(32, PAGES);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let barrier = &barrier;
            s.spawn(move || {
                let mut rng = XorShift(0xABCD + t as u64);
                barrier.wait();
                for n in 0..200u64 {
                    let id = PageId(rng.next() % PAGES);
                    if rng.next().is_multiple_of(2) {
                        let mut page =
                            Page::new_formatted(DEFAULT_PAGE_SIZE, id, PageType::BTreeLeaf);
                        let lsn = 1 + n;
                        page.set_page_lsn(lsn);
                        drop(pool.put_new(page, Lsn(lsn)));
                    } else {
                        let g = pool.fetch(id).expect("fetch");
                        assert_eq!(g.page_id(), id);
                    }
                }
            });
        }
    });

    // Every dirty page records a valid recovery LSN.
    for (id, rec_lsn) in pool.dirty_pages() {
        assert!(rec_lsn.is_valid(), "{id} dirty without rec_lsn");
    }
    pool.flush_all().expect("flush_all");
    assert!(pool.dirty_pages().is_empty());
}
