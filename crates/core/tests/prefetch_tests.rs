//! Façade-level tests of the predictive prefetcher and the shared
//! background-I/O governor: configuration wiring, the poll thread's
//! lifecycle across crash/drop_cache, and end-to-end hit-rate lift on a
//! sequential access pattern.

use spf::{Database, DatabaseConfig, PrefetchConfig, ScrubConfig};

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i:06}-{}", "x".repeat(64)).into_bytes()
}

fn load(db: &Database, n: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.insert(tx, &key(i), &val(i)).unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
}

#[test]
fn sequential_reads_drive_prefetch_through_the_facade() {
    // Disk costs, so simulated time passes on every I/O and the
    // governor's rate-based refill actually accrues budget.
    let db = Database::create(DatabaseConfig::with_disk_costs()).unwrap();
    load(&db, 4_000);
    db.drop_cache();

    let prefetcher = db.prefetcher().expect("default config wires one").clone();
    for i in 0..4_000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
        prefetcher.poll();
    }

    let stats = db.stats();
    assert!(
        stats.prefetch.observed_faults > 0,
        "the pool must feed the observer: {:?}",
        stats.prefetch
    );
    assert!(
        stats.prefetch.installed > 0,
        "the +1 leaf stride must be learned and installed: {:?}",
        stats.prefetch
    );
    assert!(
        stats.pool.prefetch_hits > 0,
        "installed pages must be touched by the foreground: {:?}",
        stats.pool
    );
    assert!(stats.governor.granted_prefetch > 0);
    // The device distinguishes prefetch reads from foreground reads:
    // every prefetch read either installed or was abandoned for lack of
    // a claimable frame (the read happens before the frame claim).
    assert_eq!(
        stats.device.prefetch_reads,
        stats.prefetch.installed + stats.prefetch.no_frame + stats.prefetch.failed
    );
    assert_eq!(stats.pool.prefetch_installed, stats.prefetch.installed);
    assert!(stats.pool.prefetch_hit_ratio() > 0.0);
}

#[test]
fn disabled_config_wires_no_prefetcher() {
    let db = Database::create(DatabaseConfig {
        prefetch: PrefetchConfig::disabled(),
        ..DatabaseConfig::default()
    })
    .unwrap();
    load(&db, 200);
    db.drop_cache();
    for i in 0..200 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    assert!(db.prefetcher().is_none());
    assert!(!db.start_prefetcher());
    let stats = db.stats();
    assert_eq!(stats.prefetch, spf::PrefetchStats::default());
    assert_eq!(stats.pool.prefetch_issued, 0);
    assert_eq!(stats.device.prefetch_reads, 0);
}

#[test]
fn prefetch_thread_lifecycle_survives_crash_and_drop_cache() {
    let db = Database::create(DatabaseConfig::default()).unwrap();
    load(&db, 1_000);

    assert!(db.start_prefetcher(), "first start spawns the thread");
    assert!(!db.start_prefetcher(), "second start is a no-op");

    // drop_cache pauses and resumes the poller around the discard.
    db.drop_cache();
    assert!(!db.start_prefetcher(), "still running after drop_cache");

    // Concurrent traffic while the poller runs: results stay correct.
    for i in 0..1_000 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }

    // The thread dies in a crash and is not resurrected implicitly.
    db.crash();
    assert!(!db.stop_prefetcher(), "crash already stopped the thread");
    db.restart().unwrap();
    assert!(db.start_prefetcher(), "a recovered server restarts it");
    assert!(db.stop_prefetcher());
    assert!(!db.stop_prefetcher(), "stop is idempotent");
}

#[test]
fn governor_is_shared_between_scrubber_and_prefetcher() {
    // A throttled scrub budget also bounds the prefetcher: both draw
    // from the one bucket the façade derives from the scrub pacing.
    let db = Database::create(DatabaseConfig {
        scrub: ScrubConfig {
            enabled: true,
            pages_per_tick: 8,
            tick_idle: spf::SimDuration::from_millis(1),
        },
        ..DatabaseConfig::default()
    })
    .unwrap();
    load(&db, 2_000);
    db.drop_cache();

    let prefetcher = db.prefetcher().unwrap().clone();
    for i in 0..2_000 {
        let _ = db.get(&key(i)).unwrap();
        prefetcher.poll();
    }
    db.scrub_now().unwrap();

    let gov = db.governor().stats();
    assert!(gov.granted_scrub > 0, "scrub drew from the bucket: {gov:?}");
    assert!(
        gov.throttle_waits > 0,
        "a throttled sweep must have waited: {gov:?}"
    );
    // The budget is one pool: total grants stay within rate × elapsed
    // (8 pages/ms) plus the one-burst cap.
    let elapsed_ms = db.stats().now.as_nanos() / 1_000_000;
    let budget = 8 * (elapsed_ms + 1) + 8;
    assert!(
        gov.granted_scrub + gov.granted_prefetch <= budget,
        "grants {} + {} exceed budget {budget}",
        gov.granted_scrub,
        gov.granted_prefetch,
    );
}

/// Two reference cycles used to keep a dropped `Database` — its frames and
/// its memory-resident WAL — alive for the life of the process: the pool
/// fed an `Arc<Prefetcher>` that held a pool clone, and on a file-backed
/// engine the black-box arm inside `Obs` held the subsystems that hold
/// that `Obs`. Every subsystem holds the `Obs`, the pool included, so a
/// dead `Obs` means they are all gone.
#[test]
fn dropping_the_database_frees_its_prefetcher_pool_and_obs() {
    let dir = tempdir::TempDir::new("spf-drop").unwrap();
    let in_memory = Database::create(DatabaseConfig::default()).unwrap();
    let on_disk = Database::create_at(DatabaseConfig::default(), dir.path()).unwrap();
    for db in [in_memory, on_disk] {
        load(&db, 500);
        let prefetcher = std::sync::Arc::downgrade(db.prefetcher().expect("wired by default"));
        let obs = std::sync::Arc::downgrade(db.obs());
        drop(db);
        assert!(prefetcher.upgrade().is_none(), "prefetcher leaked");
        assert!(
            obs.upgrade().is_none(),
            "obs, and whatever still holds it, leaked"
        );
    }
}
