//! Observability end to end: stats reconciliation on a quiesced engine,
//! full-snapshot JSON/Prometheus exposition, the Debug-field drift
//! guard, the flight recorder's detect→repair/escalate chains, and one
//! escalation (and one repair span) per failure.

use spf::{
    CorruptionMode, Database, DatabaseConfig, DbError, EventKind, FailureClass, FaultSpec,
    MetricsSnapshot, ScrubConfig, SimDuration,
};
use spf_obs::SpanKind;
use spf_storage::Page;

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i:08}").into_bytes()
}

fn obs_config() -> DatabaseConfig {
    DatabaseConfig {
        data_pages: 1024,
        pool_frames: 64,
        scrub: ScrubConfig {
            enabled: true,
            pages_per_tick: 64,
            tick_idle: SimDuration::from_micros(100),
        },
        ..DatabaseConfig::default()
    }
}

/// Drives a mixed workload and quiesces: puts, rereads through a cold
/// cache, one scrub sweep over an injected fault.
fn exercised_db() -> Database {
    let db = Database::create(obs_config()).unwrap();
    for i in 0..300 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 5 }),
    );
    db.drop_cache();
    db.scrub_now().unwrap();
    for i in 0..300 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    db
}

/// Cross-subsystem invariants that must hold on any quiesced snapshot:
/// counters maintained by different crates have to reconcile, or one of
/// them is lying.
#[test]
fn quiesced_snapshot_reconciles_across_subsystems() {
    let db = exercised_db();
    let snap = db.metrics_snapshot();
    let g = |grp: &str, m: &str| {
        snap.get(grp, m)
            .unwrap_or_else(|| panic!("{grp}.{m} missing"))
    };

    // The WAL can only force what was appended, and every user commit
    // forces the log (group commit merges flushes, not force calls).
    assert!(g("wal", "bytes_forced") <= g("wal", "bytes_appended"));
    assert!(g("wal", "forces") >= g("txn", "user_commits"));
    assert!(g("txn", "user_commits") >= 300, "one per put_auto");

    // Every tree node visit goes through the pool, and every miss is
    // satisfied by a device read.
    assert!(
        g("pool", "hits") + g("pool", "misses") + g("pool", "coalesced_misses")
            >= g("tree", "node_visits")
    );
    assert!(g("device", "random_reads") + g("device", "sequential_reads") >= g("pool", "misses"));

    // Scrub accounting: every finding was repaired, deferred to the
    // foreground, or failed (and then escalated).
    let findings = g("scrub", "found_checksum")
        + g("scrub", "found_self_id")
        + g("scrub", "found_plausibility")
        + g("scrub", "found_fence_keys")
        + g("scrub", "found_stale_lsn")
        + g("scrub", "found_hard_error");
    assert!(findings >= 1, "the injected bit rot must be found");
    assert_eq!(
        findings,
        g("scrub", "repairs") + g("scrub", "repairs_deferred") + g("scrub", "repair_failures")
    );

    // The repair was timed: the hot-path span histograms saw traffic.
    let put = snap.get_histogram("latency", "put_auto_ns").unwrap();
    assert_eq!(put.count, 300);
    assert!(put.p50 <= put.p95 && put.p95 <= put.p99 && put.p99 <= put.max);
    assert!(snap.get("latency", "log_force_ns").unwrap() >= 1);
}

/// Every group must serialize into both expositions, metric for metric.
#[test]
fn snapshot_serializes_every_group_in_json_and_prometheus() {
    let db = Database::create(DatabaseConfig {
        mirror: true,
        ..obs_config()
    })
    .unwrap();
    for i in 0..50 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    let snap = db.metrics_snapshot();

    for expected in [
        "pool",
        "wal",
        "txn",
        "tree",
        "spf",
        "pri",
        "backups",
        "maintainer",
        "device",
        "mirror_device",
        "backup_device",
        "archive",
        "scrub",
        "prefetch",
        "governor",
        "latency",
        "trace",
    ] {
        assert!(
            snap.groups.iter().any(|g| g.name == expected),
            "group {expected} missing from snapshot"
        );
    }

    let json = snap.to_json();
    let prom = snap.to_prometheus();
    // The exposition must be parseable Prometheus text: every family
    // declared once with a `# TYPE`, summaries complete with their
    // `_count`/`_sum` series, every value numeric.
    spf_obs::validate_prometheus(&prom).expect("exposition must parse");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "JSON braces balance"
    );
    for group in &snap.groups {
        assert!(json.contains(&format!("\"{}\":{{", group.name)));
        for m in &group.metrics {
            assert!(
                json.contains(&format!("\"{}\":", m.name)),
                "{}.{} missing from JSON",
                group.name,
                m.name
            );
            assert!(
                prom.contains(&format!("spf_{}_{}", group.name, m.name)),
                "{}.{} missing from Prometheus exposition",
                group.name,
                m.name
            );
        }
    }
}

/// The anti-drift guard this PR exists for: every depth-1 field of every
/// stats struct reachable from `DbStats` must surface in the metrics
/// snapshot under its group — a counter added to any subsystem without a
/// matching `observe()` line fails here, not silently.
#[test]
fn stats_fields_cannot_drift_from_metrics() {
    let db = exercised_db();
    let stats = db.stats();
    let snap = db.metrics_snapshot();

    let cases: Vec<(&str, String)> = vec![
        ("pool", format!("{:#?}", stats.pool)),
        ("wal", format!("{:#?}", stats.log)),
        ("txn", format!("{:#?}", stats.txn)),
        ("tree", format!("{:#?}", stats.tree)),
        ("spf", format!("{:#?}", stats.spf)),
        ("pri", format!("{:#?}", stats.pri)),
        ("backups", format!("{:#?}", stats.backups)),
        ("maintainer", format!("{:#?}", stats.maintainer)),
        ("device", format!("{:#?}", stats.device)),
        ("backup_device", format!("{:#?}", stats.backup_device)),
        ("archive", format!("{:#?}", stats.archive)),
        ("scrub", format!("{:#?}", stats.scrub)),
        ("prefetch", format!("{:#?}", stats.prefetch)),
        ("governor", format!("{:#?}", stats.governor)),
        ("trace", format!("{:#?}", stats.trace)),
        ("restart", format!("{:#?}", stats.restart)),
    ];
    for (group, debug) in cases {
        let fields = spf_obs::debug_field_names(&debug);
        assert!(!fields.is_empty(), "no fields parsed for {group}");
        let metrics = &snap
            .groups
            .iter()
            .find(|g| g.name == group)
            .unwrap_or_else(|| panic!("group {group} missing"))
            .metrics;
        for field in fields {
            assert!(
                metrics
                    .iter()
                    .any(|m| m.name == field || m.name.starts_with(&field)),
                "stats field {group}.{field} has no matching metric — \
                 add it to the Observable impl"
            );
        }
    }
}

/// Restart explains itself: the last report, phase timings included, is
/// the `restart` metrics group.
#[test]
fn the_last_restart_report_is_the_restart_metrics_group() {
    let db = Database::create(obs_config()).unwrap();
    assert_eq!(db.stats().restart, spf::RestartReport::default());
    for i in 0..200 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    db.checkpoint().unwrap();
    for i in 0..20 {
        db.put_auto(&key(i), &val(i + 1)).unwrap();
    }
    db.crash();
    let report = db.restart().unwrap();
    assert!(
        report.analysis_start > spf::Lsn::FIRST,
        "started at the image"
    );
    assert!(report.analysis_ns > 0 && report.redo_ns > 0 && report.undo_ns > 0);
    assert_eq!(db.stats().restart, report);
    let snap = db.metrics_snapshot();
    let metric = |name: &str| {
        snap.get("restart", name)
            .unwrap_or_else(|| panic!("{name}"))
    };
    assert_eq!(metric("analysis_records"), report.analysis_records);
    assert_eq!(metric("analysis_start"), report.analysis_start.0);
    assert_eq!(metric("redo_applied"), report.redo_applied);
}

/// An injected fault repaired on the foreground read path leaves a
/// complete detect→repair chain in the flight recorder, and an MTTR
/// sample in the audit ledger.
#[test]
fn injected_fault_leaves_detect_repair_chain_in_trace() {
    let db = Database::create(obs_config()).unwrap();
    for i in 0..200 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    // Clear history so the drained window is about this incident.
    let _ = db.obs().drain_trace();
    for i in 0..200 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i)));
    }
    assert_eq!(db.stats().spf.recoveries, 1);

    let trace = db.obs().drain_trace();
    assert!(!trace.is_empty());
    let detected: Vec<_> = trace
        .of_kind(EventKind::FaultDetected)
        .filter(|e| e.a == victim.0)
        .collect();
    assert!(
        !detected.is_empty(),
        "no FaultDetected for the victim:\n{trace}"
    );
    let repaired: Vec<_> = trace
        .of_kind(EventKind::RepairOk)
        .filter(|e| e.a == victim.0)
        .collect();
    assert!(!repaired.is_empty(), "no RepairOk for the victim:\n{trace}");
    assert!(
        detected[0].sim <= repaired[0].sim,
        "detection precedes repair"
    );

    let mttr = db.obs().ledger().mttr_snapshot();
    assert!(
        mttr.get("single_page").is_some_and(|h| h.count >= 1),
        "repair was not recorded as an MTTR sample: {mttr:?}"
    );
}

/// When repair is impossible the Figure-1 escalation lands in the audit
/// ledger together with the event window that led up to it.
#[test]
fn escalation_is_recorded_with_its_event_window() {
    let db = Database::create(DatabaseConfig::traditional()).unwrap();
    for i in 0..50 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(victim, FaultSpec::HardReadError);
    db.drop_cache();
    assert!(db.get(&key(0)).is_err(), "traditional engine cannot repair");

    let escs = db.obs().ledger().escalations();
    assert!(!escs.is_empty());
    let last = escs.last().unwrap();
    assert_eq!(last.escalated_to, "media");
    assert!(
        !last.trace.is_empty(),
        "the escalation must capture its triggering event window"
    );
}

/// With `obs: false` the hot paths stay silent (no events, no span
/// samples) while the metrics registry keeps working.
#[test]
fn disabled_tracing_is_silent_but_metrics_still_work() {
    let db = Database::create(DatabaseConfig {
        obs: false,
        ..obs_config()
    })
    .unwrap();
    for i in 0..100 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    assert!(db.obs().drain_trace().is_empty());
    let snap: MetricsSnapshot = db.metrics_snapshot();
    assert_eq!(
        snap.get_histogram("latency", "put_auto_ns").unwrap().count,
        0
    );
    assert!(snap.get("txn", "user_commits").unwrap() >= 100);

    // Flipping tracing on at runtime starts recording immediately.
    db.obs().set_enabled(true);
    db.put_auto(&key(0), &val(1)).unwrap();
    assert!(db
        .obs()
        .drain_trace()
        .of_kind(EventKind::TxCommit)
        .next()
        .is_some());
}

/// Causal tracing end to end: with sampling on, a `put_auto` roots a
/// trace tree whose children reconstruct the operation — descent, the
/// buffer fault it took through a cold cache, the commit and its log
/// force — with every nanosecond classified by wait state.
#[test]
fn sampled_put_auto_reconstructs_the_causal_chain() {
    let db = Database::create(DatabaseConfig {
        trace_sample_every: 1,
        ..obs_config()
    })
    .unwrap();
    for i in 0..50 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    db.checkpoint().unwrap();
    db.drop_cache();
    let _ = db.drain_trace_trees(); // only the post-cold-cache ops matter
    let _ = db.obs().drain_trace();
    db.put_auto(&key(0), &val(1)).unwrap();

    // The sampling gate left its mark in the flight recorder.
    assert!(
        db.obs()
            .drain_trace()
            .of_kind(EventKind::TraceSampled)
            .next()
            .is_some(),
        "sampled operation must emit TraceSampled"
    );

    let stitched = db.drain_trace_trees();
    let tree = stitched
        .trees
        .iter()
        .find(|t| {
            t.roots
                .iter()
                .any(|r| r.record.kind == spf_obs::SpanKind::PutAuto)
        })
        .expect("a put_auto-rooted trace tree");
    let root = &tree.roots[0];

    let mut kinds = Vec::new();
    tree.each_node(|n| kinds.push(n.record.kind));
    for want in [
        spf_obs::SpanKind::Descent,
        spf_obs::SpanKind::PageMiss,
        spf_obs::SpanKind::Commit,
    ] {
        assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
    }

    // One guard per timed region feeds both planes: the commit hangs
    // off the put_auto root and this thread's own log force off the
    // commit, exactly as when each region opened two guards.
    let commit = root
        .children
        .iter()
        .find(|c| c.record.kind == spf_obs::SpanKind::Commit)
        .expect("Commit is a child of the PutAuto root");
    assert!(commit
        .children
        .iter()
        .any(|c| c.record.kind == spf_obs::SpanKind::LogForce));

    // Children nest inside the root, so the wait-state decomposition
    // telescopes: every nanosecond of the operation is classified.
    tree.each_node(|n| {
        assert!(n.record.start_nanos >= root.record.start_nanos);
        assert!(n.record.end_nanos() <= root.record.end_nanos());
    });
    let profile = tree.wait_profile();
    assert_eq!(profile.total_nanos, root.record.dur_nanos);
    assert_eq!(profile.classified_nanos(), profile.total_nanos);
    assert!(
        profile.class_nanos(spf_obs::WaitClass::MissIo) > 0,
        "the cold-cache fault must be classified as miss I/O"
    );

    // The same drain renders as Chrome tracing JSON.
    db.put_auto(&key(1), &val(1)).unwrap();
    let json = db.export_traces();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("put_auto"));

    let stats = db.stats();
    assert!(stats.trace.sampled_traces >= 50);
    assert!(stats.trace.spans_recorded > stats.trace.sampled_traces);
    // …and the histograms still take one sample per operation.
    let snap = db.metrics_snapshot();
    assert_eq!(snap.get("latency", "put_auto_ns"), Some(52));
    assert_eq!(snap.get("latency", "commit_ns"), Some(52));
}

/// The reopen path is wired like `create`: the restored log is born
/// with the engine's one observability handle, so a `put_auto` on a
/// `Database::open`ed directory traces its commit and the log force
/// under it, and the force leader still reports to the flight recorder.
#[test]
fn reopened_engine_traces_commit_and_log_force() {
    let tmp = tempdir::TempDir::new("obs-reopen").unwrap();
    let dir = tmp.path().join("db");
    let config = DatabaseConfig {
        trace_sample_every: 1,
        scrub: ScrubConfig::disabled(),
        ..obs_config()
    };
    let db = Database::create_at(config, &dir).unwrap();
    db.put_auto(&key(0), &val(0)).unwrap();
    drop(db);

    let db = Database::open(&dir, config).unwrap();
    let _ = db.drain_trace_trees(); // restart's own work is not the point
    let _ = db.obs().drain_trace();
    db.put_auto(&key(1), &val(1)).unwrap();

    let stitched = db.drain_trace_trees();
    let tree = stitched
        .trees
        .iter()
        .find(|t| t.roots.iter().any(|r| r.record.kind == SpanKind::PutAuto))
        .expect("a put_auto-rooted trace tree");
    let (mut commit, mut force) = (false, false);
    tree.each_node(|n| match n.record.kind {
        SpanKind::Commit => commit = true,
        SpanKind::LogForce => force = true,
        SpanKind::ForceWait => force |= n.record.link != 0,
        _ => {}
    });
    assert!(commit, "no Commit span in the put_auto trace");
    assert!(
        force,
        "no LogForce (or linked ForceWait) in the put_auto trace"
    );
    assert!(
        db.obs()
            .drain_trace()
            .of_kind(EventKind::LogForce)
            .next()
            .is_some(),
        "the force leader must emit LogForce"
    );
}

/// Every `Escalation` event in the flight recorder.
fn escalation_events(db: &Database) -> Vec<spf::Event> {
    let trace = db.obs().drain_trace();
    trace.of_kind(EventKind::Escalation).copied().collect()
}

/// One unrepaired failure is one Figure-1 escalation: one `Escalation`
/// event and one ledger record, both naming the failed page and the
/// class Figure 1 ends in for the node's shape.
#[test]
fn one_failure_is_one_escalation_naming_its_page() {
    for (single_device_node, class, code) in [
        (false, FailureClass::Media, spf_obs::failure_class::MEDIA),
        (true, FailureClass::System, spf_obs::failure_class::SYSTEM),
    ] {
        let db = Database::create(DatabaseConfig {
            single_device_node,
            ..DatabaseConfig::traditional()
        })
        .unwrap();
        for i in 0..50 {
            db.put_auto(&key(i), &val(i)).unwrap();
        }
        let victim = db.any_leaf_page().unwrap();
        db.inject_fault(victim, FaultSpec::HardReadError);
        db.drop_cache();
        match db.get(&key(0)) {
            Err(DbError::Failure { class: got, .. }) => assert_eq!(got, class),
            other => panic!("expected a {class}, got {other:?}"),
        }

        let records = db.obs().ledger().escalations();
        assert_eq!(records.len(), 1, "one ledger record");
        assert_eq!(records[0].page_id, victim.0);
        assert_eq!(records[0].escalated_to, spf_obs::failure_class::name(code));
        let events = escalation_events(&db);
        assert_eq!(events.len(), 1, "one Escalation event: {events:?}");
        assert_eq!((events[0].a, events[0].b), (victim.0, code));
    }
}

/// A repair the recoverer refuses is counted in `spf.escalations`
/// whichever detector found the failure — here the tree's fence check,
/// through the façade, on two swapped leaves whose history is gone.
#[test]
fn refused_facade_repair_counts_as_an_escalation() {
    let db = Database::create(DatabaseConfig {
        data_pages: 2048,
        pool_frames: 32,
        ..DatabaseConfig::default()
    })
    .unwrap();
    let tx = db.begin();
    for i in 0..3000 {
        db.put(tx, &key(i), &val(i)).unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
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
    db.pri().clear();
    db.drop_cache();

    match db.scan(b"", usize::MAX) {
        Err(DbError::Failure { class, .. }) => assert_eq!(class, FailureClass::Media),
        other => panic!("expected a media failure, got {other:?}"),
    }
    let stats = db.stats();
    assert_eq!(stats.spf.recoveries, 0);
    assert_eq!(stats.spf.escalations, 1);
    assert_eq!(escalation_events(&db).len(), 1);
}

/// A sampled operation whose buffer fault is repaired inline carries
/// exactly one `Repair` span, and `page_repair_ns` takes one sample per
/// repair.
#[test]
fn inline_repair_is_one_span_of_the_sampled_operation() {
    let db = Database::create(DatabaseConfig {
        trace_sample_every: 1,
        ..obs_config()
    })
    .unwrap();
    for i in 0..200 {
        db.put_auto(&key(i), &val(i)).unwrap();
    }
    db.checkpoint().unwrap();
    let victim = db.any_leaf_page().unwrap();
    db.inject_fault(
        victim,
        FaultSpec::SilentCorruption(CorruptionMode::BitRot { bits: 8 }),
    );
    db.drop_cache();
    let _ = db.drain_trace_trees();

    let mut repairs = Vec::new();
    for i in 0..200 {
        db.put_auto(&key(i), &val(i)).unwrap();
        for tree in db.drain_trace_trees().trees {
            tree.each_node(|n| {
                if n.record.kind == SpanKind::Repair {
                    repairs.push((i, n.record.a));
                }
            });
        }
    }
    assert_eq!(db.stats().spf.recoveries, 1);
    assert_eq!(repairs.len(), 1, "one Repair span: {repairs:?}");
    assert_eq!(repairs[0].1, victim.0);
    assert_eq!(
        db.metrics_snapshot().get("latency", "page_repair_ns"),
        Some(1)
    );
}
