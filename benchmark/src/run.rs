//! One run of one workload: set-up, measured phase, crash, timed
//! restart, durability check, repair probe, and (with `--trace 1`) the
//! traced pass and layer probes.

use std::hint::black_box;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::engine::{Counters, Engine, Leaf};
use crate::metrics::Metrics;
use crate::nosync;
use crate::stats::{lower_quartile, median, quiet_round_rate, Samples};
use crate::trace::Tracer;
use crate::workload::{
    write_key, write_value, FaultClass, Model, Op, OpStream, Rng, Scale, Workload, KEY_LEN, ROUNDS,
    SCAN_LIMIT, VALUE_LEN,
};

/// Set-ups per run; `setup_s` is their median. Each is complete and from
/// scratch, the last one's database is the one measured.
const SETUPS: usize = 3;
/// Restarts per run, each in a fresh process; `restart_ms` is the
/// fastest (the lower quartile of three).
const RESTARTS: usize = 3;
/// Rows per bulk-load transaction.
const LOAD_BATCH: u32 = 500;
/// Bytes of user data per record: a key and a value.
const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// The database directory; created, and removed when the run ends.
    pub dir: PathBuf,
    pub trace_out: Option<PathBuf>,
}

#[derive(Debug)]
pub struct Report {
    pub end_to_end: Metrics,
    /// Empty unless the run was traced.
    pub per_layer: Metrics,
    /// Facts about the run that are not metrics (`ops_digest`, sample counts…).
    pub notes: Vec<(&'static str, String)>,
    pub attempted: u64,
    /// Operations that returned an error or a value the model does not hold.
    pub failed: u64,
    /// Keys whose value after the restart is not the last acknowledged one.
    pub lost_writes: u64,
    /// Broken invariants: a layer did work it must not do on this
    /// workload, a fault went undetected, an idle subsystem ran…
    pub violations: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.lost_writes == 0 && self.violations.is_empty()
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let outcome = run_in_dir(cfg);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    outcome
}

/// What one pass over an operation stream observed.
#[derive(Default)]
struct Phase {
    gets: Samples,
    puts: Samples,
    scans: Samples,
    repairs: Samples,
    round_seconds: Vec<f64>,
    checkpoints_ms: Vec<f64>,
    /// Time inside engine calls (operations, fault preparation, checkpoints).
    engine_ns: u64,
    attempted: u64,
    failed: u64,
    injected: [u64; 4],
}

impl Phase {
    fn samples(&mut self) -> [&mut Samples; 4] {
        [
            &mut self.gets,
            &mut self.puts,
            &mut self.scans,
            &mut self.repairs,
        ]
    }

    fn end_round(&mut self, wall: Duration) {
        self.samples().into_iter().for_each(Samples::end_round);
        self.round_seconds.push(wall.as_secs_f64());
    }
}

/// The single closed-loop client: issues one operation, waits for it,
/// checks the result against the model outside the timed interval.
struct Client<'a> {
    engine: &'a Engine,
    model: &'a mut Model,
    leaves: &'a [Leaf],
    phase: Phase,
}

impl<'a> Client<'a> {
    fn new(engine: &'a Engine, model: &'a mut Model, leaves: &'a [Leaf], ops: usize) -> Self {
        let phase = Phase {
            gets: Samples::with_capacity(ops),
            puts: Samples::with_capacity(ops),
            ..Phase::default()
        };
        Client {
            engine,
            model,
            leaves,
            phase,
        }
    }

    fn execute(&mut self, op: Op, mut tracer: Option<&mut Tracer>) {
        let op_id = self.phase.attempted;
        let mut key = [0u8; KEY_LEN];
        let (ok, elapsed) = match op {
            Op::Get(id) => {
                write_key(&mut key, id);
                let (found, elapsed) =
                    timed(&mut tracer, "op.get", op_id, || self.engine.get(&key));
                self.phase.gets.push(elapsed);
                (self.holds(id, &found), elapsed)
            }
            Op::Put(id) => {
                write_key(&mut key, id);
                let (ok, elapsed) = self.put(id, &key, tracer);
                self.phase.puts.push(elapsed);
                (ok, elapsed)
            }
            Op::Scan(id) => {
                write_key(&mut key, id);
                let (rows, elapsed) = timed(&mut tracer, "op.scan", op_id, || {
                    self.engine.scan(&key, SCAN_LIMIT)
                });
                self.phase.scans.push(elapsed);
                let ok = rows.is_ok_and(|rows| self.model.matches_scan(id, &rows));
                (ok, elapsed)
            }
            Op::Fault { class, pick } => {
                let leaf = self.leaves[pick as usize % self.leaves.len()];
                write_key(&mut key, leaf.first_key);
                let prepared_at = Instant::now();
                let prepared = self.prepare_fault(leaf, class, &key);
                self.phase.engine_ns += prepared_at.elapsed().as_nanos() as u64;
                let (found, elapsed) =
                    timed(&mut tracer, "op.repair", op_id, || self.engine.get(&key));
                self.phase.repairs.push(elapsed);
                self.phase.injected[class as usize] += 1;
                // A stale-version read must return the *new* value: the
                // model already holds the generation the lost write carried.
                (prepared && self.holds(leaf.first_key, &found), elapsed)
            }
        };
        self.phase.engine_ns += elapsed.as_nanos() as u64;
        self.phase.attempted += 1;
        self.phase.failed += u64::from(!ok);
    }

    fn holds(&self, id: u32, found: &Result<Option<Vec<u8>>, String>) -> bool {
        found
            .as_ref()
            .is_ok_and(|value| self.model.matches(id, value.as_deref()))
    }

    /// Writes the next generation of `id`. Untraced this is `put_auto`;
    /// traced it is `put_auto`'s public constituents under one parent.
    /// Returns whether the engine acknowledged it and handed back the
    /// value the model held.
    fn put(&mut self, id: u32, key: &[u8], tracer: Option<&mut Tracer>) -> (bool, Duration) {
        let generation = self.model.generation(id) + 1;
        let mut value = [0u8; VALUE_LEN];
        write_value(&mut value, id, generation);
        let (previous, elapsed) = match tracer {
            None => {
                let started = Instant::now();
                let previous = self.engine.put_auto(key, &value);
                (previous, started.elapsed())
            }
            Some(tracer) => {
                let op_id = self.phase.attempted;
                tracer.enter("op.put", op_id);
                tracer.enter("txn.begin", op_id);
                let tx = self.engine.begin();
                tracer.exit();
                tracer.enter("core.put", op_id);
                let previous = self.engine.put(&tx, key, &value);
                tracer.exit();
                tracer.enter("txn.commit", op_id);
                let committed = self.engine.commit(tx);
                tracer.exit();
                (previous.and_then(|p| committed.map(|()| p)), tracer.exit())
            }
        };
        let ok = self.holds(id, &previous);
        if previous.is_ok() {
            self.model.acknowledge(id, generation);
        }
        (ok, elapsed)
    }

    /// Arms `class` on `leaf` and makes the page non-resident. For a
    /// stale version the order is arm → update a key on the page → flush
    /// (which the device silently drops) → discard.
    fn prepare_fault(&mut self, leaf: Leaf, class: FaultClass, key: &[u8]) -> bool {
        self.engine.arm_fault(leaf.page, class);
        let updated = class != FaultClass::StaleVersion || self.put(leaf.first_key, key, None).0;
        updated && self.engine.evict(leaf.page).is_ok()
    }

    /// Runs `rounds` rounds of `round_ops` operations from `stream`, with
    /// a checkpoint wherever `schedule` puts one.
    fn run_rounds(
        &mut self,
        stream: &mut OpStream,
        rounds: usize,
        round_ops: u64,
        schedule: Option<(u64, u64)>,
        mut tracer: Option<&mut Tracer>,
    ) {
        let mut issued = 0u64;
        for _ in 0..rounds {
            let started = Instant::now();
            for _ in 0..round_ops {
                self.execute(stream.next_op(), tracer.as_deref_mut());
                issued += 1;
                if schedule.is_some_and(|(interval, offset)| issued % interval == offset) {
                    let (done, elapsed) = timed(&mut tracer, "core.checkpoint", issued, || {
                        self.engine.checkpoint()
                    });
                    self.phase.failed += u64::from(done.is_err());
                    self.phase.engine_ns += elapsed.as_nanos() as u64;
                    self.phase.checkpoints_ms.push(elapsed.as_secs_f64() * 1e3);
                }
            }
            self.phase.end_round(started.elapsed());
        }
    }

    fn finish(mut self) -> Phase {
        self.phase.samples().into_iter().for_each(Samples::finish);
        self.phase
    }
}

/// Times `f`, as a span when tracing and with a bare timer otherwise.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op_id: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match tracer {
        Some(tracer) => {
            tracer.enter(name, op_id);
            let out = f();
            (out, tracer.exit())
        }
        None => {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed())
        }
    }
}

/// What a set-up leaves behind.
struct SetUp {
    engine: Engine,
    leaves: Vec<Leaf>,
    /// Log bytes the bulk load appended.
    load_log_bytes: u64,
}

/// `create_at`, bulk load, `checkpoint`, `close`, `open`, leaf map, warm-up.
fn set_up(cfg: &Config) -> Result<SetUp, String> {
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let keys = cfg.scale.keys;
    let frames = cfg.workload.pool_frames(cfg.scale);
    let engine = Engine::create(&cfg.dir, frames)?;
    let before_load = engine.counters();
    let mut rows: Vec<([u8; KEY_LEN], [u8; VALUE_LEN])> = Vec::with_capacity(LOAD_BATCH as usize);
    for first in (0..keys).step_by(LOAD_BATCH as usize) {
        rows.clear();
        for id in first..(first + LOAD_BATCH).min(keys) {
            let (mut key, mut value) = ([0u8; KEY_LEN], [0u8; VALUE_LEN]);
            write_key(&mut key, id);
            write_value(&mut value, id, 0);
            rows.push((key, value));
        }
        engine.insert_batch(rows.iter().map(|(k, v)| (&k[..], &v[..])))?;
    }
    let load_log_bytes = engine.counters().since(&before_load).get("log.bytes");
    engine.checkpoint()?;
    engine.close()?;
    let engine = Engine::open(&cfg.dir, frames)?;
    let leaves = engine.leaves()?;
    if leaves.is_empty() {
        return Err("the loaded tree has no leaves".into());
    }
    warm_up(cfg, &engine)?;
    Ok(SetUp {
        engine,
        leaves,
        load_log_bytes,
    })
}

/// Fills the pool the way the measured phase will use it: every key once
/// where the tree fits, else four pools' worth of the workload's own draws.
fn warm_up(cfg: &Config, engine: &Engine) -> Result<(), String> {
    let keys = cfg.scale.keys;
    let mut key = [0u8; KEY_LEN];
    let mut read = |id: u32| {
        write_key(&mut key, id);
        engine.get(&key).map(drop)
    };
    if cfg.workload.tree_resident() {
        (0..keys).try_for_each(&mut read)
    } else {
        let mut rng = Rng::new(cfg.seed ^ 0x5741_524D);
        let draws = 4 * cfg.workload.pool_frames(cfg.scale);
        (0..draws).try_for_each(|_| read(cfg.workload.draw_key(&mut rng, keys)))
    }
}

fn run_in_dir(cfg: &Config) -> Result<Report, String> {
    let workload = cfg.workload;
    let scale = cfg.scale;
    let keys = scale.keys;
    let frames = workload.pool_frames(scale);
    let mut violations = Vec::new();

    // --- set-up, several times ---------------------------------------
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(set_up(cfg)?);
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let SetUp {
        engine,
        leaves,
        load_log_bytes,
    } = ready.expect("SETUPS is at least 1");
    let flush_mode = if nosync::flush_calls() > 0 {
        "counted-not-issued"
    } else {
        violations.push("fsync interposition is not in effect: timings include the device".into());
        "issued"
    };

    // --- measured phase, untraced --------------------------------------
    let round_ops = workload.round_ops(scale, cfg.seconds);
    let schedule = workload.checkpoint_schedule(round_ops);
    let total_ops = round_ops * ROUNDS as u64;
    let mut model = Model::loaded(keys);
    let mut stream = OpStream::new(workload, cfg.seed, keys);
    let before = engine.counters();
    let mut client = Client::new(&engine, &mut model, &leaves, total_ops as usize);
    client.run_rounds(&mut stream, ROUNDS, round_ops, schedule, None);
    let measured = client.finish();
    let delta = engine.counters().since(&before);
    let ops_digest = stream.digest();
    check_measured_phase(workload, &delta, &measured, &mut violations);

    // --- repair latency on the workloads that injected nothing ----------
    // A short fail-recover pass, so that every workload says what a
    // single-page failure costs after its history. It runs before the
    // crash and cleans up after itself: a policy backup page taken since
    // the last clean close does not survive a crash, so a page still
    // stale on the device could not be repaired after the restart (see
    // README, "Found while building").
    let repair_probe = (workload != Workload::FailRecover).then(|| {
        let faults = (2000 / scale.shrink).max(8);
        let before = engine.counters();
        let mut rng = Rng::new(cfg.seed ^ 0x5245_5041);
        let mut client = Client::new(&engine, &mut model, &leaves, 0);
        let mut started = Instant::now();
        for i in 0..faults {
            if i > 0 && i % 100 == 0 {
                client.phase.end_round(started.elapsed());
                started = Instant::now();
            }
            let class = FaultClass::ALL[(i % 4) as usize];
            let pick = rng.next_u64() as u32;
            client.execute(Op::Fault { class, pick }, None);
            // Write the repaired page back, so the crash below does not
            // find the lost write still on the device.
            let repaired = leaves[pick as usize % leaves.len()].page;
            client.phase.failed += u64::from(engine.evict(repaired).is_err());
        }
        let probe = client.finish();
        let delta = engine.counters().since(&before);
        check_repairs(&delta, &probe.injected, "repair probe", &mut violations);
        probe
    });
    let repairs = repair_probe
        .as_ref()
        .map_or(&measured.repairs, |p| &p.repairs);

    // --- traced pass and layer probes, same database ---------------------
    let traced = if cfg.trace {
        let tail_puts = measured.puts.len() == 0;
        Some(traced_pass(
            cfg,
            &engine,
            &mut model,
            &leaves,
            &mut stream,
            tail_puts,
            &mut violations,
        ))
    } else {
        None
    };
    check_idle(&engine.counters(), "before the crash", &mut violations);

    // --- crash, timed restarts ------------------------------------------
    let restart_wal_mb = dir_bytes(&cfg.dir.join("wal"), |m| m.len())? as f64 / 1e6;
    engine.crash();
    let restarts_ms = (0..RESTARTS)
        .map(|_| reopen_in_fresh_process(&cfg.dir, frames))
        .collect::<Result<Vec<f64>, String>>()?;
    let engine = Engine::open(&cfg.dir, frames)?;
    let peak_rss_mb = read_peak_rss_mb()?;

    // --- durability: every key against its last acknowledged write ------
    let started = Instant::now();
    let mut key = [0u8; KEY_LEN];
    let mut lost_writes = 0;
    for id in 0..keys {
        write_key(&mut key, id);
        lost_writes += u64::from(!model.matches(id, engine.get(&key)?.as_deref()));
    }
    let verify_after_restart_s = started.elapsed().as_secs_f64();
    let space_amp =
        dir_bytes(&cfg.dir, |m| m.blocks() * 512)? as f64 / (u64::from(keys) * RECORD_BYTES) as f64;
    check_idle(&engine.counters(), "after the restart", &mut violations);
    engine.crash();

    // --- end-to-end metrics ----------------------------------------------
    let primary = if workload.primary_is_put() {
        &measured.puts
    } else {
        &measured.gets
    };
    let ops_per_s = quiet_round_rate(round_ops, &measured.round_seconds);
    // Log volume per operation over the measured phase where it writes;
    // on the read-only phases, over the bulk load (the run's only logging).
    let wal_bytes_per_op = if workload.primary_is_put() {
        delta.per("log.bytes", total_ops)
    } else {
        load_log_bytes as f64 / f64::from(keys)
    };
    let mut end_to_end = Metrics::default();
    end_to_end.end_to_end("setup_s", median(&setup_seconds));
    end_to_end.end_to_end("ops_per_s", ops_per_s);
    end_to_end.end_to_end("op_p50_us", primary.quiet_p50_us());
    end_to_end.end_to_end("restart_ms", lower_quartile(&restarts_ms));
    end_to_end.end_to_end("peak_rss_mb", peak_rss_mb);
    end_to_end.end_to_end("wal_bytes_per_op", wal_bytes_per_op);
    end_to_end.end_to_end("space_amp", space_amp);
    end_to_end.end_to_end("repair_p50_us", repairs.quiet_p50_us());

    let passes = [
        Some(&measured),
        repair_probe.as_ref(),
        traced.as_ref().map(|t| &t.phase),
    ];
    let attempted = u64::from(keys) + passes.iter().flatten().map(|p| p.attempted).sum::<u64>();
    let failed = passes.iter().flatten().map(|p| p.failed).sum();
    let mut notes = vec![
        ("ops_digest", format!("{ops_digest:016x}")),
        ("dir", cfg.dir.display().to_string()),
        ("dir_fs", dir_fs(&cfg.dir)),
        ("flush", flush_mode.to_string()),
        ("flush_calls", nosync::flush_calls().to_string()),
        ("keys", keys.to_string()),
        ("leaves", leaves.len().to_string()),
        ("pool_frames", frames.to_string()),
        ("rounds", format!("{ROUNDS} x {round_ops} ops")),
        ("round_seconds", format!("{:.3?}", measured.round_seconds)),
        ("setups", format!("{setup_seconds:.3?} s")),
        ("restarts", format!("{restarts_ms:.1?} ms")),
        ("op_p50_n", primary.len().to_string()),
        ("repair_p50_n", repairs.len().to_string()),
        ("injected_by_class", format!("{:?}", measured.injected)),
    ];

    // --- per-layer metrics -------------------------------------------------
    let mut per_layer = Metrics::default();
    if let Some(Traced {
        tracer,
        phase,
        round_ops,
        probes,
    }) = &traced
    {
        let traced_rate = quiet_round_rate(*round_ops, &phase.round_seconds);
        let span_median = |name: &str| median(&tracer.durations_of(name));
        let span_total = |name: &str| tracer.durations_of(name).iter().sum::<f64>();
        let accounted_share = if workload.primary_is_put() {
            (span_total("txn.begin") + span_total("core.put") + span_total("txn.commit"))
                / span_total("op.put")
        } else {
            (delta.per("pool.hits", total_ops) * probes.fetch_hit_ns
                + delta.per("pool.misses", total_ops) * probes.fetch_miss_ns)
                / (measured.gets.quiet_p50_us() * 1e3)
        };
        let fetches = delta.get("pool.hits") + delta.get("pool.misses");
        let repaired = delta.get("spf.recoveries");
        let count = |name: &str| delta.get(name) as f64;
        let per_op = |name: &str| delta.per(name, total_ops);
        let wall_ns = measured.round_seconds.iter().sum::<f64>() * 1e9;
        let p = &mut per_layer;
        p.per_layer("util.crc32c_page_ns", probes.crc32c_page_ns);
        p.per_layer("storage.read_page_ns", probes.read_page_ns);
        p.per_layer("storage.page_verify_ns", probes.page_verify_ns);
        p.per_layer("storage.reads_per_op", per_op("device.reads"));
        p.per_layer("storage.writes_per_op", per_op("device.writes"));
        p.per_layer("storage.syncs", count("device.syncs"));
        p.per_layer("storage.failed_reads", count("device.failed_reads"));
        p.per_layer(
            "storage.silent_corrupt_reads",
            count("device.silent_corrupt_reads"),
        );
        p.per_layer("buffer.fetch_hit_ns", probes.fetch_hit_ns);
        p.per_layer("buffer.fetch_miss_ns", probes.fetch_miss_ns);
        p.per_layer("buffer.hit_rate", delta.per("pool.hits", fetches));
        p.per_layer("buffer.evictions_per_op", per_op("pool.evictions"));
        p.per_layer("buffer.write_backs_per_op", per_op("pool.write_backs"));
        p.per_layer("buffer.detected_checksum", count("pool.detected_checksum"));
        p.per_layer(
            "buffer.detected_stale_lsn",
            count("pool.detected_stale_lsn"),
        );
        p.per_layer(
            "buffer.detected_hard_error",
            count("pool.detected_hard_error"),
        );
        p.per_layer("buffer.pages_recovered", count("pool.pages_recovered"));
        p.per_layer("btree.get_ns", probes.tree_get_ns);
        p.per_layer("btree.node_visits_per_op", per_op("tree.node_visits"));
        p.per_layer("btree.fence_checks_per_op", per_op("tree.fence_checks"));
        p.per_layer("btree.descent_retries", count("tree.descent_retries"));
        p.per_layer(
            "btree.restructure_conflicts",
            count("tree.restructure_conflicts"),
        );
        p.per_layer("btree.leaf_splits", count("tree.leaf_splits"));
        p.per_layer("txn.begin_ns", span_median("txn.begin"));
        p.per_layer("txn.commit_ns", span_median("txn.commit"));
        p.per_layer("txn.user_commits", count("txn.user_commits"));
        p.per_layer("txn.aborts", count("txn.aborts"));
        p.per_layer("wal.records_per_op", per_op("log.records"));
        p.per_layer("wal.bytes_per_op", per_op("log.bytes"));
        p.per_layer(
            "wal.forces_per_commit",
            delta.per("log.forces", delta.get("txn.user_commits")),
        );
        p.per_layer(
            "wal.bytes_per_force",
            delta.per("log.bytes_forced", delta.get("log.forces")),
        );
        p.per_layer("wal.pri_update_records_per_op", per_op("log.pri_update"));
        p.per_layer(
            "wal.backup_taken_records_per_op",
            per_op("log.backup_taken"),
        );
        p.per_layer("recovery.pri_lookup_ns", probes.pri_lookup_ns);
        p.per_layer("recovery.recover_page_ns", probes.recover_page_ns);
        p.per_layer("recovery.repairs", repaired as f64);
        p.per_layer("recovery.escalations", count("spf.escalations"));
        p.per_layer(
            "recovery.chain_records_per_repair",
            delta.per("spf.chain_records", repaired),
        );
        p.per_layer(
            "recovery.from_format_record",
            count("spf.from_format_record"),
        );
        p.per_layer("recovery.from_backup_page", count("spf.from_backup_page"));
        p.per_layer("recovery.repair_p99_us", repairs.percentile_us(99.0));
        p.per_layer(
            "recovery.detect_overhead_us",
            repairs.quiet_p50_us() - (probes.recover_page_ns + probes.fetch_miss_ns) / 1e3,
        );
        p.per_layer(
            "recovery.policy_backups_per_op",
            per_op("maintainer.policy_backups"),
        );
        p.per_layer(
            "recovery.pri_updates_logged_per_op",
            per_op("maintainer.pri_updates_logged"),
        );
        p.per_layer("recovery.restart_wal_mb", restart_wal_mb);
        p.per_layer("core.get_p50_us", measured.gets.percentile_us(50.0));
        p.per_layer("core.get_p99_us", measured.gets.percentile_us(99.0));
        p.per_layer("core.put_auto_p50_us", measured.puts.percentile_us(50.0));
        p.per_layer("core.put_auto_p99_us", measured.puts.percentile_us(99.0));
        p.per_layer("core.scan_p50_us", measured.scans.percentile_us(50.0));
        p.per_layer("core.scan_p99_us", measured.scans.percentile_us(99.0));
        p.per_layer("core.put_ns", span_median("core.put"));
        p.per_layer("core.checkpoint_ms", median(&measured.checkpoints_ms));
        p.per_layer("core.verify_after_restart_s", verify_after_restart_s);
        p.per_layer("archive.runs", count("archive.runs"));
        p.per_layer("scrub.sweeps", count("scrub.sweeps"));
        p.per_layer("prefetch.issued", count("prefetch.issued"));
        p.per_layer(
            "harness.overhead_ns",
            (wall_ns - measured.engine_ns as f64) / total_ops as f64,
        );
        p.per_layer(
            "harness.trace_overhead_pct",
            (ops_per_s - traced_rate) / ops_per_s * 100.0,
        );
        p.per_layer("harness.accounted_share", accounted_share);

        notes.push(("get_n", measured.gets.len().to_string()));
        notes.push(("put_auto_n", measured.puts.len().to_string()));
        notes.push(("scan_n", measured.scans.len().to_string()));
        notes.push(("spans", tracer.spans().len().to_string()));
        if let Some(path) = &cfg.trace_out {
            let describe = |e: std::io::Error| format!("{}: {e}", path.display());
            let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(describe)?);
            tracer
                .write_json_lines(&mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(describe)?;
        }
    }

    Ok(Report {
        end_to_end,
        per_layer,
        notes,
        attempted,
        failed,
        lost_writes,
        violations,
    })
}

/// What the traced pass leaves behind.
struct Traced {
    tracer: Tracer,
    phase: Phase,
    /// Operations in each of the pass's `TRACED_ROUNDS` rounds.
    round_ops: u64,
    probes: Probes,
}

/// Four rounds of a sixth of the measured phase's round size with a span
/// around every engine call and `put_auto` issued as its constituents,
/// then the layer probes. Runs after the measured phase on the same
/// database, continuing the same operation stream.
fn traced_pass(
    cfg: &Config,
    engine: &Engine,
    model: &mut Model,
    leaves: &[Leaf],
    stream: &mut OpStream,
    tail_puts: bool,
    violations: &mut Vec<String>,
) -> Traced {
    const TRACED_ROUNDS: usize = 4;
    let round_ops = (cfg.workload.round_ops(cfg.scale, cfg.seconds) / 6).max(1);
    let workload_ops = round_ops * TRACED_ROUNDS as u64;
    // Workloads that never write still report the transaction spans,
    // from a tail of uniform puts after their own operations.
    let tail_puts = if tail_puts {
        (2000 / cfg.scale.shrink).max(20)
    } else {
        0
    };
    let mut tracer = Tracer::with_capacity((workload_ops * 4 + tail_puts * 4) as usize);
    let mut client = Client::new(engine, model, leaves, workload_ops as usize);
    client.run_rounds(stream, TRACED_ROUNDS, round_ops, None, Some(&mut tracer));
    let mut rng = Rng::new(cfg.seed ^ 0x5452_4143);
    for _ in 0..tail_puts {
        client.execute(Op::Put(rng.below(cfg.scale.keys)), Some(&mut tracer));
    }
    let phase = client.finish();
    let probes = Probes::measure(engine, leaves, cfg, violations);
    Traced {
        tracer,
        phase,
        round_ops,
        probes,
    }
}

/// Restart recovery as a restarted server pays it: `Database::open` on
/// the crashed directory plus one `get`, in milliseconds. The database is
/// dropped again without `close()`, and recovery writes nothing back
/// unless its redo pass has to evict, so the next restart finds the same
/// crash (on `mixed-evict`, a little less of it).
pub fn timed_reopen(dir: &Path, pool_frames: usize) -> Result<f64, String> {
    let started = Instant::now();
    let engine = Engine::open(dir, pool_frames)?;
    let mut key = [0u8; KEY_LEN];
    write_key(&mut key, 0);
    let found = engine.get(&key)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    engine.crash();
    found
        .map(|_| elapsed_ms)
        .ok_or_else(|| "the first key is gone".to_string())
}

/// Runs [`timed_reopen`] in a child process (`spf-benchmark --reopen`):
/// a process that has already held three set-ups and the measured phase
/// reopens the same crash in 1.7 s, 2.0 s, 3.2 s in a row on
/// `write-commit` (dropped databases are never freed, see README); fresh
/// processes do it in 1.5 s every time.
fn reopen_in_fresh_process(dir: &Path, pool_frames: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = std::process::Command::new(exe)
        .arg("--reopen")
        .arg(dir)
        .arg(pool_frames.to_string())
        .output()
        .map_err(|e| format!("spawning the restart process: {e}"))?;
    let printed = String::from_utf8_lossy(&child.stdout);
    match printed.trim().parse::<f64>() {
        Ok(ms) if child.status.success() => Ok(ms),
        _ => Err(format!(
            "the restart process failed: {}{printed}",
            String::from_utf8_lossy(&child.stderr)
        )),
    }
}

/// What the measured phase must and must not have done, per workload.
fn check_measured_phase(
    workload: Workload,
    delta: &Counters,
    measured: &Phase,
    violations: &mut Vec<String>,
) {
    let mut must_be_zero = vec![
        "tree.descent_retries",
        "tree.restructure_conflicts",
        "tree.leaf_splits",
        "txn.aborts",
        "pool.escalations",
        "spf.escalations",
    ];
    match workload {
        Workload::ReadCached => must_be_zero.extend(["device.reads", "pool.misses", "log.bytes"]),
        Workload::ReadCold => must_be_zero.push("log.bytes"),
        Workload::WriteCommit => must_be_zero.push("device.reads"),
        Workload::MixedEvict | Workload::FailRecover => {}
    }
    for name in must_be_zero {
        if delta.get(name) != 0 {
            violations.push(format!(
                "{}: {name} = {} in the measured phase, must be 0",
                workload.name(),
                delta.get(name)
            ));
        }
    }
    // A stale-version fault is prepared with one put of its own.
    let puts = measured.puts.len() as u64 + measured.injected[FaultClass::StaleVersion as usize];
    if delta.get("txn.user_commits") != puts {
        violations.push(format!(
            "{} user commits for {puts} puts",
            delta.get("txn.user_commits")
        ));
    }
    check_repairs(delta, &measured.injected, "measured phase", violations);
    check_idle(delta, "measured phase", violations);
}

/// Injected = detected by class = repaired, and nothing escalated.
fn check_repairs(delta: &Counters, injected: &[u64; 4], phase: &str, violations: &mut Vec<String>) {
    let of = |class: FaultClass| injected[class as usize];
    let expected = [
        (
            "pool.detected_checksum",
            of(FaultClass::BitRot) + of(FaultClass::ZeroPage),
        ),
        ("pool.detected_hard_error", of(FaultClass::HardReadError)),
        ("pool.detected_stale_lsn", of(FaultClass::StaleVersion)),
        ("spf.recoveries", injected.iter().sum()),
        ("pool.pages_recovered", injected.iter().sum()),
        ("spf.escalations", 0),
    ];
    for (name, want) in expected {
        if delta.get(name) != want {
            violations.push(format!(
                "{phase}: {name} = {}, injected faults call for {want}",
                delta.get(name)
            ));
        }
    }
}

/// The archiver, scrubber and prefetcher are never started.
fn check_idle(counters: &Counters, phase: &str, violations: &mut Vec<String>) {
    for name in ["archive.runs", "scrub.sweeps", "prefetch.issued"] {
        if counters.get(name) != 0 {
            violations.push(format!(
                "{phase}: idle subsystem ran, {name} = {}",
                counters.get(name)
            ));
        }
    }
}

/// Medians of timed calls into each layer's public function, on this
/// workload's database after the traced pass.
struct Probes {
    crc32c_page_ns: f64,
    read_page_ns: f64,
    page_verify_ns: f64,
    fetch_hit_ns: f64,
    fetch_miss_ns: f64,
    tree_get_ns: f64,
    pri_lookup_ns: f64,
    recover_page_ns: f64,
}

impl Probes {
    fn measure(
        engine: &Engine,
        leaves: &[Leaf],
        cfg: &Config,
        violations: &mut Vec<String>,
    ) -> Self {
        let calls = (20_000 / cfg.scale.shrink).max(50);
        let mut rng = Rng::new(cfg.seed ^ 0x5052_4F42);
        let mut errors = 0u64;
        let some_leaf = |rng: &mut Rng| leaves[rng.below(leaves.len() as u32) as usize];

        // A rotating set of leaf images: more than L1 holds, so the CRC
        // and verify figures are not best-case.
        let sample: Vec<Leaf> = (0..16).map(|_| some_leaf(&mut rng)).collect();
        let images: Vec<Vec<u8>> = sample.iter().map(|l| engine.raw_image(l.page)).collect();
        let crc32c_page_ns = time_batches(calls, |i| {
            black_box(Engine::crc32c(black_box(
                &images[i as usize % images.len()],
            )));
        });
        let mut buf = vec![0u8; images[0].len()];
        let read_page_ns = time_batches(calls, |_| {
            errors += u64::from(
                engine
                    .device_read(some_leaf(&mut rng).page, &mut buf)
                    .is_err(),
            );
        });
        let parsed: Vec<_> = images.into_iter().map(Engine::parse_page).collect();
        let page_verify_ns = time_batches(calls, |i| {
            let at = i as usize % parsed.len();
            errors += u64::from(!Engine::page_verify(&parsed[at], sample[at].page));
        });

        // Four pages stay resident in the smallest pool any scale uses.
        let hot = &sample[..4];
        for leaf in hot {
            errors += u64::from(engine.pool_fetch(leaf.page).is_err());
        }
        let fetch_hit_ns = time_batches(calls, |i| {
            errors += u64::from(engine.pool_fetch(hot[i as usize % hot.len()].page).is_err());
        });
        let fetch_miss_ns = time_each(
            calls,
            || {
                let page = some_leaf(&mut rng).page;
                let evicted = engine.evict(page).is_ok();
                let started = Instant::now();
                let fetched = engine.pool_fetch(page).is_ok();
                (started.elapsed(), evicted && fetched)
            },
            &mut errors,
        );

        let mut key = [0u8; KEY_LEN];
        let tree_get_ns = time_batches(calls, |_| {
            write_key(&mut key, rng.below(cfg.scale.keys));
            errors += u64::from(!matches!(engine.tree_get(&key), Ok(Some(_))));
        });
        let pri_lookup_ns = time_batches(calls, |_| {
            errors += u64::from(!engine.pri_lookup(some_leaf(&mut rng).page));
        });
        let recover_page_ns = time_each(
            (calls / 10).max(10),
            || {
                let page = some_leaf(&mut rng).page;
                let started = Instant::now();
                let recovered = engine.recover_page(page).is_ok();
                (started.elapsed(), recovered)
            },
            &mut errors,
        );

        if errors != 0 {
            violations.push(format!("{errors} probe calls failed"));
        }
        Probes {
            crc32c_page_ns,
            read_page_ns,
            page_verify_ns,
            fetch_hit_ns,
            fetch_miss_ns,
            tree_get_ns,
            pri_lookup_ns,
            recover_page_ns,
        }
    }
}

/// Median over batches of the mean ns per call: a timer read costs about
/// as much as the cheapest probes, so cheap calls are timed 50 at a time.
fn time_batches(calls: u64, mut call: impl FnMut(u64)) -> f64 {
    const BATCH: u64 = 50;
    let per_call: Vec<f64> = (0..(calls / BATCH).max(1))
        .map(|batch| {
            let started = Instant::now();
            for i in 0..BATCH {
                call(batch * BATCH + i);
            }
            started.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&per_call)
}

/// Median ns of calls that time themselves (they have untimed preparation).
fn time_each(calls: u64, mut call: impl FnMut() -> (Duration, bool), errors: &mut u64) -> f64 {
    let each: Vec<f64> = (0..calls)
        .map(|_| {
            let (elapsed, ok) = call();
            *errors += u64::from(!ok);
            elapsed.as_nanos() as f64
        })
        .collect();
    median(&each)
}

/// Sum of `size(metadata)` over every file under `dir`.
fn dir_bytes(dir: &Path, size: fn(&std::fs::Metadata) -> u64) -> Result<u64, String> {
    let describe = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(describe)? {
        let entry = entry.map_err(describe)?;
        let metadata = entry.metadata().map_err(describe)?;
        total += if metadata.is_dir() {
            dir_bytes(&entry.path(), size)?
        } else {
            size(&metadata)
        };
    }
    Ok(total)
}

/// `VmHWM`, the process's peak resident set, in MB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The filesystem type `dir` lives on (`tmpfs`, `ext4`, …): runs on
/// different filesystems are not comparable.
fn dir_fs(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            dir.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs_type)| fs_type.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir = PathBuf::from(".bench_data").join(format!("dirbytes-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("nested/b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir, |m| m.len()), Ok(15));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
