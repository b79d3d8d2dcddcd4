//! Runs the built `spf-benchmark` the way the driver does, at `--smoke`
//! scale: every workload, both `--trace` modes, the last-line JSON
//! contract, the exact-count promises and the failure exits.

use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 5] = [
    "read-cached",
    "read-cold",
    "write-commit",
    "mixed-evict",
    "fail-recover",
];

struct Run {
    code: Option<i32>,
    lines: Vec<String>,
}

fn benchmark(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_spf-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    Run {
        code: out.status.code(),
        lines: String::from_utf8(out.stdout)
            .expect("utf-8 output")
            .lines()
            .map(String::from)
            .collect(),
    }
}

fn smoke(workload: &str, seed: &str, trace: &str) -> Run {
    let run = benchmark(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "10",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(run.code, Some(0), "{workload}: {:#?}", run.lines);
    run
}

impl Run {
    fn result(&self) -> &str {
        self.lines.last().expect("a result line")
    }

    /// `(name, value)` of every metric in the last-line JSON object.
    fn metrics(&self) -> Vec<(String, f64)> {
        let (_, metrics) = self.result().split_once("\"metrics\": {").unwrap();
        metrics
            .split("\"}")
            .filter_map(|member| {
                let (name, rest) = member.split_once("\": {\"value\": ")?;
                let (value, _) = rest.split_once(", \"unit\": ")?;
                let name = name.rsplit('"').next()?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect()
    }

    fn metric(&self, name: &str) -> f64 {
        let found = self.metrics().into_iter().find(|m| m.0 == name);
        found.unwrap_or_else(|| panic!("no metric {name}")).1
    }

    fn note(&self, name: &str) -> &str {
        let line = self.lines.iter().find(|l| l.trim_start().starts_with(name));
        line.unwrap_or_else(|| panic!("no note {name}"))
            .trim_start()
            .strip_prefix(name)
            .unwrap()
            .trim()
    }
}

/// The metric names `BENCHMARK.json` lists under `section`, in order.
fn catalogue(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
    let (_, rest) = text.split_once(&format!("\"{section}\": [")).unwrap();
    let (body, _) = rest.split_once(']').unwrap();
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| entry.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_the_catalogue_in_both_modes() {
    let started = Instant::now();
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = smoke(workload, "1", trace);
            assert!(
                run.result()
                    .starts_with("{\"correct\": true, \"attempted\": "),
                "{}",
                run.result()
            );
            assert!(run.result().contains("\"failed\": 0, \"metrics\": {"));
            assert!(!run.lines.iter().any(|l| l.starts_with("VIOLATION")));
            let names: Vec<String> = run.metrics().into_iter().map(|m| m.0).collect();
            assert_eq!(names, catalogue(section), "{workload} --trace {trace}");
            if trace == "0" {
                for (name, value) in run.metrics() {
                    assert!(value > 0.0, "{workload}/{name} = {value}");
                }
            }
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{:?}",
        started.elapsed()
    );
}

#[test]
fn fail_recover_repairs_every_injected_fault_of_all_four_classes() {
    let run = smoke("fail-recover", "2", "1");
    // 12 rounds of 600 operations, a fault every 50th.
    assert_eq!(run.note("injected_by_class"), "[36, 36, 36, 36]");
    assert_eq!(run.metric("recovery.repairs"), 144.0);
    assert_eq!(run.metric("recovery.escalations"), 0.0);
    assert_eq!(run.metric("buffer.detected_checksum"), 72.0);
    assert_eq!(run.metric("buffer.detected_hard_error"), 36.0);
    assert_eq!(run.metric("buffer.detected_stale_lsn"), 36.0);
    assert_eq!(run.metric("buffer.pages_recovered"), 144.0);
}

#[test]
fn same_seed_repeats_the_exact_counts() {
    let exact = |run: &Run| {
        (
            run.note("ops_digest").to_string(),
            run.metric("storage.reads_per_op"),
            run.metric("btree.node_visits_per_op"),
            run.metric("wal.bytes_per_op"),
            run.metric("recovery.restart_wal_mb"),
        )
    };
    let first = smoke("mixed-evict", "5", "1");
    assert_eq!(exact(&first), exact(&smoke("mixed-evict", "5", "1")));
    assert_ne!(exact(&first).0, exact(&smoke("mixed-evict", "6", "1")).0);

    let untraced = |seed| {
        let run = smoke("mixed-evict", seed, "0");
        (run.metric("wal_bytes_per_op"), run.metric("space_amp"))
    };
    assert_eq!(untraced("5"), untraced("5"));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nosuch"][..],
        &["--seed", "1"],
        &["--reopen", ".bench_data/nowhere", "16"],
    ] {
        let run = benchmark(args);
        assert_eq!(run.code, Some(2), "{args:?}");
        assert!(run.lines.is_empty(), "{args:?} printed {:?}", run.lines);
    }
}
