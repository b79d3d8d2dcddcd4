//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`spf-benchmark --benchmark-json`) and a test keeps the two equal.

use crate::workload::Workload;

/// `(name, unit, better, bound)`. `bound` is the share of the parent's
/// median by which the metric may worsen before a change is a regression.
/// The wall-clock bounds are what the shared 2-core sandbox can resolve
/// (README, "Noise self-check"): about three times the quartile spread of
/// same-code runs in a quiet hour, and still above it in a noisy one. The
/// counts repeat exactly for a seed and move by under 0.1 % across seeds.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.20),
    ("op_p50_us", "us", "lower", 0.20),
    ("restart_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("wal_bytes_per_op", "B/op", "lower", 0.02),
    ("space_amp", "ratio", "lower", 0.02),
    ("repair_p50_us", "us", "lower", 0.20),
];

/// `(name, unit, better)`. Reported by `--trace 1`, never gated. For the
/// sanity counts (`txn.user_commits`, `recovery.repairs`, …) the
/// direction is nominal: they must equal what the workload issued.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    ("util.crc32c_page_ns", "ns", "lower"),
    ("storage.read_page_ns", "ns", "lower"),
    ("storage.page_verify_ns", "ns", "lower"),
    ("storage.reads_per_op", "1/op", "lower"),
    ("storage.writes_per_op", "1/op", "lower"),
    ("storage.syncs", "count", "lower"),
    ("storage.failed_reads", "count", "lower"),
    ("storage.silent_corrupt_reads", "count", "lower"),
    ("buffer.fetch_hit_ns", "ns", "lower"),
    ("buffer.fetch_miss_ns", "ns", "lower"),
    ("buffer.hit_rate", "ratio", "higher"),
    ("buffer.evictions_per_op", "1/op", "lower"),
    ("buffer.write_backs_per_op", "1/op", "lower"),
    ("buffer.detected_checksum", "count", "lower"),
    ("buffer.detected_stale_lsn", "count", "lower"),
    ("buffer.detected_hard_error", "count", "lower"),
    ("buffer.pages_recovered", "count", "lower"),
    ("btree.get_ns", "ns", "lower"),
    ("btree.node_visits_per_op", "1/op", "lower"),
    ("btree.fence_checks_per_op", "1/op", "lower"),
    ("btree.descent_retries", "count", "lower"),
    ("btree.restructure_conflicts", "count", "lower"),
    ("btree.leaf_splits", "count", "lower"),
    ("txn.begin_ns", "ns", "lower"),
    ("txn.commit_ns", "ns", "lower"),
    ("txn.user_commits", "count", "lower"),
    ("txn.aborts", "count", "lower"),
    ("wal.records_per_op", "1/op", "lower"),
    ("wal.bytes_per_op", "B/op", "lower"),
    ("wal.forces_per_commit", "ratio", "lower"),
    ("wal.bytes_per_force", "B", "higher"),
    ("wal.pri_update_records_per_op", "1/op", "lower"),
    ("wal.backup_taken_records_per_op", "1/op", "lower"),
    ("recovery.pri_lookup_ns", "ns", "lower"),
    ("recovery.recover_page_ns", "ns", "lower"),
    ("recovery.repairs", "count", "lower"),
    ("recovery.escalations", "count", "lower"),
    ("recovery.chain_records_per_repair", "ratio", "lower"),
    ("recovery.from_format_record", "count", "lower"),
    ("recovery.from_backup_page", "count", "lower"),
    ("recovery.repair_p99_us", "us", "lower"),
    ("recovery.detect_overhead_us", "us", "lower"),
    ("recovery.policy_backups_per_op", "1/op", "lower"),
    ("recovery.pri_updates_logged_per_op", "1/op", "lower"),
    ("recovery.restart_wal_mb", "MB", "lower"),
    ("core.get_p50_us", "us", "lower"),
    ("core.get_p99_us", "us", "lower"),
    ("core.put_auto_p50_us", "us", "lower"),
    ("core.put_auto_p99_us", "us", "lower"),
    ("core.scan_p50_us", "us", "lower"),
    ("core.scan_p99_us", "us", "lower"),
    ("core.put_ns", "ns", "lower"),
    ("core.checkpoint_ms", "ms", "lower"),
    ("core.verify_after_restart_s", "s", "lower"),
    ("archive.runs", "count", "lower"),
    ("scrub.sweeps", "count", "lower"),
    ("prefetch.issued", "count", "lower"),
    ("harness.overhead_ns", "ns", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.accounted_share", "ratio", "higher"),
];

/// Why each workload exists, in one line (`BENCHMARK.json`'s `why`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::ReadCached => {
            "uniform gets, pool holds the whole tree: btree descent and the buffer hit path only; the no-change workload for I/O, log and recovery work"
        }
        Workload::ReadCold => {
            "uniform gets, pool holds 1/11 of the leaves: buffer miss path, device read, CRC and page verify, PRI cross-check and eviction dominate"
        }
        Workload::WriteCommit => {
            "uniform put_auto, tree resident: txn begin/lock/commit, WAL append and force, PRI maintenance logging; redo-heavy restart"
        }
        Workload::MixedEvict => {
            "skewed puts, gets and scans through a small pool: dirty evictions, write-back forces, backup policy, checkpoints inside the rounds"
        }
        Workload::FailRecover => {
            "every 50th get trips an injected single-page failure of one of four classes: detection, PRI lookup, chain replay, retry"
        }
    }
}

/// How long one run measures, in seconds (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(w)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// A measured value under its catalogue name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects a run's metrics, taking each unit from the catalogue.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let &(name, unit, ..) = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.push(name, unit, value);
    }

    pub fn per_layer(&mut self, name: &str, value: f64) {
        let &(name, unit, _) = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.push(name, unit, value);
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "{name} reported twice"
        );
        self.0.push(Metric { name, unit, value });
    }

    /// The last-line JSON object's `metrics` member.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_the_catalogue() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn catalogue_obeys_the_schema_limits() {
        let legal_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let legal_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for (name, unit, better, bound) in END_TO_END {
            assert!(legal_name(name) && legal_unit(unit), "{name} {unit}");
            assert!(better == "lower" || better == "higher");
            assert!(bound > 0.0 && bound <= 0.25);
            names.push(name);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(legal_name(name) && legal_unit(unit), "{name} {unit}");
            assert!(better == "lower" || better == "higher");
            names.push(name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(Workload::ALL.iter().all(|&w| why(w).len() <= 200));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.end_to_end("setup_s", 1.5);
        metrics.end_to_end("ops_per_s", 1000.25);
        assert_eq!(
            metrics.to_json(),
            "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 1000.25, \"unit\": \"op/s\"}}"
        );
    }
}
