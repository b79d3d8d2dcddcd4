//! # spf-bench
//!
//! Shared helpers for the experiment harness (`experiments` binary) and
//! the criterion micro-benchmarks: engine setup shorthands, deterministic
//! loading, and plain-text table rendering for paper-style output.

#![forbid(unsafe_code)]

use spf::{Database, DatabaseConfig, PageId};

/// Standard key encoding used across experiments.
pub fn key(i: u64) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

/// Standard value encoding (generation-stamped).
pub fn val(i: u64, gen: u64) -> Vec<u8> {
    format!("value-{i:08}-gen{gen:04}").into_bytes()
}

/// Loads keys `[0, n)` in one committed transaction.
pub fn load(db: &Database, n: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.insert(tx, &key(i), &val(i, 0)).unwrap();
    }
    db.commit(tx).unwrap();
}

/// Updates keys `[0, n)` with generation `gen` in one transaction.
pub fn update_all(db: &Database, n: u64, gen: u64) {
    let tx = db.begin();
    for i in 0..n {
        db.put(tx, &key(i), &val(i, gen)).unwrap();
    }
    db.commit(tx).unwrap();
}

/// Reads every key, asserting presence; returns how many reads were done.
pub fn read_all(db: &Database, n: u64) -> u64 {
    for i in 0..n {
        assert!(db.get(&key(i)).unwrap().is_some(), "key {i} lost");
    }
    n
}

/// A new engine with defaults overridden by `f`.
pub fn engine(f: impl FnOnce(&mut DatabaseConfig)) -> Database {
    let mut config = DatabaseConfig::default();
    f(&mut config);
    Database::create(config).expect("create database")
}

/// Wall-clock time for `iters` buffer-pool fetches spread across
/// `threads` workers, each walking `leaves` from a different offset with
/// a shared stride. Thread spawn/teardown is excluded via barriers.
/// Shared by the `buffer_pool` bench and the e14 perf experiment.
pub fn concurrent_fetch_time(
    db: &Database,
    leaves: &[PageId],
    threads: usize,
    iters: u64,
) -> std::time::Duration {
    let per_thread = iters.div_ceil(threads as u64);
    let barrier = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = db.pool().clone();
            let barrier = &barrier;
            s.spawn(move || {
                let mut i = t * 997;
                barrier.wait();
                for _ in 0..per_thread {
                    i = (i + 13) % leaves.len();
                    std::hint::black_box(pool.fetch(leaves[i]).unwrap());
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = std::time::Instant::now();
        barrier.wait();
        start.elapsed()
    })
}

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a ratio as `12.3×`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", a / b)
    }
}
