//! `spf-benchmark`: one single-process, single-client, closed-loop run of
//! one named workload against a file-backed `Database`. Prints every
//! metric by name and unit, checks every result against an in-memory
//! model, and ends with one JSON line. See `benchmark/README.md`.

mod engine;
mod metrics;
mod nosync;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Metrics, END_TO_END, RUN_SECONDS};
use run::{Config, Report};
use workload::{Scale, Workload};

const USAGE: &str =
    "usage: spf-benchmark --workload <read-cached|read-cold|write-commit|mixed-evict|fail-recover>
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] [--trace-out <file>]
                     [--dir <database directory>] [--smoke]
       spf-benchmark --benchmark-json";

/// Where runs keep their databases unless `--dir` says otherwise: inside
/// the working directory, one subdirectory per process.
const DEFAULT_PARENT: &str = ".bench_data";

fn default_dir() -> PathBuf {
    PathBuf::from(DEFAULT_PARENT).join(format!("run-{}", std::process::id()))
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::ReadCached,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        scale: Scale::FULL,
        dir: default_dir(),
        trace_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.scale = Scale::SMOKE;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("no workload named {value}"))?);
            }
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.clamp(1, 60),
            "--trace" => cfg.trace = number()? != 0,
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value)),
            "--dir" => cfg.dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for m in &metrics.0 {
        let bound = END_TO_END
            .iter()
            .find(|e| e.0 == m.name)
            .map_or(String::new(), |e| {
                format!("  (better: {}, bound {})", e.2, e.3)
            });
        println!("  {:<36} {:>16.4} {}{bound}", m.name, m.value, m.unit);
    }
}

fn print_report(cfg: &Config, report: &Report) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (name, value) in &report.notes {
        println!("  {name:<36} {value}");
    }
    print_metrics("end-to-end", &report.end_to_end);
    if cfg.trace {
        print_metrics("per-layer", &report.per_layer);
    }
    println!(
        "attempted_ops {} failed_ops {} lost_writes {}",
        report.attempted, report.failed, report.lost_writes
    );
    for violation in &report.violations {
        println!("VIOLATION {violation}");
    }
    let shown = if cfg.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed + report.lost_writes,
        shown.to_json()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--benchmark-json" => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        // The restart child of a run (see `run::reopen_in_fresh_process`).
        [flag, dir, pool_frames] if flag == "--reopen" => {
            let reopened = pool_frames
                .parse()
                .map_err(|_| format!("{pool_frames} is not a frame count"))
                .and_then(|frames| run::timed_reopen(std::path::Path::new(dir), frames));
            return match reopened {
                Ok(ms) => {
                    println!("{ms}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spf-benchmark --reopen: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("spf-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run::run(&cfg);
    // Leave nothing behind: this succeeds once no run is using the parent.
    let _ = std::fs::remove_dir(DEFAULT_PARENT);
    match outcome {
        Ok(report) => {
            print_report(&cfg, &report);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("spf-benchmark: {}: {e}", cfg.workload.name());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cfg = parse(&args(
            "--workload read-cold --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::ReadCold);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10, true));
        assert_eq!(cfg.scale, Scale::FULL);
        assert_eq!(
            parse(&args("--workload read-cold --smoke")).unwrap().scale,
            Scale::SMOKE
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(&args("--seed 1")).is_err(), "workload is required");
        assert!(parse(&args("--workload nosuch")).is_err());
        assert!(parse(&args("--workload read-cold --seed x")).is_err());
        assert!(parse(&args("--workload read-cold --frobnicate 1")).is_err());
        assert!(parse(&args("--workload")).is_err());
    }
}
