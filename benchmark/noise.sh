#!/usr/bin/env bash
# Noise self-check: is the benchmark steadier than its own bounds?
#
# Runs every workload as two interleaved sets (A, B) of RUNS runs of the
# same binary, run i of either set with --seed i, and prints for every
# workload/metric the two medians, their relative difference, each set's
# interquartile range as a share of its median, and the metric's bound.
# Exits non-zero if B's median is worse than A's by more than the bound,
# or a set's interquartile range exceeds the bound (setup_s: twice the
# bound; its spread is not gated, only its drift).
#
#   benchmark/noise.sh            # 5 runs per set, about 13 minutes
#   benchmark/noise.sh 10         # what the acceptance check uses
#   benchmark/noise.sh 5 read-cold fail-recover
set -euo pipefail

runs="${1:-5}"
shift || true
cd "$(dirname "$0")"
cargo build --release --offline --quiet
bin="$(cd "${CARGO_TARGET_DIR:-../target}" && pwd)/release/spf-benchmark"

exec python3 - "$bin" "$runs" "$@" <<'EOF'
import json, statistics, subprocess, sys

binary, runs, only = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
seconds = str(spec["run_seconds"])


def measure(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


failures = 0
print(f"{'workload/metric':<32}{'median A':>14}{'median B':>14}{'B vs A':>9}{'IQR A':>8}{'IQR B':>8}{'bound':>7}")
for workload in workloads:
    sets = {"A": [], "B": []}
    for seed in range(1, runs + 1):
        for name in ("A", "B") if seed % 2 else ("B", "A"):
            sets[name].append(measure(workload, seed))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [run[name] for run in sets["A"]]
        b = [run[name] for run in sets["B"]]
        median_a, median_b = statistics.median(a), statistics.median(b)
        worse = (median_b - median_a) / median_a * (1 if metric["better"] == "lower" else -1)
        limit = 2 * bound if name == "setup_s" else bound
        bad = worse > bound or spread(a) > limit or spread(b) > limit
        failures += bad
        print(f"{workload + '/' + name:<32}{median_a:>14.4f}{median_b:>14.4f}{worse:>+9.1%}"
              f"{spread(a):>8.1%}{spread(b):>8.1%}{bound:>7.0%}{'  FAIL' if bad else ''}", flush=True)
sys.exit(1 if failures else 0)
EOF
