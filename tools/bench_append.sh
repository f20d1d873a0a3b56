#!/bin/sh
# Measure sampled-vs-full replay throughput on a generated trace and
# append the result to BENCH_sampling.json at the repo root.
#
# Usage: tools/bench_append.sh [build-dir] [quanta] [plan]
#        tools/bench_append.sh perf [build-dir] [label]
#
#   build-dir  build tree with oscache + oscache-sample (default: build)
#   quanta     synthetic-workload length (default: 1960, ~100M records)
#   plan       sampling plan (default: period=10m,measure=10k,warmup=100k)
#
# The trace is generated into a scratch directory, replayed sampled
# and full through `oscache-sample run --compare-full --json`, and the
# JSON line is merged into the entries array with the record count and
# trace size attached.  Requires python3 for the JSON merge.
#
# The `perf` mode measures raw replay throughput: it configures a
# Release+LTO tree if the given build-dir has none, runs the
# bench/perf_simulator replay section (all four workloads, bare and
# checked, min-of-2 each), and appends the accesses/sec numbers to
# BENCH_perf.json — the series tools/run_checks.sh gates against.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)

if [ "${1:-}" = "perf" ]; then
    build=${2:-"$repo/build-rel"}
    label=${3:-"dev"}
    bench="$repo/BENCH_perf.json"
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT

    echo "== configure/build perf_simulator ($build, Release+LTO) =="
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON > /dev/null
    cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
        --target perf_simulator > /dev/null

    echo "== replay throughput (4 workloads, bare + checked) =="
    OSCACHE_BENCH_PERF_OUT="$scratch/perf.json" \
        "$build/bench/perf_simulator" --benchmark_filter=NONE \
        > /dev/null

    python3 - "$bench" "$scratch/perf.json" "$label" << 'EOF'
import json, os, sys, datetime

bench_path, perf_path, label = sys.argv[1:4]

rows = json.load(open(perf_path))["replay"]

doc = json.load(open(bench_path))
entry = {
    "date": datetime.date.today().isoformat(),
    "host": os.uname().sysname.lower() + "-" + os.uname().machine,
    "build": "Release+LTO",
    "label": label,
    "workloads": rows,
}
doc["entries"].append(entry)
with open(bench_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("appended: " + ", ".join(
    "%s=%.2fM acc/s" % (r["workload"], r["accesses_per_sec"] / 1e6)
    for r in rows))
EOF
    exit 0
fi

build=${1:-"$repo/build"}
quanta=${2:-1960}
plan=${3:-"period=10m,measure=10k,warmup=100k"}
bench="$repo/BENCH_sampling.json"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
trace="$scratch/bench.otc"

echo "== generate (shell, quanta $quanta, chunked) =="
"$build/tools/oscache" generate --workload shell --quanta "$quanta" \
    --format chunked --out "$trace"

echo "== sampled vs full ($plan) =="
"$build/tools/oscache-sample" run --trace "$trace" --system base \
    --plan "$plan" --compare-full --json > "$scratch/result.json"

python3 - "$bench" "$scratch/result.json" "$trace" << 'EOF'
import json, os, sys, datetime

bench_path, result_path, trace_path = sys.argv[1:4]
result = json.load(open(result_path))
doc = json.load(open(bench_path))

records = result["records"]
full_s = result["wall_ms_full"] / 1000.0
sampled_s = result["wall_ms_sampled"] / 1000.0
entry = {
    "date": datetime.date.today().isoformat(),
    "host": os.uname().sysname.lower() + "-" + os.uname().machine,
    "trace_records": records,
    "trace_bytes": os.path.getsize(trace_path),
    "workload": "shell",
    "system": result["system"].lower(),
    "plan": result["plan"],
    "windows": result["windows"],
    "replayed_fraction": round(result["replayed_frac"], 4),
    "full_wall_ms": result["wall_ms_full"],
    "sampled_wall_ms": result["wall_ms_sampled"],
    "full_accesses_per_sec": int(records / full_s),
    "sampled_accesses_per_sec": int(records / sampled_s),
    "speedup": result["speedup"],
    "all_within_ci": result["all_within_ci"],
    "metrics": result["metrics"],
}
doc["entries"].append(entry)
with open(bench_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("appended: %.1fx speedup, all_within_ci=%s" %
      (entry["speedup"], entry["all_within_ci"]))
EOF
