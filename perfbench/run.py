#!/usr/bin/env python3
"""Benchmark entry point for the oscache simulator.

Builds perfbench/ (which compiles ../src) into .bench_build, runs one
workload in the oscache-perfbench program, and prints a report whose
last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics.  Run from the repository root:

    python3 perfbench/run.py --workload paper_warm --seed 1 --seconds 20
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload all --pin    # re-pin the rows

Every failure, a failed build included, still ends with a result line
whose "correct" is false.  The one exception is a tree without the
simulator's sources (src/): there is nothing to measure, so it exits
non-zero and prints no result.

See perfbench/RATIONALE.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_warm", "numa_cold", "long_stream")
EXPECTED = os.path.join(HERE, "expected_rows.txt")
DEFAULT_SEED = 1
# Longest one workload process may take; the build has its own limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def emit(correct, attempted, failed, metrics):
    """Print the result line; always valid JSON (no NaN or infinity)."""
    clean = {}
    for name, metric in metrics.items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or value != value or \
                value in (float("inf"), float("-inf")):
            correct = False
            value = None
        clean[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": clean},
                     allow_nan=False), flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    """Build tree; a relative CARGO_TARGET_DIR is taken from ROOT."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(jobs):
    """Configure and build the driver; None when the build fails."""
    out = build_dir()
    binary = os.path.join(out, "oscache-perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "oscache-perfbench",
                  "-j", str(jobs)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed:", err)
            return None
        if done.returncode != 0:
            log("perfbench: build failed:", " ".join(step))
            return None
    return binary if os.path.exists(binary) else None


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--tags"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_hash():
    """Content hash of src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def manifest(raw, args):
    return {
        "git": git_describe(),
        "source": source_hash(),
        "flavor": raw.get("build_flavor", "unknown"),
        "compiler": raw.get("compiler", "unknown"),
        "cpu": read_first("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "jobs": args.jobs,
        "seed": args.seed,
    }


def run_workload(binary, workload, args, scratch):
    """Run one workload process; returns its raw JSON or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs), "--scratch", scratch]
    if args.pin:
        cmd += ["--write-expected", os.path.join(scratch, "pins.txt")]
    else:
        cmd += ["--expected", EXPECTED]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("perfbench:", workload, "did not finish:", err)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench:", workload, "printed no result; exit",
            done.returncode)
        return None
    raw["exit_code"] = done.returncode
    return raw


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def end_to_end(raw):
    reps = raw["reps"]
    return {
        "wall_s": median_of(reps, "wall_s"),
        "sim_maccesses_per_s": statistics.median(
            rep["accesses"] / rep["wall_s"] / 1e6 for rep in reps),
        "cpu_s": median_of(reps, "cpu_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "setup_s": statistics.median(raw["setup_s"]),
    }


def report(workload, raw, values, spec_metrics, man):
    """Human-readable block: every metric by name with its unit."""
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"# {workload}: " + " ".join(f"{k}={v}" for k, v in man.items()))
    if raw.get("reps"):
        walls = " ".join(f"{rep['wall_s']:.3f}" for rep in raw["reps"])
        setups = " ".join(f"{s:.3f}" for s in raw["setup_s"])
        print(f"#   {len(raw['reps'])} timed repetitions (wall s: {walls}), "
              f"{len(raw['setup_s'])} set-ups (s: {setups})")
    for metric in spec_metrics:
        name = metric["name"]
        print(f"{workload:12s} {name:36s} {values.get(name)!r:>24} "
              f"{metric['unit']}")
    frac = failed / attempted if attempted else 1.0
    print(f"{workload:12s} {'failed_frac':36s} {frac!r:>24} "
          f"({failed} of {attempted} operations)")
    extra = raw.get("extra", {})
    if workload == "paper_warm" and not raw.get("layers"):
        for name in ("paper_fig3_mae", "paper_fig2_mae"):
            print(f"{workload:12s} {name:36s} {extra.get(name)!r:>24} "
                  "(simulated)")
    for system, digest in sorted(extra.get("digests", {}).items()):
        print(f"{workload:12s} digest {system}: {digest}")
    for failure in raw.get("failures", []):
        print(f"{workload:12s} FAILED: {failure}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(os.cpu_count() or 1, 4)))
    parser.add_argument("--binary", default="",
                        help="use this prebuilt oscache-perfbench")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected_rows.txt from this run")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else \
        [w for w in names if w == args.workload]
    if not selected:
        log(f"perfbench: workload '{args.workload}' matches none of",
            ", ".join(names))
        emit(False, 0, 0, {})
        return 2
    if args.pin and (args.workload != "all" or args.seed != DEFAULT_SEED
                     or args.trace):
        log("perfbench: --pin needs --workload all, the default seed "
            "and --trace 0")
        emit(False, 0, 0, {})
        return 2
    if not args.binary and not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no simulator sources under", ROOT)
        return 2

    binary = args.binary or build(args.jobs)
    if binary is None:
        # Each selected workload is an operation that could not run.
        emit(False, len(selected), len(selected), {})
        return 1
    scratch = os.path.join(build_dir(), "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        return run_selected(binary, selected, spec, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_selected(binary, selected, spec, args, scratch):
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    correct, attempted, failed = True, 0, 0
    metrics, pins = {}, []
    for workload in selected:
        raw = run_workload(binary, workload, args, scratch)
        if raw is None:
            correct = False
            failed += 1
            attempted += 1
            continue
        values = raw["layers"] if args.trace else end_to_end(raw)
        report(workload, raw, values, spec_metrics,
               manifest(raw, args))
        missing = [m["name"] for m in spec_metrics if m["name"] not in values]
        if missing:
            log("perfbench:", workload, "lacks metrics", ", ".join(missing))
        correct = correct and raw["exit_code"] == 0 and not missing \
            and raw["failed"] == 0
        attempted += raw["attempted"]
        failed += raw["failed"]
        prefix = f"{workload}." if len(selected) > 1 else ""
        for metric in spec_metrics:
            metrics[prefix + metric["name"]] = {
                "value": values.get(metric["name"]), "unit": metric["unit"]}
        if args.pin:
            with open(os.path.join(scratch, "pins.txt")) as f:
                pins += [line for line in f if not line.startswith("#")]
    if args.pin and correct:
        with open(EXPECTED, "w") as f:
            f.write("# Canonical result-row digests (FNV-1a 64 of the "
                    "canonical JSONL row),\n# pinned for the default seed "
                    "by `python3 perfbench/run.py --workload all --pin`.\n"
                    "# <workload> <experiment>:<cell> <digest>\n")
            f.writelines(pins)
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
