#!/usr/bin/env python3
"""Builds and runs the Hamlet benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig7-joinall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare BASE NEW

A run builds the library and the benchmark from the sources next to this
directory (CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs
one workload, and prints the result as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. The same line, stamped
with the host fingerprint and the build type, is written to
.bench_results/ through a temporary file that is validated before it is
renamed into place. --compare reads such files (or directories of them)
and refuses to compare results from different hosts or build types.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hamlet.h")):
        raise SystemExit("perfbench: no Hamlet sources at src/hamlet.h; "
                         "run from the root of a Hamlet checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return out


def build_type(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_fingerprint():
    """CPU model, usable CPUs and cache sizes of this host."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches["L" + level] = size
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown")}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate_result(result, trace, bench):
    """Returns a list of problems with one result line (empty = valid)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(names - set(metrics)), sorted(set(metrics) - names)))
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(m["name"] + " is not a finite number")
        if got["unit"] != m["unit"]:
            problems.append("%s unit %r, expected %r" % (
                m["name"], got["unit"], m["unit"]))
    return problems


def write_result_file(path, record, trace, bench):
    """tmp file -> re-read and validate -> rename: never a partial file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    with open(tmp) as f:
        back = json.load(f)
    problems = validate_result(back.get("result"), trace, bench)
    if problems or back.get("host") != record["host"]:
        os.remove(tmp)
        raise ValueError("result file failed validation: %s" % problems)
    os.replace(tmp, path)


def run(args):
    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit("perfbench: unknown workload " + args.workload)
    out = build(["hamlet_perfbench"])
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s.seed%d.trace%d" % (
        args.workload, args.seed, args.trace))
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(out, "hamlet_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        log("the benchmark printed no result (exit code %d)" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    problems = validate_result(result, args.trace, bench)
    if problems:
        log("invalid result: %s" % "; ".join(problems))
        return 1
    record = {"host": host_fingerprint(), "build_type": build_type(out),
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result}
    write_result_file(stem + ".json", record, args.trace, bench)
    print(json.dumps(result), flush=True)
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        log("correctness checks failed")
        return done.returncode or 1
    return 0


def load_results(target):
    paths = sorted(glob.glob(os.path.join(target, "*.trace*.json"))) \
        if os.path.isdir(target) else [target]
    records = []
    for p in paths:
        if p.endswith(".spans.json"):
            continue
        with open(p) as f:
            records.append(json.load(f))
    return records


def compare(base_target, new_target):
    """Median per (workload, metric) on each side, with the bound check.

    Refuses (exit 3) when the two sides ran on different hosts or build
    types: numbers from another machine or an unoptimized build say
    nothing about a change."""
    base, new = load_results(base_target), load_results(new_target)
    if not base or not new:
        log("nothing to compare")
        return 2
    stamps = {(json.dumps(r["host"], sort_keys=True), r["build_type"])
              for r in base + new}
    if len(stamps) != 1:
        log("refusing to compare results from different hosts or build "
            "types: %s" % sorted(stamps))
        return 3
    bounds = {m["name"]: m for m in spec()["end_to_end"]}

    def medians(records):
        values = {}
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
        return {k: statistics.median(v) for k, v in values.items()}

    b, n = medians(base), medians(new)
    worse = 0
    print("%-18s %-30s %14s %14s %9s" % ("workload", "metric", "base", "new",
                                          "change"))
    for key in sorted(set(b) & set(n)):
        change = (n[key] - b[key]) / b[key] if b[key] else float("nan")
        bound = bounds.get(key[1])
        flag = ""
        if bound is not None and b[key]:
            sign = 1 if bound["better"] == "lower" else -1
            if sign * change > bound["bound"]:
                flag = "  WORSE than bound %.2f" % bound["bound"]
                worse += 1
        print("%-18s %-30s %14.6g %14.6g %+8.1f%%%s" % (
            key[0], key[1], b[key], n[key], 100 * change, flag))
    return 1 if worse else 0


def self_test():
    out = build(["perfbench_selftest"])
    failures = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    bench = spec()
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        m["name"]: {"value": 1.5, "unit": m["unit"]}
        for m in bench["end_to_end"]}}
    checks = [
        (validate_result(good, 0, bench) == [], "a complete result validates"),
        (validate_result(good, 1, bench) != [],
         "end-to-end metrics are not a traced result"),
        (validate_result(dict(good, attempted=0), 0, bench) != [],
         "attempted must be at least 1"),
        (validate_result(dict(good, extra=1), 0, bench) != [],
         "extra keys are refused"),
    ]
    bad = json.loads(json.dumps(good))
    bad["metrics"]["setup_s"]["value"] = float("nan")
    checks.append((validate_result(bad, 0, bench) != [],
                   "non-finite values are refused"))
    for ok, what in checks:
        if not ok:
            print("FAIL: " + what)
            failures += 1
    if failures == 0:
        print("run.py self-test: all checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
