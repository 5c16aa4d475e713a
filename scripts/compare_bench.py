#!/usr/bin/env python3
"""Compares two google-benchmark JSON files and fails on regressions.

Usage: compare_bench.py OLD.json NEW.json [--threshold 0.10]

Refuses (exit 2) to compare files recorded by different hamlet build
types or on different hosts: a ratio across either is not a regression.

Benchmarks are matched by full name ("BM_Foo/25"). Only the feature
selection / Naive Bayes microbenches gate (see GATED below) — the rest of
the suite is reported but informational, since e.g. the obs probes sit at
nanosecond scale where scheduler noise swamps any real signal. Exits
nonzero when any gated benchmark's real_time regressed by more than the
threshold (default +10%).
"""

import argparse
import json
import re
import sys

# The perf-gated families: candidate evaluation and model training, the
# paths BENCH trajectories track across PRs (docs/PERFORMANCE.md), plus
# the serving stack's serde and batched-scoring paths plus the closed-
# loop load harness's sustained-throughput entries (docs/SERVING.md:
# BM_ServeLoad*, recorded by scripts/run_benchmarks.sh --serve-load as
# ns per scored row so a throughput drop reads as a real_time
# regression),
# the data-plane ingest/join fast paths (docs/PERFORMANCE.md "Ingest
# & join fast path": BM_ReadCsv*, BM_HashJoin*, BM_KfkJoin), the
# factorized-learning family (docs/PERFORMANCE.md "Factorized training":
# BM_Factorized*, BM_MaterializedStatsBuild), and the observability cost
# contract (docs/OBSERVABILITY.md: BM_HistogramRecord* — the prefix
# covers both the disabled probe path and its Enabled twin — and
# BM_TraceSpanPropagated, the cross-thread span propagation overhead).
GATED = re.compile(
    r"^BM_(NBTrain|NaiveBayesTrain|GreedyForward|ForwardSelection"
    r"|MiFilterScoring|SerdeSave|SerdeLoad|ServeScore|ServeLoad"
    r"|ReadCsv|HashJoin|KfkJoin"
    r"|Factorized|MaterializedStatsBuild"
    r"|HistogramRecord|TraceSpanPropagated"
    r"|TreeTrain|GbtTrain)"
)


def build_type(path):
    """Hamlet's own build type recorded in a BENCH file's context.

    The binary stamps "hamlet_build_type" via AddCustomContext (the stock
    "library_build_type" key only describes libbenchmark's build, which
    the distro ships as debug). BENCH files from before the stamp exist
    and report "unknown" — comparisons against them stay allowed, with a
    warning, so history remains usable.
    """
    with open(path) as f:
        doc = json.load(f)
    return doc.get("context", {}).get("hamlet_build_type", "unknown")


def unified_cache_bytes(context, level):
    """Size of the unified cache at `level` from google-benchmark's stock
    "caches" context list, or None when the file does not record it."""
    for cache in context.get("caches", []):
        if cache.get("level") == level and cache.get("type") == "Unified":
            return int(cache["size"])
    return None


def host(path):
    """Host fingerprint recorded in a BENCH file's context.

    The bench binaries stamp "host_cpu_model", "host_num_cpus",
    "host_l2_bytes" and "host_l3_bytes". Files from before the stamp
    still carry google-benchmark's stock "num_cpus" and "caches", which
    stand in for all but the CPU model. Fields a file does not record
    map to None and are skipped by the comparison.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})

    def stamped(key, fallback):
        value = context.get(key)
        return int(value) if value is not None else fallback

    return {
        "cpu_model": context.get("host_cpu_model"),
        "num_cpus": stamped("host_num_cpus", context.get("num_cpus")),
        "l2_bytes": stamped("host_l2_bytes",
                            unified_cache_bytes(context, 2)),
        "l3_bytes": stamped("host_l3_bytes",
                            unified_cache_bytes(context, 3)),
    }


def host_mismatches(old, new):
    """Fingerprint fields both files record and that differ."""
    return [(key, old[key], new[key]) for key in old
            if old[key] is not None and new[key] is not None
            and old[key] != new[key]]


def load(path):
    """Loads {base name -> entry}, preferring median aggregates.

    Files recorded with --benchmark_repetitions carry aggregate entries
    (mean/median/stddev/cv) whose run_name is the base benchmark name;
    the median is robust to the scheduler noise a single run picks up on
    a busy host, so it wins over raw entries when both exist. Raw-format
    files (one entry per benchmark, no aggregates) load unchanged, so
    old and new BENCH files stay comparable across the format change.
    """
    with open(path) as f:
        doc = json.load(f)
    raw = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        base = b.get("run_name", b["name"])
        if b.get("error_occurred"):
            # Skipped variants (e.g. BM_FactorizedVsMaterialized's 10M-row
            # arm without HAMLET_BENCH_LARGE=1) record real_time 0, which
            # would read as an infinite regression.
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[base] = b
            continue
        raw[base] = b
    out = raw
    out.update(medians)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed real_time regression fraction")
    args = parser.parse_args()

    bt_old, bt_new = build_type(args.old), build_type(args.new)
    if "unknown" in (bt_old, bt_new):
        print("compare_bench: warning: build type unknown for "
              f"{args.old if bt_old == 'unknown' else args.new} "
              "(recorded before hamlet_build_type was stamped); "
              "comparing anyway", file=sys.stderr)
    elif bt_old != bt_new:
        print(f"compare_bench: refusing to compare {args.old} "
              f"(hamlet_build_type={bt_old}) against {args.new} "
              f"(hamlet_build_type={bt_new}): debug-vs-release ratios "
              "are meaningless", file=sys.stderr)
        return 2

    mismatches = host_mismatches(host(args.old), host(args.new))
    if mismatches:
        detail = ", ".join(f"{key} {a!r} vs {b!r}"
                           for key, a, b in mismatches)
        print(f"compare_bench: refusing to compare {args.old} against "
              f"{args.new}: recorded on different hosts ({detail}); "
              "cross-host ratios are not regressions", file=sys.stderr)
        return 2

    old = load(args.old)
    new = load(args.new)
    common = [name for name in new if name in old]
    if not common:
        print("compare_bench: no common benchmarks between "
              f"{args.old} and {args.new}", file=sys.stderr)
        return 2

    regressions = []
    print(f"{'benchmark':<44} {'old':>12} {'new':>12} {'ratio':>7}  gated")
    for name in common:
        t_old = old[name]["real_time"]
        t_new = new[name]["real_time"]
        ratio = t_new / t_old if t_old > 0 else float("inf")
        gated = bool(GATED.match(name))
        unit = new[name].get("time_unit", "ns")
        flag = "yes" if gated else "-"
        marker = ""
        if gated and ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
            marker = "  << REGRESSION"
        print(f"{name:<44} {t_old:>10.1f}{unit:>2} {t_new:>10.1f}{unit:>2} "
              f"{ratio:>6.2f}x  {flag}{marker}")

    # A gated benchmark silently disappearing from the new file is how a
    # perf gate stops gating — e.g. a rename or a deleted registration
    # would otherwise pass every future comparison. Shout, don't note.
    missing = sorted(
        name for name in old if name not in new and GATED.match(name))
    if missing:
        print(f"\ncompare_bench: WARNING: {len(missing)} gated "
              f"benchmark(s) present in {args.old} but MISSING from "
              f"{args.new} — these paths are no longer perf-gated:",
              file=sys.stderr)
        for name in missing:
            print(f"  MISSING GATED: {name}", file=sys.stderr)

    if regressions:
        print(f"\ncompare_bench: {len(regressions)} gated regression(s) "
              f"beyond +{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\ncompare_bench: no gated regressions beyond "
          f"+{args.threshold:.0%} ({len(common)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
