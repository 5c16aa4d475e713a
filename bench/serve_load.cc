/// serve_load: the SLO-gated closed-loop load harness for the sharded
/// scoring data plane (src/serve/load_gen.h).
///
/// Runs three arms against freshly-published synthetic models:
///
///   baseline  — num_shards=1, warm model cache OFF, blocking admission:
///               the single-dispatcher data plane of PR 4, the number
///               the sharded plane must beat;
///   sharded   — the default sharded configuration (auto shards, warm
///               cache ON, blocking admission);
///   shed      — the sharded plane in load-shedding mode behind a
///               deliberately tiny queue, to exercise typed kOverloaded
///               rejections; the harness asserts the accounting
///               identity served + shed + expired + failed == offered
///               and exits nonzero if it ever breaks.
///
/// With --out=PATH the harness writes a google-benchmark-compatible
/// JSON file: the two sustained-throughput arms appear as benchmark
/// entries whose real_time is NANOSECONDS PER SCORED ROW (so a
/// throughput drop reads as a real_time regression and
/// scripts/compare_bench.py's +10% gate — BM_ServeLoad* is in its GATED
/// set — applies unchanged), plus a structured "serve_load" section
/// with the full reports and the sharded-over-baseline speedup.
/// scripts/run_benchmarks.sh --serve-load merges that file into the
/// day's BENCH_<date>.json.
///
/// Run: ./serve_load [--duration=S] [--clients=N] [--rate=R]
///          [--block-rows=N] [--models=N] [--versions=N] [--shards=N]
///          [--seed=N] [--out=PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "common/json_writer.h"
#include "serve/load_gen.h"

using namespace hamlet;         // NOLINT: bench brevity.
using namespace hamlet::serve;  // NOLINT: bench brevity.

namespace {

struct Flags {
  double duration_s = 1.5;
  uint32_t clients = 8;
  double rate = 0.0;
  uint32_t block_rows = 16;
  uint32_t models = 4;
  uint32_t versions = 0;  // 0 = LoadGenOptions' default history depth.
  uint32_t shards = 0;    // 0 = the service's auto choice.
  uint64_t seed = 7;
  std::string out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--duration=", 11) == 0) {
      flags->duration_s = std::strtod(arg + 11, nullptr);
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      flags->clients = static_cast<uint32_t>(std::strtoul(arg + 10, nullptr,
                                                          10));
    } else if (std::strncmp(arg, "--rate=", 7) == 0) {
      flags->rate = std::strtod(arg + 7, nullptr);
    } else if (std::strncmp(arg, "--block-rows=", 13) == 0) {
      flags->block_rows = static_cast<uint32_t>(std::strtoul(arg + 13,
                                                             nullptr, 10));
    } else if (std::strncmp(arg, "--models=", 9) == 0) {
      flags->models = static_cast<uint32_t>(std::strtoul(arg + 9, nullptr,
                                                         10));
    } else if (std::strncmp(arg, "--versions=", 11) == 0) {
      flags->versions = static_cast<uint32_t>(std::strtoul(arg + 11,
                                                           nullptr, 10));
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      flags->shards = static_cast<uint32_t>(std::strtoul(arg + 9, nullptr,
                                                         10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      flags->seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      flags->out = arg + 6;
    } else {
      std::fprintf(stderr, "serve_load: unknown flag %s\n", arg);
      return false;
    }
  }
  return true;
}

/// One benchmark-format entry: real_time = ns per scored row.
void WriteBenchEntry(JsonWriter* w, const std::string& name,
                     const LoadReport& report) {
  const double ns_per_score =
      report.sustained_scores_per_s > 0.0
          ? 1e9 / report.sustained_scores_per_s
          : 0.0;
  w->BeginObject();
  w->Key("name");
  w->String(name);
  w->Key("run_name");
  w->String(name);
  w->Key("run_type");
  w->String("iteration");
  w->Key("iterations");
  w->UInt(report.served);
  w->Key("real_time");
  w->Double(ns_per_score);
  w->Key("cpu_time");
  w->Double(ns_per_score);
  w->Key("time_unit");
  w->String("ns");
  w->EndObject();
}

void WriteReport(JsonWriter* w, const LoadReport& r) {
  w->BeginObject();
  w->Key("offered");
  w->UInt(r.offered);
  w->Key("served");
  w->UInt(r.served);
  w->Key("shed");
  w->UInt(r.shed);
  w->Key("expired");
  w->UInt(r.expired);
  w->Key("failed");
  w->UInt(r.failed);
  w->Key("rows_scored");
  w->UInt(r.rows_scored);
  w->Key("wall_s");
  w->Double(r.wall_s);
  w->Key("sustained_scores_per_s");
  w->Double(r.sustained_scores_per_s);
  w->Key("sustained_requests_per_s");
  w->Double(r.sustained_requests_per_s);
  w->Key("client_p50_us");
  w->Double(r.client_p50_us);
  w->Key("client_p95_us");
  w->Double(r.client_p95_us);
  w->Key("client_p99_us");
  w->Double(r.client_p99_us);
  w->Key("service_p50_us");
  w->Double(r.service_p50_us);
  w->Key("service_p95_us");
  w->Double(r.service_p95_us);
  w->Key("service_p99_us");
  w->Double(r.service_p99_us);
  w->Key("mean_batch_requests");
  w->Double(r.mean_batch_requests);
  w->Key("warm_cache_hits");
  w->UInt(r.warm_cache_hits);
  w->Key("warm_cache_misses");
  w->UInt(r.warm_cache_misses);
  w->Key("num_shards");
  w->UInt(r.num_shards);
  w->Key("accounting_exact");
  w->Bool(r.accounting_exact);
  w->EndObject();
}

Result<LoadReport> RunArm(const char* label, const ServiceOptions& service,
                          const LoadGenOptions& load) {
  const std::string root =
      std::string("artifacts/serve_load_bench/") + label;
  std::filesystem::remove_all(root);
  ArtifactStore store(root);
  Result<LoadReport> report = RunClosedLoopLoad(&store, service, load);
  if (report.ok()) {
    std::printf("[%s] shards=%u warm=%d policy=%s\n%s\n", label,
                report->num_shards, service.warm_model_cache ? 1 : 0,
                service.overload_policy == OverloadPolicy::kShed ? "shed"
                                                                 : "block",
                FormatLoadReport(*report).c_str());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  LoadGenOptions load;
  load.clients = flags.clients;
  load.duration_s = flags.duration_s;
  load.target_rate = flags.rate;
  load.block_rows = flags.block_rows;
  load.num_models = flags.models;
  if (flags.versions != 0) load.versions_per_model = flags.versions;
  load.seed = flags.seed;

  // Arm 1: the single-dispatcher plane the sharded one must beat.
  ServiceOptions baseline;
  baseline.num_shards = 1;
  baseline.warm_model_cache = false;
  Result<LoadReport> base = RunArm("baseline", baseline, load);
  if (!base.ok()) {
    std::fprintf(stderr, "serve_load: baseline arm failed: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }

  // Arm 2: the sharded data plane at its defaults.
  ServiceOptions sharded;
  sharded.num_shards = flags.shards;
  Result<LoadReport> shard = RunArm("sharded", sharded, load);
  if (!shard.ok()) {
    std::fprintf(stderr, "serve_load: sharded arm failed: %s\n",
                 shard.status().ToString().c_str());
    return 1;
  }

  // Arm 3: shedding mode behind a tiny queue — rejections are expected;
  // broken accounting is not.
  ServiceOptions shed_opts;
  shed_opts.num_shards = flags.shards;
  shed_opts.queue_capacity = 8;
  shed_opts.shed_high_water = 4;
  shed_opts.overload_policy = OverloadPolicy::kShed;
  LoadGenOptions shed_load = load;
  shed_load.duration_s = flags.duration_s * 0.25;
  Result<LoadReport> shed = RunArm("shed", shed_opts, shed_load);
  if (!shed.ok()) {
    std::fprintf(stderr, "serve_load: shed arm failed: %s\n",
                 shed.status().ToString().c_str());
    return 1;
  }
  if (!shed->accounting_exact || !base->accounting_exact ||
      !shard->accounting_exact) {
    std::fprintf(stderr,
                 "serve_load: ACCOUNTING MISMATCH: served + shed + expired "
                 "+ failed != offered\n");
    return 1;
  }

  const double speedup =
      base->sustained_scores_per_s > 0.0
          ? shard->sustained_scores_per_s / base->sustained_scores_per_s
          : 0.0;
  std::printf("sharded-over-baseline speedup: %.2fx sustained scores/s\n",
              speedup);

  if (!flags.out.empty()) {
    std::ofstream out(flags.out, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "serve_load: cannot open %s\n",
                   flags.out.c_str());
      return 1;
    }
    JsonWriter w(out);
    w.BeginObject();
    w.Key("context");
    w.BeginObject();
    w.Key("hamlet_build_type");
    // Same NDEBUG stamp as bench/micro_benchmarks.cc: compare_bench.py
    // refuses debug-vs-release ratios.
#ifdef NDEBUG
    w.String("release");
#else
    w.String("debug");
#endif
    // The host fingerprint the micro benches stamp too: compare_bench.py
    // refuses cross-host diffs.
    for (const auto& [key, value] : hamlet::bench::HostContext()) {
      w.Key(key);
      w.String(value);
    }
    w.EndObject();
    w.Key("benchmarks");
    w.BeginArray();
    WriteBenchEntry(&w, "BM_ServeLoadSustained/baseline", *base);
    WriteBenchEntry(&w, "BM_ServeLoadSustained/sharded", *shard);
    w.EndArray();
    w.Key("serve_load");
    w.BeginObject();
    w.Key("baseline");
    WriteReport(&w, *base);
    w.Key("sharded");
    WriteReport(&w, *shard);
    w.Key("shed");
    WriteReport(&w, *shed);
    w.Key("speedup_scores_per_s");
    w.Double(speedup);
    w.EndObject();
    w.EndObject();
    out << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "serve_load: write to %s failed\n",
                   flags.out.c_str());
      return 1;
    }
    std::printf("serve_load: wrote %s\n", flags.out.c_str());
  }
  return 0;
}
