#include "bench_util.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/string_util.h"

namespace hamlet::bench {

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      args.scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      args.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(a, "--full") == 0) {
      args.full = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=X] [--seed=N] [--quick] [--full]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.quick) {
    args.mc_training_sets = 30;
    args.mc_repeats = 3;
    if (args.scale > 0.02) args.scale = 0.02;
  }
  if (args.full) {
    args.mc_training_sets = 100;
    args.mc_repeats = 100;
    args.scale = 1.0;
  }
  return args;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchArgs& args) {
  std::printf(
      "================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("Kumar et al., \"To Join or Not to Join?\", SIGMOD 2016\n");
  std::printf("scale=%.3g seed=%llu (tuple ratios are scale-invariant)\n",
              args.scale, static_cast<unsigned long long>(args.seed));
  std::printf(
      "================================================================\n");
}

LoadedDataset LoadDataset(const std::string& name, const BenchArgs& args) {
  auto ds = MakeDataset(name, args.scale, args.seed);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset '%s' failed: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  auto plan = AdviseJoins(*ds);
  if (!plan.ok()) {
    std::fprintf(stderr, "advisor failed on '%s': %s\n", name.c_str(),
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  LoadedDataset out{name, std::move(*ds), std::move(*plan),
                    *MetricForDataset(name), {}};
  for (const auto& fk : out.dataset.foreign_keys()) {
    out.all_fks.push_back(fk.fk_column);
  }
  return out;
}

PreparedTable Prepare(const LoadedDataset& ds,
                      const std::vector<std::string>& fks_to_join,
                      uint64_t seed) {
  auto table = ds.dataset.JoinSubset(fks_to_join);
  if (!table.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  auto encoded = EncodedDataset::FromTableAuto(*table);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode failed: %s\n",
                 encoded.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(seed);
  HoldoutSplit split = MakeHoldoutSplit(encoded->num_rows(), rng);
  return PreparedTable{std::move(*encoded), std::move(split)};
}

std::string Fmt(double v, int decimals) {
  return StringFormat("%.*f", decimals, v);
}

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// Sysfs cache sizes read like "2048K" or "300M".
uint64_t ParseCacheSize(const std::string& text) {
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (*end == 'K') return value << 10;
  if (*end == 'M') return value << 20;
  return value;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> HostContext() {
  std::vector<std::pair<std::string, std::string>> context;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) {
      context.emplace_back("host_cpu_model", line.substr(start));
    }
    break;
  }
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    context.emplace_back("host_num_cpus", std::to_string(CPU_COUNT(&cpus)));
  }
  for (int index = 0;; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    if (level.empty()) break;
    if (ReadFirstLine(dir + "type") != "Unified") continue;
    if (level != "2" && level != "3") continue;
    const uint64_t bytes = ParseCacheSize(ReadFirstLine(dir + "size"));
    if (bytes > 0) {
      context.emplace_back("host_l" + level + "_bytes", std::to_string(bytes));
    }
  }
  return context;
}

}  // namespace hamlet::bench
