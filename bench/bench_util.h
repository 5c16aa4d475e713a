#ifndef HAMLET_BENCH_BENCH_UTIL_H_
#define HAMLET_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared plumbing for the figure-reproduction harnesses: flag parsing,
/// dataset construction at a tuple-ratio-preserving scale, and the
/// JoinAll/JoinOpt evaluation loop used by Figures 7–9.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/runner.h"
#include "relational/catalog.h"
#include "sim/monte_carlo.h"

namespace hamlet::bench {

/// Common command-line knobs. Every bench accepts:
///   --scale=X   dataset scale (default 0.1; preserves all tuple ratios)
///   --seed=N    master seed (default 42)
///   --quick     shrink Monte Carlo sizes for smoke runs
///   --full      paper-scale Monte Carlo (100 x 100) and scale 1.0 data
struct BenchArgs {
  double scale = 0.1;
  uint64_t seed = 42;
  bool quick = false;
  bool full = false;
  uint32_t mc_training_sets = 100;
  uint32_t mc_repeats = 10;
};

/// Parses argv; unknown flags abort with a usage message.
BenchArgs ParseBenchArgs(int argc, char** argv);

/// Prints the standard header naming the experiment being reproduced.
void PrintHeader(const std::string& figure, const std::string& description,
                 const BenchArgs& args);

/// A dataset loaded with everything the end-to-end experiments need.
struct LoadedDataset {
  std::string name;
  NormalizedDataset dataset;
  JoinPlan plan;          ///< Advisor output (TR rule, paper thresholds).
  ErrorMetric metric;
  std::vector<std::string> all_fks;  ///< For JoinAll.
};

/// Generates + advises one dataset; aborts on failure (bench context).
LoadedDataset LoadDataset(const std::string& name, const BenchArgs& args);

/// Joins the subset, encodes usable features, and splits 50/25/25.
struct PreparedTable {
  EncodedDataset data;
  HoldoutSplit split;
};
PreparedTable Prepare(const LoadedDataset& ds,
                      const std::vector<std::string>& fks_to_join,
                      uint64_t seed);

/// Formats a double with fixed decimals.
std::string Fmt(double v, int decimals = 4);

/// The host a BENCH file was recorded on, as (context key, value) pairs:
/// host_cpu_model, host_num_cpus (CPUs this process may run on), and
/// host_l2_bytes / host_l3_bytes (unified cache sizes). A key whose
/// value the platform does not report is left out.
/// scripts/compare_bench.py refuses to compare files whose fingerprints
/// differ.
std::vector<std::pair<std::string, std::string>> HostContext();

}  // namespace hamlet::bench

#endif  // HAMLET_BENCH_BENCH_UTIL_H_
