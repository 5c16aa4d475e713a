#ifndef PERFBENCH_PIPELINE_PHASE_H_
#define PERFBENCH_PIPELINE_PHASE_H_

/// \file pipeline_phase.h
/// The analytics path: CSV ingest with declared domains, then
/// RunPipeline, timed from outside; and a traced twin that calls each
/// layer's public function itself under the benchmark's spans.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet.h"
#include "spans.h"

namespace perfbench {

enum class PipelineMode { kJoinAll, kJoinOpt, kTreesFactorized };

/// One CSV file plus its declared schema. `domain_ids[c]` indexes the
/// dataset's declared domains; columns that share a domain in the
/// generated data (an FK and the key it references) share one here.
struct TableInput {
  std::string name;
  std::string path;
  hamlet::Schema schema;
  std::vector<size_t> domain_ids;
  uint64_t bytes = 0;
};

/// The generated inputs of one dataset: its tables (entity first), the
/// label list of each declared domain, and the reference result.
struct DatasetInput {
  std::string name;
  hamlet::ErrorMetric metric = hamlet::ErrorMetric::kZeroOne;
  std::vector<TableInput> tables;
  std::vector<std::vector<std::string>> domain_labels;
  /// Signature of RunPipeline on the in-memory dataset at num_threads=1:
  /// the oracle every timed and traced pass must reproduce.
  std::string reference;
};

/// Writes every table of `dataset` as CSV under `dir`, attribute tables
/// in a row order drawn from `seed`, and records the declared schema and
/// domains.
hamlet::Result<DatasetInput> WriteDatasetInput(
    const hamlet::NormalizedDataset& dataset, const std::string& dir,
    uint64_t seed);

/// The pipeline configuration of a workload.
hamlet::PipelineConfig MakeConfig(PipelineMode mode, hamlet::ErrorMetric metric,
                                  uint32_t num_threads);

/// Selected feature names and the validation and holdout errors printed
/// with %.17g: two runs agree on it only if they agree bit for bit.
std::string Signature(const hamlet::FsRunReport& report);

/// Reads the CSVs with their declared domains and builds the dataset.
/// With a span log, each file read and the catalog build get a span.
hamlet::Result<hamlet::NormalizedDataset> Ingest(const DatasetInput& input,
                                                 SpanLog* spans);

/// Timings of one untraced pass over every dataset of a workload, each
/// summed over the datasets. A pass ingests once and then runs the
/// pipeline `reps` times at each thread count, so the cheap pipelines
/// get as many samples as the runs' time allows.
struct PassTimes {
  double ingest_s = 0;
  std::vector<double> pipeline_s;     // RunPipeline at num_threads = 0.
  std::vector<double> pipeline_1t_s;  // RunPipeline at num_threads = 1.
};

/// Outcome counts of the correctness checks.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Records one check; prints `what` to stderr when it failed.
  void Expect(bool ok, const std::string& what);
};

/// Ingests every dataset and runs RunPipeline `reps` times at all cores
/// and at one thread, alternating, checking each result against the
/// reference.
PassTimes RunUntracedPass(const std::vector<DatasetInput>& inputs,
                          PipelineMode mode, int reps, Checks* checks);

/// Counts a traced pass gathers beside its spans.
struct TracedCounts {
  uint64_t csv_bytes = 0;
  uint64_t join_cells_out = 0;
  uint64_t fks_avoided = 0;
  uint64_t models_trained = 0;
  uint64_t stats_cache_hits = 0;
  uint64_t stats_cache_misses = 0;
  uint64_t pool_regions = 0;
  /// Median pool queue wait over the pass (ns); 0 without waits.
  double pool_queue_wait_p50_ns = 0;
};

/// Ingests every dataset and runs the pipeline's stages one public call
/// at a time, at all cores, under spans in `spans` and with Hamlet's own
/// metrics collection on. The selections must equal the reference.
TracedCounts RunTracedPass(const std::vector<DatasetInput>& inputs,
                           PipelineMode mode, SpanLog* spans, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_PHASE_H_
