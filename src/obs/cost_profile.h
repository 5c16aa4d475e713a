#ifndef HAMLET_OBS_COST_PROFILE_H_
#define HAMLET_OBS_COST_PROFILE_H_

/// \file cost_profile.h
/// Write-only per-operator cost records. While collection is enabled,
/// instrumented operators (join.kfk, join.hash, ingest.csv, fs.search.*,
/// serve.score) report each execution's measured input features and
/// phase timings here; the store aggregates them into one CostRecord per
/// distinct feature vector. Nothing in the library reads the records
/// back: they leave the process as the `cost_records` field of the JSONL
/// metrics flush (obs/exporter.h), the single telemetry export path.
///
/// Feature vectors deliberately mirror the join-feature sets cost-model
/// work keys on (rows in/out, build-side size, distinct key count,
/// thread count): they are everything a planner knows *before* running
/// the operator, so records double as (features -> observed cost)
/// training pairs for an offline cost model.
///
/// Records live in a std::map keyed by the features' canonical string
/// and every field is an integer, so an export of a given profile is
/// deterministic.
///
/// Cost contract: Record() is gated on obs::Enabled() at the call sites
/// (operators only assemble features while a collection window is open)
/// and takes one short mutex; operators report once per execution, not
/// per row, so the store is never on a hot path.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace hamlet::obs {

/// What a planner knows about an operator execution before it runs.
/// `op` names the operator ("join.kfk"); unused dimensions stay 0
/// (ingest.csv has no build side).
struct OperatorFeatures {
  std::string op;
  uint64_t rows_in = 0;        ///< Probe-side / input rows.
  uint64_t rows_out = 0;       ///< Rows produced.
  uint64_t build_rows = 0;     ///< Build-side rows (joins); for
                               ///< serve.score, requests fused per pass.
  uint64_t distinct_keys = 0;  ///< Distinct join/FK key codes.
  uint32_t num_threads = 0;    ///< ParallelFor shards the execution used.
  /// Dispatcher shards of the serving data plane the execution ran
  /// under (serve.score); 0 for operators without a dispatch dimension.
  uint32_t shards = 0;

  /// Canonical map key: op|rows_in|rows_out|build_rows|distinct_keys|
  /// num_threads|shards. Stable across runs, sorts lexicographically
  /// by op.
  std::string Key() const;
};

/// One execution's measured cost. Phases that do not apply stay 0.
struct CostObservation {
  uint64_t total_ns = 0;
  uint64_t build_ns = 0;
  uint64_t probe_ns = 0;
  uint64_t materialize_ns = 0;
};

/// Aggregate of every observation sharing one feature vector.
struct CostRecord {
  OperatorFeatures features;
  uint64_t observations = 0;
  uint64_t total_ns_sum = 0;
  uint64_t total_ns_min = 0;
  uint64_t total_ns_max = 0;
  uint64_t build_ns_sum = 0;
  uint64_t probe_ns_sum = 0;
  uint64_t materialize_ns_sum = 0;

  void Add(const CostObservation& obs);

  /// Mean total cost (0 when no observations).
  uint64_t MeanTotalNs() const {
    return observations == 0 ? 0 : total_ns_sum / observations;
  }
};

/// A set of cost records keyed by OperatorFeatures::Key(). Not
/// thread-safe; CostProfileStore provides the locked process-wide
/// instance.
class CostProfile {
 public:
  void Add(const OperatorFeatures& features, const CostObservation& obs);

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  const std::map<std::string, CostRecord>& records() const {
    return records_;
  }

 private:
  std::map<std::string, CostRecord> records_;
};

/// The process-wide, mutex-protected sink operators report into while a
/// collection window is open. ScopedCollection clears it at window
/// start; the pipeline's JSONL flush exports the window's records.
class CostProfileStore {
 public:
  static CostProfileStore& Global();

  /// Adds one observation. Call sites gate on obs::Enabled().
  void Record(const OperatorFeatures& features, const CostObservation& obs);

  /// Copy of everything recorded since the last Clear().
  CostProfile Snapshot() const;

  void Clear();

 private:
  CostProfileStore() = default;

  mutable std::mutex mu_;
  CostProfile profile_;
};

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_COST_PROFILE_H_
