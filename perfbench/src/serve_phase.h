#ifndef PERFBENCH_SERVE_PHASE_H_
#define PERFBENCH_SERVE_PHASE_H_

/// \file serve_phase.h
/// The serving path: an open-loop generator of 16-row Score requests
/// against a default-config HamletService. Senders send on a fixed
/// schedule and every latency is timed from the request's scheduled send
/// time, so a stall also charges the requests it delays.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hamlet.h"
#include "pipeline_phase.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

enum class ModelKind { kNaiveBayes, kDecisionTree };

/// The serving phase's rates and window lengths.
struct ServeShape {
  double fixed_rate = 0;        // Nominal rate, requests/s.
  double fixed_seconds = 0;     // Length of the fixed-rate window.
  double step_seconds = 0;      // Length of one ladder step.
  double slo_us = 0;            // p99 limit of the ladder.
};

/// What set-up leaves for the serving phase: the store with every
/// model's version history, the request blocks, and each model's serial
/// Predict of each block.
struct ServeInputs {
  std::unique_ptr<hamlet::serve::ArtifactStore> store;
  std::vector<std::string> names;
  std::vector<ModelKind> kinds;
  hamlet::NaiveBayes nb;
  hamlet::DecisionTree tree;
  std::vector<std::shared_ptr<const hamlet::EncodedDataset>> blocks;
  std::vector<std::vector<std::vector<uint32_t>>> expected;  // [model][block]
};

/// Trains a Naive Bayes and a decision-tree model on the encoded entity
/// table of `dataset`, publishes 64 versions of each into a store at
/// `store_dir`, and cuts the 16-row request blocks (rows drawn from
/// `seed`).
hamlet::Result<ServeInputs> SetUpServing(
    const hamlet::NormalizedDataset& dataset, const std::string& store_dir,
    uint64_t seed);

/// Everything the serving phase measured.
struct ServeResult {
  double score_p50_us = 0;
  double score_p99_us = 0;
  double max_score_rps = 0;
  double publish_p50_ms = 0;
  double direct_score_us = 0;
  double batch_requests_mean = 0;
  double warm_cache_hit_ratio = 0;
  double store_get_us = 0;
  double generator_late_p99_us = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
};

/// Runs the fixed-rate window (with publishes), the ladder, and the
/// direct-scoring and store-read probes, each under a span in `spans`,
/// with Hamlet's metrics collection on.
ServeResult RunServing(ServeInputs* inputs, const ServeShape& shape,
                       uint32_t senders, SpanLog* spans, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PHASE_H_
