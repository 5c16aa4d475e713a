#include "fs/filters.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/parallel_for.h"
#include "fs/candidate_eval.h"
#include "ml/suff_stats.h"
#include "obs/trace.h"
#include "stats/contingency.h"
#include "stats/info_theory.h"

namespace hamlet {

namespace {

// Rank candidate indices by descending score (stable for determinism).
std::vector<uint32_t> RankByScore(const std::vector<double>& scores) {
  std::vector<uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

// Serial argmin over k (strict `<` keeps the smallest k among ties).
SelectionResult PickBestPrefix(const std::vector<double>& errors,
                               const std::vector<uint32_t>& ranked) {
  const uint32_t num_k = static_cast<uint32_t>(errors.size());
  double best_error = 0.0;
  size_t best_k = 1;
  for (uint32_t k = 1; k <= num_k; ++k) {
    const double err = errors[k - 1];
    if (k == 1 || err < best_error) {
      best_error = err;
      best_k = k;
    }
  }
  return SelectionResult{
      std::vector<uint32_t>(ranked.begin(), ranked.begin() + best_k),
      best_error};
}

}  // namespace

std::vector<double> ScoreFilter::ScoreTables(
    const std::vector<uint32_t>& candidates,
    const std::function<ContingencyTable(uint32_t)>& table_of) const {
  // Each feature's score is independent of the others: one slot per
  // candidate, no cross-item state.
  std::vector<double> scores(candidates.size(), 0.0);
  ParallelFor(static_cast<uint32_t>(candidates.size()), num_threads_,
              [&](uint32_t idx) {
                const ContingencyTable table = table_of(candidates[idx]);
                scores[idx] = score_ == FilterScore::kMutualInformation
                                  ? MutualInformation(table)
                                  : InformationGainRatio(table);
              });
  return scores;
}

std::vector<double> ScoreFilter::ScoreFeaturesFromStats(
    const SuffStats& stats, const std::vector<uint32_t>& candidates) const {
  return ScoreTables(candidates, [&](uint32_t j) {
    return ContingencyTable(stats.feature_counts[j], stats.cardinalities[j],
                            stats.num_classes);
  });
}

std::vector<double> ScoreFilter::ScoreFeatures(
    const EncodedDataset& data, const std::vector<uint32_t>& rows,
    const std::vector<uint32_t>& candidates) const {
  // Gather labels once; shared read-only across the scoring items.
  std::vector<uint32_t> y;
  y.reserve(rows.size());
  for (uint32_t r : rows) y.push_back(data.labels()[r]);
  return ScoreTables(candidates, [&](uint32_t j) {
    const std::vector<uint32_t>& col = data.feature(j);
    std::vector<uint32_t> f;
    f.reserve(rows.size());
    for (uint32_t r : rows) f.push_back(col[r]);
    return ContingencyTable(f, y, data.meta(j).cardinality,
                            data.num_classes());
  });
}

Result<SelectionResult> ScoreFilter::Search(
    CandidateScorer& scorer, const std::vector<uint32_t>& candidates) {
  if (candidates.empty()) {
    // Nothing to rank: the prior-only model.
    HAMLET_ASSIGN_OR_RETURN(double error, scorer.ResetBase({}));
    return SelectionResult{{}, error};
  }

  std::vector<double> scores;
  {
    obs::TraceSpan span("fs.filter_score");
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    // The search's statistics hold every table; the scan reference
    // (force_scan_eval) counts them from the codes instead.
    const std::shared_ptr<const SuffStats> stats = scorer.TrainStats();
    scores = stats != nullptr
                 ? ScoreFeaturesFromStats(*stats, candidates)
                 : ScoreTables(candidates, [&](uint32_t j) {
                     return scorer.ScanTrainTable(j);
                   });
  }

  const std::vector<uint32_t> order = RankByScore(scores);
  std::vector<uint32_t> ranked;
  ranked.reserve(order.size());
  for (uint32_t i : order) ranked.push_back(candidates[i]);

  // Tune k on validation error; the argmin runs serially in k order.
  obs::TraceSpan tune_span("fs.filter_tune");
  tune_span.AddAttr("prefixes", static_cast<uint32_t>(ranked.size()));
  std::vector<double> errors;
  HAMLET_RETURN_NOT_OK(scorer.ScorePrefixes(ranked, &errors));
  return PickBestPrefix(errors, ranked);
}

}  // namespace hamlet
