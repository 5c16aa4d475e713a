#ifndef HAMLET_FS_CANDIDATE_EVAL_H_
#define HAMLET_FS_CANDIDATE_EVAL_H_

/// \file candidate_eval.h
/// The one seam between a feature-selection search and the data view it
/// runs over. Every selector writes its loop once, against a
/// CandidateScorer, and the two MakeCandidateScorer overloads below are
/// the only view-specific code in the search layer. A scorer comes in two
/// kinds:
///
///   - delta: wraps an NbSubsetEvaluator over the sufficient statistics
///     of the train split and scores each candidate subset with one
///     O(eval_rows × classes) pass (Naive Bayes only);
///   - retrain: one TrainAndScore closure bound to the view trains a
///     fresh model per candidate subset.
///
/// The scorer owns the train split's sufficient statistics: it builds
/// them at most once per search, and only when something reads them — a
/// candidate model that trains from counts (Naive Bayes, trees) or a
/// filter's scores — and hands them down explicitly: to the evaluator,
/// to filter scoring (TrainStats), and to every candidate model and the
/// final fit (WithTrainStats). A scorer built with `force_scan_eval`
/// holds none, so nothing in that search reads counts: it is the scan
/// reference the equivalence suites compare against.
///
/// The scorer counts the models it evaluates and records the
/// `fs.models_trained` / `fs.delta_evals` counters and the
/// `fs.candidate_eval_ns` histogram, so SelectionResult::models_trained
/// and the counters come from the same place. Batch scores land in
/// per-index slots; the argmin over them is the search's job and runs
/// serially in index order, which keeps parallel selections bit-for-bit
/// identical to serial ones, tie-breaks included.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "ml/classifier.h"
#include "stats/contingency.h"
#include "stats/metrics.h"

namespace hamlet {

class FactorizedDataset;
struct SuffStats;

/// Scores candidate feature subsets for one search. The base subset S is
/// the search's current subset; batch calls score subsets derived from it
/// (or, for prefixes and the lattice, from their own argument). Built
/// once per search by MakeCandidateScorer; not safe for concurrent use.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  /// The base subset S, in the order it was built.
  const std::vector<uint32_t>& base() const { return base_; }

  /// Models evaluated so far.
  uint64_t models_trained() const { return models_trained_; }

  /// S = `subset`; returns its error. One model — a baseline, so it never
  /// counts as a delta evaluation.
  Result<double> ResetBase(std::vector<uint32_t> subset);

  /// S = S ∪ {feature}, appended last. Evaluates nothing.
  void AddToBase(uint32_t feature);

  /// S = S \ {S[pos]}. Evaluates nothing.
  void RemoveFromBase(size_t pos);

  /// (*errors)[i] = error of S ∪ {features[i]}, with features[i] summed
  /// last. One model per feature, evaluated in parallel.
  Status ScoreAdditions(const std::vector<uint32_t>& features,
                        std::vector<double>* errors);

  /// (*errors)[i] = error of S \ {S[i]}. One model per member of S,
  /// evaluated in parallel.
  Status ScoreRemovals(std::vector<double>* errors);

  /// (*errors)[k] = error of the prefix {order[0], ..., order[k]}. One
  /// model per prefix; S is `order` afterwards.
  Status ScorePrefixes(const std::vector<uint32_t>& order,
                       std::vector<double>* errors);

  /// (*errors)[mask] = error of {features[j] : bit j of mask is set},
  /// features in ascending j. 2^|features| models, evaluated in parallel.
  Status ScoreLattice(const std::vector<uint32_t>& features,
                      std::vector<double>* errors);

  /// Sufficient statistics of the train split — the search's one build,
  /// made here on first use when no candidate model needed it earlier.
  /// Filter scores read their contingency tables from them. nullptr under
  /// force_scan_eval.
  std::shared_ptr<const SuffStats> TrainStats();

  /// Feature `feature`'s contingency table over the train split, counted
  /// from the view's codes: the scan twin of TrainStats()'s table, which
  /// filter scoring uses when the scorer holds no statistics. Safe to
  /// call concurrently.
  ContingencyTable ScanTrainTable(uint32_t feature) const {
    return scan_table_(feature);
  }

  /// `factory` with the statistics this scorer holds handed to every
  /// model it makes (Classifier::UseTrainStats), or `factory` itself when
  /// the scorer holds none. Candidate retrains and the final fit train
  /// through it.
  ClassifierFactory WithTrainStats(ClassifierFactory factory) const;

  /// Calls Classifier::UseRefitBudget on every candidate model trained
  /// from now on. A no-op on the delta scorer, which trains no model.
  virtual void UseRefitBudget() {}

  /// Builds the train split's statistics over the scorer's view.
  using BuildStatsFn = std::function<SuffStats()>;
  /// Counts one feature's train-split contingency table from the codes.
  using ScanTableFn = std::function<ContingencyTable(uint32_t)>;

 protected:
  /// `build_stats` is empty under force_scan_eval; `stats` is non-null
  /// when the scorer built its statistics up front.
  CandidateScorer(bool delta, uint32_t num_threads, BuildStatsFn build_stats,
                  ScanTableFn scan_table,
                  std::shared_ptr<const SuffStats> stats)
      : delta_(delta),
        num_threads_(num_threads),
        build_stats_(std::move(build_stats)),
        scan_table_(std::move(scan_table)),
        stats_(std::move(stats)) {}

  uint32_t num_threads() const { return num_threads_; }

 private:
  /// The kind-specific halves of the public calls above. The public
  /// calls size `errors`, update S, and record the counters.
  virtual Result<double> EvalNewBase() = 0;
  virtual void BaseAdded(uint32_t /*feature*/) {}
  virtual void BaseRemoved(uint32_t /*feature*/) {}
  virtual Status EvalAdditions(const std::vector<uint32_t>& features,
                               std::vector<double>* errors) = 0;
  virtual Status EvalRemovals(std::vector<double>* errors) = 0;
  virtual Status EvalPrefixes(const std::vector<uint32_t>& order,
                              std::vector<double>* errors) = 0;
  virtual Status EvalLattice(const std::vector<uint32_t>& features,
                             std::vector<double>* errors) = 0;

  /// Counts `count` evaluated models; `baseline` ones are never deltas.
  void Record(uint64_t count, bool baseline);

  const bool delta_;
  const uint32_t num_threads_;
  const BuildStatsFn build_stats_;
  const ScanTableFn scan_table_;
  std::shared_ptr<const SuffStats> stats_;
  std::vector<uint32_t> base_;
  uint64_t models_trained_ = 0;
};

/// Builds the scorer for one search over the materialized `data`: delta
/// when `factory` makes Naive Bayes models, `force_scan_eval` is off and
/// the train split is non-empty; retrain otherwise. Unless
/// `force_scan_eval` is set, the train split's statistics are built here
/// when the factory's models read them (Classifier::ReadsTrainStats).
/// `candidates` are the features the search may score. Every
/// combination is supported. `data` and `split` must outlive the scorer.
Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const EncodedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates, uint32_t num_threads,
    bool force_scan_eval);

/// Builds the scorer for one search over the factorized (S, R) view —
/// no joined table exists. Delta and statistics under the same rules as
/// the materialized overload, built by BuildFactorizedSuffStats; retrain
/// when the factory's models are FactorizedTrainable (trees, GBT),
/// reading every column through the FK -> R hops. Any other combination
/// — Naive Bayes under `force_scan_eval`, or a classifier that can train
/// only on a joined table — fails with InvalidArgument: there is no scan without
/// the join. With the same tables, every score is bit-identical to the
/// materialized scorer's.
Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const FactorizedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates, uint32_t num_threads,
    bool force_scan_eval);

/// Factorized twin of ml/eval.h's TrainAndScore for classifiers that
/// implement FactorizedTrainable (trees, GBT): trains a fresh model over
/// the normalized (S, R) view restricted to (`train_rows`, `features`)
/// and returns its error on `eval_rows` against the pre-gathered
/// `eval_labels`. InvalidArgument when the factory's product is not
/// factorized-trainable.
Result<double> TrainAndScoreFactorized(const ClassifierFactory& factory,
                                       const FactorizedDataset& data,
                                       const std::vector<uint32_t>& train_rows,
                                       const std::vector<uint32_t>& eval_rows,
                                       const std::vector<uint32_t>& eval_labels,
                                       const std::vector<uint32_t>& features,
                                       ErrorMetric metric);

}  // namespace hamlet

#endif  // HAMLET_FS_CANDIDATE_EVAL_H_
