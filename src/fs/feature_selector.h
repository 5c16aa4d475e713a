#ifndef HAMLET_FS_FEATURE_SELECTOR_H_
#define HAMLET_FS_FEATURE_SELECTOR_H_

/// \file feature_selector.h
/// The feature selection abstraction of Section 2.2. Wrappers (sequential
/// greedy search) and filters (per-feature scoring + tuned top-k) share
/// this interface; embedded methods live inside LogisticRegression.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "ml/classifier.h"
#include "stats/metrics.h"

namespace hamlet {

class FactorizedDataset;

/// Outcome of a feature selection run.
struct SelectionResult {
  /// Chosen feature indices (into the EncodedDataset), in selection order
  /// for wrappers / score order for filters.
  std::vector<uint32_t> selected;
  /// Validation error of the chosen subset.
  double validation_error = 0.0;
  /// Number of candidate models trained during the search (the unit the
  /// runtime savings of join avoidance multiply).
  uint64_t models_trained = 0;
};

class CandidateScorer;

/// Searches the subset lattice of `candidates` for an accurate subset.
/// Each method writes its search once, in the private Search, against a
/// CandidateScorer (fs/candidate_eval.h); Select and SelectFactorized
/// only build the scorer for their view and run that one search.
class FeatureSelector {
 public:
  virtual ~FeatureSelector() = default;

  /// Runs the search: models train on `split.train` and are compared on
  /// `split.validation` under `metric`.
  Result<SelectionResult> Select(const EncodedDataset& data,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates);

  /// Runs the same search over a normalized (S, R) view (ml/factorized.h)
  /// without materializing the join. Naive Bayes scores candidates from
  /// the view's sufficient statistics; factorized-trainable classifiers
  /// (decision_tree, gbt) retrain through the FK -> R hops. Any other
  /// combination, Naive Bayes under force_scan_eval included, fails with
  /// InvalidArgument. Feature indices are interchangeable with the
  /// materialized path's (the factorized feature space equals
  /// FromTableAuto on the joined table), and selections, errors, and
  /// tie-breaks are bit-for-bit identical to Select on the materialized
  /// join at any thread count.
  Result<SelectionResult> SelectFactorized(
      const FactorizedDataset& data, const HoldoutSplit& split,
      const ClassifierFactory& factory, ErrorMetric metric,
      const std::vector<uint32_t>& candidates);

  /// Runs the search against a scorer the caller built with
  /// MakeCandidateScorer (fs/candidate_eval.h). Select and
  /// SelectFactorized are this over a scorer of their own; the fs runner
  /// keeps its scorer — and the statistics it owns — alive through the
  /// final fit.
  Result<SelectionResult> SelectWith(CandidateScorer& scorer,
                                     const std::vector<uint32_t>& candidates);

  /// Method name ("forward_selection", "mi_filter", ...).
  virtual std::string name() const = 0;

  /// Threads used to evaluate the independent candidate models within one
  /// search step (0 = one shard per hardware thread, 1 = serial). Every
  /// setting yields bit-for-bit identical selections: candidate scores are
  /// written to per-index slots and the per-step winner is chosen by a
  /// serial index-ordered reduction, so ties break by index — never by
  /// completion order.
  void set_num_threads(uint32_t num_threads) { num_threads_ = num_threads; }
  uint32_t num_threads() const { return num_threads_; }

  /// Makes the search the scan reference: the scorer builds no
  /// sufficient statistics, so every candidate retrains from the codes
  /// and filter scores count from them too. Escape hatch surfaced as
  /// PipelineConfig::force_scan_eval; the statistics paths select
  /// identical subsets, so this only trades speed.
  void set_force_scan_eval(bool force) { force_scan_eval_ = force; }
  bool force_scan_eval() const { return force_scan_eval_; }

 protected:
  uint32_t num_threads_ = 0;

 private:
  /// The method's one search loop. Returns the selection and its
  /// validation error; models_trained is filled in from the scorer.
  virtual Result<SelectionResult> Search(
      CandidateScorer& scorer, const std::vector<uint32_t>& candidates) = 0;

  bool force_scan_eval_ = false;
};

}  // namespace hamlet

#endif  // HAMLET_FS_FEATURE_SELECTOR_H_
