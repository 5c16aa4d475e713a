#include "fs/runner.h"

#include "common/timer.h"
#include "fs/candidate_eval.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "ml/eval.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "obs/trace.h"
#include "stats/metrics.h"

namespace hamlet {

namespace {

// The final fit over the factorized view never materializes the join.
// With a Naive Bayes factory it trains straight from the factorized
// statistics (a cache hit after the search) and scores the test split
// through an evaluator whose codes come via the FK hops — the exact
// doubles the materialized TrainAndScore would produce: TrainFromStats is
// how NB trains from counts, and EvalSubset sums the subset in selection
// order, the prediction path's order. Factorized-trainable classifiers
// (trees, GBT) train a fresh full-budget model through TrainFactorized,
// which they guarantee bit-identical to the materialized twin.
Result<double> FactorizedFinalFit(const FactorizedDataset& data,
                                  const HoldoutSplit& split,
                                  const ClassifierFactory& factory,
                                  ErrorMetric metric,
                                  const std::vector<uint32_t>& selected,
                                  uint32_t num_threads) {
  std::unique_ptr<Classifier> probe = factory();
  auto* nb = dynamic_cast<NaiveBayes*>(probe.get());
  if (nb == nullptr) {
    return TrainAndScoreFactorized(factory, data, split.train, split.test,
                                   GatherLabels(data.entity(), split.test),
                                   selected, metric);
  }
  std::shared_ptr<const SuffStats> stats =
      GetOrBuildFactorizedSuffStats(data, split.train, num_threads);
  if (stats == nullptr) {
    return Status::FailedPrecondition(
        "factorized final fit requires an active sufficient-statistics "
        "cache (ScopedSuffStatsBypass is incompatible with factorized "
        "Naive Bayes runs)");
  }
  HAMLET_RETURN_NOT_OK(nb->TrainFromStats(*stats, selected));
  std::unique_ptr<NbSubsetEvaluator> holdout = MakeFactorizedNbEvaluator(
      data, stats, split.test, metric, nb->alpha(), selected, num_threads);
  return holdout->EvalSubset(selected);
}

// The body both runners share: the timed, traced search, then the final
// fit on the chosen subset.
template <typename Data, typename Search, typename FinalFit>
Result<FsRunReport> RunSearchThenFit(FeatureSelector& selector,
                                     const Data& data,
                                     const std::vector<uint32_t>& candidates,
                                     const Search& search,
                                     const FinalFit& final_fit) {
  FsRunReport report;
  report.method = selector.name();

  Timer total_timer;
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(report.selection, search());
    report.runtime_seconds = timer.ElapsedSeconds();
    span.AddAttr("models_trained", report.selection.models_trained);
    span.AddAttr("selected",
                 static_cast<uint64_t>(report.selection.selected.size()));
  }

  report.selected_names = data.FeatureNames(report.selection.selected);
  {
    obs::TraceSpan span("fs.final_fit");
    span.AddAttr("features",
                 static_cast<uint64_t>(report.selection.selected.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(report.holdout_test_error,
                            final_fit(report.selection.selected));
    report.fit_seconds = timer.ElapsedSeconds();
  }
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

}  // namespace

const char* FsMethodToString(FsMethod method) {
  switch (method) {
    case FsMethod::kForwardSelection:
      return "Forward Selection";
    case FsMethod::kBackwardSelection:
      return "Backward Selection";
    case FsMethod::kMiFilter:
      return "MI Filter";
    case FsMethod::kIgrFilter:
      return "IGR Filter";
  }
  return "unknown";
}

std::unique_ptr<FeatureSelector> MakeSelector(FsMethod method,
                                              uint32_t num_threads,
                                              bool force_scan_eval) {
  std::unique_ptr<FeatureSelector> selector;
  switch (method) {
    case FsMethod::kForwardSelection:
      selector = std::make_unique<ForwardSelection>();
      break;
    case FsMethod::kBackwardSelection:
      selector = std::make_unique<BackwardSelection>();
      break;
    case FsMethod::kMiFilter:
      selector =
          std::make_unique<ScoreFilter>(FilterScore::kMutualInformation);
      break;
    case FsMethod::kIgrFilter:
      selector =
          std::make_unique<ScoreFilter>(FilterScore::kInformationGainRatio);
      break;
  }
  if (selector != nullptr) {
    selector->set_num_threads(num_threads);
    selector->set_force_scan_eval(force_scan_eval);
  }
  return selector;
}

std::vector<FsMethod> AllFsMethods() {
  return {FsMethod::kForwardSelection, FsMethod::kBackwardSelection,
          FsMethod::kMiFilter, FsMethod::kIgrFilter};
}

Result<FsRunReport> RunFeatureSelection(
    FeatureSelector& selector, const EncodedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunSearchThenFit(
      selector, data, candidates,
      [&] { return selector.Select(data, split, factory, metric, candidates); },
      [&](const std::vector<uint32_t>& selected) {
        return TrainAndScore(factory, data, split.train, split.test, selected,
                             metric);
      });
}

Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunSearchThenFit(
      selector, data, candidates,
      [&] {
        return selector.SelectFactorized(data, split, factory, metric,
                                         candidates);
      },
      [&](const std::vector<uint32_t>& selected) {
        return FactorizedFinalFit(data, split, factory, metric, selected,
                                  selector.num_threads());
      });
}

}  // namespace hamlet
