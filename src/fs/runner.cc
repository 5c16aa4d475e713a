#include "fs/runner.h"

#include "common/check.h"
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
// With a Naive Bayes factory it trains straight from the search's
// factorized statistics (the scorer always holds them for Naive Bayes
// over this view) and scores the test split through an evaluator whose
// codes come via the FK hops — the exact doubles the materialized
// TrainAndScore would produce: TrainFromStats is how NB trains from
// counts, and EvalSubset sums the subset in selection order, the
// prediction path's order. Factorized-trainable classifiers (trees, GBT)
// train a fresh full-budget model through TrainFactorized, handed the
// search's statistics, which they guarantee bit-identical to the
// materialized twin.
Result<double> FactorizedFinalFit(CandidateScorer& scorer,
                                  const FactorizedDataset& data,
                                  const HoldoutSplit& split,
                                  const ClassifierFactory& factory,
                                  ErrorMetric metric,
                                  const std::vector<uint32_t>& selected,
                                  uint32_t num_threads) {
  std::unique_ptr<Classifier> probe = factory();
  auto* nb = dynamic_cast<NaiveBayes*>(probe.get());
  if (nb == nullptr) {
    return TrainAndScoreFactorized(scorer.WithTrainStats(factory), data,
                                   split.train, split.test,
                                   GatherLabels(data.entity(), split.test),
                                   selected, metric);
  }
  std::shared_ptr<const SuffStats> stats = scorer.TrainStats();
  HAMLET_CHECK(stats != nullptr,
               "factorized Naive Bayes searches always hold statistics");
  HAMLET_RETURN_NOT_OK(nb->TrainFromStats(*stats, selected));
  std::unique_ptr<NbSubsetEvaluator> holdout = MakeFactorizedNbEvaluator(
      data, stats, split.test, metric, nb->alpha(), selected, num_threads);
  return holdout->EvalSubset(selected);
}

// The body both runners share: the timed, traced search over a scorer
// built inside the `fs.search` span (so its statistics build is search
// time), then the final fit on the chosen subset through the same scorer,
// which reuses the search's statistics.
template <typename Data, typename FinalFit>
Result<FsRunReport> RunSearchThenFit(FeatureSelector& selector,
                                     const Data& data,
                                     const HoldoutSplit& split,
                                     const ClassifierFactory& factory,
                                     ErrorMetric metric,
                                     const std::vector<uint32_t>& candidates,
                                     const FinalFit& final_fit) {
  FsRunReport report;
  report.method = selector.name();

  Timer total_timer;
  std::unique_ptr<CandidateScorer> scorer;
  {
    obs::TraceSpan span("fs.search");
    span.AddAttr("method", selector.name());
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    Timer timer;
    HAMLET_ASSIGN_OR_RETURN(
        scorer, MakeCandidateScorer(data, split, factory, metric, candidates,
                                    selector.num_threads(),
                                    selector.force_scan_eval()));
    HAMLET_ASSIGN_OR_RETURN(report.selection,
                            selector.SelectWith(*scorer, candidates));
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
                            final_fit(*scorer, report.selection.selected));
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
      selector, data, split, factory, metric, candidates,
      [&](CandidateScorer& scorer, const std::vector<uint32_t>& selected) {
        return TrainAndScore(scorer.WithTrainStats(factory), data,
                             split.train, split.test, selected, metric);
      });
}

Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates) {
  return RunSearchThenFit(
      selector, data, split, factory, metric, candidates,
      [&](CandidateScorer& scorer, const std::vector<uint32_t>& selected) {
        return FactorizedFinalFit(scorer, data, split, factory, metric,
                                  selected, selector.num_threads());
      });
}

}  // namespace hamlet
