#include "fs/feature_selector.h"

#include "fs/candidate_eval.h"

namespace hamlet {

Result<SelectionResult> FeatureSelector::Select(
    const EncodedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(data, split, factory, metric, candidates,
                          num_threads_, force_scan_eval_));
  return SelectWith(*scorer, candidates);
}

Result<SelectionResult> FeatureSelector::SelectFactorized(
    const FactorizedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(data, split, factory, metric, candidates,
                          num_threads_, force_scan_eval_));
  return SelectWith(*scorer, candidates);
}

Result<SelectionResult> FeatureSelector::SelectWith(
    CandidateScorer& scorer, const std::vector<uint32_t>& candidates) {
  HAMLET_ASSIGN_OR_RETURN(SelectionResult result, Search(scorer, candidates));
  result.models_trained = scorer.models_trained();
  return result;
}

}  // namespace hamlet
