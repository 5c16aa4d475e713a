#include "fs/feature_selector.h"

#include "fs/candidate_eval.h"

namespace hamlet {

Result<SelectionResult> FeatureSelector::Select(
    const EncodedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  return Run(MakeCandidateScorer(data, split, factory, metric, candidates,
                                 num_threads_, force_scan_eval_),
             candidates);
}

Result<SelectionResult> FeatureSelector::SelectFactorized(
    const FactorizedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  return Run(MakeCandidateScorer(data, split, factory, metric, candidates,
                                 num_threads_, force_scan_eval_),
             candidates);
}

Result<SelectionResult> FeatureSelector::Run(
    Result<std::unique_ptr<CandidateScorer>> scorer,
    const std::vector<uint32_t>& candidates) {
  if (!scorer.ok()) return scorer.status();
  CandidateScorer& s = **scorer;
  HAMLET_ASSIGN_OR_RETURN(SelectionResult result, Search(s, candidates));
  result.models_trained = s.models_trained();
  return result;
}

}  // namespace hamlet
