#include "fs/greedy_search.h"

#include <algorithm>

#include "fs/candidate_eval.h"
#include "obs/trace.h"

namespace hamlet {

Result<SelectionResult> ForwardSelection::Search(
    CandidateScorer& scorer, const std::vector<uint32_t>& candidates) {
  scorer.UseRefitBudget();
  std::vector<uint32_t> remaining = candidates;

  // Baseline: the prior-only (empty-subset) model.
  double best_error = 0.0;
  HAMLET_ASSIGN_OR_RETURN(best_error, scorer.ResetBase({}));

  while (!remaining.empty()) {
    const uint32_t m = static_cast<uint32_t>(remaining.size());
    obs::TraceSpan step_span("fs.step");
    step_span.AddAttr("candidates", m);
    std::vector<double> errors;
    HAMLET_RETURN_NOT_OK(scorer.ScoreAdditions(remaining, &errors));

    // Serial index-ordered reduction: a candidate wins only by improving
    // strictly beyond the running best minus tolerance, so exact ties keep
    // the lower index at any thread count.
    double round_best = best_error;
    int32_t round_pick = -1;
    for (uint32_t i = 0; i < m; ++i) {
      if (errors[i] < round_best - tolerance_) {
        round_best = errors[i];
        round_pick = static_cast<int32_t>(i);
      }
    }
    if (round_pick < 0) break;
    scorer.AddToBase(remaining[round_pick]);
    remaining.erase(remaining.begin() + round_pick);
    best_error = round_best;
  }
  return SelectionResult{scorer.base(), best_error};
}

Result<SelectionResult> BackwardSelection::Search(
    CandidateScorer& scorer, const std::vector<uint32_t>& candidates) {
  scorer.UseRefitBudget();
  double best_error = 0.0;
  HAMLET_ASSIGN_OR_RETURN(best_error, scorer.ResetBase(candidates));

  while (scorer.base().size() > 1) {
    const uint32_t m = static_cast<uint32_t>(scorer.base().size());
    obs::TraceSpan step_span("fs.step");
    step_span.AddAttr("candidates", m);
    std::vector<double> errors;
    HAMLET_RETURN_NOT_OK(scorer.ScoreRemovals(&errors));

    // Serial reduction: `<=` keeps the last index among exact ties
    // (prefer dropping later features).
    double round_best = best_error + tolerance_;
    int32_t round_pick = -1;
    for (uint32_t i = 0; i < m; ++i) {
      if (errors[i] <= round_best) {
        round_best = errors[i];
        round_pick = static_cast<int32_t>(i);
      }
    }
    if (round_pick < 0) break;
    scorer.RemoveFromBase(static_cast<size_t>(round_pick));
    best_error = std::min(best_error, round_best);
  }
  return SelectionResult{scorer.base(), best_error};
}

}  // namespace hamlet
