#include "fs/exhaustive_search.h"

#include <vector>

#include "common/string_util.h"
#include "fs/candidate_eval.h"

namespace hamlet {

namespace {

// The optimum (with the smaller-subset-then-lower-mask tie-break) is
// found by a serial mask-ordered scan, identical at any thread count.
SelectionResult ReduceLattice(const std::vector<double>& errors,
                              const std::vector<uint32_t>& candidates) {
  const uint32_t d = static_cast<uint32_t>(candidates.size());
  const uint64_t total = errors.size();
  double best_error = 0.0;
  uint64_t best_mask = 0;
  bool first = true;
  for (uint64_t mask = 0; mask < total; ++mask) {
    const double err = errors[mask];
    // Strictly-better wins; ties prefer smaller subsets (lower popcount),
    // then lower masks, for determinism.
    if (first || err < best_error ||
        (err == best_error && __builtin_popcountll(mask) <
                                  __builtin_popcountll(best_mask))) {
      first = false;
      best_error = err;
      best_mask = mask;
    }
  }
  SelectionResult result;
  for (uint32_t j = 0; j < d; ++j) {
    if (best_mask & (1ull << j)) result.selected.push_back(candidates[j]);
  }
  result.validation_error = best_error;
  return result;
}

}  // namespace

Result<SelectionResult> ExhaustiveSelection::Search(
    CandidateScorer& scorer, const std::vector<uint32_t>& candidates) {
  // The per-mask error table caps the lattice at 2^30 entries; anything
  // near that is computationally absurd for 2^d models anyway.
  if (candidates.size() > max_candidates_) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive search over %zu candidates exceeds the cap of %u "
        "(2^d models)",
        candidates.size(), max_candidates_));
  }
  if (candidates.size() > 30) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive search over %zu candidates cannot enumerate 2^d masks",
        candidates.size()));
  }
  // Every subset is an independent evaluation, one slot per mask.
  std::vector<double> errors;
  HAMLET_RETURN_NOT_OK(scorer.ScoreLattice(candidates, &errors));
  return ReduceLattice(errors, candidates);
}

}  // namespace hamlet
