/// Reference search oracle. Every selector's search is written once,
/// against a CandidateScorer, so comparing the delta scorer with the
/// retrain scorer, or the materialized view with the factorized one,
/// runs the same loop on both sides and cannot catch a bug in it. This
/// suite compares each selector against a naive, serial re-implementation
/// instead: one TrainAndScore per subset on the materialized join, with
/// every tie-break written out by hand — lowest index wins (forward),
/// last index on `<=` (backward), popcount then mask (exhaustive),
/// smallest k (filters). It covers {Naive Bayes delta, Naive Bayes under
/// force_scan_eval, decision tree} × {materialized, factorized where the
/// scorer accepts it} × threads {1, 4}, and checks that each scorer's
/// counters agree with SelectionResult::models_trained.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/synth_common.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "ml/decision_tree.h"
#include "ml/eval.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/contingency.h"
#include "stats/info_theory.h"

namespace hamlet {
namespace {

// Small enough that the oracle's serial retrains and the 2^d lattice stay
// cheap, but with entity features, FKs and foreign features, and a
// zero-one metric over 150 validation rows, so exact ties are common.
SynthDatasetSpec OracleSpec() {
  SynthDatasetSpec spec;
  spec.name = "OracleTwin";
  spec.entity_name = "Orders";
  spec.pk_name = "OrderID";
  spec.target_name = "Level";
  spec.num_classes = 3;
  spec.n_s = 600;
  spec.metric = ErrorMetric::kZeroOne;
  spec.label_noise = 0.4;
  spec.s_features.push_back({SynthFeatureSpec::Signal("Hour", 4, 0.0), 0.6});
  spec.s_features.push_back({SynthFeatureSpec::Noise("Channel", 3), 0.0});
  SynthAttributeTableSpec users;
  users.table_name = "Users";
  users.pk_name = "UserID";
  users.fk_name = "UserID";
  users.num_rows = 40;
  users.target_weight = 0.8;
  users.fk_zipf = 1.2;
  users.features.push_back(SynthFeatureSpec::Signal("Age", 5, 0.9));
  users.features.push_back(SynthFeatureSpec::Noise("Quirk", 4));
  spec.tables.push_back(users);
  SynthAttributeTableSpec stores;
  stores.table_name = "Stores";
  stores.pk_name = "StoreID";
  stores.fk_name = "StoreID";
  stores.num_rows = 12;
  stores.target_weight = 0.5;
  stores.features.push_back(SynthFeatureSpec::Signal("Size", 3, 0.8));
  spec.tables.push_back(stores);
  return spec;
}

struct Twin {
  NormalizedDataset dataset;
  std::unique_ptr<EncodedDataset> mat;
  FactorizedDataset fac;
  HoldoutSplit split;
  ErrorMetric metric = ErrorMetric::kZeroOne;
};

Twin MakeTwin(uint64_t seed) {
  Twin t;
  t.dataset = *GenerateSyntheticDataset(OracleSpec(), 1.0, seed);
  std::vector<std::string> fks;
  for (const auto& fk : t.dataset.foreign_keys()) fks.push_back(fk.fk_column);
  Table table = *t.dataset.JoinSubset(fks);
  t.mat =
      std::make_unique<EncodedDataset>(*EncodedDataset::FromTableAuto(table));
  t.fac = *FactorizedDataset::Make(t.dataset, fks);
  Rng rng(seed + 1);
  t.split = MakeHoldoutSplit(t.mat->num_rows(), rng);
  return t;
}

// --- The oracle. ------------------------------------------------------------

// One fresh model per call, trained on the train split and scored on the
// validation split of the materialized join; counts every call.
class SubsetScorer {
 public:
  SubsetScorer(const Twin& t, ClassifierFactory factory)
      : t_(t), factory_(std::move(factory)) {}

  double operator()(const std::vector<uint32_t>& subset) {
    ++calls_;
    Result<double> err = TrainAndScore(factory_, *t_.mat, t_.split.train,
                                       t_.split.validation, subset, t_.metric);
    EXPECT_TRUE(err.ok()) << err.status();
    return err.ok() ? *err : 0.0;
  }

  uint64_t calls() const { return calls_; }

 private:
  const Twin& t_;
  ClassifierFactory factory_;
  uint64_t calls_ = 0;
};

SelectionResult ReferenceForward(SubsetScorer& score,
                                 const std::vector<uint32_t>& candidates) {
  SelectionResult r;
  std::vector<uint32_t> remaining = candidates;
  double best = score({});
  while (!remaining.empty()) {
    int pick = -1;
    double round_best = best;
    for (size_t i = 0; i < remaining.size(); ++i) {
      std::vector<uint32_t> trial = r.selected;
      trial.push_back(remaining[i]);
      const double err = score(trial);
      if (err < round_best) {  // Strict: the lowest index keeps a tie.
        round_best = err;
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;
    r.selected.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + pick);
    best = round_best;
  }
  r.validation_error = best;
  r.models_trained = score.calls();
  return r;
}

SelectionResult ReferenceBackward(SubsetScorer& score,
                                  const std::vector<uint32_t>& candidates) {
  SelectionResult r;
  r.selected = candidates;
  double best = score(r.selected);
  while (r.selected.size() > 1) {
    int pick = -1;
    double round_best = best;
    for (size_t i = 0; i < r.selected.size(); ++i) {
      std::vector<uint32_t> trial = r.selected;
      trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
      const double err = score(trial);
      if (err <= round_best) {  // `<=`: the last index takes a tie.
        round_best = err;
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;
    r.selected.erase(r.selected.begin() + pick);
    best = std::min(best, round_best);
  }
  r.validation_error = best;
  r.models_trained = score.calls();
  return r;
}

SelectionResult ReferenceExhaustive(SubsetScorer& score,
                                    const std::vector<uint32_t>& candidates) {
  const uint32_t d = static_cast<uint32_t>(candidates.size());
  double best = 0.0;
  uint32_t best_mask = 0;
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    std::vector<uint32_t> subset;
    for (uint32_t j = 0; j < d; ++j) {
      if (mask & (1u << j)) subset.push_back(candidates[j]);
    }
    const double err = score(subset);
    // Lower error wins; a tie goes to the smaller subset, then (by scan
    // order) to the lower mask.
    if (mask == 0 || err < best ||
        (err == best && std::popcount(mask) < std::popcount(best_mask))) {
      best = err;
      best_mask = mask;
    }
  }
  SelectionResult r;
  for (uint32_t j = 0; j < d; ++j) {
    if (best_mask & (1u << j)) r.selected.push_back(candidates[j]);
  }
  r.validation_error = best;
  r.models_trained = score.calls();
  return r;
}

SelectionResult ReferenceFilter(SubsetScorer& score, const Twin& t,
                                FilterScore kind,
                                const std::vector<uint32_t>& candidates) {
  // Scores from contingency tables gathered off the train rows.
  std::vector<uint32_t> y;
  for (uint32_t r : t.split.train) y.push_back(t.mat->labels()[r]);
  std::vector<double> scores;
  for (uint32_t j : candidates) {
    std::vector<uint32_t> f;
    for (uint32_t r : t.split.train) f.push_back(t.mat->feature(j)[r]);
    ContingencyTable table(f, y, t.mat->meta(j).cardinality,
                           t.mat->num_classes());
    scores.push_back(kind == FilterScore::kMutualInformation
                         ? MutualInformation(table)
                         : InformationGainRatio(table));
  }
  // Descending score; equal scores keep candidate order.
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return scores[a] > scores[b]; });

  SelectionResult r;
  std::vector<uint32_t> prefix;
  size_t best_k = 0;
  for (size_t k = 1; k <= order.size(); ++k) {
    prefix.push_back(candidates[order[k - 1]]);
    const double err = score(prefix);
    if (k == 1 || err < r.validation_error) {  // Smallest k keeps a tie.
      r.validation_error = err;
      best_k = k;
    }
  }
  r.selected.assign(prefix.begin(), prefix.begin() + best_k);
  r.models_trained = score.calls();
  return r;
}

// --- The sweep. -------------------------------------------------------------

enum class Method { kForward, kBackward, kExhaustive, kMiFilter, kIgrFilter };
const Method kMethods[] = {Method::kForward, Method::kBackward,
                           Method::kExhaustive, Method::kMiFilter,
                           Method::kIgrFilter};

std::unique_ptr<FeatureSelector> MakeMethod(Method method) {
  switch (method) {
    case Method::kForward:
      return std::make_unique<ForwardSelection>();
    case Method::kBackward:
      return std::make_unique<BackwardSelection>();
    case Method::kExhaustive:
      return std::make_unique<ExhaustiveSelection>();
    case Method::kMiFilter:
      return std::make_unique<ScoreFilter>(FilterScore::kMutualInformation);
    case Method::kIgrFilter:
      return std::make_unique<ScoreFilter>(
          FilterScore::kInformationGainRatio);
  }
  return nullptr;
}

bool IsGreedy(Method method) {
  return method == Method::kForward || method == Method::kBackward;
}

// The greedy searches train their candidate models at the refit budget;
// the exhaustive and filter searches train them at full strength.
ClassifierFactory CandidateFactory(const ClassifierFactory& factory,
                                   Method method) {
  if (!IsGreedy(method)) return factory;
  return [factory] {
    std::unique_ptr<Classifier> model = factory();
    model->UseRefitBudget();
    return model;
  };
}

SelectionResult Reference(Method method, const Twin& t,
                          const ClassifierFactory& factory,
                          const std::vector<uint32_t>& candidates) {
  SubsetScorer score(t, CandidateFactory(factory, method));
  switch (method) {
    case Method::kForward:
      return ReferenceForward(score, candidates);
    case Method::kBackward:
      return ReferenceBackward(score, candidates);
    case Method::kExhaustive:
      return ReferenceExhaustive(score, candidates);
    case Method::kMiFilter:
      return ReferenceFilter(score, t, FilterScore::kMutualInformation,
                             candidates);
    case Method::kIgrFilter:
      return ReferenceFilter(score, t, FilterScore::kInformationGainRatio,
                             candidates);
  }
  return {};
}

struct ScorerCase {
  const char* name;
  ClassifierFactory factory;
  bool force_scan_eval;
  bool factorized_accepted;
};

std::vector<ScorerCase> ScorerCases() {
  DecisionTreeOptions tree;
  tree.max_depth = 3;
  return {{"nb_delta", MakeNaiveBayesFactory(), false, true},
          {"nb_force_scan", MakeNaiveBayesFactory(), true, false},
          {"decision_tree", MakeDecisionTreeFactory(tree), false, true},
          {"decision_tree_force_scan", MakeDecisionTreeFactory(tree), true,
           true}};
}

TEST(SearchOracleTest, EverySelectorMatchesTheNaiveReference) {
  const Twin t = MakeTwin(71);
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  ASSERT_GE(candidates.size(), 6u);
  ASSERT_LE(candidates.size(), 10u);

  for (const ScorerCase& sc : ScorerCases()) {
    for (Method method : kMethods) {
      const SelectionResult ref =
          Reference(method, t, sc.factory, candidates);
      // Removal scores on the delta scorer subtract a column, which
      // re-associates the sum; everything else is bit-exact.
      const bool approx = method == Method::kBackward && !sc.force_scan_eval &&
                          std::string(sc.name) == "nb_delta";
      for (bool factorized : {false, true}) {
        for (uint32_t threads : {1u, 4u}) {
          std::unique_ptr<FeatureSelector> selector = MakeMethod(method);
          SCOPED_TRACE(std::string(sc.name) + " " + selector->name() +
                       (factorized ? " factorized" : " materialized") +
                       " threads " + std::to_string(threads));
          selector->set_num_threads(threads);
          selector->set_force_scan_eval(sc.force_scan_eval);
          Result<SelectionResult> got =
              factorized ? selector->SelectFactorized(t.fac, t.split,
                                                      sc.factory, t.metric,
                                                      candidates)
                         : selector->Select(*t.mat, t.split, sc.factory,
                                            t.metric, candidates);
          if (factorized && !sc.factorized_accepted) {
            EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
            continue;
          }
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->selected, ref.selected);
          EXPECT_EQ(got->models_trained, ref.models_trained);
          if (approx) {
            EXPECT_LE(std::fabs(got->validation_error - ref.validation_error),
                      1e-12);
          } else {
            EXPECT_EQ(got->validation_error, ref.validation_error);
          }
        }
      }
    }
  }
}

// --- Counters. --------------------------------------------------------------

// Baseline evaluations (the greedy searches' starting subset) are models,
// but never delta evaluations.
uint64_t Baselines(Method method) { return IsGreedy(method) ? 1 : 0; }

uint64_t StatsBuilds(const obs::MetricsSnapshot& snapshot) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "fs.stats_build_ns") return histogram.count;
  }
  return 0;
}

TEST(SearchOracleTest, CountersMatchModelsTrainedOnEveryScorer) {
  const Twin t = MakeTwin(73);
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  obs::ScopedCollection collection(true);
  for (const ScorerCase& sc : ScorerCases()) {
    const bool delta = std::string(sc.name) == "nb_delta";
    for (Method method : kMethods) {
      for (bool factorized : {false, true}) {
        if (factorized && !sc.factorized_accepted) continue;
        std::unique_ptr<FeatureSelector> selector = MakeMethod(method);
        SCOPED_TRACE(std::string(sc.name) + " " + selector->name() +
                     (factorized ? " factorized" : " materialized"));
        selector->set_num_threads(2);
        selector->set_force_scan_eval(sc.force_scan_eval);
        const obs::MetricsSnapshot before =
            obs::MetricsRegistry::Global().Snapshot();
        Result<SelectionResult> got =
            factorized ? selector->SelectFactorized(t.fac, t.split, sc.factory,
                                                    t.metric, candidates)
                       : selector->Select(*t.mat, t.split, sc.factory,
                                          t.metric, candidates);
        ASSERT_TRUE(got.ok()) << got.status();
        const obs::MetricsSnapshot after =
            obs::MetricsRegistry::Global().Snapshot();
        const uint64_t models = after.CounterValue("fs.models_trained") -
                                before.CounterValue("fs.models_trained");
        const uint64_t deltas = after.CounterValue("fs.delta_evals") -
                                before.CounterValue("fs.delta_evals");
        EXPECT_GT(got->models_trained, 0u);
        EXPECT_EQ(models, got->models_trained);
        EXPECT_EQ(deltas,
                  delta ? got->models_trained - Baselines(method) : 0u);
        // Both classifiers read counts: one build per search, none for
        // the scan reference.
        EXPECT_EQ(StatsBuilds(after) - StatsBuilds(before),
                  sc.force_scan_eval ? 0u : 1u);
      }
    }
  }
}

}  // namespace
}  // namespace hamlet
