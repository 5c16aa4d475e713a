/// Factorized-vs-materialized equivalence for the tree subsystem (ctest
/// label `factorized`). The contract under test is the determinism half
/// of ml/decision_tree.h and ml/gbt.h: training a histogram CART tree or
/// a gradient-boosted ensemble over the normalized (S, R) view must
/// produce *bit*-identical models — every split, every stored double —
/// to training on the materialized join, at any thread count, because
/// split histograms are integer counts (tree) or pinned-order float
/// accumulations (GBT) and the factorized path differs only in where
/// candidate codes are read from. Selections, runner reports, and the
/// pipeline's avoid-materialization switch must then agree end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "common/rng.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "ml/suff_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/catalog.h"

namespace hamlet {
namespace {

const uint32_t kThreadCounts[] = {1u, 2u, 8u};

struct DatasetCase {
  const char* name;
  double scale;
};
// The same three schema shapes the NB equivalence suite covers.
const DatasetCase kDatasetCases[] = {
    {"Walmart", 0.02}, {"Expedia", 0.004}, {"Yelp", 0.02}};

std::vector<std::string> AllFkColumns(const NormalizedDataset& dataset) {
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  return fks;
}

/// Both views of one dataset plus the (identical) holdout split.
struct TwinCase {
  std::string name;
  NormalizedDataset dataset;
  std::unique_ptr<EncodedDataset> mat;
  FactorizedDataset fac;
  HoldoutSplit split;
  ErrorMetric metric;
};

TwinCase MakeTwinCase(const DatasetCase& c, uint64_t seed) {
  TwinCase out;
  out.name = c.name;
  out.dataset = *MakeDataset(c.name, c.scale, seed);
  const std::vector<std::string> fks = AllFkColumns(out.dataset);
  Table table = *out.dataset.JoinSubset(fks);
  out.mat =
      std::make_unique<EncodedDataset>(*EncodedDataset::FromTableAuto(table));
  out.fac = *FactorizedDataset::Make(out.dataset, fks);
  Rng rng(seed + 1);
  out.split = MakeHoldoutSplit(out.mat->num_rows(), rng);
  out.metric = *MetricForDataset(c.name);
  return out;
}

void ExpectTreeParamsBitIdentical(const DecisionTreeParams& a,
                                  const DecisionTreeParams& b,
                                  const std::string& context) {
  EXPECT_EQ(a.alpha, b.alpha) << context;
  EXPECT_EQ(a.num_classes, b.num_classes) << context;
  EXPECT_EQ(a.features, b.features) << context;
  EXPECT_EQ(a.cardinalities, b.cardinalities) << context;
  EXPECT_EQ(a.split_slot, b.split_slot) << context;
  EXPECT_EQ(a.split_code, b.split_code) << context;
  EXPECT_EQ(a.left, b.left) << context;
  EXPECT_EQ(a.right, b.right) << context;
  // operator== on vector<double> is exact FP equality: bit identity
  // modulo -0.0/NaN, neither of which a log-probability table contains.
  EXPECT_EQ(a.scores, b.scores) << context;
}

void ExpectGbtParamsBitIdentical(const GbtParams& a, const GbtParams& b,
                                 const std::string& context) {
  EXPECT_EQ(a.learning_rate, b.learning_rate) << context;
  EXPECT_EQ(a.lambda, b.lambda) << context;
  EXPECT_EQ(a.num_classes, b.num_classes) << context;
  EXPECT_EQ(a.features, b.features) << context;
  EXPECT_EQ(a.cardinalities, b.cardinalities) << context;
  EXPECT_EQ(a.base_scores, b.base_scores) << context;
  ASSERT_EQ(a.trees.size(), b.trees.size()) << context;
  for (size_t m = 0; m < a.trees.size(); ++m) {
    const std::string tc = context + " tree " + std::to_string(m);
    EXPECT_EQ(a.trees[m].split_slot, b.trees[m].split_slot) << tc;
    EXPECT_EQ(a.trees[m].split_code, b.trees[m].split_code) << tc;
    EXPECT_EQ(a.trees[m].left, b.trees[m].left) << tc;
    EXPECT_EQ(a.trees[m].right, b.trees[m].right) << tc;
    EXPECT_EQ(a.trees[m].value, b.trees[m].value) << tc;
  }
}

// --- Training: bit-identical models across views and thread counts. -------

TEST(FactorizedTreeTest, TrainBitIdenticalAcrossViewsAndThreads) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 41);
    const std::vector<uint32_t> features = t.mat->AllFeatureIndices();

    DecisionTreeOptions ref_options;
    ref_options.num_threads = 1;
    DecisionTree ref(ref_options);
    ASSERT_TRUE(ref.Train(*t.mat, t.split.train, features).ok());
    const DecisionTreeParams ref_params = ref.ExportParams();
    ASSERT_GT(ref.num_nodes(), 1u) << t.name << ": degenerate stump";
    const std::vector<uint32_t> ref_pred = ref.Predict(*t.mat, t.split.test);

    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(t.name + " threads " + std::to_string(threads));
      DecisionTreeOptions options;
      options.num_threads = threads;

      DecisionTree mat_tree(options);
      ASSERT_TRUE(mat_tree.Train(*t.mat, t.split.train, features).ok());
      ExpectTreeParamsBitIdentical(mat_tree.ExportParams(), ref_params,
                                   "materialized");

      DecisionTree fac_tree(options);
      ASSERT_TRUE(
          fac_tree.TrainFactorized(t.fac, t.split.train, features).ok());
      ExpectTreeParamsBitIdentical(fac_tree.ExportParams(), ref_params,
                                   "factorized");

      std::vector<uint32_t> fac_pred;
      ASSERT_TRUE(
          fac_tree.PredictFactorized(t.fac, t.split.test, &fac_pred).ok());
      EXPECT_EQ(fac_pred, ref_pred);
    }
  }
}

TEST(FactorizedGbtTest, TrainBitIdenticalAcrossViewsAndThreads) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 43);
    const std::vector<uint32_t> features = t.mat->AllFeatureIndices();

    GbtOptions ref_options;
    ref_options.num_rounds = 5;  // Enough rounds to exercise boosting.
    ref_options.num_threads = 1;
    Gbt ref(ref_options);
    ASSERT_TRUE(ref.Train(*t.mat, t.split.train, features).ok());
    const GbtParams ref_params = ref.ExportParams();
    ASSERT_EQ(ref.num_trees(), 5u * ref.num_classes());
    const std::vector<uint32_t> ref_pred = ref.Predict(*t.mat, t.split.test);

    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(t.name + " threads " + std::to_string(threads));
      GbtOptions options = ref_options;
      options.num_threads = threads;

      Gbt mat_gbt(options);
      ASSERT_TRUE(mat_gbt.Train(*t.mat, t.split.train, features).ok());
      ExpectGbtParamsBitIdentical(mat_gbt.ExportParams(), ref_params,
                                  "materialized");

      Gbt fac_gbt(options);
      ASSERT_TRUE(
          fac_gbt.TrainFactorized(t.fac, t.split.train, features).ok());
      ExpectGbtParamsBitIdentical(fac_gbt.ExportParams(), ref_params,
                                  "factorized");

      std::vector<uint32_t> fac_pred;
      ASSERT_TRUE(
          fac_gbt.PredictFactorized(t.fac, t.split.test, &fac_pred).ok());
      EXPECT_EQ(fac_pred, ref_pred);
    }
  }
}

// --- Reference oracle: a textbook CART the shared trainer must equal. ----
//
// Both views run one trainer, so comparing them cannot catch a bug in it.
// This reference grows the same tree the slow way: columns gathered at
// the given row positions (in the given order), every node's histograms
// counted from its own rows, no subtraction trick, no skipped children.
// Split rule, tie-breaks, leaf tests and the pre-order layout follow the
// contract in ml/decision_tree.h.

double ReferenceGini(const std::vector<uint64_t>& counts, uint64_t total) {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  double sum_sq = 0.0;
  for (uint64_t c : counts) {
    const double p = static_cast<double>(c) / n;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

DecisionTreeParams ReferenceCart(const EncodedDataset& data,
                                 const std::vector<uint32_t>& rows,
                                 const std::vector<uint32_t>& features,
                                 const DecisionTreeOptions& options,
                                 bool refit_budget) {
  const uint32_t num_classes = data.num_classes();
  uint32_t max_depth = options.max_depth;
  if (refit_budget) {
    max_depth = std::min(max_depth, options.candidate_max_depth);
  }
  DecisionTreeParams p;
  p.alpha = options.alpha;
  p.num_classes = num_classes;
  p.features = features;
  for (uint32_t j : features) p.cardinalities.push_back(data.meta(j).cardinality);

  // Position-indexed copies: codes[slot][i] and labels[i] for rows[i].
  std::vector<std::vector<uint32_t>> codes(features.size());
  std::vector<uint32_t> labels;
  for (uint32_t r : rows) labels.push_back(data.labels()[r]);
  for (size_t jj = 0; jj < features.size(); ++jj) {
    for (uint32_t r : rows) codes[jj].push_back(data.feature(features[jj])[r]);
  }

  std::function<int32_t(const std::vector<uint32_t>&, uint32_t)> grow =
      [&](const std::vector<uint32_t>& items, uint32_t depth) -> int32_t {
    const int32_t idx = static_cast<int32_t>(p.split_slot.size());
    p.split_slot.push_back(-1);
    p.split_code.push_back(0);
    p.left.push_back(-1);
    p.right.push_back(-1);
    std::vector<uint64_t> cls(num_classes, 0);
    for (uint32_t i : items) ++cls[labels[i]];
    const uint64_t n = items.size();
    const double denom =
        static_cast<double>(n) + options.alpha * static_cast<double>(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      p.scores.push_back(
          std::log((static_cast<double>(cls[y]) + options.alpha) / denom));
    }
    if (depth >= max_depth || n < options.min_rows_split) return idx;
    for (uint64_t c : cls) {
      if (c == n) return idx;
    }

    const double parent_gini = ReferenceGini(cls, n);
    const double n_d = static_cast<double>(n);
    int32_t pick = -1;
    uint32_t pick_code = 0;
    double pick_gain = options.min_gain;
    for (size_t jj = 0; jj < features.size(); ++jj) {
      std::vector<std::vector<uint64_t>> hist(
          p.cardinalities[jj], std::vector<uint64_t>(num_classes, 0));
      for (uint32_t i : items) ++hist[codes[jj][i]][labels[i]];
      bool valid = false;
      double slot_gain = 0.0;
      uint32_t slot_code = 0;
      for (uint32_t v = 0; v < p.cardinalities[jj]; ++v) {
        const std::vector<uint64_t>& l = hist[v];
        uint64_t nl = 0;
        for (uint64_t c : l) nl += c;
        if (nl == 0 || nl == n) continue;
        std::vector<uint64_t> r(num_classes);
        for (uint32_t y = 0; y < num_classes; ++y) r[y] = cls[y] - l[y];
        const uint64_t nr = n - nl;
        const double weighted =
            (static_cast<double>(nl) / n_d) * ReferenceGini(l, nl) +
            (static_cast<double>(nr) / n_d) * ReferenceGini(r, nr);
        const double gain = parent_gini - weighted;
        if (!valid || gain > slot_gain) {
          valid = true;
          slot_gain = gain;
          slot_code = v;
        }
      }
      if (valid && slot_gain > pick_gain) {
        pick = static_cast<int32_t>(jj);
        pick_code = slot_code;
        pick_gain = slot_gain;
      }
    }
    if (pick < 0) return idx;

    std::vector<uint32_t> left_items, right_items;
    for (uint32_t i : items) {
      (codes[pick][i] == pick_code ? left_items : right_items).push_back(i);
    }
    const int32_t l = grow(left_items, depth + 1);
    const int32_t r = grow(right_items, depth + 1);
    p.split_slot[idx] = pick;
    p.split_code[idx] = pick_code;
    p.left[idx] = l;
    p.right[idx] = r;
    return idx;
  };

  std::vector<uint32_t> all(rows.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  grow(all, 0);
  return p;
}

/// Argmax leaf class of `params` for each row — the reference walker.
std::vector<uint32_t> ReferencePredict(const DecisionTreeParams& params,
                                       const EncodedDataset& data,
                                       const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> out;
  for (uint32_t row : rows) {
    int32_t node = 0;
    while (params.split_slot[node] >= 0) {
      const uint32_t j = params.features[params.split_slot[node]];
      node = data.feature(j)[row] == params.split_code[node]
                 ? params.left[node]
                 : params.right[node];
    }
    const double* s = &params.scores[static_cast<size_t>(node) *
                                     params.num_classes];
    uint32_t best = 0;
    for (uint32_t c = 1; c < params.num_classes; ++c) {
      if (s[c] > s[best]) best = c;
    }
    out.push_back(best);
  }
  return out;
}

TEST(FactorizedTreeTest, SharedTrainerMatchesReferenceCart) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 59);
    const std::vector<uint32_t> features = t.mat->AllFeatureIndices();

    // The trainer sorts its root rows; the row order it is handed, and
    // repeats within it, must change nothing the reference would not.
    std::vector<uint32_t> shuffled = t.split.train;
    Rng rng(61);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[rng.Uniform(static_cast<uint32_t>(i))]);
    }
    std::vector<uint32_t> reversed(t.split.train.rbegin(),
                                   t.split.train.rend());
    std::vector<uint32_t> repeated = t.split.train;
    for (size_t i = 0; i < t.split.train.size(); i += 3) {
      repeated.push_back(t.split.train[i]);
    }
    const std::pair<const char*, const std::vector<uint32_t>*> row_sets[] = {
        {"train", &t.split.train},
        {"shuffled", &shuffled},
        {"reversed", &reversed},
        {"repeated", &repeated}};

    for (uint32_t max_depth : {0u, 2u, 6u}) {
      for (bool budget : {false, true}) {
        for (const auto& [rows_name, rows] : row_sets) {
          SCOPED_TRACE(t.name + " depth " + std::to_string(max_depth) +
                       (budget ? " budget " : " full ") + rows_name);
          DecisionTreeOptions options;
          options.max_depth = max_depth;
          options.num_threads = 2;
          const DecisionTreeParams ref =
              ReferenceCart(*t.mat, *rows, features, options, budget);
          const std::vector<uint32_t> ref_pred =
              ReferencePredict(ref, *t.mat, t.split.test);

          DecisionTree mat_tree(options);
          if (budget) mat_tree.UseRefitBudget();
          ASSERT_TRUE(mat_tree.Train(*t.mat, *rows, features).ok());
          ExpectTreeParamsBitIdentical(mat_tree.ExportParams(), ref,
                                       "materialized");
          EXPECT_EQ(mat_tree.Predict(*t.mat, t.split.test), ref_pred);

          DecisionTree fac_tree(options);
          if (budget) fac_tree.UseRefitBudget();
          ASSERT_TRUE(fac_tree.TrainFactorized(t.fac, *rows, features).ok());
          ExpectTreeParamsBitIdentical(fac_tree.ExportParams(), ref,
                                       "factorized");
          std::vector<uint32_t> fac_pred;
          ASSERT_TRUE(
              fac_tree.PredictFactorized(t.fac, t.split.test, &fac_pred).ok());
          EXPECT_EQ(fac_pred, ref_pred);
        }
      }
    }
  }
}

// --- Handed SuffStats seed the root and change nothing but the cost. -----

// Same identity, class counts off by one: a tree that reads them shows it
// in its root scores, so "read" and "ignored" are told apart.
std::shared_ptr<const SuffStats> SkewedStats(const SuffStats& stats) {
  SuffStats skewed = stats;
  for (uint64_t& count : skewed.class_counts) ++count;
  return std::make_shared<const SuffStats>(std::move(skewed));
}

TEST(FactorizedTreeTest, HandedStatsDoNotChangeBits) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 45);
  const std::vector<uint32_t> features = t.mat->AllFeatureIndices();
  DecisionTreeOptions options;
  options.num_threads = 2;
  const SuffStats mat_stats = BuildSuffStats(*t.mat, t.split.train, 1);
  const SuffStats fac_stats =
      BuildFactorizedSuffStats(t.fac, t.split.train, 1);
  auto train = [&](bool factorized, std::shared_ptr<const SuffStats> stats) {
    DecisionTree tree(options);
    tree.UseTrainStats(std::move(stats));
    EXPECT_TRUE((factorized
                     ? tree.TrainFactorized(t.fac, t.split.train, features)
                     : tree.Train(*t.mat, t.split.train, features))
                    .ok());
    return tree.ExportParams();
  };

  // None: both views count the root histograms from the codes.
  const DecisionTreeParams cold = train(false, nullptr);
  ExpectTreeParamsBitIdentical(train(true, nullptr), cold, "factorized none");

  // Matching hand-offs: the root comes from the counts, bit-identically.
  ExpectTreeParamsBitIdentical(
      train(false, std::make_shared<const SuffStats>(mat_stats)), cold,
      "materialized matching");
  ExpectTreeParamsBitIdentical(
      train(true, std::make_shared<const SuffStats>(fac_stats)), cold,
      "factorized matching");
  // ...and really are read.
  EXPECT_NE(train(false, SkewedStats(mat_stats)).scores, cold.scores);
  EXPECT_NE(train(true, SkewedStats(fac_stats)).scores, cold.scores);

  // Mismatched hand-offs — the other view's statistics, or another row
  // subset — are ignored, skewed counts and all.
  SuffStats other_rows = mat_stats;
  other_rows.rows = t.split.validation;
  ExpectTreeParamsBitIdentical(train(false, SkewedStats(fac_stats)), cold,
                               "materialized given factorized");
  ExpectTreeParamsBitIdentical(train(true, SkewedStats(mat_stats)), cold,
                               "factorized given materialized");
  ExpectTreeParamsBitIdentical(train(false, SkewedStats(other_rows)), cold,
                               "materialized given other rows");
}

// --- Selections: the tree scan paths agree with the materialized scan. ----

TEST(FactorizedTreeSelectionTest, ForwardAndBackwardMatchMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 47);
  const ClassifierFactory factory = MakeDecisionTreeFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();

  std::vector<std::unique_ptr<FeatureSelector>> selectors;
  selectors.push_back(std::make_unique<ForwardSelection>());
  selectors.push_back(std::make_unique<BackwardSelection>());
  for (auto& selector : selectors) {
    for (uint32_t threads : {1u, 2u}) {
      SCOPED_TRACE(selector->name() + " threads " + std::to_string(threads));
      selector->set_num_threads(threads);
      auto mat =
          selector->Select(*t.mat, t.split, factory, t.metric, candidates);
      ASSERT_TRUE(mat.ok()) << mat.status();
      auto fac = selector->SelectFactorized(t.fac, t.split, factory, t.metric,
                                            candidates);
      ASSERT_TRUE(fac.ok()) << fac.status();
      EXPECT_EQ(fac->selected, mat->selected);
      EXPECT_EQ(fac->validation_error, mat->validation_error);
      EXPECT_EQ(fac->models_trained, mat->models_trained);
    }
  }
}

TEST(FactorizedGbtSelectionTest, ForwardSelectionMatchesMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 49);
  const ClassifierFactory factory = MakeGbtFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  ForwardSelection forward;
  for (uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    forward.set_num_threads(threads);
    auto mat = forward.Select(*t.mat, t.split, factory, t.metric, candidates);
    ASSERT_TRUE(mat.ok()) << mat.status();
    auto fac =
        forward.SelectFactorized(t.fac, t.split, factory, t.metric, candidates);
    ASSERT_TRUE(fac.ok()) << fac.status();
    EXPECT_EQ(fac->selected, mat->selected);
    EXPECT_EQ(fac->validation_error, mat->validation_error);
    EXPECT_EQ(fac->models_trained, mat->models_trained);
  }
}

// --- Runner: final fit and holdout error agree. ---------------------------

TEST(FactorizedTreeRunnerTest, ReportBitIdenticalToMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 51);
  const ClassifierFactory factory = MakeDecisionTreeFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  ForwardSelection forward;
  forward.set_num_threads(2);

  auto mat = RunFeatureSelection(forward, *t.mat, t.split, factory, t.metric,
                                 candidates);
  ASSERT_TRUE(mat.ok()) << mat.status();
  auto fac = RunFeatureSelectionFactorized(forward, t.fac, t.split, factory,
                                           t.metric, candidates);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_EQ(fac->selection.selected, mat->selection.selected);
  EXPECT_EQ(fac->selection.validation_error, mat->selection.validation_error);
  EXPECT_EQ(fac->selected_names, mat->selected_names);
  EXPECT_EQ(fac->holdout_test_error, mat->holdout_test_error);

  // The final fits themselves: retrain both views on the selected subset
  // and require bit identity (the runner's final fits are fresh models
  // with no refit budget, so these full-depth twins are what it reported
  // on).
  DecisionTreeOptions options;
  options.num_threads = 2;
  DecisionTree from_mat(options), from_fac(options);
  ASSERT_TRUE(
      from_mat.Train(*t.mat, t.split.train, mat->selection.selected).ok());
  ASSERT_TRUE(
      from_fac.TrainFactorized(t.fac, t.split.train, fac->selection.selected)
          .ok());
  ExpectTreeParamsBitIdentical(from_fac.ExportParams(), from_mat.ExportParams(),
                               "final fit");
}

// --- Runner: one statistics build reaches every tree it trains. ----------

// Every tree the run trains — each candidate and the final fit — seeds
// its root histograms from the search's one build instead of a pass over
// the train rows. The results cannot show it (they are bit-identical by
// design), so the rows the trees scan do: the scan reference
// (force_scan_eval) hands out no statistics and pays one extra root pass
// per tree.
TEST(FactorizedTreeRunnerTest, EveryTreeOfTheRunReadsTheSearchStats) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 52);
  const ClassifierFactory factory = MakeDecisionTreeFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  for (bool factorized : {false, true}) {
    SCOPED_TRACE(factorized ? "factorized" : "materialized");
    uint64_t scanned[2] = {0, 0};
    uint64_t trees[2] = {0, 0};
    uint64_t models = 0;
    for (bool force_scan : {false, true}) {
      obs::ScopedCollection collection(true);
      ForwardSelection forward;
      forward.set_num_threads(2);
      forward.set_force_scan_eval(force_scan);
      auto report =
          factorized
              ? RunFeatureSelectionFactorized(forward, t.fac, t.split, factory,
                                              t.metric, candidates)
              : RunFeatureSelection(forward, *t.mat, t.split, factory,
                                    t.metric, candidates);
      ASSERT_TRUE(report.ok()) << report.status();
      const obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Global().Snapshot();
      scanned[force_scan] = snapshot.CounterValue("tree.rows_scanned");
      trees[force_scan] = snapshot.CounterValue("tree.trains");
      models = report->selection.models_trained;
    }
    EXPECT_EQ(trees[0], models + 1);  // The candidates and the final fit.
    EXPECT_EQ(trees[1], trees[0]);
    EXPECT_EQ(scanned[1] - scanned[0], trees[0] * t.split.train.size());
  }
}

// --- The pipeline switch, for both tree classifiers. ----------------------

TEST(FactorizedTreePipelineTest, DecisionTreeAvoidMaterializationMatches) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.02, 53);
  PipelineConfig config;
  config.method = FsMethod::kForwardSelection;
  config.classifier = ClassifierKind::kDecisionTree;
  config.metric = *MetricForDataset("Walmart");
  config.seed = 53;

  config.avoid_materialization = false;
  auto mat = RunPipeline(dataset, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  config.avoid_materialization = true;
  auto fac = RunPipeline(dataset, config);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_TRUE(fac->factorized);
  EXPECT_FALSE(mat->factorized);
  EXPECT_EQ(fac->tables_joined, 0u);
  EXPECT_EQ(fac->tables_factorized, mat->tables_joined);
  EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names);
  EXPECT_EQ(fac->selection.selection.validation_error,
            mat->selection.selection.validation_error);
  EXPECT_EQ(fac->selection.holdout_test_error,
            mat->selection.holdout_test_error);
}

TEST(FactorizedGbtPipelineTest, GbtAvoidMaterializationMatches) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 55);
  PipelineConfig config;
  config.method = FsMethod::kForwardSelection;
  config.classifier = ClassifierKind::kGradientBoostedTrees;
  config.metric = *MetricForDataset("Walmart");
  config.seed = 55;

  config.avoid_materialization = false;
  auto mat = RunPipeline(dataset, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  config.avoid_materialization = true;
  auto fac = RunPipeline(dataset, config);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_TRUE(fac->factorized);
  EXPECT_EQ(fac->tables_joined, 0u);
  EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names);
  EXPECT_EQ(fac->selection.holdout_test_error,
            mat->selection.holdout_test_error);
}

// --- force_scan_eval does not break trees (their scan IS factorized). -----

TEST(FactorizedTreePipelineTest, ForceScanStillTrainsFactorized) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 57);
  PipelineConfig config;
  config.classifier = ClassifierKind::kDecisionTree;
  config.metric = *MetricForDataset("Walmart");
  config.avoid_materialization = true;
  // force_scan_eval only stops the trees reading the search's statistics
  // (their roots count from the codes); they still train over the view.
  config.force_scan_eval = true;
  auto report = RunPipeline(dataset, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->factorized);
  EXPECT_EQ(report->tables_joined, 0u);
}

}  // namespace
}  // namespace hamlet
