/// Determinism regression suite: the threading contract says every
/// parallel path — greedy/exhaustive wrapper search, filter scoring and
/// k-tuning, and the Monte Carlo protocol — produces *bit-for-bit*
/// identical results at any thread count. These tests pin that down by
/// running each path at num_threads ∈ {1, 2, 7, hardware} and comparing
/// selections, scores, errors, and bias/variance decompositions with
/// exact (==) equality against the serial run. It also pins that a
/// running search changes no model trained beside it on another thread,
/// and that two pipeline runs on two threads leave nothing behind for
/// each other.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "analytics/pipeline.h"
#include "common/rng.h"
#include "datasets/registry.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "sim/monte_carlo.h"

namespace hamlet {
namespace {

// Thread counts every suite sweeps: serial, small, odd (uneven chunks),
// and hardware (0).
const uint32_t kThreadCounts[] = {1u, 2u, 7u, 0u};

// A dataset where features 0 and 1 jointly determine Y plus noise
// features, with a fixed 50/25/25 split — enough structure that searches
// do nontrivial work (multiple steps, real ties in the noise tail).
struct DetFixture {
  EncodedDataset data;
  HoldoutSplit split;

  explicit DetFixture(uint64_t seed, uint32_t n = 800,
                      uint32_t num_noise = 4)
      : data(Build(seed, n, num_noise)) {
    Rng rng(seed + 1);
    split = MakeHoldoutSplit(data.num_rows(), rng);
  }

  static EncodedDataset Build(uint64_t seed, uint32_t n,
                              uint32_t num_noise) {
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> feats(2 + num_noise,
                                             std::vector<uint32_t>(n));
    std::vector<uint32_t> y(n);
    std::vector<FeatureMeta> metas = {{"Signal0", 2}, {"Signal1", 2}};
    for (uint32_t j = 0; j < num_noise; ++j) {
      metas.push_back({"Noise" + std::to_string(j), 4});
    }
    for (uint32_t i = 0; i < n; ++i) {
      feats[0][i] = rng.Uniform(2);
      feats[1][i] = rng.Uniform(2);
      for (uint32_t j = 0; j < num_noise; ++j) {
        feats[2 + j][i] = rng.Uniform(4);
      }
      uint32_t target = feats[0][i] | (feats[1][i] << 1);
      y[i] = rng.Bernoulli(0.9) ? target : rng.Uniform(4);
    }
    return EncodedDataset(std::move(feats), std::move(metas),
                          std::move(y), 4);
  }
};

void ExpectSameSelection(const SelectionResult& ref,
                         const SelectionResult& got, uint32_t threads) {
  EXPECT_EQ(got.selected, ref.selected) << "threads " << threads;
  EXPECT_EQ(got.validation_error, ref.validation_error)
      << "threads " << threads;
  EXPECT_EQ(got.models_trained, ref.models_trained) << "threads " << threads;
}

TEST(DeterminismTest, ForwardSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(11);
  auto run = [&](uint32_t threads) {
    ForwardSelection fs;
    fs.set_num_threads(threads);
    return *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, BackwardSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(12);
  auto run = [&](uint32_t threads) {
    BackwardSelection bs;
    bs.set_num_threads(threads);
    return *bs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, ExhaustiveSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(13);
  auto run = [&](uint32_t threads) {
    ExhaustiveSelection ex;
    ex.set_num_threads(threads);
    return *ex.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, FilterScoresIdenticalAtAnyThreadCount) {
  DetFixture f(14);
  std::vector<uint32_t> rows = f.split.train;
  for (FilterScore score : {FilterScore::kMutualInformation,
                            FilterScore::kInformationGainRatio}) {
    ScoreFilter serial(score);
    serial.set_num_threads(1);
    const std::vector<double> ref = serial.ScoreFeatures(
        f.data, rows, f.data.AllFeatureIndices());
    for (uint32_t threads : kThreadCounts) {
      ScoreFilter filter(score);
      filter.set_num_threads(threads);
      const std::vector<double> got = filter.ScoreFeatures(
          f.data, rows, f.data.AllFeatureIndices());
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i], ref[i]) << "feature " << i << " threads "
                                  << threads;
      }
    }
  }
}

TEST(DeterminismTest, FilterSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(15);
  for (FsMethod method : {FsMethod::kMiFilter, FsMethod::kIgrFilter}) {
    auto run = [&](uint32_t threads) {
      auto filter = MakeSelector(method, threads);
      return *filter->Select(f.data, f.split, MakeNaiveBayesFactory(),
                             ErrorMetric::kZeroOne,
                             f.data.AllFeatureIndices());
    };
    const SelectionResult ref = run(1);
    for (uint32_t threads : kThreadCounts) {
      ExpectSameSelection(ref, run(threads), threads);
    }
  }
}

void ExpectSameDecomposition(const BiasVarianceResult& ref,
                             const BiasVarianceResult& got,
                             uint32_t threads) {
  EXPECT_EQ(got.avg_test_error, ref.avg_test_error) << "threads " << threads;
  EXPECT_EQ(got.avg_bias, ref.avg_bias) << "threads " << threads;
  EXPECT_EQ(got.avg_variance, ref.avg_variance) << "threads " << threads;
  EXPECT_EQ(got.avg_net_variance, ref.avg_net_variance)
      << "threads " << threads;
  EXPECT_EQ(got.avg_noise, ref.avg_noise) << "threads " << threads;
  EXPECT_EQ(got.num_points, ref.num_points) << "threads " << threads;
}

TEST(DeterminismTest, MonteCarloIdenticalAtAnyThreadCount) {
  SimConfig config;
  config.n_s = 400;
  config.n_r = 40;
  MonteCarloOptions options;
  options.num_training_sets = 25;
  options.num_repeats = 3;
  options.num_threads = 1;
  const MonteCarloResult ref = *RunMonteCarlo(config, options);
  for (uint32_t threads : kThreadCounts) {
    MonteCarloOptions parallel = options;
    parallel.num_threads = threads;
    const MonteCarloResult got = *RunMonteCarlo(config, parallel);
    ExpectSameDecomposition(ref.use_all, got.use_all, threads);
    ExpectSameDecomposition(ref.no_join, got.no_join, threads);
    ExpectSameDecomposition(ref.no_fk, got.no_fk, threads);
  }
}

TEST(DeterminismTest, MonteCarloSingleRepeatParallelizesInnerLoop) {
  // num_repeats = 1 leaves the outer loop serial, so the inner
  // training-set loop is the one that parallelizes — it must produce the
  // same decomposition as a fully serial run.
  SimConfig config;
  config.n_s = 300;
  config.n_r = 30;
  MonteCarloOptions options;
  options.num_training_sets = 40;
  options.num_repeats = 1;
  options.num_threads = 1;
  const MonteCarloResult ref = *RunMonteCarlo(config, options);
  for (uint32_t threads : kThreadCounts) {
    MonteCarloOptions parallel = options;
    parallel.num_threads = threads;
    const MonteCarloResult got = *RunMonteCarlo(config, parallel);
    ExpectSameDecomposition(ref.use_all, got.use_all, threads);
    ExpectSameDecomposition(ref.no_join, got.no_join, threads);
    ExpectSameDecomposition(ref.no_fk, got.no_fk, threads);
  }
}

// --- A search never reaches models it did not train. ----------------------

void ExpectSameTree(const DecisionTreeParams& got,
                    const DecisionTreeParams& want) {
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.features, want.features);
  EXPECT_EQ(got.cardinalities, want.cardinalities);
  EXPECT_EQ(got.split_slot, want.split_slot);
  EXPECT_EQ(got.split_code, want.split_code);
  EXPECT_EQ(got.left, want.left);
  EXPECT_EQ(got.right, want.right);
  EXPECT_EQ(got.scores, want.scores);
}

void ExpectSameEnsemble(const GbtParams& got, const GbtParams& want) {
  EXPECT_EQ(got.learning_rate, want.learning_rate);
  EXPECT_EQ(got.lambda, want.lambda);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.features, want.features);
  EXPECT_EQ(got.cardinalities, want.cardinalities);
  EXPECT_EQ(got.base_scores, want.base_scores);
  ASSERT_EQ(got.trees.size(), want.trees.size());
  for (size_t m = 0; m < want.trees.size(); ++m) {
    EXPECT_EQ(got.trees[m].split_slot, want.trees[m].split_slot) << m;
    EXPECT_EQ(got.trees[m].split_code, want.trees[m].split_code) << m;
    EXPECT_EQ(got.trees[m].left, want.trees[m].left) << m;
    EXPECT_EQ(got.trees[m].right, want.trees[m].right) << m;
    EXPECT_EQ(got.trees[m].value, want.trees[m].value) << m;
  }
}

// A tree forward selection is held inside its first step, where its
// candidate models train at the cheap refit budget, while this thread
// trains a default DecisionTree and a default Gbt. Both must equal the
// same fits trained with no search running: the budget belongs to the
// candidate models, so no other model can see it.
TEST(RefitBudgetDeterminismTest, ConcurrentFitsIgnoreARunningSearch) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.02, 81);
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  const EncodedDataset data =
      *EncodedDataset::FromTableAuto(*dataset.JoinSubset(fks));
  Rng rng(82);
  const HoldoutSplit split = MakeHoldoutSplit(data.num_rows(), rng);
  const std::vector<uint32_t> features = data.AllFeatureIndices();

  // The selector probes its factory once and trains the empty-subset
  // baseline before step 1, so the third model is step 1's first
  // candidate; that call blocks until this thread is done.
  const ClassifierFactory trees = MakeDecisionTreeFactory();
  std::atomic<int> calls{0};
  std::promise<void> held;
  std::future<void> held_future = held.get_future();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  const ClassifierFactory gated = [&] {
    if (calls.fetch_add(1) == 2) {
      held.set_value();
      released.wait();
    }
    return trees();
  };
  ForwardSelection forward;
  forward.set_num_threads(1);
  Status search_status;
  std::thread searcher([&] {
    search_status = forward
                        .Select(data, split, gated, ErrorMetric::kZeroOne,
                                features)
                        .status();
  });

  const bool reached = held_future.wait_for(std::chrono::seconds(120)) ==
                       std::future_status::ready;
  DecisionTree tree_during;
  Gbt gbt_during;
  Status tree_status, gbt_status;
  if (reached) {
    tree_status = tree_during.Train(data, split.train, features);
    gbt_status = gbt_during.Train(data, split.train, features);
  }
  release.set_value();
  searcher.join();
  ASSERT_TRUE(reached) << "the search never reached its first step";
  ASSERT_TRUE(search_status.ok()) << search_status;
  ASSERT_TRUE(tree_status.ok()) << tree_status;
  ASSERT_TRUE(gbt_status.ok()) << gbt_status;

  DecisionTree tree_alone;
  ASSERT_TRUE(tree_alone.Train(data, split.train, features).ok());
  Gbt gbt_alone;
  ASSERT_TRUE(gbt_alone.Train(data, split.train, features).ok());
  ExpectSameTree(tree_during.ExportParams(), tree_alone.ExportParams());
  ExpectSameEnsemble(gbt_during.ExportParams(), gbt_alone.ExportParams());
}

// A factorized Naive Bayes pipeline and a force_scan_eval pipeline run
// at once on two threads over one dataset. Each must equal its solo run
// bit for bit: statistics belong to the run that built them, so neither
// run can read the other's counts or be steered by its scan switch.
TEST(PipelineDeterminismTest, ConcurrentRunsEqualTheirSoloRuns) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.02, 83);
  PipelineConfig factorized;
  factorized.method = FsMethod::kForwardSelection;
  factorized.classifier = ClassifierKind::kNaiveBayes;
  factorized.metric = *MetricForDataset("Walmart");
  factorized.enable_join_avoidance = false;
  factorized.avoid_materialization = true;
  factorized.seed = 83;
  PipelineConfig scan = factorized;
  scan.avoid_materialization = false;
  scan.force_scan_eval = true;

  const Result<PipelineReport> factorized_solo =
      RunPipeline(dataset, factorized);
  const Result<PipelineReport> scan_solo = RunPipeline(dataset, scan);
  ASSERT_TRUE(factorized_solo.ok()) << factorized_solo.status();
  ASSERT_TRUE(scan_solo.ok()) << scan_solo.status();
  ASSERT_TRUE(factorized_solo->factorized);
  ASSERT_FALSE(scan_solo->factorized);

  Result<PipelineReport> factorized_beside = Status::Internal("not run");
  Result<PipelineReport> scan_beside = Status::Internal("not run");
  std::thread other([&] { scan_beside = RunPipeline(dataset, scan); });
  factorized_beside = RunPipeline(dataset, factorized);
  other.join();
  ASSERT_TRUE(factorized_beside.ok()) << factorized_beside.status();
  ASSERT_TRUE(scan_beside.ok()) << scan_beside.status();

  for (const auto& [solo, beside] :
       {std::pair{&*factorized_solo, &*factorized_beside},
        std::pair{&*scan_solo, &*scan_beside}}) {
    EXPECT_EQ(beside->factorized, solo->factorized);
    EXPECT_EQ(beside->selection.selected_names,
              solo->selection.selected_names);
    EXPECT_EQ(beside->selection.selection.selected,
              solo->selection.selection.selected);
    EXPECT_EQ(beside->selection.selection.validation_error,
              solo->selection.selection.validation_error);
    EXPECT_EQ(beside->selection.selection.models_trained,
              solo->selection.selection.models_trained);
    EXPECT_EQ(beside->selection.holdout_test_error,
              solo->selection.holdout_test_error);
  }
}

}  // namespace
}  // namespace hamlet
