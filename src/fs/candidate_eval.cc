#include "fs/candidate_eval.h"

#include <functional>

#include "common/parallel_for.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/eval.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {

namespace {

obs::Counter& FsModelsTrainedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("fs.models_trained");
  return counter;
}

obs::Histogram& FsCandidateEvalHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("fs.candidate_eval_ns");
  return histogram;
}

obs::Counter& FsDeltaEvalsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("fs.delta_evals");
  return counter;
}

// Subtree count for the parallel lattice DFS: enough to keep every worker
// busy (≥4× effective threads), but never more than the lattice has — or
// than is worth the per-task setup.
uint32_t ChooseSplitBits(uint32_t d, uint32_t num_threads) {
  const uint32_t effective =
      num_threads == 0
          ? static_cast<uint32_t>(ThreadPool::Global().num_workers() + 1)
          : num_threads;
  uint32_t split_bits = 0;
  while ((1u << split_bits) < 4 * effective && split_bits < d &&
         split_bits < 12) {
    ++split_bits;
  }
  return split_bits;
}

// The delta scorer. Every score is summed in the order a retrain would
// sum it — the base in the order it was built, an added feature last,
// prefixes in rank order, lattice subsets in ascending bit order — so it
// is bit-identical to the retrain scorer over Naive Bayes. Removals are
// the exception: EvalBaseMinus subtracts a column, which re-associates
// the sum (~1e-15 per score, docs/PERFORMANCE.md).
class DeltaScorer final : public CandidateScorer {
 public:
  DeltaScorer(std::unique_ptr<NbSubsetEvaluator> ev, uint32_t num_threads,
              BuildStatsFn build_stats, ScanTableFn scan_table,
              std::shared_ptr<const SuffStats> stats)
      : CandidateScorer(/*delta=*/true, num_threads, std::move(build_stats),
                        std::move(scan_table), std::move(stats)),
        ev_(std::move(ev)) {}

 private:
  Result<double> EvalNewBase() override {
    ev_->ResetBase(base());
    return ev_->EvalBase();
  }

  void BaseAdded(uint32_t feature) override { ev_->AddToBase(feature); }
  void BaseRemoved(uint32_t feature) override {
    ev_->RemoveFromBase(feature);
  }

  Status EvalAdditions(const std::vector<uint32_t>& features,
                       std::vector<double>* errors) override {
    ParallelFor(static_cast<uint32_t>(features.size()), num_threads(),
                [&](uint32_t i) {
                  obs::ScopedLatency latency(FsCandidateEvalHistogram());
                  (*errors)[i] = ev().EvalBasePlus(features[i]);
                });
    return Status::OK();
  }

  Status EvalRemovals(std::vector<double>* errors) override {
    ParallelFor(static_cast<uint32_t>(base().size()), num_threads(),
                [&](uint32_t i) {
                  obs::ScopedLatency latency(FsCandidateEvalHistogram());
                  (*errors)[i] = ev().EvalBaseMinus(base()[i]);
                });
    return Status::OK();
  }

  // The prefixes are nested, so one AddToBase per prefix scores them all.
  Status EvalPrefixes(const std::vector<uint32_t>& order,
                      std::vector<double>* errors) override {
    ev_->ResetBase({});
    for (size_t k = 0; k < order.size(); ++k) {
      obs::ScopedLatency latency(FsCandidateEvalHistogram());
      ev_->AddToBase(order[k]);
      (*errors)[k] = ev_->EvalBase();
    }
    return Status::OK();
  }

  // A DFS over the lattice that shares partial score sums between
  // subsets. The low `split_bits` bits of the mask are enumerated as
  // independent subtrees (parallel work items); within a subtree,
  // extending the subset by one feature is one AccumulateFeature pass, so
  // each of the 2^d leaves costs O(eval_rows × classes).
  Status EvalLattice(const std::vector<uint32_t>& features,
                     std::vector<double>* errors) override {
    const NbSubsetEvaluator& ev = this->ev();
    const uint32_t d = static_cast<uint32_t>(features.size());
    const uint32_t split_bits = ChooseSplitBits(d, num_threads());
    ParallelFor(1u << split_bits, num_threads(), [&](uint32_t prefix) {
      // One score buffer per DFS level, reused across the whole subtree.
      std::vector<std::vector<double>> levels(d - split_bits + 1);
      ev.InitScores(&levels[0]);
      for (uint32_t j = 0; j < split_bits; ++j) {
        if (prefix & (1u << j)) {
          ev.AccumulateFeature(features[j], levels[0], &levels[0]);
        }
      }
      auto rec = [&](auto&& self, uint32_t level, uint32_t bit,
                     uint32_t mask) -> void {
        if (bit == d) {
          obs::ScopedLatency latency(FsCandidateEvalHistogram());
          (*errors)[mask] = ev.ErrorFromScores(levels[level]);
          return;
        }
        self(self, level, bit + 1, mask);  // Exclude features[bit].
        ev.AccumulateFeature(features[bit], levels[level],
                             &levels[level + 1]);
        self(self, level + 1, bit + 1, mask | (1u << bit));
      };
      rec(rec, 0, split_bits, prefix);
    });
    return Status::OK();
  }

  // The const view the parallel evaluations share; the base mutators are
  // not safe to call concurrently, the Eval* methods are.
  const NbSubsetEvaluator& ev() const { return *ev_; }

  std::unique_ptr<NbSubsetEvaluator> ev_;
};

// Trains and scores one fresh model from `factory` on `features`; bound
// to the view, the split and the pre-gathered evaluation labels.
using TrainAndScoreFn = std::function<Result<double>(
    const ClassifierFactory& factory, const std::vector<uint32_t>& features)>;

// The retrain scorer: every batch is a set of independent TrainAndScore
// calls, one per-index slot each, run in parallel. Each candidate model
// gets the statistics the scorer built up front.
class RetrainScorer final : public CandidateScorer {
 public:
  RetrainScorer(const ClassifierFactory& factory,
                TrainAndScoreFn train_and_score, uint32_t num_threads,
                BuildStatsFn build_stats, ScanTableFn scan_table,
                std::shared_ptr<const SuffStats> stats)
      : CandidateScorer(/*delta=*/false, num_threads, std::move(build_stats),
                        std::move(scan_table), std::move(stats)),
        factory_(WithTrainStats(factory)),
        train_and_score_(std::move(train_and_score)) {}

  void UseRefitBudget() override {
    factory_ = [inner = std::move(factory_)] {
      std::unique_ptr<Classifier> model = inner();
      model->UseRefitBudget();
      return model;
    };
  }

 private:
  Result<double> EvalNewBase() override {
    return train_and_score_(factory_, base());
  }

  Status EvalAdditions(const std::vector<uint32_t>& features,
                       std::vector<double>* errors) override {
    return ScoreEach(
        static_cast<uint32_t>(features.size()),
        [&](uint32_t i) {
          std::vector<uint32_t> trial = base();
          trial.push_back(features[i]);
          return trial;
        },
        errors);
  }

  Status EvalRemovals(std::vector<double>* errors) override {
    const std::vector<uint32_t>& s = base();
    const uint32_t m = static_cast<uint32_t>(s.size());
    return ScoreEach(
        m,
        [&](uint32_t i) {
          std::vector<uint32_t> trial;
          trial.reserve(m - 1);
          for (uint32_t k = 0; k < m; ++k) {
            if (k != i) trial.push_back(s[k]);
          }
          return trial;
        },
        errors);
  }

  Status EvalPrefixes(const std::vector<uint32_t>& order,
                      std::vector<double>* errors) override {
    return ScoreEach(
        static_cast<uint32_t>(order.size()),
        [&](uint32_t k) {
          return std::vector<uint32_t>(order.begin(), order.begin() + k + 1);
        },
        errors);
  }

  Status EvalLattice(const std::vector<uint32_t>& features,
                     std::vector<double>* errors) override {
    const uint32_t d = static_cast<uint32_t>(features.size());
    return ScoreEach(
        1u << d,
        [&](uint32_t mask) {
          std::vector<uint32_t> subset;
          for (uint32_t j = 0; j < d; ++j) {
            if (mask & (1u << j)) subset.push_back(features[j]);
          }
          return subset;
        },
        errors);
  }

  // Scores make_subset(i) for every i in [0, count) in parallel, each
  // into its own slot, and returns the first failure in index order.
  template <typename MakeSubset>
  Status ScoreEach(uint32_t count, const MakeSubset& make_subset,
                   std::vector<double>* errors) const {
    std::vector<Status> statuses(count);
    ParallelFor(count, num_threads(), [&](uint32_t i) {
      obs::ScopedLatency latency(FsCandidateEvalHistogram());
      Result<double> err = train_and_score_(factory_, make_subset(i));
      if (err.ok()) {
        (*errors)[i] = *err;
      } else {
        statuses[i] = err.status();
      }
    });
    for (const Status& st : statuses) {
      HAMLET_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  ClassifierFactory factory_;
  TrainAndScoreFn train_and_score_;
};

// What a view contributes to its scorer: the statistics build, the scan
// twin of one feature's table, the per-candidate retrain, and the delta
// evaluator over given statistics.
struct ScorerView {
  CandidateScorer::BuildStatsFn build_stats;
  CandidateScorer::ScanTableFn scan_table;
  TrainAndScoreFn train_and_score;
  std::function<std::unique_ptr<NbSubsetEvaluator>(
      std::shared_ptr<const SuffStats>, double alpha)>
      make_evaluator;
};

// Feature `source`'s contingency table over `rows`, counted in place —
// the integer counts BuildSuffStats would hold for it.
ContingencyTable CountTable(const CodeSource& source, uint32_t cardinality,
                            const std::vector<uint32_t>& labels,
                            uint32_t num_classes,
                            const std::vector<uint32_t>& rows) {
  std::vector<uint64_t> cells(static_cast<size_t>(cardinality) * num_classes,
                              0);
  for (uint32_t r : rows) {
    ++cells[static_cast<size_t>(source(r)) * num_classes + labels[r]];
  }
  return ContingencyTable(std::move(cells), cardinality, num_classes);
}

// The view-independent half of both MakeCandidateScorer overloads. The
// statistics are built up front when the factory's models read them (the
// factory is an opaque std::function, so one probe instance tells), and
// never under force_scan_eval. The delta scorer needs a Naive Bayes
// factory, a non-empty train split, and no force_scan_eval.
std::unique_ptr<CandidateScorer> MakeScorer(const Classifier& probe,
                                            const ClassifierFactory& factory,
                                            const HoldoutSplit& split,
                                            uint32_t num_threads,
                                            bool force_scan_eval,
                                            ScorerView view) {
  if (force_scan_eval) view.build_stats = nullptr;
  std::shared_ptr<const SuffStats> stats;
  if (view.build_stats && !split.train.empty() && probe.ReadsTrainStats()) {
    stats = std::make_shared<const SuffStats>(view.build_stats());
  }
  const auto* nb = dynamic_cast<const NaiveBayes*>(&probe);
  if (nb != nullptr && stats != nullptr) {
    return std::make_unique<DeltaScorer>(
        view.make_evaluator(stats, nb->alpha()), num_threads,
        std::move(view.build_stats), std::move(view.scan_table),
        std::move(stats));
  }
  return std::make_unique<RetrainScorer>(
      factory, std::move(view.train_and_score), num_threads,
      std::move(view.build_stats), std::move(view.scan_table),
      std::move(stats));
}

}  // namespace

std::shared_ptr<const SuffStats> CandidateScorer::TrainStats() {
  if (stats_ == nullptr && build_stats_) {
    stats_ = std::make_shared<const SuffStats>(build_stats_());
  }
  return stats_;
}

ClassifierFactory CandidateScorer::WithTrainStats(
    ClassifierFactory factory) const {
  if (stats_ == nullptr) return factory;
  return [inner = std::move(factory), stats = stats_] {
    std::unique_ptr<Classifier> model = inner();
    model->UseTrainStats(stats);
    return model;
  };
}

Result<double> CandidateScorer::ResetBase(std::vector<uint32_t> subset) {
  base_ = std::move(subset);
  Result<double> err = EvalNewBase();
  Record(1, /*baseline=*/true);
  return err;
}

void CandidateScorer::AddToBase(uint32_t feature) {
  base_.push_back(feature);
  BaseAdded(feature);
}

void CandidateScorer::RemoveFromBase(size_t pos) {
  const uint32_t feature = base_[pos];
  base_.erase(base_.begin() + static_cast<ptrdiff_t>(pos));
  BaseRemoved(feature);
}

Status CandidateScorer::ScoreAdditions(const std::vector<uint32_t>& features,
                                       std::vector<double>* errors) {
  errors->assign(features.size(), 0.0);
  Status st = EvalAdditions(features, errors);
  Record(features.size(), /*baseline=*/false);
  return st;
}

Status CandidateScorer::ScoreRemovals(std::vector<double>* errors) {
  errors->assign(base_.size(), 0.0);
  Status st = EvalRemovals(errors);
  Record(base_.size(), /*baseline=*/false);
  return st;
}

Status CandidateScorer::ScorePrefixes(const std::vector<uint32_t>& order,
                                      std::vector<double>* errors) {
  errors->assign(order.size(), 0.0);
  Status st = EvalPrefixes(order, errors);
  base_ = order;
  Record(order.size(), /*baseline=*/false);
  return st;
}

Status CandidateScorer::ScoreLattice(const std::vector<uint32_t>& features,
                                     std::vector<double>* errors) {
  const uint64_t total = uint64_t{1} << features.size();
  errors->assign(total, 0.0);
  Status st = EvalLattice(features, errors);
  Record(total, /*baseline=*/false);
  return st;
}

void CandidateScorer::Record(uint64_t count, bool baseline) {
  models_trained_ += count;
  FsModelsTrainedCounter().Add(count);
  if (delta_ && !baseline) FsDeltaEvalsCounter().Add(count);
}

Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const EncodedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates, uint32_t num_threads,
    bool force_scan_eval) {
  const std::unique_ptr<Classifier> probe = factory();
  ScorerView view;
  view.build_stats = [&data, &split, num_threads] {
    return BuildSuffStats(data, split.train, num_threads);
  };
  view.scan_table = [&data, &split](uint32_t j) {
    return CountTable(CodeSource::Direct(data.feature(j)),
                      data.meta(j).cardinality, data.labels(),
                      data.num_classes(), split.train);
  };
  view.train_and_score =
      [&data, &split, metric,
       eval_labels = GatherLabels(data, split.validation)](
          const ClassifierFactory& f, const std::vector<uint32_t>& features) {
        return TrainAndScore(f, data, split.train, split.validation,
                             eval_labels, features, metric);
      };
  view.make_evaluator = [&](std::shared_ptr<const SuffStats> stats,
                            double alpha) {
    return std::make_unique<NbSubsetEvaluator>(data, std::move(stats),
                                               split.validation, metric, alpha,
                                               candidates, num_threads);
  };
  return MakeScorer(*probe, factory, split, num_threads, force_scan_eval,
                    std::move(view));
}

Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const FactorizedDataset& data, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates, uint32_t num_threads,
    bool force_scan_eval) {
  const std::unique_ptr<Classifier> probe = factory();
  const bool delta = !force_scan_eval && !split.train.empty() &&
                     dynamic_cast<const NaiveBayes*>(probe.get()) != nullptr;
  if (!delta &&
      dynamic_cast<const FactorizedTrainable*>(probe.get()) == nullptr) {
    return Status::InvalidArgument(StringFormat(
        "factorized selection with %s needs the Naive Bayes "
        "sufficient-statistics path (not under force_scan_eval) or a "
        "factorized-trainable classifier such as decision_tree or gbt: no "
        "scan exists without the materialized join",
        probe->name().c_str()));
  }
  ScorerView view;
  view.build_stats = [&data, &split, num_threads] {
    return BuildFactorizedSuffStats(data, split.train, num_threads);
  };
  view.scan_table = [&data, &split](uint32_t j) {
    return CountTable(data.code_source(j), data.meta(j).cardinality,
                      data.labels(), data.num_classes(), split.train);
  };
  view.train_and_score =
      [&data, &split, metric,
       eval_labels = GatherLabels(data.entity(), split.validation)](
          const ClassifierFactory& f, const std::vector<uint32_t>& features) {
        return TrainAndScoreFactorized(f, data, split.train, split.validation,
                                       eval_labels, features, metric);
      };
  view.make_evaluator = [&](std::shared_ptr<const SuffStats> stats,
                            double alpha) {
    return MakeFactorizedNbEvaluator(data, std::move(stats), split.validation,
                                     metric, alpha, candidates, num_threads);
  };
  return MakeScorer(*probe, factory, split, num_threads, force_scan_eval,
                    std::move(view));
}

Result<double> TrainAndScoreFactorized(const ClassifierFactory& factory,
                                       const FactorizedDataset& data,
                                       const std::vector<uint32_t>& train_rows,
                                       const std::vector<uint32_t>& eval_rows,
                                       const std::vector<uint32_t>& eval_labels,
                                       const std::vector<uint32_t>& features,
                                       ErrorMetric metric) {
  std::unique_ptr<Classifier> model = factory();
  auto* factorized = dynamic_cast<FactorizedTrainable*>(model.get());
  if (factorized == nullptr) {
    return Status::InvalidArgument(
        "TrainAndScoreFactorized requires a classifier implementing "
        "FactorizedTrainable; got " +
        model->name());
  }
  HAMLET_RETURN_NOT_OK(factorized->TrainFactorized(data, train_rows, features));
  std::vector<uint32_t> predicted;
  HAMLET_RETURN_NOT_OK(
      factorized->PredictFactorized(data, eval_rows, &predicted));
  return ComputeError(metric, eval_labels, predicted);
}

}  // namespace hamlet
