#ifndef HAMLET_ML_CLASSIFIER_H_
#define HAMLET_ML_CLASSIFIER_H_

/// \file classifier.h
/// The classifier abstraction shared by feature selection, the simulation
/// study, and the end-to-end experiments. Training is expressed over
/// (dataset, row subset, feature subset) so wrapper methods can re-train
/// on many subsets without copying data.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoded_dataset.h"

namespace hamlet {

struct SuffStats;

/// A trainable multi-class classifier over categorical features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model on `data` restricted to `rows`, using only the feature
  /// indices in `features` (possibly empty: a prior-only model).
  virtual Status Train(const EncodedDataset& data,
                       const std::vector<uint32_t>& rows,
                       const std::vector<uint32_t>& features) = 0;

  /// Predicted class code for one row of `data` (which must share the
  /// feature layout of the training dataset).
  virtual uint32_t PredictOne(const EncodedDataset& data,
                              uint32_t row) const = 0;

  /// Predictions for many rows; the default loops over PredictOne.
  virtual std::vector<uint32_t> Predict(
      const EncodedDataset& data, const std::vector<uint32_t>& rows) const;

  /// Human-readable model name ("naive_bayes", ...).
  virtual std::string name() const = 0;

  /// Caps this model at its cheap-refit budget for every later Train. The
  /// greedy wrapper searches call it on each candidate model, so an
  /// O(d^2) search does not pay for d^2 full-capacity fits; the final fit
  /// is a fresh model at full strength. A no-op by default; DecisionTree
  /// and Gbt override it. It affects this model only.
  virtual void UseRefitBudget() {}

  /// True when this model trains faster from sufficient statistics
  /// (UseTrainStats); owners build statistics only when some model or
  /// score they run reads them. False by default; NaiveBayes and
  /// DecisionTree override it.
  virtual bool ReadsTrainStats() const { return false; }

  /// Hands this model the sufficient statistics of its train split, built
  /// once by the caller that owns the split (the feature-selection
  /// scorer, the Monte Carlo draw). A later Train uses them only when
  /// their identity and row vector match the call
  /// (SuffStats::Describes); otherwise, or with nullptr, it counts from
  /// the codes. The model is bit-identical either way. A no-op unless
  /// ReadsTrainStats(); it affects this model only.
  virtual void UseTrainStats(std::shared_ptr<const SuffStats> /*stats*/) {}
};

/// Creates fresh classifier instances; wrappers re-train one model per
/// candidate subset.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

class FactorizedDataset;

/// Optional capability: classifiers that can also train and predict over
/// the normalized (S, R) view (ml/factorized.h) without materializing the
/// join. The fs searches and the analytics pipeline probe a factory's
/// product for this via dynamic_cast — the same probe pattern the Naive
/// Bayes fast path uses — and route avoid-materialization runs through
/// it. Contract: with the same underlying tables, TrainFactorized must
/// produce a model bit-identical to Train on the materialized join, and
/// PredictFactorized must return the materialized Predict's output.
class FactorizedTrainable {
 public:
  virtual ~FactorizedTrainable() = default;

  /// Factorized twin of Classifier::Train over the normalized view.
  virtual Status TrainFactorized(const FactorizedDataset& data,
                                 const std::vector<uint32_t>& rows,
                                 const std::vector<uint32_t>& features) = 0;

  /// Predictions at `rows` of the factorized view; equal to Predict on
  /// the materialized join at the same rows.
  virtual Status PredictFactorized(const FactorizedDataset& data,
                                   const std::vector<uint32_t>& rows,
                                   std::vector<uint32_t>* out) const = 0;
};

}  // namespace hamlet

#endif  // HAMLET_ML_CLASSIFIER_H_
