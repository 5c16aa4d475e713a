#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "ml/factorized.h"
#include "ml/suff_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {

namespace {

obs::Histogram& TreeTrainHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("tree.train_ns");
  return histogram;
}

obs::Counter& TreeTrainsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("tree.trains");
  return counter;
}

obs::Counter& TreeNodesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("tree.nodes");
  return counter;
}

obs::Counter& TreeRowsScannedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("tree.rows_scanned");
  return counter;
}

/// Gini impurity 1 - sum_y p_y^2 of one count vector, accumulated in
/// ascending class order — the pinned expression both training paths use.
double GiniOf(const uint64_t* counts, uint32_t num_classes, uint64_t total) {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  double sum_sq = 0.0;
  for (uint32_t y = 0; y < num_classes; ++y) {
    const double p = static_cast<double>(counts[y]) / n;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// First strictly-greatest class of one node's score row.
uint32_t ArgmaxClass(const double* scores, uint32_t num_classes) {
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes; ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

using RowBuffer = std::unique_ptr<uint32_t[]>;

/// Slots one histogram work item counts together, sharing each row's
/// label load.
constexpr uint32_t kSlotGroup = 8;
/// How far ahead the row passes prefetch: below the root, and for eval
/// rows in any order, consecutive rows are far apart in memory.
constexpr uint32_t kPrefetchRows = 16;
/// Row ids per 64-byte line of a uint32 column.
constexpr uint64_t kLineRows = 16;

/// The root's rows in ascending row id. A tree depends only on the row
/// multiset (every count is order-free), so the order changes no bit but
/// makes every later pass a forward scan. Distinct rows sort through a
/// bitmap over `num_rows`; a repeated row falls back to std::sort so it
/// keeps its multiplicity.
RowBuffer AscendingRows(const std::vector<uint32_t>& rows, uint32_t num_rows) {
  RowBuffer out = std::make_unique_for_overwrite<uint32_t[]>(rows.size());
  std::vector<uint64_t> bits((static_cast<size_t>(num_rows) + 63) / 64, 0);
  bool repeated = false;
  for (uint32_t r : rows) {
    uint64_t& word = bits[r >> 6];
    const uint64_t bit = uint64_t{1} << (r & 63);
    repeated |= (word & bit) != 0;
    word |= bit;
  }
  if (repeated) {
    std::copy(rows.begin(), rows.end(), out.get());
    std::sort(out.get(), out.get() + rows.size());
    return out;
  }
  size_t k = 0;
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      out[k++] = static_cast<uint32_t>(w * 64 + std::countr_zero(word));
    }
  }
  return out;
}

/// One node's pending work. `n` and `cls` always hold; `rows` and `hist`
/// exist only for a node that can split.
struct NodeWork {
  uint64_t n = 0;             // Rows reaching the node.
  std::vector<uint64_t> cls;  // [y].
  uint32_t depth = 0;
  RowBuffer rows;             // Ascending row ids, exactly n of them.
  std::vector<const uint64_t*> hist;          // Per slot, [code * K + y].
  std::vector<std::vector<uint64_t>> owned;  // Backing for hist if built.
};

/// Grows the flat pre-order node arrays. One instance per TrainImpl call;
/// recursion is depth-bounded by max_depth. Every pass reads codes in
/// place through the per-slot CodeSource and labels by row id, so no
/// per-model copy of either exists. A child's size and class counts come
/// from the parent's histogram; a child that cannot split (at max_depth,
/// under min_rows_split, or pure) gets no partition and no histograms.
struct TreeGrower {
  const DecisionTreeOptions& options;
  uint32_t num_classes;
  const uint32_t* labels;                  // Per row id.
  const std::vector<CodeSource>& sources;  // Per trained slot.
  const std::vector<uint32_t>& cards;
  uint32_t max_depth;

  std::vector<int32_t>* split_slot;
  std::vector<uint32_t>* split_code;
  std::vector<int32_t>* left;
  std::vector<int32_t>* right;
  std::vector<double>* scores;

  uint64_t rows_scanned = 0;  // Rows visited by partition/histogram passes.

  uint32_t num_slots() const { return static_cast<uint32_t>(sources.size()); }

  bool CanSplit(const NodeWork& w) const {
    if (w.depth >= max_depth || w.n < options.min_rows_split) return false;
    for (uint32_t y = 0; y < num_classes; ++y) {
      if (w.cls[y] == w.n) return false;  // Pure node.
    }
    return true;
  }

  /// One parallel pass over w's rows. Work item g counts slot group g
  /// (kSlotGroup consecutive slots), each table written by its group only
  /// — the BuildSuffStats sharding contract — so one label load serves
  /// the whole group. Below the root a node's rows are sparse, which
  /// makes every label and code load a cache miss; the loop prefetches
  /// them kPrefetchRows rows ahead.
  void BuildHistograms(NodeWork* w) {
    const uint32_t d = num_slots();
    w->owned.resize(d);
    w->hist.resize(d);
    const uint32_t* rows = w->rows.get();
    const uint64_t n = w->n;
    const uint32_t groups = (d + kSlotGroup - 1) / kSlotGroup;
    // Rows more than a cache line apart on average defeat the hardware
    // prefetcher; closer rows are left to it.
    const bool sparse = n > 0 && rows[n - 1] - rows[0] >= kLineRows * n;
    ParallelFor(groups, options.num_threads, [&](uint32_t g) {
      const uint32_t lo = g * kSlotGroup;
      const uint32_t m = std::min(d - lo, kSlotGroup);
      uint64_t* h[kSlotGroup];
      CodeSource source[kSlotGroup];
      // The distinct row-indexed arrays behind the group, plus the labels.
      const uint32_t* ahead_of[kSlotGroup + 1] = {labels};
      uint32_t num_ahead = sparse ? 1 : 0;
      for (uint32_t k = 0; k < m; ++k) {
        std::vector<uint64_t>& table = w->owned[lo + k];
        table.assign(static_cast<size_t>(cards[lo + k]) * num_classes, 0);
        w->hist[lo + k] = h[k] = table.data();
        source[k] = sources[lo + k];
        const uint32_t* array = source[k].row_indexed();
        if (sparse && std::find(ahead_of, ahead_of + num_ahead, array) ==
                          ahead_of + num_ahead) {
          ahead_of[num_ahead++] = array;
        }
      }
      for (uint64_t i = 0; i < n; ++i) {
        if (i + kPrefetchRows < n) {
          const uint32_t ahead = rows[i + kPrefetchRows];
          for (uint32_t a = 0; a < num_ahead; ++a) {
            __builtin_prefetch(ahead_of[a] + ahead);
          }
        }
        const uint32_t r = rows[i];
        const uint32_t y = labels[r];
        for (uint32_t k = 0; k < m; ++k) {
          ++h[k][static_cast<size_t>(source[k](r)) * num_classes + y];
        }
      }
    });
    rows_scanned += n;
  }

  /// Splits w's rows on `code(slot) == v` into exact-size ascending child
  /// arrays, branch-free; only the children flagged `need_*` are written.
  void Partition(const NodeWork& w, uint32_t slot, uint32_t v, bool need_l,
                 bool need_r, NodeWork* lw, NodeWork* rw) {
    const uint32_t* in = w.rows.get();
    const uint64_t n = w.n;
    const CodeSource& code = sources[slot];
    if (need_l && need_r) {
      lw->rows = std::make_unique_for_overwrite<uint32_t[]>(lw->n);
      rw->rows = std::make_unique_for_overwrite<uint32_t[]>(rw->n);
      uint32_t* lp = lw->rows.get();
      uint32_t* rp = rw->rows.get();
      for (uint64_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        const bool match = code(r) == v;
        *(match ? lp : rp) = r;
        lp += match;
        rp += !match;
      }
    } else {
      // One side only: write every row, advance past the kept ones. The
      // slack slot takes the trailing writes of rejected rows.
      NodeWork* out = need_l ? lw : rw;
      out->rows = std::make_unique_for_overwrite<uint32_t[]>(out->n + 1);
      uint32_t* p = out->rows.get();
      for (uint64_t i = 0; i < n; ++i) {
        const uint32_t r = in[i];
        *p = r;
        p += (code(r) == v) == need_l;
      }
    }
    rows_scanned += n;
  }

  int32_t Grow(NodeWork w) {
    const int32_t idx = static_cast<int32_t>(split_slot->size());
    split_slot->push_back(-1);
    split_code->push_back(0);
    left->push_back(-1);
    right->push_back(-1);

    // Every node carries smoothed class log-probabilities — the same
    // expression as the Naive Bayes prior, so a depth-0 tree IS the
    // prior-only model.
    const uint64_t n_node = w.n;
    const double denom = static_cast<double>(n_node) +
                         options.alpha * static_cast<double>(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      scores->push_back(std::log(
          (static_cast<double>(w.cls[y]) + options.alpha) / denom));
    }
    if (!CanSplit(w)) return idx;

    // Best split per slot in parallel (codes ascending, strictly-greater
    // gain wins), then a serial slot-ordered reduction so the lowest slot
    // wins exact cross-feature ties at any thread count.
    const uint32_t d = num_slots();
    struct SlotBest {
      double gain = 0.0;
      uint32_t code = 0;
      bool valid = false;
    };
    std::vector<SlotBest> best(d);
    const double parent_gini = GiniOf(w.cls.data(), num_classes, n_node);
    const double n_d = static_cast<double>(n_node);
    ParallelFor(d, options.num_threads, [&](uint32_t jj) {
      const uint64_t* h = w.hist[jj];
      std::vector<uint64_t> l(num_classes), r(num_classes);
      SlotBest b;
      for (uint32_t v = 0; v < cards[jj]; ++v) {
        uint64_t nl = 0;
        for (uint32_t y = 0; y < num_classes; ++y) {
          l[y] = h[static_cast<size_t>(v) * num_classes + y];
          nl += l[y];
        }
        if (nl == 0 || nl == n_node) continue;
        for (uint32_t y = 0; y < num_classes; ++y) r[y] = w.cls[y] - l[y];
        const uint64_t nr = n_node - nl;
        const double weighted =
            (static_cast<double>(nl) / n_d) * GiniOf(l.data(), num_classes, nl) +
            (static_cast<double>(nr) / n_d) * GiniOf(r.data(), num_classes, nr);
        const double gain = parent_gini - weighted;
        if (!b.valid || gain > b.gain) b = {gain, v, true};
      }
      best[jj] = b;
    });
    int32_t pick = -1;
    double pick_gain = options.min_gain;
    for (uint32_t jj = 0; jj < d; ++jj) {
      if (best[jj].valid && best[jj].gain > pick_gain) {
        pick = static_cast<int32_t>(jj);
        pick_gain = best[jj].gain;
      }
    }
    if (pick < 0) return idx;
    const uint32_t v = best[pick].code;

    // Child sizes and class counts straight from the parent histogram
    // (left = code match).
    NodeWork lw, rw;
    lw.depth = rw.depth = w.depth + 1;
    lw.cls.resize(num_classes);
    rw.cls.resize(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      lw.cls[y] = w.hist[pick][static_cast<size_t>(v) * num_classes + y];
      rw.cls[y] = w.cls[y] - lw.cls[y];
      lw.n += lw.cls[y];
    }
    rw.n = n_node - lw.n;

    const bool l_splits = CanSplit(lw);
    const bool r_splits = CanSplit(rw);
    if (l_splits || r_splits) {
      // Subtraction trick: build the smaller child's histograms with one
      // parallel pass; the bigger child, if it splits, gets the parent's
      // minus those (exact — integer counts), reusing the parent's tables
      // in place when it owns them.
      NodeWork* small = lw.n <= rw.n ? &lw : &rw;
      NodeWork* big = small == &lw ? &rw : &lw;
      const bool small_splits = small == &lw ? l_splits : r_splits;
      const bool big_splits = big == &lw ? l_splits : r_splits;
      Partition(w, static_cast<uint32_t>(pick), v, small == &lw || l_splits,
                small == &rw || r_splits, &lw, &rw);
      w.rows.reset();
      BuildHistograms(small);
      if (big_splits) {
        big->owned.resize(d);
        big->hist.resize(d);
        const bool parent_owns = !w.owned.empty();
        ParallelFor(d, options.num_threads, [&](uint32_t jj) {
          const uint64_t* ph = w.hist[jj];
          const uint64_t* sh = small->hist[jj];
          std::vector<uint64_t>& bh = big->owned[jj];
          if (parent_owns) {
            bh = std::move(w.owned[jj]);
          } else {
            bh.resize(static_cast<size_t>(cards[jj]) * num_classes);
          }
          for (size_t x = 0; x < bh.size(); ++x) bh[x] = ph[x] - sh[x];
          big->hist[jj] = bh.data();
        });
      }
      if (!small_splits) {
        small->rows.reset();
        small->owned = {};
        small->hist = {};
      }
    }
    w = NodeWork();  // Release the parent's rows and tables before recursing.

    const int32_t lidx = Grow(std::move(lw));
    const int32_t ridx = Grow(std::move(rw));
    (*split_slot)[idx] = pick;
    (*split_code)[idx] = v;
    (*left)[idx] = lidx;
    (*right)[idx] = ridx;
    return idx;
  }
};

/// True when statistics of the training rows can seed the root
/// histograms: same class count and at least as many feature tables as
/// the dataset, each trained slot's table covering its training-time
/// cardinality.
bool RootStatsUsable(const SuffStats& stats, uint32_t num_classes,
                     const std::vector<uint32_t>& features,
                     const std::vector<uint32_t>& cards) {
  if (stats.num_classes != num_classes) return false;
  for (size_t jj = 0; jj < features.size(); ++jj) {
    if (features[jj] >= stats.feature_counts.size()) return false;
    if (stats.cardinalities[features[jj]] != cards[jj]) return false;
  }
  return true;
}

/// Input checks shared by both training views.
template <typename Data>
Status CheckTrainInputs(const Data& data, const std::vector<uint32_t>& rows,
                        const std::vector<uint32_t>& features) {
  if (data.num_classes() == 0) {
    return Status::InvalidArgument("dataset has zero classes");
  }
  for (uint32_t j : features) {
    if (j >= data.num_features()) {
      return Status::InvalidArgument(
          StringFormat("feature index %u out of range (%u features)", j,
                       data.num_features()));
    }
  }
  // A max reduction vectorizes; the offending row is looked up only on
  // failure.
  const auto out_of_range = [&](uint32_t r) { return r >= data.num_rows(); };
  if (!rows.empty() &&
      out_of_range(*std::max_element(rows.begin(), rows.end()))) {
    const uint32_t r = *std::find_if(rows.begin(), rows.end(), out_of_range);
    return Status::InvalidArgument(StringFormat(
        "row index %u out of range (%u rows)", r, data.num_rows()));
  }
  return Status::OK();
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {
  HAMLET_CHECK(options_.alpha > 0.0,
               "DecisionTree alpha must be positive, got %f", options_.alpha);
}

Status DecisionTree::Train(const EncodedDataset& data,
                           const std::vector<uint32_t>& rows,
                           const std::vector<uint32_t>& features) {
  obs::ScopedLatency latency(TreeTrainHistogram());
  HAMLET_RETURN_NOT_OK(CheckTrainInputs(data, rows, features));
  std::vector<CodeSource> sources;
  sources.reserve(features.size());
  for (uint32_t j : features) {
    sources.push_back(CodeSource::Direct(data.feature(j)));
  }
  SetTrainedSlots(data.metas(), features);
  return TrainImpl(data.num_classes(), data.labels(), data.num_rows(), rows,
                   sources, data.cache_id(), 0);
}

Status DecisionTree::TrainFactorized(const FactorizedDataset& data,
                                     const std::vector<uint32_t>& rows,
                                     const std::vector<uint32_t>& features) {
  obs::ScopedLatency latency(TreeTrainHistogram());
  HAMLET_RETURN_NOT_OK(CheckTrainInputs(data, rows, features));
  // Foreign slots read R's column through the FK -> R hop per row; each
  // code equals the materialized join's, so every histogram below is
  // bit-identical to the materialized path's.
  std::vector<CodeSource> sources;
  sources.reserve(features.size());
  for (uint32_t j : features) sources.push_back(data.code_source(j));
  SetTrainedSlots(data.metas(), features);
  return TrainImpl(data.num_classes(), data.labels(), data.num_rows(), rows,
                   sources, data.entity().cache_id(), data.fingerprint());
}

void DecisionTree::SetTrainedSlots(const std::vector<FeatureMeta>& metas,
                                   const std::vector<uint32_t>& features) {
  features_ = features;
  cardinalities_.clear();
  cardinalities_.reserve(features_.size());
  for (uint32_t j : features_) cardinalities_.push_back(metas[j].cardinality);
}

Status DecisionTree::TrainImpl(uint32_t num_classes,
                               const std::vector<uint32_t>& labels,
                               uint32_t num_rows,
                               const std::vector<uint32_t>& rows,
                               const std::vector<CodeSource>& sources,
                               uint64_t stats_id,
                               uint64_t stats_fingerprint) {
  num_classes_ = num_classes;
  split_slot_.clear();
  split_code_.clear();
  left_.clear();
  right_.clear();
  scores_.clear();

  uint32_t max_depth = options_.max_depth;
  if (refit_budget_) {
    max_depth = std::min(max_depth, options_.candidate_max_depth);
  }

  TreeGrower grower{options_,     num_classes,    labels.data(),
                    sources,      cardinalities_, max_depth,
                    &split_slot_, &split_code_,   &left_,
                    &right_,      &scores_};

  const SuffStats* stats = train_stats_.get();
  const SuffStats* root_stats =
      stats != nullptr && stats->Describes(stats_id, stats_fingerprint, rows) &&
              RootStatsUsable(*stats, num_classes, features_, cardinalities_)
          ? stats
          : nullptr;
  NodeWork root;
  root.n = rows.size();
  if (root_stats != nullptr) {
    root.cls = root_stats->class_counts;
  } else {
    root.cls.assign(num_classes, 0);
    for (uint32_t r : rows) ++root.cls[labels[r]];
  }
  if (grower.CanSplit(root)) {
    root.rows = AscendingRows(rows, num_rows);
    if (root_stats != nullptr) {
      root.hist.resize(features_.size());
      for (size_t jj = 0; jj < features_.size(); ++jj) {
        root.hist[jj] = root_stats->feature_counts[features_[jj]].data();
      }
    } else {
      grower.BuildHistograms(&root);
    }
  }
  grower.Grow(std::move(root));

  TreeTrainsCounter().Add(1);
  TreeNodesCounter().Add(num_nodes());
  TreeRowsScannedCounter().Add(grower.rows_scanned);
  return Status::OK();
}

template <typename SourceOf>
int32_t DecisionTree::LeafOf(const SourceOf& source_of, uint32_t row) const {
  int32_t node = 0;
  for (int32_t slot; (slot = split_slot_[node]) >= 0;) {
    // A branch on the test would mispredict on about half the rows, so
    // the step selects the child arithmetically.
    const int32_t match =
        source_of(static_cast<uint32_t>(slot))(row) == split_code_[node];
    node = right_[node] + ((left_[node] - right_[node]) & -match);
  }
  return node;
}

void DecisionTree::PredictRows(const std::vector<CodeSource>& sources,
                               const std::vector<uint32_t>& rows,
                               std::vector<uint32_t>* out) const {
  // Each node's class once per call, not once per row.
  std::vector<uint32_t> node_class(num_nodes());
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    node_class[node] = ArgmaxClass(
        &scores_[static_cast<size_t>(node) * num_classes_], num_classes_);
  }
  // The distinct row-indexed arrays the splits read (one FK column serves
  // every foreign slot behind it). Rows arrive in any order, so each walk
  // would miss on them; the loop prefetches them kPrefetchRows rows ahead.
  std::vector<const uint32_t*> row_indexed;
  for (int32_t slot : split_slot_) {
    if (slot < 0) continue;
    const uint32_t* array = sources[slot].row_indexed();
    if (std::find(row_indexed.begin(), row_indexed.end(), array) ==
        row_indexed.end()) {
      row_indexed.push_back(array);
    }
  }
  const auto source_of = [&sources](uint32_t slot) -> const CodeSource& {
    return sources[slot];
  };
  const uint32_t n = static_cast<uint32_t>(rows.size());
  out->resize(n);
  ParallelFor(n, options_.num_threads, [&](uint32_t i) {
    if (i + kPrefetchRows < n) {
      const uint32_t ahead = rows[i + kPrefetchRows];
      for (const uint32_t* array : row_indexed) __builtin_prefetch(array + ahead);
    }
    (*out)[i] = node_class[LeafOf(source_of, rows[i])];
  });
}

uint32_t DecisionTree::PredictOne(const EncodedDataset& data,
                                  uint32_t row) const {
  HAMLET_CHECK(num_nodes() > 0, "DecisionTree::PredictOne before Train");
  const int32_t node = LeafOf(
      [&](uint32_t slot) {
        return CodeSource::Direct(data.feature(features_[slot]));
      },
      row);
  return ArgmaxClass(&scores_[static_cast<size_t>(node) * num_classes_],
                     num_classes_);
}

std::vector<uint32_t> DecisionTree::Predict(
    const EncodedDataset& data, const std::vector<uint32_t>& rows) const {
  HAMLET_CHECK(num_nodes() > 0 || rows.empty(),
               "DecisionTree::Predict before Train");
  std::vector<CodeSource> sources;
  sources.reserve(features_.size());
  for (uint32_t j : features_) {
    sources.push_back(CodeSource::Direct(data.feature(j)));
  }
  std::vector<uint32_t> out;
  PredictRows(sources, rows, &out);
  return out;
}

Status DecisionTree::PredictFactorized(const FactorizedDataset& data,
                                       const std::vector<uint32_t>& rows,
                                       std::vector<uint32_t>* out) const {
  if (num_nodes() == 0) {
    return Status::FailedPrecondition(
        "DecisionTree::PredictFactorized before Train");
  }
  for (uint32_t j : features_) {
    if (j >= data.num_features()) {
      return Status::InvalidArgument(StringFormat(
          "trained feature index %u out of range (%u features)", j,
          data.num_features()));
    }
  }
  std::vector<CodeSource> sources;
  sources.reserve(features_.size());
  for (uint32_t j : features_) sources.push_back(data.code_source(j));
  PredictRows(sources, rows, out);
  return Status::OK();
}

void DecisionTree::LogScoresInto(const EncodedDataset& data, uint32_t row,
                                 std::vector<double>* out) const {
  HAMLET_CHECK(num_nodes() > 0, "DecisionTree::LogScoresInto before Train");
  const int32_t node = LeafOf(
      [&](uint32_t slot) {
        return CodeSource::Direct(data.feature(features_[slot]));
      },
      row);
  const double* s = &scores_[static_cast<size_t>(node) * num_classes_];
  out->assign(s, s + num_classes_);
}

uint32_t DecisionTree::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < cardinalities_.size(),
               "trained_cardinality slot out of range");
  return cardinalities_[jj];
}

DecisionTreeParams DecisionTree::ExportParams() const {
  DecisionTreeParams params;
  params.alpha = options_.alpha;
  params.num_classes = num_classes_;
  params.features = features_;
  params.cardinalities = cardinalities_;
  params.split_slot = split_slot_;
  params.split_code = split_code_;
  params.left = left_;
  params.right = right_;
  params.scores = scores_;
  return params;
}

Result<DecisionTree> DecisionTree::FromParams(DecisionTreeParams params) {
  if (params.alpha <= 0.0) {
    return Status::InvalidArgument("DecisionTree params: alpha must be > 0");
  }
  if (params.num_classes == 0) {
    return Status::InvalidArgument("DecisionTree params: zero classes");
  }
  if (params.features.size() != params.cardinalities.size()) {
    return Status::InvalidArgument(
        "DecisionTree params: features/cardinalities size mismatch");
  }
  HAMLET_RETURN_NOT_OK(ValidateTreeStructure(
      params.split_slot, params.split_code, params.left, params.right,
      params.features.size(), params.cardinalities, "DecisionTree params"));
  if (params.scores.size() !=
      params.split_slot.size() * params.num_classes) {
    return Status::InvalidArgument(
        "DecisionTree params: scores size does not match nodes * classes");
  }

  DecisionTreeOptions options;
  options.alpha = params.alpha;
  DecisionTree model(options);
  model.num_classes_ = params.num_classes;
  model.features_ = std::move(params.features);
  model.cardinalities_ = std::move(params.cardinalities);
  model.split_slot_ = std::move(params.split_slot);
  model.split_code_ = std::move(params.split_code);
  model.left_ = std::move(params.left);
  model.right_ = std::move(params.right);
  model.scores_ = std::move(params.scores);
  return model;
}

ClassifierFactory MakeDecisionTreeFactory(DecisionTreeOptions options) {
  return [options]() { return std::make_unique<DecisionTree>(options); };
}

Status ValidateTreeStructure(const std::vector<int32_t>& split_slot,
                             const std::vector<uint32_t>& split_code,
                             const std::vector<int32_t>& left,
                             const std::vector<int32_t>& right,
                             size_t num_slots,
                             const std::vector<uint32_t>& cardinalities,
                             const char* context) {
  const size_t n = split_slot.size();
  if (n == 0 || split_code.size() != n || left.size() != n ||
      right.size() != n) {
    return Status::InvalidArgument(
        StringFormat("%s: inconsistent node arrays", context));
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t slot = split_slot[i];
    if (slot < 0) {
      if (left[i] != -1 || right[i] != -1) {
        return Status::InvalidArgument(
            StringFormat("%s: leaf with children", context));
      }
      continue;
    }
    if (static_cast<size_t>(slot) >= num_slots) {
      return Status::InvalidArgument(
          StringFormat("%s: split slot out of range", context));
    }
    if (split_code[i] >= cardinalities[slot]) {
      return Status::InvalidArgument(
          StringFormat("%s: split code outside the slot's domain", context));
    }
    const int32_t l = left[i], r = right[i];
    if (l <= static_cast<int32_t>(i) || r <= static_cast<int32_t>(i) ||
        static_cast<size_t>(l) >= n || static_cast<size_t>(r) >= n ||
        l == r) {
      return Status::InvalidArgument(
          StringFormat("%s: child index out of range", context));
    }
  }
  // Reachability: pre-order flat storage means every node must be reached
  // exactly once from the root. Catches both dangling and shared nodes.
  std::vector<uint8_t> visited(n, 0);
  std::vector<int32_t> stack = {0};
  size_t count = 0;
  while (!stack.empty()) {
    const int32_t node = stack.back();
    stack.pop_back();
    if (visited[node]) {
      return Status::InvalidArgument(
          StringFormat("%s: node reachable twice", context));
    }
    visited[node] = 1;
    ++count;
    if (split_slot[node] >= 0) {
      stack.push_back(right[node]);
      stack.push_back(left[node]);
    }
  }
  if (count != n) {
    return Status::InvalidArgument(
        StringFormat("%s: unreachable nodes", context));
  }
  return Status::OK();
}

}  // namespace hamlet
