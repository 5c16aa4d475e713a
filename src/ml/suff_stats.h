#ifndef HAMLET_ML_SUFF_STATS_H_
#define HAMLET_ML_SUFF_STATS_H_

/// \file suff_stats.h
/// Sufficient statistics for categorical Naive Bayes and the filter
/// scores, factored out of the per-model training loop. One parallel pass
/// over a (dataset, row subset) pair computes the class counts and every
/// per-(feature, value, class) contingency count; after that, training a
/// Naive Bayes model on *any* feature subset — and scoring MI/IGR for any
/// feature — is pure table lookups with zero data scans. This is the
/// factorized-learning observation (Abo Khamis et al.; JoinBoost) applied
/// to the paper's wrapper searches, which train O(d^2) models that all
/// share one train split.
///
/// Determinism contract: counts are integers, so the parallel build is
/// bit-for-bit identical at any thread count, and every model or score
/// derived from the statistics equals its scan-path twin exactly (same
/// counts, same floating-point expressions). The cache can therefore
/// never change a result — only how fast it is computed.
///
/// NbSubsetEvaluator adds the second half of the fast path: it keeps
/// per-row, per-class base log-scores of the current subset on an
/// evaluation split, so scoring candidate S ∪ {f} is one O(rows × classes)
/// delta pass over feature f's log-likelihood column (see
/// docs/PERFORMANCE.md for the summation-order invariants).

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "data/encoded_dataset.h"
#include "stats/metrics.h"

namespace hamlet {

/// Class counts plus per-feature contingency counts of one (dataset, row
/// subset) pair. Feature j's counts are stored flat as
/// [code * num_classes + y], the same layout NaiveBayes and
/// ContingencyTable use.
struct SuffStats {
  uint64_t dataset_id = 0;   ///< EncodedDataset::cache_id() of the source.
  /// 0 when the statistics were built over one materialized
  /// EncodedDataset; the FactorizedDataset remap fingerprint otherwise
  /// (ml/factorized.h), so factorized statistics can never be mistaken
  /// for entity-only ones that share dataset_id.
  uint64_t fingerprint = 0;
  uint32_t num_classes = 0;
  std::vector<uint32_t> rows;               ///< The row subset, as given.
  std::vector<uint64_t> class_counts;       ///< [y], |rows| total.
  std::vector<uint32_t> cardinalities;      ///< Per feature |D_F|.
  /// Per feature: flat [code * num_classes + y] joint counts.
  std::vector<std::vector<uint64_t>> feature_counts;

  uint64_t num_rows() const { return rows.size(); }
};

/// Composite cache identity of one statistics source. Materialized
/// datasets use {cache_id, 0, 0}. The factorized path sets all three
/// components — entity-side cache id, a hash of the attribute-table
/// identities, and the remap fingerprint — so a cached materialized entry
/// can never alias a normalized (S, R) pair even though both key on the
/// same entity dataset.
struct SuffStatsKey {
  uint64_t primary = 0;      ///< Entity-side EncodedDataset::cache_id().
  uint64_t secondary = 0;    ///< Attribute-side identity hash (0 = none).
  uint64_t fingerprint = 0;  ///< FK remap fingerprint (0 = materialized).

  bool operator==(const SuffStatsKey& other) const {
    return primary == other.primary && secondary == other.secondary &&
           fingerprint == other.fingerprint;
  }
};

/// One pass over `rows` of `data`: class counts serially (O(rows)), then
/// per-feature count tables in parallel (one feature per work item), so
/// the result is identical at any thread count.
SuffStats BuildSuffStats(const EncodedDataset& data,
                         const std::vector<uint32_t>& rows,
                         uint32_t num_threads = 0);

/// Process-wide LRU cache of sufficient statistics keyed by
/// (dataset cache_id, row-subset hash), with exact row-vector verification
/// on hit. GetOrBuild is what the feature selection searches and the
/// Monte Carlo inner loop call once per (dataset, train split); Peek is
/// the zero-build lookup NaiveBayes::Train uses so that *any* later
/// training on the same split becomes lookups.
///
/// Observability: builds record the `fs.stats_build_ns` histogram and the
/// `fs.cache_misses` counter; hits (GetOrBuild and Peek alike) bump
/// `fs.cache_hits`.
class SuffStatsCache {
 public:
  static SuffStatsCache& Global();

  /// Returns the cached statistics for (data, rows), building and
  /// inserting them on miss. Returns nullptr while a ScopedSuffStatsBypass
  /// is active (the escape hatch that forces every scan path).
  std::shared_ptr<const SuffStats> GetOrBuild(
      const EncodedDataset& data, const std::vector<uint32_t>& rows,
      uint32_t num_threads = 0);

  /// Returns the cached statistics or nullptr; never builds. nullptr while
  /// bypassed. Matches only materialized entries (secondary and
  /// fingerprint both 0), so a factorized build over the same entity
  /// dataset is never returned here.
  std::shared_ptr<const SuffStats> Peek(
      const EncodedDataset& data, const std::vector<uint32_t>& rows) const;

  /// Keyed variants for sources that are not a single EncodedDataset
  /// (ml/factorized.h). GetOrBuildKeyed calls `build` on miss — outside
  /// the lock — and records the same hit/miss/build-latency probes as
  /// GetOrBuild. Both return nullptr while bypassed.
  std::shared_ptr<const SuffStats> GetOrBuildKeyed(
      const SuffStatsKey& key, const std::vector<uint32_t>& rows,
      const std::function<std::shared_ptr<const SuffStats>()>& build);
  std::shared_ptr<const SuffStats> PeekKeyed(
      const SuffStatsKey& key, const std::vector<uint32_t>& rows) const;

  /// Drops every entry (tests; also frees memory between workloads).
  void Clear();

  /// Maximum retained entries (least-recently-used eviction). Default 16.
  void set_capacity(size_t capacity);

  /// True while a ScopedSuffStatsBypass is alive anywhere in the process.
  static bool Bypassed();

 private:
  SuffStatsCache() = default;

  struct Entry {
    SuffStatsKey key;
    uint64_t rows_hash = 0;
    uint64_t last_used = 0;
    std::shared_ptr<const SuffStats> stats;
  };

  /// Lookup for the hit paths: matches key and row hash under the lock,
  /// then compares the O(|rows|) row vector after releasing it, so
  /// concurrent lookups do not serialize on the compare.
  std::shared_ptr<const SuffStats> Find(
      const SuffStatsKey& key, uint64_t rows_hash,
      const std::vector<uint32_t>& rows) const;
  /// Exact lookup with mu_ held — the insert path's race re-check.
  std::shared_ptr<const SuffStats> FindLocked(
      const SuffStatsKey& key, uint64_t rows_hash,
      const std::vector<uint32_t>& rows) const;

  mutable std::mutex mu_;
  mutable uint64_t tick_ = 0;
  size_t capacity_ = 16;
  mutable std::vector<Entry> entries_;
};

/// RAII test and benchmark facility: while alive (and constructed with
/// enable=true), every SuffStatsCache lookup misses and nothing is
/// cached, so all training and scoring takes the scan paths — the
/// reference the cached-vs-scan equivalence tests compare against.
/// Process-wide and nestable, so no library code opens one:
/// PipelineConfig::force_scan_eval reaches the search through
/// MakeSelector instead.
class ScopedSuffStatsBypass {
 public:
  explicit ScopedSuffStatsBypass(bool enable = true);
  ~ScopedSuffStatsBypass();

  ScopedSuffStatsBypass(const ScopedSuffStatsBypass&) = delete;
  ScopedSuffStatsBypass& operator=(const ScopedSuffStatsBypass&) = delete;

 private:
  bool enabled_;
};

/// Incremental Naive Bayes subset scorer over a fixed evaluation split.
///
/// Construction derives, from the sufficient statistics, the smoothed log
/// priors and one log-likelihood table per candidate feature — the exact
/// doubles NaiveBayes::Train would produce. Scoring then never touches
/// the training rows again:
///
///   - EvalSubset(S): per evaluation row, sum the priors and the tables of
///     S *in subset order* (the invariant that makes results bit-identical
///     to the scan path, which also sums in subset order);
///   - ResetBase/AddToBase/RemoveFromBase maintain per-row base scores of
///     the current subset;
///   - EvalBasePlus(f) / EvalBaseMinus(f) score S ∪ {f} / S \ {f} with a
///     single delta pass, O(eval_rows × classes).
///
/// Const Eval* methods are safe to call concurrently (they share only
/// read-only state plus thread-local scratch); the base mutators are not.
class NbSubsetEvaluator {
 public:
  /// Fills `out` with candidate feature `j`'s code at every evaluation
  /// row, in evaluation-row order. The EncodedDataset constructor gathers
  /// straight from the code columns; the factorized path gathers through
  /// the FK -> R hop (ml/factorized.h). Either way the evaluator's hot
  /// loops read the same codes a materialized gather would produce.
  using CodeGather = std::function<void(uint32_t, std::vector<uint32_t>*)>;

  /// `candidates` limits which features get log-likelihood tables (and
  /// thus may appear in Eval calls). `alpha` is the NB Laplace smoothing
  /// pseudo-count and must match the factory's.
  NbSubsetEvaluator(const EncodedDataset& data,
                    std::shared_ptr<const SuffStats> stats,
                    std::vector<uint32_t> eval_rows, ErrorMetric metric,
                    double alpha, const std::vector<uint32_t>& candidates,
                    uint32_t num_threads = 0);

  /// Core constructor from pre-gathered parts; no dataset needed.
  /// `eval_labels[i]` is the truth label of evaluation row i and
  /// `gather_codes` supplies each candidate's evaluation codes (called
  /// only during construction). The stats and the gather must describe
  /// the same feature space; with identical inputs every Eval result is
  /// bit-identical to the EncodedDataset constructor's.
  NbSubsetEvaluator(std::shared_ptr<const SuffStats> stats,
                    std::vector<uint32_t> eval_labels, ErrorMetric metric,
                    double alpha, const std::vector<uint32_t>& candidates,
                    const CodeGather& gather_codes, uint32_t num_threads = 0);

  /// Error of an arbitrary subset (features summed in the given order).
  double EvalSubset(const std::vector<uint32_t>& features) const;

  /// Recomputes the base scores for `features` from scratch (in order).
  void ResetBase(const std::vector<uint32_t>& features);

  /// base += / -= feature f's log-likelihood column.
  void AddToBase(uint32_t feature);
  void RemoveFromBase(uint32_t feature);

  /// Error of the current base subset.
  double EvalBase() const;

  /// Error of base ∪ {f}: one delta pass, f's contribution summed last —
  /// exactly the scan path's order for forward selection.
  double EvalBasePlus(uint32_t feature) const;

  /// Error of base \ {f} via subtraction. The subtraction re-associates
  /// the floating-point sum, so this matches a scan-path retrain to ~1e-15
  /// per score (not bit-exactly); see docs/PERFORMANCE.md.
  double EvalBaseMinus(uint32_t feature) const;

  /// DFS building blocks for the exhaustive lattice walk: `out` holds
  /// per-row, per-class scores flat as [i * num_classes + c].
  void InitScores(std::vector<double>* out) const;  ///< Priors per row.
  void AccumulateFeature(uint32_t feature, const std::vector<double>& in,
                         std::vector<double>* out) const;  ///< out = in + ll_f.
  double ErrorFromScores(const std::vector<double>& scores) const;

  uint32_t num_eval_rows() const {
    return static_cast<uint32_t>(eval_labels_.size());
  }
  uint32_t num_classes() const { return num_classes_; }

  /// Exposed for the equivalence tests.
  const std::vector<double>& log_priors() const { return log_priors_; }
  const std::vector<double>& feature_log_likelihood(uint32_t feature) const {
    return log_likelihoods_[feature];
  }

 private:
  double ErrorOf(const std::vector<uint32_t>& predicted) const;

  std::shared_ptr<const SuffStats> stats_;
  std::vector<uint32_t> eval_labels_;
  ErrorMetric metric_;
  uint32_t num_classes_ = 0;
  std::vector<double> log_priors_;  // [c]
  /// Indexed by feature id; empty unless the feature was a candidate.
  std::vector<std::vector<double>> log_likelihoods_;
  /// Per candidate feature: its codes at the evaluation rows (same
  /// indexing as log_likelihoods_). Pre-gathering decouples the hot loops
  /// from any dataset object — the factorized path supplies codes through
  /// the FK hop — and the loops read codes sequentially either way.
  std::vector<std::vector<uint32_t>> eval_codes_;
  /// Current base subset scores, flat [i * num_classes + c].
  std::vector<double> base_;
};

}  // namespace hamlet

#endif  // HAMLET_ML_SUFF_STATS_H_
