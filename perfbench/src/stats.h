#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// The benchmark's statistics helpers: rank percentiles that refuse to
/// answer from too few samples, Python-compatible quartiles, the
/// rate-ladder pass rule and the request accounting identity. Header-only
/// so the self-test links nothing but this file.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` (in [0, 1]) of `sorted` (ascending), or
/// nullopt when fewer than kMinSamplesBeyond samples rank above it: a
/// p99 needs at least 1000 samples, a median at least 20.
inline std::optional<double> Percentile(const std::vector<double>& sorted,
                                        double p) {
  const size_t n = sorted.size();
  if (n == 0 || p < 0.0 || p > 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// The middle value (mean of the two middle values for even counts);
/// NaN for no samples. For repeated whole-pass timings, where there are
/// a handful of samples and no tail to speak of.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Quartiles {Q1, Q2, Q3} by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones computed over result files.
/// Needs at least two values; returns nullopt otherwise.
inline std::optional<std::vector<double>> Quartiles(
    std::vector<double> values) {
  const long ld = static_cast<long>(values.size());
  if (ld < 2) return std::nullopt;
  std::sort(values.begin(), values.end());
  constexpr long kN = 4;
  const long m = ld + 1;
  std::vector<double> result;
  for (long i = 1; i < kN; ++i) {
    long j = i * m / kN;
    j = std::clamp<long>(j, 1, ld - 1);
    const long delta = i * m - j * kN;
    result.push_back((values[j - 1] * static_cast<double>(kN - delta) +
                      values[j] * static_cast<double>(delta)) /
                     static_cast<double>(kN));
  }
  return result;
}

/// Where every request of a load window went. Counted by the sender;
/// a served request whose predictions were wrong is also `wrong`.
struct Accounting {
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

/// served + shed + expired + failed == offered, and no more wrong
/// answers than served ones.
inline bool AccountingHolds(const Accounting& a) {
  return a.served + a.shed + a.expired + a.failed == a.offered &&
         a.wrong <= a.served;
}

/// One step of the rate ladder, as the senders saw it.
struct LadderStep {
  Accounting accounting;
  /// Latency of each served, correct request, from its scheduled send
  /// time to its response (microseconds, any order).
  std::vector<double> latency_us;
  /// Requests due inside the window that the senders never sent.
  uint64_t unsent_due = 0;
  /// Requests due inside the window.
  uint64_t scheduled = 0;
};

/// The ladder's pass rule. Every request that was not served correctly
/// (shed, expired, failed or wrong) counts as a miss, i.e. as an
/// infinite latency, so the p99 is taken over everything offered. The
/// step passes when that p99 is reportable (kMinSamplesBeyond samples
/// above it), within `slo_us`, the accounting identity holds, and the
/// backlog did not grow: at most 1% of the scheduled requests were left
/// unsent when the window closed.
inline bool LadderStepPasses(const LadderStep& step, double slo_us) {
  if (!AccountingHolds(step.accounting)) return false;
  if (step.accounting.offered == 0) return false;
  if (static_cast<double>(step.unsent_due) >
      0.01 * static_cast<double>(step.scheduled)) {
    return false;
  }
  std::vector<double> all = step.latency_us;
  const uint64_t misses = step.accounting.offered - all.size();
  all.insert(all.end(), misses, std::numeric_limits<double>::infinity());
  std::sort(all.begin(), all.end());
  const std::optional<double> p99 = Percentile(all, 0.99);
  return p99.has_value() && *p99 <= slo_us;
}

/// Index of the highest passing rung, found by bisection over a ladder
/// whose pass/fail outcome is assumed monotone in the rate; -1 when even
/// rung 0 fails. `passes(rung)` runs one step.
template <typename PassFn>
int HighestPassingRung(int num_rungs, PassFn&& passes) {
  int lo = -1;            // Highest rung known to pass.
  int hi = num_rungs;     // Lowest rung known to fail.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
