// Self-test for the benchmark's statistics helpers (stats.h). Prints one
// line per failed check and exits nonzero if any failed.
//
//   python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // p99 of 1..n is rank ceil(0.99 n); it is reportable only when at
  // least ten samples rank above it.
  Check(!perfbench::Percentile(Iota(999), 0.99).has_value(),
        "p99 of 999 samples has only 9 beyond it");
  const std::optional<double> p99 = perfbench::Percentile(Iota(1000), 0.99);
  Check(p99.has_value() && Near(*p99, 990.0),
        "p99 of 1..1000 is 990 with 10 beyond it");
  Check(!perfbench::Percentile(Iota(19), 0.5).has_value(),
        "median of 19 samples has only 9 beyond it");
  const std::optional<double> p50 = perfbench::Percentile(Iota(20), 0.5);
  Check(p50.has_value() && Near(*p50, 10.0), "median of 1..20 is 10");
  Check(!perfbench::Percentile({}, 0.5).has_value(), "empty has no median");
  Check(!perfbench::Percentile(Iota(100), 1.0).has_value(),
        "the maximum never has samples beyond it");
}

void TestQuartilesMatchPython() {
  // Expected values from Python's statistics.quantiles(values, n=4).
  struct Case {
    std::vector<double> values;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{1, 2, 3, 4, 5}, 1.5, 3.0, 4.5},
      {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
      {{10.5, 0.25, 7, 7, 7, 1000.0, 2}, 2.0, 7.0, 10.5},
  };
  for (const Case& c : cases) {
    const auto q = perfbench::Quartiles(c.values);
    Check(q.has_value() && Near((*q)[0], c.q1) && Near((*q)[1], c.q2) &&
              Near((*q)[2], c.q3),
          "quartiles equal Python's statistics.quantiles(n=4)");
  }
  Check(!perfbench::Quartiles({42.0}).has_value(),
        "quartiles need two values");
  Check(Near(perfbench::Median({5, 1, 3}), 3.0), "odd median");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "even median");
}

perfbench::LadderStep Step(uint64_t served, double latency_us) {
  perfbench::LadderStep step;
  step.accounting.offered = served;
  step.accounting.served = served;
  step.latency_us.assign(served, latency_us);
  step.scheduled = served;
  return step;
}

void TestLadderRule() {
  const double slo = 500.0;
  Check(perfbench::LadderStepPasses(Step(2000, 100.0), slo),
        "fast step with enough samples passes");
  Check(!perfbench::LadderStepPasses(Step(2000, 600.0), slo),
        "slow step fails");
  Check(!perfbench::LadderStepPasses(Step(500, 100.0), slo),
        "step whose p99 has fewer than ten samples beyond fails");

  // Failed requests count as misses: 1.5% failures push the p99 past
  // any finite SLO even though every served request was fast.
  perfbench::LadderStep failing = Step(2000, 100.0);
  failing.accounting.offered += 30;
  failing.accounting.failed = 30;
  failing.scheduled = failing.accounting.offered;
  Check(!perfbench::LadderStepPasses(failing, slo),
        "failures count as SLO misses");
  // 0.5% failures stay under the p99.
  perfbench::LadderStep few = Step(2000, 100.0);
  few.accounting.offered += 10;
  few.accounting.shed = 10;
  few.scheduled = few.accounting.offered;
  Check(perfbench::LadderStepPasses(few, slo),
        "0.5% misses leave the p99 within the SLO");
  // A wrong answer is a miss too.
  perfbench::LadderStep wrong = Step(2000, 100.0);
  wrong.accounting.wrong = 30;
  wrong.latency_us.resize(2000 - 30);
  Check(!perfbench::LadderStepPasses(wrong, slo),
        "wrong answers count as SLO misses");

  perfbench::LadderStep backlog = Step(2000, 100.0);
  backlog.scheduled = 2100;
  backlog.unsent_due = 100;
  Check(!perfbench::LadderStepPasses(backlog, slo),
        "a growing backlog fails the step");

  // Bisection finds the boundary of a monotone ladder.
  int steps = 0;
  const int best = perfbench::HighestPassingRung(40, [&](int rung) {
    ++steps;
    return rung <= 17;
  });
  Check(best == 17, "bisection finds the highest passing rung");
  Check(steps <= 6, "bisection takes log2(rungs) steps");
  Check(perfbench::HighestPassingRung(8, [](int) { return false; }) == -1,
        "no passing rung gives -1");
  Check(perfbench::HighestPassingRung(8, [](int) { return true; }) == 7,
        "all passing gives the top rung");
}

void TestAccountingIdentity() {
  perfbench::Accounting a;
  a.offered = 10;
  a.served = 6;
  a.shed = 2;
  a.expired = 1;
  a.failed = 1;
  Check(perfbench::AccountingHolds(a), "6+2+1+1 == 10");
  a.failed = 0;
  Check(!perfbench::AccountingHolds(a), "a lost request breaks the identity");
  a.failed = 1;
  a.wrong = 7;
  Check(!perfbench::AccountingHolds(a), "more wrong than served is invalid");
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestQuartilesMatchPython();
  TestLadderRule();
  TestAccountingIdentity();
  if (g_failures == 0) std::printf("stats self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
