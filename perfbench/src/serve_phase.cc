#include "serve_phase.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

namespace perfbench {

using hamlet::Result;
using hamlet::serve::ArtifactStore;

namespace {

/// The rate ladder: rung k offers kLadderBase * kLadderGrowth^k
/// requests/s.
constexpr double kLadderBase = 5000;
constexpr double kLadderGrowth = 1.05;
constexpr int kLadderRungs = 80;
constexpr uint32_t kBlockRows = 16;
constexpr uint32_t kVersionsPerModel = 64;
/// Publishes sender 0 spreads evenly over the fixed-rate window, each a
/// new version of the first model: enough for a median with ten beyond.
constexpr int kPublishesPerWindow = 40;

Result<uint32_t> Publish(ServeInputs* in, size_t model) {
  return in->kinds[model] == ModelKind::kNaiveBayes
             ? in->store->PutNaiveBayes(in->names[model], in->nb)
             : in->store->PutDecisionTree(in->names[model], in->tree);
}

/// Sleeps until shortly before `due`, then yields until it arrives.
void WaitUntil(double due) {
  for (;;) {
    const double left = due - NowSeconds();
    if (left <= 0) return;
    if (left > 200e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(left - 100e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

/// One open-loop window as all senders saw it.
struct Window {
  LadderStep step;
  std::vector<double> late_us;     // Send time minus scheduled time.
  std::vector<double> publish_ms;  // Publishes made during the window.
  uint64_t batch_requests_sum = 0;
};

/// Offers `rate` requests/s for `seconds` from `senders` threads. Request
/// k is due at t0 + k / rate and belongs to sender k % senders, which
/// sends it once it is due and its previous request has returned. When
/// the window closes, requests still unsent count as backlog.
Window RunWindow(hamlet::serve::HamletService* service, ServeInputs* in,
                 uint32_t senders, double rate, double seconds,
                 double publish_period_s, Checks* checks) {
  struct Sender {
    Window w;
    uint64_t publish_failures = 0;
  };
  std::vector<Sender> results(senders);
  const double t0 = NowSeconds() + 1e-3;
  const double t_end = t0 + seconds;
  const double total_due = seconds * rate;
  const size_t num_models = in->names.size();
  const size_t num_blocks = in->blocks.size();
  {
    std::vector<std::thread> threads;
    for (uint32_t s = 0; s < senders; ++s) {
      threads.emplace_back([&, s] {
        Window& w = results[s].w;
        // Requests of this sender due inside the window.
        const double mine = std::ceil((total_due - s) / senders);
        const uint64_t scheduled =
            mine > 0 ? static_cast<uint64_t>(mine) : 0;
        w.step.scheduled = scheduled;
        double next_publish = t0 + publish_period_s;
        for (uint64_t i = 0; i < scheduled; ++i) {
          const uint64_t k = i * senders + s;
          const double due = t0 + static_cast<double>(k) / rate;
          if (NowSeconds() >= t_end) {
            w.step.unsent_due = scheduled - i;
            break;
          }
          WaitUntil(due);
          if (s == 0 && publish_period_s > 0 && NowSeconds() >= next_publish) {
            const double start = NowSeconds();
            if (Publish(in, 0).ok()) {
              w.publish_ms.push_back((NowSeconds() - start) * 1e3);
            } else {
              ++results[s].publish_failures;
            }
            next_publish += publish_period_s;
          }
          const size_t model = k % num_models;
          const size_t block = (k / num_models) % num_blocks;
          hamlet::serve::ScoreRequest request;
          request.model = in->names[model];
          request.version = ArtifactStore::kLatest;
          request.rows = in->blocks[block];
          const double sent = NowSeconds();
          w.late_us.push_back((sent - due) * 1e6);
          ++w.step.accounting.offered;
          Result<hamlet::serve::ScoreResponse> response =
              service->Score(std::move(request));
          const double done = NowSeconds();
          if (response.ok()) {
            ++w.step.accounting.served;
            w.batch_requests_sum += response->batch_requests;
            if (response->predictions == in->expected[model][block]) {
              w.step.latency_us.push_back((done - due) * 1e6);
            } else {
              ++w.step.accounting.wrong;
            }
          } else if (response.status().code() ==
                     hamlet::StatusCode::kOverloaded) {
            ++w.step.accounting.shed;
          } else if (response.status().code() ==
                     hamlet::StatusCode::kDeadlineExceeded) {
            ++w.step.accounting.expired;
          } else {
            ++w.step.accounting.failed;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Window merged;
  uint64_t publish_failures = 0;
  for (Sender& r : results) {
    const Window& w = r.w;
    Accounting& a = merged.step.accounting;
    a.offered += w.step.accounting.offered;
    a.served += w.step.accounting.served;
    a.shed += w.step.accounting.shed;
    a.expired += w.step.accounting.expired;
    a.failed += w.step.accounting.failed;
    a.wrong += w.step.accounting.wrong;
    merged.step.scheduled += w.step.scheduled;
    merged.step.unsent_due += w.step.unsent_due;
    merged.step.latency_us.insert(merged.step.latency_us.end(),
                                  w.step.latency_us.begin(),
                                  w.step.latency_us.end());
    merged.late_us.insert(merged.late_us.end(), w.late_us.begin(),
                          w.late_us.end());
    merged.publish_ms.insert(merged.publish_ms.end(), w.publish_ms.begin(),
                             w.publish_ms.end());
    merged.batch_requests_sum += w.batch_requests_sum;
    publish_failures += r.publish_failures;
  }
  const Accounting& a = merged.step.accounting;
  checks->Expect(AccountingHolds(a),
                 "served + shed + expired + failed == offered");
  // Every served prediction must equal the model's serial Predict.
  checks->attempted += a.offered + merged.publish_ms.size() + publish_failures;
  checks->failed += a.failed + a.wrong + publish_failures;
  if (a.failed + a.wrong + publish_failures > 0) {
    std::cerr << "CHECK FAILED: " << a.failed << " failed and " << a.wrong
              << " wrong of " << a.offered << " requests, "
              << publish_failures << " failed publishes\n";
  }
  std::sort(merged.step.latency_us.begin(), merged.step.latency_us.end());
  std::sort(merged.late_us.begin(), merged.late_us.end());
  return merged;
}

/// Percentile that must be reportable; a missing one fails the run.
double RequirePercentile(const std::vector<double>& sorted, double p,
                         const char* what, Checks* checks) {
  const std::optional<double> v = Percentile(sorted, p);
  checks->Expect(v.has_value(), std::string(what) +
                                    ": too few samples for the percentile");
  return v.value_or(0.0);
}

/// Median microseconds of `n` timed calls of `fn`, which returns whether
/// its call succeeded and was correct; each outcome is one check.
template <typename Fn>
double MedianCallUs(int n, const char* what, Checks* checks, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double start = NowSeconds();
    const bool ok = fn(i);
    us.push_back((NowSeconds() - start) * 1e6);
    checks->Expect(ok, what);
  }
  return Median(std::move(us));
}

}  // namespace

Result<ServeInputs> SetUpServing(const hamlet::NormalizedDataset& dataset,
                                 const std::string& store_dir,
                                 uint64_t seed) {
  ServeInputs in;
  HAMLET_ASSIGN_OR_RETURN(hamlet::EncodedDataset data,
                          hamlet::EncodedDataset::FromTableAuto(
                              dataset.entity()));
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<uint32_t> features = data.AllFeatureIndices();
  in.store = std::make_unique<ArtifactStore>(store_dir);
  for (ModelKind kind : {ModelKind::kNaiveBayes, ModelKind::kDecisionTree}) {
    if (kind == ModelKind::kNaiveBayes) {
      HAMLET_RETURN_NOT_OK(in.nb.Train(data, rows, features));
      in.names.push_back("nb");
    } else {
      HAMLET_RETURN_NOT_OK(in.tree.Train(data, rows, features));
      in.names.push_back("tree");
    }
    in.kinds.push_back(kind);
    for (uint32_t v = 0; v < kVersionsPerModel; ++v) {
      HAMLET_RETURN_NOT_OK(Publish(&in, in.names.size() - 1).status());
    }
  }
  // 251 distinct blocks: prime, so the block cycle never locks step with
  // the model cycle.
  constexpr uint32_t kNumBlocks = 251;
  hamlet::Rng rng(seed ^ 0x5e57e5c0ffeeULL);
  std::vector<uint32_t> block_rows(kBlockRows);
  for (uint32_t b = 0; b < kNumBlocks; ++b) {
    for (uint32_t& r : block_rows) r = rng.Uniform(data.num_rows());
    in.blocks.push_back(std::make_shared<const hamlet::EncodedDataset>(
        data.GatherRows(block_rows)));
  }
  std::vector<uint32_t> all(kBlockRows);
  for (uint32_t i = 0; i < kBlockRows; ++i) all[i] = i;
  for (ModelKind kind : in.kinds) {
    const hamlet::Classifier& model =
        kind == ModelKind::kNaiveBayes
            ? static_cast<const hamlet::Classifier&>(in.nb)
            : static_cast<const hamlet::Classifier&>(in.tree);
    std::vector<std::vector<uint32_t>> per_block;
    for (const auto& block : in.blocks) {
      per_block.push_back(model.Predict(*block, all));
    }
    in.expected.push_back(std::move(per_block));
  }
  return in;
}

ServeResult RunServing(ServeInputs* in, const ServeShape& shape,
                       uint32_t senders, SpanLog* spans, Checks* checks) {
  ServeResult out;
  // Hamlet's own counters (warm-cache hits and misses) record only while
  // a collection window is open.
  hamlet::obs::ScopedCollection collection(true);
  hamlet::serve::HamletService service(in->store.get());

  {
    // Let the warm caches fill and the dispatchers start.
    SpanLog::Scope span(spans, "serve.warmup");
    RunWindow(&service, in, senders, shape.fixed_rate, 0.5, 0, checks);
  }

  const hamlet::obs::MetricsSnapshot before =
      hamlet::obs::MetricsRegistry::Global().Snapshot();
  Window fixed;
  {
    SpanLog::Scope span(spans, "serve.fixed_rate");
    fixed = RunWindow(&service, in, senders, shape.fixed_rate,
                      shape.fixed_seconds,
                      shape.fixed_seconds / kPublishesPerWindow, checks);
  }
  const hamlet::obs::MetricsSnapshot after =
      hamlet::obs::MetricsRegistry::Global().Snapshot();
  out.score_p50_us = RequirePercentile(fixed.step.latency_us, 0.5,
                                       "score_p50_us", checks);
  out.score_p99_us = RequirePercentile(fixed.step.latency_us, 0.99,
                                       "score_p99_us", checks);
  out.generator_late_p99_us =
      RequirePercentile(fixed.late_us, 0.99, "generator lateness", checks);
  const Accounting& a = fixed.step.accounting;
  {
    const std::vector<double>& l = fixed.step.latency_us;
    const std::vector<double>& g = fixed.late_us;
    auto at = [](const std::vector<double>& v, double p) {
      return v.empty() ? 0.0 : v[static_cast<size_t>(p * (v.size() - 1))];
    };
    std::fprintf(stderr,
                 "fixed-rate window: %llu requests at %.0f/s; latency from "
                 "schedule p50 %.1f p90 %.1f p99 %.1f max %.1f us; sender "
                 "lateness p50 %.1f p99 %.1f max %.1f us\n",
                 static_cast<unsigned long long>(a.offered), shape.fixed_rate,
                 at(l, 0.5), at(l, 0.9), at(l, 0.99), at(l, 1.0), at(g, 0.5),
                 at(g, 0.99), at(g, 1.0));
  }
  out.batch_requests_mean =
      a.served > 0 ? static_cast<double>(fixed.batch_requests_sum) /
                         static_cast<double>(a.served)
                   : 0.0;
  const uint64_t hits = after.CounterValue("serve.warm_cache_hits") -
                        before.CounterValue("serve.warm_cache_hits");
  const uint64_t misses = after.CounterValue("serve.warm_cache_misses") -
                          before.CounterValue("serve.warm_cache_misses");
  out.warm_cache_hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  out.shed += a.shed;
  out.expired += a.expired;

  {
    SpanLog::Scope span(spans, "serve.ladder");
    const int rung = HighestPassingRung(kLadderRungs, [&](int k) {
      SpanLog::Scope step_span(spans, "serve.ladder_step");
      const double rate = kLadderBase * std::pow(kLadderGrowth, k);
      const Window w = RunWindow(&service, in, senders, rate,
                                 shape.step_seconds, 0, checks);
      out.shed += w.step.accounting.shed;
      out.expired += w.step.accounting.expired;
      const bool pass = LadderStepPasses(w.step, shape.slo_us);
      const std::vector<double>& l = w.step.latency_us;
      std::fprintf(stderr,
                   "ladder rung %2d: %8.0f/s offered %llu unsent %llu p99 "
                   "%.1f us -> %s\n",
                   k, rate,
                   static_cast<unsigned long long>(w.step.accounting.offered),
                   static_cast<unsigned long long>(w.step.unsent_due),
                   l.empty() ? 0.0 : l[static_cast<size_t>(0.99 * (l.size() - 1))],
                   pass ? "pass" : "fail");
      return pass;
    });
    // No passing rung is a measurement (the host was too slow for the
    // SLO even at the lowest rate), not a wrong answer: it reads as 0.
    if (rung < 0) {
      std::fprintf(stderr, "no ladder rung met the %.0f us SLO\n",
                   shape.slo_us);
    }
    out.max_score_rps =
        rung >= 0 ? kLadderBase * std::pow(kLadderGrowth, rung) : 0.0;
  }

  std::vector<double> publish_ms = fixed.publish_ms;
  std::sort(publish_ms.begin(), publish_ms.end());
  out.publish_p50_ms =
      RequirePercentile(publish_ms, 0.5, "publish_p50_ms", checks);

  // The scoring pass without the queue, and a model resolution through
  // the store, each timed from outside on the same blocks.
  {
    SpanLog::Scope span(spans, "serve.direct_score");
    // The concrete newest version: resolving kLatest here would add the
    // store's version scan, which the dispatchers' warm cache skips.
    std::vector<uint32_t> versions;
    for (const std::string& name : in->names) {
      const Result<uint32_t> latest = in->store->LatestVersion(name);
      versions.push_back(latest.ok() ? *latest : ArtifactStore::kLatest);
    }
    out.direct_score_us = MedianCallUs(
        2000, "ScoreBatchDirect equals serial Predict", checks, [&](int i) {
          const size_t model = static_cast<size_t>(i) % in->names.size();
          const size_t block = static_cast<size_t>(i) % in->blocks.size();
          hamlet::serve::ScoreRequest request;
          request.model = in->names[model];
          request.version = versions[model];
          request.rows = in->blocks[block];
          auto response = service.ScoreBatchDirect({request});
          return response.ok() && response->size() == 1 &&
                 (*response)[0].predictions == in->expected[model][block];
        });
  }
  {
    SpanLog::Scope span(spans, "serve.store_get");
    out.store_get_us = MedianCallUs(
        2000, "store read of the latest version", checks, [&](int i) {
          const size_t model = static_cast<size_t>(i) % in->names.size();
          return in->kinds[model] == ModelKind::kNaiveBayes
                     ? in->store->GetNaiveBayes(in->names[model]).ok()
                     : in->store->GetDecisionTree(in->names[model]).ok();
        });
  }
  service.Stop();
  return out;
}

}  // namespace perfbench
