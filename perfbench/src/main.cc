// hamlet_perfbench: one benchmark for both Hamlet paths, driven only
// through the public API (hamlet.h).
//
//   hamlet_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> [--spans-out <file>]
//
// Set-up synthesizes the datasets from the seed and writes them as CSV;
// the timed part reads only those files (plus their declared schema and
// domains). Human-readable tables go to stderr; the last line on stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. perfbench/run.py builds this program and wraps it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hamlet.h"
#include "pipeline_phase.h"
#include "serve_phase.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Workload {
  const char* name;
  PipelineMode mode;
  /// RunPipeline repetitions per ingest in an untraced pass: cheap
  /// pipelines repeat so that they get as many samples as ingest does.
  int reps;
};

const Workload kWorkloads[] = {
    {"fig7-joinall", PipelineMode::kJoinAll, 3},
    {"fig7-joinopt", PipelineMode::kJoinOpt, 3},
    {"trees-factorized", PipelineMode::kTreesFactorized, 2},
};

const char* const kDatasets[] = {"MovieLens1M", "Walmart", "Yelp"};

/// The synthesized instance every run uses. Forward selection's work
/// depends on the data (Yelp JoinAll trains 118 to 521 models across
/// instances), so the instance is part of the workload's definition and
/// the run seed varies what leaves results alone (see WriteDatasetInput).
constexpr uint64_t kDataSeed = 1;

/// The dataset the serving models are trained on.
constexpr const char* kServeDataset = "Walmart";

/// Traced runs end with the serving path: Naive Bayes and decision-tree
/// models at a nominal 20k requests/s (about a third of what this
/// service sustains on 4 cores), with sender 0 publishing during the
/// fixed-rate window, and a 5 ms p99 SLO for the ladder. Phase lengths
/// are for --seconds 10 and scale with it.
const ServeShape kServe{20000, 2.0, 0.3, 5000};

/// Share of --seconds a traced run gives its pipeline passes; the
/// serving phase takes the rest.
constexpr double kTracedPipelineShare = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Everything set-up leaves behind. `generated` keeps the in-memory
/// datasets (parallel to `inputs`) for the reference runs.
struct Setup {
  std::vector<DatasetInput> inputs;
  std::vector<hamlet::NormalizedDataset> generated;
  ServeInputs serve;
};

/// Synthesizes every dataset, writes the CSVs, and trains and publishes
/// the serving models.
hamlet::Result<Setup> SetUp(uint64_t seed, const std::string& dir) {
  Setup setup;
  fs::create_directories(dir);
  for (const std::string name : kDatasets) {
    HAMLET_ASSIGN_OR_RETURN(hamlet::NormalizedDataset dataset,
                            hamlet::MakeDataset(name, 1.0, kDataSeed));
    if (name == kServeDataset) {
      HAMLET_ASSIGN_OR_RETURN(
          setup.serve, SetUpServing(dataset, dir + "/store", seed));
    }
    HAMLET_ASSIGN_OR_RETURN(DatasetInput input,
                            WriteDatasetInput(dataset, dir, seed));
    setup.inputs.push_back(std::move(input));
    setup.generated.push_back(std::move(dataset));
  }
  return setup;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

double FailedFraction(const Checks& checks) {
  return static_cast<double>(checks.failed) /
         static_cast<double>(std::max<uint64_t>(checks.attempted, 1));
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Median of one span's per-pass totals.
double MedianTotal(const std::vector<std::map<std::string, SpanLog::Rollup>>&
                       passes,
                   const std::string& name, bool self = false) {
  std::vector<double> v;
  for (const auto& pass : passes) {
    const auto it = pass.find(name);
    v.push_back(it == pass.end() ? 0.0
                                 : (self ? it->second.self_s
                                         : it->second.total_s));
  }
  return v.empty() ? 0.0 : Median(std::move(v));
}

/// The per-layer table of a traced pass: calls, total and self time, and
/// each layer's share of the pass.
void PrintLayerTable(const std::map<std::string, SpanLog::Rollup>& rollup) {
  const auto root = rollup.find("pipeline");
  const double wall = root == rollup.end() ? 0.0 : root->second.total_s;
  std::fprintf(stderr, "\nper-layer self time (last traced pass)\n");
  std::fprintf(stderr, "  %-26s %6s %12s %12s %8s\n", "span", "calls",
               "total_s", "self_s", "self%");
  for (const auto& [name, r] : rollup) {
    std::fprintf(stderr, "  %-26s %6llu %12.6f %12.6f %7.2f%%\n",
                 name.c_str(), static_cast<unsigned long long>(r.calls),
                 r.total_s, r.self_s,
                 wall > 0 ? 100.0 * r.self_s / wall : 0.0);
  }
  if (root != rollup.end()) {
    std::fprintf(stderr, "  %-26s %6s %12s %12.6f %7.2f%%\n",
                 "pipeline.residual_s", "", "", root->second.self_s,
                 wall > 0 ? 100.0 * root->second.self_s / wall : 0.0);
    std::fprintf(stderr, "  layers claim %.2f%% of the traced pass\n",
                 wall > 0 ? 100.0 * (wall - root->second.self_s) / wall : 0.0);
  }
}

/// The Fig. 7B ratio per dataset: RunPipeline at all cores under JoinAll
/// over the same under JoinOpt, both on the ingested inputs. Reported,
/// never gated.
void PrintFig7Ratio(const std::vector<DatasetInput>& inputs) {
  std::fprintf(stderr, "\nFig. 7B JoinAll/JoinOpt runtime ratio "
                       "(RunPipeline, all cores, median of 3)\n");
  for (const DatasetInput& input : inputs) {
    hamlet::Result<hamlet::NormalizedDataset> dataset = Ingest(input, nullptr);
    if (!dataset.ok()) continue;
    double seconds[2];
    for (int m = 0; m < 2; ++m) {
      const PipelineMode mode =
          m == 0 ? PipelineMode::kJoinAll : PipelineMode::kJoinOpt;
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        const double start = NowSeconds();
        const bool ok =
            hamlet::RunPipeline(*dataset, MakeConfig(mode, input.metric, 0)).ok();
        t.push_back(ok ? NowSeconds() - start : NAN);
      }
      seconds[m] = Median(std::move(t));
    }
    std::fprintf(stderr, "  %-12s JoinAll %.4fs  JoinOpt %.4fs  ratio %.2fx\n",
                 input.name.c_str(), seconds[0], seconds[1],
                 seconds[0] / seconds[1]);
  }
}

int Run(const Args& args) {
  const auto it = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const Workload& w) { return args.workload == w.name; });
  if (it == std::end(kWorkloads)) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Workload& w = *it;
  ServeShape serve_shape = kServe;
  serve_shape.fixed_seconds *= args.seconds / 10.0;
  serve_shape.step_seconds *= args.seconds / 10.0;
  const uint32_t senders =
      std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
  Checks checks;

  // --- Set-up, three times; the median is setup_s. The last one's
  // files and store are the ones the run uses.
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string dir = args.work_dir + "/setup" + std::to_string(rep);
    setup = Setup();  // Free the previous repetition before timing.
    fs::remove_all(dir);
    const double start = NowSeconds();
    hamlet::Result<Setup> made = SetUp(args.seed, dir);
    setup_s.push_back(NowSeconds() - start);
    if (!made.ok()) {
      std::cerr << "set-up failed: " << made.status() << "\n";
      return 1;
    }
    setup = std::move(*made);
    if (rep > 0) {
      fs::remove_all(args.work_dir + "/setup" + std::to_string(rep - 1));
    }
  }
  // Flush the CSVs now, untimed: the kernel would otherwise write them
  // back in the middle of the measured passes.
  sync();

  // The oracle: RunPipeline on the in-memory datasets at one thread.
  for (size_t i = 0; i < setup.inputs.size(); ++i) {
    DatasetInput& input = setup.inputs[i];
    hamlet::Result<hamlet::PipelineReport> report = hamlet::RunPipeline(
        setup.generated[i], MakeConfig(w.mode, input.metric, 1));
    if (!report.ok()) {
      std::cerr << "reference run failed: " << report.status() << "\n";
      return 1;
    }
    input.reference = Signature(report->selection);
    std::fprintf(stderr, "reference %-12s %s\n", input.name.c_str(),
                 input.reference.c_str());
  }
  setup.generated.clear();

  // --- The analytics path.
  SpanLog spans;
  std::vector<PassTimes> untraced;
  std::vector<TracedCounts> traced_counts;
  std::vector<std::map<std::string, SpanLog::Rollup>> rollups;
  const double pipeline_deadline =
      NowSeconds() +
      (args.trace ? kTracedPipelineShare : 1.0) * args.seconds;
  // A pass starts only if one more pass of the last one's length still
  // fits before the deadline, so a run takes --seconds, not a pass more.
  const size_t min_passes = args.trace ? 2 : 3;
  double last_pass_s = 0;
  while (untraced.size() < min_passes ||
         NowSeconds() + last_pass_s <= pipeline_deadline) {
    const double pass_start = NowSeconds();
    untraced.push_back(
        RunUntracedPass(setup.inputs, w.mode, args.trace ? 1 : w.reps,
                        &checks));
    if (args.trace) {
      const size_t first = spans.size();
      traced_counts.push_back(
          RunTracedPass(setup.inputs, w.mode, &spans, &checks));
      rollups.push_back(spans.Rollups(first));
    }
    last_pass_s = NowSeconds() - pass_start;
  }
  std::vector<double> ingest, pipeline, pipeline_1t;
  for (const PassTimes& p : untraced) {
    ingest.push_back(p.ingest_s);
    pipeline.insert(pipeline.end(), p.pipeline_s.begin(), p.pipeline_s.end());
    pipeline_1t.insert(pipeline_1t.end(), p.pipeline_1t_s.begin(),
                       p.pipeline_1t_s.end());
  }
  const double ingest_s = Median(ingest);
  const double pipeline_s = Median(pipeline);
  const double pipeline_1t_s = Median(pipeline_1t);
  // The spread inside this run, in the same quartiles the spread between
  // runs is judged by.
  std::fprintf(stderr, "\n%zu untraced passes over %zu datasets\n",
               untraced.size(), setup.inputs.size());
  const std::pair<const char*, const std::vector<double>*> timings[] = {
      {"setup_s", &setup_s},
      {"ingest_s", &ingest},
      {"pipeline_s", &pipeline},
      {"pipeline_1t_s", &pipeline_1t}};
  for (const auto& [name, samples] : timings) {
    const auto q = Quartiles(*samples);
    std::fprintf(stderr, "  %-14s n=%-3zu median %.4f  quartiles %.4f %.4f\n",
                 name, samples->size(), Median(*samples),
                 q ? (*q)[0] : NAN, q ? (*q)[2] : NAN);
  }

  if (!args.trace) {
    const std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ingest_s", ingest_s, "s"},
        {"pipeline_s", pipeline_s, "s"},
        {"pipeline_1t_s", pipeline_1t_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    PrintMetrics("end-to-end metrics", metrics);
    std::fprintf(stderr, "  %-32s %16.6f\n", "failed_frac",
                 FailedFraction(checks));
    PrintResult(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
  }

  // --- Traced run: the layer-coverage check, the serving path, and the
  // per-layer metrics.
  PrintLayerTable(rollups.back());
  for (const auto& rollup : rollups) {
    const auto root = rollup.find("pipeline");
    const double wall = root == rollup.end() ? 0.0 : root->second.total_s;
    const double claimed = wall > 0 ? wall - root->second.self_s : 0.0;
    checks.Expect(wall > 0 && claimed >= 0.95 * wall,
                  "layer spans cover at least 95% of a traced pass");
  }
  if (w.mode != PipelineMode::kTreesFactorized) {
    PrintFig7Ratio(setup.inputs);
  }
  const ServeResult serve =
      RunServing(&setup.serve, serve_shape, senders, &spans, &checks);
  auto median_count = [&](uint64_t TracedCounts::*field) {
    std::vector<double> v;
    for (const TracedCounts& c : traced_counts) {
      v.push_back(static_cast<double>(c.*field));
    }
    return Median(std::move(v));
  };
  auto median_double = [&](double TracedCounts::*field) {
    std::vector<double> v;
    for (const TracedCounts& c : traced_counts) v.push_back(c.*field);
    return Median(std::move(v));
  };
  const double csv_read_s = MedianTotal(rollups, "relational.csv_read");
  const double search_s = MedianTotal(rollups, "fs.search");
  const double models = median_count(&TracedCounts::models_trained);
  const double hits = median_count(&TracedCounts::stats_cache_hits);
  const double misses = median_count(&TracedCounts::stats_cache_misses);
  const double traced_wall = MedianTotal(rollups, "pipeline");
  const std::vector<Metric> metrics = {
      {"relational.csv_read_s", csv_read_s, "s"},
      {"relational.csv_mb_per_s",
       csv_read_s > 0
           ? median_count(&TracedCounts::csv_bytes) / 1e6 / csv_read_s
           : 0.0,
       "MB/s"},
      {"relational.catalog_make_s",
       MedianTotal(rollups, "relational.catalog_make"), "s"},
      {"relational.join_s", MedianTotal(rollups, "relational.join"), "s"},
      {"relational.join_cells_out",
       median_count(&TracedCounts::join_cells_out), "count"},
      {"core.advise_s", MedianTotal(rollups, "core.advise"), "s"},
      {"core.fks_avoided", median_count(&TracedCounts::fks_avoided), "count"},
      {"data.encode_s", MedianTotal(rollups, "data.encode"), "s"},
      {"data.split_s", MedianTotal(rollups, "data.split"), "s"},
      {"ml.factorize_s", MedianTotal(rollups, "ml.factorize"), "s"},
      {"fs.search_s", search_s, "s"},
      {"fs.final_fit_s", MedianTotal(rollups, "fs.final_fit"), "s"},
      {"fs.models_trained", models, "count"},
      {"fs.us_per_model", models > 0 ? search_s * 1e6 / models : 0.0, "us"},
      {"fs.stats_cache_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"threadpool.regions", median_count(&TracedCounts::pool_regions),
       "count"},
      {"threadpool.queue_wait_p50_us",
       median_double(&TracedCounts::pool_queue_wait_p50_ns) / 1e3, "us"},
      {"threadpool.speedup", pipeline_s > 0 ? pipeline_1t_s / pipeline_s : 0.0,
       "ratio"},
      {"serve.score_p50_us", serve.score_p50_us, "us"},
      {"serve.score_p99_us", serve.score_p99_us, "us"},
      {"serve.max_score_rps", serve.max_score_rps, "1/s"},
      {"serve.publish_p50_ms", serve.publish_p50_ms, "ms"},
      {"serve.direct_score_us", serve.direct_score_us, "us"},
      {"serve.queue_overhead_us", serve.score_p50_us - serve.direct_score_us,
       "us"},
      {"serve.batch_requests_mean", serve.batch_requests_mean, "count"},
      {"serve.warm_cache_hit_ratio", serve.warm_cache_hit_ratio, "ratio"},
      {"serve.store_get_us", serve.store_get_us, "us"},
      {"serve.generator_late_p99_us", serve.generator_late_p99_us, "us"},
      {"serve.shed", static_cast<double>(serve.shed), "count"},
      {"serve.expired", static_cast<double>(serve.expired), "count"},
      {"pipeline.residual_s", MedianTotal(rollups, "pipeline", true), "s"},
      {"obs.trace_overhead_frac",
       ingest_s + pipeline_s > 0 ? traced_wall / (ingest_s + pipeline_s) - 1.0
                                 : 0.0,
       "ratio"},
      {"failed_frac", FailedFraction(checks), "ratio"},
  };
  PrintMetrics("per-layer metrics", metrics);
  if (!args.spans_out.empty() && !spans.WriteChromeTrace(args.spans_out)) {
    std::cerr << "could not write " << args.spans_out << "\n";
  }
  PrintResult(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: hamlet_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--spans-out <file>]\n";
    return 2;
  }
  const int code = perfbench::Run(args);
  std::error_code ignored;
  std::filesystem::remove_all(args.work_dir, ignored);
  return code;
}
