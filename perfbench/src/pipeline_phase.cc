#include "pipeline_phase.h"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <utility>

namespace perfbench {

using hamlet::Result;

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

Result<DatasetInput> WriteDatasetInput(
    const hamlet::NormalizedDataset& dataset, const std::string& dir,
    uint64_t seed) {
  DatasetInput input;
  input.name = dataset.name();
  HAMLET_ASSIGN_OR_RETURN(input.metric,
                          hamlet::MetricForDataset(dataset.name()));
  // Attribute tables are written in a seed-drawn row order (Fisher-Yates).
  // Their rows are reached only through their keys, so every result is
  // unchanged while the bytes the reader parses and the join's build side
  // differ from seed to seed.
  hamlet::Rng rng(seed);
  std::vector<hamlet::Table> shuffled;
  for (const hamlet::Table& t : dataset.attribute_tables()) {
    std::vector<uint32_t> order(t.num_rows());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (uint32_t i = t.num_rows(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    shuffled.push_back(t.GatherRows(order));
  }
  std::vector<const hamlet::Table*> tables = {&dataset.entity()};
  for (const hamlet::Table& t : shuffled) tables.push_back(&t);
  std::map<const hamlet::Domain*, size_t> domain_ids;
  for (const hamlet::Table* table : tables) {
    TableInput t;
    t.name = table->name();
    t.path = dir + "/" + dataset.name() + "." + table->name() + ".csv";
    t.schema = table->schema();
    for (uint32_t c = 0; c < table->num_columns(); ++c) {
      const hamlet::Domain* domain = table->column(c).domain().get();
      auto [it, fresh] = domain_ids.emplace(domain, domain_ids.size());
      if (fresh) input.domain_labels.push_back(domain->labels());
      t.domain_ids.push_back(it->second);
    }
    HAMLET_RETURN_NOT_OK(hamlet::WriteCsv(*table, t.path));
    t.bytes = std::filesystem::file_size(t.path);
    input.tables.push_back(std::move(t));
  }
  return input;
}

hamlet::PipelineConfig MakeConfig(PipelineMode mode, hamlet::ErrorMetric metric,
                                  uint32_t num_threads) {
  hamlet::PipelineConfig config;
  config.method = hamlet::FsMethod::kForwardSelection;
  config.metric = metric;
  config.num_threads = num_threads;
  config.enable_join_avoidance = mode == PipelineMode::kJoinOpt;
  if (mode == PipelineMode::kTreesFactorized) {
    config.classifier = hamlet::ClassifierKind::kDecisionTree;
    config.avoid_materialization = true;
  }
  return config;
}

std::string Signature(const hamlet::FsRunReport& report) {
  std::string out = "{";
  for (size_t i = 0; i < report.selected_names.size(); ++i) {
    out += (i == 0 ? "" : ",") + report.selected_names[i];
  }
  char errors[96];
  std::snprintf(errors, sizeof(errors), "} validation=%.17g holdout=%.17g",
                report.selection.validation_error, report.holdout_test_error);
  return out + errors;
}

Result<hamlet::NormalizedDataset> Ingest(const DatasetInput& input,
                                         SpanLog* spans) {
  // Declared domains are built when a file first needs them, inside that
  // file's read span: building a domain's label index is part of reading
  // with declared domains (MovieLens1M declares a million RatingIDs).
  std::vector<std::shared_ptr<hamlet::Domain>> domains(
      input.domain_labels.size());
  std::vector<hamlet::Table> tables;
  for (const TableInput& t : input.tables) {
    SpanLog::Scope span(spans, "relational.csv_read");
    std::vector<std::shared_ptr<hamlet::Domain>> declared;
    for (size_t id : t.domain_ids) {
      if (domains[id] == nullptr) {
        domains[id] = std::make_shared<hamlet::Domain>(input.domain_labels[id]);
      }
      declared.push_back(domains[id]);
    }
    HAMLET_ASSIGN_OR_RETURN(
        hamlet::Table table,
        hamlet::ReadCsvWithDomains(t.path, t.name, t.schema,
                                   std::move(declared)));
    tables.push_back(std::move(table));
  }
  SpanLog::Scope span(spans, "relational.catalog_make");
  hamlet::Table entity = std::move(tables.front());
  tables.erase(tables.begin());
  return hamlet::NormalizedDataset::Make(input.name, std::move(entity),
                                         std::move(tables));
}

PassTimes RunUntracedPass(const std::vector<DatasetInput>& inputs,
                          PipelineMode mode, int reps, Checks* checks) {
  PassTimes times;
  times.pipeline_s.assign(reps, 0.0);
  times.pipeline_1t_s.assign(reps, 0.0);
  for (const DatasetInput& input : inputs) {
    const double t0 = NowSeconds();
    Result<hamlet::NormalizedDataset> dataset = Ingest(input, nullptr);
    const double t1 = NowSeconds();
    checks->Expect(dataset.ok(), input.name + " ingest: " +
                                     dataset.status().ToString());
    if (!dataset.ok()) continue;
    times.ingest_s += t1 - t0;
    for (int rep = 0; rep < reps; ++rep) {
      for (uint32_t threads : {0u, 1u}) {
        const double start = NowSeconds();
        Result<hamlet::PipelineReport> report = hamlet::RunPipeline(
            *dataset, MakeConfig(mode, input.metric, threads));
        const double seconds = NowSeconds() - start;
        (threads == 0 ? times.pipeline_s : times.pipeline_1t_s)[rep] +=
            seconds;
        const std::string got =
            report.ok() ? Signature(report->selection)
                        : "error: " + report.status().ToString();
        checks->Expect(got == input.reference,
                       input.name + " RunPipeline at num_threads=" +
                           std::to_string(threads) + " gave " + got +
                           ", reference " + input.reference);
      }
    }
  }
  return times;
}

namespace {

/// Pool statistics between two registry snapshots: regions dispatched
/// and the median queue wait of the tasks in between.
void PoolDelta(const hamlet::obs::MetricsSnapshot& before,
               const hamlet::obs::MetricsSnapshot& after,
               TracedCounts* counts) {
  counts->pool_regions += after.CounterValue("threadpool.regions") -
                          before.CounterValue("threadpool.regions");
  const hamlet::obs::HistogramSnapshot* wait_before = nullptr;
  const hamlet::obs::HistogramSnapshot* wait_after = nullptr;
  for (const auto& h : before.histograms) {
    if (h.name == "threadpool.queue_wait_ns") wait_before = &h;
  }
  for (const auto& h : after.histograms) {
    if (h.name == "threadpool.queue_wait_ns") wait_after = &h;
  }
  if (wait_after == nullptr) return;
  hamlet::obs::HistogramSnapshot delta = *wait_after;
  if (wait_before != nullptr) {
    delta.count -= wait_before->count;
    delta.sum_nanos -= wait_before->sum_nanos;
    for (size_t i = 0;
         i < delta.buckets.size() && i < wait_before->buckets.size(); ++i) {
      delta.buckets[i] -= wait_before->buckets[i];
    }
  }
  if (delta.count > 0) {
    counts->pool_queue_wait_p50_ns =
        static_cast<double>(delta.PercentileNanos(0.5));
  }
}

/// The stages RunPipeline runs for one dataset, called one by one.
Result<hamlet::FsRunReport> DecomposedPipeline(
    const hamlet::NormalizedDataset& dataset,
    const hamlet::PipelineConfig& config, SpanLog* spans,
    TracedCounts* counts) {
  hamlet::JoinPlan plan;
  {
    SpanLog::Scope span(spans, "core.advise");
    HAMLET_ASSIGN_OR_RETURN(plan, hamlet::AdviseJoins(dataset, config.advisor));
  }
  std::vector<std::string> to_join;
  if (config.enable_join_avoidance) {
    to_join = plan.fks_to_join;
    counts->fks_avoided += plan.fks_avoided.size();
  } else {
    for (const auto& fk : dataset.foreign_keys()) {
      to_join.push_back(fk.fk_column);
    }
  }
  std::unique_ptr<hamlet::FeatureSelector> selector =
      hamlet::MakeSelector(config.method, config.num_threads);
  const hamlet::ClassifierFactory factory =
      hamlet::MakeClassifierFactory(config.classifier);

  // The runner times its search and its final fit; they become reported
  // children of the fs span, so fs self time is the runner's overhead.
  auto finish = [&](Result<hamlet::FsRunReport> report, double fs_start,
                    uint64_t fs_id) {
    if (report.ok()) {
      spans->AddReported("fs.search", fs_id, fs_start,
                         report->runtime_seconds);
      spans->AddReported("fs.final_fit", fs_id,
                         fs_start + report->runtime_seconds,
                         report->fit_seconds);
      counts->models_trained += report->selection.models_trained;
    }
    return report;
  };
  if (config.avoid_materialization) {
    hamlet::FactorizedDataset data;
    {
      SpanLog::Scope span(spans, "ml.factorize");
      HAMLET_ASSIGN_OR_RETURN(
          data, hamlet::FactorizedDataset::Make(dataset, to_join));
    }
    hamlet::HoldoutSplit split;
    {
      SpanLog::Scope span(spans, "data.split");
      hamlet::Rng rng(config.seed);
      split = hamlet::MakeHoldoutSplit(data.num_rows(), rng, config.split);
    }
    Result<hamlet::FsRunReport> report = [&] {
      SpanLog::Scope span(spans, "fs");
      return finish(hamlet::RunFeatureSelectionFactorized(
                        *selector, data, split, factory, config.metric,
                        data.AllFeatureIndices()),
                    span.start_s(), span.id());
    }();
    SpanLog::Scope span(spans, "memory.release");
    data = hamlet::FactorizedDataset();
    return report;
  }
  hamlet::Table table;
  {
    SpanLog::Scope span(spans, "relational.join");
    hamlet::JoinOptions options;
    options.num_threads = config.num_threads;
    options.algorithm = config.join_algorithm;
    HAMLET_ASSIGN_OR_RETURN(table, dataset.JoinSubset(to_join, options));
  }
  if (!to_join.empty()) {
    counts->join_cells_out +=
        static_cast<uint64_t>(table.num_rows()) * table.num_columns();
  }
  std::unique_ptr<hamlet::EncodedDataset> data;
  {
    SpanLog::Scope span(spans, "data.encode");
    HAMLET_ASSIGN_OR_RETURN(hamlet::EncodedDataset encoded,
                            hamlet::EncodedDataset::FromTableAuto(table));
    data = std::make_unique<hamlet::EncodedDataset>(std::move(encoded));
  }
  hamlet::HoldoutSplit split;
  {
    SpanLog::Scope span(spans, "data.split");
    hamlet::Rng rng(config.seed);
    split = hamlet::MakeHoldoutSplit(data->num_rows(), rng, config.split);
  }
  Result<hamlet::FsRunReport> report = [&] {
    SpanLog::Scope span(spans, "fs");
    return finish(hamlet::RunFeatureSelection(*selector, *data, split, factory,
                                              config.metric,
                                              data->AllFeatureIndices()),
                  span.start_s(), span.id());
  }();
  // Freeing the joined table and its encoding is real work (hundreds of
  // MB on MovieLens1M JoinAll); it gets its own span, not the residual.
  SpanLog::Scope span(spans, "memory.release");
  data.reset();
  table = hamlet::Table();
  return report;
}

}  // namespace

TracedCounts RunTracedPass(const std::vector<DatasetInput>& inputs,
                           PipelineMode mode, SpanLog* spans, Checks* checks) {
  TracedCounts counts;
  // Hamlet's own collection window: its counters (fs.cache_*) and the
  // pool's queue-wait histogram record only while it is open.
  hamlet::obs::ScopedCollection collection(true);
  const hamlet::obs::MetricsSnapshot before =
      hamlet::obs::MetricsRegistry::Global().Snapshot();
  for (const DatasetInput& input : inputs) {
    std::string got;
    {
      SpanLog::Scope pass(spans, "pipeline");
      Result<hamlet::NormalizedDataset> dataset = Ingest(input, spans);
      if (dataset.ok()) {
        Result<hamlet::FsRunReport> report = DecomposedPipeline(
            *dataset, MakeConfig(mode, input.metric, 0), spans, &counts);
        got = report.ok() ? Signature(*report)
                          : "error: " + report.status().ToString();
        SpanLog::Scope span(spans, "memory.release");
        *dataset = hamlet::NormalizedDataset();
      } else {
        got = "error: " + dataset.status().ToString();
      }
    }
    for (const TableInput& t : input.tables) counts.csv_bytes += t.bytes;
    checks->Expect(got == input.reference,
                   input.name + " traced stage-by-stage run gave " + got +
                       ", RunPipeline reference " + input.reference);
  }
  const hamlet::obs::MetricsSnapshot after =
      hamlet::obs::MetricsRegistry::Global().Snapshot();
  counts.stats_cache_hits = after.CounterValue("fs.cache_hits");
  counts.stats_cache_misses = after.CounterValue("fs.cache_misses");
  PoolDelta(before, after, &counts);
  return counts;
}

}  // namespace perfbench
