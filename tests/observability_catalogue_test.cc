/// Keeps docs/OBSERVABILITY.md honest: runs traced pipelines (every join,
/// search and classifier family the pipeline offers), CSV ingest, a
/// general hash join, a Monte Carlo study and a serving pass, collects
/// every metric and span name they emit, and compares that set with the
/// names the document's "Metrics catalogue" and "Span catalogue" tables
/// list. A name emitted but not documented, or documented but never
/// emitted, fails the test. The same two-way check runs on each span's
/// attribute keys against the table's "attributes" cell, and on the keys
/// emitted as identifiers (obs::AttrKind::kId, never summed when spans
/// merge) against its "identifiers" cell.
///
/// "Emitted" for a metric means registered with the global registry,
/// which is what every snapshot (and so every JSONL export) carries.
/// Producers register their metrics on first use, so a registered name
/// is one whose producer ran. Names under `test.` belong to other tests
/// in this binary and are ignored.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "common/rng.h"
#include "datasets/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "relational/join.h"
#include "serve/service.h"
#include "sim/monte_carlo.h"

namespace hamlet {
namespace {

using NameSet = std::set<std::string>;
/// Span name -> every attribute key seen on spans of that name.
using SpanAttrs = std::map<std::string, NameSet>;

/// What the traced workloads emitted: every attribute key per span, and
/// the keys added as identifiers.
struct EmittedSpans {
  SpanAttrs keys;
  SpanAttrs ids;
};

bool IsTestName(const std::string& name) {
  return name.rfind("test.", 0) == 0;
}

/// Backticked names in one table cell.
NameSet BacktickedNames(const std::string& cell) {
  NameSet names;
  for (size_t open = cell.find('`'); open != std::string::npos;) {
    const size_t close = cell.find('`', open + 1);
    if (close == std::string::npos) break;
    names.insert(cell.substr(open + 1, close - open - 1));
    open = cell.find('`', close + 1);
  }
  return names;
}

/// The cells of every table row of the `## <section>` part of the
/// document whose first cell starts with a backticked name.
std::vector<std::vector<std::string>> TableRows(const std::string& doc,
                                                const std::string& section) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(doc);
  std::string line;
  bool in_section = false;
  while (std::getline(lines, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## " + section;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    size_t begin = 1;
    for (size_t end = line.find('|', begin); end != std::string::npos;
         end = line.find('|', begin)) {
      cells.push_back(line.substr(begin, end - begin));
      begin = end + 1;
    }
    if (!cells.empty()) rows.push_back(std::move(cells));
  }
  return rows;
}

/// Backticked names in the first cell of every row of a section.
NameSet DocumentedNames(const std::string& doc, const std::string& section) {
  NameSet names;
  for (const auto& row : TableRows(doc, section)) {
    const NameSet cell = BacktickedNames(row[0]);
    names.insert(cell.begin(), cell.end());
  }
  return names;
}

/// Span name -> backticked names of its row's cell `column` (2: the
/// "attributes" cell, 3: the "identifiers" cell).
SpanAttrs DocumentedSpanAttrs(const std::string& doc, size_t column) {
  SpanAttrs attrs;
  for (const auto& row : TableRows(doc, "Span catalogue")) {
    const NameSet documented =
        row.size() > column ? BacktickedNames(row[column]) : NameSet();
    for (const std::string& span : BacktickedNames(row[0])) {
      attrs[span] = documented;
    }
  }
  return attrs;
}

void AddSpans(const obs::Trace& trace, EmittedSpans* spans) {
  for (const obs::TraceEvent& event : trace.events) {
    if (IsTestName(event.name)) continue;
    NameSet& keys = spans->keys[event.name];
    NameSet& ids = spans->ids[event.name];
    for (const obs::TraceAttr& attr : event.attrs) {
      keys.insert(attr.key);
      if (attr.is_number && attr.kind == obs::AttrKind::kId) {
        ids.insert(attr.key);
      }
    }
  }
}

EncodedDataset ServeData(uint64_t seed, uint32_t n) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(4);
    y[i] = rng.Bernoulli(0.85) ? f[i] : 1 - f[i];
  }
  return EncodedDataset({f, g}, {{"F", 2}, {"G", 4}}, y, 2);
}

void RunTracedPipelines(const NormalizedDataset& ds, EmittedSpans* spans) {
  struct Variant {
    ClassifierKind classifier;
    FsMethod method;
    bool avoid_materialization;
  };
  const Variant variants[] = {
      {ClassifierKind::kNaiveBayes, FsMethod::kForwardSelection, false},
      {ClassifierKind::kNaiveBayes, FsMethod::kForwardSelection, true},
      {ClassifierKind::kNaiveBayes, FsMethod::kMiFilter, false},
      {ClassifierKind::kDecisionTree, FsMethod::kMiFilter, false},
      {ClassifierKind::kGradientBoostedTrees, FsMethod::kMiFilter, false},
  };
  for (const Variant& v : variants) {
    PipelineConfig config;
    config.enable_join_avoidance = false;
    config.classifier = v.classifier;
    config.method = v.method;
    config.avoid_materialization = v.avoid_materialization;
    config.trace = true;
    auto report = RunPipeline(ds, config);
    ASSERT_TRUE(report.ok()) << report.status();
    AddSpans(report->trace, spans);
  }
}

void RunIngestJoinAndSimulation(const NormalizedDataset& ds,
                                EmittedSpans* spans) {
  obs::ScopedCollection window(true);
  const std::string fk = ds.foreign_keys()[0].fk_column;
  const Table* r = *ds.AttributeTableFor(fk);
  const std::string csv = ::testing::TempDir() + "/hamlet_catalogue_r.csv";
  ASSERT_TRUE(WriteCsv(*r, csv).ok());
  auto read = ReadCsv(csv, r->name(), r->schema());
  ASSERT_TRUE(read.ok()) << read.status();
  std::filesystem::remove(csv);

  const std::string rid =
      r->schema().column(*r->schema().PrimaryKeyIndex()).name;
  ASSERT_TRUE(HashJoin(ds.entity(), *r, fk, rid).ok());

  SimConfig sim;
  sim.n_s = 200;
  sim.n_r = 20;
  MonteCarloOptions mc;
  mc.num_training_sets = 4;
  mc.num_repeats = 1;
  ASSERT_TRUE(RunMonteCarlo(sim, mc).ok());
  AddSpans(obs::Tracer::Global().Collect(), spans);
}

void RunServePass(EmittedSpans* spans) {
  const std::string root = ::testing::TempDir() + "/hamlet_catalogue_store";
  std::filesystem::remove_all(root);
  {
    serve::ArtifactStore store(root);
    const EncodedDataset data = ServeData(1, 400);
    ASSERT_TRUE(store.PutDataset("d", data).ok());

    obs::ScopedCollection window(true);
    serve::HamletService service(&store);
    serve::SelectFeaturesRequest select;
    select.dataset = "d";
    select.model_name = "m";
    ASSERT_TRUE(service.SelectFeatures(std::move(select)).ok());

    serve::ScoreRequest score;
    score.model = "m";
    score.rows = std::make_shared<const EncodedDataset>(ServeData(2, 64));
    ASSERT_TRUE(service.Score(score).ok());
    // The dispatcher's warm cache keeps later passes away from the
    // store; the direct path resolves through the store's model cache.
    ASSERT_TRUE(service.ScoreBatchDirect({score}).ok());

    serve::AdviseRequest advise;
    advise.n_train = 1000;
    CandidateTableStats table;
    table.fk_column = "FK";
    table.table_name = "R";
    table.num_rows = 10;
    advise.candidates.push_back(table);
    ASSERT_TRUE(service.Advise(std::move(advise)).ok());
    service.Stop();
    AddSpans(obs::Tracer::Global().Collect(), spans);
  }
  std::filesystem::remove_all(root);
}

std::string Describe(const NameSet& names) {
  std::string out;
  for (const std::string& name : names) out += "\n  " + name;
  return out;
}

void ExpectSameNames(const NameSet& documented, const NameSet& emitted,
                     const std::string& kind) {
  NameSet undocumented, never_emitted;
  for (const std::string& name : emitted) {
    if (documented.count(name) == 0) undocumented.insert(name);
  }
  for (const std::string& name : documented) {
    if (emitted.count(name) == 0) never_emitted.insert(name);
  }
  EXPECT_TRUE(undocumented.empty())
      << kind << " emitted but missing from docs/OBSERVABILITY.md:"
      << Describe(undocumented);
  EXPECT_TRUE(never_emitted.empty())
      << kind << " documented in docs/OBSERVABILITY.md but never emitted:"
      << Describe(never_emitted);
}

TEST(ObservabilityCatalogueTest, DocumentedNamesMatchEmittedNames) {
  std::ifstream in(HAMLET_OBSERVABILITY_DOC);
  ASSERT_TRUE(in.is_open()) << HAMLET_OBSERVABILITY_DOC;
  std::ostringstream doc;
  doc << in.rdbuf();
  const NameSet documented_metrics =
      DocumentedNames(doc.str(), "Metrics catalogue");
  const NameSet documented_spans =
      DocumentedNames(doc.str(), "Span catalogue");
  ASSERT_FALSE(documented_metrics.empty());
  ASSERT_FALSE(documented_spans.empty());

  auto ds = MakeDataset("Walmart", 0.01, 3);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EmittedSpans spans;
  RunTracedPipelines(*ds, &spans);
  RunIngestJoinAndSimulation(*ds, &spans);
  RunServePass(&spans);

  NameSet metrics;
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    if (!IsTestName(c.name)) metrics.insert(c.name);
  }
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (!IsTestName(h.name)) metrics.insert(h.name);
  }
  NameSet span_names;
  for (const auto& [name, keys] : spans.keys) span_names.insert(name);
  ExpectSameNames(documented_metrics, metrics, "metric(s)");
  ExpectSameNames(documented_spans, span_names, "span(s)");

  const SpanAttrs documented_attrs = DocumentedSpanAttrs(doc.str(), 2);
  const SpanAttrs documented_ids = DocumentedSpanAttrs(doc.str(), 3);
  for (const auto& [name, keys] : spans.keys) {
    const auto it = documented_attrs.find(name);
    if (it == documented_attrs.end()) continue;  // Reported above.
    ExpectSameNames(it->second, keys, "attribute(s) of span `" + name + "`");
    ExpectSameNames(documented_ids.at(name), spans.ids.at(name),
                    "identifier attribute(s) of span `" + name + "`");
  }
}

}  // namespace
}  // namespace hamlet
