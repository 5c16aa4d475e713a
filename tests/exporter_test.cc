#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "datasets/registry.h"
#include "json_reader.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

obs::HistogramSnapshot MakeHistogram(const std::string& name,
                                     const std::vector<uint64_t>& values) {
  obs::HistogramSnapshot h;
  h.name = name;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  for (const uint64_t v : values) {
    ++h.count;
    h.sum_nanos += v;
    ++h.buckets[obs::Histogram::BucketFor(v)];
  }
  return h;
}

obs::MetricsSnapshot MakeSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"fs.models_trained", 42});
  snap.counters.push_back({"join.rows_probed", 100000});
  snap.histograms.push_back(
      MakeHistogram("serve.score_ns", {4, 4, 100, 100, 100, 5000}));
  return snap;
}

TEST(JsonlExportTest, LineIsValidJsonWithTheDocumentedShape) {
  std::ostringstream os;
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 7, os);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "JSONL must be one line";

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("seq")->AsUInt(), 7u);
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("fs.models_trained")->AsUInt(), 42u);
  const JsonValue* hist = doc.Find("histograms")->Find("serve.score_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsUInt(), 6u);
  EXPECT_EQ(hist->Find("sum_ns")->AsUInt(), uint64_t{4 + 4 + 100 * 3 + 5000});
  EXPECT_NE(hist->Find("p50_ns"), nullptr);
  EXPECT_NE(hist->Find("p99_ns"), nullptr);
  // Sparse buckets: only the three non-empty buckets appear, as
  // [index, count] pairs.
  const JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->AsArray().size(), 3u);
  const auto& first = buckets->AsArray()[0].AsArray();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].AsUInt(), obs::Histogram::BucketFor(4));
  EXPECT_EQ(first[1].AsUInt(), 2u);
}

TEST(JsonlExportTest, SummaryAddsAStagesArray) {
  obs::TraceSummary summary;
  obs::StageStat stage;
  stage.name = "pipeline";
  stage.depth = 0;
  stage.count = 1;
  stage.total_seconds = 1.5;
  stage.self_seconds = 0.25;
  stage.numeric_attrs.push_back({"candidates", 17});
  summary.stages.push_back(stage);

  std::ostringstream os;
  obs::WriteSnapshotJsonl(MakeSnapshot(), &summary, 0, os);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &doc, &error)) << error;
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->AsArray().size(), 1u);
  const JsonValue& s = stages->AsArray()[0];
  EXPECT_EQ(s.Find("name")->AsString(), "pipeline");
  EXPECT_EQ(s.Find("count")->AsUInt(), 1u);
  EXPECT_DOUBLE_EQ(s.Find("total_seconds")->AsDouble(), 1.5);
  EXPECT_EQ(s.Find("attrs")->Find("candidates")->AsInt(), 17);
}

TEST(JsonlExportTest, RenderingIsDeterministicForASnapshot) {
  std::ostringstream a, b;
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 3, a);
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 3, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(JsonlExportTest, ExporterAppendsSequencedDiffableLines) {
  const std::string path =
      ::testing::TempDir() + "/hamlet_exporter_test.jsonl";
  obs::JsonlExporter exporter;
  ASSERT_TRUE(exporter.Open(path).ok());

  obs::MetricsSnapshot first = MakeSnapshot();
  ASSERT_TRUE(exporter.Flush(first).ok());
  // Counters are cumulative, so line N+1 minus line N is the window's
  // activity — simulate more work and flush again.
  obs::MetricsSnapshot second = MakeSnapshot();
  second.counters[0].value += 8;  // fs.models_trained: 42 -> 50
  ASSERT_TRUE(exporter.Flush(second).ok());
  EXPECT_EQ(exporter.lines_written(), 2u);

  std::ifstream in(path);
  std::string line1, line2, extra;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_FALSE(std::getline(in, extra));

  JsonValue doc1, doc2;
  ASSERT_TRUE(ParseJson(line1 + "\n", &doc1, nullptr));
  ASSERT_TRUE(ParseJson(line2 + "\n", &doc2, nullptr));
  EXPECT_EQ(doc1.Find("seq")->AsUInt(), 0u);
  EXPECT_EQ(doc2.Find("seq")->AsUInt(), 1u);
  const uint64_t c1 = doc1.Find("counters")->Find("fs.models_trained")->AsUInt();
  const uint64_t c2 = doc2.Find("counters")->Find("fs.models_trained")->AsUInt();
  EXPECT_EQ(c2 - c1, 8u);

  // Re-opening truncates and restarts the sequence: one run, one log.
  ASSERT_TRUE(exporter.Open(path).ok());
  ASSERT_TRUE(exporter.Flush(first).ok());
  std::ifstream again(path);
  ASSERT_TRUE(std::getline(again, line1));
  EXPECT_FALSE(std::getline(again, line2));
  ASSERT_TRUE(ParseJson(line1 + "\n", &doc1, nullptr));
  EXPECT_EQ(doc1.Find("seq")->AsUInt(), 0u);
}

TEST(JsonlExportTest, ClosedExporterFlushIsANoOp) {
  obs::JsonlExporter exporter;
  EXPECT_FALSE(exporter.is_open());
  EXPECT_TRUE(exporter.Flush(MakeSnapshot()).ok());
  EXPECT_EQ(exporter.lines_written(), 0u);
}

TEST(JsonlExportTest, TracedPipelineLineCarriesJoinStages) {
  // A traced JoinAll run writes one line whose `stages` array carries
  // the per-join facts of the KFK joins it executed (summed span
  // attributes), and whose join.probe_ns histogram saw every join.
  const std::string path =
      ::testing::TempDir() + "/hamlet_pipeline_stages.jsonl";
  auto ds = MakeDataset("Walmart", 0.02, 3);
  ASSERT_TRUE(ds.ok()) << ds.status();
  PipelineConfig config;
  config.enable_join_avoidance = false;  // JoinAll: every FK is joined.
  config.trace = true;
  config.metrics_jsonl_path = path;
  auto report = RunPipeline(*ds, config);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->tables_joined, 0u);

  std::ifstream in(path);
  std::string line, extra;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_FALSE(std::getline(in, extra)) << "one traced run, one line";
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(line + "\n", &doc, &error)) << error;
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  const JsonValue* kfk = nullptr;
  for (const JsonValue& stage : stages->AsArray()) {
    if (stage.Find("name")->AsString() != "join.kfk") continue;
    ASSERT_EQ(kfk, nullptr) << "the joins merge into one stage";
    kfk = &stage;
  }
  ASSERT_NE(kfk, nullptr);
  const uint64_t joins = report->tables_joined;
  const uint64_t entity_rows = ds->entity().num_rows();
  EXPECT_EQ(kfk->Find("count")->AsUInt(), joins);
  const JsonValue* attrs = kfk->Find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->Find("rows_probed")->AsUInt(), joins * entity_rows);
  EXPECT_EQ(attrs->Find("rows_emitted")->AsUInt(), joins * entity_rows);

  const JsonValue* probe = doc.Find("histograms")->Find("join.probe_ns");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->Find("count")->AsUInt(), joins);
}

}  // namespace
}  // namespace hamlet
