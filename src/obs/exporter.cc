#include "obs/exporter.h"

#include "common/json_writer.h"
#include "common/string_util.h"

namespace hamlet::obs {

namespace {

void WriteHistogramJson(JsonWriter& w, const HistogramSnapshot& h) {
  w.BeginObject();
  w.Key("count");
  w.UInt(h.count);
  w.Key("sum_ns");
  w.UInt(h.sum_nanos);
  w.Key("p50_ns");
  w.UInt(h.PercentileNanos(0.50));
  w.Key("p90_ns");
  w.UInt(h.PercentileNanos(0.90));
  w.Key("p99_ns");
  w.UInt(h.PercentileNanos(0.99));
  // Sparse buckets: [index, count] pairs for non-empty buckets only.
  // Indices are into the shared log-linear layout
  // (common/histogram_buckets.h); lower bound = BucketLowerBound(index).
  w.Key("buckets");
  w.BeginArray();
  for (uint32_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    w.BeginArray();
    w.UInt(b);
    w.UInt(h.buckets[b]);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteSnapshotJsonl(const MetricsSnapshot& snapshot,
                        const TraceSummary* summary, uint64_t seq,
                        std::ostream& os) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("seq");
  w.UInt(seq);
  w.Key("counters");
  w.BeginObject();
  for (const CounterSnapshot& c : snapshot.counters) {
    w.Key(c.name);
    w.UInt(c.value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    w.Key(h.name);
    WriteHistogramJson(w, h);
  }
  w.EndObject();
  if (summary != nullptr) {
    w.Key("stages");
    w.BeginArray();
    for (const StageStat& stage : summary->stages) {
      w.BeginObject();
      w.Key("name");
      w.String(stage.name);
      w.Key("depth");
      w.UInt(stage.depth);
      w.Key("count");
      w.UInt(stage.count);
      w.Key("total_seconds");
      w.Double(stage.total_seconds);
      w.Key("self_seconds");
      w.Double(stage.self_seconds);
      if (!stage.numeric_attrs.empty()) {
        w.Key("attrs");
        w.BeginObject();
        for (const auto& [key, value] : stage.numeric_attrs) {
          w.Key(key);
          w.Int(value);
        }
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  os << '\n';
}

Status JsonlExporter::Open(const std::string& path) {
  // Re-opening (a new collection window, or a test reusing the
  // exporter) starts a fresh log: close the old stream and clear any
  // sticky error bits before opening the new target.
  if (out_.is_open()) out_.close();
  out_.clear();
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_.is_open()) {
    return Status::IOError(
        StringFormat("cannot open metrics JSONL file: %s", path.c_str()));
  }
  path_ = path;
  seq_ = 0;
  return Status::OK();
}

Status JsonlExporter::Flush(const MetricsSnapshot& snapshot,
                            const TraceSummary* summary) {
  if (!out_.is_open()) return Status::OK();
  WriteSnapshotJsonl(snapshot, summary, seq_, out_);
  out_.flush();
  if (!out_.good()) {
    return Status::IOError(
        StringFormat("write failed: %s", path_.c_str()));
  }
  ++seq_;
  return Status::OK();
}

}  // namespace hamlet::obs
