#include "obs/report.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace hamlet::obs {

namespace {

// One merged stage while aggregating: all spans sharing a name under the
// same parent stage fold into one node, children in first-seen order.
struct StageNode {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;
  std::vector<std::pair<std::string, int64_t>> numeric_attrs;
  std::vector<std::unique_ptr<StageNode>> children;

  StageNode* FindOrAddChild(const std::string& child_name) {
    for (auto& child : children) {
      if (child->name == child_name) return child.get();
    }
    children.push_back(std::make_unique<StageNode>());
    children.back()->name = child_name;
    return children.back().get();
  }

  void MergeEvent(const TraceEvent& event) {
    ++count;
    total_seconds += event.Seconds();
    for (const TraceAttr& attr : event.attrs) {
      // Counts sum; an identifier names one span and means nothing
      // summed, so the merged stage leaves it out.
      if (!attr.is_number || attr.kind == AttrKind::kId) continue;
      auto it = std::find_if(
          numeric_attrs.begin(), numeric_attrs.end(),
          [&](const auto& entry) { return entry.first == attr.key; });
      if (it == numeric_attrs.end()) {
        numeric_attrs.emplace_back(attr.key, attr.number);
      } else {
        it->second += attr.number;
      }
    }
  }
};

// Events are sorted by start time, so a span's parent (which started
// earlier) is always merged before the span itself; orphans (parent 0 or
// a parent outside the collection window) root at the top.
StageNode BuildStageTree(const Trace& trace) {
  StageNode root;
  std::unordered_map<uint64_t, StageNode*> merged_into;
  merged_into.reserve(trace.events.size());
  for (const TraceEvent& event : trace.events) {
    StageNode* parent = &root;
    auto it = merged_into.find(event.parent_id);
    if (event.parent_id != 0 && it != merged_into.end()) {
      parent = it->second;
    }
    StageNode* node = parent->FindOrAddChild(event.name);
    node->MergeEvent(event);
    merged_into[event.id] = node;
  }
  return root;
}

void FlattenStages(const StageNode& node, uint32_t depth,
                   std::vector<StageStat>* out) {
  double children_seconds = 0.0;
  for (const auto& child : node.children) {
    children_seconds += child->total_seconds;
  }
  StageStat stat;
  stat.name = node.name;
  stat.depth = depth;
  stat.count = node.count;
  stat.total_seconds = node.total_seconds;
  stat.self_seconds = std::max(0.0, node.total_seconds - children_seconds);
  stat.numeric_attrs = node.numeric_attrs;
  out->push_back(std::move(stat));
  for (const auto& child : node.children) {
    FlattenStages(*child, depth + 1, out);
  }
}

std::string AttrsToString(
    const std::vector<std::pair<std::string, int64_t>>& attrs) {
  std::string out;
  for (const auto& [key, value] : attrs) {
    if (!out.empty()) out += ", ";
    out += StringFormat("%s=%lld", key.c_str(),
                        static_cast<long long>(value));
  }
  return out;
}

}  // namespace

double TraceSummary::StageSeconds(const std::string& name) const {
  for (const StageStat& stage : stages) {
    if (stage.name == name) return stage.total_seconds;
  }
  return 0.0;
}

TraceSummary SummarizeTrace(const Trace& trace) {
  TraceSummary summary;
  const StageNode root = BuildStageTree(trace);
  for (const auto& child : root.children) {
    FlattenStages(*child, 0, &summary.stages);
    summary.total_seconds += child->total_seconds;
  }
  return summary;
}

TraceSummary SummarizeTrace(const Trace& trace,
                            const MetricsSnapshot& metrics) {
  TraceSummary summary = SummarizeTrace(trace);
  summary.counters = metrics.counters;
  return summary;
}

std::string RenderExplainTree(const Trace& trace) {
  const TraceSummary summary = SummarizeTrace(trace);
  TablePrinter table(
      {"Stage", "Count", "Total (s)", "Self (s)", "%", "Attributes"});
  for (const StageStat& stage : summary.stages) {
    const double share =
        summary.total_seconds > 0.0
            ? 100.0 * stage.total_seconds / summary.total_seconds
            : 0.0;
    std::string label(stage.depth * 2, ' ');
    label += stage.name;
    table.AddRow({std::move(label),
                  std::to_string(stage.count),
                  StringFormat("%.4f", stage.total_seconds),
                  StringFormat("%.4f", stage.self_seconds),
                  StringFormat("%5.1f", share),
                  AttrsToString(stage.numeric_attrs)});
  }
  return table.ToString();
}

void WriteChromeTraceJson(const Trace& trace, std::ostream& os) {
  JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("displayTimeUnit");
  writer.String("ms");
  writer.Key("traceEvents");
  writer.BeginArray();
  // Metadata ("ph":"M") events first: name the process and every thread
  // lane that appears in the trace, so the viewer shows "main" /
  // "pool-worker-N" instead of bare tids. Worker ids are assigned once
  // at worker startup and never reused (ThreadPool::CurrentWorkerId),
  // so the lane naming is stable across traces from one process. The
  // sorted-set iteration keeps the event order deterministic.
  const auto write_metadata = [&writer](const char* meta, const uint32_t* tid,
                                        const std::string& value) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(meta);
    writer.Key("ph");
    writer.String("M");
    writer.Key("pid");
    writer.Int(1);
    if (tid != nullptr) {
      writer.Key("tid");
      writer.Int(*tid);
    }
    writer.Key("args");
    writer.BeginObject();
    writer.Key("name");
    writer.String(value);
    writer.EndObject();
    writer.EndObject();
  };
  write_metadata("process_name", nullptr, "hamlet");
  std::set<uint32_t> worker_ids;
  for (const TraceEvent& event : trace.events) {
    worker_ids.insert(event.worker_id);
  }
  for (const uint32_t id : worker_ids) {
    write_metadata("thread_name", &id,
                   id == 0 ? std::string("main")
                           : StringFormat("pool-worker-%u", id));
  }
  for (const TraceEvent& event : trace.events) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(event.name);
    writer.Key("cat");
    writer.String("hamlet");
    writer.Key("ph");
    writer.String("X");
    // trace_event timestamps are microseconds.
    writer.Key("ts");
    writer.Double(static_cast<double>(event.start_ns) / 1e3);
    writer.Key("dur");
    writer.Double(static_cast<double>(event.end_ns - event.start_ns) /
                  1e3);
    writer.Key("pid");
    writer.Int(1);
    writer.Key("tid");
    writer.Int(event.worker_id);
    writer.Key("args");
    writer.BeginObject();
    writer.Key("span_id");
    writer.UInt(event.id);
    writer.Key("parent_id");
    writer.UInt(event.parent_id);
    for (const TraceAttr& attr : event.attrs) {
      writer.Key(attr.key);
      if (attr.is_number) {
        writer.Int(attr.number);
      } else {
        writer.String(attr.text);
      }
    }
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  os << '\n';
}

Status WriteChromeTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError(
        StringFormat("cannot open '%s' for writing", path.c_str()));
  }
  WriteChromeTraceJson(trace, out);
  out.flush();
  if (!out.good()) {
    return Status::IOError(
        StringFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace hamlet::obs
