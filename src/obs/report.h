#ifndef HAMLET_OBS_REPORT_H_
#define HAMLET_OBS_REPORT_H_

/// \file report.h
/// Exporters for collected traces: the analyst-facing `explain`-style
/// stage tree (rendered through TablePrinter), the compact TraceSummary
/// that run reports embed, and machine-readable Chrome trace_event JSON
/// (load it in chrome://tracing or https://ui.perfetto.dev). See
/// docs/OBSERVABILITY.md for how to read each output.

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet::obs {

/// One aggregated stage of the explain tree: every span with the same
/// name under the same parent stage is merged (a greedy search's N
/// `fs.step` spans become one row with count = N and summed times).
struct StageStat {
  std::string name;
  uint32_t depth = 0;      ///< Root stages are depth 0.
  uint64_t count = 0;      ///< Spans merged into this stage.
  double total_seconds = 0.0;
  double self_seconds = 0.0;  ///< total minus child stages (>= 0).
  /// Numeric attributes summed across the merged spans, in first-seen
  /// key order.
  std::vector<std::pair<std::string, int64_t>> numeric_attrs;
};

/// Per-stage seconds + counters: the digest of a collected trace that a
/// traced PipelineReport carries and the JSONL export writes as its
/// `stages` array.
struct TraceSummary {
  std::vector<StageStat> stages;  ///< Depth-first (tree) order.
  std::vector<CounterSnapshot> counters;
  double total_seconds = 0.0;  ///< Sum of root-stage totals.

  /// Seconds of the first stage with this name (0 when absent).
  double StageSeconds(const std::string& name) const;
};

/// Aggregates a collected trace into the stage tree (no counters).
TraceSummary SummarizeTrace(const Trace& trace);

/// Same, folding in a metrics snapshot's counters.
TraceSummary SummarizeTrace(const Trace& trace,
                            const MetricsSnapshot& metrics);

/// Renders the `explain`-style tree: one TablePrinter row per stage with
/// count, total/self seconds, share of the trace, and summed attributes.
std::string RenderExplainTree(const Trace& trace);

/// Writes the trace as Chrome trace_event JSON ("traceEvents" of
/// complete "ph":"X" events; tid = pool worker id).
void WriteChromeTraceJson(const Trace& trace, std::ostream& os);

/// WriteChromeTraceJson into a file.
Status WriteChromeTraceFile(const Trace& trace, const std::string& path);

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_REPORT_H_
