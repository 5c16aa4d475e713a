#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/// \file spans.h
/// The benchmark's own span log. The benchmark opens a span around each
/// call it makes into a Hamlet layer; the spans stay in memory and are
/// written out once, when the run ends. Single-threaded by design: every
/// span is opened on the benchmark's main thread, so the parent is the
/// innermost open span.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root.
    double start_s = 0;
    double end_s = 0;
  };

  /// Per span name: how often it ran, its total time, and its self time
  /// (duration minus the time its child spans cover).
  struct Rollup {
    uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// RAII span; a null log makes it a no-op, so untraced code paths can
  /// pass nullptr and run unchanged.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name)
        : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
    ~Scope() {
      if (log_ != nullptr) log_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Id of this span (0 when the log is null).
    uint64_t id() const {
      return log_ != nullptr ? log_->spans_[index_].id : 0;
    }
    double start_s() const {
      return log_ != nullptr ? log_->spans_[index_].start_s : 0.0;
    }

   private:
    SpanLog* log_;
    size_t index_;
  };

  /// Records a finished child of `parent` whose duration a layer reported
  /// itself (e.g. the search and final-fit split of a feature selection
  /// run), laid out from `start_s`.
  void AddReported(const char* name, uint64_t parent, double start_s,
                   double seconds) {
    spans_.push_back({name, next_id_++, parent, start_s, start_s + seconds});
  }

  /// Number of spans recorded so far; pass it to Rollups to roll up only
  /// the spans recorded after this point.
  size_t size() const { return spans_.size(); }

  std::map<std::string, Rollup> Rollups(size_t first = 0) const {
    std::map<uint64_t, double> child_time;
    for (size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, Rollup> out;
    for (size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Rollup& r = out[s.name];
      const double total = s.end_s - s.start_s;
      const auto it = child_time.find(s.id);
      const double children = it == child_time.end() ? 0.0 : it->second;
      ++r.calls;
      r.total_s += total;
      r.self_s += total > children ? total - children : 0.0;
    }
    return out;
  }

  /// Writes the spans as Chrome trace_event JSON (microseconds, one
  /// complete event per span) to `path` through a temporary file and a
  /// rename, so a killed run never leaves a truncated file. Returns false
  /// on any I/O failure.
  bool WriteChromeTrace(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), (s.start_s - t0) * 1e6,
                   (s.end_s - s.start_s) * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::remove(tmp.c_str());
      return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
  }

 private:
  size_t Open(const char* name) {
    const uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
    spans_.push_back({name, next_id_++, parent, NowSeconds(), 0.0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(size_t index) {
    spans_[index].end_s = NowSeconds();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;  // Indices of the open spans, innermost last.
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
