// Benchmark-side span recorder. Spans are recorded by the benchmark's own
// code around each call into a library layer; their names carry the layer
// prefix ("core.build", "codegen.jit", "solver.cg", "kernels.spmv", ...).
// Spans nest through a per-thread stack of open spans, so each span knows
// the span that caused it; spans that cross threads (a serve request from
// submit to resolve) are added after the fact with an explicit parent and a
// request id. Everything stays in memory and is written as one Chrome-trace
// file when the run ends.
//
// When tracing is off, opening a span is one branch on a plain bool.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::uint64_t now_ns();

inline double seconds_since(std::uint64_t t0_ns) {
  return double(now_ns() - t0_ns) * 1e-9;
}

struct SpanRecord {
  const char* name = nullptr;  ///< string literal, "<layer>.<what>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int id = 0;
  int parent = -1;             ///< -1 for a root span
  std::int64_t request = -1;   ///< serve request id, -1 if none
  int tid = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// open on this thread. Returns the span id.
  int open(const char* name);
  /// Closes the span `id` (must be the innermost open span of the thread).
  void close(int id);
  /// Records a finished span with an explicit parent (cross-thread spans).
  /// Returns its id.
  int add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           int parent, std::int64_t request);
  /// The innermost span open on the calling thread, -1 if none.
  int current() const;

  /// Sum of durations (s) of every span called `name`.
  double total_seconds(const char* name) const;
  /// Per-span durations (s) of every span called `name`, in record order.
  std::vector<double> durations(const char* name) const;
  /// Self time (s) summed per layer prefix: each span's duration minus the
  /// union of its direct children's intervals.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Self time (s) summed over every span called `name`.
  double self_seconds(const char* name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// parent and request ids travel in "args".
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<double> self_per_span() const;

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/// RAII span; no-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void end() {
    if (id_ >= 0) {
      tracer().close(id_);
      id_ = -1;
    }
  }

 private:
  int id_;
};

}  // namespace perfbench
