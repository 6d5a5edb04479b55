// In-memory span tracing for the benchmark's traced runs.
//
// The benchmark records a span around each of its calls into a netclus
// layer (graph, index, core, storage, server, net): name, start, end,
// parent span and a request id shared by every span of one request.
// Spans stay in per-thread buffers and are summarized or written out
// only after the measured phase, once the threads that recorded them
// have been joined. With tracing disabled a Span costs one load of a
// global flag.
//
// A span's self time is its duration minus the part of its interval
// covered by its child spans.
#ifndef NETCLUS_PERFBENCH_TRACE_H_
#define NETCLUS_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a request
  const char* name = "";
  double start = 0.0;    ///< seconds, perfbench::Now()
  double end = 0.0;
};

/// Per-name aggregate of the recorded spans.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  /// Fresh id for a span or a request (never 0).
  static uint64_t NewId();
  /// Records a finished span whose interval the caller measured itself
  /// (e.g. a request from its scheduled send to its observed completion).
  static void Record(uint64_t id, const char* name, double start, double end,
                     uint64_t parent, uint64_t request);
  /// Every recorded span, in no particular order. Call only while no
  /// thread is recording.
  static std::vector<SpanRecord> Collect();
  /// Per-name count, total, self time and median duration.
  static std::vector<SpanSummary> Summarize();
  /// Writes the first `max_spans` spans by start time, one JSON object
  /// per line after a header line giving the total; false on I/O error.
  static bool WriteJsonl(const std::string& path, size_t max_spans);
  /// Drops all recorded spans.
  static void Clear();
};

/// RAII span on the current thread. Nests under the thread's innermost
/// open Span unless an explicit parent is given.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0, uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  double start_ = 0.0;
};

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_TRACE_H_
