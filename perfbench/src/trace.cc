#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> open;  ///< stack of open Span ids
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

// The registry owns every buffer, so a buffer outlives its thread and
// is read after that thread has been joined.
ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::make_unique<ThreadBuffer>());
    buf = Registry().back().get();
  }
  return *buf;
}

}  // namespace

void Tracer::SetEnabled(bool on) { g_enabled.store(on); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t Tracer::NewId() { return g_next_id.fetch_add(1); }

void Tracer::Record(uint64_t id, const char* name, double start, double end,
                    uint64_t parent, uint64_t request) {
  if (!enabled()) return;
  LocalBuffer().spans.push_back(
      SpanRecord{id, parent, request, name, start, end});
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const std::unique_ptr<ThreadBuffer>& b : Registry()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const std::unique_ptr<ThreadBuffer>& b : Registry()) b->spans.clear();
}

std::vector<SpanSummary> Tracer::Summarize() {
  std::vector<SpanRecord> spans = Collect();
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  struct Acc {
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Acc> by_name;
  for (const SpanRecord& s : spans) {
    const double dur = s.end - s.start;
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      bool open = false;
      for (const auto& [lo_raw, hi_raw] : iv) {
        double lo = std::max(lo_raw, s.start);
        double hi = std::min(hi_raw, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    Acc& a = by_name[s.name];
    ++a.count;
    a.total += dur;
    a.self += dur - covered;
    a.durations.push_back(dur);
  }
  std::vector<SpanSummary> out;
  for (auto& [name, a] : by_name) {
    out.push_back(SpanSummary{name, a.count, a.total * 1e3, a.self * 1e3,
                              Quantile(std::move(a.durations), 0.5) * 1e3});
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path, size_t max_spans) {
  std::vector<SpanRecord> spans = Collect();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start < b.start;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans_total\": %zu, \"spans_written\": %zu}\n",
               spans.size(), std::min(spans.size(), max_spans));
  if (spans.size() > max_spans) spans.resize(max_spans);
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.start,
                 s.end);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request, uint64_t parent)
    : name_(name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buf = LocalBuffer();
  id_ = Tracer::NewId();
  parent_ = parent != 0 ? parent : (buf.open.empty() ? 0 : buf.open.back());
  request_ = request;
  buf.open.push_back(id_);
  start_ = Now();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = Now();
  ThreadBuffer& buf = LocalBuffer();
  buf.open.pop_back();
  buf.spans.push_back(SpanRecord{id_, parent_, request_, name_, start_, end});
}

}  // namespace perfbench
