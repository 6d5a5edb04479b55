#include "bench_common.h"

#include <stdio.h>  // popen / pclose

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "common/random.h"
#include "graph/network_distance.h"

namespace netclus {
namespace bench {

namespace {

/// Short commit hash stamped onto per-PR BENCH rows; "unknown" outside a
/// git checkout (e.g. an exported tarball).
std::string GitShaShort() {
  std::string sha;
  std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (p != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha.assign(buf);
    ::pclose(p);
  }
  while (!sha.empty() &&
         std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

std::string TodayIso() {
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm_buf);
  return buf;
}

}  // namespace

double BenchScale() {
  const char* env = std::getenv("NETCLUS_BENCH_SCALE");
  if (env == nullptr) return 0.1;
  double v = std::atof(env);
  if (v <= 0.0) return 0.1;
  return v > 1.0 ? 1.0 : v;
}

void BenchRecorder::Add(
    const std::string& bench, std::vector<double> wall_seconds,
    const TraversalCounters& traversal,
    const std::vector<std::pair<std::string, double>>& extra) {
  Entry e;
  e.bench = bench;
  e.traversal = traversal;
  e.extra = extra;
  if (!wall_seconds.empty()) {
    std::sort(wall_seconds.begin(), wall_seconds.end());
    size_t n = wall_seconds.size();
    e.median_seconds = wall_seconds[n / 2];
    e.p95_seconds = wall_seconds[std::min(n - 1, n * 95 / 100)];
  }
  entries_.push_back(std::move(e));
}

std::string BenchRecorder::JsonPath() const {
  const char* dir = std::getenv("NETCLUS_BENCH_JSON_DIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
         "/BENCH_" + name_ + ".json";
}

void BenchRecorder::EmitEntries(std::FILE* f, const char* indent) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f,
                 "%s{\"bench\": \"%s\", \"median_seconds\": %.9g, "
                 "\"p95_seconds\": %.9g, \"settled_nodes\": %llu, "
                 "\"heap_pops\": %llu, \"heap_pushes\": %llu, "
                 "\"points_examined\": %llu",
                 indent, e.bench.c_str(), e.median_seconds, e.p95_seconds,
                 static_cast<unsigned long long>(e.traversal.settled_nodes),
                 static_cast<unsigned long long>(e.traversal.heap_pops),
                 static_cast<unsigned long long>(e.traversal.heap_pushes),
                 static_cast<unsigned long long>(
                     e.traversal.points_examined));
    for (const auto& [key, value] : e.extra) {
      std::fprintf(f, ", \"%s\": %.9g", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
  }
}

std::string BenchRecorder::Write() const {
  std::string path = JsonPath();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  std::fprintf(f, "[\n");
  EmitEntries(f, "  ");
  std::fprintf(f, "]\n");
  std::fclose(f);
  return path;
}

std::string BenchRecorder::WriteAppend() const {
  std::string path = JsonPath();
  // Slurp any existing history so this run can be spliced onto it.
  std::string existing;
  if (std::FILE* in = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      existing.append(buf, n);
    }
    std::fclose(in);
  }
  while (!existing.empty() &&
         std::isspace(static_cast<unsigned char>(existing.back()))) {
    existing.pop_back();
  }
  // Only a well-formed run history (closed array whose objects carry a
  // "sha" key) is extended; the legacy flat-entry format and anything
  // truncated or unparseable are replaced by a fresh one-run history.
  bool splice = existing.size() > 1 && existing.front() == '[' &&
                existing.back() == ']' &&
                existing.find("\"sha\"") != std::string::npos;
  if (splice) {
    existing.pop_back();  // reopen the array
    while (!existing.empty() &&
           std::isspace(static_cast<unsigned char>(existing.back()))) {
      existing.pop_back();
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  if (splice) {
    std::fprintf(f, "%s,\n", existing.c_str());
  } else {
    std::fprintf(f, "[\n");
  }
  std::fprintf(f, "  {\"sha\": \"%s\", \"date\": \"%s\", \"entries\": [\n",
               GitShaShort().c_str(), TodayIso().c_str());
  EmitEntries(f, "    ");
  std::fprintf(f, "  ]}\n]\n");
  std::fclose(f);
  return path;
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& c : cells) {
    std::printf("%-*s", width, c.c_str());
  }
  std::printf("\n");
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

std::string Fmt(double x, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
  return buf;
}

double SampledEps(const NetworkView& view) {
  TraversalWorkspace ws(view.num_nodes());
  std::vector<double> sample;
  Rng rng(12);
  for (int i = 0; i < 64; ++i) {
    PointId p = static_cast<PointId>(rng.NextBounded(view.num_points()));
    PointId q = static_cast<PointId>(rng.NextBounded(view.num_points()));
    double d = PointNetworkDistance(view, view, p, q, &ws);
    if (d < kInfDist) sample.push_back(d);
  }
  std::sort(sample.begin(), sample.end());
  return 0.25 * sample[sample.size() / 2];
}

}  // namespace bench
}  // namespace netclus
