// Shared plumbing of the benchmark harness: command-line parameters,
// percentiles, the metric sink that becomes the result line, a Zipf
// sampler, and the fatal-error helper.
#ifndef NETCLUS_PERFBENCH_UTIL_H_
#define NETCLUS_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace perfbench {

/// Seconds on the monotonic clock every span and latency is stamped with.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// Prints `what` and the status to stderr and exits 1.
[[noreturn]] void Die(const std::string& what);
void DieIf(const netclus::Status& s, const std::string& what);

/// Workload parameters passed as `--set key=value` (perfbench/run.py
/// reads them from perfbench/workloads.json). A missing key is fatal.
class Params {
 public:
  void Set(const std::string& key, const std::string& value);
  double Num(const std::string& key) const;
  uint64_t Int(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; Set replaces an existing name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// Value of `name`, or `fallback` when absent.
  double Get(const std::string& name, double fallback = 0.0) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string Json() const;

 private:
  std::vector<Metric> items_;
};

/// Formats a double with every significant digit (round-trippable).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1 / (r+1)^s.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Sample(netclus::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_UTIL_H_
