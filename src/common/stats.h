// Streaming summary statistics used by generators, benches, the server's
// latency means, and the interesting-level detector.
#ifndef NETCLUS_COMMON_STATS_H_
#define NETCLUS_COMMON_STATS_H_

#include <cstddef>
#include <deque>
#include <limits>

namespace netclus {

/// \brief Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n - 1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Mean over a sliding window of the last `capacity` samples.
///
/// Backs the paper's Section 5.3 detector: the average of the last K merge
/// distance *differences* is maintained incrementally.
class SlidingWindowMean {
 public:
  explicit SlidingWindowMean(size_t capacity) : capacity_(capacity) {}

  void Add(double x);
  size_t size() const { return window_.size(); }
  bool full() const { return window_.size() == capacity_; }
  /// Mean of the samples currently in the window; 0 when empty.
  double mean() const;

 private:
  size_t capacity_;
  std::deque<double> window_;
  double sum_ = 0.0;
};

}  // namespace netclus

#endif  // NETCLUS_COMMON_STATS_H_
