#include "common/stats.h"

#include <cmath>

namespace netclus {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SlidingWindowMean::Add(double x) {
  window_.push_back(x);
  sum_ += x;
  if (window_.size() > capacity_) {
    sum_ -= window_.front();
    window_.pop_front();
  }
}

double SlidingWindowMean::mean() const {
  if (window_.empty()) return 0.0;
  return sum_ / static_cast<double>(window_.size());
}

}  // namespace netclus
