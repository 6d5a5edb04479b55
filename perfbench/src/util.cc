#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void DieIf(const netclus::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

void Params::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

double Params::Num(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) Die("missing workload parameter '" + key + "'");
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    Die("parameter '" + key + "' is not a number: " + it->second);
  }
  return v;
}

uint64_t Params::Int(const std::string& key) const {
  double v = Num(key);
  if (v < 0 || v != std::floor(v)) {
    Die("parameter '" + key + "' is not a whole number");
  }
  return static_cast<uint64_t>(v);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

double Metrics::Get(const std::string& name, double fallback) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items_[i].name) + ": {\"value\": " +
           JsonNumber(items_[i].value) +
           ", \"unit\": " + JsonString(items_[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Zipf::Zipf(uint64_t n, double s) {
  cdf_.resize(n);
  double sum = 0.0;
  for (uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(netclus::Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace perfbench
