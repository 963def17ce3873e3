// common.h - Clock, sample statistics and the metric report shared by the
// live-pool benchmark's phases.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace perfbench {

/// Seconds on the process-wide steady timebase the daemon's spans use, so
/// generator stamps and daemon spans subtract directly.
inline double now() { return obs::steadyNowSeconds(); }

/// A bag of observations with exact order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const {
    double s = 0.0;
    for (const double v : values_) s += v;
    return s;
  }
  double mean() const { return empty() ? 0.0 : sum() / double(size()); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Median of a small vector (repeated timings).
inline double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A frozen copy of one registry histogram, so a measured window can be
/// taken as the difference of two snapshots.
struct HistSnap {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;

  static HistSnap of(obs::Histogram* h) {
    return {h->bounds(), h->bucketCounts(), h->count(), h->sum()};
  }
  HistSnap minus(const HistSnap& earlier) const {
    HistSnap d = *this;
    d.count -= earlier.count;
    d.sum -= earlier.sum;
    for (std::size_t i = 0; i < d.buckets.size() && i < earlier.buckets.size();
         ++i) {
      d.buckets[i] -= earlier.buckets[i];
    }
    return d;
  }
  double mean() const { return count ? sum / double(count) : 0.0; }
  /// Bucket-interpolated quantile (the registry's estimate, on a window).
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const double rank = q * double(count);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const double next = seen + double(buckets[i]);
      if (next >= rank && buckets[i] > 0) {
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = i < bounds.size() ? bounds[i] : bounds.back();
        return lo + (hi - lo) * ((rank - seen) / double(buckets[i]));
      }
      seen = next;
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }
};

/// Every metric a run produced, in insertion order, with unit and sample
/// count. Printed as a table; the final JSON line picks a subset.
class Report {
 public:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    if (!std::isfinite(value)) value = 0.0;
    for (Row& r : rows_) {
      if (r.name == name) {
        r = {name, value, unit, samples};
        return;
      }
    }
    rows_.push_back({name, value, unit, samples});
  }
  const Row* find(const std::string& name) const {
    for (const Row& r : rows_) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }
  double value(const std::string& name) const {
    const Row* r = find(name);
    return r ? r->value : 0.0;
  }
  const std::vector<Row>& rows() const { return rows_; }

  void printTable(std::FILE* out, const std::string& title) const {
    std::fprintf(out, "== %s\n", title.c_str());
    for (const Row& r : rows_) {
      std::fprintf(out, "  %-40s %16.6f %-8s n=%zu\n", r.name.c_str(), r.value,
                   r.unit.c_str(), r.samples);
    }
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace perfbench
