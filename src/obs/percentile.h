// Copyright 2026 mpqopt authors.
//
// The one shared percentile: sort-and-interpolate over a sample vector.
// Every consumer of tail latency in the repo — the CLI batch report,
// fig10, macrobench, and the bench JSON records — goes through this
// function, so "p99" means exactly the same rank statistic everywhere:
// linear interpolation at rank q/100 * (n-1) over the sorted samples
// (the same estimator NumPy calls "linear", its default).
//
// For streams too large (or too hot) to buffer, obs::Histogram offers
// the fixed-boundary counterpart; HistogramSnapshot::ValueAtQuantile
// interpolates inside the covering bucket instead of between samples.

#ifndef MPQOPT_OBS_PERCENTILE_H_
#define MPQOPT_OBS_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace mpqopt {
namespace obs {

/// Percentile `q` (0..100) of `values` by sorted linear interpolation;
/// 0 for an empty sample. Takes the vector by value: callers keep their
/// samples in arrival order, the copy is sorted here.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (q <= 0) return values.front();
  if (q >= 100) return values.back();
  const double rank =
      q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace obs
}  // namespace mpqopt

#endif  // MPQOPT_OBS_PERCENTILE_H_
