//===- Stats.h - Aggregation helpers for benchmark samples ------*- C++-*-===//
//
// Order statistics and means the benchmark reports. Percentiles are
// never pooled across cases of different cost: callers aggregate per case
// first (a mean, median or percentile over one model's ops) and only then
// combine cases with a geometric mean.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the two middle values for even sizes); 0 for
/// an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Arithmetic mean of \p V; 0 for an empty sample. Rates divide work by
/// the mean op time, not the median: on a shared host op times fall into
/// a fast and a slow mode, in stretches of seconds. The mean moves in
/// proportion to the slow share, while the median jumps from one mode to
/// the other as that share crosses one half.
inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / double(V.size());
}

/// First and third quartile with the 'exclusive' method of Python's
/// statistics.quantiles(V, n=4), so the steadiness script and the
/// benchmark agree on the numbers. Needs at least two samples; a single
/// sample is its own quartiles.
inline std::pair<double, double> quartiles(std::vector<double> V) {
  if (V.empty())
    return {0, 0};
  if (V.size() == 1)
    return {V[0], V[0]};
  std::sort(V.begin(), V.end());
  const int64_t Ld = int64_t(V.size()), M = Ld + 1, N = 4;
  double Q[2];
  for (int64_t I = 1; I <= 3; I += 2) {
    int64_t J = std::clamp<int64_t>(I * M / N, 1, Ld - 1);
    int64_t Delta = I * M - J * N;
    Q[I / 2] = (V[size_t(J - 1)] * double(N - Delta) +
                V[size_t(J)] * double(Delta)) /
               double(N);
  }
  return {Q[0], Q[1]};
}

/// Nearest-rank percentile (\p P in (0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// How many of \p N samples lie beyond the nearest-rank \p P percentile.
/// A percentile is only reported as resolved with at least ten.
inline int64_t samplesBeyond(size_t N, double P) {
  return int64_t(N) - int64_t(std::ceil(P / 100.0 * double(N)));
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive (a missing case must not read as a plausible rate).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / double(V.size()));
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
