#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr double kLadderPercent[] = {99.9, 99, 95, 90, 75, 50};
constexpr size_t kMinBeyond = 10;

/// Samples ranked strictly above the interpolated q-quantile's position
/// q·(n−1).
size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  return n - 1 - static_cast<size_t>(std::floor(pos));
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double TailPercentileFor(size_t n, double max_percentile) {
  for (double p : kLadderPercent) {
    if (p <= max_percentile && SamplesBeyond(n, p / 100.0) >= kMinBeyond) {
      return p;
    }
  }
  return 0.0;
}

Tail TailOf(const std::vector<double>& samples, double max_percentile) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = TailPercentileFor(samples.size(), max_percentile);
  if (samples.empty()) return tail;
  tail.value = tail.percentile > 0.0
                   ? Quantile(samples, tail.percentile / 100.0)
                   : *std::max_element(samples.begin(), samples.end());
  return tail;
}

std::string DescribeTail(const Tail& tail) {
  char buf[64];
  if (tail.percentile > 0.0) {
    std::snprintf(buf, sizeof(buf), "p%g of %zu", tail.percentile,
                  tail.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "max of %zu", tail.samples);
  }
  return buf;
}

}  // namespace perfbench
