// Sample statistics for the benchmark report.
//
// Timings are reported as a median plus a tail percentile. The tail is the
// highest percentile on a fixed ladder (p50, p75, p90, p95, p99, p99.9),
// up to a per-workload cap, that still has at least ten samples beyond it,
// so a tail figure never rests on a handful of outliers. The cap is set
// well below what a workload's usual sample count supports, so the same
// percentile is reported run after run, and a faster commit (more samples)
// is compared on the same percentile as a slower one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 if empty.
double Quantile(std::vector<double> samples, double q);

double Median(const std::vector<double>& samples);

/// The tail percentile chosen by the ladder rule above, capped at
/// `max_percentile`; 0 when even the median lacks ten samples beyond it.
double TailPercentileFor(size_t n, double max_percentile = 99.9);

struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90; 0 = not enough samples
  double value = 0.0;
  size_t samples = 0;
};

/// Tail of `samples` under the ladder rule. With too few samples for any
/// ladder rung the value is the maximum and `percentile` is 0.
Tail TailOf(const std::vector<double>& samples,
            double max_percentile = 99.9);

/// "p90 of 123" style label for the human-readable summary.
std::string DescribeTail(const Tail& tail);

}  // namespace perfbench
