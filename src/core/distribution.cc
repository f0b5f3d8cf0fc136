#include "core/distribution.h"

#include <cmath>

#include "util/stats.h"

namespace corgipile {

Result<EmissionTrace> TraceEpoch(TupleStream* stream, uint64_t epoch) {
  if (stream == nullptr) return Status::InvalidArgument("null stream");
  CORGI_RETURN_NOT_OK(stream->StartEpoch(epoch));
  EmissionTrace trace;
  TupleBatch batch;
  while (stream->NextBatch(&batch)) {
    trace.ids.insert(trace.ids.end(), batch.ids_data(),
                     batch.ids_data() + batch.size());
    trace.labels.insert(trace.labels.end(), batch.labels_data(),
                        batch.labels_data() + batch.size());
  }
  CORGI_RETURN_NOT_OK(stream->status());
  return trace;
}

WindowLabelCounts CountLabelsPerWindow(const EmissionTrace& trace,
                                       uint64_t window) {
  WindowLabelCounts counts;
  if (window == 0) return counts;
  const size_t n = trace.labels.size();
  for (size_t start = 0; start < n; start += window) {
    uint64_t neg = 0, pos = 0;
    const size_t end = std::min(n, start + static_cast<size_t>(window));
    for (size_t i = start; i < end; ++i) {
      if (trace.labels[i] < 0) {
        ++neg;
      } else {
        ++pos;
      }
    }
    counts.negatives.push_back(neg);
    counts.positives.push_back(pos);
  }
  return counts;
}

RandomnessStats ComputeRandomnessStats(const EmissionTrace& trace,
                                       uint64_t window) {
  RandomnessStats stats;
  const size_t n = trace.ids.size();
  if (n < 2) return stats;

  std::vector<double> pos(n), ids(n);
  double disp = 0.0;
  for (size_t i = 0; i < n; ++i) {
    pos[i] = static_cast<double>(i);
    ids[i] = static_cast<double>(trace.ids[i]);
    disp += std::abs(pos[i] - ids[i]);
  }
  stats.position_id_correlation = PearsonCorrelation(pos, ids);
  stats.mean_normalized_displacement =
      disp / (static_cast<double>(n) * static_cast<double>(n));

  const WindowLabelCounts counts = CountLabelsPerWindow(trace, window);
  if (!counts.negatives.empty() && window > 0) {
    double imbalance = 0.0;
    for (size_t w = 0; w < counts.negatives.size(); ++w) {
      const double total =
          static_cast<double>(counts.negatives[w] + counts.positives[w]);
      if (total == 0) continue;
      imbalance += std::abs(static_cast<double>(counts.negatives[w]) -
                            static_cast<double>(counts.positives[w])) /
                   total;
    }
    stats.mean_window_label_imbalance =
        imbalance / static_cast<double>(counts.negatives.size());
  }
  return stats;
}

}  // namespace corgipile
