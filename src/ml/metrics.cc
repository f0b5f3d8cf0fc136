#include "ml/metrics.h"

#include <algorithm>

namespace corgipile {

EvalResult Evaluate(const Model& model, const std::vector<Tuple>& tuples,
                    LabelType label_type) {
  EvalResult r;
  r.count = tuples.size();
  if (tuples.empty()) return r;

  double loss_sum = 0.0;
  if (label_type == LabelType::kContinuous) {
    // R² = 1 − SS_res / SS_tot.
    double y_sum = 0.0;
    for (const Tuple& t : tuples) y_sum += t.label;
    const double y_mean = y_sum / static_cast<double>(tuples.size());
    double ss_res = 0.0, ss_tot = 0.0;
    for (const Tuple& t : tuples) {
      loss_sum += model.Loss(t);
      const double pred = model.Predict(t);
      ss_res += (t.label - pred) * (t.label - pred);
      ss_tot += (t.label - y_mean) * (t.label - y_mean);
    }
    r.metric = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
  } else {
    uint64_t correct = 0;
    for (const Tuple& t : tuples) {
      loss_sum += model.Loss(t);
      if (model.Correct(t)) ++correct;
    }
    r.metric = static_cast<double>(correct) / static_cast<double>(tuples.size());
  }
  r.mean_loss = loss_sum / static_cast<double>(tuples.size());
  return r;
}

void EvalAccumulator::Add(double label, double prediction, double loss,
                          bool correct) {
  ++count_;
  if (correct) ++correct_;
  loss_sum_ += loss;
  y_sum_ += label;
  y_sq_sum_ += label * label;
  ss_res_ += (label - prediction) * (label - prediction);
}

EvalResult EvalAccumulator::Finalize(LabelType label_type) const {
  EvalResult r;
  r.count = count_;
  if (count_ == 0) return r;
  const double n = static_cast<double>(count_);
  r.mean_loss = loss_sum_ / n;
  if (label_type == LabelType::kContinuous) {
    const double y_mean = y_sum_ / n;
    const double ss_tot = y_sq_sum_ - n * y_mean * y_mean;
    r.metric = ss_tot > 0.0 ? 1.0 - ss_res_ / ss_tot : 0.0;
  } else {
    r.metric = static_cast<double>(correct_) / n;
  }
  return r;
}

void BinaryScorer::Add(const RowView& r) {
  const double score = model_.Predict(r);
  const bool positive = r.label > 0;
  const bool predicted_positive = score >= 0;
  if (positive && predicted_positive) ++report_.tp;
  else if (positive) ++report_.fn;
  else if (predicted_positive) ++report_.fp;
  else ++report_.tn;
  scored_.emplace_back(score, positive);
}

BinaryReport BinaryScorer::Finalize() {
  BinaryReport report = report_;
  // AUC via the rank-sum (Mann–Whitney) statistic with tie handling.
  const uint64_t pos = report.tp + report.fn;
  const uint64_t neg = report.fp + report.tn;
  if (pos == 0 || neg == 0) {
    report.auc = 0.0;
    return report;
  }
  std::sort(scored_.begin(), scored_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < scored_.size()) {
    size_t j = i;
    while (j < scored_.size() && scored_[j].first == scored_[i].first) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + 1 + j);  // 1-based
    for (size_t k = i; k < j; ++k) {
      if (scored_[k].second) rank_sum_pos += avg_rank;
    }
    i = j;
  }
  report.auc = (rank_sum_pos - 0.5 * pos * (pos + 1)) /
               (static_cast<double>(pos) * static_cast<double>(neg));
  return report;
}

BinaryReport EvaluateBinaryDetailed(const Model& model,
                                    const std::vector<Tuple>& tuples) {
  BinaryScorer scorer(model);
  scorer.Reserve(tuples.size());
  for (const Tuple& t : tuples) scorer.Add(t);
  return scorer.Finalize();
}

}  // namespace corgipile
