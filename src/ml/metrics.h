// Evaluation metrics.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ml/model.h"
#include "storage/schema.h"

namespace corgipile {

/// Aggregate evaluation over a tuple set.
struct EvalResult {
  double mean_loss = 0.0;
  /// Classification: fraction correct. Regression: coefficient of
  /// determination R² (the paper reports R² for linear regression, §7.4.2).
  double metric = 0.0;
  uint64_t count = 0;
};

/// Evaluates `model` on `tuples`. `label_type` selects the metric.
EvalResult Evaluate(const Model& model, const std::vector<Tuple>& tuples,
                    LabelType label_type);

/// Streaming counterpart of Evaluate() for paths that receive predictions
/// one at a time and out of order (the serving engine's micro-batched
/// replies): accumulate (label, prediction, loss, correct) observations,
/// then Finalize. R² is computed from running sums, so it can differ from
/// the two-pass Evaluate() by floating-point rounding only.
class EvalAccumulator {
 public:
  void Add(double label, double prediction, double loss, bool correct);
  EvalResult Finalize(LabelType label_type) const;

 private:
  uint64_t count_ = 0;
  uint64_t correct_ = 0;
  double loss_sum_ = 0.0;
  double y_sum_ = 0.0;
  double y_sq_sum_ = 0.0;
  double ss_res_ = 0.0;
};

/// Detailed binary-classification report (labels in {-1, +1}; the model's
/// Predict() is the decision score).
struct BinaryReport {
  uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  /// Area under the ROC curve of the raw scores (ties averaged).
  double auc = 0.0;

  uint64_t total() const { return tp + fp + tn + fn; }
  double accuracy() const {
    return total() ? static_cast<double>(tp + tn) / total() : 0.0;
  }
  double precision() const {
    return tp + fp ? static_cast<double>(tp) / (tp + fp) : 0.0;
  }
  double recall() const {
    return tp + fn ? static_cast<double>(tp) / (tp + fn) : 0.0;
  }
  double f1() const {
    const double p = precision(), r = recall();
    return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  }
};

/// Streaming form of EvaluateBinaryDetailed: scores one row at a time
/// and keeps only (score, label) pairs for the AUC, so a scan can feed it
/// without materializing the table. Finalize() once, after the last Add.
class BinaryScorer {
 public:
  explicit BinaryScorer(const Model& model) : model_(model) {}

  void Reserve(size_t n) { scored_.reserve(n); }
  void Add(const RowView& r);
  BinaryReport Finalize();

 private:
  const Model& model_;
  BinaryReport report_;
  std::vector<std::pair<double, bool>> scored_;  // (score, is_positive)
};

/// One-shot BinaryScorer over `tuples`.
BinaryReport EvaluateBinaryDetailed(const Model& model,
                                    const std::vector<Tuple>& tuples);

}  // namespace corgipile
