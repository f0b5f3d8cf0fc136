#include "ml/linear_models.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace corgipile {

namespace {
// Numerically stable log(1 + exp(z)).
double Log1pExp(double z) {
  if (z > 35.0) return z;
  if (z < -35.0) return 0.0;
  return std::log1p(std::exp(z));
}
// Stable sigmoid.
double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}
}  // namespace

BinaryLinearModel::BinaryLinearModel(uint32_t dim, double l2_reg)
    : dim_(dim), l2_reg_(l2_reg), params_(dim + 1, 0.0) {}

void BinaryLinearModel::InitParams(uint64_t) {
  std::fill(params_.begin(), params_.end(), 0.0);
}

double BinaryLinearModel::Margin(const RowView& r) const {
  return r.Dot(params_) + params_[dim_];
}

double BinaryLinearModel::Predict(const RowView& r) const { return Margin(r); }

bool BinaryLinearModel::Correct(const RowView& r) const {
  return (Margin(r) >= 0 ? 1.0 : -1.0) == r.label;
}

void BinaryLinearModel::ApplyLinearStep(const RowView& r, double lr,
                                        double coef) {
  // Gradient of loss wrt w is coef * x (+ l2 w); wrt bias is coef.
  if (l2_reg_ != 0.0) {
    const double shrink = 1.0 - lr * l2_reg_;
    if (r.sparse()) {
      for (size_t j = 0; j < r.nnz; ++j) params_[r.keys[j]] *= shrink;
    } else {
      for (uint32_t d = 0; d < dim_; ++d) params_[d] *= shrink;
    }
  }
  if (coef != 0.0) {
    r.AxpyInto(-lr * coef, &params_);
    params_[dim_] -= lr * coef;
  }
}

void BinaryLinearModel::AccumulateLinear(const RowView& r, double coef,
                                         std::vector<double>* grad) const {
  if (coef != 0.0) {
    r.AxpyInto(coef, grad);
    (*grad)[dim_] += coef;
  }
  if (l2_reg_ != 0.0) {
    for (uint32_t d = 0; d < dim_; ++d) {
      (*grad)[d] += l2_reg_ * params_[d];
    }
  }
}

double BinaryLinearModel::Loss(const RowView& r) const {
  double coef;
  return LossAndCoef(Margin(r), r.label, &coef);
}

double BinaryLinearModel::SgdStep(const RowView& r, double lr) {
  double coef;
  const double loss = LossAndCoef(Margin(r), r.label, &coef);
  ApplyLinearStep(r, lr, coef);
  return loss;
}

double BinaryLinearModel::AccumulateGrad(const RowView& r,
                                         std::vector<double>* grad) const {
  double coef;
  const double loss = LossAndCoef(Margin(r), r.label, &coef);
  AccumulateLinear(r, coef, grad);
  return loss;
}

// ---------- Logistic regression ----------

double LogisticRegression::LossAndCoef(double m, double y,
                                       double* coef) const {
  const double z = -y * m;
  *coef = -y * Sigmoid(z);  // dLoss/dMargin
  return Log1pExp(z);
}

std::unique_ptr<Model> LogisticRegression::Clone() const {
  return std::make_unique<LogisticRegression>(*this);
}

// ---------- SVM ----------

double SvmModel::LossAndCoef(double m, double y, double* coef) const {
  const double hinge = 1.0 - y * m;
  *coef = hinge > 0.0 ? -y : 0.0;
  return std::max(0.0, hinge);
}

std::unique_ptr<Model> SvmModel::Clone() const {
  return std::make_unique<SvmModel>(*this);
}

// ---------- Linear regression ----------

double LinearRegressionModel::LossAndCoef(double m, double y,
                                          double* coef) const {
  const double r = m - y;
  *coef = r;
  return 0.5 * r * r;
}

std::unique_ptr<Model> LinearRegressionModel::Clone() const {
  return std::make_unique<LinearRegressionModel>(*this);
}

// ---------- Softmax regression ----------

SoftmaxRegression::SoftmaxRegression(uint32_t dim, uint32_t num_classes)
    : dim_(dim), classes_(std::max<uint32_t>(2, num_classes)),
      params_(static_cast<size_t>(dim) * classes_ + classes_, 0.0),
      scratch_probs_(classes_, 0.0) {}

void SoftmaxRegression::InitParams(uint64_t) {
  std::fill(params_.begin(), params_.end(), 0.0);
}

double SoftmaxRegression::ForwardProbs(const RowView& r,
                                       std::vector<double>* probs) const {
  probs->assign(classes_, 0.0);
  // logits_c = W_c · x + b_c
  for (uint32_t c = 0; c < classes_; ++c) {
    const double* w = params_.data() + static_cast<size_t>(c) * dim_;
    double z = params_[static_cast<size_t>(dim_) * classes_ + c];
    if (r.sparse()) {
      for (size_t i = 0; i < r.nnz; ++i) {
        z += w[r.keys[i]] * static_cast<double>(r.values[i]);
      }
    } else {
      for (uint32_t d = 0; d < dim_; ++d) {
        z += w[d] * static_cast<double>(r.values[d]);
      }
    }
    (*probs)[c] = z;
  }
  const double zmax = *std::max_element(probs->begin(), probs->end());
  double sum = 0.0;
  for (double& p : *probs) {
    p = std::exp(p - zmax);
    sum += p;
  }
  for (double& p : *probs) p /= sum;
  const auto label = static_cast<uint32_t>(r.label);
  const double py = std::max((*probs)[label], 1e-300);
  return -std::log(py);
}

// Loss/Predict/Correct/TopKCorrect use local scratch: the serving engine
// calls them concurrently on one shared snapshot. The member scratch is
// reserved for the training paths, which own their model instance.
double SoftmaxRegression::Loss(const RowView& r) const {
  std::vector<double> probs;
  return ForwardProbs(r, &probs);
}

double SoftmaxRegression::SgdStep(const RowView& r, double lr) {
  const double loss = ForwardProbs(r, &scratch_probs_);
  const auto label = static_cast<uint32_t>(r.label);
  for (uint32_t c = 0; c < classes_; ++c) {
    const double coef = scratch_probs_[c] - (c == label ? 1.0 : 0.0);
    if (coef == 0.0) continue;
    double* w = params_.data() + static_cast<size_t>(c) * dim_;
    if (r.sparse()) {
      for (size_t i = 0; i < r.nnz; ++i) {
        w[r.keys[i]] -= lr * coef * static_cast<double>(r.values[i]);
      }
    } else {
      for (uint32_t d = 0; d < dim_; ++d) {
        w[d] -= lr * coef * static_cast<double>(r.values[d]);
      }
    }
    params_[static_cast<size_t>(dim_) * classes_ + c] -= lr * coef;
  }
  return loss;
}

double SoftmaxRegression::AccumulateGrad(const RowView& r,
                                         std::vector<double>* grad) const {
  const double loss = ForwardProbs(r, &scratch_probs_);
  const auto label = static_cast<uint32_t>(r.label);
  for (uint32_t c = 0; c < classes_; ++c) {
    const double coef = scratch_probs_[c] - (c == label ? 1.0 : 0.0);
    if (coef == 0.0) continue;
    double* g = grad->data() + static_cast<size_t>(c) * dim_;
    if (r.sparse()) {
      for (size_t i = 0; i < r.nnz; ++i) {
        g[r.keys[i]] += coef * static_cast<double>(r.values[i]);
      }
    } else {
      for (uint32_t d = 0; d < dim_; ++d) {
        g[d] += coef * static_cast<double>(r.values[d]);
      }
    }
    (*grad)[static_cast<size_t>(dim_) * classes_ + c] += coef;
  }
  return loss;
}

double SoftmaxRegression::Predict(const RowView& r) const {
  std::vector<double> probs;
  ForwardProbs(r, &probs);
  return static_cast<double>(
      std::distance(probs.begin(), std::max_element(probs.begin(), probs.end())));
}

bool SoftmaxRegression::Correct(const RowView& r) const {
  return Predict(r) == r.label;
}

bool SoftmaxRegression::TopKCorrect(const RowView& r, uint32_t k) const {
  std::vector<double> probs;
  ForwardProbs(r, &probs);
  const double p_label = probs[static_cast<uint32_t>(r.label)];
  uint32_t better = 0;
  for (double p : probs) {
    if (p > p_label) ++better;
  }
  return better < k;
}

std::unique_ptr<Model> SoftmaxRegression::Clone() const {
  return std::make_unique<SoftmaxRegression>(*this);
}

}  // namespace corgipile
