// Generalized linear models: logistic regression, SVM (hinge loss), linear
// regression, and softmax (multinomial logistic) regression — the model set
// the paper trains in-database (§7.3–§7.4).
//
// All keep a dense weight vector of `dim` coordinates plus a bias term as
// the final parameter. Per-tuple SGD updates touch only the tuple's nonzero
// coordinates plus the bias.

#pragma once

#include <cstdint>
#include <string>

#include "ml/model.h"

namespace corgipile {

/// Common base for the binary linear models (w ∈ R^dim, bias appended).
/// Subclasses supply only the loss curve via LossAndCoef(); the SGD step
/// and gradient accumulation live here, once, over a RowView.
class BinaryLinearModel : public Model {
 public:
  explicit BinaryLinearModel(uint32_t dim, double l2_reg = 0.0);

  size_t num_params() const override { return params_.size(); }
  uint32_t input_dim() const override { return dim_; }
  std::vector<double>& params() override { return params_; }
  const std::vector<double>& params() const override { return params_; }
  void InitParams(uint64_t seed) override;

  double SgdStep(const RowView& r, double lr) override;
  double AccumulateGrad(const RowView& r,
                        std::vector<double>* grad) const override;
  double Loss(const RowView& r) const override;
  double Predict(const RowView& r) const override;  // signed margin
  bool Correct(const RowView& r) const override;

 protected:
  /// Loss at margin m for label y; sets *coef = dLoss/dMargin. The one
  /// model-specific piece of math.
  virtual double LossAndCoef(double m, double y, double* coef) const = 0;

  double Margin(const RowView& r) const;
  /// w ← w − lr·(coef·x + l2·w_active); coef is dLoss/dMargin · y-part.
  void ApplyLinearStep(const RowView& r, double lr, double coef);
  void AccumulateLinear(const RowView& r, double coef,
                        std::vector<double>* grad) const;

  uint32_t dim_;
  double l2_reg_;
  std::vector<double> params_;  // dim weights + 1 bias
};

/// Logistic regression: f = log(1 + exp(−y·m)), y ∈ {−1, +1}.
class LogisticRegression : public BinaryLinearModel {
 public:
  explicit LogisticRegression(uint32_t dim, double l2_reg = 0.0)
      : BinaryLinearModel(dim, l2_reg) {}
  const char* name() const override { return "lr"; }
  std::unique_ptr<Model> Clone() const override;

 protected:
  double LossAndCoef(double m, double y, double* coef) const override;
};

/// Linear SVM: f = max(0, 1 − y·m).
class SvmModel : public BinaryLinearModel {
 public:
  explicit SvmModel(uint32_t dim, double l2_reg = 0.0)
      : BinaryLinearModel(dim, l2_reg) {}
  const char* name() const override { return "svm"; }
  std::unique_ptr<Model> Clone() const override;

 protected:
  double LossAndCoef(double m, double y, double* coef) const override;
};

/// Linear regression: f = ½(m − y)².
class LinearRegressionModel : public BinaryLinearModel {
 public:
  explicit LinearRegressionModel(uint32_t dim, double l2_reg = 0.0)
      : BinaryLinearModel(dim, l2_reg) {}
  const char* name() const override { return "linreg"; }
  bool Correct(const RowView&) const override { return false; }
  std::unique_ptr<Model> Clone() const override;

 protected:
  double LossAndCoef(double m, double y, double* coef) const override;
};

/// Softmax regression over C classes; labels are class ids 0..C−1.
/// Parameters: C × dim weights followed by C biases.
class SoftmaxRegression : public Model {
 public:
  SoftmaxRegression(uint32_t dim, uint32_t num_classes);

  const char* name() const override { return "softmax"; }
  size_t num_params() const override { return params_.size(); }
  uint32_t input_dim() const override { return dim_; }
  std::vector<double>& params() override { return params_; }
  const std::vector<double>& params() const override { return params_; }
  void InitParams(uint64_t seed) override;

  double SgdStep(const RowView& r, double lr) override;
  double AccumulateGrad(const RowView& r,
                        std::vector<double>* grad) const override;
  double Loss(const RowView& r) const override;
  double Predict(const RowView& r) const override;  // argmax class id
  bool Correct(const RowView& r) const override;
  bool TopKCorrect(const RowView& r, uint32_t k) const override;
  std::unique_ptr<Model> Clone() const override;

  uint32_t num_classes() const { return classes_; }

 private:
  /// Fills probs[c]; returns −log p_label.
  double ForwardProbs(const RowView& r, std::vector<double>* probs) const;

  uint32_t dim_;
  uint32_t classes_;
  std::vector<double> params_;
  mutable std::vector<double> scratch_probs_;
};

}  // namespace corgipile
