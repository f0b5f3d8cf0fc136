// Two-layer perceptron with ReLU hidden units and softmax output.
//
// Stands in for the paper's deep models (ResNet/VGG/HAN/TextCNN): a
// non-convex objective trained with (mini-batch) SGD or Adam whose
// convergence is order-sensitive in exactly the way §7.2 measures.

#pragma once

#include <cstdint>

#include "ml/model.h"

namespace corgipile {

class MlpModel : public Model {
 public:
  MlpModel(uint32_t input_dim, uint32_t hidden_dim, uint32_t num_classes);

  const char* name() const override { return "mlp"; }
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

  uint32_t hidden_dim() const { return hidden_; }
  uint32_t num_classes() const { return classes_; }

 private:
  // Parameter slices within params_.
  size_t W1() const { return 0; }
  size_t B1() const { return static_cast<size_t>(hidden_) * dim_; }
  size_t W2() const { return B1() + hidden_; }
  size_t B2() const { return W2() + static_cast<size_t>(classes_) * hidden_; }

  /// Forward pass; fills hidden activations and class probabilities;
  /// returns −log p_label.
  double Forward(const RowView& r, std::vector<double>* hidden_act,
                 std::vector<double>* probs) const;

  uint32_t dim_;
  uint32_t hidden_;
  uint32_t classes_;
  std::vector<double> params_;
  mutable std::vector<double> scratch_hidden_;
  mutable std::vector<double> scratch_probs_;
};

}  // namespace corgipile
