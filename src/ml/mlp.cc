#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace corgipile {

MlpModel::MlpModel(uint32_t input_dim, uint32_t hidden_dim,
                   uint32_t num_classes)
    : dim_(input_dim), hidden_(hidden_dim),
      classes_(std::max<uint32_t>(2, num_classes)) {
  params_.resize(B2() + classes_, 0.0);
  scratch_hidden_.resize(hidden_);
  scratch_probs_.resize(classes_);
}

void MlpModel::InitParams(uint64_t seed) {
  Rng rng(seed ^ 0x3317);
  const double s1 = std::sqrt(2.0 / static_cast<double>(dim_));
  const double s2 = std::sqrt(2.0 / static_cast<double>(hidden_));
  for (size_t i = W1(); i < B1(); ++i) params_[i] = s1 * rng.NextGaussian();
  for (size_t i = B1(); i < W2(); ++i) params_[i] = 0.0;
  for (size_t i = W2(); i < B2(); ++i) params_[i] = s2 * rng.NextGaussian();
  for (size_t i = B2(); i < params_.size(); ++i) params_[i] = 0.0;
}

double MlpModel::Forward(const RowView& r, std::vector<double>* hidden_act,
                         std::vector<double>* probs) const {
  hidden_act->assign(hidden_, 0.0);
  // z1 = W1 x + b1 (sparse- and dense-aware), a1 = relu(z1).
  if (r.sparse()) {
    for (size_t i = 0; i < r.nnz; ++i) {
      const uint32_t d = r.keys[i];
      const double x = static_cast<double>(r.values[i]);
      const double* w = params_.data() + W1() + static_cast<size_t>(d);
      for (uint32_t h = 0; h < hidden_; ++h) {
        (*hidden_act)[h] += w[static_cast<size_t>(h) * dim_] * x;
      }
    }
  } else {
    for (uint32_t h = 0; h < hidden_; ++h) {
      const double* w = params_.data() + W1() + static_cast<size_t>(h) * dim_;
      double z = 0.0;
      for (uint32_t d = 0; d < dim_; ++d) {
        z += w[d] * static_cast<double>(r.values[d]);
      }
      (*hidden_act)[h] = z;
    }
  }
  for (uint32_t h = 0; h < hidden_; ++h) {
    double z = (*hidden_act)[h] + params_[B1() + h];
    (*hidden_act)[h] = z > 0.0 ? z : 0.0;
  }
  // z2 = W2 a1 + b2, softmax.
  probs->assign(classes_, 0.0);
  for (uint32_t c = 0; c < classes_; ++c) {
    const double* w = params_.data() + W2() + static_cast<size_t>(c) * hidden_;
    double z = params_[B2() + c];
    for (uint32_t h = 0; h < hidden_; ++h) z += w[h] * (*hidden_act)[h];
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
  return -std::log(std::max((*probs)[label], 1e-300));
}

// Loss/Predict/Correct/TopKCorrect use local scratch: the serving engine
// calls them concurrently on one shared snapshot. The member scratch is
// reserved for the training paths, which own their model instance.
double MlpModel::Loss(const RowView& r) const {
  std::vector<double> hidden, probs;
  return Forward(r, &hidden, &probs);
}

namespace {
// Shared backward pass: given activations/probabilities, writes the update
// either directly into params (apply_fn) or into a gradient accumulator.
template <typename Sink>
void Backward(const RowView& r, uint32_t dim, uint32_t hidden, uint32_t classes,
              const std::vector<double>& params, size_t w1, size_t b1,
              size_t w2, size_t b2, const std::vector<double>& hidden_act,
              const std::vector<double>& probs, Sink&& sink) {
  const auto label = static_cast<uint32_t>(r.label);
  // dz2_c = p_c − 1{c == y}. Backpropagate through the (pre-update) W2
  // first, then emit the W2/b2 updates.
  std::vector<double> dhidden(hidden, 0.0);
  for (uint32_t c = 0; c < classes; ++c) {
    const double dz2 = probs[c] - (c == label ? 1.0 : 0.0);
    if (dz2 == 0.0) continue;
    const double* w2c = params.data() + w2 + static_cast<size_t>(c) * hidden;
    for (uint32_t h = 0; h < hidden; ++h) {
      dhidden[h] += dz2 * w2c[h];
    }
  }
  for (uint32_t c = 0; c < classes; ++c) {
    const double dz2 = probs[c] - (c == label ? 1.0 : 0.0);
    if (dz2 == 0.0) continue;
    for (uint32_t h = 0; h < hidden; ++h) {
      sink(w2 + static_cast<size_t>(c) * hidden + h, dz2 * hidden_act[h]);
    }
    sink(b2 + c, dz2);
  }
  // ReLU gate.
  for (uint32_t h = 0; h < hidden; ++h) {
    if (hidden_act[h] <= 0.0) dhidden[h] = 0.0;
  }
  if (r.sparse()) {
    for (size_t i = 0; i < r.nnz; ++i) {
      const uint32_t d = r.keys[i];
      const double x = static_cast<double>(r.values[i]);
      for (uint32_t h = 0; h < hidden; ++h) {
        if (dhidden[h] != 0.0) {
          sink(w1 + static_cast<size_t>(h) * dim + d, dhidden[h] * x);
        }
      }
    }
  } else {
    for (uint32_t h = 0; h < hidden; ++h) {
      if (dhidden[h] == 0.0) continue;
      const size_t base = w1 + static_cast<size_t>(h) * dim;
      for (uint32_t d = 0; d < dim; ++d) {
        sink(base + d, dhidden[h] * static_cast<double>(r.values[d]));
      }
    }
  }
  for (uint32_t h = 0; h < hidden; ++h) {
    if (dhidden[h] != 0.0) sink(b1 + h, dhidden[h]);
  }
}
}  // namespace

double MlpModel::SgdStep(const RowView& r, double lr) {
  const double loss = Forward(r, &scratch_hidden_, &scratch_probs_);
  Backward(r, dim_, hidden_, classes_, params_, W1(), B1(), W2(), B2(),
           scratch_hidden_, scratch_probs_,
           [this, lr](size_t i, double g) { params_[i] -= lr * g; });
  return loss;
}

double MlpModel::AccumulateGrad(const RowView& r,
                                std::vector<double>* grad) const {
  const double loss = Forward(r, &scratch_hidden_, &scratch_probs_);
  Backward(r, dim_, hidden_, classes_, params_, W1(), B1(), W2(), B2(),
           scratch_hidden_, scratch_probs_,
           [grad](size_t i, double g) { (*grad)[i] += g; });
  return loss;
}

double MlpModel::Predict(const RowView& r) const {
  std::vector<double> hidden, probs;
  Forward(r, &hidden, &probs);
  return static_cast<double>(
      std::distance(probs.begin(), std::max_element(probs.begin(), probs.end())));
}

bool MlpModel::Correct(const RowView& r) const { return Predict(r) == r.label; }

bool MlpModel::TopKCorrect(const RowView& r, uint32_t k) const {
  std::vector<double> hidden, probs;
  Forward(r, &hidden, &probs);
  const double p_label = probs[static_cast<uint32_t>(r.label)];
  uint32_t better = 0;
  for (double p : probs) {
    if (p > p_label) ++better;
  }
  return better < k;
}

std::unique_ptr<Model> MlpModel::Clone() const {
  return std::make_unique<MlpModel>(*this);
}

}  // namespace corgipile
