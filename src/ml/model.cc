#include "ml/model.h"

namespace corgipile {

void Model::BatchGradientStep(const TupleBatch& b, double lr,
                              double* loss_sum) {
  for (size_t i = 0; i < b.size(); ++i) *loss_sum += SgdStep(b.row(i), lr);
}

void Model::BatchAccumulateGrad(const TupleBatch& b, size_t begin, size_t end,
                                std::vector<double>* grad,
                                double* loss_sum) const {
  for (size_t i = begin; i < end; ++i) {
    *loss_sum += AccumulateGrad(b.row(i), grad);
  }
}

void Model::BatchLoss(const TupleBatch& b, double* loss_sum) const {
  for (size_t i = 0; i < b.size(); ++i) *loss_sum += Loss(b.row(i));
}

void Model::BatchEvaluate(const TupleBatch& b, double* predictions,
                          double* losses, uint8_t* corrects) const {
  for (size_t i = 0; i < b.size(); ++i) {
    const RowView r = b.row(i);
    predictions[i] = Predict(r);
    losses[i] = Loss(r);
    corrects[i] = Correct(r) ? 1 : 0;
  }
}

}  // namespace corgipile
