// Model interface for SGD training over rows (a Tuple or a TupleBatch row).

#pragma once

#include <memory>
#include <vector>

#include "exec/tuple_batch.h"
#include "storage/tuple.h"

namespace corgipile {

/// A trainable model. Each model writes its math once, as the per-row
/// virtuals below over a RowView (DESIGN.md §9 rule 1), so a Tuple and a
/// TupleBatch row run the same kernel. Two update paths mirror how the
/// paper's systems run:
///  * SgdStep — the standard per-tuple SGD used by the in-DB engines
///    (sparse-friendly: touches only the row's nonzero coordinates), and
///  * AccumulateGrad/params — dense gradient accumulation for mini-batch
///    SGD and Adam.
/// The Batch* entry points are plain loops of those virtuals over
/// TupleBatch::row(i), in row order, so seeded results are bit-identical
/// to the per-tuple path at every transport batch size.
class Model {
 public:
  virtual ~Model() = default;

  virtual const char* name() const = 0;
  virtual size_t num_params() const = 0;

  /// Input feature dimensionality the model was constructed for; 0 when
  /// unknown. The serving path uses this to reject tables whose feature
  /// space does not fit the stored model instead of reading out of range.
  virtual uint32_t input_dim() const { return 0; }

  virtual std::vector<double>& params() = 0;
  virtual const std::vector<double>& params() const = 0;

  /// Initializes parameters deterministically from `seed` (zeros for convex
  /// models, scaled Gaussians for the MLP).
  virtual void InitParams(uint64_t seed) = 0;

  /// One vanilla SGD step: w ← w − lr·∇f_i(w). Returns f_i(w) pre-update.
  virtual double SgdStep(const RowView& r, double lr) = 0;

  /// grad += ∇f_i(w); returns f_i(w). `grad` must have num_params() zeros
  /// or previously accumulated values.
  virtual double AccumulateGrad(const RowView& r,
                                std::vector<double>* grad) const = 0;

  /// Loss only.
  virtual double Loss(const RowView& r) const = 0;

  /// Raw prediction: binary → signed margin, multiclass → argmax class id,
  /// regression → predicted value.
  virtual double Predict(const RowView& r) const = 0;

  /// Classification correctness (false always for regression models).
  virtual bool Correct(const RowView& r) const = 0;

  /// Top-k correctness for multiclass models (the paper's Top-5 metric on
  /// ImageNet). Defaults to Correct() — i.e. top-1 — for models without
  /// class scores.
  virtual bool TopKCorrect(const RowView& r, uint32_t k) const {
    (void)k;
    return Correct(r);
  }

  // --- Mini-batch entry points over a TupleBatch (DESIGN.md §9) ---
  //
  // Losses are added to *loss_sum one row at a time (not batch-summed
  // first) so the caller's epoch accumulator sees the same addition order
  // as the per-tuple loop.

  /// Sequential SGD over every row of `b`: one SgdStep per row, in row
  /// order. Adds each row's pre-update loss to *loss_sum.
  void BatchGradientStep(const TupleBatch& b, double lr, double* loss_sum);

  /// AccumulateGrad over rows [begin, end); adds each row's loss to
  /// *loss_sum.
  void BatchAccumulateGrad(const TupleBatch& b, size_t begin, size_t end,
                           std::vector<double>* grad, double* loss_sum) const;

  /// Adds each row's loss to *loss_sum. Thread-safe (const model).
  void BatchLoss(const TupleBatch& b, double* loss_sum) const;

  /// Per-row serving evaluation: fills predictions[i], losses[i] and
  /// corrects[i] (0/1) for each row. Thread-safe (const model); the
  /// serving engine runs it concurrently on one shared snapshot.
  void BatchEvaluate(const TupleBatch& b, double* predictions, double* losses,
                     uint8_t* corrects) const;

  virtual std::unique_ptr<Model> Clone() const = 0;
};

}  // namespace corgipile
