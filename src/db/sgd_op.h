// SGD operator (paper §6.2 (3)).
//
// Sits on top of the TupleShuffle/BlockShuffle pipeline. Each call to
// NextEpoch() pulls every batch of the scan through RunSgdEpoch (the
// trainer's epoch loop, ml/trainer.h), performs the SGD update(s),
// then drives PostgreSQL's re-scan mechanism (child->ReScan()) so the next
// epoch sees freshly shuffled data. Per-epoch metrics are produced the way
// the paper's implementation reports loss/accuracy/time after each epoch.

#pragma once

#include <memory>

#include "db/operator.h"
#include "iosim/sim_clock.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/optimizer.h"
#include "ml/trainer.h"
#include "storage/schema.h"
#include "util/status.h"

namespace corgipile {

class SgdOp {
 public:
  struct Options {
    LrSchedule lr;
    uint32_t max_epochs = 20;
    uint32_t batch_size = 1;  ///< 1 = per-tuple SGD
    OptimizerKind optimizer = OptimizerKind::kSgd;
    const std::vector<Tuple>* test_set = nullptr;
    LabelType label_type = LabelType::kBinary;
    SimClock* clock = nullptr;  ///< compute time charged here
    uint64_t init_seed = 7;
    /// Transport batch size: tuples pulled per child->NextBatch call; must
    /// be >= 1. Purely a transport knob: seeded results are bit-identical
    /// at every value.
    uint32_t exec_batch_tuples = TupleBatch::kDefaultTargetTuples;

    /// Crash safety (DESIGN.md §12): with a non-empty checkpoint_path the
    /// operator durably checkpoints the model after every
    /// checkpoint_every_epochs-th epoch; with resume=true Init() loads the
    /// checkpoint (kNotFound = start fresh) and fast-forwards the child
    /// pipeline via SkipEpochs, so the resumed run replays the remaining
    /// epochs bit-identically to an uninterrupted one.
    std::string checkpoint_path;
    uint32_t checkpoint_every_epochs = 1;
    bool resume = false;
  };

  /// `model` and `child` are borrowed; both must outlive the operator.
  SgdOp(Model* model, PhysicalOperator* child, Options options);

  /// ExecInitSGD: initializes the model and the child pipeline.
  Status Init();

  /// Runs one epoch; fills *log. Returns false when max_epochs reached.
  Result<bool> NextEpoch(EpochLog* log);

  /// Runs all remaining epochs, collecting the logs.
  Result<std::vector<EpochLog>> RunToCompletion();

  void Close();

  Model* model() { return model_; }
  uint32_t epochs_run() const { return epoch_; }
  /// Epoch the run resumed from (0 when fresh).
  uint32_t resumed_from_epoch() const { return start_epoch_; }
  /// Progress counters across the whole logical run, including the epochs
  /// a resumed checkpoint already covered.
  uint64_t total_tuples() const { return total_tuples_; }
  uint64_t total_quarantined_blocks() const {
    return base_quarantined_ + child_->QuarantinedBlocks();
  }
  uint64_t total_skipped_tuples() const {
    return base_skipped_ + child_->SkippedTuples();
  }

 private:
  Status SaveProgress();

  Model* model_;
  PhysicalOperator* child_;
  Options options_;
  TupleBatch exec_batch_;  // transport buffer, arena reused across epochs
  uint32_t epoch_ = 0;
  uint32_t start_epoch_ = 0;
  uint64_t total_tuples_ = 0;
  double best_test_metric_ = 0.0;
  uint64_t base_quarantined_ = 0;
  uint64_t base_skipped_ = 0;
  std::unique_ptr<Optimizer> opt_;
  std::vector<double> grad_;
  bool initialized_ = false;
};

}  // namespace corgipile
