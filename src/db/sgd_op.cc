#include "db/sgd_op.h"

#include <algorithm>

#include "iosim/fault_plane.h"
#include "ml/checkpoint.h"
#include "util/timer.h"

namespace corgipile {

SgdOp::SgdOp(Model* model, PhysicalOperator* child, Options options)
    : model_(model), child_(child), options_(options) {}

Status SgdOp::Init() {
  if (model_ == nullptr || child_ == nullptr) {
    return Status::InvalidArgument("null model or child");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options_.exec_batch_tuples == 0) {
    return Status::InvalidArgument("exec_batch_tuples must be >= 1");
  }
  if (!options_.checkpoint_path.empty() &&
      options_.checkpoint_every_epochs == 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  CORGI_RETURN_NOT_OK(child_->Init());
  model_->InitParams(options_.init_seed);
  if (options_.batch_size > 1 || options_.optimizer != OptimizerKind::kSgd) {
    opt_ = MakeOptimizer(options_.optimizer);
    opt_->Reset(model_->num_params());
    grad_.assign(model_->num_params(), 0.0);
  }
  epoch_ = 0;
  start_epoch_ = 0;
  total_tuples_ = 0;
  best_test_metric_ = 0.0;
  base_quarantined_ = 0;
  base_skipped_ = 0;

  // Resume from the last durable checkpoint, if asked for and present. The
  // shuffle pipeline's epoch state is a pure function of (seed, epoch), so
  // fast-forwarding it with SkipEpochs replays the remaining epochs
  // exactly as the uninterrupted run would have.
  if (options_.resume && !options_.checkpoint_path.empty()) {
    auto loaded = LoadCheckpoint(options_.checkpoint_path);
    if (loaded.ok()) {
      TrainCheckpoint ckpt = std::move(loaded).ValueOrDie();
      if (ckpt.model_name != model_->name()) {
        return Status::InvalidArgument(
            "checkpoint model '" + ckpt.model_name + "' does not match '" +
            model_->name() + "'");
      }
      if (ckpt.params.size() != model_->num_params()) {
        return Status::InvalidArgument(
            "checkpoint has " + std::to_string(ckpt.params.size()) +
            " params, model expects " +
            std::to_string(model_->num_params()));
      }
      model_->params() = ckpt.params;
      epoch_ = static_cast<uint32_t>(
          std::min<uint64_t>(ckpt.next_epoch, options_.max_epochs));
      start_epoch_ = epoch_;
      total_tuples_ = ckpt.total_tuples;
      best_test_metric_ = ckpt.best_test_metric;
      base_quarantined_ = ckpt.total_quarantined_blocks;
      base_skipped_ = ckpt.total_skipped_tuples;
      if (epoch_ > 0) {
        CORGI_RETURN_NOT_OK(child_->SkipEpochs(epoch_));
      }
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();  // corrupt/unreadable checkpoint: surface it
    }
  }
  initialized_ = true;
  return Status::OK();
}

Status SgdOp::SaveProgress() {
  TrainCheckpoint ckpt;
  ckpt.model_name = model_->name();
  ckpt.next_epoch = epoch_;
  ckpt.params = model_->params();
  ckpt.total_tuples = total_tuples_;
  ckpt.best_test_metric = best_test_metric_;
  ckpt.total_quarantined_blocks = total_quarantined_blocks();
  ckpt.total_skipped_tuples = total_skipped_tuples();
  return SaveCheckpoint(ckpt, options_.checkpoint_path);
}

Result<bool> SgdOp::NextEpoch(EpochLog* log) {
  if (!initialized_) return Status::Internal("NextEpoch before Init");
  if (epoch_ >= options_.max_epochs) return false;
  CORGI_INJECT_POINT("db.sgd.epoch_begin");

  const double lr = options_.lr.LrAtEpoch(epoch_);
  const uint64_t quarantined_before = child_->QuarantinedBlocks();
  const uint64_t skipped_before = child_->SkippedTuples();
  WallTimer timer;
  exec_batch_.set_target_tuples(options_.exec_batch_tuples);
  const EpochSums sums = RunSgdEpoch(
      model_, opt_.get(), &grad_, options_.batch_size, lr, &exec_batch_,
      [this](TupleBatch* b) { return child_->NextBatch(b); });
  CORGI_RETURN_NOT_OK(child_->status());

  log->epoch = epoch_;
  log->lr = lr;
  log->tuples_seen = sums.tuples;
  log->epoch_wall_seconds = timer.ElapsedSeconds();
  log->train_loss = sums.tuples > 0
                        ? sums.loss_sum / static_cast<double>(sums.tuples)
                        : 0.0;
  log->quarantined_blocks = child_->QuarantinedBlocks() - quarantined_before;
  log->skipped_tuples = child_->SkippedTuples() - skipped_before;
  if (options_.clock != nullptr) {
    options_.clock->Advance(TimeCategory::kCompute, log->epoch_wall_seconds);
  }
  if (options_.test_set != nullptr && !options_.test_set->empty()) {
    const EvalResult eval =
        Evaluate(*model_, *options_.test_set, options_.label_type);
    log->test_loss = eval.mean_loss;
    log->test_metric = eval.metric;
  }
  log->cumulative_sim_seconds =
      options_.clock != nullptr ? options_.clock->TotalElapsed() : 0.0;

  total_tuples_ += sums.tuples;
  best_test_metric_ = std::max(best_test_metric_, log->test_metric);
  ++epoch_;
  // Chaos point: a kill here dies after the epoch's updates but before its
  // checkpoint — the restarted run replays the epoch from the previous
  // checkpoint and must land on identical parameters.
  CORGI_INJECT_POINT("db.sgd.epoch_end");
  if (!options_.checkpoint_path.empty() &&
      (epoch_ == options_.max_epochs ||
       (epoch_ - start_epoch_) % options_.checkpoint_every_epochs == 0)) {
    CORGI_RETURN_NOT_OK(SaveProgress());
  }
  if (epoch_ < options_.max_epochs) {
    // The paper's re-scan mechanism: reshuffle + reread for the next epoch.
    CORGI_RETURN_NOT_OK(child_->ReScan());
  }
  return true;
}

Result<std::vector<EpochLog>> SgdOp::RunToCompletion() {
  std::vector<EpochLog> logs;
  for (;;) {
    EpochLog log;
    CORGI_ASSIGN_OR_RETURN(bool more, NextEpoch(&log));
    if (!more) break;
    logs.push_back(log);
  }
  return logs;
}

void SgdOp::Close() {
  if (child_ != nullptr) child_->Close();
}

}  // namespace corgipile
