#include "ml/trainer.h"

#include <algorithm>
#include <cmath>

#include "iosim/fault_plane.h"
#include "ml/checkpoint.h"
#include "util/timer.h"

namespace corgipile {

EpochSums RunSgdEpoch(Model* model, Optimizer* opt, std::vector<double>* grad,
                      uint32_t batch_size, double lr, TupleBatch* batch,
                      const std::function<bool(TupleBatch*)>& next) {
  EpochSums sums;
  uint32_t in_batch = 0;
  auto flush = [&] {
    if (in_batch == 0) return;
    const double inv = 1.0 / static_cast<double>(in_batch);
    for (double& g : *grad) g *= inv;
    opt->Apply(&model->params(), *grad, lr);
    std::fill(grad->begin(), grad->end(), 0.0);
    in_batch = 0;
  };
  while (next(batch)) {
    if (opt == nullptr) {
      model->BatchGradientStep(*batch, lr, &sums.loss_sum);
      sums.tuples += batch->size();
      continue;
    }
    size_t i = 0;
    while (i < batch->size()) {
      const size_t take =
          std::min<size_t>(batch->size() - i, batch_size - in_batch);
      model->BatchAccumulateGrad(*batch, i, i + take, grad, &sums.loss_sum);
      i += take;
      sums.tuples += take;
      in_batch += static_cast<uint32_t>(take);
      if (in_batch == batch_size) flush();
    }
  }
  if (opt != nullptr) flush();
  return sums;
}

Result<TrainResult> Train(Model* model, TupleStream* stream,
                          const TrainerOptions& options) {
  if (model == nullptr || stream == nullptr) {
    return Status::InvalidArgument("null model or stream");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.exec_batch_tuples == 0) {
    return Status::InvalidArgument("exec_batch_tuples must be >= 1");
  }
  if (!options.checkpoint_path.empty() &&
      options.checkpoint_every_epochs == 0) {
    return Status::InvalidArgument("checkpoint_every_epochs must be >= 1");
  }
  model->InitParams(options.init_seed);

  std::unique_ptr<Optimizer> opt;
  std::vector<double> grad;
  const bool batched =
      options.batch_size > 1 || options.optimizer != OptimizerKind::kSgd;
  if (batched) {
    opt = MakeOptimizer(options.optimizer);
    opt->Reset(model->num_params());
    grad.assign(model->num_params(), 0.0);
  }

  TrainResult result;

  // Theorem-1 averaging state.
  std::vector<double> avg_params;
  double weight_sum = 0.0;
  std::unique_ptr<Model> eval_model;  // averaged clone used for evaluation
  if (options.theorem_averaging) {
    avg_params.assign(model->num_params(), 0.0);
    eval_model = model->Clone();
  }

  // Resume from the last durable checkpoint, if there is one. The shuffle
  // order of epoch e is a pure function of (seed, e), so continuing at
  // start_epoch replays exactly what an uninterrupted run would have done.
  uint32_t start_epoch = 0;
  if (options.resume && !options.checkpoint_path.empty()) {
    auto loaded = LoadCheckpoint(options.checkpoint_path);
    if (loaded.ok()) {
      TrainCheckpoint ckpt = std::move(loaded).ValueOrDie();
      if (ckpt.model_name != model->name()) {
        return Status::InvalidArgument(
            "checkpoint model '" + ckpt.model_name + "' does not match '" +
            model->name() + "'");
      }
      if (ckpt.params.size() != model->num_params()) {
        return Status::InvalidArgument(
            "checkpoint has " + std::to_string(ckpt.params.size()) +
            " params, model expects " + std::to_string(model->num_params()));
      }
      if (options.theorem_averaging &&
          ckpt.avg_params.size() != avg_params.size()) {
        return Status::InvalidArgument(
            "checkpoint averaging state does not match the model");
      }
      model->params() = std::move(ckpt.params);
      if (options.theorem_averaging) {
        avg_params = std::move(ckpt.avg_params);
        weight_sum = ckpt.weight_sum;
      }
      start_epoch = ckpt.next_epoch;
      result.total_tuples = ckpt.total_tuples;
      result.best_test_metric = ckpt.best_test_metric;
      result.total_quarantined_blocks = ckpt.total_quarantined_blocks;
      result.total_skipped_tuples = ckpt.total_skipped_tuples;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();  // corrupt/unreadable checkpoint: surface it
    }
  }
  result.resumed_from_epoch = start_epoch;
  if (start_epoch > options.epochs) start_epoch = options.epochs;
  result.epochs.reserve(options.epochs - start_epoch);

  // Transport buffer; the arena is reused across batches and epochs.
  TupleBatch exec_batch(options.exec_batch_tuples);
  const std::function<bool(TupleBatch*)> next = [stream](TupleBatch* b) {
    return stream->NextBatch(b);
  };

  auto save_checkpoint = [&](uint32_t next_epoch) -> Status {
    TrainCheckpoint ckpt;
    ckpt.model_name = model->name();
    ckpt.next_epoch = next_epoch;
    ckpt.params = model->params();
    if (options.theorem_averaging) {
      ckpt.avg_params = avg_params;
      ckpt.weight_sum = weight_sum;
    }
    ckpt.total_tuples = result.total_tuples;
    ckpt.best_test_metric = result.best_test_metric;
    ckpt.total_quarantined_blocks = result.total_quarantined_blocks;
    ckpt.total_skipped_tuples = result.total_skipped_tuples;
    return SaveCheckpoint(ckpt, options.checkpoint_path);
  };

  for (uint32_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    CORGI_INJECT_POINT("trainer.epoch_begin");
    const double lr = options.lr.LrAtEpoch(epoch);
    CORGI_RETURN_NOT_OK(stream->StartEpoch(epoch));
    const uint64_t quarantined_before = stream->QuarantinedBlocks();
    const uint64_t skipped_before = stream->SkippedTuples();

    WallTimer timer;
    const EpochSums sums = RunSgdEpoch(model, opt.get(), &grad,
                                       options.batch_size, lr, &exec_batch,
                                       next);
    CORGI_RETURN_NOT_OK(stream->status());

    const Model* metrics_model = model;
    if (options.theorem_averaging) {
      const double w =
          std::pow(static_cast<double>(epoch) + options.averaging_offset, 3.0);
      weight_sum += w;
      const auto& p = model->params();
      for (size_t i = 0; i < avg_params.size(); ++i) {
        avg_params[i] += (w / weight_sum) * (p[i] - avg_params[i]);
      }
      eval_model->params() = avg_params;
      metrics_model = eval_model.get();
    }

    EpochLog log;
    log.epoch = epoch;
    log.lr = lr;
    log.tuples_seen = sums.tuples;
    log.epoch_wall_seconds = timer.ElapsedSeconds();
    log.train_loss = sums.tuples > 0
                         ? sums.loss_sum / static_cast<double>(sums.tuples)
                         : 0.0;
    log.quarantined_blocks = stream->QuarantinedBlocks() - quarantined_before;
    log.skipped_tuples = stream->SkippedTuples() - skipped_before;
    if (options.clock != nullptr) {
      options.clock->Advance(TimeCategory::kCompute, log.epoch_wall_seconds);
    }
    if (options.test_set != nullptr && !options.test_set->empty()) {
      const EvalResult eval =
          Evaluate(*metrics_model, *options.test_set, options.label_type);
      log.test_loss = eval.mean_loss;
      log.test_metric = eval.metric;
    }
    log.cumulative_sim_seconds =
        options.clock != nullptr ? options.clock->TotalElapsed() : 0.0;
    result.total_tuples += sums.tuples;
    result.total_quarantined_blocks += log.quarantined_blocks;
    result.total_skipped_tuples += log.skipped_tuples;
    result.best_test_metric = std::max(result.best_test_metric, log.test_metric);
    result.epochs.push_back(log);

    // Chaos point: a kill here dies after the epoch's updates but before
    // its checkpoint — a restart replays the whole epoch from the previous
    // checkpoint and must land on identical parameters.
    CORGI_INJECT_POINT("trainer.epoch_end");
    const bool target_hit = options.target_metric > 0.0 &&
                            log.test_metric >= options.target_metric;
    const bool last_epoch = target_hit || epoch + 1 == options.epochs;
    if (!options.checkpoint_path.empty() &&
        (last_epoch ||
         (epoch + 1 - start_epoch) % options.checkpoint_every_epochs == 0)) {
      CORGI_RETURN_NOT_OK(save_checkpoint(epoch + 1));
    }
    if (target_hit) break;
  }
  if (options.theorem_averaging && !avg_params.empty()) {
    model->params() = avg_params;  // expose x̄_S as the trained model
  }
  if (!result.epochs.empty()) {
    result.final_test_metric = result.epochs.back().test_metric;
    result.final_test_loss = result.epochs.back().test_loss;
  }
  return result;
}

}  // namespace corgipile
