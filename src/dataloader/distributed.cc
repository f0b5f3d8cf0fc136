#include "dataloader/distributed.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "dataloader/data_loader.h"
#include "util/timer.h"

namespace corgipile {

const char* WorkerFailurePolicyToString(WorkerFailurePolicy policy) {
  switch (policy) {
    case WorkerFailurePolicy::kFailFast: return "fail_fast";
    case WorkerFailurePolicy::kDropAndRescale: return "drop_and_rescale";
    case WorkerFailurePolicy::kWait: return "wait";
  }
  return "?";
}

namespace {

/// Supervisor-side view of one worker. Written by the supervisor thread
/// and (heartbeat only) by the worker's own pool task; the ParallelFor
/// barrier orders those writes before the supervisor reads them.
struct WorkerState {
  bool active = true;
  Status status;  ///< sticky: the error that dropped/failed the worker
  uint64_t heartbeat_steps = 0;
  double epoch_sim_seconds = 0.0;  ///< attributed this epoch (deterministic)
  double total_sim_seconds = 0.0;
};

}  // namespace

Result<TrainResult> TrainDistributed(Model* model, BlockSource* source,
                                     const DistributedTrainerOptions& options) {
  if (model == nullptr || source == nullptr) {
    return Status::InvalidArgument("null model or source");
  }
  const uint32_t P = std::max<uint32_t>(1, options.num_workers);
  if (options.global_batch_size < P) {
    return Status::InvalidArgument("global batch smaller than worker count");
  }
  const uint32_t microbatch = options.global_batch_size / P;
  const bool deadline_enabled = options.clock != nullptr &&
                                options.straggler_deadline_sim_seconds > 0.0;
  // Supervision accounting (kStragglerWait) is only charged when a
  // supervision knob is on, so default runs keep the legacy time model.
  const bool supervised =
      options.failure_policy != WorkerFailurePolicy::kFailFast ||
      deadline_enabled;

  // Per-worker datasets and loaders.
  const uint64_t buffer_total = std::max<uint64_t>(
      P, static_cast<uint64_t>(options.buffer_fraction_total *
                               static_cast<double>(source->num_tuples())));
  CorgiPileDataset::Options dopts;
  dopts.buffer_tuples = std::max<uint64_t>(1, buffer_total / P);
  dopts.seed = options.seed;
  dopts.shuffle_blocks = options.shuffle_blocks;
  dopts.shuffle_tuples = options.shuffle_tuples;

  std::vector<std::unique_ptr<CorgiPileDataset>> datasets;
  std::vector<std::unique_ptr<DataLoader>> loaders;
  for (uint32_t w = 0; w < P; ++w) {
    datasets.push_back(std::make_unique<CorgiPileDataset>(source, dopts));
    DataLoader::Options lopts;
    lopts.batch_size = microbatch;
    lopts.worker_id = w;
    lopts.num_workers = P;
    loaders.push_back(std::make_unique<DataLoader>(datasets[w].get(), lopts));
  }

  model->InitParams(options.init_seed);
  std::unique_ptr<Optimizer> opt = MakeOptimizer(options.optimizer);
  opt->Reset(model->num_params());

  ThreadPool pool(P);
  std::vector<std::unique_ptr<Model>> replicas;  // per-worker compute clones
  std::vector<std::vector<double>> worker_grads(
      P, std::vector<double>(model->num_params(), 0.0));
  std::vector<TupleBatch> microbatches(P);
  std::vector<double> worker_loss(P, 0.0);
  std::vector<WorkerState> workers(P);

  CancellationToken cancel;
  const Deadline run_deadline =
      options.clock != nullptr && options.run_deadline_sim_seconds > 0.0
          ? Deadline(options.clock, options.run_deadline_sim_seconds)
          : Deadline::Infinite();

  TrainResult result;

  const auto active_workers = [&] {
    uint32_t n = 0;
    for (const WorkerState& ws : workers) n += ws.active ? 1 : 0;
    return n;
  };

  // Applies the failure policy to worker `w`. Returns OK when the worker
  // was evicted and training continues, otherwise the (annotated) error to
  // unwind with. kWait only tolerates stragglers — a hard I/O/corruption
  // error cannot be waited out, so it fails fast under kWait too.
  const auto worker_failed = [&](uint32_t w, uint32_t epoch,
                                 const Status& st) -> Status {
    workers[w].status = st;
    if (options.failure_policy == WorkerFailurePolicy::kDropAndRescale) {
      workers[w].active = false;
      microbatches[w].Clear();
      result.dropped_workers.push_back(
          DroppedWorker{w, epoch, st.code(), st.message()});
      return Status::OK();
    }
    cancel.Cancel(st);
    return Status(st.code(),
                  "worker " + std::to_string(w) + ": " + st.message());
  };

  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (active_workers() == 0) {
      return Status::ResourceExhausted(
          "all " + std::to_string(P) +
          " workers dropped — cannot continue training");
    }
    const double lr = options.lr.LrAtEpoch(epoch);
    for (uint32_t w = 0; w < P; ++w) {
      workers[w].epoch_sim_seconds = 0.0;  // dropped workers too: the
                                           // barrier only waits for the
                                           // living
      if (!workers[w].active) continue;
      CORGI_RETURN_NOT_OK(loaders[w]->StartEpoch(epoch));
    }
    WallTimer timer;
    double loss_sum = 0.0;
    uint64_t seen = 0;
    std::vector<double> reduced(model->num_params(), 0.0);

    for (;;) {
      if (run_deadline.Expired()) {
        Status st = run_deadline.Check("distributed training run");
        cancel.Cancel(st);
        return st;
      }

      // Each worker pulls its microbatch (supervisor thread: loader state
      // is not thread-safe; pulling is cheap relative to gradient
      // compute). Pulling serially is also what makes the per-worker
      // SimClock attribution below exact: the clock delta around worker
      // w's pull — including injected latency spikes and retry backoff on
      // w's blocks — belongs to w alone.
      uint64_t batch_total = 0;
      for (uint32_t w = 0; w < P; ++w) {
        if (!workers[w].active) continue;
        const double sim_before =
            options.clock != nullptr ? options.clock->TotalElapsed() : 0.0;
        auto more = loaders[w]->NextBatch(&microbatches[w]);
        if (options.clock != nullptr) {
          const double d = options.clock->TotalElapsed() - sim_before;
          workers[w].epoch_sim_seconds += d;
          workers[w].total_sim_seconds += d;
        }
        if (!more.ok()) {
          microbatches[w].Clear();
          CORGI_RETURN_NOT_OK(worker_failed(w, epoch, more.status()));
          continue;
        }
        batch_total += microbatches[w].size();
      }

      // Straggler deadline: a worker whose attributed simulated time this
      // epoch exceeds the budget is evicted (kDropAndRescale) or fails the
      // run (kFailFast); kWait lets the barrier keep waiting.
      if (deadline_enabled &&
          options.failure_policy != WorkerFailurePolicy::kWait) {
        for (uint32_t w = 0; w < P; ++w) {
          if (!workers[w].active ||
              workers[w].epoch_sim_seconds <=
                  options.straggler_deadline_sim_seconds) {
            continue;
          }
          Status st = Status::DeadlineExceeded(
              "straggler: " + std::to_string(workers[w].epoch_sim_seconds) +
              " simulated s this epoch > deadline " +
              std::to_string(options.straggler_deadline_sim_seconds));
          batch_total -= microbatches[w].size();
          CORGI_RETURN_NOT_OK(worker_failed(w, epoch, st));
        }
      }
      if (active_workers() == 0) {
        return Status::ResourceExhausted(
            "all " + std::to_string(P) +
            " workers dropped — cannot continue training");
      }
      if (batch_total == 0) break;  // all surviving shards exhausted

      // Parallel gradient computation against the shared parameters. Each
      // worker uses its own model replica synced to the current params and
      // writes only its own slots; the ParallelFor barrier publishes them
      // back to the supervisor. Workers poll the cancellation token so a
      // fail-fast unwind does not leave stale tasks running.
      if (replicas.empty()) {
        for (uint32_t w = 0; w < P; ++w) replicas.push_back(model->Clone());
      }
      Status compute = pool.ParallelFor(
          P,
          [&](size_t w) -> Status {
            worker_loss[w] = 0.0;
            auto& grad = worker_grads[w];
            std::fill(grad.begin(), grad.end(), 0.0);
            if (!workers[w].active || microbatches[w].empty()) {
              return Status::OK();
            }
            replicas[w]->params() = model->params();
            const TupleBatch& rows = microbatches[w];
            for (size_t i = 0; i < rows.size(); ++i) {
              if (((i + 1) & 63u) == 0 && cancel.cancelled()) {
                return cancel.status();
              }
              worker_loss[w] +=
                  replicas[w]->AccumulateGrad(rows.row(i), &grad);
            }
            workers[w].heartbeat_steps++;  // liveness report to supervisor
            return Status::OK();
          },
          &cancel);
      CORGI_RETURN_NOT_OK(compute);

      // AllReduce: average over all tuples the surviving workers
      // contributed this step. Dividing by batch_total (not the original
      // global batch) is the drop_and_rescale denominator rescaling.
      std::fill(reduced.begin(), reduced.end(), 0.0);
      for (uint32_t w = 0; w < P; ++w) {
        if (!workers[w].active) continue;
        loss_sum += worker_loss[w];
        for (size_t i = 0; i < reduced.size(); ++i) {
          reduced[i] += worker_grads[w][i];
        }
      }
      const double inv = 1.0 / static_cast<double>(batch_total);
      for (double& g : reduced) g *= inv;
      opt->Apply(&model->params(), reduced, lr);
      seen += batch_total;
    }

    EpochLog log;
    log.epoch = epoch;
    log.lr = lr;
    log.tuples_seen = seen;
    log.epoch_wall_seconds = timer.ElapsedSeconds();
    log.train_loss = seen > 0 ? loss_sum / static_cast<double>(seen) : 0.0;
    log.active_workers = active_workers();
    // Barrier accounting: the epoch's simulated critical path is the
    // slowest worker; everyone else idled at the AllReduce barrier for the
    // difference. Charged only for supervised runs to keep the legacy time
    // model of plain runs unchanged.
    double slowest = 0.0;
    for (const WorkerState& ws : workers) {
      slowest = std::max(slowest, ws.epoch_sim_seconds);
    }
    log.barrier_sim_seconds = slowest;
    if (options.clock != nullptr) {
      if (supervised) {
        double idle = 0.0;
        for (const WorkerState& ws : workers) {
          if (ws.active) idle += slowest - ws.epoch_sim_seconds;
        }
        options.clock->Advance(TimeCategory::kStragglerWait, idle);
      }
      options.clock->Advance(TimeCategory::kCompute, log.epoch_wall_seconds);
    }
    if (options.test_set != nullptr && !options.test_set->empty()) {
      const EvalResult eval =
          Evaluate(*model, *options.test_set, options.label_type);
      log.test_loss = eval.mean_loss;
      log.test_metric = eval.metric;
    }
    log.cumulative_sim_seconds =
        options.clock != nullptr ? options.clock->TotalElapsed() : 0.0;
    result.total_tuples += seen;
    result.best_test_metric =
        std::max(result.best_test_metric, log.test_metric);
    result.epochs.push_back(log);
    if (options.epoch_callback) options.epoch_callback(epoch, *model);
  }
  if (!result.epochs.empty()) {
    result.final_test_metric = result.epochs.back().test_metric;
    result.final_test_loss = result.epochs.back().test_loss;
  }
  for (uint32_t w = 0; w < P; ++w) {
    result.workers.push_back(WorkerSummary{w, workers[w].heartbeat_steps,
                                           workers[w].total_sim_seconds,
                                           !workers[w].active});
  }
  return result;
}

Result<std::vector<uint64_t>> TraceDistributedOrder(
    BlockSource* source, uint32_t num_workers, uint64_t buffer_per_worker,
    uint32_t microbatch, uint64_t seed, uint64_t epoch) {
  if (source == nullptr) return Status::InvalidArgument("null source");
  const uint32_t P = std::max<uint32_t>(1, num_workers);
  CorgiPileDataset::Options dopts;
  dopts.buffer_tuples = std::max<uint64_t>(1, buffer_per_worker);
  dopts.seed = seed;
  std::vector<std::unique_ptr<CorgiPileDataset>> datasets;
  std::vector<std::unique_ptr<DataLoader>> loaders;
  for (uint32_t w = 0; w < P; ++w) {
    datasets.push_back(std::make_unique<CorgiPileDataset>(source, dopts));
    DataLoader::Options lopts;
    lopts.batch_size = microbatch;
    lopts.worker_id = w;
    lopts.num_workers = P;
    loaders.push_back(std::make_unique<DataLoader>(datasets[w].get(), lopts));
    CORGI_RETURN_NOT_OK(loaders[w]->StartEpoch(epoch));
  }
  std::vector<uint64_t> order;
  TupleBatch batch;
  for (;;) {
    uint64_t got = 0;
    for (uint32_t w = 0; w < P; ++w) {
      CORGI_ASSIGN_OR_RETURN(bool more, loaders[w]->NextBatch(&batch));
      (void)more;
      for (size_t i = 0; i < batch.size(); ++i) order.push_back(batch.id(i));
      got += batch.size();
    }
    if (got == 0) break;
  }
  return order;
}

}  // namespace corgipile
