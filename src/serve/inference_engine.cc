#include "serve/inference_engine.h"

#include <algorithm>
#include <utility>

#include "iosim/fault_plane.h"

namespace corgipile {

namespace {

/// Queued rows that trigger a Dispatch() before the submission ends.
constexpr size_t kDispatchRows = TupleBatch::kDefaultTargetTuples;

/// Does a row with these features fit a model built for
/// `model.input_dim()` inputs? (0 = unknown dimensionality, accept.)
/// Guards the Dot() contract instead of reading past the weight vector.
bool Fits(const RowView& r, const Model& model) {
  const uint32_t dim = model.input_dim();
  if (dim == 0) return true;
  if (r.sparse() && r.nnz > 0) return r.keys[r.nnz - 1] < dim;
  return r.nnz <= dim;
}

/// Moves the fields every row of a submission shares out of a
/// ServeRequest or ServeBatchRequest.
template <typename Request, typename Dest>
void TakeSharedFields(Request& req, Dest* sub) {
  sub->model_id = std::move(req.model_id);
  sub->arrival_s = req.arrival_s;
  sub->deadline_s = req.deadline_s;
  sub->token = std::move(req.token);
  sub->on_arrival = std::move(req.on_arrival);
}

/// Blocking push that leaves `p` intact when the channel refuses it, so
/// the caller can still answer its rows with the failure.
template <typename T>
Status PushBlocking(Channel<T>& ch, T& p) {
  for (;;) {
    auto pushed = ch.TryPush(p);
    if (!pushed.ok()) return pushed.status();
    if (*pushed) return Status::OK();
    CORGI_RETURN_NOT_OK(ch.WaitWritable());
  }
}

}  // namespace

InferenceEngine::InferenceEngine(ModelStore* store, ServeOptions options)
    : store_(store),
      options_(std::move(options)),
      intake_(std::max<uint64_t>(
          64, options_.max_queue_depth == 0 ? 1024
                                            : 2 * options_.max_queue_depth)),
      batches_(2 * std::max<uint32_t>(1, options_.num_workers)),
      pool_(std::max<uint32_t>(1, options_.num_workers)),
      worker_free_s_(std::max<uint32_t>(1, options_.num_workers), 0.0) {
  // Chaos hook: scripted send failures on the scheduler→worker channel
  // surface as per-row errors, never as wrong answers (tests/chaos_test).
  batches_.set_chaos_point("channel.serve.batches");
}

InferenceEngine::~InferenceEngine() {
  // Destructor cannot propagate the Status; Drain() here only exists to
  // complete pending submissions, and its failure modes (never started /
  // already drained) are exactly the states the guard excludes.
  if (started_ && !drained_) (void)Drain();
}

Status InferenceEngine::Start() {
  if (started_) return Status::Internal("InferenceEngine started twice");
  started_ = true;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  const size_t workers = worker_free_s_.size();
  worker_done_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    worker_done_.push_back(pool_.Submit([this] { WorkerLoop(); }));
  }
  return Status::OK();
}

std::future<ServeReply> InferenceEngine::Submit(ServeRequest req) {
  auto sub = std::make_shared<Submission>();
  sub->rows = std::move(req.tuple);
  sub->num_rows = 1;
  TakeSharedFields(req, sub.get());
  std::future<ServeReply> fut =
      sub->done.emplace<std::promise<ServeReply>>().get_future();
  Enqueue(std::move(sub));
  return fut;
}

void InferenceEngine::SubmitBatch(ServeBatchRequest req,
                                  ServeBatchCallback done) {
  auto sub = std::make_shared<Submission>();
  sub->num_rows = static_cast<uint32_t>(req.rows.size());
  sub->rows = std::move(req.rows);
  TakeSharedFields(req, sub.get());
  sub->done = std::move(done);
  Enqueue(std::move(sub));
}

void InferenceEngine::Enqueue(std::shared_ptr<Submission> sub) {
  sub->replies.resize(sub->num_rows);
  sub->unresolved.store(sub->num_rows, std::memory_order_relaxed);
  if (sub->num_rows == 0) {
    Complete(sub.get());
    return;
  }
  Status st = PushBlocking(intake_, sub);
  if (!st.ok()) {
    for (uint32_t row = 0; row < sub->num_rows; ++row) {
      Fail(RowRef{sub.get(), row}, st);
    }
  }
}

Status InferenceEngine::Drain() {
  if (!started_) return Status::Internal("InferenceEngine never started");
  if (drained_) return Status::OK();
  drained_ = true;
  intake_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  for (auto& done : worker_done_) done.wait();
  return Status::OK();
}

ServeStats InferenceEngine::stats() const {
  MutexLock lock(stats_mu_);
  return stats_.Finalize();
}

void InferenceEngine::Fail(const RowRef& ref, Status status) {
  ref.sub->replies[ref.row].status = std::move(status);
  Resolve(ref.sub, 1);
}

void InferenceEngine::Resolve(Submission* sub, uint32_t rows) {
  // acq_rel: every reply written before another thread's decrement is
  // visible to whichever thread completes the submission.
  if (sub->unresolved.fetch_sub(rows, std::memory_order_acq_rel) == rows) {
    Complete(sub);
  }
}

void InferenceEngine::Complete(Submission* sub) {
  if (auto* promise = std::get_if<std::promise<ServeReply>>(&sub->done)) {
    promise->set_value(std::move(sub->replies.front()));
    return;
  }
  auto& done = std::get<ServeBatchCallback>(sub->done);
  if (done) {
    done(ServeBatchReply{std::move(std::get<TupleBatch>(sub->rows)),
                         std::move(sub->replies)});
  }
}

RowView InferenceEngine::Row(const RowRef& ref) {
  if (const Tuple* t = std::get_if<Tuple>(&ref.sub->rows)) return *t;
  return std::get<TupleBatch>(ref.sub->rows).row(ref.row);
}

void InferenceEngine::SchedulerLoop() {
  for (;;) {
    std::shared_ptr<Submission> sub;
    if (options_.flush_on_idle && !open_rows_.empty()) {
      auto popped = intake_.TryPop(&sub);
      if (!popped.ok()) break;  // cancelled; open batch failed below
      if (!*popped) {
        if (intake_.closed()) break;  // final flush below
        // Idle: no session is waiting to join this batch — the deadline
        // effectively expires now.
        CloseOpenBatch(now_s_, /*by_deadline=*/true);
        Dispatch();
        continue;
      }
    } else {
      auto popped = intake_.Pop(&sub);
      if (!popped.ok() || !*popped) break;
    }
    if (sub->on_arrival) sub->on_arrival();
    {
      MutexLock lock(stats_mu_);
      stats_.RecordArrivals(std::max(sub->arrival_s, 0.0), sub->num_rows);
    }
    // A submission's rows are already queued: no idle flush between them.
    for (uint32_t row = 0; row < sub->num_rows; ++row) ProcessRow(sub, row);
    Dispatch();
  }
  // End of stream: the open batch waits out its deadline with no further
  // arrivals to fill it.
  if (!open_rows_.empty()) {
    CloseOpenBatch(options_.flush_on_idle
                       ? now_s_
                       : open_time_ + options_.batch_deadline_s,
                   /*by_deadline=*/true);
  }
  Dispatch();
  batches_.Close();
}

void InferenceEngine::ProcessRow(const std::shared_ptr<Submission>& sub,
                                 uint32_t row) {
  const Submission& s = *sub;
  const RowRef ref{sub.get(), row};
  const double arrival = std::max(s.arrival_s, 0.0);
  now_s_ = std::max(now_s_, arrival);

  // A deadline that fell before this arrival closed the open batch first.
  if (!open_rows_.empty() &&
      arrival > open_time_ + options_.batch_deadline_s) {
    CloseOpenBatch(open_time_ + options_.batch_deadline_s,
                   /*by_deadline=*/true);
  }

  if (s.token.cancelled()) {
    {
      MutexLock lock(stats_mu_);
      stats_.RecordCancelled();
    }
    Fail(ref, s.token.status());
    return;
  }

  // Admission control against the modeled queue: rows whose service has
  // not started by `arrival` plus the open batch.
  while (backlog_head_ < backlog_.size() &&
         backlog_[backlog_head_].first <= arrival) {
    backlog_count_ -= backlog_[backlog_head_].second;
    ++backlog_head_;
  }
  if (backlog_head_ > 64 && backlog_head_ * 2 > backlog_.size()) {
    backlog_.erase(backlog_.begin(),
                   backlog_.begin() + static_cast<ptrdiff_t>(backlog_head_));
    backlog_head_ = 0;
  }
  const uint64_t occupancy = backlog_count_ + open_rows_.size();
  if (options_.max_queue_depth > 0 &&
      occupancy >= options_.max_queue_depth) {
    {
      MutexLock lock(stats_mu_);
      stats_.RecordShed();
    }
    Fail(ref, Status::ResourceExhausted("serve queue full (" +
                                        std::to_string(occupancy) +
                                        " waiting)"));
    return;
  }

  // Batches are per model id; a switch closes the open batch early.
  if (!open_rows_.empty() && s.model_id != open_model_id_) {
    CloseOpenBatch(arrival, /*by_deadline=*/false);
  }
  if (open_rows_.empty()) {
    open_model_id_ = s.model_id;
    open_time_ = arrival;
  }
  open_rows_.push_back(ref);
  if (open_owners_.empty() || open_owners_.back() != sub) {
    open_owners_.push_back(sub);
  }
  if (open_rows_.size() >= options_.max_batch) {
    CloseOpenBatch(arrival, /*by_deadline=*/false);
  }
}

Result<ModelSnapshot> InferenceEngine::ResolveSnapshot(double close_s) {
  CircuitBreaker& breaker =
      breakers_.try_emplace(open_model_id_, options_.breaker).first->second;

  if (!breaker.AllowRequest(close_s)) {
    MutexLock lock(stats_mu_);
    stats_.RecordBreakerShortCircuit();
    return Status::ResourceExhausted("circuit breaker open for model '" +
                                     open_model_id_ + "'");
  }

  double backoff = options_.resolve_backoff_s;
  Status last = Status::OK();
  for (uint32_t attempt = 0;; ++attempt) {
    Result<ModelSnapshot> snap = [&]() -> Result<ModelSnapshot> {
      CORGI_INJECT_POINT("serve.resolve");
      return store_->GetSnapshot(open_model_id_);
    }();
    if (snap.ok()) {
      // A re-published model deserves a cold breaker: stale failures from
      // the previous version must not trip against the new one.
      auto prev = last_good_.find(open_model_id_);
      if (prev != last_good_.end() &&
          prev->second.version != snap.ValueOrDie().version) {
        breaker.Reset();
      }
      breaker.RecordSuccess();
      last_good_[open_model_id_] = snap.ValueOrDie();
      return snap;
    }
    // kNotFound is permanent (the model was never stored): no amount of
    // retrying or tripping helps, and brownout would serve a ghost.
    if (snap.status().IsNotFound()) return snap;
    last = snap.status();
    const uint64_t opens_before = breaker.opens();
    breaker.RecordFailure(close_s);
    if (breaker.opens() != opens_before) {
      MutexLock lock(stats_mu_);
      stats_.RecordBreakerOpen();
    }
    if (attempt >= options_.resolve_max_retries ||
        breaker.state() != CircuitBreaker::State::kClosed) {
      break;
    }
    {
      MutexLock lock(stats_mu_);
      stats_.RecordResolveRetry();
    }
    if (options_.clock != nullptr) {
      options_.clock->Advance(TimeCategory::kRetryBackoff, backoff);
    }
    backoff *= std::max(1.0, options_.resolve_backoff_multiplier);
  }
  return last;
}

bool InferenceEngine::ApplyCanary(const ModelSnapshot& incumbent,
                                  const TupleBatch& tuples, uint64_t served,
                                  double close_s, ModelSnapshot* snapshot) {
  if (!options_.serve_canary) return false;
  std::optional<CanarySnapshot> staged = store_->GetCanary(open_model_id_);
  if (!staged.has_value()) {
    // Promoted, aborted, or never staged: drop any stale runtime so a
    // future candidate starts cold.
    canaries_.erase(open_model_id_);
    return false;
  }
  const CanaryPolicy& policy = staged->policy;
  auto it = canaries_.find(open_model_id_);
  if (it == canaries_.end() || it->second.version != staged->version) {
    // Fresh candidate (or a re-stage burned the old one): cold routing RNG
    // and breach breaker, both derived from the staged policy so every
    // engine run makes identical decisions.
    if (it != canaries_.end()) canaries_.erase(it);
    CircuitBreakerOptions bopts;
    bopts.window = policy.breaker_window;
    bopts.min_samples = policy.breaker_min_samples;
    bopts.error_threshold = policy.breaker_error_threshold;
    it = canaries_
             .emplace(open_model_id_,
                      CanaryRuntime{staged->version, Rng(policy.seed),
                                    CircuitBreaker(bopts), 0})
             .first;
  }
  CanaryRuntime& rt = it->second;
  // One seeded draw per batch: whole micro-batches route to exactly one
  // version, so a request's reply never mixes versions.
  if (rt.rng.NextDouble() >= policy.fraction) return false;

  // Paired quality: candidate vs incumbent loss over the *same* tuples,
  // computed synchronously on the scheduler thread so the breach/promote
  // decision sequence is a pure function of the schedule.
  double candidate_loss = 0.0;
  double incumbent_loss = 0.0;
  staged->model->BatchLoss(tuples, &candidate_loss);
  incumbent.model->BatchLoss(tuples, &incumbent_loss);
  const bool breach =
      candidate_loss >
      incumbent_loss * (1.0 + policy.loss_tolerance) + 1e-12;

  {
    MutexLock lock(stats_mu_);
    stats_.RecordCanaryBatch(served);
    if (breach) stats_.RecordCanaryBreach();
  }

  // The breach breaker turns per-batch outcomes into the trip decision.
  // AllowRequest only advances the Open→HalfOpen timer; a tripped canary
  // is aborted below, so short-circuiting never applies here.
  (void)rt.breaker.AllowRequest(close_s);
  if (breach) {
    rt.clean_streak = 0;
    rt.breaker.RecordFailure(close_s);
  } else {
    rt.breaker.RecordSuccess();
    ++rt.clean_streak;
  }

  // This batch is already the candidate's (its answers are well-formed,
  // just possibly lower-quality); the decisions below only steer *future*
  // traffic.
  *snapshot = ModelSnapshot{staged->model, staged->version};

  if (breach && policy.auto_rollback &&
      rt.breaker.state() != CircuitBreaker::State::kClosed) {
    // Trip: the candidate regressed on enough paired batches. Abort so the
    // incumbent resumes 100% of traffic. A failed abort (chaos-injected)
    // leaves the runtime in place and retries on the next canary batch.
    if (store_->AbortCanary(open_model_id_).ok()) {
      MutexLock lock(stats_mu_);
      stats_.RecordCanaryRollback();
      canaries_.erase(open_model_id_);
    }
    return true;
  }
  if (!breach && policy.promote_after_batches > 0 &&
      rt.clean_streak >= policy.promote_after_batches) {
    if (store_->PromoteCanary(open_model_id_).ok()) {
      MutexLock lock(stats_mu_);
      stats_.RecordCanaryPromotion();
      canaries_.erase(open_model_id_);
    }
  }
  return true;
}

void InferenceEngine::CloseOpenBatch(double close_s, bool by_deadline) {
  if (open_rows_.empty()) return;
  std::vector<RowRef> rows = std::move(open_rows_);
  std::vector<std::shared_ptr<Submission>> owners = std::move(open_owners_);
  open_rows_.clear();
  open_owners_.clear();

  // Hot-swap boundary: the snapshot resolved here serves the whole batch,
  // even if a Publish() lands before the batch executes.
  bool brownout = false;
  auto snapshot = ResolveSnapshot(close_s);
  if (!snapshot.ok()) {
    // Brownout: answer from the last snapshot that did resolve — an older
    // version is still a *correct* model, just possibly stale, which beats
    // shedding the batch.
    auto good = last_good_.find(open_model_id_);
    if (options_.enable_brownout && !snapshot.status().IsNotFound() &&
        good != last_good_.end()) {
      snapshot = good->second;
      brownout = true;
    } else {
      {
        MutexLock lock(stats_mu_);
        for (size_t i = 0; i < rows.size(); ++i) stats_.RecordFailed();
      }
      for (const RowRef& ref : rows) Fail(ref, snapshot.status());
      return;
    }
  }

  // First-free simulated service slot (ties → lowest index).
  const size_t w = static_cast<size_t>(
      std::min_element(worker_free_s_.begin(), worker_free_s_.end()) -
      worker_free_s_.begin());
  const double start_s = std::max(close_s, worker_free_s_[w]);

  std::vector<RowRef> run;
  run.reserve(rows.size());
  for (const RowRef& ref : rows) {
    const Submission& s = *ref.sub;
    if (s.token.cancelled()) {
      {
        MutexLock lock(stats_mu_);
        stats_.RecordCancelled();
      }
      Fail(ref, s.token.status());
      continue;
    }
    if (s.deadline_s > 0.0 && start_s - s.arrival_s > s.deadline_s) {
      {
        MutexLock lock(stats_mu_);
        stats_.RecordExpired();
      }
      Fail(ref, Status::DeadlineExceeded("request queued past its " +
                                         std::to_string(s.deadline_s) +
                                         "s deadline"));
      continue;
    }
    if (!Fits(Row(ref), *snapshot->model)) {
      {
        MutexLock lock(stats_mu_);
        stats_.RecordFailed();
      }
      Fail(ref, Status::InvalidArgument(
                    "tuple features exceed model '" + open_model_id_ +
                    "' input_dim=" +
                    std::to_string(snapshot->model->input_dim())));
      continue;
    }
    run.push_back(ref);
  }
  if (run.empty()) return;  // nothing survived; no service slot consumed

  // Pack the arena before the canary stage: paired quality evaluation
  // needs the batched rows.
  Batch batch;
  batch.model_id = open_model_id_;
  batch.tuples.set_target_tuples(run.size());
  batch.tuples.Reserve(run.size(), Row(run.front()).nnz);
  for (const RowRef& ref : run) batch.tuples.Append(Row(ref));

  // Canary routing (DESIGN.md §13). A brownout batch never canaries: it is
  // already serving degraded, and its "incumbent" is a stale snapshot.
  ModelSnapshot serving = snapshot.ValueOrDie();
  bool canary = false;
  if (!brownout) {
    canary =
        ApplyCanary(snapshot.ValueOrDie(), batch.tuples, run.size(), close_s,
                    &serving);
  }

  const double service_s =
      options_.per_batch_overhead_s +
      static_cast<double>(run.size()) * options_.per_tuple_s;
  const double completion_s = start_s + service_s;
  worker_free_s_[w] = completion_s;
  backlog_.emplace_back(start_s, run.size());
  backlog_count_ += run.size();
  if (options_.clock != nullptr) {
    options_.clock->Advance(TimeCategory::kServe, service_s);
  }
  batch_latencies_.clear();
  for (const RowRef& ref : run) {
    batch_latencies_.push_back(completion_s - ref.sub->arrival_s);
  }
  {
    MutexLock lock(stats_mu_);
    stats_.RecordBatch(run.size(), by_deadline, service_s);
    if (brownout) stats_.RecordBrownoutBatch(run.size());
    stats_.RecordCompletions(open_model_id_, serving.version, completion_s,
                             batch_latencies_);
  }

  batch.model = serving.model;
  batch.version = serving.version;
  batch.seq = next_batch_seq_++;
  batch.canary = canary;
  batch.completion_s = completion_s;
  batch.rows = std::move(run);
  batch.owners = std::move(owners);
  dispatch_rows_ += batch.rows.size();
  dispatch_.push_back(std::move(batch));
  if (dispatch_rows_ >= kDispatchRows) Dispatch();
}

void InferenceEngine::Dispatch() {
  if (dispatch_.empty()) return;
  Status st = PushBlocking(batches_, dispatch_);
  if (!st.ok()) {
    for (const Batch& batch : dispatch_) {
      for (const RowRef& ref : batch.rows) Fail(ref, st);
    }
  }
  dispatch_.clear();
  dispatch_rows_ = 0;
}

void InferenceEngine::WorkerLoop() {
  std::vector<double> values;
  std::vector<double> losses;
  std::vector<uint8_t> corrects;
  for (;;) {
    std::vector<Batch> group;
    auto popped = batches_.Pop(&group);
    if (!popped.ok() || !*popped) return;
    for (const Batch& batch : group) {
      RunBatch(batch, &values, &losses, &corrects);
    }
  }
}

void InferenceEngine::RunBatch(const Batch& batch, std::vector<double>* values,
                               std::vector<double>* losses,
                               std::vector<uint8_t>* corrects) {
  const size_t n = batch.rows.size();
  values->resize(n);
  losses->resize(n);
  corrects->resize(n);
  // One BatchEvaluate call per micro-batch; it is const and thread-safe on
  // the shared snapshot.
  batch.model->BatchEvaluate(batch.tuples, values->data(), losses->data(),
                             corrects->data());
  // Per-version quality: summed row-major here (deterministic within the
  // batch), folded in dispatch order by ServeStatsBuilder::Finalize so
  // worker interleaving never changes the totals.
  uint64_t correct_count = 0;
  double loss_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    correct_count += (*corrects)[i] != 0 ? 1 : 0;
    loss_sum += (*losses)[i];
  }
  {
    MutexLock lock(stats_mu_);
    stats_.RecordBatchQuality(batch.seq, batch.model_id, batch.version, n,
                              correct_count, loss_sum);
  }
  // Write every reply before resolving any: a resolved submission may
  // complete (and hand its rows back) at once.
  for (size_t i = 0; i < n; ++i) {
    const RowRef& ref = batch.rows[i];
    ServeReply& reply = ref.sub->replies[ref.row];
    reply.value = (*values)[i];
    reply.loss = (*losses)[i];
    reply.correct = (*corrects)[i] != 0;
    reply.model_version = batch.version;
    reply.latency_s = batch.completion_s - ref.sub->arrival_s;
  }
  // One counter update per run of rows from the same submission.
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && batch.rows[j].sub == batch.rows[i].sub) ++j;
    Resolve(batch.rows[i].sub, static_cast<uint32_t>(j - i));
    i = j;
  }
}

}  // namespace corgipile
