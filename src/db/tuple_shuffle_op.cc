#include "db/tuple_shuffle_op.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "iosim/fault_plane.h"
#include "util/timer.h"

namespace corgipile {

TupleShuffleOp::TupleShuffleOp(PhysicalOperator* child, Options options)
    : child_(child), options_(options), rng_(options.seed),
      epoch_rng_(rng_.Fork(0)) {
  if (options_.buffer_tuples == 0) options_.buffer_tuples = 1;
}

TupleShuffleOp::~TupleShuffleOp() { Close(); }

double TupleShuffleOp::IoElapsed() const {
  if (options_.clock == nullptr) return 0.0;
  return options_.clock->Elapsed(TimeCategory::kIoRead) +
         options_.clock->Elapsed(TimeCategory::kDecompress);
}

Status TupleShuffleOp::Init() {
  if (child_ == nullptr) return Status::InvalidArgument("null child");
  CORGI_RETURN_NOT_OK(child_->Init());
  epoch_ = 0;
  epoch_rng_ = rng_.Fork(epoch_);
  if (options_.double_buffer) StartProducer();
  return Status::OK();
}

std::optional<TupleShuffleOp::Batch> TupleShuffleOp::FillBatch() {
  // Chaos point modelling a staging-buffer allocation failure: a kFail
  // rule surfaces through status() exactly like a child error would.
  if (FaultPlane::ProcessArmed()) {
    Status injected =
        FaultPlane::Process()->OnPoint("db.tuple_shuffle.fill");
    if (!injected.ok()) {
      MutexLock lock(status_mu_);
      if (status_.ok()) status_ = std::move(injected);
      return std::nullopt;
    }
  }
  Batch batch = TakeSpare();
  batch.tuples.set_target_tuples(options_.buffer_tuples);
  const double io_before = IoElapsed();
  WallTimer timer;
  const bool got = child_->NextBatch(&batch.tuples);
  if (batch.tuples.size() < options_.buffer_tuples) {
    // A short (or empty) fill means the child ended its scan; surface its
    // error, if any, with the rows it delivered before failing.
    Status st = child_->status();
    if (!st.ok()) {
      MutexLock lock(status_mu_);
      status_ = st;
    }
  }
  if (!got) {
    Recycle(std::move(batch));
    return std::nullopt;
  }
  if (options_.shuffle_tuples) {
    batch.perm.resize(batch.tuples.size());
    std::iota(batch.perm.begin(), batch.perm.end(), 0u);
    // Fisher–Yates over indices: consumes the same RNG draws as shuffling
    // the tuples themselves, so emission order matches the legacy buffer.
    epoch_rng_.Shuffle(batch.perm);
  }
  batch.fill_seconds = (IoElapsed() - io_before) + timer.ElapsedSeconds();
  uint64_t prev = peak_buffer_.load();
  while (prev < batch.tuples.size() &&
         !peak_buffer_.compare_exchange_weak(prev, batch.tuples.size())) {
  }
  return batch;
}

void TupleShuffleOp::Recycle(Batch batch) {
  MutexLock lock(spare_mu_);
  if (spares_.size() < kMaxSpareBatches) spares_.push_back(std::move(batch));
}

TupleShuffleOp::Batch TupleShuffleOp::TakeSpare() {
  MutexLock lock(spare_mu_);
  if (spares_.empty()) return Batch();
  Batch batch = std::move(spares_.back());
  spares_.pop_back();
  return batch;
}

size_t TupleShuffleOp::spare_batches() const {
  MutexLock lock(spare_mu_);
  return spares_.size();
}

void TupleShuffleOp::StartProducer() {
  if (producer_.joinable()) return;  // already running
  channel_ = std::make_unique<Channel<Batch>>(1);
  channel_->set_chaos_point("channel.tuple_shuffle.push");
  producer_ = std::thread([this] { ProducerLoop(); });
}

void TupleShuffleOp::StopProducer() {
  if (!producer_.joinable()) return;
  // Wakes a producer blocked on a full channel (and poisons any further
  // pushes); joining hands child_/rng_ ownership back to this thread.
  channel_->Cancel(Status::Cancelled("TupleShuffleOp consumer closed"));
  producer_.join();
  producer_ = std::thread();
  channel_.reset();
}

void TupleShuffleOp::ProducerLoop() {
  for (;;) {
    // Wait for a free slot *before* filling, so at most one finished batch
    // sits in the channel while the consumer drains another — the §6.3
    // two-buffer memory budget.
    if (!channel_->WaitWritable().ok()) return;  // consumer cancelled
    std::optional<Batch> batch = FillBatch();
    if (!batch.has_value()) {
      // End of scan, clean or not: deliver the child's error (if any) to
      // the consumer once the buffered batches drain.
      channel_->Close(status());
      return;
    }
    Status pushed = channel_->Push(std::move(*batch));
    if (!pushed.ok()) {
      // Cancelled by the consumer (Close on an already-cancelled channel is
      // a no-op) — or an injected channel-send failure, which must reach
      // the consumer as the stream's error instead of hanging it.
      channel_->Close(std::move(pushed));
      return;
    }
  }
}

bool TupleShuffleOp::AdvanceBatch() {
  // Record the finished batch's timings.
  if (have_batch_) {
    timeline_.AddBatch(current_.fill_seconds, consume_acc_);
    consume_acc_ = 0.0;
    have_batch_ = false;
    // The served batch is drained: its arenas go to the next fill.
    Recycle(std::exchange(current_, Batch()));
  }
  if (options_.double_buffer) {
    Batch next;
    auto popped = channel_->Pop(&next);
    if (!popped.ok()) {
      // Producer failed (or the channel was cancelled): surface through
      // status() like the single-buffered path does.
      MutexLock lock(status_mu_);
      if (status_.ok()) status_ = popped.status();
      return false;
    }
    if (!*popped) return false;  // clean end of stream
    current_ = std::move(next);
  } else {
    std::optional<Batch> batch = FillBatch();
    if (!batch.has_value()) return false;
    current_ = std::move(*batch);
  }
  pos_ = 0;
  have_batch_ = true;
  return true;
}

bool TupleShuffleOp::NextBatch(TupleBatch* out) {
  out->Clear();
  if (consume_timer_.has_value() && have_batch_) {
    consume_acc_ += consume_timer_->ElapsedSeconds();
  }
  while (!out->full()) {
    if (!have_batch_ || pos_ >= current_.tuples.size()) {
      if (!AdvanceBatch()) break;
    }
    const size_t take = std::min(current_.tuples.size() - pos_,
                                 out->target_tuples() - out->size());
    for (size_t i = 0; i < take; ++i) {
      const size_t row =
          current_.perm.empty() ? pos_ + i : current_.perm[pos_ + i];
      out->Append(current_.tuples.row(row));
    }
    pos_ += take;
  }
  if (out->empty()) {
    consume_timer_.reset();
    return false;
  }
  consume_timer_.emplace();
  return true;
}

Status TupleShuffleOp::ReScan() {
  StopProducer();
  // Flush the in-flight batch's timing record.
  if (have_batch_) {
    timeline_.AddBatch(current_.fill_seconds, consume_acc_);
    have_batch_ = false;
    Recycle(std::exchange(current_, Batch()));
  }
  consume_acc_ = 0.0;
  consume_timer_.reset();
  pos_ = 0;
  CORGI_RETURN_NOT_OK(child_->ReScan());
  ++epoch_;
  epoch_rng_ = rng_.Fork(epoch_);
  {
    MutexLock lock(status_mu_);
    status_ = Status::OK();
  }
  if (options_.double_buffer) StartProducer();
  return Status::OK();
}

Status TupleShuffleOp::SkipEpochs(uint64_t n) {
  if (n == 0) return Status::OK();
  // Joining the producer discards any epoch-state batches it pre-filled
  // and hands child_/epoch_rng_ ownership back to this thread.
  StopProducer();
  if (have_batch_) Recycle(std::exchange(current_, Batch()));
  have_batch_ = false;
  consume_acc_ = 0.0;
  consume_timer_.reset();
  pos_ = 0;
  CORGI_RETURN_NOT_OK(child_->SkipEpochs(n));
  epoch_ += n;
  epoch_rng_ = rng_.Fork(epoch_);
  {
    MutexLock lock(status_mu_);
    status_ = Status::OK();
  }
  if (options_.double_buffer) StartProducer();
  return Status::OK();
}

void TupleShuffleOp::Close() {
  StopProducer();
  current_ = Batch();
  have_batch_ = false;
  {
    MutexLock lock(spare_mu_);
    spares_.clear();
  }
  if (child_ != nullptr) child_->Close();
}

Status TupleShuffleOp::status() const {
  MutexLock lock(status_mu_);
  return status_;
}

}  // namespace corgipile
