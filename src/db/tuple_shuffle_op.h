// TupleShuffle operator (paper §6.2 (2), §6.3).
//
// Pulls tuples from its child into an in-memory staging TupleBatch; when
// the buffer is full (or the child is exhausted) an index permutation over
// it is shuffled and the buffered tuples are served in permuted order —
// PostgreSQL's Sort-operator pattern. Shuffling indices instead of tuples
// consumes the same Fisher–Yates RNG draws as shuffling the tuple vector
// did (the shuffle is content-independent), so emission order is unchanged
// from the per-tuple implementation.
//
// Two execution modes:
//  * single buffering: fills happen inline, serializing I/O and SGD;
//  * double buffering (§6.3): a producer thread fills and shuffles the next
//    buffer while the consumer drains the current one — data loading and
//    SGD computation overlap. The two threads are joined by a bounded
//    Status-carrying Channel<Batch>: a producer-side error (e.g. a corrupt
//    block past max_bad_fraction) is delivered to the consumer after the
//    already-produced batches drain — exactly the order the single-buffered
//    execution would surface it — and an early consumer Close() cancels the
//    channel, which unblocks and stops the producer without deadlock.
//
// Thread-safety / ownership: the operator is single-consumer; NextBatch/
// ReScan/Close must be called from one thread. The producer thread is the only
// FillBatch caller while it runs (it owns child_ and rng_); ReScan/Close/
// the destructor cancel + join it before touching any of that state, which
// is also the synchronization point handing child_/rng_ back to the
// consumer thread. While both threads are live they share only status_
// (guarded by status_mu_), the spare-batch pool (guarded by spare_mu_) and
// the atomic peak_buffer_.
//
// Staging arenas are recycled: a drained batch goes back to a small spare
// pool and the next fill takes it from there, so after the first fills no
// buffer fill regrows (or page-faults) its arenas. With double buffering
// at most two batches hold tuples at once — the one being served and the
// one being filled or waiting in the channel — and the pool keeps at most
// kMaxSpareBatches more.
//
// The operator also records a PipelineTimeline: per buffer, the fill cost
// (simulated I/O + decompression read through the child, plus real
// fill/shuffle CPU) and the consume cost (real time the consumer spent
// between NextBatch() calls). Benches derive single- and double-buffered epoch
// durations from the same run. The timeline is a *benchmarking* artifact —
// it never feeds back into shuffling, RNG draws, or training results, so
// seeded reruns stay bit-identical. All real-time measurement goes through
// WallTimer (util/timer.h, the one allowlisted wall-clock site of the
// determinism linter); no raw clock primitives appear in db code.

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "db/operator.h"
#include "iosim/sim_clock.h"
#include "util/channel.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/timer.h"

namespace corgipile {

class TupleShuffleOp : public PhysicalOperator {
 public:
  struct Options {
    uint64_t buffer_tuples = 1;
    bool shuffle_tuples = true;
    bool double_buffer = false;
    uint64_t seed = 42;
    /// Clock whose kIoRead/kDecompress categories the child charges; used
    /// to attribute simulated fill time. May be null.
    SimClock* clock = nullptr;
  };

  TupleShuffleOp(PhysicalOperator* child, Options options);
  ~TupleShuffleOp() override;

  const char* name() const override { return "TupleShuffle"; }
  Status Init() override;
  /// Copies permuted runs of the staging buffer into the output arena; one
  /// channel op per staging buffer, not per tuple.
  bool NextBatch(TupleBatch* out) override;
  Status ReScan() override;
  /// Epoch jump without data reads: stops the producer, jumps the epoch
  /// counter (the buffer-shuffle RNG of epoch e is a pure function of
  /// (seed, e)), and skips the child. Resumed runs replay exactly.
  Status SkipEpochs(uint64_t n) override;
  /// Stops and joins the producer thread (if any) before releasing the
  /// child, so abandoning the operator mid-epoch neither leaks the thread
  /// nor deadlocks. Idempotent; also run by the destructor.
  void Close() override;
  Status status() const override;

  /// Fill/consume timings accumulated since the last ResetTimeline().
  const PipelineTimeline& timeline() const { return timeline_; }
  void ResetTimeline() { timeline_ = PipelineTimeline(); }

  uint64_t peak_buffer_tuples() const { return peak_buffer_.load(); }

  /// Drained staging batches waiting to be refilled (≤ kMaxSpareBatches).
  size_t spare_batches() const;
  static constexpr size_t kMaxSpareBatches = 2;

  /// Forwarded from the child. With double buffering these are only stable
  /// once the producer has drained (end of epoch / after NextBatch()
  /// returned false), which is when SgdOp reads them.
  uint64_t QuarantinedBlocks() const override {
    return child_->QuarantinedBlocks();
  }
  uint64_t SkippedTuples() const override { return child_->SkippedTuples(); }

 private:
  struct Batch {
    TupleBatch tuples;
    /// Emission order: serve tuples[perm[i]]. Empty when shuffling is off
    /// (identity order).
    std::vector<uint32_t> perm;
    double fill_seconds = 0.0;
  };

  double IoElapsed() const;
  /// Pulls from the child until `buffer_tuples` tuples or end, into a
  /// recycled batch when one is spare; returns an empty optional at
  /// end-of-scan. Must only be called by the thread that currently owns
  /// child_/rng_ (see the ownership note above).
  std::optional<Batch> FillBatch();

  /// Hands a drained batch back for a later fill (dropped past the cap).
  void Recycle(Batch batch);
  /// A spare batch, or a fresh one when the pool is empty.
  Batch TakeSpare();

  void StartProducer();
  /// Cancels the channel and joins the producer. Safe to call when no
  /// producer is running.
  void StopProducer();
  void ProducerLoop();

  /// Finishes the current batch bookkeeping and fetches the next one.
  bool AdvanceBatch();

  PhysicalOperator* child_;
  Options options_;
  /// Base stream, never drawn from directly: each epoch's buffer shuffles
  /// use epoch_rng_ = rng_.Fork(epoch_), a pure function of (seed, epoch),
  /// so a checkpoint-resumed epoch replays the exact same permutations.
  Rng rng_;
  Rng epoch_rng_;
  uint64_t epoch_ = 0;

  // Current batch being served (consumer thread only).
  Batch current_;
  size_t pos_ = 0;  // emission index into current_ (via perm when shuffled)
  bool have_batch_ = false;
  double consume_acc_ = 0.0;
  /// Restarted at every emission; its elapsed time on the next call is the
  /// consumer's real compute between pulls (the timeline's consume cost).
  /// Empty between epochs / before the first emission.
  std::optional<WallTimer> consume_timer_;

  // Double-buffer machinery: one buffer ahead via a capacity-1 channel.
  std::thread producer_;
  std::unique_ptr<Channel<Batch>> channel_;

  PipelineTimeline timeline_;
  std::atomic<uint64_t> peak_buffer_{0};
  mutable Mutex status_mu_;
  Status status_ CORGI_GUARDED_BY(status_mu_);
  mutable Mutex spare_mu_;
  std::vector<Batch> spares_ CORGI_GUARDED_BY(spare_mu_);
};

}  // namespace corgipile
