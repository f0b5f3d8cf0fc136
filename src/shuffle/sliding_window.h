// Sliding-Window Shuffle (TensorFlow's Dataset.shuffle, paper §3.3).
//
// A window of W tuples is kept; each step emits a uniformly random element
// of the window and replaces it with the next tuple from the sequential
// scan. When the scan is exhausted the window drains in random order.

#pragma once

#include <vector>

#include "shuffle/tuple_stream.h"
#include "util/rng.h"

namespace corgipile {

class SlidingWindowStream : public TupleStream {
 public:
  SlidingWindowStream(BlockSource* source, uint64_t window_tuples,
                      uint64_t seed);

  const char* name() const override { return "sliding_window"; }
  Status StartEpoch(uint64_t epoch) override;
  /// Runs the window emission step inline per slot, one virtual call per
  /// batch.
  bool NextBatch(TupleBatch* out) override;
  Status status() const override { return status_; }
  uint64_t TuplesPerEpoch() const override { return source_->num_tuples(); }
  uint64_t PeakBufferTuples() const override { return peak_window_; }

 private:
  /// One window emission (fill → steady state swap → drain) into *out;
  /// false when the epoch is exhausted.
  bool EmitNext(Tuple* out);
  /// Next tuple from the sequential block scan; false when exhausted.
  bool PullScanned(Tuple* out);

  BlockSource* source_;
  uint64_t window_capacity_;
  Rng epoch_rng_;
  Rng rng_;

  std::vector<Tuple> window_;
  std::vector<Tuple> block_buf_;
  size_t block_buf_pos_ = 0;
  uint32_t next_block_ = 0;
  Tuple current_;  // the emission being appended to the batch
  uint64_t peak_window_ = 0;
  Status status_;
};

}  // namespace corgipile
