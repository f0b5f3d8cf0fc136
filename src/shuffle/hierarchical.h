// HierarchicalBlockStream implements the family of block-oriented
// strategies: No Shuffle, Block-Only Shuffle, and CorgiPile itself.
//
// Per epoch: visit blocks in storage order (No Shuffle) or in a fresh random
// permutation (Block-Only, CorgiPile); load blocks into an in-memory buffer
// of configurable capacity; optionally shuffle the buffered tuples before
// emitting them (CorgiPile's tuple-level shuffle, §4.1).
//
// All per-epoch randomness (block permutation and buffer shuffles) is a
// pure function of (seed, epoch), so a training run resumed from a
// checkpoint at epoch e replays exactly the tuple order the original run
// would have produced from e onward.
//
// With Options::tolerance.quarantine_corrupt_blocks set, a block whose read
// fails with kCorruption or kIoError is skipped and counted instead of
// killing the epoch; the epoch aborts only once the quarantined fraction
// exceeds tolerance.max_bad_block_fraction.

#pragma once

#include <vector>

#include "shuffle/tuple_stream.h"
#include "util/rng.h"
#include "util/stream_base.h"

namespace corgipile {

class HierarchicalBlockStream : public WithStreamState<TupleStream> {
 public:
  struct Options {
    bool shuffle_blocks = true;
    bool shuffle_tuples = true;
    /// Buffer capacity in tuples. The stream loads whole blocks until the
    /// buffer holds at least this many tuples (n blocks of b tuples in the
    /// paper's notation). When shuffle_tuples is false the buffer holds a
    /// single block.
    uint64_t buffer_tuples = 0;
    uint64_t seed = 42;
    /// If > 0, visit only this many blocks per epoch (Algorithm 1's
    /// sampled-epoch variant where an epoch is n of N blocks). 0 = visit
    /// every block each epoch (the PyTorch/PostgreSQL system behaviour).
    uint32_t blocks_per_epoch = 0;
    /// Degradation policy for blocks that fail to read.
    BlockReadTolerance tolerance;
  };

  HierarchicalBlockStream(const char* name, BlockSource* source,
                          Options options);

  Status StartEpoch(uint64_t epoch) override;
  /// Drains the shuffled buffer in batch-sized chunks (no per-tuple
  /// virtual calls on the hot path).
  bool NextBatch(TupleBatch* out) override;
  uint64_t TuplesPerEpoch() const override;
  uint64_t PeakBufferTuples() const override { return peak_buffer_; }

 private:
  bool RefillBuffer();

  BlockSource* source_;
  Options options_;
  Rng epoch_rng_;
  Rng tuple_rng_;  // per-epoch fork used for buffer shuffles
  std::vector<uint32_t> block_order_;
  size_t next_block_ = 0;
  std::vector<Tuple> buffer_;
  std::vector<Tuple> block_scratch_;
  size_t buffer_pos_ = 0;
  uint64_t peak_buffer_ = 0;
};

/// Factories for the three named strategies.
std::unique_ptr<TupleStream> MakeNoShuffleStream(
    BlockSource* source, BlockReadTolerance tolerance = {});
std::unique_ptr<TupleStream> MakeBlockOnlyStream(
    BlockSource* source, uint64_t seed, BlockReadTolerance tolerance = {});
std::unique_ptr<TupleStream> MakeCorgiPileStream(
    BlockSource* source, uint64_t buffer_tuples, uint64_t seed,
    uint32_t blocks_per_epoch = 0, BlockReadTolerance tolerance = {});

}  // namespace corgipile
