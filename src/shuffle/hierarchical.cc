#include "shuffle/hierarchical.h"

#include <algorithm>
#include <numeric>

#include "iosim/fault_plane.h"

namespace corgipile {

HierarchicalBlockStream::HierarchicalBlockStream(const char* name,
                                                 BlockSource* source,
                                                 Options options)
    : WithStreamState<TupleStream>(name), source_(source), options_(options),
      epoch_rng_(options.seed), tuple_rng_(options.seed) {
  if (options_.buffer_tuples == 0) options_.buffer_tuples = 1;
}

Status HierarchicalBlockStream::StartEpoch(uint64_t epoch) {
  CORGI_INJECT_POINT("shuffle.start_epoch");
  clear_status();
  source_->Reset();
  const uint32_t n = source_->num_blocks();
  block_order_.resize(n);
  std::iota(block_order_.begin(), block_order_.end(), 0u);
  // Distinct deterministic streams per epoch: stream `epoch` drives the
  // block permutation and the high-bit sibling drives the buffer shuffles.
  // Nothing carries over between epochs, so a resumed run replays the same
  // order.
  if (options_.shuffle_blocks) {
    Rng rng = epoch_rng_.Fork(epoch);
    rng.Shuffle(block_order_);
  }
  tuple_rng_ = epoch_rng_.Fork(epoch ^ 0x8000000000000000ull);
  if (options_.blocks_per_epoch > 0 && options_.blocks_per_epoch < n) {
    block_order_.resize(options_.blocks_per_epoch);
  }
  next_block_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  quarantine().BeginEpoch();
  return Status::OK();
}

bool HierarchicalBlockStream::RefillBuffer() {
  buffer_.clear();
  buffer_pos_ = 0;
  while (next_block_ < block_order_.size()) {
    const uint32_t b = block_order_[next_block_];
    // Read into a scratch vector so a block that fails mid-parse leaves no
    // partial tuples behind when it is quarantined.
    block_scratch_.clear();
    Status st = source_->ReadBlock(b, &block_scratch_);
    if (!st.ok()) {
      ++next_block_;
      Status admitted = quarantine().Admit(st, options_.tolerance,
                                           source_->TuplesInBlock(b),
                                           block_order_.size());
      if (!admitted.ok()) {
        set_status(std::move(admitted));
        return false;
      }
      continue;
    }
    ++next_block_;
    buffer_.insert(buffer_.end(),
                   std::make_move_iterator(block_scratch_.begin()),
                   std::make_move_iterator(block_scratch_.end()));
    if (!options_.shuffle_tuples) {
      if (!buffer_.empty()) break;  // one block at a time
      continue;  // quietly skip empty blocks
    }
    if (buffer_.size() >= options_.buffer_tuples) break;
  }
  if (buffer_.empty()) return false;
  peak_buffer_ = std::max<uint64_t>(peak_buffer_, buffer_.size());
  if (options_.shuffle_tuples) {
    tuple_rng_.Shuffle(buffer_);
  }
  return true;
}

bool HierarchicalBlockStream::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (buffer_pos_ >= buffer_.size()) {
      if (!RefillBuffer()) break;
    }
    const size_t take = std::min(buffer_.size() - buffer_pos_,
                                 out->target_tuples() - out->size());
    for (size_t i = 0; i < take; ++i) out->Append(buffer_[buffer_pos_ + i]);
    buffer_pos_ += take;
  }
  return !out->empty();
}

uint64_t HierarchicalBlockStream::TuplesPerEpoch() const {
  if (options_.blocks_per_epoch == 0 ||
      options_.blocks_per_epoch >= source_->num_blocks()) {
    return source_->num_tuples();
  }
  uint64_t n = 0;
  for (uint32_t b = 0; b < options_.blocks_per_epoch; ++b) {
    n += source_->TuplesInBlock(b);  // blocks are near-uniform in size
  }
  return n;
}

std::unique_ptr<TupleStream> MakeNoShuffleStream(BlockSource* source,
                                                 BlockReadTolerance tolerance) {
  HierarchicalBlockStream::Options opts;
  opts.shuffle_blocks = false;
  opts.shuffle_tuples = false;
  opts.buffer_tuples = 1;
  opts.tolerance = tolerance;
  return std::make_unique<HierarchicalBlockStream>("no_shuffle", source, opts);
}

std::unique_ptr<TupleStream> MakeBlockOnlyStream(BlockSource* source,
                                                 uint64_t seed,
                                                 BlockReadTolerance tolerance) {
  HierarchicalBlockStream::Options opts;
  opts.shuffle_blocks = true;
  opts.shuffle_tuples = false;
  opts.buffer_tuples = 1;
  opts.seed = seed;
  opts.tolerance = tolerance;
  return std::make_unique<HierarchicalBlockStream>("block_only", source, opts);
}

std::unique_ptr<TupleStream> MakeCorgiPileStream(BlockSource* source,
                                                 uint64_t buffer_tuples,
                                                 uint64_t seed,
                                                 uint32_t blocks_per_epoch,
                                                 BlockReadTolerance tolerance) {
  HierarchicalBlockStream::Options opts;
  opts.shuffle_blocks = true;
  opts.shuffle_tuples = true;
  opts.buffer_tuples = buffer_tuples;
  opts.seed = seed;
  opts.blocks_per_epoch = blocks_per_epoch;
  opts.tolerance = tolerance;
  return std::make_unique<HierarchicalBlockStream>("corgipile", source, opts);
}

}  // namespace corgipile
