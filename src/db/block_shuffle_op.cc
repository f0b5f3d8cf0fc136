#include "db/block_shuffle_op.h"

#include <algorithm>
#include <numeric>

namespace corgipile {

BlockShuffleOp::BlockShuffleOp(ShardedSnapshot snapshot, Options options)
    : WithStreamState("BlockShuffle"), snapshot_(std::move(snapshot)),
      options_(options), rng_(options.seed) {}

BlockShuffleOp::BlockShuffleOp(Table* table, Options options)
    : BlockShuffleOp(table == nullptr
                         ? ShardedSnapshot()
                         : ShardedSnapshot({table->Snapshot()}),
                     options) {}

Status BlockShuffleOp::Init() {
  if (!snapshot_.valid()) return Status::InvalidArgument("empty snapshot");
  pages_per_block_ = std::max<uint64_t>(
      1, options_.block_size_bytes / snapshot_.options().page_size);
  // Shard-major block enumeration: at shards=1 the ids and geometry are
  // exactly the pre-sharding ones, so a given seed replays the same order.
  blocks_.clear();
  for (size_t s = 0; s < snapshot_.num_shards(); ++s) {
    const uint64_t pages = snapshot_.shard(s).num_pages();
    for (uint64_t first = 0; first < pages; first += pages_per_block_) {
      BlockRef ref;
      ref.shard = static_cast<uint32_t>(s);
      ref.first_page = first;
      ref.page_count = std::min<uint64_t>(pages_per_block_, pages - first);
      blocks_.push_back(ref);
    }
  }
  num_blocks_ = static_cast<uint32_t>(blocks_.size());
  initialized_ = true;
  epoch_ = 0;
  return ReScan();
}

Status BlockShuffleOp::ReScan() {
  if (!initialized_) return Status::Internal("ReScan before Init");
  clear_status();
  block_order_.resize(num_blocks_);
  std::iota(block_order_.begin(), block_order_.end(), 0u);
  if (options_.shuffle_blocks) {
    Rng epoch_rng = rng_.Fork(epoch_);
    epoch_rng.Shuffle(block_order_);
  }
  ++epoch_;
  next_block_ = 0;
  current_block_.Clear();
  pos_ = 0;
  quarantine().BeginEpoch();
  snapshot_.ResetReadCursors();
  return Status::OK();
}

Status BlockShuffleOp::SkipEpochs(uint64_t n) {
  if (n == 0) return Status::OK();
  if (!initialized_) return Status::Internal("SkipEpochs before Init");
  // After Init/ReScan the op serves epoch_ - 1; land on (epoch_ - 1) + n.
  epoch_ += n - 1;
  return ReScan();
}

bool BlockShuffleOp::LoadNextBlock() {
  while (next_block_ < block_order_.size()) {
    const BlockRef& ref = blocks_[block_order_[next_block_++]];
    const TableSnapshot& shard = snapshot_.shard(ref.shard);
    current_block_.Clear();
    pos_ = 0;
    Status st = shard.ReadTuplesFromPages(ref.first_page, ref.page_count,
                                          &current_block_);
    if (!st.ok()) {
      // Quarantine: drop whatever the partial read produced and move on.
      current_block_.Clear();
      uint64_t lost = 0;
      for (uint64_t p = ref.first_page; p < ref.first_page + ref.page_count;
           ++p) {
        lost += shard.TuplesInPage(p);
      }
      Status admitted =
          quarantine().Admit(st, options_.tolerance, lost, num_blocks_);
      if (!admitted.ok()) {
        set_status(std::move(admitted));
        return false;
      }
      continue;
    }
    if (!current_block_.empty()) return true;
  }
  return false;
}

bool BlockShuffleOp::NextBatch(TupleBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (pos_ >= current_block_.size()) {
      if (!LoadNextBlock()) break;
    }
    const size_t take = std::min(current_block_.size() - pos_,
                                 out->target_tuples() - out->size());
    out->AppendRows(current_block_, pos_, take);
    pos_ += take;
  }
  return !out->empty();
}

void BlockShuffleOp::Close() {
  current_block_.Clear();
  block_order_.clear();
}

}  // namespace corgipile
