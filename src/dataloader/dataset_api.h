// PyTorch-style Dataset APIs (paper §2.2, §5).
//
// Map-style datasets support random access by index (easy to shuffle, poor
// I/O on secondary storage); iterable-style datasets stream sequentially.
// CorgiPileDataset is the paper's new iterable dataset: per epoch it
// shuffles the shared block index with a common seed, takes the shard of
// blocks assigned to this worker, reads them through a per-worker buffer,
// and emits buffer-shuffled tuples.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/tuple_batch.h"
#include "storage/block_source.h"
#include "util/rng.h"
#include "util/status.h"

namespace corgipile {

/// Random-access dataset (PyTorch map-style).
class MapDataset {
 public:
  virtual ~MapDataset() = default;
  virtual uint64_t size() const = 0;
  virtual Result<Tuple> Get(uint64_t index) = 0;
};

/// Map-style view over an in-memory tuple vector.
class InMemoryMapDataset : public MapDataset {
 public:
  explicit InMemoryMapDataset(
      std::shared_ptr<const std::vector<Tuple>> tuples)
      : tuples_(std::move(tuples)) {}
  uint64_t size() const override { return tuples_->size(); }
  Result<Tuple> Get(uint64_t index) override {
    if (index >= tuples_->size()) return Status::OutOfRange("index");
    return (*tuples_)[index];
  }

 private:
  std::shared_ptr<const std::vector<Tuple>> tuples_;
};

/// Sequential-stream dataset (PyTorch iterable-style). Each worker of a
/// DataLoader calls StartEpoch with its (worker_id, num_workers) and pulls
/// its shard in batches.
class IterableDataset {
 public:
  virtual ~IterableDataset() = default;
  virtual Status StartEpoch(uint64_t epoch, uint32_t worker_id,
                            uint32_t num_workers) = 0;
  /// Clears *out and fills up to out->target_tuples() in emission order;
  /// true iff at least one tuple was appended, false once the shard is
  /// exhausted (check status()). Same order contract as
  /// BatchStream::NextBatch.
  virtual bool NextBatch(TupleBatch* out) = 0;
  virtual Status status() const { return Status::OK(); }
};

/// The paper's CorgiPileDataset (§5.1).
///
/// Block partitioning: all workers shuffle the full block index with the
/// same epoch seed, so the permutation agrees; worker i keeps the i-th of
/// num_workers contiguous slices. Tuple shuffle: blocks stream through a
/// per-worker buffer of `buffer_tuples`; each full buffer is shuffled
/// before its tuples are emitted.
class CorgiPileDataset : public IterableDataset {
 public:
  struct Options {
    uint64_t buffer_tuples = 1;  ///< per worker
    uint64_t seed = 42;
    /// Disable for No Shuffle / Shuffle Once baselines run through the
    /// same loader machinery: blocks stay in storage order and buffers
    /// are emitted unshuffled.
    bool shuffle_blocks = true;
    bool shuffle_tuples = true;
  };

  /// `source` is shared by all workers (not owned, thread-safe reads).
  CorgiPileDataset(BlockSource* source, Options options);

  Status StartEpoch(uint64_t epoch, uint32_t worker_id,
                    uint32_t num_workers) override;
  /// Copies runs of the shuffled per-worker buffer straight into the batch
  /// arena.
  bool NextBatch(TupleBatch* out) override;
  Status status() const override { return status_; }

  /// Blocks assigned to this worker in the current epoch.
  const std::vector<uint32_t>& assigned_blocks() const { return shard_; }

 private:
  bool RefillBuffer();

  BlockSource* source_;
  Options options_;
  std::vector<uint32_t> shard_;
  size_t next_block_ = 0;
  std::vector<Tuple> buffer_;
  size_t pos_ = 0;
  Rng shuffle_rng_;
  Status status_;
};

}  // namespace corgipile
