// Shuffle Once and Epoch Shuffle (paper §3.1).
//
// Shuffle Once performs one offline full shuffle. Over a table-backed
// source this is done honestly: every tuple is fetched in random order
// (random page I/O, billed by the heap file) and written sequentially to a
// shuffled copy — the 2× disk overhead and the long preparation time the
// paper measures fall out of this directly. Epochs then scan the copy.
//
// Epoch Shuffle redoes a full shuffle before *every* epoch; we keep the
// shuffled data in memory for the epoch (the paper notes it needs a
// dataset-sized buffer).

#pragma once

#include <memory>
#include <vector>

#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "util/rng.h"

namespace corgipile {

class ShuffleOnceStream : public TupleStream {
 public:
  ShuffleOnceStream(BlockSource* source, const ShuffleOptions& options);

  const char* name() const override { return "shuffle_once"; }
  Status StartEpoch(uint64_t epoch) override;
  /// Forwards to the inner sequential scan over the shuffled copy, which
  /// drains whole decoded blocks into the batch.
  bool NextBatch(TupleBatch* out) override;
  Status status() const override { return status_; }
  uint64_t TuplesPerEpoch() const override { return source_->num_tuples(); }
  double PrepOverheadSeconds() const override { return prep_overhead_s_; }
  uint64_t ExtraDiskBytes() const override { return extra_disk_bytes_; }
  uint64_t PeakBufferTuples() const override;

 private:
  Status PrepareIfNeeded();

  BlockSource* source_;
  ShuffleOptions options_;
  bool prepared_ = false;
  double prep_overhead_s_ = 0.0;
  uint64_t extra_disk_bytes_ = 0;

  // Table-backed path: shuffled copy + stream over it.
  std::unique_ptr<Table> shuffled_table_;
  std::unique_ptr<TableBlockSource> shuffled_source_;
  // In-memory path: shuffled tuple vector.
  std::shared_ptr<std::vector<Tuple>> shuffled_tuples_;
  std::unique_ptr<InMemoryBlockSource> mem_source_;

  std::unique_ptr<TupleStream> inner_;
  Status status_;
};

class EpochShuffleStream : public TupleStream {
 public:
  EpochShuffleStream(BlockSource* source, const ShuffleOptions& options);

  const char* name() const override { return "epoch_shuffle"; }
  Status StartEpoch(uint64_t epoch) override;
  /// Drains the epoch's shuffled vector in chunks.
  bool NextBatch(TupleBatch* out) override;
  Status status() const override { return status_; }
  uint64_t TuplesPerEpoch() const override { return source_->num_tuples(); }
  uint64_t PeakBufferTuples() const override { return source_->num_tuples(); }

 private:
  BlockSource* source_;
  ShuffleOptions options_;
  Rng epoch_rng_;
  std::vector<Tuple> epoch_data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace corgipile
