#include "shuffle/full_shuffle.h"

#include <algorithm>

#include "shuffle/hierarchical.h"
#include "storage/table_shuffle.h"
#include "util/logging.h"

namespace corgipile {

ShuffleOnceStream::ShuffleOnceStream(BlockSource* source,
                                     const ShuffleOptions& options)
    : source_(source), options_(options) {}

Status ShuffleOnceStream::PrepareIfNeeded() {
  if (prepared_) return Status::OK();
  prepared_ = true;
  Rng rng(options_.seed ^ 0x50FF1E);

  const double clock_before =
      options_.clock != nullptr ? options_.clock->TotalElapsed() : 0.0;

  auto* table_source = dynamic_cast<TableBlockSource*>(source_);
  if (table_source != nullptr) {
    // Honest offline shuffle: random-order tuple fetches from the original
    // table (random page I/O) streamed into a sequential shuffled copy.
    Table* orig = table_source->table();
    const std::string copy_path = ResolveScratchDir(options_.scratch_dir) +
                                  "/" + orig->schema().name + ".shuffled.tbl";
    CORGI_ASSIGN_OR_RETURN(
        ShuffledCopyResult copy,
        BuildShuffledCopy(orig, copy_path, options_.seed ^ 0x50FF1E,
                          options_.device, options_.clock,
                          options_.io_stats));
    shuffled_table_ = std::move(copy.table);
    extra_disk_bytes_ = copy.extra_disk_bytes;
    const uint64_t block_bytes =
        table_source->pages_per_block() * orig->options().page_size;
    shuffled_source_ =
        std::make_unique<TableBlockSource>(shuffled_table_.get(), block_bytes);
    inner_ = MakeNoShuffleStream(shuffled_source_.get());
  } else {
    // Generic (in-memory) path: one full shuffle of a copied vector.
    auto tuples = std::make_shared<std::vector<Tuple>>();
    tuples->reserve(source_->num_tuples());
    for (uint32_t b = 0; b < source_->num_blocks(); ++b) {
      CORGI_RETURN_NOT_OK(source_->ReadBlock(b, tuples.get()));
    }
    rng.Shuffle(*tuples);
    shuffled_tuples_ = std::move(tuples);
    const uint64_t per_block =
        std::max<uint64_t>(1, source_->num_tuples() /
                                  std::max<uint32_t>(1, source_->num_blocks()));
    mem_source_ = std::make_unique<InMemoryBlockSource>(
        source_->schema(), shuffled_tuples_, per_block);
    inner_ = MakeNoShuffleStream(mem_source_.get());
  }

  if (options_.clock != nullptr) {
    prep_overhead_s_ = options_.clock->TotalElapsed() - clock_before;
  }
  return Status::OK();
}

Status ShuffleOnceStream::StartEpoch(uint64_t epoch) {
  status_ = PrepareIfNeeded();
  if (!status_.ok()) return status_;
  return inner_->StartEpoch(epoch);
}

bool ShuffleOnceStream::NextBatch(TupleBatch* out) {
  if (inner_ == nullptr) {
    out->Clear();
    return false;
  }
  const bool more = inner_->NextBatch(out);
  if (!more) status_ = inner_->status();
  return more;
}

uint64_t ShuffleOnceStream::PeakBufferTuples() const {
  // The offline shuffle needs working memory for the permutation; epochs
  // themselves stream one block at a time.
  return inner_ != nullptr ? inner_->PeakBufferTuples() : 0;
}

EpochShuffleStream::EpochShuffleStream(BlockSource* source,
                                       const ShuffleOptions& options)
    : source_(source), options_(options), epoch_rng_(options.seed ^ 0xE90C) {}

Status EpochShuffleStream::StartEpoch(uint64_t epoch) {
  status_ = Status::OK();
  epoch_data_.clear();
  epoch_data_.reserve(source_->num_tuples());
  pos_ = 0;

  auto* table_source = dynamic_cast<TableBlockSource*>(source_);
  Rng rng = epoch_rng_.Fork(epoch);
  if (table_source != nullptr) {
    // A fresh full shuffle per epoch: fetch every tuple in random order
    // (random page I/O each time).
    Table* table = table_source->table();
    table->ResetReadCursor();
    std::vector<uint32_t> perm =
        rng.Permutation(static_cast<uint32_t>(table->num_tuples()));
    for (uint32_t idx : perm) {
      auto t = table->ReadTupleAt(idx);
      if (!t.ok()) {
        status_ = t.status();
        return status_;
      }
      epoch_data_.push_back(std::move(t).ValueOrDie());
    }
  } else {
    source_->Reset();
    for (uint32_t b = 0; b < source_->num_blocks(); ++b) {
      status_ = source_->ReadBlock(b, &epoch_data_);
      if (!status_.ok()) return status_;
    }
    rng.Shuffle(epoch_data_);
  }
  return Status::OK();
}

bool EpochShuffleStream::NextBatch(TupleBatch* out) {
  out->Clear();
  const size_t take =
      std::min(epoch_data_.size() - pos_, out->target_tuples());
  for (size_t i = 0; i < take; ++i) out->Append(epoch_data_[pos_ + i]);
  pos_ += take;
  return !out->empty();
}

}  // namespace corgipile
