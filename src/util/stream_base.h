// Shared boilerplate for the execution streams and operators.
//
// Every stage of the pipeline — shuffle streams, db physical operators,
// dataloader datasets — carries the same three pieces of state: a static
// name, a sticky Status, and the corrupt-block quarantine counters with
// their abort-threshold logic. This header implements them once so no
// stage re-implements it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace corgipile {

/// Tolerance knobs consumed by QuarantineAccountant::Admit. (Kept here so
/// storage/ and shuffle/ can share it; storage/block_source.h aliases it.)
struct BlockReadTolerance {
  /// Skip unreadable/corrupt blocks and keep going.
  bool quarantine_corrupt_blocks = false;
  /// Abort the epoch once more than this fraction of its blocks has been
  /// quarantined. Guards against training on a sliver of the data.
  double max_bad_block_fraction = 0.05;
};

/// Corrupt-block accounting shared by every block-reading pipeline stage:
/// cumulative quarantine counters plus the per-epoch abort threshold.
class QuarantineAccountant {
 public:
  /// Resets the per-epoch abort window (cumulative counters persist).
  void BeginEpoch() { epoch_quarantined_ = 0; }

  /// Handles one failed block read under `tolerance`. Returns OK when the
  /// block was quarantined and the scan may continue; otherwise the status
  /// the scan must abort with (the original error when the failure is not
  /// quarantinable, or kCorruption once the epoch's bad fraction exceeds
  /// the tolerated maximum).
  Status Admit(const Status& read_error, const BlockReadTolerance& tolerance,
               uint64_t tuples_lost, uint64_t epoch_blocks) {
    const bool skippable = read_error.code() == StatusCode::kCorruption ||
                           read_error.code() == StatusCode::kIoError;
    if (!tolerance.quarantine_corrupt_blocks || !skippable) return read_error;
    ++quarantined_blocks_;
    ++epoch_quarantined_;
    skipped_tuples_ += tuples_lost;
    const double bad_fraction =
        static_cast<double>(epoch_quarantined_) /
        static_cast<double>(std::max<uint64_t>(1, epoch_blocks));
    if (bad_fraction > tolerance.max_bad_block_fraction) {
      return Status::Corruption(
          "quarantined " + std::to_string(epoch_quarantined_) + "/" +
          std::to_string(epoch_blocks) +
          " blocks this epoch, over the tolerated fraction " +
          std::to_string(tolerance.max_bad_block_fraction) +
          " (last error: " + read_error.message() + ")");
    }
    return Status::OK();
  }

  uint64_t quarantined_blocks() const { return quarantined_blocks_; }
  uint64_t skipped_tuples() const { return skipped_tuples_; }
  uint64_t epoch_quarantined() const { return epoch_quarantined_; }

 private:
  uint64_t quarantined_blocks_ = 0;  // cumulative across epochs
  uint64_t skipped_tuples_ = 0;      // cumulative across epochs
  uint64_t epoch_quarantined_ = 0;   // this epoch, for the abort threshold
};

/// Mixin that implements an interface's name()/status()/quarantine-counter
/// virtuals from shared state. `Interface` is any of the pipeline
/// interfaces (BatchStream, TupleStream, PhysicalOperator, ...) declaring
///   virtual const char* name() const;
///   virtual Status status() const;
///   virtual uint64_t QuarantinedBlocks() const;
///   virtual uint64_t SkippedTuples() const;
template <typename Interface>
class WithStreamState : public Interface {
 public:
  const char* name() const override { return name_; }
  Status status() const override { return status_; }
  uint64_t QuarantinedBlocks() const override {
    return quarantine_.quarantined_blocks();
  }
  uint64_t SkippedTuples() const override {
    return quarantine_.skipped_tuples();
  }

 protected:
  explicit WithStreamState(const char* name) : name_(name) {}

  void set_name(const char* name) { name_ = name; }
  void set_status(Status st) { status_ = std::move(st); }
  void clear_status() { status_ = Status::OK(); }
  QuarantineAccountant& quarantine() { return quarantine_; }
  const QuarantineAccountant& quarantine() const { return quarantine_; }

 private:
  const char* name_;
  Status status_;
  QuarantineAccountant quarantine_;
};

}  // namespace corgipile
