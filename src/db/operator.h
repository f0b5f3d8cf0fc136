// Volcano-style physical operator interface (paper §6.2), with the batched
// transport of DESIGN.md §9.
//
// Mirrors PostgreSQL's executor protocol: ExecInit → getNext* → ExecReScan
// (per epoch) → Close. Operators move whole TupleBatches: NextBatch is the
// one pull protocol every operator implements.

#pragma once

#include <memory>

#include "exec/tuple_batch.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace corgipile {

class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual const char* name() const = 0;

  /// One-time initialization (buffers, model state, ...).
  virtual Status Init() = 0;

  /// Clears *out and fills it with up to out->target_tuples() tuples in
  /// scan order; returns true iff at least one was appended. After false,
  /// check status(). The concatenation of an epoch's batches is the same
  /// tuple sequence at every transport batch size.
  virtual bool NextBatch(TupleBatch* out) = 0;

  /// One tuple per call, pulled as a one-row NextBatch; nullptr at
  /// end-of-scan / on error. Nothing in the engine calls it and no engine
  /// operator overrides it. It stays virtual only because the benchmark's
  /// span decorator (perfbench/src/timed_operator.h) overrides it and the
  /// benchmark's self-test pulls rows through it.
  virtual const Tuple* Next() {
    row_batch_.set_target_tuples(1);
    if (!NextBatch(&row_batch_)) return nullptr;
    row_batch_.MaterializeTo(0, &row_);
    return &row_;
  }

  /// Resets the scan for the next epoch (PostgreSQL's re-scan mechanism):
  /// reshuffle block ids, reset buffers, and recurse into children.
  virtual Status ReScan() = 0;

  /// Advances the scan by `n` epochs without serving their tuples, so a
  /// checkpoint-resumed run aligns every per-epoch RNG stream with where
  /// the original run would be. Every operator's epoch state is a pure
  /// function of (seed, epoch), so the default — n re-scans — is always
  /// correct; operators that buffer or prefetch data override it to skip
  /// without reading.
  virtual Status SkipEpochs(uint64_t n) {
    for (; n > 0; --n) CORGI_RETURN_NOT_OK(ReScan());
    return Status::OK();
  }

  /// Releases resources. Idempotent.
  virtual void Close() = 0;

  virtual Status status() const { return Status::OK(); }

  /// Unreadable/corrupt blocks skipped so far under a BlockReadTolerance
  /// policy, and the tuples lost with them. Operators with children should
  /// aggregate their subtree.
  virtual uint64_t QuarantinedBlocks() const { return 0; }
  virtual uint64_t SkippedTuples() const { return 0; }

 private:
  TupleBatch row_batch_{1};  // Next()'s one-row pull and its tuple
  Tuple row_;
};

}  // namespace corgipile
