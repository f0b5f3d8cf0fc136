// BatchStream: the single batched (vectorized) pipeline interface
// (DESIGN.md §9).
//
// The one pull protocol of the shuffle streams (shuffle/tuple_stream.h);
// db operators (db/operator.h) and dataloader datasets
// (dataloader/dataset_api.h) follow the same NextBatch contract. Producers
// move whole TupleBatches, so every stage pays one virtual call, one
// status check, and one allocation-free arena append pass per *batch*
// instead of per tuple.
//
// Usage:
//   CORGI_RETURN_NOT_OK(stream->StartEpoch(e));
//   TupleBatch batch(/*target_tuples=*/256);
//   while (stream->NextBatch(&batch)) { ... consume batch ... }
//   CORGI_RETURN_NOT_OK(stream->status());
//
// Contract:
//  * NextBatch clears *out, appends up to out->target_tuples() tuples in
//    the stream's emission order, and returns true iff at least one tuple
//    was appended. Batches may be short at epoch end (and implementations
//    may also cut them at internal buffer boundaries).
//  * The concatenation of all batches of an epoch is the same tuple
//    sequence at every transport batch size — bit-identical order, so
//    seeded results do not depend on it.
//  * After NextBatch returns false, check status() to distinguish a clean
//    epoch end from an error.
//  * Batch contents (arena spans) stay valid until the next NextBatch /
//    StartEpoch call with the same TupleBatch.

#pragma once

#include <cstdint>

#include "exec/tuple_batch.h"
#include "util/status.h"

namespace corgipile {

class BatchStream {
 public:
  virtual ~BatchStream() = default;

  virtual const char* name() const = 0;

  /// Begins epoch `epoch` (0-based). Re-randomizes as the strategy dictates.
  virtual Status StartEpoch(uint64_t epoch) = 0;

  /// Fills *out with the epoch's next batch; false at epoch end / on error.
  virtual bool NextBatch(TupleBatch* out) = 0;

  /// Error state of the last NextBatch()/StartEpoch().
  virtual Status status() const { return Status::OK(); }

  /// Cumulative corrupt-block quarantine counters (see BlockReadTolerance).
  virtual uint64_t QuarantinedBlocks() const { return 0; }
  virtual uint64_t SkippedTuples() const { return 0; }
};

}  // namespace corgipile
