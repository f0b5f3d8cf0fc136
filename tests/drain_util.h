// Test helpers over the batched pull protocol (NextBatch) that every
// pipeline stage implements: shuffle streams, db operators and dataloader
// datasets.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/tuple_batch.h"

namespace corgipile {

/// Pulls the rest of `source`'s current epoch in `batch_tuples`-row
/// batches and returns the row ids in emission order. Check
/// source->status() afterwards.
template <typename Source>
std::vector<uint64_t> DrainIds(
    Source* source, size_t batch_tuples = TupleBatch::kDefaultTargetTuples) {
  std::vector<uint64_t> ids;
  TupleBatch batch(batch_tuples);
  while (source->NextBatch(&batch)) {
    ids.insert(ids.end(), batch.ids_data(), batch.ids_data() + batch.size());
  }
  return ids;
}

/// Pulls a single row as a one-row batch, to stop partway through an
/// epoch; false at the end of the scan.
template <typename Source>
bool PullOne(Source* source) {
  TupleBatch one(1);
  return source->NextBatch(&one);
}

}  // namespace corgipile
