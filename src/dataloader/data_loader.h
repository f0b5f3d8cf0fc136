// DataLoader: batches an IterableDataset, PyTorch style.

#pragma once

#include <memory>

#include "dataloader/dataset_api.h"

namespace corgipile {

class DataLoader {
 public:
  struct Options {
    uint32_t batch_size = 1;
    uint32_t worker_id = 0;
    uint32_t num_workers = 1;
    /// Drop the final short batch (PyTorch's drop_last).
    bool drop_last = false;
  };

  /// `dataset` is borrowed.
  DataLoader(IterableDataset* dataset, Options options);

  Status StartEpoch(uint64_t epoch);

  /// Fills *batch with up to batch_size tuples (its target_tuples is set
  /// to batch_size) via one dataset NextBatch call; returns false at epoch
  /// end, when the batch is empty — or short, under drop_last.
  Result<bool> NextBatch(TupleBatch* batch);

 private:
  IterableDataset* dataset_;
  Options options_;
};

}  // namespace corgipile
