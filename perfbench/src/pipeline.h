// The TRAIN BY pipeline for strategy=corgipile, rebuilt from the engine's
// public operator classes with a TimedOperator between the stages:
//
//   BlockShuffleOp -> [timed db.block_shuffle] -> TupleShuffleOp
//                  -> [timed db.tuple_shuffle] -> SgdOp
//
// It mirrors Database::Train's construction (same options, same seeds), so
// for the same statement it must reproduce the engine's epochs and final
// parameters bit for bit; the benchmark checks that on every traced
// statement and the self-test checks it on a tiny table.
#pragma once

#include <cstdint>
#include <vector>

#include "db/database.h"
#include "trace.h"

namespace perfbench {

struct PipelineOptions {
  uint64_t block_size_bytes = 10ull << 20;
  double learning_rate = 0.01;
  uint32_t max_epochs = 1;
  uint64_t seed = 42;
};

/// Reads the options the rebuilt pipeline honours from a parsed TRAIN
/// statement (Database::Train's defaults for omitted keys).
corgipile::Result<PipelineOptions> PipelineOptionsFrom(
    const corgipile::TrainStatement& stmt);

struct PipelineResult {
  std::vector<corgipile::EpochLog> epochs;
  std::vector<double> params;
  uint64_t tuples = 0;
  /// Simulated end-to-end seconds with double buffering, as
  /// InDbTrainResult::end_to_end_double_seconds.
  double sim_double_s = 0.0;
};

/// Trains a fresh logistic-regression model over `table` through the
/// rebuilt pipeline, charging the database's clock. Spans go to `rec`
/// (null: untimed) under statement `statement`; `anchor` parents spans
/// opened on the double-buffer producer thread.
corgipile::Result<PipelineResult> RunPipeline(
    corgipile::Database* db, corgipile::ShardedTable* table,
    const std::vector<corgipile::Tuple>* test_set,
    const PipelineOptions& options, SpanRecorder* rec, uint64_t statement,
    int64_t anchor);

}  // namespace perfbench
