// Shard-aware merge scan (DESIGN.md §14).
//
// A ShardedSnapshot stores tuple i of the insertion order in shard i % K
// at local position i / K, so emitting one tuple per shard cyclically
// (skipping exhausted shards) reconstructs the insertion order exactly.
// The merge order is a pure function of the snapshot — never of thread
// interleaving — so the tuple sequence is bit-identical whether the
// per-shard producers run sequentially or on a thread pool, and identical
// to the unsharded Table::Scan at K=1.
//
// Rows stay in the TupleBatch arenas the pages decode into: the callback
// sees a RowView into them, and nothing is materialized per row. With a
// ThreadPool attached, each shard pipelines bounded prefetch tasks —
// every task reads one preassigned page run into a batch, returns it, and
// exits — and the calling thread merges. Because no task ever blocks
// on queue capacity, the merge is deadlock-free for any pool size (a
// long-running producer-per-shard design would wedge whenever the pool
// has fewer threads than the table has shards). Without a pool, shards
// are read inline on the calling thread, page by page, which also keeps
// SimClock billing order deterministic for single-session runs; at K=1
// that is the page order (and billing) of TableSnapshot::Scan.

#pragma once

#include <functional>
#include <vector>

#include "exec/tuple_batch.h"
#include "storage/sharded_table.h"
#include "storage/tuple.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {

struct ShardScanOptions {
  /// Prefetch granularity: a task reads whole pages until it has at
  /// least this many tuples.
  uint64_t batch_tuples = 256;
  /// In-flight prefetch tasks per shard (bounds memory to roughly
  /// prefetch_batches × batch_tuples × K tuples).
  size_t prefetch_batches = 2;
  /// Pool for prefetch tasks. Null = read shards inline on the calling
  /// thread. Must not be a pool this call runs inside of.
  ThreadPool* pool = nullptr;
  /// Optional cooperative cancellation; checked between batches.
  const CancellationToken* token = nullptr;
};

/// Scans `snap` in exact insertion order, invoking `fn` for every row on
/// the calling thread. The view is valid only during the call. An error
/// from `fn` (or a cancelled token) stops the scan, cancels all
/// producers, and is returned.
Status MergeScanSnapshot(const ShardedSnapshot& snap,
                         const ShardScanOptions& opts,
                         const std::function<Status(const RowView&)>& fn);

/// Convenience: merge-scans `snap` and appends every row to *out as a
/// Tuple (through MaterializeRow).
Status CollectSnapshot(const ShardedSnapshot& snap,
                       const ShardScanOptions& opts, std::vector<Tuple>* out);

}  // namespace corgipile
