#include "exec/shard_scan.h"

#include <deque>
#include <future>

#include "iosim/fault_plane.h"

namespace corgipile {

namespace {

/// Per-shard consumer-side cursor. Concurrent mode pipelines bounded
/// prefetch *tasks* (each reads one preassigned page run into a batch,
/// returns it, and exits); inline mode reads the next non-empty page on
/// the calling thread. Tasks never block on queue capacity — unlike
/// long-running channel producers, a prefetch task always terminates —
/// so the merge cannot deadlock no matter how small the pool is
/// relative to the shard count.
struct ShardCursor {
  const TableSnapshot* shard = nullptr;
  ThreadPool* pool = nullptr;
  uint64_t batch_tuples = 256;
  const CancellationToken* token = nullptr;

  TupleBatch buffer;
  size_t pos = 0;
  uint64_t next_page = 0;
  /// In-flight prefetch tasks, in page order. At most `prefetch_depth`.
  std::deque<std::future<Result<TupleBatch>>> pending;
  size_t prefetch_depth = 1;
  bool done = false;

  /// Submits prefetch tasks until `prefetch_depth` are in flight or the
  /// shard's pages are exhausted. Page runs are carved at submission
  /// time, so task results concatenate in storage order.
  void Prime() {
    while (pending.size() < prefetch_depth &&
           next_page < shard->num_pages()) {
      const uint64_t first = next_page;
      uint64_t tuples = 0;
      while (next_page < shard->num_pages() && tuples < batch_tuples) {
        tuples += shard->TuplesInPage(next_page);
        ++next_page;
      }
      const uint64_t count = next_page - first;
      const TableSnapshot* s = shard;
      const CancellationToken* tok = token;
      pending.push_back(
          pool->Submit([s, first, count, tok]() -> Result<TupleBatch> {
            if (tok != nullptr && tok->cancelled()) return tok->status();
            TupleBatch batch;
            CORGI_RETURN_NOT_OK(s->ReadTuplesFromPages(first, count, &batch));
            return batch;
          }));
    }
  }

  /// Ensures buffer.row(pos) is valid or marks the cursor done.
  Status Refill() {
    buffer.Clear();
    pos = 0;
    if (pool != nullptr) {
      while (buffer.empty()) {
        Prime();
        if (pending.empty()) {
          done = true;
          return Status::OK();
        }
        CORGI_ASSIGN_OR_RETURN(buffer, pending.front().get());
        pending.pop_front();
      }
      Prime();  // keep the pipeline full while this batch drains
      return Status::OK();
    }
    while (buffer.empty()) {
      if (next_page >= shard->num_pages()) {
        done = true;
        return Status::OK();
      }
      CORGI_RETURN_NOT_OK(shard->ReadTuplesFromPages(next_page, 1, &buffer));
      ++next_page;
    }
    return Status::OK();
  }

  /// Joins every in-flight task (results discarded) so captured
  /// references cannot outlive the merge call.
  void Drain() {
    while (!pending.empty()) {
      pending.front().wait();
      pending.pop_front();
    }
  }
};

}  // namespace

Status MergeScanSnapshot(const ShardedSnapshot& snap,
                         const ShardScanOptions& opts,
                         const std::function<Status(const RowView&)>& fn) {
  CORGI_INJECT_POINT("shard.scan.begin");
  if (!snap.valid()) return Status::OK();
  const size_t K = snap.num_shards();
  std::vector<ShardCursor> cursors(K);
  for (size_t s = 0; s < K; ++s) {
    cursors[s].shard = &snap.shard(s);
    cursors[s].pool = opts.pool;
    cursors[s].batch_tuples = opts.batch_tuples == 0 ? 256 : opts.batch_tuples;
    cursors[s].token = opts.token;
    cursors[s].prefetch_depth =
        opts.prefetch_batches == 0 ? 1 : opts.prefetch_batches;
    if (opts.pool != nullptr) cursors[s].Prime();
  }
  auto abort = [&](Status reason) {
    for (auto& cur : cursors) cur.Drain();
    return reason;
  };

  // Cyclic merge. Round-robin placement keeps shard sizes within one tuple
  // of each other, so "skip exhausted shards, keep cycling" emits exactly
  // the insertion order.
  size_t live = K;
  size_t s = 0;
  while (live > 0) {
    ShardCursor& cur = cursors[s];
    if (!cur.done) {
      if (cur.pos >= cur.buffer.size()) {
        Status st = cur.Refill();
        if (!st.ok()) return abort(std::move(st));
      }
      if (cur.done) {
        --live;
      } else {
        if (opts.token != nullptr && opts.token->cancelled()) {
          return abort(opts.token->status());
        }
        Status st = fn(cur.buffer.row(cur.pos++));
        if (!st.ok()) return abort(std::move(st));
      }
    }
    s = (s + 1) % K;
  }
  return Status::OK();
}

Status CollectSnapshot(const ShardedSnapshot& snap,
                       const ShardScanOptions& opts, std::vector<Tuple>* out) {
  out->reserve(out->size() + snap.num_tuples());
  return MergeScanSnapshot(snap, opts, [out](const RowView& r) {
    MaterializeRow(r, &out->emplace_back());
    return Status::OK();
  });
}

}  // namespace corgipile
