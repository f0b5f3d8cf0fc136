// Unit tests for the supervised-execution primitives: CancellationToken,
// Deadline, Channel, ThreadPool::ParallelFor's error/cancellation
// semantics, and TupleShuffleOp's recycled double-buffer staging.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "db/block_shuffle_op.h"
#include "db/tuple_shuffle_op.h"
#include "iosim/sim_clock.h"
#include "util/cancellation.h"
#include "util/channel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {
namespace {

// ---------------------------------------------------------------------------
// CancellationToken
// ---------------------------------------------------------------------------

TEST(CancellationTokenTest, StartsAlive) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTokenTest, FirstCancelWins) {
  CancellationToken token;
  token.Cancel(Status::IoError("first"));
  token.Cancel(Status::Corruption("second"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsIoError());
  EXPECT_EQ(token.status().message(), "first");
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken copy = token;
  copy.Cancel(Status::Cancelled("via copy"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsCancelled());
}

TEST(CancellationTokenTest, OkReasonCoercedToCancelled) {
  CancellationToken token;
  token.Cancel(Status::OK());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.status().IsCancelled());
}

TEST(CancellationTokenTest, ConcurrentCancelKeepsOneReason) {
  CancellationToken token;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&token, t] {
      token.Cancel(Status::IoError("racer " + std::to_string(t)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(token.cancelled());
  // Exactly one racer's reason survives, and it stays stable.
  Status first = token.status();
  EXPECT_TRUE(first.IsIoError());
  EXPECT_EQ(token.status().message(), first.message());
}

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Check("anything").ok());
}

TEST(DeadlineTest, ExpiresWithSimulatedTime) {
  SimClock clock;
  clock.Advance(TimeCategory::kIoRead, 1.0);
  Deadline d(&clock, 2.0);  // budget starts at the current 1.0s mark
  EXPECT_FALSE(d.Expired());
  clock.Advance(TimeCategory::kIoRead, 2.0);  // total 3.0, delta 2.0 == budget
  EXPECT_FALSE(d.Expired());
  clock.Advance(TimeCategory::kCompute, 0.5);  // delta 2.5 > budget
  EXPECT_TRUE(d.Expired());
  Status st = d.Check("epoch");
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_NE(st.message().find("epoch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST(ChannelTest, FifoWithinCapacity) {
  Channel<int> ch(4);
  EXPECT_EQ(ch.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ch.Push(i).ok());
  EXPECT_EQ(ch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = -1;
    auto got = ch.Pop(&v);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(v, i);
  }
}

TEST(ChannelTest, CapacityClampedToOne) {
  Channel<int> ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

TEST(ChannelTest, CleanCloseDrainsThenEndOfStream) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.Push(1).ok());
  ASSERT_TRUE(ch.Push(2).ok());
  ch.Close();
  int v = 0;
  auto got = ch.Pop(&v);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  got = ch.Pop(&v);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  got = ch.Pop(&v);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);  // clean end of stream
  EXPECT_TRUE(ch.status().ok());
}

TEST(ChannelTest, ErrorCloseDrainsThenSurfacesError) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.Push(7).ok());
  ch.Close(Status::Corruption("block 3 checksum"));
  int v = 0;
  auto got = ch.Pop(&v);
  ASSERT_TRUE(got.ok());  // buffered item delivered first
  EXPECT_TRUE(*got);
  EXPECT_EQ(v, 7);
  got = ch.Pop(&v);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
}

TEST(ChannelTest, PushAfterCloseIsInternalError) {
  Channel<int> ch(2);
  ch.Close();
  EXPECT_TRUE(ch.Push(1).IsInternal());
  EXPECT_TRUE(ch.WaitWritable().IsInternal());
}

TEST(ChannelTest, CancelDropsBufferAndFailsBothSides) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.Push(1).ok());
  ch.Cancel(Status::Cancelled("consumer gone"));
  int v = 0;
  EXPECT_TRUE(ch.Pop(&v).status().IsCancelled());  // buffer dropped
  EXPECT_TRUE(ch.Push(2).IsCancelled());
  EXPECT_TRUE(ch.status().IsCancelled());
}

TEST(ChannelTest, CancelOverridesCleanClose) {
  Channel<int> ch(2);
  ASSERT_TRUE(ch.Push(1).ok());
  ch.Close();
  ch.Cancel(Status::Cancelled("abandoned"));
  int v = 0;
  EXPECT_TRUE(ch.Pop(&v).status().IsCancelled());
}

TEST(ChannelTest, CancelWakesBlockedPush) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.Push(0).ok());  // fill to capacity
  Status pushed = Status::OK();
  std::thread producer([&] { pushed = ch.Push(1); });
  // Give the producer time to block on the full channel, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Cancel(Status::Cancelled("shutdown"));
  producer.join();
  EXPECT_TRUE(pushed.IsCancelled());
}

TEST(ChannelTest, CloseWakesBlockedPop) {
  Channel<int> ch(1);
  Status pop_status = Status::OK();
  bool got_item = true;
  std::thread consumer([&] {
    int v = 0;
    auto got = ch.Pop(&v);
    pop_status = got.status();
    got_item = got.ok() ? *got : false;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Close();
  consumer.join();
  EXPECT_TRUE(pop_status.ok());
  EXPECT_FALSE(got_item);
}

TEST(ChannelTest, MpmcStressDeliversEveryItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  Channel<int> ch(8);
  std::atomic<int> producers_left{kProducers};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Push(p * kPerProducer + i).ok());
      }
      if (producers_left.fetch_sub(1) == 1) ch.Close();
    });
  }
  std::atomic<int> received{0};
  std::atomic<long long> sum{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        int v = -1;
        auto got = ch.Pop(&v);
        ASSERT_TRUE(got.ok());
        if (!*got) return;
        received.fetch_add(1);
        sum.fetch_add(v);
      }
    });
  }
  for (auto& th : threads) th.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), 1LL * total * (total - 1) / 2);
}

// ---------------------------------------------------------------------------
// ThreadPool::ParallelFor supervision
// ---------------------------------------------------------------------------

TEST(ParallelForTest, VoidBodyRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  Status st = pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(st.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ReturnsLowestIndexError) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(32, [&](size_t i) -> Status {
    if (i == 5 || i == 17) {
      return Status::IoError("task " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError());
  EXPECT_EQ(st.message(), "task 5");
}

// Regression for the unwind bug: with a single-threaded pool the indices run
// strictly in order, so an error at index 2 must deterministically skip every
// later index — previously the caller unwound while queued tasks still held a
// dangling reference to the loop body.
TEST(ParallelForTest, ErrorSkipsNotYetStartedIndices) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  Status st = pool.ParallelFor(100, [&](size_t i) -> Status {
    ran.fetch_add(1);
    if (i == 2) return Status::Corruption("poison");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(ran.load(), 3);  // 0, 1, 2 — nothing after the failure
}

TEST(ParallelForTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  Status st = pool.ParallelFor(8, [&](size_t i) {
    if (i == 3) throw std::runtime_error("boom");
  });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, PreCancelledTokenSkipsEverything) {
  ThreadPool pool(2);
  CancellationToken token;
  token.Cancel(Status::Cancelled("already dead"));
  std::atomic<int> ran{0};
  Status st = pool.ParallelFor(
      50, [&](size_t) { ran.fetch_add(1); }, &token);
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForTest, MidFlightCancellationStopsDistribution) {
  ThreadPool pool(1);  // serial execution makes the cutoff deterministic
  CancellationToken token;
  std::atomic<int> ran{0};
  Status st = pool.ParallelFor(
      100,
      [&](size_t i) {
        ran.fetch_add(1);
        if (i == 4) token.Cancel(Status::Cancelled("enough"));
      },
      &token);
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_EQ(ran.load(), 5);  // 0..4, nothing after the cancel
}

TEST(ParallelForTest, ZeroIterationsIsOk) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) {}).ok());
}

TEST(ParallelForTest, SubmitPreservesReturnValue) {
  ThreadPool pool(2);
  auto fut_int = pool.Submit([] { return 41 + 1; });
  auto fut_status = pool.Submit([] { return Status::NotFound("gone"); });
  EXPECT_EQ(fut_int.get(), 42);
  EXPECT_TRUE(fut_status.get().IsNotFound());
}

// ---------------------------------------------------------------------------
// TupleShuffleOp staging-arena recycling
// ---------------------------------------------------------------------------

constexpr uint64_t kShuffleSeed = 11;
constexpr uint64_t kBufferTuples = 37;  // deliberately awkward

BlockShuffleOp::Options RecycleBlockOptions() {
  BlockShuffleOp::Options opts;
  opts.block_size_bytes = 2 * 2048;
  opts.seed = kShuffleSeed;
  return opts;
}

// Emission order of TupleShuffleOp in `epoch`, rebuilt without it: the
// child's block-shuffled stream cut into buffers, each served through a
// Fisher-Yates index permutation drawn from Rng(seed).Fork(epoch).
std::vector<uint64_t> ReferenceEpochOrder(Table* table, uint64_t epoch) {
  BlockShuffleOp block(table, RecycleBlockOptions());
  EXPECT_TRUE(block.Init().ok());
  EXPECT_TRUE(block.SkipEpochs(epoch).ok());
  std::vector<uint64_t> ids;
  while (const Tuple* t = block.Next()) ids.push_back(t->id);
  Rng epoch_rng = Rng(kShuffleSeed).Fork(epoch);
  std::vector<uint64_t> order;
  for (size_t start = 0; start < ids.size(); start += kBufferTuples) {
    std::vector<uint32_t> perm(
        std::min<size_t>(kBufferTuples, ids.size() - start));
    std::iota(perm.begin(), perm.end(), 0u);
    epoch_rng.Shuffle(perm);
    for (uint32_t p : perm) order.push_back(ids[start + p]);
  }
  return order;
}

// Drains (or, with `limit`, partly drains) the current epoch through
// NextBatch, checking the spare-arena bound after every call.
std::vector<uint64_t> DrainEpoch(TupleShuffleOp* op, size_t limit = SIZE_MAX) {
  std::vector<uint64_t> order;
  TupleBatch out(16);
  while (order.size() < limit && op->NextBatch(&out)) {
    for (size_t i = 0; i < out.size(); ++i) order.push_back(out.id(i));
    EXPECT_LE(op->spare_batches(), TupleShuffleOp::kMaxSpareBatches);
  }
  EXPECT_TRUE(op->status().ok()) << op->status().ToString();
  return order;
}

TEST(TupleShuffleRecycleTest, OrderHoldsAcrossRescanSkipAndEarlyClose) {
  auto spec = CatalogLookup("susy", 0.02);
  ASSERT_TRUE(spec.ok());
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto made = MaterializeTrainTable(
      ds, testing::TempDir() + "tso_recycle.tbl", 2048);
  ASSERT_TRUE(made.ok());
  std::unique_ptr<Table> table = std::move(made).ValueOrDie();

  for (const bool double_buffer : {true, false}) {
    SCOPED_TRACE(double_buffer ? "double buffered" : "single buffered");
    BlockShuffleOp block(table.get(), RecycleBlockOptions());
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = kBufferTuples;
    topts.double_buffer = double_buffer;
    topts.seed = kShuffleSeed;
    TupleShuffleOp op(&block, topts);
    ASSERT_TRUE(op.Init().ok());

    EXPECT_EQ(DrainEpoch(&op), ReferenceEpochOrder(table.get(), 0));
    EXPECT_GE(op.spare_batches(), 1u);  // drained arenas came back
    ASSERT_TRUE(op.ReScan().ok());
    // Abandon epoch 1 mid-stream; epoch 2 must start clean on the
    // recycled arenas.
    const auto partial = DrainEpoch(&op, 100);
    const auto epoch1 = ReferenceEpochOrder(table.get(), 1);
    ASSERT_GE(partial.size(), 100u);
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(), epoch1.begin()));
    ASSERT_TRUE(op.ReScan().ok());
    EXPECT_EQ(DrainEpoch(&op), ReferenceEpochOrder(table.get(), 2));
    // Jump from epoch 2 to epoch 5 after a partial drain.
    DrainEpoch(&op, 50);
    ASSERT_TRUE(op.SkipEpochs(3).ok());
    EXPECT_EQ(DrainEpoch(&op), ReferenceEpochOrder(table.get(), 5));
    ASSERT_TRUE(op.ReScan().ok());
    // Per-tuple pulls share the recycled batches.
    std::vector<uint64_t> per_tuple;
    while (const Tuple* t = op.Next()) per_tuple.push_back(t->id);
    EXPECT_EQ(per_tuple, ReferenceEpochOrder(table.get(), 6));
    ASSERT_TRUE(op.ReScan().ok());
    DrainEpoch(&op, 20);
    op.Close();  // early close with the producer mid-epoch
    EXPECT_EQ(op.spare_batches(), 0u);
    op.Close();
  }
}

}  // namespace
}  // namespace corgipile
