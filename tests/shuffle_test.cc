// Unit tests for shuffle/: each strategy's stream semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "shuffle/hierarchical.h"
#include "shuffle/tuple_stream.h"
#include "util/stats.h"

#include "drain_util.h"

namespace corgipile {
namespace {

// A clustered toy dataset: ids 0..n-1 in storage order, first half label -1.
std::shared_ptr<std::vector<Tuple>> ClusteredToy(size_t n) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    tuples->push_back(
        MakeDenseTuple(i, i < n / 2 ? -1.0 : 1.0, {static_cast<float>(i)}));
  }
  return tuples;
}

Schema ToySchema() { return Schema{"toy", 1, false, LabelType::kBinary, 2}; }

// Drains one epoch, returning emitted tuple ids.
std::vector<uint64_t> DrainEpoch(TupleStream* stream, uint64_t epoch) {
  EXPECT_TRUE(stream->StartEpoch(epoch).ok());
  std::vector<uint64_t> ids = DrainIds(stream);
  EXPECT_TRUE(stream->status().ok());
  return ids;
}

// Mean normalized displacement |position - id| / n: ~0 for unshuffled,
// ~1/3 for a uniform permutation.
double MeanDisplacement(const std::vector<uint64_t>& ids) {
  if (ids.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    sum += std::abs(static_cast<double>(i) - static_cast<double>(ids[i]));
  }
  return sum / (static_cast<double>(ids.size()) * static_cast<double>(ids.size()));
}

class StrategyStreamTest : public ::testing::TestWithParam<ShuffleStrategy> {};

TEST_P(StrategyStreamTest, EmitsEveryTupleExactlyOncePerEpoch) {
  // MRS intentionally re-emits buffered tuples; exclude it here.
  if (GetParam() == ShuffleStrategy::kMrs) GTEST_SKIP();
  const size_t n = 1000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  opts.buffer_fraction = 0.1;
  auto stream = MakeTupleStream(GetParam(), &src, opts);
  ASSERT_TRUE(stream.ok());
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    auto ids = DrainEpoch(stream->get(), epoch);
    ASSERT_EQ(ids.size(), n) << (*stream)->name();
    std::set<uint64_t> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), n) << (*stream)->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyStreamTest,
    ::testing::Values(ShuffleStrategy::kNoShuffle, ShuffleStrategy::kShuffleOnce,
                      ShuffleStrategy::kEpochShuffle,
                      ShuffleStrategy::kSlidingWindow, ShuffleStrategy::kMrs,
                      ShuffleStrategy::kBlockOnly, ShuffleStrategy::kCorgiPile),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(info.param));
    });

TEST(NoShuffleTest, PreservesStorageOrder) {
  auto tuples = ClusteredToy(200);
  InMemoryBlockSource src(ToySchema(), tuples, 20);
  auto stream = MakeNoShuffleStream(&src);
  auto ids = DrainEpoch(stream.get(), 0);
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  // Identical across epochs.
  EXPECT_EQ(DrainEpoch(stream.get(), 1), ids);
}

TEST(BlockOnlyTest, BlocksPermutedTuplesInOrderWithinBlock) {
  const size_t n = 200, b = 20;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, b);
  auto stream = MakeBlockOnlyStream(&src, 77);
  auto ids = DrainEpoch(stream.get(), 0);
  ASSERT_EQ(ids.size(), n);
  // Within each consecutive run of b, ids are consecutive and block-aligned.
  std::vector<uint64_t> block_starts;
  for (size_t i = 0; i < n; i += b) {
    EXPECT_EQ(ids[i] % b, 0u);
    for (size_t j = 1; j < b; ++j) EXPECT_EQ(ids[i + j], ids[i] + j);
    block_starts.push_back(ids[i]);
  }
  // And the block order is not identity.
  bool identity = true;
  for (size_t k = 0; k < block_starts.size(); ++k) {
    if (block_starts[k] != k * b) identity = false;
  }
  EXPECT_FALSE(identity);
}

TEST(CorgiPileTest, ShufflesWithinBufferSpan) {
  const size_t n = 1000, b = 50;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, b);
  auto stream = MakeCorgiPileStream(&src, /*buffer_tuples=*/200, 99);
  auto ids = DrainEpoch(stream.get(), 0);
  ASSERT_EQ(ids.size(), n);
  // Each emitted buffer chunk of 200 tuples must consist of exactly 4 whole
  // blocks' ids, in shuffled order.
  for (size_t chunk = 0; chunk < n; chunk += 200) {
    std::set<uint64_t> blocks;
    for (size_t i = chunk; i < chunk + 200; ++i) blocks.insert(ids[i] / b);
    EXPECT_EQ(blocks.size(), 4u);
    // The chunk must not be sorted (tuple shuffle happened).
    EXPECT_FALSE(std::is_sorted(ids.begin() + chunk, ids.begin() + chunk + 200));
  }
}

TEST(CorgiPileTest, DifferentEpochsDifferentOrder) {
  auto tuples = ClusteredToy(500);
  InMemoryBlockSource src(ToySchema(), tuples, 25);
  auto stream = MakeCorgiPileStream(&src, 100, 5);
  auto e0 = DrainEpoch(stream.get(), 0);
  auto e1 = DrainEpoch(stream.get(), 1);
  EXPECT_NE(e0, e1);
}

TEST(CorgiPileTest, SampledEpochVisitsOnlyNBlocks) {
  auto tuples = ClusteredToy(500);
  InMemoryBlockSource src(ToySchema(), tuples, 25);  // 20 blocks
  auto stream = MakeCorgiPileStream(&src, 100, 5, /*blocks_per_epoch=*/4);
  auto ids = DrainEpoch(stream.get(), 0);
  EXPECT_EQ(ids.size(), 100u);  // 4 blocks × 25 tuples
  std::set<uint64_t> blocks;
  for (uint64_t id : ids) blocks.insert(id / 25);
  EXPECT_EQ(blocks.size(), 4u);
}

TEST(CorgiPileTest, DisplacementNearFullShuffleWithLargeBuffer) {
  const size_t n = 2000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 40);
  // Buffer = whole dataset → one buffer, full shuffle.
  auto stream = MakeCorgiPileStream(&src, n, 3);
  auto ids = DrainEpoch(stream.get(), 0);
  EXPECT_GT(MeanDisplacement(ids), 0.25);  // uniform permutation ≈ 1/3
}

TEST(SlidingWindowTest, NearlyLinearIdDistribution) {
  // The paper's Fig. 3(b): sliding-window output is almost unshuffled.
  const size_t n = 1000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  opts.buffer_fraction = 0.1;
  auto stream = MakeTupleStream(ShuffleStrategy::kSlidingWindow, &src, opts);
  ASSERT_TRUE(stream.ok());
  auto ids = DrainEpoch(stream->get(), 0);
  ASSERT_EQ(ids.size(), n);
  std::vector<double> pos(n), val(n);
  for (size_t i = 0; i < n; ++i) {
    pos[i] = static_cast<double>(i);
    val[i] = static_cast<double>(ids[i]);
  }
  EXPECT_GT(PearsonCorrelation(pos, val), 0.9);
  // Displacement is small compared to a real shuffle.
  EXPECT_LT(MeanDisplacement(ids), 0.12);
}

TEST(MrsTest, EmitsDroppedPlusLoopedTuples) {
  const size_t n = 1000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  opts.buffer_fraction = 0.1;  // reservoir = 100
  opts.mrs_loop_ratio = 1.0;
  auto stream = MakeTupleStream(ShuffleStrategy::kMrs, &src, opts);
  ASSERT_TRUE(stream.ok());
  auto ids = DrainEpoch(stream->get(), 0);
  // 900 dropped + ~900 looped.
  EXPECT_GT(ids.size(), 1500u);
  EXPECT_LE(ids.size(), 1900u);
  // Some ids repeat (loop buffer reuse) — the skew the paper describes.
  std::map<uint64_t, int> counts;
  for (uint64_t id : ids) counts[id]++;
  int repeated = 0;
  for (const auto& [id, c] : counts) {
    if (c > 1) ++repeated;
  }
  EXPECT_GT(repeated, 0);
}

TEST(MrsTest, ZeroLoopRatioEmitsOnlyDropped) {
  const size_t n = 500;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  opts.buffer_tuples = 100;
  opts.mrs_loop_ratio = 0.0;
  auto stream = MakeTupleStream(ShuffleStrategy::kMrs, &src, opts);
  ASSERT_TRUE(stream.ok());
  auto ids = DrainEpoch(stream->get(), 0);
  EXPECT_EQ(ids.size(), n - 100);  // everything except the final reservoir
  std::set<uint64_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), ids.size());
}

TEST(EpochShuffleTest, FullUniformEveryEpoch) {
  const size_t n = 2000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 100);
  ShuffleOptions opts;
  auto stream = MakeTupleStream(ShuffleStrategy::kEpochShuffle, &src, opts);
  ASSERT_TRUE(stream.ok());
  auto e0 = DrainEpoch(stream->get(), 0);
  auto e1 = DrainEpoch(stream->get(), 1);
  EXPECT_NE(e0, e1);
  EXPECT_GT(MeanDisplacement(e0), 0.25);
  EXPECT_GT(MeanDisplacement(e1), 0.25);
}

TEST(ShuffleOnceTest, SameShuffledOrderEveryEpoch) {
  const size_t n = 1000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  auto stream = MakeTupleStream(ShuffleStrategy::kShuffleOnce, &src, opts);
  ASSERT_TRUE(stream.ok());
  auto e0 = DrainEpoch(stream->get(), 0);
  auto e1 = DrainEpoch(stream->get(), 1);
  EXPECT_EQ(e0, e1);  // shuffled once, then fixed
  EXPECT_GT(MeanDisplacement(e0), 0.25);
}

TEST(ShuffleOnceTest, TableBackedCreatesCopyWithOverhead) {
  auto spec = CatalogLookup("susy", 0.02);  // 900 tuples
  ASSERT_TRUE(spec.ok());
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "so_table.tbl";
  auto table = MaterializeTrainTable(ds, path);
  ASSERT_TRUE(table.ok());

  SimClock clock;
  IoStats stats;
  (*table)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  TableBlockSource src(table->get(), 10 * (*table)->options().page_size);

  ShuffleOptions opts;
  opts.scratch_dir = testing::TempDir();
  opts.device = DeviceProfile::Hdd();
  opts.clock = &clock;
  opts.io_stats = &stats;
  auto stream = MakeTupleStream(ShuffleStrategy::kShuffleOnce, &src, opts);
  ASSERT_TRUE(stream.ok());

  auto ids = DrainEpoch(stream->get(), 0);
  EXPECT_EQ(ids.size(), ds.train->size());
  // The copy costs 2x disk and an external-sort-sized chunk of simulated
  // time (~2 reads + 2 writes of the table).
  EXPECT_GT((*stream)->ExtraDiskBytes(), 0u);
  const double one_scan =
      DeviceProfile::Hdd().SequentialCost((*table)->size_bytes());
  EXPECT_GT((*stream)->PrepOverheadSeconds(), 3.0 * one_scan);
  EXPECT_GE(stats.bytes_written, 2 * (*table)->size_bytes());
  std::remove(path.c_str());
  std::remove((testing::TempDir() + "/susy.shuffled.tbl").c_str());
}

TEST(StrategyTest, RoundTripNames) {
  for (ShuffleStrategy s :
       {ShuffleStrategy::kNoShuffle, ShuffleStrategy::kShuffleOnce,
        ShuffleStrategy::kEpochShuffle, ShuffleStrategy::kSlidingWindow,
        ShuffleStrategy::kMrs, ShuffleStrategy::kBlockOnly,
        ShuffleStrategy::kCorgiPile}) {
    auto parsed = ShuffleStrategyFromString(ShuffleStrategyToString(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(ShuffleStrategyFromString("bogus").ok());
}

TEST(StrategyTest, ResolveBufferTuples) {
  auto tuples = ClusteredToy(1000);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  ShuffleOptions opts;
  opts.buffer_fraction = 0.1;
  EXPECT_EQ(ResolveBufferTuples(opts, src), 100u);
  opts.buffer_tuples = 17;
  EXPECT_EQ(ResolveBufferTuples(opts, src), 17u);
}

}  // namespace
}  // namespace corgipile
