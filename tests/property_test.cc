// Property-based sweeps (TEST_P) over the library's core invariants:
//  * permutation property of shuffling strategies across buffer sizes,
//  * storage round-trips across page sizes / compression / sparsity,
//  * gradient correctness across model families,
//  * device-model monotonicity across block sizes,
//  * CorgiPileDataset sharding across worker counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "dataloader/dataset_api.h"
#include "iosim/device.h"
#include "iosim/fault_injector.h"
#include "iosim/sim_clock.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "shuffle/tuple_stream.h"
#include "util/rng.h"

#include "drain_util.h"

namespace corgipile {
namespace {

// ---------------------------------------------------------------------
// Property 1: every strategy that claims to visit each tuple exactly once
// per epoch does so, for any buffer fraction and block size.
// ---------------------------------------------------------------------

using StrategyBufferParam = std::tuple<ShuffleStrategy, double, uint64_t>;

class PermutationProperty
    : public ::testing::TestWithParam<StrategyBufferParam> {};

TEST_P(PermutationProperty, EpochIsPermutation) {
  const auto [strategy, buffer_fraction, block] = GetParam();
  const size_t n = 600;
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    tuples->push_back(
        MakeDenseTuple(i, i < n / 2 ? -1.0 : 1.0, {static_cast<float>(i)}));
  }
  InMemoryBlockSource src(Schema{"p", 1, false, LabelType::kBinary, 2},
                          tuples, block);
  ShuffleOptions opts;
  opts.buffer_fraction = buffer_fraction;
  auto stream = MakeTupleStream(strategy, &src, opts);
  ASSERT_TRUE(stream.ok());
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE((*stream)->StartEpoch(epoch).ok());
    std::set<uint64_t> seen;
    for (uint64_t id : DrainIds(stream->get())) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
    ASSERT_TRUE((*stream)->status().ok());
    EXPECT_EQ(seen.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PermutationProperty,
    ::testing::Combine(
        ::testing::Values(ShuffleStrategy::kNoShuffle,
                          ShuffleStrategy::kShuffleOnce,
                          ShuffleStrategy::kEpochShuffle,
                          ShuffleStrategy::kSlidingWindow,
                          ShuffleStrategy::kBlockOnly,
                          ShuffleStrategy::kCorgiPile),
        ::testing::Values(0.02, 0.1, 0.5, 1.0),
        ::testing::Values(uint64_t{7}, uint64_t{50}, uint64_t{600})),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(std::get<0>(info.param))) +
             "_buf" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_blk" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Property 2: table storage round-trips for every (page size, compression,
// sparsity) combination.
// ---------------------------------------------------------------------

using StorageParam = std::tuple<uint32_t, bool, bool>;  // page, compress, sparse

class StorageRoundTripProperty
    : public ::testing::TestWithParam<StorageParam> {};

TEST_P(StorageRoundTripProperty, TuplesSurvive) {
  const auto [page_size, compress, sparse] = GetParam();
  Rng rng(page_size ^ (compress ? 1 : 0) ^ (sparse ? 2 : 0));
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 200; ++i) {
    if (sparse) {
      auto keys = rng.SampleWithoutReplacement(500, 12);
      std::sort(keys.begin(), keys.end());
      std::vector<float> vals(12);
      for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
      tuples.push_back(
          MakeSparseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(keys),
                          std::move(vals)));
    } else {
      std::vector<float> vals(48);
      for (auto& v : vals) {
        v = rng.NextBool(0.5) ? 0.0f : static_cast<float>(rng.NextGaussian());
      }
      tuples.push_back(
          MakeDenseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(vals)));
    }
  }
  Schema schema{"prop", sparse ? 500u : 48u, sparse, LabelType::kBinary, 2};
  const std::string path = testing::TempDir() + "prop_storage.tbl";
  TableOptions options;
  options.page_size = page_size;
  options.compress_tuples = compress;
  auto table = MaterializeTable(schema, tuples, path, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), tuples.size());
  std::vector<Tuple> read;
  ASSERT_TRUE(
      (*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &read).ok());
  ASSERT_EQ(read.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(read[i], tuples[i]) << i;
  }
  // Random point lookups agree too.
  for (int k = 0; k < 20; ++k) {
    const auto idx = rng.Uniform(tuples.size());
    auto t = (*table)->ReadTupleAt(idx);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[idx]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageRoundTripProperty,
    ::testing::Combine(::testing::Values(1024u, 4096u, 8192u, 65535u),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return "page" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_comp" : "_raw") +
             (std::get<2>(info.param) ? "_sparse" : "_dense");
    });

// ---------------------------------------------------------------------
// Property 3: SgdStep == params - lr * AccumulateGrad for every model
// family, on dense and sparse tuples.
// ---------------------------------------------------------------------

class ModelStepProperty : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Model> MakeModel() const {
    const std::string& kind = GetParam();
    if (kind == "lr") return std::make_unique<LogisticRegression>(12);
    if (kind == "svm") return std::make_unique<SvmModel>(12);
    if (kind == "linreg") return std::make_unique<LinearRegressionModel>(12);
    if (kind == "softmax") return std::make_unique<SoftmaxRegression>(12, 4);
    return std::make_unique<MlpModel>(12, 6, 4);
  }
  double LabelFor(const std::string& kind, Rng* rng) const {
    if (kind == "softmax" || kind == "mlp") {
      return static_cast<double>(rng->Uniform(4));
    }
    if (kind == "linreg") return rng->NextGaussian();
    return rng->NextBool() ? 1.0 : -1.0;
  }
};

TEST_P(ModelStepProperty, StepMatchesGradient) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    auto model = MakeModel();
    model->InitParams(trial);
    for (auto& p : model->params()) p += 0.1 * rng.NextGaussian();

    Tuple t;
    if (trial % 2 == 0) {
      std::vector<float> vals(12);
      for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
      t = MakeDenseTuple(0, LabelFor(GetParam(), &rng), std::move(vals));
    } else {
      t = MakeSparseTuple(0, LabelFor(GetParam(), &rng), {1, 5, 9},
                          {0.5f, -1.0f, 2.0f});
    }
    std::vector<double> grad(model->num_params(), 0.0);
    auto copy = model->Clone();
    const double loss_grad = copy->AccumulateGrad(t, &grad);
    const double lr = 0.03;
    const double loss_step = model->SgdStep(t, lr);
    EXPECT_NEAR(loss_grad, loss_step, 1e-12);
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_NEAR(model->params()[i], copy->params()[i] - lr * grad[i], 1e-12)
          << GetParam() << " trial " << trial << " param " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelStepProperty,
                         ::testing::Values("lr", "svm", "linreg", "softmax",
                                           "mlp"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Property 4: device cost model monotonicity — random throughput increases
// with block size and never exceeds sequential bandwidth.
// ---------------------------------------------------------------------

class DeviceMonotonicityProperty
    : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(DeviceMonotonicityProperty, RandomThroughputMonotone) {
  const DeviceProfile dev = DeviceProfile::ForKind(GetParam());
  double prev = 0.0;
  for (uint64_t kb = 4; kb <= 64 * 1024; kb *= 4) {
    const double tp = dev.RandomChunkThroughput(kb * 1024);
    EXPECT_GT(tp, prev);
    EXPECT_LE(tp, dev.bandwidth_bytes_per_s);
    prev = tp;
  }
  // Scaled devices preserve the fraction-of-sequential at block sizes
  // scaled by exactly the same factor.
  const double factor = 1e-3;
  const DeviceProfile scaled = dev.Scaled(factor);
  const uint64_t full_block = 10 * 1024 * 1024;
  const auto scaled_block = static_cast<uint64_t>(full_block * factor);
  const double frac_full =
      dev.RandomChunkThroughput(full_block) / dev.bandwidth_bytes_per_s;
  const double frac_scaled = scaled.RandomChunkThroughput(scaled_block) /
                             scaled.bandwidth_bytes_per_s;
  EXPECT_NEAR(frac_full, frac_scaled, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeviceMonotonicityProperty,
                         ::testing::Values(DeviceKind::kHdd, DeviceKind::kSsd),
                         [](const auto& info) {
                           return std::string(DeviceKindToString(info.param));
                         });

// ---------------------------------------------------------------------
// Property 5: CorgiPileDataset shards partition the blocks for any worker
// count, and the union of emissions covers the dataset exactly once.
// ---------------------------------------------------------------------

class ShardingProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardingProperty, ShardsPartitionAndCover) {
  const uint32_t P = GetParam();
  const size_t n = 990;  // deliberately not divisible by most P
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    tuples->push_back(MakeDenseTuple(i, 1.0, {0.0f}));
  }
  InMemoryBlockSource src(Schema{"s", 1, false, LabelType::kBinary, 2},
                          tuples, 30);  // 33 blocks
  std::multiset<uint64_t> all_ids;
  std::set<uint32_t> all_blocks;
  for (uint32_t w = 0; w < P; ++w) {
    CorgiPileDataset ds(&src, {/*buffer_tuples=*/64, /*seed=*/5});
    ASSERT_TRUE(ds.StartEpoch(3, w, P).ok());
    for (uint32_t b : ds.assigned_blocks()) {
      EXPECT_TRUE(all_blocks.insert(b).second);
    }
    for (uint64_t id : DrainIds(&ds)) all_ids.insert(id);
    ASSERT_TRUE(ds.status().ok());
  }
  EXPECT_EQ(all_blocks.size(), src.num_blocks());
  EXPECT_EQ(all_ids.size(), n);
  EXPECT_EQ(*all_ids.begin(), 0u);
  EXPECT_EQ(*all_ids.rbegin(), n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 8u, 16u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Property 6: bounded retry never charges more simulated backoff to one
// read than the policy cap (RetryPolicy::MaxTotalBackoffSeconds), for any
// randomized fault schedule — transient, permanent, or mixed.
// ---------------------------------------------------------------------

using BackoffCapParam =
    std::tuple<uint64_t /*seed*/, double /*transient_rate*/,
               double /*permanent_rate*/, uint32_t /*max_retries*/>;

class RetryBackoffCapProperty
    : public ::testing::TestWithParam<BackoffCapParam> {};

TEST_P(RetryBackoffCapProperty, PerReadChargeNeverExceedsPolicyCap) {
  const auto [seed, transient_rate, permanent_rate, max_retries] = GetParam();
  SCOPED_TRACE("scenario=RetryBackoffCap seed=" + std::to_string(seed) +
               " transient=" + std::to_string(transient_rate) +
               " permanent=" + std::to_string(permanent_rate) +
               " retries=" + std::to_string(max_retries));

  const std::string path = testing::TempDir() + "prop_backoff_" +
                           std::to_string(seed) + ".tbl";
  const uint32_t kPageSize = 512;
  const uint64_t kPages = 48;
  auto file = HeapFile::Create(path, kPageSize).ValueOrDie();
  for (uint64_t i = 0; i < kPages; ++i) {
    Page p(kPageSize);
    const uint8_t rec[] = {static_cast<uint8_t>(i), 1, 2, 3};
    ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
    ASSERT_TRUE(file->AppendPage(p).ok());
  }
  ASSERT_TRUE(file->Sync().ok());

  FaultConfig cfg;
  cfg.seed = seed;
  cfg.transient_read_error_rate = transient_rate;
  cfg.max_transient_failures = max_retries + 2;  // some sites never recover
  cfg.permanent_read_error_rate = permanent_rate;
  FaultInjector inj(cfg);
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);
  file->SetFaultInjection(&inj);
  RetryPolicy policy;
  policy.max_retries = max_retries;
  file->SetRetryPolicy(policy);
  const double cap = policy.MaxTotalBackoffSeconds();

  Page out;
  for (uint64_t p = 0; p < kPages; ++p) {
    const double before = clock.Elapsed(TimeCategory::kRetryBackoff);
    const Status st = file->ReadPage(p, &out);  // ok or not — both legal
    const double charged =
        clock.Elapsed(TimeCategory::kRetryBackoff) - before;
    EXPECT_LE(charged, cap + 1e-12)
        << "page " << p << " (" << st.ToString() << ") charged " << charged
        << "s of backoff against a policy cap of " << cap << "s";
    EXPECT_GE(charged, 0.0) << "page " << p;
  }
  EXPECT_LE(clock.Elapsed(TimeCategory::kRetryBackoff),
            static_cast<double>(kPages) * cap + 1e-9);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RetryBackoffCapProperty,
    ::testing::Values(
        BackoffCapParam{1, 0.5, 0.0, 3},   // transient-heavy
        BackoffCapParam{2, 1.0, 0.0, 2},   // every site flaky
        BackoffCapParam{3, 0.0, 0.3, 3},   // permanent-only
        BackoffCapParam{4, 0.4, 0.2, 1},   // mixed, tight budget
        BackoffCapParam{5, 0.8, 0.1, 4},   // mixed, generous budget
        BackoffCapParam{77, 1.0, 1.0, 0}), // no retries at all
    [](const auto& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) + "R" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace corgipile
