// Golden equivalence suite for the batched execution pipeline (DESIGN.md
// §9): at every transport batch size, the batched transport (NextBatch /
// Batch* kernels) must emit the same tuples in the same order, and produce
// bit-identical training results, as the per-tuple reference path did —
// for every shuffle strategy and seed. That path is gone; its emission
// orders, epoch losses, final parameters and quarantine counts were
// recorded as the golden hashes below before it was removed.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "db/block_shuffle_op.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "exec/tuple_batch.h"
#include "iosim/fault_injector.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "storage/table.h"

namespace corgipile {
namespace {

// Mixed-width toy data so the batched arena exercises both the uniform
// dense fast path (dense=true) and ragged sparse spans (dense=false).
std::shared_ptr<std::vector<Tuple>> ToyData(size_t n, bool dense) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    const double label = i < n / 2 ? -1.0 : 1.0;
    if (dense) {
      tuples->push_back(MakeDenseTuple(
          i, label,
          {static_cast<float>(i) * 0.01f, 1.0f - static_cast<float>(i % 7)}));
    } else {
      std::vector<uint32_t> keys{static_cast<uint32_t>(i % 5),
                                 5 + static_cast<uint32_t>(i % 3)};
      tuples->push_back(MakeSparseTuple(
          i, label, std::move(keys),
          {static_cast<float>(i % 11) * 0.1f, 0.5f}));
    }
  }
  return tuples;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t HashParams(const std::vector<double>& params) {
  return Fnv1a(params.data(), params.size() * sizeof(double), kFnvOffset);
}

uint64_t HashLosses(const std::vector<EpochLog>& epochs) {
  uint64_t h = kFnvOffset;
  for (const EpochLog& e : epochs) {
    h = Fnv1a(&e.train_loss, sizeof(e.train_loss), h);
  }
  return h;
}

// FNV-1a over an emitted tuple sequence: each tuple's id, label bits, key
// and value counts, keys and values, in emission order. Pins an order (and
// every byte it carries) exactly.
uint64_t HashOrder(const std::vector<Tuple>& tuples) {
  uint64_t h = kFnvOffset;
  for (const Tuple& t : tuples) {
    const uint64_t counts[2] = {t.feature_keys.size(), t.feature_values.size()};
    h = Fnv1a(&t.id, sizeof(t.id), h);
    h = Fnv1a(&t.label, sizeof(t.label), h);
    h = Fnv1a(counts, sizeof(counts), h);
    h = Fnv1a(t.feature_keys.data(), t.feature_keys.size() * sizeof(uint32_t),
              h);
    h = Fnv1a(t.feature_values.data(),
              t.feature_values.size() * sizeof(float), h);
  }
  return h;
}

std::string Hex(uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v << "ull";
  return os.str();
}

Schema ToySchema(bool dense) {
  return Schema{"toy", dense ? 2u : 8u, !dense, LabelType::kBinary, 2};
}

// Drains the rest of the current epoch in `batch_tuples`-row batches.
template <typename Source>
std::vector<Tuple> DrainBatched(Source* source, size_t batch_tuples) {
  std::vector<Tuple> out;
  TupleBatch batch(batch_tuples);
  while (source->NextBatch(&batch)) {
    EXPECT_LE(batch.size(), batch_tuples);
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(batch.ToTuple(i));
  }
  EXPECT_TRUE(source->status().ok());
  return out;
}

constexpr ShuffleStrategy kAllStrategies[] = {
    ShuffleStrategy::kNoShuffle,     ShuffleStrategy::kShuffleOnce,
    ShuffleStrategy::kEpochShuffle,  ShuffleStrategy::kSlidingWindow,
    ShuffleStrategy::kMrs,           ShuffleStrategy::kBlockOnly,
    ShuffleStrategy::kCorgiPile};

constexpr uint64_t kSeeds[] = {1u, 42u, 20260805u};

size_t IndexOf(ShuffleStrategy s) {
  return static_cast<size_t>(std::find(std::begin(kAllStrategies),
                                       std::end(kAllStrategies), s) -
                             std::begin(kAllStrategies));
}

size_t IndexOf(uint64_t seed) {
  return static_cast<size_t>(std::find(std::begin(kSeeds), std::end(kSeeds),
                                       seed) -
                             std::begin(kSeeds));
}

// Golden emission orders: HashOrder of each epoch's tuple sequence,
// recorded from the per-tuple Next() path. Indexed
// [strategy, kAllStrategies order][seed, kSeeds order][dense, sparse]
// [epoch 0, 1].
constexpr uint64_t kOrderGoldens[7][3][2][2] = {
    // no_shuffle
    {
      {{0x68a59a8facc6260full, 0x68a59a8facc6260full},
       {0xbf2633c3282dc751ull, 0xbf2633c3282dc751ull}},
      {{0x68a59a8facc6260full, 0x68a59a8facc6260full},
       {0xbf2633c3282dc751ull, 0xbf2633c3282dc751ull}},
      {{0x68a59a8facc6260full, 0x68a59a8facc6260full},
       {0xbf2633c3282dc751ull, 0xbf2633c3282dc751ull}},
    },
    // shuffle_once
    {
      {{0xfcb0666865821327ull, 0xfcb0666865821327ull},
       {0x3162d0fc4daa47a5ull, 0x3162d0fc4daa47a5ull}},
      {{0x40ed1ea9534a289full, 0x40ed1ea9534a289full},
       {0x80ee438b67989889ull, 0x80ee438b67989889ull}},
      {{0xf8800518f74a5643ull, 0xf8800518f74a5643ull},
       {0xd44d9fc91c183839ull, 0xd44d9fc91c183839ull}},
    },
    // epoch_shuffle
    {
      {{0x6ff1d9168710b49bull, 0xc6cdfde151dc9d47ull},
       {0x249d574ebdd4b3b5ull, 0xd03fd80fa113f3a1ull}},
      {{0x2c7ed8f502246213ull, 0x2deca1154e253c1full},
       {0x79a680f50154aa25ull, 0x4cba360a4427c029ull}},
      {{0x41962f27f117a96full, 0xfa29af349ccbe27ull},
       {0x8975833ecb79f2bdull, 0xd5390f55fc6f572dull}},
    },
    // sliding_window
    {
      {{0x8730ffa7a100067bull, 0xb23d06e698079117ull},
       {0x2947b194aea0430dull, 0x7aa3966bb0c26ba1ull}},
      {{0xb2bef93b8a14207bull, 0x6e35af75a2ba8a83ull},
       {0x4c9095794b17b701ull, 0x4483614bbab4c529ull}},
      {{0x69e67fcede4fcbebull, 0xca313b11a0cb6bcfull},
       {0xb758a9c26d2d69c1ull, 0x5842d533fff3531ull}},
    },
    // mrs
    {
      {{0xd47ee790a776026bull, 0x7cde189f2a3cce4full},
       {0xd7def6c1f67fba3cull, 0x4cbc02ecdac31c28ull}},
      {{0x20def0ea549c35d9ull, 0xfb93595b5488cef9ull},
       {0x63f99d81188ee02bull, 0x823dbfdeef4b80c1ull}},
      {{0x6c67f08fc502b405ull, 0xb885c38c5631e6e4ull},
       {0x272fb7b63099487full, 0x1465623ed5c52812ull}},
    },
    // block_only
    {
      {{0x1e2e5adceb687307ull, 0x7d3e09c186303df7ull},
       {0x8d02cd2f272937f9ull, 0xb695e75a981e740dull}},
      {{0xc7e3a341e51c957ull, 0x64e2d083c72fa49bull},
       {0xc21b0c083dfb6841ull, 0x72273ae03674cec9ull}},
      {{0x635086aafbab4e0bull, 0x60a82581e69f1c07ull},
       {0x9161ec667fc5bf49ull, 0xbc0ffcf111ab5de1ull}},
    },
    // corgipile
    {
      {{0xee57b423e12f7513ull, 0xfdf45544be13808bull},
       {0xdf69a6af3c5d4289ull, 0x392f758f0f319cc1ull}},
      {{0x37afbb21bb1653e7ull, 0x86a932914e6b30c7ull},
       {0xea26ebc99726f201ull, 0xee2b85f5288d57b1ull}},
      {{0xd7aebfb2b5c03283ull, 0x9b51b1be404d90bfull},
       {0xdc488a5df2b91a89ull, 0xe916bd1a975eecc1ull}},
    },
};

class BatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ShuffleStrategy, uint64_t>> {
};

// The concatenation of NextBatch batches reproduces the per-tuple path's
// golden emission order exactly — tuples, labels, features, everything —
// at several transport batch sizes, across epochs, for dense and sparse
// data.
TEST_P(BatchEquivalenceTest, BatchedOrderMatchesGolden) {
  const ShuffleStrategy strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  for (bool dense : {true, false}) {
    const size_t n = 500;
    auto tuples = ToyData(n, dense);
    InMemoryBlockSource src(ToySchema(dense), tuples, 37);
    ShuffleOptions opts;
    opts.buffer_fraction = 0.1;
    opts.seed = seed;
    for (size_t batch_tuples : {size_t{1}, size_t{7}, size_t{64}, n}) {
      auto stream = MakeTupleStream(strategy, &src, opts);
      ASSERT_TRUE(stream.ok());
      for (uint64_t epoch = 0; epoch < 2; ++epoch) {
        ASSERT_TRUE((*stream)->StartEpoch(epoch).ok());
        const auto got = DrainBatched(stream->get(), batch_tuples);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(HashOrder(got), kOrderGoldens[IndexOf(strategy)]
                                               [IndexOf(seed)][dense ? 0 : 1]
                                               [epoch])
            << (*stream)->name() << " batch=" << batch_tuples
            << " dense=" << dense << " epoch=" << epoch
            << " actual: " << Hex(HashOrder(got));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesThreeSeeds, BatchEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::ValuesIn(kSeeds)),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- Operator pipeline order ----------------------------------------------

// ToyData written to a heap table with small pages, so BlockShuffle sees
// many blocks and TupleShuffle several staging buffers per epoch.
std::unique_ptr<Table> ToyTable(bool dense, const std::string& path) {
  TableOptions options;
  options.page_size = 512;
  TableBuilder builder(ToySchema(dense), path, options);
  const auto tuples = ToyData(500, dense);
  for (const Tuple& t : *tuples) EXPECT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? std::move(table).ValueOrDie() : nullptr;
}

// Golden BlockShuffle → TupleShuffle emission orders, recorded from the
// per-tuple Next() path. Indexed [seed, kSeeds order][dense, sparse]
// [epoch 0, 1]; single and double buffering must both reproduce them at
// every transport batch size.
constexpr uint64_t kOperatorOrderGoldens[3][2][2] = {
    {{0x5d760b6f637e2fafull, 0xf23617d7f45afe17ull},
     {0x755511b22550d065ull, 0x71e8cf57f0229365ull}},
    {{0x450891b18c64e237ull, 0x61486431af3348c3ull},
     {0x623b672d6d109eb9ull, 0x408b3a6943baa9c1ull}},
    {{0x19ca44057c7bad1bull, 0x4da1742ddb32669bull},
     {0x35192b11b1da40f1ull, 0x2cd1072c15a9101dull}},
};

class OperatorOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorOrderTest, MatchesGolden) {
  const uint64_t seed = GetParam();
  for (bool dense : {true, false}) {
    auto table = ToyTable(dense, testing::TempDir() + "batch_equiv_order_" +
                                     std::to_string(seed) + ".tbl");
    ASSERT_NE(table, nullptr);
    for (auto [double_buffer, batch_tuples] :
         {std::pair{false, size_t{1}}, std::pair{false, size_t{7}},
          std::pair{false, size_t{64}}, std::pair{false, size_t{500}},
          std::pair{true, size_t{1}}, std::pair{true, size_t{7}},
          std::pair{true, size_t{64}}, std::pair{true, size_t{500}}}) {
      BlockShuffleOp::Options bopts;
      bopts.block_size_bytes = 2 * 512;
      bopts.seed = seed;
      BlockShuffleOp block_op(table.get(), bopts);
      TupleShuffleOp::Options topts;
      topts.buffer_tuples = 50;
      topts.double_buffer = double_buffer;
      topts.seed = seed;
      TupleShuffleOp op(&block_op, topts);
      ASSERT_TRUE(op.Init().ok());
      for (uint64_t epoch = 0; epoch < 2; ++epoch) {
        if (epoch > 0) {
          ASSERT_TRUE(op.ReScan().ok());
        }
        const std::vector<Tuple> got = DrainBatched(&op, batch_tuples);
        EXPECT_EQ(got.size(), 500u);
        EXPECT_EQ(HashOrder(got),
                  kOperatorOrderGoldens[IndexOf(seed)][dense ? 0 : 1][epoch])
            << "dense=" << dense << " epoch=" << epoch
            << " dbuf=" << double_buffer << " batch=" << batch_tuples
            << " actual: " << Hex(HashOrder(got));
      }
      op.Close();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreeSeeds, OperatorOrderTest,
                         ::testing::ValuesIn(kSeeds),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Training bit-identity -----------------------------------------------

Result<TrainResult> TrainToy(ShuffleStrategy strategy, uint64_t seed,
                             uint32_t exec_batch_tuples, uint32_t batch_size,
                             OptimizerKind optimizer, BlockSource* src) {
  ShuffleOptions sopts;
  sopts.buffer_fraction = 0.1;
  sopts.seed = seed;
  auto stream = MakeTupleStream(strategy, src, sopts);
  if (!stream.ok()) return stream.status();
  LogisticRegression model(2, /*l2_reg=*/1e-4);
  TrainerOptions topts;
  topts.epochs = 3;
  topts.lr.initial = 0.05;
  topts.batch_size = batch_size;
  topts.optimizer = optimizer;
  topts.exec_batch_tuples = exec_batch_tuples;
  CORGI_ASSIGN_OR_RETURN(TrainResult result,
                         Train(&model, stream->get(), topts));
  return result;
}

// Training goldens, recorded from the per-tuple Next() path: HashLosses
// of the epoch losses and HashParams of the final parameters.
constexpr std::pair<ShuffleStrategy, uint64_t> kToyLossGoldens[] = {
    {ShuffleStrategy::kCorgiPile, 0x862fb330d01d55cull},
    {ShuffleStrategy::kSlidingWindow, 0x4953f581cb260a2aull},
};
constexpr uint64_t kAdamLossGolden = 0x8d49cc17d2e92fa9ull;
constexpr uint64_t kSparseParamsGolden = 0x599a4e63d2064f5eull;
constexpr uint64_t kPipelineLossGolden = 0xe2e6c429dad60f88ull;
constexpr uint64_t kPipelineParamsGolden = 0xa21d79cc4ee0c3e9ull;

// QuarantineCountsMatch's golden: losses plus the quarantine accounting,
// in total and per epoch.
constexpr uint64_t kQuarantineLossGolden = 0x16d17ab412c69907ull;
constexpr uint64_t kQuarantinedBlocksGolden[3] = {1, 1, 1};
constexpr uint64_t kSkippedTuplesGolden[3] = {84, 84, 84};

// Epoch losses are compared bit-for-bit (a hash of the loss bits, not
// NEAR): the transport batch size must not change a single floating-point
// op.
TEST(TrainBatchEquivalenceTest, EpochLossesBitIdenticalAcrossBatchSizes) {
  auto tuples = ToyData(700, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 41);
  for (const auto& [strategy, loss_golden] : kToyLossGoldens) {
    for (uint32_t exec : {1u, 7u, 256u}) {
      auto batched = TrainToy(strategy, 42, exec, /*batch=*/1,
                              OptimizerKind::kSgd, &src);
      ASSERT_TRUE(batched.ok());
      ASSERT_EQ(batched->epochs.size(), 3u);
      EXPECT_EQ(HashLosses(batched->epochs), loss_golden)
          << ShuffleStrategyToString(strategy) << " exec=" << exec
          << " actual: " << Hex(HashLosses(batched->epochs));
      for (const EpochLog& e : batched->epochs) {
        EXPECT_EQ(e.tuples_seen, 700u);
      }
    }
  }
}

// The mini-batch optimizer path: flush cadence must survive re-chunking
// across transport batch boundaries (incl. batch_size not dividing the
// transport size).
TEST(TrainBatchEquivalenceTest, MiniBatchAdamBitIdentical) {
  auto tuples = ToyData(500, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 41);
  for (uint32_t exec : {24u, 256u}) {
    auto batched = TrainToy(ShuffleStrategy::kCorgiPile, 7, exec,
                            /*batch=*/32, OptimizerKind::kAdam, &src);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(HashLosses(batched->epochs), kAdamLossGolden)
        << "exec=" << exec << " actual: " << Hex(HashLosses(batched->epochs));
  }
}

// Final model parameters must also be bit-identical, and sparse data must
// go through the sparse arena spans.
TEST(TrainBatchEquivalenceTest, FinalParamsBitIdenticalSparse) {
  auto tuples = ToyData(400, /*dense=*/false);
  InMemoryBlockSource src(ToySchema(false), tuples, 29);
  for (uint32_t exec : {1u, 64u}) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.seed = 13;
    auto stream = MakeTupleStream(ShuffleStrategy::kCorgiPile, &src, sopts);
    ASSERT_TRUE(stream.ok());
    LogisticRegression model(8, /*l2_reg=*/1e-3);
    TrainerOptions topts;
    topts.epochs = 3;
    topts.lr.initial = 0.05;
    topts.exec_batch_tuples = exec;
    ASSERT_TRUE(Train(&model, stream->get(), topts).ok());
    EXPECT_EQ(HashParams(model.params()), kSparseParamsGolden)
        << "exec=" << exec << " actual: " << Hex(HashParams(model.params()));
  }
}

// Quarantine accounting: the batched path must count the same quarantined
// blocks and skipped tuples — and produce the same losses on the surviving
// data — as the per-tuple path did.
TEST(TrainBatchEquivalenceTest, QuarantineCountsMatch) {
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(
      ds, testing::TempDir() + "batch_equiv_quarantine.tbl", 2048);
  ASSERT_TRUE(table.ok());
  FaultConfig cfg;
  cfg.seed = 1234;
  cfg.bit_flip_rate = 0.01;
  FaultInjector inj(cfg);
  (*table)->SetFaultInjection(&inj);
  TableBlockSource source(table->get(), 4 * 2048);

  ShuffleOptions sopts;
  sopts.buffer_fraction = 0.1;
  sopts.tolerance.quarantine_corrupt_blocks = true;
  sopts.tolerance.max_bad_block_fraction = 0.10;
  auto stream = MakeTupleStream(ShuffleStrategy::kCorgiPile, &source, sopts);
  ASSERT_TRUE(stream.ok());
  LogisticRegression model(ds.spec.dim);
  TrainerOptions topts;
  topts.epochs = 3;
  topts.lr.initial = 0.005;
  topts.exec_batch_tuples = 128;
  auto batched = Train(&model, stream->get(), topts);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->epochs.size(), 3u);
  EXPECT_EQ(HashLosses(batched->epochs), kQuarantineLossGolden)
      << "actual: " << Hex(HashLosses(batched->epochs));
  uint64_t golden_blocks = 0;
  uint64_t golden_skipped = 0;
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(batched->epochs[e].quarantined_blocks,
              kQuarantinedBlocksGolden[e])
        << "epoch=" << e;
    EXPECT_EQ(batched->epochs[e].skipped_tuples, kSkippedTuplesGolden[e])
        << "epoch=" << e;
    golden_blocks += kQuarantinedBlocksGolden[e];
    golden_skipped += kSkippedTuplesGolden[e];
  }
  EXPECT_EQ(batched->total_quarantined_blocks, golden_blocks);
  EXPECT_EQ(batched->total_skipped_tuples, golden_skipped);
}

// A transport batch of 0 rows is not a transport: both epoch-loop drivers
// reject it before training.
TEST(TrainBatchEquivalenceTest, ZeroExecBatchRejected) {
  auto tuples = ToyData(100, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 10);
  auto result = TrainToy(ShuffleStrategy::kCorgiPile, 42, /*exec=*/0,
                         /*batch=*/1, OptimizerKind::kSgd, &src);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The db operator pipeline (BlockShuffle → TupleShuffle → SgdOp): batched
// transport through the operators reproduces the per-tuple pulls' golden
// losses and parameters, including through the index-permutation staging
// shuffle.
TEST(SgdOpBatchEquivalenceTest, PipelineBitIdentical) {
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(
      ds, testing::TempDir() + "batch_equiv_sgdop.tbl", 2048);
  ASSERT_TRUE(table.ok());

  for (uint32_t exec : {1u, 64u}) {
    for (bool dbuf : {false, true}) {
      BlockShuffleOp::Options bopts;
      bopts.block_size_bytes = 8 * 2048;
      BlockShuffleOp block_op(table->get(), bopts);
      TupleShuffleOp::Options topts;
      topts.buffer_tuples = ds.train->size() / 10;
      topts.double_buffer = dbuf;
      TupleShuffleOp tuple_op(&block_op, topts);
      LogisticRegression model(ds.spec.dim);
      SgdOp::Options sopts;
      sopts.max_epochs = 4;
      sopts.lr.initial = 0.005;
      sopts.exec_batch_tuples = exec;
      SgdOp sgd(&model, &tuple_op, sopts);
      ASSERT_TRUE(sgd.Init().ok());
      auto logs = sgd.RunToCompletion();
      ASSERT_TRUE(logs.ok());
      sgd.Close();
      ASSERT_EQ(logs->size(), 4u);
      EXPECT_EQ(HashLosses(*logs), kPipelineLossGolden)
          << "exec=" << exec << " dbuf=" << dbuf
          << " actual: " << Hex(HashLosses(*logs));
      EXPECT_EQ(HashParams(model.params()), kPipelineParamsGolden)
          << "exec=" << exec << " dbuf=" << dbuf
          << " actual: " << Hex(HashParams(model.params()));
      for (const EpochLog& e : *logs) {
        EXPECT_EQ(e.tuples_seen, ds.train->size());
      }
    }
  }
}

TEST(SgdOpBatchEquivalenceTest, ZeroExecBatchRejected) {
  auto table =
      ToyTable(/*dense=*/true, testing::TempDir() + "batch_equiv_zero.tbl");
  ASSERT_NE(table, nullptr);
  BlockShuffleOp block_op(table.get(), BlockShuffleOp::Options());
  LogisticRegression model(2);
  SgdOp::Options sopts;
  sopts.exec_batch_tuples = 0;
  SgdOp sgd(&model, &block_op, sopts);
  const Status st = sgd.Init();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// --- One oracle per model ------------------------------------------------
//
// Every model (lr, svm, linreg, softmax, mlp) × {dense, sparse} ×
// {plain SGD, mini-batch Adam}: the batched pipeline, at transport sizes
// 1, 7 and 256, must reproduce the golden bit patterns the per-tuple
// reference path recorded. The golden hashes are also what catch a change
// to a model's math.

constexpr uint32_t kOracleClasses = 3;
constexpr uint32_t kOracleDenseDim = 4;
constexpr uint32_t kOracleSparseDim = 12;

bool Multiclass(const std::string& model) {
  return model == "softmax" || model == "mlp";
}

std::unique_ptr<Model> MakeOracleModel(const std::string& name,
                                       uint32_t dim) {
  if (name == "lr") return std::make_unique<LogisticRegression>(dim, 1e-4);
  if (name == "svm") return std::make_unique<SvmModel>(dim, 1e-4);
  if (name == "linreg") {
    return std::make_unique<LinearRegressionModel>(dim, 1e-4);
  }
  if (name == "softmax") {
    return std::make_unique<SoftmaxRegression>(dim, kOracleClasses);
  }
  return std::make_unique<MlpModel>(dim, /*hidden_dim=*/5, kOracleClasses);
}

// Labels depend on the features so every model has something to learn:
// ±1 for the binary/regression models, class ids 0..2 for the multiclass
// ones. Sparse rows carry 1–3 nonzeros so spans are ragged.
std::shared_ptr<std::vector<Tuple>> OracleData(size_t n, bool dense,
                                               bool multiclass) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t cls = static_cast<uint32_t>((i * 7) % kOracleClasses);
    const double label =
        multiclass ? static_cast<double>(cls) : (cls == 0 ? 1.0 : -1.0);
    const float base = static_cast<float>(cls) - 1.0f;
    const float jitter = static_cast<float>(i % 13) * 0.05f;
    if (dense) {
      tuples->push_back(MakeDenseTuple(
          i, label, {base + jitter, 0.5f - jitter, base * 0.25f, 1.0f}));
    } else {
      std::vector<uint32_t> keys{cls * 4};
      std::vector<float> values{1.0f + jitter};
      for (uint32_t j = 1; j <= i % 3; ++j) {
        keys.push_back(cls * 4 + j);
        values.push_back(base * 0.5f + static_cast<float>(j) * 0.1f);
      }
      tuples->push_back(
          MakeSparseTuple(i, label, std::move(keys), std::move(values)));
    }
  }
  return tuples;
}

struct OracleCase {
  const char* model;
  bool dense;
  bool adam;
  uint64_t params_hash;
  uint64_t loss_hash;
};

std::string CaseName(const OracleCase& c) {
  return std::string(c.model) + (c.dense ? "_dense" : "_sparse") +
         (c.adam ? "_adam" : "_sgd");
}

void PrintTo(const OracleCase& c, std::ostream* os) { *os << CaseName(c); }

// Golden bit patterns: FNV-1a over the final parameter bytes and over the
// epoch-loss bits, recorded from the per-tuple reference path.
constexpr OracleCase kOracleCases[] = {
    {"lr", true, false, 0xe0331870a7c38349ull, 0xb2f214996319d408ull},
    {"lr", true, true, 0x55746e88d5ee1f2dull, 0xc2501b93b739b8d6ull},
    {"lr", false, false, 0xd671cf1c413d1677ull, 0x35fc3e16515c7599ull},
    {"lr", false, true, 0x88307f957279e8d5ull, 0x3aad1d3ad644ac30ull},
    {"svm", true, false, 0x8919d2396aa668b3ull, 0x594d4507426434f1ull},
    {"svm", true, true, 0x7284e03bd10cdb6cull, 0x6a8c360b5da30515ull},
    {"svm", false, false, 0x4c457352f7ee10d2ull, 0xa23ec52058468dabull},
    {"svm", false, true, 0x7679900f018136e8ull, 0x03a0ff288c8b6170ull},
    {"linreg", true, false, 0xcf35fbb28bd24186ull, 0x8dec4d4895444b18ull},
    {"linreg", true, true, 0x7b0c40e85689db83ull, 0x9d3921db5d070d10ull},
    {"linreg", false, false, 0x756f306718cfc324ull, 0x770c58065fc8b73bull},
    {"linreg", false, true, 0x1be2ea3a84f4efa8ull, 0x29e121e7846b6fbcull},
    {"softmax", true, false, 0xbc5c58c117a52990ull, 0x067123e6b1599ce7ull},
    {"softmax", true, true, 0x4092af435270d4cfull, 0x1ecaf8b969f91240ull},
    {"softmax", false, false, 0xd36ef8ed1d6ecae6ull, 0xbdc0726adf024396ull},
    {"softmax", false, true, 0x6eab0adcbcb18ac2ull, 0x103755dafedc8e6aull},
    {"mlp", true, false, 0xff15a9260a1766cfull, 0x82a4de7b0ea77630ull},
    {"mlp", true, true, 0xab863df3aed8fdf3ull, 0x62a647d2aaa2d610ull},
    {"mlp", false, false, 0x4fb86869253bb31full, 0x527a5ca2b4d46dd6ull},
    {"mlp", false, true, 0xcd7a5f383ed9d96full, 0xa406a21ee874a48aull},
};

class ModelOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ModelOracleTest, BatchedMatchesGolden) {
  const OracleCase& c = GetParam();
  const uint32_t dim = c.dense ? kOracleDenseDim : kOracleSparseDim;
  auto tuples = OracleData(600, c.dense, Multiclass(c.model));
  InMemoryBlockSource src(
      Schema{"oracle", dim, !c.dense,
             Multiclass(c.model) ? LabelType::kMulticlass : LabelType::kBinary,
             Multiclass(c.model) ? kOracleClasses : 2},
      tuples, 37);

  auto run = [&](uint32_t exec, std::vector<double>* params) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.seed = 11;
    auto stream = MakeTupleStream(ShuffleStrategy::kCorgiPile, &src, sopts);
    EXPECT_TRUE(stream.ok());
    auto model = MakeOracleModel(c.model, dim);
    TrainerOptions topts;
    topts.epochs = 3;
    topts.lr.initial = 0.05;
    topts.init_seed = 5;
    topts.exec_batch_tuples = exec;
    if (c.adam) {
      topts.batch_size = 32;
      topts.optimizer = OptimizerKind::kAdam;
    }
    auto result = Train(model.get(), stream->get(), topts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *params = model->params();
    return result.ok() ? *result : TrainResult{};
  };

  for (uint32_t exec : {1u, 7u, 256u}) {
    std::vector<double> params;
    const TrainResult got = run(exec, &params);
    ASSERT_EQ(got.epochs.size(), 3u);
    for (const EpochLog& e : got.epochs) EXPECT_EQ(e.tuples_seen, 600u);
    std::ostringstream actual;
    actual << "exec=" << exec << " actual: " << Hex(HashParams(params))
           << ", " << Hex(HashLosses(got.epochs));
    EXPECT_EQ(HashParams(params), c.params_hash) << actual.str();
    EXPECT_EQ(HashLosses(got.epochs), c.loss_hash) << actual.str();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelOracleTest,
                         ::testing::ValuesIn(kOracleCases),
                         [](const auto& info) { return CaseName(info.param); });

// The batch entry points agree with the per-row virtuals they loop over:
// BatchEvaluate with Predict/Loss/Correct, BatchLoss and
// BatchAccumulateGrad with the per-row sums in row order, and
// BatchGradientStep with a sequence of SgdStep calls.
class ModelBatchEntryTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ModelBatchEntryTest, BatchEntriesMatchPerRow) {
  const std::string name = std::get<0>(GetParam());
  const bool dense = std::get<1>(GetParam());
  const uint32_t dim = dense ? kOracleDenseDim : kOracleSparseDim;
  auto tuples = OracleData(97, dense, Multiclass(name));
  auto model = MakeOracleModel(name, dim);
  model->InitParams(3);
  // Move off the initial point so margins, probabilities and ReLU gates
  // are not degenerate.
  for (const Tuple& t : *tuples) model->SgdStep(t, 0.05);

  TupleBatch batch(tuples->size());
  for (const Tuple& t : *tuples) batch.Append(t);
  ASSERT_EQ(batch.size(), tuples->size());

  std::vector<double> predictions(batch.size()), losses(batch.size());
  std::vector<uint8_t> corrects(batch.size());
  model->BatchEvaluate(batch, predictions.data(), losses.data(),
                       corrects.data());
  double want_loss_sum = 0.0;
  std::vector<double> want_grad(model->num_params(), 0.0);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = (*tuples)[i];
    EXPECT_EQ(predictions[i], model->Predict(t)) << "row " << i;
    EXPECT_EQ(losses[i], model->Loss(t)) << "row " << i;
    EXPECT_EQ(corrects[i], model->Correct(t) ? 1 : 0) << "row " << i;
    want_loss_sum += model->AccumulateGrad(t, &want_grad);
  }

  double loss_sum = 0.0;
  model->BatchLoss(batch, &loss_sum);
  EXPECT_EQ(loss_sum, want_loss_sum);

  std::vector<double> grad(model->num_params(), 0.0);
  double grad_loss_sum = 0.0;
  model->BatchAccumulateGrad(batch, 0, 40, &grad, &grad_loss_sum);
  model->BatchAccumulateGrad(batch, 40, batch.size(), &grad, &grad_loss_sum);
  EXPECT_EQ(grad_loss_sum, want_loss_sum);
  EXPECT_EQ(grad, want_grad);

  auto stepped = model->Clone();
  double step_loss_sum = 0.0;
  stepped->BatchGradientStep(batch, 0.05, &step_loss_sum);
  double want_step_loss_sum = 0.0;
  for (const Tuple& t : *tuples) want_step_loss_sum += model->SgdStep(t, 0.05);
  EXPECT_EQ(step_loss_sum, want_step_loss_sum);
  EXPECT_EQ(stepped->params(), model->params());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelBatchEntryTest,
    ::testing::Combine(::testing::Values("lr", "svm", "linreg", "softmax",
                                         "mlp"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_dense" : "_sparse");
    });

}  // namespace
}  // namespace corgipile
