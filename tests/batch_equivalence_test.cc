// Golden equivalence suite for the batched execution pipeline (DESIGN.md
// §9): the batched transport (NextBatch / Batch* kernels) must emit the
// same tuples in the same order, and produce bit-identical training
// results, as the per-tuple reference path — for every shuffle strategy,
// seed, and transport batch size.

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

Schema ToySchema(bool dense) {
  return Schema{"toy", dense ? 2u : 8u, !dense, LabelType::kBinary, 2};
}

std::vector<Tuple> DrainPerTuple(TupleStream* stream, uint64_t epoch) {
  EXPECT_TRUE(stream->StartEpoch(epoch).ok());
  std::vector<Tuple> out;
  while (const Tuple* t = stream->Next()) out.push_back(*t);
  EXPECT_TRUE(stream->status().ok());
  return out;
}

std::vector<Tuple> DrainBatched(TupleStream* stream, uint64_t epoch,
                                size_t batch_tuples) {
  EXPECT_TRUE(stream->StartEpoch(epoch).ok());
  std::vector<Tuple> out;
  TupleBatch batch(batch_tuples);
  while (stream->NextBatch(&batch)) {
    EXPECT_LE(batch.size(), batch_tuples);
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(batch.ToTuple(i));
  }
  EXPECT_TRUE(stream->status().ok());
  return out;
}

constexpr ShuffleStrategy kAllStrategies[] = {
    ShuffleStrategy::kNoShuffle,     ShuffleStrategy::kShuffleOnce,
    ShuffleStrategy::kEpochShuffle,  ShuffleStrategy::kSlidingWindow,
    ShuffleStrategy::kMrs,           ShuffleStrategy::kBlockOnly,
    ShuffleStrategy::kCorgiPile};

class BatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ShuffleStrategy, uint64_t>> {
};

// The concatenation of NextBatch batches equals the Next() emission order
// exactly — tuples, labels, features, everything — at several transport
// batch sizes, across epochs, for dense and sparse data.
TEST_P(BatchEquivalenceTest, BatchedOrderMatchesPerTuple) {
  const ShuffleStrategy strategy = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  for (bool dense : {true, false}) {
    const size_t n = 500;
    auto tuples = ToyData(n, dense);
    InMemoryBlockSource src(ToySchema(dense), tuples, 37);
    ShuffleOptions opts;
    opts.buffer_fraction = 0.1;
    opts.seed = seed;

    // Separate stream instances: the two transports must not interleave on
    // one stream within an epoch. Same (strategy, seed) → same sequence.
    auto ref = MakeTupleStream(strategy, &src, opts);
    ASSERT_TRUE(ref.ok());
    std::vector<std::vector<Tuple>> expected;
    for (uint64_t epoch = 0; epoch < 2; ++epoch) {
      expected.push_back(DrainPerTuple(ref->get(), epoch));
      ASSERT_FALSE(expected.back().empty());
    }

    for (size_t batch_tuples : {size_t{1}, size_t{7}, size_t{64}, n}) {
      auto stream = MakeTupleStream(strategy, &src, opts);
      ASSERT_TRUE(stream.ok());
      for (uint64_t epoch = 0; epoch < 2; ++epoch) {
        const auto got = DrainBatched(stream->get(), epoch, batch_tuples);
        ASSERT_EQ(got.size(), expected[epoch].size())
            << (*stream)->name() << " batch=" << batch_tuples
            << " dense=" << dense;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[epoch][i])
              << (*stream)->name() << " batch=" << batch_tuples
              << " dense=" << dense << " pos=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesThreeSeeds, BatchEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::Values(1u, 42u, 20260805u)),
    [](const auto& info) {
      return std::string(ShuffleStrategyToString(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
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

// Epoch losses are compared bit-for-bit (EXPECT_EQ on doubles, not NEAR):
// the transport batch size must not change a single floating-point op.
TEST(TrainBatchEquivalenceTest, EpochLossesBitIdenticalAcrossBatchSizes) {
  auto tuples = ToyData(700, /*dense=*/true);
  InMemoryBlockSource src(ToySchema(true), tuples, 41);
  for (ShuffleStrategy strategy :
       {ShuffleStrategy::kCorgiPile, ShuffleStrategy::kSlidingWindow}) {
    auto legacy = TrainToy(strategy, 42, /*exec=*/0, /*batch=*/1,
                           OptimizerKind::kSgd, &src);
    ASSERT_TRUE(legacy.ok());
    for (uint32_t exec : {1u, 7u, 256u}) {
      auto batched = TrainToy(strategy, 42, exec, /*batch=*/1,
                              OptimizerKind::kSgd, &src);
      ASSERT_TRUE(batched.ok());
      ASSERT_EQ(batched->epochs.size(), legacy->epochs.size());
      for (size_t e = 0; e < legacy->epochs.size(); ++e) {
        EXPECT_EQ(batched->epochs[e].train_loss, legacy->epochs[e].train_loss)
            << ShuffleStrategyToString(strategy) << " exec=" << exec
            << " epoch=" << e;
        EXPECT_EQ(batched->epochs[e].tuples_seen,
                  legacy->epochs[e].tuples_seen);
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
  auto legacy = TrainToy(ShuffleStrategy::kCorgiPile, 7, /*exec=*/0,
                         /*batch=*/32, OptimizerKind::kAdam, &src);
  ASSERT_TRUE(legacy.ok());
  for (uint32_t exec : {24u, 256u}) {
    auto batched = TrainToy(ShuffleStrategy::kCorgiPile, 7, exec,
                            /*batch=*/32, OptimizerKind::kAdam, &src);
    ASSERT_TRUE(batched.ok());
    for (size_t e = 0; e < legacy->epochs.size(); ++e) {
      EXPECT_EQ(batched->epochs[e].train_loss, legacy->epochs[e].train_loss)
          << "exec=" << exec << " epoch=" << e;
    }
  }
}

// Final model parameters must also be bit-identical, and sparse data must
// go through the sparse arena spans.
TEST(TrainBatchEquivalenceTest, FinalParamsBitIdenticalSparse) {
  auto tuples = ToyData(400, /*dense=*/false);
  InMemoryBlockSource src(ToySchema(false), tuples, 29);
  std::vector<std::vector<double>> params;
  for (uint32_t exec : {0u, 1u, 64u}) {
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
    params.push_back(model.params());
  }
  EXPECT_EQ(params[1], params[0]);
  EXPECT_EQ(params[2], params[0]);
}

// Quarantine accounting: the batched path must count the same quarantined
// blocks and skipped tuples — and produce the same losses on the surviving
// data — as the per-tuple path.
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

  auto run = [&](uint32_t exec) -> Result<TrainResult> {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.tolerance.quarantine_corrupt_blocks = true;
    sopts.tolerance.max_bad_block_fraction = 0.10;
    auto stream =
        MakeTupleStream(ShuffleStrategy::kCorgiPile, &source, sopts);
    if (!stream.ok()) return stream.status();
    LogisticRegression model(ds.spec.dim);
    TrainerOptions topts;
    topts.epochs = 3;
    topts.lr.initial = 0.005;
    topts.exec_batch_tuples = exec;
    return Train(&model, stream->get(), topts);
  };

  auto legacy = run(0);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_GE(legacy->total_quarantined_blocks, 1u);
  auto batched = run(128);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched->total_quarantined_blocks,
            legacy->total_quarantined_blocks);
  EXPECT_EQ(batched->total_skipped_tuples, legacy->total_skipped_tuples);
  ASSERT_EQ(batched->epochs.size(), legacy->epochs.size());
  for (size_t e = 0; e < legacy->epochs.size(); ++e) {
    EXPECT_EQ(batched->epochs[e].quarantined_blocks,
              legacy->epochs[e].quarantined_blocks);
    EXPECT_EQ(batched->epochs[e].skipped_tuples,
              legacy->epochs[e].skipped_tuples);
    EXPECT_EQ(batched->epochs[e].train_loss, legacy->epochs[e].train_loss);
  }
}

// The db operator pipeline (BlockShuffle → TupleShuffle → SgdOp): batched
// transport through the operators is bit-identical to per-tuple pulls,
// including through the index-permutation staging shuffle.
TEST(SgdOpBatchEquivalenceTest, PipelineBitIdentical) {
  auto spec = CatalogLookup("susy", 0.05);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(
      ds, testing::TempDir() + "batch_equiv_sgdop.tbl", 2048);
  ASSERT_TRUE(table.ok());

  auto run = [&](uint32_t exec, bool double_buffer,
                 std::vector<double>* params_out) {
    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 8 * 2048;
    BlockShuffleOp block_op(table->get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = ds.train->size() / 10;
    topts.double_buffer = double_buffer;
    TupleShuffleOp tuple_op(&block_op, topts);
    LogisticRegression model(ds.spec.dim);
    SgdOp::Options sopts;
    sopts.max_epochs = 4;
    sopts.lr.initial = 0.005;
    sopts.exec_batch_tuples = exec;
    SgdOp sgd(&model, &tuple_op, sopts);
    EXPECT_TRUE(sgd.Init().ok());
    auto logs = sgd.RunToCompletion();
    EXPECT_TRUE(logs.ok());
    sgd.Close();
    *params_out = model.params();
    return logs.ok() ? *logs : std::vector<EpochLog>{};
  };

  std::vector<double> legacy_params;
  const auto legacy = run(0, /*double_buffer=*/false, &legacy_params);
  ASSERT_EQ(legacy.size(), 4u);
  for (uint32_t exec : {1u, 64u}) {
    for (bool dbuf : {false, true}) {
      std::vector<double> params;
      const auto got = run(exec, dbuf, &params);
      ASSERT_EQ(got.size(), legacy.size());
      for (size_t e = 0; e < legacy.size(); ++e) {
        EXPECT_EQ(got[e].train_loss, legacy[e].train_loss)
            << "exec=" << exec << " dbuf=" << dbuf << " epoch=" << e;
        EXPECT_EQ(got[e].tuples_seen, legacy[e].tuples_seen);
      }
      EXPECT_EQ(params, legacy_params) << "exec=" << exec << " dbuf=" << dbuf;
    }
  }
}

// --- One oracle per model ------------------------------------------------
//
// Every model (lr, svm, linreg, softmax, mlp) × {dense, sparse} ×
// {plain SGD, mini-batch Adam}: the per-tuple reference (exec=0) and the
// batched pipeline (exec 1, 7, 256) must agree bit for bit, and both must
// reproduce golden bit patterns. The golden hashes are what catch a change
// to a model's math: the two paths share each model's kernel, so a change
// there moves both sides of the equivalence check together.

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

uint64_t HashLosses(const TrainResult& r) {
  uint64_t h = kFnvOffset;
  for (const EpochLog& e : r.epochs) {
    h = Fnv1a(&e.train_loss, sizeof(e.train_loss), h);
  }
  return h;
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

TEST_P(ModelOracleTest, BatchedMatchesPerTupleAndGolden) {
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

  std::vector<double> legacy_params;
  const TrainResult legacy = run(0, &legacy_params);
  ASSERT_EQ(legacy.epochs.size(), 3u);
  for (uint32_t exec : {1u, 7u, 256u}) {
    std::vector<double> params;
    const TrainResult got = run(exec, &params);
    ASSERT_EQ(got.epochs.size(), legacy.epochs.size());
    for (size_t e = 0; e < legacy.epochs.size(); ++e) {
      EXPECT_EQ(got.epochs[e].train_loss, legacy.epochs[e].train_loss)
          << "exec=" << exec << " epoch=" << e;
      EXPECT_EQ(got.epochs[e].tuples_seen, legacy.epochs[e].tuples_seen);
    }
    EXPECT_EQ(params, legacy_params) << "exec=" << exec;
  }

  std::ostringstream actual;
  actual << std::hex << "actual: 0x" << HashParams(legacy_params)
         << "ull, 0x" << HashLosses(legacy) << "ull";
  EXPECT_EQ(HashParams(legacy_params), c.params_hash) << actual.str();
  EXPECT_EQ(HashLosses(legacy), c.loss_hash) << actual.str();
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
