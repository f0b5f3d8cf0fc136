// Cross-module integration tests: offline table shuffling, Volcano
// pipelines under error and mini-batch regimes, database parameter plumbing,
// epoch-shuffle I/O billing, theory end-to-end, and UDA convergence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "core/theory.h"
#include "dataloader/dataset_api.h"
#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "db/uda_baseline.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "shuffle/full_shuffle.h"
#include "shuffle/hierarchical.h"
#include "storage/table_shuffle.h"

#include "drain_util.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(TableShuffleTest, CopyIsPermutationOfSource) {
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table =
      MaterializeTrainTable(ds, testing::TempDir() + "ts_src.tbl").ValueOrDie();
  SimClock clock;
  IoStats io;
  table->SetIoAccounting(DeviceProfile::Ssd(), &clock, &io);
  auto copy = BuildShuffledCopy(table.get(), testing::TempDir() + "ts_copy.tbl",
                                7, DeviceProfile::Ssd(), &clock, &io);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->table->num_tuples(), table->num_tuples());
  EXPECT_GT(copy->sim_seconds, 0.0);
  EXPECT_EQ(copy->extra_disk_bytes, copy->table->size_bytes());
  EXPECT_GT(io.bytes_written, 0u);

  std::multiset<uint64_t> src_ids, copy_ids;
  std::vector<uint64_t> copy_order;
  CORGI_CHECK_OK(table->Scan([&](const Tuple& t) {
    src_ids.insert(t.id);
    return Status::OK();
  }));
  CORGI_CHECK_OK(copy->table->Scan([&](const Tuple& t) {
    copy_ids.insert(t.id);
    copy_order.push_back(t.id);
    return Status::OK();
  }));
  EXPECT_EQ(src_ids, copy_ids);
  EXPECT_FALSE(std::is_sorted(copy_order.begin(), copy_order.end()));
}

TEST(TableShuffleTest, PreservesCompressionOption) {
  auto spec = CatalogLookup("yfcc", 0.005).ValueOrDie();
  ASSERT_TRUE(spec.compress_in_db);
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table =
      MaterializeTrainTable(ds, testing::TempDir() + "tsc_src.tbl").ValueOrDie();
  auto copy = BuildShuffledCopy(table.get(),
                                testing::TempDir() + "tsc_copy.tbl", 7,
                                DeviceProfile::Memory(), nullptr, nullptr);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->table->options().compress_tuples);
  // Compressed footprints should be comparable (same tuples).
  EXPECT_NEAR(static_cast<double>(copy->table->size_bytes()),
              static_cast<double>(table->size_bytes()),
              0.2 * table->size_bytes());
}

TEST(TableShuffleTest, NullSourceRejected) {
  EXPECT_TRUE(BuildShuffledCopy(nullptr, "/tmp/x", 1, DeviceProfile::Memory(),
                                nullptr, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(TableShuffleTest, InPlaceShufflePermutesWithoutExtraDisk) {
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "inplace.tbl";
  auto table = MaterializeTrainTable(ds, path).ValueOrDie();
  const uint64_t bytes_before = table->size_bytes();
  SimClock clock;
  IoStats io;
  table->SetIoAccounting(DeviceProfile::Hdd(), &clock, &io);

  auto shuffled = ShuffleTableInPlace(std::move(table), 9,
                                      DeviceProfile::Hdd(), &clock, &io);
  ASSERT_TRUE(shuffled.ok());
  EXPECT_EQ(shuffled->table->file()->path(), path);  // same file, no copy
  EXPECT_EQ(shuffled->table->num_tuples(), ds.train->size());
  EXPECT_NEAR(static_cast<double>(shuffled->table->size_bytes()),
              static_cast<double>(bytes_before), 0.05 * bytes_before);
  EXPECT_GT(shuffled->sim_seconds, 0.0);

  std::multiset<uint64_t> ids;
  std::vector<uint64_t> order;
  CORGI_CHECK_OK(shuffled->table->Scan([&](const Tuple& t) {
    ids.insert(t.id);
    order.push_back(t.id);
    return Status::OK();
  }));
  EXPECT_EQ(ids.size(), ds.train->size());
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  std::remove(path.c_str());
}

TEST(DatabaseParamsTest, ShuffleOnceInPlaceStrategy) {
  const std::string dir = MakeTempDir("db_inplace");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.1).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "svm";
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=6, block_size=16KB, "
                    "strategy=shuffle_once_inplace")
                    .ValueOrDie();
  auto r = db.Train(stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->prep_seconds, 0.0);
  EXPECT_EQ(r->extra_disk_bytes, 0u);  // the point of in-place
  EXPECT_GT(r->final_metric, 0.72);    // converges like shuffle_once
  // The base table is now physically shuffled; even a no_shuffle scan
  // converges (the destructive side effect the paper warns about).
  stmt.params =
      Params::Parse("learning_rate=0.005, max_epoch_num=6, "
                    "block_size=16KB, strategy=no_shuffle")
          .ValueOrDie();
  auto r2 = db.Train(stmt);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->final_metric, 0.72);
}

TEST(EpochShuffleTableTest, BillsRandomReadsEveryEpoch) {
  auto spec = CatalogLookup("susy", 0.01).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table =
      MaterializeTrainTable(ds, testing::TempDir() + "es_tbl.tbl").ValueOrDie();
  SimClock clock;
  IoStats io;
  table->SetIoAccounting(DeviceProfile::Hdd(), &clock, &io);
  TableBlockSource src(table.get(), 8 * Page::kDefaultSize);
  ShuffleOptions opts;
  EpochShuffleStream stream(&src, opts);

  ASSERT_TRUE(stream.StartEpoch(0).ok());
  const uint64_t rand_after_e0 = io.random_reads;
  EXPECT_GT(rand_after_e0, ds.train->size() / 4);  // per-tuple random pages
  DrainIds(&stream);
  ASSERT_TRUE(stream.StartEpoch(1).ok());
  EXPECT_GT(io.random_reads, 3 * rand_after_e0 / 2);  // pays again
}

TEST(PipelineTest, TupleShufflePropagatesChildErrors) {
  // A BlockShuffleOp over a table whose file has been truncated fails; the
  // TupleShuffleOp must surface the error instead of hanging.
  auto spec = CatalogLookup("susy", 0.01).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "pipe_err.tbl";
  auto table = MaterializeTrainTable(ds, path).ValueOrDie();
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 4 * Page::kDefaultSize;
  BlockShuffleOp block_op(table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = 100;
  TupleShuffleOp op(&block_op, topts);
  ASSERT_TRUE(op.Init().ok());
  // Truncate the backing file out from under the operator.
  ASSERT_EQ(::truncate(path.c_str(), Page::kDefaultSize), 0);
  DrainIds(&op);
  EXPECT_FALSE(op.status().ok());
}

TEST(PipelineTest, SgdOpMiniBatchAdam) {
  auto spec = CatalogLookup("cifar10", 0.1).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table =
      MaterializeTrainTable(ds, testing::TempDir() + "adam_tbl.tbl").ValueOrDie();
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 4 * Page::kDefaultSize;
  BlockShuffleOp block_op(table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = ds.train->size() / 10;
  TupleShuffleOp tuple_op(&block_op, topts);
  MlpModel model(spec.dim, 24, spec.num_classes);
  SgdOp::Options sopts;
  sopts.max_epochs = 5;
  sopts.batch_size = 64;
  sopts.optimizer = OptimizerKind::kAdam;
  sopts.lr.initial = 0.003;
  sopts.test_set = ds.test.get();
  sopts.label_type = LabelType::kMulticlass;
  SgdOp sgd(&model, &tuple_op, sopts);
  ASSERT_TRUE(sgd.Init().ok());
  auto logs = sgd.RunToCompletion();
  ASSERT_TRUE(logs.ok());
  EXPECT_GT(logs->back().test_metric, 0.45);
  sgd.Close();
}

TEST(PipelineTest, SingleEpochNoReScanNeeded) {
  auto spec = CatalogLookup("susy", 0.01).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table =
      MaterializeTrainTable(ds, testing::TempDir() + "one_ep.tbl").ValueOrDie();
  BlockShuffleOp::Options bopts;
  BlockShuffleOp block_op(table.get(), bopts);
  LogisticRegression model(spec.dim);
  SgdOp::Options sopts;
  sopts.max_epochs = 1;
  SgdOp sgd(&model, &block_op, sopts);
  ASSERT_TRUE(sgd.Init().ok());
  EpochLog log;
  auto more = sgd.NextEpoch(&log);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(log.tuples_seen, ds.train->size());
  auto done = sgd.NextEpoch(&log);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(DatabaseParamsTest, SingleBufferAndAdamAndHidden) {
  const std::string dir = MakeTempDir("dbp");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("cifar10", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("cifar", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "cifar";
  stmt.model_kind = "mlp";
  stmt.params = Params::Parse(
                    "learning_rate=0.003, max_epoch_num=3, block_size=32KB, "
                    "optimizer=adam, batch_size=64, hidden=16, "
                    "double_buffer=false")
                    .ValueOrDie();
  auto r = db.Train(stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->epochs.size(), 3u);
  // Model stored with mlp id and usable for prediction.
  auto pred = db.Predict(PredictStatement{"cifar", r->model_id});
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->metric, 0.1);
}

TEST(DatabaseParamsTest, BadParamValueSurfaces) {
  const std::string dir = MakeTempDir("dbp2");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.01).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  EXPECT_FALSE(
      db.Execute("SELECT * FROM susy TRAIN BY lr WITH learning_rate=fast")
          .ok());
  EXPECT_FALSE(
      db.Execute("SELECT * FROM susy TRAIN BY lr WITH block_size=10XB").ok());
}

TEST(DatabaseParamsTest, RegressionPredictReportsR2) {
  const std::string dir = MakeTempDir("dbp3");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("yearpred", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kShuffled);
  ASSERT_TRUE(db.RegisterDataset("year", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "year";
  stmt.model_kind = "linreg";
  stmt.params =
      Params::Parse("learning_rate=0.01, max_epoch_num=5, block_size=16KB")
          .ValueOrDie();
  auto r = db.Train(stmt);
  ASSERT_TRUE(r.ok());
  auto pred = db.Predict(PredictStatement{"year", r->model_id});
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->metric, 0.8);  // R² on the training table
}

TEST(TopKTest, SemanticsAcrossModels) {
  SoftmaxRegression softmax(4, 5);
  MlpModel mlp(4, 8, 5);
  mlp.InitParams(3);
  Rng rng(5);
  for (auto& p : softmax.params()) p = rng.NextGaussian();
  for (int i = 0; i < 20; ++i) {
    std::vector<float> vals(4);
    for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
    Tuple t = MakeDenseTuple(0, static_cast<double>(rng.Uniform(5)), vals);
    for (Model* m : {static_cast<Model*>(&softmax), static_cast<Model*>(&mlp)}) {
      // k = C always hits; k = 1 equals Correct(); monotone in k.
      EXPECT_TRUE(m->TopKCorrect(t, 5));
      EXPECT_EQ(m->TopKCorrect(t, 1), m->Correct(t));
      bool prev = false;
      for (uint32_t k = 1; k <= 5; ++k) {
        const bool now = m->TopKCorrect(t, k);
        EXPECT_TRUE(!prev || now);  // once correct, stays correct
        prev = now;
      }
    }
  }
  // Binary models fall back to Correct().
  LogisticRegression lr(4);
  Tuple t = MakeDenseTuple(0, 1.0, {1.0f, 0.0f, 0.0f, 0.0f});
  EXPECT_EQ(lr.TopKCorrect(t, 3), lr.Correct(t));
}

TEST(TheoryIntegrationTest, HdTracksClusteredFraction) {
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset shuffled = GenerateDataset(spec, DataOrder::kShuffled);
  // Cluster progressively larger prefixes and confirm h_D is monotone.
  double prev_hd = -1.0;
  for (double fraction : {0.0, 0.5, 1.0}) {
    auto tuples = std::make_shared<std::vector<Tuple>>(*shuffled.train);
    const auto split = static_cast<size_t>(fraction * tuples->size());
    std::stable_sort(tuples->begin(),
                     tuples->begin() + static_cast<long>(split),
                     [](const Tuple& a, const Tuple& b) {
                       return a.label < b.label;
                     });
    InMemoryBlockSource src(shuffled.MakeSchema(), tuples, 50);
    LogisticRegression model(spec.dim);
    model.InitParams(0);
    auto gv = MeasureGradientVariance(model, &src).ValueOrDie();
    EXPECT_GT(gv.h_d, prev_hd);
    prev_hd = gv.h_d;
  }
}

TEST(UdaIntegrationTest, MadlibShuffleOnceConverges) {
  auto spec = CatalogLookup("susy", 0.1).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  auto table = MaterializeTrainTable(ds, testing::TempDir() + "uda_int.tbl")
                   .ValueOrDie();
  UdaEngineOptions opts;
  opts.flavor = UdaFlavor::kMadlib;
  opts.shuffle_once = true;
  opts.max_epochs = 6;
  opts.lr.initial = 0.005;
  opts.test_set = ds.test.get();
  opts.scratch_dir = testing::TempDir();
  SvmModel model(spec.dim);
  auto r = RunUdaBaseline(table.get(), &model, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->final_metric, 0.74);
  EXPECT_EQ(r->epochs.size(), 6u);
  EXPECT_GT(r->extra_disk_bytes, 0u);
}

TEST(ShuffleOnceStreamTest, PeakBufferStaysBlockSized) {
  // After the offline shuffle, epochs stream one block at a time — no
  // dataset-sized buffer like Epoch Shuffle needs.
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  InMemoryBlockSource src(ds.MakeSchema(), ds.train, 50);
  ShuffleOptions opts;
  auto stream = MakeTupleStream(ShuffleStrategy::kShuffleOnce, &src, opts);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->StartEpoch(0).ok());
  DrainIds(stream->get());
  EXPECT_LE((*stream)->PeakBufferTuples(), 60u);
}

TEST(MrsLoopRatioTest, HigherRatioEmitsMoreBufferedTuples) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < 1000; ++i) {
    tuples->push_back(MakeDenseTuple(i, 1.0, {0.0f}));
  }
  InMemoryBlockSource src(Schema{"m", 1, false, LabelType::kBinary, 2},
                          tuples, 50);
  auto count = [&](double ratio) {
    ShuffleOptions opts;
    opts.buffer_tuples = 100;
    opts.mrs_loop_ratio = ratio;
    auto stream = MakeTupleStream(ShuffleStrategy::kMrs, &src, opts);
    EXPECT_TRUE(stream.ok());
    EXPECT_TRUE((*stream)->StartEpoch(0).ok());
    return static_cast<uint64_t>(DrainIds(stream->get()).size());
  };
  const uint64_t r0 = count(0.0);
  const uint64_t r1 = count(1.0);
  const uint64_t r2 = count(2.0);
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  EXPECT_EQ(r0, 900u);            // dropped only
  EXPECT_NEAR(r1, 1800.0, 5.0);   // + one looped per dropped
}

TEST(CorgiPileDatasetTogglesTest, UnshuffledModeIsStorageOrder) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < 300; ++i) {
    tuples->push_back(MakeDenseTuple(i, 1.0, {0.0f}));
  }
  InMemoryBlockSource src(Schema{"t", 1, false, LabelType::kBinary, 2},
                          tuples, 30);
  CorgiPileDataset::Options opts;
  opts.buffer_tuples = 60;
  opts.shuffle_blocks = false;
  opts.shuffle_tuples = false;
  CorgiPileDataset ds(&src, opts);
  ASSERT_TRUE(ds.StartEpoch(0, 0, 1).ok());
  uint64_t expect = 0;
  for (uint64_t id : DrainIds(&ds)) EXPECT_EQ(id, expect++);
  EXPECT_EQ(expect, 300u);
}

}  // namespace
}  // namespace corgipile
