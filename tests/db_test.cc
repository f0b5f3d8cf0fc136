// Unit and integration tests for db/: Volcano operators, the query parser,
// the Database engine, the model store, and the UDA baselines.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <future>
#include <set>

#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "db/query.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "db/uda_baseline.h"
#include "dataset/catalog.h"
#include "dataset/libsvm.h"
#include "dataset/loader.h"
#include "iosim/fault_injector.h"
#include "ml/linear_models.h"

#include "drain_util.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

struct TableFixture {
  Dataset ds;
  std::unique_ptr<Table> table;

  TableFixture(const std::string& name, DataOrder order, double scale,
               const std::string& path_tag, uint32_t page_size = 2048) {
    auto spec = CatalogLookup(name, scale);
    ds = GenerateDataset(*spec, order);
    auto t = MaterializeTrainTable(
        ds, testing::TempDir() + path_tag + ".tbl", page_size);
    table = std::move(t).ValueOrDie();
  }
};

TEST(QueryParserTest, TrainStatement) {
  auto stmt = ParseQuery(
      "SELECT * FROM higgs TRAIN BY svm WITH learning_rate=0.1, "
      "max_epoch_num=20, block_size=10MB;");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(std::holds_alternative<TrainStatement>(*stmt));
  const auto& train = std::get<TrainStatement>(*stmt);
  EXPECT_EQ(train.table_name, "higgs");
  EXPECT_EQ(train.model_kind, "svm");
  EXPECT_DOUBLE_EQ(train.params.GetDouble("learning_rate", 0).ValueOrDie(),
                   0.1);
  EXPECT_EQ(train.params.GetString("block_size", "").ValueOrDie(), "10MB");
}

TEST(QueryParserTest, TrainWithoutWith) {
  auto stmt = ParseQuery("select * from t train by lr");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(std::holds_alternative<TrainStatement>(*stmt));
}

TEST(QueryParserTest, PredictStatement) {
  auto stmt = ParseQuery("SELECT * FROM higgs PREDICT BY svm_0");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(std::holds_alternative<PredictStatement>(*stmt));
  EXPECT_EQ(std::get<PredictStatement>(*stmt).model_id, "svm_0");
}

TEST(QueryParserTest, EvaluateStatement) {
  auto stmt = ParseQuery("SELECT * FROM higgs EVALUATE BY svm_0");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(std::holds_alternative<EvaluateStatement>(*stmt));
  EXPECT_EQ(std::get<EvaluateStatement>(*stmt).model_id, "svm_0");
  EXPECT_FALSE(ParseQuery("SELECT * FROM t EVALUATE BY m WITH a=1").ok());
}

TEST(QueryParserTest, LoadStatement) {
  auto stmt = ParseQuery(
      "LOAD TABLE higgs FROM '/data/higgs.libsvm' WITH order=clustered");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(std::holds_alternative<LoadStatement>(*stmt));
  const auto& load = std::get<LoadStatement>(*stmt);
  EXPECT_EQ(load.table_name, "higgs");
  EXPECT_EQ(load.path, "/data/higgs.libsvm");
  EXPECT_EQ(load.params.GetString("order", "").ValueOrDie(), "clustered");
  EXPECT_FALSE(ParseQuery("LOAD TABLE t").ok());
  EXPECT_FALSE(ParseQuery("LOAD TABLE t INTO x").ok());
}

TEST(QueryParserTest, Malformed) {
  EXPECT_FALSE(ParseQuery("SELECT foo").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t DANCE BY lr").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t PREDICT BY m WITH a=1").ok());
  EXPECT_FALSE(ParseQuery("INSERT INTO t VALUES (1)").ok());
}

TEST(QueryParserTest, UnknownOptionsAreInvalidArgument) {
  // A typo'd TRAIN option is rejected at parse time with kInvalidArgument
  // and a message naming the bad key and the whitelist — never silently
  // ignored, never a later kInternal from a half-configured pipeline.
  auto train =
      ParseQuery("SELECT * FROM t TRAIN BY lr WITH learning_rat=0.1");
  ASSERT_TRUE(train.status().IsInvalidArgument()) << train.status().ToString();
  EXPECT_NE(train.status().ToString().find("learning_rat"), std::string::npos);
  EXPECT_NE(train.status().ToString().find("valid options"),
            std::string::npos);

  auto load = ParseQuery("LOAD TABLE t FROM '/x' WITH dims=4");
  ASSERT_TRUE(load.status().IsInvalidArgument()) << load.status().ToString();
  EXPECT_NE(load.status().ToString().find("dims"), std::string::npos);

  // Every documented key — including the checkpoint/resume trio — parses.
  EXPECT_TRUE(ParseQuery("SELECT * FROM t TRAIN BY lr WITH "
                         "checkpoint=/tmp/t.ckpt, checkpoint_every=2, "
                         "resume=true")
                  .ok());
}

TEST(QueryParserTest, ByteSizes) {
  EXPECT_EQ(ParseByteSize("8192").ValueOrDie(), 8192u);
  EXPECT_EQ(ParseByteSize("64KB").ValueOrDie(), 64u * 1024);
  EXPECT_EQ(ParseByteSize("10MB").ValueOrDie(), 10u * 1024 * 1024);
  EXPECT_EQ(ParseByteSize("1gb").ValueOrDie(), 1024ull * 1024 * 1024);
  EXPECT_EQ(ParseByteSize("2 MB").ValueOrDie(), 2u * 1024 * 1024);
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("12XB").ok());
  EXPECT_FALSE(ParseByteSize("abc").ok());
}

TEST(BlockShuffleOpTest, EmitsAllTuplesShuffledByBlock) {
  TableFixture f("susy", DataOrder::kClustered, 0.02, "bso");
  BlockShuffleOp::Options opts;
  opts.block_size_bytes = 8 * 2048;  // 8 pages per block
  opts.seed = 5;
  BlockShuffleOp op(f.table.get(), opts);
  ASSERT_TRUE(op.Init().ok());

  const std::vector<uint64_t> ids = DrainIds(&op);
  const std::set<uint64_t> seen(ids.begin(), ids.end());
  ASSERT_TRUE(op.status().ok());
  EXPECT_EQ(ids.size(), f.ds.train->size());
  EXPECT_EQ(seen.size(), f.ds.train->size());

  // ReScan produces a different block order.
  ASSERT_TRUE(op.ReScan().ok());
  const std::vector<uint64_t> order1 = DrainIds(&op);
  ASSERT_TRUE(op.ReScan().ok());
  const std::vector<uint64_t> order2 = DrainIds(&op);
  EXPECT_EQ(order1.size(), order2.size());
  EXPECT_NE(order1, order2);
  op.Close();
}

TEST(BlockShuffleOpTest, SequentialModeIsStorageOrder) {
  TableFixture f("susy", DataOrder::kClustered, 0.02, "bso_seq");
  BlockShuffleOp::Options opts;
  opts.shuffle_blocks = false;
  BlockShuffleOp op(f.table.get(), opts);
  ASSERT_TRUE(op.Init().ok());
  uint64_t expect = 0;
  for (uint64_t id : DrainIds(&op)) EXPECT_EQ(id, expect++);
  EXPECT_EQ(expect, f.ds.train->size());
}

// BlockShuffleOp decodes each block into a TupleBatch. The Tuple-vector
// read of the same blocks (SnapshotBlockSource) must fail on exactly the
// same blocks, so the operator's quarantine counts are the ones per-block
// vector reads predict, and it emits exactly the readable blocks' rows.
TEST(BlockShuffleOpTest, QuarantineMatchesTupleReadOfEachBlock) {
  TableFixture f("susy", DataOrder::kClustered, 0.05, "bso_quarantine");
  FaultConfig cfg;
  cfg.seed = 77;
  cfg.bit_flip_rate = 0.05;
  FaultInjector inj(cfg);
  f.table->SetFaultInjection(&inj);
  const uint64_t block_bytes = 4 * 2048;

  SnapshotBlockSource source(ShardedSnapshot({f.table->Snapshot()}),
                             block_bytes);
  uint64_t bad_blocks = 0;
  uint64_t lost = 0;
  std::set<uint64_t> readable;
  for (uint32_t b = 0; b < source.num_blocks(); ++b) {
    std::vector<Tuple> rows;
    const Status st = source.ReadBlock(b, &rows);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      ++bad_blocks;
      lost += source.TuplesInBlock(b);
      continue;
    }
    for (const Tuple& t : rows) readable.insert(t.id);
  }
  ASSERT_GT(bad_blocks, 0u);
  ASSERT_LT(bad_blocks, source.num_blocks());

  BlockShuffleOp::Options opts;
  opts.block_size_bytes = block_bytes;
  opts.seed = 3;
  opts.tolerance.quarantine_corrupt_blocks = true;
  opts.tolerance.max_bad_block_fraction = 1.0;
  BlockShuffleOp op(f.table.get(), opts);
  ASSERT_TRUE(op.Init().ok());
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    TupleBatch batch(100);
    std::set<uint64_t> seen;
    uint64_t emitted = 0;
    while (op.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) seen.insert(batch.id(i));
      emitted += batch.size();
    }
    ASSERT_TRUE(op.status().ok()) << op.status().ToString();
    EXPECT_EQ(seen, readable);
    EXPECT_EQ(emitted, readable.size());
    // Counters are cumulative across epochs.
    EXPECT_EQ(op.QuarantinedBlocks(), bad_blocks * epoch);
    EXPECT_EQ(op.SkippedTuples(), lost * epoch);
    ASSERT_TRUE(op.ReScan().ok());
  }
  op.Close();
  f.table->SetFaultInjection(nullptr);
}

class TupleShuffleModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(TupleShuffleModeTest, EmitsAllTuplesShuffled) {
  const bool double_buffer = GetParam();
  TableFixture f("susy", DataOrder::kClustered, 0.02,
                 double_buffer ? "tso_d" : "tso_s");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 4 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);

  TupleShuffleOp::Options topts;
  topts.buffer_tuples = f.ds.train->size() / 10;
  topts.double_buffer = double_buffer;
  TupleShuffleOp op(&block_op, topts);
  ASSERT_TRUE(op.Init().ok());

  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<uint64_t> order = DrainIds(&op);
    const std::set<uint64_t> seen(order.begin(), order.end());
    ASSERT_TRUE(op.status().ok());
    EXPECT_EQ(seen.size(), f.ds.train->size());
    EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
    if (epoch < 2) {
      ASSERT_TRUE(op.ReScan().ok());
    }
  }
  EXPECT_GT(op.timeline().num_batches(), 0u);
  EXPECT_LE(op.timeline().DoubleBufferedDuration(),
            op.timeline().SingleBufferedDuration() + 1e-12);
  op.Close();
}

INSTANTIATE_TEST_SUITE_P(BufferModes, TupleShuffleModeTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "double" : "single";
                         });

TEST(SgdOpTest, TrainsThroughPipeline) {
  TableFixture f("susy", DataOrder::kClustered, 0.05, "sgdop");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 8 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = f.ds.train->size() / 10;
  TupleShuffleOp tuple_op(&block_op, topts);

  LogisticRegression model(f.ds.spec.dim);
  SgdOp::Options sopts;
  sopts.max_epochs = 6;
  sopts.lr.initial = 0.005;
  sopts.test_set = f.ds.test.get();
  SgdOp sgd(&model, &tuple_op, sopts);
  ASSERT_TRUE(sgd.Init().ok());
  auto logs = sgd.RunToCompletion();
  ASSERT_TRUE(logs.ok());
  ASSERT_EQ(logs->size(), 6u);
  EXPECT_GT(logs->back().test_metric, 0.72);
  EXPECT_EQ(logs->front().tuples_seen, f.ds.train->size());
  sgd.Close();
}

TEST(TupleShuffleOpStressTest, ManyEpochsDoubleBuffered) {
  // Hammer the producer/consumer machinery across many quick epochs.
  TableFixture f("susy", DataOrder::kClustered, 0.01, "tso_stress");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 2 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = 37;  // deliberately awkward size
  topts.double_buffer = true;
  TupleShuffleOp op(&block_op, topts);
  ASSERT_TRUE(op.Init().ok());
  for (int epoch = 0; epoch < 20; ++epoch) {
    const uint64_t n = DrainIds(&op).size();
    ASSERT_TRUE(op.status().ok());
    ASSERT_EQ(n, f.ds.train->size()) << "epoch " << epoch;
    ASSERT_TRUE(op.ReScan().ok());
  }
  op.Close();
}

TEST(TupleShuffleOpEarlyCloseTest, CloseMidStreamStopsProducer) {
  // Consumer abandons a double-buffered scan after a few tuples: Close()
  // must cancel the channel, unblock and join the producer, and leave the
  // operator reusable — no deadlock, no leaked thread.
  TableFixture f("susy", DataOrder::kClustered, 0.02, "tso_early");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 2 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = 16;  // small buffers → producer is usually ahead
  topts.double_buffer = true;
  TupleShuffleOp op(&block_op, topts);
  ASSERT_TRUE(op.Init().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(PullOne(&op));
  op.Close();  // would hang here if the producer were not cancelled
  op.Close();  // idempotent
}

TEST(TupleShuffleOpEarlyCloseTest, DestructorMidStreamStopsProducer) {
  TableFixture f("susy", DataOrder::kClustered, 0.02, "tso_early_dtor");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 2 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);
  {
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = 16;
    topts.double_buffer = true;
    TupleShuffleOp op(&block_op, topts);
    ASSERT_TRUE(op.Init().ok());
    ASSERT_TRUE(PullOne(&op));
    // Destroyed mid-stream without an explicit Close().
  }
}

TEST(TupleShuffleOpEarlyCloseTest, ReScanMidStreamRestartsCleanly) {
  TableFixture f("susy", DataOrder::kClustered, 0.02, "tso_early_rescan");
  BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 2 * 2048;
  BlockShuffleOp block_op(f.table.get(), bopts);
  TupleShuffleOp::Options topts;
  topts.buffer_tuples = 16;
  topts.double_buffer = true;
  TupleShuffleOp op(&block_op, topts);
  ASSERT_TRUE(op.Init().ok());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(PullOne(&op));
  ASSERT_TRUE(op.ReScan().ok());  // abandons the in-flight producer
  const uint64_t n = DrainIds(&op).size();
  ASSERT_TRUE(op.status().ok());
  EXPECT_EQ(n, f.ds.train->size());  // full fresh epoch after the restart
  op.Close();
}

TEST(ModelStoreTest, PutGetRemove) {
  ModelStore store;
  auto id1 = store.Put(std::make_unique<LogisticRegression>(4));
  auto id2 = store.Put(std::make_unique<SvmModel>(4));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.Get(id1).ok());
  EXPECT_STREQ(store.Get(id1).ValueOrDie()->name(), "lr");
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  ASSERT_TRUE(store.Remove(id1).ok());
  EXPECT_TRUE(store.Get(id1).status().IsNotFound());
  EXPECT_TRUE(store.Remove(id1).IsNotFound());
}

TEST(DatabaseTest, EndToEndTrainAndPredict) {
  const std::string dir = MakeTempDir("db_e2e");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  auto result = db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=6, block_size=64KB, buffer_fraction=0.1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->find("trained model lr_0"), std::string::npos);

  auto pred = db.Execute("SELECT * FROM susy PREDICT BY lr_0");
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_NE(pred->find("predicted"), std::string::npos);

  auto eval = db.Execute("SELECT * FROM susy EVALUATE BY lr_0");
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  EXPECT_NE(eval->find("auc"), std::string::npos);
  auto report = db.EvaluateModel(EvaluateStatement{"susy", "lr_0"});
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->auc, 0.7);
  EXPECT_GT(report->accuracy(), 0.7);
}

TEST(DatabaseTest, StrategiesProduceExpectedAccuracyOrdering) {
  const std::string dir = MakeTempDir("db_strat");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.2).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  auto train = [&](const std::string& strategy) {
    TrainStatement stmt;
    stmt.table_name = "susy";
    stmt.model_kind = "svm";
    stmt.params =
        Params::Parse("learning_rate=0.005, max_epoch_num=8, "
                      "block_size=16KB, strategy=" + strategy)
            .ValueOrDie();
    auto r = db.Train(stmt);
    EXPECT_TRUE(r.ok()) << strategy << ": " << r.status().ToString();
    return r.ValueOrDie();
  };

  const auto corgi = train("corgipile");
  const auto no_shuffle = train("no_shuffle");
  const auto shuffle_once = train("shuffle_once");
  const auto block_only = train("block_only");

  EXPECT_LT(no_shuffle.final_metric, shuffle_once.final_metric - 0.08);
  EXPECT_NEAR(corgi.final_metric, shuffle_once.final_metric, 0.04);
  EXPECT_GT(corgi.final_metric, 0.72);
  // Block-Only sits between NoShuffle and CorgiPile on clustered data.
  EXPECT_GT(block_only.final_metric, no_shuffle.final_metric);
  // Shuffle Once pays prep overhead and disk; CorgiPile does not.
  EXPECT_GT(shuffle_once.prep_seconds, 0.0);
  EXPECT_GT(shuffle_once.extra_disk_bytes, 0u);
  EXPECT_EQ(corgi.prep_seconds, 0.0);
  EXPECT_EQ(corgi.extra_disk_bytes, 0u);
}

TEST(DatabaseTest, CorgiPileDoubleBufferingNotSlower) {
  const std::string dir = MakeTempDir("db_dbuf");
  Database db(dir, DeviceProfile::Hdd());
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "svm";
  stmt.params = Params::Parse("max_epoch_num=3, block_size=64KB").ValueOrDie();
  auto r = db.Train(stmt);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->end_to_end_double_seconds, r->end_to_end_single_seconds + 1e-9);
  EXPECT_GT(r->sim_io_seconds, 0.0);
}

TEST(DatabaseTest, ErrorsSurface) {
  const std::string dir = MakeTempDir("db_err");
  Database db(dir, DeviceProfile::Ssd());
  EXPECT_TRUE(db.Execute("SELECT * FROM nope TRAIN BY lr")
                  .status()
                  .IsNotFound());
  auto spec = CatalogLookup("susy", 0.01).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  EXPECT_TRUE(db.RegisterDataset("susy", ds).code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY quantum")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH strategy=zigzag")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy PREDICT BY ghost_9")
                  .status()
                  .IsNotFound());
  // Semantic option errors are kInvalidArgument too (error-code
  // consistency: bad user input is never kInternal / kIoError).
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "optimizer=sgdm")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH resume=true")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "checkpoint=/tmp/c.ckpt, checkpoint_every=0")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "checkpoint=/tmp/c.ckpt, "
                         "strategy=shuffle_once_inplace")
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseTest, CheckpointResumeSqlRoundTrip) {
  const std::string dir = MakeTempDir("db_ckpt_sql");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  const std::string ckpt = dir + "/lr.ckpt";
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse("learning_rate=0.005, max_epoch_num=4, "
                              "block_size=16KB, double_buffer=false")
                    .ValueOrDie();
  stmt.params.Set("checkpoint", ckpt);
  auto first = db.Train(stmt);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->resumed_from_epoch, 0u);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  const std::vector<double> trained =
      db.models().Get(first->model_id).ValueOrDie()->params();

  // Resuming from the completed checkpoint trains zero further epochs and
  // reproduces the exact parameters.
  stmt.params.Set("resume", "true");
  auto resumed = db.Train(stmt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_from_epoch, 4u);
  EXPECT_EQ(db.models().Get(resumed->model_id).ValueOrDie()->params(),
            trained);
}

TEST(DatabaseTest, LoadLibsvmAndTrain) {
  const std::string dir = MakeTempDir("db_load");
  // Produce a LIBSVM file from a generated dataset.
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kShuffled);
  const std::string path = dir + "/susy.libsvm";
  ASSERT_TRUE(WriteLibsvmFile(*ds.train, path).ok());

  Database db(dir, DeviceProfile::Ssd());
  auto loaded =
      db.Execute("LOAD TABLE susy FROM '" + path + "' WITH order=clustered");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded->find("loaded"), std::string::npos);
  auto table = db.GetTable("susy");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), ds.train->size());
  EXPECT_EQ((*table)->schema().dim, spec.dim);
  EXPECT_FALSE((*table)->schema().sparse);  // dense rows detected

  // Training over a loaded table works end to end (no test set registered,
  // so only train metrics are produced).
  auto trained = db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=3, block_size=16KB");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  // Errors: duplicate table, missing file, bad order value.
  EXPECT_FALSE(db.Execute("LOAD TABLE susy FROM '" + path + "'").ok());
  EXPECT_TRUE(db.Execute("LOAD TABLE x FROM '/nope.libsvm'")
                  .status()
                  .IsIoError());
  EXPECT_TRUE(db.Execute("LOAD TABLE y FROM '" + path +
                         "' WITH order=diagonal")
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseTest, AttachReopensPersistedTable) {
  const std::string dir = MakeTempDir("db_attach");
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  {
    Database db(dir, DeviceProfile::Ssd());
    ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  }
  // A fresh session over the same directory.
  Database db2(dir, DeviceProfile::Ssd());
  EXPECT_TRUE(db2.GetTable("susy").status().IsNotFound());
  ASSERT_TRUE(db2.Attach("susy").ok());
  auto table = db2.GetTable("susy");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), ds.train->size());
  EXPECT_EQ((*table)->schema().dim, spec.dim);
  // Training over the reattached table works.
  auto r = db2.Execute(
      "SELECT * FROM susy TRAIN BY svm WITH learning_rate=0.005, "
      "max_epoch_num=3, block_size=16KB");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Errors: double attach, unknown table.
  EXPECT_TRUE(db2.Attach("susy").code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(db2.Attach("ghost").IsNotFound());
}

TEST(DatabaseTest, ShowSessionsThroughExecute) {
  const std::string dir = MakeTempDir("db_show_sessions");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  // Only the implicit default session exists.
  auto show = db.Execute("show sessions;");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  EXPECT_NE(show->find("1 session(s)"), std::string::npos) << *show;
  EXPECT_NE(show->find("session 1 [default]"), std::string::npos) << *show;
  EXPECT_NE(show->find("statements=0"), std::string::npos) << *show;

  // The default session's statements are attributed to it.
  ASSERT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "learning_rate=0.005, max_epoch_num=2, "
                         "block_size=64KB, buffer_fraction=0.1")
                  .ok());
  show = db.Execute("SHOW SESSIONS");
  ASSERT_TRUE(show.ok());
  EXPECT_NE(show->find("statements=1"), std::string::npos) << *show;
  EXPECT_NE(show->find("trains=1"), std::string::npos) << *show;

  // Parse errors.
  EXPECT_TRUE(db.Execute("SHOW SESSION").status().IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SHOW SESSIONS WITH x=1")
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseTest, LoadWithShardsPartitionsTable) {
  const std::string dir = MakeTempDir("db_load_shards");
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = dir + "/susy.libsvm";
  ASSERT_TRUE(WriteLibsvmFile(*ds.train, path).ok());

  Database db(dir, DeviceProfile::Ssd());
  auto loaded = db.Execute("LOAD TABLE susy FROM '" + path +
                           "' WITH order=clustered, shards=4");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto sharded = db.GetShardedTable("susy");
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_shards(), 4u);
  EXPECT_EQ((*sharded)->num_tuples(), ds.train->size());
  // GetTable compat accessor returns shard 0 (about a quarter of the rows).
  auto shard0 = db.GetTable("susy");
  ASSERT_TRUE(shard0.ok());
  EXPECT_EQ((*shard0)->num_tuples(), (ds.train->size() + 3) / 4);

  EXPECT_TRUE(db.Execute("LOAD TABLE z FROM '" + path + "' WITH shards=0")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("LOAD TABLE z FROM '" + path + "' WITH shards=65")
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseTest, AttachReopensShardedTableFromSidecar) {
  const std::string dir = MakeTempDir("db_attach_sharded");
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  {
    Database db(dir, DeviceProfile::Ssd());
    ASSERT_TRUE(db.RegisterDataset("susy", ds, /*num_shards=*/3).ok());
  }
  Database db2(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db2.Attach("susy").ok());
  auto sharded = db2.GetShardedTable("susy");
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ((*sharded)->num_shards(), 3u);
  EXPECT_EQ((*sharded)->num_tuples(), ds.train->size());
  // TRAIN over the reattached sharded table works end to end.
  auto r = db2.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=2, block_size=16KB, seed=3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(DatabaseTest, ShuffleOnceStrategiesRequireSingleShard) {
  const std::string dir = MakeTempDir("db_shuffle_once_shards");
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", ds, /*num_shards=*/2).ok());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "strategy=shuffle_once, max_epoch_num=1")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "strategy=shuffle_once_inplace, max_epoch_num=1")
                  .status()
                  .IsInvalidArgument());
  // corgipile itself is shard-native.
  EXPECT_TRUE(db.Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "strategy=corgipile, max_epoch_num=1, "
                         "block_size=16KB")
                  .ok());
}

TEST(DatabaseTest, StreamStrategiesRunViaAdapter) {
  const std::string dir = MakeTempDir("db_stream");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  for (const char* strategy : {"sliding_window", "mrs"}) {
    TrainStatement stmt;
    stmt.table_name = "susy";
    stmt.model_kind = "lr";
    stmt.params = Params::Parse(std::string("learning_rate=0.005, "
                                            "max_epoch_num=3, block_size=16KB, "
                                            "strategy=") + strategy)
                      .ValueOrDie();
    auto r = db.Train(stmt);
    ASSERT_TRUE(r.ok()) << strategy << ": " << r.status().ToString();
    EXPECT_EQ(r->epochs.size(), 3u) << strategy;
    EXPECT_GT(r->epochs[0].tuples_seen, 0u) << strategy;
  }
}

TEST(DatabaseTest, MulticlassAndRegressionModels) {
  const std::string dir = MakeTempDir("db_models");
  Database db(dir, DeviceProfile::Ssd());
  auto mspec = CatalogLookup("mnist8m", 0.02).ValueOrDie();
  Dataset mds = GenerateDataset(mspec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("mnist8m", mds).ok());
  auto r1 = db.Execute(
      "SELECT * FROM mnist8m TRAIN BY softmax WITH learning_rate=0.01, "
      "max_epoch_num=5, block_size=64KB");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  auto rspec = CatalogLookup("yearpred", 0.02).ValueOrDie();
  Dataset rds = GenerateDataset(rspec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("yearpred", rds).ok());
  auto r2 = db.Execute(
      "SELECT * FROM yearpred TRAIN BY linreg WITH learning_rate=0.01, "
      "max_epoch_num=5, block_size=64KB");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST(UdaBaselineTest, BismarckNoShuffleVsShuffleOnce) {
  TableFixture f("susy", DataOrder::kClustered, 0.2, "uda_b");
  SimClock clock;
  IoStats stats;
  f.table->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);

  UdaEngineOptions opts;
  opts.flavor = UdaFlavor::kBismarck;
  opts.max_epochs = 8;
  opts.lr.initial = 0.005;
  opts.test_set = f.ds.test.get();
  opts.clock = &clock;
  opts.io_stats = &stats;
  opts.device = DeviceProfile::Hdd();
  // Own directory: integration_test writes a susy shuffled copy into the
  // shared temp dir, and ctest may run both binaries at once.
  opts.scratch_dir = MakeTempDir("uda_b_scratch");

  SvmModel m1(f.ds.spec.dim);
  auto no_shuffle = RunUdaBaseline(f.table.get(), &m1, opts);
  ASSERT_TRUE(no_shuffle.ok());
  EXPECT_EQ(no_shuffle->prep_seconds, 0.0);

  opts.shuffle_once = true;
  SvmModel m2(f.ds.spec.dim);
  auto shuffle_once = RunUdaBaseline(f.table.get(), &m2, opts);
  ASSERT_TRUE(shuffle_once.ok());
  EXPECT_GT(shuffle_once->final_metric, 0.72);
  // Clustered scan order costs No Shuffle a clear accuracy margin.
  EXPECT_LT(no_shuffle->final_metric, shuffle_once->final_metric - 0.08);
  // Offline shuffle ≈ an external sort: several sequential passes' worth
  // of simulated time plus the 2x disk copy.
  const double one_scan =
      DeviceProfile::Hdd().SequentialCost(f.table->size_bytes());
  EXPECT_GT(shuffle_once->prep_seconds, 3.0 * one_scan);
  EXPECT_GT(shuffle_once->extra_disk_bytes, 0u);
}

TEST(UdaBaselineTest, MadlibSlowerThanBismarck) {
  TableFixture f("susy", DataOrder::kShuffled, 0.2, "uda_m");
  SimClock clock;
  f.table->SetIoAccounting(DeviceProfile::Ssd(), &clock, nullptr);
  UdaEngineOptions opts;
  opts.max_epochs = 3;
  opts.clock = &clock;
  opts.device = DeviceProfile::Ssd();

  opts.flavor = UdaFlavor::kBismarck;
  LogisticRegression m1(f.ds.spec.dim);
  auto bis = RunUdaBaseline(f.table.get(), &m1, opts);
  ASSERT_TRUE(bis.ok());

  opts.flavor = UdaFlavor::kMadlib;
  LogisticRegression m2(f.ds.spec.dim);
  auto mad = RunUdaBaseline(f.table.get(), &m2, opts);
  ASSERT_TRUE(mad.ok());
  EXPECT_GT(mad->sim_compute_seconds, 1.4 * bis->sim_compute_seconds);
}

TEST(UdaBaselineTest, MadlibLimitations) {
  // Wide dense LR times out (epsilon/yfcc behaviour).
  TableFixture wide("yfcc", DataOrder::kClustered, 0.002, "uda_wide", 8192);
  UdaEngineOptions opts;
  opts.flavor = UdaFlavor::kMadlib;
  opts.max_epochs = 1;
  LogisticRegression lr_model(wide.ds.spec.dim);
  auto r = RunUdaBaseline(wide.table.get(), &lr_model, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->timed_out);

  // SVM is fine on the same table.
  SvmModel svm_model(wide.ds.spec.dim);
  auto r2 = RunUdaBaseline(wide.table.get(), &svm_model, opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->timed_out);

  // Sparse input unsupported.
  TableFixture sparse("criteo", DataOrder::kClustered, 0.002, "uda_sparse", 8192);
  LogisticRegression lr2(sparse.ds.spec.dim);
  EXPECT_TRUE(RunUdaBaseline(sparse.table.get(), &lr2, opts)
                  .status()
                  .IsNotImplemented());
}

// --- Guarded lifecycle SQL surface (DESIGN.md §13) -------------------------

TEST(QueryParserTest, RollbackStatement) {
  auto stmt = ParseQuery("ROLLBACK MODEL m TO 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(std::holds_alternative<RollbackStatement>(*stmt));
  EXPECT_EQ(std::get<RollbackStatement>(*stmt).model_id, "m");
  EXPECT_EQ(std::get<RollbackStatement>(*stmt).version, 2u);
  EXPECT_TRUE(ParseQuery("rollback model lr_0 to 17;").ok());

  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m").ok());
  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m TO").ok());
  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m TO x").ok());
  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m TO 0").ok());
  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m TO -1").ok());
  EXPECT_FALSE(ParseQuery("ROLLBACK MODEL m TO 2 WITH force=true").ok());

  // The lifecycle TRAIN options are whitelisted; a typo is still rejected.
  EXPECT_TRUE(ParseQuery("SELECT * FROM t TRAIN BY lr WITH publish=m, "
                         "validate=true, holdout_fraction=0.2, "
                         "validate_min_metric=0.6, validate_max_loss=0.7, "
                         "validate_max_regression=0.05, canary_fraction=0.1, "
                         "canary_batches=8, auto_rollback=true")
                  .ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM t TRAIN BY lr WITH canary_fracton=0.1").ok());
}

TEST(DatabaseTest, RollbackModelSqlRoundTrip) {
  const std::string dir = MakeTempDir("db_rollback");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse("learning_rate=0.005, max_epoch_num=2, "
                              "block_size=16KB, publish=m, seed=1")
                    .ValueOrDie();
  ASSERT_TRUE(db.Train(stmt).ok());
  const std::vector<double> v1_params =
      db.models().Get("m").ValueOrDie()->params();
  stmt.params.Set("seed", "2");
  ASSERT_TRUE(db.Train(stmt).ok());
  ASSERT_EQ(db.models().GetVersion("m").ValueOrDie(), 2u);

  auto rolled = db.Execute("ROLLBACK MODEL m TO 1");
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_NE(rolled->find("rolled back model m to version 1"),
            std::string::npos)
      << *rolled;
  EXPECT_EQ(db.models().GetVersion("m").ValueOrDie(), 1u);
  EXPECT_EQ(db.models().Get("m").ValueOrDie()->params(), v1_params);
  // PREDICT serves the rolled-back version.
  ASSERT_TRUE(db.Execute("SELECT * FROM susy PREDICT BY m").ok());

  EXPECT_TRUE(db.Execute("ROLLBACK MODEL m TO 1").status()
                  .IsInvalidArgument());  // already current
  EXPECT_TRUE(db.Execute("ROLLBACK MODEL m TO 99").status().IsNotFound());
  EXPECT_TRUE(db.Execute("ROLLBACK MODEL ghost TO 1").status().IsNotFound());
}

TEST(DatabaseTest, PredictAgainstModelRemovedMidRunFailsCleanly) {
  // Satellite 3: a model Remove()d while a serving run is in flight makes
  // each later request fail with a clean per-request kNotFound — no hang,
  // no stale pointer, no torn batch. Earlier requests keep their snapshot.
  const std::string dir = MakeTempDir("db_remove_midrun");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse("learning_rate=0.005, max_epoch_num=2, "
                              "block_size=16KB, publish=m")
                    .ValueOrDie();
  ASSERT_TRUE(db.Train(stmt).ok());

  ServeOptions serve;
  serve.max_batch = 4;
  serve.batch_deadline_s = 1.0;  // close by size only: exact boundaries
  serve.num_workers = 2;
  serve.max_queue_depth = 0;
  serve.flush_on_idle = false;
  InferenceEngine engine(&db.models(), serve);
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<Tuple>& pool = *ds.train;
  constexpr uint64_t kRequests = 64;
  constexpr uint64_t kRemoveAt = 32;
  std::vector<std::future<ServeReply>> replies;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ServeRequest req;
    req.tuple = pool[i % pool.size()];
    req.model_id = "m";
    req.arrival_s = 1e-3 * static_cast<double>(i);
    if (i == kRemoveAt) {
      // Runs on the scheduler thread when it processes this arrival: the
      // removal lands at a deterministic point between batches.
      req.on_arrival = [&db] { ASSERT_TRUE(db.models().Remove("m").ok()); };
    }
    replies.push_back(engine.Submit(std::move(req)));
  }
  ASSERT_TRUE(engine.Drain().ok());  // completes: nothing hangs

  uint64_t served = 0, not_found = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const ServeReply r = replies[i].get();
    if (r.status.ok()) {
      ++served;
      EXPECT_EQ(r.model_version, 1u) << "request " << i;
    } else {
      // kNotFound is permanent: it must bypass retry/breaker/brownout and
      // never surface as a timeout, IoError, or stale answer.
      EXPECT_TRUE(r.status.IsNotFound())
          << "request " << i << ": " << r.status.ToString();
      ++not_found;
    }
  }
  EXPECT_EQ(served + not_found, kRequests);
  // Batches formed before the removal were served from their snapshot;
  // everything at or after the removal boundary failed cleanly.
  EXPECT_EQ(served, kRemoveAt);
  EXPECT_EQ(not_found, kRequests - kRemoveAt);

  // Statement-level: the next PREDICT BY fails up front with kNotFound.
  EXPECT_TRUE(
      db.Execute("SELECT * FROM susy PREDICT BY m").status().IsNotFound());
}

TEST(DatabaseTest, RemoveMidRunFailsMultiRowSubmissionsCleanly) {
  // The multi-row form of the test above. Submission A (rows 0-29) leaves
  // rows 28-29 in the open micro-batch; submission B (rows 30-63) removes
  // the model as it arrives, so that batch resolves kNotFound. A ends
  // partially served, partially failed, and Drain() is called while its
  // served rows may still be resolving on the workers: both submissions
  // must complete with exactly the right rows failed, and nothing hangs.
  const std::string dir = MakeTempDir("db_remove_midrun_rows");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse("learning_rate=0.005, max_epoch_num=2, "
                              "block_size=16KB, publish=m")
                    .ValueOrDie();
  ASSERT_TRUE(db.Train(stmt).ok());

  ServeOptions serve;
  serve.max_batch = 4;
  serve.batch_deadline_s = 1.0;  // close by size only: exact boundaries
  serve.num_workers = 2;
  serve.max_queue_depth = 0;
  serve.flush_on_idle = false;
  InferenceEngine engine(&db.models(), serve);
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<Tuple>& pool = *ds.train;
  constexpr size_t kSplit = 30;
  constexpr size_t kRows = 64;
  auto submit = [&](size_t begin, size_t end, bool remove) {
    ServeBatchRequest req;
    for (size_t i = begin; i < end; ++i) req.rows.Append(pool[i % pool.size()]);
    req.model_id = "m";
    req.arrival_s = 1e-3 * static_cast<double>(begin);
    if (remove) {
      req.on_arrival = [&db] { ASSERT_TRUE(db.models().Remove("m").ok()); };
    }
    auto promise = std::make_shared<std::promise<ServeBatchReply>>();
    std::future<ServeBatchReply> fut = promise->get_future();
    engine.SubmitBatch(std::move(req), [promise](ServeBatchReply reply) {
      promise->set_value(std::move(reply));
    });
    return fut;
  };
  std::future<ServeBatchReply> a = submit(0, kSplit, false);
  std::future<ServeBatchReply> b = submit(kSplit, kRows, true);
  ASSERT_TRUE(engine.Drain().ok());  // completes: nothing hangs

  std::vector<ServeReply> replies = a.get().replies;
  for (ServeReply& r : b.get().replies) replies.push_back(std::move(r));
  ASSERT_EQ(replies.size(), kRows);
  uint64_t served = 0, not_found = 0;
  for (size_t i = 0; i < kRows; ++i) {
    const ServeReply& r = replies[i];
    if (r.status.ok()) {
      ++served;
      EXPECT_EQ(r.model_version, 1u) << "row " << i;
      EXPECT_LT(i, 28u) << "row " << i << " served after the removal";
    } else {
      EXPECT_TRUE(r.status.IsNotFound())
          << "row " << i << ": " << r.status.ToString();
      ++not_found;
    }
  }
  // Seven full batches of A were dispatched before B arrived.
  EXPECT_EQ(served, 28u);
  EXPECT_EQ(not_found, kRows - 28);
  EXPECT_EQ(engine.stats().failed, kRows - 28);

  EXPECT_TRUE(
      db.Execute("SELECT * FROM susy PREDICT BY m").status().IsNotFound());
}

TEST(DatabaseTest, RollbackMidRunNeverFailsARequest) {
  // Rollback during a live run is a version change, not an outage: every
  // request is answered OK, by either the new or the old current version.
  const std::string dir = MakeTempDir("db_rollback_midrun");
  Database db(dir, DeviceProfile::Ssd());
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse("learning_rate=0.005, max_epoch_num=2, "
                              "block_size=16KB, publish=m, seed=1")
                    .ValueOrDie();
  ASSERT_TRUE(db.Train(stmt).ok());
  stmt.params.Set("seed", "2");
  ASSERT_TRUE(db.Train(stmt).ok());  // v2 current, v1 retained

  ServeOptions serve;
  serve.max_batch = 4;
  serve.batch_deadline_s = 1.0;
  serve.num_workers = 2;
  serve.max_queue_depth = 0;
  serve.flush_on_idle = false;
  InferenceEngine engine(&db.models(), serve);
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<Tuple>& pool = *ds.train;
  std::vector<std::future<ServeReply>> replies;
  for (uint64_t i = 0; i < 64; ++i) {
    ServeRequest req;
    req.tuple = pool[i % pool.size()];
    req.model_id = "m";
    req.arrival_s = 1e-3 * static_cast<double>(i);
    if (i == 32) {
      req.on_arrival = [&db] {
        ASSERT_TRUE(db.RollbackModel(RollbackStatement{"m", 1}).ok());
      };
    }
    replies.push_back(engine.Submit(std::move(req)));
  }
  ASSERT_TRUE(engine.Drain().ok());

  std::set<uint64_t> versions;
  for (auto& f : replies) {
    const ServeReply r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    versions.insert(r.model_version);
  }
  EXPECT_EQ(versions, (std::set<uint64_t>{1, 2}));
  EXPECT_EQ(db.models().GetVersion("m").ValueOrDie(), 1u);
}

}  // namespace
}  // namespace corgipile
