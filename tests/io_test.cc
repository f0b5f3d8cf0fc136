// Tests for the data-interchange layer: LIBSVM text files, TFRecord-style
// record files with block indexes, model serialization, the detailed
// binary metrics, and the stream-adapter operator.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "db/stream_adapter_op.h"
#include "dataloader/record_file.h"
#include "dataset/catalog.h"
#include "dataset/libsvm.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/serialize.h"
#include "shuffle/hierarchical.h"

#include "drain_util.h"

namespace corgipile {
namespace {

TEST(LibsvmTest, ParseSparse) {
  std::istringstream in(
      "+1 3:0.5 17:-1.25\n"
      "-1 1:2 3:4 20:1\n"
      "\n"
      "1 5:1 # trailing comment\n");
  auto r = ParseLibsvm(in);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->tuples.size(), 3u);
  EXPECT_EQ(r->inferred_dim, 20u);
  EXPECT_FALSE(r->looks_dense);
  const Tuple& t0 = r->tuples[0];
  EXPECT_EQ(t0.label, 1.0);
  ASSERT_EQ(t0.feature_keys.size(), 2u);
  EXPECT_EQ(t0.feature_keys[0], 2u);  // 1-based 3 → 0-based 2
  EXPECT_FLOAT_EQ(t0.feature_values[1], -1.25f);
  EXPECT_EQ(r->tuples[1].label, -1.0);
  EXPECT_EQ(r->tuples[2].id, 2u);
}

TEST(LibsvmTest, ParseDenseDetected) {
  std::istringstream in(
      "+1 1:0.1 2:0.2 3:0.3\n"
      "-1 1:1.0 2:2.0 3:3.0\n");
  auto r = ParseLibsvm(in);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->looks_dense);
  EXPECT_EQ(r->inferred_dim, 3u);
  EXPECT_FALSE(r->tuples[0].sparse());
  EXPECT_FLOAT_EQ(r->tuples[1].feature_values[2], 3.0f);
}

TEST(LibsvmTest, ZeroLabelBinarized) {
  std::istringstream in("0 1:1\n1 1:1\n");
  auto r = ParseLibsvm(in, /*binarize_labels=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tuples[0].label, -1.0);
  EXPECT_EQ(r->tuples[1].label, 1.0);
  std::istringstream in2("0 1:1\n");
  auto r2 = ParseLibsvm(in2, /*binarize_labels=*/false);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->tuples[0].label, 0.0);
}

TEST(LibsvmTest, MalformedInputs) {
  {
    std::istringstream in("abc 1:1\n");
    EXPECT_TRUE(ParseLibsvm(in).status().IsCorruption());
  }
  {
    std::istringstream in("+1 notkv\n");
    EXPECT_TRUE(ParseLibsvm(in).status().IsCorruption());
  }
  {
    std::istringstream in("+1 0:1\n");  // 1-based indices required
    EXPECT_TRUE(ParseLibsvm(in).status().IsCorruption());
  }
  {
    std::istringstream in("+1 3:1 2:1\n");  // not increasing
    EXPECT_TRUE(ParseLibsvm(in).status().IsCorruption());
  }
  {
    std::istringstream in("+1 2:xyz\n");
    EXPECT_TRUE(ParseLibsvm(in).status().IsCorruption());
  }
}

TEST(LibsvmTest, RoundTripSparseAndDense) {
  auto spec = CatalogLookup("criteo", 0.002).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  std::ostringstream out;
  ASSERT_TRUE(WriteLibsvm(*ds.train, out).ok());
  std::istringstream in(out.str());
  auto r = ParseLibsvm(in);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->tuples.size(), ds.train->size());
  for (size_t i = 0; i < r->tuples.size(); ++i) {
    EXPECT_EQ(r->tuples[i].label, (*ds.train)[i].label);
    EXPECT_EQ(r->tuples[i].feature_keys, (*ds.train)[i].feature_keys);
    EXPECT_EQ(r->tuples[i].feature_values, (*ds.train)[i].feature_values);
  }
}

TEST(LibsvmTest, FileRoundTrip) {
  std::vector<Tuple> tuples{MakeSparseTuple(0, 1.0, {0, 4}, {1.5f, -2.0f}),
                            MakeSparseTuple(1, -1.0, {2}, {0.25f})};
  const std::string path = testing::TempDir() + "libsvm_rt.txt";
  ASSERT_TRUE(WriteLibsvmFile(tuples, path).ok());
  auto r = ReadLibsvmFile(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->tuples.size(), 2u);
  EXPECT_EQ(r->tuples[0].feature_keys, tuples[0].feature_keys);
  EXPECT_TRUE(ReadLibsvmFile("/nonexistent/x").status().IsIoError());
  std::remove(path.c_str());
}

TEST(RecordFileTest, WriteIndexRead) {
  auto spec = CatalogLookup("cifar10", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "records.bin";
  auto source = MaterializeRecordFile(ds.MakeSchema(), *ds.train, path,
                                      /*block_bytes=*/16 * 1024);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->num_tuples(), ds.train->size());
  EXPECT_GT((*source)->num_blocks(), 5u);

  // All blocks concatenated reproduce the dataset in order.
  std::vector<Tuple> all;
  for (uint32_t b = 0; b < (*source)->num_blocks(); ++b) {
    const size_t before = all.size();
    ASSERT_TRUE((*source)->ReadBlock(b, &all).ok());
    EXPECT_EQ(all.size() - before, (*source)->TuplesInBlock(b));
  }
  ASSERT_EQ(all.size(), ds.train->size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], (*ds.train)[i]);
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
}

TEST(RecordFileTest, IndexPersistence) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 100; ++i) {
    tuples.push_back(MakeDenseTuple(i, 1.0, {1.0f, 2.0f}));
  }
  const std::string path = testing::TempDir() + "records_idx.bin";
  {
    auto w = RecordFileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    for (const auto& t : tuples) ASSERT_TRUE((*w)->Append(t).ok());
    ASSERT_TRUE((*w)->Finish().ok());
    EXPECT_EQ((*w)->records_written(), 100u);
  }
  auto index = BuildRecordBlockIndex(path, 512);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->total_tuples, 100u);
  const std::string idx_path = path + ".idx";
  ASSERT_TRUE(index->WriteFile(idx_path).ok());
  auto reloaded = RecordBlockIndex::ReadFile(idx_path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->blocks.size(), index->blocks.size());
  EXPECT_EQ(reloaded->total_tuples, 100u);
  EXPECT_EQ(reloaded->blocks[1].offset, index->blocks[1].offset);
  std::remove(path.c_str());
  std::remove(idx_path.c_str());
}

TEST(RecordFileTest, IoAccountingSequentialVsRandom) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 200; ++i) {
    tuples.push_back(MakeDenseTuple(i, 1.0, {1.0f}));
  }
  Schema schema{"r", 1, false, LabelType::kBinary, 2};
  const std::string path = testing::TempDir() + "records_io.bin";
  auto source = MaterializeRecordFile(schema, tuples, path, 1024);
  ASSERT_TRUE(source.ok());
  SimClock clock;
  IoStats stats;
  (*source)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  std::vector<Tuple> sink;
  // Sequential pass: block 0 is a seek, the rest continue.
  for (uint32_t b = 0; b < (*source)->num_blocks(); ++b) {
    ASSERT_TRUE((*source)->ReadBlock(b, &sink).ok());
  }
  EXPECT_EQ(stats.random_reads, 1u);
  EXPECT_EQ(stats.sequential_reads, (*source)->num_blocks() - 1);
  // Jumping back is a seek.
  ASSERT_TRUE((*source)->ReadBlock(0, &sink).ok());
  EXPECT_EQ(stats.random_reads, 2u);
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
}

TEST(RecordFileTest, WorksWithCorgiPileStream) {
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "records_corgi.bin";
  auto source =
      MaterializeRecordFile(ds.MakeSchema(), *ds.train, path, 4 * 1024);
  ASSERT_TRUE(source.ok());
  auto stream = MakeCorgiPileStream(source->get(), ds.train->size() / 10, 3);
  ASSERT_TRUE(stream->StartEpoch(0).ok());
  const std::vector<uint64_t> ids = DrainIds(stream.get());
  const std::set<uint64_t> seen(ids.begin(), ids.end());
  ASSERT_TRUE(stream->status().ok());
  EXPECT_EQ(seen.size(), ds.train->size());
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  LogisticRegression model(16);
  Rng rng(3);
  for (auto& p : model.params()) p = rng.NextGaussian();
  const std::string path = testing::TempDir() + "model.bin";
  ASSERT_TRUE(SaveModelParams(model, path).ok());

  LogisticRegression loaded(16);
  ASSERT_TRUE(LoadModelParams(&loaded, path).ok());
  EXPECT_EQ(loaded.params(), model.params());
  std::remove(path.c_str());
}

TEST(SerializeTest, MismatchesRejected) {
  MlpModel mlp(4, 3, 2);
  mlp.InitParams(1);
  const std::string path = testing::TempDir() + "model_mlp.bin";
  ASSERT_TRUE(SaveModelParams(mlp, path).ok());

  LogisticRegression wrong_kind(4);
  EXPECT_TRUE(LoadModelParams(&wrong_kind, path).IsInvalidArgument());
  MlpModel wrong_size(5, 3, 2);
  EXPECT_TRUE(LoadModelParams(&wrong_size, path).IsInvalidArgument());
  EXPECT_TRUE(LoadModelParams(&mlp, "/nonexistent/m").IsIoError());
  // Truncated file → Corruption.
  {
    std::ofstream f(path, std::ios::trunc);
    f << "corgimodel_v1 mlp " << mlp.num_params() << "\nxx";
  }
  EXPECT_TRUE(LoadModelParams(&mlp, path).IsCorruption());
  std::remove(path.c_str());
}

TEST(BinaryReportTest, PerfectAndRandomAuc) {
  LogisticRegression model(1);
  model.params()[0] = 1.0;  // score = x
  std::vector<Tuple> tuples;
  // Perfectly separable by x.
  for (int i = 0; i < 50; ++i) {
    tuples.push_back(MakeDenseTuple(i, 1.0, {1.0f + i * 0.01f}));
    tuples.push_back(MakeDenseTuple(i, -1.0, {-1.0f - i * 0.01f}));
  }
  auto report = EvaluateBinaryDetailed(model, tuples);
  EXPECT_EQ(report.tp, 50u);
  EXPECT_EQ(report.tn, 50u);
  EXPECT_DOUBLE_EQ(report.auc, 1.0);
  EXPECT_DOUBLE_EQ(report.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(report.f1(), 1.0);

  // All-equal scores → AUC 0.5 by tie averaging.
  LogisticRegression zero(1);
  auto tied = EvaluateBinaryDetailed(zero, tuples);
  EXPECT_NEAR(tied.auc, 0.5, 1e-12);
}

TEST(BinaryReportTest, ConfusionCountsAndDegenerate) {
  LogisticRegression model(1);
  model.params()[0] = 1.0;
  std::vector<Tuple> tuples{
      MakeDenseTuple(0, 1.0, {1.0f}),    // tp
      MakeDenseTuple(1, 1.0, {-1.0f}),   // fn
      MakeDenseTuple(2, -1.0, {1.0f}),   // fp
      MakeDenseTuple(3, -1.0, {-1.0f}),  // tn
  };
  auto r = EvaluateBinaryDetailed(model, tuples);
  EXPECT_EQ(r.tp, 1u);
  EXPECT_EQ(r.fn, 1u);
  EXPECT_EQ(r.fp, 1u);
  EXPECT_EQ(r.tn, 1u);
  EXPECT_DOUBLE_EQ(r.precision(), 0.5);
  EXPECT_DOUBLE_EQ(r.recall(), 0.5);

  // Single-class input: AUC undefined → 0.
  std::vector<Tuple> one_class{MakeDenseTuple(0, 1.0, {1.0f})};
  EXPECT_EQ(EvaluateBinaryDetailed(model, one_class).auc, 0.0);
}

TEST(StreamAdapterTest, DrivesEpochsThroughVolcanoProtocol) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < 200; ++i) {
    tuples->push_back(MakeDenseTuple(i, 1.0, {0.0f}));
  }
  auto source = std::make_unique<InMemoryBlockSource>(
      Schema{"a", 1, false, LabelType::kBinary, 2}, tuples, 20);
  ShuffleOptions opts;
  opts.buffer_fraction = 0.2;
  auto stream =
      MakeTupleStream(ShuffleStrategy::kCorgiPile, source.get(), opts);
  ASSERT_TRUE(stream.ok());
  StreamAdapterOp op(std::move(*stream), std::move(source));
  ASSERT_TRUE(op.Init().ok());
  const std::vector<uint64_t> e0 = DrainIds(&op);
  ASSERT_TRUE(op.ReScan().ok());
  const std::vector<uint64_t> e1 = DrainIds(&op);
  ASSERT_TRUE(op.status().ok());
  EXPECT_EQ(e0.size(), 200u);
  EXPECT_EQ(e1.size(), 200u);
  EXPECT_NE(e0, e1);  // fresh shuffle per re-scan
  op.Close();
}

}  // namespace
}  // namespace corgipile
