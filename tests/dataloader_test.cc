// Unit tests for dataloader/: dataset APIs, DataLoader batching,
// CorgiPileDataset sharding, distributed training, and the §5.2
// single-vs-multi-process data-order equivalence.

#include <gtest/gtest.h>

#include <set>

#include "core/distribution.h"
#include "dataloader/data_loader.h"
#include "dataloader/record_file.h"
#include "dataloader/dataset_api.h"
#include "dataloader/distributed.h"
#include "dataset/catalog.h"
#include "ml/mlp.h"
#include "shuffle/hierarchical.h"
#include "util/stats.h"

#include "drain_util.h"

namespace corgipile {
namespace {

std::shared_ptr<std::vector<Tuple>> ClusteredToy(size_t n) {
  auto tuples = std::make_shared<std::vector<Tuple>>();
  for (size_t i = 0; i < n; ++i) {
    tuples->push_back(
        MakeDenseTuple(i, i < n / 2 ? -1.0 : 1.0, {static_cast<float>(i)}));
  }
  return tuples;
}

Schema ToySchema() { return Schema{"toy", 1, false, LabelType::kBinary, 2}; }

TEST(MapDatasetTest, RandomAccess) {
  auto tuples = ClusteredToy(50);
  InMemoryMapDataset ds(tuples);
  EXPECT_EQ(ds.size(), 50u);
  EXPECT_EQ(ds.Get(7).ValueOrDie().id, 7u);
  EXPECT_TRUE(ds.Get(50).status().IsOutOfRange());
}

TEST(CorgiPileDatasetTest, ShardsPartitionAllBlocks) {
  auto tuples = ClusteredToy(1000);
  InMemoryBlockSource src(ToySchema(), tuples, 50);  // 20 blocks
  const uint32_t P = 3;
  std::set<uint32_t> all_blocks;
  uint64_t total = 0;
  for (uint32_t w = 0; w < P; ++w) {
    CorgiPileDataset ds(&src, {/*buffer_tuples=*/100, /*seed=*/9});
    ASSERT_TRUE(ds.StartEpoch(0, w, P).ok());
    for (uint32_t b : ds.assigned_blocks()) {
      EXPECT_TRUE(all_blocks.insert(b).second) << "block assigned twice";
    }
    total += DrainIds(&ds).size();
    ASSERT_TRUE(ds.status().ok());
  }
  EXPECT_EQ(all_blocks.size(), 20u);
  EXPECT_EQ(total, 1000u);
}

TEST(CorgiPileDatasetTest, EpochsReshuffleBlocks) {
  auto tuples = ClusteredToy(1000);
  InMemoryBlockSource src(ToySchema(), tuples, 50);
  CorgiPileDataset ds(&src, {100, 9});
  ASSERT_TRUE(ds.StartEpoch(0, 0, 2).ok());
  auto e0 = ds.assigned_blocks();
  ASSERT_TRUE(ds.StartEpoch(1, 0, 2).ok());
  auto e1 = ds.assigned_blocks();
  EXPECT_NE(e0, e1);
}

TEST(CorgiPileDatasetTest, BadWorkerIdRejected) {
  auto tuples = ClusteredToy(100);
  InMemoryBlockSource src(ToySchema(), tuples, 10);
  CorgiPileDataset ds(&src, {10, 1});
  EXPECT_TRUE(ds.StartEpoch(0, 2, 2).IsInvalidArgument());
  EXPECT_TRUE(ds.StartEpoch(0, 0, 0).IsInvalidArgument());
}

TEST(DataLoaderTest, BatchesAndDropLast) {
  auto tuples = ClusteredToy(105);
  InMemoryBlockSource src(ToySchema(), tuples, 105);
  CorgiPileDataset ds(&src, {105, 3});
  DataLoader loader(&ds, {/*batch_size=*/20, 0, 1, /*drop_last=*/false});
  ASSERT_TRUE(loader.StartEpoch(0).ok());
  TupleBatch batch;
  int batches = 0;
  uint64_t total = 0;
  while (loader.NextBatch(&batch).ValueOrDie()) {
    ++batches;
    total += batch.size();
  }
  EXPECT_EQ(batches, 6);  // 5 full + 1 short
  EXPECT_EQ(total, 105u);

  DataLoader dropping(&ds, {20, 0, 1, /*drop_last=*/true});
  ASSERT_TRUE(dropping.StartEpoch(1).ok());
  batches = 0;
  while (dropping.NextBatch(&batch).ValueOrDie()) ++batches;
  EXPECT_EQ(batches, 5);
}

TEST(DistributedOrderTest, MultiProcessOrderMatchesSingleProcessQuality) {
  // §5.2: multi-process CorgiPile with per-worker buffers of BS/P induces a
  // global order statistically equivalent to single-process CorgiPile with
  // buffer BS. Compare randomness stats of both against clustered data.
  const size_t n = 2000;
  auto tuples = ClusteredToy(n);
  InMemoryBlockSource src(ToySchema(), tuples, 50);  // 40 blocks

  auto multi = TraceDistributedOrder(&src, /*workers=*/2,
                                     /*buffer_per_worker=*/100,
                                     /*microbatch=*/32, /*seed=*/3, 0);
  ASSERT_TRUE(multi.ok());
  ASSERT_EQ(multi->size(), n);
  std::set<uint64_t> uniq(multi->begin(), multi->end());
  EXPECT_EQ(uniq.size(), n);

  auto single_stream = MakeCorgiPileStream(&src, /*buffer_tuples=*/200, 3);
  auto single_trace = TraceEpoch(single_stream.get(), 0);
  ASSERT_TRUE(single_trace.ok());

  EmissionTrace multi_trace;
  multi_trace.ids = *multi;
  for (uint64_t id : *multi) {
    multi_trace.labels.push_back(id < n / 2 ? -1.0 : 1.0);
  }
  auto multi_stats = ComputeRandomnessStats(multi_trace, 20);
  auto single_stats = ComputeRandomnessStats(*single_trace, 20);

  EXPECT_LT(std::abs(multi_stats.position_id_correlation), 0.4);
  EXPECT_GT(multi_stats.mean_normalized_displacement, 0.15);
  // Label mixing quality within 0.2 of the single-process runs.
  EXPECT_NEAR(multi_stats.mean_window_label_imbalance,
              single_stats.mean_window_label_imbalance, 0.2);
}

TEST(DistributedTrainerTest, LearnsOnClusteredMulticlass) {
  auto spec = CatalogLookup("cifar10", 0.2).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  InMemoryBlockSource src(ds.MakeSchema(), ds.train, 100);
  MlpModel model(spec.dim, 32, spec.num_classes);
  DistributedTrainerOptions opts;
  opts.num_workers = 4;
  opts.global_batch_size = 256;
  opts.epochs = 8;
  opts.lr.initial = 0.2;
  opts.test_set = ds.test.get();
  opts.label_type = LabelType::kMulticlass;
  auto result = TrainDistributed(&model, &src, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->final_test_metric, 0.5);
  EXPECT_EQ(result->epochs.size(), 8u);
  EXPECT_EQ(result->epochs[0].tuples_seen, ds.train->size());
}

TEST(DistributedTrainerTest, DeterministicGivenSeed) {
  auto spec = CatalogLookup("cifar10", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  InMemoryBlockSource src(ds.MakeSchema(), ds.train, 100);
  DistributedTrainerOptions opts;
  opts.num_workers = 3;
  opts.global_batch_size = 96;
  opts.epochs = 2;
  opts.lr.initial = 0.05;
  opts.test_set = ds.test.get();

  MlpModel m1(spec.dim, 16, spec.num_classes);
  MlpModel m2(spec.dim, 16, spec.num_classes);
  auto r1 = TrainDistributed(&m1, &src, opts);
  auto r2 = TrainDistributed(&m2, &src, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(m1.params().size(), m2.params().size());
  for (size_t i = 0; i < m1.params().size(); ++i) {
    ASSERT_DOUBLE_EQ(m1.params()[i], m2.params()[i]);
  }
}

TEST(DistributedTrainerTest, WorkerCountDoesNotChangeQualityMuch) {
  // The paper's claim: P-worker CorgiPile converges like single-process.
  auto spec = CatalogLookup("cifar10", 0.1).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  InMemoryBlockSource src(ds.MakeSchema(), ds.train, 50);
  auto run = [&](uint32_t workers) {
    MlpModel model(spec.dim, 24, spec.num_classes);
    DistributedTrainerOptions opts;
    opts.num_workers = workers;
    opts.global_batch_size = 128;
    opts.epochs = 6;
    opts.lr.initial = 0.2;
    opts.test_set = ds.test.get();
    auto r = TrainDistributed(&model, &src, opts);
    EXPECT_TRUE(r.ok());
    return r->final_test_metric;
  };
  const double p1 = run(1);
  const double p4 = run(4);
  EXPECT_NEAR(p1, p4, 0.08);
  EXPECT_GT(p4, 0.4);
}

TEST(DistributedTrainerTest, TrainsOverRecordFileSource) {
  // The full §5 path: binary record file + block index + 4 workers.
  auto spec = CatalogLookup("cifar10", 0.1).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);
  const std::string path = testing::TempDir() + "ddp_records.bin";
  auto source = MaterializeRecordFile(ds.MakeSchema(), *ds.train, path,
                                      /*block_bytes=*/8 * 1024);
  ASSERT_TRUE(source.ok());
  MlpModel model(spec.dim, 24, spec.num_classes);
  DistributedTrainerOptions opts;
  opts.num_workers = 4;
  opts.global_batch_size = 128;
  opts.epochs = 6;
  opts.lr.initial = 0.2;
  opts.test_set = ds.test.get();
  auto result = TrainDistributed(&model, source->get(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->final_test_metric, 0.4);
  EXPECT_EQ(result->epochs[0].tuples_seen, ds.train->size());
  std::remove(path.c_str());
  std::remove((path + ".idx").c_str());
}

TEST(DistributedTrainerTest, InvalidArguments) {
  auto tuples = ClusteredToy(100);
  InMemoryBlockSource src(ToySchema(), tuples, 10);
  MlpModel model(1, 4, 2);
  DistributedTrainerOptions opts;
  opts.num_workers = 8;
  opts.global_batch_size = 4;  // smaller than worker count
  EXPECT_TRUE(
      TrainDistributed(&model, &src, opts).status().IsInvalidArgument());
  EXPECT_TRUE(
      TrainDistributed(nullptr, &src, opts).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corgipile
