// Session layer and multi-session concurrency (DESIGN.md §14): per-session
// stats and seed defaults, SHOW SESSIONS, snapshot isolation of in-flight
// merge scans against concurrent Insert, shard-count invariance of scan
// order, and bit-identical per-session results across seeded reruns of a
// concurrent TRAIN + PREDICT + INSERT workload. The concurrency tests are
// the tsan targets for the sharded engine.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/query.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "exec/shard_scan.h"
#include "session/session.h"
#include "session/workload.h"
#include "util/threadpool.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

Dataset SmallSusy(double scale = 0.05) {
  auto spec = CatalogLookup("susy", scale).ValueOrDie();
  return GenerateDataset(spec, DataOrder::kClustered);
}

std::vector<Tuple> StreamBatch(const Schema& schema, uint64_t first_id,
                               uint64_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<float> values(schema.dim);
    for (uint32_t d = 0; d < schema.dim; ++d) {
      values[d] = static_cast<float>((first_id + i + d) % 7) * 0.25f;
    }
    out.push_back(MakeDenseTuple(first_id + i, (first_id + i) % 2 ? 1.0 : -1.0,
                                 std::move(values)));
  }
  return out;
}

TEST(SessionSeedTest, DerivedSeedsDeterministicAndDistinct) {
  EXPECT_EQ(SessionSeedFor(42, 0), SessionSeedFor(42, 0));
  EXPECT_NE(SessionSeedFor(42, 0), SessionSeedFor(42, 1));
  EXPECT_NE(SessionSeedFor(42, 0), SessionSeedFor(43, 0));
  EXPECT_NE(SessionSeedFor(42, 1), SessionSeedFor(42, 2));
}

TEST(SessionTest, CreateSessionAssignsOrderedIds) {
  const std::string dir = MakeTempDir("sess_ids");
  Database db(dir, DeviceProfile::Ssd());
  // Id 1 is the implicit default session.
  EXPECT_EQ(db.default_session().id(), 1u);
  SessionOptions a;
  a.label = "alpha";
  auto sa = db.CreateSession(a);
  SessionOptions b;
  b.label = "beta";
  auto sb = db.CreateSession(b);
  EXPECT_EQ(sa->id(), 2u);
  EXPECT_EQ(sb->id(), 3u);

  auto infos = db.DescribeSessions();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].id, 1u);
  EXPECT_EQ(infos[0].label, "default");
  EXPECT_EQ(infos[1].label, "alpha");
  EXPECT_EQ(infos[2].label, "beta");

  // Destruction unregisters.
  sa.reset();
  EXPECT_EQ(db.DescribeSessions().size(), 2u);
}

TEST(SessionTest, StatsCountStatementsAndFailures) {
  const std::string dir = MakeTempDir("sess_stats");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy()).ok());
  auto s = db.CreateSession();

  auto trained = s->Execute(
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=2, block_size=64KB, buffer_fraction=0.1");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(s->Execute("SELECT * FROM susy PREDICT BY lr_0").ok());
  // Executable-but-failing statement counts as failed.
  EXPECT_TRUE(s->Execute("SELECT * FROM nope TRAIN BY lr")
                  .status()
                  .IsNotFound());

  SessionStats st = s->stats();
  EXPECT_EQ(st.statements, 3u);
  EXPECT_EQ(st.trains, 2u);
  EXPECT_EQ(st.predicts, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_GT(st.sim_seconds, 0.0);

  // SHOW SESSIONS is introspection, not workload: stats unchanged.
  auto show = s->Execute("SHOW SESSIONS");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  EXPECT_EQ(s->stats().statements, 3u);
  EXPECT_NE(show->find("2 session(s)"), std::string::npos) << *show;
  EXPECT_NE(show->find("session 1 [default]"), std::string::npos) << *show;
  EXPECT_NE(show->find("trains=2"), std::string::npos) << *show;
}

TEST(SessionTest, StatementSeedDefaultsToSessionSeed) {
  const std::string dir = MakeTempDir("sess_seed");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy()).ok());

  auto train_on = [&](Session* s, const std::string& publish) {
    auto r = s->Execute(
        "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
        "max_epoch_num=3, block_size=64KB, buffer_fraction=0.1, publish=" +
        publish);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };

  SessionOptions seven;
  seven.seed = 7;
  auto s1 = db.CreateSession(seven);
  auto s2 = db.CreateSession(seven);
  SessionOptions eight;
  eight.seed = 8;
  auto s3 = db.CreateSession(eight);

  train_on(s1.get(), "m7a");
  train_on(s2.get(), "m7b");
  train_on(s3.get(), "m8");

  const auto p7a = db.models().Get("m7a").ValueOrDie()->params();
  const auto p7b = db.models().Get("m7b").ValueOrDie()->params();
  const auto p8 = db.models().Get("m8").ValueOrDie()->params();
  EXPECT_EQ(p7a, p7b);  // same session seed, no seed= → identical run
  EXPECT_NE(p7a, p8);   // different session seed → different shuffles
}

TEST(SessionTest, CancelledSessionRefusesStatements) {
  const std::string dir = MakeTempDir("sess_cancel");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy()).ok());
  auto s = db.CreateSession();
  s->Cancel();
  EXPECT_TRUE(s->Execute("SELECT * FROM susy TRAIN BY lr")
                  .status()
                  .IsCancelled());
  // Cancellation gates before accounting: nothing counted.
  EXPECT_EQ(s->stats().statements, 0u);
}

TEST(SessionTest, DeadlineExpiresOnSimulatedClock) {
  const std::string dir = MakeTempDir("sess_deadline");
  Database db(dir, DeviceProfile::Hdd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy()).ok());
  SessionOptions opts;
  opts.deadline_seconds = 1e-9;
  auto s = db.CreateSession(opts);
  // First statement admits (no simulated time consumed yet) and bills I/O
  // well past the budget; the next statement must be rejected.
  ASSERT_TRUE(s->Execute("SELECT * FROM susy TRAIN BY lr WITH "
                         "max_epoch_num=1, block_size=64KB")
                  .ok());
  EXPECT_TRUE(s->Execute("SELECT * FROM susy PREDICT BY lr_0")
                  .status()
                  .IsDeadlineExceeded());
}

// --- snapshot isolation ----------------------------------------------------

TEST(SessionSnapshotTest, InFlightMergeScanHoldsSnapshotAcrossInsert) {
  const std::string dir = MakeTempDir("sess_snap_iso");
  Database db(dir, DeviceProfile::Ssd());
  Dataset ds = SmallSusy();
  ASSERT_TRUE(db.RegisterDataset("susy", ds, /*num_shards=*/4).ok());
  ShardedTable* table = db.GetShardedTable("susy").ValueOrDie();

  const ShardedSnapshot snap = table->Snapshot();
  const uint64_t n0 = snap.num_tuples();
  ASSERT_GT(n0, 0u);

  // Merge-scan through the channel/pool path; halfway in, a *concurrent*
  // session appends to the table. The in-flight scan must neither see the
  // new tuples nor block the insert.
  ThreadPool pool(3);
  ShardScanOptions opts;
  opts.pool = &pool;
  opts.batch_tuples = 16;
  auto inserter = db.CreateSession();
  uint64_t seen = 0;
  bool inserted = false;
  Status st = MergeScanSnapshot(snap, opts, [&](const RowView&) {
    if (++seen == n0 / 2 && !inserted) {
      inserted = true;
      Status ins =
          inserter->Insert("susy", StreamBatch(ds.MakeSchema(), 1u << 20, 33));
      EXPECT_TRUE(ins.ok()) << ins.ToString();
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(inserted);
  EXPECT_EQ(seen, n0);                // old snapshot: old count, exactly
  EXPECT_EQ(snap.num_tuples(), n0);   // snapshot is immutable

  // A fresh snapshot observes the published append.
  EXPECT_EQ(table->Snapshot().num_tuples(), n0 + 33);
}

TEST(SessionSnapshotTest, MergeScanOrderIndependentOfPool) {
  const std::string dir = MakeTempDir("sess_scan_order");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy(), /*num_shards=*/3).ok());
  const ShardedSnapshot snap =
      db.GetShardedTable("susy").ValueOrDie()->Snapshot();

  std::vector<Tuple> inline_order;
  ASSERT_TRUE(CollectSnapshot(snap, ShardScanOptions{}, &inline_order).ok());

  ThreadPool pool(3);
  ShardScanOptions opts;
  opts.pool = &pool;
  opts.batch_tuples = 7;  // ragged batches must not perturb the merge
  std::vector<Tuple> pooled_order;
  ASSERT_TRUE(CollectSnapshot(snap, opts, &pooled_order).ok());

  ASSERT_EQ(inline_order.size(), pooled_order.size());
  for (size_t i = 0; i < inline_order.size(); ++i) {
    ASSERT_EQ(inline_order[i].id, pooled_order[i].id) << "at " << i;
    ASSERT_EQ(inline_order[i].label, pooled_order[i].label) << "at " << i;
  }
}

// --- shard-count invariance ------------------------------------------------

TEST(ShardInvarianceTest, PredictIsExactlyShardCountInvariant) {
  const std::string dir = MakeTempDir("sess_shard_inv");
  Database db(dir, DeviceProfile::Ssd());
  Dataset ds = SmallSusy();
  ASSERT_TRUE(db.RegisterDataset("susy1", ds, /*num_shards=*/1).ok());
  ASSERT_TRUE(db.RegisterDataset("susy4", ds, /*num_shards=*/4).ok());

  auto trained = db.Execute(
      "SELECT * FROM susy1 TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=3, block_size=64KB, buffer_fraction=0.1, seed=5, "
      "publish=m");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  auto p1 = db.Predict(PredictStatement{"susy1", "m"});
  auto p4 = db.Predict(PredictStatement{"susy4", "m"});
  ASSERT_TRUE(p1.ok() && p4.ok());
  EXPECT_EQ(p1->count, p4->count);
  // The cyclic merge reconstructs insertion order exactly, so the scan
  // feeds the same tuple sequence either way: metrics match bit-for-bit.
  EXPECT_EQ(p1->metric, p4->metric);
  EXPECT_EQ(p1->mean_loss, p4->mean_loss);
}

TEST(ShardInvarianceTest, ShardedTrainIsRerunDeterministic) {
  const std::string dir = MakeTempDir("sess_shard_rerun");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", SmallSusy(), /*num_shards=*/4).ok());
  const std::string stmt =
      "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
      "max_epoch_num=3, block_size=32KB, buffer_fraction=0.1, seed=11, "
      "publish=";
  ASSERT_TRUE(db.Execute(stmt + "ra").ok());
  ASSERT_TRUE(db.Execute(stmt + "rb").ok());
  EXPECT_EQ(db.models().Get("ra").ValueOrDie()->params(),
            db.models().Get("rb").ValueOrDie()->params());
}

// --- concurrent multi-session workloads ------------------------------------

struct ConcurrentRunResult {
  std::vector<double> params_a;
  std::vector<double> params_b;
  double metric_a = 0.0, loss_a = 0.0;
  double metric_b = 0.0, loss_b = 0.0;
  uint64_t stream_count = 0;
  uint64_t stream_checksum = 0;
};

// TRAIN + PREDICT on two sessions while a third streams inserts into a
// separate table. Everything returned is timing-free, so a rerun with the
// same seed must compare equal field-for-field.
ConcurrentRunResult RunConcurrentWorkload(const std::string& dir,
                                          const Dataset& ds, uint64_t seed) {
  Database db(dir, DeviceProfile::Ssd());
  EXPECT_TRUE(db.RegisterDataset("susy", ds, /*num_shards=*/2).ok());
  EXPECT_TRUE(
      db.CreateTable("stream", ds.MakeSchema(), {}, false, Page::kDefaultSize,
                     /*num_shards=*/3)
          .ok());

  SessionOptions oa, ob, oc;
  oa.seed = SessionSeedFor(seed, 0);
  oa.label = "trainer";
  ob.seed = SessionSeedFor(seed, 1);
  ob.label = "predictor";
  oc.seed = SessionSeedFor(seed, 2);
  oc.label = "ingest";
  auto sa = db.CreateSession(oa);
  auto sb = db.CreateSession(ob);
  auto sc = db.CreateSession(oc);

  ConcurrentRunResult out;
  auto train = [&](Session* s, const std::string& publish, double lr) {
    TrainStatement t;
    t.table_name = "susy";
    t.model_kind = "lr";
    t.params = Params::Parse("max_epoch_num=3, block_size=64KB, "
                             "buffer_fraction=0.1, publish=" +
                             publish)
                   .ValueOrDie();
    t.params.Set("learning_rate", std::to_string(lr));
    auto r = s->Train(t);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };

  std::thread ta([&] {
    train(sa.get(), "ma", 0.005);
    auto p = sa->Predict(PredictStatement{"susy", "ma"});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    out.metric_a = p->metric;
    out.loss_a = p->mean_loss;
  });
  std::thread tb([&] {
    train(sb.get(), "mb", 0.01);
    auto p = sb->Predict(PredictStatement{"susy", "mb"});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    out.metric_b = p->metric;
    out.loss_b = p->mean_loss;
  });
  std::thread tc([&] {
    const Schema schema = ds.MakeSchema();
    for (uint64_t batch = 0; batch < 8; ++batch) {
      Status st = sc->Insert("stream", StreamBatch(schema, batch * 32, 32));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  });
  ta.join();
  tb.join();
  tc.join();

  out.params_a = db.models().Get("ma").ValueOrDie()->params();
  out.params_b = db.models().Get("mb").ValueOrDie()->params();

  ShardedTable* stream = db.GetShardedTable("stream").ValueOrDie();
  const ShardedSnapshot snap = stream->Snapshot();
  out.stream_count = snap.num_tuples();
  std::vector<Tuple> tuples;
  EXPECT_TRUE(CollectSnapshot(snap, ShardScanOptions{}, &tuples).ok());
  // Order-sensitive checksum: insertion order must be reconstructed
  // identically on every rerun.
  for (size_t i = 0; i < tuples.size(); ++i) {
    out.stream_checksum = out.stream_checksum * 1315423911u +
                          tuples[i].id * (i + 1);
  }
  return out;
}

TEST(MultiSessionTest, ConcurrentTrainPredictInsertBitIdenticalReruns) {
  Dataset ds = SmallSusy();
  ConcurrentRunResult r1 =
      RunConcurrentWorkload(MakeTempDir("sess_conc_1"), ds, 42);
  ConcurrentRunResult r2 =
      RunConcurrentWorkload(MakeTempDir("sess_conc_2"), ds, 42);

  EXPECT_EQ(r1.params_a, r2.params_a);
  EXPECT_EQ(r1.params_b, r2.params_b);
  EXPECT_EQ(r1.metric_a, r2.metric_a);
  EXPECT_EQ(r1.loss_a, r2.loss_a);
  EXPECT_EQ(r1.metric_b, r2.metric_b);
  EXPECT_EQ(r1.loss_b, r2.loss_b);
  EXPECT_EQ(r1.stream_count, r2.stream_count);
  EXPECT_EQ(r1.stream_count, 8u * 32u);
  EXPECT_EQ(r1.stream_checksum, r2.stream_checksum);

  // Zero cross-session interference: the concurrent run's models match a
  // single-session reference with the same per-session seed.
  const std::string dir = MakeTempDir("sess_conc_ref");
  Database ref(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(ref.RegisterDataset("susy", ds, /*num_shards=*/2).ok());
  SessionOptions oa;
  oa.seed = SessionSeedFor(42, 0);
  auto s = ref.CreateSession(oa);
  TrainStatement t;
  t.table_name = "susy";
  t.model_kind = "lr";
  t.params = Params::Parse("learning_rate=0.005, max_epoch_num=3, "
                           "block_size=64KB, buffer_fraction=0.1, publish=ma")
                 .ValueOrDie();
  ASSERT_TRUE(s->Train(t).ok());
  EXPECT_EQ(ref.models().Get("ma").ValueOrDie()->params(), r1.params_a);
}

TEST(MultiSessionTest, WorkloadDriverIsDeterministicAcrossRuns) {
  Dataset ds = SmallSusy();
  auto run = [&](const std::string& dir) {
    Database db(dir, DeviceProfile::Ssd());
    EXPECT_TRUE(db.RegisterDataset("susy", ds, /*num_shards=*/2).ok());
    std::vector<SessionScript> scripts;
    for (int k = 0; k < 3; ++k) {
      SessionScript script;
      script.label = "worker" + std::to_string(k);
      const std::string model = "w" + std::to_string(k);
      script.statements = {
          "SELECT * FROM susy TRAIN BY lr WITH learning_rate=0.005, "
          "max_epoch_num=2, block_size=64KB, buffer_fraction=0.1, publish=" +
              model,
          // EVALUATE output carries metrics only (no simulated timing), so
          // the whole line must reproduce bit-for-bit.
          "SELECT * FROM susy EVALUATE BY " + model,
      };
      scripts.push_back(std::move(script));
    }
    MultiSessionOptions opts;
    opts.seed = 42;
    return RunMultiSessionWorkload(&db, scripts, opts);
  };

  auto r1 = run(MakeTempDir("sess_driver_1"));
  auto r2 = run(MakeTempDir("sess_driver_2"));
  ASSERT_EQ(r1.size(), 3u);
  ASSERT_EQ(r2.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(r1[k].status.ok()) << r1[k].status.ToString();
    EXPECT_EQ(r1[k].session_id, r2[k].session_id);
    EXPECT_EQ(r1[k].session_seed, SessionSeedFor(42, k));
    EXPECT_EQ(r1[k].arrivals, r2[k].arrivals);
    ASSERT_EQ(r1[k].outputs.size(), 2u);
    EXPECT_EQ(r1[k].outputs[1], r2[k].outputs[1]) << "session " << k;
    EXPECT_NE(r1[k].outputs[0].find("trained model w" + std::to_string(k)),
              std::string::npos)
        << r1[k].outputs[0];
  }
  // Arrival schedules are per-session streams: distinct seeds, distinct
  // stamps.
  EXPECT_NE(r1[0].arrivals, r1[1].arrivals);
}

}  // namespace
}  // namespace corgipile
