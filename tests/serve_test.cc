// Tests for src/serve/: the versioned model registry, the micro-batched
// inference engine (determinism, admission control, deadlines,
// cancellation, hot-swap, multi-row submissions), live concurrent
// sessions, and the SQL PREDICT BY path that streams through the engine
// (checked against the per-request replay it replaced).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>

#include "db/database.h"
#include "db/model_store.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "exec/shard_scan.h"
#include "ml/linear_models.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "serve/inference_engine.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<Tuple> MakeTuples(uint64_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<float> values(dim);
    for (float& v : values) v = static_cast<float>(rng.NextGaussian());
    out.push_back(
        MakeDenseTuple(i, rng.NextBool() ? 1.0 : -1.0, std::move(values)));
  }
  return out;
}

ServeOptions SmallServeOptions() {
  ServeOptions opts;
  opts.max_batch = 8;
  opts.batch_deadline_s = 2e-3;
  opts.num_workers = 2;
  opts.max_queue_depth = 64;
  opts.per_batch_overhead_s = 1e-3;
  opts.per_tuple_s = 5e-5;
  return opts;
}

// --- ModelStore: versioning and snapshot lifetime ---

TEST(ModelStoreVersionTest, PublishBumpsAndSnapshotsOutliveRemove) {
  ModelStore store;
  const std::string id = store.Put(std::make_unique<LogisticRegression>(4));
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 1u);

  auto v1 = store.GetSnapshot(id).ValueOrDie();
  EXPECT_EQ(v1.version, 1u);

  EXPECT_EQ(store.Publish(id, std::make_unique<LogisticRegression>(4))
                .ValueOrDie(),
            2u);
  auto v2 = store.GetSnapshot(id).ValueOrDie();
  EXPECT_EQ(v2.version, 2u);
  EXPECT_NE(v1.model.get(), v2.model.get());

  // The old snapshot stays usable after Remove (copy-on-write registry).
  ASSERT_TRUE(store.Remove(id).ok());
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  Tuple t = MakeDenseTuple(0, 1.0, {0.1f, 0.2f, 0.3f, 0.4f});
  (void)v1.model->Predict(t);  // ASan would flag a use-after-free here

  // Publish is an upsert: a fresh id starts again at version 1.
  EXPECT_EQ(store.Publish(id, std::make_unique<LogisticRegression>(4))
                .ValueOrDie(),
            1u);
}

TEST(ModelStoreVersionTest, ConcurrentGetPublishRemove) {
  ModelStore store;
  const std::string id = store.Put(std::make_unique<LogisticRegression>(8));
  Tuple t = MakeTuples(1, 8, 3)[0];
  std::atomic<bool> stop{false};

  std::thread publisher([&] {
    for (int i = 0; i < 200; ++i) {
      auto published =
          store.Publish(id, std::make_unique<LogisticRegression>(8));
      ASSERT_TRUE(published.ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto snap = store.GetSnapshot(id);
        ASSERT_TRUE(snap.ok());
        (void)snap->model->Predict(t);
      }
    });
  }
  publisher.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(store.GetVersion(id).ValueOrDie(), 201u);
}

// --- generated schedules ---

TEST(WorkloadTest, PoissonScheduleDeterministicAndMonotone) {
  auto a = PoissonSchedule(500, 1000.0, 7);
  auto b = PoissonSchedule(500, 1000.0, 7);
  EXPECT_EQ(a, b);
  auto c = PoissonSchedule(500, 1000.0, 8);
  EXPECT_NE(a, c);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean interarrival ≈ 1/rate.
  EXPECT_NEAR(a.back() / 500.0, 1e-3, 3e-4);
}

// --- engine behaviour on generated workloads ---

struct ServeFixture {
  ModelStore store;
  std::string id;
  std::vector<Tuple> tuples;

  ServeFixture() {
    id = store.Put(std::make_unique<LogisticRegression>(8));
    tuples = MakeTuples(64, 8, 11);
  }
};

TEST(InferenceEngineTest, RerunIsBitIdentical) {
  ServeFixture f;
  WorkloadOptions w;
  w.num_requests = 800;
  w.offered_load_rps = 4000.0;
  w.seed = 21;
  auto r1 = RunGeneratedWorkload(&f.store, f.id, f.tuples,
                                 SmallServeOptions(), w);
  auto r2 = RunGeneratedWorkload(&f.store, f.id, f.tuples,
                                 SmallServeOptions(), w);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->stats, r2->stats) << r1->stats.ToString() << "\n vs \n"
                                  << r2->stats.ToString();
  EXPECT_EQ(r1->stats.submitted, 800u);
  EXPECT_GT(r1->stats.completed, 0u);
  EXPECT_GT(r1->stats.mean_batch_occupancy, 1.0);  // batching happened
}

TEST(InferenceEngineTest, AdmissionControlShedsUnderOverload) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 16;
  opts.max_batch = 4;  // capacity ≈ 2 workers / 0.3ms-per-tuple ≈ 6.6k rps
  WorkloadOptions w;
  w.num_requests = 2000;
  w.offered_load_rps = 50000.0;  // far past capacity
  w.seed = 5;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->shed, 0u);
  EXPECT_GT(r->ok, 0u);
  EXPECT_EQ(r->ok + r->shed + r->expired + r->cancelled + r->failed, 2000u);
  // Accepted requests never waited behind more than the queue bound, so
  // the tail is bounded by (depth/batch+1 batches) of service plus the
  // batch deadline — generous factor-of-2 margin here.
  const double service_per_batch =
      opts.per_batch_overhead_s + opts.max_batch * opts.per_tuple_s;
  const double bound =
      2.0 * (opts.max_queue_depth / opts.max_batch + 1) * service_per_batch +
      opts.batch_deadline_s;
  EXPECT_LT(r->stats.latency.p99, bound);
}

TEST(InferenceEngineTest, NoSheddingWhenQueueUnbounded) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  WorkloadOptions w;
  w.num_requests = 500;
  w.offered_load_rps = 50000.0;
  w.seed = 5;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->shed, 0u);
  EXPECT_EQ(r->ok, 500u);
}

TEST(InferenceEngineTest, PerRequestDeadlinesExpire) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;  // no shedding: overload turns into queueing
  WorkloadOptions w;
  w.num_requests = 1000;
  w.offered_load_rps = 50000.0;
  w.seed = 9;
  w.deadline_s = 5e-3;  // the backlog quickly exceeds 5ms of wait
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->expired, 0u);
  EXPECT_GT(r->ok, 0u);
  EXPECT_EQ(r->expired, r->stats.expired);
}

TEST(InferenceEngineTest, CancelledRequestsAreRejected) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;  // live mode: no generated schedule
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());

  ServeRequest cancelled;
  cancelled.tuple = f.tuples[0];
  cancelled.model_id = f.id;
  cancelled.token.Cancel(Status::Cancelled("caller went away"));
  auto cancelled_fut = engine.Submit(std::move(cancelled));

  ServeRequest live;
  live.tuple = f.tuples[1];
  live.model_id = f.id;
  auto live_fut = engine.Submit(std::move(live));

  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_TRUE(cancelled_fut.get().status.IsCancelled());
  EXPECT_TRUE(live_fut.get().status.ok());
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST(InferenceEngineTest, UnknownModelFailsRequestsNotEngine) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());
  ServeRequest req;
  req.tuple = f.tuples[0];
  req.model_id = "ghost";
  auto fut = engine.Submit(std::move(req));
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_TRUE(fut.get().status.IsNotFound());
  EXPECT_EQ(engine.stats().failed, 1u);
}

TEST(InferenceEngineTest, HotSwapServesBothVersionsWithZeroFailures) {
  ServeFixture f;
  WorkloadOptions w;
  w.num_requests = 1200;
  w.offered_load_rps = 4000.0;
  w.seed = 33;
  w.swap_at_request = 600;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  auto r = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->failed, 0u);
  EXPECT_EQ(r->ok, 1200u);
  EXPECT_EQ(r->versions_seen, 2u);
  const auto& by_version = r->stats.served_by_version.at(f.id);
  ASSERT_EQ(by_version.size(), 2u);
  uint64_t total = 0;
  for (const auto& [version, count] : by_version) {
    EXPECT_GT(count, 0u);
    total += count;
  }
  EXPECT_EQ(total, 1200u);

  // Rerun: identical except the version numbers keep climbing.
  auto r2 = RunGeneratedWorkload(&f.store, f.id, f.tuples, opts, w);
  ASSERT_TRUE(r2.ok());
  ServeStats a = r->stats, b = r2->stats;
  a.served_by_version.clear();
  b.served_by_version.clear();
  a.quality_by_version.clear();
  b.quality_by_version.clear();
  EXPECT_EQ(a, b);
}

// --- live concurrent sessions (the tsan preset exercises this heavily) ---

TEST(InferenceEngineTest, ManyConcurrentSessions) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  opts.max_queue_depth = 0;
  opts.num_workers = 4;
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kSessions = 8;
  constexpr int kPerSession = 50;
  std::atomic<uint64_t> ok_replies{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (int i = 0; i < kPerSession; ++i) {
        ServeRequest req;
        req.tuple = f.tuples[(s * kPerSession + i) % f.tuples.size()];
        req.model_id = f.id;
        auto fut = engine.Submit(std::move(req));
        if (fut.get().status.ok()) ok_replies.fetch_add(1);
      }
    });
  }
  // Concurrent hot-swaps while sessions are in flight.
  std::thread publisher([&] {
    for (int i = 0; i < 20; ++i) {
      auto snap = f.store.GetSnapshot(f.id);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(f.store.Publish(f.id, snap->model->Clone()).ok());
    }
  });
  for (auto& th : sessions) th.join();
  publisher.join();
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_EQ(ok_replies.load(), kSessions * kPerSession);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kSessions * kPerSession));
  EXPECT_EQ(stats.shed + stats.expired + stats.cancelled + stats.failed, 0u);
}

// Regression: MLP (and softmax) inference once used shared mutable scratch,
// racing when several engine workers predicted on one snapshot. Drive an
// MlpModel snapshot from concurrent batches so tsan covers the path.
TEST(InferenceEngineTest, ConcurrentMlpPredictsOnSharedSnapshot) {
  ModelStore store;
  const std::string id =
      store.Put(std::make_unique<MlpModel>(8, 16, 2));
  // MLP treats the label as a class index.
  std::vector<Tuple> tuples = MakeTuples(64, 8, 13);
  for (auto& t : tuples) t.label = t.label > 0.0 ? 1.0 : 0.0;

  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = true;
  opts.max_queue_depth = 0;
  opts.num_workers = 4;
  opts.max_batch = 4;  // many small batches in flight at once
  InferenceEngine engine(&store, opts);
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<uint64_t> ok_replies{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.emplace_back([&, s] {
      for (int i = 0; i < 64; ++i) {
        ServeRequest req;
        req.tuple = tuples[(s * 64 + i) % tuples.size()];
        req.model_id = id;
        auto fut = engine.Submit(std::move(req));
        if (fut.get().status.ok()) ok_replies.fetch_add(1);
      }
    });
  }
  for (auto& th : sessions) th.join();
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(ok_replies.load(), 256u);
}

// --- SQL PREDICT BY path through the Database ---

struct DbFixture {
  std::string dir;
  Database db;

  DbFixture()
      : dir(MakeTempDir("serve_db")), db(dir, DeviceProfile::Ssd()) {
    auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
    Dataset ds = GenerateDataset(spec, DataOrder::kShuffled);
    EXPECT_TRUE(db.RegisterDataset("susy", ds).ok());
  }
};

TEST(SqlPredictTest, UnknownModelIsNotFound) {
  DbFixture f;
  EXPECT_TRUE(f.db.Execute("SELECT * FROM susy PREDICT BY nobody")
                  .status()
                  .IsNotFound());
}

TEST(SqlPredictTest, DimensionMismatchIsInvalidArgument) {
  DbFixture f;
  // A model trained for a different feature width than the susy table.
  const uint32_t wrong_dim =
      f.db.GetTable("susy").ValueOrDie()->schema().dim + 3;
  const std::string id =
      f.db.models().Put(std::make_unique<LogisticRegression>(wrong_dim));
  auto result = f.db.Execute("SELECT * FROM susy PREDICT BY " + id);
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(SqlPredictTest, PredictReportsServeStatsAndIsDeterministic) {
  DbFixture f;
  auto trained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=2, publish=champion");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_NE(trained->find("trained model champion"), std::string::npos);

  PredictStatement stmt;
  stmt.table_name = "susy";
  stmt.model_id = "champion";
  auto p1 = f.db.Predict(stmt);
  auto p2 = f.db.Predict(stmt);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_TRUE(p2.ok());
  EXPECT_GT(p1->count, 0u);
  EXPECT_EQ(p1->serve.completed, p1->count);
  EXPECT_EQ(p1->serve.shed, 0u);  // SQL path admits the whole scan
  EXPECT_GT(p1->serve.num_batches, 0u);
  EXPECT_EQ(p1->serve, p2->serve);  // same scan, same stats, bit-for-bit
  EXPECT_DOUBLE_EQ(p1->metric, p2->metric);

  // Retraining under the same alias hot-swaps (version 2).
  auto retrained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=1, publish=champion");
  ASSERT_TRUE(retrained.ok());
  EXPECT_NE(retrained->find("champion (v2)"), std::string::npos);
  EXPECT_EQ(f.db.models().GetVersion("champion").ValueOrDie(), 2u);
}

TEST(SqlPredictTest, ManyConcurrentPredictSessions) {
  DbFixture f;
  auto trained = f.db.Execute(
      "SELECT * FROM susy TRAIN BY lr WITH max_epoch_num=1, publish=m");
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 4; ++s) {
    sessions.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto r = f.db.Execute("SELECT * FROM susy PREDICT BY m");
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : sessions) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- multi-row submissions ---

/// SubmitBatch with its completion delivered through a future.
std::future<ServeBatchReply> SubmitRows(InferenceEngine& engine,
                                        ServeBatchRequest req) {
  auto promise = std::make_shared<std::promise<ServeBatchReply>>();
  std::future<ServeBatchReply> fut = promise->get_future();
  engine.SubmitBatch(std::move(req), [promise](ServeBatchReply reply) {
    promise->set_value(std::move(reply));
  });
  return fut;
}

TEST(InferenceEngineTest, MultiRowSubmissionMatchesOneRowSubmissions) {
  // n rows in one submission are served exactly like n one-row requests
  // with the same fields: same stats, same replies, rows handed back.
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.flush_on_idle = false;
  opts.max_queue_depth = 0;

  InferenceEngine one_row(&f.store, opts);
  ASSERT_TRUE(one_row.Start().ok());
  std::vector<std::future<ServeReply>> singles;
  for (const Tuple& t : f.tuples) {
    ServeRequest req;
    req.tuple = t;
    req.model_id = f.id;
    singles.push_back(one_row.Submit(std::move(req)));
  }
  ASSERT_TRUE(one_row.Drain().ok());

  InferenceEngine multi_row(&f.store, opts);
  ASSERT_TRUE(multi_row.Start().ok());
  // 64 rows in submissions of 20/20/24: micro-batches of 8 straddle them.
  std::vector<std::future<ServeBatchReply>> blocks;
  const size_t bounds[] = {0, 20, 40, 64};
  for (size_t k = 0; k + 1 < std::size(bounds); ++k) {
    ServeBatchRequest req;
    for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
      req.rows.Append(f.tuples[i]);
    }
    req.model_id = f.id;
    blocks.push_back(SubmitRows(multi_row, std::move(req)));
  }
  ASSERT_TRUE(multi_row.Drain().ok());

  EXPECT_TRUE(one_row.stats() == multi_row.stats())
      << one_row.stats().ToString() << "\n vs \n"
      << multi_row.stats().ToString();
  size_t next = 0;
  for (auto& fut : blocks) {
    ServeBatchReply block = fut.get();
    ASSERT_EQ(block.rows.size(), block.replies.size());
    for (size_t i = 0; i < block.replies.size(); ++i, ++next) {
      const ServeReply expected = singles[next].get();
      const ServeReply& got = block.replies[i];
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(block.rows.id(i), f.tuples[next].id);
      EXPECT_EQ(got.value, expected.value) << "row " << next;
      EXPECT_EQ(got.loss, expected.loss) << "row " << next;
      EXPECT_EQ(got.correct, expected.correct) << "row " << next;
      EXPECT_EQ(got.model_version, expected.model_version);
      EXPECT_EQ(got.latency_s, expected.latency_s) << "row " << next;
    }
  }
  EXPECT_EQ(next, f.tuples.size());
}

TEST(InferenceEngineTest, EmptyAndCancelledSubmissionsComplete) {
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());

  ServeBatchRequest empty;
  empty.model_id = f.id;
  auto empty_fut = SubmitRows(engine, std::move(empty));

  ServeBatchRequest cancelled;
  for (size_t i = 0; i < 5; ++i) cancelled.rows.Append(f.tuples[i]);
  cancelled.model_id = f.id;
  cancelled.token.Cancel(Status::Cancelled("caller went away"));
  auto cancelled_fut = SubmitRows(engine, std::move(cancelled));
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_TRUE(empty_fut.get().replies.empty());
  const ServeBatchReply block = cancelled_fut.get();
  ASSERT_EQ(block.replies.size(), 5u);
  for (const ServeReply& r : block.replies) {
    EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  }
  EXPECT_EQ(engine.stats().cancelled, 5u);
  EXPECT_EQ(engine.stats().submitted, 5u);

  // After Drain, intake is closed: the rows fail, the completion still runs.
  ServeBatchRequest late;
  late.rows.Append(f.tuples[0]);
  late.model_id = f.id;
  const ServeBatchReply refused = SubmitRows(engine, std::move(late)).get();
  ASSERT_EQ(refused.replies.size(), 1u);
  EXPECT_FALSE(refused.replies[0].status.ok());
}

TEST(InferenceEngineTest, ConcurrentMultiRowSubmissions) {
  // Live mode: several sessions submit interleaved multi-row blocks; every
  // row is answered by the model, whatever micro-batch it shared.
  ServeFixture f;
  ServeOptions opts = SmallServeOptions();
  opts.max_queue_depth = 0;
  opts.flush_on_idle = true;
  InferenceEngine engine(&f.store, opts);
  ASSERT_TRUE(engine.Start().ok());
  const std::shared_ptr<const Model> model = f.store.Get(f.id).ValueOrDie();

  constexpr int kSessions = 4;
  constexpr int kBlocksEach = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      for (int b = 0; b < kBlocksEach; ++b) {
        ServeBatchRequest req;
        const size_t rows = 1 + static_cast<size_t>((s * 7 + b) % 13);
        for (size_t i = 0; i < rows; ++i) {
          req.rows.Append(f.tuples[(s * 16 + b + i) % f.tuples.size()]);
        }
        req.model_id = f.id;
        ServeBatchReply block = SubmitRows(engine, std::move(req)).get();
        if (block.replies.size() != rows) wrong.fetch_add(1);
        for (size_t i = 0; i < block.replies.size(); ++i) {
          const Tuple t = block.rows.ToTuple(i);
          if (!block.replies[i].status.ok() ||
              block.replies[i].value != model->Predict(t)) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : sessions) th.join();
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(engine.stats().completed, engine.stats().submitted);
}

// --- PREDICT BY oracle: streaming vs the per-request replay ---

/// PREDICT BY as it ran before the snapshot streamed into the engine:
/// collect the whole snapshot, one Submit() per tuple, Drain, fold the
/// futures in tuple order. The reference Database::Predict must match.
Result<InDbPredictResult> PerRequestPredict(Database* db,
                                            const PredictStatement& stmt) {
  CORGI_ASSIGN_OR_RETURN(ShardedTable * table,
                         db->GetShardedTable(stmt.table_name));
  ServeOptions opts = db->serve_options();
  opts.flush_on_idle = false;
  opts.clock = &db->clock();
  InferenceEngine engine(&db->models(), opts);
  CORGI_RETURN_NOT_OK(engine.Start());

  const ShardedSnapshot snap = table->Snapshot();
  snap.ResetReadCursors();
  std::vector<Tuple> tuples;
  CORGI_RETURN_NOT_OK(CollectSnapshot(snap, ShardScanOptions{}, &tuples));
  std::vector<std::future<ServeReply>> futures;
  futures.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    ServeRequest req;
    req.tuple = t;
    req.model_id = stmt.model_id;
    futures.push_back(engine.Submit(std::move(req)));
  }
  CORGI_RETURN_NOT_OK(engine.Drain());

  EvalAccumulator acc;
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeReply reply = futures[i].get();
    CORGI_RETURN_NOT_OK(reply.status);
    acc.Add(tuples[i].label, reply.value, reply.loss, reply.correct);
  }
  const EvalResult eval = acc.Finalize(table->schema().label_type);
  InDbPredictResult out;
  out.count = eval.count;
  out.metric = eval.metric;
  out.mean_loss = eval.mean_loss;
  out.serve = engine.stats();
  return out;
}

enum class OracleVariant { kPlain, kShed, kCanaryPromote, kCanaryRollback };

const char* VariantName(OracleVariant v) {
  switch (v) {
    case OracleVariant::kPlain: return "plain";
    case OracleVariant::kShed: return "shed";
    case OracleVariant::kCanaryPromote: return "canary_promote";
    case OracleVariant::kCanaryRollback: return "canary_rollback";
  }
  return "?";
}

constexpr uint32_t kOracleDim = 8;
/// Not a multiple of 32, so the last micro-batch closes by deadline, and
/// more than a dozen 256-row submissions, so Predict's window fills.
constexpr uint64_t kOracleRows = 3000;

std::unique_ptr<LogisticRegression> OracleModel(double sign) {
  auto model = std::make_unique<LogisticRegression>(kOracleDim);
  for (size_t i = 0; i < model->params().size(); ++i) {
    model->params()[i] = sign * 0.1 * static_cast<double>(i + 1) *
                         (i % 2 == 0 ? 1.0 : -1.0);
  }
  return model;
}

/// Rows the incumbent classifies well (labels follow its decision), so a
/// negated candidate loses on every paired batch.
std::vector<Tuple> OracleTuples() {
  std::vector<Tuple> tuples = MakeTuples(kOracleRows, kOracleDim, 77);
  const auto model = OracleModel(1.0);
  for (Tuple& t : tuples) t.label = model->Predict(t) >= 0 ? 1.0 : -1.0;
  return tuples;
}

/// A fresh database per run: canary promotion and rollback mutate the
/// store, so the reference and the streaming run each start from the
/// same state.
std::unique_ptr<Database> MakeOracleDb(const std::string& tag,
                                       uint32_t shards, uint32_t max_batch,
                                       OracleVariant variant) {
  const std::string dir = testing::TempDir() + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto db = std::make_unique<Database>(dir, DeviceProfile::Ssd());
  Schema schema;
  schema.name = "t";
  schema.dim = kOracleDim;
  EXPECT_TRUE(db->CreateTable("t", schema, OracleTuples(), false,
                              Page::kDefaultSize, shards)
                  .ok());
  EXPECT_TRUE(db->models().Publish("m", OracleModel(1.0)).ok());
  if (variant == OracleVariant::kCanaryPromote ||
      variant == OracleVariant::kCanaryRollback) {
    CanaryPolicy policy;
    policy.fraction = 0.3;
    policy.seed = 17;
    policy.promote_after_batches = 6;
    policy.auto_rollback = true;
    // An identical candidate never breaches and gets promoted; a negated
    // one breaches every paired batch and gets rolled back.
    const double sign = variant == OracleVariant::kCanaryPromote ? 1.0 : -1.0;
    EXPECT_TRUE(db->models().StageCanary("m", OracleModel(sign), policy).ok());
  }
  ServeOptions opts = db->serve_options();
  opts.max_batch = max_batch;
  if (variant == OracleVariant::kShed) opts.max_queue_depth = 100;
  db->set_serve_options(opts);
  return db;
}

TEST(PredictOracleTest, StreamingPredictMatchesPerRequestReplay) {
  const PredictStatement stmt{"t", "m"};
  for (uint32_t shards : {1u, 4u}) {
    // 48 does not divide the 256-row submissions, so micro-batches
    // straddle submission boundaries.
    for (uint32_t max_batch : {1u, 32u, 48u}) {
      for (OracleVariant variant :
           {OracleVariant::kPlain, OracleVariant::kShed,
            OracleVariant::kCanaryPromote, OracleVariant::kCanaryRollback}) {
        const std::string tag = std::string("oracle_") + VariantName(variant) +
                                "_k" + std::to_string(shards) + "_b" +
                                std::to_string(max_batch);
        SCOPED_TRACE(tag);
        auto ref_db = MakeOracleDb(tag + "_ref", shards, max_batch, variant);
        auto new_db = MakeOracleDb(tag + "_new", shards, max_batch, variant);
        const auto ref = PerRequestPredict(ref_db.get(), stmt);
        const auto got = new_db->Predict(stmt);

        if (variant == OracleVariant::kShed) {
          // Same refusal: the first shed row, in tuple order.
          ASSERT_FALSE(ref.ok());
          EXPECT_TRUE(ref.status().IsResourceExhausted())
              << ref.status().ToString();
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().ToString(), ref.status().ToString());
          continue;
        }
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->count, kOracleRows);
        EXPECT_EQ(got->count, ref->count);
        EXPECT_EQ(got->metric, ref->metric);
        EXPECT_EQ(got->mean_loss, ref->mean_loss);
        EXPECT_TRUE(got->serve == ref->serve)
            << got->serve.ToString() << "\n vs \n" << ref->serve.ToString();

        // The cases the oracle is meant to cover really occurred.
        if (max_batch > 1) {
          EXPECT_EQ(ref->serve.deadline_closes, 1u);  // partial last batch
        }
        if (variant == OracleVariant::kCanaryPromote) {
          EXPECT_EQ(ref->serve.canary_promotions, 1u);
          EXPECT_EQ(ref->serve.served_by_version.at("m").size(), 2u);
        }
        if (variant == OracleVariant::kCanaryRollback) {
          EXPECT_EQ(ref->serve.canary_rollbacks, 1u);
          EXPECT_GT(ref->serve.canary_breaches, 0u);
          EXPECT_EQ(ref->serve.served_by_version.at("m").size(), 2u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace corgipile
