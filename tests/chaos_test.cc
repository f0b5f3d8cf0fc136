// Chaos suite (DESIGN.md §12): the process-wide FaultPlane, the seeded
// ChaosRunner with kill-and-restart, crash-recovery bit-exactness of the
// checkpointed TRAIN pipeline, graceful serving degradation (circuit
// breaker / hedged retry / brownout), and channel/allocation fault
// injection. Every assertion carries the scenario name and RNG seed so a
// red run reproduces with one command.

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/model_store.h"
#include "db/query.h"
#include "db/block_shuffle_op.h"
#include "db/tuple_shuffle_op.h"
#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "exec/shard_scan.h"
#include "iosim/chaos.h"
#include "iosim/fault_plane.h"
#include "iosim/sim_clock.h"
#include "ml/linear_models.h"
#include "serve/circuit_breaker.h"
#include "serve/inference_engine.h"
#include "util/rng.h"

#include "drain_util.h"

namespace corgipile {
namespace {

std::string MakeTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

ChaosRule MakeRule(const char* point, ChaosAction action, uint64_t from_hit,
                   uint64_t repeat = 1) {
  ChaosRule rule;
  rule.point = point;
  rule.action = action;
  rule.from_hit = from_hit;
  rule.repeat = repeat;
  return rule;
}

// --- FaultPlane unit behaviour -------------------------------------------

TEST(FaultPlaneTest, DisarmedHooksAreNoOps) {
  ASSERT_FALSE(FaultPlane::ProcessArmed());
  CORGI_CRASH_POINT("nowhere");
  // CORGI_INJECT_POINT would return from this void test body; call the
  // plane directly instead.
  EXPECT_TRUE(FaultPlane::Process()->OnPoint("nowhere").ok());
  EXPECT_EQ(FaultPlane::Process()->Hits("nowhere"), 0u);
}

TEST(FaultPlaneTest, FailRuleFiresAtScriptedHitWithSeedInMessage) {
  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("fail-at-2", 31, {MakeRule("p.read", ChaosAction::kFail, 2)});
  for (uint64_t hit = 0; hit < 5; ++hit) {
    Status st = plane->OnPoint("p.read");
    if (hit == 2) {
      EXPECT_TRUE(st.IsIoError()) << "scenario=fail-at-2 seed=31 hit=" << hit;
      // The injected message embeds scenario + seed for repro.
      EXPECT_NE(st.ToString().find("scenario=fail-at-2"), std::string::npos)
          << st.ToString();
      EXPECT_NE(st.ToString().find("seed=31"), std::string::npos)
          << st.ToString();
    } else {
      EXPECT_TRUE(st.ok()) << "scenario=fail-at-2 seed=31 hit=" << hit;
    }
  }
  EXPECT_EQ(plane->Hits("p.read"), 5u);
  EXPECT_EQ(plane->StatsSnapshot().injected_failures, 1u);
  plane->Disarm();
  EXPECT_FALSE(FaultPlane::ProcessArmed());
}

TEST(FaultPlaneTest, StallChargesChaosStallOnArmedClock) {
  SimClock clock;
  ChaosRule stall = MakeRule("p.slow", ChaosAction::kStall, 0, 2);
  stall.stall_seconds = 1.5;
  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("stalls", 7, {stall}, &clock);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(plane->OnPoint("p.slow").ok()) << "scenario=stalls seed=7";
  }
  plane->Disarm();
  EXPECT_DOUBLE_EQ(clock.Elapsed(TimeCategory::kChaosStall), 3.0);
}

TEST(FaultPlaneTest, KillThrowsOnceOnArmingThreadOnly) {
  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("kill-once", 13, {MakeRule("p.crash", ChaosAction::kKill, 1)});

  EXPECT_TRUE(plane->OnPoint("p.crash").ok());  // hit 0
  bool crashed = false;
  try {
    (void)plane->OnPoint("p.crash");  // hit 1 → ChaosCrash
  } catch (const ChaosCrash& crash) {
    crashed = true;
    EXPECT_EQ(crash.point, "p.crash");
    EXPECT_EQ(crash.hit, 1u);
    EXPECT_EQ(crash.seed, 13u);
  }
  EXPECT_TRUE(crashed) << "scenario=kill-once seed=13";
  // One-shot: the consumed kill rule lets later hits pass.
  EXPECT_TRUE(plane->OnPoint("p.crash").ok());

  // A kill matching on a non-arming thread must not throw (it would
  // std::terminate) — it is suppressed and counted.
  plane->Arm("kill-wrong-thread", 13,
             {MakeRule("p.crash", ChaosAction::kKill, 0)});
  std::thread worker([&] { EXPECT_TRUE(plane->OnPoint("p.crash").ok()); });
  worker.join();
  EXPECT_EQ(plane->StatsSnapshot().suppressed_kills, 1u)
      << "scenario=kill-wrong-thread seed=13";
  plane->Disarm();
}

TEST(FaultPlaneTest, VoidPointsDropFailButApplyStalls) {
  SimClock clock;
  ChaosRule fail = MakeRule("p.void", ChaosAction::kFail, 0, 0);
  ChaosRule stall = MakeRule("p.void", ChaosAction::kStall, 0, 1);
  stall.stall_seconds = 0.25;
  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("void-points", 3, {fail, stall}, &clock);
  plane->OnPointVoid("p.void");
  plane->OnPointVoid("p.void");
  const FaultPlaneStats stats = plane->StatsSnapshot();
  plane->Disarm();
  EXPECT_EQ(stats.dropped_failures, 2u) << "scenario=void-points seed=3";
  EXPECT_EQ(stats.injected_failures, 0u);
  EXPECT_DOUBLE_EQ(clock.Elapsed(TimeCategory::kChaosStall), 0.25);
}

TEST(FaultPlaneTest, ProbabilisticRulesReplayBitForBit) {
  ChaosRule rule = MakeRule("p.prob", ChaosAction::kFail, 0, 0);
  rule.probability = 0.35;
  FaultPlane* plane = FaultPlane::Process();

  auto run = [&](uint64_t seed) {
    plane->Arm("prob-replay", seed, {rule});
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!plane->OnPoint("p.prob").ok());
    plane->Disarm();
    return fired;
  };
  const auto a = run(99), b = run(99), c = run(100);
  EXPECT_EQ(a, b) << "scenario=prob-replay seed=99";
  EXPECT_NE(a, c) << "scenario=prob-replay seeds 99 vs 100";
  const size_t fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
}

// --- ChaosRunner ----------------------------------------------------------

TEST(ChaosRunnerTest, RunCatchesScriptedCrash) {
  ChaosScenario sc;
  sc.name = "runner-crash";
  sc.seed = 5;
  sc.rules = {MakeRule("body.step", ChaosAction::kKill, 1)};
  ChaosReport report = ChaosRunner::Run(sc, []() -> Status {
    for (int i = 0; i < 3; ++i) {
      CORGI_INJECT_POINT("body.step");
    }
    return Status::OK();
  });
  EXPECT_EQ(report.crashes, 1u) << sc.Describe();
  EXPECT_EQ(report.attempts, 1u) << sc.Describe();
  ASSERT_EQ(report.crash_points.size(), 1u) << sc.Describe();
  EXPECT_EQ(report.crash_points[0], "body.step");
  EXPECT_TRUE(report.final_status.IsCancelled()) << report.Describe();
  EXPECT_FALSE(FaultPlane::ProcessArmed());  // runner disarms on exit
}

TEST(ChaosRunnerTest, RunToCompletionRestartsUntilClean) {
  ChaosScenario sc;
  sc.name = "runner-restart";
  sc.seed = 17;
  // Two scripted crashes at different progress points: three attempts.
  // Hit counters are cumulative across attempts (attempt 1 burns hits 0-2,
  // attempt 2 starts at hit 3), so the second kill lands inside attempt 2.
  sc.rules = {MakeRule("body.step", ChaosAction::kKill, 2),
              MakeRule("body.step", ChaosAction::kKill, 5)};
  uint32_t attempts_seen = 0;
  ChaosReport report = ChaosRunner::RunToCompletion(
      sc, [&](uint32_t attempt) -> Status {
        attempts_seen = attempt + 1;
        for (int i = 0; i < 4; ++i) {
          CORGI_INJECT_POINT("body.step");
        }
        return Status::OK();
      });
  EXPECT_TRUE(report.final_status.ok()) << report.Describe();
  EXPECT_EQ(report.crashes, 2u) << sc.Describe();
  EXPECT_EQ(report.attempts, 3u) << sc.Describe();
  EXPECT_EQ(attempts_seen, 3u) << sc.Describe();
  // 3 hits in attempt 1 (crash at hit 2) + 3 in attempt 2 (crash at 5)
  // + 4 in the clean attempt 3.
  EXPECT_EQ(report.hits.at("body.step"), 10u) << sc.Describe();
}

TEST(ChaosRunnerTest, BodyErrorEndsLoopWithoutRestart) {
  ChaosScenario sc;
  sc.name = "runner-real-error";
  sc.seed = 1;
  uint32_t calls = 0;
  ChaosReport report = ChaosRunner::RunToCompletion(
      sc, [&](uint32_t) -> Status {
        ++calls;
        return Status::Internal("real failure, not a scripted crash");
      });
  EXPECT_EQ(calls, 1u) << sc.Describe();
  EXPECT_TRUE(report.final_status.IsInternal()) << report.Describe();
}

// --- Kill-and-restart: bit-identical recovery of TRAIN --------------------

// One TRAIN configuration shared by the reference and chaos runs. The
// pipeline must be fully deterministic in (seed, epoch): double buffering
// is off so every chaos point fires on the arming thread, and the buffer
// pool is disabled so storage reads repeat every epoch.
Params TrainParams(uint64_t seed) {
  Params p = Params::Parse(
                 "learning_rate=0.005, max_epoch_num=6, block_size=16KB, "
                 "buffer_fraction=0.1, double_buffer=false")
                 .ValueOrDie();
  p.Set("seed", std::to_string(seed));
  return p;
}

std::vector<double> ReferenceParams(const Dataset& ds, uint64_t seed,
                                    const std::string& tag) {
  const std::string dir = MakeTempDir(tag);
  Database db(dir, DeviceProfile::Ssd(), /*buffer_pool_bytes=*/0);
  EXPECT_TRUE(db.RegisterDataset("susy", ds).ok());
  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = TrainParams(seed);
  auto r = db.Train(stmt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  auto model = db.models().Get(r->model_id);
  EXPECT_TRUE(model.ok());
  return model.ok() ? (*model)->params() : std::vector<double>{};
}

struct KillCase {
  const char* tag;
  const char* point;
  uint64_t from_hit;
  /// Expected resumed_from_epoch of the final attempt; -1 = don't check
  /// (mid-read kills depend on how many storage hits one epoch takes).
  int expect_resume;
};

TEST(ChaosKillRestartTest, RecoveredParamsBitIdenticalToUninterruptedRun) {
  auto spec = CatalogLookup("susy", 0.05).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);

  const uint64_t kSeeds[] = {7, 21, 77};
  for (const uint64_t seed : kSeeds) {
    const std::vector<double> reference =
        ReferenceParams(ds, seed, "chaos_ref_" + std::to_string(seed));
    ASSERT_FALSE(reference.empty());

    const KillCase cases[] = {
        // Dies mid-epoch inside the storage read path.
        {"mid-read", "storage.heapfile.read", 7 + seed % 11, -1},
        // Dies after an epoch's updates but before its checkpoint: the
        // restart must replay that epoch from the previous checkpoint.
        {"epoch-end", "db.sgd.epoch_end", 1 + seed % 3,
         static_cast<int>(1 + seed % 3)},
        // Dies inside checkpoint save, between writing the temp file and
        // the rename: the previous checkpoint must survive intact.
        {"torn-ckpt", "storage.atomic_write.before_rename", seed % 2,
         static_cast<int>(seed % 2)},
    };
    for (const KillCase& kc : cases) {
      ChaosScenario sc;
      sc.name = std::string("kill-restart/") + kc.tag;
      sc.seed = seed;
      sc.rules = {MakeRule(kc.point, ChaosAction::kKill, kc.from_hit)};

      const std::string dir = MakeTempDir("chaos_" + std::string(kc.tag) +
                                          "_" + std::to_string(seed));
      {
        Database setup(dir, DeviceProfile::Ssd(), 0);
        ASSERT_TRUE(setup.RegisterDataset("susy", ds).ok()) << sc.Describe();
      }
      const std::string ckpt = dir + "/train.ckpt";
      std::filesystem::remove(ckpt);

      std::vector<double> recovered;
      uint32_t last_resumed = 0;
      auto body = [&](uint32_t) -> Status {
        // A fresh Database per attempt = the restarted process: state
        // comes only from heapfiles and the durable checkpoint.
        Database db(dir, DeviceProfile::Ssd(), 0);
        CORGI_RETURN_NOT_OK(db.Attach("susy"));
        TrainStatement stmt;
        stmt.table_name = "susy";
        stmt.model_kind = "lr";
        stmt.params = TrainParams(seed);
        stmt.params.Set("checkpoint", ckpt);
        stmt.params.Set("resume", "true");
        CORGI_ASSIGN_OR_RETURN(InDbTrainResult r, db.Train(stmt));
        last_resumed = r.resumed_from_epoch;
        CORGI_ASSIGN_OR_RETURN(auto model, db.models().Get(r.model_id));
        recovered = model->params();
        return Status::OK();
      };
      const ChaosReport report = ChaosRunner::RunToCompletion(sc, body);

      ASSERT_TRUE(report.final_status.ok())
          << sc.Describe() << ": " << report.Describe();
      EXPECT_GE(report.crashes, 1u) << sc.Describe();
      EXPECT_EQ(report.attempts, report.crashes + 1) << sc.Describe();
      // The acceptance bar: params of the killed-and-restarted run are
      // bit-identical to the uninterrupted reference.
      EXPECT_EQ(recovered, reference) << sc.Describe();
      if (kc.expect_resume >= 0) {
        EXPECT_EQ(last_resumed, static_cast<uint32_t>(kc.expect_resume))
            << sc.Describe();
      }
    }
  }
}

// --- Channel-send and allocation failures ---------------------------------

struct PipelineFixture {
  Dataset ds;
  std::unique_ptr<Table> table;

  explicit PipelineFixture(const std::string& tag) {
    auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
    ds = GenerateDataset(spec, DataOrder::kClustered);
    auto t = MaterializeTrainTable(ds, testing::TempDir() + tag + ".tbl", 2048);
    table = std::move(t).ValueOrDie();
  }
};

TEST(ChannelChaosTest, InjectedSendFailureSurfacesCleanlyWithoutHang) {
  PipelineFixture f("chan_chaos");
  ChaosScenario sc;
  sc.name = "channel-send-fail";
  sc.seed = 11;
  ChaosRule rule = MakeRule("channel.tuple_shuffle.push", ChaosAction::kFail, 1);
  rule.code = StatusCode::kResourceExhausted;
  sc.rules = {rule};

  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 2 * 2048;
    BlockShuffleOp block_op(f.table.get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = 32;
    topts.double_buffer = true;  // the producer thread owns the sends
    TupleShuffleOp op(&block_op, topts);
    CORGI_RETURN_NOT_OK(op.Init());
    const uint64_t delivered = DrainIds(&op).size();
    Status st = op.status();
    op.Close();
    EXPECT_LT(delivered, f.ds.train->size()) << sc.Describe();
    return st;  // the injected failure, delivered through the channel
  });
  EXPECT_TRUE(report.final_status.IsResourceExhausted()) << report.Describe();
  EXPECT_EQ(report.plane.injected_failures, 1u) << sc.Describe();
  EXPECT_EQ(report.crashes, 0u) << sc.Describe();
}

TEST(AllocChaosTest, ShuffleBufferAllocationFailureIsACleanError) {
  PipelineFixture f("alloc_chaos");
  ChaosScenario sc;
  sc.name = "tuple-shuffle-alloc-fail";
  sc.seed = 23;
  ChaosRule rule = MakeRule("db.tuple_shuffle.fill", ChaosAction::kFail, 1);
  rule.code = StatusCode::kResourceExhausted;
  sc.rules = {rule};

  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 2 * 2048;
    BlockShuffleOp block_op(f.table.get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = 32;
    topts.double_buffer = false;
    TupleShuffleOp op(&block_op, topts);
    CORGI_RETURN_NOT_OK(op.Init());
    DrainIds(&op);
    Status st = op.status();
    op.Close();
    return st;
  });
  EXPECT_TRUE(report.final_status.IsResourceExhausted()) << report.Describe();
}

TEST(AllocChaosTest, BufferPoolAdmissionFailureDegradesWithoutChangingResults) {
  auto spec = CatalogLookup("susy", 0.02).ValueOrDie();
  Dataset ds = GenerateDataset(spec, DataOrder::kClustered);

  auto train_params = [&](Database& db) -> std::vector<double> {
    TrainStatement stmt;
    stmt.table_name = "susy";
    stmt.model_kind = "lr";
    stmt.params = TrainParams(42);
    auto r = db.Train(stmt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return db.models().Get(r->model_id).ValueOrDie()->params();
  };

  // Reference: normal caching.
  const std::string ref_dir = MakeTempDir("alloc_ref");
  Database ref_db(ref_dir, DeviceProfile::Ssd());
  ASSERT_TRUE(ref_db.RegisterDataset("susy", ds).ok());
  const std::vector<double> reference = train_params(ref_db);

  // Chaos: every cache admission fails — pages are served uncached, the
  // run degrades in time only, never in results.
  ChaosScenario sc;
  sc.name = "buffer-admit-fail";
  sc.seed = 42;
  sc.rules = {MakeRule("storage.buffer.admit", ChaosAction::kFail, 0, 0)};
  const std::string dir = MakeTempDir("alloc_admit");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());
  std::vector<double> degraded;
  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    degraded = train_params(db);
    return Status::OK();
  });
  ASSERT_TRUE(report.final_status.ok()) << report.Describe();
  EXPECT_EQ(degraded, reference) << sc.Describe();
  EXPECT_GT(db.buffer_pool()->stats().alloc_rejections, 0u) << sc.Describe();
}

// --- Circuit breaker unit behaviour ---------------------------------------

TEST(CircuitBreakerTest, TripsAfterThresholdAndRecoversViaProbe) {
  CircuitBreakerOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.error_threshold = 0.5;
  opts.cooldown_s = 1.0;
  CircuitBreaker breaker(opts);

  EXPECT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordSuccess();
  breaker.RecordFailure(0.1);
  breaker.RecordFailure(0.1);
  // 3 samples < min_samples: cannot trip yet, whatever the failure ratio.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0.2);  // 3 failures / 4 samples ≥ 0.5 → trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  EXPECT_FALSE(breaker.AllowRequest(0.5));  // cooling down
  EXPECT_TRUE(breaker.AllowRequest(1.5));   // half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFailure(1.5);  // probe failed → re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);

  EXPECT_TRUE(breaker.AllowRequest(3.0));  // next probe
  breaker.RecordSuccess();                 // probe succeeded → closed, clean
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(3.1);  // one stale failure must not re-trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --- Serving degradation under injected resolve failures ------------------

std::vector<Tuple> MakeServeTuples(uint64_t n, uint32_t dim, uint64_t seed) {
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

ServeOptions DegradedServeOptions(SimClock* clock) {
  ServeOptions opts;
  opts.max_batch = 4;
  opts.num_workers = 2;
  opts.max_queue_depth = 0;
  opts.flush_on_idle = false;  // generated schedule: fully deterministic
  opts.clock = clock;
  opts.resolve_max_retries = 1;
  opts.resolve_backoff_s = 1e-3;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.error_threshold = 0.5;
  opts.breaker.cooldown_s = 100.0;  // stays open for the whole run
  return opts;
}

struct ServeChaosOutcome {
  ServeStats stats;
  std::vector<ServeReply> replies;
  double retry_backoff_s = 0.0;
};

/// Runs 16 requests (4 batches of 4) against a fresh store/engine with the
/// given scenario armed. `publish_v2_at` (if >= 0) hot-swaps the model on
/// the scheduler thread when that request is processed.
ServeChaosOutcome RunServeChaos(const ChaosScenario& sc, int publish_v2_at) {
  ServeChaosOutcome out;
  ModelStore store;
  auto m1 = std::make_unique<LogisticRegression>(8);
  for (size_t i = 0; i < m1->params().size(); ++i) {
    m1->params()[i] = 0.05 * static_cast<double>(i + 1);
  }
  const std::string id = store.Put(std::move(m1));
  const std::vector<Tuple> tuples = MakeServeTuples(16, 8, 29);

  SimClock clock;
  InferenceEngine engine(&store, DegradedServeOptions(&clock));
  EXPECT_TRUE(engine.Start().ok());

  std::vector<std::future<ServeReply>> futures;
  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    for (size_t i = 0; i < tuples.size(); ++i) {
      ServeRequest req;
      req.tuple = tuples[i];
      req.model_id = id;
      req.arrival_s = static_cast<double>(i) * 1e-4;
      if (publish_v2_at >= 0 && i == static_cast<size_t>(publish_v2_at)) {
        req.on_arrival = [&store, &id] {
          auto v2 = std::make_unique<LogisticRegression>(8);
          for (auto& p : v2->params()) p = -1.0;
          EXPECT_TRUE(store.Publish(id, std::move(v2)).ok());
        };
      }
      futures.push_back(engine.Submit(std::move(req)));
    }
    return engine.Drain();
  });
  EXPECT_TRUE(report.final_status.ok())
      << sc.Describe() << ": " << report.Describe();
  for (auto& fut : futures) out.replies.push_back(fut.get());
  out.stats = engine.stats();
  out.retry_backoff_s = clock.Elapsed(TimeCategory::kRetryBackoff);
  return out;
}

TEST(ServeChaosTest, BrownoutServesLastGoodSnapshotWithZeroWrongAnswers) {
  // Expected answers from the v1 snapshot, computed up front.
  LogisticRegression v1(8);
  for (size_t i = 0; i < v1.params().size(); ++i) {
    v1.params()[i] = 0.05 * static_cast<double>(i + 1);
  }
  const std::vector<Tuple> tuples = MakeServeTuples(16, 8, 29);

  ChaosScenario sc;
  sc.name = "serve-brownout";
  sc.seed = 61;
  // First resolve (batch 1) succeeds and seeds last-good; every later
  // resolve attempt fails.
  sc.rules = {MakeRule("serve.resolve", ChaosAction::kFail, 1, 0)};

  const ServeChaosOutcome run = RunServeChaos(sc, /*publish_v2_at=*/4);

  // Every request was answered, none failed, and — the core invariant —
  // none was answered incorrectly: every reply matches the v1 model that
  // actually served it, even though the store holds v2.
  EXPECT_EQ(run.stats.completed, 16u) << sc.Describe();
  EXPECT_EQ(run.stats.failed, 0u) << sc.Describe();
  for (size_t i = 0; i < run.replies.size(); ++i) {
    const ServeReply& reply = run.replies[i];
    ASSERT_TRUE(reply.status.ok()) << sc.Describe() << " request " << i;
    EXPECT_EQ(reply.model_version, 1u) << sc.Describe() << " request " << i;
    EXPECT_DOUBLE_EQ(reply.value, v1.Predict(tuples[i]))
        << sc.Describe() << " request " << i;
  }
  // Deterministic degradation accounting: batch 1 resolved, batch 2 burned
  // the retry budget, batch 3 tripped the breaker, batch 4 short-circuited
  // — all three served from the last-good snapshot.
  EXPECT_EQ(run.stats.brownout_batches, 3u) << sc.Describe();
  EXPECT_EQ(run.stats.brownout_served, 12u) << sc.Describe();
  EXPECT_EQ(run.stats.hedged_retries, 1u) << sc.Describe();
  EXPECT_EQ(run.stats.breaker_opens, 1u) << sc.Describe();
  EXPECT_EQ(run.stats.breaker_short_circuits, 1u) << sc.Describe();
  EXPECT_DOUBLE_EQ(run.retry_backoff_s, 1e-3) << sc.Describe();
  const auto& by_version = run.stats.served_by_version.begin()->second;
  ASSERT_EQ(by_version.size(), 1u) << sc.Describe();
  EXPECT_EQ(by_version.at(1), 16u) << sc.Describe();

  // The whole degraded run replays bit-for-bit.
  const ServeChaosOutcome rerun = RunServeChaos(sc, /*publish_v2_at=*/4);
  EXPECT_EQ(run.stats, rerun.stats) << sc.Describe() << "\n"
                                    << run.stats.ToString() << "\n vs \n"
                                    << rerun.stats.ToString();
}

TEST(ServeChaosTest, ResolveFailuresWithoutLastGoodFailLoudlyNeverWrongly) {
  ChaosScenario sc;
  sc.name = "serve-no-last-good";
  sc.seed = 67;
  sc.rules = {MakeRule("serve.resolve", ChaosAction::kFail, 0, 0)};

  const ServeChaosOutcome run = RunServeChaos(sc, /*publish_v2_at=*/-1);

  // No resolve ever succeeded, so there is nothing safe to serve: every
  // request fails with an explicit error — loud, never a wrong answer.
  EXPECT_EQ(run.stats.completed, 0u) << sc.Describe();
  EXPECT_EQ(run.stats.failed, 16u) << sc.Describe();
  for (size_t i = 0; i < run.replies.size(); ++i) {
    EXPECT_FALSE(run.replies[i].status.ok()) << sc.Describe() << " req " << i;
  }
  // Batches 1–2 exhaust retries against the injected IoError; batch 2's
  // last failure trips the breaker; batches 3–4 short-circuit.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(run.replies[i].status.IsIoError())
        << sc.Describe() << " req " << i << ": "
        << run.replies[i].status.ToString();
  }
  for (size_t i = 8; i < 16; ++i) {
    EXPECT_TRUE(run.replies[i].status.IsResourceExhausted())
        << sc.Describe() << " req " << i << ": "
        << run.replies[i].status.ToString();
  }
  EXPECT_EQ(run.stats.hedged_retries, 2u) << sc.Describe();
  EXPECT_EQ(run.stats.breaker_opens, 1u) << sc.Describe();
  EXPECT_EQ(run.stats.breaker_short_circuits, 2u) << sc.Describe();
  EXPECT_EQ(run.stats.brownout_batches, 0u) << sc.Describe();
  EXPECT_DOUBLE_EQ(run.retry_backoff_s, 2e-3) << sc.Describe();

  const ServeChaosOutcome rerun = RunServeChaos(sc, /*publish_v2_at=*/-1);
  EXPECT_EQ(run.stats, rerun.stats) << sc.Describe();
}

// --- Multi-row submissions under serving faults ---------------------------

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

/// Rows [begin, end) of `tuples` as one submission arriving at `arrival_s`.
ServeBatchRequest RowsOf(const std::vector<Tuple>& tuples, size_t begin,
                         size_t end, const std::string& id,
                         double arrival_s) {
  ServeBatchRequest req;
  for (size_t i = begin; i < end; ++i) req.rows.Append(tuples[i]);
  req.model_id = id;
  req.arrival_s = arrival_s;
  return req;
}

TEST(ServeChaosTest, BatchSendFailureFailsExactlyTheAffectedRows) {
  // Three 10-row submissions, micro-batches of 4. The scheduler hands
  // closed batches to the workers once per submission: send 0 carries
  // rows 0-7, send 1 rows 8-19 (the first submission's tail shares a
  // batch with the second's head), send 2 rows 20-27, the final flush
  // rows 28-29. Failing send 1 must fail exactly rows 8-19 — two rows of
  // the first submission and all of the second — and answer every other
  // row correctly.
  ModelStore store;
  auto m1 = std::make_unique<LogisticRegression>(8);
  for (size_t i = 0; i < m1->params().size(); ++i) {
    m1->params()[i] = 0.05 * static_cast<double>(i + 1);
  }
  const LogisticRegression reference = *m1;
  const std::string id = store.Put(std::move(m1));
  const std::vector<Tuple> tuples = MakeServeTuples(30, 8, 31);

  ChaosScenario sc;
  sc.name = "serve-batch-send-fail";
  sc.seed = 71;
  sc.rules = {MakeRule("channel.serve.batches", ChaosAction::kFail, 1)};

  ServeOptions opts;
  opts.max_batch = 4;
  opts.num_workers = 2;
  opts.max_queue_depth = 0;
  opts.flush_on_idle = false;
  InferenceEngine engine(&store, opts);
  ASSERT_TRUE(engine.Start().ok());
  std::vector<std::future<ServeBatchReply>> blocks;
  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    for (size_t begin = 0; begin < tuples.size(); begin += 10) {
      blocks.push_back(
          SubmitRows(engine, RowsOf(tuples, begin, begin + 10, id, 0.0)));
    }
    return engine.Drain();
  });
  EXPECT_TRUE(report.final_status.ok()) << report.Describe();
  EXPECT_EQ(report.plane.injected_failures, 1u) << sc.Describe();
  EXPECT_EQ(report.hits.at("channel.serve.batches"), 4u) << sc.Describe();

  std::vector<ServeReply> replies;
  for (auto& fut : blocks) {
    ServeBatchReply block = fut.get();
    ASSERT_EQ(block.replies.size(), 10u);
    for (ServeReply& r : block.replies) replies.push_back(std::move(r));
  }
  for (size_t row = 0; row < replies.size(); ++row) {
    const ServeReply& r = replies[row];
    if (row >= 8 && row < 20) {
      EXPECT_TRUE(r.status.IsIoError())
          << sc.Describe() << " row " << row << ": " << r.status.ToString();
    } else {
      ASSERT_TRUE(r.status.ok())
          << sc.Describe() << " row " << row << ": " << r.status.ToString();
      EXPECT_DOUBLE_EQ(r.value, reference.Predict(tuples[row]))
          << sc.Describe() << " row " << row;
    }
  }
}

/// The brownout drill of RunServeChaos with rows 0-3 arriving at 0 and
/// rows 4-15 at 4e-4 (hot-swap to v2 when row 4 arrives), submitted either
/// as 16 one-row requests or as two multi-row submissions.
ServeChaosOutcome RunServeChaosRows(const ChaosScenario& sc, bool multi_row) {
  ServeChaosOutcome out;
  ModelStore store;
  auto m1 = std::make_unique<LogisticRegression>(8);
  for (size_t i = 0; i < m1->params().size(); ++i) {
    m1->params()[i] = 0.05 * static_cast<double>(i + 1);
  }
  const std::string id = store.Put(std::move(m1));
  const std::vector<Tuple> tuples = MakeServeTuples(16, 8, 29);
  auto publish_v2 = [&store, &id] {
    auto v2 = std::make_unique<LogisticRegression>(8);
    for (auto& p : v2->params()) p = -1.0;
    EXPECT_TRUE(store.Publish(id, std::move(v2)).ok());
  };

  SimClock clock;
  InferenceEngine engine(&store, DegradedServeOptions(&clock));
  EXPECT_TRUE(engine.Start().ok());
  std::vector<std::future<ServeReply>> singles;
  std::vector<std::future<ServeBatchReply>> blocks;
  const ChaosReport report = ChaosRunner::Run(sc, [&]() -> Status {
    if (multi_row) {
      blocks.push_back(SubmitRows(engine, RowsOf(tuples, 0, 4, id, 0.0)));
      ServeBatchRequest rest = RowsOf(tuples, 4, 16, id, 4e-4);
      rest.on_arrival = publish_v2;
      blocks.push_back(SubmitRows(engine, std::move(rest)));
    } else {
      for (size_t i = 0; i < tuples.size(); ++i) {
        ServeRequest req;
        req.tuple = tuples[i];
        req.model_id = id;
        req.arrival_s = i < 4 ? 0.0 : 4e-4;
        if (i == 4) req.on_arrival = publish_v2;
        singles.push_back(engine.Submit(std::move(req)));
      }
    }
    return engine.Drain();
  });
  EXPECT_TRUE(report.final_status.ok())
      << sc.Describe() << ": " << report.Describe();
  for (auto& fut : singles) out.replies.push_back(fut.get());
  for (auto& fut : blocks) {
    ServeBatchReply block = fut.get();
    for (ServeReply& r : block.replies) out.replies.push_back(std::move(r));
  }
  out.stats = engine.stats();
  out.retry_backoff_s = clock.Elapsed(TimeCategory::kRetryBackoff);
  return out;
}

TEST(ServeChaosTest, MultiRowResolveFaultsRetryTripAndBrownOutLikeOneRow) {
  LogisticRegression v1(8);
  for (size_t i = 0; i < v1.params().size(); ++i) {
    v1.params()[i] = 0.05 * static_cast<double>(i + 1);
  }
  const std::vector<Tuple> tuples = MakeServeTuples(16, 8, 29);

  ChaosScenario sc;
  sc.name = "serve-brownout-multirow";
  sc.seed = 73;
  sc.rules = {MakeRule("serve.resolve", ChaosAction::kFail, 1, 0)};

  const ServeChaosOutcome rows = RunServeChaosRows(sc, /*multi_row=*/true);
  const ServeChaosOutcome one = RunServeChaosRows(sc, /*multi_row=*/false);

  // Retry, then breaker, then brownout — the same ladder, rung for rung.
  EXPECT_EQ(rows.stats.hedged_retries, 1u) << sc.Describe();
  EXPECT_EQ(rows.stats.breaker_opens, 1u) << sc.Describe();
  EXPECT_EQ(rows.stats.breaker_short_circuits, 1u) << sc.Describe();
  EXPECT_EQ(rows.stats.brownout_batches, 3u) << sc.Describe();
  EXPECT_EQ(rows.stats.brownout_served, 12u) << sc.Describe();
  EXPECT_EQ(rows.stats.completed, 16u) << sc.Describe();
  EXPECT_DOUBLE_EQ(rows.retry_backoff_s, 1e-3) << sc.Describe();
  ASSERT_EQ(rows.replies.size(), 16u);
  for (size_t i = 0; i < rows.replies.size(); ++i) {
    const ServeReply& r = rows.replies[i];
    ASSERT_TRUE(r.status.ok()) << sc.Describe() << " row " << i;
    EXPECT_EQ(r.model_version, 1u) << sc.Describe() << " row " << i;
    EXPECT_DOUBLE_EQ(r.value, v1.Predict(tuples[i]))
        << sc.Describe() << " row " << i;
  }

  // Bit-identical to the same rows submitted one at a time.
  EXPECT_TRUE(rows.stats == one.stats) << sc.Describe() << "\n"
                                       << rows.stats.ToString() << "\n vs \n"
                                       << one.stats.ToString();
  ASSERT_EQ(one.replies.size(), rows.replies.size());
  for (size_t i = 0; i < one.replies.size(); ++i) {
    EXPECT_EQ(rows.replies[i].value, one.replies[i].value) << "row " << i;
    EXPECT_EQ(rows.replies[i].latency_s, one.replies[i].latency_s)
        << "row " << i;
  }
  EXPECT_EQ(rows.retry_backoff_s, one.retry_backoff_s) << sc.Describe();
}

// --- Model lifecycle crash points (DESIGN.md §13) --------------------------

// A logistic model whose every weight is `w` — the value doubles as a
// fingerprint so "which version is serving" is one params()[0] read.
std::unique_ptr<Model> LifecycleModel(double w) {
  auto model = std::make_unique<LogisticRegression>(4);
  model->params().assign(model->num_params(), w);
  return model;
}

struct StoreState {
  uint64_t version = 0;
  double first_param = 0.0;
  std::vector<uint64_t> history;
  std::vector<LifecycleEvent> events;
  bool canary_staged = false;
  uint64_t canary_version = 0;

  bool operator==(const StoreState&) const = default;
};

StoreState CaptureState(const ModelStore& store, const std::string& id) {
  StoreState s;
  auto version = store.GetVersion(id);
  if (!version.ok()) return s;
  s.version = *version;
  s.first_param = store.Get(id).ValueOrDie()->params()[0];
  s.history = store.History(id).ValueOrDie();
  s.events = store.Events(id).ValueOrDie();
  const auto canary = store.GetCanary(id);
  s.canary_staged = canary.has_value();
  s.canary_version = canary ? canary->version : 0;
  return s;
}

TEST(LifecycleChaosTest, KillAtEachCrashPointNeverTearsTheStore) {
  // Every lifecycle mutation stages on locals, then commits after the
  // crash point: a scripted kill mid-call must leave the entry fully in
  // the OLD state (never half-published), and the disarmed retry must
  // land the full NEW state.
  enum class Op { kPublish, kRollback, kPromote, kAbort };
  struct PointCase {
    const char* point;
    Op op;
  };
  const PointCase cases[] = {
      {"lifecycle.publish", Op::kPublish},
      {"lifecycle.rollback", Op::kRollback},
      {"lifecycle.canary_promote", Op::kPromote},
      {"lifecycle.canary_abort", Op::kAbort},
  };
  for (const PointCase& pc : cases) {
    ModelStore store;
    const std::string id = store.Put(LifecycleModel(1.0));       // v1
    ASSERT_TRUE(store.Publish(id, LifecycleModel(2.0)).ok());    // v2
    if (pc.op == Op::kPromote || pc.op == Op::kAbort) {
      ASSERT_TRUE(
          store.StageCanary(id, LifecycleModel(3.0), CanaryPolicy{}).ok());
    }
    const StoreState before = CaptureState(store, id);

    auto run_op = [&]() -> Status {
      switch (pc.op) {
        case Op::kPublish:
          return store.Publish(id, LifecycleModel(9.0)).status();
        case Op::kRollback:
          return store.Rollback(id, 1);
        case Op::kPromote:
          return store.PromoteCanary(id);
        case Op::kAbort:
          return store.AbortCanary(id);
      }
      return Status::Internal("unreachable");
    };

    ChaosScenario sc;
    sc.name = std::string("lifecycle-atomic/") + pc.point;
    sc.seed = 13;
    sc.rules = {MakeRule(pc.point, ChaosAction::kKill, 0)};
    const ChaosReport report = ChaosRunner::Run(sc, run_op);
    EXPECT_EQ(report.crashes, 1u) << sc.Describe();

    // Fully old: version, bits, history, canary, and audit trail are
    // exactly the pre-kill state.
    EXPECT_EQ(CaptureState(store, id), before) << sc.Describe();

    // Fully new: the disarmed retry commits the whole transition.
    ASSERT_TRUE(run_op().ok()) << sc.Describe();
    const StoreState after = CaptureState(store, id);
    EXPECT_NE(after.events.size(), before.events.size()) << sc.Describe();
    switch (pc.op) {
      case Op::kPublish:
        EXPECT_EQ(after.version, 3u) << sc.Describe();
        EXPECT_DOUBLE_EQ(after.first_param, 9.0) << sc.Describe();
        break;
      case Op::kRollback:
        EXPECT_EQ(after.version, 1u) << sc.Describe();
        EXPECT_DOUBLE_EQ(after.first_param, 1.0) << sc.Describe();
        break;
      case Op::kPromote:
        EXPECT_EQ(after.version, 3u) << sc.Describe();
        EXPECT_DOUBLE_EQ(after.first_param, 3.0) << sc.Describe();
        EXPECT_FALSE(after.canary_staged) << sc.Describe();
        break;
      case Op::kAbort:
        EXPECT_EQ(after.version, 2u) << sc.Describe();
        EXPECT_DOUBLE_EQ(after.first_param, 2.0) << sc.Describe();
        EXPECT_FALSE(after.canary_staged) << sc.Describe();
        break;
    }
  }
}

TEST(LifecycleChaosTest, KillAndRestartRecoversLastPromotedVersionBitExact) {
  // Flagship (c): the full lifecycle pipeline — publish, rollback, canary
  // stage/abort, canary stage/promote — killed at every lifecycle crash
  // point and restarted, recovers the last promoted version bit-identically
  // to an uninterrupted run. The "restart" rebuilds the in-memory registry
  // by replaying the deterministic pipeline, the same contract as the
  // checkpointed TRAIN recovery above.
  auto pipeline = [](uint64_t seed, ModelStore* store,
                     std::string* id_out) -> Status {
    const double base = static_cast<double>(seed);
    const std::string id = store->Put(LifecycleModel(base + 1));  // v1
    CORGI_RETURN_NOT_OK(store->Publish(id, LifecycleModel(base + 2)).status());
    CORGI_RETURN_NOT_OK(store->Rollback(id, 1));
    CanaryPolicy policy;
    policy.seed = seed;
    CORGI_RETURN_NOT_OK(
        store->StageCanary(id, LifecycleModel(base + 3), policy).status());
    CORGI_RETURN_NOT_OK(store->AbortCanary(id));
    CORGI_RETURN_NOT_OK(
        store->StageCanary(id, LifecycleModel(base + 4), policy).status());
    CORGI_RETURN_NOT_OK(store->PromoteCanary(id));  // v4 = last promoted
    *id_out = id;
    return Status::OK();
  };

  const char* kPoints[] = {"lifecycle.publish", "lifecycle.rollback",
                           "lifecycle.canary_abort",
                           "lifecycle.canary_promote"};
  const uint64_t kSeeds[] = {7, 21, 77};
  for (const uint64_t seed : kSeeds) {
    // Uninterrupted reference.
    ModelStore ref_store;
    std::string ref_id;
    ASSERT_TRUE(pipeline(seed, &ref_store, &ref_id).ok());
    const StoreState reference = CaptureState(ref_store, ref_id);
    ASSERT_EQ(reference.version, 4u);

    for (const char* point : kPoints) {
      ChaosScenario sc;
      sc.name = std::string("lifecycle-restart/") + point;
      sc.seed = seed;
      sc.rules = {MakeRule(point, ChaosAction::kKill, 0)};

      StoreState recovered;
      const ChaosReport report = ChaosRunner::RunToCompletion(
          sc, [&](uint32_t) -> Status {
            // Fresh store per attempt = the restarted process.
            ModelStore store;
            std::string id;
            CORGI_RETURN_NOT_OK(pipeline(seed, &store, &id));
            recovered = CaptureState(store, id);
            return Status::OK();
          });
      ASSERT_TRUE(report.final_status.ok())
          << sc.Describe() << ": " << report.Describe();
      EXPECT_EQ(report.crashes, 1u) << sc.Describe();
      EXPECT_EQ(report.attempts, 2u) << sc.Describe();
      EXPECT_EQ(recovered, reference) << sc.Describe();
      EXPECT_DOUBLE_EQ(recovered.first_param,
                       static_cast<double>(seed) + 4)
          << sc.Describe();
    }
  }
}

// --- sharded-table chaos (DESIGN.md §14) -----------------------------------

namespace shard_chaos {

constexpr uint32_t kDim = 4;
constexpr uint64_t kInitial = 40;
constexpr uint64_t kBatch = 10;
constexpr uint64_t kBatches = 6;
constexpr uint32_t kShards = 3;

Schema ShardSchema() { return Schema{"s", kDim, false, LabelType::kBinary, 2}; }

std::vector<Tuple> ShardTuples(uint64_t first_id, uint64_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<float> values(kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      values[d] = static_cast<float>((first_id + i) * 31 + d);
    }
    out.push_back(MakeDenseTuple(first_id + i, (first_id + i) % 2 ? 1.0 : -1.0,
                                 std::move(values)));
  }
  return out;
}

std::vector<Tuple> CollectTable(Database* db, const std::string& name) {
  std::vector<Tuple> out;
  ShardedTable* table = db->GetShardedTable(name).ValueOrDie();
  Status st = CollectSnapshot(table->Snapshot(), ShardScanOptions{}, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

}  // namespace shard_chaos

// Kill-and-restart during streaming Insert into a sharded table. Each
// attempt reopens the data directory like a process restart (Attach reads
// the shard count from the sidecar) and resumes from the durable tuple
// count; the recovered table must equal a never-crashed reference run
// tuple-for-tuple in insertion order.
TEST(ShardChaosTest, InsertKillRestartRecoversShardedTableBitExact) {
  using namespace shard_chaos;
  const auto initial = ShardTuples(0, kInitial);

  // Reference: no chaos.
  std::vector<Tuple> reference;
  {
    const std::string dir = MakeTempDir("shard_chaos_ref");
    Database db(dir, DeviceProfile::Ssd());
    ASSERT_TRUE(db.CreateTable("s", ShardSchema(), initial, false, 512,
                               kShards)
                    .ok());
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(
          db.Insert("s", ShardTuples(kInitial + b * kBatch, kBatch)).ok());
    }
    reference = CollectTable(&db, "s");
  }
  ASSERT_EQ(reference.size(), kInitial + kBatches * kBatch);

  // Chaos: one kill after the pages of a batch are durable but before its
  // snapshot publishes, one before a later batch touches storage at all.
  const std::string dir = MakeTempDir("shard_chaos_run");
  ChaosScenario sc;
  sc.name = "shard-insert-kill";
  sc.seed = 7;
  sc.rules = {MakeRule("shard.snapshot.publish", ChaosAction::kKill, 2),
              MakeRule("shard.append.begin", ChaosAction::kKill, 4)};
  std::vector<Tuple> recovered;
  ChaosReport report = ChaosRunner::RunToCompletion(
      sc, [&](uint32_t attempt) -> Status {
        Database db(dir, DeviceProfile::Ssd());
        if (attempt == 0) {
          CORGI_RETURN_NOT_OK(db.CreateTable("s", ShardSchema(), initial,
                                             false, 512, kShards));
        } else {
          CORGI_RETURN_NOT_OK(db.Attach("s"));
        }
        CORGI_ASSIGN_OR_RETURN(ShardedTable * table, db.GetShardedTable("s"));
        // Batches append all-or-nothing (the kill points bracket the whole
        // batch), so the durable count tells us where to resume.
        const uint64_t durable = table->num_tuples();
        EXPECT_EQ((durable - kInitial) % kBatch, 0u) << sc.Describe();
        for (uint64_t b = (durable - kInitial) / kBatch; b < kBatches; ++b) {
          CORGI_RETURN_NOT_OK(
              db.Insert("s", ShardTuples(kInitial + b * kBatch, kBatch)));
        }
        recovered = CollectTable(&db, "s");
        return Status::OK();
      });
  ASSERT_TRUE(report.final_status.ok())
      << sc.Describe() << ": " << report.Describe();
  EXPECT_EQ(report.crashes, 2u) << report.Describe();
  EXPECT_EQ(report.attempts, 3u) << report.Describe();
  ASSERT_EQ(recovered.size(), reference.size()) << sc.Describe();
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(recovered[i], reference[i]) << sc.Describe() << " tuple " << i;
  }
}

TEST(ShardChaosTest, ScanFaultInjectionSurfacesError) {
  using namespace shard_chaos;
  const std::string dir = MakeTempDir("shard_chaos_scan");
  Database db(dir, DeviceProfile::Ssd());
  ASSERT_TRUE(
      db.CreateTable("s", ShardSchema(), ShardTuples(0, 30), false, 512, 2)
          .ok());
  ShardedTable* table = db.GetShardedTable("s").ValueOrDie();

  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("scan-fail", 5,
             {MakeRule("shard.scan.begin", ChaosAction::kFail, 0)});
  Status st = MergeScanSnapshot(table->Snapshot(), ShardScanOptions{},
                                [](const RowView&) { return Status::OK(); });
  plane->Disarm();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(st.ToString().find("scenario=scan-fail"), std::string::npos)
      << st.ToString();

  // Disarmed, the same scan succeeds.
  EXPECT_TRUE(MergeScanSnapshot(table->Snapshot(), ShardScanOptions{},
                                [](const RowView&) { return Status::OK(); })
                  .ok());
}

TEST(SessionChaosTest, ExecuteFaultInjectionFailsStatement) {
  using namespace shard_chaos;
  const std::string dir = MakeTempDir("session_chaos_exec");
  Database db(dir, DeviceProfile::Ssd());
  FaultPlane* plane = FaultPlane::Process();
  plane->Arm("session-fail", 9,
             {MakeRule("session.execute.begin", ChaosAction::kFail, 0)});
  Status st = db.Execute("SHOW SESSIONS").status();
  plane->Disarm();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_TRUE(db.Execute("SHOW SESSIONS").ok());
}

}  // namespace
}  // namespace corgipile
