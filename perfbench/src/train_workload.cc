// train_cached / train_cold: closed-loop TRAIN BY to a target test loss.
//
// Untraced runs issue every statement through Session::Train. Traced runs
// alternate that with the bench-side rebuild of the same pipeline
// (pipeline.h) and check that the rebuild reproduces the statement bit for
// bit.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "db/database.h"
#include "pipeline.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using corgipile::Database;
using corgipile::EpochLog;
using corgipile::InDbTrainResult;
using corgipile::Session;
using corgipile::TimeCategory;

TrainWorkload TrainCachedWorkload() {
  TrainWorkload w;
  w.name = "train_cached";
  w.dataset = "susy";
  w.scale = 4.0;  // 180k dense tuples x 18, ~17.6 MB: fits the 32 MB pool
  w.device = corgipile::DeviceProfile::Ssd().Scaled(1e-3);
  w.buffer_pool_bytes = 32ull << 20;
  w.block_size = "10KB";
  // A small step keeps the loss curve smooth and seed-insensitive: every
  // seed tried crosses 0.505 at epoch 3 (epoch 2 sits near 0.52).
  w.learning_rate = 1e-5;
  w.target_loss = 0.505;
  w.reference_epochs = 6;
  return w;
}

TrainWorkload TrainColdWorkload() {
  TrainWorkload w;
  w.name = "train_cold";
  w.dataset = "criteo";
  w.scale = 0.5;  // 100k sparse tuples, 39 nnz of 10k dims
  w.compress = true;  // ~33 MB compressed: larger than the 16 MB pool
  w.device = corgipile::DeviceProfile::Hdd().Scaled(1e-3);
  w.buffer_pool_bytes = 16ull << 20;
  w.block_size = "64KB";
  // Criteo's per-epoch test loss is noisy across seeds (±0.02 after the
  // first epoch), so only the first crossing is stable: every seed tried
  // lands in 0.53-0.56 after epoch 1, well under 0.60.
  w.learning_rate = 0.01;
  w.target_loss = 0.60;
  w.reference_epochs = 4;
  return w;
}

namespace {

const char* kTable = "t";
/// Tail cap: a run holds ~150-300 statements; p90 needs 92.
constexpr double kTailPercentile = 90;

std::string TrainSql(const TrainWorkload& w, uint32_t epochs, uint64_t seed) {
  char lr[32];
  std::snprintf(lr, sizeof(lr), "%.17g", w.learning_rate);
  return std::string("SELECT * FROM ") + kTable +
         " TRAIN BY lr WITH strategy=corgipile, block_size=" + w.block_size +
         ", double_buffer=true, learning_rate=" + lr +
         ", max_epoch_num=" + std::to_string(epochs) +
         ", seed=" + std::to_string(seed);
}

/// Statement seed: small and positive so it survives Params::GetInt.
uint64_t StatementSeed(uint64_t run_seed) { return run_seed % 1000003 + 1; }

bool SameEpochs(const std::vector<EpochLog>& a,
                const std::vector<EpochLog>& b) {
  if (a.size() > b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tuples_seen != b[i].tuples_seen ||
        !BitEqual(a[i].train_loss, b[i].train_loss) ||
        !BitEqual(a[i].test_loss, b[i].test_loss) ||
        !BitEqual(a[i].test_metric, b[i].test_metric)) {
      return false;
    }
  }
  return true;
}

bool SameParams(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), BitEqual);
}

/// One prepared database: table registered, epochs-to-target found, and
/// the reference result every measured statement must reproduce.
struct TrainFixture {
  std::string dir;
  std::unique_ptr<Database> db;  // declared before session: outlives it
  std::unique_ptr<Session> session;
  std::shared_ptr<const std::vector<corgipile::Tuple>> test;
  uint32_t epochs = 0;  ///< epochs to target
  std::string sql;
  InDbTrainResult reference;
  std::vector<double> reference_params;

  ~TrainFixture() {
    session.reset();
    db.reset();
    if (!dir.empty()) RemoveDir(dir);
  }
};

/// Runs one statement through the session and checks it against the
/// reference (when one exists). Returns the result, or nullopt on failure.
std::optional<InDbTrainResult> RunStatement(TrainFixture* fx,
                                            const std::string& sql,
                                            Outcome* outcome,
                                            double* wall_s) {
  outcome->Attempt();
  const double t0 = NowSeconds();
  auto parsed = corgipile::ParseQuery(sql);
  if (!parsed.ok() ||
      !std::holds_alternative<corgipile::TrainStatement>(*parsed)) {
    outcome->Fail("TRAIN did not parse: " + sql);
    return std::nullopt;
  }
  auto result =
      fx->session->Train(std::get<corgipile::TrainStatement>(*parsed));
  *wall_s = NowSeconds() - t0;
  if (!result.ok()) {
    outcome->Fail("TRAIN failed: " + result.status().ToString());
    return std::nullopt;
  }
  return std::move(result).ValueOrDie();
}

/// Model parameters of a stored model, removed from the store afterwards
/// so the store does not grow with the statement count.
std::vector<double> TakeParams(Database* db, const std::string& model_id) {
  std::vector<double> params;
  auto model = db->models().Get(model_id);
  if (model.ok()) params = (*model)->params();
  (void)db->models().Remove(model_id);
  return params;
}

std::unique_ptr<TrainFixture> Setup(const RunConfig& config,
                                    const TrainWorkload& w, int rep,
                                    Outcome* outcome) {
  auto fx = std::make_unique<TrainFixture>();
  fx->dir = config.work_dir + "/setup" + std::to_string(rep);
  if (!ResetDir(fx->dir)) {
    outcome->Fail("cannot create " + fx->dir);
    return nullptr;
  }
  corgipile::Dataset ds = MakeDataset(w.dataset, w.scale, config.seed,
                                      w.compress);
  fx->db = std::make_unique<Database>(fx->dir, w.device, w.buffer_pool_bytes);
  corgipile::Status st = fx->db->RegisterDataset(kTable, ds);
  outcome->Attempt();
  if (!st.ok()) {
    outcome->Fail("RegisterDataset: " + st.ToString());
    return nullptr;
  }
  fx->test = ds.test;
  ds.train.reset();  // the table holds the tuples now
  corgipile::SessionOptions so;
  so.label = w.name;
  so.seed = config.seed;
  fx->session = fx->db->CreateSession(so);

  const uint64_t seed = StatementSeed(config.seed);
  double wall = 0.0;
  auto reference = RunStatement(
      fx.get(), TrainSql(w, w.reference_epochs, seed), outcome, &wall);
  if (!reference) return nullptr;
  (void)TakeParams(fx->db.get(), reference->model_id);
  for (const EpochLog& e : reference->epochs) {
    if (e.test_loss <= w.target_loss) {
      fx->epochs = e.epoch + 1;
      break;
    }
  }
  if (fx->epochs == 0) {
    outcome->Fail(w.name + ": reference never reached target loss " +
                  std::to_string(w.target_loss) + " in " +
                  std::to_string(w.reference_epochs) + " epochs");
    return nullptr;
  }
  // Warm-up: the measured statement shape, which must reproduce the
  // reference's first `epochs` epochs exactly.
  fx->sql = TrainSql(w, fx->epochs, seed);
  auto warm = RunStatement(fx.get(), fx->sql, outcome, &wall);
  if (!warm) return nullptr;
  fx->reference_params = TakeParams(fx->db.get(), warm->model_id);
  if (!outcome->Check(warm->epochs.size() == fx->epochs &&
                          SameEpochs(warm->epochs, reference->epochs),
                      w.name + ": warm-up TRAIN differs from the reference "
                               "run's first epochs")) {
    return nullptr;
  }
  fx->reference = std::move(*warm);
  return fx;
}

/// Checks one measured result against the fixture's reference.
void CheckResult(const TrainFixture& fx, const TrainWorkload& w,
                 const std::vector<EpochLog>& epochs,
                 const std::vector<double>& params, const char* what,
                 Outcome* outcome) {
  const bool ok = epochs.size() == fx.epochs &&
                  SameEpochs(epochs, fx.reference.epochs) &&
                  SameParams(params, fx.reference_params) &&
                  epochs.back().test_loss <= w.target_loss;
  if (!ok) {
    outcome->Fail(w.name + ": " + what +
                  " is not bit-identical to the reference statement or "
                  "ended above the target loss");
  }
}

/// Counters sampled around one traced statement.
struct Counters {
  corgipile::IoStats io;
  corgipile::BufferManager::Stats buffer;
  double io_read = 0, decompress = 0, compute = 0;

  static Counters Take(Database* db) {
    Counters c;
    c.io = db->io_stats();
    if (db->buffer_pool() != nullptr) c.buffer = db->buffer_pool()->stats();
    c.io_read = db->clock().Elapsed(TimeCategory::kIoRead);
    c.decompress = db->clock().Elapsed(TimeCategory::kDecompress);
    c.compute = db->clock().Elapsed(TimeCategory::kCompute);
    return c;
  }
};

/// Per-statement figures of a traced statement that are not spans.
struct TracedStatement {
  uint64_t id = 0;
  double wall_s = 0;
  uint64_t tuples = 0;
  double pages = 0, random_frac = 0, bytes = 0;
  double hit_rate = 0, evictions = 0;
  double io_read = 0, decompress = 0, compute = 0;
};

/// The TRAIN statement rebuilt from public operators (pipeline.h), with
/// spans at each stage boundary.
void RunTraced(TrainFixture* fx, const TrainWorkload& w, SpanRecorder* rec,
               uint64_t stmt_id, TracedStatement* out, Outcome* outcome) {
  outcome->Attempt();
  out->id = stmt_id;
  Database* db = fx->db.get();
  const Counters before = Counters::Take(db);
  const double t0 = NowSeconds();
  corgipile::Result<PipelineResult> result = [&]()
      -> corgipile::Result<PipelineResult> {
    ScopedSpan statement(rec, "train.statement", stmt_id);
    PipelineOptions options;
    {
      ScopedSpan span(rec, "query.parse", stmt_id);
      CORGI_ASSIGN_OR_RETURN(corgipile::Statement parsed,
                             corgipile::ParseQuery(fx->sql));
      CORGI_ASSIGN_OR_RETURN(
          options,
          PipelineOptionsFrom(std::get<corgipile::TrainStatement>(parsed)));
    }
    CORGI_ASSIGN_OR_RETURN(corgipile::ShardedTable * table,
                           db->GetShardedTable(kTable));
    return RunPipeline(db, table, fx->test.get(), options, rec, stmt_id,
                       statement.id());
  }();
  out->wall_s = NowSeconds() - t0;
  if (!result.ok()) {
    outcome->Fail(w.name + ": traced TRAIN failed: " +
                  result.status().ToString());
    return;
  }
  out->tuples = result->tuples;
  CheckResult(*fx, w, result->epochs, result->params,
              "traced pipeline rebuild", outcome);

  const Counters after = Counters::Take(db);
  const uint64_t seq = after.io.sequential_reads - before.io.sequential_reads;
  const uint64_t rnd = after.io.random_reads - before.io.random_reads;
  out->pages = static_cast<double>(seq + rnd);
  out->random_frac = seq + rnd == 0 ? 0.0 : static_cast<double>(rnd) /
                                                static_cast<double>(seq + rnd);
  out->bytes = static_cast<double>(after.io.bytes_read - before.io.bytes_read);
  const uint64_t hits = after.buffer.hits - before.buffer.hits;
  const uint64_t misses = after.buffer.misses - before.buffer.misses;
  out->hit_rate = hits + misses == 0 ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(hits + misses);
  out->evictions =
      static_cast<double>(after.buffer.evictions - before.buffer.evictions);
  out->io_read = after.io_read - before.io_read;
  out->decompress = after.decompress - before.decompress;
  out->compute = after.compute - before.compute;
}

template <typename F>
std::vector<double> Collect(const std::vector<TracedStatement>& v, F f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const TracedStatement& s : v) out.push_back(f(s));
  return out;
}

void ReportTraced(const TrainFixture& fx, const SpanRecorder& rec,
                  const std::vector<TracedStatement>& traced,
                  const std::vector<double>& untraced_wall, Report* r) {
  const std::vector<Span> spans = rec.Snapshot();
  const std::vector<double> self = SelfTimes(spans);
  auto total = [&](const char* name, bool use_self) {
    return Median(PerStatementTotals(spans, self, name, use_self));
  };
  r->Set("query.parse_us", total("query.parse", false) * 1e6);
  r->Set("storage.snapshot_us", total("storage.snapshot", false) * 1e6);
  r->Set("storage.pages_read",
         Median(Collect(traced, [](auto& s) { return s.pages; })));
  r->Set("storage.random_read_frac",
         Median(Collect(traced, [](auto& s) { return s.random_frac; })));
  r->Set("storage.bytes_read",
         Median(Collect(traced, [](auto& s) { return s.bytes; })));
  r->Set("storage.buffer_hit_rate",
         Median(Collect(traced, [](auto& s) { return s.hit_rate; })));
  r->Set("storage.buffer_evictions",
         Median(Collect(traced, [](auto& s) { return s.evictions; })));
  r->Set("iosim.io_read_s",
         Median(Collect(traced, [](auto& s) { return s.io_read; })));
  r->Set("iosim.decompress_s",
         Median(Collect(traced, [](auto& s) { return s.decompress; })));
  r->Set("iosim.compute_s",
         Median(Collect(traced, [](auto& s) { return s.compute; })));
  r->Set("db.block_shuffle.busy_ms", total("db.block_shuffle.", false) * 1e3);
  r->Set("db.tuple_shuffle.wait_ms",
         total("db.tuple_shuffle.next_batch", true) * 1e3);
  r->Set("db.sgd.epoch_ms", total("db.sgd.epoch", false) * 1e3);
  // Kernel: NextEpoch self time (the epoch minus its child NextBatch and
  // ReScan calls; includes the per-epoch test evaluation) per tuple.
  const std::map<uint64_t, double> epoch_self =
      SumByStatement(spans, self, "db.sgd.epoch", true);
  std::vector<double> ns_per_tuple;
  for (const TracedStatement& s : traced) {
    auto it = epoch_self.find(s.id);
    if (s.tuples > 0 && it != epoch_self.end()) {
      ns_per_tuple.push_back(it->second * 1e9 /
                             static_cast<double>(s.tuples));
    }
  }
  r->Set("ml.kernel_ns_per_tuple", Median(ns_per_tuple));
  const double traced_wall =
      Median(Collect(traced, [](auto& s) { return s.wall_s; }));
  const double plain_wall = Median(untraced_wall);
  r->Set("trace.overhead_frac",
         plain_wall > 0 ? traced_wall / plain_wall - 1.0 : 0.0);
  r->Note("traced statements: " + std::to_string(traced.size()) +
          ", untraced: " + std::to_string(untraced_wall.size()) +
          ", spans: " + std::to_string(spans.size()) +
          ", epochs to target: " + std::to_string(fx.epochs));
}

}  // namespace

void RunTrain(const RunConfig& config, const TrainWorkload& w, Report* report,
              Outcome* outcome) {
  // --- set-up, repeated; the last fixture is the one measured ---
  std::vector<double> setup_s;
  std::unique_ptr<TrainFixture> fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx.reset();
    const double t0 = NowSeconds();
    fx = Setup(config, w, rep, outcome);
    if (fx == nullptr) return;
    setup_s.push_back(NowSeconds() - t0);
  }

  // --- measured closed loop ---
  SpanRecorder recorder;
  std::vector<double> latency_s, sim_s;
  std::vector<TracedStatement> traced;
  uint64_t tuples = 0;
  const double start = NowSeconds();
  const double deadline = start + config.seconds;
  for (uint64_t i = 0; NowSeconds() < deadline; ++i) {
    if (config.trace && i % 2 == 1) {
      TracedStatement ts;
      RunTraced(fx.get(), w, &recorder, i, &ts, outcome);
      traced.push_back(ts);
      continue;
    }
    double wall = 0.0;
    auto result = RunStatement(fx.get(), fx->sql, outcome, &wall);
    if (!result) continue;
    CheckResult(*fx, w, result->epochs,
                TakeParams(fx->db.get(), result->model_id), "TRAIN statement",
                outcome);
    latency_s.push_back(wall);
    sim_s.push_back(result->end_to_end_double_seconds);
    for (const EpochLog& e : result->epochs) tuples += e.tuples_seen;
  }
  const double phase_s = NowSeconds() - start;

  const Tail tail = TailOf(latency_s, kTailPercentile);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu TRAIN statements of %u epoch(s) to loss <= %.3f; "
                "latency median %.2f ms, tail %s %.2f ms; sim %.4f s",
                w.name.c_str(), latency_s.size(), fx->epochs, w.target_loss,
                Median(latency_s) * 1e3, DescribeTail(tail).c_str(),
                tail.value * 1e3, Median(sim_s));
  report->Note(line);
  report->Set("setup_s", Median(setup_s));
  if (!config.trace) {
    report->Set("latency_ms", Median(latency_s) * 1e3);
    report->Set("tuples_per_s",
                phase_s > 0 ? static_cast<double>(tuples) / phase_s : 0.0);
  } else {
    ReportTraced(*fx, recorder, traced, latency_s, report);
    report->Set("e2e.latency_tail_ms", tail.value * 1e3);
    report->Set("e2e.train_sim_s", Median(sim_s));
    if (!config.trace_out.empty()) {
      corgipile::Status st = recorder.WriteJsonLines(config.trace_out);
      if (!st.ok()) outcome->Fail("trace dump: " + st.ToString());
    }
  }
  std::vector<corgipile::SessionInfo> sessions = fx->db->DescribeSessions();
  double statements = 0, failed = 0;
  for (const auto& s : sessions) {
    statements += static_cast<double>(s.stats.statements);
    failed += static_cast<double>(s.stats.failed);
  }
  report->Set("session.statements", statements);
  report->Set("session.failed", failed);
}

}  // namespace perfbench
