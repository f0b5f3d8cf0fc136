// serve_mixed: two closed-loop reader sessions alternating PREDICT BY and
// EVALUATE BY over a 4-shard susy table, beside one open-loop INSERT session
// appending 256-row batches to a 4-shard side table.
//
// Untraced runs issue every statement through Session::Predict/Evaluate.
// Traced runs alternate reader cycles between that and a bench-side
// rebuild of each statement from public pieces (ShardedTable::Snapshot,
// CollectSnapshot, InferenceEngine, EvaluateBinaryDetailed) with a span at
// each boundary, and check the rebuild against the setup reference.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "db/database.h"
#include "exec/shard_scan.h"
#include "stats.h"
#include "util/threadpool.h"
#include "workloads.h"

namespace perfbench {

using corgipile::BinaryReport;
using corgipile::Database;
using corgipile::InDbPredictResult;
using corgipile::Session;
using corgipile::TimeCategory;
using corgipile::Tuple;

namespace {

constexpr uint32_t kShards = 4;
/// susy at catalog scale 2: 90k dense tuples (~8.8 MB, fits the default
/// 32 MB pool). Scale 4 makes a contended PREDICT take ~1.5 s, too few
/// statements per run for a tail percentile with ten samples beyond it.
constexpr double kScale = 2.0;
constexpr size_t kInsertRows = 256;
/// Open-loop ingest rate: 40 batches/s = 10,240 rows/s, a few percent of
/// the closed-loop INSERT ceiling, so no backlog builds.
constexpr double kInsertBatchesPerS = 40.0;
constexpr int kReaders = 2;
/// Tail caps: a run holds ~60-80 of each reader statement (p75 needs 38)
/// and ~1000 inserts (p95 needs 182).
constexpr double kStatementTailPercentile = 75;
constexpr double kInsertTailPercentile = 95;

const char* kTable = "susy";
const char* kSide = "side";
const char* kModel = "serve_lr";
const char* kPredictSql = "SELECT * FROM susy PREDICT BY serve_lr";
const char* kEvaluateSql = "SELECT * FROM susy EVALUATE BY serve_lr";

bool SameReport(const BinaryReport& a, const BinaryReport& b) {
  return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn &&
         BitEqual(a.auc, b.auc);
}

struct ServeFixture {
  std::string dir;
  std::unique_ptr<Database> db;
  std::shared_ptr<const std::vector<Tuple>> insert_source;
  uint64_t table_tuples = 0;
  uint64_t side_initial = 0;
  InDbPredictResult predict_ref;
  BinaryReport evaluate_ref;

  ~ServeFixture() {
    db.reset();
    if (!dir.empty()) RemoveDir(dir);
  }
};

/// PREDICT checks: every tuple of the snapshot answered, nothing failed,
/// and the metric and simulated serving figures equal the reference.
bool PredictMatches(const InDbPredictResult& r, const ServeFixture& fx) {
  return r.count == fx.table_tuples && r.serve.failed == 0 &&
         BitEqual(r.metric, fx.predict_ref.metric) &&
         BitEqual(r.mean_loss, fx.predict_ref.mean_loss) &&
         r.serve.num_batches == fx.predict_ref.serve.num_batches &&
         BitEqual(r.serve.latency.p99, fx.predict_ref.serve.latency.p99);
}

/// ParseQuery, narrowed to the statement kind `S`.
template <typename S>
corgipile::Result<S> ParseAs(const char* sql) {
  CORGI_ASSIGN_OR_RETURN(corgipile::Statement parsed,
                         corgipile::ParseQuery(sql));
  if (!std::holds_alternative<S>(parsed)) {
    return corgipile::Status::InvalidArgument(
        std::string("unexpected statement kind: ") + sql);
  }
  return std::get<S>(parsed);
}

std::unique_ptr<ServeFixture> Setup(const RunConfig& config, int rep,
                                    Outcome* outcome) {
  auto fx = std::make_unique<ServeFixture>();
  fx->dir = config.work_dir + "/setup" + std::to_string(rep);
  if (!ResetDir(fx->dir)) {
    outcome->Fail("cannot create " + fx->dir);
    return nullptr;
  }
  corgipile::Dataset ds = MakeDataset("susy", kScale, config.seed, false);
  fx->db = std::make_unique<Database>(
      fx->dir, corgipile::DeviceProfile::Ssd().Scaled(1e-3));
  outcome->Attempt(2);
  corgipile::Status st = fx->db->RegisterDataset(kTable, ds, kShards);
  if (st.ok()) {
    const std::vector<Tuple> first(ds.test->begin(),
                                   ds.test->begin() + kInsertRows);
    st = fx->db->CreateTable(kSide, ds.MakeSchema(), first, false,
                             corgipile::Page::kDefaultSize, kShards);
    fx->side_initial = first.size();
  }
  if (!st.ok()) {
    outcome->Fail("serve_mixed set-up: " + st.ToString());
    return nullptr;
  }
  fx->table_tuples = ds.train->size();
  fx->insert_source = ds.test;
  ds.train.reset();

  corgipile::SessionOptions so;
  so.label = "setup";
  so.seed = config.seed;
  std::unique_ptr<Session> session = fx->db->CreateSession(so);
  outcome->Attempt(3);
  auto trained = session->Execute(
      std::string("SELECT * FROM susy TRAIN BY lr WITH strategy=corgipile, "
                  "block_size=10KB, double_buffer=true, max_epoch_num=2, "
                  "publish=") +
      kModel);
  if (!trained.ok()) {
    outcome->Fail("serve model TRAIN: " + trained.status().ToString());
    return nullptr;
  }
  // Warm-up statements double as the references every later one must
  // reproduce.
  auto predict = [&]() -> corgipile::Result<InDbPredictResult> {
    CORGI_ASSIGN_OR_RETURN(auto stmt,
                           ParseAs<corgipile::PredictStatement>(kPredictSql));
    return session->Predict(stmt);
  }();
  auto evaluate = [&]() -> corgipile::Result<BinaryReport> {
    CORGI_ASSIGN_OR_RETURN(
        auto stmt, ParseAs<corgipile::EvaluateStatement>(kEvaluateSql));
    return session->Evaluate(stmt);
  }();
  if (!predict.ok() || !evaluate.ok()) {
    outcome->Fail("serve_mixed warm-up: " +
                  (predict.ok() ? evaluate.status() : predict.status())
                      .ToString());
    return nullptr;
  }
  fx->predict_ref = *predict;
  fx->evaluate_ref = *evaluate;
  if (!outcome->Check(predict->count == fx->table_tuples &&
                          predict->serve.failed == 0 &&
                          evaluate->total() == fx->table_tuples,
                      "serve_mixed warm-up counts")) {
    return nullptr;
  }
  return fx;
}

/// Everything one reader or the ingest thread measured.
struct ReaderLog {
  std::vector<double> predict_s, evaluate_s;
  std::vector<double> traced_predict_s;
  uint64_t predict_tuples = 0, evaluate_tuples = 0;
  // Traced-statement figures.
  std::vector<double> submit_us_per_request;
  std::vector<double> collect_tuples;
  std::vector<double> batches, occupancy, sim_p99_ms;
};

struct IngestLog {
  std::vector<double> latency_s;  ///< completion - due time
  std::vector<double> late_s;     ///< send - due time
  std::vector<double> busy_s;     ///< Session::Insert duration
  uint64_t acked_rows = 0;
  uint64_t user_bytes = 0;
};

/// PREDICT BY rebuilt from public pieces (mirrors Database::Predict).
corgipile::Result<InDbPredictResult> TracedPredict(
    ServeFixture* fx, corgipile::ThreadPool* pool, SpanRecorder* rec,
    uint64_t id, ReaderLog* log) {
  Database* db = fx->db.get();
  ScopedSpan statement(rec, "predict.statement", id);
  corgipile::PredictStatement stmt;
  {
    ScopedSpan span(rec, "query.parse", id);
    CORGI_ASSIGN_OR_RETURN(stmt,
                           ParseAs<corgipile::PredictStatement>(kPredictSql));
  }
  CORGI_ASSIGN_OR_RETURN(corgipile::ShardedTable * table,
                         db->GetShardedTable(stmt.table_name));
  corgipile::ShardedSnapshot snap;
  {
    ScopedSpan span(rec, "storage.snapshot", id);
    snap = table->Snapshot();
  }
  corgipile::ServeOptions opts = db->serve_options();
  opts.flush_on_idle = false;
  opts.clock = &db->clock();
  corgipile::InferenceEngine engine(&db->models(), opts);
  {
    ScopedSpan span(rec, "serve.start", id);
    CORGI_RETURN_NOT_OK(engine.Start());
  }
  std::vector<Tuple> tuples;
  {
    ScopedSpan span(rec, "exec.collect", id);
    corgipile::ShardScanOptions scan;
    scan.pool = pool;
    snap.ResetReadCursors();
    CORGI_RETURN_NOT_OK(corgipile::CollectSnapshot(snap, scan, &tuples));
  }
  std::vector<std::future<corgipile::ServeReply>> futures;
  futures.reserve(tuples.size());
  const double submit_start = NowSeconds();
  {
    ScopedSpan span(rec, "serve.submit", id);
    for (const Tuple& t : tuples) {
      corgipile::ServeRequest req;
      req.tuple = t;
      req.model_id = stmt.model_id;
      futures.push_back(engine.Submit(std::move(req)));
    }
  }
  const double submit_s = NowSeconds() - submit_start;
  {
    ScopedSpan span(rec, "serve.drain", id);
    CORGI_RETURN_NOT_OK(engine.Drain());
  }
  corgipile::EvalAccumulator acc;
  {
    ScopedSpan span(rec, "serve.reply", id);
    for (size_t i = 0; i < futures.size(); ++i) {
      corgipile::ServeReply reply = futures[i].get();
      CORGI_RETURN_NOT_OK(reply.status);
      acc.Add(tuples[i].label, reply.value, reply.loss, reply.correct);
    }
  }
  const corgipile::EvalResult eval =
      acc.Finalize(corgipile::LabelType::kBinary);
  InDbPredictResult out;
  out.count = eval.count;
  out.metric = eval.metric;
  out.mean_loss = eval.mean_loss;
  out.serve = engine.stats();
  if (!tuples.empty()) {
    log->submit_us_per_request.push_back(submit_s * 1e6 /
                                         static_cast<double>(tuples.size()));
  }
  log->collect_tuples.push_back(static_cast<double>(tuples.size()));
  log->batches.push_back(static_cast<double>(out.serve.num_batches));
  log->occupancy.push_back(out.serve.mean_batch_occupancy);
  log->sim_p99_ms.push_back(out.serve.latency.p99 * 1e3);
  return out;
}

/// EVALUATE BY rebuilt from public pieces (mirrors Database::EvaluateModel).
corgipile::Result<BinaryReport> TracedEvaluate(ServeFixture* fx,
                                               corgipile::ThreadPool* pool,
                                               SpanRecorder* rec,
                                               uint64_t id, ReaderLog* log) {
  Database* db = fx->db.get();
  ScopedSpan statement(rec, "evaluate.statement", id);
  corgipile::EvaluateStatement stmt;
  {
    ScopedSpan span(rec, "query.parse", id);
    CORGI_ASSIGN_OR_RETURN(
        stmt, ParseAs<corgipile::EvaluateStatement>(kEvaluateSql));
  }
  CORGI_ASSIGN_OR_RETURN(corgipile::ShardedTable * table,
                         db->GetShardedTable(stmt.table_name));
  CORGI_ASSIGN_OR_RETURN(std::shared_ptr<const corgipile::Model> model,
                         db->models().Get(stmt.model_id));
  corgipile::ShardedSnapshot snap;
  {
    ScopedSpan span(rec, "storage.snapshot", id);
    snap = table->Snapshot();
  }
  std::vector<Tuple> tuples;
  {
    ScopedSpan span(rec, "exec.collect", id);
    corgipile::ShardScanOptions scan;
    scan.pool = pool;
    snap.ResetReadCursors();
    CORGI_RETURN_NOT_OK(corgipile::CollectSnapshot(snap, scan, &tuples));
  }
  log->collect_tuples.push_back(static_cast<double>(tuples.size()));
  ScopedSpan span(rec, "ml.eval", id);
  return corgipile::EvaluateBinaryDetailed(*model, tuples);
}

void ReaderLoop(ServeFixture* fx, Session* session, int reader,
                double deadline, SpanRecorder* rec,
                corgipile::ThreadPool* pool, ReaderLog* log,
                Outcome* outcome) {
  // Reader 0 starts with PREDICT, reader 1 with EVALUATE, so the two
  // statement kinds overlap evenly.
  for (uint64_t op = 0; NowSeconds() < deadline; ++op) {
    const bool predict = (op + static_cast<uint64_t>(reader)) % 2 == 0;
    // Traced runs alternate whole PREDICT+EVALUATE cycles.
    const bool traced = rec != nullptr && (op / 2) % 2 == 1;
    const uint64_t id = (static_cast<uint64_t>(reader) << 32) | op;
    outcome->Attempt();
    const double t0 = NowSeconds();
    if (predict) {
      corgipile::Result<InDbPredictResult> r =
          traced ? TracedPredict(fx, pool, rec, id, log)
                 : [&]() -> corgipile::Result<InDbPredictResult> {
                     CORGI_ASSIGN_OR_RETURN(
                         auto stmt,
                         ParseAs<corgipile::PredictStatement>(kPredictSql));
                     return session->Predict(stmt);
                   }();
      const double wall = NowSeconds() - t0;
      if (!r.ok()) {
        outcome->Fail("PREDICT: " + r.status().ToString());
        continue;
      }
      if (!PredictMatches(*r, *fx)) {
        outcome->Fail(std::string(traced ? "traced " : "") +
                      "PREDICT differs from the reference (count " +
                      std::to_string(r->count) + ", failed " +
                      std::to_string(r->serve.failed) + ")");
        continue;
      }
      (traced ? log->traced_predict_s : log->predict_s).push_back(wall);
      if (!traced) log->predict_tuples += r->count;
    } else {
      corgipile::Result<BinaryReport> r =
          traced ? TracedEvaluate(fx, pool, rec, id, log)
                 : [&]() -> corgipile::Result<BinaryReport> {
                     CORGI_ASSIGN_OR_RETURN(
                         auto stmt,
                         ParseAs<corgipile::EvaluateStatement>(kEvaluateSql));
                     return session->Evaluate(stmt);
                   }();
      const double wall = NowSeconds() - t0;
      if (!r.ok()) {
        outcome->Fail("EVALUATE: " + r.status().ToString());
        continue;
      }
      if (!SameReport(*r, fx->evaluate_ref)) {
        outcome->Fail(std::string(traced ? "traced " : "") +
                      "EVALUATE report differs from the reference");
        continue;
      }
      if (!traced) {
        log->evaluate_s.push_back(wall);
        log->evaluate_tuples += r->total();
      }
    }
  }
}

void IngestLoop(ServeFixture* fx, Session* session, double start,
                double deadline, SpanRecorder* rec, IngestLog* log,
                Outcome* outcome) {
  const std::vector<Tuple>& source = *fx->insert_source;
  uint64_t next_id = fx->table_tuples + fx->side_initial;
  const double period = 1.0 / kInsertBatchesPerS;
  std::vector<Tuple> batch;
  for (uint64_t k = 0;; ++k) {
    const double due = start + static_cast<double>(k) * period;
    if (due >= deadline) break;
    batch.clear();
    for (size_t j = 0; j < kInsertRows; ++j) {
      Tuple t = source[(k * kInsertRows + j) % source.size()];
      t.id = next_id++;
      log->user_bytes += t.SerializedSize();
      batch.push_back(std::move(t));
    }
    const double now = NowSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    const double sent = NowSeconds();
    log->late_s.push_back(std::max(0.0, sent - due));
    outcome->Attempt();
    corgipile::Status st;
    {
      ScopedSpan span(rec, "storage.insert", (3ull << 32) | k);
      st = session->Insert(kSide, batch);
    }
    const double done = NowSeconds();
    if (!st.ok()) {
      outcome->Fail("INSERT: " + st.ToString());
      continue;
    }
    log->acked_rows += batch.size();
    log->latency_s.push_back(done - due);
    log->busy_s.push_back(done - sent);
  }
}

std::vector<double> Concat(const std::vector<ReaderLog>& logs,
                           std::vector<double> ReaderLog::*field) {
  std::vector<double> out;
  for (const ReaderLog& l : logs) {
    out.insert(out.end(), (l.*field).begin(), (l.*field).end());
  }
  return out;
}

double Ms(double s) { return s * 1e3; }

}  // namespace

void RunServeMixed(const RunConfig& config, Report* report,
                   Outcome* outcome) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeFixture> fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx.reset();
    const double t0 = NowSeconds();
    fx = Setup(config, rep, outcome);
    if (fx == nullptr) return;
    setup_s.push_back(NowSeconds() - t0);
  }
  Database* db = fx->db.get();

  SpanRecorder recorder;
  SpanRecorder* rec = config.trace ? &recorder : nullptr;
  // Scan pool for the traced rebuilds, sized like the engine's own.
  std::unique_ptr<corgipile::ThreadPool> pool;
  if (config.trace) pool = std::make_unique<corgipile::ThreadPool>(4);

  const corgipile::IoStats io_before = db->io_stats();
  const corgipile::BufferManager::Stats buf_before =
      db->buffer_pool()->stats();
  const double serve_before = db->clock().Elapsed(TimeCategory::kServe);
  const double read_before = db->clock().Elapsed(TimeCategory::kIoRead);

  // Client sessions live until the report is built, so SHOW SESSIONS
  // (DescribeSessions) still lists them: readers first, then ingest.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int r = 0; r <= kReaders; ++r) {
    corgipile::SessionOptions so;
    so.label = r < kReaders ? "reader" + std::to_string(r) : "ingest";
    so.seed = config.seed + static_cast<uint64_t>(r);
    sessions.push_back(db->CreateSession(so));
  }
  std::vector<ReaderLog> readers(kReaders);
  IngestLog ingest;
  const double start = NowSeconds();
  const double deadline = start + config.seconds;
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(ReaderLoop, fx.get(), sessions[r].get(), r,
                           deadline, rec, pool.get(),
                           &readers[static_cast<size_t>(r)], outcome);
    }
    threads.emplace_back(IngestLoop, fx.get(), sessions[kReaders].get(),
                         start, deadline, rec, &ingest, outcome);
    for (std::thread& t : threads) t.join();
  }
  const double phase_s = NowSeconds() - start;

  // The side table holds exactly the initial rows plus every acked batch.
  outcome->Attempt();
  auto side = db->GetShardedTable(kSide);
  const uint64_t side_rows = side.ok() ? (*side)->num_tuples() : 0;
  outcome->Check(side_rows == fx->side_initial + ingest.acked_rows,
                 "side table holds " + std::to_string(side_rows) +
                     " rows, expected " +
                     std::to_string(fx->side_initial + ingest.acked_rows));

  const std::vector<double> predict_s = Concat(readers, &ReaderLog::predict_s);
  const std::vector<double> evaluate_s =
      Concat(readers, &ReaderLog::evaluate_s);
  uint64_t predict_tuples = 0, evaluate_tuples = 0;
  for (const ReaderLog& l : readers) {
    predict_tuples += l.predict_tuples;
    evaluate_tuples += l.evaluate_tuples;
  }
  const Tail predict_tail = TailOf(predict_s, kStatementTailPercentile);
  const Tail evaluate_tail = TailOf(evaluate_s, kStatementTailPercentile);
  const Tail insert_tail = TailOf(ingest.latency_s, kInsertTailPercentile);
  const Tail late_tail = TailOf(ingest.late_s, kInsertTailPercentile);
  double evaluate_wall = 0;
  for (double s : evaluate_s) evaluate_wall += s;
  const double evaluate_tps =
      evaluate_wall > 0 ? static_cast<double>(evaluate_tuples) / evaluate_wall
                        : 0.0;

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "serve_mixed: PREDICT median %.1f ms, tail %s %.1f ms; EVALUATE "
      "median %.1f ms, tail %s %.1f ms, %.0f tuples/s; INSERT median %.2f "
      "ms, tail %s %.2f ms (%llu rows acked); generator late tail %s %.3f ms",
      Ms(Median(predict_s)), DescribeTail(predict_tail).c_str(),
      Ms(predict_tail.value), Ms(Median(evaluate_s)),
      DescribeTail(evaluate_tail).c_str(), Ms(evaluate_tail.value),
      evaluate_tps, Ms(Median(ingest.latency_s)),
      DescribeTail(insert_tail).c_str(), Ms(insert_tail.value),
      static_cast<unsigned long long>(ingest.acked_rows),
      DescribeTail(late_tail).c_str(), Ms(late_tail.value));
  report->Note(line);
  report->Set("setup_s", Median(setup_s));

  if (!config.trace) {
    report->Set("latency_ms", Ms(Median(predict_s)));
    report->Set("tuples_per_s",
                phase_s > 0 ? static_cast<double>(predict_tuples) / phase_s
                            : 0.0);
  } else {
    const std::vector<Span> spans = recorder.Snapshot();
    const std::vector<double> self = SelfTimes(spans);
    auto total = [&](const char* name) {
      return Median(PerStatementTotals(spans, self, name, false));
    };
    const std::vector<double> collect_s =
        PerStatementTotals(spans, self, "exec.collect", false);
    double collect_wall = 0, collect_tuples = 0;
    for (double s : collect_s) collect_wall += s;
    for (double n : Concat(readers, &ReaderLog::collect_tuples)) {
      collect_tuples += n;
    }
    // Every traced reader statement has exactly one collect span.
    const double statements = static_cast<double>(
        predict_s.size() + evaluate_s.size() + collect_s.size());
    const corgipile::IoStats& io = db->io_stats();
    const uint64_t seq = io.sequential_reads - io_before.sequential_reads;
    const uint64_t rnd = io.random_reads - io_before.random_reads;
    const corgipile::BufferManager::Stats buf = db->buffer_pool()->stats();
    const uint64_t hits = buf.hits - buf_before.hits;
    const uint64_t misses = buf.misses - buf_before.misses;
    const double predicts = static_cast<double>(
        predict_s.size() +
        Concat(readers, &ReaderLog::traced_predict_s).size());

    report->Set("query.parse_us", total("query.parse") * 1e6);
    report->Set("storage.snapshot_us", total("storage.snapshot") * 1e6);
    report->Set("storage.pages_read",
                statements > 0 ? static_cast<double>(seq + rnd) / statements
                               : 0.0);
    report->Set("storage.random_read_frac",
                seq + rnd == 0 ? 0.0
                               : static_cast<double>(rnd) /
                                     static_cast<double>(seq + rnd));
    report->Set("storage.bytes_read",
                statements > 0 ? static_cast<double>(io.bytes_read -
                                                     io_before.bytes_read) /
                                     statements
                               : 0.0);
    report->Set("storage.buffer_hit_rate",
                hits + misses == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses));
    report->Set("storage.buffer_evictions",
                static_cast<double>(buf.evictions - buf_before.evictions));
    report->Set("storage.insert_busy_ms", Ms(Median(ingest.busy_s)));
    report->Set("storage.bytes_written_per_user_byte",
                ingest.user_bytes == 0
                    ? 0.0
                    : static_cast<double>(io.bytes_written -
                                          io_before.bytes_written) /
                          static_cast<double>(ingest.user_bytes));
    report->Set("iosim.io_read_s",
                statements > 0
                    ? (db->clock().Elapsed(TimeCategory::kIoRead) -
                       read_before) / statements
                    : 0.0);
    report->Set("iosim.serve_s",
                predicts > 0 ? (db->clock().Elapsed(TimeCategory::kServe) -
                                serve_before) / predicts
                             : 0.0);
    report->Set("ml.eval_ms", Ms(total("ml.eval")));
    report->Set("exec.collect_ms", Ms(Median(collect_s)));
    report->Set("exec.collect_tuples_per_s",
                collect_wall > 0 ? collect_tuples / collect_wall : 0.0);
    report->Set("serve.submit_us",
                Median(Concat(readers, &ReaderLog::submit_us_per_request)));
    report->Set("serve.drain_ms", Ms(total("serve.drain")));
    report->Set("serve.reply_ms", Ms(total("serve.reply")));
    report->Set("serve.batches", Median(Concat(readers, &ReaderLog::batches)));
    report->Set("serve.mean_batch_occupancy",
                Median(Concat(readers, &ReaderLog::occupancy)));
    report->Set("serve.sim_latency_p99_ms",
                Median(Concat(readers, &ReaderLog::sim_p99_ms)));
    const double traced_wall =
        Median(Concat(readers, &ReaderLog::traced_predict_s));
    report->Set("trace.overhead_frac",
                Median(predict_s) > 0 ? traced_wall / Median(predict_s) - 1.0
                                      : 0.0);
    report->Set("bench.generator_late_ms", Ms(late_tail.value));
    report->Set("e2e.latency_tail_ms", Ms(predict_tail.value));
    report->Set("e2e.evaluate_tuples_per_s", evaluate_tps);
    report->Set("e2e.evaluate_latency_tail_ms", Ms(evaluate_tail.value));
    report->Set("e2e.insert_latency_ms", Ms(Median(ingest.latency_s)));
    report->Set("e2e.insert_latency_tail_ms", Ms(insert_tail.value));
    if (!config.trace_out.empty()) {
      corgipile::Status st = recorder.WriteJsonLines(config.trace_out);
      if (!st.ok()) outcome->Fail("trace dump: " + st.ToString());
    }
  }
  double statements = 0, failed = 0;
  for (const auto& s : db->DescribeSessions()) {
    statements += static_cast<double>(s.stats.statements);
    failed += static_cast<double>(s.stats.failed);
  }
  report->Set("session.statements", statements);
  report->Set("session.failed", failed);
  sessions.clear();  // before the fixture's database
}

}  // namespace perfbench
