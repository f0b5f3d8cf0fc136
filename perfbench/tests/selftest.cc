// Self-tests for the benchmark's own code: tail-percentile selection,
// self-time arithmetic on synthetic span trees, and TimedOperator
// pass-through bit-identity on a tiny table.
//
//   perfbench_selftest [work_dir]      (exits non-zero on any failure)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "pipeline.h"
#include "stats.h"
#include "timed_operator.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestTailSelection() {
  // Threshold sample counts for each ladder rung: the smallest n with at
  // least ten samples ranked above the interpolated q-quantile.
  const struct {
    size_t n;
    double percentile;
  } cases[] = {{0, 0},    {19, 0},   {20, 50},  {37, 50},  {38, 75},
               {91, 75},  {92, 90},  {181, 90}, {182, 95}, {901, 95},
               {902, 99}, {9001, 99}, {9002, 99.9}};
  for (const auto& c : cases) {
    Expect(TailPercentileFor(c.n) == c.percentile,
           "TailPercentileFor(" + std::to_string(c.n) + ") = " +
               std::to_string(TailPercentileFor(c.n)) + ", want " +
               std::to_string(c.percentile));
  }
  // The rule itself: whenever a percentile is chosen, at least ten samples
  // are strictly greater than the reported value.
  for (size_t n = 1; n <= 2500; ++n) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>((i * 7919) % n));  // permuted
    }
    const Tail tail = TailOf(samples);
    if (tail.percentile == 0.0) {
      Expect(n < 20, "no tail for n=" + std::to_string(n));
      continue;
    }
    size_t beyond = 0;
    for (double v : samples) beyond += v > tail.value ? 1 : 0;
    Expect(beyond >= 10, "only " + std::to_string(beyond) +
                             " samples beyond the tail for n=" +
                             std::to_string(n));
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Tail t = TailOf(hundred);
  Expect(t.percentile == 90 && Near(t.value, 90.1) && t.samples == 100,
         "TailOf(1..100) is p90 = 90.1");
  Expect(Near(Median(hundred), 50.5), "Median(1..100) = 50.5");
  Expect(TailOf({3.0, 1.0, 2.0}).value == 3.0,
         "too few samples: tail falls back to the maximum");
}

Span MakeSpan(const char* name, double start, double end, int64_t parent,
              uint64_t statement = 0) {
  Span s;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  s.statement = statement;
  return s;
}

void TestSelfTime() {
  // root [0,10] with children A [1,4] and B [3,6] overlapping (a producer
  // thread beside the consumer), and C [8,12] running past the root's end.
  // A has a grandchild [2,3] that must not count against the root twice.
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, kNoSpan),   // 0
      MakeSpan("a", 1, 4, 0),             // 1
      MakeSpan("b", 3, 6, 0),             // 2
      MakeSpan("c", 8, 12, 0),            // 3
      MakeSpan("a.child", 2, 3, 1),       // 4
      MakeSpan("other", 0, 10, kNoSpan),  // 5: unrelated, overlapping root
  };
  const std::vector<double> self = SelfTimes(spans);
  Expect(Near(self[0], 10 - (5 + 2)), "root self = 10 - |[1,6] u [8,10]|");
  Expect(Near(self[1], 2), "a self = 3 - 1");
  Expect(Near(self[2], 3), "b self = its duration");
  Expect(Near(self[3], 4), "c self = its duration");
  Expect(Near(self[4], 1), "leaf self = duration");
  Expect(Near(self[5], 10), "unrelated span keeps its duration");

  // Two statements; totals are per statement, in statement-id order, and
  // match by name prefix.
  const std::vector<Span> two = {
      MakeSpan("db.sgd.epoch", 0, 4, kNoSpan, 7),
      MakeSpan("db.tuple_shuffle.next_batch", 1, 2, 0, 7),
      MakeSpan("db.sgd.epoch", 5, 8, kNoSpan, 7),
      MakeSpan("db.sgd.epoch", 0, 1, kNoSpan, 3),
      MakeSpan("db.tuple_shuffle.rescan", 0.5, 1, 3, 3),
  };
  const std::vector<double> two_self = SelfTimes(two);
  const std::vector<double> dur =
      PerStatementTotals(two, two_self, "db.sgd.epoch", false);
  const std::vector<double> selfs =
      PerStatementTotals(two, two_self, "db.sgd.epoch", true);
  const std::vector<double> tuple =
      PerStatementTotals(two, two_self, "db.tuple_shuffle.", false);
  Expect(dur.size() == 2 && Near(dur[0], 1) && Near(dur[1], 7),
         "per-statement epoch durations");
  Expect(selfs.size() == 2 && Near(selfs[0], 0.5) && Near(selfs[1], 6),
         "per-statement epoch self times");
  Expect(tuple.size() == 2 && Near(tuple[0], 0.5) && Near(tuple[1], 1),
         "prefix match covers every db.tuple_shuffle.* span");
}

void TestDecoratorPassThrough(const std::string& dir) {
  Expect(ResetDir(dir), "create " + dir);
  corgipile::Dataset ds = MakeDataset("susy", 0.05, 5, false);  // 2250 rows
  corgipile::Database db(dir, corgipile::DeviceProfile::Ssd().Scaled(1e-3));
  Expect(db.RegisterDataset("t", ds, 2).ok(), "register tiny table");
  corgipile::ShardedTable* table = *db.GetShardedTable("t");

  // 1. Operator level: Next() and NextBatch() through the decorator yield
  //    exactly the wrapped operator's tuples, epoch after epoch.
  corgipile::BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = 4096;
  bopts.seed = 9;
  corgipile::BlockShuffleOp plain(table->Snapshot(), bopts);
  corgipile::BlockShuffleOp inner(table->Snapshot(), bopts);
  SpanRecorder rec;
  TimedOperator timed(&inner, &rec, "db.block_shuffle", 1, kNoSpan);
  Expect(std::string(timed.name()) == plain.name(), "name() forwarded");
  Expect(plain.Init().ok() && timed.Init().ok(), "Init");
  for (int epoch = 0; epoch < 2; ++epoch) {
    size_t n = 0;
    bool same = true;
    for (;;) {
      const corgipile::Tuple* a = plain.Next();
      const corgipile::Tuple* b = timed.Next();
      if (a == nullptr || b == nullptr) {
        same = same && a == b;
        break;
      }
      same = same && *a == *b;
      ++n;
    }
    Expect(same && n == ds.train->size(),
           "Next() pass-through, epoch " + std::to_string(epoch));
    Expect(plain.ReScan().ok() && timed.ReScan().ok(), "ReScan");
  }
  corgipile::TupleBatch a_batch, b_batch;
  bool batches_same = true;
  while (plain.NextBatch(&a_batch)) {
    batches_same = batches_same && timed.NextBatch(&b_batch) &&
                   a_batch.size() == b_batch.size();
    for (size_t i = 0; batches_same && i < a_batch.size(); ++i) {
      corgipile::Tuple x, y;
      a_batch.MaterializeTo(i, &x);
      b_batch.MaterializeTo(i, &y);
      batches_same = x == y;
    }
  }
  Expect(batches_same && !timed.NextBatch(&b_batch),
         "NextBatch() pass-through");
  Expect(timed.status().ok() == plain.status().ok() &&
             timed.QuarantinedBlocks() == plain.QuarantinedBlocks() &&
             timed.SkippedTuples() == plain.SkippedTuples(),
         "status and quarantine counts forwarded");
  Expect(plain.SkipEpochs(2).ok() && timed.SkipEpochs(2).ok(), "SkipEpochs");
  const corgipile::Tuple* after_plain = plain.Next();
  const corgipile::Tuple* after_timed = timed.Next();
  Expect(after_plain != nullptr && after_timed != nullptr &&
             *after_plain == *after_timed,
         "same stream after SkipEpochs");
  plain.Close();
  timed.Close();
  Expect(rec.size() > 0, "decorator recorded spans");

  // 2. Pipeline level: the rebuilt TRAIN (decorators between the stages,
  //    the tuple-shuffle producer thread calling the block decorator)
  //    reproduces the engine's statement bit for bit, traced or not.
  auto session = db.CreateSession();
  const std::string sql =
      "SELECT * FROM t TRAIN BY lr WITH strategy=corgipile, block_size=4KB, "
      "double_buffer=true, learning_rate=0.001, max_epoch_num=3, seed=11";
  auto parsed = corgipile::ParseQuery(sql);
  Expect(parsed.ok(), "parse");
  const auto& stmt = std::get<corgipile::TrainStatement>(*parsed);
  auto engine = session->Train(stmt);
  Expect(engine.ok(), "engine TRAIN");
  auto model = db.models().Get(engine->model_id);
  auto options = PipelineOptionsFrom(stmt);
  Expect(options.ok(), "pipeline options");
  SpanRecorder pipeline_rec;
  for (SpanRecorder* r : {&pipeline_rec, static_cast<SpanRecorder*>(nullptr)}) {
    const int64_t anchor = r == nullptr ? kNoSpan : r->Begin("stmt", 2);
    auto rebuilt =
        RunPipeline(&db, table, ds.test.get(), *options, r, 2, anchor);
    if (r != nullptr) r->End(anchor);
    const std::string which = r == nullptr ? "untraced" : "traced";
    Expect(rebuilt.ok(), which + " rebuild ran");
    bool same = rebuilt->epochs.size() == engine->epochs.size();
    for (size_t i = 0; same && i < rebuilt->epochs.size(); ++i) {
      same = BitEqual(rebuilt->epochs[i].train_loss,
                      engine->epochs[i].train_loss) &&
             BitEqual(rebuilt->epochs[i].test_loss,
                      engine->epochs[i].test_loss) &&
             rebuilt->epochs[i].tuples_seen == engine->epochs[i].tuples_seen;
    }
    const std::vector<double>& want = (*model)->params();
    same = same && rebuilt->params.size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = BitEqual(rebuilt->params[i], want[i]);
    }
    Expect(same, which + " rebuild is bit-identical to Database::Train");
  }
  // Producer-thread spans exist and hang off the anchor, not off a
  // consumer-thread span.
  const std::vector<Span> spans = pipeline_rec.Snapshot();
  bool saw_producer = false;
  for (const Span& s : spans) {
    if (std::string(s.name) == "db.block_shuffle.next_batch" &&
        s.thread != spans[0].thread) {
      saw_producer = true;
      Expect(s.parent == 0, "producer-thread span parented to the anchor");
    }
  }
  Expect(saw_producer, "block-shuffle spans recorded on the producer thread");
  session.reset();
  RemoveDir(dir);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : ".bench_build/selftest";
  perfbench::TestTailSelection();
  perfbench::TestSelfTime();
  perfbench::TestDecoratorPassThrough(dir);
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
