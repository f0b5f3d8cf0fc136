// Transport-batch sweep — the batched execution pipeline's cost knob.
//
// Grid: exec_batch_tuples ∈ {1, 8, 64, 512} × shuffle ∈ {corgipile,
// no_shuffle} × data ∈ {susy (dense), criteo (sparse)}. Every cell trains
// the same seeded logistic regression through the same stream; only the
// transport batch size changes.
//
// Claims under test:
//  (1) the transport knob is free of semantic cost: every cell's epoch
//      train losses are bit-identical to the golden losses the per-tuple
//      reference path (the former exec_batch_tuples=0) recorded for that
//      (dataset, strategy) — the sweep's loss_identical column. Goldens
//      exist for the default and the --quick grid; at any other --scale
//      the cells are checked against each other instead;
//  (2) batching pays: amortizing the virtual NextBatch/kernel dispatch
//      over ≥64 tuples beats the degenerate batch-of-1 transport on
//      simulated epoch time (real compute charged to the SimClock), for
//      every (shuffle, dataset) combination.
//
// Because claim 2 compares measured compute, every cell runs several reps,
// interleaved across exec batch sizes: rep r of every size runs before
// rep r+1 of any, and rep r starts at size r mod 4, so every size runs in
// every position equally often. Epoch times are per-cell medians;
// speedups are medians over reps of the ratio between two sizes' runs of
// the same rep. A burst of host load, or a warm-up effect of running
// first, then lands on all sizes alike instead of on one cell, and a load
// change between reps cancels out of each ratio.

#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataset/catalog.h"
#include "iosim/sim_clock.h"
#include "ml/linear_models.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "util/timer.h"

using namespace corgipile;
using namespace corgipile::bench;

namespace {

/// FNV-1a over the bits of each epoch's train loss.
uint64_t HashLosses(const std::vector<double>& losses) {
  uint64_t h = 14695981039346656037ull;
  for (double loss : losses) {
    const auto* p = reinterpret_cast<const uint8_t*>(&loss);
    for (size_t i = 0; i < sizeof(loss); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Golden HashLosses of the per-tuple reference path, recorded before it
/// was removed, for the default (4 epochs) and --quick (2 epochs) grids.
struct LossGolden {
  const char* dataset;
  ShuffleStrategy strategy;
  bool quick;
  uint64_t hash;
};
constexpr LossGolden kLossGoldens[] = {
    {"susy", ShuffleStrategy::kCorgiPile, true, 0x7267feda1a21da1cull},
    {"susy", ShuffleStrategy::kNoShuffle, true, 0x45b594c6c9a4062dull},
    {"criteo", ShuffleStrategy::kCorgiPile, true, 0xa553cf8c83ea6ed4ull},
    {"criteo", ShuffleStrategy::kNoShuffle, true, 0x2356d78ed00ed677ull},
    {"susy", ShuffleStrategy::kCorgiPile, false, 0x7b35f223f94ee1c2ull},
    {"susy", ShuffleStrategy::kNoShuffle, false, 0x3f39779c04906c25ull},
    {"criteo", ShuffleStrategy::kCorgiPile, false, 0x91e5e4948aecd346ull},
    {"criteo", ShuffleStrategy::kNoShuffle, false, 0x94760cc265e07a23ull},
};

/// The golden for this cell, or nullopt when the grid has none.
std::optional<uint64_t> GoldenLossHash(const BenchEnv& env,
                                       const std::string& dataset,
                                       ShuffleStrategy strategy) {
  if (env.scale != 1.0) return std::nullopt;
  for (const LossGolden& g : kLossGoldens) {
    if (dataset == g.dataset && strategy == g.strategy &&
        env.quick == g.quick) {
      return g.hash;
    }
  }
  return std::nullopt;
}

/// One training run of a cell.
struct RunResult {
  std::vector<double> epoch_losses;
  double sim_epoch_s = 0.0;  ///< simulated seconds per epoch
  double wall_s = 0.0;
};

RunResult RunOnce(const Dataset& ds, ShuffleStrategy strategy,
                  uint32_t exec_batch_tuples, uint32_t epochs) {
  WallTimer total;
  InMemoryBlockSource src(ds.MakeSchema(), ds.train, 512);
  ShuffleOptions sopts;
  sopts.buffer_fraction = 0.1;
  sopts.seed = 42;
  auto stream = MakeTupleStream(strategy, &src, sopts);
  if (!stream.ok()) {
    std::fprintf(stderr, "stream: %s\n", stream.status().ToString().c_str());
    std::exit(1);
  }
  SimClock clock;
  LogisticRegression model(ds.spec.dim);
  TrainerOptions topts;
  topts.epochs = epochs;
  topts.lr.initial = 0.01;
  topts.exec_batch_tuples = exec_batch_tuples;
  topts.clock = &clock;
  auto result = Train(&model, stream->get(), topts);
  if (!result.ok()) {
    std::fprintf(stderr, "train: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  RunResult out;
  for (const EpochLog& log : result->epochs) {
    out.epoch_losses.push_back(log.train_loss);
  }
  out.sim_epoch_s = clock.TotalElapsed() / static_cast<double>(epochs);
  out.wall_s = total.ElapsedSeconds();
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// All reps of one exec batch size.
struct CellResult {
  std::vector<double> sim_epoch_s;  ///< one sample per rep
  double wall_s = 0.0;              ///< summed over reps
  double final_loss = 0.0;
  bool identical = true;  ///< every rep matched the cell's reference
};

/// Median over reps of a/b, pairing the two cells' runs of the same rep.
double MedianPairedRatio(const std::vector<double>& a,
                         const std::vector<double>& b) {
  std::vector<double> ratios;
  for (size_t r = 0; r < a.size(); ++r) ratios.push_back(a[r] / b[r]);
  return Median(std::move(ratios));
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  const uint32_t epochs = env.quick ? 2 : 4;
  // A multiple of the number of sizes, so the rotation is balanced.
  const int reps = env.quick ? 8 : 12;
  const std::vector<uint32_t> batch_sizes = {1, 8, 64, 512};
  const std::vector<ShuffleStrategy> strategies = {
      ShuffleStrategy::kCorgiPile, ShuffleStrategy::kNoShuffle};

  CsvTable t({"dataset", "strategy", "exec_batch", "epochs", "final_loss",
              "sim_epoch_ms", "speedup_vs_b1", "loss_identical", "wall_s"});
  bool all_identical = true;
  bool batching_pays = true;
  for (const char* name : {"susy", "criteo"}) {
    auto spec = CatalogLookup(name, env.DatasetScale(name));
    if (!spec.ok()) {
      std::fprintf(stderr, "catalog: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
    for (ShuffleStrategy strategy : strategies) {
      // The loss bits every run must reproduce: the golden, or without one
      // the first run's.
      std::optional<uint64_t> ref = GoldenLossHash(env, name, strategy);
      std::vector<CellResult> cells(batch_sizes.size());
      for (int rep = 0; rep < reps; ++rep) {
        for (size_t k = 0; k < batch_sizes.size(); ++k) {
          const size_t b = (static_cast<size_t>(rep) + k) % batch_sizes.size();
          const RunResult run = RunOnce(ds, strategy, batch_sizes[b], epochs);
          CellResult& cell = cells[b];
          cell.sim_epoch_s.push_back(run.sim_epoch_s);
          cell.wall_s += run.wall_s;
          cell.final_loss = run.epoch_losses.back();
          const uint64_t hash = HashLosses(run.epoch_losses);
          if (!ref.has_value()) ref = hash;
          cell.identical = cell.identical && hash == *ref;
        }
      }
      // Speedups pair the sizes' runs of one rep, which ran back to back:
      // a change in host load between reps cancels out of the ratio.
      const std::vector<double>& b1 = cells[0].sim_epoch_s;
      std::vector<double> best_b64plus(b1.size(), 1e300);
      for (size_t b = 0; b < batch_sizes.size(); ++b) {
        const uint32_t exec = batch_sizes[b];
        const CellResult& cell = cells[b];
        all_identical = all_identical && cell.identical;
        if (exec >= 64) {
          for (size_t r = 0; r < b1.size(); ++r) {
            best_b64plus[r] = std::min(best_b64plus[r], cell.sim_epoch_s[r]);
          }
        }
        t.NewRow()
            .Add(name)
            .Add(ShuffleStrategyToString(strategy))
            .Add(static_cast<uint64_t>(exec))
            .Add(static_cast<uint64_t>(epochs))
            .Add(cell.final_loss, 12)
            .Add(Median(cell.sim_epoch_s) * 1e3, 3)
            .Add(MedianPairedRatio(b1, cell.sim_epoch_s), 2)
            .Add(cell.identical ? "yes" : "MISMATCH")
            .Add(cell.wall_s, 3);
      }
      const double speedup = MedianPairedRatio(b1, best_b64plus);
      if (speedup <= 1.0) {
        batching_pays = false;
        std::fprintf(stderr,
                     "VIOLATION: %s/%s batch>=64 not faster than batch=1: "
                     "median paired speedup %.3f (batch=1 median %.3f ms)\n",
                     name, ShuffleStrategyToString(strategy), speedup,
                     Median(b1) * 1e3);
      }
    }
  }
  env.Emit("batch_sweep", t);

  std::printf(
      "claim 1 (transport is semantics-free): every cell bit-identical to "
      "%s: %s\n",
      env.scale == 1.0 ? "the per-tuple reference's golden losses"
                       : "the first run of its (dataset, strategy)",
      all_identical ? "yes" : "NO — MISMATCH ABOVE");
  std::printf(
      "claim 2 (batching pays): exec_batch >= 64 beats exec_batch = 1 on "
      "simulated epoch time in every (dataset, strategy) cell: %s\n",
      batching_pays ? "holds" : "VIOLATION ABOVE");
  return (all_identical && batching_pays) ? 0 : 1;
}
