// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <train_cached|train_cold|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--trace-out <file>]
//
// Prints human-readable summary lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics (both
// lists below; BENCHMARK.json declares the same names). Exits non-zero
// when any operation or correctness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_ms", "ms"},
    {"tuples_per_s", "1/s"},
};

// Layers a workload does not exercise report 0.
const std::vector<MetricDef> kPerLayer = {
    {"query.parse_us", "us"},
    {"storage.snapshot_us", "us"},
    {"storage.pages_read", "count"},
    {"storage.random_read_frac", "frac"},
    {"storage.bytes_read", "bytes"},
    {"storage.buffer_hit_rate", "frac"},
    {"storage.buffer_evictions", "count"},
    {"storage.insert_busy_ms", "ms"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"iosim.io_read_s", "s"},
    {"iosim.decompress_s", "s"},
    {"iosim.compute_s", "s"},
    {"iosim.serve_s", "s"},
    {"db.block_shuffle.busy_ms", "ms"},
    {"db.tuple_shuffle.wait_ms", "ms"},
    {"db.sgd.epoch_ms", "ms"},
    {"ml.kernel_ns_per_tuple", "ns"},
    {"ml.eval_ms", "ms"},
    {"exec.collect_ms", "ms"},
    {"exec.collect_tuples_per_s", "1/s"},
    {"serve.submit_us", "us"},
    {"serve.drain_ms", "ms"},
    {"serve.reply_ms", "ms"},
    {"serve.batches", "count"},
    {"serve.mean_batch_occupancy", "frac"},
    {"serve.sim_latency_p99_ms", "ms"},
    {"session.statements", "count"},
    {"session.failed", "count"},
    {"trace.overhead_frac", "frac"},
    {"bench.generator_late_ms", "ms"},
    {"e2e.latency_tail_ms", "ms"},
    {"e2e.train_sim_s", "s"},
    {"e2e.evaluate_tuples_per_s", "1/s"},
    {"e2e.evaluate_latency_tail_ms", "ms"},
    {"e2e.insert_latency_ms", "ms"},
    {"e2e.insert_latency_tail_ms", "ms"},
    {"e2e.failed_frac", "frac"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_cached|train_cold|serve_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n",
               msg);
  return 2;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Run(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!have_workload || !have_seed) return Usage("--workload and --seed");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) {
    config.work_dir = ".bench_build/work/" + config.workload + "-" +
                      std::to_string(getpid());
  }

  Report report;
  Outcome outcome;
  if (config.workload == "train_cached") {
    RunTrain(config, TrainCachedWorkload(), &report, &outcome);
  } else if (config.workload == "train_cold") {
    RunTrain(config, TrainColdWorkload(), &report, &outcome);
  } else if (config.workload == "serve_mixed") {
    RunServeMixed(config, &report, &outcome);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  RemoveDir(config.work_dir);

  const uint64_t attempted = outcome.attempted();
  const uint64_t failed = outcome.failed();
  if (!config.trace) {
    report.Set("peak_rss_mb", PeakRssMb());
  } else {
    report.Set("e2e.failed_frac",
               attempted ? static_cast<double>(failed) / attempted : 0.0);
  }
  bool complete = true;
  std::string metrics;
  for (const MetricDef& m : config.trace ? kPerLayer : kEndToEnd) {
    // Per-layer metrics of an idle layer read 0; a missing end-to-end
    // metric means the run did not finish.
    if (!config.trace && !report.Has(m.name)) complete = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += corgipile::JsonQuote(m.name) + ": {\"value\": " +
               Number(report.Get(m.name)) + ", \"unit\": " +
               corgipile::JsonQuote(m.unit) + "}";
  }
  const bool correct = failed == 0 && attempted > 0 && complete;
  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
