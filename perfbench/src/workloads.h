// The benchmark's workloads. Each runs through the public Database /
// Session API, checks its outputs, and fills a Report with the metric
// names listed in main.cc (end-to-end names untraced, per-layer names
// traced). See perfbench/README.md for what each workload stresses.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "iosim/device.h"

namespace perfbench {

/// Closed-loop TRAIN BY on one session, each statement running to the
/// workload's target test loss.
struct TrainWorkload {
  std::string name;
  std::string dataset;  ///< catalog name
  double scale = 1.0;
  bool compress = false;
  corgipile::DeviceProfile device;
  uint64_t buffer_pool_bytes = 32ull << 20;
  std::string block_size;
  double learning_rate = 0.01;
  /// Test loss the statement must reach; the epoch count is the first
  /// epoch at which the seeded reference run reaches it.
  double target_loss = 0.5;
  uint32_t reference_epochs = 6;  ///< reference run length (search bound)
};

TrainWorkload TrainCachedWorkload();
TrainWorkload TrainColdWorkload();

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

void RunTrain(const RunConfig& config, const TrainWorkload& workload,
              Report* report, Outcome* outcome);

/// Two closed-loop reader sessions alternating PREDICT BY / EVALUATE BY
/// over a 4-shard table, beside one open-loop INSERT session.
void RunServeMixed(const RunConfig& config, Report* report, Outcome* outcome);

}  // namespace perfbench
