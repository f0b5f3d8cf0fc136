// TupleStream: per-epoch stream of training tuples in strategy-defined
// order, plus the catalog of shuffling strategies the paper studies (§3–§4).
//
// TupleStream is the shuffle layer's face of the batched pipeline
// (exec/batch_stream.h): NextBatch is its only pull protocol, and every
// strategy implements it natively. An epoch's batches concatenate to the
// strategy's emission order whatever the transport batch size;
// tests/batch_equivalence_test.cc pins those orders as golden hashes.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exec/batch_stream.h"
#include "iosim/device.h"
#include "iosim/sim_clock.h"
#include "storage/block_source.h"
#include "util/status.h"

namespace corgipile {

/// Streams tuples epoch by epoch:
///   stream->StartEpoch(e);
///   while (stream->NextBatch(&batch)) { ... }
///   CORGI_RETURN_NOT_OK(stream->status());
class TupleStream : public BatchStream {
 public:
  /// Approximate tuples emitted per epoch.
  virtual uint64_t TuplesPerEpoch() const = 0;

  /// One-time preparation cost already paid before epoch 0 (e.g. Shuffle
  /// Once's full shuffle), in simulated seconds. 0 for most strategies.
  virtual double PrepOverheadSeconds() const { return 0.0; }

  /// Extra disk bytes consumed by the strategy (Shuffle Once's copy).
  virtual uint64_t ExtraDiskBytes() const { return 0; }

  /// Peak in-memory buffer occupancy, in tuples.
  virtual uint64_t PeakBufferTuples() const { return 0; }
};

/// The data shuffling strategies evaluated in the paper.
enum class ShuffleStrategy {
  kNoShuffle,      ///< §3.2 — scan in storage order
  kShuffleOnce,    ///< §3.1 — one offline full shuffle, then scans
  kEpochShuffle,   ///< §3.1 — full shuffle before every epoch
  kSlidingWindow,  ///< §3.3 — TensorFlow's window sampling
  kMrs,            ///< §3.4 — Bismarck's multiplexed reservoir sampling
  kBlockOnly,      ///< §7.3 baseline — CorgiPile without tuple shuffle
  kCorgiPile,      ///< §4 — block shuffle + buffered tuple shuffle
};

const char* ShuffleStrategyToString(ShuffleStrategy s);
Result<ShuffleStrategy> ShuffleStrategyFromString(const std::string& name);

/// Options shared by all strategies.
struct ShuffleOptions {
  /// Buffer size as a fraction of the dataset (CorgiPile buffer, sliding
  /// window, MRS reservoir). Ignored when buffer_tuples > 0.
  double buffer_fraction = 0.1;
  /// Absolute buffer size in tuples; 0 = derive from buffer_fraction.
  uint64_t buffer_tuples = 0;
  uint64_t seed = 42;
  /// MRS: buffered tuples emitted per dropped (scanned) tuple once the
  /// reservoir is warm. Models the paper's second looping thread.
  double mrs_loop_ratio = 1.0;
  /// Degradation policy for corrupt/unreadable blocks (block-oriented
  /// strategies only: no_shuffle, block_only, corgipile).
  BlockReadTolerance tolerance;
  /// Shuffle Once / Epoch Shuffle over table-backed sources: directory for
  /// the shuffled copy, plus accounting to attach to it. Empty = the
  /// platform temp directory (std::filesystem::temp_directory_path()).
  std::string scratch_dir;
  DeviceProfile device = DeviceProfile::Memory();
  SimClock* clock = nullptr;
  IoStats* io_stats = nullptr;
};

/// Builds a stream of the given strategy over `source` (not owned; must
/// outlive the stream).
Result<std::unique_ptr<TupleStream>> MakeTupleStream(
    ShuffleStrategy strategy, BlockSource* source,
    const ShuffleOptions& options);

/// Resolves the effective buffer size in tuples for `options` over `source`.
uint64_t ResolveBufferTuples(const ShuffleOptions& options,
                             const BlockSource& source);

/// Resolves a scratch directory: `configured` if non-empty, else the
/// platform temp directory (never a hard-coded "/tmp").
std::string ResolveScratchDir(const std::string& configured);

}  // namespace corgipile
