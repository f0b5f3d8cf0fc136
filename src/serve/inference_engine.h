// Micro-batched in-database model serving (the online half of the paper's
// §6.1 in-kernel models; ROADMAP "heavy traffic" north star).
//
// Architecture — three stages connected by Channels, mirroring DESIGN.md §8:
//
//   sessions --Submit()/SubmitBatch()--> intake Channel --> scheduler thread
//       --Batch Channel--> ThreadPool workers --completion--> sessions
//
// The unit of intake is a *submission*: a block of rows that share one
// model id, arrival stamp, deadline and token, answered by one reply block
// and one completion. SubmitBatch() hands in many rows at once (PREDICT BY
// streams its snapshot this way); Submit() is the one-row case on the same
// path. Everything downstream of intake is per row.
//
// The *scheduler* is the deterministic heart: a single thread that pops
// submissions in FIFO order, walks their rows in order, advances a virtual
// timeline (simulated seconds, same convention as SimClock/Deadline), forms
// micro-batches (close when `max_batch` rows are buffered or when the next
// arrival shows the `batch_deadline_s` has passed, whichever first),
// applies admission control (shed with kResourceExhausted once the modeled
// queue holds `max_queue_depth` rows), per-request deadlines and
// cancellation (util/cancellation.h tokens), resolves the model snapshot
// from the versioned ModelStore (hot-swap boundary: a batch formed before a
// Publish() keeps serving the old version), and assigns each batch to the
// first-free of `num_workers` simulated service slots with
// service = per_batch_overhead_s + n · per_tuple_s. A micro-batch may take
// rows from several submissions; a submission's rows may span several
// micro-batches.
//
// Because every timing decision reads only generated arrival stamps and
// this deterministic service model — never the wall clock — the ServeStats
// produced for a given (schedule, options, store) are bit-identical across
// reruns, and a submission of n rows yields exactly the stats of n one-row
// submissions with the same fields. The *execution* of a batch
// (Model::BatchEvaluate) runs for real on the ThreadPool workers; their
// wall-time interleaving cannot affect the stats, only when each
// submission completes.
//
// Liveness modes:
//  * flush_on_idle = false (generated schedules, the SQL PREDICT path):
//    the scheduler blocks for the next submission before deciding whether
//    the open batch's deadline passed — fully deterministic, but a partial
//    batch only closes on the next arrival or Drain().
//  * flush_on_idle = true (live concurrent sessions): an empty intake
//    queue after a submission's last row closes the open batch
//    immediately, so a session that submits and waits is never stalled
//    behind an open batch. Stats remain internally consistent but depend
//    on arrival interleaving.

#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "db/model_store.h"
#include "exec/tuple_batch.h"
#include "iosim/sim_clock.h"
#include "serve/circuit_breaker.h"
#include "serve/serve_stats.h"
#include "storage/tuple.h"
#include "util/cancellation.h"
#include "util/channel.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {

struct ServeOptions {
  /// Close the open batch once it holds this many requests.
  uint32_t max_batch = 32;
  /// ...or once the next arrival is this many simulated seconds past the
  /// batch's first request (adaptive micro-batching: low load pays at most
  /// this much extra latency, high load fills batches before it expires).
  double batch_deadline_s = 2e-3;
  /// Simulated service slots AND real ThreadPool executor threads.
  uint32_t num_workers = 4;
  /// Admission control: shed arrivals once this many accepted rows are
  /// waiting to start service. 0 = unbounded (never shed).
  uint64_t max_queue_depth = 256;
  /// Deterministic service-time model for one batch of n tuples:
  /// per_batch_overhead_s + n * per_tuple_s. The overhead is what
  /// micro-batching amortizes.
  double per_batch_overhead_s = 1e-3;
  double per_tuple_s = 5e-5;
  /// See the header comment; false for bit-identical generated schedules.
  bool flush_on_idle = true;
  /// Optional: batch service time is charged here under kServe. Borrowed.
  SimClock* clock = nullptr;

  // --- graceful degradation (DESIGN.md §12) ---
  // Snapshot resolution (ModelStore::GetSnapshot at batch close, the
  // FaultPlane point "serve.resolve") degrades in three layers: bounded
  // retry with exponential backoff, a per-model circuit breaker that
  // short-circuits resolves while failures persist, and a brownout mode
  // that answers from the last successfully resolved snapshot. kNotFound
  // is permanent (model never stored) and bypasses all three.
  /// Retries after the first failed resolve; each retry is preceded by a
  /// backoff charged to `clock` under kRetryBackoff.
  uint32_t resolve_max_retries = 2;
  double resolve_backoff_s = 1e-3;
  /// Backoff grows by this factor per retry (>= 1).
  double resolve_backoff_multiplier = 2.0;
  CircuitBreakerOptions breaker;
  /// Serve the last-good snapshot (possibly an older version — the
  /// hot-swap degradation story) when resolution fails; false fails the
  /// batch with the resolve error instead.
  bool enable_brownout = true;

  // --- canary lifecycle (DESIGN.md §13) ---
  // When the ModelStore has a canary staged for a batch's model id, the
  // scheduler routes a seeded fraction of batches (granularity: whole
  // micro-batches, so a batch is served by exactly one version) to the
  // candidate, pairs each canary batch's loss against the incumbent's loss
  // on the same tuples, feeds the outcome into a per-canary CircuitBreaker,
  // and — all on the deterministic virtual timeline — promotes the
  // candidate after `promote_after_batches` clean canary batches or aborts
  // it (auto-rollback) when the breach breaker trips. All knobs live in
  // the staged CanaryPolicy so every engine applies the same rules.
  /// Master switch: false ignores staged canaries entirely (the incumbent
  /// serves 100% of traffic).
  bool serve_canary = true;
};

struct ServeRequest {
  Tuple tuple;
  std::string model_id;
  /// Arrival stamp on the engine's virtual timeline (simulated seconds).
  /// Schedules are generated, not wall-clock (see workload.h).
  double arrival_s = 0.0;
  /// Fail with kDeadlineExceeded if service has not *started* within this
  /// many simulated seconds of arrival. 0 = no deadline.
  double deadline_s = 0.0;
  /// Cooperative cancellation; checked at admission and batch formation.
  CancellationToken token;
  /// Optional control hook, run on the scheduler thread when it processes
  /// this arrival (before any batching decision). Because the scheduler
  /// serializes arrivals in submission order, a side effect here — e.g. a
  /// ModelStore::Publish hot-swap drill — lands at a deterministic point
  /// in the timeline instead of racing batch formation from the submitter
  /// thread. Keep it cheap; it runs inside the batching loop.
  std::function<void()> on_arrival;
};

struct ServeReply {
  Status status;  ///< OK, or why the request was not served
  double value = 0.0;     ///< Model::Predict
  double loss = 0.0;      ///< Model::Loss
  bool correct = false;   ///< Model::Correct
  uint64_t model_version = 0;  ///< which hot-swap version served it
  double latency_s = 0.0;      ///< simulated completion − arrival
};

/// A multi-row submission: every row carries the request fields of
/// ServeRequest (model id, arrival stamp, deadline, token). The scheduler
/// serves it exactly like rows.size() one-row requests submitted back to
/// back — same admission, batching and stats — but intake, reply and
/// completion happen once per submission instead of once per row.
struct ServeBatchRequest {
  TupleBatch rows;
  std::string model_id;
  double arrival_s = 0.0;
  double deadline_s = 0.0;
  CancellationToken token;
  /// Runs on the scheduler thread before the first row is processed (see
  /// ServeRequest::on_arrival).
  std::function<void()> on_arrival;
};

/// Reply block of one submission: replies[i] answers row i. The rows come
/// back with it so the submitter can read labels and reuse the arena.
struct ServeBatchReply {
  TupleBatch rows;
  std::vector<ServeReply> replies;
};

/// Completion of a SubmitBatch(); see there for where it runs.
using ServeBatchCallback = std::function<void(ServeBatchReply)>;

class InferenceEngine {
 public:
  /// `store` is borrowed and must outlive the engine.
  InferenceEngine(ModelStore* store, ServeOptions options);
  /// Drains if the caller has not; pending submissions always complete.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Spawns the scheduler thread and worker loops. Call once.
  Status Start();

  /// Thread-safe; callable from any number of session threads. The reply
  /// arrives through the returned future (possibly with a non-OK status:
  /// kResourceExhausted when shed, kDeadlineExceeded, kCancelled, ...).
  /// Blocks only for intake-channel flow control, never on service time.
  /// A one-row submission on the SubmitBatch() path.
  std::future<ServeReply> Submit(ServeRequest req);

  /// Multi-row submission: thread-safe, blocks only for intake flow
  /// control. `done` runs exactly once, after every row is answered, with
  /// the rows and their replies in row order — on the engine thread that
  /// resolved the last row (or on the caller's thread for an empty or
  /// refused submission). It must not block on the engine.
  void SubmitBatch(ServeBatchRequest req, ServeBatchCallback done);

  /// Closes intake, waits until every submitted request has been answered
  /// and all threads have stopped. Idempotent.
  Status Drain();

  /// Snapshot; stable after Drain().
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  /// One submission in flight. Shared by the intake channel, the
  /// scheduler, and every batch holding one of its rows; completed when
  /// `unresolved` reaches zero.
  struct Submission {
    /// A one-row Submit() keeps its Tuple (no arena to build); a
    /// SubmitBatch() its TupleBatch, handed back on completion.
    std::variant<Tuple, TupleBatch> rows;
    std::string model_id;
    double arrival_s = 0.0;
    double deadline_s = 0.0;
    CancellationToken token;
    std::function<void()> on_arrival;
    uint32_t num_rows = 0;
    std::vector<ServeReply> replies;
    std::atomic<uint32_t> unresolved{0};
    /// Multi-row callback, or the one-row Submit() promise.
    std::variant<ServeBatchCallback, std::promise<ServeReply>> done;
  };
  /// Row `row` of submission `sub`. Raw pointer: the batch (or open batch)
  /// holding the ref also holds the submission's shared_ptr.
  struct RowRef {
    Submission* sub = nullptr;
    uint32_t row = 0;
  };
  struct Batch {
    std::shared_ptr<const Model> model;
    std::string model_id;
    uint64_t version = 0;
    /// Dispatch sequence number; keys the worker's quality report so
    /// Finalize can fold contributions in a deterministic order.
    uint64_t seq = 0;
    /// Served by a staged canary candidate instead of the incumbent.
    bool canary = false;
    double completion_s = 0.0;
    /// Admitted rows packed into one arena; row i belongs to rows[i].
    /// Workers evaluate the whole batch with one Model::BatchEvaluate
    /// call.
    TupleBatch tuples;
    std::vector<RowRef> rows;
    /// Keeps every submission referenced by `rows` alive.
    std::vector<std::shared_ptr<Submission>> owners;
  };

  /// Sizes the reply block and hands `sub` to the scheduler.
  void Enqueue(std::shared_ptr<Submission> sub);
  void SchedulerLoop();
  /// Admission, deadline close, model-switch close and max_batch close for
  /// one row, in the order a one-row request would see them.
  void ProcessRow(const std::shared_ptr<Submission>& sub, uint32_t row);
  /// Closes the open batch at simulated time `close_s` and queues it for
  /// Dispatch.
  void CloseOpenBatch(double close_s, bool by_deadline);
  /// Sends the queued micro-batches to the workers as one channel item.
  /// Called when the scheduler finishes a submission, on an idle or final
  /// flush, and once kDispatchRows rows are queued: a multi-row submission
  /// costs one worker hand-off per few hundred rows instead of one per
  /// micro-batch, and a one-row submission's batch leaves at once.
  void Dispatch();
  void WorkerLoop();
  /// Executes one micro-batch and answers its rows (worker threads).
  void RunBatch(const Batch& batch, std::vector<double>* values,
                std::vector<double>* losses, std::vector<uint8_t>* corrects);
  /// Answers one row with `status`. Never called under stats_mu_: the
  /// last resolved row runs the submitter's completion.
  void Fail(const RowRef& ref, Status status);
  /// Marks `rows` rows of `sub` answered; the last one completes it.
  void Resolve(Submission* sub, uint32_t rows);
  void Complete(Submission* sub);
  /// The referenced row, whichever form its submission holds.
  static RowView Row(const RowRef& ref);
  /// Resolves the snapshot serving the open batch, applying the breaker /
  /// bounded-retry layers (scheduler thread only). On success also updates
  /// the last-good map and resets the model's breaker on a version change.
  Result<ModelSnapshot> ResolveSnapshot(double close_s);
  /// Canary stage at batch close (scheduler thread only): seeded routing
  /// draw, paired candidate-vs-incumbent loss on the batch tuples, breach
  /// breaker, promote / auto-rollback. `incumbent` is the resolved current
  /// snapshot; on a canary draw *snapshot is replaced by the candidate.
  /// Returns true when the batch is served by the candidate.
  bool ApplyCanary(const ModelSnapshot& incumbent, const TupleBatch& tuples,
                   uint64_t served, double close_s, ModelSnapshot* snapshot);

  ModelStore* store_;
  const ServeOptions options_;

  Channel<std::shared_ptr<Submission>> intake_;
  /// Closed micro-batches travel to the workers in groups (see Dispatch).
  Channel<std::vector<Batch>> batches_;
  ThreadPool pool_;
  std::thread scheduler_;
  std::vector<std::future<void>> worker_done_;
  bool started_ = false;
  bool drained_ = false;

  // --- scheduler-thread state (unsynchronized by design) ---
  double now_s_ = 0.0;  ///< virtual timeline, monotone
  std::vector<Batch> dispatch_;  ///< closed, not yet sent to workers
  size_t dispatch_rows_ = 0;
  std::vector<RowRef> open_rows_;
  std::vector<std::shared_ptr<Submission>> open_owners_;
  std::string open_model_id_;
  double open_time_ = 0.0;
  std::vector<double> worker_free_s_;  ///< simulated service slots
  /// Dispatched batches whose service has not started yet at the current
  /// timeline position: (service_start_s, rows). Front-pruned as arrivals
  /// advance time; the summed sizes are the modeled queue occupancy that
  /// admission control bounds.
  std::vector<std::pair<double, uint64_t>> backlog_;
  size_t backlog_head_ = 0;  ///< pruned prefix
  uint64_t backlog_count_ = 0;
  /// Per-model degradation state (ordered maps: the determinism linter
  /// forbids unordered iteration, and these are tiny).
  std::map<std::string, CircuitBreaker> breakers_;
  std::map<std::string, ModelSnapshot> last_good_;
  uint64_t next_batch_seq_ = 0;
  std::vector<double> batch_latencies_;  ///< CloseOpenBatch scratch
  /// Per-model canary runtime: routing RNG, breach breaker, clean streak.
  /// Keyed by staged version so a re-staged candidate gets a cold start.
  struct CanaryRuntime {
    uint64_t version = 0;
    Rng rng;
    CircuitBreaker breaker{CircuitBreakerOptions{}};
    uint32_t clean_streak = 0;
  };
  std::map<std::string, CanaryRuntime> canaries_;

  mutable Mutex stats_mu_;
  ServeStatsBuilder stats_ CORGI_GUARDED_BY(stats_mu_);
};

}  // namespace corgipile
