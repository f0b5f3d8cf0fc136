// Bench-side tracing: an in-memory span recorder and self-time arithmetic.
//
// Spans are recorded from the benchmark's own files around calls into the
// engine's public API (no instrumentation lives in src/). Each span has a
// name, a start and end on the steady clock, the span that caused it, the
// statement it belongs to and the thread that ran it. The recorder keeps
// everything in memory; WriteJsonLines() dumps it when the run ends.
//
// Parenting: a span opened on a thread that already has an open span
// becomes its child. A span opened on a thread with nothing open (the
// double-buffer producer, a scan-pool worker) takes the explicit
// `fallback_parent` it was given — normally the statement span — so work
// on helper threads is attributed to the statement without being nested
// under an unrelated same-time span of another thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// Returns a pointer to a process-lifetime copy of `name`, so span names
/// built at run time stay valid after the string they came from is gone.
const char* Intern(const std::string& name);

constexpr int64_t kNoSpan = -1;

struct Span {
  const char* name = "";  ///< static or Intern()ed; one layer boundary
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t parent = kNoSpan;
  uint64_t statement = 0;
  uint32_t thread = 0;  ///< small per-process thread number

  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  /// Opens a span and makes it the calling thread's innermost span.
  int64_t Begin(const char* name, uint64_t statement,
                int64_t fallback_parent = kNoSpan);
  /// Closes `id`, which must be the calling thread's innermost open span.
  void End(int64_t id);

  std::vector<Span> Snapshot() const;
  size_t size() const;

  /// One JSON object per line: id, name, start/end (s), parent, statement,
  /// thread.
  corgipile::Status WriteJsonLines(const std::string& path) const;

 private:
  mutable corgipile::Mutex mu_;
  std::vector<Span> spans_ CORGI_GUARDED_BY(mu_);
};

/// RAII span; a null recorder makes it a no-op, so call sites need no
/// traced/untraced branches.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t statement,
             int64_t fallback_parent = kNoSpan)
      : recorder_(recorder),
        id_(recorder == nullptr
                ? kNoSpan
                : recorder->Begin(name, statement, fallback_parent)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may run on
/// other threads and overlap each other; each instant counts once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
