#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/json.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Per-thread stack of open span ids, so nesting needs no bookkeeping at
// call sites. Thread numbers are handed out on first use.
thread_local std::vector<int64_t> t_open;
thread_local uint32_t t_thread = 0;
std::atomic<uint32_t> g_next_thread{1};

uint32_t ThreadNumber() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

double NowSeconds() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

const char* Intern(const std::string& name) {
  static corgipile::Mutex mu;
  static std::set<std::string> names;  // node-based: c_str() stays valid
  corgipile::MutexLock lock(mu);
  return names.insert(name).first->c_str();
}

int64_t SpanRecorder::Begin(const char* name, uint64_t statement,
                            int64_t fallback_parent) {
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? fallback_parent : t_open.back();
  span.statement = statement;
  span.thread = ThreadNumber();
  int64_t id;
  {
    corgipile::MutexLock lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.start_s = NowSeconds();
    spans_.push_back(span);
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  const double end = NowSeconds();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  corgipile::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  corgipile::MutexLock lock(mu_);
  return spans_;
}

size_t SpanRecorder::size() const {
  corgipile::MutexLock lock(mu_);
  return spans_.size();
}

corgipile::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return corgipile::Status::IoError("cannot write " + path);
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << corgipile::JsonQuote(s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%lld,"
                  "\"statement\":%llu,\"thread\":%u}\n",
                  s.start_s, s.end_s, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.statement), s.thread);
    out << buf;
  }
  out.flush();
  if (!out) return corgipile::Status::IoError("short write to " + path);
  return corgipile::Status::OK();
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (size_t c : children[i]) {
      const double lo = std::max(s.start_s, spans[c].start_s);
      const double hi = std::min(s.end_s, spans[c].end_s);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = s.duration() - covered;
  }
  return self;
}

}  // namespace perfbench
