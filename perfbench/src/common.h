// Shared pieces of the perfbench binary: run configuration, failure
// accounting, the metric report, and span aggregation helpers.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "dataset/catalog.h"
#include "trace.h"
#include "util/mutex.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< working directory for tables; removed at exit
  std::string trace_out;  ///< span dump (JSON lines) for traced runs
};

/// Operations attempted and failed across all threads of a run. A failed
/// statement, a failed insert and a failed correctness check each count
/// one failure against the operation they belong to.
class Outcome {
 public:
  void Attempt(uint64_t n = 1);
  /// Records a failed operation and prints `what` to stderr (first few).
  void Fail(const std::string& what);
  /// Fails with `what` unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable corgipile::Mutex mu_;
  uint64_t attempted_ CORGI_GUARDED_BY(mu_) = 0;
  uint64_t failed_ CORGI_GUARDED_BY(mu_) = 0;
};

/// Named metrics in insertion order, plus free-form summary lines that
/// are printed (human-readable) before the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  void Note(const std::string& line) { notes_.push_back(line); }

  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Bit-for-bit equality of two doubles (distinguishes 0.0 / -0.0, and
/// treats identical NaN payloads as equal).
inline bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Catalog dataset whose generator seed is mixed with the run seed, so
/// each --seed yields different tuples of the same shape.
corgipile::Dataset MakeDataset(const std::string& name, double scale,
                               uint64_t run_seed, bool compress);

/// Sums over spans whose name starts with `prefix`, keyed by statement id;
/// `self` selects self time instead of duration (see SelfTimes).
std::map<uint64_t, double> SumByStatement(const std::vector<Span>& spans,
                                          const std::vector<double>& self_times,
                                          const std::string& prefix, bool self);

/// The values of SumByStatement in statement-id order: one entry per
/// statement that has at least one matching span.
std::vector<double> PerStatementTotals(const std::vector<Span>& spans,
                                       const std::vector<double>& self_times,
                                       const std::string& prefix, bool self);

/// Creates (or empties) a directory; returns false on error.
bool ResetDir(const std::string& path);
void RemoveDir(const std::string& path);

}  // namespace perfbench
