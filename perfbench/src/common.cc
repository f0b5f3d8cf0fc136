#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <string_view>

namespace perfbench {

namespace {
constexpr uint64_t kMaxPrintedFailures = 10;
}  // namespace

void Outcome::Attempt(uint64_t n) {
  corgipile::MutexLock lock(mu_);
  attempted_ += n;
}

void Outcome::Fail(const std::string& what) {
  uint64_t nth;
  {
    corgipile::MutexLock lock(mu_);
    nth = ++failed_;
  }
  if (nth <= kMaxPrintedFailures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

bool Outcome::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
  return ok;
}

uint64_t Outcome::attempted() const {
  corgipile::MutexLock lock(mu_);
  return attempted_;
}

uint64_t Outcome::failed() const {
  corgipile::MutexLock lock(mu_);
  return failed_;
}

void Report::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

bool Report::Has(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

corgipile::Dataset MakeDataset(const std::string& name, double scale,
                               uint64_t run_seed, bool compress) {
  corgipile::DatasetSpec spec =
      corgipile::CatalogLookup(name, scale).ValueOrDie();
  spec.seed = spec.seed * 1000003ULL + run_seed;
  spec.compress_in_db = compress;
  return corgipile::GenerateDataset(spec, corgipile::DataOrder::kClustered);
}

std::map<uint64_t, double> SumByStatement(const std::vector<Span>& spans,
                                          const std::vector<double>& self_times,
                                          const std::string& prefix,
                                          bool self) {
  std::map<uint64_t, double> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!std::string_view(spans[i].name).starts_with(prefix)) continue;
    totals[spans[i].statement] += self ? self_times[i] : spans[i].duration();
  }
  return totals;
}

std::vector<double> PerStatementTotals(const std::vector<Span>& spans,
                                       const std::vector<double>& self_times,
                                       const std::string& prefix, bool self) {
  std::vector<double> out;
  for (const auto& [stmt, total] :
       SumByStatement(spans, self_times, prefix, self)) {
    out.push_back(total);
  }
  return out;
}

bool ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
