#include "storage/heapfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "iosim/fault_plane.h"

namespace corgipile {

HeapFile::HeapFile(std::string path, int fd, uint32_t page_size,
                   uint64_t num_pages)
    : path_(std::move(path)), fd_(fd), page_size_(page_size),
      num_pages_(num_pages), tag_(FaultInjector::TagForPath(path_)) {}

HeapFile::~HeapFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(const std::string& path,
                                                   uint32_t page_size) {
  if (page_size == 0 || page_size > Page::kMaxSize) {
    return Status::InvalidArgument("bad page size");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("create " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<HeapFile>(new HeapFile(path, fd, page_size, 0));
}

Result<std::unique_ptr<HeapFile>> HeapFile::Open(const std::string& path,
                                                 uint32_t page_size) {
  if (page_size == 0 || page_size > Page::kMaxSize) {
    return Status::InvalidArgument("bad page size");
  }
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat " + path + ": " + std::strerror(errno));
  }
  if (st.st_size % page_size != 0) {
    ::close(fd);
    return Status::Corruption("file size not a multiple of page size: " + path);
  }
  return std::unique_ptr<HeapFile>(new HeapFile(
      path, fd, page_size, static_cast<uint64_t>(st.st_size) / page_size));
}

void HeapFile::SetIoAccounting(DeviceProfile device, SimClock* clock,
                               IoStats* stats) {
  MutexLock lock(mu_);
  device_ = std::move(device);
  clock_ = clock;
  stats_ = stats;
}

void HeapFile::SetFaultInjection(FaultInjector* injector) {
  MutexLock lock(mu_);
  fault_ = injector;
}

void HeapFile::SetRetryPolicy(RetryPolicy policy) {
  MutexLock lock(mu_);
  retry_ = policy;
}

void HeapFile::ChargeRead(uint64_t first_page, uint64_t num, bool contiguous) {
  MutexLock lock(mu_);
  const uint64_t bytes = num * page_size_;
  const bool sequential =
      contiguous && last_read_page_ + 1 == static_cast<int64_t>(first_page);
  if (clock_ != nullptr) {
    const double cost = sequential ? device_.SequentialCost(bytes)
                                   : device_.RandomCost(bytes);
    clock_->Advance(TimeCategory::kIoRead, cost);
  }
  if (stats_ != nullptr) {
    if (sequential) {
      ++stats_->sequential_reads;
    } else {
      ++stats_->random_reads;
    }
    stats_->bytes_read += bytes;
  }
  last_read_page_ = static_cast<int64_t>(first_page + num - 1);
}

void HeapFile::ChargeWrite(uint64_t num) {
  MutexLock lock(mu_);
  const uint64_t bytes = num * page_size_;
  if (clock_ != nullptr) {
    clock_->Advance(TimeCategory::kIoWrite, device_.SequentialCost(bytes));
  }
  if (stats_ != nullptr) {
    ++stats_->writes;
    stats_->bytes_written += bytes;
  }
}

void HeapFile::ChargeBackoff(double seconds) {
  MutexLock lock(mu_);
  if (clock_ != nullptr) {
    clock_->Advance(TimeCategory::kRetryBackoff, seconds);
  }
}

Status HeapFile::AppendPage(const Page& page) {
  CORGI_INJECT_POINT("storage.heapfile.append");
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  // Stamp the checksum into a scratch image so the caller's page object is
  // untouched and may keep accumulating records.
  std::vector<uint8_t> image(page.bytes());
  Page stamped = Page::FromBytes(std::move(image));
  stamped.StampChecksum();

  const uint64_t byte_off =
      num_pages_.load(std::memory_order_relaxed) * page_size_;
  uint64_t persist = page_size_;
  FaultInjector* fault = nullptr;
  {
    MutexLock lock(mu_);
    fault = fault_;
  }
  if (fault != nullptr) {
    persist = fault->TornWriteBytes(tag_, byte_off, page_size_);
  }
  std::vector<uint8_t> buf(stamped.bytes());
  if (persist < page_size_) {
    // Torn write: only a prefix reaches the platter; the tail reads back as
    // zeros. Silent now — the checksum catches it on the next read.
    std::memset(buf.data() + persist, 0, page_size_ - persist);
  }
  ssize_t n = ::pwrite(fd_, buf.data(), page_size_,
                       static_cast<off_t>(byte_off));
  if (n != static_cast<ssize_t>(page_size_)) {
    return Status::IoError("pwrite " + path_ + ": " + std::strerror(errno));
  }
  num_pages_.fetch_add(1, std::memory_order_release);
  ChargeWrite(1);
  return Status::OK();
}

Status HeapFile::ReadAttempt(FaultInjector* fault, uint64_t offset,
                             uint8_t* buf, size_t len) {
  if (fault != nullptr) {
    Status st = fault->OnReadAttempt(tag_, offset);
    if (!st.ok()) return st;
  }
  ssize_t n = ::pread(fd_, buf, len, static_cast<off_t>(offset));
  if (n != static_cast<ssize_t>(len)) {
    return Status::IoError("pread " + path_ + ": " + std::strerror(errno));
  }
  if (fault != nullptr) {
    // Bit flips and latency spikes are per page so each page in a block
    // read fails independently.
    for (size_t p = 0; p < len; p += page_size_) {
      const size_t chunk = std::min<size_t>(page_size_, len - p);
      fault->MaybeCorrupt(tag_, offset + p, buf + p, chunk);
      const double spike = fault->ReadLatencySpikeSeconds(tag_, offset + p);
      if (spike > 0) {
        MutexLock lock(mu_);
        if (clock_ != nullptr) {
          clock_->Advance(TimeCategory::kIoRead, spike);
        }
      }
    }
  }
  return Status::OK();
}

Status HeapFile::ReadWithRetry(uint64_t offset, uint8_t* buf, size_t len) {
  // Chaos point: a scripted kill here models a process death mid-read; a
  // scripted fail models a catastrophic (non-retryable path) I/O error.
  CORGI_INJECT_POINT("storage.heapfile.read");
  // One locked snapshot for the whole retry loop: a concurrent
  // SetFaultInjection/SetRetryPolicy cannot change the rules (or dangle
  // the injector) between attempts of a single logical read.
  FaultInjector* fault = nullptr;
  RetryPolicy retry;
  {
    MutexLock lock(mu_);
    fault = fault_;
    retry = retry_;
  }
  Status st = Status::OK();
  for (uint32_t attempt = 0; attempt <= retry.max_retries; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(retry.BackoffSeconds(attempt - 1));
      if (fault != nullptr) {
        fault->stats().retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    st = ReadAttempt(fault, offset, buf, len);
    if (st.ok()) {
      if (attempt > 0 && fault != nullptr) {
        fault->stats().recovered.fetch_add(1, std::memory_order_relaxed);
      }
      return st;
    }
    if (st.code() != StatusCode::kIoError) return st;  // not retryable
  }
  if (fault != nullptr) {
    fault->stats().permanent_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::IoError("read failed after " +
                         std::to_string(retry.max_retries) + " retries: " +
                         st.message());
}

Status HeapFile::VerifyPage(const Page& page, uint64_t page_idx) const {
  if (!page.VerifyChecksum()) {
    return Status::Corruption(
        "checksum mismatch on page " + std::to_string(page_idx) + " of " +
        path_ + " (stored " + std::to_string(page.stored_checksum()) +
        ", computed " + std::to_string(page.ComputeChecksum()) + ")");
  }
  Status st = page.Validate();
  if (!st.ok()) {
    return Status::Corruption("page " + std::to_string(page_idx) + " of " +
                              path_ + ": " + st.message());
  }
  return Status::OK();
}

Status HeapFile::ReadPage(uint64_t page_idx, Page* out) {
  const uint64_t pages = num_pages();
  if (page_idx >= pages) {
    return Status::OutOfRange("page index " + std::to_string(page_idx) +
                              " >= " + std::to_string(pages));
  }
  std::vector<uint8_t> buf(page_size_);
  const uint64_t off = page_idx * page_size_;
  CORGI_RETURN_NOT_OK(ReadWithRetry(off, buf.data(), page_size_));
  ChargeRead(page_idx, 1, /*contiguous=*/true);
  Page page = Page::FromBytes(std::move(buf));
  CORGI_RETURN_NOT_OK(VerifyPage(page, page_idx));
  *out = std::move(page);
  return Status::OK();
}

Status HeapFile::ReadPages(uint64_t first, uint64_t count,
                           std::vector<Page>* out) {
  if (first + count > num_pages()) {
    return Status::OutOfRange("page range out of bounds");
  }
  out->clear();
  out->reserve(count);
  // One read of the whole range: fault decisions and the I/O charge are
  // keyed on it. The buffer is left uninitialized because ReadAttempt
  // fails unless pread fills every byte; each page then copies its slice
  // once, into the buffer it adopts.
  const size_t len = static_cast<size_t>(count) * page_size_;
  const auto buf = std::make_unique_for_overwrite<uint8_t[]>(len);
  CORGI_RETURN_NOT_OK(ReadWithRetry(first * page_size_, buf.get(), len));
  ChargeRead(first, count, /*contiguous=*/true);
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* bytes = buf.get() + static_cast<size_t>(i) * page_size_;
    Page page =
        Page::FromBytes(std::vector<uint8_t>(bytes, bytes + page_size_));
    CORGI_RETURN_NOT_OK(VerifyPage(page, first + i));
    out->push_back(std::move(page));
  }
  return Status::OK();
}

void HeapFile::ResetReadCursor() {
  MutexLock lock(mu_);
  last_read_page_ = -2;
}

Status HeapFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace corgipile
