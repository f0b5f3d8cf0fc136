#include "storage/page.h"

#include <cstring>

#include "util/crc32c.h"

namespace corgipile {

Page::Page(uint32_t page_size) : bytes_(page_size, 0) { Clear(); }

Page Page::FromBytes(std::vector<uint8_t> bytes) {
  return Page(std::move(bytes), Adopt{});
}

uint16_t Page::ReadU16(uint32_t off) const {
  uint16_t v;
  std::memcpy(&v, bytes_.data() + off, sizeof(v));
  return v;
}

void Page::WriteU16(uint32_t off, uint16_t v) {
  std::memcpy(bytes_.data() + off, &v, sizeof(v));
}

uint32_t Page::ReadU32(uint32_t off) const {
  uint32_t v;
  std::memcpy(&v, bytes_.data() + off, sizeof(v));
  return v;
}

void Page::WriteU32(uint32_t off, uint32_t v) {
  std::memcpy(bytes_.data() + off, &v, sizeof(v));
}

uint16_t Page::num_records() const { return ReadU16(0); }

uint32_t Page::free_space() const {
  const uint32_t dir_end = kHeaderBytes + num_records() * kSlotBytes;
  const uint32_t data_start = ReadU16(2);
  return data_start > dir_end ? data_start - dir_end : 0;
}

bool Page::AddRecord(const uint8_t* record, size_t len) {
  if (len == 0 || len > 0xFFFF) return false;
  const uint16_t n = num_records();
  const uint32_t dir_end = kHeaderBytes + (n + 1u) * kSlotBytes;
  const uint32_t data_start = ReadU16(2);
  if (data_start < dir_end + len) return false;  // does not fit
  const auto new_start = static_cast<uint16_t>(data_start - len);
  std::memcpy(bytes_.data() + new_start, record, len);
  WriteU16(kHeaderBytes + n * kSlotBytes, new_start);
  WriteU16(kHeaderBytes + n * kSlotBytes + 2, static_cast<uint16_t>(len));
  WriteU16(0, static_cast<uint16_t>(n + 1));
  WriteU16(2, new_start);
  WriteU32(kChecksumOffset, 0);  // contents changed; stamp is stale
  return true;
}

std::pair<const uint8_t*, size_t> Page::Record(uint16_t slot) const {
  if (slot >= num_records()) return {bytes_.data(), 0};
  const uint32_t base = kHeaderBytes + slot * kSlotBytes;
  const uint16_t off = ReadU16(base);
  const uint16_t len = ReadU16(base + 2);
  if (static_cast<uint32_t>(off) + len > size()) return {bytes_.data(), 0};
  return {bytes_.data() + off, len};
}

Status Page::Validate() const {
  if (size() < kHeaderBytes) {
    return Status::Corruption("page smaller than header");
  }
  const uint32_t n = num_records();
  const uint32_t dir_end = kHeaderBytes + n * kSlotBytes;
  if (dir_end > size()) {
    return Status::Corruption("slot directory of " + std::to_string(n) +
                              " slots exceeds page size");
  }
  const uint32_t data_start = ReadU16(2);
  if (data_start > size() || data_start < dir_end) {
    return Status::Corruption("data_start " + std::to_string(data_start) +
                              " outside [directory end, page size]");
  }
  for (uint32_t s = 0; s < n; ++s) {
    const uint32_t base = kHeaderBytes + s * kSlotBytes;
    const uint32_t off = ReadU16(base);
    const uint32_t len = ReadU16(base + 2);
    if (len == 0 || off < dir_end || off + len > size()) {
      return Status::Corruption("slot " + std::to_string(s) +
                                " range [" + std::to_string(off) + ", " +
                                std::to_string(off + len) +
                                ") outside record area");
    }
  }
  return Status::OK();
}

uint32_t Page::ComputeChecksum() const {
  uint32_t crc = Crc32cExtend(0, bytes_.data(), kChecksumOffset);
  const uint32_t zero = 0;
  crc = Crc32cExtend(crc, &zero, sizeof(zero));
  crc = Crc32cExtend(crc, bytes_.data() + kHeaderBytes,
                     bytes_.size() - kHeaderBytes);
  return crc == 0 ? 1u : crc;
}

void Page::StampChecksum() { WriteU32(kChecksumOffset, ComputeChecksum()); }

uint32_t Page::stored_checksum() const { return ReadU32(kChecksumOffset); }

bool Page::VerifyChecksum() const {
  const uint32_t stored = stored_checksum();
  if (stored == 0) return true;  // unstamped (legacy / in-memory) page
  return stored == ComputeChecksum();
}

void Page::Clear() {
  std::memset(bytes_.data(), 0, bytes_.size());
  WriteU16(0, 0);
  // data_start == page size; stored as u16, so a 65536-byte page wraps to 0.
  // We cap supported page sizes at 65536 and store size-1 sentinel... keep it
  // simple: support sizes < 65536 exactly and clamp 65536 to 65535.
  const uint32_t start = size() >= kMaxSize ? kMaxSize - 1 : size();
  WriteU16(2, static_cast<uint16_t>(start));
}

}  // namespace corgipile
