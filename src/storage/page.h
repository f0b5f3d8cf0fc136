// Slotted heap page, PostgreSQL-style.
//
// Layout (little-endian):
//   [u16 num_slots][u16 data_start][u32 crc32c]
//   num_slots * { u16 offset, u16 len }   (slot directory, grows forward)
//   ... free space ...
//   record bytes                          (grow backward from page end)
//
// The CRC32C header field covers the whole page with the field itself
// zeroed. 0 means "no checksum" (never produced by StampChecksum, which
// maps a computed 0 to 1), so in-memory pages that were never written to
// disk verify trivially.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace corgipile {

class Page {
 public:
  static constexpr uint32_t kDefaultSize = 8192;
  static constexpr uint32_t kHeaderBytes = 8;
  static constexpr uint32_t kSlotBytes = 4;
  static constexpr uint32_t kMaxSize = 65536;
  static constexpr uint32_t kChecksumOffset = 4;

  explicit Page(uint32_t page_size = kDefaultSize);

  /// Wraps raw page bytes read from disk, adopting the buffer as is (no
  /// copy, no initialization). Does not validate; callers reading
  /// untrusted bytes must check Validate() (the HeapFile read paths do)
  /// before using Record().
  static Page FromBytes(std::vector<uint8_t> bytes);

  uint32_t size() const { return static_cast<uint32_t>(bytes_.size()); }
  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  uint16_t num_records() const;
  uint32_t free_space() const;

  /// Appends a record; returns false if it does not fit. Invalidates any
  /// stamped checksum (the header CRC field is reset to 0).
  bool AddRecord(const uint8_t* record, size_t len);

  /// Pointer/length of record in `slot`. Precondition: slot < num_records()
  /// on a page that passed Validate(). Out-of-bounds slot metadata yields a
  /// {valid pointer, 0} pair rather than reading past the page.
  std::pair<const uint8_t*, size_t> Record(uint16_t slot) const;

  /// Structural integrity check against malformed/corrupt bytes: header
  /// fits, slot directory fits, every slot's [offset, offset+len) lies
  /// between the directory end and the page end with a non-zero length.
  /// Returns kCorruption with a description on the first violation.
  Status Validate() const;

  /// Computes the CRC32C of the page (checksum field treated as zero).
  uint32_t ComputeChecksum() const;

  /// Writes ComputeChecksum() into the header (0 mapped to 1).
  void StampChecksum();

  /// Stored checksum field; 0 = unstamped.
  uint32_t stored_checksum() const;

  /// True when the stored checksum matches the page contents, or when the
  /// page is unstamped (stored checksum 0).
  bool VerifyChecksum() const;

  /// Resets to an empty page.
  void Clear();

 private:
  struct Adopt {};
  Page(std::vector<uint8_t> bytes, Adopt) : bytes_(std::move(bytes)) {}

  uint16_t ReadU16(uint32_t off) const;
  void WriteU16(uint32_t off, uint16_t v);
  uint32_t ReadU32(uint32_t off) const;
  void WriteU32(uint32_t off, uint32_t v);

  std::vector<uint8_t> bytes_;
};

}  // namespace corgipile
