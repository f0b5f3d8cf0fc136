#include "storage/compression.h"

#include <cstring>

namespace corgipile {

void CompressBytes(const std::vector<uint8_t>& input,
                   std::vector<uint8_t>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    if (input[i] == 0) {
      size_t run = 1;
      while (i + run < n && input[i + run] == 0 && run < 128) ++run;
      out->push_back(static_cast<uint8_t>(0x80 | (run - 1)));
      i += run;
    } else {
      size_t run = 1;
      // Extend literal run until we hit a zero pair (single zeros inside a
      // literal are cheaper to keep literal) or the 128-byte cap.
      while (i + run < n && run < 128) {
        if (input[i + run] == 0 &&
            (i + run + 1 >= n || input[i + run + 1] == 0)) {
          break;
        }
        ++run;
      }
      out->push_back(static_cast<uint8_t>(run - 1));
      out->insert(out->end(), input.begin() + static_cast<long>(i),
                  input.begin() + static_cast<long>(i + run));
      i += run;
    }
  }
}

Status DecompressBytes(const uint8_t* data, size_t size,
                       std::vector<uint8_t>* out) {
  // One pass straight into *out. Its current size is reused as writable
  // room and trimmed to the output length at the end, so decoding a stream
  // of similar records into one vector neither reallocates nor re-zeroes
  // it; growth zero-fills only the few bytes beyond the previous output.
  constexpr size_t kFixed = 16;  // runs up to this length use one store
  uint8_t* dst = out->data();
  size_t room = out->size();
  size_t o = 0;
  size_t i = 0;
  while (i < size) {
    const uint8_t c = data[i++];
    const size_t run = (c & 0x7Fu) + 1u;
    const bool literal = (c & 0x80) == 0;
    if (literal && run > size - i) {
      out->resize(o);
      return Status::Corruption("truncated literal run");
    }
    if (o + run > room) {
      out->resize(o + run + 2 * kFixed);
      dst = out->data();
      room = out->size();
    }
    // Fixed-width stores overrun the run, never the buffers: the bytes past
    // it are overwritten by the next run or trimmed below.
    const bool fixed = run <= kFixed && o + kFixed <= room;
    if (literal) {
      if (fixed && kFixed <= size - i) {
        std::memcpy(dst + o, data + i, kFixed);
      } else {
        std::memcpy(dst + o, data + i, run);
      }
      i += run;
    } else if (fixed) {
      std::memset(dst + o, 0, kFixed);
    } else {
      std::memset(dst + o, 0, run);
    }
    o += run;
  }
  out->resize(o);
  return Status::OK();
}

double CompressionRatio(const std::vector<uint8_t>& input) {
  if (input.empty()) return 1.0;
  std::vector<uint8_t> compressed;
  CompressBytes(input, &compressed);
  return static_cast<double>(input.size()) /
         static_cast<double>(compressed.size());
}

}  // namespace corgipile
