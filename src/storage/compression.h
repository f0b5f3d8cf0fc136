// Lightweight lossless codec standing in for PostgreSQL's TOAST compression
// (pglz). The paper observes that TOAST on wide dense rows (epsilon, yfcc)
// caps data-loading throughput around 130 MB/s regardless of device; we
// reproduce that with a real codec plus a modeled decompression bandwidth.
//
// Codec: zero-run-length + literal runs. Control byte c:
//   c & 0x80 == 0: literal run of (c + 1) bytes follows.
//   c & 0x80 != 0: zero run of ((c & 0x7F) + 1) bytes.
// Dense float vectors with many exact zeros (e.g. ReLU-style image features)
// compress well; incompressible payloads grow by < 1%.

#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace corgipile {

/// Modeled single-core decompression bandwidth (bytes of *output* per
/// second). Calibrated so TOASTed tables load at roughly the paper's
/// ~130 MB/s.
inline constexpr double kDecompressBandwidthBytesPerS = 130.0 * 1024 * 1024;

/// Compresses `input`; output is appended to *out (cleared first).
void CompressBytes(const std::vector<uint8_t>& input,
                   std::vector<uint8_t>* out);

/// Decompresses into *out (replacing its contents). Reusing one `out`
/// across calls is the fast form: its storage is written in place. Returns
/// Corruption on a literal run that overruns the input.
Status DecompressBytes(const uint8_t* data, size_t size,
                       std::vector<uint8_t>* out);

/// Convenience: compression ratio achieved on `input` (original/compressed).
double CompressionRatio(const std::vector<uint8_t>& input);

}  // namespace corgipile
