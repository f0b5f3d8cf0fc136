// Training tuple: id, (sparse or dense) feature vector, label; and RowView,
// the non-owning view of one that every model kernel reads.

#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace corgipile {

/// One training example. Dense tuples leave `feature_keys` empty and use
/// `feature_values[i]` as the value of dimension i. Sparse tuples store the
/// nonzero dimensions in `feature_keys` (strictly increasing) with matching
/// `feature_values`.
struct Tuple {
  uint64_t id = 0;
  double label = 0.0;
  std::vector<uint32_t> feature_keys;
  std::vector<float> feature_values;

  bool sparse() const { return !feature_keys.empty(); }
  size_t nnz() const { return feature_values.size(); }

  /// Squared L2 norm of the feature vector.
  double SquaredNorm() const;

  // --- Serialization (little-endian, varint-free fixed layout) ---
  //
  // [u64 id][f64 label][u32 nnz][u8 sparse]
  //   if sparse: nnz * u32 keys
  //   nnz * f32 values

  size_t SerializedSize() const;
  /// Appends the wire form to *out.
  void SerializeTo(std::vector<uint8_t>* out) const;
  /// Parses one tuple starting at data (through ParseWireTuple); sets
  /// *consumed to the bytes used.
  static Result<Tuple> Deserialize(const uint8_t* data, size_t size,
                                   size_t* consumed);

  bool operator==(const Tuple& o) const {
    return id == o.id && label == o.label && feature_keys == o.feature_keys &&
           feature_values == o.feature_values;
  }
};

/// One serialized tuple located in a byte buffer: header parsed, extents
/// checked. `keys` and `values` point at the raw nnz-element u32/f32 arrays
/// inside that buffer, which are generally unaligned (records sit at
/// arbitrary page offsets), so they are copied out with memcpy, never
/// dereferenced as typed pointers. `keys` is nullptr when the tuple reads
/// as dense (sparse flag clear, or nnz == 0).
struct WireTuple {
  uint64_t id = 0;
  double label = 0.0;
  uint32_t nnz = 0;
  const uint8_t* keys = nullptr;
  const uint8_t* values = nullptr;
  size_t size = 0;  // bytes the tuple occupies in the buffer
};

/// The one parser of the wire format above: locates the tuple starting at
/// data[0, size) or returns kCorruption naming the truncated part. Both
/// Tuple::Deserialize and TupleBatch::Append(WireTuple) read through it.
Status ParseWireTuple(const uint8_t* data, size_t size, WireTuple* out);

/// Non-owning view of one training example: a Tuple, or one row of a
/// TupleBatch (TupleBatch::row). `keys` is nullptr for a dense row, whose
/// values[i] is dimension i; a sparse row stores its nonzero dimensions in
/// keys[0..nnz) (strictly increasing). Valid as long as the viewed storage.
struct RowView {
  uint64_t id = 0;
  double label = 0.0;
  const uint32_t* keys = nullptr;
  const float* values = nullptr;
  size_t nnz = 0;

  RowView(uint64_t id, double label, const uint32_t* keys, const float* values,
          size_t nnz)
      : id(id), label(label), keys(keys), values(values), nnz(nnz) {}
  /// Implicit, so every per-row model call accepts a Tuple unchanged.
  RowView(const Tuple& t)
      : RowView(t.id, t.label, t.sparse() ? t.feature_keys.data() : nullptr,
                t.feature_values.data(), t.feature_values.size()) {}

  bool sparse() const { return keys != nullptr; }

  /// Dot product with a dense weight vector. For dense rows `w` must have
  /// at least nnz entries; for sparse rows at least max(key)+1. Inline:
  /// this and AxpyInto are the inner loops of every linear model.
  double Dot(const std::vector<double>& w) const {
    double acc = 0.0;
    if (sparse()) {
      for (size_t i = 0; i < nnz; ++i) {
        acc += w[keys[i]] * static_cast<double>(values[i]);
      }
    } else {
      for (size_t i = 0; i < nnz; ++i) {
        acc += w[i] * static_cast<double>(values[i]);
      }
    }
    return acc;
  }

  /// w += scale * x (gradient scatter).
  void AxpyInto(double scale, std::vector<double>* w) const {
    if (sparse()) {
      for (size_t i = 0; i < nnz; ++i) {
        (*w)[keys[i]] += scale * static_cast<double>(values[i]);
      }
    } else {
      for (size_t i = 0; i < nnz; ++i) {
        (*w)[i] += scale * static_cast<double>(values[i]);
      }
    }
  }
};

/// Copies `r` into *out, reusing out's vector capacity: the one RowView →
/// Tuple materializer (TupleBatch::MaterializeTo and every scan that hands
/// out Tuples go through it).
void MaterializeRow(const RowView& r, Tuple* out);

/// Builds a dense tuple.
Tuple MakeDenseTuple(uint64_t id, double label, std::vector<float> values);

/// Builds a sparse tuple; keys must be strictly increasing.
Tuple MakeSparseTuple(uint64_t id, double label, std::vector<uint32_t> keys,
                      std::vector<float> values);

}  // namespace corgipile
