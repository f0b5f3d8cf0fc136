#include "storage/tuple.h"

#include <cstring>

namespace corgipile {

namespace {

template <typename T>
void AppendRaw(std::vector<uint8_t>* out, const T& v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool ReadRaw(const uint8_t* data, size_t size, size_t* pos, T* v) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

double Tuple::SquaredNorm() const {
  double acc = 0.0;
  for (float v : feature_values) acc += static_cast<double>(v) * v;
  return acc;
}

size_t Tuple::SerializedSize() const {
  size_t n = sizeof(uint64_t) + sizeof(double) + sizeof(uint32_t) + 1;
  if (sparse()) n += feature_keys.size() * sizeof(uint32_t);
  n += feature_values.size() * sizeof(float);
  return n;
}

void Tuple::SerializeTo(std::vector<uint8_t>* out) const {
  AppendRaw(out, id);
  AppendRaw(out, label);
  AppendRaw(out, static_cast<uint32_t>(feature_values.size()));
  AppendRaw(out, static_cast<uint8_t>(sparse() ? 1 : 0));
  if (sparse()) {
    for (uint32_t k : feature_keys) AppendRaw(out, k);
  }
  for (float v : feature_values) AppendRaw(out, v);
}

Result<Tuple> Tuple::Deserialize(const uint8_t* data, size_t size,
                                 size_t* consumed) {
  Tuple t;
  size_t pos = 0;
  uint32_t nnz = 0;
  uint8_t is_sparse = 0;
  if (!ReadRaw(data, size, &pos, &t.id) ||
      !ReadRaw(data, size, &pos, &t.label) ||
      !ReadRaw(data, size, &pos, &nnz) ||
      !ReadRaw(data, size, &pos, &is_sparse)) {
    return Status::Corruption("truncated tuple header");
  }
  if (is_sparse) {
    t.feature_keys.resize(nnz);
    for (uint32_t i = 0; i < nnz; ++i) {
      if (!ReadRaw(data, size, &pos, &t.feature_keys[i])) {
        return Status::Corruption("truncated tuple keys");
      }
    }
  }
  t.feature_values.resize(nnz);
  for (uint32_t i = 0; i < nnz; ++i) {
    if (!ReadRaw(data, size, &pos, &t.feature_values[i])) {
      return Status::Corruption("truncated tuple values");
    }
  }
  *consumed = pos;
  return t;
}

Tuple MakeDenseTuple(uint64_t id, double label, std::vector<float> values) {
  Tuple t;
  t.id = id;
  t.label = label;
  t.feature_values = std::move(values);
  return t;
}

Tuple MakeSparseTuple(uint64_t id, double label, std::vector<uint32_t> keys,
                      std::vector<float> values) {
  Tuple t;
  t.id = id;
  t.label = label;
  t.feature_keys = std::move(keys);
  t.feature_values = std::move(values);
  return t;
}

}  // namespace corgipile
