// TupleBatch: the unit of transport of the batched execution pipeline
// (DESIGN.md §9).
//
// A reusable, arena-backed container of tuples. Per-tuple metadata (id,
// label) and feature data live in contiguous arrays owned by the batch;
// appending copies a tuple's features into the arena, and Clear() keeps the
// arena capacity so a steady-state pipeline performs no allocation.
//
// Dense fast path: while every appended tuple is dense with the same nnz,
// the value arena is one contiguous row-major [size() × uniform_dim()]
// matrix (structure-of-arrays), the layout a vectorized kernel wants; the
// model kernels in src/ml/ read rows through row(i) today. Sparse tuples store their key spans in a parallel key
// arena; mixed batches are fully supported, they just lose the uniform
// layout.
//
// Pointer-validity contract: spans returned by values(i)/keys(i) and the
// row(i) views are valid until the next Append/Clear/Reserve on this batch —
// i.e. for the consumer, until it requests the next batch.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/tuple.h"

namespace corgipile {

class TupleBatch {
 public:
  /// Default transport batch size; large enough to amortize per-batch
  /// virtual-call and bookkeeping overhead, small enough to stay cache
  /// resident for the paper's feature widths.
  static constexpr size_t kDefaultTargetTuples = 256;

  explicit TupleBatch(size_t target_tuples = kDefaultTargetTuples)
      : target_tuples_(target_tuples == 0 ? 1 : target_tuples) {}

  /// Producers fill until size() == target_tuples() (or the epoch ends).
  size_t target_tuples() const { return target_tuples_; }
  void set_target_tuples(size_t n) { target_tuples_ = n == 0 ? 1 : n; }
  bool full() const { return ids_.size() >= target_tuples_; }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Drops the tuples but keeps every arena's capacity.
  void Clear() {
    ids_.clear();
    labels_.clear();
    values_.clear();
    keys_.clear();
    value_offsets_.assign(1, 0);
    key_offsets_.assign(1, 0);
    uniform_dense_ = true;
    uniform_dim_ = 0;
  }

  void Reserve(size_t tuples, size_t values_per_tuple) {
    ids_.reserve(tuples);
    labels_.reserve(tuples);
    value_offsets_.reserve(tuples + 1);
    key_offsets_.reserve(tuples + 1);
    values_.reserve(tuples * values_per_tuple);
  }

  /// Copies one row (a Tuple, or another batch's row(i)) into the arena.
  void Append(const RowView& r) {
    if (r.sparse()) {
      AppendSparse(r.id, r.label, r.keys, r.values, r.nnz);
    } else {
      AppendDense(r.id, r.label, r.values, r.nnz);
    }
  }

  void AppendDense(uint64_t id, double label, const float* values, size_t n) {
    NoteRow(id, label, false, n);
    values_.insert(values_.end(), values, values + n);
    EndRow();
  }

  void AppendSparse(uint64_t id, double label, const uint32_t* keys,
                    const float* values, size_t nnz) {
    NoteRow(id, label, true, nnz);
    values_.insert(values_.end(), values, values + nnz);
    keys_.insert(keys_.end(), keys, keys + nnz);
    EndRow();
  }

  /// Appends one serialized tuple (storage/tuple.h), copying its unaligned
  /// key and value bytes straight into the arenas: the arena is the first
  /// aligned home of a row decoded from a page.
  void Append(const WireTuple& w) {
    const bool sparse = w.keys != nullptr;
    NoteRow(w.id, w.label, sparse, w.nnz);
    const size_t v0 = values_.size();
    values_.resize(v0 + w.nnz);
    if (w.nnz > 0) {
      std::memcpy(values_.data() + v0, w.values, w.nnz * sizeof(float));
    }
    if (sparse) {  // implies nnz > 0
      const size_t k0 = keys_.size();
      keys_.resize(k0 + w.nnz);
      std::memcpy(keys_.data() + k0, w.keys, w.nnz * sizeof(uint32_t));
    }
    EndRow();
  }

  /// Copies rows [first, first + count) of `src` onto the end of this
  /// batch. Their values (and keys) are one contiguous span of each source
  /// arena, so this is one bulk copy per arena.
  void AppendRows(const TupleBatch& src, size_t first, size_t count) {
    if (count == 0) return;
    const size_t end = first + count;
    const uint32_t v0 = src.value_offsets_[first];
    const uint32_t k0 = src.key_offsets_[first];
    const auto v_base = static_cast<uint32_t>(values_.size());
    const auto k_base = static_cast<uint32_t>(keys_.size());
    for (size_t i = first; i < end; ++i) {
      NoteRow(src.ids_[i], src.labels_[i], src.sparse(i), src.nnz(i));
      value_offsets_.push_back(v_base + (src.value_offsets_[i + 1] - v0));
      key_offsets_.push_back(k_base + (src.key_offsets_[i + 1] - k0));
    }
    values_.insert(values_.end(), src.values_.begin() + v0,
                   src.values_.begin() + src.value_offsets_[end]);
    keys_.insert(keys_.end(), src.keys_.begin() + k0,
                 src.keys_.begin() + src.key_offsets_[end]);
  }

  uint64_t id(size_t i) const { return ids_[i]; }
  double label(size_t i) const { return labels_[i]; }
  bool sparse(size_t i) const {
    return key_offsets_[i + 1] != key_offsets_[i];
  }
  size_t nnz(size_t i) const {
    return value_offsets_[i + 1] - value_offsets_[i];
  }
  const float* values(size_t i) const {
    return values_.data() + value_offsets_[i];
  }
  /// nullptr when row i is dense.
  const uint32_t* keys(size_t i) const {
    return sparse(i) ? keys_.data() + key_offsets_[i] : nullptr;
  }
  /// Row i as the view every model kernel reads; no copy.
  RowView row(size_t i) const {
    return RowView(ids_[i], labels_[i], keys(i), values(i), nnz(i));
  }

  /// True while every row is dense with the same width: the value arena is
  /// then one contiguous [size() × uniform_dim()] row-major matrix.
  bool uniform_dense() const { return uniform_dense_ && !empty(); }
  size_t uniform_dim() const { return uniform_dense() ? uniform_dim_ : 0; }
  const float* dense_data() const { return values_.data(); }
  const double* labels_data() const { return labels_.data(); }
  const uint64_t* ids_data() const { return ids_.data(); }

  /// Copies row i into *out, reusing out's vector capacity, for callers
  /// that need an owning Tuple. Consumers that only read a row use row(i).
  void MaterializeTo(size_t i, Tuple* out) const {
    MaterializeRow(row(i), out);
  }

  Tuple ToTuple(size_t i) const {
    Tuple t;
    MaterializeTo(i, &t);
    return t;
  }

 private:
  /// Starts a row: updates the uniform-dense bookkeeping (before the row
  /// counts toward size()) and records its id and label.
  void NoteRow(uint64_t id, double label, bool sparse, size_t n) {
    if (sparse) {
      uniform_dense_ = false;
    } else if (empty()) {
      uniform_dim_ = n;
    } else if (uniform_dense_ && n != uniform_dim_) {
      uniform_dense_ = false;
    }
    ids_.push_back(id);
    labels_.push_back(label);
  }

  /// Closes the row NoteRow started, after its values/keys were appended.
  void EndRow() {
    value_offsets_.push_back(static_cast<uint32_t>(values_.size()));
    key_offsets_.push_back(static_cast<uint32_t>(keys_.size()));
  }

  size_t target_tuples_;
  std::vector<uint64_t> ids_;
  std::vector<double> labels_;
  /// Row i's values are values_[value_offsets_[i] .. value_offsets_[i+1]);
  /// likewise keys_ for sparse rows (empty span for dense rows).
  std::vector<uint32_t> value_offsets_{0};
  std::vector<uint32_t> key_offsets_{0};
  std::vector<float> values_;
  std::vector<uint32_t> keys_;
  bool uniform_dense_ = true;
  size_t uniform_dim_ = 0;
};

}  // namespace corgipile
