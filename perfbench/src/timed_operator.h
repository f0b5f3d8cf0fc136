// TimedOperator: a PhysicalOperator decorator that records one span per
// call into the wrapped operator and otherwise forwards everything
// unchanged — return values, status(), quarantine counts and name().
//
// It holds no mutable state of its own (spans go to the thread-safe
// SpanRecorder), so it may be called from TupleShuffleOp's double-buffer
// producer thread. The per-tuple Next() is forwarded without a span: the
// batched pipeline never calls it, and a span per tuple would cost more
// than the work it measures.
#pragma once

#include <string>

#include "db/operator.h"
#include "trace.h"

namespace perfbench {

class TimedOperator : public corgipile::PhysicalOperator {
 public:
  /// Span names are "<prefix>.init", "<prefix>.next_batch", .... `anchor`
  /// parents spans opened on threads with no open span of their own (see
  /// trace.h).
  TimedOperator(corgipile::PhysicalOperator* inner, SpanRecorder* recorder,
                const std::string& prefix, uint64_t statement,
                int64_t anchor)
      : inner_(inner), recorder_(recorder), statement_(statement),
        anchor_(anchor), init_(Intern(prefix + ".init")),
        next_batch_(Intern(prefix + ".next_batch")),
        rescan_(Intern(prefix + ".rescan")),
        skip_(Intern(prefix + ".skip_epochs")),
        close_(Intern(prefix + ".close")) {}

  const char* name() const override { return inner_->name(); }

  corgipile::Status Init() override {
    ScopedSpan span(recorder_, init_, statement_, anchor_);
    return inner_->Init();
  }
  const corgipile::Tuple* Next() override { return inner_->Next(); }
  bool NextBatch(corgipile::TupleBatch* out) override {
    ScopedSpan span(recorder_, next_batch_, statement_, anchor_);
    return inner_->NextBatch(out);
  }
  corgipile::Status ReScan() override {
    ScopedSpan span(recorder_, rescan_, statement_, anchor_);
    return inner_->ReScan();
  }
  corgipile::Status SkipEpochs(uint64_t n) override {
    ScopedSpan span(recorder_, skip_, statement_, anchor_);
    return inner_->SkipEpochs(n);
  }
  void Close() override {
    ScopedSpan span(recorder_, close_, statement_, anchor_);
    inner_->Close();
  }
  corgipile::Status status() const override { return inner_->status(); }
  uint64_t QuarantinedBlocks() const override {
    return inner_->QuarantinedBlocks();
  }
  uint64_t SkippedTuples() const override { return inner_->SkippedTuples(); }

 private:
  corgipile::PhysicalOperator* inner_;
  SpanRecorder* recorder_;
  const uint64_t statement_;
  const int64_t anchor_;
  const char* const init_;
  const char* const next_batch_;
  const char* const rescan_;
  const char* const skip_;
  const char* const close_;
};

}  // namespace perfbench
