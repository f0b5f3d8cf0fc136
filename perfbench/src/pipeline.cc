#include "pipeline.h"

#include <algorithm>
#include <string>

#include "db/block_shuffle_op.h"
#include "db/sgd_op.h"
#include "db/tuple_shuffle_op.h"
#include "ml/linear_models.h"
#include "timed_operator.h"

namespace perfbench {

corgipile::Result<PipelineOptions> PipelineOptionsFrom(
    const corgipile::TrainStatement& stmt) {
  const corgipile::Params& p = stmt.params;
  PipelineOptions o;
  CORGI_ASSIGN_OR_RETURN(std::string strategy,
                         p.GetString("strategy", "corgipile"));
  CORGI_ASSIGN_OR_RETURN(bool double_buffer, p.GetBool("double_buffer", true));
  if (stmt.model_kind != "lr" || strategy != "corgipile" || !double_buffer) {
    return corgipile::Status::InvalidArgument(
        "the rebuilt pipeline covers TRAIN BY lr with strategy=corgipile, "
        "double_buffer=true only");
  }
  CORGI_ASSIGN_OR_RETURN(std::string block_size,
                         p.GetString("block_size", "10MB"));
  CORGI_ASSIGN_OR_RETURN(o.block_size_bytes,
                         corgipile::ParseByteSize(block_size));
  CORGI_ASSIGN_OR_RETURN(o.learning_rate, p.GetDouble("learning_rate", 0.01));
  CORGI_ASSIGN_OR_RETURN(int64_t epochs, p.GetInt("max_epoch_num", 20));
  CORGI_ASSIGN_OR_RETURN(int64_t seed, p.GetInt("seed", 42));
  o.max_epochs = static_cast<uint32_t>(epochs);
  o.seed = static_cast<uint64_t>(seed);
  return o;
}

corgipile::Result<PipelineResult> RunPipeline(
    corgipile::Database* db, corgipile::ShardedTable* table,
    const std::vector<corgipile::Tuple>* test_set,
    const PipelineOptions& options, SpanRecorder* rec, uint64_t statement,
    int64_t anchor) {
  corgipile::ShardedSnapshot snap;
  {
    ScopedSpan span(rec, "storage.snapshot", statement);
    snap = table->Snapshot();
  }
  // Option values below are Database::Train's for these statement keys.
  corgipile::BlockShuffleOp::Options bopts;
  bopts.block_size_bytes = options.block_size_bytes;
  bopts.seed = options.seed;
  bopts.shuffle_blocks = true;
  corgipile::BlockShuffleOp block(snap, bopts);
  TimedOperator timed_block(&block, rec, "db.block_shuffle", statement,
                            anchor);

  corgipile::TupleShuffleOp::Options topts;
  topts.buffer_tuples = std::max<uint64_t>(
      1, static_cast<uint64_t>(0.1 * static_cast<double>(snap.num_tuples())));
  topts.double_buffer = true;
  topts.seed = options.seed ^ 0x7F;
  topts.clock = &db->clock();
  corgipile::TupleShuffleOp tuple(&timed_block, topts);
  TimedOperator timed_tuple(&tuple, rec, "db.tuple_shuffle", statement,
                            anchor);

  corgipile::LogisticRegression model(table->schema().dim);
  corgipile::SgdOp::Options sopts;
  sopts.lr.initial = options.learning_rate;
  sopts.lr.decay = 0.95;
  sopts.max_epochs = options.max_epochs;
  sopts.test_set = test_set;
  sopts.label_type = corgipile::LabelType::kBinary;
  sopts.clock = &db->clock();
  sopts.init_seed = options.seed ^ 0x11;
  corgipile::SgdOp sgd(&model, &timed_tuple, sopts);

  PipelineResult out;
  corgipile::Status st;
  {
    ScopedSpan span(rec, "db.sgd.init", statement);
    st = sgd.Init();
  }
  while (st.ok()) {
    ScopedSpan span(rec, "db.sgd.epoch", statement);
    corgipile::EpochLog log;
    corgipile::Result<bool> more = sgd.NextEpoch(&log);
    if (!more.ok()) {
      st = more.status();
    } else if (!*more) {
      break;
    } else {
      out.tuples += log.tuples_seen;
      out.epochs.push_back(log);
    }
  }
  {
    ScopedSpan span(rec, "db.sgd.close", statement);
    sgd.Close();
  }
  CORGI_RETURN_NOT_OK(st);
  out.params = model.params();
  out.sim_double_s = tuple.timeline().DoubleBufferedDuration();
  return out;
}

}  // namespace perfbench
