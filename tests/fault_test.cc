// Fault-injection suite: deterministic injector behaviour, page/record
// checksum detection, retry-with-backoff, quarantine-and-keep-training,
// crash-safe checkpoints, and buffer-manager behaviour under faults.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "dataset/catalog.h"
#include "dataset/loader.h"
#include "db/block_shuffle_op.h"
#include "db/database.h"
#include "db/query.h"
#include "db/tuple_shuffle_op.h"
#include "dataloader/record_file.h"
#include "iosim/fault_injector.h"
#include "iosim/sim_clock.h"
#include "ml/checkpoint.h"
#include "ml/linear_models.h"
#include "ml/trainer.h"
#include "shuffle/tuple_stream.h"
#include "storage/block_source.h"
#include "storage/buffer_manager.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "storage/table.h"
#include "util/status.h"

#include "drain_util.h"

namespace corgipile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Stamps every failure message of the enclosing scope with the scenario
/// (the test name) and the fault seed, so a red run reproduces with
/// `--gtest_filter=<scenario>` and the printed seed (DESIGN.md §12).
#define FAULT_SCENARIO_TRACE(seed_expr)                                      \
  SCOPED_TRACE(::std::string("scenario=") +                                  \
               ::testing::UnitTest::GetInstance()->current_test_info()->name() + \
               " seed=" + ::std::to_string(seed_expr))

// Flips one bit of the file at `path`, byte `offset`.
void FlipByteOnDisk(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// --- FaultInjector determinism -------------------------------------------

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultConfig cfg;
  cfg.seed = 99;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.permanent_read_error_rate = 0.5;
  FaultInjector a(cfg), b(cfg);
  const uint64_t tag = FaultInjector::TagForPath("/data/t.tbl");
  bool any_error = false, any_ok = false;
  for (uint64_t off = 0; off < 64 * 4096; off += 4096) {
    const Status sa = a.OnReadAttempt(tag, off);
    const Status sb = b.OnReadAttempt(tag, off);
    EXPECT_EQ(sa.ok(), sb.ok()) << "offset " << off;
    any_error |= !sa.ok();
    any_ok |= sa.ok();
  }
  EXPECT_TRUE(any_error);
  EXPECT_TRUE(any_ok);
  EXPECT_EQ(FaultInjector::TagForPath("/data/t.tbl"), tag);
  EXPECT_NE(FaultInjector::TagForPath("/data/u.tbl"), tag);
}

TEST(FaultInjectorTest, TransientSiteEventuallySucceeds) {
  FaultConfig cfg;
  cfg.seed = 7;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.transient_read_error_rate = 1.0;
  cfg.max_transient_failures = 3;
  FaultInjector inj(cfg);
  int failures = 0;
  Status st;
  for (int attempt = 0; attempt < 10; ++attempt) {
    st = inj.OnReadAttempt(1, 0);
    if (st.ok()) break;
    ++failures;
  }
  EXPECT_TRUE(st.ok());
  EXPECT_GE(failures, 1);
  EXPECT_LE(failures, 3);
  // Once drained, the site stays healthy.
  EXPECT_TRUE(inj.OnReadAttempt(1, 0).ok());
}

TEST(FaultInjectorTest, BitFlipIsStickyAndCounted) {
  FaultConfig cfg;
  cfg.seed = 5;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 1.0;
  FaultInjector inj(cfg);
  std::vector<uint8_t> a(64, 0xAB), b(64, 0xAB);
  EXPECT_TRUE(inj.MaybeCorrupt(2, 128, a.data(), a.size()));
  EXPECT_TRUE(inj.MaybeCorrupt(2, 128, b.data(), b.size()));
  EXPECT_EQ(a, b);  // same site → same flipped bit
  EXPECT_NE(a, std::vector<uint8_t>(64, 0xAB));
  EXPECT_EQ(inj.stats().injected_bit_flips.load(), 2u);
}

TEST(RetryPolicyTest, BackoffIsExponential) {
  RetryPolicy p;
  p.initial_backoff_s = 0.001;
  p.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(0), 0.001);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.002);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(2), 0.004);
}

// --- Page validation + checksums -----------------------------------------

TEST(PageValidateTest, EmptyAndPopulatedPagesAreValid) {
  Page p(512);
  EXPECT_TRUE(p.Validate().ok());
  const uint8_t rec[] = {1, 2, 3, 4};
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PageValidateTest, RejectsMalformedBytes) {
  // Too small to hold a header.
  EXPECT_TRUE(Page::FromBytes(std::vector<uint8_t>(4, 0))
                  .Validate()
                  .IsCorruption());

  // Slot directory larger than the page.
  std::vector<uint8_t> overflow(64, 0);
  overflow[0] = 0xFF;  // num_slots = 0x00FF → directory needs 8+255*4 bytes
  EXPECT_TRUE(Page::FromBytes(overflow).Validate().IsCorruption());

  // data_start before the directory end.
  std::vector<uint8_t> bad_start(64, 0);  // num_slots=0, data_start=0 < 8
  EXPECT_TRUE(Page::FromBytes(bad_start).Validate().IsCorruption());

  // One slot whose offset points into the directory.
  Page good(64);
  const uint8_t rec[] = {9, 9};
  ASSERT_TRUE(good.AddRecord(rec, sizeof(rec)));
  std::vector<uint8_t> slot_bad = good.bytes();
  slot_bad[8] = 0;  // slot 0 offset low byte → 0 (inside header)
  slot_bad[9] = 0;
  EXPECT_TRUE(Page::FromBytes(slot_bad).Validate().IsCorruption());

  // One slot with zero length.
  std::vector<uint8_t> len_bad = good.bytes();
  len_bad[10] = 0;
  len_bad[11] = 0;
  EXPECT_TRUE(Page::FromBytes(len_bad).Validate().IsCorruption());
}

TEST(PageChecksumTest, StampVerifyAndInvalidate) {
  Page p(512);
  const uint8_t rec[] = {10, 20, 30};
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_EQ(p.stored_checksum(), 0u);  // unstamped
  EXPECT_TRUE(p.VerifyChecksum());     // trivially

  p.StampChecksum();
  EXPECT_NE(p.stored_checksum(), 0u);
  EXPECT_TRUE(p.VerifyChecksum());

  p.data()[p.size() - 1] ^= 0x01;  // corrupt a record byte
  EXPECT_FALSE(p.VerifyChecksum());
  p.data()[p.size() - 1] ^= 0x01;
  EXPECT_TRUE(p.VerifyChecksum());

  // Appending after stamping resets the checksum field.
  ASSERT_TRUE(p.AddRecord(rec, sizeof(rec)));
  EXPECT_EQ(p.stored_checksum(), 0u);
}

// --- HeapFile read path ---------------------------------------------------

std::unique_ptr<HeapFile> MakeHeapFile(const std::string& path,
                                       uint32_t page_size, int num_pages) {
  auto file = HeapFile::Create(path, page_size);
  EXPECT_TRUE(file.ok());
  for (int i = 0; i < num_pages; ++i) {
    Page p(page_size);
    std::vector<uint8_t> rec(32);
    for (size_t j = 0; j < rec.size(); ++j) {
      rec[j] = static_cast<uint8_t>(1 + i + j);
    }
    EXPECT_TRUE(p.AddRecord(rec.data(), rec.size()));
    EXPECT_TRUE((*file)->AppendPage(p).ok());
  }
  EXPECT_TRUE((*file)->Sync().ok());
  return std::move(*file);
}

TEST(HeapFileFaultTest, OnDiskBitRotIsDetected) {
  const std::string path = TempPath("hf_bitrot.tbl");
  auto file = MakeHeapFile(path, 512, 3);
  Page out;
  EXPECT_TRUE(file->ReadPage(1, &out).ok());

  FlipByteOnDisk(path, 512 + 300);  // inside page 1's record area
  Status st = file->ReadPage(1, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Other pages still read fine.
  EXPECT_TRUE(file->ReadPage(0, &out).ok());
  EXPECT_TRUE(file->ReadPage(2, &out).ok());
}

TEST(HeapFileFaultTest, InjectedBitFlipsAreAlwaysDetected) {
  const std::string path = TempPath("hf_flip.tbl");
  auto file = MakeHeapFile(path, 512, 16);
  FaultConfig cfg;
  cfg.seed = 11;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 1.0;  // every page read comes back corrupted
  FaultInjector inj(cfg);
  file->SetFaultInjection(&inj);
  Page out;
  for (uint64_t p = 0; p < file->num_pages(); ++p) {
    Status st = file->ReadPage(p, &out);
    EXPECT_TRUE(st.IsCorruption()) << "page " << p << ": " << st.ToString();
  }
  EXPECT_EQ(inj.stats().injected_bit_flips.load(), file->num_pages());
  file->SetFaultInjection(nullptr);
  EXPECT_TRUE(file->ReadPage(0, &out).ok());
}

TEST(HeapFileFaultTest, TransientErrorsRecoverWithBackoff) {
  const std::string path = TempPath("hf_transient.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  FaultConfig cfg;
  cfg.seed = 3;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.transient_read_error_rate = 1.0;
  cfg.max_transient_failures = 2;
  FaultInjector inj(cfg);
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);
  file->SetFaultInjection(&inj);
  RetryPolicy policy;
  policy.max_retries = 3;
  file->SetRetryPolicy(policy);

  Page out;
  for (uint64_t p = 0; p < file->num_pages(); ++p) {
    EXPECT_TRUE(file->ReadPage(p, &out).ok()) << "page " << p;
  }
  EXPECT_GE(inj.stats().retries.load(), file->num_pages());
  EXPECT_EQ(inj.stats().recovered.load(), file->num_pages());
  EXPECT_EQ(inj.stats().permanent_failures.load(), 0u);
  EXPECT_GT(clock.Elapsed(TimeCategory::kRetryBackoff), 0.0);
}

TEST(HeapFileFaultTest, PermanentErrorsSurfaceAfterRetries) {
  const std::string path = TempPath("hf_permanent.tbl");
  auto file = MakeHeapFile(path, 512, 1);
  FaultConfig cfg;
  cfg.seed = 3;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.permanent_read_error_rate = 1.0;
  FaultInjector inj(cfg);
  file->SetFaultInjection(&inj);

  Page out;
  Status st = file->ReadPage(0, &out);
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(inj.stats().permanent_failures.load(), 1u);
  EXPECT_EQ(inj.stats().recovered.load(), 0u);
  // All max_retries + 1 attempts were made and failed.
  EXPECT_EQ(inj.stats().injected_permanent_errors.load(), 4u);
}

TEST(HeapFileFaultTest, TornWriteIsDetectedOnRead) {
  const std::string path = TempPath("hf_torn.tbl");
  FaultConfig cfg;
  cfg.seed = 21;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.torn_write_rate = 1.0;
  FaultInjector inj(cfg);
  auto create = HeapFile::Create(path, 512);
  ASSERT_TRUE(create.ok());
  auto& file = *create;
  file->SetFaultInjection(&inj);
  Page p(512);
  std::vector<uint8_t> rec(200);
  for (size_t j = 0; j < rec.size(); ++j) {
    rec[j] = static_cast<uint8_t>(0x10 + j);
  }
  ASSERT_TRUE(p.AddRecord(rec.data(), rec.size()));
  ASSERT_TRUE(file->AppendPage(p).ok());
  EXPECT_EQ(inj.stats().injected_torn_writes.load(), 1u);
  // The tear is silent at write time; the checksum catches it on read.
  Page out;
  Status st = file->ReadPage(0, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(HeapFileFaultTest, LatencySpikesChargeSimTime) {
  const std::string path = TempPath("hf_latency.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  FaultConfig cfg;
  cfg.seed = 13;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.latency_spike_rate = 1.0;
  cfg.latency_spike_seconds = 0.25;
  FaultInjector inj(cfg);
  SimClock clock;
  IoStats io;
  file->SetIoAccounting(DeviceProfile::Memory(), &clock, &io);
  file->SetFaultInjection(&inj);
  Page out;
  ASSERT_TRUE(file->ReadPage(0, &out).ok());
  EXPECT_GE(clock.Elapsed(TimeCategory::kIoRead), 0.25);
  EXPECT_EQ(inj.stats().injected_latency_spikes.load(), 1u);
}

// --- Record files ---------------------------------------------------------

std::vector<Tuple> MakeRecordTuples(int n) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(MakeDenseTuple(
        i, i % 2 == 0 ? 1.0 : -1.0,
        {1.5f + i, -2.5f * i, 3.0f, static_cast<float>(i)}));
  }
  return tuples;
}

TEST(RecordFileFaultTest, PayloadCorruptionIsDetected) {
  const std::string path = TempPath("rf_crc.bin");
  Schema schema{"r", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeRecordTuples(50);
  auto src = MaterializeRecordFile(schema, tuples, path, 1024);
  ASSERT_TRUE(src.ok());
  std::vector<Tuple> out;
  for (uint32_t b = 0; b < (*src)->num_blocks(); ++b) {
    ASSERT_TRUE((*src)->ReadBlock(b, &out).ok());
  }
  EXPECT_EQ(out.size(), tuples.size());

  // Flip a payload byte of record 0 (header is 8 bytes) and re-open.
  FlipByteOnDisk(path, 12);
  auto index = BuildRecordBlockIndex(path, 1024);
  ASSERT_TRUE(index.ok());
  auto corrupt = RecordFileBlockSource::Open(path, *index, schema);
  ASSERT_TRUE(corrupt.ok());
  out.clear();
  Status st = (*corrupt)->ReadBlock(0, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // Later blocks are unaffected.
  EXPECT_TRUE((*corrupt)->ReadBlock(1, &out).ok());
}

TEST(RecordFileFaultTest, InjectedFlipsAndRetries) {
  const std::string path = TempPath("rf_inj.bin");
  Schema schema{"r", 4, false, LabelType::kBinary, 2};
  auto src = MaterializeRecordFile(schema, MakeRecordTuples(40), path, 512);
  ASSERT_TRUE(src.ok());

  FaultConfig cfg;
  cfg.seed = 17;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 1.0;
  FaultInjector flip(cfg);
  (*src)->SetFaultInjection(&flip);
  std::vector<Tuple> out;
  Status st = (*src)->ReadBlock(0, &out);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  FaultConfig tcfg;
  tcfg.seed = 17;
  FAULT_SCENARIO_TRACE(tcfg.seed);
  tcfg.transient_read_error_rate = 1.0;
  tcfg.max_transient_failures = 2;
  FaultInjector transient(tcfg);
  (*src)->SetFaultInjection(&transient);
  out.clear();
  EXPECT_TRUE((*src)->ReadBlock(0, &out).ok());
  EXPECT_GE(transient.stats().recovered.load(), 1u);
}

TEST(RecordBlockIndexTest, ValidateRejectsBrokenIndexes) {
  RecordBlockIndex good;
  good.blocks.push_back({0, 100, 5});
  good.blocks.push_back({100, 80, 4});
  good.total_tuples = 9;
  EXPECT_TRUE(good.Validate(180).ok());

  RecordBlockIndex overlap = good;
  overlap.blocks[1].offset = 50;  // overlaps block 0
  EXPECT_TRUE(overlap.Validate(180).IsCorruption());

  RecordBlockIndex oob = good;
  oob.blocks[1].bytes = 500;  // extends past the file
  EXPECT_TRUE(oob.Validate(180).IsCorruption());

  RecordBlockIndex small = good;
  small.blocks[0].num_tuples = 50;  // 100 bytes can't hold 50 records
  EXPECT_TRUE(small.Validate(180).IsCorruption());

  RecordBlockIndex sum = good;
  sum.total_tuples = 42;  // doesn't match the per-block counts
  EXPECT_TRUE(sum.Validate(180).IsCorruption());

  RecordBlockIndex empty = good;
  empty.blocks[0].bytes = 0;
  EXPECT_TRUE(empty.Validate(180).IsCorruption());
}

// --- Quarantine + keep training ------------------------------------------

struct FaultTrainFixture {
  Dataset ds;
  std::unique_ptr<Table> table;
  std::unique_ptr<TableBlockSource> source;

  explicit FaultTrainFixture(const std::string& tag) {
    auto spec = CatalogLookup("susy", 0.1);
    ds = GenerateDataset(*spec, DataOrder::kClustered);
    auto t = MaterializeTrainTable(ds, TempPath(tag + ".tbl"), 2048);
    table = std::move(t).ValueOrDie();
    // 4 pages per block.
    source = std::make_unique<TableBlockSource>(table.get(), 4 * 2048);
  }

  Result<TrainResult> Run(const BlockReadTolerance& tolerance) {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    sopts.tolerance = tolerance;
    auto stream =
        MakeTupleStream(ShuffleStrategy::kCorgiPile, source.get(), sopts);
    EXPECT_TRUE(stream.ok());
    LogisticRegression model(ds.spec.dim);
    TrainerOptions topts;
    topts.epochs = 5;
    topts.lr.initial = 0.005;
    topts.test_set = ds.test.get();
    topts.label_type = ds.MakeSchema().label_type;
    return Train(&model, stream->get(), topts);
  }
};

TEST(QuarantineTrainingTest, TrainingSurvivesSparseBitRot) {
  FaultTrainFixture f("quarantine");
  auto clean = f.Run({});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->total_quarantined_blocks, 0u);

  // Sparse sticky bit rot: ~1% of pages → a few corrupt blocks.
  FaultConfig cfg;
  cfg.seed = 1234;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 0.01;
  FaultInjector inj(cfg);
  f.table->SetFaultInjection(&inj);

  BlockReadTolerance tol;
  tol.quarantine_corrupt_blocks = true;
  tol.max_bad_block_fraction = 0.10;
  auto faulty = f.Run(tol);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  // Every corrupt block was detected and quarantined, with the loss
  // accounted in the epoch logs.
  EXPECT_GE(faulty->total_quarantined_blocks, 1u);
  EXPECT_GE(faulty->total_skipped_tuples, faulty->total_quarantined_blocks);
  uint64_t epoch_sum = 0;
  for (const EpochLog& log : faulty->epochs) epoch_sum += log.quarantined_blocks;
  EXPECT_EQ(epoch_sum, faulty->total_quarantined_blocks);

  // Losing ~1% of blocks must not change convergence materially.
  EXPECT_NEAR(faulty->final_test_metric, clean->final_test_metric, 0.01);

  // Without tolerance the same faults abort the run.
  auto strict = f.Run({});
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();

  f.table->SetFaultInjection(nullptr);
}

TEST(QuarantineTrainingTest, AbortsPastBadBlockThreshold) {
  FaultTrainFixture f("threshold");
  FaultConfig cfg;
  cfg.seed = 2;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 1.0;  // every block is corrupt
  FaultInjector inj(cfg);
  f.table->SetFaultInjection(&inj);

  BlockReadTolerance tol;
  tol.quarantine_corrupt_blocks = true;
  tol.max_bad_block_fraction = 0.05;
  auto result = f.Run(tol);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  f.table->SetFaultInjection(nullptr);
}

TEST(QuarantineTrainingTest, DatabasePipelineQuarantinesAndReports) {
  const std::string dir = TempPath("db_fault");
  std::filesystem::create_directories(dir);
  Database db(dir, DeviceProfile::Memory(), /*buffer_pool_bytes=*/0);
  auto spec = CatalogLookup("susy", 0.1);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  ASSERT_TRUE(db.RegisterDataset("susy", ds).ok());

  FaultConfig cfg;
  cfg.seed = 77;
  FAULT_SCENARIO_TRACE(cfg.seed);
  cfg.bit_flip_rate = 0.03;
  FaultInjector inj(cfg);
  db.SetFaultInjection(&inj);

  TrainStatement stmt;
  stmt.table_name = "susy";
  stmt.model_kind = "lr";
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=4, block_size=16KB, "
                    "tolerate_corruption=true, max_bad_fraction=0.25")
                    .ValueOrDie();
  auto tolerant = db.Train(stmt);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  EXPECT_GE(tolerant->total_quarantined_blocks, 1u);
  EXPECT_GE(tolerant->total_skipped_tuples, 1u);
  uint64_t epoch_sum = 0;
  for (const EpochLog& log : tolerant->epochs) {
    epoch_sum += log.quarantined_blocks;
  }
  EXPECT_EQ(epoch_sum, tolerant->total_quarantined_blocks);
  EXPECT_GT(tolerant->final_metric, 0.6);  // still learns

  // Same faults without the tolerance flag abort with kCorruption.
  stmt.params = Params::Parse(
                    "learning_rate=0.005, max_epoch_num=4, block_size=16KB")
                    .ValueOrDie();
  auto strict = db.Train(stmt);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();
  db.SetFaultInjection(nullptr);
}

// A corrupt block mid-stream with corruption tolerance off must surface
// kCorruption through TupleShuffleOp::status() in BOTH buffer modes: the
// double-buffered path delivers the producer's error through the channel
// after the already-filled buffers drain, i.e. at the same point in the
// tuple stream where the single-buffered path hits it.
TEST(QuarantineTrainingTest, CorruptionSurfacesInBothBufferModes) {
  for (const bool double_buffer : {false, true}) {
    SCOPED_TRACE(double_buffer ? "double buffered" : "single buffered");
    FaultTrainFixture f(double_buffer ? "pipe_corrupt_d" : "pipe_corrupt_s");

    BlockShuffleOp::Options bopts;
    bopts.block_size_bytes = 4 * 2048;
    bopts.seed = 5;  // shuffled block order → the corrupt block lands
                     // mid-stream, after healthy blocks were consumed
    BlockShuffleOp block_op(f.table.get(), bopts);
    TupleShuffleOp::Options topts;
    topts.buffer_tuples = 64;
    topts.double_buffer = double_buffer;
    TupleShuffleOp op(&block_op, topts);

    // Sparse sticky corruption; tolerance is off (no BlockReadTolerance).
    FaultConfig cfg;
    cfg.seed = 1234;
    FAULT_SCENARIO_TRACE(cfg.seed);
    cfg.bit_flip_rate = 0.01;
    FaultInjector inj(cfg);
    f.table->SetFaultInjection(&inj);

    ASSERT_TRUE(op.Init().ok());
    const uint64_t delivered = DrainIds(&op).size();
    Status st = op.status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    // Healthy buffers filled before the bad block still reached the
    // consumer.
    EXPECT_GT(delivered, 0u);
    EXPECT_LT(delivered, f.ds.train->size());
    op.Close();
    f.table->SetFaultInjection(nullptr);
  }
}

// --- Checkpoints ----------------------------------------------------------

TEST(CheckpointTest, RoundTrip) {
  TrainCheckpoint ckpt;
  ckpt.model_name = "lr";
  ckpt.next_epoch = 7;
  ckpt.params = {0.25, -1.5, 3.75};
  ckpt.avg_params = {0.1, 0.2, 0.3};
  ckpt.weight_sum = 12.5;
  ckpt.total_tuples = 123456;
  ckpt.best_test_metric = 0.87;
  ckpt.total_quarantined_blocks = 3;
  ckpt.total_skipped_tuples = 99;
  const std::string path = TempPath("ckpt_rt.bin");
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());

  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->model_name, ckpt.model_name);
  EXPECT_EQ(loaded->next_epoch, ckpt.next_epoch);
  EXPECT_EQ(loaded->params, ckpt.params);
  EXPECT_EQ(loaded->avg_params, ckpt.avg_params);
  EXPECT_DOUBLE_EQ(loaded->weight_sum, ckpt.weight_sum);
  EXPECT_EQ(loaded->total_tuples, ckpt.total_tuples);
  EXPECT_DOUBLE_EQ(loaded->best_test_metric, ckpt.best_test_metric);
  EXPECT_EQ(loaded->total_quarantined_blocks, 3u);
  EXPECT_EQ(loaded->total_skipped_tuples, 99u);
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto r = LoadCheckpoint(TempPath("no_such_ckpt.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  TrainCheckpoint ckpt;
  ckpt.model_name = "svm";
  ckpt.params = {1.0, 2.0};
  const std::string path = TempPath("ckpt_corrupt.bin");
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  FlipByteOnDisk(path, 20);
  auto r = LoadCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(CheckpointTest, ResumeReproducesTheUninterruptedRun) {
  auto spec = CatalogLookup("susy", 0.1);
  Dataset ds = GenerateDataset(*spec, DataOrder::kClustered);
  auto tuples = std::make_shared<const std::vector<Tuple>>(*ds.train);
  InMemoryBlockSource source(ds.MakeSchema(), tuples, 100);

  auto make_stream = [&] {
    ShuffleOptions sopts;
    sopts.buffer_fraction = 0.1;
    auto s = MakeTupleStream(ShuffleStrategy::kCorgiPile, &source, sopts);
    EXPECT_TRUE(s.ok());
    return std::move(*s);
  };
  TrainerOptions base;
  base.epochs = 6;
  base.lr.initial = 0.005;
  base.test_set = ds.test.get();
  base.label_type = ds.MakeSchema().label_type;

  // Uninterrupted reference run.
  LogisticRegression full_model(ds.spec.dim);
  auto full_stream = make_stream();
  auto full = Train(&full_model, full_stream.get(), base);
  ASSERT_TRUE(full.ok());

  // Run that "crashes" after epoch 3, leaving a checkpoint behind…
  const std::string ckpt = TempPath("ckpt_resume.bin");
  std::filesystem::remove(ckpt);
  {
    LogisticRegression model(ds.spec.dim);
    auto stream = make_stream();
    TrainerOptions opts = base;
    opts.epochs = 3;
    opts.checkpoint_path = ckpt;
    ASSERT_TRUE(Train(&model, stream.get(), opts).ok());
  }

  // …and a fresh process resuming from it.
  LogisticRegression resumed_model(ds.spec.dim);
  auto resumed_stream = make_stream();
  TrainerOptions opts = base;
  opts.checkpoint_path = ckpt;
  opts.resume = true;
  auto resumed = Train(&resumed_model, resumed_stream.get(), opts);
  ASSERT_TRUE(resumed.ok());

  EXPECT_EQ(resumed->resumed_from_epoch, 3u);
  EXPECT_EQ(resumed->epochs.size(), 3u);  // epochs 3, 4, 5
  ASSERT_EQ(resumed_model.params().size(), full_model.params().size());
  for (size_t i = 0; i < full_model.params().size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_model.params()[i], full_model.params()[i])
        << "param " << i;
  }
  EXPECT_DOUBLE_EQ(resumed->final_test_metric, full->final_test_metric);
  EXPECT_EQ(resumed->total_tuples, full->total_tuples);
}

// --- BufferManager under faults ------------------------------------------

TEST(BufferManagerFaultTest, EvictsLeastRecentlyUsed) {
  const std::string path = TempPath("bm_evict.tbl");
  auto file = MakeHeapFile(path, 512, 4);
  BufferManager bm(2 * 512);  // room for two pages

  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(file.get(), 1).ok());
  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());  // touch 0 → 1 becomes LRU
  ASSERT_TRUE(bm.Fetch(file.get(), 2).ok());  // evicts 1

  EXPECT_TRUE(bm.Contains(file.get(), 0));
  EXPECT_FALSE(bm.Contains(file.get(), 1));
  EXPECT_TRUE(bm.Contains(file.get(), 2));
  EXPECT_EQ(bm.stats().evictions, 1u);
}

TEST(BufferManagerFaultTest, CorruptPageIsNeverCached) {
  const std::string path = TempPath("bm_corrupt.tbl");
  auto file = MakeHeapFile(path, 512, 2);
  FlipByteOnDisk(path, 512 + 400);  // page 1

  BufferManager bm(8 * 512);
  auto bad = bm.Fetch(file.get(), 1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_FALSE(bm.Contains(file.get(), 1));
  // The healthy page still caches normally.
  ASSERT_TRUE(bm.Fetch(file.get(), 0).ok());
  EXPECT_TRUE(bm.Contains(file.get(), 0));
}

TEST(BufferManagerFaultTest, FetchedPageSurvivesInvalidate) {
  const std::string path = TempPath("bm_pin.tbl");
  auto file = MakeHeapFile(path, 512, 1);
  BufferManager bm(8 * 512);
  auto page = bm.Fetch(file.get(), 0);
  ASSERT_TRUE(page.ok());
  const uint16_t before = (*page)->num_records();
  bm.Invalidate(file.get());
  EXPECT_FALSE(bm.Contains(file.get(), 0));
  // The shared_ptr keeps the evicted page alive and intact.
  EXPECT_EQ((*page)->num_records(), before);
  EXPECT_TRUE((*page)->Validate().ok());
}

TEST(BufferManagerFaultTest, InvalidateRacingFetchIsSafe) {
  const std::string path = TempPath("bm_race.tbl");
  auto file = MakeHeapFile(path, 512, 8);
  BufferManager bm(4 * 512);

  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) bm.Invalidate(file.get());
  });
  for (int iter = 0; iter < 2000; ++iter) {
    auto page = bm.Fetch(file.get(), iter % 8);
    ASSERT_TRUE(page.ok());
    EXPECT_TRUE((*page)->Validate().ok());
    EXPECT_EQ((*page)->num_records(), 1u);
  }
  stop.store(true);
  invalidator.join();
}

}  // namespace
}  // namespace corgipile
