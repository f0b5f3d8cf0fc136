// Kernel microbenchmarks (google-benchmark): per-tuple SGD step throughput
// for each model family (dense and sparse), the batched SGD entry point
// over a TupleBatch, tuple serialization, the TOAST codec, the page
// checksum, page decoding, and the RNG primitives the shuffles lean on.
// These are the constants behind every "compute" number in the experiment
// benches.

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "dataset/catalog.h"
#include "exec/tuple_batch.h"
#include "ml/linear_models.h"
#include "ml/mlp.h"
#include "storage/buffer_manager.h"
#include "storage/compression.h"
#include "storage/table.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace corgipile {
namespace {

Tuple DenseTuple(uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> vals(dim);
  for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
  return MakeDenseTuple(0, rng.NextBool() ? 1.0 : -1.0, std::move(vals));
}

Tuple SparseTuple(uint32_t dim, uint32_t nnz, uint64_t seed) {
  Rng rng(seed);
  auto keys = rng.SampleWithoutReplacement(dim, nnz);
  std::sort(keys.begin(), keys.end());
  std::vector<float> vals(nnz);
  for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
  return MakeSparseTuple(0, rng.NextBool() ? 1.0 : -1.0, std::move(keys),
                         std::move(vals));
}

void BM_SgdStepLrDense(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  LogisticRegression model(dim);
  model.InitParams(1);
  Tuple t = DenseTuple(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SgdStep(t, 1e-4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgdStepLrDense)->Arg(28)->Arg(2000)->ArgName("dim");

void BM_SgdStepSvmSparse(benchmark::State& state) {
  const auto nnz = static_cast<uint32_t>(state.range(0));
  SvmModel model(10000);
  model.InitParams(1);
  Tuple t = SparseTuple(10000, nnz, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SgdStep(t, 1e-4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgdStepSvmSparse)->Arg(39)->Arg(500)->ArgName("nnz");

void BM_SgdStepMlp(benchmark::State& state) {
  const auto hidden = static_cast<uint32_t>(state.range(0));
  MlpModel model(128, hidden, 10);
  model.InitParams(1);
  Tuple t = DenseTuple(128, 2);
  t.label = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SgdStep(t, 1e-4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgdStepMlp)->Arg(32)->Arg(128)->ArgName("hidden");

// Batched entry: one BatchGradientStep over a full transport batch of
// distinct rows, the call the trainer and SgdOp make per NextBatch. Items
// are rows, so ns/row = 1e9 / items_per_second.
void RunBatchGradientStep(benchmark::State& state, Model* model,
                          const TupleBatch& batch) {
  model->InitParams(1);
  double loss_sum = 0.0;
  for (auto _ : state) {
    model->BatchGradientStep(batch, 1e-4, &loss_sum);
    benchmark::DoNotOptimize(loss_sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}

void BM_BatchGradientStepLrDense(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  LogisticRegression model(dim);
  TupleBatch batch;
  for (size_t i = 0; i < batch.target_tuples(); ++i) {
    batch.Append(DenseTuple(dim, 2 + i));
  }
  RunBatchGradientStep(state, &model, batch);
}
BENCHMARK(BM_BatchGradientStepLrDense)->Arg(18)->ArgName("dim");

void BM_BatchGradientStepSvmSparse(benchmark::State& state) {
  const auto nnz = static_cast<uint32_t>(state.range(0));
  SvmModel model(10000);
  TupleBatch batch;
  for (size_t i = 0; i < batch.target_tuples(); ++i) {
    batch.Append(SparseTuple(10000, nnz, 2 + i));
  }
  RunBatchGradientStep(state, &model, batch);
}
BENCHMARK(BM_BatchGradientStepSvmSparse)->Arg(39)->ArgName("nnz");

void BM_TupleSerialize(benchmark::State& state) {
  Tuple t = DenseTuple(static_cast<uint32_t>(state.range(0)), 3);
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    t.SerializeTo(&buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(t.SerializedSize()));
}
BENCHMARK(BM_TupleSerialize)->Arg(28)->Arg(1024)->ArgName("dim");

void BM_TupleDeserialize(benchmark::State& state) {
  Tuple t = DenseTuple(static_cast<uint32_t>(state.range(0)), 3);
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  for (auto _ : state) {
    size_t consumed = 0;
    auto r = Tuple::Deserialize(buf.data(), buf.size(), &consumed);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_TupleDeserialize)->Arg(28)->Arg(1024)->ArgName("dim");

void BM_ToastCompress(benchmark::State& state) {
  // Zero-heavy payload: the regime where the codec earns its keep.
  Rng rng(5);
  std::vector<uint8_t> input(64 * 1024);
  for (auto& b : input) {
    b = rng.NextBool(0.6) ? 0 : static_cast<uint8_t>(rng.Uniform(256));
  }
  std::vector<uint8_t> out;
  for (auto _ : state) {
    CompressBytes(input, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ToastCompress);

void BM_ToastDecompress(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint8_t> input(64 * 1024);
  for (auto& b : input) {
    b = rng.NextBool(0.6) ? 0 : static_cast<uint8_t>(rng.Uniform(256));
  }
  std::vector<uint8_t> compressed, out;
  CompressBytes(input, &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecompressBytes(compressed.data(), compressed.size(), &out).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ToastDecompress);

// CRC32C over one 8 KiB page: hw=1 is the runtime-dispatched path every
// page read and AppendPage take (SSE4.2 where the CPU has it), hw=0 the
// portable slice-by-4 table.
void BM_Crc32cPage(benchmark::State& state) {
  Rng rng(9);
  std::vector<uint8_t> page(8192);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Uniform(256));
  const bool dispatched = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? Crc32c(page.data(), page.size())
                   : Crc32cExtendPortable(0, page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Crc32cPage)->Arg(0)->Arg(1)->ArgName("hw");

// Decodes page 0 of a one-table heap file into a reused TupleBatch, the
// way BlockShuffleOp loads a block. The page sits in the buffer pool, so
// this is decompression + wire parsing + arena copies, no I/O.
// shape=0: criteo-like (39 of 10k sparse dims, compressed, as train_cold
// stores it); shape=1: susy-like (18 dense dims, uncompressed).
void BM_DecodePage(benchmark::State& state) {
  const bool criteo = state.range(0) == 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (criteo ? "bm_decode_criteo.tbl" : "bm_decode_susy.tbl"))
          .string();
  Schema schema{"t", criteo ? 10000u : 18u, criteo, LabelType::kBinary, 2};
  TableBuilder builder(schema, path, TableOptions{8192, criteo});
  for (uint64_t i = 0; i < 200; ++i) {
    Tuple t = criteo ? SparseTuple(10000, 39, i) : DenseTuple(18, i);
    t.id = i;
    if (!builder.Append(t).ok()) state.SkipWithError("append failed");
  }
  auto table = builder.Finish();
  if (!table.ok()) {
    state.SkipWithError("table build failed");
    return;
  }
  BufferManager pool(1 << 20);
  (*table)->SetBufferManager(&pool);
  const TableSnapshot snap = (*table)->Snapshot();
  TupleBatch batch;
  for (auto _ : state) {
    batch.Clear();
    benchmark::DoNotOptimize(snap.ReadTuplesFromPages(0, 1, &batch).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
  state.counters["rows_per_page"] = static_cast<double>(batch.size());
  table->reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_DecodePage)->Arg(0)->Arg(1)->ArgName("shape");

void BM_RngPermutation(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Permutation(n).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RngPermutation)->Arg(1000)->Arg(100000)->ArgName("n");

void BM_SampleWithoutReplacement(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.SampleWithoutReplacement(n, n / 10).data());
  }
  state.SetItemsProcessed(state.iterations() * (n / 10));
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(1000)->Arg(100000)->ArgName("n");

}  // namespace
}  // namespace corgipile

// Like BENCHMARK_MAIN(), but defaults to the machine-readable JSON output
// every bench binary emits (EXPERIMENTS.md §0). An explicit
// --benchmark_out flag overrides.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=bench_results/ablation_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::filesystem::create_directories("bench_results");
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
