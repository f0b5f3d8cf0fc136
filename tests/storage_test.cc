// Unit tests for storage/: tuple serialization, pages, heap files, buffer
// manager, compression, tables, block sources.

#include <gtest/gtest.h>

#include <cstdio>

#include "exec/tuple_batch.h"
#include "storage/block_source.h"
#include "storage/buffer_manager.h"
#include "storage/compression.h"
#include "storage/heapfile.h"
#include "storage/page.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace corgipile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(TupleTest, DenseRoundTrip) {
  Tuple t = MakeDenseTuple(42, -1.0, {1.0f, 2.5f, -3.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  EXPECT_EQ(buf.size(), t.SerializedSize());
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(*r, t);
  EXPECT_FALSE(r->sparse());
}

TEST(TupleTest, SparseRoundTrip) {
  Tuple t = MakeSparseTuple(7, 1.0, {3, 17, 99}, {0.5f, -1.5f, 2.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, t);
  EXPECT_TRUE(r->sparse());
}

TEST(TupleTest, DeserializeTruncatedFails) {
  Tuple t = MakeDenseTuple(1, 1.0, {1.0f, 2.0f});
  std::vector<uint8_t> buf;
  t.SerializeTo(&buf);
  size_t consumed = 0;
  auto r = Tuple::Deserialize(buf.data(), buf.size() - 3, &consumed);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(TupleTest, DotAndAxpy) {
  Tuple dense = MakeDenseTuple(0, 1.0, {1.0f, 2.0f, 3.0f});
  std::vector<double> w{1.0, 1.0, 1.0, 99.0};  // extra bias slot untouched
  EXPECT_DOUBLE_EQ(RowView(dense).Dot(w), 6.0);
  RowView(dense).AxpyInto(2.0, &w);
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_DOUBLE_EQ(w[2], 7.0);
  EXPECT_DOUBLE_EQ(w[3], 99.0);

  Tuple sparse = MakeSparseTuple(0, 1.0, {0, 2}, {2.0f, 4.0f});
  std::vector<double> w2{1.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(RowView(sparse).Dot(w2), 6.0);
  RowView(sparse).AxpyInto(1.0, &w2);
  EXPECT_DOUBLE_EQ(w2[0], 3.0);
  EXPECT_DOUBLE_EQ(w2[1], 5.0);
  EXPECT_DOUBLE_EQ(w2[2], 5.0);
}

TEST(TupleTest, SquaredNorm) {
  Tuple t = MakeDenseTuple(0, 1.0, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 25.0);
}

TEST(PageTest, AddAndReadRecords) {
  Page page(512);
  const uint16_t before = page.num_records();
  EXPECT_EQ(before, 0);
  std::vector<uint8_t> rec1{1, 2, 3};
  std::vector<uint8_t> rec2{9, 8, 7, 6};
  ASSERT_TRUE(page.AddRecord(rec1.data(), rec1.size()));
  ASSERT_TRUE(page.AddRecord(rec2.data(), rec2.size()));
  EXPECT_EQ(page.num_records(), 2);
  auto [p1, l1] = page.Record(0);
  EXPECT_EQ(l1, 3u);
  EXPECT_EQ(p1[0], 1);
  auto [p2, l2] = page.Record(1);
  EXPECT_EQ(l2, 4u);
  EXPECT_EQ(p2[3], 6);
}

TEST(PageTest, RejectsWhenFull) {
  Page page(64);
  std::vector<uint8_t> rec(40, 0xAB);
  EXPECT_TRUE(page.AddRecord(rec.data(), rec.size()));
  EXPECT_FALSE(page.AddRecord(rec.data(), rec.size()));
}

TEST(PageTest, FreeSpaceShrinks) {
  Page page(256);
  const uint32_t before = page.free_space();
  std::vector<uint8_t> rec(10, 1);
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  EXPECT_EQ(page.free_space(), before - 10 - Page::kSlotBytes);
}

TEST(PageTest, ClearResets) {
  Page page(128);
  std::vector<uint8_t> rec{1};
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  page.Clear();
  EXPECT_EQ(page.num_records(), 0);
}

// On-disk format guard: one fixed page image must stamp to one fixed
// CRC32C, so a checksum implementation change cannot silently invalidate
// pages written earlier.
TEST(PageTest, GoldenStampedChecksum) {
  Page page;
  for (uint32_t r = 0; r < 40; ++r) {
    std::vector<uint8_t> rec(13 + r * 7);
    for (size_t i = 0; i < rec.size(); ++i) {
      rec[i] = static_cast<uint8_t>(r * 31 + i * 7);
    }
    ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  }
  page.StampChecksum();
  EXPECT_EQ(page.stored_checksum(), 0xC4E8BFFDu);
  EXPECT_TRUE(page.VerifyChecksum());
  page.data()[Page::kDefaultSize - 1] ^= 0x01;
  EXPECT_FALSE(page.VerifyChecksum());
}

TEST(HeapFileTest, CreateAppendRead) {
  const std::string path = TempPath("hf_basic.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{5, 5, 5};
  ASSERT_TRUE(page.AddRecord(rec.data(), rec.size()));
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  EXPECT_EQ((*hf)->num_pages(), 2u);

  Page out(512);
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  EXPECT_EQ(out.num_records(), 1);
  auto [data, len] = out.Record(0);
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(data[0], 5);
  std::remove(path.c_str());
}

TEST(HeapFileTest, ReadPastEndFails) {
  const std::string path = TempPath("hf_oob.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page out(512);
  EXPECT_TRUE((*hf)->ReadPage(0, &out).IsOutOfRange());
  std::remove(path.c_str());
}

TEST(HeapFileTest, OpenExisting) {
  const std::string path = TempPath("hf_reopen.dat");
  {
    auto hf = HeapFile::Create(path, 256);
    ASSERT_TRUE(hf.ok());
    Page page(256);
    std::vector<uint8_t> rec{1, 2};
    page.AddRecord(rec.data(), rec.size());
    ASSERT_TRUE((*hf)->AppendPage(page).ok());
  }
  auto hf = HeapFile::Open(path, 256);
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->num_pages(), 1u);
  std::remove(path.c_str());
}

TEST(HeapFileTest, SequentialVsRandomAccounting) {
  const std::string path = TempPath("hf_acct.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  SimClock clock;
  IoStats stats;
  (*hf)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);

  Page out(512);
  // First read: random (fresh cursor). Then 0→1→2 sequential.
  ASSERT_TRUE((*hf)->ReadPage(0, &out).ok());
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  ASSERT_TRUE((*hf)->ReadPage(2, &out).ok());
  EXPECT_EQ(stats.random_reads, 1u);
  EXPECT_EQ(stats.sequential_reads, 2u);

  // Jumping backwards is random again.
  ASSERT_TRUE((*hf)->ReadPage(0, &out).ok());
  EXPECT_EQ(stats.random_reads, 2u);

  // ResetReadCursor forces a seek even for the "next" page.
  (*hf)->ResetReadCursor();
  ASSERT_TRUE((*hf)->ReadPage(1, &out).ok());
  EXPECT_EQ(stats.random_reads, 3u);

  EXPECT_GT(clock.Elapsed(TimeCategory::kIoRead), 3 * 8e-3);  // 3 seeks
  std::remove(path.c_str());
}

TEST(HeapFileTest, ReadPagesContiguousBilledOnce) {
  const std::string path = TempPath("hf_block.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  SimClock clock;
  IoStats stats;
  (*hf)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  std::vector<Page> pages;
  ASSERT_TRUE((*hf)->ReadPages(2, 4, &pages).ok());
  EXPECT_EQ(pages.size(), 4u);
  EXPECT_EQ(stats.random_reads + stats.sequential_reads, 1u);
  EXPECT_EQ(stats.bytes_read, 4 * 512u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, HitsAndMisses) {
  const std::string path = TempPath("bm.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(10 * 512);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 1).ok());
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 2u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, EvictsLru) {
  const std::string path = TempPath("bm_evict.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(2 * 512);  // room for 2 pages
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 1).ok());
  ASSERT_TRUE(bm.Fetch(hf->get(), 2).ok());  // evicts page 0
  EXPECT_EQ(bm.stats().evictions, 1u);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());  // miss again
  EXPECT_EQ(bm.stats().misses, 4u);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, InvalidateDropsPages) {
  const std::string path = TempPath("bm_inval.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{1};
  page.AddRecord(rec.data(), rec.size());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());
  BufferManager bm(512 * 8);
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  bm.Invalidate();
  ASSERT_TRUE(bm.Fetch(hf->get(), 0).ok());
  EXPECT_EQ(bm.stats().misses, 2u);
  std::remove(path.c_str());
}

TEST(CompressionTest, RoundTripZeroHeavy) {
  Rng rng(5);
  std::vector<uint8_t> input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(rng.NextBool(0.7) ? 0 : static_cast<uint8_t>(rng.Uniform(256)));
  }
  std::vector<uint8_t> compressed, output;
  CompressBytes(input, &compressed);
  EXPECT_LT(compressed.size(), input.size());
  ASSERT_TRUE(DecompressBytes(compressed.data(), compressed.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionTest, RoundTripIncompressible) {
  Rng rng(6);
  std::vector<uint8_t> input;
  for (int i = 0; i < 5000; ++i) {
    input.push_back(static_cast<uint8_t>(1 + rng.Uniform(255)));
  }
  std::vector<uint8_t> compressed, output;
  CompressBytes(input, &compressed);
  // Expansion bounded by ~1/128 control overhead.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 64 + 16);
  ASSERT_TRUE(DecompressBytes(compressed.data(), compressed.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionTest, EmptyInput) {
  std::vector<uint8_t> compressed, output;
  CompressBytes({}, &compressed);
  EXPECT_TRUE(compressed.empty());
  ASSERT_TRUE(DecompressBytes(compressed.data(), 0, &output).ok());
  EXPECT_TRUE(output.empty());
}

TEST(CompressionTest, TruncatedInputIsCorruption) {
  std::vector<uint8_t> input(100, 42), compressed, output;
  CompressBytes(input, &compressed);
  EXPECT_TRUE(DecompressBytes(compressed.data(), compressed.size() - 1, &output)
                  .IsCorruption());
}

// The byte-at-a-time decoder DecompressBytes replaced, kept verbatim as
// the oracle for the single-pass one.
Status ReferenceDecompress(const uint8_t* data, size_t size,
                           std::vector<uint8_t>* out) {
  out->clear();
  size_t i = 0;
  while (i < size) {
    const uint8_t c = data[i++];
    if (c & 0x80) {
      const size_t run = (c & 0x7F) + 1u;
      out->insert(out->end(), run, 0);
    } else {
      const size_t run = c + 1u;
      if (i + run > size) return Status::Corruption("truncated literal run");
      out->insert(out->end(), data + i, data + i + run);
      i += run;
    }
  }
  return Status::OK();
}

// Decodes `input` through both decoders and requires the same output or
// the same error. The input is copied into an exactly-sized allocation so
// a sanitizer build traps any read past data + size; `reused` carries
// state between calls the way a page decoder's scratch buffer does.
void ExpectDecompressMatchesReference(const std::vector<uint8_t>& input,
                                      std::vector<uint8_t>* reused) {
  const std::vector<uint8_t> exact(input.begin(), input.end());
  std::vector<uint8_t> want;
  const Status want_st = ReferenceDecompress(exact.data(), exact.size(), &want);
  std::vector<uint8_t> fresh;
  for (std::vector<uint8_t>* out : {&fresh, reused}) {
    const Status st = DecompressBytes(exact.data(), exact.size(), out);
    ASSERT_EQ(st.code(), want_st.code()) << st.ToString();
    ASSERT_EQ(st.message(), want_st.message());
    if (want_st.ok()) {
      ASSERT_EQ(*out, want);
    }
  }
}

std::vector<uint8_t> Serialized(const Tuple& t) {
  std::vector<uint8_t> raw;
  t.SerializeTo(&raw);
  return raw;
}

TEST(CompressionTest, SinglePassMatchesReferenceDecoder) {
  Rng rng(3);
  std::vector<uint8_t> reused;
  auto literal = [&](std::vector<uint8_t>* in, size_t run) {
    in->push_back(static_cast<uint8_t>(run - 1));
    for (size_t k = 0; k < run; ++k) {
      in->push_back(static_cast<uint8_t>(1 + rng.Uniform(255)));
    }
  };
  auto zeros = [](std::vector<uint8_t>* in, size_t run) {
    in->push_back(static_cast<uint8_t>(0x80 | (run - 1)));
  };
  // Every literal and zero run length, alone (ending exactly at the end of
  // the input), between other runs, and with every truncated prefix.
  for (size_t run = 1; run <= 128; ++run) {
    for (int kind = 0; kind < 2; ++kind) {
      std::vector<uint8_t> alone;
      kind == 0 ? literal(&alone, run) : zeros(&alone, run);
      ExpectDecompressMatchesReference(alone, &reused);
      std::vector<uint8_t> mixed;
      literal(&mixed, 1 + rng.Uniform(20));
      kind == 0 ? literal(&mixed, run) : zeros(&mixed, run);
      zeros(&mixed, 1 + rng.Uniform(20));
      kind == 0 ? literal(&mixed, run) : zeros(&mixed, run);
      for (size_t cut = 0; cut <= mixed.size(); ++cut) {
        ExpectDecompressMatchesReference(
            std::vector<uint8_t>(mixed.begin(), mixed.begin() + cut),
            &reused);
      }
    }
  }
  // Seeded random run streams.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> in;
    const size_t runs = 1 + rng.Uniform(40);
    for (size_t r = 0; r < runs; ++r) {
      const size_t run = 1 + rng.Uniform(rng.NextBool(0.8) ? 16 : 128);
      rng.NextBool(0.6) ? literal(&in, run) : zeros(&in, run);
    }
    ExpectDecompressMatchesReference(in, &reused);
    ExpectDecompressMatchesReference(
        std::vector<uint8_t>(in.begin(), in.end() - 1), &reused);
  }
  // Criteo-shaped (sparse, 39 u32 keys) and susy-shaped (dense, 18 floats)
  // records as the table stores them, plus every truncated prefix.
  for (int rec = 0; rec < 40; ++rec) {
    std::vector<uint32_t> keys;
    for (uint32_t k = 0; k < 39; ++k) {
      keys.push_back(k * 256 + static_cast<uint32_t>(rng.Uniform(256)));
    }
    std::vector<float> values(39, 1.0f);
    std::vector<float> dense(18);
    for (auto& v : dense) v = static_cast<float>(rng.NextGaussian());
    for (const Tuple& t :
         {MakeSparseTuple(rec, 1.0, keys, values),
          MakeDenseTuple(rec, -1.0, dense)}) {
      std::vector<uint8_t> compressed;
      CompressBytes(Serialized(t), &compressed);
      for (size_t cut = 0; cut <= compressed.size(); ++cut) {
        ExpectDecompressMatchesReference(
            std::vector<uint8_t>(compressed.begin(),
                                 compressed.begin() + cut),
            &reused);
      }
    }
  }
}

std::vector<Tuple> MakeTuples(size_t n, uint32_t dim) {
  Rng rng(99);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> vals(dim);
    for (auto& v : vals) v = static_cast<float>(rng.NextGaussian());
    out.push_back(MakeDenseTuple(i, i % 2 ? 1.0 : -1.0, std::move(vals)));
  }
  return out;
}

TEST(TableTest, BuildScanRoundTrip) {
  const std::string path = TempPath("tbl_roundtrip.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(500, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_tuples(), 500u);

  std::vector<Tuple> scanned;
  ASSERT_TRUE((*table)
                  ->Scan([&](const Tuple& t) {
                    scanned.push_back(t);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) EXPECT_EQ(scanned[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableTest, ReadTupleAtMatchesOrder) {
  const std::string path = TempPath("tbl_at.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(200, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  for (uint64_t idx : {0ULL, 57ULL, 123ULL, 199ULL}) {
    auto t = (*table)->ReadTupleAt(idx);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[idx]);
  }
  EXPECT_FALSE((*table)->ReadTupleAt(200).ok());
  std::remove(path.c_str());
}

TEST(TableTest, CompressedRoundTripAndDecompressBilling) {
  const std::string path = TempPath("tbl_comp.dat");
  Schema schema{"t", 64, false, LabelType::kBinary, 2};
  // Zero-heavy features so compression bites.
  Rng rng(3);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 100; ++i) {
    std::vector<float> vals(64, 0.0f);
    for (int k = 0; k < 8; ++k) {
      vals[rng.Uniform(64)] = static_cast<float>(rng.NextGaussian());
    }
    tuples.push_back(MakeDenseTuple(i, 1.0, std::move(vals)));
  }
  TableBuilder builder(schema, path, TableOptions{4096, true});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  (*table)->SetIoAccounting(DeviceProfile::Memory(), &clock, nullptr);
  std::vector<Tuple> read;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &read).ok());
  ASSERT_EQ(read.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) EXPECT_EQ(read[i], tuples[i]);
  EXPECT_GT(clock.Elapsed(TimeCategory::kDecompress), 0.0);
  std::remove(path.c_str());
}

TEST(TableTest, TupleLargerThanPageRejected) {
  const std::string path = TempPath("tbl_big.dat");
  Schema schema{"t", 1000, false, LabelType::kBinary, 2};
  TableBuilder builder(schema, path, TableOptions{512, false});
  std::vector<float> vals(1000, 1.0f);
  EXPECT_TRUE(builder.Append(MakeDenseTuple(0, 1.0, vals)).IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BlockSourceTest, InMemoryBlocks) {
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = std::make_shared<std::vector<Tuple>>(MakeTuples(25, 4));
  InMemoryBlockSource src(schema, tuples, 10);
  EXPECT_EQ(src.num_blocks(), 3u);
  EXPECT_EQ(src.num_tuples(), 25u);
  EXPECT_EQ(src.TuplesInBlock(0), 10u);
  EXPECT_EQ(src.TuplesInBlock(2), 5u);
  std::vector<Tuple> block;
  ASSERT_TRUE(src.ReadBlock(2, &block).ok());
  EXPECT_EQ(block.size(), 5u);
  EXPECT_EQ(block[0].id, 20u);
  EXPECT_FALSE(src.ReadBlock(3, &block).ok());
}

TEST(BlockSourceTest, TableBlocksCoverAllTuples) {
  const std::string path = TempPath("tbl_blocks.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(300, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  TableBlockSource src(table->get(), 2048);  // 4 pages per block
  EXPECT_EQ(src.pages_per_block(), 4u);
  std::vector<Tuple> all;
  for (uint32_t b = 0; b < src.num_blocks(); ++b) {
    const size_t before = all.size();
    ASSERT_TRUE(src.ReadBlock(b, &all).ok());
    EXPECT_EQ(all.size() - before, src.TuplesInBlock(b));
  }
  ASSERT_EQ(all.size(), tuples.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, SecondEpochIsFree) {
  const std::string path = TempPath("tbl_bm.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(400, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  IoStats stats;
  (*table)->SetIoAccounting(DeviceProfile::Hdd(), &clock, &stats);
  BufferManager bm(1 << 20);  // plenty for the whole table
  (*table)->SetBufferManager(&bm);

  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  const double after_first = clock.Elapsed(TimeCategory::kIoRead);
  EXPECT_GT(after_first, 0.0);

  // Second pass: everything cached, no new device time.
  out.clear();
  (*table)->ResetReadCursor();
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  EXPECT_DOUBLE_EQ(clock.Elapsed(TimeCategory::kIoRead), after_first);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, SmallPoolStillPaysIo) {
  const std::string path = TempPath("tbl_bm_small.dat");
  Schema schema{"t", 8, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(400, 8);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  SimClock clock;
  (*table)->SetIoAccounting(DeviceProfile::Hdd(), &clock, nullptr);
  BufferManager bm(4 * 512);  // only 4 pages: thrashes
  (*table)->SetBufferManager(&bm);
  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  const double after_first = clock.Elapsed(TimeCategory::kIoRead);
  out.clear();
  (*table)->ResetReadCursor();
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  EXPECT_GT(clock.Elapsed(TimeCategory::kIoRead), 1.5 * after_first);
  std::remove(path.c_str());
}

TEST(TableBufferManagerTest, MixedRunsDecodeInOrder) {
  // Pre-cache every other page, then read a range: cached and uncached
  // pages must interleave back in the right order.
  const std::string path = TempPath("tbl_bm_mix.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(300, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  BufferManager bm(1 << 20);
  (*table)->SetBufferManager(&bm);
  for (uint64_t p = 0; p < (*table)->num_pages(); p += 2) {
    ASSERT_TRUE(bm.Fetch((*table)->file(), p).ok());
  }
  std::vector<Tuple> out;
  ASSERT_TRUE((*table)->ReadTuplesFromPages(0, (*table)->num_pages(), &out).ok());
  ASSERT_EQ(out.size(), tuples.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], tuples[i]);
  std::remove(path.c_str());
}

TEST(BufferManagerTest, InsertAndContains) {
  const std::string path = TempPath("bm_ins.dat");
  auto hf = HeapFile::Create(path, 512);
  ASSERT_TRUE(hf.ok());
  Page page(512);
  std::vector<uint8_t> rec{9};
  page.AddRecord(rec.data(), rec.size());
  ASSERT_TRUE((*hf)->AppendPage(page).ok());

  BufferManager bm(8 * 512);
  EXPECT_FALSE(bm.Contains(hf->get(), 0));
  bm.Insert(hf->get(), 0, std::make_shared<const Page>(page));
  EXPECT_TRUE(bm.Contains(hf->get(), 0));
  // Fetch of an inserted page is a hit, no file read.
  auto fetched = bm.Fetch(hf->get(), 0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(bm.stats().hits, 1u);
  EXPECT_EQ(bm.stats().misses, 0u);
  // Duplicate insert is a no-op.
  bm.Insert(hf->get(), 0, std::make_shared<const Page>(page));
  EXPECT_TRUE(bm.Contains(hf->get(), 0));
  std::remove(path.c_str());
}

// --- MVCC table snapshots (DESIGN.md §14) ----------------------------------

TEST(TableSnapshotTest, SnapshotIsImmutableAcrossAppend) {
  const std::string path = TempPath("tbl_snap.dat");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(120, 4);
  TableBuilder builder(schema, path, TableOptions{512, false});
  for (const auto& t : tuples) ASSERT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());

  TableSnapshot snap = (*table)->Snapshot();
  EXPECT_EQ(snap.num_tuples(), 120u);
  const uint64_t pages_before = snap.num_pages();

  auto extra = MakeTuples(80, 4);
  ASSERT_TRUE((*table)->AppendTuples(extra).ok());

  // The captured snapshot still bounds reads at its creation point…
  EXPECT_EQ(snap.num_tuples(), 120u);
  EXPECT_EQ(snap.num_pages(), pages_before);
  std::vector<Tuple> scanned;
  ASSERT_TRUE(snap.Scan([&](const Tuple& t) {
                    scanned.push_back(t);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), 120u);
  for (size_t i = 0; i < scanned.size(); ++i) EXPECT_EQ(scanned[i], tuples[i]);
  EXPECT_TRUE(snap.ReadTupleAt(120).status().IsOutOfRange());

  // …while a fresh snapshot sees the published append.
  TableSnapshot fresh = (*table)->Snapshot();
  EXPECT_EQ(fresh.num_tuples(), 200u);
  EXPECT_EQ(*fresh.ReadTupleAt(120), extra[0]);
  std::remove(path.c_str());
}

// --- sharded tables --------------------------------------------------------

TEST(ShardedTableTest, ShardPathKeepsLegacyNameForShardZero) {
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 0), "/d/t.tbl");
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 1), "/d/t.shard1.tbl");
  EXPECT_EQ(ShardedTable::ShardPath("/d/t", 7), "/d/t.shard7.tbl");
}

TEST(ShardedTableTest, RoundRobinPlacementAndBalance) {
  const std::string base = TempPath("sharded_rr");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(100, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 3);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->num_shards(), 3u);
  EXPECT_EQ((*table)->num_tuples(), 100u);
  // 100 over 3 shards round-robin: 34/33/33.
  EXPECT_EQ((*table)->shard(0)->num_tuples(), 34u);
  EXPECT_EQ((*table)->shard(1)->num_tuples(), 33u);
  EXPECT_EQ((*table)->shard(2)->num_tuples(), 33u);
  // Tuple i lives in shard i % 3 at local position i / 3.
  for (uint64_t i : {0ULL, 1ULL, 2ULL, 50ULL, 99ULL}) {
    auto t = (*table)->shard(i % 3)->ReadTupleAt(i / 3);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(*t, tuples[i]) << "tuple " << i;
  }
}

TEST(ShardedTableTest, AppendContinuesRoundRobinAndPublishesAtomically) {
  const std::string base = TempPath("sharded_append");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(10, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 4);
  ASSERT_TRUE(table.ok());

  ShardedSnapshot before = (*table)->Snapshot();
  auto extra = MakeTuples(7, 4);
  ASSERT_TRUE((*table)->AppendTuples(extra).ok());
  EXPECT_EQ(before.num_tuples(), 10u);  // old snapshot unaffected

  // Global position 10 continues at shard 10 % 4 = 2.
  ShardedSnapshot after = (*table)->Snapshot();
  EXPECT_EQ(after.num_tuples(), 17u);
  auto t10 = after.shard(2).ReadTupleAt(10 / 4);
  ASSERT_TRUE(t10.ok());
  EXPECT_EQ(*t10, extra[0]);
}

TEST(ShardedTableTest, OpenRoundTripsAllShards) {
  const std::string base = TempPath("sharded_reopen");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(41, 4);
  {
    auto table = ShardedTable::Create(base, schema, TableOptions{512, false},
                                      tuples, 2);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->AppendTuples(MakeTuples(5, 4)).ok());
  }
  auto reopened =
      ShardedTable::Open(base, schema, TableOptions{512, false}, 2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_tuples(), 46u);
  EXPECT_EQ((*reopened)->num_shards(), 2u);
  // Missing shard file fails cleanly.
  EXPECT_FALSE(
      ShardedTable::Open(base, schema, TableOptions{512, false}, 3).ok());
}

TEST(SnapshotBlockSourceTest, ShardMajorBlocksCoverAllTuples) {
  const std::string base = TempPath("snap_blocks");
  Schema schema{"t", 4, false, LabelType::kBinary, 2};
  auto tuples = MakeTuples(90, 4);
  auto table =
      ShardedTable::Create(base, schema, TableOptions{512, false}, tuples, 2);
  ASSERT_TRUE(table.ok());

  SnapshotBlockSource source((*table)->Snapshot(), /*block_size_bytes=*/1024);
  EXPECT_EQ(source.num_tuples(), 90u);
  uint64_t covered = 0;
  std::vector<Tuple> all;
  for (uint32_t b = 0; b < source.num_blocks(); ++b) {
    covered += source.TuplesInBlock(b);
    ASSERT_TRUE(source.ReadBlock(b, &all).ok());
  }
  EXPECT_EQ(covered, 90u);
  ASSERT_EQ(all.size(), 90u);
  // Shard-major enumeration: shard 0's tuples (even ids) first.
  EXPECT_EQ(all.front(), tuples[0]);
  EXPECT_EQ(all[1], tuples[2]);
  EXPECT_FALSE(source.ReadBlock(source.num_blocks(), &all).ok());
}

// --- One page decoder, two read forms ------------------------------------

// Criteo-shaped rows: 39 strictly increasing keys out of 10k dimensions.
std::vector<Tuple> MakeSparseTuples(size_t n) {
  Rng rng(41);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> keys;
    std::vector<float> values;
    for (uint32_t k = 0; k < 39; ++k) {
      keys.push_back(k * 256 + static_cast<uint32_t>(rng.Uniform(256)));
      values.push_back(rng.NextBool(0.5) ? 1.0f
                                         : static_cast<float>(rng.NextGaussian()));
    }
    out.push_back(MakeSparseTuple(i, i % 3 ? 1.0 : -1.0, keys, values));
  }
  return out;
}

std::unique_ptr<Table> BuildTable(const std::string& path,
                                  const std::vector<Tuple>& tuples,
                                  bool compress) {
  Schema schema{"t", 10000, tuples.front().sparse(), LabelType::kBinary, 2};
  TableBuilder builder(schema, path, TableOptions{2048, compress});
  for (const auto& t : tuples) EXPECT_TRUE(builder.Append(t).ok());
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
}

struct DecodeCase {
  bool sparse;
  bool compress;
  bool pooled;
  std::string Name() const {
    return std::string(sparse ? "sparse" : "dense") +
           (compress ? "/compressed" : "") + (pooled ? "/pooled" : "");
  }
};

std::vector<DecodeCase> AllDecodeCases() {
  std::vector<DecodeCase> cases;
  for (bool sparse : {false, true}) {
    for (bool compress : {false, true}) {
      for (bool pooled : {false, true}) {
        cases.push_back({sparse, compress, pooled});
      }
    }
  }
  return cases;
}

TEST(TableDecodeTest, BatchAndTupleReadsYieldIdenticalRows) {
  for (const DecodeCase& c : AllDecodeCases()) {
    SCOPED_TRACE(c.Name());
    const std::string path = TempPath("tbl_decode.dat");
    const auto tuples = c.sparse ? MakeSparseTuples(300) : MakeTuples(300, 18);
    auto table = BuildTable(path, tuples, c.compress);
    SimClock clock;
    IoStats stats;
    table->SetIoAccounting(DeviceProfile::Ssd(), &clock, &stats);
    BufferManager bm(1 << 20);
    if (c.pooled) table->SetBufferManager(&bm);
    const TableSnapshot snap = table->Snapshot();
    const uint64_t pages = snap.num_pages();
    ASSERT_GE(pages, 4u);

    // Two ranges appended into one batch, so rows land after existing ones.
    TupleBatch batch;
    std::vector<Tuple> rows;
    const uint64_t first_row = snap.TuplesInPage(0);
    for (const auto& [first, count] :
         {std::pair<uint64_t, uint64_t>{0, pages},
          std::pair<uint64_t, uint64_t>{1, pages - 2}}) {
      const double d0 = clock.Elapsed(TimeCategory::kDecompress);
      ASSERT_TRUE(snap.ReadTuplesFromPages(first, count, &batch).ok());
      const double d1 = clock.Elapsed(TimeCategory::kDecompress);
      ASSERT_TRUE(snap.ReadTuplesFromPages(first, count, &rows).ok());
      const double d2 = clock.Elapsed(TimeCategory::kDecompress);
      EXPECT_NEAR(d1 - d0, d2 - d1, 1e-12);  // same decompression billing
      EXPECT_EQ(c.compress, d1 > d0);
    }
    ASSERT_EQ(batch.size(), rows.size());
    ASSERT_EQ(rows.size(), tuples.size() + (tuples.size() - first_row -
                                            snap.TuplesInPage(pages - 1)));
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(batch.ToTuple(i), rows[i]) << "row " << i;
      const size_t src = i < tuples.size() ? i : i - tuples.size() + first_row;
      ASSERT_EQ(rows[i], tuples[src]) << "row " << i;
    }
    EXPECT_EQ(batch.uniform_dense(), !c.sparse);
    auto at = snap.ReadTupleAt(first_row + 3);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, tuples[first_row + 3]);
    std::remove(path.c_str());
  }
}

TEST(TableDecodeTest, BitFlippedPageFailsAlikeThroughBothReads) {
  for (const DecodeCase& c : AllDecodeCases()) {
    SCOPED_TRACE(c.Name());
    const std::string path = TempPath("tbl_decode_flip.dat");
    const auto tuples = c.sparse ? MakeSparseTuples(300) : MakeTuples(300, 18);
    auto table = BuildTable(path, tuples, c.compress);
    BufferManager bm(1 << 20);
    if (c.pooled) table->SetBufferManager(&bm);
    FlipByte(path, 2 * 2048 + 2000);  // inside page 2's record area
    const TableSnapshot snap = table->Snapshot();
    TupleBatch batch;
    std::vector<Tuple> rows;
    const Status a = snap.ReadTuplesFromPages(0, snap.num_pages(), &batch);
    const Status b = snap.ReadTuplesFromPages(0, snap.num_pages(), &rows);
    EXPECT_TRUE(a.IsCorruption()) << a.ToString();
    EXPECT_EQ(a.ToString(), b.ToString());
    EXPECT_EQ(batch.size(), rows.size());
    std::remove(path.c_str());
  }
}

// A page whose checksum is valid but whose second record does not parse:
// the decoder itself must reject it, identically through both reads, with
// the first record kept.
TEST(TableDecodeTest, MalformedRecordFailsAlikeThroughBothReads) {
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "plain");
    const std::string path = TempPath("tbl_decode_bad.dat");
    {
      auto hf = HeapFile::Create(path, 2048);
      ASSERT_TRUE(hf.ok());
      Page page(2048);
      std::vector<uint8_t> good = Serialized(MakeDenseTuple(7, 1.0, {2.0f}));
      if (compress) {
        std::vector<uint8_t> packed;
        CompressBytes(good, &packed);
        good = packed;
      }
      // Uncompressed: shorter than a tuple header. Compressed: a literal
      // run announcing 6 bytes with only 1 present.
      const std::vector<uint8_t> bad = compress
                                           ? std::vector<uint8_t>{0x05, 0x01}
                                           : std::vector<uint8_t>{1, 2, 3};
      ASSERT_TRUE(page.AddRecord(good.data(), good.size()));
      ASSERT_TRUE(page.AddRecord(bad.data(), bad.size()));
      ASSERT_TRUE((*hf)->AppendPage(page).ok());
      ASSERT_TRUE((*hf)->Sync().ok());
    }
    Schema schema{"t", 1, false, LabelType::kBinary, 2};
    auto table = Table::Open(path, schema, TableOptions{2048, compress});
    ASSERT_TRUE(table.ok());
    const TableSnapshot snap = (*table)->Snapshot();
    TupleBatch batch;
    std::vector<Tuple> rows;
    const Status a = snap.ReadTuplesFromPages(0, 1, &batch);
    const Status b = snap.ReadTuplesFromPages(0, 1, &rows);
    EXPECT_TRUE(a.IsCorruption()) << a.ToString();
    EXPECT_EQ(a.ToString(), b.ToString());
    EXPECT_EQ(a.message(), compress ? "truncated literal run"
                                    : "truncated tuple header");
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(batch.ToTuple(0), rows[0]);
    EXPECT_EQ(rows[0].id, 7u);
    std::remove(path.c_str());
  }
}

// Tuple::Deserialize and TupleBatch::Append(WireTuple) share ParseWireTuple;
// every truncation of a valid record fails with the same message through
// both, and the full record decodes to the same row.
TEST(TableDecodeTest, WireParserSharedByTupleAndBatch) {
  for (const Tuple& t : {MakeSparseTuple(3, -1.0, {1, 5, 9}, {1.f, 2.f, 3.f}),
                         MakeDenseTuple(4, 1.0, {0.5f, -0.25f}),
                         MakeDenseTuple(5, 1.0, {})}) {
    const std::vector<uint8_t> raw = Serialized(t);
    for (size_t cut = 0; cut <= raw.size(); ++cut) {
      const std::vector<uint8_t> exact(raw.begin(), raw.begin() + cut);
      size_t consumed = 0;
      auto tuple = Tuple::Deserialize(exact.data(), exact.size(), &consumed);
      WireTuple w;
      const Status parsed = ParseWireTuple(exact.data(), exact.size(), &w);
      ASSERT_EQ(tuple.status().ToString(), parsed.ToString()) << cut;
      if (!parsed.ok()) continue;
      TupleBatch batch;
      batch.Append(w);
      EXPECT_EQ(batch.ToTuple(0), *tuple);
      EXPECT_EQ(*tuple, t);
      EXPECT_EQ(consumed, raw.size());
    }
  }
}

}  // namespace
}  // namespace corgipile
