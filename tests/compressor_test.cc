// Per-block codec tests (table/compressor.h): roundtrip byte-identity for
// both codecs, decline behaviour, and corruption hardening — truncated,
// bit-flipped, and over-declared compressed payloads must come back as
// Status::Corruption (never a crash or an over-read), at both the codec
// layer and the v2 block framing layer (format.h).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dbformat.h"
#include "env/mem_env.h"
#include "table/block_builder.h"
#include "table/compressor.h"
#include "table/format.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                 ValueType t = kTypeValue) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(user_key, seq, t));
  return r;
}

// A prefix-compressed data block of YCSB-shaped records: fixed-size values
// made of 8-byte letter runs, exactly what the columnar codec targets.
std::string BuildFixedRecordBlock(int num_records, int restart_interval = 16) {
  BlockBuilder builder(restart_interval);
  for (int i = 0; i < num_records; i++) {
    char key[16];
    snprintf(key, sizeof(key), "user%06d", i);
    std::string value;
    for (int f = 0; f < 10; f++) {
      value.append(8, static_cast<char>('a' + (i + f) % 26));
    }
    builder.Add(IKey(key, 100 + i), value);
  }
  return builder.Finish().ToString();
}

std::string BuildVariedBlock(int num_records) {
  BlockBuilder builder(8);
  Random rnd(42);
  for (int i = 0; i < num_records; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%05d", i);
    std::string value;
    const int len = static_cast<int>(rnd.Uniform(40));
    for (int j = 0; j < len; j++) {
      value.push_back(static_cast<char>('A' + rnd.Uniform(26)));
    }
    builder.Add(IKey(key), value);
  }
  return builder.Finish().ToString();
}

void ExpectRoundtrip(const Compressor* codec, const std::string& input) {
  std::string compressed;
  ASSERT_TRUE(codec->Compress(input, &compressed));
  std::string restored;
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);  // byte-for-byte
}

// ---------------------------------------------------------------------------
// LZ codec.

TEST(LzCompressorTest, RoundtripCompressibleShrinks) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  ASSERT_NE(lz, nullptr);
  std::string input;
  for (int i = 0; i < 200; i++) input += "the quick brown fox ";
  std::string compressed;
  ASSERT_TRUE(lz->Compress(input, &compressed));
  EXPECT_LT(compressed.size(), input.size() / 4);
  std::string restored;
  ASSERT_TRUE(lz->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST(LzCompressorTest, RoundtripIncompressibleStaysIntact) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  Random rnd(7);
  std::string input;
  for (int i = 0; i < 4096; i++) {
    input.push_back(static_cast<char>(rnd.Uniform(256)));
  }
  ExpectRoundtrip(lz, input);
}

TEST(LzCompressorTest, RoundtripEdgeSizes) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  ExpectRoundtrip(lz, "");
  ExpectRoundtrip(lz, "x");
  ExpectRoundtrip(lz, "abc");                    // below min match
  ExpectRoundtrip(lz, std::string(1000, 'z'));   // one overlapping match
  ExpectRoundtrip(lz, std::string(300, 'q') + "tail");  // long length ext
}

TEST(LzCompressorTest, RoundtripRealBlock) {
  ExpectRoundtrip(GetCompressor(CompressionType::kLz),
                  BuildFixedRecordBlock(100));
}

TEST(LzCompressorTest, TruncationIsCorruption) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  std::string input;
  for (int i = 0; i < 50; i++) input += "repeat repeat repeat ";
  std::string compressed;
  ASSERT_TRUE(lz->Compress(input, &compressed));
  // Every proper prefix must fail cleanly: either a Corruption status, never
  // a crash or a silently-wrong success.
  for (size_t keep = 0; keep < compressed.size(); keep++) {
    std::string truncated = compressed.substr(0, keep);
    std::string out;
    Status s = lz->Decompress(truncated, &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << keep << " bytes decoded";
  }
}

TEST(LzCompressorTest, OverDeclaredSizeIsCorruption) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  // A size prefix beyond the builder's hard cap is corruption by definition.
  std::string bogus;
  PutVarint64(&bogus, kMaxUncompressedBlockBytes + 1);
  std::string out;
  Status s = lz->Decompress(bogus, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Declared size larger than what the stream produces: size mismatch.
  std::string input = "hello world";
  std::string compressed;
  ASSERT_TRUE(lz->Compress(input, &compressed));
  std::string inflated;
  PutVarint64(&inflated, input.size() + 100);
  // Skip the original varint size prefix, keep the sequences.
  uint64_t declared = 0;
  const char* p = GetVarint64Ptr(compressed.data(),
                                 compressed.data() + compressed.size(),
                                 &declared);
  ASSERT_NE(p, nullptr);
  inflated.append(p, compressed.data() + compressed.size() - p);
  EXPECT_TRUE(lz->Decompress(inflated, &out).IsCorruption());
}

TEST(LzCompressorTest, BitFlipsNeverCrashOrOverread) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  std::string input;
  for (int i = 0; i < 64; i++) {
    input += "block " + std::to_string(i) + " payload payload ";
  }
  std::string compressed;
  ASSERT_TRUE(lz->Compress(input, &compressed));
  // Flip every bit position once.  The framing CRC normally rejects these
  // before the codec runs; here we require the codec itself to stay memory
  // safe: each decode either errors or produces *some* bounded output.
  for (size_t byte = 0; byte < compressed.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string mutated = compressed;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::string out;
      Status s = lz->Decompress(mutated, &out);
      if (s.ok()) {
        EXPECT_LE(out.size(), kMaxUncompressedBlockBytes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar codec.

TEST(ColumnarCompressorTest, RoundtripFixedRecordsShrinks) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  ASSERT_NE(col, nullptr);
  std::string input = BuildFixedRecordBlock(200);
  std::string compressed;
  ASSERT_TRUE(col->Compress(input, &compressed));
  // Values are 8-byte runs: RLE plus the uniform-value-length flag should
  // beat raw comfortably.
  EXPECT_LT(compressed.size(), input.size() / 2);
  std::string restored;
  ASSERT_TRUE(col->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST(ColumnarCompressorTest, RoundtripVariedValues) {
  ExpectRoundtrip(GetCompressor(CompressionType::kColumnar),
                  BuildVariedBlock(150));
}

TEST(ColumnarCompressorTest, RoundtripRestartVariants) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  for (int restart : {1, 2, 7, 16, 1000}) {
    SCOPED_TRACE("restart_interval " + std::to_string(restart));
    ExpectRoundtrip(col, BuildFixedRecordBlock(37, restart));
  }
  // Single entry, empty value.
  BlockBuilder one(16);
  one.Add(IKey("solo"), "");
  ExpectRoundtrip(col, one.Finish().ToString());
}

TEST(ColumnarCompressorTest, DeclinesNonBlockInput) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  std::string out;
  EXPECT_FALSE(col->Compress("", &out));
  EXPECT_FALSE(col->Compress("short", &out));
  Random rnd(99);
  std::string garbage;
  for (int i = 0; i < 512; i++) {
    garbage.push_back(static_cast<char>(rnd.Uniform(256)));
  }
  // Random bytes almost surely fail the entry-stream/restart validation;
  // the codec must decline rather than emit something undecodable.
  if (col->Compress(garbage, &out)) {
    std::string restored;
    ASSERT_TRUE(col->Decompress(out, &restored).ok());
    EXPECT_EQ(restored, garbage);
  }
}

TEST(ColumnarCompressorTest, TruncationIsCorruption) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  std::string compressed;
  ASSERT_TRUE(col->Compress(BuildFixedRecordBlock(60), &compressed));
  for (size_t keep = 0; keep < compressed.size(); keep++) {
    std::string out;
    Status s = col->Decompress(compressed.substr(0, keep), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << keep << " bytes decoded";
  }
}

TEST(ColumnarCompressorTest, BitFlipsNeverCrashOrOverread) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  std::string compressed;
  ASSERT_TRUE(col->Compress(BuildFixedRecordBlock(40), &compressed));
  for (size_t byte = 0; byte < compressed.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string mutated = compressed;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::string out;
      Status s = col->Decompress(mutated, &out);
      if (s.ok()) {
        EXPECT_LE(out.size(), kMaxUncompressedBlockBytes);
      }
    }
  }
}

TEST(ColumnarCompressorTest, OverDeclaredSizeIsCorruption) {
  const Compressor* col = GetCompressor(CompressionType::kColumnar);
  std::string bogus;
  PutVarint64(&bogus, kMaxUncompressedBlockBytes + 1);
  PutVarint32(&bogus, 1);
  PutVarint32(&bogus, 1);
  std::string out;
  EXPECT_TRUE(col->Decompress(bogus, &out).IsCorruption());
}

// ---------------------------------------------------------------------------
// Dispatch + naming.

TEST(CompressorTest, DispatchAndNames) {
  EXPECT_EQ(GetCompressor(CompressionType::kNone), nullptr);
  EXPECT_STREQ(GetCompressor(CompressionType::kLz)->name(), "lz");
  EXPECT_STREQ(GetCompressor(CompressionType::kColumnar)->name(), "columnar");

  std::string out;
  ASSERT_TRUE(DecompressBlock(CompressionType::kNone, "raw bytes", &out).ok());
  EXPECT_EQ(out, "raw bytes");

  CompressionType t;
  EXPECT_TRUE(ParseCompressionType("none", &t));
  EXPECT_EQ(t, CompressionType::kNone);
  EXPECT_TRUE(ParseCompressionType("raw", &t));
  EXPECT_EQ(t, CompressionType::kNone);
  EXPECT_TRUE(ParseCompressionType("columnar", &t));
  EXPECT_EQ(t, CompressionType::kColumnar);
  EXPECT_TRUE(ParseCompressionType("lz", &t));
  EXPECT_EQ(t, CompressionType::kLz);
  EXPECT_FALSE(ParseCompressionType("zstd", &t));
  EXPECT_STREQ(CompressionTypeName(CompressionType::kColumnar), "columnar");
}

// ---------------------------------------------------------------------------
// v2 block framing (format.h): the type tag rides inside the CRC, so every
// torn or flipped stored block is rejected before the codec ever runs.

class BlockFramingTest : public testing::Test {
 protected:
  // Writes one v2 block and returns its handle; the raw file bytes stay
  // accessible through env_ for mutation.
  BlockHandle WriteOne(const std::string& contents, CompressionType type,
                       const std::string& fname = "blk") {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(fname, &file).ok());
    BlockHandle handle;
    EXPECT_TRUE(
        WriteBlock(file.get(), 0, contents, kFormatVersion2, type, &handle)
            .ok());
    EXPECT_TRUE(file->Close().ok());
    return handle;
  }

  Status ReadOne(const BlockHandle& handle, std::string* contents,
                 CompressionType* type, const std::string& fname = "blk") {
    std::unique_ptr<RandomAccessFile> file;
    Status s = env_.NewRandomAccessFile(fname, &file);
    if (!s.ok()) return s;
    return ReadBlockContents(file.get(), handle, kFormatVersion2, contents,
                             type);
  }

  // Rewrites the file with one byte XORed.
  void FlipByte(size_t pos, const std::string& fname = "blk") {
    std::unique_ptr<RandomAccessFile> in;
    ASSERT_TRUE(env_.NewRandomAccessFile(fname, &in).ok());
    uint64_t size = 0;
    ASSERT_TRUE(env_.GetFileSize(fname, &size).ok());
    std::vector<char> scratch(size);
    Slice result;
    ASSERT_TRUE(in->Read(0, size, &result, scratch.data()).ok());
    std::string bytes(result.data(), result.size());
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(env_.NewWritableFile(fname, &out).ok());
    ASSERT_TRUE(out->Append(bytes).ok());
    ASSERT_TRUE(out->Close().ok());
  }

  MemEnv env_;
};

TEST_F(BlockFramingTest, CompressedBlockRoundtrip) {
  const Compressor* lz = GetCompressor(CompressionType::kLz);
  std::string block = BuildFixedRecordBlock(80);
  std::string stored;
  ASSERT_TRUE(lz->Compress(block, &stored));
  BlockHandle handle = WriteOne(stored, CompressionType::kLz);
  EXPECT_EQ(handle.size(), stored.size());  // handle sizes the stored payload

  std::string payload;
  CompressionType type = CompressionType::kNone;
  ASSERT_TRUE(ReadOne(handle, &payload, &type).ok());
  EXPECT_EQ(type, CompressionType::kLz);
  std::string restored;
  ASSERT_TRUE(DecompressBlock(type, payload, &restored).ok());
  EXPECT_EQ(restored, block);
}

TEST_F(BlockFramingTest, TruncatedFileIsCorruption) {
  std::string stored;
  ASSERT_TRUE(GetCompressor(CompressionType::kLz)
                  ->Compress(BuildFixedRecordBlock(30), &stored));
  BlockHandle handle = WriteOne(stored, CompressionType::kLz);
  // Chop the CRC (and more) off the end.
  for (uint64_t keep : {handle.size() + 4, handle.size(), handle.size() / 2,
                        uint64_t{0}}) {
    ASSERT_TRUE(env_.Truncate("blk", keep).ok());
    std::string payload;
    CompressionType type;
    Status s = ReadOne(handle, &payload, &type);
    EXPECT_FALSE(s.ok()) << "readable at " << keep << " bytes";
  }
}

TEST_F(BlockFramingTest, BitFlipAnywhereIsCaughtByCrc) {
  std::string columnar;
  ASSERT_TRUE(GetCompressor(CompressionType::kColumnar)
                  ->Compress(BuildFixedRecordBlock(30), &columnar));
  // A full uncompressed data block runs the checksum's long-buffer loop.
  const std::string full = BuildFixedRecordBlock(45);
  ASSERT_GE(full.size(), 4096u);
  const std::pair<std::string, CompressionType> inputs[] = {
      {columnar, CompressionType::kColumnar}, {full, CompressionType::kNone}};
  for (const auto& [stored, type] : inputs) {
    BlockHandle handle = WriteOne(stored, type);
    const uint64_t file_size =
        handle.size() + BlockTrailerSize(kFormatVersion2);
    // Payload bytes, the type tag, and the CRC itself: a flip in any of them
    // must surface as Corruption.
    for (uint64_t pos = 0; pos < file_size; pos++) {
      WriteOne(stored, type);  // fresh copy
      FlipByte(pos);
      std::string payload;
      CompressionType read_type;
      Status s = ReadOne(handle, &payload, &read_type);
      EXPECT_TRUE(s.IsCorruption())
          << "size " << stored.size() << " flip at " << pos << ": "
          << s.ToString();
    }
  }
}

TEST_F(BlockFramingTest, OverDeclaredHandleNeverOverreads) {
  std::string stored;
  ASSERT_TRUE(GetCompressor(CompressionType::kLz)
                  ->Compress(BuildFixedRecordBlock(30), &stored));
  BlockHandle handle = WriteOne(stored, CompressionType::kLz);
  // A handle claiming more bytes than the file holds must error out.
  BlockHandle inflated(handle.offset(), handle.size() + 1000);
  std::string payload;
  CompressionType type;
  EXPECT_FALSE(ReadOne(inflated, &payload, &type).ok());
}

TEST_F(BlockFramingTest, UnknownTypeTagIsCorruption) {
  // Hand-build a frame with tag 7 and a *valid* CRC: the tag range check
  // itself must reject it.
  std::string contents = "hello block";
  std::string frame = contents;
  const char bad_tag = 7;
  frame.push_back(bad_tag);
  uint32_t crc = crc32c::Value(contents.data(), contents.size());
  crc = crc32c::Extend(crc, &bad_tag, 1);
  PutFixed32(&frame, crc32c::Mask(crc));
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env_.NewWritableFile("blk", &out).ok());
  ASSERT_TRUE(out->Append(frame).ok());
  ASSERT_TRUE(out->Close().ok());

  std::string payload;
  CompressionType type;
  Status s = ReadOne(BlockHandle(0, contents.size()), &payload, &type);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(BlockFramingTest, V1RejectsCompressedBlocks) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("v1blk", &file).ok());
  BlockHandle handle;
  Status s = WriteBlock(file.get(), 0, "payload", kFormatVersion1,
                        CompressionType::kLz, &handle);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace iamdb
