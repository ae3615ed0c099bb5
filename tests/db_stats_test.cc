// DbStats aggregation (operator+=) and the INFO wire codec.
//
// Byte-literal fixtures pin the encoding.  The other tests walk the field
// table (core/db_stats_fields.h) but take what they expect from their own
// lists — tag ranges, aggregation by field name — so a wrong table row
// fails here instead of being checked against itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/db.h"
#include "server/wire_protocol.h"
#include "util/coding.h"

namespace iamdb {
namespace {

// Every field nonzero and distinct, so a dropped field shows up as a
// mismatch instead of a lucky 0 == 0.  Built per omit-when-zero group, so
// the byte-literal fixtures below can set each group alone.
DbStats CoreOnly(uint64_t base) {
  DbStats s;
  s.total_write_amp = 2.0 + base;
  s.level_write_amp = {1.5 + base, 2.5 + base};
  s.level_bytes = {1000 + base, 2000 + base};
  s.level_node_counts = {static_cast<int>(3 + base),
                         static_cast<int>(5 + base)};
  s.user_bytes = 10000 + base;
  s.space_used_bytes = 20000 + base;
  s.cache_usage = 300 + base;
  s.cache_hits = 40 + base;
  s.cache_misses = 50 + base;
  s.mixed_level = static_cast<int>(2 + base % 3);
  s.mixed_level_k = static_cast<int>(1 + base % 4);
  s.pending_debt_bytes = 600 + base;
  s.stall_micros = 700 + base;
  s.io.bytes_written = 800 + base;
  s.io.bytes_read = 900 + base;
  s.io.write_ops = 11 + base;
  s.io.read_ops = 12 + base;
  s.io.fsyncs = 13 + base;
  s.flush_queue_depth = 14 + base;
  s.compact_queue_depth = 15 + base;
  s.subcompactions_run = 16 + base;
  s.rate_limiter_wait_micros = 17 + base;
  return s;
}

void SetServer(DbStats* s, uint64_t base) {  // tags 23-28
  s->server_loop_iterations = 18 + base;
  s->server_writev_calls = 19 + base;
  s->server_responses_written = 21 + base;
  s->server_output_buffer_hwm = 22 + base;
  s->server_backpressure_stalls = 23 + base;
  s->server_accept_errors = 24 + base;
}

void SetPacer(DbStats* s, uint64_t base) {  // tags 29-32
  s->pacer_rate_bytes_per_sec = 25 + base;
  s->pacer_ingest_bytes_per_sec = 26 + base;
  s->pacer_retunes = 27 + base;
  s->rate_limiter_paced_wall_micros = 28 + base;
}

void SetCompression(DbStats* s, uint64_t base) {  // tags 33-42
  s->compress_input_bytes = 29 + base;
  s->compress_stored_bytes = 31 + base;
  s->compress_columnar_blocks = 32 + base;
  s->compress_lz_blocks = 33 + base;
  s->compress_raw_fallback_blocks = 34 + base;
  s->decompressed_blocks = 35 + base;
  s->decompress_micros = 36 + base;
  s->compressed_cache_usage = 37 + base;
  s->compressed_cache_hits = 38 + base;
  s->compressed_cache_misses = 39 + base;
}

void SetArbiter(DbStats* s, uint64_t base) {  // tags 43-48
  s->arbiter_budget_bytes = 41 + base;
  s->arbiter_write_bytes = 42 + base;
  s->arbiter_read_bytes = 43 + base;
  s->arbiter_retunes = 44 + base;
  s->arbiter_shifts = 45 + base;
  s->mixed_level_retunes = 46 + base;
}

void SetMultiGet(DbStats* s, uint64_t base) {  // tags 49-52
  s->multiget_batches = 47 + base;
  s->multiget_keys = 48 + base;
  s->multiget_coalesced_reads = 49 + base;
  s->multiget_coalesced_blocks = 51 + base;
}

DbStats MakeStats(uint64_t base) {
  DbStats s = CoreOnly(base);
  SetServer(&s, base);
  SetPacer(&s, base);
  SetCompression(&s, base);
  SetArbiter(&s, base);
  SetMultiGet(&s, base);
  return s;
}

void ExpectSameStats(const DbStats& out, const DbStats& in) {
  ForEachDbStatsField(
      [](const DbStatsField& f, const auto& o, const auto& i) {
        EXPECT_EQ(o, i) << f.name;
      },
      out, in);
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

// Walks the tag/len/bytes stream of an encoded DbStats.
std::map<uint32_t, std::string> TagsOf(const std::string& encoded) {
  std::map<uint32_t, std::string> tags;
  Slice in(encoded);
  while (!in.empty()) {
    uint32_t tag = 0, len = 0;
    EXPECT_TRUE(GetVarint32(&in, &tag));
    EXPECT_TRUE(GetVarint32(&in, &len));
    EXPECT_LE(len, in.size());
    tags[tag] = std::string(in.data(), len);
    in.remove_prefix(len);
  }
  return tags;
}

TEST(DbStatsCodecTest, EveryTagEmittedAndNoStrays) {
  std::string encoded;
  wire::EncodeDbStats(MakeStats(1), &encoded);
  std::map<uint32_t, std::string> tags = TagsOf(encoded);
  for (uint32_t tag = 1; tag <= wire::kMaxDbStatsTag; tag++) {
    EXPECT_EQ(tags.count(tag), 1u) << "tag " << tag << " not emitted";
  }
  for (const auto& [tag, bytes] : tags) {
    EXPECT_GE(tag, 1u);
    EXPECT_LE(tag, wire::kMaxDbStatsTag) << "unknown tag " << tag;
  }
}

TEST(DbStatsCodecTest, Roundtrip) {
  DbStats in = MakeStats(7);
  std::string encoded;
  wire::EncodeDbStats(in, &encoded);
  DbStats out;
  ASSERT_TRUE(wire::DecodeDbStats(encoded, &out));

  ExpectSameStats(out, in);
}

// --- Byte-literal fixtures ------------------------------------------------
// EncodeDbStats output captured from the hand-written codec that preceded
// the field table (core/db_stats_fields.h).  Any change to a tag number,
// an encoding, the emission order (tags 1-22, the pacer group 29-32, the
// server group 23-28, then 33-52) or an omit-when-zero group breaks these.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

std::string Unhex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// DbStats(): an embedded snapshot before any traffic.  Every optional group
// is omitted; tags 10-13 are emitted even though their vectors are empty.
const char kZeroHex[] =
    "0101000201000301000401000501000601000701000801000901000a08000000000000"
    "00000b000c000d000e01000f0100100100110100120100130100140100150100160100";
// CoreOnly(1): tags 1-22 with every optional group zero.
const char kCoreHex[] =
    "0102914e0203a19c010302ad020401290501330602bd050702d9040801030901020a08"
    "00000000000008400b04e907d10f0c0204060d1000000000000004400000000000000c"
    "400e02a1060f02850710010c11010d12010e13010f140110150111160112";
// Each group's bytes, emitted right after kCoreHex when that group alone is
// set on top of CoreOnly(1).
const char kPacerHex[] = "1d011a1e011b1f011c20011d";
const char kServerHex[] = "1701131801141901161a01171b01181c0119";
const char kCompressionHex[] =
    "21011e2201202301212401222501232601242701252801262901272a0128";
const char kArbiterHex[] = "2b012a2c012b2d012c2e012d2f012e30012f";
const char kMultiGetHex[] = "310130320131330132340134";

TEST(DbStatsCodecTest, EncodingMatchesByteLiterals) {
  struct Case {
    std::string name;
    DbStats stats;
    std::string hex;
  };
  std::vector<Case> cases = {{"zero", DbStats(), kZeroHex},
                             {"core", CoreOnly(1), kCoreHex}};
  const struct {
    const char* name;
    void (*set)(DbStats*, uint64_t);
    const char* hex;
  } groups[] = {{"pacer", SetPacer, kPacerHex},
                {"server", SetServer, kServerHex},
                {"compression", SetCompression, kCompressionHex},
                {"arbiter", SetArbiter, kArbiterHex},
                {"multiget", SetMultiGet, kMultiGetHex}};
  for (const auto& g : groups) {
    DbStats s = CoreOnly(1);
    g.set(&s, 1);
    cases.push_back({g.name, s, std::string(kCoreHex) + g.hex});
  }
  // Every group set: the groups follow the core in emission order.
  cases.push_back({"all", MakeStats(1),
                   std::string(kCoreHex) + kPacerHex + kServerHex +
                       kCompressionHex + kArbiterHex + kMultiGetHex});
  EXPECT_EQ(Unhex(kZeroHex).size(), 70u);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string encoded;
    wire::EncodeDbStats(c.stats, &encoded);
    EXPECT_EQ(Hex(encoded), c.hex);
    DbStats decoded;
    ASSERT_TRUE(wire::DecodeDbStats(Unhex(c.hex), &decoded));
    ExpectSameStats(decoded, c.stats);
  }
}

// A scalar field must hold exactly its value: `tag 1, len 3, 05 ff ff` is
// corrupt, not user_bytes = 5.
TEST(DbStatsCodecTest, RejectsTrailingBytesInScalarField) {
  DbStats s;
  ASSERT_TRUE(wire::DecodeDbStats(Unhex("010105"), &s));
  EXPECT_EQ(s.user_bytes, 5u);
  EXPECT_FALSE(wire::DecodeDbStats(Unhex("010305ffff"), &s));
  EXPECT_FALSE(wire::DecodeDbStats(Unhex("08020300"), &s));    // int field
  EXPECT_FALSE(wire::DecodeDbStats(Unhex("0a09" + std::string(18, '0')),
                                   &s));                        // double
  EXPECT_FALSE(wire::DecodeDbStats(Unhex("0b0201ff"), &s));    // vector
}

// Every prefix and every single-bit flip of the all-groups fixture, each in
// its own exact-size heap buffer so the sanitizer jobs catch an over-read.
// A prefix that ends between fields is a shorter valid snapshot; one that
// cuts a field must fail.
TEST(DbStatsCodecTest, TruncatedOrFlippedInputIsSafe) {
  const std::string all =
      Unhex(std::string(kCoreHex) + kPacerHex + kServerHex + kCompressionHex +
            kArbiterHex + kMultiGetHex);
  std::set<size_t> boundaries = {0};
  Slice walk(all);
  while (!walk.empty()) {
    uint32_t tag = 0, len = 0;
    ASSERT_TRUE(GetVarint32(&walk, &tag) && GetVarint32(&walk, &len));
    walk.remove_prefix(len);
    boundaries.insert(all.size() - walk.size());
  }
  auto decode = [](const std::string& bytes, size_t n) {
    std::unique_ptr<char[]> buf(new char[n]);
    std::copy(bytes.data(), bytes.data() + n, buf.get());
    DbStats out;
    return wire::DecodeDbStats(Slice(buf.get(), n), &out);
  };
  for (size_t n = 0; n < all.size(); n++) {
    EXPECT_EQ(decode(all, n), boundaries.count(n) == 1) << "prefix " << n;
  }
  for (size_t bit = 0; bit < all.size() * 8; bit++) {
    std::string flipped = all;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    decode(flipped, flipped.size());  // either result; it must not crash
  }
}

// The five omit-when-zero groups, by tag range.  With every group zero no
// optional tag is emitted, and each single nonzero member pulls in its own
// group whole and nothing else.
TEST(DbStatsCodecTest, OptionalGroupsOmittedWhenZero) {
  const std::pair<uint32_t, uint32_t> groups[] = {
      {29, 32}, {23, 28}, {33, 42}, {43, 48}, {49, 52}};  // pacer .. multiget
  auto group_of = [&](uint32_t tag) {
    for (const auto& [lo, hi] : groups) {
      if (tag >= lo && tag <= hi) return static_cast<int>(lo);
    }
    return 0;
  };
  auto encode = [](const DbStats& s) {
    std::string encoded;
    wire::EncodeDbStats(s, &encoded);
    return TagsOf(encoded);
  };
  for (const auto& [tag, bytes] : encode(CoreOnly(1))) {
    EXPECT_EQ(group_of(tag), 0) << "optional tag " << tag << " emitted";
  }
  for (uint32_t set = 23; set <= 52; set++) {
    DbStats s = CoreOnly(1);
    ForEachDbStatsField(
        [&](const DbStatsField& f, auto& v) {
          if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
            if (f.tag == set) v = 1;
          }
        },
        s);
    const std::map<uint32_t, std::string> tags = encode(s);
    for (uint32_t tag = 23; tag <= 52; tag++) {
      EXPECT_EQ(tags.count(tag), group_of(tag) == group_of(set) ? 1u : 0u)
          << "tag " << tag << " with only tag " << set << " nonzero";
    }
  }
}

// Expected combination of two amp ratios, weighted by user bytes.
double WeightedAmp(double a_amp, uint64_t a_user, double b_amp,
                   uint64_t b_user) {
  return (a_amp * static_cast<double>(a_user) +
          b_amp * static_cast<double>(b_user)) /
         static_cast<double>(a_user + b_user);
}

// Aggregation by field name: the structural mixed level (m, k) and the
// output-buffer high-water mark take the max, both write amps are weighted
// by user_bytes, and every other field sums — vectors pad to the longer
// side first.
TEST(DbStatsAggregationTest, EveryFieldAggregates) {
  const std::set<std::string> max_fields = {"mixed_level", "mixed_level_k",
                                            "server_output_buffer_hwm"};
  const std::set<std::string> amp_fields = {"total_write_amp",
                                            "level_write_amp"};
  // Different vector lengths on purpose: the pad-and-add path must not
  // drop rhs's extra levels.
  DbStats a = MakeStats(1);
  DbStats b = MakeStats(100);
  b.level_bytes.push_back(4242);
  b.level_node_counts.push_back(17);
  b.level_write_amp.push_back(3.25);

  DbStats sum = a;
  sum += b;

  ForEachDbStatsField(
      [&](const DbStatsField& f, const auto& got, const auto& x,
          const auto& y) {
        SCOPED_TRACE(f.name);
        auto expect = [&](auto got_v, auto x_v, auto y_v) {
          if (max_fields.count(f.name)) {
            EXPECT_EQ(got_v, std::max(x_v, y_v));
          } else if (amp_fields.count(f.name)) {
            EXPECT_NEAR(got_v, WeightedAmp(x_v, a.user_bytes, y_v,
                                           b.user_bytes), 1e-9);
          } else {
            EXPECT_EQ(got_v, x_v + y_v);
          }
        };
        using T = std::decay_t<decltype(got)>;
        if constexpr (kIsVector<T>) {
          using E = typename T::value_type;
          ASSERT_EQ(got.size(), std::max(x.size(), y.size()));
          for (size_t i = 0; i < got.size(); i++) {
            expect(got[i], i < x.size() ? x[i] : E{},
                   i < y.size() ? y[i] : E{});
          }
        } else {
          expect(got, x, y);
        }
      },
      sum, a, b);
}

TEST(DbStatsAggregationTest, WeightedAmpMatchesGroundTruth) {
  // Two instances with known written/user byte totals: combining their
  // ratios must equal the ratio of the combined totals.
  DbStats a;
  a.user_bytes = 1000;
  a.total_write_amp = 3.0;  // 3000 bytes written
  DbStats b;
  b.user_bytes = 3000;
  b.total_write_amp = 1.0;  // 3000 bytes written
  a += b;
  EXPECT_NEAR(a.total_write_amp, 6000.0 / 4000.0, 1e-9);
}

TEST(DbStatsAggregationTest, SelfAddDoublesCountersKeepsRatios) {
  DbStats s = MakeStats(9);
  const DbStats orig = s;
  s += s;
  EXPECT_EQ(s.user_bytes, 2 * orig.user_bytes);
  EXPECT_EQ(s.io.fsyncs, 2 * orig.io.fsyncs);
  EXPECT_EQ(s.mixed_level, orig.mixed_level);
  // Same traffic twice has the same amp.
  EXPECT_NEAR(s.total_write_amp, orig.total_write_amp, 1e-9);
}

TEST(DbStatsAggregationTest, AddToZeroIsIdentity) {
  DbStats zero;
  DbStats s = MakeStats(4);
  zero += s;
  EXPECT_EQ(zero.user_bytes, s.user_bytes);
  EXPECT_NEAR(zero.total_write_amp, s.total_write_amp, 1e-9);
  EXPECT_EQ(zero.level_bytes, s.level_bytes);
  EXPECT_EQ(zero.server_output_buffer_hwm, s.server_output_buffer_hwm);
}


}  // namespace
}  // namespace iamdb
