// Component microbenchmarks (google-benchmark): the building blocks whose
// speed underlies every end-to-end number — crc, coding, bloom, blocks,
// skiplist, cache, WAL framing, MSTable build, append and compaction read.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include <algorithm>

#include "core/compaction_stream.h"
#include "core/db.h"
#include "core/dbformat.h"
#include "env/buffered_writable_file.h"
#include "env/counting_env.h"
#include "env/mem_env.h"
#include "memtable/memtable.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/mstable.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "table_get.h"
#include "util/random.h"
#include "wal/log_writer.h"

namespace iamdb {
namespace {

// Sizes: a small record, one WAL record of a 1 KB put, a 4 KB block, one
// block plus its v2 trailer, and a long buffer.
void Crc32cArgs(benchmark::internal::Benchmark* b) {
  for (int n : {64, 1044, 4096, 4101, 65536}) b->Arg(n);
}

template <uint32_t (*kExtend)(uint32_t, const char*, size_t)>
void RunCrc32c(benchmark::State& state) {
  Random rnd(static_cast<uint32_t>(state.range(0)));
  std::string data(state.range(0), '\0');
  for (char& c : data) c = static_cast<char>(rnd.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kExtend(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}

// The kernel crc32c::Extend picked for this CPU.
void BM_Crc32c(benchmark::State& state) { RunCrc32c<crc32c::Extend>(state); }
BENCHMARK(BM_Crc32c)->Apply(Crc32cArgs);

// The table-driven fallback, for the kernel's ratio.
void BM_Crc32cPortable(benchmark::State& state) {
  RunCrc32c<crc32c::internal::ExtendPortable>(state);
}
BENCHMARK(BM_Crc32cPortable)->Apply(Crc32cArgs);

void BM_VarintEncodeDecode(benchmark::State& state) {
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    for (uint64_t v = 1; v < (1ull << 40); v <<= 3) PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t out;
    while (GetVarint64(&input, &out)) benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_BloomCreate(benchmark::State& state) {
  const int n = state.range(0);
  std::vector<std::string> storage;
  storage.reserve(n);
  for (int i = 0; i < n; i++) storage.push_back("key" + std::to_string(i));
  std::vector<Slice> keys(storage.begin(), storage.end());
  BloomFilterPolicy policy(14);
  for (auto _ : state) {
    std::string filter;
    policy.CreateFilter(keys, &filter);
    benchmark::DoNotOptimize(filter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BloomCreate)->Arg(1000)->Arg(100000);

void BM_BloomQuery(benchmark::State& state) {
  const int n = 100000;
  std::vector<std::string> storage;
  for (int i = 0; i < n; i++) storage.push_back("key" + std::to_string(i));
  std::vector<Slice> keys(storage.begin(), storage.end());
  BloomFilterPolicy policy(14);
  std::string filter;
  policy.CreateFilter(keys, &filter);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.KeyMayMatch(storage[i % n], filter));
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

std::string MakeIKey(int i, SequenceNumber seq = 1) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%08d", i);
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(buf, seq, kTypeValue));
  return r;
}

void BM_BlockBuild(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 128; i++) entries.emplace_back(MakeIKey(i), "value");
  for (auto _ : state) {
    BlockBuilder builder(16);
    for (const auto& [k, v] : entries) builder.Add(k, v);
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() * entries.size());
}
BENCHMARK(BM_BlockBuild);

void BM_BlockSeek(benchmark::State& state) {
  BlockBuilder builder(16);
  for (int i = 0; i < 128; i++) builder.Add(MakeIKey(i), "value");
  Block block(builder.Finish().ToString());
  InternalKeyComparator cmp;
  Random rnd(1);
  for (auto _ : state) {
    std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));
    iter->Seek(MakeIKey(rnd.Uniform(128), kMaxSequenceNumber));
    benchmark::DoNotOptimize(iter->Valid());
  }
}
BENCHMARK(BM_BlockSeek);

void BM_MemTableAdd(benchmark::State& state) {
  MemTable* mem = new MemTable();
  mem->Ref();
  SequenceNumber seq = 1;
  int i = 0;
  std::string value(state.range(0), 'v');
  for (auto _ : state) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%010d", i++);
    mem->Add(seq++, kTypeValue, buf, value);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable();
      mem->Ref();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  mem->Unref();
}
BENCHMARK(BM_MemTableAdd)->Arg(100)->Arg(1024);

void BM_MemTableGet(benchmark::State& state) {
  MemTable* mem = new MemTable();
  mem->Ref();
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%010d", i);
    mem->Add(i + 1, kTypeValue, buf, "value");
  }
  Random rnd(7);
  for (auto _ : state) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%010d", rnd.Uniform(n));
    LookupKey lk(buf, kMaxSequenceNumber);
    std::string value;
    Status s;
    benchmark::DoNotOptimize(mem->Get(lk, &value, &s));
  }
  state.SetItemsProcessed(state.iterations());
  mem->Unref();
}
BENCHMARK(BM_MemTableGet);

void BM_CacheLookup(benchmark::State& state) {
  LruCache cache(64 << 20);
  const int n = 10000;
  for (int i = 0; i < n; i++) {
    cache.Insert(BlockCacheKey{static_cast<uint64_t>(i), 4096},
                 std::make_shared<const int>(i), 4096);
  }
  Random rnd(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup(BlockCacheKey{rnd.Uniform(n), 4096}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void BM_WalAppend(benchmark::State& state) {
  // One WAL record per iteration, through the write buffer the engine puts
  // over its WAL.  device_writes_per_op counts the writes CountingEnv sees.
  MemEnv env;
  IoStats stats;
  CountingEnv counting_env(&env, &stats);
  std::unique_ptr<WritableFile> file;
  counting_env.NewWritableFile("/log", &file);
  BufferedWritableFile buffered(std::move(file));
  log::Writer writer(&buffered);
  std::string record(state.range(0), 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.AddRecord(record));
  }
  state.SetBytesProcessed(state.iterations() * record.size());
  state.counters["device_writes_per_op"] = benchmark::Counter(
      static_cast<double>(stats.Snapshot().write_ops) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_WalAppend)->Arg(128)->Arg(4096);

// Device reads from the end of `result`'s Finish through one lookup, in the
// finished node, of a key its bloom filter rules out: the reads it takes
// to open a node just written.
double DeviceReadsToOpen(const IoStats& stats, const IoStatsSnapshot& finished,
                         const MSTableBuildResult& result) {
  std::string value;
  MultiGetRequest::State lookup;
  TableGet(*result.reader, "absent", kMaxSequenceNumber, &value, &lookup);
  return static_cast<double>(stats.Snapshot().read_ops - finished.read_ops);
}

void BM_MSTableBuild(benchmark::State& state) {
  // device_writes_per_op: writes CountingEnv sees per node built;
  // device_reads_to_open: see DeviceReadsToOpen.
  const int n = state.range(0);
  MemEnv mem;
  IoStats stats;
  CountingEnv env(&mem, &stats);
  TableOptions options;
  InternalKeyComparator cmp;
  std::string value(256, 'v');
  int file_number = 0;
  MSTableBuildResult result;
  for (auto _ : state) {
    MSTableWriter writer(&env, options, &cmp,
                         "/t" + std::to_string(file_number), file_number);
    file_number++;
    writer.Open();
    for (int i = 0; i < n; i++) {
      writer.Add(MakeIKey(i), value);
    }
    writer.Finish(false, &result);
    benchmark::DoNotOptimize(result.meta_end);
  }
  state.SetItemsProcessed(state.iterations() * n);
  const IoStatsSnapshot finished = stats.Snapshot();
  state.counters["device_writes_per_op"] = benchmark::Counter(
      static_cast<double>(finished.write_ops) /
      static_cast<double>(state.iterations()));
  state.counters["device_reads_to_open"] =
      DeviceReadsToOpen(stats, finished, result);
}
BENCHMARK(BM_MSTableBuild)->Arg(1000)->Arg(10000);

void BM_MSTableGet(benchmark::State& state) {
  MemEnv env;
  LruCache cache(64 << 20);
  TableOptions options;
  options.block_cache = &cache;
  const int n = 20000;
  InternalKeyComparator cmp;
  MSTableWriter writer(&env, options, &cmp, "/t", 1);
  writer.Open();
  std::string value(256, 'v');
  for (int i = 0; i < n; i++) writer.Add(MakeIKey(i), value);
  MSTableBuildResult result;
  writer.Finish(false, &result);

  std::shared_ptr<MSTableReader> reader;
  MSTableReader::Open(&env, options, &cmp, "/t", 1, result.meta_end, &reader);
  Random rnd(5);
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", static_cast<int>(rnd.Uniform(n)));
    std::string v;
    MultiGetRequest::State gs;
    TableGet(*reader, key, kMaxSequenceNumber, &v, &gs);
    benchmark::DoNotOptimize(gs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MSTableGet);

void BM_MSTableAppendSequence(benchmark::State& state) {
  // Cost of one append compaction into an existing node, including the
  // clustered-metadata rewrite (the paper's append write path).
  // device_reads_to_open: see DeviceReadsToOpen.
  MemEnv mem;
  IoStats stats;
  CountingEnv env(&mem, &stats);
  TableOptions options;
  InternalKeyComparator cmp;
  std::string value(256, 'v');
  MSTableBuildResult result;
  for (auto _ : state) {
    state.PauseTiming();
    env.RemoveFile("/t");
    MSTableWriter writer(&env, options, &cmp, "/t", 1);
    writer.Open();
    for (int i = 0; i < 4000; i += 2) writer.Add(MakeIKey(i), value);
    MSTableBuildResult base;
    writer.Finish(false, &base);
    state.ResumeTiming();

    MSTableWriter appender(&env, options, &cmp, "/t", 1, base.reader.get());
    appender.Open();
    for (int i = 1; i < 4000; i += 8) {
      appender.Add(MakeIKey(i, 2), value);
    }
    appender.Finish(false, &result);
    benchmark::DoNotOptimize(result.reader);
  }
  state.SetItemsProcessed(state.iterations() * 500);
  state.counters["device_reads_to_open"] =
      DeviceReadsToOpen(stats, stats.Snapshot(), result);
}
BENCHMARK(BM_MSTableAppendSequence);

// Builds "/node" on `env`: a 1 MB node of kNodeSequences appended
// sequences with interleaved keys (record i of sequence s is key
// i * kNodeSequences + s).  Returns the build result of the last append.
constexpr int kNodeSequences = 4;
constexpr int kNodePerSequence = 900;  // ~256 KB of records each
MSTableBuildResult BuildInterleavedNode(Env* env, const TableOptions& options,
                                        const InternalKeyComparator* cmp) {
  const std::string value(256, 'v');
  MSTableBuildResult result;
  for (int seq = 0; seq < kNodeSequences; seq++) {
    MSTableWriter writer(env, options, cmp, "/node", 1, result.reader.get());
    writer.Open();
    for (int i = 0; i < kNodePerSequence; i++) {
      writer.Add(MakeIKey(i * kNodeSequences + seq, 1 + seq), value);
    }
    writer.Finish(false, &result);
  }
  return result;
}

void BM_CompactionReadNode(benchmark::State& state) {
  // A compaction's input read: one read of a 1 MB node of four appended
  // sequences with interleaved keys (MSTableReader::ReadNode), then the
  // merged scan of its image.  bytes/s counts the node's data bytes;
  // reads_per_node the device reads per node, 1.
  MemEnv env;
  IoStats stats;
  CountingEnv counting_env(&env, &stats);
  TableOptions options;
  InternalKeyComparator cmp;
  const MSTableBuildResult result = BuildInterleavedNode(&env, options, &cmp);
  std::shared_ptr<MSTableReader> reader;
  MSTableReader::Open(&counting_env, options, &cmp, "/node", 2,
                      result.meta_end, &reader);
  const uint64_t reads_before = stats.Snapshot().read_ops;
  for (auto _ : state) {
    std::shared_ptr<const NodeData> image;
    reader->ReadNode(&image);
    std::unique_ptr<Iterator> iter(reader->NewIterator(image));
    uint64_t n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(state.iterations() *
                          result.reader->total_data_bytes());
  state.counters["reads_per_node"] = benchmark::Counter(
      static_cast<double>(stats.Snapshot().read_ops - reads_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CompactionReadNode);

void BM_CachedScanNode(benchmark::State& state) {
  // A YCSB-E style foreground scan: 100 records from a pseudo-random start
  // key, through the block cache (64 KB, so most blocks miss), over the
  // same 1 MB four-sequence node.  reads_per_scan and kb_per_scan count
  // device reads and the bytes they move.
  MemEnv env;
  IoStats stats;
  CountingEnv counting_env(&env, &stats);
  TableOptions options;
  InternalKeyComparator cmp;
  const MSTableBuildResult result = BuildInterleavedNode(&env, options, &cmp);
  LruCache cache(64 << 10);
  options.block_cache = &cache;
  std::shared_ptr<MSTableReader> reader;
  MSTableReader::Open(&counting_env, options, &cmp, "/node", 2,
                      result.meta_end, &reader);
  const int keys = kNodeSequences * kNodePerSequence;
  Random64 rnd(301);
  const IoStatsSnapshot before = stats.Snapshot();
  for (auto _ : state) {
    std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
    int n = 0;
    for (iter->Seek(MakeIKey(static_cast<int>(rnd.Next() % keys),
                             kMaxSequenceNumber));
         n < 100 && iter->Valid(); iter->Next()) {
      n++;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
  const IoStatsSnapshot io = stats.Snapshot() - before;
  const double scans = static_cast<double>(state.iterations());
  state.counters["reads_per_scan"] =
      benchmark::Counter(static_cast<double>(io.read_ops) / scans);
  state.counters["kb_per_scan"] =
      benchmark::Counter(static_cast<double>(io.bytes_read) / 1024 / scans);
}
BENCHMARK(BM_CachedScanNode);

void BM_CompactionStream(benchmark::State& state) {
  // Visibility-filter throughput over a duplicate-heavy stream; the
  // argument is the value size.  bytes/s counts every input key and value.
  const std::string value(state.range(0), 'v');
  std::vector<std::pair<std::string, std::string>> data;
  uint64_t input_bytes = 0;
  for (int i = 0; i < 20000; i++) {
    data.emplace_back(MakeIKey(i % 2000, 1 + i / 2000), value);
    input_bytes += data.back().first.size() + value.size();
  }
  std::sort(data.begin(), data.end(),
            [cmp = InternalKeyComparator()](const auto& a, const auto& b) {
              return cmp.Compare(Slice(a.first), Slice(b.first)) < 0;
            });
  for (auto _ : state) {
    // A local iterator over the vector (mirrors compaction input shape).
    class VecIter final : public Iterator {
     public:
      explicit VecIter(const std::vector<std::pair<std::string, std::string>>* d)
          : d_(d), i_(d->size()) {}
      bool Valid() const override { return i_ < d_->size(); }
      void SeekToFirst() override { i_ = 0; }
      void SeekToLast() override { i_ = d_->empty() ? 0 : d_->size() - 1; }
      void Seek(const Slice&) override { i_ = 0; }
      void Next() override { i_++; }
      void Prev() override { i_--; }
      Slice key() const override { return Slice((*d_)[i_].first); }
      Slice value() const override { return Slice((*d_)[i_].second); }
      Status status() const override { return Status::OK(); }

     private:
      const std::vector<std::pair<std::string, std::string>>* d_;
      size_t i_;
    };
    CompactionStream stream(new VecIter(&data), kMaxSequenceNumber, true);
    uint64_t kept = 0;
    while (stream.Valid()) {
      benchmark::DoNotOptimize(stream.value().data());
      kept++;
      stream.Next();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.SetBytesProcessed(state.iterations() * input_bytes);
}
BENCHMARK(BM_CompactionStream)->Arg(5)->Arg(1024);

void BM_DbPut(benchmark::State& state) {
  // End-to-end write-path cost (WAL + memtable via group commit) per
  // engine, without ever filling the memtable.
  MemEnv env;
  Options options;
  options.env = &env;
  options.engine =
      state.range(0) == 0 ? EngineType::kLeveled : EngineType::kAmt;
  options.node_capacity = 256 << 20;  // never flush
  std::unique_ptr<DB> db;
  DB::Open(options, "/bmdb", &db);
  std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%012llu",
             static_cast<unsigned long long>(i++));
    db->Put(WriteOptions(), key, value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbPut)->Arg(0)->Arg(1);

}  // namespace
}  // namespace iamdb
