#include "workload/harness.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stats/io_stats.h"
#include "table/compressor.h"

namespace iamdb::bench {

const char* SystemName(SystemId id) {
  switch (id) {
    case SystemId::kL: return "L";
    case SystemId::kR1: return "R-1t";
    case SystemId::kR4: return "R-4t";
    case SystemId::kA1: return "A-1t";
    case SystemId::kA4: return "A-4t";
    case SystemId::kI1: return "I-1t";
    case SystemId::kI4: return "I-4t";
  }
  return "?";
}

ScaleConfig ScaleConfig::Gb100() {
  ScaleConfig c;
  c.num_records = 128 * 1024;        // ~128MB of user data
  c.node_capacity = 1 << 20;         // Ct = 1MB
  c.cache_bytes = 20 << 20;          // 16GB/100GB ratio
  return c;
}

ScaleConfig ScaleConfig::Tb1() {
  ScaleConfig c;
  c.num_records = 448 * 1024;        // ~460MB of user data
  c.node_capacity = 1 << 20;
  c.cache_bytes = 28 << 20;          // 64GB/1TB ratio
  return c;
}

ScaleConfig ScaleConfig::Smoke() {
  ScaleConfig c;
  c.num_records = 12 * 1024;
  c.value_size = 512;
  c.node_capacity = 256 << 10;
  c.cache_bytes = 2 << 20;
  return c;
}

Options MakeOptions(SystemId id, const ScaleConfig& scale, Env* env) {
  Options options;
  options.env = env;
  options.node_capacity = scale.node_capacity;
  options.block_cache_capacity = scale.cache_bytes;
  options.amt.memory_budget_bytes = scale.tuner_budget_bytes;
  options.table.bloom_bits_per_key = 14;  // Sec 6.1
  options.table.block_size = 4096;
  options.amt.fanout = scale.fanout;

  // Leveled thresholds follow the paper's LevelDB/RocksDB tuning scaled by
  // the same factor as Ct: memtable = Ct, file = Ct/2, L1 = 10 files.
  options.leveled.target_file_size = scale.node_capacity / 2;
  options.leveled.max_bytes_level1 = 5 * scale.node_capacity;
  options.leveled.level_multiplier = scale.fanout;

  switch (id) {
    case SystemId::kL:
      options.engine = EngineType::kLeveled;
      options.background_threads = 1;
      break;
    case SystemId::kR1:
    case SystemId::kR4:
      options.engine = EngineType::kLeveled;
      options.leveled.strict_level_limits = true;
      options.leveled.soft_pending_bytes = 4 * scale.node_capacity;
      options.leveled.hard_pending_bytes = 16 * scale.node_capacity;
      options.background_threads = id == SystemId::kR4 ? 4 : 1;
      break;
    case SystemId::kA1:
    case SystemId::kA4:
      options.engine = EngineType::kAmt;
      options.amt.policy = AmtPolicy::kLsa;
      options.background_threads = id == SystemId::kA4 ? 4 : 1;
      break;
    case SystemId::kI1:
    case SystemId::kI4:
      options.engine = EngineType::kAmt;
      options.amt.policy = AmtPolicy::kIam;
      options.amt.k = 3;
      options.background_threads = id == SystemId::kI4 ? 4 : 1;
      break;
  }
  if (scale.background_threads > 0) {
    options.background_threads = scale.background_threads;
  }
  options.table.compression = scale.compression;
  return options;
}

BenchDb::BenchDb(SystemId id, const ScaleConfig& scale)
    : id_(id), scale_(scale), env_(std::make_unique<MemEnv>()) {
  Options options = MakeOptions(id, scale, env_.get());
  Status s = DB::Open(options, "/bench", &db_);
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: open %s: %s\n", SystemName(id),
                 s.ToString().c_str());
    std::abort();
  }
}

BenchDb::~BenchDb() = default;

namespace {

struct OpSample {
  float ssd_us;
  float hdd_us;
  float stall_us;
};

class PhaseRecorder {
 public:
  explicit PhaseRecorder(BenchDb* bench)
      : bench_(bench),
        ssd_(DeviceProfile::SSD()),
        hdd_(DeviceProfile::HDD()),
        io_before_(bench->db()->GetStats().io),
        stalls_before_(bench->db()->GetStats().stall_micros),
        wall_before_(Env::Default()->NowMicros()) {}

  // Wrap each user operation.
  template <typename Fn>
  void Op(Fn&& fn) {
    OpIoScope scope;
    fn();
    const OpIoContext& ctx = scope.context();
    samples_.push_back(OpSample{
        static_cast<float>(ssd_.OpMicros(ctx)),
        static_cast<float>(hdd_.OpMicros(ctx)),
        static_cast<float>(ctx.stall_micros)});
  }

  RunResult Finish() {
    RunResult result;
    result.ops = samples_.size();
    result.stats_after = bench_->db()->GetStats();
    uint64_t wall = Env::Default()->NowMicros() - wall_before_;
    result.wall_seconds = wall / 1e6;
    IoStatsSnapshot delta = result.stats_after.io - io_before_;
    result.ssd_seconds = ssd_.TotalMicros(delta) / 1e6;
    result.hdd_seconds = hdd_.TotalMicros(delta) / 1e6;

    // Stall dilation: wall-clock waits on background work are re-priced in
    // modeled device time by the run's overall dilation factor, so a write
    // stall "costs" what the blocking compaction I/O costs on that device.
    double ssd_dilation = wall > 0 ? (ssd_.TotalMicros(delta) / wall) : 0;
    double hdd_dilation = wall > 0 ? (hdd_.TotalMicros(delta) / wall) : 0;
    for (const OpSample& s : samples_) {
      result.ssd_latency_us.Add(s.ssd_us + s.stall_us * ssd_dilation + 1.0);
      result.hdd_latency_us.Add(s.hdd_us + s.stall_us * hdd_dilation + 1.0);
    }
    return result;
  }

 private:
  BenchDb* bench_;
  DeviceModel ssd_, hdd_;
  IoStatsSnapshot io_before_;
  uint64_t stalls_before_;
  uint64_t wall_before_;
  std::vector<OpSample> samples_;
};

}  // namespace

RunResult Load(BenchDb* bench, uint64_t n, bool ordered, SettleMode settle,
               uint64_t pace_debt_bytes) {
  PhaseRecorder recorder(bench);
  DB* db = bench->db();
  const size_t value_size = bench->scale().value_size;
  for (uint64_t i = 0; i < n; i++) {
    recorder.Op([&] {
      std::string key = ordered ? OrderedKey(i) : HashedKey(i);
      Status s = db->Put(WriteOptions(), key, MakeValue(i, value_size));
      if (!s.ok()) std::abort();
    });
    if (pace_debt_bytes > 0 && (i & 31) == 31) {
      // Yield real time to the background until the debt is bounded.
      int spins = 0;
      while (db->GetStats().pending_debt_bytes > pace_debt_bytes &&
             spins++ < 20000) {
        Env::Default()->SleepForMicroseconds(200);
      }
    }
  }
  bench->set_record_count(n);
  if (settle == SettleMode::kSettleInWindow) db->WaitForQuiescence();
  RunResult result = recorder.Finish();
  if (settle == SettleMode::kSettleOutside) db->WaitForQuiescence();
  return result;
}

RunResult Overwrite(BenchDb* bench, uint64_t ops, bool random_order,
                    uint64_t seed) {
  PhaseRecorder recorder(bench);
  DB* db = bench->db();
  const uint64_t n = bench->record_count();
  const size_t value_size = bench->scale().value_size;
  Random64 rnd(seed);
  for (uint64_t i = 0; i < ops; i++) {
    recorder.Op([&] {
      uint64_t index = random_order ? rnd.Next() % n : i % n;
      Status s = db->Put(WriteOptions(), HashedKey(index),
                         MakeValue(index + ops, value_size));
      if (!s.ok()) std::abort();
    });
  }
  db->WaitForQuiescence();
  return recorder.Finish();
}

WorkloadSpec WorkloadSpec::Ycsb(char which) {
  WorkloadSpec spec;
  switch (which) {
    case 'A':  // update heavy: 50/50 read/update, zipfian
      spec.read = 0.5;
      spec.update = 0.5;
      break;
    case 'B':  // read heavy: 95/5
      spec.read = 0.95;
      spec.update = 0.05;
      break;
    case 'C':  // read only
      spec.read = 1.0;
      break;
    case 'D':  // read latest: 95 read / 5 insert
      spec.read = 0.95;
      spec.insert = 0.05;
      spec.dist = Dist::kLatest;
      break;
    case 'E':  // short scans: 95 scan / 5 insert, 0-100 records
      spec.scan = 0.95;
      spec.insert = 0.05;
      spec.max_scan_len = 100;
      break;
    case 'F':  // read-modify-write: 50 read / 50 rmw
      spec.read = 0.5;
      spec.rmw = 0.5;
      break;
    case 'G':  // paper's long-scan mix: 95 scan / 5 write, 0-10000 records
      spec.scan = 0.95;
      spec.update = 0.05;
      spec.max_scan_len = 10000;
      break;
    default:
      std::abort();
  }
  return spec;
}

RunResult RunWorkload(BenchDb* bench, const WorkloadSpec& spec, uint64_t ops,
                      uint64_t seed, bool settle_in_window) {
  DB* db = bench->db();
  const size_t value_size = bench->scale().value_size;
  uint64_t n = bench->record_count();

  ScrambledZipfianGenerator zipf(n, seed);
  LatestGenerator latest(n, seed ^ 0x9e3779b9);
  Random64 rnd(seed + 1);
  uint64_t inserted = n;

  auto next_index = [&]() -> uint64_t {
    switch (spec.dist) {
      case WorkloadSpec::Dist::kLatest:
        return latest.Next();
      case WorkloadSpec::Dist::kUniform:
        return rnd.Next() % inserted;
      case WorkloadSpec::Dist::kZipfian:
      default:
        return zipf.Next();
    }
  };

  // Operations that returned an error other than NotFound.
  uint64_t failed = 0;
  auto check = [&failed](const Status& s) {
    if (!s.ok() && !s.IsNotFound()) failed++;
  };

  PhaseRecorder recorder(bench);
  std::string value_scratch;
  for (uint64_t i = 0; i < ops; i++) {
    double p = rnd.NextDouble();
    recorder.Op([&] {
      if (p < spec.read) {
        uint64_t index = next_index();
        std::string value;
        check(db->Get(ReadOptions(), HashedKey(index), &value));
      } else if (p < spec.read + spec.update) {
        uint64_t index = next_index();
        check(db->Put(WriteOptions(), HashedKey(index),
                      MakeValue(index + i, value_size)));
      } else if (p < spec.read + spec.update + spec.insert) {
        uint64_t index = inserted++;
        check(db->Put(WriteOptions(), HashedKey(index),
                      MakeValue(index, value_size)));
        latest.SetN(inserted);
      } else if (p < spec.read + spec.update + spec.insert + spec.scan) {
        uint64_t index = next_index();
        int len = static_cast<int>(rnd.Next() % (spec.max_scan_len + 1));
        std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
        iter->Seek(HashedKey(index));
        for (int j = 0; j < len && iter->Valid(); j++) {
          value_scratch.assign(iter->value().data(), iter->value().size());
          iter->Next();
        }
        check(iter->status());
      } else {  // read-modify-write
        uint64_t index = next_index();
        std::string value;
        check(db->Get(ReadOptions(), HashedKey(index), &value));
        check(db->Put(WriteOptions(), HashedKey(index),
                      MakeValue(index + i + 1, value_size)));
      }
    });
  }
  if (failed > 0) {
    // A failed operation voids every figure of the run.
    std::fprintf(stderr, "RunWorkload: %llu operations failed\n",
                 static_cast<unsigned long long>(failed));
    std::exit(1);
  }
  bench->set_record_count(inserted);
  if (settle_in_window) bench->db()->WaitForQuiescence();
  return recorder.Finish();
}

RunResult ReadSeq(BenchDb* bench) {
  PhaseRecorder recorder(bench);
  DB* db = bench->db();
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  std::string scratch;
  while (iter->Valid()) {
    // One "op" per 100 records so the sample vector stays small while the
    // whole database is read.
    recorder.Op([&] {
      for (int j = 0; j < 100 && iter->Valid(); j++) {
        scratch.assign(iter->value().data(), iter->value().size());
        iter->Next();
      }
    });
  }
  return recorder.Finish();
}

void PrintNormalized(const std::string& title,
                     const std::vector<std::pair<std::string, double>>& rows,
                     const std::vector<double>& wall) {
  std::printf("%s\n", title.c_str());
  if (rows.empty()) return;
  double base = rows[0].second;
  for (size_t i = 0; i < rows.size(); i++) {
    const auto& [name, value] = rows[i];
    std::printf("  %-6s %10.1f ops/s   normalized %.2fx", name.c_str(), value,
                base > 0 ? value / base : 0);
    if (i < wall.size()) std::printf("   wall %10.1f ops/s", wall[i]);
    std::printf("\n");
  }
}

void PrintLevelWriteAmps(
    const std::string& title,
    const std::vector<std::pair<std::string, DbStats>>& rows) {
  std::printf("%s\n", title.c_str());
  size_t max_levels = 0;
  for (const auto& [_, stats] : rows) {
    max_levels = std::max(max_levels, stats.level_write_amp.size());
  }
  std::printf("  %-6s", "Level");
  for (const auto& [name, _] : rows) std::printf(" %8s", name.c_str());
  std::printf("\n");
  for (size_t level = 0; level < max_levels; level++) {
    std::printf("  %-6zu", level);
    for (const auto& [_, stats] : rows) {
      if (level < stats.level_write_amp.size()) {
        std::printf(" %8.2f", stats.level_write_amp[level]);
      } else {
        std::printf(" %8s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf("  %-6s", "Sum");
  for (const auto& [_, stats] : rows) {
    std::printf(" %8.2f", stats.total_write_amp);
  }
  std::printf("\n");
}

double ParseScale(int argc, char** argv, double def) {
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      return std::atof(argv[i] + 8);
    }
  }
  const char* env = std::getenv("IAMDB_BENCH_SCALE");
  if (env != nullptr) return std::atof(env);
  return def;
}

int ParseBgThreads(int argc, char** argv, int def) {
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--bg_threads=", 13) == 0) {
      return std::atoi(argv[i] + 13);
    }
  }
  const char* env = std::getenv("IAMDB_BENCH_BG_THREADS");
  if (env != nullptr) return std::atoi(env);
  return def;
}

CompressionType ParseCompression(int argc, char** argv, CompressionType def) {
  std::string name;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--compression=", 14) == 0) {
      name = argv[i] + 14;
    }
  }
  if (name.empty()) {
    const char* env = std::getenv("IAMDB_BENCH_COMPRESSION");
    if (env != nullptr) name = env;
  }
  CompressionType type = def;
  if (!name.empty()) ParseCompressionType(name, &type);
  return type;
}

}  // namespace iamdb::bench
