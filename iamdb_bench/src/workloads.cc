#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/db.h"
#include "env/mem_env.h"
#include "model.h"
#include "server/client.h"
#include "speed.h"

namespace iamdb::bench {

namespace {

using Clock = std::chrono::steady_clock;

// The fixed configuration: the paper's IAM-tree at laptop scale (node
// 1 MB, fan-out 10, k = 3, 14 bloom bits per key, 4 KB blocks), no
// compression, WAL written but never fsynced per write (the paper's
// setting), two background threads, all files in memory so disk noise
// stays out; device cost comes from stats/DeviceModel.  Spelled out here
// rather than taken from bench/workload's MakeOptions so that only a
// change to iamdb_bench/ can change what the benchmark runs.
constexpr uint64_t kNodeCapacity = 1 << 20;
constexpr int kBackgroundThreads = 2;
// Embedded workloads keep the paper's 16:100 memory-to-data ratio on the
// 64 MB read data set; `serve` holds its 16 MB data set entirely in cache.
constexpr uint64_t kEmbeddedCacheBytes = 10 << 20;
constexpr uint64_t kServeCacheBytes = 32 << 20;
// Two clients and one worker keep the threads that take turns on a request
// (client, reactor, worker) below the core count; with four clients and
// two workers the round trip measured the scheduler more than the server.
constexpr int kServeClients = 2;
constexpr int kServeWorkers = 1;
constexpr size_t kMultiGetKeys = 16;
constexpr size_t kMaxScanLength = 100;

// Record and operation counts at --scale=1, sized so one measured window
// takes 2-3 s on a 4-core x86 machine.
constexpr uint64_t kIngestBase = 32768;
constexpr uint64_t kIngestInserts = 65536;
constexpr uint64_t kIngestOverwrites = 65536;
constexpr uint64_t kReadRecords = 65536;  // point_read and scan
constexpr uint64_t kPointReadOps = 650000;
constexpr uint64_t kScanWarmScans = 1000;
constexpr uint64_t kScanOps = 24000;
constexpr uint64_t kServeRecords = 16384;
constexpr uint64_t kServeRequests = 125000;
// Operation mixes (the rest of each mix is writes).
constexpr double kPointReadGetShare = 0.95;
constexpr double kScanScanShare = 0.95;
constexpr double kServeGetShare = 0.80;
constexpr double kServePutShare = 0.15;  // then MGET

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Scaled(uint64_t n, double scale, uint64_t floor) {
  return std::max<uint64_t>(floor, static_cast<uint64_t>(n * scale));
}

[[noreturn]] void Fatal(const char* what, const Status& s) {
  std::fprintf(stderr, "iamdb_bench: %s: %s\n", what, s.ToString().c_str());
  std::exit(2);
}

Options BenchOptions(Env* env, uint64_t cache_bytes) {
  Options options;
  options.env = env;
  options.engine = EngineType::kAmt;
  options.amt.policy = AmtPolicy::kIam;
  options.amt.fanout = 10;
  options.amt.k = 3;
  options.node_capacity = kNodeCapacity;
  options.block_cache_capacity = cache_bytes;
  options.table.bloom_bits_per_key = 14;
  options.table.block_size = 4096;
  options.table.compression = CompressionType::kNone;
  options.background_threads = kBackgroundThreads;
  options.sync_wal = false;
  return options;
}

// One database in memory; traced rounds put TimingEnv under it and hand
// out a TimedDB over it.
class Instance {
 public:
  Instance(uint64_t cache_bytes, bool traced)
      : mem_(std::make_unique<MemEnv>()) {
    Env* env = mem_.get();
    if (traced) {
      timing_ = std::make_unique<TimingEnv>(env);
      env = timing_.get();
    }
    Status s = DB::Open(BenchOptions(env, cache_bytes), "/bench", &impl_);
    if (!s.ok()) Fatal("open", s);
    if (traced) timed_ = std::make_unique<TimedDB>(impl_.get());
  }

  // What the workload calls.
  DB* db() { return timed_ != nullptr ? timed_.get() : impl_.get(); }
  // Untraced access for checks outside the window.
  DB* raw() { return impl_.get(); }

 private:
  std::unique_ptr<MemEnv> mem_;
  std::unique_ptr<TimingEnv> timing_;
  std::unique_ptr<DB> impl_;
  std::unique_ptr<TimedDB> timed_;
};

// What one timing thread records into: its requests go to *r, and its
// SpeedClock scales their latencies.
struct Recorder {
  Recorder(RoundResult* result, bool is_traced)
      : r(result), traced(is_traced) {}
  RoundResult* const r;
  const bool traced;
  SpeedClock clock;
};

// Latency of one request; in traced rounds also its request span and, for
// requests sent over the wire, the round-trip span inside it.  The speed
// probe, when due, runs first, so that it falls between requests and
// outside every latency and check timer.
class OpTimer {
 public:
  OpTimer(Recorder* rec, const char* name, bool wire = false) : rec_(rec) {
    rec->clock.Tick(&rec->r->op_us);
    start_ = Clock::now();
    if (rec->traced) {
      request_.emplace(name);
      if (wire) round_trip_.emplace();
    }
  }
  // Ends the request and records it.
  void Stop(bool is_put) {
    round_trip_.reset();
    request_.reset();
    end_ = Clock::now();
    RoundResult* r = rec_->r;
    r->op_us.push_back(
        std::chrono::duration<float, std::micro>(end_ - start_).count());
    r->ops++;
    if (is_put) r->puts++;
  }
  Clock::time_point end() const { return end_; }

 private:
  Recorder* const rec_;
  Clock::time_point start_, end_;
  std::optional<RequestScope> request_;
  std::optional<WireScope> round_trip_;
};

// Accumulates the time spent checking results and updating the model,
// from the end of the request it follows.
class CheckTimer {
 public:
  CheckTimer(RoundResult* r, const OpTimer& op) : r_(r), start_(op.end()) {}
  ~CheckTimer() { r_->check_s += SecondsSince(start_); }
  CheckTimer(const CheckTimer&) = delete;
  CheckTimer& operator=(const CheckTimer&) = delete;

 private:
  RoundResult* r_;
  Clock::time_point start_;
};

// Untimed sequential insert of indexes [first, first + count), the set-up
// load; write failures count against the round.
void Load(DB* db, Model* model, uint64_t first, uint64_t count,
          Recorder* rec) {
  std::string value;
  for (uint64_t i = first; i < first + count; i++) {
    rec->clock.Tick();
    MakeValue(i, model->NextVersion(i), &value);
    if (db->Put(WriteOptions(), model->keys().Key(i), value).ok()) {
      model->Bump(i);
    } else {
      rec->r->failed++;
    }
  }
  model->SealLoad();
  Status s = db->WaitForQuiescence();
  if (!s.ok()) Fatal("settle", s);
}

void TimedPut(DB* db, Model* model, uint64_t index, Recorder* rec,
              std::string* value) {
  std::string key = model->keys().Key(index);
  MakeValue(index, model->NextVersion(index), value);
  OpTimer timer(rec, "put");
  Status s = db->Put(WriteOptions(), key, *value);
  timer.Stop(true);
  CheckTimer check(rec->r, timer);
  if (s.ok()) {
    model->Bump(index);
  } else {
    rec->r->failed++;
  }
}

void TimedGet(DB* db, const Model& model, uint64_t index, Recorder* rec,
              std::string* value) {
  std::string key = model.keys().Key(index);
  OpTimer timer(rec, "get");
  Status s = db->Get(ReadOptions(), key, value);
  timer.Stop(false);
  CheckTimer check(rec->r, timer);
  if (!s.ok() || !model.CheckRead(index, *value)) rec->r->failed++;
}

using ScanBuffer = std::vector<std::pair<std::string, std::string>>;

// Forward scan of up to `limit` records starting at the key of `index`;
// copies what it reads (as a reader would) and checks it afterwards.
void TimedScan(DB* db, const Model& model, uint64_t index, size_t limit,
               Recorder* rec, ScanBuffer* buf) {
  std::string start = model.keys().Key(index);
  size_t got = 0;
  OpTimer timer(rec, "scan");
  Status s;
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->Seek(start); got < limit && it->Valid(); it->Next(), got++) {
      Slice k = it->key(), v = it->value();
      (*buf)[got].first.assign(k.data(), k.size());
      (*buf)[got].second.assign(v.data(), v.size());
    }
    s = it->status();
  }
  timer.Stop(false);
  CheckTimer check(rec->r, timer);
  if (!s.ok() || !model.CheckScan(start, limit, buf->data(), got)) {
    rec->r->failed++;
  }
}

// Scans the whole database in key order against the model, after the
// window.
void FinalCheck(DB* db, const Model& model, RoundResult* r) {
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  Model::Cursor expect(model, 0);
  bool ok = true;
  for (it->SeekToFirst(); ok && it->Valid(); it->Next(), expect.Next()) {
    ok = expect.Valid() &&
         model.CheckEntry(expect.rank(), it->key(), it->value());
  }
  r->final_check_ok = ok && it->status().ok() && !expect.Valid();
}

// The measured window: captures engine counters at open, and at close
// drains every flush and compaction the window caused (FlushAll) before
// taking the deltas.  `clocks` are the finished SpeedClocks of the threads
// that timed the window's requests.
class Window {
 public:
  Window(DB* db, bool traced) : db_(db), traced_(traced) {
    if (traced_) {
      layers_before_ = TraceTotals();
      sampler_ = std::thread([this] { SampleDebt(); });
    }
    Capture(&before_);
    cpu_start_s_ = ProcessCpuSeconds();
    start_ = Clock::now();
  }

  ~Window() { StopSampler(); }
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  void Close(const Model& model, const std::vector<const SpeedClock*>& clocks,
             RoundResult* r) {
    Clock::time_point drain_start = Clock::now();
    if (!db_->FlushAll().ok()) r->failed++;
    r->drain_s = SecondsSince(drain_start);
    r->window_s = SecondsSince(start_);
    const double cpu_s = ProcessCpuSeconds() - cpu_start_s_;
    StopSampler();

    double wall_s = 0, scaled_s = 0, probe_cpu_s = 0;
    r->probe_s = r->median_probe_s = 0;
    for (const SpeedClock* c : clocks) {
      wall_s += c->wall_s();
      scaled_s += c->scaled_s();
      probe_cpu_s += c->probe_cpu_s();
      r->probe_s += c->probe_wall_s() / clocks.size();
      r->median_probe_s += c->median_probe_s() / clocks.size();
    }
    r->time_scale = scaled_s / wall_s;
    r->cpu_s = cpu_s - probe_cpu_s;
    if (traced_) r->layers = TraceTotals() - layers_before_;

    Counters after;
    Capture(&after);
    r->user_bytes = after.user_bytes - before_.user_bytes;
    for (size_t i = 0; i < r->reason_bytes.size(); i++) {
      r->reason_bytes[i] = after.reason_bytes[i] - before_.reason_bytes[i];
    }
    for (size_t i = 0; i < r->level_bytes.size(); i++) {
      r->level_bytes[i] = after.level_bytes[i] - before_.level_bytes[i];
    }
    r->io = after.stats.io - before_.stats.io;
    r->cache_hits = after.stats.cache_hits - before_.stats.cache_hits;
    r->cache_misses = after.stats.cache_misses - before_.stats.cache_misses;
    r->debt_max_bytes = debt_max_;
    r->lifetime_user_bytes = after.user_bytes;
    r->lifetime_table_bytes = 0;
    for (uint64_t b : after.level_bytes) r->lifetime_table_bytes += b;
    r->space_used_bytes = after.stats.space_used_bytes;
    r->live_bytes = model.live() * kRecordBytes;
    r->nodes = 0;
    for (int count : after.stats.level_node_counts) r->nodes += count;
    r->mixed_level = after.stats.mixed_level;
    r->mixed_k = after.stats.mixed_level_k;
  }

 private:
  struct Counters {
    uint64_t user_bytes = 0;
    std::array<uint64_t, static_cast<int>(WriteReason::kNumReasons)>
        reason_bytes{};
    std::array<uint64_t, AmpStats::kMaxLevels> level_bytes{};
    DbStats stats;
  };

  void Capture(Counters* c) {
    const AmpStats& amp = db_->amp_stats();
    c->user_bytes = amp.user_bytes();
    for (size_t i = 0; i < c->reason_bytes.size(); i++) {
      c->reason_bytes[i] = amp.reason_bytes(static_cast<WriteReason>(i));
    }
    for (size_t i = 0; i < c->level_bytes.size(); i++) {
      c->level_bytes[i] = amp.level_bytes(static_cast<int>(i));
    }
    c->stats = db_->GetStats();
  }

  void SampleDebt() {
    std::unique_lock<std::mutex> l(mu_);
    while (!stop_) {
      l.unlock();
      uint64_t debt = db_->GetStats().pending_debt_bytes;
      l.lock();
      debt_max_ = std::max(debt_max_, debt);
      cv_.wait_for(l, std::chrono::milliseconds(100), [this] { return stop_; });
    }
  }

  void StopSampler() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (sampler_.joinable()) sampler_.join();
  }

  DB* const db_;
  const bool traced_;
  Counters before_;
  LayerTotals layers_before_;
  double cpu_start_s_ = 0;
  Clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;          // guarded by mu_
  uint64_t debt_max_ = 0;      // guarded by mu_
  std::thread sampler_;        // declared last: uses the members above
};

struct Inputs {
  explicit Inputs(uint64_t seed)
      : keys(Mix64(seed ^ 0x6b6579)), rnd(Mix64(seed ^ 0x726e64)) {}
  KeySpace keys;
  Random64 rnd;
};

uint64_t ZipfSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed ^ (0x7a697066ull + stream));
}

// ingest: the paper's write path (hash load, then uniform overwrites).
RoundResult RunIngest(const RoundParams& p) {
  const uint64_t base = Scaled(kIngestBase, p.scale, 512);
  const uint64_t inserts = Scaled(kIngestInserts, p.scale, 1024);
  const uint64_t overwrites = Scaled(kIngestOverwrites, p.scale, 1024);
  RoundResult r;
  Inputs in(p.seed);
  Model model(&in.keys, base + inserts);

  Recorder setup(&r, false);
  Instance inst(kEmbeddedCacheBytes, p.traced);
  DB* db = inst.db();
  Load(db, &model, 0, base, &setup);
  setup.clock.Finish();
  r.setup_s = setup.clock.scaled_s();

  std::string value;
  r.op_us.reserve(inserts + overwrites);
  Window window(db, p.traced);
  Recorder rec(&r, p.traced);
  for (uint64_t i = base; i < base + inserts; i++) {
    TimedPut(db, &model, i, &rec, &value);
  }
  for (uint64_t i = 0; i < overwrites; i++) {
    TimedPut(db, &model, in.rnd.Uniform(base + inserts), &rec, &value);
  }
  rec.clock.Finish(&r.op_us);
  window.Close(model, {&rec.clock}, &r);

  FinalCheck(inst.raw(), model, &r);
  return r;
}

// point_read: YCSB-B over a data set ten times the block cache.
RoundResult RunPointRead(const RoundParams& p) {
  const uint64_t n = Scaled(kReadRecords, p.scale, 1024);
  const uint64_t warm = n / 2;
  const uint64_t ops = Scaled(kPointReadOps, p.scale, 2000);
  RoundResult r;
  Inputs in(p.seed);
  Model model(&in.keys, n);
  ScrambledZipfian zipf(n, ZipfSeed(p.seed, 0));

  RoundResult warm_result;
  Recorder setup(&warm_result, false);
  Instance inst(kEmbeddedCacheBytes, p.traced);
  DB* db = inst.db();
  Load(db, &model, 0, n, &setup);
  std::string value;
  for (uint64_t i = 0; i < warm; i++) {
    TimedGet(db, model, zipf.Next(), &setup, &value);
  }
  setup.clock.Finish();
  r.failed += warm_result.failed;
  r.setup_s = setup.clock.scaled_s();

  r.op_us.reserve(ops);
  Window window(db, p.traced);
  Recorder rec(&r, p.traced);
  for (uint64_t i = 0; i < ops; i++) {
    if (in.rnd.NextDouble() < kPointReadGetShare) {
      TimedGet(db, model, zipf.Next(), &rec, &value);
    } else {
      TimedPut(db, &model, zipf.Next(), &rec, &value);
    }
  }
  rec.clock.Finish(&r.op_us);
  window.Close(model, {&rec.clock}, &r);

  FinalCheck(inst.raw(), model, &r);
  return r;
}

// scan: YCSB-E, short forward scans from zipfian start keys plus inserts.
RoundResult RunScan(const RoundParams& p) {
  const uint64_t n = Scaled(kReadRecords, p.scale, 1024);
  const uint64_t warm = Scaled(kScanWarmScans, p.scale, 50);
  const uint64_t ops = Scaled(kScanOps, p.scale, 200);
  RoundResult r;
  Inputs in(p.seed);
  Model model(&in.keys, n + ops);
  ScrambledZipfian zipf(n, ZipfSeed(p.seed, 0));
  ScanBuffer buf(kMaxScanLength);

  RoundResult warm_result;
  Recorder setup(&warm_result, false);
  Instance inst(kEmbeddedCacheBytes, p.traced);
  DB* db = inst.db();
  Load(db, &model, 0, n, &setup);
  for (uint64_t i = 0; i < warm; i++) {
    TimedScan(db, model, zipf.Next(), kMaxScanLength, &setup, &buf);
  }
  setup.clock.Finish();
  r.failed += warm_result.failed;
  r.setup_s = setup.clock.scaled_s();

  std::string value;
  uint64_t next_insert = n;
  r.op_us.reserve(ops);
  Window window(db, p.traced);
  Recorder rec(&r, p.traced);
  for (uint64_t i = 0; i < ops; i++) {
    if (in.rnd.NextDouble() < kScanScanShare) {
      size_t limit = in.rnd.Uniform(kMaxScanLength + 1);
      TimedScan(db, model, zipf.Next(), limit, &rec, &buf);
    } else {
      TimedPut(db, &model, next_insert++, &rec, &value);
    }
  }
  rec.clock.Finish(&r.op_us);
  window.Close(model, {&rec.clock}, &r);

  FinalCheck(inst.raw(), model, &r);
  return r;
}

// One closed-loop `serve` client: one request outstanding at a time.
// Client c owns (and alone writes) the keys whose index is c modulo the
// client count; reads of its own keys are checked exactly, reads of other
// keys for being well formed and belonging to the key asked for.
void ServeClient(Client* client, int c, uint64_t requests, Model* model,
                 uint64_t seed, Recorder* rec) {
  RoundResult* r = rec->r;
  const uint64_t n = model->capacity();
  ScrambledZipfian zipf(n, ZipfSeed(seed, 1 + c));
  Random64 rnd(Mix64(seed ^ (0x636c69ull + c)));
  auto check_read = [&](uint64_t index, const Status& s,
                        const std::string& value) {
    bool own = index % kServeClients == static_cast<uint64_t>(c);
    bool ok = s.ok() && (own ? model->CheckRead(index, value)
                             : Model::CheckForeignRead(index, value));
    if (!ok) r->failed++;
  };
  std::string value;
  std::vector<std::string> keys(kMultiGetKeys), values;
  std::vector<uint64_t> indexes(kMultiGetKeys);
  std::vector<Status> statuses;
  r->op_us.reserve(requests);
  for (uint64_t i = 0; i < requests; i++) {
    double x = rnd.NextDouble();
    if (x < kServeGetShare) {
      uint64_t index = zipf.Next();
      std::string key = model->keys().Key(index);
      OpTimer timer(rec, "get", true);
      Status s = client->Get(key, &value);
      timer.Stop(false);
      CheckTimer check(r, timer);
      check_read(index, s, value);
    } else if (x < kServeGetShare + kServePutShare) {
      // n is a multiple of the client count, so this stays below n.
      uint64_t z = zipf.Next();
      uint64_t index = z - z % kServeClients + c;
      std::string key = model->keys().Key(index);
      MakeValue(index, model->NextVersion(index), &value);
      OpTimer timer(rec, "put", true);
      Status s = client->Put(key, value);
      timer.Stop(true);
      CheckTimer check(r, timer);
      if (s.ok()) {
        model->Bump(index);
      } else {
        r->failed++;
      }
    } else {
      for (size_t k = 0; k < kMultiGetKeys; k++) {
        indexes[k] = zipf.Next();
        keys[k] = model->keys().Key(indexes[k]);
      }
      OpTimer timer(rec, "mget", true);
      Status s = client->MultiGet(keys, &values, &statuses);
      timer.Stop(false);
      CheckTimer check(r, timer);
      for (size_t k = 0; k < kMultiGetKeys; k++) {
        check_read(indexes[k], s.ok() ? statuses[k] : s,
                   s.ok() ? values[k] : std::string());
      }
    }
  }
  rec->clock.Finish(&r->op_us);
}

ServerStats StatsDelta(const ServerStats& a, const ServerStats& b) {
  ServerStats d;
  d.requests = a.requests - b.requests;
  d.bytes_received = a.bytes_received - b.bytes_received;
  d.bytes_sent = a.bytes_sent - b.bytes_sent;
  d.loop_iterations = a.loop_iterations - b.loop_iterations;
  d.writev_calls = a.writev_calls - b.writev_calls;
  d.responses_written = a.responses_written - b.responses_written;
  return d;
}

// serve: the wire path over loopback on a cache-resident data set.
RoundResult RunServe(const RoundParams& p) {
  const uint64_t n =
      Scaled(kServeRecords, p.scale, 1024) / kServeClients * kServeClients;
  const uint64_t requests = Scaled(kServeRequests, p.scale, 2000);
  RoundResult r;
  Inputs in(p.seed);
  Model model(&in.keys, n);

  RoundResult warm_result;
  Recorder setup(&warm_result, false);
  Instance inst(kServeCacheBytes, p.traced);
  DB* db = inst.db();
  Load(db, &model, 0, n, &setup);
  std::string value;
  for (uint64_t i = 0; i < n; i++) {
    TimedGet(db, model, i, &setup, &value);
  }
  r.failed += warm_result.failed;
  ServerOptions server_options;
  server_options.num_shards = 1;
  server_options.num_workers = kServeWorkers;
  Server server(db, server_options);
  Status s = server.Start();
  if (!s.ok()) Fatal("server start", s);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kServeClients; c++) {
    ClientOptions client_options;
    client_options.port = server.port();
    clients.push_back(std::make_unique<Client>(client_options));
    s = clients.back()->Connect();
    if (!s.ok()) Fatal("client connect", s);
  }
  setup.clock.Finish();
  r.setup_s = setup.clock.scaled_s();

  ServerStats server_before = server.stats();
  std::vector<RoundResult> per_client(kServeClients);
  {
    Window window(db, p.traced);
    // Each client thread takes its own speed probes.
    std::vector<std::unique_ptr<Recorder>> recs(kServeClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; c++) {
      threads.emplace_back([&, c] {
        recs[c] = std::make_unique<Recorder>(&per_client[c], p.traced);
        ServeClient(clients[c].get(), c, requests / kServeClients, &model,
                    p.seed, recs[c].get());
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<const SpeedClock*> clocks;
    for (const auto& rec : recs) clocks.push_back(&rec->clock);
    window.Close(model, clocks, &r);
  }
  r.server = StatsDelta(server.stats(), server_before);
  clients.clear();
  server.Stop();

  for (RoundResult& c : per_client) {
    r.op_us.insert(r.op_us.end(), c.op_us.begin(), c.op_us.end());
    r.ops += c.ops;
    r.puts += c.puts;
    r.failed += c.failed;
    r.check_s += c.check_s;
  }
  FinalCheck(inst.raw(), model, &r);
  return r;
}

std::string N(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Everything BenchOptions and the value format fix, for config_hash.
const std::string kEngineConfig =
    " engine=iam node=" + N(kNodeCapacity) + " fanout=10 k=3 bloom_bits=14" +
    " block=4096 compression=none sync_wal=0 bg_threads=" +
    N(kBackgroundThreads) + " key=" + N(kKeySize) + " value=" +
    N(kValueSize);

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"ingest", RunIngest,
       "ingest base=" + N(kIngestBase) + " inserts=" + N(kIngestInserts) +
           " overwrites=" + N(kIngestOverwrites) +
           " cache=" + N(kEmbeddedCacheBytes) + kEngineConfig},
      {"point_read", RunPointRead,
       "point_read records=" + N(kReadRecords) + " warm_gets=records/2" +
           " ops=" + N(kPointReadOps) + " get=" + N(kPointReadGetShare) +
           " zipfian cache=" + N(kEmbeddedCacheBytes) + kEngineConfig},
      {"scan", RunScan,
       "scan records=" + N(kReadRecords) + " warm=" + N(kScanWarmScans) +
           " ops=" + N(kScanOps) + " scan=" + N(kScanScanShare) +
           " max_len=" + N(kMaxScanLength) + " zipfian" +
           " cache=" + N(kEmbeddedCacheBytes) + kEngineConfig},
      {"serve", RunServe,
       "serve records=" + N(kServeRecords) + " requests=" +
           N(kServeRequests) + " clients=" + N(kServeClients) +
           " workers=" + N(kServeWorkers) + " shards=1 get=" +
           N(kServeGetShare) + " put=" + N(kServePutShare) + " mget_keys=" +
           N(kMultiGetKeys) + " zipfian cache=" + N(kServeCacheBytes) +
           kEngineConfig},
  };
  return defs;
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : Workloads()) names.push_back(w.name);
  return names;
}

}  // namespace iamdb::bench
