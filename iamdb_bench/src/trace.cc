#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "stats/io_stats.h"

namespace iamdb::bench {

namespace {

constexpr uint64_t kSampleEvery = 64;
constexpr uint64_t kMaxSpans = 250000;

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct Span {
  const char* name;
  const char* layer;
  uint64_t start_ns, end_ns;
  uint64_t id, parent, request;
};

// Counters are written only by the owning thread (a relaxed load + store,
// no read-modify-write) and may be summed by any thread at any time.
// Spans are read only after the owner has been joined.
struct ThreadState {
  int tid = 0;
  bool caller = false;  // ever made a DB call or a request
  std::array<std::atomic<uint64_t>, LayerTotals::kNumCounters> counters{};
  std::vector<Span> spans;
  uint64_t background_ios = 0;

  void Add(int counter, uint64_t delta) {
    std::atomic<uint64_t>& c = counters[counter];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;  // guarded by mu
  std::atomic<uint64_t> next_request{1};
  std::atomic<uint64_t> next_span{1};
  std::atomic<uint64_t> kept{0};
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

thread_local ThreadState* tls_state = nullptr;
thread_local uint64_t tls_request = 0;  // open request on this thread, or 0
thread_local bool tls_sampled = false;  // keep the open request's spans
thread_local uint64_t tls_parent = 0;   // innermost kept span
thread_local int tls_call_depth = 0;    // > 0 inside a TimedDB call

ThreadState* State() {
  if (tls_state == nullptr) {
    Registry& r = TheRegistry();
    std::lock_guard<std::mutex> l(r.mu);
    r.threads.push_back(std::make_unique<ThreadState>());
    tls_state = r.threads.back().get();
    tls_state->tid = static_cast<int>(r.threads.size());
  }
  return tls_state;
}

void Keep(ThreadState* st, const char* name, const char* layer,
          uint64_t start_ns, uint64_t end_ns, uint64_t id, uint64_t parent,
          uint64_t request) {
  if (TheRegistry().kept.fetch_add(1, std::memory_order_relaxed) >=
      kMaxSpans) {
    return;
  }
  st->spans.push_back(Span{name, layer, start_ns, end_ns, id, parent, request});
}

uint64_t NewSpanId() {
  return TheRegistry().next_span.fetch_add(1, std::memory_order_relaxed);
}

// Opens a request when the thread has none (server workers run DB calls
// outside any benchmark request) and decides whether to keep its spans.
uint64_t BeginRequest() {
  uint64_t id =
      TheRegistry().next_request.fetch_add(1, std::memory_order_relaxed);
  tls_request = id;
  tls_sampled = id % kSampleEvery == 0;
  return id;
}

void EndRequest() {
  tls_request = 0;
  tls_sampled = false;
}

// One timed DB call on the calling thread.
class CallScope {
 public:
  explicit CallScope(const char* name)
      : name_(name),
        state_(State()),
        implicit_request_(tls_request == 0),
        request_(implicit_request_ ? BeginRequest() : tls_request),
        span_id_(tls_sampled ? NewSpanId() : 0),
        saved_parent_(tls_parent) {
    state_->caller = true;
    if (span_id_ != 0) tls_parent = span_id_;
    tls_call_depth++;
    start_ns_ = NowNs();
  }

  ~CallScope() {
    uint64_t end_ns = NowNs();
    tls_call_depth--;
    const OpIoContext& io = io_.context();
    state_->Add(LayerTotals::kCalls, 1);
    state_->Add(LayerTotals::kCallNs, end_ns - start_ns_);
    state_->Add(LayerTotals::kStallUs, io.stall_micros);
    state_->Add(LayerTotals::kFgSeeks, io.seeks);
    state_->Add(LayerTotals::kFgReadBytes, io.bytes_read);
    if (span_id_ != 0) {
      Keep(state_, name_, "core", start_ns_, end_ns, span_id_, saved_parent_,
           request_);
    }
    tls_parent = saved_parent_;
    if (implicit_request_) EndRequest();
  }

  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  OpIoScope io_;
  const char* name_;
  ThreadState* state_;
  bool implicit_request_;
  uint64_t request_;
  uint64_t span_id_;
  uint64_t saved_parent_;
  uint64_t start_ns_ = 0;
};

const char* EnvSpanName(FileClass file, EnvOp op) {
  static const char* const kNames[kNumFileClasses][kNumEnvOps] = {
      {"wal.read", "wal.append", "wal.sync"},
      {"table.read", "table.append", "table.sync"},
      {"manifest.read", "manifest.append", "manifest.sync"},
      {"file.read", "file.append", "file.sync"},
  };
  return kNames[file][op];
}

void RecordEnv(FileClass file, EnvOp op, uint64_t start_ns, uint64_t end_ns,
               uint64_t bytes) {
  ThreadState* st = State();
  Side side = tls_call_depth > 0 ? kForeground : kBackground;
  st->Add(LayerTotals::EnvIndex(side, file, op, 0), end_ns - start_ns);
  st->Add(LayerTotals::EnvIndex(side, file, op, 1), bytes);
  if (side == kForeground) {
    if (tls_sampled) {
      Keep(st, EnvSpanName(file, op), "env", start_ns, end_ns, NewSpanId(),
           tls_parent, tls_request);
    }
  } else if (++st->background_ios % kSampleEvery == 0) {
    Keep(st, EnvSpanName(file, op), "env", start_ns, end_ns, NewSpanId(), 0,
         0);
  }
}

FileClass Classify(const std::string& fname) {
  auto ends_with = [&](const char* suffix) {
    size_t n = std::char_traits<char>::length(suffix);
    return fname.size() >= n && fname.compare(fname.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) return kWalFile;
  if (ends_with(".mst")) return kTableFile;
  if (fname.find("MANIFEST") != std::string::npos) return kManifestFile;
  return kOtherFile;
}

class TimedRandomAccessFile final : public RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<RandomAccessFile> target,
                        FileClass file)
      : target_(std::move(target)), file_(file) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    uint64_t start = NowNs();
    Status s = target_->Read(offset, n, result, scratch);
    RecordEnv(file_, kEnvRead, start, NowNs(), s.ok() ? result->size() : 0);
    return s;
  }

  Status ReadV(ReadRequest* reqs, size_t count) const override {
    uint64_t start = NowNs();
    Status s = target_->ReadV(reqs, count);
    uint64_t end = NowNs();
    uint64_t bytes = 0;
    for (size_t i = 0; i < count; i++) {
      if (reqs[i].status.ok()) bytes += reqs[i].result.size();
    }
    RecordEnv(file_, kEnvRead, start, end, bytes);
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> target_;
  FileClass file_;
};

class TimedWritableFile final : public WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> target, FileClass file)
      : target_(std::move(target)), file_(file) {}

  Status Append(const Slice& data) override {
    uint64_t start = NowNs();
    Status s = target_->Append(data);
    RecordEnv(file_, kEnvWrite, start, NowNs(), data.size());
    return s;
  }
  Status Sync() override {
    uint64_t start = NowNs();
    Status s = target_->Sync();
    RecordEnv(file_, kEnvSync, start, NowNs(), 0);
    return s;
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }

 private:
  std::unique_ptr<WritableFile> target_;
  FileClass file_;
};

// Iterator whose positioning calls are DB calls.
class TimedIterator final : public Iterator {
 public:
  explicit TimedIterator(Iterator* target) : target_(target) {}
  ~TimedIterator() override {
    CallScope call("iter.close");
    delete target_;
  }

  bool Valid() const override { return target_->Valid(); }
  void SeekToFirst() override {
    CallScope call("iter.seek");
    target_->SeekToFirst();
  }
  void SeekToLast() override {
    CallScope call("iter.seek");
    target_->SeekToLast();
  }
  void Seek(const Slice& key) override {
    CallScope call("iter.seek");
    target_->Seek(key);
  }
  void Next() override {
    CallScope call("iter.next");
    target_->Next();
  }
  void Prev() override {
    CallScope call("iter.prev");
    target_->Prev();
  }
  Slice key() const override { return target_->key(); }
  Slice value() const override { return target_->value(); }
  Status status() const override { return target_->status(); }

 private:
  Iterator* const target_;
};

void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; s++) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
  out->push_back('"');
}

}  // namespace

uint64_t LayerTotals::env_ns(Side s, EnvOp op) const {
  uint64_t sum = 0;
  for (int f = 0; f < kNumFileClasses; f++) {
    sum += env_ns(s, static_cast<FileClass>(f), op);
  }
  return sum;
}

uint64_t LayerTotals::env_ns(Side s) const {
  uint64_t sum = 0;
  for (int op = 0; op < kNumEnvOps; op++) {
    sum += env_ns(s, static_cast<EnvOp>(op));
  }
  return sum;
}

LayerTotals LayerTotals::operator-(const LayerTotals& rhs) const {
  LayerTotals d;
  for (size_t i = 0; i < v.size(); i++) d.v[i] = v[i] - rhs.v[i];
  return d;
}

LayerTotals TraceTotals() {
  LayerTotals totals;
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> l(r.mu);
  for (const auto& st : r.threads) {
    for (size_t i = 0; i < totals.v.size(); i++) {
      totals.v[i] += st->counters[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

int64_t WriteChromeTrace(const std::string& path) {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> l(r.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  int64_t written = 0;
  char buf[256];
  for (const auto& st : r.threads) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s-%d\"}},\n",
                  st->tid, st->caller ? "caller" : "background", st->tid);
    out += buf;
    for (const Span& s : st->spans) {
      out += "{\"name\":";
      AppendJsonString(&out, s.name);
      out += ",\"cat\":";
      AppendJsonString(&out, s.layer);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
                    "\"request\":%llu}},\n",
                    st->tid, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out += buf;
      written++;
      if (out.size() > (1 << 20)) {
        std::fwrite(out.data(), 1, out.size(), f);
        out.clear();
      }
    }
  }
  // Trailing metadata event so every real event above ends with a comma.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
         "{\"name\":\"iamdb_bench\"}}\n]}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  bool ok = std::fflush(f) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok ? written : -1;
}

RequestScope::RequestScope(const char* name)
    : name_(name), saved_parent_(tls_parent) {
  State()->caller = true;
  BeginRequest();
  span_id_ = tls_sampled ? NewSpanId() : 0;
  if (span_id_ != 0) tls_parent = span_id_;
  start_ns_ = NowNs();
}

RequestScope::~RequestScope() {
  uint64_t end_ns = NowNs();
  ThreadState* st = State();
  st->Add(LayerTotals::kRequests, 1);
  st->Add(LayerTotals::kRequestNs, end_ns - start_ns_);
  if (span_id_ != 0) {
    Keep(st, name_, "request", start_ns_, end_ns, span_id_, saved_parent_,
         tls_request);
  }
  tls_parent = saved_parent_;
  EndRequest();
}

WireScope::WireScope() : saved_parent_(tls_parent) {
  span_id_ = tls_sampled ? NewSpanId() : 0;
  if (span_id_ != 0) tls_parent = span_id_;
  start_ns_ = NowNs();
}

WireScope::~WireScope() {
  uint64_t end_ns = NowNs();
  ThreadState* st = State();
  st->Add(LayerTotals::kWireNs, end_ns - start_ns_);
  if (span_id_ != 0) {
    Keep(st, "round_trip", "server", start_ns_, end_ns, span_id_,
         saved_parent_, tls_request);
  }
  tls_parent = saved_parent_;
}

Status TimingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> inner;
  Status s = target()->NewRandomAccessFile(fname, &inner);
  if (s.ok()) {
    *result = std::make_unique<TimedRandomAccessFile>(std::move(inner),
                                                      Classify(fname));
  }
  return s;
}

Status TimingEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> inner;
  Status s = target()->NewWritableFile(fname, &inner);
  if (s.ok()) {
    FileClass file = Classify(fname);
    State()->Add(LayerTotals::CreatedIndex(file), 1);
    *result = std::make_unique<TimedWritableFile>(std::move(inner), file);
  }
  return s;
}

Status TimingEnv::NewAppendableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> inner;
  Status s = target()->NewAppendableFile(fname, &inner);
  if (s.ok()) {
    *result =
        std::make_unique<TimedWritableFile>(std::move(inner), Classify(fname));
  }
  return s;
}

Status TimedDB::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  CallScope call("put");
  return target_->Put(options, key, value);
}

Status TimedDB::Delete(const WriteOptions& options, const Slice& key) {
  CallScope call("delete");
  return target_->Delete(options, key);
}

Status TimedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  CallScope call("write");
  return target_->Write(options, updates);
}

Status TimedDB::Get(const ReadOptions& options, const Slice& key,
                    std::string* value) {
  CallScope call("get");
  return target_->Get(options, key, value);
}

void TimedDB::MultiGet(const ReadOptions& options, size_t count,
                       const Slice* keys, std::string* values,
                       Status* statuses) {
  CallScope call("multiget");
  target_->MultiGet(options, count, keys, values, statuses);
}

Iterator* TimedDB::NewIterator(const ReadOptions& options) {
  CallScope call("iter.new");
  return new TimedIterator(target_->NewIterator(options));
}

const Snapshot* TimedDB::GetSnapshot() {
  CallScope call("snapshot");
  return target_->GetSnapshot();
}

void TimedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  CallScope call("snapshot.release");
  target_->ReleaseSnapshot(snapshot);
}

}  // namespace iamdb::bench
