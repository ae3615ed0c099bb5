// Fixed-size worker pool running background flushes and compactions.
// The paper's IamDB supports parallel background compaction (like RocksDB);
// the pool size is the "-nt" knob in the evaluation.
//
// Two priority lanes: kHigh work (immutable-memtable flushes — the jobs the
// write path hard-stalls on) is always dequeued before kLow work (merges,
// subcompaction shards).  DBImpl's background workers run one job per
// task and re-queue any further work as new tasks, so the high lane is
// consulted at every job boundary: a queued merge never delays a flush by
// more than the one task each worker is already running.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iamdb {

class ThreadPool {
 public:
  enum class Lane { kHigh, kLow };

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue work; runs on some worker thread.  Safe from any thread,
  // including from within a task.  Returns true if the work was accepted;
  // false — a defined no-op, the work is dropped — when the pool is
  // already shutting down (e.g. a server drain racing pool destruction).
  // Callers that must not lose work check the result and run inline.
  // The single-argument form enqueues on the low lane.
  [[nodiscard]] bool Schedule(std::function<void()> work) {
    return Schedule(Lane::kLow, std::move(work));
  }
  [[nodiscard]] bool Schedule(Lane lane, std::function<void()> work);

  // Block until both queues are empty and all workers are idle.  New work
  // scheduled by running tasks is waited for too.
  void WaitIdle();

  int num_threads() const { return static_cast<int>(threads_.size()); }
  size_t QueueDepth();            // both lanes
  size_t QueueDepth(Lane lane);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> high_queue_;
  std::deque<std::function<void()>> low_queue_;
  int active_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace iamdb
