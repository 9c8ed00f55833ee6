#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace adsd {

/// Fixed-size worker pool with a blocking chunked parallel-for.
///
/// The decomposition framework evaluates P independent input partitions per
/// output bit; those are embarrassingly parallel and dominate the runtime on
/// the large-scale (n = 16) experiments, mirroring the paper's use of a
/// multi-core testbed.
///
/// Scheduling: each parallel-for call creates one stack-allocated Job and
/// enqueues a fixed number of pointers to it (at most one per worker), so
/// dispatch cost is independent of the item count — no per-index
/// std::function allocation. Participants (workers plus the calling thread)
/// drain grain-sized index chunks from a shared atomic cursor, so uneven
/// per-item costs still balance dynamically.
///
/// Nesting safety: a parallel-for issued from inside a running chunk body
/// (of any pool) executes its chunks inline on the calling thread instead
/// of enqueuing. Without this, a nested call could deadlock — every worker
/// blocked waiting for a nested job that no free worker exists to drain —
/// or oversubscribe the machine when two pools stack. Inline execution
/// keeps results identical (same chunk bodies, same index coverage) while
/// the outer parallel-for already saturates the pool.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs `body(i)` for every i in [0, n), blocking until all complete.
  /// Exceptions thrown by `body` are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Chunked variant: runs `body(begin, end)` over half-open index ranges
  /// covering [0, n) exactly once, blocking until all complete. `grain == 0`
  /// selects the default chunk size max(1, n / (4 * threads)), which gives
  /// every participant ~4 chunks of load-balancing slack while keeping
  /// cursor contention negligible. Exceptions are rethrown (first one wins);
  /// remaining chunks still run.
  void parallel_for_chunks(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t begin, std::size_t end)>& body);

  /// True while the calling thread is executing a parallel-for chunk body
  /// (worker or participating caller, any pool). Nested parallel-for calls
  /// observe this and run inline.
  static bool in_parallel_region();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& shared();

  /// Replaces the shared pool with one of `threads` workers (0 = hardware
  /// concurrency). Call before any concurrent use of shared() — intended
  /// for CLI startup (--threads) and benchmarks, not for mid-run resizing.
  static void configure_shared(std::size_t threads);

 private:
  /// One parallel-for invocation: lives on the caller's stack for the
  /// duration of the (blocking) call, so queued Job pointers stay valid.
  struct Job {
    std::size_t n = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t tasks = 0;
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::size_t done = 0;  // participants checked in; guarded by done_mutex
    std::condition_variable done_cv;
  };

  void worker_loop();
  static void run_job(Job& job);

  std::vector<std::thread> workers_;
  std::queue<Job*> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace adsd
