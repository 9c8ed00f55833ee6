#include "support/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "support/log.hpp"
#include "support/metrics.hpp"

namespace adsd {

namespace {

// Set for the whole duration of run_job() on the executing thread; global
// across pool instances so stacked pools cannot oversubscribe either.
thread_local bool tls_in_parallel_region = false;

// Participants (workers plus calling threads) currently inside run_job(),
// process-wide like the region flag. Only published as a gauge when metrics
// are armed; the two relaxed atomics per job participation are noise next to
// the job itself.
std::atomic<std::size_t> g_active_participants{0};

struct RegionGuard {
  bool saved = tls_in_parallel_region;
  RegionGuard() { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = saved; }
};

}  // namespace

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 4;
    }
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  ADSD_LOG_DEBUG("support/thread_pool", "pool started",
                 {"workers", threads});
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (stopping_ && jobs_.empty()) {
        return;
      }
      job = jobs_.front();
      jobs_.pop();
    }
    run_job(*job);
  }
}

void ThreadPool::run_job(Job& job) {
  RegionGuard region;
  const std::size_t active =
      g_active_participants.fetch_add(1, std::memory_order_relaxed) + 1;
  if (MetricsRegistry* metrics = MetricsRegistry::armed()) {
    metrics->gauge("thread_pool_active_participants")
        .set(static_cast<double>(active));
  }
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.grain);
    if (begin >= job.n) {
      break;
    }
    const std::size_t end = std::min(begin + job.grain, job.n);
    try {
      (*job.body)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) {
        job.error = std::current_exception();
      }
    }
  }
  g_active_participants.fetch_sub(1, std::memory_order_relaxed);
  // Check in under done_mutex: once the caller's wait predicate sees the
  // final count it returns and ends the stack Job, so no participant may
  // touch the job after it releases the lock.
  std::lock_guard<std::mutex> lock(job.done_mutex);
  if (++job.done == job.tasks) {
    job.done_cv.notify_all();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (grain == 0) {
    grain = std::max<std::size_t>(1, n / (4 * workers_.size()));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  // Nested calls run inline: enqueuing from inside a chunk body risks
  // deadlock (all workers blocked as nested callers with nobody left to
  // drain the queue) and oversubscription; the outer call already owns the
  // pool's parallelism.
  if (chunks == 1 || workers_.size() == 1 || tls_in_parallel_region) {
    if (MetricsRegistry* metrics = MetricsRegistry::armed()) {
      metrics->counter("thread_pool_inline_runs_total").add();
    }
    for (std::size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(begin + grain, n));
    }
    return;
  }

  Job job;
  job.n = n;
  job.grain = grain;
  job.body = &body;
  // The calling thread takes one participant slot, so only tasks - 1
  // pointers are queued; the Job outlives them because this call blocks
  // until every participant has checked in.
  job.tasks = std::min(workers_.size(), chunks);

  std::size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t t = 0; t + 1 < job.tasks; ++t) {
      jobs_.push(&job);
    }
    queue_depth = jobs_.size();
  }
  if (MetricsRegistry* metrics = MetricsRegistry::armed()) {
    metrics->counter("thread_pool_jobs_total").add();
    metrics->gauge("thread_pool_workers")
        .set(static_cast<double>(workers_.size()));
    metrics->gauge("thread_pool_queue_depth")
        .set(static_cast<double>(queue_depth));
  }
  if (job.tasks > 2) {
    cv_.notify_all();
  } else {
    cv_.notify_one();
  }
  run_job(job);

  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&] { return job.done == job.tasks; });
  }
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (n == 1 || workers_.size() == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  // Index granularity (grain 1) preserves the original dynamic balancing of
  // coarse, uneven items like DALTA candidate evaluations.
  parallel_for_chunks(n, 1, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      body(i);
    }
  });
}

namespace {

std::unique_ptr<ThreadPool>& shared_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& shared_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(shared_mutex());
  auto& slot = shared_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>();
  }
  return *slot;
}

void ThreadPool::configure_shared(std::size_t threads) {
  std::lock_guard<std::mutex> lock(shared_mutex());
  shared_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace adsd
