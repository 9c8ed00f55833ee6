#include "support/run_context.hpp"

#include <utility>

#include "support/thread_pool.hpp"

namespace adsd {

namespace {

std::uint64_t splitmix_round(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

RunContext::RunContext(Options options)
    : options_(std::move(options)),
      deadline_(options_.time_budget_s),
      trace_(options_.trace ? std::make_unique<TraceRecorder>() : nullptr),
      qor_(options_.qor ? std::make_unique<QorRecorder>() : nullptr) {
  // Provenance: every context has a run_id, minted here when the caller
  // didn't supply one, and stamped into each recorder so all artifacts of
  // this run join on it.
  if (options_.run_id.empty()) {
    options_.run_id = Logger::mint_run_id();
  }
  if (trace_ != nullptr) {
    trace_->set_run(options_.run_id, options_.parent_id);
  }
  if (qor_ != nullptr) {
    qor_->set_run(options_.run_id, options_.parent_id);
  }
  if (options_.metrics) {
    MetricsRegistry::arm();
    metrics_ = &MetricsRegistry::global();
  }
  if (options_.log) {
    Logger::Options log_options;
    log_options.level = options_.log_level;
    log_options.path = options_.log_path;
    log_options.run_id = options_.run_id;
    log_options.parent_id = options_.parent_id;
    Logger::arm(log_options);
    log_armed_ = true;
  }
}

RunContext::~RunContext() {
  if (metrics_ != nullptr) {
    MetricsRegistry::disarm();
  }
  if (log_armed_) {
    Logger::disarm();
  }
}

std::uint64_t RunContext::stream_seed(std::string_view tag, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c) const {
  // Counter-based keyed hash: fold each component through a full
  // splitmix64 round so neighboring counters (round, round + 1) land in
  // unrelated streams. Deterministic across platforms and call order.
  std::uint64_t h = splitmix_round(options_.seed ^ fnv1a(tag));
  h = splitmix_round(h ^ a);
  h = splitmix_round(h ^ b);
  h = splitmix_round(h ^ c);
  return h;
}

std::uint64_t RunContext::stream_seed(std::string_view tag, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c,
                                      std::uint64_t d) const {
  // The d round only fires for d != 0 so the four-counter form degrades to
  // the three-counter one at d == 0 (callers adding a grid axis keep every
  // existing stream stable).
  std::uint64_t h = stream_seed(tag, a, b, c);
  return d == 0 ? h : splitmix_round(h ^ d);
}

ThreadPool& RunContext::pool() const {
  if (options_.threads == Options::kSharedPool) {
    return ThreadPool::shared();
  }
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!owned_pool_) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  return *owned_pool_;
}

const RunContext& RunContext::fallback() {
  static RunContext ctx;
  return ctx;
}

}  // namespace adsd
