#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace unsync::runtime {

namespace {

/// Splitmix-style mixer: a cheap per-worker PRNG for victim selection.
/// Seeded from the worker slot only — never from time — so runs are
/// repeatable, which matters for debugging scheduler issues (results never
/// depend on the steal order either way).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t auto_chunk(std::size_t n, unsigned width) {
  const std::size_t per = n / (8 * static_cast<std::size_t>(width));
  return std::max<std::size_t>(1, std::min<std::size_t>(64, per));
}

}  // namespace

unsigned ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_threads();
  if (threads > 1) workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_range(Batch& batch, std::size_t begin, std::size_t end,
                           WorkerStats& ws) {
  for (std::size_t i = begin; i < end; ++i) {
    ++ws.indices;
    try {
      (*batch.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mu);
      batch.errors.emplace_back(i, std::current_exception());
    }
  }
}

void ThreadPool::drain(Batch& batch, unsigned slot) {
  WorkerStats& ws = batch.ws[slot].s;

  // Fast path: chunked claims off the worker's own shard — the only line
  // this fetch_add touches is slot-private until the shard drains, so
  // short-job grids scale without a shared hot spot.
  Shard& own = batch.shards[slot];
  for (;;) {
    const std::size_t i = own.next.fetch_add(batch.chunk,
                                             std::memory_order_relaxed);
    if (i >= own.end) break;
    ++ws.local_claims;
    run_range(batch, i, std::min(i + batch.chunk, own.end), ws);
  }

  // Slow path: the local shard is dry. Probe the other shards in a
  // per-worker pseudo-random order and steal chunks from whichever still
  // has work; stop only when a full sweep finds every shard drained (no
  // shard ever refills, so that state is terminal).
  const unsigned width = batch.width;
  if (width <= 1) return;
  std::uint64_t rng = mix64(slot + 1);
  // idle_since marks when this worker last ran out of claimed work; the
  // gap to the next successful claim (or to giving up) is idle time.
  auto idle_since = std::chrono::steady_clock::now();
  auto account_idle = [&ws, &idle_since] {
    ws.idle_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - idle_since)
            .count());
  };
  for (;;) {
    bool any_claimed = false;
    rng = mix64(rng);
    const unsigned offset = static_cast<unsigned>(rng % width);
    for (unsigned probe = 0; probe < width; ++probe) {
      const unsigned victim = (offset + probe) % width;
      if (victim == slot) continue;
      Shard& shard = batch.shards[victim];
      // Relaxed pre-check keeps drained shards read-only (no dirtying a
      // line another thief is also probing).
      if (shard.next.load(std::memory_order_relaxed) >= shard.end) {
        ++ws.steal_failures;
        continue;
      }
      const std::size_t i =
          shard.next.fetch_add(batch.chunk, std::memory_order_relaxed);
      if (i >= shard.end) {
        ++ws.steal_failures;
        continue;
      }
      ++ws.steals;
      any_claimed = true;
      account_idle();
      run_range(batch, i, std::min(i + batch.chunk, shard.end), ws);
      idle_since = std::chrono::steady_clock::now();
    }
    if (!any_claimed) {
      account_idle();
      return;
    }
  }
}

void ThreadPool::worker_loop(unsigned slot) {
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      batch = batch_;
      // Registration happens in the same critical section that reads
      // batch_: once the submitter observes active_ == 0 with batch_
      // cleared, no worker can still reach this batch.
      if (batch) ++active_;
    }
    if (!batch) continue;
    drain(*batch, slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              SchedulerStats* stats) {
  if (stats) {
    stats->workers.assign(workers_.empty() ? 1 : size(), WorkerStats{});
  }
  if (n == 0) return;
  if (workers_.empty()) {
    // Serial fallback: the exact loop a single-threaded harness would run
    // (exceptions propagate from the first failing index directly).
    for (std::size_t i = 0; i < n; ++i) body(i);
    if (stats) {
      stats->workers[0].indices = n;
      stats->workers[0].local_claims = 1;
    }
    return;
  }

  const unsigned width = size();
  Batch batch;
  batch.body = &body;
  batch.chunk = auto_chunk(n, width);
  batch.width = width;
  batch.ws = std::make_unique<PaddedWorkerStats[]>(width);
  // Balanced contiguous shards: shard w owns [w*n/W, (w+1)*n/W).
  batch.shards = std::make_unique<Shard[]>(width);
  for (unsigned w = 0; w < width; ++w) {
    batch.shards[w].next.store(n * w / width, std::memory_order_relaxed);
    batch.shards[w].end = n * (w + 1) / width;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    ++generation_;
  }
  cv_work_.notify_all();
  drain(batch, 0);  // the submitting thread works too (slot 0)

  // drain() returning here means every index was claimed; registered
  // workers may still be finishing their last claims. Clearing batch_
  // first keeps late-waking workers from joining a finished batch.
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = nullptr;
    cv_done_.wait(lock, [&] { return active_ == 0; });
  }

  if (stats) {
    for (unsigned w = 0; w < width; ++w) stats->workers[w] = batch.ws[w].s;
  }

  if (!batch.errors.empty()) {
    const auto first = std::min_element(
        batch.errors.begin(), batch.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
  }
}

}  // namespace unsync::runtime
