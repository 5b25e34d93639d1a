// Work-queue thread pool for campaign-level parallelism.
//
// The simulator itself is single-threaded by design (a cycle-level model
// has a serial dependence chain); what *is* embarrassingly parallel is the
// evaluation layer: (benchmark x architecture x config-point x seed) grids
// where every job is an independent simulation. This pool runs such grids
// across std::thread workers.
//
// Scheduling: the index space is split into one contiguous shard per
// worker; each worker claims chunks of K indices from its own shard with a
// fetch_add on a cache-line-private counter (the lock-free fast path — no
// two workers touch the same line while their shards last), and only when
// its shard drains does it probe the other shards in a per-worker
// pseudo-random order and steal chunks from whichever still has work. Load
// imbalance never leaves a core idle while work remains. K is
// max(1, min(64, n/(8*threads))): large enough to amortize the atomic,
// small enough that stealing can still rebalance a skewed tail.
//
// Contiguous shards also matter for claim *order*: callers that group
// related jobs next to each other (PrefixEngine::schedule_order puts jobs
// sharing a golden run side by side) get one group per worker at the
// start instead of every worker piling onto the first group.
//
// Determinism contract: the pool never influences simulation results. Work
// is identified by dense indices [0, n); every index runs exactly once;
// callers must derive any randomness from the job *index*, never from
// thread identity, claim order or steal schedule. With threads == 1 no
// worker threads exist at all and the body runs inline on the caller,
// byte-for-byte reproducing a serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace unsync::runtime {

/// What one worker did during a parallel_for (measurement only — never
/// part of any deterministic result surface).
struct WorkerStats {
  std::uint64_t indices = 0;       ///< body invocations on this worker
  std::uint64_t local_claims = 0;  ///< chunks claimed from the own shard
  std::uint64_t steals = 0;        ///< chunks claimed from another shard
  std::uint64_t steal_failures = 0;  ///< probes that found a drained shard
  std::uint64_t idle_ns = 0;  ///< time spent hunting for work after the
                              ///< local shard drained
};

/// Scheduler counters for one parallel_for, per worker slot (slot 0 is the
/// calling thread).
struct SchedulerStats {
  std::vector<WorkerStats> workers;

  WorkerStats total() const {
    WorkerStats t;
    for (const auto& w : workers) {
      t.indices += w.indices;
      t.local_claims += w.local_claims;
      t.steals += w.steals;
      t.steal_failures += w.steal_failures;
      t.idle_ns += w.idle_ns;
    }
    return t;
  }
};

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates in every
  /// parallel_for, so `threads` is the total concurrency). 0 means
  /// hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, n), distributing indices across the
  /// workers and the calling thread; returns when all n calls finished.
  /// If any body throws, every remaining index still runs, and afterwards
  /// the exception of the *lowest* failed index is rethrown — so error
  /// reporting is independent of scheduling order. Fills `*stats` (when
  /// non-null) with per-worker scheduler counters for this batch.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    SchedulerStats* stats = nullptr);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned default_threads();

 private:
  /// One worker's claim state, padded so the owner's fetch_add fast path
  /// never shares a cache line with a neighbour.
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };
  struct alignas(64) PaddedWorkerStats {
    WorkerStats s;
  };

  struct Batch {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t chunk = 1;
    unsigned width = 1;  // worker slots (pool size)
    std::unique_ptr<Shard[]> shards;           // width entries
    std::unique_ptr<PaddedWorkerStats[]> ws;   // width entries
    std::mutex error_mu;
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  };

  void worker_loop(unsigned slot);
  /// Claims and runs indices of `batch` as worker `slot` until none remain.
  static void drain(Batch& batch, unsigned slot);
  static void run_range(Batch& batch, std::size_t begin, std::size_t end,
                        WorkerStats& ws);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Batch* batch_ = nullptr;        // guarded by mu_
  std::uint64_t generation_ = 0;  // guarded by mu_; bumped per batch
  unsigned active_ = 0;           // guarded by mu_; workers inside drain()
  bool stop_ = false;             // guarded by mu_
};

}  // namespace unsync::runtime
