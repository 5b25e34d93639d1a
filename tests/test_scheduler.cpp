// The work-stealing scheduler's contract: every index exactly once at any
// batch size / thread count (so at every auto-sized chunk shape), steals
// actually happen under skew, stats account for all work, and — the
// headline — campaign output stays byte-identical however the grid was
// scheduled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/thread_pool.hpp"

namespace unsync {
namespace {

using runtime::CampaignRunner;
using runtime::SchedulerStats;
using runtime::SimJob;
using runtime::SystemKind;
using runtime::ThreadPool;

void expect_each_index_once(ThreadPool& pool, std::size_t n,
                            SchedulerStats* stats = nullptr) {
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); }, stats);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

/// Claims a batch of n indices takes at pool width `width`: shard w owns
/// [w*n/W, (w+1)*n/W) and every claim, local or stolen, takes the next
/// `chunk` indices of one shard, with chunk = max(1, min(64, n/(8*W))).
std::uint64_t expected_claims(std::size_t n, unsigned width) {
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min<std::size_t>(64, n / (8 * width)));
  std::uint64_t claims = 0;
  for (unsigned w = 0; w < width; ++w) {
    const std::size_t len = n * (w + 1) / width - n * w / width;
    claims += (len + chunk - 1) / chunk;
  }
  return claims;
}

TEST(Scheduler, EveryIndexOnceAcrossChunksAndWidths) {
  // The chunk size follows n. At widths 2, 3 and 8: n <= 7 claims single
  // indices, n=64 claims chunks of 4, 2 and 1, n=1000 claims ragged chunks
  // (62, 41 and 15, none of which divides its shard) and n=5000 claims the
  // cap of 64.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u, 5000u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      SchedulerStats stats;
      expect_each_index_once(pool, n, &stats);
      const auto t = stats.total();
      EXPECT_EQ(t.indices, n);
      if (threads > 1 && n > 0) {
        EXPECT_EQ(t.local_claims + t.steals, expected_claims(n, threads));
      }
    }
  }
}

TEST(Scheduler, StatsAccountForEveryIndex) {
  ThreadPool pool(4);
  for (const std::size_t n : {20u, 500u, 5000u}) {
    SchedulerStats stats;
    expect_each_index_once(pool, n, &stats);
    ASSERT_EQ(stats.workers.size(), pool.size());
    EXPECT_EQ(stats.total().indices, n);
    EXPECT_GT(stats.total().local_claims + stats.total().steals, 0u);
  }
}

TEST(Scheduler, SerialFallbackFillsStats) {
  ThreadPool pool(1);
  SchedulerStats stats;
  expect_each_index_once(pool, 32, &stats);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_EQ(stats.workers[0].indices, 32u);
  EXPECT_EQ(stats.workers[0].steals, 0u);
}

TEST(Scheduler, SkewForcesSteals) {
  // All the real work sits in worker 0's shard: indices [0, n/width) are
  // slow, everything else is instant. The other workers drain their shards
  // immediately and must steal from shard 0 to finish the batch. n < 16
  // per worker keeps the auto-sized chunk at 1, so single indices stay
  // stealable.
  ThreadPool pool(4);
  const std::size_t n = 32;
  const std::size_t slow_end = n / pool.size();
  std::vector<std::atomic<int>> hits(n);
  SchedulerStats stats;
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i < slow_end) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      },
      &stats);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(stats.total().indices, n);
  EXPECT_GT(stats.total().steals, 0u) << "skewed batch finished with no steal";
  // A worker that steals first had to notice its own shard was dry; the
  // sweep over drained victims also records failures.
  EXPECT_GT(stats.total().steal_failures, 0u);
}

TEST(Scheduler, ExceptionReportingIsScheduleIndependent) {
  // The lowest failing index wins at every width and chunk shape (n=48
  // claims single indices, n=4800 claims chunks of 64 or 150/width).
  for (const unsigned threads : {2u, 4u}) {
    for (const std::size_t n : {48u, 4800u}) {
      ThreadPool pool(threads);
      try {
        pool.parallel_for(n, [&](std::size_t i) {
          if (i == 41 || i == 11) {
            throw std::runtime_error("job " + std::to_string(i));
          }
        });
        FAIL() << "expected parallel_for to rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "job 11");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CampaignRunner x scheduler: the determinism contract
// ---------------------------------------------------------------------------

std::vector<SimJob> small_grid() {
  std::vector<SimJob> jobs;
  const char* profiles[] = {"gzip", "susan", "mcf"};
  for (const auto* p : profiles) {
    for (const auto s : {SystemKind::kBaseline, SystemKind::kUnSync}) {
      SimJob j;
      j.label = p;
      j.profile = p;
      j.system = s;
      j.insts = 2000;
      j.ser_per_inst = 1e-3;
      jobs.push_back(j);
    }
  }
  return jobs;
}

TEST(SchedulerDeterminism, JsonByteIdenticalAcrossThreadsAndSchedules) {
  const auto jobs = small_grid();
  CampaignRunner::Options base;
  base.campaign_seed = 23;
  base.collect_metrics = true;
  base.threads = 1;
  const std::string reference = CampaignRunner(base).run(jobs).to_json();

  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignRunner::Options opts = base;
    opts.threads = threads;
    EXPECT_EQ(CampaignRunner(opts).run(jobs).to_json(), reference);
  }
}

TEST(SchedulerDeterminism, ForcedStealScheduleDoesNotChangeOutput) {
  // Six jobs over two workers claim single indices (the auto-sized chunk
  // is 1) and the heaviest job sits first, so worker 1 drains its own
  // shard and steals the rest of worker 0's; the output must not care.
  auto jobs = small_grid();
  jobs[0].insts = 20000;  // a straggler in worker 0's shard
  CampaignRunner::Options serial;
  serial.campaign_seed = 9;
  serial.collect_metrics = true;
  serial.threads = 1;
  CampaignRunner::Options steal_heavy = serial;
  steal_heavy.threads = 2;
  const auto a = CampaignRunner(serial).run(jobs);
  const auto b = CampaignRunner(steal_heavy).run(jobs);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.metrics.to_csv(), b.metrics.to_csv());
}

TEST(SchedulerMetrics, OnlyInTimingJson) {
  const auto jobs = small_grid();
  CampaignRunner::Options opts;
  opts.threads = 2;
  const auto out = CampaignRunner(opts).run(jobs);
  EXPECT_FALSE(out.scheduler_metrics.empty());
  EXPECT_EQ(out.to_json().find("scheduler"), std::string::npos)
      << "scheduler counters leaked into the deterministic surface";
  EXPECT_NE(out.to_json(0, true).find("campaign.scheduler.workers"),
            std::string::npos);
  EXPECT_NE(out.to_json(0, true).find("campaign.scheduler.job_wall_seconds"),
            std::string::npos);
}

TEST(SchedulerMetrics, CountersCoverTheGrid) {
  const auto jobs = small_grid();
  CampaignRunner::Options opts;
  opts.threads = 4;
  const auto out = CampaignRunner(opts).run(jobs);
  const auto it = out.scheduler_metrics.counters.find(
      "campaign.scheduler.local_claims");
  ASSERT_NE(it, out.scheduler_metrics.counters.end());
  const auto workers =
      out.scheduler_metrics.counters.find("campaign.scheduler.workers");
  ASSERT_NE(workers, out.scheduler_metrics.counters.end());
  EXPECT_EQ(workers->second, 4u);
}

}  // namespace
}  // namespace unsync
