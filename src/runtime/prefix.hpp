// Prefix-sharing for fault-injection campaigns.
//
// Every injection job of a grid cell simulates the same fault-free prefix
// before its first error arrival — at realistic soft-error rates, most
// Monte-Carlo trials have NO arrival at all and re-simulate the entire
// golden run for an outcome that is provably identical to it. The prefix
// engine removes that redundancy:
//
//  * For each unique fault-free configuration it simulates the GOLDEN
//    (ser=0) run once, dropping periodic in-memory checkpoints
//    (System::save_checkpoint_bytes — the buffer-backed container path, no
//    temp-file round trip) plus a per-interval architectural-state
//    fingerprint stream (System::state_fingerprint).
//  * Each injection job draws its fault channel out of band (the same
//    engine::FaultChannel::draw construction performs), restores from the
//    latest golden checkpoint that provably precedes its first arrival,
//    installs its own channel by assignment (System::fault_channel), and
//    runs forward.
//  * Convergence-based early termination: once a job's arrivals are
//    exhausted, its per-interval fingerprint is compared against the golden
//    stream — on match the outcome is provably masked, and the job finishes
//    immediately with the golden run's remaining counters spliced in,
//    byte-identical to the full run (a job with an empty schedule converges
//    at cycle 0 and returns the golden result outright).
//
// Golden traces live in a bounded LRU cache shared by all workers of a
// process. Everything here is an execution strategy, never a result change:
// prefix-shared campaign output is byte-identical to the naive full-run
// campaign (enforced by parity tests and the bench_injection_prefix gate).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"

namespace unsync::runtime {

// PrefixOptions lives in runtime/campaign.hpp (CampaignRunner::Options
// embeds it); everything else about prefix sharing lives here.

/// Aggregate prefix-engine counters, published as campaign.prefix_cache.*
/// on the timing-only metrics tree (they depend on worker interleaving the
/// way steal counters do) and surfaced by `campaign status`.
struct PrefixStats {
  std::uint64_t goldens_built = 0;   ///< golden runs simulated
  std::uint64_t hits = 0;            ///< cache hits (golden already present)
  std::uint64_t misses = 0;          ///< cache misses (build required)
  std::uint64_t evictions = 0;       ///< golden traces evicted by the LRU
  std::uint64_t bytes = 0;           ///< checkpoint bytes currently cached
  std::uint64_t restore_ns = 0;      ///< time spent in load_checkpoint_bytes
  std::uint64_t cycles_skipped = 0;  ///< simulated cycles not re-executed
  std::uint64_t jobs_restored = 0;   ///< jobs seeded from a golden checkpoint
  std::uint64_t jobs_spliced = 0;    ///< jobs finished early by convergence
  std::uint64_t jobs_bypassed = 0;   ///< jobs that ran the naive path

  void merge(const PrefixStats& o);
  /// Renders the campaign.prefix_cache.* subtree.
  obs::MetricsSnapshot snapshot() const;

  /// Binary codec for the journal "stats" line (campaign status reads it
  /// back without re-running anything). decode() returns nullopt on any
  /// truncation / trailing-bytes / corruption.
  std::string encode() const;
  static std::optional<PrefixStats> decode(std::string blob);
};

/// The per-interval record of one golden (fault-free) run.
struct GoldenTrace {
  struct Snap {
    Cycle boundary = 0;           ///< cycle count at the snapshot
    std::string state;            ///< "unsync.ckpt.v1" container blob
    std::vector<SeqNum> progress; ///< per-group commit watermark
  };

  Cycle interval = 0;
  /// Fingerprint at boundary k*interval lives at [k-1]. Never thinned —
  /// 8 bytes per boundary.
  std::vector<std::uint64_t> fingerprints;
  /// Checkpoints, ascending by boundary; may be thinned under cache
  /// pressure (restores then fall back to an earlier boundary).
  std::vector<Snap> snaps;
  core::RunResult final_result;
  std::size_t bytes = 0;  ///< total checkpoint-blob bytes

  /// Golden fingerprint at `boundary`, or nullptr when the golden run
  /// ended before it.
  const std::uint64_t* fingerprint_at(Cycle boundary) const;
};

/// Draws a job's fault channel without constructing a system: equal to
/// the channel a freshly built system of the same cell holds (pinned by
/// test_prefix). The baseline has no error process, so its channel is
/// empty whatever the job's ser.
engine::FaultChannel compute_fault_channel(const SimJob& job,
                                           std::uint64_t seed);

/// Cache key of the golden run `job` shares: the job identity minus the
/// fault channel (ser zeroed, label dropped, and — for trace workloads,
/// whose streams are seed-independent — the seed dropped too, so every
/// Monte-Carlo trial of a trace cell shares one golden).
std::string golden_job_key(const SimJob& job, std::uint64_t seed);

/// Campaign-level prefix-sharing engine: a golden-trace LRU cache plus the
/// restore / convergence-splice job path. Thread-safe; one engine is shared
/// by all workers of a campaign (per process in the distributed fabric).
class PrefixEngine {
 public:
  explicit PrefixEngine(PrefixOptions options) : options_(options) {}
  PrefixEngine(const PrefixEngine&) = delete;
  PrefixEngine& operator=(const PrefixEngine&) = delete;

  /// Runs one job through the prefix-sharing path. Byte-identical to
  /// CampaignRunner::run_job(job, seed) — jobs the engine cannot share
  /// (non-detailed tier, models without the prefix hooks) fall back to it.
  core::RunResult run_job(const SimJob& job, std::uint64_t seed);

  /// Execution-order permutation for a grid: jobs grouped by golden
  /// configuration (so each golden is built once and stays hot), ordered
  /// by first arrival within a group. Results are still reported by the
  /// true submission index — this only reorders the claim sequence.
  std::vector<std::size_t> schedule_order(const std::vector<SimJob>& jobs,
                                          std::uint64_t campaign_seed) const;

  /// Counts a job the campaign layer routed around the engine entirely
  /// (screening / metrics-collection paths).
  void note_bypass();

  const PrefixOptions& options() const { return options_; }
  PrefixStats stats() const;

 private:
  struct CacheEntry {
    bool ready = false;
    std::shared_ptr<const GoldenTrace> trace;  ///< null = unsupported cell
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  std::shared_ptr<const GoldenTrace> acquire_golden(const SimJob& job,
                                                    std::uint64_t seed);
  std::shared_ptr<const GoldenTrace> build_golden(const SimJob& job,
                                                  std::uint64_t seed) const;
  void insert_golden(const std::string& key,
                     std::shared_ptr<const GoldenTrace> trace);
  void evict_over_budget_locked(const std::string& keep);

  PrefixOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< most recently used first
  PrefixStats stats_;
};

}  // namespace unsync::runtime
