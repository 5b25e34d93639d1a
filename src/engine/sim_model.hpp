// SimModel: the tier-agnostic simulation-model interface.
//
// Every way of producing a RunResult for a (system, workload, SER) cell is a
// SimModel. Two tiers exist today:
//
//   - kDetailed — the cycle-accurate path: SimKernel driving a SystemPolicy
//     (core::System and its five architectures). Bit-exact, resumable,
//     checkpointable; results carry approximate=false.
//   - kFast — the interval/analytical path (engine::IntervalModel): one
//     linear pass over the same workload streams and the same fault-arrival
//     schedule, computing per-interval CPI from miss/branch/dependence
//     statistics instead of simulating pipeline structures. 10-100x faster;
//     results carry approximate=true and are validated against the detailed
//     tier by tools/validate_fast_tier + bench_tier_screening (error bounds
//     committed in bench/BENCH_baseline.json, CI-gated).
//
// Contract notes:
//   - run() is resumable on the detailed tier (absolute max_cycles; run(N)
//     then run() equals run()). The fast tier recomputes from scratch on
//     every call: run(N) returns a partial estimate clamped at N cycles, and
//     a later run() ignores it and re-estimates the full program.
//   - Results from different tiers for the same cell agree exactly on
//     workload identity (instructions, thread_instructions) and on
//     errors_injected (both draw arrivals through engine::FaultChannel with
//     the same seed); cycles/CPI and recovery-cost metrics are approximate
//     on the fast tier, with per-benchmark bounds (docs/TIERS.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "engine/run_result.hpp"

namespace unsync::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace unsync::obs

namespace unsync::engine {

/// Which model produced a result. kDetailed = cycle-accurate SimKernel,
/// kFast = interval/analytical model. (Campaigns additionally accept a
/// "screen" mode — fast sweep + detailed re-run of interesting cells — but
/// that is a campaign policy, not a model tier: every individual run is one
/// of these two.)
enum class Tier : std::uint8_t {
  kDetailed = 0,
  kFast = 1,
};

/// Stable lowercase name ("detailed" / "fast") used in JSON and CLI keys.
const char* name_of(Tier tier);

/// Parses "detailed" / "fast" (exact match); nullopt otherwise.
std::optional<Tier> parse_tier(const std::string& text);

/// A simulation model: anything that turns a configured (system, workload,
/// fault schedule) cell into a RunResult.
class SimModel {
 public:
  virtual ~SimModel() = default;

  /// Runs (or, on the detailed tier, resumes) the simulation up to the
  /// absolute cycle max_cycles and returns the accumulated result.
  virtual RunResult run(Cycle max_cycles = ~Cycle{0}) = 0;

  /// The tier this model implements. Results it returns carry
  /// approximate = (tier() == Tier::kFast).
  virtual Tier tier() const = 0;

  /// Human-readable architecture name ("unsync", "reunion", ...).
  virtual const std::string& name() const = 0;

  /// Attaches (or detaches, with nullptr) observability sinks. Metrics are
  /// published when a run completes; the fast tier publishes under a
  /// "<system>.fast." subtree and ignores the trace sink.
  virtual void set_observability(obs::MetricsRegistry* metrics,
                                 obs::TraceSink* trace) = 0;
};

inline const char* name_of(Tier tier) {
  return tier == Tier::kFast ? "fast" : "detailed";
}

inline std::optional<Tier> parse_tier(const std::string& text) {
  if (text == "detailed") return Tier::kDetailed;
  if (text == "fast") return Tier::kFast;
  return std::nullopt;
}

}  // namespace unsync::engine
