// The fast tier: an interval-based analytical core model.
//
// Instead of simulating every pipeline structure cycle by cycle, the
// IntervalModel makes ONE linear pass over each thread's instruction stream
// in fixed-size intervals, classifying ops (loads / stores / branches /
// serializing, register-dependence distances, cache-filter hits) and charging
// each interval an analytical cycle count in the interval-analysis style
// (Eyerman et al.): a base dispatch term bounded by issue width and the
// measured dependence distance, plus miss-event penalties for branch
// mispredictions, serializing drains, L1/L2 misses (the latter overlapped by
// an MLP factor), plus per-architecture steady-state overheads (lockstep
// load checking, Reunion serializing syncs, DMR checkpoint captures).
//
// Fault handling consumes the SAME arrival schedule as the detailed tier —
// one engine::FaultChannel::draw with the same seed and thread lengths —
// so errors_injected and every arrival position match
// the cycle-accurate run EXACTLY; only the error's timing/cost fields are
// approximate. Recovery charges the architecture's penalty (plus, for
// rollback schemes, re-execution of roughly half the rollback window at the
// running CPI; for UnSync forward recovery, the valid-L1-line copy cost from
// the cache filter).
//
// Results carry approximate=true ("unsync.run_result.v2" tier="fast"), are
// NOT resumable or checkpointable, and are validated against the detailed
// tier by tools/validate_fast_tier with CI-gated per-benchmark error bounds
// (bench/BENCH_baseline.json, docs/TIERS.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/core_config.hpp"
#include "engine/sim_model.hpp"
#include "mem/config.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::engine {

/// Architecture abstract: everything the interval model needs to know about
/// a system kind, reduced to analytical knobs. Built by core::make_model
/// from the same SystemParams the detailed tier consumes.
struct IntervalSpec {
  /// Result identity ("baseline", "unsync", ...); RunResult::system.
  std::string system = "baseline";
  /// Redundant cores per thread (CoreStats is replicated per side).
  unsigned group_size = 1;
  /// Whether the architecture consumes a fault-arrival schedule at all
  /// (false for the unprotected baseline).
  bool inject_errors = false;
  /// Error handling class: rollback (re-execution) vs forward recovery.
  bool error_rollback = false;
  /// Fixed penalty charged per handled error (EIH signal + state copy for
  /// UnSync, resync for lockstep, squash/restore penalty for the rollback
  /// schemes). Becomes ErrorEvent::cost (plus the L1 copy term below).
  Cycle error_penalty = 0;
  /// UnSync forward recovery: cycles per valid L1 line copied via the L2.
  Cycle l1_copy_line_cycles = 0;
  /// Rollback schemes: mean re-execution window in instructions (the
  /// fingerprint interval / checkpoint epoch); the model re-charges half a
  /// window of instructions at the running CPI per rollback.
  std::uint64_t rollback_window = 0;
  /// Reunion: extra fetch-drain cycles per serializing instruction (the
  /// cross-core fingerprint comparison the serializing sync forces).
  Cycle serialize_sync_cycles = 0;
  /// Lockstep: checker delay added to every load.
  Cycle load_check_latency = 0;
  /// DMR checkpointing: instructions per epoch and stall per capture.
  std::uint64_t checkpoint_interval = 0;
  Cycle checkpoint_cycles = 0;
};

/// SimModel implementation of the fast tier. Constructed against the same
/// (core config, mem config, SER, seed, streams) cell as a detailed System.
class IntervalModel final : public SimModel {
 public:
  /// Homogeneous: `stream` is cloned once per thread.
  IntervalModel(const IntervalSpec& spec, const cpu::CoreConfig& core,
                const mem::MemConfig& mem, unsigned num_threads,
                double ser_per_inst, std::uint64_t seed,
                const workload::InstStream& stream);

  /// Heterogeneous multiprogramming: one stream per thread.
  IntervalModel(const IntervalSpec& spec, const cpu::CoreConfig& core,
                const mem::MemConfig& mem, unsigned num_threads,
                double ser_per_inst, std::uint64_t seed,
                const std::vector<const workload::InstStream*>& streams);

  /// Recomputes the estimate from scratch on every call (the fast tier is
  /// not resumable): run(N) returns a partial estimate clamped at N cycles;
  /// a later run() re-estimates the full program.
  RunResult run(Cycle max_cycles = ~Cycle{0}) override;

  Tier tier() const override { return Tier::kFast; }
  const std::string& name() const override { return spec_.system; }

  /// Metrics are published under "<system>.fast.*" when a registry is
  /// attached; the trace sink is accepted but unused (no per-event timing
  /// exists to trace).
  void set_observability(obs::MetricsRegistry* metrics,
                         obs::TraceSink* trace) override;

  /// Ops per analytical interval (exposed for tests).
  static constexpr std::uint64_t kIntervalOps = 1024;

 private:
  RunResult estimate(Cycle max_cycles);

  IntervalSpec spec_;
  cpu::CoreConfig core_;
  mem::MemConfig mem_;
  unsigned num_threads_ = 1;
  double ser_per_inst_ = 0.0;
  std::uint64_t seed_ = 42;
  std::vector<std::unique_ptr<workload::InstStream>> streams_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace unsync::engine
