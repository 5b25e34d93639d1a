// Common interface of the simulated CMP systems (baseline / UnSync /
// Reunion): configuration, the run contract, and the result record every
// bench consumes.
//
// Since the engine refactor (docs/ENGINE.md) the cycle loop itself lives in
// engine::SimKernel; a System is an engine::SystemPolicy plus the shared
// core/observability/checkpoint plumbing. The result and helper spellings
// core::RunResult, core::ErrorEvent, core::save_result, core::detail::*
// remain valid aliases of their engine:: homes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/core_config.hpp"
#include "cpu/ooo_core.hpp"
#include "engine/policy.hpp"
#include "fault/avf.hpp"
#include "engine/run_result.hpp"
#include "engine/sim_kernel.hpp"
#include "engine/sim_model.hpp"
#include "engine/stream_utils.hpp"
#include "mem/config.hpp"
#include "mem/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::ckpt {
class Serializer;
class Deserializer;
}  // namespace unsync::ckpt

namespace unsync::core {

/// Shared configuration (Table I defaults).
struct SystemConfig {
  cpu::CoreConfig core;
  mem::MemConfig mem;
  /// Number of application threads. Baseline runs one core per thread;
  /// the redundant systems run one *core pair* per thread.
  unsigned num_threads = 2;
  /// Per-instruction soft-error probability (0 = error-free run).
  double ser_per_inst = 0.0;
  std::uint64_t seed = 42;
  /// Quiescence fast-forwarding (CLI: engine.fast_forward=1): the kernel
  /// jumps over provably-static stall windows. Results are bit-identical
  /// to the naive loop; only wall-clock time changes. See docs/ENGINE.md.
  bool fast_forward = false;
  /// ACE/AVF residency accounting for the uncore (CLI: avf=1; see
  /// docs/FAULTS.md). Observation-only: enabling it never changes simulated
  /// results, and with the default 0 every hook is a null-pointer branch.
  bool avf = false;
  /// Per-uncore-structure protection choice (CLI: protect.<structure>=).
  /// Joined with the measured exposure at report time; does not alter
  /// simulation timing.
  fault::UncorePlan uncore_protect;
};

// The result record and its serialisations live in the engine layer (the
// kernel accumulates them across run() segments); these aliases keep every
// existing core:: spelling valid.
using engine::ErrorEvent;
using engine::RunResult;
using engine::load_error_event;
using engine::load_result;
using engine::save_error_event;
using engine::save_result;

/// A simulated CMP. run() executes every thread's stream to completion (or
/// max_cycles) and reports the aggregate result.
///
/// Resumable-run contract (enforced by the kernel): `max_cycles` is an
/// ABSOLUTE simulated-cycle bound, and run() is continuable — run(N)
/// followed by run() yields the same final result, bit for bit, as a single
/// run(). That, combined with save_checkpoint()/load_checkpoint(), is what
/// lets a mid-run snapshot be restored into a freshly-constructed identical
/// system and resumed to a byte-identical RunResult (docs/CHECKPOINTS.md).
///
/// Observability contract: every system owns a Tracer (wired into its cores
/// and memory hierarchy at construction; free while no sink is attached) and
/// optionally publishes into a MetricsRegistry at the end of run(). Both are
/// attached post-construction via set_observability(). Observability
/// attachments are NOT part of checkpoint state.
class System : public engine::SystemPolicy, public engine::SimModel {
 public:
  ~System() override = default;

  /// Drives this system's policy phases through the shared kernel.
  RunResult run(Cycle max_cycles = ~Cycle{0}) override {
    return kernel_.run(*this, max_cycles, fast_forward_);
  }

  /// Every System is the cycle-accurate implementation of SimModel.
  engine::Tier tier() const override { return engine::Tier::kDetailed; }

  const std::string& name() const override = 0;

  /// Serialises / restores the complete mutable simulation state (cycle
  /// cursor, accumulated result, RNG, memory hierarchy, every core) as one
  /// kernel-level chunk tagged ckpt_tag(). load_state() must be called on a
  /// system constructed with the identical configuration, streams and
  /// parameters as the saved one; mismatches throw ckpt::CkptError.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

  /// Name-tagged checkpoint envelope around save_state()/load_state();
  /// load_checkpoint() rejects a checkpoint taken from a different system
  /// kind (ckpt::CkptError).
  void save_checkpoint(ckpt::Serializer& s) const;
  void load_checkpoint(ckpt::Deserializer& d);

  /// Whole-file convenience: the "unsync.ckpt.v1" container (magic, schema,
  /// CRC-32) written via write-to-temp + atomic rename.
  void save_checkpoint_file(const std::string& path) const;
  void load_checkpoint_file(const std::string& path);

  /// In-memory convenience: the exact bytes save_checkpoint_file() would
  /// write, returned as a "unsync.ckpt.v1" container blob with no
  /// filesystem round trip. load_checkpoint_bytes() verifies magic /
  /// schema / CRC and rejects trailing bytes (ckpt::CkptError), just like
  /// the file path. This is what the campaign prefix-sharing cache holds.
  std::string save_checkpoint_bytes() const;
  void load_checkpoint_bytes(std::string_view blob);

  // ---- Prefix-sharing hooks (docs/CAMPAIGNS.md, "Prefix-sharing") -------
  //
  // A faulty run differs from the ser=0 golden run of the same
  // configuration ONLY in its fault channel — the RNG words and the
  // per-group arrival schedules — until the first arrival fires. Systems
  // that expose that channel let the campaign layer build the golden run
  // once, restore its checkpoints into per-job systems, and install each
  // job's own channel on top.

  /// Whether this system implements the fault-channel / fingerprint hooks
  /// below (i.e. whether golden-run checkpoints can seed faulty runs).
  virtual bool supports_prefix() const { return false; }

  /// Serialises / installs the fault channel: RNG words plus the FULL
  /// per-group arrival schedules (positions, not just the cursor —
  /// save_state pins only the length because construction re-derives the
  /// positions, which a golden-configured system cannot).
  virtual void save_fault_channel(ckpt::Serializer& s) const { (void)s; }
  virtual void load_fault_channel(ckpt::Deserializer& d) { (void)d; }

  /// Per-group commit progress: the same watermark arrival consumption is
  /// keyed on (max retired over the group's cores). Used to pick the
  /// latest golden checkpoint that provably precedes a job's first strike.
  virtual std::vector<SeqNum> group_progress() const { return {}; }

  /// Fingerprintable architectural state: save_policy_state minus the
  /// fault channel. Two runs with equal fingerprints at the same cycle
  /// boundary — and no arrivals left to fire — evolve identically from
  /// there, which is what makes convergence splicing exact.
  virtual void save_fingerprint_state(ckpt::Serializer& s) const {
    (void)s;
  }

  /// ckpt::fingerprint64 over save_fingerprint_state().
  std::uint64_t state_fingerprint() const;

  /// The system's memory hierarchy (every concrete system owns exactly one).
  virtual mem::MemoryHierarchy& memory() = 0;

  /// Toggles quiescence fast-forwarding for subsequent run() calls.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  /// Attaches (or detaches, with nullptr) a metrics registry and a trace
  /// sink. With a registry attached, per-cycle ROB-occupancy histograms are
  /// sampled under "<name>.<core>.rob.occupancy" and the full metric tree is
  /// published when run() finishes. Call before run().
  void set_observability(obs::MetricsRegistry* metrics,
                         obs::TraceSink* trace) override;

  const obs::Tracer& tracer() const { return tracer_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Kernel hook: publishes the standard metric tree plus the system's
  /// extras once the run loop exits.
  void on_run_complete(const RunResult& r) override {
    publish_metrics(r);
    publish_extra_metrics();
  }

 protected:
  explicit System(unsigned num_threads = 1, bool fast_forward = false,
                  bool avf = false)
      : fast_forward_(fast_forward), avf_enabled_(avf),
        num_threads_(num_threads) {}

  /// Derived constructors register every core in group-major order (group 0
  /// side 0, group 0 side 1, ..., matching RunResult::core_stats). Wires the
  /// core to the system tracer and enables uniform metric naming: with one
  /// core per thread the prefix is "<name>.core<i>", otherwise
  /// "<name>.group<g>.core<s>".
  void register_core(cpu::OooCore& core);

  /// Metric path prefix of registered core `i` (see register_core).
  std::string core_prefix(std::size_t i) const;

  /// Publishes the standard metric tree for a finished run: per-core
  /// counters/gauges, the memory hierarchy, and the system-level error /
  /// stall counters. No-op without an attached registry.
  void publish_metrics(const RunResult& r);

  /// System-specific metrics published after the standard tree (UnSync CB
  /// occupancy, DMR-checkpoint counts, ...). No-op by default; only called
  /// with a registry attached is NOT guaranteed — implementations must
  /// check metrics() themselves.
  virtual void publish_extra_metrics() {}

  /// System-specific AVF wiring beyond the shared uncore (UnSync registers
  /// its Communication Buffers as write_buffer instances). Called from
  /// set_observability() when avf=1 and a registry is attached.
  virtual void register_avf(fault::AvfCollector& collector) {
    (void)collector;
  }

  /// True when avf=1 was requested at construction.
  bool avf_enabled() const { return avf_enabled_; }

  /// The shared cycle engine: owns the cycle cursor and the accumulated
  /// result. Derived constructors seed kernel_.result() with the identity
  /// fields (system name, instruction counts).
  engine::SimKernel kernel_;

  /// Event-trace gate shared by the system, its cores and its memory.
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;

 private:
  /// Builds the collector and attaches residency trackers to the memory
  /// hierarchy (bus, DRAM queue, cache tags, MSHRs) and every registered
  /// core's TLBs, then gives the concrete system its register_avf() turn.
  void wire_avf();

  bool fast_forward_ = false;
  bool avf_enabled_ = false;
  unsigned num_threads_ = 1;
  std::vector<cpu::OooCore*> registered_cores_;
  std::unique_ptr<fault::AvfCollector> avf_collector_;
};

namespace detail {

// Hoisted into engine/stream_utils.hpp; the core::detail:: spellings stay.
using engine::lengths_of;
using engine::max_length;
using engine::prewarm_from;
using engine::replicate;

}  // namespace detail

}  // namespace unsync::core
