// Common interface of the simulated CMP systems (baseline / UnSync /
// Reunion): configuration, the run contract, and the result record every
// bench consumes.
//
// Since the engine refactor (docs/ENGINE.md) the cycle loop itself lives in
// engine::SimKernel; a System is an engine::SystemPolicy plus the shared
// redundancy-group, fault-channel, observability and checkpoint plumbing,
// so each concrete system keeps only its own mechanism. The result
// spellings core::RunResult, core::ErrorEvent and core::save_result remain
// valid aliases of their engine:: homes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/core_config.hpp"
#include "cpu/ooo_core.hpp"
#include "engine/error_injection.hpp"
#include "engine/policy.hpp"
#include "engine/run_result.hpp"
#include "engine/sim_kernel.hpp"
#include "engine/sim_model.hpp"
#include "engine/stream_utils.hpp"
#include "fault/avf.hpp"
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
  // per-group arrival schedules — until the first arrival fires. The
  // campaign layer builds the golden run once, restores its checkpoints
  // into per-job systems, and assigns each job's own channel on top.

  /// Every system supports prefix sharing.
  bool supports_prefix() const { return true; }

  /// The fault channel: assigning a channel drawn for the same group count
  /// installs it (prefix sharing); its cursors say whether every arrival has
  /// fired.
  engine::FaultChannel& fault_channel() { return channel_; }
  const engine::FaultChannel& fault_channel() const { return channel_; }

  /// Per-group commit progress: the watermark arrival consumption is keyed
  /// on (max retired over the group's registered cores). Used to pick the
  /// latest golden checkpoint that provably precedes a job's first strike.
  std::vector<SeqNum> group_progress() const;

  /// ckpt::fingerprint64 over the policy state with the fault channel (RNG
  /// words and arrival cursors) left out. Two runs with equal fingerprints
  /// at the same cycle boundary — and no arrivals left to fire — evolve
  /// identically from there, which is what makes convergence splicing
  /// exact.
  std::uint64_t state_fingerprint() const;

  // ---- Group plumbing shared by the systems ------------------------------
  //
  // One group per thread; each member is registered core g * members + m.
  // Systems whose members carry more than a core (UnSync's CBs, the hetero
  // checker) override what differs.

  std::size_t group_count() const override { return num_threads_; }
  std::size_t member_count(std::size_t) const override {
    return cores_per_group_;
  }
  bool member_finished(std::size_t g, std::size_t m) const override {
    return group_core(g, m).done();
  }
  void member_tick(std::size_t g, std::size_t m, Cycle now) override {
    cpu::OooCore& core = group_core(g, m);
    if (!core.done()) core.tick(now);
  }
  Cycle member_next_event(std::size_t g, std::size_t m,
                          Cycle now) const override {
    return group_core(g, m).next_event(now);
  }
  void member_skip_cycles(std::size_t g, std::size_t m, Cycle from,
                          Cycle to) override {
    cpu::OooCore& core = group_core(g, m);
    if (!core.done()) core.skip_cycles(from, to);
  }
  /// The members' bound, vetoed while group g's next arrival is due
  /// (progress only advances through vetoed commits).
  Cycle next_event(std::size_t g, Cycle now) const override;
  /// Pushes every registered core's stats in registration order; systems
  /// add their own counters after calling it.
  void finish(RunResult& r) const override;

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
  explicit System(const SystemConfig& config)
      : fast_forward_(config.fast_forward), avf_enabled_(config.avf),
        num_threads_(config.num_threads) {}

  /// Constructor-body plumbing every system shares, called before its
  /// cores are built: one stream per thread (std::invalid_argument
  /// otherwise), the memory pre-warm, the result identity (name,
  /// instruction counts) and the fault-channel draw over the thread
  /// lengths (ser_per_inst = 0 for a system without an error process).
  void init_groups(const std::vector<const workload::InstStream*>& streams,
                   std::uint64_t seed, double ser_per_inst);

  /// Derived constructors register every core in group-major order (group 0
  /// side 0, group 0 side 1, ..., matching RunResult::core_stats). Wires the
  /// core to the system tracer and enables uniform metric naming: with one
  /// core per thread the prefix is "<name>.core<i>", otherwise
  /// "<name>.group<g>.core<s>".
  void register_core(cpu::OooCore& core);

  /// Metric path prefix of registered core `i` (see register_core).
  std::string core_prefix(std::size_t i) const;

  /// Registered core `m` of group `g`.
  cpu::OooCore& group_core(std::size_t g, std::size_t m) const {
    return *registered_cores_[g * cores_per_group_ + m];
  }

  /// Program progress of group g: its leading core's commit watermark.
  SeqNum progress(std::size_t g) const;

  /// Consumes group g's next arrival once its progress has reached it.
  std::optional<SeqNum> take_arrival(std::size_t g) {
    engine::ArrivalCursor& c = channel_.arrivals[g];
    if (!c.pending(progress(g))) return std::nullopt;
    return c.take();
  }

  /// The fault channel's share of the policy payload: each writer puts the
  /// RNG words and group g's arrival cursor at fixed places of its layout,
  /// and state_fingerprint() runs the same writer with both left out.
  void save_fault_rng(ckpt::Serializer& s) const;
  void save_arrivals(ckpt::Serializer& s, std::size_t g) const;
  void load_fault_rng(ckpt::Deserializer& d);
  void load_arrivals(ckpt::Deserializer& d, std::size_t g);

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
  /// result. init_groups() seeds kernel_.result() with the identity fields
  /// (system name, instruction counts).
  engine::SimKernel kernel_;

  /// RNG plus per-group arrival cursors, drawn by init_groups().
  engine::FaultChannel channel_;

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
  std::size_t cores_per_group_ = 0;
  /// Set while state_fingerprint() runs the policy writer.
  mutable bool fingerprinting_ = false;
  std::unique_ptr<fault::AvfCollector> avf_collector_;
};

}  // namespace unsync::core
