// Shared error-injection plumbing for system policies.
//
// Every redundant system consumes a per-group Poisson arrival schedule the
// same way: an error "strikes" when program progress (the leading core's
// commit watermark) crosses the next scheduled position, and handling it
// bumps the same RunResult counters and emits the same trace pair
// (kErrorInjection + kRecovery/kRollback). FaultChannel, ArrivalCursor and
// record_error hoist that pattern out of the per-system duplicates; the
// systems keep only what genuinely differs — recovery-cost models and core
// forward/rollback mechanics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/run_result.hpp"
#include "fault/ser.hpp"
#include "obs/trace.hpp"

namespace unsync::engine {

/// One group's ordered error-arrival schedule plus its consumption cursor.
/// The schedule itself is re-derived deterministically at construction from
/// (seed, ser_per_inst, stream length); only the cursor is checkpoint state.
struct ArrivalCursor {
  std::vector<SeqNum> positions;  ///< ascending commit positions
  std::size_t next = 0;

  /// True when the next scheduled strike has been reached by `progress`.
  bool pending(SeqNum progress) const {
    return next < positions.size() && progress >= positions[next];
  }

  /// Consumes and returns the next arrival position.
  SeqNum take() { return positions[next++]; }

  bool operator==(const ArrivalCursor&) const = default;

  void save_state(ckpt::Serializer& s) const {
    s.u64(positions.size());
    s.u64(next);
  }

  /// `system` names the restoring system in the mismatch error.
  void load_state(ckpt::Deserializer& d, const char* system) {
    if (d.u64() != positions.size()) {
      throw ckpt::CkptError(std::string(system) +
                            " error-arrival schedule mismatch");
    }
    next = d.u64();
  }
};

/// A system's whole fault channel: the RNG that draws every random choice
/// of the error process plus one arrival cursor per redundancy group. A
/// faulty run differs from its ser=0 golden twin only here until the first
/// arrival fires, so the prefix engine installs a job's channel into a
/// golden-configured system by plain assignment. In-process state only: the
/// checkpoint payload carries the RNG words and each cursor, never the
/// positions, which draw() re-derives.
struct FaultChannel {
  Rng rng;
  std::vector<ArrivalCursor> arrivals;  ///< one per group

  /// Seeds the RNG with `seed` and draws group g's schedule over
  /// `lengths[g]` instructions, in group order. Every system, the prefix
  /// engine and the interval model draw through here, so equal inputs give
  /// equal schedules and leave equal RNG words behind.
  void draw(std::uint64_t seed, double ser_per_inst,
            const std::vector<std::uint64_t>& lengths) {
    rng = Rng(seed);
    arrivals.assign(lengths.size(), {});
    for (std::size_t g = 0; g < lengths.size(); ++g) {
      arrivals[g].positions =
          fault::schedule_arrivals(ser_per_inst, lengths[g], rng);
    }
  }

  /// True when no group has any arrival at all.
  bool empty() const {
    for (const ArrivalCursor& c : arrivals) {
      if (!c.positions.empty()) return false;
    }
    return true;
  }

  /// True once every scheduled arrival has fired.
  bool exhausted() const {
    for (const ArrivalCursor& c : arrivals) {
      if (c.next < c.positions.size()) return false;
    }
    return true;
  }

  bool operator==(const FaultChannel& o) const {
    return rng.state() == o.rng.state() && arrivals == o.arrivals;
  }
};

/// Applies the common accounting for one handled error: result counters
/// (recoveries vs rollbacks keyed on e.rollback), the chronological error
/// log, and the kErrorInjection + kRecovery/kRollback trace pair.
/// `resume_seq` is the position execution resumes from (the strike position
/// for forward recovery, the rollback target for re-execution schemes).
inline void record_error(RunResult& acc, const obs::Tracer& tracer,
                         const ErrorEvent& e, SeqNum resume_seq) {
  ++acc.errors_injected;
  if (e.rollback) {
    ++acc.rollbacks;
  } else {
    ++acc.recoveries;
  }
  acc.recovery_cycles_total += e.cost;
  acc.error_log.push_back(e);
  if (tracer.enabled()) {
    tracer.emit({.kind = obs::TraceKind::kErrorInjection,
                 .cycle = e.cycle,
                 .thread = e.thread,
                 .core = e.struck_core,
                 .seq = e.position,
                 .addr = 0,
                 .value = 0});
    tracer.emit({.kind = e.rollback ? obs::TraceKind::kRollback
                                    : obs::TraceKind::kRecovery,
                 .cycle = e.cycle,
                 .thread = e.thread,
                 .core = e.struck_core,
                 .seq = resume_seq,
                 .addr = 0,
                 .value = e.cost});
  }
}

}  // namespace unsync::engine
