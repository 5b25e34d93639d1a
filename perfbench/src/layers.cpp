#include "layers.hpp"

#include "engine/sim_kernel.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEngineLoop: return "engine.loop";
    case Layer::kCpuTick: return "cpu.member_tick";
    case Layer::kCoreSync: return "core.sync_phase";
    case Layer::kFaultError: return "fault.on_error";
    case Layer::kEngineNext: return "engine.next_event";
    case Layer::kEngineSkip: return "engine.skip_cycles";
    case Layer::kEngineFast: return "engine.interval_model";
    case Layer::kWorkloadNext: return "workload.next";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t LayerTotals::wall_ns() const {
  std::uint64_t sum = 0;
  for (const auto ns : self_ns) sum += ns;
  return sum;
}

Tracer& Tracer::local() {
  thread_local Tracer tracer;
  return tracer;
}

void Tracer::open(Layer layer) {
  const std::uint64_t id = next_id_++;
  std::size_t raw_index = kNoRaw;
  if (raw_.size() < kMaxRawSpans) {
    raw_index = raw_.size();
    raw_.push_back(RawSpan{id, stack_.empty() ? 0 : stack_.back().id, layer,
                           0, 0});
  }
  // Read the clock last so the bookkeeping above is charged to the parent.
  stack_.push_back(Frame{layer, now_ns(), 0, id, raw_index});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const auto dur = static_cast<std::uint64_t>(end - f.start);
  const auto i = static_cast<std::size_t>(f.layer);
  totals_.self_ns[i] += dur - (f.child_ns < dur ? f.child_ns : dur);
  totals_.total_ns[i] += dur;
  ++totals_.calls[i];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.raw_index != kNoRaw) {
    raw_[f.raw_index].start_ns = f.start;
    raw_[f.raw_index].end_ns = end;
  }
}

void Tracer::write_raw(std::ostream& out) const {
  for (const RawSpan& s : raw_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << layer_name(s.layer) << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

unsync::engine::RunResult run_traced(unsync::core::System& system,
                                     bool fast_forward,
                                     std::uint64_t* skipped_cycles) {
  TracedPolicy policy(system);
  unsync::engine::SimKernel kernel;
  unsync::engine::RunResult r;
  {
    Span span(Layer::kEngineLoop);
    r = kernel.run(policy, ~unsync::Cycle{0}, fast_forward);
  }
  *skipped_cycles = policy.skipped_cycles();
  return r;
}

namespace {

bool same_stats(const unsync::cpu::CoreStats& a,
                const unsync::cpu::CoreStats& b) {
  return a.cycles == b.cycles && a.committed == b.committed &&
         a.loads == b.loads && a.stores == b.stores &&
         a.branches == b.branches && a.mispredicts == b.mispredicts &&
         a.serializing == b.serializing &&
         a.commit_stall_store == b.commit_stall_store &&
         a.commit_stall_gate == b.commit_stall_gate &&
         a.dispatch_stall_rob == b.dispatch_stall_rob &&
         a.dispatch_stall_iq == b.dispatch_stall_iq &&
         a.dispatch_stall_lsq == b.dispatch_stall_lsq &&
         a.fetch_blocked_branch == b.fetch_blocked_branch &&
         a.fetch_blocked_serialize == b.fetch_blocked_serialize &&
         a.fetch_blocked_icache == b.fetch_blocked_icache &&
         a.itlb_misses == b.itlb_misses && a.dtlb_misses == b.dtlb_misses &&
         a.recovery_stall_cycles == b.recovery_stall_cycles &&
         a.rob_occupancy_accum == b.rob_occupancy_accum &&
         a.interval_committed == b.interval_committed;
}

}  // namespace

bool same_simulation(const unsync::engine::RunResult& a,
                     const unsync::engine::RunResult& b) {
  if (a.cycles != b.cycles || a.errors_injected != b.errors_injected ||
      a.recoveries != b.recoveries || a.rollbacks != b.rollbacks ||
      a.recovery_cycles_total != b.recovery_cycles_total ||
      a.cb_full_stalls != b.cb_full_stalls ||
      a.fingerprint_syncs != b.fingerprint_syncs ||
      a.core_stats.size() != b.core_stats.size() ||
      a.error_log.size() != b.error_log.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.core_stats.size(); ++i) {
    if (!same_stats(a.core_stats[i], b.core_stats[i])) return false;
  }
  for (std::size_t i = 0; i < a.error_log.size(); ++i) {
    const auto& x = a.error_log[i];
    const auto& y = b.error_log[i];
    if (x.cycle != y.cycle || x.position != y.position ||
        x.thread != y.thread || x.struck_core != y.struck_core ||
        x.cost != y.cost || x.rollback != y.rollback) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
