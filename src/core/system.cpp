#include "core/system.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "ckpt/serializer.hpp"

namespace unsync::core {

void System::save_state(ckpt::Serializer& s) const {
  kernel_.save_state(*this, s);
}

void System::load_state(ckpt::Deserializer& d) { kernel_.load_state(*this, d); }

void System::init_groups(
    const std::vector<const workload::InstStream*>& streams,
    std::uint64_t seed, double ser_per_inst) {
  if (streams.size() != num_threads_) {
    throw std::invalid_argument(name() + ": need one stream per thread");
  }
  engine::prewarm_from(memory(), streams);
  const std::vector<std::uint64_t> lengths = engine::lengths_of(streams);
  channel_.draw(seed, ser_per_inst, lengths);
  RunResult& acc = kernel_.result();
  acc.system = name();
  acc.instructions = engine::max_length(lengths);
  acc.thread_instructions = lengths;
}

void System::register_core(cpu::OooCore& core) {
  core.set_tracer(&tracer_);
  registered_cores_.push_back(&core);
  // Final once the last core registers: cores come in group-major order.
  cores_per_group_ = registered_cores_.size() / num_threads_;
}

SeqNum System::progress(std::size_t g) const {
  SeqNum p = 0;
  for (std::size_t m = 0; m < cores_per_group_; ++m) {
    p = std::max(p, group_core(g, m).retired());
  }
  return p;
}

std::vector<SeqNum> System::group_progress() const {
  std::vector<SeqNum> p;
  p.reserve(num_threads_);
  for (std::size_t g = 0; g < num_threads_; ++g) p.push_back(progress(g));
  return p;
}

Cycle System::next_event(std::size_t g, Cycle now) const {
  const Cycle cand = members_next_event(g, now);
  if (cand <= now || channel_.arrivals[g].pending(progress(g))) return now;
  return cand;
}

void System::finish(RunResult& r) const {
  for (const cpu::OooCore* core : registered_cores_) {
    r.core_stats.push_back(core->stats());
  }
}

void System::save_fault_rng(ckpt::Serializer& s) const {
  if (fingerprinting_) return;
  for (const std::uint64_t word : channel_.rng.state()) s.u64(word);
}

void System::save_arrivals(ckpt::Serializer& s, std::size_t g) const {
  if (!fingerprinting_) channel_.arrivals[g].save_state(s);
}

void System::load_fault_rng(ckpt::Deserializer& d) {
  std::array<std::uint64_t, 4> words{};
  for (std::uint64_t& word : words) word = d.u64();
  channel_.rng.set_state(words);
}

void System::load_arrivals(ckpt::Deserializer& d, std::size_t g) {
  channel_.arrivals[g].load_state(d, name().c_str());
}

std::string System::core_prefix(std::size_t i) const {
  const std::size_t per = cores_per_group_;
  if (per <= 1) return name() + ".core" + std::to_string(i);
  return name() + ".group" + std::to_string(i / per) + ".core" +
         std::to_string(i % per);
}

void System::set_observability(obs::MetricsRegistry* metrics,
                               obs::TraceSink* trace) {
  metrics_ = metrics;
  tracer_.set_sink(trace);
  memory().set_tracer(&tracer_);
  for (std::size_t i = 0; i < registered_cores_.size(); ++i) {
    cpu::OooCore& core = *registered_cores_[i];
    if (metrics_) {
      // One bucket per integer occupancy in [0, rob_entries].
      const auto cap = core.config().rob_entries;
      core.set_rob_histogram(&metrics_->histogram(
          core_prefix(i) + ".rob.occupancy", 0.0,
          static_cast<double>(cap + 1), cap + 1));
    } else {
      core.set_rob_histogram(nullptr);
    }
  }
  if (avf_enabled_ && metrics_ && !avf_collector_) wire_avf();
}

void System::wire_avf() {
  avf_collector_ = std::make_unique<fault::AvfCollector>();
  fault::AvfCollector& c = *avf_collector_;
  mem::MemoryHierarchy& m = memory();

  m.bus().set_avf(c.make_tracker(fault::UncoreStructure::kBusQueue,
                                 fault::kBusQueueEntries,
                                 fault::kBusQueueEntryBits));
  m.dram_channel().set_avf(c.make_tracker(fault::UncoreStructure::kDramQueue,
                                          fault::kDramQueueEntries,
                                          fault::kDramQueueEntryBits));

  const auto wire_cache = [&c](mem::Cache& cache) {
    const auto lines = static_cast<std::uint64_t>(cache.config().num_sets()) *
                       cache.config().assoc;
    cache.set_avf(c.make_tracker(fault::UncoreStructure::kCacheTag, lines,
                                 cache.tag_entry_bits()));
    cache.mshrs().set_avf(c.make_tracker(fault::UncoreStructure::kMshr,
                                         cache.mshrs().capacity(),
                                         fault::kMshrEntryBits));
  };
  for (unsigned i = 0; i < m.num_cores(); ++i) {
    wire_cache(m.l1(i));
    wire_cache(m.icache(i));
  }
  wire_cache(m.l2());
  // The shared L2's data array dominates uncore SRAM capacity; per the ACE
  // model every valid line's payload is live state (line_bytes*8 bits).
  {
    mem::Cache& l2 = m.l2();
    const auto lines = static_cast<std::uint64_t>(l2.config().num_sets()) *
                       l2.config().assoc;
    l2.set_data_avf(c.make_tracker(fault::UncoreStructure::kCacheData, lines,
                                   l2.config().line_bytes * 8));
  }

  for (cpu::OooCore* core : registered_cores_) {
    core->set_tlb_avf(
        c.make_tracker(fault::UncoreStructure::kTlb,
                       core->itlb().config().entries, fault::kTlbEntryBits),
        c.make_tracker(fault::UncoreStructure::kTlb,
                       core->dtlb().config().entries, fault::kTlbEntryBits));
  }

  register_avf(c);
  // Capture prewarmed tag occupancy from cycle 0.
  m.avf_update_all(0);
}

void System::publish_metrics(const RunResult& r) {
  if (!metrics_) return;
  obs::MetricsRegistry& reg = *metrics_;
  for (std::size_t i = 0;
       i < registered_cores_.size() && i < r.core_stats.size(); ++i) {
    cpu::publish_core_stats(reg, core_prefix(i), r.core_stats[i]);
  }
  memory().publish_metrics(reg, name() + ".mem");
  reg.set_counter(name() + ".cycles", r.cycles);
  reg.set_counter(name() + ".instructions", r.instructions);
  reg.set_counter(name() + ".errors.injected", r.errors_injected);
  reg.set_counter(name() + ".errors.recoveries", r.recoveries);
  reg.set_counter(name() + ".errors.rollbacks", r.rollbacks);
  reg.set_counter(name() + ".errors.recovery_cycles_total",
                  r.recovery_cycles_total);
  reg.set_counter(name() + ".stall.cb_full", r.cb_full_stalls);
  reg.set_counter(name() + ".fingerprint_syncs", r.fingerprint_syncs);
  reg.gauge(name() + ".thread_ipc").add(r.thread_ipc());
  if (avf_collector_) {
    avf_collector_->finish(r.cycles);
    avf_collector_->publish(reg, r.cycles);
  }
}

}  // namespace unsync::core
