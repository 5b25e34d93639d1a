#include "engine/interval_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cpu/bpred.hpp"
#include "engine/error_injection.hpp"
#include "obs/metrics.hpp"

namespace unsync::engine {

namespace {

/// Direct-mapped line filter: a cheap stand-in for a set-associative cache
/// that answers "would this access roughly hit?" in O(1). Tracks the valid
/// line count (UnSync's forward-recovery copy cost scales with it).
class LineFilter {
 public:
  LineFilter(std::uint64_t cache_bytes, std::uint64_t line_bytes)
      : line_bytes_(line_bytes ? line_bytes : 64),
        tags_(std::max<std::uint64_t>(1, cache_bytes / line_bytes_), kNoAddr) {}

  /// Touches `addr`; returns true on a (modelled) hit.
  bool access(Addr addr) {
    const Addr line = addr / line_bytes_;
    Addr& slot = tags_[line % tags_.size()];
    if (slot == line) return true;
    if (slot == kNoAddr) ++valid_;
    slot = line;
    return false;
  }

  /// Marks every line of [base, base+bytes) present (cache pre-warming).
  void warm(Addr base, std::uint64_t bytes) {
    const std::uint64_t lines =
        std::min<std::uint64_t>(bytes / line_bytes_ + 1, tags_.size());
    for (std::uint64_t i = 0; i < lines; ++i) {
      const Addr line = base / line_bytes_ + i;
      Addr& slot = tags_[line % tags_.size()];
      if (slot == kNoAddr) ++valid_;
      slot = line;
    }
  }

  std::uint64_t valid_lines() const { return valid_; }

 private:
  std::uint64_t line_bytes_;
  std::vector<Addr> tags_;
  std::uint64_t valid_ = 0;
};

/// Per-interval op classification counters.
struct IntervalCounts {
  std::uint64_t ops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t serializing = 0;
  std::uint64_t l1_load_misses = 0;
  std::uint64_t l2_misses = 0;
  double dep_sum = 0.0;
  std::uint64_t dep_count = 0;

  void reset() { *this = IntervalCounts{}; }
};

/// Cycle-component accumulators (for the "<system>.fast.*" metric subtree).
struct CycleBreakdown {
  double base = 0.0;
  double mispredict = 0.0;
  double serialize = 0.0;
  double l1_miss = 0.0;
  double l2_miss = 0.0;
  double overhead = 0.0;  ///< load checking + checkpoint captures
  double error = 0.0;
  std::uint64_t intervals = 0;
};

}  // namespace

IntervalModel::IntervalModel(const IntervalSpec& spec,
                             const cpu::CoreConfig& core,
                             const mem::MemConfig& mem, unsigned num_threads,
                             double ser_per_inst, std::uint64_t seed,
                             const workload::InstStream& stream)
    : spec_(spec), core_(core), mem_(mem),
      num_threads_(num_threads ? num_threads : 1), ser_per_inst_(ser_per_inst),
      seed_(seed) {
  streams_.reserve(num_threads_);
  for (unsigned t = 0; t < num_threads_; ++t) streams_.push_back(stream.clone());
}

IntervalModel::IntervalModel(
    const IntervalSpec& spec, const cpu::CoreConfig& core,
    const mem::MemConfig& mem, unsigned num_threads, double ser_per_inst,
    std::uint64_t seed, const std::vector<const workload::InstStream*>& streams)
    : spec_(spec), core_(core), mem_(mem),
      num_threads_(num_threads ? num_threads : 1), ser_per_inst_(ser_per_inst),
      seed_(seed) {
  if (streams.size() != num_threads_) {
    throw std::invalid_argument(
        "IntervalModel: streams.size() must equal num_threads");
  }
  streams_.reserve(streams.size());
  for (const auto* s : streams) streams_.push_back(s->clone());
}

void IntervalModel::set_observability(obs::MetricsRegistry* metrics,
                                      obs::TraceSink* /*trace*/) {
  metrics_ = metrics;
}

RunResult IntervalModel::run(Cycle max_cycles) { return estimate(max_cycles); }

RunResult IntervalModel::estimate(Cycle max_cycles) {
  RunResult r;
  r.system = spec_.system;
  r.approximate = true;

  std::vector<std::uint64_t> lengths;
  lengths.reserve(streams_.size());
  for (const auto& s : streams_) lengths.push_back(s->length());
  r.thread_instructions = lengths;
  r.instructions = *std::max_element(lengths.begin(), lengths.end());

  // Arrival schedules: the detailed tier's own FaultChannel draw, so
  // positions (and therefore errors_injected) match the cycle-accurate run
  // bit for bit. Struck-core
  // draws follow afterwards and are NOT order-identical to the detailed
  // tier (it interleaves them in cycle order) — documented approximate.
  FaultChannel channel;
  channel.draw(seed_, spec_.inject_errors ? ser_per_inst_ : 0.0, lengths);

  // The shared L2 filter sees every thread's misses; pre-warmed with each
  // workload's declared working set, matching the detailed tier's warm-up.
  LineFilter l2(mem_.l2.size_bytes, mem_.l2.line_bytes);
  for (const auto& s : streams_) {
    if (const auto region = s->warm_region()) l2.warm(region->base, region->bytes);
  }

  const double issue_width = std::max<double>(1.0, core_.issue_width);
  const double rob = std::max<double>(1.0, core_.rob_entries);
  const double mshrs = std::max<double>(1.0, mem_.l1d.mshrs);

  CycleBreakdown breakdown;
  std::vector<double> thread_cycles(streams_.size(), 0.0);

  for (std::size_t t = 0; t < streams_.size(); ++t) {
    workload::InstStream& stream = *streams_[t];
    stream.reset();
    LineFilter l1d(mem_.l1d.size_bytes, mem_.l1d.line_bytes);
    cpu::GsharePredictor bpred;

    IntervalCounts iv;
    cpu::CoreStats stats;
    double cycles = 0.0;
    std::uint64_t ops_done = 0;
    ArrivalCursor& arrivals = channel.arrivals[t];

    const auto close_interval = [&] {
      if (iv.ops == 0) return;
      // Effective dispatch width: the measured dependence distance bounds
      // how many independent ops the window exposes per cycle.
      const double avg_dep =
          iv.dep_count ? iv.dep_sum / static_cast<double>(iv.dep_count)
                       : issue_width;
      const double eff_width = std::clamp(avg_dep, 1.0, issue_width);
      const double base = static_cast<double>(iv.ops) / eff_width;
      const double mispredict =
          static_cast<double>(iv.mispredicts) *
          static_cast<double>(core_.mispredict_penalty);
      const double serialize =
          static_cast<double>(iv.serializing) *
          static_cast<double>(core_.serialize_fetch_penalty +
                              spec_.serialize_sync_cycles);
      const double l1_miss = static_cast<double>(iv.l1_load_misses) *
                             static_cast<double>(mem_.l2.hit_latency);
      // Memory-level parallelism: a window of `rob` ops with dependence
      // distance `avg_dep` overlaps roughly rob / (2 * avg_dep) misses,
      // bounded by the MSHR count.
      const double mlp =
          std::clamp(rob / (2.0 * std::max(avg_dep, 1.0)), 1.0, mshrs);
      const double l2_miss = static_cast<double>(iv.l2_misses) *
                             static_cast<double>(mem_.dram_latency) / mlp;
      // Steady per-op overheads: lockstep's load checker delays issue but
      // overlaps across the width.
      const double overhead =
          static_cast<double>(iv.loads) *
          static_cast<double>(spec_.load_check_latency) / issue_width;

      cycles += base + mispredict + serialize + l1_miss + l2_miss + overhead;
      breakdown.base += base;
      breakdown.mispredict += mispredict;
      breakdown.serialize += serialize;
      breakdown.l1_miss += l1_miss;
      breakdown.l2_miss += l2_miss;
      breakdown.overhead += overhead;
      ++breakdown.intervals;
      iv.reset();
    };

    workload::DynOp op;
    std::uint64_t next_checkpoint = spec_.checkpoint_interval;
    while (stream.next(&op)) {
      ++iv.ops;
      SeqNum dep = kNoSeq;
      for (const SeqNum src : op.src) {
        if (src != kNoSeq && op.seq > src) {
          dep = std::min(dep, op.seq - src);
        }
      }
      if (dep != kNoSeq) {
        iv.dep_sum += static_cast<double>(dep);
        ++iv.dep_count;
      }
      if (op.is_load()) {
        ++iv.loads;
        ++stats.loads;
        if (op.mem_addr != kNoAddr && !l1d.access(op.mem_addr)) {
          ++iv.l1_load_misses;
          if (!l2.access(op.mem_addr)) ++iv.l2_misses;
        }
      } else if (op.is_store()) {
        ++iv.stores;
        ++stats.stores;
        // Stores allocate in the filters but are buffered off the commit
        // path in every architecture — no direct latency charge.
        if (op.mem_addr != kNoAddr && !l1d.access(op.mem_addr)) {
          l2.access(op.mem_addr);
        }
      } else if (op.is_branch()) {
        ++iv.branches;
        ++stats.branches;
        const bool wrong = op.has_mispredict_hint
                               ? op.mispredict_hint
                               : bpred.mispredicted(op.pc, op.taken);
        if (wrong) {
          ++iv.mispredicts;
          ++stats.mispredicts;
        }
      } else if (op.is_serializing()) {
        ++iv.serializing;
        ++stats.serializing;
      }

      ++ops_done;
      if (iv.ops >= kIntervalOps) close_interval();

      // DMR checkpointing: both cores stall to capture at every epoch
      // boundary.
      if (spec_.checkpoint_interval != 0 && ops_done >= next_checkpoint) {
        close_interval();
        cycles += static_cast<double>(spec_.checkpoint_cycles);
        breakdown.overhead += static_cast<double>(spec_.checkpoint_cycles);
        next_checkpoint += spec_.checkpoint_interval;
      }

      // Error arrivals strike when committed progress crosses the next
      // scheduled position — the detailed tier's ArrivalCursor rule.
      while (arrivals.pending(ops_done)) {
        close_interval();
        const SeqNum position = arrivals.take();
        const auto struck = static_cast<unsigned>(
            spec_.group_size > 1 ? channel.rng.below(spec_.group_size) : 0);
        Cycle cost = spec_.error_penalty;
        double charged = 0.0;
        if (spec_.error_rollback) {
          // Squash/restore penalty plus re-execution of (on average) half
          // the rollback window at the running CPI.
          const double cpi =
              ops_done ? cycles / static_cast<double>(ops_done) : 1.0;
          charged = static_cast<double>(cost) +
                    static_cast<double>(spec_.rollback_window) / 2.0 * cpi;
        } else {
          cost += l1d.valid_lines() * spec_.l1_copy_line_cycles;
          charged = static_cast<double>(cost);
        }
        cycles += charged;
        breakdown.error += charged;
        r.error_log.push_back({.cycle = static_cast<Cycle>(cycles),
                               .position = position,
                               .thread = static_cast<unsigned>(t),
                               .struck_core = struck,
                               .cost = cost,
                               .rollback = spec_.error_rollback});
        ++r.errors_injected;
        if (spec_.error_rollback) {
          ++r.rollbacks;
        } else {
          ++r.recoveries;
        }
        r.recovery_cycles_total += cost;
      }

      if (cycles >= static_cast<double>(max_cycles)) break;
    }
    close_interval();
    cycles = std::min(cycles, static_cast<double>(max_cycles));

    stats.cycles = static_cast<Cycle>(cycles);
    stats.committed = ops_done;
    thread_cycles[t] = cycles;

    // Every core of the redundancy group retires the whole stream; the
    // group-major CoreStats layout matches the detailed tier's.
    for (unsigned side = 0; side < spec_.group_size; ++side) {
      r.core_stats.push_back(stats);
    }
    // Reunion: every serializing instruction forces one cross-core
    // fingerprint sync (the counter the detailed tier reports).
    if (spec_.serialize_sync_cycles != 0) {
      r.fingerprint_syncs += stats.serializing;
    }
  }

  r.cycles = static_cast<Cycle>(
      *std::max_element(thread_cycles.begin(), thread_cycles.end()));

  // Chronological error log (the detailed tier interleaves threads by
  // cycle; the fast tier walks threads sequentially, so re-sort).
  std::stable_sort(r.error_log.begin(), r.error_log.end(),
                   [](const ErrorEvent& a, const ErrorEvent& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     return a.thread < b.thread;
                   });

  if (metrics_ != nullptr) {
    const std::string p = spec_.system + ".fast.";
    const auto put = [&](const char* key, double v) {
      metrics_->set_counter(p + key,
                            static_cast<std::uint64_t>(std::llround(v)));
    };
    metrics_->set_counter(p + "intervals", breakdown.intervals);
    put("cycles.base", breakdown.base);
    put("cycles.mispredict", breakdown.mispredict);
    put("cycles.serialize", breakdown.serialize);
    put("cycles.l1_miss", breakdown.l1_miss);
    put("cycles.l2_miss", breakdown.l2_miss);
    put("cycles.overhead", breakdown.overhead);
    put("cycles.error", breakdown.error);
    metrics_->set_counter(p + "errors", r.errors_injected);
  }

  return r;
}

}  // namespace unsync::engine
