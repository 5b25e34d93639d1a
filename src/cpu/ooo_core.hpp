// Out-of-order core timing model.
//
// A cycle-stepped model of a 4-wide out-of-order core (Table I): fetch
// queue, ROB, issue queue with oldest-first select, split load/store queue
// with store-to-load forwarding, functional-unit pools, gshare branch
// prediction, and serializing-instruction drain semantics.
//
// Scheduling is event-driven (docs/SIMULATOR.md, "Core data structures"):
// the ROB is a seq-indexed ring, an entry learns its operands are ready
// from its producers' issue (wakeup lists), select walks only woken
// entries, and loads search a chain of in-ROB stores. This relies on two
// stream preconditions: seqs are contiguous, and every producer is older
// than its consumer.
//
// The model is trace/stream-driven: it consumes retired-order DynOps, so
// wrong-path work is modelled as fetch bubbles (the front end stalls from
// the fetch of a mispredicted branch until it resolves plus the refill
// penalty) rather than by simulating wrong-path instructions. This is the
// standard trace-driven treatment and captures the first-order cost.
//
// The redundancy architectures (src/core) hook the commit stage through
// CommitEnv: gating commit (Reunion fingerprint verification), intercepting
// stores (CB / store buffer), and reserving ROB slots for
// committed-but-unverified instructions (Reunion CHECK-stage pressure).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/bpred.hpp"
#include "cpu/core_config.hpp"
#include "mem/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::cpu {

/// Commit-stage hooks supplied by the system wrapper (baseline / UnSync /
/// Reunion). Default implementations are pass-through.
class CommitEnv {
 public:
  virtual ~CommitEnv() = default;

  /// May `op` commit at `now`? Returning false stalls the commit stage.
  virtual bool can_commit(CoreId core, const workload::DynOp& op, Cycle now) {
    (void)core; (void)op; (void)now;
    return true;
  }

  /// A store is leaving the core at commit. Return false to reject it
  /// (downstream buffer full) — the commit stage stalls and retries.
  virtual bool on_store_commit(CoreId core, const workload::DynOp& op,
                               Cycle now) {
    (void)core; (void)op; (void)now;
    return true;
  }

  /// Called once per committed instruction (after acceptance).
  virtual void on_commit(CoreId core, const workload::DynOp& op, Cycle now) {
    (void)core; (void)op; (void)now;
  }

  /// ROB slots currently held by already-committed instructions (Reunion:
  /// committed but fingerprint-unverified). Shrinks effective ROB capacity.
  virtual std::uint32_t reserved_rob_slots(CoreId core, Cycle now) {
    (void)core; (void)now;
    return 0;
  }

  /// Side-effect-free view of reserved_rob_slots for fast-forward planning:
  /// must return the value reserved_rob_slots(core, now) WOULD return,
  /// without mutating any environment state. Used by OooCore::next_event.
  virtual std::uint32_t reserved_rob_slots_at(CoreId core, Cycle now) const {
    (void)core; (void)now;
    return 0;
  }

  /// The next cycle > now at which this environment's reserved_rob_slots
  /// value can change without any core acting (Reunion: the earliest
  /// pending fingerprint verification). Bounds ROB-stalled fast-forward
  /// windows; ~Cycle{0} = never.
  virtual Cycle next_state_change(CoreId core, Cycle now) const {
    (void)core; (void)now;
    return ~Cycle{0};
  }
};

struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t serializing = 0;

  // Stall / pressure accounting (cycle-granularity event counts).
  std::uint64_t commit_stall_store = 0;   ///< store rejected downstream
  std::uint64_t commit_stall_gate = 0;    ///< CommitEnv::can_commit == false
  std::uint64_t dispatch_stall_rob = 0;
  std::uint64_t dispatch_stall_iq = 0;
  std::uint64_t dispatch_stall_lsq = 0;
  std::uint64_t fetch_blocked_branch = 0;
  std::uint64_t fetch_blocked_serialize = 0;
  std::uint64_t fetch_blocked_icache = 0;
  std::uint64_t itlb_misses = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t recovery_stall_cycles = 0;  ///< externally injected stalls

  std::uint64_t rob_occupancy_accum = 0;  ///< sum over cycles (avg = /cycles)

  /// Committed-instruction counts sampled every CoreConfig::sample_interval
  /// cycles (empty when sampling is off). Interval IPC between samples i-1
  /// and i is (c[i]-c[i-1]) / interval.
  std::vector<std::uint64_t> interval_committed;

  double ipc() const {
    return cycles ? static_cast<double>(committed) / static_cast<double>(cycles)
                  : 0.0;
  }
  double avg_rob_occupancy() const {
    return cycles ? static_cast<double>(rob_occupancy_accum) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Checkpoint helpers: serialise / restore a CoreStats block (all fields,
/// including the interval-IPC samples). Also used by the system layer to
/// persist RunResult::core_stats.
void save_stats(ckpt::Serializer& s, const CoreStats& stats);
void load_stats(ckpt::Deserializer& d, CoreStats& stats);

class OooCore {
 public:
  OooCore(CoreId id, const CoreConfig& config, mem::MemoryHierarchy* memory,
          std::unique_ptr<workload::InstStream> stream,
          CommitEnv* env = nullptr);

  CoreId id() const { return id_; }
  const CoreConfig& config() const { return config_; }

  /// Advances the core by one clock cycle.
  void tick(Cycle now);

  /// Quiescence fast-forwarding (docs/ENGINE.md): a conservative lower
  /// bound on the next cycle at which this core can change state.
  /// Returning `now` vetoes skipping — some stage may act this cycle.
  /// Returning T > now guarantees every tick in [now, T) is static: no
  /// commit, issue, dispatch or fetch occurs, and the only effects are the
  /// deterministic per-cycle counters that skip_cycles() replays.
  Cycle next_event(Cycle now) const;

  /// Replays the per-cycle bookkeeping of the static window [from, to)
  /// that next_event() promised, in closed form: cycle/occupancy counters,
  /// ROB-histogram samples, interval-IPC samples and the one stall counter
  /// the window's stable stall reason increments. Bit-identical to calling
  /// tick() to-from times across a static window.
  void skip_cycles(Cycle from, Cycle to);

  /// True when the stream is exhausted and the pipeline has drained.
  bool done() const;

  /// Number of instructions architecturally committed so far.
  SeqNum retired() const { return stats_.committed; }

  /// Externally freezes the core (error recovery): no pipeline activity
  /// until `cycle`. Repeated calls keep the later deadline.
  void stall_until(Cycle cycle);

  /// Flushes all in-flight (uncommitted) work — recovery step 2, "the
  /// pipeline of the erroneous core is flushed".
  void flush_pipeline();

  /// Repositions the architectural stream cursor so the next instruction to
  /// enter the pipeline is `seq` (UnSync recovery: both cores resume from
  /// the error-free core's position, the slower core is forwarded, a
  /// faster erroneous core re-traces). Implies flush_pipeline().
  void set_position(SeqNum seq);

  const CoreStats& stats() const { return stats_; }
  std::uint32_t rob_occupancy() const { return rob_count_; }

  /// Attaches an event-trace gate. The core emits kFetch and kCommit
  /// records through it; a gate with no sink costs one branch per event
  /// site, so leaving this attached permanently is free.
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a per-cycle ROB-occupancy histogram (the Figure 5 metric).
  /// Sampling is one Histogram::add per cycle while attached; pass nullptr
  /// to detach.
  void set_rob_histogram(Histogram* hist) { rob_hist_ = hist; }

  /// Attaches ACE residency trackers (fault/avf.hpp) to the core's TLBs;
  /// valid-entry occupancy is integrated at each translation site. Like the
  /// tracer, detached trackers cost one branch per site.
  void set_tlb_avf(fault::ResidencyTracker* itlb, fault::ResidencyTracker* dtlb) {
    itlb_.set_avf(itlb);
    dtlb_.set_avf(dtlb);
  }

  const mem::Tlb& itlb() const { return itlb_; }
  const mem::Tlb& dtlb() const { return dtlb_; }

  GsharePredictor& predictor() { return bpred_; }

  /// Checkpoint hooks: the complete per-core mutable state — fetch queue,
  /// ROB, in-flight producer completions, predictor, TLBs, FU reservations,
  /// front-end cursor (including the stream's own state), LSQ occupancy,
  /// the committed-store forwarding window, and statistics. load_state()
  /// requires a core constructed with the same id, config and stream
  /// identity, rejects an inconsistent core with ckpt::CkptError, and
  /// rebuilds the derived scheduling state (wakeup lists, woken set, store
  /// chain, fence) from the ROB. Observability attachments are not part of
  /// the state.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  static constexpr Cycle kNever = ~Cycle{0};

  static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};
  /// Depth of the post-commit store-forwarding window.
  static constexpr std::size_t kCommittedStoreWords = 16;

  struct RobEntry {
    workload::DynOp op;
    bool in_iq = true;      // waiting to issue
    bool issued = false;
    Cycle complete_at = kNever;
    bool mispredicted = false;  // resolved at dispatch (hint or predictor)

    // Derived scheduling state: never serialised, rebuilt by load_state.
    std::uint32_t pending = 0;  // producers that have not issued yet
    Cycle ready_at = 0;         // latest completion of issued producers
    /// Head of this entry's consumer list. A link is (slot << 1 | k): the
    /// consumer in `slot` waits on this entry through its operand k, and
    /// continues the list through its own next_consumer[k].
    std::uint32_t consumers = kNoLink;
    std::uint32_t next_consumer[2] = {kNoLink, kNoLink};
    /// Memory ops: the youngest store dispatched before this one (kNoSeq
    /// if none). Chained, these form the in-ROB store list.
    SeqNum prev_store = kNoSeq;
  };

  struct FuPool {
    FuPoolConfig cfg;
    std::vector<Cycle> next_free;
  };

  void do_commit(Cycle now);
  void do_issue(Cycle now);
  void do_dispatch(Cycle now);
  void do_fetch(Cycle now);

  FuPool* pool_for(isa::InstClass cls);
  /// Earliest cycle >= now a unit in `pool` is free; kNever if none this
  /// cycle. On success reserves the unit and returns completion time.
  bool try_fu(FuPool& pool, Cycle now, Cycle* complete_at);

  std::uint32_t slot_of(SeqNum seq) const {
    return static_cast<std::uint32_t>(seq) & rob_mask_;
  }
  /// True while `seq` is in the ROB (dispatched, not yet committed).
  bool in_rob(SeqNum seq) const { return seq - rob_head_seq_ < rob_count_; }

  /// Appends `e` at the ROB tail and derives its scheduling state: wakeup
  /// links to unissued producers, the woken bit, the store chain and the
  /// fence list. The one entry path for dispatch and load_state.
  void rob_push(const RobEntry& e);
  /// Drops all in-flight entries and every structure derived from them.
  void rob_clear();
  /// A producer issued: walk its consumer list once.
  void wake_consumers(RobEntry& producer);

  void set_woken(std::uint32_t slot) {
    woken_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_woken(std::uint32_t slot) {
    woken_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  /// The smallest ROB offset >= `off` (0 = head) holding a woken entry
  /// (in_iq with every producer issued), or rob_count_ if none.
  std::uint32_t next_woken(std::uint32_t off) const;

  /// Memory fence: an older serializing instruction is still in flight.
  bool fenced(const RobEntry& e) const {
    return !serializing_.empty() && serializing_.front() < e.op.seq;
  }
  /// The youngest in-ROB store older than load `e` to the same word.
  const RobEntry* forwarding_store(const RobEntry& e) const;

  bool lsq_load_can_issue(const RobEntry& e, Cycle now, bool* forwarded) const;

  /// Fast-forward helper for a load whose sources are ready: `now` = the
  /// load could attempt issue this cycle (veto), kNever = its blocker
  /// clears only via an event next_event already covers, otherwise the
  /// cycle the blocking older store completes.
  Cycle load_block_bound(const RobEntry& e, Cycle now) const;

  CoreId id_;
  CoreConfig config_;
  mem::MemoryHierarchy* memory_;
  std::unique_ptr<workload::InstStream> stream_;
  CommitEnv* env_;
  CommitEnv default_env_;

  std::deque<workload::DynOp> fetch_queue_;

  /// The ROB: a ring of a power-of-two capacity >= max(rob_entries, 64),
  /// where the entry for `seq` lives in slot seq & rob_mask_. It holds the
  /// contiguous seqs [rob_head_seq_, rob_head_seq_ + rob_count_).
  std::vector<RobEntry> rob_;
  std::uint32_t rob_mask_ = 0;
  SeqNum rob_head_seq_ = 0;
  std::uint32_t rob_count_ = 0;
  /// One bit per ring slot: set while the entry there is woken.
  std::vector<std::uint64_t> woken_;
  /// The youngest store dispatched (the tail of the store chain); it may
  /// already have committed.
  SeqNum youngest_store_ = kNoSeq;
  /// Seqs of the in-flight serializing instructions, oldest first.
  std::deque<SeqNum> serializing_;

  GsharePredictor bpred_;
  mem::Tlb itlb_;
  mem::Tlb dtlb_;

  FuPool fu_int_alu_, fu_int_mul_, fu_int_div_;
  FuPool fu_fp_alu_, fu_fp_mul_, fu_fp_div_;
  FuPool fu_mem_;

  // Front-end state.
  bool stream_done_ = false;
  SeqNum fetch_blocked_on_ = kNoSeq;  // branch seq gating fetch
  Cycle fetch_resume_at_ = 0;
  bool pending_stream_op_valid_ = false;
  workload::DynOp pending_stream_op_{};

  // In-flight queue occupancy.
  std::uint32_t iq_count_ = 0;
  std::uint32_t lq_count_ = 0;
  std::uint32_t sq_count_ = 0;

  /// Post-commit store buffer view: recently committed store words still
  /// capable of forwarding to younger loads (the data has left the ROB but
  /// not necessarily reached the cache).
  std::deque<Addr> committed_store_words_;

  Cycle frozen_until_ = 0;
  Cycle next_sample_ = 0;
  CoreStats stats_;

  // Observability (both optional; null = off, one branch per site).
  const obs::Tracer* tracer_ = nullptr;
  Histogram* rob_hist_ = nullptr;
};

/// Publishes one core's counters and gauges into `reg` under `prefix`
/// (e.g. "unsync.group0.core1"): the registry-side view of CoreStats.
void publish_core_stats(obs::MetricsRegistry& reg, const std::string& prefix,
                        const CoreStats& stats);

}  // namespace unsync::cpu
