#include "cpu/ooo_core.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "ckpt/serializer.hpp"
#include "workload/trace.hpp"

namespace unsync::cpu {
namespace {

using workload::DynOp;
using workload::TraceStream;

DynOp alu_op(SeqNum seq, SeqNum src0 = kNoSeq, SeqNum src1 = kNoSeq) {
  DynOp op;
  op.seq = seq;
  op.cls = isa::InstClass::kIntAlu;
  op.pc = 0x1000 + seq * 4;
  op.src[0] = src0;
  op.src[1] = src1;
  op.writes_reg = true;
  return op;
}

DynOp load_op(SeqNum seq, Addr addr, SeqNum src0 = kNoSeq) {
  DynOp op = alu_op(seq, src0);
  op.cls = isa::InstClass::kLoad;
  op.mem_addr = addr;
  return op;
}

DynOp store_op(SeqNum seq, Addr addr, SeqNum data_src = kNoSeq) {
  DynOp op = alu_op(seq, data_src);
  op.cls = isa::InstClass::kStore;
  op.mem_addr = addr;
  op.writes_reg = false;
  return op;
}

DynOp branch_op(SeqNum seq, bool mispredict) {
  DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kBranch;
  op.writes_reg = false;
  op.taken = true;
  op.has_mispredict_hint = true;
  op.mispredict_hint = mispredict;
  return op;
}

DynOp serial_op(SeqNum seq) {
  DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kSerializing;
  op.writes_reg = false;
  op.src[0] = op.src[1] = kNoSeq;
  return op;
}

struct Rig {
  /// Back-end focused rig: the front end (I-cache / I-TLB) is disabled so
  /// each test isolates the mechanism it targets; dedicated front-end tests
  /// re-enable it explicitly.
  explicit Rig(std::vector<DynOp> ops, CoreConfig cfg = no_frontend(),
               CommitEnv* env = nullptr)
      : memory(mem::MemConfig{}, 1),
        core(0, cfg, &memory,
             std::make_unique<TraceStream>(std::move(ops)), env) {}

  static CoreConfig no_frontend() {
    CoreConfig cfg;
    cfg.model_frontend = false;
    return cfg;
  }

  Cycle run(Cycle limit = 1000000) {
    Cycle now = 0;
    while (!core.done() && now < limit) {
      core.tick(now);
      ++now;
    }
    return now;
  }

  mem::MemoryHierarchy memory;
  OooCore core;
};

std::vector<DynOp> independent_alus(std::uint64_t n) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < n; ++i) ops.push_back(alu_op(i));
  return ops;
}

TEST(OooCore, RunsToCompletion) {
  Rig rig(independent_alus(100));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 100u);
}

TEST(OooCore, IndependentAlusApproachIssueWidth) {
  Rig rig(independent_alus(4000));
  const Cycle cycles = rig.run();
  const double ipc = 4000.0 / static_cast<double>(cycles);
  // 4-wide core, no stalls: should sustain close to 4 IPC.
  EXPECT_GT(ipc, 3.0);
}

TEST(OooCore, SerialChainLimitsToOneIpc) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 2000; ++i) {
    ops.push_back(alu_op(i, i == 0 ? kNoSeq : i - 1));
  }
  Rig rig(std::move(ops));
  const Cycle cycles = rig.run();
  const double ipc = 2000.0 / static_cast<double>(cycles);
  EXPECT_LT(ipc, 1.1);
  EXPECT_GT(ipc, 0.8);
}

TEST(OooCore, MispredictsAddFetchBubbles) {
  std::vector<DynOp> clean, dirty;
  for (SeqNum i = 0; i < 2000; ++i) {
    if (i % 10 == 9) {
      clean.push_back(branch_op(i, false));
      dirty.push_back(branch_op(i, true));
    } else {
      clean.push_back(alu_op(i));
      dirty.push_back(alu_op(i));
    }
  }
  Rig a(std::move(clean)), b(std::move(dirty));
  const Cycle fast = a.run();
  const Cycle slow = b.run();
  EXPECT_GT(slow, fast + 1000);  // ~200 mispredicts x ~8-cycle penalty
  EXPECT_EQ(b.core.stats().mispredicts, 200u);
}

TEST(OooCore, CacheMissesThrottleLoads) {
  std::vector<DynOp> hits, misses;
  for (SeqNum i = 0; i < 1000; ++i) {
    hits.push_back(load_op(i, 0x1000));  // same line: always warm
    misses.push_back(load_op(i, 0x100000 + i * 4096));  // new line each time
  }
  Rig a(std::move(hits)), b(std::move(misses));
  EXPECT_LT(a.run(), b.run());
  EXPECT_GT(b.memory.l1(0).misses(), 900u);
}

TEST(OooCore, StoreToLoadForwardingBeatsCacheMissWait) {
  // The store's data comes from a 20-cycle divide, so the store is still
  // in flight when the load becomes issueable: the load must forward from
  // the store queue instead of fetching the (cold, ~400-cycle) line.
  std::vector<DynOp> ops;
  DynOp producer = alu_op(0);
  producer.cls = isa::InstClass::kIntDiv;
  ops.push_back(producer);
  ops.push_back(store_op(1, 0x200000, 0));
  ops.push_back(load_op(2, 0x200000));
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_GE(rig.core.stats().cycles, 20u);   // waited for the divide
  EXPECT_LE(rig.core.stats().cycles, 60u);   // but never went to DRAM
}

TEST(OooCore, LoadWaitsForOlderStoreSameWord) {
  // The load cannot issue before the store's address+data execute.
  std::vector<DynOp> ops;
  DynOp st = store_op(1, 0x300000, 0);  // depends on slow producer
  DynOp producer = alu_op(0);
  producer.cls = isa::InstClass::kIntDiv;  // 20-cycle latency
  ops.push_back(producer);
  ops.push_back(st);
  ops.push_back(load_op(2, 0x300000));
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_GE(rig.core.stats().cycles, 20u);
}

TEST(OooCore, SerializingIssuesOnlyAtHead) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 200; ++i) {
    ops.push_back(i % 20 == 10 ? serial_op(i) : alu_op(i));
  }
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.stats().serializing, 10u);
  // Each serializing inst drains the front end.
  EXPECT_GT(rig.core.stats().fetch_blocked_serialize, 0u);
}

TEST(OooCore, SerializingSlowsThroughput) {
  std::vector<DynOp> with, without;
  for (SeqNum i = 0; i < 4000; ++i) {
    with.push_back(i % 50 == 25 ? serial_op(i) : alu_op(i));
    without.push_back(alu_op(i));
  }
  Rig a(std::move(without)), b(std::move(with));
  EXPECT_LT(a.run(), b.run());
}

TEST(OooCore, RobCapacityBoundsInFlight) {
  // Independent long-latency loads need a big window for MLP; a tiny ROB
  // serialises the misses and must be clearly slower.
  auto make_loads = [] {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 400; ++i) {
      ops.push_back(load_op(i, 0x1000000 + i * 4096));
    }
    return ops;
  };
  CoreConfig tiny = Rig::no_frontend();
  tiny.rob_entries = 8;
  tiny.iq_entries = 8;
  Rig small(make_loads(), tiny);
  Rig big(make_loads());
  const Cycle s = small.run();
  const Cycle b = big.run();
  EXPECT_TRUE(small.core.done());
  EXPECT_GT(s, b);
  EXPECT_GT(small.core.stats().dispatch_stall_rob +
                small.core.stats().dispatch_stall_iq,
            0u);
}

// CommitEnv gating: holds every commit for the first 500 cycles.
class GateEnv : public CommitEnv {
 public:
  bool can_commit(CoreId, const workload::DynOp&, Cycle now) override {
    return now >= 500;
  }
};

TEST(OooCore, CommitGateStallsRetirement) {
  GateEnv env;
  Rig rig(independent_alus(100), Rig::no_frontend(), &env);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 500u);
  EXPECT_GT(rig.core.stats().commit_stall_gate, 0u);
}

// CommitEnv store rejection: rejects every store before cycle 300.
class RejectStoresEnv : public CommitEnv {
 public:
  bool on_store_commit(CoreId, const workload::DynOp&, Cycle now) override {
    return now >= 300;
  }
};

TEST(OooCore, StoreRejectionBackpressuresCommit) {
  RejectStoresEnv env;
  std::vector<DynOp> ops;
  ops.push_back(store_op(0, 0x1000));
  for (SeqNum i = 1; i < 50; ++i) ops.push_back(alu_op(i));
  Rig rig(std::move(ops), Rig::no_frontend(), &env);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 300u);
  EXPECT_GT(rig.core.stats().commit_stall_store, 0u);
  EXPECT_EQ(rig.core.stats().stores, 1u);
}

// Reserved ROB slots shrink the window exactly like Reunion's CHECK stage.
class ReserveEnv : public CommitEnv {
 public:
  explicit ReserveEnv(std::uint32_t n) : n_(n) {}
  std::uint32_t reserved_rob_slots(CoreId, Cycle) override { return n_; }

 private:
  std::uint32_t n_;
};

TEST(OooCore, ReservedRobSlotsReduceThroughputUnderMlp) {
  // Long-latency independent loads need a big window to overlap misses.
  auto make_loads = [] {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 600; ++i) {
      ops.push_back(load_op(i, 0x1000000 + i * 64));
    }
    return ops;
  };
  ReserveEnv reserve(100);  // eat 100 of 128 ROB entries
  Rig free_rig(make_loads());
  Rig held_rig(make_loads(), Rig::no_frontend(), &reserve);
  const Cycle fast = free_rig.run();
  const Cycle slow = held_rig.run();
  EXPECT_GT(slow, fast);
}

TEST(OooCore, StallUntilFreezesProgress) {
  Rig rig(independent_alus(100));
  rig.core.stall_until(200);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 200u);
  EXPECT_GT(rig.core.stats().recovery_stall_cycles, 0u);
}

TEST(OooCore, FlushRepositionsToOldestUncommitted) {
  Rig rig(independent_alus(1000));
  // Run a little, flush mid-flight, then finish: total retired must still
  // be exactly 1000 (no loss, no duplication).
  Cycle now = 0;
  for (; now < 20; ++now) rig.core.tick(now);
  const SeqNum committed = rig.core.retired();
  rig.core.flush_pipeline();
  EXPECT_EQ(rig.core.retired(), committed);
  while (!rig.core.done()) rig.core.tick(now++);
  EXPECT_EQ(rig.core.retired(), 1000u);
}

TEST(OooCore, SetPositionForwardSkips) {
  Rig rig(independent_alus(1000));
  rig.core.set_position(900);
  rig.run();
  EXPECT_EQ(rig.core.retired(), 1000u);
  EXPECT_LT(rig.core.stats().cycles, 200u);  // only 100 insts executed
}

TEST(OooCore, SetPositionBackwardRetraces) {
  Rig rig(independent_alus(500));
  Cycle now = 0;
  while (rig.core.retired() < 400) rig.core.tick(now++);
  rig.core.set_position(100);  // rollback
  EXPECT_EQ(rig.core.retired(), 100u);
  while (!rig.core.done()) rig.core.tick(now++);
  EXPECT_EQ(rig.core.retired(), 500u);
}

TEST(OooCore, DoneOnlyAfterPipelineDrains) {
  Rig rig(independent_alus(10));
  EXPECT_FALSE(rig.core.done());
  rig.run();
  EXPECT_TRUE(rig.core.done());
}

TEST(OooCore, RobOccupancyStatTracked) {
  Rig rig(independent_alus(2000));
  rig.run();
  EXPECT_GT(rig.core.stats().avg_rob_occupancy(), 0.0);
  EXPECT_LE(rig.core.stats().avg_rob_occupancy(),
            static_cast<double>(CoreConfig{}.rob_entries));
}

TEST(OooCore, TraceModeUsesInternalPredictor) {
  // Branches without hints: always-taken loop branch becomes predictable.
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 2000; ++i) {
    if (i % 5 == 4) {
      DynOp b = branch_op(i, false);
      b.has_mispredict_hint = false;
      b.pc = 0x1000;  // same branch every time
      b.taken = true;
      ops.push_back(b);
    } else {
      ops.push_back(alu_op(i));
    }
  }
  Rig rig(std::move(ops));
  rig.run();
  // After warmup the predictor should be nearly perfect.
  EXPECT_LT(rig.core.stats().mispredicts, 20u);
  EXPECT_EQ(rig.core.stats().branches, 400u);
}

// ---- Scheduling structures (ROB ring, wakeup lists, store chain, fence) ----

/// Records every commit as (seq, cycle).
class CommitLog : public CommitEnv {
 public:
  void on_commit(CoreId, const workload::DynOp& op, Cycle now) override {
    log.emplace_back(op.seq, now);
  }
  std::vector<std::pair<SeqNum, Cycle>> log;
};

/// A dependent mix: each op reads one or two recent producers, with
/// multi-cycle multiplies and divides so entries wait on unissued ones.
std::vector<DynOp> dependent_mix(std::uint64_t n) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < n; ++i) {
    DynOp op = alu_op(i, i >= 1 ? i - 1 : kNoSeq, i >= 7 ? i - 7 : kNoSeq);
    if (i % 13 == 0) op.cls = isa::InstClass::kIntDiv;
    if (i % 5 == 0) op.cls = isa::InstClass::kIntMul;
    if (i % 11 == 3) op = load_op(i, 0x40000 + (i % 32) * 8, i - 1);
    if (i % 17 == 4) op = store_op(i, 0x40000 + (i % 32) * 8, i - 2);
    ops.push_back(op);
  }
  return ops;
}

TEST(OooCoreRing, WrapsAcrossFlushesAndRepositions) {
  // An 8-entry ROB sits in a 64-slot ring; 3000 ops wrap it ~47 times,
  // and each flush or reposition restarts it at an arbitrary slot.
  CoreConfig cfg = Rig::no_frontend();
  cfg.rob_entries = 8;
  cfg.iq_entries = 8;
  CommitLog log;
  Rig rig(dependent_mix(3000), cfg, &log);
  Cycle now = 0;
  SeqNum expect = 0;  // the next seq that must commit
  const auto run_until = [&](SeqNum retired) {
    while (rig.core.retired() < retired && !rig.core.done()) {
      rig.core.tick(now++);
      ASSERT_LT(now, 1000000u) << "core stopped making progress";
    }
  };
  const std::pair<SeqNum, SeqNum> moves[] = {
      {500, kNoSeq}, {900, 700}, {1300, 1301}, {1700, 2500}, {2600, 1000}};
  for (const auto& [at, to] : moves) {
    run_until(at);
    if (to == kNoSeq) {
      rig.core.flush_pipeline();
    } else {
      rig.core.set_position(to);
    }
    for (const auto& [seq, cycle] : log.log) EXPECT_EQ(seq, expect++);
    expect = rig.core.retired();
    log.log.clear();
  }
  run_until(3000);
  for (const auto& [seq, cycle] : log.log) EXPECT_EQ(seq, expect++);
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 3000u);
}

TEST(OooCoreRing, CheckpointWithWaitingEntriesResumesExactly) {
  // A divide chain keeps consumers waiting on producers that have not
  // issued yet (the unpipelined divider is busy).
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 400; ++i) {
    DynOp op = alu_op(i, i >= 1 ? i - 1 : kNoSeq, i >= 3 ? i - 3 : kNoSeq);
    if (i % 6 == 0) op.cls = isa::InstClass::kIntDiv;
    if (i % 9 == 2) op = load_op(i, 0x80000 + (i % 8) * 8, i - 1);
    if (i % 10 == 5) op = store_op(i, 0x80000 + (i % 8) * 8, i - 1);
    ops.push_back(op);
  }
  constexpr Cycle kCut = 45;

  CommitLog ref_log;
  Rig ref(ops, Rig::no_frontend(), &ref_log);
  const Cycle ref_cycles = ref.run();

  CommitLog a_log;
  Rig a(ops, Rig::no_frontend(), &a_log);
  for (Cycle now = 0; now < kCut; ++now) a.core.tick(now);
  ASSERT_GT(a.core.rob_occupancy(), 10u);
  ASSERT_LT(a.core.retired(), 20u);  // the divide chain holds the ROB
  ckpt::Serializer s;
  a.core.save_state(s);
  a.memory.save_state(s);
  const std::string bytes = s.take();

  CommitLog b_log;
  Rig b(ops, Rig::no_frontend(), &b_log);
  ckpt::Deserializer d(bytes);
  b.core.load_state(d);
  b.memory.load_state(d);
  EXPECT_TRUE(d.at_end());
  ckpt::Serializer again;
  b.core.save_state(again);
  b.memory.save_state(again);
  EXPECT_EQ(again.data(), bytes);

  Cycle now = kCut;
  while (!b.core.done()) b.core.tick(now++);
  EXPECT_EQ(now, ref_cycles);
  b_log.log.insert(b_log.log.begin(), a_log.log.begin(), a_log.log.end());
  EXPECT_EQ(b_log.log, ref_log.log);
  ckpt::Serializer ref_stats, b_stats;
  save_stats(ref_stats, ref.core.stats());
  save_stats(b_stats, b.core.stats());
  EXPECT_EQ(b_stats.data(), ref_stats.data());
}

TEST(OooCoreRing, LoadForwardsFromYoungestOlderStore) {
  // Two older stores to the load's word: the older one waits on a chain of
  // three divides, the younger one is ready at once. The load must match
  // the younger store and run its multiply chain under the divides,
  // exactly as when the older store targets another word (of the same
  // page, so D-TLB timing is the same); matching the older store instead
  // would start the chain only after the divides.
  constexpr Addr kWord = 0x500000, kOtherWord = 0x500040;
  const auto make = [](Addr older_store, Addr younger_store) {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 3; ++i) {
      DynOp div = alu_op(i, i == 0 ? kNoSeq : i - 1);
      div.cls = isa::InstClass::kIntDiv;
      ops.push_back(div);
    }
    ops.push_back(store_op(3, older_store, 2));
    ops.push_back(store_op(4, younger_store));
    ops.push_back(load_op(5, kWord));
    for (SeqNum i = 6; i < 16; ++i) {
      DynOp mul = alu_op(i, i - 1);
      mul.cls = isa::InstClass::kIntMul;
      ops.push_back(mul);
    }
    return ops;
  };
  Rig both(make(kWord, kWord));
  Rig younger_only(make(kOtherWord, kWord));
  Rig older_only(make(kWord, kOtherWord));
  const Cycle t_both = both.run();
  EXPECT_EQ(t_both, younger_only.run());
  EXPECT_GT(older_only.run(), t_both + 20);
  // Forwarded, so the load never reached the cache.
  EXPECT_EQ(both.memory.l1(0).hits() + both.memory.l1(0).misses(), 0u);
}

TEST(OooCoreRing, MemoryOpsNeverPassAnOlderSerializingOp) {
  // The serializing op waits behind a divide at the ROB head; the younger
  // load and store are ready at dispatch but must not issue (no D-TLB
  // access) until it retires.
  std::vector<DynOp> ops;
  DynOp div = alu_op(0);
  div.cls = isa::InstClass::kIntDiv;
  ops.push_back(div);
  ops.push_back(serial_op(1));
  ops.push_back(load_op(2, 0x700000));
  ops.push_back(store_op(3, 0x700100));
  ops.push_back(alu_op(4));
  Rig rig(std::move(ops));
  Cycle now = 0;
  Cycle retired_at = 0;
  while (!rig.core.done()) {
    const bool before = rig.core.stats().serializing == 0;
    rig.core.tick(now++);
    if (before && rig.core.stats().serializing == 1) retired_at = now - 1;
    if (rig.core.stats().serializing == 0) {
      ASSERT_EQ(rig.core.dtlb().hits() + rig.core.dtlb().misses(), 0u)
          << "a memory op issued past the fence at cycle " << now - 1;
    }
    ASSERT_LT(now, 10000u);
  }
  EXPECT_GE(retired_at, 20u);  // the fence really was held by the divide
  EXPECT_EQ(rig.core.dtlb().hits() + rig.core.dtlb().misses(), 2u);
}


TEST(OooCoreFrontend, IcacheResidentLoopRunsFast) {
  // Code that fits the I-cache: after the cold pass the front end streams.
  CoreConfig cfg;  // frontend ON
  std::vector<DynOp> ops;
  constexpr SeqNum kInsts = 40000;  // long enough to amortise the cold pass
  for (SeqNum i = 0; i < kInsts; ++i) {
    DynOp op = alu_op(i);
    op.pc = 0x1000 + (i % 512) * 4;  // 2 KiB loop body
    ops.push_back(op);
  }
  Rig rig(std::move(ops), cfg);
  const Cycle cycles = rig.run();
  EXPECT_GT(static_cast<double>(kInsts) / static_cast<double>(cycles), 2.0);
}

TEST(OooCoreFrontend, NextLinePrefetchHelpsSequentialCode) {
  // Long straight-line cold code is DRAM-bound either way, but next-line
  // prefetch overlaps every other line fetch, so sequential code runs
  // clearly faster per instruction than page-scattered code (which gets no
  // prefetch benefit and adds I-TLB walks).
  CoreConfig cfg;
  auto make = [](Addr stride) {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 2000; ++i) {
      DynOp op = alu_op(i);
      op.pc = 0x100000 + i * stride;
      ops.push_back(op);
    }
    return ops;
  };
  Rig sequential(make(4), cfg);
  Rig scattered(make(4096), cfg);
  const Cycle seq = sequential.run();
  const Cycle scat = scattered.run();
  EXPECT_LT(seq, scat / 4);  // 16 insts/line + 2x prefetch overlap >> 1 inst/page
  EXPECT_GT(sequential.memory.icache(0).misses(), 60u);  // really did miss
}

TEST(OooCoreFrontend, ScatteredCodeThrashesIcache) {
  // Jumping through a region far larger than the I-cache defeats both the
  // cache and the prefetcher: clearly slower than the resident loop.
  CoreConfig cfg;
  auto make = [](Addr stride) {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 2000; ++i) {
      DynOp op = alu_op(i);
      op.pc = 0x100000 + (i * stride) % (8u << 20);
      ops.push_back(op);
    }
    return ops;
  };
  Rig resident(make(0), cfg);          // all ops at one pc
  Rig scattered(make(4096), cfg);      // new page + line every op
  const Cycle fast = resident.run();
  const Cycle slow = scattered.run();
  EXPECT_GT(slow, fast * 3);
  EXPECT_GT(scattered.core.stats().fetch_blocked_icache, 100u);
  EXPECT_GT(scattered.core.stats().itlb_misses, 100u);
}

TEST(OooCoreFrontend, DtlbMissesChargedOnDataAccesses) {
  CoreConfig cfg = Rig::no_frontend();  // isolate the D-TLB
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 500; ++i) {
    // One load per page over far more pages than the D-TLB holds.
    ops.push_back(load_op(i, 0x2000000 + i * 4096));
  }
  Rig rig(std::move(ops), cfg);
  rig.run();
  EXPECT_GT(rig.core.stats().dtlb_misses, 400u);
}

TEST(OooCoreFrontend, DtlbFriendlyAccessesMissRarely) {
  CoreConfig cfg = Rig::no_frontend();
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 500; ++i) {
    ops.push_back(load_op(i, 0x2000000 + (i % 512) * 8));  // one page
  }
  Rig rig(std::move(ops), cfg);
  rig.run();
  EXPECT_LE(rig.core.stats().dtlb_misses, 1u);
}

}  // namespace
}  // namespace unsync::cpu
