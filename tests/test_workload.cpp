#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <ostream>
#include <string>

#include "ckpt/serializer.hpp"
#include "common/geometric.hpp"
#include "isa/assembler.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {
namespace {

TEST(Profiles, AllBuiltinsValidate) {
  for (const auto& p : all_profiles()) {
    EXPECT_FALSE(p.validate().has_value()) << p.name;
  }
}

TEST(Profiles, ExpectedCatalogue) {
  const auto names = profile_names();
  EXPECT_EQ(names.size(), 14u);
  EXPECT_NO_THROW(profile("bzip2"));
  EXPECT_NO_THROW(profile("galgel"));
  EXPECT_NO_THROW(profile("susan"));
  EXPECT_THROW(profile("doom"), std::out_of_range);
}

TEST(Profiles, PaperSerializingFractions) {
  // Figure 4 quotes these directly.
  EXPECT_DOUBLE_EQ(profile("bzip2").mix.serializing, 0.02);
  EXPECT_DOUBLE_EQ(profile("ammp").mix.serializing, 0.017);
  EXPECT_DOUBLE_EQ(profile("galgel").mix.serializing, 0.01);
}

TEST(Profiles, GalgelIsRobSaturating) {
  // galgel needs the largest instruction window of the catalogue.
  const auto& g = profile("galgel");
  for (const auto& p : all_profiles()) {
    EXPECT_LE(p.mean_dep_distance, g.mean_dep_distance) << p.name;
  }
}

TEST(Profiles, SusanIsMostStoreIntensive) {
  const auto& s = profile("susan");
  for (const auto& p : all_profiles()) {
    EXPECT_LE(p.mix.store, s.mix.store) << p.name;
  }
}

TEST(Profiles, ValidationCatchesBadMix) {
  BenchmarkProfile p = profile("gzip");
  p.mix.load += 0.5;
  EXPECT_TRUE(p.validate().has_value());
}

TEST(Profiles, ValidationCatchesBadRates) {
  BenchmarkProfile p = profile("gzip");
  p.l1_miss_rate = 1.5;
  EXPECT_TRUE(p.validate().has_value());
  p = profile("gzip");
  p.mean_dep_distance = 0.5;
  EXPECT_TRUE(p.validate().has_value());
}

TEST(Synthetic, YieldsExactlyLengthOps) {
  SyntheticStream s(profile("gzip"), 1, 1000);
  DynOp op;
  std::uint64_t n = 0;
  while (s.next(&op)) ++n;
  EXPECT_EQ(n, 1000u);
  EXPECT_FALSE(s.next(&op));
}

TEST(Synthetic, SequenceNumbersAreDense) {
  SyntheticStream s(profile("gzip"), 1, 100);
  DynOp op;
  for (SeqNum i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.next(&op));
    EXPECT_EQ(op.seq, i);
  }
}

TEST(Synthetic, CloneYieldsIdenticalStream) {
  SyntheticStream s(profile("ammp"), 99, 5000);
  auto c = s.clone();
  DynOp a, b;
  while (true) {
    const bool ga = s.next(&a);
    const bool gb = c->next(&b);
    ASSERT_EQ(ga, gb);
    if (!ga) break;
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.mem_addr, b.mem_addr);
    EXPECT_EQ(a.src[0], b.src[0]);
    EXPECT_EQ(a.src[1], b.src[1]);
    EXPECT_EQ(a.mispredict_hint, b.mispredict_hint);
  }
}

TEST(Synthetic, ResetReplaysIdentically) {
  SyntheticStream s(profile("mcf"), 7, 200);
  std::vector<DynOp> first;
  DynOp op;
  while (s.next(&op)) first.push_back(op);
  s.reset();
  for (const auto& expect : first) {
    ASSERT_TRUE(s.next(&op));
    EXPECT_EQ(op.seq, expect.seq);
    EXPECT_EQ(op.cls, expect.cls);
    EXPECT_EQ(op.mem_addr, expect.mem_addr);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticStream a(profile("gcc"), 1, 500);
  SyntheticStream b(profile("gcc"), 2, 500);
  DynOp oa, ob;
  int same_cls = 0;
  for (int i = 0; i < 500; ++i) {
    a.next(&oa);
    b.next(&ob);
    same_cls += oa.cls == ob.cls;
  }
  EXPECT_LT(same_cls, 400);  // streams are not identical
}

TEST(Synthetic, MixMatchesProfileStatistically) {
  const auto& prof = profile("bzip2");
  SyntheticStream s(prof, 42, 200000);
  DynOp op;
  std::uint64_t loads = 0, stores = 0, branches = 0, serial = 0;
  while (s.next(&op)) {
    loads += op.is_load();
    stores += op.is_store();
    branches += op.is_branch();
    serial += op.is_serializing();
  }
  const double n = 200000;
  EXPECT_NEAR(loads / n, prof.mix.load, 0.01);
  EXPECT_NEAR(stores / n, prof.mix.store, 0.01);
  EXPECT_NEAR(branches / n, prof.mix.branch, 0.01);
  EXPECT_NEAR(serial / n, prof.mix.serializing, 0.003);
}

TEST(Synthetic, MispredictHintRateMatchesProfile) {
  const auto& prof = profile("qsort");  // 10% mispredict
  SyntheticStream s(prof, 17, 200000);
  DynOp op;
  std::uint64_t branches = 0, wrong = 0;
  while (s.next(&op)) {
    if (op.is_branch()) {
      EXPECT_TRUE(op.has_mispredict_hint);
      ++branches;
      wrong += op.mispredict_hint;
    }
  }
  ASSERT_GT(branches, 1000u);
  EXPECT_NEAR(static_cast<double>(wrong) / branches,
              prof.branch_mispredict_rate, 0.01);
}

TEST(Synthetic, DependencyDistancesHaveProfileMean) {
  const auto& prof = profile("galgel");  // mean 24
  SyntheticStream s(prof, 5, 100000);
  DynOp op;
  double sum = 0;
  std::uint64_t n = 0;
  while (s.next(&op)) {
    for (const SeqNum src : op.src) {
      if (src == kNoSeq) continue;
      sum += static_cast<double>(op.seq - src);
      ++n;
    }
  }
  ASSERT_GT(n, 1000u);
  EXPECT_NEAR(sum / static_cast<double>(n), prof.mean_dep_distance,
              prof.mean_dep_distance * 0.1);
}

TEST(Synthetic, ProducersAlwaysOlder) {
  SyntheticStream s(profile("equake"), 3, 20000);
  DynOp op;
  while (s.next(&op)) {
    for (const SeqNum src : op.src) {
      if (src != kNoSeq) {
        EXPECT_LT(src, op.seq);
      }
    }
  }
}

TEST(Synthetic, MemOpsCarryAlignedAddresses) {
  SyntheticStream s(profile("susan"), 4, 20000);
  DynOp op;
  while (s.next(&op)) {
    if (op.is_load() || op.is_store()) {
      ASSERT_NE(op.mem_addr, kNoAddr);
      EXPECT_EQ(op.mem_addr % 8, 0u);
    } else {
      EXPECT_EQ(op.mem_addr, kNoAddr);
    }
  }
}

// ---- Dependency-distance table vs its reference expression ------------------
//
// The stream draws each dependency distance from a GeometricTable; every
// draw must equal the reference floor(log1p(-u) / log1p(-p)) that
// Rng::geometric evaluates, or streams silently change. Checked for every
// profile's p on random uniforms and on the doubles nearest the places the
// table could be wrong: its thresholds, its bucket edges and both ends of
// [0, 1).

class GeometricOracle : public ::testing::TestWithParam<std::string> {
 protected:
  static std::uint64_t oracle(double u, double p) {
    return static_cast<std::uint64_t>(
        std::floor(std::log1p(-u) / std::log1p(-p)));
  }
};

TEST_P(GeometricOracle, TableDrawEqualsTheReference) {
  const double p = 1.0 / profile(GetParam()).mean_dep_distance;
  const GeometricTable table(p);
  // The fast path must actually carry the stream: >= 95 % of [0, 1).
  EXPECT_GE(table.covered(), GeometricTable::kBuckets * 95 / 100);

  auto expect_exact = [&](double u) {
    ASSERT_EQ(table(u), oracle(u, p)) << std::hexfloat << "u = " << u;
  };
  expect_exact(0.0);
  expect_exact(std::nextafter(1.0, 0.0));  // the largest u < 1

  Rng rng(0x5eed);
  for (int i = 0; i < 10'000'000; ++i) {
    const double u = rng.uniform();
    if (table(u) != oracle(u, p)) {
      expect_exact(u);  // reports the first mismatch
      break;
    }
  }

  // Every double within 64 ulps of every placed threshold, and of the
  // first threshold past the table.
  for (std::uint64_t k = 1; k <= table.thresholds() + 1; ++k) {
    double lo = table.threshold(k), hi = lo;
    for (int ulp = 0; ulp <= 64; ++ulp) {
      if (lo < 1.0) expect_exact(lo);
      if (hi < 1.0) expect_exact(hi);
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1.0);
    }
  }
  // Both sides of every bucket edge.
  for (std::size_t b = 1; b < GeometricTable::kBuckets; ++b) {
    const double edge = static_cast<double>(b) / GeometricTable::kBuckets;
    expect_exact(edge);
    expect_exact(std::nextafter(edge, 0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, GeometricOracle,
                         ::testing::ValuesIn(profile_names()),
                         [](const auto& info) { return info.param; });

// ---- Stream pins ------------------------------------------------------------
//
// XXH64 (ckpt::fingerprint64) of the save_op bytes of each profile's first
// 200k ops at two seeds, recorded before the table-driven dependency draw
// replaced Rng::geometric. Any change to the generator that alters a stream
// fails here, for every profile, not only for those the goldens touch.

struct StreamPinValue {
  const char* profile;
  std::uint64_t seed;
  std::uint64_t fingerprint;
};

constexpr StreamPinValue kStreamPins[] = {
    {"bzip2", 1, 0x28c67a1fbfba4da9ull},
    {"gzip", 1, 0xc8fb29b2917ecfa8ull},
    {"mcf", 1, 0x2dac22b05d0c90c7ull},
    {"gcc", 1, 0xd54a280f052a0e2dull},
    {"parser", 1, 0x67d167e9839641d7ull},
    {"vpr", 1, 0x9469a0b108a5eec2ull},
    {"twolf", 1, 0x7b3be47fcfff927bull},
    {"ammp", 1, 0x5de97bf7e1309656ull},
    {"galgel", 1, 0x17165b5cf5154009ull},
    {"equake", 1, 0x4bcc18d5803db1daull},
    {"art", 1, 0xbd2d2995056b9f12ull},
    {"qsort", 1, 0xb2fb7d7c63b5cf8aull},
    {"dijkstra", 1, 0x209027ad43ea914bull},
    {"susan", 1, 0x785568c702847db0ull},
    {"bzip2", 42, 0x2dc5be025d3480b2ull},
    {"gzip", 42, 0xd16de39da769c510ull},
    {"mcf", 42, 0xf1f272a2304b6af4ull},
    {"gcc", 42, 0x843babac32e623f6ull},
    {"parser", 42, 0x0f45597385e352f3ull},
    {"vpr", 42, 0xe64b2b4d8971b512ull},
    {"twolf", 42, 0xb2c2d580b3584f51ull},
    {"ammp", 42, 0xdeba7d5c6d9fd5acull},
    {"galgel", 42, 0xe34af37ad8763f73ull},
    {"equake", 42, 0x8ce2c709a618ac8aull},
    {"art", 42, 0xdea95b827a0d3e55ull},
    {"qsort", 42, 0xfa81639153b4f12cull},
    {"dijkstra", 42, 0x771a1126bcb5bc1eull},
    {"susan", 42, 0x7f043b77ab54f684ull},
};

void PrintTo(const StreamPinValue& pin, std::ostream* os) {
  *os << pin.profile << "/seed" << pin.seed;
}

class StreamPin : public ::testing::TestWithParam<StreamPinValue> {};

TEST_P(StreamPin, FirstOpsMatchThePin) {
  const StreamPinValue& pin = GetParam();
  SyntheticStream s(profile(pin.profile), pin.seed, 200000);
  ckpt::Serializer bytes;
  DynOp op;
  while (s.next(&op)) save_op(bytes, op);
  EXPECT_EQ(ckpt::fingerprint64(bytes.data()), pin.fingerprint)
      << std::hex << "0x" << ckpt::fingerprint64(bytes.data());
}

TEST(StreamPin, EveryProfileIsPinnedAtBothSeeds) {
  EXPECT_EQ(std::size(kStreamPins), 2 * all_profiles().size());
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, StreamPin, ::testing::ValuesIn(kStreamPins),
                         [](const auto& info) {
                           return std::string(info.param.profile) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

TEST(Trace, RecordsRetiredInstructions) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 3
    addi r2, r0, 4
    add  r3, r1, r2
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].cls, isa::InstClass::kIntAlu);
  EXPECT_TRUE(trace[0].writes_reg);
}

TEST(Trace, ProducerSeqsFollowRegisterDataflow) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 3     # seq 0 writes r1
    addi r2, r0, 4     # seq 1 writes r2
    add  r3, r1, r2    # seq 2 reads r1(0), r2(1)
    add  r4, r3, r1    # seq 3 reads r3(2), r1(0)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[2].src[0], 0u);
  EXPECT_EQ(trace[2].src[1], 1u);
  EXPECT_EQ(trace[3].src[0], 2u);
  EXPECT_EQ(trace[3].src[1], 0u);
}

TEST(Trace, R0NeverAProducer) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r0, r0, 7     # writes nothing
    add  r1, r0, r0
    halt
  )");
  const auto trace = record_trace(prog, 100);
  EXPECT_EQ(trace[1].src[0], kNoSeq);
  EXPECT_EQ(trace[1].src[1], kNoSeq);
}

TEST(Trace, StoreSourcesAreDataAndBase) {
  const auto prog = isa::Assembler::assemble(R"(
    la   r1, 0x200000  # seqs 0,1 write r1
    addi r2, r0, 9     # seq 2 writes r2
    st   r2, 0(r1)     # seq 3 reads r2(data) and r1(base)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[3].src[0], 2u);  // data register
  EXPECT_EQ(trace[3].src[1], 1u);  // base (ori of la)
  EXPECT_TRUE(trace[3].is_store());
  EXPECT_EQ(trace[3].mem_addr, 0x200000u);
}

TEST(Trace, FpDataflowTracked) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 2     # seq 0
    fmovi f1, r1       # seq 1: fp producer
    fadd f2, f1, f1    # seq 2 reads f1(1)
    halt
  )");
  const auto trace = record_trace(prog, 100);
  EXPECT_EQ(trace[2].src[0], 1u);
  EXPECT_EQ(trace[2].src[1], 1u);
}

TEST(Trace, BranchOutcomeRecorded) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 1
    bne  r1, r0, skip
    addi r9, r0, 1
  skip:
    halt
  )");
  const auto trace = record_trace(prog, 100);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[1].is_branch());
  EXPECT_TRUE(trace[1].taken);
  EXPECT_FALSE(trace[1].has_mispredict_hint);  // core predicts for traces
}

TEST(Trace, StreamReplayAndClone) {
  const auto prog = isa::Assembler::assemble(R"(
    addi r1, r0, 5
  loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
  )");
  TraceStream s(record_trace(prog, 1000));
  EXPECT_EQ(s.length(), 11u);  // 1 + 5*2 iterations
  auto c = s.clone();
  DynOp a, b;
  std::uint64_t n = 0;
  while (s.next(&a)) {
    ASSERT_TRUE(c->next(&b));
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.pc, b.pc);
    ++n;
  }
  EXPECT_EQ(n, 11u);
  s.reset();
  ASSERT_TRUE(s.next(&a));
  EXPECT_EQ(a.seq, 0u);
}

TEST(Trace, MaxInstsTruncates) {
  const auto prog = isa::Assembler::assemble(R"(
  spin:
    beq r0, r0, spin
    halt
  )");
  const auto trace = record_trace(prog, 50);
  EXPECT_EQ(trace.size(), 50u);
}

}  // namespace
}  // namespace unsync::workload
