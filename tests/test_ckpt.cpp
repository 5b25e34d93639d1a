// Checkpoint/restore subsystem tests (src/ckpt + the save_state/load_state
// hooks): wire-format primitives, the "unsync.ckpt.v1" container (golden-
// pinned bytes), corruption rejection, component round-trips, and the
// headline guarantee — a system snapshotted mid-run and restored into a
// fresh process-equivalent instance finishes with a bit-identical RunResult
// for every architecture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "cpu/ooo_core.hpp"
#include "fault/ser.hpp"
#include "mem/hierarchy.hpp"
#include "mem/write_buffer.hpp"
#include "obs/metrics.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

// ---- CRC and scalar wire format ---------------------------------------------

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The universal CRC-32 check vector: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(ckpt::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(""), 0u);
  EXPECT_NE(ckpt::crc32("123456789"), ckpt::crc32("123456788"));
}

TEST(Crc32, SeedChainsIncrementally) {
  // Note the explicit string_views: with a raw char* the seed would bind to
  // the (const void*, len) overload's length parameter.
  const std::uint32_t whole = ckpt::crc32(std::string_view("123456789"));
  const std::uint32_t part = ckpt::crc32(
      std::string_view("6789"), ckpt::crc32(std::string_view("12345")));
  EXPECT_EQ(whole, part);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// sliced implementation must agree with.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t len,
                              std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

/// Deterministic pseudo-random bytes for the codec tests.
std::vector<unsigned char> noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next());
  return out;
}

TEST(Crc32, SlicedMatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = noise(300 + 8, 17);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(ckpt::crc32(p, len), crc32_reference(p, len, 0))
          << "align " << align << " len " << len;
      // Chained: any split point, with the first half's CRC as the seed.
      const std::size_t cut = (len * 5) / 7;
      EXPECT_EQ(ckpt::crc32(p + cut, len - cut, ckpt::crc32(p, cut)),
                crc32_reference(p, len, 0))
          << "align " << align << " len " << len << " cut " << cut;
    }
  }
  for (const std::uint32_t seed : {1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(ckpt::crc32(buf.data() + 3, 257, seed),
              crc32_reference(buf.data() + 3, 257, seed));
  }
}

TEST(Hash64, StaysFnv1aWithItsRecordedBasis) {
  // FNV-1a over the FNV-64 prime, but from the offset basis 1469598103934665603
  // (the published 14695981039346656037 with its last digit lost), so the
  // published vectors 0xcbf29ce484222325 ("") and 0xaf63dc4c8601ec8c ("a") do
  // not hold. Recorded result digests were made with this basis: pin it.
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  EXPECT_EQ(ckpt::hash64(""), kBasis);
  EXPECT_EQ(ckpt::hash64("a"), (kBasis ^ 'a') * kPrime);
  EXPECT_EQ(ckpt::hash64("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(ckpt::hash64("ab"), ((kBasis ^ 'a') * kPrime ^ 'b') * kPrime);
}

TEST(Fingerprint64, MatchesXxh64Vectors) {
  EXPECT_EQ(ckpt::fingerprint64(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(ckpt::fingerprint64("abc"), 0x44BC2CF5AD770999ull);
}

TEST(Fingerprint64, EverySingleBitFlipChangesTheHash) {
  std::vector<unsigned char> buf = noise(4096, 5);
  const auto hash = [&] {
    return ckpt::fingerprint64(std::string_view(
        reinterpret_cast<const char*>(buf.data()), buf.size()));
  };
  const std::uint64_t clean = hash();
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(hash(), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(hash(), clean);
}

TEST(Fingerprint64, LengthsAndTailsAllHashApart) {
  // Every prefix of a buffer (zero bytes included, so a longer run of zeros
  // is not the same state) hashes to a distinct value, and a flip in the
  // last byte changes the hash for each tail length n % 32.
  const std::vector<unsigned char> noisy = noise(200, 9);
  for (const auto& buf : {noisy, std::vector<unsigned char>(200, 0)}) {
    const std::string_view all(reinterpret_cast<const char*>(buf.data()),
                               buf.size());
    std::vector<std::uint64_t> seen;
    for (std::size_t n = 0; n <= all.size(); ++n) {
      seen.push_back(ckpt::fingerprint64(all.substr(0, n)));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  }
  for (std::size_t n = 33; n < 33 + 32; ++n) {
    std::string s(reinterpret_cast<const char*>(noisy.data()), n);
    const std::uint64_t before = ckpt::fingerprint64(s);
    s.back() = static_cast<char>(s.back() ^ 0x80);
    EXPECT_NE(ckpt::fingerprint64(s), before) << "n " << n;
  }
}

TEST(Serializer, ScalarsRoundTrip) {
  ckpt::Serializer s;
  s.u8(0xAB);
  s.u32(0xDEADBEEF);
  s.u64(~std::uint64_t{0});
  s.i64(-123456789);
  s.b(true);
  s.b(false);
  s.f64(0.1);
  s.f64(-0.0);
  s.str("hello\0world");  // embedded NUL truncated by string_view ctor rules
  s.str("");

  ckpt::Deserializer d(s.take());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), ~std::uint64_t{0});
  EXPECT_EQ(d.i64(), -123456789);
  EXPECT_TRUE(d.b());
  EXPECT_FALSE(d.b());
  EXPECT_EQ(d.f64(), 0.1);
  const double neg_zero = d.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // f64 is bit-exact, not value-equal
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.str(), "");
  EXPECT_TRUE(d.at_end());
}

TEST(Serializer, ScalarsAreLittleEndian) {
  ckpt::Serializer s;
  s.u32(0x01020304);
  EXPECT_EQ(hex(s.data()), "04030201");
}

TEST(Serializer, RecordWritesTheSameBytesAsOneCallPerField) {
  ckpt::Serializer fields;
  fields.u64(0x1122334455667788ull);
  fields.b(true);
  fields.b(false);
  fields.u32(0xA0B0C0D0u);
  fields.u8(0x7F);
  ckpt::Serializer rec;
  rec.record(std::uint64_t{0x1122334455667788ull}, true, false,
             std::uint32_t{0xA0B0C0D0u}, std::uint8_t{0x7F});
  EXPECT_EQ(hex(rec.data()), hex(fields.data()));

  ckpt::Deserializer d(rec.take());
  std::uint64_t a = 0;
  bool t = false, f = true;
  std::uint32_t c = 0;
  std::uint8_t e = 0;
  d.record(a, t, f, c, e);
  EXPECT_EQ(a, 0x1122334455667788ull);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_EQ(c, 0xA0B0C0D0u);
  EXPECT_EQ(e, 0x7F);
  EXPECT_TRUE(d.at_end());
  // A record that does not fit is rejected before any field is read.
  ckpt::Deserializer short_d(std::string(8, '\0'));
  EXPECT_THROW(short_d.record(a, t), ckpt::CkptError);
}

TEST(Deserializer, ReadingPastTheEndThrows) {
  ckpt::Deserializer d(std::string("\x01", 1));
  EXPECT_EQ(d.u8(), 1);
  EXPECT_THROW(d.u8(), ckpt::CkptError);
  ckpt::Deserializer d2(std::string("abc"));
  EXPECT_THROW(d2.u64(), ckpt::CkptError);
}

// ---- Tagged chunks ----------------------------------------------------------

TEST(Chunks, NestAndVerifyExactConsumption) {
  ckpt::Serializer s;
  s.begin_chunk("OUTR");
  s.u64(7);
  s.begin_chunk("INNR");
  s.str("payload");
  s.end_chunk();
  s.u32(9);
  s.end_chunk();

  ckpt::Deserializer d(s.take());
  d.begin_chunk("OUTR");
  EXPECT_EQ(d.u64(), 7u);
  d.begin_chunk("INNR");
  EXPECT_EQ(d.str(), "payload");
  d.end_chunk();
  EXPECT_EQ(d.u32(), 9u);
  d.end_chunk();
  EXPECT_TRUE(d.at_end());
}

TEST(Chunks, TagMismatchThrows) {
  ckpt::Serializer s;
  s.begin_chunk("AAAA");
  s.u64(1);
  s.end_chunk();
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(d.begin_chunk("BBBB"), ckpt::CkptError);
}

TEST(Chunks, UnderConsumptionThrows) {
  ckpt::Serializer s;
  s.begin_chunk("DATA");
  s.u64(1);
  s.u64(2);
  s.end_chunk();
  ckpt::Deserializer d(s.take());
  d.begin_chunk("DATA");
  (void)d.u64();  // reader that forgets the second field must fail loudly
  EXPECT_THROW(d.end_chunk(), ckpt::CkptError);
}

TEST(Chunks, OverConsumptionThrows) {
  ckpt::Serializer s;
  s.begin_chunk("DATA");
  s.u32(1);
  s.end_chunk();
  s.u64(42);  // the next section, not part of the chunk
  ckpt::Deserializer d(s.take());
  d.begin_chunk("DATA");
  (void)d.u32();
  EXPECT_THROW(d.u32(), ckpt::CkptError);  // would cross the chunk boundary
}

// ---- Container format (golden-pinned) ---------------------------------------

TEST(Container, GoldenBytes) {
  // Pins the "unsync.ckpt.v1" file layout byte-for-byte: magic, schema
  // string, payload length, CRC-32, payload. Any change to this golden is a
  // schema break and needs a version bump, not a golden update.
  EXPECT_EQ(hex(ckpt::wrap_container("ab")),
            "554e5359434b50540e00000000000000"  // "UNSYCKPT", len("unsync...")
            "756e73796e632e636b70742e7631"      // "unsync.ckpt.v1"
            "0200000000000000"                  // payload length = 2
            "6d48839e"                          // crc32("ab")
            "6162");                            // payload "ab"
}

TEST(Container, RoundTrips) {
  const std::string payload = "arbitrary \x00 binary \xff bytes";
  EXPECT_EQ(ckpt::unwrap_container(ckpt::wrap_container(payload)), payload);
}

TEST(Container, RejectsCorruption) {
  std::string file = ckpt::wrap_container("some checkpoint payload");
  // Flip one payload bit -> CRC mismatch.
  std::string corrupt = file;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  EXPECT_THROW(ckpt::unwrap_container(corrupt), ckpt::CkptError);
  // Truncate -> advertised length vs. bytes-present mismatch.
  EXPECT_THROW(ckpt::unwrap_container(
                   std::string_view(file).substr(0, file.size() - 3)),
               ckpt::CkptError);
  // Bad magic.
  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_THROW(ckpt::unwrap_container(bad_magic), ckpt::CkptError);
  // Unknown schema string.
  std::string bad_schema = file;
  bad_schema[16] = 'X';  // first byte of "unsync.ckpt.v1"
  EXPECT_THROW(ckpt::unwrap_container(bad_schema), ckpt::CkptError);
}

TEST(Container, FileRoundTripAndCorruptFileRejection) {
  const std::string path = ::testing::TempDir() + "ckpt_file_test.ckpt";
  ckpt::write_file(path, "file payload");
  EXPECT_EQ(ckpt::read_file(path), "file payload");

  // Corrupt the file on disk; read_file must throw CkptError.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(ckpt::read_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

// ---- Component round-trips --------------------------------------------------

TEST(ComponentCkpt, RngStateRoundTrips) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) (void)a.next();
  Rng b(999);  // different seed, then overwritten
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ComponentCkpt, WriteBufferRoundTrips) {
  mem::WriteBuffer wb(8);
  wb.push(0x1000, 1, 10);
  wb.push(0x2000, 2, 11);
  wb.push(0x3000, 3, 12);
  wb.pop();

  ckpt::Serializer s;
  wb.save_state(s);
  const std::string bytes = s.take();

  mem::WriteBuffer restored(8);
  ckpt::Deserializer d(bytes);
  restored.load_state(d);
  EXPECT_EQ(restored.size(), wb.size());
  EXPECT_EQ(restored.front().addr, wb.front().addr);
  EXPECT_EQ(restored.front().seq, wb.front().seq);
  EXPECT_EQ(restored.peak_occupancy(), wb.peak_occupancy());
  EXPECT_EQ(restored.total_pushed(), wb.total_pushed());

  // save -> load -> save is byte-identical.
  ckpt::Serializer s2;
  restored.save_state(s2);
  EXPECT_EQ(s2.data(), bytes);

  // Capacity is configuration, not state: restoring into a differently
  // sized buffer is rejected.
  mem::WriteBuffer wrong(16);
  ckpt::Deserializer d2(bytes);
  EXPECT_THROW(wrong.load_state(d2), ckpt::CkptError);
}

TEST(ComponentCkpt, SyntheticStreamRoundTrips) {
  workload::SyntheticStream a(workload::profile("gzip"), 7, 10000);
  workload::DynOp op;
  for (int i = 0; i < 1234; ++i) ASSERT_TRUE(a.next(&op));

  ckpt::Serializer s;
  a.save_state(s);
  workload::SyntheticStream b(workload::profile("gzip"), 7, 10000);
  ckpt::Deserializer d(s.take());
  b.load_state(d);

  workload::DynOp oa, ob;
  while (true) {
    const bool ha = a.next(&oa), hb = b.next(&ob);
    ASSERT_EQ(ha, hb);
    if (!ha) break;
    ASSERT_EQ(oa.seq, ob.seq);
    ASSERT_EQ(oa.pc, ob.pc);
    ASSERT_EQ(oa.mem_addr, ob.mem_addr);
    ASSERT_EQ(oa.taken, ob.taken);
  }
}

TEST(ComponentCkpt, SyntheticStreamRejectsIdentityMismatch) {
  workload::SyntheticStream a(workload::profile("gzip"), 7, 10000);
  ckpt::Serializer s;
  a.save_state(s);
  const std::string bytes = s.take();

  workload::SyntheticStream wrong_seed(workload::profile("gzip"), 8, 10000);
  ckpt::Deserializer d1(bytes);
  EXPECT_THROW(wrong_seed.load_state(d1), ckpt::CkptError);

  workload::SyntheticStream wrong_prof(workload::profile("mcf"), 7, 10000);
  ckpt::Deserializer d2(bytes);
  EXPECT_THROW(wrong_prof.load_state(d2), ckpt::CkptError);
}

TEST(ComponentCkpt, RunningStatRestoreIsExact) {
  RunningStat a;
  for (const double v : {1.5, -2.25, 7.75, 0.125, 3.5}) a.add(v);
  RunningStat b;
  b.restore(a.count(), a.mean(), a.m2(), a.min(), a.max(), a.sum());
  // Bit-equality, not tolerance: restore() reinstates the raw accumulators.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.sum(), b.sum());
  a.add(42.0);
  b.add(42.0);
  EXPECT_EQ(a.stddev(), b.stddev());  // and further accumulation agrees
}

TEST(ComponentCkpt, MetricsSnapshotRoundTripsByteIdentically) {
  obs::MetricsRegistry reg;
  reg.counter("sys.core0.commits").inc(123);
  reg.gauge("sys.ipc").add(0.75);
  reg.gauge("sys.ipc").add(1.25);
  reg.histogram("sys.rob", 0, 128, 8).add(17);
  obs::MetricsSnapshot snap = reg.snapshot();

  ckpt::Serializer s;
  snap.save(s);
  const std::string bytes = s.take();

  obs::MetricsSnapshot restored;
  ckpt::Deserializer d(bytes);
  restored.load(d);
  EXPECT_EQ(restored.to_json(), snap.to_json());

  ckpt::Serializer s2;
  restored.save(s2);
  EXPECT_EQ(s2.data(), bytes);
}

// ---- Whole-system snapshot / resume -----------------------------------------

class SystemCkpt : public ::testing::TestWithParam<core::SystemKind> {
 protected:
  std::unique_ptr<core::System> make() const {
    core::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.ser_per_inst = 2e-5;  // exercise error injection + recovery state
    cfg.seed = 1234;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     6000);
    return core::make_system(GetParam(), cfg, stream);
  }
};

TEST_P(SystemCkpt, MidRunSnapshotResumesBitExactly) {
  // Ground truth: one uninterrupted run.
  const core::RunResult full = make()->run();
  ASSERT_GT(full.cycles, 100u);

  // Interrupted twin: run to ~40%, snapshot, discard the instance.
  const Cycle cut = full.cycles * 2 / 5;
  std::string snapshot;
  {
    auto sys = make();
    sys->run(cut);
    ckpt::Serializer s;
    sys->save_checkpoint(s);
    snapshot = s.take();
  }

  // Fresh instance (a new process in miniature): restore, then finish.
  auto resumed = make();
  {
    ckpt::Deserializer d(snapshot);
    resumed->load_checkpoint(d);
    EXPECT_TRUE(d.at_end());
  }
  // save -> load -> save byte-identity before resuming.
  {
    ckpt::Serializer s;
    resumed->save_checkpoint(s);
    EXPECT_EQ(s.data(), snapshot);
  }
  const core::RunResult after = resumed->run();
  EXPECT_EQ(after.to_json(), full.to_json());
}

TEST_P(SystemCkpt, SegmentedRunMatchesUninterrupted) {
  // The resumable-run contract alone (no serialization): run(N) then run()
  // is the same as one run().
  const core::RunResult full = make()->run();
  auto sys = make();
  sys->run(full.cycles / 3);
  sys->run(full.cycles * 2 / 3);
  EXPECT_EQ(sys->run().to_json(), full.to_json());
}

TEST_P(SystemCkpt, FileRoundTripResumesBitExactly) {
  const core::RunResult full = make()->run();
  const std::string path = ::testing::TempDir() + "sys_" +
                           std::string(core::name_of(GetParam())) + ".ckpt";
  {
    auto sys = make();
    sys->run(full.cycles / 2);
    sys->save_checkpoint_file(path);
  }
  auto resumed = make();
  resumed->load_checkpoint_file(path);
  EXPECT_EQ(resumed->run().to_json(), full.to_json());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, SystemCkpt,
    ::testing::Values(core::SystemKind::kBaseline, core::SystemKind::kUnSync,
                      core::SystemKind::kReunion, core::SystemKind::kLockstep,
                      core::SystemKind::kCheckpoint, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

// ---- Wire-format pins on real system checkpoints -----------------------------
//
// Container.GoldenBytes pins the envelope on a two-byte payload; these pin
// the whole file a real mid-run system writes (every component's chunk), by
// size, CRC-32 and FNV-1a. Any change to how a scalar, chunk or container is
// encoded fails here. A deliberate format change needs a schema bump, not a
// new pin.

struct CkptPin {
  core::SystemKind kind;
  std::size_t size;
  std::uint32_t crc;
  std::uint64_t fnv;
};

constexpr CkptPin kCkptPins[] = {
    {core::SystemKind::kBaseline, 1244771, 3989818736u, 0x650d86ad24184483ull},
    {core::SystemKind::kUnSync, 1309651, 2932049228u, 0x92b11bc53a29043bull},
    {core::SystemKind::kReunion, 1309225, 363627898u, 0xcf391303a720a1e0ull},
    {core::SystemKind::kLockstep, 1309367, 188567334u, 0xf3cb02d7d5fa40e8ull},
    {core::SystemKind::kCheckpoint, 1309455, 4112716248u, 0x2546aa4be3517ca7ull},
    {core::SystemKind::kHetero, 1245599, 276001114u, 0x03a50b3c07cbe9c3ull},
};

class CkptWirePin : public ::testing::TestWithParam<CkptPin> {
 protected:
  static std::unique_ptr<core::System> make(core::SystemKind kind) {
    core::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.ser_per_inst = 2e-5;
    cfg.seed = 99;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     4000);
    return core::make_system(kind, cfg, stream);
  }
};

TEST_P(CkptWirePin, CheckpointBytesMatchThePin) {
  const CkptPin& pin = GetParam();
  auto sys = make(pin.kind);
  sys->run(2500);
  const std::string bytes = sys->save_checkpoint_bytes();
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(ckpt::crc32(bytes), pin.crc);
  EXPECT_EQ(ckpt::hash64(bytes), pin.fnv)
      << std::hex << "0x" << ckpt::hash64(bytes);

  // The pinned bytes load into a fresh system and re-save identically.
  auto restored = make(pin.kind);
  restored->load_checkpoint_bytes(bytes);
  EXPECT_EQ(restored->save_checkpoint_bytes(), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, CkptWirePin, ::testing::ValuesIn(kCkptPins),
    [](const auto& info) { return std::string(core::name_of(info.param.kind)); });

// ---- Architectural-state fingerprints ---------------------------------------
//
// The prefix engine splices a converged job onto its golden run when their
// state_fingerprint() values match, so the fingerprint is as much a contract
// as the checkpoint bytes: the same cell as CkptWirePin, pinned per system.

struct FingerprintPinValue {
  core::SystemKind kind;
  std::uint64_t fingerprint;
};

constexpr FingerprintPinValue kFingerprintPins[] = {
    {core::SystemKind::kBaseline, 0x54093cdebbe9f6e9ull},
    {core::SystemKind::kUnSync, 0xa559691a44061ce9ull},
    {core::SystemKind::kReunion, 0x0b14ddcf332e7892ull},
    {core::SystemKind::kLockstep, 0x0461fd883321292aull},
    {core::SystemKind::kCheckpoint, 0xccc9ce7f3023d818ull},
    {core::SystemKind::kHetero, 0xe4097252a3c76376ull},
};

class FingerprintPin : public ::testing::TestWithParam<FingerprintPinValue> {};

TEST_P(FingerprintPin, StateFingerprintMatchesThePin) {
  const FingerprintPinValue& pin = GetParam();
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 2e-5;
  cfg.seed = 99;
  workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed, 4000);
  auto sys = core::make_system(pin.kind, cfg, stream);
  sys->run(2500);
  EXPECT_EQ(sys->state_fingerprint(), pin.fingerprint)
      << std::hex << "0x" << sys->state_fingerprint();
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, FingerprintPin, ::testing::ValuesIn(kFingerprintPins),
    [](const auto& info) { return std::string(core::name_of(info.param.kind)); });

// A faulty run differs from its ser=0 twin only in the fault channel until
// the first arrival fires, and the fingerprint leaves the channel out: the
// two fingerprints agree at every boundary before that arrival. One more
// tick moves the state, so the fingerprint is not blind to progress.
class FingerprintProperty
    : public ::testing::TestWithParam<core::SystemKind> {};

TEST_P(FingerprintProperty, FaultFreeTwinMatchesUntilTheFirstArrival) {
  const core::SystemKind kind = GetParam();
  constexpr std::uint64_t kInsts = 3000;
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.seed = 5;
  workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                   kInsts);
  core::SystemConfig faulty_cfg = cfg;
  faulty_cfg.ser_per_inst = 1e-3;
  auto golden = core::make_system(kind, cfg, stream);
  auto faulty = core::make_system(kind, faulty_cfg, stream);

  // The faulty system's earliest strike: construction draws one schedule
  // per thread, in thread order, from an RNG seeded with the config seed.
  Rng rng(faulty_cfg.seed);
  SeqNum first = kNoSeq;
  for (unsigned t = 0; t < faulty_cfg.num_threads; ++t) {
    const auto s =
        fault::schedule_arrivals(faulty_cfg.ser_per_inst, kInsts, rng);
    if (!s.empty()) first = std::min(first, s.front());
  }
  ASSERT_NE(first, kNoSeq);  // ~3 strikes expected per thread

  const auto reached_first = [&] {
    for (const SeqNum p : faulty->group_progress()) {
      if (p >= first) return true;
    }
    return false;
  };
  unsigned compared = 0;
  for (Cycle c = 50;; c += 50) {
    const core::RunResult g = golden->run(c);
    faulty->run(c);
    if (g.cycles < c || reached_first()) break;
    ASSERT_EQ(golden->state_fingerprint(), faulty->state_fingerprint())
        << "cycle " << c;
    ++compared;
    const std::uint64_t before = faulty->state_fingerprint();
    faulty->run(c + 1);
    golden->run(c + 1);
    if (!reached_first()) {
      EXPECT_NE(faulty->state_fingerprint(), before) << "cycle " << c + 1;
    }
  }
  EXPECT_GT(compared, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, FingerprintProperty,
    ::testing::Values(core::SystemKind::kBaseline, core::SystemKind::kUnSync,
                      core::SystemKind::kReunion, core::SystemKind::kLockstep,
                      core::SystemKind::kCheckpoint, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

TEST(SystemCkptMismatch, RejectsCheckpointFromAnotherSystemKind) {
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);

  auto baseline = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  baseline->run(500);
  ckpt::Serializer s;
  baseline->save_checkpoint(s);

  auto unsync_sys = core::make_system(core::SystemKind::kUnSync, cfg, stream);
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(unsync_sys->load_checkpoint(d), ckpt::CkptError);
}

TEST(SystemCkptMismatch, HeteroTagRejectsForeignCheckpoints) {
  // HTRO is its own wire tag: a hetero system refuses an UnSync snapshot and
  // vice versa, even though both serialise a two-member group per thread.
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);

  auto hetero = core::make_system(core::SystemKind::kHetero, cfg, stream);
  hetero->run(500);
  ckpt::Serializer s;
  hetero->save_checkpoint(s);
  const std::string hetero_bytes = s.take();

  auto unsync_sys = core::make_system(core::SystemKind::kUnSync, cfg, stream);
  {
    ckpt::Deserializer d(hetero_bytes);
    EXPECT_THROW(unsync_sys->load_checkpoint(d), ckpt::CkptError);
  }

  ckpt::Serializer s2;
  unsync_sys->save_checkpoint(s2);
  auto hetero2 = core::make_system(core::SystemKind::kHetero, cfg, stream);
  ckpt::Deserializer d2(s2.take());
  EXPECT_THROW(hetero2->load_checkpoint(d2), ckpt::CkptError);
}

TEST(SystemCkptMismatch, RejectsConfigurationMismatch) {
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);
  core::SystemConfig two;
  two.num_threads = 2;
  auto sys2 = core::make_system(core::SystemKind::kUnSync, two, stream);
  sys2->run(400);
  ckpt::Serializer s;
  sys2->save_checkpoint(s);

  core::SystemConfig one;
  one.num_threads = 1;
  auto sys1 = core::make_system(core::SystemKind::kUnSync, one, stream);
  ckpt::Deserializer d(s.take());
  EXPECT_THROW(sys1->load_checkpoint(d), ckpt::CkptError);
}

TEST(SystemCkptMismatch, RejectsTrailingGarbageInFile) {
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  workload::SyntheticStream stream(workload::profile("gzip"), 42, 2000);
  auto sys = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  sys->run(300);

  ckpt::Serializer s;
  sys->save_checkpoint(s);
  std::string payload = s.take();
  payload += "trailing";
  const std::string path = ::testing::TempDir() + "trailing.ckpt";
  ckpt::write_file(path, payload);

  auto fresh = core::make_system(core::SystemKind::kBaseline, cfg, stream);
  EXPECT_THROW(fresh->load_checkpoint_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

// ---- Out-of-order core consistency -----------------------------------------
//
// OooCore::load_state rebuilds its scheduling structures (ROB ring, wakeup
// lists, woken set, store chain, fence) from the saved ROB, so it must
// reject a core whose counts and lists disagree. Each case edits one field
// of a saved core in place; the offsets come from walking the CPU0 layout
// (src/cpu/core_ckpt.cpp).

constexpr std::size_t kChunkHeader = 12;  // 4-byte tag + u64 length
constexpr std::size_t kOpBytes = 45;      // workload::save_op
constexpr std::size_t kRobEntryBytes = kOpBytes + 11;
// Field offsets inside one ROB entry.
constexpr std::size_t kOpCls = 8, kOpSrc0 = 17, kEntryInIq = kOpBytes,
                      kEntryIssued = kOpBytes + 1;

std::uint64_t get_u64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(b[at + i])} << (8 * i);
  }
  return v;
}

void put_le(std::string& b, std::size_t at, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

struct CoreLayout {
  std::size_t fetch_count = 0;  // u64
  std::size_t rob_count = 0;    // u64, then the entries
  std::size_t completions = 0;  // u64, then (seq, complete_at) pairs
  std::size_t iq_count = 0;     // u32 iq, lq, sq, then the store window
  std::uint64_t n_rob = 0;
  std::size_t entry(std::uint64_t i) const {
    return rob_count + 8 + i * kRobEntryBytes;
  }
};

CoreLayout walk_core(const std::string& b) {
  CoreLayout l;
  std::size_t at = kChunkHeader + 4;  // "CPU0", core id
  const auto skip_chunk = [&] { at += kChunkHeader + get_u64(b, at + 4); };
  skip_chunk();  // CSTA
  at += 16;      // next_sample, frozen_until
  l.fetch_count = at;
  at += 8 + get_u64(b, at) * kOpBytes;
  l.rob_count = at;
  l.n_rob = get_u64(b, at);
  at += 8 + l.n_rob * kRobEntryBytes;
  l.completions = at;
  at += 8 + get_u64(b, at) * 16;
  for (int i = 0; i < 3; ++i) skip_chunk();  // BPRD, two TLB0
  for (int pool = 0; pool < 7; ++pool) at += 8 + get_u64(b, at) * 8;
  skip_chunk();                   // stream cursor
  at += 1 + 8 + 8 + 1 + kOpBytes;  // front-end cursor, pending op
  l.iq_count = at;
  return l;
}

struct CoreRig {
  explicit CoreRig(const cpu::CoreConfig& cfg = {})
      : memory(mem::MemConfig{}, 1),
        core(0, cfg, &memory,
             std::make_unique<workload::SyntheticStream>(
                 workload::profile("mcf"), 7, 4000)) {}
  mem::MemoryHierarchy memory;
  cpu::OooCore core;
};

std::string save_core(const cpu::OooCore& core) {
  ckpt::Serializer s;
  core.save_state(s);
  return s.take();
}

/// Loading `bytes` into a fresh core throws a CkptError naming `what`.
void expect_core_rejected(const std::string& bytes, const std::string& what,
                          const cpu::CoreConfig& cfg = {}) {
  CoreRig fresh(cfg);
  ckpt::Deserializer d(bytes);
  try {
    fresh.core.load_state(d);
    ADD_FAILURE() << "accepted a core with " << what;
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "expected '" << what << "', got '" << e.what() << "'";
  }
}

TEST(CoreCkptConsistency, RejectsEveryInconsistentField) {
  // Run until the ROB holds waiting entries, loads and stores, and the
  // fetch queue is not empty.
  CoreRig rig;
  std::string bytes;
  CoreLayout l;
  for (Cycle now = 0; now < 5000; ++now) {
    rig.core.tick(now);
    bytes = save_core(rig.core);
    l = walk_core(bytes);
    std::uint32_t iq = 0, lq = 0, sq = 0;
    std::memcpy(&iq, bytes.data() + l.iq_count, 4);
    std::memcpy(&lq, bytes.data() + l.iq_count + 4, 4);
    std::memcpy(&sq, bytes.data() + l.iq_count + 8, 4);
    if (now > 200 && l.n_rob >= 8 && iq >= 4 && lq >= 1 && sq >= 1 &&
        get_u64(bytes, l.fetch_count) >= 1) {
      break;
    }
  }
  ASSERT_GE(l.n_rob, 8u);
  ASSERT_EQ(get_u64(bytes, l.completions), l.n_rob);

  // The walk is right: the untouched core loads and re-saves identically.
  {
    CoreRig fresh;
    ckpt::Deserializer d(bytes);
    fresh.core.load_state(d);
    EXPECT_TRUE(d.at_end());
    EXPECT_EQ(save_core(fresh.core), bytes);
  }

  const cpu::CoreConfig cfg;
  const auto mutated = [&](std::size_t at, std::uint64_t v, std::size_t n) {
    std::string m = bytes;
    put_le(m, at, v, n);
    return m;
  };
  // Counts past the configured capacities (and absurd ones).
  for (const std::uint64_t n : {std::uint64_t{cfg.fetch_queue_entries} + 1,
                                std::uint64_t{1} << 60}) {
    expect_core_rejected(mutated(l.fetch_count, n, 8),
                         "fetch queue over capacity");
  }
  for (const std::uint64_t n : {std::uint64_t{cfg.rob_entries} + 1,
                                std::uint64_t{1} << 60}) {
    expect_core_rejected(mutated(l.rob_count, n, 8), "ROB over capacity");
  }
  // ROB seqs with a gap.
  const SeqNum seq1 = get_u64(bytes, l.entry(1));
  expect_core_rejected(mutated(l.entry(1), seq1 + 1, 8), "not contiguous");
  // Per-entry preconditions: producers older, one issue state, a class.
  const SeqNum seq0 = get_u64(bytes, l.entry(0));
  expect_core_rejected(mutated(l.entry(0) + kOpSrc0, seq0, 8),
                       "younger producer");
  const std::uint8_t issued =
      static_cast<std::uint8_t>(bytes[l.entry(0) + kEntryIssued]);
  expect_core_rejected(mutated(l.entry(0) + kEntryInIq, issued, 1),
                       "issue state");
  expect_core_rejected(mutated(l.entry(0) + kOpCls, 200, 1),
                       "class out of range");
  // The completion list must be exactly the ROB's (seq, complete_at) list.
  expect_core_rejected(mutated(l.completions, l.n_rob - 1, 8),
                       "completion list");
  expect_core_rejected(mutated(l.completions + 8, seq0 + 1, 8),
                       "completion list");
  const std::size_t last_at = l.completions + 8 + (l.n_rob - 1) * 16 + 8;
  expect_core_rejected(mutated(last_at, get_u64(bytes, last_at) ^ 1, 8),
                       "completion list");
  // Queue counts must equal the ROB's in_iq / load / store entries.
  for (std::size_t field = 0; field < 3; ++field) {
    const std::size_t at = l.iq_count + 4 * field;
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, 4);
    expect_core_rejected(mutated(at, v + 1, 4), "queue counts");
    expect_core_rejected(mutated(at, v - 1, 4), "queue counts");
  }
  // The fetch queue continues the ROB's seqs; the post-commit store
  // window is bounded.
  ASSERT_GE(get_u64(bytes, l.fetch_count), 1u);
  const std::size_t fq0 = l.fetch_count + 8;
  expect_core_rejected(mutated(fq0, get_u64(bytes, fq0) + 1, 8),
                       "fetch queue seqs not contiguous");
  expect_core_rejected(mutated(l.iq_count + 12, 17, 8),
                       "committed-store window over capacity");
  // A consistent core whose issue queue outgrows the configured one.
  std::uint32_t iq = 0;
  std::memcpy(&iq, bytes.data() + l.iq_count, 4);
  cpu::CoreConfig small;
  small.iq_entries = iq - 1;
  expect_core_rejected(bytes, "issue queue over capacity", small);
}

// ---- Container fuzzing ------------------------------------------------------
//
// The robustness contract of every "unsync.ckpt.v1" consumer (file AND
// in-memory blob): arbitrary truncation or bit corruption throws CkptError —
// never a crash, never a silently-wrong restore. The container CRC makes
// this provable for single-bit flips; truncation trips the magic / length /
// CRC checks depending on where the cut lands.

class CkptFuzz : public ::testing::TestWithParam<core::SystemKind> {
 protected:
  std::unique_ptr<core::System> make() const {
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    cfg.ser_per_inst = 5e-5;
    cfg.seed = 99;
    workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed,
                                     1500);
    return core::make_system(GetParam(), cfg, stream);
  }

  std::string snapshot() const {
    auto sys = make();
    sys->run(400);
    return sys->save_checkpoint_bytes();
  }

  /// Offsets spread over the whole blob, dense in the container header.
  static std::vector<std::size_t> sample_offsets(std::size_t size) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < size && i < 40; ++i) at.push_back(i);
    for (std::size_t i = 40; i < size; i += size / 64 + 1) at.push_back(i);
    if (size > 0) at.push_back(size - 1);
    return at;
  }
};

TEST_P(CkptFuzz, TruncatedCheckpointBytesAlwaysThrow) {
  const std::string blob = snapshot();
  ASSERT_GT(blob.size(), 100u);
  auto sys = make();  // unwrap_container throws before any state is touched
  for (const std::size_t keep : sample_offsets(blob.size())) {
    EXPECT_THROW(sys->load_checkpoint_bytes(blob.substr(0, keep)),
                 ckpt::CkptError)
        << "truncated to " << keep << " of " << blob.size() << " bytes";
  }
}

TEST_P(CkptFuzz, BitFlippedCheckpointBytesAlwaysThrow) {
  const std::string blob = snapshot();
  auto sys = make();
  for (const std::size_t at : sample_offsets(blob.size())) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      std::string corrupt = blob;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1u << bit));
      EXPECT_THROW(sys->load_checkpoint_bytes(corrupt), ckpt::CkptError)
          << "bit " << bit << " of byte " << at;
    }
  }
}

TEST_P(CkptFuzz, CorruptCheckpointFilesAlwaysThrow) {
  // One file per parameter: ctest -j runs the instances concurrently.
  const std::string path = ::testing::TempDir() + "fuzz_" +
                           std::string(core::name_of(GetParam())) + ".ckpt";
  {
    auto sys = make();
    sys->run(400);
    sys->save_checkpoint_file(path);
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const auto rewrite = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{17}, bytes.size() / 2,
        bytes.size() - 1}) {
    rewrite(bytes.substr(0, keep));
    auto sys = make();
    EXPECT_THROW(sys->load_checkpoint_file(path), ckpt::CkptError)
        << "file truncated to " << keep;
  }
  std::string flipped = bytes;
  flipped[bytes.size() / 3] = static_cast<char>(flipped[bytes.size() / 3] ^ 0x40);
  rewrite(flipped);
  auto sys = make();
  EXPECT_THROW(sys->load_checkpoint_file(path), ckpt::CkptError);
  std::remove(path.c_str());
}

TEST_P(CkptFuzz, SaveLoadBytesRoundTripsBitExactly) {
  // The in-memory path mirrors the file path: save_checkpoint_bytes ->
  // load_checkpoint_bytes resumes to a bit-identical final result.
  const core::RunResult full = make()->run();
  const std::string blob = snapshot();
  auto resumed = make();
  resumed->load_checkpoint_bytes(blob);
  EXPECT_EQ(resumed->save_checkpoint_bytes(), blob);
  EXPECT_EQ(resumed->run().to_json(), full.to_json());
}

INSTANTIATE_TEST_SUITE_P(
    WireFormats, CkptFuzz,
    ::testing::Values(core::SystemKind::kUnSync, core::SystemKind::kHetero),
    [](const auto& info) { return std::string(core::name_of(info.param)); });

}  // namespace
