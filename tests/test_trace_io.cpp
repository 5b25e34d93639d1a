#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "isa/assembler.hpp"
#include "workload/kernels.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::workload {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<DynOp> sample_ops() {
  SyntheticStream s(profile("bzip2"), 11, 3000);
  std::vector<DynOp> ops;
  DynOp op;
  while (s.next(&op)) ops.push_back(op);
  return ops;
}

void expect_equal(const std::vector<DynOp>& a, const std::vector<DynOp>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].cls, b[i].cls) << i;
    EXPECT_EQ(a[i].pc, b[i].pc) << i;
    EXPECT_EQ(a[i].mem_addr, b[i].mem_addr) << i;
    EXPECT_EQ(a[i].src[0], b[i].src[0]) << i;
    EXPECT_EQ(a[i].src[1], b[i].src[1]) << i;
    EXPECT_EQ(a[i].writes_reg, b[i].writes_reg) << i;
    EXPECT_EQ(a[i].taken, b[i].taken) << i;
    EXPECT_EQ(a[i].has_mispredict_hint, b[i].has_mispredict_hint) << i;
    EXPECT_EQ(a[i].mispredict_hint, b[i].mispredict_hint) << i;
  }
}

TEST(TraceIo, RoundTripSyntheticStream) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_rt.utrc");
  save_trace(path, ops);
  const auto loaded = load_trace(path);
  expect_equal(ops, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripRecordedKernel) {
  const auto k = make_bubble_sort(32, 4);
  const auto ops = record_trace(assemble(k), 1000000);
  const std::string path = temp_path("unsync_trace_kernel.utrc");
  save_trace(path, ops);
  expect_equal(ops, load_trace(path));
  std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const std::string path = temp_path("unsync_trace_empty.utrc");
  save_trace(path, {});
  EXPECT_TRUE(load_trace(path).empty());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace(temp_path("does_not_exist.utrc")),
               std::runtime_error);
  // An unopenable file is an I/O error, not a malformed trace (exit 2).
  try {
    load_trace(temp_path("does_not_exist.utrc"));
  } catch (const TraceError&) {
    ADD_FAILURE() << "a missing file is not a malformed trace";
  } catch (const std::runtime_error&) {
  }
}

TEST(TraceIo, BadMagicThrows) {
  const std::string path = temp_path("unsync_trace_bad.utrc");
  std::ofstream(path) << "GARBAGE DATA LONG ENOUGH TO READ";
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileThrows) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_trunc.utrc");
  save_trace(path, ops);
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadedTraceDrivesStream) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_stream.utrc");
  save_trace(path, ops);
  TraceStream stream(load_trace(path));
  EXPECT_EQ(stream.length(), ops.size());
  DynOp op;
  std::uint64_t n = 0;
  while (stream.next(&op)) ++n;
  EXPECT_EQ(n, ops.size());
  std::remove(path.c_str());
}

// ---- Inputs the timing model cannot represent ------------------------------
//
// The core indexes its ROB by seq and wakes consumers from their producers,
// so a trace must carry seq i at op i, producers older than their
// consumers, and stream classes only. Each case patches one field of a
// valid file (16-byte header, then 48-byte ops) and expects TraceError.

constexpr std::size_t kHeader = 16;
constexpr std::size_t kOp = 48;
// Field offsets inside one on-disk op.
constexpr std::size_t kSeq = 0, kSrc0 = 24, kSrc1 = 32, kCls = 40;

std::string trace_bytes(const std::vector<DynOp>& ops,
                        const std::string& path) {
  save_trace(path, ops);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void patch(std::string& b, std::size_t at, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void expect_trace_error(const std::string& bytes, const std::string& path,
                        const std::string& what) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  try {
    load_trace(path);
    ADD_FAILURE() << "accepted a trace with " << what;
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "expected '" << what << "', got '" << e.what() << "'";
  }
}

TEST(TraceIo, RejectsWhatTheCoreCannotRepresent) {
  const auto ops = sample_ops();
  const std::string path = temp_path("unsync_trace_invalid.utrc");
  const std::string good = trace_bytes(ops, path);
  ASSERT_EQ(good.size(), kHeader + ops.size() * kOp);
  const auto op_at = [](std::size_t i, std::size_t field) {
    return kHeader + i * kOp + field;
  };
  const auto mutated = [&](std::size_t at, std::uint64_t v, std::size_t n) {
    std::string b = good;
    patch(b, at, v, n);
    return b;
  };

  // Class bytes past kSerializing: kHalt (10) and out of the enum.
  for (const std::uint64_t cls : {10, 11, 255}) {
    expect_trace_error(mutated(op_at(5, kCls), cls, 1), path,
                       "instruction class out of range");
  }
  // A header count larger than the file, near and absurd.
  for (const std::uint64_t count :
       {std::uint64_t{ops.size()} + 1, std::uint64_t{1} << 60,
        ~std::uint64_t{0}}) {
    expect_trace_error(mutated(8, count, 8), path,
                       "counts more ops than the file holds");
  }
  // Op i must carry seq i.
  expect_trace_error(mutated(op_at(7, kSeq), 8, 8), path, "seq out of order");
  expect_trace_error(mutated(op_at(0, kSeq), 1, 8), path, "seq out of order");
  // Producers must be older: not itself, not a later op.
  expect_trace_error(mutated(op_at(9, kSrc0), 9, 8), path,
                     "producer not older");
  expect_trace_error(mutated(op_at(9, kSrc1), 500, 8), path,
                     "producer not older");
  // Malformed framing is the same error type.
  expect_trace_error(good.substr(0, good.size() - 1), path,
                     "counts more ops than the file holds");
  expect_trace_error(good.substr(0, 12), path, "truncated");
  expect_trace_error("UTRC", path, "unsupported trace version");
  // The untouched file still loads, and kNoSeq / older producers are fine.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << good;
  expect_equal(ops, load_trace(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unsync::workload
